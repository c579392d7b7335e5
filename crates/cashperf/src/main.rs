//! `cashperf`: runs benchmark workloads end to end.
//!
//! `cashperf --workload <name> [--seed N] [--seconds S] [--trace 0|1]` runs
//! one workload in this process and prints one `workload metric value unit`
//! line per metric, then the JSON result line. `--trace 1` hands the run to
//! the traced binary, `cashperf-trace`, built beside this one. `cashperf
//! all` runs every workload in its own child process, one after another,
//! and fails if any result is wrong.

use cashperf::{Args, Workload, USAGE};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cashperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.trace => match child(&args, w).and_then(|mut c| c.status()) {
            Ok(status) if status.success() => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cashperf: cannot run cashperf-trace: {e}");
                ExitCode::FAILURE
            }
        },
        Some(w) => {
            cashperf::run(w, args.seed, args.seconds, None).print();
            ExitCode::SUCCESS
        }
        None => all(&args),
    }
}

/// The command running one workload: this binary, or the traced one.
fn child(args: &Args, w: Workload) -> std::io::Result<Command> {
    let mut exe = std::env::current_exe()?;
    if args.trace {
        exe.set_file_name(format!("cashperf-trace{}", std::env::consts::EXE_SUFFIX));
    }
    let mut cmd = Command::new(exe);
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    cmd.args(["--workload", w.name(), "--seed", &seed, "--seconds", &seconds]);
    Ok(cmd)
}

/// Runs every workload in a child process and prints its metric lines.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let out = child(args, w).and_then(|mut c| c.stderr(Stdio::inherit()).output());
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cashperf: {}: cannot run: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !out.status.success() || !result.contains("\"correct\":true") {
            eprintln!("cashperf: {}: failed ({}): {result}", w.name(), out.status);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
