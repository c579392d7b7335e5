//! Exports one merged Perfetto timeline for a kernel: the compiler's
//! spans (per pass, microseconds) and the simulated circuit's slices
//! (cycles) in a single Chrome trace-event JSON, loadable at
//! <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release -p cash-bench --bin cashtrace -- [KERNEL] [--out DIR] [--arg N]
//! ```
//!
//! Defaults to `g721_e` (a Figure 19 kernel) at a quarter of its sweep
//! argument — enough activity for a readable timeline without a
//! multi-megabyte event stream — writing `DIR/trace_<kernel>.json`
//! (default `target/obs`).

use cash::{CacheParams, MemSystem, OptLevel, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kernel = "g721_e".to_string();
    let mut out_dir = "target/obs".to_string();
    let mut arg_override: Option<i64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| usage("--out needs a directory"));
            }
            "--arg" => {
                i += 1;
                arg_override = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--arg needs a number")),
                );
            }
            "--help" | "-h" => usage(""),
            a => kernel = a.to_string(),
        }
        i += 1;
    }

    let w = workloads::by_name(&kernel).unwrap_or_else(|| {
        eprintln!("cashtrace: unknown kernel `{kernel}`; known kernels:");
        for w in workloads::suite() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    });
    let arg = arg_override.unwrap_or((w.default_arg / 4).max(1));

    // The realistic memory system gives the timeline its cache-miss and
    // LSQ slices; profiling + tracing must both be on to collect events.
    let cfg =
        SimConfig { mem: MemSystem::Hierarchy(CacheParams::default()), ..SimConfig::perfect() }
            .with_observability(true, true);
    let p = w.compile(OptLevel::Full).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let r = p.simulate(&[arg], &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let trace = r.trace.as_ref().expect("tracing was enabled");
    let json = p.merged_trace_json(trace);

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| panic!("mkdir {out_dir}: {e}"));
    let path = format!("{out_dir}/trace_{}.json", kernel.replace('.', "_"));
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "cashtrace: {kernel} arg={arg} — {} cycles, {} compiler spans, {} bytes -> {path}",
        r.cycles,
        p.spans.len(),
        json.len()
    );
    if p.spans.is_empty() {
        eprintln!("cashtrace: no compiler spans captured");
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("cashtrace: {err}");
    }
    eprintln!("usage: cashtrace [KERNEL] [--out DIR] [--arg N]");
    std::process::exit(2);
}
