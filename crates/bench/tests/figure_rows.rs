//! The committed Figure 18/19 rows are pinned exactly.
//!
//! Simulated cycles, memory-op counts and optimizer rule counts are
//! deterministic, so `fig18_memops` and `fig19_speedup` must regenerate
//! `BENCH_fig18.json` and `BENCH_fig19.json` byte for byte. Only the
//! wall-time fields differ between runs: every `"us"` value, and the
//! compiler `"spans"` array (which the committed files predate). Both are
//! removed from each line before comparing.
//!
//! To bless an intended change, regenerate from the repository root with
//! `cargo run --release -p cash-bench --bin fig18_memops` (and
//! `fig19_speedup`), then commit the new files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure_rows").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a figure binary with `dir` as its working directory.
fn run_in(bin: &str, dir: &Path) -> Output {
    Command::new(bin).current_dir(dir).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// Drops a record's trailing `"spans"` array and zeroes every `"us"`
/// value: what is left is deterministic.
fn normalize(line: &str) -> String {
    let line = match line.rfind(",\"spans\":[") {
        Some(i) if line.ends_with("]}") => &line[..i],
        _ => line.strip_suffix('}').unwrap_or(line),
    };
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(i) = rest.find("\"us\":") {
        let (head, tail) = rest.split_at(i + "\"us\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out.push('}');
    out
}

/// Regenerates `BENCH_<bench>.json` with `bin` and compares it row by row
/// with the committed file.
fn pin(bench: &str, bin: &str) {
    let dir = scratch(bench);
    let out = run_in(bin, &dir);
    assert!(
        out.status.success(),
        "{bin} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let file = format!("BENCH_{bench}.json");
    let fresh = std::fs::read_to_string(dir.join(&file)).unwrap();
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(&file))
            .unwrap();
    let fresh: Vec<String> = fresh.lines().map(normalize).collect();
    let committed: Vec<String> = committed.lines().map(normalize).collect();
    assert!(!committed.is_empty(), "{file} is empty");
    for (i, (new, old)) in fresh.iter().zip(&committed).enumerate() {
        if new != old {
            let at = new.bytes().zip(old.bytes()).take_while(|(a, b)| a == b).count();
            let from = at.saturating_sub(60);
            panic!(
                "{file} row {} differs at byte {at}:\n  committed: …{}\n  fresh:     …{}",
                i + 1,
                &old[from..(at + 60).min(old.len())],
                &new[from..(at + 60).min(new.len())],
            );
        }
    }
    assert_eq!(fresh.len(), committed.len(), "{file}: fresh vs committed row count");
}

#[test]
fn fig18_rows_match_the_committed_file() {
    pin("fig18", env!("CARGO_BIN_EXE_fig18_memops"));
}

#[test]
fn fig19_rows_match_the_committed_file() {
    pin("fig19", env!("CARGO_BIN_EXE_fig19_speedup"));
}

/// A BENCH file that cannot be written fails the run: a directory in the
/// file's place makes the write fail even for a user whom permission
/// bits would not stop.
#[test]
fn an_unwritable_bench_file_fails_the_run() {
    let dir = scratch("unwritable");
    std::fs::create_dir(dir.join("BENCH_fig18.json")).unwrap();
    let out = run_in(env!("CARGO_BIN_EXE_fig18_memops"), &dir);
    assert!(!out.status.success(), "fig18_memops exited 0 without writing its BENCH file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write BENCH_fig18.json"), "{stderr}");
}
