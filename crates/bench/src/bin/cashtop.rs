//! Live per-stage view of a running sweep.
//!
//! The harness binaries mirror every `cash-stats-v1` record to the JSONL
//! file named by `CASH_STATS_STREAM` (see `obs::stream`). `cashtop` tails
//! that file and renders a per-stage throughput/latency table — which
//! compiler stages and which part of the simulator the sweep is spending
//! its time in, refreshed as records land.
//!
//! ```text
//! CASH_STATS_STREAM=/tmp/sweep.jsonl cargo run --release -p cash-bench --bin fig19_speedup &
//! cargo run -p cash-bench --bin cashtop -- /tmp/sweep.jsonl
//! ```
//!
//! `--once` reads whatever is in the file and exits (CI-friendly); the
//! default follows the file until no new records arrive for `--idle-exit`
//! seconds (0 = follow forever).

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};

/// First `"key":"<value>"` string field of the line. A hand-rolled
/// scanner over our own serializer's output (fixed key order, no
/// whitespace, no string escapes in the keyed fields), not a general JSON
/// reader.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    Some(&rest[..rest.find('"')?])
}

/// First `"key":<digits>` after the first `"section":{` of the line. Our
/// serializer's fixed key order guarantees the first match is the
/// section's own field, not something nested deeper.
fn section_u64(line: &str, section: &str, key: &str) -> Option<u64> {
    let sec = &line[line.find(&format!("\"{section}\":{{"))?..];
    let pat = format!("\"{key}\":");
    let i = sec.find(&pat)? + pat.len();
    let end = sec[i..].find(|c: char| !c.is_ascii_digit())? + i;
    sec[i..end].parse().ok()
}

/// Aggregate for one pipeline stage across all records seen so far.
#[derive(Default)]
struct Stage {
    runs: u64,
    total_us: u64,
    max_us: u64,
    last_us: u64,
}

impl Stage {
    fn add(&mut self, us: u64) {
        self.runs += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        self.last_us = us;
    }
}

#[derive(Default)]
struct View {
    records: u64,
    kernels: std::collections::BTreeSet<String>,
    last_key: String,
    stages: BTreeMap<String, Stage>,
}

impl View {
    /// Folds one JSONL record into the aggregates. Stage latencies come
    /// from the record's compiler `spans` (top two levels — "compile",
    /// "frontend", "opt", …) plus the simulator's own `sim.us`.
    fn ingest(&mut self, line: &str) {
        let Some(kernel) = field_str(line, "kernel") else { return };
        self.records += 1;
        self.kernels.insert(kernel.to_string());
        let system = field_str(line, "system").unwrap_or("?");
        self.last_key = format!("{kernel}/{system}");
        for (name, depth, dur) in parse_spans(line) {
            if depth <= 1 {
                self.stages.entry(name).or_default().add(dur);
            }
        }
        if let Some(us) = section_u64(line, "sim", "us") {
            self.stages.entry("sim".into()).or_default().add(us);
        }
    }

    fn render(&self, elapsed_s: f64) -> String {
        let mut out = format!(
            "cashtop — {} records, {} kernels, {:.1} rec/s, last: {}\n",
            self.records,
            self.kernels.len(),
            if elapsed_s > 0.0 { self.records as f64 / elapsed_s } else { 0.0 },
            if self.last_key.is_empty() { "-" } else { &self.last_key },
        );
        out.push_str(&format!(
            "  {:<16} {:>6} {:>10} {:>9} {:>9} {:>9}\n",
            "stage", "runs", "total", "mean", "max", "last"
        ));
        for (name, s) in &self.stages {
            out.push_str(&format!(
                "  {:<16} {:>6} {:>8}us {:>7}us {:>7}us {:>7}us\n",
                name,
                s.runs,
                s.total_us,
                s.total_us / s.runs.max(1),
                s.max_us,
                s.last_us
            ));
        }
        out
    }
}

/// Pulls `(name, depth, dur_us)` out of the record's additive
/// `"spans":[["name",depth,start,dur],...]` field.
fn parse_spans(line: &str) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let Some(i) = line.find("\"spans\":[") else { return out };
    let mut rest = &line[i + "\"spans\":[".len()..];
    while let Some(open) = rest.find("[\"") {
        let entry = &rest[open + 2..];
        let Some(q) = entry.find('"') else { break };
        let name = &entry[..q];
        let nums: Vec<u64> = entry[q + 1..]
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .take(3)
            .filter_map(|s| s.parse().ok())
            .collect();
        let Some(close) = entry.find(']') else { break };
        if let [depth, _start, dur] = nums[..] {
            out.push((name.to_string(), depth, dur));
        }
        rest = &entry[close..];
        // The spans array ends at the first `]]`; anything after belongs
        // to other sections of the record.
        if rest.starts_with("]]") {
            break;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut once = false;
    let mut idle_exit = 10.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => once = true,
            "--idle-exit" => {
                i += 1;
                idle_exit = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--idle-exit needs seconds"));
            }
            "--help" | "-h" => usage(""),
            a => path = Some(a.to_string()),
        }
        i += 1;
    }
    // `--once` is the CI path: a sweep that never streamed (env unset, or
    // nothing written yet) is an empty result, not a crash.
    let path = match path.or_else(|| std::env::var("CASH_STATS_STREAM").ok()) {
        Some(p) => p,
        None if once => {
            println!("cashtop: no stream to read (CASH_STATS_STREAM unset and no file argument)");
            return;
        }
        None => usage("no stream file (arg or CASH_STATS_STREAM)"),
    };

    let mut file = loop {
        match std::fs::File::open(&path) {
            Ok(f) => break f,
            Err(e) if once => {
                println!("cashtop: stream {path} not readable ({e}) — nothing to report");
                return;
            }
            // Follow mode: the sweep may not have created the file yet.
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    };

    let start = std::time::Instant::now();
    let mut view = View::default();
    let mut buf = String::new();
    let mut carry = String::new();
    let mut idle = std::time::Instant::now();
    loop {
        buf.clear();
        let pos = file.stream_position().unwrap_or(0);
        if file.read_to_string(&mut buf).is_err() {
            // A partial UTF-8 sequence at EOF: rewind and retry later.
            let _ = file.seek(SeekFrom::Start(pos));
        }
        if !buf.is_empty() {
            idle = std::time::Instant::now();
            carry.push_str(&buf);
            while let Some(nl) = carry.find('\n') {
                let line: String = carry.drain(..=nl).collect();
                view.ingest(line.trim_end());
            }
        }
        if once {
            // A writer killed mid-record leaves a truncated last line;
            // only fold it in when it closed its JSON object.
            let tail = carry.trim();
            if !tail.is_empty() {
                if tail.ends_with('}') {
                    view.ingest(tail);
                } else {
                    eprintln!("cashtop: ignoring truncated final record ({} bytes)", tail.len());
                }
            }
            print!("{}", view.render(start.elapsed().as_secs_f64()));
            return;
        }
        // Clear-and-home so the table repaints in place.
        print!("\x1b[2J\x1b[H{}", view.render(start.elapsed().as_secs_f64()));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        if idle_exit > 0.0 && idle.elapsed().as_secs_f64() > idle_exit {
            println!("cashtop: no new records for {idle_exit}s, exiting");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("cashtop: {err}");
    }
    eprintln!("usage: cashtop [STREAM.jsonl] [--once] [--idle-exit SECS]");
    std::process::exit(2);
}
