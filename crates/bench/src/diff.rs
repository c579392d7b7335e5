//! Diffing two `BENCH_*.json` telemetry files (`bench_diff` bin): the
//! perf trajectory machine-checked instead of eyeballed.
//!
//! Each file is one `cash-stats-v1` record per line (see
//! [`crate::harness::write_stats`]). Rows are keyed by
//! `bench/kernel/level/system` and compared on `sim.cycles`; a row whose
//! cycle count grew by at least the threshold is a *regression*, one that
//! shrank by at least the threshold an *improvement*. Keys present on only
//! one side are reported but never fail the diff (benchmarks come and go).
//!
//! The parser is a hand-rolled scanner over our own serializer's output —
//! fixed key order, no whitespace, no string escapes in the keyed fields —
//! not a general JSON reader (the container vendors no serde).

use std::collections::HashMap;
use std::fmt::Write;

/// One comparable row extracted from a stats line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `bench/kernel/level/system`.
    pub key: String,
    /// `sim.cycles`.
    pub cycles: u64,
}

/// One row whose cycle count moved past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub key: String,
    pub old: u64,
    pub new: u64,
    /// Signed percentage change ((new - old) / old * 100).
    pub pct: f64,
}

/// The outcome of diffing two telemetry files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Rows slower by at least the threshold — these fail the diff.
    pub regressions: Vec<Delta>,
    /// Rows faster by at least the threshold — informational.
    pub improvements: Vec<Delta>,
    /// Keys only in the new file.
    pub added: Vec<String>,
    /// Keys only in the old file.
    pub removed: Vec<String>,
    /// Rows compared (keys present on both sides).
    pub compared: usize,
}

/// First `"key":"<value>"` string field of the line (`cashtop` shares
/// this scanner to label live records).
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    Some(&rest[..rest.find('"')?])
}

/// First `"key":<digits>` after the first `"section":{` of the line. Our
/// serializer's fixed key order guarantees the first match is the
/// section's own field, not something nested deeper.
pub fn section_u64(line: &str, section: &str, key: &str) -> Option<u64> {
    let sec = &line[line.find(&format!("\"{section}\":{{"))?..];
    let pat = format!("\"{key}\":");
    let i = sec.find(&pat)? + pat.len();
    let end = sec[i..].find(|c: char| !c.is_ascii_digit())? + i;
    sec[i..end].parse().ok()
}

fn sim_cycles(line: &str) -> Option<u64> {
    section_u64(line, "sim", "cycles")
}

/// Extracts the comparable rows of one telemetry file, in file order.
/// Lines that don't look like stats records are skipped.
pub fn parse(text: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let (Some(bench), Some(kernel), Some(level), Some(system), Some(cycles)) = (
            field_str(line, "bench"),
            field_str(line, "kernel"),
            field_str(line, "level"),
            field_str(line, "system"),
            sim_cycles(line),
        ) else {
            continue;
        };
        rows.push(Row { key: format!("{bench}/{kernel}/{level}/{system}"), cycles });
    }
    rows
}

/// Diffs two telemetry files at a ± `threshold_pct` percent threshold on
/// `sim.cycles`.
pub fn diff(old_text: &str, new_text: &str, threshold_pct: f64) -> DiffReport {
    let old_rows = parse(old_text);
    let new_rows = parse(new_text);
    let old_by_key: HashMap<&str, u64> =
        old_rows.iter().map(|r| (r.key.as_str(), r.cycles)).collect();
    let new_keys: HashMap<&str, ()> = new_rows.iter().map(|r| (r.key.as_str(), ())).collect();

    let mut rep = DiffReport::default();
    for r in &new_rows {
        let Some(&old) = old_by_key.get(r.key.as_str()) else {
            rep.added.push(r.key.clone());
            continue;
        };
        rep.compared += 1;
        let pct = if old == 0 {
            if r.cycles == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            100.0 * (r.cycles as f64 - old as f64) / old as f64
        };
        let d = Delta { key: r.key.clone(), old, new: r.cycles, pct };
        if pct >= threshold_pct {
            rep.regressions.push(d);
        } else if -pct >= threshold_pct {
            rep.improvements.push(d);
        }
    }
    for r in &old_rows {
        if !new_keys.contains_key(r.key.as_str()) {
            rep.removed.push(r.key.clone());
        }
    }
    // Worst offenders first.
    rep.regressions.sort_by(|a, b| b.pct.total_cmp(&a.pct));
    rep.improvements.sort_by(|a, b| a.pct.total_cmp(&b.pct));
    rep
}

impl DiffReport {
    /// Whether the diff should fail (any regression past the threshold).
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut s = String::new();
        let _ =
            writeln!(s, "bench_diff: {} rows compared, threshold ±{threshold_pct}%", self.compared);
        for d in &self.regressions {
            let _ = writeln!(
                s,
                "  REGRESSION {:<40} {:>10} -> {:>10} cycles ({:+.1}%)",
                d.key, d.old, d.new, d.pct
            );
        }
        for d in &self.improvements {
            let _ = writeln!(
                s,
                "  improved   {:<40} {:>10} -> {:>10} cycles ({:+.1}%)",
                d.key, d.old, d.new, d.pct
            );
        }
        for k in &self.added {
            let _ = writeln!(s, "  added      {k}");
        }
        for k in &self.removed {
            let _ = writeln!(s, "  removed    {k}");
        }
        if !self.failed() {
            let _ = writeln!(s, "  ok: no regressions past the threshold");
        }
        s
    }
}

// ---- --wall mode: soft wall-clock + crit-class comparison ----

/// The critical-path edge classes, in `cash-stats-v1` serialization
/// order (must match `ashsim::EdgeClass::label`).
pub const CRIT_CLASSES: [&str; 7] =
    ["data", "pred", "token", "lsq_order", "mem", "cache_miss", "backpressure"];

/// Wall-clock and crit-class fields of one stats row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallRow {
    /// `bench/kernel/level/system`.
    pub key: String,
    /// Simulator wall time, microseconds (`sim.us`).
    pub sim_us: u64,
    /// Optimizer wall time, microseconds (`opt.us`).
    pub opt_us: u64,
    /// Per-class attributed cycles (`sim.crit.classes`), when the row was
    /// collected with critical-path recording on.
    pub crit: Option<[u64; 7]>,
}

/// One wall-time or crit-class movement past the soft threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct WallDelta {
    pub key: String,
    /// `sim.us`, `opt.us`, or `crit.<class>`.
    pub metric: String,
    pub old: u64,
    pub new: u64,
    pub pct: f64,
}

/// The outcome of a `--wall` comparison. Wall time is machine-dependent,
/// so this report is always soft: it renders warnings and never fails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallReport {
    pub deltas: Vec<WallDelta>,
    pub compared: usize,
}

/// Extracts the wall-clock rows of one telemetry file, in file order.
pub fn parse_wall(text: &str) -> Vec<WallRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let (Some(bench), Some(kernel), Some(level), Some(system)) = (
            field_str(line, "bench"),
            field_str(line, "kernel"),
            field_str(line, "level"),
            field_str(line, "system"),
        ) else {
            continue;
        };
        let (Some(sim_us), Some(opt_us)) =
            (section_u64(line, "sim", "us"), section_u64(line, "opt", "us"))
        else {
            continue;
        };
        let crit = line.find("\"classes\":{").map(|_| {
            let mut c = [0u64; 7];
            for (i, label) in CRIT_CLASSES.iter().enumerate() {
                c[i] = section_u64(line, "classes", label).unwrap_or(0);
            }
            c
        });
        rows.push(WallRow {
            key: format!("{bench}/{kernel}/{level}/{system}"),
            sim_us,
            opt_us,
            crit,
        });
    }
    rows
}

fn pct_change(old: u64, new: u64) -> f64 {
    if old == 0 {
        if new == 0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (new as f64 - old as f64) / old as f64
    }
}

/// Compares `sim.us`/`opt.us` wall times and per-crit-class cycle
/// attribution at a ± `threshold_pct` soft threshold. Tiny absolute wall
/// times (< 100 µs) are skipped — their percentages are noise.
pub fn wall_diff(old_text: &str, new_text: &str, threshold_pct: f64) -> WallReport {
    let old_rows = parse_wall(old_text);
    let new_rows = parse_wall(new_text);
    let old_by_key: HashMap<&str, &WallRow> =
        old_rows.iter().map(|r| (r.key.as_str(), r)).collect();
    let mut rep = WallReport::default();
    for r in &new_rows {
        let Some(old) = old_by_key.get(r.key.as_str()) else { continue };
        rep.compared += 1;
        let mut push = |metric: &str, o: u64, n: u64, floor: u64| {
            let pct = pct_change(o, n);
            if pct.abs() >= threshold_pct && (o >= floor || n >= floor) {
                rep.deltas.push(WallDelta {
                    key: r.key.clone(),
                    metric: metric.to_string(),
                    old: o,
                    new: n,
                    pct,
                });
            }
        };
        push("sim.us", old.sim_us, r.sim_us, 100);
        push("opt.us", old.opt_us, r.opt_us, 100);
        if let (Some(oc), Some(nc)) = (&old.crit, &r.crit) {
            for (i, label) in CRIT_CLASSES.iter().enumerate() {
                push(&format!("crit.{label}"), oc[i], nc[i], 1);
            }
        }
    }
    rep.deltas.sort_by(|a, b| b.pct.abs().total_cmp(&a.pct.abs()));
    rep
}

impl WallReport {
    /// Human-readable rendering; all findings are warnings.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "bench_diff --wall: {} rows compared, soft threshold ±{threshold_pct}% (warn only)",
            self.compared
        );
        for d in &self.deltas {
            let unit = if d.metric.starts_with("crit.") { "cycles" } else { "us" };
            let _ = writeln!(
                s,
                "  warn {:<40} {:<18} {:>10} -> {:>10} {unit} ({:+.1}%)",
                d.key, d.metric, d.old, d.new, d.pct
            );
        }
        if self.deltas.is_empty() {
            let _ = writeln!(s, "  ok: no wall-time or crit-class movement past the threshold");
        }
        s
    }
}

// ---- bench trajectory: headline history records and the --history trend ----

/// First top-level `"key":<digits>` of the line (the history records keep
/// their headline numbers at the top level, so the first match is it).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let end = line[i..].find(|c: char| !c.is_ascii_digit())? + i;
    line[i..end].parse().ok()
}

/// Condenses one `BENCH_*.json` telemetry file into a single
/// `cash-bench-history-v1` JSONL record carrying its headline numbers:
/// summed `sim.cycles` and `sim.us` across all rows. `scripts/check.sh`
/// appends one of these per regeneration, so `BENCH_history.jsonl`
/// becomes the perf trajectory.
/// Returns `None` when the file has no stats rows.
pub fn history_record(text: &str) -> Option<String> {
    let mut bench: Option<String> = None;
    let (mut cycles, mut us, mut rows) = (0u64, 0u64, 0u64);
    for line in text.lines() {
        let (Some(b), Some(c), Some(u)) = (
            field_str(line, "bench"),
            section_u64(line, "sim", "cycles"),
            section_u64(line, "sim", "us"),
        ) else {
            continue;
        };
        bench.get_or_insert_with(|| b.to_string());
        cycles += c;
        us += u;
        rows += 1;
    }
    let bench = bench?;
    Some(format!(
        "{{\"schema\":\"cash-bench-history-v1\",\"bench\":\"{bench}\",\
         \"rows\":{rows},\"cycles\":{cycles},\"us\":{us}}}"
    ))
}

/// Renders the trend of a `BENCH_history.jsonl` file: per bench, every
/// recorded run with its cycle and wall-time movement against the
/// previous one. Cycles are deterministic (movement means the circuits
/// changed); wall time is machine noise unless it trends. Records from
/// before the simulator had a single executor carry a `"backend"` key;
/// it is ignored.
pub fn history_trend(text: &str) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut by: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
    for line in text.lines() {
        if field_str(line, "schema") != Some("cash-bench-history-v1") {
            continue;
        }
        let (Some(bench), Some(cycles), Some(us)) =
            (field_str(line, "bench"), field_u64(line, "cycles"), field_u64(line, "us"))
        else {
            continue;
        };
        if !by.contains_key(bench) {
            order.push(bench.to_string());
        }
        by.entry(bench.to_string()).or_default().push((cycles, us));
    }
    let mut s = String::new();
    if order.is_empty() {
        let _ = writeln!(s, "bench_diff --history: no history records");
        return s;
    }
    let pct = |old: u64, new: u64| {
        if old == 0 {
            0.0
        } else {
            100.0 * (new as f64 - old as f64) / old as f64
        }
    };
    for bench in &order {
        let runs = &by[bench];
        let _ = writeln!(s, "{bench}: {} recorded run{}", runs.len(), plural(runs.len()));
        let mut prev: Option<(u64, u64)> = None;
        for (i, &(cycles, us)) in runs.iter().enumerate() {
            match prev {
                None => {
                    let _ = writeln!(s, "  #{i:<3} {cycles:>12} cycles {us:>10} us  (baseline)");
                }
                Some((pc, pu)) => {
                    let _ = writeln!(
                        s,
                        "  #{i:<3} {cycles:>12} cycles {us:>10} us  ({:+.1}% cycles, {:+.1}% us)",
                        pct(pc, cycles),
                        pct(pu, us),
                    );
                }
            }
            prev = Some((cycles, us));
        }
    }
    s
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(kernel: &str, cycles: u64) -> String {
        format!(
            "{{\"schema\":\"cash-stats-v1\",\"bench\":\"fig19\",\"kernel\":\"{kernel}\",\
             \"level\":\"Full\",\"system\":\"perfect\",\"opt\":{{}},\
             \"sim\":{{\"ret\":1,\"cycles\":{cycles},\"fired\":9}}}}"
        )
    }

    #[test]
    fn parse_extracts_key_and_cycles() {
        let rows = parse(&format!("{}\nnot json\n{}\n", line("a", 100), line("b", 250)));
        assert_eq!(
            rows,
            vec![
                Row { key: "fig19/a/Full/perfect".into(), cycles: 100 },
                Row { key: "fig19/b/Full/perfect".into(), cycles: 250 },
            ]
        );
    }

    #[test]
    fn injected_regression_past_threshold_fails_the_diff() {
        let old = format!("{}\n{}\n", line("a", 1000), line("b", 1000));
        // a: +15% — a regression at the 10% threshold; b: unchanged.
        let new = format!("{}\n{}\n", line("a", 1150), line("b", 1000));
        let rep = diff(&old, &new, 10.0);
        assert!(rep.failed(), "{rep:?}");
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].key, "fig19/a/Full/perfect");
        assert!((rep.regressions[0].pct - 15.0).abs() < 1e-9);
        assert_eq!(rep.compared, 2);
    }

    #[test]
    fn small_drift_and_improvements_pass() {
        let old = format!("{}\n{}\n", line("a", 1000), line("b", 1000));
        // a: +5% (under threshold), b: -30% (an improvement).
        let new = format!("{}\n{}\n", line("a", 1050), line("b", 700));
        let rep = diff(&old, &new, 10.0);
        assert!(!rep.failed(), "{rep:?}");
        assert_eq!(rep.improvements.len(), 1);
        assert_eq!(rep.improvements[0].key, "fig19/b/Full/perfect");
        assert!(rep.render(10.0).contains("ok: no regressions"));
    }

    fn wall_line(kernel: &str, sim_us: u64, opt_us: u64, token: u64) -> String {
        format!(
            "{{\"schema\":\"cash-stats-v1\",\"bench\":\"fig19\",\"kernel\":\"{kernel}\",\
             \"level\":\"Full\",\"system\":\"perfect\",\
             \"opt\":{{\"rules\":{{}},\"static\":{{}},\"us\":{opt_us},\"passes\":[]}},\
             \"sim\":{{\"ret\":1,\"cycles\":500,\"fired\":9,\"deferrals\":0,\"us\":{sim_us},\
             \"crit\":{{\"start\":0,\"path_len\":3,\"classes\":{{\"data\":100,\"pred\":0,\
             \"token\":{token},\"lsq_order\":0,\"mem\":0,\"cache_miss\":0,\
             \"backpressure\":0}}}}}}}}"
        )
    }

    #[test]
    fn wall_rows_parse_both_times_and_crit_classes() {
        let rows = parse_wall(&wall_line("a", 1234, 567, 42));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].sim_us, 1234);
        assert_eq!(rows[0].opt_us, 567);
        let crit = rows[0].crit.unwrap();
        assert_eq!(crit[0], 100); // data
        assert_eq!(crit[2], 42); // token
    }

    #[test]
    fn wall_diff_warns_on_time_and_crit_movement_but_is_soft() {
        let old =
            format!("{}\n{}\n", wall_line("a", 1000, 1000, 100), wall_line("b", 1000, 1000, 100));
        // a: sim.us +50% and token cycles doubled; b: unchanged.
        let new =
            format!("{}\n{}\n", wall_line("a", 1500, 1000, 200), wall_line("b", 1000, 1000, 100));
        let rep = wall_diff(&old, &new, 20.0);
        assert_eq!(rep.compared, 2);
        let metrics: Vec<&str> = rep.deltas.iter().map(|d| d.metric.as_str()).collect();
        assert!(metrics.contains(&"sim.us"), "{metrics:?}");
        assert!(metrics.contains(&"crit.token"), "{metrics:?}");
        assert!(!metrics.contains(&"opt.us"));
        let rendered = rep.render(20.0);
        assert!(rendered.contains("warn only"));
        assert!(rendered.contains("crit.token"));
    }

    #[test]
    fn wall_diff_skips_sub_noise_floor_times() {
        // 10 -> 30 µs is a 200% swing but far below the 100 µs floor.
        let rep = wall_diff(&wall_line("a", 10, 10, 0), &wall_line("a", 30, 30, 0), 20.0);
        assert!(
            rep.deltas
                .iter()
                .all(|d| d.metric.starts_with("crit.") || d.old >= 100 || d.new >= 100),
            "{rep:?}"
        );
        assert!(rep.deltas.iter().all(|d| !d.metric.ends_with(".us")), "{rep:?}");
    }

    #[test]
    fn added_and_removed_keys_never_fail() {
        let old = line("gone", 500);
        let new = line("fresh", 9999);
        let rep = diff(&old, &new, 10.0);
        assert!(!rep.failed());
        assert_eq!(rep.added, vec!["fig19/fresh/Full/perfect".to_string()]);
        assert_eq!(rep.removed, vec!["fig19/gone/Full/perfect".to_string()]);
        assert_eq!(rep.compared, 0);
    }

    fn timed_line(kernel: &str, cycles: u64, us: u64) -> String {
        format!(
            "{{\"schema\":\"cash-stats-v1\",\"bench\":\"fig19\",\"kernel\":\"{kernel}\",\
             \"level\":\"Full\",\"system\":\"perfect\",\"opt\":{{}},\
             \"sim\":{{\"ret\":1,\"cycles\":{cycles},\"fired\":9,\"deferrals\":0,\"us\":{us},\
             \"mem\":{{}},\"backend\":\"event\"}}}}"
        )
    }

    #[test]
    fn history_record_sums_headline_numbers() {
        let text = format!("{}\n{}\n", timed_line("a", 100, 7), timed_line("b", 250, 3));
        let rec = history_record(&text).unwrap();
        assert_eq!(
            rec,
            "{\"schema\":\"cash-bench-history-v1\",\"bench\":\"fig19\",\
             \"rows\":2,\"cycles\":350,\"us\":10}"
        );
        assert!(history_record("not json\n").is_none());
    }

    #[test]
    fn history_trend_tracks_movement_per_bench() {
        let h = |c: u64, u: u64| {
            format!(
                "{{\"schema\":\"cash-bench-history-v1\",\"bench\":\"fig19\",\
                 \"rows\":2,\"cycles\":{c},\"us\":{u}}}"
            )
        };
        let trend = history_trend(&format!("{}\n{}\n{}\n", h(1000, 50), h(1000, 55), h(1200, 40)));
        assert!(trend.contains("fig19: 3 recorded runs"), "{trend}");
        assert!(trend.contains("(baseline)"), "{trend}");
        assert!(trend.contains("+0.0% cycles"), "{trend}");
        assert!(trend.contains("+20.0% cycles"), "{trend}");
        assert!(history_trend("").contains("no history records"));
    }

    #[test]
    fn history_trend_reads_records_with_and_without_backend() {
        let old = |backend: &str, c: u64, u: u64| {
            format!(
                "{{\"schema\":\"cash-bench-history-v1\",\"bench\":\"fig19\",\
                 \"backend\":\"{backend}\",\"rows\":2,\"cycles\":{c},\"us\":{u}}}"
            )
        };
        let new = |c: u64, u: u64| {
            format!(
                "{{\"schema\":\"cash-bench-history-v1\",\"bench\":\"fig19\",\
                 \"rows\":2,\"cycles\":{c},\"us\":{u}}}"
            )
        };
        let text =
            [old("event", 1000, 100), old("compiled", 1000, 80), new(1100, 80), new(990, 120)]
                .join("\n");
        let trend = history_trend(&text);
        let words = trend.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(words.contains("fig19: 4 recorded runs"), "{trend}");
        assert!(!words.contains("event") && !words.contains("compiled"), "{trend}");
        for want in [
            "#0 1000 cycles 100 us (baseline)",
            "#1 1000 cycles 80 us (+0.0% cycles, -20.0% us)",
            "#2 1100 cycles 80 us (+10.0% cycles, +0.0% us)",
            "#3 990 cycles 120 us (-10.0% cycles, +50.0% us)",
        ] {
            assert!(words.contains(want), "missing {want:?} in\n{trend}");
        }
    }
}
