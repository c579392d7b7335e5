//! Smoke test of the benchmark on reduced job lists: every metric
//! BENCHMARK.json names is reported with its unit, the simulated counts
//! match pinned values, and the traced replay is equivalent to
//! `Compiler::compile` + `Program::simulate_on`.

use cashperf::{trace, Report, Workload};

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        let (unit, end2) = field(&rest[end..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[end + end2..];
    }
    assert!(!out.is_empty(), "no metrics in {section}");
    out
}

fn assert_reports_all(report: &Report, section: &str) {
    let lines = report.lines();
    let json = report.json();
    for (name, unit) in declared(section) {
        let prefix = format!("{} {name} ", report.workload.name());
        assert!(
            lines.lines().any(|l| l.starts_with(&prefix) && l.ends_with(&format!(" {unit}"))),
            "{section} metric {name} ({unit}) not printed:\n{lines}"
        );
        assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{name} missing from {json}");
    }
    assert_eq!(report.metrics.len(), declared(section).len(), "extra metrics in {json}");
}

/// Runs one workload on its first `sources` kernels or programs for a
/// single round and checks its report.
fn smoke(workload: Workload, sources: usize, sim_cycles: f64, static_mem_ops: f64) {
    let report = cashperf::run(workload, 7, 0.0, Some(sources));
    assert!(report.correct, "{:?}", report.failures);
    assert_eq!(report.failed, 0);
    assert_reports_all(&report, "end_to_end");
    assert_eq!(report.get("sim_cycles"), Some(sim_cycles), "{}", report.lines());
    assert_eq!(report.get("static_mem_ops"), Some(static_mem_ops), "{}", report.lines());
    let last = report.json();
    assert!(last.starts_with("{\"correct\":true,\"attempted\":") && !last.contains('\n'));
}

#[test]
fn fig19_sweep_reports_every_metric() {
    smoke(Workload::Fig19Sweep, 1, 50538.0, 18.0);
}

#[test]
fn sim_bare_reports_every_metric() {
    smoke(Workload::SimBare, 2, 26680.0, 12.0);
}

#[test]
fn oracle_fuzz_reports_every_metric() {
    smoke(Workload::OracleFuzz, 3, 477.0, 119.0);
}

#[test]
fn debug_capture_reports_every_metric() {
    smoke(Workload::DebugCapture, 1, 1282.0, 6.0);
}

#[test]
fn traced_replay_is_equivalent_on_two_kernels() {
    let traced = trace::run(Workload::SimBare, 0, 0.0, Some(2), || 0);
    assert!(traced.equivalent, "{:?}", traced.report.failures);
    assert!(traced.report.correct, "{:?}", traced.report.failures);
    assert_reports_all(&traced.report, "per_layer");
    assert!(traced.chrome_json.starts_with("{\"traceEvents\":[{\"name\":\"job\""));
    assert!(traced.layers_json.contains("\"minic.parse\":{\"calls\":2,"));
}
