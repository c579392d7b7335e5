//! Simulator determinism: golden `SimResult`s captured before the
//! allocation-free core rewrite.
//!
//! The simulator's observable outcome — return value, completion cycle,
//! firing count and the per-level cache/TLB breakdown — must be a pure
//! function of (circuit, arguments, configuration). This sweep pins that
//! outcome for a seeded corpus of generated programs and for every suite
//! kernel, against goldens captured from the pre-rewrite event-queue
//! implementation. Any divergence means the core changed *semantics*, not
//! just speed.
//!
//! Regenerate the golden file (only when an intentional semantic change
//! lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p cash-integration --test sim_determinism
//! ```

use cash::{CacheParams, Compiler, MemSystem, OptLevel, SimConfig, SimResult};
use refinterp::gen;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/sim_determinism.txt");
const GOLDEN_PATH: &str = "tests/golden/sim_determinism.txt";

/// Seeded generated-program corpus: ≥50 programs at two opt levels.
const GEN_SEEDS: u64 = 55;

/// One observed run rendered as a stable golden line.
fn line(name: &str, level: &str, system: &str, r: &SimResult) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{name} {level} {system} ret={} cycles={} fired={} mem={}",
        r.ret.map_or("none".to_string(), |v| v.to_string()),
        r.cycles,
        r.fired,
        r.stats.to_json(),
    );
    s
}

/// The golden line format contains no wall-time-dependent field.
fn perfect() -> SimConfig {
    SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }
}

fn hierarchy() -> SimConfig {
    SimConfig { mem: MemSystem::Hierarchy(CacheParams::default()), ..SimConfig::default() }
}

/// Runs the whole corpus, producing one line per (program, level, system).
fn observe_corpus() -> Vec<String> {
    let mut gen_tasks = Vec::new();
    for seed in 0..GEN_SEEDS {
        for level in [OptLevel::None, OptLevel::Full] {
            gen_tasks.push((seed, level));
        }
    }
    let mut out = cash::par::par_map(gen_tasks, |(seed, level)| {
        let src = gen::render(&gen::gen(seed));
        let p = Compiler::new()
            .level(level)
            .compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed} at {level}: {e}"));
        let r = p
            .simulate(&[(seed % 11) as i64], &perfect())
            .unwrap_or_else(|e| panic!("seed {seed} at {level}: {e}"));
        line(&format!("gen{seed:03}"), &level.to_string(), "perfect", &r)
    });
    let kernel_tasks: Vec<_> = workloads::suite()
        .into_iter()
        .flat_map(|w| {
            [(OptLevel::Full, "perfect"), (OptLevel::Full, "cache"), (OptLevel::None, "perfect")]
                .into_iter()
                .map(move |(level, system)| (w.name, w.source, w.default_arg, level, system))
        })
        .collect();
    out.extend(cash::par::par_map(kernel_tasks, |(name, source, arg, level, system)| {
        let cfg = if system == "cache" { hierarchy() } else { perfect() };
        let p = Compiler::new()
            .level(level)
            .compile(source)
            .unwrap_or_else(|e| panic!("{name} at {level}: {e}"));
        let r =
            p.simulate(&[arg], &cfg).unwrap_or_else(|e| panic!("{name} at {level}/{system}: {e}"));
        line(name, &level.to_string(), system, &r)
    }));
    // Critical-path summaries: the last-arrival tie-break must be stable
    // under the calendar-ring event order, so the per-class cycle split
    // and path length of every kernel are golden too.
    let crit_tasks: Vec<_> = workloads::suite()
        .into_iter()
        .flat_map(|w| {
            [OptLevel::None, OptLevel::Full]
                .into_iter()
                .map(move |level| (w.name, w.source, w.default_arg, level))
        })
        .collect();
    out.extend(cash::par::par_map(crit_tasks, |(name, source, arg, level)| {
        let cfg = perfect().with_critpath(true);
        let p = Compiler::new()
            .level(level)
            .compile(source)
            .unwrap_or_else(|e| panic!("{name} at {level}: {e}"));
        let r = p.simulate(&[arg], &cfg).unwrap_or_else(|e| panic!("{name} at {level}: {e}"));
        let c = r.crit.as_ref().expect("critpath enabled");
        assert_eq!(c.attributed_total(), r.cycles - c.start, "{name} at {level}: full coverage");
        format!(
            "crit {name} {level} path_len={} start={} classes={}",
            c.path_len,
            c.start,
            c.classes_json()
        )
    }));
    out
}

#[test]
fn simulator_results_match_pre_rewrite_goldens() {
    let observed = observe_corpus();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut text = observed.join("\n");
        text.push('\n');
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(GOLDEN_PATH);
        std::fs::write(&path, text).expect("write golden");
        eprintln!("golden updated: {} lines -> {}", observed.len(), path.display());
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        golden.len(),
        observed.len(),
        "golden has {} lines, corpus produced {} — regenerate with UPDATE_GOLDEN=1 \
         only if the simulator's semantics intentionally changed",
        golden.len(),
        observed.len()
    );
    let mut bad = 0usize;
    for (g, o) in golden.iter().zip(&observed) {
        if g != o {
            bad += 1;
            if bad <= 8 {
                eprintln!("golden:   {g}\nobserved: {o}\n");
            }
        }
    }
    assert_eq!(
        bad,
        0,
        "{bad} of {} corpus runs diverged from the pre-rewrite simulator",
        golden.len()
    );
}
