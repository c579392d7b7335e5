//! Optimizer output fingerprints: one FNV-64 per (program, level).
//!
//! The simulator goldens pin cycles and return values, and a few kernels'
//! node names are pinned elsewhere; neither notices a compile that yields
//! an equivalent circuit with renumbered nodes or reordered use lists. Use
//! order is observable (merge arbitration follows it), so this test pins
//! the optimizer's exact output: every node slot in id order (removed
//! slots included) with its kind, hyperblock, input table and use list in
//! order, plus the `OptReport` with its wall times zeroed.
//!
//! The corpus is the 16 suite kernels and generator seeds `0..32`, each at
//! all four optimization levels. Regenerate the golden file (only when an
//! intentional change to the optimizer's output lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p cash-integration --test compile_fingerprints
//! ```

use cash::{Compiler, OptLevel, Program};
use refinterp::gen;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/compile_fingerprints.txt");
const GOLDEN_PATH: &str = "tests/golden/compile_fingerprints.txt";

/// Generated-program seeds covered.
const GEN_SEEDS: u64 = 32;

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The canonical text the fingerprint hashes: the whole node table and
/// use lists, then the report with every wall-time field zeroed.
fn canonical(p: &Program) -> String {
    let g = &p.graph;
    let mut s = String::new();
    let _ = writeln!(s, "hbs={} loops={:?}", g.num_hbs, g.hb_is_loop);
    for id in g.ids() {
        let n = g.node(id);
        let _ =
            writeln!(s, "{id} {:?} hb={} in={:?} uses={:?}", n.kind, n.hb, n.inputs, g.uses(id));
    }
    let mut report = p.report.clone();
    for pass in &mut report.passes {
        pass.wall_micros = 0;
    }
    report.lint.micros = 0;
    let _ = write!(s, "{report:?}");
    s
}

fn observe_corpus() -> Vec<String> {
    let mut tasks: Vec<(String, String)> = workloads::suite()
        .into_iter()
        .map(|w| (w.name.to_string(), w.source.to_string()))
        .collect();
    tasks
        .extend((0..GEN_SEEDS).map(|seed| (format!("gen{seed:03}"), gen::render(&gen::gen(seed)))));
    let tasks: Vec<_> = tasks
        .into_iter()
        .flat_map(|(name, src)| {
            OptLevel::ALL.into_iter().map(move |l| (name.clone(), src.clone(), l))
        })
        .collect();
    cash::par::par_map(tasks, |(name, src, level)| {
        let p = Compiler::new()
            .level(level)
            .compile(&src)
            .unwrap_or_else(|e| panic!("{name} at {level}: {e}"));
        format!("{name} {level} {:016x}", fnv64(canonical(&p).as_bytes()))
    })
}

#[test]
fn optimizer_output_matches_pinned_fingerprints() {
    let observed = observe_corpus();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::write(root.join(GOLDEN_PATH), observed.join("\n") + "\n")
            .expect("write golden file");
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), observed.len(), "corpus size changed; regenerate the golden file");
    let diffs: Vec<String> = golden
        .iter()
        .zip(&observed)
        .filter(|(g, o)| *g != o)
        .map(|(g, o)| format!("  golden:   {g}\n  observed: {o}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} compiles changed the optimizer's output:\n{}",
        diffs.len(),
        observed.len(),
        diffs.join("\n")
    );
}

/// The pass manager measures the graph once per pass invocation and reuses
/// that after-shape as the next invocation's before-shape. On every kernel
/// at every level, the recorded shapes must therefore chain.
#[test]
fn pass_shapes_chain_on_every_kernel_and_level() {
    let tasks: Vec<_> = workloads::suite()
        .into_iter()
        .flat_map(|w| OptLevel::ALL.into_iter().map(move |l| (w.name, w.source, l)))
        .collect();
    cash::par::par_map(tasks, |(name, src, level)| {
        let p = Compiler::new().level(level).compile(src).unwrap_or_else(|e| panic!("{e}"));
        for (i, w) in p.report.passes.windows(2).enumerate() {
            let (a, b) = (&w[0], &w[1]);
            assert_eq!(
                (a.nodes.1, a.edges.1, a.token_edges.1),
                (b.nodes.0, b.edges.0, b.token_edges.0),
                "{name} at {level}: invocation {i} ({}) -> {}",
                a.name,
                b.name
            );
        }
        let g = &p.graph;
        let last = p.report.passes.last().expect("every level runs a pass");
        assert_eq!(
            (last.nodes.1, last.edges.1, last.token_edges.1),
            (g.live_count(), g.count_edges(), g.count_token_edges()),
            "{name} at {level}: final after-shape"
        );
    });
}
