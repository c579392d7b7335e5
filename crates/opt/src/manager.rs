//! Pass manager: ordering, optimization levels, and per-pass statistics.
//!
//! The memory optimization pipeline follows the paper's four-step recipe
//! (§1): (1) the builder produces the initial token network, (2) unneeded
//! token edges are dissolved, (3) redundant operations are removed, (4)
//! loops are pipelined/decoupled. Steps 2–3 iterate to a fixpoint — the
//! paper observes that "the result of applying optimizations together was
//! more powerful than simply the product of their individual effect".

use crate::dead_mem::remove_dead;
use crate::load_store::load_after_store;
use crate::loop_invariant::hoist_invariant_loads;
use crate::merge_ops::merge_equivalent;
use crate::pipeline::{pipeline_loops, PipelineConfig};
use crate::scalar::simplify;
use crate::store_store::store_before_store;
use crate::token_removal::{fold_immutable_loads, remove_token_edges, Disambiguation};
use analysis::PredicateMap;
use cfgir::AliasOracle;
use pegasus::Graph;
use std::fmt;

/// Full configuration of the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct OptConfig {
    /// Use read/write sets already during graph construction (§3.3).
    pub rw_sets_at_build: bool,
    /// Scalar clean-up passes.
    pub scalar: bool,
    /// §4.1 dead memory operations.
    pub dead: bool,
    /// §4.2 immutable loads.
    pub immutable: bool,
    /// §4.3 token-edge removal heuristics.
    pub disambiguation: Disambiguation,
    /// §5.1 merging equivalent operations.
    pub merge_ops: bool,
    /// §5.2 store-before-store.
    pub store_store: bool,
    /// §5.3 load-after-store.
    pub load_store: bool,
    /// §5.4 loop-invariant load motion.
    pub loop_invariant: bool,
    /// §6 loop pipelining flags.
    pub pipeline: PipelineConfig,
    /// Maximum redundancy-elimination fixpoint rounds.
    pub max_rounds: usize,
    /// Run the static lint ([`lint::lint`]) on the final graph (always)
    /// and, under `debug_assertions`, after every pass invocation (hard
    /// error on any diagnostic — a pass left a plausible-looking but
    /// broken graph behind).
    pub lint: bool,
    /// Run only the first `n` pass invocations of the configured pipeline
    /// (`None` = unlimited). The invocation sequence is *exactly* the
    /// prefix of the full pipeline's sequence ([`OptReport::passes`]), so a
    /// differential harness can bisect a miscompile to the first offending
    /// pass by varying this bound.
    pub pass_limit: Option<usize>,
    /// Fault injection for harness self-tests: after the first invocation
    /// of the named pass, apply a deliberately wrong rewrite to the graph.
    /// Never set outside tests.
    pub sabotage: Option<&'static str>,
}

impl OptConfig {
    /// This configuration limited to the first `n` pass invocations.
    pub fn prefix(mut self, n: usize) -> Self {
        self.pass_limit = Some(n);
        self
    }

    /// This configuration with fault injection into the named pass
    /// (mutation smoke-testing for the differential harness; the rewrite
    /// is semantically wrong on purpose).
    #[doc(hidden)]
    pub fn sabotage(mut self, pass: &'static str) -> Self {
        self.sabotage = Some(pass);
        self
    }
}

/// The named optimization levels used by the evaluation (Figure 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No memory optimization: program-order token chains, scalar clean-up
    /// only. (The "traditional compiler" stand-in for the §2 comparison.)
    None,
    /// Read/write sets during construction only.
    Basic,
    /// The paper's "Medium": pointer analysis at construction, token-edge
    /// disambiguation, and induction-variable loop pipelining.
    Medium,
    /// Everything: Medium + redundancy elimination, immutable loads,
    /// loop-invariant motion, read-only splitting and loop decoupling.
    Full,
}

impl OptLevel {
    /// All levels, in increasing strength.
    pub const ALL: [OptLevel; 4] =
        [OptLevel::None, OptLevel::Basic, OptLevel::Medium, OptLevel::Full];

    /// The configuration for this level.
    pub fn config(self) -> OptConfig {
        match self {
            OptLevel::None => OptConfig {
                rw_sets_at_build: false,
                scalar: true,
                dead: false,
                immutable: false,
                disambiguation: Disambiguation::none(),
                merge_ops: false,
                store_store: false,
                load_store: false,
                loop_invariant: false,
                pipeline: PipelineConfig::none(),
                max_rounds: 0,
                lint: true,
                pass_limit: None,
                sabotage: None,
            },
            OptLevel::Basic => OptConfig {
                rw_sets_at_build: true,
                scalar: true,
                dead: true,
                immutable: false,
                disambiguation: Disambiguation::none(),
                merge_ops: false,
                store_store: false,
                load_store: false,
                loop_invariant: false,
                pipeline: PipelineConfig::none(),
                max_rounds: 1,
                lint: true,
                pass_limit: None,
                sabotage: None,
            },
            OptLevel::Medium => OptConfig {
                rw_sets_at_build: true,
                scalar: true,
                dead: true,
                immutable: false,
                disambiguation: Disambiguation::full(),
                merge_ops: false,
                store_store: false,
                load_store: false,
                loop_invariant: false,
                pipeline: PipelineConfig { read_only: false, monotone: true, decouple: false },
                max_rounds: 1,
                lint: true,
                pass_limit: None,
                sabotage: None,
            },
            OptLevel::Full => OptConfig {
                rw_sets_at_build: true,
                scalar: true,
                dead: true,
                immutable: true,
                disambiguation: Disambiguation::full(),
                merge_ops: true,
                store_store: true,
                load_store: true,
                loop_invariant: true,
                pipeline: PipelineConfig::full(),
                max_rounds: 4,
                lint: true,
                pass_limit: None,
                sabotage: None,
            },
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::None => "None",
            OptLevel::Basic => "Basic",
            OptLevel::Medium => "Medium",
            OptLevel::Full => "Full",
        };
        f.write_str(s)
    }
}

/// Telemetry for one pass invocation: wall time plus the graph-shape
/// delta it caused. Collected for every pass the pipeline runs, in run
/// order, so the full compile can be replayed from the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (matches the module name in `crates/opt/src`).
    pub name: &'static str,
    /// Fixpoint round the invocation ran in (`None` outside the loop).
    pub round: Option<usize>,
    /// Wall-clock time of the invocation, microseconds.
    pub wall_micros: u64,
    /// Rewrites the invocation performed (its rule-fired count).
    pub rewrites: usize,
    /// Live nodes before and after.
    pub nodes: (usize, usize),
    /// Connected edges before and after.
    pub edges: (usize, usize),
    /// Token edges before and after.
    pub token_edges: (usize, usize),
}

impl PassStat {
    /// Serializes in the shared `cash-stats-v1` JSON dialect.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pass\":\"{}\",\"round\":{},\"us\":{},\"rewrites\":{},\
             \"nodes\":[{},{}],\"edges\":[{},{}],\"token_edges\":[{},{}]}}",
            self.name,
            self.round.map_or("null".to_string(), |r| r.to_string()),
            self.wall_micros,
            self.rewrites,
            self.nodes.0,
            self.nodes.1,
            self.edges.0,
            self.edges.1,
            self.token_edges.0,
            self.token_edges.1,
        )
    }
}

/// What each pass did, for the Figure 18 statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    pub scalar_rewrites: usize,
    pub token_edges_removed: usize,
    pub immutable_loads_folded: usize,
    pub loads_merged: usize,
    pub stores_merged: usize,
    pub stores_narrowed: usize,
    pub stores_removed: usize,
    pub loads_bypassed: usize,
    pub loads_removed: usize,
    pub dead_loads: usize,
    pub dead_stores: usize,
    pub loads_hoisted: usize,
    pub loops_pipelined: usize,
    pub rings_created: usize,
    pub token_gens: usize,
    /// (loads, stores) before optimization.
    pub static_before: (usize, usize),
    /// (loads, stores) after optimization.
    pub static_after: (usize, usize),
    /// Per-invocation telemetry, in the order the passes ran.
    pub passes: Vec<PassStat>,
    /// The final static lint run ([`OptConfig::lint`]): its diagnostics
    /// and wall time. Empty when linting is disabled.
    pub lint: lint::LintReport,
}

impl OptReport {
    /// Fraction of static loads removed.
    pub fn load_reduction(&self) -> f64 {
        reduction(self.static_before.0, self.static_after.0)
    }

    /// Fraction of static stores removed.
    pub fn store_reduction(&self) -> f64 {
        reduction(self.static_before.1, self.static_after.1)
    }

    /// Total optimizer wall time, microseconds.
    pub fn total_micros(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_micros).sum()
    }

    /// The per-rewrite-rule fired counts, in a fixed order. Zero-count
    /// rules are included so consumers see a stable schema.
    pub fn rules(&self) -> [(&'static str, usize); 15] {
        [
            ("scalar_rewrites", self.scalar_rewrites),
            ("token_edges_removed", self.token_edges_removed),
            ("immutable_loads_folded", self.immutable_loads_folded),
            ("loads_merged", self.loads_merged),
            ("stores_merged", self.stores_merged),
            ("stores_narrowed", self.stores_narrowed),
            ("stores_removed", self.stores_removed),
            ("loads_bypassed", self.loads_bypassed),
            ("loads_removed", self.loads_removed),
            ("dead_loads", self.dead_loads),
            ("dead_stores", self.dead_stores),
            ("loads_hoisted", self.loads_hoisted),
            ("loops_pipelined", self.loops_pipelined),
            ("rings_created", self.rings_created),
            ("token_gens", self.token_gens),
        ]
    }

    /// Serializes in the shared `cash-stats-v1` JSON dialect (stable key
    /// order, no whitespace): aggregate rule counts, the static memory-op
    /// reduction, and the per-pass timeline.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\"rules\":{");
        for (i, (name, n)) in self.rules().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{n}");
        }
        let _ = write!(
            s,
            "}},\"static\":{{\"loads\":[{},{}],\"stores\":[{},{}]}},\"us\":{},\"passes\":[",
            self.static_before.0,
            self.static_after.0,
            self.static_before.1,
            self.static_after.1,
            self.total_micros(),
        );
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&p.to_json());
        }
        let _ = write!(s, "],\"lint\":{{\"us\":{},\"rules\":{{", self.lint.micros);
        for (i, (name, n)) in self.lint.rule_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{n}");
        }
        s.push_str("}}}");
        s
    }
}

fn reduction(before: usize, after: usize) -> f64 {
    if before == 0 {
        0.0
    } else {
        1.0 - after as f64 / before as f64
    }
}

/// Scheduling state threaded through one [`optimize`] run: the per-pass
/// telemetry, the remaining invocation budget ([`OptConfig::pass_limit`]),
/// the fault-injection armed state ([`OptConfig::sabotage`]), and what the
/// per-pass debug lint needs (the alias oracle; whether a fault has fired,
/// in which case the graph is broken *on purpose* and the hard error is
/// suppressed so the differential harness gets to observe the fault).
struct Ctl<'a, 'm> {
    passes: Vec<PassStat>,
    /// The graph's current shape: measured once up front, then after
    /// each invocation. Nothing touches the graph between invocations, so
    /// it is also the next invocation's before-shape.
    shape: Shape,
    remaining: Option<usize>,
    sabotage: Option<&'static str>,
    sabotaged: bool,
    oracle: &'a AliasOracle<'m>,
    // Only the debug_assertions per-pass lint reads this flag.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lint: bool,
}

/// What [`PassStat`] records of a graph: live nodes, connected edges and
/// token edges.
#[derive(Clone, Copy)]
struct Shape {
    nodes: usize,
    edges: usize,
    token_edges: usize,
}

impl Shape {
    /// Measures `g` in one scan (the same counts as [`Graph::live_count`],
    /// [`Graph::count_edges`] and [`Graph::count_token_edges`]).
    fn of(g: &Graph) -> Shape {
        let mut s = Shape { nodes: 0, edges: 0, token_edges: 0 };
        for id in g.live_ids() {
            s.nodes += 1;
            for i in g.node(id).inputs.iter().flatten() {
                s.edges += 1;
                if g.kind(i.src.node).output_class(i.src.port) == pegasus::VClass::Token {
                    s.token_edges += 1;
                }
            }
        }
        s
    }
}

/// The lint configuration for mid-pipeline graphs: no redundancy check
/// (a pass may legally leave the token graph unreduced until the next
/// reduction) and no dead-code check (elimination may simply not have run
/// yet). [`lint_config`] is the end-of-pipeline variant.
#[cfg(debug_assertions)]
fn per_pass_lint_config() -> lint::LintConfig {
    lint::LintConfig { redundancy: false, dead_code: false, ..lint::LintConfig::default() }
}

/// The lint configuration matching an optimizer configuration: a pipeline
/// that never runs dead-code elimination may legally leave provably dead
/// operations behind, so [`lint::Rule::DeadPred`] only arms with it.
pub fn lint_config(cfg: &OptConfig) -> lint::LintConfig {
    lint::LintConfig { dead_code: cfg.dead, ..lint::LintConfig::default() }
}

/// The observability span name for a pass invocation. Pass names form a
/// closed set, so the `opt.` prefix of the span taxonomy can be applied
/// statically.
fn span_name(pass: &'static str) -> &'static str {
    match pass {
        "scalar" => "opt.scalar",
        "immutable" => "opt.immutable",
        "token_removal" => "opt.token_removal",
        "load_store" => "opt.load_store",
        "store_store" => "opt.store_store",
        "merge_ops" => "opt.merge_ops",
        "dead_mem" => "opt.dead_mem",
        "loop_invariant" => "opt.loop_invariant",
        "pipeline" => "opt.pipeline",
        "prune_dead" => "opt.prune_dead",
        _ => "opt.pass",
    }
}

/// Times one pass invocation and records its graph-shape delta. The graph
/// is scanned once per invocation, after it (and any armed sabotage
/// rewrite) runs; the before-shape is the previous scan ([`Ctl::shape`]).
/// When the invocation budget is exhausted the pass is skipped entirely
/// (no stat is recorded), so a prefix-limited run performs exactly the
/// first `pass_limit` invocations of the full pipeline and nothing else.
///
/// The invocation runs under an `obs` span (always timed — the span clock
/// is the source of `PassStat::wall_micros`) and leaves a flight-recorder
/// note so crash reports show which passes ran last.
///
/// Under `debug_assertions`, every invocation is followed by the full
/// structural verifier and the static lint; any finding is a hard error
/// naming the offending pass.
fn timed(
    g: &mut Graph,
    ctl: &mut Ctl<'_, '_>,
    name: &'static str,
    round: Option<usize>,
    f: impl FnOnce(&mut Graph) -> usize,
) -> usize {
    match ctl.remaining {
        Some(0) => return 0,
        Some(ref mut n) => *n -= 1,
        None => {}
    }
    let before = ctl.shape;
    let sp = obs::span::enter(span_name(name));
    let rewrites = f(g);
    let wall_micros = sp.end_us();
    obs::flight::note("opt.pass", name, rewrites as i64, round.map_or(-1, |r| r as i64));
    if ctl.sabotage == Some(name) {
        ctl.sabotage = None;
        ctl.sabotaged = true;
        sabotage_rewrite(g, name, ctl.oracle);
    }
    let after = Shape::of(g);
    ctl.shape = after;
    ctl.passes.push(PassStat {
        name,
        round,
        wall_micros,
        rewrites,
        nodes: (before.nodes, after.nodes),
        edges: (before.edges, after.edges),
        token_edges: (before.token_edges, after.token_edges),
    });
    #[cfg(debug_assertions)]
    if ctl.lint && !ctl.sabotaged {
        let errs = pegasus::verify_all(g);
        assert!(errs.is_empty(), "pass {name} left a structurally broken graph: {errs:?}");
        let diags = lint::lint(g, ctl.oracle, &per_pass_lint_config());
        assert!(
            diags.is_empty(),
            "pass {name} left a semantically suspect graph:\n{}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
    rewrites
}

/// The deliberately wrong rewrite used by [`OptConfig::sabotage`]. Each
/// named pass gets a corruption in its own characteristic bug class, so
/// the detection layers can be exercised separately:
///
/// - `"loop_invariant"`: rewires a ring entry past its gating eta (PR 2's
///   hoisting bug) — a structural deadlock the *static* rate analysis
///   reports (`ungated_entry`), no simulation needed;
/// - `"token_removal"`: bypasses a store's token output, dissolving a
///   live ordering to a may-aliasing operation — reported statically as a
///   `token_race`;
/// - anything else (the default, and the harness's pinned `"load_store"`):
///   flips the first live integer addition into a subtraction —
///   structurally valid, semantically broken, and deliberately *invisible*
///   to every static layer, so only differential simulation catches it.
///
/// When a graph has no site for the named corruption (e.g. a loop-free
/// program for `"loop_invariant"`), the default flip is applied instead.
fn sabotage_rewrite(g: &mut Graph, name: &'static str, oracle: &AliasOracle<'_>) {
    use pegasus::{NodeKind, Src};
    match name {
        "loop_invariant" => {
            let target = g
                .live_ids()
                .filter(|&id| {
                    matches!(g.kind(id), NodeKind::Merge { .. })
                        && (0..g.num_inputs(id))
                            .any(|p| g.input(id, p as u16).is_some_and(|i| i.back))
                })
                .find_map(|m| {
                    (0..g.num_inputs(m)).find_map(|p| {
                        let i = g.input(m, p as u16)?;
                        if i.back || !matches!(g.kind(i.src.node), NodeKind::Eta { .. }) {
                            return None;
                        }
                        let steered = g.input(i.src.node, 0)?.src;
                        if matches!(g.kind(steered.node), NodeKind::Merge { .. })
                            && g.hb(steered.node) != g.hb(m)
                        {
                            Some((m, p as u16, steered))
                        } else {
                            None
                        }
                    })
                });
            match target {
                Some((m, p, steered)) => g.replace_input(m, p, steered),
                None => flip_first_add(g),
            }
        }
        "token_removal" => {
            let mems: Vec<pegasus::NodeId> =
                g.live_ids().filter(|&id| g.kind(id).is_memory()).collect();
            let target = mems.iter().copied().find(|&s| {
                matches!(g.kind(s), NodeKind::Store { .. })
                    && mems.iter().any(|&t| {
                        t != s
                            && oracle.sets_overlap(
                                g.kind(s).may_set().unwrap(),
                                g.kind(t).may_set().unwrap(),
                            )
                            && pegasus::token_path(g, Src::of(s), t)
                    })
            });
            match target {
                Some(s) => crate::util::bypass_token(g, s),
                None => flip_first_add(g),
            }
        }
        _ => flip_first_add(g),
    }
}

/// Flips the first live integer addition into a subtraction — exactly what
/// a real miscompiling pass looks like to a differential harness.
fn flip_first_add(g: &mut Graph) {
    use cfgir::types::BinOp;
    let target = g.live_ids().find(
        |&id| matches!(g.kind(id), pegasus::NodeKind::BinOp { op: BinOp::Add, ty } if ty.is_int()),
    );
    if let Some(id) = target {
        if let pegasus::NodeKind::BinOp { op, .. } = g.kind_mut(id) {
            *op = BinOp::Sub;
        }
    }
}

/// Runs the configured pipeline over `g`.
pub fn optimize(g: &mut Graph, oracle: &AliasOracle<'_>, cfg: &OptConfig) -> OptReport {
    let _sp = obs::span::enter("opt");
    let mut report = OptReport { static_before: g.count_memory_ops(), ..OptReport::default() };
    let mut ctl = Ctl {
        passes: Vec::new(),
        shape: Shape::of(g),
        remaining: cfg.pass_limit,
        sabotage: cfg.sabotage,
        sabotaged: false,
        oracle,
        lint: cfg.lint,
    };

    if cfg.scalar {
        report.scalar_rewrites += timed(g, &mut ctl, "scalar", None, simplify);
    }
    if cfg.immutable {
        report.immutable_loads_folded +=
            timed(g, &mut ctl, "immutable", None, |g| fold_immutable_loads(g, oracle));
    }
    // Step 2: dissolve unnecessary dependences.
    report.token_edges_removed += timed(g, &mut ctl, "token_removal", None, |g| {
        remove_token_edges(g, oracle, cfg.disambiguation)
    });

    // Step 3: redundancy elimination to a fixpoint.
    for round in 0..cfg.max_rounds {
        let r = Some(round);
        let mut changed = 0;
        let mut pm = PredicateMap::new();
        if cfg.load_store {
            changed += timed(g, &mut ctl, "load_store", r, |g| {
                let s = load_after_store(g, &mut pm);
                report.loads_bypassed += s.bypassed;
                report.loads_removed += s.removed;
                s.bypassed + s.removed
            });
        }
        if cfg.store_store {
            changed += timed(g, &mut ctl, "store_store", r, |g| {
                let s = store_before_store(g, &mut pm);
                report.stores_narrowed += s.narrowed;
                report.stores_removed += s.removed;
                s.narrowed + s.removed
            });
        }
        if cfg.merge_ops {
            changed += timed(g, &mut ctl, "merge_ops", r, |g| {
                let s = merge_equivalent(g, &mut pm);
                report.loads_merged += s.loads;
                report.stores_merged += s.stores;
                s.loads + s.stores
            });
        }
        if cfg.dead {
            changed += timed(g, &mut ctl, "dead_mem", r, |g| {
                let (l, s) = remove_dead(g, &mut pm);
                report.dead_loads += l;
                report.dead_stores += s;
                l + s
            });
        }
        if cfg.scalar {
            report.scalar_rewrites += timed(g, &mut ctl, "scalar", r, simplify);
        }
        report.token_edges_removed += timed(g, &mut ctl, "token_removal", r, |g| {
            remove_token_edges(g, oracle, cfg.disambiguation)
        });
        if changed == 0 {
            break;
        }
    }
    if cfg.loop_invariant {
        // Repeat: each call hoists at most one load per loop.
        loop {
            let h =
                timed(g, &mut ctl, "loop_invariant", None, |g| hoist_invariant_loads(g, oracle));
            report.loads_hoisted += h;
            if h == 0 {
                break;
            }
        }
    }
    // Step 4: loop pipelining.
    timed(g, &mut ctl, "pipeline", None, |g| {
        let p = pipeline_loops(g, cfg.pipeline);
        report.loops_pipelined = p.loops;
        report.rings_created = p.extra_rings;
        report.token_gens = p.token_gens;
        p.loops
    });

    if cfg.scalar {
        report.scalar_rewrites += timed(g, &mut ctl, "scalar", None, simplify);
    }
    timed(g, &mut ctl, "prune_dead", None, |g| {
        pegasus::prune_dead(g);
        0
    });
    report.static_after = g.count_memory_ops();
    report.passes = ctl.passes;
    // Always-on final lint: even a release pipeline reports what the
    // static layer thinks of the graph it is about to hand to simulation
    // (a sabotaged run keeps its findings — that is the point).
    if cfg.lint {
        let sp = obs::span::enter("lint.final");
        let diags = lint::lint(g, oracle, &lint_config(cfg));
        let micros = sp.end_us();
        obs::flight::note("lint.final", "diags", diags.len() as i64, micros as i64);
        report.lint = lint::LintReport { diags, micros };
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equivalent, compile, compile_rw, run};

    /// The Section 2 example: the full pipeline must remove the two
    /// intermediate stores and the reload of a[i] — the paper's headline
    /// demonstration (only CASH and one commercial compiler manage it).
    #[test]
    fn section2_example_fully_cleans_up() {
        let src = "
            int a[8];
            void main(int p, int i) {
                if (p) a[i] += p;
                else a[i] = 1;
                a[i] <<= a[i+1];
            }";
        let (module, g0) = compile(src);
        assert_eq!(g0.count_memory_ops(), (3, 3)); // a[i]×2 + a[i+1] loads; 3 stores
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        let report = optimize(&mut g, &oracle, &OptLevel::Full.config());
        // Exactly the paper's §2 outcome: the temporary's two stores and
        // its reload disappear; what survives is the first a[i] load (the
        // `+=` input), the a[i+1] load, and the final store.
        assert_eq!(
            g.count_memory_ops(),
            (2, 1),
            "expected the redundant a[i] traffic removed: {report:?}"
        );
        assert_eq!(report.stores_removed, 2);
        assert_eq!(report.loads_removed, 1);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0, 2], vec![1, 2], vec![7, 0], vec![-3, 5]]);
    }

    #[test]
    fn levels_are_monotonically_more_effective() {
        let src = "
            int a[64]; int b[65];
            int main(int n) {
                for (int i = 0; i < n; i++) {
                    b[i+1] = i & 0xf;
                    a[i] = b[i] + 7;
                }
                return a[3] + b[2];
            }";
        let mut cycles = Vec::new();
        for level in OptLevel::ALL {
            let cfgc = level.config();
            let (module, mut g) =
                if cfgc.rw_sets_at_build { compile_rw(src) } else { compile(src) };
            let oracle = AliasOracle::new(&module);
            optimize(&mut g, &oracle, &cfgc);
            pegasus::verify(&g).unwrap();
            let (r, _, res) = run(&module, &g, &[40]);
            // a[3] = b[3] + 7 = (2 & 0xf) + 7; b[2] = (1 & 0xf).
            assert_eq!(r, Some((2 & 0xf) + 7 + (1 & 0xf)), "level {level}");
            cycles.push((level, res.cycles));
        }
        // Full must beat None; Medium should too on this pipelining kernel.
        let none = cycles[0].1;
        let medium = cycles[2].1;
        let full = cycles[3].1;
        assert!(medium < none, "medium {medium} vs none {none}");
        assert!(full <= medium, "full {full} vs medium {medium}");
    }

    #[test]
    fn optimizer_is_sound_on_a_mixed_kernel() {
        let src = "
            int hist[16]; int data[64]; int out[64];
            int main(int n) {
                for (int i = 0; i < n; i++) {
                    int v = data[i] & 15;
                    hist[v] += 1;
                    out[i] = v * 2;
                }
                int acc = 0;
                for (int i = 0; i < 16; i++) acc += hist[i];
                return acc;
            }";
        let (module, g0) = compile(src);
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        optimize(&mut g, &oracle, &OptLevel::Full.config());
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![1], vec![13], vec![64]]);
    }

    #[test]
    fn report_counts_static_reduction() {
        let src = "
            int a[8];
            int main(int i, int v) { a[i] = v; return a[i]; }";
        let (module, mut g) = compile(src);
        let oracle = AliasOracle::new(&module);
        let report = optimize(&mut g, &oracle, &OptLevel::Full.config());
        assert_eq!(report.static_before, (1, 1));
        assert_eq!(report.static_after, (0, 1));
        assert!(report.load_reduction() > 0.99);
        assert_eq!(report.store_reduction(), 0.0);
    }

    #[test]
    fn prefix_zero_runs_no_passes() {
        let src = "
            int a[8];
            int main(int i, int v) { a[i] = v; return a[i]; }";
        let (module, mut g) = compile(src);
        let oracle = AliasOracle::new(&module);
        let report = optimize(&mut g, &oracle, &OptLevel::Full.config().prefix(0));
        assert!(report.passes.is_empty());
        assert_eq!(report.static_after, report.static_before);
    }

    #[test]
    fn prefix_runs_exactly_the_full_sequence_prefix() {
        let src = "
            int a[8]; int b[9];
            int main(int n) {
                for (int i = 0; i < n; i++) { b[i+1] = i; a[i] = b[i] + a[i]; }
                return a[2] + b[3];
            }";
        let cfgc = OptLevel::Full.config();
        let (module, g0) = compile_rw(src);
        let oracle = AliasOracle::new(&module);
        let mut gfull = g0.clone();
        let full = optimize(&mut gfull, &oracle, &cfgc);
        let total = full.passes.len();
        assert!(total > 4, "expected a multi-pass pipeline, got {total}");
        for n in [0, 1, total / 2, total, total + 7] {
            let mut g = g0.clone();
            let report = optimize(&mut g, &oracle, &cfgc.prefix(n));
            let want: Vec<_> =
                full.passes.iter().take(n).map(|p| (p.name, p.round, p.rewrites)).collect();
            let got: Vec<_> = report.passes.iter().map(|p| (p.name, p.round, p.rewrites)).collect();
            assert_eq!(got, want, "prefix {n} diverged from the full sequence");
            pegasus::verify(&g).unwrap_or_else(|e| panic!("prefix {n} left a broken graph: {e}"));
        }
        // The full budget reproduces the full pipeline's graph behaviour.
        let mut g = g0.clone();
        let report = optimize(&mut g, &oracle, &cfgc.prefix(total));
        assert_eq!(report.static_after, full.static_after);
        assert_equivalent(&module, &gfull, &g, &[vec![0], vec![3], vec![7]]);
    }

    #[test]
    fn every_prefix_graph_is_runnable() {
        let src = "
            int a[8];
            int main(int p, int i) {
                if (p) a[i] += p;
                else a[i] = 1;
                a[i] <<= a[i+1];
                return a[i];
            }";
        let cfgc = OptLevel::Full.config();
        let (module, g0) = compile_rw(src);
        let oracle = AliasOracle::new(&module);
        let mut gfull = g0.clone();
        let full = optimize(&mut gfull, &oracle, &cfgc);
        let (expect, _, _) = run(&module, &gfull, &[3, 2]);
        for n in 0..=full.passes.len() {
            let mut g = g0.clone();
            optimize(&mut g, &oracle, &cfgc.prefix(n));
            pegasus::verify(&g).unwrap();
            let (r, _, _) = run(&module, &g, &[3, 2]);
            assert_eq!(r, expect, "prefix {n} changed the program result");
        }
    }

    #[test]
    fn sabotage_breaks_exactly_the_named_pass() {
        let src = "
            int a[8];
            int main(int i, int v) { a[i] = v; return a[i] + 1; }";
        let (module, g0) = compile(src);
        let oracle = AliasOracle::new(&module);
        let mut good = g0.clone();
        optimize(&mut good, &oracle, &OptLevel::Full.config());
        let (want, _, _) = run(&module, &good, &[2, 10]);
        assert_eq!(want, Some(11));
        let mut bad = g0.clone();
        optimize(&mut bad, &oracle, &OptLevel::Full.config().sabotage("load_store"));
        pegasus::verify(&bad).expect("sabotage keeps the graph structurally valid");
        let (got, _, _) = run(&module, &bad, &[2, 10]);
        assert_ne!(got, want, "sabotaged pipeline must miscompile");
    }

    /// The PR 2 acceptance scenario: re-introduce the `loop_invariant`
    /// rate bug via fault injection and confirm the *static* rate
    /// analysis reports it — naming the offending cycle — with no
    /// simulation anywhere in the loop.
    #[test]
    fn sabotaged_hoisting_is_caught_statically() {
        let src = "
            int a[8];
            int main(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < i; j++) { s = s + a[j]; }
                }
                return s;
            }";
        let (module, g0) = compile(src);
        let oracle = AliasOracle::new(&module);
        let mut clean = g0.clone();
        let report = optimize(&mut clean, &oracle, &OptLevel::Full.config());
        assert!(report.lint.is_clean(), "clean pipeline must lint clean: {:?}", report.lint);
        let mut bad = g0.clone();
        let report =
            optimize(&mut bad, &oracle, &OptLevel::Full.config().sabotage("loop_invariant"));
        let hit = report
            .lint
            .diags
            .iter()
            .find(|d| d.rule == lint::Rule::UngatedEntry)
            .unwrap_or_else(|| panic!("rate bug must be caught statically: {:?}", report.lint));
        assert!(!hit.aux.is_empty(), "the offending cycle is named: {hit:?}");
        assert!(hit.message.contains("ring cycle"), "cycle described: {}", hit.message);
        assert_eq!(report.lint.rule_counts()[lint::Rule::UngatedEntry as usize].0, "ungated_entry");
    }

    /// The `token_removal` fault dissolves a live ordering edge; the
    /// token-race rule must flag the now-unordered aliasing pair.
    #[test]
    fn sabotaged_token_removal_is_caught_statically() {
        let src = "
            int a[8];
            void main(int i, int j) { a[i] = 1; a[j] = a[i] + 2; }";
        let (module, g0) = compile(src);
        let oracle = AliasOracle::new(&module);
        let mut bad = g0.clone();
        let report =
            optimize(&mut bad, &oracle, &OptLevel::Full.config().sabotage("token_removal"));
        assert!(
            report.lint.diags.iter().any(|d| d.rule == lint::Rule::TokenRace),
            "dissolved ordering must be reported as a race: {:?}",
            report.lint
        );
    }

    #[test]
    fn none_level_keeps_memory_ops() {
        let src = "
            int a[8];
            int main(int i, int v) { a[i] = v; return a[i]; }";
        let (module, mut g) = compile(src);
        let oracle = AliasOracle::new(&module);
        let report = optimize(&mut g, &oracle, &OptLevel::None.config());
        assert_eq!(report.static_after, (1, 1));
    }

    /// `(live nodes, edges, token edges)`, measured by the graph itself.
    fn shape(g: &Graph) -> (usize, usize, usize) {
        (g.live_count(), g.count_edges(), g.count_token_edges())
    }

    fn before(p: &PassStat) -> (usize, usize, usize) {
        (p.nodes.0, p.edges.0, p.token_edges.0)
    }

    fn after(p: &PassStat) -> (usize, usize, usize) {
        (p.nodes.1, p.edges.1, p.token_edges.1)
    }

    /// Nothing touches the graph between invocations, so each recorded
    /// after-shape is the next invocation's before-shape.
    fn assert_shapes_chain(passes: &[PassStat]) {
        for (i, w) in passes.windows(2).enumerate() {
            assert_eq!(
                after(&w[0]),
                before(&w[1]),
                "invocations {i} ({}) -> {}",
                w[0].name,
                w[1].name
            );
        }
    }

    /// The pass manager measures the graph once per invocation and reuses
    /// the measurement; the recorded shapes must still be the graph's.
    #[test]
    fn recorded_shapes_chain_and_match_the_graph() {
        let src = "
            int a[8]; int b[9];
            int main(int n) {
                for (int i = 0; i < n; i++) { b[i+1] = i; a[i] = b[i] + a[i]; }
                return a[2] + b[3];
            }";
        for level in OptLevel::ALL {
            let cfgc = level.config();
            let (module, g0) = if cfgc.rw_sets_at_build { compile_rw(src) } else { compile(src) };
            let oracle = AliasOracle::new(&module);
            let mut g = g0.clone();
            let full = optimize(&mut g, &oracle, &cfgc);
            assert_eq!(before(&full.passes[0]), shape(&g0), "{level}: first before-shape");
            assert_eq!(after(full.passes.last().unwrap()), shape(&g), "{level}: last after-shape");
            assert_shapes_chain(&full.passes);
            // Stopping after invocation n leaves exactly its after-shape.
            for n in 1..=full.passes.len() {
                let mut g = g0.clone();
                let report = optimize(&mut g, &oracle, &cfgc.prefix(n));
                assert_eq!(after(&report.passes[n - 1]), shape(&g), "{level}: prefix {n}");
            }
        }
    }

    /// A sabotage rewrite runs inside its pass's invocation, before the
    /// after-shape is taken: the recorded shape is that of the sabotaged
    /// graph, and the next invocation starts from it.
    #[test]
    fn sabotaged_after_shape_includes_the_sabotage_rewrite() {
        let src = "
            int a[8];
            void main(int i, int j) { a[i] = 1; a[j] = a[i] + 2; }";
        let (module, g0) = compile(src);
        let oracle = AliasOracle::new(&module);
        let cfgc = OptLevel::Full.config().sabotage("token_removal");
        let mut bad = g0.clone();
        let full = optimize(&mut bad, &oracle, &cfgc);
        assert_shapes_chain(&full.passes);
        let k = full.passes.iter().position(|p| p.name == "token_removal").unwrap();
        let (mut clean, mut sabotaged) = (g0.clone(), g0.clone());
        optimize(&mut clean, &oracle, &OptLevel::Full.config().prefix(k + 1));
        let report = optimize(&mut sabotaged, &oracle, &cfgc.prefix(k + 1));
        assert!(
            clean.ids().any(|id| clean.uses(id) != sabotaged.uses(id)),
            "the sabotage must have rewired the graph"
        );
        assert_eq!(after(&report.passes[k]), shape(&sabotaged));
        assert_eq!(after(&full.passes[k]), shape(&sabotaged));
    }
}
