//! Static semantic lint for Pegasus graphs.
//!
//! The structural verifier ([`pegasus::verify`]) checks that a graph is
//! well-formed; this crate checks that a well-formed graph is *plausible
//! as a program*, without simulating it. Three analysis families:
//!
//! - **token network** — every side-effecting operation must be supplied
//!   with tokens from the initial token; direct token dependences must be
//!   transitively reduced (§3.4); and every unordered pair of may-aliasing
//!   memory operations must be provably address-disjoint (the *race*
//!   check, §4.3 read backwards: only what the optimizer may dissolve may
//!   be left unordered);
//! - **predicates** — mux select disjointness, hyperblock exit
//!   exhaustiveness and disjointness (§3.3), and provably-false predicates
//!   on live side effects, all decided with BDDs (§5);
//! - **rates** — an SDF-style balance check over merge/eta/token-generator
//!   cycles that catches structural deadlocks (a ring entry flooded by an
//!   ungated per-wave stream, a merge with no entry) before simulation.
//!
//! The optimization manager runs the lint after every pass under
//! `debug_assertions` and always on the final graph; the differential
//! harness consults it before spending cycles on simulation.

mod predicate;
mod preds;
mod rate;
mod token;

use cfgir::AliasOracle;
use pegasus::{Graph, NodeId};
use std::fmt;

/// A lint rule. Rule names are stable: they appear in `cash-stats-v1`
/// output and in the CI gate log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// A load/store/token-generator/return token input is not supplied
    /// from the initial token: the operation can never fire.
    TokenUnreachable,
    /// A direct token dependence already implied transitively by another.
    TokenRedundant,
    /// Two may-aliasing memory operations (at least one a store) with no
    /// token path ordering them and no disjointness proof.
    TokenRace,
    /// Two mux ways whose select predicates can be true simultaneously.
    MuxOverlap,
    /// A hyperblock's exit steers do not partition its waves: either some
    /// wave strands its token (deadlock) or some wave exits twice.
    ExitPartition,
    /// A live side effect whose predicate is provably false.
    DeadPred,
    /// A node joining input streams with unbalanced delivery rates.
    RateMismatch,
    /// A merge entry slot fed a value *every* wave of some loop: the ring
    /// consumes one entry per execution, so the channel floods (deadlock).
    UngatedEntry,
}

impl Rule {
    /// All rules, in stable reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::TokenUnreachable,
        Rule::TokenRedundant,
        Rule::TokenRace,
        Rule::MuxOverlap,
        Rule::ExitPartition,
        Rule::DeadPred,
        Rule::RateMismatch,
        Rule::UngatedEntry,
    ];

    /// The stable snake_case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::TokenUnreachable => "token_unreachable",
            Rule::TokenRedundant => "token_redundant",
            Rule::TokenRace => "token_race",
            Rule::MuxOverlap => "mux_overlap",
            Rule::ExitPartition => "exit_partition",
            Rule::DeadPred => "dead_pred",
            Rule::RateMismatch => "rate_mismatch",
            Rule::UngatedEntry => "ungated_entry",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violation anchored at a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    pub rule: Rule,
    /// The node the diagnostic is anchored at.
    pub node: NodeId,
    /// Other nodes involved: the race partner, the implied dependence, the
    /// ring members of a flooded cycle.
    pub aux: Vec<NodeId>,
    pub message: String,
}

impl fmt::Display for LintDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.node, self.message)
    }
}

/// Which rule families to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintConfig {
    /// Token supply from the initial token ([`Rule::TokenUnreachable`]).
    pub tokens: bool,
    /// Transitive redundancy of direct token dependences
    /// ([`Rule::TokenRedundant`]). Off mid-pipeline: passes may leave the
    /// token graph legally unreduced between rewrites.
    pub redundancy: bool,
    /// Unordered may-aliasing memory pairs ([`Rule::TokenRace`]).
    pub races: bool,
    /// Mux and exit predicate checks ([`Rule::MuxOverlap`],
    /// [`Rule::ExitPartition`]).
    pub predicates: bool,
    /// Rate balance analysis ([`Rule::RateMismatch`],
    /// [`Rule::UngatedEntry`]).
    pub rates: bool,
    /// Provably dead side effects ([`Rule::DeadPred`]). Only meaningful
    /// when dead-code elimination has run: a graph that never ran it may
    /// legally carry false-predicate operations.
    pub dead_code: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            tokens: true,
            redundancy: true,
            races: true,
            predicates: true,
            rates: true,
            dead_code: true,
        }
    }
}

/// Runs every enabled rule over `g` and returns the diagnostics, ordered
/// by anchor node then rule.
pub fn lint(g: &Graph, oracle: &AliasOracle<'_>, cfg: &LintConfig) -> Vec<LintDiag> {
    let _sp = obs::span::enter("lint");
    let mut diags = Vec::new();
    if cfg.tokens || cfg.redundancy || cfg.races {
        token::check(g, oracle, cfg, &mut diags);
    }
    if cfg.predicates || cfg.dead_code {
        predicate::check(g, cfg, &mut diags);
    }
    if cfg.rates {
        rate::check(g, &mut diags);
    }
    diags.sort_by_key(|d| (d.node, d.rule));
    diags
}

/// The result of a lint run, as attached to an optimization report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    pub diags: Vec<LintDiag>,
    /// Wall time of the run, microseconds.
    pub micros: u64,
}

impl LintReport {
    /// No diagnostics?
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Per-rule diagnostic counts, in [`Rule::ALL`] order.
    pub fn rule_counts(&self) -> [(&'static str, usize); Rule::ALL.len()] {
        let mut out = Rule::ALL.map(|r| (r.name(), 0usize));
        for d in &self.diags {
            out[d.rule as usize].1 += 1;
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Source-to-graph compilation for rule unit tests, mirroring
    //! `opt`'s test helper (which this crate cannot depend on).

    use cfgir::{AliasOracle, Module};
    use pegasus::Graph;

    pub fn compile(src: &str) -> (Module, Graph) {
        let mut module = minic::compile_to_module(src).expect("test source compiles");
        let mut flat = cfgir::inline::inline_all(&module, "main").expect("inlines");
        cfgir::pointsto::recompute_may_sets(&mut flat);
        let idx = module.functions.iter().position(|f| f.name == "main").expect("main exists");
        module.functions[idx] = flat;
        let oracle = AliasOracle::new(&module);
        let f = module.function("main").unwrap();
        let g =
            pegasus::build(f, &oracle, &pegasus::BuildOptions::default()).expect("graph builds");
        pegasus::verify(&g).expect("built graph verifies");
        (module, g)
    }

    /// Lints a freshly built (unoptimized) graph: dead-code and redundancy
    /// rules off, exactly like the manager's per-pass configuration.
    pub fn lint_fresh(module: &Module, g: &Graph) -> Vec<crate::LintDiag> {
        let oracle = AliasOracle::new(module);
        let cfg = crate::LintConfig {
            redundancy: false,
            dead_code: false,
            ..crate::LintConfig::default()
        };
        crate::lint(g, &oracle, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{compile, lint_fresh};
    use super::*;

    #[test]
    fn clean_programs_lint_clean() {
        for src in [
            "int main(int a, int b) { return a + b; }",
            "int g[4]; int main(int i) { g[0] = i; g[1] = g[0] + 1; return g[1]; }",
            "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
            "int a[8]; int main(int n) { int i; int s = 0;
              for (i = 0; i < n; i = i + 1) {
                int j; for (j = 0; j < i; j = j + 1) { s = s + a[j]; }
                a[i] = s;
              } return s; }",
            "int main(int x) { if (x > 3) { x = x - 1; } else { x = x + 1; } return x; }",
        ] {
            let (module, g) = compile(src);
            let diags = lint_fresh(&module, &g);
            assert!(diags.is_empty(), "clean program flagged: {:?}\nsource: {src}", diags);
        }
    }

    #[test]
    fn rule_counts_tally_by_rule() {
        let report = LintReport {
            diags: vec![
                LintDiag {
                    rule: Rule::TokenRace,
                    node: pegasus::NodeId(1),
                    aux: vec![pegasus::NodeId(2)],
                    message: String::new(),
                },
                LintDiag {
                    rule: Rule::TokenRace,
                    node: pegasus::NodeId(3),
                    aux: vec![],
                    message: String::new(),
                },
                LintDiag {
                    rule: Rule::UngatedEntry,
                    node: pegasus::NodeId(4),
                    aux: vec![],
                    message: String::new(),
                },
            ],
            micros: 0,
        };
        let counts = report.rule_counts();
        assert_eq!(counts[Rule::TokenRace as usize], ("token_race", 2));
        assert_eq!(counts[Rule::UngatedEntry as usize], ("ungated_entry", 1));
        assert_eq!(counts[Rule::MuxOverlap as usize], ("mux_overlap", 0));
        assert!(!report.is_clean());
    }
}
