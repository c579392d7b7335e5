//! The differential harness: interpreter oracle vs compiled circuit.
//!
//! For a program and argument vector, [`diff_source`] runs the reference
//! interpreter once, then compiles and simulates at each requested
//! [`OptLevel`], comparing the returned value *and the final memory image*
//! (two machines built from the same module share a layout, so images are
//! directly comparable byte vectors). On any disagreement the harness
//! re-compiles with [`opt::OptConfig::prefix`] bounds and binary-searches the
//! first pass invocation whose inclusion flips the program from agreeing to
//! disagreeing — optimizer passes preserve (possibly already-broken)
//! semantics, so badness is monotone in the prefix length and bisection is
//! sound.

use crate::interp;
use cash::{Compiler, MemSystem, Program, SimConfig};
use opt::{OptConfig, OptLevel};

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Interpreter step budget.
    pub fuel: u64,
    /// Simulator cycle ceiling (a miscompile may deadlock or diverge).
    pub max_cycles: u64,
    /// Levels to check.
    pub levels: Vec<OptLevel>,
    /// Fault injection forwarded to the optimizer (harness self-tests).
    pub sabotage: Option<&'static str>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            fuel: 1 << 20,
            max_cycles: 1_000_000,
            levels: OptLevel::ALL.to_vec(),
            sabotage: None,
        }
    }
}

/// The first pass invocation that breaks the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadPass {
    /// 1-based index into [`opt::OptReport::passes`].
    pub invocation: usize,
    /// Pass name (e.g. `load_store`).
    pub name: String,
    /// Fixpoint round, if the pass runs in one.
    pub round: Option<usize>,
}

/// A circuit-vs-oracle disagreement at one level.
#[derive(Debug, Clone)]
pub struct Failure {
    pub level: OptLevel,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Bisection result. `None` means the unoptimized circuit (pass prefix 0)
    /// already disagrees: the bug is in build/simulation, not in a pass.
    pub pass: Option<BadPass>,
}

/// Result of checking one program.
#[derive(Debug, Clone)]
pub enum DiffOutcome {
    /// Circuit agrees with the oracle at every level.
    Agree,
    /// The oracle itself could not run the program (fuel, frontend); the
    /// program is outside the harness's domain.
    OracleError(String),
    /// Disagreement (first failing level reported, bisected).
    Fail(Failure),
}

/// What one circuit run observed.
type Observed = (Option<i64>, Vec<u8>);

fn level_config(level: OptLevel, sabotage: Option<&'static str>) -> OptConfig {
    let mut cfg = level.config();
    cfg.sabotage = sabotage;
    cfg
}

/// Compiles and simulates, returning observables or a failure description.
fn run_circuit(
    src: &str,
    cfg: OptConfig,
    args: &[i64],
    max_cycles: u64,
) -> Result<Observed, String> {
    let program = Compiler::new().config(cfg).compile(src).map_err(|e| format!("compile: {e}"))?;
    run_compiled(&program, args, max_cycles)
}

/// Simulates an already-compiled program.
fn run_compiled(program: &Program, args: &[i64], max_cycles: u64) -> Result<Observed, String> {
    let sim =
        SimConfig { mem: MemSystem::Perfect { latency: 1 }, max_cycles, ..SimConfig::default() };
    let mut machine = program.machine(sim.mem.clone());
    let result =
        program.simulate_on(&mut machine, args, &sim).map_err(|e| format!("simulate: {e}"))?;
    Ok((result.ret, machine.image().to_vec()))
}

/// Describes the first disagreement between oracle and circuit, if any.
fn compare(oracle: &Observed, circuit: &Observed) -> Option<String> {
    if oracle.0 != circuit.0 {
        return Some(format!("return value: oracle {:?}, circuit {:?}", oracle.0, circuit.0));
    }
    if oracle.1 != circuit.1 {
        let at = oracle.1.iter().zip(&circuit.1).position(|(a, b)| a != b);
        return Some(match at {
            Some(i) => format!(
                "memory image differs at byte {:#x}: oracle {:#04x}, circuit {:#04x}",
                i, oracle.1[i], circuit.1[i]
            ),
            None => format!(
                "memory image length: oracle {} bytes, circuit {} bytes",
                oracle.1.len(),
                circuit.1.len()
            ),
        });
    }
    None
}

/// Runs the interpreter oracle.
fn run_oracle(src: &str, args: &[i64], fuel: u64) -> Result<Observed, String> {
    let out = interp::run_source(src, "main", args, fuel).map_err(|e| e.to_string())?;
    Ok((out.ret, out.machine.image().to_vec()))
}

/// Appends the flight-recorder tail to a failure description, so oracle
/// mismatches and lint rejections carry their last-N-events context (which
/// passes ran, what the simulator last did) without re-running anything.
fn with_flight_tail(mut detail: String) -> String {
    let tail = obs::flight::dump();
    if !tail.is_empty() {
        detail.push('\n');
        detail.push_str(tail.trim_end());
    }
    detail
}

/// Checks `src` against the oracle at every configured level; bisects the
/// first failure to a pass invocation.
pub fn diff_source(src: &str, args: &[i64], opts: &DiffOptions) -> DiffOutcome {
    let _sp = obs::span::enter("oracle.diff");
    let oracle = match run_oracle(src, args, opts.fuel) {
        Ok(o) => o,
        Err(e) => return DiffOutcome::OracleError(e),
    };
    for &level in &opts.levels {
        let cfg = level_config(level, opts.sabotage);
        let observed = match Compiler::new().config(cfg).compile(src) {
            Ok(program) => {
                // First line of defense: a circuit the static lint rejects
                // is broken before a single cycle is simulated. Bisection
                // is static too — prefix-compile and re-lint.
                if !program.report.lint.is_clean() {
                    let diags = &program.report.lint.diags;
                    let more = diags.len() - 1;
                    let detail = if more > 0 {
                        format!("static lint: {} (+{more} more)", diags[0])
                    } else {
                        format!("static lint: {}", diags[0])
                    };
                    obs::flight::note("oracle.fail", "static_lint", diags.len() as i64, 0);
                    let detail = with_flight_tail(detail);
                    let pass = bisect_static(src, level, opts, &program);
                    return DiffOutcome::Fail(Failure { level, detail, pass });
                }
                run_compiled(&program, args, opts.max_cycles)
            }
            Err(e) => Err(format!("compile: {e}")),
        };
        let detail = match &observed {
            Ok(obs) => match compare(&oracle, obs) {
                None => continue,
                Some(d) => d,
            },
            Err(e) => e.clone(),
        };
        obs::flight::note("oracle.fail", "mismatch", 0, 0);
        let detail = with_flight_tail(detail);
        let pass = bisect(src, args, level, opts, &oracle);
        return DiffOutcome::Fail(Failure { level, detail, pass });
    }
    DiffOutcome::Agree
}

/// Convenience wrapper: generate from a seed and check.
pub fn diff_program(
    prog: &crate::gen::GenProgram,
    args: &[i64],
    opts: &DiffOptions,
) -> DiffOutcome {
    diff_source(&crate::gen::render(prog), args, opts)
}

/// Checks a whole seed range, fanning the independent programs out across
/// worker threads (`cash::par`; pin with `CASH_THREADS`). Returns the
/// lowest-seeded disagreement, so failures are reported exactly as a
/// serial in-order sweep would report them. Bisection only runs for
/// failing seeds, which are rare, so the parallel phase is the cheap
/// common case.
pub fn diff_seeds(
    seeds: std::ops::Range<u64>,
    args_for: fn(u64) -> Vec<i64>,
    opts: &DiffOptions,
) -> Option<(u64, DiffOutcome)> {
    let outcomes = cash::par::par_map(seeds.collect(), |seed| {
        let prog = crate::gen::gen(seed);
        (seed, diff_program(&prog, &args_for(seed), opts))
    });
    outcomes.into_iter().find(|(_, o)| !matches!(o, DiffOutcome::Agree))
}

/// Binary-searches the smallest pass-prefix length that disagrees with the
/// oracle. Returns `None` when even the empty prefix (pure build + simulate)
/// disagrees.
fn bisect(
    src: &str,
    args: &[i64],
    level: OptLevel,
    opts: &DiffOptions,
    oracle: &Observed,
) -> Option<BadPass> {
    // The full run's invocation sequence; prefix(n) runs exactly its first n.
    let full = Compiler::new().config(level_config(level, opts.sabotage)).compile(src).ok()?;
    let total = full.report.passes.len();
    let disagrees = |n: usize| -> bool {
        let cfg = level_config(level, opts.sabotage).prefix(n);
        match run_circuit(src, cfg, args, opts.max_cycles) {
            Ok(obs) => compare(oracle, &obs).is_some(),
            Err(_) => true,
        }
    };
    if disagrees(0) {
        return None; // broken before any pass ran
    }
    let (mut good, mut bad) = (0usize, total);
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        if disagrees(mid) {
            bad = mid;
        } else {
            good = mid;
        }
    }
    let stat = &full.report.passes[bad - 1];
    Some(BadPass { invocation: bad, name: stat.name.to_string(), round: stat.round })
}

/// Static counterpart of [`bisect`]: binary-searches the smallest pass-prefix
/// length whose compiled graph the lint rejects. Every probe is a
/// prefix-compile plus the always-on final lint — no cycle is ever simulated.
/// Returns `None` when the freshly built graph (prefix 0) is already flagged:
/// the defect predates the optimizer.
fn bisect_static(
    src: &str,
    level: OptLevel,
    opts: &DiffOptions,
    full: &Program,
) -> Option<BadPass> {
    let total = full.report.passes.len();
    let dirty = |n: usize| -> bool {
        let cfg = level_config(level, opts.sabotage).prefix(n);
        match Compiler::new().config(cfg).compile(src) {
            Ok(p) => !p.report.lint.is_clean(),
            Err(_) => true,
        }
    };
    if dirty(0) {
        return None;
    }
    let (mut good, mut bad) = (0usize, total);
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        if dirty(mid) {
            bad = mid;
        } else {
            good = mid;
        }
    }
    let stat = &full.report.passes[bad - 1];
    Some(BadPass { invocation: bad, name: stat.name.to_string(), round: stat.round })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn clean_compiler_agrees_on_fixed_programs() {
        let srcs = [
            "int a[8];
             int main(int n) {
                 for (int i = 0; i < n; i++) a[i & 7] += i * 2;
                 return a[3] - a[4];
             }",
            "int g;
             int f(int x) { g += x; return g * 2; }
             int main(int n) { return f(n) + f(n + 1); }",
        ];
        for src in srcs {
            match diff_source(src, &[6], &DiffOptions::default()) {
                DiffOutcome::Agree => {}
                other => panic!("expected agreement, got {other:?}"),
            }
        }
    }

    #[test]
    fn generated_programs_agree_smoke() {
        let opts = DiffOptions::default();
        for seed in 0..6 {
            let prog = gen::gen(seed);
            match diff_program(&prog, &[(seed % 11) as i64], &opts) {
                DiffOutcome::Agree => {}
                other => panic!("seed {seed}: {other:?}\n{}", gen::render(&prog)),
            }
        }
    }

    #[test]
    fn memory_image_differences_are_detected() {
        // Two different programs produce different images; the comparator
        // must see through an identical return value.
        let a =
            run_oracle("int a[4]; int main(int n) { a[0] = 1; return 0; }", &[0], 1000).unwrap();
        let b =
            run_oracle("int a[4]; int main(int n) { a[0] = 2; return 0; }", &[0], 1000).unwrap();
        assert!(compare(&a, &b).unwrap().contains("memory image"));
    }

    #[test]
    fn statically_flagged_sabotage_skips_simulation() {
        // The loop_invariant sabotage re-creates PR 2's wrong-rate hoisting
        // bug, which deadlocks a deep loop nest when simulated. The rate lint
        // flags it at compile time; with max_cycles = 1 any simulation attempt
        // would error out, so an accurate Fail proves no cycle was simulated.
        let src = "
            int a[8];
            int main(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < i; j++) { s = s + a[j]; }
                }
                return s;
            }";
        let opts = DiffOptions {
            sabotage: Some("loop_invariant"),
            levels: vec![OptLevel::Full],
            max_cycles: 1,
            ..DiffOptions::default()
        };
        match diff_source(src, &[5], &opts) {
            DiffOutcome::Fail(f) => {
                assert!(f.detail.starts_with("static lint:"), "lint-first detail: {}", f.detail);
                let pass = f.pass.expect("static bisection names the pass");
                assert_eq!(pass.name, "loop_invariant");
            }
            other => panic!("expected a static failure, got {other:?}"),
        }
    }

    #[test]
    fn oracle_errors_are_reported_not_panicked() {
        let opts = DiffOptions { fuel: 10, ..DiffOptions::default() };
        let src = "int main(int n) { int s = 0; while (s < 10000) s++; return s; }";
        assert!(matches!(diff_source(src, &[0], &opts), DiffOutcome::OracleError(_)));
    }
}
