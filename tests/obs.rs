//! Integration tests for the `obs` runtime as the pipeline actually uses
//! it: span capture must nest correctly on `cash::par` workers, and the
//! flight recorder must dump on panic.
//!
//! The recording switch and the panic hook's stashed dump are
//! process-global, so every test serializes on [`GATE`].

use std::sync::Mutex;

use cash::{Compiler, OptLevel, SimConfig};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const SRC: &str = "
    int a[16];
    int main(int n) {
        for (int i = 0; i < n; i++) a[i] = i * 3;
        return a[5];
    }";

/// Span capture is per-thread: each `cash::par` worker's compile returns
/// its own properly nested tree — a single depth-0 root covering every
/// child, children inside their parent's interval, and no cross-worker
/// bleed (every program sees exactly one root).
#[test]
fn span_capture_nests_correctly_on_par_workers() {
    let _g = gate();
    obs::set_enabled(true);
    std::env::set_var("CASH_THREADS", "4");
    let programs = cash::par::par_map(vec![SRC; 8], |src| {
        Compiler::new().level(OptLevel::Full).compile(src).unwrap()
    });
    std::env::remove_var("CASH_THREADS");
    for p in &programs {
        let roots: Vec<_> = p.spans.iter().filter(|s| s.depth == 0).collect();
        assert_eq!(roots.len(), 1, "exactly one root span per compile: {:?}", p.spans);
        let root = roots[0];
        assert_eq!(root.name, "compile");
        for s in &p.spans {
            // Every span fits inside the root's interval (±2µs for
            // independent truncation of start and duration)...
            assert!(s.start_us >= root.start_us, "{s:?} starts before the root");
            assert!(
                s.start_us + s.dur_us <= root.start_us + root.dur_us + 2,
                "{s:?} outlives the root"
            );
            // ...and every non-root span has an enclosing parent one
            // level up (capture keeps the stack discipline per worker).
            if s.depth > 0 {
                assert!(
                    p.spans.iter().any(|par| par.depth + 1 == s.depth
                        && par.start_us <= s.start_us
                        && par.start_us + par.dur_us + 2 >= s.start_us + s.dur_us),
                    "no enclosing parent for {s:?}"
                );
            }
        }
        let names: Vec<&str> = p.spans.iter().map(|s| s.name).collect();
        for expect in ["frontend", "frontend.parse", "opt", "pegasus.build", "lint.final"] {
            assert!(names.contains(&expect), "missing span {expect:?} in {names:?}");
        }
    }
}

/// A panic anywhere after a compile dumps the flight recorder: the
/// sabotage hook miscompiles the kernel, the reference check panics, and
/// the installed hook stashes the recent span/event tail — the post-mortem
/// a CI log actually needs.
#[test]
fn flight_recorder_dumps_on_panic() {
    let _g = gate();
    obs::set_enabled(true);
    // `compile` installs the hook; sabotage flips an add into a sub, a
    // corruption invisible to every static layer.
    let cfg = OptLevel::Full.config().sabotage("load_store");
    let p = Compiler::new().config(cfg).compile(SRC).unwrap();
    // The corrupted circuit may compute garbage, trap, or spin — any
    // outcome other than the reference answer must panic inside the guard
    // (a tight cycle budget turns "spin" into an error promptly).
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let r = p
            .simulate(&[8], &SimConfig { max_cycles: 100_000, ..SimConfig::perfect() })
            .expect("sabotaged kernel simulates");
        assert_eq!(r.ret, Some(15), "sabotaged kernel must disagree with the reference");
    }));
    assert!(caught.is_err(), "the miscompile must be observable");
    let dump = obs::flight::last_dump().expect("panic hook stashed a dump");
    assert!(dump.contains("flight recorder ("), "dump header present: {dump}");
    assert!(dump.contains("opt.pass"), "recent optimizer events in the tail: {dump}");
    assert!(dump.contains("span"), "span completions in the tail: {dump}");
}
