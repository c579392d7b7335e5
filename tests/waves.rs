//! Waveform capture and deterministic replay: the observability tier for
//! `SimConfig::waves`.
//!
//! Three properties are pinned here:
//!
//! 1. **VCD byte-stability.** The exported waveform is a pure function of
//!    (circuit, arguments, configuration) — goldens for three kernels,
//!    regenerated only on intentional capture-format changes with:
//!
//!    ```text
//!    UPDATE_GOLDEN=1 cargo test -q -p cash-integration --test waves
//!    ```
//!
//! 2. **Capture is additive.** Every suite kernel captures and renders a
//!    VCD, and turning capture on changes nothing else about the run.
//!    Stepping the executor (the replay recording pass) captures the
//!    same VCD as running it straight through.
//!
//! 3. **Checkpoint round-trips.** `Replay` restores executor snapshots
//!    and re-executes; because delivery order is pinned to `(cycle, seq)`,
//!    resuming from any cycle must reproduce the uninterrupted run's
//!    final record exactly, and reverse-step must land on the same state
//!    the forward pass saw.

use cash::{Compiler, MemSystem, OptLevel, Replay, SimConfig, StopReason};

fn perfect() -> SimConfig {
    SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }
}

/// Golden corpus: small arguments keep the committed files tens of KB.
const GOLDEN_KERNELS: [(&str, i64); 3] = [("adpcm_e", 2), ("gsm_e", 2), ("099.go", 2)];

fn golden_path(kernel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("waves_{}.vcd", kernel.replace('.', "_")))
}

#[test]
fn vcd_goldens_are_byte_stable() {
    for (kernel, arg) in GOLDEN_KERNELS {
        let w = workloads::by_name(kernel).expect("suite kernel");
        let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
        let cfg = perfect().with_waves(true);
        let r = p.simulate(&[arg], &cfg).unwrap();
        let vcd = r.waves.as_ref().expect("waves enabled").to_vcd(&p.graph);
        let path = golden_path(kernel);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &vcd).expect("write golden");
            eprintln!("golden updated: {} bytes -> {}", vcd.len(), path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} — regenerate with UPDATE_GOLDEN=1", path.display())
        });
        assert_eq!(vcd, golden, "{kernel}: VCD drifted from the golden capture");
    }
}

/// Waves stay out of the stats record (and the goldens) unless asked for.
/// Every suite kernel captures at a reduced argument (every value change
/// on every port is recorded), renders a VCD, and otherwise runs exactly
/// as it does with capture off.
#[test]
fn waves_off_leaves_the_sim_record_unchanged() {
    let suite = workloads::suite();
    assert!(suite.len() >= 16, "suite shrank to {}", suite.len());
    cash::par::par_map(suite, |w| {
        let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
        let arg = (w.default_arg / 4).max(1);
        let run =
            |cfg: &SimConfig| p.simulate(&[arg], cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let off = run(&perfect());
        assert!(off.waves.is_none(), "{}", w.name);
        assert!(!off.to_json().contains("\"waves\""), "{}", w.name);
        let on = run(&perfect().with_waves(true));
        assert!(on.to_json().contains("\"waves\":{\"signals\":"), "{}", w.name);
        let wave = on.waves.as_ref().expect("waves enabled");
        assert!(wave.num_changes() > 0, "{}: nothing captured", w.name);
        assert!(wave.to_vcd(&p.graph).contains("$enddefinitions"), "{}: no VCD header", w.name);
        // The capture is additive: everything else is untouched.
        assert_eq!(off.ret, on.ret, "{}", w.name);
        assert_eq!(off.cycles, on.cycles, "{}", w.name);
        assert_eq!(off.fired, on.fired, "{}", w.name);
    });
}

/// The executor is driven two ways: run to completion by
/// `Program::simulate`, and stepped one cycle at a time with periodic
/// snapshots by the replay debugger's recording pass. Both must emit the
/// same VCD, byte for byte, for every suite kernel.
#[test]
fn backends_emit_identical_vcd_for_every_kernel() {
    let suite = workloads::suite();
    assert!(suite.len() >= 16, "suite shrank to {}", suite.len());
    cash::par::par_map(suite, |w| {
        let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
        let arg = (w.default_arg / 4).max(1);
        let cfg = perfect().with_waves(true);
        let direct = p.simulate(&[arg], &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let machine = p.machine(cfg.mem.clone());
        let rp = Replay::new(&p.graph, machine, &[arg], &cfg, 64)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let stepped = rp.final_result();
        assert_eq!(direct.ret, stepped.ret, "{}", w.name);
        assert_eq!(direct.cycles, stepped.cycles, "{}", w.name);
        let vcd = |r: &cash::SimResult| r.waves.as_ref().expect("waves enabled").to_vcd(&p.graph);
        assert_eq!(vcd(&direct), vcd(stepped), "{}: stepped run's VCD differs", w.name);
    });
}

/// Zeroes the wall-time field (the one nondeterministic part of the
/// record).
fn normalize(json: &str) -> String {
    let mut s = json.to_string();
    if let Some(at) = s.find("\"us\":") {
        let start = at + "\"us\":".len();
        let end = start + s[start..].chars().take_while(char::is_ascii_digit).count();
        s.replace_range(start..end, "0");
    }
    s
}

/// Resuming from a checkpoint and running to completion must reproduce
/// the uninterrupted recording pass byte-for-byte — including the waves
/// summary, since snapshots carry the capture.
#[test]
fn checkpoint_resume_reproduces_the_final_record() {
    let w = workloads::by_name("g721_e").expect("suite kernel");
    let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
    let cfg = perfect();
    let machine = p.machine(cfg.mem.clone());
    let mut rp = Replay::new(&p.graph, machine, &[10], &cfg, 128).unwrap();
    let golden = normalize(&rp.final_result().to_json());
    let end = rp.final_result().cycles;
    assert!(rp.checkpoint_cycles().len() > 3, "run too short for the interval");

    // Resume from several cursor positions, including past-the-middle
    // ones that restore a late checkpoint.
    for frac in [0u64, 1, 3, 7] {
        let c = end * frac / 8;
        assert_eq!(rp.run_to(c).unwrap(), StopReason::Cycle(c));
        assert_eq!(rp.now(), c);
        assert!(matches!(rp.cont().unwrap(), StopReason::Finished));
        let resumed = rp.finished().expect("cursor ran to completion");
        assert_eq!(
            normalize(&resumed.to_json()),
            golden,
            "resume at cycle {c} diverged from the uninterrupted run"
        );
    }
}

/// Reverse-step is exact: stepping back re-lands on the precise forward
/// state (cycle, firing count and the entire capture history).
#[test]
fn reverse_step_reproduces_forward_state() {
    let w = workloads::by_name("adpcm_e").expect("suite kernel");
    let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
    let cfg = perfect();
    let machine = p.machine(cfg.mem.clone());
    let mut rp = Replay::new(&p.graph, machine, &[8], &cfg, 64).unwrap();

    rp.run_to(200).unwrap();
    let fired = rp.fired();
    let wave = rp.wave().clone();
    rp.step(150).unwrap();
    assert_eq!(rp.now(), 350);
    rp.reverse_step(150).unwrap();
    assert_eq!(rp.now(), 200, "reverse-step must land on the exact cycle");
    assert_eq!(rp.fired(), fired, "firing count must round-trip");
    assert_eq!(*rp.wave(), wave, "capture history must round-trip");

    // Breakpoints respect replayed time: a fire break hits at the same
    // cycle whether reached forward or after time travel.
    let hops = rp.hops().to_vec();
    assert!(!hops.is_empty(), "critical path recorded");
    let (node, t) = hops[hops.len() / 2];
    rp.run_to(0).unwrap();
    rp.add_break(cash::Breakpoint::Fire(node));
    match rp.cont().unwrap() {
        StopReason::Breakpoint { cycle, .. } => {
            assert!(cycle <= t, "first fire of {node} can't be after its crit hop at {t}");
        }
        other => panic!("expected a breakpoint hit for {node}, got {other:?}"),
    }
}
