//! Observability end-to-end: per-node circuit profiles, the Perfetto
//! (Chrome trace-event) exporter, the heat-map dot overlay, the shared
//! telemetry JSON, and deadlock diagnostics.

use cash::{Compiler, OptLevel, SimConfig};
use pegasus::NodeKind;

const LOOP_SRC: &str = "
    int a[16];
    int main(int n) {
        for (int i = 0; i < n; i++) a[i] = i * 2;
        return a[3];
    }";

fn observed(level: OptLevel, n: i64) -> (cash::Program, cash::SimResult) {
    let p = Compiler::new().level(level).compile(LOOP_SRC).unwrap();
    let cfg = SimConfig { profile: true, trace: true, critpath: true, ..SimConfig::perfect() };
    let r = p.simulate(&[n], &cfg).unwrap();
    (p, r)
}

/// A loop with a known trip count must produce exact per-node firing
/// counts: the body store fires once per iteration, the exit load and the
/// return fire exactly once, and the profile's totals agree with the
/// aggregate counters.
#[test]
fn loop_profile_has_exact_firing_counts() {
    let n = 8;
    let (p, r) = observed(OptLevel::None, n);
    assert_eq!(r.ret, Some(6));
    let prof = r.profile.as_ref().expect("profiling enabled");
    assert_eq!(prof.total_fires(), r.fired, "profile must account for every firing");
    assert_eq!(prof.cycles, r.cycles);

    let by_kind = |pred: fn(&NodeKind) -> bool| -> Vec<pegasus::NodeId> {
        p.graph.live_ids().filter(|&id| pred(p.graph.kind(id))).collect()
    };
    let stores = by_kind(|k| matches!(k, NodeKind::Store { .. }));
    let loads = by_kind(|k| matches!(k, NodeKind::Load { .. }));
    let rets = by_kind(|k| matches!(k, NodeKind::Return { .. }));
    assert_eq!(stores.len(), 1, "one static store");
    assert_eq!(loads.len(), 1, "one static load");
    assert_eq!(rets.len(), 1);

    // Predicated execution: the body store consumes one wave per iteration
    // plus the nullified exit wave (n+1 firings), but only the n
    // true-predicate firings reach memory.
    let store = prof.node(stores[0]);
    assert_eq!(store.fires, n as u64 + 1, "store fires n+1 times");
    assert_eq!(r.stats.stores, n as u64, "only n firings access memory");
    assert_eq!(prof.node(loads[0]).fires, 1, "exit load fires once");
    assert_eq!(prof.node(rets[0]).fires, 1, "return fires once");
    assert!(store.first_fire.unwrap() <= store.last_fire.unwrap());
    assert!(store.last_fire.unwrap() < r.cycles);

    // The loop condition (the only `lt` in the circuit) sees every
    // iteration plus the exit test: n + 1 firings.
    let lts = by_kind(|k| matches!(k, NodeKind::BinOp { op: cfgir::types::BinOp::Lt, .. }));
    assert_eq!(lts.len(), 1);
    assert_eq!(prof.node(lts[0]).fires, n as u64 + 1, "loop test fires n+1 times");

    // Dependent stores serialize through the token chain at level None, so
    // somebody must have measurably stalled on a token input.
    let total_token_stall: u64 = prof.nodes.iter().map(|np| np.stalled_token).sum();
    assert!(total_token_stall > 0, "token chain must show up as token stalls");

    // The rankings are consistent with the raw counters.
    let hottest = prof.hottest(3);
    assert!(!hottest.is_empty());
    assert!(hottest[0].1 >= prof.node(stores[0]).fires);
}

/// Profiling and tracing are opt-in: the plain configs return `None` for
/// both, keeping the uninstrumented path allocation-free.
#[test]
fn observability_is_off_by_default() {
    let p = Compiler::new().level(OptLevel::Full).compile(LOOP_SRC).unwrap();
    let r = p.simulate(&[4], &SimConfig::perfect()).unwrap();
    assert!(r.profile.is_none());
    assert!(r.trace.is_none());
    assert!(r.crit.is_none());
}

/// The trace exporter is deterministic: same program, same input -> byte
/// identical Chrome trace JSON, pinned against a golden literal for a
/// minimal circuit.
#[test]
fn perfetto_export_is_golden_and_byte_stable() {
    let p =
        Compiler::new().level(OptLevel::Full).compile("int main(int x) { return x + 1; }").unwrap();
    let cfg = SimConfig { trace: true, ..SimConfig::perfect() };
    let run = || {
        let r = p.simulate(&[41], &cfg).unwrap();
        assert_eq!(r.ret, Some(42));
        p.trace_to_chrome_json(r.trace.as_ref().expect("tracing enabled"))
    };
    let json = run();
    assert_eq!(json, run(), "two runs must serialize identically");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/minimal_trace.json");
        std::fs::write(path, format!("{json}\n")).unwrap();
    }
    let golden = include_str!("golden/minimal_trace.json").trim_end();
    assert_eq!(json, golden, "trace schema or scheduling drifted from the golden file (rerun with UPDATE_GOLDEN=1 to bless)");
}

/// The bigger loop trace holds firings and memory slices, stays
/// deterministic, and every record is on the simulated-cycle timeline.
#[test]
fn loop_trace_covers_firings_and_memory() {
    let (p, r) = observed(OptLevel::None, 8);
    let trace = r.trace.as_ref().unwrap();
    let fires =
        trace.events.iter().filter(|e| matches!(e, cash::TraceEvent::Fire { .. })).count() as u64;
    assert_eq!(fires, r.fired, "one Fire slice per firing");
    let mems =
        trace.events.iter().filter(|e| matches!(e, cash::TraceEvent::Mem { .. })).count() as u64;
    assert_eq!(mems, r.stats.loads + r.stats.stores, "one Mem slice per access");
    let json = p.trace_to_chrome_json(trace);
    assert!(json.contains("\"cat\":\"mem\""));
    assert!(json.contains("\"ph\":\"C\""), "LSQ occupancy counter track present");
    assert_eq!(json, p.trace_to_chrome_json(r.trace.as_ref().unwrap()));
}

/// The heat-map overlay colors hot nodes and widens stalled borders.
#[test]
fn heat_map_overlay_reflects_the_profile() {
    let (p, r) = observed(OptLevel::None, 8);
    let prof = r.profile.as_ref().unwrap();
    let dot = p.to_dot_heat(prof);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("fillcolor=\"0.000"), "firing-count fill present");
    // The hottest node is saturated red; something cold stays white.
    assert!(dot.contains("fillcolor=\"0.000 1.000 1.000\""));
    assert!(dot.contains("fillcolor=\"0.000 0.000 1.000\""));
}

/// Combined stats serialize under the shared JSON schema.
#[test]
fn telemetry_shares_one_json_schema() {
    let (p, r) = observed(OptLevel::Full, 8);
    let rec = cash::StatsRecord {
        bench: "test",
        kernel: "loop",
        level: "Full",
        system: "perfect",
        opt: &p.report,
        sim: &r,
        spans: &p.spans,
    };
    let line = rec.to_json();
    assert!(line.starts_with("{\"schema\":\"cash-stats-v1\""));
    // PR 6's compiler span tree is the newest additive section: the whole
    // pipeline appears as compact rows, frontend before opt passes.
    assert!(line.contains("\"spans\":[[\"frontend.parse\","), "span rows in the record: {line}");
    assert!(line.contains("[\"opt\","), "optimizer span in the record");
    assert!(line.contains("[\"compile\",0,"), "root span at depth 0");
    assert!(line.contains("\"passes\":[{\"pass\":\"scalar\""));
    assert!(line.contains("\"sim\":{\"ret\":6"));
    // PR 1's stall-cause totals now ride along in the sim section, and the
    // critical-path summary is the additive "crit" key.
    assert!(line.contains("\"stalled\":{\"data\":"), "stall totals in the record: {line}");
    assert!(line.contains("\"crit\":{\"path_len\":"), "crit summary in the record: {line}");
    assert!(line.contains("\"classes\":{\"data\":"), "per-class split in the record");
    assert!(line.contains("\"lsq_high_water\":"), "memory timeline in the record");
    // The static lint reports its wall time and per-rule counts in the same
    // record (all-zero counts on a clean kernel, but the keys are present).
    assert!(line.contains("\"lint\":{\"us\":"), "lint wall time in the record");
    assert!(line.contains("\"token_race\":0"), "per-rule lint counts in the record");
    assert!(!line.contains('\n'));

    // Pass telemetry adds up and records real deltas.
    assert!(!p.report.passes.is_empty());
    let pruned = p.report.passes.iter().find(|ps| ps.name == "prune_dead").unwrap();
    assert!(pruned.nodes.1 <= pruned.nodes.0, "prune never grows the graph");
    // Rule counters agree with the per-pass rewrite counts (the pipeline
    // pass reports loops as its rewrite count; rings/token-gens are
    // byproducts counted by rule only).
    let rules: usize = p.report.rules().iter().map(|(_, v)| *v).sum();
    let rewrites: usize = p.report.passes.iter().map(|ps| ps.rewrites).sum();
    assert_eq!(rules, rewrites + p.report.rings_created + p.report.token_gens);
}

/// The critical-path recorder attributes every end-to-end cycle to an
/// edge class, measures the memory system, and renders the DOT overlay.
#[test]
fn critical_path_covers_the_run_and_renders_the_overlay() {
    let (p, r) = observed(OptLevel::None, 8);
    let crit = r.crit.as_ref().expect("critpath enabled");
    // The last-arrival walk telescopes: cycles = start + sum over classes.
    assert_eq!(crit.attributed_total(), r.cycles - crit.start, "attribution covers the run");
    assert!(crit.path_len > 0);
    // The exit load waits on the store token chain at level None, so the
    // token class carries cycles and the body store sits on the path.
    assert!(crit.class_cycles(cash::EdgeClass::Token) > 0, "token serialization on the path");
    let stores: Vec<_> = p
        .graph
        .live_ids()
        .filter(|&id| matches!(p.graph.kind(id), NodeKind::Store { .. }))
        .collect();
    assert!(crit.node_counts[stores[0].index()] >= 1, "the loop store is on the path");
    // The memory timeline saw the LSQ occupied, all at the L1/perfect level.
    assert!(crit.timeline.lsq_high_water >= 1);
    assert!(crit.timeline.occupancy_cycles.iter().skip(1).sum::<u64>() > 0);
    assert!(crit.timeline.level_high_water[0] >= 1);
    assert_eq!(crit.timeline.level_high_water[1], 0, "perfect memory never reaches L2");

    let dot = p.to_dot_crit(crit);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("fillcolor=\"0.083"), "orange path fill present");
    assert!(dot.contains(" cy\""), "critical edges labelled with cycles");

    // Same program, same input: the summary is deterministic.
    let r2 = p
        .simulate(
            &[8],
            &SimConfig { profile: true, trace: true, critpath: true, ..SimConfig::perfect() },
        )
        .unwrap();
    assert_eq!(r.crit, r2.crit);
}

/// A deadlocked circuit names the blocked nodes and the input class each
/// one is missing, both in the error itself and in `diagnose`'s dump.
#[test]
fn deadlock_reports_blocked_nodes_and_missing_inputs() {
    use cfgir::objects::ObjectSet;
    use cfgir::types::{BinOp, Type};
    use cfgir::Module;
    use pegasus::{Src, VClass};

    // A return whose token never arrives: an eta with a dynamically false
    // predicate swallows it (same shape as the ashsim unit test).
    let module = Module::new();
    let mut g = pegasus::Graph::new();
    let t = g.add_node(NodeKind::InitialToken, 0, 0);
    let ptrue = g.const_bool(true, 0);
    let addr = g.add_node(NodeKind::Const { value: 0x1000, ty: Type::int(64) }, 0, 0);
    let l = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
    g.connect(Src::of(addr), l, 0);
    g.connect(Src::of(ptrue), l, 1);
    g.connect(Src::of(t), l, 2);
    let zero = g.add_node(NodeKind::Const { value: 0, ty: Type::int(32) }, 0, 0);
    let lt = g.add_node(NodeKind::BinOp { op: BinOp::Lt, ty: Type::Bool }, 2, 0);
    g.connect(Src::of(l), lt, 0);
    g.connect(Src::of(zero), lt, 1);
    let eta = g.add_node(NodeKind::Eta { vc: VClass::Token, ty: Type::Bool }, 2, 0);
    g.connect(Src::token_of_load(l), eta, 0);
    g.connect(Src::of(lt), eta, 1);
    let ret = g.add_node(NodeKind::Return { has_value: false, ty: Type::Void }, 2, 0);
    g.connect(Src::of(ptrue), ret, 0);
    g.connect(Src::of(eta), ret, 1);

    let mut machine = ashsim::Machine::new(&module, ashsim::MemSystem::Perfect { latency: 2 });
    let err = ashsim::simulate(&g, &mut machine, &[], &SimConfig::perfect()).unwrap_err();
    let cash::SimError::Deadlock { cycle, ref blocked } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(cycle > 0);
    assert!(!blocked.is_empty(), "deadlock must name the stuck nodes");
    let ret_block = blocked.iter().find(|b| b.node == ret).expect("return is stuck");
    assert!(
        ret_block.missing.iter().any(|&(_, c)| c == VClass::Token),
        "the return is missing its token input: {ret_block}"
    );
    // The report names the operation and its hyperblock, not just the id.
    assert_eq!(ret_block.op, "ret");
    assert_eq!(ret_block.hb, 0);
    let msg = err.to_string();
    assert!(msg.contains("dataflow deadlock at cycle"), "{msg}");
    assert!(msg.contains("waiting on"), "{msg}");
    assert!(msg.contains("(ret hb0)"), "blocked nodes carry kind + hyperblock: {msg}");

    // `diagnose` adds FIFO depths and the flight-recorder tail — the last
    // firings before the stall, cycle-stamped — on top of the same report.
    let mut machine = ashsim::Machine::new(&module, ashsim::MemSystem::Perfect { latency: 2 });
    let (e2, dump) = ashsim::diagnose(&g, &mut machine, &[], &SimConfig::perfect()).unwrap_err();
    assert_eq!(e2, err);
    assert!(dump.contains("fifo lens"), "{dump}");
    assert!(dump.contains("recent firings"), "firing tail in the dump: {dump}");
    assert!(dump.contains("cycle "), "firings carry cycle stamps: {dump}");
    assert!(dump.contains("[load]"), "firings carry node kinds: {dump}");
}

/// One merged Perfetto timeline shows the compiler (per-pass spans in
/// microseconds) and the simulated circuit (slices in cycles) for a
/// Figure 19 kernel — the PR 6 acceptance artifact.
#[test]
fn merged_trace_shows_compiler_and_simulator_on_one_timeline() {
    let w = workloads::by_name("g721_e").expect("fig19 kernel present");
    let p = w.compile(OptLevel::Full).unwrap();
    let cfg = SimConfig { profile: true, trace: true, ..SimConfig::perfect() };
    let r = p.simulate(&[8], &cfg).unwrap();
    let merged = p.merged_trace_json(r.trace.as_ref().expect("tracing enabled"));

    // Still one well-formed chrome trace...
    assert!(merged.starts_with("{\"traceEvents\":["));
    assert_eq!(merged.matches("\"traceEvents\"").count(), 1);
    // ...with the compiler's process track and its per-stage spans...
    assert!(merged.contains("\"name\":\"compiler (us)\""), "compiler track named");
    assert!(merged.contains("\"name\":\"compile\""), "root compile span present");
    assert!(merged.contains("\"name\":\"frontend.parse\""), "frontend spans present");
    let pass_spans = p.spans.iter().filter(|s| s.name.starts_with("opt.")).count();
    assert!(pass_spans > 0, "per-pass optimizer spans captured: {:?}", p.spans);
    // ...next to the simulator's firing slices on the same timeline.
    assert!(merged.contains("\"cat\":\"fire\""), "simulator slices survive the merge");
    assert!(merged.contains("\"ph\":\"C\""), "LSQ counter track survives the merge");
}
