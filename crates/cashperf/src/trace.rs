//! The traced run: one workload's per-layer metrics.
//!
//! [`run`] replays each job one public layer call at a time, in the order
//! `Compiler::compile` makes them, and records a span around every call:
//! name, start, end, parent, job id and the allocations made inside. Each
//! replayed job is also run through `Compiler::compile` and
//! `Program::simulate_on`; a circuit or a result that differs is an
//! equivalence failure. The first replay round also runs every simulation
//! once more with all recorders on, for the modelled-design counts and the
//! exporters. After the replay phase the run switches each recorder, the
//! memory model and `obs` recording on and off over the workload's own jobs,
//! for the `*.overhead_pct` metrics.

use crate::{
    catch, execute, export_trace, export_vcd, metrics_json, micros, ratio, setup, shuffled,
    simulate, Executed, Job, Metric, Report, Workload, SHUFFLE_SALT,
};
use cash::{CacheParams, Compiler, Machine, MemStats, MemSystem, Program, SimConfig, SimResult};
use cfgir::AliasOracle;
use pegasus::Graph;
use refinterp::Rng;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// The per-layer metrics and their units, in report order. The
/// `opt.pass.<name>.us` entries name the passes as `OptReport::passes` does.
///
/// `.us` times are self times: per job for the compiler layers, per call
/// for `ashsim.machine`/`ashsim.simulate`, per export for the exporters.
/// Counts marked per round sum one pass over the job list and repeat
/// exactly; the others are per job.
const LAYER_METRICS: [(&str, &str); 72] = [
    ("minic.parse.us", "us"),
    ("minic.lower.us", "us"),
    ("minic.allocs", "count"),
    ("cfgir.inline.us", "us"),
    ("cfgir.pointsto.us", "us"),
    ("cfgir.alias.us", "us"),
    ("cfgir.allocs", "count"),
    ("pegasus.build.us", "us"),
    ("pegasus.verify.us", "us"),
    ("pegasus.nodes", "count"),
    ("pegasus.edges", "count"),
    ("pegasus.token_edges", "count"),
    ("pegasus.allocs", "count"),
    ("opt.manager.us", "us"),
    ("opt.pass.scalar.us", "us"),
    ("opt.pass.immutable.us", "us"),
    ("opt.pass.token_removal.us", "us"),
    ("opt.pass.load_store.us", "us"),
    ("opt.pass.store_store.us", "us"),
    ("opt.pass.merge_ops.us", "us"),
    ("opt.pass.dead_mem.us", "us"),
    ("opt.pass.loop_invariant.us", "us"),
    ("opt.pass.pipeline.us", "us"),
    ("opt.pass.prune_dead.us", "us"),
    ("opt.invocations", "count"),
    ("opt.useful_ratio", "ratio"),
    ("opt.rewrites", "count"),
    ("opt.allocs", "count"),
    ("lint.final.us", "us"),
    ("lint.diags", "count"),
    ("lint.allocs", "count"),
    ("core.glue.us", "us"),
    ("ashsim.machine.us", "us"),
    ("ashsim.simulate.us", "us"),
    ("ashsim.ns_per_firing", "ns"),
    ("ashsim.fixed_us", "us"),
    ("ashsim.firings", "count"),
    ("ashsim.deferrals", "count"),
    ("ashsim.useful_fire_ratio", "ratio"),
    ("ashsim.allocs_per_call", "count"),
    ("ashsim.allocs_per_kfiring", "count"),
    ("ashsim.mem.loads", "count"),
    ("ashsim.mem.stores", "count"),
    ("ashsim.l1.hit_ratio", "ratio"),
    ("ashsim.l2.hit_ratio", "ratio"),
    ("ashsim.tlb.hit_ratio", "ratio"),
    ("ashsim.mem_model.overhead_pct", "%"),
    ("ashsim.stall.data", "cycles"),
    ("ashsim.stall.pred", "cycles"),
    ("ashsim.stall.token", "cycles"),
    ("ashsim.stall.lsq", "cycles"),
    ("ashsim.stall.out", "cycles"),
    ("ashsim.crit.data", "cycles"),
    ("ashsim.crit.pred", "cycles"),
    ("ashsim.crit.token", "cycles"),
    ("ashsim.crit.lsq_order", "cycles"),
    ("ashsim.crit.mem", "cycles"),
    ("ashsim.crit.cache_miss", "cycles"),
    ("ashsim.crit.backpressure", "cycles"),
    ("ashsim.profile.overhead_pct", "%"),
    ("ashsim.critpath.overhead_pct", "%"),
    ("ashsim.trace.overhead_pct", "%"),
    ("ashsim.waves.overhead_pct", "%"),
    ("ashsim.vcd.us", "us"),
    ("ashsim.vcd.bytes", "bytes"),
    ("ashsim.trace_json.us", "us"),
    ("ashsim.trace_json.bytes", "bytes"),
    ("ashsim.wave.changes", "count"),
    ("obs.overhead_pct", "%"),
    ("refinterp.oracle.us", "us"),
    ("bench.traced_jobs_per_s", "jobs/s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Share of `seconds` spent replaying; the differential phase gets as much.
const PHASE_SHARE: f64 = 0.45;
/// Interleaved on/off rounds per differential measurement; each side
/// reports its fastest round.
const DIFF_ROUNDS: usize = 5;

/// One recorded span.
struct Span {
    name: &'static str,
    job: u32,
    /// Index of the enclosing span.
    parent: Option<u32>,
    /// Nanoseconds since the run's epoch.
    start_ns: u64,
    end_ns: u64,
    /// Allocations made while the span was open, children included.
    allocs: u64,
}

/// In-memory span recorder around the layer calls.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
    allocs: fn() -> u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, job: self.job, parent, start_ns: 0, end_ns: 0, allocs: 0 });
        self.open.push(id as u32);
        // Read the counters after the bookkeeping so it is not charged to
        // the span.
        self.spans[id].allocs = (self.allocs)();
        self.spans[id].start_ns = self.now();
        id
    }

    fn exit(&mut self) {
        let (end, allocs) = (self.now(), (self.allocs)());
        let id = self.open.pop().expect("a span is open") as usize;
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.enter(name);
        let r = f();
        self.exit();
        (r, id)
    }

    fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    fn dur(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }
}

/// The traced half of a job.
struct Replayed {
    program: Program,
    /// Diagnostics of the final lint.
    diags: usize,
    /// Each simulation's result and the index of its `ashsim.simulate` span.
    results: Vec<(SimResult, usize)>,
    /// Indices of the job's root span and of its compile span.
    root: usize,
    compile_span: usize,
}

/// `Compiler::compile` one public call at a time, in its order. The spans
/// the layers record themselves are captured as `Compiler::compile`
/// captures them, so the `Program` carries them into the merged trace.
fn replay_compile(t: &mut Tracer, job: &Job) -> Result<(Program, usize), String> {
    let cfg = job.level.config();
    let (compiled, spans) = obs::span::capture(|| -> Result<_, String> {
        let (ast, _) = t.call("minic.parse", || minic::parse(&job.source));
        let ast = ast.map_err(|e| format!("parse: {e}"))?;
        let (module, _) = t.call("minic.lower", || minic::lower::lower(&ast));
        let mut module = module.map_err(|e| format!("lower: {e}"))?;
        let (flat, _) = t.call("cfgir.inline", || cfgir::inline::inline_all(&module, "main"));
        let mut flat = flat.map_err(|e| format!("inline: {e}"))?;
        t.call("cfgir.pointsto", || cfgir::pointsto::recompute_may_sets(&mut flat));
        let entry = module.functions.iter().position(|f| f.name == "main").ok_or("no main")?;
        module.functions[entry] = flat;
        let (oracle, _) = t.call("cfgir.alias", || AliasOracle::new(&module));
        let f = &module.functions[entry];
        let opts = pegasus::BuildOptions { use_rw_sets: cfg.rw_sets_at_build };
        let (graph, _) = t.call("pegasus.build", || pegasus::build(f, &oracle, &opts));
        let mut graph = graph.map_err(|e| format!("build: {e}"))?;
        let (ok, _) = t.call("pegasus.verify", || pegasus::verify(&graph));
        ok.map_err(|e| format!("verify: {e}"))?;
        let static_unoptimized = graph.count_memory_ops();
        let unlinted = opt::OptConfig { lint: false, ..cfg };
        let (report, _) = t.call("opt", || opt::optimize(&mut graph, &oracle, &unlinted));
        let lint_cfg = opt::lint_config(&cfg);
        let (diags, _) = t.call("lint.final", || lint::lint(&graph, &oracle, &lint_cfg));
        let (ok, _) = t.call("pegasus.verify", || pegasus::verify(&graph));
        ok.map_err(|e| format!("verify: {e}"))?;
        drop(oracle);
        Ok((module, graph, report, static_unoptimized, diags.len()))
    });
    let (module, graph, report, static_unoptimized, diags) = compiled?;
    let entry = "main".to_string();
    Ok((Program { module, graph, report, entry, static_unoptimized, spans }, diags))
}

/// The traced half of a job under a root span: the replayed compile, then
/// each simulation on a machine built from the replayed module, then the
/// exporters.
fn replay(t: &mut Tracer, job: &Job) -> Result<Replayed, String> {
    t.job = job.id as u32;
    let root = t.enter("job");
    let body = |t: &mut Tracer| -> Result<Replayed, String> {
        let compile_span = t.enter("compile");
        let (program, diags) = replay_compile(t, job)?;
        t.exit();
        let mut results = Vec::with_capacity(job.sims.len());
        for s in &job.sims {
            let mem = s.cfg.mem.clone();
            let (mut machine, _) = t.call("ashsim.machine", || Machine::new(&program.module, mem));
            let (r, id) = t.call("ashsim.simulate", || {
                ashsim::simulate(&program.graph, &mut machine, &[s.arg], &s.cfg)
            });
            let r = r.map_err(|e| format!("simulate: {e}"))?;
            s.expect.check(&r, &machine)?;
            results.push((r, id));
        }
        if job.export {
            for (r, _) in &results {
                t.call("ashsim.vcd", || export_vcd(&program, r)).0?;
                t.call("ashsim.trace_json", || export_trace(&program, r)).0?;
            }
        }
        Ok(Replayed { program, diags, results, root, compile_span })
    };
    let replayed = body(t);
    t.close_all();
    replayed
}

/// Live nodes, edges, token edges and static memory operations.
fn shape(g: &Graph) -> [usize; 4] {
    let (loads, stores) = g.count_memory_ops();
    [g.live_count(), g.count_edges(), g.count_token_edges(), loads + stores]
}

/// Per-round sums of the replay's deterministic counts.
#[derive(Default)]
struct Round {
    nodes: u64,
    edges: u64,
    token_edges: u64,
    firings: u64,
    deferrals: u64,
    loads: u64,
    stores: u64,
    stalls: [u64; 5],
    crit: [u64; 7],
    wave_changes: u64,
    vcd: Exports,
    trace_json: Exports,
}

/// Totals of one exporter's calls.
#[derive(Default)]
struct Exports {
    time: Duration,
    bytes: u64,
    calls: u64,
}

impl Exports {
    /// Times one export of `r`.
    fn add(
        &mut self,
        program: &Program,
        r: &SimResult,
        export: fn(&Program, &SimResult) -> Result<usize, String>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let bytes = export(program, r)?;
        self.time += t.elapsed();
        self.bytes += bytes as u64;
        self.calls += 1;
        Ok(())
    }

    /// Mean µs and bytes per call.
    fn per_call(&self) -> (f64, f64) {
        let calls = self.calls as f64;
        (ratio(micros(self.time), calls), ratio(self.bytes as f64, calls))
    }
}

/// Accumulators over every replayed job.
#[derive(Default)]
struct Totals {
    jobs: u64,
    traced: Duration,
    untraced: Duration,
    ref_compile: Duration,
    ref_sim: Duration,
    /// Replayed compile time covered by layer calls, summed over jobs.
    layers: u64,
    pass_us: BTreeMap<&'static str, u64>,
    invocations: u64,
    useful: u64,
    rewrites: u64,
    diags: u64,
    /// Per simulate call: (firings, ns, allocations).
    calls: Vec<(f64, f64, f64)>,
}

/// The traced run's result.
pub struct Traced {
    pub report: Report,
    /// False when a replayed circuit or result differed from
    /// `Compiler::compile` + `Program::simulate_on`.
    pub equivalent: bool,
    /// The spans as Chrome trace-event JSON.
    pub chrome_json: String,
    /// Per-span-name aggregates and every metric, as JSON.
    pub layers_json: String,
}

/// Runs `workload` traced for about `seconds` (at least one replay round),
/// using the first `sources` kernels or programs (all when `None`).
/// `allocs` reads the process's allocation count; pass `|| 0` without a
/// counting allocator.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sources: Option<usize>,
    allocs: fn() -> u64,
) -> Traced {
    let setup = setup(workload, sources);
    let jobs = &setup.jobs;
    let mut failures = setup.warmup_failures.clone();
    let mut equivalent = true;
    let mut t =
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), job: 0, allocs };
    let mut rng = Rng::new(seed ^ SHUFFLE_SALT);
    let mut tot = Totals::default();
    let mut round = Round::default();
    let mut rounds = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds * PHASE_SHARE {
        for i in shuffled(jobs.len(), &mut rng) {
            attempted += 1;
            let first = (rounds == 0).then_some(&mut round);
            // Alternate which path runs first, so neither always finds the
            // caches warm.
            let replay_first = attempted % 2 == 0;
            let outcome = catch(|| Ok(replay_job(&mut t, &jobs[i], replay_first, &mut tot, first)));
            t.close_all();
            let error = match outcome {
                Ok(Ok(())) => None,
                Ok(Err((e, mismatch))) => Some((e, mismatch)),
                Err(panic) => Some((panic, false)),
            };
            if let Some((e, mismatch)) = error {
                failed += 1;
                equivalent &= !mismatch;
                failures.push(format!("job {i} ({}): {e}", jobs[i].name));
            }
        }
        rounds += 1;
    }
    let (diff, diff_failures) = differential(jobs, &tot, seconds * PHASE_SHARE);
    failures.extend(diff_failures);
    let values = metrics(&t, &tot, &round, &diff, setup.reference_us);
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: *values.get(name).unwrap_or_else(|| panic!("no value for {name}")),
            unit,
        })
        .collect();
    let layers_json = layers_json(workload, &t, &tot, &metrics);
    let report = Report {
        workload,
        metrics,
        notes: vec![
            Metric { name: "traced_jobs", value: tot.jobs as f64, unit: "count" },
            Metric { name: "diff_jobs", value: diff.jobs as f64, unit: "count" },
        ],
        attempted,
        failed,
        correct: failures.is_empty(),
        failures,
    };
    Traced { report, equivalent, chrome_json: chrome_json(&t), layers_json }
}

/// Replays one job traced and runs it through the public path untraced,
/// `replay_first` choosing the order, and compares the two. The error's
/// flag is set for an equivalence failure.
fn replay_job(
    t: &mut Tracer,
    job: &Job,
    replay_first: bool,
    tot: &mut Totals,
    round: Option<&mut Round>,
) -> Result<(), (String, bool)> {
    let fail = |e: String| (e, false);
    let (public, replayed) = if replay_first {
        let replayed = replay(t, job);
        (execute(job), replayed)
    } else {
        let public = execute(job);
        (public, replay(t, job))
    };
    let Executed { program, results: expected, out } = public.map_err(fail)?;
    let Replayed { program: replayed, diags, results, root, compile_span } =
        replayed.map_err(fail)?;
    if shape(&replayed.graph) != shape(&program.graph) {
        return Err((
            format!(
                "replayed circuit (nodes, edges, token edges, memory ops) {:?}, compiled {:?}",
                shape(&replayed.graph),
                shape(&program.graph)
            ),
            true,
        ));
    }
    for ((r, _), e) in results.iter().zip(&expected) {
        let (got, want) = ((r.ret, r.cycles, r.fired), (e.ret, e.cycles, e.fired));
        if got != want {
            return Err((
                format!("replayed (ret, cycles, fired) {got:?}, simulated {want:?}"),
                true,
            ));
        }
    }

    tot.jobs += 1;
    tot.traced += Duration::from_nanos(t.dur(root));
    tot.untraced += out.total;
    tot.ref_compile += out.compile;
    tot.ref_sim += out.sim;
    tot.layers += children_ns(t, compile_span);
    for (r, id) in &results {
        tot.calls.push((r.fired as f64, t.dur(*id) as f64, t.spans[*id].allocs as f64));
    }
    for p in &replayed.report.passes {
        *tot.pass_us.entry(p.name).or_default() += p.wall_micros;
        tot.invocations += 1;
        tot.useful += u64::from(p.rewrites > 0);
        tot.rewrites += p.rewrites as u64;
    }
    tot.diags += diags as u64;
    if let Some(round) = round {
        let [nodes, edges, token_edges, _] = shape(&replayed.graph);
        round.nodes += nodes as u64;
        round.edges += edges as u64;
        round.token_edges += token_edges as u64;
        for (r, _) in &results {
            round.firings += r.fired;
            round.deferrals += r.deferrals;
            round.loads += r.stats.loads;
            round.stores += r.stats.stores;
        }
        modelled(job, &program, round).map_err(fail)?;
    }
    Ok(())
}

/// Runs every simulation of `job` once more with all recorders on, adding
/// the modelled-design counts to `round`, and times the exporters on the
/// first one.
fn modelled(job: &Job, program: &Program, round: &mut Round) -> Result<(), String> {
    for (i, s) in job.sims.iter().enumerate() {
        let cfg =
            SimConfig { profile: true, critpath: true, trace: true, waves: true, ..s.cfg.clone() };
        let (r, _) = simulate(program, &cfg, s.arg)?;
        for n in &r.profile.as_ref().ok_or("no profile recorded")?.nodes {
            let stalls =
                [n.stalled_data, n.stalled_pred, n.stalled_token, n.stalled_lsq, n.stalled_output];
            for (sum, v) in round.stalls.iter_mut().zip(stalls) {
                *sum += v;
            }
        }
        let crit = r.crit.as_ref().ok_or("no critical path recorded")?;
        for (sum, v) in round.crit.iter_mut().zip(crit.classes) {
            *sum += v;
        }
        round.wave_changes += r.waves.as_ref().ok_or("no waves captured")?.num_changes();
        if i == 0 {
            round.vcd.add(program, &r, export_vcd)?;
            round.trace_json.add(program, &r, export_trace)?;
        }
    }
    Ok(())
}

/// Results of the differential phase.
#[derive(Default)]
struct Diff {
    /// Jobs each differential round ran.
    jobs: usize,
    /// Overhead of switching each thing on, %, by metric name.
    overhead: BTreeMap<&'static str, f64>,
    /// Memory statistics of one hierarchy round.
    hierarchy: MemStats,
}

/// A simulation config with every recorder off.
fn bare(c: &SimConfig) -> SimConfig {
    SimConfig { profile: false, trace: false, critpath: false, waves: false, ..c.clone() }
}

/// The differential phase: for each recorder, the memory model and `obs`
/// recording, interleaved rounds with it off and on over the first jobs of
/// the list, as many jobs as fit `budget_s` at the replay's measured cost.
fn differential(jobs: &[Job], tot: &Totals, budget_s: f64) -> (Diff, Vec<String>) {
    let n = tot.jobs.max(1) as f64;
    let (compile_s, sim_s) = (tot.ref_compile.as_secs_f64() / n, tot.ref_sim.as_secs_f64() / n);
    // Five simulation differentials at up to ~1.5x the bare cost, plus the
    // compile-and-simulate `obs` differential, each 2 x DIFF_ROUNDS rounds.
    let per_job = 2.0 * DIFF_ROUNDS as f64 * (5.0 * 1.5 * sim_s + compile_s + sim_s);
    let k = ((budget_s / per_job.max(1e-9)) as usize).clamp(1, jobs.len().max(1));
    let jobs = &jobs[..k.min(jobs.len())];
    type Cfg = fn(&SimConfig) -> SimConfig;
    let sims: [(&str, Cfg, Cfg); 5] = [
        ("ashsim.profile.overhead_pct", bare, |c| SimConfig { profile: true, ..bare(c) }),
        ("ashsim.critpath.overhead_pct", bare, |c| SimConfig { critpath: true, ..bare(c) }),
        ("ashsim.trace.overhead_pct", bare, |c| SimConfig { trace: true, ..bare(c) }),
        ("ashsim.waves.overhead_pct", bare, |c| SimConfig { waves: true, ..bare(c) }),
        (
            "ashsim.mem_model.overhead_pct",
            |c| SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..bare(c) },
            |c| SimConfig { mem: MemSystem::Hierarchy(CacheParams::default()), ..bare(c) },
        ),
    ];
    // A differential that fails reports 0 and a failure.
    let overhead = sims.iter().map(|s| (s.0, 0.0)).chain([("obs.overhead_pct", 0.0)]).collect();
    let mut diff = Diff { jobs: jobs.len(), overhead, ..Diff::default() };
    let mut failures = Vec::new();
    let programs: Vec<Program> = jobs
        .iter()
        .filter_map(|j| match Compiler::new().level(j.level).compile(&j.source) {
            Ok(p) => Some(p),
            Err(e) => {
                failures.push(format!("job {} ({}): compile: {e}", j.id, j.name));
                None
            }
        })
        .collect();
    if !failures.is_empty() {
        return (diff, failures);
    }
    for (name, off, on) in sims {
        let hierarchy_side = name == "ashsim.mem_model.overhead_pct";
        let mut side = |on_side: bool| -> Result<Duration, String> {
            let mut elapsed = Duration::ZERO;
            let mut stats = MemStats::default();
            for (job, program) in jobs.iter().zip(&programs) {
                for s in &job.sims {
                    let cfg = if on_side { on(&s.cfg) } else { off(&s.cfg) };
                    let t = Instant::now();
                    let (r, machine) = simulate(program, &cfg, s.arg)?;
                    elapsed += t.elapsed();
                    s.expect.check(&r, &machine)?;
                    add_stats(&mut stats, &r.stats);
                }
            }
            if on_side && hierarchy_side {
                diff.hierarchy = stats;
            }
            Ok(elapsed)
        };
        match min_of_rounds(&mut side) {
            Ok(pct) => {
                diff.overhead.insert(name, pct);
            }
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    let was_enabled = obs::enabled();
    let mut side = |on_side: bool| -> Result<Duration, String> {
        obs::set_enabled(on_side);
        let t = Instant::now();
        let r = jobs.iter().try_for_each(|j| execute(j).map(drop));
        let elapsed = t.elapsed();
        obs::set_enabled(was_enabled);
        r.map(|()| elapsed)
    };
    match min_of_rounds(&mut side) {
        Ok(pct) => {
            diff.overhead.insert("obs.overhead_pct", pct);
        }
        Err(e) => failures.push(format!("obs.overhead_pct: {e}")),
    }
    (diff, failures)
}

/// Interleaves `DIFF_ROUNDS` off/on round pairs, alternating which side
/// goes first, and returns the on side's fastest round over the off side's,
/// as a percentage overhead.
fn min_of_rounds(side: &mut dyn FnMut(bool) -> Result<Duration, String>) -> Result<f64, String> {
    let mut best = [Duration::MAX; 2];
    for r in 0..DIFF_ROUNDS {
        for on in [r % 2 == 1, r % 2 == 0] {
            let d = side(on)?;
            best[usize::from(on)] = best[usize::from(on)].min(d);
        }
    }
    Ok(100.0 * (ratio(best[1].as_secs_f64(), best[0].as_secs_f64()) - 1.0))
}

fn add_stats(sum: &mut MemStats, s: &MemStats) {
    sum.loads += s.loads;
    sum.stores += s.stores;
    sum.l1_hits += s.l1_hits;
    sum.l1_misses += s.l1_misses;
    sum.l2_hits += s.l2_hits;
    sum.l2_misses += s.l2_misses;
    sum.tlb_hits += s.tlb_hits;
    sum.tlb_misses += s.tlb_misses;
}

/// The summed durations of a span's direct children (recorded after it).
fn children_ns(t: &Tracer, id: usize) -> u64 {
    (id + 1..t.spans.len())
        .filter(|&c| t.spans[c].parent == Some(id as u32))
        .map(|c| t.dur(c))
        .sum()
}

/// Per span name: (calls, self ns, self allocations).
fn by_name(t: &Tracer) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child = vec![(0u64, 0u64); t.spans.len()];
    for (i, s) in t.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child[p as usize].0 += t.dur(i);
            child[p as usize].1 += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in t.spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t.dur(i) - child[i].0;
        e.2 += s.allocs - child[i].1;
    }
    out
}

/// Least-squares slope and intercept of `y` against `x`.
fn fit(points: impl Iterator<Item = (f64, f64)> + Clone) -> (f64, f64) {
    let n = points.clone().count() as f64;
    if n == 0.0 {
        return (0.0, 0.0);
    }
    let (sx, sy) = points.clone().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = points
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + (x - mx) * (y - my), b + (x - mx) * (x - mx)));
    let slope = ratio(sxy, sxx);
    (slope, my - slope * mx)
}

/// Every per-layer value, by metric name.
fn metrics(
    t: &Tracer,
    tot: &Totals,
    round: &Round,
    diff: &Diff,
    reference_us: f64,
) -> BTreeMap<&'static str, f64> {
    let names = by_name(t);
    let jobs = tot.jobs as f64;
    let stat = |name: &str| names.get(name).copied().unwrap_or_default();
    let per_job_us =
        |names: &[&str]| ratio(names.iter().map(|n| stat(n).1 as f64).sum::<f64>(), jobs) / 1e3;
    let allocs = |names: &[&str]| ratio(names.iter().map(|n| stat(n).2 as f64).sum(), jobs);
    let per_call_us = |name: &str| ratio(stat(name).1 as f64, stat(name).0 as f64) / 1e3;
    let pass_us_total: u64 = tot.pass_us.values().sum();
    let (ns_per_firing, fixed_ns) = fit(tot.calls.iter().map(|&(f, ns, _)| (f, ns)));
    let (allocs_per_firing, _) = fit(tot.calls.iter().map(|&(f, _, a)| (f, a)));
    let sim_calls = tot.calls.len() as f64;
    let h = &diff.hierarchy;
    let hit = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let (vcd_us, vcd_bytes) = round.vcd.per_call();
    let (json_us, json_bytes) = round.trace_json.per_call();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("minic.parse.us", per_job_us(&["minic.parse"])),
        ("minic.lower.us", per_job_us(&["minic.lower"])),
        ("minic.allocs", allocs(&["minic.parse", "minic.lower"])),
        ("cfgir.inline.us", per_job_us(&["cfgir.inline"])),
        ("cfgir.pointsto.us", per_job_us(&["cfgir.pointsto"])),
        ("cfgir.alias.us", per_job_us(&["cfgir.alias"])),
        ("cfgir.allocs", allocs(&["cfgir.inline", "cfgir.pointsto", "cfgir.alias"])),
        ("pegasus.build.us", per_job_us(&["pegasus.build"])),
        ("pegasus.verify.us", per_job_us(&["pegasus.verify"])),
        ("pegasus.nodes", round.nodes as f64),
        ("pegasus.edges", round.edges as f64),
        ("pegasus.token_edges", round.token_edges as f64),
        ("pegasus.allocs", allocs(&["pegasus.build", "pegasus.verify"])),
        ("opt.manager.us", per_job_us(&["opt"]) - ratio(pass_us_total as f64, jobs)),
        ("opt.invocations", ratio(tot.invocations as f64, jobs)),
        ("opt.useful_ratio", ratio(tot.useful as f64, tot.invocations as f64)),
        ("opt.rewrites", ratio(tot.rewrites as f64, jobs)),
        ("opt.allocs", allocs(&["opt"])),
        ("lint.final.us", per_job_us(&["lint.final"])),
        ("lint.diags", ratio(tot.diags as f64, jobs)),
        ("lint.allocs", allocs(&["lint.final"])),
        ("core.glue.us", ratio(micros(tot.ref_compile) - tot.layers as f64 / 1e3, jobs)),
        ("ashsim.machine.us", per_call_us("ashsim.machine")),
        ("ashsim.simulate.us", per_call_us("ashsim.simulate")),
        ("ashsim.ns_per_firing", ns_per_firing),
        ("ashsim.fixed_us", fixed_ns / 1e3),
        ("ashsim.firings", round.firings as f64),
        ("ashsim.deferrals", round.deferrals as f64),
        (
            "ashsim.useful_fire_ratio",
            ratio(round.firings as f64, (round.firings + round.deferrals) as f64),
        ),
        ("ashsim.allocs_per_call", ratio(tot.calls.iter().map(|c| c.2).sum(), sim_calls)),
        ("ashsim.allocs_per_kfiring", allocs_per_firing * 1e3),
        ("ashsim.mem.loads", round.loads as f64),
        ("ashsim.mem.stores", round.stores as f64),
        ("ashsim.l1.hit_ratio", hit(h.l1_hits, h.l1_misses)),
        ("ashsim.l2.hit_ratio", hit(h.l2_hits, h.l2_misses)),
        ("ashsim.tlb.hit_ratio", hit(h.tlb_hits, h.tlb_misses)),
        ("ashsim.vcd.us", vcd_us),
        ("ashsim.vcd.bytes", vcd_bytes),
        ("ashsim.trace_json.us", json_us),
        ("ashsim.trace_json.bytes", json_bytes),
        ("ashsim.wave.changes", round.wave_changes as f64),
        ("refinterp.oracle.us", reference_us),
        ("bench.traced_jobs_per_s", ratio(jobs, tot.traced.as_secs_f64())),
        (
            "bench.trace_overhead_pct",
            100.0 * (ratio(tot.traced.as_secs_f64(), tot.untraced.as_secs_f64()) - 1.0),
        ),
    ]);
    for (name, _) in LAYER_METRICS {
        if let Some(pass) = name.strip_prefix("opt.pass.").and_then(|n| n.strip_suffix(".us")) {
            let us = ratio(tot.pass_us.get(pass).copied().unwrap_or(0) as f64, jobs);
            m.insert(name, us);
        }
    }
    for (label, v) in ["data", "pred", "token", "lsq", "out"].iter().zip(round.stalls) {
        m.insert(layer_name(&format!("ashsim.stall.{label}")), v as f64);
    }
    for (class, v) in ashsim::EdgeClass::ALL.iter().zip(round.crit) {
        m.insert(layer_name(&format!("ashsim.crit.{}", class.label())), v as f64);
    }
    m.extend(&diff.overhead);
    m
}

/// The static name of a per-layer metric.
fn layer_name(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .0
}

/// The spans as Chrome trace-event JSON (one complete event per span,
/// microsecond timestamps).
fn chrome_json(t: &Tracer) -> String {
    let mut s = String::with_capacity(64 + t.spans.len() * 128);
    s.push_str("{\"traceEvents\":[");
    for (i, sp) in t.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"cashperf\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
             \"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{},\"allocs\":{}}}}}",
            sp.name,
            sp.start_ns as f64 / 1e3,
            t.dur(i) as f64 / 1e3,
            sp.job,
            sp.allocs,
        );
    }
    s.push_str("]}");
    s
}

/// Per-span-name totals (calls, self µs, self allocations) and every
/// per-layer metric, as JSON.
fn layers_json(workload: Workload, t: &Tracer, tot: &Totals, metrics: &[Metric]) -> String {
    let mut s =
        format!("{{\"workload\":\"{}\",\"jobs\":{},\"spans\":{{", workload.name(), tot.jobs);
    for (i, (name, (calls, ns, allocs))) in by_name(t).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{name}\":{{\"calls\":{calls},\"self_us\":{},\"allocs\":{allocs}}}",
            *ns as f64 / 1e3
        );
    }
    let _ = write!(s, "}},\"metrics\":{}}}", metrics_json(metrics));
    s
}
