//! cashperf: the benchmark of the CASH pipeline, end to end and by layer.
//!
//! Four workloads (see [`Workload`]) drive the compiler and simulator only
//! through their public entry points: [`cash::Compiler`],
//! [`cash::Program::simulate_on`], the `workloads` kernel suite and the
//! `refinterp` program generator and oracle. A run builds its job list,
//! then executes whole rounds of jobs, each round in an order shuffled by
//! the seed, until the requested time is up, and checks every result.
//! [`run`] returns the end-to-end metrics with tracing off; [`trace::run`]
//! replays the same jobs one layer call at a time and returns the
//! per-layer metrics. README.md holds the metric catalog.

pub mod trace;

use cash::{Compiler, Machine, MemSystem, OptLevel, Program, SimConfig, SimResult};
use refinterp::{DiffOptions, Rng};
use std::hint::black_box;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Generator seeds of the `oracle-fuzz` pool. These are the seeds the
/// optimizer soundness tests sweep, so every program is known to agree with
/// the oracle at every level; a few seeds beyond them do not (README.md).
const FUZZ_POOL: Range<u64> = 0..300;
/// `oracle-fuzz` warms up on seeds disjoint from its pool.
const FUZZ_WARMUP: Range<u64> = 10_000..10_064;
/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Mixed into the seed so that seed 0 still shuffles.
const SHUFFLE_SALT: u64 = 0x5eed_cafe;
/// Run length when `--seconds` is not given (BENCHMARK.json `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

/// The end-to-end metrics and their units, in report order.
const E2E_METRICS: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p99", "ms"),
    ("sim_mfirings_per_s", "Mfirings/s"),
    ("sim_cycles", "cycles"),
    ("static_mem_ops", "count"),
    ("peak_rss_mb", "MB"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 19 experiment: every kernel at None, Medium and
    /// Full, each circuit simulated on perfect memory and on the cache
    /// hierarchy with 1, 2 and 4 LSQ ports, profile and critpath on.
    Fig19Sweep,
    /// Every kernel at Full, simulated four times on perfect memory with
    /// every recorder off: the executor's hot loop.
    SimBare,
    /// Generated programs at all four levels, one short simulation each,
    /// checked against the reference interpreter: compile-bound.
    OracleFuzz,
    /// Every kernel at Full, one simulation on the 2-port hierarchy with
    /// every recorder on, then the VCD and merged-trace exporters.
    DebugCapture,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig19Sweep, Workload::SimBare, Workload::OracleFuzz, Workload::DebugCapture];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig19Sweep => "fig19-sweep",
            Workload::SimBare => "sim-bare",
            Workload::OracleFuzz => "oracle-fuzz",
            Workload::DebugCapture => "debug-capture",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the job list from the first `sources` kernels or generated
    /// programs (all when `None`), computing each reference output. Returns
    /// the jobs and the mean host time of one reference computation, µs.
    fn jobs(self, fuzz_seeds: Range<u64>, sources: Option<usize>) -> (Vec<Job>, f64) {
        let limit = sources.unwrap_or(usize::MAX);
        let mut jobs: Vec<Job> = Vec::new();
        let mut reference = Duration::ZERO;
        let mut references = 0u32;
        let mut push = |name: String, source: &Rc<str>, level, sims, export| {
            jobs.push(Job { id: jobs.len(), name, source: source.clone(), level, sims, export });
        };
        if self == Workload::OracleFuzz {
            let opts = DiffOptions::default();
            let cfg = SimConfig {
                mem: MemSystem::Perfect { latency: 1 },
                max_cycles: opts.max_cycles,
                ..SimConfig::default()
            };
            for seed in fuzz_seeds.take(limit) {
                let source: Rc<str> = refinterp::render(&refinterp::gen::gen(seed)).into();
                let arg = (seed % 11) as i64;
                let t = Instant::now();
                let out = refinterp::run_source(&source, "main", &[arg], opts.fuel)
                    .unwrap_or_else(|e| panic!("the oracle refused generated program {seed}: {e}"));
                reference += t.elapsed();
                references += 1;
                let expect =
                    Rc::new(Observed { ret: out.ret, image: out.machine.image().to_vec() });
                for level in OptLevel::ALL {
                    let sim = Sim { cfg: cfg.clone(), arg, expect: Expect::Oracle(expect.clone()) };
                    push(format!("gen{seed}/{level}"), &source, level, vec![sim], false);
                }
            }
        } else {
            let systems = cash_bench::harness::memory_systems();
            let (levels, configs, export): (&[OptLevel], Vec<SimConfig>, bool) = match self {
                Workload::Fig19Sweep => (
                    &[OptLevel::None, OptLevel::Medium, OptLevel::Full],
                    systems.into_iter().map(|(_, cfg)| cfg).collect(),
                    false,
                ),
                Workload::SimBare => (&[OptLevel::Full], vec![SimConfig::perfect(); 4], false),
                _ => {
                    let (_, cache2p) = systems
                        .into_iter()
                        .find(|(name, _)| *name == "cache-2p")
                        .expect("the Figure 19 sweep has a cache-2p system");
                    (
                        &[OptLevel::Full],
                        vec![cache2p.with_observability(true, true).with_waves(true)],
                        true,
                    )
                }
            };
            for w in workloads::suite().into_iter().take(limit) {
                let source: Rc<str> = w.source.into();
                let arg = if export { (w.default_arg / 4).max(1) } else { w.default_arg };
                let t = Instant::now();
                let expect = black_box((w.reference)(black_box(arg)));
                reference += t.elapsed();
                references += 1;
                for &level in levels {
                    let sims = configs
                        .iter()
                        .map(|cfg| Sim { cfg: cfg.clone(), arg, expect: Expect::Ret(expect) })
                        .collect();
                    push(format!("{}/{level}", w.name), &source, level, sims, export);
                }
            }
        }
        (jobs, micros(reference) / f64::from(references.max(1)))
    }
}

/// The observables a generated program must reproduce.
struct Observed {
    ret: Option<i64>,
    image: Vec<u8>,
}

/// What a simulation must produce.
enum Expect {
    /// The kernel's reference implementation's result.
    Ret(i64),
    /// The oracle's return value and final memory image.
    Oracle(Rc<Observed>),
}

impl Expect {
    fn check(&self, r: &SimResult, machine: &Machine) -> Result<(), String> {
        match self {
            Expect::Ret(v) if r.ret == Some(*v) => Ok(()),
            Expect::Ret(v) => Err(format!("returned {:?}, reference {v}", r.ret)),
            Expect::Oracle(o) if r.ret != o.ret => {
                Err(format!("returned {:?}, oracle {:?}", r.ret, o.ret))
            }
            Expect::Oracle(o) if machine.image() != o.image.as_slice() => {
                Err("final memory image differs from the oracle's".into())
            }
            Expect::Oracle(_) => Ok(()),
        }
    }
}

/// One simulation of a job's circuit.
struct Sim {
    cfg: SimConfig,
    arg: i64,
    expect: Expect,
}

/// One job: compile a source at a level, then run its simulations.
struct Job {
    /// Position in the job list; failures are reported by it.
    id: usize,
    /// `kernel/level` or `gen<seed>/level`.
    name: String,
    source: Rc<str>,
    level: OptLevel,
    sims: Vec<Sim>,
    /// Export each simulation's waves as VCD and its trace as merged
    /// Chrome-trace JSON.
    export: bool,
}

/// What one job measured.
struct JobOut {
    compile: Duration,
    sim: Duration,
    total: Duration,
    fired: u64,
    cycles: u64,
    mem_ops: u64,
}

/// Runs `program` on a fresh machine, returning the machine for the
/// memory-image check.
fn simulate(program: &Program, cfg: &SimConfig, arg: i64) -> Result<(SimResult, Machine), String> {
    let mut machine = program.machine(cfg.mem.clone());
    let r = program.simulate_on(&mut machine, &[arg], cfg).map_err(|e| format!("simulate: {e}"))?;
    Ok((r, machine))
}

/// Renders a captured run's waves as VCD; returns its size in bytes.
fn export_vcd(program: &Program, r: &SimResult) -> Result<usize, String> {
    let waves = r.waves.as_ref().ok_or("no waves captured")?;
    Ok(black_box(waves.to_vcd(&program.graph)).len())
}

/// Renders a captured run's trace merged with the compiler's spans;
/// returns its size in bytes.
fn export_trace(program: &Program, r: &SimResult) -> Result<usize, String> {
    let trace = r.trace.as_ref().ok_or("no trace captured")?;
    Ok(black_box(program.merged_trace_json(trace)).len())
}

/// A job run through the public path.
struct Executed {
    program: Program,
    results: Vec<SimResult>,
    out: JobOut,
}

/// Runs a job: `Compiler::compile`, then per simulation
/// `Program::simulate_on` on a fresh machine with its result checked and,
/// for `debug-capture`, the exporters.
fn execute(job: &Job) -> Result<Executed, String> {
    let t0 = Instant::now();
    let program = Compiler::new()
        .level(job.level)
        .compile(&job.source)
        .map_err(|e| format!("compile: {e}"))?;
    let compile = t0.elapsed();
    let (mut sim, mut fired, mut cycles) = (Duration::ZERO, 0, 0);
    let mut results = Vec::with_capacity(job.sims.len());
    for s in &job.sims {
        let t = Instant::now();
        let (r, machine) = simulate(&program, &s.cfg, s.arg)?;
        sim += t.elapsed();
        s.expect.check(&r, &machine)?;
        fired += r.fired;
        cycles += r.cycles;
        if job.export {
            export_vcd(&program, &r)?;
            export_trace(&program, &r)?;
        }
        results.push(r);
    }
    let (loads, stores) = program.static_memory_ops();
    let mem_ops = (loads + stores) as u64;
    let out = JobOut { compile, sim, total: t0.elapsed(), fired, cycles, mem_ops };
    Ok(Executed { program, results, out })
}

/// Runs `f`, turning a panic into an error carrying its message.
fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Runs one job; a failure or panic becomes an error naming the job.
fn attempt(job: &Job) -> Result<JobOut, String> {
    catch(|| execute(job).map(|e| e.out)).map_err(|e| format!("job {} ({}): {e}", job.id, job.name))
}

/// A workload's job list, built and warmed up.
struct Setup {
    jobs: Vec<Job>,
    /// Mean host time of one reference-output computation, µs.
    reference_us: f64,
    /// Failures of the warm-up pass.
    warmup_failures: Vec<String>,
}

/// Builds the job list (from the first `sources` kernels or programs, all
/// when `None`), computes the reference outputs, and runs one untimed
/// warm-up pass: over the jobs themselves, or for `oracle-fuzz` over a
/// disjoint block of generated programs.
fn setup(workload: Workload, sources: Option<usize>) -> Setup {
    let (jobs, reference_us) = workload.jobs(FUZZ_POOL, sources);
    let warm = (workload == Workload::OracleFuzz).then(|| workload.jobs(FUZZ_WARMUP, sources).0);
    let warmup_failures =
        warm.as_ref().unwrap_or(&jobs).iter().filter_map(|j| attempt(j).err()).collect();
    Setup { jobs, reference_us, warmup_failures }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run: metrics plus failure accounting.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Printed alongside the metrics but not part of the JSON result
    /// (sample counts, fail rate).
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// One line per failed job or check.
    pub failures: Vec<String>,
}

impl Report {
    /// The value of a metric or note.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.notes).find(|m| m.name == name).map(|m| m.value)
    }

    /// One `workload metric value unit` line per metric and note.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.notes) {
            s.push_str(&format!("{} {} {} {}\n", self.workload.name(), m.name, m.value, m.unit));
        }
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// Prints failures to stderr, then the metric lines and, last, the JSON
    /// result to stdout.
    pub fn print(&self) {
        for f in self.failures.iter().take(50) {
            eprintln!("cashperf: {}: {f}", self.workload.name());
        }
        if self.failures.len() > 50 {
            eprintln!("cashperf: ... {} failures in all", self.failures.len());
        }
        print!("{}", self.lines());
        println!("{}", self.json());
    }
}

/// One timed round: every job once.
struct RoundOut {
    wall: Duration,
    sim: Duration,
    fired: u64,
    /// `(job, compile ms, total ms)` of each job that succeeded.
    jobs: Vec<(usize, f64, f64)>,
}

/// A fixed computation that uses no CASH code, timed after every round to
/// track the host's speed: integer hashing, a `BTreeMap` and a sort over
/// 20 000 values, about 1.8 ms on a 2-vCPU Xeon.
fn reference_work() -> u64 {
    let n = black_box(20_000u64);
    let mut v: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7).collect();
    let mut m = std::collections::BTreeMap::new();
    for (k, x) in v.iter().enumerate() {
        m.insert(x % 5003, k as u64);
    }
    v.sort_unstable();
    v.iter().zip(m.values()).map(|(a, b)| a ^ b).fold(0, u64::wrapping_add)
}

/// The host time `reference_work` takes on a host running at nominal
/// speed, ms. Host times are reported scaled to this speed.
const REFERENCE_MS: f64 = 1.8;

/// Sets up once, appending the host time it took to `times`.
fn timed_setup(workload: Workload, sources: Option<usize>, times: &mut Vec<f64>) -> Setup {
    let t = Instant::now();
    let s = setup(workload, sources);
    times.push(t.elapsed().as_secs_f64());
    s
}

/// Runs `workload` end to end with tracing off: set-up, then whole rounds
/// of jobs for at least `seconds` (at least one round), timing
/// `reference_work` after each. The other set-ups run between rounds,
/// spread over the run, so one slow stretch of the host does not decide
/// their median.
///
/// Host times are taken over the faster half of the rounds (a round runs
/// every job once, so rounds differ only by host noise), each job's time
/// being its median over those rounds, and are scaled by
/// `REFERENCE_MS` / median reference time, which cancels drift of the
/// host's speed between runs.
pub fn run(workload: Workload, seed: u64, seconds: f64, sources: Option<usize>) -> Report {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let setup = timed_setup(workload, sources, &mut setup_s);
    let jobs = &setup.jobs;
    let mut failures = setup.warmup_failures.clone();
    let mut rng = Rng::new(seed ^ SHUFFLE_SALT);
    let mut rounds: Vec<RoundOut> = Vec::new();
    let mut reference_ms = Vec::new();
    // Per job: (cycles, firings, static memory ops) of its first run; every
    // later run must repeat them.
    let mut first: Vec<Option<(u64, u64, u64)>> = vec![None; jobs.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let order = shuffled(jobs.len(), &mut rng);
        let mut round =
            RoundOut { wall: Duration::ZERO, sim: Duration::ZERO, fired: 0, jobs: Vec::new() };
        let t = Instant::now();
        for &i in &order {
            attempted += 1;
            let out = match attempt(&jobs[i]) {
                Ok(out) => out,
                Err(e) => {
                    failed += 1;
                    failures.push(e);
                    continue;
                }
            };
            round.jobs.push((i, millis(out.compile), millis(out.total)));
            round.fired += out.fired;
            round.sim += out.sim;
            let seen = (out.cycles, out.fired, out.mem_ops);
            match first[i] {
                None => first[i] = Some(seen),
                Some(f) if f != seen => failures.push(format!(
                    "job {i} ({}): (cycles, firings, memory ops) {seen:?} after {f:?}",
                    jobs[i].name
                )),
                Some(_) => {}
            }
        }
        round.wall = t.elapsed();
        rounds.push(round);
        let t = Instant::now();
        black_box(reference_work());
        reference_ms.push(millis(t.elapsed()));
        let due = seconds * setup_s.len() as f64 / SETUP_REPS as f64;
        if setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            failures.extend(timed_setup(workload, sources, &mut setup_s).warmup_failures);
        }
    }
    while setup_s.len() < SETUP_REPS {
        failures.extend(timed_setup(workload, sources, &mut setup_s).warmup_failures);
    }
    // > 1 on a host slower than nominal.
    let slowdown = median(&mut reference_ms) / REFERENCE_MS;
    let total_rounds = rounds.len();
    rounds.sort_by_key(|r| r.wall);
    rounds.truncate(total_rounds.div_ceil(2));
    let (wall, sim, fired) = rounds.iter().fold((Duration::ZERO, Duration::ZERO, 0), |acc, r| {
        (acc.0 + r.wall, acc.1 + r.sim, acc.2 + r.fired)
    });
    let samples: usize = rounds.iter().map(|r| r.jobs.len()).sum();
    let mut per_job = vec![(Vec::new(), Vec::new()); jobs.len()];
    for &(i, compile, total) in rounds.iter().flat_map(|r| &r.jobs) {
        per_job[i].0.push(compile / slowdown);
        per_job[i].1.push(total / slowdown);
    }
    let (mut compile_ms, mut job_ms): (Vec<f64>, Vec<f64>) = per_job
        .iter_mut()
        .filter(|(c, _)| !c.is_empty())
        .map(|(c, t)| (median(c), median(t)))
        .unzip();
    let per_round = |f: fn(&(u64, u64, u64)) -> u64| first.iter().flatten().map(f).sum::<u64>();
    let values = [
        median(&mut setup_s) / slowdown,
        ratio(samples as f64, wall.as_secs_f64()) * slowdown,
        median(&mut job_ms),
        quantile(&mut job_ms, 0.99),
        median(&mut compile_ms),
        quantile(&mut compile_ms, 0.99),
        ratio(fired as f64, sim.as_secs_f64()) / 1e6 * slowdown,
        per_round(|f| f.0) as f64,
        per_round(|f| f.2) as f64,
        peak_rss_mb(),
    ];
    let metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let notes = vec![
        Metric { name: "rounds", value: total_rounds as f64, unit: "count" },
        Metric { name: "measured_jobs", value: samples as f64, unit: "count" },
        Metric { name: "host_slowdown", value: slowdown, unit: "ratio" },
        Metric {
            name: "fail_rate",
            value: ratio(failed as f64, attempted as f64),
            unit: "failed/attempted",
        },
    ];
    Report { workload, metrics, notes, attempted, failed, correct: failures.is_empty(), failures }
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; every ratio guards its base.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// `0..n` in an order drawn from `rng` (Fisher-Yates).
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank quantile (0 for no samples); sorts `v`.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (0 for no samples); sorts `v`.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), MB; 0 where the kernel
/// does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command line, shared by both binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` runs every workload (`all`).
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Command-line synopsis.
pub const USAGE: &str =
    "usage: cashperf (--workload <fig19-sweep|sim-bare|oracle-fuzz|debug-capture> | all) \
     [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Names the first argument that is unknown, missing its value or
    /// malformed.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { workload: None, seed: 0, seconds: DEFAULT_SECONDS, trace: false };
        let (mut named, mut all) = (false, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "all" {
                all = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    out.workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
                    named = true;
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if named == all {
            return Err("give exactly one of --workload <name> or all".into());
        }
        Ok(out)
    }
}
