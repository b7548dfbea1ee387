//! The three workloads and what one op of each does.
//!
//! Every op derives its inputs from the benchmark seed and its op index
//! alone, so a run is a deterministic sequence of ops whatever its
//! length. Each op checks its own outputs and folds them into a digest.
//! Why each workload exists is recorded in `README.md` beside this crate.

use crate::trace::{span, Trace};
use aimes::journal::RunJournal;
use aimes::middleware::{run_application, RunError, RunOptions, RunResult};
use aimes::{paper, ExperimentConfig};
use aimes_bench::alloc;
use aimes_cluster::{Cluster, ClusterConfig};
use aimes_fault::{
    CascadeSpec, DomainSpec, EvacuationSpec, FaultSpec, OutageKind, OutageSpec, RecoveryPolicy,
};
use aimes_sim::{Profiler, SimDuration, SimRng, SimTime, Simulation, Tracer};
use aimes_skeleton::{bag_of_tasks, paper_task_counts, SkeletonApp, SkeletonConfig};
use aimes_strategy::{ExecutionStrategy, ResourceSelection, WalltimePolicy};
use aimes_workload::{BackgroundWorkload, Distribution, WorkloadConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_table1", "deep_queue", "chaos_journal"];

/// FNV-1a over 64-bit words: the fold behind every output digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub const EMPTY: Digest = Digest(0xcbf2_9ce4_8422_2325);

    pub fn word(self, v: u64) -> Digest {
        let mut h = self.0;
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Digest(h)
    }

    pub fn secs(self, d: SimDuration) -> Digest {
        self.word(d.as_secs().to_bits())
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::EMPTY
    }
}

/// What one op hands back to the harness.
pub struct OpOutcome {
    /// The op's simulated outputs, folded.
    pub digest: Digest,
    /// Heap allocations made inside the simulation call itself.
    pub sim_allocs: u64,
    /// The first broken invariant, or the run's error; `None` when the
    /// op's outputs are correct.
    pub error: Option<String>,
}

pub trait Workload {
    /// Ops per round. A run measures whole rounds, so every run sees the
    /// same mix of op shapes.
    fn round(&self) -> usize;
    /// Ops per host second on the reference host (2 vCPU x86-64 VM): a
    /// run of `--seconds S` makes `S` times this many ops, so its op set,
    /// and with it every count and the peak RSS, depends on the seed and
    /// `S` only, never on how fast the host happens to be.
    fn ops_per_sec(&self) -> f64;
    /// Run op `index`; with a trace, record its spans and counters.
    fn op(&self, index: usize, trace: Option<&mut Trace>) -> OpOutcome;
}

/// Build a workload's inputs. Returns the workload and the milliseconds
/// spent in `SkeletonApp::generate`, or `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, f64)> {
    Some(match name {
        "paper_table1" => {
            let (w, ms) = PaperTable1::new(seed);
            (Box::new(w), ms)
        }
        "deep_queue" => (Box::new(DeepQueue::new(seed)), 0.0),
        "chaos_journal" => {
            let (w, ms) = ChaosJournal::new(seed);
            (Box::new(w), ms)
        }
        _ => return None,
    })
}

/// Generate a skeleton once, as the middleware will, to learn how many
/// units a run of it must complete.
fn expected_units(config: &SkeletonConfig, seed: u64, ms: &mut f64) -> usize {
    let mut rng = SimRng::new(seed).fork("perfbench.skeleton");
    let start = Instant::now();
    let app = SkeletonApp::generate(config, &mut rng).expect("benchmark skeletons are valid");
    *ms += start.elapsed().as_secs_f64() * 1e3;
    app.tasks().len()
}

/// `run_application`, with its allocations counted and, when traced, the
/// profiler attached and a span around the call.
fn run_app(
    resources: &[ClusterConfig],
    app: &SkeletonConfig,
    strategy: &ExecutionStrategy,
    mut options: RunOptions,
    trace: &mut Option<&mut Trace>,
) -> (Result<RunResult, RunError>, u64) {
    options.profiler = trace.as_ref().map(|t| t.profiler.clone());
    let before = alloc::snapshot();
    let result = span(trace, "bench.aimes.run_application", || {
        run_application(resources, app, strategy, &options)
    });
    (result, alloc::snapshot().since(&before).allocs)
}

/// Fold a run's result and check `units_done` against the skeleton.
fn fold_run(
    digest: Digest,
    result: &Result<RunResult, RunError>,
    units: usize,
) -> (Digest, Option<String>) {
    match result {
        Ok(r) => {
            let b = &r.breakdown;
            let d = [b.ttc, b.tw, b.tx, b.ts, b.tr, b.td]
                .into_iter()
                .fold(digest, Digest::secs)
                .word(r.units_done as u64)
                .word(r.units_failed as u64);
            let error = (r.units_done != units)
                .then(|| format!("units_done {} != n_tasks {units}", r.units_done));
            (d, error)
        }
        Err(e) => (digest.word(u64::MAX), Some(format!("run failed: {e}"))),
    }
}

/// Regenerate the background stream a cluster consumed up to `until`,
/// through the workload generator, on the stream `Cluster::install`
/// forks. Returns the job count.
fn generate_background(cfg: &ClusterConfig, seed: u64, until: SimTime) -> u64 {
    let Some(w) = &cfg.workload else {
        return 0;
    };
    let rng = SimRng::new(seed).fork(&format!("cluster.{}.background", cfg.name));
    let mut generator = BackgroundWorkload::new(w.clone(), cfg.total_cores, rng);
    let initial = generator.initial_condition(cfg.initial_backlog_factor);
    let horizon = until.min(SimTime::ZERO + cfg.background_horizon);
    (initial.len() + generator.generate_until(horizon).len()) as u64
}

// ---------------------------------------------------------------- paper_table1

/// Table I experiments 1-4 over the paper's nine sizes on the paper
/// testbed; round `r` is repetition `r` of all 36 (experiment, size) runs.
struct PaperTable1 {
    configs: Vec<ExperimentConfig>,
    /// (experiment index, n_tasks, skeleton, expected units) in op order.
    runs: Vec<(usize, u32, SkeletonConfig, usize)>,
}

impl PaperTable1 {
    fn new(seed: u64) -> (Self, f64) {
        let configs: Vec<ExperimentConfig> = (1..=4)
            .map(|id| paper::experiment(id, 1, seed, None))
            .collect();
        let mut ms = 0.0;
        let mut runs = Vec::new();
        for (e, cfg) in configs.iter().enumerate() {
            for n in paper_task_counts() {
                let skeleton = cfg.skeleton(n);
                let units = expected_units(&skeleton, cfg.run_seed(n, 0), &mut ms);
                runs.push((e, n, skeleton, units));
            }
        }
        (PaperTable1 { configs, runs }, ms)
    }
}

impl Workload for PaperTable1 {
    fn ops_per_sec(&self) -> f64 {
        18.0
    }

    fn round(&self) -> usize {
        self.runs.len()
    }

    fn op(&self, index: usize, mut trace: Option<&mut Trace>) -> OpOutcome {
        let (e, n, skeleton, units) = &self.runs[index % self.runs.len()];
        let cfg = &self.configs[*e];
        let seed = cfg.run_seed(*n, index / self.runs.len());
        let submit_at = cfg.submit_instant(seed);
        let options = RunOptions {
            seed,
            submit_at,
            ..Default::default()
        };
        let (result, sim_allocs) =
            run_app(&cfg.resources, skeleton, &cfg.strategy, options, &mut trace);
        let (digest, error) = fold_run(Digest::EMPTY.word(seed), &result, *units);
        if let (Some(t), Ok(r)) = (trace, &result) {
            let end = submit_at + r.breakdown.ttc;
            let jobs = t.span("bench.workload.generate", || {
                cfg.resources
                    .iter()
                    .map(|c| generate_background(c, seed, end))
                    .sum::<u64>()
            });
            t.workload_jobs += jobs;
        }
        OpOutcome {
            digest,
            sim_allocs,
            error,
        }
    }
}

// ------------------------------------------------------------------ deep_queue

/// Simulated hours per deep_queue op.
const DEEP_QUEUE_HOURS: f64 = 6.0;

/// The shapes a bundle-guided planner probes: pilot candidates of varied
/// width and walltime, each evaluated twice per decision instant.
const PROBE_SHAPES: [(u32, f64); 8] = [
    (16, 0.5),
    (32, 1.0),
    (64, 1.0),
    (96, 2.0),
    (128, 2.0),
    (256, 4.0),
    (512, 8.0),
    (1024, 12.0),
];

/// One oversubscribed 2048-core cluster with no middleware and a client
/// probing `estimate_wait` every ten simulated minutes; one op is one
/// fresh-seed simulation over a fixed horizon.
struct DeepQueue {
    seed: u64,
    config: ClusterConfig,
    horizon: SimTime,
}

impl DeepQueue {
    fn new(seed: u64) -> Self {
        let mut config = ClusterConfig::test("saturation", 2048);
        // Many small, short jobs at full subscription keep the queue deep,
        // so every dispatch pass and wait estimate replays a long queue.
        let mut workload = WorkloadConfig::production_like();
        workload.target_utilization = 1.05;
        workload.size_dist = Distribution::PowerOfTwo {
            lo_exp: 0,
            hi_exp: 5,
        };
        // Median e^6.4 ≈ 600 s; sigma 1.0 keeps a visible tail.
        workload.runtime_dist = Distribution::LogNormal {
            mu: 6.4,
            sigma: 1.0,
        };
        config.workload = Some(workload);
        config.initial_backlog_factor = 2.0;
        config.background_horizon = SimDuration::from_hours(DEEP_QUEUE_HOURS);
        DeepQueue {
            seed,
            config,
            horizon: SimTime::ZERO + SimDuration::from_hours(DEEP_QUEUE_HOURS),
        }
    }
}

/// What the probing client sees over one op.
#[derive(Default)]
struct Probe {
    digest: Digest,
    calls: u64,
    queued_sum: u64,
    ticks: u64,
    violation: Option<String>,
    /// Per-call `estimate_wait` wall time in µs, kept only when traced.
    wait_us: Option<Vec<f64>>,
}

fn schedule_probe_tick(
    sim: &mut Simulation,
    cluster: &Cluster,
    horizon: SimTime,
    probe: &Rc<RefCell<Probe>>,
    profiler: &Profiler,
) {
    let at = sim.now() + SimDuration::from_secs(600.0);
    if at > horizon {
        return;
    }
    let cluster = cluster.clone();
    let probe = Rc::clone(probe);
    let profiler = profiler.clone();
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        {
            let mut p = probe.borrow_mut();
            let mut d = p.digest;
            for &(cores, hours) in &PROBE_SHAPES {
                // Planners evaluate each candidate twice (ranking, then
                // sizing); the repeat hits the cluster's memo.
                for _ in 0..2 {
                    let walltime = SimDuration::from_hours(hours);
                    let start = Instant::now();
                    let wait = {
                        let _scope = profiler.scope("bench.cluster.estimate_wait");
                        cluster.estimate_wait(now, cores, walltime)
                    };
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    if let Some(v) = p.wait_us.as_mut() {
                        v.push(us);
                    }
                    d = match wait {
                        Some(w) => d.secs(w),
                        None => d.word(u64::MAX),
                    };
                    p.calls += 1;
                }
            }
            let m = cluster.metrics(now);
            if m.free_cores > m.total_cores && p.violation.is_none() {
                p.violation = Some(format!(
                    "free_cores {} > total_cores {} at t={:.0}s",
                    m.free_cores,
                    m.total_cores,
                    now.as_secs()
                ));
            }
            p.digest = d.word(m.queued_jobs as u64).word(u64::from(m.free_cores));
            p.queued_sum += m.queued_jobs as u64;
            p.ticks += 1;
        }
        schedule_probe_tick(sim, &cluster, horizon, &probe, &profiler);
    });
}

impl Workload for DeepQueue {
    fn ops_per_sec(&self) -> f64 {
        10.0
    }

    fn round(&self) -> usize {
        1
    }

    fn op(&self, index: usize, mut trace: Option<&mut Trace>) -> OpOutcome {
        let seed = SimRng::new(self.seed)
            .fork_indexed("deep_queue", index as u64)
            .root_seed();
        let profiler = trace
            .as_ref()
            .map_or_else(Profiler::disabled, |t| t.profiler.clone());
        let before = alloc::snapshot();
        let mut sim = Simulation::with_tracer(seed, Tracer::disabled());
        sim.attach_profiler(profiler.clone());
        let cluster = Cluster::new(self.config.clone());
        cluster.install(&mut sim);
        let probe = Rc::new(RefCell::new(Probe {
            wait_us: trace.as_ref().map(|_| Vec::new()),
            ..Probe::default()
        }));
        schedule_probe_tick(&mut sim, &cluster, self.horizon, &probe, &profiler);
        span(&mut trace, "bench.cluster.run_until", || {
            sim.run_until(self.horizon)
        });
        sim.publish_engine_stats();
        let events = sim.events_processed();
        let end = cluster.metrics(sim.now());
        drop(sim);
        drop(cluster);
        let probe = probe.take();
        let sim_allocs = alloc::snapshot().since(&before).allocs;

        let digest = Digest::EMPTY
            .word(seed)
            .word(events)
            .word(probe.digest.0)
            .word(probe.calls)
            .word(end.running_jobs as u64)
            .word(end.queued_jobs as u64)
            .word(u64::from(end.free_cores));
        let mut error = probe.violation;
        if end.free_cores > end.total_cores && error.is_none() {
            error = Some(format!(
                "free_cores {} > total_cores {} at the horizon",
                end.free_cores, end.total_cores
            ));
        }
        if let Some(t) = trace {
            t.estimate_wait_us.extend(probe.wait_us.unwrap_or_default());
            t.queued_jobs_sum += probe.queued_sum;
            t.queue_samples += probe.ticks;
            let jobs = t.span("bench.workload.generate", || {
                generate_background(&self.config, seed, self.horizon)
            });
            t.workload_jobs += jobs;
        }
        OpOutcome {
            digest,
            sim_allocs,
            error,
        }
    }
}

// --------------------------------------------------------------- chaos_journal

/// Tasks in the chaos_journal bag.
const CHAOS_TASKS: u32 = 512;

/// The `ablation-cascade` scenario: a permanent outage cascades through
/// the failure domain holding all three pilots. Op `2k` evacuates, op
/// `2k + 1` evacuates with 120 s checkpoints, both on pair seed `k`. Each
/// op runs with the journal on, encodes it, decodes it, verifies it and
/// analyzes the decoded copy.
struct ChaosJournal {
    seed: u64,
    pool: Vec<ClusterConfig>,
    app: SkeletonConfig,
    units: usize,
    strategy: ExecutionStrategy,
    faults: FaultSpec,
}

impl ChaosJournal {
    fn new(seed: u64) -> (Self, f64) {
        let pool = ["ca", "cb", "cc", "cd", "ce", "cf"]
            .iter()
            .map(|n| ClusterConfig::test(n, 4096))
            .collect();
        let app = bag_of_tasks(
            "cascade",
            CHAOS_TASKS,
            Distribution::Constant { value: 900.0 },
            1.0,
            0.002,
        );
        let mut ms = 0.0;
        let units = expected_units(&app, seed, &mut ms);
        let mut strategy = ExecutionStrategy::paper_late(3);
        strategy.selection = ResourceSelection::Fixed(vec!["ca".into(), "cb".into(), "cc".into()]);
        strategy.walltime = WalltimePolicy::FixedSecs(6 * 3600);
        let domain = |name: &str, members: [&str; 3]| DomainSpec {
            name: name.into(),
            members: members.iter().map(|m| m.to_string()).collect(),
        };
        let faults = FaultSpec {
            cascade: Some(CascadeSpec {
                domains: vec![
                    domain("zone-a", ["ca", "cb", "cc"]),
                    domain("zone-b", ["cd", "ce", "cf"]),
                ],
                trigger: OutageSpec {
                    resource: "ca".into(),
                    at_secs: 300.0,
                    duration_secs: 0.0,
                    kind: OutageKind::Permanent,
                },
                propagation_chance: 1.0,
                propagation_delay_secs: (120.0, 900.0),
            }),
            ..FaultSpec::none()
        };
        let w = ChaosJournal {
            seed,
            pool,
            app,
            units,
            strategy,
            faults,
        };
        (w, ms)
    }
}

impl Workload for ChaosJournal {
    fn ops_per_sec(&self) -> f64 {
        16.0
    }

    fn round(&self) -> usize {
        2
    }

    fn op(&self, index: usize, mut trace: Option<&mut Trace>) -> OpOutcome {
        let seed = SimRng::new(self.seed)
            .fork_indexed("cascade", (index / 2) as u64)
            .root_seed();
        let mut rng = SimRng::new(seed).fork("submit");
        let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
        let mut recovery = RecoveryPolicy::with_detection();
        recovery.evacuation = Some(EvacuationSpec::default());
        if index % 2 == 1 {
            recovery.checkpoint_interval = SimDuration::from_secs(120.0);
        }
        let journal = Rc::new(RefCell::new(RunJournal::new()));
        let options = RunOptions {
            seed,
            submit_at,
            faults: Some(self.faults.clone()),
            recovery: Some(recovery),
            journal: Some(journal.clone()),
            ..Default::default()
        };
        let (result, sim_allocs) =
            run_app(&self.pool, &self.app, &self.strategy, options, &mut trace);
        let (digest, mut error) = fold_run(Digest::EMPTY.word(seed), &result, self.units);

        let journal = journal.borrow();
        let text = span(&mut trace, "bench.journal.encode", || journal.to_jsonl());
        let (decoded, verified) = span(&mut trace, "bench.journal.decode", || {
            let decoded = RunJournal::from_jsonl(&text);
            let verified = decoded.verify();
            (decoded, verified)
        });
        let report = span(&mut trace, "bench.analytics.analyze", || {
            aimes_analytics::analyze(&decoded, aimes_analytics::DEFAULT_EPSILON_SECS)
        });
        let closure_ok = matches!(&report, Ok(r) if r.closure_holds());
        let problems = [
            verified
                .err()
                .map(|(seq, why)| format!("journal verify failed at {seq}: {why}")),
            (decoded.len() != journal.len()).then(|| {
                format!(
                    "decoded {} entries of {} encoded",
                    decoded.len(),
                    journal.len()
                )
            }),
            (!closure_ok).then(|| "analytics: TTC closure does not hold".to_string()),
        ];
        if error.is_none() {
            error = problems.into_iter().flatten().next();
        }
        if let Some(t) = trace {
            t.journal_entries += journal.len() as u64;
            t.journal_bytes += text.len() as u64;
            t.closure_ok += u64::from(closure_ok);
        }
        OpOutcome {
            digest: digest.word(text.len() as u64).word(journal.len() as u64),
            sim_allocs,
            error,
        }
    }
}
