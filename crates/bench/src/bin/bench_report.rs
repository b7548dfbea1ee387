//! The benchmark trajectory: fixed-seed performance campaigns over the
//! simulation substrate, emitted as a machine-readable report.
//!
//! The paper's evaluation rests on "more than 20,000 runs" of the virtual
//! laboratory; what bounds our repetition counts is the substrate's raw
//! speed. This binary pins that speed down so every PR has a baseline to
//! beat:
//!
//! ```text
//! bench-report [--quick] [--seed S] [--jobs N] [--out BENCH_sim.json]
//!              [--check BENCH_baseline.json] [--tolerance 0.25]
//!              [--only CAMPAIGN] [--emit-metrics DIR]
//!              [--campaign-out PATH] [--campaign-timing] [--progress]
//!              [--profile-out PATH]
//! ```
//!
//! Campaigns (all deterministic given `--seed`):
//!
//! * `engine_heartbeat` — event-engine throughput under the detector's
//!   heartbeat pattern: every beat schedules the next and replaces a
//!   far-future timeout (schedule + cancel), so the lazily-cancelled set
//!   exercises the queue's compaction path.
//! * `cluster_saturation` — an oversubscribed 2048-core machine with a
//!   deep initial backlog, run for half a simulated day while a
//!   bundle-style client issues periodic `estimate_wait` probes; this is
//!   the hot path every experiment spends its time in.
//! * `e2e_exp1` / `e2e_exp4` — whole middleware runs of the paper's
//!   experiments 1 (early binding) and 4 (late binding, 3 pilots) at
//!   paper sizes, sequentially, measured as runs/sec.
//! * `campaign_throughput` — hundreds of fixed-seed experiment-1 runs
//!   fanned across the worker pool via `run_experiment`; its
//!   `runs_per_sec` is the campaign engine's real fan-out throughput and
//!   scales with `--jobs` / host cores (the e2e campaigns deliberately
//!   don't).
//!
//! `--check` compares throughput metrics against a committed baseline and
//! exits 1 on a regression beyond the tolerance (CI perf-smoke). A bad
//! flag or value, or a baseline that cannot be read, prints one `error:`
//! line and exits 2 before any campaign runs.
//! `--campaign-out PATH` writes a `campaign.jsonl` manifest for the
//! `campaign_throughput` fan-out (one record per run, canonical job
//! order); `--campaign-timing` adds the volatile wall-clock fields and the
//! pool record; `--progress` draws the live status line on stderr.
//! `--emit-metrics DIR` additionally performs one telemetry-instrumented
//! experiment-1 run and writes `trace.json` (Perfetto-loadable),
//! `metrics.json`, and `metrics.csv` into DIR (CI telemetry-smoke).
//! `--profile-out PATH` attaches a per-run engine profiler to the
//! `campaign_throughput` fan-out and writes the merged `aimes-profile-v1`
//! document; host timing and allocator sections appear only with
//! `--campaign-timing` (without it the document is worker-count
//! invariant). Every report row also carries `peak_rss_bytes` (VmHWM
//! after the campaign) and `allocs_per_event` from the binary's counting
//! global allocator.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aimes::experiment::run_experiment_with;
use aimes::middleware::{run_application, RunOptions};
use aimes::paper;
use aimes_bench::alloc::{self as heap, CountingAlloc};
use aimes_bench::cli::{self, Flags};
use aimes_bench::Observatory;
use aimes_cluster::{Cluster, ClusterConfig};
use aimes_sim::{EventId, SimDuration, SimTime, Simulation, Tracer};
use aimes_workload::WorkloadConfig;
use serde::{Deserialize, Serialize};

/// Heap accounting for the perf trajectory: every allocation in this
/// binary is counted (relaxed atomics, peak via atomic max).
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// One campaign's measurements. Throughput fields are zero when the
/// campaign has no meaningful value for them.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CampaignStat {
    label: String,
    events: u64,
    runs: u64,
    wall_secs: f64,
    events_per_sec: f64,
    runs_per_sec: f64,
    /// Process peak RSS (`VmHWM`) sampled after the campaign — monotone
    /// across campaigns, so this is "peak so far", not a per-campaign
    /// footprint.
    peak_rss_bytes: u64,
    /// Allocator calls per engine event during the campaign (0 for
    /// run-based campaigns, which do not count events).
    allocs_per_event: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    seed: u64,
    quick: bool,
    campaigns: Vec<CampaignStat>,
    peak_rss_bytes: u64,
}

const USAGE: &str = "usage: bench-report [--quick] [--seed S] [--jobs N] [--out FILE] \
     [--check BASELINE] [--tolerance F] [--only CAMPAIGN] [--emit-metrics DIR] \
     [--campaign-out PATH] [--campaign-timing] [--progress] [--profile-out PATH]";

/// Peak resident set size of this process, in bytes (Linux `VmHWM`;
/// 0 where unavailable).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One heartbeat: fire, replace the chain's far-future timeout (the
/// schedule + cancel churn PR 2's detector produces all campaign), and
/// schedule the next beat.
fn beat(
    sim: &mut Simulation,
    timeouts: &Rc<RefCell<Vec<Option<EventId>>>>,
    chain: usize,
    remaining: u32,
    period: f64,
) {
    if let Some(ev) = timeouts.borrow_mut()[chain].take() {
        sim.cancel(ev);
    }
    if remaining == 0 {
        return;
    }
    let ev = sim.schedule_in(SimDuration::from_secs(period * 1000.0), |_| {});
    timeouts.borrow_mut()[chain] = Some(ev);
    let handles = Rc::clone(timeouts);
    sim.schedule_in(SimDuration::from_secs(period), move |sim| {
        beat(sim, &handles, chain, remaining - 1, period)
    });
}

fn engine_heartbeat(seed: u64, quick: bool) -> CampaignStat {
    let chains = 64usize;
    let beats: u32 = if quick { 2_000 } else { 20_000 };
    let mut sim = Simulation::with_tracer(seed, Tracer::disabled());
    let timeouts: Rc<RefCell<Vec<Option<EventId>>>> = Rc::new(RefCell::new(vec![None; chains]));
    for chain in 0..chains {
        // Slightly detuned periods so beats interleave instead of piling
        // on one instant.
        let period = 1.0 + chain as f64 * 0.013;
        beat(&mut sim, &timeouts, chain, beats, period);
    }
    let start = Instant::now();
    sim.run_to_completion();
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed();
    CampaignStat {
        label: "engine_heartbeat".to_string(),
        events,
        runs: 0,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        runs_per_sec: 0.0,
        peak_rss_bytes: 0,
        allocs_per_event: 0.0,
    }
}

/// The shapes a bundle-guided planner probes: pilot candidates of varied
/// width and walltime, several evaluated at each decision instant.
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

fn schedule_probe_tick(
    sim: &mut Simulation,
    cluster: &Cluster,
    horizon: SimTime,
    probes: &Rc<RefCell<u64>>,
) {
    let at = sim.now() + SimDuration::from_secs(600.0);
    if at > horizon {
        return;
    }
    let c = cluster.clone();
    let p = Rc::clone(probes);
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        for &(cores, wall_hours) in &PROBE_SHAPES {
            // Planners evaluate each candidate more than once per decision
            // (ranking, then sizing); repeat queries hit the memo.
            for _ in 0..2 {
                let _ = c.estimate_wait(now, cores, SimDuration::from_hours(wall_hours));
                *p.borrow_mut() += 1;
            }
        }
        schedule_probe_tick(sim, &c, horizon, &p);
    });
}

fn cluster_saturation(seed: u64, quick: bool) -> CampaignStat {
    let horizon_hours = if quick { 3.0 } else { 12.0 };
    let horizon = SimTime::from_secs(horizon_hours * 3600.0);
    let mut cfg = ClusterConfig::test("saturation", 2048);
    // A throughput-oriented machine: many small, short jobs at full
    // subscription, so the queue stays persistently deep and every
    // dispatch pass and wait estimate replays a long queue — the hot
    // path this campaign exists to measure.
    let mut workload = WorkloadConfig::production_like();
    workload.target_utilization = 1.05;
    workload.size_dist = aimes_workload::Distribution::PowerOfTwo {
        lo_exp: 0,
        hi_exp: 5,
    };
    workload.runtime_dist = aimes_workload::Distribution::LogNormal {
        // median e^6.4 ≈ 600 s ≈ 10 min; sigma 1.0 keeps a visible tail.
        mu: 6.4,
        sigma: 1.0,
    };
    cfg.workload = Some(workload);
    cfg.initial_backlog_factor = 2.0;
    cfg.background_horizon = SimDuration::from_secs(horizon_hours * 3600.0);
    let mut sim = Simulation::with_tracer(seed, Tracer::disabled());
    let cluster = Cluster::new(cfg);
    cluster.install(&mut sim);
    let probes = Rc::new(RefCell::new(0u64));
    schedule_probe_tick(&mut sim, &cluster, horizon, &probes);
    let start = Instant::now();
    sim.run_until(horizon);
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed();
    CampaignStat {
        label: "cluster_saturation".to_string(),
        events,
        runs: 0,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        runs_per_sec: 0.0,
        peak_rss_bytes: 0,
        allocs_per_event: 0.0,
    }
}

/// Sequential end-to-end runs of one paper experiment. Deliberately NOT
/// on the worker pool: this campaign measures per-run middleware speed,
/// so its wall time per run must not depend on host core count or
/// `--jobs` — fan-out throughput is `campaign_throughput`'s job.
fn e2e_experiment(id: u32, seed: u64, quick: bool) -> CampaignStat {
    let sizes: Vec<u32> = if quick {
        vec![64]
    } else {
        vec![256, 1024, 2048]
    };
    let reps = if quick { 2 } else { 4 };
    let cfg = paper::experiment(id, reps, seed, Some(sizes));
    let start = Instant::now();
    let mut runs = 0u64;
    for n in &cfg.task_counts {
        for rep in 0..cfg.repetitions {
            // The experiment runner's own per-run derivation (shared
            // helper, pinned by test in aimes::experiment).
            let seed = cfg.run_seed(*n, rep);
            let submit_at = cfg.submit_instant(seed);
            let r = run_application(
                &cfg.resources,
                &cfg.skeleton(*n),
                &cfg.strategy,
                &RunOptions {
                    seed,
                    submit_at,
                    ..Default::default()
                },
            );
            r.unwrap_or_else(|e| panic!("{} run failed: {e}", cfg.id));
            runs += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    CampaignStat {
        label: format!("e2e_exp{id}"),
        events: 0,
        runs,
        wall_secs: wall,
        events_per_sec: 0.0,
        runs_per_sec: runs as f64 / wall,
        peak_rss_bytes: 0,
        allocs_per_event: 0.0,
    }
}

/// Hundreds of small fixed-seed experiment-1 runs pushed through
/// `run_experiment` — i.e. through the real worker pool — measured as
/// runs/sec. This is the campaign engine's fan-out throughput: it scales
/// with `--jobs` / host cores, and the CI perf gate asserts that scaling
/// (jobs=4 must beat jobs=1 by ≥1.8× on a 4-core runner).
fn campaign_throughput(seed: u64, quick: bool, flags: &Flags) -> CampaignStat {
    let reps = if quick { 96 } else { 384 };
    let mut cfg = paper::experiment(1, reps, seed, Some(vec![64]));
    cfg.id = "campaign-throughput".into();
    let total_jobs = cfg.task_counts.len() * cfg.repetitions;
    let obs = Observatory::open(flags, &cfg.id, "campaign_throughput", total_jobs);
    let start = Instant::now();
    let result = run_experiment_with(&cfg, obs.hooks());
    let wall = start.elapsed().as_secs_f64();
    obs.close();
    let point = &result.points[0];
    assert!(
        point.errors.is_empty(),
        "campaign runs must succeed: {:?}",
        point.errors.first()
    );
    let runs = point.runs.len() as u64;
    CampaignStat {
        label: "campaign_throughput".to_string(),
        events: 0,
        runs,
        wall_secs: wall,
        events_per_sec: 0.0,
        runs_per_sec: runs as f64 / wall,
        peak_rss_bytes: 0,
        allocs_per_event: 0.0,
    }
}

/// One telemetry-instrumented experiment-1 run at the bench seed,
/// dumping the Chrome trace, metrics summary JSON, and gauge-timeline
/// CSV — the observability artifacts CI uploads next to the perf report.
fn emit_metrics(dir: &std::path::Path, seed: u64, quick: bool) {
    use aimes_sim::Telemetry;
    let cfg = paper::experiment(1, 1, seed, Some(vec![if quick { 64 } else { 256 }]));
    let n = cfg.task_counts[0];
    let run_seed = cfg.run_seed(n, 0);
    let submit_at = cfg.submit_instant(run_seed);
    let telemetry = Telemetry::new();
    let result = run_application(
        &cfg.resources,
        &cfg.skeleton(n),
        &cfg.strategy,
        &RunOptions {
            seed: run_seed,
            submit_at,
            telemetry: Some(telemetry.clone()),
            ..Default::default()
        },
    )
    .expect("instrumented run completes");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| cli::file_error("write", dir, e));
    cli::write_with(&dir.join("trace.json"), |w| telemetry.write_chrome_trace(w));
    cli::write_with(&dir.join("metrics.csv"), |w| telemetry.write_metrics_csv(w));
    let summary = result.metrics.expect("telemetry was attached");
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    cli::write(&dir.join("metrics.json"), format!("{json}\n"));
    eprintln!("wrote telemetry artifacts to {}", dir.display());
}

/// Compare `new` against `baseline`: a throughput metric more than
/// `tolerance` below the baseline is a regression.
fn check_regressions(new: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for n in &new.campaigns {
        let Some(b) = baseline.campaigns.iter().find(|c| c.label == n.label) else {
            continue;
        };
        let mut check = |metric: &str, new_v: f64, base_v: f64| {
            if base_v > 0.0 && new_v < base_v * (1.0 - tolerance) {
                failures.push(format!(
                    "{}: {metric} regressed {:.3} -> {:.3} ({:+.1}%)",
                    n.label,
                    base_v,
                    new_v,
                    (new_v / base_v - 1.0) * 100.0
                ));
            }
        };
        check("events_per_sec", n.events_per_sec, b.events_per_sec);
        check("runs_per_sec", n.runs_per_sec, b.runs_per_sec);
    }
    failures
}

fn main() {
    let mut check: Option<std::path::PathBuf> = None;
    let mut tolerance = 0.25;
    let mut only: Option<String> = None;
    let mut flags = Flags::default();
    cli::parse(USAGE, &mut flags, |arg, args| {
        match arg {
            "--check" => check = Some(args.value(arg).into()),
            "--tolerance" => tolerance = args.number(arg),
            "--only" => only = Some(args.value(arg)),
            _ => return false,
        }
        true
    });
    // Read the baseline before any campaign runs, so a bad path fails fast.
    let baseline = check.map(|path| {
        let baseline: BenchReport = serde_json::from_str(&cli::read(&path))
            .unwrap_or_else(|e| cli::fail(&format!("bad baseline {}: {e}", path.display())));
        (path, baseline)
    });
    let mut campaigns = Vec::new();
    for (label, run) in [
        (
            "engine_heartbeat",
            Box::new(engine_heartbeat) as Box<dyn Fn(u64, bool) -> CampaignStat + '_>,
        ),
        ("cluster_saturation", Box::new(cluster_saturation)),
        ("e2e_exp1", Box::new(|s, q| e2e_experiment(1, s, q))),
        ("e2e_exp4", Box::new(|s, q| e2e_experiment(4, s, q))),
        (
            "campaign_throughput",
            Box::new(|s, q| campaign_throughput(s, q, &flags)),
        ),
    ] {
        if only.as_deref().is_some_and(|o| o != label) {
            continue;
        }
        eprintln!("running campaign {label} ...");
        let alloc_before = heap::snapshot();
        let mut stat = run(flags.seed, flags.quick);
        let delta = heap::snapshot().since(&alloc_before);
        stat.peak_rss_bytes = peak_rss_bytes();
        stat.allocs_per_event = if stat.events > 0 {
            delta.allocs as f64 / stat.events as f64
        } else {
            0.0
        };
        eprintln!(
            "  {label}: {:.2}s wall, {:.0} events/s, {:.3} runs/s, {:.1} allocs/event",
            stat.wall_secs, stat.events_per_sec, stat.runs_per_sec, stat.allocs_per_event
        );
        campaigns.push(stat);
    }
    let report = BenchReport {
        schema: "aimes-bench-v1".to_string(),
        seed: flags.seed,
        quick: flags.quick,
        campaigns,
        peak_rss_bytes: peak_rss_bytes(),
    };
    let out = flags.out.as_deref().unwrap_or("BENCH_sim.json".as_ref());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    cli::write(out, format!("{json}\n"));
    eprintln!("wrote {}", out.display());

    if let Some(dir) = &flags.emit_metrics {
        emit_metrics(dir, flags.seed, flags.quick);
    }

    if let Some((path, baseline)) = &baseline {
        let failures = check_regressions(&report, baseline, tolerance);
        if failures.is_empty() {
            eprintln!(
                "no regression beyond {:.0}% against {}",
                tolerance * 100.0,
                path.display()
            );
        } else {
            for f in &failures {
                eprintln!("PERF REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}
