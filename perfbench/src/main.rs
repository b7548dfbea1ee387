//! perfbench — the repository's benchmark of record.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1 [--ops N] [--out PATH]
//! ```
//!
//! One process runs one workload on one thread, calling the program's
//! public functions directly. It times building a workload's inputs and
//! one warm-up op, several times (`setup_s`), builds the inputs from the
//! seed, then runs as many ops as the reference host completes in
//! `--seconds` seconds, in whole rounds and never fewer than [`MIN_OPS`],
//! checking every op's outputs.
//!
//! With `--trace 1` it runs the first [`MIN_OPS`] ops untraced, then
//! replays them traced, with benchmark spans and the program's profiler
//! attached; the per-layer metrics come from that pair of passes.
//! End-to-end metrics only ever come from an untraced pass. `--ops N`
//! runs exactly N ops instead (the self-test's tiny length). The last
//! line of standard output is the result as one JSON object; `--out`
//! also writes it to a file, with the digest and every untraced op's
//! time. Any failed op, broken invariant or digest mismatch makes the
//! exit code nonzero.

mod trace;
mod workloads;

use aimes_bench::alloc::{self, CountingAlloc};
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{label, percentile, Trace};
use workloads::{Digest, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The seed whose output digests are recorded below.
const DEFAULT_SEED: u64 = 1;

/// Fewest ops in a run, so the p90 has at least ten samples beyond it.
/// Rounded up to whole rounds; the digest covers exactly these ops.
const MIN_OPS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A pass stops here even short of [`MIN_OPS`], so a slow host still
/// exits in time.
const MAX_PASS_SECS: f64 = 70.0;

/// Room for this many ops is reserved before a pass, so the harness's own
/// bookkeeping never allocates inside the leak measurement.
const MAX_OPS: usize = 1 << 16;

/// Digest of the first [`MIN_OPS`] ops (whole rounds) at [`DEFAULT_SEED`].
/// A change that only makes the program faster leaves these unchanged.
const RECORDED_DIGESTS: [(&str, u64); 3] = [
    ("paper_table1", 0xfca2_afe8_8efd_f96c),
    ("deep_queue", 0xa081_d1df_dd85_8bda),
    ("chaos_journal", 0xebef_71d9_c639_c309),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    ops: Option<usize>,
    out: Option<(PathBuf, File)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut ops = None;
    let mut out = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, not {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !workloads::NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload {v:?} (one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                workload = Some(v);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--ops" => {
                let n = usize::try_from(number(value()?)?).map_err(|e| e.to_string())?;
                if n == 0 || n > MAX_OPS {
                    return Err(format!("--ops takes 1..={MAX_OPS}, not {n}"));
                }
                ops = Some(n);
            }
            "--out" => {
                let path = PathBuf::from(value()?);
                let file = File::create(&path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                out = Some((path, file));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        ops,
        out,
    })
}

/// One pass over the workload's op sequence.
struct Pass {
    /// Host seconds per op.
    walls: Vec<f64>,
    /// Each op's output digest, to compare passes op by op.
    digests: Vec<u64>,
    failures: Vec<String>,
    /// Wall time of the whole pass, the harness span included.
    wall_secs: f64,
    sim_allocs: u64,
    /// Live-heap growth over the pass, after every op's outputs dropped.
    leaked_bytes: i64,
}

/// Run ops `0..ops`, stopping early only past [`MAX_PASS_SECS`].
fn run_pass(w: &dyn Workload, ops: usize, mut trace: Option<&mut Trace>) -> Pass {
    let mut pass = Pass {
        walls: Vec::with_capacity(MAX_OPS),
        digests: Vec::with_capacity(MAX_OPS),
        failures: Vec::new(),
        wall_secs: 0.0,
        sim_allocs: 0,
        leaked_bytes: 0,
    };
    let harness = trace.as_ref().map(|t| t.profiler.scope("harness"));
    let heap_before = alloc::snapshot();
    let start = Instant::now();
    for index in 0..ops {
        if start.elapsed().as_secs_f64() >= MAX_PASS_SECS {
            eprintln!("perfbench: warning: pass stopped after {index} of {ops} ops");
            break;
        }
        let op_start = Instant::now();
        let out = w.op(index, trace.as_deref_mut());
        pass.walls.push(op_start.elapsed().as_secs_f64());
        pass.digests.push(out.digest.0);
        pass.sim_allocs += out.sim_allocs;
        if let Some(e) = out.error {
            pass.failures.push(format!("op {index}: {e}"));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.fold_engine();
        }
    }
    let heap_after = alloc::snapshot();
    drop(harness);
    pass.wall_secs = start.elapsed().as_secs_f64();
    pass.leaked_bytes = heap_after.live_bytes as i64 - heap_before.live_bytes as i64;
    pass
}

/// VmHWM of this process in MiB; 0 where `/proc` does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Clone, Copy)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn end_to_end(pass: &Pass, setup_secs: &[f64]) -> Vec<Metric> {
    let mut ms: Vec<f64> = pass.walls.iter().map(|s| s * 1e3).collect();
    let busy_secs: f64 = pass.walls.iter().sum();
    vec![
        m(
            "runs_per_s",
            "1/s",
            ratio(pass.walls.len() as f64, busy_secs),
        ),
        m("run_ms_p50", "ms", percentile(&mut ms, 0.5)),
        m("run_ms_p90", "ms", percentile(&mut ms, 0.9)),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
        m("setup_s", "s", percentile(&mut setup_secs.to_vec(), 0.5)),
    ]
}

fn per_layer(plain: &Pass, traced: &Pass, trace: &Trace, skeleton_ms: f64) -> Vec<Metric> {
    let ops = traced.walls.len() as f64;
    let per_op = |v: f64| ratio(v, ops);
    let report = trace.profiler.report();
    let e = &trace.engine;
    let dispatch = label(&report, "engine.dispatch");
    let sched = label(&report, "cluster.scheduler");
    let info = label(&report, "bundle.info");
    let saga = label(&report, "saga.session");
    let um = label(&report, "unit.manager");
    let pm = label(&report, "pilot.manager");
    let plan = label(&report, "middleware.plan");
    let traced_op_ms: f64 = traced.walls.iter().sum::<f64>() * 1e3;
    let plain_op_ms: f64 = plain.walls.iter().sum::<f64>() * 1e3;
    let mut wait_us = trace.estimate_wait_us.clone();
    // Only middleware workloads call run_application; elsewhere the
    // simulation's allocations belong to the sim layer alone.
    let app_allocs = if trace.spans.contains_key("bench.aimes.run_application") {
        plain.sim_allocs as f64
    } else {
        0.0
    };
    let journal_calls = trace
        .spans
        .get("bench.analytics.analyze")
        .map_or(0, Vec::len);
    vec![
        m(
            "sim.events_per_run",
            "count",
            per_op(e.events_processed as f64),
        ),
        m(
            "sim.allocs_per_event",
            "allocs/event",
            ratio(plain.sim_allocs as f64, e.events_processed as f64),
        ),
        m(
            "sim.dispatch_self_ms_per_run",
            "ms",
            per_op(dispatch.self_ms),
        ),
        m(
            "sim.events_cancelled_per_run",
            "count",
            per_op(e.events_cancelled as f64),
        ),
        m(
            "sim.pending_events_hwm",
            "count",
            e.pending_events_hwm as f64,
        ),
        m(
            "workload.generate_ms_per_run",
            "ms",
            per_op(trace.span_ms("bench.workload.generate")),
        ),
        m(
            "workload.jobs_per_run",
            "count",
            per_op(trace.workload_jobs as f64),
        ),
        m(
            "cluster.scheduler_self_ms_per_run",
            "ms",
            per_op(sched.self_ms),
        ),
        m(
            "cluster.scheduler_calls_per_run",
            "count",
            per_op(sched.calls as f64),
        ),
        m("cluster.scheduler_us_p99", "us", sched.p99_us),
        m(
            "cluster.scheduler_share",
            "ratio",
            ratio(sched.self_ms, traced_op_ms),
        ),
        m(
            "cluster.run_until_ms_per_run",
            "ms",
            per_op(trace.span_ms("bench.cluster.run_until")),
        ),
        m(
            "cluster.estimate_wait_us_p50",
            "us",
            percentile(&mut wait_us, 0.5),
        ),
        m(
            "cluster.estimate_wait_us_p99",
            "us",
            percentile(&mut wait_us, 0.99),
        ),
        m(
            "cluster.estimate_wait_calls",
            "count",
            per_op(wait_us.len() as f64),
        ),
        m(
            "cluster.queued_jobs_mean",
            "count",
            ratio(trace.queued_jobs_sum as f64, trace.queue_samples as f64),
        ),
        m("bundle.info_self_ms_per_run", "ms", per_op(info.self_ms)),
        m("saga.session_self_ms_per_run", "ms", per_op(saga.self_ms)),
        m(
            "saga.session_calls_per_run",
            "count",
            per_op(saga.calls as f64),
        ),
        m(
            "pilot.unit_manager_self_ms_per_run",
            "ms",
            per_op(um.self_ms),
        ),
        m("pilot.unit_manager_us_p99", "us", um.p99_us),
        m(
            "pilot.pilot_manager_self_ms_per_run",
            "ms",
            per_op(pm.self_ms),
        ),
        m("pilot.pilot_manager_us_p99", "us", pm.p99_us),
        m("strategy.plan_ms_per_run", "ms", per_op(plan.self_ms)),
        m("skeleton.generate_ms", "ms", skeleton_ms),
        m(
            "aimes.run_application_ms_p50",
            "ms",
            trace.span_p50_ms("bench.aimes.run_application"),
        ),
        m(
            "aimes.allocs_per_run",
            "count",
            ratio(app_allocs, plain.walls.len() as f64),
        ),
        m(
            "journal.entries_per_run",
            "count",
            per_op(trace.journal_entries as f64),
        ),
        m(
            "journal.bytes_per_run",
            "B",
            per_op(trace.journal_bytes as f64),
        ),
        m(
            "journal.encode_ms_per_run",
            "ms",
            per_op(trace.span_ms("bench.journal.encode")),
        ),
        m(
            "journal.decode_ms_per_run",
            "ms",
            per_op(trace.span_ms("bench.journal.decode")),
        ),
        m(
            "analytics.analyze_ms_per_run",
            "ms",
            per_op(trace.span_ms("bench.analytics.analyze")),
        ),
        m(
            "analytics.closure_ok_ratio",
            "ratio",
            ratio(trace.closure_ok as f64, journal_calls as f64),
        ),
        m(
            "harness.trace_overhead_ratio",
            "ratio",
            ratio(traced_op_ms, plain_op_ms),
        ),
        m(
            "harness.trace_coverage",
            "ratio",
            ratio(report.attributed_secs(), traced.wall_secs),
        ),
        m(
            "leaked_kb_per_run",
            "KiB",
            ratio(plain.leaked_bytes as f64 / 1024.0, plain.walls.len() as f64),
        ),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", x.name, x.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(2);
        }
    };
    let name = args.workload.as_str();

    // Set-up: build the inputs and run one untimed warm-up op, several
    // times, on the reference seed: how long a set-up takes is then a
    // property of the code, not of the seed under test. Set-up `k` warms
    // up with op `k`, so the median does not hang on one op's cost.
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut failures = Vec::new();
    for k in 0..SETUP_REPS {
        let start = Instant::now();
        let (w, _) = workloads::setup(name, DEFAULT_SEED).expect("name was validated");
        if let Some(e) = w.op(k, None).error {
            failures.push(format!("warm-up op {k}: {e}"));
        }
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let (w, skeleton_ms) = workloads::setup(name, args.seed).expect("name was validated");
    let w = w.as_ref();

    let whole_rounds = |n: usize| n.div_ceil(w.round()) * w.round();
    let min_ops = whole_rounds(MIN_OPS);
    // The traced invocation measures the first MIN_OPS ops twice, so its
    // per-layer figures cover a fixed op set whatever `--seconds` is.
    let planned = match (args.ops, args.trace) {
        (Some(n), _) => n,
        (None, true) => min_ops,
        (None, false) => {
            whole_rounds((args.seconds as f64 * w.ops_per_sec()).ceil() as usize).max(min_ops)
        }
    };
    let plain = run_pass(w, planned, None);
    let ops = plain.walls.len();
    failures.extend(plain.failures.iter().cloned());
    let digest = plain.digests[..min_ops.min(ops)]
        .iter()
        .fold(Digest::EMPTY, |d, &x| d.word(x));
    if args.seed == DEFAULT_SEED && args.ops.is_none() {
        let recorded = RECORDED_DIGESTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d);
        if ops < min_ops {
            failures.push(format!(
                "only {ops} of {min_ops} ops ran; digest not checked"
            ));
        } else if recorded != Some(digest.0) {
            failures.push(format!(
                "digest {:016x} differs from the recorded {:016x}",
                digest.0,
                recorded.unwrap_or(0)
            ));
        }
    }

    let mut attempted = SETUP_REPS + ops;
    let metrics = if args.trace {
        let mut trace = Trace::new();
        let traced = run_pass(w, ops, Some(&mut trace));
        attempted += traced.walls.len();
        failures.extend(traced.failures.iter().cloned());
        let diverged = plain
            .digests
            .iter()
            .zip(&traced.digests)
            .position(|(a, b)| a != b);
        if let Some(i) = diverged {
            failures.push(format!("op {i}: traced outputs differ from untraced"));
        }
        let metrics = per_layer(&plain, &traced, &trace, skeleton_ms);
        let coverage = metrics
            .iter()
            .find(|x| x.name == "harness.trace_coverage")
            .map_or(0.0, |x| x.value);
        // The profiler's exclusive times tile the harness scope to within
        // 5% (the repository's profile-smoke gate).
        if (coverage - 1.0).abs() > 0.05 {
            failures.push(format!("trace coverage {coverage:.3} outside 0.95..=1.05"));
        }
        metrics
    } else {
        end_to_end(&plain, &setup_secs)
    };

    let failed = failures.len();
    let failure_ratio = m(
        "run_failure_ratio",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );
    // The result line carries exactly this mode's metrics; the failure
    // ratio is a per-layer metric, and the human table always shows it.
    let mut all = metrics;
    if args.trace {
        all.push(failure_ratio);
    }
    for f in &failures {
        eprintln!("perfbench: FAILED {name}: {f}");
    }
    let beyond_p90 = ops - (ops as f64 * 0.9).ceil() as usize;
    println!(
        "perfbench: workload={name} seed={} ops={ops} ({beyond_p90} beyond p90) \
         digest={:016x} failed={failed} setups_s={setup_secs:.3?}",
        args.seed, digest.0
    );
    for x in &all {
        println!("  {:<38} {:>16.6} {}", x.name, x.value, x.unit);
    }
    if !args.trace {
        let x = failure_ratio;
        println!("  {:<38} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&all)
    );
    if let Some((path, mut file)) = args.out {
        let op_ms: Vec<String> = plain.walls.iter().map(|s| (s * 1e3).to_string()).collect();
        let doc = format!(
            "{{\"workload\": {name:?}, \"seed\": {}, \"ops\": {ops}, \"digest\": \"{:016x}\", \
             \"untraced_op_ms\": [{}], \"result\": {line}}}\n",
            args.seed,
            digest.0,
            op_ms.join(", ")
        );
        if let Err(e) = file.write_all(doc.as_bytes()).and_then(|()| file.flush()) {
            eprintln!("perfbench: error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{line}");
    if failed > 0 {
        std::process::exit(1);
    }
}
