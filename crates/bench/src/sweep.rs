//! The one chaos-sweep driver. A sweep declares its scenario, its arms,
//! an arm → run-options function, a per-run extract and its table
//! columns; the driver owns the arm × rep fan-out, the paired seeds and
//! submit instants, the campaign observatory, the per-arm fold, the
//! failure lines and `--fail-on-error`.

use crate::cli::Flags;
use crate::Observatory;
use aimes::campaign::{JobKey, Scenario};
use aimes::middleware::{RunError, RunOptions, RunResult};
use aimes::report;
use aimes_sim::{SimRng, SimTime};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

/// One arm of a sweep.
pub struct Arm<S> {
    /// Table row, manifest arm and failure-line label.
    pub label: String,
    /// Seed stream. Arms on one stream run rep `r` at the same seed, so
    /// they face identical schedules and differ only in what the arm
    /// changes.
    pub stream: String,
    /// Run-tag stem for flight-recorder dumps (`{tag}-r{rep}`).
    pub tag: String,
    /// Whether a failed run prints its failure line and counts toward
    /// `--fail-on-error`.
    pub gated: bool,
    pub spec: S,
}

impl<S> Arm<S> {
    /// A gated arm on `stream`.
    pub fn on(stream: &str, label: &str, spec: S) -> Self {
        Arm {
            label: label.into(),
            stream: stream.into(),
            tag: format!("{stream}-{label}"),
            gated: true,
            spec,
        }
    }
}

/// A sweep, declared.
pub struct Sweep<'a, S> {
    /// The command: the manifest's campaign and the failure-line prefix.
    pub name: &'a str,
    pub scenario: Scenario<'a>,
    pub arms: Vec<Arm<S>>,
    /// Repetitions per arm.
    pub reps: usize,
    /// Where failed runs leave their flight-recorder post-mortems.
    pub dump_dir: Option<&'a Path>,
}

/// One arm's completed runs in rep order, and its failures by class.
pub struct ArmRuns<R> {
    pub runs: Vec<R>,
    pub errors: BTreeMap<String, usize>,
}

/// A finished sweep: one [`ArmRuns`] per arm, in arm order.
pub struct SweepRuns<R> {
    pub arms: Vec<ArmRuns<R>>,
    /// Failed runs in gated arms.
    failures: usize,
    /// What `--fail-on-error` names when it fires.
    gate: String,
}

/// Coarse failure class for sweep error tallies.
fn error_class(e: &RunError) -> &'static str {
    match e {
        RunError::PilotsDrained { .. } => "drained",
        RunError::ResourceLost { .. } => "lost",
        RunError::DeadlineExceeded { .. } => "deadline",
        _ => "other",
    }
}

/// One job's seed and its run, or its failure class and message.
type Outcome<R> = (u64, Result<R, (&'static str, String)>);

impl<S: Sync> Sweep<'_, S> {
    /// Fan every arm × rep job out on the worker pool under the campaign
    /// observatory. Rep `r` of an arm runs at seed `r` of the arm's
    /// stream, submitted 4–16 h in. `options` gives an arm's run options
    /// (the driver fills in seed, submit instant, profiler, dump dir and
    /// run tag) and `extract` turns a completed run into what the sweep
    /// tabulates. Outcomes fold per arm in job order, and every failure
    /// line prints there, so output is byte-identical at any `--jobs`.
    /// Failure lines carry the same `arm=.. rep=.. seed=..` keys as the
    /// manifest's failure records.
    pub fn run<R: Send>(
        &self,
        flags: &Flags,
        options: impl Fn(&S) -> RunOptions + Sync,
        extract: impl Fn(RunResult, &RunOptions) -> R + Sync,
    ) -> SweepRuns<R> {
        let jobs: Vec<(usize, &Arm<S>, usize)> = self
            .arms
            .iter()
            .flat_map(|arm| (0..self.reps).map(move |rep| (arm, rep)))
            .enumerate()
            .map(|(job, (arm, rep))| (job, arm, rep))
            .collect();
        let obs = Observatory::open(flags, self.name, self.name, jobs.len());
        let hooks = obs.hooks();
        let outcomes: Vec<Outcome<R>> = jobs
            .par_iter()
            .map(|&(job, arm, rep)| {
                let seed = SimRng::new(flags.seed)
                    .fork_indexed(&arm.stream, rep as u64)
                    .root_seed();
                let mut rng = SimRng::new(seed).fork("submit");
                let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
                let key = JobKey {
                    job,
                    sweep: self.name,
                    arm: &arm.label,
                    rep,
                };
                let build = |profiler| RunOptions {
                    seed,
                    submit_at,
                    profiler,
                    recorder_dump_dir: self.dump_dir.map(Path::to_path_buf),
                    run_tag: Some(format!("{}-r{rep}", arm.tag)),
                    ..options(&arm.spec)
                };
                let outcome = hooks.run(key, self.scenario, build, &extract);
                (seed, outcome.map_err(|e| (error_class(&e), e.to_string())))
            })
            .collect();
        obs.close();

        let mut outcomes = outcomes.into_iter();
        let mut failures = 0;
        let arms = self
            .arms
            .iter()
            .map(|arm| {
                let mut out = ArmRuns {
                    runs: Vec::new(),
                    errors: BTreeMap::new(),
                };
                for (rep, (seed, outcome)) in outcomes.by_ref().take(self.reps).enumerate() {
                    match outcome {
                        Ok(r) => out.runs.push(r),
                        Err((class, e)) => {
                            *out.errors.entry(class.to_string()).or_insert(0) += 1;
                            if arm.gated {
                                failures += 1;
                                eprintln!(
                                    "{} arm failed: arm={} rep={rep} seed={seed}: {e}",
                                    self.name, arm.label
                                );
                            }
                        }
                    }
                }
                out
            })
            .collect();
        SweepRuns {
            arms,
            failures,
            // A sweep that gates only some arms gates its healing arms.
            gate: if self.arms.iter().all(|a| a.gated) {
                self.name.to_string()
            } else {
                format!("{} healing-arm", self.name)
            },
        }
    }
}

/// One table column: its header, and how a row's point renders in it.
pub type Column<'a, P> = (&'a str, &'a dyn Fn(&P) -> String);

impl<R> SweepRuns<R> {
    /// Print the sweep's table (one row per point), then its JSON block
    /// and closing note when it has them; then, under `--fail-on-error`,
    /// exit 1 if a gated run failed.
    pub fn finish<P>(
        &self,
        fail_on_error: bool,
        columns: &[Column<P>],
        points: &[P],
        json: Option<String>,
        note: Option<&str>,
    ) {
        let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| columns.iter().map(|(_, cell)| cell(p)).collect())
            .collect();
        println!("{}", report::markdown_table(&headers, &rows));
        if let Some(json) = json {
            println!("\n### JSON\n```json\n{json}\n```");
        }
        if let Some(note) = note {
            println!("\n{note}");
        }
        if fail_on_error && self.failures > 0 {
            eprintln!(
                "{} {} run(s) failed under --fail-on-error",
                self.failures, self.gate
            );
            std::process::exit(1);
        }
    }
}

/// A sweep's JSON block.
pub fn json<P: serde::Serialize>(points: &P) -> Option<String> {
    Some(serde_json::to_string_pretty(points).expect("sweep points serialize"))
}

/// Mean of `f` over completed runs; 0 when none completed.
pub fn mean<R>(runs: &[R], f: impl Fn(&R) -> f64) -> f64 {
    if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(f).sum::<f64>() / runs.len() as f64
    }
}

/// Sum of a counter over completed runs.
pub fn total<R>(runs: &[R], f: impl Fn(&R) -> u64) -> u64 {
    runs.iter().map(f).sum()
}

/// A mean TTC cell: `-` when no run completed.
pub fn ttc_cell(completed: usize, ttc_mean_secs: f64) -> String {
    if completed == 0 {
        "-".into()
    } else {
        format!("{ttc_mean_secs:.0}")
    }
}
