//! The traced pass's recorder: benchmark-side spans around each public
//! call into a layer, plus the program's own `aimes_sim::Profiler` for
//! the inside of a run. Nothing here is compiled into the program.

use aimes_sim::{EngineStats, ProfileReport, Profiler};
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything the traced pass records, kept in memory until the end.
pub struct Trace {
    /// Shared by every op of the pass; benchmark spans open scopes on it
    /// too, so exclusive times tile the pass's wall clock.
    pub profiler: Profiler,
    /// Engine counters summed over ops (the high-water mark maxed).
    pub engine: EngineStats,
    /// Inclusive wall milliseconds of each call, per benchmark span.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    pub workload_jobs: u64,
    pub estimate_wait_us: Vec<f64>,
    pub queued_jobs_sum: u64,
    pub queue_samples: u64,
    pub journal_entries: u64,
    pub journal_bytes: u64,
    pub closure_ok: u64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            profiler: Profiler::new(),
            engine: EngineStats::default(),
            spans: BTreeMap::new(),
            workload_jobs: 0,
            estimate_wait_us: Vec::new(),
            queued_jobs_sum: 0,
            queue_samples: 0,
            journal_entries: 0,
            journal_bytes: 0,
            closure_ok: 0,
        }
    }

    /// Run `f` inside a span named `label`: a profiler scope plus its
    /// inclusive wall time.
    pub fn span<T>(&mut self, label: &'static str, f: impl FnOnce() -> T) -> T {
        let scope = self.profiler.scope(label);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(scope);
        self.spans.entry(label).or_default().push(ms);
        out
    }

    /// Fold the engine counters the last run published. Each run
    /// overwrites the profiler's copy at exit, so call this after every op.
    pub fn fold_engine(&mut self) {
        let stats = self.profiler.report().engine;
        self.engine.merge(&stats);
    }

    /// Total inclusive milliseconds of a benchmark span.
    pub fn span_ms(&self, label: &str) -> f64 {
        self.spans.get(label).map_or(0.0, |v| v.iter().sum())
    }

    /// Median inclusive milliseconds of a benchmark span's calls.
    pub fn span_p50_ms(&self, label: &str) -> f64 {
        self.spans
            .get(label)
            .map_or(0.0, |v| percentile(&mut v.clone(), 0.5))
    }
}

/// Totals of one program profiler label.
pub struct LabelTotals {
    pub self_ms: f64,
    pub calls: u64,
    pub p99_us: f64,
}

pub fn label(report: &ProfileReport, name: &str) -> LabelTotals {
    report.labels.iter().find(|l| l.label == name).map_or(
        LabelTotals {
            self_ms: 0.0,
            calls: 0,
            p99_us: 0.0,
        },
        |l| LabelTotals {
            self_ms: l.exclusive_secs * 1e3,
            calls: l.count,
            p99_us: l.hist.quantile(0.99),
        },
    )
}

/// Linear-interpolated percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// [`Trace::span`] when tracing, a plain call otherwise.
pub fn span<T>(trace: &mut Option<&mut Trace>, label: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(label, f),
        None => f(),
    }
}
