//! # aimes — the integrated middleware and virtual laboratory
//!
//! §III-E: "We implemented the four abstractions — Skeleton Application,
//! Bundle, Pilot, and Execution Strategy — ... then integrated them into
//! the AIMES middleware. This middleware offers two distinguishing
//! features: self-containment, meaning no components need to be deployed
//! into the resources, and self-introspection, meaning that its state model
//! is explicit and instrumented to produce complete traces of an
//! application execution. ... the AIMES middleware can work as an
//! experimental laboratory."
//!
//! * [`middleware`] — one end-to-end application execution: wire clusters
//!   → SAGA session → bundle → execution manager → pilot/unit managers,
//!   run to completion, return the measured [`ttc::TtcBreakdown`].
//! * [`ttc`] — the TTC decomposition into Tw, Tx, Ts (overlap-aware, as in
//!   Fig. 3: "During execution Tw, Tx, and Ts overlap so
//!   TTC < Tw + Tx + Ts").
//! * [`experiment`] — the laboratory: repetitions with per-run seeds and
//!   randomized submission offsets, run in parallel across host cores.
//! * [`paper`] — the Table I experiment definitions and the series behind
//!   Figures 2, 3, and 4, plus the §V ablations.
//! * [`stats`] — mean/stdev/quantiles/confidence intervals.
//! * [`report`] — markdown/CSV table and series rendering.

pub mod adaptive;
pub mod campaign;
pub mod experiment;
pub mod journal;
pub mod middleware;
pub mod paper;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod stats;
mod teardown;
pub mod ttc;

pub use adaptive::{run_adaptive, AdaptiveConfig, AdaptiveRunResult};
pub use aimes_fault as fault;
pub use campaign::{CampaignMeta, CampaignRecorder, CampaignSender, Progress, RunRecord};
pub use experiment::{ExperimentConfig, ExperimentPoint, ExperimentResult};
pub use journal::{JournalEntry, JournalEvent, RunJournal};
pub use middleware::{resume_application, run_application, RunError, RunOptions, RunResult};
pub use profile::{ProfileAccumulator, ProfileDoc, TimingInputs, PROFILE_SCHEMA};
pub use recorder::{RecorderSnapshot, DEFAULT_RECORDER_CAPACITY};
pub use stats::Summary;
pub use ttc::TtcBreakdown;
