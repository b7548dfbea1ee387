//! A run frees what it allocates. The middleware wires its layers
//! together with shared handles and stored callbacks (pilot and unit
//! subscribers, SAGA job callbacks and breaker hooks, cluster watchers),
//! and those callbacks hold handles back to the managers that store them.
//! Unless a run breaks those cycles on the way out, every run leaves its
//! whole object graph on the heap.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: any other test running beside it would move the counters.

use std::cell::RefCell;
use std::rc::Rc;

use aimes::adaptive::{run_adaptive, AdaptiveConfig};
use aimes::fault::{
    CascadeSpec, DomainSpec, EvacuationSpec, FaultSpec, OutageKind, OutageSpec, RecoveryPolicy,
};
use aimes::middleware::{run_application, RunError, RunOptions};
use aimes::{paper, RunJournal};
use aimes_bench::alloc::{self, CountingAlloc};
use aimes_cluster::ClusterConfig;
use aimes_sim::{SimDuration, SimTime};
use aimes_skeleton::{paper_bag, TaskDurationSpec};
use aimes_strategy::ResourceSelection;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live heap a run may leave behind (one-time lazy state aside, which
/// the warm-up round absorbs).
const SLACK_BYTES: i64 = 16 * 1024;

fn pool() -> Vec<ClusterConfig> {
    ["one", "two", "three"]
        .iter()
        .map(|n| ClusterConfig::test(n, 256))
        .collect()
}

/// A detection run: "one" dies silently at t+300 s, so heartbeats stop,
/// the detector declares, the breaker trips and the run re-plans.
fn detection_options(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(FaultSpec {
            outages: vec![OutageSpec {
                resource: "one".into(),
                at_secs: 300.0,
                duration_secs: 600.0,
                kind: OutageKind::Permanent,
            }],
            ..FaultSpec::none()
        }),
        recovery: Some(RecoveryPolicy::with_detection()),
        ..Default::default()
    }
}

/// A cascade through zone-a with evacuation and checkpoints: every
/// subscriber kind the middleware installs gets registered and fired.
fn cascade_options(seed: u64) -> RunOptions {
    let mut recovery = RecoveryPolicy::with_detection();
    recovery.evacuation = Some(EvacuationSpec::default());
    recovery.checkpoint_interval = SimDuration::from_secs(120.0);
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(FaultSpec {
            cascade: Some(CascadeSpec {
                domains: vec![
                    DomainSpec {
                        name: "zone-a".into(),
                        members: vec!["one".into(), "two".into()],
                    },
                    DomainSpec {
                        name: "zone-b".into(),
                        members: vec!["three".into()],
                    },
                ],
                trigger: OutageSpec {
                    resource: "one".into(),
                    at_secs: 300.0,
                    duration_secs: 0.0,
                    kind: OutageKind::Permanent,
                },
                propagation_chance: 1.0,
                propagation_delay_secs: (600.0, 900.0),
            }),
            ..FaultSpec::none()
        }),
        recovery: Some(recovery),
        journal: Some(Rc::new(RefCell::new(RunJournal::new()))),
        ..Default::default()
    }
}

/// One of each way a run can end: completed, interrupted, out of time,
/// unplannable, and an adaptive run.
fn run_each_exit() {
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let mut pinned = paper::late_strategy(2);
    pinned.selection = ResourceSelection::Fixed(vec!["one".into(), "two".into()]);

    let done = run_application(&pool(), &app, &pinned, &cascade_options(31));
    assert_eq!(done.expect("the cascade run completes").units_done, 16);

    let mut interrupted = detection_options(13);
    interrupted.journal = Some(Rc::new(RefCell::new(RunJournal::new())));
    interrupted.interrupt_at = Some(SimDuration::from_secs(700.0));
    let err = run_application(&pool(), &app, &pinned, &interrupted).unwrap_err();
    assert!(matches!(err, RunError::Interrupted { .. }), "{err}");

    let mut late = detection_options(13);
    late.deadline = SimDuration::from_secs(60.0);
    let err = run_application(&pool(), &app, &pinned, &late).unwrap_err();
    assert!(matches!(err, RunError::DeadlineExceeded { .. }), "{err}");

    let tiny = vec![ClusterConfig::test("tiny", 64)];
    let huge = paper_bag(2048, TaskDurationSpec::Uniform15Min);
    let err = run_application(
        &tiny,
        &huge,
        &paper::early_strategy(),
        &RunOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RunError::Unplannable(_)), "{err}");

    let config = AdaptiveConfig::patient(paper::late_strategy(2));
    let adaptive = run_adaptive(&pool(), &app, &config, &detection_options(5))
        .expect("the adaptive run completes");
    assert_eq!(adaptive.units_done, 16);
}

#[test]
fn every_run_exit_returns_the_heap_to_its_baseline() {
    // Warm-up: one-time lazy state (thread-locals, interned names,
    // first-use buffers) is allocated here and stays.
    run_each_exit();
    assert!(alloc::is_active(), "the counting allocator is installed");

    let before = alloc::snapshot().live_bytes as i64;
    run_each_exit();
    let after = alloc::snapshot().live_bytes as i64;
    let leaked = after - before;
    assert!(
        leaked <= SLACK_BYTES,
        "five runs left {leaked} live bytes behind (slack {SLACK_BYTES})"
    );
}
