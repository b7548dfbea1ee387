//! Dynamic (adaptive) execution — the paper's §V future work: "we will
//! also study dynamic execution where application strategies change during
//! execution to maintain the coupling between dynamic workloads and
//! dynamic resources."
//!
//! The adaptive runner starts with a base late-binding strategy and
//! *revises it while it runs*: if no pilot has become active within a
//! patience window, it consults the bundle again (with information from
//! `now`, not from submission time) and submits reinforcement pilots on
//! the best currently-unused resources. Late binding makes this seamless —
//! queued units simply flow to whichever pilot activates first, original
//! or reinforcement.

use crate::middleware::RunOptions;
use crate::teardown::RunTeardown;
use crate::ttc::{decompose, TtcBreakdown};
use aimes_bundle::{Bundle, QueryMode};
use aimes_cluster::{Cluster, ClusterConfig};
use aimes_pilot::{PilotDescription, PilotManager, PilotState, UnitManager};
use aimes_saga::Session;
use aimes_sim::{ManagerPhase, SimDuration, SimTime, Simulation, TraceKind, Tracer};
use aimes_skeleton::{SkeletonApp, SkeletonConfig};
use aimes_strategy::{ExecutionManager, ExecutionStrategy};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Adaptation policy.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// The initial strategy (must be late binding for reinforcements to
    /// be useful; asserted).
    pub base: ExecutionStrategy,
    /// How long to wait for the first activation before reinforcing.
    pub patience: SimDuration,
    /// Pilots added per reinforcement round.
    pub reinforce_by: u32,
    /// Maximum reinforcement rounds.
    pub max_rounds: u32,
}

impl AdaptiveConfig {
    /// A sensible default: start with `k` pilots, after 15 minutes of no
    /// activation add one pilot per round, up to two rounds.
    pub fn patient(base: ExecutionStrategy) -> Self {
        AdaptiveConfig {
            base,
            patience: SimDuration::from_mins(15.0),
            reinforce_by: 1,
            max_rounds: 2,
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveRunResult {
    pub breakdown: TtcBreakdown,
    pub initial_resources: Vec<String>,
    pub reinforcement_resources: Vec<String>,
    pub reinforcement_rounds: u32,
    pub units_done: usize,
    pub units_failed: usize,
}

/// Execute with in-flight strategy revision.
pub fn run_adaptive(
    resources: &[ClusterConfig],
    app_config: &SkeletonConfig,
    config: &AdaptiveConfig,
    options: &RunOptions,
) -> Result<AdaptiveRunResult, String> {
    assert_eq!(
        config.base.binding,
        aimes_pilot::Binding::Late,
        "adaptive reinforcement requires late binding"
    );
    options
        .info
        .validate()
        .map_err(|e| format!("invalid info config: {e}"))?;
    let tracer = if options.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut sim = Simulation::with_tracer(options.seed, tracer);

    let mut session = Session::new();
    // The patience check re-ranks with *current* information, so its
    // queries flow through the same information plane (hot pool,
    // staleness ladder) as the initial derivation.
    let bundle = Rc::new(RefCell::new(Bundle::with_info_config(options.info.clone())));
    for cfg in resources {
        let cluster = Cluster::new(cfg.clone());
        cluster.install(&mut sim);
        session.add_resource(&sim, cluster.clone());
        bundle.borrow_mut().add(cluster);
    }
    let session = Rc::new(session);

    let mut app_rng = sim.fork_rng("skeleton");
    let app = SkeletonApp::generate(app_config, &mut app_rng)?;
    let n_tasks = app.tasks().len() as u32;

    sim.schedule_at(options.submit_at, |_| {});
    sim.run_until(options.submit_at);
    let submitted = sim.now();

    let em = ExecutionManager::default();
    let mut selection_rng = sim.fork_rng("resource-selection");
    let plan = em.derive_plan_with_rng(
        submitted,
        &app,
        &mut bundle.borrow_mut(),
        &config.base,
        &mut selection_rng,
    )?;

    let pm = PilotManager::new(session.clone());
    let um = UnitManager::new(pm.clone(), plan.um_config.clone());
    let _teardown = RunTeardown::new(&pm, &um, &session);
    let finished: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    {
        let pm2 = pm.clone();
        let fin = finished.clone();
        um.on_all_done(move |sim| {
            *fin.borrow_mut() = Some(sim.now());
            pm2.cancel_all(sim);
        });
    }
    pm.submit(&mut sim, plan.pilots.clone());
    um.submit_units(&mut sim, app.tasks());

    // The adaptation loop: periodic patience checks.
    let reinforcements: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(vec![]));
    let rounds: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    schedule_patience_check(
        &mut sim,
        pm.clone(),
        bundle.clone(),
        config.clone(),
        plan.pilots[0].cores,
        plan.pilots[0].walltime,
        reinforcements.clone(),
        rounds.clone(),
    );

    let deadline = submitted + options.deadline;
    while finished.borrow().is_none() {
        if sim.now() > deadline {
            return Err(format!(
                "adaptive run missed its deadline ({} tasks, stats {:?})",
                n_tasks,
                um.stats()
            ));
        }
        if !sim.step() {
            break;
        }
    }
    let finished_at = finished
        .borrow()
        .ok_or_else(|| format!("drained before completion ({:?})", um.stats()))?;

    let stats = um.stats();
    let breakdown = decompose(&um.units(), &pm.pilots(), submitted, finished_at);
    let reinforcement_resources = reinforcements.borrow().clone();
    let reinforcement_rounds = *rounds.borrow();
    Ok(AdaptiveRunResult {
        breakdown,
        initial_resources: plan.resources,
        reinforcement_resources,
        reinforcement_rounds,
        units_done: stats.done,
        units_failed: stats.failed,
    })
}

#[allow(clippy::too_many_arguments)]
fn schedule_patience_check(
    sim: &mut Simulation,
    pm: PilotManager,
    bundle: Rc<RefCell<Bundle>>,
    config: AdaptiveConfig,
    cores: u32,
    walltime: SimDuration,
    reinforcements: Rc<RefCell<Vec<String>>>,
    rounds: Rc<RefCell<u32>>,
) {
    let patience = config.patience;
    sim.schedule_in(patience, move |sim| {
        let pilots = pm.pilots();
        let any_active = pilots
            .iter()
            .any(|p| p.state == PilotState::Active || p.time_of(PilotState::Active).is_some());
        let all_terminal = pilots.iter().all(|p| p.state.is_terminal());
        if any_active || all_terminal {
            return; // activation achieved (or run already over): stop adapting
        }
        if *rounds.borrow() >= config.max_rounds {
            return;
        }
        *rounds.borrow_mut() += 1;
        // Re-rank with *current* information, excluding resources that
        // already host one of our pilots.
        let used: std::collections::HashSet<String> = pilots
            .iter()
            .map(|p| p.description.resource.clone())
            .collect();
        let ranked =
            bundle
                .borrow_mut()
                .rank_by_setup_time(sim.now(), cores, walltime, QueryMode::OnDemand);
        let fresh: Vec<String> = ranked
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| !used.contains(name))
            .take(config.reinforce_by as usize)
            .collect();
        if !fresh.is_empty() {
            sim.tracer().record_with(sim.now(), || {
                (
                    "adaptive".into(),
                    TraceKind::Manager(ManagerPhase::Reinforce),
                    fresh.join(","),
                )
            });
            sim.metrics()
                .inc(|| "middleware.adaptive.reinforcements".into());
            let descs: Vec<PilotDescription> = fresh
                .iter()
                .map(|r| PilotDescription::new(r.clone(), cores, walltime))
                .collect();
            reinforcements.borrow_mut().extend(fresh);
            pm.submit(sim, descs);
        }
        // Keep watching until activation or round budget exhausted.
        schedule_patience_check(
            sim,
            pm,
            bundle,
            config,
            cores,
            walltime,
            reinforcements,
            rounds,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::ClusterConfig;
    use aimes_skeleton::{paper_bag, TaskDurationSpec};
    use aimes_strategy::{PilotSizing, ResourceSelection};

    fn opts(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            submit_at: SimTime::from_secs(600.0),
            ..Default::default()
        }
    }

    /// A pool where the initially chosen resource is hopeless (fully
    /// occupied for a long time) but another is idle.
    fn skewed_pool() -> Vec<ClusterConfig> {
        let mut blocked = ClusterConfig::test("blocked", 256);
        // A background config with 100 % long-job load and deep backlog:
        // the queue never advances within the test horizon.
        blocked.workload = Some(aimes_workload::WorkloadConfig {
            target_utilization: 1.2,
            size_dist: aimes_workload::Distribution::Constant { value: 256.0 },
            runtime_dist: aimes_workload::Distribution::Constant { value: 1e6 },
            overestimate_dist: aimes_workload::Distribution::Constant { value: 1.0 },
            diurnal_amplitude: 0.0,
        });
        blocked.initial_backlog_factor = 3.0;
        vec![blocked, ClusterConfig::test("open", 256)]
    }

    fn pinned_strategy(resource: &str) -> ExecutionStrategy {
        let mut s = ExecutionStrategy::paper_late(2);
        s.pilot_count = 1;
        s.sizing = PilotSizing::Fixed(16);
        s.selection = ResourceSelection::Fixed(vec![resource.to_string()]);
        s
    }

    #[test]
    fn reinforcement_rescues_a_stuck_run() {
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &opts(4)).unwrap();
        assert_eq!(r.units_done, 16);
        assert!(r.reinforcement_rounds >= 1);
        assert!(r.reinforcement_resources.contains(&"open".to_string()));
        // The rescue bounded TTC to roughly patience + execution.
        assert!(
            r.breakdown.ttc.as_secs() < 3600.0,
            "ttc {:?}",
            r.breakdown.ttc
        );
    }

    #[test]
    fn no_reinforcement_when_pilot_activates_quickly() {
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("open"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &opts(5)).unwrap();
        assert_eq!(r.units_done, 16);
        assert_eq!(r.reinforcement_rounds, 0);
        assert!(r.reinforcement_resources.is_empty());
    }

    #[test]
    fn rounds_are_bounded() {
        // Both resources hopeless: adaptation must stop at max_rounds and
        // the run must surface an error, not spin.
        let mut pool = skewed_pool();
        pool[1] = pool[0].clone();
        pool[1].name = "blocked2".into();
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 3,
        };
        let opts = RunOptions {
            seed: 6,
            submit_at: SimTime::from_secs(600.0),
            deadline: SimDuration::from_hours(6.0),
            ..Default::default()
        };
        let err = run_adaptive(&pool, &app, &config, &opts).unwrap_err();
        assert!(err.contains("deadline") || err.contains("drained"), "{err}");
    }

    #[test]
    fn invalid_info_config_is_rejected_up_front() {
        let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig::patient(pinned_strategy("open"));
        let mut o = opts(8);
        o.info.hot_pool_k = 0;
        let err = run_adaptive(&skewed_pool(), &app, &config, &o).unwrap_err();
        assert!(err.contains("invalid info config"), "{err}");
    }

    #[test]
    #[should_panic(expected = "late binding")]
    fn early_binding_rejected() {
        let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig::patient(ExecutionStrategy::paper_early());
        let _ = run_adaptive(&skewed_pool(), &app, &config, &opts(7));
    }
}
