//! Batch scheduling policies.
//!
//! Production HPC schedulers are overwhelmingly FCFS-with-backfill; the
//! paper's resources ran variants of EASY backfill, and the unpredictable
//! interaction between queue state, walltime requests, and backfill holes
//! is what makes Tw "notoriously unpredictable" (§IV-B, refs \[24\]\[25\]).
//! Both policies here work purely on *requested* walltimes — actual
//! runtimes are invisible to them, as in reality.

use crate::job::JobId;
use crate::profile::AvailabilityProfile;
use aimes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which policy a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Strict first-come-first-served: nothing may overtake the queue head.
    Fcfs,
    /// EASY backfill: the queue head gets a reservation at the earliest
    /// feasible time; later jobs may start now if they cannot delay it.
    EasyBackfill,
}

/// Scheduler's view of a queued job.
#[derive(Clone, Copy, Debug)]
pub struct QueuedJobView {
    pub id: JobId,
    pub cores: u32,
    pub walltime: SimDuration,
}

/// Scheduler's view of a running job: when its cores come back under the
/// conservative walltime assumption.
#[derive(Clone, Copy, Debug)]
pub struct RunningJobView {
    pub cores: u32,
    pub deadline: SimTime,
}

/// Decide which queued jobs start *now*, from scratch: the releases are
/// collected from `running` and sorted into a fresh profile, and every
/// backfill candidate is checked by a window scan of that profile. `queue`
/// is in priority order. Returns ids in start order.
///
/// This is the reference form for tests and benches. A cluster runs
/// [`select_starts_from_ledger`] on every dispatch pass; the oracle
/// proptest holds the two equal.
pub fn select_starts(
    policy: SchedulingPolicy,
    now: SimTime,
    free_cores: u32,
    running: &[RunningJobView],
    queue: &[QueuedJobView],
) -> Vec<JobId> {
    let mut starts = Vec::new();
    match policy {
        SchedulingPolicy::Fcfs => fcfs(free_cores, queue, &mut starts),
        SchedulingPolicy::EasyBackfill => {
            let releases: Vec<(SimTime, u32)> =
                running.iter().map(|r| (r.deadline, r.cores)).collect();
            let mut profile = AvailabilityProfile::new(now, free_cores, &releases);
            easy_backfill_by_scan(now, &mut profile, queue, &mut starts);
        }
    }
    starts
}

/// [`select_starts`] over persistent state: `releases` is the running
/// set's release ledger (walltime deadline → summed cores), so the
/// availability profile is rebuilt in one linear pass into the reused
/// `profile` buffer, and backfill candidates cost O(1) each (see
/// [`easy_backfill`]). `queue` yields the queued jobs in priority order.
/// Started ids are appended to `starts`.
pub fn select_starts_from_ledger<'a>(
    policy: SchedulingPolicy,
    now: SimTime,
    free_cores: u32,
    releases: &BTreeMap<SimTime, u32>,
    queue: impl IntoIterator<Item = &'a QueuedJobView>,
    profile: &mut AvailabilityProfile,
    starts: &mut Vec<JobId>,
) {
    match policy {
        SchedulingPolicy::Fcfs => fcfs(free_cores, queue, starts),
        SchedulingPolicy::EasyBackfill => {
            profile.rebuild_sorted(now, free_cores, releases.iter().map(|(t, c)| (*t, *c)));
            easy_backfill(now, profile, queue, starts);
        }
    }
}

fn fcfs<'a>(
    mut free: u32,
    queue: impl IntoIterator<Item = &'a QueuedJobView>,
    starts: &mut Vec<JobId>,
) {
    for job in queue {
        if job.cores <= free {
            free -= job.cores;
            starts.push(job.id);
        } else {
            break; // strict: no overtaking
        }
    }
}

/// EASY phase 1: start the queue head while it fits right now. Returns the
/// blocked head, if any; `rest` is left at the job after it.
fn start_heads<'a>(
    now: SimTime,
    profile: &mut AvailabilityProfile,
    rest: &mut impl Iterator<Item = &'a QueuedJobView>,
    starts: &mut Vec<JobId>,
) -> Option<&'a QueuedJobView> {
    for head in rest {
        if profile.min_free_over(now, head.walltime) >= head.cores {
            profile.reserve(now, head.walltime, head.cores);
            starts.push(head.id);
        } else {
            return Some(head);
        }
    }
    None
}

/// EASY backfill on a profile whose origin is `now`.
///
/// Phase 2 reserves nothing and scans nothing. Until the blocked head is
/// reserved, the profile is non-decreasing in time: releases only add
/// cores, and every reservation so far starts at `now`. Reserving the head
/// over [shadow, shadow + walltime) cuts one dip into it, so a candidate
/// fits over [now, now + w) iff it fits `free_now`, and — when its window
/// reaches the shadow — the cores the head leaves spare there. Each
/// backfill start lowers `free_now`, and lowers the spare cores when it
/// outlives the shadow. This is exactly what [`easy_backfill_by_scan`]
/// decides by window scans.
fn easy_backfill<'a>(
    now: SimTime,
    profile: &mut AvailabilityProfile,
    queue: impl IntoIterator<Item = &'a QueuedJobView>,
    starts: &mut Vec<JobId>,
) {
    let mut rest = queue.into_iter();
    let Some(head) = start_heads(now, profile, &mut rest, starts) else {
        return;
    };
    let mut free_now = profile.free_at(now);
    // (shadow time, cores spare beside the head there). None when even the
    // empty machine can't fit the head; the cluster rejects such jobs at
    // submit time, so this is defensive.
    let mut shadow = profile
        .earliest_fit(head.cores, head.walltime, now)
        .map(|at| (at, profile.free_at(at) - head.cores));
    for job in rest {
        if free_now == 0 {
            break;
        }
        if job.cores > free_now {
            continue;
        }
        if let Some((at, spare)) = shadow.as_mut() {
            if now + job.walltime > *at {
                if job.cores > *spare {
                    continue;
                }
                *spare -= job.cores;
            }
        }
        free_now -= job.cores;
        starts.push(job.id);
    }
}

/// The reference EASY pass: phase 2 reserves the blocked head at its
/// earliest feasible ("shadow") time, then backfills any later job whose
/// window scan shows it can run now without touching that reservation.
fn easy_backfill_by_scan(
    now: SimTime,
    profile: &mut AvailabilityProfile,
    queue: &[QueuedJobView],
    starts: &mut Vec<JobId>,
) {
    let mut rest = queue.iter();
    let Some(head) = start_heads(now, profile, &mut rest, starts) else {
        return;
    };
    if let Some(shadow) = profile.earliest_fit(head.cores, head.walltime, now) {
        profile.reserve(shadow, head.walltime, head.cores);
    }
    // `free_now` bounds min_free_over(now, ·) from above: the head's
    // shadow is strictly after `now` (otherwise phase 1 would have
    // started it), so only the backfill reservations — all at `now` —
    // lower free cores at `now`. Candidates wider than free_now can
    // therefore skip the window scan, and once free_now reaches zero no
    // further candidate can start.
    let mut free_now = profile.free_at(now);
    for job in rest {
        if free_now == 0 {
            break;
        }
        if job.cores > free_now {
            continue;
        }
        if profile.min_free_over(now, job.walltime) >= job.cores {
            profile.reserve(now, job.walltime, job.cores);
            free_now -= job.cores;
            starts.push(job.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn q(id: u64, cores: u32, wall: f64) -> QueuedJobView {
        QueuedJobView {
            id: JobId(id),
            cores,
            walltime: d(wall),
        }
    }
    fn r(cores: u32, deadline: f64) -> RunningJobView {
        RunningJobView {
            cores,
            deadline: t(deadline),
        }
    }

    #[test]
    fn fcfs_starts_prefix_only() {
        let queue = [q(1, 4, 10.0), q(2, 8, 10.0), q(3, 1, 10.0)];
        // 6 free: job 1 fits, job 2 doesn't; job 3 must NOT overtake.
        let starts = select_starts(SchedulingPolicy::Fcfs, t(0.0), 6, &[], &queue);
        assert_eq!(starts, vec![JobId(1)]);
    }

    #[test]
    fn fcfs_starts_all_when_room() {
        let queue = [q(1, 2, 10.0), q(2, 2, 10.0)];
        let starts = select_starts(SchedulingPolicy::Fcfs, t(0.0), 8, &[], &queue);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn backfill_lets_small_short_job_through() {
        // 6 free now; 4 release at t=100. Head needs 10 cores → shadow 100.
        // Job 2 (2 cores, 50 s) ends at 50 < 100: backfills.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 2, 50.0)];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 6, &running, &queue);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_never_delays_head_reservation() {
        // 6 free now; 4 release at t=100; head needs 10 → shadow t=100.
        // Job 2 (6 cores, 200 s) would still hold 6 cores at t=100, leaving
        // only 4 for the head → must NOT backfill.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 6, 200.0)];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 6, &running, &queue);
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_on_spare_cores_during_shadow() {
        // 8 free now; 4 release at t=100. Head needs 10 → shadow t=100,
        // using 10 of the 12 available then. Job 2 (2 cores, long) uses
        // cores the head never needs → backfills even though it outlives
        // the shadow time.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 2, 10_000.0)];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 8, &running, &queue);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_considers_all_later_jobs() {
        let running = [r(4, 100.0)];
        let queue = [
            q(1, 10, 1000.0), // blocked head
            q(2, 6, 200.0),   // would delay head
            q(3, 2, 50.0),    // fits before shadow
            q(4, 2, 50.0),    // also fits
            q(5, 4, 50.0),    // only 2 cores left now → no
        ];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 6, &running, &queue);
        assert_eq!(starts, vec![JobId(3), JobId(4)]);
    }

    #[test]
    fn backfill_ending_exactly_at_shadow_fits_on_both_paths() {
        // 6 free now; 4 release at t=100; head needs 10 → shadow t=100 with
        // nothing spare. Job 2 (6 cores) ends exactly at the shadow: its
        // window [0, 100) never touches the reservation, so it backfills;
        // job 3 (1 core) outlives the shadow and must wait.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 6, 100.0), q(3, 1, 100.5)];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 6, &running, &queue);
        assert_eq!(starts, vec![JobId(2)]);
        let ledger = BTreeMap::from([(t(100.0), 4)]);
        let mut profile = AvailabilityProfile::from_sorted(t(0.0), 0, []);
        let mut ledger_starts = Vec::new();
        select_starts_from_ledger(
            SchedulingPolicy::EasyBackfill,
            t(0.0),
            6,
            &ledger,
            &queue,
            &mut profile,
            &mut ledger_starts,
        );
        assert_eq!(ledger_starts, starts);
    }

    #[test]
    fn head_starts_immediately_when_it_fits() {
        let queue = [q(1, 4, 10.0), q(2, 4, 10.0), q(3, 4, 10.0)];
        let starts = select_starts(SchedulingPolicy::EasyBackfill, t(0.0), 8, &[], &queue);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn empty_queue_no_starts() {
        for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
            assert!(select_starts(p, t(0.0), 100, &[], &[]).is_empty());
        }
    }

    #[test]
    fn zero_free_cores_no_starts() {
        let queue = [q(1, 1, 10.0)];
        let running = [r(8, 50.0)];
        for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
            assert!(select_starts(p, t(0.0), 0, &running, &queue).is_empty());
        }
    }

    /// Reference model for the EASY invariant: simulate the head's shadow
    /// time with and without the backfilled jobs; it must not move later.
    fn shadow_time(
        now: SimTime,
        free: u32,
        running: &[RunningJobView],
        extra: &[(u32, SimDuration)],
        head: &QueuedJobView,
    ) -> Option<SimTime> {
        let mut rel: Vec<(SimTime, u32)> = running.iter().map(|r| (r.deadline, r.cores)).collect();
        let mut free = free;
        for (c, w) in extra {
            // Each backfilled job consumes free cores now, returns at now+w.
            assert!(free >= *c);
            free -= c;
            rel.push((now + *w, *c));
        }
        let p = AvailabilityProfile::new(now, free, &rel);
        p.earliest_fit(head.cores, head.walltime, now)
    }

    proptest! {
        /// EASY safety: backfilling never delays the queue head beyond the
        /// shadow time it would have had with no backfilling at all.
        #[test]
        fn prop_backfill_preserves_head_shadow(
            free in 0u32..32,
            running in proptest::collection::vec((1u32..16, 1.0f64..500.0), 0..8),
            jobs in proptest::collection::vec((1u32..24, 1.0f64..400.0), 1..10),
        ) {
            let now = t(0.0);
            let running: Vec<RunningJobView> =
                running.iter().map(|(c, dl)| r(*c, *dl)).collect();
            let queue: Vec<QueuedJobView> = jobs
                .iter()
                .enumerate()
                .map(|(i, (c, w))| q(i as u64, *c, *w))
                .collect();
            let starts = select_starts(
                SchedulingPolicy::EasyBackfill, now, free, &running, &queue);
            // Identify the first *non-started* job: the effective head.
            let started: std::collections::HashSet<JobId> =
                starts.iter().copied().collect();
            let head = queue.iter().find(|j| !started.contains(&j.id));
            let Some(head) = head else { return Ok(()); };
            // Jobs started from the prefix before the head are legitimate
            // FCFS starts; jobs after it are backfill. Compare the head's
            // shadow with only-prefix starts vs all starts.
            let head_pos = queue.iter().position(|j| j.id == head.id).unwrap();
            let prefix: Vec<(u32, SimDuration)> = queue[..head_pos]
                .iter()
                .filter(|j| started.contains(&j.id))
                .map(|j| (j.cores, j.walltime))
                .collect();
            let all: Vec<(u32, SimDuration)> = queue
                .iter()
                .filter(|j| started.contains(&j.id))
                .map(|j| (j.cores, j.walltime))
                .collect();
            let shadow_without = shadow_time(now, free, &running, &prefix, head);
            let shadow_with = shadow_time(now, free, &running, &all, head);
            match (shadow_without, shadow_with) {
                (Some(a), Some(b)) => prop_assert!(
                    b <= a,
                    "backfill delayed head: {a:?} -> {b:?}"
                ),
                (None, _) => {} // head can never fit (oversized) — cluster rejects these
                (Some(_), None) => prop_assert!(false, "backfill made head infeasible"),
            }
        }

        /// Started jobs always fit within currently free cores.
        #[test]
        fn prop_starts_fit_in_free_cores(
            free in 0u32..32,
            jobs in proptest::collection::vec((1u32..24, 1.0f64..400.0), 1..10),
        ) {
            let queue: Vec<QueuedJobView> = jobs
                .iter()
                .enumerate()
                .map(|(i, (c, w))| q(i as u64, *c, *w))
                .collect();
            for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
                let starts = select_starts(p, t(0.0), free, &[], &queue);
                let used: u32 = queue
                    .iter()
                    .filter(|j| starts.contains(&j.id))
                    .map(|j| j.cores)
                    .sum();
                prop_assert!(used <= free);
            }
        }
    }

    proptest! {
        // Cheap cases; enough of them that coinciding times land on every
        // boundary the two paths could disagree on.
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Oracle for the dispatch path: on random running sets and queues,
        /// the profile built from the release ledger equals
        /// `AvailabilityProfile::new` on the same releases, and
        /// `select_starts_from_ledger` (reusing dirty buffers) starts
        /// exactly what the from-scratch `select_starts` starts. Times sit
        /// on a coarse grid, so deadlines coincide with each other, with
        /// `now` (or fall before it) and with candidate ends; `fill` leaves
        /// zero free cores; cores are clamped to the machine, so many jobs
        /// are as wide as it; priorities order the queue as a cluster does.
        #[test]
        fn prop_ledger_path_matches_reference(
            total in 1u32..48,
            running in proptest::collection::vec((1u32..48, 0u32..10), 0..24),
            fill in any::<bool>(),
            jobs in proptest::collection::vec((1u32..48, 0u32..8, 0i32..3), 0..16),
            now_slot in 0u32..5,
            easy in any::<bool>(),
        ) {
            let policy = if easy {
                SchedulingPolicy::EasyBackfill
            } else {
                SchedulingPolicy::Fcfs
            };
            let now = t(f64::from(now_slot) * 50.0);
            let mut free = total;
            let mut views = Vec::new();
            for (cores, slot) in running {
                let cores = cores.min(free);
                if cores == 0 {
                    break;
                }
                free -= cores;
                views.push(r(cores, f64::from(slot) * 50.0));
            }
            if fill && free > 0 {
                views.push(r(free, 500.0));
                free = 0;
            }
            let mut ledger: BTreeMap<SimTime, u32> = BTreeMap::new();
            for v in &views {
                *ledger.entry(v.deadline).or_default() += v.cores;
            }
            let mut queue: Vec<(i32, QueuedJobView)> = jobs
                .iter()
                .enumerate()
                .map(|(i, (c, w, prio))| {
                    (*prio, q(i as u64, (*c).min(total), f64::from(*w + 1) * 25.0))
                })
                .collect();
            queue.sort_by_key(|(prio, job)| (std::cmp::Reverse(*prio), job.id));
            let queue: Vec<QueuedJobView> = queue.into_iter().map(|(_, job)| job).collect();

            let releases: Vec<(SimTime, u32)> =
                views.iter().map(|v| (v.deadline, v.cores)).collect();
            prop_assert_eq!(
                AvailabilityProfile::from_sorted(now, free, ledger.iter().map(|(t, c)| (*t, *c))),
                AvailabilityProfile::new(now, free, &releases)
            );

            let expected = select_starts(policy, now, free, &views, &queue);
            let mut profile = AvailabilityProfile::from_sorted(t(7.0), 3, [(t(9.0), 1)]);
            let mut starts = Vec::new();
            select_starts_from_ledger(
                policy, now, free, &ledger, &queue, &mut profile, &mut starts);
            prop_assert_eq!(&starts, &expected);
            // A second pass over the same state through the now-dirty
            // buffers decides the same.
            starts.clear();
            select_starts_from_ledger(
                policy, now, free, &ledger, &queue, &mut profile, &mut starts);
            prop_assert_eq!(&starts, &expected);
        }
    }
}
