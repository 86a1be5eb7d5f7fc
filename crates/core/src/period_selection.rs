//! Algorithm 1 — HYDRA-C period selection.
//!
//! Approximates the optimization `minimize Σ T_s subject to
//! R_s ≤ T_s ≤ T^max_s` by the paper's priority-ordered greedy:
//!
//! 1. set every `T_s := T^max_s`, compute all response times; reject the
//!    set if any `R_s > T^max_s` (lines 1–4);
//! 2. for each security task from highest to lowest priority, binary
//!    search ([Algorithm 2](crate::feasible_period)) the minimum period in
//!    `[R_s, T^max_s]` that keeps every *lower-priority* security task
//!    schedulable (`R_j ≤ T^max_j`), then lock it in and refresh the
//!    lower-priority response times (lines 5–9).
//!
//! Response times come from the semi-partitioned analysis
//! (`rts-analysis`, paper Eqs. 6–8); higher-priority periods are final by
//! construction when each task is processed, exactly the property the
//! paper uses to make the carry-in bounds well-defined.

use rts_analysis::semi::{CarryInStrategy, Environment, MigratingHp};
use rts_analysis::uniproc::HpTask;
use rts_model::time::Duration;
use rts_model::{PeriodVector, SecurityTaskSet, System};

use crate::error::SelectionError;
use crate::feasible_period::min_feasible_period;
use crate::phase_stats;

/// Result of a successful period selection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeriodSelection {
    /// The selected period vector `T* = [T*_s]`, index-aligned with the
    /// system's security task set.
    pub periods: PeriodVector,
    /// Worst-case response times under `periods`, same indexing.
    pub response_times: Vec<Duration>,
}

impl PeriodSelection {
    /// Total of the selected periods — the objective value of the paper's
    /// optimization problem (smaller = more frequent monitoring).
    #[must_use]
    pub fn objective(&self) -> Duration {
        self.periods.iter().copied().sum()
    }
}

/// The RT-task interference environment of `system`, shared by every
/// response-time computation below: one pinned group per core holding the
/// partitioned RT tasks, no migrating entries.
///
/// Building this is the only part of a selection run that reads the RT
/// side of the system. Long-running callers (the `rts-adapt` admission
/// service) therefore build it **once** per RT profile, and each tenant
/// passes its own clone of it to [`select_periods_with_env`] for every
/// subsequent security reconfiguration, instead of paying the
/// reconstruction per request — see
/// [`crate::incremental::IncrementalSelector`].
#[must_use]
pub fn rt_environment(system: &System) -> Environment {
    let mut env = Environment::new(system.num_cores());
    for core in system.platform().cores() {
        for idx in system.rt_tasks_on(core) {
            let task = &system.rt_tasks()[idx];
            env.pin(core.index(), HpTask::new(task.wcet(), task.period()));
        }
    }
    env
}

/// Computes `R_j` for every security task `j ≥ start` into `out` given:
/// `env` already contains RT interference plus migrating entries for
/// tasks `0..start` (with their final periods), and `periods[j]` holds the
/// current period (and response-time limit) of each remaining task.
///
/// `floors[j]` warm-starts each Eq. 7 fixed point; it must lower-bound
/// `R_j` under the current configuration (see
/// [`Environment::response_time_with_floor`] for the soundness argument —
/// here the floors are response times previously computed under
/// componentwise *longer* periods, which can only have shrunk the
/// interference).
///
/// The cascade pushes one migrating entry per computed task onto `env`
/// and does **not** roll them back (on error the entries up to the failed
/// task remain): callers snapshot `env.migrating_len()` beforehand and
/// [`Environment::truncate_migrating`] afterwards, which is what lets one
/// environment serve every probe of the binary search instead of being
/// cloned per candidate.
///
/// Returns `Err(j)` with the index of the first unschedulable task.
fn cascade_response_times(
    sec: &SecurityTaskSet,
    env: &mut Environment,
    start: usize,
    periods: &[Duration],
    floors: &[Duration],
    strategy: CarryInStrategy,
    out: &mut Vec<Duration>,
) -> Result<(), usize> {
    out.clear();
    for j in start..sec.len() {
        let task = &sec[j];
        let r = env
            .response_time_with_floor(task.wcet(), floors[j], periods[j], strategy)
            .ok_or(j)?;
        out.push(r);
        env.add_migrating(MigratingHp::new(task.wcet(), periods[j], r));
    }
    Ok(())
}

/// Algorithm 1: selects the minimum feasible period for every security
/// task of `system`, from highest to lowest priority.
///
/// # Errors
///
/// * [`SelectionError::RtUnschedulable`] if the partitioned RT tasks fail
///   Eq. 1 — the framework's legacy precondition;
/// * [`SelectionError::SecurityUnschedulable`] if some security task
///   cannot achieve `R_s ≤ T^max_s` even with every period at its maximum
///   (Algorithm 1, lines 2–4).
///
/// # Examples
///
/// ```
/// use hydra_core::period_selection::select_periods;
/// use rts_analysis::semi::CarryInStrategy;
/// use rts_model::prelude::*;
///
/// let platform = Platform::dual_core();
/// let rt = RtTaskSet::new_rate_monotonic(vec![
///     RtTask::new(Duration::from_ms(240), Duration::from_ms(500))?,
///     RtTask::new(Duration::from_ms(1120), Duration::from_ms(5000))?,
/// ]);
/// let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(1)])?;
/// let sec = SecurityTaskSet::new(vec![
///     SecurityTask::new(Duration::from_ms(5342), Duration::from_ms(10_000))?,
///     SecurityTask::new(Duration::from_ms(223), Duration::from_ms(10_000))?,
/// ]);
/// let system = System::new(platform, rt, partition, sec)?;
/// let sel = select_periods(&system, CarryInStrategy::Exhaustive)?;
/// // Periods are minimized: every period sits at its response-time floor
/// // unless a lower-priority task constrains it.
/// assert!(sel.periods[0] < Duration::from_ms(10_000));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn select_periods(
    system: &System,
    strategy: CarryInStrategy,
) -> Result<PeriodSelection, SelectionError> {
    if !rts_analysis::rt_schedulable(system) {
        return Err(SelectionError::RtUnschedulable);
    }
    let mut env = rt_environment(system);
    select_periods_with_env(system.security_tasks(), &mut env, strategy)
}

/// Algorithm 1 against a prebuilt RT interference environment.
///
/// `env` must hold exactly the pinned RT interference of the system under
/// adaptation (as built by [`rt_environment`]) and no migrating entries;
/// the function pushes and rolls back its own migrating entries and
/// leaves `env` migrating-free again on **every** exit path, so one
/// environment serves an arbitrary sequence of selection runs against
/// changing security task sets. The Eq. 1 RT-schedulability precondition
/// is the caller's responsibility — [`select_periods`] checks it per
/// call, [`crate::incremental::IncrementalSelector`] once per RT profile.
///
/// Semantically this *is* `select_periods` (the wrapper delegates here):
/// for any `sec` equal to `system.security_tasks()` and `env` freshly
/// built by [`rt_environment`], the two return identical results.
///
/// # Errors
///
/// [`SelectionError::SecurityUnschedulable`] as for [`select_periods`]
/// (the RT precondition is assumed, so `RtUnschedulable` is never
/// reported here).
pub fn select_periods_with_env(
    sec: &SecurityTaskSet,
    env: &mut Environment,
    strategy: CarryInStrategy,
) -> Result<PeriodSelection, SelectionError> {
    debug_assert_eq!(
        env.migrating_len(),
        0,
        "the RT environment must be migrating-free between selection runs"
    );
    let mut periods: Vec<Duration> = sec.max_periods();

    // Phase accounting for the benchmark reports: accumulated locally and
    // flushed to `phase_stats` once per run on every exit path.
    let mut probes: u64 = 0;
    let mut cascades: u64 = 0;
    let mut cascade_tasks: u64 = 0;

    // `env` is THE environment of the whole run: RT interference plus the
    // already-final higher-priority migrating tasks. Probes push candidate
    // entries onto it and roll them back via `truncate_migrating` — no
    // per-probe clone of the cascade.

    // `floors[j]` is a sound warm start for `R_j`: every configuration the
    // algorithm evaluates from here on has componentwise smaller-or-equal
    // periods than the one the floor was computed under, so interference
    // only grows and the true fixed point can only sit higher.
    let mut floors: Vec<Duration> = sec.iter().map(|t| t.wcet()).collect();

    // Lines 1–4: all periods at T^max; any failure is final.
    let mut response_times = Vec::with_capacity(sec.len());
    let initial = cascade_response_times(
        sec,
        env,
        0,
        &periods,
        &floors,
        strategy,
        &mut response_times,
    );
    env.truncate_migrating(0);
    cascades += 1;
    cascade_tasks += response_times.len() as u64;
    if let Err(task) = initial {
        phase_stats::record_selection(probes, cascades, cascade_tasks);
        return Err(SelectionError::SecurityUnschedulable { task });
    }
    floors.copy_from_slice(&response_times);

    // Lines 5–9: optimize one task at a time, high to low priority.
    let mut scratch: Vec<Duration> = Vec::with_capacity(sec.len());
    let mut feasible_buf: Vec<Duration> = Vec::new();
    let mut probe_floors: Vec<Duration> = Vec::with_capacity(sec.len());
    for s in 0..sec.len() {
        let r_s = response_times[s];
        let t_max = sec[s].t_max();
        // R_s depends only on higher-priority tasks, so it is already
        // final; the candidate range is [R_s, T^max_s] (Algorithm 2).
        // Memoize the most recent feasible probe: the binary search's last
        // feasible evaluation is the selected period, so its cascade
        // doubles as the line-8 refresh.
        //
        // `probe_floors` tightens the warm starts *inside* the search:
        // after a feasible probe at candidate `c`, every later probe uses
        // a candidate `< c` (the search continues strictly below its
        // incumbent), i.e. runs under componentwise smaller-or-equal
        // periods and therefore pointwise larger-or-equal interference —
        // so the response times just computed under `c` are sound floors
        // for the remaining probes, and they can only be tighter than the
        // entry floors.
        probe_floors.clear();
        probe_floors.extend_from_slice(&floors);
        let mut feasible_candidate: Option<Duration> = None;
        let best = min_feasible_period(r_s, t_max, |candidate| {
            env.add_migrating(MigratingHp::new(sec[s].wcet(), candidate, r_s));
            periods[s] = candidate;
            let ok = cascade_response_times(
                sec,
                env,
                s + 1,
                &periods,
                &probe_floors,
                strategy,
                &mut scratch,
            )
            .is_ok();
            env.truncate_migrating(s);
            probes += 1;
            cascades += 1;
            cascade_tasks += scratch.len() as u64;
            if ok {
                feasible_candidate = Some(candidate);
                std::mem::swap(&mut scratch, &mut feasible_buf);
                probe_floors[s + 1..].copy_from_slice(&feasible_buf);
            }
            ok
        })
        .expect("T^max_s is feasible: the initial full-vector check passed");
        periods[s] = best;
        env.add_migrating(MigratingHp::new(sec[s].wcet(), best, r_s));
        // Line 8: `min_feasible_period` moves its incumbent exactly on
        // feasible probes, so the last feasible probe IS `best` and its
        // memoized cascade is the refresh — nothing to recompute.
        debug_assert_eq!(feasible_candidate, Some(best));
        response_times.truncate(s + 1);
        response_times.extend_from_slice(&feasible_buf);
        // The refreshed values were computed under the widest periods any
        // later configuration will ever use again — tighten the floors.
        floors[s + 1..].copy_from_slice(&feasible_buf);
    }

    // Leave the environment migrating-free for the next run against it.
    env.truncate_migrating(0);
    phase_stats::record_selection(probes, cascades, cascade_tasks);
    Ok(PeriodSelection {
        periods: PeriodVector::from_raw(periods),
        response_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_model::{
        CoreId, Partition, Platform, RtTask, RtTaskSet, SecurityTask, SecurityTaskSet,
    };

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn rover() -> System {
        let platform = Platform::dual_core();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(240), ms(500)).unwrap(),
            RtTask::new(ms(1120), ms(5000)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(1)]).unwrap();
        let sec = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
            SecurityTask::new(ms(223), ms(10_000)).unwrap(),
        ]);
        System::new(platform, rt, partition, sec).unwrap()
    }

    #[test]
    fn rover_periods_shrink_below_t_max() {
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let sel = select_periods(&rover(), strategy).unwrap();
            assert!(sel.periods[0] < ms(10_000), "{strategy:?}");
            assert!(sel.periods[1] < ms(10_000), "{strategy:?}");
            // Periods respect the response-time floor.
            assert!(sel.periods[0] >= sel.response_times[0]);
            assert!(sel.periods[1] >= sel.response_times[1]);
        }
    }

    #[test]
    fn selected_periods_remain_schedulable() {
        let sys = rover();
        let sel = select_periods(&sys, CarryInStrategy::Exhaustive).unwrap();
        let rta = rts_analysis::SecurityRta::new(&sys, CarryInStrategy::Exhaustive);
        let r = rta
            .response_times(sel.periods.as_slice())
            .expect("selected vector must be schedulable");
        for (i, &ri) in r.iter().enumerate() {
            assert!(
                ri <= sel.periods[i],
                "task {i}: R={ri:?} > T={:?}",
                sel.periods[i]
            );
        }
    }

    #[test]
    fn highest_priority_task_reaches_its_floor_when_unconstrained() {
        // A single security task has no lower-priority constraints: its
        // period must equal its response time exactly.
        let platform = Platform::dual_core();
        let rt = RtTaskSet::new_rate_monotonic(vec![RtTask::new(ms(100), ms(400)).unwrap()]);
        let partition = Partition::new(platform, vec![CoreId::new(0)]).unwrap();
        let sec = SecurityTaskSet::new(vec![SecurityTask::new(ms(50), ms(5000)).unwrap()]);
        let sys = System::new(platform, rt, partition, sec).unwrap();
        let sel = select_periods(&sys, CarryInStrategy::Exhaustive).unwrap();
        assert_eq!(sel.periods[0], sel.response_times[0]);
        // With a free second core the task runs unimpeded: R = C.
        assert_eq!(sel.response_times[0], ms(50));
    }

    #[test]
    fn unschedulable_rt_is_rejected() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(6), ms(10)).unwrap(),
            RtTask::new(ms(5), ms(10)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(0)]).unwrap();
        let sec = SecurityTaskSet::new(vec![SecurityTask::new(ms(1), ms(100)).unwrap()]);
        let sys = System::new(platform, rt, partition, sec).unwrap();
        assert_eq!(
            select_periods(&sys, CarryInStrategy::TopDiff),
            Err(SelectionError::RtUnschedulable)
        );
    }

    #[test]
    fn oversubscribed_security_is_rejected_with_index() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![RtTask::new(ms(9), ms(10)).unwrap()]);
        let partition = Partition::new(platform, vec![CoreId::new(0)]).unwrap();
        let sec = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(1), ms(200)).unwrap(),
            SecurityTask::new(ms(150), ms(1000)).unwrap(),
        ]);
        let sys = System::new(platform, rt, partition, sec).unwrap();
        assert_eq!(
            select_periods(&sys, CarryInStrategy::TopDiff),
            Err(SelectionError::SecurityUnschedulable { task: 1 })
        );
    }

    /// The carried walk state (segment memos, top-difference carried
    /// evaluations) lives in the `Environment` across selection runs and
    /// probes. Reusing ONE environment for a whole sequence of
    /// configurations — including an infeasible one, whose rejecting
    /// probes also feed the carry — must give `Duration`s bit-identical
    /// to a cold solve per configuration, for both strategies. The rover
    /// configurations are directed at the flip case: Tripwire's binary
    /// search crosses feasible→infeasible candidates several times, so a
    /// carried state invalidated by a feasibility flip would surface as
    /// a period mismatch here.
    #[test]
    fn carried_walk_state_matches_cold_solves_across_selection_sequences() {
        let base = rover();
        let configs: Vec<SecurityTaskSet> = vec![
            SecurityTaskSet::new(vec![
                SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
                SecurityTask::new(ms(223), ms(10_000)).unwrap(),
            ]),
            // Oversubscribed: rejected, with rejecting probes run first.
            SecurityTaskSet::new(vec![
                SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
                SecurityTask::new(ms(9000), ms(10_000)).unwrap(),
            ]),
            // Back to feasible configurations of different shapes.
            SecurityTaskSet::new(vec![SecurityTask::new(ms(223), ms(10_000)).unwrap()]),
            SecurityTaskSet::new(vec![
                SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
                SecurityTask::new(ms(223), ms(10_000)).unwrap(),
                SecurityTask::new(ms(90), ms(2000)).unwrap(),
            ]),
        ];
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let mut warm = rt_environment(&base);
            for (i, sec) in configs.iter().enumerate() {
                let carried = select_periods_with_env(sec, &mut warm, strategy);
                let mut cold_env = rt_environment(&base);
                let cold = select_periods_with_env(sec, &mut cold_env, strategy);
                assert_eq!(carried, cold, "config {i}, {strategy:?}");
            }
        }
    }

    #[test]
    fn objective_is_sum_of_periods() {
        let sel = PeriodSelection {
            periods: PeriodVector::from_raw(vec![ms(10), ms(20)]),
            response_times: vec![ms(5), ms(6)],
        };
        assert_eq!(sel.objective(), ms(30));
    }

    /// The seed implementation of Algorithm 1: clones the environment and
    /// the period vector on every probe and solves every fixed point cold.
    /// Kept as the parity reference for the optimized `select_periods`
    /// (shared environment, rollback probing, warm-started cascades,
    /// memoized refresh) — both must agree exactly, error cases included.
    fn reference_select_periods(
        system: &System,
        strategy: CarryInStrategy,
    ) -> Result<PeriodSelection, SelectionError> {
        fn cascade(
            system: &System,
            mut env: Environment,
            start: usize,
            periods: &[Duration],
            strategy: CarryInStrategy,
        ) -> Result<Vec<Duration>, usize> {
            let sec = system.security_tasks();
            let mut result = Vec::with_capacity(sec.len() - start);
            for j in start..sec.len() {
                let task = &sec[j];
                let r = env
                    .response_time(task.wcet(), periods[j], strategy)
                    .ok_or(j)?;
                result.push(r);
                env.add_migrating(MigratingHp::new(task.wcet(), periods[j], r));
            }
            Ok(result)
        }
        if !rts_analysis::rt_schedulable(system) {
            return Err(SelectionError::RtUnschedulable);
        }
        let sec = system.security_tasks();
        let base_env = rt_environment(system);
        let mut periods: Vec<Duration> = sec.max_periods();
        let mut response_times = cascade(system, base_env.clone(), 0, &periods, strategy)
            .map_err(|task| SelectionError::SecurityUnschedulable { task })?;
        let mut env = base_env;
        for s in 0..sec.len() {
            let r_s = response_times[s];
            let best = min_feasible_period(r_s, sec[s].t_max(), |candidate| {
                let mut probe_env = env.clone();
                probe_env.add_migrating(MigratingHp::new(sec[s].wcet(), candidate, r_s));
                let mut probe_periods = periods.clone();
                probe_periods[s] = candidate;
                cascade(system, probe_env, s + 1, &probe_periods, strategy).is_ok()
            })
            .expect("T^max_s is feasible");
            periods[s] = best;
            env.add_migrating(MigratingHp::new(sec[s].wcet(), best, r_s));
            let lower = cascade(system, env.clone(), s + 1, &periods, strategy)
                .expect("selected period was verified feasible");
            response_times.truncate(s + 1);
            response_times.extend(lower);
        }
        Ok(PeriodSelection {
            periods: PeriodVector::from_raw(periods),
            response_times,
        })
    }

    #[test]
    fn optimized_selection_matches_reference_implementation() {
        let mut systems = vec![rover()];
        // A handful of synthetic multi-task configurations around the
        // schedulability boundary, including rejecting ones.
        for (rt_ms, sec_ms) in [
            (
                vec![(100, 400), (300, 1000)],
                vec![(50, 5000), (80, 4000), (200, 8000)],
            ),
            (
                vec![(240, 500), (1120, 5000)],
                vec![(700, 9000), (223, 10_000), (90, 2000)],
            ),
            (
                vec![(450, 1000), (450, 1000)],
                vec![(400, 3000), (400, 3000), (400, 3000)],
            ),
            (vec![(900, 1000), (50, 500)], vec![(600, 2000), (10, 900)]),
        ] {
            let platform = Platform::dual_core();
            let rt = RtTaskSet::new_rate_monotonic(
                rt_ms
                    .iter()
                    .map(|&(c, t)| RtTask::new(ms(c), ms(t)).unwrap())
                    .collect(),
            );
            let assignment = (0..rt_ms.len()).map(|i| CoreId::new(i % 2)).collect();
            let partition = Partition::new(platform, assignment).unwrap();
            let sec = SecurityTaskSet::new(
                sec_ms
                    .iter()
                    .map(|&(c, t)| SecurityTask::new(ms(c), ms(t)).unwrap())
                    .collect(),
            );
            systems.push(System::new(platform, rt, partition, sec).unwrap());
        }
        for system in &systems {
            for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
                assert_eq!(
                    select_periods(system, strategy),
                    reference_select_periods(system, strategy),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_never_selects_longer_first_period_than_topdiff() {
        // For the highest-priority security task the feasible candidate
        // sets are nested (Exhaustive response times are ≤ TopDiff's for
        // every lower-priority task at identical periods), so its selected
        // period can only be smaller or equal. Lower-priority comparisons
        // are not order-theoretic because the two runs diverge.
        let sys = rover();
        let ex = select_periods(&sys, CarryInStrategy::Exhaustive).unwrap();
        let td = select_periods(&sys, CarryInStrategy::TopDiff).unwrap();
        assert!(ex.periods[0] <= td.periods[0]);
    }
}
