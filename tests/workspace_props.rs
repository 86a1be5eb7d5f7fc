//! Workspace-level property tests: invariants that span the whole stack
//! (model → analysis → algorithms), on randomly generated systems.

use hydra_c::analysis::CarryInStrategy;
use hydra_c::hydra::{select_periods, SelectionError};
use hydra_c::model::prelude::*;
use proptest::prelude::*;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// Random small systems with a feasible-by-construction RT partition.
fn arb_system() -> impl Strategy<Value = System> {
    let rt_task = (1u64..=5, 0usize..4).prop_map(|(load, pick)| {
        let period = [50u64, 100, 200, 400][pick];
        (period * load / 10).max(1)
    });
    (
        1usize..=3,
        proptest::collection::vec((rt_task, 0usize..4), 1..5),
        proptest::collection::vec((1u64..=60, 0usize..3), 1..4),
    )
        .prop_filter_map("needs feasible RT partition", |(cores, rts, secs)| {
            let platform = Platform::new(cores).ok()?;
            let rt_tasks: Vec<RtTask> = rts
                .iter()
                .map(|&(wcet, pick)| {
                    let period = [50u64, 100, 200, 400][pick];
                    RtTask::new(ms(wcet.min(period * 4 / 10).max(1)), ms(period)).ok()
                })
                .collect::<Option<_>>()?;
            let rt = RtTaskSet::new_rate_monotonic(rt_tasks);
            let partition = Partition::new(
                platform,
                (0..rt.len()).map(|i| CoreId::new(i % cores)).collect(),
            )
            .ok()?;
            let sec_tasks: Vec<SecurityTask> = secs
                .iter()
                .map(|&(wcet, pick)| {
                    let t_max = [800u64, 1500, 3000][pick];
                    SecurityTask::new(ms(wcet), ms(t_max)).ok()
                })
                .collect::<Option<_>>()?;
            let system =
                System::new(platform, rt, partition, SecurityTaskSet::new(sec_tasks)).ok()?;
            hydra_c::analysis::rt_schedulable(&system).then_some(system)
        })
}

/// Algorithm 1's output under `strategy` is valid and minimal: it
/// dominates the designer bounds, respects the WCET floors, re-verifies
/// under an independent analysis path, and no selected period can drop
/// by one tick. Minimality is Algorithm 2's promise: with the
/// higher-priority tasks at their selected periods and the
/// lower-priority ones at `T^max`, task `s` one tick below its period
/// is rejected. Feasibility is monotone in `T_s`, so one tick suffices.
fn check_selection(system: &System, strategy: CarryInStrategy) -> Result<(), TestCaseError> {
    match select_periods(system, strategy) {
        Ok(sel) => {
            let t_max = PeriodVector::at_max(system.security_tasks());
            // Dominates the designer bounds and respects WCET floors.
            prop_assert!(sel.periods.dominates(&t_max));
            for (i, task) in system.security_tasks().iter().enumerate() {
                prop_assert!(sel.periods[i] >= task.wcet());
                prop_assert!(sel.response_times[i] <= sel.periods[i]);
            }
            // Re-verification under an independent code path.
            let rta = hydra_c::analysis::SecurityRta::new(system, strategy);
            let periods = sel.periods.as_slice();
            prop_assert!(rta.schedulable(periods));
            for (s, task) in system.security_tasks().iter().enumerate() {
                let below: Vec<Duration> = periods[..s]
                    .iter()
                    .copied()
                    .chain([periods[s].saturating_sub(Duration::from_ticks(1))])
                    .chain(
                        system
                            .security_tasks()
                            .iter()
                            .skip(s + 1)
                            .map(|t| t.t_max()),
                    )
                    .collect();
                prop_assert!(
                    rta.response_times(&below).is_err(),
                    "{strategy:?}: task {s} (C = {}) admits {} below its selected {}",
                    task.wcet(),
                    below[s],
                    periods[s]
                );
            }
        }
        Err(SelectionError::RtUnschedulable) => {
            prop_assert!(false, "generator guarantees RT feasibility");
        }
        Err(SelectionError::SecurityUnschedulable { task }) => {
            prop_assert!(task < system.security_tasks().len());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selection_output_is_always_valid(system in arb_system()) {
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            check_selection(&system, strategy)?;
        }
    }

    #[test]
    fn selection_is_idempotent_at_its_own_fixpoint(system in arb_system()) {
        // Re-running Algorithm 1 with T^max tightened to the selected
        // vector reproduces the selected vector exactly: the greedy is a
        // fixpoint of itself.
        let Ok(sel) = select_periods(&system, CarryInStrategy::Exhaustive) else {
            return Ok(());
        };
        let tightened = SecurityTaskSet::new(
            system
                .security_tasks()
                .iter()
                .zip(sel.periods.iter())
                .map(|(task, &t_star)| {
                    SecurityTask::new(task.wcet(), t_star).expect("T* >= C")
                })
                .collect(),
        );
        let tightened_system = System::new(
            system.platform(),
            system.rt_tasks().clone(),
            system.partition().clone(),
            tightened,
        )
        .expect("same shape");
        let again = select_periods(&tightened_system, CarryInStrategy::Exhaustive)
            .expect("the selected vector is schedulable");
        prop_assert_eq!(again.periods, sel.periods);
    }

    #[test]
    fn relaxing_t_max_never_hurts_admission(system in arb_system()) {
        // If the system is admitted, doubling every T^max keeps it
        // admitted (monotonicity of the admission test in the bounds).
        let before = select_periods(&system, CarryInStrategy::TopDiff);
        let relaxed = SecurityTaskSet::new(
            system
                .security_tasks()
                .iter()
                .map(|t| SecurityTask::new(t.wcet(), t.t_max() * 2).expect("valid"))
                .collect(),
        );
        let relaxed_system = System::new(
            system.platform(),
            system.rt_tasks().clone(),
            system.partition().clone(),
            relaxed,
        )
        .expect("same shape");
        let after = select_periods(&relaxed_system, CarryInStrategy::TopDiff);
        if before.is_ok() {
            prop_assert!(after.is_ok(), "relaxing bounds broke admission");
        }
    }

    #[test]
    fn objective_never_exceeds_the_no_adaptation_point(system in arb_system()) {
        if let Ok(sel) = select_periods(&system, CarryInStrategy::TopDiff) {
            let sum_t_max: Duration = system
                .security_tasks()
                .iter()
                .map(|t| t.t_max())
                .sum();
            prop_assert!(sel.objective() <= sum_t_max);
        }
    }
}
