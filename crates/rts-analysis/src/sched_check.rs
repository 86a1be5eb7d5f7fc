//! Whole-system schedulability checks over an [`rts_model::System`].
//!
//! Bridges the task model to the low-level analyses:
//!
//! * [`rt_response_times`] / [`rt_schedulable`] — per-core Eq. 1 RTA of the
//!   partitioned RT tasks (the paper's standing assumption on the legacy
//!   system);
//! * [`SecurityRta`] — response times of the migrating security tasks for a
//!   concrete period vector, via the Eq. 6–8 machinery, computed in
//!   priority order so each task's carry-in bound can use its
//!   higher-priority peers' already-known response times.

use rts_model::time::Duration;
use rts_model::System;

use crate::semi::{CarryInStrategy, Environment, MigratingHp};
use crate::uniproc::{self, HpTask};

/// Response time of every RT task on its assigned core (paper Eq. 1).
///
/// Returns `None` if any RT task misses its deadline — such a system
/// violates the paper's baseline assumption and cannot host security tasks.
/// Response times are returned in RT-task priority order.
#[must_use]
pub fn rt_response_times(system: &System) -> Option<Vec<Duration>> {
    let rt = system.rt_tasks();
    let mut result = Vec::with_capacity(rt.len());
    for (i, task) in rt.iter().enumerate() {
        let core = system.partition().core_of(i);
        let hp: Vec<HpTask> = system
            .rt_tasks_on(core)
            .into_iter()
            .filter(|&j| j < i)
            .map(|j| HpTask::new(rt[j].wcet(), rt[j].period()))
            .collect();
        let r = uniproc::response_time(task.wcet(), &hp, task.deadline())?;
        result.push(r);
    }
    Some(result)
}

/// Returns `true` if every partitioned RT task meets its deadline (Eq. 1).
#[must_use]
pub fn rt_schedulable(system: &System) -> bool {
    rt_response_times(system).is_some()
}

/// Analyzer for the migrating security tasks of a [`System`].
///
/// Construction captures the partitioned RT interference (which does not
/// depend on the security periods); [`SecurityRta::response_times`] then
/// evaluates any candidate period vector. This split keeps the inner loop
/// of the period-selection algorithms allocation-light.
///
/// # Examples
///
/// ```
/// use rts_analysis::sched_check::SecurityRta;
/// use rts_analysis::semi::CarryInStrategy;
/// use rts_model::prelude::*;
///
/// let platform = Platform::dual_core();
/// let rt = RtTaskSet::new_rate_monotonic(vec![
///     RtTask::new(Duration::from_ms(240), Duration::from_ms(500))?,
/// ]);
/// let partition = Partition::new(platform, vec![CoreId::new(0)])?;
/// let sec = SecurityTaskSet::new(vec![
///     SecurityTask::new(Duration::from_ms(223), Duration::from_ms(10_000))?,
/// ]);
/// let system = System::new(platform, rt, partition, sec)?;
/// let rta = SecurityRta::new(&system, CarryInStrategy::TopDiff);
/// let r = rta.response_times(&[Duration::from_ms(10_000)]).unwrap();
/// // One free core: the checker's response time is its own WCET.
/// assert_eq!(r[0], Duration::from_ms(223));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SecurityRta<'a> {
    system: &'a System,
    strategy: CarryInStrategy,
    base_env: Environment,
}

impl<'a> SecurityRta<'a> {
    /// Builds the analyzer for `system`, pre-registering the RT
    /// interference environment.
    #[must_use]
    pub fn new(system: &'a System, strategy: CarryInStrategy) -> Self {
        let mut base_env = Environment::new(system.num_cores());
        for core in system.platform().cores() {
            for idx in system.rt_tasks_on(core) {
                let task = &system.rt_tasks()[idx];
                base_env.pin(core.index(), HpTask::new(task.wcet(), task.period()));
            }
        }
        SecurityRta {
            system,
            strategy,
            base_env,
        }
    }

    /// The carry-in strategy in use.
    #[must_use]
    pub fn strategy(&self) -> CarryInStrategy {
        self.strategy
    }

    /// Worst-case response times of all security tasks under the period
    /// vector `periods` (index-aligned with the security task set), in
    /// priority order.
    ///
    /// A security task `τ_s` is schedulable iff `R_s ≤ T_s` (implicit
    /// deadline); the computation therefore uses each task's own period as
    /// the fixed-point limit.
    ///
    /// # Errors
    ///
    /// Returns `Err(s)` with the index of the highest-priority
    /// unschedulable security task.
    ///
    /// # Panics
    ///
    /// Panics if `periods.len()` differs from the number of security tasks.
    pub fn response_times(&self, periods: &[Duration]) -> Result<Vec<Duration>, usize> {
        let sec = self.system.security_tasks();
        assert_eq!(
            periods.len(),
            sec.len(),
            "period vector length must match the security task count"
        );
        let mut env = self.base_env.clone();
        let mut result = Vec::with_capacity(sec.len());
        for (s, task) in sec.iter().enumerate() {
            let r = env
                .response_time(task.wcet(), periods[s], self.strategy)
                .ok_or(s)?;
            result.push(r);
            env.add_migrating(MigratingHp::new(task.wcet(), periods[s], r));
        }
        Ok(result)
    }

    /// Returns `true` if every security task meets `R_s ≤ T_s` under
    /// `periods`.
    #[must_use]
    pub fn schedulable(&self, periods: &[Duration]) -> bool {
        self.response_times(periods).is_ok()
    }
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
    fn rover_rt_tasks_are_schedulable() {
        let sys = rover();
        let r = rt_response_times(&sys).expect("rover RT tasks are schedulable");
        // Each RT task is alone on its core: R = C.
        assert_eq!(r, vec![ms(240), ms(1120)]);
        assert!(rt_schedulable(&sys));
    }

    #[test]
    fn rover_security_tasks_fit_at_t_max() {
        let sys = rover();
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let rta = SecurityRta::new(&sys, strategy);
            let r = rta
                .response_times(&[ms(10_000), ms(10_000)])
                .expect("rover security tasks schedulable at T^max");
            assert!(r[0] <= ms(10_000));
            assert!(r[1] <= ms(10_000));
            // Tripwire (C=5342) must absorb RT interference: R > C.
            assert!(r[0] > ms(5342));
        }
    }

    #[test]
    fn overloaded_security_task_reports_index() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![RtTask::new(ms(9), ms(10)).unwrap()]);
        let partition = Partition::new(platform, vec![CoreId::new(0)]).unwrap();
        let sec = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(1), ms(100)).unwrap(),
            SecurityTask::new(ms(50), ms(200)).unwrap(),
        ]);
        let sys = System::new(platform, rt, partition, sec).unwrap();
        let rta = SecurityRta::new(&sys, CarryInStrategy::TopDiff);
        // Task 0 fits into the 10% slack (R = 10 at worst), task 1 cannot.
        assert_eq!(rta.response_times(&[ms(100), ms(200)]), Err(1));
        assert!(!rta.schedulable(&[ms(100), ms(200)]));
    }

    #[test]
    fn unschedulable_rt_returns_none() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(6), ms(10)).unwrap(),
            RtTask::new(ms(5), ms(10)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(0)]).unwrap();
        let sys = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
        assert_eq!(rt_response_times(&sys), None);
        assert!(!rt_schedulable(&sys));
    }

    #[test]
    fn shorter_hp_periods_increase_lp_response_time() {
        let sys = rover();
        let rta = SecurityRta::new(&sys, CarryInStrategy::TopDiff);
        let relaxed = rta.response_times(&[ms(10_000), ms(10_000)]).unwrap();
        // Shrink tripwire's period to exactly its response time (the
        // smallest feasible value): the kmod checker's response time can
        // only grow under the denser high-priority load.
        let tight = rta.response_times(&[relaxed[0], ms(10_000)]).unwrap();
        assert!(tight[1] >= relaxed[1]);
    }
}
