//! Response-time analysis for a migrating task under semi-partitioned
//! scheduling (paper §4, Eqs. 6–8).
//!
//! The job under analysis `τ_s^k` is a *migrating* task (a security task in
//! the paper) that may run on any of the `M` cores whenever one is free of
//! higher-priority work. Higher-priority load comes from two populations:
//!
//! * **pinned tasks** (the partitioned RT tasks) — grouped per core, their
//!   workload is the synchronous-release bound of Lemma 1 / Eq. 2 and the
//!   whole group's interference is capped per core (Eq. 3);
//! * **migrating tasks** (higher-priority security tasks) — each needs a
//!   carry-in / non-carry-in distinction (Definition 4, Eq. 4/5), with at
//!   most `M − 1` of them carrying in (Lemma 2).
//!
//! The response time is the least fixed point of Eq. 7,
//! `x = ⌊Ω_s(x)/M⌋ + C_s`, maximized over the admissible carry-in
//! assignments (Eq. 8). Two strategies implement that maximization — see
//! [`CarryInStrategy`]. The fixed points themselves are found by the
//! solvers in `crate::crossing`, both built on the shared affine-segment
//! engine of [`crate::segments`], which returns the same least crossing
//! as the textbook iteration at a fraction of the cost.
//!
//! The same machinery covers **global** fixed-priority scheduling (the
//! paper's GLOBAL-TMax baseline): leave the pinned groups empty and make
//! every higher-priority task migrating.
//!
//! # Performance invariants
//!
//! [`Environment`] caches every workload curve eagerly: `pin` folds the
//! task into its core's Eq. 2/3 group curve, `add_migrating` stores the
//! task's Eq. 2/4 `(NC, CI)` pair, and `truncate_migrating` rolls
//! migrating tasks back. It also owns the reusable segment-walk scratch
//! (the per-curve [`crate::segments::SegmentState`] memos, the top-k
//! difference buffer and the Eq. 8 carry-in mask), which is why
//! [`Environment::response_time`] takes `&mut self`: a solve re-seeds and
//! advances those memos but performs **no heap allocation**. None of this
//! changes the computed values: curves are pure functions of the
//! registered tasks, the scratch never outlives one walk, and the solvers
//! read the cache exactly where they previously rebuilt it.
//!
//! Two further exact optimizations serve the period-selection hot loop:
//!
//! * **Warm starts** ([`Environment::response_time_with_floor`]): Eqs.
//!   2–5 are pointwise monotone in the higher-priority demand (shrinking
//!   any period, or adding a task, never lowers interference at any
//!   window length), so a response time computed under weaker
//!   interference lower-bounds the current one and the Eq. 7 walk may
//!   begin there instead of at `C_s`.
//! * **Incumbent pruning** (Exhaustive): an Eq. 8 assignment whose
//!   crossing condition already holds at the incumbent maximum has its
//!   least fixed point at or below that incumbent and is skipped after a
//!   single evaluation; assignments are visited in decreasing carry-in
//!   cardinality so the incumbent peaks early. The surviving walks are
//!   unchanged, hence the maximum — and every returned `Duration` — is
//!   identical to the literal enumeration.

use rts_model::time::Duration;

use crate::carry_in::SizedCombinations;
use crate::crossing::{
    crossing_holds_at, min_crossing_masked, min_crossing_topdiff, TopDiffScratch,
};
use crate::segments::{Curve, PairWalker, SegmentState};
use crate::uniproc::HpTask;

/// A higher-priority *migrating* task as seen by the analysis: its WCET,
/// its (current) period, and its already-computed worst-case response time
/// `R_i` (required by the carry-in bound of Eq. 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MigratingHp {
    /// Worst-case execution time `C_i`.
    pub wcet: Duration,
    /// Current period `T_i`.
    pub period: Duration,
    /// Worst-case response time `R_i ≤ T_i`.
    pub response_time: Duration,
}

impl MigratingHp {
    /// Creates a higher-priority migrating task descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `response_time > period` — carry-in analysis assumes the
    /// higher-priority task meets its implicit deadline.
    #[must_use]
    pub fn new(wcet: Duration, period: Duration, response_time: Duration) -> Self {
        assert!(
            response_time <= period,
            "higher-priority migrating task must have R <= T"
        );
        MigratingHp {
            wcet,
            period,
            response_time,
        }
    }

    /// The busy-period extension offset `x̄ = C − 1 + T − R` (Eq. 4), in
    /// ticks.
    fn x_bar_ticks(&self) -> u64 {
        (self.wcet.as_ticks() - 1) + (self.period.as_ticks() - self.response_time.as_ticks())
    }

    fn nc_curve(&self) -> Curve {
        Curve::Nc {
            wcet: self.wcet.as_ticks(),
            period: self.period.as_ticks(),
        }
    }

    fn ci_curve(&self) -> Curve {
        Curve::Ci {
            wcet: self.wcet.as_ticks(),
            period: self.period.as_ticks(),
            x_bar: self.x_bar_ticks(),
        }
    }
}

/// The complete higher-priority environment of one migrating task under
/// analysis: pinned tasks grouped per core plus migrating tasks.
///
/// The workload curves consumed by the fixed-point solvers (the per-core
/// Eq. 2/3 group curves and each migrating task's Eq. 2/4 pair) are
/// materialized *eagerly* as tasks are registered and kept in sync by
/// [`Environment::pin`], [`Environment::add_migrating`] and
/// [`Environment::truncate_migrating`] — the only mutators — so
/// [`Environment::response_time`] never rebuilds workload state. This is
/// what makes one environment cheaply reusable across the thousands of
/// fixed points a period-selection run solves.
///
/// # Examples
///
/// ```
/// use rts_analysis::semi::{Environment, MigratingHp, CarryInStrategy};
/// use rts_analysis::uniproc::HpTask;
/// use rts_model::time::Duration;
///
/// let t = |v| Duration::from_ticks(v);
/// let mut env = Environment::new(2);
/// env.pin(0, HpTask::new(t(2), t(10)));
/// env.pin(1, HpTask::new(t(3), t(10)));
/// env.add_migrating(MigratingHp::new(t(1), t(20), t(1)));
/// let r = env.response_time(t(4), t(100), CarryInStrategy::Exhaustive);
/// assert!(r.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Environment {
    per_core_pinned: Vec<Vec<HpTask>>,
    migrating: Vec<MigratingHp>,
    /// Cached Eq. 2/3 curve per *non-empty* core, maintained by `pin`.
    group_curves: Vec<Curve>,
    /// Core index → slot in `group_curves` (`None` for empty cores).
    core_slot: Vec<Option<usize>>,
    /// Cached `(NC, CI)` curve pair per migrating task, index-aligned
    /// with `migrating`; maintained by `add_migrating`.
    pairs: Vec<(Curve, Curve)>,
    /// Revision counter of `group_curves`, bumped by [`Environment::pin`].
    /// The top-difference solver's carried evaluations cache per-group
    /// sums keyed by this epoch (migrating pairs carry their own full
    /// keys and need no epoch).
    curve_epoch: u64,
    /// Reusable solver scratch (segment memos, top-k buffer, Eq. 8 mask,
    /// and the carried evaluations of the top-difference solver). The
    /// carried state never changes computed values — reuse is re-validated
    /// against full task keys on every walk — so it is excluded from `Eq`
    /// alongside the transient buffers.
    scratch: WalkScratch,
}

/// The buffers one Eq. 7/8 solve walks through, owned by the environment
/// so the hot paths allocate nothing. Contents are transient per walk,
/// except the top-difference scratch's carried evaluations, which are
/// self-validating (see [`TopDiffScratch`]).
#[derive(Clone, Debug, Default)]
struct WalkScratch {
    /// Per-group-curve segment memos of the masked (Eq. 8) walks,
    /// re-seeded at the start of every walk.
    states: Vec<SegmentState>,
    /// Per-migrating-pair walkers of the masked walks, re-seeded at the
    /// start of every walk.
    walkers: Vec<PairWalker>,
    /// Carry-in mask of the Eq. 8 enumeration.
    mask: Vec<bool>,
    /// Batched lanes, top-k buffer and carried evaluations of the
    /// top-difference solver.
    topdiff: TopDiffScratch,
}

/// Equality is defined over the registered tasks only — the cached curves
/// are a pure function of them.
impl PartialEq for Environment {
    fn eq(&self, other: &Self) -> bool {
        self.per_core_pinned == other.per_core_pinned && self.migrating == other.migrating
    }
}

impl Eq for Environment {}

/// How the Eq. 8 maximization over carry-in assignments is carried out.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CarryInStrategy {
    /// Literal paper semantics: enumerate every partition of the
    /// higher-priority migrating tasks into carry-in (at most `M − 1`) and
    /// non-carry-in sets, solve the Eq. 7 fixed point for each, take the
    /// maximum (Eq. 8). Exponential in the number of higher-priority
    /// migrating tasks; exact with respect to the paper's definition.
    Exhaustive,
    /// The standard implementation trick (Guan et al., RTSS 2009): at every
    /// evaluation point, charge each task its non-carry-in interference
    /// plus the `M − 1` largest non-negative differences
    /// `I^CI_i − I^NC_i`. A sound upper bound on `Exhaustive` (it picks the
    /// worst assignment *per point* rather than one assignment globally)
    /// at polynomial cost; this is what the large design-space sweeps use.
    #[default]
    TopDiff,
}

impl Environment {
    /// Creates an empty environment for an `M`-core platform.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "environment needs at least one core");
        Environment {
            per_core_pinned: vec![Vec::new(); num_cores],
            migrating: Vec::new(),
            group_curves: Vec::new(),
            core_slot: vec![None; num_cores],
            pairs: Vec::new(),
            curve_epoch: 0,
            scratch: WalkScratch::default(),
        }
    }

    /// Number of cores `M`.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.per_core_pinned.len()
    }

    /// Adds a pinned higher-priority task to `core`, updating the cached
    /// per-core group curve in place.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn pin(&mut self, core: usize, task: HpTask) -> &mut Self {
        self.curve_epoch += 1;
        self.per_core_pinned[core].push(task);
        let entry = (task.wcet.as_ticks(), task.period.as_ticks());
        match self.core_slot[core] {
            Some(slot) => {
                let Curve::Group { tasks } = &mut self.group_curves[slot] else {
                    unreachable!("core slots always point at group curves");
                };
                tasks.push(entry);
            }
            None => {
                self.core_slot[core] = Some(self.group_curves.len());
                self.group_curves.push(Curve::Group { tasks: vec![entry] });
            }
        }
        self
    }

    /// Adds a higher-priority migrating task, caching its Eq. 2/4 curve
    /// pair.
    pub fn add_migrating(&mut self, task: MigratingHp) -> &mut Self {
        self.pairs.push((task.nc_curve(), task.ci_curve()));
        self.migrating.push(task);
        self
    }

    /// Number of registered migrating tasks.
    #[must_use]
    pub fn migrating_len(&self) -> usize {
        self.migrating.len()
    }

    /// Drops every migrating task beyond the first `len`, keeping the
    /// pinned environment intact. Together with [`Environment::add_migrating`]
    /// this lets period-selection probe loops push candidate tasks onto
    /// one shared environment and roll them back, instead of cloning the
    /// whole cascade per probe. A `len` beyond the current count is a
    /// no-op.
    pub fn truncate_migrating(&mut self, len: usize) -> &mut Self {
        self.migrating.truncate(len);
        self.pairs.truncate(len);
        self
    }

    /// Worst-case response time of a migrating task with WCET `wcet`
    /// against this environment (paper Eqs. 6–8).
    ///
    /// Returns `None` if the bound exceeds `limit` (e.g. `T^max_s`), in
    /// which case the task is unschedulable for any admissible period.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is zero.
    #[must_use]
    pub fn response_time(
        &mut self,
        wcet: Duration,
        limit: Duration,
        strategy: CarryInStrategy,
    ) -> Option<Duration> {
        self.response_time_with_floor(wcet, wcet, limit, strategy)
    }

    /// [`Environment::response_time`] with a warm start: the Eq. 7 fixed
    /// points are solved from `floor` upward instead of from `wcet`.
    ///
    /// `floor` must be a *sound lower bound* on the response time being
    /// computed — e.g. a response time previously obtained for the same
    /// task under pointwise smaller interference (longer higher-priority
    /// periods, fewer higher-priority tasks). Interference monotonicity
    /// then guarantees the true least fixed point lies at or above
    /// `floor`, so the warm-started walk returns exactly the same value
    /// as the cold one while skipping the segments below `floor`.
    /// Passing `floor = wcet` (or anything smaller) reproduces
    /// [`Environment::response_time`] verbatim.
    ///
    /// Only the [`CarryInStrategy::TopDiff`] solver consumes the hint:
    /// its interference bound is one monotone function whose least
    /// crossing the floor provably under-approximates. Under
    /// [`CarryInStrategy::Exhaustive`] the floor bounds the Eq. 8
    /// *maximum*, not each individual assignment's fixed point, so the
    /// per-assignment walks ignore it (warm-starting them could skip an
    /// assignment's true crossing and corrupt the maximum); Exhaustive
    /// relies on the incumbent prune instead.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is zero.
    #[must_use]
    pub fn response_time_with_floor(
        &mut self,
        wcet: Duration,
        floor: Duration,
        limit: Duration,
        strategy: CarryInStrategy,
    ) -> Option<Duration> {
        assert!(
            !wcet.is_zero(),
            "task under analysis must have positive WCET"
        );
        let m = self.num_cores() as u64;
        let cs = wcet.as_ticks();
        let start = floor.as_ticks().max(cs);
        let lim = limit.as_ticks();
        let n = self.migrating.len();
        let k_max = self.num_cores().saturating_sub(1).min(n);
        let groups = &self.group_curves;
        let pairs = &self.pairs;
        let epoch = self.curve_epoch;
        let WalkScratch {
            states,
            walkers,
            mask,
            topdiff,
        } = &mut self.scratch;
        match strategy {
            CarryInStrategy::TopDiff => {
                min_crossing_topdiff(groups, pairs, m, cs, start, lim, epoch, topdiff)
                    .map(Duration::from_ticks)
            }
            CarryInStrategy::Exhaustive => {
                mask.clear();
                mask.resize(n, false);
                // The all-non-carry-in assignment seeds the incumbent.
                let mut worst =
                    min_crossing_masked(groups, pairs, mask, m, cs, cs, lim, states, walkers)?;
                // Decreasing cardinality: large carry-in sets usually
                // dominate Eq. 8, so the incumbent grows early and the
                // single-point prune below kills most of the remaining
                // assignments without a fixed-point walk.
                for k in (1..=k_max).rev() {
                    let mut combos = SizedCombinations::new(n, k);
                    while let Some(combo) = combos.next() {
                        for &i in combo {
                            mask[i] = true;
                        }
                        // Incumbent prune: if the crossing condition
                        // already holds at `worst`, this assignment's
                        // least fixed point is ≤ worst and cannot raise
                        // the Eq. 8 maximum — skip its solve entirely.
                        // (Exact: the maximum is unchanged either way.)
                        // The converse does NOT hold — the condition is
                        // not upward-closed in x (Ω segments can outpace
                        // the m-sloped rhs), so a failure at `worst` says
                        // nothing about crossings below it and the
                        // surviving walk must start from `cs`, not from
                        // the incumbent.
                        if !crossing_holds_at(groups, pairs, mask, m, cs, worst) {
                            let r = min_crossing_masked(
                                groups, pairs, mask, m, cs, cs, lim, states, walkers,
                            )?;
                            worst = worst.max(r);
                        }
                        for &i in combo {
                            mask[i] = false;
                        }
                    }
                }
                Some(Duration::from_ticks(worst))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carry_in::CombinationsUpTo;
    use crate::interference::cap;
    use crate::uniproc;
    use crate::workload::{carry_in, non_carry_in};

    fn t(v: u64) -> Duration {
        Duration::from_ticks(v)
    }

    /// Textbook Eq. 6/7 evaluation for a fixed carry-in mask — the slow
    /// reference the fast solver must agree with.
    fn naive_response_time(
        env: &Environment,
        wcet: Duration,
        limit: Duration,
        mask: &[bool],
    ) -> Option<Duration> {
        let m = env.num_cores() as u64;
        let mut x = wcet;
        loop {
            if x > limit {
                return None;
            }
            let rt_part: Duration = env
                .per_core_pinned
                .iter()
                .map(|core_tasks| {
                    let w: Duration = core_tasks
                        .iter()
                        .map(|task| non_carry_in(task.wcet, task.period, x))
                        .sum();
                    cap(w, x, wcet)
                })
                .sum();
            let sec_part: Duration = env
                .migrating
                .iter()
                .zip(mask)
                .map(|(task, &ci)| {
                    let w = if ci {
                        carry_in(task.wcet, task.period, task.response_time, x)
                    } else {
                        non_carry_in(task.wcet, task.period, x)
                    };
                    cap(w, x, wcet)
                })
                .sum();
            let next = (rt_part + sec_part) / m + wcet;
            if next <= x {
                return Some(x);
            }
            x = next;
        }
    }

    /// Eq. 8 by brute force over the naive per-assignment iteration.
    fn naive_exhaustive(env: &Environment, wcet: Duration, limit: Duration) -> Option<Duration> {
        let n = env.migrating.len();
        let k_max = env.num_cores().saturating_sub(1).min(n);
        let mut worst = Duration::ZERO;
        for combo in CombinationsUpTo::new(n, k_max) {
            let mut mask = vec![false; n];
            for &i in &combo {
                mask[i] = true;
            }
            worst = worst.max(naive_response_time(env, wcet, limit, &mask)?);
        }
        Some(worst)
    }

    /// On one core with no migrating hp tasks, the semi-partitioned
    /// analysis must agree with classic uniprocessor RTA.
    #[test]
    fn single_core_matches_uniproc_rta() {
        let hp = [HpTask::new(t(1), t(4)), HpTask::new(t(2), t(6))];
        let mut env = Environment::new(1);
        for h in hp {
            env.pin(0, h);
        }
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let r_semi = env.response_time(t(3), t(100), strategy);
            let r_uni = uniproc::response_time(t(3), &hp, t(100));
            assert_eq!(r_semi, r_uni, "strategy {strategy:?}");
        }
    }

    #[test]
    fn empty_environment_r_equals_c() {
        let mut env = Environment::new(4);
        assert_eq!(
            env.response_time(t(9), t(100), CarryInStrategy::Exhaustive),
            Some(t(9))
        );
    }

    #[test]
    fn parallel_rt_load_is_divided_across_cores() {
        // Two cores each with an RT task of C=2, T=4; a migrating C=2 job:
        // both cores run their RT job in [0,2), the job runs [2,4): R=4.
        let mut env = Environment::new(2);
        env.pin(0, HpTask::new(t(2), t(4)));
        env.pin(1, HpTask::new(t(2), t(4)));
        let r = env
            .response_time(t(2), t(100), CarryInStrategy::Exhaustive)
            .unwrap();
        assert_eq!(r, t(4));
    }

    #[test]
    fn fast_solver_agrees_with_naive_on_assorted_environments() {
        let mut env = Environment::new(2);
        env.pin(0, HpTask::new(t(3), t(9)));
        env.pin(0, HpTask::new(t(1), t(5)));
        env.pin(1, HpTask::new(t(4), t(11)));
        env.add_migrating(MigratingHp::new(t(2), t(8), t(5)));
        env.add_migrating(MigratingHp::new(t(1), t(6), t(3)));
        for cs in [1u64, 2, 3, 5] {
            let fast = env.response_time(t(cs), t(100_000), CarryInStrategy::Exhaustive);
            let naive = naive_exhaustive(&env, t(cs), t(100_000));
            assert_eq!(fast, naive, "cs={cs}");
        }
    }

    #[test]
    fn fast_solver_handles_the_tripwire_crawl() {
        // The rover configuration that makes the naive orbit crawl one
        // tick at a time for ~30k iterations: nearly saturated caps.
        let mut env = Environment::new(2);
        env.pin(
            0,
            HpTask::new(Duration::from_ms(240), Duration::from_ms(500)),
        );
        env.pin(
            1,
            HpTask::new(Duration::from_ms(1120), Duration::from_ms(5000)),
        );
        let fast = env.response_time(
            Duration::from_ms(5342),
            Duration::from_ms(10_000),
            CarryInStrategy::Exhaustive,
        );
        let naive = naive_exhaustive(&env, Duration::from_ms(5342), Duration::from_ms(10_000));
        assert_eq!(fast, naive);
        assert!(fast.is_some());
    }

    #[test]
    fn migrating_hp_with_carry_in_inflates_response() {
        let mut env = Environment::new(2);
        env.add_migrating(MigratingHp::new(t(2), t(10), t(2)));
        let r_exhaustive = env
            .response_time(t(3), t(100), CarryInStrategy::Exhaustive)
            .unwrap();
        let r_nc = naive_response_time(&env, t(3), t(100), &[false]).unwrap();
        let r_ci = naive_response_time(&env, t(3), t(100), &[true]).unwrap();
        assert_eq!(r_exhaustive, r_nc.max(r_ci));
        assert!(r_ci >= r_nc);
    }

    #[test]
    fn topdiff_dominates_exhaustive() {
        // TopDiff may only ever be >= Exhaustive (it is an upper bound).
        let mut env = Environment::new(2);
        env.pin(0, HpTask::new(t(3), t(9)));
        env.add_migrating(MigratingHp::new(t(2), t(8), t(5)));
        env.add_migrating(MigratingHp::new(t(1), t(6), t(3)));
        let ex = env
            .response_time(t(2), t(200), CarryInStrategy::Exhaustive)
            .unwrap();
        let td = env
            .response_time(t(2), t(200), CarryInStrategy::TopDiff)
            .unwrap();
        assert!(td >= ex);
    }

    #[test]
    fn limit_exceeded_returns_none() {
        // A (9, 10) hp task leaves 1 tick per period, so a C=2 job needs
        // x = 20; any limit below that reports unschedulable.
        let mut env = Environment::new(1);
        env.pin(0, HpTask::new(t(9), t(10)));
        assert_eq!(
            env.response_time(t(2), t(15), CarryInStrategy::TopDiff),
            None
        );
        assert_eq!(
            env.response_time(t(2), t(50), CarryInStrategy::TopDiff),
            Some(t(20))
        );
        // Zero slack never completes regardless of the limit.
        let mut full = Environment::new(1);
        full.pin(0, HpTask::new(t(10), t(10)));
        assert_eq!(
            full.response_time(t(1), t(10_000), CarryInStrategy::TopDiff),
            None
        );
    }

    #[test]
    fn more_cores_never_hurt() {
        // The same workload spread over more cores cannot increase R.
        let mk_env = |m: usize| {
            let mut env = Environment::new(m);
            env.add_migrating(MigratingHp::new(t(2), t(12), t(4)));
            env.add_migrating(MigratingHp::new(t(3), t(15), t(6)));
            env
        };
        let r2 = mk_env(2)
            .response_time(t(4), t(500), CarryInStrategy::Exhaustive)
            .unwrap();
        let r4 = mk_env(4)
            .response_time(t(4), t(500), CarryInStrategy::Exhaustive)
            .unwrap();
        assert!(r4 <= r2);
    }
}
