//! Incremental re-selection: Algorithm 1 as a *query*, not a batch job.
//!
//! An online admission service re-runs period selection every time a
//! tenant's security workload changes — a monitor arrives or departs, a
//! WCET is re-profiled, a reactive monitor escalates or calms down. Two
//! observations make that cheap without giving up one bit of exactness:
//!
//! 1. **The RT side is immutable per tenant.** The legacy RT tasks and
//!    their partition never change at runtime (that is the paper's
//!    framing: security is integrated *around* a frozen legacy system).
//!    So the RT interference environment ([`rt_environment`]) and the
//!    Eq. 1 precondition are computed once per RT profile — once per
//!    selector, or once per identity for every selector attached to one
//!    [`SharedSelectionStore`] — and reused for every request. A
//!    selector that runs Algorithm 1 clones that environment once, on
//!    its first miss, into a workspace of its own, and hands the
//!    workspace to [`select_periods_with_env`] on every later miss; a
//!    selector answered only by memos never builds one.
//! 2. **Security configurations recur.** A reactive monitor oscillates
//!    between Passive and Active; each flip re-visits a configuration
//!    that was already admitted before. Memoizing selection outcomes by a
//!    *fingerprint* of the security configuration turns the steady-state
//!    mode churn into constant-time lookups, with full Algorithm 1 runs
//!    only on genuinely new configurations.
//!
//! # The parity guarantee
//!
//! Every answer an [`IncrementalSelector`] produces is **bit-identical**
//! to a from-scratch [`select_periods`](crate::select_periods) run on the
//! equivalent [`System`]. This is a guarantee by construction, not by
//! testing alone:
//!
//! * cache misses execute the *same* code path a fresh run would
//!   (`select_periods_with_env` over a workspace equal to a freshly
//!   built environment — it is cloned from the profile's environment,
//!   which nothing walks, [`Environment`] equality is defined over the
//!   registered tasks, and selection runs leave the workspace
//!   migrating-free);
//! * cache hits return the stored [`SolvedSelection`] of a miss — the
//!   same allocation, not a copy;
//! * the memo key is the **exact** configuration — every `(C_s, T^max_s)`
//!   tick pair in priority order ([`SecFingerprint`]) — so two
//!   configurations collide only if they are equal, in which case
//!   Algorithm 1 is a pure function of the key.
//!
//! The `rts-adapt` crate's seeded parity battery asserts this end to end
//! for both carry-in strategies.
//!
//! # One entry, held by reference
//!
//! Each solved configuration is one [`SolvedSelection`]: the exact
//! configuration plus Algorithm 1's answer. The per-tenant memo and an
//! attached [`SharedSelectionStore`] both hold it through an [`Arc`], so
//! tenants of one RT profile that visit the same configuration share one
//! allocation. The memo is a set of those references, looked up by the
//! exact configuration read straight from the [`SecurityTaskSet`]: a
//! hit builds no [`SecFingerprint`] and copies no selection.
//!
//! [`rt_environment`]: crate::period_selection::rt_environment

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rts_analysis::semi::{CarryInStrategy, Environment};
use rts_model::{SecurityTaskSet, System};

use crate::error::SelectionError;
use crate::period_selection::{select_periods_with_env, PeriodSelection};
use crate::shared_store::{RtProfile, SharedSelectionStore};

/// The exact identity of a security configuration: the `(C_s, T^max_s)`
/// tick pairs in priority order.
///
/// This is the memo key of [`IncrementalSelector`]. Because it carries
/// the full configuration (not a lossy hash), distinct configurations can
/// never alias a cache entry; [`SecFingerprint::digest`] additionally
/// offers a 64-bit FNV-1a digest for wire protocols and logs, where a
/// compact correlation token is wanted and collisions are harmless.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SecFingerprint(Vec<(u64, u64)>);

impl SecFingerprint {
    /// Fingerprints `sec` (WCET and `T^max` ticks per task, in priority
    /// order).
    #[must_use]
    pub fn of(sec: &SecurityTaskSet) -> Self {
        SecFingerprint(
            sec.iter()
                .map(|t| (t.wcet().as_ticks(), t.t_max().as_ticks()))
                .collect(),
        )
    }

    /// Number of security tasks in the fingerprinted configuration.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the configuration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// 64-bit FNV-1a digest of the configuration — a compact, stable
    /// correlation token (for responses and logs; the memo itself is
    /// keyed by the exact configuration, never by this digest).
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &(c, t) in &self.0 {
            for byte in c.to_le_bytes().into_iter().chain(t.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        }
        h
    }
}

/// Algorithm 1's answer for one exact security configuration, with the
/// configuration it answers: the one value the per-tenant memo and the
/// [`SharedSelectionStore`] hold, each through an [`Arc`]. Rejections are
/// entries too, so re-asking about an infeasible configuration is a hit.
#[derive(PartialEq, Eq, Debug)]
pub struct SolvedSelection {
    config: SecFingerprint,
    digest: u64,
    outcome: Result<PeriodSelection, SelectionError>,
}

impl SolvedSelection {
    /// Pairs `config` with Algorithm 1's `outcome` for it.
    #[must_use]
    pub(crate) fn new(
        config: SecFingerprint,
        outcome: Result<PeriodSelection, SelectionError>,
    ) -> Self {
        SolvedSelection {
            digest: config.digest(),
            config,
            outcome,
        }
    }

    /// The exact configuration this entry answers.
    #[must_use]
    pub fn config(&self) -> &SecFingerprint {
        &self.config
    }

    /// [`SecFingerprint::digest`] of the configuration, computed once.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Algorithm 1's answer: the selected periods and response times, or
    /// why the configuration is not schedulable.
    ///
    /// # Errors
    ///
    /// The [`SelectionError`] a from-scratch
    /// [`select_periods`](crate::select_periods) run reports.
    pub fn outcome(&self) -> Result<&PeriodSelection, SelectionError> {
        self.outcome.as_ref().map_err(|e| *e)
    }
}

/// A configuration as the per-tenant memo hashes and compares it: its
/// `(C_s, T^max_s)` tick pairs in priority order, read from a stored
/// [`SecFingerprint`] or straight from the [`SecurityTaskSet`] being
/// asked about.
trait ConfigPairs {
    fn count(&self) -> usize;
    fn pair(&self, i: usize) -> (u64, u64);
}

impl ConfigPairs for SecFingerprint {
    fn count(&self) -> usize {
        self.0.len()
    }

    fn pair(&self, i: usize) -> (u64, u64) {
        self.0[i]
    }
}

impl ConfigPairs for SecurityTaskSet {
    fn count(&self) -> usize {
        self.len()
    }

    fn pair(&self, i: usize) -> (u64, u64) {
        let task = &self[i];
        (task.wcet().as_ticks(), task.t_max().as_ticks())
    }
}

impl Hash for dyn ConfigPairs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.count());
        for i in 0..self.count() {
            let (c, t) = self.pair(i);
            state.write_u64(c);
            state.write_u64(t);
        }
    }
}

impl PartialEq for dyn ConfigPairs {
    fn eq(&self, other: &Self) -> bool {
        self.count() == other.count() && (0..self.count()).all(|i| self.pair(i) == other.pair(i))
    }
}

impl Eq for dyn ConfigPairs {}

/// One per-tenant memo slot: a shared entry, hashed and compared by its
/// exact configuration (as [`ConfigPairs`], so a [`SecurityTaskSet`]
/// finds it without building a [`SecFingerprint`]).
#[derive(Clone, Debug)]
struct MemoSlot(Arc<SolvedSelection>);

impl Borrow<dyn ConfigPairs> for MemoSlot {
    fn borrow(&self) -> &(dyn ConfigPairs + 'static) {
        &self.0.config
    }
}

impl Hash for MemoSlot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Borrow::<dyn ConfigPairs>::borrow(self).hash(state);
    }
}

impl PartialEq for MemoSlot {
    fn eq(&self, other: &Self) -> bool {
        self.0.config == other.0.config
    }
}

impl Eq for MemoSlot {}

/// Per-tenant memo size bound: at this many distinct configurations the
/// memo is flushed before the next insert, keeping a long-running
/// service's memory bounded no matter how many fresh fingerprints a
/// WCET-re-profiling stream mints. Measured with a counting allocator,
/// a memo slot costs its tenant about 18 B (one pointer in a hash set),
/// and the [`SolvedSelection`] behind it 96 B plus 32 B per monitor
/// (224 B at four). Tenants and the store that hold one entry share its
/// cost, but an entry only one tenant has seen costs that tenant a whole
/// entry: the worst case is just under 1 MiB per tenant at four monitors
/// (4 096 × 242 B).
const MEMO_CAPACITY: usize = 4096;

/// Cache statistics of one [`IncrementalSelector`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoStats {
    /// Requests answered from the tenant's own memo.
    pub hits: u64,
    /// Requests answered from an attached cross-tenant
    /// [`SharedSelectionStore`] (a structurally identical tenant had
    /// already solved the configuration). `0` unless a store is attached.
    pub shared_hits: u64,
    /// Requests that ran Algorithm 1.
    pub misses: u64,
    /// Distinct configurations currently cached.
    pub entries: usize,
    /// Times the memo hit its capacity bound and was flushed.
    pub flushes: u64,
}

impl std::ops::AddAssign for MemoStats {
    fn add_assign(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.shared_hits += other.shared_hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.flushes += other.flushes;
    }
}

impl std::iter::Sum for MemoStats {
    fn sum<I: Iterator<Item = MemoStats>>(iter: I) -> Self {
        let mut total = MemoStats::default();
        for stats in iter {
            total += stats;
        }
        total
    }
}

impl MemoStats {
    /// Fraction of requests answered without running Algorithm 1 —
    /// per-tenant and shared hits combined — in `[0, 1]` (`0` before any
    /// request).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.shared_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// A per-tenant Algorithm 1 query engine: fixed RT side, memoized
/// selection over changing security task sets.
///
/// # Examples
///
/// ```
/// use hydra_core::incremental::IncrementalSelector;
/// use hydra_core::select_periods;
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
/// ]);
/// let system = System::new(platform, rt, partition, sec.clone())?;
///
/// let mut selector = IncrementalSelector::new(&system, CarryInStrategy::Exhaustive);
/// let incremental = selector.select(&sec);
/// let from_scratch = select_periods(&system, CarryInStrategy::Exhaustive)?;
/// assert_eq!(incremental.outcome()?, &from_scratch); // the parity guarantee
/// assert_eq!(selector.stats().misses, 1);
/// let again = selector.select(&sec); // memo hit: the same entry
/// assert!(std::sync::Arc::ptr_eq(&again, &incremental));
/// assert_eq!(selector.stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalSelector {
    /// The frozen RT side: the attached store's profile for this
    /// identity, or the selector's own.
    profile: Arc<RtProfile>,
    /// The environment Algorithm 1 walks, cloned from the profile's on
    /// the first miss and kept for the selector's life. Never shared:
    /// its walk scratch carries evaluations keyed by a curve epoch that
    /// is unique only within one environment.
    workspace: Option<Box<Environment>>,
    strategy: CarryInStrategy,
    memo: HashSet<MemoSlot>,
    shared: Option<Arc<SharedSelectionStore>>,
    hits: u64,
    shared_hits: u64,
    misses: u64,
    flushes: u64,
}

impl IncrementalSelector {
    /// Builds the selector for `system`'s platform, RT tasks and
    /// partition (its security task set is irrelevant here — pass each
    /// configuration to [`IncrementalSelector::select`]). The RT
    /// environment and the Eq. 1 precondition are evaluated once, now.
    #[must_use]
    pub fn new(system: &System, strategy: CarryInStrategy) -> Self {
        IncrementalSelector::with_profile(Arc::new(RtProfile::of(system)), strategy, None)
    }

    /// Like [`IncrementalSelector::new`] followed by
    /// [`IncrementalSelector::attach_shared`], except that the RT side
    /// comes from `store`: when a live selector of an equal
    /// [`SystemIdentity`](crate::SystemIdentity) is attached to it, this
    /// one shares that selector's RT environment and Eq. 1 verdict and
    /// builds neither.
    #[must_use]
    pub fn with_store(
        system: &System,
        strategy: CarryInStrategy,
        store: Arc<SharedSelectionStore>,
    ) -> Self {
        IncrementalSelector::with_profile(store.profile(system), strategy, Some(store))
    }

    fn with_profile(
        profile: Arc<RtProfile>,
        strategy: CarryInStrategy,
        shared: Option<Arc<SharedSelectionStore>>,
    ) -> Self {
        IncrementalSelector {
            profile,
            workspace: None,
            strategy,
            memo: HashSet::new(),
            shared,
            hits: 0,
            shared_hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Attaches a cross-tenant [`SharedSelectionStore`]. From now on a
    /// per-tenant memo miss consults the store before running Algorithm 1
    /// (keyed by this tenant's exact
    /// [`SystemIdentity`](crate::SystemIdentity), the exact
    /// configuration and the strategy — see the `shared_store` module
    /// docs for why a store hit is bit-identical to a cold solve), and
    /// every solved configuration is published back for structurally
    /// identical tenants. The selector takes the store's RT profile for
    /// its identity, or registers its own there. Detached selectors
    /// behave exactly as before.
    pub fn attach_shared(&mut self, store: Arc<SharedSelectionStore>) {
        self.profile = store.share(&self.profile);
        self.shared = Some(store);
    }

    /// Whether the frozen RT side passed Eq. 1. When `false`, every
    /// [`IncrementalSelector::select`] call reports
    /// [`SelectionError::RtUnschedulable`], exactly like
    /// [`select_periods`](crate::select_periods) would.
    #[must_use]
    pub fn rt_schedulable(&self) -> bool {
        self.profile.rt_ok
    }

    /// The carry-in strategy every selection runs under.
    #[must_use]
    pub fn strategy(&self) -> CarryInStrategy {
        self.strategy
    }

    /// Algorithm 1 for `sec` against the tenant's RT side — memoized,
    /// with the module-level parity guarantee. The answer is the memo's
    /// entry for the configuration (shared, never copied); its
    /// [`SolvedSelection::outcome`] is exactly the
    /// [`select_periods`](crate::select_periods) result for the
    /// equivalent system. Rejections are memoized too: re-asking about
    /// a known-infeasible configuration is also a cache hit.
    pub fn select(&mut self, sec: &SecurityTaskSet) -> Arc<SolvedSelection> {
        if !self.profile.rt_ok {
            return Arc::new(SolvedSelection::new(
                SecFingerprint::of(sec),
                Err(SelectionError::RtUnschedulable),
            ));
        }
        if let Some(MemoSlot(cached)) = self.memo.get(sec as &dyn ConfigPairs) {
            self.hits += 1;
            return Arc::clone(cached);
        }
        let config = SecFingerprint::of(sec);
        // A structurally identical tenant may have solved this exact
        // configuration already; adopt its entry into the per-tenant
        // memo so later revisits are local hits.
        let shared = self
            .shared
            .as_ref()
            .and_then(|shared| shared.lookup(&self.profile, &config, self.strategy));
        let solved = if let Some(solved) = shared {
            self.shared_hits += 1;
            solved
        } else {
            self.misses += 1;
            let profile = &self.profile;
            let env = self
                .workspace
                .get_or_insert_with(|| Box::new(profile.template.clone()));
            // Unwind safety for the long-lived workspace: a panic inside
            // selection (analysis assertion, arithmetic overflow) would
            // leak the cascade's migrating entries into it, silently
            // inflating interference for every later selection on this
            // tenant. Restore the migrating-free invariant before
            // re-raising so a caller that contains the panic keeps a
            // correct engine.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                select_periods_with_env(sec, env, self.strategy)
            }))
            .unwrap_or_else(|payload| {
                env.truncate_migrating(0);
                std::panic::resume_unwind(payload);
            });
            let solved = Arc::new(SolvedSelection::new(config, outcome));
            if let Some(shared) = &self.shared {
                shared.publish(&self.profile, self.strategy, Arc::clone(&solved));
            }
            solved
        };
        // Bound the memo: a long-running tenant whose WCETs are
        // re-profiled forever mints unboundedly many fingerprints, and an
        // unbounded set would grow the service's memory without limit.
        // Flushing wholesale is correct (entries are pure functions of
        // the key) and the steady-state working set — the mode hypercube
        // of the current monitor table — re-warms within a few misses.
        if self.memo.len() >= MEMO_CAPACITY {
            self.memo.clear();
            self.flushes += 1;
        }
        self.memo.insert(MemoSlot(Arc::clone(&solved)));
        solved
    }

    /// Memo statistics so far.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            shared_hits: self.shared_hits,
            misses: self.misses,
            entries: self.memo.len(),
            flushes: self.flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select_periods;
    use rts_model::time::Duration;
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

    fn with_security(base: &System, sec: SecurityTaskSet) -> System {
        System::new(
            base.platform(),
            base.rt_tasks().clone(),
            base.partition().clone(),
            sec,
        )
        .unwrap()
    }

    #[test]
    fn matches_from_scratch_across_reconfigurations() {
        let base = rover();
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let mut selector = IncrementalSelector::new(&base, strategy);
            let configs = [
                vec![(5342, 10_000), (223, 10_000)],
                vec![(223, 10_000)],
                vec![(5342, 10_000), (223, 10_000), (90, 2000)],
                vec![(5342, 10_000), (223, 10_000)], // revisit: memo hit
            ];
            for (i, cfg) in configs.iter().enumerate() {
                let sec = SecurityTaskSet::new(
                    cfg.iter()
                        .map(|&(c, t)| SecurityTask::new(ms(c), ms(t)).unwrap())
                        .collect(),
                );
                let incremental = selector.select(&sec);
                let scratch = select_periods(&with_security(&base, sec), strategy);
                assert_eq!(
                    incremental.outcome(),
                    scratch.as_ref().map_err(|e| *e),
                    "config {i}, {strategy:?}"
                );
            }
            let stats = selector.stats();
            assert_eq!((stats.hits, stats.misses), (1, 3), "{strategy:?}");
            assert_eq!(stats.entries, 3);
        }
    }

    #[test]
    fn rejections_are_memoized_and_exact() {
        let base = rover();
        let mut selector = IncrementalSelector::new(&base, CarryInStrategy::TopDiff);
        // Oversubscribed: the second task cannot fit.
        let sec = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
            SecurityTask::new(ms(9000), ms(10_000)).unwrap(),
        ]);
        let expected = select_periods(&with_security(&base, sec.clone()), CarryInStrategy::TopDiff);
        let expected = expected.unwrap_err();
        assert_eq!(selector.select(&sec).outcome(), Err(expected));
        assert_eq!(selector.select(&sec).outcome(), Err(expected));
        let stats = selector.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A rejection leaves the environment clean: a feasible config
        // still gets the from-scratch answer afterwards.
        let ok = SecurityTaskSet::new(vec![SecurityTask::new(ms(223), ms(10_000)).unwrap()]);
        assert_eq!(
            selector.select(&ok).outcome(),
            select_periods(&with_security(&base, ok.clone()), CarryInStrategy::TopDiff)
                .as_ref()
                .map_err(|e| *e)
        );
    }

    #[test]
    fn rt_infeasible_tenant_always_rejects() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(6), ms(10)).unwrap(),
            RtTask::new(ms(5), ms(10)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(0)]).unwrap();
        let sys = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
        let mut selector = IncrementalSelector::new(&sys, CarryInStrategy::TopDiff);
        assert!(!selector.rt_schedulable());
        let sec = SecurityTaskSet::new(vec![SecurityTask::new(ms(1), ms(100)).unwrap()]);
        assert_eq!(
            selector.select(&sec).outcome(),
            Err(SelectionError::RtUnschedulable)
        );
        assert_eq!(selector.stats().misses, 0, "no Algorithm 1 run needed");
    }

    #[test]
    fn fingerprint_is_exact_and_digest_is_stable() {
        let a = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(10), ms(100)).unwrap(),
            SecurityTask::new(ms(20), ms(200)).unwrap(),
        ]);
        // Same multiset, different priority order: different config.
        let b = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(20), ms(200)).unwrap(),
            SecurityTask::new(ms(10), ms(100)).unwrap(),
        ]);
        let fa = SecFingerprint::of(&a);
        let fb = SecFingerprint::of(&b);
        assert_ne!(fa, fb);
        assert_eq!(fa, SecFingerprint::of(&a));
        assert_eq!(fa.digest(), SecFingerprint::of(&a).digest());
        assert_ne!(fa.digest(), fb.digest());
        assert_eq!(fa.len(), 2);
        assert!(!fa.is_empty());
        assert!(SecFingerprint::of(&SecurityTaskSet::default()).is_empty());
    }

    #[test]
    fn memo_is_bounded_by_capacity_flushes() {
        let base = rover();
        let mut selector = IncrementalSelector::new(&base, CarryInStrategy::TopDiff);
        // A WCET-re-profiling stream: every configuration is fresh, so
        // without the flush the memo would reach 2 × MEMO_CAPACITY.
        for wcet_ticks in 1..=(2 * MEMO_CAPACITY as u64) {
            let sec = SecurityTaskSet::new(vec![SecurityTask::new(
                Duration::from_ticks(wcet_ticks),
                ms(10_000),
            )
            .unwrap()]);
            let incremental = selector.select(&sec);
            // Spot-check parity across a flush boundary.
            if wcet_ticks % 1024 == 0 {
                assert_eq!(
                    incremental.outcome(),
                    select_periods(&with_security(&base, sec), CarryInStrategy::TopDiff)
                        .as_ref()
                        .map_err(|e| *e)
                );
            }
        }
        let stats = selector.stats();
        assert!(stats.entries <= MEMO_CAPACITY);
        assert_eq!(stats.flushes, 1, "2×capacity distinct configs flush once");
        assert_eq!(stats.misses, 2 * MEMO_CAPACITY as u64);
    }

    #[test]
    fn shared_store_answers_identical_tenants_without_solving() {
        use crate::shared_store::SharedSelectionStore;

        let base = rover();
        let store = SharedSelectionStore::new();
        let mut a = IncrementalSelector::new(&base, CarryInStrategy::TopDiff);
        let mut b = IncrementalSelector::new(&rover(), CarryInStrategy::TopDiff);
        a.attach_shared(Arc::clone(&store));
        b.attach_shared(Arc::clone(&store));
        let sec = SecurityTaskSet::new(vec![
            SecurityTask::new(ms(5342), ms(10_000)).unwrap(),
            SecurityTask::new(ms(223), ms(10_000)).unwrap(),
        ]);
        let scratch = select_periods(&base, CarryInStrategy::TopDiff).unwrap();

        // A solves and publishes; B adopts A's entry without running
        // Algorithm 1.
        let solved = a.select(&sec);
        assert_eq!(solved.outcome(), Ok(&scratch));
        let adopted = b.select(&sec);
        assert!(Arc::ptr_eq(&adopted, &solved), "one entry, shared");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.hits, sa.shared_hits, sa.misses), (0, 0, 1));
        assert_eq!((sb.hits, sb.shared_hits, sb.misses), (0, 1, 0));
        // The adopted entry landed in B's own memo: revisits are local.
        assert!(Arc::ptr_eq(&b.select(&sec), &solved));
        assert_eq!(b.stats().hits, 1);
        assert!((sb.hit_rate() - 1.0).abs() < f64::EPSILON);

        // A structurally different tenant never aliases the entry.
        let platform = Platform::dual_core();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(241), ms(500)).unwrap(),
            RtTask::new(ms(1120), ms(5000)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(1)]).unwrap();
        let other = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
        let mut c = IncrementalSelector::new(&other, CarryInStrategy::TopDiff);
        c.attach_shared(Arc::clone(&store));
        assert_eq!(
            c.select(&sec).outcome(),
            select_periods(&with_security(&other, sec), CarryInStrategy::TopDiff)
                .as_ref()
                .map_err(|e| *e)
        );
        let sc = c.stats();
        assert_eq!((sc.shared_hits, sc.misses), (0, 1));
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn equal_systems_on_one_store_share_one_rt_profile() {
        use crate::shared_store::SharedSelectionStore;

        let store = SharedSelectionStore::new();
        let strategy = CarryInStrategy::TopDiff;
        let a = IncrementalSelector::with_store(&rover(), strategy, Arc::clone(&store));
        let b = IncrementalSelector::with_store(&rover(), strategy, Arc::clone(&store));
        assert!(Arc::ptr_eq(&a.profile, &b.profile));
        // A selector built on its own takes the store's profile when it
        // attaches.
        let mut c = IncrementalSelector::new(&rover(), strategy);
        assert!(!Arc::ptr_eq(&a.profile, &c.profile));
        c.attach_shared(Arc::clone(&store));
        assert!(Arc::ptr_eq(&a.profile, &c.profile));

        // The rover's tasks pinned the other way round are another RT side.
        let base = rover();
        let swapped = System::new(
            base.platform(),
            base.rt_tasks().clone(),
            Partition::new(base.platform(), vec![CoreId::new(1), CoreId::new(0)]).unwrap(),
            SecurityTaskSet::default(),
        )
        .unwrap();
        let d = IncrementalSelector::with_store(&swapped, strategy, Arc::clone(&store));
        assert!(!Arc::ptr_eq(&a.profile, &d.profile));
        assert_ne!(a.profile.identity, d.profile.identity);
    }

    #[test]
    fn a_store_answered_selector_builds_its_workspace_on_the_first_miss() {
        use crate::shared_store::SharedSelectionStore;

        let base = rover();
        let task = |c, t| SecurityTask::new(ms(c), ms(t)).unwrap();
        let solved_by_another = SecurityTaskSet::new(vec![task(5342, 10_000), task(223, 10_000)]);
        let misses = [
            vec![task(223, 10_000)],
            vec![task(100, 5000), task(40, 2000)],
            vec![task(5342, 10_000), task(9000, 10_000)],
            vec![task(350, 5000), task(223, 10_000), task(90, 2000)],
        ];
        for strategy in [CarryInStrategy::Exhaustive, CarryInStrategy::TopDiff] {
            let store = SharedSelectionStore::new();
            let mut a = IncrementalSelector::with_store(&base, strategy, Arc::clone(&store));
            let mut b = IncrementalSelector::with_store(&rover(), strategy, Arc::clone(&store));
            a.select(&solved_by_another);
            assert!(a.workspace.is_some());
            b.select(&solved_by_another);
            assert_eq!(b.stats().shared_hits, 1);
            assert!(b.workspace.is_none(), "{strategy:?}: no miss, no workspace");
            for (i, tasks) in misses.iter().enumerate() {
                let sec = SecurityTaskSet::new(tasks.clone());
                let incremental = b.select(&sec);
                let cold = select_periods(&with_security(&base, sec), strategy);
                assert_eq!(
                    incremental.outcome(),
                    cold.as_ref().map_err(|e| *e),
                    "{strategy:?}, miss {i}"
                );
                assert!(b.workspace.is_some());
            }
            assert_eq!(b.stats().misses, misses.len() as u64);
            // The workspace is the selector's own, and stays
            // migrating-free between runs.
            let workspace = b.workspace.as_deref().unwrap();
            assert_eq!(workspace, &b.profile.template);
            assert!(!std::ptr::eq(workspace, a.workspace.as_deref().unwrap()));
        }
    }

    #[test]
    fn the_profile_table_stays_bounded_by_the_live_profiles() {
        use crate::shared_store::SharedSelectionStore;
        use std::collections::VecDeque;

        let store = SharedSelectionStore::new();
        let platform = Platform::uniprocessor();
        let mut live = VecDeque::new();
        for wcet in 1..=10_000 {
            let rt = RtTaskSet::new_rate_monotonic(vec![RtTask::new(
                Duration::from_ticks(wcet),
                Duration::from_ticks(100_000),
            )
            .unwrap()]);
            let partition = Partition::new(platform, vec![CoreId::new(0)]).unwrap();
            let system = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
            live.push_back(IncrementalSelector::with_store(
                &system,
                CarryInStrategy::TopDiff,
                Arc::clone(&store),
            ));
            if live.len() > 4 {
                live.pop_front();
            }
            assert!(
                store.profile_table_len() <= 2 * live.len() + 16,
                "{} entries for {} live profiles",
                store.profile_table_len(),
                live.len()
            );
        }
    }

    #[test]
    fn empty_configuration_is_trivially_admitted() {
        let mut selector = IncrementalSelector::new(&rover(), CarryInStrategy::Exhaustive);
        let solved = selector.select(&SecurityTaskSet::default());
        let sel = solved.outcome().unwrap();
        assert!(sel.periods.is_empty());
        assert!(sel.response_times.is_empty());
    }
}
