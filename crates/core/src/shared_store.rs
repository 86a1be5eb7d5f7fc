//! A cross-tenant selection memo: one store shared by every
//! [`IncrementalSelector`](crate::incremental::IncrementalSelector) of a
//! worker pool.
//!
//! A fleet of monitored devices is rarely 64 *distinct* platforms — it is
//! a handful of hardware profiles, each deployed many times. Tenants that
//! share a profile share the frozen RT side bit-for-bit, and Algorithm 1
//! is a pure function of `(frozen RT system, security configuration,
//! carry-in strategy)`: the RT side enters selection only through the
//! interference environment ([`rt_environment`]), which is built from the
//! per-core `(C, T)` tick lists in pinned order, and through the Eq. 1
//! precondition, which reads the same lists. So when one tenant has
//! already solved a configuration, every structurally identical tenant
//! can reuse the answer — periods, response times, or the memoized
//! rejection — with zero solver work and **zero loss of exactness**.
//! The answer is a [`SolvedSelection`] held by [`Arc`]: a tenant that
//! adopts it keeps a reference in its own memo, not a copy.
//!
//! # Key exactness
//!
//! The store is keyed by `SharedKey` = ([`SystemIdentity`],
//! [`SecFingerprint`], [`CarryInStrategy`]). All three components are
//! exact values, not digests: the identity carries every per-core
//! `(wcet, period)` tick pair in pinned (priority) order plus the core
//! count, and the fingerprint carries every `(C_s, T^max_s)` pair in
//! priority order. Two keys collide only if the two selection problems
//! are *equal*, in which case the cached answer is the answer. This is
//! the same no-aliasing argument the per-tenant memo makes, lifted over
//! the RT side.
//!
//! # Concurrency
//!
//! The store is striped: keys hash onto `STRIPES` independent
//! mutex-guarded maps, so shard workers contend only when they touch the
//! same stripe at the same instant. Lock hold times are one `HashMap`
//! probe or insert. Hit/miss/insert counters are relaxed atomics —
//! monitoring telemetry, not synchronization. Each stripe is
//! capacity-bounded with the same wholesale-flush policy as the
//! per-tenant memo (entries are pure functions of the key, so flushing
//! is always correct and the hot working set re-warms within a few
//! misses). A flush drops only the store's own references: an entry
//! that tenant memos still hold stays alive, and those tenants keep
//! answering from it; the store simply stops handing it out.
//!
//! # One RT profile per identity
//!
//! The store also holds the frozen RT side itself, once per
//! [`SystemIdentity`]: an RT profile is the identity, the migrating-free
//! interference environment ([`rt_environment`]) that selection starts
//! from, and the Eq. 1 verdict. A selector attached to the store takes
//! the store's profile instead of building its own, so registering a
//! tenant of a known profile builds only the identity it looks the
//! profile up by. Sharing the profile is exact for the reason sharing
//! answers is: the environment and the verdict are pure functions of the
//! identity (equal identities make the same `pin` calls in the same
//! order, and Eq. 1 reads the same lists). Nothing walks the shared
//! environment: a selector's first Algorithm 1 run clones it into a
//! workspace of its own, because the solver's carried evaluations are
//! keyed by a curve epoch that is unique only within one environment.
//! The table holds profiles weakly, keyed by the exact identity value,
//! so a profile lives exactly as long as a selector uses it; dead
//! entries are dropped whenever the table reaches twice the live count
//! it had at the last pruning.
//!
//! [`rt_environment`]: crate::period_selection::rt_environment
//! [`SolvedSelection`]: crate::incremental::SolvedSelection

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use rts_analysis::semi::{CarryInStrategy, Environment};
use rts_model::System;

use crate::incremental::{SecFingerprint, SolvedSelection};
use crate::period_selection::rt_environment;

/// The exact identity of a frozen RT side: core count plus every core's
/// `(wcet, period)` tick pairs in pinned (priority) order — precisely
/// the inputs [`rt_environment`] and the Eq. 1 check read. Equal
/// identities therefore yield equal interference environments and equal
/// selection outcomes for any security configuration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SystemIdentity {
    cores: usize,
    pinned: Vec<Vec<(u64, u64)>>,
}

impl SystemIdentity {
    /// The identity of `system`'s RT side (its security task set is
    /// irrelevant — configurations are keyed separately).
    #[must_use]
    pub fn of(system: &System) -> Self {
        let pinned = system
            .platform()
            .cores()
            .map(|core| {
                system
                    .rt_tasks_on(core)
                    .into_iter()
                    .map(|idx| {
                        let task = &system.rt_tasks()[idx];
                        (task.wcet().as_ticks(), task.period().as_ticks())
                    })
                    .collect()
            })
            .collect();
        SystemIdentity {
            cores: system.num_cores(),
            pinned,
        }
    }
}

/// The frozen RT side of one [`SystemIdentity`]: everything selection
/// reads from it, built once per identity. Every field is a pure
/// function of the identity, which is why tenants of one identity may
/// share one profile (see the module docs).
#[derive(Debug)]
pub(crate) struct RtProfile {
    /// The identity, shared with the store's keys.
    pub(crate) identity: Arc<SystemIdentity>,
    /// The migrating-free [`rt_environment`]. Never walked: a selector
    /// clones it into its own workspace on its first Algorithm 1 run.
    pub(crate) template: Environment,
    /// Whether the RT side passes Eq. 1.
    pub(crate) rt_ok: bool,
}

impl RtProfile {
    /// Builds the profile of `system`'s RT side.
    pub(crate) fn of(system: &System) -> Self {
        RtProfile::with_identity(system, SystemIdentity::of(system))
    }

    fn with_identity(system: &System, identity: SystemIdentity) -> Self {
        RtProfile {
            identity: Arc::new(identity),
            template: rt_environment(system),
            rt_ok: rts_analysis::rt_schedulable(system),
        }
    }
}

/// Fewest entries at which the profile table drops its dead entries.
const PROFILE_PRUNE_MIN: usize = 16;

/// The store's RT profiles, held weakly and keyed by the exact identity.
#[derive(Debug, Default)]
struct Profiles {
    table: HashMap<Arc<SystemIdentity>, Weak<RtProfile>>,
    /// Table size at which the next registration first drops the dead
    /// entries: twice the live count at the last pruning, so pruning
    /// costs O(1) amortized per registration.
    prune_at: usize,
}

impl Profiles {
    fn live(&self, identity: &SystemIdentity) -> Option<Arc<RtProfile>> {
        self.table.get(identity).and_then(Weak::upgrade)
    }

    fn register(&mut self, profile: &Arc<RtProfile>) {
        if self.table.len() >= self.prune_at {
            self.table.retain(|_, held| held.strong_count() > 0);
            self.prune_at = (2 * self.table.len()).max(PROFILE_PRUNE_MIN);
        }
        // Replace a dead entry's key too: it is an identity allocation of
        // its own.
        self.table.remove(&*profile.identity);
        self.table
            .insert(Arc::clone(&profile.identity), Arc::downgrade(profile));
    }
}

/// One shared-store key: the full selection problem. See the module docs
/// for why equality of this key implies equality of the answer.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SharedKey {
    /// The frozen RT side (shared via `Arc`: tenants of one profile hold
    /// the same identity many times over).
    system: Arc<SystemIdentity>,
    /// The exact security configuration.
    config: SecFingerprint,
    /// The carry-in strategy the answer was computed under.
    strategy: CarryInStrategy,
}

impl SharedKey {
    fn new(profile: &RtProfile, config: &SecFingerprint, strategy: CarryInStrategy) -> Self {
        SharedKey {
            system: Arc::clone(&profile.identity),
            config: config.clone(),
            strategy,
        }
    }
}

/// Stripe count (fixed; keys hash onto stripes).
const STRIPES: usize = 16;

/// Per-stripe entry bound; at capacity the stripe is flushed wholesale
/// before the next insert (the per-tenant memo's policy, per stripe).
const STRIPE_CAPACITY: usize = 4096;

/// Statistics of one [`SharedSelectionStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SharedStoreStats {
    /// Lookups answered from the store (a structurally identical tenant
    /// had already solved the configuration).
    pub hits: u64,
    /// Lookups that found nothing (the caller solves and inserts).
    pub misses: u64,
    /// Entries currently cached across all stripes.
    pub entries: usize,
    /// Stripes flushed at capacity.
    pub flushes: u64,
}

type Stripe = HashMap<SharedKey, Arc<SolvedSelection>>;

/// The cross-tenant memo. One per worker pool; see the module docs.
#[derive(Debug, Default)]
pub struct SharedSelectionStore {
    stripes: [Mutex<Stripe>; STRIPES],
    profiles: Mutex<Profiles>,
    hits: AtomicU64,
    misses: AtomicU64,
    flushes: AtomicU64,
}

impl SharedSelectionStore {
    /// An empty store, ready to be `Arc`-shared across shard workers.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(SharedSelectionStore::default())
    }

    fn stripe_of(key: &SharedKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish() as usize % STRIPES
    }

    /// The store's RT profile for `system`: the live one of an equal
    /// identity when there is one (then only the identity is built, and
    /// dropped again), else a new one, registered for the next tenant.
    pub(crate) fn profile(&self, system: &System) -> Arc<RtProfile> {
        let identity = SystemIdentity::of(system);
        let live = self
            .profiles
            .lock()
            .expect("profile table poisoned")
            .live(&identity);
        // Built outside the lock, so a panic in the RT analysis fails
        // this registration alone instead of poisoning the table.
        live.unwrap_or_else(|| self.share(&Arc::new(RtProfile::with_identity(system, identity))))
    }

    /// The store's live profile equal to `profile`, or `profile` itself,
    /// registered, when the store holds none.
    pub(crate) fn share(&self, profile: &Arc<RtProfile>) -> Arc<RtProfile> {
        let mut profiles = self.profiles.lock().expect("profile table poisoned");
        if let Some(live) = profiles.live(&profile.identity) {
            return live;
        }
        profiles.register(profile);
        Arc::clone(profile)
    }

    /// Entries of the profile table, dead ones included.
    #[cfg(test)]
    pub(crate) fn profile_table_len(&self) -> usize {
        self.profiles
            .lock()
            .expect("profile table poisoned")
            .table
            .len()
    }

    /// Looks up `profile`'s answer for `config` under `strategy`,
    /// counting a hit or a miss.
    pub(crate) fn lookup(
        &self,
        profile: &RtProfile,
        config: &SecFingerprint,
        strategy: CarryInStrategy,
    ) -> Option<Arc<SolvedSelection>> {
        let key = SharedKey::new(profile, config, strategy);
        let stripe = self.stripes[Self::stripe_of(&key)]
            .lock()
            .expect("shared-store stripe poisoned");
        match stripe.get(&key) {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(cached))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes an entry `profile`'s tenant solved under `strategy`,
    /// keyed by the entry's own configuration, flushing the stripe first
    /// if it is at capacity. Concurrent solvers of the same key may both
    /// publish; the entries are equal (pure function of the key), so the
    /// last write is as good as the first.
    pub(crate) fn publish(
        &self,
        profile: &RtProfile,
        strategy: CarryInStrategy,
        value: Arc<SolvedSelection>,
    ) {
        let key = SharedKey::new(profile, value.config(), strategy);
        let mut stripe = self.stripes[Self::stripe_of(&key)]
            .lock()
            .expect("shared-store stripe poisoned");
        if stripe.len() >= STRIPE_CAPACITY {
            stripe.clear();
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        stripe.insert(key, value);
    }

    /// Point-in-time statistics (relaxed reads; monitoring telemetry).
    #[must_use]
    pub fn stats(&self) -> SharedStoreStats {
        SharedStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .stripes
                .iter()
                .map(|s| s.lock().expect("shared-store stripe poisoned").len())
                .sum(),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_model::time::Duration;
    use rts_model::{CoreId, Partition, Platform, RtTask, RtTaskSet, SecurityTaskSet};

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn system(wcets_periods: &[(u64, u64, usize)], cores: usize) -> System {
        let platform = Platform::new(cores).unwrap();
        let rt = RtTaskSet::new_rate_monotonic(
            wcets_periods
                .iter()
                .map(|&(c, t, _)| RtTask::new(ms(c), ms(t)).unwrap())
                .collect(),
        );
        // Re-derive the assignment in RM order (the constructor sorted).
        let mut sorted = wcets_periods.to_vec();
        sorted.sort_by_key(|&(c, t, _)| (t, c));
        let partition = Partition::new(
            platform,
            sorted
                .iter()
                .map(|&(_, _, core)| CoreId::new(core))
                .collect(),
        )
        .unwrap();
        System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap()
    }

    #[test]
    fn identity_distinguishes_pinning_and_tasks() {
        let a = system(&[(240, 500, 0), (1120, 5000, 1)], 2);
        let same = system(&[(240, 500, 0), (1120, 5000, 1)], 2);
        let other_pin = system(&[(240, 500, 1), (1120, 5000, 0)], 2);
        let other_wcet = system(&[(241, 500, 0), (1120, 5000, 1)], 2);
        assert_eq!(SystemIdentity::of(&a), SystemIdentity::of(&same));
        assert_ne!(SystemIdentity::of(&a), SystemIdentity::of(&other_pin));
        assert_ne!(SystemIdentity::of(&a), SystemIdentity::of(&other_wcet));
    }

    #[test]
    fn a_profile_whose_analysis_panics_leaves_the_table_usable() {
        let store = SharedSelectionStore::new();
        // Four tasks of 2^62 ticks on one core: Eq. 1's first demand of
        // the lowest-priority task is 2^64 ticks, and `Duration`
        // addition panics on overflow.
        let platform = Platform::uniprocessor();
        let task = RtTask::new(
            Duration::from_ticks(1 << 62),
            Duration::from_ticks(u64::MAX),
        );
        let rt = RtTaskSet::new_rate_monotonic(vec![task.unwrap(); 4]);
        let partition = Partition::new(platform, vec![CoreId::new(0); 4]).unwrap();
        let overflowing = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
        let built = std::panic::catch_unwind(|| store.profile(&overflowing));
        assert!(built.is_err(), "the Eq. 1 check must overflow");
        // The next registration still finds a working table.
        let rover = system(&[(240, 500, 0), (1120, 5000, 1)], 2);
        let profile = store.profile(&rover);
        assert!(profile.rt_ok);
        assert!(Arc::ptr_eq(&profile, &store.profile(&rover)));
    }

    #[test]
    fn store_hits_only_on_equal_problems_and_counts() {
        let store = SharedSelectionStore::new();
        let a = store.profile(&system(&[(240, 500, 0)], 1));
        // An equal RT side whose profile the store did not build: keys
        // compare identities by value, never by allocation.
        let b = RtProfile::of(&system(&[(240, 500, 0)], 1));
        let other = store.profile(&system(&[(250, 500, 0)], 1));
        let sec =
            SecurityTaskSet::new(vec![rts_model::SecurityTask::new(ms(10), ms(1000)).unwrap()]);
        let config = SecFingerprint::of(&sec);
        let value = Arc::new(SolvedSelection::new(
            config.clone(),
            Ok(crate::PeriodSelection {
                periods: rts_model::periods::PeriodVector::from_raw(vec![ms(123)]),
                response_times: vec![ms(45)],
            }),
        ));
        assert!(store
            .lookup(&a, &config, CarryInStrategy::TopDiff)
            .is_none());
        store.publish(&a, CarryInStrategy::TopDiff, Arc::clone(&value));
        // The structurally identical tenant hits; different system or
        // strategy misses.
        assert_eq!(
            store.lookup(&b, &config, CarryInStrategy::TopDiff),
            Some(value)
        );
        assert!(store
            .lookup(&other, &config, CarryInStrategy::TopDiff)
            .is_none());
        assert!(store
            .lookup(&b, &config, CarryInStrategy::Exhaustive)
            .is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.flushes, 0);
    }
}
