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
//! [`rt_environment`]: crate::period_selection::rt_environment
//! [`SolvedSelection`]: crate::incremental::SolvedSelection

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rts_analysis::semi::CarryInStrategy;
use rts_model::System;

use crate::incremental::{SecFingerprint, SolvedSelection};

/// The exact identity of a frozen RT side: core count plus every core's
/// `(wcet, period)` tick pairs in pinned (priority) order — precisely
/// the inputs [`rt_environment`](crate::period_selection::rt_environment)
/// and the Eq. 1 check read. Equal identities therefore yield equal
/// interference environments and equal selection outcomes for any
/// security configuration.
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

    /// Looks `key` up, counting a hit or a miss.
    fn lookup(&self, key: &SharedKey) -> Option<Arc<SolvedSelection>> {
        let stripe = self.stripes[Self::stripe_of(key)]
            .lock()
            .expect("shared-store stripe poisoned");
        match stripe.get(key) {
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

    /// Publishes a solved configuration, flushing the stripe first if it
    /// is at capacity. Concurrent solvers of the same key may both
    /// insert; the entries are equal (pure function of the key), so the
    /// last write is as good as the first.
    fn insert(&self, key: SharedKey, value: Arc<SolvedSelection>) {
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

/// One tenant's handle on the shared store: the `Arc`'d store plus the
/// tenant's precomputed [`SystemIdentity`], so the per-request cost of a
/// shared lookup is one fingerprint clone and one hash — never an
/// identity rebuild.
#[derive(Clone, Debug)]
pub(crate) struct SharedHandle {
    store: Arc<SharedSelectionStore>,
    identity: Arc<SystemIdentity>,
}

impl SharedHandle {
    pub(crate) fn new(store: Arc<SharedSelectionStore>, identity: SystemIdentity) -> Self {
        SharedHandle {
            store,
            identity: Arc::new(identity),
        }
    }

    fn key(&self, config: &SecFingerprint, strategy: CarryInStrategy) -> SharedKey {
        SharedKey {
            system: Arc::clone(&self.identity),
            config: config.clone(),
            strategy,
        }
    }

    pub(crate) fn lookup(
        &self,
        config: &SecFingerprint,
        strategy: CarryInStrategy,
    ) -> Option<Arc<SolvedSelection>> {
        self.store.lookup(&self.key(config, strategy))
    }

    /// Publishes an entry this tenant solved under `strategy`, keyed by
    /// the entry's own configuration.
    pub(crate) fn publish(&self, strategy: CarryInStrategy, solved: Arc<SolvedSelection>) {
        let key = self.key(solved.config(), strategy);
        self.store.insert(key, solved);
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
    fn store_hits_only_on_equal_problems_and_counts() {
        let store = SharedSelectionStore::new();
        let a = SharedHandle::new(
            Arc::clone(&store),
            SystemIdentity::of(&system(&[(240, 500, 0)], 1)),
        );
        let b = SharedHandle::new(
            Arc::clone(&store),
            SystemIdentity::of(&system(&[(240, 500, 0)], 1)),
        );
        let other = SharedHandle::new(
            Arc::clone(&store),
            SystemIdentity::of(&system(&[(250, 500, 0)], 1)),
        );
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
        assert!(a.lookup(&config, CarryInStrategy::TopDiff).is_none());
        a.publish(CarryInStrategy::TopDiff, Arc::clone(&value));
        // The structurally identical tenant hits; different system or
        // strategy misses.
        assert_eq!(b.lookup(&config, CarryInStrategy::TopDiff), Some(value));
        assert!(other.lookup(&config, CarryInStrategy::TopDiff).is_none());
        assert!(b.lookup(&config, CarryInStrategy::Exhaustive).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.flushes, 0);
    }
}
