//! Heap a resident tenant holds on an engine with a cross-tenant store.
//!
//! Tenants of one RT profile share that profile's interference
//! environment and Eq. 1 verdict through the store, and a tenant that
//! the store answers never builds a solver workspace, so what stays per
//! tenant is its slot, its registration, its monitor table and its memo
//! references. This binary counts every live heap byte with its own
//! global allocator and holds a single test, so no other test's
//! allocations land in the count.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use hydra_core::SharedSelectionStore;
use rts_adapt::engine::{AdaptEngine, Request, RtSpec};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::{DeltaEvent, MonitorSpec};
use rts_model::time::Duration;

/// Live heap bytes of the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes in [`LIVE`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so each upholds the `GlobalAlloc`
// contract exactly as `System` does; the counter update touches no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// Registers `tenant` on the rover's RT side (two cores) and admits
/// Tripwire and the kernel-module checker onto it.
fn admit_rover(engine: &mut AdaptEngine, tenant: u64) {
    let rt = vec![
        RtSpec {
            wcet: ms(240),
            period: ms(500),
            core: 0,
        },
        RtSpec {
            wcet: ms(1120),
            period: ms(5000),
            core: 1,
        },
    ];
    let mut requests = vec![Request::Register {
        tenant,
        cores: 2,
        rt,
    }];
    for (wcet, t_max) in [(5342, 10_000), (223, 10_000)] {
        requests.push(Request::Delta {
            tenant,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(wcet), ms(t_max)).unwrap(),
            },
        });
    }
    for request in &requests {
        assert!(engine.handle(request).is_admitted(), "{request:?}");
    }
}

#[test]
fn a_tenant_of_a_known_profile_holds_at_most_a_kilobyte() {
    const ADDED: u64 = 256;
    let mut engine =
        AdaptEngine::new(CarryInStrategy::TopDiff).with_shared_store(SharedSelectionStore::new());
    // The first tenant of the profile solves every configuration the
    // others will ask for.
    admit_rover(&mut engine, 0);
    let before = LIVE.load(Ordering::Relaxed);
    for tenant in 1..=ADDED {
        admit_rover(&mut engine, tenant);
    }
    let per_tenant = (LIVE.load(Ordering::Relaxed) - before) / ADDED as isize;
    let stats = engine.memo_stats();
    assert_eq!(stats.misses, 3, "only the first tenant ran Algorithm 1");
    assert_eq!(stats.shared_hits, 3 * ADDED);
    assert!(
        per_tenant <= 1024,
        "{per_tenant} B of heap per added tenant"
    );
}
