//! Allocation pins for the fault-free invoke path.
//!
//! A counting global allocator counts the heap allocations (including
//! reallocations) made on the calling thread between two reads of a
//! thread-local counter, so tests running in parallel do not see each
//! other's allocations. Every pinned call is warmed up first, so one-time
//! costs (lazy statics, first-touch map growth) stay out of the count.
//!
//! Run them in both profiles: `cargo test -p orb --test invoke_allocations`
//! and the same with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use activity_service::{Action, ActionServant, FnAction, Outcome, RemoteActionProxy, Signal};
use orb::{Orb, Request, RetryPolicy, Value};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping touches only a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

#[test]
fn fault_free_invoke_allocates_nothing_beyond_the_reply() {
    // Servant, telemetry and interceptors all absent; the reply is a
    // `Value::U64`, which owns no heap memory, so anything counted here is
    // the invoke path's own.
    let orb = Orb::new();
    let node = orb.add_node("srv").unwrap();
    let object = node.activate("C", |_req: &Request| Ok(Value::U64(7))).unwrap();
    let policy = RetryPolicy::new(8);
    let request = || Request::new("hit").with_delivery_id("caller#1");
    for _ in 0..3 {
        orb.invoke("client", &object, request(), &policy).unwrap();
    }
    let stamped = request();
    let allocations = allocations_of(|| orb.invoke("client", &object, stamped, &policy).unwrap());
    assert_eq!(allocations, 0, "a fault-free invoke must not allocate");
}

/// Heap allocations of one fault-free `RemoteActionProxy` ->
/// `ActionServant` round trip carrying a stamped signal: the proxy's
/// request (operation, argument map, delivery id and the positional
/// signal), the servant's decoded `Signal`, the action's `Outcome`, its
/// map-shaped reply and the decoded `Outcome` on the proxy side.
const PROXY_ROUND_TRIP_ALLOCATIONS: u64 = 17;

#[test]
fn proxy_servant_round_trip_allocation_count_is_pinned() {
    let orb = Orb::new();
    let node = orb.add_node("server").unwrap();
    let action: Arc<dyn Action> =
        Arc::new(FnAction::new("participant", |_s: &Signal| Ok(Outcome::done())));
    let object = node.activate("Action", ActionServant::new(action)).unwrap();
    let proxy = RemoteActionProxy::new("participant", orb, "client", object)
        .with_policy(RetryPolicy::new(8));
    let signal = Signal::new("prepare", "TwoPhase").with_delivery_id("activity-1:TwoPhase:1");
    for _ in 0..3 {
        proxy.process_signal(&signal).unwrap();
    }
    let allocations = allocations_of(|| proxy.process_signal(&signal).unwrap());
    assert_eq!(allocations, PROXY_ROUND_TRIP_ALLOCATIONS);
}
