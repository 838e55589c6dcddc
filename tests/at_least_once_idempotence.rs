//! §3.4 of the paper: "the delivery semantics for Signals is required to be
//! at least once … an Action may receive the same Signal from an Activity
//! multiple times, and must ensure that such invocations are idempotent."
//!
//! These tests drive signal delivery through the fault-injecting network so
//! duplication *actually happens*, and verify that the framework's stock
//! Actions hold the idempotence contract — and show what breaks when an
//! action violates it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{
    ActionServant, ActivityService, FnAction, Outcome, RemoteActionProxy, Signal,
};
use orb::{DedupServant, DedupWindow, NetworkConfig, Orb, Request, RetryPolicy, Servant, Value};

fn lossy_orb(drop: f64, duplicate: f64, seed: u64) -> Orb {
    Orb::builder().network(NetworkConfig::lossy(drop, duplicate, seed)).build()
}

/// The delivery policy for proxies on a [`lossy_orb`].
fn chaos_policy() -> RetryPolicy {
    RetryPolicy::immediate(257)
}

#[test]
fn duplication_delivers_signals_more_than_once() {
    let orb = lossy_orb(0.0, 1.0, 1);
    let node = orb.add_node("server").unwrap();
    let deliveries = Arc::new(AtomicU32::new(0));
    let deliveries2 = Arc::clone(&deliveries);
    let action: Arc<dyn activity_service::Action> =
        Arc::new(FnAction::new("observer", move |_s: &Signal| {
            deliveries2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
    let obj = node.activate("Action", ActionServant::new(action)).unwrap();
    let proxy = RemoteActionProxy::new("p", orb, "client", obj).with_policy(chaos_policy());
    activity_service::Action::process_signal(&proxy, &Signal::new("ping", "set")).unwrap();
    assert_eq!(
        deliveries.load(Ordering::SeqCst),
        2,
        "100% duplication probability must deliver twice"
    );
}

#[test]
fn idempotent_action_converges_under_chaos() {
    // A "debit" that guards itself with a processed-flag (idempotent),
    // versus a naive counter (not idempotent). Chaos network: the
    // idempotent one ends exactly once; the naive one overshoots.
    let orb = lossy_orb(0.25, 0.35, 777);
    let node = orb.add_node("bank").unwrap();

    let naive_total = Arc::new(AtomicU32::new(0));
    let guarded_total = Arc::new(AtomicU32::new(0));
    let processed = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::<String>::new()));

    let naive2 = Arc::clone(&naive_total);
    let naive: Arc<dyn activity_service::Action> =
        Arc::new(FnAction::new("naive", move |_s: &Signal| {
            naive2.fetch_add(10, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
    let guarded2 = Arc::clone(&guarded_total);
    let processed2 = Arc::clone(&processed);
    let guarded: Arc<dyn activity_service::Action> =
        Arc::new(FnAction::new("guarded", move |s: &Signal| {
            // Deduplicate on the signal's unique id, as a real recoverable
            // action would.
            let key = s.data().as_str().unwrap_or("?").to_owned();
            if processed2.lock().insert(key) {
                guarded2.fetch_add(10, Ordering::SeqCst);
            }
            Ok(Outcome::done())
        }));

    let naive_obj = node.activate("Naive", ActionServant::new(naive)).unwrap();
    let guarded_obj = node.activate("Guarded", ActionServant::new(guarded)).unwrap();
    let naive_proxy = RemoteActionProxy::new("naive", orb.clone(), "client", naive_obj)
        .with_policy(chaos_policy());
    let guarded_proxy = RemoteActionProxy::new("guarded", orb.clone(), "client", guarded_obj)
        .with_policy(chaos_policy());

    for i in 0..20 {
        let signal = Signal::new("debit", "set").with_data(Value::from(format!("debit-{i}")));
        let _ = activity_service::Action::process_signal(&naive_proxy, &signal);
        let _ = activity_service::Action::process_signal(&guarded_proxy, &signal);
    }

    let stats = orb.network().stats();
    assert!(stats.duplicated > 0, "chaos must have duplicated something");
    assert!(stats.dropped > 0, "chaos must have dropped something");
    // The guarded action's total is exact for every signal that was
    // delivered at least once; the naive one counted duplicates.
    let unique_delivered = processed.lock().len() as u32;
    assert_eq!(guarded_total.load(Ordering::SeqCst), unique_delivered * 10);
    assert!(
        naive_total.load(Ordering::SeqCst) > guarded_total.load(Ordering::SeqCst),
        "the naive action over-counts under at-least-once delivery \
         (naive {} vs guarded {})",
        naive_total.load(Ordering::SeqCst),
        guarded_total.load(Ordering::SeqCst)
    );
}

#[test]
fn dropped_reply_reexecutes_servant() {
    // The classic at-least-once hazard: the servant runs, the reply drops,
    // the client retries, the servant runs AGAIN.
    let orb = Orb::builder()
        // Drop ~half of all messages; with retries the call eventually
        // completes but the servant usually executes more than once.
        .network(NetworkConfig::lossy(0.5, 0.0, 99))
        .build();
    let node = orb.add_node("server").unwrap();
    let executions = Arc::new(AtomicU32::new(0));
    let executions2 = Arc::clone(&executions);
    let obj = node
        .activate("Op", move |_req: &Request| {
            executions2.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Null)
        })
        .unwrap();
    let mut reexecuted = false;
    for _ in 0..30 {
        executions.store(0, Ordering::SeqCst);
        if orb
            .invoke(
                orb::node::EXTERNAL_CALLER,
                &obj,
                Request::new("op"),
                &RetryPolicy::immediate(513),
            )
            .is_ok()
            && executions.load(Ordering::SeqCst) > 1
        {
            reexecuted = true;
            break;
        }
    }
    assert!(
        reexecuted,
        "across 30 attempts on a 50%-loss network, at least one logical \
         call must have executed the servant more than once"
    );
}

/// Regression for the dedup window's eviction EDGE. With capacity N, ids
/// d0..d(N-1) fill the window exactly; the off-by-one bug class this pins
/// down is evicting at `len == capacity` instead of `len > capacity`, which
/// would forget d0 one insertion too early. At the edge every id must still
/// replay its memo; only the (N+1)-th distinct id may push d0 out — and
/// must push out ONLY d0, never its FIFO neighbour d1.
#[test]
fn dedup_window_eviction_edge_forgets_exactly_the_oldest() {
    const N: usize = 4;
    let executions = Arc::new(AtomicU32::new(0));
    let executions2 = Arc::clone(&executions);
    let inner: Arc<dyn Servant> = Arc::new(move |req: &Request| {
        executions2.fetch_add(1, Ordering::SeqCst);
        Ok(req.arg("v").cloned().unwrap_or(Value::Null))
    });
    let servant = DedupServant::new(inner, Arc::new(DedupWindow::new(N)));

    let stamped = |i: usize| {
        Request::new("apply")
            .with_arg("v", Value::from(i as i64))
            .with_delivery_id(format!("d{i}"))
    };

    // Fill the window to exactly its capacity: d0..d(N-1).
    for i in 0..N {
        assert_eq!(servant.dispatch(&stamped(i)).unwrap(), Value::from(i as i64));
    }
    assert_eq!(executions.load(Ordering::SeqCst), N as u32);
    assert_eq!(servant.window().len(), N);

    // The eviction edge: the window is full but nothing has been evicted,
    // so a redelivery of the OLDEST id must still replay its memo.
    assert_eq!(servant.dispatch(&stamped(0)).unwrap(), Value::from(0i64));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        N as u32,
        "redelivery of d0 at the eviction edge must be memoized, not re-executed"
    );

    // One past the edge: dN is new, so exactly one eviction (d0) happens.
    assert_eq!(servant.dispatch(&stamped(N)).unwrap(), Value::from(N as i64));
    assert_eq!(executions.load(Ordering::SeqCst), N as u32 + 1);
    assert_eq!(servant.window().len(), N, "the window stays bounded at capacity");

    // d1 survived the eviction: still deduplicated.
    assert_eq!(servant.dispatch(&stamped(1)).unwrap(), Value::from(1i64));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        N as u32 + 1,
        "evicting d0 must not take its FIFO neighbour d1 with it"
    );

    // d0 was genuinely forgotten: a late redelivery re-executes, which the
    // at-least-once contract allows once the sender's retry horizon (the
    // window bound) has passed.
    assert_eq!(servant.dispatch(&stamped(0)).unwrap(), Value::from(0i64));
    assert_eq!(executions.load(Ordering::SeqCst), N as u32 + 2);
}

#[test]
fn activity_completion_with_remote_actions_survives_chaos() {
    // End-to-end: an activity's completion broadcast reaches both remote
    // actions exactly-once *logically* despite drops and duplicates.
    let orb = lossy_orb(0.2, 0.3, 4242);
    let service = ActivityService::new();
    service.attach_to_orb(&orb);
    orb.add_node("coordinator").unwrap();
    let activity = service.begin("chaotic").unwrap();
    activity
        .coordinator()
        .add_signal_set(Box::new(activity_service::BroadcastSignalSet::new(
            "Done",
            "finished",
            Value::Null,
        )))
        .unwrap();
    activity.set_completion_signal_set("Done");

    let mut flags = Vec::new();
    for i in 0..2 {
        let node = orb.add_node(format!("worker-{i}")).unwrap();
        let flag = Arc::new(parking_lot::Mutex::new(false));
        let flag2 = Arc::clone(&flag);
        let action: Arc<dyn activity_service::Action> =
            Arc::new(FnAction::new(format!("worker-{i}"), move |_s: &Signal| {
                *flag2.lock() = true; // naturally idempotent
                Ok(Outcome::done())
            }));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        activity.coordinator().register_action(
            "Done",
            Arc::new(
                RemoteActionProxy::new(format!("proxy-{i}"), orb.clone(), "coordinator", obj)
                    .with_policy(chaos_policy()),
            ) as _,
        );
        flags.push(flag);
    }
    let outcome = service.complete().unwrap();
    assert!(outcome.is_done());
    for flag in flags {
        assert!(*flag.lock(), "every action eventually processed the signal");
    }
}
