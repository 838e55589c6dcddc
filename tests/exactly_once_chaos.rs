//! §3.4's stronger guarantee, end to end: "exactly once — can be provided
//! by the activity service itself making use of the underlying transaction
//! service." An `ExactlyOnceAction` sits on a remote node behind a
//! duplicating, lossy network; however many times the network re-executes
//! the servant, the wrapped action's *effect* happens once per logical
//! signal.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{
    ActionServant, ActivityService, BroadcastSignalSet, ExactlyOnceAction, FnAction,
    Outcome, RemoteActionProxy, Signal,
};
use orb::{NetworkConfig, Orb, RetryPolicy, Value};
use recovery_log::{MemWal, Wal};

fn effectful_inner() -> (Arc<dyn activity_service::Action>, Arc<AtomicU32>) {
    let effects = Arc::new(AtomicU32::new(0));
    let effects2 = Arc::clone(&effects);
    let inner: Arc<dyn activity_service::Action> =
        Arc::new(FnAction::new("debit", move |_s: &Signal| {
            effects2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
    (inner, effects)
}

#[test]
fn network_duplication_cannot_double_the_effect() {
    // Every message is duplicated: the servant runs twice per delivery,
    // but the exactly-once wrapper pins the effect to one execution.
    let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 1.0, 5)).build();
    let node = orb.add_node("bank").unwrap();
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let (inner, effects) = effectful_inner();
    let action = ExactlyOnceAction::new("eo-debit", inner, wal).unwrap();
    let obj = node
        .activate("Action", ActionServant::new(action as Arc<dyn activity_service::Action>))
        .unwrap();
    let proxy = RemoteActionProxy::new("proxy", orb, "client", obj);

    let signal = Signal::new("debit", "set").with_delivery_id("payment-1");
    let reply = activity_service::Action::process_signal(&proxy, &signal).unwrap();
    assert!(reply.is_done());
    assert_eq!(effects.load(Ordering::SeqCst), 1, "one logical signal, one effect");

    // A distinct logical signal is a distinct effect.
    let signal2 = Signal::new("debit", "set").with_delivery_id("payment-2");
    activity_service::Action::process_signal(&proxy, &signal2).unwrap();
    assert_eq!(effects.load(Ordering::SeqCst), 2);
}

#[test]
fn chaos_retries_converge_to_one_effect_per_signal() {
    let orb = Orb::builder().network(NetworkConfig::lossy(0.3, 0.4, 20260707)).build();
    let node = orb.add_node("bank").unwrap();
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let (inner, effects) = effectful_inner();
    let action = ExactlyOnceAction::new("eo-debit", inner, wal).unwrap();
    let obj = node
        .activate("Action", ActionServant::new(action as Arc<dyn activity_service::Action>))
        .unwrap();
    let proxy = RemoteActionProxy::new("proxy", orb.clone(), "client", obj)
        .with_policy(RetryPolicy::immediate(257));

    let mut delivered = 0;
    for i in 0..40 {
        let signal = Signal::new("debit", "set").with_delivery_id(format!("payment-{i}"));
        if activity_service::Action::process_signal(&proxy, &signal).is_ok() {
            delivered += 1;
        }
    }
    let stats = orb.network().stats();
    assert!(stats.duplicated > 0 && stats.dropped > 0, "chaos actually fired");
    // The retry budget is generous, so every logical signal got through at
    // least once; effects must equal logical deliveries exactly.
    assert_eq!(delivered, 40);
    assert_eq!(effects.load(Ordering::SeqCst), 40);
}

#[test]
fn activity_completion_is_exactly_once_under_duplication() {
    // Full stack: the coordinator stamps delivery ids; the remote
    // exactly-once action dedups even though the network duplicates every
    // message.
    let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 1.0, 9)).build();
    let service = ActivityService::new();
    orb.add_node("coordinator").unwrap();
    let node = orb.add_node("worker").unwrap();
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let (inner, effects) = effectful_inner();
    let eo = ExactlyOnceAction::new("eo", inner, wal).unwrap();
    let obj = node
        .activate("Action", ActionServant::new(Arc::clone(&eo) as Arc<dyn activity_service::Action>))
        .unwrap();

    let activity = service.begin("billing-run").unwrap();
    activity
        .coordinator()
        .add_signal_set(Box::new(BroadcastSignalSet::new("Bill", "charge", Value::U64(25))))
        .unwrap();
    activity.set_completion_signal_set("Bill");
    activity.coordinator().register_action(
        "Bill",
        Arc::new(RemoteActionProxy::new("remote", orb.clone(), "coordinator", obj)) as _,
    );
    let outcome = service.complete().unwrap();
    assert!(outcome.is_done());
    assert_eq!(
        effects.load(Ordering::SeqCst),
        1,
        "the duplicated charge signal produced exactly one charge"
    );
    assert_eq!(eo.processed_count(), 1);
    assert!(orb.network().stats().duplicated > 0);
}

#[test]
fn restart_between_redeliveries_still_dedups() {
    // The processed-set is durable: a redelivery arriving AFTER the action
    // "process" restarted over the same log is still suppressed.
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let (inner, effects) = effectful_inner();
    let signal = Signal::new("debit", "set").with_delivery_id("payment-1");
    {
        let action = ExactlyOnceAction::new("eo", Arc::clone(&inner), Arc::clone(&wal)).unwrap();
        activity_service::Action::process_signal(&*action, &signal).unwrap();
    }
    let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
    let replayed = activity_service::Action::process_signal(&*action, &signal).unwrap();
    assert!(replayed.is_done());
    assert_eq!(effects.load(Ordering::SeqCst), 1);
}
