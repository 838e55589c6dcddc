//! Interposition end-to-end: a signal-driven 2PC (fig. 8) spanning three
//! organisations, each behind a subordinate relay, so the superior
//! coordinator sends each protocol signal over the network exactly once
//! per *organisation* rather than once per *participant*.

use std::sync::Arc;

use activity_service::{interpose, Activity};
use orb::{NetworkConfig, Orb, RetryPolicy, SimClock, Value};
use ots::{Resource, TransactionalKv, TxId};
use tx_models::{ResourceAction, TwoPhaseCommitSignalSet, TWO_PC_SET};

const PARTICIPANTS_PER_ORG: usize = 4;

struct Org {
    stores: Vec<Arc<TransactionalKv>>,
}

fn build(
    orb: &Orb,
    activity: &Activity,
    tx: &TxId,
    org_names: &[&str],
    interposed: bool,
) -> Vec<Org> {
    let mut orgs = Vec::new();
    for org_name in org_names {
        let node = orb.add_node(*org_name).unwrap();
        let mut stores = Vec::new();
        let relay = if interposed {
            Some(
                interpose(
                    activity.coordinator(),
                    TWO_PC_SET,
                    orb,
                    &node,
                    format!("{org_name}-relay"),
                    RetryPolicy::immediate(9),
                )
                .unwrap(),
            )
        } else {
            None
        };
        for i in 0..PARTICIPANTS_PER_ORG {
            let store = Arc::new(TransactionalKv::new(format!("{org_name}-{i}")));
            store.write(tx, "k", Value::from(i as i64)).unwrap();
            let action = Arc::new(ResourceAction::new(
                format!("{org_name}-{i}"),
                tx.clone(),
                Arc::clone(&store) as Arc<dyn Resource>,
            ));
            match &relay {
                Some(relay) => relay.register_local(action as _),
                None => {
                    // Flat: every participant is a separate remote action.
                    let servant = activity_service::ActionServant::new(action as _);
                    let obj = node.activate("Action", servant).unwrap();
                    let proxy = activity_service::RemoteActionProxy::new(
                        format!("{org_name}-{i}"),
                        orb.clone(),
                        "superior",
                        obj,
                    );
                    activity.coordinator().register_action(TWO_PC_SET, Arc::new(proxy) as _);
                }
            }
            stores.push(store);
        }
        orgs.push(Org { stores });
    }
    orgs
}

fn run(interposed: bool) -> (u64, Vec<Org>) {
    let orb = Orb::builder().network(NetworkConfig::reliable()).build();
    orb.add_node("superior").unwrap();
    let activity = Activity::new_root("cross-org-commit", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);
    let tx = TxId::top_level(1);
    let orgs = build(&orb, &activity, &tx, &["org-a", "org-b", "org-c"], interposed);

    let before = orb.network().stats().sent;
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), "committed");
    (orb.network().stats().sent - before, orgs)
}

#[test]
fn interposed_commit_is_correct_and_cheaper_on_the_wire() {
    let (flat_msgs, flat_orgs) = run(false);
    let (interposed_msgs, interposed_orgs) = run(true);

    // Correctness: every store in every org committed in both layouts.
    for orgs in [&flat_orgs, &interposed_orgs] {
        for org in orgs.iter() {
            for (i, store) in org.stores.iter().enumerate() {
                assert_eq!(store.read_committed("k"), Some(Value::from(i as i64)));
            }
        }
    }

    // Economics: 2 signals × (request+reply) × targets.
    // Flat: targets = 12 participants → 48 messages.
    // Interposed: targets = 3 orgs → 12 messages.
    assert_eq!(flat_msgs, 48);
    assert_eq!(interposed_msgs, 12);
}

#[test]
fn subordinate_abort_vote_aborts_the_whole_transaction() {
    let orb = Orb::new();
    orb.add_node("superior").unwrap();
    let node = orb.add_node("org-a").unwrap();
    let activity = Activity::new_root("doomed", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);
    let tx = TxId::top_level(1);

    let relay = interpose(
        activity.coordinator(),
        TWO_PC_SET,
        &orb,
        &node,
        "org-a-relay",
        RetryPolicy::immediate(9),
    )
    .unwrap();
    let healthy = Arc::new(TransactionalKv::new("healthy"));
    healthy.write(&tx, "k", Value::from(1i64)).unwrap();
    relay.register_local(Arc::new(ResourceAction::new(
        "healthy",
        tx.clone(),
        Arc::clone(&healthy) as Arc<dyn Resource>,
    )) as _);
    // A local refuser buried inside the org.
    relay.register_local(Arc::new(activity_service::FnAction::new(
        "refuser",
        |s: &activity_service::Signal| {
            if s.name() == "prepare" {
                Ok(activity_service::Outcome::abort())
            } else {
                Ok(activity_service::Outcome::done())
            }
        },
    )) as _);

    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), "rolled_back");
    assert_eq!(healthy.read_committed("k"), None, "the healthy local was rolled back too");
}

#[test]
fn interposed_spans_continue_the_superior_trace() {
    // Span propagation across interposition: the superior's 2PC signals
    // cross the wire to the subordinate node, and the `serve:` spans on
    // the far side must continue the superior's trace id — one causal
    // trace spanning both organisations, not one per node.
    let telemetry = telemetry::Telemetry::new();
    let orb = Orb::builder()
        .network(NetworkConfig::reliable())
        .telemetry(telemetry.clone())
        .build();
    orb.add_node("superior").unwrap();
    let node = orb.add_node("org-a").unwrap();
    let activity = Activity::new_root("cross-org-commit", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);
    activity.coordinator().set_telemetry(telemetry.clone());
    let tx = TxId::top_level(1);
    let relay = interpose(
        activity.coordinator(),
        TWO_PC_SET,
        &orb,
        &node,
        "org-a-relay",
        RetryPolicy::immediate(9),
    )
    .unwrap();
    let store = Arc::new(TransactionalKv::new("store"));
    store.write(&tx, "k", Value::from(9i64)).unwrap();
    relay.register_local(Arc::new(ResourceAction::new(
        "store",
        tx,
        Arc::clone(&store) as Arc<dyn Resource>,
    )) as _);

    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), "committed");

    let tree = telemetry.span_tree();
    assert_eq!(tree.verify(), Vec::<String>::new());

    // Everything recorded — protocol drive, client calls, remote serves —
    // belongs to the single trace rooted at the superior's signal-set span.
    assert_eq!(tree.trace_ids().len(), 1, "expected one causal trace");
    let roots = tree.roots();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, format!("signal_set:{TWO_PC_SET}"));
    let trace = roots[0].context.trace_id;

    // Prepare and commit each crossed the wire once: two server-side spans,
    // each adopted into the superior's trace and parented under the client
    // call that carried the context.
    let serves: Vec<_> =
        tree.spans().iter().filter(|s| s.name == "serve:process_signal").collect();
    assert_eq!(serves.len(), 2, "one serve per protocol phase");
    for serve in serves {
        assert_eq!(serve.context.trace_id, trace, "subordinate must continue the trace");
        let parent_id = serve.context.parent.expect("serve span has a remote parent");
        let parent = tree
            .spans()
            .iter()
            .find(|s| s.context.span_id == parent_id)
            .expect("parent is in the same recorder");
        assert_eq!(parent.name, "call:process_signal");
    }
}

#[test]
fn interposition_survives_a_lossy_network() {
    let orb = Orb::builder()
        .network(NetworkConfig::lossy(0.25, 0.25, 777))
        .build();
    orb.add_node("superior").unwrap();
    let node = orb.add_node("org-a").unwrap();
    let activity = Activity::new_root("chaotic", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);
    let tx = TxId::top_level(1);
    let relay = interpose(
        activity.coordinator(),
        TWO_PC_SET,
        &orb,
        &node,
        "org-a-relay",
        RetryPolicy::immediate(257),
    )
    .unwrap();
    let store = Arc::new(TransactionalKv::new("store"));
    store.write(&tx, "k", Value::from(5i64)).unwrap();
    relay.register_local(Arc::new(ResourceAction::new(
        "store",
        tx,
        Arc::clone(&store) as Arc<dyn Resource>,
    )) as _);
    let outcome = activity.complete().unwrap();
    assert_eq!(outcome.name(), "committed");
    assert_eq!(store.read_committed("k"), Some(Value::from(5i64)));
}
