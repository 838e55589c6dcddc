//! The paper's §2.1 motivating applications, (ii) and (iii): name-server
//! access and billing, both of which need updates that **survive** the
//! enclosing transaction's abort — the opposite of ACID containment.
//! (Example (i), the bulletin board, lives in `fig9_open_nesting.rs`.)

use std::sync::Arc;

use activity_service::{ActivityService, CompletionStatus, FnAction, Outcome, Signal};
use orb::node::EXTERNAL_CALLER;
use orb::{ObjectId, ObjectRef, Orb, Request, RetryPolicy, Value};
use ots::{TransactionFactory, TransactionalKv};
use parking_lot::Mutex;

/// §2.1(ii): "Application transactions, upon finding out that certain
/// object replicas are unavailable can invoke operations to update the
/// naming service database accordingly, while carrying on with the main
/// computation. There is no reason to undo these naming service updates
/// should the application transaction subsequently abort."
#[test]
fn name_server_updates_survive_application_abort() {
    let orb = Orb::new();
    let service = ActivityService::new();
    let factory = TransactionFactory::new();
    let app_store = Arc::new(TransactionalKv::new("app"));

    // Two replicas bound in the naming service.
    let node = orb.add_node("replica-host").unwrap();
    let primary = node.activate("Replica", |_r: &Request| Ok(Value::from("primary"))).unwrap();
    let backup = node.activate("Replica", |_r: &Request| Ok(Value::from("backup"))).unwrap();
    orb.registry().bind("service/primary", primary.clone()).unwrap();
    orb.registry().bind("service/backup", backup.clone()).unwrap();

    // The application activity: inside a transaction it discovers the
    // primary is dead and rebinds — as an *activity-level* side effect, not
    // a transactional write.
    service.begin("application").unwrap();
    let tx = factory.create().unwrap();
    app_store.enlist(&tx).unwrap();
    app_store.write(tx.id(), "progress", Value::from(1i64)).unwrap();

    node.deactivate(&primary);
    let resolved = orb.registry().resolve("service/primary").unwrap();
    assert!(
        orb.invoke(EXTERNAL_CALLER, &resolved, Request::new("ping"), &RetryPolicy::none()).is_err(),
        "primary is gone"
    );
    // Update the naming database: point the well-known name at the backup.
    orb.registry().rebind("service/primary", backup.clone());

    // The application transaction then aborts…
    tx.terminator().rollback().unwrap();
    service.complete_with_status(CompletionStatus::Fail).unwrap();

    // …the transactional write is gone, but the naming update SURVIVES.
    assert_eq!(app_store.read_committed("progress"), None);
    let resolved = orb.registry().resolve("service/primary").unwrap();
    assert_eq!(resolved, backup);
    let reply =
        orb.invoke(EXTERNAL_CALLER, &resolved, Request::new("ping"), &RetryPolicy::none()).unwrap();
    assert_eq!(reply.result.as_str(), Some("backup"));
}

/// §2.1(iii): "if a service is accessed by a transaction and the user of
/// the service is to be charged, then the charging information should not
/// be recovered if the transaction aborts." The charge is recorded by an
/// Action on the activity's completion signal set — it runs regardless of
/// the transaction's outcome.
#[test]
fn billing_survives_transaction_abort() {
    let service = ActivityService::new();
    let factory = TransactionFactory::new();
    let data = Arc::new(TransactionalKv::new("data"));
    let charges: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    let run_billed_call = |should_commit: bool| {
        let activity = service.begin("billed-call").unwrap();
        activity
            .coordinator()
            .add_signal_set(Box::new(activity_service::BroadcastSignalSet::new(
                "Billing",
                "charge",
                Value::U64(25),
            )))
            .unwrap();
        activity.set_completion_signal_set("Billing");
        let charges2 = Arc::clone(&charges);
        let label = if should_commit { "committed-call" } else { "aborted-call" };
        activity.coordinator().register_action(
            "Billing",
            Arc::new(FnAction::new("biller", move |s: &Signal| {
                let amount = s.data().as_u64().unwrap_or(0);
                charges2.lock().push((label.to_owned(), amount));
                Ok(Outcome::done())
            })) as _,
        );

        let tx = factory.create().unwrap();
        data.enlist(&tx).unwrap();
        data.write(tx.id(), label, Value::from(1i64)).unwrap();
        if should_commit {
            tx.terminator().commit().unwrap();
            service.complete().unwrap();
        } else {
            tx.terminator().rollback().unwrap();
            service.complete_with_status(CompletionStatus::Fail).unwrap();
        }
    };

    run_billed_call(true);
    run_billed_call(false);

    // Both calls were charged — the abort did not recover the billing.
    assert_eq!(
        *charges.lock(),
        vec![("committed-call".to_owned(), 25), ("aborted-call".to_owned(), 25)]
    );
    // But only the committed call's data survived.
    assert_eq!(data.read_committed("committed-call"), Some(Value::from(1i64)));
    assert_eq!(data.read_committed("aborted-call"), None);
}

/// The naming service itself behaves like §2.1(ii) requires under
/// concurrent lookups and rebinds.
#[test]
fn naming_service_concurrent_rebinds() {
    let orb = Orb::new();
    let node = orb.add_node("host").unwrap();
    let objects: Vec<ObjectRef> = (0..8)
        .map(|i| {
            node.activate("Svc", move |_r: &Request| Ok(Value::U64(i))).unwrap()
        })
        .collect();
    orb.registry().bind("svc", objects[0].clone()).unwrap();

    std::thread::scope(|scope| {
        for obj in &objects {
            let registry = orb.registry();
            scope.spawn(move || {
                registry.rebind("svc", obj.clone());
            });
        }
        let registry = orb.registry();
        scope.spawn(move || {
            for _ in 0..50 {
                // Lookups never observe a missing binding.
                assert!(registry.resolve("svc").is_ok());
            }
        });
    });
    // Whatever won, the binding resolves to one of the replicas.
    let end = orb.registry().resolve("svc").unwrap();
    assert!(objects.contains(&end));
    // And stale references are detectable: a deactivated object fails fast.
    node.deactivate(&objects[3]);
    let probe = ObjectRef::new(ObjectId::new(end.id().node_seq(), objects[3].id().object_seq()), "host", "Svc");
    assert!(orb
        .invoke(EXTERNAL_CALLER, &probe, Request::new("ping"), &RetryPolicy::none())
        .is_err());
}
