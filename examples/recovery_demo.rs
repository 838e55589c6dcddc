//! §3.4: treatment of failure and recovery, end to end.
//!
//! A "process" runs a logged activity tree over a file-backed WAL, with
//! DURABLE stores (their prepared state is write-ahead logged too) and a
//! transaction that crashes between its commit decision and phase two.
//! A second "process" then recovers every layer from the same file: the
//! durable stores rebuild their committed + prepared state, the
//! transaction outcome is re-delivered, the activity structure is rebound
//! (ids, names, parents, signal sets, actions — via the factory
//! registries), and the application drives the in-flight activities to
//! completion. Nothing but the log file crosses the "restart".
//!
//! Run with: `cargo run --example recovery_demo`

use std::sync::Arc;

use std::time::Duration;

use activity_service::{
    recover_activities, ActionFactories, ActivityService, BroadcastSignalSet, FnAction, Outcome,
    Signal, SignalSetFactories,
};
use orb::node::EXTERNAL_CALLER;
use orb::{Introspection, NetworkConfig, Orb, Request, RetryPolicy, SimClock, Value};
use ots::{
    recovery::{CoordinatorLocator, RECOVERY_COORDINATOR_INTERFACE},
    DurableKv, RecoverableResource, RecoveryCoordinator, Resource, ResolutionConfig,
    TransactionFactory,
};
use recovery_log::{FailpointSet, FileWal, Wal};

fn wal_path() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("recovery-demo-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = wal_path();

    // ================= incarnation 1: work, then die =================
    println!("== incarnation 1 ==");
    {
        let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path)?);
        let failpoints = FailpointSet::new();
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        let tx_factory =
            TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());

        let order = service.begin("order-77")?;
        order.add_signal_set_recoverable(
            "notify-warehouse",
            Box::new(BroadcastSignalSet::new("Dispatch", "dispatch", Value::from("order-77"))),
        )?;
        order.register_action_recoverable(
            "Dispatch",
            "warehouse-action",
            Arc::new(FnAction::new("warehouse", |_s: &Signal| Ok(Outcome::done()))),
        )?;
        order.set_completion_signal_set("Dispatch");
        let _shipment = service.begin("shipment")?;

        // The payment transaction reaches its durable commit decision and
        // then the process dies (failpoint) before phase two completes.
        // Both participants are DURABLE stores on the same log.
        let store = DurableKv::new("orders", Arc::clone(&wal));
        let witness = DurableKv::new("audit", Arc::clone(&wal));
        let tx = tx_factory.create()?;
        tx.coordinator().register_resource(Arc::clone(&store) as Arc<dyn Resource>)?;
        tx.coordinator().register_resource(Arc::clone(&witness) as Arc<dyn Resource>)?;
        store.store().write(tx.id(), "payment-77", Value::F64(59.90))?;
        witness.store().write(tx.id(), "audit-77", Value::from("payment recorded"))?;
        failpoints.arm("ots.after_decision", 0);
        let err = tx.terminator().commit().unwrap_err();
        println!("  crash injected: {err}");
        assert_eq!(store.store().read_committed("payment-77"), None, "phase two never ran");
        // The process dies here: the Arc'd in-memory stores are dropped
        // with it. Only the log file survives.
    }

    // ================= incarnation 2: recover =================
    println!("\n== incarnation 2 ==");
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path)?);

    // (a) Durable participants rebuild from the log: prepared state is
    //     re-installed, awaiting the outcome.
    let store = DurableKv::recover("orders", Arc::clone(&wal))?;
    let witness = DurableKv::recover("audit", Arc::clone(&wal))?;
    assert_eq!(store.store().read_committed("payment-77"), None, "still in doubt");

    // (b) Transaction recovery: the logged decision is re-delivered.
    let tx_factory = TransactionFactory::with_wal(Arc::clone(&wal));
    let store2 = Arc::clone(&store);
    let audit2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "orders" => Some(store2.clone() as Arc<dyn Resource>),
            "audit" => Some(audit2.clone() as Arc<dyn Resource>),
            _ => None,
        }
    };
    let tx_report = tx_factory.recover(&resolver)?;
    println!(
        "  transactions: {} recommitted, {} presumed aborted",
        tx_report.recommitted.len(),
        tx_report.presumed_aborted.len()
    );
    assert_eq!(store.store().read_committed("payment-77"), Some(Value::F64(59.90)));
    assert_eq!(
        witness.store().read_committed("audit-77"),
        Some(Value::from("payment recorded"))
    );

    // (c) Activity recovery: rebuild the tree, re-instantiate sets/actions
    //     through the factories.
    let mut sets = SignalSetFactories::new();
    sets.register("notify-warehouse", || {
        Box::new(BroadcastSignalSet::new("Dispatch", "dispatch", Value::from("order-77"))) as _
    });
    let mut actions = ActionFactories::new();
    actions.register("warehouse-action", || {
        Arc::new(FnAction::new("warehouse", |s: &Signal| {
            println!("  [warehouse] dispatching {}", s.data());
            Ok(Outcome::done())
        })) as _
    });
    let recovered = recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new())?;
    println!(
        "  activities: {} roots, {} in flight, {} already completed",
        recovered.roots.len(),
        recovered.incomplete.len(),
        recovered.completed.len()
    );

    // (d) The application drives the in-flight activities to consistency
    //     (children before parents).
    for activity in recovered.incomplete.iter().rev() {
        let outcome = activity.complete()?;
        println!("  completed {:?} with outcome {}", activity.name(), outcome);
    }

    // (e) §15's introspection plane over in-doubt resolution: a *remote*
    //     participant prepared under this coordinator, the coordinator died
    //     after forcing its decision, and the restarted participant now
    //     interrogates it over the wire. Its Introspection servant shows
    //     the in-doubt set draining — snapshotted before and after the
    //     resolution pass.
    println!("\n== remote participant: in-doubt resolution ==");
    let orb =
        Orb::builder().network(NetworkConfig::reliable()).clock(SimClock::new()).build();
    let coord_node = orb.add_node("coordinator")?;
    let participant_node = orb.add_node("participant")?;

    let ledger = DurableKv::new("ledger", Arc::clone(&wal));
    let recoverable = Arc::new(RecoverableResource::new(
        Arc::clone(&ledger) as Arc<dyn Resource>,
        Arc::clone(&wal),
        "coordinator",
    ));
    let audit_mirror = Arc::new(RecoverableResource::new(
        Arc::clone(&witness) as Arc<dyn Resource>,
        Arc::clone(&wal),
        "coordinator",
    ));
    let failpoints = FailpointSet::new();
    let refund_factory =
        TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());
    let refund = refund_factory.create()?;
    refund.coordinator().register_resource(Arc::clone(&recoverable) as Arc<dyn Resource>)?;
    refund.coordinator().register_resource(Arc::clone(&audit_mirror) as Arc<dyn Resource>)?;
    ledger.store().write(refund.id(), "refund-77", Value::F64(-59.90))?;
    witness.store().write(refund.id(), "audit-refund-77", Value::from("refund recorded"))?;
    failpoints.arm("ots.after_decision", 0);
    let err = refund.terminator().commit().unwrap_err();
    println!("  crash injected: {err}");

    // The recovery coordinator answers replay_completion from the shared
    // log; the participant's introspection servant exposes its recovery
    // surface as a read-only probe.
    let rc_object = coord_node
        .activate(RECOVERY_COORDINATOR_INTERFACE, RecoveryCoordinator::new(Arc::clone(&wal)))?;
    let locate: CoordinatorLocator = {
        let object = rc_object.clone();
        Arc::new(move |node: &str| (node == "coordinator").then(|| object.clone()))
    };
    let (surface, intro_ref) = Introspection::install(&participant_node)?;
    {
        let res = Arc::clone(&recoverable);
        surface.register("ledger", move || res.introspect());
        let res = Arc::clone(&audit_mirror);
        surface.register("audit", move || res.introspect());
    }

    let before = orb
        .invoke(EXTERNAL_CALLER, &intro_ref, Request::new("snapshot"), &RetryPolicy::none())?
        .result;
    println!("  before resolve_in_doubt:");
    for line in before.as_str().unwrap_or_default().lines() {
        println!("  {line}");
    }
    let config = ResolutionConfig::new(RetryPolicy::new(3), Duration::from_secs(60));
    let mut report = recoverable.resolve_in_doubt(&orb, "participant", &locate, &config)?;
    let audit_report = audit_mirror.resolve_in_doubt(&orb, "participant", &locate, &config)?;
    report.committed.extend(audit_report.committed);
    report.rolled_back.extend(audit_report.rolled_back);
    report.unresolved.extend(audit_report.unresolved);
    println!(
        "  resolved: {} committed, {} rolled back, {} still in doubt",
        report.committed.len(),
        report.rolled_back.len(),
        report.unresolved.len()
    );
    let after = orb
        .invoke(EXTERNAL_CALLER, &intro_ref, Request::new("snapshot"), &RetryPolicy::none())?
        .result;
    println!("  after resolve_in_doubt:");
    for line in after.as_str().unwrap_or_default().lines() {
        println!("  {line}");
    }
    assert!(report.fully_resolved());
    assert_eq!(ledger.store().read_committed("refund-77"), Some(Value::F64(-59.90)));

    // Third scan proves stability: nothing left in flight.
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path)?);
    let again = recover_activities(wal, &sets, &actions, SimClock::new())?;
    assert!(again.incomplete.is_empty());
    println!("\nrecovery complete; log is quiescent");
    std::fs::remove_file(&path)?;
    Ok(())
}
