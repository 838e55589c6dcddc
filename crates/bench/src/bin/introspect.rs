//! Whole-cluster introspection harness (DESIGN.md §15): run one paced 2PC
//! commit across a three-node simulated cluster, install an
//! [`orb::Introspection`] servant on every node, and render what an
//! operator would see — each node's live state table queried **over the
//! wire**, the commit span's critical-path latency attribution as JSON,
//! and the vote-latency quantiles from the metrics registry.
//!
//! Participants are wrapped in [`bench::PacedResource`], which advances the
//! virtual clock on every protocol call, so spans carry real (virtual)
//! durations and the attribution is non-trivial. Everything is
//! deterministic: two runs print byte-identical output.
//!
//! Writes the cluster table to `INTROSPECT_SNAPSHOT` (default
//! `target/introspection.txt`) and the attribution JSON to
//! `INTROSPECT_ATTRIBUTION` (default `target/critical_path.json`) — the CI
//! introspection job archives both.
//!
//! Run with: `cargo run -q -p bench --bin introspect --release`

use std::sync::Arc;
use std::time::Duration;

use orb::node::EXTERNAL_CALLER;
use orb::{
    DedupWindow, FailureDetector, Introspection, Orb, Request, RetryPolicy, SimClock, Value,
};
use ots::{
    ProtocolJournal, RecoverableResource, Resource, TransactionFactory, TransactionalKv,
};
use recovery_log::{GroupCommitWal, MemWal, Wal};

const VOTE_PACE: Duration = Duration::from_micros(250);

fn main() {
    let clock = SimClock::new();
    let telemetry = telemetry::Telemetry::with_time(Arc::new(clock.clone()));
    let recorder = telemetry::FlightRecorder::with_time(
        "coordinator",
        telemetry::DEFAULT_RECORDER_CAPACITY,
        Arc::new(clock.clone()),
    );
    telemetry.attach_recorder(recorder.clone());

    // One ORB, three nodes — the same wiring the partition sweeps use.
    let orb = Orb::builder().clock(clock.clone()).build();
    let coordinator = orb.add_node("coordinator").expect("coordinator node");
    let store_node = orb.add_node("store").expect("store node");
    let witness_node = orb.add_node("witness").expect("witness node");

    // Coordinator-side state: group-commit WAL, journal, detector.
    let group = Arc::new(GroupCommitWal::new(MemWal::new()));
    let wal: Arc<dyn Wal> = Arc::clone(&group) as Arc<dyn Wal>;
    let journal: ProtocolJournal = recorder.journal();
    let detector = FailureDetector::new(clock.clone());
    detector.set_recorder(recorder.clone());
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_clock(clock.clone())
        .with_dispatch(ots::DispatchConfig::serial())
        .with_journal(journal.clone())
        .with_telemetry(telemetry.clone());

    // Participant-side state: recoverable wrappers over paced stores, a
    // dedup window with some remembered deliveries.
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let kv_store = Arc::new(TransactionalKv::new("store"));
    let kv_witness = Arc::new(TransactionalKv::new("witness"));
    let res_store = Arc::new(
        RecoverableResource::new(
            Arc::new(bench::PacedResource::new(
                Arc::clone(&kv_store) as Arc<dyn Resource>,
                clock.clone(),
                VOTE_PACE,
            )) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        ),
    );
    let res_witness = Arc::new(
        RecoverableResource::new(
            Arc::new(bench::PacedResource::new(
                Arc::clone(&kv_witness) as Arc<dyn Resource>,
                clock.clone(),
                2 * VOTE_PACE,
            )) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        ),
    );
    let dedup = Arc::new(DedupWindow::new(64));
    dedup.record("delivery-1", Value::from("ok"));
    dedup.record("delivery-2", Value::from("ok"));

    // Drive one paced commit; the detector hears from both participants.
    let control = factory.create().expect("begin record");
    control
        .coordinator()
        .register_resource(Arc::clone(&res_store) as Arc<dyn Resource>)
        .expect("register store");
    control
        .coordinator()
        .register_resource(Arc::clone(&res_witness) as Arc<dyn Resource>)
        .expect("register witness");
    kv_store.write(control.id(), "k", Value::from(1i64)).expect("write store");
    kv_witness.write(control.id(), "w", Value::from(2i64)).expect("write witness");
    control.terminator().commit().expect("commit");
    // Seed the detector with evidence worth rendering: the witness dropped
    // one call and recovered; a flaky replica keeps failing.
    detector.record_failure("witness");
    detector.record_success("witness");
    for _ in 0..3 {
        detector.record_failure("replica-3");
    }

    // The introspection plane: one servant per node, read-only probes over
    // each node's layers, queried over the wire like any other servant.
    let (coord_surface, coord_ref) =
        Introspection::install(&coordinator).expect("install coordinator surface");
    {
        let group = Arc::clone(&group);
        coord_surface.register("wal", move || group.introspect());
        let detector = detector.clone();
        coord_surface.register("detector", move || detector.introspect());
        let journal = journal.clone();
        coord_surface.register("journal", move || {
            journal.events().iter().map(|e| format!("{e}\n")).collect()
        });
        let recorder = recorder.clone();
        coord_surface.register("recorder", move || {
            recorder.tail(8).iter().map(|e| format!("{}\n", e.render())).collect()
        });
    }
    let (store_surface, store_ref) =
        Introspection::install(&store_node).expect("install store surface");
    {
        let res = Arc::clone(&res_store);
        store_surface.register("resource", move || res.introspect());
        let dedup = Arc::clone(&dedup);
        store_surface.register("dedup", move || dedup.introspect());
    }
    let (witness_surface, witness_ref) =
        Introspection::install(&witness_node).expect("install witness surface");
    {
        let res = Arc::clone(&res_witness);
        witness_surface.register("resource", move || res.introspect());
    }

    println!("## cluster introspection (queried over the wire)");
    let mut table = String::new();
    for object in [&coord_ref, &store_ref, &witness_ref] {
        let reply = orb
            .invoke(EXTERNAL_CALLER, object, Request::new("snapshot"), &RetryPolicy::none())
            .expect("snapshot");
        table.push_str(reply.result.as_str().expect("snapshot renders as a string"));
    }
    print!("{table}");

    // Critical-path attribution over the commit span: phases must
    // partition the root duration exactly on the virtual clock.
    let path = telemetry
        .span_tree()
        .critical_path()
        .expect("the commit produced a span tree");
    assert!(path.is_exact(), "attribution must partition the root span exactly");
    let attribution = path.to_json();
    println!("## critical-path attribution");
    println!("{attribution}");

    println!("## vote-latency quantiles");
    let votes = telemetry
        .metrics()
        .histogram("twopc_vote_latency_seconds")
        .expect("vote latencies were observed");
    for q in [0.5, 0.9, 0.99] {
        let latency = votes.quantile(q).expect("non-empty histogram");
        println!("p{:02}: {:.0}us", (q * 100.0) as u32, latency.as_secs_f64() * 1e6);
    }

    let table_path = std::env::var("INTROSPECT_SNAPSHOT")
        .unwrap_or_else(|_| "target/introspection.txt".to_owned());
    let json_path = std::env::var("INTROSPECT_ATTRIBUTION")
        .unwrap_or_else(|_| "target/critical_path.json".to_owned());
    match std::fs::write(&table_path, &table) {
        Ok(()) => println!("# cluster table written to {table_path}"),
        Err(e) => println!("# cluster table NOT written ({table_path}: {e})"),
    }
    match std::fs::write(&json_path, &attribution) {
        Ok(()) => println!("# attribution written to {json_path}"),
        Err(e) => println!("# attribution NOT written ({json_path}: {e})"),
    }
}
