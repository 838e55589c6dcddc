//! Causal merge-plane export harness (DESIGN.md §16): run one paced 2PC
//! commit across a three-node simulated cluster with the Lamport
//! interceptor pair installed, fold every node's flight-recorder log into
//! the global happens-before DAG, verify it clean, and export the merged
//! history as Perfetto/Chrome-trace JSON — one track per node, a flow
//! arrow for every send→receive wire edge, virtual-clock timestamps.
//!
//! Everything is deterministic: the harness runs the cluster **twice**
//! and asserts the exported JSON is byte-identical, then self-checks the
//! export against [`telemetry::check_perfetto_schema`].
//!
//! Writes the trace to `CAUSAL_TRACE` (default
//! `target/causal_trace.perfetto.json`) — the CI causal-export job
//! archives it; load it in `ui.perfetto.dev` to walk the commit.
//!
//! Run with: `cargo run -q -p bench --bin causal_export --release`

use std::sync::Arc;
use std::time::Duration;

use orb::{Orb, Request, RetryPolicy, SimClock, Value};
use ots::{ProtocolJournal, TwoPcEvent, VoteKind};

const PACE: Duration = Duration::from_micros(200);
const PARTICIPANTS: [&str; 2] = ["store", "witness"];

/// One paced commit over the wire; returns the Perfetto export, the merge
/// fingerprint, and the number of matched message edges.
fn run_once() -> (String, u64, usize) {
    let clock = SimClock::new();
    let orb = Orb::builder().clock(clock.clone()).build();
    let coordinator = orb.add_node("coordinator").expect("coordinator node");

    let plane = telemetry::CausalityPlane::new();
    let coord_recorder = telemetry::FlightRecorder::with_time(
        "coordinator",
        telemetry::DEFAULT_RECORDER_CAPACITY,
        Arc::new(clock.clone()),
    );
    plane.register(&coord_recorder);
    let journal = ProtocolJournal::new();
    journal.set_recorder(coord_recorder.clone());

    let mut participants = Vec::new();
    for name in PARTICIPANTS {
        let node = orb.add_node(name).expect("participant node");
        let recorder = telemetry::FlightRecorder::with_time(
            name,
            telemetry::DEFAULT_RECORDER_CAPACITY,
            Arc::new(clock.clone()),
        );
        plane.register(&recorder);
        let object = node
            .activate("Resource", |req: &Request| {
                Ok(match req.operation() {
                    "prepare" => Value::from("commit"),
                    _ => Value::from("ack"),
                })
            })
            .expect("activate participant");
        participants.push((name, object));
    }
    orb.install_causality(plane.clone());

    // Phase one: solicit both votes over the wire, paced on the virtual
    // clock so the Perfetto slices spread out visibly.
    for (name, object) in &participants {
        journal.record(TwoPcEvent::PrepareSent { participant: (*name).into() });
        clock.advance(PACE);
        let reply = orb
            .invoke(coordinator.name(), object, Request::new("prepare"), &RetryPolicy::none())
            .expect("prepare");
        assert_eq!(reply.result.as_str(), Some("commit"));
        journal.record(TwoPcEvent::VoteRecorded {
            participant: (*name).into(),
            vote: VoteKind::Commit,
        });
    }

    // Decision point, then phase two.
    clock.advance(PACE);
    journal.record(TwoPcEvent::DecisionForced { commit: true });
    for (name, object) in &participants {
        clock.advance(PACE);
        orb.invoke(coordinator.name(), object, Request::new("outcome"), &RetryPolicy::none())
            .expect("outcome");
        journal.record(TwoPcEvent::OutcomeDelivered {
            participant: (*name).into(),
            commit: true,
            ok: true,
        });
        journal.record(TwoPcEvent::Forgotten { participant: (*name).into() });
    }
    clock.advance(PACE);
    journal.record(TwoPcEvent::Completed { committed: true });

    let dag = plane.merge().build();
    let violations = dag.verify();
    assert!(violations.is_empty(), "fault-free commit must merge clean: {violations:?}");
    (dag.to_perfetto(), dag.fingerprint(), dag.message_edges().len())
}

fn main() {
    let (trace, fingerprint, edges) = run_once();
    let (second, second_fingerprint, _) = run_once();
    assert_eq!(trace, second, "export must be byte-identical across pinned runs");
    assert_eq!(fingerprint, second_fingerprint, "merge fingerprint must be stable");
    telemetry::check_perfetto_schema(&trace).expect("export passes the schema check");

    println!("## causal export: paced 3-node commit, merged happens-before DAG");
    println!("merge fingerprint: {fingerprint:#018x}");
    println!("matched send->receive edges: {edges}");
    println!("perfetto export: {} lines / {} bytes", trace.lines().count(), trace.len());

    let path = std::env::var("CAUSAL_TRACE")
        .unwrap_or_else(|_| "target/causal_trace.perfetto.json".to_owned());
    match std::fs::write(&path, &trace) {
        Ok(()) => println!("# trace written to {path}"),
        Err(e) => println!("# trace NOT written ({path}: {e})"),
    }
}
