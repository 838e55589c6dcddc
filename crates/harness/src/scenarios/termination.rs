//! Partition-tolerant termination: 2PC through [`ots::RecoverableResource`]
//! participants with a [`ots::RecoveryCoordinator`] servant on the simulated
//! ORB, so every crash, restart or partition the schedule injects is
//! eventually answered by *participant-driven* in-doubt resolution.
//!
//! The runner closes the loop the `eventual-resolution` oracle checks: run
//! the protocol under the schedule, "restart" crashed components from their
//! surviving WALs, heal partitions by advancing the virtual clock, and give
//! the participants bounded resolution rounds of `replay_completion`
//! interrogation. Whatever is still in doubt afterwards is reported in
//! [`Observation::in_doubt_after_resolution`] — under presumed abort that
//! number must be zero.
//!
//! Two flavours share the runner: [`TerminationScenario`] interrogates an
//! honest coordinator; [`ForgetfulCoordinatorScenario`] is the planted bug —
//! its coordinator answers `unknown` for transactions it has no record of,
//! where presumed abort *requires* `rolled_back`. Undecided-crash schedules
//! then leave participants in doubt forever, which oracle #10 catches and
//! the sweep shrinks to the 1-minimal crash arm.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use orb::{NetworkConfig, Orb, Request, RetryPolicy, SimClock, Value};
use ots::recovery::{self, CoordinatorLocator, RECOVERY_COORDINATOR_INTERFACE};
use ots::txlog::{txid_to_value, KIND_TX_DECISION};
use ots::{
    DispatchConfig, DurableKv, ProtocolJournal, RecoverableResource, RecoveryCoordinator,
    Resource, ResolutionConfig, TransactionFactory, TxError,
};
use recovery_log::{FailpointSet, Lsn, MemWal, Wal};

use super::explore_two_phase::model_events_from_journal;
use crate::model::Event;
use crate::oracle::{Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::{FaultEvent, FaultSchedule};

/// Honest termination protocol: every in-doubt participant is resolved once
/// faults cease and partitions heal.
pub struct TerminationScenario;

/// The planted-bug flavour: the coordinator forgets presumed abort and
/// answers `unknown` for undecided transactions, so participants that
/// prepared before an undecided crash stay in doubt forever.
pub struct ForgetfulCoordinatorScenario;

impl Scenario for TerminationScenario {
    fn name(&self) -> &'static str {
        "termination-protocol"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_termination(schedule, false)
    }
}

impl Scenario for ForgetfulCoordinatorScenario {
    fn name(&self) -> &'static str {
        "termination-forgetful-coordinator"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_termination(schedule, true)
    }
}

const COORDINATOR_NODE: &str = "coordinator";
const PARTICIPANT_NODE: &str = "participant";
/// Bounded post-heal resolution rounds; the virtual clock advances
/// [`ROUND_ADVANCE`] between rounds, so the rounds together outlast every
/// partition window the generator can produce (max `until_us` is 2300).
const RESOLUTION_ROUNDS: usize = 12;
const ROUND_ADVANCE: Duration = Duration::from_micros(500);
/// Far beyond any window the schedule space generates: honest runs must
/// never need a heuristic, and one recorded anyway is exactly what the
/// oracle's unhazarded-heuristic clause exists to catch.
const HEURISTIC_DEADLINE: Duration = Duration::from_secs(600);

/// Rebuild one participant (store + recoverable wrapper) from its WAL.
fn restart_participant(
    name: &str,
    wal: &Arc<dyn Wal>,
    failpoints: &FailpointSet,
) -> (Arc<DurableKv>, Arc<RecoverableResource>) {
    let kv = DurableKv::recover(name, Arc::clone(wal)).expect("recover durable kv");
    let res = RecoverableResource::recover(
        Arc::clone(&kv) as Arc<dyn Resource>,
        Arc::clone(wal),
        COORDINATOR_NODE,
    )
    .expect("recover resource")
    .with_failpoints(failpoints.clone());
    (kv, Arc::new(res))
}

fn run_termination(schedule: &FaultSchedule, forgetful: bool) -> Observation {
    let clock = SimClock::new();
    let orb = Orb::builder()
        .network(NetworkConfig::reliable())
        .clock(clock.clone())
        .build();
    let coord_node = orb.add_node(COORDINATOR_NODE).expect("add coordinator node");
    orb.add_node(PARTICIPANT_NODE).expect("add participant node");

    let coordinator_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());

    // The participant-side black box (oracle #11): journal entries,
    // failpoint passages, partition windows and every restart land in one
    // ring on the run's virtual clock — this is the dump the explorer
    // staples to a shrunk forgetful-coordinator reproducer.
    let recorder = telemetry::FlightRecorder::with_time(
        PARTICIPANT_NODE,
        telemetry::DEFAULT_RECORDER_CAPACITY,
        Arc::new(clock.clone()),
    );
    // The coordinator's own ring plus the causality plane (oracle #12):
    // both recorders' Lamport clocks are adopted by the plane, and the
    // ORB's Lamport interceptor pair stamps every cross-node invocation,
    // so the merged happens-before DAG has real send→receive edges.
    let coord_recorder = telemetry::FlightRecorder::with_time(
        COORDINATOR_NODE,
        telemetry::DEFAULT_RECORDER_CAPACITY,
        Arc::new(clock.clone()),
    );
    let plane = telemetry::CausalityPlane::new();
    plane.register(&recorder);
    plane.register(&coord_recorder);
    orb.install_causality(plane.clone());

    let failpoints = FailpointSet::new();
    schedule.arm_into(&failpoints);
    failpoints.set_recorder(recorder.clone());
    orb.network().install_script(schedule.to_fault_script());
    schedule.apply_partitions(orb.network());
    for event in schedule.events() {
        if let FaultEvent::Partition { node, from_us, until_us } = event {
            recorder.record(telemetry::RecordKind::PartitionOpen, || {
                format!("{node} cut off {from_us}us..{until_us}us")
            });
        }
    }

    let servant = if forgetful {
        RecoveryCoordinator::forgetful(Arc::clone(&coordinator_wal))
    } else {
        RecoveryCoordinator::new(Arc::clone(&coordinator_wal))
    };
    let rc_object = coord_node
        .activate(RECOVERY_COORDINATOR_INTERFACE, servant)
        .expect("activate recovery coordinator");
    let locate: CoordinatorLocator = {
        let object = rc_object.clone();
        Arc::new(move |node: &str| (node == COORDINATOR_NODE).then(|| object.clone()))
    };

    let journal: ProtocolJournal = recorder.journal();
    let factory = TransactionFactory::with_wal(Arc::clone(&coordinator_wal))
        .with_failpoints(failpoints.clone())
        .with_dispatch(DispatchConfig::serial())
        .with_journal(journal.clone());

    let kv_store = DurableKv::new("store", Arc::clone(&participant_wal));
    let kv_witness = DurableKv::new("witness", Arc::clone(&participant_wal));
    let res_store = Arc::new(
        RecoverableResource::new(
            Arc::clone(&kv_store) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            COORDINATOR_NODE,
        )
        .with_failpoints(failpoints.clone()),
    );
    let res_witness = Arc::new(
        RecoverableResource::new(
            Arc::clone(&kv_witness) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            COORDINATOR_NODE,
        )
        .with_failpoints(failpoints.clone()),
    );

    let control = factory.create().expect("begin record");
    control
        .coordinator()
        .register_resource(Arc::clone(&res_store) as Arc<dyn Resource>)
        .expect("register store");
    control
        .coordinator()
        .register_resource(Arc::clone(&res_witness) as Arc<dyn Resource>)
        .expect("register witness");
    kv_store.store().write(control.id(), "k", Value::from(1i64)).expect("write store");
    kv_witness.store().write(control.id(), "w", Value::from(2i64)).expect("write witness");

    let commit = control.terminator().commit();
    let mut trace = String::new();
    let _ = writeln!(trace, "commit: {commit:?}");
    // Injected faults cease here: the crashed component is about to be
    // restarted, and whatever the run left in doubt must now resolve.
    failpoints.clear();

    let mut obs = Observation::new(RunOutcome::Committed);
    let mut model_events = model_events_from_journal(&journal.events());

    let decision_durable = coordinator_wal
        .scan(Lsn::new(0))
        .expect("scan coordinator wal")
        .iter()
        .any(|r| r.kind == KIND_TX_DECISION);
    let coordinator_crashed = matches!(commit, Err(TxError::Log(_)));
    let in_doubt_before_restart = res_store.in_doubt().len() + res_witness.in_doubt().len();
    let needs_resolution = coordinator_crashed
        || matches!(commit, Err(TxError::Heuristic { .. }))
        || in_doubt_before_restart > 0;

    let (remaining, heuristics) = if needs_resolution {
        let _ = writeln!(
            trace,
            "restart: {in_doubt_before_restart} in doubt, decision_durable={decision_durable}"
        );
        // Restart arms crash the *recovered* participant too: the schedule
        // says this component dies again inside its own resolution path.
        let restart_failpoints = FailpointSet::new();
        for event in schedule.events() {
            if let FaultEvent::Restart { site, after } = event {
                restart_failpoints.arm(site.clone(), *after);
            }
        }
        restart_failpoints.set_recorder(recorder.clone());
        recorder.record(telemetry::RecordKind::Restart, || {
            format!("store+witness rebuilt from wal ({in_doubt_before_restart} in doubt)")
        });
        let (mut kv_store2, mut res_store2) =
            restart_participant("store", &participant_wal, &restart_failpoints);
        let (mut kv_witness2, mut res_witness2) =
            restart_participant("witness", &participant_wal, &restart_failpoints);

        let config = ResolutionConfig::new(RetryPolicy::new(3), HEURISTIC_DEADLINE);
        for round in 1..=RESOLUTION_ROUNDS {
            let mut crashed_mid_resolution = false;
            for res in [&res_store2, &res_witness2] {
                if res.in_doubt().is_empty() {
                    continue;
                }
                let name = res.inner().resource_name().to_owned();
                match res.resolve_in_doubt(&orb, PARTICIPANT_NODE, &locate, &config) {
                    Ok(report) => {
                        let _ = writeln!(
                            trace,
                            "round {round} {name}: committed={} rolled_back={} unresolved={}",
                            report.committed.len(),
                            report.rolled_back.len(),
                            report.unresolved.len()
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(trace, "round {round} {name}: crashed again: {e:?}");
                        crashed_mid_resolution = true;
                    }
                }
            }
            if crashed_mid_resolution {
                // Second restart: a crash inside resolution is recovered
                // from like any other, and this time it stays up.
                recorder.record(telemetry::RecordKind::Restart, || {
                    format!("store+witness rebuilt again after round {round} crash")
                });
                restart_failpoints.clear();
                (kv_store2, res_store2) =
                    restart_participant("store", &participant_wal, &restart_failpoints);
                (kv_witness2, res_witness2) =
                    restart_participant("witness", &participant_wal, &restart_failpoints);
            }
            if res_store2.in_doubt().is_empty() && res_witness2.in_doubt().is_empty() {
                break;
            }
            // Let scheduled partition windows expire between rounds.
            clock.advance(ROUND_ADVANCE);
        }

        let remaining = res_store2.in_doubt().len() + res_witness2.in_doubt().len();
        let heuristics = res_store2.heuristics().len() + res_witness2.heuristics().len();
        // Replay stability: one more restart over the same logs must land
        // in exactly the post-resolution state.
        let (_, res_store3) =
            restart_participant("store", &participant_wal, &FailpointSet::new());
        let (_, res_witness3) =
            restart_participant("witness", &participant_wal, &FailpointSet::new());
        obs.replay_stable = Some(
            res_store3.in_doubt().len() == res_store2.in_doubt().len()
                && res_witness3.in_doubt().len() == res_witness2.in_doubt().len(),
        );
        let replayed =
            if decision_durable { RunOutcome::Committed } else { RunOutcome::Aborted };
        obs.decision_durable = Some(decision_durable);
        obs.replay_outcome = Some(replayed);
        obs.outcome = replayed;
        obs.participant_commits = vec![
            ("store".into(), kv_store2.store().read_committed("k").is_some()),
            ("witness".into(), kv_witness2.store().read_committed("w").is_some()),
        ];
        let _ = writeln!(
            trace,
            "resolved: store={:?} witness={:?} in_doubt={remaining} heuristics={heuristics}",
            kv_store2.store().read_committed("k"),
            kv_witness2.store().read_committed("w")
        );
        if coordinator_crashed {
            // The crash cut the journal short of its terminal event; the
            // durable decision settles the direction for the model trace.
            model_events.push(Event::TxCompleted { committed: decision_durable });
        }
        (remaining, heuristics)
    } else {
        obs.outcome = match &commit {
            Ok(_) => RunOutcome::Committed,
            Err(_) => RunOutcome::Aborted,
        };
        obs.participant_commits = vec![
            ("store".into(), kv_store.store().read_committed("k").is_some()),
            ("witness".into(), kv_witness.store().read_committed("w").is_some()),
        ];
        let _ = writeln!(
            trace,
            "final: store={:?} witness={:?}",
            kv_store.store().read_committed("k"),
            kv_witness.store().read_committed("w")
        );
        (0, 0)
    };

    // Post-mortem audit over the (possibly partitioned) network: advance
    // past every scheduled window, then interrogate the coordinator once
    // per participant. Clean probe runs thereby send remote messages, so
    // the schedule space reaches drop/duplicate/partition arms.
    let horizon = schedule
        .events()
        .iter()
        .filter_map(|e| match e {
            FaultEvent::Partition { until_us, .. } => Some(*until_us),
            _ => None,
        })
        .max()
        .map_or(Duration::ZERO, Duration::from_micros);
    if clock.now() < horizon {
        clock.advance(horizon - clock.now());
    }
    for event in schedule.events() {
        if let FaultEvent::Partition { node, until_us, .. } = event {
            recorder.record(telemetry::RecordKind::PartitionHeal, || {
                format!("{node} healed (window closed at {until_us}us)")
            });
        }
    }
    let audit_policy = RetryPolicy::new(3);
    for name in ["store", "witness"] {
        let request = Request::new("replay_completion").with_arg("tx", txid_to_value(control.id()));
        let answer = orb.invoke(PARTICIPANT_NODE, &rc_object, request, &audit_policy);
        let _ = writeln!(trace, "audit[{name}]: {:?}", answer.map(|reply| reply.result));
    }

    obs.in_doubt_after_resolution = Some(remaining as u32);
    obs.heuristics = Some(heuristics as u32);
    // Nothing in this scenario makes an outcome unknowable forever: the
    // coordinator's log always answers once partitions heal, so a recorded
    // heuristic is never legitimate here.
    obs.hazarded = Some(false);
    obs.transient_faults = Some(schedule.transient_fault_count());
    obs.hard_faults = Some(schedule.hard_fault_count());
    obs.retry_budget = Some(3);
    obs.trace = trace;
    obs.observed_sites = failpoints.observed_sites();
    obs.remote_messages = orb.network().remote_messages();
    obs.partition_nodes =
        vec![COORDINATOR_NODE.to_owned(), PARTICIPANT_NODE.to_owned()];
    obs.restart_sites = recovery::failpoints::FAILPOINT_SITES
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    obs.model_events = Some(model_events);
    // Oracle #12: fold both nodes' logs into the global happens-before
    // DAG and verify it — acyclic, receive-after-send on every matched
    // wire edge, protocol order respected across the merge.
    obs.report_recorder(&recorder, Some(&plane.merge()));
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn fault_free_run_commits_resolves_nothing_and_passes_oracles() {
        let obs = TerminationScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.in_doubt_after_resolution, Some(0));
        assert_eq!(obs.heuristics, Some(0));
        assert!(obs.remote_messages >= 2, "the audit interrogates remotely");
        assert!(!obs.partition_nodes.is_empty() && !obs.restart_sites.is_empty());
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
        // The probe observes the coordinator sites plus the participant
        // wrapper's prepare/apply sites (resolution never runs fault-free,
        // so before_resolve is reachable only through restart arms).
        assert!(obs
            .observed_sites
            .contains(&recovery::failpoints::AFTER_PREPARED.to_owned()));
        assert!(obs
            .observed_sites
            .contains(&recovery::failpoints::BEFORE_APPLY.to_owned()));
        assert!(obs.observed_sites.contains(&"ots.before_decision".to_owned()));
    }

    #[test]
    fn coordinator_crash_before_decision_presumed_aborts_via_interrogation() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::Restart {
            site: "ots.before_decision".into(),
            after: 0,
        }]);
        let obs = TerminationScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert_eq!(obs.decision_durable, Some(false));
        assert_eq!(obs.in_doubt_after_resolution, Some(0));
        assert_eq!(obs.heuristics, Some(0));
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn coordinator_crash_after_decision_resolves_to_commit() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::Restart {
            site: "ots.after_decision".into(),
            after: 0,
        }]);
        let obs = TerminationScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.decision_durable, Some(true));
        assert_eq!(obs.in_doubt_after_resolution, Some(0));
        assert!(obs.participant_commits.iter().all(|(_, c)| *c));
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn participant_crash_during_delivery_resolves_after_restart() {
        // The decision is forced and delivery begins; the participant dies
        // applying it (heuristic surface on the coordinator side), restarts,
        // and interrogation finishes the job.
        let schedule = FaultSchedule::from_events(vec![FaultEvent::Restart {
            site: recovery::failpoints::BEFORE_APPLY.into(),
            after: 0,
        }]);
        let obs = TerminationScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.decision_durable, Some(true));
        assert_eq!(obs.in_doubt_after_resolution, Some(0));
        assert!(obs.participant_commits.iter().all(|(_, c)| *c));
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn resolution_waits_out_a_partition_window() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::Restart { site: "ots.after_decision".into(), after: 0 },
            FaultEvent::Partition { node: PARTICIPANT_NODE.into(), from_us: 0, until_us: 2000 },
        ]);
        let obs = TerminationScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.in_doubt_after_resolution, Some(0), "heal then resolve");
        assert_eq!(obs.heuristics, Some(0), "no heuristic while interrogation can answer");
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn forgetful_coordinator_leaves_undecided_participants_in_doubt() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::Restart {
            site: "ots.before_decision".into(),
            after: 0,
        }]);
        let obs = ForgetfulCoordinatorScenario.run(&schedule);
        assert_eq!(obs.in_doubt_after_resolution, Some(2), "both participants stuck");
        let violations = oracle::check_all(&obs);
        assert!(
            violations.iter().any(|v| v.oracle == "eventual-resolution"),
            "{violations:?}"
        );
    }

    #[test]
    fn forgetful_coordinator_still_passes_decided_histories() {
        let obs = ForgetfulCoordinatorScenario.run(&FaultSchedule::empty());
        let violations = oracle::check_all(&obs);
        assert!(violations.is_empty(), "clean runs hide the planted bug: {violations:?}");
    }

    #[test]
    fn runs_are_deterministic() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::Restart { site: "ots.before_decision".into(), after: 0 },
            FaultEvent::Partition { node: COORDINATOR_NODE.into(), from_us: 100, until_us: 900 },
            FaultEvent::DropMessage { nth: 0 },
        ]);
        let a = TerminationScenario.run(&schedule);
        let b = TerminationScenario.run(&schedule);
        assert!(oracle::check_determinism(&a, &b).is_empty());
    }
}
