//! [`Explorable`] 2PC scenarios for the DPOR explorer.
//!
//! [`ExplorableTwoPhase`] is the real protocol: three participants under
//! the OTS coordinator with the explorer's [`ChoiceDriver`] installed as
//! the delivery sequencer, so every prepare/phase-two delivery order is
//! enumerable, crossed with a crash at each `ots.*` failpoint site. The
//! coordinator's [`ots::ProtocolJournal`] is mapped into reference-model
//! events, binding the refinement oracle on every interleaving.
//!
//! [`BrokenAtomicCommitScenario`] is the planted spec violation the
//! explorer must catch: a hand-rolled commit loop that decides from the
//! **last** collected vote instead of all of them. Under registration
//! order the vetoing participant happens to be polled last and the bug is
//! invisible; any order that polls it earlier forces a commit decision
//! after a rollback vote — exactly the transition the presumed-abort
//! model rejects. Effects are arranged so every other oracle stays
//! quiet: only refinement (#9) sees it, and only under reordering.

use std::fmt::Write as _;
use std::sync::Arc;

use orb::choice::DeliverySequencer;
use orb::pool::DispatchConfig;
use orb::Value;
use ots::txlog::KIND_TX_DECISION;
use ots::{Resource, TransactionFactory, TransactionalKv, TwoPcEvent, TxError};
use recovery_log::{FailpointSet, Lsn, MemWal, Wal};

use crate::explore::{ChoiceDriver, Explorable};
use crate::model::{Event, Vote};
use crate::oracle::{Observation, RunOutcome};
use crate::schedule::FaultSchedule;

/// Map the coordinator's protocol journal into reference-model events.
/// Shared with the seeded-sweep 2PC scenarios, which journal the same
/// protocol.
pub(crate) fn model_events_from_journal(events: &[TwoPcEvent]) -> Vec<Event> {
    events
        .iter()
        .map(|event| match event {
            TwoPcEvent::PrepareSent { participant } => {
                Event::PrepareSent { participant: participant.clone() }
            }
            TwoPcEvent::VoteRecorded { participant, vote } => Event::VoteRecorded {
                participant: participant.clone(),
                vote: match vote {
                    ots::VoteKind::Commit => Vote::Commit,
                    ots::VoteKind::ReadOnly => Vote::ReadOnly,
                    ots::VoteKind::Rollback => Vote::Rollback,
                    ots::VoteKind::Failed => Vote::Failed,
                },
            },
            TwoPcEvent::DecisionForced { commit } => Event::DecisionForced { commit: *commit },
            TwoPcEvent::OutcomeDelivered { participant, commit, .. } => {
                Event::OutcomeDelivered { participant: participant.clone(), commit: *commit }
            }
            TwoPcEvent::Forgotten { participant } => {
                Event::Forgotten { participant: participant.clone() }
            }
            TwoPcEvent::Completed { committed } => Event::TxCompleted { committed: *committed },
        })
        .collect()
}

/// Three-participant logged 2PC with explorer-steered delivery order.
pub struct ExplorableTwoPhase;

impl Explorable for ExplorableTwoPhase {
    fn name(&self) -> &str {
        "explorable-two-phase"
    }

    fn run_exploration(&self, faults: &FaultSchedule, driver: &Arc<ChoiceDriver>) -> Observation {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        faults.arm_into(&failpoints);
        // The black box the explorer staples to a shrunk divergence.
        let recorder = telemetry::FlightRecorder::new(
            "coordinator",
            telemetry::DEFAULT_RECORDER_CAPACITY,
        );
        let journal: ots::ProtocolJournal = recorder.journal();
        failpoints.set_recorder(recorder.clone());
        let factory = TransactionFactory::with_wal(Arc::clone(&wal))
            .with_failpoints(failpoints.clone())
            .with_dispatch(DispatchConfig::serial())
            .with_sequencer(Arc::clone(driver) as Arc<dyn orb::DeliverySequencer>)
            .with_journal(journal.clone());
        let store = Arc::new(TransactionalKv::new("store"));
        let witness = Arc::new(TransactionalKv::new("witness"));
        let ledger = Arc::new(TransactionalKv::new("ledger"));

        let control = factory.create().expect("begin record");
        for (kv, key, value) in
            [(&store, "k", 1i64), (&witness, "w", 2i64), (&ledger, "l", 3i64)]
        {
            kv.enlist(&control).expect("enlist");
            kv.write(control.id(), key, Value::from(value)).expect("write");
        }

        let commit = control.terminator().commit();
        let mut trace = String::new();
        let _ = writeln!(trace, "commit: {commit:?}");

        let mut obs = Observation::new(RunOutcome::Committed);
        let mut model_events = model_events_from_journal(&journal.events());
        match commit {
            Ok(_) => {}
            Err(TxError::Log(_)) => {
                // The injected crash: disarm, then a fresh factory (no
                // sequencer, no journal — recovery has no ordering
                // freedom) replays the surviving log.
                failpoints.clear();
                let decision_durable = wal
                    .scan(Lsn::new(0))
                    .expect("scan wal")
                    .iter()
                    .any(|r| r.kind == KIND_TX_DECISION);
                let (store2, witness2, ledger2) =
                    (Arc::clone(&store), Arc::clone(&witness), Arc::clone(&ledger));
                let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
                    match name {
                        "store" => Some(store2.clone()),
                        "witness" => Some(witness2.clone()),
                        "ledger" => Some(ledger2.clone()),
                        _ => None,
                    }
                };
                let report = TransactionFactory::with_wal(Arc::clone(&wal))
                    .recover(&resolver)
                    .expect("recovery");
                let replayed = if report.recommitted.is_empty() {
                    RunOutcome::Aborted
                } else {
                    RunOutcome::Committed
                };
                let _ = writeln!(
                    trace,
                    "recovered: recommitted={:?} presumed_aborted={:?}",
                    report.recommitted, report.presumed_aborted
                );
                let second = TransactionFactory::with_wal(Arc::clone(&wal))
                    .recover(&resolver)
                    .expect("second recovery");
                obs.replay_stable =
                    Some(second.recommitted.is_empty() && second.presumed_aborted.is_empty());
                obs.decision_durable = Some(decision_durable);
                obs.replay_outcome = Some(replayed);
                obs.outcome = replayed;
                // The crash cut the journal short of its terminal event;
                // recovery settled the direction, so close the model
                // trace with it (the §12 rules still apply: a committed
                // close without a forced decision is a divergence).
                model_events.push(Event::TxCompleted {
                    committed: replayed == RunOutcome::Committed,
                });
            }
            Err(other) => {
                let _ = writeln!(trace, "non-crash failure: {other:?}");
                obs.outcome = RunOutcome::Aborted;
            }
        }

        obs.participant_commits = vec![
            ("store".into(), store.read_committed("k").is_some()),
            ("witness".into(), witness.read_committed("w").is_some()),
            ("ledger".into(), ledger.read_committed("l").is_some()),
        ];
        let _ = writeln!(
            trace,
            "final: store={:?} witness={:?} ledger={:?}",
            store.read_committed("k"),
            witness.read_committed("w"),
            ledger.read_committed("l")
        );
        obs.trace = trace;
        obs.observed_sites = failpoints.observed_sites();
        obs.model_events = Some(model_events);
        obs.report_recorder(&recorder, None);
        obs
    }
}

/// The planted fixture: a commit loop that decides from the last vote.
pub struct BrokenAtomicCommitScenario;

struct BrokenParticipant {
    name: &'static str,
    vote: Vote,
    has_effect: bool,
}

impl Explorable for BrokenAtomicCommitScenario {
    fn name(&self) -> &str {
        "broken-atomic-commit"
    }

    fn run_exploration(&self, _faults: &FaultSchedule, driver: &Arc<ChoiceDriver>) -> Observation {
        // "auditor" vetoes but holds no forward effects, so atomicity has
        // nothing to disagree with — only the decision rule is wrong.
        let participants = [
            BrokenParticipant { name: "store", vote: Vote::Commit, has_effect: true },
            BrokenParticipant { name: "witness", vote: Vote::Commit, has_effect: true },
            BrokenParticipant { name: "auditor", vote: Vote::Rollback, has_effect: false },
        ];
        let mut events = Vec::new();
        let mut trace = String::new();
        // Even the planted bug keeps a black box: its dump rides the
        // minimized divergence, showing the vote order that exposed it.
        let recorder = telemetry::FlightRecorder::new(
            "broken-coordinator",
            telemetry::DEFAULT_RECORDER_CAPACITY,
        );

        // Vote solicitation in sequencer order. The bug: instead of
        // requiring unanimity, the decision tracks whichever vote arrived
        // last — under registration order that happens to be the veto, so
        // the default path looks correct.
        let mut pending: Vec<usize> = (0..participants.len()).collect();
        let mut last_vote = None;
        while !pending.is_empty() {
            let labels: Vec<&str> = pending.iter().map(|i| participants[*i].name).collect();
            let pick = if pending.len() > 1 {
                orb::choice::clamp_choice(driver.next_delivery("prepare", &labels), labels.len())
            } else {
                0
            };
            let participant = &participants[pending.remove(pick)];
            events.push(Event::PrepareSent { participant: participant.name.to_owned() });
            events.push(Event::VoteRecorded {
                participant: participant.name.to_owned(),
                vote: participant.vote,
            });
            driver.report("prepare", participant.name, participant.vote.is_yes());
            recorder.record(telemetry::RecordKind::Protocol, || {
                format!("vote_recorded({}, {:?})", participant.name, participant.vote)
            });
            let _ = writeln!(trace, "voted: {} {:?}", participant.name, participant.vote);
            last_vote = Some(participant.vote);
        }
        let commit = last_vote == Some(Vote::Commit);
        recorder
            .record(telemetry::RecordKind::Protocol, || format!("decision_forced(commit={commit})"));

        if commit {
            events.push(Event::DecisionForced { commit: true });
            for participant in participants.iter().filter(|p| p.vote == Vote::Commit) {
                events.push(Event::OutcomeDelivered {
                    participant: participant.name.to_owned(),
                    commit: true,
                });
                events.push(Event::Forgotten { participant: participant.name.to_owned() });
            }
        } else {
            for participant in &participants {
                events.push(Event::OutcomeDelivered {
                    participant: participant.name.to_owned(),
                    commit: false,
                });
            }
        }
        events.push(Event::TxCompleted { committed: commit });
        let _ = writeln!(trace, "decision: commit={commit}");

        let mut obs =
            Observation::new(if commit { RunOutcome::Committed } else { RunOutcome::Aborted });
        obs.participant_commits = participants
            .iter()
            .filter(|p| p.has_effect)
            .map(|p| (p.name.to_owned(), commit))
            .collect();
        obs.trace = trace;
        obs.model_events = Some(events);
        obs.report_recorder(&recorder, None);
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use crate::oracle;

    #[test]
    fn default_order_commits_cleanly_and_refines_the_model() {
        let driver = ChoiceDriver::new(Vec::new());
        let obs = ExplorableTwoPhase.run_exploration(&FaultSchedule::empty(), &driver);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
        // Three participants in serial 2PC: two real delivery choices per
        // round (3 pending, then 2), prepare and phase two.
        assert_eq!(driver.taken().len(), 4);
        // The probe sees every ots site, so the explorer's fault plans
        // cover the full crash matrix.
        assert_eq!(obs.observed_sites.len(), ots::failpoints::FAILPOINT_SITES.len());
    }

    #[test]
    fn a_prescribed_reordering_still_refines_the_model() {
        let driver = ChoiceDriver::new(vec![2, 1, 1, 0]);
        let obs = ExplorableTwoPhase.run_exploration(&FaultSchedule::empty(), &driver);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn the_broken_fixture_is_clean_in_registration_order() {
        let driver = ChoiceDriver::new(Vec::new());
        let obs = BrokenAtomicCommitScenario.run_exploration(&FaultSchedule::empty(), &driver);
        // The veto happens to be polled last, so the bug stays hidden.
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn polling_the_veto_first_forces_a_commit_after_a_no_vote() {
        let driver = ChoiceDriver::new(vec![2]);
        let obs = BrokenAtomicCommitScenario.run_exploration(&FaultSchedule::empty(), &driver);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        let violations = oracle::check_all(&obs);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, "refinement");
        assert!(violations[0].detail.contains("presumed abort"), "{}", violations[0].detail);
    }

    #[test]
    fn exploration_of_the_real_protocol_finds_no_divergence() {
        // Bounded but complete: every delivery order × every single-crash
        // plan, small enough to run in-tree (the full-budget version with
        // the reduction-factor assertion lives in tests/model_check.rs).
        let report = explore(&ExplorableTwoPhase, &ExploreConfig::default());
        assert!(!report.truncated);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.fault_plans, 1 + ots::failpoints::FAILPOINT_SITES.len());
    }
}
