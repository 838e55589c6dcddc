//! §3.4 of the paper: treatment of failure and recovery, exercised as a
//! crash matrix. The OTS coordinator is crashed at every interesting
//! protocol step (via failpoints), the "process" restarts over the surviving
//! log, and recovery must drive every in-doubt transaction — and the
//! activity structure above it — back to consistency.

use std::sync::Arc;

use activity_service::{
    recover_activities, ActionFactories, ActivityLogger, ActivityService, BroadcastSignalSet,
    FnAction, Outcome, Signal, SignalSetFactories,
};
use orb::{SimClock, Value};
use ots::{DurableKv, Resource, TransactionFactory, TransactionalKv, TxError};
use recovery_log::{
    CrashingWal, FailpointSet, FileWal, GroupCommitWal, LogError, Lsn, MemWal, Wal,
};

/// One crash-matrix cell: crash at `failpoint`, recover, and state whether
/// the transaction's effects must be present afterwards.
fn crash_at(failpoint: &str) -> (bool, Arc<TransactionalKv>) {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory = TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(1i64)).unwrap();
    witness.write(control.id(), "w", Value::from(2i64)).unwrap();

    failpoints.arm(failpoint, 0);
    let result = control.terminator().commit();
    assert!(
        matches!(result, Err(TxError::Log(_))),
        "failpoint {failpoint} must crash the commit, got {result:?}"
    );

    // Restart: a fresh factory over the surviving log re-delivers outcomes.
    failpoints.clear();
    let recovered_factory = TransactionFactory::with_wal(wal);
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = recovered_factory.recover(&resolver).unwrap();
    let committed = !report.recommitted.is_empty();
    // A crash before the prepared record leaves nothing in doubt (presumed
    // abort needs no log); all later crash points leave exactly one.
    assert!(
        report.recommitted.len() + report.presumed_aborted.len() <= 1,
        "at most one in-doubt transaction at {failpoint}"
    );
    (committed, store)
}

#[test]
fn crash_before_prepare_presumed_abort() {
    let (committed, store) = crash_at("ots.before_prepare");
    assert!(!committed);
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_after_prepare_presumed_abort() {
    let (committed, store) = crash_at("ots.after_prepare");
    assert!(!committed, "no decision record yet: presumed abort");
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_before_decision_presumed_abort() {
    let (committed, store) = crash_at("ots.before_decision");
    assert!(!committed);
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_after_decision_recommits() {
    let (committed, store) = crash_at("ots.after_decision");
    assert!(committed, "the decision was durable: recovery must push commit through");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
}

#[test]
fn crash_before_completion_record_recommits_idempotently() {
    let (committed, store) = crash_at("ots.before_completion_record");
    assert!(committed);
    // Phase two already ran once before the crash; recovery re-delivered
    // commit. Idempotent participants keep the value exact.
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
}

/// Reliability-layer regression: a duplicate commit delivered *after* the
/// participant has applied, been told to forget, or the log has been
/// replayed must be acknowledged idempotently — same committed value, no
/// double-apply, no error. This is the receiver-side contract the
/// `orb::retry` at-least-once redelivery (and `DedupWindow`) leans on: a
/// retried commit message surfacing arbitrarily late is always safe.
#[test]
fn duplicate_commit_after_forget_and_after_replay_is_acked_idempotently() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory =
        TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    let tx = control.id().clone();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(&tx, "k", Value::from(1i64)).unwrap();
    witness.write(&tx, "w", Value::from(2i64)).unwrap();

    // Phase two runs, then the coordinator dies before the completion
    // record: the log still holds a commit decision, so replay MUST
    // re-deliver commit to participants that already applied it.
    failpoints.arm("ots.before_completion_record", 0);
    assert!(matches!(control.terminator().commit(), Err(TxError::Log(_))));
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)), "phase two already ran");

    // First replay: the second commit delivery lands on participants that
    // have already applied and released their locks.
    failpoints.clear();
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert_eq!(report.recommitted.len(), 1);
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(store.committed_len(), 1, "the redelivered commit must not double-apply");
    assert_eq!(witness.read_committed("w"), Some(Value::from(2i64)));

    // Even later duplicates — a retried commit message surfacing after the
    // coordinator told the participant to forget — are still acked with Ok
    // and change nothing.
    store.forget(&tx);
    assert!(store.commit(&tx).is_ok(), "post-Forget duplicate commit must ack, not error");
    assert!(store.commit(&tx).is_ok(), "and it stays idempotent on every redelivery");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(store.committed_len(), 1);

    // The log side is equally idempotent: the completion record appended by
    // the first replay acks the transaction, so a second replay re-delivers
    // nothing.
    let store3 = Arc::clone(&store);
    let witness3 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store3.clone()),
            "witness" => Some(witness3.clone()),
            _ => None,
        }
    };
    let again = TransactionFactory::with_wal(wal).recover(&resolver).unwrap();
    assert!(again.recommitted.is_empty(), "replay already completed the transaction");
    assert!(again.presumed_aborted.is_empty());
    assert_eq!(store.committed_len(), 1, "post-replay state is stable");
}

/// The torn-record matrix cell: the coordinator "process" dies *inside* the
/// decision-record append ([`CrashingWal`] counts it down), and the dying
/// process got half the record onto the real file before the power went.
/// Replay must truncate at the torn tail and presumed-abort the in-doubt
/// transaction — a torn decision is no decision.
#[test]
fn torn_decision_record_truncates_and_presumed_aborts() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("torn-decision-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    // ---- First process: crash mid-append of the decision record. ----
    {
        // Appends: 1 = begun, 2 = prepared; the third — the decision — dies.
        let wal: Arc<dyn Wal> = Arc::new(CrashingWal::new(FileWal::open(&path).unwrap(), 2));
        let factory = TransactionFactory::with_wal(wal);
        let control = factory.create().unwrap();
        store.enlist(&control).unwrap();
        witness.enlist(&control).unwrap();
        store.write(control.id(), "k", Value::from(1i64)).unwrap();
        witness.write(control.id(), "w", Value::from(2i64)).unwrap();
        let result = control.terminator().commit();
        assert!(
            matches!(result, Err(TxError::Log(_))),
            "the decision append must crash the commit, got {result:?}"
        );
        // Half of the decision record reached the disk before the crash.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x01, 0x03, 0xA5, 0xC7]).unwrap();
    }

    // ---- Second process: replay truncates at the torn tail... ----
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    let records = wal.scan(Lsn::new(0)).unwrap();
    assert_eq!(records.len(), 2, "begun + prepared survive; the torn tail is cut");
    assert!(
        records.iter().all(|r| r.kind != ots::txlog::KIND_TX_DECISION),
        "no decision record may be reconstructed from torn bytes"
    );

    // ---- ...and presumed-aborts the in-doubt transaction. ----
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert!(report.recommitted.is_empty(), "a torn decision must never commit");
    assert_eq!(report.presumed_aborted.len(), 1);
    assert_eq!(store.read_committed("k"), None);
    assert_eq!(witness.read_committed("w"), None);

    // The truncated log is clean: a fresh transaction over it commits.
    let factory = TransactionFactory::with_wal(wal);
    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(3i64)).unwrap();
    control.terminator().commit().unwrap();
    assert_eq!(store.read_committed("k"), Some(Value::from(3i64)));
    std::fs::remove_file(&path).unwrap();
}

/// Full-stack recovery: activity structure + transaction outcomes from one
/// crash, over a REAL file-backed log with a torn tail.
#[test]
fn activity_and_transaction_recovery_compose_over_file_wal() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("crash-matrix-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };

    // ---- "First process": work, then die. ----
    {
        let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        let booking = service.begin("booking").unwrap();
        booking
            .add_signal_set_recoverable(
                "completion-broadcast",
                Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)),
            )
            .unwrap();
        booking
            .register_action_recoverable(
                "Done",
                "audit-action",
                Arc::new(FnAction::new("audit", |_s: &Signal| Ok(Outcome::done()))),
            )
            .unwrap();
        booking.set_completion_signal_set("Done");
        let _step = service.begin("step-1").unwrap();
        // Crash: nothing completes; half a record hits the disk.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xA5, 0xC7, 0x00]).unwrap(); // torn garbage
    }

    // ---- "Second process": recover. ----
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    let mut sets = SignalSetFactories::new();
    sets.register("completion-broadcast", || {
        Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)) as _
    });
    let mut actions = ActionFactories::new();
    let replayed = Arc::new(parking_lot::Mutex::new(0u32));
    let replayed2 = Arc::clone(&replayed);
    actions.register("audit-action", move || {
        let replayed = Arc::clone(&replayed2);
        Arc::new(FnAction::new("audit", move |_s: &Signal| {
            *replayed.lock() += 1;
            Ok(Outcome::done())
        })) as _
    });
    let recovered = recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
    assert_eq!(recovered.roots.len(), 1);
    assert_eq!(recovered.incomplete.len(), 2);

    // The application drives the in-flight activities to completion —
    // children first ("application logic … is required to drive recovery").
    for activity in recovered.incomplete.iter().rev() {
        activity.complete().unwrap();
    }
    assert_eq!(*replayed.lock(), 1, "the recovered completion action ran");

    // Third incarnation: everything is now completed; recovery is stable.
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    let recovered = recover_activities(wal, &sets, &actions, SimClock::new()).unwrap();
    assert!(recovered.incomplete.is_empty());
    assert_eq!(recovered.completed.len(), 2);
    std::fs::remove_file(&path).unwrap();
}

/// Recovery of the activity-service logger composes with an OTS factory
/// sharing the SAME wal: mixed record kinds must not confuse either side.
#[test]
fn shared_wal_between_services() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
    let tx_factory = TransactionFactory::with_wal(Arc::clone(&wal));
    let store = Arc::new(TransactionalKv::new("store"));

    let _activity = service.begin("mixed").unwrap();
    let control = tx_factory.create().unwrap();
    store.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(9i64)).unwrap();
    control.terminator().commit().unwrap();
    service.complete().unwrap();

    // Both recoveries parse the shared log without tripping on each
    // other's record kinds.
    let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
    let tx_report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert!(tx_report.recommitted.is_empty(), "transaction completed before the crash");
    let recovered = recover_activities(
        wal,
        &SignalSetFactories::new(),
        &ActionFactories::new(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(recovered.completed.len(), 1);
    assert!(recovered.incomplete.is_empty());
}

/// §3.4 also allows *activity logs* to be checkpointed; verify replay time
/// bounding composes with the activity logger (the checkpoint snapshot is
/// opaque to the activity layer, so this just must not corrupt anything).
#[test]
fn activity_log_tolerates_foreign_checkpoint_records() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    {
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        let _a = service.begin("job").unwrap();
        recovery_log::checkpoint::take_checkpoint(wal.as_ref(), b"opaque", false).unwrap();
        let _b = service.begin("job-child").unwrap();
    }
    let recovered = recover_activities(
        wal,
        &SignalSetFactories::new(),
        &ActionFactories::new(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(recovered.incomplete.len(), 2);
}

/// Group-commit durability matrix: the process dies in the torn window
/// *between* the leader's coalesced buffer write and its sync ([`CrashingWal`]
/// in sync-crash mode counts the barrier down). Sweep the crash point across
/// the first several flushes: every `append_durable` LSN that was
/// acknowledged before the crash must still be in the log after restart; the
/// unacked tail may tear — or, having been written before the failed sync,
/// may happen to survive. Both are legal; losing an acked record is not.
#[test]
fn group_commit_sync_crash_matrix_keeps_every_acked_lsn() {
    for syncs_before_crash in 0..4u32 {
        let group =
            GroupCommitWal::new(CrashingWal::with_sync_crash(MemWal::new(), syncs_before_crash));
        let mut acked: Vec<u64> = Vec::new();
        let mut crashed = false;
        for i in 0..8u32 {
            match group.append_durable(0x0103, format!("decision-{i}").as_bytes()) {
                Ok(lsn) => acked.push(lsn.raw()),
                Err(err) => {
                    assert!(
                        matches!(err, LogError::CrashInjected(ref site) if site == "wal.sync"),
                        "cell {syncs_before_crash}: expected a sync crash, got {err:?}"
                    );
                    crashed = true;
                    break;
                }
            }
        }
        assert!(crashed, "cell {syncs_before_crash}: the armed sync crash must fire");
        assert_eq!(acked.len(), syncs_before_crash as usize);

        // Restart: disarm the fault, discard the staged (never-flushed)
        // tail, re-adopt whatever the sink physically holds.
        group.inner().defuse();
        group.recover_from_sink();
        let survived: Vec<u64> =
            group.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
        for lsn in &acked {
            assert!(
                survived.contains(lsn),
                "cell {syncs_before_crash}: acked LSN {lsn} lost; survivors {survived:?}"
            );
        }
        // The record whose sync crashed was written before the barrier
        // failed: it may survive as an unacked orphan, never as a gap.
        assert!(survived.len() >= acked.len());
        assert!(survived.len() <= acked.len() + 1, "at most the one torn-window record extra");

        // The restarted log continues cleanly past the survivors.
        let next = group.append_durable(0x0103, b"post-restart").unwrap();
        assert_eq!(next.raw(), survived.len() as u64 + 1);
    }
}

/// The same torn window under a full 2PC commit: the coordinator's forced
/// decision write crashes between the batch write and the sync, so the
/// commit call fails — but the decision record physically reached the sink.
/// Recovery must then push the commit through: the decision on disk, not
/// the lost acknowledgement, is the truth.
#[test]
fn group_commit_sync_crash_during_decision_recovers_from_surviving_batch() {
    let group = Arc::new(GroupCommitWal::new(CrashingWal::with_sync_crash(MemWal::new(), 0)));
    let wal: Arc<dyn Wal> = Arc::clone(&group) as Arc<dyn Wal>;
    let factory = TransactionFactory::with_wal(Arc::clone(&wal));
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(1i64)).unwrap();
    witness.write(control.id(), "w", Value::from(2i64)).unwrap();
    let result = control.terminator().commit();
    assert!(
        matches!(result, Err(TxError::Log(_))),
        "the decision barrier must crash the commit, got {result:?}"
    );
    assert_eq!(group.durable_lsn().raw(), 0, "nothing was ever acknowledged durable");

    // Restart over the surviving sink.
    group.inner().defuse();
    group.recover_from_sink();
    assert!(
        group
            .scan(Lsn::new(0))
            .unwrap()
            .iter()
            .any(|r| r.kind == ots::txlog::KIND_TX_DECISION),
        "the decision batch was written before the sync crashed"
    );
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(wal).recover(&resolver).unwrap();
    assert_eq!(report.recommitted.len(), 1, "the surviving decision must recommit");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(witness.read_committed("w"), Some(Value::from(2i64)));
}

/// The shared-log matrix world: a factory and three `DurableKv` stores on
/// ONE group-commit log, so the stores' prepared and outcome records ride
/// the coordinator's decision force instead of forcing their own.
struct SharedLog {
    group: Arc<GroupCommitWal<CrashingWal<MemWal>>>,
    wal: Arc<dyn Wal>,
}

const SHARED_STORES: [&str; 3] = ["orders", "stock", "audit"];

impl SharedLog {
    fn new(sink: CrashingWal<MemWal>) -> Self {
        let group = Arc::new(GroupCommitWal::new(sink));
        let wal = Arc::clone(&group) as Arc<dyn Wal>;
        SharedLog { group, wal }
    }

    fn stores(&self) -> Vec<Arc<DurableKv>> {
        SHARED_STORES.iter().map(|name| DurableKv::new(*name, Arc::clone(&self.wal))).collect()
    }

    /// One transaction writing `k = value` into every store: its id and
    /// its commit's result.
    fn commit(
        factory: &TransactionFactory,
        stores: &[Arc<DurableKv>],
        value: i64,
    ) -> (ots::TxId, Result<ots::coordinator::TxOutcome, TxError>) {
        let control = factory.create().unwrap();
        for kv in stores {
            control.coordinator().register_resource(Arc::clone(kv) as Arc<dyn Resource>).unwrap();
            kv.store().write(control.id(), "k", Value::from(value)).unwrap();
        }
        (control.id().clone(), control.terminator().commit())
    }

    /// Restart: drop the staged tail, rebuild every store from the log,
    /// then let the transaction service re-deliver outcomes. Returns the
    /// single value every store agrees on (all-or-nothing) and the
    /// transactions recovery re-committed.
    fn restart(&self) -> (Option<Value>, Vec<ots::TxId>) {
        self.group.inner().defuse();
        self.group.recover_from_sink();
        let stores: Vec<Arc<DurableKv>> = SHARED_STORES
            .iter()
            .map(|name| DurableKv::recover(*name, Arc::clone(&self.wal)).unwrap())
            .collect();
        let lookup = stores.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            lookup.iter().find(|kv| kv.name() == name).map(|kv| Arc::clone(kv) as Arc<dyn Resource>)
        };
        let report =
            TransactionFactory::with_wal(Arc::clone(&self.wal)).recover(&resolver).unwrap();
        assert!(report.unresolved.is_empty());
        let values: Vec<Option<Value>> =
            stores.iter().map(|kv| kv.store().read_committed("k")).collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "all-or-nothing across stores: {values:?}"
        );
        (values[0].clone(), report.recommitted)
    }
}

/// Shared-log crash matrix, failpoint axis: an acknowledged commit, then a
/// second commit crashed at every OTS failpoint. After the restart the
/// stores agree, the acknowledged value reads back unless the crashed
/// transaction's decision was durable, and that decision is exactly what
/// decides the crashed transaction.
#[test]
fn shared_log_failpoint_matrix_is_all_or_nothing() {
    for site in ots::failpoints::FAILPOINT_SITES {
        let log = SharedLog::new(CrashingWal::with_sync_crash(MemWal::new(), u32::MAX));
        let failpoints = FailpointSet::new();
        let factory =
            TransactionFactory::with_wal(Arc::clone(&log.wal)).with_failpoints(failpoints.clone());
        let stores = log.stores();
        SharedLog::commit(&factory, &stores, 1).1.unwrap();
        failpoints.arm(*site, 0);
        let (crashed, result) = SharedLog::commit(&factory, &stores, 2);
        assert!(matches!(result, Err(TxError::Log(_))), "{site}: {result:?}");

        let decided = [ots::failpoints::AFTER_DECISION, ots::failpoints::BEFORE_COMPLETION_RECORD]
            .contains(site);
        let (value, recommitted) = log.restart();
        assert_eq!(
            recommitted.contains(&crashed),
            decided,
            "{site}: recovery follows the durable decision"
        );
        let expected = if decided { 2i64 } else { 1 };
        assert_eq!(value, Some(Value::from(expected)), "{site}");
    }
}

/// Shared-log crash matrix, sync axis: the group-commit barrier fails at
/// each sync index in turn. Every acknowledged commit reads back; the
/// transaction whose decision barrier failed is all-or-nothing (its batch
/// reached the sink before the sync failed, so it may survive).
#[test]
fn shared_log_sync_crash_matrix_keeps_every_acknowledged_commit() {
    const COMMITS: i64 = 3;
    for syncs_before_crash in 0..=COMMITS as u32 {
        let log = SharedLog::new(CrashingWal::with_sync_crash(MemWal::new(), syncs_before_crash));
        let factory = TransactionFactory::with_wal(Arc::clone(&log.wal));
        let stores = log.stores();
        let mut acked = None;
        let mut crashed = None;
        for value in 1..=COMMITS {
            match SharedLog::commit(&factory, &stores, value).1 {
                Ok(_) => acked = Some(value),
                Err(_) => {
                    crashed = Some(value);
                    break;
                }
            }
        }
        assert_eq!(
            acked.unwrap_or(0),
            i64::from(syncs_before_crash),
            "one barrier per shared-log commit"
        );
        let (value, _) = log.restart();
        let value = value.map(|v| v.as_i64().unwrap());
        assert!(
            value == acked || (crashed.is_some() && value == crashed),
            "cell {syncs_before_crash}: acked {acked:?}, crashed {crashed:?}, read {value:?}"
        );
    }
}

/// Cross-log guard: the coordinator logs on one log, the stores on a
/// separate group-commit log. The stores' records cannot ride a decision
/// forced elsewhere, so an acknowledged commit must survive the stores'
/// log losing its staged tail.
#[test]
fn participants_on_a_separate_log_keep_acknowledged_commits() {
    for dispatch in [ots::DispatchConfig::serial(), ots::DispatchConfig::with_workers(4)] {
        let coordinator_log: Arc<dyn Wal> = Arc::new(MemWal::new());
        let participant_group = Arc::new(GroupCommitWal::new(MemWal::new()));
        let participant_log = Arc::clone(&participant_group) as Arc<dyn Wal>;
        let factory = TransactionFactory::with_wal(coordinator_log).with_dispatch(dispatch);
        let stores: Vec<Arc<DurableKv>> = SHARED_STORES
            .iter()
            .map(|name| DurableKv::new(*name, Arc::clone(&participant_log)))
            .collect();
        SharedLog::commit(&factory, &stores, 9).1.unwrap();

        participant_group.recover_from_sink();
        for name in SHARED_STORES {
            let kv = DurableKv::recover(name, Arc::clone(&participant_log)).unwrap();
            assert_eq!(
                kv.store().read_committed("k"),
                Some(Value::from(9i64)),
                "{dispatch:?} {name}"
            );
        }
    }
}

/// Concurrent-committer durability stress: 16 threads each force 25 records
/// through one [`GroupCommitWal`] over a real file. Every acknowledged LSN
/// must survive a full process restart (fresh [`FileWal`] over the same
/// path), the LSN space must be dense, and the batching must have actually
/// shared sync barriers across committers.
#[test]
fn sixteen_concurrent_committers_survive_restart() {
    const THREADS: usize = 16;
    const COMMITS_PER_THREAD: usize = 25;
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("group-stress-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };

    let tel = telemetry::Telemetry::new();
    let acked: Vec<u64> = {
        let group = Arc::new(GroupCommitWal::new(FileWal::open(&path).unwrap()));
        group.set_telemetry(&tel);
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let group = Arc::clone(&group);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::with_capacity(COMMITS_PER_THREAD);
                for i in 0..COMMITS_PER_THREAD {
                    let payload = format!("commit-{t}-{i}");
                    acked.push(
                        group.append_durable(0x0103, payload.as_bytes()).unwrap().raw(),
                    );
                }
                acked
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    };

    let total = THREADS * COMMITS_PER_THREAD;
    let mut sorted = acked.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), total, "acked LSNs must be unique");
    assert_eq!(sorted.first(), Some(&1));
    assert_eq!(sorted.last(), Some(&(total as u64)), "LSN space must be dense");

    let syncs = tel.metrics().counter_value("wal_syncs_total");
    assert!(syncs >= 1);
    assert!(
        (syncs as usize) < total,
        "group commit must share barriers: {syncs} syncs for {total} forced records"
    );

    // "Restart": a brand-new FileWal over the same path sees every acked
    // record.
    let reopened = FileWal::open(&path).unwrap();
    let survived: std::collections::BTreeSet<u64> =
        reopened.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
    for lsn in &acked {
        assert!(survived.contains(lsn), "acked LSN {lsn} missing after restart");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Unique scratch path for the file-backed compaction cells.
fn compaction_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "crash-matrix-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(p.with_extension("compact-tmp"));
    p
}

/// Build the pre-compaction log (LSNs 1..=10) at `path` and return the
/// exact bytes `truncate_prefix(Lsn::new(8))` writes to its `.compact-tmp`
/// sibling before the rename — obtained by running the real compaction
/// against a throwaway copy of the log.
fn stage_compaction(path: &std::path::Path) -> Vec<u8> {
    {
        let wal = FileWal::open(path).unwrap();
        for i in 0..10u32 {
            wal.append(i + 1, &i.to_be_bytes()).unwrap();
        }
        wal.sync().unwrap();
    }
    let donor = path.with_extension("donor");
    std::fs::copy(path, &donor).unwrap();
    FileWal::open(&donor).unwrap().truncate_prefix(Lsn::new(8)).unwrap();
    let new_bytes = std::fs::read(&donor).unwrap();
    std::fs::remove_file(&donor).unwrap();
    new_bytes
}

fn lsns_of(wal: &FileWal) -> Vec<u64> {
    wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect()
}

/// Torn-compaction matrix, pre-rename side: `FileWal::truncate_prefix`
/// writes the retained suffix to a temp sibling, fsyncs it, then atomically
/// renames it over the log. Crash anywhere BEFORE the rename — sweep the
/// number of temp-file bytes that reached disk from zero to all of them —
/// and reopening the log path must see the complete OLD record set. The
/// orphaned `.compact-tmp` is never read; it is debris, not state. Old or
/// new, never a mix.
#[test]
fn compaction_crash_before_rename_keeps_the_old_complete_log() {
    let path = compaction_path("compact-pre-rename");
    let new_bytes = stage_compaction(&path);
    let old_bytes = std::fs::read(&path).unwrap();
    let tmp = path.with_extension("compact-tmp");
    let old_lsns: Vec<u64> = (1..=10).collect();

    for written in 0..=new_bytes.len() {
        std::fs::write(&tmp, &new_bytes[..written]).unwrap();
        let wal = FileWal::open(&path).unwrap();
        assert_eq!(
            lsns_of(&wal),
            old_lsns,
            "cell {written}/{}: a crash before the rename must leave the old log whole",
            new_bytes.len()
        );
        assert_eq!(wal.next_lsn(), Lsn::new(11));
        drop(wal);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            old_bytes,
            "cell {written}: reopening must not rewrite the untouched log"
        );
    }

    // The restarted log continues cleanly past the survivors.
    let wal = FileWal::open(&path).unwrap();
    assert_eq!(wal.append(99, b"post-crash").unwrap(), Lsn::new(11));
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&tmp).unwrap();
}

/// Torn-compaction matrix, post-rename side: once `std::fs::rename` has
/// happened the new prefix IS the log — reopening sees exactly the retained
/// records (LSNs 8..=10), the LSN space is preserved across the compaction
/// (next append is 11, not 4), and no temp debris remains because the
/// rename consumed it. Again: old or new, never a mix.
#[test]
fn compaction_crash_after_rename_sees_exactly_the_new_prefix() {
    let path = compaction_path("compact-post-rename");
    let new_bytes = stage_compaction(&path);
    let tmp = path.with_extension("compact-tmp");

    // Replay truncate_prefix's final two steps: the fully synced temp file,
    // then the atomic swap. The crash lands immediately after.
    std::fs::write(&tmp, &new_bytes).unwrap();
    std::fs::rename(&tmp, &path).unwrap();

    let wal = FileWal::open(&path).unwrap();
    assert_eq!(lsns_of(&wal), vec![8, 9, 10], "exactly the new prefix, nothing mixed in");
    assert_eq!(wal.next_lsn(), Lsn::new(11), "the LSN space survives compaction");
    assert!(!tmp.exists(), "the rename consumed the temp file");
    assert_eq!(wal.append(99, b"post-crash").unwrap(), Lsn::new(11));
    std::fs::remove_file(&path).unwrap();
}

/// Participant-side termination cells: the participant dies BETWEEN
/// forcing its prepared record and applying the outcome, restarts from its
/// own WAL, and resolves the doubt itself by interrogating
/// `replay_completion` on the coordinator's `RecoveryCoordinator` servant
/// over the simulated ORB. Returns the durable-decision fact and the two
/// restarted stores for the per-cell assertions.
fn participant_crash_cell(
    arms: &[(&str, u32)],
) -> (bool, Arc<ots::DurableKv>, Arc<ots::DurableKv>) {
    use ots::recovery::{CoordinatorLocator, RECOVERY_COORDINATOR_INTERFACE};
    use ots::{DurableKv, RecoverableResource, RecoveryCoordinator, ResolutionConfig};
    use std::time::Duration;

    let coordinator_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    for (site, after) in arms {
        failpoints.arm((*site).to_owned(), *after);
    }

    let factory = TransactionFactory::with_wal(Arc::clone(&coordinator_wal))
        .with_failpoints(failpoints.clone());
    let kv_store = DurableKv::new("store", Arc::clone(&participant_wal));
    let kv_witness = DurableKv::new("witness", Arc::clone(&participant_wal));
    let store = Arc::new(
        RecoverableResource::new(
            Arc::clone(&kv_store) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        )
        .with_failpoints(failpoints.clone()),
    );
    let witness = Arc::new(
        RecoverableResource::new(
            Arc::clone(&kv_witness) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        )
        .with_failpoints(failpoints.clone()),
    );

    let control = factory.create().unwrap();
    control.coordinator().register_resource(Arc::clone(&store) as Arc<dyn Resource>).unwrap();
    control
        .coordinator()
        .register_resource(Arc::clone(&witness) as Arc<dyn Resource>)
        .unwrap();
    kv_store.store().write(control.id(), "k", Value::from(1i64)).unwrap();
    kv_witness.store().write(control.id(), "w", Value::from(2i64)).unwrap();
    let result = control.terminator().commit();
    assert!(result.is_err(), "the armed participant crash must fail the commit: {result:?}");
    failpoints.clear();

    let decision_durable = coordinator_wal
        .scan(Lsn::new(0))
        .unwrap()
        .iter()
        .any(|r| r.kind == ots::txlog::KIND_TX_DECISION);

    // Restart the participant "process" from its surviving WAL.
    let kv_store2 = DurableKv::recover("store", Arc::clone(&participant_wal)).unwrap();
    let store2 = Arc::new(
        RecoverableResource::recover(
            Arc::clone(&kv_store2) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        )
        .unwrap(),
    );
    let kv_witness2 = DurableKv::recover("witness", Arc::clone(&participant_wal)).unwrap();
    let witness2 = Arc::new(
        RecoverableResource::recover(
            Arc::clone(&kv_witness2) as Arc<dyn Resource>,
            Arc::clone(&participant_wal),
            "coordinator",
        )
        .unwrap(),
    );
    assert!(
        store2.in_doubt().len() + witness2.in_doubt().len() >= 1,
        "this matrix cell must leave at least one transaction in doubt"
    );

    // Interrogation over the ORB: the coordinator's log answers.
    let orb = orb::Orb::builder()
        .network(orb::NetworkConfig::reliable())
        .clock(SimClock::new())
        .build();
    let coordinator_node = orb.add_node("coordinator").unwrap();
    orb.add_node("participant").unwrap();
    let object = coordinator_node
        .activate(
            RECOVERY_COORDINATOR_INTERFACE,
            RecoveryCoordinator::new(Arc::clone(&coordinator_wal)),
        )
        .unwrap();
    let locate: CoordinatorLocator =
        Arc::new(move |node: &str| (node == "coordinator").then(|| object.clone()));
    let config = ResolutionConfig::new(orb::RetryPolicy::new(3), Duration::from_secs(60));
    for participant in [&store2, &witness2] {
        let report =
            participant.resolve_in_doubt(&orb, "participant", &locate, &config).unwrap();
        assert!(report.unresolved.is_empty(), "interrogation must answer every doubt");
        assert!(report.heuristic.is_empty(), "an answerable history needs no heuristic");
        assert!(participant.in_doubt().is_empty());
    }
    (decision_durable, kv_store2, kv_witness2)
}

/// Commit side: the decision was forced durably, then every participant
/// died before applying the outcome. Interrogation finds the decision
/// record and pushes the commit through.
#[test]
fn participant_crash_before_outcome_delivery_resolves_to_commit() {
    let (decided, store, witness) =
        participant_crash_cell(&[("ots.recovery.before_apply", 0)]);
    assert!(decided, "phase one completed: the decision record is durable");
    assert_eq!(store.store().read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(witness.store().read_committed("w"), Some(Value::from(2i64)));
}

/// Presumed-abort side: the witness dies right after forcing its prepared
/// record (its vote surfaces as Failed), and the rollback delivery to the
/// dying process is lost with it. No decision record exists, so the
/// restarted participant's interrogation answers `rolled_back`.
#[test]
fn participant_crash_during_prepare_presumed_aborts_via_interrogation() {
    let (decided, store, witness) = participant_crash_cell(&[
        ("ots.recovery.after_prepared", 1),
        ("ots.recovery.before_apply", 1),
    ]);
    assert!(!decided, "the veto aborted the transaction before any decision");
    assert_eq!(store.store().read_committed("k"), None);
    assert_eq!(witness.store().read_committed("w"), None);
}

/// Make sure ActivityLogger is reachable for documentation users.
#[test]
fn activity_logger_is_constructible() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let logger = ActivityLogger::new(Arc::clone(&wal));
    assert_eq!(logger.wal().next_lsn(), recovery_log::Lsn::new(1));
}
