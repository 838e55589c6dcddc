//! A durable, recoverable transactional store.
//!
//! §3.4 of the paper: "many transaction systems simply state the
//! requirements they place on such objects if they are to be made
//! recoverable, and leave it up to the object implementers to determine the
//! best strategy for their object's persistence." [`DurableKv`] is such an
//! object implementer, done right:
//!
//! * **prepare** makes a redo record of the transaction's effects durable
//!   before the vote can count (the participant contract: a prepared
//!   participant must survive a crash still able to commit *or* roll back);
//! * **commit** logs a commit record and applies the effects;
//! * **recovery** ([`DurableKv::recover`]) rebuilds the committed state and
//!   re-installs prepared-but-undecided workspaces, so the transaction
//!   service's own recovery ([`crate::txlog::recover`]) can finish the job
//!   by re-delivering the outcome.
//!
//! # Forcing
//!
//! A store on the very log its coordinator forces the decision on (the same
//! `Arc`) appends its prepared and outcome records without a sync of its
//! own: they ride the coordinator's barriers (the shared-log optimisation;
//! see the `delivery` module). The prepared records precede the forced
//! decision and the outcome records precede the completion record, and a
//! log makes a prefix of its LSNs durable, so recovery still reaches the
//! outcome the durable state dictates — at one sync per commit instead of
//! one per participant per phase. Everywhere else the store forces each
//! record before it answers: a coordinator on another log or none, another
//! thread or an ORB hop, and outcomes re-delivered by recovery. A one-phase
//! commit forces once, covering both of its records. Checkpoints are always
//! forced.

use std::sync::Arc;

use orb::{Value, ValueMap};
use recovery_log::{Lsn, Wal};

use crate::delivery;
use crate::error::TxError;
use crate::memres::TransactionalKv;
use crate::resource::{Resource, Vote};
use crate::txlog::{txid_from_value, txid_to_value};
use crate::xid::TxId;

/// Record kind: a participant prepared; payload carries its effects.
pub const KIND_KV_PREPARED: u32 = 0x0401;
/// Record kind: a prepared transaction committed here.
pub const KIND_KV_COMMITTED: u32 = 0x0402;
/// Record kind: a prepared transaction rolled back here.
pub const KIND_KV_ABORTED: u32 = 0x0403;
/// Record kind: a full committed-state checkpoint.
pub const KIND_KV_CHECKPOINT: u32 = 0x0404;

/// A write-ahead-logged [`TransactionalKv`]: same locking and nesting
/// behaviour, plus crash-surviving prepared state.
pub struct DurableKv {
    inner: Arc<TransactionalKv>,
    wal: Arc<dyn Wal>,
}

impl std::fmt::Debug for DurableKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableKv").field("name", &self.inner.name()).finish_non_exhaustive()
    }
}

fn effects_to_value(effects: &[(String, Option<Value>)]) -> Value {
    let entries: Vec<Value> = effects
        .iter()
        .map(|(k, v)| {
            let mut m = ValueMap::new();
            m.insert("key".into(), Value::from(k.as_str()));
            if let Some(v) = v {
                m.insert("value".into(), v.clone());
            }
            Value::Map(m)
        })
        .collect();
    Value::List(entries)
}

fn effects_from_value(value: &Value) -> Result<Vec<(String, Option<Value>)>, TxError> {
    let list = value
        .as_list()
        .ok_or_else(|| TxError::Log("effects must be a list".into()))?;
    let mut effects = Vec::with_capacity(list.len());
    for entry in list {
        let m = entry
            .as_map()
            .ok_or_else(|| TxError::Log("effect entry must be a map".into()))?;
        let key = m
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| TxError::Log("effect entry missing key".into()))?;
        effects.push((key.to_owned(), m.get("value").cloned()));
    }
    Ok(effects)
}

impl DurableKv {
    /// A fresh durable store over `wal` (typically a
    /// [`recovery_log::FileWal`]); the log may be shared with other
    /// components — records are tagged with the store's name.
    pub fn new(name: impl Into<String>, wal: Arc<dyn Wal>) -> Arc<Self> {
        Arc::new(DurableKv { inner: Arc::new(TransactionalKv::new(name)), wal })
    }

    /// Rebuild a durable store from its log: committed effects are
    /// re-applied in order (from the latest checkpoint when present) and
    /// prepared-but-undecided workspaces are re-installed awaiting the
    /// transaction service's outcome re-delivery.
    ///
    /// # Errors
    ///
    /// [`TxError::Log`] when the log cannot be read or a record is
    /// malformed.
    pub fn recover(name: impl Into<String>, wal: Arc<dyn Wal>) -> Result<Arc<Self>, TxError> {
        let name = name.into();
        let store = Arc::new(TransactionalKv::new(name.clone()));
        let mut prepared: std::collections::HashMap<TxId, Vec<(String, Option<Value>)>> =
            std::collections::HashMap::new();

        for record in wal.scan(Lsn::new(0))? {
            let is_ours = |m: &ValueMap| {
                m.get("store").and_then(Value::as_str) == Some(name.as_str())
            };
            match record.kind {
                KIND_KV_CHECKPOINT => {
                    let v = decode(&record.payload)?;
                    let m = map_of(&v)?;
                    if !is_ours(m) {
                        continue;
                    }
                    let entries = effects_from_value(
                        m.get("state").ok_or_else(|| TxError::Log("checkpoint missing state".into()))?,
                    )?;
                    store.load_committed(
                        entries.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))),
                    );
                    prepared.clear();
                }
                KIND_KV_PREPARED => {
                    let v = decode(&record.payload)?;
                    let m = map_of(&v)?;
                    if !is_ours(m) {
                        continue;
                    }
                    let tx = txid_from_value(
                        m.get("tx").ok_or_else(|| TxError::Log("prepared missing tx".into()))?,
                    )?;
                    let effects = effects_from_value(
                        m.get("effects")
                            .ok_or_else(|| TxError::Log("prepared missing effects".into()))?,
                    )?;
                    prepared.insert(tx, effects);
                }
                KIND_KV_COMMITTED => {
                    let v = decode(&record.payload)?;
                    let m = map_of(&v)?;
                    if !is_ours(m) {
                        continue;
                    }
                    let tx = txid_from_value(
                        m.get("tx").ok_or_else(|| TxError::Log("committed missing tx".into()))?,
                    )?;
                    if let Some(effects) = prepared.remove(&tx) {
                        store.restore_prepared(&tx, effects);
                        store.commit(&tx)?;
                    }
                }
                KIND_KV_ABORTED => {
                    let v = decode(&record.payload)?;
                    let m = map_of(&v)?;
                    if !is_ours(m) {
                        continue;
                    }
                    let tx = txid_from_value(
                        m.get("tx").ok_or_else(|| TxError::Log("aborted missing tx".into()))?,
                    )?;
                    prepared.remove(&tx);
                }
                _ => {}
            }
        }
        // Whatever remains prepared is in doubt: reinstall it so outcome
        // re-delivery (commit or rollback) finds it waiting.
        for (tx, effects) in prepared {
            store.restore_prepared(&tx, effects);
        }
        Ok(Arc::new(DurableKv { inner: store, wal }))
    }

    /// The wrapped in-memory store (locking, reads, writes).
    pub fn store(&self) -> &Arc<TransactionalKv> {
        &self.inner
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Write a checkpoint of the committed state, bounding future replay.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub fn checkpoint(&self) -> Result<(), TxError> {
        let snapshot: Vec<(String, Option<Value>)> = self
            .inner
            .committed_snapshot()
            .into_iter()
            .map(|(k, v)| (k, Some(v)))
            .collect();
        let mut m = ValueMap::new();
        m.insert("store".into(), Value::from(self.name()));
        m.insert("state".into(), effects_to_value(&snapshot));
        self.wal.append_durable(KIND_KV_CHECKPOINT, &Value::Map(m).encode())?;
        Ok(())
    }

    /// Append a record about `tx`: plainly when it rides the decision force
    /// of the coordinator delivering on this thread, forced otherwise.
    fn log(&self, kind: u32, tx: &TxId, record: &Value) -> Result<(), TxError> {
        let payload = record.encode();
        if delivery::rides_decision(&self.wal, tx) {
            self.wal.append(kind, &payload)?;
        } else {
            self.wal.append_durable(kind, &payload)?;
        }
        Ok(())
    }

    fn prepared_record(&self, tx: &TxId) -> Value {
        let effects = self.inner.prepared_effects(tx).unwrap_or_default();
        let mut m = ValueMap::new();
        m.insert("store".into(), Value::from(self.name()));
        m.insert("tx".into(), txid_to_value(tx));
        m.insert("effects".into(), effects_to_value(&effects));
        Value::Map(m)
    }

    fn outcome_record(&self, tx: &TxId) -> Value {
        let mut m = ValueMap::new();
        m.insert("store".into(), Value::from(self.name()));
        m.insert("tx".into(), txid_to_value(tx));
        Value::Map(m)
    }
}

fn decode(payload: &[u8]) -> Result<Value, TxError> {
    Value::decode(payload).map_err(|e| TxError::Log(e.to_string()))
}

fn map_of(v: &Value) -> Result<&ValueMap, TxError> {
    v.as_map().ok_or_else(|| TxError::Log("record payload must be a map".into()))
}

impl Resource for DurableKv {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        let vote = self.inner.prepare(tx)?;
        if vote == Vote::Commit {
            // The redo record is durable before the vote counts: forced
            // here, or riding the coordinator's decision force.
            self.log(KIND_KV_PREPARED, tx, &self.prepared_record(tx))?;
        }
        Ok(vote)
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        // Idempotent like the inner store: a commit for an unknown tx is a
        // no-op and is not re-logged.
        if self.inner.prepared_effects(tx).is_some() {
            self.log(KIND_KV_COMMITTED, tx, &self.outcome_record(tx))?;
        }
        self.inner.commit(tx)
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        if self.inner.prepared_effects(tx).is_some() {
            self.log(KIND_KV_ABORTED, tx, &self.outcome_record(tx))?;
        }
        self.inner.rollback(tx)
    }

    fn commit_one_phase(&self, tx: &TxId) -> Result<(), TxError> {
        match self.inner.prepare(tx)? {
            Vote::Commit => {
                // Nothing observes the vote, so the redo record rides the
                // commit record's force: one sync for both.
                self.wal.append(KIND_KV_PREPARED, &self.prepared_record(tx).encode())?;
                self.wal.append_durable(KIND_KV_COMMITTED, &self.outcome_record(tx).encode())?;
                self.inner.commit(tx)
            }
            Vote::ReadOnly => Ok(()),
            Vote::Rollback => {
                self.rollback(tx)?;
                Err(TxError::RolledBack(tx.clone()))
            }
        }
    }

    fn resource_name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::TransactionFactory;
    use crate::DispatchConfig;
    use recovery_log::{FailpointSet, LogError, LogRecord, MemWal};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn wal() -> Arc<dyn Wal> {
        Arc::new(MemWal::new())
    }

    /// An in-memory log that counts its durability barriers and how many
    /// appends wait for the next one.
    #[derive(Default)]
    struct Barriers {
        log: MemWal,
        syncs: AtomicUsize,
        unsynced: AtomicUsize,
    }

    impl Barriers {
        fn syncs(&self) -> usize {
            self.syncs.load(Ordering::SeqCst)
        }
    }

    impl Wal for Barriers {
        fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
            self.unsynced.fetch_add(1, Ordering::SeqCst);
            self.log.append(kind, payload)
        }

        fn scan(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
            self.log.scan(from)
        }

        fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
            self.log.truncate_prefix(upto)
        }

        fn sync(&self) -> Result<(), LogError> {
            self.syncs.fetch_add(1, Ordering::SeqCst);
            self.unsynced.store(0, Ordering::SeqCst);
            self.log.sync()
        }

        fn next_lsn(&self) -> Lsn {
            self.log.next_lsn()
        }
    }

    /// Commit one transaction writing `k` into each of `stores` through
    /// `factory`, returning the transaction's outcome.
    fn commit_across(
        factory: &TransactionFactory,
        stores: &[Arc<DurableKv>],
        value: i64,
    ) -> Result<crate::coordinator::TxOutcome, TxError> {
        let control = factory.create().unwrap();
        for kv in stores {
            control.coordinator().register_resource(Arc::clone(kv) as Arc<dyn Resource>).unwrap();
            kv.store().write(control.id(), "k", Value::I64(value)).unwrap();
        }
        control.terminator().commit()
    }

    fn three_stores(log: &Arc<dyn Wal>) -> Vec<Arc<DurableKv>> {
        ["a", "b", "c"].iter().map(|name| DurableKv::new(*name, Arc::clone(log))).collect()
    }

    /// The inline and the pooled delivery paths.
    fn dispatches() -> [DispatchConfig; 2] {
        [DispatchConfig::serial(), DispatchConfig::with_workers(4)]
    }

    #[test]
    fn shared_log_commit_takes_one_barrier() {
        for dispatch in dispatches() {
            let barriers = Arc::new(Barriers::default());
            let log: Arc<dyn Wal> = Arc::clone(&barriers) as Arc<dyn Wal>;
            let factory = TransactionFactory::with_wal(Arc::clone(&log)).with_dispatch(dispatch);
            let stores = three_stores(&log);
            commit_across(&factory, &stores, 7).unwrap();
            assert_eq!(barriers.syncs(), 1, "{dispatch:?}: only the decision is forced");
            for name in ["a", "b", "c"] {
                let kv = DurableKv::recover(name, Arc::clone(&log)).unwrap();
                assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)), "{name}");
            }
        }
    }

    /// Wraps a participant and notes, as each vote returns, how many of
    /// the log's appends still await a barrier.
    struct VoteProbe {
        inner: Arc<DurableKv>,
        log: Arc<Barriers>,
        unsynced_at_vote: Arc<parking_lot::Mutex<Vec<usize>>>,
    }

    impl Resource for VoteProbe {
        fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
            let vote = self.inner.prepare(tx);
            self.unsynced_at_vote.lock().push(self.log.unsynced.load(Ordering::SeqCst));
            vote
        }

        fn commit(&self, tx: &TxId) -> Result<(), TxError> {
            self.inner.commit(tx)
        }

        fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
            self.inner.rollback(tx)
        }

        fn resource_name(&self) -> &str {
            self.inner.resource_name()
        }
    }

    #[test]
    fn participants_on_a_foreign_log_force_before_voting() {
        for dispatch in dispatches() {
            let barriers = Arc::new(Barriers::default());
            let log: Arc<dyn Wal> = Arc::clone(&barriers) as Arc<dyn Wal>;
            let factory = TransactionFactory::with_wal(wal()).with_dispatch(dispatch);
            let unsynced_at_vote = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let control = factory.create().unwrap();
            for kv in three_stores(&log) {
                kv.store().write(control.id(), "k", Value::I64(1)).unwrap();
                let probe = VoteProbe {
                    inner: kv,
                    log: Arc::clone(&barriers),
                    unsynced_at_vote: Arc::clone(&unsynced_at_vote),
                };
                control.coordinator().register_resource(Arc::new(probe)).unwrap();
            }
            control.terminator().commit().unwrap();
            assert_eq!(barriers.syncs(), 6, "{dispatch:?}: prepared + outcome per participant");
            if dispatch == DispatchConfig::serial() {
                assert_eq!(*unsynced_at_vote.lock(), vec![0, 0, 0], "redo durable at each vote");
            }
        }
    }

    #[test]
    fn a_coordinator_without_a_log_leaves_participants_forcing() {
        for dispatch in dispatches() {
            let barriers = Arc::new(Barriers::default());
            let log: Arc<dyn Wal> = Arc::clone(&barriers) as Arc<dyn Wal>;
            let factory = TransactionFactory::new().with_dispatch(dispatch);
            commit_across(&factory, &three_stores(&log), 1).unwrap();
            assert_eq!(barriers.syncs(), 6, "{dispatch:?}");
        }
    }

    #[test]
    fn outcomes_redelivered_by_recovery_are_forced() {
        let barriers = Arc::new(Barriers::default());
        let log: Arc<dyn Wal> = Arc::clone(&barriers) as Arc<dyn Wal>;
        let failpoints = FailpointSet::new();
        let factory =
            TransactionFactory::with_wal(Arc::clone(&log)).with_failpoints(failpoints.clone());
        failpoints.arm("ots.after_decision", 0);
        commit_across(&factory, &three_stores(&log), 5).unwrap_err();
        assert_eq!(barriers.syncs(), 1, "the decision alone was forced");

        let stores: Vec<Arc<DurableKv>> = ["a", "b", "c"]
            .iter()
            .map(|name| DurableKv::recover(*name, Arc::clone(&log)).unwrap())
            .collect();
        let lookup = stores.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            lookup.iter().find(|kv| kv.name() == name).map(|kv| Arc::clone(kv) as Arc<dyn Resource>)
        };
        let report = TransactionFactory::with_wal(Arc::clone(&log)).recover(&resolver).unwrap();
        assert_eq!(report.recommitted.len(), 1);
        assert_eq!(barriers.syncs(), 1 + 3, "each re-delivered outcome is forced");
        for kv in &stores {
            assert_eq!(kv.store().read_committed("k"), Some(Value::I64(5)));
        }
    }

    #[test]
    fn one_phase_commit_forces_once() {
        let barriers = Arc::new(Barriers::default());
        let log: Arc<dyn Wal> = Arc::clone(&barriers) as Arc<dyn Wal>;
        let kv = DurableKv::new("solo", Arc::clone(&log));
        commit_across(&TransactionFactory::new(), &[Arc::clone(&kv)], 3).unwrap();
        assert_eq!(barriers.syncs(), 1, "the redo record rides the commit record's force");
        assert_eq!(barriers.unsynced.load(Ordering::SeqCst), 0);
        let kv = DurableKv::recover("solo", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(3)));
    }

    #[test]
    fn committed_state_survives_restart() {
        let log = wal();
        let tx = TxId::top_level(1);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(7)).unwrap();
            assert_eq!(kv.prepare(&tx).unwrap(), Vote::Commit);
            kv.commit(&tx).unwrap();
            assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)));
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)));
    }

    #[test]
    fn prepared_state_survives_and_awaits_the_outcome() {
        let log = wal();
        let tx = TxId::top_level(2);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(9)).unwrap();
            assert_eq!(kv.prepare(&tx).unwrap(), Vote::Commit);
            // Crash here: prepared, undecided.
        }
        // Restart 1: outcome arrives as COMMIT (e.g. the coordinator's
        // decision record said so).
        let kv = DurableKv::recover("orders", Arc::clone(&log)).unwrap();
        assert_eq!(kv.store().read_committed("k"), None, "still undecided");
        kv.commit(&tx).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(9)));
        // Restart 2: the commit was logged, so it replays.
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(9)));
    }

    #[test]
    fn aborted_prepared_state_is_discarded() {
        let log = wal();
        let tx = TxId::top_level(3);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(1)).unwrap();
            kv.prepare(&tx).unwrap();
            kv.rollback(&tx).unwrap();
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), None);
        // Late redelivered commit is a no-op (nothing prepared).
        kv.commit(&tx).unwrap();
        assert_eq!(kv.store().read_committed("k"), None);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let log = wal();
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            for i in 0..5i64 {
                let tx = TxId::top_level(i as u64 + 1);
                kv.store().write(&tx, &format!("k{i}"), Value::I64(i)).unwrap();
                kv.prepare(&tx).unwrap();
                kv.commit(&tx).unwrap();
            }
            kv.checkpoint().unwrap();
            let tx = TxId::top_level(99);
            kv.store().write(&tx, "post-cp", Value::I64(42)).unwrap();
            kv.prepare(&tx).unwrap();
            kv.commit(&tx).unwrap();
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        for i in 0..5i64 {
            assert_eq!(kv.store().read_committed(&format!("k{i}")), Some(Value::I64(i)));
        }
        assert_eq!(kv.store().read_committed("post-cp"), Some(Value::I64(42)));
    }

    #[test]
    fn two_stores_share_one_log_without_crosstalk() {
        let log = wal();
        let tx = TxId::top_level(1);
        {
            let a = DurableKv::new("a", Arc::clone(&log));
            let b = DurableKv::new("b", Arc::clone(&log));
            a.store().write(&tx, "k", Value::I64(1)).unwrap();
            b.store().write(&tx, "k", Value::I64(2)).unwrap();
            a.prepare(&tx).unwrap();
            b.prepare(&tx).unwrap();
            a.commit(&tx).unwrap();
            b.commit(&tx).unwrap();
        }
        let a = DurableKv::recover("a", Arc::clone(&log)).unwrap();
        let b = DurableKv::recover("b", log).unwrap();
        assert_eq!(a.store().read_committed("k"), Some(Value::I64(1)));
        assert_eq!(b.store().read_committed("k"), Some(Value::I64(2)));
    }

    #[test]
    fn end_to_end_with_transaction_recovery() {
        // The full §3.4 story: coordinator crashes after its decision;
        // both the tx service AND the durable participant recover from the
        // same shared log, and the data is exactly right afterwards.
        let log = wal();
        let failpoints = FailpointSet::new();
        {
            let factory =
                TransactionFactory::with_wal(Arc::clone(&log)).with_failpoints(failpoints.clone());
            let kv = DurableKv::new("orders", Arc::clone(&log));
            let witness = DurableKv::new("audit", Arc::clone(&log));
            let control = factory.create().unwrap();
            control.coordinator().register_resource(Arc::clone(&kv) as Arc<dyn Resource>).unwrap();
            control
                .coordinator()
                .register_resource(Arc::clone(&witness) as Arc<dyn Resource>)
                .unwrap();
            kv.store().write(control.id(), "payment", Value::F64(9.99)).unwrap();
            witness.store().write(control.id(), "entry", Value::from("debit")).unwrap();
            failpoints.arm("ots.after_decision", 0);
            control.terminator().commit().unwrap_err();
        }

        // Restart: recover the stores first, then let the tx service
        // re-deliver the outcome through the resolver.
        let kv = DurableKv::recover("orders", Arc::clone(&log)).unwrap();
        let witness = DurableKv::recover("audit", Arc::clone(&log)).unwrap();
        assert_eq!(kv.store().read_committed("payment"), None, "undecided until re-delivery");
        let factory = TransactionFactory::with_wal(Arc::clone(&log));
        let kv2 = Arc::clone(&kv);
        let witness2 = Arc::clone(&witness);
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "orders" => Some(kv2.clone()),
                "audit" => Some(witness2.clone()),
                _ => None,
            }
        };
        let report = factory.recover(&resolver).unwrap();
        assert_eq!(report.recommitted.len(), 1);
        assert_eq!(kv.store().read_committed("payment"), Some(Value::F64(9.99)));
        assert_eq!(witness.store().read_committed("entry"), Some(Value::from("debit")));

        // Third incarnation needs no resolver help at all: the participant
        // outcome records replay by themselves.
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("payment"), Some(Value::F64(9.99)));
    }
}
