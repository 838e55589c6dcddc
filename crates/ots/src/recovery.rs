//! Participant-driven termination: `RecoveryCoordinator` interrogation and
//! in-doubt resolution (the other half of §3.4's recovery story).
//!
//! [`crate::txlog::recover`] is the *coordinator-driven* half: a restarted
//! transaction service replays its own log and re-delivers outcomes. But a
//! prepared participant whose coordinator is unreachable — crashed, or cut
//! off by a partition — cannot wait for that: CORBA OTS gives it a
//! `RecoveryCoordinator` reference at registration time and lets it ask
//! `replay_completion` until it learns the outcome. Under **presumed
//! abort** the answer is a pure function of the coordinator's log:
//!
//! | coordinator log state                 | answer        |
//! |---------------------------------------|---------------|
//! | `TX_DECISION` present                 | `committed`   |
//! | prepared but no decision record       | `rolled_back` |
//! | unknown / forgotten (no trace at all) | `rolled_back` |
//!
//! Absence of a forced decision *is* the abort decision, so the answer is
//! idempotent across redelivery and stable across coordinator restarts —
//! properties `tests/replay_completion_props.rs` pins down.
//!
//! Two pieces implement the protocol:
//!
//! * [`RecoveryCoordinator`] — an [`orb::Servant`] answering
//!   `replay_completion(tx)` from the transaction log, activatable on the
//!   coordinator's node so participants interrogate it over the (faulty,
//!   partitionable) simulated network.
//! * [`RecoverableResource`] — a participant-side wrapper around any
//!   [`Resource`] that forces `{tx, coordinator}` to its WAL before voting
//!   commit, tracks in-doubt transactions, and
//!   [`RecoverableResource::resolve_in_doubt`] drives interrogation through
//!   the existing [`RetryPolicy`] until resolved — escalating to a durably
//!   recorded **heuristic rollback** only past a configurable virtual-time
//!   deadline ([`ResolutionConfig::heuristic_deadline`]).
//!
//! The planted-bug fixture [`RecoveryCoordinator::forgetful`] answers
//! `unknown` where presumed abort requires `rolled_back`; the harness's
//! `eventual-resolution` oracle exists to catch exactly that.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use orb::{
    ObjectRef, Orb, OrbError, Request, RetryPolicy, Servant, Value, ValueMap,
};
use parking_lot::Mutex;
use recovery_log::{FailpointSet, Lsn, Wal};

use crate::error::TxError;
use crate::resource::{Resource, Vote};
use crate::txlog::{txid_from_value, txid_to_value, KIND_TX_DECISION};
use crate::xid::TxId;

/// Record kind: a participant prepared under `coordinator`; forced before
/// the commit vote returns, so a restarted participant knows whom to ask.
pub const KIND_RES_PREPARED: u32 = 0x0501;
/// Record kind: the outcome this participant learned (delivered or
/// interrogated) for an in-doubt transaction.
pub const KIND_RES_RESOLVED: u32 = 0x0502;
/// Record kind: the participant gave up interrogating past its deadline
/// and unilaterally rolled back — a heuristic, recorded durably.
pub const KIND_RES_HEURISTIC: u32 = 0x0503;

/// The CORBA interface name a [`RecoveryCoordinator`] servant is activated
/// under.
pub const RECOVERY_COORDINATOR_INTERFACE: &str = "RecoveryCoordinator";

/// Named failpoint sites for the termination protocol (see the audit table
/// in `recovery-log/src/crash.rs` and `harness::registry`).
pub mod failpoints {
    /// Prepared state and coordinator identity are durable, but the vote
    /// never reaches the coordinator: the participant crashes prepared.
    pub const AFTER_PREPARED: &str = "ots.recovery.after_prepared";
    /// An outcome (delivered or interrogated) arrived but the participant
    /// crashes before recording and applying it.
    pub const BEFORE_APPLY: &str = "ots.recovery.before_apply";
    /// Before one in-doubt transaction's interrogation round.
    pub const BEFORE_RESOLVE: &str = "ots.recovery.before_resolve";
    /// Every site this module hits.
    pub const FAILPOINT_SITES: &[&str] = &[AFTER_PREPARED, BEFORE_APPLY, BEFORE_RESOLVE];
}

/// A `replay_completion` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStatus {
    /// The decision record is durable: the transaction committed.
    Committed,
    /// No durable decision: presumed abort.
    RolledBack,
    /// Only the [`RecoveryCoordinator::forgetful`] fixture answers this —
    /// a spec violation the harness oracle must catch.
    Unknown,
}

impl ReplayStatus {
    /// Wire form of the answer.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplayStatus::Committed => "committed",
            ReplayStatus::RolledBack => "rolled_back",
            ReplayStatus::Unknown => "unknown",
        }
    }

    /// Parse a wire-form answer.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "committed" => Some(ReplayStatus::Committed),
            "rolled_back" => Some(ReplayStatus::RolledBack),
            "unknown" => Some(ReplayStatus::Unknown),
            _ => None,
        }
    }
}

/// The coordinator-side interrogation endpoint: answers
/// `replay_completion(tx)` from the transaction log under presumed abort.
///
/// Stateless between calls — every answer is recomputed from the log, so
/// redelivered interrogations and coordinator restarts cannot change it.
pub struct RecoveryCoordinator {
    wal: Arc<dyn Wal>,
    /// The planted bug: forget that absence-of-decision means rollback and
    /// answer `unknown` instead. Never set outside test fixtures.
    forgets_presumed_abort: bool,
}

impl std::fmt::Debug for RecoveryCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryCoordinator")
            .field("forgets_presumed_abort", &self.forgets_presumed_abort)
            .finish_non_exhaustive()
    }
}

impl RecoveryCoordinator {
    /// An interrogation endpoint over the coordinator's transaction log.
    pub fn new(wal: Arc<dyn Wal>) -> Self {
        RecoveryCoordinator { wal, forgets_presumed_abort: false }
    }

    /// The planted-bug fixture: a coordinator that "forgets presumed
    /// abort". Where the honest servant answers `rolled_back` for a
    /// transaction without a durable decision (unknown, undecided or
    /// forgotten), this one answers `unknown` — leaving the interrogating
    /// participant in doubt forever. Exists so the harness's
    /// `eventual-resolution` oracle has a bug to catch.
    pub fn forgetful(wal: Arc<dyn Wal>) -> Self {
        RecoveryCoordinator { wal, forgets_presumed_abort: true }
    }

    /// Answer one interrogation: `committed` iff the decision record is
    /// durable, `rolled_back` otherwise (presumed abort).
    ///
    /// # Errors
    ///
    /// [`TxError::Log`] when the log cannot be scanned.
    pub fn replay_completion(&self, tx: &TxId) -> Result<ReplayStatus, TxError> {
        for record in self.wal.scan(Lsn::new(0)).map_err(TxError::from)? {
            if record.kind != KIND_TX_DECISION {
                continue;
            }
            let value = Value::decode(&record.payload)
                .map_err(|e| TxError::Log(e.to_string()))?;
            if txid_from_value(&value)? == *tx {
                return Ok(ReplayStatus::Committed);
            }
        }
        if self.forgets_presumed_abort {
            return Ok(ReplayStatus::Unknown);
        }
        Ok(ReplayStatus::RolledBack)
    }
}

impl Servant for RecoveryCoordinator {
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        match request.operation() {
            "replay_completion" => {
                let tx = request
                    .arg("tx")
                    .ok_or_else(|| OrbError::Application("missing arg tx".into()))?;
                let tx = txid_from_value(tx)
                    .map_err(|e| OrbError::Application(e.to_string()))?;
                let status = self
                    .replay_completion(&tx)
                    .map_err(|e| OrbError::Application(e.to_string()))?;
                Ok(Value::from(status.as_str()))
            }
            other => Err(OrbError::BadOperation(other.to_owned())),
        }
    }
}

/// Maps a coordinator's node name to its activated [`RecoveryCoordinator`]
/// reference (a stand-in for the CORBA object reference OTS hands each
/// participant at registration).
pub type CoordinatorLocator = Arc<dyn Fn(&str) -> Option<ObjectRef> + Send + Sync>;

/// How in-doubt resolution paces itself.
#[derive(Debug, Clone)]
pub struct ResolutionConfig {
    /// Retry policy each interrogation runs under; its deadline, if set
    /// ([`RetryPolicy::with_deadline`]), bounds every interrogation call.
    pub policy: RetryPolicy,
    /// Absolute virtual time past which an unresolvable transaction is
    /// escalated to a recorded heuristic rollback instead of staying in
    /// doubt.
    pub heuristic_deadline: Duration,
}

impl ResolutionConfig {
    /// Resolution under `policy`, escalating to a heuristic only after the
    /// virtual clock passes `heuristic_deadline`.
    pub fn new(policy: RetryPolicy, heuristic_deadline: Duration) -> Self {
        ResolutionConfig { policy, heuristic_deadline }
    }
}

/// What one [`RecoverableResource::resolve_in_doubt`] pass achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionReport {
    /// Transactions resolved to commit.
    pub committed: Vec<TxId>,
    /// Transactions resolved to rollback (presumed abort).
    pub rolled_back: Vec<TxId>,
    /// Transactions unilaterally rolled back past the heuristic deadline.
    pub heuristic: Vec<TxId>,
    /// Transactions still in doubt (interrogation failed, deadline not yet
    /// reached) — retry after the partition heals.
    pub unresolved: Vec<TxId>,
}

impl ResolutionReport {
    /// Whether everything this pass saw is settled.
    pub fn fully_resolved(&self) -> bool {
        self.unresolved.is_empty()
    }
}

/// A participant-side wrapper making any [`Resource`] interrogation-capable:
/// prepared state plus coordinator identity are forced to the WAL before
/// the commit vote returns, and in-doubt transactions are driven to
/// resolution via `replay_completion` after a restart or a detector
/// quarantine of the coordinator.
pub struct RecoverableResource {
    inner: Arc<dyn Resource>,
    name: String,
    wal: Arc<dyn Wal>,
    coordinator_node: String,
    failpoints: FailpointSet,
    /// tx → coordinator node recorded at prepare time.
    in_doubt: Mutex<BTreeMap<TxId, String>>,
    heuristics: Mutex<Vec<(TxId, String)>>,
}

impl std::fmt::Debug for RecoverableResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverableResource")
            .field("name", &self.name)
            .field("coordinator_node", &self.coordinator_node)
            .field("in_doubt", &self.in_doubt.lock().len())
            .finish_non_exhaustive()
    }
}

impl RecoverableResource {
    /// Wrap `inner`, journaling prepared/resolved state to `wal` and
    /// remembering `coordinator_node` as the interrogation target.
    pub fn new(
        inner: Arc<dyn Resource>,
        wal: Arc<dyn Wal>,
        coordinator_node: impl Into<String>,
    ) -> Self {
        let name = inner.resource_name().to_owned();
        RecoverableResource {
            inner,
            name,
            wal,
            coordinator_node: coordinator_node.into(),
            failpoints: FailpointSet::new(),
            in_doubt: Mutex::new(BTreeMap::new()),
            heuristics: Mutex::new(Vec::new()),
        }
    }

    /// Share `failpoints` for crash injection at the participant sites.
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: FailpointSet) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// Rebuild the wrapper after a participant restart: in-doubt state is
    /// `RES_PREPARED` minus `RES_RESOLVED`/`RES_HEURISTIC`, and any
    /// resolution that was recorded but possibly not applied is re-delivered
    /// to `inner` (idempotently — [`crate::DurableKv`] no-ops outcomes for
    /// transactions it has nothing prepared for).
    ///
    /// # Errors
    ///
    /// [`TxError::Log`] on malformed records; inner redelivery errors.
    pub fn recover(
        inner: Arc<dyn Resource>,
        wal: Arc<dyn Wal>,
        coordinator_node: impl Into<String>,
    ) -> Result<Self, TxError> {
        let name = inner.resource_name().to_owned();
        let mut prepared: BTreeMap<TxId, String> = BTreeMap::new();
        let mut resolved: Vec<(TxId, bool)> = Vec::new();
        for record in wal.scan(Lsn::new(0)).map_err(TxError::from)? {
            match record.kind {
                KIND_RES_PREPARED | KIND_RES_RESOLVED | KIND_RES_HEURISTIC => {}
                _ => continue,
            }
            let value = Value::decode(&record.payload)
                .map_err(|e| TxError::Log(e.to_string()))?;
            let m = value
                .as_map()
                .ok_or_else(|| TxError::Log("resource record must be a map".into()))?;
            if m.get("resource").and_then(Value::as_str) != Some(name.as_str()) {
                continue;
            }
            let tx = txid_from_value(
                m.get("tx").ok_or_else(|| TxError::Log("resource record missing tx".into()))?,
            )?;
            match record.kind {
                KIND_RES_PREPARED => {
                    let coordinator = m
                        .get("coordinator")
                        .and_then(Value::as_str)
                        .ok_or_else(|| TxError::Log("prepared record missing coordinator".into()))?;
                    prepared.insert(tx, coordinator.to_owned());
                }
                _ => {
                    let committed =
                        m.get("committed").and_then(Value::as_bool).unwrap_or(false);
                    prepared.remove(&tx);
                    resolved.push((tx, committed));
                }
            }
        }
        let resource = RecoverableResource {
            inner,
            name,
            wal,
            coordinator_node: coordinator_node.into(),
            failpoints: FailpointSet::new(),
            in_doubt: Mutex::new(prepared),
            heuristics: Mutex::new(Vec::new()),
        };
        // Re-deliver recorded resolutions: the crash may have fallen between
        // forcing the resolution record and applying it to `inner`.
        for (tx, committed) in resolved {
            if committed {
                resource.inner.commit(&tx)?;
            } else {
                resource.inner.rollback(&tx)?;
            }
        }
        Ok(resource)
    }

    /// The transactions currently in doubt, with their coordinators.
    pub fn in_doubt(&self) -> Vec<(TxId, String)> {
        self.in_doubt.lock().iter().map(|(t, c)| (t.clone(), c.clone())).collect()
    }

    /// Heuristic decisions taken so far (tx, detail).
    pub fn heuristics(&self) -> Vec<(TxId, String)> {
        self.heuristics.lock().clone()
    }

    /// The wrapped resource.
    pub fn inner(&self) -> &Arc<dyn Resource> {
        &self.inner
    }

    /// Render the participant's recovery surface for the introspection
    /// plane: every in-doubt transaction with its coordinator, any
    /// heuristic decisions taken, and the WAL watermark the prepared
    /// records sit behind.
    #[must_use]
    pub fn introspect(&self) -> String {
        let in_doubt = self.in_doubt();
        let heuristics = self.heuristics();
        let mut out = format!(
            "resource={} in_doubt={} heuristics={} next_lsn={}\n",
            self.name,
            in_doubt.len(),
            heuristics.len(),
            self.wal.next_lsn(),
        );
        for (tx, coordinator) in in_doubt {
            out.push_str(&format!("in-doubt {tx} (coordinator {coordinator})\n"));
        }
        for (tx, detail) in heuristics {
            out.push_str(&format!("heuristic {tx}: {detail}\n"));
        }
        out
    }

    fn log_resolution(&self, kind: u32, tx: &TxId, committed: bool) -> Result<(), TxError> {
        let mut m = ValueMap::new();
        m.insert("resource".into(), Value::from(self.name.as_str()));
        m.insert("tx".into(), txid_to_value(tx));
        m.insert("committed".into(), Value::Bool(committed));
        self.wal.append_durable(kind, &Value::Map(m).encode())?;
        Ok(())
    }

    /// Record and apply an outcome for an in-doubt transaction; outcomes
    /// for unknown transactions pass straight through (idempotent
    /// redelivery).
    fn deliver(&self, tx: &TxId, committed: bool) -> Result<(), TxError> {
        if !self.in_doubt.lock().contains_key(tx) {
            return if committed { self.inner.commit(tx) } else { self.inner.rollback(tx) };
        }
        self.failpoints.hit(failpoints::BEFORE_APPLY).map_err(TxError::from)?;
        self.log_resolution(KIND_RES_RESOLVED, tx, committed)?;
        if committed {
            self.inner.commit(tx)?;
        } else {
            self.inner.rollback(tx)?;
        }
        self.in_doubt.lock().remove(tx);
        Ok(())
    }

    /// Interrogate the coordinator for every in-doubt transaction and apply
    /// what it answers. Interrogations that keep failing (or answer
    /// `unknown`) leave the transaction in doubt until the virtual clock
    /// passes [`ResolutionConfig::heuristic_deadline`], at which point it is
    /// heuristically rolled back and the decision recorded durably.
    ///
    /// # Errors
    ///
    /// Log failures and injected crashes; interrogation *transport* failures
    /// are not errors (the transaction just stays in doubt).
    pub fn resolve_in_doubt(
        &self,
        orb: &Orb,
        from: &str,
        locate: &CoordinatorLocator,
        config: &ResolutionConfig,
    ) -> Result<ResolutionReport, TxError> {
        let mut report = ResolutionReport::default();
        for (tx, coordinator) in self.in_doubt() {
            self.failpoints.hit(failpoints::BEFORE_RESOLVE).map_err(TxError::from)?;
            let answer = match locate(&coordinator) {
                Some(object) => {
                    let request = Request::new("replay_completion")
                        .with_arg("tx", txid_to_value(&tx));
                    match orb.invoke(from, &object, request, &config.policy) {
                        Ok(reply) => reply
                            .result
                            .as_str()
                            .and_then(ReplayStatus::parse)
                            .ok_or_else(|| format!("unparseable answer for {tx}")),
                        Err(e) => Err(format!("interrogation failed: {e}")),
                    }
                }
                None => Err(format!("no RecoveryCoordinator for node {coordinator:?}")),
            };
            match answer {
                Ok(ReplayStatus::Committed) => {
                    self.deliver(&tx, true)?;
                    report.committed.push(tx);
                }
                Ok(ReplayStatus::RolledBack) => {
                    self.deliver(&tx, false)?;
                    report.rolled_back.push(tx);
                }
                Ok(ReplayStatus::Unknown) | Err(_) => {
                    let detail = match answer {
                        Ok(_) => format!("coordinator {coordinator:?} answered unknown"),
                        Err(e) => e,
                    };
                    if orb.clock().now() > config.heuristic_deadline {
                        // Past the deadline: unilateral rollback, recorded.
                        self.log_resolution(KIND_RES_HEURISTIC, &tx, false)?;
                        self.inner.rollback(&tx)?;
                        self.in_doubt.lock().remove(&tx);
                        self.heuristics.lock().push((tx.clone(), detail));
                        report.heuristic.push(tx);
                    } else {
                        report.unresolved.push(tx);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Wire a [`orb::FailureDetector`] quarantine of this resource's
    /// coordinator to an immediate resolution pass: the participant does
    /// not wait for a restart to start interrogating. Resolution failures
    /// inside the hook are swallowed (the next pass retries).
    pub fn resolve_on_quarantine(
        resource: &Arc<RecoverableResource>,
        detector: &orb::FailureDetector,
        orb: Orb,
        from: impl Into<String>,
        locate: CoordinatorLocator,
        config: ResolutionConfig,
    ) {
        let resource = Arc::clone(resource);
        let from = from.into();
        detector.on_quarantine(move |node| {
            if resource.in_doubt().iter().any(|(_, c)| c == node) {
                let _ = resource.resolve_in_doubt(&orb, &from, &locate, &config);
            }
        });
    }
}

impl Resource for RecoverableResource {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        let vote = self.inner.prepare(tx)?;
        if vote == Vote::Commit {
            let mut m = ValueMap::new();
            m.insert("resource".into(), Value::from(self.name.as_str()));
            m.insert("tx".into(), txid_to_value(tx));
            m.insert("coordinator".into(), Value::from(self.coordinator_node.as_str()));
            // Forced BEFORE the vote returns: a restarted participant must
            // know both that it is in doubt and whom to interrogate.
            self.wal.append_durable(KIND_RES_PREPARED, &Value::Map(m).encode())?;
            self.in_doubt.lock().insert(tx.clone(), self.coordinator_node.clone());
            self.failpoints.hit(failpoints::AFTER_PREPARED).map_err(TxError::from)?;
        }
        Ok(vote)
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        self.deliver(tx, true)
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        self.deliver(tx, false)
    }

    fn forget(&self, tx: &TxId) {
        self.inner.forget(tx);
    }

    fn resource_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableKv;
    use crate::factory::TransactionFactory;
    use crate::txlog;
    use orb::{DetectorConfig, FailureDetector, NetworkConfig, SimClock};
    use recovery_log::MemWal;

    fn wal() -> Arc<dyn Wal> {
        Arc::new(MemWal::new())
    }

    fn orb_with_coordinator(
        rc: RecoveryCoordinator,
    ) -> (Orb, ObjectRef, SimClock) {
        let clock = SimClock::new();
        let orb = Orb::builder().network(NetworkConfig::reliable()).clock(clock.clone()).build();
        let coord = orb.add_node("coordinator").unwrap();
        orb.add_node("participant").unwrap();
        let object = coord.activate(RECOVERY_COORDINATOR_INTERFACE, rc).unwrap();
        (orb, object, clock)
    }

    fn locator(object: ObjectRef) -> CoordinatorLocator {
        Arc::new(move |node: &str| {
            (node == "coordinator").then(|| object.clone())
        })
    }

    #[test]
    fn decided_tx_answers_committed_even_after_completion() {
        let log = wal();
        let tx = TxId::top_level(1);
        txlog::log_prepared(log.as_ref(), &tx, &["store"]).unwrap();
        txlog::log_decision_commit(log.as_ref(), &tx).unwrap();
        let rc = RecoveryCoordinator::new(Arc::clone(&log));
        assert_eq!(rc.replay_completion(&tx).unwrap(), ReplayStatus::Committed);
        // Completion (Forget) does not change a committed answer.
        txlog::log_completed(log.as_ref(), &tx, crate::TxStatus::Committed).unwrap();
        assert_eq!(rc.replay_completion(&tx).unwrap(), ReplayStatus::Committed);
    }

    #[test]
    fn unknown_and_undecided_txs_answer_rolled_back() {
        let log = wal();
        let rc = RecoveryCoordinator::new(Arc::clone(&log));
        // Completely unknown (forgotten) transaction: presumed abort.
        assert_eq!(
            rc.replay_completion(&TxId::top_level(9)).unwrap(),
            ReplayStatus::RolledBack
        );
        // Prepared but never decided: still presumed abort.
        let tx = TxId::top_level(2);
        txlog::log_begun(log.as_ref(), &tx).unwrap();
        txlog::log_prepared(log.as_ref(), &tx, &["store"]).unwrap();
        assert_eq!(rc.replay_completion(&tx).unwrap(), ReplayStatus::RolledBack);
    }

    #[test]
    fn forgetful_fixture_answers_unknown_where_spec_says_rollback() {
        let log = wal();
        let rc = RecoveryCoordinator::forgetful(Arc::clone(&log));
        assert_eq!(
            rc.replay_completion(&TxId::top_level(3)).unwrap(),
            ReplayStatus::Unknown
        );
        // It still answers decided transactions correctly: the bug is
        // precisely the forgotten presumed-abort default.
        let tx = TxId::top_level(4);
        txlog::log_decision_commit(log.as_ref(), &tx).unwrap();
        assert_eq!(rc.replay_completion(&tx).unwrap(), ReplayStatus::Committed);
    }

    #[test]
    fn servant_answers_over_the_orb_and_is_idempotent() {
        let log = wal();
        let tx = TxId::top_level(5);
        txlog::log_decision_commit(log.as_ref(), &tx).unwrap();
        let (orb, object, _clock) = orb_with_coordinator(RecoveryCoordinator::new(log));
        let ask = || {
            let request =
                Request::new("replay_completion").with_arg("tx", txid_to_value(&tx));
            orb.invoke("participant", &object, request, &RetryPolicy::none()).unwrap().result
        };
        assert_eq!(ask(), Value::from("committed"));
        assert_eq!(ask(), Value::from("committed"), "redelivery changes nothing");
    }

    #[test]
    fn prepared_participant_resolves_to_commit_after_restart() {
        let coord_log = wal();
        let part_log = wal();
        let tx = TxId::top_level(6);
        // Participant prepares durably; coordinator decides commit; the
        // outcome delivery is lost (participant "crashed").
        {
            let kv = DurableKv::new("store", Arc::clone(&part_log));
            let res = RecoverableResource::new(
                Arc::clone(&kv) as Arc<dyn Resource>,
                Arc::clone(&part_log),
                "coordinator",
            );
            kv.store().write(&tx, "k", Value::I64(7)).unwrap();
            assert_eq!(res.prepare(&tx).unwrap(), Vote::Commit);
        }
        txlog::log_decision_commit(coord_log.as_ref(), &tx).unwrap();
        // Restart: rebuild both layers from the participant log, then
        // interrogate.
        let kv = DurableKv::recover("store", Arc::clone(&part_log)).unwrap();
        let res = Arc::new(
            RecoverableResource::recover(
                Arc::clone(&kv) as Arc<dyn Resource>,
                Arc::clone(&part_log),
                "coordinator",
            )
            .unwrap(),
        );
        assert_eq!(res.in_doubt().len(), 1);
        let (orb, object, _clock) = orb_with_coordinator(RecoveryCoordinator::new(coord_log));
        let config =
            ResolutionConfig::new(RetryPolicy::new(3), Duration::from_secs(10));
        let report = res
            .resolve_in_doubt(&orb, "participant", &locator(object), &config)
            .unwrap();
        assert_eq!(report.committed, vec![tx.clone()]);
        assert!(res.in_doubt().is_empty());
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)));
        // The resolution is durable: a second restart finds nothing in
        // doubt and the committed state intact.
        let kv2 = DurableKv::recover("store", Arc::clone(&part_log)).unwrap();
        let res2 = RecoverableResource::recover(
            Arc::clone(&kv2) as Arc<dyn Resource>,
            part_log,
            "coordinator",
        )
        .unwrap();
        assert!(res2.in_doubt().is_empty());
        assert_eq!(kv2.store().read_committed("k"), Some(Value::I64(7)));
    }

    #[test]
    fn undecided_participant_presumed_aborts_after_restart() {
        let coord_log = wal();
        let part_log = wal();
        let tx = TxId::top_level(7);
        {
            let kv = DurableKv::new("store", Arc::clone(&part_log));
            let res = RecoverableResource::new(
                Arc::clone(&kv) as Arc<dyn Resource>,
                Arc::clone(&part_log),
                "coordinator",
            );
            kv.store().write(&tx, "k", Value::I64(1)).unwrap();
            assert_eq!(res.prepare(&tx).unwrap(), Vote::Commit);
        }
        // No decision was ever forced on the coordinator side.
        let kv = DurableKv::recover("store", Arc::clone(&part_log)).unwrap();
        let res = RecoverableResource::recover(
            Arc::clone(&kv) as Arc<dyn Resource>,
            part_log,
            "coordinator",
        )
        .unwrap();
        let (orb, object, _clock) = orb_with_coordinator(RecoveryCoordinator::new(coord_log));
        let config =
            ResolutionConfig::new(RetryPolicy::new(3), Duration::from_secs(10));
        let report = res
            .resolve_in_doubt(&orb, "participant", &locator(object), &config)
            .unwrap();
        assert_eq!(report.rolled_back, vec![tx]);
        assert!(res.in_doubt().is_empty());
        assert_eq!(kv.store().read_committed("k"), None);
    }

    #[test]
    fn unreachable_coordinator_escalates_to_heuristic_past_deadline() {
        let part_log = wal();
        let tx = TxId::top_level(8);
        let kv = DurableKv::new("store", Arc::clone(&part_log));
        let res = RecoverableResource::new(
            Arc::clone(&kv) as Arc<dyn Resource>,
            Arc::clone(&part_log),
            "coordinator",
        );
        kv.store().write(&tx, "k", Value::I64(2)).unwrap();
        res.prepare(&tx).unwrap();
        let clock = SimClock::new();
        let orb =
            Orb::builder().network(NetworkConfig::reliable()).clock(clock.clone()).build();
        orb.add_node("participant").unwrap();
        // No servant anywhere: the locator comes up empty.
        let locate: CoordinatorLocator = Arc::new(|_| None);
        let config =
            ResolutionConfig::new(RetryPolicy::new(2), Duration::from_millis(500));
        // Before the deadline: stays in doubt, no heuristic.
        let report =
            res.resolve_in_doubt(&orb, "participant", &locate, &config).unwrap();
        assert_eq!(report.unresolved, vec![tx.clone()]);
        assert!(res.heuristics().is_empty());
        // Past the deadline: heuristic rollback, durably recorded.
        clock.advance(Duration::from_secs(1));
        let report =
            res.resolve_in_doubt(&orb, "participant", &locate, &config).unwrap();
        assert_eq!(report.heuristic, vec![tx.clone()]);
        assert!(res.in_doubt().is_empty());
        assert_eq!(res.heuristics().len(), 1);
        assert_eq!(kv.store().read_committed("k"), None);
        // Durable across restart: the heuristic record resolves the doubt.
        let kv2 = DurableKv::recover("store", Arc::clone(&part_log)).unwrap();
        let res2 = RecoverableResource::recover(
            Arc::clone(&kv2) as Arc<dyn Resource>,
            part_log,
            "coordinator",
        )
        .unwrap();
        assert!(res2.in_doubt().is_empty());
    }

    #[test]
    fn detector_quarantine_triggers_resolution() {
        let coord_log = wal();
        let part_log = wal();
        let tx = TxId::top_level(9);
        let kv = DurableKv::new("store", Arc::clone(&part_log));
        let res = Arc::new(RecoverableResource::new(
            Arc::clone(&kv) as Arc<dyn Resource>,
            Arc::clone(&part_log),
            "coordinator",
        ));
        kv.store().write(&tx, "k", Value::I64(3)).unwrap();
        res.prepare(&tx).unwrap();
        txlog::log_decision_commit(coord_log.as_ref(), &tx).unwrap();
        let (orb, object, clock) = orb_with_coordinator(RecoveryCoordinator::new(coord_log));
        let detector = FailureDetector::with_config(
            clock,
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 2,
                probe_interval: Duration::from_millis(100),
            },
        );
        RecoverableResource::resolve_on_quarantine(
            &res,
            &detector,
            orb,
            "participant",
            locator(object),
            ResolutionConfig::new(RetryPolicy::new(3), Duration::from_secs(10)),
        );
        // Evidence mounts until the coordinator is quarantined — the hook
        // interrogates immediately, without waiting for a restart.
        detector.record_failure("coordinator");
        assert_eq!(res.in_doubt().len(), 1, "suspect alone does not resolve");
        detector.record_failure("coordinator");
        assert!(res.in_doubt().is_empty(), "quarantine triggered resolution");
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(3)));
    }

    #[test]
    fn delivered_outcomes_clear_doubt_inline() {
        // The normal (no-crash) path: phase-two delivery goes through the
        // wrapper, records the resolution and clears the in-doubt entry, so
        // a clean commit leaves nothing to interrogate.
        let log = wal();
        let factory = TransactionFactory::with_wal(Arc::clone(&log));
        let kv = DurableKv::new("store", Arc::clone(&log));
        let witness = DurableKv::new("witness", Arc::clone(&log));
        let store = Arc::new(RecoverableResource::new(
            Arc::clone(&kv) as Arc<dyn Resource>,
            Arc::clone(&log),
            "coordinator",
        ));
        let audit = Arc::new(RecoverableResource::new(
            Arc::clone(&witness) as Arc<dyn Resource>,
            Arc::clone(&log),
            "coordinator",
        ));
        let control = factory.create().unwrap();
        control
            .coordinator()
            .register_resource(Arc::clone(&store) as Arc<dyn Resource>)
            .unwrap();
        control
            .coordinator()
            .register_resource(Arc::clone(&audit) as Arc<dyn Resource>)
            .unwrap();
        kv.store().write(control.id(), "k", Value::I64(4)).unwrap();
        witness.store().write(control.id(), "w", Value::I64(5)).unwrap();
        control.terminator().commit().unwrap();
        assert!(store.in_doubt().is_empty());
        assert!(audit.in_doubt().is_empty());
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(4)));
    }
}
