//! The transaction factory: creation, bookkeeping and recovery entry point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orb::choice::DeliverySequencer;
use orb::detector::FailureDetector;
use orb::pool::DispatchConfig;
use orb::SimClock;
use parking_lot::RwLock;
use recovery_log::{FailpointSet, Wal};

use crate::control::Control;
use crate::coordinator::{Coordinator, Hooks};
use crate::error::TxError;
use crate::journal::ProtocolJournal;
use crate::txlog::{self, ParticipantResolver, TxRecoveryReport};
use crate::xid::TxId;

/// Creates transactions (mirrors CosTransactions::TransactionFactory) and
/// owns the service-wide pieces: the decision log, failpoints, the virtual
/// clock for timeouts, and the registry of in-flight transactions.
pub struct TransactionFactory {
    next_top: AtomicU64,
    wal: Option<Arc<dyn Wal>>,
    failpoints: FailpointSet,
    clock: Option<SimClock>,
    dispatch: DispatchConfig,
    hooks: Arc<Hooks>,
    journal: Option<ProtocolJournal>,
    inflight: RwLock<HashMap<TxId, Arc<Coordinator>>>,
}

impl std::fmt::Debug for TransactionFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionFactory")
            .field("next_top", &self.next_top.load(Ordering::Relaxed))
            .field("logged", &self.wal.is_some())
            .field("inflight", &self.inflight.read().len())
            .finish()
    }
}

impl Default for TransactionFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionFactory {
    /// A factory with no durable log (volatile transactions).
    pub fn new() -> Self {
        TransactionFactory {
            next_top: AtomicU64::new(1),
            wal: None,
            failpoints: FailpointSet::new(),
            clock: None,
            dispatch: DispatchConfig::default(),
            hooks: Arc::default(),
            journal: None,
            inflight: RwLock::new(HashMap::new()),
        }
    }

    /// A factory whose coordinators write decision records to `wal`.
    pub fn with_wal(wal: Arc<dyn Wal>) -> Self {
        TransactionFactory { wal: Some(wal), ..Self::new() }
    }

    /// Attach a virtual clock; required for [`TransactionFactory::create_with_timeout`].
    #[must_use]
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attach a failpoint set for crash-injection tests.
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: FailpointSet) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// Choose how this factory's coordinators fan participant calls out
    /// during two-phase commit: [`DispatchConfig::serial`] reproduces the
    /// legacy one-at-a-time loops exactly, and
    /// [`DispatchConfig::with_workers`] always solicits votes and delivers
    /// outcomes concurrently on a pool of that width. The default is
    /// adaptive: each prepare, phase-two and rollback round runs inline,
    /// on the serial loop, when the process-wide estimates for that round
    /// say the participants are cheaper to call in turn than to hand to
    /// the shared worker pool (in-memory stores), and on the pool
    /// otherwise (remote or log-forcing participants).
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Attach a participant [`FailureDetector`]: every coordinator this
    /// factory creates consults it during phase one (see
    /// [`Coordinator::set_detector`]). The detector is shared — suspicion
    /// learned in one transaction carries into the next.
    #[must_use]
    pub fn with_detector(mut self, detector: FailureDetector) -> Self {
        Arc::make_mut(&mut self.hooks).detector = Some(detector);
        self
    }

    /// Attach a telemetry recorder: every coordinator this factory creates
    /// records its commits as spans and its votes/outcomes as metrics (see
    /// [`Coordinator::set_telemetry`]). Shared, like the detector.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: telemetry::Telemetry) -> Self {
        Arc::make_mut(&mut self.hooks).telemetry = Some(telemetry);
        self
    }

    /// Attach a [`DeliverySequencer`]: every coordinator this factory
    /// creates consults it for the order of its serial delivery rounds
    /// (see [`Coordinator::set_sequencer`]). A model-checking explorer uses
    /// this to own delivery order; without one, registration order rules.
    #[must_use]
    pub fn with_sequencer(mut self, sequencer: Arc<dyn DeliverySequencer>) -> Self {
        Arc::make_mut(&mut self.hooks).sequencer = Some(sequencer);
        self
    }

    /// Attach a [`ProtocolJournal`]: every coordinator this factory creates
    /// records its protocol steps into it (see
    /// [`Coordinator::set_journal`]). Shared, like the detector.
    #[must_use]
    pub fn with_journal(mut self, journal: ProtocolJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The factory's failpoints (shared handle).
    pub fn failpoints(&self) -> &FailpointSet {
        &self.failpoints
    }

    /// Begin a new top-level transaction with no timeout.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when the begin record cannot be written.
    pub fn create(&self) -> Result<Control, TxError> {
        self.create_inner(None)
    }

    /// Begin a new top-level transaction that is doomed once the virtual
    /// clock passes `timeout` from now.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when the begin record cannot be written.
    pub fn create_with_timeout(&self, timeout: Duration) -> Result<Control, TxError> {
        let deadline = self.clock.as_ref().map(|c| c.now() + timeout);
        self.create_inner(deadline)
    }

    fn create_inner(&self, deadline: Option<Duration>) -> Result<Control, TxError> {
        let id = TxId::top_level(self.next_top.fetch_add(1, Ordering::Relaxed));
        if let Some(wal) = &self.wal {
            txlog::log_begun(wal.as_ref(), &id)?;
        }
        let coordinator = Coordinator::new_top_level(
            id.clone(),
            self.wal.clone(),
            self.failpoints.clone(),
            self.clock.clone(),
            deadline,
            self.dispatch,
            Arc::clone(&self.hooks),
        );
        if let Some(journal) = &self.journal {
            coordinator.set_journal(journal.clone());
        }
        self.inflight.write().insert(id, Arc::clone(&coordinator));
        Ok(Control::new(coordinator))
    }

    /// Look up an in-flight transaction by id.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Unknown`] for ids this factory never issued or has
    /// forgotten.
    pub fn lookup(&self, id: &TxId) -> Result<Arc<Coordinator>, TxError> {
        self.inflight
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| TxError::Unknown(id.clone()))
    }

    /// Drop terminal transactions from the in-flight table; returns how many
    /// were reaped.
    pub fn reap_completed(&self) -> usize {
        let mut inflight = self.inflight.write();
        let before = inflight.len();
        inflight.retain(|_, c| !c.status().is_terminal());
        before - inflight.len()
    }

    /// Run crash recovery against this factory's log: re-deliver outcomes
    /// for every in-doubt transaction found there.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when there is no log or it cannot be read.
    pub fn recover(&self, resolver: &dyn ParticipantResolver) -> Result<TxRecoveryReport, TxError> {
        let wal = self.wal.as_ref().ok_or_else(|| TxError::Log("factory has no log".into()))?;
        let report = txlog::recover(wal.as_ref(), resolver)?;
        // Make sure new ids never collide with logged ones.
        let mut max_seen = 0;
        for tx in report.recommitted.iter().chain(report.presumed_aborted.iter()) {
            max_seen = max_seen.max(tx.top_seq());
        }
        let next = self.next_top.load(Ordering::Relaxed);
        if max_seen >= next {
            self.next_top.store(max_seen + 1, Ordering::Relaxed);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::test_support::ScriptedResource;
    use crate::resource::{Resource, Vote};
    use crate::status::TxStatus;
    use recovery_log::MemWal;

    #[test]
    fn factory_issues_unique_ids() {
        let f = TransactionFactory::new();
        let a = f.create().unwrap();
        let b = f.create().unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn lookup_and_reap() {
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        let id = c.id().clone();
        assert!(f.lookup(&id).is_ok());
        c.terminator().commit().unwrap();
        assert_eq!(f.reap_completed(), 1);
        assert!(matches!(f.lookup(&id), Err(TxError::Unknown(_))));
    }

    #[test]
    fn crash_between_decision_and_completion_recovers_commit() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let f = TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());

        let store = ScriptedResource::voting("store", Vote::Commit);
        let witness = ScriptedResource::voting("witness", Vote::Commit);
        let control = f.create().unwrap();
        control.coordinator().register_resource(store.clone()).unwrap();
        control.coordinator().register_resource(witness.clone()).unwrap();
        failpoints.arm("ots.after_decision", 0);
        let err = control.terminator().commit().unwrap_err();
        assert!(matches!(err, TxError::Log(_)));
        // The decision is durable but phase two never ran.
        assert_eq!(store.calls(), vec!["prepare"]);

        // "Restart": a new factory over the same log.
        failpoints.clear();
        let f2 = TransactionFactory::with_wal(wal);
        let store2 = store.clone();
        let witness2 = witness.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "store" => Some(store2.clone()),
                "witness" => Some(witness2.clone()),
                _ => None,
            }
        };
        let report = f2.recover(&resolver).unwrap();
        assert_eq!(report.recommitted.len(), 1);
        assert_eq!(store.calls(), vec!["prepare", "commit"]);
        assert_eq!(witness.calls(), vec!["prepare", "commit"]);
        // Ids continue past the recovered transaction.
        let fresh = f2.create().unwrap();
        assert!(fresh.id().top_seq() > report.recommitted[0].top_seq());
    }

    #[test]
    fn crash_before_decision_recovers_rollback() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let f = TransactionFactory::with_wal(Arc::clone(&wal)).with_failpoints(failpoints.clone());
        let store = ScriptedResource::voting("store", Vote::Commit);
        let other = ScriptedResource::voting("other", Vote::Commit);
        let control = f.create().unwrap();
        control.coordinator().register_resource(store.clone()).unwrap();
        control.coordinator().register_resource(other.clone()).unwrap();
        failpoints.arm("ots.before_decision", 0);
        control.terminator().commit().unwrap_err();

        failpoints.clear();
        let f2 = TransactionFactory::with_wal(wal);
        let store2 = store.clone();
        let other2 = other.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "store" => Some(store2.clone()),
                "other" => Some(other2.clone()),
                _ => None,
            }
        };
        let report = f2.recover(&resolver).unwrap();
        assert_eq!(report.presumed_aborted.len(), 1);
        assert_eq!(store.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn timeout_via_virtual_clock() {
        let clock = SimClock::new();
        let f = TransactionFactory::new().with_clock(clock.clone());
        let c = f.create_with_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(c.coordinator().status(), TxStatus::Active);
        clock.advance(Duration::from_millis(20));
        assert_eq!(c.coordinator().status(), TxStatus::MarkedRollback);
    }

    #[test]
    fn recover_without_log_fails() {
        let f = TransactionFactory::new();
        let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
        assert!(matches!(f.recover(&resolver), Err(TxError::Log(_))));
    }
}
