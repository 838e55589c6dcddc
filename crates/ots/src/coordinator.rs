//! The per-transaction coordinator: registration, two-phase commit, nesting.

use std::sync::{Arc, OnceLock, Weak};

/// Named crash-injection sites of the two-phase-commit protocol, in the
/// order they are passed during a commit. Every
/// [`recovery_log::FailpointSet::hit`] call in this crate uses one of these
/// constants; the full workspace audit table lives in
/// `recovery_log::crash`'s module docs, and `FAILPOINT_SITES` is the
/// machine-readable registry simulation harnesses sweep over.
pub mod failpoints {
    /// Before phase one solicits any vote (nothing logged yet).
    pub const BEFORE_PREPARE: &str = "ots.before_prepare";
    /// After every vote is collected, before the decision is taken.
    pub const AFTER_PREPARE: &str = "ots.after_prepare";
    /// Before the commit decision record is forced to the log.
    pub const BEFORE_DECISION: &str = "ots.before_decision";
    /// Decision durable, before any phase-two delivery.
    pub const AFTER_DECISION: &str = "ots.after_decision";
    /// Phase two delivered, before the completion record.
    pub const BEFORE_COMPLETION_RECORD: &str = "ots.before_completion_record";

    /// Every site above, in protocol order.
    pub const FAILPOINT_SITES: &[&str] = &[
        BEFORE_PREPARE,
        AFTER_PREPARE,
        BEFORE_DECISION,
        AFTER_DECISION,
        BEFORE_COMPLETION_RECORD,
    ];
}
use std::time::Duration;

use orb::choice::{clamp_choice, DeliverySequencer};
use orb::detector::FailureDetector;
use orb::pool::{CancelToken, DispatchConfig, FanOutSite, TaskOutcome, WorkerPool};
use orb::{SimClock, SnapshotCell};
use parking_lot::Mutex;
use recovery_log::{FailpointSet, Wal};
use telemetry::{SpanContext, Telemetry};

use crate::delivery::Delivery;
use crate::error::TxError;
use crate::journal::{ProtocolJournal, TwoPcEvent, VoteKind};
use crate::resource::{Resource, SubtransactionAwareResource, Synchronization, Vote};
use crate::status::TxStatus;
use crate::txlog;
use crate::xid::TxId;

/// Cost estimates of the participant rounds, shared by every coordinator
/// in the process; the adaptive [`DispatchConfig`] default reads them.
static PREPARE_SITE: FanOutSite = FanOutSite::new();
static PHASE_TWO_SITE: FanOutSite = FanOutSite::new();
static ROLLBACK_SITE: FanOutSite = FanOutSite::new();

/// Outcome of a completed transaction, as reported to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Everything committed.
    Committed,
    /// Everything rolled back.
    RolledBack,
}

struct CoordinatorInner {
    status: TxStatus,
    resources: Vec<Arc<dyn Resource>>,
    synchronizations: Vec<Arc<dyn Synchronization>>,
    subtx_aware: Vec<Arc<dyn SubtransactionAwareResource>>,
    children: Vec<Arc<Coordinator>>,
    child_counter: u32,
    deadline: Option<Duration>,
}

/// The coordinator's optional collaborators: read once per commit or
/// rollback, replaced by every `set_*` call. A subtransaction starts from
/// its parent's, and a factory hands one to all its coordinators.
#[derive(Clone, Default)]
pub(crate) struct Hooks {
    pub(crate) detector: Option<FailureDetector>,
    pub(crate) telemetry: Option<Telemetry>,
    pub(crate) sequencer: Option<Arc<dyn DeliverySequencer>>,
}

/// Coordinates one transaction (mirrors CosTransactions::Coordinator plus
/// the completion half of Terminator).
///
/// Top-level coordinators drive full two-phase commit with presumed abort
/// and durable decision logging; subtransaction coordinators commit
/// *provisionally*, handing their participants to the parent (the resource
/// inheritance described in §1 of the paper).
pub struct Coordinator {
    id: TxId,
    parent: Weak<Coordinator>,
    inner: Mutex<CoordinatorInner>,
    wal: Option<Arc<dyn Wal>>,
    failpoints: FailpointSet,
    clock: Option<SimClock>,
    dispatch: DispatchConfig,
    hooks: SnapshotCell<Hooks>,
    /// Set once, read with one atomic load at every record site.
    journal: OnceLock<ProtocolJournal>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Coordinator")
            .field("id", &self.id)
            .field("status", &inner.status)
            .field("resources", &inner.resources.len())
            .field("children", &inner.children.len())
            .finish()
    }
}

impl Coordinator {
    pub(crate) fn new_top_level(
        id: TxId,
        wal: Option<Arc<dyn Wal>>,
        failpoints: FailpointSet,
        clock: Option<SimClock>,
        deadline: Option<Duration>,
        dispatch: DispatchConfig,
        hooks: Arc<Hooks>,
    ) -> Arc<Self> {
        Arc::new(Coordinator {
            id,
            parent: Weak::new(),
            inner: Mutex::new(CoordinatorInner {
                status: TxStatus::Active,
                resources: Vec::new(),
                synchronizations: Vec::new(),
                subtx_aware: Vec::new(),
                children: Vec::new(),
                child_counter: 0,
                deadline,
            }),
            wal,
            failpoints,
            clock,
            dispatch,
            hooks: SnapshotCell::from(hooks),
            journal: OnceLock::new(),
        })
    }

    /// Attach a participant [`FailureDetector`]. Phase one feeds it (each
    /// prepare answer is a success, each transport-style error a failure) and
    /// consults it: quarantined read-only participants are dropped from the
    /// protocol, and a quarantined *voter* forces early presumed abort
    /// instead of burning the full vote timeout on a suspect peer.
    pub fn set_detector(&self, detector: FailureDetector) {
        self.hooks.update(|hooks| hooks.detector = Some(detector));
    }

    /// The attached failure detector, if any.
    pub fn detector(&self) -> Option<FailureDetector> {
        self.hooks.load().detector.clone()
    }

    /// Attach a telemetry recorder: every commit becomes a `commit:` span
    /// with `prepare` / `phase2` child spans, per-vote latencies land in
    /// the `twopc_vote_latency_seconds` histogram, and top-level outcomes
    /// are counted as `twopc_commits_total` / `twopc_aborts_total`.
    /// Subtransactions inherit the recorder, like the detector.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.hooks.update(|hooks| hooks.telemetry = Some(telemetry));
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.hooks.load().telemetry.clone()
    }

    /// Attach a [`DeliverySequencer`]: every round of participant deliveries
    /// (prepare, phase-two outcomes, rollback) that runs inline — always
    /// under serial dispatch — asks it which pending peer goes next, so a
    /// model-checking explorer owns delivery order instead of inheriting
    /// registration order. Explorers pin [`DispatchConfig::serial`].
    /// Without one (or for a scattered round, where there is no meaningful
    /// order) the legacy registration-order loops run unchanged.
    /// Subtransactions inherit the sequencer, like the detector.
    pub fn set_sequencer(&self, sequencer: Arc<dyn DeliverySequencer>) {
        self.hooks.update(|hooks| hooks.sequencer = Some(sequencer));
    }

    /// Attach a [`ProtocolJournal`]: the coordinator records every
    /// prepare/vote, the forced decision, phase-two deliveries, forgets and
    /// the terminal state into it. Subtransactions inherit the journal.
    /// Write-once: later calls are ignored.
    pub fn set_journal(&self, journal: ProtocolJournal) {
        let _ = self.journal.set(journal);
    }

    /// The attached protocol journal, if any.
    pub fn journal(&self) -> Option<ProtocolJournal> {
        self.journal.get().cloned()
    }

    /// The context every participant delivery of this coordinator runs
    /// under: participants on its log ride its decision force.
    fn delivery(&self) -> Delivery {
        Delivery::new(self.wal.as_ref(), &self.id)
    }

    /// Apply `op` to every resource concurrently on `pool` and return the
    /// results in registration order, feeding `site`'s estimates. A
    /// participant panic is re-raised here at the panicking resource's
    /// registration position.
    fn fan_out<T: Send + 'static>(
        &self,
        pool: &WorkerPool,
        site: &FanOutSite,
        resources: &[Arc<dyn Resource>],
        op: impl Fn(&dyn Resource, &TxId) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let op = Arc::new(op);
        let delivery = self.delivery();
        let tasks: Vec<Box<dyn FnOnce() -> T + Send>> = resources
            .iter()
            .map(|resource| {
                let resource = Arc::clone(resource);
                let id = self.id.clone();
                let op = Arc::clone(&op);
                let delivery = delivery.clone();
                Box::new(move || delivery.run(|| op(resource.as_ref(), &id)))
                    as Box<dyn FnOnce() -> T + Send>
            })
            .collect();
        // 2PC joins every result (votes before the decision, acknowledgements
        // before the completion record), so no cancellation is ever needed.
        let cancel = CancelToken::new();
        let mut collated = Vec::with_capacity(resources.len());
        for outcome in pool.scatter(site, tasks, &cancel) {
            match outcome {
                TaskOutcome::Done(value) => collated.push(value),
                TaskOutcome::Panicked(payload) => std::panic::resume_unwind(payload),
                TaskOutcome::Cancelled => unreachable!("2PC fan-out never cancels"),
            }
        }
        collated
    }

    /// Deliver one serial round in [`DeliverySequencer`] order (registration
    /// order without a sequencer), returning results in **registration**
    /// order so collation is dispatch-invisible. Each delivery is reported
    /// back to the sequencer with `clean(&result)`; each call is timed
    /// into `site`.
    fn sequenced_round<T>(
        &self,
        sequencer: Option<&dyn DeliverySequencer>,
        stage: &str,
        site: &FanOutSite,
        resources: &[Arc<dyn Resource>],
        mut op: impl FnMut(&dyn Resource) -> T,
        clean: impl Fn(&T) -> bool,
    ) -> Vec<T> {
        let delivery = self.delivery();
        let mut batch = site.inline();
        let mut slots: Vec<Option<T>> = resources.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..resources.len()).collect();
        while !pending.is_empty() {
            let slot = match sequencer {
                Some(seq) if pending.len() > 1 => {
                    let labels: Vec<&str> =
                        pending.iter().map(|i| resources[*i].resource_name()).collect();
                    clamp_choice(seq.next_delivery(stage, &labels), labels.len())
                }
                _ => 0,
            };
            let index = pending.remove(slot);
            let resource = &resources[index];
            let result = batch.time(|| delivery.run(|| op(resource.as_ref())));
            if let Some(seq) = sequencer {
                seq.report(stage, resource.resource_name(), clean(&result));
            }
            slots[index] = Some(result);
        }
        slots.into_iter().map(|slot| slot.expect("every delivery ran")).collect()
    }

    /// Deliver a rollback round (sequenced when inline, scattered when
    /// pooled) and journal each delivery's fate.
    fn rollback_round(&self, hooks: &Hooks, resources: &[Arc<dyn Resource>]) {
        let results: Vec<bool> = match self.dispatch.pool_for(&ROLLBACK_SITE, resources.len()) {
            None => self.sequenced_round(
                hooks.sequencer.as_deref(),
                "rollback",
                &ROLLBACK_SITE,
                resources,
                |resource| resource.rollback(&self.id).is_ok(),
                |ok| *ok,
            ),
            Some(pool) => self.fan_out(pool, &ROLLBACK_SITE, resources, |resource, id| {
                resource.rollback(id).is_ok()
            }),
        };
        if let Some(journal) = self.journal.get() {
            for (resource, ok) in resources.iter().zip(results) {
                journal.record(|| TwoPcEvent::OutcomeDelivered {
                    participant: resource.resource_name().to_owned(),
                    commit: false,
                    ok,
                });
            }
        }
    }

    /// This transaction's identity.
    pub fn id(&self) -> &TxId {
        &self.id
    }

    /// Current status (timeout is assessed lazily here: an expired active
    /// transaction reports `MarkedRollback`).
    pub fn status(&self) -> TxStatus {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        inner.status
    }

    /// Whether this coordinator manages a top-level transaction.
    pub fn is_top_level(&self) -> bool {
        self.id.is_top_level()
    }

    fn assess_timeout(&self, inner: &mut CoordinatorInner) {
        if inner.status == TxStatus::Active {
            if let (Some(clock), Some(deadline)) = (&self.clock, inner.deadline) {
                if clock.now() > deadline {
                    inner.status = TxStatus::MarkedRollback;
                }
            }
        }
    }

    /// Register a two-phase participant.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless the transaction is active, or
    /// [`TxError::TimedOut`] when the deadline has passed.
    pub fn register_resource(&self, resource: Arc<dyn Resource>) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        match inner.status {
            TxStatus::Active => {
                inner.resources.push(resource);
                Ok(())
            }
            TxStatus::MarkedRollback if inner.deadline.is_some() => {
                Err(TxError::TimedOut(self.id.clone()))
            }
            status => Err(TxError::Inactive { tx: self.id.clone(), status }),
        }
    }

    /// Register a before/after completion callback.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless the transaction is active.
    pub fn register_synchronization(&self, sync: Arc<dyn Synchronization>) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        inner.synchronizations.push(sync);
        Ok(())
    }

    /// Register a participant interested in this *subtransaction's*
    /// provisional completion.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::NestingViolation`] on a top-level transaction and
    /// [`TxError::Inactive`] unless active.
    pub fn register_subtransaction_aware(
        &self,
        participant: Arc<dyn SubtransactionAwareResource>,
    ) -> Result<(), TxError> {
        if self.is_top_level() {
            return Err(TxError::NestingViolation(
                "subtransaction-aware registration on a top-level transaction".into(),
            ));
        }
        let mut inner = self.inner.lock();
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        inner.subtx_aware.push(participant);
        Ok(())
    }

    /// Doom the transaction: it can only roll back from here on.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] if already completing or completed.
    pub fn rollback_only(&self) -> Result<(), TxError> {
        let mut inner = self.inner.lock();
        match inner.status {
            TxStatus::Active => {
                inner.status = TxStatus::MarkedRollback;
                Ok(())
            }
            TxStatus::MarkedRollback => Ok(()),
            status => Err(TxError::Inactive { tx: self.id.clone(), status }),
        }
    }

    /// Begin a subtransaction nested inside this one.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] unless this transaction is active.
    pub fn create_subtransaction(self: &Arc<Self>) -> Result<Arc<Coordinator>, TxError> {
        let mut inner = self.inner.lock();
        self.assess_timeout(&mut inner);
        if inner.status != TxStatus::Active {
            return Err(TxError::Inactive { tx: self.id.clone(), status: inner.status });
        }
        let index = inner.child_counter;
        inner.child_counter += 1;
        let child = Arc::new(Coordinator {
            id: self.id.child(index),
            parent: Arc::downgrade(self),
            inner: Mutex::new(CoordinatorInner {
                status: TxStatus::Active,
                resources: Vec::new(),
                synchronizations: Vec::new(),
                subtx_aware: Vec::new(),
                children: Vec::new(),
                child_counter: 0,
                deadline: inner.deadline,
            }),
            wal: self.wal.clone(),
            failpoints: self.failpoints.clone(),
            clock: self.clock.clone(),
            dispatch: self.dispatch,
            hooks: SnapshotCell::from(self.hooks.load()),
            journal: self.journal.clone(),
        });
        inner.children.push(Arc::clone(&child));
        Ok(child)
    }

    /// Commit the transaction.
    ///
    /// For a **top-level** transaction this runs the full protocol:
    /// synchronizations' `before_completion`, phase one (prepare, with the
    /// read-only optimisation and one-phase shortcut), a durable decision
    /// record, phase two, a completion record and `after_completion`.
    ///
    /// For a **subtransaction** the commit is provisional: its participants
    /// are inherited by the parent, and subtransaction-aware participants
    /// are told.
    ///
    /// Any still-active child subtransactions are rolled back first
    /// (their provisional work never reached this coordinator).
    ///
    /// # Errors
    ///
    /// [`TxError::RolledBack`] when the transaction had to abort (rollback
    /// vote, marked rollback-only, or timeout); [`TxError::Heuristic`] when
    /// `report_heuristics` and a phase-two delivery failed;
    /// [`TxError::Log`] when the decision could not be made durable (the
    /// transaction rolls back) or a crash was injected.
    pub fn commit(&self, report_heuristics: bool) -> Result<TxOutcome, TxError> {
        // The whole commit is one span, entered on the driving thread so
        // participant invocations (and, on a remote resource proxy, their
        // retry-attempt spans) nest under it. It closes on every exit
        // path, including injected crashes — oracle #7 rejects open spans.
        let hooks = self.hooks.load();
        let scope = hooks.telemetry.as_ref().filter(|t| t.is_enabled()).map(|t| {
            let span = t.start_span(&format!("commit:{}", self.id));
            t.set_attr(&span, "top_level", if self.is_top_level() { "true" } else { "false" });
            t.enter(span);
            (t, span)
        });
        let result = self.commit_inner(&hooks, report_heuristics, scope.as_ref());
        if let Some((t, span)) = scope {
            match &result {
                Ok(TxOutcome::Committed) => t.set_attr(&span, "outcome", "committed"),
                Ok(TxOutcome::RolledBack) => t.set_attr(&span, "outcome", "rolled_back"),
                Err(e) => t.set_attr(&span, "error", &e.to_string()),
            }
            if self.is_top_level() {
                match &result {
                    Ok(TxOutcome::Committed) => t.metrics().incr("twopc_commits_total"),
                    Ok(TxOutcome::RolledBack) | Err(TxError::RolledBack(_)) => {
                        t.metrics().incr("twopc_aborts_total");
                    }
                    Err(_) => {}
                }
            }
            t.exit();
            t.end(&span);
        }
        result
    }

    fn commit_inner(
        &self,
        hooks: &Hooks,
        report_heuristics: bool,
        tel: Option<&(&Telemetry, SpanContext)>,
    ) -> Result<TxOutcome, TxError> {
        // Settle children and collect a snapshot under the lock, then drive
        // the protocol outside it (participants may call back in).
        let (mut resources, synchronizations, doomed) = {
            let mut inner = self.inner.lock();
            self.assess_timeout(&mut inner);
            match inner.status {
                TxStatus::Active => {}
                TxStatus::MarkedRollback => {
                    drop(inner);
                    self.rollback()?;
                    return Err(TxError::RolledBack(self.id.clone()));
                }
                status => return Err(TxError::Inactive { tx: self.id.clone(), status }),
            }
            let children: Vec<_> = inner.children.drain(..).collect();
            drop(inner);
            // Children that never completed lose their provisional work.
            for child in children {
                if !child.status().is_terminal() {
                    let _ = child.rollback();
                }
            }
            let inner = self.inner.lock();
            let doomed = inner.status == TxStatus::MarkedRollback;
            (inner.resources.clone(), inner.synchronizations.clone(), doomed)
        };
        if doomed {
            self.rollback()?;
            return Err(TxError::RolledBack(self.id.clone()));
        }

        if !self.is_top_level() {
            return self.commit_provisionally();
        }

        for sync in &synchronizations {
            sync.before_completion(&self.id);
        }
        // before_completion may have doomed us.
        if self.inner.lock().status == TxStatus::MarkedRollback {
            self.rollback()?;
            return Err(TxError::RolledBack(self.id.clone()));
        }

        self.failpoints.hit(failpoints::BEFORE_PREPARE).map_err(TxError::from)?;

        // Consult the failure detector before soliciting any vote. Each
        // participant's skip decision is computed exactly once (`should_skip`
        // claims half-open probe slots as a side effect).
        let detector = hooks.detector.as_ref();
        let sequencer = hooks.sequencer.as_deref();
        if let Some(detector) = detector {
            let mut quarantined_voter = false;
            resources.retain(|resource| {
                if !detector.should_skip(resource.resource_name()) {
                    return true;
                }
                // A quarantined read-only participant could only vote
                // ReadOnly: dropping it cannot change the outcome, and saves
                // its timeout budget. A quarantined voter dooms the
                // transaction: presumed abort now, without waiting out a vote
                // that the detector predicts will never arrive. It is *not*
                // contacted — presumed abort lets it learn the outcome when
                // it recovers.
                quarantined_voter |= !resource.read_only_hint();
                false
            });
            if quarantined_voter {
                self.set_status(TxStatus::RollingBack);
                self.rollback_round(hooks, &resources);
                self.finish(TxStatus::RolledBack, &synchronizations);
                return Err(TxError::RolledBack(self.id.clone()));
            }
        }

        // One-phase shortcut.
        if resources.len() == 1 {
            let result = resources[0].commit_one_phase(&self.id);
            let status = match &result {
                Ok(()) => TxStatus::Committed,
                Err(_) => TxStatus::RolledBack,
            };
            self.finish(status, &synchronizations);
            return match result {
                Ok(()) => Ok(TxOutcome::Committed),
                Err(_) => Err(TxError::RolledBack(self.id.clone())),
            };
        }

        // Phase one. The `prepare` span closes before the AFTER_PREPARE
        // failpoint so an injected crash there cannot leak it open.
        self.set_status(TxStatus::Preparing);
        if let Some(wal) = &self.wal {
            let names: Vec<&str> = resources.iter().map(|r| r.resource_name()).collect();
            txlog::log_prepared(wal.as_ref(), &self.id, &names)?;
        }
        let prepare_span = tel.map(|(t, parent)| {
            let span = t.start_child(parent, "prepare");
            t.set_attr(&span, "participants", &resources.len().to_string());
            span
        });
        let mut prepared: Vec<Arc<dyn Resource>> = Vec::new();
        let mut voted_rollback = false;
        match self.dispatch.pool_for(&PREPARE_SITE, resources.len()) {
            None => {
                // Legacy serial phase one, also taken when the adaptive
                // default judges the round cheaper inline: stop asking for
                // votes at the first veto — resources after the break never
                // see `prepare`. A sequencer, when attached, picks which
                // pending participant is asked next; without one the loop
                // walks registration order exactly as before.
                let journal = self.journal.get();
                let delivery = self.delivery();
                let mut batch = PREPARE_SITE.inline();
                let mut pending: Vec<usize> = (0..resources.len()).collect();
                while !pending.is_empty() {
                    let slot = match sequencer {
                        Some(seq) if pending.len() > 1 => {
                            let labels: Vec<&str> =
                                pending.iter().map(|i| resources[*i].resource_name()).collect();
                            clamp_choice(seq.next_delivery("prepare", &labels), labels.len())
                        }
                        _ => 0,
                    };
                    let resource = &resources[pending.remove(slot)];
                    let vote_started = tel.and_then(|_| self.clock.as_ref().map(SimClock::now));
                    if let Some(journal) = journal {
                        journal.record(|| TwoPcEvent::PrepareSent {
                            participant: resource.resource_name().to_owned(),
                        });
                    }
                    // Per-vote child span under `prepare`: the critical-path
                    // walk reads the slowest of these as the slowest-vote
                    // annotation.
                    let vote_span = match (tel, prepare_span.as_ref()) {
                        (Some((t, _)), Some(parent)) => Some(
                            t.start_child(parent, &format!("vote:{}", resource.resource_name())),
                        ),
                        _ => None,
                    };
                    let answer = batch.time(|| delivery.run(|| resource.prepare(&self.id)));
                    if let (Some((t, _)), Some(span)) = (tel, vote_span.as_ref()) {
                        t.end(span);
                    }
                    if let Some((t, _)) = tel {
                        t.metrics().observe(
                            "twopc_vote_latency_seconds",
                            self.elapsed_since(vote_started),
                        );
                    }
                    if let Some(detector) = detector {
                        match &answer {
                            Ok(_) => detector.record_success(resource.resource_name()),
                            Err(_) => detector.record_failure(resource.resource_name()),
                        }
                    }
                    if let Some(journal) = journal {
                        journal.record(|| TwoPcEvent::VoteRecorded {
                            participant: resource.resource_name().to_owned(),
                            vote: VoteKind::from_answer(&answer),
                        });
                    }
                    let clean = matches!(answer, Ok(Vote::Commit) | Ok(Vote::ReadOnly));
                    if let Some(seq) = sequencer {
                        seq.report("prepare", resource.resource_name(), clean);
                    }
                    match answer {
                        Ok(Vote::Commit) => prepared.push(Arc::clone(resource)),
                        Ok(Vote::ReadOnly) => {}
                        Ok(Vote::Rollback) | Err(_) => {
                            voted_rollback = true;
                            break;
                        }
                    }
                }
            }
            Some(pool) => {
                let phase_started = tel.and_then(|_| self.clock.as_ref().map(SimClock::now));
                // Parallel phase one: every vote is solicited concurrently and
                // all are joined before the decision. Speculatively preparing a
                // resource whose peer vetoes is safe — presumed abort means it
                // is simply rolled back, exactly as a prepared resource is on
                // the serial path.
                let votes = self
                    .fan_out(pool, &PREPARE_SITE, &resources, |resource, id| resource.prepare(id));
                // Detector feeding (and journal recording) happens here at
                // collation (registration order), not inside the scattered
                // tasks, so suspicion counters and the journal evolve
                // deterministically under parallel dispatch.
                let journal = self.journal.get();
                for (resource, vote) in resources.iter().zip(votes) {
                    if let Some(journal) = journal {
                        journal.record(|| TwoPcEvent::PrepareSent {
                            participant: resource.resource_name().to_owned(),
                        });
                        journal.record(|| TwoPcEvent::VoteRecorded {
                            participant: resource.resource_name().to_owned(),
                            vote: VoteKind::from_answer(&vote),
                        });
                    }
                    if let Some((t, _)) = tel {
                        // Votes are joined, so per-vote latency is the phase
                        // latency — the time this coordinator actually waited.
                        t.metrics().observe(
                            "twopc_vote_latency_seconds",
                            self.elapsed_since(phase_started),
                        );
                    }
                    if let Some(detector) = detector {
                        match &vote {
                            Ok(_) => detector.record_success(resource.resource_name()),
                            Err(_) => detector.record_failure(resource.resource_name()),
                        }
                    }
                    match vote {
                        Ok(Vote::Commit) => prepared.push(Arc::clone(resource)),
                        Ok(Vote::ReadOnly) => {}
                        Ok(Vote::Rollback) | Err(_) => voted_rollback = true,
                    }
                }
            }
        }
        if let Some(((t, _), span)) = tel.zip(prepare_span.as_ref()) {
            t.set_attr(span, "prepared", &prepared.len().to_string());
            t.set_attr(span, "voted_rollback", if voted_rollback { "true" } else { "false" });
            t.end(span);
        }
        self.failpoints.hit(failpoints::AFTER_PREPARE).map_err(TxError::from)?;

        if voted_rollback {
            // Presumed abort: no decision record needed; undo the prepared.
            self.set_status(TxStatus::RollingBack);
            self.rollback_round(hooks, &resources);
            self.finish(TxStatus::RolledBack, &synchronizations);
            return Err(TxError::RolledBack(self.id.clone()));
        }

        if prepared.is_empty() {
            // Everybody read-only: committed with no phase two, no log.
            self.set_status(TxStatus::Committed);
            if let Some(journal) = self.journal.get() {
                journal.record(|| TwoPcEvent::Completed { committed: true });
            }
            for sync in &synchronizations {
                sync.after_completion(&self.id, TxStatus::Committed);
            }
            return Ok(TxOutcome::Committed);
        }

        self.set_status(TxStatus::Prepared);
        self.failpoints.hit(failpoints::BEFORE_DECISION).map_err(TxError::from)?;
        if let Some(wal) = &self.wal {
            // Forcing discipline: this is the protocol's only awaited-durable
            // write. `log_decision_commit` forces via `append_durable`, so the
            // earlier BEGUN/PREPARED records (any interposed subcoordinator's,
            // and the prepared records of participants on this log) ride the
            // same flush barrier; the COMPLETED record below is free to lag —
            // presumed abort re-derives it on replay.
            txlog::log_decision_commit(wal.as_ref(), &self.id)?;
        }
        if let Some(journal) = self.journal.get() {
            journal.record(|| TwoPcEvent::DecisionForced { commit: true });
        }
        self.failpoints.hit(failpoints::AFTER_DECISION).map_err(TxError::from)?;

        // Phase two. The decision is durable, so the commit deliveries are
        // independent; heuristics are collated in registration order. The
        // span closes before the BEFORE_COMPLETION_RECORD failpoint.
        self.set_status(TxStatus::Committing);
        let phase2_span = tel.map(|(t, parent)| {
            let span = t.start_child(parent, "phase2");
            t.set_attr(&span, "participants", &prepared.len().to_string());
            span
        });
        let deliveries: Vec<Option<String>> =
            match self.dispatch.pool_for(&PHASE_TWO_SITE, prepared.len()) {
                None => self.sequenced_round(
                    sequencer,
                    "phase2",
                    &PHASE_TWO_SITE,
                    &prepared,
                    |resource| {
                        if let Err(e) = resource.commit(&self.id) {
                            Some(format!("{}: {e}", resource.resource_name()))
                        } else {
                            resource.forget(&self.id);
                            None
                        }
                    },
                    |heuristic| heuristic.is_none(),
                ),
                Some(pool) => self.fan_out(pool, &PHASE_TWO_SITE, &prepared, |resource, id| {
                    if let Err(e) = resource.commit(id) {
                        Some(format!("{}: {e}", resource.resource_name()))
                    } else {
                        resource.forget(id);
                        None
                    }
                }),
            };
        if let Some(journal) = self.journal.get() {
            for (resource, heuristic) in prepared.iter().zip(&deliveries) {
                let ok = heuristic.is_none();
                journal.record(|| TwoPcEvent::OutcomeDelivered {
                    participant: resource.resource_name().to_owned(),
                    commit: true,
                    ok,
                });
                if ok {
                    journal.record(|| TwoPcEvent::Forgotten {
                        participant: resource.resource_name().to_owned(),
                    });
                }
            }
        }
        let heuristics: Vec<String> = deliveries.into_iter().flatten().collect();
        if let Some(((t, _), span)) = tel.zip(phase2_span.as_ref()) {
            t.set_attr(span, "heuristics", &heuristics.len().to_string());
            t.end(span);
        }
        self.failpoints.hit(failpoints::BEFORE_COMPLETION_RECORD).map_err(TxError::from)?;
        self.finish(TxStatus::Committed, &synchronizations);

        if report_heuristics && !heuristics.is_empty() {
            return Err(TxError::Heuristic { tx: self.id.clone(), detail: heuristics.join("; ") });
        }
        Ok(TxOutcome::Committed)
    }

    /// Provisional commit of a subtransaction: participants move to the
    /// parent; subtransaction-aware participants are notified.
    fn commit_provisionally(&self) -> Result<TxOutcome, TxError> {
        let parent = self.parent.upgrade().ok_or_else(|| {
            TxError::NestingViolation(format!("parent of {} already gone", self.id))
        })?;
        let (resources, synchronizations, subtx_aware) = {
            let mut inner = self.inner.lock();
            inner.status = TxStatus::Committed;
            (
                std::mem::take(&mut inner.resources),
                std::mem::take(&mut inner.synchronizations),
                std::mem::take(&mut inner.subtx_aware),
            )
        };
        {
            let mut parent_inner = parent.inner.lock();
            parent_inner.resources.extend(resources);
            parent_inner.synchronizations.extend(synchronizations);
        }
        for participant in &subtx_aware {
            participant.commit_subtransaction(&self.id, parent.id());
        }
        Ok(TxOutcome::Committed)
    }

    /// Roll the transaction back, undoing its work and (recursively) that of
    /// any still-active subtransactions.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Inactive`] if already completed.
    pub fn rollback(&self) -> Result<TxOutcome, TxError> {
        let (resources, synchronizations, subtx_aware, children) = {
            let mut inner = self.inner.lock();
            match inner.status {
                TxStatus::Active | TxStatus::MarkedRollback | TxStatus::Prepared => {}
                status => return Err(TxError::Inactive { tx: self.id.clone(), status }),
            }
            inner.status = TxStatus::RollingBack;
            (
                std::mem::take(&mut inner.resources),
                std::mem::take(&mut inner.synchronizations),
                std::mem::take(&mut inner.subtx_aware),
                std::mem::take(&mut inner.children),
            )
        };
        for child in children {
            if !child.status().is_terminal() {
                let _ = child.rollback();
            }
        }
        self.rollback_round(&self.hooks.load(), &resources);
        for participant in &subtx_aware {
            participant.rollback_subtransaction(&self.id);
        }
        self.finish(TxStatus::RolledBack, &synchronizations);
        Ok(TxOutcome::RolledBack)
    }

    fn set_status(&self, status: TxStatus) {
        self.inner.lock().status = status;
    }

    /// Virtual time elapsed since `started`; zero without a clock, so the
    /// vote-latency histogram stays well-defined (and deterministic) on
    /// clockless coordinators.
    fn elapsed_since(&self, started: Option<Duration>) -> Duration {
        match (&self.clock, started) {
            (Some(clock), Some(started)) => clock.now().saturating_sub(started),
            _ => Duration::ZERO,
        }
    }

    fn finish(&self, status: TxStatus, synchronizations: &[Arc<dyn Synchronization>]) {
        self.set_status(status);
        if self.is_top_level() {
            if let Some(wal) = &self.wal {
                let _ = txlog::log_completed(wal.as_ref(), &self.id, status);
            }
            if let Some(journal) = self.journal.get() {
                journal.record(|| TwoPcEvent::Completed {
                    committed: status == TxStatus::Committed,
                });
            }
        }
        for sync in synchronizations {
            sync.after_completion(&self.id, status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::test_support::ScriptedResource;
    use recovery_log::MemWal;

    fn top(wal: Option<Arc<dyn Wal>>) -> Arc<Coordinator> {
        Coordinator::new_top_level(
            TxId::top_level(1),
            wal,
            FailpointSet::new(),
            None,
            None,
            DispatchConfig::with_workers(4),
            Default::default(),
        )
    }

    #[test]
    fn two_phase_commit_happy_path() {
        let c = top(None);
        let r1 = ScriptedResource::voting("r1", Vote::Commit);
        let r2 = ScriptedResource::voting("r2", Vote::Commit);
        c.register_resource(r1.clone()).unwrap();
        c.register_resource(r2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(c.status(), TxStatus::Committed);
        assert_eq!(r1.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(r2.calls(), vec!["prepare", "commit", "forget"]);
    }

    #[test]
    fn commit_records_phase_spans_and_metrics() {
        let tel = Telemetry::new();
        let c = top(None);
        c.set_telemetry(tel.clone());
        c.register_resource(ScriptedResource::voting("r1", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("r2", Vote::Commit)).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let root = &tree.roots()[0];
        assert_eq!(root.name, "commit:tx-1");
        assert_eq!(root.attr("outcome"), Some("committed"));
        let phases: Vec<&str> =
            tree.children(root.context.span_id).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(phases, vec!["prepare", "phase2"]);
        assert_eq!(tel.metrics().counter_value("twopc_commits_total"), 1);
        assert_eq!(tel.metrics().histogram_count("twopc_vote_latency_seconds"), 2);
    }

    #[test]
    fn injected_crash_still_closes_twopc_spans() {
        let tel = Telemetry::new();
        let fps = FailpointSet::new();
        fps.arm(failpoints::AFTER_PREPARE, 0);
        let c = Coordinator::new_top_level(
            TxId::top_level(1),
            None,
            fps,
            None,
            None,
            DispatchConfig::with_workers(4),
            Default::default(),
        );
        c.set_telemetry(tel.clone());
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        assert!(c.commit(true).is_err());
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "crash path must close spans");
        assert!(tree.roots()[0].attr("error").is_some());
    }

    #[test]
    fn subtransactions_inherit_the_telemetry_recorder() {
        let tel = Telemetry::new();
        let c = top(None);
        c.set_telemetry(tel.clone());
        let child = c.create_subtransaction().unwrap();
        assert!(child.telemetry().is_some());
        child.commit(true).unwrap();
        c.commit(true).unwrap();
        // The provisional commit is a span too, tagged non-top-level, and
        // only the top-level outcome is counted.
        let tree = tel.span_tree();
        let names: Vec<&str> = tree.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"commit:tx-1.0"));
        assert_eq!(tel.metrics().counter_value("twopc_commits_total"), 1);
    }

    #[test]
    fn rollback_vote_aborts_everyone() {
        let c = top(None);
        let good = ScriptedResource::voting("good", Vote::Commit);
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        c.register_resource(good.clone()).unwrap();
        c.register_resource(bad.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(c.status(), TxStatus::RolledBack);
        assert_eq!(good.calls(), vec!["prepare", "rollback"]);
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn serial_config_stops_soliciting_votes_at_first_veto() {
        let c = Coordinator::new_top_level(
            TxId::top_level(1),
            None,
            FailpointSet::new(),
            None,
            None,
            DispatchConfig::serial(),
            Default::default(),
        );
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        let never = ScriptedResource::voting("never", Vote::Commit);
        c.register_resource(bad.clone()).unwrap();
        c.register_resource(never.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
        assert_eq!(never.calls(), vec!["rollback"], "serial phase one breaks at the veto");
    }

    #[test]
    fn parallel_prepare_joins_all_votes_before_abort() {
        // Under parallel fan-out every resource is asked for its vote even
        // when an earlier registrant vetoes; presumed abort then undoes the
        // speculatively prepared peers. Pin a worker count — the adaptive
        // default runs cheap rounds like this one inline.
        let c = Coordinator::new_top_level(
            TxId::top_level(1),
            None,
            FailpointSet::new(),
            None,
            None,
            DispatchConfig::with_workers(4),
            Default::default(),
        );
        let bad = ScriptedResource::voting("bad", Vote::Rollback);
        let good = ScriptedResource::voting("good", Vote::Commit);
        c.register_resource(bad.clone()).unwrap();
        c.register_resource(good.clone()).unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(bad.calls(), vec!["prepare", "rollback"]);
        assert_eq!(good.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn read_only_resources_skip_phase_two() {
        let c = top(None);
        let ro1 = ScriptedResource::voting("ro1", Vote::ReadOnly);
        let ro2 = ScriptedResource::voting("ro2", Vote::ReadOnly);
        c.register_resource(ro1.clone()).unwrap();
        c.register_resource(ro2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(ro1.calls(), vec!["prepare"]);
        assert_eq!(ro2.calls(), vec!["prepare"]);
    }

    #[test]
    fn single_resource_uses_one_phase() {
        let c = top(None);
        let r = ScriptedResource::voting("solo", Vote::Commit);
        c.register_resource(r.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn empty_transaction_commits() {
        let c = top(None);
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
    }

    #[test]
    fn rollback_only_dooms_commit() {
        let c = top(None);
        let r = ScriptedResource::voting("r", Vote::Commit);
        c.register_resource(r.clone()).unwrap();
        c.rollback_only().unwrap();
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
        assert_eq!(r.calls(), vec!["rollback"]);
        // rollback_only is idempotent while pending but an error after the end.
        assert!(matches!(c.rollback_only(), Err(TxError::Inactive { .. })));
    }

    #[test]
    fn registration_after_completion_fails() {
        let c = top(None);
        c.commit(true).unwrap();
        let r = ScriptedResource::voting("late", Vote::Commit);
        assert!(matches!(c.register_resource(r), Err(TxError::Inactive { .. })));
        assert!(matches!(c.commit(true), Err(TxError::Inactive { .. })));
        assert!(matches!(c.rollback(), Err(TxError::Inactive { .. })));
    }

    #[test]
    fn heuristic_reported_when_phase_two_fails() {
        let c = top(None);
        let flaky = ScriptedResource::voting("flaky", Vote::Commit);
        *flaky.fail_commit_times.lock() = 1;
        let fine = ScriptedResource::voting("fine", Vote::Commit);
        c.register_resource(flaky.clone()).unwrap();
        c.register_resource(fine.clone()).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::Heuristic { .. }));
        // The transaction is still committed: the decision was made.
        assert_eq!(c.status(), TxStatus::Committed);
    }

    #[test]
    fn heuristics_swallowed_when_not_reporting() {
        let c = top(None);
        let flaky = ScriptedResource::voting("flaky", Vote::Commit);
        *flaky.fail_commit_times.lock() = 1;
        c.register_resource(flaky).unwrap();
        c.register_resource(ScriptedResource::voting("fine", Vote::Commit)).unwrap();
        assert_eq!(c.commit(false).unwrap(), TxOutcome::Committed);
    }

    #[test]
    fn subtransaction_commit_propagates_resources_to_parent() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        assert_eq!(child.id(), &TxId::top_level(1).child(0));
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        child.commit(true).unwrap();
        assert_eq!(child.status(), TxStatus::Committed);
        // No 2PC happened yet.
        assert!(r.calls().is_empty());
        // Parent commit drives it.
        parent.commit(true).unwrap();
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn subtransaction_rollback_confines_failure() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let child_r = ScriptedResource::voting("child-r", Vote::Commit);
        child.register_resource(child_r.clone()).unwrap();
        child.rollback().unwrap();
        assert_eq!(child_r.calls(), vec!["rollback"]);
        // Parent is unaffected and can still commit its own work.
        let parent_r = ScriptedResource::voting("parent-r", Vote::Commit);
        parent.register_resource(parent_r.clone()).unwrap();
        parent.commit(true).unwrap();
        assert_eq!(parent_r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn parent_rollback_undoes_inherited_resources() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        child.commit(true).unwrap();
        parent.rollback().unwrap();
        assert_eq!(r.calls(), vec!["rollback"]);
    }

    #[test]
    fn active_children_are_rolled_back_by_parent_commit() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("r", Vote::Commit);
        child.register_resource(r.clone()).unwrap();
        // Child never completes; parent commits anyway.
        parent.commit(true).unwrap();
        assert_eq!(child.status(), TxStatus::RolledBack);
        assert_eq!(r.calls(), vec!["rollback"]);
    }

    #[test]
    fn deep_nesting_propagates_transitively() {
        let parent = top(None);
        let child = parent.create_subtransaction().unwrap();
        let grandchild = child.create_subtransaction().unwrap();
        let r = ScriptedResource::voting("deep", Vote::Commit);
        grandchild.register_resource(r.clone()).unwrap();
        grandchild.commit(true).unwrap();
        child.commit(true).unwrap();
        parent.commit(true).unwrap();
        assert_eq!(r.calls(), vec!["prepare", "commit"]);
    }

    #[test]
    fn subtransaction_aware_notifications() {
        struct Watcher(Mutex<Vec<String>>);
        impl SubtransactionAwareResource for Watcher {
            fn commit_subtransaction(&self, tx: &TxId, parent: &TxId) {
                self.0.lock().push(format!("commit {tx} into {parent}"));
            }
            fn rollback_subtransaction(&self, tx: &TxId) {
                self.0.lock().push(format!("rollback {tx}"));
            }
        }
        let parent = top(None);
        let w = Arc::new(Watcher(Mutex::new(Vec::new())));
        assert!(parent.register_subtransaction_aware(w.clone()).is_err());

        let c1 = parent.create_subtransaction().unwrap();
        c1.register_subtransaction_aware(w.clone()).unwrap();
        c1.commit(true).unwrap();
        let c2 = parent.create_subtransaction().unwrap();
        c2.register_subtransaction_aware(w.clone()).unwrap();
        c2.rollback().unwrap();
        assert_eq!(
            *w.0.lock(),
            vec!["commit tx-1.0 into tx-1".to_string(), "rollback tx-1.1".to_string()]
        );
    }

    #[test]
    fn synchronizations_bracket_completion() {
        struct Sync(Mutex<Vec<String>>);
        impl Synchronization for Sync {
            fn before_completion(&self, _tx: &TxId) {
                self.0.lock().push("before".into());
            }
            fn after_completion(&self, _tx: &TxId, status: TxStatus) {
                self.0.lock().push(format!("after {status}"));
            }
        }
        let c = top(None);
        let s = Arc::new(Sync(Mutex::new(Vec::new())));
        c.register_synchronization(s.clone()).unwrap();
        c.register_resource(ScriptedResource::voting("r", Vote::Commit)).unwrap();
        c.commit(true).unwrap();
        assert_eq!(*s.0.lock(), vec!["before".to_string(), "after committed".to_string()]);
    }

    #[test]
    fn decision_and_completion_are_logged() {
        let wal = Arc::new(MemWal::new());
        let c = Coordinator::new_top_level(
            TxId::top_level(9),
            Some(wal.clone() as Arc<dyn Wal>),
            FailpointSet::new(),
            None,
            None,
            DispatchConfig::with_workers(4),
            Default::default(),
        );
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        c.commit(true).unwrap();
        let kinds: Vec<u32> =
            wal.scan(recovery_log::Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![txlog::KIND_TX_PREPARED, txlog::KIND_TX_DECISION, txlog::KIND_TX_COMPLETED]
        );
    }

    #[test]
    fn crash_before_decision_leaves_no_decision_record() {
        let wal = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        failpoints.arm("ots.before_decision", 0);
        let c = Coordinator::new_top_level(
            TxId::top_level(2),
            Some(wal.clone() as Arc<dyn Wal>),
            failpoints,
            None,
            None,
            DispatchConfig::with_workers(4),
            Default::default(),
        );
        c.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        c.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::Log(_)));
        let kinds: Vec<u32> =
            wal.scan(recovery_log::Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![txlog::KIND_TX_PREPARED]);
    }

    #[test]
    fn timeout_dooms_transaction() {
        let clock = SimClock::new();
        let c = Coordinator::new_top_level(
            TxId::top_level(3),
            None,
            FailpointSet::new(),
            Some(clock.clone()),
            Some(Duration::from_secs(1)),
            DispatchConfig::default(),
            Default::default(),
        );
        c.register_resource(ScriptedResource::voting("r", Vote::Commit)).unwrap();
        clock.advance(Duration::from_secs(2));
        assert_eq!(c.status(), TxStatus::MarkedRollback);
        assert!(matches!(
            c.register_resource(ScriptedResource::voting("late", Vote::Commit)),
            Err(TxError::TimedOut(_))
        ));
        assert!(matches!(c.commit(true), Err(TxError::RolledBack(_))));
    }

    fn quarantine(detector: &FailureDetector, who: &str) {
        while detector.status(who) != orb::detector::HealthStatus::Quarantined {
            detector.record_failure(who);
        }
    }

    #[test]
    fn quarantined_read_only_participant_is_dropped_from_the_protocol() {
        let clock = SimClock::new();
        let c = top(None);
        let detector = FailureDetector::new(clock);
        quarantine(&detector, "ro");
        c.set_detector(detector);
        let worker = ScriptedResource::voting("w1", Vote::Commit);
        let worker2 = ScriptedResource::voting("w2", Vote::Commit);
        let ro = ScriptedResource::voting("ro", Vote::ReadOnly);
        c.register_resource(worker.clone()).unwrap();
        c.register_resource(ro.clone()).unwrap();
        c.register_resource(worker2.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert!(ro.calls().is_empty(), "quarantined read-only peer never contacted");
        assert_eq!(worker.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(worker2.calls(), vec!["prepare", "commit", "forget"]);
    }

    #[test]
    fn quarantined_voter_forces_early_presumed_abort() {
        let clock = SimClock::new();
        let c = top(None);
        let detector = FailureDetector::new(clock);
        quarantine(&detector, "voter");
        c.set_detector(detector);
        let healthy = ScriptedResource::voting("healthy", Vote::Commit);
        let voter = ScriptedResource::voting("voter", Vote::Commit);
        c.register_resource(healthy.clone()).unwrap();
        c.register_resource(voter.clone()).unwrap();
        let err = c.commit(true).unwrap_err();
        assert!(matches!(err, TxError::RolledBack(_)));
        assert_eq!(c.status(), TxStatus::RolledBack);
        assert!(voter.calls().is_empty(), "no vote solicited from the quarantined voter");
        assert_eq!(healthy.calls(), vec!["rollback"], "healthy peer aborted without preparing");
    }

    #[test]
    fn half_open_probe_readmits_a_quarantined_voter() {
        let clock = SimClock::new();
        let c = top(None);
        let detector = FailureDetector::new(clock.clone());
        quarantine(&detector, "voter");
        // Past the probe interval the detector grants one probe slot, so the
        // next commit goes through the full protocol; its successful prepare
        // rehabilitates the participant.
        clock.advance(Duration::from_secs(10));
        c.set_detector(detector.clone());
        let voter = ScriptedResource::voting("voter", Vote::Commit);
        let peer = ScriptedResource::voting("peer", Vote::Commit);
        c.register_resource(voter.clone()).unwrap();
        c.register_resource(peer.clone()).unwrap();
        assert_eq!(c.commit(true).unwrap(), TxOutcome::Committed);
        assert_eq!(voter.calls(), vec!["prepare", "commit", "forget"]);
        assert_eq!(detector.status("voter"), orb::detector::HealthStatus::Healthy);
    }

    #[test]
    fn prepare_answers_feed_the_detector_identically_under_both_dispatch_configs() {
        struct FailingResource;
        impl Resource for FailingResource {
            fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
                Err(TxError::Heuristic { tx: tx.clone(), detail: "unreachable".into() })
            }
            fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
                Ok(())
            }
            fn resource_name(&self) -> &str {
                "flaky"
            }
        }

        let mut suspicions = Vec::new();
        for dispatch in [DispatchConfig::serial(), DispatchConfig::with_workers(4)] {
            let clock = SimClock::new();
            let detector = FailureDetector::new(clock);
            let c = Coordinator::new_top_level(
                TxId::top_level(9),
                None,
                FailpointSet::new(),
                None,
                None,
                dispatch,
                Default::default(),
            );
            c.set_detector(detector.clone());
            c.register_resource(Arc::new(FailingResource)).unwrap();
            c.register_resource(ScriptedResource::voting("ok", Vote::Commit)).unwrap();
            let _ = c.commit(true);
            suspicions.push((detector.suspicion("flaky"), detector.suspicion("ok")));
        }
        assert_eq!(suspicions[0].0, 1, "one failed prepare, one count");
        assert_eq!(suspicions[0], suspicions[1], "dispatch config is invisible to suspicion");
    }

    #[test]
    fn subtransactions_inherit_the_journal_and_it_is_write_once() {
        let c = top(None);
        let journal = ProtocolJournal::new();
        c.set_journal(journal.clone());
        let ignored = ProtocolJournal::new();
        c.set_journal(ignored.clone());
        let child = c.create_subtransaction().unwrap();
        // Two voters: a single resource would take the one-phase shortcut.
        child.register_resource(ScriptedResource::voting("a", Vote::Commit)).unwrap();
        child.register_resource(ScriptedResource::voting("b", Vote::Commit)).unwrap();
        child
            .journal()
            .expect("inherited")
            .record(|| TwoPcEvent::Forgotten { participant: "probe".into() });
        child.commit(true).unwrap();
        c.commit(true).unwrap();
        let events = journal.events();
        assert_eq!(events[0], TwoPcEvent::Forgotten { participant: "probe".into() });
        assert!(events.contains(&TwoPcEvent::PrepareSent { participant: "a".into() }));
        assert_eq!(events.last(), Some(&TwoPcEvent::Completed { committed: true }));
        assert!(ignored.is_empty(), "a second set_journal is ignored");
    }

    #[test]
    fn subtransactions_inherit_the_detector() {
        let c = top(None);
        c.set_detector(FailureDetector::new(SimClock::new()));
        let child = c.create_subtransaction().unwrap();
        assert!(child.detector().is_some());
    }
}
