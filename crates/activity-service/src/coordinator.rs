//! The activity coordinator: drives SignalSets against registered Actions
//! (fig. 5 of the paper).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use orb::detector::FailureDetector;
use orb::SnapshotCell;
use parking_lot::Mutex;
use recovery_log::FailpointSet;
use telemetry::{SpanContext, Telemetry, MSC_FROM, MSC_MSG, MSC_REPLY, MSC_TO};

use crate::action::Action;
use crate::activity::ActivityId;
use crate::completion::CompletionStatus;
use crate::dispatch::{self, DispatchConfig};
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::signal_set::{AfterResponse, NextSignal, SignalSet, SignalSetState};
use crate::trace::{TraceEvent, TraceLog};

/// Named failpoint sites this crate's protocol code passes through.
///
/// The authoritative workspace-wide audit table lives in
/// `recovery_log::crash`'s module docs; the harness registry test checks
/// that a probe run observes exactly these names.
pub mod failpoints {
    /// Before the coordinator asks the set for a signal (fig. 5 step 1).
    pub const BEFORE_GET_SIGNAL: &str = "activity.before_get_signal";
    /// Signal obtained, before fan-out to the registered actions.
    pub const BEFORE_TRANSMIT: &str = "activity.before_transmit";
    /// Protocol ended, before the collated outcome is read.
    pub const BEFORE_OUTCOME: &str = "activity.before_outcome";

    /// Every site above, in protocol order.
    pub const FAILPOINT_SITES: &[&str] = &[BEFORE_GET_SIGNAL, BEFORE_TRANSMIT, BEFORE_OUTCOME];
}

struct SetEntry {
    set: Box<dyn SignalSet>,
    state: SignalSetState,
}

struct CoordinatorInner {
    /// set name → actions registered for it. Actions may register for sets
    /// that have not been associated yet ("Actions register interest in
    /// SignalSets, rather than specific Signals"). Stored as a shared
    /// immutable slice so the per-signal snapshot on the hot path is one
    /// `Arc` bump instead of a `Vec` clone; registration (cold) rebuilds.
    registrations: HashMap<String, Arc<[Arc<dyn Action>]>>,
    /// set name → the set itself. `None` while a processing run has the set
    /// checked out.
    sets: HashMap<String, Option<SetEntry>>,
}

/// The coordinator's optional collaborators and its fan-out policy: read
/// once per protocol run, replaced by every `set_*` call.
#[derive(Clone, Default)]
struct Hooks {
    dispatch: DispatchConfig,
    failpoints: Option<FailpointSet>,
    detector: Option<FailureDetector>,
    telemetry: Option<Telemetry>,
    trace: Option<TraceLog>,
}

impl Hooks {
    fn hit_failpoint(&self, site: &str) -> Result<(), ActivityError> {
        match &self.failpoints {
            Some(fp) => fp.hit(site).map_err(ActivityError::from),
            None => Ok(()),
        }
    }

    /// Record one protocol step into the trace log; with no trace attached
    /// (the common case) the event is never built.
    fn record(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.record(event);
        }
    }
}

/// Coordinates one activity's protocol runs.
///
/// The coordinator owns the fig. 5 loop: ask the SignalSet for a signal,
/// transmit it to every registered Action, feed each Outcome back into the
/// set, fetch the next signal when the set asks for one, and finally collate
/// the overall outcome — all while enforcing the fig. 7 state machine.
pub struct ActivityCoordinator {
    activity: ActivityId,
    inner: Mutex<CoordinatorInner>,
    hooks: SnapshotCell<Hooks>,
}

impl std::fmt::Debug for ActivityCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ActivityCoordinator")
            .field("activity", &self.activity)
            .field("signal_sets", &inner.sets.len())
            .field("registrations", &inner.registrations.len())
            .finish()
    }
}

impl ActivityCoordinator {
    /// A coordinator for the given activity under the adaptive default
    /// [`DispatchConfig`]: each signal is delivered inline when the
    /// process-wide estimates say that is cheaper than handing the
    /// actions to the shared worker pool, and scattered otherwise.
    /// Construction does no system call and spawns no thread.
    pub fn new(activity: ActivityId) -> Self {
        Self::with_dispatch(activity, DispatchConfig::default())
    }

    /// A coordinator with an explicit fan-out policy.
    /// [`DispatchConfig::serial`] reproduces the exact legacy serial loop
    /// and is what deterministic-replay tests pin.
    pub fn with_dispatch(activity: ActivityId, dispatch: DispatchConfig) -> Self {
        ActivityCoordinator {
            activity,
            inner: Mutex::new(CoordinatorInner {
                registrations: HashMap::new(),
                sets: HashMap::new(),
            }),
            hooks: SnapshotCell::new(Hooks { dispatch, ..Hooks::default() }),
        }
    }

    /// Attach a participant [`FailureDetector`]. The fig. 5 loop feeds it
    /// (each collated outcome is a success, each `"error"` outcome a
    /// failure) and consults it: actions whose participant is quarantined
    /// are skipped for the current signal (they re-enter via half-open
    /// probes), so a crashed Action cannot stall every subsequent signal.
    /// Workflow and saga layers use the same detector to reroute work or
    /// compensate early.
    pub fn set_detector(&self, detector: FailureDetector) {
        self.hooks.update(|hooks| hooks.detector = Some(detector));
    }

    /// Attach a (shared) failpoint set; the protocol loop hits the sites in
    /// [`failpoints`] so crash-matrix and simulation tests can kill the
    /// coordinator at any fig. 5 step.
    pub fn set_failpoints(&self, failpoints: FailpointSet) {
        self.hooks.update(|hooks| hooks.failpoints = Some(failpoints));
    }

    /// Change the fan-out policy for subsequent protocol runs.
    pub fn set_dispatch_config(&self, dispatch: DispatchConfig) {
        self.hooks.update(|hooks| hooks.dispatch = dispatch);
    }

    /// The owning activity's id.
    pub fn activity(&self) -> ActivityId {
        self.activity
    }

    /// Attach a trace log; every step of subsequent protocol runs is
    /// recorded.
    pub fn set_trace(&self, trace: TraceLog) {
        self.hooks.update(|hooks| hooks.trace = Some(trace));
    }

    /// Attach a telemetry recorder: every subsequent protocol run becomes
    /// a `signal_set:` span with one `transmit:` child span per delivery.
    /// With the trace and the telemetry on one flight recorder, the ring
    /// interleaves span open/close with the trace lines in emission order.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.hooks.update(|hooks| hooks.telemetry = Some(telemetry));
    }

    /// Associate a signal set with this activity, keyed by its
    /// `signal_set_name`. "A SignalSet is dynamically associated with an
    /// activity, and each activity can have a different SignalSet
    /// controlling it."
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::SignalSetActive`] when a set with that name
    /// is already associated (ended sets may be replaced).
    pub fn add_signal_set(&self, set: Box<dyn SignalSet>) -> Result<(), ActivityError> {
        let name = set.signal_set_name().to_owned();
        let mut inner = self.inner.lock();
        match inner.sets.get(&name) {
            Some(Some(entry)) if entry.state != SignalSetState::End => {
                return Err(ActivityError::SignalSetActive(name));
            }
            Some(None) => return Err(ActivityError::SignalSetActive(name)),
            _ => {}
        }
        inner
            .sets
            .insert(name, Some(SetEntry { set, state: SignalSetState::Waiting }));
        Ok(())
    }

    /// Register an action's interest in the named signal set. An Action
    /// "may register interest in more than one SignalSet", and registration
    /// may precede the set's association.
    pub fn register_action(&self, set_name: impl Into<String>, action: Arc<dyn Action>) {
        let mut inner = self.inner.lock();
        let slot = inner.registrations.entry(set_name.into()).or_insert_with(|| Arc::from([]));
        // Copy-on-write: registration is cold, per-signal snapshots are hot.
        let mut actions = slot.to_vec();
        actions.push(action);
        *slot = actions.into();
    }

    /// Remove every registration of the action named `action_name` from the
    /// named set. Returns how many registrations were removed.
    pub fn unregister_action(&self, set_name: &str, action_name: &str) -> usize {
        let mut inner = self.inner.lock();
        match inner.registrations.get_mut(set_name) {
            Some(slot) => {
                let before = slot.len();
                let kept: Vec<Arc<dyn Action>> =
                    slot.iter().filter(|a| a.name() != action_name).cloned().collect();
                let removed = before - kept.len();
                *slot = kept.into();
                removed
            }
            None => 0,
        }
    }

    /// Number of actions currently registered for the named set.
    pub fn action_count(&self, set_name: &str) -> usize {
        self.inner.lock().registrations.get(set_name).map_or(0, |a| a.len())
    }

    /// The fig. 7 state of the named set.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::UnknownSignalSet`] when not associated.
    pub fn signal_set_state(&self, set_name: &str) -> Result<SignalSetState, ActivityError> {
        let inner = self.inner.lock();
        match inner.sets.get(set_name) {
            Some(Some(entry)) => Ok(entry.state),
            Some(None) => Ok(SignalSetState::GetSignal),
            None => Err(ActivityError::UnknownSignalSet(set_name.to_owned())),
        }
    }

    /// Names of associated signal sets.
    pub fn signal_set_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().sets.keys().cloned().collect();
        names.sort();
        names
    }

    /// Forward a completion status to the named set before processing it.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::UnknownSignalSet`] or
    /// [`ActivityError::SignalSetActive`] when the set is checked out.
    pub fn set_completion_status(
        &self,
        set_name: &str,
        status: CompletionStatus,
    ) -> Result<(), ActivityError> {
        let mut inner = self.inner.lock();
        match inner.sets.get_mut(set_name) {
            Some(Some(entry)) => {
                entry.set.set_completion_status(status);
                Ok(())
            }
            Some(None) => Err(ActivityError::SignalSetActive(set_name.to_owned())),
            None => Err(ActivityError::UnknownSignalSet(set_name.to_owned())),
        }
    }

    /// Run the named set's full protocol (fig. 5): repeatedly obtain a
    /// signal, transmit it to every action registered for the set (the
    /// registration list is re-read for each signal, so actions enlisted
    /// mid-protocol see later signals), feed responses back, and collate.
    ///
    /// Action failures are converted into `"error"` outcomes and fed to the
    /// set like any other response — it is the *set's* protocol knowledge
    /// that decides what failure means.
    ///
    /// # Errors
    ///
    /// [`ActivityError::UnknownSignalSet`] when no such set is associated;
    /// [`ActivityError::SignalSetInactive`] when it already ended;
    /// [`ActivityError::SignalSetActive`] when another run has it checked
    /// out.
    pub fn process_signal_set(&self, set_name: &str) -> Result<Outcome, ActivityError> {
        let mut entry = {
            let mut inner = self.inner.lock();
            match inner.sets.get_mut(set_name) {
                None => return Err(ActivityError::UnknownSignalSet(set_name.to_owned())),
                Some(slot @ Some(_)) => {
                    let entry = slot.take().expect("just matched Some");
                    if entry.state == SignalSetState::End {
                        *slot = Some(entry);
                        return Err(ActivityError::SignalSetInactive(set_name.to_owned()));
                    }
                    entry
                }
                Some(None) => return Err(ActivityError::SignalSetActive(set_name.to_owned())),
            }
        };

        // A protocol run is one `signal_set:` span; it is entered on the
        // driving thread so remote-Action invocations (and their retry
        // attempts) parent under it via the ORB interceptors, and it is
        // closed on *every* exit path — a crash-failpoint error must not
        // leak an open span (oracle #7 rejects never-closed spans).
        let hooks = self.hooks.load();
        let scope = hooks.telemetry.as_ref().filter(|t| t.is_enabled()).map(|t| {
            let span = t.start_span(&format!("signal_set:{set_name}"));
            t.set_attr(&span, "activity", &self.activity.to_string());
            t.enter(span);
            (t, span)
        });
        let result = self.drive(&hooks, set_name, &mut entry, scope.as_ref());
        if let Some((t, span)) = scope {
            match &result {
                Ok(outcome) => t.set_attr(&span, "outcome", outcome.name()),
                Err(e) => t.set_attr(&span, "error", &e.to_string()),
            }
            t.exit();
            t.end(&span);
        }
        entry.state = SignalSetState::End;
        // Return the (ended) set so late outcome queries and inactive-reuse
        // errors behave per the IDL.
        self.inner.lock().sets.insert(set_name.to_owned(), Some(entry));
        result
    }

    fn drive(
        &self,
        hooks: &Hooks,
        set_name: &str,
        entry: &mut SetEntry,
        tel: Option<&(&Telemetry, SpanContext)>,
    ) -> Result<Outcome, ActivityError> {
        let detector = &hooks.detector;
        let mut signal_seq = 0u64;
        // Reused across signals: delivery-id stamping formats into this
        // buffer instead of allocating a fresh growth-by-doubling String
        // per signal.
        let mut id_buf = String::new();
        loop {
            hooks.hit_failpoint(failpoints::BEFORE_GET_SIGNAL)?;
            hooks.record(|| TraceEvent::GetSignal { set: set_name.to_owned() });
            let next = entry.set.get_signal();
            entry.state = entry
                .state
                .on_get_signal(set_name, matches!(next, NextSignal::End))?;
            let (signal, last) = match next {
                NextSignal::Signal(s) => (s, false),
                NextSignal::LastSignal(s) => (s, true),
                NextSignal::End => break,
            };
            // Stamp a delivery id unique to (activity, set, signal number):
            // redelivery of the same logical signal — including transport
            // retries inside a remote Action proxy — shares the id, so
            // exactly-once consumers can deduplicate (§3.4).
            signal_seq += 1;
            let signal = if signal.delivery_id().is_some() {
                signal
            } else {
                id_buf.clear();
                let _ = write!(id_buf, "{}:{}:{}", self.activity, set_name, signal_seq);
                signal.with_delivery_id(id_buf.as_str())
            };
            // Fresh snapshot per signal (one `Arc` bump): actions
            // registered while the protocol runs receive subsequent
            // signals.
            let actions: Arc<[Arc<dyn Action>]> = self
                .inner
                .lock()
                .registrations
                .get(set_name)
                .cloned()
                .unwrap_or_else(|| Arc::from([]));
            // Quarantined participants sit this signal out (each skip
            // decision is computed once — `should_skip` claims half-open
            // probe slots). At-least-once semantics make the skip sound:
            // it is indistinguishable from the transport dropping every
            // copy of this delivery.
            let actions: Arc<[Arc<dyn Action>]> = match detector {
                Some(detector) => {
                    let kept: Vec<Arc<dyn Action>> = actions
                        .iter()
                        .filter(|action| !detector.should_skip(action.name()))
                        .cloned()
                        .collect();
                    if kept.len() == actions.len() { actions } else { Arc::from(kept) }
                }
                None => actions,
            };
            hooks.hit_failpoint(failpoints::BEFORE_TRANSMIT)?;
            // Fan out. The set's responses are fed in registration order
            // regardless of the fan-out width, so protocol decisions and
            // traces are identical to a serial run; `RequestNext` breaks
            // delivery early and cancels outstanding transmissions.
            let set = &mut entry.set;
            // Collation runs in registration order, so pairing each outcome
            // with its action by index is exact — the detector sees the
            // same success/failure sequence under serial and parallel
            // dispatch.
            let mut collated = 0usize;
            // Per-delivery span handoff between the `before` and `after`
            // hooks; both run sequentially at collation on the driving
            // thread, so one slot is enough even under parallel fan-out.
            let open_transmit: Cell<Option<SpanContext>> = Cell::new(None);
            let request_next = dispatch::dispatch_signal(
                hooks.dispatch,
                &actions,
                &signal,
                |action| {
                    let span = tel.map(|(t, parent)| {
                        let span =
                            t.start_child(parent, &format!("transmit:{}", signal.name()));
                        t.set_attr(&span, MSC_FROM, "coordinator");
                        t.set_attr(&span, MSC_TO, action.name());
                        t.set_attr(&span, MSC_MSG, signal.name());
                        if let Some(id) = signal.delivery_id() {
                            t.set_attr(&span, "delivery_id", id);
                        }
                        t.metrics()
                            .incr(&format!("signals_transmitted_total{{set=\"{set_name}\"}}"));
                        span
                    });
                    hooks.record(|| TraceEvent::Transmit {
                        signal: signal.name().to_owned(),
                        action: action.name().to_owned(),
                    });
                    open_transmit.set(span);
                },
                |outcome| {
                    if let Some(detector) = detector {
                        if let Some(action) = actions.get(collated) {
                            if outcome.name() == crate::outcome::OUTCOME_ERROR {
                                detector.record_failure(action.name());
                            } else {
                                detector.record_success(action.name());
                            }
                        }
                    }
                    collated += 1;
                    hooks.record(|| TraceEvent::SetResponse {
                        set: set_name.to_owned(),
                        outcome: outcome.name().to_owned(),
                    });
                    if let Some((t, _)) = tel {
                        if let Some(span) = open_transmit.take() {
                            t.set_attr(&span, MSC_REPLY, outcome.name());
                            t.end(&span);
                        }
                    }
                    set.set_response(&outcome) == AfterResponse::RequestNext
                },
            );
            if last && !request_next {
                entry.state = entry.state.on_last_signal_delivered();
                break;
            }
        }
        entry.state.check_outcome_readable(set_name)?;
        hooks.hit_failpoint(failpoints::BEFORE_OUTCOME)?;
        let outcome = entry.set.get_outcome();
        hooks.record(|| TraceEvent::GetOutcome {
            set: set_name.to_owned(),
            outcome: outcome.name().to_owned(),
        });
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use crate::signal::Signal;
    use crate::signal_set::BroadcastSignalSet;
    use orb::Value;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn coordinator() -> ActivityCoordinator {
        ActivityCoordinator::new(ActivityId::new(1))
    }

    fn counting_action(name: &str, counter: Arc<AtomicU32>) -> Arc<dyn Action> {
        Arc::new(FnAction::new(name, move |_s: &Signal| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }))
    }

    #[test]
    fn broadcast_reaches_every_action() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..5 {
            c.register_action("Notify", counting_action(&format!("a{i}"), Arc::clone(&hits)));
        }
        assert_eq!(c.action_count("Notify"), 5);
        let outcome = c.process_signal_set("Notify").unwrap();
        assert!(outcome.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(c.signal_set_state("Notify").unwrap(), SignalSetState::End);
    }

    #[test]
    fn processing_without_actions_still_completes() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Lonely", "x", Value::Null)))
            .unwrap();
        let outcome = c.process_signal_set("Lonely").unwrap();
        assert!(outcome.is_done());
        assert_eq!(outcome.data().as_u64(), Some(0));
    }

    #[test]
    fn ended_sets_cannot_be_reprocessed() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Once", "x", Value::Null)))
            .unwrap();
        c.process_signal_set("Once").unwrap();
        assert!(matches!(
            c.process_signal_set("Once"),
            Err(ActivityError::SignalSetInactive(_))
        ));
        // But an ended set may be *replaced* (a new instance of the protocol).
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Once", "x", Value::Null)))
            .unwrap();
        c.process_signal_set("Once").unwrap();
    }

    #[test]
    fn unknown_set_errors() {
        let c = coordinator();
        assert!(matches!(
            c.process_signal_set("ghost"),
            Err(ActivityError::UnknownSignalSet(_))
        ));
        assert!(matches!(
            c.signal_set_state("ghost"),
            Err(ActivityError::UnknownSignalSet(_))
        ));
    }

    #[test]
    fn duplicate_active_set_rejected() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "x", Value::Null)))
            .unwrap();
        assert!(matches!(
            c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "y", Value::Null))),
            Err(ActivityError::SignalSetActive(_))
        ));
    }

    #[test]
    fn action_errors_become_error_outcomes() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "x", Value::Null)))
            .unwrap();
        c.register_action(
            "S",
            Arc::new(FnAction::new("bad", |_s: &Signal| {
                Err(crate::error::ActionError::new("cannot"))
            })),
        );
        let outcome = c.process_signal_set("S").unwrap();
        assert!(outcome.is_negative());
    }

    #[test]
    fn unregister_by_name() {
        let c = coordinator();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("keep", Arc::clone(&hits)));
        c.register_action("S", counting_action("drop", Arc::clone(&hits)));
        c.register_action("S", counting_action("drop", Arc::clone(&hits)));
        assert_eq!(c.unregister_action("S", "drop"), 2);
        assert_eq!(c.unregister_action("S", "ghost"), 0);
        assert_eq!(c.unregister_action("ghost-set", "x"), 0);
        assert_eq!(c.action_count("S"), 1);
    }

    #[test]
    fn trace_records_fig5_loop() {
        let c = coordinator();
        let trace = TraceLog::new();
        c.set_trace(trace.clone());
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("a1", Arc::clone(&hits)));
        c.register_action("S", counting_action("a2", Arc::clone(&hits)));
        c.process_signal_set("S").unwrap();
        let events = trace.events();
        assert_eq!(
            events,
            vec![
                TraceEvent::GetSignal { set: "S".into() },
                TraceEvent::Transmit { signal: "go".into(), action: "a1".into() },
                TraceEvent::SetResponse { set: "S".into(), outcome: "done".into() },
                TraceEvent::Transmit { signal: "go".into(), action: "a2".into() },
                TraceEvent::SetResponse { set: "S".into(), outcome: "done".into() },
                TraceEvent::GetOutcome { set: "S".into(), outcome: "done".into() },
            ]
        );
    }

    #[test]
    fn trace_and_spans_share_one_recorder_in_emission_order() {
        let c = ActivityCoordinator::with_dispatch(ActivityId::new(1), DispatchConfig::serial());
        let recorder = telemetry::FlightRecorder::new("coordinator", 64);
        let trace: TraceLog = recorder.journal();
        let tel = Telemetry::new();
        tel.attach_recorder(recorder.clone());
        c.set_trace(trace.clone());
        c.set_telemetry(tel.clone());
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("a1", Arc::clone(&hits)));
        c.register_action("S", counting_action("a2", Arc::clone(&hits)));
        c.process_signal_set("S").unwrap();

        let ring: Vec<String> =
            recorder.events().iter().map(|e| format!("{} {}", e.kind, e.detail)).collect();
        assert_eq!(
            ring,
            vec![
                "span-open signal_set:S",
                "trace get_signal(S)",
                "span-open transmit:go",
                "trace \"go\" -> a1",
                "trace set_response(S, done)",
                "span-close transmit:go",
                "span-open transmit:go",
                "trace \"go\" -> a2",
                "trace set_response(S, done)",
                "span-close transmit:go",
                "trace get_outcome(S) = done",
                "span-close signal_set:S",
            ]
        );
        assert_eq!(trace.events().len(), 6);

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());

        // One signal_set root carrying one transmit child per delivery.
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "signal_set:S");
        assert_eq!(roots[0].attr("outcome"), Some("done"));
        let children = tree.children(roots[0].context.span_id);
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|s| s.name == "transmit:go"));
        assert!(children.iter().all(|s| s.attr(MSC_REPLY) == Some("done")));
        assert_eq!(tel.metrics().family_total("signals_transmitted_total"), 2);
    }

    #[test]
    fn failpoint_crash_still_closes_the_signal_set_span() {
        let c = coordinator();
        let tel = Telemetry::new();
        c.set_telemetry(tel.clone());
        let fp = FailpointSet::new();
        fp.arm(failpoints::BEFORE_OUTCOME, 0);
        c.set_failpoints(fp);
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        assert!(c.process_signal_set("S").is_err());
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "error path must close spans");
        assert!(tree.roots()[0].attr("error").is_some());
    }

    #[test]
    fn multi_signal_set_requests_new_snapshot_per_signal() {
        // A set that emits two signals; an action registered between them
        // must only see the second.
        struct TwoSignals {
            sent: u32,
        }
        impl SignalSet for TwoSignals {
            fn signal_set_name(&self) -> &str {
                "Two"
            }
            fn get_signal(&mut self) -> NextSignal {
                self.sent += 1;
                match self.sent {
                    1 => NextSignal::Signal(Signal::new("first", "Two")),
                    2 => NextSignal::LastSignal(Signal::new("second", "Two")),
                    _ => NextSignal::End,
                }
            }
            fn set_response(&mut self, _r: &Outcome) -> AfterResponse {
                AfterResponse::Continue
            }
            fn get_outcome(&mut self) -> Outcome {
                Outcome::done()
            }
            fn set_completion_status(&mut self, _s: CompletionStatus) {}
            fn completion_status(&self) -> CompletionStatus {
                CompletionStatus::Success
            }
        }

        let c = Arc::new(coordinator());
        c.add_signal_set(Box::new(TwoSignals { sent: 0 })).unwrap();
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));

        let seen_early = Arc::clone(&seen);
        let c2 = Arc::clone(&c);
        let seen_late_outer = Arc::clone(&seen);
        c.register_action(
            "Two",
            Arc::new(FnAction::new("early", move |s: &Signal| {
                seen_early.lock().push(format!("early:{}", s.name()));
                if s.name() == "first" {
                    // Register a late action mid-protocol.
                    let seen_late = Arc::clone(&seen_late_outer);
                    c2.register_action(
                        "Two",
                        Arc::new(FnAction::new("late", move |s: &Signal| {
                            seen_late.lock().push(format!("late:{}", s.name()));
                            Ok(Outcome::done())
                        })),
                    );
                }
                Ok(Outcome::done())
            })),
        );
        c.process_signal_set("Two").unwrap();
        assert_eq!(
            *seen.lock(),
            vec!["early:first", "early:second", "late:second"]
        );
    }

    #[test]
    fn request_next_switches_signal_mid_delivery() {
        // A set whose first signal aborts as soon as any action rejects:
        // remaining actions must not see the first signal again, and the
        // set switches to a "cancel" signal.
        struct AbortSwitch {
            phase: u32,
            saw_abort: bool,
        }
        impl SignalSet for AbortSwitch {
            fn signal_set_name(&self) -> &str {
                "Switch"
            }
            fn get_signal(&mut self) -> NextSignal {
                self.phase += 1;
                match (self.phase, self.saw_abort) {
                    (1, _) => NextSignal::Signal(Signal::new("try", "Switch")),
                    (2, true) => NextSignal::LastSignal(Signal::new("cancel", "Switch")),
                    _ => NextSignal::End,
                }
            }
            fn set_response(&mut self, r: &Outcome) -> AfterResponse {
                if r.is_negative() {
                    self.saw_abort = true;
                    AfterResponse::RequestNext
                } else {
                    AfterResponse::Continue
                }
            }
            fn get_outcome(&mut self) -> Outcome {
                if self.saw_abort {
                    Outcome::abort()
                } else {
                    Outcome::done()
                }
            }
            fn set_completion_status(&mut self, _s: CompletionStatus) {}
            fn completion_status(&self) -> CompletionStatus {
                CompletionStatus::Success
            }
        }

        // The bystander property below ("never sees the abandoned signal")
        // is strictly serial: under parallel dispatch the bystander may be
        // transmitted to speculatively (and the delivery discarded), which
        // the at-least-once contract permits. Pin the exact legacy path.
        let c = ActivityCoordinator::with_dispatch(ActivityId::new(1), DispatchConfig::serial());
        let trace = TraceLog::new();
        c.set_trace(trace.clone());
        c.add_signal_set(Box::new(AbortSwitch { phase: 0, saw_abort: false })).unwrap();
        c.register_action(
            "Switch",
            Arc::new(FnAction::new("refuser", |s: &Signal| {
                // Refuses the attempt, acknowledges the cancellation.
                if s.name() == "try" {
                    Ok(Outcome::abort())
                } else {
                    Ok(Outcome::done())
                }
            })),
        );
        c.register_action(
            "Switch",
            Arc::new(FnAction::new("bystander", |s: &Signal| {
                assert_ne!(s.name(), "try", "bystander must not see the abandoned signal");
                Ok(Outcome::done())
            })),
        );
        let outcome = c.process_signal_set("Switch").unwrap();
        assert!(outcome.is_negative());
        let transmits: Vec<String> = trace
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Transmit { signal, action } => Some(format!("{signal}->{action}")),
                _ => None,
            })
            .collect();
        assert_eq!(
            transmits,
            vec!["try->refuser", "cancel->refuser", "cancel->bystander"]
        );
    }

    #[test]
    fn quarantined_action_sits_the_signal_out() {
        use orb::detector::{DetectorConfig, FailureDetector};
        use orb::SimClock;

        let detector = FailureDetector::with_config(
            SimClock::new(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 2,
                probe_interval: std::time::Duration::from_millis(50),
            },
        );
        detector.record_failure("flaky");
        detector.record_failure("flaky");
        let c = coordinator();
        c.set_detector(detector.clone());
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)))
            .unwrap();
        let healthy_hits = Arc::new(AtomicU32::new(0));
        let flaky_hits = Arc::new(AtomicU32::new(0));
        c.register_action("Notify", counting_action("steady", Arc::clone(&healthy_hits)));
        c.register_action("Notify", counting_action("flaky", Arc::clone(&flaky_hits)));
        let outcome = c.process_signal_set("Notify").unwrap();
        assert!(outcome.is_done());
        assert_eq!(healthy_hits.load(Ordering::SeqCst), 1);
        assert_eq!(flaky_hits.load(Ordering::SeqCst), 0, "quarantined action skipped");
        // The broadcast set counted one response: only the healthy action
        // was solicited.
        assert_eq!(outcome.data().as_u64(), Some(1));
    }

    #[test]
    fn error_outcomes_feed_the_detector_and_success_rehabilitates() {
        use orb::detector::{FailureDetector, HealthStatus};
        use orb::SimClock;

        let detector = FailureDetector::new(SimClock::new());
        let c = coordinator();
        c.set_detector(detector.clone());
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Work", "go", Value::Null)))
            .unwrap();
        c.register_action(
            "Work",
            Arc::new(FnAction::new("grumpy", |_s: &Signal| {
                Err(crate::error::ActionError::new("down"))
            })),
        );
        let _ = c.process_signal_set("Work");
        assert_eq!(detector.suspicion("grumpy"), 1, "error outcome recorded as failure");

        // A later successful run clears the suspicion entirely.
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Work2", "go", Value::Null)))
            .unwrap();
        c.register_action(
            "Work2",
            Arc::new(FnAction::new("grumpy", |_s: &Signal| Ok(Outcome::done()))),
        );
        let _ = c.process_signal_set("Work2");
        assert_eq!(detector.suspicion("grumpy"), 0);
        assert_eq!(detector.status("grumpy"), HealthStatus::Healthy);
    }
}
