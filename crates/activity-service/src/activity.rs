//! Activities: units of (distributed) work that may or may not be
//! transactional (§3.1–3.2 of the paper).

use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use orb::SimClock;
use parking_lot::Mutex;

use crate::completion::CompletionStatus;
use crate::coordinator::ActivityCoordinator;
use crate::error::ActivityError;
use crate::journal::{ActivityEvent, ActivityJournal};
use crate::outcome::Outcome;
use crate::property::PropertyGroupManager;
use crate::recovery::ActivityLogger;

/// Service-scoped identity of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(u64);

impl ActivityId {
    /// Wrap a raw id.
    pub const fn new(raw: u64) -> Self {
        ActivityId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "act-{}", self.0)
    }
}

/// Lifecycle state of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityState {
    /// Running; work and registrations are accepted.
    Active,
    /// Paused; "activities can run over long periods of time and can thus
    /// be suspended and then resumed later".
    Suspended,
    /// Its completion protocol is being driven.
    Completing,
    /// Finished; the stored completion status is final.
    Completed,
}

impl fmt::Display for ActivityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActivityState::Active => "active",
            ActivityState::Suspended => "suspended",
            ActivityState::Completing => "completing",
            ActivityState::Completed => "completed",
        })
    }
}

struct ActivityInner {
    id: ActivityId,
    name: String,
    parent: Weak<ActivityInner>,
    children: Mutex<Vec<Activity>>,
    state: Mutex<ActivityState>,
    completion: Mutex<CompletionStatus>,
    coordinator: ActivityCoordinator,
    properties: PropertyGroupManager,
    completion_set: Mutex<Option<String>>,
    outcome: Mutex<Option<Outcome>>,
    clock: SimClock,
    deadline: Mutex<Option<Duration>>,
    logger: Option<Arc<ActivityLogger>>,
    id_source: Arc<std::sync::atomic::AtomicU64>,
    journal: Mutex<Option<ActivityJournal>>,
}

/// A unit of work, arranged in a tree (fig. 4), coordinated through its
/// [`ActivityCoordinator`], completed via a designated SignalSet.
///
/// `Activity` is a cheap handle; clones share the underlying state.
#[derive(Clone)]
pub struct Activity {
    inner: Arc<ActivityInner>,
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("state", &*self.inner.state.lock())
            .field("completion", &*self.inner.completion.lock())
            .finish()
    }
}

impl Activity {
    /// Create a root activity. Most callers go through
    /// [`crate::service::ActivityService::begin`] instead, which wires the
    /// thread association and logging.
    pub fn new_root(name: impl Into<String>, clock: SimClock) -> Activity {
        Self::new_root_with(name, clock, None, Arc::new(std::sync::atomic::AtomicU64::new(1)))
    }

    pub(crate) fn new_root_with(
        name: impl Into<String>,
        clock: SimClock,
        logger: Option<Arc<ActivityLogger>>,
        id_source: Arc<std::sync::atomic::AtomicU64>,
    ) -> Activity {
        let id =
            ActivityId::new(id_source.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let name = name.into();
        if let Some(logger) = &logger {
            let _ = logger.log_begun(id, &name, None);
        }
        Activity {
            inner: Arc::new(ActivityInner {
                id,
                name,
                parent: Weak::new(),
                children: Mutex::new(Vec::new()),
                state: Mutex::new(ActivityState::Active),
                completion: Mutex::new(CompletionStatus::default()),
                coordinator: ActivityCoordinator::new(id),
                properties: PropertyGroupManager::new(),
                completion_set: Mutex::new(None),
                outcome: Mutex::new(None),
                clock,
                deadline: Mutex::new(None),
                logger,
                id_source,
                journal: Mutex::new(None),
            }),
        }
    }

    /// Reconstruct an activity with a known id during recovery; links it
    /// under `parent` when given.
    pub(crate) fn rebuild(
        id: ActivityId,
        name: String,
        parent: Option<&Activity>,
        clock: SimClock,
        logger: Option<Arc<ActivityLogger>>,
        id_source: Arc<std::sync::atomic::AtomicU64>,
    ) -> Activity {
        let activity = Activity {
            inner: Arc::new(ActivityInner {
                id,
                name,
                parent: parent.map_or_else(Weak::new, |p| Arc::downgrade(&p.inner)),
                children: Mutex::new(Vec::new()),
                state: Mutex::new(ActivityState::Active),
                completion: Mutex::new(CompletionStatus::default()),
                coordinator: ActivityCoordinator::new(id),
                properties: parent.map_or_else(PropertyGroupManager::new, |p| {
                    p.inner.properties.for_child()
                }),
                completion_set: Mutex::new(None),
                outcome: Mutex::new(None),
                clock,
                deadline: Mutex::new(None),
                logger,
                id_source,
                journal: Mutex::new(None),
            }),
        };
        if let Some(parent) = parent {
            parent.inner.children.lock().push(activity.clone());
        }
        activity
    }

    /// Mark an activity completed during recovery without re-running its
    /// completion protocol (it already ran before the crash).
    pub(crate) fn force_completed(&self, status: CompletionStatus) {
        *self.inner.completion.lock() = status;
        *self.inner.state.lock() = ActivityState::Completed;
        let outcome =
            if status.is_failure() { Outcome::abort() } else { Outcome::done() };
        *self.inner.outcome.lock() = Some(outcome);
    }

    /// Begin a child activity nested inside this one. Property groups are
    /// inherited per their [`crate::property::NestedVisibility`].
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless this activity is active;
    /// [`ActivityError::TimedOut`] when this activity's deadline passed.
    pub fn begin_child(&self, name: impl Into<String>) -> Result<Activity, ActivityError> {
        self.check_active("begin a child")?;
        let id = ActivityId::new(
            self.inner.id_source.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let name = name.into();
        if let Some(logger) = &self.inner.logger {
            logger.log_begun(id, &name, Some(self.inner.id))?;
        }
        let child = Activity {
            inner: Arc::new(ActivityInner {
                id,
                name,
                parent: Arc::downgrade(&self.inner),
                children: Mutex::new(Vec::new()),
                state: Mutex::new(ActivityState::Active),
                completion: Mutex::new(CompletionStatus::default()),
                coordinator: ActivityCoordinator::new(id),
                properties: self.inner.properties.for_child(),
                completion_set: Mutex::new(None),
                outcome: Mutex::new(None),
                clock: self.inner.clock.clone(),
                deadline: Mutex::new(*self.inner.deadline.lock()),
                logger: self.inner.logger.clone(),
                id_source: Arc::clone(&self.inner.id_source),
                journal: Mutex::new(self.inner.journal.lock().clone()),
            }),
        };
        if let Some(journal) = &*child.inner.journal.lock() {
            journal.record(|| ActivityEvent::Begun {
                activity: child.inner.id,
                name: child.inner.name.clone(),
                parent: Some(self.inner.id),
            });
        }
        self.inner.children.lock().push(child.clone());
        Ok(child)
    }

    /// Attach an [`ActivityJournal`]: this activity (and every child begun
    /// afterwards, which inherits the journal) records its lifecycle —
    /// begin and complete — for conformance replay against a reference
    /// nesting model. Attaching records this activity's own `Begun` event.
    pub fn set_journal(&self, journal: ActivityJournal) {
        journal.record(|| ActivityEvent::Begun {
            activity: self.inner.id,
            name: self.inner.name.clone(),
            parent: self.inner.parent.upgrade().map(|p| p.id),
        });
        *self.inner.journal.lock() = Some(journal);
    }

    /// This activity's id.
    pub fn id(&self) -> ActivityId {
        self.inner.id
    }

    /// This activity's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The enclosing activity, if any.
    pub fn parent(&self) -> Option<Activity> {
        self.inner.parent.upgrade().map(|inner| Activity { inner })
    }

    /// Snapshot of child activities (completed ones included).
    pub fn children(&self) -> Vec<Activity> {
        self.inner.children.lock().clone()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ActivityState {
        *self.inner.state.lock()
    }

    /// Current completion status (what completion would report now).
    pub fn completion_status(&self) -> CompletionStatus {
        *self.inner.completion.lock()
    }

    /// The completed activity's outcome — "the result of a completed
    /// activity is its outcome, which can be used to determine subsequent
    /// flow of control to other activities" (§3.1). `None` until completed.
    pub fn outcome(&self) -> Option<Outcome> {
        self.inner.outcome.lock().clone()
    }

    /// Change the completion status, enforcing the §3.2.1 rules.
    ///
    /// # Errors
    ///
    /// [`ActivityError::CompletionStatus`] on an illegal transition (i.e.
    /// any attempt to leave `FailOnly`).
    pub fn set_completion_status(&self, status: CompletionStatus) -> Result<(), ActivityError> {
        let mut completion = self.inner.completion.lock();
        if !completion.can_transition_to(status) {
            return Err(ActivityError::CompletionStatus { from: *completion, to: status });
        }
        *completion = status;
        if let Some(logger) = &self.inner.logger {
            logger.log_completion_status(self.inner.id, status)?;
        }
        Ok(())
    }

    /// The coordinator: signal sets, action registration, protocol runs.
    pub fn coordinator(&self) -> &ActivityCoordinator {
        &self.inner.coordinator
    }

    /// The activity's property groups.
    pub fn properties(&self) -> &PropertyGroupManager {
        &self.inner.properties
    }

    /// Designate the SignalSet (by name) that [`Activity::complete`] drives.
    pub fn set_completion_signal_set(&self, set_name: impl Into<String>) {
        let set_name = set_name.into();
        if let Some(logger) = &self.inner.logger {
            let _ = logger.log_completion_set(self.inner.id, &set_name);
        }
        *self.inner.completion_set.lock() = Some(set_name);
    }

    /// Name of the designated completion SignalSet, if any.
    pub fn completion_signal_set(&self) -> Option<String> {
        self.inner.completion_set.lock().clone()
    }

    /// Arm a timeout: once the virtual clock passes `now + timeout`, the
    /// activity is doomed to complete as `FailOnly`.
    pub fn set_timeout(&self, timeout: Duration) {
        *self.inner.deadline.lock() = Some(self.inner.clock.now() + timeout);
    }

    /// The armed deadline as an **absolute** virtual-time instant, if any.
    /// Retry layers compose with it: pass this to
    /// [`orb::RetryPolicy::run`] (or a `RemoteActionProxy` deadline) so no
    /// backoff or re-attempt ever extends past the activity's own timeout.
    pub fn deadline(&self) -> Option<Duration> {
        *self.inner.deadline.lock()
    }

    /// Whether the activity's deadline has passed.
    pub fn timed_out(&self) -> bool {
        self.inner
            .deadline
            .lock()
            .is_some_and(|deadline| self.inner.clock.now() > deadline)
    }

    /// Suspend the activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless active.
    pub fn suspend(&self) -> Result<(), ActivityError> {
        let mut state = self.inner.state.lock();
        match *state {
            ActivityState::Active => {
                *state = ActivityState::Suspended;
                Ok(())
            }
            other => Err(self.invalid("suspend", other)),
        }
    }

    /// Resume a suspended activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless suspended.
    pub fn resume(&self) -> Result<(), ActivityError> {
        let mut state = self.inner.state.lock();
        match *state {
            ActivityState::Suspended => {
                *state = ActivityState::Active;
                Ok(())
            }
            other => Err(self.invalid("resume", other)),
        }
    }

    /// Run an arbitrary associated SignalSet *now*, mid-lifetime ("signals
    /// may be communicated at arbitrary points during the lifetime of an
    /// activity and not just when it terminates").
    ///
    /// # Errors
    ///
    /// Propagates coordinator failures; the activity must be active.
    pub fn signal(&self, set_name: &str) -> Result<Outcome, ActivityError> {
        self.check_active("signal")?;
        self.inner.coordinator.process_signal_set(set_name)
    }

    /// Complete with the current completion status.
    ///
    /// # Errors
    ///
    /// See [`Activity::complete_with_status`].
    pub fn complete(&self) -> Result<Outcome, ActivityError> {
        let status = self.completion_status();
        self.complete_with_status(status)
    }

    /// Complete the activity: verify every child has completed, adopt
    /// `status` (forced to `FailOnly` when timed out), drive the designated
    /// completion SignalSet (when one is set) and become `Completed`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::ChildrenActive`] when a child is still incomplete;
    /// [`ActivityError::InvalidState`] when not active;
    /// [`ActivityError::CompletionStatus`] on an illegal status transition.
    pub fn complete_with_status(
        &self,
        status: CompletionStatus,
    ) -> Result<Outcome, ActivityError> {
        {
            let mut state = self.inner.state.lock();
            if *state != ActivityState::Active {
                return Err(self.invalid("complete", *state));
            }
            let children = self.inner.children.lock();
            if children.iter().any(|c| c.state() != ActivityState::Completed) {
                return Err(ActivityError::ChildrenActive(self.inner.id));
            }
            *state = ActivityState::Completing;
        }
        let effective = if self.timed_out() { CompletionStatus::FailOnly } else { status };
        if let Err(e) = self.set_completion_status(effective) {
            *self.inner.state.lock() = ActivityState::Active;
            return Err(e);
        }

        let completion_set = self.inner.completion_set.lock().clone();
        let outcome = match completion_set {
            Some(set_name) => {
                self.inner.coordinator.set_completion_status(&set_name, effective)?;
                match self.inner.coordinator.process_signal_set(&set_name) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        *self.inner.state.lock() = ActivityState::Active;
                        return Err(e);
                    }
                }
            }
            None => {
                if effective.is_failure() {
                    Outcome::abort()
                } else {
                    Outcome::done()
                }
            }
        };
        *self.inner.state.lock() = ActivityState::Completed;
        *self.inner.outcome.lock() = Some(outcome.clone());
        if let Some(journal) = &*self.inner.journal.lock() {
            journal.record(|| ActivityEvent::Completed {
                activity: self.inner.id,
                status: effective,
                outcome: outcome.name().to_owned(),
            });
        }
        if let Some(logger) = &self.inner.logger {
            logger.log_completed(self.inner.id, effective, outcome.name())?;
        }
        Ok(outcome)
    }

    /// Associate a SignalSet re-creatable at recovery time: `factory_key`
    /// names a registered [`crate::recovery::SignalSetFactories`] entry.
    ///
    /// # Errors
    ///
    /// Propagates coordinator and log failures.
    pub fn add_signal_set_recoverable(
        &self,
        factory_key: &str,
        set: Box<dyn crate::signal_set::SignalSet>,
    ) -> Result<(), ActivityError> {
        let set_name = set.signal_set_name().to_owned();
        self.inner.coordinator.add_signal_set(set)?;
        if let Some(logger) = &self.inner.logger {
            logger.log_signal_set(self.inner.id, &set_name, factory_key)?;
        }
        Ok(())
    }

    /// Register an Action re-creatable at recovery time: `factory_key`
    /// names a registered [`crate::recovery::ActionFactories`] entry.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub fn register_action_recoverable(
        &self,
        set_name: &str,
        factory_key: &str,
        action: Arc<dyn crate::action::Action>,
    ) -> Result<(), ActivityError> {
        self.inner.coordinator.register_action(set_name, action);
        if let Some(logger) = &self.inner.logger {
            logger.log_action(self.inner.id, set_name, factory_key)?;
        }
        Ok(())
    }

    fn check_active(&self, operation: &str) -> Result<(), ActivityError> {
        if self.timed_out() {
            return Err(ActivityError::TimedOut(self.inner.id));
        }
        let state = *self.inner.state.lock();
        if state != ActivityState::Active {
            return Err(self.invalid(operation, state));
        }
        Ok(())
    }

    fn invalid(&self, operation: &str, state: ActivityState) -> ActivityError {
        ActivityError::InvalidState {
            activity: self.inner.id,
            operation: operation.to_owned(),
            state: state.to_string(),
        }
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

    fn root() -> Activity {
        Activity::new_root("root", SimClock::new())
    }

    #[test]
    fn lifecycle_and_identity() {
        let a = root();
        assert_eq!(a.name(), "root");
        assert_eq!(a.state(), ActivityState::Active);
        assert_eq!(a.completion_status(), CompletionStatus::Success);
        assert!(a.parent().is_none());
        let out = a.complete().unwrap();
        assert!(out.is_done());
        assert_eq!(a.state(), ActivityState::Completed);
    }

    #[test]
    fn children_form_a_tree_and_gate_completion() {
        let a = root();
        let b = a.begin_child("b").unwrap();
        let c = a.begin_child("c").unwrap();
        assert_eq!(a.children().len(), 2);
        assert_eq!(b.parent().unwrap().id(), a.id());
        assert!(matches!(a.complete(), Err(ActivityError::ChildrenActive(_))));
        b.complete().unwrap();
        c.complete().unwrap();
        a.complete().unwrap();
    }

    #[test]
    fn completed_activity_rejects_everything() {
        let a = root();
        a.complete().unwrap();
        assert!(matches!(a.begin_child("x"), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.complete(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.suspend(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.signal("s"), Err(ActivityError::InvalidState { .. })));
    }

    #[test]
    fn suspend_resume_cycle() {
        let a = root();
        a.suspend().unwrap();
        assert_eq!(a.state(), ActivityState::Suspended);
        assert!(matches!(a.suspend(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.begin_child("x"), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.complete(), Err(ActivityError::InvalidState { .. })));
        a.resume().unwrap();
        assert!(matches!(a.resume(), Err(ActivityError::InvalidState { .. })));
        a.complete().unwrap();
    }

    #[test]
    fn completion_status_rules_enforced() {
        let a = root();
        a.set_completion_status(CompletionStatus::Fail).unwrap();
        a.set_completion_status(CompletionStatus::Success).unwrap();
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let err = a.set_completion_status(CompletionStatus::Success).unwrap_err();
        assert!(matches!(err, ActivityError::CompletionStatus { .. }));
        // Completing a FailOnly activity reports failure.
        let out = a.complete().unwrap();
        assert!(out.is_negative());
    }

    #[test]
    fn completion_drives_designated_signal_set() {
        let a = root();
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)))
            .unwrap();
        a.set_completion_signal_set("Done");
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        a.coordinator().register_action(
            "Done",
            Arc::new(FnAction::new("observer", move |_s: &Signal| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(Outcome::done())
            })),
        );
        let out = a.complete().unwrap();
        assert!(out.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn signal_mid_lifetime() {
        let a = root();
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Checkpoint", "save", Value::Null)))
            .unwrap();
        let out = a.signal("Checkpoint").unwrap();
        assert!(out.is_done());
        assert_eq!(a.state(), ActivityState::Active, "still running afterwards");
    }

    #[test]
    fn timeout_forces_fail_only() {
        let clock = SimClock::new();
        let a = Activity::new_root("slow", clock.clone());
        a.set_timeout(Duration::from_secs(1));
        assert!(!a.timed_out());
        clock.advance(Duration::from_secs(2));
        assert!(a.timed_out());
        assert!(matches!(a.begin_child("x"), Err(ActivityError::TimedOut(_))));
        let out = a.complete_with_status(CompletionStatus::Success).unwrap();
        assert!(out.is_negative(), "timeout overrides requested success");
        assert_eq!(a.completion_status(), CompletionStatus::FailOnly);
    }

    #[test]
    fn child_inherits_clock_and_deadline() {
        let clock = SimClock::new();
        let a = Activity::new_root("a", clock.clone());
        a.set_timeout(Duration::from_secs(1));
        let b = a.begin_child("b").unwrap();
        clock.advance(Duration::from_secs(2));
        assert!(b.timed_out(), "deadline inherited at begin time");
    }

    #[test]
    fn ids_are_unique_within_a_tree() {
        let a = root();
        let b = a.begin_child("b").unwrap();
        let c = b.begin_child("c").unwrap();
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
        assert_ne!(a.id(), c.id());
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;
    use crate::signal_set::BroadcastSignalSet;
    use orb::Value;

    #[test]
    fn outcome_is_stored_for_flow_control() {
        let a = Activity::new_root("a", SimClock::new());
        assert!(a.outcome().is_none(), "no outcome before completion");
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Done", "fin", Value::Null)))
            .unwrap();
        a.set_completion_signal_set("Done");
        let returned = a.complete().unwrap();
        // A later activity can consult the stored outcome to decide its
        // own flow of control (§3.1).
        assert_eq!(a.outcome(), Some(returned));
    }

    #[test]
    fn failed_completion_stores_negative_outcome() {
        let a = Activity::new_root("a", SimClock::new());
        a.complete_with_status(CompletionStatus::FailOnly).unwrap();
        assert!(a.outcome().unwrap().is_negative());
    }
}

impl Activity {
    /// The outcomes of completed children, by name — the raw material for
    /// §3.1's "determine subsequent flow of control to other activities"
    /// and §2.2's "responsible entity" that must know "which have completed
    /// and what their outcomes were" and "which activities failed to
    /// complete".
    pub fn children_outcomes(&self) -> Vec<(String, Option<Outcome>)> {
        self.inner
            .children
            .lock()
            .iter()
            .map(|c| (c.name().to_owned(), c.outcome()))
            .collect()
    }
}

#[cfg(test)]
mod flow_control_tests {
    use super::*;

    #[test]
    fn children_outcomes_distinguish_states() {
        let parent = Activity::new_root("parent", SimClock::new());
        let done = parent.begin_child("done").unwrap();
        done.complete().unwrap();
        let failed = parent.begin_child("failed").unwrap();
        failed.complete_with_status(CompletionStatus::Fail).unwrap();
        let _running = parent.begin_child("running").unwrap();

        let outcomes = parent.children_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].1.as_ref().unwrap().is_done());
        assert!(outcomes[1].1.as_ref().unwrap().is_negative());
        assert!(outcomes[2].1.is_none(), "incomplete children have no outcome yet");
    }
}
