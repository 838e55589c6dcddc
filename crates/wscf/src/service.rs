//! The coordination service: context creation, protocol plug-in, and
//! (remote) participant registration — the WS-Coordination triad of
//! Activation, Registration and protocol services, hosted on the Activity
//! Service.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use activity_service::signal_set::SignalSet;
use activity_service::{
    Action, ActionServant, Activity, CompletionStatus, Outcome, RemoteActionProxy,
};
use orb::{Node, ObjectRef, Orb, Request, RetryPolicy, Servant, SimClock, Value};
use parking_lot::Mutex;

use crate::context::CoordinationContext;
use crate::error::WscfError;

type ProtocolFactory = Arc<dyn Fn() -> Box<dyn SignalSet> + Send + Sync>;

/// A named bundle of protocol (SignalSet) factories: one coordination type.
#[derive(Clone, Default)]
pub struct ProtocolSuite {
    factories: HashMap<String, ProtocolFactory>,
}

impl std::fmt::Debug for ProtocolSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.factories.keys().collect();
        names.sort();
        f.debug_struct("ProtocolSuite").field("protocols", &names).finish()
    }
}

impl ProtocolSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a protocol. `factory` must produce sets whose
    /// `signal_set_name()` equals `protocol` (checked at context creation).
    #[must_use]
    pub fn with<F>(mut self, protocol: impl Into<String>, factory: F) -> Self
    where
        F: Fn() -> Box<dyn SignalSet> + Send + Sync + 'static,
    {
        self.factories.insert(protocol.into(), Arc::new(factory));
        self
    }
}

struct ActiveContext {
    activity: Activity,
    coordination_type: String,
}

/// The coordination service: knows the registered coordination types,
/// creates contexts (one activity per coordinated piece of work, carrying
/// its type's protocol SignalSets), and registers participants —
/// locally or through its ORB-exposed registration servant.
pub struct CoordinationService {
    clock: SimClock,
    types: Mutex<HashMap<String, ProtocolSuite>>,
    contexts: Mutex<HashMap<String, ActiveContext>>,
    counter: AtomicU64,
    registration_ref: Mutex<Option<ObjectRef>>,
}

impl std::fmt::Debug for CoordinationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinationService")
            .field("types", &self.types.lock().len())
            .field("contexts", &self.contexts.lock().len())
            .finish()
    }
}

impl Default for CoordinationService {
    fn default() -> Self {
        Self::new(SimClock::new())
    }
}

impl CoordinationService {
    /// A service with no coordination types registered yet.
    pub fn new(clock: SimClock) -> Self {
        CoordinationService {
            clock,
            types: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
            counter: AtomicU64::new(1),
            registration_ref: Mutex::new(None),
        }
    }

    /// Register (or replace) a coordination type.
    pub fn register_coordination_type(&self, coordination_type: impl Into<String>, suite: ProtocolSuite) {
        self.types.lock().insert(coordination_type.into(), suite);
    }

    /// Sorted names of registered coordination types.
    pub fn coordination_types(&self) -> Vec<String> {
        let mut names: Vec<String> = self.types.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Create a coordination context of the given type: a fresh activity
    /// with every protocol SignalSet of the type's suite associated.
    ///
    /// # Errors
    ///
    /// [`WscfError::UnknownCoordinationType`]; [`WscfError::InvalidState`]
    /// when a factory produces a set whose name disagrees with its
    /// protocol key.
    pub fn create_context(
        &self,
        coordination_type: &str,
    ) -> Result<CoordinationContext, WscfError> {
        let suite = self
            .types
            .lock()
            .get(coordination_type)
            .cloned()
            .ok_or_else(|| WscfError::UnknownCoordinationType(coordination_type.to_owned()))?;
        let id = format!("wscf-ctx-{}", self.counter.fetch_add(1, Ordering::Relaxed));
        let activity = Activity::new_root(id.clone(), self.clock.clone());
        for (protocol, factory) in &suite.factories {
            let set = factory();
            if set.signal_set_name() != protocol {
                return Err(WscfError::InvalidState {
                    operation: format!("install protocol {protocol:?}"),
                    state: format!("factory produced set {:?}", set.signal_set_name()),
                });
            }
            activity.coordinator().add_signal_set(set)?;
        }
        self.contexts.lock().insert(
            id.clone(),
            ActiveContext { activity, coordination_type: coordination_type.to_owned() },
        );
        let mut context = CoordinationContext::new(id, coordination_type);
        if let Some(reg) = self.registration_ref.lock().clone() {
            context = context.with_registration(reg);
        }
        Ok(context)
    }

    /// Register a local participant Action with one of the context's
    /// protocols.
    ///
    /// # Errors
    ///
    /// [`WscfError::UnknownContext`] / [`WscfError::UnknownProtocol`].
    pub fn register(
        &self,
        context_id: &str,
        protocol: &str,
        action: Arc<dyn Action>,
    ) -> Result<(), WscfError> {
        let contexts = self.contexts.lock();
        let ctx = contexts
            .get(context_id)
            .ok_or_else(|| WscfError::UnknownContext(context_id.to_owned()))?;
        let known = self
            .types
            .lock()
            .get(&ctx.coordination_type)
            .is_some_and(|s| s.factories.contains_key(protocol));
        if !known {
            return Err(WscfError::UnknownProtocol {
                coordination_type: ctx.coordination_type.clone(),
                protocol: protocol.to_owned(),
            });
        }
        ctx.activity.coordinator().register_action(protocol, action);
        Ok(())
    }

    /// Drive one of the context's protocols now (mid-lifetime).
    ///
    /// # Errors
    ///
    /// [`WscfError::UnknownContext`]; coordinator failures.
    pub fn drive(&self, context_id: &str, protocol: &str) -> Result<Outcome, WscfError> {
        let activity = self.activity(context_id)?;
        Ok(activity.signal(protocol)?)
    }

    /// Complete the coordinated work: set the status on the designated
    /// completion protocol (if any) and complete the activity.
    ///
    /// # Errors
    ///
    /// [`WscfError::UnknownContext`]; coordinator failures.
    pub fn complete(
        &self,
        context_id: &str,
        protocol: &str,
        status: CompletionStatus,
    ) -> Result<Outcome, WscfError> {
        let activity = self.activity(context_id)?;
        activity.set_completion_signal_set(protocol);
        activity.coordinator().set_completion_status(protocol, status)?;
        activity.set_completion_status(status)?;
        let outcome = activity.complete()?;
        self.contexts.lock().remove(context_id);
        Ok(outcome)
    }

    /// The activity behind a context (escape hatch for protocol wrappers
    /// like [`crate::acid::AtomicTransaction`]).
    ///
    /// # Errors
    ///
    /// [`WscfError::UnknownContext`].
    pub fn activity(&self, context_id: &str) -> Result<Activity, WscfError> {
        self.contexts
            .lock()
            .get(context_id)
            .map(|c| c.activity.clone())
            .ok_or_else(|| WscfError::UnknownContext(context_id.to_owned()))
    }

    /// Expose this service's registration operation as a servant on `node`
    /// so remote participants can enlist through the ORB. Returns the
    /// registration reference that subsequently rides inside every created
    /// context.
    ///
    /// # Errors
    ///
    /// Propagates activation failures.
    pub fn expose_registration(
        self: &Arc<Self>,
        orb: &Orb,
        node: &Node,
    ) -> Result<ObjectRef, WscfError> {
        let servant = RegistrationServant { service: Arc::clone(self), orb: orb.clone() };
        let reference = node.activate("wscf:Registration", servant)?;
        *self.registration_ref.lock() = Some(reference.clone());
        Ok(reference)
    }
}

/// Operation name of the registration servant.
pub const REGISTER_OP: &str = "register";

/// The ORB servant accepting remote registrations: the participant sends
/// its context id, protocol name, and the [`ObjectRef`] of its own
/// [`ActionServant`]; the coordinator side wires a [`RemoteActionProxy`]
/// (at-least-once delivery) back to it.
struct RegistrationServant {
    service: Arc<CoordinationService>,
    orb: Orb,
}

impl Servant for RegistrationServant {
    fn dispatch(&self, request: &Request) -> Result<Value, orb::OrbError> {
        if request.operation() != REGISTER_OP {
            return Err(orb::OrbError::BadOperation(request.operation().to_owned()));
        }
        let context_id = request
            .arg("context")
            .and_then(Value::as_str)
            .ok_or_else(|| orb::OrbError::Codec("missing context".into()))?;
        let protocol = request
            .arg("protocol")
            .and_then(Value::as_str)
            .ok_or_else(|| orb::OrbError::Codec("missing protocol".into()))?;
        let target = request
            .arg("participant")
            .ok_or_else(|| orb::OrbError::Codec("missing participant".into()))?;
        let target = ObjectRef::from_value(target)?;
        let name = request
            .arg("name")
            .and_then(Value::as_str)
            .unwrap_or("remote-participant")
            .to_owned();
        let proxy = RemoteActionProxy::new(name, self.orb.clone(), target.node().to_owned(), target);
        self.service
            .register(context_id, protocol, Arc::new(proxy) as Arc<dyn Action>)
            .map_err(|e| orb::OrbError::Application(e.to_string()))?;
        Ok(Value::Bool(true))
    }
}

/// Client-side helper: register a local action (exposed as a servant on
/// `node`) with a remote coordination context.
///
/// # Errors
///
/// [`WscfError::Remote`] when the context has no registration endpoint or
/// the invocation fails.
pub fn register_remote(
    orb: &Orb,
    node: &Node,
    context: &CoordinationContext,
    protocol: &str,
    action: Arc<dyn Action>,
) -> Result<(), WscfError> {
    let registration = context
        .registration()
        .ok_or_else(|| WscfError::Remote("context carries no registration endpoint".into()))?;
    let name = action.name().to_owned();
    let servant_ref = node.activate("wscf:Action", ActionServant::new(action))?;
    let request = Request::new(REGISTER_OP)
        .with_arg("context", Value::from(context.id()))
        .with_arg("protocol", Value::from(protocol))
        .with_arg("participant", servant_ref.to_value())
        .with_arg("name", Value::from(name));
    // At-least-once, on the same nine immediate attempts a
    // `RemoteActionProxy` uses by default.
    orb.invoke(node.name(), registration, request, &RetryPolicy::immediate(9))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TYPE_ATOMIC_TRANSACTION;
    use activity_service::{BroadcastSignalSet, FnAction, Signal};
    use std::sync::atomic::{AtomicU32, Ordering as AOrdering};
    use tx_models::{TwoPhaseCommitSignalSet, TWO_PC_SET};

    fn service_with_types() -> Arc<CoordinationService> {
        let service = Arc::new(CoordinationService::default());
        service.register_coordination_type(
            TYPE_ATOMIC_TRANSACTION,
            ProtocolSuite::new().with(TWO_PC_SET, || Box::new(TwoPhaseCommitSignalSet::new()) as _),
        );
        service.register_coordination_type(
            "wscf:notify",
            ProtocolSuite::new()
                .with("Notify", || Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)) as _),
        );
        service
    }

    #[test]
    fn contexts_carry_type_and_unique_ids() {
        let service = service_with_types();
        let a = service.create_context(TYPE_ATOMIC_TRANSACTION).unwrap();
        let b = service.create_context(TYPE_ATOMIC_TRANSACTION).unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(a.coordination_type(), TYPE_ATOMIC_TRANSACTION);
        assert!(matches!(
            service.create_context("nope"),
            Err(WscfError::UnknownCoordinationType(_))
        ));
        assert_eq!(service.coordination_types().len(), 2);
    }

    #[test]
    fn registration_validates_context_and_protocol() {
        let service = service_with_types();
        let ctx = service.create_context("wscf:notify").unwrap();
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new("a", |_s: &Signal| Ok(Outcome::done())));
        service.register(ctx.id(), "Notify", Arc::clone(&action)).unwrap();
        assert!(matches!(
            service.register("ghost", "Notify", Arc::clone(&action)),
            Err(WscfError::UnknownContext(_))
        ));
        assert!(matches!(
            service.register(ctx.id(), "Ghost", action),
            Err(WscfError::UnknownProtocol { .. })
        ));
    }

    #[test]
    fn mismatched_factory_name_is_rejected() {
        let service = Arc::new(CoordinationService::default());
        service.register_coordination_type(
            "bad-type",
            ProtocolSuite::new()
                .with("Expected", || Box::new(BroadcastSignalSet::new("Actual", "x", Value::Null)) as _),
        );
        assert!(matches!(
            service.create_context("bad-type"),
            Err(WscfError::InvalidState { .. })
        ));
    }

    #[test]
    fn drive_and_complete_run_the_protocols() {
        let service = service_with_types();
        let ctx = service.create_context("wscf:notify").unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        service
            .register(
                ctx.id(),
                "Notify",
                Arc::new(FnAction::new("counter", move |_s: &Signal| {
                    hits2.fetch_add(1, AOrdering::SeqCst);
                    Ok(Outcome::done())
                })),
            )
            .unwrap();
        let outcome = service.drive(ctx.id(), "Notify").unwrap();
        assert!(outcome.is_done());
        assert_eq!(hits.load(AOrdering::SeqCst), 1);
        // Context gone after completion... first re-add a fresh set so the
        // completion has something to drive.
        service
            .activity(ctx.id())
            .unwrap()
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)))
            .unwrap();
        service.complete(ctx.id(), "Notify", CompletionStatus::Success).unwrap();
        assert!(matches!(
            service.drive(ctx.id(), "Notify"),
            Err(WscfError::UnknownContext(_))
        ));
    }

    #[test]
    fn remote_registration_over_the_orb() {
        use crate::acid::{StagedLedger, WsParticipantAction};

        let orb = Orb::new();
        let coordinator_node = orb.add_node("coordinator").unwrap();
        let participant_node = orb.add_node("participant-host").unwrap();

        let service = service_with_types();
        service.expose_registration(&orb, &coordinator_node).unwrap();
        let ctx = service.create_context(TYPE_ATOMIC_TRANSACTION).unwrap();
        assert!(ctx.registration().is_some(), "contexts advertise the endpoint");

        // The remote side: a staged ledger exposed as an Action servant,
        // registered through the wire.
        let ledger = StagedLedger::new("remote-ledger");
        ledger.stage("k", Value::I64(42));
        register_remote(
            &orb,
            &participant_node,
            &ctx,
            TWO_PC_SET,
            WsParticipantAction::new(ledger.clone() as _) as Arc<dyn Action>,
        )
        .unwrap();

        // The coordinator completes the transaction; 2PC crosses the wire.
        let outcome = service
            .complete(ctx.id(), TWO_PC_SET, CompletionStatus::Success)
            .unwrap();
        assert_eq!(outcome.name(), "committed");
        assert_eq!(ledger.read("k"), Some(Value::I64(42)));
    }

    #[test]
    fn context_value_roundtrips_through_wire_form() {
        let service = service_with_types();
        let ctx = service.create_context(TYPE_ATOMIC_TRANSACTION).unwrap();
        let wire = ctx.to_value().encode();
        let back =
            CoordinationContext::from_value(&Value::decode(&wire).unwrap()).unwrap();
        assert_eq!(back, ctx);
    }
}
