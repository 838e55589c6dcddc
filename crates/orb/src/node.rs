//! Nodes, the ORB core, and the invocation path.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use telemetry::{CausalityPlane, Telemetry};

use crate::clock::SimClock;
use crate::detector::FailureDetector;
use crate::error::OrbError;
use crate::interceptor::{
    ClientRequestInterceptor, LamportClientInterceptor, LamportServerInterceptor,
    ServerRequestInterceptor, SpanClientInterceptor, SpanServerInterceptor,
};
use crate::message::{Reply, Request};
use crate::network::{Delivery, NetworkConfig, SimulatedNetwork};
use crate::object::{ObjectId, ObjectRef, Servant};
use crate::registry::NameRegistry;
use crate::retry::RetryPolicy;
use crate::snapshot::SnapshotCell;

/// Source name for a caller of [`Orb::invoke`] that sits on no node (e.g. a
/// test driver outside the simulation).
pub const EXTERNAL_CALLER: &str = "<external>";

struct NodeInner {
    name: String,
    seq: u64,
    orb: Weak<OrbInner>,
    servants: RwLock<HashMap<ObjectId, Arc<dyn Servant>>>,
    object_seq: AtomicU64,
}

impl fmt::Debug for NodeInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("seq", &self.seq)
            .field("servants", &self.servants.read().len())
            .finish()
    }
}

/// A handle to one simulated process/host in the distributed system.
///
/// Objects ([`Servant`]s) are activated on a node and invoked through the
/// [`ObjectRef`]s the activation returns. Cloning the handle does not clone
/// the node.
#[derive(Debug, Clone)]
pub struct Node {
    inner: Arc<NodeInner>,
}

impl Node {
    /// This node's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Activate `servant` under the given interface name, returning a
    /// location-transparent reference to it.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] if the owning ORB has been dropped.
    pub fn activate<S: Servant + 'static>(
        &self,
        interface: impl Into<String>,
        servant: S,
    ) -> Result<ObjectRef, OrbError> {
        self.activate_arc(interface, Arc::new(servant))
    }

    /// Like [`Node::activate`] but shares an existing `Arc`-ed servant.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] if the owning ORB has been dropped.
    pub fn activate_arc(
        &self,
        interface: impl Into<String>,
        servant: Arc<dyn Servant>,
    ) -> Result<ObjectRef, OrbError> {
        if self.inner.orb.upgrade().is_none() {
            return Err(OrbError::NodeNotFound(self.inner.name.clone()));
        }
        let id = ObjectId::new(
            self.inner.seq,
            self.inner.object_seq.fetch_add(1, Ordering::Relaxed),
        );
        self.inner.servants.write().insert(id, servant);
        Ok(ObjectRef::new(id, self.inner.name.clone(), interface))
    }

    /// Deactivate the object; later invocations fail with
    /// [`OrbError::ObjectNotFound`]. Returns whether the object was active.
    pub fn deactivate(&self, object: &ObjectRef) -> bool {
        self.inner.servants.write().remove(&object.id()).is_some()
    }

    /// Number of active servants.
    pub fn servant_count(&self) -> usize {
        self.inner.servants.read().len()
    }
}

/// Everything the invoke path reads besides the node table: read once per
/// logical call, replaced by every `add_*`/`set_*`/`install_*` call.
#[derive(Clone, Default)]
struct Hooks {
    client: Arc<[Arc<dyn ClientRequestInterceptor>]>,
    server: Arc<[Arc<dyn ServerRequestInterceptor>]>,
    detector: Option<FailureDetector>,
    telemetry: Option<Telemetry>,
}

struct OrbInner {
    network: SimulatedNetwork,
    nodes: RwLock<HashMap<String, Arc<NodeInner>>>,
    node_seq: AtomicU64,
    registry: NameRegistry,
    delivery_seq: AtomicU64,
    hooks: SnapshotCell<Hooks>,
}

impl fmt::Debug for OrbInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orb").field("nodes", &self.nodes.read().len()).finish()
    }
}

/// The Object Request Broker: the hub owning nodes, the simulated network,
/// interceptors and the naming service.
///
/// Cheap to clone; all clones share state.
#[derive(Debug, Clone)]
pub struct Orb {
    inner: Arc<OrbInner>,
}

/// Configures and builds an [`Orb`].
#[derive(Default)]
pub struct OrbBuilder {
    config: NetworkConfig,
    clock: Option<SimClock>,
    telemetry: Option<Telemetry>,
}

impl fmt::Debug for OrbBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrbBuilder")
            .field("config", &self.config)
            .field("clock", &self.clock)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl OrbBuilder {
    /// Use the given network fault/latency model.
    #[must_use]
    pub fn network(mut self, config: NetworkConfig) -> Self {
        self.config = config;
        self
    }

    /// Share an existing virtual clock instead of creating a fresh one.
    #[must_use]
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attach a telemetry recorder; `build` registers the span-propagation
    /// interceptor pair automatically (see [`Orb::install_telemetry`]).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Build the ORB.
    pub fn build(self) -> Orb {
        let clock = self.clock.unwrap_or_default();
        let orb = Orb {
            inner: Arc::new(OrbInner {
                network: SimulatedNetwork::new(self.config, clock),
                nodes: RwLock::new(HashMap::new()),
                node_seq: AtomicU64::new(1),
                registry: NameRegistry::new(),
                delivery_seq: AtomicU64::new(1),
                hooks: SnapshotCell::default(),
            }),
        };
        if let Some(telemetry) = self.telemetry {
            orb.install_telemetry(telemetry);
        }
        orb
    }
}

impl Default for Orb {
    fn default() -> Self {
        Orb::builder().build()
    }
}

impl Orb {
    /// Start configuring an ORB.
    pub fn builder() -> OrbBuilder {
        OrbBuilder::default()
    }

    /// Create a new ORB with a reliable zero-latency network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::DuplicateNode`] if the name is taken.
    pub fn add_node(&self, name: impl Into<String>) -> Result<Node, OrbError> {
        let name = name.into();
        let mut nodes = self.inner.nodes.write();
        if nodes.contains_key(&name) {
            return Err(OrbError::DuplicateNode(name));
        }
        let inner = Arc::new(NodeInner {
            name: name.clone(),
            seq: self.inner.node_seq.fetch_add(1, Ordering::Relaxed),
            orb: Arc::downgrade(&self.inner),
            servants: RwLock::new(HashMap::new()),
            object_seq: AtomicU64::new(1),
        });
        nodes.insert(name, Arc::clone(&inner));
        Ok(Node { inner })
    }

    /// Look up an existing node handle.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] for unknown names.
    pub fn node(&self, name: &str) -> Result<Node, OrbError> {
        self.inner
            .nodes
            .read()
            .get(name)
            .map(|inner| Node { inner: Arc::clone(inner) })
            .ok_or_else(|| OrbError::NodeNotFound(name.to_owned()))
    }

    /// The simulated network (partitions, fault stats, clock).
    pub fn network(&self) -> &SimulatedNetwork {
        &self.inner.network
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        self.inner.network.clock()
    }

    /// The naming service.
    pub fn registry(&self) -> &NameRegistry {
        &self.inner.registry
    }

    /// Register a client-side interceptor (runs on every outgoing request).
    pub fn add_client_interceptor(&self, interceptor: Arc<dyn ClientRequestInterceptor>) {
        self.inner.hooks.update(|h| h.client = [&h.client[..], &[interceptor]].concat().into());
    }

    /// Register a server-side interceptor (runs on every incoming request).
    pub fn add_server_interceptor(&self, interceptor: Arc<dyn ServerRequestInterceptor>) {
        self.inner.hooks.update(|h| h.server = [&h.server[..], &[interceptor]].concat().into());
    }

    /// Invoke `object` on behalf of node `from` ([`EXTERNAL_CALLER`] for a
    /// driver outside the simulation) under `policy`. This is the ORB's
    /// only invocation path; [`RetryPolicy::none`] is the plain single call.
    ///
    /// The request is stamped with a [`Request::delivery_id`] once per
    /// *logical* call, before the first attempt, so every retry and every
    /// network duplicate shares the id and dedup-guarded receivers process
    /// the call effect-once. The one request serves every attempt, each
    /// starting from the caller's service contexts (the only part
    /// interceptors write), and takes the same steps: an `attempt:` span
    /// when telemetry is enabled, the client interceptors, the transport,
    /// and evidence about the target node for the attached
    /// [`FailureDetector`] (if any). Retryable transport failures are
    /// re-attempted under `policy`, so the servant may run **more than
    /// once** for one logical call — the at-least-once delivery the paper
    /// specifies for Signals (§3.4), which is why Actions must be
    /// idempotent.
    ///
    /// # Errors
    ///
    /// Transport errors ([`OrbError::Timeout`], [`OrbError::Partitioned`])
    /// once the policy's attempts are spent, [`OrbError::DeadlineExceeded`]
    /// when the policy's deadline cuts the loop short (including
    /// mid-backoff), and servant failures or interceptor vetoes immediately.
    pub fn invoke(
        &self,
        from: &str,
        object: &ObjectRef,
        mut request: Request,
        policy: &RetryPolicy,
    ) -> Result<Reply, OrbError> {
        if request.delivery_id().is_none() {
            let seq = self.inner.delivery_seq.fetch_add(1, Ordering::Relaxed);
            request.set_delivery_id(format!("{from}#{seq}"));
        }
        let hooks = self.inner.hooks.load();
        // The route's only readers are interceptors (the Lamport pair).
        if !hooks.client.is_empty() || !hooks.server.is_empty() {
            request.set_route(from, object.node());
        }
        let caller_contexts = (!hooks.client.is_empty()).then(|| request.contexts().clone());
        policy.run(self.clock(), &mut request, |request, attempt| {
            if let Some(contexts) = caller_contexts.as_ref().filter(|_| attempt > 0) {
                request.contexts_mut().clone_from(contexts);
            }
            // Each attempt is its own span, tagged with the shared logical
            // delivery id; re-attempts (attempt > 0) bump the retry
            // counter. Both are single-atomic-load no-ops when telemetry
            // is absent or disabled.
            let span = hooks.telemetry.as_ref().filter(|t| t.is_enabled()).map(|t| {
                if attempt > 0 {
                    t.metrics().incr("retry_attempts_total");
                }
                let span = t.start_span(&format!("attempt:{}", request.operation()));
                t.set_attr(&span, "delivery_id", request.delivery_id().unwrap_or_default());
                t.set_attr(&span, "attempt", &attempt.to_string());
                t.set_attr(&span, "to", object.node());
                t.enter(span);
                span
            });
            let result = self.inner.attempt(&hooks, from, object, request);
            if let (Some(telemetry), Some(span)) = (&hooks.telemetry, &span) {
                if let Err(e) = &result {
                    telemetry.set_attr(span, "error", &e.to_string());
                }
                telemetry.exit();
                telemetry.end(span);
            }
            if let Some(detector) = &hooks.detector {
                match &result {
                    Ok(_) => detector.record_success(object.node()),
                    Err(e) if e.is_retryable() => detector.record_failure(object.node()),
                    Err(_) => {}
                }
            }
            result
        })
    }

    /// Attach a [`FailureDetector`]; every invocation feeds it
    /// per-attempt evidence about the target node. If telemetry is
    /// installed, the detector's state transitions are counted in the
    /// metrics registry.
    pub fn set_detector(&self, detector: FailureDetector) {
        self.inner.hooks.update(|hooks| {
            if let Some(telemetry) = &hooks.telemetry {
                detector.set_telemetry(telemetry.clone());
            }
            hooks.detector = Some(detector);
        });
    }

    /// Install a telemetry recorder: registers the
    /// [`SpanClientInterceptor`]/[`SpanServerInterceptor`] pair so span
    /// contexts ride every request's service contexts, and wires the
    /// metrics registry into the attached failure detector (if any).
    pub fn install_telemetry(&self, telemetry: Telemetry) {
        self.add_client_interceptor(Arc::new(SpanClientInterceptor::new(telemetry.clone())));
        self.add_server_interceptor(Arc::new(SpanServerInterceptor::new(telemetry.clone())));
        self.inner.network.set_telemetry(telemetry.clone());
        self.inner.hooks.update(|hooks| {
            if let Some(detector) = &hooks.detector {
                detector.set_telemetry(telemetry.clone());
            }
            hooks.telemetry = Some(telemetry);
        });
    }

    /// Install the §16 causal plane: registers the
    /// [`LamportClientInterceptor`]/[`LamportServerInterceptor`] pair so
    /// every request and reply carries a Lamport stamp in its service
    /// contexts, and `wire-send`/`wire-recv` events land in the flight
    /// recorders registered with `plane`. Register each node's recorder
    /// with the plane *before* traffic flows so wire stamps and local
    /// [`telemetry::FlightRecorder::record`] ticks share one clock.
    pub fn install_causality(&self, plane: CausalityPlane) {
        self.add_client_interceptor(Arc::new(LamportClientInterceptor::new(plane.clone())));
        self.add_server_interceptor(Arc::new(LamportServerInterceptor::new(plane)));
    }
}

impl OrbInner {
    /// One attempt of a logical call, through the client interceptors and
    /// the transport.
    fn attempt(
        &self,
        hooks: &Hooks,
        from: &str,
        object: &ObjectRef,
        request: &mut Request,
    ) -> Result<Reply, OrbError> {
        // 1. Client interceptors stamp the outgoing request. A veto
        //    partway through still notifies the interceptors that already
        //    ran, so their per-request state unwinds.
        for (ran, ci) in hooks.client.iter().enumerate() {
            if let Err(e) = ci.send_request(request) {
                let veto = as_veto(ci.name(), e);
                notify_exception(&hooks.client[..ran], request, &veto);
                return Err(veto);
            }
        }

        match self.invoke_transport(&hooks.server, from, object, request) {
            Ok(mut reply) => {
                for ci in hooks.client.iter().rev() {
                    ci.receive_reply(request, &mut reply);
                }
                Ok(reply)
            }
            Err(e) => {
                // No reply came back (transport loss, servant failure, or
                // a server-side veto): the error-path counterpart of
                // `receive_reply`.
                notify_exception(&hooks.client, request, &e);
                Err(e)
            }
        }
    }

    fn invoke_transport(
        &self,
        server_interceptors: &[Arc<dyn ServerRequestInterceptor>],
        from: &str,
        object: &ObjectRef,
        request: &Request,
    ) -> Result<Reply, OrbError> {
        // 2. Locate the target servant.
        let node = self
            .nodes
            .read()
            .get(object.node())
            .cloned()
            .ok_or_else(|| OrbError::NodeNotFound(object.node().to_owned()))?;
        let servant = node
            .servants
            .read()
            .get(&object.id())
            .cloned()
            .ok_or(OrbError::ObjectNotFound(object.id()))?;

        // 3. Request leg through the network.
        let copies = match self.network.transmit(from, object.node()) {
            Delivery::Dropped => {
                return Err(OrbError::Timeout { operation: request.operation().to_owned() })
            }
            Delivery::Partitioned => {
                return Err(OrbError::Partitioned {
                    from: from.to_owned(),
                    to: object.node().to_owned(),
                })
            }
            Delivery::Delivered { copies, .. } => copies,
        };

        // 4. Dispatch (possibly more than once, when duplicated). The first
        //    execution's result — and the reply contexts its server
        //    interceptors attached — is what rides back in the reply;
        //    duplicate executions model redelivery of the same message.
        let mut outcome: Option<Result<crate::value::Value, OrbError>> = None;
        let mut reply_contexts: Option<crate::context::ServiceContext> = None;
        for _ in 0..copies {
            let mut scratch = Reply::new(crate::value::Value::Null);
            for (ran, si) in server_interceptors.iter().enumerate() {
                if let Err(e) = si.receive_request(request) {
                    // The interceptors that already ran tear down what they
                    // established (e.g. an entered `serve:` span), as after
                    // a dispatch.
                    for earlier in server_interceptors[..ran].iter().rev() {
                        earlier.send_reply(request, &mut scratch);
                    }
                    return Err(as_veto(si.name(), e));
                }
            }
            let result = servant.dispatch(request);
            for si in server_interceptors.iter().rev() {
                si.send_reply(request, &mut scratch);
            }
            if outcome.is_none() {
                outcome = Some(result);
                reply_contexts = Some(scratch.contexts);
            }
        }
        let result = outcome.expect("at least one delivery");

        // 5. Reply leg through the network: a dropped reply means the caller
        //    times out even though the servant already executed — the classic
        //    at-least-once hazard.
        match self.network.transmit(object.node(), from) {
            Delivery::Dropped => {
                return Err(OrbError::Timeout { operation: request.operation().to_owned() })
            }
            Delivery::Partitioned => {
                return Err(OrbError::Partitioned {
                    from: object.node().to_owned(),
                    to: from.to_owned(),
                })
            }
            Delivery::Delivered { .. } => {}
        }

        let mut reply = Reply::new(result?);
        if let Some(contexts) = reply_contexts {
            reply.contexts = contexts;
        }
        reply.deliveries = copies;
        Ok(reply)
    }
}

/// An interceptor's refusal as [`OrbError::InterceptorVeto`], naming the
/// interceptor unless it already is one.
fn as_veto(interceptor: &str, error: OrbError) -> OrbError {
    match error {
        veto @ OrbError::InterceptorVeto(_) => veto,
        other => OrbError::InterceptorVeto(format!("{interceptor}: {other}")),
    }
}

/// Tell every interceptor in `ran` (reverse order) that the invocation
/// failed without a reply.
fn notify_exception(ran: &[Arc<dyn ClientRequestInterceptor>], request: &Request, error: &OrbError) {
    for ci in ran.iter().rev() {
        ci.receive_exception(request, error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkStatsSnapshot;
    use crate::value::Value;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    struct Counter {
        hits: AtomicU32,
    }
    impl Servant for Counter {
        fn dispatch(&self, req: &Request) -> Result<Value, OrbError> {
            match req.operation() {
                "hit" => {
                    let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(Value::U64(u64::from(n)))
                }
                "fail" => Err(OrbError::Application("deliberate".into())),
                other => Err(OrbError::BadOperation(other.to_owned())),
            }
        }
    }

    fn counter() -> Arc<Counter> {
        Arc::new(Counter { hits: AtomicU32::new(0) })
    }

    /// A plain single call from outside the simulation.
    fn call(orb: &Orb, object: &ObjectRef, request: Request) -> Result<Reply, OrbError> {
        orb.invoke(EXTERNAL_CALLER, object, request, &RetryPolicy::none())
    }

    #[test]
    fn basic_invocation() {
        let orb = Orb::new();
        let node = orb.add_node("n1").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = call(&orb, &obj, Request::new("hit")).unwrap();
        assert_eq!(reply.result.as_u64(), Some(1));
        assert_eq!(c.hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn node_to_node_invocation() {
        let orb = Orb::new();
        let n1 = orb.add_node("n1").unwrap();
        let n2 = orb.add_node("n2").unwrap();
        let obj = n2.activate_arc("Counter", counter()).unwrap();
        let reply = orb.invoke(n1.name(), &obj, Request::new("hit"), &RetryPolicy::none()).unwrap();
        assert_eq!(reply.result.as_u64(), Some(1));
    }

    #[test]
    fn duplicate_node_rejected() {
        let orb = Orb::new();
        orb.add_node("n").unwrap();
        assert!(matches!(orb.add_node("n"), Err(OrbError::DuplicateNode(_))));
    }

    #[test]
    fn unknown_object_and_node() {
        let orb = Orb::new();
        let node = orb.add_node("n").unwrap();
        let obj = node.activate("C", |_req: &Request| Ok(Value::Null)).unwrap();
        assert!(node.deactivate(&obj));
        assert!(!node.deactivate(&obj));
        assert!(matches!(call(&orb, &obj, Request::new("x")), Err(OrbError::ObjectNotFound(_))));
        let ghost = ObjectRef::new(ObjectId::new(99, 1), "ghost", "C");
        assert!(matches!(call(&orb, &ghost, Request::new("x")), Err(OrbError::NodeNotFound(_))));
    }

    #[test]
    fn application_errors_propagate() {
        let orb = Orb::new();
        let node = orb.add_node("n").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        assert!(matches!(call(&orb, &obj, Request::new("fail")), Err(OrbError::Application(_))));
        assert!(matches!(call(&orb, &obj, Request::new("nope")), Err(OrbError::BadOperation(_))));
    }

    #[test]
    fn dropped_messages_time_out_and_retries_recover() {
        // 50% drop: a single shot will eventually fail, but at-least-once
        // delivery with a healthy budget succeeds.
        let orb = Orb::builder().network(NetworkConfig::lossy(0.5, 0.0, 11)).build();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("hit"), &RetryPolicy::immediate(65))
            .unwrap();
        assert!(reply.result.as_u64().unwrap() >= 1);
        assert!(c.hits.load(Ordering::SeqCst) >= 1);
        // Exactly the faults seed 11 draws: the first two attempts lose
        // their request legs, the third runs the servant once and its
        // reply arrives — two delivered legs at 100µs base latency each.
        assert_eq!(c.hits.load(Ordering::SeqCst), 1);
        assert_eq!(reply.result.as_u64(), Some(1));
        assert_eq!(
            orb.network().stats(),
            NetworkStatsSnapshot {
                sent: 4,
                delivered: 2,
                dropped: 2,
                duplicated: 0,
                partitioned: 0
            }
        );
        assert_eq!(orb.clock().now(), Duration::from_micros(200));
    }

    #[test]
    fn duplication_executes_servant_twice() {
        let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 1.0, 5)).build();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = call(&orb, &obj, Request::new("hit")).unwrap();
        assert_eq!(reply.deliveries, 2);
        assert_eq!(c.hits.load(Ordering::SeqCst), 2);
        // The reply carries the FIRST execution's result.
        assert_eq!(reply.result.as_u64(), Some(1));
        // Both legs duplicated, one base latency (100µs) each.
        assert_eq!(
            orb.network().stats(),
            NetworkStatsSnapshot {
                sent: 2,
                delivered: 2,
                dropped: 0,
                duplicated: 2,
                partitioned: 0
            }
        );
        assert_eq!(orb.clock().now(), Duration::from_micros(200));
    }

    #[test]
    fn at_least_once_does_not_retry_application_errors() {
        let orb = Orb::new();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let err = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("fail"), &RetryPolicy::immediate(11))
            .unwrap_err();
        assert!(matches!(err, OrbError::Application(_)));
    }

    #[test]
    fn policy_invocation_shares_one_delivery_id_across_redeliveries() {
        use crate::network::FaultScript;
        use crate::retry::RetryPolicy;
        use parking_lot::Mutex;

        let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 0.0, 7)).build();
        // Drop the first request leg (forcing a retry), duplicate the
        // retried one (forcing a redelivery): three servant-visible
        // deliveries of ONE logical call.
        orb.network().install_script(FaultScript::new().drop_nth(0).duplicate_nth(1));
        let node = orb.add_node("srv").unwrap();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let obj = node
            .activate("C", move |req: &Request| {
                seen2.lock().push(req.delivery_id().map(str::to_owned));
                Ok(Value::Null)
            })
            .unwrap();
        orb.invoke(EXTERNAL_CALLER, &obj, Request::new("x"), &RetryPolicy::immediate(3)).unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2, "dropped attempt never reached the servant");
        assert_eq!(seen[0], seen[1], "retry and duplicate share the logical id");
        assert!(seen[0].as_deref().unwrap().starts_with(EXTERNAL_CALLER));
    }

    #[test]
    fn policy_invocation_feeds_the_failure_detector() {
        use crate::detector::{DetectorConfig, FailureDetector, HealthStatus};
        use crate::retry::RetryPolicy;
        use std::time::Duration;

        let orb = Orb::builder().network(NetworkConfig::lossy(1.0, 0.0, 9)).build();
        let detector = FailureDetector::with_config(
            orb.clock().clone(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 3,
                probe_interval: Duration::from_millis(50),
            },
        );
        orb.set_detector(detector.clone());
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        let err = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("hit"), &RetryPolicy::immediate(3))
            .unwrap_err();
        assert!(matches!(err, OrbError::Timeout { .. }));
        assert_eq!(detector.status("srv"), HealthStatus::Quarantined);
        assert_eq!(detector.suspicion("srv"), 3, "one failure per attempt");
    }

    #[test]
    fn policy_invocation_respects_the_deadline() {
        use crate::retry::RetryPolicy;
        use std::time::Duration;

        let orb = Orb::builder().network(NetworkConfig::lossy(1.0, 0.0, 13)).build();
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        let policy = RetryPolicy::new(64)
            .with_base_backoff(Duration::from_millis(10))
            .with_deadline(Duration::from_millis(25));
        let err = orb.invoke(EXTERNAL_CALLER, &obj, Request::new("hit"), &policy).unwrap_err();
        assert!(matches!(err, OrbError::DeadlineExceeded { .. }), "{err:?}");
        assert!(orb.clock().now() <= Duration::from_millis(25));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let orb = Orb::new();
        let a = orb.add_node("a").unwrap();
        let b = orb.add_node("b").unwrap();
        let obj = b.activate_arc("Counter", counter()).unwrap();
        orb.network().partition(&[&["a"], &["b"]]);
        assert!(matches!(
            orb.invoke(a.name(), &obj, Request::new("hit"), &RetryPolicy::none()),
            Err(OrbError::Partitioned { .. })
        ));
        orb.network().heal();
        assert!(orb.invoke(a.name(), &obj, Request::new("hit"), &RetryPolicy::none()).is_ok());
    }

    #[test]
    fn interceptors_run_in_order_and_veto() {
        use crate::interceptor::ClientRequestInterceptor;
        struct Tag(&'static str);
        impl ClientRequestInterceptor for Tag {
            fn name(&self) -> &str {
                self.0
            }
            fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
                // Each interceptor appends its tag so order is observable.
                let prior = request
                    .contexts()
                    .get("tags")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                request.contexts_mut().set("tags", Value::Str(prior + self.0));
                Ok(())
            }
        }
        let orb = Orb::new();
        orb.add_client_interceptor(Arc::new(Tag("a")));
        orb.add_client_interceptor(Arc::new(Tag("b")));
        let node = orb.add_node("n").unwrap();
        let obj = node
            .activate("Echo", |req: &Request| {
                Ok(req.contexts().get("tags").cloned().unwrap_or(Value::Null))
            })
            .unwrap();
        let reply = call(&orb, &obj, Request::new("x")).unwrap();
        assert_eq!(reply.result.as_str(), Some("ab"));

        struct Nope;
        impl ClientRequestInterceptor for Nope {
            fn name(&self) -> &str {
                "nope"
            }
            fn send_request(&self, _r: &mut Request) -> Result<(), OrbError> {
                Err(OrbError::InterceptorVeto("blocked".into()))
            }
        }
        orb.add_client_interceptor(Arc::new(Nope));
        assert!(matches!(call(&orb, &obj, Request::new("x")), Err(OrbError::InterceptorVeto(_))));
    }

    #[test]
    fn retried_attempt_starts_from_the_callers_contexts() {
        use crate::interceptor::ClientRequestInterceptor;
        use crate::network::FaultScript;
        struct Stamp;
        impl ClientRequestInterceptor for Stamp {
            fn name(&self) -> &str {
                "stamp"
            }
            fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
                let prior = request
                    .contexts()
                    .get("stamps")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                request.contexts_mut().set("stamps", Value::Str(prior + "s"));
                Ok(())
            }
        }
        let orb = Orb::new();
        orb.network().install_script(FaultScript::new().drop_nth(0));
        orb.add_client_interceptor(Arc::new(Stamp));
        let node = orb.add_node("srv").unwrap();
        let obj = node
            .activate("Echo", |req: &Request| {
                let context = |key| req.contexts().get(key).cloned().unwrap_or(Value::Null);
                Ok(Value::List(vec![context("stamps"), context("caller")]))
            })
            .unwrap();
        let mut request = Request::new("x");
        request.contexts_mut().set("caller", Value::Bool(true));
        let reply =
            orb.invoke(EXTERNAL_CALLER, &obj, request, &RetryPolicy::immediate(3)).unwrap();
        assert_eq!(orb.network().stats().dropped, 1, "the first attempt was lost");
        assert_eq!(
            reply.result,
            Value::List(vec![Value::from("s"), Value::Bool(true)]),
            "the retry carries one stamp on top of the caller's own contexts"
        );
    }

    #[test]
    fn server_interceptor_sees_context() {
        use crate::interceptor::ServerRequestInterceptor;
        struct Require;
        impl ServerRequestInterceptor for Require {
            fn name(&self) -> &str {
                "require"
            }
            fn receive_request(&self, request: &Request) -> Result<(), OrbError> {
                if request.contexts().get("token").is_some() {
                    Ok(())
                } else {
                    Err(OrbError::InterceptorVeto("missing token".into()))
                }
            }
        }
        let orb = Orb::new();
        orb.add_server_interceptor(Arc::new(Require));
        let node = orb.add_node("n").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        assert!(call(&orb, &obj, Request::new("x")).is_err());
        let mut req = Request::new("x");
        req.contexts_mut().set("token", Value::Bool(true));
        assert!(call(&orb, &obj, req).is_ok());
    }

    #[test]
    fn server_veto_unwinds_the_interceptors_that_ran() {
        use crate::interceptor::ServerRequestInterceptor;
        struct Refuse;
        impl ServerRequestInterceptor for Refuse {
            fn name(&self) -> &str {
                "refuse"
            }
            fn receive_request(&self, _request: &Request) -> Result<(), OrbError> {
                Err(OrbError::Application("not today".into()))
            }
        }
        let telemetry = telemetry::Telemetry::new();
        let orb = Orb::builder().telemetry(telemetry.clone()).build();
        orb.add_server_interceptor(Arc::new(Refuse));
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        let err = call(&orb, &obj, Request::new("ping")).unwrap_err();
        assert!(matches!(err, OrbError::InterceptorVeto(_)), "{err:?}");
        // The span server interceptor ran before the veto: its `serve:`
        // span must be closed and off this thread's ambient stack.
        let tree = telemetry.span_tree();
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
        assert!(telemetry.current().is_none(), "serve span leaked onto the caller's thread");
    }

    #[test]
    fn span_interceptors_record_propagated_trees() {
        let telemetry = telemetry::Telemetry::new();
        let orb = Orb::builder().telemetry(telemetry.clone()).build();
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        call(&orb, &obj, Request::new("ping")).unwrap();
        let tree = telemetry.span_tree();
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
        let call = tree.find("call:ping").expect("client span");
        let serve = tree.find("serve:ping").expect("server span");
        assert_eq!(serve.context.trace_id, call.context.trace_id, "one trace end to end");
        assert_eq!(serve.context.parent, Some(call.context.span_id));
    }

    #[test]
    fn retry_attempts_become_tagged_child_spans() {
        use crate::network::FaultScript;
        use crate::retry::RetryPolicy;

        let telemetry = telemetry::Telemetry::new();
        let orb = Orb::builder().telemetry(telemetry.clone()).build();
        orb.network().install_script(FaultScript::new().drop_nth(0));
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        orb.invoke(EXTERNAL_CALLER, &obj, Request::new("x"), &RetryPolicy::immediate(3)).unwrap();
        let tree = telemetry.span_tree();
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
        let attempts: Vec<_> =
            tree.spans().iter().filter(|s| s.name == "attempt:x").collect();
        assert_eq!(attempts.len(), 2, "dropped first attempt plus the retry");
        assert_eq!(attempts[0].attr("attempt"), Some("0"));
        assert!(attempts[0].attr("error").is_some(), "first attempt timed out");
        assert_eq!(attempts[1].attr("attempt"), Some("1"));
        assert_eq!(
            attempts[0].attr("delivery_id"),
            attempts[1].attr("delivery_id"),
            "attempts share the logical delivery id"
        );
        assert_eq!(telemetry.metrics().counter_value("retry_attempts_total"), 1);
    }

    #[test]
    fn disabled_telemetry_records_nothing_on_the_invoke_path() {
        let telemetry = telemetry::Telemetry::disabled();
        let orb = Orb::builder().telemetry(telemetry.clone()).build();
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        call(&orb, &obj, Request::new("ping")).unwrap();
        assert_eq!(telemetry.span_count(), 0);
    }

    #[test]
    fn causal_plane_stamps_wire_events_end_to_end() {
        use telemetry::{CausalityPlane, FlightRecorder, RecordKind};
        let plane = CausalityPlane::new();
        let rec_a = FlightRecorder::new("a", 64);
        let rec_b = FlightRecorder::new("b", 64);
        plane.register(&rec_a);
        plane.register(&rec_b);
        let orb = Orb::new();
        orb.install_causality(plane.clone());
        let a = orb.add_node("a").unwrap();
        let b = orb.add_node("b").unwrap();
        let obj = b.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        orb.invoke(a.name(), &obj, Request::new("ping"), &RetryPolicy::none()).unwrap();

        // Four wire events: a sends, b receives, b sends the reply, a
        // receives it — two matched edges, each advancing the clock.
        let sends_a = rec_a.details_of_kind(RecordKind::WireSend);
        let recvs_b = rec_b.details_of_kind(RecordKind::WireRecv);
        assert_eq!(sends_a.len(), 1, "{sends_a:?}");
        assert_eq!(recvs_b.len(), 1, "{recvs_b:?}");
        assert_eq!(sends_a[0], recvs_b[0], "send and recv share token + route detail");
        assert!(sends_a[0].contains("ping a->b"), "{sends_a:?}");

        let dag = plane.merge().build();
        assert_eq!(dag.message_edges().len(), 2, "request and reply legs matched");
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
        for &(s, r) in dag.message_edges() {
            assert!(
                dag.events()[r].lamport > dag.events()[s].lamport,
                "receive stamp exceeds send stamp"
            );
        }
    }

    #[test]
    fn causal_plane_survives_duplication_and_loss() {
        use telemetry::{CausalityPlane, FlightRecorder, RecordKind};
        let plane = CausalityPlane::new();
        let rec = FlightRecorder::new("srv", 64);
        plane.register(&rec);
        // Every message duplicated: the servant runs twice per call.
        let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 1.0, 5)).build();
        orb.install_causality(plane.clone());
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = call(&orb, &obj, Request::new("hit")).unwrap();
        assert_eq!(reply.deliveries, 2);
        // Two receives of the one send (same token), two reply sends of
        // which only the first matched the caller's receive.
        assert_eq!(rec.details_of_kind(RecordKind::WireRecv).len(), 2);
        assert_eq!(rec.details_of_kind(RecordKind::WireSend).len(), 2);
        let dag = plane.merge().build();
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
    }

    #[test]
    fn every_invoke_carries_a_delivery_id() {
        use parking_lot::Mutex;
        let orb = Orb::new();
        let node = orb.add_node("srv").unwrap();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let obj = node
            .activate("C", move |req: &Request| {
                seen2.lock().push(req.delivery_id().map(str::to_owned));
                Ok(Value::Null)
            })
            .unwrap();
        // A plain single call stamps too: dedup-addressable
        // everywhere.
        call(&orb, &obj, Request::new("x")).unwrap();
        call(&orb, &obj, Request::new("x")).unwrap();
        let seen = seen.lock();
        assert!(seen[0].as_deref().unwrap().starts_with(EXTERNAL_CALLER));
        assert_ne!(seen[0], seen[1], "distinct logical calls get distinct ids");
    }

    #[test]
    fn orb_handles_are_shared() {
        let orb = Orb::new();
        let orb2 = orb.clone();
        orb.add_node("n").unwrap();
        assert!(orb2.node("n").is_ok());
    }
}
