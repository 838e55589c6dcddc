//! The process-wide Activity Service: thread association, ORB integration,
//! durable logging.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use orb::context::ACTIVITY_SERVICE_CONTEXT;
use orb::interceptor::{ClientRequestInterceptor, ServerRequestInterceptor};
use orb::{Orb, Reply, Request, SimClock};
use parking_lot::Mutex;
use recovery_log::Wal;
use telemetry::{SpanContext, Telemetry};

use crate::activity::Activity;
use crate::activity::ActivityId;
use crate::completion::CompletionStatus;
use crate::context::ActivityContext;
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::recovery::ActivityLogger;

thread_local! {
    /// Innermost-last stack of thread-associated activities.
    static CURRENT: RefCell<Vec<Activity>> = const { RefCell::new(Vec::new()) };
    /// Contexts received with in-flight inbound requests (server side).
    static RECEIVED: RefCell<Vec<Option<ActivityContext>>> = const { RefCell::new(Vec::new()) };
}

struct ServiceInner {
    clock: SimClock,
    logger: Option<Arc<ActivityLogger>>,
    id_source: Arc<AtomicU64>,
    roots: Mutex<Vec<Activity>>,
    /// Node-local stores backing by-reference property groups (§3.3).
    shared_groups: crate::property::PropertyGroupManager,
    telemetry: Mutex<Option<Telemetry>>,
    /// Live activity → its `activity:` span, so child activities parent
    /// under their *enclosing activity's* span (fig. 4 nesting) rather
    /// than whatever happens to be ambient, and suspend/resume can move
    /// the ambient association between threads.
    activity_spans: Mutex<HashMap<ActivityId, SpanContext>>,
}

/// The Activity Service: creates activities, associates them with threads,
/// and (when attached to an [`Orb`]) propagates their context implicitly on
/// every remote invocation.
///
/// Cheap to clone; clones share state.
#[derive(Clone)]
pub struct ActivityService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for ActivityService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivityService")
            .field("roots", &self.inner.roots.lock().len())
            .field("logged", &self.inner.logger.is_some())
            .finish()
    }
}

/// Configures and builds an [`ActivityService`].
#[derive(Default)]
pub struct ActivityServiceBuilder {
    clock: Option<SimClock>,
    wal: Option<Arc<dyn Wal>>,
    first_id: u64,
}

impl std::fmt::Debug for ActivityServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivityServiceBuilder")
            .field("logged", &self.wal.is_some())
            .field("first_id", &self.first_id)
            .finish()
    }
}

impl ActivityServiceBuilder {
    /// Share a virtual clock (for timeouts and simulated-time metrics).
    #[must_use]
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Log activity lifecycle records to `wal`, enabling recovery.
    #[must_use]
    pub fn wal(mut self, wal: Arc<dyn Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Continue activity ids from `first_id` (used after recovery).
    #[must_use]
    pub fn first_id(mut self, first_id: u64) -> Self {
        self.first_id = first_id;
        self
    }

    /// Build the service.
    pub fn build(self) -> ActivityService {
        ActivityService {
            inner: Arc::new(ServiceInner {
                clock: self.clock.unwrap_or_default(),
                logger: self.wal.map(ActivityLogger::new),
                id_source: Arc::new(AtomicU64::new(self.first_id.max(1))),
                roots: Mutex::new(Vec::new()),
                shared_groups: crate::property::PropertyGroupManager::new(),
                telemetry: Mutex::new(None),
                activity_spans: Mutex::new(HashMap::new()),
            }),
        }
    }
}

impl Default for ActivityService {
    fn default() -> Self {
        Self::new()
    }
}

impl ActivityService {
    /// A volatile service (no recovery log), fresh clock.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Start configuring a service.
    pub fn builder() -> ActivityServiceBuilder {
        ActivityServiceBuilder::default()
    }

    /// The service's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Attach a telemetry recorder: every `begin`/`complete` pair becomes
    /// an `activity:` span, nested to mirror the fig. 4 activity tree.
    /// Attach the *same* recorder to the ORB (via
    /// [`orb::node::OrbBuilder::telemetry`]) and to coordinators so
    /// remote invocations and protocol runs land in the same traces.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.inner.telemetry.lock() = Some(telemetry);
    }

    fn telemetry_handle(&self) -> Option<Telemetry> {
        self.inner.telemetry.lock().clone().filter(Telemetry::is_enabled)
    }

    fn close_activity_span(&self, id: ActivityId, outcome: &Outcome) {
        if let Some(telemetry) = self.telemetry_handle() {
            if let Some(span) = self.inner.activity_spans.lock().remove(&id) {
                telemetry.set_attr(&span, "outcome", outcome.name());
                telemetry.exit();
                telemetry.end(&span);
            }
        }
    }

    /// Begin an activity and associate it with the calling thread. When the
    /// thread already has an activity, the new one is its child.
    ///
    /// # Errors
    ///
    /// Propagates [`Activity::begin_child`] failures.
    pub fn begin(&self, name: impl Into<String>) -> Result<Activity, ActivityError> {
        let parent = Self::peek();
        let activity = match &parent {
            Some(parent) => parent.begin_child(name)?,
            None => {
                let root = Activity::new_root_with(
                    name,
                    self.inner.clock.clone(),
                    self.inner.logger.clone(),
                    Arc::clone(&self.inner.id_source),
                );
                self.inner.roots.lock().push(root.clone());
                root
            }
        };
        if let Some(telemetry) = self.telemetry_handle() {
            // Mirror the fig. 4 activity tree: a nested activity's span is
            // a child of its enclosing activity's span; a root activity
            // parents under whatever is ambient (e.g. a `serve:` span on
            // an interposed node) or starts a fresh trace.
            let parent_span = parent
                .as_ref()
                .and_then(|p| self.inner.activity_spans.lock().get(&p.id()).copied());
            let span_name = format!("activity:{}", activity.name());
            let span = match parent_span {
                Some(parent_span) => telemetry.start_child(&parent_span, &span_name),
                None => telemetry.start_span(&span_name),
            };
            telemetry.set_attr(&span, "id", &activity.id().to_string());
            telemetry.enter(span);
            self.inner.activity_spans.lock().insert(activity.id(), span);
        }
        CURRENT.with(|c| c.borrow_mut().push(activity.clone()));
        Ok(activity)
    }

    /// The thread's innermost associated activity.
    pub fn current(&self) -> Option<Activity> {
        Self::peek()
    }

    /// Nesting depth of the thread association (0 = none).
    pub fn depth(&self) -> usize {
        CURRENT.with(|c| c.borrow().len())
    }

    /// Complete the innermost associated activity with its current status
    /// and disassociate it. The association is kept when completion fails
    /// (e.g. children still active) so the caller can repair and retry.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`] when the thread has none;
    /// otherwise see [`Activity::complete`].
    pub fn complete(&self) -> Result<Outcome, ActivityError> {
        let activity = Self::peek().ok_or(ActivityError::NoCurrentActivity)?;
        let outcome = activity.complete()?;
        self.close_activity_span(activity.id(), &outcome);
        Self::pop();
        Ok(outcome)
    }

    /// Like [`ActivityService::complete`] with an explicit status.
    ///
    /// # Errors
    ///
    /// Same as [`ActivityService::complete`].
    pub fn complete_with_status(
        &self,
        status: CompletionStatus,
    ) -> Result<Outcome, ActivityError> {
        let activity = Self::peek().ok_or(ActivityError::NoCurrentActivity)?;
        let outcome = activity.complete_with_status(status)?;
        self.close_activity_span(activity.id(), &outcome);
        Self::pop();
        Ok(outcome)
    }

    /// Suspend the thread association (not the activity itself): detach and
    /// return the innermost activity so it can be resumed on any thread.
    ///
    /// # Errors
    ///
    /// [`ActivityError::NoCurrentActivity`] when the thread has none.
    pub fn suspend(&self) -> Result<Activity, ActivityError> {
        let activity = CURRENT
            .with(|c| c.borrow_mut().pop())
            .ok_or(ActivityError::NoCurrentActivity)?;
        if let Some(telemetry) = self.telemetry_handle() {
            // The span stays open (the activity is alive); only the
            // thread's ambient association moves with the activity.
            if self.inner.activity_spans.lock().contains_key(&activity.id()) {
                telemetry.exit();
            }
        }
        Ok(activity)
    }

    /// Re-associate a previously suspended activity with this thread.
    pub fn resume(&self, activity: Activity) {
        if let Some(telemetry) = self.telemetry_handle() {
            if let Some(span) = self.inner.activity_spans.lock().get(&activity.id()).copied() {
                telemetry.enter(span);
            }
        }
        CURRENT.with(|c| c.borrow_mut().push(activity));
    }

    /// All root activities created through this service.
    pub fn roots(&self) -> Vec<Activity> {
        self.inner.roots.lock().clone()
    }

    /// Register the client and server interceptors that give this ORB
    /// implicit activity-context propagation (fig. 3: the framework rides
    /// beside the ORB).
    pub fn attach_to_orb(&self, orb: &Orb) {
        orb.add_client_interceptor(Arc::new(ActivityClientInterceptor));
        orb.add_server_interceptor(Arc::new(ActivityServerInterceptor));
    }

    /// The activity context that arrived with the inbound request currently
    /// being dispatched on this thread, if any. Servants call this to learn
    /// which (remote) activity they are working for.
    pub fn received_context() -> Option<ActivityContext> {
        RECEIVED.with(|r| r.borrow().last().cloned().flatten())
    }

    /// Publish a node-local property group under its spec name, so
    /// by-*reference* groups named in received contexts resolve here
    /// (§3.3: "whether properties are propagated by value or by
    /// reference" — by-reference propagation sends only the name; the
    /// receiving node supplies the store).
    pub fn publish_shared_group(&self, group: Arc<dyn crate::property::PropertyGroup>) {
        self.inner.shared_groups.register(group);
    }

    /// Materialise the received context's property groups against this
    /// service: by-value groups become fresh local stores loaded with the
    /// transported snapshot; by-reference names resolve to the node's
    /// published shared groups (unresolvable names are simply absent — the
    /// caller decides whether that is an error).
    pub fn materialize_received_properties(
        &self,
    ) -> Vec<Arc<dyn crate::property::PropertyGroup>> {
        let Some(context) = Self::received_context() else {
            return Vec::new();
        };
        let mut groups: Vec<Arc<dyn crate::property::PropertyGroup>> = Vec::new();
        for (name, snapshot) in &context.properties {
            groups.push(crate::property::BasicPropertyGroup::with_properties(
                crate::property::PropertyGroupSpec::new(name.clone()),
                snapshot.clone(),
            ));
        }
        for name in &context.by_reference {
            if let Ok(group) = self.inner.shared_groups.group(name) {
                groups.push(group);
            }
        }
        groups
    }

    fn peek() -> Option<Activity> {
        CURRENT.with(|c| c.borrow().last().cloned())
    }

    fn pop() {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Stamps the thread's current activity context into outgoing requests.
#[derive(Debug)]
struct ActivityClientInterceptor;

impl ClientRequestInterceptor for ActivityClientInterceptor {
    fn name(&self) -> &str {
        "activity-service-client"
    }

    fn send_request(&self, request: &mut Request) -> Result<(), orb::OrbError> {
        if let Some(activity) = CURRENT.with(|c| c.borrow().last().cloned()) {
            let context = ActivityContext::capture(&activity);
            request
                .contexts_mut()
                .set(ACTIVITY_SERVICE_CONTEXT, context.to_value());
        }
        Ok(())
    }
}

/// Establishes the received activity context around servant dispatch.
#[derive(Debug)]
struct ActivityServerInterceptor;

impl ServerRequestInterceptor for ActivityServerInterceptor {
    fn name(&self) -> &str {
        "activity-service-server"
    }

    fn receive_request(&self, request: &Request) -> Result<(), orb::OrbError> {
        let context = match request.contexts().get(ACTIVITY_SERVICE_CONTEXT) {
            Some(value) => Some(
                ActivityContext::from_value(value)
                    .map_err(|e| orb::OrbError::Codec(e.to_string()))?,
            ),
            None => None,
        };
        RECEIVED.with(|r| r.borrow_mut().push(context));
        Ok(())
    }

    fn send_reply(&self, _request: &Request, _reply: &mut Reply) {
        RECEIVED.with(|r| {
            r.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::node::EXTERNAL_CALLER;
    use orb::{RetryPolicy, Servant, Value};

    #[test]
    fn begin_complete_association() {
        let svc = ActivityService::new();
        assert!(svc.current().is_none());
        assert!(matches!(svc.complete(), Err(ActivityError::NoCurrentActivity)));

        let a = svc.begin("root").unwrap();
        assert_eq!(svc.current().unwrap().id(), a.id());
        let b = svc.begin("child").unwrap();
        assert_eq!(b.parent().unwrap().id(), a.id());
        assert_eq!(svc.depth(), 2);
        svc.complete().unwrap();
        assert_eq!(svc.current().unwrap().id(), a.id());
        svc.complete().unwrap();
        assert!(svc.current().is_none());
        assert_eq!(svc.roots().len(), 1);
    }

    #[test]
    fn activity_spans_mirror_fig4_nesting() {
        let svc = ActivityService::new();
        let tel = Telemetry::new();
        svc.set_telemetry(tel.clone());
        svc.begin("outer").unwrap();
        svc.begin("inner").unwrap();
        svc.complete().unwrap();
        svc.complete().unwrap();

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "activity:outer");
        let children = tree.children(roots[0].context.span_id);
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].name, "activity:inner");
        assert_eq!(children[0].attr("outcome"), Some("done"));
    }

    #[test]
    fn suspended_activity_resumes_its_span_on_another_thread() {
        let svc = ActivityService::new();
        let tel = Telemetry::new();
        svc.set_telemetry(tel.clone());
        svc.begin("mobile").unwrap();
        let detached = svc.suspend().unwrap();
        assert!(tel.current().is_none(), "suspend detaches the ambient span");
        let svc2 = svc.clone();
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            svc2.resume(detached);
            // Work on the resuming thread parents under the activity span.
            let span = tel2.start_span("work");
            tel2.end(&span);
            svc2.complete().unwrap();
        })
        .join()
        .unwrap();
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        let root = &tree.roots()[0];
        assert_eq!(root.name, "activity:mobile");
        assert_eq!(tree.children(root.context.span_id)[0].name, "work");
    }

    #[test]
    fn failed_completion_keeps_association() {
        let svc = ActivityService::new();
        svc.begin("root").unwrap();
        let _child = svc.begin("child").unwrap();
        let child_handle = svc.suspend().unwrap();
        // Root is now innermost but its child is still active.
        assert!(matches!(svc.complete(), Err(ActivityError::ChildrenActive(_))));
        assert!(svc.current().is_some(), "association survives the failure");
        svc.resume(child_handle);
        svc.complete().unwrap(); // child
        svc.complete().unwrap(); // root
    }

    #[test]
    fn suspend_resume_across_threads() {
        let svc = ActivityService::new();
        let a = svc.begin("mobile").unwrap();
        let detached = svc.suspend().unwrap();
        assert!(svc.current().is_none());
        let svc2 = svc.clone();
        std::thread::spawn(move || {
            assert!(svc2.current().is_none(), "fresh thread has no association");
            svc2.resume(detached);
            assert_eq!(svc2.current().unwrap().id(), a.id());
            svc2.complete().unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn context_propagates_through_orb() {
        let orb = Orb::new();
        let svc = ActivityService::new();
        svc.attach_to_orb(&orb);
        let node = orb.add_node("server").unwrap();

        struct Reporter;
        impl Servant for Reporter {
            fn dispatch(&self, _request: &Request) -> Result<Value, orb::OrbError> {
                match ActivityService::received_context() {
                    Some(ctx) => Ok(Value::Str(
                        ctx.chain
                            .iter()
                            .map(|e| e.name.clone())
                            .collect::<Vec<_>>()
                            .join("/"),
                    )),
                    None => Ok(Value::Null),
                }
            }
        }
        let obj = node.activate("Reporter", Reporter).unwrap();

        // No activity: no context.
        let reply = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("whoami"), &RetryPolicy::none())
            .unwrap();
        assert!(reply.result.is_null());

        // Inside an activity chain: the chain travels implicitly.
        svc.begin("outer").unwrap();
        svc.begin("inner").unwrap();
        let reply = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("whoami"), &RetryPolicy::none())
            .unwrap();
        assert_eq!(reply.result.as_str(), Some("outer/inner"));
        svc.complete().unwrap();
        let reply = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("whoami"), &RetryPolicy::none())
            .unwrap();
        assert_eq!(reply.result.as_str(), Some("outer"));
        svc.complete().unwrap();

        // Context cleared after dispatch.
        assert!(ActivityService::received_context().is_none());
    }

    #[test]
    fn by_value_properties_travel() {
        use crate::property::{BasicPropertyGroup, PropertyGroup, PropertyGroupSpec};
        let orb = Orb::new();
        let svc = ActivityService::new();
        svc.attach_to_orb(&orb);
        let node = orb.add_node("server").unwrap();

        struct PropReader;
        impl Servant for PropReader {
            fn dispatch(&self, _request: &Request) -> Result<Value, orb::OrbError> {
                let ctx = ActivityService::received_context()
                    .ok_or_else(|| orb::OrbError::Application("no context".into()))?;
                let (_, snapshot) = ctx
                    .properties
                    .iter()
                    .find(|(g, _)| g == "env")
                    .ok_or_else(|| orb::OrbError::Application("no env group".into()))?;
                Ok(snapshot.get("locale").cloned().unwrap_or(Value::Null))
            }
        }
        let obj = node.activate("PropReader", PropReader).unwrap();

        let a = svc.begin("job").unwrap();
        let group = BasicPropertyGroup::new(PropertyGroupSpec::new("env"));
        group.set("locale", Value::from("de_DE"));
        a.properties().register(group);
        let reply = orb
            .invoke(EXTERNAL_CALLER, &obj, Request::new("locale"), &RetryPolicy::none())
            .unwrap();
        assert_eq!(reply.result.as_str(), Some("de_DE"));
        svc.complete().unwrap();
    }
}

#[cfg(test)]
mod by_reference_tests {
    use super::*;
    use crate::property::{
        BasicPropertyGroup, Propagation, PropertyGroup, PropertyGroupSpec,
    };
    use orb::node::EXTERNAL_CALLER;
    use orb::{RetryPolicy, Servant, Value};

    #[test]
    fn by_reference_groups_resolve_on_the_receiving_node() {
        let orb = Orb::new();
        // One logical service per "node"; the receiving side publishes the
        // shared configuration store under the advertised name.
        let sender = ActivityService::new();
        let receiver = ActivityService::new();
        sender.attach_to_orb(&orb);
        let node = orb.add_node("server").unwrap();

        let shared = BasicPropertyGroup::new(
            PropertyGroupSpec::new("site-config").propagation(Propagation::ByReference),
        );
        shared.set("region", Value::from("eu-west"));
        receiver.publish_shared_group(shared);

        struct ConfigReader {
            service: ActivityService,
        }
        impl Servant for ConfigReader {
            fn dispatch(&self, _request: &Request) -> Result<Value, orb::OrbError> {
                let groups = self.service.materialize_received_properties();
                let site = groups
                    .iter()
                    .find(|g| g.spec().name == "site-config")
                    .ok_or_else(|| orb::OrbError::Application("no site-config".into()))?;
                Ok(site.get("region").unwrap_or(Value::Null))
            }
        }
        let obj = node
            .activate("ConfigReader", ConfigReader { service: receiver.clone() })
            .unwrap();

        // The sender's activity declares (but does not ship) the group.
        let activity = sender.begin("job").unwrap();
        activity.properties().register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("site-config").propagation(Propagation::ByReference),
        ));
        let reply =
            orb.invoke(EXTERNAL_CALLER, &obj, Request::new("read"), &RetryPolicy::none()).unwrap();
        assert_eq!(reply.result.as_str(), Some("eu-west"));
        sender.complete().unwrap();
    }

    #[test]
    fn by_value_groups_materialize_as_fresh_stores() {
        let orb = Orb::new();
        let sender = ActivityService::new();
        let receiver = ActivityService::new();
        sender.attach_to_orb(&orb);
        let node = orb.add_node("server").unwrap();

        struct SnapshotReader {
            service: ActivityService,
        }
        impl Servant for SnapshotReader {
            fn dispatch(&self, _request: &Request) -> Result<Value, orb::OrbError> {
                let groups = self.service.materialize_received_properties();
                let env = groups
                    .iter()
                    .find(|g| g.spec().name == "env")
                    .ok_or_else(|| orb::OrbError::Application("no env".into()))?;
                // Mutations stay local to the receiver's materialised copy.
                env.set("touched", Value::Bool(true));
                Ok(env.get("locale").unwrap_or(Value::Null))
            }
        }
        let obj = node
            .activate("SnapshotReader", SnapshotReader { service: receiver.clone() })
            .unwrap();

        let activity = sender.begin("job").unwrap();
        let env = BasicPropertyGroup::new(PropertyGroupSpec::new("env"));
        env.set("locale", Value::from("sv_SE"));
        activity.properties().register(Arc::clone(&env) as Arc<dyn PropertyGroup>);
        let reply =
            orb.invoke(EXTERNAL_CALLER, &obj, Request::new("read"), &RetryPolicy::none()).unwrap();
        assert_eq!(reply.result.as_str(), Some("sv_SE"));
        // The sender's group was not mutated by the receiver.
        assert_eq!(env.get("touched"), None);
        sender.complete().unwrap();
    }

    #[test]
    fn unresolvable_references_are_absent_not_fatal() {
        let service = ActivityService::new();
        assert!(service.materialize_received_properties().is_empty());
    }
}
