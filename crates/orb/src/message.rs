//! Request and reply messages exchanged between nodes.

use std::fmt;

use crate::context::ServiceContext;
use crate::value::{Value, ValueMap};

/// An invocation request: an operation name, named arguments, and the
/// service contexts that interceptors piggyback on the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    operation: String,
    args: ValueMap,
    contexts: ServiceContext,
    delivery_id: Option<String>,
    /// Route stamped by the invoke path before client interceptors run, when
    /// any are installed: source and target node names. Interceptors (e.g.
    /// the Lamport pair) read these to pick the right per-node state.
    source: Option<String>,
    target: Option<String>,
}

impl Request {
    /// Create a request for `operation` with no arguments.
    pub fn new(operation: impl Into<String>) -> Self {
        Request {
            operation: operation.into(),
            args: ValueMap::new(),
            contexts: ServiceContext::new(),
            delivery_id: None,
            source: None,
            target: None,
        }
    }

    /// Builder-style: add a named argument.
    #[must_use]
    pub fn with_arg(mut self, name: impl Into<String>, value: Value) -> Self {
        self.args.insert(name.into(), value);
        self
    }

    /// Builder-style: stamp the logical delivery id. Every retry and every
    /// network duplicate of this request carries the same id, so receivers
    /// behind a [`crate::dedup::DedupWindow`] process it effect-once.
    #[must_use]
    pub fn with_delivery_id(mut self, id: impl Into<String>) -> Self {
        self.delivery_id = Some(id.into());
        self
    }

    /// Stamp the logical delivery id in place (the invoke path uses this to
    /// stamp once per logical call, before the first attempt).
    pub fn set_delivery_id(&mut self, id: impl Into<String>) {
        self.delivery_id = Some(id.into());
    }

    /// The logical delivery id, if stamped.
    pub fn delivery_id(&self) -> Option<&str> {
        self.delivery_id.as_deref()
    }

    /// Stamp the route (source and target node names). The invoke path
    /// calls this once per call that an interceptor will see.
    pub fn set_route(&mut self, source: impl Into<String>, target: impl Into<String>) {
        self.source = Some(source.into());
        self.target = Some(target.into());
    }

    /// The source node name, once routed.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The target node name, once routed.
    pub fn target(&self) -> Option<&str> {
        self.target.as_deref()
    }

    /// The operation name.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// Look up a named argument.
    pub fn arg(&self, name: &str) -> Option<&Value> {
        self.args.get(name)
    }

    /// All arguments, in name order.
    pub fn args(&self) -> &ValueMap {
        &self.args
    }

    /// The attached service contexts (read-only).
    pub fn contexts(&self) -> &ServiceContext {
        &self.contexts
    }

    /// The attached service contexts (mutable; used by client interceptors).
    pub fn contexts_mut(&mut self) -> &mut ServiceContext {
        &mut self.contexts
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} args)", self.operation, self.args.len())
    }
}

/// A successful reply: the servant's result plus reply-side service contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The servant's return value.
    pub result: Value,
    /// Service contexts attached on the way back (server interceptors).
    pub contexts: ServiceContext,
    /// How many times the request was actually delivered to the servant —
    /// `> 1` when the network duplicated the message. Exposed so tests can
    /// assert at-least-once behaviour.
    pub deliveries: u32,
}

impl Reply {
    /// Wrap a plain result with empty contexts.
    pub fn new(result: Value) -> Self {
        Reply { result, contexts: ServiceContext::new(), deliveries: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let req = Request::new("book")
            .with_arg("room", Value::from("101"))
            .with_arg("nights", Value::from(3i64));
        assert_eq!(req.operation(), "book");
        assert_eq!(req.arg("room").and_then(Value::as_str), Some("101"));
        assert_eq!(req.arg("nights").and_then(Value::as_i64), Some(3));
        assert!(req.arg("missing").is_none());
        assert_eq!(req.args().len(), 2);
        assert_eq!(req.to_string(), "book(2 args)");
    }

    #[test]
    fn delivery_id_is_stamped_once_and_survives_clones() {
        let req = Request::new("op");
        assert!(req.delivery_id().is_none());
        let mut req = req.with_delivery_id("coordinator#7");
        assert_eq!(req.delivery_id(), Some("coordinator#7"));
        // A copy of the stamped request carries the same id.
        assert_eq!(req.clone().delivery_id(), Some("coordinator#7"));
        req.set_delivery_id("coordinator#8");
        assert_eq!(req.delivery_id(), Some("coordinator#8"));
    }

    #[test]
    fn contexts_are_mutable() {
        let mut req = Request::new("op");
        req.contexts_mut().set("svc", Value::from(1i64));
        assert_eq!(req.contexts().len(), 1);
    }

    #[test]
    fn reply_defaults() {
        let r = Reply::new(Value::from(5i64));
        assert_eq!(r.deliveries, 1);
        assert!(r.contexts.is_empty());
    }
}
