//! The live introspection plane: a read-only management servant per node.
//!
//! Following the management interfaces that made advanced CORBA services
//! operable in practice, every node can activate one [`Introspection`]
//! servant and register named **probes** — closures that render one
//! layer's current state (the OTS in-doubt set, WAL flush watermarks,
//! failure-detector standings, dedup-window occupancy, the flight-recorder
//! tail, the activity tree). Operators (and the `introspect` bench binary)
//! then query any node **over the wire**, through the same simulated ORB
//! the protocols run on:
//!
//! | operation | args | reply |
//! |---|---|---|
//! | `list` | — | comma-separated probe names |
//! | `query` | `probe` (string) | that probe's rendering |
//! | `snapshot` | — | every probe, labelled, in name order |
//!
//! Probes are strictly read-only by convention: a probe closure must only
//! render state, never mutate it, so introspection cannot perturb a
//! protocol run (the harness's byte-identity guards would catch it if it
//! did).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::OrbError;
use crate::message::Request;
use crate::node::Node;
use crate::object::{ObjectRef, Servant};
use crate::value::Value;

/// Interface name the introspection servant is activated under.
pub const INTROSPECTION_INTERFACE: &str = "Introspection";

type Probe = Arc<dyn Fn() -> String + Send + Sync>;

/// Read-only management servant: named probes over one node's state.
pub struct Introspection {
    node: String,
    probes: Mutex<BTreeMap<String, Probe>>,
}

impl Introspection {
    /// An empty introspection surface for `node`.
    pub fn new(node: &str) -> Arc<Introspection> {
        Arc::new(Introspection { node: node.to_string(), probes: Mutex::new(BTreeMap::new()) })
    }

    /// Activate a fresh introspection servant on `node` under
    /// [`INTROSPECTION_INTERFACE`], returning the servant handle (to
    /// register probes on) and its wire reference.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] if the owning ORB is gone.
    pub fn install(node: &Node) -> Result<(Arc<Introspection>, ObjectRef), OrbError> {
        let servant = Introspection::new(node.name());
        let object =
            node.activate_arc(INTROSPECTION_INTERFACE, Arc::clone(&servant) as Arc<dyn Servant>)?;
        Ok((servant, object))
    }

    /// Which node this surface describes.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Register (or replace) a probe. `probe` must be read-only.
    pub fn register(&self, name: &str, probe: impl Fn() -> String + Send + Sync + 'static) {
        self.probes.lock().insert(name.to_string(), Arc::new(probe));
    }

    /// Registered probe names, sorted.
    pub fn probe_names(&self) -> Vec<String> {
        self.probes.lock().keys().cloned().collect()
    }

    /// Run one probe locally.
    pub fn query(&self, name: &str) -> Option<String> {
        let probe = self.probes.lock().get(name).cloned();
        probe.map(|p| p())
    }

    /// Every probe's rendering, labelled and indented, in name order.
    pub fn snapshot(&self) -> String {
        let probes: Vec<(String, Probe)> =
            self.probes.lock().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        let mut out = String::new();
        let _ = writeln!(out, "node {}:", self.node);
        for (name, probe) in probes {
            let _ = writeln!(out, "  {name}:");
            let rendered = probe();
            if rendered.trim().is_empty() {
                let _ = writeln!(out, "    (empty)");
            } else {
                for line in rendered.lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        out
    }
}

impl Servant for Introspection {
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        match request.operation() {
            "list" => Ok(Value::from(self.probe_names().join(","))),
            "query" => {
                let name = request
                    .arg("probe")
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::BadOperation("query needs a 'probe' arg".into()))?;
                match self.query(name) {
                    Some(rendered) => Ok(Value::from(rendered)),
                    None => Err(OrbError::BadOperation(format!(
                        "no probe '{name}' on node {}",
                        self.node
                    ))),
                }
            }
            "snapshot" => Ok(Value::from(self.snapshot())),
            other => Err(OrbError::BadOperation(format!(
                "introspection has no operation '{other}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Orb, EXTERNAL_CALLER};
    use crate::retry::RetryPolicy;

    #[test]
    fn probes_render_locally_and_over_the_wire() {
        let orb = Orb::builder().build();
        let node = orb.add_node("alpha").expect("node");
        let (servant, object) = Introspection::install(&node).expect("install");
        servant.register("wal", || "flush_lsn=7".to_string());
        servant.register("detector", || "store: Healthy\nledger: Suspect".to_string());

        // Local surface.
        assert_eq!(servant.probe_names(), vec!["detector".to_string(), "wal".to_string()]);
        assert_eq!(servant.query("wal").as_deref(), Some("flush_lsn=7"));
        assert!(servant.query("nope").is_none());
        let snap = servant.snapshot();
        assert!(snap.contains("node alpha:"), "{snap}");
        assert!(snap.contains("    flush_lsn=7"), "{snap}");

        // Over the wire, like any other servant.
        let ask = |request| orb.invoke(EXTERNAL_CALLER, &object, request, &RetryPolicy::none());
        let reply = ask(Request::new("list")).expect("list");
        assert_eq!(reply.result.as_str(), Some("detector,wal"));
        let reply =
            ask(Request::new("query").with_arg("probe", Value::from("wal"))).expect("query");
        assert_eq!(reply.result.as_str(), Some("flush_lsn=7"));
        let reply = ask(Request::new("snapshot")).expect("snapshot");
        assert!(reply.result.as_str().unwrap_or_default().contains("ledger: Suspect"));

        // Unknown probes and operations are errors, not panics.
        assert!(ask(Request::new("query").with_arg("probe", Value::from("zz"))).is_err());
        assert!(ask(Request::new("mutate")).is_err());
    }

    #[test]
    fn empty_probe_renders_placeholder() {
        let servant = Introspection::new("beta");
        servant.register("in_doubt", String::new);
        let snap = servant.snapshot();
        assert!(snap.contains("(empty)"), "{snap}");
    }
}
