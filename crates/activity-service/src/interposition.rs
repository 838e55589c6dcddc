//! Interposition: subordinate coordination across nodes.
//!
//! The paper's framework "permit\[s\] such transactions to span a network of
//! systems connected indirectly by some distribution infrastructure"
//! (§1). The standard way to realise that — in the OTS, in WS-Coordination
//! and in the Activity Service deployments the paper anticipates — is
//! *interposition*: a node-local **subordinate coordinator** registers with
//! the superior as if it were a single Action, and fans every received
//! Signal out to its local Actions, collating their Outcomes into the one
//! response the superior sees.
//!
//! Benefits, all observable in the tests:
//! * the superior's action list (and its per-signal network cost) is one
//!   entry per *node*, not per participant;
//! * local participants are signalled without any network hop;
//! * each organisation keeps its own participants private.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::action::Action;
use crate::error::{ActionError, ActivityError};
use crate::outcome::Outcome;
use crate::signal::Signal;

/// How a [`SubordinateRelay`] collapses its local outcomes into the single
/// outcome reported upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollationPolicy {
    /// `done` unless any local action responded negatively — then the
    /// first negative outcome is reported (vote semantics: one local abort
    /// aborts the node).
    #[default]
    AllMustSucceed,
    /// The first non-`done` outcome wins, but errors from individual
    /// actions do not veto the rest: report `done` if *any* succeeded
    /// (quorum-of-one, for notification-style sets).
    AnySuccess,
}

/// A node-local fan-out: registered with a *superior* coordinator as one
/// Action, it relays every signal to its own registered actions.
pub struct SubordinateRelay {
    name: String,
    policy: CollationPolicy,
    locals: Mutex<Vec<Arc<dyn Action>>>,
}

impl std::fmt::Debug for SubordinateRelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubordinateRelay")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("locals", &self.locals.lock().len())
            .finish()
    }
}

impl SubordinateRelay {
    /// An empty relay with the default (all-must-succeed) collation.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_policy(name, CollationPolicy::default())
    }

    /// An empty relay with an explicit collation policy.
    pub fn with_policy(name: impl Into<String>, policy: CollationPolicy) -> Arc<Self> {
        Arc::new(SubordinateRelay { name: name.into(), policy, locals: Mutex::new(Vec::new()) })
    }

    /// Register a local participant. Unlike superior-side registration this
    /// never crosses the network.
    pub fn register_local(&self, action: Arc<dyn Action>) {
        self.locals.lock().push(action);
    }

    /// Number of local participants.
    pub fn local_count(&self) -> usize {
        self.locals.lock().len()
    }

    /// Remove local registrations by action name; returns how many.
    pub fn unregister_local(&self, action_name: &str) -> usize {
        let mut locals = self.locals.lock();
        let before = locals.len();
        locals.retain(|a| a.name() != action_name);
        before - locals.len()
    }
}

impl Action for SubordinateRelay {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        let locals: Vec<Arc<dyn Action>> = self.locals.lock().clone();
        if locals.is_empty() {
            // Nothing enlisted locally: transparent success (like a
            // read-only participant).
            return Ok(Outcome::done());
        }
        let mut first_negative: Option<Outcome> = None;
        let mut successes = 0usize;
        for action in &locals {
            let outcome = match action.process_signal(signal) {
                Ok(outcome) => outcome,
                Err(e) => Outcome::from_error(e.message()),
            };
            if outcome.is_negative() {
                if first_negative.is_none() {
                    first_negative = Some(outcome);
                }
            } else {
                successes += 1;
            }
        }
        match self.policy {
            CollationPolicy::AllMustSucceed => match first_negative {
                Some(negative) => Ok(negative),
                None => Ok(Outcome::done().with_data(orb::Value::U64(successes as u64))),
            },
            CollationPolicy::AnySuccess => {
                if successes > 0 {
                    Ok(Outcome::done().with_data(orb::Value::U64(successes as u64)))
                } else {
                    Ok(first_negative.unwrap_or_else(Outcome::abort))
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Convenience: expose a relay on an ORB node and register a proxy to it
/// with a superior coordinator, in one step. The proxy delivers the
/// superior's signals to the relay under the caller's `policy`. Returns the
/// relay for local enlistment.
///
/// # Errors
///
/// Propagates activation failures.
pub fn interpose(
    superior: &crate::coordinator::ActivityCoordinator,
    set_name: &str,
    orb: &orb::Orb,
    node: &orb::Node,
    relay_name: impl Into<String>,
    policy: orb::RetryPolicy,
) -> Result<Arc<SubordinateRelay>, ActivityError> {
    let relay_name = relay_name.into();
    let relay = SubordinateRelay::new(relay_name.clone());
    let servant =
        crate::action::ActionServant::new(Arc::clone(&relay) as Arc<dyn Action>);
    let reference = node.activate("ActivityService:Subordinate", servant)?;
    let proxy = crate::action::RemoteActionProxy::new(
        relay_name,
        orb.clone(),
        node.name().to_owned(),
        reference,
    )
    .with_policy(policy);
    superior.register_action(set_name, Arc::new(proxy) as Arc<dyn Action>);
    Ok(relay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use crate::activity::Activity;
    use crate::signal_set::BroadcastSignalSet;
    use orb::{SimClock, Value};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn counting(name: &str, hits: Arc<AtomicU32>) -> Arc<dyn Action> {
        Arc::new(FnAction::new(name, move |_s: &Signal| {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }))
    }

    #[test]
    fn relay_fans_out_and_collates() {
        let relay = SubordinateRelay::new("node-b");
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..3 {
            relay.register_local(counting(&format!("local-{i}"), Arc::clone(&hits)));
        }
        assert_eq!(relay.local_count(), 3);
        let outcome = relay.process_signal(&Signal::new("go", "S")).unwrap();
        assert!(outcome.is_done());
        assert_eq!(outcome.data().as_u64(), Some(3));
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_relay_is_transparent() {
        let relay = SubordinateRelay::new("empty");
        assert!(relay.process_signal(&Signal::new("go", "S")).unwrap().is_done());
    }

    #[test]
    fn all_must_succeed_vetoes_on_any_negative() {
        let relay = SubordinateRelay::new("node");
        let hits = Arc::new(AtomicU32::new(0));
        relay.register_local(counting("ok", Arc::clone(&hits)));
        relay.register_local(Arc::new(FnAction::new("refuser", |_s: &Signal| {
            Ok(Outcome::abort())
        })));
        relay.register_local(counting("ok-2", Arc::clone(&hits)));
        let outcome = relay.process_signal(&Signal::new("prepare", "2pc")).unwrap();
        assert!(outcome.is_negative());
        // Everybody was still signalled (the superior decides what next).
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn any_success_policy_tolerates_failures() {
        let relay = SubordinateRelay::with_policy("node", CollationPolicy::AnySuccess);
        relay.register_local(Arc::new(FnAction::new("broken", |_s: &Signal| {
            Err(ActionError::new("down"))
        })));
        let hits = Arc::new(AtomicU32::new(0));
        relay.register_local(counting("ok", Arc::clone(&hits)));
        let outcome = relay.process_signal(&Signal::new("notify", "S")).unwrap();
        assert!(outcome.is_done());

        let all_broken = SubordinateRelay::with_policy("node2", CollationPolicy::AnySuccess);
        all_broken.register_local(Arc::new(FnAction::new("broken", |_s: &Signal| {
            Err(ActionError::new("down"))
        })));
        assert!(all_broken.process_signal(&Signal::new("notify", "S")).unwrap().is_negative());
    }

    #[test]
    fn unregister_local_by_name() {
        let relay = SubordinateRelay::new("node");
        let hits = Arc::new(AtomicU32::new(0));
        relay.register_local(counting("keep", Arc::clone(&hits)));
        relay.register_local(counting("drop", Arc::clone(&hits)));
        assert_eq!(relay.unregister_local("drop"), 1);
        assert_eq!(relay.unregister_local("ghost"), 0);
        relay.process_signal(&Signal::new("go", "S")).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn interposed_relay_costs_one_network_action() {
        // Superior on node A; three participants behind a relay on node B.
        let orb = orb::Orb::new();
        orb.add_node("superior-node").unwrap();
        let node_b = orb.add_node("subordinate-node").unwrap();

        let activity = Activity::new_root("distributed", SimClock::new());
        activity
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Complete", "finish", Value::Null)))
            .unwrap();
        let relay = interpose(
            activity.coordinator(),
            "Complete",
            &orb,
            &node_b,
            "node-b-relay",
            orb::RetryPolicy::immediate(9),
        )
        .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..3 {
            relay.register_local(counting(&format!("b-{i}"), Arc::clone(&hits)));
        }

        // Exactly ONE action at the superior…
        assert_eq!(activity.coordinator().action_count("Complete"), 1);
        let before = orb.network().stats().sent;
        let outcome = activity.signal("Complete").unwrap();
        assert!(outcome.is_done());
        // …but all three local participants ran…
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // …at the price of one request/reply pair, not three.
        let sent = orb.network().stats().sent - before;
        assert_eq!(sent, 2, "one request leg + one reply leg");
    }
}
