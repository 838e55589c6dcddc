//! Quickstart: the fig. 3 stack in one file.
//!
//! Walks the layers bottom-up — ORB, Activity Service, a SignalSet/Action
//! protocol, and the fig. 13 high-level API — for a tiny "quote request"
//! business activity.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use activity_service::{
    ActivityManager, ActivityService, BroadcastSignalSet, FnAction, Outcome, Signal, UserActivity,
};
use orb::node::EXTERNAL_CALLER;
use orb::{Orb, Request, RetryPolicy, Servant, Value};

/// A trivial remote service so the example exercises real invocations.
struct QuoteService;

impl Servant for QuoteService {
    fn dispatch(&self, request: &Request) -> Result<Value, orb::OrbError> {
        // The Activity Service context rides along implicitly; a real
        // service would key its work on it.
        let from = activity_service::ActivityService::received_context()
            .and_then(|ctx| ctx.current().map(|e| e.name.clone()))
            .unwrap_or_else(|| "<no activity>".to_owned());
        let item = request.arg("item").and_then(Value::as_str).unwrap_or("?").to_owned();
        println!("  [server] quoting {item:?} for activity {from:?}");
        Ok(Value::F64(99.5))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Underlying platform: the (simulated) ORB. -----------------------
    let orb = Orb::new();
    let node = orb.add_node("quote-node")?;
    let quote_svc = node.activate("QuoteService", QuoteService)?;
    orb.registry().bind("services/quotes", quote_svc)?;

    // --- Activity Service, attached so contexts propagate implicitly. ----
    let service = ActivityService::new();
    service.attach_to_orb(&orb);

    // --- Fig. 13: the application sees UserActivity; the HLS implementer
    //     sees ActivityManager. ------------------------------------------
    let user = UserActivity::new(service.clone());
    let manager = ActivityManager::new(service.clone());

    user.begin("quote-request")?;
    println!("began activity {:?}", user.activity_name()?);

    // The HLS plugs in a completion protocol: one broadcast signal, one
    // auditing action.
    manager.add_signal_set(Box::new(BroadcastSignalSet::new(
        "Completed",
        "finished",
        Value::from("quote-request done"),
    )))?;
    manager.set_completion_signal_set("Completed")?;
    manager.register_action(
        "Completed",
        Arc::new(FnAction::new("auditor", |signal: &Signal| {
            println!("  [auditor] saw signal {:?} from set {:?}", signal.name(), signal.signal_set_name());
            Ok(Outcome::done())
        })),
    )?;

    // Application work: a remote call made *inside* the activity — the
    // context travels without the application lifting a finger.
    let svc = orb.registry().resolve("services/quotes")?;
    let request = Request::new("quote").with_arg("item", Value::from("widget"));
    let reply = orb.invoke(EXTERNAL_CALLER, &svc, request, &RetryPolicy::none())?;
    println!("received quote: {}", reply.result);

    // Completion drives the signal set; the outcome is the set's collation.
    let outcome = user.complete()?;
    println!("activity completed with outcome {outcome}");
    assert!(outcome.is_done());
    Ok(())
}
