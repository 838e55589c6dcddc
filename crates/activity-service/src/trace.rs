//! Protocol tracing: a recorder for coordinator/signal/action interactions.
//!
//! The paper's figs. 8, 10, 11 and 12 are message-sequence charts; the
//! integration tests regenerate them by attaching a [`TraceLog`] to a
//! coordinator and asserting the exact recorded exchange. A `TraceLog` is
//! a typed view over a flight recorder (kind `trace`): attach
//! `recorder.journal()` and the node's black box holds the trace itself.

use std::fmt;

/// One observed protocol step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The coordinator asked the signal set for a signal.
    GetSignal {
        /// Signal set asked.
        set: String,
    },
    /// A signal was transmitted to an action.
    Transmit {
        /// Signal name.
        signal: String,
        /// Receiving action's name.
        action: String,
    },
    /// The action's outcome was fed back to the set.
    SetResponse {
        /// Signal set informed.
        set: String,
        /// Outcome name.
        outcome: String,
    },
    /// The coordinator read the collated outcome.
    GetOutcome {
        /// Signal set asked.
        set: String,
        /// Collated outcome name.
        outcome: String,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::GetSignal { set } => write!(f, "get_signal({set})"),
            TraceEvent::Transmit { signal, action } => write!(f, "{signal:?} -> {action}"),
            TraceEvent::SetResponse { set, outcome } => {
                write!(f, "set_response({set}, {outcome})")
            }
            TraceEvent::GetOutcome { set, outcome } => {
                write!(f, "get_outcome({set}) = {outcome}")
            }
        }
    }
}

impl telemetry::JournalEvent for TraceEvent {
    const KIND: telemetry::RecordKind = telemetry::RecordKind::Trace;
}

/// A shared, append-only recording of [`TraceEvent`]s; clones share it.
pub type TraceLog = telemetry::Journal<TraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_renders() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        log.record(|| TraceEvent::GetSignal { set: "2pc".into() });
        log.record(|| TraceEvent::Transmit { signal: "prepare".into(), action: "a1".into() });
        log.record(|| TraceEvent::SetResponse { set: "2pc".into(), outcome: "done".into() });
        log.record(|| TraceEvent::GetOutcome { set: "2pc".into(), outcome: "done".into() });
        assert_eq!(log.len(), 4);
        let rendered = log.render();
        assert!(rendered.contains("get_signal(2pc)"));
        assert!(rendered.contains("\"prepare\" -> a1"));
        assert!(rendered.contains("get_outcome(2pc) = done"));
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let a = TraceLog::new();
        let b = a.clone();
        a.record(|| TraceEvent::GetSignal { set: "s".into() });
        assert_eq!(b.len(), 1);
    }
}
