//! Concurrent signal fan-out with ordered collation.
//!
//! The paper's fig. 5 loop transmits each Signal to every registered
//! Action and feeds the Outcomes back into the SignalSet. The Actions
//! are independent distributed objects, so the *transmissions* are
//! embarrassingly parallel — but SignalSet protocol engines are
//! stateful and the TraceLog is an ordered message-sequence chart, so
//! the *collation* must look exactly like the serial loop.
//!
//! This module enforces that split: [`dispatch_signal`] fans the signal
//! out on the shared [`WorkerPool`] and then replays the results in
//! registration order. Trace events are emitted at collation time, so a
//! parallel run's TraceLog is byte-identical to a serial run's.
//!
//! **Adaptive default.** Under the default [`DispatchConfig`] each
//! signal's batch of deliveries runs inline on the serial loop when that
//! is estimated to be cheaper than the pool hand-off — the common case
//! of a few in-process or virtual-network actions taking microseconds —
//! and on the pool otherwise. The estimates (per-delivery cost and pool
//! hand-off cost, both wall clock) are process-wide, in one
//! [`FanOutSite`] shared by every coordinator; see `orb::pool`.
//!
//! **Early break.** When the SignalSet answers `RequestNext`, the serial
//! loop stops delivering the current signal. The parallel path mirrors
//! that at collation: it fires a [`CancelToken`] (so actions whose
//! delivery has not started yet are skipped), stops consuming results,
//! and discards whatever the already-running speculative deliveries
//! produce. Speculative delivery is sound because Signal delivery is
//! at-least-once and Actions are idempotent (§3.4) — an Action may see
//! a signal the protocol engine abandoned, exactly as it may see a
//! duplicate from a transport retry. Tests that assert the *strictly
//! serial* property (no action ever observes an abandoned signal) pin
//! [`DispatchConfig::serial`], which runs the exact legacy loop inline.
//!
//! **Panics.** An action panic is captured on the worker and re-raised
//! on the driving thread at the panicking action's position in
//! registration order, after its `before` hook — the same observable
//! order as the serial loop. Panics past an early-break point are
//! discarded with their results.

use std::sync::Arc;

use orb::pool::FanOutSite;
pub use orb::pool::{CancelToken, DispatchConfig, TaskOutcome, WorkerPool};

use crate::action::Action;
use crate::outcome::Outcome;
use crate::signal::Signal;

/// Fan `signal` out to `actions` and collate in registration order.
///
/// For each action, in registration order: `before(action)` runs (trace
/// hook), then `after(outcome)` consumes the action's response — an
/// action error is already converted to an `"error"` outcome. When
/// `after` returns `true` (the set requested the next signal) delivery
/// of this signal stops; outstanding parallel work is cancelled and its
/// results are discarded. Returns whether that early break happened.
pub(crate) fn dispatch_signal(
    config: DispatchConfig,
    actions: &[Arc<dyn Action>],
    signal: &Signal,
    mut before: impl FnMut(&Arc<dyn Action>),
    mut after: impl FnMut(Outcome) -> bool,
) -> bool {
    let Some(pool) = config.pool_for(&SIGNAL_SITE, actions.len()) else {
        // The exact legacy serial loop: the serial config, a single
        // action, or a batch the adaptive default judges cheaper inline.
        let mut batch = SIGNAL_SITE.inline();
        for action in actions {
            before(action);
            if after(batch.time(|| deliver(action.as_ref(), signal))) {
                return true;
            }
        }
        return false;
    };

    let cancel = CancelToken::new();
    let tasks: Vec<Box<dyn FnOnce() -> Outcome + Send>> = actions
        .iter()
        .map(|action| {
            let action = Arc::clone(action);
            let signal = signal.clone();
            Box::new(move || deliver(action.as_ref(), &signal))
                as Box<dyn FnOnce() -> Outcome + Send>
        })
        .collect();
    let mut results = pool.scatter(&SIGNAL_SITE, tasks, &cancel);

    for action in actions {
        before(action);
        let outcome = match results.next() {
            Some(TaskOutcome::Done(outcome)) => outcome,
            Some(TaskOutcome::Panicked(payload)) => std::panic::resume_unwind(payload),
            // Cancellation only fires after collation stops consuming,
            // and the batch is exactly as long as `actions`.
            Some(TaskOutcome::Cancelled) | None => {
                unreachable!("dispatch result missing before early break")
            }
        };
        if after(outcome) {
            cancel.cancel();
            return true;
        }
    }
    false
}

/// Cost estimates of signal delivery, shared by every coordinator in the
/// process.
static SIGNAL_SITE: FanOutSite = FanOutSite::new();

/// Transmit `signal` to one action; an action error becomes an `"error"`
/// outcome.
fn deliver(action: &dyn Action, signal: &Signal) -> Outcome {
    match action.process_signal(signal) {
        Ok(outcome) => outcome,
        Err(e) => Outcome::from_error(e.message()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn spin_action(name: &str, hits: Arc<AtomicU32>) -> Arc<dyn Action> {
        Arc::new(FnAction::new(name, move |_s: &Signal| {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }))
    }

    #[test]
    fn parallel_collation_preserves_registration_order() {
        let hits = Arc::new(AtomicU32::new(0));
        let actions: Vec<Arc<dyn Action>> = (0..16)
            .map(|i| spin_action(&format!("a{i}"), Arc::clone(&hits)))
            .collect();
        let signal = Signal::new("go", "S");
        let mut seen = Vec::new();
        let broke = dispatch_signal(
            DispatchConfig::with_workers(8),
            &actions,
            &signal,
            |action| seen.push(action.name().to_owned()),
            |outcome| {
                assert!(outcome.is_done());
                false
            },
        );
        assert!(!broke);
        assert_eq!(hits.load(Ordering::SeqCst), 16);
        let expected: Vec<String> = (0..16).map(|i| format!("a{i}")).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn early_break_stops_collation_at_the_break_index() {
        let actions: Vec<Arc<dyn Action>> = (0..12)
            .map(|i| {
                Arc::new(FnAction::new(format!("a{i}"), move |_s: &Signal| {
                    Ok(if i == 3 { Outcome::abort() } else { Outcome::done() })
                })) as Arc<dyn Action>
            })
            .collect();
        let signal = Signal::new("try", "S");
        let mut fed = 0;
        let broke = dispatch_signal(
            DispatchConfig::with_workers(4),
            &actions,
            &signal,
            |_| {},
            |outcome| {
                fed += 1;
                outcome.is_negative()
            },
        );
        assert!(broke);
        assert_eq!(fed, 4, "responses past the break point must not be fed");
    }

    #[test]
    fn action_errors_become_error_outcomes_in_parallel() {
        let actions: Vec<Arc<dyn Action>> = vec![
            Arc::new(FnAction::new("ok", |_s: &Signal| Ok(Outcome::done()))),
            Arc::new(FnAction::new("bad", |_s: &Signal| {
                Err(crate::error::ActionError::new("nope"))
            })),
        ];
        let signal = Signal::new("go", "S");
        let mut outcomes = Vec::new();
        dispatch_signal(
            DispatchConfig::with_workers(2),
            &actions,
            &signal,
            |_| {},
            |outcome| {
                outcomes.push(outcome.name().to_owned());
                false
            },
        );
        assert_eq!(outcomes, vec!["done", "error"]);
    }

    #[test]
    fn serial_config_runs_inline_with_early_stop() {
        let hits = Arc::new(AtomicU32::new(0));
        let mut actions: Vec<Arc<dyn Action>> = Vec::new();
        actions.push(Arc::new(FnAction::new("veto", |_s: &Signal| Ok(Outcome::abort()))));
        for i in 0..4 {
            actions.push(spin_action(&format!("later{i}"), Arc::clone(&hits)));
        }
        let signal = Signal::new("try", "S");
        let broke = dispatch_signal(
            DispatchConfig::serial(),
            &actions,
            &signal,
            |_| {},
            |outcome| outcome.is_negative(),
        );
        assert!(broke);
        assert_eq!(
            hits.load(Ordering::SeqCst),
            0,
            "serial early break must not touch later actions at all"
        );
    }
}
