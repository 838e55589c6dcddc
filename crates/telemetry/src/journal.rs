//! Typed journal views over a node's flight recorder.
//!
//! A layer's own account of what it did — the coordinator's fig. 5 trace,
//! the OTS 2PC protocol journal, the activity lifecycle — is not a second
//! log: a [`Journal<E>`] records each event once, into the node's
//! [`FlightRecorder`] ring, as a typed payload next to its rendered
//! `detail` line, and reads back the retained events of its own type. The
//! `trace`/`protocol`/`activity` lines in a dump and the typed events a
//! test asserts on are the same entries.
//!
//! [`FlightRecorder::journal`] builds a view over a node's ring;
//! [`Journal::new`] builds one over a private, unbounded recorder that
//! nothing else writes to.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::recorder::{FlightRecorder, RecordKind};

/// An event type a [`Journal`] can hold. Its `Display` text is the
/// recorded `detail` line.
pub trait JournalEvent: fmt::Display + fmt::Debug + Clone + Send + Sync + 'static {
    /// The ring kind this type's events are recorded under.
    const KIND: RecordKind;
}

/// A typed view over a [`FlightRecorder`]. Clones share the recorder and
/// the [`Journal::clear`] watermark.
pub struct Journal<E> {
    recorder: FlightRecorder,
    /// Events with a lower sequence number are hidden from this view.
    since: Arc<AtomicU64>,
    _event: PhantomData<fn() -> E>,
}

impl<E> Clone for Journal<E> {
    fn clone(&self) -> Self {
        Journal {
            recorder: self.recorder.clone(),
            since: Arc::clone(&self.since),
            _event: PhantomData,
        }
    }
}

impl<E: JournalEvent> Journal<E> {
    /// A journal over a private, unbounded recorder.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::new("journal", usize::MAX).journal()
    }

    pub(crate) fn over(recorder: FlightRecorder) -> Self {
        Journal { recorder, since: Arc::new(AtomicU64::new(0)), _event: PhantomData }
    }

    /// Append one event. Behind a closed recorder gate `event` never runs
    /// and nothing is retained.
    pub fn record(&self, event: impl FnOnce() -> E) {
        self.recorder.record_typed(event);
    }

    /// The retained events of this type, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<E> {
        let mut out = Vec::new();
        self.recorder.for_each_typed(self.since(), |event: &E, _| out.push(event.clone()));
        out
    }

    /// Line-per-event rendering of [`Journal::events`].
    #[must_use]
    pub fn render(&self) -> String {
        let mut lines = Vec::new();
        self.recorder.for_each_typed(self.since(), |_: &E, entry| lines.push(entry.detail.clone()));
        lines.join("\n")
    }

    /// Number of retained events of this type.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.recorder.for_each_typed(self.since(), |_: &E, _| n += 1);
        n
    }

    /// Whether no events of this type are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hide every event recorded so far from this view (and its clones).
    /// The ring itself is untouched, so other kinds sharing it keep their
    /// history.
    pub fn clear(&self) {
        self.since.store(self.recorder.total_recorded(), Ordering::Release);
    }

    fn since(&self) -> u64 {
        self.since.load(Ordering::Acquire)
    }
}

impl<E: JournalEvent> Default for Journal<E> {
    fn default() -> Self {
        Journal::new()
    }
}

impl<E: JournalEvent> fmt::Debug for Journal<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("node", &self.recorder.node())
            .field("events", &self.events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Step(u32);

    impl fmt::Display for Step {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "step({})", self.0)
        }
    }

    impl JournalEvent for Step {
        const KIND: RecordKind = RecordKind::Trace;
    }

    /// Same kind as [`Step`], different type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Other(u32);

    impl fmt::Display for Other {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "other({})", self.0)
        }
    }

    impl JournalEvent for Other {
        const KIND: RecordKind = RecordKind::Trace;
    }

    #[test]
    fn disabled_recorder_never_builds_the_event() {
        let recorder = FlightRecorder::disabled("node", 8);
        let journal = recorder.journal::<Step>();
        let mut built = false;
        journal.record(|| {
            built = true;
            Step(1)
        });
        assert!(!built, "the event closure must not run behind a closed gate");
        assert!(journal.is_empty());
        assert_eq!(recorder.total_recorded(), 0);
    }

    #[test]
    fn shared_bounded_ring_yields_its_own_retained_tail() {
        let recorder = FlightRecorder::new("node", 9);
        let steps = recorder.journal::<Step>();
        let others = recorder.journal::<Other>();
        for i in 0..4 {
            steps.record(|| Step(i));
            recorder.record(RecordKind::Failpoint, || format!("site-{i}"));
            others.record(|| Other(i));
            // A raw line of the journal's own kind carries no payload.
            recorder.record(RecordKind::Trace, || format!("raw-{i}"));
        }
        // 16 entries into 9 slots: the ring kept raw-1 and both later
        // rounds, so each view sees exactly rounds 2 and 3 of its own type.
        assert_eq!(recorder.len(), 9);
        assert_eq!(steps.events(), vec![Step(2), Step(3)]);
        assert_eq!(others.events(), vec![Other(2), Other(3)]);
        assert_eq!(steps.render(), "step(2)\nstep(3)");
        assert_eq!(steps.len(), 2);
        assert_eq!(
            recorder.details_of_kind(RecordKind::Trace),
            vec!["raw-1", "step(2)", "other(2)", "raw-2", "step(3)", "other(3)", "raw-3"]
        );
    }

    #[test]
    fn clear_hides_only_its_own_earlier_events() {
        let recorder = FlightRecorder::new("node", 64);
        let steps = recorder.journal::<Step>();
        let others = recorder.journal::<Other>();
        steps.record(|| Step(0));
        others.record(|| Other(0));
        recorder.record(RecordKind::Failpoint, || "site".into());
        let alias = steps.clone();
        alias.clear();
        assert!(steps.is_empty(), "clones share the watermark");
        assert_eq!(others.events(), vec![Other(0)]);
        assert_eq!(recorder.len(), 3, "the ring keeps every kind");
        steps.record(|| Step(1));
        assert_eq!(steps.events(), vec![Step(1)]);
    }

    #[test]
    fn a_private_journal_is_unbounded() {
        let journal = Journal::<Step>::new();
        // Well past any bounded ring's default capacity.
        for i in 0..2000 {
            journal.record(|| Step(i));
        }
        assert_eq!(journal.len(), 2000);
        assert_eq!(journal.events()[0], Step(0));
    }
}
