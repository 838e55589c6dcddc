//! Timing decorators for the traced run. Each wraps one layer from outside
//! by implementing that layer's public trait, and forwards every trait
//! method explicitly to the wrapped value, so the decorated program takes
//! exactly the code paths of the bare one (a default method left to the
//! trait would run the trait's default instead of the wrapped override).

use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{Action, ActionError, CompletionStatus, Outcome, Signal};
use ots::{Resource, TxError, TxId, Vote};
use recovery_log::{LogError, LogRecord, Lsn, Wal};

use crate::trace::{self, Counter, Kind};

/// Which log layer a [`TimedWal`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalLayer {
    /// The `GroupCommitWal` the program appends to.
    Group,
    /// The `FileWal` sink under it (or read directly by recovery).
    Sink,
}

/// A `Wal` that times every call into the wrapped log.
pub struct TimedWal<W> {
    inner: W,
    layer: WalLayer,
}

impl<W> TimedWal<W> {
    pub fn new(inner: W, layer: WalLayer) -> Self {
        TimedWal { inner, layer }
    }

    fn other(&self) -> Kind {
        match self.layer {
            WalLayer::Group => Kind::WalOther,
            WalLayer::Sink => Kind::SinkOther,
        }
    }

    fn write(&self, group: Kind) -> Kind {
        match self.layer {
            WalLayer::Group => group,
            WalLayer::Sink => Kind::SinkWrite,
        }
    }

    fn sink_records(&self, n: usize) {
        if self.layer == WalLayer::Sink {
            trace::count(Counter::SinkRecords, n as u64);
        }
    }
}

impl<W: Wal> Wal for TimedWal<W> {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        self.sink_records(1);
        trace::span(self.write(Kind::Append), || self.inner.append(kind, payload))
    }

    fn append_durable(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        self.sink_records(1);
        trace::span(self.write(Kind::AppendDurable), || self.inner.append_durable(kind, payload))
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        self.sink_records(records.len());
        trace::span(self.write(Kind::WalOther), || self.inner.append_batch(records))
    }

    fn flush_lsn(&self, lsn: Lsn) -> Result<(), LogError> {
        trace::span(self.other(), || self.inner.flush_lsn(lsn))
    }

    fn scan(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        let records = trace::span(Kind::Scan, || self.inner.scan(from))?;
        trace::count(Counter::RecordsScanned, records.len() as u64);
        Ok(records)
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let mut visited = 0u64;
        let result = trace::span(Kind::Scan, || {
            self.inner.scan_with(from, &mut |record| {
                visited += 1;
                visit(record)
            })
        });
        trace::count(Counter::RecordsScanned, visited);
        result
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        trace::span(self.other(), || self.inner.truncate_prefix(upto))
    }

    fn sync(&self) -> Result<(), LogError> {
        let kind = match self.layer {
            WalLayer::Group => Kind::WalOther,
            WalLayer::Sink => Kind::SinkSync,
        };
        trace::span(kind, || self.inner.sync())
    }

    fn next_lsn(&self) -> Lsn {
        trace::span(self.other(), || self.inner.next_lsn())
    }

    fn len(&self) -> usize {
        trace::span(self.other(), || self.inner.len())
    }

    fn is_empty(&self) -> bool {
        trace::span(self.other(), || self.inner.is_empty())
    }
}

/// A `Resource` that times every call into the wrapped participant.
pub struct TimedResource {
    inner: Arc<dyn Resource>,
}

impl TimedResource {
    pub fn new(inner: Arc<dyn Resource>) -> Self {
        TimedResource { inner }
    }

    fn timed<T>(&self, kind: Kind, tx: &TxId, f: impl FnOnce() -> T) -> T {
        if !trace::enabled() {
            return f();
        }
        // Coordinators fan participants out to pool threads: find the
        // operation through the transaction, when it was bound.
        let client = trace::tx_client(tx.top_seq());
        trace::span_for(kind, client, f)
    }
}

impl Resource for TimedResource {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        self.timed(Kind::Prepare, tx, || self.inner.prepare(tx))
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        self.timed(Kind::Phase2, tx, || self.inner.commit(tx))
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        self.timed(Kind::Phase2, tx, || self.inner.rollback(tx))
    }

    fn commit_one_phase(&self, tx: &TxId) -> Result<(), TxError> {
        self.timed(Kind::Phase2, tx, || self.inner.commit_one_phase(tx))
    }

    fn forget(&self, tx: &TxId) {
        self.timed(Kind::Phase2, tx, || self.inner.forget(tx))
    }

    fn resource_name(&self) -> &str {
        self.inner.resource_name()
    }

    fn read_only_hint(&self) -> bool {
        trace::span_for(Kind::ResourceOther, None, || self.inner.read_only_hint())
    }
}

/// An `Action` that times every signal the wrapped action receives.
pub struct TimedAction {
    inner: Arc<dyn Action>,
    kind: Kind,
}

impl TimedAction {
    pub fn new(inner: Arc<dyn Action>, kind: Kind) -> Self {
        TimedAction { inner, kind }
    }
}

impl Action for TimedAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        trace::span_for(self.kind, None, || self.inner.process_signal(signal))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A `SignalSet` that times the coordinator's calls into the wrapped set
/// and counts the signals it hands out.
pub struct TimedSignalSet<S> {
    inner: S,
}

impl<S> TimedSignalSet<S> {
    pub fn new(inner: S) -> Self {
        TimedSignalSet { inner }
    }
}

impl<S: SignalSet> SignalSet for TimedSignalSet<S> {
    fn signal_set_name(&self) -> &str {
        self.inner.signal_set_name()
    }

    fn get_signal(&mut self) -> NextSignal {
        let next = trace::span_for(Kind::SignalSetCall, None, || self.inner.get_signal());
        if !matches!(next, NextSignal::End) {
            trace::count(Counter::Signals, 1);
        }
        next
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        trace::span_for(Kind::SignalSetCall, None, || self.inner.set_response(response))
    }

    fn get_outcome(&mut self) -> Outcome {
        trace::span_for(Kind::SignalSetCall, None, || self.inner.get_outcome())
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        trace::span_for(Kind::SignalSetCall, None, || self.inner.set_completion_status(status))
    }

    fn completion_status(&self) -> CompletionStatus {
        self.inner.completion_status()
    }
}
