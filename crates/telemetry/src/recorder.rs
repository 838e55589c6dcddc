//! Per-node flight recorder: a bounded ring of causally-ordered protocol
//! events on the virtual clock.
//!
//! The span tree answers "what was the causal structure"; the recorder
//! answers "what did *this node* believe, in order, right before it
//! failed". It is the node's only event log: span open/close from
//! [`crate::Telemetry`], the coordinator trace, the 2PC protocol journal
//! and the activity journal (each a typed [`crate::Journal`] view over the
//! ring), failpoint hits, detector transitions, partition open/heal,
//! restarts — each stamped with a recorder-wide sequence number and the
//! virtual time it happened.
//!
//! Discipline matches the rest of the telemetry plane:
//!
//! - **Allocation-free when disabled.** [`FlightRecorder::record`] takes
//!   the detail as a closure; when the gate is closed the call is a single
//!   atomic load and the closure never runs — no formatting, no lock.
//! - **Bounded.** The ring holds at most `capacity` events; recording the
//!   `capacity + 1`-th evicts the oldest. Eviction is strictly
//!   oldest-first, so the surviving window is always a causally-contiguous
//!   suffix. A journal's private recorder is unbounded (`usize::MAX`).
//! - **Deterministic.** Sequence numbers and virtual timestamps come from
//!   the simulation, so [`FlightRecorder::fingerprint`] is bit-identical
//!   across double runs of a pinned seed — harness oracle #11 checks
//!   exactly that, and [`FlightRecorder::dump`] is what the explorer
//!   staples to a shrunk reproducer.

use crate::causality::LamportClock;
use crate::journal::{Journal, JournalEvent};
use crate::{fnv_fold, TimeSource, FNV_OFFSET};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default ring capacity: generous enough that no sweep scenario wraps,
/// small enough that a wrapped node stays bounded.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Taxonomy of recorded events (DESIGN.md §15 table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A telemetry span opened (detail: span name).
    SpanOpen,
    /// A telemetry span closed (detail: span name).
    SpanClose,
    /// A coordinator `TraceLog` event (detail: the rendered trace line).
    Trace,
    /// An OTS `ProtocolJournal` event (2PC lifecycle).
    Protocol,
    /// An `ActivityJournal` event (activity begun/completed).
    Activity,
    /// A failpoint site was passed (detail: site, and whether it fired).
    Failpoint,
    /// A failure-detector state transition.
    Detector,
    /// A metric delta worth narrating (e.g. heuristic counters).
    Metric,
    /// A partition window opened.
    PartitionOpen,
    /// A partition healed.
    PartitionHeal,
    /// A participant was killed and rebuilt from its WAL.
    Restart,
    /// A message left this node (detail: wire token, operation, route).
    WireSend,
    /// A message arrived at this node (detail mirrors the send's).
    WireRecv,
}

impl RecordKind {
    /// Stable label used in renderings and fingerprints.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::SpanOpen => "span-open",
            RecordKind::SpanClose => "span-close",
            RecordKind::Trace => "trace",
            RecordKind::Protocol => "protocol",
            RecordKind::Activity => "activity",
            RecordKind::Failpoint => "failpoint",
            RecordKind::Detector => "detector",
            RecordKind::Metric => "metric",
            RecordKind::PartitionOpen => "partition-open",
            RecordKind::PartitionHeal => "partition-heal",
            RecordKind::Restart => "restart",
            RecordKind::WireSend => "wire-send",
            RecordKind::WireRecv => "wire-recv",
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One entry of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Recorder-wide sequence number (never reused; survives eviction, so
    /// a wrapped dump shows exactly how much history was lost).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: Duration,
    /// Lamport stamp: every local record ticks the node's clock, wire
    /// receives observe the sender's stamp (§16 stamp discipline), so a
    /// merged multi-node log is a happens-before DAG.
    pub lamport: u64,
    /// The recording node — [`crate::CausalMerge`] folds logs from many
    /// nodes, so each event carries its origin.
    pub node: String,
    pub kind: RecordKind,
    pub detail: String,
}

impl RecordedEvent {
    /// The canonical one-line rendering fingerprints and dumps share.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "#{:<4} @{:>10}us L{:<5} {:<14} {}",
            self.seq,
            self.at.as_micros(),
            self.lamport,
            self.kind,
            self.detail
        )
    }
}

struct ZeroTime;

impl TimeSource for ZeroTime {
    fn virtual_now(&self) -> Duration {
        Duration::ZERO
    }
}

/// One ring slot: the event, plus the typed value it was rendered from
/// when a [`Journal`] recorded it.
struct Entry {
    event: RecordedEvent,
    payload: Option<Box<dyn Any + Send + Sync>>,
}

/// FNV-1a over the canonical rendering of `events`, one line each.
fn fingerprint_of<'a>(events: impl Iterator<Item = &'a Entry>) -> u64 {
    events.fold(FNV_OFFSET, |hash, entry| {
        fnv_fold(fnv_fold(hash, entry.event.render().as_bytes()), b"\n")
    })
}

struct RecorderInner {
    enabled: AtomicBool,
    time: Arc<dyn TimeSource>,
    node: String,
    capacity: usize,
    seq: AtomicU64,
    /// The node's Lamport clock. Plain [`FlightRecorder::record`] ticks
    /// it; the ORB's wire interceptors tick/observe it directly and
    /// record the resulting stamp via [`FlightRecorder::record_stamped`],
    /// so local and wire events share one counter.
    lamport: LamportClock,
    ring: Mutex<VecDeque<Entry>>,
}

/// The shared recorder handle; cloning is one `Arc` bump, all clones feed
/// one ring (the `Telemetry` handle style).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("node", &self.inner.node)
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.total_recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// An enabled recorder for `node` with the zero time source.
    pub fn new(node: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder::build(node, capacity, true, Arc::new(ZeroTime))
    }

    /// An enabled recorder reading virtual time from `time` (pass the
    /// simulation clock so dumps carry real virtual timestamps).
    pub fn with_time(node: &str, capacity: usize, time: Arc<dyn TimeSource>) -> FlightRecorder {
        FlightRecorder::build(node, capacity, true, time)
    }

    /// A recorder whose gate starts closed: every [`FlightRecorder::record`]
    /// is a single atomic load until [`FlightRecorder::set_enabled`] opens it.
    pub fn disabled(node: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder::build(node, capacity, false, Arc::new(ZeroTime))
    }

    fn build(
        node: &str,
        capacity: usize,
        enabled: bool,
        time: Arc<dyn TimeSource>,
    ) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(enabled),
                time,
                node: node.to_string(),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                lamport: LamportClock::new(),
                ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            }),
        }
    }

    /// Which node this black box belongs to.
    pub fn node(&self) -> &str {
        &self.inner.node
    }

    /// The node's Lamport clock (shared with every clone). Register the
    /// recorder with a [`crate::CausalityPlane`] and the ORB's wire
    /// stamps advance this same counter.
    #[must_use]
    pub fn lamport_clock(&self) -> LamportClock {
        self.inner.lamport.clone()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release);
    }

    /// Ring capacity (events retained at most).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.ring.lock().is_empty()
    }

    /// Total events ever recorded, evicted ones included.
    pub fn total_recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Record one event, ticking the node's Lamport clock. The gate is
    /// checked before `detail` runs, so the disabled path does no
    /// formatting and takes no lock.
    pub fn record(&self, kind: RecordKind, detail: impl FnOnce() -> String) {
        if !self.is_enabled() {
            return;
        }
        self.push(kind, self.inner.lamport.tick(), detail(), None);
    }

    /// Record one journal event: the ring keeps the typed value next to
    /// its rendered `detail`, under `E::KIND`. Gated like
    /// [`FlightRecorder::record`] — behind a closed gate `event` never runs.
    pub(crate) fn record_typed<E: JournalEvent>(&self, event: impl FnOnce() -> E) {
        if !self.is_enabled() {
            return;
        }
        let event = event();
        self.push(E::KIND, self.inner.lamport.tick(), event.to_string(), Some(Box::new(event)));
    }

    /// Visit the retained `E` values whose sequence number is at least
    /// `since`, oldest first, with their ring entries.
    pub(crate) fn for_each_typed<E: JournalEvent>(
        &self,
        since: u64,
        mut visit: impl FnMut(&E, &RecordedEvent),
    ) {
        for entry in self.inner.ring.lock().iter().filter(|e| e.event.seq >= since) {
            if let Some(value) = entry.payload.as_deref().and_then(|p| p.downcast_ref::<E>()) {
                visit(value, &entry.event);
            }
        }
    }

    /// A typed journal view over this ring: what it records lands here,
    /// and it reads back only its own events.
    #[must_use]
    pub fn journal<E: JournalEvent>(&self) -> Journal<E> {
        Journal::over(self.clone())
    }

    /// Record one event carrying an explicit Lamport stamp — for wire
    /// events, where the caller already ticked (send) or observed
    /// (receive) the node's clock and the recorded stamp must equal the
    /// on-wire value exactly. Does NOT tick the clock.
    pub fn record_stamped(&self, kind: RecordKind, lamport: u64, detail: impl FnOnce() -> String) {
        if !self.is_enabled() {
            return;
        }
        self.push(kind, lamport, detail(), None);
    }

    fn push(
        &self,
        kind: RecordKind,
        lamport: u64,
        detail: String,
        payload: Option<Box<dyn Any + Send + Sync>>,
    ) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = RecordedEvent {
            seq,
            at: self.inner.time.virtual_now(),
            lamport,
            node: self.inner.node.clone(),
            kind,
            detail,
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(Entry { event, payload });
    }

    /// Snapshot of the retained window, oldest first.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.inner.ring.lock().iter().map(|e| e.event.clone()).collect()
    }

    /// The last `n` retained events, oldest first. `tail(0)` returns an
    /// empty vector without touching the ring (`Vec::new` does not
    /// allocate), and `n >= len` clones the whole window into a single
    /// exactly-sized allocation — no over-allocation, no reallocation.
    pub fn tail(&self, n: usize) -> Vec<RecordedEvent> {
        if n == 0 {
            return Vec::new();
        }
        let ring = self.inner.ring.lock();
        let take = ring.len().min(n);
        let skip = ring.len() - take;
        let mut out = Vec::with_capacity(take);
        out.extend(ring.iter().skip(skip).map(|e| e.event.clone()));
        out
    }

    /// Detail strings of every retained event of `kind`, in causal order.
    pub fn details_of_kind(&self, kind: RecordKind) -> Vec<String> {
        self.inner
            .ring
            .lock()
            .iter()
            .filter(|e| e.event.kind == kind)
            .map(|e| e.event.detail.clone())
            .collect()
    }

    /// FNV-1a over the canonical rendering of the retained window. Since
    /// sequence numbers and virtual timestamps are simulation-driven, a
    /// pinned seed must reproduce this bit-identically (oracle #11).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.inner.ring.lock().iter())
    }

    /// The black-box dump: header plus the retained window, one event per
    /// line. Rendered by the harness whenever an oracle fires, a heuristic
    /// outcome stands, or a participant restarts; attached to shrunk
    /// repros.
    pub fn dump(&self) -> String {
        let ring = self.inner.ring.lock();
        let total = self.inner.seq.load(Ordering::Relaxed);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight-recorder node={} retained={}/{} (capacity {}) fingerprint={:016x}",
            self.inner.node,
            ring.len(),
            total,
            self.inner.capacity,
            fingerprint_of(ring.iter())
        );
        match ring.front() {
            Some(first) if first.event.seq > 0 => {
                let _ = writeln!(out, "  ... {} earlier events evicted ...", first.event.seq);
            }
            // An empty ring dumps a self-describing marker instead of a
            // bare header (a recorder that never recorded and one whose
            // whole window was evicted render distinguishably).
            None if total > 0 => {
                let _ = writeln!(out, "  ... all {total} events evicted ...");
            }
            None => {
                let _ = writeln!(out, "  (no events retained)");
            }
            Some(_) => {}
        }
        for entry in ring.iter() {
            let _ = writeln!(out, "  {}", entry.event.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let rec = FlightRecorder::new("coordinator", 8);
        rec.record(RecordKind::Protocol, || "prepare_sent(store)".into());
        rec.record(RecordKind::Protocol, || "vote_recorded(store, Commit)".into());
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].detail, "prepare_sent(store)");
        assert_eq!(rec.total_recorded(), 2);
    }

    #[test]
    fn disabled_gate_skips_the_closure_entirely() {
        let rec = FlightRecorder::disabled("node", 8);
        let mut ran = false;
        rec.record(RecordKind::Trace, || {
            ran = true;
            "never".into()
        });
        assert!(!ran, "the detail closure must not run behind a closed gate");
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.total_recorded(), 0);
        rec.set_enabled(true);
        rec.record(RecordKind::Trace, || "now".into());
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_first_and_stays_bounded() {
        let rec = FlightRecorder::new("node", 3);
        for i in 0..10 {
            rec.record(RecordKind::Trace, || format!("event-{i}"));
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.total_recorded(), 10);
        // The survivors are the exact tail, in order, original seqs kept.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(events[0].detail, "event-7");
        let dump = rec.dump();
        assert!(dump.contains("7 earlier events evicted"), "{dump}");
        assert!(dump.contains("retained=3/10"), "{dump}");
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let build = |detail: &str| {
            let rec = FlightRecorder::new("node", 8);
            rec.record(RecordKind::Protocol, || detail.to_string());
            rec.fingerprint()
        };
        assert_eq!(build("a"), build("a"));
        assert_ne!(build("a"), build("b"));
    }

    #[test]
    fn dump_header_fingerprint_matches_the_method() {
        let rec = FlightRecorder::new("node", 8);
        rec.record(RecordKind::Failpoint, || "ots.before_decision fired".into());
        let expected = format!("{:016x}", rec.fingerprint());
        assert!(rec.dump().contains(&expected));
    }

    #[test]
    fn details_of_kind_filters_in_causal_order() {
        let rec = FlightRecorder::new("node", 8);
        rec.record(RecordKind::Trace, || "get_signal(Bill)".into());
        rec.record(RecordKind::Protocol, || "decision_forced(true)".into());
        rec.record(RecordKind::Trace, || "get_outcome(Bill) = success".into());
        assert_eq!(
            rec.details_of_kind(RecordKind::Trace),
            vec!["get_signal(Bill)".to_string(), "get_outcome(Bill) = success".to_string()]
        );
    }

    #[test]
    fn tail_returns_the_last_n() {
        let rec = FlightRecorder::new("node", 8);
        for i in 0..5 {
            rec.record(RecordKind::Trace, || format!("e{i}"));
        }
        let tail = rec.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "e3");
        assert_eq!(tail[1].detail, "e4");
    }

    #[test]
    fn tail_zero_and_oversized_edges() {
        let rec = FlightRecorder::new("node", 8);
        assert!(rec.tail(0).is_empty(), "tail(0) of an empty ring");
        assert!(rec.tail(3).is_empty(), "tail(n) of an empty ring");
        for i in 0..4 {
            rec.record(RecordKind::Trace, || format!("e{i}"));
        }
        assert!(rec.tail(0).is_empty(), "tail(0) of a populated ring");
        let full = rec.tail(4);
        assert_eq!(full.len(), 4);
        assert_eq!(full.capacity(), 4, "n == len: one exactly-sized allocation");
        let over = rec.tail(100);
        assert_eq!(over.len(), 4, "n > len clamps to the window");
        assert_eq!(over.capacity(), 4, "n > len must not over-allocate");
        assert_eq!(over, rec.events());
    }

    #[test]
    fn empty_ring_dump_is_self_describing() {
        let rec = FlightRecorder::new("node", 2);
        let dump = rec.dump();
        assert!(dump.contains("retained=0/0"), "{dump}");
        assert!(dump.contains("(no events retained)"), "{dump}");
    }

    #[test]
    fn record_ticks_lamport_and_record_stamped_does_not() {
        let rec = FlightRecorder::new("node", 8);
        rec.record(RecordKind::Trace, || "a".into());
        rec.record(RecordKind::Trace, || "b".into());
        let events = rec.events();
        assert_eq!(events[0].lamport, 1);
        assert_eq!(events[1].lamport, 2);
        assert_eq!(events[0].node, "node");
        // A wire event carries the caller-computed stamp verbatim.
        let stamp = rec.lamport_clock().observe(41);
        assert_eq!(stamp, 42);
        rec.record_stamped(RecordKind::WireRecv, stamp, || "t@41 op peer->node".into());
        assert_eq!(rec.events()[2].lamport, 42);
        // The next local tick continues past the observed stamp.
        rec.record(RecordKind::Trace, || "c".into());
        assert_eq!(rec.events()[3].lamport, 43);
    }
}
