//! The cross-node causal merge plane (DESIGN.md §16).
//!
//! Per-node flight recorders tell per-node stories; this module merges
//! them into one global happens-before DAG so the harness (and a human
//! with a shrunk repro) can ask *"what was the cluster-wide order of
//! protocol events for this transaction?"*:
//!
//! - [`LamportClock`]: one logical clock per node. Local events tick it;
//!   receiving a message observes the sender's stamp (`max + 1`). Stamps
//!   are never reused per node — both paths strictly increase the
//!   counter.
//! - [`CausalityPlane`]: the per-simulation registry mapping node names
//!   to clocks and recorders. The ORB's Lamport interceptor pair stamps
//!   every `Request`/`Reply` through it (service-context slot
//!   [`LAMPORT_CONTEXT_KEY`]) and mirrors `wire-send`/`wire-recv` events
//!   into the sending/receiving node's black box.
//! - [`CausalMerge`]: folds N causally-annotated recorder logs into a
//!   [`CausalDag`] — edges are per-node program order plus send→receive
//!   pairs matched by wire token (delivery id + send stamp).
//! - [`CausalDag::verify`]: cycles, Lamport/virtual-clock inversions on
//!   every edge, and 2PC protocol-order violations (outcome delivered
//!   before the decision forced, vote recorded after the decision,
//!   completion before all phase-2 acks) as structured
//!   [`CausalViolation`]s — harness oracle #12.
//! - [`CausalDag::to_perfetto`]: a Chrome-trace/Perfetto JSON export
//!   (one track per node, flow events per send→receive edge,
//!   virtual-clock timestamps) loadable in `ui.perfetto.dev`.
//!
//! Everything here is deterministic: stamps come from the serial
//! simulation, the merge sorts events into a canonical order, and
//! [`CausalDag::fingerprint`] is invariant under input-log permutation —
//! pinned-seed double runs must agree bit-for-bit.

use crate::recorder::{FlightRecorder, RecordKind, RecordedEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Service-context key under which the Lamport stamp travels in requests
/// and replies: `"{lamport} {token}"`, where `token` is the wire-matching
/// token (`{delivery_id}@{lamport}`, reply legs suffixed `r`).
pub const LAMPORT_CONTEXT_KEY: &str = "telemetry.lamport";

/// A node-local Lamport clock. Cloning shares the counter.
///
/// The counter stores the last stamp issued; [`LamportClock::tick`]
/// returns `last + 1` and [`LamportClock::observe`] returns
/// `max(last, remote) + 1`. Both strictly increase the counter, so a
/// node never issues the same stamp twice.
#[derive(Clone, Debug, Default)]
pub struct LamportClock {
    last: Arc<AtomicU64>,
}

impl LamportClock {
    /// A fresh clock at zero (no stamps issued yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The last stamp issued (0 if none).
    #[must_use]
    pub fn current(&self) -> u64 {
        self.last.load(Ordering::Relaxed)
    }

    /// Stamp a local event: `last + 1`.
    pub fn tick(&self) -> u64 {
        self.last.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stamp a message receipt: `max(last, remote) + 1`. Always strictly
    /// greater than both the local history and the sender's stamp.
    pub fn observe(&self, remote: u64) -> u64 {
        loop {
            let cur = self.last.load(Ordering::Relaxed);
            let next = cur.max(remote) + 1;
            if self
                .last
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return next;
            }
        }
    }
}

/// Render the service-context payload for a wire stamp.
#[must_use]
pub fn wire_stamp(lamport: u64, token: &str) -> String {
    format!("{lamport} {token}")
}

/// Parse a [`wire_stamp`] payload back into `(lamport, token)`.
#[must_use]
pub fn parse_wire_stamp(stamp: &str) -> Option<(u64, &str)> {
    let (lamport, token) = stamp.split_once(' ')?;
    Some((lamport.parse().ok()?, token))
}

struct NodeSlot {
    clock: LamportClock,
    recorder: Option<FlightRecorder>,
}

/// The per-simulation causality registry: node name → Lamport clock and
/// (optionally) that node's flight recorder. Cloning shares the registry.
///
/// Nodes are created lazily by [`CausalityPlane::clock`]; registering a
/// recorder via [`CausalityPlane::register`] adopts the *recorder's own*
/// clock for the node, so local [`FlightRecorder::record`] ticks and wire
/// stamps share one counter — the stamp discipline §16 requires.
#[derive(Clone, Default)]
pub struct CausalityPlane {
    nodes: Arc<Mutex<HashMap<String, NodeSlot>>>,
}

impl fmt::Debug for CausalityPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalityPlane").field("nodes", &self.nodes.lock().len()).finish()
    }
}

impl CausalityPlane {
    /// An empty plane.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopt `recorder` (and its clock) as the causal identity of its
    /// node. Replaces any earlier standalone clock for the node — call
    /// before traffic flows.
    pub fn register(&self, recorder: &FlightRecorder) {
        self.nodes.lock().insert(
            recorder.node().to_owned(),
            NodeSlot { clock: recorder.lamport_clock(), recorder: Some(recorder.clone()) },
        );
    }

    /// The node's Lamport clock, created on first use for nodes without
    /// a registered recorder (e.g. an external caller).
    pub fn clock(&self, node: &str) -> LamportClock {
        self.nodes
            .lock()
            .entry(node.to_owned())
            .or_insert_with(|| NodeSlot { clock: LamportClock::new(), recorder: None })
            .clock
            .clone()
    }

    /// The node's registered recorder, if any.
    #[must_use]
    pub fn recorder(&self, node: &str) -> Option<FlightRecorder> {
        self.nodes.lock().get(node).and_then(|slot| slot.recorder.clone())
    }

    /// Registered recorders, sorted by node name (deterministic).
    #[must_use]
    pub fn recorders(&self) -> Vec<FlightRecorder> {
        let nodes = self.nodes.lock();
        let mut names: Vec<&String> = nodes.keys().collect();
        names.sort();
        names.into_iter().filter_map(|n| nodes[n].recorder.clone()).collect()
    }

    /// Fold every registered recorder's retained window into a merge.
    #[must_use]
    pub fn merge(&self) -> CausalMerge {
        let mut merge = CausalMerge::new();
        for recorder in self.recorders() {
            merge.add_recorder(&recorder);
        }
        merge
    }
}

/// Builder folding N causally-annotated logs into a [`CausalDag`].
///
/// Input order does not matter: events carry their node and per-node
/// sequence number, and the build sorts them into a canonical order, so
/// the resulting DAG — and its fingerprint — is invariant under
/// permutation of the input logs.
#[derive(Debug, Default)]
pub struct CausalMerge {
    events: Vec<RecordedEvent>,
}

impl CausalMerge {
    /// An empty merge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one node's event log (events carry their node name).
    pub fn add_events(&mut self, events: Vec<RecordedEvent>) -> &mut Self {
        self.events.extend(events);
        self
    }

    /// Add a recorder's retained window.
    pub fn add_recorder(&mut self, recorder: &FlightRecorder) -> &mut Self {
        self.add_events(recorder.events())
    }

    /// Build the happens-before DAG.
    #[must_use]
    pub fn build(&self) -> CausalDag {
        CausalDag::from_events(self.events.clone())
    }

    /// Shorthand: build and fingerprint in one step.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.build().fingerprint()
    }
}

/// One structured protocol-order or consistency violation found by
/// [`CausalDag::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalViolation {
    /// The merged graph is not acyclic (evidence: one event on a cycle).
    Cycle { event: String },
    /// An edge whose destination stamp is not greater than its source
    /// stamp — the Lamport invariant `send < receive` broken.
    LamportInversion { from: String, to: String, send: u64, recv: u64 },
    /// An edge that runs backwards in virtual time: Lamport order and the
    /// simulation clock disagree.
    ClockInversion { from: String, to: String },
    /// A commit outcome was delivered without the forced decision
    /// happening-before it (§12: force the decision, then act on it).
    OutcomeBeforeDecision { outcome: String },
    /// A vote was recorded causally after the decision was forced.
    VoteAfterDecision { vote: String, decision: String },
    /// The transaction completed before a phase-2 outcome delivery was
    /// causally in its past.
    CompletionBeforeAck { completion: String, outcome: String },
}

impl fmt::Display for CausalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalViolation::Cycle { event } => {
                write!(f, "happens-before cycle through [{event}]")
            }
            CausalViolation::LamportInversion { from, to, send, recv } => write!(
                f,
                "lamport inversion on edge [{from}] -> [{to}]: {recv} <= {send}"
            ),
            CausalViolation::ClockInversion { from, to } => {
                write!(f, "virtual-clock inversion on edge [{from}] -> [{to}]")
            }
            CausalViolation::OutcomeBeforeDecision { outcome } => write!(
                f,
                "outcome delivered without the forced decision in its causal past: [{outcome}]"
            ),
            CausalViolation::VoteAfterDecision { vote, decision } => {
                write!(f, "vote recorded after the decision was forced: [{vote}] after [{decision}]")
            }
            CausalViolation::CompletionBeforeAck { completion, outcome } => write!(
                f,
                "completion without a phase-2 ack in its causal past: [{completion}] missing [{outcome}]"
            ),
        }
    }
}

/// The merged global happens-before DAG over every node's recorded
/// events. Vertices are [`RecordedEvent`]s in canonical order (sorted by
/// node, then per-node sequence); edges are per-node program order plus
/// one edge per matched send→receive wire-token pair.
#[derive(Debug)]
pub struct CausalDag {
    events: Vec<RecordedEvent>,
    nodes: Vec<String>,
    /// Edges as (source, destination) indices into `events`.
    program_edges: Vec<(usize, usize)>,
    message_edges: Vec<(usize, usize)>,
}

impl CausalDag {
    fn from_events(mut events: Vec<RecordedEvent>) -> CausalDag {
        events.sort_by(|a, b| a.node.cmp(&b.node).then(a.seq.cmp(&b.seq)));
        let mut nodes: Vec<String> = events.iter().map(|e| e.node.clone()).collect();
        nodes.dedup();

        // Program order: consecutive retained events of the same node.
        let mut program_edges = Vec::new();
        for i in 1..events.len() {
            if events[i].node == events[i - 1].node {
                program_edges.push((i - 1, i));
            }
        }

        // Wire order: every send→receive pair sharing a wire token. The
        // token is the first whitespace-separated field of the detail;
        // one send may match several receives (network duplication).
        let mut sends: HashMap<&str, usize> = HashMap::new();
        for (i, event) in events.iter().enumerate() {
            if event.kind == RecordKind::WireSend {
                if let Some(token) = event.detail.split_whitespace().next() {
                    sends.insert(token, i);
                }
            }
        }
        let mut message_edges = Vec::new();
        for (i, event) in events.iter().enumerate() {
            if event.kind == RecordKind::WireRecv {
                if let Some(token) = event.detail.split_whitespace().next() {
                    if let Some(&s) = sends.get(token) {
                        message_edges.push((s, i));
                    }
                }
            }
        }
        message_edges.sort_unstable();

        CausalDag { events, nodes, program_edges, message_edges }
    }

    /// Merged events in canonical order.
    #[must_use]
    pub fn events(&self) -> &[RecordedEvent] {
        &self.events
    }

    /// Distinct node names, sorted.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Matched send→receive pairs, as canonical-index edges.
    #[must_use]
    pub fn message_edges(&self) -> &[(usize, usize)] {
        &self.message_edges
    }

    /// Total edge count (program order + wire).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.program_edges.len() + self.message_edges.len()
    }

    fn all_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.program_edges.iter().chain(self.message_edges.iter()).copied()
    }

    /// Kahn's algorithm: a topological order, or `None` when cyclic.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.events.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in self.all_edges() {
            indegree[b] += 1;
            succs[a].push(b);
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i);
            for &j in &succs[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Ancestor bitsets (transitive happens-before), or `None` on a cycle.
    fn ancestors(&self) -> Option<Vec<Vec<u64>>> {
        let order = self.topo_order()?;
        let n = self.events.len();
        let words = n.div_ceil(64);
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in self.all_edges() {
            preds[b].push(a);
        }
        let mut anc = vec![vec![0u64; words]; n];
        // Process in topological order so predecessors are complete.
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let mut by_rank: Vec<usize> = (0..n).collect();
        by_rank.sort_by_key(|&i| rank[i]);
        for i in by_rank {
            let mut set = vec![0u64; words];
            for &p in &preds[i] {
                set[p / 64] |= 1 << (p % 64);
                for (w, bits) in anc[p].iter().enumerate() {
                    set[w] |= bits;
                }
            }
            anc[i] = set;
        }
        Some(anc)
    }

    /// Check every §16 invariant over the merged order; an empty result
    /// means the run is causally consistent.
    #[must_use]
    pub fn verify(&self) -> Vec<CausalViolation> {
        let mut violations = Vec::new();

        let Some(anc) = self.ancestors() else {
            // Cyclic: report one witness (an event on some cycle) and stop —
            // ordering queries below would be meaningless.
            let witness = self
                .cycle_witness()
                .map_or_else(|| "<unknown>".to_owned(), |i| self.events[i].render());
            violations.push(CausalViolation::Cycle { event: witness });
            return violations;
        };
        let before = |a: usize, b: usize| anc[b][a / 64] & (1 << (a % 64)) != 0;

        // Every edge must advance the Lamport clock and never run
        // backwards in virtual time.
        for (a, b) in self.all_edges() {
            let (ea, eb) = (&self.events[a], &self.events[b]);
            if eb.lamport <= ea.lamport {
                violations.push(CausalViolation::LamportInversion {
                    from: ea.render(),
                    to: eb.render(),
                    send: ea.lamport,
                    recv: eb.lamport,
                });
            }
            if eb.at < ea.at {
                violations
                    .push(CausalViolation::ClockInversion { from: ea.render(), to: eb.render() });
            }
        }

        // Protocol order over the merged DAG. Protocol events are the
        // journal's entries (ots::TwoPcEvent renderings). Logs may hold
        // several consecutive transactions; a `prepare_sent(` following a
        // `completed(` starts the next epoch on that node and checks
        // never compare across epochs.
        let mut decisions: Vec<(usize, usize)> = Vec::new(); // (event, epoch)
        let mut votes: Vec<(usize, usize)> = Vec::new();
        let mut commit_outcomes: Vec<(usize, usize)> = Vec::new();
        let mut all_outcomes: Vec<(usize, usize)> = Vec::new();
        let mut completions: Vec<(usize, usize)> = Vec::new();
        // node → (current epoch, whether this epoch already completed)
        let mut epoch_of_node: HashMap<&str, (usize, bool)> = HashMap::new();
        for (i, event) in self.events.iter().enumerate() {
            if event.kind != RecordKind::Protocol {
                continue;
            }
            let detail = event.detail.as_str();
            let slot = epoch_of_node.entry(event.node.as_str()).or_insert((0, false));
            if detail.starts_with("prepare_sent(") && slot.1 {
                slot.0 += 1;
                slot.1 = false;
            }
            let epoch = slot.0;
            if detail.starts_with("decision_forced(") {
                decisions.push((i, epoch));
            } else if detail.starts_with("vote_recorded(") {
                votes.push((i, epoch));
            } else if detail.starts_with("outcome_delivered(") {
                all_outcomes.push((i, epoch));
                if detail.contains("commit=true") {
                    commit_outcomes.push((i, epoch));
                }
            } else if detail.starts_with("completed(") {
                completions.push((i, epoch));
                slot.1 = true;
            }
        }

        // A commit outcome needs the forced decision in its causal past.
        // (Presumed abort: rollback outcomes legitimately have none.)
        for &(o, oe) in &commit_outcomes {
            let ordered = decisions.iter().any(|&(d, de)| de == oe && before(d, o));
            if !ordered {
                violations.push(CausalViolation::OutcomeBeforeDecision {
                    outcome: self.events[o].render(),
                });
            }
        }

        // No vote may be causally after its epoch's forced decision.
        for &(v, ve) in &votes {
            if let Some(&(d, _)) =
                decisions.iter().find(|&&(d, de)| de == ve && before(d, v))
            {
                violations.push(CausalViolation::VoteAfterDecision {
                    vote: self.events[v].render(),
                    decision: self.events[d].render(),
                });
            }
        }

        // Completion needs every phase-2 delivery of its epoch (same
        // coordinator node) in its causal past.
        for &(c, ce) in &completions {
            for &(o, oe) in &all_outcomes {
                if oe == ce
                    && self.events[o].node == self.events[c].node
                    && !before(o, c)
                {
                    violations.push(CausalViolation::CompletionBeforeAck {
                        completion: self.events[c].render(),
                        outcome: self.events[o].render(),
                    });
                }
            }
        }

        violations
    }

    /// One event provably on a cycle (None when acyclic).
    fn cycle_witness(&self) -> Option<usize> {
        let n = self.events.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in self.all_edges() {
            indegree[b] += 1;
            succs[a].push(b);
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut removed = vec![false; n];
        while let Some(i) = ready.pop() {
            removed[i] = true;
            for &j in &succs[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        (0..n).find(|&i| !removed[i])
    }

    /// FNV-1a over the canonical event renderings and the edge sets.
    /// Canonical order makes this invariant under input-log permutation;
    /// simulation-driven stamps make it bit-identical across pinned-seed
    /// double runs (oracle #12 checks exactly that).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = crate::FNV_OFFSET;
        let mut eat = |bytes: &[u8]| hash = crate::fnv_fold(crate::fnv_fold(hash, bytes), b"\n");
        for event in &self.events {
            eat(event.node.as_bytes());
            eat(event.render().as_bytes());
        }
        for (a, b) in self.program_edges.iter().chain(self.message_edges.iter()) {
            eat(format!("{a}->{b}").as_bytes());
        }
        hash
    }

    /// Export the DAG as Chrome-trace/Perfetto JSON: one thread track per
    /// node (`ph:"M"` metadata), one complete slice (`ph:"X"`) per event
    /// at its virtual-clock microsecond, and a flow `s`/`f` pair per
    /// matched send→receive edge. One JSON object per line, so
    /// [`check_perfetto_schema`] can audit the output without a JSON
    /// parser. Load the file at `ui.perfetto.dev`.
    #[must_use]
    pub fn to_perfetto(&self) -> String {
        let tid_of = |node: &str| -> usize {
            self.nodes.iter().position(|n| n == node).unwrap_or(0) + 1
        };
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"causal-merge\"}}"
                .to_owned(),
        );
        for node in &self.nodes {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":{}}}}}",
                    tid_of(node),
                    json_string(node)
                ),
            );
        }
        for event in &self.events {
            push(
                &mut out,
                format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":1,\"pid\":1,\
                     \"tid\":{},\"args\":{{\"seq\":{},\"lamport\":{},\"detail\":{}}}}}",
                    json_string(event.kind.label()),
                    json_string(event.kind.label()),
                    event.at.as_micros(),
                    tid_of(&event.node),
                    event.seq,
                    event.lamport,
                    json_string(&event.detail)
                ),
            );
        }
        for (flow, &(a, b)) in self.message_edges.iter().enumerate() {
            let (send, recv) = (&self.events[a], &self.events[b]);
            push(
                &mut out,
                format!(
                    "{{\"name\":\"wire\",\"cat\":\"wire\",\"ph\":\"s\",\"id\":{},\"ts\":{},\
                     \"pid\":1,\"tid\":{}}}",
                    flow + 1,
                    send.at.as_micros(),
                    tid_of(&send.node)
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"name\":\"wire\",\"cat\":\"wire\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
                     \"ts\":{},\"pid\":1,\"tid\":{}}}",
                    flow + 1,
                    recv.at.as_micros(),
                    tid_of(&recv.node)
                ),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Minimal JSON string encoder (the workspace vendors no serde).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sanity-check a [`CausalDag::to_perfetto`] artifact without a JSON
/// parser: every event line carries `ph`, `ts` and `pid`, and every flow
/// id appears exactly once as a start (`ph:"s"`) and once as a finish
/// (`ph:"f"`). The CI `causal-export` job runs this against the uploaded
/// artifact so it stays loadable.
///
/// # Errors
///
/// A human-readable description of the first malformed line or unpaired
/// flow id.
pub fn check_perfetto_schema(json: &str) -> Result<(), String> {
    let mut starts: HashMap<String, usize> = HashMap::new();
    let mut finishes: HashMap<String, usize> = HashMap::new();
    let mut events = 0usize;
    for (lineno, line) in json.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\":") {
            continue;
        }
        events += 1;
        for key in ["\"ph\":", "\"ts\":", "\"pid\":"] {
            if !line.contains(key) {
                return Err(format!("line {}: event missing {key}: {line}", lineno + 1));
            }
        }
        let phase = line
            .split("\"ph\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| format!("line {}: unparseable ph: {line}", lineno + 1))?;
        if phase == "s" || phase == "f" {
            let id = line
                .split("\"id\":")
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .ok_or_else(|| format!("line {}: flow event missing id: {line}", lineno + 1))?
                .to_owned();
            let book = if phase == "s" { &mut starts } else { &mut finishes };
            *book.entry(id).or_insert(0) += 1;
        }
    }
    if events == 0 {
        return Err("no trace events found".to_owned());
    }
    for (id, n) in &starts {
        if *n != 1 || finishes.get(id) != Some(&1) {
            return Err(format!("flow id {id} not paired exactly once (s={n}, f={:?})", finishes.get(id)));
        }
    }
    for id in finishes.keys() {
        if !starts.contains_key(id) {
            return Err(format!("flow id {id} finishes without a start"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(node: &str, seq: u64, lamport: u64, kind: RecordKind, detail: &str) -> RecordedEvent {
        RecordedEvent {
            seq,
            at: Duration::from_micros(lamport * 10),
            lamport,
            node: node.to_owned(),
            kind,
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn lamport_clock_ticks_strictly_increase() {
        let clock = LamportClock::new();
        assert_eq!(clock.tick(), 1);
        assert_eq!(clock.tick(), 2);
        assert_eq!(clock.observe(10), 11);
        assert_eq!(clock.tick(), 12);
        assert_eq!(clock.observe(3), 13, "observe of stale stamp still advances");
        assert_eq!(clock.current(), 13);
    }

    #[test]
    fn wire_stamp_round_trips() {
        let stamp = wire_stamp(42, "coordinator#7@42");
        assert_eq!(parse_wire_stamp(&stamp), Some((42, "coordinator#7@42")));
        assert_eq!(parse_wire_stamp("garbage"), None);
        assert_eq!(parse_wire_stamp("x y"), None);
    }

    #[test]
    fn merge_matches_sends_to_receives() {
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("a", 0, 1, RecordKind::WireSend, "d#1@1 ping a->b"),
                ev("a", 1, 4, RecordKind::WireRecv, "d#1@2r reply:ping b->a"),
            ])
            .add_events(vec![
                ev("b", 0, 2, RecordKind::WireRecv, "d#1@1 ping a->b"),
                ev("b", 1, 3, RecordKind::WireSend, "d#1@2r reply:ping b->a"),
            ])
            .build();
        assert_eq!(dag.nodes(), ["a".to_owned(), "b".to_owned()]);
        assert_eq!(dag.message_edges().len(), 2, "request and reply legs both matched");
        assert_eq!(dag.edge_count(), 4);
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
    }

    #[test]
    fn fingerprint_invariant_under_log_permutation() {
        let log_a = vec![ev("a", 0, 1, RecordKind::WireSend, "t@1 op a->b")];
        let log_b = vec![ev("b", 0, 2, RecordKind::WireRecv, "t@1 op a->b")];
        let ab = CausalMerge::new()
            .add_events(log_a.clone())
            .add_events(log_b.clone())
            .fingerprint();
        let ba = CausalMerge::new().add_events(log_b).add_events(log_a).fingerprint();
        assert_eq!(ab, ba);
    }

    #[test]
    fn lamport_inversion_detected() {
        let dag = CausalMerge::new()
            .add_events(vec![ev("a", 0, 9, RecordKind::WireSend, "t@9 op a->b")])
            .add_events(vec![ev("b", 0, 3, RecordKind::WireRecv, "t@9 op a->b")])
            .build();
        let violations = dag.verify();
        assert!(
            violations.iter().any(|v| matches!(v, CausalViolation::LamportInversion { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn clock_inversion_detected() {
        let mut send = ev("a", 0, 1, RecordKind::WireSend, "t@1 op a->b");
        send.at = Duration::from_micros(500);
        let mut recv = ev("b", 0, 2, RecordKind::WireRecv, "t@1 op a->b");
        recv.at = Duration::from_micros(100);
        let dag = CausalMerge::new().add_events(vec![send]).add_events(vec![recv]).build();
        let violations = dag.verify();
        assert!(
            violations.iter().any(|v| matches!(v, CausalViolation::ClockInversion { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn outcome_before_decision_detected() {
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("c", 0, 1, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
                ev("c", 1, 2, RecordKind::Protocol, "decision_forced(commit=true)"),
            ])
            .build();
        let violations = dag.verify();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(matches!(violations[0], CausalViolation::OutcomeBeforeDecision { .. }));
    }

    #[test]
    fn rollback_outcome_needs_no_decision() {
        // Presumed abort: rollback deliveries are legitimate without a
        // forced decision.
        let dag = CausalMerge::new()
            .add_events(vec![ev(
                "c",
                0,
                1,
                RecordKind::Protocol,
                "outcome_delivered(store, commit=false, ok=true)",
            )])
            .build();
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
    }

    #[test]
    fn vote_after_decision_detected() {
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("c", 0, 1, RecordKind::Protocol, "decision_forced(commit=true)"),
                ev("c", 1, 2, RecordKind::Protocol, "vote_recorded(store, Commit)"),
                ev("c", 2, 3, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
            ])
            .build();
        let violations = dag.verify();
        assert!(
            violations.iter().any(|v| matches!(v, CausalViolation::VoteAfterDecision { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn completion_before_ack_detected() {
        // A phase-2 delivery journaled after the completion (same
        // transaction: no new prepare in between) is not in the
        // completion's causal past — flagged.
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("c", 0, 1, RecordKind::Protocol, "decision_forced(commit=true)"),
                ev("c", 1, 2, RecordKind::Protocol, "completed(committed=true)"),
                ev("c", 2, 3, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
            ])
            .build();
        let violations = dag.verify();
        assert!(
            violations.iter().any(|v| matches!(v, CausalViolation::CompletionBeforeAck { .. })),
            "{violations:?}"
        );

        // In-order epoch is clean.
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("c", 0, 1, RecordKind::Protocol, "decision_forced(commit=true)"),
                ev("c", 1, 2, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
                ev("c", 2, 3, RecordKind::Protocol, "completed(committed=true)"),
            ])
            .build();
        assert!(dag.verify().is_empty(), "in-order epoch is clean: {:?}", dag.verify());

        // A second transaction's deliveries (new prepare after the
        // completion) are never compared against the first completion.
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("c", 0, 1, RecordKind::Protocol, "prepare_sent(store)"),
                ev("c", 1, 2, RecordKind::Protocol, "decision_forced(commit=true)"),
                ev("c", 2, 3, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
                ev("c", 3, 4, RecordKind::Protocol, "completed(committed=true)"),
                ev("c", 4, 5, RecordKind::Protocol, "prepare_sent(store)"),
                ev("c", 5, 6, RecordKind::Protocol, "decision_forced(commit=true)"),
                ev("c", 6, 7, RecordKind::Protocol, "outcome_delivered(store, commit=true, ok=true)"),
                ev("c", 7, 8, RecordKind::Protocol, "completed(committed=true)"),
            ])
            .build();
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
    }

    #[test]
    fn cycle_detected() {
        // Two wire tokens crossing: a's send is received before b's send,
        // which a received before sending — impossible order forced by
        // fabricated program order.
        let dag = CausalMerge::new()
            .add_events(vec![
                ev("a", 0, 1, RecordKind::WireRecv, "t2 op b->a"),
                ev("a", 1, 2, RecordKind::WireSend, "t1 op a->b"),
            ])
            .add_events(vec![
                ev("b", 0, 1, RecordKind::WireRecv, "t1 op a->b"),
                ev("b", 1, 2, RecordKind::WireSend, "t2 op b->a"),
            ])
            .build();
        let violations = dag.verify();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(matches!(violations[0], CausalViolation::Cycle { .. }));
    }

    #[test]
    fn perfetto_export_passes_schema_check_and_carries_flows() {
        let dag = CausalMerge::new()
            .add_events(vec![ev("a", 0, 1, RecordKind::WireSend, "t@1 op a->b")])
            .add_events(vec![ev("b", 0, 2, RecordKind::WireRecv, "t@1 op a->b")])
            .build();
        let json = dag.to_perfetto();
        check_perfetto_schema(&json).unwrap();
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn schema_check_rejects_unpaired_flows() {
        let bad = "{\"traceEvents\":[\n\
                   {\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1},\n\
                   {\"name\":\"wire\",\"ph\":\"s\",\"id\":7,\"ts\":0,\"pid\":1,\"tid\":1}\n\
                   ]}";
        assert!(check_perfetto_schema(bad).is_err());
        let missing_ts = "{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":1}";
        assert!(check_perfetto_schema(missing_ts).is_err());
        assert!(check_perfetto_schema("").is_err());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
