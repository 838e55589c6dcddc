//! Span recording for the traced run, and the interval accounting that
//! turns spans into per-layer self times.
//!
//! Spans are recorded only from the benchmark's own files: the decorators
//! in `decorators.rs` and the benchmark's calls into each layer. Nothing
//! inside the program is instrumented. Recording is off unless
//! [`set_enabled`] turned it on, so the untraced run pays one relaxed
//! atomic load per benchmark call site and nothing else.
//!
//! A span's parent is the innermost open span on the same thread. A span
//! opened on a thread with no open span (a worker-pool thread running a
//! fanned-out participant or action) is parented under the innermost open
//! span of the client that owns the operation, found through the client
//! slots below.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Most client threads any workload runs.
pub const MAX_CLIENTS: usize = 4;

/// The layers of the commit stack, in the order ROADMAP names them, plus
/// the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    ActivityService,
    TxModels,
    Orb,
    Ots,
    RecoveryLog,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::ActivityService,
        Layer::TxModels,
        Layer::Orb,
        Layer::Ots,
        Layer::RecoveryLog,
    ];
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One whole operation of a workload (the root of its span tree).
    Op,
    /// `UserActivity::begin`.
    Begin,
    /// `UserActivity::complete*` (drives the completion signal set).
    Complete,
    /// `ActivityManager` registration calls (`add_signal_set`,
    /// `register_action`, `set_completion_signal_set`).
    Register,
    /// A `SignalSet` method called by the activity coordinator.
    SignalSetCall,
    /// A `StepCompensation` action receiving a signal.
    Compensation,
    /// A servant-side action (`ResourceAction` behind an `ActionServant`).
    ServantAction,
    /// A `RemoteActionProxy` receiving a signal (client side of an invoke).
    Proxy,
    /// `Node::activate` / `Node::deactivate`.
    Activate,
    /// `TransactionFactory::create`.
    TxCreate,
    /// Transactional writes and `register_resource`.
    TxWork,
    /// `Terminator::commit`.
    TxCommit,
    /// `TransactionFactory::recover`.
    TxRecover,
    /// `DurableKv::recover`.
    StoreRecover,
    /// `Resource::prepare`.
    Prepare,
    /// `Resource::commit` / `rollback` / `commit_one_phase` / `forget`.
    Phase2,
    /// Other `Resource` methods (`read_only_hint`, `resource_name`).
    ResourceOther,
    /// `Wal::append` on the group-commit log.
    Append,
    /// `Wal::append_durable` on the group-commit log (includes the wait for
    /// the group leader's flush).
    AppendDurable,
    /// Any other `Wal` method on the group-commit log.
    WalOther,
    /// `Wal::sync` at the file sink (the fsync).
    SinkSync,
    /// `Wal::append_batch` / `append` at the file sink (the coalesced write).
    SinkWrite,
    /// `Wal::scan` / `scan_with`, at either log layer.
    Scan,
    /// Any other `Wal` method at the file sink.
    SinkOther,
    /// `FileWal::open` (reads and decodes the whole file).
    Open,
}

impl Kind {
    pub fn layer(self) -> Layer {
        match self {
            Kind::Op => Layer::Bench,
            Kind::Begin | Kind::Complete | Kind::Register => Layer::ActivityService,
            Kind::SignalSetCall | Kind::Compensation | Kind::ServantAction => Layer::TxModels,
            Kind::Proxy | Kind::Activate => Layer::Orb,
            Kind::TxCreate
            | Kind::TxWork
            | Kind::TxCommit
            | Kind::TxRecover
            | Kind::StoreRecover
            | Kind::Prepare
            | Kind::Phase2
            | Kind::ResourceOther => Layer::Ots,
            Kind::Append
            | Kind::AppendDurable
            | Kind::WalOther
            | Kind::SinkSync
            | Kind::SinkWrite
            | Kind::Scan
            | Kind::SinkOther
            | Kind::Open => Layer::RecoveryLog,
        }
    }
}

/// One closed span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub op: u64,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
}

/// Counts taken where the work happens, alongside the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Signals a signal set handed to the coordinator.
    Signals,
    /// Compensations that actually undid a step.
    CompensationsRun,
    /// Records a scan visited.
    RecordsScanned,
    /// Records written at the file sink.
    SinkRecords,
}

impl Counter {
    const ALL: [Counter; 4] = [
        Counter::Signals,
        Counter::CompensationsRun,
        Counter::RecordsScanned,
        Counter::SinkRecords,
    ];
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CLIENT_TOP: [AtomicU64; MAX_CLIENTS] = [const { AtomicU64::new(0) }; MAX_CLIENTS];
static CLIENT_OP: [AtomicU64; MAX_CLIENTS] = [const { AtomicU64::new(0) }; MAX_CLIENTS];
static COUNTS: [AtomicU64; Counter::ALL.len()] = [const { AtomicU64::new(0) }; Counter::ALL.len()];
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static TX_CLIENT: Mutex<Option<HashMap<u64, usize>>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct ThreadCtx {
    client: Option<usize>,
    op: u64,
    stack: Vec<u64>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Drop every recorded span and count.
pub fn reset() {
    SPANS.lock().unwrap().clear();
    for c in &COUNTS {
        c.store(0, Ordering::SeqCst);
    }
    *TX_CLIENT.lock().unwrap() = Some(HashMap::new());
}

/// Take every recorded span and the counts.
pub fn drain() -> (Vec<Span>, HashMap<Counter, u64>) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap());
    let counts =
        Counter::ALL.into_iter().map(|c| (c, COUNTS[c as usize].load(Ordering::SeqCst))).collect();
    (spans, counts)
}

/// Add to a count (no-op when recording is off).
pub fn count(counter: Counter, n: u64) {
    if enabled() {
        COUNTS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Note that transaction `top_seq` belongs to `client`, so participant
/// spans fanned out to pool threads find their operation.
pub fn bind_tx(top_seq: u64, client: usize) {
    if enabled() {
        if let Some(map) = TX_CLIENT.lock().unwrap().as_mut() {
            map.insert(top_seq, client);
        }
    }
}

/// Forget a binding made by [`bind_tx`].
pub fn unbind_tx(top_seq: u64) {
    if enabled() {
        if let Some(map) = TX_CLIENT.lock().unwrap().as_mut() {
            map.remove(&top_seq);
        }
    }
}

/// The client that owns transaction `top_seq`, if bound.
pub fn tx_client(top_seq: u64) -> Option<usize> {
    TX_CLIENT.lock().unwrap().as_ref().and_then(|m| m.get(&top_seq).copied())
}

/// Time `f` as an operation root for `client`.
pub fn op<T>(client: usize, op_id: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        c.client = Some(client);
        c.op = op_id;
    });
    CLIENT_OP[client].store(op_id, Ordering::SeqCst);
    let out = span_inner(Kind::Op, None, f);
    CTX.with(|c| c.borrow_mut().op = 0);
    out
}

/// Time `f` as a span of `kind` under the current context.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    span_inner(kind, None, f)
}

/// Like [`span`], but when this thread has no open span, parent it under
/// the open span of `client` (default: client 0, the only client of the
/// single-client workloads).
pub fn span_for<T>(kind: Kind, client: Option<usize>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    span_inner(kind, Some(client.unwrap_or(0)), f)
}

fn span_inner<T>(kind: Kind, adopt_client: Option<usize>, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op, client, adopted) = CTX.with(|c| {
        let mut c = c.borrow_mut();
        let mut adopted = false;
        let parent = match c.stack.last() {
            Some(&top) => top,
            None => match adopt_client {
                Some(client) if kind != Kind::Op => {
                    adopted = true;
                    c.op = CLIENT_OP[client].load(Ordering::SeqCst);
                    CLIENT_TOP[client].load(Ordering::SeqCst)
                }
                _ => 0,
            },
        };
        c.stack.push(id);
        (parent, c.op, c.client, adopted)
    });
    if let Some(client) = client {
        CLIENT_TOP[client].store(id, Ordering::SeqCst);
    }
    let start = now_ns();
    let out = f();
    let end = now_ns();
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        c.stack.pop();
        if let Some(client) = c.client {
            CLIENT_TOP[client].store(c.stack.last().copied().unwrap_or(0), Ordering::SeqCst);
        }
        if adopted {
            c.op = 0;
        }
    });
    SPANS.lock().unwrap().push(Span { id, parent, op, kind, start, end });
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span results of [`account`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    /// Span duration, clipped to its parent.
    pub duration: u64,
    /// Duration minus the union of its children's (clipped) intervals.
    pub self_ns: u64,
    /// This span's share of the operation's wall time: at each instant,
    /// the innermost open spans split it evenly. Over one operation these
    /// shares sum to the root's duration exactly.
    pub share: f64,
    /// Number of direct children.
    pub children: usize,
}

/// Account one operation's spans. `spans[root]` must be the `Op` span;
/// spans whose parent is missing hang under the root. Children are
/// clipped to their parent's interval (a pool task may outlive the call
/// that dispatched it).
pub fn account(spans: &[Span]) -> Vec<SpanCost> {
    let n = spans.len();
    let root = spans.iter().position(|s| s.kind == Kind::Op).expect("op root");
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == root {
                None
            } else {
                Some(index.get(&s.parent).copied().filter(|&p| p != i).unwrap_or(root))
            }
        })
        .collect();
    // Clip each span to its parent's clipped interval, parents first.
    let mut clipped: Vec<Option<(u64, u64)>> = vec![None; n];
    fn clip(
        i: usize,
        spans: &[Span],
        parent: &[Option<usize>],
        clipped: &mut [Option<(u64, u64)>],
        depth: usize,
    ) -> (u64, u64) {
        if let Some(c) = clipped[i] {
            return c;
        }
        let (s, e) = (spans[i].start, spans[i].end.max(spans[i].start));
        let c = match parent[i] {
            // Depth guard: a parent cycle (impossible from the recorder)
            // degrades to the unclipped interval instead of recursing.
            Some(p) if depth < spans.len() => {
                let (ps, pe) = clip(p, spans, parent, clipped, depth + 1);
                let s = s.clamp(ps, pe);
                (s, e.clamp(s, pe))
            }
            _ => (s, e),
        };
        clipped[i] = Some(c);
        c
    }
    for i in 0..n {
        clip(i, spans, &parent, &mut clipped, 0);
    }
    let iv: Vec<(u64, u64)> = clipped.into_iter().map(Option::unwrap).collect();
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            kids[*p].push(i);
        }
    }
    let mut out: Vec<SpanCost> = (0..n)
        .map(|i| {
            let (s, e) = iv[i];
            let mut child_iv: Vec<(u64, u64)> = kids[i].iter().map(|&k| iv[k]).collect();
            SpanCost {
                duration: e - s,
                self_ns: (e - s) - union_len(&mut child_iv, s, e),
                share: 0.0,
                children: kids[i].len(),
            }
        })
        .collect();
    // Sweep: between consecutive endpoints the set of open spans is fixed;
    // its innermost members (no open child) split the segment evenly.
    let mut points: Vec<u64> = iv.iter().flat_map(|&(s, e)| [s, e]).collect();
    points.sort_unstable();
    points.dedup();
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        let open = |i: usize| iv[i].0 <= a && iv[i].1 >= b && iv[i].0 < iv[i].1;
        let frontier: Vec<usize> =
            (0..n).filter(|&i| open(i) && !kids[i].iter().any(|&k| open(k))).collect();
        if frontier.is_empty() {
            continue;
        }
        let part = (b - a) as f64 / frontier.len() as f64;
        for i in frontier {
            out[i].share += part;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, kind: Kind, start: u64, end: u64) -> Span {
        Span { id, parent, op: 1, kind, start, end }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30), (25, 26)];
        assert_eq!(union_len(&mut iv, 0, 100), 25);
        let mut iv = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(union_len(&mut iv, 8, 22), 9);
        let mut iv = vec![(50, 60)];
        assert_eq!(union_len(&mut iv, 0, 40), 0);
    }

    #[test]
    fn serial_children_give_exact_self_time() {
        let spans = [
            sp(1, 0, Kind::Op, 0, 100),
            sp(2, 1, Kind::TxCommit, 10, 90),
            sp(3, 2, Kind::Prepare, 20, 40),
            sp(4, 2, Kind::Phase2, 50, 60),
        ];
        let c = account(&spans);
        assert_eq!(c[0].self_ns, 20);
        assert_eq!(c[1].self_ns, 50);
        assert_eq!(c[2].self_ns, 20);
        // Serial: share equals self time.
        for cost in &c {
            assert!((cost.share - cost.self_ns as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // Three participants fanned out in parallel under one commit.
        let spans = [
            sp(1, 0, Kind::Op, 0, 100),
            sp(2, 1, Kind::TxCommit, 0, 100),
            sp(3, 2, Kind::Prepare, 10, 50),
            sp(4, 2, Kind::Prepare, 20, 60),
            sp(5, 2, Kind::Prepare, 30, 40),
        ];
        let c = account(&spans);
        assert_eq!(c[1].self_ns, 50, "commit minus the union 10..60");
        assert_eq!(c[2].self_ns, 40);
        let total: f64 = c.iter().map(|x| x.share).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to wall: {total}");
        // 10..20 and 50..60 belong to one participant; 20..30 and 40..50
        // to two; 30..40 to three.
        assert!((c[1].share - 50.0).abs() < 1e-9);
        assert!((c[2].share - (10.0 + 5.0 + 10.0 / 3.0 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = [
            sp(1, 0, Kind::Op, 0, 100),
            sp(2, 1, Kind::Complete, 10, 50),
            // A pool task that outlives the dispatch call, and one that
            // starts before it (clock skew between threads).
            sp(3, 2, Kind::Compensation, 40, 80),
            sp(4, 2, Kind::Compensation, 5, 15),
            // A grandchild entirely outside its (clipped) parent.
            sp(5, 3, Kind::Prepare, 60, 70),
        ];
        let c = account(&spans);
        assert_eq!(c[2].duration, 10);
        assert_eq!(c[3].duration, 5);
        assert_eq!(c[4].duration, 0);
        assert_eq!(c[1].self_ns, 40 - 15);
        let total: f64 = c.iter().map(|x| x.share).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn orphans_hang_under_the_root() {
        let spans = [sp(1, 0, Kind::Op, 0, 100), sp(7, 99, Kind::Scan, 10, 20)];
        let c = account(&spans);
        assert_eq!(c[0].self_ns, 90);
        assert_eq!(c[0].children, 1);
    }

    #[test]
    fn recorder_parents_nested_spans_on_one_thread() {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        op(0, 42, || {
            span(Kind::TxCommit, || {
                span(Kind::Prepare, || ());
            });
            // A pool thread with no open span adopts client 0's top span.
            span(Kind::Complete, || {
                std::thread::scope(|s| {
                    s.spawn(|| span_for(Kind::Proxy, None, || ()));
                });
            });
        });
        set_enabled(false);
        let (spans, _) = drain();
        let by_kind = |k: Kind| *spans.iter().find(|s| s.kind == k).unwrap();
        let root = by_kind(Kind::Op);
        let commit = by_kind(Kind::TxCommit);
        let complete = by_kind(Kind::Complete);
        assert_eq!(commit.parent, root.id);
        assert_eq!(by_kind(Kind::Prepare).parent, commit.id);
        assert_eq!(by_kind(Kind::Proxy).parent, complete.id);
        assert!(spans.iter().all(|s| s.op == 42), "{spans:?}");
    }
}
