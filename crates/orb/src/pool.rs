//! A reusable worker pool for parallel fan-out with deterministic,
//! in-order result collation, and the adaptive rule that decides when a
//! batch is worth sending to it.
//!
//! Both coordination hot paths in this repo — the Activity Service's
//! fig. 5 signal loop and the OTS two-phase commit — transmit to a set
//! of independent participants and then consume the results *in
//! registration order* so protocol decisions and traces stay
//! deterministic. This module provides the shared machinery:
//!
//! * [`DispatchConfig`] — how a batch fans out: [`DispatchConfig::serial`]
//!   is the exact legacy inline loop, [`DispatchConfig::with_workers`]
//!   always scatters on a pool of that width, and the default is
//!   **adaptive** (below);
//! * [`FanOutSite`] — process-wide wall-clock cost estimates for one
//!   fan-out call site, which the adaptive default reads;
//! * [`WorkerPool`] — long-lived worker threads behind process-wide,
//!   lazily-created instances ([`WorkerPool::global`],
//!   [`WorkerPool::shared`]), so short-lived coordinators never pay
//!   thread spawn/teardown;
//! * [`WorkerPool::scatter`] — submit a batch of indexed tasks and get
//!   an [`OrderedResults`] iterator that yields outcomes in submission
//!   order as they become available;
//! * [`CancelToken`] — cooperative cancellation: tasks not yet started
//!   when the token fires are skipped (the `EarlyBreak` optimisation:
//!   once a protocol engine asks for the next signal, outstanding
//!   deliveries of the current one are abandoned).
//!
//! **The adaptive default.** Handing a task to another thread costs tens
//! of microseconds of wake-up and queueing; a cheap in-process
//! participant call costs a few. So every fan-out site keeps two
//! wall-clock estimates in a static [`FanOutSite`]: the per-task cost
//! `t`, measured in whichever mode the batch ran (around each inline call,
//! or on the worker around each scattered task), and the pool's hand-off
//! cost `H`, measured by the pool from a batch's submission to the start
//! of its last task (so it grows with the submission and queueing work
//! of large batches). The latest batch's figures are the estimates,
//! except that `H` may at most double per batch: only scattered batches
//! measure it, so one stalled batch taken at face value could hold a site
//! inline for good. A batch of `n` tasks then runs inline, on the site's
//! serial code path, when `n·t ≤ H + ⌈n/(W+1)⌉·t`: the inline cost is no
//! more than the pooled cost with `W` workers plus the collating thread,
//! which helps. Otherwise it scatters on the default pool. A site that
//! has not yet scattered has no `H` and scatters, so its first batch
//! measures both.
//! The default pool is as wide as the machine's available parallelism
//! (probed once per process) but never narrower than eight workers: the
//! adaptive rule keeps cheap participants off it, so what reaches it is
//! mostly blocking work — remote calls, forced log writes — whose
//! threads overlap latency, not CPU.
//!
//! Waiting collators **help**: while blocked on a result, the waiting
//! thread pulls queued jobs (from any batch) and runs them itself. This
//! makes nested dispatch — an action or resource that itself drives
//! another coordinator — deadlock-free even when every worker thread is
//! busy, and lets a zero-contention benchmark saturate the machine.
//!
//! Panic semantics mirror serial execution: a task panic is captured on
//! the worker and re-raised on the collating thread at the panicking
//! task's position in the order. Panics in tasks past a cancellation
//! point are discarded along with their results (speculative deliveries
//! are covered by the at-least-once/idempotence contract, §3.4 of the
//! paper).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The narrowest default pool; see the module docs.
const MIN_DEFAULT_WIDTH: usize = 8;

/// Width of the default pool: the machine's available parallelism,
/// probed once per process (the probe reads cgroup files and costs tens
/// of microseconds), but at least [`MIN_DEFAULT_WIDTH`].
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(4, std::num::NonZeroUsize::get)
            .max(MIN_DEFAULT_WIDTH)
    })
}

/// How a coordinator fans work out to its participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchConfig {
    /// `None` is the adaptive default; `Some(1)` the serial loop.
    workers: Option<usize>,
}

impl DispatchConfig {
    /// Exact legacy serial behaviour: everything runs inline on the
    /// calling thread, in registration order, stopping at the first
    /// early break. Deterministic-replay tests use this.
    pub fn serial() -> Self {
        DispatchConfig { workers: Some(1) }
    }

    /// Always fan out across at most `workers` concurrent tasks (`1` =
    /// serial), whatever the participants cost.
    pub fn with_workers(workers: usize) -> Self {
        DispatchConfig { workers: Some(workers.max(1)) }
    }

    /// Fan-out width: the configured one, or the default pool's width
    /// for the adaptive default.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_width)
    }

    /// Whether this config requests the inline serial path.
    pub fn is_serial(&self) -> bool {
        self.workers == Some(1)
    }

    /// Where a batch of `tasks` at `site` runs: `None` inline on the
    /// site's serial path, `Some(pool)` scattered on that pool. One task
    /// always runs inline. The adaptive default applies the rule in the
    /// module docs to `site`'s estimates.
    pub fn pool_for(&self, site: &FanOutSite, tasks: usize) -> Option<&'static WorkerPool> {
        match self.workers {
            _ if tasks <= 1 => None,
            Some(1) => None,
            Some(workers) => Some(WorkerPool::shared(workers)),
            None if site.inline_is_cheaper(tasks, default_width()) => None,
            None => Some(WorkerPool::global()),
        }
    }
}

/// Process-wide wall-clock cost estimates for one fan-out call site,
/// kept in a `static` at the site and read by the adaptive
/// [`DispatchConfig`] default. Every batch the site runs feeds it: inline
/// batches through [`FanOutSite::inline`], scattered ones through
/// [`WorkerPool::scatter`].
#[derive(Debug, Default)]
pub struct FanOutSite {
    /// Per-task cost in ns; 0 until the first batch.
    task_ns: AtomicU64,
    /// Pool hand-off cost in ns; 0 until the first scattered batch.
    handoff_ns: AtomicU64,
}

impl FanOutSite {
    /// A site with no measurements yet.
    pub const fn new() -> Self {
        FanOutSite { task_ns: AtomicU64::new(0), handoff_ns: AtomicU64::new(0) }
    }

    /// Start timing an inline batch; the batch's mean per-task cost is
    /// recorded when the returned guard drops.
    pub fn inline(&self) -> InlineBatch<'_> {
        InlineBatch { site: self, spent: Duration::ZERO, tasks: 0 }
    }

    /// Whether `tasks` tasks are estimated to cost no more inline than
    /// on a pool of `workers` threads. A site that has never scattered
    /// has no hand-off estimate and answers `false`.
    fn inline_is_cheaper(&self, tasks: usize, workers: usize) -> bool {
        let task = self.task_ns.load(Ordering::Relaxed);
        let handoff = self.handoff_ns.load(Ordering::Relaxed);
        if task == 0 || handoff == 0 {
            return false;
        }
        let tasks = tasks as u64;
        let rounds = tasks.div_ceil(workers as u64 + 1);
        tasks.saturating_mul(task) <= handoff.saturating_add(rounds.saturating_mul(task))
    }

    /// The per-task cost becomes the batch's mean, so a site follows a
    /// change of participants within one batch.
    fn record_tasks(&self, tasks: usize, spent: Duration) {
        if tasks > 0 {
            let tasks = u32::try_from(tasks).unwrap_or(u32::MAX);
            self.task_ns.store(nanos(spent / tasks), Ordering::Relaxed);
        }
    }

    /// The hand-off cost becomes the batch's figure, but may at most
    /// double per batch. Only scattered batches measure it, so a
    /// one-off stall (a descheduled vCPU) taken at face value could hold
    /// a site inline, never re-measuring, for good.
    fn record_handoff(&self, handoff: Duration) {
        let sample = nanos(handoff);
        let old = self.handoff_ns.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { sample.min(old.saturating_mul(2)) };
        self.handoff_ns.store(new, Ordering::Relaxed);
    }
}

/// An estimate in ns: at least 1, so that 0 can mean "not measured".
/// Concurrent batches at one site race to store theirs; either figure is
/// a fair sample.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// Times the calls of one inline batch; see [`FanOutSite::inline`].
#[derive(Debug)]
pub struct InlineBatch<'s> {
    site: &'s FanOutSite,
    spent: Duration,
    tasks: usize,
}

impl InlineBatch<'_> {
    /// Run one task of the batch, timing it.
    pub fn time<T>(&mut self, task: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = task();
        self.spent += started.elapsed();
        self.tasks += 1;
        value
    }
}

impl Drop for InlineBatch<'_> {
    fn drop(&mut self) {
        self.site.record_tasks(self.tasks, self.spent);
    }
}

/// Cooperative cancellation flag shared between a collator and the
/// batch's not-yet-started tasks.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire the token: tasks that have not started yet are skipped.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What became of one scattered task.
pub enum TaskOutcome<T> {
    /// The task ran to completion.
    Done(T),
    /// The task was skipped because its batch was cancelled first.
    Cancelled,
    /// The task panicked; the payload re-raises at the collation point.
    Panicked(Box<dyn std::any::Any + Send>),
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A set of long-lived worker threads consuming a shared job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orb-dispatch-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn dispatch worker")
            })
            .collect();
        WorkerPool { shared, workers, handles: Mutex::new(handles) }
    }

    /// The process-wide default pool, created on first use; the adaptive
    /// [`DispatchConfig`] default scatters on it. It is as wide as the
    /// machine's available parallelism, probed once per process, but at
    /// least eight workers (see the module docs). Resolving it takes no
    /// lock after the first call.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_width()))
    }

    /// A process-wide pool with exactly `workers` threads, created on
    /// first use and cached for the process lifetime.
    /// [`DispatchConfig::with_workers`] scatters through this:
    /// participant calls model *remote invocations*, so a fan-out wider
    /// than the core count is meaningful — the threads overlap latency,
    /// not CPU. The default width resolves to [`WorkerPool::global`];
    /// other widths are looked up in a locked map.
    pub fn shared(workers: usize) -> &'static WorkerPool {
        static POOLS: OnceLock<Mutex<HashMap<usize, &'static WorkerPool>>> = OnceLock::new();
        let workers = workers.max(1);
        if workers == default_width() {
            return WorkerPool::global();
        }
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pools
            .entry(workers)
            .or_insert_with(|| Box::leak(Box::new(WorkerPool::new(workers))))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue one job.
    fn submit(&self, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Pop and run one queued job on the calling thread, if any is
    /// waiting. Used by collators to help while they block, which keeps
    /// nested dispatch deadlock-free.
    fn try_run_one(&self) -> bool {
        let job = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.pop_front()
        };
        match job {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    /// Run every task on the pool, tagged with its index. The returned
    /// [`OrderedResults`] yields one [`TaskOutcome`] per task **in
    /// submission order**, blocking (and helping with queued work) as
    /// needed. Tasks observe `cancel` before starting: once it fires,
    /// unstarted tasks report [`TaskOutcome::Cancelled`] without running.
    /// When the results are dropped, the batch's per-task cost and
    /// hand-off cost (submission to the start of the last collected task)
    /// are recorded into `site`.
    pub fn scatter<'a, T: Send + 'static>(
        &'a self,
        site: &'a FanOutSite,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        cancel: &CancelToken,
    ) -> OrderedResults<'a, T> {
        let total = tasks.len();
        let (tx, rx): (Sender<Report<T>>, Receiver<_>) = std::sync::mpsc::channel();
        let submitted = Instant::now();
        for (index, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            let cancel = cancel.clone();
            self.submit(Box::new(move || {
                let started = Instant::now();
                let outcome = if cancel.is_cancelled() {
                    TaskOutcome::Cancelled
                } else {
                    match catch_unwind(AssertUnwindSafe(task)) {
                        Ok(value) => TaskOutcome::Done(value),
                        Err(payload) => TaskOutcome::Panicked(payload),
                    }
                };
                let ran = started.elapsed();
                // The collator may have stopped listening (early break);
                // a closed channel is expected then.
                let _ = tx.send(Report { index, started, ran, outcome });
            }));
        }
        OrderedResults {
            pool: self,
            site,
            rx,
            buffer: BTreeMap::new(),
            next: 0,
            total,
            submitted,
            last_start: None,
            spent: Duration::ZERO,
            ran: 0,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        let handles = std::mem::take(
            &mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Jobs catch their own panics; this is a backstop so a worker
        // never dies and strands the queue.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// One finished job of a scattered batch, as sent to its collator.
struct Report<T> {
    index: usize,
    started: Instant,
    ran: Duration,
    outcome: TaskOutcome<T>,
}

/// In-order consumer for one [`WorkerPool::scatter`] batch.
///
/// Dropping it early (after a cancellation) is fine: outstanding tasks
/// find the channel closed and their results are discarded.
pub struct OrderedResults<'p, T> {
    pool: &'p WorkerPool,
    site: &'p FanOutSite,
    rx: Receiver<Report<T>>,
    buffer: BTreeMap<usize, TaskOutcome<T>>,
    next: usize,
    total: usize,
    submitted: Instant,
    /// Start of the latest-starting task that ran, among those received.
    last_start: Option<Instant>,
    /// Run time of the received tasks that ran, and their number.
    spent: Duration,
    ran: usize,
}

impl<T> OrderedResults<'_, T> {
    fn accept(&mut self, report: Report<T>) {
        if !matches!(report.outcome, TaskOutcome::Cancelled) {
            self.spent += report.ran;
            self.ran += 1;
            self.last_start = self.last_start.max(Some(report.started));
        }
        self.buffer.insert(report.index, report.outcome);
    }
}

impl<T> Drop for OrderedResults<'_, T> {
    fn drop(&mut self) {
        if let Some(last_start) = self.last_start {
            self.site.record_tasks(self.ran, self.spent);
            self.site.record_handoff(last_start.saturating_duration_since(self.submitted));
        }
    }
}

impl<T> Iterator for OrderedResults<'_, T> {
    type Item = TaskOutcome<T>;

    /// The next task's outcome, in submission order. Returns `None`
    /// once every task has been yielded. Blocks until the outcome is
    /// available, running queued pool jobs on this thread while waiting.
    fn next(&mut self) -> Option<TaskOutcome<T>> {
        if self.next >= self.total {
            return None;
        }
        loop {
            if let Some(outcome) = self.buffer.remove(&self.next) {
                self.next += 1;
                return Some(outcome);
            }
            match self.rx.try_recv() {
                Ok(report) => self.accept(report),
                Err(TryRecvError::Empty) => {
                    // Help with queued work instead of spinning; park
                    // briefly only when the queue is dry too.
                    if !self.pool.try_run_one() {
                        match self.rx.recv_timeout(Duration::from_micros(100)) {
                            Ok(report) => self.accept(report),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => {
                                unreachable!(
                                    "scatter task {} vanished without reporting", self.next
                                );
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("scatter task {} vanished without reporting", self.next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static SITE: FanOutSite = FanOutSite::new();

    #[test]
    fn scatter_collates_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Finish later tasks first to force reorder buffering.
                    std::thread::sleep(Duration::from_micros(((32 - i) * 50) as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let mut results = pool.scatter(&SITE, tasks, &CancelToken::new());
        for expect in 0..32 {
            match results.next() {
                Some(TaskOutcome::Done(i)) => assert_eq!(i, expect),
                _ => panic!("task {expect} did not complete"),
            }
        }
        assert!(results.next().is_none());
    }

    #[test]
    fn cancellation_skips_unstarted_tasks() {
        let pool = WorkerPool::new(1);
        let cancel = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        // One slow task holds the single worker; the rest are queued
        // behind it when the token fires.
        let mut tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = Vec::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            let started = Arc::clone(&started);
            tasks.push(Box::new(move || {
                started.store(true, Ordering::SeqCst);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                ran.fetch_add(1, Ordering::SeqCst);
                0
            }));
        }
        for i in 1..8usize {
            let ran = Arc::clone(&ran);
            tasks.push(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            }));
        }
        let mut results = pool.scatter(&SITE, tasks, &cancel);
        // Only cancel once the worker is inside task 0, so index 0 is
        // deterministically Done and the rest deterministically queued.
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cancel.cancel();
        // Release the gate; the queued tasks now see the fired token.
        {
            let (lock, cv) = &*gate.clone();
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // First task ran (it started before the cancel); collation
        // must still see every index.
        assert!(matches!(results.next(), Some(TaskOutcome::Done(0))));
        let mut cancelled = 0;
        for outcome in results {
            if matches!(outcome, TaskOutcome::Cancelled) {
                cancelled += 1;
            }
        }
        assert!(cancelled > 0, "queued tasks should have been skipped");
        assert!(ran.load(Ordering::SeqCst) < 8, "not every task may run after cancel");
    }

    #[test]
    fn panics_surface_at_the_right_index() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 10),
            Box::new(|| panic!("boom at 1")),
            Box::new(|| 12),
        ];
        let mut results = pool.scatter(&SITE, tasks, &CancelToken::new());
        assert!(matches!(results.next(), Some(TaskOutcome::Done(10))));
        match results.next() {
            Some(TaskOutcome::Panicked(payload)) => {
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "boom at 1");
            }
            _ => panic!("expected the panic at index 1"),
        }
        assert!(matches!(results.next(), Some(TaskOutcome::Done(12))));
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // Every worker blocks in a collation that needs further pool
        // work; progress then relies on collators helping.
        let pool = WorkerPool::global();
        let width = pool.workers() + 2;
        let outer: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..width)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> usize + Send>> =
                        (0..4).map(|j| Box::new(move || i * 10 + j) as _).collect();
                    let mut results =
                        WorkerPool::global().scatter(&SITE, inner, &CancelToken::new());
                    let mut sum = 0;
                    while let Some(TaskOutcome::Done(v)) = results.next() {
                        sum += v;
                    }
                    sum
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let mut results = pool.scatter(&SITE, outer, &CancelToken::new());
        for i in 0..width {
            match results.next() {
                Some(TaskOutcome::Done(sum)) => assert_eq!(sum, i * 40 + 6),
                _ => panic!("outer task {i} failed"),
            }
        }
    }

    #[test]
    fn dispatch_config_defaults() {
        assert!(DispatchConfig::serial().is_serial());
        assert_eq!(DispatchConfig::with_workers(0).workers(), 1);
        assert!(DispatchConfig::with_workers(4).workers() >= 1);
        assert!(!DispatchConfig::with_workers(8).is_serial());
    }

    #[test]
    fn the_default_is_adaptive_over_the_global_pool() {
        let config = DispatchConfig::default();
        assert!(!config.is_serial());
        assert!(config.workers() >= MIN_DEFAULT_WIDTH);
        assert_eq!(WorkerPool::global().workers(), config.workers());
        assert!(std::ptr::eq(WorkerPool::shared(config.workers()), WorkerPool::global()));
        let site = FanOutSite::new();
        assert!(config.pool_for(&site, 1).is_none(), "one task always runs inline");
        assert!(config.pool_for(&site, 4).is_some(), "a cold site scatters");
        assert!(DispatchConfig::serial().pool_for(&site, 4).is_none());
        let pinned = DispatchConfig::with_workers(3).pool_for(&site, 4);
        assert_eq!(pinned.map(WorkerPool::workers), Some(3));
    }

    #[test]
    fn the_adaptive_rule_weighs_inline_against_pooled_cost() {
        let site = FanOutSite::new();
        // Cheap tasks behind a costly hand-off run inline...
        site.task_ns.store(2_000, Ordering::Relaxed);
        site.handoff_ns.store(30_000, Ordering::Relaxed);
        assert!(site.inline_is_cheaper(4, 2));
        assert!(DispatchConfig::default().pool_for(&site, 4).is_none());
        // ...blocking ones scatter: 8 × 2 ms inline vs 30 µs + 1 × 2 ms.
        site.task_ns.store(2_000_000, Ordering::Relaxed);
        assert!(!site.inline_is_cheaper(8, 8));
        // The boundary itself runs inline: 2·t = H + t.
        site.task_ns.store(30_000, Ordering::Relaxed);
        assert!(site.inline_is_cheaper(2, 2));
    }

    #[test]
    fn batches_feed_the_site_estimates() {
        let site = FanOutSite::new();
        {
            let mut batch = site.inline();
            batch.time(|| std::thread::sleep(Duration::from_millis(1)));
        }
        assert!(site.task_ns.load(Ordering::Relaxed) >= 1_000_000);
        assert_eq!(site.handoff_ns.load(Ordering::Relaxed), 0, "inline batches hand nothing off");
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        let collected: Vec<_> = pool.scatter(&site, tasks, &CancelToken::new()).collect();
        assert_eq!(collected.len(), 2);
        assert!(site.handoff_ns.load(Ordering::Relaxed) > 0);
        // The cheap scattered batch replaces the 1 ms inline figure.
        assert!(site.task_ns.load(Ordering::Relaxed) < 1_000_000);
    }

    #[test]
    fn one_stalled_batch_cannot_pin_a_site_inline() {
        let site = FanOutSite::new();
        site.record_tasks(4, Duration::from_micros(400));
        site.record_handoff(Duration::from_micros(20));
        // A 2 ms stall in one scattered batch counts as 40 µs at most...
        site.record_handoff(Duration::from_millis(2));
        assert_eq!(site.handoff_ns.load(Ordering::Relaxed), 40_000);
        assert!(!site.inline_is_cheaper(16, 8), "16 × 100 µs tasks still scatter");
        // ...while a cheaper hand-off is taken at once.
        site.record_handoff(Duration::from_micros(5));
        assert_eq!(site.handoff_ns.load(Ordering::Relaxed), 5_000);
    }
}
