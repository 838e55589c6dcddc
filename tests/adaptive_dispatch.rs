//! The adaptive default fan-out (`DispatchConfig::default()`): once a
//! fan-out site has measured its participants, cheap ones are called
//! inline on the driving thread and blocking ones are scattered on the
//! shared worker pool. Checked for the activity coordinator's signal
//! delivery and for the OTS prepare and phase-two rounds.
//!
//! The cost estimates are process-wide per site, so the tests in this
//! file take turns (a concurrent test feeding the same site would move
//! the estimate under another's feet).

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use activity_service::{Action, Activity, BroadcastSignalSet, FnAction, Outcome, Signal};
use orb::{SimClock, Value};
use ots::{Resource, TransactionFactory, TxError, TxId, Vote};

const TASKS: usize = 8;
const SLEEP: Duration = Duration::from_millis(2);

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The threads the participants of one batch ran on.
type Threads = Arc<Mutex<Vec<ThreadId>>>;

fn note_thread(threads: &Threads) {
    threads.lock().unwrap().push(std::thread::current().id());
}

/// Broadcast one signal under the default config to `actions` actions,
/// each sleeping `work` (none when zero). Returns the wall time of the
/// signal and the threads the deliveries ran on.
fn signal_batch(actions: usize, work: Duration) -> (Duration, Vec<ThreadId>) {
    let activity = Activity::new_root("adaptive", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(BroadcastSignalSet::new("S", "ping", Value::Null)))
        .unwrap();
    let threads: Threads = Arc::default();
    for i in 0..actions {
        let threads = Arc::clone(&threads);
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new(format!("a{i}"), move |_s: &Signal| {
                note_thread(&threads);
                if !work.is_zero() {
                    std::thread::sleep(work);
                }
                Ok(Outcome::done())
            }));
        activity.coordinator().register_action("S", action);
    }
    let started = Instant::now();
    let outcome = activity.signal("S").unwrap();
    let elapsed = started.elapsed();
    assert_eq!(outcome.data().as_u64(), Some(actions as u64), "every action answered");
    let threads = threads.lock().unwrap().clone();
    (elapsed, threads)
}

/// A commit-voting participant that sleeps `work` in prepare and records
/// the threads its prepare and commit ran on.
struct Participant {
    name: String,
    work: Duration,
    threads: Threads,
}

impl Resource for Participant {
    fn prepare(&self, _tx: &TxId) -> Result<Vote, TxError> {
        note_thread(&self.threads);
        if !self.work.is_zero() {
            std::thread::sleep(self.work);
        }
        Ok(Vote::Commit)
    }
    fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
        note_thread(&self.threads);
        Ok(())
    }
    fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn resource_name(&self) -> &str {
        &self.name
    }
}

/// Commit one transaction over `participants` participants on a factory
/// with the default config. Returns the wall time of the commit and the
/// threads the prepares and commits ran on.
fn commit_batch(participants: usize, work: Duration) -> (Duration, Vec<ThreadId>) {
    let factory = TransactionFactory::new();
    let control = factory.create().unwrap();
    let threads: Threads = Arc::default();
    for i in 0..participants {
        let participant =
            Participant { name: format!("r{i}"), work, threads: Arc::clone(&threads) };
        control.coordinator().register_resource(Arc::new(participant)).unwrap();
    }
    let started = Instant::now();
    control.terminator().commit().unwrap();
    let elapsed = started.elapsed();
    let threads = threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 2 * participants, "one prepare and one commit each");
    (elapsed, threads)
}

fn assert_all_on_this_thread(threads: &[ThreadId]) {
    let me = std::thread::current().id();
    assert!(
        threads.iter().all(|t| *t == me),
        "cheap participants must run on the calling thread: {threads:?} vs {me:?}"
    );
}

#[test]
fn cheap_actions_run_on_the_calling_thread_after_one_warm_up_batch() {
    let _turn = one_at_a_time();
    signal_batch(4, Duration::ZERO);
    let (_, threads) = signal_batch(4, Duration::ZERO);
    assert_eq!(threads.len(), 4);
    assert_all_on_this_thread(&threads);
}

#[test]
fn blocking_actions_are_overlapped_on_the_pool() {
    let _turn = one_at_a_time();
    // The warm-up batch measures the sleeps (inline, if the site last saw
    // cheap actions); the measured batch must then scatter.
    signal_batch(TASKS, SLEEP);
    let (elapsed, _) = signal_batch(TASKS, SLEEP);
    assert!(
        elapsed < 3 * SLEEP,
        "{TASKS} × {SLEEP:?} deliveries took {elapsed:?}; serially they take {:?}",
        SLEEP * TASKS as u32
    );
}

#[test]
fn cheap_resources_prepare_and_commit_on_the_calling_thread_after_one_warm_up_commit() {
    let _turn = one_at_a_time();
    commit_batch(4, Duration::ZERO);
    let (_, threads) = commit_batch(4, Duration::ZERO);
    assert_all_on_this_thread(&threads);
}

#[test]
fn blocking_prepares_are_overlapped_on_the_pool() {
    let _turn = one_at_a_time();
    commit_batch(TASKS, SLEEP);
    let (elapsed, _) = commit_batch(TASKS, SLEEP);
    assert!(
        elapsed < 3 * SLEEP,
        "{TASKS} × {SLEEP:?} prepares took {elapsed:?}; serially they take {:?}",
        SLEEP * TASKS as u32
    );
}
