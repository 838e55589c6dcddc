//! The four workloads. Each builds its world from the seed, runs closed-loop
//! operations through the public APIs of the program's crates, and checks
//! that the outcomes are correct. See `perfbench/README.md` for why each
//! was chosen.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use activity_service::{
    Action, ActionServant, ActivityManager, ActivityService, CompletionStatus, RemoteActionProxy,
    UserActivity,
};
use orb::{NetworkConfig, Node, Orb, RetryPolicy, Value};
use ots::coordinator::TxOutcome;
use ots::{DurableKv, Resource, TransactionFactory, TransactionalKv, TxId};
use recovery_log::{FileWal, GroupCommitWal, Lsn, MemWal, Wal};
use tx_models::common::OUT_COMMITTED;
use tx_models::sagas::CompletedSteps;
use tx_models::{
    ResourceAction, Saga, SagaOutcome, SagaReport, SagaSignalSet, StepCompensation,
    TwoPhaseCommitSignalSet, SAGA_SET, TWO_PC_SET,
};

use crate::decorators::{TimedAction, TimedResource, TimedSignalSet, TimedWal, WalLayer};
use crate::trace::{self, Counter, Kind};

/// A deterministic generator (SplitMix64): the same seed gives the same
/// inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One workload's world: built before the timed loop, driven by clients.
pub trait World: Sync {
    /// Closed-loop client threads.
    fn clients(&self) -> usize;

    /// Run operation `seq` of `client`. `Ok(true)`: the outcome passed the
    /// workload's check; `Ok(false)`: it did not; `Err`: the call failed.
    fn op(&self, client: usize, seq: u64, rng: &mut Rng) -> Result<bool, String>;

    /// Housekeeping a long-running caller does between operations (not
    /// timed as part of any operation).
    fn maintain(&self, _client: usize, _seq: u64) {}

    /// Check the world's final state after the loop.
    fn check(&self) -> Result<(), String>;

    /// Bytes the world has written to its log so far.
    fn log_bytes(&self) -> u64 {
        0
    }

    /// Records retained by the world's log.
    fn log_records(&self) -> usize {
        0
    }

    /// Messages the world's network has carried so far.
    fn messages_sent(&self) -> u64 {
        0
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Number of participant stores in `durable_commit` / `recover_replay`.
pub const STORES: usize = 8;
/// Stores written per transaction.
pub const PER_TX: usize = 3;
/// Keys per client.
pub const KEYS: u64 = 4096;

fn store_name(i: usize) -> String {
    format!("store{i}")
}

fn key_name(client: usize, key: u64) -> String {
    format!("c{client}:{key}")
}

/// Last acknowledged value per (store, key name).
type Acked = HashMap<(usize, String), u64>;

/// Native OTS top-level transactions over durable stores sharing one
/// group-commit file log.
pub struct DurableCommit {
    clients: usize,
    path: PathBuf,
    wal: Arc<dyn Wal>,
    factory: TransactionFactory,
    stores: Vec<Arc<DurableKv>>,
    participants: Vec<Arc<dyn Resource>>,
    acked: Vec<Mutex<Acked>>,
}

impl DurableCommit {
    /// Open a fresh log at `path` and build the stores over it.
    pub fn setup(path: &Path, clients: usize, traced: bool) -> Result<Self, String> {
        let file = FileWal::open(path).map_err(err)?;
        let wal: Arc<dyn Wal> = if traced {
            Arc::new(TimedWal::new(
                GroupCommitWal::new(TimedWal::new(file, WalLayer::Sink)),
                WalLayer::Group,
            ))
        } else {
            Arc::new(GroupCommitWal::new(file))
        };
        Ok(Self::over(wal, path, clients, traced))
    }

    /// Build the factory and stores over `wal`, whose file is `path`.
    fn over(wal: Arc<dyn Wal>, path: &Path, clients: usize, traced: bool) -> Self {
        let factory = TransactionFactory::with_wal(Arc::clone(&wal));
        let stores: Vec<Arc<DurableKv>> =
            (0..STORES).map(|i| DurableKv::new(store_name(i), Arc::clone(&wal))).collect();
        let participants = stores
            .iter()
            .map(|s| -> Arc<dyn Resource> {
                if traced {
                    Arc::new(TimedResource::new(Arc::clone(s) as Arc<dyn Resource>))
                } else {
                    Arc::clone(s) as Arc<dyn Resource>
                }
            })
            .collect();
        DurableCommit {
            clients,
            path: path.to_path_buf(),
            wal,
            factory,
            stores,
            participants,
            acked: (0..clients).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Every acknowledged (store, key) → value, across clients.
    pub fn acked(&self) -> Acked {
        let mut all = HashMap::new();
        for a in &self.acked {
            all.extend(a.lock().unwrap().iter().map(|(k, v)| (k.clone(), *v)));
        }
        all
    }
}

impl World for DurableCommit {
    fn clients(&self) -> usize {
        self.clients
    }

    fn op(&self, client: usize, seq: u64, rng: &mut Rng) -> Result<bool, String> {
        // 3 distinct stores of 8, one key each from this client's space.
        let mut order: [usize; STORES] = std::array::from_fn(|i| i);
        let mut writes: Vec<(usize, String)> = Vec::with_capacity(PER_TX);
        for j in 0..PER_TX {
            let pick = j + rng.below((STORES - j) as u64) as usize;
            order.swap(j, pick);
            writes.push((order[j], key_name(client, rng.below(KEYS))));
        }
        let value = ((client as u64) << 40) | seq;
        let control = trace::span(Kind::TxCreate, || self.factory.create()).map_err(err)?;
        let top = control.id().top_seq();
        trace::bind_tx(top, client);
        let enlisted = trace::span(Kind::TxWork, || -> Result<(), ots::TxError> {
            for (store, key) in &writes {
                self.stores[*store].store().write(control.id(), key, Value::U64(value))?;
                control.coordinator().register_resource(Arc::clone(&self.participants[*store]))?;
            }
            Ok(())
        });
        let outcome = match enlisted {
            Ok(()) => trace::span(Kind::TxCommit, || control.terminator().commit()),
            Err(e) => Err(e),
        };
        trace::unbind_tx(top);
        match outcome.map_err(err)? {
            TxOutcome::Committed => {
                let mut acked = self.acked[client].lock().unwrap();
                for (store, key) in writes {
                    acked.insert((store, key), value);
                }
                Ok(true)
            }
            TxOutcome::RolledBack => Ok(false),
        }
    }

    fn maintain(&self, _client: usize, seq: u64) {
        if seq % 64 == 63 {
            self.factory.reap_completed();
        }
    }

    fn check(&self) -> Result<(), String> {
        self.wal.sync().map_err(err)?;
        let reopened: Arc<dyn Wal> = Arc::new(FileWal::open(&self.path).map_err(err)?);
        let acked = self.acked();
        let stores: Vec<Arc<DurableKv>> = (0..STORES)
            .map(|i| DurableKv::recover(store_name(i), Arc::clone(&reopened)))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        for ((store, key), value) in &acked {
            let got = stores[*store].store().read_committed(key);
            if got != Some(Value::U64(*value)) {
                return Err(format!(
                    "acknowledged {}:{key} = {value} reads back as {got:?}",
                    store_name(*store)
                ));
            }
        }
        Ok(())
    }

    fn log_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    fn log_records(&self) -> usize {
        self.wal.len()
    }
}

/// Commits written into the `recover_replay` log at set-up.
pub const REPLAY_COMMITS: u64 = 600;
/// Threads rebuilding stores in one `recover_replay` operation.
const REBUILD_THREADS: usize = 2;

/// Reopen a fixed log and rebuild every durable store plus the OTS
/// decision log from it.
pub struct RecoverReplay {
    path: PathBuf,
    traced: bool,
    acked: Acked,
    per_store: Vec<usize>,
}

impl RecoverReplay {
    /// Commit the fixed, seeded transactions through the `durable_commit`
    /// code (one client, so the record order is fixed by the seed too) over
    /// an in-memory log, then write those records to the file with one
    /// batch and one sync. Set-up then measures building the world, not
    /// thousands of fsyncs on a shared disk.
    pub fn setup(path: &Path, seed: u64, traced: bool) -> Result<Self, String> {
        let writer = DurableCommit::over(Arc::new(MemWal::new()), path, 1, false);
        let mut rng = Rng::new(seed, 0);
        for seq in 0..REPLAY_COMMITS {
            if !writer.op(0, seq, &mut rng)? {
                return Err(format!("set-up commit {seq} rolled back"));
            }
            writer.maintain(0, seq);
        }
        let records = writer.wal.scan(Lsn::new(0)).map_err(err)?;
        let batch: Vec<(u32, &[u8])> =
            records.iter().map(|r| (r.kind, r.payload.as_slice())).collect();
        let file = FileWal::open(path).map_err(err)?;
        file.append_batch(&batch).map_err(err)?;
        file.sync().map_err(err)?;
        let acked = writer.acked();
        let mut per_store = vec![0; STORES];
        for (store, _) in acked.keys() {
            per_store[*store] += 1;
        }
        Ok(RecoverReplay { path: path.to_path_buf(), traced, acked, per_store })
    }

    fn replay(&self) -> Result<Vec<Arc<DurableKv>>, String> {
        let sink = trace::span(Kind::Open, || FileWal::open(&self.path)).map_err(err)?;
        let wal: Arc<dyn Wal> = if self.traced {
            Arc::new(TimedWal::new(sink, WalLayer::Sink))
        } else {
            Arc::new(sink)
        };
        // Two threads, one per vCPU, rebuild half of the independent stores
        // each, as a restart that recovers stores concurrently would. (One
        // thread's latency follows whichever vCPU it lands on.)
        let mut stores: Vec<Option<Arc<DurableKv>>> = vec![None; STORES];
        std::thread::scope(|s| -> Result<(), String> {
            let halves: Vec<_> = (0..REBUILD_THREADS)
                .map(|first| {
                    let wal = &wal;
                    s.spawn(move || {
                        (first..STORES)
                            .step_by(REBUILD_THREADS)
                            .map(|i| {
                                trace::span_for(Kind::StoreRecover, None, || {
                                    DurableKv::recover(store_name(i), Arc::clone(wal))
                                })
                                .map(|store| (i, store))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                })
                .collect();
            for half in halves {
                for (i, store) in half.join().expect("rebuild thread panicked").map_err(err)? {
                    stores[i] = Some(store);
                }
            }
            Ok(())
        })?;
        let stores: Vec<Arc<DurableKv>> = stores.into_iter().map(|s| s.expect("rebuilt")).collect();
        let resolver = |name: &str| -> Option<Arc<dyn Resource>> {
            stores.iter().find(|s| s.name() == name).map(|s| Arc::clone(s) as Arc<dyn Resource>)
        };
        let report = trace::span(Kind::TxRecover, || {
            TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver)
        })
        .map_err(err)?;
        if !report.recommitted.is_empty()
            || !report.presumed_aborted.is_empty()
            || !report.unresolved.is_empty()
        {
            return Err(format!("a fully acknowledged log left work in doubt: {report:?}"));
        }
        Ok(stores)
    }
}

impl World for RecoverReplay {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _seq: u64, _rng: &mut Rng) -> Result<bool, String> {
        let stores = self.replay()?;
        Ok(stores.iter().zip(&self.per_store).all(|(s, n)| s.store().committed_len() == *n))
    }

    fn check(&self) -> Result<(), String> {
        let stores = self.replay()?;
        for ((store, key), value) in &self.acked {
            let got = stores[*store].store().read_committed(key);
            if got != Some(Value::U64(*value)) {
                return Err(format!(
                    "recovered {}:{key} = {got:?}, acked {value}",
                    store_name(*store)
                ));
            }
        }
        Ok(())
    }

    fn log_records(&self) -> usize {
        FileWal::open(&self.path).map(|w| w.len()).unwrap_or(0)
    }
}

/// Steps per saga.
pub const SAGA_STEPS: usize = 8;
const STEP_NAMES: [&str; SAGA_STEPS] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];
const STEP_ACTIVITIES: [&str; SAGA_STEPS] =
    ["saga/s0", "saga/s1", "saga/s2", "saga/s3", "saga/s4", "saga/s5", "saga/s6", "saga/s7"];

/// What one saga plan produced: the report and the compensation order.
type SagaResult = (SagaReport, Vec<usize>);

/// Sagas demarcated through the HLS facades: one root activity, one nested
/// activity per step, compensation driven by `SagaSignalSet` on failure.
pub struct SagaHls {
    service: ActivityService,
    ua: UserActivity,
    am: ActivityManager,
    traced: bool,
    /// First result seen per plan (failing step, or none), for the check
    /// against `Saga::run`.
    seen: Mutex<BTreeMap<Option<usize>, SagaResult>>,
}

impl SagaHls {
    pub fn setup(traced: bool) -> Self {
        let service = ActivityService::new();
        SagaHls {
            ua: UserActivity::new(service.clone()),
            am: ActivityManager::new(service.clone()),
            service,
            traced,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    fn run_saga(&self, fail_at: Option<usize>) -> Result<SagaResult, String> {
        let undone: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let completed = CompletedSteps::new();
        trace::span(Kind::Begin, || self.ua.begin("saga")).map_err(err)?;
        let set = SagaSignalSet::new(completed.clone());
        trace::span(Kind::Register, || {
            if self.traced {
                self.am.add_signal_set(Box::new(TimedSignalSet::new(set)))?;
            } else {
                self.am.add_signal_set(Box::new(set))?;
            }
            self.am.set_completion_signal_set(SAGA_SET)
        })
        .map_err(err)?;
        let mut committed = Vec::new();
        let mut failed = None;
        for (i, step) in STEP_NAMES.iter().enumerate() {
            trace::span(Kind::Begin, || self.ua.begin(STEP_ACTIVITIES[i])).map_err(err)?;
            if fail_at == Some(i) {
                trace::span(Kind::Complete, || {
                    self.ua.complete_with_status(CompletionStatus::FailOnly)
                })
                .map_err(err)?;
                failed = Some(i);
                break;
            }
            // The step's forward work is a cheap local action.
            committed.push(step.to_string());
            completed.push(*step);
            trace::span(Kind::Complete, || self.ua.complete_with_status(CompletionStatus::Success))
                .map_err(err)?;
            let log = Arc::clone(&undone);
            let compensation = StepCompensation::new(*step, move || {
                log.lock().unwrap().push(i);
                trace::count(Counter::CompensationsRun, 1);
                Ok(())
            });
            let action: Arc<dyn Action> = if self.traced {
                Arc::new(TimedAction::new(compensation, Kind::Compensation))
            } else {
                compensation
            };
            trace::span(Kind::Register, || self.am.register_action(SAGA_SET, action))
                .map_err(err)?;
        }
        let status =
            if failed.is_some() { CompletionStatus::FailOnly } else { CompletionStatus::Success };
        let outcome =
            trace::span(Kind::Complete, || self.ua.complete_with_status(status)).map_err(err)?;
        if !outcome.is_done() {
            return Err(format!("saga completion set reported {}", outcome.name()));
        }
        let report = SagaReport {
            committed,
            outcome: match failed {
                Some(i) => SagaOutcome::Compensated { failed_step: STEP_NAMES[i].to_string() },
                None => SagaOutcome::Completed,
            },
        };
        let undone = undone.lock().unwrap().clone();
        Ok((report, undone))
    }

    /// The same plan through `Saga::run`, the reference the HLS run must
    /// match.
    pub fn reference(fail_at: Option<usize>) -> Result<SagaResult, String> {
        let undone: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let mut saga = Saga::new("saga");
        for (i, step) in STEP_NAMES.iter().enumerate() {
            let log = Arc::clone(&undone);
            saga = saga.step(
                *step,
                move || if fail_at == Some(i) { Err("planned failure".into()) } else { Ok(()) },
                move || {
                    log.lock().unwrap().push(i);
                    Ok(())
                },
            );
        }
        let report = saga.run(&ActivityService::new()).map_err(err)?;
        let undone = undone.lock().unwrap().clone();
        Ok((report, undone))
    }
}

/// Complete (as failed) whatever activities an errored operation left
/// associated with this thread, so the next operation starts at the top
/// level.
fn unwind(service: &ActivityService, ua: &UserActivity) {
    while service.current().is_some() && ua.complete_with_status(CompletionStatus::FailOnly).is_ok()
    {
    }
}

impl World for SagaHls {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _seq: u64, rng: &mut Rng) -> Result<bool, String> {
        let fail_at =
            if rng.below(4) == 0 { Some(rng.below(SAGA_STEPS as u64) as usize) } else { None };
        let (report, undone) = match self.run_saga(fail_at) {
            Ok(r) => r,
            Err(e) => {
                unwind(&self.service, &self.ua);
                return Err(e);
            }
        };
        // Compensations run exactly for the committed steps, newest first.
        let expected: Vec<usize> = match fail_at {
            Some(k) => (0..k).rev().collect(),
            None => Vec::new(),
        };
        let ok = undone == expected && report.committed.len() == fail_at.unwrap_or(SAGA_STEPS);
        self.seen.lock().unwrap().entry(fail_at).or_insert((report, undone));
        Ok(ok)
    }

    fn check(&self) -> Result<(), String> {
        for (plan, hls) in self.seen.lock().unwrap().iter() {
            let reference = Self::reference(*plan)?;
            if *hls != reference {
                return Err(format!(
                    "plan {plan:?}: HLS saga gave {hls:?}, Saga::run gave {reference:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Participants (ORB nodes) in `remote_2pc`.
pub const REMOTE_PARTICIPANTS: usize = 4;
const NODE_NAMES: [&str; REMOTE_PARTICIPANTS] = ["p0", "p1", "p2", "p3"];
const PROXY_NAMES: [&str; REMOTE_PARTICIPANTS] = ["proxy-p0", "proxy-p1", "proxy-p2", "proxy-p3"];
/// Message drop probability of the simulated network.
pub const DROP_PROBABILITY: f64 = 0.01;

/// Fig. 8 over the wire: an activity whose completion runs the 2PC signal
/// set over remote `ResourceAction`s reached through retrying proxies.
pub struct Remote2pc {
    orb: Orb,
    nodes: Vec<Node>,
    stores: Vec<Arc<TransactionalKv>>,
    resources: Vec<Arc<dyn Resource>>,
    ua: UserActivity,
    am: ActivityManager,
    service: ActivityService,
    policy: RetryPolicy,
    traced: bool,
}

impl Remote2pc {
    pub fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let orb = Orb::builder().network(NetworkConfig::lossy(DROP_PROBABILITY, 0.0, seed)).build();
        let nodes = NODE_NAMES
            .iter()
            .map(|n| orb.add_node(*n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let stores: Vec<Arc<TransactionalKv>> =
            NODE_NAMES.iter().map(|n| Arc::new(TransactionalKv::new(format!("kv-{n}")))).collect();
        let resources = stores
            .iter()
            .map(|s| -> Arc<dyn Resource> {
                if traced {
                    Arc::new(TimedResource::new(Arc::clone(s) as Arc<dyn Resource>))
                } else {
                    Arc::clone(s) as Arc<dyn Resource>
                }
            })
            .collect();
        let service = ActivityService::new();
        Ok(Remote2pc {
            orb,
            nodes,
            stores,
            resources,
            ua: UserActivity::new(service.clone()),
            am: ActivityManager::new(service.clone()),
            service,
            policy: RetryPolicy::new(8),
            traced,
        })
    }

    fn run_2pc(&self, tx: &TxId, key: &str, value: &Value) -> Result<bool, String> {
        trace::span(Kind::Begin, || self.ua.begin("2pc")).map_err(err)?;
        trace::span(Kind::Register, || {
            let set = TwoPhaseCommitSignalSet::new();
            if self.traced {
                self.am.add_signal_set(Box::new(TimedSignalSet::new(set)))?;
            } else {
                self.am.add_signal_set(Box::new(set))?;
            }
            self.am.set_completion_signal_set(TWO_PC_SET)
        })
        .map_err(err)?;
        let mut objects = Vec::with_capacity(REMOTE_PARTICIPANTS);
        for i in 0..REMOTE_PARTICIPANTS {
            trace::span(Kind::TxWork, || self.stores[i].write(tx, key, value.clone()))
                .map_err(err)?;
            let action: Arc<dyn Action> = Arc::new(ResourceAction::new(
                NODE_NAMES[i],
                tx.clone(),
                Arc::clone(&self.resources[i]),
            ));
            let action: Arc<dyn Action> = if self.traced {
                Arc::new(TimedAction::new(action, Kind::ServantAction))
            } else {
                action
            };
            let object = trace::span(Kind::Activate, || {
                self.nodes[i].activate("Action", ActionServant::new(action))
            })
            .map_err(err)?;
            let proxy =
                RemoteActionProxy::new(PROXY_NAMES[i], self.orb.clone(), "client", object.clone())
                    .with_policy(self.policy.clone());
            let proxy: Arc<dyn Action> = if self.traced {
                Arc::new(TimedAction::new(Arc::new(proxy), Kind::Proxy))
            } else {
                Arc::new(proxy)
            };
            trace::span(Kind::Register, || self.am.register_action(TWO_PC_SET, proxy))
                .map_err(err)?;
            objects.push(object);
        }
        let outcome = trace::span(Kind::Complete, || self.ua.complete()).map_err(err)?;
        trace::span(Kind::Activate, || {
            for (node, object) in self.nodes.iter().zip(&objects) {
                node.deactivate(object);
            }
        });
        Ok(outcome.name() == OUT_COMMITTED)
    }
}

impl World for Remote2pc {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, seq: u64, rng: &mut Rng) -> Result<bool, String> {
        let key = format!("k{}", rng.below(KEYS));
        let value = Value::U64(seq);
        let tx = TxId::top_level(seq + 1);
        let committed = match self.run_2pc(&tx, &key, &value) {
            Ok(c) => c,
            Err(e) => {
                unwind(&self.service, &self.ua);
                return Err(e);
            }
        };
        // Committed if and only if every store holds the write.
        let held = self.stores.iter().all(|s| s.read_committed(&key).as_ref() == Some(&value));
        Ok(committed == held)
    }

    fn check(&self) -> Result<(), String> {
        for node in &self.nodes {
            if node.servant_count() != 0 {
                return Err(format!("{} still has {} servants", node.name(), node.servant_count()));
            }
        }
        Ok(())
    }

    fn messages_sent(&self) -> u64 {
        self.orb.network().stats().sent
    }
}
