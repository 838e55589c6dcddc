//! Turns a traced phase's spans and counts into the per-layer metrics.

use std::collections::{HashMap, HashSet};

use crate::trace::{self, Counter, Kind, Layer, Span};

/// Raw totals of one traced phase, beyond the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Messages the network carried.
    pub messages: u64,
    /// Bytes the log file grew by.
    pub log_bytes: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct KindSum {
    calls: u64,
    duration: u64,
    self_ns: u64,
}

impl KindSum {
    fn add(&mut self, duration: u64, self_ns: u64) {
        self.calls += 1;
        self.duration += duration;
        self.self_ns += self_ns;
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn is_action(kind: Kind) -> bool {
    matches!(kind, Kind::Compensation | Kind::Proxy)
}

/// Account every operation and return the per-layer metrics, ledger
/// included.
pub fn per_layer(
    spans: Vec<Span>,
    counts: &HashMap<Counter, u64>,
    totals: PhaseTotals,
) -> (Vec<Metric>, usize) {
    let mut by_op: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut sums: HashMap<Kind, KindSum> = HashMap::new();
    let mut complete_plain = KindSum::default();
    let mut complete_dispatch = KindSum::default();
    let mut layer_share: HashMap<Layer, f64> = HashMap::new();
    let mut wall = 0u64;
    let mut ops = 0u64;
    let mut stray = 0usize;
    for (_, op_spans) in by_op {
        if !op_spans.iter().any(|s| s.kind == Kind::Op) {
            stray += op_spans.len();
            continue;
        }
        ops += 1;
        let costs = trace::account(&op_spans);
        let dispatching: HashSet<u64> =
            op_spans.iter().filter(|s| is_action(s.kind)).map(|s| s.parent).collect();
        for (s, c) in op_spans.iter().zip(&costs) {
            sums.entry(s.kind).or_default().add(c.duration, c.self_ns);
            *layer_share.entry(s.kind.layer()).or_default() += c.share;
            if s.kind == Kind::Op {
                wall += c.duration;
            }
            if s.kind == Kind::Complete {
                if dispatching.contains(&s.id) {
                    complete_dispatch.add(c.duration, c.self_ns);
                } else {
                    complete_plain.add(c.duration, c.self_ns);
                }
            }
        }
    }
    let get = |k: Kind| sums.get(&k).copied().unwrap_or_default();
    let calls = |k: Kind| get(k).calls as f64;
    let mean = |k: Kind| ratio(get(k).duration as f64, calls(k));
    let mean_self = |s: KindSum| ratio(s.self_ns as f64, s.calls as f64);
    let count = |c: Counter| counts.get(&c).copied().unwrap_or(0) as f64;
    let n = ops as f64;
    let per_op = |x: f64| ratio(x, n);

    let signals = count(Counter::Signals);
    let invokes = calls(Kind::Proxy);
    // Each attempt sends a request; each request that arrives runs the
    // servant once and sends one reply (the network duplicates nothing).
    let attempts = (totals.messages as f64 - calls(Kind::ServantAction)).max(0.0);
    let syncs = calls(Kind::SinkSync);
    let mut recover = get(Kind::StoreRecover);
    let tx_recover = get(Kind::TxRecover);
    recover.calls += tx_recover.calls;
    recover.self_ns += tx_recover.self_ns;

    let mut m: Vec<Metric> = vec![
        ("activity_service.begin_ns", mean(Kind::Begin), "ns"),
        ("activity_service.begins_per_op", per_op(calls(Kind::Begin)), "count"),
        ("activity_service.complete_self_ns", mean_self(complete_plain), "ns"),
        ("activity_service.signal_self_ns", mean_self(complete_dispatch), "ns"),
        (
            "activity_service.actions_per_signal",
            ratio(calls(Kind::Compensation) + invokes, signals),
            "count",
        ),
        ("tx_models.signals_per_op", per_op(signals), "count"),
        ("tx_models.compensations_per_op", per_op(count(Counter::CompensationsRun)), "count"),
        ("tx_models.compensation_self_ns", mean_self(get(Kind::Compensation)), "ns"),
        ("tx_models.servant_action_self_ns", mean_self(get(Kind::ServantAction)), "ns"),
        ("orb.invoke_self_ns", mean_self(get(Kind::Proxy)), "ns"),
        ("orb.invokes_per_op", per_op(invokes), "count"),
        ("orb.attempts_per_invoke", ratio(attempts, invokes), "count"),
        ("orb.messages_per_op", per_op(totals.messages as f64), "count"),
        ("orb.useful_ratio", ratio(invokes, attempts), "ratio"),
        ("ots.create_ns", mean(Kind::TxCreate), "ns"),
        ("ots.commit_self_ns", mean_self(get(Kind::TxCommit)), "ns"),
        ("ots.participant_prepare_ns", mean(Kind::Prepare), "ns"),
        ("ots.participant_phase2_ns", mean(Kind::Phase2), "ns"),
        ("ots.participants_per_op", per_op(calls(Kind::Prepare)), "count"),
        ("ots.recover_self_ns", mean_self(recover), "ns"),
        ("recovery_log.append_ns", mean(Kind::Append), "ns"),
        ("recovery_log.append_durable_ns", mean(Kind::AppendDurable), "ns"),
        ("recovery_log.sync_ns", mean(Kind::SinkSync), "ns"),
        ("recovery_log.syncs_per_op", per_op(syncs), "count"),
        ("recovery_log.records_per_sync", ratio(count(Counter::SinkRecords), syncs), "count"),
        ("recovery_log.bytes_per_sync", ratio(totals.log_bytes as f64, syncs), "bytes"),
        ("recovery_log.bytes_per_op", per_op(totals.log_bytes as f64), "bytes"),
        ("recovery_log.open_ns", mean(Kind::Open), "ns"),
        ("recovery_log.scan_ns", mean(Kind::Scan), "ns"),
        ("recovery_log.records_scanned_per_op", per_op(count(Counter::RecordsScanned)), "count"),
    ];
    // The ledger: each layer's share of the traced operation's wall time.
    // Shares sum to the wall time by construction; the residual shows it.
    let mut total_share = 0.0;
    for layer in Layer::ALL {
        let share = layer_share.get(&layer).copied().unwrap_or(0.0);
        total_share += share;
        m.push((ledger_name(layer), per_op(share) / 1e3, "us"));
    }
    m.push(("ledger.wall_us_per_op", per_op(wall as f64) / 1e3, "us"));
    m.push(("ledger.residual_frac", ratio((wall as f64 - total_share).abs(), wall as f64), "frac"));
    (m, stray)
}

fn ledger_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Bench => "ledger.bench_us_per_op",
        Layer::ActivityService => "ledger.activity_service_us_per_op",
        Layer::TxModels => "ledger.tx_models_us_per_op",
        Layer::Orb => "ledger.orb_us_per_op",
        Layer::Ots => "ledger.ots_us_per_op",
        Layer::RecoveryLog => "ledger.recovery_log_us_per_op",
    }
}
