//! End-to-end benchmark of the activity/commit stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's world several times (the median is `setup_s`),
//! warms it up, then runs closed-loop clients for `--seconds`. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! spends half the time untraced and half on a world wrapped in timing
//! decorators, and reports the per-layer metrics. Every run checks the
//! workload's outcomes. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod decorators;
mod ledger;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use workloads::{DurableCommit, RecoverReplay, Remote2pc, Rng, SagaHls, World};

/// Serialises tests that use the process-wide span recorder.
#[cfg(test)]
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub const WORKLOADS: [&str; 4] = ["durable_commit", "saga_hls", "remote_2pc", "recover_replay"];

/// Clients of `durable_commit`; every other workload runs one.
const DURABLE_CLIENTS: usize = 2;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// Slices the timed loop is cut into. The world is built once before the
/// loop and once more (then dropped) between slices, so the set-up samples
/// behind `setup_s` (their median) span the whole run instead of one
/// moment of it.
const SLICES: usize = 20;

/// Where world number `rep` of `workload` keeps its log.
fn world_log(dir: &Path, workload: &str, rep: usize) -> PathBuf {
    dir.join(format!("{workload}-{rep}.wal"))
}

fn build(
    workload: &str,
    seed: u64,
    dir: &Path,
    rep: usize,
    traced: bool,
) -> Result<Box<dyn World>, String> {
    let log = world_log(dir, workload, rep);
    Ok(match workload {
        "durable_commit" => Box::new(DurableCommit::setup(&log, DURABLE_CLIENTS, traced)?),
        "saga_hls" => Box::new(SagaHls::setup(traced)),
        "remote_2pc" => Box::new(Remote2pc::setup(seed, traced)?),
        "recover_replay" => Box::new(RecoverReplay::setup(&log, seed, traced)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// What one timed phase produced.
#[derive(Debug, Default)]
struct Phase {
    ops: u64,
    errored: u64,
    wrong: u64,
    latencies_ns: Vec<u64>,
    /// When each operation finished, ns since the phase started.
    finish_ns: Vec<u64>,
    elapsed: Duration,
    log_bytes: u64,
    messages: u64,
    first_error: Option<String>,
}

impl Phase {
    /// Merge a phase that ran alongside this one (another client).
    fn join(&mut self, other: Phase) {
        self.ops += other.ops;
        self.errored += other.errored;
        self.wrong += other.wrong;
        self.latencies_ns.extend(other.latencies_ns);
        self.finish_ns.extend(other.finish_ns);
        self.elapsed = self.elapsed.max(other.elapsed);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Append a later phase run on the same world.
    fn absorb(&mut self, later: Phase) {
        let offset = self.elapsed.as_nanos() as u64;
        self.ops += later.ops;
        self.errored += later.errored;
        self.wrong += later.wrong;
        self.latencies_ns.extend(later.latencies_ns);
        self.finish_ns.extend(later.finish_ns.into_iter().map(|f| f + offset));
        self.elapsed += later.elapsed;
        self.log_bytes += later.log_bytes;
        self.messages += later.messages;
        if self.first_error.is_none() {
            self.first_error = later.first_error;
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// When a client stops issuing operations.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many seconds.
    After(f64),
    /// After this many operations.
    Ops(u64),
}

/// Run closed-loop clients on `world` until `stop`. `phase` selects the
/// operation numbering and input stream, so phases on one world never
/// reuse an operation number.
fn run_phase(world: &dyn World, seed: u64, stop: Stop, phase: u64) -> Phase {
    let bytes0 = world.log_bytes();
    let messages0 = world.messages_sent();
    let start = Instant::now();
    let clients: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..world.clients())
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, phase * 16 + c as u64);
                    let mut out = Phase::default();
                    let mut local = 0u64;
                    while match stop {
                        Stop::After(seconds) => start.elapsed().as_secs_f64() < seconds,
                        Stop::Ops(n) => local < n,
                    } {
                        let seq = (phase << 32) | local;
                        let op_id = ((c as u64 + 1) << 48) | seq;
                        let t0 = Instant::now();
                        let result = trace::op(c, op_id, || world.op(c, seq, &mut rng));
                        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        out.finish_ns.push(start.elapsed().as_nanos() as u64);
                        match result {
                            Ok(true) => {}
                            Ok(false) => out.wrong += 1,
                            Err(e) => {
                                out.errored += 1;
                                out.first_error.get_or_insert(e);
                            }
                        }
                        world.maintain(c, seq);
                        local += 1;
                    }
                    out.ops = local;
                    out.elapsed = start.elapsed();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Phase::default();
    for client in clients {
        out.join(client);
    }
    out.log_bytes = world.log_bytes() - bytes0;
    out.messages = world.messages_sent() - messages0;
    out
}

/// Operations each client runs before anything is timed: the worker pool
/// and caches warm up, and `peak_rss_mb` is read after them, so it counts
/// a fixed amount of work however fast the loop later runs.
fn warmup_ops(workload: &str) -> u64 {
    if workload == "recover_replay" {
        20
    } else {
        2000
    }
}

/// Host and build facts that make a result self-describing.
fn meta(args: &Args, dir: &Path, clients: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = stats::command_line(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        &["--version"],
    );
    let commit = stats::command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"clients\":{},\"setups\":{},\
         \"nproc\":{},\"kernel\":{},\"wal_fs\":{},\"rustc\":{},\"git_commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        clients,
        SLICES + 1,
        nproc,
        json_str(&kernel),
        json_str(&stats::fs_type(dir)),
        json_str(&rustc),
        json_str(&commit),
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Everything one invocation reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    lines: Vec<String>,
}

fn end_to_end(
    phase: &Phase,
    setup_s: f64,
    setups: usize,
    peak_rss_mb: f64,
) -> (Vec<(String, f64, String)>, Vec<String>) {
    let mut sorted = phase.latencies_ns.clone();
    sorted.sort_unstable();
    let p50 = stats::percentile(&sorted, 50.0);
    let (tail, tail_windows) = stats::windowed_tail(&phase.finish_ns, &phase.latencies_ns);
    let failed_frac = (phase.errored + phase.wrong) as f64 / phase.ops as f64;
    let log_bytes_per_op = phase.log_bytes as f64 / phase.ops as f64;
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s".to_string()),
        ("ops_per_s".into(), phase.ops_per_s(), "1/s".into()),
        ("latency_p50_us".into(), p50.value as f64 / 1e3, "us".into()),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB".into()),
    ];
    let secs = phase.elapsed.as_secs_f64();
    let mut windows = [0u64; 10];
    for &f in &phase.finish_ns {
        windows[((f as f64 / 1e9 / secs * 10.0) as usize).min(9)] += 1;
    }
    let windows: Vec<String> =
        windows.iter().map(|w| format!("{:.0}", *w as f64 / (secs / 10.0))).collect();
    let lines = vec![
        format!("setup_s            {setup_s:.9} s  (median of {setups} set-ups spread over the run)"),
        format!("ops_per_s by tenth of the run: {}", windows.join(" ")),
        format!(
            "ops_per_s          {:.1} 1/s  ({} ops in {:.3} s)",
            phase.ops_per_s(),
            phase.ops,
            phase.elapsed.as_secs_f64()
        ),
        format!("latency_p50_us     {:.2} us", p50.value as f64 / 1e3),
        format!(
            "latency_tail_us    {:.2} us  (median over {tail_windows} windows of {} ops of \
             their p{}, {} samples above it in the median window, n={})",
            tail.value as f64 / 1e3,
            stats::WINDOW_OPS,
            tail.pct,
            tail.above,
            phase.ops
        ),
        format!(
            "failed_frac        {failed_frac} frac  ({} errored, {} failed the check)",
            phase.errored, phase.wrong
        ),
        format!(
            "peak_rss_mb        {peak_rss_mb:.1} MiB  (after set-up and the warm-up; {:.1} MiB at the end)",
            stats::peak_rss_mb()
        ),
        format!("log_bytes_per_op   {log_bytes_per_op:.1} bytes"),
    ];
    (metrics, lines)
}

/// Run the timed loop in slices, building (and dropping) one more world
/// between slices. Returns the merged phase and the set-up times.
fn measure(
    world: &dyn World,
    args: &Args,
    dir: &Path,
    seconds: f64,
) -> Result<(Phase, Vec<f64>), String> {
    let mut phase = Phase::default();
    let mut setups = Vec::with_capacity(SLICES);
    for slice in 0..SLICES {
        let part =
            run_phase(world, args.seed, Stop::After(seconds / SLICES as f64), 2 + slice as u64);
        phase.absorb(part);
        let t0 = Instant::now();
        let extra = build(&args.workload, args.seed, dir, slice + 1, false)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(extra);
        let _ = std::fs::remove_file(world_log(dir, &args.workload, slice + 1));
    }
    Ok((phase, setups))
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let t0 = Instant::now();
    let world = build(&args.workload, args.seed, dir, 0, false)?;
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];
    let clients = world.clients();
    let mut lines = vec![format!(
        "workload={} seed={} seconds={} trace={} clients={clients}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )];

    let warmup = Stop::Ops(warmup_ops(&args.workload));
    run_phase(world.as_ref(), args.seed, warmup, 1);
    let peak_rss_mb = stats::peak_rss_mb();
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let (untraced, setups) = measure(world.as_ref(), args, dir, seconds)?;
    setup_times.extend(setups);
    let setup_s = stats::median(&setup_times);
    let mut checks = vec![world.check()];
    lines.push(format!("log records retained at the end: {}", world.log_records()));
    drop(world);
    let (e2e, e2e_lines) = end_to_end(&untraced, setup_s, setup_times.len(), peak_rss_mb);
    lines.extend(e2e_lines);
    let mut attempted = untraced.ops;
    let mut failed = untraced.errored + untraced.wrong;
    let mut first_error = untraced.first_error.clone();

    let metrics = if args.trace {
        let traced_world = build(&args.workload, args.seed, dir, SLICES + 1, true)?;
        run_phase(traced_world.as_ref(), args.seed, warmup, 1);
        trace::reset();
        trace::set_enabled(true);
        let traced = run_phase(traced_world.as_ref(), args.seed, Stop::After(seconds), 2);
        trace::set_enabled(false);
        checks.push(traced_world.check());
        attempted += traced.ops;
        failed += traced.errored + traced.wrong;
        if first_error.is_none() {
            first_error = traced.first_error.clone();
        }
        let (spans, counts) = trace::drain();
        let totals = ledger::PhaseTotals { messages: traced.messages, log_bytes: traced.log_bytes };
        let (mut per_layer, stray) = ledger::per_layer(spans, &counts, totals);
        let overhead = (traced.ops_per_s() - untraced.ops_per_s()) / untraced.ops_per_s();
        per_layer.push(("telemetry.trace_overhead_frac", overhead, "frac"));
        lines.push(format!(
            "traced: {} ops in {:.3} s ({:.1} 1/s), {} stray spans",
            traced.ops,
            traced.elapsed.as_secs_f64(),
            traced.ops_per_s(),
            stray
        ));
        for (name, value, unit) in &per_layer {
            lines.push(format!("{name:<40} {value:.3} {unit}"));
        }
        per_layer.into_iter().map(|(n, v, u)| (n.to_string(), v, u.to_string())).collect()
    } else {
        e2e
    };
    let mut correct = failed == 0;
    for check in checks {
        if let Err(e) = check {
            lines.push(format!("check failed: {e}"));
            correct = false;
        }
    }
    if let Some(e) = first_error {
        lines.push(format!("first error: {e}"));
    }
    lines.push(format!("correct={correct}"));
    lines.push(format!("meta {}", meta(args, dir, clients)));
    Ok(Report { correct, attempted, failed, metrics, lines })
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// A fresh directory for this run's logs, inside the working
/// directory (the benchmark reads and writes nowhere else).
fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir =
        PathBuf::from(".perfbench_work").join(format!("{workload}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = match work_dir(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", result_json(&report));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Metric names listed under `section` of the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_owned())
            .collect()
    }

    #[test]
    fn smoke_every_workload_emits_every_metric_with_its_unit() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for workload in WORKLOADS {
            for traced in [false, true] {
                let dir = test_dir(workload);
                let args = Args { workload: workload.into(), seed: 7, seconds: 0.2, trace: traced };
                let report = run(&args, &dir).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                assert!(report.correct, "{workload}: {:?}", report.lines);
                assert!(report.attempted > 0);
                let want = declared(if traced { "per_layer" } else { "end_to_end" });
                let got: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
                assert_eq!(got, want, "{workload} trace={traced}");
                for (name, value, unit) in &report.metrics {
                    assert!(!unit.is_empty() && value.is_finite(), "{workload}: {name}");
                }
                let json = result_json(&report);
                assert!(json.starts_with("{\"correct\":true,\"attempted\":"), "{json}");
            }
        }
    }

    /// Outcomes and log sizes of `ops` sequential operations.
    fn drive(world: &dyn World, ops: u64) -> (Vec<bool>, usize) {
        let mut rng = Rng::new(99, 0);
        let outcomes = (0..ops)
            .map(|seq| {
                let out = trace::op(0, seq + 1, || world.op(0, seq, &mut rng)).unwrap();
                world.maintain(0, seq);
                out
            })
            .collect();
        world.check().unwrap();
        (outcomes, world.log_records())
    }

    #[test]
    fn decorated_and_bare_worlds_give_the_same_outcomes_and_log() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("decorated");
        let worlds = |traced: bool| -> Vec<(&'static str, Box<dyn World>)> {
            let tag = if traced { "traced" } else { "bare" };
            vec![
                (
                    "durable_commit",
                    Box::new(
                        DurableCommit::setup(&dir.join(format!("d-{tag}.wal")), 1, traced).unwrap(),
                    ),
                ),
                ("saga_hls", Box::new(SagaHls::setup(traced))),
                ("remote_2pc", Box::new(Remote2pc::setup(5, traced).unwrap())),
                (
                    "recover_replay",
                    Box::new(
                        RecoverReplay::setup(&dir.join(format!("r-{tag}.wal")), 5, traced).unwrap(),
                    ),
                ),
            ]
        };
        let bare: Vec<_> =
            worlds(false).into_iter().map(|(n, w)| (n, drive(w.as_ref(), 40))).collect();
        trace::reset();
        trace::set_enabled(true);
        let traced: Vec<_> =
            worlds(true).into_iter().map(|(n, w)| (n, drive(w.as_ref(), 40))).collect();
        trace::set_enabled(false);
        let (spans, _) = trace::drain();
        let _ = std::fs::remove_dir_all(&dir);
        for ((name, b), (_, t)) in bare.iter().zip(&traced) {
            assert!(b.0.iter().all(|&ok| ok), "{name}: bare outcomes {:?}", b.0);
            assert_eq!(b, t, "{name}: decorated run differs from the bare one");
        }
        assert_eq!(bare[0].1 .1, 40 * 10, "10 log records per 3-participant commit");
        for kind in [
            trace::Kind::Prepare,
            trace::Kind::SinkSync,
            trace::Kind::Proxy,
            trace::Kind::Compensation,
        ] {
            assert!(spans.iter().any(|s| s.kind == kind), "decorators recorded no {kind:?} span");
        }
    }
}
