//! Reliability-layer fault-free overhead harness (DESIGN.md §10): the cost
//! of enabling `orb::retry` policies on the remote dispatch path and the
//! participant failure detector on the 2PC fan-out, measured on fully
//! healthy, fault-free runs where neither layer should ever act. The budget
//! pinned in EXPERIMENTS.md is <2% — within measurement noise.
//!
//! Run with: `cargo run -q -p bench --bin retry_overhead --release`

use std::time::Instant;

/// One timed batch: µs/op over `iters` iterations.
fn batch_us(op: &mut impl FnMut(), iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

/// Paired interleaved measurement: each batch times the baseline and the
/// layered workload back to back, so slow machine-load drift hits both
/// sides equally; the reported delta is the median of per-batch deltas.
fn compare(
    n: usize,
    mut baseline: impl FnMut(),
    mut layered: impl FnMut(),
    iters: u32,
    batches: u32,
) {
    for _ in 0..iters {
        baseline();
        layered();
    }
    let mut base_samples = Vec::with_capacity(batches as usize);
    let mut layer_samples = Vec::with_capacity(batches as usize);
    let mut deltas = Vec::with_capacity(batches as usize);
    for _ in 0..batches {
        let b = batch_us(&mut baseline, iters);
        let l = batch_us(&mut layered, iters);
        deltas.push((l - b) / b * 100.0);
        base_samples.push(b);
        layer_samples.push(l);
    }
    println!(
        "{n:>8} {:>13.1} {:>13.1} {:>+9.1}%",
        median(base_samples),
        median(layer_samples),
        median(deltas)
    );
}

fn main() {
    const BATCHES: u32 = 15;
    println!("## R1 (sec 10): reliability-layer fault-free overhead, µs/op");
    println!("# paired interleaved batches, median of {BATCHES}; budget <2% (within noise)");

    println!("# fig. 5 remote dispatch: RetryPolicy::immediate(9) vs RetryPolicy::new(8)");
    println!("{:>8} {:>13} {:>13} {:>10}", "actions", "immediate", "backoff", "delta");
    for n in [4usize, 16, 64] {
        let iters = (8192 / n).max(32) as u32;
        compare(
            n,
            || assert_eq!(bench::remote_dispatch_with_retry(n, false), n as u64),
            || assert_eq!(bench::remote_dispatch_with_retry(n, true), n as u64),
            iters,
            BATCHES,
        );
    }

    println!("# fig. 8 2PC fan-out: no detector vs healthy-participant detector consult");
    println!("{:>8} {:>13} {:>13} {:>10}", "parts", "bare", "detector", "delta");
    for n in [4usize, 16, 64] {
        let iters = (8192 / n).max(32) as u32;
        compare(
            n,
            || assert!(bench::two_phase_with_detector(n, false)),
            || assert!(bench::two_phase_with_detector(n, true)),
            iters,
            BATCHES,
        );
    }
}
