//! F8 — fig. 8: two-phase commit through the signal framework vs the
//! native OTS coordinator, swept over participants, plus the phase
//! fan-out sweeps under `DispatchConfig::serial()`, `with_workers(8)`
//! (`parallel8`) and the adaptive default:
//!
//! * `{mode}/{work}us/*` — participants whose prepare and commit each
//!   take `work` µs of simulated remote latency (0 or 50);
//! * `kv_{mode}/*` — cheap in-memory `TransactionalKv` participants on a
//!   factory and stores built outside the timed loop.
//!
//! The adaptive series should track the better of serial and parallel8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ots::DispatchConfig;

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_2pc");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for participants in [2usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("signal_framework", participants),
            &participants,
            |b, &n| b.iter(|| assert!(bench::fig8_signal_2pc(n))),
        );
        group.bench_with_input(
            BenchmarkId::new("native_ots", participants),
            &participants,
            |b, &n| b.iter(|| assert!(bench::fig8_native_2pc(n))),
        );
    }
    let modes = [
        ("serial", DispatchConfig::serial()),
        ("parallel8", DispatchConfig::with_workers(8)),
        ("adaptive", DispatchConfig::default()),
    ];
    for work_us in [0u64, 50] {
        for participants in [1usize, 2, 4, 8, 16, 32] {
            for (mode, config) in modes {
                let id = BenchmarkId::new(format!("{mode}/{work_us}us"), participants);
                group.bench_with_input(id, &participants, |b, &n| {
                    b.iter(|| assert!(bench::fig8_2pc_configured(n, config, work_us)))
                });
            }
        }
    }
    for participants in [4usize, 16, 64] {
        for (mode, config) in modes {
            let commits = bench::KvCommits::new(participants, config);
            group.bench_with_input(
                BenchmarkId::new(format!("kv_{mode}"), participants),
                &participants,
                |b, _| b.iter(|| assert!(commits.commit())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
