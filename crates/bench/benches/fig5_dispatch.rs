//! F5 — fig. 5: coordinator signal dispatch latency vs registered actions,
//! serial vs parallel vs adaptive fan-out.
//!
//! The `trivial/*` series keeps the original zero-work broadcast (pure
//! framework overhead) under the default config. The `serial/*`,
//! `parallel8/*` and `adaptive/*` series sweep the action count under
//! `DispatchConfig::serial()`, `with_workers(8)` and the adaptive default,
//! at two per-action costs: `0us` (cheap in-process actions, where the
//! serial loop wins) and `50us` of simulated remote-invocation latency
//! (where the pool wins from a few actions up). The adaptive series should
//! track the better of the other two in both regimes.

use activity_service::DispatchConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_dispatch");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for actions in [1usize, 64, 1024] {
        group.bench_with_input(BenchmarkId::new("trivial", actions), &actions, |b, &actions| {
            b.iter(|| assert_eq!(bench::fig5_dispatch(actions), actions as u64))
        });
    }
    let modes = [
        ("serial", DispatchConfig::serial()),
        ("parallel8", DispatchConfig::with_workers(8)),
        ("adaptive", DispatchConfig::default()),
    ];
    for work_us in [0u64, 50] {
        for actions in [1usize, 2, 4, 8, 16, 32, 64] {
            for (mode, config) in modes {
                let id = BenchmarkId::new(format!("{mode}/{work_us}us"), actions);
                group.bench_with_input(id, &actions, |b, &n| {
                    b.iter(|| {
                        assert_eq!(bench::fig5_dispatch_configured(n, config, work_us), n as u64)
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
