//! Microbenchmarks of the core abstractions: property verification,
//! quorum lookups — the per-message costs of the protocols.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{ProcessSet, Rqs};

fn graded(n: usize, t: usize, k: usize) -> Rqs {
    ThresholdConfig::new(n, t, k)
        .with_class1(0)
        .with_class2(if t > 0 { t - 1 } else { 0 })
        .build_unchecked()
        .unwrap()
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_verify");
    for (n, t, k) in [(7usize, 2usize, 1usize), (10, 3, 1), (12, 3, 2)] {
        group.bench_with_input(
            BenchmarkId::new("verify", format!("n{n}t{t}k{k}")),
            &(n, t, k),
            |b, &(n, t, k)| {
                let rqs = graded(n, t, k);
                b.iter(|| rqs.verify().is_ok());
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("core_lookup");
    for n in [7usize, 10, 12] {
        group.bench_with_input(BenchmarkId::new("quorums_within", n), &n, |b, &n| {
            let rqs = graded(n, 3.min(n / 3), 1);
            let responded =
                ProcessSet::universe(n).difference(ProcessSet::singleton(rqs_core::ProcessId(0)));
            b.iter(|| rqs.quorums_within(responded).count());
        });
        group.bench_with_input(BenchmarkId::new("best_available_class", n), &n, |b, &n| {
            let rqs = graded(n, 3.min(n / 3), 1);
            let faulty = ProcessSet::from_indices([0]);
            b.iter(|| rqs.best_available_class(faulty));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_core);
criterion_main!(benches);
