//! E11 criterion bench: wall-clock latency of the protocols on the
//! threaded runtime (real channels, real timers).
//!
//! Absolute numbers depend on the host; the shape to check is that the
//! class-1 fast path beats the degraded paths (which must wait for real
//! `2Δ` timeouts and extra round-trips).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rqs_consensus::{ConsensusDeployment, ConsensusMsg};
use rqs_core::threshold::ThresholdConfig;
use rqs_runtime::Runtime;
use rqs_sim::Scenario;
use rqs_storage::{StorageDeployment, StorageMsg, Value};
use std::time::Duration;

const TICK: Duration = Duration::from_millis(2);

type Storage = StorageDeployment<Runtime<StorageMsg>>;
type Consensus = ConsensusDeployment<Runtime<ConsensusMsg>>;

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_wallclock");
    group.sample_size(20);

    for n_t in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("storage_write_read", format!("n={}", 3 * n_t + 1)),
            &n_t,
            |b, &t| {
                let rqs = ThresholdConfig::byzantine_fast(t).build().unwrap();
                let mut st = Storage::with_setup(rqs, 1, Scenario::default(), TICK);
                let mut v = 0u64;
                b.iter(|| {
                    v += 1;
                    let w = st.write(Value::from(v));
                    // Under scheduler noise an ack can miss the real-time
                    // 2Δ window; record rather than assert the fast path.
                    debug_assert!(w.rounds <= 3);
                    let r = st.read(0);
                    assert_eq!(r.returned.val, Value::from(v));
                    (w.rounds, r.rounds)
                });
            },
        );
    }

    group.bench_function("consensus_propose_learn_n4", |b| {
        b.iter(|| {
            let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
            let mut cons = Consensus::with_setup(rqs, 1, 1, Scenario::default(), TICK);
            cons.propose(0, 42);
            assert!(cons.run_until_learned(0), "learners did not learn");
            cons.shutdown();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
