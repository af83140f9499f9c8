//! E15 criterion bench: KV service throughput on the deterministic
//! simulator across batch sizes, plus one threaded-runtime sample.
//!
//! The shape to check: larger per-client batches complete the same
//! workload with fewer envelopes, so simulated-workload wall time drops
//! (less queue churn) and the threaded deployment keeps up with the
//! single-register baseline despite multiplexing 16 objects.
//!
//! The `server_step` group times the server stage alone: the same eight
//! writing envelopes through a durable `KvServer` as eight steps and as
//! one batch step, in ns per item and syncs per step.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvBatch, KvItem, KvServer, KvSim, Lane, ObjectId, RtKv, WorkloadConfig};
use rqs_sim::{Automaton, Context, NodeId, Time};
use rqs_storage::{StorageMsg, Value};
use rqs_store::StoreHandle;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn bench_kv(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_throughput");
    group.sample_size(10);

    let cfg = WorkloadConfig::mixed(16, 4, 160, 42);
    let ops = workload::generate(&cfg);

    for batch in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sim_mixed_160ops", format!("batch={batch}")),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
                    let mut sim = KvSim::new(rqs, 16, 4);
                    let stats = sim.run_workload(&ops, batch);
                    assert_eq!(stats.ops, 160);
                    stats.envelopes
                });
            },
        );
    }

    group.bench_function("threaded_mixed_24ops_batch4", |b| {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut kv = RtKv::with_tick(rqs, 8, 2, Duration::from_millis(1));
        let small = WorkloadConfig::mixed(8, 2, 24, 42);
        let small_ops = workload::generate(&small);
        b.iter(|| {
            let stats = kv.run_workload(&small_ops, 4);
            assert_eq!(stats.ops, 24);
            stats.duration_units
        });
    });

    group.finish();
}

/// Eight envelopes of four writes each, from two clients, over eight
/// objects: what a loaded durable server finds queued after one sync.
fn writing_envelopes() -> Vec<(NodeId, KvBatch)> {
    (0..8u64)
        .map(|e| {
            let items = (0..4u64)
                .map(|i| KvItem {
                    object: ObjectId((e * 4 + i) % 8),
                    lane: Lane::Writer,
                    msg: StorageMsg::Wr {
                        ts: 1 + e,
                        val: Value::from(e * 4 + i),
                        sets: BTreeSet::new(),
                        rnd: 1,
                    },
                })
                .collect();
            (NodeId(10 + (e % 2) as usize), KvBatch(items))
        })
        .collect()
}

fn bench_server_step(_c: &mut Criterion) {
    const RUNS: usize = 2_000;
    let mut histories = Vec::new();
    for (label, batched) in [("8_steps", false), ("1_batch_step", true)] {
        // Inputs are built before the clock starts: only the steps are
        // timed.
        let mut inputs: Vec<_> = (0..RUNS).map(|_| writing_envelopes()).collect();
        let store = StoreHandle::mem();
        let mut server = KvServer::with_store(store.clone());
        let (mut steps, mut items) = (0usize, 0usize);
        let start = Instant::now();
        for queued in &mut inputs {
            // A fresh bank per run, so every write is effective.
            server = KvServer::with_store(store.clone());
            let mut ctx = Context::new(NodeId(0), Time::ZERO, 0);
            items += queued.iter().map(|(_, e)| e.len()).sum::<usize>();
            if batched {
                server.on_messages(queued.drain(..), &mut ctx);
                steps += 1;
            } else {
                for (from, envelope) in queued.drain(..) {
                    server.on_message(from, envelope, &mut ctx);
                    steps += 1;
                }
            }
            black_box(ctx.sent().len());
        }
        let ns = start.elapsed().as_nanos() as f64;
        let stats = store.stats();
        assert_eq!(stats.syncs, stats.appends);
        assert_eq!(stats.syncs, steps, "every step here writes");
        println!(
            "bench server_step/{label:<38} {:>8.1} ns/item  {:.2} syncs/step  {:.3} syncs/item",
            ns / items as f64,
            stats.syncs as f64 / steps as f64,
            stats.syncs as f64 / items as f64,
        );
        histories.push(
            (0..8)
                .map(|o| server.history(ObjectId(o)))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(histories[0], histories[1], "both ways end in the same bank");
}

criterion_group!(benches, bench_kv, bench_server_step);
criterion_main!(benches);
