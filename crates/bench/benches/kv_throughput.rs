//! E15 criterion bench: KV service throughput on the deterministic
//! simulator across batch sizes, plus one threaded-runtime sample.
//!
//! Every group asserts as it measures, so one run of this file is also a
//! check. The shape to check: larger per-client batches complete the same
//! workload with fewer envelopes, so simulated-workload wall time drops
//! (less queue churn) and the threaded deployment keeps up with the
//! single-register baseline despite multiplexing 16 objects.
//!
//! The `server_step` group times the server stage alone: the same eight
//! writing envelopes through a durable `KvServer` as eight steps and as
//! one batch step, in ns per item and syncs per step.
//!
//! The `client_ack` group times the client stage alone: a `KvClient`
//! taking the four servers' round-1 acks of one read on each of 16
//! objects in one step, in ns per ack item, with every read asserted to
//! complete in one round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rqs_core::threshold::ThresholdConfig;
use rqs_core::Rqs;
use rqs_kv::{
    workload, KvBatch, KvClient, KvItem, KvOp, KvServer, KvSim, Lane, ObjectId, RtKv,
    WorkloadConfig,
};
use rqs_sim::{Automaton, Context, NodeId, Time};
use rqs_storage::{History, StorageMsg, TsVal, Value};
use rqs_store::StoreHandle;
use std::collections::BTreeSet;
use std::sync::Arc;
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

/// One pass of the `client_ack` group: a fresh client reads every one of
/// `OBJECTS` objects `RUNS` times, each read answered in one step by the
/// four servers' round-1 acks; returns ns per ack item.
fn client_ack_pass(rqs: &Arc<Rqs>, history: &History, top: &TsVal) -> f64 {
    const RUNS: u64 = 2_000;
    const OBJECTS: u64 = 16;
    let servers: Vec<NodeId> = (0..rqs.universe_size()).map(NodeId).collect();
    let me = NodeId(servers.len());
    // Inputs are built before the clock starts: per run, one envelope per
    // server acking the run's read of every object.
    let acks: Vec<Vec<(NodeId, KvBatch)>> = (1..=RUNS)
        .map(|read_no| {
            let ack = |object| KvItem {
                object: ObjectId(object),
                lane: Lane::Reader,
                msg: StorageMsg::RdAck {
                    read_no,
                    rnd: 1,
                    history: history.clone(),
                },
            };
            let envelope = || KvBatch((0..OBJECTS).map(ack).collect());
            servers.iter().map(|&s| (s, envelope())).collect()
        })
        .collect();
    let mut client = KvClient::new(rqs.clone(), servers, []);
    let (mut counter, mut items, mut timed) = (0, 0usize, Duration::ZERO);
    for (run, mut queued) in acks.into_iter().enumerate() {
        let at = 2 * run as u64;
        let reads = (0..OBJECTS).map(|o| KvOp::Read {
            object: ObjectId(o),
        });
        let mut ctx = Context::new(me, Time(at), counter);
        client.start_ops(reads.collect(), &mut ctx);
        counter = ctx.timer_counter_snapshot();
        let mut ctx = Context::new(me, Time(at + 1), counter);
        items += queued.iter().map(|(_, e)| e.len()).sum::<usize>();
        let start = Instant::now();
        client.on_messages(queued.drain(..), &mut ctx);
        timed += start.elapsed();
        counter = ctx.timer_counter_snapshot();
        black_box(ctx.cancelled_timers().len());
    }
    assert_eq!(client.in_flight(), 0);
    let outcomes = client.outcomes();
    assert_eq!(outcomes.len() as u64, RUNS * OBJECTS);
    assert!(
        outcomes.iter().all(|o| o.rounds == 1 && o.pair == *top),
        "every read decides on the top pair in one round"
    );
    timed.as_nanos() as f64 / items as f64
}

fn bench_client_ack(_c: &mut Criterion) {
    const PASSES: usize = 5;
    const WRITTEN: u64 = 64;
    let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
    // Every server reports the same history of `WRITTEN` one-round
    // writes, so each read decides on its top pair in round 1.
    let mut history = History::new();
    for ts in 1..=WRITTEN {
        history.apply_write(&TsVal::new(ts, Value::from(ts)), &BTreeSet::new(), 1);
    }
    let top = TsVal::new(WRITTEN, Value::from(WRITTEN));
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| client_ack_pass(&rqs, &history, &top))
        .collect();
    let min = passes.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "bench client_ack/{:<42} min {:>6.1} ns/item  mean {:>6.1} ns/item  ({PASSES} passes)",
        "rd_acks_4_servers_x16_lanes",
        min,
        passes.iter().sum::<f64>() / PASSES as f64,
    );
}

criterion_group!(benches, bench_kv, bench_server_step, bench_client_ack);
criterion_main!(benches);
