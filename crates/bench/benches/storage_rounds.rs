//! E4 criterion bench: simulated storage operations per configuration and
//! fault level — measures harness throughput and reasserts the round
//! counts of Theorem 9 on every sample. The `history_snapshot_write`
//! group times the read path's two per-`rd` costs (a server snapshotting
//! its history around a write, a reader selecting from four of them) at
//! growing history lengths: neither may grow with the entries held.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{ProcessSet, QuorumId, Rqs};
use rqs_storage::{History, ReadView, StorageHarness, TsVal, Value};
use std::collections::BTreeSet;

fn graded() -> Rqs {
    ThresholdConfig::new(7, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .unwrap()
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_rounds");
    for (label, crashes, expect_write_rounds) in [
        ("class1", 0usize, 1usize),
        ("class2", 1, 2),
        ("class3", 2, 3),
    ] {
        group.bench_with_input(
            BenchmarkId::new("write_read_n7", label),
            &crashes,
            |b, &crashes| {
                b.iter(|| {
                    let rqs = graded();
                    let n = rqs.universe_size();
                    let mut h = StorageHarness::new(rqs, 1);
                    if crashes > 0 {
                        let faulty: ProcessSet = (n - crashes..n).collect();
                        h.crash_servers(faulty);
                    }
                    let w = h.write(Value::from(7u64));
                    assert_eq!(w.rounds, expect_write_rounds);
                    let r = h.read(0);
                    assert_eq!(r.returned.val, Value::from(7u64));
                    r.rounds
                });
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("storage_scale");
    for t in [1usize, 2, 3] {
        group.bench_with_input(
            BenchmarkId::new("byzantine_3t1_roundtrip", t),
            &t,
            |b, &t| {
                b.iter(|| {
                    let rqs = ThresholdConfig::byzantine_fast(t).build().unwrap();
                    let mut h = StorageHarness::new(rqs, 1);
                    h.write(Value::from(1u64));
                    h.read(0).rounds
                });
            },
        );
    }
    group.finish();
}

/// A history of `len` completed one-round writes, timestamps `1..=len`.
fn written(len: u64) -> History {
    let mut h = History::new();
    for ts in 1..=len {
        h.apply_write(&TsVal::new(ts, Value::from(ts)), &BTreeSet::new(), 1);
    }
    h
}

fn bench_history(c: &mut Criterion) {
    /// Snapshot/write/drop cycles per sample, spread over the history.
    const CYCLES: u64 = 16;
    let mut group = c.benchmark_group("history_snapshot_write");
    for len in [64u64, 1_024, 16_384] {
        // What a server does between two `rd`s of a written object: hand
        // out a snapshot, take one effective write (a reader's write-back
        // attaching a quorum id to an old timestamp) while the snapshot
        // is out, and see the snapshot dropped. Sample `k` attaches id
        // `k`, so every write changes a slot and the length never moves.
        let mut h = written(len);
        let mut sample = 0;
        group.bench_with_input(
            BenchmarkId::new("snapshot_wr_drop_x16", len),
            &len,
            |b, &len| {
                b.iter(|| {
                    let id = QuorumId(sample);
                    sample += 1;
                    for i in 0..CYCLES {
                        let ts = 1 + i * (len / CYCLES);
                        let c = TsVal::new(ts, Value::from(ts));
                        let snapshot = h.clone();
                        assert!(h.apply_write(&c, &BTreeSet::from([id]), 1));
                        assert!(!snapshot.stores_with_quorum(&c, 1, id));
                    }
                });
            },
        );
        assert_eq!(h.len() as u64, len);

        // What a reader does per round: `select()` over the snapshots of
        // all four servers of the n = 3t + 1, t = 1 system.
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let histories = vec![written(len); rqs.universe_size()];
        let responded = rqs.quorums_within(ProcessSet::universe(rqs.universe_size()));
        let top = TsVal::new(len, Value::from(len));
        group.bench_with_input(BenchmarkId::new("select_n4_x16", len), &len, |b, &len| {
            b.iter(|| {
                let view = ReadView {
                    rqs: &rqs,
                    histories: &histories,
                    responded: &responded,
                    highest_ts: len,
                    qc2_prime: &[],
                };
                for _ in 0..CYCLES {
                    assert_eq!(view.select().as_ref(), Some(&top));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_storage, bench_history);
criterion_main!(benches);
