//! E4 criterion bench: simulated storage operations per configuration and
//! fault level — measures harness throughput and reasserts the round
//! counts of Theorem 9 on every sample. The `history_snapshot_write`
//! group times the read path's two per-`rd` costs at growing history
//! lengths — a server snapshotting its history around a write, and a
//! reader's whole round-1 decision over the four histories it was sent:
//! neither may grow with the entries held. Its last row per length is the
//! one decision that does, the exact scan a contested top timestamp
//! forces, kept on record next to its traffic (none on the repo
//! benchmark's four workloads).

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

        // What a reader does at the end of round 1 of an uncontended
        // read, for 16 objects in turn (the `sim-hot-read` working set):
        // `highest_ts` over the four histories it was sent, `select`,
        // and the `BCD(csel, 1, ·)` triple. Every history is built on
        // its own — four servers share no allocation, and 16 objects do
        // not fit the cache lines one would.
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let n = rqs.universe_size();
        let objects: Vec<Vec<History>> = (0..CYCLES)
            .map(|_| (0..n).map(|_| written(len)).collect())
            .collect();
        let top = TsVal::new(len, Value::from(len));
        let decide = |histories: &[History]| {
            let view = ReadView {
                rqs: &rqs,
                histories,
                responded: ProcessSet::universe(n),
                highest_ts: histories.iter().map(History::highest_ts).max().unwrap(),
                qc2_prime: &[],
            };
            let (csel, row) = view.select_row().expect("a candidate");
            let fast = (1..=3).any(|r| view.bcd1_in(&row, &csel, r));
            (csel, fast)
        };
        group.bench_with_input(
            BenchmarkId::new("read_decision_n4_x16", len),
            &len,
            |b, _| {
                b.iter(|| {
                    for histories in &objects {
                        assert_eq!(decide(histories), (top.clone(), true));
                    }
                });
            },
        );

        // The same decision when server 3 reports another value at the
        // top timestamp: `select` cannot decide from the top row alone
        // and walks every reported pair of every history — O(history) —
        // and the read then needs a write-back. One decision per sample,
        // not 16.
        let mut contested = objects[0].clone();
        contested[n - 1] = written(len - 1);
        contested[n - 1].apply_write(&TsVal::new(len, Value::from(0u64)), &BTreeSet::new(), 1);
        group.bench_with_input(
            BenchmarkId::new("read_decision_contested_n4_x1", len),
            &len,
            |b, _| {
                b.iter(|| assert_eq!(decide(&contested), (top.clone(), false)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_storage, bench_history);
criterion_main!(benches);
