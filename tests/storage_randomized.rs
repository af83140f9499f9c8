//! Randomized cross-crate storage tests: atomicity must hold for every
//! workload, crash pattern, delay schedule, and scripted Byzantine
//! behaviour the adversary structure admits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqs::storage::byzantine::ForgedServer;
use rqs::storage::{StorageHarness, TsVal, Value};
use rqs::{ProcessSet, ThresholdConfig};
use rqs_sim::{Envelope, Fate, Scenario};

/// Runs a seeded random workload over a configuration with random crash
/// times, returning the atomicity verdict.
fn random_workload(
    cfg: ThresholdConfig,
    seed: u64,
    ops: usize,
    crashes: usize,
    byzantine: usize,
) -> Result<(), String> {
    let rqs = cfg.build().map_err(|e| e.to_string())?;
    let n = rqs.universe_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = StorageHarness::new(rqs, 2);

    // Byzantine servers (the lowest indices): fabricate high-timestamp
    // values. Must stay inside the adversary.
    for b in 0..byzantine {
        let ghost = TsVal::new(1000 + b as u64, Value::from(0xBAD_u64));
        h.make_byzantine(b, Box::new(ForgedServer::with_slot1(&ghost)));
    }

    // Random crash set among the remaining servers, obeying t.
    let mut crashed = ProcessSet::empty();
    let mut candidates: Vec<usize> = (byzantine..n).collect();
    for _ in 0..crashes {
        if candidates.is_empty() {
            break;
        }
        let i = rng.gen_range(0..candidates.len());
        crashed.insert(rqs_core::ProcessId(candidates.swap_remove(i)));
    }

    for op in 0..ops {
        // Crash one scheduled server midway through the workload.
        if op == ops / 2 && !crashed.is_empty() {
            h.crash_servers(crashed);
        }
        if rng.gen_bool(0.5) {
            h.write(Value::from(op as u64 + 1));
        } else {
            let reader = rng.gen_range(0..2);
            h.read(reader);
        }
    }
    h.check_atomicity().map_err(|e| e.to_string())
}

/// Runs a seeded workload on a durable (write-ahead-logged) deployment,
/// amnesia-crashing and recovering a random server before every
/// `interrupt_every`-th operation, and returns the per-read timestamps
/// plus the atomicity verdict. `interrupt_every == 0` never interrupts.
fn durable_run(seed: u64, ops: usize, interrupt_every: usize) -> (Vec<u64>, Result<(), String>) {
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let n = rqs.universe_size();
    let mut h = StorageHarness::durable_with_scenario(rqs, 2, Scenario::default());
    // Separate RNG streams so the interrupted and uninterrupted runs
    // draw the identical operation sequence.
    let mut op_rng = StdRng::seed_from_u64(seed);
    let mut int_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut reads = Vec::new();
    for op in 0..ops {
        if interrupt_every > 0 && op % interrupt_every == 0 {
            let victim = int_rng.gen_range(0..n);
            let set: ProcessSet = (victim..victim + 1).collect();
            h.crash_servers_amnesia(set);
            h.restart_servers(set);
        }
        if op_rng.gen_bool(0.5) {
            h.write(Value::from(op as u64 + 1));
        } else {
            reads.push(h.read(op_rng.gen_range(0..2)).returned.ts);
        }
    }
    (reads, h.check_atomicity().map_err(|e| e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery equivalence: a run interrupted by K amnesia
    /// crash-recoveries is indistinguishable from the uninterrupted run —
    /// same read results, same atomicity verdict. Write-ahead logging is
    /// exactly what makes recovery invisible to clients.
    #[test]
    fn amnesia_interrupts_are_equivalent_to_uninterrupted(
        seed in 0u64..500,
        interrupt_every in 1usize..4,
    ) {
        let ops = 8;
        let (base_reads, base_verdict) = durable_run(seed, ops, 0);
        let (reads, verdict) = durable_run(seed, ops, interrupt_every);
        prop_assert_eq!(&verdict, &base_verdict);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
        prop_assert_eq!(reads, base_reads);
    }

    #[test]
    fn crash_only_system_always_atomic(seed in 0u64..1000, crashes in 0usize..3) {
        // §1.2 system: n=5, t=2, k=0.
        let cfg = ThresholdConfig::crash_fast(5, 1);
        random_workload(cfg, seed, 8, crashes, 0).unwrap();
    }

    #[test]
    fn byzantine_system_always_atomic(seed in 0u64..1000, byz in 0usize..2) {
        // n=4, t=k=1: at most one Byzantine, no extra crashes when a
        // server is Byzantine (t=1 total).
        let cfg = ThresholdConfig::byzantine_fast(1);
        let crashes = if byz == 0 { 1 } else { 0 };
        random_workload(cfg, seed, 8, crashes, byz).unwrap();
    }

    #[test]
    fn graded_system_always_atomic(seed in 0u64..1000, crashes in 0usize..3) {
        let cfg = ThresholdConfig::new(7, 2, 1).with_class1(0).with_class2(1);
        random_workload(cfg, seed, 8, crashes, 0).unwrap();
    }

    #[test]
    fn random_delays_preserve_atomicity(seed in 0u64..500) {
        // Random per-message delays 1..=4 (asynchronous-ish), no faults:
        // rounds may degrade, atomicity may not.
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut h = StorageHarness::new(rqs, 2);
        let mut delay_rng = StdRng::seed_from_u64(seed);
        let mut delays = Vec::new();
        for _ in 0..4096 {
            delays.push(delay_rng.gen_range(1u64..=4));
        }
        let mut i = 0usize;
        h.world_mut().set_policy(move |_e: &Envelope<rqs::storage::StorageMsg>| {
            i = (i + 1) % delays.len();
            Fate::Deliver { delay: delays[i] }
        });
        let mut op_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for op in 0..6u64 {
            if op_rng.gen_bool(0.5) {
                h.write(Value::from(op + 1));
            } else {
                h.read(op_rng.gen_range(0..2));
            }
        }
        h.check_atomicity().unwrap();
    }
}

#[test]
fn contended_read_with_stalled_write_is_atomic() {
    // A write that stalls in round 1 plus reads from both readers: the
    // read may return old or new, but the two reads must not invert.
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut h = StorageHarness::new(rqs, 2);
    h.write(Value::from(1u64));
    // Stall the next write by dropping all its server deliveries except
    // two (no quorum): the write stays open.
    let writer = h.writer_id();
    let keep: Vec<_> = h.servers()[..2].to_vec();
    h.world_mut()
        .set_policy(move |e: &Envelope<rqs::storage::StorageMsg>| {
            if e.from == writer && !keep.contains(&e.to) {
                Fate::Drop
            } else {
                Fate::Deliver { delay: 1 }
            }
        });
    h.start_write(Value::from(2u64));
    h.world_mut().run_to_quiescence();
    let r1 = h.read(0);
    let r2 = h.read(1);
    assert!(r2.returned.ts >= r1.returned.ts, "no read inversion");
    h.check_atomicity().unwrap();
}

#[test]
fn byzantine_cannot_fabricate_unwritten_value() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = StorageHarness::new(rqs, 1);
    let ghost = TsVal::new(77, Value::from(0xEEE_u64));
    h.make_byzantine(0, Box::new(ForgedServer::with_slot1(&ghost)));
    let r = h.read(0);
    assert!(r.returned.is_initial(), "fabricated value must be rejected");
    h.check_atomicity().unwrap();
}

#[test]
fn wait_freedom_under_max_crashes() {
    // t crashes at time zero: every operation still completes.
    for t in [1usize, 2] {
        let rqs = ThresholdConfig::byzantine_fast(t).build().unwrap();
        let n = rqs.universe_size();
        let mut h = StorageHarness::new(rqs, 1);
        let faulty: ProcessSet = (n - t..n).collect();
        h.crash_servers(faulty);
        for v in 1..=3u64 {
            h.write(Value::from(v));
            let r = h.read(0);
            assert_eq!(r.returned.val, Value::from(v));
        }
        h.check_atomicity().unwrap();
    }
}
