//! Property tests for the pipelined hot path: randomized workloads at
//! pipeline depths 1–8 — under flaky (lossy) links and with one forging
//! Byzantine server — complete exactly once and stay atomic on both
//! substrates (deterministic simulator and threaded runtime).
//!
//! One pinned depth-1 schedule lives in the determinism tests; here the
//! property is the checker's verdict across the randomized
//! (depth × faults × mix) matrix.

use proptest::prelude::*;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, ByzantineMode, KvSim, RtKv, WorkloadConfig};
use rqs_sim::Scenario;
use std::time::Duration;

/// Lossy links toward one server: each `every`-th message touching it
/// (either direction) is dropped for the whole run. Quorums avoiding
/// the flaky server keep closing; rounds that did include it are nudged
/// through by the clients' loss watchdogs.
fn flaky(server: usize, every: u64) -> Scenario {
    Scenario::named("pipelined-flaky").lossy_towards(vec![server], every)
}

fn sim_run(depth: usize, cfg: WorkloadConfig, byz: Option<usize>, drop_every: Option<u64>) {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let n = rqs.universe_size();
    let scenario = match drop_every {
        // Keep the flaky server distinct from the forger so both fault
        // kinds are live at once.
        Some(every) => flaky(byz.map_or(0, |b| (b + 1) % n), every),
        None => Scenario::default(),
    };
    let mut sim = KvSim::with_scenario(rqs, cfg.objects, cfg.clients, scenario);
    sim.set_pipeline(depth);
    if let Some(idx) = byz {
        sim.make_byzantine(idx, ByzantineMode::Forge);
    }
    let ops = workload::generate(&cfg);
    let stats = sim.run_workload(&ops, 4);
    assert_eq!(stats.ops, cfg.ops, "every operation must complete");
    sim.check_atomicity()
        .unwrap_or_else(|v| panic!("atomicity violated at depth {depth}: {v}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Depth × mix randomization on fault-free links.
    #[test]
    fn pipelined_depths_stay_atomic(
        seed in 0u64..10_000,
        depth in 1usize..=8,
        read_percent in 0u8..=100,
    ) {
        let cfg = WorkloadConfig {
            objects: 8,
            clients: 2,
            ops: 48,
            read_percent,
            skew: 0.4,
            seed,
        };
        sim_run(depth, cfg, None, None);
    }

    /// Depth × flaky links × one forging Byzantine server: retries and
    /// the quorum predicates absorb both fault kinds at any depth.
    #[test]
    fn pipelined_flaky_byzantine_stays_atomic(
        seed in 0u64..10_000,
        depth in 1usize..=8,
        byz_idx in 0usize..4,
        drop_every in 2u64..=5,
    ) {
        let cfg = WorkloadConfig {
            objects: 8,
            clients: 2,
            ops: 40,
            read_percent: 50,
            skew: 0.5,
            seed,
        };
        sim_run(depth, cfg, Some(byz_idx), Some(drop_every));
    }
}

proptest! {
    // The threaded runtime spins up real node threads per case;
    // keep the case count low and the workloads small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same property on the threaded substrate: pipelined depths with
    /// one forging Byzantine server.
    #[test]
    fn threaded_pipelined_byzantine_stays_atomic(
        seed in 0u64..10_000,
        depth in 2usize..=8,
        byz_idx in 0usize..4,
    ) {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut kv = RtKv::with_tick(rqs, 8, 2, Duration::from_micros(50));
        kv.make_byzantine(byz_idx, ByzantineMode::Forge);
        kv.set_pipeline(depth);
        let cfg = WorkloadConfig {
            objects: 8,
            clients: 2,
            ops: 32,
            read_percent: 50,
            skew: 0.4,
            seed,
        };
        let stats = kv.run_workload(&workload::generate(&cfg), 4);
        kv.check_atomicity()
            .unwrap_or_else(|v| panic!("atomicity violated at depth {depth}: {v}"));
        assert_eq!(stats.ops, cfg.ops, "every operation must complete");
        kv.shutdown();
    }
}
