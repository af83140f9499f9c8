//! Spec-based properties of the client's loss watchdog: a round is
//! re-broadcast only when it has been silent for one *observed* round
//! trip beyond its own timer, so on fault-free links — however slow — the
//! watchdog costs a warm-up's worth of nudges and then nothing, while on
//! lossy links it still drives every operation to completion.
//!
//! Nothing here configures the client: every deployment runs the one
//! rule, and the link (`LinkEffect::Delay`, `DropEvery`, a crash plan)
//! is the only thing that varies.

use proptest::prelude::*;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvClient, KvOp, KvRunStats, KvSim, ObjectId, WorkloadConfig};
use rqs_obs::{FlightRecorder, TraceKind, Tracer};
use rqs_sim::{CrashMode, LinkEffect, LinkRule, Scenario, Substrate};
use rqs_storage::Value;
use std::sync::Arc;

const OBJECTS: usize = 64;
const CLIENTS: usize = 2;
const BATCH: usize = 8;

fn delayed(d: u64) -> Scenario {
    Scenario::named("delay").link(LinkRule::every(LinkEffect::Delay(d)))
}

/// One fault-free cell: `ops` mixed operations over links `d` ticks
/// slower than the paper's Δ, at pipeline depth `depth`.
fn cell(d: u64, depth: usize, ops: usize) -> KvRunStats {
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut sim = KvSim::with_scenario(rqs, OBJECTS, CLIENTS, delayed(d));
    sim.retain_outcomes(false);
    sim.set_pipeline(depth);
    let cfg = WorkloadConfig::mixed(OBJECTS, CLIENTS, ops, 42);
    let stats = sim.run_workload(&workload::generate(&cfg), BATCH);
    assert_eq!(stats.ops, ops);
    sim.check_atomicity().unwrap();
    stats
}

fn slow_ops(stats: &KvRunStats) -> usize {
    stats.rounds.total() - stats.rounds.fast()
}

/// Nudges a fault-free run may spend before its first acks have been
/// timed, per lane launched in the first wave: the unsampled interval
/// and its double both fit inside the slowest link of the grid.
const WARM_UP_NUDGES_PER_LANE: u64 = 2;

/// The grid of (i) at one depth. The warm-up is the first wave — every
/// lane launched before any ack has been timed runs on the starting
/// guesses — so it is bounded by that wave's size, and a run ten times as
/// long pays exactly the same. Returns the short run on the slowest link.
fn grid_row(depth: usize) -> KvRunStats {
    let first_wave = (CLIENTS * BATCH * depth) as u64;
    let base = cell(0, depth, 20_000);
    assert_eq!(base.retries.retries_issued, 0);
    assert_eq!(slow_ops(&base), 0);
    let mut short = cell(0, depth, 2_000);
    assert_eq!(short.retries.retries_issued, 0);
    assert_eq!(slow_ops(&short), 0);
    for d in [1, 2, 4, 40] {
        short = cell(d, depth, 2_000);
        let long = cell(d, depth, 20_000);
        let nudges = long.retries.retries_issued;
        assert!(
            nudges <= WARM_UP_NUDGES_PER_LANE * first_wave,
            "d={d} depth={depth}: {nudges} nudges"
        );
        assert_eq!(
            short.retries.retries_issued, nudges,
            "d={d} depth={depth}: nudges must not grow with the run"
        );
        // Likewise the ops that lost the fast path to the starting round
        // timer: first-wave ops, the same ones in both runs.
        assert!(slow_ops(&long) as u64 <= first_wave, "d={d} depth={depth}");
        assert_eq!(slow_ops(&short), slow_ops(&long), "d={d} depth={depth}");
        // Past the warm-up the slow link looks like the fast one.
        let fast = long.rounds.fast_path_ratio();
        assert!(
            (base.rounds.fast_path_ratio() - fast).abs() <= 0.01,
            "d={d} depth={depth}: fast-path ratio {fast}"
        );
        let (env, env0) = (long.envelopes_per_op(), base.envelopes_per_op());
        assert!(
            (env - env0).abs() <= 0.1 * env0,
            "d={d} depth={depth}: {env:.2} envelopes/op against {env0:.2}"
        );
    }
    short
}

#[test]
fn fault_free_grid_costs_a_warm_up_at_depth_1() {
    // The slowest link at depth 1 is where a fixed schedule did worst:
    // every round nudged, every nudged round's ack unsampled, half the
    // ops on the slow path for good.
    let worst = grid_row(1);
    assert!(worst.rounds.fast_path_ratio() >= 0.99);
    assert!(worst.retries.retries_issued <= 20);
}

#[test]
fn fault_free_grid_costs_a_warm_up_at_depth_4() {
    grid_row(4);
}

#[test]
fn fault_free_grid_costs_a_warm_up_at_depth_8() {
    grid_row(8);
}

/// (ii) Karn's second half. The link slows from 1 to 40 extra ticks
/// mid-run: the rounds caught by the step are nudged — their acks are no
/// samples, but they bound the round trip — and from then on the
/// watchdog is patient enough for clean samples to arrive, which grow
/// the round timer until ops are back on the fast path.
#[test]
fn a_link_that_slows_down_mid_run_is_learnt_in_a_few_rounds() {
    const STEP: u64 = 300;
    let scenario = Scenario::named("step")
        .link(LinkRule::every(LinkEffect::Delay(40)).during(STEP, u64::MAX))
        .link(LinkRule::every(LinkEffect::Delay(1)));
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut sim = KvSim::with_scenario(rqs, OBJECTS, CLIENTS, scenario);
    sim.retain_outcomes(false);
    let mut chunk = |seed: u64| {
        let cfg = WorkloadConfig::mixed(OBJECTS, CLIENTS, 200, seed);
        let before = sim.now_ticks();
        let stats = sim.run_workload(&workload::generate(&cfg), BATCH);
        (before, sim.now_ticks(), stats)
    };
    let mut after_step = Vec::new();
    let mut nudges = 0;
    for seed in 0..24 {
        let (began, ended, stats) = chunk(seed);
        nudges += stats.retries.retries_issued;
        if ended < STEP {
            assert_eq!(stats.retries.retries_issued, 0, "before the step");
        } else if began >= STEP {
            after_step.push(stats);
        }
    }
    assert!(after_step.len() >= 12, "the run must outlast the step");
    // The step is paid for once, by the rounds it caught in flight (at
    // most a wave, a few nudges each), inside the chunk that straddled it
    // and the first one after it (a chunk is 13 waves of rounds). Every
    // later chunk is nudge-free and entirely fast-path, which it can only
    // be on a round timer that has outgrown the 82-tick round trip.
    let caught = (CLIENTS * BATCH) as u64;
    assert!((1..=4 * caught).contains(&nudges), "{nudges} nudges");
    for stats in &after_step[1..] {
        assert_eq!(stats.retries.retries_issued, 0);
        assert_eq!(slow_ops(stats), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (iii) Lossy links towards a random server set, at a random loss
    /// rate, pipeline depth and link delay, with nothing configured:
    /// every op completes exactly once, every object stays atomic, and
    /// under heavy loss it was the watchdog that got the thinned rounds
    /// through.
    #[test]
    fn lossy_links_are_survived_uncalibrated(
        seed in 0u64..10_000,
        spared in 0usize..=10,
        drop_every in 2u64..=6,
        depth in 1usize..=8,
        delay in 0u64..=8,
    ) {
        // Three of the five servers lossy (one of the ten ways to spare
        // two) or all five: no quorum avoids them. Not four — a
        // broadcast would then advance `DropEvery(2)`'s counter by an
        // even count, and that is a fixed pattern silencing the same
        // servers every time, not loss.
        let pairs: Vec<(usize, usize)> =
            (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))).collect();
        let targets: Vec<usize> = match pairs.get(spared) {
            Some(&(a, b)) => (0..5).filter(|&i| i != a && i != b).collect(),
            None => (0..5).collect(),
        };
        // Loss first: what survives it falls through to the delay.
        let scenario = Scenario::named("lossy")
            .lossy_towards(targets, drop_every)
            .link(LinkRule::every(LinkEffect::Delay(delay)));
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut sim = KvSim::with_scenario(rqs, 8, 2, scenario);
        sim.set_pipeline(depth);
        let cfg = WorkloadConfig::mixed(8, 2, 120, seed);
        let stats = sim.run_workload(&workload::generate(&cfg), 4);
        prop_assert_eq!(stats.ops, 120);
        prop_assert_eq!(sim.completed().len(), 120);
        sim.check_atomicity().unwrap();
        // At lighter loss a quorum of acks survives most broadcasts and
        // a round need never go silent.
        if drop_every == 2 {
            prop_assert!(stats.retries.retries_issued > 0);
        }
    }
}

/// (iv) The degraded shape of `wan-degraded`: one server amnesia-crashed
/// for the middle third of the run. A degraded round legitimately lasts
/// its whole timer and is then classified on the acks it has — it is not
/// silent, so nothing is re-sent.
#[test]
fn degraded_rounds_are_not_nudged() {
    const CRASH: (u64, u64) = (400, 800);
    let scenario = delayed(1).crash_restart_amnesia(3, CRASH.0, CRASH.1);
    let rec = Arc::new(FlightRecorder::new(1 << 20));
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let stores = (0..rqs.universe_size())
        .map(|_| rqs_store::StoreHandle::mem())
        .collect();
    let mut sim = KvSim::with_setup_traced(
        rqs,
        OBJECTS,
        CLIENTS,
        scenario,
        rqs_sim::DEFAULT_TICK,
        stores,
        rec.clone(),
    );
    let cfg = WorkloadConfig::mixed(OBJECTS, CLIENTS, 3_000, 7);
    let stats = sim.run_workload(&workload::generate(&cfg), BATCH);
    assert_eq!(stats.ops, 3_000);
    sim.check_atomicity().unwrap();
    assert!(
        sim.now_ticks() > CRASH.1 + 200,
        "the run outlasts the crash"
    );
    let in_window = |tick: u64| (CRASH.0..CRASH.1).contains(&tick);
    let degraded = sim
        .completed()
        .iter()
        .filter(|(_, o)| o.rounds > 1 && in_window(o.invoked_at.ticks()))
        .count();
    assert!(degraded > 100, "the window must degrade ops: {degraded}");
    let nudged: Vec<_> = rec
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == TraceKind::RetryNudged && in_window(e.tick))
        .collect();
    assert!(nudged.is_empty(), "nudged inside the window: {nudged:?}");
}

/// (v) No budget, and no need for one: with a quorum gone for good the
/// stuck lanes keep being nudged at the capped interval, the driver's own
/// step budget ends the wait, and the dump says what the watchdog knew.
#[test]
fn an_unreachable_quorum_ends_at_the_drivers_budget_with_a_dump() {
    let started = std::time::Instant::now();
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut sim = KvSim::new(rqs, 4, 1);
    for server in 0..3 {
        sim.crash_server(server, CrashMode::Retain);
    }
    let client = rqs_sim::NodeId(5);
    let ops = vec![
        KvOp::Write {
            object: ObjectId(0),
            value: Value::from(1u64),
        },
        KvOp::Read {
            object: ObjectId(1),
        },
    ];
    let world = sim.substrate();
    world.invoke_on::<KvClient>(client, move |c, ctx| c.start_ops(ops, ctx));
    let done = world.await_on::<KvClient>(client, |c| c.in_flight() == 0, 20_000);
    assert!(!done, "two of five servers are no quorum");
    let now = world.now_ticks();
    let (lanes, nudges) = world.inspect_on::<KvClient, _>(client, move |c| {
        (c.stuck_lanes(now), c.retry_stats().retries_issued)
    });
    assert!(nudges > 10, "the lanes were being nudged: {nudges}");
    let watchdogs: Vec<_> = lanes.iter().filter(|l| l.contains("watchdog")).collect();
    assert_eq!(watchdogs.len(), 2, "{lanes:?}");
    for line in watchdogs {
        assert!(line.contains("next nudge in"), "{line}");
        assert!(line.contains("nudges"), "{line}");
    }
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
}
