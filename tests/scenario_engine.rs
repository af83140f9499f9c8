//! The acceptance gate for the scenario engine: the canonical fault
//! scenarios — partition+heal, lossy/duplicating links, crash+restart,
//! and crash+restart over delayed links — each complete a seeded KV
//! workload with per-object atomicity on **both** substrates, from one
//! declarative description.

use rqs::core::threshold::ThresholdConfig;
use rqs::kv::{workload, KvBatch, KvDeployment, KvRunStats, WorkloadConfig};
use rqs::sim::{LinkEffect, LinkRule, Scenario, Substrate, World};
use std::time::Duration;

/// The canonical scenarios, sized for the n = 4 `byzantine_fast(1)`
/// universe (t = 1: at most one server cut/lossy/crashed, so a correct
/// quorum always stays connected and no run can stall). The last puts
/// all three kinds of "later" on the runtime's agenda at once: delayed
/// messages, timers, and a crash plan.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::named("partition+heal").partition(vec![3], 0, 30),
        Scenario::named("lossy+duplicating")
            .lossy_towards(vec![3], 4)
            .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 })),
        Scenario::named("crash+restart").crash_restart(0, 10, 60),
        Scenario::named("delay+crash+restart")
            .link(LinkRule::every(LinkEffect::Delay(2)))
            .crash_restart(0, 10, 60),
    ]
}

fn run_scenario_on<S: Substrate<KvBatch>>(scenario: Scenario, seed: u64) -> KvRunStats {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let name = scenario.name.clone();
    let mut kv = KvDeployment::<S>::with_setup(rqs, 8, 2, scenario, Duration::from_millis(1));
    let cfg = WorkloadConfig::mixed(8, 2, 48, seed);
    let stats = kv.run_workload(&workload::generate(&cfg), 4);
    assert_eq!(
        stats.ops,
        48,
        "scenario {name:?} must complete every op on {}",
        S::NAME
    );
    kv.check_atomicity()
        .unwrap_or_else(|v| panic!("scenario {name:?} violated atomicity on {}: {v}", S::NAME));
    kv.shutdown();
    stats
}

#[test]
fn all_scenarios_green_on_the_simulator() {
    for scenario in scenarios() {
        run_scenario_on::<World<KvBatch>>(scenario, 17);
    }
}

#[test]
fn all_scenarios_green_on_the_threaded_runtime() {
    for scenario in scenarios() {
        run_scenario_on::<rqs::runtime::Runtime<KvBatch>>(scenario, 17);
    }
}

#[test]
fn scenario_runs_are_deterministic_on_the_simulator() {
    let trace = |seed| {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut kv = KvDeployment::<World<KvBatch>>::with_scenario(
            rqs,
            8,
            2,
            scenarios().remove(1), // the lossy+duplicating one
        );
        let cfg = WorkloadConfig::mixed(8, 2, 48, seed);
        kv.run_workload(&workload::generate(&cfg), 4);
        kv.op_trace()
    };
    assert_eq!(
        trace(5),
        trace(5),
        "same seed + same scenario → byte-identical trace"
    );
    assert_ne!(trace(5), trace(6));
}
