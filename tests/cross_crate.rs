//! Cross-crate integration: the facade API, the threaded runtime, and a
//! combined consensus-then-storage scenario.

use rqs::consensus::{ConsensusDeployment, ConsensusHarness, ConsensusMsg};
use rqs::runtime::Runtime;
use rqs::sim::Scenario;
use rqs::storage::{StorageDeployment, StorageHarness, StorageMsg, Value};
use rqs::{Adversary, ProcessSet, QuorumClass, Rqs, ThresholdConfig};
use std::time::{Duration, Instant};

/// The threaded runtime's tick in these tests.
const TICK: Duration = Duration::from_micros(500);

fn threaded_storage(rqs: Rqs, readers: usize) -> StorageDeployment<Runtime<StorageMsg>> {
    StorageDeployment::with_setup(rqs, readers, Scenario::default(), TICK)
}

#[test]
fn all_six_facade_modules_resolve() {
    // One item from each re-exported workspace member, referenced through
    // its facade path — this is the workspace-wiring smoke test: if a
    // member drops out of the facade, this fails to compile.
    let _core: rqs::core::ProcessSet = rqs::core::ProcessSet::from_indices([0, 1]);
    let _sim: rqs::sim::Time = rqs::sim::Time(0);
    let crypto = rqs::crypto::KeyRegistry::new(4, 7);
    assert_eq!(crypto.len(), 4);
    let _storage: rqs::storage::Value = rqs::storage::Value::bottom();
    let _consensus = rqs::consensus::ConsensusHarness::new(
        rqs::ThresholdConfig::byzantine_fast(1).build().unwrap(),
        1,
        1,
    );
    assert!(rqs::runtime::DEFAULT_TICK > Duration::ZERO);
}

#[test]
fn byzantine_fast_roundtrips_through_storage_and_consensus() {
    // The flagship n = 3t+1 system must round-trip through both
    // protocol harnesses: a 1-round write/read pair that is atomic, and
    // a proposal every learner learns in the 2-delay fast path.
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();

    let mut storage = StorageHarness::new(rqs.clone(), 1);
    let w = storage.write(Value::from("rqs"));
    assert_eq!(w.rounds, 1);
    let r = storage.read(0);
    assert_eq!(r.returned.val, Value::from("rqs"));
    storage.check_atomicity().unwrap();

    let mut consensus = ConsensusHarness::new(rqs, 2, 2);
    consensus.propose(0, 42);
    assert!(consensus.run_until_learned(100_000));
    assert_eq!(consensus.agreed_value(), Some(42));
    assert!(consensus.learner_delays().iter().all(|d| *d == Some(2)));
}

#[test]
fn facade_reexports_are_usable() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    assert_eq!(rqs.universe_size(), 4);
    assert_eq!(
        rqs.best_available_class(ProcessSet::empty()),
        Some(QuorumClass::Class1)
    );
    let adv = Adversary::threshold(4, 1);
    assert!(adv.is_basic(ProcessSet::from_indices([0, 1])));
}

#[test]
fn agree_on_config_then_store() {
    // A control plane agrees (via consensus) which replication factor to
    // use, then the data plane runs storage over the agreed system — the
    // "state machine replication + storage" shape of the paper's intro.
    let control = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut consensus = ConsensusHarness::new(control, 2, 2);
    consensus.propose(0, 7); // propose: use 7 servers
    assert!(consensus.run_until_learned(200_000));
    let n = consensus.agreed_value().unwrap() as usize;

    let data = ThresholdConfig::new(n, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .unwrap();
    let mut storage = StorageHarness::new(data, 1);
    storage.write(Value::from(123u64));
    let r = storage.read(0);
    assert_eq!(r.returned.val, Value::from(123u64));
    storage.check_atomicity().unwrap();
}

#[test]
fn threaded_storage_many_ops() {
    let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
    let mut st = threaded_storage(rqs, 2);
    for v in 1..=5u64 {
        assert_eq!(st.write(Value::from(v)).rounds, 1);
        assert_eq!(st.read(0).returned.val, Value::from(v));
        assert_eq!(st.read(1).returned.val, Value::from(v));
    }
    // The generic driver checks atomicity on the runtime too.
    st.check_atomicity().unwrap();
    st.shutdown();
}

#[test]
fn threaded_consensus_agrees() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut cons: ConsensusDeployment<Runtime<ConsensusMsg>> =
        ConsensusDeployment::with_setup(rqs, 2, 2, Scenario::default(), TICK);
    let start = Instant::now();
    cons.propose(0, 42);
    assert!(cons.run_until_learned(0), "learners did not learn");
    let wall = start.elapsed();
    assert_eq!(cons.learned(0), Some(42));
    assert_eq!(cons.learned(1), Some(42));
    assert!(wall < Duration::from_secs(10));
    cons.shutdown();
}

#[test]
fn simulator_and_runtime_agree_on_rounds() {
    // The same protocol over the same RQS must report the same round
    // counts in both execution environments.
    let mk = || ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut sim = StorageHarness::new(mk(), 1);
    let sim_w = sim.write(Value::from(9u64)).rounds;
    let sim_r = sim.read(0).rounds;

    let mut rt = threaded_storage(mk(), 1);
    let rt_w = rt.write(Value::from(9u64)).rounds;
    let rt_r = rt.read(0).rounds;
    rt.shutdown();

    assert_eq!((sim_w, sim_r), (rt_w, rt_r));
}
