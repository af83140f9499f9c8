//! Randomized cross-crate consensus tests: Agreement and Validity must
//! hold under crashes, contention, random delays, and equivocating
//! Byzantine acceptors; Termination must hold whenever a correct quorum
//! exists and synchrony returns.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqs::consensus::byzantine::ScriptedAcceptor;
use rqs::consensus::{ConsensusHarness, ConsensusMsg};
use rqs::{ProcessSet, ThresholdConfig};
use rqs_sim::{Envelope, Fate};

fn graded() -> rqs::Rqs {
    ThresholdConfig::new(7, 2, 1)
        .with_class1(0)
        .with_class2(1)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn agreement_under_random_crashes(seed in 0u64..1000, crashes in 0usize..3) {
        let rqs = graded();
        let n = rqs.universe_size();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = ConsensusHarness::new(rqs, 2, 2);
        let mut faulty = ProcessSet::empty();
        while faulty.len() < crashes {
            faulty.insert(rqs_core::ProcessId(rng.gen_range(0..n)));
        }
        h.crash_acceptors(faulty);
        h.propose(0, 7);
        prop_assert!(h.run_until_learned(600_000));
        prop_assert_eq!(h.agreed_value(), Some(7));
    }

    #[test]
    fn contention_agreement_and_validity(seed in 0u64..1000) {
        // Two proposers race with different values under a randomly
        // perturbed network; all learners must agree on one of them.
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 2, 2);
        let mut delay_rng = StdRng::seed_from_u64(seed);
        let mut delays = Vec::new();
        for _ in 0..4096 {
            delays.push(delay_rng.gen_range(1u64..=3));
        }
        let mut i = 0usize;
        h.world_mut().set_policy(move |_e: &Envelope<ConsensusMsg>| {
            i = (i + 1) % delays.len();
            Fate::Deliver { delay: delays[i] }
        });
        h.propose(0, 1);
        h.propose(1, 2);
        prop_assert!(h.run_until_learned(1_500_000), "contention must terminate");
        let v = h.agreed_value().expect("agreement");
        prop_assert!(v == 1 || v == 2, "validity: {v}");
    }
}

#[test]
fn equivocating_acceptor_cannot_split_learners() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = ConsensusHarness::new(rqs, 2, 2);
    let cfg = h.config();
    let half_a: Vec<_> = cfg.acceptors[..2]
        .iter()
        .chain(&cfg.learners[..1])
        .copied()
        .collect();
    let half_b: Vec<_> = cfg.acceptors[2..]
        .iter()
        .chain(&cfg.learners[1..])
        .copied()
        .collect();
    h.make_byzantine(
        3,
        Box::new(ScriptedAcceptor::equivocating_update1(half_a, 1, half_b, 2)),
    );
    h.propose(0, 1);
    assert!(h.run_until_learned(800_000));
    assert_eq!(h.agreed_value(), Some(1), "equivocation must not split");
}

#[test]
fn silent_acceptor_degrades_but_agrees() {
    use rqs::consensus::byzantine::SilentAcceptor;
    let rqs = graded();
    let mut h = ConsensusHarness::new(rqs, 2, 2);
    h.make_byzantine(6, Box::new(SilentAcceptor));
    h.propose(0, 9);
    assert!(h.run_until_learned(600_000));
    assert_eq!(h.agreed_value(), Some(9));
    // A silent acceptor is indistinguishable from a crashed one: the
    // class-1 (full-universe) path is gone, so ≥ 3 delays.
    let d = h.learner_delays().into_iter().flatten().max().unwrap();
    assert!(d >= 3, "silent acceptor must cost the fast path, got {d}");
}

#[test]
fn late_learner_catches_up_via_decision_pull() {
    // A learner cut off during the decision catches up through the
    // decision_pull loop (Fig. 15 lines 101–103).
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = ConsensusHarness::new(rqs, 1, 2);
    let blocked = h.config().learners[1];
    let release_at = rqs_sim::Time(6);
    h.world_mut().set_policy(move |e: &Envelope<ConsensusMsg>| {
        // Everything to learner 1 is lost until t = 6 (after the others
        // decided); afterwards the network heals.
        if e.to == blocked && e.sent_at < release_at {
            Fate::Drop
        } else {
            Fate::Deliver { delay: 1 }
        }
    });
    h.propose(0, 4);
    assert!(h.run_until_learned(800_000));
    assert_eq!(h.agreed_value(), Some(4));
    let delays = h.learner_delays();
    assert_eq!(delays[0], Some(2), "unblocked learner is fast");
    assert!(delays[1].unwrap() > 2, "blocked learner catches up later");
}

#[test]
fn acceptors_converge_on_decision_broadcast() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut h = ConsensusHarness::new(rqs, 1, 1);
    h.propose(0, 11);
    assert!(h.run_until_learned(400_000));
    h.world_mut().run_to_quiescence_bounded(2_000_000);
    for i in 0..4 {
        assert_eq!(h.acceptor_decided(i), Some(11), "acceptor {i}");
    }
}
