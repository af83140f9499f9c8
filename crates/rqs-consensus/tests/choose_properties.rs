//! Property-based tests for `choose()` — the lemmas of Appendix B.
//!
//! The central one is **Lemma 28**: `choose()` never sets the abort flag
//! when the ack quorum contains only benign acceptors. We generate random
//! *reachable benign states* (states a set of benign acceptors can
//! actually be in: prepares are per-view unique across the quorum-backed
//! updates, `UpdateQ` entries are genuine quorum ids, etc.) and assert
//! no abort; we also assert the decided-value-protection lemmas (25–27)
//! on states where a decision happened.

use proptest::prelude::*;
use rqs_consensus::choose::ChooseInput;
use rqs_consensus::types::NewViewAckBody;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{ProcessId, ProcessSet, Rqs};
use std::collections::BTreeMap;

fn byz4() -> Rqs {
    ThresholdConfig::byzantine_fast(1).build().unwrap()
}

/// A benign global state of view 0: every acceptor prepared at most one
/// value; acceptors 1-update a value only when a full quorum prepared it.
/// Returns per-acceptor ack bodies.
fn benign_state(
    rqs: &Rqs,
    prep_assignment: &[Option<u64>], // per acceptor: prepared value in view 0
) -> BTreeMap<ProcessId, NewViewAckBody> {
    let n = rqs.universe_size();
    let mut acks = BTreeMap::new();
    for i in 0..n {
        let mut body = NewViewAckBody {
            view: 1,
            ..Default::default()
        };
        if let Some(v) = prep_assignment[i] {
            body.prep = Some(v);
            body.prep_view.insert(0);
            // The acceptor 1-updates v iff some quorum all prepared v
            // (those acceptors sent update1⟨v,0⟩).
            let preparers: ProcessSet = (0..n)
                .filter(|&j| prep_assignment[j] == Some(v))
                .map(ProcessId)
                .collect();
            if let Some(q) = rqs.quorums_within(preparers).next() {
                body.update[0] = Some(v);
                body.update_view[0].insert(0);
                body.update_q[0].entry(0).or_default().insert(q);
            }
        }
        acks.insert(ProcessId(i), body);
    }
    acks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 28: all-benign quorums never make choose() abort.
    #[test]
    fn choose_never_aborts_on_benign_quorums(
        preps in prop::collection::vec(prop::option::of(1u64..4), 4),
        default in 10u64..20,
    ) {
        let rqs = byz4();
        let all = benign_state(&rqs, &preps);
        for &q in rqs.all_ids() {
            let members = rqs.quorum(q);
            let acks: BTreeMap<ProcessId, NewViewAckBody> = members
                .iter()
                .map(|p| (p, all[&p].clone()))
                .collect();
            let input = ChooseInput { rqs: &rqs, q, acks: &acks };
            let out = input.choose(default);
            prop_assert!(!out.abort, "benign quorum {members} aborted: {preps:?}");
        }
    }

    /// Lemmas 25–27 shape: if a value was decided via the class-1 rule
    /// (every member of a class-1 quorum prepared it), choose() over any
    /// benign quorum returns that value.
    #[test]
    fn choose_protects_class1_decisions(
        noise in prop::option::of(1u64..3),
        default in 10u64..20,
    ) {
        let rqs = byz4();
        // Class-1 quorum = the full universe for byzantine_fast(1): a
        // class-1 decision on 7 means everyone prepared 7; `noise` tries
        // to sneak a different value into… nothing — all must prepare 7.
        // Use the graded system instead for a proper class-1 ⊂ universe.
        let graded = ThresholdConfig::new(7, 2, 1)
            .with_class1(1)
            .with_class2(2)
            .build();
        let rqs = match graded { Ok(g) => g, Err(_) => rqs };
        let n = rqs.universe_size();
        let q1 = rqs.quorum(rqs.class1_ids()[0]);
        let mut preps: Vec<Option<u64>> = vec![None; n];
        for p in q1.iter() {
            preps[p.index()] = Some(7);
        }
        // Remaining acceptors may have prepared a noise value (a benign
        // race in the initial view).
        for p in preps.iter_mut() {
            if p.is_none() {
                *p = noise;
            }
        }
        let all = benign_state(&rqs, &preps);
        for &q in rqs.all_ids() {
            let members = rqs.quorum(q);
            let acks: BTreeMap<ProcessId, NewViewAckBody> = members
                .iter()
                .map(|p| (p, all[&p].clone()))
                .collect();
            let input = ChooseInput { rqs: &rqs, q, acks: &acks };
            let out = input.choose(default);
            prop_assert!(!out.abort, "benign quorum aborted");
            prop_assert_eq!(
                out.value, 7,
                "class-1-decided value must be protected (quorum {})", members
            );
        }
    }

    /// choose() output is deterministic and always a mentioned value or
    /// the default.
    #[test]
    fn choose_returns_mentioned_or_default(
        preps in prop::collection::vec(prop::option::of(1u64..5), 4),
        default in 100u64..110,
    ) {
        let rqs = byz4();
        let all = benign_state(&rqs, &preps);
        let q = rqs.all_ids()[0];
        let members = rqs.quorum(q);
        let acks: BTreeMap<ProcessId, NewViewAckBody> = members
            .iter()
            .map(|p| (p, all[&p].clone()))
            .collect();
        let input = ChooseInput { rqs: &rqs, q, acks: &acks };
        let out1 = input.choose(default);
        let out2 = input.choose(default);
        prop_assert_eq!(out1, out2, "deterministic");
        let mentioned: Vec<u64> = members
            .iter()
            .filter_map(|p| acks[&p].prep)
            .collect();
        prop_assert!(
            out1.value == default || mentioned.contains(&out1.value),
            "value {} neither default nor mentioned {mentioned:?}", out1.value
        );
    }
}

/// A decided value via the update2 path (Cand4) outranks everything at
/// the same view.
#[test]
fn two_updated_value_protected() {
    let rqs = byz4();
    let n = rqs.universe_size();
    // Everyone prepared and fully updated value 5 in view 0.
    let mut acks = BTreeMap::new();
    for i in 0..n {
        let mut body = NewViewAckBody {
            view: 1,
            ..Default::default()
        };
        body.prep = Some(5);
        body.prep_view.insert(0);
        body.update = [Some(5), Some(5)];
        body.update_view[0].insert(0);
        body.update_view[1].insert(0);
        let q = rqs.all_ids()[0];
        body.update_q[0].entry(0).or_default().insert(q);
        body.update_q[1].entry(0).or_default().insert(q);
        acks.insert(ProcessId(i), body);
    }
    for &q in rqs.all_ids() {
        let members = rqs.quorum(q);
        let subset: BTreeMap<ProcessId, NewViewAckBody> =
            members.iter().map(|p| (p, acks[&p].clone())).collect();
        let input = ChooseInput {
            rqs: &rqs,
            q,
            acks: &subset,
        };
        let out = input.choose(99);
        assert!(!out.abort);
        assert_eq!(out.value, 5);
    }
}

/// Higher-view preparations dominate lower-view updates (the `viewmax`
/// logic of Fig. 13 line 12).
#[test]
fn higher_view_dominates() {
    let rqs = byz4();
    let n = rqs.universe_size();
    let mut acks = BTreeMap::new();
    for i in 0..n {
        let mut body = NewViewAckBody {
            view: 3,
            ..Default::default()
        };
        // Old: fully updated 5 in view 0.
        body.update[1] = Some(5);
        body.update_view[1].insert(0);
        // New: prepared 8 in view 2.
        body.prep = Some(8);
        body.prep_view.insert(2);
        acks.insert(ProcessId(i), body);
    }
    let q = rqs.all_ids()[0];
    let members = rqs.quorum(q);
    let subset: BTreeMap<ProcessId, NewViewAckBody> =
        members.iter().map(|p| (p, acks[&p].clone())).collect();
    let input = ChooseInput {
        rqs: &rqs,
        q,
        acks: &subset,
    };
    let out = input.choose(99);
    assert!(!out.abort);
    assert_eq!(out.value, 8, "view 2 beats view 0");
}
