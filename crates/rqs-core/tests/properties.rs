//! Property-based tests for the core RQS abstractions.

use proptest::prelude::*;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::{Adversary, ProcessId, ProcessSet, Rqs};

/// Strategy for a ProcessSet within a universe of n processes.
fn pset(n: usize) -> impl Strategy<Value = ProcessSet> {
    prop::bits::u64::between(0, n).prop_map(|b| ProcessSet::from_bits(b as u128))
}

proptest! {
    // --- ProcessSet algebra laws -------------------------------------

    #[test]
    fn union_commutative(a in pset(16), b in pset(16)) {
        prop_assert_eq!(a.union(b), b.union(a));
    }

    #[test]
    fn intersection_commutative(a in pset(16), b in pset(16)) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
    }

    #[test]
    fn union_associative(a in pset(16), b in pset(16), c in pset(16)) {
        prop_assert_eq!(a.union(b).union(c), a.union(b.union(c)));
    }

    #[test]
    fn de_morgan(a in pset(16), b in pset(16)) {
        let n = 16;
        prop_assert_eq!(
            a.union(b).complement(n),
            a.complement(n).intersection(b.complement(n))
        );
    }

    #[test]
    fn difference_is_intersection_with_complement(a in pset(16), b in pset(16)) {
        prop_assert_eq!(a.difference(b), a.intersection(b.complement(16)));
    }

    #[test]
    fn distributivity(a in pset(16), b in pset(16), c in pset(16)) {
        prop_assert_eq!(
            a.intersection(b.union(c)),
            a.intersection(b).union(a.intersection(c))
        );
    }

    #[test]
    fn subset_antisymmetric(a in pset(16), b in pset(16)) {
        if a.is_subset_of(b) && b.is_subset_of(a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn len_inclusion_exclusion(a in pset(16), b in pset(16)) {
        prop_assert_eq!(
            a.union(b).len() + a.intersection(b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn iter_roundtrip(a in pset(20)) {
        let rebuilt: ProcessSet = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
        prop_assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn insert_remove_inverse(a in pset(16), idx in 0usize..16) {
        let p = ProcessId(idx);
        let mut s = a;
        s.insert(p);
        prop_assert!(s.contains(p));
        s.remove(p);
        prop_assert!(!s.contains(p));
        prop_assert_eq!(s, a.difference(ProcessSet::singleton(p)));
    }

    // --- Adversary structure laws ------------------------------------

    #[test]
    fn threshold_downward_closed(n in 3usize..10, seed in pset(16)) {
        let k = n / 3;
        let b = Adversary::threshold(n, k);
        let set = seed.intersection(ProcessSet::universe(n));
        if b.contains(set) {
            // every subset also a member
            for p in set.iter() {
                let mut smaller = set;
                smaller.remove(p);
                prop_assert!(b.contains(smaller));
            }
        }
    }

    #[test]
    fn general_downward_closed(m1 in pset(8), m2 in pset(8), probe in pset(8)) {
        let b = Adversary::general(8, [m1, m2]).unwrap();
        if b.contains(probe) {
            for p in probe.iter() {
                let mut smaller = probe;
                smaller.remove(p);
                prop_assert!(b.contains(smaller), "closure violated at {smaller}");
            }
        }
    }

    #[test]
    fn large_implies_basic(m1 in pset(8), m2 in pset(8), probe in pset(8)) {
        let b = Adversary::general(8, [m1, m2]).unwrap();
        if b.is_large(probe) {
            prop_assert!(b.is_basic(probe), "large ⇒ basic");
        }
    }

    #[test]
    fn large_minus_element_is_basic(m1 in pset(8), m2 in pset(8), probe in pset(8)) {
        // Lemma 2: for any large T2 and any adversary element B,
        // T2 \ B is basic.
        let b = Adversary::general(8, [m1, m2]).unwrap();
        if b.is_large(probe) {
            for elem in b.maximal_elements() {
                prop_assert!(b.is_basic(probe.difference(elem)));
            }
        }
    }

    #[test]
    fn minimal_basic_subset_is_basic_and_minimal(
        m1 in pset(8), m2 in pset(8), probe in pset(8)
    ) {
        let b = Adversary::general(8, [m1, m2]).unwrap();
        if let Some(min) = b.minimal_basic_subset(probe) {
            prop_assert!(b.is_basic(min));
            prop_assert!(min.is_subset_of(probe));
            // minimality: removing any single member breaks basicness
            for p in min.iter() {
                let mut smaller = min;
                smaller.remove(p);
                prop_assert!(!b.is_basic(smaller));
            }
        } else {
            prop_assert!(b.contains(probe));
        }
    }

    // --- Threshold feasibility vs. full verification -----------------

    #[test]
    fn threshold_feasibility_equals_verification(
        n in 3usize..9,
        t_raw in 1usize..4,
        k_raw in 0usize..3,
        q_raw in 0usize..4,
        r_raw in 0usize..4,
    ) {
        let t = t_raw.min(n - 1);
        let k = k_raw.min(n);
        let q = q_raw.min(t);
        let r = q.max(r_raw.min(t));
        let cfg = ThresholdConfig::new(n, t, k).with_class1(q).with_class2(r);
        let built = cfg.build_unchecked().unwrap();
        prop_assert_eq!(
            built.verify().is_ok(),
            cfg.is_feasible(),
            "closed form disagrees with verification at {}", cfg
        );
    }

    #[test]
    fn verified_rqs_has_pairwise_basic_intersections(
        n in 4usize..9,
        k in 0usize..2,
    ) {
        let t = (n - 1) / (if k == 0 { 2 } else { 3 }).max(2);
        if n > 2 * t + k && t >= 1 {
            let cfg = ThresholdConfig::new(n, t, k);
            if let Ok(rqs) = cfg.build() {
                let adv = rqs.adversary().clone();
                for &a in rqs.quorums() {
                    for &b in rqs.quorums() {
                        prop_assert!(adv.is_basic(a.intersection(b)));
                    }
                }
            }
        }
    }

    // --- Rqs invariants -----------------------------------------------

    #[test]
    fn class1_always_subset_of_class2(
        c1 in prop::collection::vec(0usize..5, 0..3),
        c2 in prop::collection::vec(0usize..5, 0..3),
    ) {
        // Build over crash-only majorities of 5 (always Property-1-valid).
        let cfg = ThresholdConfig::classic_crash(5);
        let quorums = cfg.build().unwrap().quorums().to_vec();
        let adversary = Adversary::crash_only(5);
        if let Ok(rqs) = Rqs::new_unchecked(adversary, quorums, c1, c2) {
            let ids1 = rqs.class1_ids();
            let ids2 = rqs.class2_ids();
            for id in ids1 {
                prop_assert!(ids2.contains(id), "QC1 ⊆ QC2 invariant");
            }
        }
    }

    #[test]
    fn best_available_class_monotone_in_faults(
        faulty_small in pset(8),
        extra in pset(8),
    ) {
        let rqs = ThresholdConfig::new(8, 2, 1)
            .with_class1(0)
            .with_class2(1)
            .build()
            .unwrap();
        let small = faulty_small.intersection(ProcessSet::universe(8));
        let big = small.union(extra.intersection(ProcessSet::universe(8)));
        let c_small = rqs.best_available_class(small);
        let c_big = rqs.best_available_class(big);
        // More faults can only weaken the best class (or kill liveness).
        match (c_small, c_big) {
            (None, Some(_)) => prop_assert!(false, "faults cannot improve availability"),
            (Some(a), Some(b)) => prop_assert!(a <= b),
            _ => {}
        }
    }
}
