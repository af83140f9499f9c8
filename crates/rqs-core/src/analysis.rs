//! Quantitative analysis of refined quorum systems.
//!
//! The paper's concluding remarks (§6) list open directions: the *load* and
//! *availability* of RQS in the sense of Naor & Wool \[44\], and counting the
//! RQS admitted by a given adversary. This module provides the measurement
//! machinery for experiment **E10**:
//!
//! - [`load`] — the Naor–Wool load of a quorum family under a best
//!   (uniform-over-quorums approximated) access strategy;
//! - [`availability`] — probability that some quorum (of each class)
//!   survives independent process failures with probability `p`;
//! - [`count_class_assignments`] — for a fixed quorum family, how many
//!   `(QC1, QC2)` class assignments satisfy Properties 2–3;
//! - [`find_maximal_classes`] — the greedy-maximal class assignment for a
//!   quorum family, used to auto-refine plain quorum systems.

use crate::adversary::Adversary;
use crate::process::{ProcessId, ProcessSet};
use crate::rqs::{Rqs, RqsViolation};

/// The load of a quorum family: the minimax access probability of the
/// busiest process (Naor–Wool).
///
/// Computing the exact load is an LP; we approximate with the standard
/// uniform strategy over a *balanced* sub-family (all quorums), which is
/// exact for symmetric (threshold) systems: every process then carries
/// `(Σ_Q |Q ∋ p|) / |family|`, and the load is the maximum over processes.
///
/// Returns a value in `(0, 1]`; lower is better.
///
/// # Panics
///
/// Panics if `quorums` is empty or `n == 0`.
pub fn load(quorums: &[ProcessSet], n: usize) -> f64 {
    assert!(!quorums.is_empty(), "load of an empty family is undefined");
    assert!(n > 0);
    let mut hits = vec![0usize; n];
    for q in quorums {
        for p in q.iter() {
            hits[p.index()] += 1;
        }
    }
    let max_hits = hits.into_iter().max().unwrap_or(0);
    max_hits as f64 / quorums.len() as f64
}

/// Availability of a quorum family: the probability that at least one
/// quorum contains only alive processes when each process fails
/// independently with probability `p_fail`.
///
/// Exact computation by inclusion-exclusion is exponential; we compute
/// exactly for `n ≤ 20` by enumerating failure patterns weighted by
/// probability, and panic above that.
///
/// # Panics
///
/// Panics if `n > 20` or `p_fail ∉ [0, 1]`.
pub fn availability(quorums: &[ProcessSet], n: usize, p_fail: f64) -> f64 {
    assert!(n <= 20, "exact availability limited to n <= 20");
    assert!((0.0..=1.0).contains(&p_fail), "p_fail must be in [0,1]");
    let mut total = 0.0;
    for pattern in 0u32..(1u32 << n) {
        let failed = ProcessSet::from_bits(pattern as u128);
        let alive_ok = quorums.iter().any(|q| q.is_disjoint(failed));
        if alive_ok {
            let f = failed.len() as i32;
            total += p_fail.powi(f) * (1.0 - p_fail).powi(n as i32 - f);
        }
    }
    total
}

/// Availability restricted to quorums of a given class in an [`Rqs`]:
/// probability that a fully-correct quorum of that class (or better)
/// exists — i.e. the probability of achieving the corresponding best-case
/// latency.
pub fn class_availability(rqs: &Rqs, class: crate::rqs::QuorumClass, p_fail: f64) -> f64 {
    let quorums: Vec<ProcessSet> = rqs
        .all_ids()
        .iter()
        .filter(|&&id| rqs.class_of(id) <= class)
        .map(|&id| rqs.quorum(id))
        .collect();
    if quorums.is_empty() {
        return 0.0;
    }
    availability(&quorums, rqs.universe_size(), p_fail)
}

/// Counts `(QC1, QC2)` class assignments over a fixed quorum family that
/// yield a valid RQS (Properties 1–3), addressing the paper's "how many
/// RQS can be found given some adversary structure" question for a fixed
/// family.
///
/// Assignments are generated by choosing, for each quorum, one of
/// {class 3, class 2, class 1}; the count is over assignments whose
/// induced system verifies. Exponential in `quorums.len()`; keep the
/// family ≤ ~12 quorums.
///
/// # Errors
///
/// Returns the Property-1 violation if the base family is not a quorum
/// system at all (no assignment can fix Property 1).
pub fn count_class_assignments(
    adversary: &Adversary,
    quorums: &[ProcessSet],
) -> Result<ClassAssignmentCount, RqsViolation> {
    let base = Rqs::new_unchecked(adversary.clone(), quorums.to_vec(), vec![], vec![])?;
    base.check_property1()?;

    let m = quorums.len();
    assert!(m <= 12, "assignment enumeration limited to 12 quorums");
    let mut count = ClassAssignmentCount::default();
    // Each quorum gets a trit: 0 = class 3, 1 = class 2, 2 = class 1.
    let total = 3usize.pow(m as u32);
    for code in 0..total {
        let mut c = code;
        let mut class1 = Vec::new();
        let mut class2 = Vec::new();
        for i in 0..m {
            match c % 3 {
                1 => class2.push(i),
                2 => {
                    class1.push(i);
                    class2.push(i);
                }
                _ => {}
            }
            c /= 3;
        }
        let has_c1 = !class1.is_empty();
        let has_c2_only = class2.len() > class1.len();
        let rqs = Rqs::new_unchecked(adversary.clone(), quorums.to_vec(), class1, class2)
            .expect("structurally valid");
        if rqs.verify().is_ok() {
            count.total += 1;
            if has_c1 {
                count.with_class1 += 1;
            }
            if has_c1 && has_c2_only {
                count.fully_refined += 1;
            }
        }
    }
    Ok(count)
}

/// Result of [`count_class_assignments`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClassAssignmentCount {
    /// All valid assignments (including the trivial all-class-3 one).
    pub total: usize,
    /// Assignments with at least one class-1 quorum.
    pub with_class1: usize,
    /// Assignments with `∅ ≠ QC1 ≠ QC2` (the paper's "even more
    /// interesting" Example 6 shape).
    pub fully_refined: usize,
}

/// Greedily upgrades quorums of a plain family to the strongest classes
/// that keep the system a valid RQS, preferring earlier quorums.
///
/// Returns the refined system. The greedy result is maximal (no single
/// further upgrade is valid) but not necessarily maximum.
///
/// # Errors
///
/// Returns the violation if the base family fails Property 1.
pub fn find_maximal_classes(
    adversary: &Adversary,
    quorums: &[ProcessSet],
) -> Result<Rqs, RqsViolation> {
    let base = Rqs::new_unchecked(adversary.clone(), quorums.to_vec(), vec![], vec![])?;
    base.check_property1()?;

    let m = quorums.len();
    let mut class1: Vec<usize> = Vec::new();
    let mut class2: Vec<usize> = Vec::new();
    // Pass 1: try upgrading each quorum to class 1.
    for i in 0..m {
        let mut c1 = class1.clone();
        c1.push(i);
        let candidate = Rqs::new_unchecked(
            adversary.clone(),
            quorums.to_vec(),
            c1.clone(),
            class2.clone(),
        )?;
        if candidate.verify().is_ok() {
            class1 = c1;
        }
    }
    // Pass 2: try upgrading the rest to class 2.
    for i in 0..m {
        if class1.contains(&i) {
            continue;
        }
        let mut c2 = class2.clone();
        c2.push(i);
        let candidate = Rqs::new_unchecked(
            adversary.clone(),
            quorums.to_vec(),
            class1.clone(),
            c2.clone(),
        )?;
        if candidate.verify().is_ok() {
            class2 = c2;
        }
    }
    Rqs::new_unchecked(adversary.clone(), quorums.to_vec(), class1, class2)
}

/// Per-process access counts for a family — the raw data behind [`load`].
pub fn access_profile(quorums: &[ProcessSet], n: usize) -> Vec<(ProcessId, usize)> {
    let mut hits = vec![0usize; n];
    for q in quorums {
        for p in q.iter() {
            hits[p.index()] += 1;
        }
    }
    hits.into_iter()
        .enumerate()
        .map(|(i, h)| (ProcessId(i), h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rqs::QuorumClass;
    use crate::threshold::ThresholdConfig;

    #[test]
    fn load_of_majorities() {
        let rqs = ThresholdConfig::classic_crash(5).build().unwrap();
        let l = load(rqs.quorums(), 5);
        // Symmetric system: every process appears in C(4,2) = 6 of the 10
        // quorums → load = 0.6.
        assert!((l - 0.6).abs() < 1e-9, "load = {l}");
    }

    #[test]
    fn load_of_singleton_family() {
        let l = load(&[ProcessSet::from_indices([0, 1])], 4);
        assert!((l - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty family")]
    fn load_empty_panics() {
        let _ = load(&[], 3);
    }

    #[test]
    fn availability_extremes() {
        let rqs = ThresholdConfig::classic_crash(5).build().unwrap();
        assert!((availability(rqs.quorums(), 5, 0.0) - 1.0).abs() < 1e-12);
        assert!(availability(rqs.quorums(), 5, 1.0) < 1e-12);
    }

    #[test]
    fn availability_monotone_in_p() {
        let rqs = ThresholdConfig::classic_crash(7).build().unwrap();
        let mut last = 1.0;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let a = availability(rqs.quorums(), 7, p);
            assert!(a <= last + 1e-12, "availability must be non-increasing");
            last = a;
        }
    }

    #[test]
    fn majority_availability_formula() {
        // n=3 majorities: available iff ≤1 failure.
        let rqs = ThresholdConfig::classic_crash(3).build().unwrap();
        let p: f64 = 0.2;
        let expect = (1.0 - p).powi(3) + 3.0 * p * (1.0 - p) * (1.0 - p);
        let got = availability(rqs.quorums(), 3, p);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn class_availability_ordering() {
        // Fast classes need more processes alive, so their availability is
        // lower.
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let p = 0.15;
        let a1 = class_availability(&rqs, QuorumClass::Class1, p);
        let a3 = class_availability(&rqs, QuorumClass::Class3, p);
        assert!(a1 <= a3 + 1e-12, "class1 {a1} <= class3 {a3}");
        assert!(a3 > 0.9);
    }

    #[test]
    fn count_assignments_figure3_family() {
        let b = Adversary::threshold(8, 1);
        let quorums = vec![
            ProcessSet::from_indices([4, 5, 6, 7]),
            ProcessSet::from_indices([0, 1, 2, 3, 6, 7]),
            ProcessSet::from_indices([2, 3, 4, 5, 6]),
            ProcessSet::from_indices([0, 1, 2, 4, 5]),
        ];
        let c = count_class_assignments(&b, &quorums).unwrap();
        // The all-class-3 assignment is always valid; the paper's Figure 3
        // assignment must be among the fully refined ones.
        assert!(c.total >= 2);
        assert!(c.fully_refined >= 1);
        assert!(c.with_class1 >= c.fully_refined);
    }

    #[test]
    fn count_assignments_rejects_non_quorum_system() {
        let b = Adversary::threshold(4, 1);
        let quorums = vec![
            ProcessSet::from_indices([0, 1]),
            ProcessSet::from_indices([2, 3]),
        ];
        assert!(count_class_assignments(&b, &quorums).is_err());
    }

    #[test]
    fn greedy_refinement_crash_majorities() {
        // For 5-process majorities with B = {∅}: Property 2 needs
        // |Q1 ∩ Q1' ∩ Q| ≥ 1 for class-1 upgrades — 3-sets {0,1,2} and
        // {2,3,4} intersect a third in possibly ∅, so not all can be
        // class 1; the greedy pass should still find some refinement.
        let base = ThresholdConfig::classic_crash(5).build().unwrap();
        let refined = find_maximal_classes(base.adversary(), base.quorums()).unwrap();
        assert!(refined.verify().is_ok());
        // With B = {∅} Property 3 is implied, so all quorums can be class 2.
        assert_eq!(refined.class2_ids().len(), refined.len());
    }

    #[test]
    fn access_profile_sums() {
        let rqs = ThresholdConfig::classic_crash(5).build().unwrap();
        let prof = access_profile(rqs.quorums(), 5);
        let total: usize = prof.iter().map(|(_, h)| h).sum();
        assert_eq!(total, 10 * 3); // 10 quorums × 3 members
    }
}
