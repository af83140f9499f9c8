//! Classical Byzantine quorum systems (the paper's Example 4).
//!
//! A refined quorum system with `QC1 = QC2 = ∅` is a **dissemination**
//! quorum system in the sense of Malkhi–Reiter \[40\] (for self-verifying
//! data), and one with `QC1 = ∅, QC2 = RQS` is a **masking** quorum
//! system (for unauthenticated data). This module provides their
//! existence conditions and canonical constructions, for both threshold
//! and general adversaries:
//!
//! - dissemination systems exist iff the **Q3 condition** holds (no three
//!   adversary elements cover the universe); the canonical construction
//!   takes the complements of the maximal adversary elements as quorums;
//! - masking systems exist iff the **Q4 condition** holds (no four
//!   elements cover), same construction.
//!
//! Both fall out of the RQS framework: dissemination = Property 1 alone;
//! masking = Properties 1 and 3 with `QC2 = RQS` and empty `QC1`, in
//! which case `P3b` is unavailable and Property 3 *is* the
//! Malkhi–Reiter M-Consistency `∀Q,Q',B1,B2: (Q ∩ Q') \ B1 ⊄ B2`.

use crate::adversary::Adversary;
use crate::process::ProcessSet;
use crate::rqs::{Rqs, RqsViolation};
use core::fmt;

/// Failure to build a classical Byzantine quorum system.
#[derive(Clone, Debug)]
pub enum ClassicError {
    /// A consistency property failed (Q3/Q4 condition violated).
    Consistency(RqsViolation),
    /// No quorum avoids the given adversary element (availability fails:
    /// Malkhi-Reiter require a quorum disjoint from every `B ∈ B`).
    NotAvailable {
        /// The element no quorum avoids.
        b: ProcessSet,
    },
}

impl fmt::Display for ClassicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassicError::Consistency(v) => write!(f, "consistency: {v}"),
            ClassicError::NotAvailable { b } => {
                write!(f, "availability: no quorum avoids {b}")
            }
        }
    }
}

impl std::error::Error for ClassicError {}

impl From<RqsViolation> for ClassicError {
    fn from(v: RqsViolation) -> Self {
        ClassicError::Consistency(v)
    }
}

/// Checks Malkhi-Reiter availability: for every adversary element `B`,
/// some quorum is disjoint from `B`.
fn check_availability(rqs: &Rqs) -> Result<(), ClassicError> {
    for b in rqs.adversary().maximal_elements() {
        if !rqs.quorums().iter().any(|q| q.is_disjoint(b)) {
            return Err(ClassicError::NotAvailable { b });
        }
    }
    Ok(())
}

/// The `Q(m)` condition: no `m` adversary elements cover the universe.
///
/// `q_condition(b, 3)` is the dissemination existence condition,
/// `q_condition(b, 4)` the masking one (Malkhi–Reiter).
pub fn q_condition(adversary: &Adversary, m: usize) -> bool {
    let universe = adversary.universe();
    let maximal = adversary.maximal_elements();
    // Depth-first over m-tuples of maximal elements (with repetition —
    // covering with fewer distinct elements is covered by repetition).
    fn covers(
        maximal: &[ProcessSet],
        universe: ProcessSet,
        acc: ProcessSet,
        remaining: usize,
    ) -> bool {
        if acc.is_superset_of(universe) {
            return true;
        }
        if remaining == 0 {
            return false;
        }
        maximal
            .iter()
            .any(|&b| covers(maximal, universe, acc.union(b), remaining - 1))
    }
    !covers(&maximal, universe, ProcessSet::empty(), m)
}

/// Builds the canonical dissemination quorum system for a general
/// adversary: quorums are the complements of the maximal adversary
/// elements (`QC1 = QC2 = ∅`).
///
/// # Errors
///
/// Returns a consistency violation when the Q3 condition fails (the
/// complement construction is availability-complete by definition).
pub fn dissemination(adversary: &Adversary) -> Result<Rqs, ClassicError> {
    let n = adversary.universe_size();
    let quorums: Vec<ProcessSet> = adversary
        .maximal_elements()
        .into_iter()
        .map(|b| b.complement(n))
        .collect();
    let rqs = Rqs::new(adversary.clone(), quorums, vec![], vec![])?;
    check_availability(&rqs)?;
    Ok(rqs)
}

/// Builds the canonical masking quorum system for a general adversary:
/// complements of maximal elements, all class 2 (`QC1 = ∅`).
///
/// # Errors
///
/// Returns a consistency violation when the Q4 condition fails.
pub fn masking(adversary: &Adversary) -> Result<Rqs, ClassicError> {
    let n = adversary.universe_size();
    let quorums: Vec<ProcessSet> = adversary
        .maximal_elements()
        .into_iter()
        .map(|b| b.complement(n))
        .collect();
    let class2: Vec<usize> = (0..quorums.len()).collect();
    let rqs = Rqs::new(adversary.clone(), quorums, vec![], class2)?;
    check_availability(&rqs)?;
    Ok(rqs)
}

/// Threshold dissemination system: quorums of `⌈(n + k + 1) / 2⌉`
/// processes over the `B_k` adversary; requires `n > 3k`.
///
/// # Errors
///
/// Returns an error when `n ≤ 3k` (consistency or availability fails).
pub fn dissemination_threshold(n: usize, k: usize) -> Result<Rqs, ClassicError> {
    let size = (n + k + 1).div_ceil(2);
    let quorums: Vec<ProcessSet> = if size > n {
        vec![ProcessSet::universe(n)]
    } else {
        ProcessSet::subsets_of_size(n, size).collect()
    };
    let rqs = Rqs::new(Adversary::threshold(n, k), quorums, vec![], vec![])?;
    check_availability(&rqs)?;
    Ok(rqs)
}

/// Threshold masking system: quorums of `⌈(n + 2k + 1) / 2⌉` processes
/// over `B_k`; requires `n > 4k`.
///
/// # Errors
///
/// Returns an error when `n ≤ 4k` (consistency or availability fails).
pub fn masking_threshold(n: usize, k: usize) -> Result<Rqs, ClassicError> {
    let size = (n + 2 * k + 1).div_ceil(2);
    let quorums: Vec<ProcessSet> = if size > n {
        vec![ProcessSet::universe(n)]
    } else {
        ProcessSet::subsets_of_size(n, size).collect()
    };
    let class2: Vec<usize> = (0..quorums.len()).collect();
    let rqs = Rqs::new(Adversary::threshold(n, k), quorums, vec![], class2)?;
    check_availability(&rqs)?;
    Ok(rqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q3_threshold_boundary() {
        // B_k over n: Q3 ⇔ n > 3k.
        assert!(q_condition(&Adversary::threshold(4, 1), 3));
        assert!(!q_condition(&Adversary::threshold(3, 1), 3));
        assert!(q_condition(&Adversary::threshold(7, 2), 3));
        assert!(!q_condition(&Adversary::threshold(6, 2), 3));
    }

    #[test]
    fn q4_threshold_boundary() {
        // Q4 ⇔ n > 4k.
        assert!(q_condition(&Adversary::threshold(5, 1), 4));
        assert!(!q_condition(&Adversary::threshold(4, 1), 4));
        assert!(q_condition(&Adversary::threshold(9, 2), 4));
        assert!(!q_condition(&Adversary::threshold(8, 2), 4));
    }

    #[test]
    fn q_condition_general_adversary() {
        // Maximal sets {0,1}, {2,3} over 6: two cover {0..3}, three cover
        // at most {0..3} — never all of {0..5}: Q3 and even Q4 hold.
        let b = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
            ],
        )
        .unwrap();
        assert!(q_condition(&b, 3));
        assert!(q_condition(&b, 4));
        // Maximal sets {0,1}, {2,3}, {4,5}: three cover everything.
        let b2 = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
                ProcessSet::from_indices([4, 5]),
            ],
        )
        .unwrap();
        assert!(!q_condition(&b2, 3));
        assert!(q_condition(&b2, 2));
    }

    #[test]
    fn dissemination_exists_iff_q3() {
        for (n, k) in [(4usize, 1usize), (7, 2), (10, 3)] {
            assert!(dissemination_threshold(n, k).is_ok(), "n={n} k={k}");
            assert!(q_condition(&Adversary::threshold(n, k), 3));
        }
        for (n, k) in [(3usize, 1usize), (6, 2)] {
            assert!(dissemination_threshold(n, k).is_err(), "n={n} k={k}");
        }
    }

    #[test]
    fn masking_exists_iff_q4() {
        for (n, k) in [(5usize, 1usize), (9, 2)] {
            assert!(masking_threshold(n, k).is_ok(), "n={n} k={k}");
        }
        for (n, k) in [(4usize, 1usize), (8, 2)] {
            assert!(masking_threshold(n, k).is_err(), "n={n} k={k}");
        }
    }

    #[test]
    fn general_complement_constructions() {
        let b = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
            ],
        )
        .unwrap();
        let d = dissemination(&b).expect("Q3 holds");
        assert_eq!(d.len(), 2);
        assert!(d.class1_ids().is_empty());
        assert!(d.class2_ids().is_empty());
        let m = masking(&b).expect("Q4 holds");
        assert_eq!(m.class2_ids().len(), 2);
        assert!(m.class1_ids().is_empty());
        // Masking's Property 3 with empty QC1 degenerates to
        // M-Consistency: (Q ∩ Q') \ B1 ⊄ B2.
        for &q in m.quorums() {
            for &qp in m.quorums() {
                assert!(b.is_large(q.intersection(qp)));
            }
        }
    }

    #[test]
    fn general_masking_fails_without_q4() {
        // Three maximal pairs covering 6 of 7 processes: Q3 holds but a
        // masking system over complements fails (intersection of two
        // complements minus an element lands inside another element).
        let b = Adversary::general(
            5,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
                ProcessSet::from_indices([1, 2]),
            ],
        )
        .unwrap();
        assert!(q_condition(&b, 3), "Q3 holds (element 4 never covered)");
        assert!(!q_condition(&b, 4) || masking(&b).is_ok());
        // dissemination works under Q3:
        assert!(dissemination(&b).is_ok());
    }

    #[test]
    fn dissemination_matches_example3_semantics() {
        // For k = ⌊(n-1)/3⌋ the dissemination quorums coincide in spirit
        // with Example 3's two-thirds quorums.
        let d = dissemination_threshold(4, 1).unwrap();
        for &q in d.quorums() {
            assert_eq!(q.len(), 3);
        }
        assert!(d.verify().is_ok());
    }
}
