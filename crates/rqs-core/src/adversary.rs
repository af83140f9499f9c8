//! Adversary structures (Definition 1 of the paper).
//!
//! An *adversary* `B` for a universe `S` is a downward-closed family of
//! subsets of `S`: if `B ∈ B` and `B' ⊆ B`, then `B' ∈ B`. In any
//! execution, the set of simultaneously-Byzantine processes is assumed to
//! be an element of `B`.
//!
//! We represent an adversary by its *maximal* elements; downward closure is
//! then implicit (`B ∈ B` iff `B` is a subset of some maximal element).
//! The classical `k`-bounded threshold adversary `B_k` (all subsets of
//! cardinality ≤ `k`) gets a dedicated compact representation.
//!
//! Two derived notions pervade the paper (Definition 5):
//! - a **basic** subset is one *not* in `B` — it always contains at least
//!   one benign process;
//! - a **large** subset is one not covered by the union of any *two*
//!   elements of `B` — it always contains a whole basic subset of benign
//!   processes.

use crate::process::{ProcessId, ProcessSet};
use core::fmt;
use serde::{Deserialize, Serialize};

/// An adversary structure over a universe of `n` processes.
///
/// # Examples
///
/// Threshold adversary `B_1` over 4 processes:
///
/// ```
/// use rqs_core::{Adversary, ProcessSet};
/// let b = Adversary::threshold(4, 1);
/// assert!(b.contains(ProcessSet::from_indices([2])));
/// assert!(!b.contains(ProcessSet::from_indices([1, 2])));
/// assert!(b.is_basic(ProcessSet::from_indices([1, 2])));
/// ```
///
/// The general (non-threshold) adversary of the paper's Example 7:
///
/// ```
/// use rqs_core::{Adversary, ProcessSet};
/// let b = Adversary::general(6, [
///     ProcessSet::from_indices([0, 1]), // {s1,s2}
///     ProcessSet::from_indices([2, 3]), // {s3,s4}
///     ProcessSet::from_indices([1, 3]), // {s2,s4}
/// ]).unwrap();
/// assert!(b.contains(ProcessSet::from_indices([1])));     // downward closure
/// assert!(!b.contains(ProcessSet::from_indices([0, 2]))); // {s1,s3} not covered
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Adversary {
    n: usize,
    kind: AdversaryKind,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
enum AdversaryKind {
    /// `B_k`: all subsets of cardinality at most `k`.
    Threshold { k: usize },
    /// Downward closure of the given maximal sets.
    General { maximal: Vec<ProcessSet> },
}

/// Error returned by [`Adversary::general`] for ill-formed inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdversaryError {
    /// A maximal set mentions a process outside the universe.
    OutOfUniverse {
        /// The offending set.
        set: ProcessSet,
        /// The universe size.
        n: usize,
    },
}

impl fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryError::OutOfUniverse { set, n } => {
                write!(
                    f,
                    "adversary element {set} mentions processes outside universe of size {n}"
                )
            }
        }
    }
}

impl std::error::Error for AdversaryError {}

impl Adversary {
    /// The `k`-bounded threshold adversary `B_k` over `n` processes: every
    /// subset of at most `k` processes may be simultaneously Byzantine.
    ///
    /// `k = 0` yields the crash-only adversary `B = {∅}` used by the
    /// paper's Examples 2 and 5.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCESSES` or `k > n`.
    pub fn threshold(n: usize, k: usize) -> Self {
        assert!(n <= crate::process::MAX_PROCESSES);
        assert!(k <= n, "threshold k={k} exceeds universe size n={n}");
        Adversary {
            n,
            kind: AdversaryKind::Threshold { k },
        }
    }

    /// The crash-only adversary `B = {∅}` (no Byzantine processes).
    pub fn crash_only(n: usize) -> Self {
        Adversary::threshold(n, 0)
    }

    /// A general adversary given by (a superset of) its maximal elements.
    ///
    /// Redundant elements (subsets of other elements) are removed; the empty
    /// set is always a member by downward closure, so it never needs to be
    /// listed.
    ///
    /// # Errors
    ///
    /// Returns [`AdversaryError::OutOfUniverse`] if any listed set contains
    /// a process index `>= n`.
    pub fn general<I>(n: usize, maximal: I) -> Result<Self, AdversaryError>
    where
        I: IntoIterator<Item = ProcessSet>,
    {
        assert!(n <= crate::process::MAX_PROCESSES);
        let universe = ProcessSet::universe(n);
        let mut sets: Vec<ProcessSet> = Vec::new();
        for s in maximal {
            if !s.is_subset_of(universe) {
                return Err(AdversaryError::OutOfUniverse { set: s, n });
            }
            sets.push(s);
        }
        // Keep only maximal elements.
        let mut maximal_only: Vec<ProcessSet> = Vec::new();
        'outer: for (i, &s) in sets.iter().enumerate() {
            for (j, &t) in sets.iter().enumerate() {
                if i != j && s.is_subset_of(t) && (s != t || i > j) {
                    continue 'outer;
                }
            }
            maximal_only.push(s);
        }
        maximal_only.sort();
        maximal_only.dedup();
        Ok(Adversary {
            n,
            kind: AdversaryKind::General {
                maximal: maximal_only,
            },
        })
    }

    /// Universe size `|S|`.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// The universe `S` as a set.
    #[inline]
    pub fn universe(&self) -> ProcessSet {
        ProcessSet::universe(self.n)
    }

    /// `true` iff this is a threshold adversary `B_k`; returns `k`.
    pub fn threshold_k(&self) -> Option<usize> {
        match self.kind {
            AdversaryKind::Threshold { k } => Some(k),
            AdversaryKind::General { .. } => None,
        }
    }

    /// Membership: `set ∈ B`?
    ///
    /// For a threshold adversary this is a cardinality check; for a general
    /// adversary, `set` must be a subset of some maximal element.
    pub fn contains(&self, set: ProcessSet) -> bool {
        match &self.kind {
            AdversaryKind::Threshold { k } => set.len() <= *k,
            AdversaryKind::General { maximal } => {
                set.is_empty() || maximal.iter().any(|m| set.is_subset_of(*m))
            }
        }
    }

    /// A subset is **basic** iff it is *not* an element of the adversary
    /// (Definition 5): it contains at least one benign process in every
    /// execution.
    #[inline]
    pub fn is_basic(&self, set: ProcessSet) -> bool {
        !self.contains(set)
    }

    /// A subset is **large** iff it is not a subset of the union of any two
    /// adversary elements (Definition 5): removing any adversary element
    /// from it leaves a basic subset, i.e. it contains a basic subset of
    /// benign processes in every execution (Lemma 2).
    pub fn is_large(&self, set: ProcessSet) -> bool {
        match &self.kind {
            AdversaryKind::Threshold { k } => set.len() > 2 * k,
            AdversaryKind::General { maximal } => {
                if maximal.is_empty() {
                    return !set.is_empty();
                }
                // set ⊆ B1 ∪ B2 for some (possibly equal) maximal B1, B2?
                for (i, &b1) in maximal.iter().enumerate() {
                    for &b2 in &maximal[i..] {
                        if set.is_subset_of(b1.union(b2)) {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// The maximal elements of the adversary.
    ///
    /// For a threshold adversary these are all `k`-subsets of the universe,
    /// materialized on demand; for general adversaries they are stored.
    pub fn maximal_elements(&self) -> Vec<ProcessSet> {
        match &self.kind {
            AdversaryKind::Threshold { k } => {
                if *k == 0 {
                    vec![ProcessSet::empty()]
                } else {
                    ProcessSet::subsets_of_size(self.n, *k).collect()
                }
            }
            AdversaryKind::General { maximal } => {
                if maximal.is_empty() {
                    vec![ProcessSet::empty()]
                } else {
                    maximal.clone()
                }
            }
        }
    }

    /// Iterates over *all* elements of the adversary (the full downward
    /// closure), deduplicated.
    ///
    /// The closure can be exponential in the maximal-set sizes; intended
    /// for small universes (tests, verification, search).
    pub fn all_elements(&self) -> Vec<ProcessSet> {
        let mut out: Vec<ProcessSet> = Vec::new();
        match &self.kind {
            AdversaryKind::Threshold { k } => {
                for size in 0..=*k {
                    out.extend(ProcessSet::subsets_of_size(self.n, size));
                }
            }
            AdversaryKind::General { maximal } => {
                for m in maximal {
                    out.extend(m.subsets());
                }
                if maximal.is_empty() {
                    out.push(ProcessSet::empty());
                }
                out.sort();
                out.dedup();
            }
        }
        out
    }

    /// Smallest basic subset of `within`, if any: a minimal witness that
    /// `within` is basic. Returns `None` when `within ∈ B`.
    ///
    /// Used to produce small "confirmation" sets `T ∉ B` for the storage
    /// `safe(c)` predicate and the consensus signature quorums.
    pub fn minimal_basic_subset(&self, within: ProcessSet) -> Option<ProcessSet> {
        if !self.is_basic(within) {
            return None;
        }
        // Greedy shrink: drop members while the set stays basic.
        let mut current = within;
        for p in within.iter() {
            let mut candidate = current;
            candidate.remove(p);
            if self.is_basic(candidate) {
                current = candidate;
            }
        }
        Some(current)
    }

    /// `true` iff `benign` (the complement of a Byzantine set) intersects
    /// every element of `B` — equivalent to `S \ benign ∈ B`.
    pub fn covers_complement(&self, benign: ProcessSet) -> bool {
        self.contains(self.universe().difference(benign))
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            AdversaryKind::Threshold { k } => write!(f, "B_{k} over |S|={}", self.n),
            AdversaryKind::General { maximal } => {
                write!(
                    f,
                    "general adversary over |S|={} with maximal sets [",
                    self.n
                )?;
                for (i, m) in maximal.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Partition of processes into benign and Byzantine for one execution.
///
/// The paper denotes the Byzantine set of execution `ex` by `B_ex ∈ B`;
/// crashed processes are *benign* (correct-or-crash). This helper bundles a
/// concrete fault assignment and checks it against an adversary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultAssignment {
    /// Processes that are Byzantine in this execution.
    pub byzantine: ProcessSet,
    /// Processes that crash at some point (still benign in paper terms).
    pub crashed: ProcessSet,
}

impl FaultAssignment {
    /// No faults at all.
    pub fn none() -> Self {
        FaultAssignment {
            byzantine: ProcessSet::empty(),
            crashed: ProcessSet::empty(),
        }
    }

    /// `true` iff the Byzantine set is admissible under `adversary` and no
    /// process is both crashed and Byzantine.
    pub fn is_admissible(&self, adversary: &Adversary) -> bool {
        adversary.contains(self.byzantine) && self.byzantine.is_disjoint(self.crashed)
    }

    /// Processes that are correct (neither Byzantine nor crashed), within a
    /// universe of `n` processes.
    pub fn correct(&self, n: usize) -> ProcessSet {
        ProcessSet::universe(n)
            .difference(self.byzantine)
            .difference(self.crashed)
    }

    /// Benign processes (correct or crashed).
    pub fn benign(&self, n: usize) -> ProcessSet {
        ProcessSet::universe(n).difference(self.byzantine)
    }

    /// Is the given process benign under this assignment?
    pub fn is_benign(&self, p: ProcessId) -> bool {
        !self.byzantine.contains(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_membership() {
        let b = Adversary::threshold(7, 2);
        assert!(b.contains(ProcessSet::empty()));
        assert!(b.contains(ProcessSet::from_indices([0, 6])));
        assert!(!b.contains(ProcessSet::from_indices([0, 1, 2])));
        assert_eq!(b.threshold_k(), Some(2));
    }

    #[test]
    fn crash_only_adversary() {
        let b = Adversary::crash_only(5);
        assert!(b.contains(ProcessSet::empty()));
        assert!(!b.contains(ProcessSet::from_indices([0])));
        assert!(b.is_basic(ProcessSet::from_indices([0])));
        // With B = {∅} every non-empty set is large.
        assert!(b.is_large(ProcessSet::from_indices([0])));
        assert!(!b.is_large(ProcessSet::empty()));
    }

    #[test]
    fn threshold_basic_and_large() {
        let b = Adversary::threshold(9, 2);
        assert!(!b.is_basic(ProcessSet::from_indices([0, 1])));
        assert!(b.is_basic(ProcessSet::from_indices([0, 1, 2])));
        // large ⇔ |set| ≥ 2k+1 = 5
        assert!(!b.is_large(ProcessSet::from_indices([0, 1, 2, 3])));
        assert!(b.is_large(ProcessSet::from_indices([0, 1, 2, 3, 4])));
    }

    #[test]
    fn general_downward_closure() {
        let b = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
                ProcessSet::from_indices([1, 3]),
            ],
        )
        .unwrap();
        assert!(b.contains(ProcessSet::empty()));
        assert!(b.contains(ProcessSet::from_indices([0])));
        assert!(b.contains(ProcessSet::from_indices([0, 1])));
        assert!(!b.contains(ProcessSet::from_indices([0, 3])));
        assert!(!b.contains(ProcessSet::from_indices([4])));
    }

    #[test]
    fn general_large_sets() {
        // maximal = {a,b}, {c}; union of two elements covers at most {a,b,c}
        let b = Adversary::general(
            4,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2]),
            ],
        )
        .unwrap();
        assert!(!b.is_large(ProcessSet::from_indices([0, 1, 2])));
        assert!(b.is_large(ProcessSet::from_indices([0, 1, 2, 3])));
        // union of an element with itself
        assert!(!b.is_large(ProcessSet::from_indices([0, 1])));
    }

    #[test]
    fn general_redundant_elements_removed() {
        let b = Adversary::general(
            5,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([0]),
                ProcessSet::from_indices([0, 1]),
            ],
        )
        .unwrap();
        assert_eq!(b.maximal_elements(), vec![ProcessSet::from_indices([0, 1])]);
    }

    #[test]
    fn general_out_of_universe_rejected() {
        let err = Adversary::general(3, [ProcessSet::from_indices([5])]).unwrap_err();
        assert!(matches!(err, AdversaryError::OutOfUniverse { .. }));
        assert!(err.to_string().contains("universe"));
    }

    #[test]
    fn maximal_elements_threshold() {
        let b = Adversary::threshold(4, 1);
        let m = b.maximal_elements();
        assert_eq!(m.len(), 4);
        let b0 = Adversary::threshold(4, 0);
        assert_eq!(b0.maximal_elements(), vec![ProcessSet::empty()]);
    }

    #[test]
    fn all_elements_closure() {
        let b = Adversary::general(4, [ProcessSet::from_indices([0, 1])]).unwrap();
        let all = b.all_elements();
        assert_eq!(all.len(), 4); // ∅, {0}, {1}, {0,1}
        let bt = Adversary::threshold(4, 1);
        assert_eq!(bt.all_elements().len(), 5); // ∅ + 4 singletons
    }

    #[test]
    fn minimal_basic_subset() {
        let b = Adversary::threshold(6, 2);
        let big = ProcessSet::from_indices([0, 1, 2, 3, 4]);
        let min = b.minimal_basic_subset(big).unwrap();
        assert_eq!(min.len(), 3); // smallest basic subset has k+1 members
        assert!(min.is_subset_of(big));
        assert!(b.is_basic(min));
        assert_eq!(
            b.minimal_basic_subset(ProcessSet::from_indices([0, 1])),
            None
        );
    }

    #[test]
    fn fault_assignment() {
        let b = Adversary::threshold(5, 1);
        let fa = FaultAssignment {
            byzantine: ProcessSet::from_indices([0]),
            crashed: ProcessSet::from_indices([1]),
        };
        assert!(fa.is_admissible(&b));
        assert_eq!(fa.correct(5), ProcessSet::from_indices([2, 3, 4]));
        assert_eq!(fa.benign(5), ProcessSet::from_indices([1, 2, 3, 4]));
        assert!(!fa.is_benign(ProcessId(0)));
        assert!(fa.is_benign(ProcessId(1)));
        let bad = FaultAssignment {
            byzantine: ProcessSet::from_indices([0, 1]),
            crashed: ProcessSet::empty(),
        };
        assert!(!bad.is_admissible(&b));
        let overlapping = FaultAssignment {
            byzantine: ProcessSet::from_indices([0]),
            crashed: ProcessSet::from_indices([0]),
        };
        assert!(!overlapping.is_admissible(&b));
        assert!(FaultAssignment::none().is_admissible(&b));
    }

    #[test]
    fn covers_complement() {
        let b = Adversary::threshold(4, 1);
        assert!(b.covers_complement(ProcessSet::from_indices([0, 1, 2])));
        assert!(!b.covers_complement(ProcessSet::from_indices([0, 1])));
    }

    #[test]
    fn display() {
        let b = Adversary::threshold(4, 1);
        assert_eq!(b.to_string(), "B_1 over |S|=4");
        let g = Adversary::general(3, [ProcessSet::from_indices([0])]).unwrap();
        assert!(g.to_string().contains("general adversary"));
    }
}
