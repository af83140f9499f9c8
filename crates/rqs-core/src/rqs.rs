//! Refined quorum systems (Definition 2 of the paper).
//!
//! A refined quorum system `RQS` for a universe `S` and adversary `B` is a
//! family of quorums with two nested sub-families `QC1 ⊆ QC2 ⊆ RQS` such
//! that:
//!
//! - **Property 1** — `∀Q,Q' ∈ RQS: Q ∩ Q' ∉ B`;
//! - **Property 2** — `∀Q1,Q1' ∈ QC1, ∀Q ∈ RQS, ∀B1,B2 ∈ B:
//!   Q1 ∩ Q1' ∩ Q ⊄ B1 ∪ B2`;
//! - **Property 3** — `∀Q2 ∈ QC2, ∀Q ∈ RQS, ∀B ∈ B:` either
//!   `P3a(Q2,Q,B)`: `Q2 ∩ Q \ B ∉ B`, or `P3b(Q2,Q,B)`:
//!   `QC1 ≠ ∅ ∧ ∀Q1 ∈ QC1: Q1 ∩ Q2 ∩ Q \ B ≠ ∅`.
//!
//! Elements of `QC1` are *class-1* quorums, elements of `QC2` are *class-2*
//! quorums, and every quorum is a *class-3* quorum (`QC3 = RQS`).
//!
//! Protocol intuition: in synchronous, uncontended conditions an operation
//! completes in the best latency if a class-1 quorum of correct processes
//! responds, in the second-best latency for class 2, and in the third-best
//! for class 3 (which is anyway required for resilience).

use crate::adversary::Adversary;
use crate::process::ProcessSet;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Index of a quorum within a [`Rqs`] (stable identifier).
///
/// The paper's algorithms ship *quorum ids* inside messages (the storage
/// algorithm's `QC'2` sets and the consensus `UpdateQ` fields); `QuorumId`
/// is that identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct QuorumId(pub usize);

impl fmt::Display for QuorumId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Quorum class (1, 2 or 3). Class 1 ⊆ class 2 ⊆ class 3.
///
/// [`Rqs::class_of`] on a quorum returns the *strongest* class it
/// belongs to; a class-1 quorum is also a class-2 and class-3 quorum.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum QuorumClass {
    /// First-class quorum: enables the best-case latency (1 storage round /
    /// 2 consensus message delays).
    Class1,
    /// Second-class quorum: enables the second-best latency.
    Class2,
    /// Third-class (plain) quorum: the traditional quorum needed for
    /// resilience; third-best latency.
    Class3,
}

impl QuorumClass {
    /// Best-case storage latency in client round-trips for this class
    /// (Theorem 9: the algorithm is `(m, QCm)`-fast).
    pub fn storage_rounds(self) -> usize {
        match self {
            QuorumClass::Class1 => 1,
            QuorumClass::Class2 => 2,
            QuorumClass::Class3 => 3,
        }
    }

    /// Best-case consensus latency in message delays for this class
    /// (Definition 4: learners learn in `m + 1` message delays).
    pub fn consensus_delays(self) -> usize {
        match self {
            QuorumClass::Class1 => 2,
            QuorumClass::Class2 => 3,
            QuorumClass::Class3 => 4,
        }
    }

    /// Numeric class index (1, 2 or 3).
    pub fn index(self) -> usize {
        match self {
            QuorumClass::Class1 => 1,
            QuorumClass::Class2 => 2,
            QuorumClass::Class3 => 3,
        }
    }
}

impl fmt::Display for QuorumClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class {}", self.index())
    }
}

/// A violation of one of the three RQS properties, with witnesses.
///
/// Produced by [`Rqs::verify`]; the witnesses name the exact quorums and
/// adversary elements for which the property fails, which makes the
/// counterexample constructions of Theorems 3 and 6 mechanical.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RqsViolation {
    /// Property 1 fails: `q ∩ q' ∈ B`.
    Property1 {
        /// First quorum.
        q: ProcessSet,
        /// Second quorum.
        q_prime: ProcessSet,
    },
    /// Property 2 fails: `q1 ∩ q1' ∩ q ⊆ b1 ∪ b2`.
    Property2 {
        /// First class-1 quorum.
        q1: ProcessSet,
        /// Second class-1 quorum.
        q1_prime: ProcessSet,
        /// Arbitrary quorum.
        q: ProcessSet,
        /// First adversary element.
        b1: ProcessSet,
        /// Second adversary element.
        b2: ProcessSet,
    },
    /// Property 3 fails: neither `P3a(q2,q,b)` nor `P3b(q2,q,b)` holds; the
    /// witness class-1 quorum `q1` has `q1 ∩ q2 ∩ q \ b = ∅` (or `QC1 = ∅`).
    Property3 {
        /// Class-2 quorum.
        q2: ProcessSet,
        /// Arbitrary quorum.
        q: ProcessSet,
        /// Adversary element.
        b: ProcessSet,
        /// Witness class-1 quorum for the P3b failure (`None` iff `QC1` is
        /// empty).
        q1: Option<ProcessSet>,
    },
    /// Structural problem (not one of the paper's numbered properties).
    Structural(StructuralIssue),
}

/// Structural (well-formedness) issues detected before property checks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StructuralIssue {
    /// The quorum family is empty.
    NoQuorums,
    /// A quorum mentions processes outside the universe.
    OutOfUniverse {
        /// The offending quorum.
        quorum: ProcessSet,
    },
    /// A class-1 index does not also appear as class 2 (`QC1 ⊄ QC2`).
    Class1NotClass2 {
        /// The offending quorum id.
        id: QuorumId,
    },
    /// A class index is out of range of the quorum list.
    BadIndex {
        /// The offending quorum id.
        id: QuorumId,
    },
}

impl fmt::Display for RqsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RqsViolation::Property1 { q, q_prime } => {
                write!(f, "Property 1 violated: {q} ∩ {q_prime} ∈ B")
            }
            RqsViolation::Property2 {
                q1,
                q1_prime,
                q,
                b1,
                b2,
            } => write!(
                f,
                "Property 2 violated: {q1} ∩ {q1_prime} ∩ {q} ⊆ {b1} ∪ {b2}"
            ),
            RqsViolation::Property3 { q2, q, b, q1 } => match q1 {
                Some(q1) => write!(
                    f,
                    "Property 3 violated: P3a({q2},{q},{b}) fails and {q1} ∩ {q2} ∩ {q} \\ {b} = ∅"
                ),
                None => write!(
                    f,
                    "Property 3 violated: P3a({q2},{q},{b}) fails and QC1 is empty"
                ),
            },
            RqsViolation::Structural(s) => write!(f, "structural issue: {s}"),
        }
    }
}

impl fmt::Display for StructuralIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructuralIssue::NoQuorums => write!(f, "quorum family is empty"),
            StructuralIssue::OutOfUniverse { quorum } => {
                write!(f, "quorum {quorum} outside universe")
            }
            StructuralIssue::Class1NotClass2 { id } => {
                write!(f, "{id} is class 1 but not class 2 (QC1 must be ⊆ QC2)")
            }
            StructuralIssue::BadIndex { id } => write!(f, "{id} out of range"),
        }
    }
}

impl std::error::Error for RqsViolation {}

/// A refined quorum system: quorums plus class-1/class-2 membership,
/// relative to an [`Adversary`].
///
/// Use [`RqsBuilder`] (or [`Rqs::new`]) to construct and verify one; the
/// threshold constructions of the paper's Examples 2–6 live in
/// [`crate::threshold`].
///
/// # Examples
///
/// The paper's Figure 3 example (universe of 8, adversary `B_1`; the set
/// `Q` is reconstructed from the caption's cardinality claims, since the
/// published figure text is ambiguous — see `exp_fig3_example`):
///
/// ```
/// use rqs_core::{Adversary, ProcessSet, Rqs, QuorumClass};
///
/// let b = Adversary::threshold(8, 1);
/// // Paper sets (1-based in the paper, 0-based here):
/// let q  = ProcessSet::from_indices([0, 4, 5, 7]);          // Q  = {1,5,6,8}
/// let qp = ProcessSet::from_indices([0, 1, 2, 3, 6, 7]);    // Q' = {1,2,3,4,7,8}
/// let q2 = ProcessSet::from_indices([2, 3, 4, 5, 6]);       // Q2 = {3,4,5,6,7}
/// let q1 = ProcessSet::from_indices([0, 1, 2, 4, 5]);       // Q1 = {1,2,3,5,6}
/// let rqs = Rqs::new(b, vec![q, qp, q2, q1], vec![3], vec![2, 3]).unwrap();
/// assert_eq!(rqs.class_of_set(q1), Some(QuorumClass::Class1));
/// assert_eq!(rqs.class_of_set(qp), Some(QuorumClass::Class3));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rqs {
    adversary: Adversary,
    quorums: Vec<ProcessSet>,
    /// `class1[i]` ⇒ `quorums[i] ∈ QC1`. Invariant: `class1[i] ⇒ class2[i]`.
    class1: Vec<bool>,
    class2: Vec<bool>,
    /// The ids of `QC1`, `QC2` and the whole family, ascending: fixed at
    /// construction, because the protocols' predicates walk them at every
    /// round end.
    class1_ids: Vec<QuorumId>,
    class2_ids: Vec<QuorumId>,
    all_ids: Vec<QuorumId>,
}

impl Rqs {
    /// Builds and verifies a refined quorum system.
    ///
    /// `class1` and `class2` list the indices (into `quorums`) of class-1
    /// and class-2 quorums. Every class-1 index must also be listed (or is
    /// implicitly added) as class-2, per `QC1 ⊆ QC2`.
    ///
    /// # Errors
    ///
    /// Returns the first detected [`RqsViolation`] — structural issues
    /// first, then Properties 1, 2, 3 in order.
    pub fn new(
        adversary: Adversary,
        quorums: Vec<ProcessSet>,
        class1: Vec<usize>,
        class2: Vec<usize>,
    ) -> Result<Self, RqsViolation> {
        let rqs = Self::new_unchecked(adversary, quorums, class1, class2)?;
        rqs.verify()?;
        Ok(rqs)
    }

    /// Builds a refined quorum system *without* verifying Properties 1–3.
    ///
    /// Structural well-formedness (indices in range, quorums within the
    /// universe, `QC1 ⊆ QC2` auto-completion) is still enforced. This is the
    /// entry point for deliberately-invalid systems used by the
    /// counterexample reproductions (Figures 8 and 16).
    ///
    /// # Errors
    ///
    /// Returns [`RqsViolation::Structural`] for malformed inputs.
    pub fn new_unchecked(
        adversary: Adversary,
        quorums: Vec<ProcessSet>,
        class1: Vec<usize>,
        class2: Vec<usize>,
    ) -> Result<Self, RqsViolation> {
        if quorums.is_empty() {
            return Err(RqsViolation::Structural(StructuralIssue::NoQuorums));
        }
        let universe = adversary.universe();
        for &q in &quorums {
            if !q.is_subset_of(universe) {
                return Err(RqsViolation::Structural(StructuralIssue::OutOfUniverse {
                    quorum: q,
                }));
            }
        }
        let mut c1 = vec![false; quorums.len()];
        let mut c2 = vec![false; quorums.len()];
        for &i in &class2 {
            if i >= quorums.len() {
                return Err(RqsViolation::Structural(StructuralIssue::BadIndex {
                    id: QuorumId(i),
                }));
            }
            c2[i] = true;
        }
        for &i in &class1 {
            if i >= quorums.len() {
                return Err(RqsViolation::Structural(StructuralIssue::BadIndex {
                    id: QuorumId(i),
                }));
            }
            c1[i] = true;
            // QC1 ⊆ QC2 by definition; absorb silently.
            c2[i] = true;
        }
        let ids_where = |flags: &[bool]| -> Vec<QuorumId> {
            let set = flags.iter().enumerate().filter(|(_, &f)| f);
            set.map(|(i, _)| QuorumId(i)).collect()
        };
        Ok(Rqs {
            adversary,
            class1_ids: ids_where(&c1),
            class2_ids: ids_where(&c2),
            all_ids: (0..quorums.len()).map(QuorumId).collect(),
            quorums,
            class1: c1,
            class2: c2,
        })
    }

    /// The adversary this system is defined against.
    pub fn adversary(&self) -> &Adversary {
        &self.adversary
    }

    /// Universe size `|S|`.
    pub fn universe_size(&self) -> usize {
        self.adversary.universe_size()
    }

    /// All quorums (class 3 = the whole family).
    pub fn quorums(&self) -> &[ProcessSet] {
        &self.quorums
    }

    /// Number of quorums.
    pub fn len(&self) -> usize {
        self.quorums.len()
    }

    /// `true` iff the quorum family is empty (never true for a constructed
    /// `Rqs`, kept for `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.quorums.is_empty()
    }

    /// The quorum with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn quorum(&self, id: QuorumId) -> ProcessSet {
        self.quorums[id.0]
    }

    /// Looks up the id of a quorum given as a set.
    pub fn id_of(&self, set: ProcessSet) -> Option<QuorumId> {
        self.quorums.iter().position(|&q| q == set).map(QuorumId)
    }

    /// Ids of all class-1 quorums, ascending.
    pub fn class1_ids(&self) -> &[QuorumId] {
        &self.class1_ids
    }

    /// Ids of all class-2 quorums (includes class-1 quorums), ascending.
    pub fn class2_ids(&self) -> &[QuorumId] {
        &self.class2_ids
    }

    /// Ids of all quorums, ascending.
    pub fn all_ids(&self) -> &[QuorumId] {
        &self.all_ids
    }

    /// Class-1 quorums as sets.
    pub fn class1_quorums(&self) -> Vec<ProcessSet> {
        self.class1_ids().iter().map(|&i| self.quorum(i)).collect()
    }

    /// Class-2 quorums as sets (includes class-1 quorums).
    pub fn class2_quorums(&self) -> Vec<ProcessSet> {
        self.class2_ids().iter().map(|&i| self.quorum(i)).collect()
    }

    /// `true` iff the id denotes a class-1 quorum.
    pub fn is_class1(&self, id: QuorumId) -> bool {
        self.class1.get(id.0).copied().unwrap_or(false)
    }

    /// `true` iff the id denotes a class-2 quorum.
    pub fn is_class2(&self, id: QuorumId) -> bool {
        self.class2.get(id.0).copied().unwrap_or(false)
    }

    /// Strongest class of the quorum with the given id.
    pub fn class_of(&self, id: QuorumId) -> QuorumClass {
        if self.is_class1(id) {
            QuorumClass::Class1
        } else if self.is_class2(id) {
            QuorumClass::Class2
        } else {
            QuorumClass::Class3
        }
    }

    /// Strongest class of the quorum equal to `set`, or `None` if `set` is
    /// not a quorum of this system.
    pub fn class_of_set(&self, set: ProcessSet) -> Option<QuorumClass> {
        self.id_of(set).map(|id| self.class_of(id))
    }

    /// `P3a(q2, q, b)`: the set difference `q2 ∩ q \ b` is basic
    /// (Property 3, case (a)).
    pub fn p3a(&self, q2: ProcessSet, q: ProcessSet, b: ProcessSet) -> bool {
        self.adversary.is_basic(q2.intersection(q).difference(b))
    }

    /// `P3b(q2, q, b)`: `QC1` is non-empty and every class-1 quorum
    /// intersects `q2 ∩ q \ b` (Property 3, case (b)).
    pub fn p3b(&self, q2: ProcessSet, q: ProcessSet, b: ProcessSet) -> bool {
        let rest = q2.intersection(q).difference(b);
        let c1 = self.class1_ids();
        !c1.is_empty() && c1.iter().all(|&id| self.quorum(id).intersects(rest))
    }

    /// Checks Property 1 over all quorum pairs.
    pub fn check_property1(&self) -> Result<(), RqsViolation> {
        for (i, &q) in self.quorums.iter().enumerate() {
            for &qp in &self.quorums[i..] {
                if self.adversary.contains(q.intersection(qp)) {
                    return Err(RqsViolation::Property1 { q, q_prime: qp });
                }
            }
        }
        Ok(())
    }

    /// Checks Property 2 over all class-1 pairs, quorums and adversary
    /// element pairs.
    ///
    /// For threshold adversaries this reduces to a cardinality check
    /// (`|Q1 ∩ Q1' ∩ Q| ≥ 2k+1`); for general adversaries it iterates over
    /// pairs of maximal elements.
    pub fn check_property2(&self) -> Result<(), RqsViolation> {
        let c1: Vec<ProcessSet> = self.class1_quorums();
        let maximal = self.adversary.maximal_elements();
        for (i, &q1) in c1.iter().enumerate() {
            for &q1p in &c1[i..] {
                let core = q1.intersection(q1p);
                for &q in &self.quorums {
                    let inter = core.intersection(q);
                    if !self.adversary.is_large(inter) {
                        // Find a witness pair (b1, b2) covering it.
                        let (b1, b2) = find_covering_pair(&maximal, inter);
                        return Err(RqsViolation::Property2 {
                            q1,
                            q1_prime: q1p,
                            q,
                            b1,
                            b2,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks Property 3 over all class-2 quorums, quorums, and adversary
    /// elements.
    ///
    /// Iterating over *maximal* adversary elements only is sound: if
    /// `B' ⊆ B`, then `P3a(Q2,Q,B)` implies `P3a(Q2,Q,B')` (a superset of a
    /// basic set is basic) and `P3b(Q2,Q,B)` implies `P3b(Q2,Q,B')`
    /// (removing less leaves more), so the property for all maximal `B`
    /// implies it for every element of the downward closure.
    pub fn check_property3(&self) -> Result<(), RqsViolation> {
        let c1 = self.class1_quorums();
        if let Some(k) = self.adversary.threshold_k() {
            // Threshold fast path (paper §2.1, threshold instantiation):
            // Property 3 ⇔ for all Q2, Q: |Q2 ∩ Q| ≥ 2k+1, or
            // |Q1 ∩ Q2 ∩ Q| ≥ k+1 for every class-1 quorum Q1.
            for &q2 in &self.class2_quorums() {
                for &q in &self.quorums {
                    let inter = q2.intersection(q);
                    if inter.len() > 2 * k {
                        continue;
                    }
                    if c1.is_empty() {
                        let b = threshold_p3_witness(inter, ProcessSet::empty(), k);
                        return Err(RqsViolation::Property3 { q2, q, b, q1: None });
                    }
                    if let Some(&bad_q1) = c1.iter().find(|&&q1| q1.intersection(inter).len() <= k)
                    {
                        let b = threshold_p3_witness(inter, bad_q1.intersection(inter), k);
                        return Err(RqsViolation::Property3 {
                            q2,
                            q,
                            b,
                            q1: Some(bad_q1),
                        });
                    }
                }
            }
            return Ok(());
        }
        for &q2 in &self.class2_quorums() {
            for &q in &self.quorums {
                for b in self.adversary.maximal_elements() {
                    if self.p3a(q2, q, b) {
                        continue;
                    }
                    // P3a fails; P3b must hold.
                    let rest = q2.intersection(q).difference(b);
                    if c1.is_empty() {
                        return Err(RqsViolation::Property3 { q2, q, b, q1: None });
                    }
                    if let Some(&bad_q1) = c1.iter().find(|&&q1| !q1.intersects(rest)) {
                        return Err(RqsViolation::Property3 {
                            q2,
                            q,
                            b,
                            q1: Some(bad_q1),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies all three RQS properties, returning the first violation.
    ///
    /// Note: when `QC1 = QC2`, Property 2 implies Property 3, and when
    /// `B = {∅}`, Property 1 implies Property 3 (paper, §2.1) — the checks
    /// simply pass trivially in those cases.
    pub fn verify(&self) -> Result<(), RqsViolation> {
        self.check_property1()?;
        self.check_property2()?;
        self.check_property3()?;
        Ok(())
    }

    /// The ids among `ids` whose quorum is fully contained in `responded`.
    fn within<'a>(
        &'a self,
        ids: &'a [QuorumId],
        responded: ProcessSet,
    ) -> impl Iterator<Item = QuorumId> + 'a {
        let inside = move |id: &QuorumId| self.quorum(*id).is_subset_of(responded);
        ids.iter().copied().filter(inside)
    }

    /// Ids of all quorums fully contained in `responded`, ascending —
    /// "acks received from some quorum" in the protocols means this
    /// yields one. An iterator, because the protocols ask at every round
    /// end and mostly want the first id or none.
    pub fn quorums_within(&self, responded: ProcessSet) -> impl Iterator<Item = QuorumId> + '_ {
        self.within(&self.all_ids, responded)
    }

    /// `true` iff some quorum is fully contained in `responded`.
    pub fn any_quorum_within(&self, responded: ProcessSet) -> bool {
        self.quorums.iter().any(|q| q.is_subset_of(responded))
    }

    /// First class-1 quorum fully contained in `responded`, if any.
    pub fn class1_within(&self, responded: ProcessSet) -> Option<QuorumId> {
        self.within(&self.class1_ids, responded).next()
    }

    /// All class-2 quorums fully contained in `responded`, ascending (the
    /// writer's `QC'2` computation, Fig. 5 lines 4–5).
    pub fn class2_within(&self, responded: ProcessSet) -> impl Iterator<Item = QuorumId> + '_ {
        self.within(&self.class2_ids, responded)
    }

    /// Quorums that are entirely correct under the given fault sets
    /// (Byzantine ∪ crashed removed).
    pub fn correct_quorums(&self, faulty: ProcessSet) -> Vec<QuorumId> {
        (0..self.quorums.len())
            .map(QuorumId)
            .filter(|&id| self.quorum(id).is_disjoint(faulty))
            .collect()
    }

    /// The strongest class among quorums fully correct under `faulty`, if
    /// any quorum survives. This determines the best-case latency an
    /// operation can achieve in that execution.
    pub fn best_available_class(&self, faulty: ProcessSet) -> Option<QuorumClass> {
        self.correct_quorums(faulty)
            .into_iter()
            .map(|id| self.class_of(id))
            .min()
    }

    /// `true` iff at least one quorum contains only correct processes —
    /// the paper's liveness precondition.
    pub fn has_correct_quorum(&self, faulty: ProcessSet) -> bool {
        self.best_available_class(faulty).is_some()
    }
}

impl fmt::Display for Rqs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RQS over {} ({} quorums)",
            self.adversary,
            self.quorums.len()
        )?;
        for (i, q) in self.quorums.iter().enumerate() {
            let id = QuorumId(i);
            writeln!(f, "  {id} = {q} [{}]", self.class_of(id))?;
        }
        Ok(())
    }
}

/// Constructs a witness `B ∈ B_k` for a threshold Property-3 violation on
/// intersection `inter = Q2 ∩ Q`: `B` covers `core = Q1 ∩ inter` and leaves
/// `inter \ B` of size ≤ k, so neither `P3a` nor `P3b` holds.
fn threshold_p3_witness(inter: ProcessSet, core: ProcessSet, k: usize) -> ProcessSet {
    let mut b = core;
    for p in inter.difference(core).iter() {
        if b.len() >= k || inter.difference(b).len() <= k {
            break;
        }
        b.insert(p);
    }
    b
}

/// Finds `(b1, b2)` among `maximal` whose union covers `set`; used only to
/// report Property 2 witnesses, so falls back to the first two elements if
/// (unexpectedly) no cover exists.
fn find_covering_pair(maximal: &[ProcessSet], set: ProcessSet) -> (ProcessSet, ProcessSet) {
    for (i, &b1) in maximal.iter().enumerate() {
        for &b2 in &maximal[i..] {
            if set.is_subset_of(b1.union(b2)) {
                return (b1, b2);
            }
        }
    }
    let first = maximal.first().copied().unwrap_or_else(ProcessSet::empty);
    (first, first)
}

/// Incremental builder for a [`Rqs`].
///
/// # Examples
///
/// ```
/// use rqs_core::{Adversary, ProcessSet, RqsBuilder, QuorumClass};
/// let rqs = RqsBuilder::new(Adversary::threshold(4, 1))
///     .quorum_with_class(ProcessSet::universe(4), QuorumClass::Class1)
///     .quorum(ProcessSet::from_indices([0, 1, 2]))
///     .quorum(ProcessSet::from_indices([0, 1, 3]))
///     .quorum(ProcessSet::from_indices([0, 2, 3]))
///     .quorum(ProcessSet::from_indices([1, 2, 3]))
///     .build()
///     .unwrap();
/// assert_eq!(rqs.len(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct RqsBuilder {
    adversary: Adversary,
    quorums: Vec<ProcessSet>,
    class1: Vec<usize>,
    class2: Vec<usize>,
}

impl RqsBuilder {
    /// Starts a builder for the given adversary.
    pub fn new(adversary: Adversary) -> Self {
        RqsBuilder {
            adversary,
            quorums: Vec::new(),
            class1: Vec::new(),
            class2: Vec::new(),
        }
    }

    /// Adds a plain (class-3) quorum.
    pub fn quorum(mut self, q: ProcessSet) -> Self {
        self.quorums.push(q);
        self
    }

    /// Adds a quorum with an explicit class.
    pub fn quorum_with_class(mut self, q: ProcessSet, class: QuorumClass) -> Self {
        let idx = self.quorums.len();
        self.quorums.push(q);
        match class {
            QuorumClass::Class1 => {
                self.class1.push(idx);
                self.class2.push(idx);
            }
            QuorumClass::Class2 => self.class2.push(idx),
            QuorumClass::Class3 => {}
        }
        self
    }

    /// Builds and verifies the system.
    ///
    /// # Errors
    ///
    /// Returns the first [`RqsViolation`] found.
    pub fn build(self) -> Result<Rqs, RqsViolation> {
        Rqs::new(self.adversary, self.quorums, self.class1, self.class2)
    }

    /// Builds without verifying Properties 1–3 (structural checks only).
    ///
    /// # Errors
    ///
    /// Returns [`RqsViolation::Structural`] for malformed inputs.
    pub fn build_unchecked(self) -> Result<Rqs, RqsViolation> {
        Rqs::new_unchecked(self.adversary, self.quorums, self.class1, self.class2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 refined quorum system (0-based indices).
    ///
    /// `Q'`, `Q2` and `Q1` are as printed in the paper; `Q` is
    /// reconstructed as `{1,5,6,8}` so that all the caption's cardinality
    /// claims hold (`|Q2∩Q'| = |Q2∩Q1| = 2k+1`, `|Q2∩Q∩Q1| = k+1`,
    /// and `Q1` meets every quorum in ≥ 2k+1 elements for Property 2).
    fn figure3() -> Rqs {
        let b = Adversary::threshold(8, 1);
        let q = ProcessSet::from_indices([0, 4, 5, 7]);
        let qp = ProcessSet::from_indices([0, 1, 2, 3, 6, 7]);
        let q2 = ProcessSet::from_indices([2, 3, 4, 5, 6]);
        let q1 = ProcessSet::from_indices([0, 1, 2, 4, 5]);
        Rqs::new(b, vec![q, qp, q2, q1], vec![3], vec![2, 3]).expect("figure 3 is a valid RQS")
    }

    #[test]
    fn figure3_is_valid_rqs() {
        let rqs = figure3();
        assert!(rqs.verify().is_ok());
        assert_eq!(rqs.class1_ids(), vec![QuorumId(3)]);
        assert_eq!(rqs.class2_ids(), vec![QuorumId(2), QuorumId(3)]);
        // "the cardinality of a quorum is not always a good indication of
        // its class": Q' has 6 elements but is class 3; Q1 has 5 and is
        // class 1.
        assert_eq!(rqs.class_of(QuorumId(1)), QuorumClass::Class3);
        assert_eq!(rqs.quorum(QuorumId(1)).len(), 6);
        assert_eq!(rqs.class_of(QuorumId(3)), QuorumClass::Class1);
        assert_eq!(rqs.quorum(QuorumId(3)).len(), 5);
    }

    #[test]
    fn figure3_pairwise_intersections_at_least_k_plus_1() {
        let rqs = figure3();
        for &a in rqs.quorums() {
            for &b in rqs.quorums() {
                assert!(a.intersection(b).len() >= 2, "{a} ∩ {b}");
            }
        }
    }

    #[test]
    fn property1_violation_detected() {
        let b = Adversary::threshold(4, 1);
        // Two quorums intersecting in a single element: in B_1.
        let err = Rqs::new(
            b,
            vec![
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([1, 2]),
            ],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, RqsViolation::Property1 { .. }));
        assert!(err.to_string().contains("Property 1"));
    }

    #[test]
    fn property1_self_intersection() {
        // A quorum must intersect *itself* outside B: a quorum that is an
        // adversary element is invalid.
        let b = Adversary::threshold(4, 2);
        let err = Rqs::new(b, vec![ProcessSet::from_indices([0, 1])], vec![], vec![]).unwrap_err();
        assert!(matches!(err, RqsViolation::Property1 { .. }));
    }

    #[test]
    fn property2_violation_detected() {
        // n=5, k=1: quorums {0,1,2} and {1,2,3} intersect in {1,2} — basic
        // (Property 1 holds) but not large, so a class-1 upgrade of {0,1,2}
        // violates Property 2.
        let b = Adversary::threshold(5, 1);
        let q1 = ProcessSet::from_indices([0, 1, 2]);
        let q = ProcessSet::from_indices([1, 2, 3]);
        let err = Rqs::new(b, vec![q1, q], vec![0], vec![0]).unwrap_err();
        match err {
            RqsViolation::Property2 { .. } => {}
            other => panic!("expected Property2 violation, got {other:?}"),
        }
    }

    #[test]
    fn property3_violation_detected_general_adversary() {
        // Negation of Property 3 requires Q2 ∩ Q \ B1 = B2 ∈ B and
        // Q1 ∩ Q2 ∩ Q \ B1 = ∅. Build such a configuration directly.
        // Universe {0..5}; B maximal: {0,1}, {2,3}.
        let b = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
            ],
        )
        .unwrap();
        // Q2 = {0,1,2,3,4}, Q = {0,1,2,3,5}, Q1 = {4,5} ∪ ... must satisfy
        // Property 1 though. Use Q1 = {0,2,4,5}:
        //  Q2 ∩ Q = {0,1,2,3}; with B = {0,1}: rest = {2,3} ∈ B → P3a fails.
        //  Q1 ∩ rest = {2} ≠ ∅ → P3b would hold for this Q1.
        // Use instead Q1' = {0,1,4,5}: Q1' ∩ {2,3} = ∅ → P3b fails.
        let q2 = ProcessSet::from_indices([0, 1, 2, 3, 4]);
        let q = ProcessSet::from_indices([0, 1, 2, 3, 5]);
        let q1 = ProcessSet::from_indices([0, 1, 4, 5]);
        let err = Rqs::new(b, vec![q2, q, q1], vec![2], vec![0]).unwrap_err();
        match &err {
            RqsViolation::Property3 { q1: Some(w), .. } => assert_eq!(*w, q1),
            other => panic!("expected Property3 violation, got {other:?}"),
        }
    }

    #[test]
    fn example7_rqs_is_valid() {
        // Paper Example 7: S = {s1..s6},
        // B maximal = {s1,s2}, {s3,s4}, {s2,s4};
        // RQS = {Q1,Q2,Q2'} with Q1 = {s2,s4,s5,s6} (class 1),
        // Q2 = {s1..s5}, Q2' = {s1..s4,s6} (class 2).
        let b = Adversary::general(
            6,
            [
                ProcessSet::from_indices([0, 1]),
                ProcessSet::from_indices([2, 3]),
                ProcessSet::from_indices([1, 3]),
            ],
        )
        .unwrap();
        let q1 = ProcessSet::from_indices([1, 3, 4, 5]);
        let q2 = ProcessSet::from_indices([0, 1, 2, 3, 4]);
        let q2p = ProcessSet::from_indices([0, 1, 2, 3, 5]);
        let rqs =
            Rqs::new(b, vec![q1, q2, q2p], vec![0], vec![0, 1, 2]).expect("example 7 must verify");
        assert_eq!(rqs.class_of_set(q1), Some(QuorumClass::Class1));
        assert_eq!(rqs.class_of_set(q2), Some(QuorumClass::Class2));
        assert_eq!(rqs.class_of_set(q2p), Some(QuorumClass::Class2));
    }

    #[test]
    fn p3a_p3b_predicates() {
        let rqs = figure3();
        let q2 = ProcessSet::from_indices([2, 3, 4, 5, 6]);
        let qp = ProcessSet::from_indices([0, 1, 2, 3, 6, 7]);
        let q1 = ProcessSet::from_indices([0, 1, 2, 4, 5]);
        let q = ProcessSet::from_indices([0, 4, 5, 7]);
        // From the paper's Figure 3 caption: |Q2 ∩ Q'| = 3 = 2k+1 so
        // P3a(Q2, Q', B) holds for every B ∈ B_1; similarly for Q1.
        for b in rqs.adversary().maximal_elements() {
            assert!(rqs.p3a(q2, qp, b), "P3a(Q2,Q',{b})");
            assert!(rqs.p3a(q2, q1, b), "P3a(Q2,Q1,{b})");
        }
        // And P3b(Q2, Q, B) holds since |Q2 ∩ Q ∩ Q1| = k+1 = 2.
        for b in rqs.adversary().maximal_elements() {
            assert!(rqs.p3b(q2, q, b), "P3b(Q2,Q,{b})");
        }
    }

    #[test]
    fn structural_errors() {
        let b = Adversary::threshold(4, 0);
        let err = Rqs::new(b.clone(), vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(
            err,
            RqsViolation::Structural(StructuralIssue::NoQuorums)
        ));
        let err = Rqs::new(
            b.clone(),
            vec![ProcessSet::from_indices([9])],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RqsViolation::Structural(StructuralIssue::OutOfUniverse { .. })
        ));
        let err = Rqs::new(b, vec![ProcessSet::universe(4)], vec![3], vec![]).unwrap_err();
        assert!(matches!(
            err,
            RqsViolation::Structural(StructuralIssue::BadIndex { .. })
        ));
    }

    #[test]
    fn class1_implies_class2() {
        let b = Adversary::threshold(4, 0);
        let rqs = Rqs::new(
            b,
            vec![ProcessSet::universe(4), ProcessSet::from_indices([0, 1, 2])],
            vec![0],
            vec![],
        )
        .unwrap();
        assert!(rqs.is_class2(QuorumId(0)), "class-1 must imply class-2");
        assert_eq!(rqs.class_of(QuorumId(0)), QuorumClass::Class1);
        assert_eq!(rqs.class_of(QuorumId(1)), QuorumClass::Class3);
    }

    #[test]
    fn best_available_class() {
        let rqs = figure3();
        // No faults: class 1 available.
        assert_eq!(
            rqs.best_available_class(ProcessSet::empty()),
            Some(QuorumClass::Class1)
        );
        // Fail 0 and 1: Q1 = {0,1,2,4,5} dies, Q2 = {2,3,4,5,6} (class 2)
        // survives.
        let faulty = ProcessSet::from_indices([0, 1]);
        assert_eq!(rqs.best_available_class(faulty), Some(QuorumClass::Class2));
        // Fail 1 and 2: Q1 and Q2 die; Q = {0,4,5,7} (class 3) survives.
        let faulty = ProcessSet::from_indices([1, 2]);
        assert_eq!(rqs.best_available_class(faulty), Some(QuorumClass::Class3));
        // Remove everything: nothing survives.
        assert_eq!(rqs.best_available_class(ProcessSet::universe(8)), None);
        assert!(!rqs.has_correct_quorum(ProcessSet::universe(8)));
        assert!(rqs.has_correct_quorum(ProcessSet::empty()));
    }

    #[test]
    fn quorum_class_latencies() {
        assert_eq!(QuorumClass::Class1.storage_rounds(), 1);
        assert_eq!(QuorumClass::Class2.storage_rounds(), 2);
        assert_eq!(QuorumClass::Class3.storage_rounds(), 3);
        assert_eq!(QuorumClass::Class1.consensus_delays(), 2);
        assert_eq!(QuorumClass::Class2.consensus_delays(), 3);
        assert_eq!(QuorumClass::Class3.consensus_delays(), 4);
        assert!(QuorumClass::Class1 < QuorumClass::Class2);
        assert_eq!(QuorumClass::Class2.to_string(), "class 2");
    }

    #[test]
    fn builder_roundtrip() {
        let rqs = RqsBuilder::new(Adversary::threshold(4, 1))
            .quorum_with_class(ProcessSet::universe(4), QuorumClass::Class1)
            .quorum_with_class(ProcessSet::from_indices([0, 1, 2]), QuorumClass::Class2)
            .quorum(ProcessSet::from_indices([0, 1, 3]))
            .build();
        // Q2={0,1,2} vs Q={0,1,3}: intersection {0,1} with B={0} leaves {1} ∈ B
        // → needs P3b: Q1 ∩ {1} ≠ ∅ — universe contains 1, ok.
        let rqs = rqs.expect("valid");
        assert_eq!(rqs.class_of(QuorumId(1)), QuorumClass::Class2);
        assert_eq!(
            rqs.id_of(ProcessSet::from_indices([0, 1, 3])),
            Some(QuorumId(2))
        );
        assert_eq!(rqs.id_of(ProcessSet::from_indices([9])), None);
    }

    #[test]
    fn display_output() {
        let rqs = figure3();
        let s = rqs.to_string();
        assert!(s.contains("RQS over B_1"));
        assert!(s.contains("class 1"));
    }

    #[test]
    fn quorums_within_responded_sets() {
        let rqs = figure3();
        let all = ProcessSet::universe(8);
        assert_eq!(rqs.quorums_within(all).count(), 4);
        assert!(rqs.any_quorum_within(all));
        assert!(rqs.class1_within(all).is_some());
        assert_eq!(rqs.class2_within(all).count(), 2);
        // Exactly Q2 = {2,3,4,5,6} responded:
        let just_q2 = ProcessSet::from_indices([2, 3, 4, 5, 6]);
        assert!(rqs.quorums_within(just_q2).eq([QuorumId(2)]));
        assert!(rqs.class1_within(just_q2).is_none());
        assert!(rqs.class2_within(just_q2).eq([QuorumId(2)]));
        // Nobody responded:
        assert!(!rqs.any_quorum_within(ProcessSet::empty()));
    }

    #[test]
    fn correct_quorums_listing() {
        let rqs = figure3();
        let all = rqs.correct_quorums(ProcessSet::empty());
        assert_eq!(all.len(), 4);
        let none = rqs.correct_quorums(ProcessSet::universe(8));
        assert!(none.is_empty());
    }
}
