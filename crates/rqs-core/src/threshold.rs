//! Threshold refined quorum systems (the paper's Examples 2–6).
//!
//! For a `k`-bounded threshold adversary `B_k` over `n` processes, the
//! canonical RQS family is parameterized by three resilience thresholds
//! `0 ≤ q ≤ r ≤ t`:
//!
//! - plain quorums contain all but at most `t` processes (`Q_t`),
//! - class-2 quorums contain all but at most `r` processes (`Q_r`),
//! - class-1 quorums contain all but at most `q` processes (`Q_q`).
//!
//! Example 6 of the paper gives closed-form feasibility conditions:
//!
//! - **Property 1** ⇔ `n > 2t + k`
//! - **Property 2** ⇔ `n > t + 2k + 2q`
//! - **Property 3** ⇔ `n > t + r + k + min(k, q)`
//!
//! so the family is an RQS iff `n > t + k + max(t, k + 2q, r + min(k, q))`.
//! Experiment **E8** sweeps these inequalities against [`Rqs::verify`].

use crate::adversary::Adversary;
use crate::process::ProcessSet;
use crate::rqs::{Rqs, RqsViolation};
use core::fmt;
use serde::{Deserialize, Serialize};

/// Parameters of a threshold refined quorum system (Example 6).
///
/// # Examples
///
/// The §1.2 motivating configuration — 5 servers, up to `t = 2` crashes,
/// writes fast when 4 servers respond:
///
/// ```
/// use rqs_core::threshold::ThresholdConfig;
/// let cfg = ThresholdConfig::new(5, 2, 0).with_class1(1).with_class2(2);
/// assert!(cfg.is_feasible());
/// let rqs = cfg.build().unwrap();
/// assert_eq!(rqs.class1_quorums().iter().all(|q| q.len() == 4), true);
/// ```
///
/// The "important instantiation": `n = 3t+1` Byzantine servers, all
/// quorums class 2, only the full set class 1:
///
/// ```
/// use rqs_core::threshold::ThresholdConfig;
/// let cfg = ThresholdConfig::byzantine_fast(1); // t = k = 1, n = 4
/// assert!(cfg.is_feasible());
/// assert_eq!(cfg.n(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ThresholdConfig {
    n: usize,
    t: usize,
    k: usize,
    /// `Some(q)`: class-1 quorums are the `(n-q)`-subsets; `None`: `QC1 = ∅`.
    q: Option<usize>,
    /// `Some(r)`: class-2 quorums are the `(n-r)`-subsets; `None`: `QC2 = QC1`.
    r: Option<usize>,
}

/// Error for invalid threshold parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThresholdConfigError {
    msg: &'static str,
}

impl fmt::Display for ThresholdConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for ThresholdConfigError {}

impl ThresholdConfig {
    /// Plain threshold system: `n` processes, quorums tolerate `t`
    /// failures, `k`-bounded Byzantine adversary, no fast classes
    /// (`QC1 = QC2 = ∅`, Examples 2–3).
    ///
    /// # Panics
    ///
    /// Panics if `t >= n` or `k > n`.
    pub fn new(n: usize, t: usize, k: usize) -> Self {
        assert!(t < n, "t={t} must be < n={n} (quorums must be non-empty)");
        assert!(k <= n, "k={k} must be <= n={n}");
        ThresholdConfig {
            n,
            t,
            k,
            q: None,
            r: None,
        }
    }

    /// Adds class-1 quorums: all subsets with at least `n - q` processes.
    ///
    /// If no class-2 threshold is set, `QC2 = QC1` (Example 5).
    ///
    /// # Panics
    ///
    /// Panics if `q > t`.
    pub fn with_class1(mut self, q: usize) -> Self {
        assert!(q <= self.t, "q={q} must be <= t={}", self.t);
        self.q = Some(q);
        if let Some(r) = self.r {
            assert!(q <= r, "q={q} must be <= r={r}");
        }
        self
    }

    /// Adds class-2 quorums: all subsets with at least `n - r` processes.
    ///
    /// # Panics
    ///
    /// Panics if `r > t`, or if a class-1 threshold `q > r` is set.
    pub fn with_class2(mut self, r: usize) -> Self {
        assert!(r <= self.t, "r={r} must be <= t={}", self.t);
        if let Some(q) = self.q {
            assert!(q <= r, "q={} must be <= r={r}", q);
        }
        self.r = Some(r);
        self
    }

    /// Example 2: crash-tolerant majority quorums over `n` processes
    /// (`B = {∅}`, `t = ⌊(n-1)/2⌋`, no fast classes).
    pub fn classic_crash(n: usize) -> Self {
        ThresholdConfig::new(n, (n - 1) / 2, 0)
    }

    /// Example 3: Byzantine quorums over `n` processes
    /// (`t = k = ⌊(n-1)/3⌋`, quorums of more than two thirds, no fast
    /// classes).
    pub fn classic_byzantine(n: usize) -> Self {
        let t = (n - 1) / 3;
        ThresholdConfig::new(n, t, t)
    }

    /// Example 6's "important instantiation": `n = 3t + 1` processes,
    /// `k = t` Byzantine, all quorums class 2 (`r = t`), only the full set
    /// class 1 (`q = 0`).
    pub fn byzantine_fast(t: usize) -> Self {
        ThresholdConfig::new(3 * t + 1, t, t)
            .with_class1(0)
            .with_class2(t)
    }

    /// The §1.2 motivating example generalized: crash-only (`k = 0`),
    /// optimal resilience `t = ⌊(n-1)/2⌋`, fast operations when all but
    /// `q` servers respond, all quorums class 2.
    ///
    /// For this to be feasible, `q` must satisfy `n > t + 2q`
    /// (Property 2 with `k = 0`).
    pub fn crash_fast(n: usize, q: usize) -> Self {
        let t = (n - 1) / 2;
        ThresholdConfig::new(n, t, 0).with_class1(q).with_class2(t)
    }

    /// Universe size `n = |S|`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plain-quorum resilience `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Byzantine bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Class-1 threshold `q` (class-1 quorums have `≥ n - q` members).
    pub fn q(&self) -> Option<usize> {
        self.q
    }

    /// Class-2 threshold `r`; defaults to `q` when only a class-1
    /// threshold was given (`QC2 = QC1`, Example 5).
    pub fn r(&self) -> Option<usize> {
        self.r.or(self.q)
    }

    /// Property 1 feasibility: `n > 2t + k`.
    pub fn property1_holds(&self) -> bool {
        self.n > 2 * self.t + self.k
    }

    /// Property 2 feasibility: `n > t + 2k + 2q` (vacuous without class-1
    /// quorums).
    pub fn property2_holds(&self) -> bool {
        match self.q {
            None => true,
            Some(q) => self.n > self.t + 2 * self.k + 2 * q,
        }
    }

    /// Property 3 feasibility: `n > t + r + k + min(k, q)` (vacuous without
    /// class-2 quorums).
    pub fn property3_holds(&self) -> bool {
        match (self.q, self.r()) {
            (Some(q), Some(r)) => self.n > self.t + r + self.k + self.k.min(q),
            _ => true,
        }
    }

    /// All three closed-form conditions of Example 6.
    pub fn is_feasible(&self) -> bool {
        self.property1_holds() && self.property2_holds() && self.property3_holds()
    }

    /// Smallest `n` for which the thresholds `(t, r, q, k)` are feasible:
    /// `n = t + k + max(t, k + 2q, r + min(k, q)) + 1` (Example 6).
    pub fn minimal_n(t: usize, r: usize, q: usize, k: usize) -> usize {
        t + k + t.max(k + 2 * q).max(r + k.min(q)) + 1
    }

    /// The threshold adversary `B_k` of this configuration.
    pub fn adversary(&self) -> Adversary {
        Adversary::threshold(self.n, self.k)
    }

    /// Materializes the refined quorum system, verifying Properties 1–3.
    ///
    /// The family contains every `(n-t)`-subset as a plain quorum, every
    /// `(n-r)`-subset as a class-2 quorum and every `(n-q)`-subset as a
    /// class-1 quorum. Only minimal-cardinality representatives are
    /// enumerated: clients test availability via subset inclusion, so
    /// supersets are implied.
    ///
    /// # Errors
    ///
    /// Returns an [`RqsViolation`] when the parameters are infeasible;
    /// [`ThresholdConfig::is_feasible`] predicts this exactly (experiment
    /// E8 asserts the equivalence).
    ///
    /// # Panics
    ///
    /// Panics if the enumeration would exceed 2,000,000 quorums; keep
    /// `n ≤ ~16` for explicit materialization.
    pub fn build(&self) -> Result<Rqs, RqsViolation> {
        let (quorums, class1, class2) = self.enumerate();
        Rqs::new(self.adversary(), quorums, class1, class2)
    }

    /// Materializes the system *without* verifying Properties 1–3
    /// (used to construct deliberately-broken systems for the
    /// counterexample experiments).
    ///
    /// # Errors
    ///
    /// Returns [`RqsViolation::Structural`] for malformed inputs (cannot
    /// happen for a validated `ThresholdConfig`).
    pub fn build_unchecked(&self) -> Result<Rqs, RqsViolation> {
        let (quorums, class1, class2) = self.enumerate();
        Rqs::new_unchecked(self.adversary(), quorums, class1, class2)
    }

    fn enumerate(&self) -> (Vec<ProcessSet>, Vec<usize>, Vec<usize>) {
        let mut sizes: Vec<usize> = vec![self.n - self.t];
        if let Some(r) = self.r() {
            sizes.push(self.n - r);
        }
        if let Some(q) = self.q {
            sizes.push(self.n - q);
        }
        sizes.sort_unstable();
        sizes.dedup();

        let mut quorums = Vec::new();
        let mut class1 = Vec::new();
        let mut class2 = Vec::new();
        let c1_min = self.q.map(|q| self.n - q);
        let c2_min = self.r().map(|r| self.n - r);
        for &size in &sizes {
            let count_before = quorums.len();
            for s in ProcessSet::subsets_of_size(self.n, size) {
                quorums.push(s);
                assert!(
                    quorums.len() <= 2_000_000,
                    "threshold enumeration too large (n={}); keep n <= ~16",
                    self.n
                );
            }
            for idx in count_before..quorums.len() {
                if c1_min.is_some_and(|m| size >= m) {
                    class1.push(idx);
                }
                if c2_min.is_some_and(|m| size >= m) {
                    class2.push(idx);
                }
            }
        }
        (quorums, class1, class2)
    }
}

impl fmt::Display for ThresholdConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} t={} k={}", self.n, self.t, self.k)?;
        if let Some(q) = self.q {
            write!(f, " q={q}")?;
        }
        if let Some(r) = self.r() {
            write!(f, " r={r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rqs::QuorumClass;

    #[test]
    fn classic_crash_majorities() {
        let cfg = ThresholdConfig::classic_crash(5);
        assert_eq!(cfg.t(), 2);
        assert!(cfg.is_feasible());
        let rqs = cfg.build().unwrap();
        // C(5,3) = 10 quorums, all class 3.
        assert_eq!(rqs.len(), 10);
        assert!(rqs.class1_ids().is_empty());
        assert!(rqs.class2_ids().is_empty());
    }

    #[test]
    fn classic_byzantine() {
        let cfg = ThresholdConfig::classic_byzantine(4);
        assert_eq!((cfg.t(), cfg.k()), (1, 1));
        assert!(cfg.is_feasible());
        let rqs = cfg.build().unwrap();
        assert_eq!(rqs.len(), 4); // C(4,3)
        for &q in rqs.quorums() {
            assert_eq!(q.len(), 3);
        }
    }

    #[test]
    fn section_1_2_example() {
        // 5 servers, t = 2 crash failures, fast path at 4 servers.
        let cfg = ThresholdConfig::crash_fast(5, 1);
        assert!(cfg.is_feasible());
        let rqs = cfg.build().unwrap();
        // quorums: C(5,3) = 10 of size 3 (class 2, since r = t) plus
        // C(5,4) = 5 of size 4 (class 1).
        assert_eq!(rqs.len(), 15);
        assert_eq!(rqs.class1_ids().len(), 5);
        assert_eq!(rqs.class2_ids().len(), 15);
        let q4 = ProcessSet::from_indices([0, 1, 2, 4]);
        assert_eq!(rqs.class_of_set(q4), Some(QuorumClass::Class1));
    }

    #[test]
    fn section_1_2_naive_infeasible() {
        // The paper's Figure 1 argument: expediting at 3 of 5 servers
        // (q = t = 2) violates Property 2: n = 5 ≤ t + 2k + 2q = 6.
        let cfg = ThresholdConfig::new(5, 2, 0).with_class1(2).with_class2(2);
        assert!(!cfg.property2_holds());
        assert!(!cfg.is_feasible());
        let err = cfg.build().unwrap_err();
        assert!(matches!(err, RqsViolation::Property2 { .. }));
    }

    #[test]
    fn byzantine_fast_instantiation() {
        for t in 1..=3 {
            let cfg = ThresholdConfig::byzantine_fast(t);
            assert!(cfg.is_feasible(), "t={t}");
            let rqs = cfg.build().unwrap();
            // Class 1 = only the full set.
            assert_eq!(rqs.class1_quorums(), vec![ProcessSet::universe(3 * t + 1)]);
            // All (n-t)-subsets are class 2.
            for &id in rqs.class2_ids() {
                let s = rqs.quorum(id);
                assert!(s.len() > 2 * t);
            }
        }
    }

    #[test]
    fn feasibility_matches_verification_small_sweep() {
        // E8 in miniature: for every parameter combination, the closed-form
        // inequalities agree with full property verification.
        for n in 3..=7 {
            for t in 1..n {
                for k in 0..=t.min(2) {
                    for q in 0..=t {
                        for r in q..=t {
                            let cfg = ThresholdConfig::new(n, t, k).with_class1(q).with_class2(r);
                            let built = cfg.build_unchecked().unwrap();
                            let verified = built.verify().is_ok();
                            assert_eq!(
                                verified,
                                cfg.is_feasible(),
                                "mismatch at {cfg}: verify={verified}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_n_formula() {
        assert_eq!(ThresholdConfig::minimal_n(2, 2, 1, 0), 5); // §1.2
        assert_eq!(ThresholdConfig::minimal_n(1, 1, 0, 1), 4); // byzantine_fast(1)
        for (t, r, q, k) in [(2, 2, 1, 0), (1, 1, 0, 1), (2, 2, 0, 2), (3, 2, 1, 1)] {
            let n = ThresholdConfig::minimal_n(t, r, q, k);
            let at = ThresholdConfig::new(n, t, k).with_class1(q).with_class2(r);
            assert!(
                at.is_feasible(),
                "minimal n={n} for t={t},r={r},q={q},k={k}"
            );
            if n > t + 1 {
                let below = ThresholdConfig::new(n - 1, t, k)
                    .with_class1(q)
                    .with_class2(r);
                assert!(!below.is_feasible(), "n-1={} must be infeasible", n - 1);
            }
        }
    }

    #[test]
    fn class1_only_implies_class2_equal() {
        // Example 5: QC1 = QC2 when only q given.
        let cfg = ThresholdConfig::new(7, 2, 1).with_class1(0);
        assert_eq!(cfg.r(), Some(0));
        assert!(cfg.is_feasible());
        let rqs = cfg.build().unwrap();
        assert_eq!(rqs.class1_ids(), rqs.class2_ids());
    }

    #[test]
    #[should_panic(expected = "must be <= t")]
    fn q_above_t_rejected() {
        let _ = ThresholdConfig::new(5, 1, 0).with_class1(2);
    }

    #[test]
    #[should_panic(expected = "must be <= r")]
    fn q_above_r_rejected() {
        let _ = ThresholdConfig::new(7, 3, 0).with_class2(1).with_class1(2);
    }

    #[test]
    fn display_format() {
        let cfg = ThresholdConfig::new(7, 2, 1).with_class1(0).with_class2(1);
        assert_eq!(cfg.to_string(), "n=7 t=2 k=1 q=0 r=1");
        assert_eq!(ThresholdConfig::new(5, 2, 0).to_string(), "n=5 t=2 k=0");
    }
}
