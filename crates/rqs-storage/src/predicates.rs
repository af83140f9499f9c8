//! The reader's predicates (Fig. 7, lines 1–9), as pure functions.
//!
//! Separating these from the reader automaton makes the case analysis of
//! the correctness proof (Appendix A) directly testable: each lemma about
//! `valid_j`, `safe`, `highCand` and the best-case detector `BCD`
//! corresponds to unit tests here.

use crate::history::History;
use crate::value::{Timestamp, TsVal};
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use std::collections::BTreeMap;

/// A reader's view of the system: its local copies of server histories
/// plus the bookkeeping the predicates quantify over.
///
/// `histories[i]` is the latest history received from server `i` (the
/// empty history before any reply, matching the reader's initialization
/// `history[∗,∗,∗] := ⟨⟨0,⊥⟩, ∅⟩`). Readers keep the snapshots `rd_ack`s
/// carry as received: a [`History`] shares its chunks with the server's
/// copy, and every predicate below probes it through borrows.
#[derive(Debug)]
pub struct ReadView<'a> {
    /// The refined quorum system.
    pub rqs: &'a Rqs,
    /// Per-server history copies (length = universe size).
    pub histories: &'a [History],
    /// Quorums all of whose servers have replied in this read
    /// (`Responded`, lines 52–53).
    pub responded: &'a [QuorumId],
    /// Highest timestamp seen in round 1 (line 29).
    pub highest_ts: Timestamp,
    /// Class-2 quorums that responded in round 1 (`QC'2`, lines 30–31).
    pub qc2_prime: &'a [QuorumId],
}

impl ReadView<'_> {
    /// `read(c, i)` (line 7): server `i`'s history stores `c` in slot 1
    /// or 2. Empty slots read as the initial pair, so
    /// `read(⟨0,⊥⟩, i)` always holds.
    pub fn read_pred(&self, c: &TsVal, i: ProcessId) -> bool {
        let h = &self.histories[i.index()];
        h.pair(c.ts, 1) == c || h.pair(c.ts, 2) == c
    }

    /// `{si ∈ S | read(c, i)}` — the servers vouching for `c`.
    pub fn readers_of(&self, c: &TsVal) -> ProcessSet {
        (0..self.histories.len())
            .map(ProcessId)
            .filter(|&i| self.read_pred(c, i))
            .collect()
    }

    /// `safe(c)` (line 8): the vouching servers form a basic subset, so at
    /// least one of them is benign — `c` is not fabricated.
    pub fn safe(&self, c: &TsVal) -> bool {
        self.rqs.adversary().is_basic(self.readers_of(c))
    }

    /// `valid1(c, Q)` (line 3): a basic subset of `Q` stores `c` in
    /// slot 1.
    pub fn valid1(&self, c: &TsVal, q: ProcessSet) -> bool {
        let w: ProcessSet = q
            .iter()
            .filter(|&i| self.histories[i.index()].pair(c.ts, 1) == c)
            .collect();
        self.rqs.adversary().is_basic(w)
    }

    /// `valid2(c, Q)` (line 4): some server of `Q` stores `c` in slot 2.
    pub fn valid2(&self, c: &TsVal, q: ProcessSet) -> bool {
        q.iter()
            .any(|i| self.histories[i.index()].pair(c.ts, 2) == c)
    }

    /// `valid3(c, Q)` (line 5): there are a class-2 quorum `Q2` and a
    /// `B ∈ B` with `P3b(Q2, Q, B)` such that every server of
    /// `Q2 ∩ Q \ B` stores `c` in slot 1 *with `Q2` attached*.
    ///
    /// Implementation note: with `W` the servers of `Q2 ∩ Q` storing
    /// `⟨c, {…, Q2, …}⟩` and `M = Q2 ∩ Q \ W`, a witness `B` exists iff
    /// `M ∈ B` and `P3b(Q2, Q, M)` — `B` must cover `M` (downward closure
    /// puts `M` in `B`), and shrinking `B` to `M` only makes `P3b` easier.
    pub fn valid3(&self, c: &TsVal, q: ProcessSet) -> bool {
        for &q2_id in &self.rqs.class2_ids() {
            let q2 = self.rqs.quorum(q2_id);
            let inter = q2.intersection(q);
            let w: ProcessSet = inter
                .iter()
                .filter(|&i| self.histories[i.index()].stores_with_quorum(c, 1, q2_id))
                .collect();
            let m = inter.difference(w);
            if self.rqs.adversary().contains(m) && self.rqs.p3b(q2, q, m) {
                return true;
            }
        }
        false
    }

    /// `invalid(c)` (line 6): some responded quorum supports none of the
    /// three validity cases for `c`, or `c.ts` exceeds the round-1 highest
    /// timestamp.
    pub fn invalid(&self, c: &TsVal) -> bool {
        if c.ts > self.highest_ts {
            return true;
        }
        self.responded.iter().any(|&qid| {
            let q = self.rqs.quorum(qid);
            !(self.valid1(c, q) || self.valid2(c, q) || self.valid3(c, q))
        })
    }

    /// `highCand(c)` (line 9): every reported pair with a higher timestamp
    /// is invalid — no possibly-newer value remains in play.
    pub fn high_cand(&self, c: &TsVal) -> bool {
        self.reported_pairs()
            .iter()
            .filter(|c2| c2.ts > c.ts)
            .all(|c2| self.invalid(c2))
    }

    /// All pairs reported by any server (slots 1–2), plus the initial pair.
    pub fn reported_pairs(&self) -> Vec<TsVal> {
        let mut out = vec![TsVal::initial()];
        // Servers report near-identical histories, so cross-server dedup
        // dominates; bucketing candidate indexes by timestamp keeps it
        // linear in the history size instead of quadratic.
        let mut by_ts: BTreeMap<Timestamp, Vec<usize>> = BTreeMap::new();
        for h in self.histories {
            for c in h.reported_pairs() {
                let bucket = by_ts.entry(c.ts).or_default();
                if !bucket.iter().any(|&i| out[i] == c) {
                    bucket.push(out.len());
                    out.push(c);
                }
            }
        }
        out
    }

    /// The candidate set `C` (line 33): safe, highest-candidate pairs.
    ///
    /// Equivalent to filtering on `safe(c) && high_cand(c)`, evaluated
    /// with one `invalid` pass: `highCand(c)` holds iff no *non-invalid*
    /// reported pair has a timestamp above `c.ts`, i.e. iff `c.ts` is at
    /// least the highest non-invalid timestamp. The naive form reruns
    /// `reported_pairs` + `invalid` per pair — quadratic in the history a
    /// long-lived object accumulates (the paper's histories are unbounded,
    /// §5) and the reader is the hot path of every read.
    pub fn candidates(&self) -> Vec<TsVal> {
        let pairs = self.reported_pairs();
        let live_max = pairs
            .iter()
            .filter(|c| !self.invalid(c))
            .map(|c| c.ts)
            .max();
        pairs
            .into_iter()
            .filter(|c| live_max.is_none_or(|m| m <= c.ts) && self.safe(c))
            .collect()
    }

    /// `csel` (line 35): the candidate with the highest timestamp, if the
    /// candidate set is non-empty.
    ///
    /// Equivalent to `candidates().into_iter().max_by_key(ts)` but
    /// evaluated top-down: pairs are scanned in descending timestamp
    /// order, so the first non-invalid pair fixes the `highCand`
    /// threshold and the scan stops — one `invalid` evaluation in the
    /// common case, against one *per reported pair* for the naive form.
    /// On the read hot path with the paper's unbounded histories (§5)
    /// that difference is the dominant cost of a read.
    ///
    /// The descending sort is stable, so pairs with equal timestamps
    /// keep their reported order and tie-breaking picks the same pair
    /// the naive form does.
    pub fn select(&self) -> Option<TsVal> {
        if let Some(resolved) = self.select_top_fast() {
            return resolved;
        }
        let mut pairs = self.reported_pairs();
        pairs.sort_by_key(|c| std::cmp::Reverse(c.ts));
        let live_max = pairs.iter().find(|c| !self.invalid(c)).map(|c| c.ts);
        pairs
            .into_iter()
            .filter(|c| live_max.is_none_or(|m| m <= c.ts) && self.safe(c))
            .max_by_key(|c| c.ts)
    }

    /// The uncontended fast case of [`ReadView::select`], without
    /// materializing the candidate domain. When the highest reported
    /// timestamp carries exactly one distinct non-invalid pair `c`,
    /// every other reported pair sits strictly below the `highCand`
    /// threshold, so the candidate set is `{c}` filtered by `safe` —
    /// the result is decided by `c` alone:
    ///
    /// - `safe(c)` holds: `c` is `csel` → `Some(Some(c))`.
    /// - `safe(c)` fails: the candidate set is empty → `Some(None)`
    ///   (common mid-round, before a full quorum has reported `c`).
    ///
    /// When nothing has been reported the top pair is `⟨0,⊥⟩` itself —
    /// `reported_pairs` always includes it — and the same two-way
    /// decision applies. Ambiguity at the top — several distinct pairs
    /// (concurrent or forged writes) or an invalid top pair (the
    /// `highCand` threshold drops below `top_ts`) — returns `None` and
    /// the caller runs the exact scan. Keeps a read O(quorum checks)
    /// instead of O(total history) on the hot path.
    fn select_top_fast(&self) -> Option<Option<TsVal>> {
        let top_ts = self.histories.iter().map(History::highest_ts).max()?;
        let initial;
        let mut top: Option<&TsVal> = None;
        if top_ts == 0 {
            // No server reported a written pair: the initial pair is the
            // sole reported (and thus sole top) pair.
            initial = TsVal::initial();
            top = Some(&initial);
        }
        for h in self.histories {
            for rnd in 1..=2 {
                let pair = h.pair(top_ts, rnd);
                if pair.is_initial() {
                    continue;
                }
                match top {
                    Some(seen) if seen == pair => {}
                    Some(_) => return None, // contested top timestamp
                    None => top = Some(pair),
                }
            }
        }
        let c = top?;
        if self.invalid(c) {
            return None;
        }
        Some(self.safe(c).then(|| c.clone()))
    }

    /// Quorums of class `r` (`QC_1`, `QC_2`, or the full family for 3).
    fn class_quorums(&self, r: usize) -> Vec<QuorumId> {
        match r {
            1 => self.rqs.class1_ids(),
            2 => self.rqs.class2_ids(),
            3 => self.rqs.all_ids(),
            other => panic!("quorum class {other} out of range"),
        }
    }

    /// `BCD(c, 1, R)` (line 1): there are a class-1 quorum `Q1` and a
    /// class-`R` quorum `QR` such that every server of `Q1 ∩ QR` stores
    /// `c` in slot `R` — and, for `R = 2`, stores it with `QR` attached.
    ///
    /// When it holds at the end of round 1 of a synchronous uncontended
    /// read, the read returns without any write-back (line 40).
    pub fn bcd1(&self, c: &TsVal, r: usize) -> bool {
        let c1 = self.rqs.class1_ids();
        let qrs = self.class_quorums(r);
        c1.iter().any(|&q1_id| {
            let q1 = self.rqs.quorum(q1_id);
            qrs.iter().any(|&qr_id| {
                let qr = self.rqs.quorum(qr_id);
                q1.intersection(qr).iter().all(|i| {
                    let slot = self.histories[i.index()].slot(c.ts, r);
                    slot.pair == *c && (r != 2 || slot.sets.contains(&qr_id))
                })
            })
        })
    }

    /// `BCD(c, 2, R)` (line 2): the class-2 quorums `Q2 ∈ QC'2` for which
    /// some class-`R` quorum `QR` has all of `QR ∩ Q2` storing `c` in
    /// slot `R`.
    pub fn bcd2(&self, c: &TsVal, r: usize) -> Vec<QuorumId> {
        let qrs = self.class_quorums(r);
        self.qc2_prime
            .iter()
            .copied()
            .filter(|&q2_id| {
                let q2 = self.rqs.quorum(q2_id);
                qrs.iter().any(|&qr_id| {
                    let qr = self.rqs.quorum(qr_id);
                    qr.intersection(q2)
                        .iter()
                        .all(|i| self.histories[i.index()].pair(c.ts, r) == c)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use rqs_core::threshold::ThresholdConfig;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn pair(ts: Timestamp, v: u64) -> TsVal {
        TsVal::new(ts, Value::from(v))
    }

    /// §1.2 system: n=5, t=2, k=0; class-1 at 4 servers, class-2 at 3.
    fn rqs() -> Arc<Rqs> {
        Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap())
    }

    fn histories_with(
        n: usize,
        writes: &[(usize, TsVal, usize)], // (server, pair, rnd)
    ) -> Vec<History> {
        let mut hs = vec![History::new(); n];
        for (i, c, rnd) in writes {
            hs[*i].apply_write(c, &BTreeSet::new(), *rnd);
        }
        hs
    }

    #[test]
    fn initial_pair_always_safe_candidate() {
        let rqs = rqs();
        let hs = vec![History::new(); 5];
        let responded = rqs.quorums_within(ProcessSet::universe(5));
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &responded,
            highest_ts: 0,
            qc2_prime: &[],
        };
        assert!(view.safe(&TsVal::initial()));
        assert!(view.high_cand(&TsVal::initial()));
        assert_eq!(view.select(), Some(TsVal::initial()));
    }

    #[test]
    fn written_value_selected() {
        let rqs = rqs();
        let c = pair(1, 42);
        // 4 servers store c in slot 1 (a completed 1-round write).
        let hs = histories_with(
            5,
            &[
                (0, c.clone(), 1),
                (1, c.clone(), 1),
                (2, c.clone(), 1),
                (3, c.clone(), 1),
            ],
        );
        let responded = rqs.quorums_within(ProcessSet::universe(5));
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(view.safe(&c));
        assert!(view.high_cand(&c));
        assert_eq!(view.select(), Some(c));
    }

    #[test]
    fn fabricated_value_not_safe() {
        // k=0 crash-only: a single server's claim is still "safe" under
        // B = {∅}? No — is_basic({s}) = true for B={∅}, any non-empty set
        // is basic. Use a Byzantine threshold system instead.
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let c = pair(1, 99);
        let hs = histories_with(4, &[(0, c.clone(), 1)]); // only server 0 claims c
        let responded: Vec<QuorumId> = vec![];
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        // {s0} ∈ B_1 → not basic → unsafe.
        assert!(!view.safe(&c));
        // Two servers claiming it would make it safe.
        let hs2 = histories_with(4, &[(0, c.clone(), 1), (1, c.clone(), 1)]);
        let view2 = ReadView {
            rqs: &rqs,
            histories: &hs2,
            responded: &responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(view2.safe(&c));
    }

    #[test]
    fn higher_fabricated_ts_blocks_until_invalid() {
        // A Byzantine server advertises a ghost pair above highest_ts: the
        // ghost is invalid (line 6, right disjunct) and unsafe (only one
        // reporter), so it neither blocks highCand of the real value nor
        // becomes a candidate itself.
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let c = pair(1, 42);
        let ghost = pair(9, 66);
        let mut hs = histories_with(
            4,
            &[(0, c.clone(), 2), (1, c.clone(), 2), (2, c.clone(), 2)],
        );
        hs[3].apply_write(&ghost, &BTreeSet::new(), 1);
        let responded = rqs.quorums_within(ProcessSet::universe(4));
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &responded,
            highest_ts: 1, // computed in round 1 before the ghost appeared
            qc2_prime: &[],
        };
        assert!(view.invalid(&ghost));
        assert!(!view.safe(&ghost), "one Byzantine reporter is not basic");
        assert!(view.high_cand(&c));
        assert_eq!(view.select(), Some(c));
    }

    #[test]
    fn candidates_match_naive_definition() {
        // The memoized `candidates()` must equal the literal line-33
        // filter `safe(c) && high_cand(c)` on a messy view: a completed
        // low write, a partially-replicated middle write, a ghost above
        // highest_ts, and divergent same-ts values.
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let low = pair(1, 10);
        let mid = pair(2, 20);
        let mid_forged = pair(2, 99);
        let ghost = pair(9, 66);
        let mut hs = histories_with(
            4,
            &[
                (0, low.clone(), 2),
                (1, low.clone(), 2),
                (2, low.clone(), 2),
                (3, low.clone(), 2),
                (1, mid.clone(), 1),
                (2, mid.clone(), 1),
            ],
        );
        hs[3].apply_write(&mid_forged, &BTreeSet::new(), 1);
        hs[3].apply_write(&ghost, &BTreeSet::new(), 1);
        for responded in [
            rqs.quorums_within(ProcessSet::universe(4)),
            rqs.quorums_within(ProcessSet::from_indices([0, 1, 2])),
            vec![],
        ] {
            let view = ReadView {
                rqs: &rqs,
                histories: &hs,
                responded: &responded,
                highest_ts: 2,
                qc2_prime: &[],
            };
            let naive: Vec<TsVal> = view
                .reported_pairs()
                .into_iter()
                .filter(|c| view.safe(c) && view.high_cand(c))
                .collect();
            assert_eq!(view.candidates(), naive);
        }
    }

    #[test]
    fn valid1_needs_basic_slot1_support() {
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let c = pair(1, 7);
        let q = ProcessSet::from_indices([0, 1, 2]);
        let hs = histories_with(4, &[(0, c.clone(), 1)]);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view.valid1(&c, q)); // one server ∈ B_1
        let hs2 = histories_with(4, &[(0, c.clone(), 1), (1, c.clone(), 1)]);
        let view2 = ReadView {
            rqs: &rqs,
            histories: &hs2,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(view2.valid1(&c, q));
    }

    #[test]
    fn valid2_needs_one_slot2_server() {
        let rqs = rqs();
        let c = pair(1, 7);
        let q = ProcessSet::from_indices([0, 1, 2]);
        let hs = histories_with(5, &[(3, c.clone(), 2)]);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view.valid2(&c, q)); // server 3 ∉ Q
        assert!(view.valid2(&c, ProcessSet::from_indices([2, 3, 4])));
    }

    #[test]
    fn valid3_requires_attached_quorum_ids() {
        // Example-7-like situation: slot-1 entries carrying the class-2
        // quorum id make valid3 hold where plain entries do not.
        let rqs = rqs();
        let q2_id = rqs.class2_ids()[0];
        let q2 = rqs.quorum(q2_id);
        let q = rqs.quorum(rqs.all_ids()[0]);
        let c = pair(1, 7);
        let mut sets = BTreeSet::new();
        sets.insert(q2_id);
        let mut hs = vec![History::new(); 5];
        for i in q2.intersection(q).iter() {
            hs[i.index()].apply_write(&c, &sets, 1);
        }
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        // With k=0, M = ∅ ∈ B and P3b(q2, q, ∅) holds whenever class-1
        // quorums intersect q2∩q — which they do in this construction.
        assert!(view.valid3(&c, q));

        // Without the attached ids, W is empty, M = q2∩q ∉ B (non-empty,
        // crash-only adversary) → valid3 fails.
        let hs_plain = {
            let mut hs = vec![History::new(); 5];
            for i in q2.intersection(q).iter() {
                hs[i.index()].apply_write(&c, &BTreeSet::new(), 1);
            }
            hs
        };
        let view_plain = ReadView {
            rqs: &rqs,
            histories: &hs_plain,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view_plain.valid3(&c, q));
    }

    #[test]
    fn bcd1_detects_one_round_write() {
        // All servers of a class-1 quorum store c in slot 1: BCD(c,1,1).
        let rqs = rqs();
        let c = pair(1, 5);
        let q1 = rqs.quorum(rqs.class1_ids()[0]);
        let mut hs = vec![History::new(); 5];
        for i in q1.iter() {
            hs[i.index()].apply_write(&c, &BTreeSet::new(), 1);
        }
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(view.bcd1(&c, 1));
        assert!(!view.bcd1(&c, 3), "slot 3 is empty");
    }

    #[test]
    fn bcd1_r2_requires_attached_ids() {
        let rqs = rqs();
        let c = pair(1, 5);
        let q2_id = rqs.class2_ids()[0];
        // Entire universe stores c in slot 2 but without ids → BCD(c,1,2)
        // fails; with ids → holds.
        let mut plain = vec![History::new(); 5];
        let mut tagged = vec![History::new(); 5];
        let mut sets = BTreeSet::new();
        sets.insert(q2_id);
        for i in 0..5 {
            plain[i].apply_write(&c, &BTreeSet::new(), 2);
            tagged[i].apply_write(&c, &sets, 2);
        }
        let mk = |hs: &[History]| -> bool {
            let view = ReadView {
                rqs: &rqs,
                histories: hs,
                responded: &[],
                highest_ts: 1,
                qc2_prime: &[],
            };
            view.bcd1(&c, 2)
        };
        assert!(!mk(&plain));
        assert!(mk(&tagged));
    }

    #[test]
    fn bcd2_filters_qc2_prime() {
        let rqs = rqs();
        let c = pair(1, 5);
        let q2_ids = rqs.class2_ids();
        let (qa, qb) = (q2_ids[0], q2_ids[1]);
        // Entire universe stores c in slot 1.
        let mut hs = vec![History::new(); 5];
        for h in &mut hs {
            h.apply_write(&c, &BTreeSet::new(), 1);
        }
        let qc2_prime = vec![qa];
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &qc2_prime,
        };
        let x = view.bcd2(&c, 1);
        assert_eq!(x, vec![qa], "only quorums in QC'2 qualify");
        assert!(!x.contains(&qb));
    }

    /// The exact scan of [`ReadView::select`], re-derived without the
    /// fast path: the oracle `select_top_fast` must agree with whenever
    /// it claims a definitive answer.
    fn select_exact(view: &ReadView<'_>) -> Option<TsVal> {
        let mut pairs = view.reported_pairs();
        pairs.sort_by_key(|c| std::cmp::Reverse(c.ts));
        let live_max = pairs.iter().find(|c| !view.invalid(c)).map(|c| c.ts);
        pairs
            .into_iter()
            .filter(|c| live_max.is_none_or(|m| m <= c.ts) && view.safe(c))
            .max_by_key(|c| c.ts)
    }

    #[test]
    fn fast_select_agrees_with_the_exact_scan() {
        // Views spanning every fast-path branch: empty (top_ts == 0),
        // uncontested safe top, uncontested top with too few reporters,
        // contested top (forked slot-1 values), and an invalid ghost
        // above the real value (fast path must defer, not decide).
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let real = pair(1, 42);
        let fork = pair(1, 7);
        let ghost = pair(9, 66);
        let all4 = |c: &TsVal, rnd: usize| (0..4).map(|i| (i, c.clone(), rnd)).collect::<Vec<_>>();
        let mut ghosted = histories_with(
            4,
            &[
                (0, real.clone(), 2),
                (1, real.clone(), 2),
                (2, real.clone(), 2),
            ],
        );
        ghosted[3].apply_write(&ghost, &BTreeSet::new(), 1);
        let mut forked = histories_with(
            4,
            &[
                (0, real.clone(), 1),
                (1, real.clone(), 1),
                (2, real.clone(), 1),
            ],
        );
        forked[3].apply_write(&fork, &BTreeSet::new(), 1);
        let cases: Vec<(Vec<History>, Timestamp)> = vec![
            (histories_with(4, &[]), 0),
            (histories_with(4, &all4(&real, 1)), 1),
            (histories_with(4, &[(0, real.clone(), 1)]), 1),
            (forked, 1),
            (ghosted, 1),
        ];
        for responded in [rqs.quorums_within(ProcessSet::universe(4)), vec![]] {
            for (hs, highest_ts) in &cases {
                let view = ReadView {
                    rqs: &rqs,
                    histories: hs,
                    responded: &responded,
                    highest_ts: *highest_ts,
                    qc2_prime: &[],
                };
                assert_eq!(
                    view.select(),
                    select_exact(&view),
                    "responded={responded:?} hs={hs:?}"
                );
            }
        }
    }

    #[test]
    fn fast_select_tri_state() {
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let c = pair(1, 42);
        // Nothing reported: the initial pair is the definitive answer.
        let empty = histories_with(4, &[]);
        let view = ReadView {
            rqs: &rqs,
            histories: &empty,
            responded: &[],
            highest_ts: 0,
            qc2_prime: &[],
        };
        assert_eq!(view.select_top_fast(), Some(Some(TsVal::initial())));
        // Mid-round: one reporter of an in-range pair is not yet safe —
        // definitively *no* candidate (the reader waits, not falls back).
        let thin = histories_with(4, &[(0, c.clone(), 1)]);
        let view = ReadView {
            rqs: &rqs,
            histories: &thin,
            responded: &[],
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert_eq!(view.select_top_fast(), Some(None));
        // Same view after a full quorum responded without supporting the
        // pair: the top is invalid, so the fast path must defer.
        let responded = rqs.quorums_within(ProcessSet::universe(4));
        let view = ReadView {
            rqs: &rqs,
            histories: &thin,
            responded: &responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert_eq!(view.select_top_fast(), None);
    }

    #[test]
    fn no_candidate_when_value_unsafe_and_blocking() {
        // A pair ≤ highest_ts reported by too few servers: not safe itself,
        // and if nothing else is written the initial pair must wait for it
        // to become invalid. With a fully-responded universe the ghost has
        // no valid_j support at the full quorum → invalid → ⊥ selectable.
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let ghost = pair(1, 13);
        let hs = histories_with(4, &[(0, ghost.clone(), 1)]);
        let responded = rqs.quorums_within(ProcessSet::universe(4));
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded: &responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view.safe(&ghost));
        assert!(view.invalid(&ghost));
        assert_eq!(view.select(), Some(TsVal::initial()));
    }
}
