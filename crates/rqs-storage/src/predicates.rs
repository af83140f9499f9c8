//! The reader's predicates (Fig. 7, lines 1–9), as pure functions.
//!
//! Separating these from the reader automaton makes the case analysis of
//! the correctness proof (Appendix A) directly testable: each lemma about
//! `valid_j`, `safe`, `highCand` and the best-case detector `BCD`
//! corresponds to unit tests here.
//!
//! # Rows
//!
//! Every predicate about a pair `c` probes the histories at one
//! timestamp only: `read`, `valid₁₋₃`, `safe` and `BCD` all ask for
//! `history_i[c.ts, ·]`. A [`Row`] is that — each server's three slots at
//! one timestamp, found with one search per server ([`ReadView::row`]) —
//! and the predicates are evaluated on it (the `*_in` methods). The
//! by-pair methods of the paper's names (`safe(c)`, `valid1(c, Q)`, …)
//! resolve `c`'s row and delegate. A read decision therefore costs
//! `n` [`History::highest_ts`] reads and `n` searches whatever the
//! histories hold: [`ReadView::select_row`] hands the row it resolved for
//! `csel` to the reader, which evaluates the `BCD` sets on it.
//!
//! The exact scan [`ReadView::select`] falls back to when the top
//! timestamp is contested or invalid still walks every reported pair —
//! O(history), one row per pair. It is left that way on measured traffic:
//! 0 of 57 016 / 23 524 / 4 024 / 916 decisions per lap take it on the
//! repo benchmark's `sim-hot-read` / `mem-mixed` / `wan-degraded` /
//! `durable-write` workloads (it needs a forging server or a write
//! racing the read's last answer).

use crate::history::{History, Slot, SLOTS};
use crate::value::{Timestamp, TsVal};
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use std::collections::BTreeMap;

/// What every server stores at one timestamp `ts`: entry `i` is
/// `history_i[ts, ·]`, the three slots of server `i` (all empty where the
/// server holds nothing for `ts`). Built by [`ReadView::row`].
#[derive(Debug)]
pub struct Row<'a> {
    ts: Timestamp,
    slots: Vec<&'a [Slot; SLOTS]>,
}

impl<'a> Row<'a> {
    /// `history_i[ts, rnd]`.
    fn slot(&self, i: ProcessId, rnd: usize) -> &'a Slot {
        &self.slots[i.index()][rnd - 1]
    }

    /// `true` iff `history_i[c.ts, rnd]` holds the pair `c`.
    fn stores(&self, c: &TsVal, i: ProcessId, rnd: usize) -> bool {
        debug_assert_eq!(self.ts, c.ts, "a pair is judged on its own row");
        self.slot(i, rnd).pair == *c
    }

    /// `read(c, i)` (line 7).
    fn reads(&self, c: &TsVal, i: ProcessId) -> bool {
        self.stores(c, i, 1) || self.stores(c, i, 2)
    }
}

/// A reader's view of the system: its local copies of server histories
/// plus the bookkeeping the predicates quantify over.
///
/// `histories[i]` is the latest history received from server `i` (the
/// empty history before any reply, matching the reader's initialization
/// `history[∗,∗,∗] := ⟨⟨0,⊥⟩, ∅⟩`). Readers keep the snapshots `rd_ack`s
/// carry as received: a [`History`] shares its chunks with the server's
/// copy, and every predicate below probes it through borrows.
///
/// The `*_in` methods take the [`Row`] of the pair's own timestamp.
#[derive(Debug)]
pub struct ReadView<'a> {
    /// The refined quorum system.
    pub rqs: &'a Rqs,
    /// Per-server history copies (length = universe size).
    pub histories: &'a [History],
    /// The servers that have replied in this read; `Responded` (lines
    /// 52–53) is the quorums within it.
    pub responded: ProcessSet,
    /// Highest timestamp seen in round 1 (line 29).
    pub highest_ts: Timestamp,
    /// Class-2 quorums that responded in round 1 (`QC'2`, lines 30–31).
    pub qc2_prime: &'a [QuorumId],
}

impl<'a> ReadView<'a> {
    /// Resolves `ts` in every server's history: one search per server.
    pub fn row(&self, ts: Timestamp) -> Row<'a> {
        let slots = self.histories.iter().map(|h| h.slots(ts)).collect();
        Row { ts, slots }
    }

    /// `read(c, i)` (line 7): server `i`'s history stores `c` in slot 1
    /// or 2. Empty slots read as the initial pair, so
    /// `read(⟨0,⊥⟩, i)` always holds.
    pub fn read_pred(&self, c: &TsVal, i: ProcessId) -> bool {
        self.row(c.ts).reads(c, i)
    }

    /// `{si ∈ S | read(c, i)}` — the servers vouching for `c`.
    pub fn readers_of(&self, c: &TsVal) -> ProcessSet {
        self.readers_in(&self.row(c.ts), c)
    }

    /// [`ReadView::readers_of`] on `c`'s row.
    fn readers_in(&self, row: &Row<'_>, c: &TsVal) -> ProcessSet {
        let servers = (0..row.slots.len()).map(ProcessId);
        servers.filter(|&i| row.reads(c, i)).collect()
    }

    /// `safe(c)` (line 8): the vouching servers form a basic subset, so at
    /// least one of them is benign — `c` is not fabricated.
    pub fn safe(&self, c: &TsVal) -> bool {
        self.safe_in(&self.row(c.ts), c)
    }

    /// [`ReadView::safe`] on `c`'s row.
    fn safe_in(&self, row: &Row<'_>, c: &TsVal) -> bool {
        self.rqs.adversary().is_basic(self.readers_in(row, c))
    }

    /// `valid1(c, Q)` (line 3): a basic subset of `Q` stores `c` in
    /// slot 1.
    pub fn valid1(&self, c: &TsVal, q: ProcessSet) -> bool {
        self.valid1_in(&self.row(c.ts), c, q)
    }

    /// [`ReadView::valid1`] on `c`'s row.
    fn valid1_in(&self, row: &Row<'_>, c: &TsVal, q: ProcessSet) -> bool {
        let w: ProcessSet = q.iter().filter(|&i| row.stores(c, i, 1)).collect();
        self.rqs.adversary().is_basic(w)
    }

    /// `valid2(c, Q)` (line 4): some server of `Q` stores `c` in slot 2.
    pub fn valid2(&self, c: &TsVal, q: ProcessSet) -> bool {
        self.valid2_in(&self.row(c.ts), c, q)
    }

    /// [`ReadView::valid2`] on `c`'s row.
    fn valid2_in(&self, row: &Row<'_>, c: &TsVal, q: ProcessSet) -> bool {
        q.iter().any(|i| row.stores(c, i, 2))
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
        self.valid3_in(&self.row(c.ts), c, q)
    }

    /// [`ReadView::valid3`] on `c`'s row.
    fn valid3_in(&self, row: &Row<'_>, c: &TsVal, q: ProcessSet) -> bool {
        self.rqs.class2_ids().iter().any(|&q2_id| {
            let q2 = self.rqs.quorum(q2_id);
            let inter = q2.intersection(q);
            let attached =
                |i: &ProcessId| row.stores(c, *i, 1) && row.slot(*i, 1).sets.contains(&q2_id);
            let w: ProcessSet = inter.iter().filter(attached).collect();
            let m = inter.difference(w);
            self.rqs.adversary().contains(m) && self.rqs.p3b(q2, q, m)
        })
    }

    /// `invalid(c)` (line 6): some responded quorum supports none of the
    /// three validity cases for `c`, or `c.ts` exceeds the round-1 highest
    /// timestamp.
    pub fn invalid(&self, c: &TsVal) -> bool {
        self.invalid_in(&self.row(c.ts), c)
    }

    /// [`ReadView::invalid`] on `c`'s row.
    fn invalid_in(&self, row: &Row<'_>, c: &TsVal) -> bool {
        if c.ts > self.highest_ts {
            return true;
        }
        self.rqs.quorums_within(self.responded).any(|qid| {
            let q = self.rqs.quorum(qid);
            !(self.valid1_in(row, c, q) || self.valid2_in(row, c, q) || self.valid3_in(row, c, q))
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
    pub fn select(&self) -> Option<TsVal> {
        self.select_row().map(|(csel, _)| csel)
    }

    /// [`ReadView::select`], with `csel`'s row for the `BCD` tests that
    /// follow it.
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
    pub fn select_row(&self) -> Option<(TsVal, Row<'a>)> {
        if let Some(resolved) = self.select_top_fast() {
            return resolved;
        }
        let mut pairs = self.reported_pairs();
        pairs.sort_by_key(|c| std::cmp::Reverse(c.ts));
        let live_max = pairs.iter().find(|c| !self.invalid(c)).map(|c| c.ts);
        let csel = pairs
            .into_iter()
            .filter(|c| live_max.is_none_or(|m| m <= c.ts) && self.safe(c))
            .max_by_key(|c| c.ts)?;
        let row = self.row(csel.ts);
        Some((csel, row))
    }

    /// The uncontended fast case of [`ReadView::select_row`], without
    /// materializing the candidate domain. When the highest reported
    /// timestamp carries exactly one distinct non-invalid pair `c`,
    /// every other reported pair sits strictly below the `highCand`
    /// threshold, so the candidate set is `{c}` filtered by `safe` —
    /// the result is decided by `c` alone, on the one row of its
    /// timestamp:
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
    fn select_top_fast(&self) -> Option<Option<(TsVal, Row<'a>)>> {
        let top_ts = self.histories.iter().map(History::highest_ts).max()?;
        let row = self.row(top_ts);
        let initial;
        let mut top: Option<&TsVal> = None;
        if top_ts == 0 {
            // No server reported a written pair: the initial pair is the
            // sole reported (and thus sole top) pair.
            initial = TsVal::initial();
            top = Some(&initial);
        }
        for &slots in &row.slots {
            for slot in &slots[..2] {
                if slot.pair.is_initial() {
                    continue;
                }
                match top {
                    Some(seen) if *seen == slot.pair => {}
                    Some(_) => return None, // contested top timestamp
                    None => top = Some(&slot.pair),
                }
            }
        }
        let c = top?;
        if self.invalid_in(&row, c) {
            return None;
        }
        let csel = self.safe_in(&row, c).then(|| c.clone());
        Some(csel.map(|csel| (csel, row)))
    }

    /// Quorums of class `r` (`QC_1`, `QC_2`, or the full family for 3).
    fn class_quorums(&self, r: usize) -> &'a [QuorumId] {
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
        self.bcd1_in(&self.row(c.ts), c, r)
    }

    /// [`ReadView::bcd1`] on `c`'s row.
    pub fn bcd1_in(&self, row: &Row<'_>, c: &TsVal, r: usize) -> bool {
        let qrs = self.class_quorums(r);
        self.rqs.class1_ids().iter().any(|&q1_id| {
            let q1 = self.rqs.quorum(q1_id);
            qrs.iter().any(|&qr_id| {
                let qr = self.rqs.quorum(qr_id);
                let tagged = |i| r != 2 || row.slot(i, 2).sets.contains(&qr_id);
                let both = q1.intersection(qr);
                both.iter().all(|i| row.stores(c, i, r) && tagged(i))
            })
        })
    }

    /// `BCD(c, 2, R)` (line 2): the class-2 quorums `Q2 ∈ QC'2` for which
    /// some class-`R` quorum `QR` has all of `QR ∩ Q2` storing `c` in
    /// slot `R`.
    pub fn bcd2(&self, c: &TsVal, r: usize) -> Vec<QuorumId> {
        self.bcd2_in(&self.row(c.ts), c, r)
    }

    /// [`ReadView::bcd2`] on `c`'s row.
    pub fn bcd2_in(&self, row: &Row<'_>, c: &TsVal, r: usize) -> Vec<QuorumId> {
        let qrs = self.class_quorums(r);
        let detected = |q2_id: &QuorumId| {
            let q2 = self.rqs.quorum(*q2_id);
            qrs.iter().any(|&qr_id| {
                let inter = self.rqs.quorum(qr_id).intersection(q2);
                inter.iter().all(|i| row.stores(c, i, r))
            })
        };
        self.qc2_prime.iter().copied().filter(detected).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{CHUNK, LOOKUPS};
    use crate::value::Value;
    use proptest::prelude::*;
    use rqs_core::threshold::ThresholdConfig;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn pair(ts: Timestamp, v: u64) -> TsVal {
        TsVal::new(ts, Value::from(v))
    }

    /// Fig. 7 lines 1–9 as the paper writes them — every probe its own
    /// `history_i[c.ts, rnd]` lookup, every quantifier a loop, `B` ranging
    /// over the whole adversary: the oracle the row evaluation and the
    /// fast `select` must agree with.
    mod fig7 {
        use super::*;

        fn stores(v: &ReadView<'_>, c: &TsVal, i: ProcessId, rnd: usize) -> bool {
            v.histories[i.index()].pair(c.ts, rnd) == c
        }

        pub fn read(v: &ReadView<'_>, c: &TsVal, i: ProcessId) -> bool {
            stores(v, c, i, 1) || stores(v, c, i, 2)
        }

        pub fn readers(v: &ReadView<'_>, c: &TsVal) -> ProcessSet {
            let universe = ProcessSet::universe(v.histories.len());
            universe.iter().filter(|&i| read(v, c, i)).collect()
        }

        pub fn safe(v: &ReadView<'_>, c: &TsVal) -> bool {
            v.rqs.adversary().is_basic(readers(v, c))
        }

        pub fn valid1(v: &ReadView<'_>, c: &TsVal, q: ProcessSet) -> bool {
            let storing: ProcessSet = q.iter().filter(|&i| stores(v, c, i, 1)).collect();
            v.rqs.adversary().is_basic(storing)
        }

        pub fn valid2(v: &ReadView<'_>, c: &TsVal, q: ProcessSet) -> bool {
            q.iter().any(|i| stores(v, c, i, 2))
        }

        pub fn valid3(v: &ReadView<'_>, c: &TsVal, q: ProcessSet) -> bool {
            v.rqs.class2_ids().iter().any(|&q2_id| {
                let q2 = v.rqs.quorum(q2_id);
                v.rqs.adversary().all_elements().into_iter().any(|b| {
                    let rest = q2.intersection(q).difference(b);
                    let tagged =
                        |i: ProcessId| v.histories[i.index()].stores_with_quorum(c, 1, q2_id);
                    v.rqs.p3b(q2, q, b) && rest.iter().all(tagged)
                })
            })
        }

        pub fn invalid(v: &ReadView<'_>, c: &TsVal) -> bool {
            let unsupported =
                |q: ProcessSet| !(valid1(v, c, q) || valid2(v, c, q) || valid3(v, c, q));
            let responded = v
                .rqs
                .quorums()
                .iter()
                .filter(|q| q.is_subset_of(v.responded));
            c.ts > v.highest_ts || responded.into_iter().any(|&q| unsupported(q))
        }

        pub fn high_cand(v: &ReadView<'_>, c: &TsVal) -> bool {
            let pairs = v.reported_pairs();
            let mut higher = pairs.iter().filter(|c2| c2.ts > c.ts);
            higher.all(|c2| invalid(v, c2))
        }

        /// Line 33, in reported order.
        pub fn candidates(v: &ReadView<'_>) -> Vec<TsVal> {
            let pairs = v.reported_pairs().into_iter();
            pairs.filter(|c| safe(v, c) && high_cand(v, c)).collect()
        }

        /// Line 35; of several candidates at the top timestamp the one
        /// reported last.
        pub fn select(v: &ReadView<'_>) -> Option<TsVal> {
            candidates(v).into_iter().max_by_key(|c| c.ts)
        }

        fn class(v: &ReadView<'_>, r: usize) -> Vec<QuorumId> {
            let ids = v.rqs.all_ids().iter().copied();
            match r {
                1 => ids.filter(|&q| v.rqs.is_class1(q)).collect(),
                2 => ids.filter(|&q| v.rqs.is_class2(q)).collect(),
                _ => ids.collect(),
            }
        }

        pub fn bcd1(v: &ReadView<'_>, c: &TsVal, r: usize) -> bool {
            class(v, 1).into_iter().any(|q1| {
                class(v, r).into_iter().any(|qr| {
                    let both = v.rqs.quorum(q1).intersection(v.rqs.quorum(qr));
                    both.iter().all(|i| match r {
                        2 => v.histories[i.index()].stores_with_quorum(c, 2, qr),
                        _ => stores(v, c, i, r),
                    })
                })
            })
        }

        pub fn bcd2(v: &ReadView<'_>, c: &TsVal, r: usize) -> Vec<QuorumId> {
            let detected = |q2: &QuorumId| {
                class(v, r).into_iter().any(|qr| {
                    let both = v.rqs.quorum(qr).intersection(v.rqs.quorum(*q2));
                    both.iter().all(|i| stores(v, c, i, r))
                })
            };
            v.qc2_prime.iter().copied().filter(detected).collect()
        }
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
        let responded = ProcessSet::universe(5);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded,
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
        let responded = ProcessSet::universe(5);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded,
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
        let responded = ProcessSet::empty();
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded,
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
            responded,
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
        let responded = ProcessSet::universe(4);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded,
            highest_ts: 1, // computed in round 1 before the ghost appeared
            qc2_prime: &[],
        };
        assert!(view.invalid(&ghost));
        assert!(!view.safe(&ghost), "one Byzantine reporter is not basic");
        assert!(view.high_cand(&c));
        assert_eq!(view.select(), Some(c));
    }

    /// `len` one-round writes `⟨ts, ts⟩`, `ts = 1..=len`, on each of four
    /// servers: `len / CHUNK` full chunks and a newest one of the rest.
    fn long_histories(len: u64) -> Vec<History> {
        let mut hs = vec![History::new(); 4];
        for h in &mut hs {
            for ts in 1..=len {
                h.apply_write(&pair(ts, ts), &BTreeSet::new(), 1);
            }
        }
        hs
    }

    /// Views over histories of several chunks, for `byzantine_fast(1)`:
    /// `(histories, highest_ts)`.
    fn multi_chunk_views(rqs: &Rqs) -> Vec<(Vec<History>, Timestamp)> {
        const LEN: u64 = 3 * CHUNK as u64 + 1;
        let q2 = BTreeSet::from([rqs.class2_ids()[0]]);
        // The top entry alone in the newest chunk (at its head), and the
        // top at the tail of a full one.
        let at_head = long_histories(LEN);
        let at_tail = long_histories(LEN - 1);
        // A reader's write-back of an old pair, into a middle chunk.
        let mut written_back = at_head.clone();
        for h in &mut written_back[..2] {
            let old = CHUNK as u64 + 5;
            assert!(h.apply_write(&pair(old, old), &q2, 2));
        }
        // Server 2 a whole chunk behind: it holds nothing at the top.
        let mut behind = at_head.clone();
        behind[2] = long_histories(LEN - CHUNK as u64).remove(0);
        // The top pair written in round 2 with a class-2 id attached.
        let mut tagged = at_tail.clone();
        for h in &mut tagged {
            assert!(h.apply_write(&pair(LEN, LEN), &q2, 2));
        }
        // Server 3 forges another value at the top, then a ghost above
        // what round 1 fixed as `highest_ts`: both force the exact scan
        // over every chunk.
        let mut forked = at_tail.clone();
        forked[3].apply_write(&pair(LEN, 666), &BTreeSet::new(), 1);
        for h in &mut forked[..3] {
            h.apply_write(&pair(LEN, LEN), &BTreeSet::new(), 1);
        }
        let mut ghosted = at_head.clone();
        ghosted[3].apply_write(&pair(LEN + 9, 666), &BTreeSet::new(), 1);
        vec![
            (at_head, LEN),
            (at_tail, LEN - 1),
            (written_back, LEN),
            (behind, LEN),
            (tagged, LEN),
            (forked, LEN),
            (ghosted, LEN),
        ]
    }

    #[test]
    fn candidates_match_naive_definition() {
        // The memoized `candidates()` must equal the literal line-33
        // filter `safe(c) && high_cand(c)` on a messy view: a completed
        // low write, a partially-replicated middle write, a ghost above
        // highest_ts, and divergent same-ts values — and on histories
        // of several chunks.
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
        let mut views = multi_chunk_views(&rqs);
        views.push((hs, 2));
        for responded in [
            ProcessSet::universe(4),
            ProcessSet::from_indices([0, 1, 2]),
            ProcessSet::empty(),
        ] {
            for (hs, highest_ts) in &views {
                let view = ReadView {
                    rqs: &rqs,
                    histories: hs,
                    responded,
                    highest_ts: *highest_ts,
                    qc2_prime: &[],
                };
                let naive: Vec<TsVal> = view
                    .reported_pairs()
                    .into_iter()
                    .filter(|c| view.safe(c) && view.high_cand(c))
                    .collect();
                assert_eq!(view.candidates(), naive);
                assert_eq!(naive, fig7::candidates(&view));
            }
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
            responded: ProcessSet::empty(),
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view.valid1(&c, q)); // one server ∈ B_1
        let hs2 = histories_with(4, &[(0, c.clone(), 1), (1, c.clone(), 1)]);
        let view2 = ReadView {
            rqs: &rqs,
            histories: &hs2,
            responded: ProcessSet::empty(),
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
            responded: ProcessSet::empty(),
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
            responded: ProcessSet::empty(),
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
            responded: ProcessSet::empty(),
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
            responded: ProcessSet::empty(),
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
                responded: ProcessSet::empty(),
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
            responded: ProcessSet::empty(),
            highest_ts: 1,
            qc2_prime: &qc2_prime,
        };
        let x = view.bcd2(&c, 1);
        assert_eq!(x, vec![qa], "only quorums in QC'2 qualify");
        assert!(!x.contains(&qb));
    }

    #[test]
    fn fast_select_agrees_with_the_exact_scan() {
        // Views spanning every fast-path branch: empty (top_ts == 0),
        // uncontested safe top, uncontested top with too few reporters,
        // contested top (forked slot-1 values), and an invalid ghost
        // above the real value (fast path must defer, not decide) — then
        // the same over histories of several chunks. The oracle is line
        // 35 over the literal predicates, never the fast path or a row.
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
        let mut cases: Vec<(Vec<History>, Timestamp)> = vec![
            (histories_with(4, &[]), 0),
            (histories_with(4, &all4(&real, 1)), 1),
            (histories_with(4, &[(0, real.clone(), 1)]), 1),
            (forked, 1),
            (ghosted, 1),
        ];
        cases.extend(multi_chunk_views(&rqs));
        for responded in [ProcessSet::universe(4), ProcessSet::empty()] {
            for (hs, highest_ts) in &cases {
                let view = ReadView {
                    rqs: &rqs,
                    histories: hs,
                    responded,
                    highest_ts: *highest_ts,
                    qc2_prime: &[],
                };
                assert_eq!(
                    view.select(),
                    fig7::select(&view),
                    "responded={responded:?} hs={hs:?}"
                );
            }
        }
    }

    #[test]
    fn fast_select_tri_state() {
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let c = pair(1, 42);
        let fast = |view: &ReadView<'_>| Some(view.select_top_fast()?.map(|(csel, _)| csel));
        // Nothing reported: the initial pair is the definitive answer.
        let empty = histories_with(4, &[]);
        let view = ReadView {
            rqs: &rqs,
            histories: &empty,
            responded: ProcessSet::empty(),
            highest_ts: 0,
            qc2_prime: &[],
        };
        assert_eq!(fast(&view), Some(Some(TsVal::initial())));
        // Mid-round: one reporter of an in-range pair is not yet safe —
        // definitively *no* candidate (the reader waits, not falls back).
        let thin = histories_with(4, &[(0, c.clone(), 1)]);
        let view = ReadView {
            rqs: &rqs,
            histories: &thin,
            responded: ProcessSet::empty(),
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert_eq!(fast(&view), Some(None));
        // Same view after a full quorum responded without supporting the
        // pair: the top is invalid, so the fast path must defer.
        let responded = ProcessSet::universe(4);
        let view = ReadView {
            rqs: &rqs,
            histories: &thin,
            responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert_eq!(fast(&view), None);
    }

    #[test]
    fn a_fast_decision_costs_the_same_lookups_at_every_history_length() {
        // What the end of round 1 of an uncontended read evaluates —
        // `select`, the `BCD(csel, 1, ·)` triple and the three
        // `BCD(csel, 2, ·)` sets — over four servers' own histories:
        // one `highest_ts` read and one search per server, however many
        // entries they hold. A predicate that went back to looking its
        // timestamp up per probe would multiply the count.
        let rqs = Arc::new(ThresholdConfig::byzantine_fast(1).build().unwrap());
        let n = rqs.universe_size();
        let qc2_prime: Vec<QuorumId> = rqs.class2_ids().to_vec();
        let lookups = [4u64, 700, 16_384].map(|len| {
            let hs = long_histories(len);
            let view = ReadView {
                rqs: &rqs,
                histories: &hs,
                responded: ProcessSet::universe(n),
                highest_ts: len,
                qc2_prime: &qc2_prime,
            };
            let before = LOOKUPS.get();
            let (csel, row) = view.select_row().expect("the top pair");
            let fast: Vec<bool> = (1..=3).map(|r| view.bcd1_in(&row, &csel, r)).collect();
            let x: Vec<usize> = (1..=3)
                .map(|r| view.bcd2_in(&row, &csel, r).len())
                .collect();
            let spent = LOOKUPS.get() - before;
            assert_eq!(csel, pair(len, len));
            assert_eq!(
                (fast, x),
                (vec![true, false, false], vec![qc2_prime.len(), 0, 0])
            );
            spent
        });
        assert_eq!(lookups, [2 * n; 3]);
    }

    /// The three threshold systems of the random views: n = 4 (one
    /// Byzantine server), n = 5 (crash-only) and n = 7 (graded classes).
    fn systems() -> [Rqs; 3] {
        let graded = ThresholdConfig::new(7, 2, 1).with_class1(0).with_class2(1);
        [
            ThresholdConfig::byzantine_fast(1).build().unwrap(),
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            graded.build().unwrap(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random views — benign servers holding a common run of writes
        /// to different lengths (up to a whole chunk apart), the last few
        /// timestamps in any slot with ids attached, one server forging
        /// values near the top and ghosts above `highest_ts` — on which
        /// every predicate evaluated on a row, `candidates` and `select`
        /// agree with the literal Fig. 7 forms.
        #[test]
        fn row_predicates_match_fig7(raws in prop::collection::vec(0u64..u64::MAX, 12..13)) {
            let systems = systems();
            let rqs = &systems[raws[0] as usize % 3];
            let n = rqs.universe_size();
            let c2 = rqs.class2_ids();
            let forger = (raws[0] >> 8) as usize % n;
            let top = 1 + raws[1] % (3 * CHUNK as u64 + 2);
            let mut hs = vec![History::new(); n];
            for (i, h) in hs.iter_mut().enumerate() {
                let raw = raws[2 + i];
                let lag = [0, 0, 1, 2, CHUNK as u64][raw as usize % 5].min(top);
                for ts in 1..=top - lag {
                    let near = (top - ts).min(4) as u32;
                    let bits = raw >> (8 + 8 * near);
                    let (mut rnd, mut sets) = (1, BTreeSet::new());
                    if near < 4 {
                        rnd = 1 + bits as usize % 3;
                        if bits & 4 != 0 {
                            sets.insert(c2[(bits >> 3) as usize % c2.len()]);
                        }
                    }
                    let forged = i == forger && near < 2 && bits & 64 != 0;
                    let c = pair(ts, if forged { 666 } else { ts });
                    h.apply_write(&c, &sets, rnd);
                }
            }
            let honest = |(i, h): (usize, &History)| (i != forger).then(|| h.highest_ts());
            let mut highest_ts = hs.iter().enumerate().filter_map(honest).max().unwrap();
            for ghost in [top + 1, top + 7] {
                hs[forger].apply_write(&pair(ghost, 666), &BTreeSet::new(), 1);
            }
            if raws[9] % 4 == 0 {
                highest_ts = top + 1; // the lower ghost came in before round 1 ended
            }
            let subset = |raw: u64| -> ProcessSet {
                let servers = ProcessSet::universe(n).iter();
                servers.filter(|i| raw >> i.index() & 1 != 0).collect()
            };
            let responded = subset(raws[10] | raws[10] >> 8);
            let qc2_prime: Vec<QuorumId> = rqs.class2_within(subset(raws[11])).collect();
            let view = ReadView {
                rqs,
                histories: &hs,
                responded,
                highest_ts,
                qc2_prime: &qc2_prime,
            };

            prop_assert_eq!(view.candidates(), fig7::candidates(&view));
            prop_assert_eq!(view.select(), fig7::select(&view));
            let mut probes = vec![TsVal::initial()];
            let below = |d: u64| top.saturating_sub(d);
            for ts in [top, below(1), below(2), top / 2, CHUNK as u64, top + 1, top + 7] {
                probes.extend([pair(ts, ts), pair(ts, 666)]);
            }
            for c in &probes {
                for i in ProcessSet::universe(n).iter() {
                    prop_assert_eq!(view.read_pred(c, i), fig7::read(&view, c, i), "{} {}", c, i);
                }
                prop_assert_eq!(view.readers_of(c), fig7::readers(&view, c), "readers({})", c);
                prop_assert_eq!(view.safe(c), fig7::safe(&view, c), "safe({})", c);
                prop_assert_eq!(view.invalid(c), fig7::invalid(&view, c), "invalid({})", c);
                for &q in rqs.quorums() {
                    prop_assert_eq!(view.valid1(c, q), fig7::valid1(&view, c, q), "{} {}", c, q);
                    prop_assert_eq!(view.valid2(c, q), fig7::valid2(&view, c, q), "{} {}", c, q);
                    prop_assert_eq!(view.valid3(c, q), fig7::valid3(&view, c, q), "{} {}", c, q);
                }
                for r in 1..=3 {
                    prop_assert_eq!(view.bcd1(c, r), fig7::bcd1(&view, c, r), "{} {}", c, r);
                    prop_assert_eq!(view.bcd2(c, r), fig7::bcd2(&view, c, r), "{} {}", c, r);
                }
            }
        }
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
        let responded = ProcessSet::universe(4);
        let view = ReadView {
            rqs: &rqs,
            histories: &hs,
            responded,
            highest_ts: 1,
            qc2_prime: &[],
        };
        assert!(!view.safe(&ghost));
        assert!(view.invalid(&ghost));
        assert_eq!(view.select(), Some(TsVal::initial()));
    }
}
