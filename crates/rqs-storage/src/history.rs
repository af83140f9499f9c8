//! The per-server history of the shared variable.
//!
//! Each benign server stores, for every timestamp and every round slot
//! `rnd ∈ {1, 2, 3}`, the pair written in that slot plus the set of
//! class-2 quorum ids attached to it (`history_i[ts, rnd] = ⟨pair, sets⟩`,
//! Fig. 6). The paper deliberately keeps the whole history (§5 explains
//! why bounding it requires orthogonal techniques); we reproduce that
//! choice.
//!
//! Because a server answers every `rd` with its whole history (Fig. 6)
//! and keeps writing to it afterwards, [`History`] is a *persistent*
//! value: a reference-counted spine of reference-counted chunks, each
//! chunk a timestamp-sorted run of at most `CHUNK` = 32 entries (a
//! private constant, not a tuning knob), and each entry a timestamp and
//! a reference-counted array of its three slots.
//!
//! - `clone()` bumps the spine's reference count and touches no entry,
//!   so an `rd_ack` carries a snapshot for free.
//! - A write that changes a slot while a snapshot is outstanding copies
//!   the spine's chunk pointers, the one chunk it lands in — ≤ 32
//!   `(timestamp, pointer)` entries, no slot — and the slots of the one
//!   entry it changes (`Arc::make_mut` on each); every other chunk and
//!   every other entry's slots stay shared with the snapshot. A write
//!   that changes nothing copies nothing. Sharing the slot arrays is
//!   what keeps such a write cheap: with the slots inline in the chunk,
//!   every unshared chunk deep-copied 32 × 3 slots. The
//!   `snapshot_wr_drop_x16` bench (16 such writes at 64 / 1,024 /
//!   16,384 timestamps, min of 10 samples on 2 vCPUs) reads 12–16 /
//!   19–24 / 117–130 µs, against 57–71 / 61–69 / 161–162 µs with
//!   inline slots. On the repo benchmark's `sim-hot-read` workload 66 %
//!   of the timed phase's server writes land on a chunk a reader's
//!   snapshot still holds; on its threaded workloads 0.25–1.0 %.
//! - Lookup tries the newest chunk first and only then binary-searches
//!   the chunk heads: the top of a live object's history is what every
//!   read decision probes (`highest_ts`, then the row at that timestamp)
//!   and where every ascending write lands, so the common lookup touches
//!   one chunk instead of ≈ log₂(len / `CHUNK`) chunk heads, each behind
//!   its own pointer. [`History::highest_ts`] reads the same chunk's last
//!   entry. A write costs O(`CHUNK` + len / `CHUNK`) whatever order
//!   timestamps arrive in (reader write-backs and Byzantine clients write
//!   old ones).
//!
//! Invariants, kept by `Spine::insert` — the only code that adds entries:
//!
//! 1. every chunk is non-empty;
//! 2. timestamps are strictly ascending within a chunk;
//! 3. chunk heads are strictly ascending along the spine, each above the
//!    last timestamp of the chunk before it.
//!
//! Equality and `Debug` are over the entry sequence, never the chunk
//! boundaries: two histories holding the same entries are the same value
//! however they were built.

use crate::value::{Timestamp, TsVal};
use core::fmt;
use rqs_core::QuorumId;
use std::collections::BTreeSet;
use std::sync::{Arc, LazyLock};

/// Number of write-round slots per timestamp.
pub const SLOTS: usize = 3;

/// Most entries a chunk holds: what one write copies at most while a
/// snapshot is outstanding, and the divisor of the spine's length.
pub(crate) const CHUNK: usize = 32;

/// One history slot: a stored pair plus attached class-2 quorum ids.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Slot {
    /// The stored pair; `⟨0, ⊥⟩` when nothing was stored.
    pub pair: TsVal,
    /// Class-2 quorum ids attached by writers/readers (`sets` in Fig. 6).
    pub sets: BTreeSet<QuorumId>,
}

impl Slot {
    /// `true` iff nothing has been stored in this slot.
    pub fn is_empty(&self) -> bool {
        self.pair.is_initial() && self.sets.is_empty()
    }

    /// Fig. 6 line 4: a `wr` of `pair` stores into this slot only if it
    /// is untouched or already holds the same pair (a Byzantine client
    /// cannot make a benign server replace a stored pair for a timestamp).
    fn accepts(&self, pair: &TsVal) -> bool {
        self.is_empty() || self.pair == *pair
    }
}

/// What the slots of a timestamp nobody wrote read as.
static EMPTY_SLOTS: LazyLock<[Slot; SLOTS]> = LazyLock::new(Default::default);

#[cfg(test)]
thread_local! {
    /// Reads of a `History` made on this thread, one per
    /// search for a timestamp or [`History::highest_ts`] call: what the
    /// operation-count test of the read decision counts.
    pub(crate) static LOOKUPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A timestamp and its slots, which copies of a chunk share until one of
/// them writes to this timestamp.
type Entry = (Timestamp, Arc<[Slot; SLOTS]>);

/// `true` iff [`store`] with the same arguments would change a slot:
/// asked first, so that a write that changes nothing unshares nothing.
fn changes(slots: &[Slot; SLOTS], pair: &TsVal, sets: &BTreeSet<QuorumId>, rnd: usize) -> bool {
    slots[..rnd].iter().enumerate().any(|(m, slot)| {
        slot.accepts(pair) && (slot.pair != *pair || (m + 1 == rnd && !sets.is_subset(&slot.sets)))
    })
}

/// Fig. 6 lines 3–6 on one timestamp's slots: for every `m ≤ rnd` store
/// the pair where the slot accepts it, and attach `sets` at slot `rnd`.
fn store(slots: &mut [Slot; SLOTS], pair: &TsVal, sets: &BTreeSet<QuorumId>, rnd: usize) {
    for (m, slot) in slots[..rnd].iter_mut().enumerate() {
        if !slot.accepts(pair) {
            continue;
        }
        if slot.pair != *pair {
            slot.pair = pair.clone();
        }
        if m + 1 == rnd {
            slot.sets.extend(sets.iter().copied());
        }
    }
}

/// Where a timestamp's entry is, or where it would go: `(chunk, index)`.
type Place = (usize, usize);

/// The chunk pointers of a history and its entry count.
#[derive(Clone, Default)]
struct Spine {
    chunks: Vec<Arc<Vec<Entry>>>,
    len: usize,
}

impl Spine {
    /// `Ok` with the place of `ts`'s entry, or `Err` with the place
    /// [`Spine::insert`] would put it.
    fn locate(&self, ts: Timestamp) -> Result<Place, Place> {
        // Only the last chunk whose head is ≤ ts can hold ts. That is the
        // newest chunk for the top of the history, which is what reads
        // and ascending writes ask for: the older heads are searched only
        // for a timestamp below it.
        let Some((newest, older)) = self.chunks.split_last() else {
            return Err((0, 0));
        };
        let ci = if newest[0].0 <= ts {
            older.len()
        } else {
            let after = older.partition_point(|chunk| chunk[0].0 <= ts);
            after.checked_sub(1).ok_or((0, 0))?
        };
        match self.chunks[ci].binary_search_by_key(&ts, |entry| entry.0) {
            Ok(pos) => Ok((ci, pos)),
            Err(pos) => Err((ci, pos)),
        }
    }

    /// Adds `entry` at the place [`Spine::locate`] gave for its absent
    /// timestamp. A chunk with room takes it. Past a full *last* chunk a
    /// new chunk opens, so ascending writes leave every chunk full; any
    /// other full chunk splits in half first, so no order of timestamps
    /// can grow the spine by more than one chunk per `CHUNK / 2` entries.
    fn insert(&mut self, (ci, pos): Place, entry: Entry) {
        self.len += 1;
        let appends = pos == CHUNK && ci + 1 == self.chunks.len();
        match self.chunks.get_mut(ci) {
            Some(chunk) if chunk.len() < CHUNK => Arc::make_mut(chunk).insert(pos, entry),
            Some(chunk) if !appends => {
                let lo = Arc::make_mut(chunk);
                let mut hi = lo.split_off(CHUNK / 2);
                if pos <= CHUNK / 2 {
                    lo.insert(pos, entry);
                } else {
                    hi.insert(pos - CHUNK / 2, entry);
                }
                self.chunks.insert(ci + 1, Arc::new(hi));
            }
            // The first entry, or one past a full last chunk. Room for
            // exactly one: many objects hold a handful of timestamps,
            // and a chunk grows on demand.
            _ => self.chunks.push(Arc::new(vec![entry])),
        }
    }
}

/// The full history of one server (or a reader's copy of it).
///
/// Indexed by timestamp; slots are 1-based in the paper (`rnd ∈ {1,2,3}`)
/// and 1-based here too for fidelity — [`History::slot`] panics on 0.
///
/// Cloning is O(1) and a clone is a snapshot: later writes to either
/// side are invisible to the other (see the module header for what a
/// write then costs).
#[derive(Clone, Default)]
pub struct History {
    /// `None` while empty: readers build one empty history per server
    /// per read, which must allocate nothing.
    spine: Option<Arc<Spine>>,
}

impl History {
    /// An empty history (`history_i[*,*] = ⟨⟨0,⊥⟩, ∅⟩`).
    pub fn new() -> Self {
        History::default()
    }

    /// The slots stored for `ts`, if any: one search.
    fn get(&self, ts: Timestamp) -> Option<&[Slot; SLOTS]> {
        #[cfg(test)]
        LOOKUPS.with(|n| n.set(n.get() + 1));
        let spine = self.spine.as_deref()?;
        let (ci, pos) = spine.locate(ts).ok()?;
        Some(&*spine.chunks[ci][pos].1)
    }

    /// Every entry in ascending timestamp order, from either end.
    fn entries(&self) -> impl DoubleEndedIterator<Item = &Entry> {
        self.spine
            .iter()
            .flat_map(|spine| &spine.chunks)
            .flat_map(|chunk| chunk.iter())
    }

    /// All three slots of `ts` (`history_i[ts, ·]`), found with one
    /// search; a timestamp nobody wrote reads as three empty slots.
    /// `slots(ts)[rnd - 1]` is the paper's `history_i[ts, rnd]`.
    pub fn slots(&self, ts: Timestamp) -> &[Slot; SLOTS] {
        self.get(ts).unwrap_or(&EMPTY_SLOTS)
    }

    /// The slot for `(ts, rnd)`; empty slots read as the initial value.
    ///
    /// # Panics
    ///
    /// Panics if `rnd ∉ {1, 2, 3}`.
    pub fn slot(&self, ts: Timestamp, rnd: usize) -> &Slot {
        assert!((1..=SLOTS).contains(&rnd), "round slot must be 1..=3");
        &self.slots(ts)[rnd - 1]
    }

    /// The stored pair for `(ts, rnd)` (initial pair when empty).
    pub fn pair(&self, ts: Timestamp, rnd: usize) -> &TsVal {
        &self.slot(ts, rnd).pair
    }

    /// `true` iff slot `(ts, rnd)` stores exactly `pair`.
    pub fn stores(&self, pair: &TsVal, rnd: usize) -> bool {
        assert!((1..=SLOTS).contains(&rnd), "round slot must be 1..=3");
        self.get(pair.ts)
            .is_some_and(|slots| slots[rnd - 1].pair == *pair)
    }

    /// `true` iff slot `(ts, rnd)` stores `pair` with `q2` attached.
    pub fn stores_with_quorum(&self, pair: &TsVal, rnd: usize, q2: QuorumId) -> bool {
        let slot = self.slot(pair.ts, rnd);
        slot.pair == *pair && slot.sets.contains(&q2)
    }

    /// Applies a `wr⟨ts, v, QC'2, rnd⟩` message per the server pseudocode
    /// (Fig. 6, lines 3–6): for every `m ≤ rnd`, store the pair if the slot
    /// is untouched or already holds the same pair; attach the quorum ids
    /// at slot `rnd`.
    ///
    /// Returns `true` if any slot changed. A write that changes nothing —
    /// a duplicate, a resend, a pair conflicting with the stored one —
    /// copies nothing, however many snapshots are outstanding.
    ///
    /// # Panics
    ///
    /// Panics if `rnd ∉ {1, 2, 3}`.
    pub fn apply_write(&mut self, pair: &TsVal, sets: &BTreeSet<QuorumId>, rnd: usize) -> bool {
        assert!((1..=SLOTS).contains(&rnd), "round slot must be 1..=3");
        // A history that holds nothing gains an entry below, so the spine
        // allocated here is never left empty.
        let spine = self.spine.get_or_insert_with(Arc::default);
        match spine.locate(pair.ts) {
            Ok((ci, pos)) => {
                if !changes(&spine.chunks[ci][pos].1, pair, sets, rnd) {
                    return false;
                }
                let chunk = Arc::make_mut(&mut Arc::make_mut(spine).chunks[ci]);
                store(Arc::make_mut(&mut chunk[pos].1), pair, sets, rnd);
                true
            }
            // A timestamp seen for the first time always gains an entry,
            // even when no slot changes (a write-back of `⟨0,⊥⟩` carrying
            // no ids): `len` and `iter` have always counted it.
            Err(place) => {
                let mut slots = Default::default();
                let changed = changes(&slots, pair, sets, rnd);
                store(&mut slots, pair, sets, rnd);
                Arc::make_mut(spine).insert(place, (pair.ts, Arc::new(slots)));
                changed
            }
        }
    }

    /// All pairs appearing in slots 1 or 2 anywhere in the history — the
    /// candidate domain of the reader's `read(c, i)` predicate.
    pub fn reported_pairs(&self) -> Vec<TsVal> {
        let mut out: Vec<TsVal> = Vec::new();
        for (_, slots) in self.entries() {
            // Entries iterate in ascending timestamp order, so a
            // duplicate can only be among the pairs pushed for *this*
            // timestamp — no need to rescan the whole output.
            let start = out.len();
            for slot in &slots[..2] {
                if !slot.pair.is_initial() && !out[start..].contains(&slot.pair) {
                    out.push(slot.pair.clone());
                }
            }
        }
        out
    }

    /// Highest timestamp stored in slots 1 or 2 (0 when empty): the last
    /// entry of the newest chunk, unless nothing but slot 3 or quorum ids
    /// were installed there.
    pub fn highest_ts(&self) -> Timestamp {
        #[cfg(test)]
        LOOKUPS.with(|n| n.set(n.get() + 1));
        let chunks = self.spine.as_deref().map_or(&[][..], |spine| &spine.chunks);
        let mut newest_first = chunks.iter().rev().flat_map(|chunk| chunk.iter().rev());
        newest_first
            .find(|(_, slots)| slots[..2].iter().any(|s| !s.pair.is_initial()))
            .map_or(0, |&(ts, _)| ts)
    }

    /// Iterates `(timestamp, slots)` in ascending timestamp order — the
    /// snapshot-encoding view used by the durability layer.
    pub fn iter(&self) -> impl Iterator<Item = (&Timestamp, &[Slot; SLOTS])> {
        self.entries().map(|(ts, slots)| (ts, &**slots))
    }

    /// Installs the exact slot array for `ts`, replacing whatever was
    /// there. Unlike [`History::apply_write`] this does not prefix-fill
    /// or merge: it is the faithful-reconstruction primitive snapshot
    /// restore uses, where the slots were captured from a live history.
    pub fn insert_slots(&mut self, ts: Timestamp, slots: [Slot; SLOTS]) {
        let spine = Arc::make_mut(self.spine.get_or_insert_with(Arc::default));
        let slots = Arc::new(slots);
        match spine.locate(ts) {
            Ok((ci, pos)) => Arc::make_mut(&mut spine.chunks[ci])[pos].1 = slots,
            Err(place) => spine.insert(place, (ts, slots)),
        }
    }

    /// Number of timestamps with any stored slot.
    pub fn len(&self) -> usize {
        self.spine.as_ref().map_or(0, |spine| spine.len)
    }

    /// `true` iff nothing has ever been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff both are one allocation: `other` is a clone of `self`
    /// (or the reverse) that neither side has written to since.
    #[cfg(test)]
    pub(crate) fn shares_spine_with(&self, other: &History) -> bool {
        match (&self.spine, &other.spine) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        match (&self.spine, &other.spine) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.len() == other.len() && self.entries().eq(other.entries()),
        }
    }
}

impl Eq for History {}

/// Prints as the map it stands for, `History { entries: {ts: [Slot; 3]} }`:
/// state digests and model-checker fingerprints hash this text, and it
/// must not depend on where chunk boundaries fell.
impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a History);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("History")
            .field("entries", &Entries(self))
            .finish()
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history[")?;
        for (i, (ts, slots)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "ts{ts}:")?;
            for (m, slot) in slots.iter().enumerate() {
                if !slot.is_empty() {
                    write!(f, " r{}={}", m + 1, slot.pair)?;
                    if !slot.sets.is_empty() {
                        write!(f, "+{}ids", slot.sets.len())?;
                    }
                }
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    fn pair(ts: Timestamp, v: u64) -> TsVal {
        TsVal::new(ts, Value::from(v))
    }

    #[test]
    fn empty_history_reads_initial() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(*h.pair(5, 1), TsVal::initial());
        assert_eq!(h.highest_ts(), 0);
        assert!(h.reported_pairs().is_empty());
    }

    #[test]
    fn apply_write_fills_prefix_slots() {
        let mut h = History::new();
        let c = pair(3, 42);
        assert!(h.apply_write(&c, &BTreeSet::new(), 2));
        // Rounds 1 and 2 both store the pair; round 3 untouched.
        assert!(h.stores(&c, 1));
        assert!(h.stores(&c, 2));
        assert!(!h.stores(&c, 3));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn sets_attach_only_at_message_round() {
        let mut h = History::new();
        let c = pair(1, 9);
        let mut sets = BTreeSet::new();
        sets.insert(QuorumId(4));
        h.apply_write(&c, &sets, 2);
        assert!(h.slot(1, 1).sets.is_empty());
        assert!(h.stores_with_quorum(&c, 2, QuorumId(4)));
        assert!(!h.stores_with_quorum(&c, 2, QuorumId(5)));
    }

    #[test]
    fn conflicting_pair_does_not_overwrite() {
        let mut h = History::new();
        let c = pair(1, 7);
        let forged = pair(1, 8);
        h.apply_write(&c, &BTreeSet::new(), 1);
        let changed = h.apply_write(&forged, &BTreeSet::new(), 1);
        assert!(!changed);
        assert!(h.stores(&c, 1));
        assert!(!h.stores(&forged, 1));
    }

    #[test]
    fn same_pair_accumulates_sets() {
        let mut h = History::new();
        let c = pair(2, 5);
        let mut s1 = BTreeSet::new();
        s1.insert(QuorumId(0));
        let mut s2 = BTreeSet::new();
        s2.insert(QuorumId(1));
        h.apply_write(&c, &s1, 1);
        h.apply_write(&c, &s2, 1);
        let slot = h.slot(2, 1);
        assert_eq!(slot.sets.len(), 2);
        // re-applying the same set is a no-op
        assert!(!h.apply_write(&c, &s2, 1));
    }

    #[test]
    fn reported_pairs_and_highest_ts() {
        let mut h = History::new();
        h.apply_write(&pair(1, 10), &BTreeSet::new(), 1);
        h.apply_write(&pair(4, 40), &BTreeSet::new(), 2);
        let pairs = h.reported_pairs();
        assert_eq!(pairs.len(), 2);
        assert_eq!(h.highest_ts(), 4);
    }

    #[test]
    fn slot3_only_write_not_reported() {
        // reported_pairs/highest_ts scan slots 1 and 2 only (the reader's
        // read(c,i) predicate); but apply_write at rnd=3 fills 1 and 2 too,
        // so craft a slot-3-only state via a forged server: not possible
        // through apply_write — verify the prefix-fill makes it visible.
        let mut h = History::new();
        h.apply_write(&pair(2, 20), &BTreeSet::new(), 3);
        assert!(h.stores(&pair(2, 20), 3));
        assert_eq!(h.highest_ts(), 2);
    }

    #[test]
    #[should_panic(expected = "round slot")]
    fn slot_zero_panics() {
        let h = History::new();
        let _ = h.slot(1, 0);
    }

    #[test]
    fn display() {
        let mut h = History::new();
        h.apply_write(&pair(1, 10), &BTreeSet::new(), 1);
        let s = h.to_string();
        assert!(s.contains("ts1"), "{s}");
    }

    /// `len` timestamps `1..=len` written in ascending order, round 1.
    fn ascending(len: u64) -> History {
        let mut h = History::new();
        for ts in 1..=len {
            h.apply_write(&pair(ts, ts), &BTreeSet::new(), 1);
        }
        h
    }

    fn chunks(h: &History) -> &[Arc<Vec<Entry>>] {
        h.spine.as_ref().map_or(&[], |spine| &spine.chunks)
    }

    /// How many chunks of `a` are the very allocation `b` holds at the
    /// same index.
    fn shared_chunks(a: &History, b: &History) -> usize {
        let pairs = chunks(a).iter().zip(chunks(b));
        pairs.filter(|(x, y)| Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn empty_history_allocates_nothing() {
        assert!(History::new().spine.is_none());
        assert!(History::new().clone().spine.is_none());
    }

    #[test]
    fn effective_write_unshares_exactly_one_chunk() {
        let mut h = ascending(8 * CHUNK as u64);
        let n = chunks(&h).len();
        assert_eq!(n, 8, "ascending writes fill every chunk");
        // Old timestamp (a reader's write-back), then the newest.
        for ts in [3 * CHUNK as u64 + 5, 8 * CHUNK as u64] {
            let snapshot = h.clone();
            assert!(h.shares_spine_with(&snapshot));
            assert!(h.apply_write(&pair(ts, ts), &BTreeSet::from([QuorumId(1)]), 2));
            assert!(!h.shares_spine_with(&snapshot));
            assert_eq!(chunks(&h).len(), n);
            assert_eq!(shared_chunks(&h, &snapshot), n - 1);
            assert!(
                snapshot.slot(ts, 2).is_empty(),
                "the snapshot kept its value"
            );
            assert!(h.stores_with_quorum(&pair(ts, ts), 2, QuorumId(1)));
        }
        // A new timestamp past the full last chunk: every old chunk stays
        // shared and the new entry gets a chunk of its own.
        let snapshot = h.clone();
        let ts = 8 * CHUNK as u64 + 1;
        assert!(h.apply_write(&pair(ts, ts), &BTreeSet::new(), 1));
        assert_eq!(chunks(&h).len(), n + 1);
        assert_eq!(shared_chunks(&h, &snapshot), n);
        assert_eq!((snapshot.len(), h.len()), (8 * CHUNK, 8 * CHUNK + 1));
    }

    #[test]
    fn a_write_under_a_snapshot_copies_the_slots_of_one_entry() {
        let mut h = ascending(4 * CHUNK as u64);
        let snapshot = h.clone();
        let ts = CHUNK as u64 + 5;
        assert!(h.apply_write(&pair(ts, ts), &BTreeSet::from([QuorumId(3)]), 1));
        // The chunk holding `ts` is a copy of pointers: every entry but
        // the written one still points at the snapshot's slots.
        let (mine, theirs) = (&chunks(&h)[1], &chunks(&snapshot)[1]);
        assert!(!Arc::ptr_eq(mine, theirs));
        let entries = mine.iter().zip(theirs.iter());
        let shared: Vec<bool> = entries.map(|(a, b)| Arc::ptr_eq(&a.1, &b.1)).collect();
        assert_eq!(shared.iter().filter(|&&s| !s).count(), 1);
        assert!(
            !shared[(ts - 1) as usize % CHUNK],
            "the written entry is the copy"
        );
        assert!(snapshot.slot(ts, 1).sets.is_empty());
    }

    #[test]
    fn unshared_write_copies_nothing() {
        let mut h = ascending(4 * CHUNK as u64);
        let before: Vec<*const Vec<Entry>> = chunks(&h).iter().map(Arc::as_ptr).collect();
        drop(h.clone());
        assert!(h.apply_write(&pair(7, 7), &BTreeSet::new(), 3));
        let after: Vec<*const Vec<Entry>> = chunks(&h).iter().map(Arc::as_ptr).collect();
        assert_eq!(before, after, "no snapshot outstanding: written in place");
    }

    #[test]
    fn no_op_write_keeps_spine_and_chunks_shared() {
        let mut h = ascending(4 * CHUNK as u64);
        let ids = BTreeSet::from([QuorumId(2)]);
        h.apply_write(&pair(40, 40), &ids, 1);
        let snapshot = h.clone();
        // Duplicate wr, a lower-round resend, and a conflicting forged pair.
        assert!(!h.apply_write(&pair(40, 40), &ids, 1));
        assert!(!h.apply_write(&pair(40, 40), &BTreeSet::new(), 1));
        assert!(!h.apply_write(&pair(40, 666), &ids, 1));
        assert!(h.shares_spine_with(&snapshot));
        assert_eq!(shared_chunks(&h, &snapshot), chunks(&h).len());
    }

    #[test]
    fn long_history_clones_without_touching_an_entry() {
        let h = ascending(16_384);
        let snapshot = h.clone();
        assert!(h.shares_spine_with(&snapshot));
        assert_eq!(Arc::strong_count(h.spine.as_ref().unwrap()), 2);
        assert!(
            chunks(&h).iter().all(|c| Arc::strong_count(c) == 1),
            "a clone must not reach the chunks"
        );
        assert_eq!(snapshot, h);
    }

    #[test]
    fn a_full_middle_chunk_splits_in_half() {
        // Even timestamps fill four chunks; an odd one lands inside the
        // second, which is full and not last.
        let mut h = History::new();
        for ts in 1..=4 * CHUNK as u64 {
            h.apply_write(&pair(2 * ts, ts), &BTreeSet::new(), 1);
        }
        let snapshot = h.clone();
        let odd = 2 * (CHUNK as u64 + 3) + 1;
        assert!(h.apply_write(&pair(odd, 0), &BTreeSet::new(), 1));
        let lens: Vec<usize> = chunks(&h).iter().map(|c| c.len()).collect();
        assert_eq!(lens, [CHUNK, CHUNK / 2 + 1, CHUNK / 2, CHUNK, CHUNK]);
        assert_eq!(snapshot.len() + 1, h.len());
        assert!(h.iter().map(|(ts, _)| *ts).is_sorted());
    }

    /// The plain representation `History` replaced, kept as the oracle:
    /// a `BTreeMap` and the Fig. 6 rule spelled out on it.
    #[derive(Clone, Default, Debug)]
    struct Model(BTreeMap<Timestamp, [Slot; SLOTS]>);

    impl Model {
        fn apply_write(&mut self, pair: &TsVal, sets: &BTreeSet<QuorumId>, rnd: usize) -> bool {
            let slots = self.0.entry(pair.ts).or_default();
            let mut changed = false;
            for m in 1..=rnd {
                let slot = &mut slots[m - 1];
                if (slot.pair.is_initial() && slot.sets.is_empty()) || slot.pair == *pair {
                    if slot.pair != *pair {
                        slot.pair = pair.clone();
                        changed = true;
                    }
                    if m == rnd && !sets.is_empty() {
                        let before = slot.sets.len();
                        slot.sets.extend(sets.iter().copied());
                        changed |= slot.sets.len() != before;
                    }
                }
            }
            changed
        }

        fn reported_pairs(&self) -> Vec<TsVal> {
            let mut out: Vec<TsVal> = Vec::new();
            for slots in self.0.values() {
                let (first, second) = (&slots[0].pair, &slots[1].pair);
                if !first.is_initial() {
                    out.push(first.clone());
                }
                if !second.is_initial() && second != first {
                    out.push(second.clone());
                }
            }
            out
        }

        fn highest_ts(&self) -> Timestamp {
            let written = |slots: &[Slot; SLOTS]| slots[..2].iter().any(|s| !s.pair.is_initial());
            let mut tss = self.0.iter().filter(|(_, s)| written(s)).map(|(&ts, _)| ts);
            tss.next_back().unwrap_or(0)
        }
    }

    /// Everything observable about `h` agrees with `m`; probes the slot
    /// accessors around `near`, and the lookup at every chunk boundary.
    fn agrees(h: &History, m: &Model, near: Timestamp) -> Result<(), TestCaseError> {
        // A head is found in its own chunk — the newest without a search
        // of the older heads — one below it in the chunk before, one
        // above the last entry nowhere.
        let empty = <[Slot; SLOTS]>::default();
        let heads = chunks(h).iter().map(|chunk| chunk[0].0);
        let last = m.0.keys().next_back().copied().unwrap_or(0);
        for edge in heads.chain([last]) {
            for ts in edge.saturating_sub(1)..=edge + 1 {
                prop_assert_eq!(h.slots(ts), m.0.get(&ts).unwrap_or(&empty), "slots({})", ts);
            }
        }
        prop_assert!(h.iter().eq(m.0.iter()), "iter: {h:?} vs {m:?}");
        prop_assert_eq!(h.len(), m.0.len());
        prop_assert_eq!(h.is_empty(), m.0.is_empty());
        prop_assert_eq!(h.highest_ts(), m.highest_ts());
        prop_assert_eq!(h.reported_pairs(), m.reported_pairs());
        prop_assert_eq!(
            format!("{h:?}"),
            format!("History {{ entries: {:?} }}", m.0)
        );
        for ts in near.saturating_sub(1)..=near + 1 {
            let slots = m.0.get(&ts).unwrap_or(&empty);
            for rnd in 1..=SLOTS {
                let slot = &slots[rnd - 1];
                prop_assert_eq!(h.slot(ts, rnd), slot);
                prop_assert_eq!(h.pair(ts, rnd), &slot.pair);
                for c in [&slot.pair, &pair(ts, ts), &pair(ts, 31_337)] {
                    let stored = m.0.get(&c.ts).map(|slots| &slots[rnd - 1]);
                    let stored = stored.filter(|slot| slot.pair == *c);
                    prop_assert_eq!(h.stores(c, rnd), stored.is_some());
                    for q in (0..4).map(QuorumId) {
                        let attached = stored.is_some_and(|slot| slot.sets.contains(&q));
                        prop_assert_eq!(h.stores_with_quorum(c, rnd, q), attached);
                    }
                }
            }
        }
        Ok(())
    }

    /// The chunk invariants of the module header.
    fn well_formed(h: &History) -> Result<(), TestCaseError> {
        let Some(spine) = &h.spine else {
            return Ok(());
        };
        prop_assert!(
            !spine.chunks.is_empty(),
            "an allocated spine holds an entry"
        );
        let total: usize = spine.chunks.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, spine.len);
        prop_assert!(spine.chunks.iter().all(|c| (1..=CHUNK).contains(&c.len())));
        let tss = spine.chunks.iter().flat_map(|c| c.iter()).map(|e| e.0);
        prop_assert!(tss.is_sorted_by(|a, b| a < b), "strictly ascending");
        // No order of arrival may degrade the spine to a chunk per entry.
        prop_assert!(spine.chunks.len() <= 1 + 4 * spine.len / CHUNK);
        Ok(())
    }

    fn ids(raw: u64) -> BTreeSet<QuorumId> {
        match raw % 4 {
            0 | 1 => BTreeSet::new(),
            2 => BTreeSet::from([QuorumId((raw >> 2) as usize % 4)]),
            _ => BTreeSet::from([QuorumId(0), QuorumId((raw >> 2) as usize % 4)]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random interleavings of writes in every timestamp order, exact
        /// slot installs and snapshots, against the `BTreeMap` model: the
        /// live history agrees with the model after every step, and every
        /// snapshot still equals the model copy taken with it — whichever
        /// of the two sides went on being written.
        #[test]
        fn history_matches_a_btreemap_model(
            raws in prop::collection::vec(0u64..u64::MAX, 2 * CHUNK..6 * CHUNK)
        ) {
            // 4 × CHUNK even timestamps first, so that every chunk is full
            // and the odd ones drawn below split them.
            const MID: Timestamp = 1_000;
            let mut h = History::new();
            let mut m = Model::default();
            for (written, ts) in (MID..).step_by(2).take(4 * CHUNK).enumerate() {
                // Empty, one entry, one full chunk, one entry past it.
                if [0, 1, CHUNK, CHUNK + 1].contains(&written) {
                    agrees(&h, &m, ts)?;
                }
                h.apply_write(&pair(ts, ts), &BTreeSet::new(), 1);
                m.apply_write(&pair(ts, ts), &BTreeSet::new(), 1);
            }
            agrees(&h, &m, MID)?;
            let (mut up, mut down, mut last) = (MID + 8 * CHUNK as u64, MID, MID);
            let mut snapshots: Vec<(History, Model)> = Vec::new();
            for raw in raws {
                let ts = match (raw >> 4) % 8 {
                    0 | 1 => { up += 1 + (raw >> 40) % 3; up }
                    2 | 3 => { down -= 1 + (raw >> 40) % 3; down }
                    4 => last,
                    5 => 0,
                    _ => MID - 40 + (raw >> 40) % (10 * CHUNK as u64),
                };
                last = ts;
                let rnd = 1 + (raw >> 8) as usize % SLOTS;
                match raw % 16 {
                    0 if snapshots.len() < 6 => snapshots.push((h.clone(), m.clone())),
                    // Carry on with a snapshot; what was live becomes one.
                    1 if !snapshots.is_empty() => {
                        let pick = (raw >> 8) as usize % snapshots.len();
                        let (sh, sm) = &mut snapshots[pick];
                        std::mem::swap(&mut h, sh);
                        std::mem::swap(&mut m, sm);
                    }
                    2 => {
                        let slots: [Slot; SLOTS] = std::array::from_fn(|i| Slot {
                            pair: pair(ts, raw >> (12 + 4 * i) & 3),
                            sets: ids(raw >> (24 + 4 * i)),
                        });
                        h.insert_slots(ts, slots.clone());
                        m.0.insert(ts, slots);
                    }
                    _ => {
                        let c = match (ts, (raw >> 20) % 8) {
                            (0, 1..) => TsVal::initial(),
                            (_, 0) => pair(ts, ts + 7_777),
                            _ => pair(ts, ts),
                        };
                        let sets = ids(raw >> 12);
                        prop_assert_eq!(
                            h.apply_write(&c, &sets, rnd),
                            m.apply_write(&c, &sets, rnd),
                            "apply_write({}, {:?}, {})", c, sets, rnd
                        );
                    }
                }
                agrees(&h, &m, ts)?;
                well_formed(&h)?;
                for (sh, sm) in &snapshots {
                    prop_assert!(sh.iter().eq(sm.0.iter()), "a snapshot moved");
                    prop_assert_eq!(sh == &h, sm.0 == m.0);
                }
            }
            // Same entries through another route (one ascending pass, so
            // other chunk boundaries): the same value, the same text.
            let mut rebuilt = History::new();
            for (&ts, slots) in &m.0 {
                rebuilt.insert_slots(ts, slots.clone());
            }
            well_formed(&rebuilt)?;
            prop_assert_eq!(&h, &rebuilt);
            prop_assert_eq!(
                crate::wal::encode_histories([(0, &h)]),
                crate::wal::encode_histories([(0, &rebuilt)])
            );
            prop_assert_eq!(format!("{h:#?}"), format!("{rebuilt:#?}"));
            for (sh, sm) in &snapshots {
                agrees(sh, sm, MID)?;
            }
        }
    }
}
