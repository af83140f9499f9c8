//! Write-ahead persistence for storage servers.
//!
//! A benign server's durable state is its [`History`]. Two record shapes
//! go through the [`rqs_store::Durable`] store:
//!
//! - **Delta groups** ([`DeltaGroup`]): one log record per *step* that
//!   changed history, carrying one [`StorageDelta`] for every effective
//!   `wr⟨ts, v, QC'2, rnd⟩` the step handled. A single-register server's
//!   step is one message, so its groups hold one delta; a multi-object
//!   server's step is every envelope it found queued, so all their
//!   writes, from however many clients, are one record and — under the
//!   write-ahead config — one sync point. The
//!   group is appended **before** any `wr_ack` of the step leaves the
//!   server, so every acknowledged write survives an amnesia crash. The
//!   store frames and checksums the record as a unit: a crash keeps a
//!   group whole or discards it whole, never a prefix of its deltas.
//! - **Snapshots**: a full encoding of one or more object histories,
//!   installed by `save_state` to compact the log.
//!
//! Replay is exact: snapshots restore slot arrays verbatim
//! ([`History::insert_slots`]) and deltas re-run the paper's
//! [`History::apply_write`] rule, which is deterministic in the original
//! message contents. Every replay path reads the log through the one
//! [`deltas`] iterator.

use crate::history::{History, Slot, SLOTS};
use crate::value::{Timestamp, TsVal, Value};
use rqs_core::QuorumId;
use rqs_store::codec::{Dec, Enc};
use rqs_store::{Recovered, StoreHandle};
use std::collections::{BTreeMap, BTreeSet};

/// Record-kind tag opening every [`DeltaGroup`] log record.
pub const GROUP_KIND: u64 = 2;

/// The minimal per-update delta a server logs before acknowledging a
/// write: exactly the fields of the `wr` message that changed history.
/// This is the decoded (replay-side) form; the write side encodes
/// straight from the message's borrowed fields ([`DeltaGroup::push`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageDelta {
    /// Object tag (0 for single-register deployments; the object id
    /// for multi-object KV servers).
    pub obj: u64,
    /// The written timestamp.
    pub ts: Timestamp,
    /// The written value.
    pub val: Value,
    /// Class-2 quorum ids attached at `rnd`.
    pub sets: BTreeSet<QuorumId>,
    /// The write round `∈ {1, 2, 3}`.
    pub rnd: usize,
}

impl StorageDelta {
    /// Reads one delta off a group record; `None` on truncation or an
    /// out-of-range round.
    fn read(d: &mut Dec<'_>) -> Option<StorageDelta> {
        let obj = d.u64()?;
        let ts = d.u64()?;
        let val = Value::from(d.bytes()?);
        let sets = d
            .u64s()?
            .into_iter()
            .map(|q| QuorumId(q as usize))
            .collect();
        let rnd = d.u64()? as usize;
        (1..=SLOTS).contains(&rnd).then_some(StorageDelta {
            obj,
            ts,
            val,
            sets,
            rnd,
        })
    }

    /// Re-runs the logged write against `h`.
    fn replay(self, h: &mut History) {
        h.apply_write(&TsVal::new(self.ts, self.val), &self.sets, self.rnd);
    }
}

/// The write-ahead record of one step: every effective write the step
/// handled, encoded as it is pushed into one buffer that is reused
/// across steps.
///
/// A group is a value owned by the server running the step — never a
/// mode of the shared [`StoreHandle`] — so two holders of one handle
/// cannot ride in each other's uncommitted record. The owner must
/// [`commit`](Self::commit) it before releasing any reply of the step.
#[derive(Clone, Debug, Default)]
pub struct DeltaGroup {
    enc: Enc,
    deltas: usize,
}

impl DeltaGroup {
    /// An empty group.
    pub fn new() -> Self {
        DeltaGroup::default()
    }

    /// Adds the delta of one effective write, encoded from the `wr`
    /// message's own fields.
    pub fn push(&mut self, obj: u64, pair: &TsVal, sets: &BTreeSet<QuorumId>, rnd: usize) {
        if self.deltas == 0 {
            self.enc.u64(GROUP_KIND);
        }
        self.enc
            .u64(obj)
            .u64(pair.ts)
            .bytes(pair.val.as_bytes())
            .u64s(sets.iter().map(|q| q.0 as u64))
            .u64(rnd as u64);
        self.deltas += 1;
    }

    /// Appends the group to `store` as one record — one sync point under
    /// the write-ahead config — and empties it for the next step. A step
    /// that changed nothing appends nothing.
    pub fn commit(&mut self, store: &StoreHandle) {
        if self.deltas == 0 {
            return;
        }
        store.append(self.enc.as_bytes(), self.deltas);
        self.enc.clear();
        self.deltas = 0;
    }
}

/// Decodes one group record; `None` — the whole group, never a prefix —
/// on any corruption (wrong kind tag, no deltas, truncation, an
/// out-of-range round).
fn decode_group(bytes: &[u8]) -> Option<Vec<StorageDelta>> {
    let mut d = Dec::new(bytes);
    if d.u64()? != GROUP_KIND {
        return None;
    }
    let mut group = Vec::new();
    loop {
        group.push(StorageDelta::read(&mut d)?);
        if d.done() {
            return Some(group);
        }
    }
}

/// Every delta in the recovered log, in log order — the one reader all
/// replay goes through. A record that fails to decode is skipped whole.
pub fn deltas(rec: &Recovered) -> impl Iterator<Item = StorageDelta> + '_ {
    rec.log.iter().filter_map(|r| decode_group(r)).flatten()
}

/// Encodes one or more `(object, history)` pairs as a snapshot blob.
///
/// Shared by single-object servers (one pair, tag 0) and KV servers
/// (every object at once), so [`decode_histories`] reads both. The blob
/// opens with the object count, which the iterator must know up front.
pub fn encode_histories<'a>(
    objs: impl IntoIterator<Item = (u64, &'a History), IntoIter: ExactSizeIterator>,
) -> Vec<u8> {
    let objs = objs.into_iter();
    let mut e = Enc::new();
    e.u64(objs.len() as u64);
    for (obj, h) in objs {
        e.u64(obj).u64(h.len() as u64);
        for (&ts, slots) in h.iter() {
            e.u64(ts);
            for slot in slots {
                e.u64(slot.pair.ts)
                    .bytes(slot.pair.val.as_bytes())
                    .u64s(slot.sets.iter().map(|q| q.0 as u64));
            }
        }
    }
    e.finish()
}

/// Decodes a [`encode_histories`] snapshot; `None` on corruption.
pub fn decode_histories(bytes: &[u8]) -> Option<Vec<(u64, History)>> {
    let mut d = Dec::new(bytes);
    let n = d.u64()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let obj = d.u64()?;
        let n_ts = d.u64()?;
        let mut h = History::new();
        for _ in 0..n_ts {
            let ts = d.u64()?;
            let mut slots: [Slot; SLOTS] = Default::default();
            for slot in slots.iter_mut() {
                let pair_ts = d.u64()?;
                let val = Value::from(d.bytes()?);
                let sets = d
                    .u64s()?
                    .into_iter()
                    .map(|q| QuorumId(q as usize))
                    .collect();
                *slot = Slot {
                    pair: TsVal::new(pair_ts, val),
                    sets,
                };
            }
            h.insert_slots(ts, slots);
        }
        out.push((obj, h));
    }
    if d.done() {
        Some(out)
    } else {
        None
    }
}

/// The histories of the recovered snapshot (empty without one, or if it
/// is corrupt).
fn snapshot_histories(rec: &Recovered) -> Vec<(u64, History)> {
    rec.snapshot
        .as_deref()
        .and_then(decode_histories)
        .unwrap_or_default()
}

/// Rebuilds object `obj`'s history from recovered store contents:
/// snapshot first (exact slots), then every matching delta in log order.
/// Returns the history and the number of deltas replayed.
pub fn restore_history(rec: &Recovered, obj: u64) -> (History, usize) {
    let mut h = snapshot_histories(rec)
        .into_iter()
        .rfind(|(o, _)| *o == obj)
        .map(|(_, h)| h)
        .unwrap_or_default();
    let mut replayed = 0;
    for delta in deltas(rec).filter(|d| d.obj == obj) {
        delta.replay(&mut h);
        replayed += 1;
    }
    (h, replayed)
}

/// Rebuilds *every* object's history from recovered store contents in
/// one pass: snapshot histories first, then each decodable delta applied
/// to its object in log order. Object-for-object equivalent to calling
/// [`restore_history`] per object, but the cost is O(snapshot + log)
/// instead of O(objects × log) — on a multi-object server with thousands
/// of objects sharing one store, the per-object rescan turns recovery
/// from milliseconds into minutes and can stall a node past its clients'
/// operation timeouts.
///
/// Returns the histories (sorted by object id) and the total number of
/// deltas replayed.
pub fn restore_histories(rec: &Recovered) -> (Vec<(u64, History)>, usize) {
    let mut map: BTreeMap<u64, History> = snapshot_histories(rec).into_iter().collect();
    let mut replayed = 0;
    for delta in deltas(rec) {
        let obj = delta.obj;
        delta.replay(map.entry(obj).or_default());
        replayed += 1;
    }
    (map.into_iter().collect(), replayed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(obj: u64, ts: Timestamp, v: u64, rnd: usize) -> StorageDelta {
        StorageDelta {
            obj,
            ts,
            val: Value::from(v),
            sets: BTreeSet::from([QuorumId(2), QuorumId(5)]),
            rnd,
        }
    }

    /// The log record a step logging `deltas` would append.
    fn record(deltas: &[StorageDelta]) -> Vec<u8> {
        let mut g = DeltaGroup::new();
        for d in deltas {
            g.push(d.obj, &TsVal::new(d.ts, d.val.clone()), &d.sets, d.rnd);
        }
        g.enc.finish()
    }

    #[test]
    fn delta_round_trips() {
        let ds = vec![delta(3, 7, 42, 2), delta(4, 1, 9, 1), delta(3, 8, 43, 3)];
        assert_eq!(decode_group(&record(&ds)), Some(ds));
        // Bottom values and empty quorum sets survive too.
        let b = StorageDelta {
            obj: 0,
            ts: 1,
            val: Value::bottom(),
            sets: BTreeSet::new(),
            rnd: 1,
        };
        assert_eq!(
            decode_group(&record(std::slice::from_ref(&b))),
            Some(vec![b])
        );
    }

    #[test]
    fn delta_rejects_corruption() {
        let d = delta(1, 2, 3, 1);
        let enc = record(&[d.clone(), delta(1, 3, 4, 2)]);
        // Truncated inside the second delta: the first is not salvaged.
        assert_eq!(decode_group(&enc[..enc.len() - 1]), None);
        let mut wrong_kind = enc.clone();
        wrong_kind[0] = 9;
        assert_eq!(decode_group(&wrong_kind), None);
        let bad_rnd = record(&[d.clone(), StorageDelta { rnd: 4, ..d }]);
        assert_eq!(decode_group(&bad_rnd), None);
        let mut trailing = enc;
        trailing.push(0);
        assert_eq!(decode_group(&trailing), None);
        // A kind tag with no delta behind it is not a group.
        assert_eq!(decode_group(&GROUP_KIND.to_le_bytes()), None);
    }

    #[test]
    fn commit_appends_one_record_and_empties_the_group() {
        let store = StoreHandle::mem();
        let mut g = DeltaGroup::new();
        g.commit(&store);
        assert_eq!(store.stats().appends, 0, "an empty step logs nothing");
        let ds = vec![delta(1, 1, 10, 1), delta(2, 1, 20, 1)];
        for d in &ds {
            g.push(d.obj, &TsVal::new(d.ts, d.val.clone()), &d.sets, d.rnd);
        }
        assert_eq!(g.deltas, 2);
        g.commit(&store);
        assert_eq!(g.deltas, 0);
        assert_eq!((store.stats().appends, store.stats().syncs), (1, 1));
        let rec = store.load();
        assert_eq!(rec.log.len(), 1);
        assert_eq!(deltas(&rec).collect::<Vec<_>>(), ds);
        // The reused buffer starts the next record from scratch.
        g.push(3, &TsVal::new(1, Value::from(30u64)), &BTreeSet::new(), 2);
        g.commit(&store);
        assert_eq!(deltas(&store.load()).count(), 3);
    }

    #[test]
    fn histories_round_trip_exactly() {
        let mut h1 = History::new();
        h1.apply_write(
            &TsVal::new(3, Value::from(30u64)),
            &BTreeSet::from([QuorumId(1)]),
            2,
        );
        h1.apply_write(&TsVal::new(5, Value::from("five")), &BTreeSet::new(), 3);
        let mut h2 = History::new();
        h2.apply_write(&TsVal::new(1, Value::from(9u64)), &BTreeSet::new(), 1);
        let blob = encode_histories([(0, &h1), (7, &h2)]);
        let back = decode_histories(&blob).unwrap();
        assert_eq!(back, vec![(0, h1), (7, h2)]);
        assert_eq!(decode_histories(&blob[..blob.len() - 2]), None);
    }

    #[test]
    fn restore_applies_snapshot_then_deltas_per_object() {
        let mut h = History::new();
        h.apply_write(&TsVal::new(1, Value::from(10u64)), &BTreeSet::new(), 1);
        let rec = Recovered {
            snapshot: Some(encode_histories([(4, &h)])),
            log: vec![
                // One group, two objects: only object 4's delta applies.
                record(&[delta(4, 2, 20, 2), delta(9, 8, 80, 1)]),
                b"garbage".to_vec(), // corrupt: skipped
            ],
        };
        let (restored, replayed) = restore_history(&rec, 4);
        assert_eq!(replayed, 1);
        assert!(restored.stores(&TsVal::new(1, Value::from(10u64)), 1));
        assert!(restored.stores(&TsVal::new(2, Value::from(20u64)), 2));
        assert!(!restored.stores(&TsVal::new(8, Value::from(80u64)), 1));
    }

    #[test]
    fn one_pass_restore_matches_per_object_rescan() {
        let mut snap_h = History::new();
        snap_h.apply_write(&TsVal::new(1, Value::from(10u64)), &BTreeSet::new(), 1);
        let mut torn_group = record(&[delta(4, 9, 90, 1), delta(9, 9, 91, 1)]);
        torn_group.truncate(torn_group.len() - 3);
        let rec = Recovered {
            snapshot: Some(encode_histories([(4, &snap_h)])),
            log: vec![
                record(&[delta(4, 2, 20, 2), delta(9, 8, 80, 1)]),
                record(&[delta(4, 3, 30, 3)]),
                torn_group, // undecodable: skipped whole by both paths
            ],
        };
        let (all, replayed) = restore_histories(&rec);
        assert_eq!(
            replayed, 3,
            "every delta of every decodable group counts once"
        );
        let ids: Vec<u64> = all.iter().map(|(o, _)| *o).collect();
        assert_eq!(ids, [4, 9]);
        for (obj, hist) in all {
            let (per_object, _) = restore_history(&rec, obj);
            assert_eq!(hist, per_object, "object {obj} diverged");
            assert!(!hist.stores(&TsVal::new(9, Value::from(90u64)), 1));
        }
    }
}
