//! Incremental (streaming) atomicity checking.
//!
//! [`AtomicityChecker`] is a stateful sink over the same SWMR
//! characterization as [`crate::atomicity`]: it consumes completed
//! [`OpRecord`]s **in any order**, one at a time, and reports the same
//! [`AtomicityViolation`] taxonomy at the moment the offending operation
//! arrives. Feeding every op and calling [`AtomicityChecker::finish`]
//! yields exactly the verdict of the offline whole-history pass — which
//! is now implemented as a thin wrapper over this sink — but each op
//! costs O(log n) amortized instead of O(n):
//!
//! - a **write-timestamp index** (`writes`) checks timestamp uniqueness
//!   and value agreement in one lookup;
//! - reads whose source write has not arrived yet wait in a **pending**
//!   buffer; they are re-validated when the write shows up and condemned
//!   as fabricated once it provably never can;
//! - the real-time rule (`o1` completes before `o2` is invoked ⇒
//!   `ts(o1) ≤ ts(o2)`) is enforced against two *Pareto staircases*: the
//!   prefix-maximum of timestamps keyed by completion time (what is the
//!   largest timestamp among ops that completed before I was invoked?)
//!   and the suffix-minimum keyed by invocation time (did anyone invoked
//!   after I completed return a smaller timestamp?). Dominated entries
//!   are discarded on insertion, so each staircase holds only the
//!   current frontier.
//!
//! ## Retirement (bounded memory)
//!
//! Long-running drivers call [`AtomicityChecker::retire_before`]`(W)`
//! with a watermark `W` such that **every op fed afterwards was invoked
//! at or after `W`**. Everything that completed before `W` is then
//! provably real-time-ordered before all future ops, so the checker
//! folds it into two scalars — the maximum retired timestamp (with the
//! op that achieved it, kept as the `earlier` witness for future
//! `StaleRead`s) and the largest retired *write* timestamp (the witness
//! for future duplicate-timestamp writes) — and frees the rest. Pending
//! reads that completed before `W` are condemned at that moment: any
//! matching write arriving later would be a write from the future, i.e.
//! fabricated either way. Resident state is therefore proportional to
//! the number of ops concurrent with the watermark, not to history
//! length — see [`AtomicityChecker::stats`].

use crate::atomicity::{AtomicityViolation, OpKind, OpRecord};
use crate::value::Timestamp;
use rqs_sim::Time;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Counters exposed by an [`AtomicityChecker`] (and aggregated across
/// per-object checkers by the KV layer).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckerStats {
    /// Operations fed into the sink so far.
    pub ops_checked: u64,
    /// Highest retirement watermark applied (ticks; 0 = never retired).
    pub retired_watermark: u64,
    /// Resident entries freed by retirement so far.
    pub retired_ops: u64,
    /// Peak resident entries (write index + staircases + pending reads).
    pub max_frontier: usize,
    /// Resident entries right now.
    pub resident: usize,
    /// Arrival index (0-based, among fed ops) of the op that triggered
    /// the sticky violation, if any — detection happened when that op
    /// arrived, not at a terminal scan.
    pub violation_op: Option<u64>,
}

impl CheckerStats {
    /// Folds another checker's counters into this one (sums the totals,
    /// maxes the peaks) — used to aggregate per-object checkers.
    pub fn merge(&mut self, other: &CheckerStats) {
        self.ops_checked += other.ops_checked;
        self.retired_ops += other.retired_ops;
        self.retired_watermark = self.retired_watermark.max(other.retired_watermark);
        self.max_frontier = self.max_frontier.max(other.max_frontier);
        self.resident += other.resident;
        self.violation_op = self.violation_op.or(other.violation_op);
    }
}

#[derive(Clone, Debug)]
struct WriteRec {
    op: OpRecord,
    /// Streamed as in-flight: a later completed record with the same
    /// timestamp and value *closes* it instead of colliding with it.
    open: bool,
}

/// A staircase entry: the timestamp frontier plus the op that set it
/// (kept so violations can name a concrete witness).
#[derive(Clone, Debug)]
struct StairEntry {
    ts: Timestamp,
    op: OpRecord,
}

/// Streaming SWMR atomicity checker; see the module docs.
///
/// # Examples
///
/// ```
/// use rqs_storage::{AtomicityChecker, OpKind, OpRecord, TsVal, Value};
/// use rqs_sim::Time;
///
/// let mut c = AtomicityChecker::new();
/// c.observe(&OpRecord {
///     kind: OpKind::Write,
///     client: 0,
///     pair: TsVal::new(1, Value::from(10u64)),
///     invoked_at: Time(0),
///     completed_at: Time(5),
/// });
/// c.observe(&OpRecord {
///     kind: OpKind::Read,
///     client: 1,
///     pair: TsVal::new(1, Value::from(10u64)),
///     invoked_at: Time(6),
///     completed_at: Time(8),
/// });
/// assert!(c.finish().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct AtomicityChecker {
    /// Sticky first violation.
    violation: Option<AtomicityViolation>,
    /// 0-based arrival index (among fed ops) of the offending op.
    violation_op: Option<u64>,
    /// Live writes by timestamp.
    writes: BTreeMap<Timestamp, WriteRec>,
    /// Reads whose source write has not arrived, in arrival order.
    pending: Vec<(u64, OpRecord)>,
    /// Prefix-max of ts keyed by `completed_at` (ts strictly increasing).
    max_stair: BTreeMap<Time, StairEntry>,
    /// Suffix-min of ts keyed by `invoked_at` (ts strictly increasing).
    min_stair: BTreeMap<Time, StairEntry>,
    /// Every op fed from now on is invoked at or after this time.
    watermark: Time,
    /// Largest completion time seen on a closed op (retirement horizon).
    max_completed: Time,
    /// Max-ts op retired so far: the `earlier` witness for future ops.
    retired: Option<StairEntry>,
    /// The retired write with the largest timestamp: the witness a
    /// duplicate-timestamp report names (described only then).
    retired_write: Option<OpRecord>,
    ops_checked: u64,
    retired_ops: u64,
    max_frontier: usize,
}

impl AtomicityChecker {
    /// An empty sink.
    pub fn new() -> Self {
        AtomicityChecker::default()
    }

    /// Feeds one completed operation. A write that never completed may be
    /// fed with a [`Time::FAR_FUTURE`] completion, exactly as the offline
    /// checker accepts it.
    pub fn observe(&mut self, op: &OpRecord) {
        self.observe_inner(op, false);
    }

    /// Feeds a write known to be in flight (recorded with a far-future
    /// completion). Unlike [`observe`](Self::observe), a later completed
    /// record with the same timestamp and value *closes* it — upgrading
    /// the completion time — rather than colliding with it. Re-feeding
    /// the same open write is a no-op, so drivers may report in-progress
    /// state on every harvest.
    pub fn observe_open_write(&mut self, op: &OpRecord) {
        debug_assert_eq!(op.kind, OpKind::Write);
        if let Some(rec) = self.writes.get(&op.pair.ts) {
            if rec.open && rec.op.pair.val == op.pair.val {
                return;
            }
        }
        self.observe_inner(op, true);
    }

    fn observe_inner(&mut self, op: &OpRecord, open: bool) {
        let index = self.ops_checked;
        self.ops_checked += 1;
        if self.violation.is_some() {
            return;
        }
        match op.kind {
            OpKind::Write => self.observe_write(op, open, index),
            OpKind::Read => self.observe_read(op, index),
        }
        let resident = self.resident_ops();
        self.max_frontier = self.max_frontier.max(resident);
    }

    fn observe_write(&mut self, op: &OpRecord, open: bool, index: u64) {
        let ts = op.pair.ts;
        if let Some(rec) = self.writes.get_mut(&ts) {
            if rec.open && !open && rec.op.pair.val == op.pair.val {
                // The completion of a write previously fed in-flight.
                rec.op.completed_at = op.completed_at;
                rec.op.invoked_at = rec.op.invoked_at.min(op.invoked_at);
                rec.open = false;
                let closed = rec.op.clone();
                self.note_completed(&closed);
                // Its invocation-side real-time check ran when it was
                // opened; completing only adds the other direction.
                if self.check_as_earlier(&closed, index) {
                    return;
                }
                self.index_completed(&closed);
                return;
            }
            let detail = format!(
                "{} and {} share timestamp {}",
                rec.op.describe(),
                op.describe(),
                ts
            );
            self.fail(AtomicityViolation::Inconsistent { detail }, index);
            return;
        }
        if let Some(retired) = self.retired_write.as_ref().filter(|w| w.pair.ts == ts) {
            let detail = format!(
                "{} and {} share timestamp {}",
                retired.describe(),
                op.describe(),
                ts
            );
            self.fail(AtomicityViolation::Inconsistent { detail }, index);
            return;
        }
        // Re-validate reads that were waiting for this write.
        let resolved: Vec<(u64, OpRecord)> = {
            let (hit, miss): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|(_, r)| r.pair.ts == ts);
            self.pending = miss;
            hit
        };
        for (ridx, read) in resolved {
            if read.pair.val != op.pair.val {
                let detail = format!(
                    "{} returned {} but the write with that timestamp wrote {}",
                    read.describe(),
                    read.pair,
                    op.pair
                );
                self.fail(AtomicityViolation::Inconsistent { detail }, ridx);
                return;
            }
            if op.invoked_at > read.completed_at {
                let read = read.describe();
                self.fail(AtomicityViolation::Fabricated { read }, ridx);
                return;
            }
        }
        self.writes.insert(
            ts,
            WriteRec {
                op: op.clone(),
                open,
            },
        );
        if !open {
            self.note_completed(op);
        }
        if self.real_time_checks(op, open, index) {
            return;
        }
        self.index_invoked(op);
        if !open {
            self.index_completed(op);
        }
    }

    fn observe_read(&mut self, op: &OpRecord, index: u64) {
        self.note_completed(op);
        if !op.pair.is_initial() {
            match self.writes.get(&op.pair.ts) {
                Some(rec) => {
                    if rec.op.pair.val != op.pair.val {
                        let detail = format!(
                            "{} returned {} but the write with that timestamp wrote {}",
                            op.describe(),
                            op.pair,
                            rec.op.pair
                        );
                        self.fail(AtomicityViolation::Inconsistent { detail }, index);
                        return;
                    }
                    if rec.op.invoked_at > op.completed_at {
                        let read = op.describe();
                        self.fail(AtomicityViolation::Fabricated { read }, index);
                        return;
                    }
                }
                None => {
                    // The source write has not arrived (or was retired,
                    // in which case the real-time check below fires: all
                    // retired writes are older than the retired anchor).
                    if self.real_time_checks(op, false, index) {
                        return;
                    }
                    self.pending.push((index, op.clone()));
                    self.index_invoked(op);
                    self.index_completed(op);
                    return;
                }
            }
        }
        if self.real_time_checks(op, false, index) {
            return;
        }
        self.index_invoked(op);
        self.index_completed(op);
    }

    /// Real-time checks with `op` as the *later* operation (against the
    /// retired summary and the prefix-max staircase) and — unless it is
    /// an open write with no completion yet — as the *earlier* one.
    /// Returns `true` if a violation was recorded.
    fn real_time_checks(&mut self, op: &OpRecord, open: bool, index: u64) -> bool {
        if let Some(anchor) = &self.retired {
            if anchor.ts > op.pair.ts && anchor.op.completed_at < op.invoked_at {
                let v = AtomicityViolation::StaleRead {
                    earlier: anchor.op.describe(),
                    later: op.describe(),
                };
                self.fail(v, index);
                return true;
            }
        }
        if let Some((_, e)) = self.max_stair.range(..op.invoked_at).next_back() {
            if e.ts > op.pair.ts {
                let v = AtomicityViolation::StaleRead {
                    earlier: e.op.describe(),
                    later: op.describe(),
                };
                self.fail(v, index);
                return true;
            }
        }
        if !open && self.check_as_earlier(op, index) {
            return true;
        }
        false
    }

    /// Did anyone invoked after `op` completed return a smaller
    /// timestamp? (`op` as `o1` of the real-time rule.)
    fn check_as_earlier(&mut self, op: &OpRecord, index: u64) -> bool {
        if let Some((_, e)) = self
            .min_stair
            .range((Excluded(op.completed_at), Unbounded))
            .next()
        {
            if e.ts < op.pair.ts {
                let v = AtomicityViolation::StaleRead {
                    earlier: op.describe(),
                    later: e.op.describe(),
                };
                self.fail(v, index);
                return true;
            }
        }
        false
    }

    /// Inserts into the suffix-min staircase (keyed by invocation time).
    fn index_invoked(&mut self, op: &OpRecord) {
        let (key, ts) = (op.invoked_at, op.pair.ts);
        if let Some((_, e)) = self.min_stair.range(key..).next() {
            if e.ts <= ts {
                return; // dominated: a later-or-equal invocation with a smaller ts
            }
        }
        self.min_stair
            .insert(key, StairEntry { ts, op: op.clone() });
        let dominated: Vec<Time> = self
            .min_stair
            .range(..key)
            .rev()
            .take_while(|(_, e)| e.ts >= ts)
            .map(|(&k, _)| k)
            .collect();
        for k in dominated {
            self.min_stair.remove(&k);
        }
    }

    /// Inserts into the prefix-max staircase (keyed by completion time).
    fn index_completed(&mut self, op: &OpRecord) {
        let (key, ts) = (op.completed_at, op.pair.ts);
        if let Some((_, e)) = self.max_stair.range(..=key).next_back() {
            if e.ts >= ts {
                return; // dominated: an earlier-or-equal completion with a larger ts
            }
        }
        self.max_stair
            .insert(key, StairEntry { ts, op: op.clone() });
        let dominated: Vec<Time> = self
            .max_stair
            .range((Excluded(key), Unbounded))
            .take_while(|(_, e)| e.ts <= ts)
            .map(|(&k, _)| k)
            .collect();
        for k in dominated {
            self.max_stair.remove(&k);
        }
    }

    fn note_completed(&mut self, op: &OpRecord) {
        if op.completed_at < Time::FAR_FUTURE {
            self.max_completed = self.max_completed.max(op.completed_at);
        }
    }

    fn fail(&mut self, v: AtomicityViolation, index: u64) {
        if self.violation.is_none() {
            self.violation = Some(v);
            self.violation_op = Some(index);
        }
    }

    /// Advances the watermark: the caller promises every op fed from now
    /// on was invoked at or after `watermark`. Ops that completed before
    /// it are folded into the retired summary and freed; pending reads
    /// that completed before it are condemned as fabricated (a matching
    /// write can only arrive from the future now).
    pub fn retire_before(&mut self, watermark: Time) {
        if watermark <= self.watermark {
            return;
        }
        self.watermark = watermark;
        if self.violation.is_some() {
            return;
        }
        // Fold the prefix of the prefix-max staircase: ts increases with
        // the key, so the last retired entry carries the maximum.
        let done: Vec<Time> = self.max_stair.range(..watermark).map(|(&k, _)| k).collect();
        if let Some(&last) = done.last() {
            let e = self.max_stair[&last].clone();
            if self.retired.as_ref().is_none_or(|a| e.ts > a.ts) {
                self.retired = Some(e);
            }
            for k in done {
                self.max_stair.remove(&k);
                self.retired_ops += 1;
            }
        }
        // Suffix-min entries invoked at or before the watermark can never
        // be the *later* op of a future pair (future ops complete at or
        // after their invocation, hence at or after the watermark).
        let done: Vec<Time> = self
            .min_stair
            .range(..=watermark)
            .map(|(&k, _)| k)
            .collect();
        for k in done {
            self.min_stair.remove(&k);
            self.retired_ops += 1;
        }
        // Writes that completed before the watermark are all older than
        // the retired anchor except the anchor itself, which we keep so
        // late reads of it still get exact value checking. Reads of any
        // freed write trip the anchor's real-time check instead.
        let anchor_ts = self.retired.as_ref().map_or(0, |a| a.ts);
        let dead: Vec<Timestamp> = self
            .writes
            .iter()
            .filter(|(&ts, r)| !r.open && r.op.completed_at < watermark && ts < anchor_ts)
            .map(|(&ts, _)| ts)
            .collect();
        for ts in dead {
            let rec = self.writes.remove(&ts).expect("collected above");
            if self.retired_write.as_ref().is_none_or(|w| ts > w.pair.ts) {
                self.retired_write = Some(rec.op);
            }
            self.retired_ops += 1;
        }
        let condemned: Vec<(u64, OpRecord)> = {
            let (dead, live): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|(_, r)| r.completed_at < watermark);
            self.pending = live;
            dead
        };
        if let Some((index, read)) = condemned.into_iter().next() {
            let read = read.describe();
            self.fail(AtomicityViolation::Fabricated { read }, index);
        }
    }

    /// Retires everything that completed before the latest completion
    /// seen so far. Sound whenever the driver is *wave-structured*: at
    /// call time no operation is in flight, so everything fed later is
    /// invoked at or after the newest completion already observed.
    pub fn retire_settled(&mut self) {
        self.retire_before(self.max_completed);
    }

    /// The first definite violation observed so far, if any. Pending
    /// reads are *not* condemned here — their write may still arrive; use
    /// [`verdict`](Self::verdict) or [`finish`](Self::finish) for the
    /// complete-history judgement.
    pub fn violation(&self) -> Option<&AtomicityViolation> {
        self.violation.as_ref()
    }

    /// Arrival index (0-based, among fed ops) of the op that triggered
    /// the violation — evidence that detection happened at arrival time,
    /// not at a terminal scan.
    pub fn violation_op(&self) -> Option<u64> {
        self.violation_op
    }

    /// The verdict if the history fed so far were complete: the sticky
    /// violation, or the first pending read condemned as fabricated.
    /// Non-destructive — more ops may be fed afterwards, and a pending
    /// read whose write does arrive later is re-validated normally.
    pub fn verdict(&self) -> Result<(), AtomicityViolation> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        if let Some((_, read)) = self.pending.first() {
            return Err(AtomicityViolation::Fabricated {
                read: read.describe(),
            });
        }
        Ok(())
    }

    /// Declares the history complete: pending reads become permanent
    /// fabrications and the final verdict is returned.
    pub fn finish(&mut self) -> Result<(), AtomicityViolation> {
        if self.violation.is_none() {
            if let Some((index, read)) = self.pending.first().cloned() {
                let read = read.describe();
                self.fail(AtomicityViolation::Fabricated { read }, index);
            }
        }
        self.verdict()
    }

    /// Resident entries across the write index, both staircases and the
    /// pending buffer.
    pub fn resident_ops(&self) -> usize {
        self.writes.len() + self.pending.len() + self.max_stair.len() + self.min_stair.len()
    }

    /// Current counters.
    pub fn stats(&self) -> CheckerStats {
        CheckerStats {
            ops_checked: self.ops_checked,
            retired_watermark: self.watermark.0,
            retired_ops: self.retired_ops,
            max_frontier: self.max_frontier,
            resident: self.resident_ops(),
            violation_op: self.violation_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{TsVal, Value};

    fn write(ts: Timestamp, v: u64, inv: u64, resp: u64) -> OpRecord {
        OpRecord {
            kind: OpKind::Write,
            client: 0,
            pair: TsVal::new(ts, Value::from(v)),
            invoked_at: Time(inv),
            completed_at: Time(resp),
        }
    }

    fn read(client: usize, ts: Timestamp, v: u64, inv: u64, resp: u64) -> OpRecord {
        let pair = if ts == 0 {
            TsVal::initial()
        } else {
            TsVal::new(ts, Value::from(v))
        };
        OpRecord {
            kind: OpKind::Read,
            client,
            pair,
            invoked_at: Time(inv),
            completed_at: Time(resp),
        }
    }

    fn feed(ops: &[OpRecord]) -> AtomicityChecker {
        let mut c = AtomicityChecker::new();
        for op in ops {
            c.observe(op);
        }
        c
    }

    #[test]
    fn sequential_history_passes() {
        let mut c = feed(&[
            write(1, 10, 0, 5),
            read(1, 1, 10, 6, 8),
            write(2, 20, 9, 12),
            read(2, 2, 20, 13, 15),
        ]);
        assert!(c.finish().is_ok());
        assert_eq!(c.stats().ops_checked, 4);
    }

    #[test]
    fn violation_reported_at_arrival_not_at_finish() {
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 5));
        assert!(c.violation().is_none());
        c.observe(&read(1, 0, 0, 6, 8)); // stale: misses the completed write
        let v = c.violation().expect("detected on arrival");
        assert!(matches!(v, AtomicityViolation::StaleRead { .. }));
        assert_eq!(c.violation_op(), Some(1));
        // later ops do not disturb the sticky verdict
        c.observe(&read(2, 1, 10, 9, 11));
        assert_eq!(c.violation_op(), Some(1));
    }

    #[test]
    fn feed_order_does_not_matter() {
        // The stale pair is detected whichever of the two arrives last.
        let w = write(1, 10, 0, 5);
        let r = read(1, 0, 0, 6, 8);
        let mut fwd = feed(&[w.clone(), r.clone()]);
        let mut rev = feed(&[r, w]);
        assert!(fwd.finish().is_err());
        assert!(rev.finish().is_err());
    }

    #[test]
    fn pending_read_resolves_when_write_arrives() {
        let mut c = AtomicityChecker::new();
        c.observe(&read(1, 1, 10, 6, 8));
        assert!(c.violation().is_none());
        assert!(
            c.verdict().is_err(),
            "pending counts against a complete history"
        );
        c.observe(&write(1, 10, 0, 5));
        assert!(c.verdict().is_ok());
        assert!(c.finish().is_ok());
    }

    #[test]
    fn pending_read_with_future_write_is_fabricated() {
        let mut c = AtomicityChecker::new();
        c.observe(&read(1, 1, 10, 0, 2));
        c.observe(&write(1, 10, 5, 9)); // invoked after the read completed
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::Fabricated { .. })
        ));
    }

    #[test]
    fn open_write_closes_and_is_refeed_safe() {
        let mut c = AtomicityChecker::new();
        let mut open = write(1, 10, 0, 0);
        open.completed_at = Time::FAR_FUTURE;
        c.observe_open_write(&open);
        c.observe_open_write(&open); // harvest may re-report in-flight state
        assert_eq!(c.stats().ops_checked, 1);
        c.observe(&read(1, 1, 10, 2, 4)); // concurrent read of the open write: legal
        assert!(c.violation().is_none());
        c.observe(&write(1, 10, 0, 6)); // the completion closes the open record
        assert!(c.finish().is_ok());
        // the close upgraded the completion: a later initial read is stale
        let mut c2 = AtomicityChecker::new();
        let mut open = write(1, 10, 0, 0);
        open.completed_at = Time::FAR_FUTURE;
        c2.observe_open_write(&open);
        c2.observe(&write(1, 10, 0, 6));
        c2.observe(&read(1, 0, 0, 7, 9));
        assert!(matches!(
            c2.violation(),
            Some(AtomicityViolation::StaleRead { .. })
        ));
    }

    #[test]
    fn duplicate_write_ts_detected_live_and_retired() {
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 5));
        c.observe(&write(1, 11, 6, 9));
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::Inconsistent { .. })
        ));
        // same collision against a *retired* write
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 5));
        c.observe(&write(2, 20, 6, 9));
        c.retire_settled();
        c.observe(&write(1, 11, 10, 12));
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::Inconsistent { .. })
        ));
    }

    #[test]
    fn a_duplicate_of_a_retired_write_names_it_as_a_live_one_would() {
        let detail = |c: &AtomicityChecker| match c.violation() {
            Some(AtomicityViolation::Inconsistent { detail }) => detail.clone(),
            other => panic!("expected Inconsistent, got {other:?}"),
        };
        let dup = write(1, 11, 10, 12);
        let text = "write(client 0, ⟨1,1⟩ @[t0,t2]) and write(client 0, ⟨1,11⟩ @[t10,t12]) \
                    share timestamp 1";
        // Retired: ts 2 becomes the anchor, so ts 1 leaves the write index
        // and only the retired-write witness can name it.
        let mut c = feed(&[write(1, 1, 0, 2), write(2, 2, 3, 5), write(3, 3, 6, 9)]);
        c.retire_settled();
        assert!(!c.writes.contains_key(&1));
        c.observe(&dup);
        assert_eq!(detail(&c), text);
        // Live: the same words.
        let mut c = feed(&[write(1, 1, 0, 2)]);
        c.observe(&dup);
        assert_eq!(detail(&c), text);
    }

    #[test]
    fn retirement_keeps_verdicts_and_bounds_memory() {
        let mut c = AtomicityChecker::new();
        let mut peak_after_warmup = 0;
        for i in 1..=1000u64 {
            let t = i * 10;
            c.observe(&write(i, i, t, t + 4));
            c.observe(&read(1, i, i, t + 5, t + 8));
            c.retire_settled();
            if i == 10 {
                peak_after_warmup = c.stats().max_frontier;
            }
        }
        assert!(c.finish().is_ok());
        let stats = c.stats();
        assert_eq!(stats.ops_checked, 2000);
        assert!(
            stats.max_frontier <= peak_after_warmup,
            "frontier grew with history length: {} > {}",
            stats.max_frontier,
            peak_after_warmup
        );
        assert!(
            stats.resident <= 4,
            "resident after retirement: {}",
            stats.resident
        );
        assert!(stats.retired_ops > 1900);
    }

    #[test]
    fn stale_read_detected_across_retirement() {
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 4));
        c.observe(&write(2, 20, 5, 9));
        c.retire_settled();
        // invoked after everything retired, but returns the old pair
        c.observe(&read(1, 1, 10, 10, 12));
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::StaleRead { .. })
        ));
    }

    #[test]
    fn read_of_retired_anchor_value_checked_exactly() {
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 4));
        c.retire_settled();
        // the anchor write stays resident: a wrong value is Inconsistent
        c.observe(&read(1, 1, 99, 5, 7));
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::Inconsistent { .. })
        ));
    }

    #[test]
    fn pending_read_condemned_at_watermark() {
        let mut c = AtomicityChecker::new();
        c.observe(&read(1, 7, 99, 0, 2));
        assert!(c.violation().is_none());
        c.observe(&write(1, 10, 1, 6)); // overlaps the read: no real-time pair
        c.retire_settled();
        assert!(matches!(
            c.violation(),
            Some(AtomicityViolation::Fabricated { .. })
        ));
    }

    #[test]
    fn checker_is_cloneable_mid_stream() {
        let mut c = AtomicityChecker::new();
        c.observe(&write(1, 10, 0, 5));
        let mut branch = c.clone();
        branch.observe(&read(1, 0, 0, 6, 8));
        assert!(branch.violation().is_some());
        assert!(c.violation().is_none(), "the original is unaffected");
        c.observe(&read(1, 1, 10, 6, 8));
        assert!(c.finish().is_ok());
    }

    #[test]
    fn stats_merge_aggregates() {
        let a = feed(&[write(1, 10, 0, 5)]).stats();
        let b = feed(&[write(1, 10, 0, 5), read(1, 1, 10, 6, 8)]).stats();
        let mut m = CheckerStats::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.ops_checked, 3);
        assert_eq!(m.max_frontier, a.max_frontier.max(b.max_frontier));
    }
}
