//! Checker sidecar: streaming atomicity validation off the driver thread.
//!
//! [`CheckerSidecar`] owns a thread running one
//! [`AtomicityChecker`] per object.
//! Drivers on the threaded runtime hand each harvested
//! [`OpRecord`] to [`CheckerSidecar::observe`]
//! (a channel send) and keep going; the sidecar validates concurrently
//! and retires provably-ordered prefixes whenever the driver signals a
//! quiescent point ([`CheckerSidecar::retire_settled`]), so soak-length
//! runs are checked with bounded memory without slowing the workload.
//! [`CheckerSidecar::finish`] joins the thread and returns the verdict
//! plus aggregated checker counters.
//!
//! # Arrival order
//!
//! The sidecar assumes **nothing** about the order records arrive in.
//! The driver harvests a wave's completions client by client, each
//! client's across all its pipelined lanes — so records reach
//! [`CheckerSidecar::observe`] interleaved across objects and, within
//! one object, not necessarily in completion order. That is fine:
//! verdicts derive from each record's own `invoked_at`/`completed_at`
//! interval, never from arrival position (the per-object
//! [`AtomicityChecker`] accepts records in any order by contract). The
//! only ordering the driver must respect is calling
//! [`CheckerSidecar::retire_settled`] at true quiescent points — after
//! the records of the settled prefix were handed over.

use rqs_storage::{AtomicityChecker, AtomicityViolation, CheckerStats, OpRecord};
use std::collections::BTreeMap;
use std::thread::JoinHandle;

enum SidecarMsg {
    Op(u64, OpRecord),
    RetireSettled,
}

/// Final report of a sidecar run.
#[derive(Clone, Debug)]
pub struct SidecarReport {
    /// `Err((object, violation))` for the first violating object.
    pub verdict: Result<(), (u64, AtomicityViolation)>,
    /// Counters aggregated across all per-object checkers.
    pub stats: CheckerStats,
    /// Number of distinct objects observed.
    pub objects: usize,
}

/// A thread running per-object streaming atomicity checkers; see the
/// module docs.
pub struct CheckerSidecar {
    tx: crossbeam_channel::Sender<SidecarMsg>,
    handle: JoinHandle<SidecarReport>,
}

impl CheckerSidecar {
    /// Spawns the checker thread.
    pub fn spawn() -> Self {
        let (tx, rx) = crossbeam_channel::unbounded::<SidecarMsg>();
        let handle = std::thread::Builder::new()
            .name("rqs-checker-sidecar".into())
            .spawn(move || {
                let mut checkers: BTreeMap<u64, AtomicityChecker> = BTreeMap::new();
                while let Ok(msg) = rx.recv() {
                    match msg {
                        SidecarMsg::Op(object, rec) => {
                            checkers.entry(object).or_default().observe(&rec);
                        }
                        SidecarMsg::RetireSettled => {
                            for c in checkers.values_mut() {
                                c.retire_settled();
                            }
                        }
                    }
                }
                let mut verdict = Ok(());
                let mut stats = CheckerStats::default();
                let objects = checkers.len();
                for (object, c) in checkers.iter_mut() {
                    if verdict.is_ok() {
                        if let Err(v) = c.finish() {
                            verdict = Err((*object, v));
                        }
                    }
                    stats.merge(&c.stats());
                }
                SidecarReport {
                    verdict,
                    stats,
                    objects,
                }
            })
            .expect("spawn checker sidecar");
        CheckerSidecar { tx, handle }
    }

    /// Hands one completed operation of `object` to the checker thread.
    pub fn observe(&self, object: u64, rec: OpRecord) {
        let _ = self.tx.send(SidecarMsg::Op(object, rec));
    }

    /// Signals a quiescent point: nothing is in flight, so each checker
    /// may retire everything that completed before its newest completion.
    pub fn retire_settled(&self) {
        let _ = self.tx.send(SidecarMsg::RetireSettled);
    }

    /// Declares the run complete: joins the thread and returns verdict
    /// and counters.
    pub fn finish(self) -> SidecarReport {
        drop(self.tx);
        self.handle.join().expect("checker sidecar panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_sim::Time;
    use rqs_storage::{OpKind, TsVal, Value};

    fn op(kind: OpKind, ts: u64, v: u64, inv: u64, resp: u64) -> OpRecord {
        OpRecord {
            kind,
            client: 0,
            pair: if ts == 0 {
                TsVal::initial()
            } else {
                TsVal::new(ts, Value::from(v))
            },
            invoked_at: Time(inv),
            completed_at: Time(resp),
        }
    }

    #[test]
    fn clean_history_passes_with_retirement() {
        let sidecar = CheckerSidecar::spawn();
        for i in 1..=100u64 {
            let t = i * 10;
            sidecar.observe(7, op(OpKind::Write, i, i, t, t + 4));
            sidecar.observe(7, op(OpKind::Read, i, i, t + 5, t + 8));
            sidecar.retire_settled();
        }
        let report = sidecar.finish();
        assert!(report.verdict.is_ok(), "{:?}", report.verdict);
        assert_eq!(report.objects, 1);
        assert_eq!(report.stats.ops_checked, 200);
        assert!(report.stats.retired_ops > 150, "{:?}", report.stats);
        assert!(
            report.stats.max_frontier < 20,
            "frontier must stay bounded: {:?}",
            report.stats
        );
    }

    /// A wave of records for two objects, in true completion order.
    /// `i` is the wave number; timestamps/values advance with it.
    fn wave(i: u64) -> Vec<(u64, OpRecord)> {
        let t = i * 10;
        vec![
            (1, op(OpKind::Write, i, i, t, t + 4)),
            (1, op(OpKind::Read, i, i, t + 5, t + 8)),
            (2, op(OpKind::Write, i, i + 100, t, t + 4)),
            (2, op(OpKind::Read, i, i + 100, t + 5, t + 8)),
        ]
    }

    /// The harvest loop walks clients, not completion order, so the
    /// sidecar sees each wave's records permuted and interleaved across
    /// objects. Feeding every wave reversed (reads before the writes
    /// they read from, objects interleaved) must reach the same clean
    /// verdict as the in-order feed of
    /// `clean_history_passes_with_retirement`.
    #[test]
    fn reordered_feed_reaches_the_in_order_verdict() {
        let sidecar = CheckerSidecar::spawn();
        for i in 1..=50u64 {
            for (object, rec) in wave(i).into_iter().rev() {
                sidecar.observe(object, rec);
            }
            // Wave boundaries are quiescent points regardless of the
            // arrival order inside the wave.
            sidecar.retire_settled();
        }
        let report = sidecar.finish();
        assert!(report.verdict.is_ok(), "{:?}", report.verdict);
        assert_eq!(report.objects, 2);
        assert_eq!(report.stats.ops_checked, 200);
        assert!(
            report.stats.max_frontier < 20,
            "retirement must keep working under reorder: {:?}",
            report.stats
        );
    }

    /// Reordering must not mask a genuine violation either: a stale read
    /// buried mid-wave is still caught when the wave arrives reversed.
    #[test]
    fn reordered_feed_still_catches_a_stale_read() {
        let sidecar = CheckerSidecar::spawn();
        for (object, rec) in wave(1).into_iter().rev() {
            sidecar.observe(object, rec);
        }
        let mut bad = wave(2);
        // Object 1's wave-2 read returns the wave-1 value after the
        // wave-2 write completed: a stale read.
        bad[1].1 = op(OpKind::Read, 1, 1, 25, 28);
        for (object, rec) in bad.into_iter().rev() {
            sidecar.observe(object, rec);
        }
        let report = sidecar.finish();
        let (object, v) = report.verdict.unwrap_err();
        assert_eq!(object, 1);
        assert!(matches!(v, AtomicityViolation::StaleRead { .. }), "{v}");
    }

    #[test]
    fn violation_is_attributed_to_its_object() {
        let sidecar = CheckerSidecar::spawn();
        sidecar.observe(1, op(OpKind::Write, 1, 10, 0, 5));
        sidecar.observe(1, op(OpKind::Read, 1, 10, 6, 8));
        sidecar.observe(2, op(OpKind::Write, 1, 10, 0, 5));
        sidecar.observe(2, op(OpKind::Read, 0, 0, 6, 8)); // stale on object 2
        let report = sidecar.finish();
        let (object, v) = report.verdict.unwrap_err();
        assert_eq!(object, 2);
        assert!(matches!(v, AtomicityViolation::StaleRead { .. }), "{v}");
    }
}
