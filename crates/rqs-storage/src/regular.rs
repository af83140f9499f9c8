//! Regular (non-atomic) storage — the paper's §6 extension.
//!
//! The concluding remarks observe that for *regular* semantics \[33\]
//! (a read returns the last completed write's value or any concurrent
//! write's value, but read inversion is allowed), Properties 1 and 3a
//! suffice and the write-back part of the reader is unnecessary:
//! [2, 21] show fast non-atomic reads need weaker conditions.
//!
//! [`RegularReader`] is the Fig. 7 reader with the entire write-back part
//! (lines 40–49) removed: it runs only the regular part (lines 20–35) and
//! returns `csel` immediately. Best-case reads are **always one round**,
//! regardless of quorum class — the price is atomicity: the
//! `read_inversion_is_possible` test exhibits two sequential reads going
//! backwards, which [`check_regularity`] accepts and the atomic checker
//! rejects.

use crate::history::History;
use crate::messages::StorageMsg;
use crate::predicates::ReadView;
use crate::value::TsVal;
use crate::writer::CLIENT_TIMEOUT;
use core::fmt;
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken};
use std::any::Any;
use std::sync::Arc;

/// Record of one completed regular read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegularReadOutcome {
    /// Reader-local operation id.
    pub read_no: u64,
    /// The selected pair.
    pub returned: TsVal,
    /// Rounds used (1 in every synchronous uncontended case).
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
}

#[derive(Debug)]
struct InProgress {
    invoked_at: Time,
    read_rnd: usize,
    acks_this_round: ProcessSet,
    responded_all: ProcessSet,
    histories: Vec<History>,
    timer: Option<TimerToken>,
    timer_expired: bool,
    qc2_prime: Vec<QuorumId>,
    highest_ts: u64,
}

/// A reader with regular (not atomic) semantics: phase 1 of Fig. 7 only.
#[derive(Debug)]
pub struct RegularReader {
    rqs: Arc<Rqs>,
    servers: Vec<NodeId>,
    read_no: u64,
    current: Option<InProgress>,
    outcomes: Vec<RegularReadOutcome>,
}

impl RegularReader {
    /// Creates a regular reader over `rqs` with universe member `i`
    /// mapped to node `servers[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `servers.len()` differs from the RQS universe size.
    pub fn new(rqs: Arc<Rqs>, servers: Vec<NodeId>) -> Self {
        assert_eq!(servers.len(), rqs.universe_size());
        RegularReader {
            rqs,
            servers,
            read_no: 0,
            current: None,
            outcomes: Vec::new(),
        }
    }

    /// Completed reads.
    pub fn outcomes(&self) -> &[RegularReadOutcome] {
        &self.outcomes
    }

    /// `true` iff no read is in progress.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Invokes `read()`.
    ///
    /// # Panics
    ///
    /// Panics if a read is in progress.
    pub fn start_read(&mut self, ctx: &mut Context<StorageMsg>) {
        assert!(self.is_idle(), "read already in progress");
        self.read_no += 1;
        let n = self.rqs.universe_size();
        let mut ip = InProgress {
            invoked_at: ctx.now(),
            read_rnd: 0,
            acks_this_round: ProcessSet::empty(),
            responded_all: ProcessSet::empty(),
            histories: vec![History::new(); n],
            timer: None,
            timer_expired: false,
            qc2_prime: Vec::new(),
            highest_ts: 0,
        };
        Self::enter_round(&mut ip, self.read_no, &self.servers, ctx);
        self.current = Some(ip);
    }

    fn enter_round(
        ip: &mut InProgress,
        read_no: u64,
        servers: &[NodeId],
        ctx: &mut Context<StorageMsg>,
    ) {
        ip.read_rnd += 1;
        ip.acks_this_round = ProcessSet::empty();
        if ip.read_rnd == 1 {
            ip.timer = Some(ctx.set_timer(CLIENT_TIMEOUT));
            ip.timer_expired = false;
        } else {
            ip.timer = None;
            ip.timer_expired = true;
        }
        ctx.broadcast(
            servers.iter().copied(),
            StorageMsg::Rd {
                read_no,
                rnd: ip.read_rnd,
            },
        );
    }

    fn try_finish(&mut self, ctx: &mut Context<StorageMsg>) {
        let Some(ip) = self.current.as_mut() else {
            return;
        };
        if !ip.timer_expired || !self.rqs.any_quorum_within(ip.acks_this_round) {
            return;
        }
        if ip.read_rnd == 1 {
            ip.highest_ts = ip
                .histories
                .iter()
                .map(History::highest_ts)
                .max()
                .unwrap_or(0);
            ip.qc2_prime = self.rqs.class2_within(ip.acks_this_round).collect();
        }
        let view = ReadView {
            rqs: &self.rqs,
            histories: &ip.histories,
            responded: ip.responded_all,
            highest_ts: ip.highest_ts,
            qc2_prime: &ip.qc2_prime,
        };
        match view.select() {
            // Regular semantics: return immediately, no write-back.
            Some(csel) => {
                let ip = self.current.take().expect("in progress");
                if let Some(t) = ip.timer {
                    ctx.cancel_timer(t);
                }
                self.outcomes.push(RegularReadOutcome {
                    read_no: self.read_no,
                    returned: csel,
                    rounds: ip.read_rnd,
                    invoked_at: ip.invoked_at,
                    completed_at: ctx.now(),
                });
            }
            None => {
                Self::enter_round(ip, self.read_no, &self.servers.clone(), ctx);
            }
        }
    }

    fn server_index(&self, node: NodeId) -> Option<ProcessId> {
        self.servers.iter().position(|&s| s == node).map(ProcessId)
    }
}

impl Automaton<StorageMsg> for RegularReader {
    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        let Some(sender) = self.server_index(from) else {
            return;
        };
        let StorageMsg::RdAck {
            read_no,
            rnd,
            history,
        } = msg
        else {
            return;
        };
        if read_no != self.read_no {
            return;
        }
        let Some(ip) = self.current.as_mut() else {
            return;
        };
        ip.histories[sender.index()] = history;
        ip.responded_all.insert(sender);
        if rnd == ip.read_rnd {
            ip.acks_this_round.insert(sender);
        }
        self.try_finish(ctx);
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<StorageMsg>) {
        if let Some(ip) = self.current.as_mut() {
            if ip.timer == Some(timer) {
                ip.timer_expired = true;
                self.try_finish(ctx);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A regularity violation.
#[derive(Clone, Debug)]
pub struct RegularityViolation {
    /// Explanation with the offending operations.
    pub detail: String,
}

impl fmt::Display for RegularityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regularity violated: {}", self.detail)
    }
}

impl std::error::Error for RegularityViolation {}

/// Checks SWMR **regularity**: every read returns the pair of a write
/// invoked before the read's response (or `⟨0,⊥⟩`), and at least as new
/// as the last write *completed before the read's invocation*. Read
/// inversion between two reads is allowed (the difference from
/// atomicity).
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_regularity(ops: &[crate::atomicity::OpRecord]) -> Result<(), RegularityViolation> {
    use crate::atomicity::OpKind;
    let writes: Vec<_> = ops.iter().filter(|o| o.kind == OpKind::Write).collect();
    for read in ops.iter().filter(|o| o.kind == OpKind::Read) {
        // Lower bound: last write completed before the read started.
        let floor = writes
            .iter()
            .filter(|w| w.completed_at < read.invoked_at)
            .map(|w| w.pair.ts)
            .max()
            .unwrap_or(0);
        if read.pair.ts < floor {
            return Err(RegularityViolation {
                detail: format!(
                    "read returned ts {} but a write with ts {} completed before it started",
                    read.pair.ts, floor
                ),
            });
        }
        if read.pair.is_initial() {
            continue;
        }
        // Upper bound: the returned pair must come from a real write
        // invoked before the read responded.
        match writes.iter().find(|w| w.pair.ts == read.pair.ts) {
            None => {
                return Err(RegularityViolation {
                    detail: format!("read returned never-written ts {}", read.pair.ts),
                });
            }
            Some(w) => {
                if w.pair.val != read.pair.val {
                    return Err(RegularityViolation {
                        detail: format!(
                            "read returned {} but the write with ts {} wrote {}",
                            read.pair, w.pair.ts, w.pair
                        ),
                    });
                }
                if w.invoked_at > read.completed_at {
                    return Err(RegularityViolation {
                        detail: format!("read returned a future write's pair {}", read.pair),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomicity::{OpKind, OpRecord};
    use crate::server::Server;
    use crate::value::Value;
    use crate::writer::Writer;
    use rqs_core::threshold::ThresholdConfig;
    use rqs_sim::{ScenarioNet, World};

    fn build(
        readers: usize,
    ) -> (
        World<StorageMsg>,
        Vec<NodeId>,
        NodeId,
        Vec<NodeId>,
        Arc<Rqs>,
    ) {
        let rqs = Arc::new(
            ThresholdConfig::new(7, 2, 1)
                .with_class1(0)
                .with_class2(1)
                .build()
                .unwrap(),
        );
        let mut world = World::new(ScenarioNet::benign());
        let servers: Vec<NodeId> = (0..7)
            .map(|_| world.add_node(Box::new(Server::new())))
            .collect();
        let writer = world.add_node(Box::new(Writer::new(rqs.clone(), servers.clone())));
        let rds: Vec<NodeId> = (0..readers)
            .map(|_| world.add_node(Box::new(RegularReader::new(rqs.clone(), servers.clone()))))
            .collect();
        (world, servers, writer, rds, rqs)
    }

    #[test]
    fn regular_read_is_one_round_even_at_class3() {
        let (mut world, servers, writer, readers, _rqs) = build(1);
        world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(5u64), ctx));
        world.run_to_quiescence();
        // Crash down to class 3 (2 crashes).
        let now = world.now();
        world.crash_at(servers[5], now);
        world.crash_at(servers[6], now);
        world.run_before(now + 1);
        world.invoke::<RegularReader>(readers[0], |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<RegularReader>(readers[0]).outcomes()[0];
        assert_eq!(out.returned.val, Value::from(5u64));
        assert_eq!(out.rounds, 1, "regular reads skip the write-back entirely");
    }

    #[test]
    fn unwritten_register_reads_bottom() {
        let (mut world, _s, _w, readers, _rqs) = build(1);
        world.invoke::<RegularReader>(readers[0], |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<RegularReader>(readers[0]).outcomes()[0];
        assert!(out.returned.is_initial());
    }

    #[test]
    fn regularity_checker_accepts_inversion() {
        // Two reads concurrent with a write return (new, old) — atomicity
        // would reject, regularity accepts.
        let w = |ts, inv, resp| OpRecord {
            kind: OpKind::Write,
            client: 0,
            pair: TsVal::new(ts, Value::from(ts)),
            invoked_at: Time(inv),
            completed_at: Time(resp),
        };
        let r = |ts, inv, resp| OpRecord {
            kind: OpKind::Read,
            client: 1,
            pair: if ts == 0 {
                TsVal::initial()
            } else {
                TsVal::new(ts, Value::from(ts))
            },
            invoked_at: Time(inv),
            completed_at: Time(resp),
        };
        let ops = vec![w(1, 0, 3), w(2, 5, 20), r(2, 6, 8), r(1, 9, 11)];
        assert!(
            crate::atomicity::check_atomicity(&ops).is_err(),
            "atomic: inversion"
        );
        assert!(check_regularity(&ops).is_ok(), "regular: inversion allowed");
    }

    #[test]
    fn regularity_checker_rejects_stale_and_fabricated() {
        let w = |ts: u64, inv, resp| OpRecord {
            kind: OpKind::Write,
            client: 0,
            pair: TsVal::new(ts, Value::from(ts)),
            invoked_at: Time(inv),
            completed_at: Time(resp),
        };
        let r = |ts: u64, inv, resp| OpRecord {
            kind: OpKind::Read,
            client: 1,
            pair: if ts == 0 {
                TsVal::initial()
            } else {
                TsVal::new(ts, Value::from(ts))
            },
            invoked_at: Time(inv),
            completed_at: Time(resp),
        };
        // Stale: write(1) completed before the read started; read → ⊥.
        let stale = vec![w(1, 0, 3), r(0, 5, 7)];
        assert!(check_regularity(&stale).is_err());
        // Fabricated ts.
        let fab = vec![w(1, 0, 3), r(9, 5, 7)];
        assert!(check_regularity(&fab).is_err());
        // Wrong value for a real ts.
        let mut wrongv = vec![w(1, 0, 3), r(1, 5, 7)];
        wrongv[1].pair.val = Value::from(999u64);
        assert!(check_regularity(&wrongv).is_err());
        // Future write.
        let future = vec![r(1, 0, 2), w(1, 5, 8)];
        assert!(check_regularity(&future).is_err());
    }

    #[test]
    fn sequential_regular_history_valid() {
        let (mut world, _s, writer, readers, _rqs) = build(2);
        let mut ops: Vec<OpRecord> = Vec::new();
        for v in 1..=3u64 {
            world.invoke::<Writer>(writer, move |w, ctx| w.start_write(Value::from(v), ctx));
            world.run_to_quiescence();
            let out = world
                .node_as::<Writer>(writer)
                .outcomes()
                .last()
                .unwrap()
                .clone();
            ops.push(OpRecord {
                kind: OpKind::Write,
                client: 0,
                pair: TsVal::new(out.ts, out.val),
                invoked_at: out.invoked_at,
                completed_at: out.completed_at,
            });
            for (ci, &rd) in readers.iter().enumerate() {
                world.invoke::<RegularReader>(rd, |r, ctx| r.start_read(ctx));
                world.run_to_quiescence();
                let out = world
                    .node_as::<RegularReader>(rd)
                    .outcomes()
                    .last()
                    .unwrap()
                    .clone();
                assert_eq!(out.returned.val, Value::from(v));
                ops.push(OpRecord {
                    kind: OpKind::Read,
                    client: 1 + ci,
                    pair: out.returned,
                    invoked_at: out.invoked_at,
                    completed_at: out.completed_at,
                });
            }
        }
        check_regularity(&ops).unwrap();
    }

    #[test]
    #[should_panic(expected = "read already in progress")]
    fn overlapping_reads_rejected() {
        let (mut world, _s, _w, readers, _rqs) = build(1);
        world.invoke::<RegularReader>(readers[0], |r, ctx| {
            r.start_read(ctx);
            r.start_read(ctx);
        });
    }
}
