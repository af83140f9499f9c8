//! The single writer automaton (Fig. 5).
//!
//! A write proceeds in at most three rounds:
//!
//! 1. send `wr⟨ts, v, ∅, 1⟩` to all servers; wait for acks from some quorum
//!    *and* the `2Δ` timeout. If a class-1 quorum acked → done (1 round).
//!    Otherwise remember every class-2 quorum that acked (`QC'2`).
//! 2. send `wr⟨ts, v, QC'2, 2⟩`; wait for quorum acks and the timeout. If
//!    some quorum *from `QC'2`* acked → done (2 rounds).
//! 3. send `wr⟨ts, v, ∅, 3⟩`; wait for acks from any quorum → done.
//!
//! Discretization note: the paper's timer is `2Δ`; with `Δ = 1` tick and
//! deterministic same-tick ordering we arm it for `2Δ + 1` ticks so that
//! every ack arriving *within* the synchrony bound is counted before the
//! timer fires. Latency is measured in protocol rounds, not ticks, so this
//! changes nothing observable.
//!
//! # When a timed round ends
//!
//! The timer of rounds 1 and 2 exists to collect as many acks as the
//! synchrony bound allows before the ack set is classified. A round
//! therefore ends when its timer fires *or as soon as its outcome can no
//! longer change*, whichever is first. The ack set only grows, and each
//! early exit is the success branch of a test that is monotone in it:
//!
//! - round 1, "the acks contain a class-1 quorum" — true of every
//!   superset, so the timer could only confirm `complete(1)`;
//! - round 2, "the acks contain a quorum of `QC'2`" — `QC'2` was fixed
//!   when round 1 ended, so again every superset completes in 2 rounds;
//! - either round, "all `n` servers acked" — no superset exists, so the
//!   set the timer would classify is the one at hand (this is the only
//!   early exit that can take the *failure* branch).
//!
//! The decision is the one the timer would have produced: `rounds` per
//! write cannot change, only the tick at which it is known.

use crate::messages::StorageMsg;
use crate::value::{Timestamp, Value};
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_obs::{Obs, TraceKind, LANE_WRITER};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken, DELTA};
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Timeout used by clients: the paper's `2Δ`, plus one tick so that acks
/// arriving exactly at the synchrony bound sort before the timer.
pub const CLIENT_TIMEOUT: u64 = 2 * DELTA + 1;

/// Record of one completed write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Timestamp the writer attached.
    pub ts: Timestamp,
    /// The written value.
    pub val: Value,
    /// Rounds the write took (1, 2 or 3).
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
}

#[derive(Debug)]
struct WriteInProgress {
    val: Value,
    invoked_at: Time,
    round: usize,
    acks: ProcessSet,
    timer_expired: bool,
    timer: Option<TimerToken>,
    qc2_prime: Vec<QuorumId>,
}

/// The SWMR writer (Fig. 5).
///
/// Drive it with [`Writer::start_write`] via
/// [`World::invoke`](rqs_sim::World::invoke); completed operations
/// accumulate in [`Writer::outcomes`].
#[derive(Debug)]
pub struct Writer {
    rqs: Arc<Rqs>,
    servers: Vec<NodeId>,
    ts: Timestamp,
    current: Option<WriteInProgress>,
    outcomes: Vec<WriteOutcome>,
    obs: Obs,
    round_timeout: u64,
    /// Planted bug for the `rqs-check` mutation tests: round 1 treats a
    /// class-2 quorum of acks as if it were class 1. `false` in every
    /// normal build; only the `mutants`-gated constructor sets it.
    settle_on_class2: bool,
}

impl Writer {
    /// Creates the writer for a refined quorum system whose universe
    /// member `i` is the simulated node `servers[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `servers.len()` differs from the RQS universe size.
    pub fn new(rqs: Arc<Rqs>, servers: Vec<NodeId>) -> Self {
        assert_eq!(
            servers.len(),
            rqs.universe_size(),
            "server list must cover the RQS universe"
        );
        Writer {
            rqs,
            servers,
            ts: 0,
            current: None,
            outcomes: Vec::new(),
            obs: Obs::nop(),
            round_timeout: CLIENT_TIMEOUT,
            settle_on_class2: false,
        }
    }

    /// Mutant: a writer that completes in one round as soon as a
    /// *class-2* quorum acked round 1, skipping the round that tells
    /// servers which class-2 quorum holds the value. With `k > 0` two
    /// quorums may intersect in too few benign servers for a reader to
    /// tell that write from a forgery. For checker self-tests only.
    #[cfg(feature = "mutants")]
    pub fn new_mutant_settle_on_class2(rqs: Arc<Rqs>, servers: Vec<NodeId>) -> Self {
        let mut w = Writer::new(rqs, servers);
        w.settle_on_class2 = true;
        w
    }

    /// Overrides the per-round timer (default [`CLIENT_TIMEOUT`], the
    /// paper's `2Δ + 1`). The timeout is a synchrony assumption, not a
    /// safety ingredient: a longer timer never forfeits atomicity, it
    /// only delays the fall-back to the next round, and a shorter one
    /// may cost a round, never correctness.
    pub fn set_round_timeout(&mut self, ticks: u64) {
        assert!(ticks >= 1, "round timeout must be at least one tick");
        self.round_timeout = ticks;
    }

    /// Installs a structured-trace observer; by convention its tag is the
    /// object id this writer serves (0 for the single-object deployment).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Completed writes not yet drained, in completion order.
    pub fn outcomes(&self) -> &[WriteOutcome] {
        &self.outcomes
    }

    /// Moves the completed writes out, in completion order: a driver that
    /// takes each outcome once keeps the writer's log empty.
    pub fn drain_outcomes(&mut self) -> std::vec::Drain<'_, WriteOutcome> {
        self.outcomes.drain(..)
    }

    /// `true` iff no write is in progress.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// The timestamp of the most recent write (0 before the first).
    pub fn last_ts(&self) -> Timestamp {
        self.ts
    }

    /// The invoked-but-incomplete write, if any: `(ts, value, invoked_at)`.
    ///
    /// Atomicity checking needs this: a concurrent read may legitimately
    /// return a value whose write never completes (the writer crashed or
    /// was cut off).
    pub fn in_progress(&self) -> Option<(Timestamp, Value, Time)> {
        self.current
            .as_ref()
            .map(|w| (self.ts, w.val.clone(), w.invoked_at))
    }

    /// Invokes `write(v)`.
    ///
    /// # Panics
    ///
    /// Panics if a write is already in progress (clients are
    /// well-formed: one operation at a time, §3.1) or if `v` is `⊥`.
    pub fn start_write(&mut self, v: Value, ctx: &mut Context<StorageMsg>) {
        assert!(self.current.is_none(), "write already in progress");
        assert!(!v.is_bottom(), "⊥ is not a writable value");
        self.ts += 1;
        self.obs.emit(
            TraceKind::OpInvoked,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_WRITER,
            self.ts,
            0,
        );
        self.current = Some(WriteInProgress {
            val: v,
            invoked_at: ctx.now(),
            round: 0,
            acks: ProcessSet::empty(),
            timer_expired: false,
            timer: None,
            qc2_prime: Vec::new(),
        });
        self.enter_round(1, ctx);
    }

    /// Re-broadcasts the in-progress round's `wr` message without
    /// re-invoking the operation: the timestamp, value, round and quorum
    /// ids are exactly those of the original broadcast, so servers that
    /// already applied it re-ack idempotently and duplicate acks collapse
    /// in the round's ack [`ProcessSet`]. This is the retry seam for
    /// clients hardened against message loss and amnesia restarts: a
    /// nudge can never double-apply a write or fork its timestamp.
    ///
    /// Returns `false` (and sends nothing) when no write is in progress.
    pub fn resend_round(&mut self, ctx: &mut Context<StorageMsg>) -> bool {
        let Some(w) = self.current.as_ref() else {
            return false;
        };
        let sets: BTreeSet<QuorumId> = if w.round == 2 {
            w.qc2_prime.iter().copied().collect()
        } else {
            BTreeSet::new()
        };
        ctx.broadcast(
            self.servers.iter().copied(),
            StorageMsg::Wr {
                ts: self.ts,
                val: w.val.clone(),
                sets,
                rnd: w.round,
            },
        );
        true
    }

    fn enter_round(&mut self, round: usize, ctx: &mut Context<StorageMsg>) {
        let ts = self.ts;
        self.obs.emit(
            TraceKind::RoundStarted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_WRITER,
            round as u64,
            ts,
        );
        let w = self.current.as_mut().expect("write in progress");
        w.round = round;
        w.acks = ProcessSet::empty();
        w.timer_expired = round == 3; // no timer in round 3 (Fig. 5 line 11)
        let sets: BTreeSet<QuorumId> = if round == 2 {
            w.qc2_prime.iter().copied().collect()
        } else {
            BTreeSet::new()
        };
        if round < 3 {
            w.timer = Some(ctx.set_timer(self.round_timeout));
        } else {
            w.timer = None;
        }
        let val = w.val.clone();
        ctx.broadcast(
            self.servers.iter().copied(),
            StorageMsg::Wr {
                ts,
                val,
                sets,
                rnd: round,
            },
        );
    }

    /// Round 1's success test: the acks contain a class-1 quorum (the
    /// planted mutant also accepts a class-2 one).
    fn fast_quorum_within(&self, acks: ProcessSet) -> bool {
        self.rqs.class1_within(acks).is_some()
            || (self.settle_on_class2 && self.rqs.class2_within(acks).next().is_some())
    }

    /// Round 2's success test: the acks contain a quorum of `QC'2`.
    fn qc2_prime_within(&self, w: &WriteInProgress) -> bool {
        w.qc2_prime
            .iter()
            .any(|&q2| self.rqs.quorum(q2).is_subset_of(w.acks))
    }

    /// `true` iff no further ack can change how the timed round ends
    /// (see the module header): its success test already holds, or every
    /// server has acked.
    fn round_decided(&self, w: &WriteInProgress) -> bool {
        w.acks.len() == self.rqs.universe_size()
            || match w.round {
                1 => self.fast_quorum_within(w.acks),
                2 => self.qc2_prime_within(w),
                _ => false,
            }
    }

    fn try_finish_round(&mut self, ctx: &mut Context<StorageMsg>) {
        let Some(w) = self.current.as_ref() else {
            return;
        };
        // Fig. 5 line 12: wait for quorum acks AND timer expiration.
        if !w.timer_expired || !self.rqs.any_quorum_within(w.acks) {
            return;
        }
        let round = w.round;
        self.obs.emit(
            TraceKind::QuorumAssembled,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_WRITER,
            round as u64,
            w.acks.len() as u64,
        );
        match round {
            1 => {
                if self.fast_quorum_within(w.acks) {
                    self.complete(1, ctx);
                } else {
                    let qc2 = self.rqs.class2_within(w.acks).collect();
                    self.current.as_mut().expect("in progress").qc2_prime = qc2;
                    self.enter_round(2, ctx);
                }
            }
            2 => {
                if self.qc2_prime_within(w) {
                    self.complete(2, ctx);
                } else {
                    self.current
                        .as_mut()
                        .expect("in progress")
                        .qc2_prime
                        .clear();
                    self.enter_round(3, ctx);
                }
            }
            3 => self.complete(3, ctx),
            other => unreachable!("write round {other}"),
        }
    }

    fn complete(&mut self, rounds: usize, ctx: &mut Context<StorageMsg>) {
        // Nothing to cancel: a round ends only after its timer fired or was
        // cancelled when the round was decided (`timer_expired`).
        let w = self.current.take().expect("write in progress");
        self.obs.emit(
            TraceKind::OpCompleted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_WRITER,
            rounds as u64,
            self.ts,
        );
        self.outcomes.push(WriteOutcome {
            ts: self.ts,
            val: w.val,
            rounds,
            invoked_at: w.invoked_at,
            completed_at: ctx.now(),
        });
    }

    fn server_index(&self, node: NodeId) -> Option<ProcessId> {
        self.servers.iter().position(|&s| s == node).map(ProcessId)
    }
}

impl Automaton<StorageMsg> for Writer {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a(format!("{:?},{:?},{:?}", self.ts, self.current, self.outcomes).as_bytes())
    }

    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        let StorageMsg::WrAck { ts, rnd } = msg else {
            return; // writers ignore everything but write acks
        };
        let Some(sender) = self.server_index(from) else {
            return; // not a server — ignore
        };
        let Some(w) = self.current.as_mut() else {
            return; // stale ack after completion
        };
        if ts != self.ts || rnd != w.round {
            return; // ack for an earlier round/operation
        }
        w.acks.insert(sender);
        if !w.timer_expired && self.round_decided(self.current.as_ref().expect("in progress")) {
            let w = self.current.as_mut().expect("in progress");
            w.timer_expired = true;
            if let Some(timer) = w.timer.take() {
                ctx.cancel_timer(timer);
            }
        }
        self.try_finish_round(ctx);
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<StorageMsg>) {
        let Some(w) = self.current.as_mut() else {
            return;
        };
        if w.timer == Some(timer) {
            w.timer_expired = true;
            self.try_finish_round(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_core::threshold::ThresholdConfig;
    use rqs_sim::Time;

    fn rqs_5() -> Arc<Rqs> {
        // §1.2: n=5, t=2, k=0, class-1 at 4 servers, all quorums class 2.
        Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap())
    }

    fn servers() -> Vec<NodeId> {
        (0..5).map(NodeId).collect()
    }

    fn new_ctx(at: u64) -> Context<StorageMsg> {
        Context::new(NodeId(5), Time(at), 0)
    }

    #[test]
    fn write_broadcasts_round1() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        assert_eq!(ctx.sent().len(), 5);
        assert_eq!(w.last_ts(), 1);
        assert!(!w.is_idle());
        match &ctx.sent()[0].1 {
            StorageMsg::Wr { ts, rnd, sets, .. } => {
                assert_eq!((*ts, *rnd), (1, 1));
                assert!(sets.is_empty());
            }
            other => panic!("expected Wr, got {other:?}"),
        }
        // a timer was armed
        assert_eq!(ctx.armed_timers().len(), 1);
        assert_eq!(ctx.armed_timers()[0].0, CLIENT_TIMEOUT);
    }

    #[test]
    fn class1_acks_complete_in_one_round() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        // 3 acks are a class-2 quorum only: the timer could still reveal
        // a class-1 quorum, so the round keeps waiting…
        for i in 0..3 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
            assert!(!w.is_idle(), "undecided: must await the timer");
        }
        // …the 4th completes a class-1 quorum: decided, so the write
        // completes at ack time and cancels the still-pending timer.
        let mut c = new_ctx(2);
        w.on_message(NodeId(3), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        assert!(w.is_idle());
        assert_eq!(c.cancelled_timers(), &[timer]);
        let out = &w.outcomes()[0];
        assert_eq!(out.rounds, 1);
        assert_eq!(out.ts, 1);
        assert_eq!(out.completed_at, Time(2));
        // The straggler's ack and the stale timer are both inert.
        let mut c = new_ctx(3);
        w.on_message(NodeId(4), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        w.on_timer(timer, &mut c);
        assert_eq!(w.outcomes().len(), 1);
    }

    #[test]
    fn three_acks_go_to_round_two_and_complete() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        for i in 0..3 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        }
        let mut c = new_ctx(3);
        w.on_timer(timer, &mut c);
        // round 2 broadcast with QC'2 = the class-2 quorum {0,1,2}
        assert!(!w.is_idle());
        assert_eq!(c.sent().len(), 5);
        let round2_timer = c.armed_timers()[0].1;
        match &c.sent()[0].1 {
            StorageMsg::Wr { rnd, sets, .. } => {
                assert_eq!(*rnd, 2);
                assert!(!sets.is_empty(), "QC'2 must carry the acked class-2 quorum");
            }
            other => panic!("{other:?}"),
        }
        // The same 3 servers ack round 2: the third ack completes a
        // quorum of QC'2, which decides the round without its timer.
        for i in 0..3 {
            assert!(!w.is_idle());
            let mut c = new_ctx(5);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
            if i == 2 {
                assert_eq!(c.cancelled_timers(), &[round2_timer]);
            }
        }
        assert!(w.is_idle());
        assert_eq!(w.outcomes()[0].rounds, 2);
        assert_eq!(w.outcomes()[0].completed_at, Time(5));
    }

    #[test]
    fn acks_after_the_timer_fired_cancel_nothing() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        for i in 0..3 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        }
        let mut c = new_ctx(3);
        w.on_timer(timer, &mut c);
        assert!(c.cancelled_timers().is_empty(), "round 1: timer fired");
        // Round 2: the timer fires with two acks in, the third arrives
        // after it and completes the write. The token is dead by then:
        // cancelling it would leave a marker no firing ever clears.
        let round2_timer = c.armed_timers()[0].1;
        for i in 0..2 {
            let mut c = new_ctx(5);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
        }
        let mut c = new_ctx(6);
        w.on_timer(round2_timer, &mut c);
        assert!(!w.is_idle(), "no quorum yet");
        let mut c = new_ctx(7);
        w.on_message(NodeId(2), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
        assert!(w.is_idle());
        assert_eq!(w.outcomes()[0].rounds, 2);
        assert!(c.cancelled_timers().is_empty());
    }

    #[test]
    fn different_quorum_in_round_two_forces_round_three() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        // Round 1: servers {0,1,2} ack → QC'2 = {{0,1,2}}.
        for i in 0..3 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        }
        let mut c = new_ctx(3);
        w.on_timer(timer, &mut c);
        let round2_timer = c.armed_timers()[0].1;
        // Round 2: a DIFFERENT quorum {2,3,4} acks — not in QC'2.
        for i in 2..5 {
            let mut c = new_ctx(5);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
        }
        let mut c = new_ctx(6);
        w.on_timer(round2_timer, &mut c);
        assert!(!w.is_idle(), "must proceed to round 3");
        // Round 3: any quorum completes, no timer needed.
        for i in 2..5 {
            let mut c = new_ctx(8);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 3 }, &mut c);
        }
        assert!(w.is_idle());
        assert_eq!(w.outcomes()[0].rounds, 3);
    }

    #[test]
    fn stale_acks_ignored() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        // wrong ts
        let mut c = new_ctx(1);
        w.on_message(NodeId(0), StorageMsg::WrAck { ts: 9, rnd: 1 }, &mut c);
        // wrong round
        w.on_message(NodeId(0), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
        // non-server sender
        w.on_message(NodeId(77), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        let cur = w.current.as_ref().unwrap();
        assert!(cur.acks.is_empty());
    }

    #[test]
    fn resend_repeats_round_and_duplicate_acks_collapse() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        // Two acks arrive, then the network goes quiet.
        for i in 0..2 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        }
        // A nudge re-broadcasts round 1 verbatim: same ts, no new timer.
        let mut c = new_ctx(9);
        assert!(w.resend_round(&mut c));
        assert_eq!(c.sent().len(), 5);
        match &c.sent()[0].1 {
            StorageMsg::Wr { ts, rnd, .. } => assert_eq!((*ts, *rnd), (1, 1)),
            other => panic!("{other:?}"),
        }
        assert!(c.armed_timers().is_empty(), "resend arms no round timer");
        // A duplicate ack from server 0 does not inflate the ack set…
        let mut c = new_ctx(10);
        w.on_message(NodeId(0), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        assert_eq!(w.current.as_ref().unwrap().acks.len(), 2);
        // …while a fresh ack still counts, completing after the timer.
        let mut c = new_ctx(10);
        w.on_message(NodeId(2), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        let mut c = new_ctx(11);
        w.on_timer(timer, &mut c);
        assert!(!w.is_idle(), "3 of 5 is class-2: round 2 follows");
        assert_eq!(w.outcomes().len(), 0);
        // Idle writers have nothing to resend.
        let mut w2 = Writer::new(rqs_5(), servers());
        let mut c = new_ctx(0);
        assert!(!w2.resend_round(&mut c));
        assert!(c.sent().is_empty());
    }

    #[test]
    fn round_timeout_override_arms_the_longer_timer() {
        let mut w = Writer::new(rqs_5(), servers());
        w.set_round_timeout(4 * CLIENT_TIMEOUT);
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        assert_eq!(ctx.armed_timers()[0].0, 4 * CLIENT_TIMEOUT);
    }

    #[test]
    fn all_n_acks_settle_a_round_on_its_failure_branch() {
        // Majorities of 5 with no fast classes: round 1 can never
        // succeed, but once all n acked the timer has nothing left to
        // reveal — the round ends at the nth ack and round 2 starts.
        let rqs = Arc::new(ThresholdConfig::classic_crash(5).build().unwrap());
        let mut w = Writer::new(rqs, servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        for i in 0..4 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
            assert!(c.sent().is_empty(), "n−1 acks must still await the timer");
        }
        let mut c = new_ctx(3);
        w.on_message(NodeId(4), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        assert_eq!(c.cancelled_timers(), &[timer]);
        assert!(!w.is_idle());
        match &c.sent()[0].1 {
            StorageMsg::Wr { rnd, sets, .. } => {
                assert_eq!(*rnd, 2);
                assert!(sets.is_empty(), "no class-2 quorum exists to carry");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undecided_round_still_waits_for_the_timer() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(7u64), &mut ctx);
        let timer = ctx.armed_timers()[0].1;
        // Round 1: 3 of 5 is neither a class-1 quorum nor all n.
        for i in 0..3 {
            let mut c = new_ctx(2);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 1 }, &mut c);
        }
        assert_eq!(w.current.as_ref().unwrap().round, 1);
        let mut c = new_ctx(3);
        w.on_timer(timer, &mut c);
        let round2_timer = c.armed_timers()[0].1;
        // Round 2: a quorum outside QC'2 = {{0,1,2}} decides nothing
        // either — a QC'2 quorum could still show up.
        for i in 2..5 {
            let mut c = new_ctx(5);
            w.on_message(NodeId(i), StorageMsg::WrAck { ts: 1, rnd: 2 }, &mut c);
            assert!(c.cancelled_timers().is_empty());
        }
        assert_eq!(w.current.as_ref().unwrap().round, 2);
        assert_eq!(w.current.as_ref().unwrap().timer, Some(round2_timer));
    }

    #[test]
    #[should_panic(expected = "write already in progress")]
    fn concurrent_write_rejected() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::from(1u64), &mut ctx);
        w.start_write(Value::from(2u64), &mut ctx);
    }

    #[test]
    #[should_panic(expected = "⊥ is not a writable value")]
    fn bottom_write_rejected() {
        let mut w = Writer::new(rqs_5(), servers());
        let mut ctx = new_ctx(0);
        w.start_write(Value::bottom(), &mut ctx);
    }

    #[test]
    fn timestamps_monotone() {
        let mut w = Writer::new(rqs_5(), servers());
        for expect_ts in 1..=3u64 {
            let mut ctx = new_ctx(0);
            w.start_write(Value::from(expect_ts), &mut ctx);
            assert_eq!(w.last_ts(), expect_ts);
            for i in 0..4 {
                let mut c = new_ctx(2);
                w.on_message(
                    NodeId(i),
                    StorageMsg::WrAck {
                        ts: expect_ts,
                        rnd: 1,
                    },
                    &mut c,
                );
            }
            assert!(w.is_idle());
        }
        assert_eq!(w.outcomes().len(), 3);
    }
}
