//! The reader automaton (Fig. 7).
//!
//! A read has two parts:
//!
//! 1. **Regular part** (lines 20–35): repeat rounds of `rd` messages until
//!    the candidate set `C` is non-empty; in round 1 additionally wait for
//!    the `2Δ` timeout, fix `highest_ts`, and remember the class-2 quorums
//!    that responded (`QC'2`).
//! 2. **Write-back part** (lines 40–49), driven by the best-case detector
//!    `BCD`:
//!    - `BCD(csel,1,·)` holds → return immediately (1-round read);
//!    - `BCD(csel,2,·)` non-empty for rounds 2/3 → one plain round-2
//!      write-back (2-round read);
//!    - `BCD(csel,2,1)` non-empty → a round-1 write-back carrying the
//!      detected class-2 quorum ids, with a timer: if one of those quorums
//!      acks in time the read finishes in 2 rounds, otherwise a round-2
//!      write-back follows (3 rounds);
//!    - otherwise → round-1 then round-2 write-backs.
//!
//! # When a timed round ends
//!
//! As in the writer, a timed round ends when its timer fires or as soon
//! as its outcome can no longer change, whichever is first:
//!
//! - the fast round-1 write-back (lines 43–46) ends when the acks contain
//!   a quorum of `X` — `X` was fixed when the write-back started and the
//!   ack set only grows, so the test is monotone and the timer could
//!   only confirm the 2-round completion — or when all `n` servers
//!   acked (no superset exists; this exit may take the fall-through);
//! - round 1 of the regular part ends early **only** when all `n` servers
//!   answered. What that round fixes at its end — `highest_ts`, `QC'2`
//!   and through them `csel` and the `BCD` sets — is *not* monotone in
//!   the set of answers: one more `rd_ack` can raise `highest_ts`,
//!   validate a higher candidate or add a quorum to `QC'2`, so no proper
//!   subset of the servers decides it.
//!
//! Either way the decision is the one the timer would have produced on
//! the same answers: `rounds` per read cannot change, only ticks.

use crate::history::History;
use crate::messages::StorageMsg;
use crate::predicates::ReadView;
use crate::value::TsVal;
use crate::writer::CLIENT_TIMEOUT;
use rqs_core::{ProcessId, ProcessSet, QuorumId, Rqs};
use rqs_obs::{Obs, TraceKind, LANE_READER};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken};
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Record of one completed read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The reader-local operation id.
    pub read_no: u64,
    /// The selected (returned) pair; `⟨0,⊥⟩` for the initial value.
    pub returned: TsVal,
    /// Total client round-trips used.
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
}

#[derive(Debug)]
struct Phase1 {
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

#[derive(Debug, PartialEq, Eq)]
enum WbKind {
    /// Round-1 write-back carrying `BCD(csel,2,1)` ids, with timer
    /// (lines 43–46): finish at `rounds_so_far + 1` if a listed quorum
    /// acks, else fall through to a final round-2 write-back.
    FastRound1 { x: Vec<QuorumId> },
    /// Plain round-1 write-back (line 49 first half): no timer, always
    /// followed by the final round-2 write-back.
    PlainRound1,
    /// Final round-2 write-back (lines 42/47/49): quorum ack completes the
    /// read.
    FinalRound2,
}

#[derive(Debug)]
struct Writeback {
    invoked_at: Time,
    csel: TsVal,
    kind: WbKind,
    acks: ProcessSet,
    timer: Option<TimerToken>,
    timer_expired: bool,
    rounds_so_far: usize,
}

impl Writeback {
    /// Line 46: did one of the detected class-2 quorums ack?
    fn confirmed(&self, rqs: &Rqs) -> bool {
        match &self.kind {
            WbKind::FastRound1 { x } => x.iter().any(|&q2| rqs.quorum(q2).is_subset_of(self.acks)),
            WbKind::PlainRound1 | WbKind::FinalRound2 => false,
        }
    }

    /// `true` iff no further ack can change how the timed write-back
    /// ends (see the module header).
    fn decided(&self, rqs: &Rqs) -> bool {
        self.acks.len() == rqs.universe_size() || self.confirmed(rqs)
    }
}

#[derive(Debug)]
enum State {
    Idle,
    Phase1(Phase1),
    Writeback(Writeback),
}

/// Deliberately planted bugs, used by the `rqs-check` mutation tests to
/// prove the explorer finds real violations. All flags are `false` in
/// every normal build; the constructors that set them only exist behind
/// the (default-off) `mutants` cargo feature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Mutations {
    /// Return `⟨0,⊥⟩` instead of the selected candidate (stale reads).
    stale_select: bool,
    /// Return the selected candidate without the write-back phase (the
    /// §1.2 greedy bug: a concurrent read can expose a value that a later
    /// read then misses — new/old inversion).
    skip_write_back: bool,
}

/// A reader client (Fig. 7).
///
/// Drive with [`Reader::start_read`] via
/// [`World::invoke`](rqs_sim::World::invoke); completed reads accumulate
/// in [`Reader::outcomes`].
#[derive(Debug)]
pub struct Reader {
    rqs: Arc<Rqs>,
    servers: Vec<NodeId>,
    read_no: u64,
    state: State,
    outcomes: Vec<ReadOutcome>,
    muts: Mutations,
    obs: Obs,
    round_timeout: u64,
    /// Phase 1's `histories` and `qc2_prime` buffers between reads: empty
    /// (a finished read's snapshots are dropped when it leaves phase 1),
    /// kept for their capacity.
    spare: (Vec<History>, Vec<QuorumId>),
}

impl Reader {
    /// Creates a reader over `rqs` whose universe member `i` is node
    /// `servers[i]`.
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
        Reader {
            rqs,
            servers,
            read_no: 0,
            state: State::Idle,
            outcomes: Vec::new(),
            muts: Mutations::default(),
            obs: Obs::nop(),
            round_timeout: CLIENT_TIMEOUT,
            spare: (Vec::new(), Vec::new()),
        }
    }

    /// Overrides the per-round timer (default [`CLIENT_TIMEOUT`]), the
    /// read-side analogue of
    /// [`Writer::set_round_timeout`](crate::writer::Writer::set_round_timeout):
    /// a synchrony assumption, not a safety ingredient — patience only
    /// delays the fall-back write-back rounds, haste may cost one.
    pub fn set_round_timeout(&mut self, ticks: u64) {
        assert!(ticks >= 1, "round timeout must be at least one tick");
        self.round_timeout = ticks;
    }

    /// Installs a structured-trace observer; by convention its tag is the
    /// object id this reader serves (0 for the single-object deployment).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Mutant: a reader that always returns the initial pair `⟨0,⊥⟩`
    /// regardless of what the servers report (a stale-read bug). For
    /// checker self-tests only.
    #[cfg(feature = "mutants")]
    pub fn new_mutant_stale(rqs: Arc<Rqs>, servers: Vec<NodeId>) -> Self {
        let mut r = Reader::new(rqs, servers);
        r.muts.stale_select = true;
        r
    }

    /// Mutant: a reader that skips the write-back phase and returns the
    /// selected candidate directly (the §1.2 greedy bug). For checker
    /// self-tests only.
    #[cfg(feature = "mutants")]
    pub fn new_mutant_skip_write_back(rqs: Arc<Rqs>, servers: Vec<NodeId>) -> Self {
        let mut r = Reader::new(rqs, servers);
        r.muts.skip_write_back = true;
        r
    }

    /// Completed reads not yet drained, in completion order.
    pub fn outcomes(&self) -> &[ReadOutcome] {
        &self.outcomes
    }

    /// Moves the completed reads out, in completion order: a driver that
    /// takes each outcome once keeps the reader's log empty.
    pub fn drain_outcomes(&mut self) -> std::vec::Drain<'_, ReadOutcome> {
        self.outcomes.drain(..)
    }

    /// `true` iff no read is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    /// Invokes `read()`.
    ///
    /// # Panics
    ///
    /// Panics if a read is already in progress (well-formed clients).
    pub fn start_read(&mut self, ctx: &mut Context<StorageMsg>) {
        assert!(self.is_idle(), "read already in progress");
        self.read_no += 1;
        self.obs.emit(
            TraceKind::OpInvoked,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            self.read_no,
            0,
        );
        let (mut histories, qc2_prime) = std::mem::take(&mut self.spare);
        histories.resize(self.rqs.universe_size(), History::new());
        let mut p1 = Phase1 {
            invoked_at: ctx.now(),
            read_rnd: 0,
            acks_this_round: ProcessSet::empty(),
            responded_all: ProcessSet::empty(),
            histories,
            timer: None,
            timer_expired: false,
            qc2_prime,
            highest_ts: 0,
        };
        Self::enter_phase1_round(
            &mut p1,
            self.read_no,
            &self.servers,
            &self.obs,
            self.round_timeout,
            ctx,
        );
        self.state = State::Phase1(p1);
    }

    /// Re-broadcasts the in-progress phase's message without advancing
    /// the protocol: a phase-1 resend repeats the current `rd` round
    /// (same `read_no`, same round number — servers re-answer with their
    /// current history, which overwrite-merges idempotently), a
    /// write-back resend repeats the current `wr` (same selected pair,
    /// round and quorum ids, so duplicate acks collapse in the ack set).
    /// This is the retry seam for loss-hardened clients; a nudge never
    /// starts a new read round or a new operation.
    ///
    /// Returns `false` (and sends nothing) when the reader is idle.
    pub fn resend_round(&mut self, ctx: &mut Context<StorageMsg>) -> bool {
        match &self.state {
            State::Idle => false,
            State::Phase1(p1) => {
                ctx.broadcast(
                    self.servers.iter().copied(),
                    StorageMsg::Rd {
                        read_no: self.read_no,
                        rnd: p1.read_rnd,
                    },
                );
                true
            }
            State::Writeback(wb) => {
                let (rnd, sets): (usize, BTreeSet<QuorumId>) = match &wb.kind {
                    WbKind::FastRound1 { x } => (1, x.iter().copied().collect()),
                    WbKind::PlainRound1 => (1, BTreeSet::new()),
                    WbKind::FinalRound2 => (2, BTreeSet::new()),
                };
                ctx.broadcast(
                    self.servers.iter().copied(),
                    StorageMsg::Wr {
                        ts: wb.csel.ts,
                        val: wb.csel.val.clone(),
                        sets,
                        rnd,
                    },
                );
                true
            }
        }
    }

    fn enter_phase1_round(
        p1: &mut Phase1,
        read_no: u64,
        servers: &[NodeId],
        obs: &Obs,
        round_timeout: u64,
        ctx: &mut Context<StorageMsg>,
    ) {
        p1.read_rnd += 1;
        obs.emit(
            TraceKind::RoundStarted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            p1.read_rnd as u64,
            read_no,
        );
        p1.acks_this_round = ProcessSet::empty();
        if p1.read_rnd == 1 {
            p1.timer = Some(ctx.set_timer(round_timeout));
            p1.timer_expired = false;
        } else {
            p1.timer = None;
            p1.timer_expired = true;
        }
        ctx.broadcast(
            servers.iter().copied(),
            StorageMsg::Rd {
                read_no,
                rnd: p1.read_rnd,
            },
        );
    }

    fn server_index(&self, node: NodeId) -> Option<ProcessId> {
        self.servers.iter().position(|&s| s == node).map(ProcessId)
    }

    /// Moves to `next`. Leaving phase 1 drops the snapshots it held and
    /// keeps its emptied buffers for the next read.
    fn set_state(&mut self, next: State) {
        if let State::Phase1(mut p1) = std::mem::replace(&mut self.state, next) {
            p1.histories.clear();
            p1.qc2_prime.clear();
            self.spare = (p1.histories, p1.qc2_prime);
        }
    }

    fn try_finish_phase1_round(&mut self, ctx: &mut Context<StorageMsg>) {
        let State::Phase1(p1) = &mut self.state else {
            return;
        };
        if !p1.timer_expired || !self.rqs.any_quorum_within(p1.acks_this_round) {
            return;
        }
        self.obs.emit(
            TraceKind::QuorumAssembled,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            p1.read_rnd as u64,
            p1.acks_this_round.len() as u64,
        );
        if p1.read_rnd == 1 {
            // Lines 29–31: fix highest_ts and QC'2 at the end of round 1.
            p1.highest_ts = p1
                .histories
                .iter()
                .map(History::highest_ts)
                .max()
                .unwrap_or(0);
            p1.qc2_prime.clear();
            p1.qc2_prime
                .extend(self.rqs.class2_within(p1.acks_this_round));
        }
        let view = ReadView {
            rqs: &self.rqs,
            histories: &p1.histories,
            responded: p1.responded_all,
            highest_ts: p1.highest_ts,
            qc2_prime: &p1.qc2_prime,
        };
        // `row`: what each server stores at `csel.ts`, for the BCD tests.
        let Some((csel, row)) = view.select_row() else {
            // C = ∅: another round of the regular part (line 34).
            Self::enter_phase1_round(
                p1,
                self.read_no,
                &self.servers,
                &self.obs,
                self.round_timeout,
                ctx,
            );
            return;
        };

        // Write-back part (lines 40–49).
        let read_rnd = p1.read_rnd;
        let invoked_at = p1.invoked_at;
        if self.muts.stale_select || self.muts.skip_write_back {
            // Planted bugs (checker self-tests): complete after the
            // regular part, returning a stale pair or skipping write-back.
            let returned = if self.muts.stale_select {
                TsVal::initial()
            } else {
                csel
            };
            self.set_state(State::Idle);
            self.obs.emit(
                TraceKind::OpCompleted,
                ctx.now().ticks(),
                ctx.me().0 as u64,
                LANE_READER,
                read_rnd as u64,
                self.read_no,
            );
            self.outcomes.push(ReadOutcome {
                read_no: self.read_no,
                returned,
                rounds: read_rnd,
                invoked_at,
                completed_at: ctx.now(),
            });
            return;
        }
        if read_rnd == 1 {
            // Line 40: BCD(csel, 1, ·) → 1-round read, no write-back.
            if (1..=3).any(|r| view.bcd1_in(&row, &csel, r)) {
                self.set_state(State::Idle);
                self.obs.emit(
                    TraceKind::OpCompleted,
                    ctx.now().ticks(),
                    ctx.me().0 as u64,
                    LANE_READER,
                    1,
                    self.read_no,
                );
                self.outcomes.push(ReadOutcome {
                    read_no: self.read_no,
                    returned: csel,
                    rounds: 1,
                    invoked_at,
                    completed_at: ctx.now(),
                });
                return;
            }
            // Line 41: BCD(csel, 2, ·) non-empty?
            if (2..=3).any(|r| !view.bcd2_in(&row, &csel, r).is_empty()) {
                // Line 42: the writer already completed at some quorum —
                // one plain round-2 write-back finishes the read.
                self.start_writeback(csel, WbKind::FinalRound2, 1, invoked_at, ctx);
                return;
            }
            let x1 = view.bcd2_in(&row, &csel, 1);
            if !x1.is_empty() {
                // Lines 43–46: fast round-1 write-back carrying X.
                self.start_writeback(csel, WbKind::FastRound1 { x: x1 }, 1, invoked_at, ctx);
                return;
            }
        }
        // Line 49: round-1 then round-2 write-backs.
        self.start_writeback(csel, WbKind::PlainRound1, read_rnd, invoked_at, ctx);
    }

    fn start_writeback(
        &mut self,
        csel: TsVal,
        kind: WbKind,
        rounds_so_far: usize,
        invoked_at: Time,
        ctx: &mut Context<StorageMsg>,
    ) {
        let (rnd, sets, with_timer): (usize, BTreeSet<QuorumId>, bool) = match &kind {
            WbKind::FastRound1 { x } => (1, x.iter().copied().collect(), true),
            WbKind::PlainRound1 => (1, BTreeSet::new(), false),
            WbKind::FinalRound2 => (2, BTreeSet::new(), false),
        };
        self.obs.emit(
            TraceKind::RoundStarted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            (rounds_so_far + 1) as u64,
            self.read_no,
        );
        let timer = with_timer.then(|| ctx.set_timer(self.round_timeout));
        ctx.broadcast(
            self.servers.iter().copied(),
            StorageMsg::Wr {
                ts: csel.ts,
                val: csel.val.clone(),
                sets,
                rnd,
            },
        );
        self.set_state(State::Writeback(Writeback {
            invoked_at,
            csel,
            kind,
            acks: ProcessSet::empty(),
            timer,
            timer_expired: !with_timer,
            rounds_so_far,
        }));
    }

    fn try_finish_writeback(&mut self, ctx: &mut Context<StorageMsg>) {
        let State::Writeback(wb) = &mut self.state else {
            return;
        };
        if !wb.timer_expired || !self.rqs.any_quorum_within(wb.acks) {
            return;
        }
        self.obs.emit(
            TraceKind::QuorumAssembled,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            (wb.rounds_so_far + 1) as u64,
            wb.acks.len() as u64,
        );
        let rounds = wb.rounds_so_far + 1;
        let csel = wb.csel.clone();
        let invoked_at = wb.invoked_at;
        match &wb.kind {
            WbKind::FastRound1 { .. } => {
                if wb.confirmed(&self.rqs) {
                    self.complete(csel, rounds, invoked_at, ctx);
                } else {
                    // Line 47: final round-2 write-back.
                    self.start_writeback(csel, WbKind::FinalRound2, rounds, invoked_at, ctx);
                }
            }
            WbKind::PlainRound1 => {
                self.start_writeback(csel, WbKind::FinalRound2, rounds, invoked_at, ctx);
            }
            WbKind::FinalRound2 => {
                self.complete(csel, rounds, invoked_at, ctx);
            }
        }
    }

    fn complete(
        &mut self,
        returned: TsVal,
        rounds: usize,
        invoked_at: Time,
        ctx: &mut Context<StorageMsg>,
    ) {
        // Nothing to cancel: a timed write-back ends only after its timer
        // fired or was cancelled when the round was decided.
        self.obs.emit(
            TraceKind::OpCompleted,
            ctx.now().ticks(),
            ctx.me().0 as u64,
            LANE_READER,
            rounds as u64,
            self.read_no,
        );
        self.outcomes.push(ReadOutcome {
            read_no: self.read_no,
            returned,
            rounds,
            invoked_at,
            completed_at: ctx.now(),
        });
        self.set_state(State::Idle);
    }
}

impl Automaton<StorageMsg> for Reader {
    fn state_digest(&self) -> u64 {
        rqs_sim::fnv1a(
            format!("{:?},{:?},{:?}", self.read_no, self.state, self.outcomes).as_bytes(),
        )
    }

    fn on_message(&mut self, from: NodeId, msg: StorageMsg, ctx: &mut Context<StorageMsg>) {
        let Some(sender) = self.server_index(from) else {
            return;
        };
        match msg {
            StorageMsg::RdAck {
                read_no,
                rnd,
                history,
            } => {
                if read_no != self.read_no {
                    return; // ack for an older read
                }
                let State::Phase1(p1) = &mut self.state else {
                    return; // late ack during write-back: no effect
                };
                // Lines 50–53: adopt the newest history, track responders.
                p1.histories[sender.index()] = history;
                p1.responded_all.insert(sender);
                if rnd == p1.read_rnd {
                    p1.acks_this_round.insert(sender);
                }
                // All n answered the timed round: nothing more can
                // arrive, so settle without waiting out the timer.
                if !p1.timer_expired && p1.acks_this_round.len() == self.rqs.universe_size() {
                    p1.timer_expired = true;
                    if let Some(timer) = p1.timer.take() {
                        ctx.cancel_timer(timer);
                    }
                }
                self.try_finish_phase1_round(ctx);
            }
            StorageMsg::WrAck { ts, rnd } => {
                let State::Writeback(wb) = &mut self.state else {
                    return;
                };
                let expected_rnd = match &wb.kind {
                    WbKind::FastRound1 { .. } | WbKind::PlainRound1 => 1,
                    WbKind::FinalRound2 => 2,
                };
                if ts != wb.csel.ts || rnd != expected_rnd {
                    return;
                }
                wb.acks.insert(sender);
                if !wb.timer_expired && wb.decided(&self.rqs) {
                    wb.timer_expired = true;
                    if let Some(timer) = wb.timer.take() {
                        ctx.cancel_timer(timer);
                    }
                }
                self.try_finish_writeback(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<StorageMsg>) {
        match &mut self.state {
            State::Phase1(p1) if p1.timer == Some(timer) => {
                p1.timer_expired = true;
                self.try_finish_phase1_round(ctx);
            }
            State::Writeback(wb) if wb.timer == Some(timer) => {
                wb.timer_expired = true;
                self.try_finish_writeback(ctx);
            }
            _ => {}
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
    use crate::server::Server;
    use crate::value::Value;
    use crate::writer::Writer;
    use rqs_core::threshold::ThresholdConfig;
    use rqs_sim::{ScenarioNet, World};

    /// Builds a full world over the §1.2 system: 5 servers, 1 writer,
    /// 1 reader; returns (world, server_ids, writer_id, reader_id).
    fn build_world() -> (World<StorageMsg>, Vec<NodeId>, NodeId, NodeId) {
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let mut world = World::new(ScenarioNet::benign());
        let servers: Vec<NodeId> = (0..5)
            .map(|_| world.add_node(Box::new(Server::new())))
            .collect();
        let writer = world.add_node(Box::new(Writer::new(rqs.clone(), servers.clone())));
        let reader = world.add_node(Box::new(Reader::new(rqs, servers.clone())));
        (world, servers, writer, reader)
    }

    #[test]
    fn read_of_unwritten_register_returns_bottom() {
        let (mut world, _s, _w, reader) = build_world();
        world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<Reader>(reader).outcomes()[0];
        assert!(out.returned.is_initial());
        assert_eq!(out.rounds, 1, "uncontended synchronous read is fast");
    }

    #[test]
    fn read_after_fast_write_is_one_round() {
        let (mut world, _s, writer, reader) = build_world();
        world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(7u64), ctx));
        world.run_to_quiescence();
        assert_eq!(world.node_as::<Writer>(writer).outcomes()[0].rounds, 1);
        world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<Reader>(reader).outcomes()[0];
        assert_eq!(out.returned.val, Value::from(7u64));
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn read_sees_latest_of_multiple_writes() {
        let (mut world, _s, writer, reader) = build_world();
        for v in [1u64, 2, 3] {
            world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(v), ctx));
            world.run_to_quiescence();
        }
        world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<Reader>(reader).outcomes()[0];
        assert_eq!(out.returned, TsVal::new(3, Value::from(3u64)));
    }

    #[test]
    fn two_crashes_degrade_but_stay_correct() {
        use rqs_sim::Time;
        let (mut world, servers, writer, reader) = build_world();
        world.crash_at(servers[3], Time::ZERO);
        world.crash_at(servers[4], Time::ZERO);
        world.step(); // process crash events
        world.step();
        world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(9u64), ctx));
        world.run_to_quiescence();
        let wout = &world.node_as::<Writer>(writer).outcomes()[0];
        assert!(wout.rounds >= 2, "no class-1 quorum available");
        world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
        world.run_to_quiescence();
        let out = &world.node_as::<Reader>(reader).outcomes()[0];
        assert_eq!(out.returned.val, Value::from(9u64));
    }

    #[test]
    fn resend_repeats_phase_without_advancing() {
        use rqs_sim::Time;
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut r = Reader::new(rqs, servers);
        // Idle readers have nothing to resend.
        let mut c = Context::new(NodeId(5), Time(0), 0);
        assert!(!r.resend_round(&mut c));
        assert!(c.sent().is_empty());
        // Phase-1 resend repeats the same read round verbatim.
        let mut c = Context::new(NodeId(5), Time(0), 0);
        r.start_read(&mut c);
        let mut c2 = Context::new(NodeId(5), Time(9), 100);
        assert!(r.resend_round(&mut c2));
        assert_eq!(c2.sent().len(), 5);
        match &c2.sent()[0].1 {
            StorageMsg::Rd { read_no, rnd } => assert_eq!((*read_no, *rnd), (1, 1)),
            other => panic!("{other:?}"),
        }
        assert!(c2.armed_timers().is_empty(), "resend arms no timer");
        let State::Phase1(p1) = &r.state else {
            panic!("still in phase 1");
        };
        assert_eq!(p1.read_rnd, 1, "resend must not advance the round");
    }

    #[test]
    fn eager_read_settles_at_all_n_acks() {
        use rqs_sim::Time;
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut r = Reader::new(rqs, servers);
        let mut c = Context::new(NodeId(5), Time(0), 0);
        r.start_read(&mut c);
        let timer = c.armed_timers()[0].1;
        let ack = || StorageMsg::RdAck {
            read_no: 1,
            rnd: 1,
            history: History::new(),
        };
        for i in 0..4 {
            let mut c2 = Context::new(NodeId(5), Time(2), 1);
            r.on_message(NodeId(i), ack(), &mut c2);
            assert!(
                r.outcomes().is_empty(),
                "a class-1 quorum of answers decides nothing: one more can move csel"
            );
        }
        // The nth ack settles phase 1 at ack time and cancels the timer;
        // the unwritten register resolves to ⟨0,⊥⟩ in one round.
        let mut c2 = Context::new(NodeId(5), Time(3), 2);
        r.on_message(NodeId(4), ack(), &mut c2);
        assert_eq!(c2.cancelled_timers(), &[timer]);
        let out = &r.outcomes()[0];
        assert!(out.returned.is_initial());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.completed_at, Time(3));
    }

    #[test]
    fn fast_writeback_settles_at_a_quorum_of_x() {
        use rqs_sim::Time;
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
        let x: Vec<QuorumId> = rqs
            .class2_within([0, 1, 2].into_iter().map(ProcessId).collect())
            .collect();
        assert_eq!(x.len(), 1, "{{0,1,2}} is exactly one class-2 quorum");
        let csel = TsVal::new(4, Value::from(9u64));
        let ack = StorageMsg::WrAck { ts: 4, rnd: 1 };
        let start = |r: &mut Reader| {
            let mut c = Context::new(NodeId(5), Time(0), 0);
            r.read_no = 1;
            let kind = WbKind::FastRound1 { x: x.clone() };
            r.start_writeback(csel.clone(), kind, 1, Time(0), &mut c);
            c.armed_timers()[0].1
        };
        // A quorum outside X decides nothing: X could still show up.
        let mut r = Reader::new(rqs.clone(), servers.clone());
        let timer = start(&mut r);
        for i in 2..5 {
            let mut c = Context::new(NodeId(5), Time(2), 1);
            r.on_message(NodeId(i), ack.clone(), &mut c);
            assert!(c.cancelled_timers().is_empty() && c.sent().is_empty());
        }
        // …and the timer then takes the fall-through (3 rounds).
        let mut c = Context::new(NodeId(5), Time(3), 2);
        r.on_timer(timer, &mut c);
        assert!(matches!(&c.sent()[0].1, StorageMsg::Wr { rnd: 2, .. }));
        // The quorum of X decides the round at its last ack: 2 rounds,
        // completed at ack time, timer released.
        let mut r = Reader::new(rqs, servers);
        let timer = start(&mut r);
        for i in 0..3 {
            assert!(r.outcomes().is_empty());
            let mut c = Context::new(NodeId(5), Time(2), 1);
            r.on_message(NodeId(i), ack.clone(), &mut c);
            if i == 2 {
                assert_eq!(c.cancelled_timers(), &[timer]);
            }
        }
        let out = &r.outcomes()[0];
        assert_eq!((out.rounds, out.completed_at), (2, Time(2)));
        assert_eq!(out.returned, csel);
    }

    #[test]
    fn acks_after_the_timer_fired_cancel_nothing() {
        use rqs_sim::Time;
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
        // Each step gets a fresh context; none may cancel the dead token.
        let step = |r: &mut Reader, f: &dyn Fn(&mut Reader, &mut Context<StorageMsg>)| {
            let mut c = Context::new(NodeId(5), Time(9), 1);
            f(r, &mut c);
            assert!(c.cancelled_timers().is_empty());
        };

        // Phase 1: the timer fires with two answers in; the third
        // completes a quorum and the read of the unwritten register.
        let mut r = Reader::new(rqs.clone(), servers.clone());
        let mut c = Context::new(NodeId(5), Time(0), 0);
        r.start_read(&mut c);
        let timer = c.armed_timers()[0].1;
        let rd_ack = |i: usize| {
            move |r: &mut Reader, c: &mut Context<StorageMsg>| {
                let ack = StorageMsg::RdAck {
                    read_no: 1,
                    rnd: 1,
                    history: History::new(),
                };
                r.on_message(NodeId(i), ack, c)
            }
        };
        step(&mut r, &rd_ack(0));
        step(&mut r, &rd_ack(1));
        step(&mut r, &|r, c| r.on_timer(timer, c));
        assert!(r.outcomes().is_empty(), "no quorum yet");
        step(&mut r, &rd_ack(2));
        assert_eq!(r.outcomes()[0].rounds, 1);

        // Write-back: the same, with the quorum of X that confirms it.
        let x: Vec<QuorumId> = rqs
            .class2_within([0, 1, 2].into_iter().map(ProcessId).collect())
            .collect();
        let mut r = Reader::new(rqs, servers);
        let mut c = Context::new(NodeId(5), Time(0), 0);
        r.read_no = 1;
        let csel = TsVal::new(4, Value::from(9u64));
        r.start_writeback(csel, WbKind::FastRound1 { x }, 1, Time(0), &mut c);
        let timer = c.armed_timers()[0].1;
        let wr_ack = |i: usize| {
            move |r: &mut Reader, c: &mut Context<StorageMsg>| {
                r.on_message(NodeId(i), StorageMsg::WrAck { ts: 4, rnd: 1 }, c)
            }
        };
        step(&mut r, &wr_ack(0));
        step(&mut r, &wr_ack(1));
        step(&mut r, &|r, c| r.on_timer(timer, c));
        assert!(r.outcomes().is_empty(), "no quorum yet");
        step(&mut r, &wr_ack(2));
        assert_eq!(r.outcomes()[0].rounds, 2);
    }

    #[test]
    fn resend_during_writeback_repeats_writeback() {
        use rqs_sim::Time;
        let mut r = {
            let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
            let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
            Reader::new(rqs, servers)
        };
        let mut c = Context::new(NodeId(5), Time(0), 0);
        r.read_no = 1;
        r.start_writeback(
            TsVal::new(4, Value::from(9u64)),
            WbKind::FinalRound2,
            1,
            Time(0),
            &mut c,
        );
        let mut c2 = Context::new(NodeId(5), Time(7), 50);
        assert!(r.resend_round(&mut c2));
        assert_eq!(c2.sent().len(), 5);
        match &c2.sent()[0].1 {
            StorageMsg::Wr { ts, rnd, .. } => assert_eq!((*ts, *rnd), (4, 2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "read already in progress")]
    fn overlapping_reads_rejected() {
        let (mut world, _s, _w, reader) = build_world();
        world.invoke::<Reader>(reader, |r, ctx| {
            r.start_read(ctx);
            r.start_read(ctx);
        });
    }

    #[test]
    fn repeated_reads_increment_read_no() {
        let (mut world, _s, _w, reader) = build_world();
        for _ in 0..3 {
            world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
            world.run_to_quiescence();
        }
        let outs = world.node_as::<Reader>(reader).outcomes();
        assert_eq!(outs.len(), 3);
        assert_eq!(
            outs.iter().map(|o| o.read_no).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn a_finished_read_drops_its_snapshots_keeps_its_buffers_and_drains_once() {
        let (mut world, _s, writer, reader) = build_world();
        world.invoke::<Writer>(writer, |w, ctx| w.start_write(Value::from(4u64), ctx));
        world.run_to_quiescence();
        for _ in 0..2 {
            world.invoke::<Reader>(reader, |r, ctx| r.start_read(ctx));
            world.run_to_quiescence();
            let r = world.node_as::<Reader>(reader);
            let (histories, qc2_prime) = &r.spare;
            assert!(histories.is_empty() && qc2_prime.is_empty());
            assert!(histories.capacity() >= 5 && qc2_prime.capacity() > 0);
        }
        world.invoke::<Reader>(reader, |r, _| {
            let drained: Vec<u64> = r.drain_outcomes().map(|o| o.read_no).collect();
            assert_eq!(drained, [1, 2]);
            assert!(r.outcomes().is_empty());
        });
    }
}
