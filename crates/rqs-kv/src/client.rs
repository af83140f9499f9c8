//! The multi-object client automaton.
//!
//! A [`KvClient`] owns a disjoint set of objects (it is the single writer
//! for each of them) and can read any object. Internally it multiplexes
//! one unmodified [`Writer`] per owned object and one unmodified
//! [`Reader`] per object it has read, so the per-object protocol is
//! *exactly* the paper's algorithm — the KV layer adds only routing,
//! timer bookkeeping and batching:
//!
//! - everything the client keeps about one `(object, lane)` stream is one
//!   record: the inner automaton, the lane's backlog, the active op's
//!   admission record `(seq, queued)`, the stamps of the lane's last
//!   rounds, its watchdog and its nudge count. An ack touches that record,
//!   the round-trip estimate and the outgoing buffer, and nothing else;
//! - every inner send is tagged with its object and lane and buffered;
//!   at the end of the step the buffer is flushed as one [`KvBatch`] per
//!   destination (the batching that makes `B` concurrent operations cost
//!   far fewer than `B×` envelopes);
//! - an inner automaton steps in a context opened at the outer context's
//!   timer counter, so the token it arms *is* the token the outer context
//!   arms for it, and a cancellation is forwarded unchanged. One map from
//!   outer token to lane routes every expiry, inner round timer or lane
//!   watchdog alike; it is empty whenever every lane is idle. The inner
//!   context itself is one buffer, re-opened for every inner step;
//! - the round timer every op is launched with comes from observed round
//!   trips: the client keeps one windowed-maximum estimate over the ticks
//!   between a round's broadcast and each of its acks (`RttEstimate`)
//!   and hands the inner automaton `max(CLIENT_TIMEOUT, est + est/2 + 1)`.
//!   The timer is the paper's synchrony *assumption*, so a wrong guess
//!   may cost a round, never safety or liveness; the estimate is a pure
//!   function of delivered messages, so simulator runs stay
//!   deterministic, and it is not settable;
//! - a completed inner operation is drained out of its inner automaton
//!   once, in the step that completes it, into a flat outcome log with
//!   object tags, rounds, invocation/response times and the admission
//!   record; a completion without that record is a bug and panics;
//! - a round that outlives its own timer is guarded by a loss watchdog:
//!   the paper's clients wait for a quorum over reliable channels and
//!   never resend, so a lossy link or an amnesia crash could stall a
//!   round for good. A round still short of its outcome one estimated
//!   round trip after its timer fired (after `round timer + round trip`
//!   for the untimed last rounds) is *nudged* — re-broadcast verbatim
//!   via [`Writer::resend_round`]/[`Reader::resend_round`] — and the
//!   interval doubles per nudge of that round up to a constant cap,
//!   with a deterministic jitter of up to half the interval. Both
//!   halves of Karn's rule hold: an ack of a nudged round answers one of
//!   several broadcasts, so it is never a timer sample, *and* what it
//!   does reveal — an upper bound on the round trip — governs the
//!   watchdog until a clean sample arrives, so a link slower than the
//!   starting guess is learnt in a constant number of rounds. A round
//!   decided inside its timer arms no watchdog at all. Nudges never
//!   re-invoke, so a nudged operation keeps its timestamp (writes) or
//!   read number (reads) and duplicate replies are suppressed by the
//!   protocol's own stale-ack filters: nudged ops stay atomic and are
//!   never double-counted. There is no budget: a lane whose quorum is
//!   unreachable keeps being nudged at the capped interval until the
//!   driver's own bound (`await_on`'s step budget on the simulator, the
//!   op timeout on the runtime) ends the run with the
//!   [`KvClient::stuck_lanes`] dump. Nothing here is settable;
//! - with pipelining enabled ([`KvClient::set_pipeline`]), up to N
//!   operations may be outstanding per `(object, lane)` stream: each
//!   admitted op is tagged with a client-wide monotone sequence, ops
//!   beyond the active one wait in a FIFO backlog, and the next op
//!   launches the moment the lane goes idle — in the *same* step, so its
//!   round-1 messages join that step's batch flush. The backlog keeps
//!   program order per lane, and the active op completes before its
//!   successor is invoked, so per-object program order equals real-time
//!   order and the atomicity-checker contract is untouched. Queue wait
//!   is recorded per op ([`KvOutcome::queued_ticks`], traced as
//!   `queue_wait`, attributed as `scheduling`). The depth is only that
//!   bound: rounds end and are timed by one rule at every depth.

use crate::messages::{BatchAccumulator, KvBatch, KvItem, Lane};
use crate::object::ObjectId;
use core::fmt;
use rqs_core::Rqs;
use rqs_obs::{Obs, TraceKind, LANE_READER, LANE_WRITER};
use rqs_sim::{Automaton, Context, NodeId, Time, TimerToken};
use rqs_storage::reader::Reader;
use rqs_storage::writer::{Writer, CLIENT_TIMEOUT};
use rqs_storage::{OpKind, StorageMsg, TsVal, Value};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// One operation a client can be asked to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Write `value` to `object` (the client must own the object).
    Write {
        /// Target object.
        object: ObjectId,
        /// Value to write (must not be `⊥`).
        value: Value,
    },
    /// Read `object` (any client may read any object).
    Read {
        /// Target object.
        object: ObjectId,
    },
}

impl KvOp {
    /// The object the operation touches.
    pub fn object(&self) -> ObjectId {
        match self {
            KvOp::Write { object, .. } | KvOp::Read { object } => *object,
        }
    }

    /// Write or read.
    pub fn kind(&self) -> OpKind {
        match self {
            KvOp::Write { .. } => OpKind::Write,
            KvOp::Read { .. } => OpKind::Read,
        }
    }
}

/// Record of one completed KV operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvOutcome {
    /// The object operated on.
    pub object: ObjectId,
    /// Write or read.
    pub kind: OpKind,
    /// The written pair (writes) or returned pair (reads).
    pub pair: TsVal,
    /// Protocol rounds the operation took.
    pub rounds: usize,
    /// Invocation time.
    pub invoked_at: Time,
    /// Response time.
    pub completed_at: Time,
    /// Retry nudges the client's watchdog issued while this operation
    /// was in flight (feeds slow-path attribution).
    pub retries: u32,
    /// Client-wide monotone admission sequence: per `(object, lane)`
    /// stream, outcomes complete in strictly increasing `seq` order
    /// (pipelined ops keep program order).
    pub seq: u64,
    /// Ticks this operation waited in the client-side pipeline backlog
    /// between admission and launch (`0` when it launched immediately,
    /// as every op does at pipeline depth 1).
    pub queued_ticks: u64,
}

/// Retry counters of one client (or merged over a deployment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Nudges (round re-broadcasts) issued.
    pub retries_issued: u64,
    /// Total ticks the watchdog waited before the nudges it issued.
    pub backoff_ticks: u64,
}

impl RetryStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RetryStats) {
        self.retries_issued += other.retries_issued;
        self.backoff_ticks += other.backoff_ticks;
    }
}

/// The armed watchdog of one lane's round.
#[derive(Debug)]
struct Watchdog {
    /// Nudges this round has had so far.
    attempt: u32,
    /// The armed outer timer token.
    token: u64,
    /// The delay that timer was armed with.
    delay: u64,
    /// When it fires.
    due: Time,
}

/// A backlogged op awaiting launch: `(seq, admitted_at, op)`.
type Backlogged = (u64, Time, KvOp);

/// Samples per half of the estimate's window: a sample stops counting
/// after at most `2 · RTT_WINDOW` newer ones. Sized for the regime
/// where timers race the OS scheduler (50 µs ticks, E18): the chance
/// that the next ack is slower than everything in the window is about
/// one in the window's length, and at 64 the soak lost 1–2 points of
/// fast-path ratio to spurious second rounds that 256 does not lose.
const RTT_WINDOW: u32 = 256;

/// Rounds remembered per lane for matching acks to their broadcast: an
/// op has at most a handful, and a straggler's ack may land a round or
/// an op late.
const STAMPS_PER_LANE: usize = 4;

/// Doublings of the watchdog interval per round: a silent round is
/// nudged after 1, 2, 4, … and then every `2^MAX_DOUBLINGS` round trips.
/// Doubling is what keeps re-broadcasts from feeding the congestion they
/// mistake for loss; the cap is what keeps recovery from a long outage
/// (a healed partition, a restarted quorum) within a bounded multiple of
/// the round trip: sixteen of them.
const MAX_DOUBLINGS: u32 = 4;

/// The round trip the watchdog assumes before any ack has been timed.
/// Nothing is known about the link yet, so the guess is on the patient
/// side: too low costs a re-broadcast on every lane of the first wave,
/// too high delays recovery from a loss in the very first round by this
/// much, once.
const UNSAMPLED_ROUND_TRIP: u64 = 8 * CLIENT_TIMEOUT;

/// The client-wide round-trip estimate, in ticks: the maximum over a
/// sliding window of samples, kept as two half-window maxima so one
/// scheduling spike is forgotten instead of ratcheting the timer up for
/// good. A sample is the time from a round's broadcast to one ack of
/// that round — a duration on the client's own clock, like a timer, never
/// an absolute time. The round timer and the loss watchdog are both read
/// off it, so neither is settable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RttEstimate {
    /// Maximum over the half-window being filled.
    filling: u64,
    /// Maximum over the last completed half-window.
    full: u64,
    /// Samples in the half-window being filled.
    filled: u32,
    /// Largest first-broadcast-to-first-ack time of a *nudged* round
    /// since the last clean sample: no sample (the ack may answer any of
    /// the broadcasts), but an upper bound on the round trip all the same.
    bound: u64,
}

impl RttEstimate {
    /// A clean sample: an ack of a round that was broadcast once.
    fn record(&mut self, ticks: u64) {
        self.bound = 0;
        self.filling = self.filling.max(ticks);
        self.filled += 1;
        if self.filled == RTT_WINDOW {
            *self = RttEstimate {
                filling: 0,
                full: self.filling,
                filled: 0,
                bound: 0,
            };
        }
    }

    /// The first ack a round drew after being nudged, `ticks` after its
    /// first broadcast (Karn's second half).
    fn record_bound(&mut self, ticks: u64) {
        self.bound = self.bound.max(ticks);
    }

    fn estimate(&self) -> u64 {
        self.filling.max(self.full)
    }

    /// The round timer for the next op: one and a half observed round
    /// trips plus the same-tick tie-break the paper's `2Δ + 1` carries,
    /// and never below that constant (which is also where it starts).
    /// The half round trip of slack is what keeps a loaded client's
    /// fast-path ratio at 1: the maximum of the *last* window is only an
    /// estimate of the *next* round's slowest ack.
    fn round_timeout(&self) -> u64 {
        let est = self.estimate();
        CLIENT_TIMEOUT.max(est + est / 2 + 1)
    }

    /// The round trip the watchdog goes by: the estimate, or the bound
    /// nudged rounds have put on it while that is all there is — without
    /// it a link slower than the estimate would never be learnt, every
    /// round being nudged before its ack can become a sample. A reading
    /// of zero says nothing about the link: no ack has been timed yet, or
    /// round trips are shorter than a tick.
    fn round_trip(&self) -> u64 {
        match self.estimate().max(self.bound) {
            0 => UNSAMPLED_ROUND_TRIP,
            seen => seen.max(CLIENT_TIMEOUT),
        }
    }

    /// How long a silent round waits for its next nudge after `nudges`
    /// of them, jitter included: up to half the interval again, hashed
    /// from `seed` and `nudges` so that co-started lanes de-synchronise
    /// without any nondeterminism.
    fn nudge_delay(&self, seed: u64, nudges: u32) -> u64 {
        let interval = self.round_trip() << nudges.min(MAX_DOUBLINGS);
        let h = rqs_sim::fnv1a_fold(
            rqs_sim::fnv1a_fold(rqs_sim::fnv1a(b"kv-retry"), seed),
            nudges as u64,
        );
        interval + h % (interval / 2 + 1)
    }
}

/// Identity of one broadcast round on a lane, shared by the request and
/// its acks: `(is a read round, ts or read_no, rnd)`.
type RoundKey = (bool, u64, usize);

fn round_key(msg: &StorageMsg) -> RoundKey {
    match msg {
        StorageMsg::Wr { ts, rnd, .. } | StorageMsg::WrAck { ts, rnd } => (false, *ts, *rnd),
        StorageMsg::Rd { read_no, rnd } | StorageMsg::RdAck { read_no, rnd, .. } => {
            (true, *read_no, *rnd)
        }
    }
}

/// What the next ack of a round says about the round trip (Karn's rule).
#[derive(Debug, PartialEq, Eq)]
enum AckWorth {
    /// The round was broadcast once: the ack times one round trip.
    Sample,
    /// The watchdog re-broadcast the round: the ack can no longer be
    /// paired with one send, but the round trip is at most the time since
    /// the first.
    Bound,
    /// That bound has been taken. The re-acks a nudge draws from servers
    /// that had already answered say nothing new, and the time since the
    /// first broadcast only grows.
    Nothing,
}

/// When a round was first broadcast, and what its acks are worth.
#[derive(Debug)]
struct RoundStamp {
    key: RoundKey,
    sent_at: Time,
    acks: AckWorth,
}

fn lane_bit(lane: Lane) -> u64 {
    match lane {
        Lane::Writer => 0,
        Lane::Reader => 1,
    }
}

fn lane_tag(lane: Lane) -> u8 {
    match lane {
        Lane::Writer => LANE_WRITER,
        Lane::Reader => LANE_READER,
    }
}

/// The protocol automaton behind a lane: the object's writer, or this
/// client's reader of it.
enum Inner {
    Writer(Writer),
    Reader(Reader),
}

/// Prints as the inner automaton does.
impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inner::Writer(w) => fmt::Debug::fmt(w, f),
            Inner::Reader(r) => fmt::Debug::fmt(r, f),
        }
    }
}

impl Inner {
    fn automaton(&mut self) -> &mut dyn Automaton<StorageMsg> {
        match self {
            Inner::Writer(w) => w,
            Inner::Reader(r) => r,
        }
    }

    fn is_idle(&self) -> bool {
        match self {
            Inner::Writer(w) => w.is_idle(),
            Inner::Reader(r) => r.is_idle(),
        }
    }

    fn state_digest(&self) -> u64 {
        match self {
            Inner::Writer(w) => w.state_digest(),
            Inner::Reader(r) => r.state_digest(),
        }
    }

    fn set_obs(&mut self, obs: Obs) {
        match self {
            Inner::Writer(w) => w.set_obs(obs),
            Inner::Reader(r) => r.set_obs(obs),
        }
    }

    fn resend_round(&mut self, ctx: &mut Context<StorageMsg>) -> bool {
        match self {
            Inner::Writer(w) => w.resend_round(ctx),
            Inner::Reader(r) => r.resend_round(ctx),
        }
    }

    /// Invokes `op` — an op of this lane's kind — under `round_timeout`.
    fn start(&mut self, op: KvOp, round_timeout: u64, ctx: &mut Context<StorageMsg>) {
        match (self, op) {
            (Inner::Writer(w), KvOp::Write { value, .. }) => {
                w.set_round_timeout(round_timeout);
                w.start_write(value, ctx);
            }
            (Inner::Reader(r), KvOp::Read { .. }) => {
                r.set_round_timeout(round_timeout);
                r.start_read(ctx);
            }
            _ => unreachable!("an op runs on the lane of its kind"),
        }
    }

    /// Moves every completed op out of the automaton, in completion
    /// order, as `(kind, pair, rounds, invoked_at, completed_at)`.
    fn drain_outcomes(&mut self, mut f: impl FnMut(OpKind, TsVal, usize, Time, Time)) {
        match self {
            Inner::Writer(w) => w.drain_outcomes().for_each(|o| {
                let pair = TsVal::new(o.ts, o.val);
                f(OpKind::Write, pair, o.rounds, o.invoked_at, o.completed_at)
            }),
            Inner::Reader(r) => r.drain_outcomes().for_each(|o| {
                f(
                    OpKind::Read,
                    o.returned,
                    o.rounds,
                    o.invoked_at,
                    o.completed_at,
                )
            }),
        }
    }
}

/// Everything the client keeps about one `(object, lane)` stream.
#[derive(Debug)]
struct LaneState {
    /// The lane's protocol automaton.
    inner: Inner,
    /// Admitted ops waiting for the active one, FIFO.
    backlog: VecDeque<Backlogged>,
    /// `(seq, queued_ticks)` of the active op: present exactly while the
    /// inner automaton is busy, and taken by the op's completion.
    active: Option<(u64, u64)>,
    /// The last few rounds the lane broadcast, newest at the back.
    stamps: VecDeque<RoundStamp>,
    /// Armed while a round outlives its timer.
    watchdog: Option<Watchdog>,
    /// Nudges the active op has had.
    nudges: u32,
}

/// The client's state outside its lane records: what a lane's step reads
/// and writes besides its own record.
#[derive(Debug)]
struct Shared {
    rqs: Arc<Rqs>,
    servers: Vec<NodeId>,
    /// Per-destination outgoing buffer, flushed once per step.
    pending: BatchAccumulator,
    /// The context inner automata step in (empty between inner steps;
    /// kept for its buffers).
    inner_ctx: Context<StorageMsg>,
    /// Outer timer token → the lane whose inner round timer or watchdog
    /// it is.
    tokens: BTreeMap<u64, (ObjectId, Lane)>,
    outcomes: Vec<KvOutcome>,
    in_flight: usize,
    retry_stats: RetryStats,
    /// Structured-trace handle; per-object copies (tagged with the object
    /// id) are installed on inner automata as they are created.
    obs: Obs,
    /// Observed round trips; every launch takes its round timer from it.
    rtt: RttEstimate,
}

impl Shared {
    /// The inner context, opened for an inner step inside the outer step
    /// `ctx` at its timer counter: the inner automaton's tokens are the
    /// ones `ctx` will hand out next.
    fn open_inner(&mut self, ctx: &Context<KvBatch>) -> &mut Context<StorageMsg> {
        self.inner_ctx
            .reset(ctx.me(), ctx.now(), ctx.timer_counter_snapshot());
        &mut self.inner_ctx
    }
}

impl LaneState {
    fn new((object, lane): (ObjectId, Lane), sh: &Shared) -> Self {
        let (rqs, servers) = (sh.rqs.clone(), sh.servers.clone());
        let mut inner = match lane {
            Lane::Writer => Inner::Writer(Writer::new(rqs, servers)),
            Lane::Reader => Inner::Reader(Reader::new(rqs, servers)),
        };
        inner.set_obs(sh.obs.with_tag(object.0));
        LaneState {
            inner,
            backlog: VecDeque::new(),
            active: None,
            stamps: VecDeque::with_capacity(STAMPS_PER_LANE),
            watchdog: None,
            nudges: 0,
        }
    }

    /// Invokes one admitted op on the inner automaton. `queued_ticks` is
    /// the time it spent in the backlog (0 for ops that launch in their
    /// admission step).
    fn launch(
        &mut self,
        key: (ObjectId, Lane),
        (seq, queued_ticks, op): (u64, u64, KvOp),
        sh: &mut Shared,
        ctx: &mut Context<KvBatch>,
    ) {
        if queued_ticks > 0 && sh.obs.enabled() {
            sh.obs.with_tag(key.0 .0).emit(
                TraceKind::QueueWait,
                ctx.now().ticks(),
                ctx.me().0 as u64,
                lane_tag(key.1),
                queued_ticks,
                self.backlog.len() as u64,
            );
        }
        self.active = Some((seq, queued_ticks));
        let round_timeout = sh.rtt.round_timeout();
        self.inner.start(op, round_timeout, sh.open_inner(ctx));
        self.absorb(key, sh, ctx);
    }

    /// Folds the inner step just taken into the client: buffers its
    /// sends, arms its timers on the outer context under the same tokens,
    /// forwards its cancellations and harvests what it completed. A new
    /// round takes the watchdog off the one it succeeds; if it has no
    /// timer of its own (the last round of an op waits for a quorum and
    /// nothing else) its watchdog is armed here, one round timer out. A
    /// lane that went idle launches its next backlogged op — in the same
    /// step, so its round-1 messages ride the same flush.
    fn absorb(&mut self, key: (ObjectId, Lane), sh: &mut Shared, ctx: &mut Context<KvBatch>) {
        let first = sh.inner_ctx.sent().first();
        if first.is_some_and(|(_, msg)| self.stamp_round(round_key(msg), ctx.now())) {
            self.disarm_watchdog(sh, ctx);
            if sh.inner_ctx.armed_timers().is_empty() {
                self.arm_watchdog(key, 0, sh.rtt.round_timeout(), sh, ctx);
            }
        }
        sh.pending.absorb(key.0, key.1, sh.inner_ctx.drain_sent());
        for &(delay, token) in sh.inner_ctx.armed_timers() {
            let outer = ctx.set_timer(delay);
            debug_assert_eq!(
                outer, token,
                "the inner context opened at the outer counter"
            );
            sh.tokens.insert(outer.0, key);
        }
        for &token in sh.inner_ctx.cancelled_timers() {
            if sh.tokens.remove(&token.0).is_some() {
                ctx.cancel_timer(token);
            }
        }
        self.harvest(key.0, sh);
        if self.inner.is_idle() {
            self.disarm_watchdog(sh, ctx);
            if let Some((seq, admitted_at, op)) = self.backlog.pop_front() {
                let queued = ctx.now().ticks().saturating_sub(admitted_at.ticks());
                self.launch(key, (seq, queued, op), sh, ctx);
            }
        }
    }

    /// Moves the ops the inner automaton completed into the outcome log,
    /// each with its admission record and nudge count.
    fn harvest(&mut self, object: ObjectId, sh: &mut Shared) {
        let (active, nudges) = (&mut self.active, &mut self.nudges);
        self.inner
            .drain_outcomes(|kind, pair, rounds, invoked_at, completed_at| {
                let (seq, queued_ticks) = active
                    .take()
                    .expect("a completed op was admitted on its lane");
                sh.outcomes.push(KvOutcome {
                    object,
                    kind,
                    pair,
                    rounds,
                    invoked_at,
                    completed_at,
                    retries: std::mem::take(nudges),
                    seq,
                    queued_ticks,
                });
                sh.in_flight -= 1;
            });
    }

    /// Notes that the lane broadcast round `key` now; `true` iff the
    /// round is new. An inner automaton broadcasts a round once: seeing
    /// the lane's newest round again means the watchdog nudged it.
    fn stamp_round(&mut self, key: RoundKey, now: Time) -> bool {
        match self.stamps.back_mut() {
            Some(newest) if newest.key == key => {
                if newest.acks == AckWorth::Sample {
                    newest.acks = AckWorth::Bound;
                }
                false
            }
            _ => {
                if self.stamps.len() == STAMPS_PER_LANE {
                    self.stamps.pop_front();
                }
                self.stamps.push_back(RoundStamp {
                    key,
                    sent_at: now,
                    acks: AckWorth::Sample,
                });
                true
            }
        }
    }

    /// The round the lane broadcast last.
    fn newest_round(&self) -> Option<RoundKey> {
        self.stamps.back().map(|s| s.key)
    }

    /// Feeds `rtt` with an ack's round trip, if the round it answers is
    /// still remembered: a sample when the round was broadcast exactly
    /// once, an upper bound (once) when the watchdog re-broadcast it.
    /// Acks count whether or not the round is still open: one that lands
    /// after its timer fired is the sample a too-small timer needs to
    /// grow.
    fn sample_ack(&mut self, key: RoundKey, now: Time, rtt: &mut RttEstimate) {
        if let Some(stamp) = self.stamps.iter_mut().rev().find(|s| s.key == key) {
            let ticks = now.ticks().saturating_sub(stamp.sent_at.ticks());
            match stamp.acks {
                AckWorth::Sample => rtt.record(ticks),
                AckWorth::Bound => {
                    rtt.record_bound(ticks);
                    stamp.acks = AckWorth::Nothing;
                }
                AckWorth::Nothing => {}
            }
        }
    }

    /// Arms the lane's watchdog for the nudge after `nudges` earlier ones
    /// of its current round, `lead` ticks later than the interval alone.
    fn arm_watchdog(
        &mut self,
        key: (ObjectId, Lane),
        nudges: u32,
        lead: u64,
        sh: &mut Shared,
        ctx: &mut Context<KvBatch>,
    ) {
        debug_assert!(self.watchdog.is_none(), "one watchdog per lane");
        let seed = rqs_sim::fnv1a_fold(
            rqs_sim::fnv1a_fold(ctx.me().0 as u64, key.0 .0),
            lane_bit(key.1),
        );
        let delay = lead + sh.rtt.nudge_delay(seed, nudges);
        let token = ctx.set_timer(delay);
        sh.tokens.insert(token.0, key);
        self.watchdog = Some(Watchdog {
            attempt: nudges,
            token: token.0,
            delay,
            due: Time(ctx.now().ticks() + delay),
        });
    }

    /// Takes the lane's watchdog off: its round ended.
    fn disarm_watchdog(&mut self, sh: &mut Shared, ctx: &mut Context<KvBatch>) {
        if let Some(w) = self.watchdog.take() {
            sh.tokens.remove(&w.token);
            ctx.cancel_timer(TimerToken(w.token));
        }
    }

    /// Watchdog expiry: nudge the still-silent round (re-broadcast it —
    /// never re-invoke) and re-arm at twice the interval, up to the cap.
    fn fire_watchdog(
        &mut self,
        key: (ObjectId, Lane),
        sh: &mut Shared,
        ctx: &mut Context<KvBatch>,
    ) {
        let w = self.watchdog.take().expect("fired by its own token");
        sh.retry_stats.retries_issued += 1;
        sh.retry_stats.backoff_ticks += w.delay;
        self.nudges += 1;
        if sh.obs.enabled() {
            sh.obs.with_tag(key.0 .0).emit(
                TraceKind::RetryNudged,
                ctx.now().ticks(),
                ctx.me().0 as u64,
                lane_tag(key.1),
                w.attempt as u64,
                w.delay,
            );
        }
        if self.inner.resend_round(sh.open_inner(ctx)) {
            self.absorb(key, sh, ctx);
            self.arm_watchdog(key, w.attempt + 1, 0, sh, ctx);
        }
    }

    /// The inner round timer `timer` fired.
    fn fire_round_timer(
        &mut self,
        key: (ObjectId, Lane),
        timer: TimerToken,
        sh: &mut Shared,
        ctx: &mut Context<KvBatch>,
    ) {
        let timed = self.newest_round();
        self.inner.automaton().on_timer(timer, sh.open_inner(ctx));
        self.absorb(key, sh, ctx);
        // The round outlived its timer (no quorum to classify yet): from
        // here on it waits for acks alone, so the watchdog takes over. A
        // round decided inside its timer never gets this far.
        if !self.inner.is_idle() && self.newest_round() == timed {
            self.arm_watchdog(key, 0, 0, sh, ctx);
        }
    }

    /// What the watchdog of lane `(object, lane)` knows at `now`.
    fn watchdog_line(
        &self,
        (object, lane): (ObjectId, Lane),
        rtt: &RttEstimate,
        now: Time,
    ) -> String {
        let next = match &self.watchdog {
            Some(w) => format!(
                "next nudge in {} ticks",
                w.due.ticks().saturating_sub(now.ticks())
            ),
            None => "round inside its timer, no nudge due".to_string(),
        };
        format!(
            "{object} {lane:?} watchdog: round trip {} ticks (estimate {}, nudged-round bound {}), \
             round timer {}, {} nudges, {next}",
            rtt.round_trip(),
            rtt.estimate(),
            rtt.bound,
            rtt.round_timeout(),
            self.nudges,
        )
    }
}

/// The multi-object KV client automaton.
#[derive(Debug)]
pub struct KvClient {
    owned: BTreeSet<ObjectId>,
    /// Max outstanding (active + backlogged) ops per `(object, lane)`.
    pipeline: usize,
    /// Next admission sequence number.
    next_seq: u64,
    /// One record per `(object, lane)` stream, created by its first op.
    lanes: BTreeMap<(ObjectId, Lane), LaneState>,
    shared: Shared,
}

impl KvClient {
    /// A client over `rqs` whose universe member `i` is node `servers[i]`,
    /// owning (solely allowed to write) the objects in `owned`.
    pub fn new(
        rqs: Arc<Rqs>,
        servers: Vec<NodeId>,
        owned: impl IntoIterator<Item = ObjectId>,
    ) -> Self {
        KvClient {
            owned: owned.into_iter().collect(),
            pipeline: 1,
            next_seq: 0,
            lanes: BTreeMap::new(),
            shared: Shared {
                rqs,
                servers,
                pending: BatchAccumulator::new(),
                inner_ctx: Context::new(NodeId(0), Time::ZERO, 0),
                tokens: BTreeMap::new(),
                outcomes: Vec::new(),
                in_flight: 0,
                retry_stats: RetryStats::default(),
                obs: Obs::nop(),
                rtt: RttEstimate::default(),
            },
        }
    }

    /// Installs a structured-trace handle. Inner automata created from
    /// now on emit under their object id as the `op` tag; automata that
    /// already exist are re-tagged too.
    pub fn set_obs(&mut self, obs: Obs) {
        for (&(obj, _), st) in &mut self.lanes {
            st.inner.set_obs(obs.with_tag(obj.0));
        }
        self.shared.obs = obs;
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.shared.retry_stats
    }

    /// Objects this client owns.
    pub fn owned(&self) -> &BTreeSet<ObjectId> {
        &self.owned
    }

    /// Sets the pipeline depth: up to `depth` outstanding ops per
    /// `(object, lane)` stream. Depth 1 (the default) is the classic
    /// one-op-per-lane client.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn set_pipeline(&mut self, depth: usize) {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline = depth;
    }

    /// The pipeline depth in force.
    pub fn pipeline(&self) -> usize {
        self.pipeline
    }

    /// Operations admitted (active or backlogged) but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight
    }

    /// Operations sitting in lane backlogs, not yet launched.
    pub fn backlogged(&self) -> usize {
        self.lanes.values().map(|st| st.backlog.len()).sum()
    }

    /// Completed operations, in completion order.
    pub fn outcomes(&self) -> &[KvOutcome] {
        &self.shared.outcomes
    }

    /// Timers the client has armed that have neither fired nor been
    /// cancelled: inner round timers and watchdogs. Zero whenever every
    /// lane is idle.
    pub fn pending_timers(&self) -> usize {
        self.shared.tokens.len()
    }

    /// Debug rendering of every non-idle `(object, lane)` inner
    /// automaton — the first thing to look at when a wave stalls: the
    /// dump shows the stuck round and which servers' acks are missing,
    /// followed by what the watchdog knows at `now` and so why the client
    /// is or is not re-sending.
    pub fn stuck_lanes(&self, now: Time) -> Vec<String> {
        let mut lanes = Vec::new();
        for (&key, st) in &self.lanes {
            if !st.inner.is_idle() {
                let name = match key.1 {
                    Lane::Writer => "writer",
                    Lane::Reader => "reader",
                };
                lanes.push(format!("{} {name}: {:?}", key.0, st.inner));
                lanes.push(st.watchdog_line(key, &self.shared.rtt, now));
            }
        }
        for (&(obj, lane), st) in &self.lanes {
            if !st.backlog.is_empty() {
                lanes.push(format!(
                    "{obj} {lane:?} backlog: {} queued",
                    st.backlog.len()
                ));
            }
        }
        lanes
    }

    /// Starts a batch of operations in one step: all their round-1
    /// messages leave in one [`KvBatch`] per server. With pipelining
    /// ([`KvClient::set_pipeline`]) an op whose lane is busy is admitted
    /// into that lane's FIFO backlog instead and launches as soon as its
    /// predecessor completes.
    ///
    /// # Panics
    ///
    /// Panics if an operation would exceed the pipeline depth of its
    /// `(object, lane)` stream (well-formed clients; at depth 1 this is
    /// the classic one-op-per-lane rule), or if a write targets an
    /// object this client does not own (SWMR violation).
    pub fn start_ops(&mut self, ops: Vec<KvOp>, ctx: &mut Context<KvBatch>) {
        for op in ops {
            let object = op.object();
            let lane = match op.kind() {
                OpKind::Write => {
                    assert!(
                        self.owned.contains(&object),
                        "client is not the owner of {object}: SWMR violation"
                    );
                    Lane::Writer
                }
                OpKind::Read => Lane::Reader,
            };
            let key = (object, lane);
            let seq = self.next_seq;
            self.next_seq += 1;
            let sh = &mut self.shared;
            sh.in_flight += 1;
            let st = self
                .lanes
                .entry(key)
                .or_insert_with(|| LaneState::new(key, sh));
            if st.active.is_some() {
                assert!(
                    st.backlog.len() + 1 < self.pipeline,
                    "pipeline depth {} exceeded on {object} {lane:?}",
                    self.pipeline
                );
                st.backlog.push_back((seq, ctx.now(), op));
            } else {
                st.launch(key, (seq, 0, op), sh, ctx);
            }
        }
        self.shared.pending.flush(ctx);
    }

    /// One step over the queued `envelopes`: every item of every envelope
    /// is dispatched, then whatever the inner automata sent — next
    /// rounds, the ops a freed lane launched — leaves in one flush.
    fn step(
        &mut self,
        envelopes: impl Iterator<Item = (NodeId, KvBatch)>,
        ctx: &mut Context<KvBatch>,
    ) {
        for (from, batch) in envelopes {
            for item in batch.0 {
                self.dispatch(from, item, ctx);
            }
        }
        self.shared.pending.flush(ctx);
    }

    /// Routes one incoming item to the lane it addresses.
    fn dispatch(&mut self, from: NodeId, item: KvItem, ctx: &mut Context<KvBatch>) {
        let KvItem { object, lane, msg } = item;
        let key = (object, lane);
        let Some(st) = self.lanes.get_mut(&key) else {
            return; // stale reply for a lane that never ran an op
        };
        let sh = &mut self.shared;
        st.sample_ack(round_key(&msg), ctx.now(), &mut sh.rtt);
        st.inner
            .automaton()
            .on_message(from, msg, sh.open_inner(ctx));
        st.absorb(key, sh, ctx);
    }
}

impl Automaton<KvBatch> for KvClient {
    fn state_digest(&self) -> u64 {
        let mut acc = rqs_sim::fnv1a(b"kv-client");
        for (&(obj, lane), st) in &self.lanes {
            acc = rqs_sim::fnv1a_fold(acc, obj.0);
            acc = rqs_sim::fnv1a_fold(acc, lane_bit(lane));
            acc = rqs_sim::fnv1a_fold(acc, st.inner.state_digest());
            acc = rqs_sim::fnv1a_fold(
                acc,
                st.watchdog.as_ref().map_or(0, |w| 1 + w.attempt as u64),
            );
            acc = rqs_sim::fnv1a_fold(acc, st.backlog.len() as u64);
        }
        let sh = &self.shared;
        acc = rqs_sim::fnv1a_fold(acc, sh.retry_stats.retries_issued);
        acc = rqs_sim::fnv1a_fold(acc, self.next_seq);
        let rtt = &sh.rtt;
        for part in [rtt.filling, rtt.full, rtt.filled as u64, rtt.bound] {
            acc = rqs_sim::fnv1a_fold(acc, part);
        }
        rqs_sim::fnv1a_fold(acc, sh.in_flight as u64)
    }

    /// The step over one envelope.
    fn on_message(&mut self, from: NodeId, batch: KvBatch, ctx: &mut Context<KvBatch>) {
        self.step(std::iter::once((from, batch)), ctx);
    }

    fn on_messages(
        &mut self,
        batch: std::vec::Drain<'_, (NodeId, KvBatch)>,
        ctx: &mut Context<KvBatch>,
    ) {
        self.step(batch, ctx);
    }

    fn on_timer(&mut self, timer: TimerToken, ctx: &mut Context<KvBatch>) {
        let Some(key) = self.shared.tokens.remove(&timer.0) else {
            return; // cancelled or unknown
        };
        let st = self
            .lanes
            .get_mut(&key)
            .expect("a token routes to its lane");
        let sh = &mut self.shared;
        if st.watchdog.as_ref().is_some_and(|w| w.token == timer.0) {
            st.fire_watchdog(key, sh, ctx);
        } else {
            st.fire_round_timer(key, timer, sh, ctx);
        }
        sh.pending.flush(ctx);
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

    fn client() -> KvClient {
        let rqs = Arc::new(ThresholdConfig::crash_fast(5, 1).build().unwrap());
        let servers: Vec<NodeId> = (0..5).map(NodeId).collect();
        KvClient::new(rqs, servers, [ObjectId(0), ObjectId(2)])
    }

    fn ctx() -> Context<KvBatch> {
        Context::new(NodeId(5), Time::ZERO, 0)
    }

    #[test]
    fn batched_writes_coalesce_per_server() {
        let mut c = client();
        let mut cx = ctx();
        c.start_ops(
            vec![
                KvOp::Write {
                    object: ObjectId(0),
                    value: Value::from(1u64),
                },
                KvOp::Write {
                    object: ObjectId(2),
                    value: Value::from(2u64),
                },
            ],
            &mut cx,
        );
        assert_eq!(c.in_flight(), 2);
        // 5 servers → 5 envelopes, each carrying BOTH round-1 writes.
        assert_eq!(cx.sent().len(), 5);
        for (_, batch) in cx.sent() {
            assert_eq!(batch.len(), 2);
        }
        // 2 inner round timers re-armed on the outer context, and nothing
        // else: a round inside its timer has no watchdog.
        assert_eq!(cx.armed_timers().len(), 2);
    }

    #[test]
    #[should_panic(expected = "SWMR violation")]
    fn writing_unowned_object_rejected() {
        let mut c = client();
        let mut cx = ctx();
        c.start_ops(
            vec![KvOp::Write {
                object: ObjectId(1),
                value: Value::from(1u64),
            }],
            &mut cx,
        );
    }

    #[test]
    fn reads_allowed_on_any_object() {
        let mut c = client();
        let mut cx = ctx();
        c.start_ops(
            vec![KvOp::Read {
                object: ObjectId(1),
            }],
            &mut cx,
        );
        assert_eq!(c.in_flight(), 1);
        assert_eq!(cx.sent().len(), 5);
    }

    #[test]
    fn stale_reply_for_unknown_object_ignored() {
        let mut c = client();
        let mut cx = ctx();
        c.on_message(
            NodeId(0),
            KvBatch(vec![KvItem {
                object: ObjectId(9),
                lane: Lane::Writer,
                msg: StorageMsg::WrAck { ts: 1, rnd: 1 },
            }]),
            &mut cx,
        );
        assert!(cx.sent().is_empty());
        assert_eq!(c.in_flight(), 0);
    }

    /// Round-1 ack of object 0's write `ts`.
    fn wr_ack(ts: u64) -> KvBatch {
        KvBatch(vec![KvItem {
            object: ObjectId(0),
            lane: Lane::Writer,
            msg: StorageMsg::WrAck { ts, rnd: 1 },
        }])
    }

    /// Object 0's write 1 launched at t0, and its round timer.
    fn stuck_write_client() -> (KvClient, TimerToken) {
        let mut c = client();
        let (timeout, timer) = launch_write(&mut c, 1, 0);
        assert_eq!(timeout, CLIENT_TIMEOUT);
        (c, timer)
    }

    /// Fires `timer` at `at`; returns what the step sent and armed.
    fn fire(c: &mut KvClient, timer: TimerToken, at: u64) -> Context<KvBatch> {
        let mut cx = Context::new(NodeId(5), Time(at), 1000 * (at + 1));
        c.on_timer(timer, &mut cx);
        cx
    }

    #[test]
    fn watchdog_nudges_stuck_op_with_exponential_backoff() {
        let (mut c, round_timer) = stuck_write_client();
        // No ack ever arrives. The round timer finds no quorum to
        // classify, so the round waits on, now under the watchdog: one
        // (unsampled) round trip out, plus at most half of that.
        let mut now = CLIENT_TIMEOUT;
        let cx = fire(&mut c, round_timer, now);
        assert!(cx.sent().is_empty());
        assert_eq!(cx.armed_timers().len(), 1);
        let (mut delay, mut watchdog) = cx.armed_timers()[0];
        let mut waited = 0;
        for nudges in 0..MAX_DOUBLINGS + 3 {
            let interval = UNSAMPLED_ROUND_TRIP << nudges.min(MAX_DOUBLINGS);
            assert!(
                (interval..=interval + interval / 2).contains(&delay),
                "nudge {nudges}: {delay} not in {interval} + jitter"
            );
            now += delay;
            waited += delay;
            let cx = fire(&mut c, watchdog, now);
            assert_eq!(cx.sent().len(), 5, "round 1 re-broadcast to all servers");
            for (_, batch) in cx.sent() {
                assert_eq!(batch.len(), 1);
            }
            assert_eq!(c.retry_stats().retries_issued, nudges as u64 + 1);
            assert_eq!(c.retry_stats().backoff_ticks, waited);
            // Re-armed every time: there is no budget to run out of.
            assert_eq!(cx.armed_timers().len(), 1);
            (delay, watchdog) = cx.armed_timers()[0];
        }
        assert_eq!(c.in_flight(), 1, "the op itself is never abandoned");
    }

    #[test]
    fn watchdog_backoff_is_deterministic() {
        let run = || {
            let (mut c, round_timer) = stuck_write_client();
            let cx = fire(&mut c, round_timer, CLIENT_TIMEOUT);
            let (delay, watchdog) = cx.armed_timers()[0];
            let cx = fire(&mut c, watchdog, CLIENT_TIMEOUT + delay);
            (
                delay,
                cx.armed_timers().to_vec(),
                c.retry_stats(),
                c.state_digest(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn completed_op_cancels_watchdog_and_counts_once() {
        let (mut c, round_timer) = stuck_write_client();
        let (_, watchdog) = fire(&mut c, round_timer, CLIENT_TIMEOUT).armed_timers()[0];
        // Three acks land after the timer: a quorum, so round 1 ends (in
        // favour of round 2, with its own timer) and its watchdog goes.
        let mut cancelled = Vec::new();
        for i in 0..3 {
            let mut cxa = Context::new(NodeId(5), Time(5), 100 + i as u64);
            c.on_message(NodeId(i), wr_ack(1), &mut cxa);
            cancelled.extend_from_slice(cxa.cancelled_timers());
        }
        assert!(cancelled.contains(&watchdog), "a round's end cancels it");
        // A stale watchdog expiry is inert: no resend, no count.
        let cxs = fire(&mut c, watchdog, 6);
        assert!(cxs.sent().is_empty() && cxs.armed_timers().is_empty());
        // Round 2 is decided inside its timer and completes the op.
        for i in 0..3 {
            let ack = KvBatch(vec![KvItem {
                object: ObjectId(0),
                lane: Lane::Writer,
                msg: StorageMsg::WrAck { ts: 1, rnd: 2 },
            }]);
            c.on_message(NodeId(i), ack, &mut Context::new(NodeId(5), Time(7), 300));
        }
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.outcomes()[0].retries, 0);
        assert_eq!(c.retry_stats(), RetryStats::default());
        assert_eq!(c.pending_timers(), 0, "every token fired or was cancelled");
    }

    #[test]
    fn a_round_decided_inside_its_timer_arms_no_watchdog() {
        let (mut c, round_timer) = stuck_write_client();
        for i in 0..4 {
            let mut cxa = Context::new(NodeId(5), Time(2), 100 + i as u64);
            c.on_message(NodeId(i), wr_ack(1), &mut cxa);
            assert!(cxa.armed_timers().is_empty());
            if i == 3 {
                assert_eq!(cxa.cancelled_timers(), &[round_timer]);
            }
        }
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.retry_stats(), RetryStats::default());
    }

    #[test]
    fn an_untimed_last_round_is_guarded_from_its_broadcast() {
        let (mut c, round_timer) = stuck_write_client();
        let ack = |rnd| {
            KvBatch(vec![KvItem {
                object: ObjectId(0),
                lane: Lane::Writer,
                msg: StorageMsg::WrAck { ts: 1, rnd },
            }])
        };
        // Round 1: the timer classifies {0,1,2}, a class-2 quorum.
        for i in 0..3 {
            c.on_message(
                NodeId(i),
                ack(1),
                &mut Context::new(NodeId(5), Time(2), 100),
            );
        }
        let cx = fire(&mut c, round_timer, 3);
        let (_, round2_timer) = cx.armed_timers()[0];
        assert_eq!(cx.armed_timers().len(), 1, "round 2 has its own timer");
        // Round 2: {2,3,4} is a quorum, but not the one round 1 named.
        for i in 2..5 {
            c.on_message(
                NodeId(i),
                ack(2),
                &mut Context::new(NodeId(5), Time(5), 200),
            );
        }
        // Round 3 has no timer, so its watchdog is armed with it: a
        // round timer plus the first interval out.
        let cx = fire(&mut c, round2_timer, 7);
        assert_eq!(cx.sent().len(), 5);
        assert_eq!(cx.armed_timers().len(), 1);
        let (delay, watchdog) = cx.armed_timers()[0];
        let first = c.shared.rtt.round_timeout() + c.shared.rtt.round_trip();
        assert!((first..=first + c.shared.rtt.round_trip() / 2).contains(&delay));
        let cx = fire(&mut c, watchdog, 7 + delay);
        assert_eq!(cx.sent().len(), 5, "round 3 re-broadcast");
        assert_eq!(c.retry_stats().retries_issued, 1);
    }

    #[test]
    fn pipelined_ops_queue_and_launch_in_program_order() {
        let mut c = client();
        c.set_pipeline(3);
        assert_eq!(c.pipeline(), 3);
        let mut cx = ctx();
        let write = |v: u64| KvOp::Write {
            object: ObjectId(0),
            value: Value::from(v),
        };
        c.start_ops(vec![write(1), write(2), write(3)], &mut cx);
        // All three admitted, but only the first is on the wire: 5
        // envelopes carrying one write each, two ops backlogged.
        assert_eq!(c.in_flight(), 3);
        assert_eq!(c.backlogged(), 2);
        assert_eq!(cx.sent().len(), 5);
        for (_, batch) in cx.sent() {
            assert_eq!(batch.len(), 1);
        }
        // Complete write 1: the 4th ack is a class-1 quorum. Write 2
        // launches in that very step, so its round-1 broadcast rides
        // the same flush.
        let mut last = ctx();
        for i in 0..4 {
            last = Context::new(NodeId(5), Time(2), 100 + i as u64);
            c.on_message(NodeId(i), wr_ack(1), &mut last);
        }
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.backlogged(), 1);
        assert_eq!(last.sent().len(), 5);
        let first = &c.outcomes()[0];
        assert_eq!(first.seq, 0);
        assert_eq!(first.queued_ticks, 0);
        // Complete write 2 (ts 2): its outcome records the queue wait
        // (admitted at t0, launched at t2) and a larger seq.
        for i in 0..4 {
            let mut cxa = Context::new(NodeId(5), Time(4), 600 + i as u64);
            c.on_message(NodeId(i), wr_ack(2), &mut cxa);
        }
        assert_eq!(c.outcomes().len(), 2);
        let second = &c.outcomes()[1];
        assert_eq!(second.seq, 1);
        assert_eq!(second.queued_ticks, 2, "admitted t0, launched t2");
        assert_eq!(c.backlogged(), 0);
        assert_eq!(c.in_flight(), 1, "write 3 now active");
    }

    /// The round timer (first armed timer) of a write launched at `at`.
    fn launch_write(c: &mut KvClient, v: u64, at: u64) -> (u64, TimerToken) {
        let mut cx = Context::new(NodeId(5), Time(at), 10_000 * v);
        let write = KvOp::Write {
            object: ObjectId(0),
            value: Value::from(v),
        };
        c.start_ops(vec![write], &mut cx);
        cx.armed_timers()[0]
    }

    #[test]
    fn round_timer_starts_at_the_papers_constant_and_never_goes_below() {
        let mut c = client();
        assert_eq!(launch_write(&mut c, 1, 0).0, CLIENT_TIMEOUT);
        // Same-tick acks are zero-length round trips: the floor holds.
        for i in 0..4 {
            c.on_message(NodeId(i), wr_ack(1), &mut ctx());
        }
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.shared.rtt.filled, 4);
        assert_eq!(launch_write(&mut c, 2, 0).0, CLIENT_TIMEOUT);
    }

    #[test]
    fn late_acks_grow_a_timer_that_fired_too_early() {
        // One-way delay 4: round 1 of write 1 is broadcast at t0 under
        // the 3-tick starting timer, which fires long before any ack.
        let mut c = client();
        let (_, timer) = launch_write(&mut c, 1, 0);
        c.on_timer(timer, &mut Context::new(NodeId(5), Time(3), 100));
        // The acks land at t8. The third is a quorum, so the expired
        // round moves on to round 2; the last two find round 1 closed
        // and still count as samples of its round trip.
        for i in 0..5 {
            let mut cxa = Context::new(NodeId(5), Time(8), 200 + 10 * i as u64);
            c.on_message(NodeId(i), wr_ack(1), &mut cxa);
        }
        assert_eq!(c.shared.rtt.filled, 5);
        assert_eq!(c.shared.rtt.round_timeout(), 8 + 4 + 1);
        // Finish write 1 (round 2 acks, broadcast at t8, back at t16)…
        for i in 0..3 {
            let ack = KvBatch(vec![KvItem {
                object: ObjectId(0),
                lane: Lane::Writer,
                msg: StorageMsg::WrAck { ts: 1, rnd: 2 },
            }]);
            c.on_message(NodeId(i), ack, &mut Context::new(NodeId(5), Time(16), 300));
        }
        assert_eq!(c.outcomes()[0].rounds, 2, "the early timer cost a round");
        // …and the next op is patient enough for the link: ≥ 2·4 + 1.
        assert_eq!(launch_write(&mut c, 2, 16).0, 13);
    }

    #[test]
    fn a_nudged_round_contributes_no_sample() {
        let (mut c, round_timer) = stuck_write_client();
        let (delay, watchdog) = fire(&mut c, round_timer, CLIENT_TIMEOUT).armed_timers()[0];
        let nudged_at = CLIENT_TIMEOUT + delay;
        fire(&mut c, watchdog, nudged_at);
        assert_eq!(c.retry_stats().retries_issued, 1);
        // An ack now answers either broadcast: ambiguous, so unsampled —
        // but the round trip cannot be longer than the time since the
        // first one, and the watchdog goes by that.
        for i in 0..3 {
            let mut cxa = Context::new(NodeId(5), Time(nudged_at + 2), 200 + i as u64);
            c.on_message(NodeId(i), wr_ack(1), &mut cxa);
        }
        assert_eq!((c.shared.rtt.filled, c.shared.rtt.estimate()), (0, 0));
        assert_eq!(c.shared.rtt.round_timeout(), CLIENT_TIMEOUT);
        assert_eq!(c.shared.rtt.round_trip(), nudged_at + 2);
        // The first clean sample (round 2, broadcast once) replaces it.
        let ack = KvBatch(vec![KvItem {
            object: ObjectId(0),
            lane: Lane::Writer,
            msg: StorageMsg::WrAck { ts: 1, rnd: 2 },
        }]);
        c.on_message(
            NodeId(0),
            ack,
            &mut Context::new(NodeId(5), Time(nudged_at + 9), 300),
        );
        assert_eq!((c.shared.rtt.filled, c.shared.rtt.bound), (1, 0));
        assert_eq!(c.shared.rtt.round_trip(), 7);
    }

    #[test]
    fn the_window_forgets_a_one_off_spike() {
        let mut est = RttEstimate::default();
        est.record(2);
        est.record(100);
        assert_eq!(est.round_timeout(), 100 + 50 + 1);
        // Remembered for at least one half-window of newer samples,
        // gone after at most two.
        for n in 0..2 * RTT_WINDOW {
            assert!(n >= RTT_WINDOW || est.round_timeout() == 151);
            est.record(2);
        }
        assert_eq!(est.round_timeout(), 2 + 1 + 1);
    }

    #[test]
    #[should_panic(expected = "pipeline depth 1 exceeded")]
    fn depth_one_rejects_second_op_on_a_busy_lane() {
        let mut c = client();
        let mut cx = ctx();
        c.start_ops(
            vec![
                KvOp::Read {
                    object: ObjectId(1),
                },
                KvOp::Read {
                    object: ObjectId(1),
                },
            ],
            &mut cx,
        );
    }

    #[test]
    fn op_accessors() {
        let w = KvOp::Write {
            object: ObjectId(3),
            value: Value::from(1u64),
        };
        assert_eq!(w.object(), ObjectId(3));
        assert_eq!(w.kind(), OpKind::Write);
        let r = KvOp::Read {
            object: ObjectId(4),
        };
        assert_eq!(r.object(), ObjectId(4));
        assert_eq!(r.kind(), OpKind::Read);
    }
}
