//! Node identities, the automaton trait, and the per-step context.
//!
//! Processes are deterministic I/O automata (paper §3.1): a step receives
//! a set of messages, applies them to the current state, and emits output
//! messages. A step here is one timer, or the messages queued for the node
//! when the step began ([`Automaton::on_messages`]); the paper permits `M`
//! to be any subset of pending messages, so a step over one message and a
//! step over all of them are both its steps.

use crate::time::Time;
use core::any::Any;
use core::fmt;

/// Identifier of a simulated node (server, client, proposer, acceptor,
/// learner — any participant).
///
/// Protocol crates conventionally map the quorum universe `S` to node ids
/// `0..n` (so `NodeId(i)` is `rqs_core::ProcessId(i)` for servers) and give
/// clients ids `≥ n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Zero-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<rqs_core::ProcessId> for NodeId {
    fn from(p: rqs_core::ProcessId) -> NodeId {
        NodeId(p.0)
    }
}

/// Handle for a pending timer, returned by [`Context::set_timer`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

/// A deterministic I/O automaton driven by the [`World`](crate::World).
///
/// `M` is the protocol's message type. Implementations must be
/// deterministic: identical inputs in identical order produce identical
/// outputs, which is what makes the scripted indistinguishability
/// executions of the paper reproducible.
///
/// # The step contract
///
/// A substrate hands a node its messages through
/// [`on_messages`](Self::on_messages), one call per step:
///
/// - the batch is what was queued for the node when the step began, in
///   arrival order — never reordered, never split by a size limit;
/// - a batch never spans a non-message event: a timer, an external
///   invocation, a crash or a restart queued between two messages ends
///   the batch before it, so a crash still loses exactly the messages
///   queued behind it;
/// - everything the step puts into its [`Context`] leaves after the step
///   returns — which is what lets a durable automaton make the whole
///   batch's effects durable once, before any reply to any of it is sent.
///
/// A batch of one is a legal batch, and [`on_message`](Self::on_message)
/// must be that case: an automaton that overrides `on_messages` routes
/// both through one function.
pub trait Automaton<M>: Any {
    /// Called once when the world starts (the paper's `Init` state is the
    /// state before this call).
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Delivers one message from `from`.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);

    /// Delivers everything queued for this node, in arrival order, as one
    /// step. The default handles the messages one by one, and the
    /// substrates then treat the outputs of each as they would those of a
    /// step of its own, so an automaton that does not override this
    /// behaves exactly as under one message per step.
    fn on_messages(&mut self, batch: std::vec::Drain<'_, (NodeId, M)>, ctx: &mut Context<M>) {
        for (i, (from, msg)) in batch.enumerate() {
            if i > 0 {
                ctx.cut();
            }
            self.on_message(from, msg, ctx);
        }
    }

    /// Fires a timer previously set through [`Context::set_timer`].
    fn on_timer(&mut self, _timer: TimerToken, _ctx: &mut Context<M>) {}

    /// A hash of the automaton's protocol-relevant state, used by
    /// [`World::digest_with`](crate::World::digest_with) to deduplicate
    /// logically identical states during schedule exploration. Any
    /// violation found under deduplication is real regardless of this
    /// digest, but the default (`0`) makes states differing only in this
    /// node collide, so the explorer may *prune schedules it should have
    /// run* (an "exhausted" claim then only covers the deduplicated
    /// space). Protocol automata that participate in model checking
    /// should override it with a deterministic digest of their state
    /// (see `rqs_sim::sched::fnv1a`); for automata that cannot (e.g.
    /// closure-scripted Byzantine nodes with hidden state), disable
    /// deduplication in the explorer instead.
    fn state_digest(&self) -> u64 {
        0
    }

    /// Persists a full snapshot of the automaton's durable state into its
    /// attached store (compacting the write-ahead log). Automata without
    /// durable state ignore it.
    fn save_state(&mut self) {}

    /// Rebuilds the automaton from its durable store after an **amnesia**
    /// crash: discard all volatile state, then replay the store's
    /// snapshot + log. Returns the number of log records replayed.
    ///
    /// The default keeps the in-memory state untouched — correct for
    /// automata with no crash-surviving obligations (clients, scripted
    /// adversaries). Automata that promise durability (`Server`,
    /// `KvServer`, `Acceptor`, `Learner`) must override it; forgetting to
    /// is exactly the bug the amnesia fault mode exists to expose.
    fn restore_state(&mut self) -> usize {
        0
    }

    /// Upcast for harness-side state inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness-side operation invocation.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Output collector handed to every automaton step.
///
/// Sends are buffered and routed by the world after the step completes,
/// matching the paper's atomic receive/compute/send step structure.
#[derive(Debug)]
pub struct Context<M> {
    node: NodeId,
    now: Time,
    pub(crate) outbox: Vec<(NodeId, M)>,
    pub(crate) timers: Vec<(u64, TimerToken)>,
    pub(crate) cancelled: Vec<TimerToken>,
    pub(crate) timer_counter: u64,
    /// `(outbox, timers)` lengths at each boundary between two messages
    /// the default [`Automaton::on_messages`] handled in this step.
    pub(crate) cuts: Vec<(usize, usize)>,
}

impl<M> Context<M> {
    /// Creates a free-standing context. The [`World`](crate::World) calls
    /// this internally; it is public so protocol crates can unit-test
    /// automatons step-by-step without a world.
    pub fn new(node: NodeId, now: Time, timer_counter: u64) -> Self {
        Context {
            node,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            cancelled: Vec::new(),
            timer_counter,
            cuts: Vec::new(),
        }
    }

    /// Opens the context for a new step of `node` at `now`, as
    /// [`Context::new`] would, but keeps the allocations of its emptied
    /// buffers: an executor that steps often (either substrate, an
    /// automaton stepping inner automata) reuses one context instead of
    /// building a fresh one per step.
    pub fn reset(&mut self, node: NodeId, now: Time, timer_counter: u64) {
        self.node = node;
        self.now = now;
        self.timer_counter = timer_counter;
        self.outbox.clear();
        self.timers.clear();
        self.cancelled.clear();
        self.cuts.clear();
    }

    /// Marks the boundary between two messages handled one by one inside
    /// one step: the simulator numbers the outputs before the cut ahead
    /// of those after it, messages before timers on each side, as it
    /// would for two steps.
    fn cut(&mut self) {
        self.cuts.push((self.outbox.len(), self.timers.len()));
    }

    /// Messages buffered by this step, in send order (test inspection).
    pub fn sent(&self) -> &[(NodeId, M)] {
        &self.outbox
    }

    /// Moves the buffered messages out in send order, keeping the buffer.
    pub fn drain_sent(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.outbox.drain(..)
    }

    /// Timers armed by this step as `(delay, token)` pairs.
    pub fn armed_timers(&self) -> &[(u64, TimerToken)] {
        &self.timers
    }

    /// Timers cancelled by this step.
    pub fn cancelled_timers(&self) -> &[TimerToken] {
        &self.cancelled
    }

    /// The timer-token counter after this step (for external executors
    /// that thread it through successive contexts, like the real-time
    /// runtime).
    pub fn timer_counter_snapshot(&self) -> u64 {
        self.timer_counter
    }

    /// The id of the node taking this step.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Current simulated time (the global clock — exposed for latency
    /// accounting; protocol decisions must not branch on absolute time, per
    /// the paper's inaccessible-clock assumption, only on timer expiry).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` (buffered; routed after the step).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends a clone of `msg` to every node in `targets`.
    pub fn broadcast<I>(&mut self, targets: I, msg: M)
    where
        M: Clone,
        I: IntoIterator<Item = NodeId>,
    {
        for to in targets {
            self.outbox.push((to, msg.clone()));
        }
    }

    /// Arms a timer that fires after `delay` ticks; returns its token.
    pub fn set_timer(&mut self, delay: u64) -> TimerToken {
        let token = TimerToken(self.timer_counter);
        self.timer_counter += 1;
        self.timers.push((delay, token));
        token
    }

    /// Cancels a pending timer (no-op if already fired).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.cancelled.push(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_outputs() {
        let mut ctx: Context<&'static str> = Context::new(NodeId(7), Time(3), 0);
        assert_eq!(ctx.me(), NodeId(7));
        assert_eq!(ctx.now(), Time(3));
        ctx.send(NodeId(1), "hello");
        ctx.broadcast([NodeId(2), NodeId(3)], "all");
        assert_eq!(ctx.outbox.len(), 3);
        let t1 = ctx.set_timer(5);
        let t2 = ctx.set_timer(5);
        assert_ne!(t1, t2);
        ctx.cancel_timer(t1);
        assert_eq!(ctx.timers.len(), 2);
        assert_eq!(ctx.cancelled, vec![t1]);
    }

    #[test]
    fn reset_empties_the_buffers_and_keeps_their_capacity() {
        let mut ctx: Context<u32> = Context::new(NodeId(1), Time(3), 10);
        ctx.send(NodeId(2), 7);
        let armed = ctx.set_timer(4);
        ctx.cancel_timer(armed);
        let outbox = ctx.outbox.capacity();
        ctx.reset(NodeId(5), Time(9), 40);
        assert_eq!((ctx.me(), ctx.now()), (NodeId(5), Time(9)));
        assert!(ctx.sent().is_empty() && ctx.armed_timers().is_empty());
        assert!(ctx.cancelled_timers().is_empty());
        assert_eq!(ctx.outbox.capacity(), outbox);
        assert_eq!(
            ctx.set_timer(1),
            TimerToken(40),
            "tokens resume at the seed"
        );
        ctx.broadcast([NodeId(1), NodeId(2)], 8);
        assert_eq!(
            ctx.drain_sent().collect::<Vec<_>>(),
            [(NodeId(1), 8), (NodeId(2), 8)]
        );
        assert!(ctx.sent().is_empty());
    }

    #[test]
    fn node_id_from_process_id() {
        let n: NodeId = rqs_core::ProcessId(4).into();
        assert_eq!(n, NodeId(4));
        assert_eq!(n.to_string(), "n4");
        assert_eq!(n.index(), 4);
    }
}
