//! The deterministic substrate: an [`Agenda`] over simulated time, plus
//! an optional [`Scheduler`].
//!
//! A [`World`] owns the nodes, the simulated clock and the agenda.
//! Entries (deliveries, timer expirations, crashes, restarts) execute in
//! the agenda's `(time, sequence)` order, so executions are bit-for-bit
//! reproducible — the property the paper's indistinguishability
//! arguments rely on. In that order a run of consecutive deliveries to
//! one node at one time is one step over the batch
//! ([`Automaton::on_messages`]) — the simulator's picture of a node
//! draining its inbox. A [`Scheduler`] instead picks among all pending
//! entries, one per step.

use crate::agenda::{Agenda, Due, Entry};
use crate::network::{Envelope, Fate, FatePolicy};
use crate::node::{Automaton, Context, NodeId};
use crate::scenario::CrashMode;
use crate::sched::{fnv1a_fold, PendingEvent, PendingKind, SchedDecision, Scheduler};
use crate::time::Time;
use rqs_obs::{Obs, TraceKind, LANE_SYS};

/// The payload-free view of an entry handed to schedulers.
fn view<M>(e: &Entry<Time, M>) -> PendingEvent {
    let node = e.node;
    let kind = match &e.due {
        Due::Deliver { from, .. } => PendingKind::Deliver {
            from: *from,
            to: node,
        },
        Due::Timer(token) => PendingKind::Timer {
            node,
            token: token.0,
        },
        Due::Crash(_) => PendingKind::Crash { node },
        Due::Restart => PendingKind::Restart { node },
    };
    PendingEvent {
        at: e.at,
        seq: e.seq,
        kind,
    }
}

/// One line of the execution trace (for debugging and figure rendering).
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When the event executed.
    pub at: Time,
    /// Human-readable description.
    pub what: String,
}

/// Statistics accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Messages handed to the fate policy.
    pub messages_sent: usize,
    /// Messages actually delivered to a live node.
    pub messages_delivered: usize,
    /// Messages dropped by policy.
    pub messages_dropped: usize,
    /// Timer events fired.
    pub timers_fired: usize,
    /// Steps executed.
    pub steps: usize,
    /// Payload items carried by sent messages, as measured by the sizer
    /// installed with [`World::set_sizer`] (equals `messages_sent` when no
    /// sizer is installed — every message counts as one item).
    pub items_sent: usize,
}

/// The deterministic simulation world.
///
/// # Examples
///
/// ```
/// use rqs_sim::{World, Automaton, Context, NodeId, ScenarioNet, TimerToken};
/// use std::any::Any;
///
/// struct Echo { got: Option<u32> }
/// impl Automaton<u32> for Echo {
///     fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
///         self.got = Some(msg);
///         if msg < 3 { ctx.send(from, msg + 1); }
///     }
///     fn as_any(&self) -> &dyn Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// let mut world = World::new(ScenarioNet::benign());
/// let a = world.add_node(Box::new(Echo { got: None }));
/// let b = world.add_node(Box::new(Echo { got: None }));
/// world.post(a, b, 0u32); // kick off: a → b
/// world.run_to_quiescence();
/// assert_eq!(world.node_as::<Echo>(b).got, Some(2));
/// assert_eq!(world.node_as::<Echo>(a).got, Some(3));
/// ```
pub struct World<M> {
    nodes: Vec<Option<Box<dyn Automaton<M>>>>,
    crashed: Vec<bool>,
    crash_modes: Vec<CrashMode>,
    agenda: Agenda<Time, M>,
    now: Time,
    timer_counter: u64,
    policy: Box<dyn FatePolicy<M>>,
    scheduler: Option<Box<dyn Scheduler>>,
    sizer: Option<fn(&M) -> u64>,
    stats: WorldStats,
    trace: Option<Vec<TraceEntry>>,
    trace_fmt: Option<fn(&M) -> String>,
    obs: Obs,
    /// The batch of the delivery step being taken (empty between steps;
    /// kept for its capacity).
    batch: Vec<(NodeId, M)>,
    /// The context every step runs in, re-opened per step (its buffers
    /// are empty between steps; kept for their capacity).
    ctx: Context<M>,
}

impl<M: Clone + 'static> World<M> {
    /// Creates a world with the given fate policy.
    pub fn new(policy: impl FatePolicy<M> + 'static) -> Self {
        World {
            nodes: Vec::new(),
            crashed: Vec::new(),
            crash_modes: Vec::new(),
            agenda: Agenda::default(),
            now: Time::ZERO,
            timer_counter: 0,
            policy: Box::new(policy),
            scheduler: None,
            sizer: None,
            stats: WorldStats::default(),
            trace: None,
            trace_fmt: None,
            obs: Obs::nop(),
            batch: Vec::new(),
            ctx: Context::new(NodeId(0), Time::ZERO, 0),
        }
    }

    /// Installs a structured-trace observer: the world emits
    /// [`TraceKind::Deliver`] / [`TraceKind::Drop`] /
    /// [`TraceKind::Crash`] / [`TraceKind::Recover`] events for every
    /// dispatched network/fault event. Defaults to the zero-overhead
    /// no-op observer.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The installed structured-trace observer (no-op by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replaces the fate policy mid-run (e.g. to end a synchronous period).
    pub fn set_policy(&mut self, policy: impl FatePolicy<M> + 'static) {
        self.policy = Box::new(policy);
    }

    /// Installs a [`Scheduler`]: from the next [`World::step`] on, the
    /// scheduler — not the agenda's `(time, sequence)` order — decides which
    /// pending event executes next (the adversarial-scheduler seam used
    /// by `rqs-check`). Without a scheduler the behaviour is exactly the
    /// historical deterministic order.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// Removes the scheduler, restoring the default deterministic order.
    pub fn clear_scheduler(&mut self) {
        self.scheduler = None;
    }

    /// A logical-state fingerprint for schedule-exploration deduplication:
    /// hashes every node's [`state_digest`](Automaton::state_digest), the
    /// crash flags, and the multiset of pending events — deliveries via
    /// `hash_msg`, timers by `(node, token)` — while deliberately ignoring
    /// delivery *times* and sequence numbers, so two executions that
    /// reached the same protocol state by different schedules collide.
    pub fn digest_with(&self, hash_msg: impl Fn(&M) -> u64) -> u64 {
        let mut events: Vec<u64> = Vec::with_capacity(self.agenda.len());
        for e in self.agenda.iter() {
            let node = e.node.0 as u64;
            let h = match &e.due {
                Due::Deliver { from, msg } => fnv1a_fold(
                    fnv1a_fold(fnv1a_fold(1, from.0 as u64), node),
                    hash_msg(msg),
                ),
                Due::Timer(token) if self.agenda.is_cancelled(*token) => continue,
                Due::Timer(token) => fnv1a_fold(fnv1a_fold(2, node), token.0),
                Due::Crash(mode) => fnv1a_fold(fnv1a_fold(3, node), *mode as u64),
                Due::Restart => fnv1a_fold(4, node),
            };
            events.push(h);
        }
        events.sort_unstable();
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for e in events {
            acc = fnv1a_fold(acc, e);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let d = node.as_ref().map_or(0, |n| n.state_digest());
            acc = fnv1a_fold(acc, d);
            acc = fnv1a_fold(acc, self.crashed[i] as u64);
            acc = fnv1a_fold(acc, self.crash_modes[i] as u64);
        }
        acc
    }

    /// Installs a payload sizer: every sent message contributes
    /// `sizer(&msg)` to [`WorldStats::items_sent`] (batched message types
    /// report their inner item count; without a sizer each message counts
    /// as one item). Survives [`World::set_policy`] swaps.
    pub fn set_sizer(&mut self, sizer: fn(&M) -> u64) {
        self.sizer = Some(sizer);
    }

    /// Enables the execution trace; `fmt` renders message payloads.
    pub fn enable_trace(&mut self, fmt: fn(&M) -> String) {
        self.trace = Some(Vec::new());
        self.trace_fmt = Some(fmt);
    }

    /// The trace collected so far (empty when tracing is disabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Registers a node; ids are assigned densely from 0.
    pub fn add_node(&mut self, node: Box<dyn Automaton<M>>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.crashed.push(false);
        self.crash_modes.push(CrashMode::Retain);
        id
    }

    /// Replaces the automaton at `id` (Byzantine behaviour injection /
    /// state forging). The new automaton's `on_start` is *not* called.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn replace_node(&mut self, id: NodeId, node: Box<dyn Automaton<M>>) {
        self.nodes[id.0] = Some(node);
        self.log(format!("{id} replaced (byzantine substitution)"));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run statistics.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// `true` iff the node crashed (or was crashed by schedule).
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id.0]
    }

    /// Immutable, downcast access to a node's concrete state.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the concrete type does not match.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> &T {
        let Some(slot) = self.nodes.get(id.0) else {
            panic!(
                "{id}: unknown node id ({} nodes registered)",
                self.nodes.len()
            );
        };
        slot.as_ref()
            .expect("node is mid-step")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| {
                panic!(
                    "{id}: expected automaton of type {}, found a different type",
                    std::any::type_name::<T>()
                )
            })
    }

    /// Calls the automaton's `on_start` hooks, in id order.
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            self.step_node(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Schedules a crash: from time `t` the node neither receives nor
    /// sends. (A crash between sends within one step is expressed by a
    /// [`FatePolicy`] dropping the tail of its messages instead.)
    /// Equivalent to [`crash_at_mode`](World::crash_at_mode) with
    /// [`CrashMode::Retain`].
    pub fn crash_at(&mut self, node: NodeId, t: Time) {
        self.crash_at_mode(node, t, CrashMode::Retain);
    }

    /// Schedules a crash of `node` at `t` with an explicit [`CrashMode`]:
    /// `Retain` restarts with in-memory state intact (the node's state
    /// plays the role of stable storage), `Amnesia` discards all volatile
    /// state at restart and rebuilds the node from its durable store via
    /// [`Automaton::restore_state`]. In both modes the crash purges the
    /// node's pending self-timers — timers are volatile state and must
    /// not survive into the post-restart execution.
    pub fn crash_at_mode(&mut self, node: NodeId, t: Time, mode: CrashMode) {
        self.agenda.push(t, node, Due::Crash(mode));
    }

    /// Schedules a restart: from time `t` the node processes messages and
    /// timers again. What state it resumes with depends on the mode of
    /// the crash that took it down ([`CrashMode`]). Messages delivered
    /// while it was crashed stay lost.
    pub fn restart_at(&mut self, node: NodeId, t: Time) {
        self.agenda.push(t, node, Due::Restart);
    }

    /// Invokes an operation on a node immediately (at the current time):
    /// the closure plays the role of an external invocation step (e.g.
    /// `write(v)` arriving at a client). Outputs are routed as usual.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the concrete type does not match.
    pub fn invoke<T: 'static>(&mut self, id: NodeId, f: impl FnOnce(&mut T, &mut Context<M>)) {
        assert!(
            id.0 < self.nodes.len(),
            "{id}: unknown node id ({} nodes registered)",
            self.nodes.len()
        );
        self.step_node(id, |node, ctx| {
            let concrete = node.as_any_mut().downcast_mut::<T>().unwrap_or_else(|| {
                panic!(
                    "{id}: expected automaton of type {}, found a different type",
                    std::any::type_name::<T>()
                )
            });
            f(concrete, ctx);
        });
    }

    /// Injects a message from `from` to `to` at the current time, subject
    /// to the fate policy (useful to bootstrap an execution).
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.route(Envelope {
            from,
            to,
            msg,
            sent_at: self.now,
        });
    }

    /// Executes a single entry; returns `false` when the agenda is empty.
    ///
    /// Without a scheduler, entries execute in the agenda's deterministic
    /// `(time, sequence)` order, and a delivery takes with it the
    /// deliveries to the same node at the same time that follow it
    /// directly in that order: one step over the batch. With a scheduler
    /// (see [`World::set_scheduler`]), it picks among all pending entries,
    /// one per step, and the clock only moves forward (delivering a
    /// "late" entry early keeps the current time — the adversarial
    /// asynchronous semantics).
    pub fn step(&mut self) -> bool {
        if self.scheduler.is_some() {
            return self.step_scheduled();
        }
        let Some(e) = self.agenda.pop_if(|_| true) else {
            return false;
        };
        debug_assert!(e.at >= self.now, "time went backwards");
        self.now = e.at;
        self.stats.steps += 1;
        self.dispatch(e.node, e.due);
        true
    }

    /// One scheduler-controlled step: purge no-op entries, present the
    /// pending set in canonical order, apply the scheduler's decision.
    fn step_scheduled(&mut self) -> bool {
        let mut pending = self.agenda.drain_ordered();
        // Purge entries that would be no-ops anyway (cancelled timers,
        // timers of crashed nodes, deliveries to crashed nodes) so the
        // explorer does not branch over them.
        let (crashed, agenda) = (&self.crashed, &mut self.agenda);
        pending.retain(|e| match e.due {
            Due::Timer(token) => !crashed[e.node.0] && !agenda.take_cancelled(token),
            Due::Deliver { .. } => !crashed[e.node.0],
            _ => true,
        });
        if pending.is_empty() {
            return false;
        }
        let views: Vec<PendingEvent> = pending.iter().map(view).collect();
        let mut decision = self
            .scheduler
            .as_mut()
            .expect("scheduler present")
            .choose(&views);
        // Only deliveries may be dropped; degrade to Deliver.
        if let SchedDecision::Drop(i) = decision {
            if !views[i.min(views.len() - 1)].kind.is_deliver() {
                decision = SchedDecision::Deliver(i);
            }
        }
        self.stats.steps += 1;
        let last = views.len() - 1;
        match decision {
            SchedDecision::Deliver(i) => {
                let e = pending.swap_remove(i.min(last));
                self.agenda.restore(pending);
                self.now = self.now.max(e.at);
                self.dispatch(e.node, e.due);
            }
            SchedDecision::Drop(i) => {
                let e = pending.swap_remove(i.min(last));
                self.agenda.restore(pending);
                if let Due::Deliver { from, .. } = e.due {
                    let to = e.node;
                    self.stats.messages_dropped += 1;
                    self.obs.emit(
                        TraceKind::Drop,
                        self.now.ticks(),
                        to.0 as u64,
                        LANE_SYS,
                        from.0 as u64,
                        0,
                    );
                    self.log(format!("{from} → {to}: dropped by scheduler"));
                }
            }
            SchedDecision::Crash(node) => {
                self.agenda.restore(pending);
                if node < self.crashed.len() {
                    self.crashed[node] = true;
                    self.crash_modes[node] = CrashMode::Retain;
                    self.agenda.purge_timers(NodeId(node));
                    self.log(format!("n{node} crashed by scheduler"));
                }
            }
            SchedDecision::CrashRecover(node) => {
                self.agenda.restore(pending);
                if node < self.crashed.len() && !self.crashed[node] {
                    self.agenda.purge_timers(NodeId(node));
                    let replayed = self.nodes[node].as_mut().map_or(0, |n| n.restore_state());
                    self.log(format!(
                        "n{node} amnesia-crashed and recovered by scheduler \
                         ({replayed} log records replayed)"
                    ));
                }
            }
        }
        true
    }

    /// Executes one entry for `node` at the current time.
    fn dispatch(&mut self, node: NodeId, due: Due<M>) {
        let now = self.now.ticks();
        match due {
            Due::Crash(mode) => {
                self.crashed[node.0] = true;
                self.crash_modes[node.0] = mode;
                // Timers are volatile state: a timer armed before the
                // crash must not fire after a restart (in either mode).
                self.agenda.purge_timers(node);
                self.obs.emit(
                    TraceKind::Crash,
                    now,
                    node.0 as u64,
                    LANE_SYS,
                    mode as u64,
                    0,
                );
                self.log(format!("{node} crashed ({})", mode.label()));
            }
            Due::Restart => {
                self.crashed[node.0] = false;
                let amnesia = self.crash_modes[node.0] == CrashMode::Amnesia;
                let mut replayed = 0;
                if amnesia {
                    self.crash_modes[node.0] = CrashMode::Retain;
                    replayed = self.nodes[node.0].as_mut().map_or(0, |n| n.restore_state());
                }
                self.obs.emit(
                    TraceKind::Recover,
                    now,
                    node.0 as u64,
                    LANE_SYS,
                    replayed as u64,
                    amnesia as u64,
                );
                self.log(if amnesia {
                    format!("{node} restarted (amnesia: {replayed} log records replayed)")
                } else {
                    format!("{node} restarted")
                });
            }
            Due::Deliver { from, msg } => {
                let to = node;
                if self.crashed[to.0] {
                    self.obs.emit(
                        TraceKind::Drop,
                        now,
                        to.0 as u64,
                        LANE_SYS,
                        from.0 as u64,
                        1,
                    );
                    self.log(format!("{from} → {to}: dropped (receiver crashed)"));
                    return;
                }
                self.admit(from, to, msg);
                while let Some((from, msg)) = self.pop_delivery_to(to) {
                    self.admit(from, to, msg);
                }
                let mut batch = std::mem::take(&mut self.batch);
                self.step_node(to, |node, ctx| node.on_messages(batch.drain(..), ctx));
                self.batch = batch;
            }
            Due::Timer(token) => {
                if self.crashed[node.0] || self.agenda.take_cancelled(token) {
                    return;
                }
                self.stats.timers_fired += 1;
                self.log(format!("{node}: timer {} fired", token.0));
                self.step_node(node, |node, ctx| node.on_timer(token, ctx));
            }
        }
    }

    /// Takes the next entry in `(time, sequence)` order if it is a
    /// delivery to `to` at the current time (never under a scheduler,
    /// whose step is one entry). `to` is live and nothing stands between
    /// the two deliveries, so it is live for this one too.
    fn pop_delivery_to(&mut self, to: NodeId) -> Option<(NodeId, M)> {
        if self.scheduler.is_some() {
            return None;
        }
        let now = self.now;
        let next = self
            .agenda
            .pop_if(|e| e.at == now && e.node == to && matches!(e.due, Due::Deliver { .. }))?;
        match next.due {
            Due::Deliver { from, msg } => Some((from, msg)),
            _ => unreachable!("matched a delivery above"),
        }
    }

    /// Counts and traces one delivery to the live node `to` and adds it
    /// to the step's batch.
    fn admit(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.stats.messages_delivered += 1;
        self.obs.emit(
            TraceKind::Deliver,
            self.now.ticks(),
            to.0 as u64,
            LANE_SYS,
            from.0 as u64,
            0,
        );
        if let Some(fmt) = self.trace_fmt {
            self.log(format!("{from} → {to}: {}", fmt(&msg)));
        }
        self.batch.push((from, msg));
    }

    /// Runs until the agenda is empty or `max_steps` entries executed;
    /// returns the number of steps taken.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps` is exhausted — quiescence was expected.
    pub fn run_to_quiescence_bounded(&mut self, max_steps: usize) -> usize {
        for taken in 0..max_steps {
            if !self.step() {
                return taken;
            }
        }
        panic!("no quiescence after {max_steps} steps");
    }

    /// Runs until the agenda is empty (bounded at 10 million steps).
    pub fn run_to_quiescence(&mut self) -> usize {
        self.run_to_quiescence_bounded(10_000_000)
    }

    /// Runs until `pred(self)` holds, checking after every step.
    ///
    /// Returns `true` if the predicate held, `false` if the agenda drained
    /// first.
    ///
    /// # Panics
    ///
    /// Panics after 10 million steps.
    pub fn run_until(&mut self, mut pred: impl FnMut(&World<M>) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        for _ in 0..10_000_000usize {
            if !self.step() {
                return pred(self);
            }
            if pred(self) {
                return true;
            }
        }
        panic!("run_until: no progress after 10M steps");
    }

    /// Runs until `pred(self)` holds or `max_steps` events executed;
    /// returns whether the predicate held. Unlike [`World::run_until`],
    /// exhausting the budget is not an error — use this when the predicate
    /// may be unreachable (e.g. waiting for termination that faults might
    /// prevent).
    pub fn run_until_bounded(
        &mut self,
        mut pred: impl FnMut(&World<M>) -> bool,
        max_steps: usize,
    ) -> bool {
        if pred(self) {
            return true;
        }
        for _ in 0..max_steps {
            if !self.step() {
                return pred(self);
            }
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Runs all entries scheduled strictly before `deadline`.
    pub fn run_before(&mut self, deadline: Time) {
        while self.agenda.next_at().is_some_and(|at| at < deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    // ---- internals ----------------------------------------------------

    fn log(&mut self, what: String) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { at: self.now, what });
        }
    }

    fn step_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Automaton<M>, &mut Context<M>)) {
        if self.crashed[id.0] {
            return;
        }
        let mut node = self.nodes[id.0].take().expect("re-entrant step on node");
        let mut ctx = std::mem::replace(&mut self.ctx, Context::new(id, self.now, 0));
        ctx.reset(id, self.now, self.timer_counter);
        f(node.as_mut(), &mut ctx);
        self.timer_counter = ctx.timer_counter;
        self.nodes[id.0] = Some(node);
        // Route outputs: messages, then timers. A step the default
        // `on_messages` took over several messages is cut between them,
        // and each part is routed like a step of its own, so sequence
        // numbers and fate-policy calls come out as under one message
        // per step.
        let mut outbox = ctx.outbox.drain(..);
        let mut timers = ctx.timers.drain(..);
        let mut routed = (0, 0);
        for &cut in ctx.cuts.iter().chain(&[(usize::MAX, usize::MAX)]) {
            for (to, msg) in outbox.by_ref().take(cut.0 - routed.0) {
                self.route(Envelope {
                    from: id,
                    to,
                    msg,
                    sent_at: self.now,
                });
            }
            for (delay, token) in timers.by_ref().take(cut.1 - routed.1) {
                let at = self.now + delay.max(1);
                self.agenda.push(at, id, Due::Timer(token));
            }
            routed = cut;
        }
        drop((outbox, timers));
        for &token in &ctx.cancelled {
            self.agenda.cancel(token);
        }
        self.ctx = ctx;
    }

    fn route(&mut self, env: Envelope<M>) {
        self.stats.messages_sent += 1;
        self.stats.items_sent += self.sizer.map_or(1, |s| s(&env.msg)) as usize;
        let (from, to) = (env.from, env.to);
        let at = match self.policy.fate(&env) {
            Fate::Deliver { delay } => self.now + delay.max(1),
            Fate::DeliverAt(t) => t.max(self.now + 1),
            Fate::Duplicate { first, second } => {
                let copy = Due::Deliver {
                    from,
                    msg: env.msg.clone(),
                };
                self.agenda.push(self.now + first.max(1), to, copy);
                self.log(format!("{from} → {to}: duplicated"));
                self.now + second.max(1)
            }
            Fate::Drop => {
                self.stats.messages_dropped += 1;
                let now = self.now.ticks();
                self.obs.emit(
                    TraceKind::Drop,
                    now,
                    to.0 as u64,
                    LANE_SYS,
                    from.0 as u64,
                    0,
                );
                self.log(format!("{from} → {to}: dropped by policy"));
                return;
            }
        };
        self.agenda
            .push(at, to, Due::Deliver { from, msg: env.msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Selector;
    use crate::node::TimerToken;
    use crate::scenario::{LinkEffect, LinkRule, Scenario, ScenarioNet};
    use std::any::Any;

    /// Test automaton: counts pings, pongs back until a limit.
    struct PingPong {
        limit: u32,
        received: Vec<u32>,
        timer_fired: bool,
    }

    impl PingPong {
        fn new(limit: u32) -> Self {
            PingPong {
                limit,
                received: Vec::new(),
                timer_fired: false,
            }
        }
    }

    impl Automaton<u32> for PingPong {
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.received.push(msg);
            if msg < self.limit {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<u32>) {
            self.timer_fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world() -> (World<u32>, NodeId, NodeId) {
        let mut w = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(PingPong::new(4)));
        let b = w.add_node(Box::new(PingPong::new(4)));
        (w, a, b)
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, 0);
        let steps = w.run_to_quiescence();
        assert!(steps > 0);
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0, 2, 4]);
        assert_eq!(w.node_as::<PingPong>(a).received, vec![1, 3]);
        // 5 deliveries at times 1..=5
        assert_eq!(w.now(), Time(5));
        assert_eq!(w.stats().messages_delivered, 5);
    }

    #[test]
    fn determinism() {
        let run = || {
            let (mut w, a, b) = two_node_world();
            w.post(a, b, 0);
            w.run_to_quiescence();
            (
                w.now(),
                w.stats(),
                w.node_as::<PingPong>(a).received.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_stops_processing() {
        let (mut w, a, b) = two_node_world();
        w.crash_at(b, Time(2));
        w.post(a, b, 0);
        w.run_to_quiescence();
        // b receives at t1 (msg 0), replies; a receives at t2 (msg 1),
        // replies; b crashed at t2 so the t3 delivery is dropped.
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0]);
        assert_eq!(w.node_as::<PingPong>(a).received, vec![1]);
        assert!(w.is_crashed(b));
        assert!(!w.is_crashed(a));
    }

    #[test]
    fn restart_resumes_processing_with_retained_state() {
        let (mut w, a, b) = two_node_world();
        w.crash_at(b, Time(2));
        w.restart_at(b, Time(10));
        w.post(a, b, 0);
        w.run_to_quiescence();
        // b got msg 0 before crashing; the t3 delivery was lost.
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0]);
        assert!(!w.is_crashed(b));
        // After restart, b processes again — state intact.
        w.post(a, b, 7);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0, 7]);
    }

    /// Arms a 5-tick timer on every message; restore_state clears the
    /// volatile payload (simulating a node whose durable store is empty).
    struct TimerHolder {
        fired: usize,
        volatile: u32,
        restores: usize,
    }

    impl Automaton<u32> for TimerHolder {
        fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.volatile = msg;
            ctx.set_timer(5);
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<u32>) {
            self.fired += 1;
        }
        fn restore_state(&mut self) -> usize {
            self.volatile = 0;
            self.restores += 1;
            0
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn crash_purges_pending_self_timers_in_both_modes() {
        // Regression: a timer armed before a crash used to survive the
        // crash and fire after a retain-restart. Timers are volatile
        // state and must die with the node in either crash mode.
        for mode in [CrashMode::Retain, CrashMode::Amnesia] {
            let mut w = World::new(ScenarioNet::benign());
            let a = w.add_node(Box::new(TimerHolder {
                fired: 0,
                volatile: 0,
                restores: 0,
            }));
            w.post(a, a, 42); // delivered at t1, arms a timer for t6
            w.crash_at_mode(a, Time(2), mode);
            w.restart_at(a, Time(3)); // restart well before the timer's t6
            w.run_to_quiescence();
            let n = w.node_as::<TimerHolder>(a);
            assert_eq!(
                n.fired,
                0,
                "pre-crash timer fired after a {} restart",
                mode.label()
            );
            match mode {
                CrashMode::Retain => {
                    assert_eq!(n.volatile, 42, "retain restart must keep state");
                    assert_eq!(n.restores, 0);
                }
                CrashMode::Amnesia => {
                    assert_eq!(n.volatile, 0, "amnesia restart must drop volatile state");
                    assert_eq!(n.restores, 1, "amnesia restart must call restore_state");
                }
            }
            assert!(!w.is_crashed(a));
        }
    }

    #[test]
    fn scheduler_crash_purges_timers_and_crash_recover_restores() {
        let mut w = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(TimerHolder {
            fired: 0,
            volatile: 0,
            restores: 0,
        }));
        let b = w.add_node(Box::new(TimerHolder {
            fired: 0,
            volatile: 0,
            restores: 0,
        }));
        w.post(a, a, 7); // arms a's timer at t1
        w.post(b, b, 9); // arms b's timer at t1
                         // Choice 1: deliver a's message (arms timer). Choice 2: deliver
                         // b's message. Choice 3: amnesia-crash-recover a (atomic), which
                         // must purge a's pending timer and call restore_state. Choice 4:
                         // retain-crash b by scheduler, purging b's timer.
        w.set_scheduler(Box::new(Scripted {
            script: vec![
                SchedDecision::Deliver(0),
                SchedDecision::Deliver(0),
                SchedDecision::CrashRecover(0),
                SchedDecision::Crash(1),
            ],
            pos: 0,
            seen: vec![],
        }));
        w.run_to_quiescence();
        let na = w.node_as::<TimerHolder>(a);
        assert_eq!(na.fired, 0, "crash-recover must purge pending self-timers");
        assert_eq!(na.restores, 1, "crash-recover must rebuild from the store");
        assert_eq!(na.volatile, 0);
        assert!(!w.is_crashed(a), "crash-recover leaves the node live");
        let nb = w.node_as::<TimerHolder>(b);
        assert_eq!(
            nb.fired, 0,
            "scheduler crash must purge pending self-timers"
        );
        assert_eq!(nb.restores, 0);
        assert!(w.is_crashed(b));
    }

    #[test]
    fn duplicate_fate_delivers_twice() {
        let mut w: World<u32> = World::new(|_e: &Envelope<u32>| Fate::Duplicate {
            first: 1,
            second: 3,
        });
        let a = w.add_node(Box::new(PingPong::new(0)));
        let b = w.add_node(Box::new(PingPong::new(0)));
        w.post(a, b, 9);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![9, 9]);
        assert_eq!(w.now(), Time(3));
        assert_eq!(w.stats().messages_sent, 1);
        assert_eq!(w.stats().messages_delivered, 2);

        // `Duplicate { lag: 0 }`: the copy lags by no tick, so both
        // arrive one tick after the send.
        let dup = Scenario::default().link(LinkRule::every(LinkEffect::Duplicate { lag: 0 }));
        let mut w: World<u32> = World::new(dup.network());
        let a = w.add_node(Box::new(PingPong::new(0)));
        let b = w.add_node(Box::new(PingPong::new(0)));
        w.post(a, b, 9);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![9, 9]);
        assert_eq!(w.now(), Time(1));
        assert_eq!(w.stats().messages_delivered, 2);
    }

    #[test]
    fn sizer_counts_payload_items() {
        let (mut w, a, b) = two_node_world();
        w.set_sizer(|m| (*m as u64) + 1);
        w.post(a, b, 3); // b replies 4, which hits the limit
        w.run_to_quiescence();
        // two messages: sizes 4 and 5 → 9 items
        assert_eq!(w.stats().messages_sent, 2);
        assert_eq!(w.stats().items_sent, 9);
    }

    #[test]
    fn drop_rule() {
        let mut w = World::new(
            Scenario::default()
                .link(LinkRule::every(LinkEffect::Drop).to(Selector::Is(NodeId(0))))
                .network(),
        );
        let a = w.add_node(Box::new(PingPong::new(9)));
        let b = w.add_node(Box::new(PingPong::new(9)));
        w.post(a, b, 0);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0]);
        assert!(w.node_as::<PingPong>(a).received.is_empty());
        assert_eq!(w.stats().messages_dropped, 1);
    }

    #[test]
    fn deliver_at_absolute_time() {
        let mut w: World<u32> = World::new(|_e: &Envelope<u32>| Fate::DeliverAt(Time(50)));
        let a = w.add_node(Box::new(PingPong::new(0)));
        let b = w.add_node(Box::new(PingPong::new(0)));
        w.post(a, b, 1);
        w.run_to_quiescence();
        assert_eq!(w.now(), Time(50));
        assert_eq!(w.node_as::<PingPong>(b).received, vec![1]);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Automaton<u32> for TimerNode {
            fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Context<u32>) {
                let keep = ctx.set_timer(5);
                let drop_me = ctx.set_timer(5);
                ctx.cancel_timer(drop_me);
                if msg == 99 {
                    ctx.cancel_timer(keep);
                }
            }
            fn on_timer(&mut self, t: TimerToken, _ctx: &mut Context<u32>) {
                self.fired.push(t.0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(TimerNode { fired: vec![] }));
        let ext = w.add_node(Box::new(PingPong::new(0)));
        w.post(ext, a, 1);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<TimerNode>(a).fired.len(), 1);
        assert_eq!(w.stats().timers_fired, 1);
    }

    #[test]
    fn invoke_drives_operations() {
        let (mut w, a, b) = two_node_world();
        w.invoke::<PingPong>(a, |_node, ctx| {
            ctx.send(NodeId(1), 3);
        });
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![3]);
        let _ = a;
    }

    #[test]
    fn run_until_predicate() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, 0);
        let reached = w.run_until(|w| w.now() >= Time(3));
        assert!(reached);
        assert!(w.now() >= Time(3));
        // Predicate never satisfied: drains queue, returns false.
        let reached = w.run_until(|w| w.now() >= Time(1000));
        assert!(!reached);
    }

    #[test]
    fn run_before_advances_clock() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, 0);
        w.run_before(Time(3));
        assert_eq!(w.now(), Time(3));
        // deliveries at t1, t2 done; t3+ pending
        assert_eq!(w.stats().messages_delivered, 2);
    }

    #[test]
    fn replace_node_swaps_behaviour() {
        let (mut w, a, b) = two_node_world();
        w.replace_node(b, Box::new(PingPong::new(0))); // never replies
        w.post(a, b, 0);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![0]);
        assert!(w.node_as::<PingPong>(a).received.is_empty());
    }

    #[test]
    fn trace_records_events() {
        let (mut w, a, b) = two_node_world();
        w.enable_trace(|m| format!("ping({m})"));
        w.post(a, b, 0);
        w.run_to_quiescence();
        let trace = w.trace();
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|e| e.what.contains("ping(0)")));
    }

    #[test]
    #[should_panic(expected = "n1: expected automaton of type")]
    fn node_as_panic_names_node_and_type() {
        struct Other;
        impl Automaton<u32> for Other {
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<u32>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut w, _a, b) = two_node_world();
        w.replace_node(b, Box::new(Other));
        let _ = w.node_as::<PingPong>(b);
    }

    #[test]
    #[should_panic(expected = "n7: unknown node id (2 nodes registered)")]
    fn node_as_panic_names_unknown_id() {
        let (w, _a, _b) = two_node_world();
        let _ = w.node_as::<PingPong>(NodeId(7));
    }

    #[test]
    #[should_panic(expected = "n0: expected automaton of type")]
    fn invoke_panic_names_node_and_type() {
        struct Other;
        impl Automaton<u32> for Other {
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<u32>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w: World<u32> = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(Other));
        w.invoke::<PingPong>(a, |_n, _c| {});
    }

    /// A scheduler driven by a scripted decision list, canonical beyond it.
    struct Scripted {
        script: Vec<SchedDecision>,
        pos: usize,
        seen: Vec<usize>,
    }

    impl Scheduler for Scripted {
        fn choose(&mut self, pending: &[PendingEvent]) -> SchedDecision {
            self.seen.push(pending.len());
            let d = self
                .script
                .get(self.pos)
                .copied()
                .unwrap_or(SchedDecision::CANONICAL);
            self.pos += 1;
            d
        }
    }

    #[test]
    fn canonical_scheduler_reproduces_default_run() {
        let run_default = || {
            let (mut w, a, b) = two_node_world();
            w.enable_trace(|m| format!("{m}"));
            w.post(a, b, 0);
            w.run_to_quiescence();
            let trace: Vec<String> = w.trace().iter().map(|e| format!("{e:?}")).collect();
            (w.now(), w.stats().messages_delivered, trace)
        };
        let run_scheduled = || {
            let (mut w, a, b) = two_node_world();
            w.enable_trace(|m| format!("{m}"));
            w.set_scheduler(Box::new(Scripted {
                script: vec![],
                pos: 0,
                seen: vec![],
            }));
            w.post(a, b, 0);
            w.run_to_quiescence();
            let trace: Vec<String> = w.trace().iter().map(|e| format!("{e:?}")).collect();
            (w.now(), w.stats().messages_delivered, trace)
        };
        assert_eq!(run_default(), run_scheduled());
    }

    /// Records its steps: a batch as its messages, a timer as `None`.
    /// Arms a 1-tick timer on an odd message, forwards an even one.
    #[derive(Default)]
    struct Steps {
        steps: Vec<Option<Vec<u32>>>,
        forward_to: Option<NodeId>,
    }

    impl Automaton<u32> for Steps {
        fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Context<u32>) {
            match self.forward_to {
                Some(_) if msg % 2 == 1 => {
                    ctx.set_timer(1);
                }
                Some(to) => ctx.send(to, msg),
                None => {}
            }
        }
        fn on_messages(
            &mut self,
            batch: std::vec::Drain<'_, (NodeId, u32)>,
            ctx: &mut Context<u32>,
        ) {
            let batch: Vec<(NodeId, u32)> = batch.collect();
            self.steps
                .push(Some(batch.iter().map(|(_, m)| *m).collect()));
            for (from, msg) in batch {
                self.on_message(from, msg, ctx);
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<u32>) {
            self.steps.push(None);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn consecutive_same_time_deliveries_to_one_node_are_one_step() {
        let mut w: World<u32> = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(Steps::default()));
        let b = w.add_node(Box::new(Steps::default()));
        // Three in a row for `a`, then a delivery to `b` and one of `b`'s
        // timers, each followed by one more for `a`, all at one tick:
        // only the unbroken run shares a step.
        for m in [1, 2, 3] {
            w.post(b, a, m);
        }
        w.post(a, b, 9);
        w.post(b, a, 4);
        w.invoke::<Steps>(b, |_n, ctx| {
            ctx.set_timer(1);
        });
        w.post(b, a, 5);
        let steps = w.run_to_quiescence();
        let a = &w.node_as::<Steps>(a).steps;
        assert_eq!(*a, [Some(vec![1, 2, 3]), Some(vec![4]), Some(vec![5])]);
        assert_eq!(steps, 5, "one step per run, one per timer");
        assert_eq!(w.stats().messages_delivered, 6);

        // Under a scheduler a step is one event.
        let mut w: World<u32> = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(Steps::default()));
        w.set_scheduler(Box::new(Scripted {
            script: vec![],
            pos: 0,
            seen: vec![],
        }));
        w.post(a, a, 1);
        w.post(a, a, 2);
        w.run_to_quiescence();
        assert_eq!(w.node_as::<Steps>(a).steps, [Some(vec![1]), Some(vec![2])]);
    }

    /// Hands its messages to the default `on_messages`.
    struct OneByOne(Steps);

    impl Automaton<u32> for OneByOne {
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.0.on_message(from, msg, ctx);
        }
        fn on_timer(&mut self, t: TimerToken, ctx: &mut Context<u32>) {
            self.0.on_timer(t, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn default_batch_step_runs_like_one_message_per_step() {
        // One step of `a` takes [1, 2, 3, 4] on the default method: 1
        // and 3 arm a timer, 2 and 4 are forwarded. One message per step
        // numbers timer 1 ahead of forward 2 ahead of timer 3; the batch
        // step must too, or the two runs order tick 2 differently.
        let run = |scheduled: bool| {
            let mut w: World<u32> = World::new(ScenarioNet::benign());
            let a = w.add_node(Box::new(OneByOne(Steps::default())));
            let b = w.add_node(Box::new(Steps::default()));
            w.invoke::<OneByOne>(a, move |n, _| n.0.forward_to = Some(b));
            w.enable_trace(|m| format!("{m}"));
            if scheduled {
                w.set_scheduler(Box::new(Scripted {
                    script: vec![],
                    pos: 0,
                    seen: vec![],
                }));
            }
            for m in 1..=4 {
                w.post(b, a, m);
            }
            let steps = w.run_to_quiescence();
            let trace: Vec<String> = w.trace().iter().map(|e| format!("{e:?}")).collect();
            (steps, trace)
        };
        let (batched_steps, batched) = run(false);
        let (single_steps, single) = run(true);
        assert_eq!(batched, single);
        assert!(batched_steps < single_steps, "the batch was one step");
    }

    #[test]
    fn scheduler_reorders_pending_events() {
        // a sends two messages to b in one invoke; the scheduler delivers
        // the second first.
        let (mut w, a, b) = two_node_world();
        w.invoke::<PingPong>(a, |_n, ctx| {
            ctx.send(NodeId(1), 10);
            ctx.send(NodeId(1), 20);
        });
        w.set_scheduler(Box::new(Scripted {
            script: vec![SchedDecision::Deliver(1)],
            pos: 0,
            seen: vec![],
        }));
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![20, 10]);
        let _ = a;
    }

    #[test]
    fn scheduler_drop_and_crash_decisions() {
        let (mut w, a, b) = two_node_world();
        w.invoke::<PingPong>(a, |_n, ctx| {
            ctx.send(NodeId(1), 10);
            ctx.send(NodeId(1), 20);
        });
        // Drop the first message, then crash node 0 (the sender), then
        // deliver the rest canonically.
        w.set_scheduler(Box::new(Scripted {
            script: vec![SchedDecision::Drop(0), SchedDecision::Crash(0)],
            pos: 0,
            seen: vec![],
        }));
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![20]);
        assert!(w.is_crashed(a));
        assert_eq!(w.stats().messages_dropped, 1);
        // b's reply (21) to the crashed a was purged, not delivered.
        assert!(w.node_as::<PingPong>(a).received.is_empty());
    }

    #[test]
    fn scheduler_deliver_index_clamped() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, 3);
        w.set_scheduler(Box::new(Scripted {
            script: vec![SchedDecision::Deliver(99)],
            pos: 0,
            seen: vec![],
        }));
        w.run_to_quiescence();
        assert_eq!(w.node_as::<PingPong>(b).received, vec![3]);
    }

    #[test]
    fn clock_never_goes_backwards_under_scheduler() {
        let mut w: World<u32> = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(PingPong::new(0)));
        let b = w.add_node(Box::new(PingPong::new(0)));
        // Two posts; deliver the later-sequenced one first, then the other.
        w.post(a, b, 1);
        w.post(a, b, 2);
        w.set_scheduler(Box::new(Scripted {
            script: vec![SchedDecision::Deliver(1), SchedDecision::Deliver(0)],
            pos: 0,
            seen: vec![],
        }));
        let t_before = w.now();
        w.run_to_quiescence();
        assert!(w.now() >= t_before);
        assert_eq!(w.node_as::<PingPong>(b).received, vec![2, 1]);
    }

    #[test]
    fn digest_ignores_schedule_but_sees_state() {
        let hash = |m: &u32| *m as u64;
        let (mut w1, a1, b1) = two_node_world();
        w1.post(a1, b1, 0);
        let (mut w2, a2, b2) = two_node_world();
        w2.post(a2, b2, 0);
        assert_eq!(w1.digest_with(hash), w2.digest_with(hash));
        // Executing the pending delivery changes the digest (message is
        // consumed, a reply becomes pending).
        let before = w1.digest_with(hash);
        w1.step();
        assert_ne!(before, w1.digest_with(hash));
        // Crashing a node changes the digest too.
        let before = w2.digest_with(hash);
        let now = w2.now();
        w2.crash_at(b2, now);
        w2.step();
        assert_ne!(before, w2.digest_with(hash));
    }

    #[test]
    fn start_calls_on_start() {
        struct Starter {
            started: bool,
        }
        impl Automaton<u32> for Starter {
            fn on_start(&mut self, _ctx: &mut Context<u32>) {
                self.started = true;
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<u32>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(ScenarioNet::benign());
        let a = w.add_node(Box::new(Starter { started: false }));
        w.start();
        assert!(w.node_as::<Starter>(a).started);
    }
}
