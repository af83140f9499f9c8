//! A threaded, real-time execution environment for the same automatons
//! that run in the deterministic simulator.
//!
//! Every node runs on its own OS thread with a crossbeam channel inbox;
//! messages travel between threads, and protocol ticks are mapped to
//! wall-clock durations by a configurable tick length. A node that wakes
//! on a message takes the messages already in its inbox with it, as one
//! step ([`Automaton::on_messages`]). This is the deployment used by the
//! wall-clock benchmarks (experiment E11): same protocol code, real
//! channels and real time.
//!
//! The runtime implements [`Substrate`], so every deployment driver
//! written against that trait runs here unchanged.
//!
//! # One clock, one choke point
//!
//! Like the simulator's `(time, sequence)` queue, the runtime has one
//! notion of "later": the **agenda**, a heap of `(due, seq, node, event)`
//! entries served by the single `rt-clock` thread, which puts an entry's
//! event into its node's inbox when the entry comes due. An armed timer
//! is a timer entry at `now + delay`; a message a link rule delays, holds
//! or duplicates is a message entry at its due instant; a [`Scenario`]'s
//! crash plan is crash and restart entries pushed at start. Entries due
//! at the same instant fire in insertion order.
//!
//! A socket substrate can rely on three facts:
//!
//! 1. every outbound message — a node's, or one injected through
//!    [`Runtime::send`] — passes `NetOut::send` exactly once;
//! 2. its fate (`ScenarioNet::decide`: deliver, delay, hold, duplicate
//!    or drop — the wall-clock analogue of the simulator's fate policy)
//!    is decided there, on the sender's thread, at the send tick;
//! 3. everything that happens later than the step that caused it is an
//!    agenda entry.

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rqs_obs::{Obs, TraceKind, LANE_SYS};
use rqs_sim::{
    Automaton, Context, CrashMode, LinkDecision, NodeId, Scenario, ScenarioNet, Substrate,
    SubstrateConfig, SubstrateStats, Time, TimerToken,
};
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default wall-clock length of one protocol tick (`Δ`).
pub const DEFAULT_TICK: Duration = rqs_sim::DEFAULT_TICK;

/// Spawns a named OS thread (names show up in `/proc/<pid>/task/*` and
/// debuggers, which is how per-thread CPU is attributed when profiling
/// the runtime).
fn spawn_named<F>(name: &str, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

enum Event<M> {
    Msg {
        from: NodeId,
        msg: M,
    },
    Timer(TimerToken),
    #[allow(clippy::type_complexity)]
    Call(Box<dyn FnOnce(&mut dyn Automaton<M>, &mut Context<M>) + Send>),
    Crash(CrashMode),
    Restart,
    Replace(Box<dyn Automaton<M> + Send>),
    Shutdown,
}

/// One agenda entry: `event` goes into `node`'s inbox at `due`.
struct Entry<M> {
    due: Instant,
    /// Insertion sequence: entries due at the same instant fire in the
    /// order they were scheduled.
    seq: u64,
    node: usize,
    event: Event<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the earliest `(due, seq)` is the max-heap's top.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

struct Agenda<M> {
    heap: BinaryHeap<Entry<M>>,
    next_seq: u64,
    /// Tokens cancelled after arming: the clock drops their entries at
    /// pop time instead of waking the owning node just to swallow the
    /// firing. Most protocol timers (op timeouts, retry watchdogs) are
    /// cancelled on completion, so on the hot path this suppression
    /// saves one cross-thread event per armed timer.
    cancelled: HashSet<u64>,
    shutdown: bool,
}

impl<M> Agenda<M> {
    /// Adds an entry; returns whether it is now the earliest, i.e.
    /// whether the clock thread sleeps towards the wrong instant.
    fn push(&mut self, due: Instant, node: usize, event: Event<M>) -> bool {
        let earliest = self.heap.peek().is_none_or(|top| due < top.due);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            due,
            seq,
            node,
            event,
        });
        earliest
    }
}

/// The runtime's one notion of "later": the agenda and the thread that
/// serves it.
struct Clock<M> {
    agenda: Mutex<Agenda<M>>,
    wake: Condvar,
    /// Per-node acks for clock-side suppression: when the clock drops a
    /// cancelled timer entry it records the token here, and the owner
    /// drains the list after its next step to garbage-collect its own
    /// swallow list. A cancellation that loses the race (the firing was
    /// already in flight) is still swallowed node-locally.
    suppressed: Vec<Mutex<Vec<TimerToken>>>,
}

impl<M> Clock<M> {
    fn schedule(&self, due: Instant, node: usize, event: Event<M>) {
        let earliest = self.agenda.lock().push(due, node, event);
        if earliest {
            self.wake.notify_one();
        }
    }

    /// The `rt-clock` thread: moves due entries into their nodes'
    /// inboxes, in `(due, seq)` order, until shutdown.
    fn run(&self, inboxes: &[Sender<Event<M>>]) {
        let mut due = Vec::new();
        let mut agenda = self.agenda.lock();
        while !agenda.shutdown {
            let now = Instant::now();
            while agenda.heap.peek().is_some_and(|top| top.due <= now) {
                let entry = agenda.heap.pop().expect("peeked");
                match entry.event {
                    // Cancelled before it came due: drop the firing here
                    // and ack the owner so it can forget the token.
                    Event::Timer(token) if agenda.cancelled.remove(&token.0) => {
                        self.suppressed[entry.node].lock().push(token);
                    }
                    _ => due.push(entry),
                }
            }
            if !due.is_empty() {
                // Fill the inboxes with the agenda unlocked: a send may
                // have to wake the receiving thread.
                drop(agenda);
                for entry in due.drain(..) {
                    if let Some(inbox) = inboxes.get(entry.node) {
                        let _ = inbox.send(entry.event);
                    }
                }
                agenda = self.agenda.lock();
            } else if let Some(next) = agenda.heap.peek().map(|top| top.due) {
                self.wake.wait_until(&mut agenda, next);
            } else {
                self.wake.wait(&mut agenda);
            }
        }
    }
}

/// The outbound network path — the one place a message's fate is
/// decided. Every send counts its envelope and items, asks the scenario's
/// link schedule what happens to it, and then delivers it into the
/// destination inbox, schedules it on the clock, does both (a
/// duplicate), or drops it.
struct NetOut<M> {
    inboxes: Vec<Sender<Event<M>>>,
    clock: Clock<M>,
    /// `None` when the scenario has no link rules: nothing to decide,
    /// nothing to lock.
    links: Option<Mutex<ScenarioNet>>,
    envelopes: AtomicU64,
    items: AtomicU64,
    sizer: fn(&M) -> u64,
    obs: Obs,
    started: Instant,
    tick: Duration,
}

impl<M: Clone> NetOut<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M) {
        self.envelopes.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add((self.sizer)(&msg), Ordering::Relaxed);
        let Some(links) = &self.links else {
            return self.deliver(from, to, msg);
        };
        // Windowed link rules key on the send tick (the simulator's
        // `env.sent_at`), and a delay is timed from this instant.
        let sent_tick = self.now_ticks();
        let decision = links.lock().decide(from, to, sent_tick);
        let later = |due: Instant, msg: M| self.clock.schedule(due, to.0, Event::Msg { from, msg });
        match decision {
            LinkDecision::Deliver { extra: 0 } => self.deliver(from, to, msg),
            LinkDecision::Deliver { extra } => later(Instant::now() + self.wall(extra), msg),
            LinkDecision::DeliverAtTick(t) => later(self.instant_of(t), msg),
            LinkDecision::Drop => {
                self.obs.emit(
                    TraceKind::Drop,
                    sent_tick,
                    to.0 as u64,
                    LANE_SYS,
                    from.0 as u64,
                    0,
                );
            }
            LinkDecision::Duplicate { lag } => {
                self.deliver(from, to, msg.clone());
                later(Instant::now() + self.wall(lag.max(1)), msg);
            }
        }
    }

    fn deliver(&self, from: NodeId, to: NodeId, msg: M) {
        if let Some(inbox) = self.inboxes.get(to.0) {
            let _ = inbox.send(Event::Msg { from, msg });
        }
    }
}

impl<M> NetOut<M> {
    fn now_ticks(&self) -> u64 {
        (self.started.elapsed().as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// The wall-clock instant at which tick `t` begins.
    fn instant_of(&self, t: u64) -> Instant {
        self.started + self.wall(t)
    }

    /// `ticks` as wall-clock time, without the u32 truncation of
    /// `Duration * u32` (far-future scenario ticks saturate at ~584 years
    /// instead of silently wrapping to "almost now").
    fn wall(&self, ticks: u64) -> Duration {
        Duration::from_nanos((self.tick.as_nanos() as u64).saturating_mul(ticks))
    }
}

/// A running threaded deployment.
///
/// Build through [`Substrate::build`]; interact through
/// [`Runtime::send`], [`Runtime::invoke`] and [`Runtime::inspect`]; shut
/// down with [`Runtime::shutdown`] (also runs on drop).
pub struct Runtime<M: Send + 'static> {
    net: Arc<NetOut<M>>,
    node_threads: Vec<JoinHandle<()>>,
    clock_thread: Option<JoinHandle<()>>,
    op_timeout: Duration,
}

/// One node thread: the automaton and what hosting it takes.
struct NodeHost<M: Send + 'static> {
    me: NodeId,
    node: Box<dyn Automaton<M> + Send>,
    net: Arc<NetOut<M>>,
    timer_counter: u64,
    /// Timers cancelled while their firing may already be in the inbox.
    cancelled: Vec<TimerToken>,
    crashed: bool,
    crash_mode: CrashMode,
    /// The batch of the message step being taken (empty between steps;
    /// kept for its capacity).
    batch: Vec<(NodeId, M)>,
}

impl<M: Send + Clone + 'static> NodeHost<M> {
    /// The node loop: one inbox event per turn, except that a message
    /// takes with it the messages already queued behind it, up to the
    /// first event of another kind — that one is held and handled on the
    /// next turn, so inbox order is kept and a crash queued between two
    /// messages still loses the second.
    fn run(mut self, rx: Receiver<Event<M>>) {
        // Start hook, mirroring World::start.
        self.step(0, |node, ctx| node.on_start(ctx));
        let mut held = None;
        while let Some(event) = held.take().or_else(|| rx.recv().ok()) {
            let now = self.net.now_ticks();
            match event {
                Event::Shutdown => return,
                Event::Crash(mode) => self.crash(now, mode),
                Event::Restart => self.restart(now),
                Event::Replace(node) => self.node = node,
                Event::Msg { from, msg } => {
                    self.admit(now, from, msg);
                    while let Ok(next) = rx.try_recv() {
                        match next {
                            Event::Msg { from, msg } => self.admit(now, from, msg),
                            other => {
                                held = Some(other);
                                break;
                            }
                        }
                    }
                    // Empty iff the node is crashed: every message dropped.
                    if !self.batch.is_empty() {
                        let mut batch = std::mem::take(&mut self.batch);
                        self.step(now, |node, ctx| node.on_messages(batch.drain(..), ctx));
                        self.batch = batch;
                    }
                }
                // A crashed node fires no timers, and a cancelled timer
                // whose firing was already in flight is swallowed here.
                Event::Timer(token) => {
                    if let Some(pos) = self.cancelled.iter().position(|&t| t == token) {
                        self.cancelled.swap_remove(pos);
                    } else if !self.crashed {
                        self.step(now, |node, ctx| node.on_timer(token, ctx));
                    }
                }
                // Runs on a crashed node too, so inspection keeps working.
                Event::Call(f) => self.step(now, |node, ctx| f(node, ctx)),
            }
        }
    }

    /// Runs one step of the automaton at tick `now`, sends what it
    /// produced and puts its timers on the agenda.
    fn step(&mut self, now: u64, f: impl FnOnce(&mut dyn Automaton<M>, &mut Context<M>)) {
        let mut ctx = Context::new(self.me, Time(now), self.timer_counter);
        f(self.node.as_mut(), &mut ctx);
        self.timer_counter = ctx.timer_counter_snapshot();
        let (outbox, timers, newly_cancelled) = ctx.into_outputs();
        for (to, msg) in outbox {
            self.net.send(self.me, to, msg);
        }
        let clock = &self.net.clock;
        // Publish cancellations to the clock (which suppresses the firing
        // when it wins the race) *and* remember them locally (which
        // swallows the firing when the clock already sent it). The clock
        // acks each suppression through `suppressed`, so the local list
        // stays bounded by the genuinely in-flight cancellations.
        if !timers.is_empty() || !newly_cancelled.is_empty() {
            let mut agenda = clock.agenda.lock();
            let (armed_at, mut earliest) = (Instant::now(), false);
            for (delay, token) in timers {
                let due = armed_at + self.net.wall(delay);
                earliest |= agenda.push(due, self.me.0, Event::Timer(token));
            }
            agenda.cancelled.extend(newly_cancelled.iter().map(|t| t.0));
            drop(agenda);
            if earliest {
                clock.wake.notify_one();
            }
        }
        self.cancelled.extend(newly_cancelled);
        let acked = std::mem::take(&mut *clock.suppressed[self.me.0].lock());
        for token in acked {
            if let Some(pos) = self.cancelled.iter().position(|&t| t == token) {
                self.cancelled.swap_remove(pos);
            }
        }
    }

    /// Traces one arriving message and adds it to the step's batch — or
    /// loses it, like the simulator's crashed-receiver drops.
    fn admit(&mut self, now: u64, from: NodeId, msg: M) {
        let (kind, crashed) = if self.crashed {
            (TraceKind::Drop, 1)
        } else {
            (TraceKind::Deliver, 0)
        };
        self.net.obs.emit(
            kind,
            now,
            self.me.0 as u64,
            LANE_SYS,
            from.0 as u64,
            crashed,
        );
        if !self.crashed {
            self.batch.push((from, msg));
        }
    }

    fn crash(&mut self, now: u64, mode: CrashMode) {
        let i = self.me.0;
        self.crashed = true;
        self.crash_mode = mode;
        // Timers are volatile state: purge this node's pending timer
        // entries, and with them their suppression markers, so no
        // pre-crash timer fires after a restart. Only those: a message in
        // flight to the node and its scheduled restart stay on the agenda.
        let clock = &self.net.clock;
        {
            let mut agenda = clock.agenda.lock();
            let Agenda {
                heap, cancelled, ..
            } = &mut *agenda;
            heap.retain(|entry| match entry.event {
                Event::Timer(token) if entry.node == i => {
                    cancelled.remove(&token.0);
                    false
                }
                _ => true,
            });
        }
        clock.suppressed[i].lock().clear();
        self.cancelled.clear();
        self.net
            .obs
            .emit(TraceKind::Crash, now, i as u64, LANE_SYS, mode as u64, 0);
    }

    fn restart(&mut self, now: u64) {
        self.crashed = false;
        let mut replayed = 0usize;
        let mut amnesia = 0u64;
        if self.crash_mode == CrashMode::Amnesia {
            self.crash_mode = CrashMode::Retain;
            replayed = self.node.restore_state();
            amnesia = 1;
        }
        self.net.obs.emit(
            TraceKind::Recover,
            now,
            self.me.0 as u64,
            LANE_SYS,
            replayed as u64,
            amnesia,
        );
    }
}

impl<M: Send + Clone + 'static> Runtime<M> {
    /// Injects a message into `to`'s inbox, attributed to `from`, subject
    /// to the scenario's link schedule.
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) {
        self.net.send(from, to, msg);
    }

    /// Runs a closure on the node's automaton (typed), on its own thread.
    /// Does not wait for completion.
    pub fn invoke<T: 'static>(
        &self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<M>) + Send + 'static,
    ) {
        let _ = self.net.inboxes[id.0].send(Event::Call(Box::new(move |node, ctx| {
            let concrete = node
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(concrete, ctx);
        })));
    }

    /// Runs a closure on the node's automaton and returns its result,
    /// blocking until the node processes the request.
    pub fn inspect<T: 'static, R: Send + 'static>(
        &self,
        id: NodeId,
        f: impl FnOnce(&T) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = crossbeam_channel::bounded(1);
        let _ = self.net.inboxes[id.0].send(Event::Call(Box::new(move |node, _ctx| {
            let concrete = node
                .as_any()
                .downcast_ref::<T>()
                .expect("node type mismatch");
            let _ = tx.send(f(concrete));
        })));
        rx.recv().expect("node thread alive")
    }

    /// Blocks until `pred` over the node holds (polling), or the timeout
    /// elapses; returns whether it held. The blocking analogue of the
    /// simulator's `run_until`.
    pub fn wait_for<T: 'static>(
        &self,
        id: NodeId,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        timeout: Duration,
    ) -> bool {
        let pred = Arc::new(pred);
        let deadline = Instant::now() + timeout;
        loop {
            let p = pred.clone();
            if self.inspect::<T, bool>(id, move |t| p(t)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(self.net.tick / 4 + Duration::from_micros(100));
        }
    }

    /// Crashes the node: it stops processing messages and timers (they
    /// are lost) until [`Runtime::restart_node`]. Retain mode: in-memory
    /// state survives the restart.
    pub fn crash_node(&self, id: NodeId) {
        self.crash_node_with(id, CrashMode::Retain);
    }

    /// Crashes the node with an explicit [`CrashMode`]: after an
    /// `Amnesia` crash the restart discards all volatile state and
    /// rebuilds the automaton from its durable store (via
    /// `Automaton::restore_state`). Pending timers are purged in both
    /// modes — they are volatile state.
    pub fn crash_node_with(&self, id: NodeId, mode: CrashMode) {
        let _ = self.net.inboxes[id.0].send(Event::Crash(mode));
    }

    /// Restarts a crashed node: with its retained state after a retain
    /// crash, from its durable store after an amnesia crash.
    pub fn restart_node(&self, id: NodeId) {
        let _ = self.net.inboxes[id.0].send(Event::Restart);
    }

    /// Replaces the automaton at `id` (Byzantine behaviour injection).
    /// The new automaton's `on_start` is *not* called.
    pub fn swap_node(&self, id: NodeId, node: Box<dyn Automaton<M> + Send>) {
        let _ = self.net.inboxes[id.0].send(Event::Replace(node));
    }

    /// Envelope/item counts since start.
    pub fn message_stats(&self) -> SubstrateStats {
        SubstrateStats {
            envelopes: self.net.envelopes.load(Ordering::Relaxed),
            items: self.net.items.load(Ordering::Relaxed),
        }
    }

    /// Elapsed wall-clock since start.
    pub fn elapsed(&self) -> Duration {
        self.net.started.elapsed()
    }

    /// The tick length in use.
    pub fn tick_len(&self) -> Duration {
        self.net.tick
    }

    /// The await timeout used by generic substrate awaits.
    pub fn op_timeout(&self) -> Duration {
        self.op_timeout
    }
}

impl<M: Send + 'static> Runtime<M> {
    /// Stops all threads. Entries still on the agenda, however far in the
    /// future, are dropped with it.
    pub fn shutdown(&mut self) {
        self.net.clock.agenda.lock().shutdown = true;
        self.net.clock.wake.notify_one();
        for inbox in &self.net.inboxes {
            let _ = inbox.send(Event::Shutdown);
        }
        for thread in self.node_threads.drain(..).chain(self.clock_thread.take()) {
            let _ = thread.join();
        }
    }
}

impl<M: Send + 'static> Drop for Runtime<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: Send + Clone + 'static> Substrate<M> for Runtime<M> {
    const NAME: &'static str = "threaded";
    const DETERMINISTIC: bool = false;

    /// Spawns one thread per node and the `rt-clock` thread, after
    /// putting the scenario's crash plans on the agenda — as
    /// `Substrate::build` for `World` turns them into queue entries.
    fn build(config: SubstrateConfig<M>) -> Self {
        let n = config.nodes.len();
        let (inboxes, receivers): (Vec<_>, Vec<Receiver<Event<M>>>) =
            (0..n).map(|_| unbounded()).unzip();
        let Scenario { links, crashes, .. } = &config.scenario;
        let net = Arc::new(NetOut {
            inboxes,
            clock: Clock {
                agenda: Mutex::new(Agenda {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    cancelled: HashSet::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
                suppressed: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            },
            links: (!links.is_empty()).then(|| Mutex::new(config.scenario.network())),
            envelopes: AtomicU64::new(0),
            items: AtomicU64::new(0),
            sizer: config.sizer,
            obs: Obs::new(config.tracer, 0),
            started: Instant::now(),
            tick: config.tick,
        });
        for plan in crashes {
            let crash = Event::Crash(plan.crash_mode);
            net.clock
                .schedule(net.instant_of(plan.at), plan.node, crash);
            if let Some(restart) = plan.restart_at {
                net.clock
                    .schedule(net.instant_of(restart), plan.node, Event::Restart);
            }
        }
        let clock_thread = {
            let net = net.clone();
            spawn_named("rt-clock", move || net.clock.run(&net.inboxes))
        };
        let node_threads = (config.nodes.into_iter().zip(receivers).enumerate())
            .map(|(i, (node, rx))| {
                let host = NodeHost {
                    me: NodeId(i),
                    node,
                    net: net.clone(),
                    timer_counter: (i as u64) << 32,
                    cancelled: Vec::new(),
                    crashed: false,
                    crash_mode: CrashMode::Retain,
                    batch: Vec::new(),
                };
                spawn_named(&format!("rt-node-{i}"), move || host.run(rx))
            })
            .collect();
        Runtime {
            net,
            node_threads,
            clock_thread: Some(clock_thread),
            op_timeout: config.op_timeout,
        }
    }

    fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        Runtime::send(self, from, to, msg);
    }

    fn invoke_on<T: 'static>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<M>) + Send + 'static,
    ) {
        self.invoke::<T>(id, f);
    }

    fn inspect_on<T: 'static, R: Send + 'static>(
        &self,
        id: NodeId,
        f: impl Fn(&T) -> R + Send + Sync + 'static,
    ) -> R {
        self.inspect::<T, R>(id, f)
    }

    fn await_on<T: 'static>(
        &mut self,
        id: NodeId,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        _max_steps: usize,
    ) -> bool {
        self.wait_for::<T>(id, pred, self.op_timeout)
    }

    fn crash(&mut self, id: NodeId) {
        self.crash_node(id);
    }

    fn crash_with(&mut self, id: NodeId, mode: CrashMode) {
        self.crash_node_with(id, mode);
    }

    fn restart(&mut self, id: NodeId) {
        self.restart_node(id);
    }

    fn replace_node(&mut self, id: NodeId, node: Box<dyn Automaton<M> + Send>) {
        self.swap_node(id, node);
    }

    fn stats(&self) -> SubstrateStats {
        self.message_stats()
    }

    fn now_ticks(&self) -> Time {
        Time(self.net.now_ticks())
    }

    fn elapsed_units(&self) -> u64 {
        (self.net.started.elapsed().as_micros() as u64).max(1)
    }

    fn shutdown(&mut self) {
        Runtime::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_sim::{LinkEffect, LinkRule, Selector};
    use std::any::Any;

    type Nodes = Vec<Box<dyn Automaton<u32> + Send>>;

    /// A runtime over `nodes` with 1 ms ticks and no faults.
    fn config(nodes: Nodes) -> SubstrateConfig<u32> {
        SubstrateConfig::new(nodes).tick(Duration::from_millis(1))
    }

    fn start(config: SubstrateConfig<u32>) -> Runtime<u32> {
        Substrate::build(config)
    }

    #[derive(Default)]
    struct Echo {
        got: Vec<u32>,
    }

    impl Automaton<u32> for Echo {
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.got.push(msg);
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_across_threads() {
        let mut rt = start(config(vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ]));
        rt.send(NodeId(0), NodeId(1), 4);
        let done = rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| e.got.iter().sum::<u32>() >= (4 + 2),
            Duration::from_secs(5),
        );
        assert!(done, "ping-pong should converge");
        let got0 = rt.inspect::<Echo, Vec<u32>>(NodeId(0), |e| e.got.clone());
        assert_eq!(got0, vec![3, 1]);
        // 1 injected + 4 replies
        assert_eq!(rt.message_stats().envelopes, 5);
        rt.shutdown();
    }

    #[derive(Default)]
    struct TimerUser {
        fired: usize,
    }

    impl Automaton<u32> for TimerUser {
        fn on_message(&mut self, _f: NodeId, _m: u32, ctx: &mut Context<u32>) {
            ctx.set_timer(2);
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<u32>) {
            self.fired += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_real_time() {
        let mut rt = start(config(vec![Box::new(TimerUser::default())]));
        rt.send(NodeId(0), NodeId(0), 0);
        let ok = rt.wait_for::<TimerUser>(
            NodeId(0),
            |t: &TimerUser| t.fired >= 1,
            Duration::from_secs(5),
        );
        assert!(ok);
        rt.shutdown();
    }

    #[test]
    fn invoke_runs_on_node_thread() {
        let mut rt = start(config(vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ]));
        rt.invoke::<Echo>(NodeId(0), |_e, ctx| ctx.send(NodeId(1), 0));
        let ok = rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_secs(5),
        );
        assert!(ok);
        rt.shutdown();
    }

    /// Records its steps: a batch as its messages, a timer as `None`.
    #[derive(Default)]
    struct Steps(Vec<Option<Vec<u32>>>);

    impl Automaton<u32> for Steps {
        fn on_message(&mut self, _f: NodeId, msg: u32, _c: &mut Context<u32>) {
            self.0.push(Some(vec![msg]));
        }
        fn on_messages(
            &mut self,
            batch: std::vec::Drain<'_, (NodeId, u32)>,
            _c: &mut Context<u32>,
        ) {
            self.0.push(Some(batch.map(|(_, m)| m).collect()));
        }
        fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<u32>) {
            self.0.push(None);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Parks node 0 (a `T`) inside a `Call` until the returned sender is
    /// dropped, so a test can queue events behind it in a known order.
    fn park<T: 'static>(rt: &Runtime<u32>) -> std::sync::mpsc::Sender<()> {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        rt.invoke::<T>(NodeId(0), move |_n, _c| {
            let _ = parked.recv();
        });
        release
    }

    fn steps_of(rt: &Runtime<u32>) -> Vec<Option<Vec<u32>>> {
        rt.inspect::<Steps, _>(NodeId(0), |s| s.0.clone())
    }

    #[test]
    fn messages_queued_behind_a_busy_node_are_one_step() {
        let mut rt = start(config(vec![Box::new(Steps::default())]));
        for round in [0, 10] {
            let release = park::<Steps>(&rt);
            for m in 1..=3 {
                rt.send(NodeId(0), NodeId(0), round + m);
            }
            drop(release);
        }
        // `inspect` queues behind everything sent above.
        assert_eq!(
            steps_of(&rt),
            [Some(vec![1, 2, 3]), Some(vec![11, 12, 13])],
            "arrival order kept, buffer emptied between steps"
        );
        rt.shutdown();
    }

    #[test]
    fn timer_queued_between_two_messages_fires_between_them() {
        let mut rt = start(config(vec![Box::new(Steps::default())]));
        let release = park::<Steps>(&rt);
        rt.send(NodeId(0), NodeId(0), 1);
        rt.send(NodeId(0), NodeId(0), 2);
        assert!(rt.net.inboxes[0].send(Event::Timer(TimerToken(7))).is_ok());
        rt.send(NodeId(0), NodeId(0), 3);
        drop(release);
        assert_eq!(
            steps_of(&rt),
            [Some(vec![1, 2]), None, Some(vec![3])],
            "a batch ends at the first event that is not a message"
        );
        rt.shutdown();
    }

    fn trace_kinds(rec: &rqs_obs::FlightRecorder) -> Vec<TraceKind> {
        rqs_obs::Tracer::snapshot(rec)
            .iter()
            .map(|e| e.kind)
            .collect()
    }

    #[test]
    fn crash_queued_between_two_messages_loses_the_second() {
        let rec = Arc::new(rqs_obs::FlightRecorder::new(64));
        let mut rt = start(config(vec![Box::new(Steps::default())]).tracer(rec.clone()));
        let release = park::<Steps>(&rt);
        rt.send(NodeId(0), NodeId(0), 1);
        rt.crash_node(NodeId(0));
        rt.send(NodeId(0), NodeId(0), 2);
        drop(release);
        assert_eq!(steps_of(&rt), [Some(vec![1])]);
        assert_eq!(
            trace_kinds(&rec),
            [TraceKind::Deliver, TraceKind::Crash, TraceKind::Drop]
        );
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut rt = start(config(vec![Box::new(Echo::default())]));
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }

    #[test]
    fn crash_drops_messages_restart_resumes() {
        let mut rt = start(config(vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ]));
        rt.crash_node(NodeId(1));
        rt.send(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(100),
        ));
        rt.restart_node(NodeId(1));
        rt.send(NodeId(0), NodeId(1), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_secs(5),
        ));
        rt.shutdown();
    }

    /// Remembers messages volatilely and arms a long timer on each
    /// non-zero one; restore_state simulates rebuilding from an empty
    /// durable store.
    #[derive(Default)]
    struct Volatile {
        got: Vec<u32>,
        fired: usize,
        restores: usize,
    }

    impl Automaton<u32> for Volatile {
        fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.got.push(msg);
            if msg > 0 {
                ctx.set_timer(50);
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<u32>) {
            self.fired += 1;
        }
        fn restore_state(&mut self) -> usize {
            self.got.clear();
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
    fn amnesia_crash_restores_from_store_and_purges_timers() {
        let mut rt = start(config(vec![
            Box::new(Volatile::default()),
            Box::new(Echo::default()),
        ]));
        rt.send(NodeId(1), NodeId(0), 5);
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| !v.got.is_empty(),
            Duration::from_secs(5),
        ));
        // Amnesia-crash before the 50-tick timer fires, then restart.
        rt.crash_node_with(NodeId(0), CrashMode::Amnesia);
        rt.restart_node(NodeId(0));
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| v.restores == 1,
            Duration::from_secs(5),
        ));
        let (got, fired) = rt.inspect::<Volatile, _>(NodeId(0), |v| (v.got.clone(), v.fired));
        assert!(got.is_empty(), "amnesia restart must drop volatile state");
        assert_eq!(fired, 0);
        // Wait past the old timer's due point: it was purged at crash.
        std::thread::sleep(Duration::from_millis(80));
        let fired = rt.inspect::<Volatile, usize>(NodeId(0), |v| v.fired);
        assert_eq!(fired, 0, "pre-crash timer must not fire after restart");
        rt.shutdown();
    }

    #[test]
    fn crash_purges_timers_but_not_messages_in_flight() {
        // Messages from node 1 take 80 ticks; node 0's own arrive at once.
        let slow = LinkRule::every(LinkEffect::Delay(80)).from(Selector::Is(NodeId(1)));
        let mut rt = start(
            config(vec![Box::new(Volatile::default()), Box::new(Mute)])
                .scenario(Scenario::named("slow").link(slow)),
        );
        // Queued behind the parked node, in this order: a message that
        // arms the 50-tick timer, a crash, a restart. The delayed message
        // is on the agenda, due after all three and after the timer.
        let release = park::<Volatile>(&rt);
        rt.send(NodeId(0), NodeId(0), 1);
        rt.crash_node(NodeId(0));
        rt.restart_node(NodeId(0));
        rt.send(NodeId(1), NodeId(0), 0);
        drop(release);
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| v.got == [1, 0],
            Duration::from_secs(5),
        ));
        // The clock serves the agenda in due order, so the timer (tick
        // 50) would have reached the inbox before the message (tick 80).
        let fired = rt.inspect::<Volatile, usize>(NodeId(0), |v| v.fired);
        assert_eq!(fired, 0, "the purge takes the crashed node's timers");
        rt.shutdown();
    }

    /// A node that swallows everything (Byzantine-mute stand-in).
    #[derive(Default)]
    struct Mute;

    impl Automaton<u32> for Mute {
        fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<u32>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn swap_node_changes_behaviour() {
        let mut rt = start(config(vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ]));
        rt.swap_node(NodeId(1), Box::new(Mute));
        rt.send(NodeId(0), NodeId(1), 3);
        // The mute replacement never replies, so node 0 sees nothing.
        assert!(!rt.wait_for::<Echo>(
            NodeId(0),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(100),
        ));
        rt.shutdown();
    }

    #[test]
    fn scenario_partition_drops_then_heals() {
        let scenario = Scenario::named("cut").link(
            LinkRule::every(LinkEffect::Drop)
                .to(Selector::Is(NodeId(1)))
                .during(0, 50),
        );
        let mut rt = start(
            config(vec![Box::new(Echo::default()), Box::new(Echo::default())]).scenario(scenario),
        );
        rt.send(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(20),
        ));
        // After tick 50 (= 50 ms) the partition heals.
        std::thread::sleep(Duration::from_millis(60));
        rt.send(NodeId(0), NodeId(1), 7);
        assert!(rt.wait_for::<Echo>(
            NodeId(1),
            // The partitioned-away 0 stays lost; the post-heal 7 arrives.
            |e: &Echo| e.got.first() == Some(&7),
            Duration::from_secs(5),
        ));
        rt.shutdown();
    }

    #[test]
    fn scenario_hold_delivers_at_the_heal_tick() {
        let scenario = Scenario::named("hold").link(
            LinkRule::every(LinkEffect::HoldUntilHeal)
                .to(Selector::Is(NodeId(1)))
                .during(0, 40),
        );
        let mut rt =
            start(config(vec![Box::new(Mute), Box::new(Echo::default())]).scenario(scenario));
        rt.send(NodeId(0), NodeId(1), 7);
        assert!(rt.wait_for::<Echo>(NodeId(1), |e: &Echo| e.got == [7], Duration::from_secs(5),));
        assert!(
            rt.elapsed() >= Duration::from_millis(40),
            "held until the window closed"
        );
        rt.shutdown();
    }

    #[test]
    fn scenario_duplicate_delivers_twice() {
        let scenario =
            Scenario::named("dup").link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }));
        let mut rt =
            start(config(vec![Box::new(Echo::default()), Box::new(Mute)]).scenario(scenario));
        rt.send(NodeId(0), NodeId(0), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(0),
            |e: &Echo| e.got.len() >= 2,
            Duration::from_secs(5),
        ));
        rt.shutdown();
    }

    #[test]
    fn delayed_messages_on_one_link_arrive_in_send_order() {
        let scenario = Scenario::named("slow").link(LinkRule::every(LinkEffect::Delay(2)));
        let mut rt =
            start(config(vec![Box::new(Mute), Box::new(Echo::default())]).scenario(scenario));
        for m in 1..=200 {
            rt.send(NodeId(0), NodeId(1), m);
        }
        assert!(rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| e.got.len() == 200,
            Duration::from_secs(5),
        ));
        let got = rt.inspect::<Echo, Vec<u32>>(NodeId(1), |e| e.got.clone());
        assert_eq!(got, (1..=200).collect::<Vec<u32>>());
        rt.shutdown();
    }

    #[test]
    fn entries_due_at_the_same_instant_fire_in_insertion_order() {
        let rec = Arc::new(rqs_obs::FlightRecorder::new(64));
        let mut rt = start(config(vec![Box::new(Steps::default())]).tracer(rec.clone()));
        let due = Instant::now() + Duration::from_millis(20);
        let msg = |msg| Event::Msg {
            from: NodeId(0),
            msg,
        };
        // What a crash plan and delayed messages with one due instant
        // put on the agenda.
        for event in [
            msg(1),
            msg(2),
            Event::Crash(CrashMode::Retain),
            msg(3),
            Event::Restart,
            msg(4),
        ] {
            rt.net.clock.schedule(due, 0, event);
        }
        let received = |s: &Steps| s.0.iter().flatten().flatten().copied().collect::<Vec<_>>();
        assert!(rt.wait_for::<Steps>(
            NodeId(0),
            move |s: &Steps| received(s) == [1, 2, 4],
            Duration::from_secs(5),
        ));
        use TraceKind::{Crash, Deliver, Drop, Recover};
        assert_eq!(
            trace_kinds(&rec),
            [Deliver, Deliver, Crash, Drop, Recover, Deliver]
        );
        rt.shutdown();
    }

    #[test]
    fn scenario_crash_plan_fires_on_schedule() {
        let scenario = Scenario::named("cr").crash_restart(1, 0, 40);
        let mut rt = start(
            config(vec![Box::new(Echo::default()), Box::new(Echo::default())]).scenario(scenario),
        );
        // Give the clock a beat to crash node 1 at tick 0.
        std::thread::sleep(Duration::from_millis(10));
        rt.send(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(15),
        ));
        // After the restart at tick 40 the node processes again.
        std::thread::sleep(Duration::from_millis(50));
        rt.send(NodeId(0), NodeId(1), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_secs(5),
        ));
        rt.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_far_future_entries() {
        const FAR: u64 = 1_000_000_000;
        let scenario = Scenario::named("far")
            .link(LinkRule::every(LinkEffect::HoldUntilHeal).during(0, FAR))
            .crash(0, FAR);
        let mut rt =
            start(config(vec![Box::new(Echo::default()), Box::new(Mute)]).scenario(scenario));
        rt.send(NodeId(1), NodeId(0), 0);
        assert_eq!(rt.net.clock.agenda.lock().heap.len(), 2);
        let t0 = Instant::now();
        rt.shutdown();
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn substrate_trait_drives_runtime() {
        let mut sub = start(config(vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ]));
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 4);
        assert!(sub.await_on::<Echo>(NodeId(1), |e| e.got.len() >= 3, 0));
        assert_eq!(<Runtime<u32> as Substrate<u32>>::NAME, "threaded");
        assert!(Substrate::stats(&sub).envelopes >= 5);
        Substrate::shutdown(&mut sub);
    }
}
