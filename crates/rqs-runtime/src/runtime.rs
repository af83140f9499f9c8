//! A threaded, real-time execution environment for the same automatons
//! that run in the deterministic simulator.
//!
//! Every node runs on its own OS thread with a crossbeam channel inbox;
//! messages travel between threads, and protocol timers (in simulated
//! ticks) are mapped to wall-clock durations by a configurable tick
//! length. A node that wakes on a message takes the messages already in
//! its inbox with it, as one step ([`Automaton::on_messages`]). This is
//! the deployment used by the wall-clock benchmarks (experiment E11):
//! same protocol code, real channels and real time.
//!
//! The runtime implements [`Substrate`], so every deployment driver
//! written against that trait runs here unchanged. Fault scenarios
//! ([`Scenario`]) compile to an **interposed message-filter thread**
//! (drops, delays, duplication, partition-and-heal — the wall-clock
//! analogue of the simulator's fate policy) plus a **fault scheduler
//! thread** that crashes and restarts nodes at their scheduled ticks.

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rqs_obs::{NopTracer, Obs, ObsHandle, TraceKind, LANE_SYS};
use rqs_sim::{
    Automaton, Context, CrashMode, LinkDecision, NodeId, Scenario, ScenarioNet, Substrate,
    SubstrateConfig, SubstrateStats, Time, TimerToken, DEFAULT_OP_TIMEOUT,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

struct TimerReq {
    due: Instant,
    node: usize,
    token: TimerToken,
}

impl PartialEq for TimerReq {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for TimerReq {}
impl PartialOrd for TimerReq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerReq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: earliest due first in the max-heap.
        other.due.cmp(&self.due)
    }
}

struct TimerWheel {
    heap: Mutex<BinaryHeap<TimerReq>>,
    cv: Condvar,
    shutdown: Mutex<bool>,
    /// Tokens cancelled after arming: the wheel drops their entries at
    /// pop time instead of waking the owning node just to swallow the
    /// firing. Most protocol timers (op timeouts, retry watchdogs) are
    /// cancelled on completion, so on the hot path this suppression
    /// saves one cross-thread event per armed timer.
    cancelled: Mutex<std::collections::HashSet<u64>>,
    /// Per-node acks for wheel-side suppression: when the wheel drops a
    /// cancelled entry it records the token here, and the owner drains
    /// the list on its next `drain_context` to garbage-collect its own
    /// swallow list. A cancellation that loses the race (the firing was
    /// already in flight) is still swallowed node-locally.
    suppressed: Vec<Mutex<Vec<TimerToken>>>,
}

/// Message counters shared between node threads and the runtime handle.
#[derive(Default)]
struct Counters {
    envelopes: AtomicU64,
    items: AtomicU64,
}

/// The outbound network path every node send goes through: counts
/// envelopes/items, then either hands the message to the interposer
/// thread (when a scenario shapes the links) or delivers it directly
/// into the destination inbox.
struct NetOut<M> {
    senders: Vec<Sender<Event<M>>>,
    interposer: Option<Sender<Outbound<M>>>,
    counters: Counters,
    sizer: fn(&M) -> u64,
    started: Instant,
    tick: Duration,
}

impl<M> NetOut<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M) {
        self.counters.envelopes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .items
            .fetch_add((self.sizer)(&msg), Ordering::Relaxed);
        if let Some(tx) = &self.interposer {
            // Stamp the send tick here: windowed link rules must key on
            // when the message was sent (the simulator's `env.sent_at`),
            // not on when the interposer dequeues it.
            let sent_tick = started_ticks(self.started, self.tick);
            let _ = tx.send(Outbound {
                from,
                to,
                msg,
                sent_tick,
            });
        } else if let Some(tx) = self.senders.get(to.0) {
            let _ = tx.send(Event::Msg { from, msg });
        }
    }
}

/// A message travelling through the interposer.
struct Outbound<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
    sent_tick: u64,
}

struct Delayed<M> {
    due: Instant,
    seq: u64,
    out: Outbound<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Shutdown latch for the helper threads (interposer, fault scheduler).
struct Latch {
    closed: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            closed: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn close(&self) {
        *self.closed.lock() = true;
        self.cv.notify_all();
    }

    /// Waits until the latch closes or `deadline` passes; returns `true`
    /// iff the latch closed.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut guard = self.closed.lock();
        while !*guard {
            if Instant::now() >= deadline {
                return false;
            }
            self.cv.wait_until(&mut guard, deadline);
        }
        true
    }
}

/// A running threaded deployment.
///
/// Build with [`RuntimeBuilder`] (or generically through
/// [`Substrate::build`]); interact through [`Runtime::send`],
/// [`Runtime::invoke`] and [`Runtime::inspect`]; shut down with
/// [`Runtime::shutdown`] (also runs on drop).
pub struct Runtime<M: Send + 'static> {
    senders: Vec<Sender<Event<M>>>,
    handles: Vec<JoinHandle<()>>,
    timer_thread: Option<JoinHandle<()>>,
    wheel: Arc<TimerWheel>,
    net: Option<Arc<NetOut<M>>>,
    interposer_thread: Option<JoinHandle<()>>,
    fault_thread: Option<JoinHandle<()>>,
    latch: Arc<Latch>,
    started: Instant,
    tick: Duration,
    op_timeout: Duration,
}

/// Builder collecting the node automatons and the deployment shape.
pub struct RuntimeBuilder<M: Send + 'static> {
    nodes: Vec<Box<dyn Automaton<M> + Send>>,
    tick: Duration,
    op_timeout: Duration,
    scenario: Scenario,
    sizer: fn(&M) -> u64,
    tracer: ObsHandle,
}

impl<M: Send + Clone + 'static> Default for RuntimeBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + Clone + 'static> RuntimeBuilder<M> {
    /// Empty builder with the default tick.
    pub fn new() -> Self {
        RuntimeBuilder {
            nodes: Vec::new(),
            tick: DEFAULT_TICK,
            op_timeout: DEFAULT_OP_TIMEOUT,
            scenario: Scenario::default(),
            sizer: |_| 1,
            tracer: Arc::new(NopTracer),
        }
    }

    /// Overrides the wall-clock duration of one protocol tick.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the [`Runtime::wait_for`] timeout used by generic
    /// substrate awaits.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Installs a fault scenario: link rules run in an interposer thread
    /// between the node inboxes; crash plans run on a fault scheduler.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Installs a payload sizer for the message statistics.
    pub fn sizer(mut self, sizer: fn(&M) -> u64) -> Self {
        self.sizer = sizer;
        self
    }

    /// Installs a structured-trace sink: node threads emit
    /// deliver/drop/crash/recover events into it (wall-clock analogue of
    /// the simulator's world-level tracing).
    pub fn tracer(mut self, tracer: ObsHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// Adds a node; ids are assigned densely from 0 (matching the
    /// simulator convention).
    pub fn node(mut self, node: Box<dyn Automaton<M> + Send>) -> Self {
        self.nodes.push(node);
        self
    }

    /// Spawns all node threads, the timer wheel, and (when the scenario
    /// calls for them) the interposer and fault scheduler threads.
    pub fn start(self) -> Runtime<M> {
        let started = Instant::now();
        let tick = self.tick;
        let n = self.nodes.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Event<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let wheel = Arc::new(TimerWheel {
            heap: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            shutdown: Mutex::new(false),
            cancelled: Mutex::new(std::collections::HashSet::new()),
            suppressed: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let latch = Latch::new();

        // Interposer: the wall-clock compilation of the scenario's link
        // rules. Every node send is routed through it; it decides each
        // message's fate with the same ScenarioNet core the simulator's
        // fate policy uses, mapping tick delays onto wall-clock instants.
        let (interposer_tx, interposer_thread) = if self.scenario.links.is_empty() {
            (None, None)
        } else {
            let (tx, rx) = unbounded::<Outbound<M>>();
            let net = self.scenario.network();
            let senders = senders.clone();
            let obs = Obs::new(self.tracer.clone(), 0);
            let handle = std::thread::Builder::new()
                .name("rt-interposer".into())
                .spawn(move || run_interposer(rx, senders, net, started, tick, obs))
                .expect("spawn interposer thread");
            (Some(tx), Some(handle))
        };

        // Fault scheduler: crashes and restarts nodes at their scheduled
        // ticks, mapped to wall-clock via the tick length.
        let fault_thread = if self.scenario.crashes.is_empty() {
            None
        } else {
            let mut plan: Vec<(u64, usize, bool, CrashMode)> = Vec::new();
            for c in &self.scenario.crashes {
                plan.push((c.at, c.node, false, c.crash_mode));
                if let Some(r) = c.restart_at {
                    plan.push((r, c.node, true, c.crash_mode));
                }
            }
            plan.sort_unstable_by_key(|&(at, node, is_restart, _)| (at, node, is_restart));
            let senders = senders.clone();
            let latch = latch.clone();
            let fault_handle = std::thread::Builder::new()
                .name("rt-faults".into())
                .spawn(move || {
                    for (at, node, is_restart, mode) in plan {
                        let due = started + ticks_to_wall(tick, at);
                        if latch.wait_until(due) {
                            return; // shutdown
                        }
                        let event = if is_restart {
                            Event::Restart
                        } else {
                            Event::Crash(mode)
                        };
                        if let Some(tx) = senders.get(node) {
                            let _ = tx.send(event);
                        }
                    }
                })
                .expect("spawn fault scheduler thread");
            Some(fault_handle)
        };

        let net = Arc::new(NetOut {
            senders: senders.clone(),
            interposer: interposer_tx,
            counters: Counters::default(),
            sizer: self.sizer,
            started,
            tick,
        });

        // Timer thread: fires due timers into node inboxes.
        let timer_thread = {
            let wheel = wheel.clone();
            let senders = senders.clone();
            spawn_named("rt-timer-wheel", move || loop {
                let mut fire: Vec<(usize, TimerToken)> = Vec::new();
                {
                    let mut heap = wheel.heap.lock();
                    loop {
                        if *wheel.shutdown.lock() {
                            return;
                        }
                        let now = Instant::now();
                        match heap.peek() {
                            Some(req) if req.due <= now => {
                                let req = heap.pop().expect("peeked");
                                fire.push((req.node, req.token));
                            }
                            Some(req) => {
                                let due = req.due;
                                wheel.cv.wait_until(&mut heap, due);
                            }
                            None => {
                                wheel.cv.wait_for(&mut heap, Duration::from_millis(50));
                            }
                        }
                        if !fire.is_empty() {
                            break;
                        }
                    }
                }
                let mut cancelled = wheel.cancelled.lock();
                for (node, token) in fire {
                    if cancelled.remove(&token.0) {
                        // Cancelled before it came due: drop the firing
                        // here and ack the owner so it can forget the
                        // token.
                        wheel.suppressed[node].lock().push(token);
                    } else {
                        let _ = senders[node].send(Event::Timer(token));
                    }
                }
            })
        };

        // Node threads.
        let mut handles = Vec::with_capacity(n);
        let obs = Obs::new(self.tracer.clone(), 0);
        for (i, (node, rx)) in self.nodes.into_iter().zip(receivers).enumerate() {
            let host = NodeHost {
                me: NodeId(i),
                node,
                net: net.clone(),
                wheel: wheel.clone(),
                obs: obs.clone(),
                started,
                tick,
                timer_counter: (i as u64) << 32,
                cancelled: Vec::new(),
                crashed: false,
                crash_mode: CrashMode::Retain,
                batch: Vec::new(),
            };
            handles.push(spawn_named(&format!("rt-node-{i}"), move || host.run(rx)));
        }

        Runtime {
            senders,
            handles,
            timer_thread: Some(timer_thread),
            wheel,
            net: Some(net),
            interposer_thread,
            fault_thread,
            latch,
            started,
            tick,
            op_timeout: self.op_timeout,
        }
    }
}

/// One node thread: the automaton and what hosting it takes.
struct NodeHost<M: Send + 'static> {
    me: NodeId,
    node: Box<dyn Automaton<M> + Send>,
    net: Arc<NetOut<M>>,
    wheel: Arc<TimerWheel>,
    obs: Obs,
    started: Instant,
    tick: Duration,
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
            let now = started_ticks(self.started, self.tick);
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

    /// Runs one step of the automaton at tick `now` and sends what it
    /// produced.
    fn step(&mut self, now: u64, f: impl FnOnce(&mut dyn Automaton<M>, &mut Context<M>)) {
        let mut ctx = Context::new(self.me, Time(now), self.timer_counter);
        f(self.node.as_mut(), &mut ctx);
        self.timer_counter = drain_context(
            ctx,
            self.me,
            &self.net,
            &self.wheel,
            &mut self.cancelled,
            self.tick,
        );
    }

    /// Traces one arriving message and adds it to the step's batch — or
    /// loses it, like the simulator's crashed-receiver drops.
    fn admit(&mut self, now: u64, from: NodeId, msg: M) {
        let (kind, crashed) = if self.crashed {
            (TraceKind::Drop, 1)
        } else {
            (TraceKind::Deliver, 0)
        };
        self.obs.emit(
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
        // Timers are volatile state: purge this node's pending wheel
        // entries so no pre-crash timer fires after a restart.
        let mut heap = self.wheel.heap.lock();
        let drained = std::mem::take(&mut *heap);
        let mut purged = Vec::new();
        *heap = drained
            .into_iter()
            .filter(|r| {
                if r.node == i {
                    purged.push(r.token);
                }
                r.node != i
            })
            .collect();
        drop(heap);
        // Purged entries will never reach the wheel's pop-time check;
        // drop their suppression markers too so the set stays bounded.
        if !purged.is_empty() {
            let mut wheel_cancelled = self.wheel.cancelled.lock();
            for token in purged {
                wheel_cancelled.remove(&token.0);
            }
        }
        self.wheel.suppressed[i].lock().clear();
        self.cancelled.clear();
        self.obs
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
        self.obs.emit(
            TraceKind::Recover,
            now,
            self.me.0 as u64,
            LANE_SYS,
            replayed as u64,
            amnesia,
        );
    }
}

fn started_ticks(started: Instant, tick: Duration) -> u64 {
    (started.elapsed().as_nanos() / tick.as_nanos().max(1)) as u64
}

/// `t` ticks as wall-clock time, without the u32 truncation of
/// `Duration * u32` (far-future scenario ticks saturate at ~584 years
/// instead of silently wrapping to "almost now").
fn ticks_to_wall(tick: Duration, t: u64) -> Duration {
    Duration::from_nanos((tick.as_nanos() as u64).saturating_mul(t))
}

/// The interposer loop: applies the scenario's link schedule to every
/// in-flight message. Held/delayed messages wait in a local heap keyed by
/// wall-clock due time; the loop exits when every sender is gone.
fn run_interposer<M: Send + Clone + 'static>(
    rx: Receiver<Outbound<M>>,
    senders: Vec<Sender<Event<M>>>,
    mut net: ScenarioNet,
    started: Instant,
    tick: Duration,
    obs: Obs,
) {
    let mut heap: BinaryHeap<Reverse<Delayed<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    let deliver = |out: Outbound<M>| {
        if let Some(tx) = senders.get(out.to.0) {
            let _ = tx.send(Event::Msg {
                from: out.from,
                msg: out.msg,
            });
        }
    };
    loop {
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(d)| d.due <= now) {
            let Reverse(d) = heap.pop().expect("peeked");
            deliver(d.out);
        }
        let timeout = heap
            .peek()
            .map(|Reverse(d)| d.due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));
        let out = match rx.recv_timeout(timeout) {
            Ok(out) => out,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut hold =
            |due: Instant, out: Outbound<M>, heap: &mut BinaryHeap<Reverse<Delayed<M>>>| {
                seq += 1;
                heap.push(Reverse(Delayed { due, seq, out }));
            };
        match net.decide(out.from, out.to, out.sent_tick) {
            LinkDecision::Deliver { extra: 0 } => deliver(out),
            LinkDecision::Deliver { extra } => {
                hold(Instant::now() + ticks_to_wall(tick, extra), out, &mut heap);
            }
            LinkDecision::DeliverAtTick(t) => {
                hold(started + ticks_to_wall(tick, t), out, &mut heap);
            }
            LinkDecision::Drop => {
                obs.emit(
                    TraceKind::Drop,
                    started_ticks(started, tick),
                    out.to.0 as u64,
                    LANE_SYS,
                    out.from.0 as u64,
                    0,
                );
            }
            LinkDecision::Duplicate { lag } => {
                let copy = Outbound {
                    from: out.from,
                    to: out.to,
                    msg: out.msg.clone(),
                    sent_tick: out.sent_tick,
                };
                deliver(out);
                hold(
                    Instant::now() + ticks_to_wall(tick, lag.max(1)),
                    copy,
                    &mut heap,
                );
            }
        }
    }
}

fn drain_context<M: Send + Clone + 'static>(
    ctx: Context<M>,
    me: NodeId,
    net: &NetOut<M>,
    wheel: &TimerWheel,
    cancelled: &mut Vec<TimerToken>,
    tick: Duration,
) -> u64 {
    let counter = ctx.timer_counter_snapshot();
    let (outbox, timers, newly_cancelled) = ctx.into_outputs();
    for (to, msg) in outbox {
        net.send(me, to, msg);
    }
    if !timers.is_empty() {
        let mut heap = wheel.heap.lock();
        for (delay, token) in timers {
            heap.push(TimerReq {
                due: Instant::now() + ticks_to_wall(tick, delay),
                node: me.0,
                token,
            });
        }
        wheel.cv.notify_one();
    }
    // Publish cancellations to the wheel (which suppresses the firing
    // when it wins the race) *and* remember them locally (which swallows
    // the firing when the wheel already sent it). The wheel acks each
    // suppression through `suppressed`, so the local list stays bounded
    // by the genuinely in-flight cancellations.
    if !newly_cancelled.is_empty() {
        let mut wheel_cancelled = wheel.cancelled.lock();
        wheel_cancelled.extend(newly_cancelled.iter().map(|t| t.0));
    }
    cancelled.extend(newly_cancelled);
    let acked = std::mem::take(&mut *wheel.suppressed[me.0].lock());
    for token in acked {
        if let Some(pos) = cancelled.iter().position(|&t| t == token) {
            cancelled.swap_remove(pos);
        }
    }
    counter
}

impl<M: Send + Clone + 'static> Runtime<M> {
    /// Injects a message into `to`'s inbox, attributed to `from`, subject
    /// to the scenario's link schedule.
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) {
        if let Some(net) = &self.net {
            net.send(from, to, msg);
        }
    }

    /// Runs a closure on the node's automaton (typed), on its own thread.
    /// Does not wait for completion.
    pub fn invoke<T: 'static>(
        &self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<M>) + Send + 'static,
    ) {
        let _ = self.senders[id.0].send(Event::Call(Box::new(move |node, ctx| {
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
        let _ = self.senders[id.0].send(Event::Call(Box::new(move |node, _ctx| {
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
            std::thread::sleep(self.tick / 4 + Duration::from_micros(100));
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
        let _ = self.senders[id.0].send(Event::Crash(mode));
    }

    /// Restarts a crashed node: with its retained state after a retain
    /// crash, from its durable store after an amnesia crash.
    pub fn restart_node(&self, id: NodeId) {
        let _ = self.senders[id.0].send(Event::Restart);
    }

    /// Replaces the automaton at `id` (Byzantine behaviour injection).
    /// The new automaton's `on_start` is *not* called.
    pub fn swap_node(&self, id: NodeId, node: Box<dyn Automaton<M> + Send>) {
        let _ = self.senders[id.0].send(Event::Replace(node));
    }

    /// Envelope/item counts since start.
    pub fn message_stats(&self) -> SubstrateStats {
        match &self.net {
            Some(net) => SubstrateStats {
                envelopes: net.counters.envelopes.load(Ordering::Relaxed),
                items: net.counters.items.load(Ordering::Relaxed),
            },
            None => SubstrateStats::default(),
        }
    }

    /// Elapsed wall-clock since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The tick length in use.
    pub fn tick_len(&self) -> Duration {
        self.tick
    }

    /// The await timeout used by generic substrate awaits.
    pub fn op_timeout(&self) -> Duration {
        self.op_timeout
    }
}

impl<M: Send + 'static> Runtime<M> {
    /// Stops all threads.
    pub fn shutdown(&mut self) {
        *self.wheel.shutdown.lock() = true;
        self.wheel.cv.notify_one();
        self.latch.close();
        for tx in &self.senders {
            let _ = tx.send(Event::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(t) = self.timer_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.fault_thread.take() {
            let _ = t.join();
        }
        // Dropping the last NetOut (ours; node threads are gone) closes
        // the interposer's inbound channel and ends its loop.
        self.net = None;
        if let Some(t) = self.interposer_thread.take() {
            let _ = t.join();
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

    fn build(config: SubstrateConfig<M>) -> Self {
        let mut builder = RuntimeBuilder::new()
            .tick(config.tick)
            .op_timeout(config.op_timeout)
            .scenario(config.scenario)
            .sizer(config.sizer)
            .tracer(config.tracer);
        for node in config.nodes {
            builder = builder.node(node);
        }
        builder.start()
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
        Time(started_ticks(self.started, self.tick))
    }

    fn elapsed_units(&self) -> u64 {
        (self.started.elapsed().as_micros() as u64).max(1)
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
        let mut rt = RuntimeBuilder::new()
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
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
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .node(Box::new(TimerUser::default()))
            .start();
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
        let mut rt = RuntimeBuilder::new()
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
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

    /// Parks node 0 inside a `Call` until the returned sender is
    /// dropped, so a test can queue events behind it in a known order.
    fn park(rt: &Runtime<u32>) -> std::sync::mpsc::Sender<()> {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        rt.invoke::<Steps>(NodeId(0), move |_n, _c| {
            let _ = parked.recv();
        });
        release
    }

    fn steps_of(rt: &Runtime<u32>) -> Vec<Option<Vec<u32>>> {
        rt.inspect::<Steps, _>(NodeId(0), |s| s.0.clone())
    }

    #[test]
    fn messages_queued_behind_a_busy_node_are_one_step() {
        let mut rt = RuntimeBuilder::new()
            .node(Box::new(Steps::default()))
            .start();
        for round in [0, 10] {
            let release = park(&rt);
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
        let mut rt = RuntimeBuilder::new()
            .node(Box::new(Steps::default()))
            .start();
        let release = park(&rt);
        rt.send(NodeId(0), NodeId(0), 1);
        rt.send(NodeId(0), NodeId(0), 2);
        assert!(rt.senders[0].send(Event::Timer(TimerToken(7))).is_ok());
        rt.send(NodeId(0), NodeId(0), 3);
        drop(release);
        assert_eq!(
            steps_of(&rt),
            [Some(vec![1, 2]), None, Some(vec![3])],
            "a batch ends at the first event that is not a message"
        );
        rt.shutdown();
    }

    #[test]
    fn crash_queued_between_two_messages_loses_the_second() {
        let rec = Arc::new(rqs_obs::FlightRecorder::new(64));
        let mut rt = RuntimeBuilder::new()
            .tracer(rec.clone())
            .node(Box::new(Steps::default()))
            .start();
        let release = park(&rt);
        rt.send(NodeId(0), NodeId(0), 1);
        rt.crash_node(NodeId(0));
        rt.send(NodeId(0), NodeId(0), 2);
        drop(release);
        assert_eq!(steps_of(&rt), [Some(vec![1])]);
        let kinds: Vec<TraceKind> = rqs_obs::Tracer::snapshot(&*rec)
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [TraceKind::Deliver, TraceKind::Crash, TraceKind::Drop]
        );
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut rt: Runtime<u32> = RuntimeBuilder::new()
            .node(Box::new(Echo::default()))
            .start();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }

    #[test]
    fn crash_drops_messages_restart_resumes() {
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
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

    /// Remembers messages volatilely and arms a long timer on each one;
    /// restore_state simulates rebuilding from an empty durable store.
    #[derive(Default)]
    struct Volatile {
        got: Vec<u32>,
        fired: usize,
        restores: usize,
    }

    impl Automaton<u32> for Volatile {
        fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.got.push(msg);
            ctx.set_timer(50);
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
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .node(Box::new(Volatile::default()))
            .node(Box::new(Echo::default()))
            .start();
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
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
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
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .scenario(scenario)
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
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
    fn scenario_duplicate_delivers_twice() {
        let scenario =
            Scenario::named("dup").link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }));
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .scenario(scenario)
            .node(Box::new(Echo::default()))
            .node(Box::new(Mute))
            .start();
        rt.send(NodeId(0), NodeId(0), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(0),
            |e: &Echo| e.got.len() >= 2,
            Duration::from_secs(5),
        ));
        rt.shutdown();
    }

    #[test]
    fn scenario_crash_plan_fires_on_schedule() {
        let scenario = Scenario::named("cr").crash_restart(1, 0, 40);
        let mut rt = RuntimeBuilder::new()
            .tick(Duration::from_millis(1))
            .scenario(scenario)
            .node(Box::new(Echo::default()))
            .node(Box::new(Echo::default()))
            .start();
        // Give the scheduler a beat to crash node 1 at tick 0.
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
    fn substrate_trait_drives_runtime() {
        let nodes: Vec<Box<dyn Automaton<u32> + Send>> =
            vec![Box::new(Echo::default()), Box::new(Echo::default())];
        let cfg = SubstrateConfig::new(nodes).tick(Duration::from_millis(1));
        let mut sub: Runtime<u32> = Substrate::build(cfg);
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 4);
        assert!(sub.await_on::<Echo>(NodeId(1), |e| e.got.len() >= 3, 0));
        assert_eq!(<Runtime<u32> as Substrate<u32>>::NAME, "threaded");
        assert!(Substrate::stats(&sub).envelopes >= 5);
        Substrate::shutdown(&mut sub);
    }
}
