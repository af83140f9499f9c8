//! A threaded, real-time execution environment for the same automatons
//! that run in the deterministic simulator.
//!
//! Every node runs on its own OS thread with a channel inbox; messages
//! travel between threads, and protocol ticks are mapped to wall-clock
//! durations by a configurable tick length. A node that wakes on a
//! message takes the messages already in its inbox with it, as one step
//! ([`Automaton::on_messages`]). This is the deployment used by the
//! wall-clock benchmarks (experiment E11): same protocol code, real
//! channels and real time.
//!
//! The runtime is reached only through [`Substrate`], so every
//! deployment driver written against that trait runs here unchanged.
//!
//! # One clock, one choke point
//!
//! The runtime's notion of "later" is the simulator's: one [`Agenda`] of
//! `(instant, sequence)` entries, served by the single `rt-clock` thread,
//! which puts an entry into its node's inbox when it comes due. An armed
//! timer is a timer entry at `now + delay`; a message a link rule delays,
//! holds until a heal or duplicates is a delivery entry at its due
//! instant; a [`Scenario`]'s crash plan is crash and restart entries pushed at start.
//! Entries due at the same instant fire in insertion order.
//!
//! A cancelled timer is one mark on the agenda, and whichever side takes
//! the firing consults it: the clock drops a cancelled entry, and a node
//! swallows a firing the clock had already sent. A crash purges the
//! node's timer entries and raises its crash floor, below which a firing
//! already in the inbox is ignored, so no pre-crash timer fires after the
//! restart — as in the simulator.
//!
//! A socket substrate can rely on three facts:
//!
//! 1. every outbound message — a node's, or one injected through
//!    [`Substrate::post`] — passes `NetOut::send` exactly once;
//! 2. its [`Fate`] (`ScenarioNet::decide`, the simulator's fate policy)
//!    is decided there, on the sender's thread, at the send tick;
//! 3. everything that happens later than the step that caused it is an
//!    agenda entry.

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rqs_obs::{Obs, TraceKind, LANE_SYS};
use rqs_sim::{
    Agenda, Automaton, Context, CrashMode, Due, Fate, NodeId, Scenario, ScenarioNet, Substrate,
    SubstrateConfig, SubstrateStats, Time, TimerToken,
};
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

/// What a node's inbox carries: what came due, or a driver's request.
enum Event<M> {
    Due(Due<M>),
    #[allow(clippy::type_complexity)]
    Call(Box<dyn FnOnce(&mut dyn Automaton<M>, &mut Context<M>) + Send>),
    Replace(Box<dyn Automaton<M> + Send>),
    Shutdown,
}

/// The runtime's one notion of "later": the agenda (`None` once shut
/// down) and the condition the `rt-clock` thread sleeps on.
struct Clock<M> {
    agenda: Mutex<Option<Agenda<Instant, M>>>,
    wake: Condvar,
}

impl<M> Clock<M> {
    /// Runs `f` on the agenda unless it is shut down; wakes the clock
    /// thread if `f` reports a new earliest entry.
    fn with(&self, f: impl FnOnce(&mut Agenda<Instant, M>) -> bool) {
        if self.agenda.lock().as_mut().is_some_and(f) {
            self.wake.notify_one();
        }
    }

    fn schedule(&self, at: Instant, node: NodeId, due: Due<M>) {
        self.with(|agenda| agenda.push(at, node, due));
    }

    /// The `rt-clock` thread: moves due entries into their nodes'
    /// inboxes, in `(at, seq)` order, dropping cancelled timers, until
    /// shutdown.
    fn run(&self, inboxes: &[Sender<Event<M>>]) {
        let mut ready = Vec::new();
        let mut guard = self.agenda.lock();
        while let Some(agenda) = guard.as_mut() {
            let now = Instant::now();
            while let Some(entry) = agenda.pop_if(|e| e.at <= now) {
                // Most protocol timers are cancelled on completion:
                // dropping them here saves their node a wake-up each.
                match entry.due {
                    Due::Timer(token) if agenda.take_cancelled(token) => {}
                    _ => ready.push(entry),
                }
            }
            if !ready.is_empty() {
                // Fill the inboxes with the agenda unlocked: a send may
                // have to wake the receiving thread.
                drop(guard);
                for entry in ready.drain(..) {
                    if let Some(inbox) = inboxes.get(entry.node.0) {
                        let _ = inbox.send(Event::Due(entry.due));
                    }
                }
                guard = self.agenda.lock();
            } else if let Some(next) = agenda.next_at() {
                self.wake.wait_until(&mut guard, next);
            } else {
                self.wake.wait(&mut guard);
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
            return self.enqueue(to, Event::Due(Due::Deliver { from, msg }));
        };
        // Windowed link rules key on the send tick (the simulator's
        // `env.sent_at`), and a delay is timed from this instant.
        let sent_tick = self.now_ticks();
        let fate = links.lock().decide(from, to, sent_tick);
        let later = |at: Instant, msg: M| self.clock.schedule(at, to, Due::Deliver { from, msg });
        // The first of `delay` ticks is the channel's own latency.
        let after = |delay: u64, msg: M| match delay {
            0 | 1 => self.enqueue(to, Event::Due(Due::Deliver { from, msg })),
            _ => later(Instant::now() + self.wall(delay - 1), msg),
        };
        match fate {
            Fate::Deliver { delay } => after(delay, msg),
            Fate::DeliverAt(t) => later(self.instant_of(t.ticks()), msg),
            Fate::Drop => {
                self.obs.emit(
                    TraceKind::Drop,
                    sent_tick,
                    to.0 as u64,
                    LANE_SYS,
                    from.0 as u64,
                    0,
                );
            }
            Fate::Duplicate { first, second } => {
                after(first, msg.clone());
                after(second, msg);
            }
        }
    }
}

impl<M> NetOut<M> {
    fn enqueue(&self, to: NodeId, event: Event<M>) {
        if let Some(inbox) = self.inboxes.get(to.0) {
            let _ = inbox.send(event);
        }
    }

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
/// Build through [`Substrate::build`] and drive through the rest of
/// [`Substrate`]; shut down with [`Runtime::shutdown`] (also runs on
/// drop).
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
    /// The context every step runs in, re-opened per step.
    ctx: Context<M>,
    timer_counter: u64,
    /// `timer_counter` at the last crash: the node's tokens only grow, so
    /// a firing below it was armed before that crash.
    crash_floor: u64,
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
                Event::Replace(node) => self.node = node,
                // Runs on a crashed node too, so inspection keeps working.
                Event::Call(f) => self.step(now, |node, ctx| f(node, ctx)),
                Event::Due(Due::Crash(mode)) => self.crash(now, mode),
                Event::Due(Due::Restart) => self.restart(now),
                Event::Due(Due::Timer(token)) => self.fire(now, token),
                Event::Due(Due::Deliver { from, msg }) => {
                    self.admit(now, from, msg);
                    while let Ok(next) = rx.try_recv() {
                        match next {
                            Event::Due(Due::Deliver { from, msg }) => self.admit(now, from, msg),
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
            }
        }
    }

    /// Runs one step of the automaton at tick `now`, sends what it
    /// produced and puts its timers and cancellations on the agenda.
    fn step(&mut self, now: u64, f: impl FnOnce(&mut dyn Automaton<M>, &mut Context<M>)) {
        let ctx = &mut self.ctx;
        ctx.reset(self.me, Time(now), self.timer_counter);
        f(self.node.as_mut(), ctx);
        self.timer_counter = ctx.timer_counter_snapshot();
        for (to, msg) in ctx.drain_sent() {
            self.net.send(self.me, to, msg);
        }
        let (armed, cancelled) = (ctx.armed_timers(), ctx.cancelled_timers());
        if armed.is_empty() && cancelled.is_empty() {
            return;
        }
        let (me, net, armed_at) = (self.me, &self.net, Instant::now());
        net.clock.with(|agenda| {
            let mut earliest = false;
            for &(delay, token) in armed {
                earliest |= agenda.push(armed_at + net.wall(delay), me, Due::Timer(token));
            }
            for &token in cancelled {
                agenda.cancel(token);
            }
            earliest
        });
    }

    /// A timer firing the clock sent: swallowed if the timer was
    /// cancelled since, ignored while crashed or if armed before the last
    /// crash.
    fn fire(&mut self, now: u64, token: TimerToken) {
        let mut agenda = self.net.clock.agenda.lock();
        let cancelled = agenda.as_mut().is_some_and(|a| a.take_cancelled(token));
        drop(agenda);
        if !cancelled && !self.crashed && token.0 >= self.crash_floor {
            self.step(now, |node, ctx| node.on_timer(token, ctx));
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

    /// Timers are volatile state: the crash purges this node's timer
    /// entries and raises the floor under firings already sent. A message
    /// in flight to the node and its scheduled restart stay.
    fn crash(&mut self, now: u64, mode: CrashMode) {
        self.crashed = true;
        self.crash_mode = mode;
        self.crash_floor = self.timer_counter;
        if let Some(agenda) = self.net.clock.agenda.lock().as_mut() {
            agenda.purge_timers(self.me);
        }
        let node = self.me.0 as u64;
        self.net
            .obs
            .emit(TraceKind::Crash, now, node, LANE_SYS, mode as u64, 0);
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
    /// Blocks until `pred` over the node holds (polling), or the timeout
    /// elapses; returns whether it held. The blocking analogue of the
    /// simulator's `run_until`, and what [`Substrate::await_on`] runs
    /// with the configured operation timeout.
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
            if self.inspect_on::<T, bool>(id, move |t| p(t)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(self.net.tick / 4 + Duration::from_micros(100));
        }
    }
}

impl<M: Send + 'static> Runtime<M> {
    /// Stops all threads. Entries still on the agenda, however far in the
    /// future, are dropped with it.
    pub fn shutdown(&mut self) {
        *self.net.clock.agenda.lock() = None;
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
    /// `Substrate::build` for `World` does.
    fn build(config: SubstrateConfig<M>) -> Self {
        let n = config.nodes.len();
        let (inboxes, receivers): (Vec<_>, Vec<Receiver<Event<M>>>) =
            (0..n).map(|_| unbounded()).unzip();
        let Scenario { links, crashes, .. } = &config.scenario;
        let net = Arc::new(NetOut {
            inboxes,
            clock: Clock {
                agenda: Mutex::new(Some(Agenda::default())),
                wake: Condvar::new(),
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
            let node = NodeId(plan.node);
            let crash = Due::Crash(plan.crash_mode);
            net.clock.schedule(net.instant_of(plan.at), node, crash);
            if let Some(restart) = plan.restart_at {
                net.clock
                    .schedule(net.instant_of(restart), node, Due::Restart);
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
                    ctx: Context::new(NodeId(i), Time::ZERO, 0),
                    timer_counter: (i as u64) << 32,
                    crash_floor: 0,
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
        self.net.send(from, to, msg);
    }

    /// Runs on the node's own thread; does not wait for completion.
    fn invoke_on<T: 'static>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<M>) + Send + 'static,
    ) {
        let call = move |node: &mut dyn Automaton<M>, ctx: &mut Context<M>| {
            let concrete = node
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(concrete, ctx);
        };
        self.net.enqueue(id, Event::Call(Box::new(call)));
    }

    fn inspect_on<T: 'static, R: Send + 'static>(
        &self,
        id: NodeId,
        f: impl Fn(&T) -> R + Send + Sync + 'static,
    ) -> R {
        let (tx, rx) = crossbeam_channel::bounded(1);
        let call = move |node: &mut dyn Automaton<M>, _: &mut Context<M>| {
            let concrete = node
                .as_any()
                .downcast_ref::<T>()
                .expect("node type mismatch");
            let _ = tx.send(f(concrete));
        };
        self.net.enqueue(id, Event::Call(Box::new(call)));
        rx.recv().expect("node thread alive")
    }

    fn await_on<T: 'static>(
        &mut self,
        id: NodeId,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        _max_steps: usize,
    ) -> bool {
        self.wait_for::<T>(id, pred, self.op_timeout)
    }

    fn crash_with(&mut self, id: NodeId, mode: CrashMode) {
        self.net.enqueue(id, Event::Due(Due::Crash(mode)));
    }

    fn restart(&mut self, id: NodeId) {
        self.net.enqueue(id, Event::Due(Due::Restart));
    }

    fn replace_node(&mut self, id: NodeId, node: Box<dyn Automaton<M> + Send>) {
        self.net.enqueue(id, Event::Replace(node));
    }

    fn stats(&self) -> SubstrateStats {
        SubstrateStats {
            envelopes: self.net.envelopes.load(Ordering::Relaxed),
            items: self.net.items.load(Ordering::Relaxed),
        }
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
        rt.post(NodeId(0), NodeId(1), 4);
        let done = rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| e.got.iter().sum::<u32>() >= (4 + 2),
            Duration::from_secs(5),
        );
        assert!(done, "ping-pong should converge");
        let got0 = rt.inspect_on::<Echo, Vec<u32>>(NodeId(0), |e| e.got.clone());
        assert_eq!(got0, vec![3, 1]);
        // 1 injected + 4 replies
        assert_eq!(rt.stats().envelopes, 5);
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
        rt.post(NodeId(0), NodeId(0), 0);
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
        rt.invoke_on::<Echo>(NodeId(0), |_e, ctx| ctx.send(NodeId(1), 0));
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
    fn park<T: 'static>(rt: &mut Runtime<u32>) -> std::sync::mpsc::Sender<()> {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        rt.invoke_on::<T>(NodeId(0), move |_n, _c| {
            let _ = parked.recv();
        });
        release
    }

    fn steps_of(rt: &Runtime<u32>) -> Vec<Option<Vec<u32>>> {
        rt.inspect_on::<Steps, _>(NodeId(0), |s| s.0.clone())
    }

    #[test]
    fn messages_queued_behind_a_busy_node_are_one_step() {
        let mut rt = start(config(vec![Box::new(Steps::default())]));
        for round in [0, 10] {
            let release = park::<Steps>(&mut rt);
            for m in 1..=3 {
                rt.post(NodeId(0), NodeId(0), round + m);
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
        let release = park::<Steps>(&mut rt);
        rt.post(NodeId(0), NodeId(0), 1);
        rt.post(NodeId(0), NodeId(0), 2);
        assert!(rt.net.inboxes[0]
            .send(Event::Due(Due::Timer(TimerToken(7))))
            .is_ok());
        rt.post(NodeId(0), NodeId(0), 3);
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
        let release = park::<Steps>(&mut rt);
        rt.post(NodeId(0), NodeId(0), 1);
        rt.crash(NodeId(0));
        rt.post(NodeId(0), NodeId(0), 2);
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
        rt.crash(NodeId(1));
        rt.post(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(100),
        ));
        rt.restart(NodeId(1));
        rt.post(NodeId(0), NodeId(1), 0);
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
        rt.post(NodeId(1), NodeId(0), 5);
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| !v.got.is_empty(),
            Duration::from_secs(5),
        ));
        // Amnesia-crash before the 50-tick timer fires, then restart.
        rt.crash_with(NodeId(0), CrashMode::Amnesia);
        rt.restart(NodeId(0));
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| v.restores == 1,
            Duration::from_secs(5),
        ));
        let (got, fired) = rt.inspect_on::<Volatile, _>(NodeId(0), |v| (v.got.clone(), v.fired));
        assert!(got.is_empty(), "amnesia restart must drop volatile state");
        assert_eq!(fired, 0);
        // Wait past the old timer's due point: it was purged at crash.
        std::thread::sleep(Duration::from_millis(80));
        let fired = rt.inspect_on::<Volatile, usize>(NodeId(0), |v| v.fired);
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
        let release = park::<Volatile>(&mut rt);
        rt.post(NodeId(0), NodeId(0), 1);
        rt.crash(NodeId(0));
        rt.restart(NodeId(0));
        rt.post(NodeId(1), NodeId(0), 0);
        drop(release);
        assert!(rt.wait_for::<Volatile>(
            NodeId(0),
            |v: &Volatile| v.got == [1, 0],
            Duration::from_secs(5),
        ));
        // The clock serves the agenda in due order, so the timer (tick
        // 50) would have reached the inbox before the message (tick 80).
        let fired = rt.inspect_on::<Volatile, usize>(NodeId(0), |v| v.fired);
        assert_eq!(fired, 0, "the purge takes the crashed node's timers");
        rt.shutdown();
    }

    /// Polls `done` every millisecond for up to 5 s; returns its last
    /// reading.
    fn eventually(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    /// Whether the clock has served every agenda entry.
    fn served(net: &NetOut<u32>) -> bool {
        net.clock
            .agenda
            .lock()
            .as_ref()
            .is_none_or(Agenda::is_empty)
    }

    #[test]
    fn a_firing_sent_before_a_crash_is_dead_after_the_restart() {
        let mut rt = start(config(vec![Box::new(Volatile::default()), Box::new(Mute)]));
        let net = rt.net.clone();
        // Arms the 50-tick timer, then holds the node until the clock has
        // sent its firing, which queues behind the crash and the restart
        // queued here: the crash's purge finds nothing to purge.
        rt.post(NodeId(1), NodeId(0), 1);
        rt.invoke_on::<Volatile>(NodeId(0), move |_v, _c| {
            assert!(eventually(|| served(&net)), "the clock serves the timer");
        });
        rt.crash(NodeId(0));
        rt.restart(NodeId(0));
        rt.inspect_on::<Volatile, ()>(NodeId(0), |_| ());
        std::thread::sleep(Duration::from_millis(10));
        let fired = rt.inspect_on::<Volatile, usize>(NodeId(0), |v| v.fired);
        assert_eq!(fired, 0, "a timer armed before the crash fired after it");
        rt.shutdown();
    }

    /// Arms and cancels a timer on request; counts firings.
    #[derive(Default)]
    struct Canceller {
        armed: Option<TimerToken>,
        fired: usize,
    }

    impl Automaton<u32> for Canceller {
        fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<u32>) {}
        fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<u32>) {
            self.fired += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Arms a `delay`-tick timer on node 0 and cancels it in the next
    /// step — at once, or `late`: once the clock has served the entry, so
    /// its firing is already in the inbox behind the cancelling step.
    /// Returns how often the timer fired and whether anything of it
    /// (entry or mark) is left on the agenda.
    fn arm_then_cancel(delay: u64, late: bool) -> (usize, bool) {
        let mut rt = start(config(vec![Box::new(Canceller::default())]));
        let net = rt.net.clone();
        rt.invoke_on::<Canceller>(NodeId(0), move |c, ctx| {
            c.armed = Some(ctx.set_timer(delay));
        });
        rt.invoke_on::<Canceller>(NodeId(0), move |c, ctx| {
            assert!(!late || eventually(|| served(&net)));
            ctx.cancel_timer(c.armed.expect("armed first"));
        });
        let token = rt.inspect_on::<Canceller, _>(NodeId(0), |c| c.armed.expect("armed"));
        // Whoever takes the firing — the clock in time, the node late —
        // takes the mark with it.
        let left = |net: &NetOut<u32>| {
            let agenda = net.clock.agenda.lock();
            agenda
                .as_ref()
                .is_some_and(|a| !a.is_empty() || a.is_cancelled(token))
        };
        eventually(|| !left(&rt.net));
        let fired = rt.inspect_on::<Canceller, usize>(NodeId(0), |c| c.fired);
        let left = left(&rt.net);
        rt.shutdown();
        (fired, left)
    }

    #[test]
    fn a_timer_cancelled_before_it_is_due_never_fires() {
        let (fired, left) = arm_then_cancel(20, false);
        assert_eq!(fired, 0, "the timer fired after its cancellation");
        assert!(!left, "the clock dropped the entry and took the mark");
    }

    #[test]
    fn a_timer_cancelled_after_its_firing_was_sent_is_swallowed() {
        let (fired, left) = arm_then_cancel(1, true);
        assert_eq!(fired, 0, "the timer fired after its cancellation");
        assert!(!left, "the node swallowed the firing and took the mark");
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
        rt.replace_node(NodeId(1), Box::new(Mute));
        rt.post(NodeId(0), NodeId(1), 3);
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
        rt.post(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(20),
        ));
        // After tick 50 (= 50 ms) the partition heals.
        std::thread::sleep(Duration::from_millis(60));
        rt.post(NodeId(0), NodeId(1), 7);
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
        rt.post(NodeId(0), NodeId(1), 7);
        assert!(rt.wait_for::<Echo>(NodeId(1), |e: &Echo| e.got == [7], Duration::from_secs(5),));
        assert!(rt.elapsed_units() >= 40_000, "held until the window closed");
        rt.shutdown();
    }

    #[test]
    fn scenario_duplicate_delivers_twice() {
        let scenario =
            Scenario::named("dup").link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }));
        let mut rt =
            start(config(vec![Box::new(Echo::default()), Box::new(Mute)]).scenario(scenario));
        rt.post(NodeId(0), NodeId(0), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(0),
            |e: &Echo| e.got.len() >= 2,
            Duration::from_secs(5),
        ));
        rt.shutdown();

        // `lag: 0`: the copy lags by no tick, so both arrive well within
        // one (long) tick, as on the simulator.
        let scenario =
            Scenario::named("dup0").link(LinkRule::every(LinkEffect::Duplicate { lag: 0 }));
        let config = config(vec![Box::new(Echo::default()), Box::new(Mute)])
            .tick(Duration::from_secs(60))
            .scenario(scenario);
        let mut rt = start(config);
        rt.post(NodeId(0), NodeId(0), 0);
        assert!(rt.wait_for::<Echo>(
            NodeId(0),
            |e: &Echo| e.got == [0, 0],
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
            rt.post(NodeId(0), NodeId(1), m);
        }
        assert!(rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| e.got.len() == 200,
            Duration::from_secs(5),
        ));
        let got = rt.inspect_on::<Echo, Vec<u32>>(NodeId(1), |e| e.got.clone());
        assert_eq!(got, (1..=200).collect::<Vec<u32>>());
        rt.shutdown();
    }

    #[test]
    fn entries_due_at_the_same_instant_fire_in_insertion_order() {
        let rec = Arc::new(rqs_obs::FlightRecorder::new(64));
        let mut rt = start(config(vec![Box::new(Steps::default())]).tracer(rec.clone()));
        let due = Instant::now() + Duration::from_millis(20);
        let msg = |msg| Due::Deliver {
            from: NodeId(0),
            msg,
        };
        // What a crash plan and delayed messages with one due instant
        // put on the agenda.
        for entry in [
            msg(1),
            msg(2),
            Due::Crash(CrashMode::Retain),
            msg(3),
            Due::Restart,
            msg(4),
        ] {
            rt.net.clock.schedule(due, NodeId(0), entry);
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
        rt.post(NodeId(0), NodeId(1), 0);
        assert!(!rt.wait_for::<Echo>(
            NodeId(1),
            |e: &Echo| !e.got.is_empty(),
            Duration::from_millis(15),
        ));
        // After the restart at tick 40 the node processes again.
        std::thread::sleep(Duration::from_millis(50));
        rt.post(NodeId(0), NodeId(1), 0);
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
        rt.post(NodeId(1), NodeId(0), 0);
        assert_eq!(
            rt.net.clock.agenda.lock().as_ref().map(Agenda::len),
            Some(2)
        );
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
