//! The substrate abstraction: one deployment API over both executors.
//!
//! The paper's algorithms are substrate-agnostic automata; what differs
//! between the deterministic simulator and the threaded runtime is only
//! *how* automata are hosted: where messages travel, how timers map to
//! time, and how a driver waits for an operation to finish. [`Substrate`]
//! captures exactly that surface — node registration, message posting,
//! `invoke`/`inspect`, await-with-deadline, crash/restart and Byzantine
//! substitution — so the storage, consensus and KV deployment drivers are
//! written once, generically, and run unchanged on either executor. It is
//! also the only way to reach the threaded runtime.
//!
//! Both executors drive one [`Agenda`](crate::Agenda): whatever happens
//! later than the step that caused it — a delayed message, a timer, a
//! crash plan — is an entry in `(time, sequence)` order.
//!
//! - [`World`] pops the agenda over simulated time
//!   ([`Substrate::await_on`] is `run_until` with a step budget);
//! - `rqs_runtime::Runtime` serves it from one clock thread over wall
//!   time, into node-per-thread inboxes (`await_on` is the blocking
//!   `wait_for` poll with a wall-clock timeout).
//!
//! Fault injection plugs in at the same seam: a declarative
//! [`Scenario`] handed to [`SubstrateConfig`] compiles to a fate policy
//! on the simulator and to the same decision in the runtime's send path;
//! on both, its crash plans are crash and restart entries on the agenda.
//!
//! # The step over a batch
//!
//! Both executors hand a node its messages through
//! [`Automaton::on_messages`]: one step over what was queued for the node
//! when the step began (the contract is on the trait). The runtime's
//! node thread takes what is already in its inbox up to the first event
//! that is not a message; the simulator, in its default `(time,
//! sequence)` order, takes the run of consecutive deliveries to one node
//! at one time. Neither has a size limit or a setting: the batch is
//! bounded by what the senders may have outstanding.
//!
//! Under a [`Scheduler`](crate::Scheduler) — the mode `rqs-check`
//! explores — a step stays one event, and that search covers the
//! batched executions too. Take any execution with a batch step over
//! messages `m1..mk` at node `p`, and replace the step by `k` steps of
//! one message each, in the same order, nothing else of `p`'s in
//! between, the outputs of all `k` released after the last. An automaton
//! on the default `on_messages` cannot tell the difference — that method
//! *is* the loop — and one that overrides it must make `on_message` the
//! batch-of-one case of the same function, so its state after the `k`
//! steps is its state after the batch and the union of their outputs
//! says the same things to the same nodes (the differential proptests
//! of `rqs-kv` check exactly this). Releasing outputs late is a delay of
//! messages, which every scheduler may impose. So every batched
//! execution is a single-delivery execution whose crash points at `p`
//! are restricted to "before `m1`" and "after `mk`": a subset of what
//! the explorer branches over, never a new behaviour. The same holds on
//! the durable side, where the `k` envelopes' writes share one log
//! record: a crash leaves all of them durable or none, and none was
//! acknowledged before the append — the single-delivery outcomes "crash
//! before `m1`" and "crash after `mk`, acks still in flight". What the
//! batch rules out is the outcomes in between, where a prefix is
//! durable.

use crate::node::{Automaton, Context, NodeId};
use crate::scenario::{CrashMode, Scenario};
use crate::time::Time;
use crate::world::World;
use rqs_obs::{NopTracer, Obs, ObsHandle};
use std::sync::Arc;
use std::time::Duration;

/// Default wall-clock length of one protocol tick on wall-clock
/// substrates (ignored by the simulator).
pub const DEFAULT_TICK: Duration = Duration::from_millis(2);

/// Default operation timeout for wall-clock substrates (ignored by the
/// simulator, which bounds awaits in steps instead).
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Default step budget for simulator awaits — the step-count analogue of
/// [`DEFAULT_OP_TIMEOUT`], used by the deployment drivers when no
/// tighter budget applies (wall-clock substrates ignore it).
pub const DEFAULT_AWAIT_STEPS: usize = 10_000_000;

/// Everything needed to stand up a deployment on any substrate.
pub struct SubstrateConfig<M> {
    /// The automata, in node-id order (ids are assigned densely from 0).
    pub nodes: Vec<Box<dyn Automaton<M> + Send>>,
    /// Fault scenario (link effects and crash plans; Byzantine swap-ins
    /// are applied by the deployment layer, which knows the automaton).
    pub scenario: Scenario,
    /// Payload sizer for message statistics: batched message types report
    /// their inner item count. Defaults to one item per message.
    pub sizer: fn(&M) -> u64,
    /// Wall-clock tick length (wall-clock substrates only).
    pub tick: Duration,
    /// Await timeout (wall-clock substrates only).
    pub op_timeout: Duration,
    /// Structured-trace sink: the substrate emits deliver/drop and
    /// crash/recover [`rqs_obs::TraceEvent`]s into it. Defaults to the
    /// zero-overhead [`NopTracer`].
    pub tracer: ObsHandle,
}

impl<M> SubstrateConfig<M> {
    /// A fault-free configuration with default tick and timeout.
    pub fn new(nodes: Vec<Box<dyn Automaton<M> + Send>>) -> Self {
        SubstrateConfig {
            nodes,
            scenario: Scenario::default(),
            sizer: |_| 1,
            tick: DEFAULT_TICK,
            op_timeout: DEFAULT_OP_TIMEOUT,
            tracer: Arc::new(NopTracer),
        }
    }

    /// Sets the fault scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the payload sizer.
    pub fn sizer(mut self, sizer: fn(&M) -> u64) -> Self {
        self.sizer = sizer;
        self
    }

    /// Sets the wall-clock tick length.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the await timeout for wall-clock substrates.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Installs a structured-trace sink (e.g. a
    /// [`FlightRecorder`](rqs_obs::FlightRecorder)).
    pub fn tracer(mut self, tracer: ObsHandle) -> Self {
        self.tracer = tracer;
        self
    }
}

/// Aggregate message statistics every substrate can report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Network envelopes sent.
    pub envelopes: u64,
    /// Payload items carried inside those envelopes (per the configured
    /// sizer; equals `envelopes` without one).
    pub items: u64,
}

/// An execution substrate hosting a set of protocol automata.
///
/// Drivers generic over `Substrate` get both deployments for free; see
/// the crate-level docs of `rqs_storage`, `rqs_consensus` and `rqs_kv`.
pub trait Substrate<M: Clone + Send + 'static>: Sized {
    /// Short substrate name for reports ("sim", "threaded").
    const NAME: &'static str;

    /// `true` iff executions are bit-for-bit reproducible.
    const DETERMINISTIC: bool;

    /// Builds and starts the substrate: registers `config.nodes` with ids
    /// `0..n`, installs the scenario's link schedule and crash plans, and
    /// runs every automaton's `on_start` hook.
    fn build(config: SubstrateConfig<M>) -> Self;

    /// Injects a message into `to`'s inbox, attributed to `from`,
    /// subject to the scenario's link schedule.
    fn post(&mut self, from: NodeId, to: NodeId, msg: M);

    /// Runs a closure against the node's concrete automaton state, with a
    /// context whose outputs are routed as usual (an external invocation
    /// step, e.g. `write(v)` arriving at a client). Asynchronous on
    /// threaded substrates.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the concrete type does not match.
    fn invoke_on<T: 'static>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<M>) + Send + 'static,
    );

    /// Computes a value from the node's concrete state; blocks until the
    /// node processes the request on threaded substrates. Works on
    /// crashed nodes (inspection reads surviving state).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the concrete type does not match.
    fn inspect_on<T: 'static, R: Send + 'static>(
        &self,
        id: NodeId,
        f: impl Fn(&T) -> R + Send + Sync + 'static,
    ) -> R;

    /// Drives the substrate until `pred` holds over the node's state;
    /// returns whether it did. On the simulator this steps the event loop
    /// (at most `max_steps` events, returning early if the queue drains);
    /// on threaded substrates it polls until the configured timeout —
    /// the blocking analogue of `run_until`.
    fn await_on<T: 'static>(
        &mut self,
        id: NodeId,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        max_steps: usize,
    ) -> bool;

    /// Crashes the node now: it stops processing and sending until
    /// [`Substrate::restart`]. Messages arriving meanwhile are lost.
    /// Equivalent to [`Substrate::crash_with`] in [`CrashMode::Retain`].
    fn crash(&mut self, id: NodeId) {
        self.crash_with(id, CrashMode::Retain);
    }

    /// Crashes the node now with an explicit [`CrashMode`]: `Retain`
    /// behaves like [`Substrate::crash`]; `Amnesia` makes the eventual
    /// [`Substrate::restart`] discard all volatile state and rebuild the
    /// node from its durable store (via
    /// [`Automaton::restore_state`]).
    fn crash_with(&mut self, id: NodeId, mode: CrashMode);

    /// Restarts a crashed node: with its retained state after a
    /// [`CrashMode::Retain`] crash, from its durable store after a
    /// [`CrashMode::Amnesia`] crash.
    fn restart(&mut self, id: NodeId);

    /// Replaces the automaton at `id` (Byzantine behaviour injection).
    /// The new automaton's `on_start` is *not* called.
    fn replace_node(&mut self, id: NodeId, node: Box<dyn Automaton<M> + Send>);

    /// Message statistics since construction.
    fn stats(&self) -> SubstrateStats;

    /// The current protocol tick (simulated clock, or elapsed wall-clock
    /// divided by the tick length).
    fn now_ticks(&self) -> Time;

    /// Elapsed run duration in the substrate's natural unit: simulated
    /// ticks, or wall-clock microseconds.
    fn elapsed_units(&self) -> u64;

    /// Stops the substrate (a no-op on the simulator).
    fn shutdown(&mut self);
}

impl<M: Clone + Send + 'static> Substrate<M> for World<M> {
    const NAME: &'static str = "sim";
    const DETERMINISTIC: bool = true;

    fn build(config: SubstrateConfig<M>) -> Self {
        let mut world = World::new(config.scenario.network());
        world.set_sizer(config.sizer);
        world.set_obs(Obs::new(config.tracer, 0));
        for node in config.nodes {
            world.add_node(node);
        }
        for plan in &config.scenario.crashes {
            world.crash_at_mode(NodeId(plan.node), Time(plan.at), plan.crash_mode);
            if let Some(t) = plan.restart_at {
                world.restart_at(NodeId(plan.node), Time(t));
            }
        }
        world.start();
        world
    }

    fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        World::post(self, from, to, msg);
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
        f(self.node_as::<T>(id))
    }

    fn await_on<T: 'static>(
        &mut self,
        id: NodeId,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        max_steps: usize,
    ) -> bool {
        self.run_until_bounded(|w| pred(w.node_as::<T>(id)), max_steps)
    }

    fn crash_with(&mut self, id: NodeId, mode: CrashMode) {
        // Scheduled at the current tick but processed lazily by the next
        // drive: the clock does not advance, so crashing a *set* of
        // nodes crashes them all at the same instant, and the crash
        // still sorts before anything sent afterwards (later sequence
        // numbers, later delivery ticks).
        let now = self.now();
        self.crash_at_mode(id, now, mode);
    }

    fn restart(&mut self, id: NodeId) {
        let now = self.now();
        self.restart_at(id, now);
    }

    fn replace_node(&mut self, id: NodeId, node: Box<dyn Automaton<M> + Send>) {
        World::replace_node(self, id, node);
    }

    fn stats(&self) -> SubstrateStats {
        let s = World::stats(self);
        SubstrateStats {
            envelopes: s.messages_sent as u64,
            items: s.items_sent as u64,
        }
    }

    fn now_ticks(&self) -> Time {
        self.now()
    }

    fn elapsed_units(&self) -> u64 {
        self.now().ticks()
    }

    fn shutdown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Selector;
    use crate::scenario::{LinkEffect, LinkRule};
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

    fn drive<S: Substrate<u32>>() -> (usize, u64) {
        let cfg = SubstrateConfig::new(vec![Box::new(Echo::default()), Box::new(Echo::default())]);
        let mut sub = S::build(cfg);
        sub.post(NodeId(0), NodeId(1), 4);
        let done = sub.await_on::<Echo>(NodeId(1), |e| e.got.len() >= 3, 1_000_000);
        assert!(done, "{} must converge", S::NAME);
        let len = sub.inspect_on::<Echo, usize>(NodeId(1), |e| e.got.len());
        let stats = sub.stats();
        sub.shutdown();
        (len, stats.envelopes)
    }

    #[test]
    fn world_drives_generically() {
        let (len, envelopes) = drive::<World<u32>>();
        assert_eq!(len, 3); // 4, 2, 0
        assert_eq!(envelopes, 5); // the post plus replies 3, 2, 1, 0
    }

    #[test]
    fn world_crash_and_restart_via_trait() {
        let cfg = SubstrateConfig::new(vec![Box::new(Echo::default()), Box::new(Echo::default())]);
        let mut sub: World<u32> = Substrate::build(cfg);
        Substrate::crash(&mut sub, NodeId(1));
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 3);
        assert!(!sub.await_on::<Echo>(NodeId(1), |e| !e.got.is_empty(), 10_000));
        Substrate::restart(&mut sub, NodeId(1));
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 0);
        assert!(sub.await_on::<Echo>(NodeId(1), |e| !e.got.is_empty(), 10_000));
    }

    #[test]
    fn scenario_crash_plans_fire_on_build() {
        let scenario = Scenario::named("crash1").crash_restart(1, 2, 8);
        let nodes: Vec<Box<dyn Automaton<u32> + Send>> =
            vec![Box::new(Echo::default()), Box::new(Echo::default())];
        let cfg = SubstrateConfig::new(nodes).scenario(scenario);
        let mut sub: World<u32> = Substrate::build(cfg);
        // Delivered at t1 < crash at t2: processed.
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 0);
        assert!(sub.await_on::<Echo>(NodeId(1), |e| e.got.len() == 1, 10_000));
        // Next message arrives while crashed (t3): lost.
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 0);
        assert!(!sub.await_on::<Echo>(NodeId(1), |e| e.got.len() == 2, 10_000));
        // After the scheduled restart the node processes again.
        sub.run_before(Time(9));
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 0);
        assert!(sub.await_on::<Echo>(NodeId(1), |e| e.got.len() == 2, 10_000));
    }

    #[test]
    fn crashing_a_set_is_simultaneous_and_clock_neutral() {
        let nodes: Vec<Box<dyn Automaton<u32> + Send>> = vec![
            Box::new(Echo::default()),
            Box::new(Echo::default()),
            Box::new(Echo::default()),
        ];
        let mut sub: World<u32> = Substrate::build(SubstrateConfig::new(nodes));
        let t0 = sub.now();
        Substrate::crash(&mut sub, NodeId(1));
        Substrate::crash(&mut sub, NodeId(2));
        // Crashing must not drive the clock: both crash events are
        // scheduled at the same tick, so the set dies simultaneously.
        assert_eq!(sub.now(), t0);
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 0);
        Substrate::post(&mut sub, NodeId(0), NodeId(2), 0);
        assert!(!sub.await_on::<Echo>(NodeId(1), |e| !e.got.is_empty(), 10_000));
        assert!(!sub.await_on::<Echo>(NodeId(2), |e| !e.got.is_empty(), 10_000));
        assert!(sub.is_crashed(NodeId(1)) && sub.is_crashed(NodeId(2)));
    }

    #[test]
    fn scenario_links_shape_delivery() {
        let scenario = Scenario::named("cut")
            .link(LinkRule::every(LinkEffect::Drop).to(Selector::Is(NodeId(1))));
        let nodes: Vec<Box<dyn Automaton<u32> + Send>> =
            vec![Box::new(Echo::default()), Box::new(Echo::default())];
        let cfg = SubstrateConfig::new(nodes).scenario(scenario);
        let mut sub: World<u32> = Substrate::build(cfg);
        Substrate::post(&mut sub, NodeId(0), NodeId(1), 5);
        assert!(!sub.await_on::<Echo>(NodeId(1), |e| !e.got.is_empty(), 10_000));
    }
}
