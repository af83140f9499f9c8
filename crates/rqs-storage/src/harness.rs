//! End-to-end storage deployment, generic over the execution substrate:
//! builds servers, the writer and readers over a refined quorum system,
//! drives whole operations, and collects [`OpRecord`]s for atomicity
//! checking and latency reporting.
//!
//! [`StorageDeployment`] is written once against
//! [`Substrate`] and therefore runs unchanged on the
//! deterministic simulator ([`StorageHarness`] is the
//! `StorageDeployment<World<StorageMsg>>` alias, with extra sim-only
//! scripting methods) and on the threaded runtime
//! (`StorageDeployment<rqs_runtime::Runtime<StorageMsg>>`). Fault
//! injection goes through a declarative [`Scenario`], which compiles to a
//! fate policy on the simulator and is decided in the send path on the
//! runtime.

use crate::atomicity::{AtomicityViolation, OpKind, OpRecord};
use crate::byzantine::ForgedServer;
use crate::checker::{AtomicityChecker, CheckerStats};
use crate::messages::StorageMsg;
use crate::reader::{ReadOutcome, Reader};
use crate::server::Server;
use crate::value::Value;
use crate::writer::{WriteOutcome, Writer};
use rqs_core::{ProcessSet, Rqs};
use rqs_sim::{
    Automaton, CrashMode, NodeId, Scenario, Substrate, SubstrateConfig, Time, World,
    DEFAULT_AWAIT_STEPS,
};
use rqs_store::{StoreHandle, StoreStats};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// A storage deployment on any [`Substrate`].
///
/// # Examples
///
/// ```
/// use rqs_core::threshold::ThresholdConfig;
/// use rqs_storage::StorageHarness;
///
/// // The §1.2 system: 5 servers, t = 2 crash faults, fast path at 4.
/// let rqs = ThresholdConfig::crash_fast(5, 1).build()?;
/// let mut h = StorageHarness::new(rqs, 1);
/// let w = h.write(7u64.into());
/// assert_eq!(w.rounds, 1);
/// let r = h.read(0);
/// assert_eq!(r.returned.val, 7u64.into());
/// assert_eq!(r.rounds, 1);
/// h.check_atomicity()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct StorageDeployment<S: Substrate<StorageMsg>> {
    sub: S,
    rqs: Arc<Rqs>,
    servers: Vec<NodeId>,
    writer: NodeId,
    readers: Vec<NodeId>,
    ops: Vec<OpRecord>,
    /// Streaming checker fed as operations are harvested: violations are
    /// visible at op arrival, without rescanning `ops`.
    checker: AtomicityChecker,
    /// Harvest cursor into the writer's outcome log.
    harvested_writes: usize,
    /// Harvest cursor into each reader's outcome log.
    harvested_reads: Vec<usize>,
    /// Timestamps fed to the checker as in-flight (far-future) writes.
    open_writes: BTreeSet<u64>,
    /// Per-server durable stores (empty for volatile deployments).
    stores: Vec<StoreHandle>,
}

/// The simulated storage deployment (back-compat alias): the same driver
/// instantiated on the deterministic [`World`].
pub type StorageHarness = StorageDeployment<World<StorageMsg>>;

impl<S: Substrate<StorageMsg>> StorageDeployment<S> {
    /// Builds a fault-free deployment with `readers` reader clients.
    pub fn new(rqs: Rqs, readers: usize) -> Self {
        Self::with_scenario(rqs, readers, Scenario::default())
    }

    /// Builds a deployment under a fault scenario (partitions, lossy or
    /// duplicating links, crash-restart plans, Byzantine swap-ins — the
    /// scenario's `byzantine` indices become forging servers).
    pub fn with_scenario(rqs: Rqs, readers: usize, scenario: Scenario) -> Self {
        Self::with_setup(rqs, readers, scenario, rqs_sim::DEFAULT_TICK)
    }

    /// Builds with a scenario and an explicit wall-clock tick length
    /// (ignored by the simulator).
    pub fn with_setup(rqs: Rqs, readers: usize, scenario: Scenario, tick: Duration) -> Self {
        Self::with_setup_stores(rqs, readers, scenario, tick, Vec::new())
    }

    /// Builds a durable deployment under a fault scenario: every server
    /// journals to a fresh deterministic in-memory store, so the
    /// scenario may use [`CrashMode::Amnesia`] crash plans.
    pub fn durable_with_scenario(rqs: Rqs, readers: usize, scenario: Scenario) -> Self {
        let stores = (0..rqs.universe_size())
            .map(|_| StoreHandle::mem())
            .collect();
        Self::with_setup_stores(rqs, readers, scenario, rqs_sim::DEFAULT_TICK, stores)
    }

    /// Builds with explicit per-server stores (`stores[i]` backs server
    /// `i`; servers beyond the vector stay volatile) — the seam the
    /// threaded chaos experiment uses to hand in file-backed stores.
    pub fn with_setup_stores(
        rqs: Rqs,
        readers: usize,
        scenario: Scenario,
        tick: Duration,
        stores: Vec<StoreHandle>,
    ) -> Self {
        let rqs = Arc::new(rqs);
        let n = rqs.universe_size();
        let server_ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let byzantine = scenario.byzantine.clone();
        let mut nodes: Vec<Box<dyn Automaton<StorageMsg> + Send>> = Vec::new();
        for i in 0..n {
            nodes.push(match stores.get(i) {
                Some(s) => Box::new(Server::with_store(s.clone())),
                None => Box::new(Server::new()),
            });
        }
        nodes.push(Box::new(Writer::new(rqs.clone(), server_ids.clone())));
        for _ in 0..readers {
            nodes.push(Box::new(Reader::new(rqs.clone(), server_ids.clone())));
        }
        let config = SubstrateConfig::new(nodes).scenario(scenario).tick(tick);
        let mut sub = S::build(config);
        for idx in byzantine {
            sub.replace_node(server_ids[idx], Box::new(ForgedServer::initial_state()));
        }
        StorageDeployment {
            sub,
            rqs,
            servers: server_ids,
            writer: NodeId(n),
            readers: (n + 1..n + 1 + readers).map(NodeId).collect(),
            ops: Vec::new(),
            checker: AtomicityChecker::new(),
            harvested_writes: 0,
            harvested_reads: vec![0; readers],
            open_writes: BTreeSet::new(),
            stores,
        }
    }

    /// The underlying substrate (crash injection, stats, scripting).
    pub fn substrate(&mut self) -> &mut S {
        &mut self.sub
    }

    /// The refined quorum system in use.
    pub fn rqs(&self) -> &Arc<Rqs> {
        &self.rqs
    }

    /// Node ids of the servers (universe order).
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Node id of the writer.
    pub fn writer_id(&self) -> NodeId {
        self.writer
    }

    /// Node id of reader `i`.
    pub fn reader_id(&self, i: usize) -> NodeId {
        self.readers[i]
    }

    /// Crashes a set of servers (given as universe indices) immediately.
    pub fn crash_servers(&mut self, faulty: ProcessSet) {
        for p in faulty.iter() {
            self.sub.crash(self.servers[p.index()]);
        }
    }

    /// Restarts a set of crashed servers with their retained state.
    pub fn restart_servers(&mut self, healed: ProcessSet) {
        for p in healed.iter() {
            self.sub.restart(self.servers[p.index()]);
        }
    }

    /// Crashes a set of servers with amnesia: on restart each rebuilds
    /// from its durable store only. Meaningful on durable deployments;
    /// volatile servers come back empty.
    pub fn crash_servers_amnesia(&mut self, faulty: ProcessSet) {
        for p in faulty.iter() {
            self.sub
                .crash_with(self.servers[p.index()], CrashMode::Amnesia);
        }
    }

    /// The per-server durable stores (empty for volatile deployments).
    pub fn server_stores(&self) -> &[StoreHandle] {
        &self.stores
    }

    /// Merged store counters across all servers.
    pub fn store_stats(&self) -> StoreStats {
        let mut acc = StoreStats::default();
        for s in &self.stores {
            acc.merge(&s.stats());
        }
        acc
    }

    /// Runs a complete `write(v)` and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the write cannot complete (no correct quorum).
    pub fn write(&mut self, v: Value) -> WriteOutcome {
        let writer = self.writer;
        let before = self
            .sub
            .inspect_on::<Writer, usize>(writer, |w| w.outcomes().len());
        self.sub
            .invoke_on::<Writer>(writer, move |w, ctx| w.start_write(v, ctx));
        let done = self.sub.await_on::<Writer>(
            writer,
            move |w| w.outcomes().len() > before,
            DEFAULT_AWAIT_STEPS,
        );
        assert!(done, "write did not complete (no correct quorum?)");
        let out = self
            .sub
            .inspect_on::<Writer, WriteOutcome>(writer, move |w| w.outcomes()[before].clone());
        self.harvest();
        out
    }

    /// Runs a complete `read()` by reader `i`.
    ///
    /// # Panics
    ///
    /// Panics if the read cannot complete.
    pub fn read(&mut self, i: usize) -> ReadOutcome {
        let node = self.readers[i];
        let before = self
            .sub
            .inspect_on::<Reader, usize>(node, |r| r.outcomes().len());
        self.sub
            .invoke_on::<Reader>(node, |r, ctx| r.start_read(ctx));
        let done = self.sub.await_on::<Reader>(
            node,
            move |r| r.outcomes().len() > before,
            DEFAULT_AWAIT_STEPS,
        );
        assert!(done, "read did not complete (no correct quorum?)");
        let out = self
            .sub
            .inspect_on::<Reader, ReadOutcome>(node, move |r| r.outcomes()[before].clone());
        self.harvest();
        out
    }

    /// Starts a write without waiting for completion (for contention /
    /// partial-write scenarios).
    pub fn start_write(&mut self, v: Value) {
        self.sub
            .invoke_on::<Writer>(self.writer, move |w, ctx| w.start_write(v, ctx));
    }

    /// Starts a read without waiting for completion.
    pub fn start_read(&mut self, i: usize) {
        let node = self.readers[i];
        self.sub
            .invoke_on::<Reader>(node, |r, ctx| r.start_read(ctx));
    }

    /// Collects completed-but-unrecorded operations into the op log and
    /// streams them into the incremental checker.
    ///
    /// Each node's outcome log is read past a per-node cursor, so a
    /// harvest costs O(new ops), and every new record is fed to the
    /// [`AtomicityChecker`] at that moment — a violation is observable
    /// via [`checker_violation`](Self::checker_violation) as soon as the
    /// offending operation completes, without rescanning the history.
    ///
    /// An invoked-but-incomplete write is recorded with a far-future
    /// response time: concurrent reads may legitimately return its value,
    /// and the checker must know the value was genuinely written. When
    /// that write later completes, its record (in `ops` and in the
    /// checker) is upgraded in place with the real completion time.
    pub fn harvest(&mut self) {
        let writer = self.writer;
        // The in-flight write first: reads harvested in the same pass may
        // legitimately return its value.
        if let Some((ts, val, invoked_at)) = self
            .sub
            .inspect_on::<Writer, Option<(u64, Value, Time)>>(writer, |w| w.in_progress())
        {
            if self.open_writes.insert(ts) {
                let rec = OpRecord {
                    kind: OpKind::Write,
                    client: self.writer.index(),
                    pair: crate::value::TsVal::new(ts, val),
                    invoked_at,
                    completed_at: Time::FAR_FUTURE,
                };
                self.checker.observe_open_write(&rec);
                self.ops.push(rec);
            }
        }
        let from = self.harvested_writes;
        let writer_outs = self
            .sub
            .inspect_on::<Writer, Vec<WriteOutcome>>(writer, move |w| {
                w.outcomes()[from..].to_vec()
            });
        self.harvested_writes += writer_outs.len();
        for out in writer_outs {
            let rec = OpRecord {
                kind: OpKind::Write,
                client: self.writer.index(),
                pair: crate::value::TsVal::new(out.ts, out.val.clone()),
                invoked_at: out.invoked_at,
                completed_at: out.completed_at,
            };
            self.checker.observe(&rec);
            if self.open_writes.remove(&out.ts) {
                if let Some(o) = self
                    .ops
                    .iter_mut()
                    .rev()
                    .find(|o| o.kind == OpKind::Write && o.pair.ts == out.ts)
                {
                    *o = rec;
                }
            } else {
                self.ops.push(rec);
            }
        }
        for (i, node) in self.readers.clone().into_iter().enumerate() {
            let from = self.harvested_reads[i];
            let outs = self
                .sub
                .inspect_on::<Reader, Vec<ReadOutcome>>(node, move |r| {
                    r.outcomes()[from..].to_vec()
                });
            self.harvested_reads[i] += outs.len();
            for out in outs {
                let rec = OpRecord {
                    kind: OpKind::Read,
                    client: node.index(),
                    pair: out.returned.clone(),
                    invoked_at: out.invoked_at,
                    completed_at: out.completed_at,
                };
                self.checker.observe(&rec);
                self.ops.push(rec);
            }
        }
    }

    /// The operation log collected so far.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// The first definite violation streamed so far (without declaring
    /// the history complete — reads still waiting for their source write
    /// do not count). Cheap: no rescan.
    pub fn checker_violation(&self) -> Option<&AtomicityViolation> {
        self.checker.violation()
    }

    /// Counters of the embedded streaming checker.
    pub fn checker_stats(&self) -> CheckerStats {
        self.checker.stats()
    }

    /// Checks the collected operation log (after harvesting completed and
    /// pending operations) for atomicity.
    ///
    /// The verdict is read off the streaming checker — the history was
    /// validated as it was harvested, so this costs O(new ops), not
    /// O(history²).
    ///
    /// # Errors
    ///
    /// Returns the first [`AtomicityViolation`] found.
    pub fn check_atomicity(&mut self) -> Result<(), AtomicityViolation> {
        self.harvest();
        self.checker.verdict()
    }

    /// Stops the substrate (a no-op on the simulator).
    pub fn shutdown(&mut self) {
        self.sub.shutdown();
    }
}

/// Simulator-only scripting surface: direct [`World`] access, scripted
/// network policies, Byzantine substitution with non-`Send` scripted
/// automatons, and quiescence-based settling.
impl StorageHarness {
    /// The underlying world (crash injection, Byzantine substitution,
    /// fate policies, trace inspection).
    pub fn world_mut(&mut self) -> &mut World<StorageMsg> {
        &mut self.sub
    }

    /// Replaces a server with a Byzantine automaton (simulator only: the
    /// scripted forgers need not be `Send`; on other substrates use a
    /// [`Scenario`]'s `byzantine` list or `Substrate::replace_node`).
    pub fn make_byzantine(&mut self, server_idx: usize, node: Box<dyn Automaton<StorageMsg>>) {
        let id = self.servers[server_idx];
        self.sub.replace_node(id, node);
    }

    /// Runs the world until quiescence and harvests any operations that
    /// completed since the last harvest.
    pub fn settle(&mut self) {
        self.sub.run_to_quiescence();
        self.harvest();
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sub.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_core::threshold::ThresholdConfig;

    fn five_server() -> StorageHarness {
        StorageHarness::new(ThresholdConfig::crash_fast(5, 1).build().unwrap(), 2)
    }

    #[test]
    fn sequential_workload_atomic() {
        let mut h = five_server();
        for v in 1..=5u64 {
            let w = h.write(Value::from(v));
            assert_eq!(w.rounds, 1);
            let r = h.read(0);
            assert_eq!(r.returned.val, Value::from(v));
        }
        h.check_atomicity().unwrap();
        assert_eq!(h.ops().len(), 10);
    }

    #[test]
    fn two_readers_no_inversion() {
        let mut h = five_server();
        h.write(Value::from(10u64));
        let r1 = h.read(0);
        let r2 = h.read(1);
        assert_eq!(r1.returned, r2.returned);
        h.check_atomicity().unwrap();
    }

    #[test]
    fn graceful_degradation_with_crashes() {
        let mut h = five_server();
        h.write(Value::from(1u64));
        // Crash two servers: every class-1 quorum (any 4 of 5) dies.
        h.crash_servers(ProcessSet::from_indices([3, 4]));
        let w = h.write(Value::from(2u64));
        assert_eq!(w.rounds, 2, "class-2 path");
        let r = h.read(0);
        assert_eq!(r.returned.val, Value::from(2u64));
        assert!(r.rounds <= 2);
        h.check_atomicity().unwrap();
    }

    #[test]
    fn crash_then_restart_restores_fast_path() {
        let mut h = five_server();
        h.crash_servers(ProcessSet::from_indices([3, 4]));
        assert_eq!(h.write(Value::from(1u64)).rounds, 2);
        h.restart_servers(ProcessSet::from_indices([3, 4]));
        // All 5 back: class-1 quorum (4 acks) available again.
        assert_eq!(h.write(Value::from(2u64)).rounds, 1);
        h.check_atomicity().unwrap();
    }

    #[test]
    fn byzantine_threshold_system_runs() {
        // n = 3t+1 = 4, k = t = 1.
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = StorageHarness::new(rqs, 1);
        let w = h.write(Value::from(77u64));
        assert_eq!(w.rounds, 1, "all 4 servers correct: class-1 fast path");
        let r = h.read(0);
        assert_eq!(r.returned.val, Value::from(77u64));
        h.check_atomicity().unwrap();
    }

    #[test]
    fn scenario_byzantine_swap_in_tolerated() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let scenario = Scenario::named("byz").with_byzantine(0);
        let mut h = StorageHarness::with_scenario(rqs, 1, scenario);
        h.write(Value::from(5u64));
        let r = h.read(0);
        assert_eq!(r.returned.val, Value::from(5u64));
        h.check_atomicity().unwrap();
    }

    #[test]
    fn amnesia_crash_recovers_from_stores() {
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut h = StorageHarness::durable_with_scenario(rqs, 2, Scenario::default());
        h.write(Value::from(1u64));
        h.write(Value::from(2u64));
        // Amnesia-crash two servers, restart: they rebuild from WAL.
        h.crash_servers_amnesia(ProcessSet::from_indices([3, 4]));
        h.settle();
        h.restart_servers(ProcessSet::from_indices([3, 4]));
        h.settle();
        let r = h.read(0);
        assert_eq!(r.returned.val, Value::from(2u64));
        // Recovered servers hold the acked writes again.
        for idx in [3usize, 4] {
            let id = h.servers()[idx];
            let holds = h
                .world_mut()
                .node_as::<Server>(id)
                .history()
                .stores(&crate::value::TsVal::new(2, Value::from(2u64)), 1);
            assert!(holds, "server {idx} must recover acked writes");
        }
        h.check_atomicity().unwrap();
        let stats = h.store_stats();
        assert!(stats.appends >= 4, "write-ahead appends recorded");
        assert_eq!(stats.crashes, 2);
        assert!(stats.replayed > 0, "recovery replayed log records");
    }

    #[test]
    fn amnesia_without_wal_would_lose_state_but_volatile_retain_keeps_it() {
        // Control: a Retain crash/restart keeps in-memory state even
        // without stores — the two modes genuinely differ.
        let mut h = five_server();
        h.write(Value::from(9u64));
        h.crash_servers(ProcessSet::from_indices([4]));
        h.settle();
        h.restart_servers(ProcessSet::from_indices([4]));
        h.settle();
        let id = h.servers()[4];
        assert!(!h.world_mut().node_as::<Server>(id).history().is_empty());
    }

    #[test]
    fn harvest_picks_up_settled_ops() {
        let mut h = five_server();
        h.start_write(Value::from(5u64));
        h.settle();
        assert_eq!(h.ops().len(), 1);
        // harvest is idempotent
        h.harvest();
        assert_eq!(h.ops().len(), 1);
    }
}
