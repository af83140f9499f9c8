//! The one KV deployment driver, generic over the execution substrate.
//!
//! [`KvDeployment`] builds one [`KvServer`] per universe member and
//! `clients` [`KvClient`]s owning disjoint object ranges, drives a
//! generated workload in batched waves, and checks *every per-object
//! history* against the single-register atomicity checker — atomicity is
//! a local (per-object) property, so the multi-object service is correct
//! iff each object's history is.
//!
//! The driver is written once against [`Substrate`]; the historical
//! deployment types are aliases of it:
//!
//! - [`KvSim`] = `KvDeployment<World<KvBatch>>` — deterministic
//!   simulation, byte-identical traces per seed;
//! - [`RtKv`] = `KvDeployment<Runtime<KvBatch>>` — node-per-thread over
//!   channels, real wall-clock latency.
//!
//! Fault injection goes through a declarative
//! [`Scenario`]: partitions with heal times, lossy or
//! duplicating links, crash-restart plans and Byzantine swap-ins run on
//! *both* substrates from the same description.

use crate::client::{KvClient, KvOp, KvOutcome, RetryStats};
use crate::messages::KvBatch;
use crate::metrics::KvRunStats;
use crate::object::{ObjectId, ShardMap};
use crate::server::{ByzantineMode, KvByzantineServer, KvServer};
use crate::workload::{per_client, take_wave_depth, WorkloadOp};
use rqs_core::Rqs;
use rqs_obs::{classify, dump_json, NopTracer, Obs, ObsHandle, TraceEvent};
use rqs_runtime::Runtime;
use rqs_sim::{
    Automaton, CrashMode, NodeId, Scenario, Substrate, SubstrateConfig, World, DEFAULT_AWAIT_STEPS,
};
use rqs_storage::atomicity::{AtomicityViolation, OpRecord};
use rqs_storage::checker::{AtomicityChecker, CheckerStats};
use rqs_store::{StoreHandle, StoreStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// An atomicity violation on one object of the KV service.
#[derive(Clone, Debug)]
pub struct KvAtomicityViolation {
    /// The object whose history is not linearizable.
    pub object: ObjectId,
    /// The underlying single-register violation.
    pub violation: AtomicityViolation,
}

impl core::fmt::Display for KvAtomicityViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "object {}: {}", self.object, self.violation)
    }
}

impl std::error::Error for KvAtomicityViolation {}

/// One crash-to-restart window in protocol ticks (`end == None` while
/// the node is still down), used to attribute slow ops to recovery or
/// server failure.
#[derive(Clone, Copy, Debug)]
struct FaultWindow {
    node: usize,
    start: u64,
    end: Option<u64>,
}

/// A KV deployment on any [`Substrate`].
pub struct KvDeployment<S: Substrate<KvBatch>> {
    sub: S,
    shard: ShardMap,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// `(client index, outcome)` pairs harvested after each run (empty
    /// when `retain_outcomes(false)` keeps memory flat on soak runs).
    completed: Vec<(usize, KvOutcome)>,
    /// Per-client harvest cursors into the clients' outcome logs.
    harvested: Vec<usize>,
    /// One streaming atomicity checker per object, fed at every wave
    /// boundary and retired to the settled horizon (bounded memory).
    checkers: BTreeMap<ObjectId, AtomicityChecker>,
    /// Whether harvested outcomes are kept in `completed`.
    retain_outcomes: bool,
    /// Per-server durable stores (empty for volatile deployments).
    stores: Vec<StoreHandle>,
    /// Shared structured-trace sink (the zero-overhead [`NopTracer`]
    /// unless the deployment was built with
    /// [`with_setup_traced`](Self::with_setup_traced)).
    tracer: ObsHandle,
    /// Crash windows (scenario plans plus manual crash/restart calls)
    /// that slow-path attribution overlaps op windows against.
    fault_windows: Vec<FaultWindow>,
    /// Per-lane pipeline depth driven into every client (1 = classic
    /// one-op-per-lane waves).
    pipeline: usize,
}

/// The deterministic simulated KV deployment (back-compat alias).
pub type KvSim = KvDeployment<World<KvBatch>>;

/// The threaded KV deployment (back-compat alias).
pub type RtKv = KvDeployment<Runtime<KvBatch>>;

impl<S: Substrate<KvBatch>> KvDeployment<S> {
    /// Builds a fault-free deployment: one multi-object server per
    /// universe member, `clients` clients owning `objects` objects
    /// round-robin.
    pub fn new(rqs: Rqs, objects: usize, clients: usize) -> Self {
        Self::with_scenario(rqs, objects, clients, Scenario::default())
    }

    /// Builds a deployment under a fault scenario; the scenario's
    /// `byzantine` indices become forging Byzantine servers.
    pub fn with_scenario(rqs: Rqs, objects: usize, clients: usize, scenario: Scenario) -> Self {
        Self::with_setup(rqs, objects, clients, scenario, rqs_sim::DEFAULT_TICK)
    }

    /// Builds with a scenario and an explicit wall-clock tick length
    /// (ignored by the simulator).
    pub fn with_setup(
        rqs: Rqs,
        objects: usize,
        clients: usize,
        scenario: Scenario,
        tick: Duration,
    ) -> Self {
        Self::with_setup_stores(rqs, objects, clients, scenario, tick, Vec::new())
    }

    /// Builds a durable deployment: every server journals all objects to
    /// a fresh deterministic in-memory store, so the scenario may use
    /// [`CrashMode::Amnesia`] crash plans.
    pub fn durable_with_scenario(
        rqs: Rqs,
        objects: usize,
        clients: usize,
        scenario: Scenario,
    ) -> Self {
        let stores = (0..rqs.universe_size())
            .map(|_| StoreHandle::mem())
            .collect();
        Self::with_setup_stores(
            rqs,
            objects,
            clients,
            scenario,
            rqs_sim::DEFAULT_TICK,
            stores,
        )
    }

    /// Builds with explicit per-server stores (`stores[i]` backs server
    /// `i`; servers beyond the vector stay volatile) — the seam the
    /// threaded chaos experiment uses to hand in file-backed stores.
    pub fn with_setup_stores(
        rqs: Rqs,
        objects: usize,
        clients: usize,
        scenario: Scenario,
        tick: Duration,
        stores: Vec<StoreHandle>,
    ) -> Self {
        Self::with_setup_traced(
            rqs,
            objects,
            clients,
            scenario,
            tick,
            stores,
            Arc::new(NopTracer),
        )
    }

    /// Builds with explicit stores **and** a structured-trace sink: the
    /// substrate (deliver/drop, crash/recover), the servers' durable
    /// stores (WAL appends, fsyncs) and every client lane (op lifecycle,
    /// rounds, quorums, retry nudges) emit [`TraceEvent`]s into `tracer`.
    pub fn with_setup_traced(
        rqs: Rqs,
        objects: usize,
        clients: usize,
        scenario: Scenario,
        tick: Duration,
        stores: Vec<StoreHandle>,
        tracer: ObsHandle,
    ) -> Self {
        let rqs = Arc::new(rqs);
        let shard = ShardMap::new(objects, clients);
        let n = rqs.universe_size();
        let server_ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let byzantine = scenario.byzantine.clone();
        let fault_windows = scenario
            .crashes
            .iter()
            .map(|p| FaultWindow {
                node: p.node,
                start: p.at,
                end: p.restart_at,
            })
            .collect();
        for (i, s) in stores.iter().enumerate() {
            s.set_obs(Obs::new(tracer.clone(), i as u64));
        }
        let mut nodes: Vec<Box<dyn Automaton<KvBatch> + Send>> = Vec::new();
        for i in 0..n {
            nodes.push(match stores.get(i) {
                Some(s) => Box::new(KvServer::with_store(s.clone())),
                None => Box::new(KvServer::new()),
            });
        }
        for c in 0..clients {
            let mut client = KvClient::new(rqs.clone(), server_ids.clone(), shard.owned_by(c));
            client.set_obs(Obs::new(tracer.clone(), 0));
            nodes.push(Box::new(client));
        }
        let config = SubstrateConfig::new(nodes)
            .scenario(scenario)
            .sizer(|b: &KvBatch| b.len() as u64)
            .tick(tick)
            .tracer(tracer.clone());
        let mut sub = S::build(config);
        for &idx in &byzantine {
            sub.replace_node(
                server_ids[idx],
                Box::new(KvByzantineServer::new(ByzantineMode::Forge)),
            );
        }
        KvDeployment {
            sub,
            shard,
            servers: server_ids,
            clients: (n..n + clients).map(NodeId).collect(),
            completed: Vec::new(),
            harvested: vec![0; clients],
            checkers: BTreeMap::new(),
            retain_outcomes: true,
            stores,
            tracer,
            fault_windows,
            pipeline: 1,
        }
    }

    /// The retained tail of the deployment's trace sink (empty for the
    /// default [`NopTracer`]).
    pub fn obs_events(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    /// Controls whether harvested outcomes accumulate in
    /// [`completed`](Self::completed) (default `true`). Soak runs switch
    /// this off: the streaming checkers keep validating every operation,
    /// but driver memory stays O(wave), not O(history). With retention
    /// off, [`per_object_records`](Self::per_object_records) and
    /// [`op_trace`](Self::op_trace) only see retained history.
    pub fn retain_outcomes(&mut self, retain: bool) {
        self.retain_outcomes = retain;
    }

    /// The shard map in use.
    pub fn shard(&self) -> &ShardMap {
        &self.shard
    }

    /// Node ids of the servers (universe order).
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// The underlying substrate (crash injection, stats, scripting).
    pub fn substrate(&mut self) -> &mut S {
        &mut self.sub
    }

    /// Replaces server `idx` with a Byzantine automaton behaving per
    /// `mode` on every object — on either substrate.
    pub fn make_byzantine(&mut self, idx: usize, mode: ByzantineMode) {
        self.sub
            .replace_node(self.servers[idx], Box::new(KvByzantineServer::new(mode)));
    }

    /// Crashes server `idx` in the given [`CrashMode`] (amnesia requires
    /// a durable deployment or the server restarts empty).
    pub fn crash_server(&mut self, idx: usize, mode: CrashMode) {
        self.fault_windows.push(FaultWindow {
            node: idx,
            start: self.sub.now_ticks().ticks(),
            end: None,
        });
        self.sub.crash_with(self.servers[idx], mode);
    }

    /// Restarts a crashed server.
    pub fn restart_server(&mut self, idx: usize) {
        let now = self.sub.now_ticks().ticks();
        if let Some(w) = self
            .fault_windows
            .iter_mut()
            .rev()
            .find(|w| w.node == idx && w.end.is_none())
        {
            w.end = Some(now);
        }
        self.sub.restart(self.servers[idx]);
    }

    /// Installs a compacting snapshot of server `idx`'s full object bank
    /// into its durable store, truncating its write-ahead log — the
    /// checkpoint that keeps the next recovery's replay bounded by the
    /// deltas since the last checkpoint instead of the full run. No-op
    /// on volatile deployments.
    pub fn checkpoint_server(&mut self, idx: usize) {
        self.sub
            .invoke_on::<KvServer>(self.servers[idx], |s, _| s.save_state());
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

    /// Sets the per-lane pipeline depth of every client (call before
    /// running a workload). Waves grow to `batch × depth` operations so
    /// the extra in-flight slots are actually used; depth 1 is the
    /// classic one-op-per-lane wave.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn set_pipeline(&mut self, depth: usize) {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline = depth;
        for &c in &self.clients.clone() {
            self.sub
                .invoke_on::<KvClient>(c, move |k, _| k.set_pipeline(depth));
        }
    }

    /// The pipeline depth in force.
    pub fn pipeline(&self) -> usize {
        self.pipeline
    }

    /// Merged client retry counters (cumulative over the deployment's
    /// lifetime).
    pub fn retry_stats(&self) -> RetryStats {
        let mut acc = RetryStats::default();
        for &c in &self.clients {
            let s = self
                .sub
                .inspect_on::<KvClient, RetryStats>(c, |k| k.retry_stats());
            acc.merge(&s);
        }
        acc
    }

    /// Drives a workload to completion in waves of at most `batch`
    /// operations per client, returning run metrics.
    ///
    /// Within a wave each client launches its next `batch` operations in
    /// a single step (so their round-1 messages share envelopes), with at
    /// most one in-flight operation per `(object, lane)` — the
    /// well-formedness the single-object automata require. Cross-client
    /// contention (reads racing the owner's writes) is preserved. With
    /// [`set_pipeline`](Self::set_pipeline) above 1, waves grow to
    /// `batch × depth` ops and up to `depth` per lane ride each wave (the
    /// clients backlog all but the first and stream them out in program
    /// order as predecessors complete).
    ///
    /// `duration_units` of the returned stats is simulated ticks on the
    /// simulator and wall-clock microseconds on the threaded runtime.
    ///
    /// # Panics
    ///
    /// Panics if the workload cannot complete (no correct quorum) or if
    /// `batch == 0`.
    pub fn run_workload(&mut self, ops: &[WorkloadOp], batch: usize) -> KvRunStats {
        assert!(batch > 0, "batch size must be positive");
        let mut queues: Vec<VecDeque<KvOp>> = per_client(self.clients.len(), ops)
            .into_iter()
            .map(VecDeque::from)
            .collect();
        let units_before = self.sub.elapsed_units();
        let net_before = self.sub.stats();
        let retries_before = self.retry_stats();

        let mut stats = KvRunStats::default();
        let wave_cap = batch.saturating_mul(self.pipeline);
        loop {
            let mut launched = false;
            for (ci, queue) in queues.iter_mut().enumerate() {
                let wave = take_wave_depth(queue, wave_cap, self.pipeline);
                if !wave.is_empty() {
                    launched = true;
                    self.sub
                        .invoke_on::<KvClient>(self.clients[ci], move |c, ctx| {
                            c.start_ops(wave, ctx)
                        });
                }
            }
            if !launched {
                break;
            }
            for &c in &self.clients {
                let done =
                    self.sub
                        .await_on::<KvClient>(c, |k| k.in_flight() == 0, DEFAULT_AWAIT_STEPS);
                if !done {
                    // Before panicking, dump the stuck inner automata as
                    // one structured JSON report with the flight-recorder
                    // tail attached: the rounds and ack sets say which
                    // servers went silent, the watchdog lines what the
                    // client did about it, and the recorded deliver/drop
                    // history says why.
                    let now = self.sub.now_ticks();
                    let lanes = self
                        .sub
                        .inspect_on::<KvClient, Vec<String>>(c, move |k| k.stuck_lanes(now));
                    let details = [("client", c.0.to_string()), ("lanes", lanes.join(" | "))];
                    eprintln!(
                        "{}",
                        dump_json("stuck-lanes", &details, &self.tracer.snapshot())
                    );
                }
                assert!(done, "KV wave did not complete (no correct quorum?)");
            }
            // Streaming validation: harvest and check the wave *now*,
            // then retire everything the quiescent point proves ordered.
            self.harvest_wave(&mut stats);
        }

        let net_after = self.sub.stats();
        stats.duration_units = (self.sub.elapsed_units() - units_before).max(1);
        stats.envelopes = (net_after.envelopes - net_before.envelopes) as usize;
        stats.items = (net_after.items - net_before.items) as usize;
        for c in self.checkers.values() {
            stats.checker.merge(&c.stats());
        }
        let retries_after = self.retry_stats();
        stats.retries = RetryStats {
            retries_issued: retries_after.retries_issued - retries_before.retries_issued,
            backoff_ticks: retries_after.backoff_ticks - retries_before.backoff_ticks,
        };
        stats
    }

    /// Harvests every client's new outcomes into the run stats and the
    /// per-object streaming checkers, then advances each checker's
    /// retirement watermark: the wave boundary is a quiescent point, so
    /// every future operation is invoked at or after any completion seen
    /// so far.
    fn harvest_wave(&mut self, stats: &mut KvRunStats) {
        for (ci, &node) in self.clients.clone().iter().enumerate() {
            let skip = self.harvested[ci];
            let outs = self
                .sub
                .inspect_on::<KvClient, Vec<KvOutcome>>(node, move |k| {
                    k.outcomes()[skip..].to_vec()
                });
            self.harvested[ci] += outs.len();
            for out in outs {
                stats.record_outcome(&out);
                let (inv, comp) = (out.invoked_at.ticks(), out.completed_at.ticks());
                let mut in_recovery = false;
                let mut in_failure = false;
                for w in &self.fault_windows {
                    if inv < w.end.unwrap_or(u64::MAX) && comp >= w.start {
                        match w.end {
                            Some(_) => in_recovery = true,
                            None => in_failure = true,
                        }
                    }
                }
                stats.attribution.record(classify(
                    out.kind == rqs_storage::OpKind::Read,
                    out.rounds as u32,
                    out.retries,
                    in_recovery,
                    in_failure,
                    out.queued_ticks > 0,
                ));
                let rec = OpRecord {
                    kind: out.kind,
                    client: ci,
                    pair: out.pair.clone(),
                    invoked_at: out.invoked_at,
                    completed_at: out.completed_at,
                };
                self.checkers.entry(out.object).or_default().observe(&rec);
                if self.retain_outcomes {
                    self.completed.push((ci, out));
                }
            }
        }
        for c in self.checkers.values_mut() {
            c.retire_settled();
        }
    }

    /// Aggregated counters of the per-object streaming checkers.
    pub fn checker_stats(&self) -> CheckerStats {
        let mut agg = CheckerStats::default();
        for c in self.checkers.values() {
            agg.merge(&c.stats());
        }
        agg
    }

    /// All completed operations so far, as `(client, outcome)` pairs.
    pub fn completed(&self) -> &[(usize, KvOutcome)] {
        &self.completed
    }

    /// The per-object operation logs (for checking or inspection).
    pub fn per_object_records(&self) -> BTreeMap<ObjectId, Vec<OpRecord>> {
        let mut map: BTreeMap<ObjectId, Vec<OpRecord>> = BTreeMap::new();
        for (ci, out) in &self.completed {
            map.entry(out.object).or_default().push(OpRecord {
                kind: out.kind,
                client: *ci,
                pair: out.pair.clone(),
                invoked_at: out.invoked_at,
                completed_at: out.completed_at,
            });
        }
        map
    }

    /// Checks every object's history for atomicity by reading the
    /// verdicts of the streaming checkers that validated each wave as it
    /// completed — O(objects), no history rescan. Works on both
    /// substrates: wall-clock invocation/response ticks only widen the
    /// apparent concurrency windows, which never invalidates a real-time
    /// linearization.
    ///
    /// # Errors
    ///
    /// Returns the first violating object.
    pub fn check_atomicity(&self) -> Result<(), KvAtomicityViolation> {
        for (object, checker) in &self.checkers {
            if let Err(violation) = checker.verdict() {
                // Attach the flight-recorder tail as one structured JSON
                // report before surfacing the violation: the recorded
                // deliver/drop/crash history around the violating ops is
                // the first thing a post-mortem needs.
                let details = [
                    ("object", object.to_string()),
                    ("violation", violation.to_string()),
                ];
                eprintln!(
                    "{}",
                    dump_json("atomicity-violation", &details, &self.tracer.snapshot())
                );
                return Err(KvAtomicityViolation {
                    object: *object,
                    violation,
                });
            }
        }
        Ok(())
    }

    /// A canonical, human-readable operation trace: one line per
    /// completed operation in completion order per client. Two simulator
    /// runs with the same seed must produce byte-identical traces.
    pub fn op_trace(&self) -> Vec<String> {
        self.completed
            .iter()
            .map(|(ci, o)| {
                format!(
                    "c{} {} {} {} rounds={} [{},{}]",
                    ci,
                    match o.kind {
                        rqs_storage::OpKind::Write => "W",
                        rqs_storage::OpKind::Read => "R",
                    },
                    o.object,
                    o.pair,
                    o.rounds,
                    o.invoked_at,
                    o.completed_at,
                )
            })
            .collect()
    }

    /// Stops the substrate (a no-op on the simulator).
    pub fn shutdown(&mut self) {
        self.sub.shutdown();
    }
}

/// Simulator-only scripting surface.
impl KvSim {
    /// The underlying world (crash injection, tracing, inspection).
    pub fn world_mut(&mut self) -> &mut World<KvBatch> {
        &mut self.sub
    }

    /// Current simulated time in ticks.
    pub fn now_ticks(&self) -> u64 {
        self.sub.now().ticks()
    }
}

impl RtKv {
    /// Deploys on the threaded runtime with an explicit wall-clock tick
    /// length (back-compat constructor).
    pub fn with_tick(rqs: Rqs, objects: usize, clients: usize, tick: Duration) -> Self {
        Self::with_setup(rqs, objects, clients, Scenario::default(), tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use rqs_core::threshold::ThresholdConfig;
    use rqs_storage::OpKind;

    fn small_sim() -> KvSim {
        KvSim::new(ThresholdConfig::crash_fast(5, 1).build().unwrap(), 8, 2)
    }

    #[test]
    fn mixed_workload_completes_and_is_atomic() {
        let mut sim = small_sim();
        let cfg = WorkloadConfig::mixed(8, 2, 60, 11);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 60);
        assert!(stats.rounds.fast_path_ratio() > 0.5, "sync fast path");
        sim.check_atomicity().unwrap();
    }

    #[test]
    fn batching_reduces_envelopes_per_op() {
        let cfg = WorkloadConfig::mixed(8, 2, 64, 3);
        let ops = generate(&cfg);
        let run = |batch: usize| {
            let mut sim = small_sim();
            let stats = sim.run_workload(&ops, batch);
            sim.check_atomicity().unwrap();
            stats.envelopes_per_op()
        };
        let unbatched = run(1);
        let batched = run(8);
        assert!(
            batched < unbatched,
            "batch=8 ({batched:.2}) must beat batch=1 ({unbatched:.2})"
        );
    }

    #[test]
    fn reads_see_written_values() {
        let mut sim = small_sim();
        let cfg = WorkloadConfig {
            read_percent: 40,
            ..WorkloadConfig::mixed(8, 2, 80, 5)
        };
        sim.run_workload(&generate(&cfg), 4);
        sim.check_atomicity().unwrap();
        // Every non-initial read pair matches some write of that object.
        let per_object = sim.per_object_records();
        for records in per_object.values() {
            for r in records.iter().filter(|r| r.kind == OpKind::Read) {
                if !r.pair.is_initial() {
                    assert!(records
                        .iter()
                        .any(|w| w.kind == OpKind::Write && w.pair == r.pair));
                }
            }
        }
    }

    #[test]
    fn byzantine_server_tolerated() {
        let mut sim = KvSim::new(ThresholdConfig::byzantine_fast(1).build().unwrap(), 16, 4);
        sim.make_byzantine(0, ByzantineMode::Forge);
        let cfg = WorkloadConfig::mixed(16, 4, 96, 9);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 96);
        sim.check_atomicity().unwrap();
    }

    #[test]
    fn mute_byzantine_server_tolerated() {
        let mut sim = KvSim::new(ThresholdConfig::byzantine_fast(1).build().unwrap(), 8, 2);
        sim.make_byzantine(3, ByzantineMode::Mute);
        let cfg = WorkloadConfig::mixed(8, 2, 40, 13);
        let stats = sim.run_workload(&generate(&cfg), 2);
        assert_eq!(stats.ops, 40);
        sim.check_atomicity().unwrap();
    }

    #[test]
    fn scenario_byzantine_swap_in() {
        let scenario = Scenario::named("byz0").with_byzantine(0);
        let mut sim = KvSim::with_scenario(
            ThresholdConfig::byzantine_fast(1).build().unwrap(),
            8,
            2,
            scenario,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 40, 21);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 40);
        sim.check_atomicity().unwrap();
    }

    #[test]
    fn durable_sim_survives_amnesia_crash_plan() {
        let scenario = Scenario::named("amnesia").crash_restart_amnesia(1, 5, 15);
        let mut sim = KvSim::durable_with_scenario(
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            8,
            2,
            scenario,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 60, 11);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 60);
        sim.check_atomicity().unwrap();
        let store = sim.store_stats();
        assert_eq!(store.crashes, 1, "the amnesia restart hit the store");
        assert!(store.appends > 0, "servers journaled write-ahead deltas");
    }

    #[test]
    fn lossy_links_are_survived_by_client_retries() {
        // Every 2nd message touching any server is dropped, in both
        // directions, for the whole run. Without retries a round whose
        // quorum acks were thinned below a quorum would stall forever
        // (the protocol never resends); the client watchdogs nudge the
        // stuck rounds through. Ops must complete exactly once each.
        let scenario = Scenario::named("lossy").lossy_towards(vec![0, 1, 2, 3, 4], 2);
        let mut sim = KvSim::with_scenario(
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            8,
            2,
            scenario,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 40, 19);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 40, "retried ops complete exactly once");
        sim.check_atomicity().unwrap();
        assert!(
            stats.retries.retries_issued > 0,
            "the lossy run must actually have exercised retries"
        );
        assert!(stats.retries.backoff_ticks >= stats.retries.retries_issued);
        assert_eq!(sim.retry_stats(), stats.retries, "run delta == lifetime");
    }

    #[test]
    fn amnesia_crash_mid_run_is_survived_by_retries_and_wal() {
        // A server amnesia-crashes while traffic is in flight: acks it
        // owed die with it. Retries re-drive the affected rounds; the
        // WAL restores its history so atomicity holds across the restart.
        let scenario = Scenario::named("amnesia-retry").crash_restart_amnesia(2, 3, 9);
        let mut sim = KvSim::durable_with_scenario(
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            8,
            2,
            scenario,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 60, 29);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 60);
        sim.check_atomicity().unwrap();
        assert_eq!(sim.store_stats().crashes, 1);
    }

    #[test]
    fn trace_is_nonempty_and_tagged() {
        let mut sim = small_sim();
        let cfg = WorkloadConfig::mixed(8, 2, 10, 1);
        sim.run_workload(&generate(&cfg), 2);
        let trace = sim.op_trace();
        assert_eq!(trace.len(), 10);
        assert!(trace.iter().all(|l| l.starts_with('c')));
    }

    #[test]
    fn streaming_checker_memory_bounded_by_concurrency_not_history() {
        // Same deployment shape, 4x the ops: the checker frontier (peak
        // resident entries) must not scale with history length, and with
        // retention off the driver keeps no per-op state at all.
        let run = |ops: usize| {
            let mut sim = small_sim();
            sim.retain_outcomes(false);
            let cfg = WorkloadConfig::mixed(8, 2, ops, 7);
            let stats = sim.run_workload(&generate(&cfg), 4);
            sim.check_atomicity().unwrap();
            assert!(sim.completed().is_empty(), "outcomes not retained");
            stats
        };
        let small = run(80);
        let large = run(320);
        assert_eq!(small.checker.ops_checked, 80);
        assert_eq!(large.checker.ops_checked, 320);
        assert!(
            large.checker.max_frontier <= small.checker.max_frontier + 4,
            "frontier grew with history: {} vs {}",
            large.checker.max_frontier,
            small.checker.max_frontier
        );
        assert!(large.checker.retired_ops > 0, "retirement engaged");
        assert!(large.checker.retired_watermark > 0);
    }

    #[test]
    fn checker_stats_surface_through_run_stats() {
        let mut sim = small_sim();
        let cfg = WorkloadConfig::mixed(8, 2, 60, 11);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.checker.ops_checked, 60);
        assert_eq!(stats.latencies.len(), 60);
        assert!(stats.latency_percentile(99.0) >= stats.latency_percentile(50.0));
        assert_eq!(sim.checker_stats().ops_checked, 60);
    }

    #[test]
    fn threaded_kv_roundtrip() {
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut kv = RtKv::with_tick(rqs, 8, 2, Duration::from_millis(1));
        let cfg = WorkloadConfig::mixed(8, 2, 24, 17);
        let stats = kv.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 24);
        assert!(stats.throughput() > 0.0);
        assert!(stats.envelopes > 0, "runtime now counts envelopes too");
        kv.check_atomicity().unwrap();
        kv.shutdown();
    }

    #[test]
    fn trace_events_are_deterministic_per_seed() {
        use rqs_obs::Tracer;
        let run = || {
            let rec = Arc::new(rqs_obs::FlightRecorder::new(1 << 14));
            let mut sim = KvSim::with_setup_traced(
                ThresholdConfig::crash_fast(5, 1).build().unwrap(),
                8,
                2,
                Scenario::default(),
                rqs_sim::DEFAULT_TICK,
                Vec::new(),
                rec.clone(),
            );
            let cfg = WorkloadConfig::mixed(8, 2, 40, 11);
            sim.run_workload(&generate(&cfg), 4);
            rec.snapshot()
        };
        let a = run();
        assert!(!a.is_empty(), "a traced sim run must record events");
        assert_eq!(a, run(), "same seed, same event sequence");
    }

    #[test]
    fn traced_run_records_every_layer() {
        use rqs_obs::TraceKind;
        let rec = Arc::new(rqs_obs::FlightRecorder::new(1 << 14));
        let stores = (0..5).map(|_| rqs_store::StoreHandle::mem()).collect();
        let mut sim = KvSim::with_setup_traced(
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            8,
            2,
            Scenario::named("amnesia").crash_restart_amnesia(1, 5, 15),
            rqs_sim::DEFAULT_TICK,
            stores,
            rec.clone(),
        );
        let cfg = WorkloadConfig::mixed(8, 2, 60, 11);
        sim.run_workload(&generate(&cfg), 4);
        sim.check_atomicity().unwrap();
        let events = sim.obs_events();
        let has = |k: TraceKind| events.iter().any(|e| e.kind == k);
        assert!(has(TraceKind::OpInvoked), "client lanes traced");
        assert!(has(TraceKind::OpCompleted));
        assert!(has(TraceKind::RoundStarted));
        assert!(has(TraceKind::QuorumAssembled));
        assert!(has(TraceKind::Deliver), "substrate traced");
        assert!(has(TraceKind::Crash), "crash plan traced");
        assert!(has(TraceKind::Recover));
        assert!(has(TraceKind::WalAppended), "durable store traced");
    }

    #[test]
    fn clean_run_attributes_fast_path() {
        use rqs_obs::SlowPathCause;
        // Write-only workload on a fault-free synchronous sim: every op
        // is one round, no retries — the attribution table must say so.
        let mut sim = small_sim();
        let cfg = WorkloadConfig {
            read_percent: 0,
            ..WorkloadConfig::mixed(8, 2, 60, 11)
        };
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.attribution.total() as usize, stats.ops);
        assert!(
            stats.attribution.fast_ratio() >= 0.99,
            "clean run must be ≥99% fast path, got {:?}",
            stats.attribution.rows()
        );
        // A mixed run still attributes every op to exactly one cause.
        let mut sim = small_sim();
        let cfg = WorkloadConfig::mixed(8, 2, 60, 11);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.attribution.total() as usize, stats.ops);
        assert_eq!(stats.attribution.count(SlowPathCause::Recovery), 0);
        assert_eq!(stats.attribution.count(SlowPathCause::ServerFailure), 0);
    }

    #[test]
    fn degraded_run_attributes_retry_and_recovery() {
        use rqs_obs::SlowPathCause;
        // Flaky links towards every server plus a crash-restart window:
        // nudged ops outside the window read as retry, slow ops
        // overlapping it as recovery.
        let scenario = Scenario::named("flaky-crash")
            .lossy_towards(vec![0, 1, 2, 3, 4], 2)
            .crash_restart(0, 10, 60);
        let mut sim = KvSim::with_scenario(
            ThresholdConfig::crash_fast(5, 1).build().unwrap(),
            8,
            2,
            scenario,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 40, 19);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 40);
        sim.check_atomicity().unwrap();
        assert_eq!(stats.attribution.total() as usize, stats.ops);
        assert!(
            stats.attribution.count(SlowPathCause::Retry) > 0,
            "lossy links must surface as retry attributions: {:?}",
            stats.attribution.rows()
        );
        assert!(
            stats.attribution.count(SlowPathCause::Recovery) > 0,
            "the crash window must surface as recovery attributions: {:?}",
            stats.attribution.rows()
        );
    }

    #[test]
    fn manual_crash_windows_feed_attribution() {
        use rqs_obs::SlowPathCause;
        // Crash a server mid-run by hand; an op window overlapping the
        // open window reads as server-failure until the restart closes
        // it.
        let mut sim = small_sim();
        let cfg = WorkloadConfig::mixed(8, 2, 20, 3);
        sim.run_workload(&generate(&cfg), 4);
        sim.crash_server(0, CrashMode::Retain);
        let cfg = WorkloadConfig::mixed(8, 2, 20, 5);
        let stats = sim.run_workload(&generate(&cfg), 4);
        sim.restart_server(0);
        // 4-of-5 quorums still close in one round with server 0 down, so
        // not every op is slow — but any slow op must be attributed to
        // the failure, never to scheduling.
        assert_eq!(stats.attribution.count(SlowPathCause::Scheduling), 0);
        assert_eq!(stats.attribution.count(SlowPathCause::Contention), 0);
        sim.check_atomicity().unwrap();
    }

    #[test]
    fn pipelined_workload_completes_atomically_and_deterministically() {
        let run = |depth: usize| {
            let mut sim = small_sim();
            sim.set_pipeline(depth);
            assert_eq!(sim.pipeline(), depth);
            let cfg = WorkloadConfig::mixed(8, 2, 80, 11);
            let stats = sim.run_workload(&generate(&cfg), 4);
            assert_eq!(stats.ops, 80);
            sim.check_atomicity().unwrap();
            (stats.ops, sim.op_trace())
        };
        for depth in [2, 4, 8] {
            let (ops_a, trace_a) = run(depth);
            let (_, trace_b) = run(depth);
            assert_eq!(ops_a, 80);
            assert_eq!(
                trace_a.join("\n"),
                trace_b.join("\n"),
                "same seed, same depth ({depth}) ⇒ byte-identical traces"
            );
        }
        // Every depth completes the same op multiset as depth 1.
        let (_, depth1) = run(1);
        let (_, depth4) = run(4);
        assert_eq!(depth1.len(), depth4.len());
    }

    #[test]
    fn degraded_op_latency_is_independent_of_pipeline_depth() {
        use rqs_storage::CLIENT_TIMEOUT;
        // Δ = 1, one of four servers down: no class-1 quorum (the full
        // set) can ack, so a write waits out one timed round and then
        // settles its second the moment a quorum of QC'2 acked. A read
        // waits out its timed round too and needs at most one
        // write-back round (none after a settled two-round write:
        // BCD(c,1,2) holds on the surviving class-2 quorum). That is at
        // most two rounds inside two paper timers — and the bound must
        // not stretch with the depth.
        for depth in [1, 4, 8] {
            let mut sim = KvSim::new(ThresholdConfig::byzantine_fast(1).build().unwrap(), 8, 2);
            sim.set_pipeline(depth);
            sim.crash_server(3, CrashMode::Retain);
            let cfg = WorkloadConfig::mixed(8, 2, 96, 17);
            let stats = sim.run_workload(&generate(&cfg), 4);
            assert_eq!(stats.ops, 96);
            sim.check_atomicity().unwrap();
            let mut slowest = 0;
            for (_, o) in sim.completed() {
                let ticks = o.completed_at.ticks() - o.invoked_at.ticks();
                match o.kind {
                    rqs_storage::OpKind::Write => assert_eq!(o.rounds, 2, "depth {depth}: {o:?}"),
                    rqs_storage::OpKind::Read => assert!(o.rounds <= 2, "depth {depth}: {o:?}"),
                }
                assert!(ticks <= 2 * CLIENT_TIMEOUT, "depth {depth}: {o:?}");
                slowest = slowest.max(ticks);
            }
            assert!(slowest > CLIENT_TIMEOUT, "ops did wait out a timer");
        }
    }

    #[test]
    fn pipelined_run_records_queue_waits_as_scheduling() {
        use rqs_obs::SlowPathCause;
        // Deep pipeline over few objects: most ops wait behind a lane
        // predecessor, and the attribution table must say scheduling,
        // not pretend they were fast.
        let mut sim = KvSim::new(ThresholdConfig::crash_fast(5, 1).build().unwrap(), 2, 2);
        sim.set_pipeline(8);
        let cfg = WorkloadConfig::mixed(2, 2, 80, 11);
        let stats = sim.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 80);
        sim.check_atomicity().unwrap();
        assert!(
            stats.attribution.count(SlowPathCause::Scheduling) > 0,
            "queued ops must be attributed: {:?}",
            stats.attribution.rows()
        );
        let queued: u64 = sim.completed().iter().map(|(_, o)| o.queued_ticks).sum();
        assert!(queued > 0, "deep pipeline must actually queue");
    }

    #[test]
    fn threaded_kv_pipelined_workload_is_atomic() {
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut kv = RtKv::with_tick(rqs, 8, 2, Duration::from_millis(1));
        kv.set_pipeline(4);
        let cfg = WorkloadConfig::mixed(8, 2, 48, 37);
        let stats = kv.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 48);
        kv.check_atomicity().unwrap();
        kv.shutdown();
    }

    #[test]
    fn threaded_durable_server_survives_checkpoint_and_amnesia_crash() {
        // Durable servers on real threads: checkpoint cuts one snapshot
        // of the whole bank, an amnesia restart reloads the store and
        // replays the log tail behind it.
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let stores: Vec<StoreHandle> = (0..5).map(|_| StoreHandle::mem()).collect();
        let mut kv = RtKv::with_setup_stores(
            rqs,
            8,
            2,
            Scenario::default(),
            Duration::from_millis(1),
            stores,
        );
        let cfg = WorkloadConfig::mixed(8, 2, 24, 41);
        kv.run_workload(&generate(&cfg), 4);
        kv.checkpoint_server(1);
        kv.crash_server(1, CrashMode::Amnesia);
        kv.restart_server(1);
        let cfg = WorkloadConfig::mixed(8, 2, 24, 43);
        let stats = kv.run_workload(&generate(&cfg), 4);
        assert_eq!(stats.ops, 24);
        kv.check_atomicity().unwrap();
        assert_eq!(kv.server_stores()[1].stats().crashes, 1);
        kv.shutdown();
    }

    /// The `(appends, deltas)` the stores' `WalAppended` events add up to.
    fn traced_wal_appends(events: &[TraceEvent]) -> (usize, usize) {
        let wal = events
            .iter()
            .filter(|e| e.kind == rqs_obs::TraceKind::WalAppended);
        (wal.clone().count(), wal.map(|e| e.b as usize).sum())
    }

    #[test]
    fn one_envelope_of_writes_is_one_log_record_and_one_sync() {
        // One client launches B writes to B objects in a single step, so
        // each server receives them as one envelope — and must journal
        // them as one record behind one sync point, not B of each.
        const B: usize = 6;
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let stores: Vec<StoreHandle> = (0..rqs.universe_size())
            .map(|_| StoreHandle::mem())
            .collect();
        let rec = Arc::new(rqs_obs::FlightRecorder::new(1 << 12));
        let mut sim = KvSim::with_setup_traced(
            rqs,
            B,
            1,
            Scenario::default(),
            rqs_sim::DEFAULT_TICK,
            stores,
            rec,
        );
        let ops: Vec<WorkloadOp> = (0..B as u64)
            .map(|o| WorkloadOp {
                client: 0,
                op: KvOp::Write {
                    object: ObjectId(o),
                    value: rqs_storage::Value::from(100 + o),
                },
            })
            .collect();
        assert_eq!(sim.run_workload(&ops, B).ops, B);
        for (i, store) in sim.server_stores().iter().enumerate() {
            let s = store.stats();
            assert_eq!((s.appends, s.syncs), (1, 1), "server {i}");
        }
        let servers = sim.servers().len();
        assert_eq!(
            traced_wal_appends(&sim.obs_events()),
            (servers, servers * B),
            "every record carries the whole envelope's deltas"
        );

        // An amnesia restart replays the group's B deltas into exactly
        // the pre-crash histories.
        let victim = sim.servers()[0];
        let histories = |sim: &mut KvSim| {
            sim.substrate().inspect_on::<KvServer, Vec<_>>(victim, |s| {
                (0..B as u64).map(|o| s.history(ObjectId(o))).collect()
            })
        };
        let before = histories(&mut sim);
        assert!(before.iter().all(|h| !h.is_empty()));
        sim.crash_server(0, CrashMode::Amnesia);
        sim.restart_server(0);
        sim.world_mut().run_to_quiescence_bounded(1_000);
        assert_eq!(histories(&mut sim), before);
        let recovered: Vec<u64> = sim
            .obs_events()
            .iter()
            .filter(|e| e.kind == rqs_obs::TraceKind::Recover && e.b == 1)
            .map(|e| e.a)
            .collect();
        assert_eq!(recovered, [B as u64], "B deltas replayed from one record");
        assert_eq!(sim.server_stores()[0].stats().replayed, 1);
    }

    #[test]
    fn threaded_pipelined_writes_log_exactly_the_traced_deltas() {
        // Pipelined writes on real threads commit one group per step —
        // the envelopes a server found queued, however many that was:
        // every record is whole (appends == syncs, the deltas the stores
        // report are exactly the deltas recoverable from the logs), and
        // the service stays per-object atomic across an amnesia crash
        // that rebuilds the bank from the log.
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let stores: Vec<StoreHandle> = (0..5).map(|_| StoreHandle::mem()).collect();
        let rec = Arc::new(rqs_obs::FlightRecorder::new(1 << 14));
        let mut kv = RtKv::with_setup_traced(
            rqs,
            8,
            2,
            Scenario::default(),
            Duration::from_millis(1),
            stores,
            rec,
        );
        kv.set_pipeline(4);
        let writes = |ops, seed| WorkloadConfig {
            read_percent: 10,
            ..WorkloadConfig::mixed(8, 2, ops, seed)
        };
        kv.run_workload(&generate(&writes(64, 53)), 4);
        kv.crash_server(1, CrashMode::Amnesia);
        kv.restart_server(1);
        let stats = kv.run_workload(&generate(&writes(64, 59)), 4);
        assert_eq!(stats.ops, 64);
        kv.check_atomicity().unwrap();
        assert_eq!(kv.server_stores()[1].stats().crashes, 1);

        let store = kv.store_stats();
        assert_eq!(store.syncs, store.appends, "one sync point per group");
        let (appends, deltas) = traced_wal_appends(&kv.obs_events());
        assert_eq!(appends, store.appends);
        assert!(deltas > appends, "pipelined writes must share records");
        let logged: usize = kv
            .server_stores()
            .iter()
            .map(|s| rqs_storage::wal::deltas(&s.load()).count())
            .sum();
        assert_eq!(logged, deltas, "no group lost, split or double-committed");
        kv.shutdown();
    }

    #[test]
    fn threaded_kv_byzantine_universe() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut kv = RtKv::with_tick(rqs, 4, 2, Duration::from_millis(1));
        kv.make_byzantine(0, ByzantineMode::Forge);
        let cfg = WorkloadConfig::mixed(4, 2, 12, 23);
        let stats = kv.run_workload(&generate(&cfg), 2);
        assert_eq!(stats.ops, 12);
        kv.check_atomicity().unwrap();
        kv.shutdown();
    }
}
