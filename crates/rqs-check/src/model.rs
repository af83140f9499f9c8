//! Checkable models: a protocol deployment, a workload, and pluggable
//! invariants over the resulting execution.
//!
//! A [`Model`] runs one complete controlled execution per call: it builds
//! a fresh deployment, injects the workload, lets the [`RunCtl`]'s
//! scheduler decide every delivery, and evaluates its invariants on the
//! final `World` state and completed-operation history. Because the
//! deployment is rebuilt from scratch each time, a recorded choice script
//! replays the identical execution — the property counterexamples,
//! shrinking and the regression corpus rely on.

use crate::ctl::RunCtl;
use rqs_consensus::harness::ConsensusHarness;
use rqs_consensus::types::ConsensusMsg;
use rqs_core::threshold::ThresholdConfig;
use rqs_core::Rqs;
use rqs_sim::{fnv1a, Time};
use rqs_storage::byzantine::ForgedServer;
use rqs_storage::reader::Reader;
use rqs_storage::writer::Writer;
use rqs_storage::{check_atomicity_reference, CheckerStats, StorageHarness, StorageMsg, Value};
use std::rc::Rc;

/// A deployment hook run after build, before any operation starts.
pub type SetupHook<H> = Rc<dyn Fn(&mut H)>;

/// The result of one controlled run.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// The first invariant violation, if any (invariant name + detail).
    pub violation: Option<String>,
    /// Rendered event trace (only when `ctl.collect_trace` is set).
    pub trace: Vec<String>,
    /// Streaming-checker counters of the run's harness (storage models
    /// only). `checker.violation_op` is the arrival index of the op that
    /// tripped the violation — evidence of at-arrival detection.
    pub checker: Option<CheckerStats>,
    /// Completed operations scanned by atomicity polling over the run.
    /// The streaming invariant scans each op exactly once; the rescan
    /// baseline rescans the full history at every choice point, so this
    /// is the deterministic per-run cost of the invariant machinery.
    pub scanned_ops: usize,
}

/// A model the explorer can run under schedule control.
pub trait Model {
    /// Short name (reports, counterexample files).
    fn name(&self) -> &str;

    /// Node indices that fault branching may crash (typically servers).
    fn crash_candidates(&self) -> Vec<usize>;

    /// Executes one run under `ctl` and checks the invariants.
    fn run(&self, ctl: &RunCtl) -> RunOutput;
}

/// Fingerprint hash for storage messages.
pub fn storage_msg_hash(m: &StorageMsg) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

/// Fingerprint hash for consensus messages.
pub fn consensus_msg_hash(m: &ConsensusMsg) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

// ---- storage ----------------------------------------------------------

/// Which refined quorum system the storage model deploys.
#[derive(Clone, Copy, Debug)]
pub enum StorageSystem {
    /// `ThresholdConfig::crash_fast(n, q)` — the §1.2 benign family.
    CrashFast {
        /// Universe size.
        n: usize,
        /// Crash-fast profile parameter (class-1 quorums have `n - q`
        /// members).
        q: usize,
    },
    /// `ThresholdConfig::byzantine_fast(t)` — `n = 3t + 1`.
    ByzantineFast {
        /// Byzantine threshold.
        t: usize,
    },
}

impl StorageSystem {
    fn build(self) -> Rqs {
        match self {
            StorageSystem::CrashFast { n, q } => ThresholdConfig::crash_fast(n, q)
                .build()
                .expect("valid crash-fast system"),
            StorageSystem::ByzantineFast { t } => ThresholdConfig::byzantine_fast(t)
                .build()
                .expect("valid byzantine-fast system"),
        }
    }
}

/// One storage operation in a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageOp {
    /// `write(v)` by the single writer.
    Write(u64),
    /// `read()` by reader `i`.
    Read(usize),
}

/// A pluggable storage invariant.
#[derive(Clone, Copy, Debug)]
pub enum StorageInvariant {
    /// SWMR atomicity of the completed-op history (the paper's Theorem 8
    /// claim), via the harness's streaming
    /// [`AtomicityChecker`](rqs_storage::AtomicityChecker): the run polls
    /// the checker at every choice point (each poll costs O(new ops),
    /// since checker state persists across the run instead of being
    /// recomputed per explored state) and aborts the run at the first
    /// violating operation.
    Atomicity,
    /// The pre-streaming baseline, kept for differential testing: rescan
    /// the *full* history with the quadratic
    /// [`rqs_storage::check_atomicity_reference`] at every choice point.
    /// Verdicts must match [`Atomicity`](Self::Atomicity); DFS throughput
    /// must not.
    AtomicityRescan,
    /// Fast-path latency (Theorem 9): on *synchronous* runs — canonical
    /// schedule, no injected faults — completed operations stay within
    /// the stated round bounds. Skipped on reordered/faulty runs, where
    /// the claim does not apply.
    FastPath {
        /// Maximum rounds any completed write may take.
        max_write_rounds: usize,
        /// Maximum rounds any completed read may take.
        max_read_rounds: usize,
    },
}

/// A storage model: one writer, `readers` reader clients, operation
/// chains (ops within a chain are sequential, chains run concurrently),
/// and a set of invariants.
pub struct StorageModel {
    /// The quorum system.
    pub system: StorageSystem,
    /// Number of reader clients.
    pub readers: usize,
    /// Concurrent chains of sequential operations. All writes must live
    /// in one chain and a reader must not appear in two chains (clients
    /// are well-formed: one operation at a time).
    pub chains: Vec<Vec<StorageOp>>,
    /// The invariants checked after the run.
    pub invariants: Vec<StorageInvariant>,
    /// Back every server with a deterministic in-memory durable store
    /// (write-ahead log). Required for amnesia crash-recover branching
    /// ([`Bounds::with_recovers`](crate::explore::Bounds::with_recovers)):
    /// a recovery rebuilds the server from this store, so on the correct
    /// protocol it must be invisible to clients. Volatile models recover
    /// to an empty server, which trivially "violates" atomicity without
    /// indicating a protocol bug.
    pub durable: bool,
    /// Post-build hook (mutant swap-ins, Byzantine servers, scripted
    /// scenarios). Runs before any operation starts.
    pub setup: Option<SetupHook<StorageHarness>>,
}

impl StorageModel {
    /// The canonical small model: write ∥ (read by reader 0, then read by
    /// reader 1) — the 1-writer/2-reader configuration whose exhaustive
    /// exploration the acceptance tests pin.
    pub fn write_read_read(system: StorageSystem) -> Self {
        StorageModel {
            system,
            readers: 2,
            chains: vec![
                vec![StorageOp::Write(1)],
                vec![StorageOp::Read(0), StorageOp::Read(1)],
            ],
            invariants: vec![StorageInvariant::Atomicity],
            durable: false,
            setup: None,
        }
    }

    /// Returns the model with durable (write-ahead-logged) servers, the
    /// prerequisite for amnesia crash-recover branching.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// A sequential workload (single chain) with the fast-path invariant:
    /// on the canonical synchronous schedule every op is 1 round.
    pub fn sequential_fast_path(system: StorageSystem) -> Self {
        StorageModel {
            system,
            readers: 1,
            chains: vec![vec![
                StorageOp::Write(1),
                StorageOp::Read(0),
                StorageOp::Write(2),
                StorageOp::Read(0),
            ]],
            invariants: vec![
                StorageInvariant::Atomicity,
                StorageInvariant::FastPath {
                    max_write_rounds: 1,
                    max_read_rounds: 1,
                },
            ],
            durable: false,
            setup: None,
        }
    }

    /// `write(1)` then `read()` over `byzantine_fast(1)` with server 2 a
    /// [`ForgedServer`] that acks every write and shows readers the
    /// initial history: the smallest model in which a write that took a
    /// class-2 quorum's acks for a class-1 quorum's is lost (the
    /// forger's ack was one of them, and two quorums of three need
    /// share only the forger and one honest server).
    pub fn write_then_read_with_forger() -> Self {
        StorageModel {
            system: StorageSystem::ByzantineFast { t: 1 },
            readers: 1,
            chains: vec![vec![StorageOp::Write(1), StorageOp::Read(0)]],
            invariants: vec![StorageInvariant::Atomicity],
            durable: false,
            setup: Some(Rc::new(|h| {
                h.make_byzantine(2, Box::new(ForgedServer::initial_state()));
            })),
        }
    }

    /// Completion time of the writer's op at `baseline`, if finished.
    fn writer_done(h: &mut StorageHarness, baseline: usize) -> Option<Time> {
        let id = h.writer_id();
        let outs = h.world_mut().node_as::<Writer>(id).outcomes();
        outs.get(baseline).map(|o| o.completed_at)
    }

    /// Completion time of reader `r`'s op at `baseline`, if finished.
    fn reader_done(h: &mut StorageHarness, r: usize, baseline: usize) -> Option<Time> {
        let id = h.reader_id(r);
        let outs = h.world_mut().node_as::<Reader>(id).outcomes();
        outs.get(baseline).map(|o| o.completed_at)
    }

    /// Starts every chain op whose predecessor completed *strictly
    /// earlier* than the current time (so program order within a chain is
    /// real-time order, which is what the atomicity oracle checks).
    /// Returns whether anything launched, and the earliest time a gated
    /// chain could proceed (to bump the clock on a quiescent world).
    fn advance(&self, h: &mut StorageHarness, pos: &mut [ChainPos]) -> Advance {
        let mut res = Advance {
            launched: false,
            gate: None,
        };
        for (ci, p) in pos.iter_mut().enumerate() {
            loop {
                if let Some(wait) = p.waiting {
                    let done = match wait {
                        Waiting::Writer(b) => Self::writer_done(h, b),
                        Waiting::Reader(r, b) => Self::reader_done(h, r, b),
                    };
                    match done {
                        None => break,
                        Some(completed_at) => {
                            if h.now() <= completed_at {
                                let gate = completed_at + 1;
                                res.gate = Some(match res.gate {
                                    Some(g) if g < gate => g,
                                    _ => gate,
                                });
                                break;
                            }
                            p.waiting = None;
                        }
                    }
                }
                let Some(&op) = self.chains[ci].get(p.next) else {
                    break;
                };
                p.next += 1;
                res.launched = true;
                match op {
                    StorageOp::Write(v) => {
                        let id = h.writer_id();
                        let b = h.world_mut().node_as::<Writer>(id).outcomes().len();
                        h.start_write(Value::from(v));
                        p.waiting = Some(Waiting::Writer(b));
                    }
                    StorageOp::Read(r) => {
                        let id = h.reader_id(r);
                        let b = h.world_mut().node_as::<Reader>(id).outcomes().len();
                        h.start_read(r);
                        p.waiting = Some(Waiting::Reader(r, b));
                    }
                }
            }
        }
        res
    }
}

#[derive(Clone, Copy, Debug)]
struct Advance {
    launched: bool,
    /// Earliest time a completed-but-gated chain may continue.
    gate: Option<Time>,
}

#[derive(Clone, Copy, Debug)]
enum Waiting {
    Writer(usize),
    Reader(usize, usize),
}

#[derive(Clone, Copy, Debug, Default)]
struct ChainPos {
    next: usize,
    waiting: Option<Waiting>,
}

impl Model for StorageModel {
    fn name(&self) -> &str {
        "storage"
    }

    fn crash_candidates(&self) -> Vec<usize> {
        let n = match self.system {
            StorageSystem::CrashFast { n, .. } => n,
            StorageSystem::ByzantineFast { t } => 3 * t + 1,
        };
        (0..n).collect()
    }

    fn run(&self, ctl: &RunCtl) -> RunOutput {
        let mut h = if self.durable {
            StorageHarness::durable_with_scenario(
                self.system.build(),
                self.readers,
                Default::default(),
            )
        } else {
            StorageHarness::new(self.system.build(), self.readers)
        };
        if let Some(setup) = &self.setup {
            setup(&mut h);
        }
        if ctl.collect_trace {
            h.world_mut().enable_trace(|m| m.to_string());
        }
        if ctl.tracer.is_some() {
            h.world_mut().set_obs(ctl.obs());
        }
        let stream = self
            .invariants
            .iter()
            .any(|i| matches!(i, StorageInvariant::Atomicity));
        let rescan = self
            .invariants
            .iter()
            .any(|i| matches!(i, StorageInvariant::AtomicityRescan));
        let mut live: Option<String> = None;
        let mut scanned_ops = 0;
        let mut pos = vec![ChainPos::default(); self.chains.len()];
        self.advance(&mut h, &mut pos);
        h.world_mut().set_scheduler(ctl.scheduler());
        loop {
            // Poll the atomicity invariant at every choice point and
            // abort the run the moment the offending op has completed:
            // every extension of this schedule keeps the violating
            // prefix, so nothing sound is pruned.
            if let Some(v) = self.poll_atomicity(&mut h, stream, rescan, &mut scanned_ops) {
                live = Some(v);
                break;
            }
            if ctl.step(h.world_mut(), storage_msg_hash) {
                self.advance(&mut h, &mut pos);
                continue;
            }
            if ctl.rec.borrow().choices.len() >= ctl.max_steps {
                break; // out of budget
            }
            // Quiescent: only new invocations (possibly gated on the
            // clock passing a completion time) can make progress.
            let adv = self.advance(&mut h, &mut pos);
            if adv.launched {
                continue;
            }
            let Some(gate) = adv.gate else {
                break;
            };
            h.world_mut().run_before(gate);
            if !self.advance(&mut h, &mut pos).launched {
                break;
            }
        }
        h.world_mut().clear_scheduler();
        let trace = h
            .world_mut()
            .trace()
            .iter()
            .map(|e| format!("{} {}", e.at, e.what))
            .collect();
        let violation = live.or_else(|| self.check_invariants(&mut h, ctl));
        let checker = Some(h.checker_stats());
        RunOutput {
            violation,
            trace,
            checker,
            scanned_ops,
        }
    }
}

impl StorageModel {
    /// Checks the atomicity invariant at a choice point. The streaming
    /// path harvests new outcomes into the harness's incremental checker
    /// (O(new ops)); the rescan path re-runs the quadratic reference
    /// over the full history, kept as a differential baseline. `scanned`
    /// accumulates the ops each path looked at, so explorations can
    /// compare invariant cost deterministically.
    fn poll_atomicity(
        &self,
        h: &mut StorageHarness,
        stream: bool,
        rescan: bool,
        scanned: &mut usize,
    ) -> Option<String> {
        if !stream && !rescan {
            return None;
        }
        let before = h.ops().len();
        h.harvest();
        if stream {
            *scanned += h.ops().len() - before;
            if let Some(v) = h.checker_violation() {
                return Some(format!("atomicity: {v}"));
            }
        }
        if rescan {
            *scanned += h.ops().len();
            if let Err(v) = check_atomicity_reference(h.ops()) {
                return Some(format!("atomicity: {v}"));
            }
        }
        None
    }

    fn check_invariants(&self, h: &mut StorageHarness, ctl: &RunCtl) -> Option<String> {
        for inv in &self.invariants {
            match inv {
                StorageInvariant::Atomicity => {
                    if let Err(v) = h.check_atomicity() {
                        return Some(format!("atomicity: {v}"));
                    }
                }
                StorageInvariant::AtomicityRescan => {
                    h.harvest();
                    if let Err(v) = check_atomicity_reference(h.ops()) {
                        return Some(format!("atomicity: {v}"));
                    }
                }
                StorageInvariant::FastPath {
                    max_write_rounds,
                    max_read_rounds,
                } => {
                    if !ctl.rec.borrow().is_canonical() {
                        continue; // claim only covers synchronous runs
                    }
                    let wid = h.writer_id();
                    for out in h.world_mut().node_as::<Writer>(wid).outcomes() {
                        if out.rounds > *max_write_rounds {
                            return Some(format!(
                                "fast-path: write ts {} took {} rounds (bound {})",
                                out.ts, out.rounds, max_write_rounds
                            ));
                        }
                    }
                    for r in 0..self.readers {
                        let rid = h.reader_id(r);
                        for out in h.world_mut().node_as::<Reader>(rid).outcomes() {
                            if out.rounds > *max_read_rounds {
                                return Some(format!(
                                    "fast-path: read {} by reader {r} took {} rounds (bound {})",
                                    out.read_no, out.rounds, max_read_rounds
                                ));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

// ---- consensus --------------------------------------------------------

/// A pluggable consensus invariant.
#[derive(Clone, Copy, Debug)]
pub enum ConsensusInvariant {
    /// Agreement: no two learners learn different values.
    Agreement,
    /// Validity: every learned value was actually proposed.
    Validity,
    /// Fast learning (Definition 4): on synchronous runs every learner
    /// that learned did so within the stated number of message delays.
    FastLearning {
        /// Maximum message delays from the first propose.
        max_delays: u64,
    },
}

/// A consensus model over `byzantine_fast(t)`: proposers all propose at
/// time zero, the run is driven to the bound, and safety invariants are
/// evaluated over whatever the learners managed to learn.
pub struct ConsensusModel {
    /// Byzantine threshold (`n = 3t + 1` acceptors).
    pub t: usize,
    /// Number of proposers.
    pub proposers: usize,
    /// Number of learners.
    pub learners: usize,
    /// `(proposer index, value)` — all injected before the first step.
    pub proposals: Vec<(usize, u64)>,
    /// The invariants checked after the run.
    pub invariants: Vec<ConsensusInvariant>,
    /// Post-build hook (Byzantine acceptor swap-ins, mutant learners).
    pub setup: Option<SetupHook<ConsensusHarness>>,
}

impl ConsensusModel {
    /// The canonical contention model: two proposers, two learners,
    /// conflicting proposals.
    pub fn contention(t: usize) -> Self {
        ConsensusModel {
            t,
            proposers: 2,
            learners: 2,
            proposals: vec![(0, 1), (1, 2)],
            invariants: vec![ConsensusInvariant::Agreement, ConsensusInvariant::Validity],
            setup: None,
        }
    }

    /// The uncontended fast-path model: one proposer, two learners, and
    /// the 2-message-delay claim pinned on synchronous runs.
    pub fn fast_path(t: usize) -> Self {
        ConsensusModel {
            t,
            proposers: 1,
            learners: 2,
            proposals: vec![(0, 7)],
            invariants: vec![
                ConsensusInvariant::Agreement,
                ConsensusInvariant::Validity,
                ConsensusInvariant::FastLearning { max_delays: 2 },
            ],
            setup: None,
        }
    }
}

impl Model for ConsensusModel {
    fn name(&self) -> &str {
        "consensus"
    }

    fn crash_candidates(&self) -> Vec<usize> {
        (0..3 * self.t + 1).collect()
    }

    fn run(&self, ctl: &RunCtl) -> RunOutput {
        let rqs = ThresholdConfig::byzantine_fast(self.t)
            .build()
            .expect("valid byzantine-fast system");
        let mut h = ConsensusHarness::new(rqs, self.proposers, self.learners);
        if let Some(setup) = &self.setup {
            setup(&mut h);
        }
        if ctl.collect_trace {
            h.world_mut().enable_trace(|m| format!("{m:?}"));
        }
        if ctl.tracer.is_some() {
            h.world_mut().set_obs(ctl.obs());
        }
        for &(p, v) in &self.proposals {
            h.propose(p, v);
        }
        h.world_mut().set_scheduler(ctl.scheduler());
        while ctl.step(h.world_mut(), consensus_msg_hash) {}
        h.world_mut().clear_scheduler();
        let trace = h
            .world_mut()
            .trace()
            .iter()
            .map(|e| format!("{} {}", e.at, e.what))
            .collect();
        let violation = self.check_invariants(&h, ctl);
        RunOutput {
            violation,
            trace,
            checker: None,
            scanned_ops: 0,
        }
    }
}

impl ConsensusModel {
    fn check_invariants(&self, h: &ConsensusHarness, ctl: &RunCtl) -> Option<String> {
        let learned: Vec<(usize, u64)> = (0..self.learners)
            .filter_map(|i| h.learned(i).map(|v| (i, v)))
            .collect();
        for inv in &self.invariants {
            match inv {
                ConsensusInvariant::Agreement => {
                    for window in learned.windows(2) {
                        let (i, vi) = window[0];
                        let (j, vj) = window[1];
                        if vi != vj {
                            return Some(format!(
                                "agreement: learner {i} learned {vi} but learner {j} learned {vj}"
                            ));
                        }
                    }
                }
                ConsensusInvariant::Validity => {
                    for &(i, v) in &learned {
                        if !self.proposals.iter().any(|&(_, p)| p == v) {
                            return Some(format!(
                                "validity: learner {i} learned {v}, which nobody proposed"
                            ));
                        }
                    }
                }
                ConsensusInvariant::FastLearning { max_delays } => {
                    if !ctl.rec.borrow().is_canonical() {
                        continue;
                    }
                    for (i, d) in h.learner_delays().iter().enumerate() {
                        if let Some(d) = d {
                            if *d > *max_delays {
                                return Some(format!(
                                    "fast-learning: learner {i} took {d} delays (bound {max_delays})"
                                ));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

// ---- registry ---------------------------------------------------------

/// Looks up a named built-in model (the regression corpus and
/// `exp_explore` reference models by these names).
pub fn builtin_model(name: &str) -> Option<Box<dyn Model>> {
    match name {
        "storage-byz4-w2r" => Some(Box::new(StorageModel::write_read_read(
            StorageSystem::ByzantineFast { t: 1 },
        ))),
        "storage-crash4-w2r" => Some(Box::new(StorageModel::write_read_read(
            StorageSystem::CrashFast { n: 4, q: 1 },
        ))),
        "storage-crash4-w2r-durable" => Some(Box::new(
            StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 }).durable(),
        )),
        "storage-crash5-w2r" => Some(Box::new(StorageModel::write_read_read(
            StorageSystem::CrashFast { n: 5, q: 1 },
        ))),
        "storage-crash5-seq" => Some(Box::new(StorageModel::sequential_fast_path(
            StorageSystem::CrashFast { n: 5, q: 1 },
        ))),
        "storage-byz4-wr-forger" => Some(Box::new(StorageModel::write_then_read_with_forger())),
        "consensus-byz4-contention" => Some(Box::new(ConsensusModel::contention(1))),
        "consensus-byz4-fast" => Some(Box::new(ConsensusModel::fast_path(1))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::Tail;

    #[test]
    fn canonical_storage_run_is_clean() {
        let model = StorageModel::write_read_read(StorageSystem::ByzantineFast { t: 1 });
        let ctl = RunCtl::new(vec![], Tail::Canonical, 10_000);
        let out = model.run(&ctl);
        assert_eq!(out.violation, None);
        assert!(ctl.rec.borrow().choices.len() > 10);
        assert!(ctl.rec.borrow().is_canonical());
    }

    #[test]
    fn canonical_durable_storage_run_is_clean() {
        let model =
            StorageModel::write_read_read(StorageSystem::CrashFast { n: 4, q: 1 }).durable();
        let ctl = RunCtl::new(vec![], Tail::Canonical, 10_000);
        assert_eq!(model.run(&ctl).violation, None);
    }

    #[test]
    fn canonical_sequential_run_hits_fast_path() {
        let model = StorageModel::sequential_fast_path(StorageSystem::CrashFast { n: 5, q: 1 });
        let ctl = RunCtl::new(vec![], Tail::Canonical, 10_000);
        assert_eq!(model.run(&ctl).violation, None);
    }

    #[test]
    fn canonical_consensus_run_is_clean() {
        for model in [ConsensusModel::contention(1), ConsensusModel::fast_path(1)] {
            let ctl = RunCtl::new(vec![], Tail::Canonical, 20_000);
            assert_eq!(model.run(&ctl).violation, None);
        }
    }

    #[test]
    fn registry_resolves_all_names() {
        for name in [
            "storage-byz4-w2r",
            "storage-crash4-w2r-durable",
            "storage-crash5-w2r",
            "storage-crash5-seq",
            "storage-byz4-wr-forger",
            "consensus-byz4-contention",
            "consensus-byz4-fast",
        ] {
            assert!(builtin_model(name).is_some(), "{name}");
        }
        assert!(builtin_model("no-such-model").is_none());
    }

    #[test]
    fn trace_collection_renders_events() {
        let model = StorageModel::write_read_read(StorageSystem::ByzantineFast { t: 1 });
        let mut ctl = RunCtl::new(vec![], Tail::Canonical, 10_000);
        ctl.collect_trace = true;
        let out = model.run(&ctl);
        assert!(!out.trace.is_empty());
        assert!(out.trace.iter().any(|l| l.contains("wr⟨")));
    }
}
