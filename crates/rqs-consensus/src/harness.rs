//! End-to-end consensus deployment, generic over the execution
//! substrate: builds a proposer/acceptor/learner deployment over a
//! refined quorum system, drives proposals and measures learning latency
//! in message delays.
//!
//! [`ConsensusDeployment`] is written once against
//! [`Substrate`]; [`ConsensusHarness`] is its
//! deterministic-simulator alias (with extra sim-only scripting methods),
//! and `ConsensusDeployment<rqs_runtime::Runtime<ConsensusMsg>>` is the
//! same driver on the threaded runtime.

use crate::acceptor::{Acceptor, ConsensusConfig};
use crate::learner::Learner;
use crate::proposer::Proposer;
use crate::types::{ConsensusMsg, ProposalValue};
use rqs_core::{ProcessId, ProcessSet, Rqs};
use rqs_crypto::{KeyRegistry, SignerId};
use rqs_sim::{Automaton, NodeId, Scenario, Substrate, SubstrateConfig, Time, World};
use std::sync::Arc;
use std::time::Duration;

/// A consensus deployment on any [`Substrate`].
///
/// # Examples
///
/// ```
/// use rqs_core::threshold::ThresholdConfig;
/// use rqs_consensus::ConsensusHarness;
///
/// // n = 3t+1 = 4 Byzantine acceptors, 2 proposers, 2 learners.
/// let rqs = ThresholdConfig::byzantine_fast(1).build()?;
/// let mut h = ConsensusHarness::new(rqs, 2, 2);
/// h.propose(0, 42);
/// assert!(h.run_until_learned(100_000));
/// // Best case: every learner learns in 2 message delays.
/// assert_eq!(h.learner_delays(), vec![Some(2), Some(2)]);
/// assert_eq!(h.agreed_value(), Some(42));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ConsensusDeployment<S: Substrate<ConsensusMsg>> {
    sub: S,
    cfg: ConsensusConfig,
    propose_time: Option<Time>,
}

/// The simulated consensus deployment (back-compat alias).
pub type ConsensusHarness = ConsensusDeployment<World<ConsensusMsg>>;

impl<S: Substrate<ConsensusMsg>> ConsensusDeployment<S> {
    /// Builds a fault-free deployment.
    pub fn new(rqs: Rqs, proposers: usize, learners: usize) -> Self {
        Self::with_scenario(rqs, proposers, learners, Scenario::default())
    }

    /// Builds a deployment under a fault scenario (acceptor crash plans,
    /// link effects; the scenario's `byzantine` indices are rejected here
    /// — Byzantine acceptors are scripted per experiment).
    pub fn with_scenario(rqs: Rqs, proposers: usize, learners: usize, scenario: Scenario) -> Self {
        Self::with_setup(rqs, proposers, learners, scenario, rqs_sim::DEFAULT_TICK)
    }

    /// Builds with a scenario and an explicit wall-clock tick length
    /// (ignored by the simulator).
    ///
    /// # Panics
    ///
    /// Panics if the scenario names Byzantine nodes (consensus Byzantine
    /// behaviours are experiment-specific scripts; use
    /// [`ConsensusHarness::make_byzantine`]).
    pub fn with_setup(
        rqs: Rqs,
        proposers: usize,
        learners: usize,
        scenario: Scenario,
        tick: Duration,
    ) -> Self {
        assert!(proposers >= 1, "at least one proposer");
        assert!(learners >= 1, "at least one learner");
        assert!(
            scenario.byzantine.is_empty(),
            "consensus deployments take scripted Byzantine acceptors, not scenario swap-ins"
        );
        let n = rqs.universe_size();
        let rqs = Arc::new(rqs);
        let registry = KeyRegistry::new(n, 0xC0FFEE);
        let cfg = ConsensusConfig {
            rqs,
            registry: registry.clone(),
            acceptors: (0..n).map(NodeId).collect(),
            proposers: (n..n + proposers).map(NodeId).collect(),
            learners: (n + proposers..n + proposers + learners)
                .map(NodeId)
                .collect(),
        };
        let mut nodes: Vec<Box<dyn Automaton<ConsensusMsg> + Send>> = Vec::new();
        for i in 0..n {
            nodes.push(Box::new(Acceptor::new(
                cfg.clone(),
                ProcessId(i),
                registry.signer(SignerId(i)),
            )));
        }
        for i in 0..proposers {
            let me = cfg.proposers[i];
            nodes.push(Box::new(Proposer::new(cfg.clone(), me)));
        }
        for _ in 0..learners {
            nodes.push(Box::new(Learner::new(cfg.clone())));
        }
        // Substrate::build runs on_start, arming the learners' pull timers.
        let config = SubstrateConfig::new(nodes).scenario(scenario).tick(tick);
        let sub = S::build(config);
        ConsensusDeployment {
            sub,
            cfg,
            propose_time: None,
        }
    }

    /// The deployment wiring.
    pub fn config(&self) -> &ConsensusConfig {
        &self.cfg
    }

    /// The underlying substrate.
    pub fn substrate(&mut self) -> &mut S {
        &mut self.sub
    }

    /// Crashes a set of acceptors (universe indices) now.
    pub fn crash_acceptors(&mut self, faulty: ProcessSet) {
        for p in faulty.iter() {
            self.sub.crash(self.cfg.acceptors[p.index()]);
        }
    }

    /// Proposer `i` proposes `value`. The first proposal timestamps the
    /// latency measurement.
    pub fn propose(&mut self, i: usize, value: ProposalValue) {
        let node = self.cfg.proposers[i];
        if self.propose_time.is_none() {
            self.propose_time = Some(self.sub.now_ticks());
        }
        self.sub
            .invoke_on::<Proposer>(node, move |p, ctx| p.propose(value, ctx));
    }

    /// Runs until every learner has learned (or the budget is
    /// exhausted — `max_steps` events on the simulator, the configured
    /// timeout per learner on wall-clock substrates); returns whether
    /// they all learned.
    pub fn run_until_learned(&mut self, max_steps: usize) -> bool {
        let learners = self.cfg.learners.clone();
        learners.into_iter().all(|l| {
            self.sub
                .await_on::<Learner>(l, |lr| lr.learned().is_some(), max_steps)
        })
    }

    /// Learned value of learner `i`, if any.
    pub fn learned(&self, i: usize) -> Option<ProposalValue> {
        self.sub
            .inspect_on::<Learner, Option<ProposalValue>>(self.cfg.learners[i], |l| {
                l.learned().map(|(v, _)| v)
            })
    }

    /// Message delays from the first propose to each learner's learn time
    /// (`None` for learners that have not learned). One protocol tick is
    /// one message delay.
    pub fn learner_delays(&self) -> Vec<Option<u64>> {
        let t0 = self.propose_time.unwrap_or(Time::ZERO);
        self.cfg
            .learners
            .iter()
            .map(|&l| {
                self.sub
                    .inspect_on::<Learner, Option<Time>>(l, |lr| lr.learned().map(|(_, t)| t))
                    .map(|t| t.since(t0))
            })
            .collect()
    }

    /// The agreed value if every learner learned the same value;
    /// `None` if any is missing or they disagree (an Agreement violation).
    pub fn agreed_value(&self) -> Option<ProposalValue> {
        let mut agreed: Option<ProposalValue> = None;
        for i in 0..self.cfg.learners.len() {
            let v = self.learned(i)?;
            match agreed {
                None => agreed = Some(v),
                Some(prev) if prev != v => return None,
                _ => {}
            }
        }
        agreed
    }

    /// Decided value at acceptor `i` (inspection).
    pub fn acceptor_decided(&self, i: usize) -> Option<ProposalValue> {
        self.sub
            .inspect_on::<Acceptor, Option<ProposalValue>>(self.cfg.acceptors[i], |a| a.decided())
    }

    /// Stops the substrate (a no-op on the simulator).
    pub fn shutdown(&mut self) {
        self.sub.shutdown();
    }
}

/// Simulator-only scripting surface.
impl ConsensusHarness {
    /// The underlying world.
    pub fn world_mut(&mut self) -> &mut World<ConsensusMsg> {
        &mut self.sub
    }

    /// Crashes proposer `i` at the given time (leader-failure scenarios).
    pub fn crash_proposer_at(&mut self, i: usize, at: Time) {
        let node = self.cfg.proposers[i];
        self.sub.crash_at(node, at);
    }

    /// Replaces an acceptor with a Byzantine automaton (simulator only:
    /// the scripted acceptors need not be `Send`).
    pub fn make_byzantine(&mut self, idx: usize, node: Box<dyn Automaton<ConsensusMsg>>) {
        let id = self.cfg.acceptors[idx];
        self.sub.replace_node(id, node);
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.sub.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_core::threshold::ThresholdConfig;

    /// n = 7, t = 2, k = 1, q = 0, r = 1: three distinct latency classes.
    fn graded_rqs() -> Rqs {
        ThresholdConfig::new(7, 2, 1)
            .with_class1(0)
            .with_class2(1)
            .build()
            .unwrap()
    }

    #[test]
    fn best_case_two_delays() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 2, 2);
        h.propose(0, 7);
        assert!(h.run_until_learned(200_000));
        assert_eq!(h.agreed_value(), Some(7));
        assert_eq!(h.learner_delays(), vec![Some(2), Some(2)]);
    }

    #[test]
    fn one_crash_three_delays() {
        let mut h = ConsensusHarness::new(graded_rqs(), 2, 2);
        h.crash_acceptors(ProcessSet::from_indices([6]));
        h.propose(0, 9);
        assert!(h.run_until_learned(200_000));
        assert_eq!(h.agreed_value(), Some(9));
        for d in h.learner_delays() {
            assert_eq!(d, Some(3), "class-2 quorum → 3 message delays");
        }
    }

    #[test]
    fn two_crashes_four_delays() {
        let mut h = ConsensusHarness::new(graded_rqs(), 2, 2);
        h.crash_acceptors(ProcessSet::from_indices([5, 6]));
        h.propose(0, 4);
        assert!(h.run_until_learned(200_000));
        assert_eq!(h.agreed_value(), Some(4));
        for d in h.learner_delays() {
            assert_eq!(d, Some(4), "class-3 quorum → 4 message delays");
        }
    }

    #[test]
    fn leader_crash_recovers_through_view_change() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 2, 1);
        // Proposer 0 crashes immediately: its initial-view prepare never
        // arrives (crash at t0 before sending is processed).
        h.crash_proposer_at(0, Time::ZERO);
        // Proposer 1 proposes; in the initial view its prepare reaches the
        // acceptors directly (all proposers may propose in view 0).
        h.propose(1, 11);
        assert!(h.run_until_learned(400_000));
        assert_eq!(h.agreed_value(), Some(11));
    }

    #[test]
    fn contention_still_agrees() {
        // Both proposers propose different values in the initial view:
        // acceptors prepare whichever arrives first; agreement must hold
        // even if the fast path fails and a view change is needed.
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 2, 2);
        h.propose(0, 1);
        h.propose(1, 2);
        assert!(h.run_until_learned(400_000), "contention must terminate");
        let v = h.agreed_value().expect("all learners agree");
        assert!(v == 1 || v == 2, "validity: an actually-proposed value");
    }

    #[test]
    fn slow_path_only_baseline_four_delays() {
        // Classic Byzantine quorums (QC1 = QC2 = ∅): only the update3 rule
        // can fire — the no-fast-path baseline.
        let rqs = ThresholdConfig::classic_byzantine(4).build().unwrap();
        let mut h = ConsensusHarness::new(rqs, 1, 1);
        h.propose(0, 3);
        assert!(h.run_until_learned(200_000));
        assert_eq!(h.learner_delays(), vec![Some(4)]);
    }

    #[test]
    fn scenario_acceptor_crash_degrades_but_learns() {
        let scenario = Scenario::named("late-crash").crash(6, 0);
        let mut h =
            ConsensusDeployment::<World<ConsensusMsg>>::with_scenario(graded_rqs(), 1, 1, scenario);
        h.propose(0, 5);
        assert!(h.run_until_learned(400_000));
        assert_eq!(h.agreed_value(), Some(5));
    }
}
