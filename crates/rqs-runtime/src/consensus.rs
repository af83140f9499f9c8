//! Threaded deployment of the RQS consensus: a thin wall-clock wrapper
//! around the substrate-generic
//! [`ConsensusDeployment`],
//! instantiated on [`Runtime`].

use crate::runtime::{Runtime, DEFAULT_TICK};
use rqs_consensus::{ConsensusDeployment, ConsensusMsg, ProposalValue};
use rqs_core::Rqs;
use rqs_sim::Scenario;
use std::time::{Duration, Instant};

/// A consensus deployment over real threads and channels.
pub struct RtConsensus {
    dep: ConsensusDeployment<Runtime<ConsensusMsg>>,
}

impl RtConsensus {
    /// Deploys acceptors, proposers and learners with the default tick.
    pub fn new(rqs: Rqs, proposers: usize, learners: usize) -> Self {
        Self::with_tick(rqs, proposers, learners, DEFAULT_TICK)
    }

    /// Deploys with an explicit tick length.
    pub fn with_tick(rqs: Rqs, proposers: usize, learners: usize, tick: Duration) -> Self {
        Self::with_scenario(rqs, proposers, learners, Scenario::default(), tick)
    }

    /// Deploys under a fault scenario.
    pub fn with_scenario(
        rqs: Rqs,
        proposers: usize,
        learners: usize,
        scenario: Scenario,
        tick: Duration,
    ) -> Self {
        RtConsensus {
            dep: ConsensusDeployment::with_setup(rqs, proposers, learners, scenario, tick),
        }
    }

    /// The substrate-generic deployment driver underneath.
    pub fn deployment(&mut self) -> &mut ConsensusDeployment<Runtime<ConsensusMsg>> {
        &mut self.dep
    }

    /// Proposer `i` proposes `value`; returns the wall-clock latency until
    /// **all** learners learned.
    ///
    /// # Panics
    ///
    /// Panics if learning does not complete within the operation timeout.
    pub fn propose_and_learn(&mut self, i: usize, value: ProposalValue) -> Duration {
        let start = Instant::now();
        self.dep.propose(i, value);
        assert!(self.dep.run_until_learned(0), "learners did not learn");
        start.elapsed()
    }

    /// Learned value of learner `i`.
    pub fn learned(&self, i: usize) -> Option<ProposalValue> {
        self.dep.learned(i)
    }

    /// Stops all threads.
    pub fn shutdown(&mut self) {
        self.dep.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs_core::threshold::ThresholdConfig;

    #[test]
    fn threaded_consensus_learns() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut c = RtConsensus::new(rqs, 2, 2);
        let wall = c.propose_and_learn(0, 42);
        assert_eq!(c.learned(0), Some(42));
        assert_eq!(c.learned(1), Some(42));
        assert!(wall < Duration::from_secs(5));
        c.shutdown();
    }
}
