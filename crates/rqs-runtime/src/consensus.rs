//! Consensus on the runtime, driven through the substrate-generic
//! [`rqs_consensus::ConsensusDeployment`] with wall-clock latency
//! measured until every learner has learned.

#[cfg(test)]
mod tests {
    use crate::Runtime;
    use rqs_consensus::{ConsensusDeployment, ConsensusMsg};
    use rqs_core::threshold::ThresholdConfig;
    use std::time::{Duration, Instant};

    #[test]
    fn threaded_consensus_learns() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut c = ConsensusDeployment::<Runtime<ConsensusMsg>>::new(rqs, 2, 2);
        let start = Instant::now();
        c.propose(0, 42);
        assert!(c.run_until_learned(0), "learners did not learn");
        let wall = start.elapsed();
        assert_eq!(c.learned(0), Some(42));
        assert_eq!(c.learned(1), Some(42));
        assert!(wall < Duration::from_secs(5));
        c.shutdown();
    }
}
