//! Threaded deployment of the RQS atomic storage: a thin wall-clock
//! wrapper around the substrate-generic
//! [`StorageDeployment`], instantiated on
//! [`Runtime`]. Same automatons and driver code as the simulator harness,
//! real wall-clock latency.

use crate::runtime::{Runtime, DEFAULT_TICK};
use rqs_core::Rqs;
use rqs_sim::Scenario;
use rqs_storage::{ReadOutcome, StorageDeployment, StorageMsg, Value, WriteOutcome};
use std::time::{Duration, Instant};

/// A storage deployment over real threads and channels.
pub struct RtStorage {
    dep: StorageDeployment<Runtime<StorageMsg>>,
}

impl RtStorage {
    /// Deploys servers, one writer and `readers` reader clients over the
    /// given refined quorum system, with the default tick.
    pub fn new(rqs: Rqs, readers: usize) -> Self {
        Self::with_tick(rqs, readers, DEFAULT_TICK)
    }

    /// Deploys with an explicit tick length.
    pub fn with_tick(rqs: Rqs, readers: usize, tick: Duration) -> Self {
        Self::with_scenario(rqs, readers, Scenario::default(), tick)
    }

    /// Deploys under a fault scenario (link rules decided in the
    /// runtime's send path, crash plans on its clock).
    pub fn with_scenario(rqs: Rqs, readers: usize, scenario: Scenario, tick: Duration) -> Self {
        RtStorage {
            dep: StorageDeployment::with_setup(rqs, readers, scenario, tick),
        }
    }

    /// The substrate-generic deployment driver underneath.
    pub fn deployment(&mut self) -> &mut StorageDeployment<Runtime<StorageMsg>> {
        &mut self.dep
    }

    /// Performs a complete write and returns `(outcome, wall_latency)`.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within the operation timeout.
    pub fn write(&mut self, v: Value) -> (WriteOutcome, Duration) {
        let start = Instant::now();
        let out = self.dep.write(v);
        (out, start.elapsed())
    }

    /// Performs a complete read by reader `i`; returns
    /// `(outcome, wall_latency)`.
    ///
    /// # Panics
    ///
    /// Panics if the read does not complete within the operation timeout.
    pub fn read(&mut self, i: usize) -> (ReadOutcome, Duration) {
        let start = Instant::now();
        let out = self.dep.read(i);
        (out, start.elapsed())
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
    fn threaded_write_read_roundtrip() {
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut st = RtStorage::new(rqs, 1);
        let (w, w_wall) = st.write(7u64.into());
        assert_eq!(w.rounds, 1, "all servers alive: fast path");
        let (r, r_wall) = st.read(0);
        assert_eq!(r.returned.val, 7u64.into());
        assert_eq!(r.rounds, 1);
        assert!(w_wall < Duration::from_secs(5));
        assert!(r_wall < Duration::from_secs(5));
        st.shutdown();
    }

    #[test]
    fn threaded_sequence_of_operations() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut st = RtStorage::new(rqs, 2);
        for v in 1..=3u64 {
            st.write(v.into());
            let (r0, _) = st.read(0);
            let (r1, _) = st.read(1);
            assert_eq!(r0.returned.val, v.into());
            assert_eq!(r1.returned.val, v.into());
        }
        // The generic driver checks atomicity on the runtime too.
        st.deployment().check_atomicity().unwrap();
        st.shutdown();
    }
}
