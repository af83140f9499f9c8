//! Atomic storage on the runtime, driven through the substrate-generic
//! [`rqs_storage::StorageDeployment`] with wall-clock latency measured
//! around each operation.

#[cfg(test)]
mod tests {
    use crate::Runtime;
    use rqs_core::threshold::ThresholdConfig;
    use rqs_storage::{StorageDeployment, StorageMsg};
    use std::time::{Duration, Instant};

    #[test]
    fn threaded_write_read_roundtrip() {
        let rqs = ThresholdConfig::crash_fast(5, 1).build().unwrap();
        let mut st = StorageDeployment::<Runtime<StorageMsg>>::new(rqs, 1);
        let start = Instant::now();
        let w = st.write(7u64.into());
        let w_wall = start.elapsed();
        assert_eq!(w.rounds, 1, "all servers alive: fast path");
        let start = Instant::now();
        let r = st.read(0);
        let r_wall = start.elapsed();
        assert_eq!(r.returned.val, 7u64.into());
        assert_eq!(r.rounds, 1);
        assert!(w_wall < Duration::from_secs(5));
        assert!(r_wall < Duration::from_secs(5));
        st.shutdown();
    }

    #[test]
    fn threaded_sequence_of_operations() {
        let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
        let mut st = StorageDeployment::<Runtime<StorageMsg>>::new(rqs, 2);
        for v in 1..=3u64 {
            st.write(v.into());
            let r0 = st.read(0);
            let r1 = st.read(1);
            assert_eq!(r0.returned.val, v.into());
            assert_eq!(r1.returned.val, v.into());
        }
        // The generic driver checks atomicity on the runtime too.
        st.check_atomicity().unwrap();
        st.shutdown();
    }
}
