//! # Threaded runtime for RQS protocols
//!
//! Runs the exact same automatons as the deterministic simulator
//! ([`rqs_sim`]) on real OS threads connected by crossbeam channels, with
//! protocol timers mapped to wall-clock durations. This is the deployment
//! behind the wall-clock benchmarks (experiment E11): identical protocol
//! logic, real concurrency and latency.
//!
//! [`Runtime`] implements [`rqs_sim::Substrate`], so the substrate-generic
//! deployment drivers (`StorageDeployment`, `ConsensusDeployment`,
//! `KvDeployment`) run here unchanged, including declarative
//! [`rqs_sim::Scenario`] fault injection (link rules are decided in the
//! runtime's send path; delayed messages and crash plans ride its one
//! clock thread).
//!
//! - [`runtime`] — the generic node-per-thread executor;
//! - [`storage`] — [`RtStorage`], a threaded atomic-storage deployment;
//! - [`consensus`] — [`RtConsensus`], a threaded consensus deployment.
//!
//! ```no_run
//! use rqs_core::threshold::ThresholdConfig;
//! use rqs_runtime::RtStorage;
//!
//! let rqs = ThresholdConfig::crash_fast(5, 1).build()?;
//! let mut storage = RtStorage::new(rqs, 1);
//! let (w, wall) = storage.write(7u64.into());
//! println!("write took {} round(s), {wall:?} wall-clock", w.rounds);
//! storage.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod consensus;
pub mod runtime;
pub mod storage;

pub use consensus::RtConsensus;
pub use runtime::{Runtime, DEFAULT_TICK};
pub use storage::RtStorage;
