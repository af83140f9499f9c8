//! # Threaded runtime for RQS protocols
//!
//! Runs the exact same automatons as the deterministic simulator
//! ([`rqs_sim`]) on real OS threads connected by channels, with protocol
//! timers mapped to wall-clock durations. This is the deployment behind
//! the wall-clock benchmarks (experiment E11): identical protocol logic,
//! real concurrency and latency.
//!
//! [`Runtime`] is reached only through [`rqs_sim::Substrate`], so the
//! substrate-generic deployment drivers (`StorageDeployment`,
//! `ConsensusDeployment`, `KvDeployment`) run here unchanged, including
//! declarative [`rqs_sim::Scenario`] fault injection: link rules are
//! decided in the runtime's send path, and delayed messages, timers and
//! crash plans are entries on the simulator's [`rqs_sim::Agenda`], served
//! by one clock thread.
//!
//! ```no_run
//! use rqs_core::threshold::ThresholdConfig;
//! use rqs_runtime::Runtime;
//! use rqs_storage::{StorageDeployment, StorageMsg};
//! use std::time::Instant;
//!
//! let rqs = ThresholdConfig::crash_fast(5, 1).build()?;
//! let mut storage = StorageDeployment::<Runtime<StorageMsg>>::new(rqs, 1);
//! let start = Instant::now();
//! let w = storage.write(7u64.into());
//! println!("write took {} round(s), {:?} wall-clock", w.rounds, start.elapsed());
//! storage.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
mod consensus;
pub mod runtime;
#[cfg(test)]
mod storage;

pub use runtime::{Runtime, DEFAULT_TICK};
