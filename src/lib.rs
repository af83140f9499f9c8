//! # rqs — Refined Quorum Systems
//!
//! A production-quality Rust reproduction of *Refined Quorum Systems*
//! (Rachid Guerraoui and Marko Vukolić, PODC 2007 / EPFL
//! LPD-REPORT-2007-002): the refined-quorum abstraction itself, the
//! optimally-resilient best-case-optimal Byzantine **atomic storage** and
//! **consensus** algorithms built on it, a deterministic simulation
//! substrate able to replay the paper's indistinguishability executions,
//! and a threaded runtime for wall-clock measurements.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`core`] ([`rqs_core`]) — process sets, adversary structures,
//!   quorum classes, Properties 1–3, threshold constructions, analysis;
//! - [`sim`] ([`rqs_sim`]) — the deterministic discrete-event simulator,
//!   plus the [`Substrate`](rqs_sim::Substrate) abstraction every
//!   deployment driver is generic over and the declarative
//!   [`Scenario`](rqs_sim::Scenario) fault engine (partitions with heal
//!   times, lossy/duplicating links, crash-restart, Byzantine swap-in)
//!   that runs identically on both substrates;
//! - [`crypto`] ([`rqs_crypto`]) — simulated unforgeable signatures;
//! - [`storage`] ([`rqs_storage`]) — the SWMR atomic storage (Figs. 5–7)
//!   plus ABD and naive baselines, deployed by the substrate-generic
//!   `StorageDeployment`;
//! - [`consensus`] ([`rqs_consensus`]) — the consensus algorithm
//!   (Figs. 9–15) with its `choose()` safety core, deployed by the
//!   substrate-generic `ConsensusDeployment`;
//! - [`runtime`] ([`rqs_runtime`]) — the node-per-thread
//!   [`Substrate`](rqs_sim::Substrate) implementation over crossbeam
//!   channels (scenarios are decided in its send path; what they delay
//!   rides its one clock thread);
//! - [`check`] ([`rqs_check`]) — systematic schedule exploration (model
//!   checking) over the deterministic world: bounded DFS with state-hash
//!   deduplication and fault branching, seeded random walks, pluggable
//!   invariants (SWMR atomicity, consensus agreement/validity, fast-path
//!   bounds), counterexample shrinking and replay;
//! - [`kv`] ([`rqs_kv`]) — the sharded, batched multi-object KV service:
//!   many SWMR registers multiplexed over one server set, with
//!   per-object atomicity checking, a seeded workload generator, and one
//!   substrate-generic `KvDeployment` driver (`KvSim`/`RtKv` are its
//!   aliases);
//! - [`obs`] ([`rqs_obs`]) — end-to-end observability: the
//!   [`Tracer`](rqs_obs::Tracer) trait with a lock-free flight recorder
//!   and a zero-overhead no-op sink, typed trace events emitted from
//!   every layer on both substrates, log-bucketed latency histograms,
//!   slow-path latency-class attribution (the paper's degradation
//!   conditions), and Chrome trace-event export.
//!
//! ## Two results in two dozen lines
//!
//! ```
//! use rqs::core::threshold::ThresholdConfig;
//! use rqs::storage::StorageHarness;
//! use rqs::consensus::ConsensusHarness;
//!
//! // n = 3t+1 = 4 servers, one may be Byzantine (the paper's flagship
//! // instantiation: all quorums class 2, the full set class 1).
//! let rqs = ThresholdConfig::byzantine_fast(1).build()?;
//!
//! // Atomic storage: 1-round writes and reads in the best case.
//! let mut storage = StorageHarness::new(rqs.clone(), 1);
//! assert_eq!(storage.write("hello".into()).rounds, 1);
//! assert_eq!(storage.read(0).rounds, 1);
//! storage.check_atomicity()?;
//!
//! // Consensus: learners learn in 2 message delays in the best case.
//! let mut consensus = ConsensusHarness::new(rqs, 2, 2);
//! consensus.propose(0, 42);
//! assert!(consensus.run_until_learned(100_000));
//! assert_eq!(consensus.agreed_value(), Some(42));
//! assert!(consensus.learner_delays().iter().all(|d| *d == Some(2)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rqs_check as check;
pub use rqs_consensus as consensus;
pub use rqs_core as core;
pub use rqs_crypto as crypto;
pub use rqs_kv as kv;
pub use rqs_obs as obs;
pub use rqs_runtime as runtime;
pub use rqs_sim as sim;
pub use rqs_storage as storage;

pub use rqs_core::{Adversary, ProcessId, ProcessSet, QuorumClass, QuorumId, Rqs, ThresholdConfig};
