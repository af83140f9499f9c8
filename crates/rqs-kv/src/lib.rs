//! # rqs-kv — a sharded, batched multi-object KV service over RQS storage
//!
//! The storage algorithm of *Refined Quorum Systems* (Guerraoui &
//! Vukolić, §3) is a single SWMR register. This crate turns it into a
//! key-value *service*: many registers ("objects") multiplexed over one
//! server set, many concurrent clients, and per-destination message
//! batching — while the per-object protocol remains byte-for-byte the
//! paper's algorithm (the unmodified [`Writer`](rqs_storage::Writer) and
//! [`Reader`](rqs_storage::Reader) automata run inside every client).
//!
//! Architecture:
//!
//! - [`object`] — [`ObjectId`] and the [`ShardMap`]: keys hash to
//!   objects; each object is owned (written) by exactly one client, so
//!   the SWMR assumption holds per object;
//! - [`messages`] — [`KvBatch`] and the shared [`BatchAccumulator`]:
//!   every envelope carries all the object-tagged protocol messages one
//!   step produced for one destination, so `B` concurrent operations
//!   cost far fewer than `B×` envelopes;
//! - [`server`] — [`KvServer`]: per-object benign server state behind one
//!   node id, plus Byzantine variants for fault injection;
//! - [`client`] — [`KvClient`]: multiplexes per-object writers/readers,
//!   routes timers, batches sends, logs outcomes;
//! - [`workload`] — seeded, deterministic workload generation (read/write
//!   mix, hot-set skew);
//! - [`metrics`] — throughput, round histograms, fast-path ratio,
//!   envelopes-per-operation;
//! - [`deploy`] — [`KvDeployment`], the **one** deployment driver,
//!   generic over [`Substrate`](rqs_sim::Substrate): [`KvSim`] (the
//!   deterministic world) and [`RtKv`] (the threaded runtime) are
//!   aliases of it, and declarative [`Scenario`](rqs_sim::Scenario)
//!   fault injection works identically on both.
//!
//! ## Quick start
//!
//! ```
//! use rqs_core::threshold::ThresholdConfig;
//! use rqs_kv::{KvSim, WorkloadConfig, workload};
//!
//! // The paper's Byzantine instantiation, 16 objects, 4 clients.
//! let rqs = ThresholdConfig::byzantine_fast(1).build()?;
//! let mut kv = KvSim::new(rqs, 16, 4);
//! let cfg = WorkloadConfig::mixed(16, 4, 64, 7);
//! let stats = kv.run_workload(&workload::generate(&cfg), 4);
//! assert_eq!(stats.ops, 64);
//! kv.check_atomicity()?; // every per-object history linearizes
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod deploy;
pub mod messages;
pub mod metrics;
pub mod object;
pub mod server;
pub mod workload;

pub use client::{KvClient, KvOp, KvOutcome, RetryStats};
pub use deploy::{KvAtomicityViolation, KvDeployment, KvSim, RtKv};
pub use messages::{BatchAccumulator, KvBatch, KvItem, Lane};
pub use metrics::{KvRunStats, RoundHistogram};
pub use object::{ObjectId, ShardMap};
pub use server::{ByzantineMode, KvByzantineServer, KvServer};
pub use workload::{WorkloadConfig, WorkloadOp};
