//! # RQS atomic storage
//!
//! The optimally-resilient, best-case-optimal SWMR Byzantine atomic
//! storage algorithm of *Refined Quorum Systems* (Guerraoui & Vukolić,
//! §3, Figures 5–7), implemented over the [`rqs_sim`] substrate, plus the
//! baselines it is evaluated against:
//!
//! - [`writer::Writer`] / [`server::Server`] / [`reader::Reader`] — the
//!   paper's three automata. Synchronous uncontended operations complete
//!   in 1 round when a correct class-1 quorum responds, 2 rounds for
//!   class 2, 3 rounds for class 3 (the algorithm is `(m, QCm)`-fast for
//!   `m ∈ {1,2,3}` — Theorem 9);
//! - [`abd`] — the classic crash-tolerant ABD storage (writes 1 round,
//!   reads always 2);
//! - [`naive`] — the §1.2 greedy algorithm that expedites at any quorum
//!   and therefore violates atomicity (Figure 1);
//! - [`byzantine`] — forged/scripted server behaviours for fault
//!   injection;
//! - [`atomicity`] — a linearizability checker for SWMR histories, now a
//!   wrapper over [`checker`], the incremental streaming sink with
//!   watermark retirement (bounded memory for soak-length histories);
//! - [`regular`] — the §6 extension: a regular (non-atomic) reader whose
//!   best-case reads are always one round, plus a regularity checker;
//! - [`harness::StorageHarness`] — one-call deployment driving whole
//!   operations and collecting checkable histories.
//!
//! ## Quick start
//!
//! ```
//! use rqs_core::threshold::ThresholdConfig;
//! use rqs_storage::StorageHarness;
//!
//! // The paper's Byzantine instantiation: n = 3t+1 = 4 servers, k = t = 1.
//! let rqs = ThresholdConfig::byzantine_fast(1).build()?;
//! let mut storage = StorageHarness::new(rqs, 1);
//! let write = storage.write("hello".into());
//! assert_eq!(write.rounds, 1); // all servers correct → fast path
//! let read = storage.read(0);
//! assert_eq!(read.returned.val, "hello".into());
//! storage.check_atomicity()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abd;
pub mod atomicity;
pub mod byzantine;
pub mod checker;
pub mod harness;
pub mod history;
pub mod messages;
pub mod naive;
pub mod predicates;
pub mod reader;
pub mod regular;
pub mod server;
pub mod value;
pub mod wal;
pub mod writer;

pub use atomicity::{
    check_atomicity, check_atomicity_reference, AtomicityViolation, OpKind, OpRecord,
};
pub use checker::{AtomicityChecker, CheckerStats};
pub use harness::{StorageDeployment, StorageHarness};
pub use history::{History, Slot};
pub use messages::StorageMsg;
pub use predicates::ReadView;
pub use reader::{ReadOutcome, Reader};
pub use regular::{check_regularity, RegularReadOutcome, RegularReader, RegularityViolation};
pub use server::Server;
pub use value::{Timestamp, TsVal, Value};
pub use wal::{decode_histories, encode_histories, restore_history, DeltaGroup, StorageDelta};
pub use writer::{WriteOutcome, Writer, CLIENT_TIMEOUT};
