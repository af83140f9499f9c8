//! # Deterministic simulation substrate for RQS protocols
//!
//! This crate implements the execution model of *Refined Quorum Systems*
//! (Guerraoui & Vukolić): deterministic I/O automata connected by
//! point-to-point channels under a global clock, with
//!
//! - configurable synchrony (`Δ`-bounded delivery) and asynchrony
//!   (arbitrary delay, duplication, drops),
//! - crash fault injection at arbitrary times,
//! - Byzantine fault injection by automaton substitution,
//! - one link language for both substrates: a [`Scenario`]'s link rules
//!   decide each message's [`Fate`] ([`ScenarioNet`]); closure
//!   [`FatePolicy`]s pick fates by message content, as the executions of
//!   the paper's Figures 1, 4, 8 and 16 need,
//! - one [`Agenda`] of deliveries, timers, crashes and restarts in
//!   `(time, sequence)` order, shared with the threaded runtime, so every
//!   simulated execution is exactly reproducible,
//! - a pluggable [`Scheduler`] seam over the pending-event set, turning
//!   the same world into an adversarial scheduler for systematic schedule
//!   exploration (see the `rqs-check` crate).
//!
//! One tick of simulated time is one synchronous message delay (`Δ = 1`),
//! so consensus "message delays" are read directly off the clock and
//! storage "rounds" are counted by the client automata.
//!
//! ## Quick start
//!
//! ```
//! use rqs_sim::{World, Automaton, Context, NodeId, ScenarioNet};
//! use std::any::Any;
//!
//! #[derive(Default)]
//! struct Counter { seen: usize }
//! impl Automaton<&'static str> for Counter {
//!     fn on_message(&mut self, _f: NodeId, _m: &'static str, _c: &mut Context<&'static str>) {
//!         self.seen += 1;
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut world = World::new(ScenarioNet::benign());
//! let a = world.add_node(Box::new(Counter::default()));
//! let b = world.add_node(Box::new(Counter::default()));
//! world.post(a, b, "hello");
//! world.run_to_quiescence();
//! assert_eq!(world.node_as::<Counter>(b).seen, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agenda;
pub mod network;
pub mod node;
pub mod scenario;
pub mod sched;
pub mod substrate;
pub mod time;
pub mod world;

pub use agenda::{Agenda, Due, Entry};
pub use network::{Envelope, Fate, FatePolicy, Selector};
pub use node::{Automaton, Context, NodeId, TimerToken};
pub use scenario::{CrashMode, CrashPlan, LinkEffect, LinkRule, Scenario, ScenarioNet};
pub use sched::{fnv1a, fnv1a_fold, PendingEvent, PendingKind, SchedDecision, Scheduler};
pub use substrate::{
    Substrate, SubstrateConfig, SubstrateStats, DEFAULT_AWAIT_STEPS, DEFAULT_OP_TIMEOUT,
    DEFAULT_TICK,
};
pub use time::Time;
pub use world::{TraceEntry, World, WorldStats};

/// The synchrony bound `Δ` in ticks: one tick per message delay.
pub const DELTA: u64 = 1;
