//! The heap-allocation budget of a steady-state simulated op.
//!
//! A deployment shaped like the repo benchmark's `sim-hot-read` workload
//! (`byzantine_fast(1)`, 16 objects, 2 clients, pipeline depth 4, waves
//! of 8 per client, 95 % reads over histories of a few hundred writes)
//! runs warm-up waves, then a counted run of 4,000 ops. Every op there is
//! the paper's 1-round read or write, so what it allocates beyond its
//! envelopes is bookkeeping: a budget breach means some layer started
//! building per-op state again (a per-step context, a per-read buffer, a
//! map node per ack, a deep copy of history slots, a fresh empty value).
//!
//! This file is its own test binary because it installs a counting
//! global allocator; the count is per thread, so the harness's other
//! threads do not disturb it.

use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvClient, KvSim, WorkloadConfig, WorkloadOp};
use rqs_sim::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this never fails
    // while a thread is being torn down; `try_with` keeps it that way.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting what it is asked for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the added counter bump
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: our caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through us) with
        // `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: our caller upholds `realloc`'s contract for these
        // arguments, and `ptr` came from `System` through us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OBJECTS: usize = 16;
const CLIENTS: usize = 2;
const DEPTH: usize = 4;
const BATCH: usize = 8;

/// Heap allocations an op may cost, everything included: client, servers,
/// simulator, envelopes, the driver's harvest and the streaming checkers.
/// The parent of the change that set it measured 13.4 here, the change
/// itself 6.0.
const BUDGET_PER_OP: f64 = 7.5;

fn ops(count: usize, read_percent: u8, seed: u64) -> Vec<WorkloadOp> {
    workload::generate(&WorkloadConfig {
        objects: OBJECTS,
        clients: CLIENTS,
        ops: count,
        read_percent,
        skew: 0.0,
        seed,
    })
}

#[test]
fn a_steady_state_op_stays_inside_its_allocation_budget_and_idle_lanes_hold_no_timers() {
    let rqs = ThresholdConfig::byzantine_fast(1).build().unwrap();
    let mut sim = KvSim::new(rqs, OBJECTS, CLIENTS);
    sim.set_pipeline(DEPTH);
    // Histories of ≈ 20 timestamps per object, then warm-up waves: every
    // lane, buffer and map has met its steady-state size.
    sim.run_workload(&ops(320, 0, 7), BATCH);
    sim.run_workload(&ops(2_000, 95, 8), BATCH);

    let counted = ops(4_000, 95, 9);
    let before = allocations();
    let stats = sim.run_workload(&counted, BATCH);
    let per_op = (allocations() - before) as f64 / counted.len() as f64;
    assert_eq!(stats.ops, counted.len());
    assert_eq!(stats.rounds.fast_path_ratio(), 1.0, "every op is 1-round");
    sim.check_atomicity().unwrap();
    println!("allocations per op: {per_op:.2} (budget {BUDGET_PER_OP})");
    assert!(
        per_op <= BUDGET_PER_OP,
        "{per_op:.2} allocations per op, budget {BUDGET_PER_OP}"
    );

    let servers = sim.servers().len();
    for client in (servers..servers + CLIENTS).map(NodeId) {
        let client = sim.world_mut().node_as::<KvClient>(client);
        assert_eq!(client.in_flight(), 0);
        assert_eq!(
            client.pending_timers(),
            0,
            "every lane is idle, so every timer it armed fired or was cancelled"
        );
    }
}
