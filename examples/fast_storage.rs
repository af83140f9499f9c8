//! A distributed disk array in the style the paper's introduction
//! motivates (FAB-like storage from commodity components, §1.3):
//! a write-ahead metadata register replicated across bricks, where
//! best-case latency matters and bricks may fail — some arbitrarily.
//!
//! Demonstrates:
//! - a real (threaded, channel-connected) deployment via `rqs_runtime`;
//! - wall-clock latencies of the 1-round fast path;
//! - deterministic replay of a misbehaving brick in the simulator, with
//!   the atomicity checker as the correctness oracle.
//!
//! ```sh
//! cargo run --example fast_storage
//! ```

use rqs::core::threshold::ThresholdConfig;
use rqs::runtime::Runtime;
use rqs::sim::Scenario;
use rqs::storage::byzantine::ForgedServer;
use rqs::storage::{StorageDeployment, StorageHarness, StorageMsg, TsVal, Value};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 7 bricks; up to 2 may be down, 1 of those arbitrarily faulty.
    let config = ThresholdConfig::new(7, 2, 1).with_class1(0).with_class2(1);
    println!("disk-array metadata register over {config}");

    // --- Part 1: threaded deployment, wall-clock numbers --------------
    println!("\n[threaded runtime] 20 write/read pairs on live threads:");
    let tick = Duration::from_micros(500);
    let mut array: StorageDeployment<Runtime<StorageMsg>> =
        StorageDeployment::with_setup(config.build()?, 1, Scenario::default(), tick);
    let mut write_total = Duration::ZERO;
    let mut read_total = Duration::ZERO;
    for i in 0..20u64 {
        let start = Instant::now();
        let w = array.write(Value::from(i));
        write_total += start.elapsed();
        let start = Instant::now();
        let r = array.read(0);
        read_total += start.elapsed();
        assert_eq!(r.returned.val, Value::from(i));
        assert_eq!(w.rounds, 1, "all bricks alive: fast path");
    }
    println!("  mean write latency: {:?} (1 round)", write_total / 20);
    println!("  mean read  latency: {:?} (1 round)", read_total / 20);
    array.shutdown();

    // --- Part 2: deterministic replay of a lying brick -----------------
    println!("\n[simulator] a brick advertises a fabricated newer version:");
    let mut sim = StorageHarness::new(config.build()?, 1);
    sim.write(Value::from(1u64));
    // Brick 6 turns Byzantine and fabricates version 99.
    let fabricated = TsVal::new(99, Value::from(0xDEAD_u64));
    sim.make_byzantine(6, Box::new(ForgedServer::with_slot1(&fabricated)));
    let read = sim.read(0);
    println!(
        "  read returned {} in {} round(s) — the fabricated ⟨99,…⟩ was ignored",
        read.returned, read.rounds
    );
    assert_eq!(read.returned.ts, 1, "fabrication must not be returned");
    sim.check_atomicity()?;
    println!("  atomicity checker: ok");

    Ok(())
}
