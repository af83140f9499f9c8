//! **E15 (KV service)** — the sharded, batched multi-object KV layer:
//!
//! - **batching**: for a fixed seeded workload, envelopes per operation
//!   must *decrease* as the per-client batch size grows (the whole point
//!   of coalescing per-destination traffic);
//! - **substrates**: the same workload runs deterministically on the
//!   simulator (with per-object atomicity checked, including under a
//!   forging Byzantine server) and on the threaded runtime, reporting
//!   throughput, fast-path ratio and the round histogram on both.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, ByzantineMode, KvRunStats, KvSim, RtKv, WorkloadConfig};
use rqs_obs::{NopTracer, ObsHandle};
use rqs_sim::Scenario;
use std::sync::Arc;
use std::time::Duration;

/// Workload dimensions for the E15 runs.
#[derive(Clone, Copy, Debug)]
pub struct KvParams {
    /// Objects in the key space.
    pub objects: usize,
    /// Clients (each owns `objects / clients` objects).
    pub clients: usize,
    /// Total operations.
    pub ops: usize,
    /// Per-lane client pipeline depth (≥ 1). The recorded experiment
    /// keeps depth 1 (waves of `batch` ops, one per lane), so its rows
    /// isolate batching; override with `--pipeline`.
    pub pipeline: usize,
}

impl KvParams {
    /// Full-size parameters (the recorded experiment).
    pub fn full() -> Self {
        KvParams {
            objects: 16,
            clients: 4,
            ops: 240,
            pipeline: 1,
        }
    }

    /// Small parameters for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        KvParams {
            objects: 8,
            clients: 2,
            ops: 40,
            pipeline: 1,
        }
    }

    /// Picks full or quick parameters.
    pub fn for_mode(quick: bool) -> Self {
        if quick {
            Self::quick()
        } else {
            Self::full()
        }
    }

    /// Applies the `--pipeline` command-line override.
    pub fn with_overrides(mut self, pipeline: Option<usize>) -> Self {
        if let Some(depth) = pipeline {
            self.pipeline = depth;
        }
        self
    }

    fn workload_config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig::mixed(self.objects, self.clients, self.ops, seed)
    }
}

/// Runs the fixed workload at each batch size on a fresh sim deployment;
/// returns `(batch, stats)` rows. Every run is atomicity-checked.
pub fn run_batching(
    seed: u64,
    params: KvParams,
    batch_sizes: &[usize],
) -> Vec<(usize, KvRunStats)> {
    let cfg = params.workload_config(seed);
    let ops = workload::generate(&cfg);
    batch_sizes
        .iter()
        .map(|&batch| {
            let rqs = ThresholdConfig::byzantine_fast(1)
                .build()
                .expect("valid rqs");
            let mut sim = KvSim::new(rqs, params.objects, params.clients);
            sim.set_pipeline(params.pipeline);
            let stats = sim.run_workload(&ops, batch);
            sim.check_atomicity().expect("per-object atomicity");
            (batch, stats)
        })
        .collect()
}

/// Runs the workload on the simulator, optionally with one forging
/// Byzantine server, checking per-object atomicity.
pub fn run_sim(seed: u64, params: KvParams, batch: usize, byzantine: bool) -> KvRunStats {
    run_sim_traced(seed, params, batch, byzantine, Arc::new(NopTracer))
}

/// [`run_sim`] with a structured-trace sink threaded through every
/// layer (substrate, servers, client lanes) — what `exp_kv --trace`
/// uses to produce a Chrome trace-event export.
pub fn run_sim_traced(
    seed: u64,
    params: KvParams,
    batch: usize,
    byzantine: bool,
    tracer: ObsHandle,
) -> KvRunStats {
    let rqs = ThresholdConfig::byzantine_fast(1)
        .build()
        .expect("valid rqs");
    let mut sim = KvSim::with_setup_traced(
        rqs,
        params.objects,
        params.clients,
        Scenario::default(),
        rqs_sim::DEFAULT_TICK,
        Vec::new(),
        tracer,
    );
    if byzantine {
        sim.make_byzantine(0, ByzantineMode::Forge);
    }
    sim.set_pipeline(params.pipeline);
    let cfg = params.workload_config(seed);
    let stats = sim.run_workload(&workload::generate(&cfg), batch);
    sim.check_atomicity().expect("per-object atomicity");
    stats
}

/// Runs the workload on the threaded runtime (1 ms ticks).
pub fn run_threaded(seed: u64, params: KvParams, batch: usize) -> KvRunStats {
    let rqs = ThresholdConfig::byzantine_fast(1)
        .build()
        .expect("valid rqs");
    let mut kv = RtKv::with_tick(
        rqs,
        params.objects,
        params.clients,
        Duration::from_millis(1),
    );
    kv.set_pipeline(params.pipeline);
    let cfg = params.workload_config(seed);
    let stats = kv.run_workload(&workload::generate(&cfg), batch);
    kv.shutdown();
    stats
}

/// The batching table: envelopes/op must decrease with batch size.
pub fn batching_report(seed: u64, quick: bool) -> Report {
    batching_report_params(seed, KvParams::for_mode(quick))
}

/// [`batching_report`] with explicit (possibly CLI-overridden)
/// parameters.
pub fn batching_report_params(seed: u64, params: KvParams) -> Report {
    let rows = run_batching(seed, params, &[1, 2, 4, 8]);
    let mut r = Report::new("E15a (rqs-kv batching)");
    r.note(format!(
        "{} objects, {} clients, {} mixed ops over n=4 byzantine_fast(1), seed {seed}",
        params.objects, params.clients, params.ops
    ));
    r.note("envelopes/op must DECREASE as the per-client batch size grows");
    r.headers([
        "batch",
        "envelopes",
        "env/op",
        "msgs/env",
        "ticks",
        "ops/tick",
        "fast-path",
    ]);
    for (batch, stats) in &rows {
        r.row([
            batch.to_string(),
            stats.envelopes.to_string(),
            format!("{:.2}", stats.envelopes_per_op()),
            format!("{:.2}", stats.batching_factor()),
            stats.duration_units.to_string(),
            format!("{:.2}", stats.throughput()),
            format!("{:.2}", stats.rounds.fast_path_ratio()),
        ]);
    }
    let decreasing = rows
        .windows(2)
        .all(|w| w[1].1.envelopes_per_op() < w[0].1.envelopes_per_op());
    r.note(format!(
        "envelopes/op strictly decreasing across batch sizes: {decreasing}"
    ));
    r
}

/// The substrate table: sim (correct and Byzantine) vs threaded runtime.
pub fn substrate_report(seed: u64, quick: bool) -> Report {
    substrate_report_inner(seed, KvParams::for_mode(quick), true, Arc::new(NopTracer))
}

/// [`substrate_report`] with a trace sink and explicit (possibly
/// CLI-overridden) parameters: the all-correct sim run is instrumented
/// end to end (the other rows stay untraced so the ring buffer holds
/// one coherent run).
pub fn substrate_report_traced(seed: u64, params: KvParams, tracer: ObsHandle) -> Report {
    substrate_report_inner(seed, params, true, tracer)
}

/// The substrate table without the threaded-runtime row: fully
/// deterministic, no OS threads — what [`crate::all_reports_seeded`]
/// uses so test suites over the report set stay timing-independent.
pub fn substrate_report_sim(seed: u64, quick: bool) -> Report {
    substrate_report_inner(seed, KvParams::for_mode(quick), false, Arc::new(NopTracer))
}

fn substrate_report_inner(
    seed: u64,
    params: KvParams,
    threaded: bool,
    tracer: ObsHandle,
) -> Report {
    let batch = 4;
    let sim = run_sim_traced(seed, params, batch, false, tracer);
    let byz = run_sim(seed, params, batch, true);
    let mut r = Report::new("E15b (rqs-kv substrates)");
    r.note(format!(
        "{} objects, {} clients, {} mixed ops, batch {batch}, pipeline {}, \
         seed {seed}",
        params.objects, params.clients, params.ops, params.pipeline
    ));
    r.note("sim rows are atomicity-checked per object (incl. 1 forging Byzantine server)");
    r.note("slow-path column attributes off-fast-path ops to the paper's degradation causes");
    r.headers([
        "substrate",
        "ops",
        "throughput",
        "fast-path",
        "rounds",
        "slow-path",
    ]);
    r.row([
        "sim (all correct)".to_string(),
        sim.ops.to_string(),
        format!("{:.2} ops/tick", sim.throughput()),
        format!("{:.2}", sim.rounds.fast_path_ratio()),
        sim.rounds.render(),
        sim.attribution.slow_summary(),
    ]);
    r.row([
        "sim (1 Byzantine)".to_string(),
        byz.ops.to_string(),
        format!("{:.2} ops/tick", byz.throughput()),
        format!("{:.2}", byz.rounds.fast_path_ratio()),
        byz.rounds.render(),
        byz.attribution.slow_summary(),
    ]);
    if threaded {
        let rt = run_threaded(seed, params, batch);
        r.row([
            "threaded (1ms tick)".to_string(),
            rt.ops.to_string(),
            format!("{:.0} ops/s", rt.throughput() * 1e6),
            format!("{:.2}", rt.rounds.fast_path_ratio()),
            rt.rounds.render(),
            rt.attribution.slow_summary(),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_strictly_reduces_envelopes_per_op() {
        let rows = run_batching(3, KvParams::quick(), &[1, 2, 4, 8]);
        for w in rows.windows(2) {
            assert!(
                w[1].1.envelopes_per_op() < w[0].1.envelopes_per_op(),
                "batch {} ({:.2} env/op) must beat batch {} ({:.2} env/op)",
                w[1].0,
                w[1].1.envelopes_per_op(),
                w[0].0,
                w[0].1.envelopes_per_op(),
            );
        }
    }

    #[test]
    fn sim_runs_report_fast_path() {
        let stats = run_sim(5, KvParams::quick(), 4, false);
        assert_eq!(stats.ops, KvParams::quick().ops);
        assert!(stats.rounds.fast_path_ratio() > 0.5);
    }

    #[test]
    fn byzantine_sim_completes_all_ops() {
        let stats = run_sim(5, KvParams::quick(), 4, true);
        assert_eq!(stats.ops, KvParams::quick().ops);
    }

    #[test]
    fn reports_render() {
        let r = batching_report(1, true);
        assert!(r.to_string().contains("E15a"));
        assert!(r.cell("batch", |row| row[0] == "8").is_some());
    }

    #[test]
    fn traced_sim_fills_the_flight_recorder() {
        use rqs_obs::Tracer;
        let rec = rqs_obs::FlightRecorder::for_export();
        let tracer: ObsHandle = rec.clone();
        let stats = run_sim_traced(5, KvParams::quick(), 4, false, tracer);
        assert_eq!(stats.ops, KvParams::quick().ops);
        let events = rec.snapshot();
        assert!(!events.is_empty(), "traced run must record events");
        let json = rqs_obs::chrome_trace(&events);
        let (chrome, round_trip) = rqs_obs::parse_chrome_trace(&json).expect("valid export");
        assert!(!chrome.is_empty());
        assert_eq!(round_trip, events);
    }
}
