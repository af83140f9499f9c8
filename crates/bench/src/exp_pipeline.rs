//! **E20 (hot-path throughput sweep)** — the client-pipelining sweep
//! on the threaded runtime:
//!
//! - each cell runs the same seeded mixed workload at one per-lane
//!   client pipeline depth, every operation validated by the streaming
//!   checkers while the workload runs;
//! - the report records ops/sec per cell, the speedup over the depth-1
//!   baseline cell and the watchdog's nudges per 1000 ops;
//! - atomicity is non-negotiable, and so is a quiet watchdog on these
//!   fault-free links: the binary exits non-zero if *any* cell reports a
//!   violation or a re-broadcast storm (the E18 threshold), so CI can
//!   run `exp_pipeline --quick --json` as a smoke step.
//!
//! Per-object SWMR order is preserved at any depth because a lane
//! issues its pipelined ops in program order and the per-object
//! sequence tags keep retries from reordering them; the sweep
//! demonstrates the throughput side of that bargain.

use crate::exp_soak::{nudges_per_kop, NUDGE_STORM_PER_KOP};
use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, RtKv, WorkloadConfig};
use rqs_sim::Scenario;
use std::time::Duration;

/// Sweep dimensions (the workload shape; the depths are
/// [`PipelineParams::grid`]).
#[derive(Clone, Copy, Debug)]
pub struct PipelineParams {
    /// Objects in the key space.
    pub objects: usize,
    /// Clients (each owns `objects / clients` objects).
    pub clients: usize,
    /// Operations per grid cell.
    pub ops: usize,
    /// Per-client wave size.
    pub batch: usize,
    /// Wall-clock tick length of the threaded runtime, in microseconds.
    pub tick_us: u64,
    /// `--pipeline N` override: sweep only this depth.
    pub pipeline: Option<usize>,
}

impl PipelineParams {
    /// Full-size sweep (the recorded experiment).
    pub fn full() -> Self {
        PipelineParams {
            objects: 1024,
            clients: 4,
            ops: 50_000,
            batch: 16,
            tick_us: 50,
            pipeline: None,
        }
    }

    /// Small parameters for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        PipelineParams {
            objects: 64,
            clients: 4,
            ops: 2000,
            batch: 16,
            tick_us: 50,
            pipeline: None,
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

    /// Applies the `--pipeline` command-line override: sweep only the
    /// given depth.
    pub fn with_overrides(mut self, pipeline: Option<usize>) -> Self {
        self.pipeline = pipeline.or(self.pipeline);
        self
    }

    /// The depths swept: the depth-1 baseline first, then 4 and 8 — or,
    /// under a `--pipeline` override, the baseline and that one depth
    /// (the baseline cell is kept so speedups stay anchored).
    pub fn grid(&self) -> Vec<usize> {
        match self.pipeline {
            Some(1) => vec![1],
            Some(d) => vec![1, d],
            None => vec![1, 4, 8],
        }
    }
}

/// One grid cell's outcome.
pub struct PipelineCell {
    /// Client pipeline depth of the cell.
    pub depth: usize,
    /// Wall-clock ops/sec of the workload phase.
    pub ops_per_sec: f64,
    /// p50 operation latency in ticks.
    pub p50: u64,
    /// p99 operation latency in ticks.
    pub p99: u64,
    /// Network envelopes per operation.
    pub envelopes_per_op: f64,
    /// Fraction of ops completing in the paper's fast path.
    pub fast_ratio: f64,
    /// Watchdog nudges per 1000 ops.
    pub nudges_per_kop: f64,
    /// The checkers' verdict (`None` = atomic).
    pub violation: Option<String>,
}

/// Runs one depth's cell: threaded runtime, streaming validation, fresh
/// deployment.
pub fn run_cell(seed: u64, params: PipelineParams, depth: usize) -> PipelineCell {
    let rqs = ThresholdConfig::byzantine_fast(1)
        .build()
        .expect("valid rqs");
    let mut kv = RtKv::with_setup(
        rqs,
        params.objects,
        params.clients,
        Scenario::default(),
        Duration::from_micros(params.tick_us),
    );
    kv.retain_outcomes(false);
    kv.set_pipeline(depth);
    let cfg = WorkloadConfig::mixed(params.objects, params.clients, params.ops, seed);
    let ops = workload::generate(&cfg);
    let t0 = std::time::Instant::now();
    let stats = kv.run_workload(&ops, params.batch);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let violation = kv.check_atomicity().err().map(|v| v.to_string());
    kv.shutdown();
    PipelineCell {
        depth,
        ops_per_sec: stats.ops as f64 / wall,
        p50: stats.latency_percentile(50.0),
        p99: stats.latency_percentile(99.0),
        envelopes_per_op: stats.envelopes_per_op(),
        fast_ratio: stats.rounds.fast_path_ratio(),
        nudges_per_kop: nudges_per_kop(&stats),
        violation,
    }
}

/// Runs the whole grid.
pub fn run_sweep(seed: u64, params: PipelineParams) -> Vec<PipelineCell> {
    params
        .grid()
        .into_iter()
        .map(|depth| run_cell(seed, params, depth))
        .collect()
}

/// `true` iff every cell validated atomic and drew no re-broadcast storm.
pub fn passed(cells: &[PipelineCell]) -> bool {
    cells
        .iter()
        .all(|c| c.violation.is_none() && c.nudges_per_kop <= NUDGE_STORM_PER_KOP)
}

/// The E20 table.
pub fn report(seed: u64, quick: bool) -> Report {
    let params = PipelineParams::for_mode(quick);
    let cells = run_sweep(seed, params);
    render(seed, params, &cells)
}

/// Renders an already-executed sweep as the E20 table (the binary
/// checks [`passed`] for its exit status, so it runs the sweep itself).
pub fn render(seed: u64, params: PipelineParams, cells: &[PipelineCell]) -> Report {
    let mut r = Report::new("E20 (hot-path throughput sweep)");
    r.note(format!(
        "{} ops/cell, {} objects, {} clients, batch {}, {}us tick, seed {seed}, \
         threaded runtime, every op atomicity-checked",
        params.ops, params.objects, params.clients, params.batch, params.tick_us
    ));
    r.note(
        "speedup is relative to the depth-1 baseline cell; \
         per-object SWMR order holds at every depth",
    );
    let baseline = cells.first().map_or(0.0, |c| c.ops_per_sec).max(1e-9);
    r.headers([
        "pipeline",
        "ops/sec",
        "speedup",
        "p50",
        "p99",
        "env/op",
        "fast-path",
        "nudges/kop",
        "atomicity",
    ]);
    for c in cells {
        r.row([
            c.depth.to_string(),
            format!("{:.0}", c.ops_per_sec),
            format!("{:.2}x", c.ops_per_sec / baseline),
            format!("{} ticks", c.p50),
            format!("{} ticks", c.p99),
            format!("{:.2}", c.envelopes_per_op),
            format!("{:.2}", c.fast_ratio),
            format!("{:.1}", c.nudges_per_kop),
            c.violation
                .clone()
                .map_or("ok".to_string(), |v| format!("VIOLATION {v}")),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_always_anchors_the_baseline_cell() {
        assert_eq!(PipelineParams::quick().grid(), vec![1, 4, 8]);
        // An override pins the depth but keeps the baseline anchor,
        // without duplicating it.
        let pinned = |d| PipelineParams::quick().with_overrides(Some(d)).grid();
        assert_eq!(pinned(4), vec![1, 4]);
        assert_eq!(pinned(1), vec![1]);
    }

    /// A tiny two-cell sweep: every cell validates atomic and the
    /// render wires cells into rows (perf ratios are asserted by the
    /// bench gate, not unit tests — wall-clock is too noisy here).
    #[test]
    fn tiny_sweep_is_atomic_and_renders() {
        let params = PipelineParams {
            objects: 16,
            clients: 2,
            ops: 120,
            batch: 8,
            tick_us: 50,
            pipeline: Some(4),
        };
        let cells = run_sweep(11, params);
        assert_eq!(cells.len(), 2);
        assert!(passed(&cells), "all cells atomic and storm-free");
        let r = render(11, params, &cells);
        let text = r.to_string();
        assert!(text.contains("E20"));
        assert_eq!(r.cell("atomicity", |row| row[0] == "4"), Some("ok"));
        assert!(r.cell("speedup", |row| row[0] == "1").is_some());
    }
}
