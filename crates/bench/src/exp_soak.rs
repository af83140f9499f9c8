//! **E18 (streaming-validation soak)** — a long KV workload on the
//! threaded runtime with the streaming checkers validating every
//! operation *while the workload runs*, wave by wave:
//!
//! - the driver keeps O(wave) memory (`retain_outcomes(false)`: no
//!   completed-op log) and the per-object checkers retire settled
//!   prefixes at every wave boundary, so validation memory tracks
//!   concurrency, not history length;
//! - the report records throughput, p50/p99 latency, envelopes/op,
//!   fast-path ratio, watchdog nudges per 1000 ops (a storm of them
//!   fails the run) and the checker counters (ops checked, retirement
//!   watermark, peak frontier) — the numbers committed as
//!   `BENCH_soak.json`.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvAtomicityViolation, KvRunStats, RtKv, WorkloadConfig};
use rqs_obs::{NopTracer, ObsHandle};
use rqs_sim::Scenario;
use std::sync::Arc;
use std::time::Duration;

/// Soak dimensions.
#[derive(Clone, Copy, Debug)]
pub struct SoakParams {
    /// Objects in the key space.
    pub objects: usize,
    /// Clients (each owns `objects / clients` objects).
    pub clients: usize,
    /// Total operations.
    pub ops: usize,
    /// Per-client wave size.
    pub batch: usize,
    /// Per-lane client pipeline depth (≥ 1; 1 = classic one-op-per-lane
    /// waves).
    pub pipeline: usize,
    /// Wall-clock tick length of the threaded runtime, in microseconds.
    pub tick_us: u64,
}

impl SoakParams {
    /// Full-size soak: ≥1M operations (the recorded experiment).
    ///
    /// The keyspace is deliberately wide: a benign server answers every
    /// read with its full per-object history (the paper's unbounded
    /// history, §5), so read cost grows with the writes an object has
    /// absorbed. Spreading 1M operations over 4096 objects keeps every
    /// history — and thus per-read cost — small, which is also the
    /// realistic shape for a KV soak.
    pub fn full() -> Self {
        SoakParams {
            objects: 4096,
            clients: 4,
            ops: 1_000_000,
            batch: 16,
            pipeline: 8,
            tick_us: 50,
        }
    }

    /// Small parameters for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        SoakParams {
            objects: 64,
            clients: 4,
            ops: 4000,
            batch: 16,
            pipeline: 8,
            tick_us: 50,
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
}

/// Watchdog nudges per 1000 ops above which a run over fault-free links
/// (where every nudge is congestion misread as loss) is a re-broadcast
/// storm: one reads 300–4,000 here (`benchmark/README.md`), the most
/// disturbed quick soak on record attributed 125 of 4,000 ops to a nudge.
pub(crate) const NUDGE_STORM_PER_KOP: f64 = 100.0;

/// One soak run: metrics (checker counters included), the atomicity
/// verdict, and the wall-clock duration of the workload phase.
pub struct SoakRun {
    /// Run metrics (`duration_units` is wall-clock microseconds).
    pub stats: KvRunStats,
    /// The streaming checkers' verdict.
    pub verdict: Result<(), KvAtomicityViolation>,
    /// Wall-clock time of the workload (including harvest and checking,
    /// not including deployment setup).
    pub wall: Duration,
}

/// Watchdog nudges per 1000 completed ops of a run.
pub(crate) fn nudges_per_kop(stats: &KvRunStats) -> f64 {
    stats.retries.retries_issued as f64 * 1000.0 / stats.ops.max(1) as f64
}

/// `true` iff the run validated atomic and drew no re-broadcast storm.
pub fn passed(run: &SoakRun) -> bool {
    run.verdict.is_ok() && nudges_per_kop(&run.stats) <= NUDGE_STORM_PER_KOP
}

/// Runs the soak: threaded runtime, streaming validation, O(wave) driver
/// memory.
pub fn run_soak(seed: u64, params: SoakParams) -> SoakRun {
    run_soak_traced(seed, params, Arc::new(NopTracer))
}

/// [`run_soak`] with a structured-trace sink — what `exp_soak --trace`
/// uses. The flight recorder is a bounded ring, so on a million-op soak
/// the export holds the *tail* of the run.
pub fn run_soak_traced(seed: u64, params: SoakParams, tracer: ObsHandle) -> SoakRun {
    let rqs = ThresholdConfig::byzantine_fast(1)
        .build()
        .expect("valid rqs");
    let mut kv = RtKv::with_setup_traced(
        rqs,
        params.objects,
        params.clients,
        Scenario::default(),
        Duration::from_micros(params.tick_us),
        Vec::new(),
        tracer,
    );
    kv.retain_outcomes(false);
    kv.set_pipeline(params.pipeline);
    let cfg = WorkloadConfig::mixed(params.objects, params.clients, params.ops, seed);
    let ops = workload::generate(&cfg);
    let t0 = std::time::Instant::now();
    let stats = kv.run_workload(&ops, params.batch);
    let wall = t0.elapsed();
    let verdict = kv.check_atomicity();
    kv.shutdown();
    SoakRun {
        stats,
        verdict,
        wall,
    }
}

/// The E18 table.
pub fn report(seed: u64, quick: bool) -> Report {
    let params = SoakParams::for_mode(quick);
    let run = run_soak(seed, params);
    render(seed, params, &run)
}

/// Renders an already-executed soak as the E18 table (the binary checks
/// [`passed`] for its exit status, so it runs the soak itself).
pub fn render(seed: u64, params: SoakParams, run: &SoakRun) -> Report {
    let mut r = Report::new("E18 (streaming-validation soak)");
    r.note(format!(
        "{} ops, {} objects, {} clients, batch {}, pipeline {}, \
         {}us tick, seed {seed}, threaded runtime",
        params.ops, params.objects, params.clients, params.batch, params.pipeline, params.tick_us
    ));
    r.note(
        "every op is atomicity-checked at its wave boundary while the workload runs; \
         driver memory is O(wave), checker memory is O(concurrency)",
    );
    let stats = &run.stats;
    let checker = &stats.checker;
    let wall_s = run.wall.as_secs_f64().max(1e-9);
    let verdict = match &run.verdict {
        Ok(()) => "ok".to_string(),
        Err(v) => format!("VIOLATION {v}"),
    };
    r.headers(["metric", "value"]);
    r.row(["ops", &stats.ops.to_string()]);
    r.row(["ops/sec", &format!("{:.0}", stats.ops as f64 / wall_s)]);
    r.row([
        "p50 latency",
        &format!("{} ticks", stats.latency_percentile(50.0)),
    ]);
    r.row([
        "p99 latency",
        &format!("{} ticks", stats.latency_percentile(99.0)),
    ]);
    r.row(["envelopes/op", &format!("{:.2}", stats.envelopes_per_op())]);
    r.row([
        "fast-path ratio",
        &format!("{:.3}", stats.rounds.fast_path_ratio()),
    ]);
    r.row(["slow-path attribution", &stats.attribution.slow_summary()]);
    r.row(["nudges/kop", &format!("{:.1}", nudges_per_kop(stats))]);
    r.row([
        "checker ops/sec",
        &format!("{:.0}", checker.ops_checked as f64 / wall_s),
    ]);
    r.row(["checker ops_checked", &checker.ops_checked.to_string()]);
    r.row([
        "checker retired_watermark",
        &format!("{} ticks", checker.retired_watermark),
    ]);
    r.row(["checker retired_ops", &checker.retired_ops.to_string()]);
    r.row(["checker max_frontier", &checker.max_frontier.to_string()]);
    r.row(["atomicity", &verdict]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick soak validates every op with retirement keeping the
    /// frontier bounded by concurrency, not history — the whole point of
    /// E18 — and its fault-free links draw no re-broadcast storm.
    #[test]
    fn quick_soak_validates_all_ops_with_bounded_frontier() {
        let params = SoakParams::quick();
        let run = run_soak(11, params);
        assert!(run.verdict.is_ok(), "{:?}", run.verdict);
        assert_eq!(run.stats.ops, params.ops);
        let checker = run.stats.checker;
        assert_eq!(checker.ops_checked, params.ops as u64);
        assert!(checker.retired_ops > 0, "retirement must engage");
        // In-flight ops per object are bounded by clients × batch ×
        // pipeline depth; each resident op occupies up to 3 index
        // entries, plus anchor and boundary context per object.
        let bound = 3 * params.clients * params.batch * params.pipeline + 8 * params.objects;
        assert!(
            checker.max_frontier <= bound,
            "frontier {} exceeds concurrency bound {bound}",
            checker.max_frontier
        );
        assert!(passed(&run), "{} nudges/kop", nudges_per_kop(&run.stats));
    }

    #[test]
    fn report_renders_checker_rows() {
        // A tiny run (not `quick()`): this test only exercises rendering.
        let params = SoakParams {
            objects: 16,
            clients: 2,
            ops: 200,
            batch: 8,
            pipeline: 2,
            tick_us: 50,
        };
        let run = run_soak(11, params);
        let r = render(11, params, &run);
        assert!(r.to_string().contains("E18"));
        assert_eq!(r.cell("value", |row| row[0] == "atomicity"), Some("ok"));
        assert!(r
            .cell("value", |row| row[0] == "checker max_frontier")
            .is_some());
        let json = r.to_json();
        assert!(json.contains("checker ops/sec"));
        assert!(json.contains("retired_watermark"));
    }
}
