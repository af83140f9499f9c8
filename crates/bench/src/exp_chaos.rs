//! **E19 (crash-recovery chaos soak)** — a KV workload on the threaded
//! runtime under *compound* faults: flaky links the whole time, plus
//! repeated **amnesia** crash/restart cycles that wipe a server's memory
//! and force it to rebuild every object from its write-ahead store:
//!
//! - servers journal to **file-backed** durable stores
//!   (`StoreHandle::file`, `sync_every = 1`: each append reaches the
//!   medium before the server acks — the write-ahead guarantee); an
//!   append is one record per handled envelope carrying every delta of
//!   it, and the run reports the mean group fill as `deltas/append`;
//! - between workload segments a rotating victim is crashed with
//!   [`CrashMode::Amnesia`] and immediately restarted; recovery must
//!   replay the victim's log (the run records how many restarts actually
//!   replayed records), and the recovered bank is checkpointed into a
//!   compacting snapshot so the next recovery replays only the deltas
//!   since — WAL replay stays bounded across cycles;
//! - the clients' loss watchdogs (a silent round is re-broadcast after
//!   one observed round trip beyond its timer, doubling, with
//!   deterministic jitter and duplicate-reply suppression — uncalibrated,
//!   as everywhere) ride out both the lossy links and the crash windows:
//!   the op count must come out exact, proving nudged ops are not
//!   double-counted;
//! - the streaming checkers validate **every** operation's atomicity
//!   while the workload runs.
//!
//! The recorded numbers are committed as `BENCH_chaos.json`.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvAtomicityViolation, KvRunStats, RtKv, WorkloadConfig};
use rqs_obs::{Obs, TraceEvent, TraceKind, Tracer};
use rqs_sim::{CrashMode, LinkEffect, LinkRule, Scenario};
use rqs_store::{StoreHandle, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Chaos-soak dimensions.
#[derive(Clone, Copy, Debug)]
pub struct ChaosParams {
    /// Objects in the key space.
    pub objects: usize,
    /// Clients (each owns `objects / clients` objects).
    pub clients: usize,
    /// Total operations (exactly this many must complete).
    pub ops: usize,
    /// Per-client wave size.
    pub batch: usize,
    /// Per-lane client pipeline depth (≥ 1; 1 = classic one-op-per-lane
    /// waves). Kept moderate here: deeper pipelines widen the blast
    /// radius of each crash window.
    pub pipeline: usize,
    /// Wall-clock tick length of the threaded runtime, in microseconds.
    pub tick_us: u64,
    /// Amnesia crash/restart cycles injected between workload segments.
    pub crash_cycles: usize,
    /// Drop every n-th message towards the flaky server.
    pub drop_every: u64,
    /// Journal to file-backed stores (`false` = deterministic in-memory
    /// stores, used by the unit tests to stay off the filesystem).
    pub file_backed: bool,
}

impl ChaosParams {
    /// Full-size chaos soak: ≥100k operations and ≥20 amnesia
    /// crash/restart cycles (the recorded experiment).
    pub fn full() -> Self {
        ChaosParams {
            objects: 2048,
            clients: 4,
            ops: 100_000,
            batch: 16,
            pipeline: 2,
            tick_us: 50,
            crash_cycles: 20,
            drop_every: 6,
            file_backed: true,
        }
    }

    /// Small parameters for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        ChaosParams {
            objects: 32,
            clients: 2,
            ops: 2000,
            batch: 8,
            pipeline: 2,
            tick_us: 50,
            crash_cycles: 4,
            drop_every: 6,
            file_backed: true,
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

/// One chaos run: whole-run metrics (folded over the crash-separated
/// segments, checker and watchdog counters included), the atomicity
/// verdict, durable-store counters, and the recovery tally.
pub struct ChaosRun {
    /// Folded run metrics (`duration_units` is wall-clock microseconds).
    pub stats: KvRunStats,
    /// The streaming checkers' verdict.
    pub verdict: Result<(), KvAtomicityViolation>,
    /// Merged durable-store counters across all servers.
    pub store: StoreStats,
    /// Deltas carried by the `store.appends` log records (summed from
    /// the stores' [`TraceKind::WalAppended`] events).
    pub wal_deltas: u64,
    /// Amnesia crash/restart cycles injected.
    pub cycles: usize,
    /// Cycles whose restart replayed at least one log record from the
    /// victim's durable store — must equal `cycles` for a passing run.
    pub recovered: usize,
    /// Wall-clock time of the workload segments (excluding deployment
    /// setup).
    pub wall: Duration,
}

/// The stores' trace sink: sums the group fill of every WAL append. Only
/// the stores are pointed at it, so the rest of the run stays untraced.
#[derive(Default)]
struct WalDeltas(AtomicU64);

impl Tracer for WalDeltas {
    fn record(&self, ev: TraceEvent) {
        if ev.kind == TraceKind::WalAppended {
            self.0.fetch_add(ev.b, Ordering::Relaxed);
        }
    }
}

/// Runs the chaos soak: threaded runtime, file-backed write-ahead
/// stores, flaky links, rotating amnesia crash/restart cycles, streaming
/// validation of every operation.
pub fn run_chaos(seed: u64, params: ChaosParams) -> ChaosRun {
    // crash_fast(5, 1): n = 5, t = 2 — tolerates the lossy server and
    // the crashed-and-recovering victim degrading at the same time.
    let rqs = ThresholdConfig::crash_fast(5, 1)
        .build()
        .expect("valid rqs");
    let n = rqs.universe_size();
    let scenario = Scenario::named("chaos links")
        .lossy_towards(vec![n - 1], params.drop_every)
        .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }));

    let tmp = params
        .file_backed
        .then(|| std::env::temp_dir().join(format!("rqs-exp-chaos-{seed}-{}", std::process::id())));
    let stores: Vec<StoreHandle> = (0..n)
        .map(|i| match &tmp {
            Some(dir) => {
                StoreHandle::file(dir.join(format!("server-{i}"))).expect("open file store")
            }
            None => StoreHandle::mem(),
        })
        .collect();

    let mut kv = RtKv::with_setup_stores(
        rqs,
        params.objects,
        params.clients,
        scenario,
        Duration::from_micros(params.tick_us),
        stores,
    );
    // Re-point the stores alone (the deployment just handed them its
    // no-op tracer) at the group-fill counter.
    let wal_deltas = Arc::new(WalDeltas::default());
    for (i, store) in kv.server_stores().iter().enumerate() {
        store.set_obs(Obs::new(wal_deltas.clone(), i as u64));
    }
    kv.retain_outcomes(false);
    kv.set_pipeline(params.pipeline);

    let cfg = WorkloadConfig::mixed(params.objects, params.clients, params.ops, seed);
    let ops = workload::generate(&cfg);
    // Split into crash_cycles + 1 contiguous segments; a rotating victim
    // amnesia-crashes and restarts at every segment boundary.
    let per = ops.len().div_ceil(params.crash_cycles + 1).max(1);

    let t0 = std::time::Instant::now();
    let mut stats = KvRunStats::default();
    let mut recovered = 0usize;
    // On the threaded runtime a restarted node replays its log on its
    // own thread, so the recovery check for cycle `i` settles while
    // segment `i+1` runs (with a short poll as backstop).
    let mut pending_recovery: Option<(usize, usize)> = None;
    for (cycle, chunk) in ops.chunks(per).enumerate() {
        stats.merge(&kv.run_workload(chunk, params.batch));
        if let Some((victim, replayed_before)) = pending_recovery.take() {
            if wait_for_replay(&kv.server_stores()[victim], replayed_before) {
                recovered += 1;
            }
        }
        if cycle < params.crash_cycles {
            let victim = cycle % n;
            let replayed_before = kv.server_stores()[victim].stats().replayed;
            kv.crash_server(victim, CrashMode::Amnesia);
            kv.restart_server(victim);
            // Checkpoint the recovered bank (queued behind the restart on
            // the node's event channel, so it runs after replay): the
            // victim's next recovery replays only the deltas since this
            // snapshot, keeping replay time bounded across cycles.
            kv.checkpoint_server(victim);
            pending_recovery = Some((victim, replayed_before));
        }
    }
    let wall = t0.elapsed();

    let verdict = kv.check_atomicity();
    // Each segment reported the checkers' lifetime counters; keep the
    // last reading, not the fold.
    stats.checker = kv.checker_stats();
    let store = kv.store_stats();
    kv.shutdown();
    if let Some(dir) = tmp {
        let _ = std::fs::remove_dir_all(dir);
    }
    ChaosRun {
        stats,
        verdict,
        store,
        wal_deltas: wal_deltas.0.load(Ordering::Relaxed),
        cycles: params.crash_cycles,
        recovered,
        wall,
    }
}

/// Waits (bounded) for a restarted server's store to show log replay
/// beyond `before`; `true` once it does.
fn wait_for_replay(store: &StoreHandle, before: usize) -> bool {
    for _ in 0..500 {
        if store.stats().replayed > before {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Whether the run meets E19's acceptance bar: zero atomicity
/// violations, every amnesia restart recovered from its durable store,
/// and the exact op count (retries never double-count an operation).
pub fn passed(params: ChaosParams, run: &ChaosRun) -> bool {
    run.verdict.is_ok() && run.recovered == run.cycles && run.stats.ops == params.ops
}

/// The E19 table.
pub fn report(seed: u64, quick: bool) -> Report {
    let params = ChaosParams::for_mode(quick);
    let run = run_chaos(seed, params);
    render(seed, params, &run)
}

/// Renders an already-executed chaos run as the E19 table (the binary
/// checks [`passed`] for its exit status, so it runs the soak itself).
pub fn render(seed: u64, params: ChaosParams, run: &ChaosRun) -> Report {
    let mut r = Report::new("E19 (crash-recovery chaos soak)");
    r.note(format!(
        "{} ops, {} objects, {} clients, batch {}, pipeline {}, \
         {}us tick, seed {seed}, threaded runtime, {} stores",
        params.ops,
        params.objects,
        params.clients,
        params.batch,
        params.pipeline,
        params.tick_us,
        if params.file_backed {
            "file-backed"
        } else {
            "in-memory"
        },
    ));
    r.note(format!(
        "faults: drop every {}th message towards one server, duplicate all traffic, \
         {} amnesia crash/restart cycles over rotating victims — each restart must \
         replay the victim's write-ahead log",
        params.drop_every, params.crash_cycles,
    ));
    r.note("every op is atomicity-checked at its wave boundary while the workload runs");
    let stats = &run.stats;
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
    r.row(["crash cycles", &run.cycles.to_string()]);
    r.row(["recovered restarts", &run.recovered.to_string()]);
    r.row(["wal appends", &run.store.appends.to_string()]);
    r.row(["wal syncs", &run.store.syncs.to_string()]);
    r.row([
        "deltas/append",
        &format!(
            "{:.2}",
            run.wal_deltas as f64 / run.store.appends.max(1) as f64
        ),
    ]);
    r.row(["wal log bytes", &run.store.log_bytes.to_string()]);
    r.row(["snapshots", &run.store.snapshots.to_string()]);
    r.row(["snapshot bytes", &run.store.snapshot_bytes.to_string()]);
    r.row(["replayed records", &run.store.replayed.to_string()]);
    r.row([
        "torn tails discarded",
        &run.store.torn_discarded.to_string(),
    ]);
    r.row([
        "lost unsynced records",
        &run.store.lost_unsynced.to_string(),
    ]);
    r.row(["retries issued", &stats.retries.retries_issued.to_string()]);
    r.row(["backoff ticks", &stats.retries.backoff_ticks.to_string()]);
    r.row([
        "checker ops_checked",
        &stats.checker.ops_checked.to_string(),
    ]);
    r.row(["atomicity", &verdict]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick chaos soak is the acceptance criterion in miniature:
    /// exact op count (no double-counting through retries), every
    /// amnesia restart recovers by replaying its write-ahead log, and
    /// the checkers validate every operation violation-free.
    #[test]
    fn quick_chaos_recovers_every_crash_and_validates_all_ops() {
        let params = ChaosParams::quick();
        let run = run_chaos(11, params);
        assert!(run.verdict.is_ok(), "{:?}", run.verdict);
        assert_eq!(
            run.stats.ops, params.ops,
            "retried ops must not double-count"
        );
        assert_eq!(run.stats.checker.ops_checked, params.ops as u64);
        assert_eq!(
            run.recovered, run.cycles,
            "every amnesia restart must replay from its durable store"
        );
        assert!(run.store.appends > 0, "servers must write-ahead log");
        assert_eq!(run.store.syncs, run.store.appends, "sync_every = 1");
        assert!(
            run.wal_deltas >= run.store.appends as u64,
            "every record carries at least one delta"
        );
        assert!(run.store.replayed > 0, "recovery must replay records");
        assert_eq!(
            run.store.snapshots, run.cycles,
            "every recovery is followed by a compacting checkpoint"
        );
        assert!(passed(params, &run));
    }

    /// Rendering + the JSON round-trip: the recovery stats must survive
    /// `to_json` → `from_json` intact (the `BENCH_chaos.json` artifact
    /// is mechanically re-loadable).
    #[test]
    fn report_round_trips_recovery_stats_through_json() {
        // A tiny in-memory run: this test exercises reporting, not scale.
        let params = ChaosParams {
            objects: 8,
            clients: 2,
            ops: 120,
            batch: 4,
            pipeline: 1,
            tick_us: 50,
            crash_cycles: 2,
            drop_every: 6,
            file_backed: false,
        };
        let run = run_chaos(7, params);
        let r = render(7, params, &run);
        assert!(r.to_string().contains("E19"));
        assert_eq!(r.cell("value", |row| row[0] == "atomicity"), Some("ok"));
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.to_json(), r.to_json());
        for metric in [
            "wal appends",
            "wal syncs",
            "deltas/append",
            "snapshot bytes",
            "replayed records",
            "retries issued",
            "backoff ticks",
            "recovered restarts",
        ] {
            let cell = back.cell("value", |row| row[0] == metric);
            assert!(cell.is_some(), "missing recovery stat {metric:?}");
            assert_eq!(cell, r.cell("value", |row| row[0] == metric));
        }
        assert_eq!(
            back.cell("value", |row| row[0] == "recovered restarts"),
            Some(run.recovered.to_string().as_str())
        );
    }
}
