//! **E16 (scenario engine)** — the same declarative fault scenarios run
//! on **both** substrates, for both the single-register storage and the
//! multi-object KV service:
//!
//! - **partition+heal** — a minority server group is cut off for a
//!   window, then heals: operations degrade to the slow quorum paths and
//!   recover;
//! - **flaky links** — every n-th message touching one server is
//!   dropped and *all* traffic is duplicated: quorum idempotence keeps
//!   every history atomic;
//! - **crash+restart** — a server crashes mid-run and later restarts
//!   with its retained state;
//! - **crash+restart amnesia** — the same crash window, but the server
//!   loses its memory and must rebuild every object by replaying its
//!   write-ahead store ([`CrashMode::Amnesia`]); the row pair shows the
//!   retain-vs-amnesia delta under identical schedules.
//! - **flaky+crash** — the flaky-link treatment *and* a crash+restart
//!   window at once: the one scenario of the suite where a drop can
//!   leave a round short of a quorum, so the only one whose `nudges`
//!   column (the client watchdog's re-broadcasts) is non-zero; the ops
//!   concerned overlap the healed crash window and are attributed to
//!   `recovery`.
//!
//! Every KV run is atomicity-checked per object — on the deterministic
//! simulator *and* on the threaded runtime (the generic driver made the
//! checker substrate-independent). The scenarios deliberately touch at
//! most the fault tolerance `t` of the quorum system, so no run can
//! deadlock: a full correct quorum always stays connected.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;
use rqs_kv::{workload, KvBatch, KvDeployment, KvRunStats, WorkloadConfig};
use rqs_obs::{NopTracer, ObsHandle};
use rqs_sim::{CrashMode, LinkEffect, LinkRule, Scenario, Substrate, World};
use rqs_storage::{StorageDeployment, StorageMsg, Value};
use rqs_store::StoreHandle;
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock tick used for the threaded rows.
const RT_TICK: Duration = Duration::from_millis(1);

/// The canonical scenario suite for a deployment with `n` servers that
/// tolerates cutting off `cut` of them (`cut ≤ t`): the cut/lossy/crashed
/// servers are always the *last*/*first* indices, so a full correct
/// quorum stays connected and every run terminates.
pub fn suite(n: usize, cut: usize) -> Vec<Scenario> {
    assert!(cut >= 1 && cut < n);
    let cut_group: Vec<usize> = (n - cut..n).collect();
    vec![
        Scenario::named("partition+heal").partition(cut_group.clone(), 0, 30),
        Scenario::named("flaky links")
            .lossy_towards(vec![n - 1], 4)
            .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 })),
        Scenario::named("crash+restart").crash_restart(0, 10, 60),
        Scenario::named("crash+restart amnesia").crash_restart_amnesia(0, 10, 60),
        Scenario::named("flaky+crash")
            .lossy_towards(vec![n - 1], 4)
            .link(LinkRule::every(LinkEffect::Duplicate { lag: 2 }))
            .crash_restart(0, 10, 60),
    ]
}

/// One fresh in-memory durable store per server when the scenario
/// contains an amnesia crash plan (recovery needs a write-ahead log to
/// replay); retain-mode scenarios stay volatile.
fn scenario_stores(n: usize, scenario: &Scenario) -> Vec<StoreHandle> {
    let amnesia = scenario
        .crashes
        .iter()
        .any(|c| matches!(c.crash_mode, CrashMode::Amnesia));
    if amnesia {
        (0..n).map(|_| StoreHandle::mem()).collect()
    } else {
        Vec::new()
    }
}

/// KV workload dimensions for the E16 runs.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioParams {
    /// Objects in the key space.
    pub objects: usize,
    /// Clients.
    pub clients: usize,
    /// Total KV operations.
    pub ops: usize,
    /// Storage writes (each followed by a read).
    pub storage_ops: usize,
}

impl ScenarioParams {
    /// Full-size parameters (the recorded experiment).
    pub fn full() -> Self {
        ScenarioParams {
            objects: 16,
            clients: 4,
            ops: 160,
            storage_ops: 20,
        }
    }

    /// Small parameters for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        ScenarioParams {
            objects: 8,
            clients: 2,
            ops: 40,
            storage_ops: 8,
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
}

/// Runs the seeded KV workload under `scenario` on substrate `S`,
/// checking per-object atomicity; returns run metrics.
pub fn run_kv_on<S: Substrate<KvBatch>>(
    seed: u64,
    params: ScenarioParams,
    scenario: Scenario,
) -> KvRunStats {
    run_kv_on_traced::<S>(seed, params, scenario, Arc::new(NopTracer))
}

/// [`run_kv_on`] with a structured-trace sink threaded through the
/// substrate, the servers' stores and every client lane — what
/// `exp_scenarios --trace` uses for its Chrome trace-event export.
pub fn run_kv_on_traced<S: Substrate<KvBatch>>(
    seed: u64,
    params: ScenarioParams,
    scenario: Scenario,
    tracer: ObsHandle,
) -> KvRunStats {
    let rqs = ThresholdConfig::byzantine_fast(1)
        .build()
        .expect("valid rqs");
    let stores = scenario_stores(rqs.universe_size(), &scenario);
    let mut kv = KvDeployment::<S>::with_setup_traced(
        rqs,
        params.objects,
        params.clients,
        scenario,
        RT_TICK,
        stores,
        tracer,
    );
    let cfg = WorkloadConfig::mixed(params.objects, params.clients, params.ops, seed);
    let stats = kv.run_workload(&workload::generate(&cfg), 4);
    kv.check_atomicity()
        .unwrap_or_else(|v| panic!("atomicity violated on {}: {v}", S::NAME));
    kv.shutdown();
    stats
}

/// Storage run outcome: `(mean write rounds, mean read rounds)` over the
/// scenario'd run (all reads must return the latest written value).
pub fn run_storage_on<S: Substrate<StorageMsg>>(
    params: ScenarioParams,
    scenario: Scenario,
) -> (f64, f64) {
    // crash_fast(5,1): n = 5, t = 2 — tolerates the 2-server partition.
    let rqs = ThresholdConfig::crash_fast(5, 1)
        .build()
        .expect("valid rqs");
    let stores = scenario_stores(rqs.universe_size(), &scenario);
    let mut st = StorageDeployment::<S>::with_setup_stores(rqs, 1, scenario, RT_TICK, stores);
    let (mut w_rounds, mut r_rounds) = (0usize, 0usize);
    for v in 1..=params.storage_ops as u64 {
        w_rounds += st.write(Value::from(v)).rounds;
        let r = st.read(0);
        r_rounds += r.rounds;
        assert_eq!(r.returned.val, Value::from(v), "read the latest write");
    }
    st.check_atomicity()
        .unwrap_or_else(|v| panic!("storage atomicity violated on {}: {v}", S::NAME));
    st.shutdown();
    let n = params.storage_ops as f64;
    (w_rounds as f64 / n, r_rounds as f64 / n)
}

/// The E16 table over both substrates.
pub fn report(seed: u64, quick: bool) -> Report {
    report_inner(seed, quick, true, Arc::new(NopTracer))
}

/// [`report`] with a trace sink: the compound `flaky+crash` sim run is
/// the instrumented one (a single coherent run in the ring buffer, and
/// the one whose trace shows drops, retries, the crash and the
/// recovery).
pub fn report_traced(seed: u64, quick: bool, tracer: ObsHandle) -> Report {
    report_inner(seed, quick, true, tracer)
}

/// The E16 table with simulator rows only: fully deterministic, no OS
/// threads — what [`crate::all_reports_seeded`] uses so test suites over
/// the report set stay timing-independent.
pub fn report_sim(seed: u64, quick: bool) -> Report {
    report_inner(seed, quick, false, Arc::new(NopTracer))
}

fn report_inner(seed: u64, quick: bool, threaded: bool, tracer: ObsHandle) -> Report {
    let params = ScenarioParams::for_mode(quick);
    let mut r = Report::new("E16 (scenario engine × substrates)");
    r.note(format!(
        "one declarative Scenario per row, compiled to a fate policy (sim) and to the \
         send path plus clock (threaded); kv: {} objects / {} clients / {} ops, seed {seed}; \
         storage: {} write+read pairs over crash_fast(5,1)",
        params.objects, params.clients, params.ops, params.storage_ops
    ));
    r.note("every kv run is atomicity-checked per object on its substrate");
    r.note(
        "crash+restart rows sweep both crash modes: retain keeps the server's state, \
         amnesia wipes it and recovers by replaying a write-ahead store",
    );
    r.note("slow-path column attributes off-fast-path ops to the paper's degradation causes");
    r.note(
        "nudges column counts the clients' watchdog re-broadcasts: only a round left short of \
         a quorum is re-sent, so it is 0 unless loss and a crash coincide",
    );
    r.headers([
        "workload",
        "scenario",
        "substrate",
        "ops",
        "fast-path",
        "env/op",
        "rounds",
        "nudges",
        "slow-path",
    ]);

    // KV rows: scenarios sized for the n = 4 byzantine_fast(1) universe
    // (t = 1 → cut exactly one server).
    for scenario in suite(4, 1) {
        let name = scenario.name.clone();
        let sink = if name == "flaky+crash" {
            tracer.clone()
        } else {
            Arc::new(NopTracer)
        };
        let stats = run_kv_on_traced::<World<KvBatch>>(seed, params, scenario.clone(), sink);
        push_kv_row(&mut r, &name, "sim", &stats);
        if threaded {
            let stats = run_kv_on::<RtSub>(seed, params, scenario);
            push_kv_row(&mut r, &name, "threaded", &stats);
        }
    }

    // Storage rows: n = 5, t = 2 → the partition may cut two servers.
    for scenario in suite(5, 2) {
        let name = scenario.name.clone();
        let (w, rd) = run_storage_on::<World<StorageMsg>>(params, scenario.clone());
        push_storage_row(&mut r, &name, "sim", params, w, rd);
        if threaded {
            let (w, rd) = run_storage_on::<RtSubStorage>(params, scenario);
            push_storage_row(&mut r, &name, "threaded", params, w, rd);
        }
    }
    r
}

type RtSub = rqs_runtime::Runtime<KvBatch>;
type RtSubStorage = rqs_runtime::Runtime<StorageMsg>;

fn push_kv_row(r: &mut Report, scenario: &str, substrate: &str, stats: &KvRunStats) {
    r.row([
        "kv".to_string(),
        scenario.to_string(),
        substrate.to_string(),
        stats.ops.to_string(),
        format!("{:.2}", stats.rounds.fast_path_ratio()),
        format!("{:.2}", stats.envelopes_per_op()),
        stats.rounds.render(),
        stats.retries.retries_issued.to_string(),
        stats.attribution.slow_summary(),
    ]);
}

fn push_storage_row(
    r: &mut Report,
    scenario: &str,
    substrate: &str,
    params: ScenarioParams,
    w_rounds: f64,
    r_rounds: f64,
) {
    r.row([
        "storage".to_string(),
        scenario.to_string(),
        substrate.to_string(),
        (2 * params.storage_ops).to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("W {w_rounds:.2} / R {r_rounds:.2} mean"),
        "-".to_string(),
        "-".to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_canonical_scenarios() {
        let s = suite(4, 1);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].name, "partition+heal");
        assert_eq!(s[1].name, "flaky links");
        assert_eq!(s[2].name, "crash+restart");
        assert_eq!(s[3].name, "crash+restart amnesia");
        assert_eq!(s[4].name, "flaky+crash");
        assert!(s.iter().all(|sc| !sc.is_benign()));
        // The two crash scenarios differ only in crash mode.
        assert!(matches!(s[2].crashes[0].crash_mode, CrashMode::Retain));
        assert!(matches!(s[3].crashes[0].crash_mode, CrashMode::Amnesia));
        assert_eq!(s[2].crashes[0].at, s[3].crashes[0].at);
        assert_eq!(s[2].crashes[0].restart_at, s[3].crashes[0].restart_at);
        // The compound scenario carries both the link faults and a crash.
        assert!(!s[4].links.is_empty());
        assert_eq!(s[4].crashes.len(), 1);
    }

    #[test]
    fn amnesia_scenario_gets_durable_stores_and_retain_stays_volatile() {
        let s = suite(4, 1);
        assert_eq!(scenario_stores(4, &s[2]).len(), 0);
        assert_eq!(scenario_stores(4, &s[3]).len(), 4);
    }

    #[test]
    fn every_scenario_green_on_sim_kv() {
        for scenario in suite(4, 1) {
            let stats = run_kv_on::<World<KvBatch>>(3, ScenarioParams::quick(), scenario);
            assert_eq!(stats.ops, ScenarioParams::quick().ops);
        }
    }

    #[test]
    fn partition_degrades_fast_path_on_sim() {
        let params = ScenarioParams::quick();
        let clean = run_kv_on::<World<KvBatch>>(3, params, Scenario::named("clean"));
        let cut = run_kv_on::<World<KvBatch>>(
            3,
            params,
            Scenario::named("partition").partition(vec![3], 0, 30),
        );
        assert!(
            cut.rounds.fast_path_ratio() < clean.rounds.fast_path_ratio(),
            "a partitioned class-1 quorum must cost fast-path completions \
             ({:.2} !< {:.2})",
            cut.rounds.fast_path_ratio(),
            clean.rounds.fast_path_ratio()
        );
    }

    #[test]
    fn sim_report_renders_all_rows() {
        let r = report_sim(3, true);
        assert!(r.to_string().contains("E16"));
        // 5 scenarios × {kv, storage} on sim only.
        assert_eq!(r.rows.len(), 10);
        assert!(r.cell("rounds", |row| row[1] == "crash+restart").is_some());
        assert!(r
            .cell("rounds", |row| row[1] == "crash+restart amnesia")
            .is_some());
        assert!(r.cell("slow-path", |row| row[1] == "flaky+crash").is_some());
    }

    #[test]
    fn traced_compound_run_records_events() {
        use rqs_obs::Tracer;
        let rec = rqs_obs::FlightRecorder::for_export();
        let tracer: ObsHandle = rec.clone();
        let scenario = suite(4, 1).pop().expect("flaky+crash");
        let stats =
            run_kv_on_traced::<World<KvBatch>>(3, ScenarioParams::quick(), scenario, tracer);
        assert_eq!(stats.ops, ScenarioParams::quick().ops);
        assert!(!rec.snapshot().is_empty());
    }
}
