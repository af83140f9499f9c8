//! # Experiment harness for the RQS paper reproduction
//!
//! One module per paper artifact; every module exposes `report()` (and
//! raw `run_*` functions used by the integration tests). The `exp_all`
//! binary prints every table; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | E1 | Figures 1–2, §1.2 | [`exp_fig1`] |
//! | E2 | Figure 3 | [`exp_fig3`] |
//! | E3 | Figure 4 / Example 7 | [`exp_fig4`] |
//! | E4 | §3.2 / Theorem 9 | [`exp_latency::storage_report`] |
//! | E5 | Figure 8 / Theorem 3 | [`exp_fig8`] |
//! | E6 | §4.2 / Definition 4 | [`exp_latency::consensus_report`] |
//! | E7 | Figure 16 / Theorem 6 (choose-level) | [`exp_fig16`] |
//! | E7b | Figure 16 / Theorem 6 (full system, live Byzantine) | [`exp_fig16_full`] |
//! | E8 | Examples 5–6 | [`exp_sweep`] |
//! | E9 | Fig. 14 election | [`exp_latency::view_change_report`] |
//! | E10 | §6 open questions | [`exp_analysis`] |
//! | E11 | wall-clock (threaded) | criterion benches |
//! | E12 | §6 regular-semantics extension | [`exp_regular`] |
//! | E13 | Example 4 dissemination/masking systems | [`exp_classic`] |
//! | E14 | §5 best-case message complexity | [`exp_scale`] |
//! | E15 | multi-object KV service (batching + substrates) | [`exp_kv`] |
//! | E16 | scenario engine × substrates | [`exp_scenarios`] |
//! | E17 | schedule exploration (model checking) | [`exp_explore`] |
//! | E18 | streaming-validation soak (threaded runtime) | [`exp_soak`] |
//! | E19 | crash-recovery chaos soak (WAL + amnesia + retries) | [`exp_chaos`] |
//! | E20 | hot-path throughput sweep (client pipeline depth) | [`exp_pipeline`] |
//!
//! Every binary accepts `--seed N`, `--json`, `--quick`, and the
//! KV-relevant `--pipeline N` (see [`cli::ExpArgs`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_diff;
pub mod cli;
pub mod exp_analysis;
pub mod exp_chaos;
pub mod exp_classic;
pub mod exp_explore;
pub mod exp_fig1;
pub mod exp_fig16;
pub mod exp_fig16_full;
pub mod exp_fig3;
pub mod exp_fig4;
pub mod exp_fig8;
pub mod exp_kv;
pub mod exp_latency;
pub mod exp_pipeline;
pub mod exp_regular;
pub mod exp_scale;
pub mod exp_scenarios;
pub mod exp_soak;
pub mod exp_sweep;
pub mod report;

pub use report::Report;

/// Every experiment report, in order (the `exp_all` binary and
/// `EXPERIMENTS.md` regeneration), with the default seed and quick KV
/// parameters.
pub fn all_reports() -> Vec<Report> {
    all_reports_seeded(cli::DEFAULT_SEED, true)
}

/// Every experiment report; `seed` and `quick` parameterize the
/// stochastic E15 runs (the other experiments are deterministic). The
/// E15b substrate table is the sim-only variant here, so the whole
/// report set stays deterministic and thread-free; the `exp_kv` binary
/// adds the threaded-runtime row.
pub fn all_reports_seeded(seed: u64, quick: bool) -> Vec<Report> {
    let mut reports = vec![
        exp_fig1::report(),
        exp_fig3::report(),
        exp_fig4::report(),
        exp_latency::storage_report(),
        exp_fig8::report(),
        exp_latency::consensus_report(),
        exp_fig16::report(),
        exp_fig16_full::report(),
        exp_sweep::report(7),
        exp_latency::view_change_report(),
        exp_analysis::load_availability_report(),
        exp_analysis::counting_report(),
        exp_regular::report(),
        exp_classic::report(),
        exp_scale::report(),
    ];
    reports.push(exp_kv::batching_report(seed, quick));
    reports.push(exp_kv::substrate_report_sim(seed, quick));
    reports.push(exp_scenarios::report_sim(seed, quick));
    reports.push(exp_explore::report(seed, quick));
    reports
}
