//! Metric names, exact order statistics and the `/proc` readers.

use std::fs;

/// The six end-to-end metrics, the same on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
];

/// The per-layer ledger; the prefix is the layer (a crate of the repo, or
/// `driver` for the harness itself).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("kv.envelopes_per_op", "count"),
    ("kv.items_per_envelope", "count"),
    ("kv.queue_wait_us_p50", "us"),
    ("kv.retries_per_kop", "count"),
    ("kv.latency_ticks_p50", "ticks"),
    ("kv.latency_ticks_p99", "ticks"),
    ("storage.rounds_per_op", "count"),
    ("storage.fast_path_ratio", "ratio"),
    ("storage.read_rounds_per_op", "count"),
    ("storage.write_rounds_per_op", "count"),
    ("storage.service_us_p50", "us"),
    ("storage.fast_p50_us", "us"),
    ("storage.degraded_p50_us", "us"),
    ("storage.recovered_p50_us", "us"),
    ("storage.p50_msg_delays", "count"),
    ("storage.history_len_p50", "count"),
    ("storage.checker_ns_per_op", "ns"),
    ("storage.checker_max_frontier", "count"),
    ("substrate.deliveries_per_op", "count"),
    ("substrate.drops", "count"),
    ("substrate.inspect_roundtrip_us", "us"),
    ("substrate.ctx_switches_per_op", "count"),
    ("substrate.threads", "count"),
    ("substrate.sim_events_per_op", "count"),
    ("store.appends_per_op", "count"),
    ("store.syncs_per_op", "count"),
    ("store.bytes_per_op", "bytes"),
    ("store.append_us_p50", "us"),
    ("store.sync_us_p50", "us"),
    ("store.busy_share", "ratio"),
    ("store.replayed_records", "count"),
    ("core.rqs_build_us", "us"),
    ("obs.events_per_op", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("driver.submit_us_p50", "us"),
    ("driver.harvest_us_p50", "us"),
    ("driver.poll_share", "ratio"),
    ("driver.late_us_p99", "us"),
];

/// The exact `p`-th percentile (nearest rank) of ascending `sorted`
/// values; 0 when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The exact percentile of latencies counted in ticks.
///
/// Latencies read off the tick clock are whole ticks, so many samples tie
/// at the percentile's value `v`. The ties are taken to lie evenly over
/// `[v − ½, v + ½]` and the percentile is placed among them by rank (the
/// grouped-data formula), which resolves it below one tick. A value no
/// other sample shares comes back unchanged.
pub fn tick_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let v = sorted[rank - 1];
    let below = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - below;
    v + ((rank - below) as f64 - 0.5) / ties as f64 - 0.5
}

/// Sorts `values` and returns their exact percentile.
pub fn percentile_of(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

/// The median (mean of the two middle values for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark contract measures spread with. Needs two values or more.
pub fn quartiles(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (at(1), at(3))
}

fn tasks() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|dir| dir.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

/// CPU time the process's live threads have run, in nanoseconds: the sum
/// of every task's `schedstat` run time, or `utime + stime` of
/// `/proc/self/stat` at the usual 100 ticks/s where that is not kept.
/// With `main_thread` false the main thread (the benchmark's driver) is
/// left out, where per-task times are to be had.
pub fn cpu_ns(main_thread: bool) -> u64 {
    let per_task: Option<u64> = tasks()
        .iter()
        .filter(|t| main_thread || !t.ends_with(std::process::id().to_string()))
        .map(|t| {
            let text = fs::read_to_string(t.join("schedstat")).ok()?;
            text.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    match per_task {
        Some(ns) if ns > 0 => ns,
        _ => {
            let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line.
            let rest = stat.rsplit(')').next().unwrap_or("");
            let field = |i: usize| -> u64 {
                rest.split_whitespace()
                    .nth(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            (field(11) + field(12)) * 10_000_000
        }
    }
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches of every live thread.
pub fn ctx_switches() -> u64 {
    tasks()
        .iter()
        .filter_map(|t| fs::read_to_string(t.join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches")
                + status_field(&s, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Live threads of the process.
pub fn threads() -> u64 {
    status_field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "Threads",
    )
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM",
    ) as f64
        / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tied_percentiles_resolve_below_a_tick() {
        // 10 samples at 2 ticks, 10 at 3: the median is the last of the
        // 2s, which sits at the top of [1.5, 2.5].
        let mut v = vec![2.0; 10];
        v.extend(vec![3.0; 10]);
        assert_eq!(tick_percentile(&v, 50.0), 2.45);
        assert_eq!(tick_percentile(&v, 75.0), 2.95);
        assert_eq!(tick_percentile(&[1.0, 2.5, 7.0], 50.0), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(vec![16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
