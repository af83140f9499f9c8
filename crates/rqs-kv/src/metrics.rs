//! Run metrics: throughput, round histograms, fast-path ratio, message
//! accounting, per-op latency percentiles and streaming-checker counters.

use crate::client::{KvOutcome, RetryStats};
use rqs_obs::{Attribution, LatencyHistogram};
use rqs_storage::CheckerStats;
use std::collections::BTreeMap;

/// Histogram of protocol rounds per operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundHistogram {
    counts: BTreeMap<usize, usize>,
}

impl RoundHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        RoundHistogram::default()
    }

    /// Records one operation that took `rounds` rounds.
    pub fn record(&mut self, rounds: usize) {
        *self.counts.entry(rounds).or_insert(0) += 1;
    }

    /// Total operations recorded.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Operations that completed at class-1 speed (one round).
    pub fn fast(&self) -> usize {
        self.counts.get(&1).copied().unwrap_or(0)
    }

    /// Fraction of operations completing at class-1 speed (`NaN`-free:
    /// 0 when empty).
    pub fn fast_path_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.fast() as f64 / total as f64
        }
    }

    /// `(rounds, count)` pairs in ascending round order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts.iter().map(|(&r, &c)| (r, c))
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RoundHistogram) {
        for (r, c) in other.buckets() {
            *self.counts.entry(r).or_insert(0) += c;
        }
    }

    /// Compact rendering like `1r:37 2r:3`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .counts
            .iter()
            .map(|(r, c)| format!("{r}r:{c}"))
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Metrics of one KV run (either substrate).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KvRunStats {
    /// Operations completed.
    pub ops: usize,
    /// Round histogram over all operations.
    pub rounds: RoundHistogram,
    /// Duration of the run: simulated ticks (sim) or wall-clock
    /// microseconds (threaded runtime).
    pub duration_units: u64,
    /// Network envelopes sent (on either substrate; the runtime counts
    /// them on its outbound network path).
    pub envelopes: usize,
    /// Protocol messages carried inside those envelopes.
    pub items: usize,
    /// Per-operation latency distribution in duration units (completion
    /// minus invocation): a log-bucketed fixed-size histogram, so memory
    /// stays bounded on million-op soaks and percentile queries are
    /// O(buckets) instead of clone-and-sort.
    pub latencies: LatencyHistogram,
    /// Why operations left the one-round fast path (the paper's
    /// degradation conditions), classified at harvest by the deployment.
    pub attribution: Attribution,
    /// Aggregated counters of the deployment's streaming atomicity
    /// checkers (cumulative over the deployment's lifetime).
    pub checker: CheckerStats,
    /// Client watchdog counters accumulated during this run (nudges
    /// issued, ticks waited before them).
    pub retries: RetryStats,
}

impl KvRunStats {
    /// Operations per duration unit (per tick / per microsecond).
    pub fn throughput(&self) -> f64 {
        if self.duration_units == 0 {
            0.0
        } else {
            self.ops as f64 / self.duration_units as f64
        }
    }

    /// Envelopes per operation — the number batching drives down.
    pub fn envelopes_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.envelopes as f64 / self.ops as f64
        }
    }

    /// Mean protocol messages per envelope (the batching factor).
    pub fn batching_factor(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.items as f64 / self.envelopes as f64
        }
    }

    /// Folds a completed operation into the stats.
    pub fn record_outcome(&mut self, out: &KvOutcome) {
        self.ops += 1;
        self.rounds.record(out.rounds);
        self.latencies.record(
            out.completed_at
                .ticks()
                .saturating_sub(out.invoked_at.ticks()),
        );
    }

    /// Accumulates another run's metrics into `self` — the fold a
    /// segmented run (workload interrupted by crash/restart cycles) uses
    /// to report whole-run numbers. Durations add; histograms, latency
    /// samples and all counters accumulate.
    pub fn merge(&mut self, other: &KvRunStats) {
        self.ops += other.ops;
        self.rounds.merge(&other.rounds);
        self.duration_units += other.duration_units;
        self.envelopes += other.envelopes;
        self.items += other.items;
        self.latencies.merge(&other.latencies);
        self.attribution.merge(&other.attribution);
        self.checker.merge(&other.checker);
        self.retries.merge(&other.retries);
    }

    /// The `p`-th latency percentile in duration units (0 when empty).
    /// `p` is clamped to `[0, 100]`; nearest-rank over the log-bucketed
    /// histogram — exact below 16 units, within one bucket (≤ 12.5%)
    /// above.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latencies.percentile(p.clamp(0.0, 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_ratio() {
        let mut h = RoundHistogram::new();
        assert_eq!(h.fast_path_ratio(), 0.0);
        h.record(1);
        h.record(1);
        h.record(2);
        h.record(3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.fast(), 2);
        assert!((h.fast_path_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(h.render(), "1r:2 2r:1 3r:1");
        assert_eq!(
            h.buckets().collect::<Vec<_>>(),
            vec![(1, 2), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn merge_accumulates_every_field() {
        use rqs_obs::SlowPathCause;
        let mut a = KvRunStats {
            ops: 3,
            duration_units: 10,
            envelopes: 6,
            items: 12,
            ..Default::default()
        };
        a.latencies.record(1);
        a.latencies.record(2);
        a.rounds.record(1);
        a.attribution.record(SlowPathCause::FastPath);
        let mut b = KvRunStats {
            ops: 2,
            duration_units: 5,
            envelopes: 4,
            items: 8,
            ..Default::default()
        };
        b.latencies.record(9);
        b.rounds.record(1);
        b.rounds.record(2);
        b.retries.retries_issued = 7;
        b.attribution.record(SlowPathCause::Retry);
        a.merge(&b);
        assert_eq!(a.ops, 5);
        assert_eq!(a.duration_units, 15);
        assert_eq!(a.envelopes, 10);
        assert_eq!(a.items, 20);
        assert_eq!(a.latencies.len(), 3);
        assert_eq!(a.latencies.min(), 1);
        assert_eq!(a.latencies.max(), 9);
        assert_eq!(a.rounds.render(), "1r:2 2r:1");
        assert_eq!(a.retries.retries_issued, 7);
        assert_eq!(a.attribution.count(SlowPathCause::FastPath), 1);
        assert_eq!(a.attribution.count(SlowPathCause::Retry), 1);
    }

    #[test]
    fn stats_derived_quantities() {
        let stats = KvRunStats {
            ops: 10,
            rounds: RoundHistogram::new(),
            duration_units: 50,
            envelopes: 40,
            items: 120,
            ..Default::default()
        };
        assert!((stats.throughput() - 0.2).abs() < 1e-12);
        assert!((stats.envelopes_per_op() - 4.0).abs() < 1e-12);
        assert!((stats.batching_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let mut stats = KvRunStats::default();
        for v in [5u64, 1, 9, 3, 7] {
            stats.latencies.record(v);
        }
        assert_eq!(stats.latency_percentile(50.0), 5);
        assert_eq!(stats.latency_percentile(99.0), 9);
        assert_eq!(stats.latency_percentile(0.0), 1);
        assert_eq!(KvRunStats::default().latency_percentile(50.0), 0);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let stats = KvRunStats::default();
        assert_eq!(stats.throughput(), 0.0);
        assert_eq!(stats.envelopes_per_op(), 0.0);
        assert_eq!(stats.batching_factor(), 0.0);
        assert_eq!(RoundHistogram::new().render(), "-");
    }
}
