//! Per-shard metric registries with lock-free mergeable snapshots.
//!
//! The sharded session service runs one commit lane per shard; a single
//! global counter table can say "9 requests were shed" but not *which
//! lane* was saturated. A [`ShardRegistry`] gives every shard its own
//! counter table, latency [`MetricsRegistry`](crate::MetricsRegistry)
//! and a commit-lane depth gauge, all updated with relaxed atomics —
//! the hot path never takes a lock and never allocates.
//!
//! Snapshots are plain relaxed loads; merging is bucket-wise addition
//! (the same modular arithmetic the live atomics use), so the merged
//! view of N shards equals the view a single shared registry would have
//! produced, and per-shard snapshots from different scrapes can be
//! combined offline in any order.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::Counter;
use crate::metrics::{Histogram, HistogramSnapshot, Metric, MetricsRegistry};

/// One shard's metric surface: counters, latency histograms and a
/// commit-lane depth gauge.
pub struct ShardMetrics {
    counters: [AtomicU64; Counter::COUNT],
    metrics: MetricsRegistry,
    lane_depth: AtomicU64,
}

impl ShardMetrics {
    fn new() -> Self {
        ShardMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: MetricsRegistry::new(),
            lane_depth: AtomicU64::new(0),
        }
    }

    /// Increments a monotonic counter by `n` on this shard.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of one counter on this shard.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records one observation against `metric` on this shard.
    #[inline]
    pub fn record(&self, metric: Metric, value: u64) {
        self.metrics.histogram(metric).record(value);
    }

    /// The histogram behind `metric` on this shard.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        self.metrics.histogram(metric)
    }

    /// Sets the commit-lane depth gauge (pending requests queued on
    /// this shard's lane right now).
    #[inline]
    pub fn set_lane_depth(&self, depth: u64) {
        self.lane_depth.store(depth, Ordering::Relaxed);
    }

    /// The commit-lane depth gauge's current value.
    pub fn lane_depth(&self) -> u64 {
        self.lane_depth.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of this shard's counters, histograms and
    /// gauge.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| (*c, self.counter(*c)))
                .collect(),
            metrics: self.metrics.snapshot(),
            lane_depth: self.lane_depth(),
        }
    }
}

/// An immutable copy of one shard's metric surface (or of a merge of
/// several shards').
#[derive(Clone, Debug, Default)]
pub struct ShardSnapshot {
    /// Every counter's value, in [`Counter::ALL`] order (zeros kept so
    /// snapshots align index-wise for merging and deltas).
    pub counters: Vec<(Counter, u64)>,
    /// Every populated metric's histogram, in [`Metric::ALL`] order.
    pub metrics: Vec<(Metric, HistogramSnapshot)>,
    /// The commit-lane depth gauge. Merging sums gauges: the merged
    /// value is the total backlog across the merged lanes.
    pub lane_depth: u64,
}

impl ShardSnapshot {
    /// An all-zero snapshot with the full counter sample set (the
    /// identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        ShardSnapshot {
            counters: Counter::ALL.iter().map(|c| (*c, 0)).collect(),
            metrics: Vec::new(),
            lane_depth: 0,
        }
    }

    /// Merges `other` into `self`: counters add (wrapping, matching the
    /// live atomics), histograms merge bucket-wise, gauges sum. Merging
    /// is associative and commutative.
    pub fn merge(&mut self, other: &ShardSnapshot) {
        for (slot, (c, v)) in self.counters.iter_mut().zip(&other.counters) {
            debug_assert_eq!(slot.0, *c, "snapshots must share the counter order");
            slot.1 = slot.1.wrapping_add(*v);
        }
        for (m, s) in &other.metrics {
            match self.metrics.iter_mut().find(|(have, _)| have == m) {
                Some((_, mine)) => mine.merge(s),
                None => {
                    self.metrics.push((*m, s.clone()));
                    self.metrics.sort_by_key(|(m, _)| m.index());
                }
            }
        }
        self.lane_depth = self.lane_depth.wrapping_add(other.lane_depth);
    }
}

/// A fixed table of one [`ShardMetrics`] per shard lane.
///
/// Built once at service construction (the shard count is a config
/// constant); shared behind an `Arc` by every lane, dispatcher and
/// exporter that needs it.
pub struct ShardRegistry {
    shards: Vec<ShardMetrics>,
}

impl ShardRegistry {
    /// A registry for `shards` lanes (at least one).
    pub fn new(shards: usize) -> Self {
        ShardRegistry {
            shards: (0..shards.max(1)).map(|_| ShardMetrics::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The metric surface of shard `i`.
    ///
    /// # Panics
    /// When `i` is out of range — shard indices come from the router,
    /// which reduces modulo the shard count.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Per-shard snapshots, in shard order.
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(ShardMetrics::snapshot).collect()
    }

    /// The merged view of every shard (what one shared registry would
    /// have recorded).
    pub fn merged(&self) -> ShardSnapshot {
        let mut out = ShardSnapshot::empty();
        for s in &self.shards {
            out.merge(&s.snapshot());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_counts_stay_separate_and_merge_adds() {
        let reg = ShardRegistry::new(3);
        reg.shard(0).add(Counter::RequestsShed, 2);
        reg.shard(2).add(Counter::RequestsShed, 5);
        reg.shard(2).add(Counter::TxnsCommitted, 1);
        reg.shard(1).set_lane_depth(4);
        reg.shard(2).set_lane_depth(7);

        assert_eq!(reg.shard(0).counter(Counter::RequestsShed), 2);
        assert_eq!(reg.shard(1).counter(Counter::RequestsShed), 0);
        assert_eq!(reg.shard(2).counter(Counter::RequestsShed), 5);

        let merged = reg.merged();
        let shed = merged
            .counters
            .iter()
            .find(|(c, _)| *c == Counter::RequestsShed)
            .unwrap()
            .1;
        assert_eq!(shed, 7);
        assert_eq!(merged.lane_depth, 11, "gauges sum under merge");
    }

    #[test]
    fn histograms_merge_like_a_shared_registry() {
        let reg = ShardRegistry::new(2);
        reg.shard(0).record(Metric::CommitLatency, 100);
        reg.shard(1).record(Metric::CommitLatency, 250);
        reg.shard(1).record(Metric::AdmitLatency, 3);

        let merged = reg.merged();
        assert_eq!(merged.metrics.len(), 2);
        // Metric order follows declaration order regardless of which
        // shard populated what.
        assert_eq!(merged.metrics[0].0, Metric::AdmitLatency);
        assert_eq!(merged.metrics[1].0, Metric::CommitLatency);
        let commit = &merged.metrics[1].1;
        assert_eq!(commit.count, 2);
        assert_eq!(commit.sum, 350);
        assert_eq!(commit.max, 250);
    }

    #[test]
    fn merge_is_commutative() {
        let reg = ShardRegistry::new(2);
        reg.shard(0).add(Counter::WalRecordsAppended, 3);
        reg.shard(0).record(Metric::WalSyncLatency, 10);
        reg.shard(1).add(Counter::WalRecordsAppended, 4);
        reg.shard(1).record(Metric::ReplayLatency, 20);
        let snaps = reg.snapshot();
        let mut ab = snaps[0].clone();
        ab.merge(&snaps[1]);
        let mut ba = snaps[1].clone();
        ba.merge(&snaps[0]);
        assert_eq!(ab.lane_depth, ba.lane_depth);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.metrics, ba.metrics);
    }
}
