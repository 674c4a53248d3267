//! Lock-cheap latency metrics: log-bucketed histograms behind a fixed
//! registry.
//!
//! The registry follows the same closed-vocabulary design as
//! [`Counter`](crate::Counter): a [`Metric`] enum names every latency
//! distribution the system records, so the hot-path `record` is two
//! relaxed atomic adds into a preallocated table — no locks, no string
//! hashing, no allocation.
//!
//! Buckets are *logarithmic in microseconds*: a value `v` lands in
//! bucket `bit_length(v)` (bucket 0 holds exactly `v == 0`, bucket `b`
//! holds `2^(b-1) ..= 2^b - 1`). Sixty-four buckets cover the full u64
//! range; quantile estimates answer with the bucket's inclusive upper
//! bound, so reported p50/p95/p99 are conservative (never below the
//! true quantile) and within a factor of 2 of it — plenty for spotting
//! regressions, and mergeable across threads by plain addition.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::Observer;

/// The fixed vocabulary of latency metrics, one histogram each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Metric {
    /// Session admission: `open_session` latency.
    AdmitLatency,
    /// Cross-model operation translation latency (relational sessions).
    TranslateLatency,
    /// Equivalence verification latency per staged transaction.
    VerifyLatency,
    /// End-to-end commit latency per transaction (enqueue → durable).
    CommitLatency,
    /// Group-commit batch flush latency (validate + WAL append + sync).
    GroupCommitLatency,
    /// WAL device sync latency.
    WalSyncLatency,
    /// Checkpoint encoding + append latency.
    CheckpointLatency,
    /// Per-record replay latency during crash recovery.
    ReplayLatency,
    /// Whole-check latency of a `Checker::run` invocation.
    CheckLatency,
    /// Closure-enumeration latency inside the parallel engine.
    ClosureLatency,
    /// End-to-end wire request latency at the network front door
    /// (frame decoded → response frame queued).
    RequestLatency,
    /// Symbolic-tier solver probe: decisions taken per find-mode query
    /// (one observation per SAT query, not a latency; the name keeps
    /// its exported `per_depth` form).
    SymbolicDecisionsPerDepth,
    /// Symbolic-tier solver probe: conflicts hit per find-mode query.
    SymbolicConflictsPerDepth,
    /// Symbolic-tier solver probe: clauses held (encoded + learned)
    /// per find-mode query.
    SymbolicClausesPerDepth,
    /// Symbolic-tier solver probe: restarts taken per find-mode query.
    SymbolicRestartsPerDepth,
    /// Whole-recovery latency (checkpoint-chain resolution + WAL
    /// replay + re-checkpoint) per `recover_sharded` call.
    RecoveryLatency,
}

impl Metric {
    /// Every metric, in declaration order (the registry's table order).
    pub const ALL: [Metric; 16] = [
        Metric::AdmitLatency,
        Metric::TranslateLatency,
        Metric::VerifyLatency,
        Metric::CommitLatency,
        Metric::GroupCommitLatency,
        Metric::WalSyncLatency,
        Metric::CheckpointLatency,
        Metric::ReplayLatency,
        Metric::CheckLatency,
        Metric::ClosureLatency,
        Metric::RequestLatency,
        Metric::SymbolicDecisionsPerDepth,
        Metric::SymbolicConflictsPerDepth,
        Metric::SymbolicClausesPerDepth,
        Metric::SymbolicRestartsPerDepth,
        Metric::RecoveryLatency,
    ];

    /// Number of metrics (the registry table length).
    pub const COUNT: usize = Self::ALL.len();

    /// The metric's stable snake_case name, used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Metric::AdmitLatency => "admit_latency_us",
            Metric::TranslateLatency => "translate_latency_us",
            Metric::VerifyLatency => "verify_latency_us",
            Metric::CommitLatency => "commit_latency_us",
            Metric::GroupCommitLatency => "group_commit_latency_us",
            Metric::WalSyncLatency => "wal_sync_latency_us",
            Metric::CheckpointLatency => "checkpoint_latency_us",
            Metric::ReplayLatency => "replay_latency_us",
            Metric::CheckLatency => "check_latency_us",
            Metric::ClosureLatency => "closure_latency_us",
            Metric::RequestLatency => "request_latency_us",
            Metric::SymbolicDecisionsPerDepth => "symbolic_decisions_per_depth",
            Metric::SymbolicConflictsPerDepth => "symbolic_conflicts_per_depth",
            Metric::SymbolicClausesPerDepth => "symbolic_clauses_per_depth",
            Metric::SymbolicRestartsPerDepth => "symbolic_restarts_per_depth",
            Metric::RecoveryLatency => "recovery_latency_us",
        }
    }

    /// The registry-table index of this metric.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of log buckets: bucket `b` holds values of bit-length `b`,
/// so 65 buckets (0 plus bit-lengths 1..=64) cover all of u64.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in: its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `b` (`0` for bucket 0,
/// `2^b - 1` otherwise).
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A concurrent log-bucketed histogram of microsecond latencies.
///
/// `record` is two relaxed atomic adds plus a relaxed max loop; readers
/// take a [`HistogramSnapshot`] and compute quantiles offline.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v` microseconds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable histogram snapshot: mergeable, quantile-queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket = bit length of the value).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum: u64,
    /// The largest observed value, in microseconds (exact, not
    /// bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Merges `other` into `self` by bucket-wise addition. Merging is
    /// associative and commutative, so per-thread histograms can be
    /// combined in any order. `sum` wraps on overflow — the same
    /// modular arithmetic the live histogram's atomic adds use — so a
    /// merge of snapshots always equals the snapshot of the combined
    /// sample stream.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// A conservative estimate of the `q`-quantile (0.0 ..= 1.0): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Returns 0 for an empty snapshot; the
    /// top quantile is clamped to the exact observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The mean in microseconds (0 for an empty snapshot).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A fixed table of one [`Histogram`] per [`Metric`].
pub struct MetricsRegistry {
    table: [Histogram; Metric::COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            table: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The histogram behind `metric`.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        &self.table[metric.index()]
    }

    /// Snapshots every non-empty metric, in [`Metric::ALL`] order.
    pub fn snapshot(&self) -> Vec<(Metric, HistogramSnapshot)> {
        Metric::ALL
            .iter()
            .map(|m| (*m, self.table[m.index()].snapshot()))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer {
    /// Records one latency observation against `metric`. A no-op when
    /// the observer is disabled.
    #[inline]
    pub fn record(&self, metric: Metric, micros: u64) {
        if let Some(reg) = self.metrics() {
            reg.histogram(metric).record(micros);
        }
    }

    /// Starts a timer that records its elapsed microseconds against
    /// `metric` when the returned guard drops.
    pub fn time(&self, metric: Metric) -> TimerGuard {
        TimerGuard {
            obs: if self.enabled() {
                Some((self.clone(), metric, Instant::now()))
            } else {
                None
            },
        }
    }

    /// A snapshot of one metric's histogram (empty when disabled).
    pub fn histogram(&self, metric: Metric) -> HistogramSnapshot {
        self.metrics()
            .map(|reg| reg.histogram(metric).snapshot())
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    /// Snapshots of every non-empty metric, in [`Metric::ALL`] order
    /// (empty when disabled).
    pub fn histograms(&self) -> Vec<(Metric, HistogramSnapshot)> {
        self.metrics().map(|reg| reg.snapshot()).unwrap_or_default()
    }
}

/// RAII timer returned by [`Observer::time`].
pub struct TimerGuard {
    obs: Option<(Observer, Metric, Instant)>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((obs, metric, started)) = self.obs.take() {
            obs.record(metric, started.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    #[test]
    fn metric_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn buckets_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Each bucket's upper bound lands back in that bucket, and lower
        // bounds are contiguous with the previous bucket's upper bound.
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(b)), b);
            if b > 0 {
                assert_eq!(bucket_of(bucket_upper(b - 1).wrapping_add(1)), b);
            }
        }
    }

    #[test]
    fn quantiles_are_conservative_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        // p50 rank=3 → value 3 lives in bucket 2, upper bound 3.
        assert_eq!(s.p50(), 3);
        // Top quantiles clamp to the observed max, not the bucket bound.
        assert_eq!(s.p99(), 1000);
        assert!(s.quantile(1.0) == 1000);
        assert_eq!(HistogramSnapshot::empty().p50(), 0);
    }

    #[test]
    fn merge_is_commutative_and_identity_respecting() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in [5u64, 10, 20] {
            h1.record(v);
        }
        for v in [1u64, 10_000] {
            h2.record(v);
        }
        let (s1, s2) = (h1.snapshot(), h2.snapshot());
        let mut a = s1.clone();
        a.merge(&s2);
        let mut b = s2.clone();
        b.merge(&s1);
        assert_eq!(a, b);
        assert_eq!(a.count, 5);
        assert_eq!(a.max, 10_000);
        let mut c = s1.clone();
        c.merge(&HistogramSnapshot::empty());
        assert_eq!(c, s1);
    }

    #[test]
    fn observer_registry_round_trip() {
        let obs = crate::Observer::new(RingSink::with_capacity(4));
        obs.record(Metric::CommitLatency, 120);
        obs.record(Metric::CommitLatency, 80);
        {
            let _t = obs.time(Metric::AdmitLatency);
        }
        let snap = obs.histogram(Metric::CommitLatency);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 200);
        let all = obs.histograms();
        assert_eq!(all.len(), 2, "admit + commit populated");
        assert_eq!(all[0].0, Metric::AdmitLatency);
        assert_eq!(all[1].0, Metric::CommitLatency);
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = crate::Observer::disabled();
        obs.record(Metric::CommitLatency, 10);
        let _t = obs.time(Metric::CommitLatency);
        assert_eq!(obs.histogram(Metric::CommitLatency).count, 0);
        assert!(obs.histograms().is_empty());
    }
}
