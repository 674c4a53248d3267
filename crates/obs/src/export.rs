//! Exporters: stable text renderings of an observer's counters and
//! latency histograms.
//!
//! Two formats, both with deterministic field ordering (declaration
//! order of [`Counter::ALL`] and [`Metric::ALL`]):
//!
//! * [`prometheus_text`] — the Prometheus exposition text format:
//!   every counter as a `dme_counter{name="…"}` sample, every
//!   populated histogram as a `dme_latency_us{metric="…"}` summary
//!   with `quantile` labels plus `_sum`/`_count` samples.
//! * [`json_snapshot`] — one JSON object with `counters` (non-zero
//!   only) and `metrics` (populated only) maps, including the sparse
//!   bucket table so snapshots from different processes can be merged
//!   offline.

use crate::event::Counter;
use crate::json::escape;
use crate::metrics::{HistogramSnapshot, Metric};
use crate::registry::{ShardRegistry, ShardSnapshot};
use crate::Observer;

/// A point-in-time copy of everything an exporter needs: all counter
/// values, every populated histogram, and (when the process is
/// sharded) every shard lane's own registry.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Every counter's current value, in [`Counter::ALL`] order
    /// (zeros included, so the sample set is fixed).
    pub counters: Vec<(Counter, u64)>,
    /// Every populated metric's histogram, in [`Metric::ALL`] order.
    pub metrics: Vec<(Metric, HistogramSnapshot)>,
    /// Per-shard registries, in shard order. Empty for unsharded
    /// processes — the renders are then byte-identical to the
    /// pre-sharding format.
    pub shards: Vec<ShardSnapshot>,
}

impl TelemetrySnapshot {
    /// Captures the observer's current state. Disabled observers yield
    /// an all-zero snapshot (still with the full counter sample set).
    pub fn capture(obs: &Observer) -> Self {
        TelemetrySnapshot {
            // Unlike `Observer::counters`, zeros stay: exporters need a
            // fixed sample set across scrapes.
            counters: Counter::ALL.iter().map(|c| (*c, obs.counter(*c))).collect(),
            metrics: obs.histograms(),
            shards: Vec::new(),
        }
    }

    /// Captures the observer plus every shard lane's registry.
    pub fn capture_with_shards(obs: &Observer, shards: &ShardRegistry) -> Self {
        let mut snap = Self::capture(obs);
        snap.shards = shards.snapshot();
        snap
    }

    /// The merged view of every shard in this snapshot (the identity
    /// [`ShardSnapshot::empty`] when unsharded).
    pub fn merged_shards(&self) -> ShardSnapshot {
        let mut out = ShardSnapshot::empty();
        for s in &self.shards {
            out.merge(s);
        }
        out
    }

    /// The delta of this snapshot against an earlier one: counters and
    /// histogram buckets subtract (wrapping, so wrapped atomics stay
    /// consistent), gauges keep their *current* value, `max` keeps the
    /// current high-water mark. Metrics whose count did not move are
    /// dropped. This is the frame format `WatchMetrics` streams: each
    /// push says what happened *since the previous push*.
    pub fn delta(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(c, v)| {
                let before = prev
                    .counters
                    .iter()
                    .find(|(pc, _)| pc == c)
                    .map(|(_, pv)| *pv)
                    .unwrap_or(0);
                (*c, v.wrapping_sub(before))
            })
            .collect();
        let metrics = delta_metrics(&self.metrics, &prev.metrics);
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let before = prev.shards.get(i);
                ShardSnapshot {
                    counters: s
                        .counters
                        .iter()
                        .map(|(c, v)| {
                            let bv = before
                                .and_then(|b| b.counters.iter().find(|(bc, _)| bc == c))
                                .map(|(_, bv)| *bv)
                                .unwrap_or(0);
                            (*c, v.wrapping_sub(bv))
                        })
                        .collect(),
                    metrics: delta_metrics(
                        &s.metrics,
                        before.map(|b| b.metrics.as_slice()).unwrap_or(&[]),
                    ),
                    // A gauge has no meaningful difference; report the
                    // current depth.
                    lane_depth: s.lane_depth,
                }
            })
            .collect();
        TelemetrySnapshot {
            counters,
            metrics,
            shards,
        }
    }

    /// Renders the snapshot in the Prometheus exposition text format.
    ///
    /// Sharded snapshots additionally render every lane's registry as
    /// `shard="N"`-labelled families (`dme_shard_counter`,
    /// `dme_shard_latency_us`, `dme_shard_lane_depth`) after the
    /// merged/global view; per-shard counters render only non-zero
    /// samples to keep the scrape proportional to activity.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP dme_counter Monotonic engine and service counters.\n");
        out.push_str("# TYPE dme_counter counter\n");
        for (c, v) in &self.counters {
            out.push_str(&format!("dme_counter{{name=\"{}\"}} {v}\n", c.name()));
        }
        out.push_str("# HELP dme_latency_us Log-bucketed latency summaries (microseconds).\n");
        out.push_str("# TYPE dme_latency_us summary\n");
        for (m, s) in &self.metrics {
            render_summary(
                &mut out,
                "dme_latency_us",
                &format!("metric=\"{}\"", m.name()),
                s,
            );
        }
        if !self.shards.is_empty() {
            out.push_str(
                "# HELP dme_shard_counter Per-shard monotonic counters (non-zero only).\n",
            );
            out.push_str("# TYPE dme_shard_counter counter\n");
            for (i, shard) in self.shards.iter().enumerate() {
                for (c, v) in &shard.counters {
                    if *v != 0 {
                        out.push_str(&format!(
                            "dme_shard_counter{{shard=\"{i}\",name=\"{}\"}} {v}\n",
                            c.name()
                        ));
                    }
                }
            }
            out.push_str("# HELP dme_shard_lane_depth Commit-lane queue depth per shard.\n");
            out.push_str("# TYPE dme_shard_lane_depth gauge\n");
            for (i, shard) in self.shards.iter().enumerate() {
                out.push_str(&format!(
                    "dme_shard_lane_depth{{shard=\"{i}\"}} {}\n",
                    shard.lane_depth
                ));
            }
            out.push_str(
                "# HELP dme_shard_latency_us Per-shard log-bucketed latency summaries (microseconds).\n",
            );
            out.push_str("# TYPE dme_shard_latency_us summary\n");
            for (i, shard) in self.shards.iter().enumerate() {
                for (m, s) in &shard.metrics {
                    render_summary(
                        &mut out,
                        "dme_shard_latency_us",
                        &format!("shard=\"{i}\",metric=\"{}\"", m.name()),
                        s,
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object (no trailing newline):
    /// `{"counters":{…non-zero…},"metrics":{name:{count,sum,max,p50,
    /// p95,p99,buckets:[[bucket,count],…]}}}`. Sharded snapshots gain a
    /// `"shards"` array with one `{shard,lane_depth,counters,metrics}`
    /// object per lane; unsharded output is byte-identical to the
    /// pre-sharding format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_counters_json(&mut out, &self.counters);
        out.push(',');
        push_metrics_json(&mut out, &self.metrics);
        if !self.shards.is_empty() {
            out.push_str(",\"shards\":[");
            for (i, shard) in self.shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"shard\":{i},\"lane_depth\":{},",
                    shard.lane_depth
                ));
                push_counters_json(&mut out, &shard.counters);
                out.push(',');
                push_metrics_json(&mut out, &shard.metrics);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Appends `"counters":{…non-zero…}` to `out`.
fn push_counters_json(out: &mut String, counters: &[(Counter, u64)]) {
    out.push_str("\"counters\":{");
    let mut first = true;
    for (c, v) in counters {
        if *v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{v}", c.name()));
    }
    out.push('}');
}

/// Appends `"metrics":{…}` to `out`.
fn push_metrics_json(out: &mut String, metrics: &[(Metric, HistogramSnapshot)]) {
    out.push_str("\"metrics\":{");
    for (i, (m, s)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            escape(m.name()),
            s.count,
            s.sum,
            s.max,
            s.p50(),
            s.p95(),
            s.p99()
        ));
        let mut first_bucket = true;
        for (b, n) in s.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first_bucket {
                out.push(',');
            }
            first_bucket = false;
            out.push_str(&format!("[{b},{n}]"));
        }
        out.push_str("]}");
    }
    out.push('}');
}

/// Appends one Prometheus summary (quantiles + `_sum`/`_count`) for a
/// histogram under `family{labels}`.
fn render_summary(out: &mut String, family: &str, labels: &str, s: &HistogramSnapshot) {
    for (q, v) in [
        ("0.5", s.p50()),
        ("0.95", s.p95()),
        ("0.99", s.p99()),
        ("1", s.max),
    ] {
        out.push_str(&format!("{family}{{{labels},quantile=\"{q}\"}} {v}\n"));
    }
    out.push_str(&format!("{family}_sum{{{labels}}} {}\n", s.sum));
    out.push_str(&format!("{family}_count{{{labels}}} {}\n", s.count));
}

/// Histogram deltas between two captures: buckets, count and sum
/// subtract (wrapping); `max` keeps the current high-water mark.
/// Metrics that did not move are dropped.
fn delta_metrics(
    now: &[(Metric, HistogramSnapshot)],
    prev: &[(Metric, HistogramSnapshot)],
) -> Vec<(Metric, HistogramSnapshot)> {
    now.iter()
        .filter_map(|(m, s)| {
            let before = prev.iter().find(|(pm, _)| pm == m).map(|(_, ps)| ps);
            let mut d = s.clone();
            if let Some(ps) = before {
                for (a, b) in d.buckets.iter_mut().zip(&ps.buckets) {
                    *a = a.wrapping_sub(*b);
                }
                d.count = d.count.wrapping_sub(ps.count);
                d.sum = d.sum.wrapping_sub(ps.sum);
            }
            (d.count > 0).then_some((*m, d))
        })
        .collect()
}

/// Captures `obs` and renders it in the Prometheus exposition format.
pub fn prometheus_text(obs: &Observer) -> String {
    TelemetrySnapshot::capture(obs).to_prometheus_text()
}

/// Captures `obs` and renders it as one JSON object.
pub fn json_snapshot(obs: &Observer) -> String {
    TelemetrySnapshot::capture(obs).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    fn sample_observer() -> Observer {
        let obs = Observer::new(RingSink::with_capacity(8));
        obs.add(Counter::TxnsCommitted, 4);
        obs.record(Metric::CommitLatency, 100);
        obs.record(Metric::CommitLatency, 250);
        obs
    }

    #[test]
    fn prometheus_text_has_fixed_counter_sample_set() {
        let text = prometheus_text(&sample_observer());
        // All 26 counters present, zero or not.
        assert_eq!(
            text.matches("dme_counter{").count(),
            Counter::COUNT,
            "{text}"
        );
        assert!(text.contains("dme_counter{name=\"txns_committed\"} 4"));
        assert!(text.contains("dme_counter{name=\"nodes_expanded\"} 0"));
        assert!(text.contains("dme_latency_us{metric=\"commit_latency_us\",quantile=\"0.5\"} 127"));
        assert!(text.contains("dme_latency_us_count{metric=\"commit_latency_us\"} 2"));
        assert!(text.contains("dme_latency_us_sum{metric=\"commit_latency_us\"} 350"));
    }

    #[test]
    fn json_snapshot_omits_zeros_and_carries_buckets() {
        let json = json_snapshot(&sample_observer());
        assert!(
            json.contains("\"counters\":{\"txns_committed\":4}"),
            "{json}"
        );
        assert!(json.contains("\"commit_latency_us\":{\"count\":2,\"sum\":350,\"max\":250"));
        // 100 has bit length 7, 250 has bit length 8.
        assert!(json.contains("\"buckets\":[[7,1],[8,1]]"), "{json}");
    }

    #[test]
    fn disabled_observer_exports_cleanly() {
        let obs = Observer::disabled();
        let text = prometheus_text(&obs);
        assert_eq!(text.matches("dme_counter{").count(), Counter::COUNT);
        assert!(!text.contains("dme_latency_us{"));
        assert_eq!(json_snapshot(&obs), "{\"counters\":{},\"metrics\":{}}");
    }

    fn sharded_snapshot() -> TelemetrySnapshot {
        let reg = ShardRegistry::new(2);
        reg.shard(0).add(Counter::RequestsShed, 3);
        reg.shard(0).set_lane_depth(5);
        reg.shard(1).add(Counter::TxnsCommitted, 2);
        reg.shard(1).record(Metric::CommitLatency, 100);
        TelemetrySnapshot::capture_with_shards(&sample_observer(), &reg)
    }

    #[test]
    fn sharded_render_labels_every_lane() {
        let snap = sharded_snapshot();
        let text = snap.to_prometheus_text();
        // The merged/global families are unchanged.
        assert_eq!(text.matches("dme_counter{").count(), Counter::COUNT);
        assert!(text.contains("dme_shard_counter{shard=\"0\",name=\"requests_shed\"} 3"));
        assert!(text.contains("dme_shard_counter{shard=\"1\",name=\"txns_committed\"} 2"));
        assert!(text.contains("dme_shard_lane_depth{shard=\"0\"} 5"));
        assert!(text.contains("dme_shard_lane_depth{shard=\"1\"} 0"));
        assert!(
            text.contains("dme_shard_latency_us_count{shard=\"1\",metric=\"commit_latency_us\"} 1")
        );
        let json = snap.to_json();
        assert!(
            json.contains("\"shards\":[{\"shard\":0,\"lane_depth\":5,"),
            "{json}"
        );
        assert!(json.contains("\"requests_shed\":3"), "{json}");
        let merged = snap.merged_shards();
        let shed = merged
            .counters
            .iter()
            .find(|(c, _)| *c == Counter::RequestsShed)
            .unwrap()
            .1;
        assert_eq!(shed, 3);
    }

    #[test]
    fn deltas_subtract_counters_and_buckets() {
        let obs = sample_observer();
        let before = TelemetrySnapshot::capture(&obs);
        obs.add(Counter::TxnsCommitted, 6);
        obs.record(Metric::CommitLatency, 100);
        obs.record(Metric::AdmitLatency, 9);
        let after = TelemetrySnapshot::capture(&obs);
        let d = after.delta(&before);
        let committed = d
            .counters
            .iter()
            .find(|(c, _)| *c == Counter::TxnsCommitted)
            .unwrap()
            .1;
        assert_eq!(committed, 6, "delta counts only the new commits");
        // commit_latency moved by one sample; the two old samples
        // cancel out.
        let commit = d
            .metrics
            .iter()
            .find(|(m, _)| *m == Metric::CommitLatency)
            .unwrap();
        assert_eq!(commit.1.count, 1);
        assert_eq!(commit.1.sum, 100);
        let admit = d
            .metrics
            .iter()
            .find(|(m, _)| *m == Metric::AdmitLatency)
            .unwrap();
        assert_eq!(admit.1.count, 1);
        // A snapshot minus itself is all zeros and drops every metric.
        let zero = after.delta(&after);
        assert!(zero.counters.iter().all(|(_, v)| *v == 0));
        assert!(zero.metrics.is_empty());
    }

    #[test]
    fn shard_deltas_track_per_lane_movement() {
        let reg = ShardRegistry::new(2);
        let obs = Observer::disabled();
        reg.shard(0).add(Counter::RequestsShed, 1);
        let before = TelemetrySnapshot::capture_with_shards(&obs, &reg);
        reg.shard(0).add(Counter::RequestsShed, 4);
        reg.shard(1).set_lane_depth(9);
        let after = TelemetrySnapshot::capture_with_shards(&obs, &reg);
        let d = after.delta(&before);
        assert_eq!(d.shards.len(), 2);
        let shed = d.shards[0]
            .counters
            .iter()
            .find(|(c, _)| *c == Counter::RequestsShed)
            .unwrap()
            .1;
        assert_eq!(shed, 4);
        assert_eq!(d.shards[1].lane_depth, 9, "gauges report current depth");
    }
}
