//! Golden-file tests for the telemetry exporter formats: the
//! Prometheus-style text and JSON renderings are machine-read by
//! scrapers and dashboards, so their exact shape is pinned
//! byte-for-byte under `tests/golden/`. Run with `UPDATE_GOLDEN=1` to
//! refresh after an intentional format change.

use std::path::PathBuf;

use borkin_equiv::obs::{
    json_snapshot, prometheus_text, Counter, Metric, Observer, RingSink, ShardRegistry,
    TelemetrySnapshot,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the pinned golden file, or rewrites the
/// file when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; rerun with UPDATE_GOLDEN=1 \
         if the change is intentional"
    );
}

/// An observer with a fixed set of counter bumps and latency samples —
/// everything the exporters render is a function of these values, so
/// the output is deterministic.
fn fixture_observer() -> Observer {
    let obs = Observer::new(RingSink::with_capacity(16));
    obs.add(Counter::SessionsOpened, 2);
    obs.add(Counter::TxnsCommitted, 7);
    obs.add(Counter::TxnsAborted, 1);
    obs.add(Counter::GroupCommits, 3);
    obs.add(Counter::WalRecordsAppended, 7);
    obs.add(Counter::CheckpointsTaken, 1);
    for v in [90, 110, 130, 600, 2_500] {
        obs.record(Metric::CommitLatency, v);
    }
    for v in [40, 55, 70] {
        obs.record(Metric::WalSyncLatency, v);
    }
    obs.record(Metric::ReplayLatency, 12_000);
    obs
}

/// A two-lane shard registry with fixed per-shard counts: the sharded
/// renders label each lane's counters, latency summaries and
/// commit-lane depth gauge with `shard="i"`.
fn fixture_shards() -> ShardRegistry {
    let reg = ShardRegistry::new(2);
    let lane0 = reg.shard(0);
    lane0.add(Counter::TxnsCommitted, 4);
    lane0.add(Counter::RequestsShed, 1);
    lane0.add(Counter::WalRecordsAppended, 5);
    lane0.set_lane_depth(2);
    for v in [90, 110, 600] {
        lane0.record(Metric::CommitLatency, v);
    }
    let lane1 = reg.shard(1);
    lane1.add(Counter::TxnsCommitted, 3);
    lane1.add(Counter::CrossShardCommits, 1);
    lane1.add(Counter::WalRecordsAppended, 2);
    for v in [130, 2_500] {
        lane1.record(Metric::CommitLatency, v);
    }
    reg
}

#[test]
fn prometheus_text_format_is_pinned() {
    let snap = TelemetrySnapshot::capture_with_shards(&fixture_observer(), &fixture_shards());
    check_golden("telemetry_prometheus.txt", &snap.to_prometheus_text());
}

#[test]
fn json_snapshot_format_is_pinned() {
    let snap = TelemetrySnapshot::capture_with_shards(&fixture_observer(), &fixture_shards());
    check_golden("telemetry_snapshot.json", &snap.to_json());
}

/// The golden fixtures double as format checks: the text rendering
/// exposes every counter (a fixed sample set, zeros included) and the
/// JSON parses line-free with sparse buckets.
#[test]
fn exporters_satisfy_their_format_contracts() {
    let obs = fixture_observer();
    let text = prometheus_text(&obs);
    for counter in Counter::ALL {
        assert!(
            text.contains(&format!("dme_counter{{name=\"{}\"}}", counter.name())),
            "text export misses counter {}",
            counter.name()
        );
    }
    assert!(text.contains("quantile=\"0.99\""));
    assert!(text.ends_with('\n'));

    let json = json_snapshot(&obs);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(!json.contains('\n'), "JSON snapshot is a single line");
    assert!(json.contains("\"commit_latency_us\""));
    assert!(
        !json.contains("\"nodes_expanded\""),
        "zero counters are omitted from JSON"
    );
    // The global-only renders carry no shard families at all: those
    // appear exactly when a shard registry is attached.
    assert!(!text.contains("dme_shard_"));
    assert!(!json.contains("\"shards\""));
}

/// Contract for the storage-engine families: the snapshot/GC/
/// checkpoint/replay counters and the recovery-latency histogram added
/// with the storage tier must reach both exporters under their wire
/// names — dashboards key on these exact strings.
#[test]
fn storage_engine_families_reach_both_exporters() {
    let obs = fixture_observer();
    obs.add(Counter::SnapshotOpens, 3);
    obs.add(Counter::VersionsGcd, 17);
    obs.add(Counter::CheckpointBytes, 4_096);
    obs.add(Counter::ReplayBytes, 512);
    obs.record(Metric::RecoveryLatency, 8_500);

    let text = prometheus_text(&obs);
    for family in [
        "dme_counter{name=\"snapshot_opens\"} 3",
        "dme_counter{name=\"versions_gcd\"} 17",
        "dme_counter{name=\"checkpoint_bytes\"} 4096",
        "dme_counter{name=\"replay_bytes\"} 512",
        "dme_latency_us{metric=\"recovery_latency_us\",quantile=\"0.5\"}",
    ] {
        assert!(text.contains(family), "text export misses {family}");
    }

    let json = json_snapshot(&obs);
    for field in [
        "\"snapshot_opens\":3",
        "\"versions_gcd\":17",
        "\"checkpoint_bytes\":4096",
        "\"replay_bytes\":512",
        "\"recovery_latency_us\"",
    ] {
        assert!(json.contains(field), "JSON export misses {field}");
    }
}

/// The sharded renders label every lane: per-shard counters (non-zero
/// only), the commit-lane depth gauge (always, it is a gauge), and
/// per-shard latency summaries, all with `shard="i"` labels — on top
/// of the unchanged global families.
#[test]
fn sharded_exports_label_every_lane() {
    let snap = TelemetrySnapshot::capture_with_shards(&fixture_observer(), &fixture_shards());
    let text = snap.to_prometheus_text();
    assert!(text.contains("dme_shard_counter{shard=\"0\",name=\"requests_shed\"} 1"));
    assert!(text.contains("dme_shard_counter{shard=\"1\",name=\"cross_shard_commits\"} 1"));
    assert!(text.contains("dme_shard_lane_depth{shard=\"0\"} 2"));
    assert!(text.contains("dme_shard_lane_depth{shard=\"1\"} 0"));
    assert!(text.contains("dme_shard_latency_us{shard=\"0\",metric=\"commit_latency_us\""));
    assert!(
        !text.contains("dme_shard_counter{shard=\"1\",name=\"requests_shed\"}"),
        "zero per-shard counters are omitted from the labelled render"
    );

    let json = snap.to_json();
    assert!(json.contains("\"shards\":[{\"shard\":0,"));
    assert!(json.contains("\"lane_depth\":2"));
    assert!(json.contains("\"cross_shard_commits\":1"));

    // Merging the lanes reproduces the totals a single registry would
    // have counted.
    let merged = snap.merged_shards();
    let committed = merged
        .counters
        .iter()
        .find(|(c, _)| *c == Counter::TxnsCommitted)
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(committed, 7, "4 + 3 commits across the lanes");
    assert_eq!(merged.lane_depth, 2, "gauges sum across lanes");
}
