//! Crash-recovery fault-injection matrix for the session service.
//!
//! The service's durable state is a checkpoint stream plus a WAL, both
//! append-only; a crash therefore always leaves a *byte prefix* of each
//! device. The matrix cuts a finished run's durable image at the byte
//! offsets corresponding to four fault points —
//!
//! 1. **before** a transaction's journal append,
//! 2. **mid-append** (a torn WAL record),
//! 3. **after** the append but before the next checkpoint,
//! 4. **mid-checkpoint** (a torn checkpoint record),
//!
//! — across multiple workload seeds, and requires recovery to be
//! deterministic and *prefix-consistent*: the recovered state equals
//! the sequential replay of exactly the committed transactions whose
//! records survive complete, and aborted transactions (which never
//! reach the log) are never resurrected.

use std::path::PathBuf;
use std::sync::Arc;

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::{GraphOp, GraphState};
use borkin_equiv::obs::FlightRecorder;
use borkin_equiv::server::{
    DurableImage, MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec,
};
use borkin_equiv::storage::wal;
use borkin_equiv::workload::{self, ShopConfig};

const SEEDS: [u64; 5] = [11, 23, 47, 95, 191];

/// Every test runs under a flight recorder and leaves a dump in
/// `target/flight/` — the artifact CI uploads when a leg fails — and
/// the dump itself must be machine-readable: a `flight_header` line,
/// JSON event lines, and a closing `flight_snapshot` line.
fn dump_flight(recorder: &FlightRecorder, test: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("flight")
        .join(format!("{test}.jsonl"));
    recorder.dump_to(&path).expect("flight dump writes");
    let dump = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() >= 2, "{test}: dump has header + snapshot");
    assert!(
        lines[0].contains("\"ev\":\"flight_header\""),
        "{test}: dump opens with a header: {}",
        lines[0]
    );
    assert!(
        lines.last().unwrap().contains("\"ev\":\"flight_snapshot\""),
        "{test}: dump closes with the telemetry snapshot"
    );
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "{test}: not a JSON line: {line}"
        );
    }
}

fn shop_cfg(seed: u64) -> ShopConfig {
    ShopConfig {
        employees: 6,
        machines: 3,
        supervisions: 4,
        seed,
    }
}

fn views(cfg: ShopConfig) -> Vec<ViewSpec> {
    vec![ViewSpec {
        name: "personnel".into(),
        schema: workload::personnel_schema(cfg),
        mode: CompletionMode::Minimal,
    }]
}

/// A finished run to cut crash images from: the full durable image, the
/// initial state, the committed schedule, and how many operations
/// aborted (so every seed provably exercises the abort path too).
struct Run {
    cfg: ShopConfig,
    initial: GraphState,
    image: DurableImage,
    committed: Vec<(u64, Vec<GraphOp>)>,
    aborted: usize,
    /// Byte offset where each WAL record's frame starts, plus the final
    /// end offset.
    wal_offsets: Vec<usize>,
    /// Records the run and every recovery from its cut images; each
    /// test dumps it into `target/flight/`.
    recorder: FlightRecorder,
}

fn recorded_config(recorder: &FlightRecorder) -> ServiceConfig {
    ServiceConfig {
        obs: recorder.observer().clone(),
        ..ServiceConfig::default()
    }
}

/// Runs a single-session deterministic workload: toggles applied in
/// order, some of which abort (double inserts), with one checkpoint
/// taken mid-run so images carry both a checkpoint and a WAL tail.
fn run_workload(seed: u64) -> Run {
    let cfg = shop_cfg(seed);
    let initial = workload::graph_state(cfg);
    let recorder = FlightRecorder::with_capacity(4096);
    let service = SessionService::new(
        initial.clone(),
        views(cfg),
        recorded_config(&recorder),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let mut session = service.open_session(SessionKind::Graph).unwrap();
    let ops = workload::supervision_toggle_ops(cfg, 8);
    let mut aborted = 0;
    for (i, op) in ops.iter().enumerate() {
        // Re-submitting the same toggle twice forces an abort: the
        // second application is invalid against the committed state.
        if session.submit_graph(vec![op.clone()]).is_err() {
            aborted += 1;
        }
        if session.submit_graph(vec![op.clone()]).is_err() {
            aborted += 1;
        }
        if i == 3 {
            service.checkpoint_now().unwrap();
        }
    }
    session.close().unwrap();
    let image = service.durable_image();
    let committed = service
        .committed_history()
        .into_iter()
        .map(|t| (t.lsn, t.ops))
        .collect();
    let (records, tail) = wal::replay_tolerant(&image.wal);
    assert!(tail.is_none(), "a finished run's WAL is clean");
    let mut wal_offsets = vec![0];
    for r in &records {
        wal_offsets.push(wal_offsets.last().unwrap() + r.frame_len());
    }
    Run {
        cfg,
        initial,
        image,
        committed,
        aborted,
        wal_offsets,
        recorder,
    }
}

/// The oracle: sequential replay of the first `n` committed
/// transactions.
fn prefix_state(run: &Run, n: usize) -> GraphState {
    let mut state = run.initial.clone();
    for (_, ops) in run.committed.iter().take(n) {
        state = GraphOp::apply_all(ops, &state).expect("committed schedule replays");
    }
    state
}

/// Recovers from a cut image and asserts prefix consistency: the
/// recovered state must equal the replay of exactly the surviving
/// complete records. Returns the recovered conceptual state.
fn recover_and_check(run: &Run, image: &DurableImage, label: &str) -> GraphState {
    let (recovered, report) = SessionService::recover(
        Arc::clone(run.initial.schema()),
        image,
        views(run.cfg),
        recorded_config(&run.recorder),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let state = (*recovered.conceptual()).clone();
    // How many committed transactions survive in this image? Complete
    // WAL records with lsn > 0 are committed transactions (checkpoints
    // live on the other device).
    let (records, _) = wal::replay_tolerant(&image.wal);
    let survived = records.len();
    assert_eq!(
        state,
        prefix_state(run, survived),
        "{label}: recovered state is not the {survived}-transaction prefix"
    );
    // Deterministic: recovering the same image again gives the same
    // state and the same report.
    let (again, report2) = SessionService::recover(
        Arc::clone(run.initial.schema()),
        image,
        views(run.cfg),
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    assert_eq!(
        *again.conceptual(),
        state,
        "{label}: recovery not deterministic"
    );
    assert_eq!(
        report2, report,
        "{label}: recovery report not deterministic"
    );
    // The view is rebuilt consistent (Definition 2 in its vocabulary).
    let view_ok = recovered.view_state("personnel").is_some();
    assert!(view_ok, "{label}: view not rebuilt");
    state
}

#[test]
fn fault_point_1_crash_before_journal_append() {
    for seed in SEEDS {
        let run = run_workload(seed);
        assert!(run.committed.len() >= 3, "seed {seed} needs ≥3 commits");
        assert!(run.aborted > 0, "seed {seed} must exercise the abort path");
        // Crash immediately before appending transaction k: the WAL
        // ends exactly at record k-1's end.
        for k in 1..run.committed.len() {
            let image = DurableImage {
                wal: run.image.wal[..run.wal_offsets[k]].to_vec(),
                checkpoint: run.image.checkpoint.clone(),
                shard_wals: Vec::new(),
            };
            // The checkpoint may be *ahead* of this WAL prefix (it was
            // taken mid-run); keep only checkpoints covered by the
            // surviving WAL so the image is a consistent crash cut.
            let image = clamp_checkpoint(&run, image, k);
            recover_and_check(&run, &image, &format!("seed {seed}, before-append txn {k}"));
        }
        dump_flight(&run.recorder, "fault_point_1_before_append");
    }
}

/// Drops checkpoint records whose lsn exceeds the surviving WAL prefix
/// (a real crash at that instant could not have written them yet).
fn clamp_checkpoint(run: &Run, mut image: DurableImage, k: usize) -> DurableImage {
    let max_lsn = run.committed[..k].last().map(|(lsn, _)| *lsn).unwrap_or(0);
    let (records, _) = wal::replay_tolerant(&image.checkpoint);
    let mut buf = Vec::new();
    for r in records {
        if r.lsn <= max_lsn {
            wal::append_record_traced(&mut buf, r.lsn, r.trace, r.payload);
        }
    }
    image.checkpoint = buf;
    image
}

#[test]
fn fault_point_2_crash_mid_append_tears_the_record() {
    for seed in SEEDS {
        let run = run_workload(seed);
        for k in 1..=run.committed.len() {
            // Tear transaction k's record at several depths.
            let (start, end) = (run.wal_offsets[k - 1], run.wal_offsets[k]);
            for cut in [start + 1, start + (end - start) / 2, end - 1] {
                let image = clamp_checkpoint(
                    &run,
                    DurableImage {
                        wal: run.image.wal[..cut].to_vec(),
                        checkpoint: run.image.checkpoint.clone(),
                        shard_wals: Vec::new(),
                    },
                    k - 1,
                );
                let state = recover_and_check(
                    &run,
                    &image,
                    &format!("seed {seed}, mid-append txn {k} cut {cut}"),
                );
                // The torn transaction itself must not be visible.
                assert_eq!(state, prefix_state(&run, k - 1));
            }
        }
        dump_flight(&run.recorder, "fault_point_2_mid_append");
    }
}

#[test]
fn fault_point_3_crash_after_append_before_checkpoint() {
    for seed in SEEDS {
        let run = run_workload(seed);
        // The full WAL survived but the mid-run checkpoint did not: the
        // checkpoint device holds only the initial (lsn 0) checkpoint.
        let (cp_records, _) = wal::replay_tolerant(&run.image.checkpoint);
        assert!(
            cp_records.len() >= 2,
            "seed {seed}: run must checkpoint mid-way"
        );
        let mut initial_only = Vec::new();
        wal::append_record_traced(
            &mut initial_only,
            cp_records[0].lsn,
            cp_records[0].trace,
            cp_records[0].payload,
        );
        let image = DurableImage {
            wal: run.image.wal.clone(),
            checkpoint: initial_only,
            shard_wals: Vec::new(),
        };
        let state = recover_and_check(&run, &image, &format!("seed {seed}, pre-checkpoint"));
        // Everything committed is recovered even without the newer
        // checkpoint — the checkpoint only bounds replay work.
        assert_eq!(state, prefix_state(&run, run.committed.len()));
        dump_flight(&run.recorder, "fault_point_3_pre_checkpoint");
    }
}

#[test]
fn fault_point_4_crash_mid_checkpoint_falls_back() {
    for seed in SEEDS {
        let run = run_workload(seed);
        let (cp_records, _) = wal::replay_tolerant(&run.image.checkpoint);
        let mut prefix = Vec::new();
        for r in &cp_records[..cp_records.len() - 1] {
            wal::append_record_traced(&mut prefix, r.lsn, r.trace, r.payload);
        }
        let intact = prefix.len();
        let last = cp_records.last().unwrap();
        let mut full = prefix.clone();
        wal::append_record_traced(&mut full, last.lsn, last.trace, last.payload);
        // Tear the final checkpoint record at several depths: recovery
        // falls back to the previous checkpoint + full WAL replay.
        for cut in [
            intact + 1,
            intact + (full.len() - intact) / 2,
            full.len() - 1,
        ] {
            let image = DurableImage {
                wal: run.image.wal.clone(),
                checkpoint: full[..cut].to_vec(),
                shard_wals: Vec::new(),
            };
            let state = recover_and_check(
                &run,
                &image,
                &format!("seed {seed}, mid-checkpoint cut {cut}"),
            );
            assert_eq!(state, prefix_state(&run, run.committed.len()));
        }
        dump_flight(&run.recorder, "fault_point_4_mid_checkpoint");
    }
}

/// Checkpoint payload tags (see `server::codec`): a full image carries
/// the whole conceptual state; an incremental image carries the dirty
/// keys' records chained by LSN to the previous image.
const CP_FULL: u8 = 0xF0;
const CP_INCR: u8 = 0xF1;

/// Runs a single-session workload under an incremental-checkpoint
/// cadence (`checkpoint_every: 2, full_checkpoint_every: 3`) long
/// enough for two post-boot full images — which is what arms WAL
/// truncation (the log is only trimmed up to the *previous* full).
fn chained_run(seed: u64) -> Run {
    let cfg = shop_cfg(seed);
    let initial = workload::graph_state(cfg);
    let recorder = FlightRecorder::with_capacity(4096);
    let config = ServiceConfig {
        checkpoint_every: 2,
        full_checkpoint_every: 3,
        ..recorded_config(&recorder)
    };
    let service = SessionService::new(
        initial.clone(),
        views(cfg),
        config,
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let mut session = service.open_session(SessionKind::Graph).unwrap();
    let ops = workload::supervision_toggle_ops(cfg, 14);
    for op in &ops {
        session.submit_graph(vec![op.clone()]).unwrap();
    }
    session.close().unwrap();
    let image = service.durable_image();
    let committed: Vec<(u64, Vec<GraphOp>)> = service
        .committed_history()
        .into_iter()
        .map(|t| (t.lsn, t.ops))
        .collect();
    assert_eq!(committed.len(), ops.len(), "every toggle commits once");
    let (records, tail) = wal::replay_tolerant(&image.wal);
    assert!(tail.is_none(), "a finished run's WAL is clean");
    let mut wal_offsets = vec![0];
    for r in &records {
        wal_offsets.push(wal_offsets.last().unwrap() + r.frame_len());
    }
    Run {
        cfg,
        initial,
        image,
        committed,
        aborted: 0,
        wal_offsets,
        recorder,
    }
}

/// Recovers a (possibly checkpoint-corrupted) image from a chained run
/// and asserts it equals the full committed prefix — valid whenever the
/// surviving checkpoint chain is no older than the WAL truncation
/// horizon, which the truncation policy guarantees for any single
/// corruption of the newest chain.
fn recover_chained(
    run: &Run,
    image: &DurableImage,
    label: &str,
) -> borkin_equiv::server::RecoveryReport {
    let (recovered, report) = SessionService::recover(
        Arc::clone(run.initial.schema()),
        image,
        views(run.cfg),
        recorded_config(&run.recorder),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    assert_eq!(
        *recovered.conceptual(),
        prefix_state(run, run.committed.len()),
        "{label}: recovered state is not the full committed prefix"
    );
    report
}

/// The tentpole's compaction leg: incremental checkpoints chain to
/// their full base, a second full image truncates the WAL, and the
/// truncated image still recovers every committed transaction.
#[test]
fn incremental_checkpoints_compact_and_wal_truncates() {
    for seed in SEEDS {
        let run = chained_run(seed);
        let (cp_records, tail) = wal::replay_tolerant(&run.image.checkpoint);
        assert!(tail.is_none(), "seed {seed}: checkpoint stream is clean");
        let fulls: Vec<usize> = (0..cp_records.len())
            .filter(|&i| cp_records[i].payload[0] == CP_FULL)
            .collect();
        let incrs = cp_records
            .iter()
            .filter(|r| r.payload[0] == CP_INCR)
            .count();
        assert!(
            fulls.len() >= 3,
            "seed {seed}: boot + two post-boot full images"
        );
        assert!(incrs >= 2, "seed {seed}: cadence produced incrementals");
        // The WAL really was truncated: its oldest surviving record is
        // past the previous full image, not lsn 1.
        let (wal_records, _) = wal::replay_tolerant(&run.image.wal);
        let oldest = wal_records.first().map(|r| r.lsn).unwrap_or(0);
        let prev_full_lsn = cp_records[fulls[fulls.len() - 2]].lsn;
        assert!(
            oldest > 1 && oldest == prev_full_lsn + 1,
            "seed {seed}: WAL starts at {oldest}, want {}",
            prev_full_lsn + 1
        );
        // Truncation lost nothing committed: the intact image recovers
        // the full prefix, and its chain folds incremental images.
        let base = recover_chained(&run, &run.image, &format!("seed {seed}, intact"));
        assert!(
            base.chained_checkpoints >= 1,
            "seed {seed}: newest chain should fold an incremental image"
        );
        dump_flight(&run.recorder, "incremental_checkpoints_compact");
    }
}

/// Byte-cut harness over the *newest* checkpoint chain: every cut that
/// spares the previous full image degrades recovery to an older chain
/// and a longer replay — never to wrong or missing committed state.
/// That is exactly the corruption budget the truncation policy keeps
/// WAL for (the log is trimmed only up to the previous full).
#[test]
fn corrupt_newest_checkpoint_chain_degrades_to_older_chain() {
    for seed in SEEDS {
        let run = chained_run(seed);
        let (cp_records, _) = wal::replay_tolerant(&run.image.checkpoint);
        let mut cp_offsets = vec![0usize];
        for r in &cp_records {
            cp_offsets.push(cp_offsets.last().unwrap() + r.frame_len());
        }
        let fulls: Vec<usize> = (0..cp_records.len())
            .filter(|&i| cp_records[i].payload[0] == CP_FULL)
            .collect();
        let prev_full = fulls[fulls.len() - 2];
        // Everything after the previous full image is fair game: cut at
        // each record boundary and mid-record in between.
        let safe_end = cp_offsets[prev_full + 1];
        let total = cp_offsets[cp_records.len()];
        let mut cuts = vec![safe_end];
        for i in (prev_full + 1)..cp_records.len() {
            cuts.push(cp_offsets[i] + (cp_offsets[i + 1] - cp_offsets[i]) / 2);
            cuts.push(cp_offsets[i + 1] - 1);
        }
        let base = recover_chained(&run, &run.image, &format!("seed {seed}, uncut"));
        for cut in cuts {
            assert!(cut >= safe_end && cut < total);
            let image = DurableImage {
                wal: run.image.wal.clone(),
                checkpoint: run.image.checkpoint[..cut].to_vec(),
                shard_wals: Vec::new(),
            };
            let report =
                recover_chained(&run, &image, &format!("seed {seed}, checkpoint cut {cut}"));
            // Degraded, not wrong: an older (or equal) chain end and at
            // least as much WAL replayed as the intact image needed.
            assert!(
                report.checkpoint_lsn <= base.checkpoint_lsn,
                "seed {seed}, cut {cut}: chain end moved forward"
            );
            assert!(
                report.replayed_bytes >= base.replayed_bytes,
                "seed {seed}, cut {cut}: shorter replay from an older chain"
            );
        }
        // CI artifacts: the compacted checkpoint stream and truncated
        // WAL bytes next to the flight dumps.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("flight");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("chained_checkpoint_stream.bin"),
            &run.image.checkpoint,
        )
        .unwrap();
        std::fs::write(dir.join("truncated_wal.bin"), &run.image.wal).unwrap();
        dump_flight(&run.recorder, "corrupt_newest_checkpoint_chain");
    }
}

/// The recovery-time SLO leg at scale: a checkpointed image of a
/// 10⁵-fact state (10⁶ in release builds) replays only the WAL since
/// the checkpoint, and recovery cost — measured in the deterministic
/// `replayed_bytes` coin — scales with that suffix, not with history.
#[test]
fn large_image_recovery_scales_with_wal_since_checkpoint() {
    // ~2.7 facts per scale unit (employees + machines + supervisions).
    let scale = if cfg!(debug_assertions) {
        40_000
    } else {
        380_000
    };
    let cfg = ShopConfig::scaled(scale);
    let initial = workload::graph_state(cfg);
    let (entities, assocs) = initial.sizes();
    let floor = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    };
    assert!(
        entities + assocs >= floor,
        "image too small: {} facts",
        entities + assocs
    );
    let recorder = FlightRecorder::with_capacity(4096);
    // Lockstep verification re-checks Definition 2 per commit — O(state)
    // work that would dwarf what this test measures; keep it off.
    let config = ServiceConfig {
        lockstep_verify: false,
        ..recorded_config(&recorder)
    };
    // No external view on this leg: view rebuild is exercised by every
    // small-scale leg, and materializing one over 10⁵⁺ facts in a debug
    // build would dwarf the recovery work this test actually measures.
    let service = SessionService::new(
        initial.clone(),
        Vec::new(),
        config.clone(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let mut session = service.open_session(SessionKind::Graph).unwrap();
    let ops = workload::supervision_toggle_ops(cfg, 24);
    for (i, op) in ops.iter().enumerate() {
        session.submit_graph(vec![op.clone()]).unwrap();
        if i == ops.len() / 2 {
            service.checkpoint_now().unwrap();
        }
    }
    session.close().unwrap();
    let checkpointed = service.durable_image();
    let committed: Vec<Vec<GraphOp>> = service
        .committed_history()
        .into_iter()
        .map(|t| t.ops)
        .collect();
    let (all_but_last, oracle) = {
        let mut state = initial.clone();
        for ops in &committed[..committed.len() - 1] {
            state = GraphOp::apply_all(ops, &state).unwrap();
        }
        let last = GraphOp::apply_all(&committed[committed.len() - 1], &state).unwrap();
        (state, last)
    };
    // A cold image: the same WAL with only the boot checkpoint.
    let (cp_records, _) = wal::replay_tolerant(&checkpointed.checkpoint);
    let mut boot_only = Vec::new();
    wal::append_record_traced(
        &mut boot_only,
        cp_records[0].lsn,
        cp_records[0].trace,
        cp_records[0].payload,
    );
    let cold = DurableImage {
        checkpoint: boot_only,
        ..checkpointed.clone()
    };
    let recover = |image: &DurableImage, label: &str| {
        let (svc, report) = SessionService::recover(
            Arc::clone(initial.schema()),
            image,
            Vec::new(),
            config.clone(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert_eq!(*svc.conceptual(), oracle, "{label}: wrong recovered state");
        report
    };
    let warm = recover(&checkpointed, "checkpointed image");
    let from_boot = recover(&cold, "boot-only image");
    assert!(warm.checkpoint_lsn > 0 && from_boot.checkpoint_lsn == 0);
    assert_eq!(from_boot.replayed, committed.len());
    // The checkpoint bounds replay to the post-checkpoint suffix.
    assert_eq!(warm.replayed, committed.len() - (ops.len() / 2 + 1));
    assert!(
        warm.replayed_bytes * 2 < from_boot.replayed_bytes,
        "checkpointed replay ({} B) should be well under half the cold \
         replay ({} B)",
        warm.replayed_bytes,
        from_boot.replayed_bytes
    );
    // The crash matrix holds at this scale too: tear the final WAL
    // record and the torn transaction vanishes, nothing else does.
    let (wal_records, _) = wal::replay_tolerant(&checkpointed.wal);
    let last_frame = wal_records.last().unwrap().frame_len();
    let torn = DurableImage {
        wal: checkpointed.wal[..checkpointed.wal.len() - last_frame / 2].to_vec(),
        ..checkpointed.clone()
    };
    let (svc, report) = SessionService::recover(
        Arc::clone(initial.schema()),
        &torn,
        Vec::new(),
        config.clone(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    assert!(report.wal_tail.is_some(), "torn tail must be detected");
    assert_eq!(*svc.conceptual(), all_but_last);
    dump_flight(&recorder, "large_image_recovery");
}

#[test]
fn aborted_transactions_are_never_resurrected() {
    for seed in SEEDS {
        let run = run_workload(seed);
        assert!(run.aborted > 0);
        // Recover the complete image: the result must equal the replay
        // of the committed schedule alone. If any aborted operation had
        // leaked into the log, the states would differ (each abort was
        // a duplicate toggle, which would double-apply).
        let state = recover_and_check(&run, &run.image, &format!("seed {seed}, full image"));
        assert_eq!(state, prefix_state(&run, run.committed.len()));
        dump_flight(&run.recorder, "aborted_never_resurrected");
    }
}
