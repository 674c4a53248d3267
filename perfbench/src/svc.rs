//! Helpers shared by the two service workloads: device sets, the
//! synced-bytes crash image, timed recovery, wire codec cost, the
//! call-versus-handle probe and device span attribution.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dme_graph::{Association, EntityRef, GraphOp, GraphSchema, GraphState};
use dme_server::wire::{self, Request, Response};
use dme_server::{
    Client, DurableImage, LogDevice, RecoveryReport, ServiceConfig, SessionKind, SessionService,
    ViewSpec,
};
use dme_storage::wal;
use dme_value::{Atom, Symbol};

use crate::device::{BenchDevice, Counts, DeviceHandle, Op};
use crate::stats::median;
use crate::trace::{now_ns, Tracer};
use crate::Outcome;

/// The benchmark's handles on one service's devices.
pub struct Devices {
    pub wal: Vec<DeviceHandle>,
    pub checkpoint: DeviceHandle,
}

/// One WAL device per shard plus the checkpoint device; they keep
/// per-call events only in a traced run.
pub fn devices(
    shards: usize,
    trace: bool,
) -> (Vec<Box<dyn LogDevice>>, Box<dyn LogDevice>, Devices) {
    let (wal_boxes, wal): (Vec<_>, Vec<_>) = (0..shards).map(|_| BenchDevice::pair(trace)).unzip();
    let (cp_box, checkpoint) = BenchDevice::pair(trace);
    (wal_boxes, cp_box, Devices { wal, checkpoint })
}

impl Devices {
    /// The crash image: only the synced prefix of every device.
    pub fn synced_image(&self) -> DurableImage {
        let mut wals: Vec<Vec<u8>> = self.wal.iter().map(DeviceHandle::synced_prefix).collect();
        let wal = wals.remove(0);
        DurableImage {
            wal,
            checkpoint: self.checkpoint.synced_prefix(),
            shard_wals: wals,
        }
    }

    pub fn wal_counts(&self) -> Counts {
        self.wal
            .iter()
            .map(DeviceHandle::counts)
            .fold(Counts::default(), |a, c| Counts {
                appends: a.appends + c.appends,
                append_bytes: a.append_bytes + c.append_bytes,
                append_busy_ns: a.append_busy_ns + c.append_busy_ns,
                syncs: a.syncs + c.syncs,
                sync_busy_ns: a.sync_busy_ns + c.sync_busy_ns,
                truncations: a.truncations + c.truncations,
                truncated_bytes: a.truncated_bytes + c.truncated_bytes,
            })
    }

    /// Nanoseconds every device has spent in appends and syncs so far.
    pub fn busy_ns(&self) -> u64 {
        let cp = self.checkpoint.counts();
        let w = self.wal_counts();
        w.append_busy_ns + w.sync_busy_ns + cp.append_busy_ns + cp.sync_busy_ns
    }

    /// The `device.*` and `shard.txns_per_sync` metrics for a run that
    /// committed `txns` transactions.
    pub fn layer_metrics(&self, out: &mut Outcome, txns: u64) {
        let w = self.wal_counts();
        let cp = self.checkpoint.counts();
        let per_txn = |v: u64| v as f64 / txns.max(1) as f64;
        out.metric("device.wal_syncs", w.syncs as f64, "count");
        out.metric("device.wal_sync_busy_ms", w.sync_busy_ns as f64 / 1e6, "ms");
        out.metric("device.wal_bytes_per_txn", per_txn(w.append_bytes), "B");
        out.metric("device.checkpoint_bytes", cp.append_bytes as f64, "B");
        out.metric(
            "device.checkpoint_busy_ms",
            (cp.append_busy_ns + cp.sync_busy_ns) as f64 / 1e6,
            "ms",
        );
        out.metric("device.wal_truncated_bytes", w.truncated_bytes as f64, "B");
        out.metric(
            "shard.txns_per_sync",
            txns as f64 / w.syncs.max(1) as f64,
            "txn/sync",
        );
    }

    /// Records, for every request whose commit LSN a device call carried,
    /// a copy of that call's span under the request's `parent` span. A
    /// group-commit sync shared by several requests appears in each.
    pub fn attach_spans(&self, tracer: &Tracer, by_lsn: &HashMap<u64, (u64, u64)>) {
        let named = self
            .wal
            .iter()
            .map(|d| (d, "device.wal_append", "device.wal_sync"))
            .chain([(
                &self.checkpoint,
                "device.checkpoint_append",
                "device.checkpoint_sync",
            )]);
        for (device, append, sync) in named {
            for e in device.events() {
                let name = match e.op {
                    Op::Append => append,
                    Op::Sync => sync,
                    Op::Truncate => continue,
                };
                for lsn in &e.lsns {
                    if let Some(&(request, parent)) = by_lsn.get(lsn) {
                        tracer.record(name, parent, request, e.start_ns, e.end_ns);
                    }
                }
            }
        }
    }
}

/// Writes a traced run's spans under `perfbench/out/`.
pub fn write_spans(out: &mut Outcome, tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/{workload}-seed{seed}.spans.jsonl"));
    match crate::trace::write_jsonl(&tracer.spans(), &path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Employees that appear in no association of `state`, in name order.
pub fn unattached_employees(state: &GraphState) -> Vec<String> {
    let mut busy = std::collections::BTreeSet::new();
    for a in state.associations() {
        for role in ["agent", "object"] {
            if let Some(r) = a.role(role) {
                busy.insert(r.key.clone());
            }
        }
    }
    let (employee, name) = (Symbol::new("employee"), Symbol::new("name"));
    state
        .entities()
        .filter(|e| e.entity_type == employee)
        .filter_map(|e| e.characteristics.get(&name))
        .filter(|k| !busy.contains(*k))
        .filter_map(|k| match k {
            Atom::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

pub fn supervise(agent: &str, object: &str) -> Association {
    Association::new(
        "supervise",
        [
            ("agent", EntityRef::new("employee", Atom::str(agent))),
            ("object", EntityRef::new("employee", Atom::str(object))),
        ],
    )
}

pub fn toggle(pair: &(String, String), insert: bool) -> GraphOp {
    let assoc = supervise(&pair.0, &pair.1);
    if insert {
        GraphOp::InsertAssociation(assoc)
    } else {
        GraphOp::DeleteAssociation(assoc)
    }
}

/// Timed restarts from the crash image: `reps` recoveries, each checked
/// against the conceptual state (and view states) the service held
/// before the crash. Returns the seconds each took, the last report and
/// whether every recovery reproduced the state.
pub fn timed_recovery(
    schema: &Arc<GraphSchema>,
    image: &DurableImage,
    views: impl Fn() -> Vec<ViewSpec>,
    config: &ServiceConfig,
    expected: &GraphState,
    expected_views: &[(String, dme_relation::RelationState)],
    reps: usize,
) -> (Vec<f64>, Option<RecoveryReport>, bool) {
    let mut times = Vec::with_capacity(reps);
    let mut report = None;
    let mut ok = true;
    for _ in 0..reps {
        let (wals, cp, _) = devices(config.shards, false);
        let t = Instant::now();
        match SessionService::recover_sharded(
            Arc::clone(schema),
            image,
            views(),
            config.clone(),
            wals,
            cp,
        ) {
            Ok((service, r)) => {
                ok &= *service.conceptual() == *expected;
                for (name, state) in expected_views {
                    ok &= service.view_state(name).as_ref() == Some(state);
                }
                times.push(t.elapsed().as_secs_f64());
                report = Some(r);
            }
            Err(e) => {
                eprintln!("recovery failed: {e}");
                ok = false;
            }
        }
    }
    (times, report, ok)
}

/// `wal::replay_tolerant` over every WAL image: milliseconds per MB.
pub fn replay_ms_per_mb(image: &DurableImage) -> f64 {
    let bytes: usize = image.wals().map(<[u8]>::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for w in image.wals() {
            std::hint::black_box(wal::replay_tolerant(w));
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times) / (bytes as f64 / (1024.0 * 1024.0))
}

/// Encode + decode cost of the workload's own request and response
/// frames: (µs per request, bytes per request).
pub fn codec_cost(sample: &[(Request, Response)]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let rounds = 20;
    let mut bytes = 0usize;
    let t = Instant::now();
    for _ in 0..rounds {
        for (i, (req, resp)) in sample.iter().enumerate() {
            let rf = wire::encode_request_frame(i as u64 + 1, req);
            let sf = wire::encode_response_frame(i as u64 + 1, resp);
            bytes += rf.len() + sf.len();
            std::hint::black_box(wire::decode_request_frame(&rf).expect("own frame decodes"));
            std::hint::black_box(wire::decode_response_frame(&sf).expect("own frame decodes"));
        }
    }
    let n = (rounds * sample.len()) as f64;
    (t.elapsed().as_secs_f64() * 1e6 / n, bytes as f64 / n)
}

/// The unloaded call-versus-handle probe: alternately commits a toggle
/// of `pair` over the wire (`Client::call`) and in process
/// (`SessionService::handle`), `n` times each. Returns the medians of
/// call time, handle time and handle time minus device time, in µs.
pub fn call_vs_handle(
    service: &SessionService,
    client: &Client,
    tracer: &Tracer,
    pair: &(String, String),
    mut present: bool,
    n: usize,
    devices: &Devices,
) -> Result<(f64, f64, f64), String> {
    let remote = client
        .open_session(SessionKind::Graph)
        .map_err(|e| format!("probe session: {e}"))?;
    let local = match service.handle(Request::OpenSession {
        kind: SessionKind::Graph,
    }) {
        Response::SessionOpened { session } => session,
        other => return Err(format!("probe session: {other:?}")),
    };
    let (mut call_us, mut handle_us, mut self_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..2 * n {
        // Call, handle, handle, call, ...: each side gets as many inserts
        // as deletes.
        let over_wire = (i % 2 == 0) == ((i / 2) % 2 == 0);
        let ops = vec![toggle(pair, !present)];
        let start = now_ns();
        let busy_before = devices.busy_ns();
        let (response, name) = if over_wire {
            let r = smol::block_on(client.call(&Request::SubmitGraph {
                session: remote.id(),
                ops,
            }))
            .map_err(|e| format!("probe call: {e}"))?;
            (r, "probe.call")
        } else {
            let r = service.handle(Request::SubmitGraph {
                session: local,
                ops,
            });
            (r, "probe.handle")
        };
        let end = now_ns();
        if !matches!(response, Response::Committed(_)) {
            return Err(format!("probe commit: {response:?}"));
        }
        present = !present;
        tracer.record(name, 0, 0, start, end);
        let us = (end - start) as f64 / 1e3;
        if over_wire {
            call_us.push(us);
        } else {
            handle_us.push(us);
            self_us.push(us - (devices.busy_ns() - busy_before) as f64 / 1e3);
        }
    }
    remote.close().map_err(|e| format!("probe close: {e}"))?;
    service.handle(Request::Close { session: local });
    Ok((median(&call_us), median(&handle_us), median(&self_us)))
}
