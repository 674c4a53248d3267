//! The concurrent session service.
//!
//! One conceptual database, many concurrent sessions speaking different
//! application models. Updates are routed by write set to per-shard
//! **commit lanes**: every entity reference a transaction touches is
//! hashed to a shard (see [`crate::shard`]), the transaction queues on
//! its lowest shard's lane, and the first free thread on a lane becomes
//! that lane's *leader*, draining a batch and committing it with one
//! WAL append + sync per involved shard (group commit). Durability
//! follows the classic log-before-acknowledge rule: a commit is
//! reported to its session only after its record is on every involved
//! shard's log device.
//!
//! Validation (conflict checks, conceptual application, view
//! advancement) is serialized through one core lock, so the database
//! still has a single global commit order and a single version counter;
//! what shards buy is **sync overlap** — different lanes wait on
//! different log devices at the same time, so the dominant cost of a
//! commit (the sync) is paid concurrently.
//!
//! ## Lock protocol
//!
//! `core → WAL locks in ascending shard order → (release core) →
//! append+sync → release WAL locks → re-acquire core for bookkeeping`.
//! WAL locks are only ever acquired while holding the core lock, and a
//! thread holding WAL locks never waits on the core lock, so the order
//! `core < wal_0 < wal_1 < …` is total and the protocol is
//! deadlock-free. Because WAL acquisition is serialized by the core
//! lock, each shard's log receives records in strictly increasing LSN
//! order.
//!
//! ## Cross-shard commits and recovery
//!
//! A transaction whose write set spans shards journals its frame on
//! **every** involved shard (recovery dedupes by LSN). Dependent
//! transactions share a shard by construction, so per-shard prefix
//! durability covers them; a gap in the merged log can only separate
//! independent transactions, whose deltas commute. One asymmetry
//! remains and is deliberate: a crash between a lane's sync and its
//! acknowledgment can *resurrect an unacknowledged transaction* on
//! recovery (it is in some shard's log but its session saw an error).
//! The converse — an acknowledged transaction lost — cannot happen.
//!
//! Conflict control is optimistic. Relational sessions translate
//! against a snapshot; if another transaction committed first, the
//! snapshot's base version no longer matches and the commit is refused
//! with a conflict — the session rebases and retries with backoff.
//! Graph sessions submit conceptual operations directly, which are
//! position-independent, so they carry no base version and never
//! conflict (they can still *abort* if an operation no longer applies).
//!
//! Aborted transactions never reach the log, so recovery cannot
//! resurrect them: the durable image is exactly a checkpoint plus
//! clean prefixes of committed deltas.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use dme_ansi::{ExternalView, Generation};
use dme_core::translate::CompletionMode;
use dme_graph::{GraphOp, GraphSchema, GraphState, GraphTxn};
use dme_logic::{FactBase, ToFacts};
use dme_obs::{Counter, Metric, Observer, ShardRegistry, TelemetrySnapshot, TraceHub, TraceId};
use dme_relation::{RelationState, RelationalSchema};
use dme_storage::wal;
use dme_storage::WalError;

use crate::codec;
use crate::device::{DeviceError, LogDevice};
use crate::error::ServerError;
use crate::session::{Session, SessionKind};
use crate::shard;

/// An external view the service serves to relational sessions.
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// The view's name (what sessions ask for).
    pub name: String,
    /// Its relational application-model schema.
    pub schema: RelationalSchema,
    /// The completion mode translations into the view use.
    pub mode: CompletionMode,
}

/// Service tuning knobs. Build one with [`ServiceConfig::builder`] (which
/// validates) or field-by-field from [`ServiceConfig::default`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Take a checkpoint after this many commits (0 = only on demand).
    pub checkpoint_every: u64,
    /// Verify every committed transaction's views against the
    /// conceptual state (Definition 2 within each view's vocabulary).
    /// Defaults to `false`.
    pub lockstep_verify: bool,
    /// Commit attempts a relational session makes before giving up on a
    /// conflicted snapshot.
    pub max_attempts: u32,
    /// Base backoff between conflict retries, in microseconds (doubles
    /// each attempt).
    pub backoff_micros: u64,
    /// Observation session for spans and counters.
    pub obs: Observer,
    /// Commit lanes the conceptual write set is hashed across. Each
    /// shard journals to its own WAL device.
    pub shards: usize,
    /// Admission bound per commit lane: a submit finding this many
    /// requests already queued is shed with a typed `Overloaded`
    /// outcome instead of waiting.
    pub queue_depth: usize,
    /// Most transactions a lane leader drains into one group commit.
    /// 1 commits one transaction per append + sync (the baseline group
    /// commit is measured against).
    pub max_batch: usize,
    /// Recent traces the service's trace hub remembers for
    /// `TraceLookup` queries (FIFO-evicted). 0 keeps none and allocates
    /// no span ids, so the observer's trace steps come out flat.
    pub trace_capacity: usize,
    /// Every Nth checkpoint is a **full** image; the checkpoints in
    /// between are **incremental** (the dirty keys' current records,
    /// chained to the previous checkpoint). 1 = every checkpoint full
    /// (the compaction-free baseline). Recovery and boot always start
    /// from a full image regardless of this knob.
    pub full_checkpoint_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            checkpoint_every: 0,
            lockstep_verify: false,
            max_attempts: 8,
            backoff_micros: 20,
            obs: Observer::disabled(),
            shards: 1,
            queue_depth: 4096,
            max_batch: 64,
            trace_capacity: 512,
            full_checkpoint_every: 1,
        }
    }
}

impl ServiceConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }

    /// Checks the knobs are mutually sensible. Service constructors call
    /// this, so a hand-assembled config cannot boot a broken service.
    pub fn validate(&self) -> Result<(), ServerError> {
        if self.shards == 0 {
            return Err(ServerError::InvalidConfig(
                "shards must be at least 1".into(),
            ));
        }
        if self.shards > 1024 {
            return Err(ServerError::InvalidConfig(format!(
                "{} shards is past the 1024 sanity bound",
                self.shards
            )));
        }
        if self.queue_depth == 0 {
            return Err(ServerError::InvalidConfig(
                "queue_depth 0 would shed every request".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServerError::InvalidConfig(
                "max_batch 0 would commit nothing".into(),
            ));
        }
        if self.max_attempts == 0 {
            return Err(ServerError::InvalidConfig(
                "max_attempts 0 would refuse every relational commit".into(),
            ));
        }
        if self.full_checkpoint_every == 0 {
            return Err(ServerError::InvalidConfig(
                "full_checkpoint_every 0 would never write a full image".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`ServiceConfig`]; [`ServiceConfigBuilder::build`]
/// validates.
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Checkpoint after this many commits (0 = only on demand).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.config.checkpoint_every = every;
        self
    }

    /// Toggles lockstep (Definition 2) verification of every commit.
    pub fn lockstep_verify(mut self, on: bool) -> Self {
        self.config.lockstep_verify = on;
        self
    }

    /// Commit attempts before a conflicted snapshot gives up.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.config.max_attempts = attempts;
        self
    }

    /// Base conflict backoff in microseconds.
    pub fn backoff_micros(mut self, micros: u64) -> Self {
        self.config.backoff_micros = micros;
        self
    }

    /// Observation session for spans and counters.
    pub fn obs(mut self, obs: Observer) -> Self {
        self.config.obs = obs;
        self
    }

    /// Number of commit lanes (each needs its own WAL device).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Per-lane admission bound before submits are shed.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Most transactions per group commit.
    pub fn max_batch(mut self, batch: usize) -> Self {
        self.config.max_batch = batch;
        self
    }

    /// Recent traces kept for `TraceLookup` (0 disables stitching).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = capacity;
        self
    }

    /// Full-image cadence: every Nth checkpoint is full, the rest are
    /// incremental dirty-key images (1 = all full).
    pub fn full_checkpoint_every(mut self, every: u64) -> Self {
        self.config.full_checkpoint_every = every;
        self
    }

    /// Validates and yields the config.
    pub fn build(self) -> Result<ServiceConfig, ServerError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The durable bytes a crash leaves behind: prefixes of the append-only
/// devices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurableImage {
    /// Shard 0's write-ahead log of committed conceptual deltas (for a
    /// single-sharded service, *the* WAL).
    pub wal: Vec<u8>,
    /// The appended-checkpoint stream.
    pub checkpoint: Vec<u8>,
    /// The write-ahead logs of shards 1… (empty when single-sharded).
    pub shard_wals: Vec<Vec<u8>>,
}

impl DurableImage {
    /// All shard WALs in shard order (shard 0 first).
    pub fn wals(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.wal.as_slice()).chain(self.shard_wals.iter().map(Vec::as_slice))
    }
}

/// What recovery found and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the checkpoint recovery started from (the end of the
    /// resolved checkpoint chain).
    pub checkpoint_lsn: u64,
    /// Committed transactions replayed on top of the checkpoint.
    pub replayed: usize,
    /// Incremental checkpoint images folded on top of the full image
    /// the resolved chain starts from (0 = a single full checkpoint).
    pub chained_checkpoints: usize,
    /// WAL payload bytes folded over the checkpoint state — the
    /// quantity the recovery-time SLO is stated against.
    pub replayed_bytes: u64,
    /// The first torn/corrupt WAL tail that was truncated, if any
    /// (sharded recovery checks every shard's log, lowest shard first).
    pub wal_tail: Option<WalError>,
    /// The torn checkpoint tail that was skipped, if any.
    pub checkpoint_tail: Option<WalError>,
}

/// One committed transaction, as the conformance oracle wants it: its
/// log position and the conceptual operations that were applied.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// Log sequence number.
    pub lsn: u64,
    /// The conceptual operations, in application order.
    pub ops: Vec<GraphOp>,
}

/// What a successful commit tells the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The transaction's log sequence number.
    pub lsn: u64,
    /// The database version after the commit.
    pub version: u64,
    /// Commit attempts used (1 = no conflict).
    pub attempts: u32,
    /// The transaction's trace id — greppable from the observability
    /// transcript and stamped into the transaction's WAL frame.
    pub trace: TraceId,
}

/// How a submission ended, when it did not end in an error: committed
/// (possibly after conflict retries), or shed at admission because the
/// target commit lane was full. Shedding is backpressure, not failure —
/// nothing was enqueued, and the client decides whether to retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed on the first attempt.
    Committed(CommitInfo),
    /// Committed after `retries` conflict rebases.
    Retried {
        /// The commit that finally stuck.
        info: CommitInfo,
        /// How many attempts were refused before it (= attempts - 1).
        retries: u32,
    },
    /// Shed at admission: the home lane's queue was at capacity.
    Shed {
        /// The lane that refused the transaction.
        shard: usize,
        /// The queue depth observed at refusal.
        depth: usize,
    },
}

impl CommitOutcome {
    /// The commit info, unless the submission was shed.
    pub fn info(&self) -> Option<CommitInfo> {
        match self {
            CommitOutcome::Committed(info) | CommitOutcome::Retried { info, .. } => Some(*info),
            CommitOutcome::Shed { .. } => None,
        }
    }

    /// Whether the submission was shed under load.
    pub fn is_shed(&self) -> bool {
        matches!(self, CommitOutcome::Shed { .. })
    }

    /// Unwraps the commit info; panics if the submission was shed.
    /// Intended for tests and single-client tools where shedding is
    /// impossible by construction.
    pub fn expect_commit(self) -> CommitInfo {
        self.info().expect("submission was shed under load")
    }
}

pub(crate) struct Request {
    id: u64,
    trace: TraceId,
    /// The transaction's root (admit) span in the trace hub — the
    /// parent every downstream span hangs off.
    span: u64,
    enqueued: std::time::Instant,
    gops: Vec<GraphOp>,
    base_version: Option<u64>,
}

#[derive(Clone, Debug)]
pub(crate) enum Outcome {
    Committed { lsn: u64, version: u64 },
    Conflict,
    Aborted(String),
    Lockstep(String),
    Crashed(String),
    Shed { shard: usize, depth: usize },
}

/// A validated transaction awaiting its journal write.
struct StagedTxn {
    id: u64,
    lsn: u64,
    version: u64,
    trace: TraceId,
    /// The admit (root) span this transaction's journal spans hang off.
    span: u64,
    enqueued: std::time::Instant,
    payload: Vec<u8>,
    ops: Vec<GraphOp>,
    shards: BTreeSet<usize>,
}

struct Core {
    /// The committed conceptual state and its compiled fact base.
    /// Shared copy-on-write with every open snapshot: opening a session
    /// bumps the refcounts, and the commit path pays one state copy per
    /// *pinned generation* (via [`Generation::state_mut`]) instead of
    /// every reader paying a clone. The fact base is compiled only when
    /// a view translates or a relational snapshot opens — once at boot,
    /// then once per committed operation from the actual post-state —
    /// so a service without views compiles nothing.
    conceptual: Generation,
    views: BTreeMap<String, Arc<ExternalView>>,
    version: u64,
    next_lsn: u64,
    commits_since_checkpoint: u64,
    history: Vec<CommittedTxn>,
    checkpoints: Box<dyn LogDevice>,
    crashed: Option<String>,
    /// `(lsn, payload)` of every commit since the last full
    /// checkpoint, in LSN order: the same encoded delta each WAL frame
    /// carries. The audit folds it over `base`; incremental checkpoints
    /// take the newest record of every fact it touched since the last
    /// image.
    log: Vec<(u64, Vec<u8>)>,
    /// The anchor state the log folds over. Advanced to the current
    /// state (and the log cleared) at every full checkpoint.
    base: Arc<GraphState>,
    /// LSN of the newest durable checkpoint record (the chain link
    /// incremental images carry).
    last_cp_lsn: u64,
    /// LSNs of the newest and second-newest full checkpoint images:
    /// WAL truncation keeps everything after the *previous* full image
    /// so a single corrupt record in the newest chain still leaves a
    /// recoverable (older checkpoint + longer replay) image.
    last_full_lsn: u64,
    prev_full_lsn: u64,
    /// Checkpoint records written so far (drives the full/incremental
    /// cadence).
    checkpoints_taken: u64,
}

struct QueueInner {
    pending: VecDeque<Request>,
    results: BTreeMap<u64, Outcome>,
    leader: bool,
    next_id: u64,
}

/// One shard's WAL device plus the batch-granularity frame map log
/// truncation needs: each entry records the highest LSN a synced batch
/// carried and the cumulative byte offset its frames end at. Because
/// the core lock serializes WAL acquisition, per-shard LSNs are
/// strictly increasing, so truncating whole front batches whose
/// highest LSN is covered by a durable checkpoint always cuts at a
/// frame boundary.
struct WalShard {
    device: Box<dyn LogDevice>,
    /// `(highest LSN in batch, cumulative appended bytes at batch
    /// end)`, in append order.
    frames: VecDeque<(u64, u64)>,
    /// Total bytes ever appended (including bytes since truncated).
    appended: u64,
    /// Bytes already truncated from the front.
    trimmed: u64,
}

impl WalShard {
    fn over(device: Box<dyn LogDevice>) -> WalShard {
        let appended = device.len() as u64;
        WalShard {
            device,
            frames: VecDeque::new(),
            appended,
            trimmed: 0,
        }
    }

    /// Records one durably-synced batch in the frame map.
    fn note_batch(&mut self, max_lsn: u64, bytes: u64) {
        self.appended += bytes;
        self.frames.push_back((max_lsn, self.appended));
    }

    /// Drops every whole front batch whose highest LSN is ≤ `lsn`
    /// (i.e. fully covered by a durable checkpoint at `lsn`). Returns
    /// the bytes reclaimed; devices that do not support truncation
    /// simply keep their bytes.
    fn truncate_upto(&mut self, lsn: u64) -> u64 {
        let mut target = None;
        while let Some(&(max_lsn, end)) = self.frames.front() {
            if max_lsn > lsn {
                break;
            }
            target = Some(end);
            self.frames.pop_front();
        }
        let Some(end) = target else { return 0 };
        let want = (end - self.trimmed) as usize;
        let dropped = self.device.truncate_prefix(want).unwrap_or(0);
        self.trimmed += dropped;
        dropped
    }
}

/// One shard's commit lane: an admission queue with its own leader
/// election, and the shard's WAL device.
struct Lane {
    queue: Mutex<QueueInner>,
    cv: Condvar,
    wal: Mutex<WalShard>,
}

impl Lane {
    fn over(device: Box<dyn LogDevice>) -> Lane {
        Lane {
            queue: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                results: BTreeMap::new(),
                leader: false,
                next_id: 0,
            }),
            cv: Condvar::new(),
            wal: Mutex::new(WalShard::over(device)),
        }
    }
}

pub(crate) struct Shared {
    core: Mutex<Core>,
    lanes: Vec<Lane>,
    /// The conceptual schema, cached so shard routing never takes the
    /// core lock.
    schema: Arc<GraphSchema>,
    pub(crate) config: ServiceConfig,
    /// Per-shard metric registries — one lane, one registry — merged
    /// and labelled by the exporters.
    pub(crate) shard_metrics: Arc<ShardRegistry>,
    /// Recent transactions' cross-shard span trees, served by
    /// `AdminRequest::TraceLookup`.
    pub(crate) trace_hub: Arc<TraceHub>,
    pub(crate) open_sessions: AtomicU64,
    next_session: AtomicU64,
    next_txn: AtomicU64,
    /// Sessions owned by the wire front door, keyed by id. A request
    /// *takes the session out* for its duration and puts it back, so
    /// concurrent requests against one session see `UnknownSession`
    /// rather than interleaving. Sessions stay here until `Close`.
    pub(crate) registry: Mutex<BTreeMap<u64, Session>>,
}

/// The concurrent multi-model session service. Cheap to clone; clones
/// share the database.
#[derive(Clone)]
pub struct SessionService {
    pub(crate) shared: Arc<Shared>,
}

impl std::fmt::Debug for SessionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.shared.core.lock().unwrap();
        write!(
            f,
            "SessionService(version {}, {} views, {} committed, {} shards)",
            core.version,
            core.views.len(),
            core.history.len(),
            self.shared.lanes.len()
        )
    }
}

impl SessionService {
    /// Boots a fresh single-sharded service over `initial`, serving
    /// `views`, logging to the given devices. Writes an initial
    /// checkpoint so the durable image is self-contained from the first
    /// commit on. Requires `config.shards == 1`; use
    /// [`SessionService::new_sharded`] for more lanes.
    pub fn new(
        initial: GraphState,
        views: Vec<ViewSpec>,
        config: ServiceConfig,
        wal_device: Box<dyn LogDevice>,
        checkpoint_device: Box<dyn LogDevice>,
    ) -> Result<Self, ServerError> {
        Self::new_sharded(initial, views, config, vec![wal_device], checkpoint_device)
    }

    /// Boots a fresh service with one WAL device per commit lane
    /// (`wal_devices.len()` must equal `config.shards`).
    pub fn new_sharded(
        initial: GraphState,
        views: Vec<ViewSpec>,
        config: ServiceConfig,
        wal_devices: Vec<Box<dyn LogDevice>>,
        checkpoint_device: Box<dyn LogDevice>,
    ) -> Result<Self, ServerError> {
        Self::boot(initial, 0, 0, views, config, wal_devices, checkpoint_device)
    }

    /// The one boot path behind a fresh start and recovery: checks the
    /// config against the devices, materializes every view over `state`
    /// (the committed state as of `lsn`, `version` commits in), and
    /// writes a full checkpoint of it, so the durable image is
    /// self-contained from the first commit on and the devices a crash
    /// left behind are no longer load-bearing.
    fn boot(
        state: GraphState,
        lsn: u64,
        version: u64,
        views: Vec<ViewSpec>,
        config: ServiceConfig,
        wal_devices: Vec<Box<dyn LogDevice>>,
        checkpoint_device: Box<dyn LogDevice>,
    ) -> Result<Self, ServerError> {
        config.validate()?;
        if wal_devices.len() != config.shards {
            return Err(ServerError::InvalidConfig(format!(
                "{} WAL devices for {} shards",
                wal_devices.len(),
                config.shards
            )));
        }
        // One compile of the state serves every view's materialization
        // and stays as the first generation's shared fact base.
        let schema = Arc::clone(state.schema());
        let conceptual = Generation::new(state);
        let mut materialized = BTreeMap::new();
        for spec in views {
            let view = ExternalView::materialize_facts(
                &spec.name,
                spec.schema,
                conceptual.facts(),
                spec.mode,
            )?;
            materialized.insert(spec.name, Arc::new(view));
        }
        let core = Core {
            base: Arc::clone(conceptual.state()),
            conceptual,
            views: materialized,
            version,
            next_lsn: lsn + 1,
            commits_since_checkpoint: 0,
            history: Vec::new(),
            checkpoints: checkpoint_device,
            crashed: None,
            log: Vec::new(),
            last_cp_lsn: 0,
            last_full_lsn: 0,
            prev_full_lsn: 0,
            checkpoints_taken: 0,
        };
        let shard_metrics = Arc::new(ShardRegistry::new(config.shards));
        let trace_hub = Arc::new(TraceHub::new(config.trace_capacity, config.obs.clone()));
        let service = SessionService {
            shared: Arc::new(Shared {
                core: Mutex::new(core),
                lanes: wal_devices.into_iter().map(Lane::over).collect(),
                schema,
                config,
                shard_metrics,
                trace_hub,
                open_sessions: AtomicU64::new(0),
                next_session: AtomicU64::new(0),
                next_txn: AtomicU64::new(0),
                registry: Mutex::new(BTreeMap::new()),
            }),
        };
        service.checkpoint_now()?;
        Ok(service)
    }

    /// Rebuilds a single-sharded service from the durable image a crash
    /// left behind. See [`SessionService::recover_sharded`].
    pub fn recover(
        schema: Arc<GraphSchema>,
        image: &DurableImage,
        views: Vec<ViewSpec>,
        config: ServiceConfig,
        wal_device: Box<dyn LogDevice>,
        checkpoint_device: Box<dyn LogDevice>,
    ) -> Result<(Self, RecoveryReport), ServerError> {
        Self::recover_sharded(
            schema,
            image,
            views,
            config,
            vec![wal_device],
            checkpoint_device,
        )
    }

    /// Rebuilds a service from the durable image a crash left behind:
    /// decode the latest complete checkpoint, merge every shard log's
    /// clean prefix by LSN (deduplicating cross-shard frames, which are
    /// journaled on every shard they touch), fold the deltas over the
    /// checkpoint, re-materialize every view, and resume. Gaps in the
    /// merged LSN sequence are tolerated — they can only separate
    /// independent transactions (dependent ones share a shard, where
    /// prefix order is strict).
    pub fn recover_sharded(
        schema: Arc<GraphSchema>,
        image: &DurableImage,
        views: Vec<ViewSpec>,
        config: ServiceConfig,
        wal_devices: Vec<Box<dyn LogDevice>>,
        checkpoint_device: Box<dyn LogDevice>,
    ) -> Result<(Self, RecoveryReport), ServerError> {
        let obs = config.obs.clone();
        let _span = obs.span("server/recover");
        let recovery_timer = obs.time(Metric::RecoveryLatency);
        // Scan the checkpoint stream record by record, resynchronizing
        // past corrupt frames (a clean tail is the common case, but log
        // truncation means an older *readable* record past a corrupt one
        // may still anchor a usable chain).
        let mut cp_records = Vec::new();
        let mut checkpoint_tail = None;
        let mut at = 0;
        while at < image.checkpoint.len() {
            match wal::decode_frame(&image.checkpoint, at) {
                Ok((record, frame)) => {
                    cp_records.push(record);
                    at += frame;
                }
                Err(e) => {
                    if checkpoint_tail.is_none() {
                        checkpoint_tail = Some(e);
                    }
                    at += 1;
                }
            }
        }
        // Resolve the newest checkpoint *chain* that decodes end to
        // end: a full image, or an incremental image whose prev-LSN
        // links walk back to one. Any break (missing link, corrupt
        // payload, failed fold) falls back to the next-older candidate
        // — degrading to an older checkpoint and a longer replay, never
        // to wrong state.
        let mut resolved: Option<(GraphState, u64, usize)> = None;
        'candidates: for end in (0..cp_records.len()).rev() {
            let mut chain = vec![end];
            let mut cur = end;
            loop {
                match codec::decode_checkpoint(cp_records[cur].payload) {
                    Ok(codec::CheckpointImage::Full { .. }) => break,
                    Ok(codec::CheckpointImage::Incremental { prev_lsn, .. }) => {
                        // Nearest earlier record carrying the linked
                        // LSN (checkpoints of an idle service may share
                        // LSNs; the nearest one is the chain parent).
                        let Some(j) = (0..cur).rev().find(|&j| cp_records[j].lsn == prev_lsn)
                        else {
                            continue 'candidates;
                        };
                        chain.push(j);
                        cur = j;
                    }
                    Err(_) => continue 'candidates,
                }
            }
            chain.reverse();
            let mut folded: Option<GraphState> = None;
            for &i in &chain {
                match codec::decode_checkpoint(cp_records[i].payload) {
                    Ok(codec::CheckpointImage::Full { delta }) => {
                        match codec::decode_state(Arc::clone(&schema), delta) {
                            Ok(s) => folded = Some(s),
                            Err(_) => continue 'candidates,
                        }
                    }
                    Ok(codec::CheckpointImage::Incremental { delta, .. }) => {
                        let Some(s) = folded.take() else {
                            continue 'candidates;
                        };
                        match codec::apply_delta_lenient(&s, delta) {
                            Ok(next) => folded = Some(next),
                            Err(_) => continue 'candidates,
                        }
                    }
                    Err(_) => continue 'candidates,
                }
            }
            if let Some(state) = folded {
                resolved = Some((state, cp_records[end].lsn, chain.len() - 1));
                break;
            }
        }
        let Some((mut state, cp_lsn, chained_checkpoints)) = resolved else {
            return Err(ServerError::Recovery(
                "no complete checkpoint in the durable image".into(),
            ));
        };
        // Merge the shard logs: collect each clean prefix, sort by LSN,
        // drop duplicates (cross-shard frames) and anything the
        // checkpoint already covers.
        let mut records = Vec::new();
        let mut wal_tail = None;
        for bytes in image.wals() {
            let (rs, tail) = wal::replay_tolerant(bytes);
            if wal_tail.is_none() {
                wal_tail = tail;
            }
            records.extend(rs);
        }
        records.sort_by_key(|r| r.lsn);
        records.dedup_by_key(|r| r.lsn);
        let mut replayed = 0;
        let mut replayed_bytes = 0u64;
        let mut next_lsn = cp_lsn + 1;
        let mut replay = codec::LogReplay::new(&mut state);
        for r in &records {
            if r.lsn <= cp_lsn {
                next_lsn = next_lsn.max(r.lsn + 1);
                continue;
            }
            let timer = obs.time(Metric::ReplayLatency);
            replay.apply(r.payload)?;
            drop(timer);
            replayed += 1;
            replayed_bytes += r.payload.len() as u64;
            next_lsn = r.lsn + 1;
            obs.add(Counter::WalRecordsReplayed, 1);
            obs.add(Counter::ReplayBytes, r.payload.len() as u64);
            if let Some(t) = r.trace {
                obs.trace_event("server/replay", TraceId(t), || format!("lsn {}", r.lsn));
            }
        }
        replay.finish()?;
        let report = RecoveryReport {
            checkpoint_lsn: cp_lsn,
            replayed,
            chained_checkpoints,
            replayed_bytes,
            wal_tail,
            checkpoint_tail,
        };
        let service = Self::boot(
            state,
            next_lsn - 1,
            replayed as u64,
            views,
            config,
            wal_devices,
            checkpoint_device,
        )?;
        drop(recovery_timer);
        Ok((service, report))
    }

    /// Opens a session. Graph sessions speak conceptual operations;
    /// relational sessions are bound to one external view and get a
    /// snapshot handle over it.
    pub fn open_session(&self, kind: SessionKind) -> Result<Session, ServerError> {
        let obs = &self.shared.config.obs;
        let _span = obs.span("server/admit");
        let _timer = obs.time(Metric::AdmitLatency);
        let snapshot = {
            let core = self.shared.core.lock().unwrap();
            if let Some(why) = &core.crashed {
                return Err(ServerError::Crashed(why.clone()));
            }
            match &kind {
                SessionKind::Graph => None,
                SessionKind::Relational { view } => {
                    let v = core
                        .views
                        .get(view)
                        .ok_or_else(|| ServerError::UnknownView(view.clone()))?;
                    // O(1) snapshot: Arc bumps, never a state clone.
                    obs.add(Counter::SnapshotOpens, 1);
                    Some((Self::view_session(&core, v), core.version))
                }
            }
        };
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.shared.open_sessions.fetch_add(1, Ordering::Relaxed);
        obs.add(Counter::SessionsOpened, 1);
        Ok(Session::new(self.clone(), id, kind, snapshot))
    }

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> u64 {
        self.shared.open_sessions.load(Ordering::Relaxed)
    }

    /// Number of commit lanes (shards).
    pub fn shards(&self) -> usize {
        self.shared.lanes.len()
    }

    /// The configuration the service was booted with.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// The conceptual schema the service runs over.
    pub fn schema(&self) -> &Arc<GraphSchema> {
        &self.shared.schema
    }

    /// The current database version (one bump per commit).
    pub fn version(&self) -> u64 {
        self.shared.core.lock().unwrap().version
    }

    /// A shared snapshot of the conceptual state (an `Arc` bump, not a
    /// clone — the commit path copies on write if someone holds it).
    pub fn conceptual(&self) -> Arc<GraphState> {
        Arc::clone(self.shared.core.lock().unwrap().conceptual.state())
    }

    /// A snapshot of one external view's relational state.
    pub fn view_state(&self, name: &str) -> Option<RelationState> {
        self.shared
            .core
            .lock()
            .unwrap()
            .views
            .get(name)
            .map(|v| v.state().clone())
    }

    /// Names of the views the service serves.
    pub fn view_names(&self) -> Vec<String> {
        self.shared
            .core
            .lock()
            .unwrap()
            .views
            .keys()
            .cloned()
            .collect()
    }

    /// A fresh snapshot pair (handle, version) for a relational
    /// session rebasing after a conflict.
    pub(crate) fn snapshot_for(
        &self,
        view: &str,
    ) -> Result<(dme_ansi::ViewSession, u64), ServerError> {
        let core = self.shared.core.lock().unwrap();
        let v = core
            .views
            .get(view)
            .ok_or_else(|| ServerError::UnknownView(view.to_string()))?;
        self.shared.config.obs.add(Counter::SnapshotOpens, 1);
        Ok((Self::view_session(&core, v), core.version))
    }

    /// A snapshot handle over `view` paired with the current generation:
    /// the conceptual state and its shared fact base, compiled here if
    /// no commit or snapshot has compiled it yet, so every snapshot of
    /// the generation shares one compile.
    fn view_session(core: &Core, view: &Arc<ExternalView>) -> dme_ansi::ViewSession {
        core.conceptual.facts();
        dme_ansi::ViewSession::over(Arc::clone(view), core.conceptual.clone())
    }

    /// Clones the base and replays every logged payload through the
    /// strict fold recovery uses, so the audit checks the very bytes
    /// recovery would replay.
    fn fold_log(core: &Core) -> Result<GraphState, ServerError> {
        let mut state = GraphState::clone(&core.base);
        let mut replay = codec::LogReplay::new(&mut state);
        for (at, payload) in &core.log {
            replay.apply(payload).map_err(|e| {
                ServerError::StorageDiverged(format!("logged commit {at} does not apply: {e}"))
            })?;
        }
        replay.finish().map_err(|e| {
            ServerError::StorageDiverged(format!("the commit log does not apply: {e}"))
        })?;
        Ok(state)
    }

    /// Audits all three levels under an `ansi/audit` span (one
    /// [`Counter::AuditsRun`] per call): every external view must be
    /// state equivalent to the conceptual state within its vocabulary,
    /// and the internal level — the commit log folded over its base at
    /// the latest LSN — must rebuild the conceptual state exactly. The
    /// conceptual state is compiled once for all views.
    pub fn verify_consistency(&self) -> Result<(), ServerError> {
        let obs = &self.shared.config.obs;
        let _span = obs.span("ansi/audit");
        obs.add(Counter::AuditsRun, 1);
        let (conceptual, views) = {
            let core = self.shared.core.lock().unwrap();
            if let Some(why) = &core.crashed {
                return Err(ServerError::Crashed(why.clone()));
            }
            let lsn = core.next_lsn - 1;
            if Self::fold_log(&core)? != **core.conceptual.state() {
                return Err(ServerError::StorageDiverged(format!(
                    "the commit log folded to LSN {lsn} differs from the conceptual state"
                )));
            }
            (Arc::clone(core.conceptual.state()), core.views.clone())
        };
        obs.mark("ansi/views_audited", views.len() as u64);
        let conceptual_facts = conceptual.to_facts();
        for (name, view) in &views {
            if !view.consistent_with_facts(&conceptual_facts) {
                return Err(ServerError::LockstepDiverged { view: name.clone() });
            }
        }
        Ok(())
    }

    /// The committed schedule so far, in commit (LSN) order — what the
    /// conformance oracle replays sequentially.
    pub fn committed_history(&self) -> Vec<CommittedTxn> {
        self.shared.core.lock().unwrap().history.clone()
    }

    /// The durable bytes so far (what a crash at this instant would
    /// leave, assuming the tails survived).
    pub fn durable_image(&self) -> DurableImage {
        // Lock order: core, then WAL locks ascending — the same total
        // order the commit path uses.
        let core = self.shared.core.lock().unwrap();
        let mut wals: Vec<Vec<u8>> = self
            .shared
            .lanes
            .iter()
            .map(|l| l.wal.lock().unwrap().device.contents())
            .collect();
        let wal = wals.remove(0);
        DurableImage {
            wal,
            checkpoint: core.checkpoints.contents(),
            shard_wals: wals,
        }
    }

    /// Syncs performed across all WAL devices (the group-commit economy
    /// measure).
    pub fn wal_syncs(&self) -> u64 {
        self.shared
            .lanes
            .iter()
            .map(|l| l.wal.lock().unwrap().device.syncs())
            .sum()
    }

    /// Takes a checkpoint now: appends a full conceptual image to the
    /// checkpoint device and syncs it.
    pub fn checkpoint_now(&self) -> Result<(), ServerError> {
        let mut core = self.shared.core.lock().unwrap();
        if let Some(why) = &core.crashed {
            return Err(ServerError::Crashed(why.clone()));
        }
        self.take_checkpoint(&mut core, None)
    }

    /// Derives the next transaction's deterministic trace id. Sessions
    /// call this before translation so the whole admit → replay path
    /// shares one id.
    pub(crate) fn next_trace(&self) -> TraceId {
        TraceId::derive(self.shared.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// The per-shard metric registries (one per commit lane): shed
    /// counts, lane depths and latency histograms attributed to the
    /// lane that produced them.
    pub fn shard_metrics(&self) -> &ShardRegistry {
        &self.shared.shard_metrics
    }

    /// The service's trace hub: every transaction's cross-shard span
    /// tree, kept for the most recent [`ServiceConfig::trace_capacity`]
    /// traces.
    pub fn trace_hub(&self) -> &TraceHub {
        &self.shared.trace_hub
    }

    /// A point-in-time copy of the service's full telemetry: global
    /// counters and histograms plus every shard lane's own registry.
    /// This is what the exporters render and what `WatchMetrics`
    /// streams deltas of.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::capture_with_shards(&self.shared.config.obs, &self.shared.shard_metrics)
    }

    /// Looks a transaction's trace up in the hub and renders its
    /// stitched causal tree as JSON; unknown traces get a JSON error
    /// object (a miss is an answer, not a protocol failure).
    pub fn lookup_trace(&self, trace: TraceId) -> String {
        match self.shared.trace_hub.assemble(trace) {
            Some(asm) => asm.to_json(trace),
            None => format!("{{\"error\":\"unknown trace\",\"trace\":\"{trace}\"}}"),
        }
    }

    /// Renders the service's telemetry (counters + latency histograms,
    /// globally and per shard lane) outside the transactional data
    /// path. Works even after a crash — the black box must stay
    /// readable.
    pub(crate) fn render_metrics(&self, json: bool) -> String {
        let snap = self.telemetry_snapshot();
        if json {
            snap.to_json()
        } else {
            snap.to_prometheus_text()
        }
    }

    /// Appends a checkpoint image to the checkpoint device and syncs
    /// it. Every `full_checkpoint_every`-th image (and always the
    /// first) is a full conceptual state; the ones in between are
    /// incremental — the newest record of every fact the commit log
    /// touched since the previous image, chained to it by LSN. A
    /// durable full image also drives the storage economy: it becomes
    /// the base the commit log folds over, the log is released, and
    /// each shard's WAL is truncated up to the *previous* full image (keeping
    /// one spare chain so a corrupt newest record still leaves a
    /// recoverable image).
    fn take_checkpoint(&self, core: &mut Core, trace: Option<TraceId>) -> Result<(), ServerError> {
        let config = &self.shared.config;
        let obs = &config.obs;
        let _timer = obs.time(Metric::CheckpointLatency);
        let lsn = core.next_lsn - 1;
        let full = core
            .checkpoints_taken
            .is_multiple_of(config.full_checkpoint_every);
        let payload = if full {
            codec::encode_full_checkpoint(core.conceptual.state())
        } else {
            let since = core.log.partition_point(|(at, _)| *at <= core.last_cp_lsn);
            let records = codec::newest_records(core.log[since..].iter().map(|(_, p)| &p[..]))?;
            codec::encode_incremental_checkpoint(core.last_cp_lsn, &records)
        };
        let mut buf = Vec::new();
        wal::append_record_traced(&mut buf, lsn, trace.map(TraceId::as_u64), &payload);
        let result = core
            .checkpoints
            .append(&buf)
            .and_then(|_| core.checkpoints.sync());
        match result {
            Ok(()) => {
                core.commits_since_checkpoint = 0;
                core.checkpoints_taken += 1;
                core.last_cp_lsn = lsn;
                obs.add(Counter::CheckpointsTaken, 1);
                obs.add(Counter::CheckpointBytes, payload.len() as u64);
                if let Some(t) = trace {
                    obs.trace_event("server/checkpoint", t, || format!("lsn {lsn}"));
                }
                if full {
                    core.prev_full_lsn = core.last_full_lsn;
                    core.last_full_lsn = lsn;
                    // The current state becomes the log's base, and
                    // the commits folded into it are released.
                    core.base = Arc::clone(core.conceptual.state());
                    if !core.log.is_empty() {
                        obs.add(Counter::VersionsGcd, core.log.len() as u64);
                        core.log.clear();
                    }
                    // Shard WALs are covered up to the *previous* full
                    // image: truncate their fully-covered front batches.
                    if core.prev_full_lsn > 0 {
                        for lane in &self.shared.lanes {
                            lane.wal.lock().unwrap().truncate_upto(core.prev_full_lsn);
                        }
                    }
                }
                Ok(())
            }
            Err(e) => {
                core.crashed = Some(e.to_string());
                Err(ServerError::Crashed(e.to_string()))
            }
        }
    }

    /// Routes a transaction to its home commit lane and drives the
    /// protocol until its outcome is known. The calling thread may end
    /// up acting as the lane's batch leader for its own and other
    /// sessions' transactions. A full lane sheds immediately, and the
    /// shed is attributed to the refusing shard's own registry.
    pub(crate) fn submit(
        &self,
        gops: Vec<GraphOp>,
        base_version: Option<u64>,
        trace: TraceId,
        span: u64,
    ) -> Outcome {
        let config = &self.shared.config;
        let shard = shard::home_shard(&self.shared.schema, &gops, config.shards);
        let lane = &self.shared.lanes[shard];
        let metrics = self.shared.shard_metrics.shard(shard);
        let id = {
            let mut q = lane.queue.lock().unwrap();
            if q.pending.len() >= config.queue_depth {
                let depth = q.pending.len();
                drop(q);
                config.obs.add(Counter::RequestsShed, 1);
                metrics.add(Counter::RequestsShed, 1);
                metrics.set_lane_depth(depth as u64);
                self.shared.trace_hub.record(
                    trace,
                    "server/shed",
                    span,
                    Some(shard as u32),
                    || format!("shard {shard} depth {depth}"),
                );
                return Outcome::Shed { shard, depth };
            }
            let id = q.next_id;
            q.next_id += 1;
            q.pending.push_back(Request {
                id,
                trace,
                span,
                enqueued: std::time::Instant::now(),
                gops,
                base_version,
            });
            metrics.set_lane_depth(q.pending.len() as u64);
            lane.cv.notify_all();
            id
        };
        loop {
            let mut q = lane.queue.lock().unwrap();
            if let Some(out) = q.results.remove(&id) {
                return out;
            }
            if !q.leader && !q.pending.is_empty() {
                q.leader = true;
                let take = config.max_batch.min(q.pending.len());
                let batch: Vec<Request> = q.pending.drain(..take).collect();
                metrics.set_lane_depth(q.pending.len() as u64);
                drop(q);
                let outcomes = self.commit_batch(batch);
                let mut q = lane.queue.lock().unwrap();
                q.leader = false;
                for (rid, out) in outcomes {
                    q.results.insert(rid, out);
                }
                lane.cv.notify_all();
            } else {
                drop(lane.cv.wait(q).unwrap());
            }
        }
    }

    /// Validates, applies and logs a batch: conflicts and aborts are
    /// decided per transaction against the evolving state under the
    /// core lock; survivors share one WAL append + sync per involved
    /// shard, performed with the core lock released so other lanes'
    /// syncs overlap.
    fn commit_batch(&self, batch: Vec<Request>) -> Vec<(u64, Outcome)> {
        let config = &self.shared.config;
        let obs = &config.obs;
        let _span = obs.span("server/commit");
        let mut core = self.shared.core.lock().unwrap();
        let mut outcomes = Vec::with_capacity(batch.len());
        if let Some(why) = core.crashed.clone() {
            for req in batch {
                outcomes.push((req.id, Outcome::Crashed(why.clone())));
            }
            return outcomes;
        }
        let mut staged: Vec<StagedTxn> = Vec::new();
        for req in batch {
            if let Some(bv) = req.base_version {
                if bv != core.version {
                    obs.add(Counter::TxnConflicts, 1);
                    obs.mark("server/conflict", core.version);
                    outcomes.push((req.id, Outcome::Conflict));
                    continue;
                }
            }
            // Apply the transaction once, in place, one operation at a
            // time. With views, every state it passes through is
            // compiled once, from the actual state, and each view
            // translates against the same generations; a view that
            // refuses undoes the whole transaction. Copy-on-write: the
            // clone inside `state_mut` is paid only when a snapshot
            // still shares this generation — and then once per
            // generation, not once per open session. The apply comes
            // before any view has looked at the transaction, so a
            // transaction that aborts pays that clone too, and the
            // restored state is compiled again at its next use.
            let verify_timer = obs.time(Metric::VerifyLatency);
            let core = &mut *core;
            let translating = !core.views.is_empty();
            let mut failure: Option<Outcome> = None;
            let mut txn = GraphTxn::default();
            let mut generations: Vec<Arc<FactBase>> = Vec::new();
            if translating {
                generations.push(Arc::clone(core.conceptual.facts()));
            }
            for op in &req.gops {
                match GraphOp::apply_all_delta([op], core.conceptual.state_mut()) {
                    Ok(step) => {
                        txn.append(step);
                        if translating {
                            generations.push(Arc::clone(core.conceptual.facts()));
                        }
                    }
                    Err(e) => {
                        failure = Some(Outcome::Aborted(e.to_string()));
                        break;
                    }
                }
            }
            let mut advanced = Vec::with_capacity(core.views.len());
            if failure.is_none() {
                for (name, view) in &core.views {
                    let mut v = ExternalView::clone(view);
                    if let Err(e) = v.apply_conceptual_facts(&generations) {
                        failure = Some(Outcome::Aborted(format!("view {name}: {e}")));
                        break;
                    }
                    advanced.push((name.clone(), v));
                }
            }
            if failure.is_none() && config.lockstep_verify && !advanced.is_empty() {
                // Lockstep trusts no shared compile: one fresh compile
                // of the post-state, checked against every view.
                let fresh = core.conceptual.state().to_facts();
                for (name, v) in &advanced {
                    if !v.consistent_with_facts(&fresh) {
                        failure = Some(Outcome::Lockstep(name.clone()));
                        break;
                    }
                }
            }
            drop(verify_timer);
            if let Some(out) = failure {
                GraphOp::undo_txn(core.conceptual.state_mut(), txn);
                obs.add(Counter::TxnsAborted, 1);
                outcomes.push((req.id, out));
                continue;
            }
            debug_assert!(
                core.conceptual.facts_are_fresh(),
                "the shared facts compile the post-state"
            );
            // Which equivalence tier vouched for this translation: with
            // lockstep on, every view was checked state equivalent to
            // the advanced conceptual state (Definition 2 within the
            // view's vocabulary); otherwise we rely on the verified
            // operation translation (Definition 1).
            let tier = if config.lockstep_verify {
                "def2-state-equivalence"
            } else {
                "def1-translation"
            };
            let views = core.views.len();
            self.shared
                .trace_hub
                .record(req.trace, "server/verify", req.span, None, || {
                    format!("tier={tier} views={views}")
                });
            let shards = shard::shard_set(&self.shared.schema, &req.gops, config.shards);
            let lsn = core.next_lsn;
            core.next_lsn += 1;
            core.version += 1;
            let payload = codec::encode_changes(txn.changes());
            core.log.push((lsn, payload.clone()));
            for (name, v) in advanced {
                core.views.insert(name, Arc::new(v));
            }
            staged.push(StagedTxn {
                id: req.id,
                lsn,
                version: core.version,
                trace: req.trace,
                span: req.span,
                enqueued: req.enqueued,
                payload,
                ops: req.gops,
                shards,
            });
        }
        if staged.is_empty() {
            return outcomes;
        }
        // Build each involved shard's journal bytes in LSN order; a
        // cross-shard transaction's frame goes to every shard it
        // touches (recovery dedupes by LSN).
        let involved: BTreeSet<usize> = staged
            .iter()
            .flat_map(|s| s.shards.iter().copied())
            .collect();
        let cross = staged.iter().filter(|s| s.shards.len() > 1).count() as u64;
        let mut bufs: BTreeMap<usize, Vec<u8>> =
            involved.iter().map(|&s| (s, Vec::new())).collect();
        // Highest LSN each shard's batch buffer carries (staged is in
        // LSN order, so the last write wins) — the WAL frame map needs
        // it for checkpoint-covered truncation.
        let mut max_lsns: BTreeMap<usize, u64> = BTreeMap::new();
        let mut frames = 0u64;
        let batch_size = staged.len();
        let hub = &self.shared.trace_hub;
        for st in &staged {
            // Allocate the journal spans *before* the frames are built,
            // so each shard's frame is stamped with its own WAL span
            // (child of the group-commit span, child of admit). A hub
            // of capacity 0 yields span 0, which the WAL codec
            // normalizes back to a plain traced frame.
            let gc_span = hub.record(st.trace, "server/group_commit", st.span, None, || {
                format!("batch={batch_size}")
            });
            for &s in &st.shards {
                let wal_span = hub.record(
                    st.trace,
                    "server/wal_append",
                    gc_span,
                    Some(s as u32),
                    || format!("lsn {} shard {s}", st.lsn),
                );
                let mut frame = Vec::new();
                wal::append_record_spanned(
                    &mut frame,
                    st.lsn,
                    Some(st.trace.as_u64()),
                    Some((wal_span, gc_span)),
                    &st.payload,
                );
                bufs.get_mut(&s)
                    .expect("buffer per involved shard")
                    .extend_from_slice(&frame);
                max_lsns.insert(s, st.lsn);
                frames += 1;
            }
        }
        let group_timer = obs.time(Metric::GroupCommitLatency);
        // Acquire involved WAL locks in ascending shard order while the
        // core lock is still held (serializing acquisition keeps every
        // shard's log in LSN order), then release the core so other
        // lanes validate and sync concurrently.
        let mut guards: Vec<_> = involved
            .iter()
            .map(|&s| (s, self.shared.lanes[s].wal.lock().unwrap()))
            .collect();
        drop(core);
        let sync_timer = obs.time(Metric::WalSyncLatency);
        let mut failure: Option<DeviceError> = None;
        // Sync in ascending shard order, releasing each shard's WAL
        // lock as soon as its bytes are durable: a cross-shard batch
        // must not keep shard k's log locked while shard j < k is
        // still syncing, or disjoint batches on other lanes serialize
        // behind it.
        for (s, mut shard_wal) in guards.drain(..) {
            let result = shard_wal
                .device
                .append(&bufs[&s])
                .and_then(|_| shard_wal.device.sync());
            if result.is_ok() {
                shard_wal.note_batch(max_lsns[&s], bufs[&s].len() as u64);
            }
            drop(shard_wal);
            if let Err(e) = result {
                failure = Some(e);
                break;
            }
        }
        drop(sync_timer);
        drop(group_timer);
        // Release every WAL lock *before* re-acquiring the core lock:
        // a thread holding WAL locks must never wait on the core, or
        // the lock order above would inverse into a deadlock.
        drop(guards);
        let mut core = self.shared.core.lock().unwrap();
        match failure {
            None => {
                obs.add(Counter::GroupCommits, 1);
                obs.add(Counter::WalRecordsAppended, frames);
                obs.add(Counter::TxnsCommitted, staged.len() as u64);
                if cross > 0 {
                    obs.add(Counter::CrossShardCommits, cross);
                }
                core.commits_since_checkpoint += staged.len() as u64;
                let last_trace = staged.last().map(|s| s.trace);
                // The batch's LSN range is contiguous and disjoint from
                // every other batch's, so one splice keeps the history
                // sorted even when lanes finish out of LSN order.
                let first_lsn = staged[0].lsn;
                let at = core.history.partition_point(|t| t.lsn < first_lsn);
                let mut committed = Vec::with_capacity(batch_size);
                for st in staged {
                    let latency = st.enqueued.elapsed().as_micros() as u64;
                    obs.record(Metric::CommitLatency, latency);
                    // Attribute the commit to its home lane, the frames
                    // to every shard that journaled one.
                    let home = *st.shards.iter().next().expect("staged txn has a shard");
                    let home_metrics = self.shared.shard_metrics.shard(home);
                    home_metrics.add(Counter::TxnsCommitted, 1);
                    home_metrics.record(Metric::CommitLatency, latency);
                    if st.shards.len() > 1 {
                        home_metrics.add(Counter::CrossShardCommits, 1);
                    }
                    for &s in &st.shards {
                        self.shared
                            .shard_metrics
                            .shard(s)
                            .add(Counter::WalRecordsAppended, 1);
                    }
                    committed.push(CommittedTxn {
                        lsn: st.lsn,
                        ops: st.ops,
                    });
                    outcomes.push((
                        st.id,
                        Outcome::Committed {
                            lsn: st.lsn,
                            version: st.version,
                        },
                    ));
                }
                core.history.splice(at..at, committed);
                if config.checkpoint_every > 0
                    && core.commits_since_checkpoint >= config.checkpoint_every
                {
                    // A failed checkpoint marks the service crashed; the
                    // commits above are already durable in the WALs.
                    let _ = self.take_checkpoint(&mut core, last_trace);
                }
            }
            Some(e) => {
                // Log-before-acknowledge: a WAL write failed, so none of
                // these commits is acknowledged and the service stops.
                // The in-memory state is tainted; only the image
                // matters. (Shards that synced before the failure keep
                // their frames — recovery may resurrect those
                // unacknowledged transactions, never lose acked ones.)
                core.crashed = Some(e.to_string());
                for st in staged {
                    outcomes.push((st.id, Outcome::Crashed(e.to_string())));
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use dme_graph::fixtures as gfix;
    use dme_graph::{Association, Entity, EntityRef, GraphChange};
    use dme_relation::fixtures as rfix;
    use dme_value::Atom;

    fn supervise(agent: &str, object: &str) -> Association {
        let emp = |name: &str| EntityRef::new("employee", Atom::str(name));
        Association::new(
            "supervise",
            [("agent", emp(agent)), ("object", emp(object))],
        )
    }

    fn wayshum(age: i64) -> Entity {
        Entity::new(
            "employee",
            [("name", Atom::str("G.Wayshum")), ("age", Atom::int(age))],
        )
    }

    fn boot(config: ServiceConfig) -> SessionService {
        SessionService::new(
            gfix::figure4_state(),
            Vec::new(),
            config,
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap()
    }

    /// A Figure 4 service with the Figure 3 view, after one committed
    /// conceptual update (the Figure 6 supervision), plus the view as
    /// it stood before that commit.
    fn committed_once() -> (SessionService, Arc<ExternalView>) {
        committed_once_with(ServiceConfig::default())
    }

    fn committed_once_with(config: ServiceConfig) -> (SessionService, Arc<ExternalView>) {
        let service = SessionService::new(
            gfix::figure4_state(),
            vec![ViewSpec {
                name: "shop".into(),
                schema: rfix::machine_shop_schema(),
                mode: CompletionMode::StateCompleted,
            }],
            config,
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        let stale = Arc::clone(&service.shared.core.lock().unwrap().views["shop"]);
        let emp = |name: &str| EntityRef::new("employee", Atom::str(name));
        let op = GraphOp::InsertAssociation(Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
        ));
        let mut session = service.open_session(SessionKind::Graph).unwrap();
        session.submit_graph(vec![op]).unwrap().expect_commit();
        service.verify_consistency().unwrap();
        (service, stale)
    }

    #[test]
    fn audit_names_a_stale_view() {
        let (service, stale) = committed_once();
        service
            .shared
            .core
            .lock()
            .unwrap()
            .views
            .insert("shop".into(), stale);
        assert_eq!(
            service.verify_consistency(),
            Err(ServerError::LockstepDiverged {
                view: "shop".into()
            })
        );
    }

    #[test]
    fn audit_catches_a_lost_internal_version() {
        let (service, _) = committed_once();
        service.shared.core.lock().unwrap().log.pop();
        assert!(matches!(
            service.verify_consistency(),
            Err(ServerError::StorageDiverged(_))
        ));
    }

    #[test]
    fn a_full_checkpoint_collects_history_with_a_reader_open() {
        let obs = Observer::new(dme_obs::RingSink::with_capacity(16));
        let (service, _) = committed_once_with(ServiceConfig {
            obs: obs.clone(),
            ..ServiceConfig::default()
        });
        let reader = service
            .open_session(SessionKind::Relational {
                view: "shop".into(),
            })
            .unwrap();
        let mut writer = service.open_session(SessionKind::Graph).unwrap();
        writer
            .submit_graph(vec![GraphOp::DeleteAssociation(supervise(
                "G.Wayshum",
                "T.Manhart",
            ))])
            .unwrap()
            .expect_commit();
        service.checkpoint_now().unwrap();
        // The open reader holds its own snapshot, not the commit log:
        // the full checkpoint at LSN 2 folds both commits into the base.
        assert_eq!(obs.counter(Counter::VersionsGcd), 2);
        service.verify_consistency().unwrap();
        assert_eq!(
            *reader.conceptual_state().unwrap(),
            gfix::figure6_state(),
            "the reader still reads the state it opened on"
        );
    }

    #[test]
    fn incremental_checkpoints_carry_each_touched_fact_as_present_or_absent() {
        let service = boot(ServiceConfig {
            full_checkpoint_every: 2,
            ..ServiceConfig::default()
        });
        let mut session = service.open_session(SessionKind::Graph).unwrap();
        // Both versions of G.Wayshum are touched twice; the newest
        // record of each is what the image must carry.
        let gone = EntityRef::new("employee", Atom::str("G.Wayshum"));
        let ops = [
            GraphOp::DeleteAssociation(supervise("G.Wayshum", "C.Gershag")),
            GraphOp::DeleteEntity(gone.clone()),
            GraphOp::InsertEntity(wayshum(40)),
            GraphOp::DeleteEntity(gone),
            GraphOp::InsertEntity(wayshum(50)),
            GraphOp::InsertAssociation(supervise("T.Manhart", "C.Gershag")),
        ];
        for op in ops {
            session.submit_graph(vec![op]).unwrap().expect_commit();
        }
        service.checkpoint_now().unwrap();
        let image = service.durable_image();
        let records = wal::replay(&image.checkpoint).unwrap();
        let newest = records.last().unwrap();
        assert_eq!(newest.lsn, 6);
        let codec::CheckpointImage::Incremental { prev_lsn, delta } =
            codec::decode_checkpoint(newest.payload).unwrap()
        else {
            panic!("the second checkpoint is incremental");
        };
        assert_eq!(prev_lsn, 0, "chained to the boot image");
        // Each touched fact's record, from the conceptual state alone:
        // an insert if the fact is present, a delete if it is absent.
        // One fact per record class, so class order fixes the bytes.
        let now = service.conceptual();
        let assoc = |a: Association| {
            if now.associations().any(|x| *x == a) {
                GraphChange::InsertAssociation(a)
            } else {
                GraphChange::DeleteAssociation(a)
            }
        };
        let entity = |e: Entity| {
            if now.entities().any(|x| *x == e) {
                GraphChange::InsertEntity(e)
            } else {
                GraphChange::DeleteEntity(e)
            }
        };
        let want = codec::encode_changes(&[
            assoc(supervise("G.Wayshum", "C.Gershag")),
            entity(wayshum(40)),
            entity(wayshum(50)),
            assoc(supervise("T.Manhart", "C.Gershag")),
        ]);
        assert_eq!(delta, want.as_slice());
    }
}
