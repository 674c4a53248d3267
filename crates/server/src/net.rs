//! The networked front door: an in-process duplex transport, a
//! listener, per-shard dispatcher pools with bounded admission, and a
//! typed client — everything between a remote caller and
//! [`SessionService::handle`].
//!
//! ## Transport
//!
//! A [`Conn`] is a pair of bounded byte-chunk channels (one per
//! direction). Chunks are arbitrary byte runs, *not* frames: the
//! receiver accumulates them and peels complete CRC frames off the
//! front with [`wal::decode_frame`], treating a truncated tail as "wait
//! for more bytes" and any other decode failure as a corrupt stream.
//! Writers that send whole frames per chunk (the normal path) and
//! writers that fragment frames across chunks (the adversarial tests)
//! are indistinguishable to the reader.
//!
//! ## Server shape
//!
//! ```text
//! accept thread ──spawns──▶ per-conn reader tasks (smol executor)
//!                                   │ try_send (bounded)
//!                                   ▼
//!                 per-shard dispatcher threads ──handle()──▶ service
//!                                   │
//!                                   ▼ response frames, by correlation
//!                              back down the conn
//! ```
//!
//! A request that names a session is routed to dispatcher shard
//! `session % shards`, so one session's requests execute serially even
//! when its client pipelines them; sessionless requests spread by
//! correlation id. Every dispatcher queue is bounded at the service's
//! [`queue_depth`](crate::ServiceConfig::queue_depth): a reader that
//! finds the home queue full does **not** wait — it answers
//! [`Response::Overloaded`] immediately (typed shedding, counted in
//! [`Counter::RequestsShed`]) and stays responsive to the rest of the
//! connection's traffic.
//!
//! ## Client
//!
//! [`Client`] multiplexes many in-flight calls over one connection by
//! correlation id: a demultiplexer thread owns the receive side and
//! wakes whichever caller registered the id. [`RemoteSession`] wraps a
//! server-side session id in the same `submit_graph` /
//! `submit_relational` / `refresh` / `close` surface [`Session`]
//! offers locally, with errors rebuilt from their stable wire codes.
//!
//! [`Session`]: crate::Session

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dme_graph::GraphOp;
use dme_obs::{Counter, Observer};
use dme_relation::RelOp;
use dme_storage::wal::{self, WalError};
use dme_value::Tuple;
use smol::channel::{self, Receiver, Sender, TrySendError};

use crate::codec::AdminRequest;
use crate::error::ServerError;
use crate::service::{CommitOutcome, SessionService};
use crate::session::SessionKind;
use crate::wire::{self, Request, Response};

// ---------------------------------------------------------------------
// Transport.

/// Peels one complete frame off the front of `buf`, or reports that the
/// bytes so far are only a prefix (`Ok(None)`), or that the stream can
/// never parse again (`Err`).
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ServerError> {
    if buf.is_empty() {
        return Ok(None);
    }
    match wal::decode_frame(buf, 0) {
        Ok((_, consumed)) => Ok(Some(buf.drain(..consumed).collect())),
        Err(WalError::Truncated { .. }) => Ok(None),
        Err(e) => Err(ServerError::Protocol(format!("corrupt wire stream: {e}"))),
    }
}

/// The receive half of a connection: a chunk stream plus the
/// reassembly buffer that turns it back into frames.
struct FrameReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Receives the next complete frame, blocking for more chunks as
    /// needed. `Ok(None)` is a clean close at a frame boundary; a close
    /// mid-frame is a protocol error.
    fn recv_frame_blocking(&mut self) -> Result<Option<Vec<u8>>, ServerError> {
        loop {
            if let Some(frame) = take_frame(&mut self.buf)? {
                return Ok(Some(frame));
            }
            match self.rx.recv_blocking() {
                Ok(chunk) => self.buf.extend_from_slice(&chunk),
                Err(_) if self.buf.is_empty() => return Ok(None),
                Err(_) => return Err(ServerError::Protocol("connection closed mid-frame".into())),
            }
        }
    }

    /// Async [`FrameReader::recv_frame_blocking`].
    async fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, ServerError> {
        loop {
            if let Some(frame) = take_frame(&mut self.buf)? {
                return Ok(Some(frame));
            }
            match self.rx.recv().await {
                Ok(chunk) => self.buf.extend_from_slice(&chunk),
                Err(_) if self.buf.is_empty() => return Ok(None),
                Err(_) => return Err(ServerError::Protocol("connection closed mid-frame".into())),
            }
        }
    }
}

/// One end of an in-process duplex byte stream. Dropping an end closes
/// the connection in both directions once in-flight chunks drain.
pub struct Conn {
    tx: Sender<Vec<u8>>,
    reader: FrameReader,
}

impl Conn {
    /// A connected pair of ends, each direction a bounded channel of
    /// `window` chunks.
    pub fn pair(window: usize) -> (Conn, Conn) {
        let (a_tx, a_rx) = channel::bounded(window.max(1));
        let (b_tx, b_rx) = channel::bounded(window.max(1));
        let end = |tx, rx| Conn {
            tx,
            reader: FrameReader {
                rx,
                buf: Vec::new(),
            },
        };
        (end(a_tx, b_rx), end(b_tx, a_rx))
    }

    /// Sends a raw byte chunk (blocking when the peer's window is
    /// full). The chunk need not align with frame boundaries.
    pub fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), ServerError> {
        self.tx
            .send_blocking(bytes)
            .map_err(|_| ServerError::Protocol("connection closed".into()))
    }

    /// Receives the next complete frame; see
    /// `FrameReader::recv_frame_blocking`.
    pub fn recv_frame_blocking(&mut self) -> Result<Option<Vec<u8>>, ServerError> {
        self.reader.recv_frame_blocking()
    }

    /// Splits into the send half and the receive half, so each can be
    /// owned (and dropped) independently.
    fn split(self) -> (Sender<Vec<u8>>, FrameReader) {
        (self.tx, self.reader)
    }
}

/// The server side of connection establishment: an accept queue the
/// [`NetServer`]'s accept thread drains.
pub struct Listener {
    accept_rx: Receiver<Conn>,
}

/// The client side of connection establishment. Cloneable; every clone
/// dials the same listener.
#[derive(Clone)]
pub struct Dialer {
    accept_tx: Sender<Conn>,
    window: usize,
}

impl Listener {
    /// A listener and its dialer. `backlog` bounds connections accepted
    /// but not yet served; `window` sizes each new connection's
    /// per-direction chunk channel.
    pub fn new(backlog: usize, window: usize) -> (Listener, Dialer) {
        let (accept_tx, accept_rx) = channel::bounded(backlog.max(1));
        (Listener { accept_rx }, Dialer { accept_tx, window })
    }

    /// The next inbound connection, or `None` once every dialer is
    /// gone.
    pub fn accept_blocking(&self) -> Option<Conn> {
        self.accept_rx.recv_blocking().ok()
    }
}

impl Dialer {
    /// Establishes a connection, handing the server its end.
    pub fn connect(&self) -> Result<Conn, ServerError> {
        let (client_end, server_end) = Conn::pair(self.window);
        self.accept_tx
            .send_blocking(server_end)
            .map_err(|_| ServerError::Protocol("listener is gone".into()))?;
        Ok(client_end)
    }
}

// ---------------------------------------------------------------------
// The server.

/// Network-layer tuning for [`NetServer::serve_with`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connections accepted but not yet picked up by the accept thread.
    pub backlog: usize,
    /// Per-direction chunk-channel capacity of each connection.
    pub conn_window: usize,
    /// Worker threads in the reader executor (the dispatcher pool is
    /// always one thread per service shard).
    pub reader_workers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            backlog: 64,
            conn_window: 256,
            reader_workers: 2,
        }
    }
}

struct Job {
    correlation: u64,
    request: Request,
    reply: Sender<Vec<u8>>,
}

/// The served front door: accept thread + per-connection reader tasks
/// on a vendored async executor + one dispatcher thread per shard.
///
/// Threads wind down on their own once the server handle and every
/// client connection are dropped; [`NetServer::shutdown`] does that
/// explicitly and joins them.
pub struct NetServer {
    dial: Dialer,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Serves `service` with default network tuning.
    pub fn serve(service: SessionService) -> NetServer {
        Self::serve_with(service, NetConfig::default())
    }

    /// Serves `service` over a fresh in-process listener.
    pub fn serve_with(service: SessionService, net: NetConfig) -> NetServer {
        let shards = service.shards();
        let depth = service.config().queue_depth;
        let obs = service.config().obs.clone();
        let (listener, dial) = Listener::new(net.backlog, net.conn_window);

        let mut threads = Vec::new();
        let mut queues = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::bounded::<Job>(depth);
            queues.push(tx);
            let service = service.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dme-dispatch-{shard}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv_blocking() {
                            let response = service.handle(job.request);
                            let frame = wire::encode_response_frame(job.correlation, &response);
                            // A vanished client drops its responses.
                            let _ = job.reply.send_blocking(frame);
                        }
                    })
                    .expect("spawn dispatcher"),
            );
        }

        let readers = net.reader_workers.max(1);
        threads.push(
            std::thread::Builder::new()
                .name("dme-accept".into())
                .spawn(move || {
                    let executor = smol::Executor::new(readers);
                    while let Some(conn) = listener.accept_blocking() {
                        let queues = queues.clone();
                        let obs = obs.clone();
                        let service = service.clone();
                        executor
                            .spawn(async move {
                                serve_conn(conn, queues, shards, obs, service).await;
                            })
                            .detach();
                    }
                    // Executor drop waits for in-flight readers, which
                    // end when their clients hang up.
                })
                .expect("spawn acceptor"),
        );

        NetServer { dial, threads }
    }

    /// Dials the server and wraps the connection in a typed [`Client`].
    pub fn connect(&self) -> Result<Client, ServerError> {
        Ok(Client::over(self.dial.connect()?))
    }

    /// A dialer for handing to other threads.
    pub fn dialer(&self) -> Dialer {
        self.dial.clone()
    }

    /// Stops accepting, then joins every server thread. Returns only
    /// after in-flight connections close, so drop all clients first.
    pub fn shutdown(self) {
        drop(self.dial);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// One connection's read loop: peel frames, decode, route to the home
/// dispatcher, shed typed `Overloaded` when the home queue is full.
/// `WatchMetrics` subscriptions are intercepted here, before dispatch:
/// each spawns a pusher thread that streams [`Response::MetricsDelta`]
/// frames under the subscribing correlation until the connection
/// closes.
async fn serve_conn(
    conn: Conn,
    queues: Vec<Sender<Job>>,
    shards: usize,
    obs: Observer,
    service: SessionService,
) {
    let (reply, mut reader) = conn.split();
    loop {
        let frame = match reader.recv_frame().await {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                // The stream can never re-synchronise: answer under the
                // reserved correlation 0 and hang up.
                let resp = Response::Error {
                    code: e.code(),
                    message: e.to_string(),
                };
                let _ = reply.send(wire::encode_response_frame(0, &resp)).await;
                return;
            }
        };
        let (correlation, request) = match wire::decode_request_frame(&frame) {
            Ok(decoded) => decoded,
            Err(e) => {
                obs.add(Counter::RequestsServed, 1);
                let resp = Response::Error {
                    code: e.code(),
                    message: e.to_string(),
                };
                let _ = reply.send(wire::encode_response_frame(0, &resp)).await;
                continue;
            }
        };
        if let Request::Admin { body } = &request {
            if let Ok(AdminRequest::WatchMetrics { interval_ms }) = AdminRequest::decode(body) {
                spawn_metrics_pusher(service.clone(), reply.clone(), correlation, interval_ms);
                continue;
            }
        }
        let shard = match request.session() {
            Some(id) => (id % shards as u64) as usize,
            None => (correlation % shards as u64) as usize,
        };
        match queues[shard].try_send(Job {
            correlation,
            request,
            reply: reply.clone(),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                obs.add(Counter::RequestsShed, 1);
                let lane = shard % service.shard_metrics().shards();
                service
                    .shard_metrics()
                    .shard(lane)
                    .add(Counter::RequestsShed, 1);
                let resp = Response::Overloaded {
                    shard: shard as u64,
                    depth: queues[shard].len() as u64,
                };
                let frame = wire::encode_response_frame(job.correlation, &resp);
                if reply.send(frame).await.is_err() {
                    return;
                }
            }
            Err(TrySendError::Closed(_)) => return,
        }
    }
}

/// Spawns the pusher thread behind one `WatchMetrics` subscription:
/// every `interval_ms` it captures the service's telemetry, frames the
/// delta against the previous capture as a [`Response::MetricsDelta`]
/// under the subscription's correlation id, and pushes it down the
/// connection. The thread exits when the connection closes (the send
/// fails); it holds only a service clone and the reply sender, so it
/// never outlives the server's shared state.
fn spawn_metrics_pusher(
    service: SessionService,
    reply: Sender<Vec<u8>>,
    correlation: u64,
    interval_ms: u32,
) {
    std::thread::Builder::new()
        .name("dme-metrics-push".into())
        .spawn(move || {
            let interval = std::time::Duration::from_millis(interval_ms.max(1) as u64);
            let obs = service.config().obs.clone();
            let mut prev = service.telemetry_snapshot();
            loop {
                std::thread::sleep(interval);
                let now = service.telemetry_snapshot();
                let delta = now.delta(&prev);
                prev = now;
                let resp = Response::MetricsDelta {
                    body: delta.to_json(),
                };
                let frame = wire::encode_response_frame(correlation, &resp);
                if reply.send_blocking(frame).is_err() {
                    return;
                }
                obs.add(Counter::MetricsDeltasStreamed, 1);
            }
        })
        .expect("spawn metrics pusher");
}

// ---------------------------------------------------------------------
// The client.

struct ClientInner {
    tx: Sender<Vec<u8>>,
    pending: Mutex<HashMap<u64, Sender<Response>>>,
    /// Persistent server-push subscriptions (`WatchMetrics`): unlike
    /// `pending` waiters, a subscription stays registered across
    /// responses and receives every frame pushed under its correlation.
    subs: Mutex<HashMap<u64, Sender<Response>>>,
    next_correlation: AtomicU64,
}

/// A typed handle over one connection, multiplexing concurrent calls by
/// correlation id. Cheap to clone; clones share the connection.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

impl Client {
    /// Wraps an established connection, spawning its demultiplexer.
    /// The demultiplexer owns only the receive half, so dropping the
    /// last `Client` clone closes the outbound direction and lets the
    /// server wind the connection down.
    pub fn over(conn: Conn) -> Client {
        let (tx, mut reader) = conn.split();
        let inner = Arc::new(ClientInner {
            tx,
            pending: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            next_correlation: AtomicU64::new(1),
        });
        let demux = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("dme-client-demux".into())
            .spawn(move || loop {
                // Weak, not Arc: the inner holds the send half, and the
                // demultiplexer must not keep the connection open after
                // the last `Client` clone is gone.
                let result = reader.recv_frame_blocking();
                let Some(inner) = demux.upgrade() else { return };
                match result {
                    Ok(Some(frame)) => {
                        let (correlation, response) = match wire::decode_response_frame(&frame) {
                            Ok(decoded) => decoded,
                            // The server never sends bad frames; a
                            // flipped bit in transit fails everyone.
                            Err(e) => {
                                fail_all(&inner, &e);
                                return;
                            }
                        };
                        if correlation == 0 {
                            // The server could not attribute the fault
                            // to a call: surface it to every waiter.
                            if let Response::Error { code, message } = response {
                                fail_all(&inner, &wire::error_from_wire(code, message));
                            }
                            continue;
                        }
                        // Subscriptions first: a subscribed correlation
                        // stays registered and swallows every push.
                        let sub = inner.subs.lock().unwrap().get(&correlation).cloned();
                        if let Some(sub) = sub {
                            if sub.send_blocking(response).is_err() {
                                inner.subs.lock().unwrap().remove(&correlation);
                            }
                            continue;
                        }
                        let waiter = inner.pending.lock().unwrap().remove(&correlation);
                        if let Some(waiter) = waiter {
                            let _ = waiter.send_blocking(response);
                        }
                    }
                    Ok(None) => {
                        inner.subs.lock().unwrap().clear();
                        return;
                    }
                    Err(e) => {
                        fail_all(&inner, &e);
                        return;
                    }
                }
            })
            .expect("spawn client demux");
        Client { inner }
    }

    fn register(&self) -> (u64, Receiver<Response>) {
        let correlation = self.inner.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.inner.pending.lock().unwrap().insert(correlation, tx);
        (correlation, rx)
    }

    fn closed(&self) -> ServerError {
        ServerError::Protocol("connection closed".into())
    }

    /// One framed round trip, blocking until the response arrives.
    pub fn call_blocking(&self, request: &Request) -> Result<Response, ServerError> {
        let (correlation, rx) = self.register();
        let frame = wire::encode_request_frame(correlation, request);
        if self.inner.tx.send_blocking(frame).is_err() {
            self.inner.pending.lock().unwrap().remove(&correlation);
            return Err(self.closed());
        }
        rx.recv_blocking().map_err(|_| self.closed())
    }

    /// Async [`Client::call_blocking`] for callers on an executor.
    pub async fn call(&self, request: &Request) -> Result<Response, ServerError> {
        let (correlation, rx) = self.register();
        let frame = wire::encode_request_frame(correlation, request);
        if self.inner.tx.send(frame).await.is_err() {
            self.inner.pending.lock().unwrap().remove(&correlation);
            return Err(self.closed());
        }
        rx.recv().await.map_err(|_| self.closed())
    }

    /// Opens a server-side session and wraps its id.
    pub fn open_session(&self, kind: SessionKind) -> Result<RemoteSession, ServerError> {
        match self.call_blocking(&Request::OpenSession { kind })? {
            Response::SessionOpened { session } => Ok(RemoteSession {
                client: self.clone(),
                session,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Reads a view's full relational state over the wire.
    pub fn view_state(&self, view: &str) -> Result<Vec<(String, Vec<Tuple>)>, ServerError> {
        match self.call_blocking(&Request::ViewState { view: view.into() })? {
            Response::ViewState { relations } => Ok(relations),
            other => Err(unexpected(other)),
        }
    }

    /// Renders the service's telemetry over the wire.
    pub fn metrics(&self, json: bool) -> Result<String, ServerError> {
        match self.call_blocking(&Request::Metrics { json })? {
            Response::Metrics { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Forces a checkpoint over the wire.
    pub fn checkpoint(&self) -> Result<(), ServerError> {
        match self.call_blocking(&Request::Checkpoint)? {
            Response::CheckpointTaken => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Looks a transaction's trace up over the wire, returning the
    /// stitched cross-shard causal tree as JSON (or a JSON error object
    /// for traces the server no longer remembers).
    pub fn trace_lookup(&self, trace: u64) -> Result<String, ServerError> {
        match self.call_blocking(&Request::Admin {
            body: AdminRequest::TraceLookup(trace).encode(),
        })? {
            Response::Admin { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Subscribes to live telemetry: the server pushes one JSON delta
    /// snapshot every `interval_ms` milliseconds over this connection
    /// until the connection closes. Multiple watches multiplex with
    /// ordinary calls over the same connection.
    pub fn watch_metrics(&self, interval_ms: u32) -> Result<MetricsWatch, ServerError> {
        let correlation = self.inner.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(64);
        self.inner.subs.lock().unwrap().insert(correlation, tx);
        let request = Request::Admin {
            body: AdminRequest::WatchMetrics { interval_ms }.encode(),
        };
        let frame = wire::encode_request_frame(correlation, &request);
        if self.inner.tx.send_blocking(frame).is_err() {
            self.inner.subs.lock().unwrap().remove(&correlation);
            return Err(self.closed());
        }
        Ok(MetricsWatch { rx })
    }
}

/// A live telemetry subscription: each item is one server-pushed JSON
/// delta snapshot (what moved since the previous push). The stream ends
/// when the connection closes.
pub struct MetricsWatch {
    rx: Receiver<Response>,
}

impl MetricsWatch {
    /// Blocks for the next delta snapshot's JSON body; `None` once the
    /// connection is gone.
    pub fn recv_blocking(&self) -> Option<String> {
        loop {
            match self.rx.recv_blocking() {
                Ok(Response::MetricsDelta { body }) => return Some(body),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }
}

fn fail_all(inner: &ClientInner, error: &ServerError) {
    let waiters: Vec<Sender<Response>> = inner
        .pending
        .lock()
        .unwrap()
        .drain()
        .map(|(_, tx)| tx)
        .collect();
    for tx in waiters {
        let _ = tx.send_blocking(Response::Error {
            code: error.code(),
            message: error.to_string(),
        });
    }
    // Dropping the subscription senders ends every watch cleanly.
    inner.subs.lock().unwrap().clear();
}

fn unexpected(response: Response) -> ServerError {
    match response {
        Response::Error { code, message } => wire::error_from_wire(code, message),
        other => ServerError::Protocol(format!("unexpected response: {other:?}")),
    }
}

fn outcome_from(response: Response) -> Result<CommitOutcome, ServerError> {
    match response {
        Response::Committed(info) => Ok(if info.attempts > 1 {
            CommitOutcome::Retried {
                retries: info.attempts - 1,
                info,
            }
        } else {
            CommitOutcome::Committed(info)
        }),
        Response::Overloaded { shard, depth } => Ok(CommitOutcome::Shed {
            shard: shard as usize,
            depth: depth as usize,
        }),
        other => Err(unexpected(other)),
    }
}

/// A server-side session driven over the wire, mirroring the local
/// [`Session`](crate::Session) surface.
pub struct RemoteSession {
    client: Client,
    session: u64,
}

impl RemoteSession {
    /// The server-side session id.
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Submits conceptual operations as one transaction.
    pub fn submit_graph(&self, ops: Vec<GraphOp>) -> Result<CommitOutcome, ServerError> {
        outcome_from(self.client.call_blocking(&Request::SubmitGraph {
            session: self.session,
            ops,
        })?)
    }

    /// Submits one relational operation as a transaction.
    pub fn submit_relational(&self, op: RelOp) -> Result<CommitOutcome, ServerError> {
        outcome_from(self.client.call_blocking(&Request::SubmitRelational {
            session: self.session,
            op,
        })?)
    }

    /// Advances the session's snapshot; returns the service version.
    pub fn refresh(&self) -> Result<u64, ServerError> {
        match self.client.call_blocking(&Request::Refresh {
            session: self.session,
        })? {
            Response::Refreshed { version } => Ok(version),
            other => Err(unexpected(other)),
        }
    }

    /// Closes the session (with the closing equivalence check).
    pub fn close(self) -> Result<(), ServerError> {
        match self.client.call_blocking(&Request::Close {
            session: self.session,
        })? {
            Response::Closed => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::service::{ServiceConfig, SessionService, ViewSpec};
    use dme_graph::fixtures as gfix;

    fn serve() -> (NetServer, SessionService) {
        let service = SessionService::new(
            gfix::figure4_state(),
            Vec::<ViewSpec>::new(),
            ServiceConfig::default(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        (NetServer::serve(service.clone()), service)
    }

    #[test]
    fn frames_survive_arbitrary_fragmentation() {
        let (server, _service) = serve();
        let conn = server.dialer().connect().unwrap();
        let frame = wire::encode_request_frame(42, &Request::Metrics { json: false });
        // Drip the frame one byte at a time; the reader reassembles.
        for b in &frame {
            conn.send_bytes(vec![*b]).unwrap();
        }
        let mut conn = conn;
        let reply = conn.recv_frame_blocking().unwrap().unwrap();
        let (corr, resp) = wire::decode_response_frame(&reply).unwrap();
        assert_eq!(corr, 42);
        assert!(matches!(resp, Response::Metrics { .. }));
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn a_corrupt_stream_gets_a_correlation_zero_error() {
        let (server, _service) = serve();
        let mut conn = server.dialer().connect().unwrap();
        let mut frame = wire::encode_request_frame(7, &Request::Checkpoint);
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // bit flip in transit, caught by the CRC
        conn.send_bytes(frame).unwrap();
        let reply = conn.recv_frame_blocking().unwrap().unwrap();
        let (corr, resp) = wire::decode_response_frame(&reply).unwrap();
        assert_eq!(corr, 0);
        match resp {
            Response::Error { code, .. } => {
                assert_eq!(code, ServerError::Protocol(String::new()).code())
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // The server hung up on the poisoned stream.
        assert!(conn.recv_frame_blocking().unwrap().is_none());
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn clients_multiplex_sessions_over_one_connection() {
        let (server, service) = serve();
        let client = server.connect().unwrap();
        let sessions: Vec<RemoteSession> = (0..8)
            .map(|_| client.open_session(SessionKind::Graph).unwrap())
            .collect();
        crossbeam::scope(|sc| {
            for (i, s) in sessions.iter().enumerate() {
                sc.spawn(move |_| {
                    // Two distinct supervisions not present in Figure 4,
                    // each raced by four sessions: exactly one of each
                    // commits, the duplicates abort.
                    let (agent, object) =
                        [("G.Wayshum", "T.Manhart"), ("T.Manhart", "C.Gershag")][i % 2];
                    let op = dme_graph::GraphOp::InsertAssociation(dme_graph::Association::new(
                        "supervise",
                        [
                            (
                                "agent",
                                dme_graph::EntityRef::new("employee", dme_value::Atom::str(agent)),
                            ),
                            (
                                "object",
                                dme_graph::EntityRef::new("employee", dme_value::Atom::str(object)),
                            ),
                        ],
                    ));
                    // Duplicate inserts abort; both faces are typed.
                    match s.submit_graph(vec![op]) {
                        Ok(outcome) => assert!(outcome.info().is_some()),
                        Err(e) => assert_eq!(e.code(), 2, "{e}"),
                    }
                });
            }
        })
        .unwrap();
        for s in sessions {
            s.close().unwrap();
        }
        assert_eq!(service.open_sessions(), 0);
        assert_eq!(service.committed_history().len(), 2);
        drop(client);
        server.shutdown();
    }
}
