//! The `tasd-serve` server: a TCP accept loop over one shared serving session.
//!
//! # Thread anatomy
//!
//! ```text
//! accept thread ──spawns──▶ reader thread (per connection)
//!                               │  decodes frames, enqueues into the session,
//!                               │  pushes (id, ResponseHandle) into an mpsc channel
//!                               ▼
//!                           writer thread (per connection)
//!                               waits each handle passively, encodes the answer
//!
//! dispatcher thread (one, DispatcherHandle) — closes the open window whenever
//!                                             no window is executing
//! ```
//!
//! The writer waits with [`wait_without_dispatch`](tasd::ResponseHandle::wait_without_dispatch):
//! it must **not** force-close the open window (that would defeat cross-connection
//! coalescing), and it does not need to — the dispatcher closes the open window as soon
//! as the one ahead of it finishes, so requests that arrive while a window executes
//! coalesce into the next one. It sleeps while nothing is parked, so an idle server has
//! no thread waking up (see `tasd::engine::dispatcher`).
//!
//! # Ordering guarantee
//!
//! Responses on one connection are written in request order (the per-connection
//! channel is FIFO and the writer drains it sequentially). Control acks are ordered
//! with the requests around them the same way.
//!
//! # Lifecycle
//!
//! [`ControlOp::Drain`] closes admission on the *session* (every later request, on
//! any connection, resolves to a [`ErrorCode::ShuttingDown`] error frame) but keeps
//! the server and its connections up. [`ControlOp::Shutdown`] is the SIGTERM path:
//! it shuts the session down (parked requests resolve as `ShuttingDown` error
//! frames, in-flight windows finish), acks, then stops the whole server —
//! [`Server::wait`] returns after tearing everything down. std cannot install a
//! signal handler without platform crates, so process supervisors should send the
//! `Shutdown` control frame instead of relying on signal delivery.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tasd::engine::DEFAULT_MAX_BATCH;
use tasd::{
    load_snapshot, save_snapshot, BatchRequest, DeployError, DispatcherHandle, ExecutionEngine,
    LoadOutcome, OverloadPolicy, ResponseHandle, ServingEngine, SnapshotStats, TasdConfig,
    WeightStore,
};

use crate::wire::{
    read_frame, write_frame, ControlOp, ErrorCode, Frame, RecvError, StatsReport,
    CONNECTION_SCOPE_ID, DEFAULT_MAX_FRAME_BYTES,
};

/// How the server's serving session and transport are shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Window-closing batch size ([`ServingEngine::with_max_batch`]).
    pub max_batch: usize,
    /// Bounded admission queue, if any ([`ServingEngine::with_queue_capacity`]).
    pub queue_capacity: Option<usize>,
    /// What a full queue does with new arrivals.
    pub overload: OverloadPolicy,
    /// Per-frame size cap enforced on receive, before any allocation.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: DEFAULT_MAX_BATCH,
            queue_capacity: None,
            overload: OverloadPolicy::RejectNew,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

struct ConnectionRegistry {
    /// One `(registered stream clone, thread)` pair per live connection; finished
    /// pairs are pruned on each accept so a long-running server does not accumulate
    /// dead fds.
    connections: Vec<(TcpStream, JoinHandle<()>)>,
}

struct ServerShared {
    session: ServingEngine,
    /// Named serving operands; `UpdateWeights` deploys into it, `NamedRequest`
    /// resolves through it. Shares the session's engine.
    store: Arc<WeightStore>,
    /// Whether startup restored an intact store snapshot (reported in the `Stats` frame
    /// so operators can verify a warm restart).
    warm_start: bool,
    /// Fast-path flag the accept loop polls between connections.
    stop: AtomicBool,
    /// Condvar-guarded stop latch [`Server::wait`] blocks on.
    stop_signal: Mutex<bool>,
    stop_cv: Condvar,
    connections: Mutex<ConnectionRegistry>,
    max_frame: usize,
}

impl ServerShared {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut stop_signal = self
                .stop_signal
                .lock()
                .expect("tasd-serve stop-signal lock poisoned");
            *stop_signal = true;
        }
        self.stop_cv.notify_all();
    }
}

/// A running `tasd-serve` instance: accept loop, per-connection threads, and the
/// background dispatcher that owns the session's open window.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    dispatcher: Option<DispatcherHandle>,
    stopped: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stopped", &self.stopped)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), builds a fresh
    /// [`ExecutionEngine`] + serving session shaped by `config`, spawns the accept
    /// loop and the background dispatcher, and returns immediately.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let engine = Arc::new(ExecutionEngine::builder().build());
        Server::bind_over(addr, config, engine)
    }

    /// [`bind`](Server::bind), but serving through a caller-supplied engine (shared
    /// caches with in-process work).
    pub fn bind_over(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        engine: Arc<ExecutionEngine>,
    ) -> io::Result<Server> {
        Server::bind_inner(addr, config, WeightStore::new(engine), false)
    }

    /// [`bind_over`](Server::bind_over), first restoring the weight store's operands
    /// from a snapshot (see [`tasd::load_snapshot`]). Returns the server together with
    /// the load outcome; a missing or defective snapshot is a *cold* start, never a bind
    /// error — the warm-start flag in the `Stats` frame reflects the outcome. A restored
    /// operand is not servable until its weights are registered again; after a warm
    /// start, registering the snapshotted weights decomposes nothing.
    pub fn bind_restored(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        engine: Arc<ExecutionEngine>,
        snapshot: &Path,
    ) -> io::Result<(Server, LoadOutcome)> {
        let store = WeightStore::new(engine);
        let outcome = load_snapshot(&store, snapshot);
        let server = Server::bind_inner(addr, config, store, outcome.is_warm())?;
        Ok((server, outcome))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        store: WeightStore,
        warm_start: bool,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Arc::clone(store.engine());
        let store = Arc::new(store);
        let mut session = ServingEngine::over(engine)
            .with_max_batch(config.max_batch)
            .with_overload_policy(config.overload);
        if let Some(capacity) = config.queue_capacity {
            session = session.with_queue_capacity(capacity);
        }
        let dispatcher = session.spawn_dispatcher();
        let shared = Arc::new(ServerShared {
            session,
            store,
            warm_start,
            stop: AtomicBool::new(false),
            stop_signal: Mutex::new(false),
            stop_cv: Condvar::new(),
            connections: Mutex::new(ConnectionRegistry {
                connections: Vec::new(),
            }),
            max_frame: config.max_frame_bytes,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("tasd-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            dispatcher: Some(dispatcher),
            stopped: false,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving session behind the socket — for stats and in-process comparison.
    pub fn session(&self) -> &ServingEngine {
        &self.shared.session
    }

    /// The server's weight store — the in-process twin of the `UpdateWeights` /
    /// `NamedRequest` wire surface (deploys made here are visible on the wire and
    /// vice versa).
    pub fn store(&self) -> &Arc<WeightStore> {
        &self.shared.store
    }

    /// Snapshots the weight store's operands to `path` (see [`tasd::save_snapshot`]);
    /// a later [`bind_restored`](Server::bind_restored) over it starts warm.
    pub fn snapshot(&self, path: &Path) -> io::Result<SnapshotStats> {
        save_snapshot(&self.shared.store, path)
    }

    /// Graceful session drain: closes admission and executes the parked window. The
    /// server keeps running; later requests on any connection resolve to
    /// [`ErrorCode::ShuttingDown`] error frames.
    pub fn drain(&self) {
        self.shared.session.drain();
    }

    /// Blocks until a [`ControlOp::Shutdown`] control frame (or another thread's
    /// [`shutdown`](Server::shutdown)) stops the server, then tears everything down.
    pub fn wait(&mut self) {
        {
            let mut stop_signal = self
                .shared
                .stop_signal
                .lock()
                .expect("tasd-serve stop-signal lock poisoned");
            while !*stop_signal {
                stop_signal = self
                    .shared
                    .stop_cv
                    .wait(stop_signal)
                    .expect("tasd-serve stop-signal lock poisoned");
            }
        }
        self.shutdown();
    }

    /// Stops the server: shuts the session down (parked requests resolve to
    /// `ShuttingDown` error frames, in-flight windows finish), unblocks and joins the
    /// accept loop, closes every connection after its writer flushed, and stops the
    /// dispatcher. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.request_stop();
        self.shared.session.shutdown();
        // Unblock the (blocking) accept call with a throwaway connection; the loop
        // re-checks the stop flag before handling it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let live = {
            let mut connections = self
                .shared
                .connections
                .lock()
                .expect("tasd-serve connection registry lock poisoned");
            std::mem::take(&mut connections.connections)
        };
        // Read-side shutdown unblocks parked readers with a clean EOF while leaving
        // the write side open for writers still flushing final error frames.
        for (stream, _) in &live {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, thread) in live {
            let _ = thread.join();
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            dispatcher.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(stream) => stream,
            // Transient accept errors (e.g. aborted handshakes) don't kill the server.
            Err(_) => continue,
        };
        let registered = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let conn_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("tasd-serve-conn".to_string())
            .spawn(move || handle_connection(conn_shared, stream));
        let thread = match thread {
            Ok(thread) => thread,
            Err(_) => continue,
        };
        {
            let mut connections = shared
                .connections
                .lock()
                .expect("tasd-serve connection registry lock poisoned");
            // Prune connections whose threads already exited (their sockets are shut
            // down); without this a long-running server accumulates dead fds.
            connections
                .connections
                .retain(|(_, thread)| !thread.is_finished());
            connections.connections.push((registered, thread));
        }
    }
}

/// What the reader hands the writer, in request order.
enum WriterMsg {
    /// Wait this handle (passively) and write the response or error frame.
    Deliver { id: u64, handle: ResponseHandle },
    /// Write this frame as-is (acks, stats, reader-side errors).
    Frame(Frame),
}

fn handle_connection(shared: Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let writer_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer_thread = std::thread::Builder::new()
        .name("tasd-serve-writer".to_string())
        .spawn(move || writer_loop(writer_stream, rx));
    let writer_thread = match writer_thread {
        Ok(thread) => thread,
        Err(_) => return,
    };
    reader_loop(&shared, &stream, &tx);
    // Dropping the sender ends the writer's FIFO drain once queued answers flush.
    drop(tx);
    let _ = writer_thread.join();
    // Send the FIN ourselves: the registry holds a clone of this socket (for server
    // teardown), so merely dropping our handles would leave the peer waiting on a
    // connection that is already dead.
    let _ = stream.shutdown(Shutdown::Both);
}

fn reader_loop(shared: &ServerShared, stream: &TcpStream, tx: &mpsc::Sender<WriterMsg>) {
    let session = &shared.session;
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut reader, shared.max_frame) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => return,
            Err(RecvError::Io(_)) => return,
            Err(RecvError::Wire(wire_error)) => {
                // The stream cannot be resynchronized after a framing error: report
                // it as a structured frame, then close.
                let _ = tx.send(WriterMsg::Frame(Frame::Error {
                    id: CONNECTION_SCOPE_ID,
                    code: ErrorCode::BadFrame,
                    message: wire_error.to_string(),
                }));
                return;
            }
        };
        match frame {
            Frame::Request {
                id,
                config,
                deadline_micros,
                a,
                b,
            } => {
                let config = match config.as_deref().map(TasdConfig::parse).transpose() {
                    Ok(config) => config,
                    Err(parse_error) => {
                        // The frame decoded fine; only this request is unusable.
                        let _ = tx.send(WriterMsg::Frame(Frame::Error {
                            id,
                            code: ErrorCode::BadRequest,
                            message: format!("unparsable decomposition config: {parse_error}"),
                        }));
                        continue;
                    }
                };
                let mut request = match config {
                    Some(config) => BatchRequest::decomposed(a, config, b),
                    None => BatchRequest::dense(a, b),
                };
                if let Some(micros) = deadline_micros {
                    request = request.with_deadline(session.now() + Duration::from_micros(micros));
                }
                // Admission-control rejections (QueueFull / ShuttingDown) resolve the
                // handle immediately; the writer turns them into error frames.
                let handle = session.enqueue(request);
                if tx.send(WriterMsg::Deliver { id, handle }).is_err() {
                    return;
                }
            }
            Frame::UpdateWeights { name, config, a } => {
                // Deploys run inline on this reader thread: a push blocks only *this*
                // connection's reads (deploys are rare and deploy clients are
                // dedicated), while serving traffic on every other connection keeps
                // enqueueing — the store is never locked across preparation.
                let result = match config.as_deref().map(TasdConfig::parse).transpose() {
                    Ok(Some(parsed)) => shared.store.register(&name, a, parsed),
                    Ok(None) => shared.store.push(&name, a),
                    Err(parse_error) => {
                        let _ = tx.send(WriterMsg::Frame(refused_deploy(
                            &name,
                            ErrorCode::BadRequest,
                            &format!("unparsable decomposition config: {parse_error}"),
                        )));
                        continue;
                    }
                };
                let answer = match result {
                    Ok(report) => Frame::UpdateAck {
                        name,
                        generation: report.generation,
                        dirty_rows: report.dirty_rows as u64,
                        total_rows: report.total_rows as u64,
                        dirty_shards: report.dirty_shards as u64,
                        total_shards: report.total_shards as u64,
                        prepares: report.prepares,
                    },
                    Err(error) => {
                        let code = match error {
                            DeployError::UnknownOperand { .. } => ErrorCode::UnknownOperand,
                            // ShapeMismatch / PreparePanicked (and any future rejection):
                            // the resident generation keeps serving untouched.
                            _ => ErrorCode::DeployRejected,
                        };
                        refused_deploy(&name, code, &error.to_string())
                    }
                };
                let _ = tx.send(WriterMsg::Frame(answer));
            }
            Frame::NamedRequest {
                id,
                name,
                deadline_micros,
                b,
            } => {
                // Resolve the operand's current generation *now*, at enqueue: the
                // request keeps that generation's weights bitwise even if a deploy
                // swaps the name before its window executes.
                let Some(generation) = shared.store.resolve(&name) else {
                    let _ = tx.send(WriterMsg::Frame(Frame::Error {
                        id,
                        code: ErrorCode::UnknownOperand,
                        message: format!("unknown operand {name:?}: deploy it first"),
                    }));
                    continue;
                };
                let mut request = generation.request(b);
                if let Some(micros) = deadline_micros {
                    request = request.with_deadline(session.now() + Duration::from_micros(micros));
                }
                let handle = session.enqueue(request);
                if tx.send(WriterMsg::Deliver { id, handle }).is_err() {
                    return;
                }
            }
            Frame::Control(op) => match op {
                ControlOp::Ping => {
                    let _ = tx.send(WriterMsg::Frame(Frame::ControlAck(ControlOp::Ping)));
                }
                ControlOp::Flush => {
                    session.flush();
                    let _ = tx.send(WriterMsg::Frame(Frame::ControlAck(ControlOp::Flush)));
                }
                ControlOp::Drain => {
                    session.drain();
                    let _ = tx.send(WriterMsg::Frame(Frame::ControlAck(ControlOp::Drain)));
                }
                ControlOp::Shutdown => {
                    // Shut the session first so every parked request's error frame is
                    // queued ahead of the ack, then stop the whole server.
                    session.shutdown();
                    let _ = tx.send(WriterMsg::Frame(Frame::ControlAck(ControlOp::Shutdown)));
                    shared.request_stop();
                    return;
                }
                ControlOp::Stats => {
                    let report = StatsReport {
                        serving: session.stats(),
                        cache_generation: shared.store.generation(),
                        bytes_resident: shared.store.bytes_resident() as u64,
                        warm_start: shared.warm_start,
                    };
                    let _ = tx.send(WriterMsg::Frame(Frame::Stats(report)));
                }
            },
            // Server-to-client frames arriving at the server are a protocol violation.
            Frame::Response { .. }
            | Frame::Error { .. }
            | Frame::ControlAck(_)
            | Frame::UpdateAck { .. }
            | Frame::Stats(_) => {
                let _ = tx.send(WriterMsg::Frame(Frame::Error {
                    id: CONNECTION_SCOPE_ID,
                    code: ErrorCode::BadFrame,
                    message: "client sent a server-to-client frame".to_string(),
                }));
                return;
            }
        }
    }
}

/// The error frame answering a refused `UpdateWeights`. The frame carries no request
/// id, so the message leads with the operand's name.
fn refused_deploy(name: &str, code: ErrorCode, detail: &str) -> Frame {
    Frame::Error {
        id: CONNECTION_SCOPE_ID,
        code,
        message: format!("deploy of {name:?} refused: {detail}"),
    }
}

fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<WriterMsg>) {
    let mut writer = BufWriter::new(stream);
    for msg in rx {
        let frame = match msg {
            WriterMsg::Deliver { id, handle } => {
                // Passive wait: the dispatcher owns window close, so waiting here must
                // not force-close the open window (which would defeat coalescing).
                let response = handle.wait_without_dispatch();
                match response.output {
                    Ok(output) => Frame::Response { id, output },
                    Err(serving_error) => Frame::Error {
                        id,
                        code: ErrorCode::from_serving(&serving_error),
                        message: serving_error.to_string(),
                    },
                }
            }
            WriterMsg::Frame(frame) => frame,
        };
        if write_frame(&mut writer, &frame)
            .and_then(|()| writer.flush())
            .is_err()
        {
            // The peer is gone; remaining handles are dropped (responses abandoned).
            return;
        }
    }
}
