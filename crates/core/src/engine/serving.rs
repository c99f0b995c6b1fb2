//! Session-based serving: enqueue requests, coalesce them into micro-batch windows, and
//! collect results through poll/wait handles.
//!
//! [`ServingEngine`] is the continuous-traffic front-end over one shared
//! [`ExecutionEngine`]. Where [`ExecutionEngine::submit`] serves a batch the caller has
//! already assembled, a serving session assembles the batches *itself* from whatever
//! independent callers enqueue — the micro-batching that amortizes one decomposition
//! across requests that did not arrive together.
//!
//! # Lifecycle: enqueue → window → group → execute → handle
//!
//! 1. **Enqueue** — [`enqueue`](ServingEngine::enqueue) accepts one [`BatchRequest`] and
//!    immediately returns a [`ResponseHandle`]; the request joins the *open window*.
//! 2. **Window** — the open window closes (dispatches) when the session's dispatcher
//!    finds no window executing, when it holds
//!    [`max_batch`](ServingEngine::with_max_batch) requests (a dispatch trigger — the
//!    closing drain takes everything pending, so a window can exceed it under
//!    concurrent enqueue), or when anyone calls [`flush`](ServingEngine::flush) /
//!    [`drain`](ServingEngine::drain) / blocks on [`ResponseHandle::wait`]. Requests
//!    that arrive while a window executes join the next one — that is the whole point:
//!    under load, `k` stragglers against one operand become **one** decomposition and
//!    one packed kernel pass instead of `k`, and no request waits on a timer.
//! 3. **Group + execute** — a closing window is handed to the engine's batch executor
//!    verbatim: the same grouping key `(fingerprint, shape, config)`, the same
//!    shortest-plan-first admission under the fairness cap, the same packed multi-RHS
//!    kernel passes, the same banded execution of named operands. Every contract
//!    `submit` ever made holds per window.
//! 4. **Handle** — each request's [`BatchResponse`] lands in its handle;
//!    [`is_ready`](ResponseHandle::is_ready) / [`try_take`](ResponseHandle::try_take)
//!    poll, [`wait`](ResponseHandle::wait) blocks (closing the window first, so a lone
//!    waiter never hangs on a window nobody else will close).
//!
//! Windows are dispatched **serially** (an internal dispatch lock): concurrent
//! enqueuers feed one stream of windows, and each window runs on the engine's shared
//! [`Executor`](super::ExecutionEngine::workers) — never on per-call threads — so any
//! number of serving threads drive exactly one worker pool.
//!
//! # Window ownership: who closes the open window?
//!
//! A parked request closes nothing by itself — someone must close its window. A
//! deployment gives the window an **owner**:
//! [`spawn_dispatcher`](ServingEngine::spawn_dispatcher) starts one background thread
//! that sleeps on a condvar paired with the session lock while nothing is parked —
//! woken by [`enqueue`](ServingEngine::enqueue) when a window opens — and closes the
//! open window as soon as no window is executing. Dispatch is work-conserving (the
//! continuous batching of Orca, OSDI '22): at low rate a request runs at once, alone,
//! and under load the requests that park while one window executes form the next, so
//! the load itself, not a timer, decides how requests coalesce. An idle session costs
//! the dispatcher no wake-ups at all.
//!
//! Without an owner, the window holds until `flush`, `drain`, a blocking `wait` or a
//! full `max_batch` closes it — which is how tests compose windows deterministically.
//! With one running, [`ResponseHandle::wait_without_dispatch`] becomes safe: a response
//! consumer (e.g. a network connection's writer thread) can block on delivery without
//! collapsing the window the way `wait` would.
//!
//! # Determinism
//!
//! Which window a request lands in is timing-dependent under concurrency; the *bits* of
//! its response are not. Group execution is bitwise identical to per-request execution
//! (the [`batch` module](super::batch) contract) and banded execution is bitwise
//! identical to whole-operand execution (the engine module docs' "Bands" section), so
//! window composition, admission order, and executor placement are all invisible in the
//! results — the concurrency stress suite (`tests/serving_async.rs`) locks this down.
//!
//! # Deadlines, overload, and shutdown
//!
//! A request may carry an absolute deadline ([`BatchRequest::with_deadline`]) on the
//! session's [`Clock`](super::Clock) timeline; a request that expires before its window
//! executes resolves to [`ServingError::DeadlineExceeded`] instead of spending kernel
//! time. The queue can be bounded
//! ([`with_queue_capacity`](ServingEngine::with_queue_capacity)) with an
//! [`OverloadPolicy`] choosing between rejecting new arrivals and shedding
//! already-expired parked requests first. [`ResponseHandle::cancel`] withdraws one
//! request, and [`drain`](ServingEngine::drain) / [`shutdown`](ServingEngine::shutdown)
//! close admission — drain executes the parked window first, shutdown abandons it with
//! [`ServingError::ShuttingDown`]. Every one of these paths resolves every handle:
//! rejection happens *through* the handle, never by withholding one. See the
//! [engine module docs](super#failure-semantics) for the full failure taxonomy.

use super::batch::{describe_panic, BatchRequest, BatchResponse, BatchTelemetry, ServingError};
use super::clock::{Clock, MonotonicClock};
use super::faults::FaultSite;
use super::sync::{lock_or_panic, wait_or_panic};
use super::ExecutionEngine;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default micro-batch window size: the open window dispatches when it holds this many
/// requests (matches the largest batch the serving bench gates).
pub const DEFAULT_MAX_BATCH: usize = 32;

/// One request parked in the open window.
struct Pending {
    request: BatchRequest,
    slot: Arc<ResponseSlot>,
}

/// The session state behind one serving engine (shared by all of its clones and
/// handles).
struct ServingShared {
    engine: Arc<ExecutionEngine>,
    /// The session's one timeline for request deadlines (monotonic in production,
    /// stepped in tests).
    clock: Arc<dyn Clock>,
    state: Mutex<SessionState>,
    /// Paired with `state`: dispatchers sleep on it while nothing is parked
    /// ([`ServingEngine::spawn_dispatcher`]).
    window_opened: Condvar,
    /// Serializes window execution: whoever closes a window runs it alone, while
    /// enqueuers keep filling the next window.
    dispatch: Mutex<()>,
}

struct SessionState {
    pending: VecDeque<Pending>,
    next_id: u64,
    /// Set by [`ServingEngine::drain`] / [`ServingEngine::shutdown`]: admission is
    /// closed, every later enqueue resolves to [`ServingError::ShuttingDown`].
    closed: bool,
    stats: ServingStats,
}

/// Point-in-time counters of one serving session, from [`ServingEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Requests accepted by [`enqueue`](ServingEngine::enqueue).
    pub enqueued: u64,
    /// Requests dispatched through closed windows.
    pub dispatched: u64,
    /// Windows executed.
    pub windows: u64,
    /// Windows that coalesced more than one request — the micro-batching win counter.
    pub coalesced_windows: u64,
    /// Largest window executed so far.
    pub max_window: usize,
    /// Dispatcher wake-ups: how often a dispatcher
    /// ([`spawn_dispatcher`](ServingEngine::spawn_dispatcher)) found requests parked and
    /// closed the open window — about one per window it closed, none while idle.
    pub ticks: u64,
    /// Requests rejected at enqueue with [`ServingError::QueueFull`] (bounded queue).
    pub rejected_full: u64,
    /// Requests resolved [`ServingError::DeadlineExceeded`] — shed at admission or
    /// filtered out at dispatch.
    pub expired: u64,
    /// Expired parked requests shed at admission under
    /// [`OverloadPolicy::ShedExpiredFirst`] (a subset of [`expired`](Self::expired)).
    pub shed: u64,
    /// Requests withdrawn through [`ResponseHandle::cancel`].
    pub cancelled: u64,
    /// Requests refused after close or abandoned by [`ServingEngine::shutdown`]
    /// (resolved [`ServingError::ShuttingDown`]).
    pub shutdown_rejected: u64,
    /// Windows whose dispatch itself unwound — every in-window request resolved
    /// [`ServingError::KernelPanicked`]. Kernel panics contained *per group* by the
    /// batch executor do not count here.
    pub window_panics: u64,
}

/// What [`enqueue`](ServingEngine::enqueue) does when the bounded queue
/// ([`with_queue_capacity`](ServingEngine::with_queue_capacity)) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Resolve the incoming request with [`ServingError::QueueFull`] immediately.
    #[default]
    RejectNew,
    /// First shed parked requests whose deadlines have already expired (resolving them
    /// with [`ServingError::DeadlineExceeded`]), then reject the incoming request only
    /// if the queue is still full.
    ShedExpiredFirst,
}

/// One request's delivery slot: resolved exactly once, read at most once.
///
/// Resolution and consumption are separate facts: taking the response out does **not**
/// re-open the slot. A request resolved while still parked (cancelled, shed on expiry)
/// whose caller immediately consumes the response must stay *resolved* in the queue —
/// otherwise the dispatcher would see an "unresolved" slot and execute work nobody can
/// observe, and `shutdown` would count an already-answered request as abandoned.
struct SlotState {
    resolved: bool,
    response: Option<BatchResponse>,
}

struct ResponseSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(SlotState {
                resolved: false,
                response: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Delivers `response` if the slot was never resolved — **first write wins** — and
    /// reports whether this call was the delivery. A slot can race between its window's
    /// result, [`ResponseHandle::cancel`], deadline expiry, and shutdown; whichever
    /// writes first decides the outcome and the losers' responses are discarded.
    // lint: hot-path
    fn fulfill(&self, response: BatchResponse) -> bool {
        let mut state = lock_or_panic(&self.state, "response slot");
        if state.resolved {
            return false;
        }
        state.resolved = true;
        state.response = Some(response);
        self.cv.notify_all();
        true
    }

    // lint: hot-path
    fn is_ready(&self) -> bool {
        lock_or_panic(&self.state, "response slot").resolved
    }

    // lint: hot-path
    fn try_take(&self) -> Option<BatchResponse> {
        lock_or_panic(&self.state, "response slot").response.take()
    }

    // lint: hot-path
    fn wait_take(&self) -> BatchResponse {
        let mut state = lock_or_panic(&self.state, "response slot");
        loop {
            match state.response.take() {
                Some(response) => return response,
                None => state = wait_or_panic(&self.cv, state, "response slot"),
            }
        }
    }
}

/// A poll/wait handle to one enqueued request, from [`ServingEngine::enqueue`].
///
/// The handle owns the request's delivery slot: poll it with
/// [`is_ready`](Self::is_ready) / [`try_take`](Self::try_take), or block on
/// [`wait`](Self::wait). Dropping a handle abandons the response (the request still
/// executes with its window; the result is discarded).
///
/// The [`BatchResponse::index`] delivered through a handle is the request's position
/// *within its window* (useful for correlating with the window's
/// [`BatchTelemetry`]); the handle's own [`id`](Self::id) is the session-wide identity.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    slot: Arc<ResponseSlot>,
    shared: Arc<ServingShared>,
}

impl std::fmt::Debug for ResponseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseSlot")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl std::fmt::Debug for ServingShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingShared").finish_non_exhaustive()
    }
}

impl ResponseHandle {
    /// Session-wide id of this request (enqueue order, starting at 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the response has been delivered (i.e. the request's window executed).
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }

    /// Takes the response if it is ready; hands the handle back otherwise.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` (the intact handle) when the response is not ready yet.
    pub fn try_take(self) -> Result<BatchResponse, ResponseHandle> {
        match self.slot.try_take() {
            Some(response) => Ok(response),
            None => Err(self),
        }
    }

    /// Blocks until the response is delivered and returns it.
    ///
    /// A blocking waiter refuses to out-wait the window: if the request has not been
    /// dispatched yet, `wait` closes the open window first (exactly like
    /// [`ServingEngine::flush`]), so a caller that enqueues and immediately waits gets
    /// per-request latency, never a hang — at the cost of the coalescing a patient
    /// dispatcher would have won.
    pub fn wait(self) -> BatchResponse {
        if !self.slot.is_ready() {
            dispatch_window(&self.shared);
        }
        self.slot.wait_take()
    }

    /// Blocks until the response is delivered **without** closing the open window — the
    /// passive wait for callers that must not force dispatch.
    ///
    /// Where [`wait`](Self::wait) trades coalescing for a latency bound (a lone waiter
    /// closes the window itself), `wait_without_dispatch` preserves the window and
    /// trusts someone else to own it: the session's dispatcher
    /// ([`spawn_dispatcher`](ServingEngine::spawn_dispatcher)), another enqueuer, or an
    /// explicit [`flush`](ServingEngine::flush). This is what a network writer thread
    /// uses — it delivers responses in order without collapsing every window to size 1.
    ///
    /// **Caution:** on a session with no window owner (no dispatcher, no other
    /// traffic), this call blocks until one appears. Use [`wait`](Self::wait) when this
    /// handle's caller is the only actor.
    pub fn wait_without_dispatch(self) -> BatchResponse {
        self.slot.wait_take()
    }

    /// Withdraws this request, resolving its slot with [`ServingError::Cancelled`];
    /// returns whether the cancellation won (i.e. no response had been delivered yet).
    ///
    /// Cancellation is best-effort against execution: a request still parked in the
    /// open window is skipped at dispatch (no kernel time spent), while one already
    /// inside an executing window runs to completion and its result is discarded —
    /// first write wins, and `cancel` wrote first.
    pub fn cancel(&self) -> bool {
        let cancelled = self
            .slot
            .fulfill(BatchResponse::failed(0, ServingError::Cancelled));
        if cancelled {
            let mut state = lock_or_panic(&self.shared.state, "serving session");
            state.stats.cancelled += 1;
        }
        cancelled
    }
}

/// Closes and executes the open window (no-op when it is empty), returning its
/// telemetry: drain, execute, record, deliver, serialized by the dispatch lock. The
/// drain takes **everything** pending at close time — under concurrent enqueue a
/// window can therefore exceed `max_batch`, which is a dispatch *trigger*, not a drain
/// cap (see [`ServingEngine::with_max_batch`]); capping the drain instead would strand
/// the tail past a blocking waiter's close and hang it. See the [module docs](self)
/// for the lifecycle.
// lint: hot-path
fn dispatch_window(shared: &Arc<ServingShared>) -> Option<BatchTelemetry> {
    let _guard = lock_or_panic(&shared.dispatch, "dispatch");
    let now = shared.clock.now();
    let window: Vec<Pending> = {
        let mut state = lock_or_panic(&shared.state, "serving session");
        state.pending.drain(..).collect()
    };
    if window.is_empty() {
        return None;
    }
    // Filter the drained window before spending kernel time: already-resolved slots
    // (cancelled) are dropped, expired deadlines are resolved without executing.
    let mut requests = Vec::with_capacity(window.len());
    let mut slots = Vec::with_capacity(window.len());
    let mut expired = 0u64;
    for pending in window {
        if pending.slot.is_ready() {
            continue;
        }
        if pending
            .request
            .deadline
            .is_some_and(|deadline| deadline <= now)
        {
            if pending
                .slot
                .fulfill(BatchResponse::failed(0, ServingError::DeadlineExceeded))
            {
                expired += 1;
            }
            continue;
        }
        requests.push(pending.request);
        slots.push(pending.slot);
    }
    if expired > 0 {
        let mut state = lock_or_panic(&shared.state, "serving session");
        state.stats.expired += expired;
    }
    if requests.is_empty() {
        return None;
    }
    let executed = catch_unwind(AssertUnwindSafe(|| {
        shared.engine.failpoint(FaultSite::WindowDispatch);
        shared.engine.submit_with_telemetry(requests)
    }));
    match executed {
        Ok((responses, telemetry)) => {
            record_window(shared, responses.len());
            for (response, slot) in responses.into_iter().zip(slots) {
                slot.fulfill(response);
            }
            Some(telemetry)
        }
        Err(payload) => {
            // The dispatch itself unwound (kernel panics inside a group are contained
            // per group by the batch executor and never reach here). Waiters must not
            // hang on slots this window will never fill: fail every remaining request
            // and keep the session alive for the next window.
            let error = ServingError::KernelPanicked {
                payload: describe_panic(payload.as_ref()),
            };
            for slot in slots {
                slot.fulfill(BatchResponse::failed(0, error.clone()));
            }
            let mut state = lock_or_panic(&shared.state, "serving session");
            state.stats.window_panics += 1;
            None
        }
    }
}

// lint: hot-path
fn record_window(shared: &ServingShared, size: usize) {
    let mut state = lock_or_panic(&shared.state, "serving session");
    state.stats.windows += 1;
    state.stats.dispatched += size as u64;
    state.stats.max_window = state.stats.max_window.max(size);
    if size > 1 {
        state.stats.coalesced_windows += 1;
    }
}

/// An async, session-based serving front-end over one shared [`ExecutionEngine`]: see
/// the [module docs](self) for the lifecycle and contracts.
///
/// Cloning is cheap and shares the session: clones enqueue into the same windows,
/// read the same clock, and report the same [`stats`](Self::stats) — hand one clone
/// to each serving thread. (Window parameters are per-clone, but configure them before
/// sharing to keep one policy per session.)
#[derive(Debug, Clone)]
pub struct ServingEngine {
    shared: Arc<ServingShared>,
    max_batch: usize,
    queue_capacity: Option<usize>,
    overload: OverloadPolicy,
}

impl ServingEngine {
    /// A serving session over `engine`, with the default window size
    /// ([`DEFAULT_MAX_BATCH`]) and a wall-clock [`MonotonicClock`] for deadlines. Any
    /// number of sessions may share one engine — they share its caches and its executor.
    pub fn over(engine: Arc<ExecutionEngine>) -> Self {
        ServingEngine::over_with_clock(engine, Arc::new(MonotonicClock::new()))
    }

    /// A serving session over `engine` reading deadlines from `clock` — inject a
    /// [`MockClock`](super::MockClock) to expire deadlines deterministically in tests
    /// (step it instead of sleeping).
    pub fn over_with_clock(engine: Arc<ExecutionEngine>, clock: Arc<dyn Clock>) -> Self {
        ServingEngine {
            shared: Arc::new(ServingShared {
                engine,
                clock,
                state: Mutex::new(SessionState {
                    pending: VecDeque::new(),
                    next_id: 0,
                    closed: false,
                    stats: ServingStats::default(),
                }),
                window_opened: Condvar::new(),
                dispatch: Mutex::new(()),
            }),
            max_batch: DEFAULT_MAX_BATCH,
            queue_capacity: None,
            overload: OverloadPolicy::default(),
        }
    }

    /// Sets the window size trigger: the open window dispatches as soon as it holds
    /// this many requests (clamped to at least 1).
    ///
    /// This is a dispatch *trigger*, not a hard cap on the executed window: the closing
    /// drain takes everything pending at close time, so requests parked by concurrent
    /// enqueuers while a previous window executes can push a window past `max_batch`
    /// ([`ServingStats::max_window`] reports the largest actually executed). Capping
    /// the drain would strand the tail past a blocking waiter's close — more coalescing
    /// is always bitwise-safe, so the drain prefers it.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Bounds the open window's queue: once `capacity` requests are parked (clamped to
    /// at least 1), further enqueues hit the [`OverloadPolicy`] instead of growing the
    /// queue without limit. Unbounded by default.
    ///
    /// Like the window parameters, the bound is per-clone — configure it before sharing
    /// the session so every serving thread enforces one policy.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Sets what a full bounded queue does with an incoming request (default
    /// [`OverloadPolicy::RejectNew`]). Has no effect until
    /// [`with_queue_capacity`](Self::with_queue_capacity) bounds the queue.
    #[must_use]
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// The engine this session serves through.
    pub fn engine(&self) -> &Arc<ExecutionEngine> {
        &self.shared.engine
    }

    /// The configured window size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The configured queue bound, or `None` when the queue is unbounded.
    pub fn queue_capacity(&self) -> Option<usize> {
        self.queue_capacity
    }

    /// The configured overload policy.
    pub fn overload_policy(&self) -> OverloadPolicy {
        self.overload
    }

    /// The session clock's current reading — the timeline
    /// [`BatchRequest::with_deadline`] deadlines are expressed on.
    pub fn now(&self) -> Duration {
        self.shared.clock.now()
    }

    /// Whether admission has been closed by [`drain`](Self::drain) /
    /// [`shutdown`](Self::shutdown).
    pub fn is_closed(&self) -> bool {
        lock_or_panic(&self.shared.state, "serving session").closed
    }

    /// Requests currently parked in the open window.
    pub fn pending(&self) -> usize {
        lock_or_panic(&self.shared.state, "serving session")
            .pending
            .len()
    }

    /// Point-in-time session counters.
    pub fn stats(&self) -> ServingStats {
        lock_or_panic(&self.shared.state, "serving session").stats
    }

    /// Enqueues one request into the open window and returns its handle. Dispatches the
    /// window when it reaches [`max_batch`](Self::with_max_batch); otherwise a request
    /// that opens a window wakes the session's dispatchers.
    ///
    /// Admission can refuse the request — session closed
    /// ([`ServingError::ShuttingDown`]) or bounded queue full
    /// ([`ServingError::QueueFull`], after any [`OverloadPolicy`] shedding) — in which
    /// case the returned handle is already resolved with that error: enqueue never
    /// blocks and never withholds a handle.
    // lint: hot-path
    pub fn enqueue(&self, request: BatchRequest) -> ResponseHandle {
        let (handle, should_dispatch) = self.park(request);
        if should_dispatch {
            dispatch_window(&self.shared);
        }
        handle
    }

    /// Parks `request` in the open window; reports whether the window must dispatch.
    /// Refused requests come back with their slot already resolved (see
    /// [`enqueue`](Self::enqueue)).
    // lint: hot-path
    fn park(&self, request: BatchRequest) -> (ResponseHandle, bool) {
        let slot = Arc::new(ResponseSlot::new());
        // Read the clock (for shedding expired requests) before the session lock: the
        // clock has its own lock (mock clocks) and stays un-nested under the session's.
        let now = self.shared.clock.now();
        let mut state = lock_or_panic(&self.shared.state, "serving session");
        let id = state.next_id;
        state.next_id += 1;
        let handle = ResponseHandle {
            id,
            slot: Arc::clone(&slot),
            shared: Arc::clone(&self.shared),
        };
        if state.closed {
            state.stats.shutdown_rejected += 1;
            drop(state);
            slot.fulfill(BatchResponse::failed(0, ServingError::ShuttingDown));
            return (handle, false);
        }
        if let Some(cap) = self.queue_capacity {
            if state.pending.len() >= cap && self.overload == OverloadPolicy::ShedExpiredFirst {
                // Split borrow: walk `pending` while bumping `stats` on the same guard.
                let st = &mut *state;
                let parked: Vec<Pending> = st.pending.drain(..).collect();
                for pending in parked {
                    if pending.slot.is_ready() {
                        // Already cancelled — its seat is free either way.
                        continue;
                    }
                    let expired = pending.request.deadline.is_some_and(|d| d <= now);
                    if expired
                        && pending
                            .slot
                            .fulfill(BatchResponse::failed(0, ServingError::DeadlineExceeded))
                    {
                        st.stats.expired += 1;
                        st.stats.shed += 1;
                        continue;
                    }
                    st.pending.push_back(pending);
                }
            }
            if state.pending.len() >= cap {
                state.stats.rejected_full += 1;
                drop(state);
                slot.fulfill(BatchResponse::failed(0, ServingError::QueueFull));
                return (handle, false);
            }
        }
        state.stats.enqueued += 1;
        state.pending.push_back(Pending { request, slot });
        let opened = state.pending.len() == 1;
        let full = state.pending.len() >= self.max_batch;
        drop(state);
        if opened && !full {
            self.shared.window_opened.notify_all();
        }
        (handle, full)
    }

    /// The dispatcher thread's loop: sleep on the session condvar while nothing is
    /// parked; otherwise count one [`ServingStats::ticks`] wake-up and close the open
    /// window, so whatever arrives while it executes forms the next one — until `stop`
    /// is set (see [`stop_dispatcher`](Self::stop_dispatcher)).
    // lint: hot-path
    pub(super) fn dispatch_until(&self, stop: &AtomicBool) {
        let shared = &self.shared;
        loop {
            let mut state = lock_or_panic(&shared.state, "serving session");
            while state.pending.is_empty() && !stop.load(Ordering::Acquire) {
                state = wait_or_panic(&shared.window_opened, state, "serving session");
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            state.stats.ticks += 1;
            // Release the session lock first: the window close takes the dispatch lock,
            // which orders before it.
            drop(state);
            dispatch_window(shared);
        }
    }

    /// Sets `stop` under the session lock and wakes every dispatcher, so a dispatcher
    /// between its stop check and its wait cannot miss the signal. Runs from a
    /// handle's `Drop`, so it never panics: a poisoned session lock means the
    /// dispatcher has already died on it.
    pub(super) fn stop_dispatcher(&self, stop: &AtomicBool) {
        let state = self.shared.state.lock();
        stop.store(true, Ordering::Release);
        drop(state);
        self.shared.window_opened.notify_all();
    }

    /// Closes and executes the open window now, whatever its size. Returns the window's
    /// telemetry, or `None` if it was empty.
    pub fn flush(&self) -> Option<BatchTelemetry> {
        dispatch_window(&self.shared)
    }

    /// Graceful close: shuts admission (later enqueues resolve
    /// [`ServingError::ShuttingDown`]), then **executes** the parked window so every
    /// already-accepted request still gets its real response. Returns that final
    /// window's telemetry, or `None` if nothing was parked. Idempotent.
    pub fn drain(&self) -> Option<BatchTelemetry> {
        {
            let mut state = lock_or_panic(&self.shared.state, "serving session");
            state.closed = true;
        }
        dispatch_window(&self.shared)
    }

    /// Immediate close: shuts admission and **abandons** the parked window, resolving
    /// every parked handle with [`ServingError::ShuttingDown`] without executing it,
    /// then waits out any in-flight window so the session is quiesced on return.
    /// Returns how many parked requests were abandoned. Idempotent; prefer
    /// [`drain`](Self::drain) when parked work should still complete.
    pub fn shutdown(&self) -> u64 {
        let parked: Vec<Pending> = {
            let mut state = lock_or_panic(&self.shared.state, "serving session");
            state.closed = true;
            state.pending.drain(..).collect()
        };
        let mut abandoned = 0u64;
        for pending in parked {
            if pending
                .slot
                .fulfill(BatchResponse::failed(0, ServingError::ShuttingDown))
            {
                abandoned += 1;
            }
        }
        if abandoned > 0 {
            let mut state = lock_or_panic(&self.shared.state, "serving session");
            state.stats.shutdown_rejected += abandoned;
        }
        // Taking (and immediately releasing) the dispatch lock waits out a window that
        // was already executing, so in-flight handles are resolved by the time we
        // return.
        drop(lock_or_panic(&self.shared.dispatch, "dispatch"));
        abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TasdConfig;
    use crate::engine::LatchedBackend;
    use tasd_tensor::backend::{DenseBackend, GemmBackend};
    use tasd_tensor::MatrixGenerator;

    fn serving(cache_capacity: usize) -> ServingEngine {
        ServingEngine::over(Arc::new(
            ExecutionEngine::builder()
                .cache_capacity(cache_capacity)
                .build(),
        ))
    }

    fn request(gen: &mut MatrixGenerator, a: &Arc<tasd_tensor::Matrix>) -> BatchRequest {
        BatchRequest::decomposed(
            Arc::clone(a),
            TasdConfig::parse("2:8").unwrap(),
            gen.normal(a.cols(), 4, 0.0, 1.0),
        )
    }

    #[test]
    fn arrivals_during_an_executing_window_coalesce_into_the_next() {
        let mut gen = MatrixGenerator::seeded(61);
        let a = Arc::new(gen.sparse_normal(32, 32, 0.8));
        let latch = Arc::new(LatchedBackend::wrap(Arc::new(DenseBackend::default())));
        // Cache-less engine: decomposition count measures coalescing directly. One
        // worker runs each kernel whole, so one kernel entry is one window's pass.
        let engine = ExecutionEngine::builder()
            .backend(Arc::clone(&latch) as Arc<dyn GemmBackend>)
            .cache_capacity(0)
            .workers(1)
            .build();
        let s = ServingEngine::over(Arc::new(engine)).with_max_batch(100);
        let dispatcher = s.spawn_dispatcher();
        let first = s.enqueue(request(&mut gen, &a));
        latch.wait_started();
        // The first window is executing: these three park and form the next one. Read
        // before releasing, assert after: a failed assertion must not leave the
        // dispatcher held on the latch while the session's drop waits for it.
        let late: Vec<ResponseHandle> = (0..3).map(|_| s.enqueue(request(&mut gen, &a))).collect();
        let (parked, first_ready) = (s.pending(), first.is_ready());
        latch.release();
        assert_eq!(parked, 3, "arrivals wait for the executing window");
        assert!(!first_ready);
        assert!(first.wait_without_dispatch().output.is_ok());
        for handle in late {
            assert!(handle.wait_without_dispatch().output.is_ok());
        }
        dispatcher.stop();
        let stats = s.stats();
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.coalesced_windows, 1);
        assert_eq!(stats.dispatched, 4);
        assert_eq!(stats.max_window, 3);
        assert_eq!(stats.ticks, 2, "one dispatcher wake-up per window");
        assert_eq!(
            s.engine().prep_stats().prepares,
            2,
            "the three late requests share one decomposition"
        );
    }

    #[test]
    fn a_session_without_a_dispatcher_holds_its_window_until_flush_wait_or_full() {
        let mut gen = MatrixGenerator::seeded(63);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(3);
        let h1 = s.enqueue(request(&mut gen, &a));
        let h2 = s.enqueue(request(&mut gen, &a));
        assert!(!h1.is_ready() && !h2.is_ready(), "nobody closed the window");
        assert_eq!(s.flush().expect("two parked requests").requests, 2);
        assert!(h1.is_ready() && h2.is_ready());
        let h3 = s.enqueue(request(&mut gen, &a));
        assert!(!h3.is_ready());
        assert!(
            h3.wait().output.is_ok(),
            "a blocking waiter closes the window"
        );
        let full: Vec<ResponseHandle> = (0..3).map(|_| s.enqueue(request(&mut gen, &a))).collect();
        assert!(
            full.iter().all(ResponseHandle::is_ready),
            "a full window closes"
        );
        let stats = s.stats();
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.ticks, 0, "no dispatcher, no wake-ups");
    }

    #[test]
    fn full_window_dispatches_on_enqueue() {
        let mut gen = MatrixGenerator::seeded(62);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(2);
        let h1 = s.enqueue(request(&mut gen, &a));
        assert!(!h1.is_ready());
        assert_eq!(s.pending(), 1);
        let h2 = s.enqueue(request(&mut gen, &a));
        assert!(
            h1.is_ready() && h2.is_ready(),
            "max_batch closes the window"
        );
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn wait_closes_the_window_instead_of_hanging() {
        let mut gen = MatrixGenerator::seeded(64);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8); // no dispatcher, no other traffic
        let h = s.enqueue(request(&mut gen, &a));
        let response = h.wait();
        assert!(response.output.is_ok());
    }

    #[test]
    fn try_take_hands_the_handle_back_until_ready() {
        let mut gen = MatrixGenerator::seeded(65);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8);
        let h = s.enqueue(request(&mut gen, &a));
        let h = match h.try_take() {
            Ok(_) => panic!("window has not dispatched yet"),
            Err(handle) => handle,
        };
        assert_eq!(h.id(), 0);
        s.flush().expect("one pending request");
        let response = h.try_take().expect("flushed window must be delivered");
        assert!(response.output.is_ok());
    }

    #[test]
    fn handles_deliver_exactly_once() {
        let mut gen = MatrixGenerator::seeded(67);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8);
        let h = s.enqueue(request(&mut gen, &a));
        s.flush();
        let first = h.try_take().expect("ready after flush");
        assert!(first.output.is_ok());
    }

    #[test]
    fn bounded_queue_rejects_new_when_full() {
        let mut gen = MatrixGenerator::seeded(68);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(100).with_queue_capacity(2);
        let h1 = s.enqueue(request(&mut gen, &a));
        let h2 = s.enqueue(request(&mut gen, &a));
        let h3 = s.enqueue(request(&mut gen, &a));
        assert!(h3.is_ready(), "rejection resolves the handle immediately");
        assert_eq!(
            h3.wait().output.unwrap_err(),
            ServingError::QueueFull,
            "third enqueue must be rejected by the bounded queue"
        );
        assert_eq!(s.stats().rejected_full, 1);
        assert_eq!(s.stats().enqueued, 2, "rejected requests are not enqueued");
        s.flush();
        assert!(h1.wait().output.is_ok());
        assert!(h2.wait().output.is_ok());
    }

    #[test]
    fn cancel_skips_execution_and_resolves_the_handle() {
        let mut gen = MatrixGenerator::seeded(69);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(100);
        let h = s.enqueue(request(&mut gen, &a));
        let kept = s.enqueue(request(&mut gen, &a));
        assert!(h.cancel(), "first cancel wins the slot");
        assert!(!h.cancel(), "second cancel loses to the first");
        let telemetry = s.flush().expect("one live request remains");
        assert_eq!(
            telemetry.requests, 1,
            "cancelled request must not reach the executor"
        );
        assert_eq!(h.wait().output.unwrap_err(), ServingError::Cancelled);
        assert!(kept.wait().output.is_ok());
        assert_eq!(s.stats().cancelled, 1);
    }

    #[test]
    fn consuming_a_cancelled_response_keeps_the_slot_resolved() {
        // Regression: `wait`/`try_take` used to `Option::take` the only record of
        // resolution, so a cancelled request whose caller consumed the response while
        // it was still parked looked unresolved again — the next dispatch executed it
        // (kernel time nobody can observe) and `shutdown` counted it as abandoned.
        let mut gen = MatrixGenerator::seeded(72);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(100);
        let cancelled = s.enqueue(request(&mut gen, &a));
        let kept = s.enqueue(request(&mut gen, &a));
        assert!(cancelled.cancel());
        // Consume the Cancelled response while the request is still parked.
        assert_eq!(
            cancelled.wait().output.unwrap_err(),
            ServingError::Cancelled
        );
        let telemetry = s.flush().expect("one live request remains");
        assert_eq!(
            telemetry.requests, 1,
            "a consumed cancellation must still be skipped at dispatch"
        );
        assert!(kept.wait().output.is_ok());
        // Same fact at shutdown: a consumed-while-parked resolution is not "abandoned".
        let answered = s.enqueue(request(&mut gen, &a));
        assert!(answered.cancel());
        assert_eq!(answered.wait().output.unwrap_err(), ServingError::Cancelled);
        assert_eq!(
            s.shutdown(),
            0,
            "shutdown must not re-resolve a request whose caller already took its answer"
        );
    }

    #[test]
    fn shutdown_abandons_parked_and_closes_admission() {
        let mut gen = MatrixGenerator::seeded(70);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(100);
        let parked = s.enqueue(request(&mut gen, &a));
        assert_eq!(s.shutdown(), 1);
        assert!(s.is_closed());
        assert_eq!(
            parked.wait().output.unwrap_err(),
            ServingError::ShuttingDown
        );
        let late = s.enqueue(request(&mut gen, &a));
        assert_eq!(late.wait().output.unwrap_err(), ServingError::ShuttingDown);
        assert_eq!(s.stats().shutdown_rejected, 2);
        assert_eq!(s.shutdown(), 0, "shutdown is idempotent");
    }

    #[test]
    fn drain_executes_parked_then_closes() {
        let mut gen = MatrixGenerator::seeded(71);
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let s = serving(8).with_max_batch(100);
        let parked = s.enqueue(request(&mut gen, &a));
        let telemetry = s.drain().expect("drain executes the parked window");
        assert_eq!(telemetry.requests, 1);
        assert!(parked.wait().output.is_ok(), "drain completes parked work");
        let late = s.enqueue(request(&mut gen, &a));
        assert_eq!(late.wait().output.unwrap_err(), ServingError::ShuttingDown);
    }
}
