//! Window ownership: a background thread that closes the open window whenever no window
//! is executing.
//!
//! A parked request closes nothing by itself: if nobody acts, a request whose caller
//! only polls (or is a network writer that must not force dispatch) waits until the
//! next flush, blocking `wait()` or full window — possibly forever.
//! [`ServingEngine::spawn_dispatcher`] gives the window an owner. Its thread sleeps on
//! a condvar paired with the session lock while nothing is parked;
//! [`enqueue`](ServingEngine::enqueue) notifies it when a request opens a window, and it
//! closes that window at once. Windows execute one at a time, so the requests that
//! arrive while one executes park and form the next. The dispatcher is
//! work-conserving — a parked request never waits while no window executes — and how
//! requests coalesce follows the load, not a timer. An idle session costs it no
//! wake-ups.
//!
//! The dispatcher closes windows through the same path as
//! [`flush`](ServingEngine::flush), so a dispatched session's *results* are still
//! bitwise independent of window composition (the serving module's contract). Its loop
//! reads no clock and takes no lock of its own: its stop flag is set under the session
//! lock it sleeps on.
//!
//! The [`DispatcherHandle`] owns the thread: [`stop`](DispatcherHandle::stop) (or drop)
//! signals it and joins, so a dispatcher never outlives the scope that spawned it. The
//! thread keeps the session alive through its clone of the engine — stop the
//! dispatcher before expecting session memory to be released.

use super::serving::ServingEngine;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Owner handle of a background dispatcher thread, from
/// [`ServingEngine::spawn_dispatcher`].
///
/// Dropping the handle stops the thread and joins it (so a panicking dispatcher thread
/// surfaces at the owner, not silently). Keep the handle alive for as long as the
/// session should keep its window owner.
#[derive(Debug)]
pub struct DispatcherHandle {
    session: ServingEngine,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl DispatcherHandle {
    /// Signals the dispatcher thread to exit and joins it. A sleeping dispatcher is
    /// woken, so stop latency is bounded by one in-flight window.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the dispatcher thread (a window close can panic
    /// only if the session's engine state was already torn).
    pub fn stop(mut self) {
        if let Err(payload) = self.stop_and_join() {
            std::panic::resume_unwind(payload);
        }
    }

    fn stop_and_join(&mut self) -> std::thread::Result<()> {
        self.session.stop_dispatcher(&self.stop);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for DispatcherHandle {
    fn drop(&mut self) {
        let joined = self.stop_and_join();
        // Already unwinding: still stop the thread, but swallow a join panic instead of
        // aborting the process with a double panic.
        if let Err(payload) = joined {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl ServingEngine {
    /// Spawns a background thread that owns this session's open window: it sleeps while
    /// nothing is parked, closes the open window whenever requests are parked and no
    /// window is executing, and repeats until the returned [`DispatcherHandle`] is
    /// stopped or dropped.
    ///
    /// With a dispatcher running, a request enqueued and then never touched (no further
    /// enqueues, no `wait`, no `flush`) still resolves as soon as the window ahead of it
    /// finishes. This is the production window owner (design notes in
    /// `engine/dispatcher.rs`); see
    /// [`ResponseHandle::wait_without_dispatch`](super::ResponseHandle::wait_without_dispatch),
    /// the passive wait that relies on it.
    ///
    /// Multiple dispatchers on one session are harmless (each window is closed once) but
    /// pointless — spawn one per session.
    pub fn spawn_dispatcher(&self) -> DispatcherHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let session = self.clone();
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("tasd-serving-dispatcher".to_string())
            .spawn(move || session.dispatch_until(&thread_stop))
            .expect("spawning the serving dispatcher thread");
        DispatcherHandle {
            session: self.clone(),
            stop,
            thread: Some(thread),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::batch::BatchRequest;
    use super::super::{Clock, ExecutionEngine, MockClock};
    use super::*;
    use crate::config::TasdConfig;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};
    use tasd_tensor::MatrixGenerator;

    /// Polls `ready` until it returns true or `limit` elapses; reports success.
    fn resolves_within(limit: Duration, mut ready: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < limit {
            if ready() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        ready()
    }

    fn request(gen: &mut MatrixGenerator) -> BatchRequest {
        BatchRequest::decomposed(
            Arc::new(gen.sparse_normal(16, 16, 0.5)),
            TasdConfig::parse("2:8").unwrap(),
            gen.normal(16, 2, 0.0, 1.0),
        )
    }

    #[test]
    fn dispatcher_resolves_a_parked_request_after_an_idle_spell() {
        // Regression: a 1 ms polling timer woke about 100 times in 100 ms of idleness.
        // The dispatcher sleeps until a window opens, then closes it at once.
        let mut gen = MatrixGenerator::seeded(0x71C4);
        let serving = ExecutionEngine::builder().serving();
        let dispatcher = serving.spawn_dispatcher();
        std::thread::sleep(Duration::from_millis(100));
        let handle = serving.enqueue(request(&mut gen));
        // Touch nothing: no further enqueue, no wait, no flush. The dispatcher alone
        // must close the window within bounded wall-clock.
        assert!(
            resolves_within(Duration::from_secs(10), || handle.is_ready()),
            "the dispatcher must close the parked window"
        );
        dispatcher.stop();
        let stats = serving.stats();
        assert_eq!(stats.windows, 1);
        assert_eq!(
            stats.ticks, 1,
            "one wake-up for one window after an idle spell"
        );
    }

    #[test]
    fn dispatcher_on_a_frozen_clock_still_resolves_a_lone_request() {
        // Nothing reads time to close a window, so a session clock that never advances
        // delays nothing.
        let mut gen = MatrixGenerator::seeded(0x71C7);
        let engine = Arc::new(ExecutionEngine::builder().build());
        let serving = ServingEngine::over_with_clock(engine, Arc::new(MockClock::new()));
        let dispatcher = serving.spawn_dispatcher();
        let handle = serving.enqueue(request(&mut gen));
        assert!(
            resolves_within(Duration::from_secs(10), || handle.is_ready()),
            "the dispatcher must close the window without the clock moving"
        );
        assert!(handle.wait_without_dispatch().output.is_ok());
        dispatcher.stop();
    }

    #[test]
    fn dispatcher_on_an_idle_session_never_wakes() {
        let serving = ExecutionEngine::builder().serving();
        let dispatcher = serving.spawn_dispatcher();
        std::thread::sleep(Duration::from_millis(10));
        dispatcher.stop();
        let stats = serving.stats();
        assert_eq!(stats.ticks, 0, "no open window, nothing to close");
        assert_eq!(stats.windows, 0, "an empty window never dispatches");
    }

    #[test]
    fn dispatcher_stops_promptly_and_drop_joins() {
        let mut gen = MatrixGenerator::seeded(0x71C5);
        let serving = ExecutionEngine::builder().serving();
        let dispatcher = serving.spawn_dispatcher();
        // An idle dispatcher sleeps with no timeout at all; stop must wake it, not wait
        // for traffic.
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        dispatcher.stop();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "stop must interrupt the dispatcher's sleep"
        );
        let parked = serving.enqueue(request(&mut gen));
        assert!(!parked.is_ready(), "a stopped dispatcher closes no window");
        // A second dispatcher on the same session spawns, and dropping it joins it.
        let again = serving.spawn_dispatcher();
        let stop = Arc::clone(&again.stop);
        drop(again);
        assert!(stop.load(Ordering::Acquire));
        assert!(parked.wait().output.is_ok());
    }

    /// A clock that fails on the dispatcher thread once armed. The dispatcher's only
    /// clock read is the deadline filter of the window it closes.
    #[derive(Debug, Default)]
    struct DispatcherFailingClock {
        armed: AtomicBool,
        fired: AtomicBool,
    }

    impl Clock for DispatcherFailingClock {
        fn now(&self) -> Duration {
            let dispatcher = std::thread::current().name() == Some("tasd-serving-dispatcher");
            if dispatcher && self.armed.load(Ordering::Acquire) {
                self.fired.store(true, Ordering::Release);
                panic!("clock failed on the dispatcher thread");
            }
            Duration::ZERO
        }
    }

    #[test]
    fn stop_re_raises_a_dispatcher_thread_panic() {
        let clock = Arc::new(DispatcherFailingClock::default());
        let engine = Arc::new(ExecutionEngine::builder().build());
        let serving = ServingEngine::over_with_clock(engine, clock.clone());
        let dispatcher = serving.spawn_dispatcher();
        clock.armed.store(true, Ordering::Release);
        // Opening a window wakes the dispatcher, whose window close reads the clock and
        // panics. The dispatcher checks `stop` before it closes a window, so let the
        // panic happen before stopping it.
        let parked = serving.enqueue(request(&mut MatrixGenerator::seeded(0x71C6)));
        assert!(resolves_within(Duration::from_secs(10), || clock
            .fired
            .load(Ordering::Acquire)));
        let stopped = std::panic::catch_unwind(AssertUnwindSafe(|| dispatcher.stop()));
        assert!(
            stopped.is_err(),
            "the dispatcher's panic must reach its owner"
        );
        // The panic unwound under the dispatch lock, so the session fails loudly from
        // here on, naming that lock, rather than hanging its waiters.
        let served = std::panic::catch_unwind(AssertUnwindSafe(|| parked.wait()));
        let payload = served.expect_err("a poisoned dispatch lock must not serve");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("dispatch lock"), "{message}");
    }
}
