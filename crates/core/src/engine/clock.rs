//! Injectable time source for the serving layer: the one timeline for request
//! deadlines.
//!
//! Rather than reading [`Instant::now`] inline — which would make deadline behavior
//! untestable — a [`ServingEngine`](super::ServingEngine) session reads time through the
//! [`Clock`] it was constructed with: [`MonotonicClock`] in production, a stepped
//! [`MockClock`] in tests, so a test can expire a deadline by calling
//! [`MockClock::advance`] instead of sleeping.
//!
//! Time is a monotonic [`Duration`] from an arbitrary per-clock origin: only
//! differences are meaningful, and a deadline is an absolute instant on the same
//! clock's timeline (`clock.now() + budget`).

use super::sync::lock_or_panic;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonic time source the serving layer reads deadlines against.
///
/// Implementations must never go backwards. `now()` is an offset from an arbitrary
/// origin fixed at construction — compare instants from the same clock only.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// The production [`Clock`]: wall elapsed time from a pinned [`Instant`] origin.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    // lint: hot-path
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A deterministic, manually stepped [`Clock`] for tests: time stands still until
/// [`advance`](Self::advance) / [`set`](Self::set) move it. Share it with the session
/// under test via `Arc` and step it from the test body.
#[derive(Debug, Default)]
pub struct MockClock {
    state: Mutex<Duration>,
}

impl MockClock {
    /// A mock clock starting at zero.
    pub fn new() -> Self {
        MockClock::default()
    }

    /// Moves time forward by `delta`.
    pub fn advance(&self, delta: Duration) {
        let mut state = lock_or_panic(&self.state, "mock clock");
        *state += delta;
    }

    /// Jumps time to `now` (saturating: the clock never goes backwards).
    pub fn set(&self, now: Duration) {
        let mut state = lock_or_panic(&self.state, "mock clock");
        *state = now.max(*state);
    }
}

impl Clock for MockClock {
    fn now(&self) -> Duration {
        *lock_or_panic(&self.state, "mock clock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_moves_forward() {
        let clock = MonotonicClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_is_manually_stepped() {
        let clock = MockClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(3)); // never backwards
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(9));
        assert_eq!(clock.now(), Duration::from_millis(9));
    }
}
