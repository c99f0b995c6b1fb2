//! Poison-propagating lock helpers.
//!
//! Every mutex in the engine is acquired through [`lock_or_panic`] (and every condvar
//! waited on through [`wait_or_panic`]) so that a worker-thread panic surfaces as an
//! actionable message naming the poisoned lock, instead of a bare
//! `PoisonError { .. }` unwrap. Poisoning is still fatal — a thread panicked while
//! holding engine state, so the state must be presumed torn — but the message now says
//! *which* lock and points at the original panic.
//!
//! These helpers are also what `tasd-lint`'s lock-order rule recognizes as acquisition
//! sites (see `lint.toml`); the generic `mutex` parameter below is registered there as
//! exempt so each *call site* is attributed to the concrete lock it names.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks `mutex`, panicking with a message naming `what` if the lock is poisoned.
pub(crate) fn lock_or_panic<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => panic!(
            "{what} lock is poisoned: a thread panicked while holding it \
             (see the panic above this one)"
        ),
    }
}

/// Waits on `cv`, panicking with a message naming `what` if the guarded lock was
/// poisoned while waiting.
pub(crate) fn wait_or_panic<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    what: &str,
) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(_) => panic!(
            "{what} lock was poisoned while a thread waited on its condvar \
             (see the panic above this one)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    #[test]
    fn poisoned_lock_panics_with_the_lock_name() {
        let mutex = Arc::new(Mutex::new(0u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().expect("fresh lock");
            panic!("poison it");
        })
        .join();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock_or_panic(&mutex, "test counter");
        }));
        let payload = result.expect_err("poisoned lock must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("test counter"),
            "panic must name the lock: {message}"
        );
    }

    #[test]
    fn healthy_lock_passes_through() {
        let mutex = Mutex::new(7u32);
        assert_eq!(*lock_or_panic(&mutex, "test counter"), 7);
    }
}
