//! Offline stand-in for `parking_lot`, implemented over `std::sync`.
//!
//! Exposes the poison-free API surface the runtime uses: [`Mutex::lock`]
//! returning a guard directly, and [`Condvar::wait`] /
//! [`Condvar::wait_until`] / [`Condvar::wait_for`] taking
//! `&mut MutexGuard`. Poisoned std locks are transparently recovered
//! (parking_lot has no poisoning).

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// A mutual-exclusion lock without poisoning.
pub struct Mutex<T>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]; releases the lock on drop.
///
/// The inner `Option` is always `Some` except transiently inside a
/// condvar wait, where ownership moves through the std API.
pub struct MutexGuard<'a, T> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` iff the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl<T> Mutex<T> {
    /// Wraps a value in a mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable paired with [`Mutex`].
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Blocks until notified or `timeout` has elapsed.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present outside wait");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    /// Blocks until notified or the `deadline` instant is reached.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
