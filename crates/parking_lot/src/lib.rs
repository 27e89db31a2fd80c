//! A local stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of parking_lot's API it actually uses:
//! [`Mutex`], [`RwLock`], and [`Condvar`] with parking_lot's ergonomics —
//! `lock()`/`read()`/`write()` return guards directly (a poisoned lock
//! panics, which is also what unwrapping std's `LockResult` would do),
//! and `Condvar::wait` takes the guard by `&mut` reference.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A mutual exclusion primitive (std-backed, panics on poison).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take the std guard out
    // (std's wait consumes the guard and returns a new one).
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { guard: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { guard: Some(e.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_deref_mut().expect("guard present outside Condvar::wait")
    }
}

/// A reader-writer lock (std-backed, panics on poison).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with [`Mutex`]/[`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    // std::sync::Condvar::new() is const, but keeping a flag mirrors
    // parking_lot's no-spurious-wakeup-after-notify guarantee loosely;
    // callers already loop on their predicate.
    _used: AtomicBool,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new(), _used: AtomicBool::new(false) }
    }

    /// Block until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self._used.store(true, Ordering::Relaxed);
        let g = guard.guard.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(g);
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        let timeout = deadline.saturating_duration_since(now);
        self.wait_for(guard, timeout)
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard present");
        let (g, res) = self.inner.wait_timeout(g, timeout).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(g);
        WaitTimeoutResult { timed_out: res.timed_out() }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }
}
