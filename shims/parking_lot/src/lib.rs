//! Offline stand-in for `parking_lot`, implemented over `std::sync`.
//!
//! Provides the panic-free-guard API shape (`lock()`/`read()`/`write()` return guards
//! directly, `Condvar::wait` takes `&mut MutexGuard`) that the communication substrate
//! uses. Lock poisoning is transparently ignored, matching parking_lot semantics: a
//! panicking worker thread already propagates its panic through the join of the driver
//! that spawned it.

use std::ops::{Deref, DerefMut};
use std::sync;

/// Mutex whose `lock` returns the guard directly.
pub struct Mutex<T>(sync::Mutex<T>);

/// Guard for [`Mutex`]. The inner option is only `None` transiently inside
/// [`Condvar::wait`].
pub struct MutexGuard<'a, T>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }
}

impl<'a, T> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard stolen during wait")
    }
}

impl<'a, T> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard stolen during wait")
    }
}

/// Condition variable compatible with [`MutexGuard`].
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Atomically release the guard's lock, block, and reacquire it.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard already waiting");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wake every waiting thread.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Reader-writer lock whose `read`/`write` return guards directly.
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, ignoring poisoning.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut guard = lock.lock();
            while !*guard {
                cv.wait(&mut guard);
            }
            *guard
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
