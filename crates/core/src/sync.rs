//! The workspace's one lock policy: [`Mutex`], [`RwLock`] and [`Condvar`]
//! over `std::sync` that recover from poisoning.
//!
//! A thread that panics while holding a lock (a panicking servant, HTTP
//! handler or ingest thread) poisons it in std. Every lock here is held
//! only across short, self-consistent updates, so the inner state stays
//! usable: `lock`/`read`/`write`/`wait` hand back std's own guard either
//! way, and the first recovery in a process is logged once to stderr. No
//! caller sees a `PoisonError` and none has to choose a policy of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LockResult, RwLockReadGuard, RwLockWriteGuard};

pub use std::sync::MutexGuard;

/// Unwraps a lock result, taking the inner state out of a poisoned lock.
/// Logged once per process.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| {
        static WARNED: AtomicBool = AtomicBool::new(false);
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("causeway: a lock was poisoned by a panic; continuing with its inner state");
        }
        poisoned.into_inner()
    })
}

/// A mutual-exclusion lock whose [`lock`](Mutex::lock) never fails.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.0.lock())
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.0.into_inner())
    }
}

/// A reader-writer lock whose [`read`](RwLock::read) and
/// [`write`](RwLock::write) never fail.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }
}

/// A condition variable pairing with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard`'s mutex until notified, then reacquires it.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        recover(self.0.wait(guard))
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Runs `f`, which panics with a guard held (as a panicking servant or
    /// handler would), on a thread of its own.
    fn panic_in_thread(f: impl FnOnce() + Send + 'static) {
        assert!(thread::spawn(f).join().is_err(), "the thread panicked");
    }

    #[test]
    fn a_panic_while_holding_a_mutex_leaves_it_usable() {
        let m = Arc::new(Mutex::new(1u32));
        let held = Arc::clone(&m);
        panic_in_thread(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("deliberate panic with the guard held");
        });
        assert_eq!(*m.lock(), 2);
        *m.lock() += 1;
        assert_eq!(Arc::try_unwrap(m).expect("sole owner").into_inner(), 3);
    }

    #[test]
    fn a_panic_while_holding_a_write_guard_leaves_the_rwlock_usable() {
        let l = Arc::new(RwLock::new(vec![1]));
        let held = Arc::clone(&l);
        panic_in_thread(move || {
            let mut guard = held.write();
            guard.push(2);
            panic!("deliberate panic with the write guard held");
        });
        assert_eq!(*l.read(), vec![1, 2]);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn a_panic_while_a_thread_waits_on_the_condvar_leaves_it_usable() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let (lock, cvar) = &*pair;
        let mut state = lock.lock();
        let panicker = Arc::clone(&pair);
        // Blocks on the lock until the main thread waits, so the
        // notification cannot be missed.
        let handle = thread::spawn(move || {
            let mut state = panicker.0.lock();
            *state = 1;
            panicker.1.notify_all();
            panic!("deliberate panic with the guard held");
        });
        while *state == 0 {
            state = cvar.wait(state); // wakes on a poisoned mutex
        }
        assert_eq!(*state, 1);
        drop(state);
        assert!(handle.join().is_err(), "the notifier panicked");
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 2);
    }
}
