//! Bounded instance pools for stateless session beans.
//!
//! The container checks an instance out for the duration of each business
//! call and returns it afterwards; when every instance is busy, callers
//! block until one is free (up to the pool bound, instances are created
//! lazily). This is the classic stateless-session-bean lifecycle and the
//! part of the J2EE dispatch model that differs most from an ORB's shared
//! servants.

use crate::bean::SessionBean;
use causeway_core::sync::{Condvar, Mutex};
use std::sync::Arc;

type Factory = Arc<dyn Fn() -> Box<dyn SessionBean> + Send + Sync>;

struct PoolState {
    idle: Vec<Box<dyn SessionBean>>,
    created: usize,
}

/// A bounded, lazily filled pool of bean instances.
pub struct InstancePool {
    factory: Factory,
    max: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl std::fmt::Debug for InstancePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("InstancePool")
            .field("max", &self.max)
            .field("created", &state.created)
            .field("idle", &state.idle.len())
            .finish()
    }
}

impl InstancePool {
    /// Creates a pool producing instances with `factory`, bounded at `max`
    /// concurrent instances (minimum 1).
    pub fn new(max: usize, factory: Factory) -> InstancePool {
        InstancePool {
            factory,
            max: max.max(1),
            state: Mutex::new(PoolState { idle: Vec::new(), created: 0 }),
            available: Condvar::new(),
        }
    }

    /// Checks an instance out, creating one lazily or blocking until a busy
    /// instance returns.
    pub fn checkout(&self) -> Box<dyn SessionBean> {
        let mut state = self.state.lock();
        loop {
            if let Some(instance) = state.idle.pop() {
                return instance;
            }
            if state.created < self.max {
                state.created += 1;
                drop(state);
                return (self.factory)();
            }
            state = self.available.wait(state);
        }
    }

    /// Returns an instance to the pool.
    pub fn checkin(&self, instance: Box<dyn SessionBean>) {
        let mut state = self.state.lock();
        state.idle.push(instance);
        drop(state);
        self.available.notify_one();
    }

    /// Instances created so far.
    pub fn created(&self) -> usize {
        self.state.lock().created
    }

    /// Instances currently idle.
    pub fn idle(&self) -> usize {
        self.state.lock().idle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bean::{BeanCtx, FnBean};
    use causeway_core::ids::MethodIndex;
    use causeway_core::value::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn counter_pool(max: usize) -> (Arc<InstancePool>, Arc<AtomicUsize>) {
        let created = Arc::new(AtomicUsize::new(0));
        let created2 = Arc::clone(&created);
        let pool = Arc::new(InstancePool::new(
            max,
            Arc::new(move || {
                created2.fetch_add(1, Ordering::SeqCst);
                Box::new(FnBean::new(0u64, |state, _, _, _| {
                    *state += 1;
                    Ok(Value::I64(*state as i64))
                }))
            }),
        ));
        (pool, created)
    }

    #[test]
    fn instances_are_created_lazily_and_reused() {
        let (pool, created) = counter_pool(4);
        assert_eq!(created.load(Ordering::SeqCst), 0);
        let a = pool.checkout();
        assert_eq!(created.load(Ordering::SeqCst), 1);
        pool.checkin(a);
        let b = pool.checkout();
        assert_eq!(created.load(Ordering::SeqCst), 1, "idle instance reused");
        pool.checkin(b);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn exhausted_pool_blocks_until_checkin() {
        let (pool, _) = counter_pool(1);
        let instance = pool.checkout();
        let pool2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let instance = pool2.checkout();
            pool2.checkin(instance);
            true
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "second checkout must block");
        pool.checkin(instance);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn pool_bound_is_respected_under_concurrency() {
        let (pool, created) = counter_pool(3);
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut instance = pool.checkout();
                    std::thread::sleep(Duration::from_millis(5));
                    // Exercise `&mut self` state while checked out.
                    let ctx = BeanCtx::new(
                        crate::container::EjbClient::detached(),
                        causeway_core::ids::ObjectId(0),
                    );
                    let _ = instance.business(&ctx, MethodIndex(0), vec![]);
                    pool.checkin(instance);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(created.load(Ordering::SeqCst) <= 3, "bound respected");
        assert_eq!(pool.idle(), pool.created());
    }
}
