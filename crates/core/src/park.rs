//! Threads that park for reuse instead of exiting.
//!
//! An HTTP server that dedicates a thread to each connection pays a spawn
//! per connection unless its threads outlive their work (ORB request
//! threads wait on their inbox instead). A [`ParkLot`] is where they wait:
//! a thread that has finished its work parks, the dispatching thread hands
//! each new job to the thread parked last and spawns a thread only when
//! none waits. At most [`MAX_PARKED`] threads park at once and a thread
//! that finds the lot full exits, so a burst leaves no pool behind.
//!
//! [`ParkLot::stop`] wins over [`ParkLot::park`]: both take the lot's lock,
//! so a thread that finishes its work after the stop never parks, and a
//! thread parked before it finds its hand-off channel disconnected.
//!
//! # Example
//!
//! ```
//! use causeway_core::park::ParkLot;
//! let lot = ParkLot::new();
//! assert_eq!(lot.hand_off(1), Err(1), "no thread parked: spawn one");
//! let next = lot.park().expect("room in the lot");
//! assert_eq!(lot.hand_off(2), Ok(()));
//! assert_eq!(next.recv(), Ok(2));
//! lot.stop();
//! assert!(lot.park().is_none(), "stop wins over park");
//! ```

use crate::sync::Mutex;
use crossbeam::channel::{Receiver, Sender, bounded};

/// Most threads parked in one lot at once; a thread that finds this many
/// already parked exits instead.
pub const MAX_PARKED: usize = 4;

/// The parked threads of one server: their hand-off senders, last parked
/// on top, and whether the server has stopped.
pub struct ParkLot<T> {
    inner: Mutex<Lot<T>>,
}

struct Lot<T> {
    parked: Vec<Sender<T>>,
    stopped: bool,
}

impl<T> Default for ParkLot<T> {
    fn default() -> Self {
        ParkLot { inner: Mutex::new(Lot { parked: Vec::new(), stopped: false }) }
    }
}

impl<T> std::fmt::Debug for ParkLot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lot = self.inner.lock();
        f.debug_struct("ParkLot")
            .field("parked", &lot.parked.len())
            .field("stopped", &lot.stopped)
            .finish()
    }
}

impl<T> ParkLot<T> {
    /// An empty, running lot.
    pub fn new() -> ParkLot<T> {
        ParkLot::default()
    }

    /// Hands `job` to the thread parked last. Gives the job back when no
    /// thread is parked (the caller spawns one); a thread that exited
    /// after parking is skipped.
    ///
    /// # Errors
    ///
    /// Returns `job` when no parked thread took it.
    pub fn hand_off(&self, mut job: T) -> Result<(), T> {
        loop {
            let Some(parked) = self.inner.lock().parked.pop() else {
                return Err(job);
            };
            match parked.send(job) {
                Ok(()) => return Ok(()),
                Err(returned) => job = returned.0,
            }
        }
    }

    /// Parks the calling thread: returns the channel its next job arrives
    /// on, or `None` when the lot has stopped or is full and the thread
    /// should exit. The channel disconnects when the lot stops or drops.
    pub fn park(&self) -> Option<Receiver<T>> {
        let mut lot = self.inner.lock();
        if lot.stopped || lot.parked.len() >= MAX_PARKED {
            return None;
        }
        let (handoff, next) = bounded(1);
        lot.parked.push(handoff);
        Some(next)
    }

    /// Stops the lot: every parked thread's channel disconnects and no
    /// thread parks from now on. Idempotent.
    pub fn stop(&self) {
        let mut lot = self.inner.lock();
        lot.stopped = true;
        lot.parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lot_holds_at_most_max_parked_threads() {
        let lot = ParkLot::<u32>::new();
        let parked: Vec<_> = (0..MAX_PARKED).map(|_| lot.park().expect("room")).collect();
        assert!(lot.park().is_none(), "a full lot turns the next thread away");
        // Last parked, first served.
        assert_eq!(lot.hand_off(7), Ok(()));
        assert_eq!(parked[MAX_PARKED - 1].try_recv(), Ok(7));
        assert!(lot.park().is_some(), "a hand-off frees a place");
    }

    #[test]
    fn a_thread_gone_since_it_parked_is_skipped() {
        let lot = ParkLot::<u32>::new();
        let alive = lot.park().expect("room");
        drop(lot.park().expect("room"));
        assert_eq!(lot.hand_off(3), Ok(()));
        assert_eq!(alive.try_recv(), Ok(3));
        assert_eq!(lot.hand_off(4), Err(4), "nobody left");
    }

    #[test]
    fn stop_disconnects_parked_threads_and_wins_over_park() {
        let lot = ParkLot::<u32>::new();
        let parked = lot.park().expect("room");
        lot.stop();
        assert!(parked.recv().is_err(), "a parked thread is released by the stop");
        assert!(lot.park().is_none(), "no thread parks after the stop");
        assert_eq!(lot.hand_off(1), Err(1));
    }
}
