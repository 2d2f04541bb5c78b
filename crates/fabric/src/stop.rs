//! A stop flag that threads can sleep on.
//!
//! Server loops (heartbeats, expiry sweeps, retry back-off) wait between
//! rounds. Sleeping blindly makes shutdown take as long as the longest
//! wait; waiting on this signal instead ends the wait the moment
//! [`StopSignal::stop`] is called.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
pub struct StopSignal {
    /// Read lock-free by per-request checks; written, and re-read by
    /// waiters, under `waiters` so a wake-up cannot be missed.
    stopped: AtomicBool,
    waiters: Mutex<()>,
    wake: Condvar,
}

impl StopSignal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the flag and wakes every waiter. Idempotent.
    pub fn stop(&self) {
        let _waiters = self.waiters.lock();
        self.stopped.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Waits for `timeout`, or less if stopped meanwhile. Returns
    /// whether the signal is stopped, so loops read
    /// `while !stop.wait_timeout(interval) { .. }`.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut waiters = self.waiters.lock();
        while !self.is_stopped() && !self.wake.wait_until(&mut waiters, deadline).timed_out() {}
        self.is_stopped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_runs_its_full_timeout_when_nobody_stops() {
        let stop = StopSignal::new();
        let t = Instant::now();
        assert!(!stop.wait_timeout(Duration::from_millis(20)));
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert!(!stop.is_stopped());
    }

    #[test]
    fn stop_ends_a_long_wait_at_once() {
        let stop = Arc::new(StopSignal::new());
        let waiter = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let t = Instant::now();
                let stopped = stop.wait_timeout(Duration::from_secs(30));
                (stopped, t.elapsed())
            })
        };
        stop.stop();
        let (stopped, waited) = waiter.join().unwrap();
        assert!(stopped);
        assert!(waited < Duration::from_secs(10), "waited {waited:?}");
        // Later waits return immediately.
        assert!(stop.wait_timeout(Duration::from_secs(30)));
    }
}
