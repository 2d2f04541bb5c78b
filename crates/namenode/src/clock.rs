//! Where the namenode reads the time: the process clock on the
//! emulator, or the virtual µs of a simulation that hosts it. Heartbeat
//! liveness, speed-record ageing and event stamps all follow it.

use smarth_core::obs::{Obs, ObsEvent, TraceCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The namenode's clock, in µs. Clones share one reading.
#[derive(Debug, Clone, Default)]
pub struct Clock(Option<Arc<AtomicU64>>);

impl Clock {
    /// The process clock, [`Obs::now_us`]: the emulator's.
    pub fn wall() -> Self {
        Clock(None)
    }

    /// A clock that reads what its caller last [`set`](Self::set) it
    /// to, starting at 0: a simulation's virtual time.
    pub fn manual() -> Self {
        Clock(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Moves a manual clock to `us`. It may move back: a simulation
    /// restarts its virtual time at every upload.
    pub fn set(&self, us: u64) {
        let t = self.0.as_ref().expect("only a manual clock is set");
        t.store(us, Ordering::Relaxed);
    }

    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Some(t) => t.load(Ordering::Relaxed),
            None => Obs::now_us(),
        }
    }

    /// Emits `event` stamped by this clock: in virtual time for a
    /// manual clock, in wall time otherwise.
    pub fn emit(&self, obs: &Obs, ctx: Option<TraceCtx>, event: ObsEvent) {
        match self.0 {
            Some(_) => obs.emit_virtual_traced(self.now_us(), ctx, event),
            None => obs.emit_traced(ctx, event),
        }
    }
}
