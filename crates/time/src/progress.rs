//! Shared progress heartbeats for supervised runs.
//!
//! A long experiment is *loss-limited on the host side*: the hardware
//! model never wedges, but the harness around it can (a livelocked
//! component scheduling zero-delay events forever, a control channel
//! that swallows every barrier). The supervisor's watchdog detects those
//! by watching **simulated-time-advance counters**: every event
//! dispatcher publishes the simulated time it has reached into a
//! [`ProgressProbe`], and a monitor thread declares the run wedged when
//! that high-water mark stops moving in wall-clock time — dispatching
//! events without advancing virtual time is a livelock, not progress.
//!
//! The probe also carries the cooperative **abort flag**: the watchdog
//! (or any other supervisor policy) raises it, and the dispatch loops
//! check it between events and return early, so a wedged run becomes a
//! journaled `RunAborted` partial report instead of a hung CI job.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A set of shared counters exported by an event dispatcher (the
/// simulation kernel's run loop, or the OFLOPS controller's control
/// channel) and observed by a watchdog
/// thread. All operations are lock-free; writers use relaxed-ordering
/// atomics because the watchdog only needs *eventual* visibility.
#[derive(Default)]
pub struct ProgressProbe {
    /// High-water mark of simulated time reached, in picoseconds.
    now_ps: AtomicU64,
    /// Monotone count of dispatched events / handled messages. Not a
    /// liveness signal (a livelock keeps ticking) — diagnostic detail
    /// for the `last_progress` field of an abort report.
    ticks: AtomicU64,
    /// Cooperative cancellation flag.
    abort: AtomicBool,
}

impl ProgressProbe {
    /// A fresh probe behind an [`Arc`], ready to be attached to a
    /// simulation and handed to a watchdog.
    pub fn new() -> Arc<Self> {
        Arc::new(ProgressProbe::default())
    }

    /// Publish that the dispatcher has reached simulated time `ps`.
    /// Monotone (`fetch_max`): the mark stays a high-water mark
    /// whichever of the dispatchers sharing the probe (a testbed's run
    /// loop and its controller) publishes last.
    #[inline]
    pub fn advance_time(&self, ps: u64) {
        self.now_ps.fetch_max(ps, Ordering::Relaxed);
    }

    /// Count one dispatched event / handled message.
    #[inline]
    pub fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` dispatched events at once (batch dispatch).
    #[inline]
    pub fn tick_by(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Simulated-time high-water mark, picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.now_ps.load(Ordering::Relaxed)
    }

    /// Events dispatched so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Raise the cooperative abort flag. Idempotent; never blocks.
    pub fn request_abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// True once [`ProgressProbe::request_abort`] has been called.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ProgressProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressProbe")
            .field("now_ps", &self.now_ps())
            .field("ticks", &self.ticks())
            .field("abort", &self.abort_requested())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mark_is_monotone() {
        let p = ProgressProbe::new();
        p.advance_time(100);
        p.advance_time(50);
        assert_eq!(p.now_ps(), 100);
        p.advance_time(150);
        assert_eq!(p.now_ps(), 150);
    }

    #[test]
    fn ticks_accumulate() {
        let p = ProgressProbe::new();
        p.tick();
        p.tick_by(9);
        assert_eq!(p.ticks(), 10);
    }

    #[test]
    fn abort_flag_latches() {
        let p = ProgressProbe::new();
        assert!(!p.abort_requested());
        p.request_abort();
        p.request_abort();
        assert!(p.abort_requested());
    }

    #[test]
    fn probe_is_shared_across_threads() {
        let p = ProgressProbe::new();
        let q = p.clone();
        let t = std::thread::spawn(move || {
            for i in 0..1000 {
                q.advance_time(i);
                q.tick();
            }
            q.request_abort();
        });
        t.join().unwrap();
        assert_eq!(p.now_ps(), 999);
        assert_eq!(p.ticks(), 1000);
        assert!(p.abort_requested());
    }
}
