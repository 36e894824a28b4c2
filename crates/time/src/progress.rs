//! Progress heartbeats and run limits for supervised runs.
//!
//! A long experiment is *loss-limited on the host side*: the hardware
//! model never wedges, but the harness around it can (a livelocked
//! component scheduling zero-delay events forever, a control channel
//! that swallows every barrier). The dispatch loop publishes the
//! simulated time it has reached into a [`ProgressProbe`] every few
//! dozen events, and that same beat checks the probe's limits on the
//! dispatch thread itself — no watcher thread polls it:
//!
//! - **stall** — the time mark has stayed flat for the stall timeout of
//!   wall time; dispatching events without advancing virtual time is a
//!   livelock, not progress;
//! - **sim limit** — the time mark has passed a simulated-time budget;
//! - **wall deadline** — a wall-clock deadline has passed.
//!
//! The first limit to fire is recorded as the probe's [`Verdict`],
//! which is also its cooperative **abort flag**: the dispatch loop stops
//! at the same beat, so a wedged or over-budget run becomes a journaled
//! `RunAborted` partial report instead of a hung CI job. A sim-limit
//! verdict fires at a beat, whose place in the event stream is fixed,
//! so it names the same time mark on every run. A probe with no limits
//! set only publishes the mark.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The limit that stopped a run, with where its time mark stood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The mark stood at `at_ps` for `flat_for` of wall time.
    Stall {
        /// The simulated time (ps) the run was stuck at.
        at_ps: u64,
        /// How long the mark had been flat when the beat saw it.
        flat_for: Duration,
    },
    /// The mark reached `at_ps`, past the sim limit `limit_ps`.
    SimLimit {
        /// The simulated time (ps) of the beat that passed the limit.
        at_ps: u64,
        /// The limit that was set.
        limit_ps: u64,
    },
    /// The wall deadline passed with the mark at `at_ps`.
    WallDeadline {
        /// The simulated time (ps) of the beat that saw the deadline.
        at_ps: u64,
    },
}

impl Verdict {
    /// The limit's name as abort reasons spell it: `watchdog` (stall),
    /// `sim-budget` or `wall-deadline`.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Stall { .. } => "watchdog",
            Verdict::SimLimit { .. } => "sim-budget",
            Verdict::WallDeadline { .. } => "wall-deadline",
        }
    }
}

impl std::fmt::Display for Verdict {
    /// What the beat saw; [`Verdict::tag`] names the limit.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Stall { at_ps, flat_for } => write!(
                f,
                "made no simulated-time progress for {flat_for:?} (stuck at {at_ps} ps)"
            ),
            Verdict::SimLimit { at_ps, limit_ps } => {
                write!(f, "reached {at_ps} ps, past its limit of {limit_ps} ps")
            }
            Verdict::WallDeadline { at_ps } => write!(f, "passed at simulated {at_ps} ps"),
        }
    }
}

/// What the beat checks; set before the run, read on the dispatch
/// thread.
#[derive(Debug, Default)]
struct Limits {
    stall_timeout: Option<Duration>,
    sim_limit_ps: Option<u64>,
    deadline: Option<Instant>,
    /// When a beat first saw the mark where it stands; `None` while the
    /// mark moves.
    flat_since: Option<Instant>,
}

/// The heartbeat an event dispatcher (the simulation kernel's run loop)
/// publishes, the limits it is checked against, and the verdict that
/// asks the run to stop. Shared behind an [`Arc`] between the run and
/// whoever reads the outcome.
#[derive(Debug, Default)]
pub struct ProgressProbe {
    /// High-water mark of simulated time reached, in picoseconds.
    now_ps: AtomicU64,
    /// Whether any limit is set: the whole cost of an unlimited beat.
    limited: AtomicBool,
    limits: Mutex<Limits>,
    verdict: OnceLock<Verdict>,
}

impl ProgressProbe {
    /// A fresh probe with no limits, behind an [`Arc`], ready to be
    /// attached to a simulation.
    pub fn new() -> Arc<Self> {
        Arc::new(ProgressProbe::default())
    }

    /// Publish that the dispatcher has reached simulated time `ps`, and
    /// check the limits. Monotone (`fetch_max`): the mark stays a
    /// high-water mark.
    #[inline]
    pub fn advance_time(&self, ps: u64) {
        let prev = self.now_ps.fetch_max(ps, Ordering::Relaxed);
        if self.limited.load(Ordering::Relaxed) {
            self.check(prev.max(ps), ps > prev);
        }
    }

    // Out of line: the inlined beat of an unlimited probe stays one
    // load and one branch.
    #[cold]
    fn check(&self, at_ps: u64, moved: bool) {
        if self.verdict.get().is_some() {
            return;
        }
        let mut l = self.limits.lock().unwrap_or_else(PoisonError::into_inner);
        let verdict = if let Some(limit_ps) = l.sim_limit_ps.filter(|&limit| at_ps > limit) {
            Some(Verdict::SimLimit { at_ps, limit_ps })
        } else if l.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Verdict::WallDeadline { at_ps })
        } else if let Some(timeout) = l.stall_timeout {
            if moved {
                l.flat_since = None;
                None
            } else {
                let since = *l.flat_since.get_or_insert_with(Instant::now);
                let flat_for = since.elapsed();
                (flat_for >= timeout).then_some(Verdict::Stall { at_ps, flat_for })
            }
        } else {
            None
        };
        if let Some(v) = verdict {
            let _ = self.verdict.set(v);
        }
    }

    fn set(&self, f: impl FnOnce(&mut Limits)) {
        f(&mut self.limits.lock().unwrap_or_else(PoisonError::into_inner));
        self.limited.store(true, Ordering::Relaxed);
    }

    /// Abort once the time mark stays flat for `timeout` of wall time.
    pub fn set_stall_timeout(&self, timeout: Duration) {
        self.set(|l| l.stall_timeout = Some(timeout));
    }

    /// Abort once the time mark passes `ps`.
    pub fn set_sim_limit_ps(&self, ps: u64) {
        self.set(|l| l.sim_limit_ps = Some(ps));
    }

    /// Abort at the first beat after `deadline`.
    pub fn set_deadline(&self, deadline: Instant) {
        self.set(|l| l.deadline = Some(deadline));
    }

    /// Simulated-time high-water mark, picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.now_ps.load(Ordering::Relaxed)
    }

    /// The limit that fired, if one did.
    pub fn verdict(&self) -> Option<Verdict> {
        self.verdict.get().copied()
    }

    /// True once a limit has fired: the dispatch loop stops at its next
    /// heartbeat.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.verdict.get().is_some()
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
    fn an_unlimited_probe_never_fires() {
        let p = ProgressProbe::new();
        for _ in 0..1000 {
            p.advance_time(7);
        }
        p.advance_time(u64::MAX);
        assert!(!p.abort_requested());
        assert_eq!(p.verdict(), None);
    }

    #[test]
    fn sim_limit_fires_at_the_first_beat_past_it() {
        let p = ProgressProbe::new();
        p.set_sim_limit_ps(1_000);
        p.advance_time(1_000);
        assert!(!p.abort_requested(), "reaching the limit is within it");
        p.advance_time(1_064);
        p.advance_time(2_000);
        assert!(p.abort_requested());
        assert_eq!(
            p.verdict(),
            Some(Verdict::SimLimit {
                at_ps: 1_064,
                limit_ps: 1_000
            }),
            "the first limit to fire stays the verdict"
        );
        assert_eq!(p.verdict().unwrap().tag(), "sim-budget");
    }

    #[test]
    fn a_flat_mark_stalls_and_a_moving_one_does_not() {
        let p = ProgressProbe::new();
        p.set_stall_timeout(Duration::from_millis(20));
        let start = Instant::now();
        let mut ps = 0;
        while start.elapsed() < Duration::from_millis(60) {
            ps += 1;
            p.advance_time(ps);
        }
        assert!(!p.abort_requested(), "a moving mark is progress");
        while !p.abort_requested() {
            assert!(start.elapsed() < Duration::from_secs(10), "never stalled");
            p.advance_time(ps);
        }
        match p.verdict() {
            Some(Verdict::Stall { at_ps, flat_for }) => {
                assert_eq!(at_ps, ps);
                assert!(flat_for >= Duration::from_millis(20));
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        assert_eq!(p.verdict().unwrap().tag(), "watchdog");
    }

    #[test]
    fn a_passed_deadline_fires_at_the_next_beat() {
        let p = ProgressProbe::new();
        p.set_deadline(Instant::now() + Duration::from_secs(3600));
        p.advance_time(5);
        assert!(!p.abort_requested());
        p.set_deadline(Instant::now());
        p.advance_time(6);
        assert_eq!(p.verdict(), Some(Verdict::WallDeadline { at_ps: 6 }));
        assert_eq!(p.verdict().unwrap().tag(), "wall-deadline");
    }
}
