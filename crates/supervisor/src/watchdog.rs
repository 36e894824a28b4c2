//! # Deadline watchdog
//!
//! A livelocked component scheduling zero-delay timers and a stalled
//! control channel share one observable symptom: the run's
//! *simulated-time* high-water mark stops advancing while wall clock
//! keeps ticking. (Event counts are the wrong heartbeat — a
//! livelock happily dispatches events forever at a frozen virtual
//! time.)
//!
//! The watchdog is a small monitor thread that polls the
//! [`ProgressProbe`]s a run exports, remembers when each probe's
//! `now_ps` last changed, and — once one has been flat for longer than
//! the stall timeout — requests a cooperative abort. The dispatch loops
//! check the abort flag once per event, so the run winds down into a
//! `RunAborted` partial report instead of hanging CI until the
//! job-level timeout reaps it.
//!
//! Cancellation is scoped by **ownership**: probes are registered in
//! [`ProbeGroup`]s, each tagged with the session/worker that owns them.
//! A stall aborts only the owning group's probes — a runaway session on
//! a shared service must never take a sibling worker down with it. The
//! single-run entry points ([`Watchdog::spawn`],
//! [`Watchdog::spawn_in_phase`]) register all their probes as one group:
//! one probe stalling (a testbed's simulation, or its controller) aborts
//! the whole run, because the whole run is one owner.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use osnt_time::ProgressProbe;

/// Watchdog tuning.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// How long a probe's simulated time may stay flat (wall clock)
    /// before the run is declared stalled.
    pub stall_timeout: Duration,
    /// How often the monitor thread samples the probes.
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// A set of probes with one owner: the watchdog's unit of cancellation.
/// When any probe in the group stalls, *only this group's* probes get
/// the abort request; sibling groups keep running and keep being
/// monitored.
#[derive(Debug, Clone)]
pub struct ProbeGroup {
    /// Who owns these probes — a session id, worker name, or tenant.
    /// Threaded into the [`StallReport`] so escalation cancels the
    /// right session.
    pub owner: String,
    /// The probes, each with a display name for the report.
    pub probes: Vec<(String, Arc<ProgressProbe>)>,
}

/// What the watchdog observed when it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Name of the probe that went flat first.
    pub probe: String,
    /// Owner of the probe's group, when the watchdog was spawned with
    /// [`Watchdog::spawn_groups`] — names the session whose probes were
    /// cancelled (and *only* those).
    pub owner: Option<String>,
    /// Index of the supervisor phase the watchdog was guarding, if it
    /// was guarding one. Threaded from the supervisor's `PhaseCtx` so a
    /// stall that fires during *resume* still names the absolute phase
    /// (probe names alone lose it — they are per-spawn labels).
    pub phase_index: Option<u16>,
    /// Name of that phase, if known.
    pub phase: Option<String>,
    /// The simulated-time high-water mark (ps) it was stuck at.
    pub last_progress: u64,
    /// How long it had been flat when the watchdog fired.
    pub stalled_for: Duration,
}

impl StallReport {
    /// The human sentence journaled as the abort reason.
    pub fn reason(&self) -> String {
        let scope = match (&self.owner, self.phase_index, &self.phase) {
            (Some(owner), Some(i), Some(name)) => format!("session {owner}, phase {i} ({name}): "),
            (Some(owner), _, _) => format!("session {owner}: "),
            (None, Some(i), Some(name)) => format!("phase {i} ({name}): "),
            _ => String::new(),
        };
        format!(
            "watchdog: {scope}{} made no simulated-time progress for {:?} (stuck at {} ps)",
            self.probe, self.stalled_for, self.last_progress
        )
    }
}

struct Shared {
    stop: AtomicBool,
    reports: Mutex<Vec<StallReport>>,
}

/// Named probes under one owner, as the monitor thread receives them:
/// `(owner, [(probe name, probe)])`. The owner is `None` for the
/// single anonymous group of [`Watchdog::spawn`].
type OwnedProbes = (Option<String>, Vec<(String, Arc<ProgressProbe>)>);

/// A running watchdog. Dropping it without calling [`Watchdog::stop`]
/// detaches the monitor thread (it exits on its own once signalled or
/// when every group has fired); prefer `stop()` to join it and learn
/// whether it fired.
pub struct Watchdog {
    shared: Arc<Shared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start monitoring `probes` (each with a name for the abort
    /// report) as a single anonymous group. The monitor thread aborts
    /// **all** of them as soon as any one stalls — a run whose
    /// simulation and controller each publish a probe cannot half-abort.
    pub fn spawn(cfg: WatchdogConfig, probes: Vec<(String, Arc<ProgressProbe>)>) -> Self {
        Watchdog::spawn_inner(cfg, None, vec![(None, probes)])
    }

    /// [`Watchdog::spawn`] with the identity of the supervisor phase
    /// being guarded. The phase index/name land in the [`StallReport`]
    /// (and hence the journaled abort reason) so an operator reading a
    /// resumed run's abort record sees *which* phase wedged, not just
    /// which probe.
    pub fn spawn_in_phase(
        cfg: WatchdogConfig,
        phase_index: u16,
        phase: String,
        probes: Vec<(String, Arc<ProgressProbe>)>,
    ) -> Self {
        Watchdog::spawn_inner(cfg, Some((phase_index, phase)), vec![(None, probes)])
    }

    /// Monitor several independently-owned probe groups with one
    /// watchdog thread. A stall in one group aborts only that group's
    /// probes and records a [`StallReport`] naming the owner; the
    /// monitor keeps watching the surviving groups, so a second
    /// session can stall later and be cancelled too. Collect the full
    /// verdict with [`Watchdog::stop_all`].
    pub fn spawn_groups(cfg: WatchdogConfig, groups: Vec<ProbeGroup>) -> Self {
        Watchdog::spawn_inner(
            cfg,
            None,
            groups
                .into_iter()
                .map(|g| (Some(g.owner), g.probes))
                .collect(),
        )
    }

    fn spawn_inner(
        cfg: WatchdogConfig,
        phase: Option<(u16, String)>,
        groups: Vec<OwnedProbes>,
    ) -> Self {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            reports: Mutex::new(Vec::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("osnt-watchdog".into())
            .spawn(move || monitor(cfg, phase, groups, thread_shared))
            .expect("spawn watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Stop the monitor thread and return its verdict: `Some` if it
    /// detected a stall and requested an abort (the first one, under
    /// [`Watchdog::spawn_groups`]), `None` if the run finished on its
    /// own.
    pub fn stop(self) -> Option<StallReport> {
        self.stop_all().into_iter().next()
    }

    /// Stop the monitor thread and return every stall it detected, in
    /// firing order. Under [`Watchdog::spawn_groups`] each report names
    /// the owning group; the single-group spawns produce at most one.
    pub fn stop_all(mut self) -> Vec<StallReport> {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        std::mem::take(&mut *self.shared.reports.lock().unwrap())
    }

    /// Whether the watchdog has fired at least once (non-blocking;
    /// usable while the run is still executing).
    pub fn fired(&self) -> bool {
        !self.shared.reports.lock().unwrap().is_empty()
    }

    /// How many stalls have been detected so far (non-blocking).
    pub fn fired_count(&self) -> usize {
        self.shared.reports.lock().unwrap().len()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
        }
    }
}

struct GroupState {
    owner: Option<String>,
    probes: Vec<(String, Arc<ProgressProbe>)>,
    last_seen: Vec<(u64, Instant)>,
    fired: bool,
}

fn monitor(
    cfg: WatchdogConfig,
    phase: Option<(u16, String)>,
    groups: Vec<OwnedProbes>,
    shared: Arc<Shared>,
) {
    let mut states: Vec<GroupState> = groups
        .into_iter()
        .map(|(owner, probes)| {
            let last_seen = probes
                .iter()
                .map(|(_, p)| (p.now_ps(), Instant::now()))
                .collect();
            GroupState {
                owner,
                probes,
                last_seen,
                fired: false,
            }
        })
        .collect();
    while !shared.stop.load(Ordering::Acquire) {
        thread::park_timeout(cfg.poll_interval);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        for state in states.iter_mut().filter(|s| !s.fired) {
            for (i, (name, probe)) in state.probes.iter().enumerate() {
                let now_ps = probe.now_ps();
                let (seen_ps, seen_at) = &mut state.last_seen[i];
                if now_ps != *seen_ps {
                    *seen_ps = now_ps;
                    *seen_at = Instant::now();
                    continue;
                }
                let flat_for = seen_at.elapsed();
                if flat_for >= cfg.stall_timeout {
                    let report = StallReport {
                        probe: name.clone(),
                        owner: state.owner.clone(),
                        phase_index: phase.as_ref().map(|(i, _)| *i),
                        phase: phase.as_ref().map(|(_, n)| n.clone()),
                        last_progress: now_ps,
                        stalled_for: flat_for,
                    };
                    shared.reports.lock().unwrap().push(report);
                    // Cancellation stays inside the owning group: the
                    // stalled session's probes abort, siblings don't.
                    for (_, p) in &state.probes {
                        p.request_abort();
                    }
                    state.fired = true;
                    break;
                }
            }
        }
        if states.iter().all(|s| s.fired) {
            return; // every group is winding down; nothing left to watch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> WatchdogConfig {
        WatchdogConfig {
            stall_timeout: Duration::from_millis(60),
            poll_interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn advancing_probe_never_fires() {
        let probe = ProgressProbe::new();
        let dog = Watchdog::spawn(fast_cfg(), vec![("sim".into(), Arc::clone(&probe))]);
        let start = Instant::now();
        let mut ps = 0u64;
        while start.elapsed() < Duration::from_millis(200) {
            ps += 1_000;
            probe.advance_time(ps);
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dog.stop(), None);
        assert!(!probe.abort_requested());
    }

    #[test]
    fn flat_probe_fires_and_aborts_all() {
        let stuck = ProgressProbe::new();
        stuck.advance_time(777);
        let healthy = ProgressProbe::new();
        let dog = Watchdog::spawn(
            fast_cfg(),
            vec![
                ("sim".into(), Arc::clone(&healthy)),
                ("ctrl".into(), Arc::clone(&stuck)),
            ],
        );
        let start = Instant::now();
        let mut ps = 0u64;
        while !dog.fired() && start.elapsed() < Duration::from_secs(5) {
            ps += 1_000;
            healthy.advance_time(ps); // the simulation keeps making progress
            thread::sleep(Duration::from_millis(5));
        }
        let report = dog.stop().expect("watchdog must fire on the flat probe");
        assert_eq!(report.probe, "ctrl");
        assert_eq!(report.owner, None);
        assert_eq!(report.last_progress, 777);
        assert!(report.stalled_for >= Duration::from_millis(60));
        assert!(stuck.abort_requested(), "stalled probe aborted");
        assert!(
            healthy.abort_requested(),
            "same-group peer aborted too (one owner, one fate)"
        );
        assert!(report.reason().contains("ctrl"));
    }

    #[test]
    fn stalled_group_never_aborts_a_sibling_group() {
        // The multi-tenant regression: two sessions share one watchdog.
        // Session A wedges; session B keeps advancing. A's probes must
        // be cancelled, B's must NOT — and B must still be watched
        // afterwards (it stalls later and gets its own report).
        let a_sim = ProgressProbe::new();
        let a_ctrl = ProgressProbe::new();
        a_sim.advance_time(123);
        a_ctrl.advance_time(123);
        let b_sim = ProgressProbe::new();
        let dog = Watchdog::spawn_groups(
            fast_cfg(),
            vec![
                ProbeGroup {
                    owner: "session-a".into(),
                    probes: vec![
                        ("sim".into(), Arc::clone(&a_sim)),
                        ("control".into(), Arc::clone(&a_ctrl)),
                    ],
                },
                ProbeGroup {
                    owner: "session-b".into(),
                    probes: vec![("sim".into(), Arc::clone(&b_sim))],
                },
            ],
        );
        let start = Instant::now();
        let mut ps = 0u64;
        while !dog.fired() && start.elapsed() < Duration::from_secs(5) {
            ps += 1_000;
            b_sim.advance_time(ps); // session B stays healthy
            thread::sleep(Duration::from_millis(5));
        }
        assert!(dog.fired(), "session A's stall must be detected");
        assert!(a_sim.abort_requested(), "offending session cancelled");
        assert!(a_ctrl.abort_requested(), "all of A's probes cancelled");
        assert!(
            !b_sim.abort_requested(),
            "sibling session must NOT be cancelled by A's stall"
        );
        // Keep B healthy a little longer: still no cross-group abort.
        let hold = Instant::now();
        while hold.elapsed() < Duration::from_millis(100) {
            ps += 1_000;
            b_sim.advance_time(ps);
            thread::sleep(Duration::from_millis(5));
        }
        assert!(!b_sim.abort_requested());
        // Now B wedges too — the monitor survived A's stall and still
        // watches B, which gets its own report with its own owner.
        let start = Instant::now();
        while dog.fired_count() < 2 && start.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(5));
        }
        let reports = dog.stop_all();
        assert_eq!(reports.len(), 2, "both stalls reported: {reports:?}");
        assert_eq!(reports[0].owner.as_deref(), Some("session-a"));
        assert_eq!(reports[1].owner.as_deref(), Some("session-b"));
        assert!(b_sim.abort_requested(), "B cancelled for its own stall");
        assert!(
            reports[0].reason().contains("session-a"),
            "reason names the owner: {}",
            reports[0].reason()
        );
    }

    #[test]
    fn spawn_in_phase_threads_identity_into_the_report() {
        let stuck = ProgressProbe::new();
        stuck.advance_time(42);
        let dog = Watchdog::spawn_in_phase(
            fast_cfg(),
            3,
            "load-0.9000".into(),
            vec![("sim".into(), Arc::clone(&stuck))],
        );
        let start = Instant::now();
        while !dog.fired() && start.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(5));
        }
        let report = dog.stop().expect("watchdog must fire on the flat probe");
        assert_eq!(report.phase_index, Some(3));
        assert_eq!(report.phase.as_deref(), Some("load-0.9000"));
        let reason = report.reason();
        assert!(reason.contains("phase 3"), "reason was: {reason}");
        assert!(reason.contains("load-0.9000"), "reason was: {reason}");
        // The plain spawn keeps the unphased wording.
        assert!(!StallReport {
            probe: "sim".into(),
            owner: None,
            phase_index: None,
            phase: None,
            last_progress: 1,
            stalled_for: Duration::from_millis(60),
        }
        .reason()
        .contains("phase"));
    }

    #[test]
    fn stop_before_timeout_reports_nothing() {
        let probe = ProgressProbe::new();
        let dog = Watchdog::spawn(
            WatchdogConfig {
                stall_timeout: Duration::from_secs(3600),
                poll_interval: Duration::from_millis(5),
            },
            vec![("sim".into(), Arc::clone(&probe))],
        );
        thread::sleep(Duration::from_millis(20));
        assert_eq!(dog.stop(), None);
        assert!(!probe.abort_requested());
    }
}
