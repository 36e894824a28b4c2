//! The run service: a bounded worker pool executing admitted sessions
//! under the supervisor, with per-session quota escalation, crash
//! retry, and a conservation ledger.
//!
//! ## Threading model
//!
//! Everything shared lives behind one mutex (`State`); the pieces that
//! block are condvars. There is no async runtime — exactly `workers` OS
//! threads pull sessions from the [`Scheduler`] (picks are serialised
//! under the lock, so dispatch *order* is a pure function of the
//! submission sequence even with a racing pool). No other thread runs.
//!
//! ## Cancellation is per session
//!
//! A session's quotas travel on its own phases' progress probes: each
//! phase's probe carries what is left of the sim budget as its sim
//! limit and the session's wall deadline, and the phase's dispatch loop
//! checks them at every heartbeat on the worker thread running it. An
//! over-quota session therefore stops itself; a sibling session on the
//! next worker has its own probes and never feels it (pinned by
//! `tests/service_sessions.rs`). A sim-budget abort lands on a fixed
//! heartbeat, so its journaled reason is the same on every run.
//!
//! ## Crash retry and at-most-once publication
//!
//! A worker crash (the supervisor's SIGKILL-equivalent
//! `CrashInjected`) re-queues the session after a decorrelated-jitter
//! backoff; the retry *resumes* from the session's journal, so the
//! re-run replays completed phases and its report is byte-identical to
//! an uninterrupted run. Publication happens on the terminal
//! transition, which is guarded to fire at most once per session no
//! matter how many attempts raced to finish it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use osnt_chaos::{InvariantAuditor, SessionCounts};
use osnt_core::sweep::fault_counters;
use osnt_core::{render_report, LatencyExperiment, LatencyReport};
use osnt_error::OsntError;
use osnt_supervisor::{journal, PhaseCtx, Supervisor, SupervisorConfig};
use osnt_time::DriftModel;

use crate::scheduler::{AdmitDecision, Queued, Scheduler};
use crate::session::{Admission, SessionId, SessionOutcome, SessionRecord, SessionSpec};

/// Service tuning. The defaults are sized for tests and the e16 bench
/// (small backoffs); a long-lived deployment would raise them.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker pool size (≥ 1): the concurrency bound.
    pub workers: usize,
    /// Global queued-session bound (admission control).
    pub queue_cap: usize,
    /// Per-tenant queued-session bound.
    pub tenant_queue_cap: usize,
    /// Directory for session journals (created if missing). Every
    /// session journals to `spool/s{id}.journal`; crash retries resume
    /// from there.
    pub spool: PathBuf,
    /// Service seed: drives the crash-retry backoff jitter. The whole
    /// service's retry timing is a pure function of
    /// `(seed, session id, attempt)`.
    pub seed: u64,
    /// Crash-retry backoff floor. Decorrelated jitter draws from
    /// `[base, 3·prev]`, capped at `base · 2⁸`.
    pub retry_base: Duration,
    /// Total dispatch attempts per session (first + crash retries).
    pub max_attempts: u32,
    /// Per-session cost estimate used for the honest
    /// `Rejected{retry_after}`: backlog ahead ÷ workers × this.
    pub est_session_cost: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let mut spool = std::env::temp_dir();
        spool.push(format!("osnt-service-{}", std::process::id()));
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            tenant_queue_cap: 32,
            spool,
            seed: 1,
            retry_base: Duration::from_millis(2),
            max_attempts: 4,
            est_session_cost: Duration::from_millis(20),
        }
    }
}

#[derive(Debug)]
struct RetryEntry {
    ready_at: Instant,
    entry: Queued,
}

#[derive(Default)]
struct State {
    scheduler: Option<Scheduler>,
    counts: SessionCounts,
    next_id: SessionId,
    running: usize,
    paused: bool,
    shutdown: bool,
    retries: Vec<RetryEntry>,
    finished: HashMap<SessionId, SessionRecord>,
    publications: Vec<(SessionId, String)>,
    dispatch_log: Vec<SessionId>,
}

impl State {
    fn scheduler(&mut self) -> &mut Scheduler {
        self.scheduler
            .as_mut()
            .expect("scheduler initialised in new()")
    }

    /// The one terminal transition. Guarded: a session that already
    /// has a terminal record keeps it — the second caller is dropped
    /// on the floor, which is what makes publication (and the ledger)
    /// at-most-once even if attempts ever raced.
    fn finish(&mut self, record: SessionRecord) {
        if self.finished.contains_key(&record.id) {
            return;
        }
        match &record.outcome {
            SessionOutcome::Completed => {
                self.counts.completed += 1;
                if let Some(report) = &record.report {
                    self.counts.published += 1;
                    self.publications.push((record.id, report.clone()));
                }
            }
            SessionOutcome::Shed { .. } => self.counts.shed += 1,
            SessionOutcome::Failed { .. } => self.counts.failed += 1,
        }
        self.finished.insert(record.id, record);
    }

    /// True when every admitted session has reached a terminal state.
    fn drained(&self) -> bool {
        self.scheduler.as_ref().map_or(0, Scheduler::queued_total) == 0
            && self.retries.is_empty()
            && self.running == 0
    }

    fn earliest_retry(&self) -> Option<Instant> {
        self.retries.iter().map(|r| r.ready_at).min()
    }
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Workers park here for dispatchable work.
    work_cv: Condvar,
    /// Waiters (`wait`, `drain`) park here for terminal transitions.
    done_cv: Condvar,
}

impl Inner {
    /// Lock the state, recovering from poison: a panicking worker must
    /// degrade *its* session, not wedge the whole service.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The multi-tenant run service. See the module docs for the model.
pub struct RunService {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl RunService {
    /// Start the service: create the spool directory and spawn the
    /// worker pool.
    pub fn start(cfg: ServiceConfig) -> Result<RunService, OsntError> {
        if cfg.workers == 0 {
            return Err(OsntError::config("service", "workers must be ≥ 1"));
        }
        if cfg.max_attempts == 0 {
            return Err(OsntError::config("service", "max_attempts must be ≥ 1"));
        }
        std::fs::create_dir_all(&cfg.spool)
            .map_err(|e| OsntError::config("service spool", e.to_string()))?;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                scheduler: Some(Scheduler::new(cfg.queue_cap, cfg.tenant_queue_cap)),
                next_id: 1,
                ..State::default()
            }),
            cfg,
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut threads = Vec::new();
        for _ in 0..inner.cfg.workers {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        Ok(RunService { inner, threads })
    }

    /// Submit a session. Returns the admission decision synchronously;
    /// an admitted session runs on the pool and its outcome is
    /// retrieved with [`RunService::wait`].
    pub fn submit(&self, spec: SessionSpec) -> Result<Admission, OsntError> {
        if spec.sweep.loads.is_empty() {
            return Err(OsntError::config("session", "sweep has no load phases"));
        }
        if spec.tenant.is_empty() {
            return Err(OsntError::config("session", "tenant must be non-empty"));
        }
        let mut st = self.inner.lock();
        st.counts.submitted += 1;
        if st.shutdown {
            st.counts.rejected += 1;
            return Ok(Admission::Rejected {
                retry_after: self.inner.cfg.est_session_cost,
            });
        }
        let id = st.next_id;
        match st.scheduler().admit(Queued::new(id, spec)) {
            AdmitDecision::Admitted { shed } => {
                st.next_id += 1;
                st.counts.admitted += 1;
                for victim in shed {
                    st.finish(SessionRecord {
                        id: victim.id,
                        tenant: victim.spec.tenant,
                        priority: victim.spec.priority,
                        outcome: SessionOutcome::Shed {
                            reason: "overload: displaced by a higher-priority submission".into(),
                        },
                        attempts: 0,
                        report: None,
                    });
                }
                self.inner.work_cv.notify_one();
                self.inner.done_cv.notify_all();
                Ok(Admission::Admitted { session: id })
            }
            AdmitDecision::Rejected { queued_ahead } => {
                st.counts.rejected += 1;
                let waves = (queued_ahead / self.inner.cfg.workers.max(1)) as u32 + 1;
                Ok(Admission::Rejected {
                    retry_after: self.inner.cfg.est_session_cost * waves,
                })
            }
        }
    }

    /// Pause dispatch: workers finish their current sessions but pick
    /// no new ones. Admission stays open — this is how a caller makes
    /// an overload storm's shedding decisions independent of worker
    /// timing (and how the e16 bench pins them per seed).
    pub fn pause(&self) {
        self.inner.lock().paused = true;
    }

    /// Resume dispatch after [`RunService::pause`].
    pub fn resume_dispatch(&self) {
        self.inner.lock().paused = false;
        self.inner.work_cv.notify_all();
    }

    /// Block until session `id` reaches a terminal state and return its
    /// record. Returns an error for an id that was never admitted.
    pub fn wait(&self, id: SessionId) -> Result<SessionRecord, OsntError> {
        let mut st = self.inner.lock();
        if id == 0 || id >= st.next_id {
            return Err(OsntError::config(
                "session",
                format!("unknown session id {id}"),
            ));
        }
        loop {
            if let Some(rec) = st.finished.get(&id) {
                return Ok(rec.clone());
            }
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Block until every admitted session is terminal. Dispatch must
    /// not be paused (a paused service never drains).
    pub fn drain(&self) {
        let mut st = self.inner.lock();
        while !st.drained() {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Snapshot of the conservation ledger.
    pub fn counts(&self) -> SessionCounts {
        self.inner.lock().counts
    }

    /// The published reports, in publication order. At most one entry
    /// per session, ever.
    pub fn publications(&self) -> Vec<(SessionId, String)> {
        self.inner.lock().publications.clone()
    }

    /// The dispatch order so far (session ids in pick order) — the
    /// observable the fairness metrics are computed from.
    pub fn dispatch_order(&self) -> Vec<SessionId> {
        self.inner.lock().dispatch_log.clone()
    }

    /// The terminal record for `id`, if it has one yet.
    pub fn record(&self, id: SessionId) -> Option<SessionRecord> {
        self.inner.lock().finished.get(&id).cloned()
    }

    /// Feed the ledger to the invariant auditor:
    /// `admitted + rejected == submitted`,
    /// `completed + shed + failed == admitted`,
    /// `published == completed`.
    pub fn audit(&self, auditor: &mut InvariantAuditor, label: &str) {
        auditor.audit_session_ledger(label, &self.counts());
    }

    /// Stop the service: close admission, wake every thread, and join
    /// the pool. Call [`RunService::drain`] first if queued sessions
    /// should finish — shutdown abandons whatever is still queued.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RunService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let entry = {
            let mut st = inner.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.paused {
                    // Ready retries outrank fresh dispatches: they hold
                    // journals and finish cheaply.
                    let now = Instant::now();
                    if let Some(i) = st
                        .retries
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.ready_at <= now)
                        .min_by_key(|(_, r)| r.ready_at)
                        .map(|(i, _)| i)
                    {
                        let r = st.retries.swap_remove(i);
                        st.running += 1;
                        break r.entry;
                    }
                    if let Some(e) = st.scheduler().pick() {
                        st.dispatch_log.push(e.id);
                        st.running += 1;
                        break e;
                    }
                }
                // Nothing dispatchable: park, waking early if a retry
                // timer is the nearest event.
                st = match st.earliest_retry() {
                    Some(at) => {
                        let timeout = at.saturating_duration_since(Instant::now());
                        inner
                            .work_cv
                            .wait_timeout(st, timeout.max(Duration::from_micros(100)))
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0
                    }
                    None => inner
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                };
            }
        };
        run_session(inner, entry);
        let mut st = inner.lock();
        st.running -= 1;
        inner.done_cv.notify_all();
        drop(st);
    }
}

/// Execute one dispatch attempt of `entry` and apply its consequence:
/// terminal record, or a backoff re-queue after a crash.
fn run_session(inner: &Arc<Inner>, mut entry: Queued) {
    let id = entry.id;
    let attempt = entry.attempt;
    let first_dispatch = *entry.first_dispatch.get_or_insert_with(Instant::now);

    // Wall deadline already blown (e.g. burned by crash backoff)?
    // Fail without dispatching.
    if let Some(deadline) = entry.spec.quota.wall_deadline {
        if first_dispatch.elapsed() > deadline {
            finish(
                inner,
                &entry,
                SessionOutcome::Failed {
                    reason: format!("quota wall-deadline: exceeded before attempt {attempt}"),
                },
                attempt,
                None,
            );
            return;
        }
    }

    let journal_path = inner.cfg.spool.join(format!("s{id:06}.journal"));
    let header = entry.spec.sweep.header();
    let sup = Supervisor::new(SupervisorConfig {
        // The session's quotas bound it (the wall deadline subsumes
        // stall detection); the supervisor still journals and resumes.
        stall_timeout: None,
        // Crash injection arms the first attempt only: the session
        // must *survive* the crash, not relive it forever.
        crash_after_appends: if attempt == 1 {
            entry.spec.kill_after_appends
        } else {
            None
        },
        ..SupervisorConfig::default()
    });

    let spec = entry.spec.clone();
    // Simulated time this attempt's earlier phases consumed. Phases
    // replayed from the journal never reach the closure, so they cost
    // nothing: the budget meters work actually performed.
    let mut used_ps = 0u64;
    let phase_fn = move |phase: u16, ctx: &mut PhaseCtx| -> Result<LatencyReport, OsntError> {
        if let Some(budget) = spec.quota.sim_budget {
            ctx.probe
                .set_sim_limit_ps(budget.as_ps().saturating_sub(used_ps));
        }
        if let Some(deadline) = spec.quota.wall_deadline {
            ctx.probe.set_deadline(first_dispatch + deadline);
        }
        let exp = LatencyExperiment {
            frame_len: spec.sweep.frame_len,
            probe_load: spec.sweep.probe_load,
            background_load: spec.sweep.loads[phase as usize],
            duration: spec.sweep.duration,
            warmup: spec.sweep.warmup,
            clock_model: DriftModel::ideal(),
            seed: spec.sweep.seed,
            probe_faults: None,
            progress: Some(Arc::clone(&ctx.probe)),
            record_raw: true,
            shards: None,
            gps_signal: None,
            capture_limit: spec.quota.capture_cap,
            shard_stats_sink: None,
        };
        let report = exp.run_legacy(osnt_switch::LegacyConfig::default())?;
        used_ps = used_ps.saturating_add(ctx.probe.now_ps());
        if let Some(raw) = &report.raw_latencies_ps {
            ctx.journal_samples(raw)?;
        }
        if let Some(f) = &report.fault_stats {
            ctx.journal_fault_counters(&fault_counters(f))?;
        }
        Ok(report)
    };

    // A crash retry resumes iff the journal's header survived the
    // crash (a kill at append 1 leaves nothing to resume from — the
    // retry then starts fresh, honestly).
    let do_resume = entry.resume
        && journal::recover(&journal_path)
            .map(|r| r.header.is_some())
            .unwrap_or(false);
    let result = if do_resume {
        sup.resume(&journal_path, Some(&header), phase_fn)
            .map(|(_, outcome)| outcome)
    } else {
        sup.run(&journal_path, &header, phase_fn)
    };

    match result {
        Ok(outcome) if outcome.is_complete() => {
            let report = render_report(&entry.spec.sweep, &outcome);
            finish(
                inner,
                &entry,
                SessionOutcome::Completed,
                attempt,
                Some(report),
            );
        }
        Ok(outcome) => {
            // The supervisor journals a fired limit as the reason; the
            // service sets no stall limit, so a limit here is a quota.
            let reason = match outcome.aborted {
                Some(a) if a.limit.is_some() => format!("quota {}", a.reason),
                Some(a) => a.reason,
                None => "aborted without a journaled reason".into(),
            };
            finish(
                inner,
                &entry,
                SessionOutcome::Failed { reason },
                attempt,
                None,
            );
        }
        Err(OsntError::CrashInjected { append }) => {
            if attempt >= inner.cfg.max_attempts {
                finish(
                    inner,
                    &entry,
                    SessionOutcome::Failed {
                        reason: format!(
                            "worker crashed at journal append {append}; \
                             {attempt} attempts exhausted"
                        ),
                    },
                    attempt,
                    None,
                );
                return;
            }
            let backoff = next_backoff(
                inner.cfg.seed,
                id,
                attempt,
                inner.cfg.retry_base,
                entry.prev_backoff_ns,
            );
            entry.prev_backoff_ns = backoff.as_nanos() as u64;
            entry.attempt += 1;
            entry.resume = true;
            let mut st = inner.lock();
            st.counts.retries += 1;
            st.retries.push(RetryEntry {
                ready_at: Instant::now() + backoff,
                entry,
            });
            drop(st);
            inner.work_cv.notify_all();
        }
        Err(e) => {
            finish(
                inner,
                &entry,
                SessionOutcome::Failed {
                    reason: e.to_string(),
                },
                attempt,
                None,
            );
        }
    }
}

fn finish(
    inner: &Arc<Inner>,
    entry: &Queued,
    outcome: SessionOutcome,
    attempts: u32,
    report: Option<String>,
) {
    let mut st = inner.lock();
    st.finish(SessionRecord {
        id: entry.id,
        tenant: entry.spec.tenant.clone(),
        priority: entry.spec.priority,
        outcome,
        attempts,
        report,
    });
    drop(st);
    inner.done_cv.notify_all();
}

/// Decorrelated-jitter crash backoff (the same discipline the OpenFlow
/// controller uses for control-channel retries): draw uniformly from
/// `[base, 3·prev]`, capped at `base · 2⁸`. Deterministic per
/// `(service seed, session, attempt)` — replaying a campaign replays
/// its retry timing.
fn next_backoff(seed: u64, id: SessionId, attempt: u32, base: Duration, prev_ns: u64) -> Duration {
    use rand::{Rng, SeedableRng};
    let base_ns = base.as_nanos() as u64;
    let cap_ns = base_ns.saturating_mul(1 << 8);
    let hi_ns = prev_ns.saturating_mul(3).clamp(base_ns, cap_ns);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32),
    );
    Duration::from_nanos(rng.gen_range(base_ns..=hi_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_transition_is_at_most_once() {
        let mut st = State {
            scheduler: Some(Scheduler::new(4, 4)),
            next_id: 2,
            ..State::default()
        };
        let completed = SessionRecord {
            id: 1,
            tenant: "a".into(),
            priority: 0,
            outcome: SessionOutcome::Completed,
            attempts: 1,
            report: Some("report".into()),
        };
        st.finish(completed.clone());
        // A duplicate terminal transition (e.g. a racing retry) is
        // dropped: no double publication, no double count.
        st.finish(completed);
        st.finish(SessionRecord {
            id: 1,
            tenant: "a".into(),
            priority: 0,
            outcome: SessionOutcome::Failed {
                reason: "late".into(),
            },
            attempts: 2,
            report: None,
        });
        assert_eq!(st.counts.completed, 1);
        assert_eq!(st.counts.published, 1);
        assert_eq!(st.counts.failed, 0);
        assert_eq!(st.publications.len(), 1);
        assert_eq!(
            st.finished[&1].outcome,
            SessionOutcome::Completed,
            "first terminal state wins"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(2);
        // First crash: no previous draw, so the wait is exactly the
        // floor — the cheap case for the common single-crash session.
        assert_eq!(next_backoff(7, 42, 1, base, 0), base);
        let prev = (base * 5).as_nanos() as u64;
        let a = next_backoff(7, 42, 2, base, prev);
        let b = next_backoff(7, 42, 2, base, prev);
        assert_eq!(a, b, "same (seed, id, attempt) must draw identically");
        assert_ne!(
            next_backoff(7, 42, 2, base, prev),
            next_backoff(7, 43, 2, base, prev),
            "sessions must decorrelate"
        );
        let mut prev = 0u64;
        for attempt in 1..=20 {
            let d = next_backoff(7, 42, attempt, base, prev);
            assert!(d >= base, "floor: {d:?}");
            assert!(d <= base * 256, "cap: {d:?}");
            prev = d.as_nanos() as u64;
        }
    }
}
