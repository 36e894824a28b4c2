//! # The run supervisor
//!
//! Drives a multi-phase campaign under three guarantees:
//!
//! 1. **Watchdog** — each phase runs with a fresh [`ProgressProbe`]
//!    monitored by a [`Watchdog`]; a phase whose simulated time stops
//!    advancing is cooperatively aborted and journaled as such.
//! 2. **Journal** — every lifecycle transition is appended to the
//!    crash-consistent [`journal`](crate::journal) *before* the next
//!    step runs, so a SIGKILL loses at most the executing phase.
//! 3. **Resume** — [`Supervisor::resume`] replays the journal, verifies
//!    the config digest, decodes the phases that already completed, and
//!    re-runs only the interrupted one onward. Because every phase is
//!    seeded deterministically, a resumed campaign reports
//!    byte-identically to an uninterrupted one.

use std::path::Path;
use std::sync::Arc;

use osnt_error::OsntError;
use osnt_time::ProgressProbe;

use crate::journal::{self, JournalWriter, RunHeader};
use crate::watchdog::{Watchdog, WatchdogConfig};
use crate::wire::{Dec, Enc};

/// A phase result that can round-trip through the journal. Encoding
/// must be lossless (store f64 as bits, not text) — resume reports are
/// pinned byte-identical to uninterrupted ones.
pub trait PhasePayload: Sized {
    /// Append this result to `e`.
    fn encode(&self, e: &mut Enc);
    /// Decode a result previously written by [`PhasePayload::encode`].
    fn decode(d: &mut Dec) -> Result<Self, OsntError>;
}

/// Supervisor tuning.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Watchdog settings; `None` disables stall detection (the journal
    /// and resume still work).
    pub watchdog: Option<WatchdogConfig>,
    /// Fsync batch size for bulk sample records
    /// (see [`JournalWriter::create`]).
    pub sync_every_samples: usize,
    /// Chaos hook: kill the run at the k-th journal append (1-based) by
    /// arming [`JournalWriter::arm_crash_after`]. The run dies with
    /// [`OsntError::CrashInjected`] and the journal is byte-identical to
    /// a SIGKILL landing between appends k-1 and k — no abort record,
    /// no torn frame. `None` (the default) disables the hook.
    pub crash_after_appends: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            watchdog: Some(WatchdogConfig::default()),
            // Big enough that a typical multi-phase campaign (~3 batched
            // records per phase) reaches its terminal fsync without an
            // intermediate one: on ext4 each fsync costs ~1 ms, which
            // the e11 overhead gate counts against the 5% budget. A
            // power crash loses at most the unsynced tail — recovery
            // re-runs those phases, it never corrupts.
            sync_every_samples: 32,
            crash_after_appends: None,
        }
    }
}

/// What a phase body gets from the supervisor: the progress probe it
/// must wire into its simulation, and journal access for bulk data.
pub struct PhaseCtx<'a> {
    /// Heartbeat + cooperative-abort channel. The phase **must** attach
    /// this to its simulation (`Sim::attach_progress`), or the watchdog
    /// will see a flat heartbeat and abort a perfectly healthy run.
    pub probe: Arc<ProgressProbe>,
    journal: &'a mut JournalWriter,
    phase: u16,
}

impl PhaseCtx<'_> {
    /// Journal a batch of raw u64 samples for this phase (fsync batched).
    pub fn journal_samples(&mut self, samples: &[u64]) -> Result<(), OsntError> {
        self.journal.samples(self.phase, samples)
    }

    /// Journal a snapshot of named fault counters for this phase.
    pub fn journal_fault_counters(&mut self, counters: &[(String, u64)]) -> Result<(), OsntError> {
        self.journal.fault_snapshot(self.phase, counters)
    }
}

/// Where and why a supervised run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortInfo {
    /// Index of the phase that was executing.
    pub phase_index: u16,
    /// Its name from the run header.
    pub phase: String,
    /// Simulated-time high-water mark (ps) when the run died.
    pub last_progress: u64,
    /// Journaled cause (watchdog stall report or panic message).
    pub reason: String,
}

/// The result of a supervised run: the phases that completed (in
/// order), how many were replayed from the journal rather than
/// executed, and — if the run aborted — where and why.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Completed phase results, `phases[i]` for phase index `i`.
    pub phases: Vec<R>,
    /// How many leading phases came from the journal (0 on a fresh run).
    pub resumed_phases: u16,
    /// `Some` iff the run aborted before finishing every phase; the
    /// completed prefix in `phases` is still valid (a partial report).
    pub aborted: Option<AbortInfo>,
}

impl<R> RunOutcome<R> {
    /// `true` iff every phase completed.
    pub fn is_complete(&self) -> bool {
        self.aborted.is_none()
    }
}

/// The supervisor. See the module docs for the guarantees.
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Tuning; [`SupervisorConfig::default`] is right for CI.
    pub cfg: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor with the given tuning.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor { cfg }
    }

    /// Execute a fresh run: create the journal at `path`, write the
    /// header, and run every phase in `header.phases` through
    /// `phase_fn(phase_index, ctx)`.
    ///
    /// A phase returning `RunAborted` or `Panicked` ends the run with a
    /// journaled abort and `Ok(outcome)` carrying the completed prefix —
    /// those are the *supervised* failure classes, and a partial report
    /// is the contract. Any other error propagates as `Err` (after
    /// being journaled) because it signals a bug or bad config, not a
    /// wedged run.
    pub fn run<R, F>(
        &self,
        path: &Path,
        header: &RunHeader,
        phase_fn: F,
    ) -> Result<RunOutcome<R>, OsntError>
    where
        R: PhasePayload,
        F: FnMut(u16, &mut PhaseCtx) -> Result<R, OsntError>,
    {
        let mut journal = JournalWriter::create(path, self.cfg.sync_every_samples)?;
        if let Some(k) = self.cfg.crash_after_appends {
            journal.arm_crash_after(k);
        }
        journal.header(header)?;
        self.execute(journal, header, Vec::new(), phase_fn)
    }

    /// Resume a run from its journal: salvage the valid prefix, verify
    /// the config digest (against `expected` when the caller knows what
    /// configuration it *intends* to run), decode the completed phases,
    /// truncate any torn tail, and re-run from the first incomplete
    /// phase. Returns the header recovered from the journal alongside
    /// the outcome so the caller can reconstruct the campaign config.
    pub fn resume<R, F>(
        &self,
        path: &Path,
        expected: Option<&RunHeader>,
        phase_fn: F,
    ) -> Result<(RunHeader, RunOutcome<R>), OsntError>
    where
        R: PhasePayload,
        F: FnMut(u16, &mut PhaseCtx) -> Result<R, OsntError>,
    {
        let rec = journal::recover(path)?;
        let header = rec.header.clone().ok_or_else(|| {
            OsntError::decode(
                "run journal",
                "no run header survived; the journal cannot be resumed",
            )
        })?;
        if let Some(want) = expected {
            if want.digest() != header.digest() {
                return Err(OsntError::decode(
                    "run journal",
                    format!(
                        "config digest mismatch: journal has {:#010x}, caller expects {:#010x} \
                         — refusing to splice phases from a different configuration",
                        header.digest(),
                        want.digest()
                    ),
                ));
            }
        }
        let prefix = rec.completed_prefix();
        let mut done = Vec::with_capacity(prefix as usize);
        for i in 0..prefix {
            let mut d = Dec::new(&rec.completed[&i]);
            done.push(R::decode(&mut d)?);
        }
        let mut journal = JournalWriter::resume(path, rec.valid_len, self.cfg.sync_every_samples)?;
        if let Some(k) = self.cfg.crash_after_appends {
            journal.arm_crash_after(k);
        }
        let outcome = self.execute(journal, &header, done, phase_fn)?;
        Ok((header, outcome))
    }

    fn execute<R, F>(
        &self,
        mut journal: JournalWriter,
        header: &RunHeader,
        mut done: Vec<R>,
        mut phase_fn: F,
    ) -> Result<RunOutcome<R>, OsntError>
    where
        R: PhasePayload,
        F: FnMut(u16, &mut PhaseCtx) -> Result<R, OsntError>,
    {
        let resumed = done.len() as u16;
        let total = header.phases.len() as u16;
        for phase in resumed..total {
            journal.phase_start(phase)?;
            let probe = ProgressProbe::new();
            let dog = self.cfg.watchdog.map(|w| {
                // Thread the phase identity (index + header name) into
                // the watchdog: the stall report must name the absolute
                // phase even when this is a resumed run, where "first
                // phase executed" and "phase 0" differ.
                Watchdog::spawn_in_phase(
                    w,
                    phase,
                    header.phases[phase as usize].clone(),
                    vec![("sim".into(), Arc::clone(&probe))],
                )
            });
            let result = {
                let mut ctx = PhaseCtx {
                    probe: Arc::clone(&probe),
                    journal: &mut journal,
                    phase,
                };
                phase_fn(phase, &mut ctx)
            };
            let stall = dog.and_then(Watchdog::stop);
            match result {
                Ok(r) => {
                    let mut e = Enc::new();
                    r.encode(&mut e);
                    journal.phase_complete(phase, &e.into_bytes())?;
                    done.push(r);
                }
                Err(err) => {
                    let last_progress = probe.now_ps();
                    // When the watchdog fired, its stall report is the
                    // root cause; the error the phase returned is just
                    // the abort's echo through the dispatch loop.
                    let reason = match &stall {
                        Some(s) => s.reason(),
                        None => err.to_string(),
                    };
                    journal.aborted(phase, last_progress, &reason)?;
                    return match err {
                        OsntError::RunAborted { .. } | OsntError::Panicked { .. } => {
                            Ok(RunOutcome {
                                phases: done,
                                resumed_phases: resumed,
                                aborted: Some(AbortInfo {
                                    phase_index: phase,
                                    phase: header.phases[phase as usize].clone(),
                                    last_progress,
                                    reason,
                                }),
                            })
                        }
                        other => Err(other),
                    };
                }
            }
        }
        journal.trailer(total)?;
        Ok(RunOutcome {
            phases: done,
            resumed_phases: resumed,
            aborted: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::recover;

    /// A minimal lossless payload for exercising the lifecycle.
    #[derive(Debug, Clone, PartialEq)]
    struct DemoResult {
        phase: u16,
        mean_ps: f64,
    }

    impl PhasePayload for DemoResult {
        fn encode(&self, e: &mut Enc) {
            e.u16(self.phase);
            e.f64(self.mean_ps);
        }
        fn decode(d: &mut Dec) -> Result<Self, OsntError> {
            Ok(DemoResult {
                phase: d.u16()?,
                mean_ps: d.f64()?,
            })
        }
    }

    fn demo_header() -> RunHeader {
        RunHeader {
            seed: 7,
            config: b"demo-config".to_vec(),
            phases: vec!["a".into(), "b".into(), "c".into()],
        }
    }

    fn no_watchdog() -> Supervisor {
        Supervisor::new(SupervisorConfig {
            watchdog: None,
            ..SupervisorConfig::default()
        })
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "osnt-supervisor-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn clean_run_completes_every_phase() {
        let path = temp_path("clean");
        let outcome = no_watchdog()
            .run::<DemoResult, _>(&path, &demo_header(), |phase, ctx| {
                ctx.probe.advance_time(u64::from(phase + 1) * 1_000);
                ctx.journal_samples(&[u64::from(phase), 99])?;
                Ok(DemoResult {
                    phase,
                    mean_ps: 0.5 + f64::from(phase),
                })
            })
            .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.resumed_phases, 0);
        assert_eq!(outcome.phases.len(), 3);
        let rec = recover(&path).unwrap();
        assert!(rec.clean_close);
        assert_eq!(rec.samples[&2], vec![2, 99]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn abort_yields_partial_outcome_then_resume_skips_completed() {
        let path = temp_path("resume");
        let header = demo_header();

        // First attempt dies (cooperative abort) during phase "b".
        let outcome = no_watchdog()
            .run::<DemoResult, _>(&path, &header, |phase, ctx| {
                ctx.probe.advance_time(5_000);
                if phase == 1 {
                    return Err(OsntError::RunAborted {
                        phase: "b".into(),
                        last_progress: 5_000,
                    });
                }
                Ok(DemoResult {
                    phase,
                    mean_ps: 1.25,
                })
            })
            .unwrap();
        assert!(!outcome.is_complete());
        assert_eq!(
            outcome.phases.len(),
            1,
            "phase a completed before the abort"
        );
        let info = outcome.aborted.unwrap();
        assert_eq!((info.phase_index, info.phase.as_str()), (1, "b"));
        assert_eq!(info.last_progress, 5_000);

        // Resume must not re-execute phase a.
        let mut executed = Vec::new();
        let (rec_header, outcome) = no_watchdog()
            .resume::<DemoResult, _>(&path, Some(&header), |phase, ctx| {
                executed.push(phase);
                ctx.probe.advance_time(9_000);
                Ok(DemoResult {
                    phase,
                    mean_ps: 1.25,
                })
            })
            .unwrap();
        assert_eq!(rec_header, header);
        assert!(outcome.is_complete());
        assert_eq!(outcome.resumed_phases, 1);
        assert_eq!(executed, vec![1, 2], "completed phase 0 was skipped");
        assert_eq!(
            outcome.phases,
            vec![
                DemoResult {
                    phase: 0,
                    mean_ps: 1.25
                },
                DemoResult {
                    phase: 1,
                    mean_ps: 1.25
                },
                DemoResult {
                    phase: 2,
                    mean_ps: 1.25
                },
            ],
            "journal-replayed phase decodes identically to a fresh one"
        );
        assert!(recover(&path).unwrap().clean_close);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_different_config() {
        let path = temp_path("digest");
        no_watchdog()
            .run::<DemoResult, _>(&path, &demo_header(), |phase, _| {
                Ok(DemoResult {
                    phase,
                    mean_ps: 0.0,
                })
            })
            .unwrap();
        let mut other = demo_header();
        other.seed = 8; // different seed → different digest
        let err = no_watchdog()
            .resume::<DemoResult, _>(&path, Some(&other), |phase, _| {
                Ok(DemoResult {
                    phase,
                    mean_ps: 0.0,
                })
            })
            .unwrap_err();
        assert!(matches!(err, OsntError::Decode { .. }));
        assert!(err.to_string().contains("digest mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watchdog_aborts_a_wedged_phase() {
        let path = temp_path("wedged");
        let sup = Supervisor::new(SupervisorConfig {
            watchdog: Some(WatchdogConfig {
                stall_timeout: std::time::Duration::from_millis(50),
                poll_interval: std::time::Duration::from_millis(5),
            }),
            ..SupervisorConfig::default()
        });
        let outcome = sup
            .run::<DemoResult, _>(&path, &demo_header(), |phase, ctx| {
                ctx.probe.advance_time(1_234);
                if phase == 1 {
                    // Wedge: spin (bounded) until the watchdog requests
                    // the abort, then surface it as the dispatch loop
                    // would.
                    let start = std::time::Instant::now();
                    while !ctx.probe.abort_requested() {
                        assert!(
                            start.elapsed() < std::time::Duration::from_secs(10),
                            "watchdog never fired"
                        );
                        std::thread::yield_now();
                    }
                    return Err(OsntError::RunAborted {
                        phase: "b".into(),
                        last_progress: ctx.probe.now_ps(),
                    });
                }
                Ok(DemoResult {
                    phase,
                    mean_ps: 2.0,
                })
            })
            .unwrap();
        let info = outcome.aborted.expect("wedged phase must abort the run");
        assert_eq!(info.phase, "b");
        assert_eq!(info.last_progress, 1_234);
        assert!(
            info.reason.contains("watchdog"),
            "root cause is the stall: {}",
            info.reason
        );
        let rec = recover(&path).unwrap();
        let jrec = rec.aborted.unwrap();
        assert_eq!(jrec.phase, 1);
        assert!(jrec.reason.contains("watchdog"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_crash_leaves_sigkill_state_and_resume_completes() {
        let header = demo_header();
        let body = |phase: u16, ctx: &mut PhaseCtx| {
            ctx.probe.advance_time(u64::from(phase + 1) * 1_000);
            ctx.journal_samples(&[u64::from(phase)])?;
            Ok(DemoResult {
                phase,
                mean_ps: f64::from(phase) + 0.5,
            })
        };

        // Reference: uninterrupted run, to learn the append count and
        // the expected results.
        let ref_path = temp_path("crash-ref");
        let reference = no_watchdog()
            .run::<DemoResult, _>(&ref_path, &header, body)
            .unwrap();
        let total_appends = recover(&ref_path).unwrap().frames;
        assert!(total_appends > 0);

        // Sweep every append as a kill point; each crashed run must
        // resume to the same results (or fail honestly at k=1, where
        // not even the header reached the disk).
        for k in 1..=total_appends {
            let path = temp_path(&format!("crash-k{k}"));
            let sup = Supervisor::new(SupervisorConfig {
                watchdog: None,
                crash_after_appends: Some(k),
                ..SupervisorConfig::default()
            });
            let err = sup
                .run::<DemoResult, _>(&path, &header, body)
                .expect_err("armed run must die");
            assert!(matches!(err, OsntError::CrashInjected { append } if append == k));
            // The journal holds exactly k-1 frames and no abort record:
            // byte-identical to a SIGKILL between appends.
            let rec = recover(&path).unwrap();
            assert_eq!(rec.frames, k - 1);
            assert_eq!(rec.aborted, None);

            if k == 1 {
                // Not even the header landed; resume must refuse with a
                // typed error, not a panic.
                let err = no_watchdog()
                    .resume::<DemoResult, _>(&path, Some(&header), body)
                    .unwrap_err();
                assert!(matches!(err, OsntError::Decode { .. }));
            } else {
                let (h, outcome) = no_watchdog()
                    .resume::<DemoResult, _>(&path, Some(&header), body)
                    .unwrap();
                assert_eq!(h, header);
                assert!(outcome.is_complete());
                assert_eq!(outcome.phases, reference.phases);
                assert!(recover(&path).unwrap().clean_close);
            }
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&ref_path).ok();
    }

    #[test]
    fn stall_during_resume_carries_phase_identity() {
        let path = temp_path("resume-stall");
        let header = demo_header();

        // Die cooperatively in phase 1 so the journal holds phase 0.
        no_watchdog()
            .run::<DemoResult, _>(&path, &header, |phase, ctx| {
                ctx.probe.advance_time(1_000);
                if phase == 1 {
                    return Err(OsntError::RunAborted {
                        phase: "b".into(),
                        last_progress: 1_000,
                    });
                }
                Ok(DemoResult {
                    phase,
                    mean_ps: 0.0,
                })
            })
            .unwrap();

        // Resume with a fast watchdog and wedge phase 2 ("c"): the
        // stall fires *during resume*, and the journaled reason must
        // still name the absolute phase — index 2, name "c" — not just
        // a probe label.
        let sup = Supervisor::new(SupervisorConfig {
            watchdog: Some(WatchdogConfig {
                stall_timeout: std::time::Duration::from_millis(50),
                poll_interval: std::time::Duration::from_millis(5),
            }),
            ..SupervisorConfig::default()
        });
        let (_, outcome) = sup
            .resume::<DemoResult, _>(&path, Some(&header), |phase, ctx| {
                ctx.probe.advance_time(2_000);
                if phase == 2 {
                    let start = std::time::Instant::now();
                    while !ctx.probe.abort_requested() {
                        assert!(
                            start.elapsed() < std::time::Duration::from_secs(10),
                            "watchdog never fired"
                        );
                        std::thread::yield_now();
                    }
                    return Err(OsntError::RunAborted {
                        phase: "c".into(),
                        last_progress: ctx.probe.now_ps(),
                    });
                }
                Ok(DemoResult {
                    phase,
                    mean_ps: 0.0,
                })
            })
            .unwrap();
        let info = outcome.aborted.expect("wedged resume must abort");
        assert_eq!((info.phase_index, info.phase.as_str()), (2, "c"));
        assert!(
            info.reason.contains("phase 2") && info.reason.contains("(c)"),
            "stall reason must carry the phase identity: {}",
            info.reason
        );
        let jrec = recover(&path).unwrap().aborted.unwrap();
        assert_eq!(jrec.phase, 2);
        assert!(
            jrec.reason.contains("phase 2") && jrec.reason.contains("(c)"),
            "journaled reason must carry the phase identity: {}",
            jrec.reason
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_supervised_errors_propagate_after_journaling() {
        let path = temp_path("bug");
        let err = no_watchdog()
            .run::<DemoResult, _>(&path, &demo_header(), |phase, _| {
                if phase == 0 {
                    return Err(OsntError::config("demo", "bad knob"));
                }
                unreachable!("phase 1 must not run after a config error");
            })
            .unwrap_err();
        assert!(matches!(err, OsntError::Config { .. }));
        let rec = recover(&path).unwrap();
        assert!(rec.aborted.unwrap().reason.contains("bad knob"));
        std::fs::remove_file(&path).ok();
    }
}
