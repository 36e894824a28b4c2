//! Crash-point injection: the exhaustive kill-and-resume sweep.
//!
//! The supervisor's determinism contract says a resumed run's report is
//! byte-identical to an uninterrupted one. The CI smoke test kills the
//! process at *one* point; this module proves the property at **every**
//! point: it enumerates a reference run's journal appends, re-runs the
//! campaign with [`SupervisorConfig::crash_after_appends`] armed at
//! each append *k* (the injected crash refuses the write, leaving
//! exactly the bytes a SIGKILL between appends k−1 and k would leave),
//! resumes, and demands either the byte-identical report or an honestly
//! typed failure (killing append #1 leaves no header — resume *must*
//! refuse, not invent).
//!
//! [`journal_torture`] composes the crash axis with storage faults:
//! torn tails (truncation at swept offsets) and mid-file bit flips
//! thrown at a finished journal before resume. CRC framing must reject
//! the damage, recovery must fall back to the last valid frame, and
//! resume must either complete byte-identically or fail with a typed
//! per-class error — never panic, never fabricate.

use std::path::Path;

use osnt_core::sweep::{render_report, SupervisedSweep, SweepConfig};
use osnt_error::OsntError;
use osnt_supervisor::{journal, SupervisorConfig};

/// Outcome of [`crash_point_sweep`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSweepReport {
    /// Journal appends enumerated (= crash points exercised).
    pub crash_points: u64,
    /// Crash points whose resumed report was byte-identical to the
    /// uninterrupted reference.
    pub byte_identical: u64,
    /// Crash points that cannot resume (the crash predates the run
    /// header) and failed with the honest typed error instead.
    pub honest_partial: u64,
}

fn scratch(dir: &Path, tag: &str, name: &str) -> std::path::PathBuf {
    let mut p = dir.to_path_buf();
    p.push(format!("osnt-chaos-{}-{tag}-{name}", std::process::id()));
    p
}

fn violated(detail: String) -> OsntError {
    OsntError::InvariantViolated {
        invariant: "crash-resume",
        detail,
    }
}

/// Run `config` uninterrupted, then once per journal append with an
/// injected crash at that append, resuming each time. Every crash
/// point must resume to the byte-identical report or fail honestly.
pub fn crash_point_sweep(
    config: &SweepConfig,
    supervisor: SupervisorConfig,
    scratch_dir: &Path,
    tag: &str,
) -> Result<CrashSweepReport, OsntError> {
    let ref_path = scratch(scratch_dir, tag, "ref.journal");
    let _ = std::fs::remove_file(&ref_path);
    let mut sweep = SupervisedSweep::new(config.clone());
    sweep.supervisor = supervisor;
    let outcome = sweep.run(&ref_path)?;
    let reference = render_report(config, &outcome);
    let crash_points = journal::recover(&ref_path)?.frames;
    let _ = std::fs::remove_file(&ref_path);

    let mut report = CrashSweepReport {
        crash_points,
        ..CrashSweepReport::default()
    };
    let path = scratch(scratch_dir, tag, "crash.journal");
    for k in 1..=crash_points {
        let _ = std::fs::remove_file(&path);
        let mut armed = SupervisedSweep::new(config.clone());
        armed.supervisor = SupervisorConfig {
            crash_after_appends: Some(k),
            ..supervisor
        };
        match armed.run(&path) {
            Err(OsntError::CrashInjected { .. }) => {}
            Ok(_) => {
                return Err(violated(format!(
                    "{tag}: crash armed at append {k}/{crash_points} but the run completed"
                )))
            }
            Err(e) => {
                return Err(violated(format!(
                    "{tag}: crash at append {k} surfaced as the wrong error class: {e}"
                )))
            }
        }
        match SupervisedSweep::resume(&path, supervisor) {
            Ok((cfg, outcome)) => {
                let resumed = render_report(&cfg, &outcome);
                if resumed != reference {
                    return Err(violated(format!(
                        "{tag}: resume after a crash at append {k}/{crash_points} diverged from the reference report"
                    )));
                }
                report.byte_identical += 1;
            }
            // Crashing before the header frame lands leaves a journal
            // that *cannot* be resumed; the honest outcome is a typed
            // decode error, not an invented run.
            Err(OsntError::Decode { .. }) => report.honest_partial += 1,
            Err(e) => {
                return Err(violated(format!(
                    "{tag}: resume after a crash at append {k} failed with the wrong class: {e}"
                )))
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    debug_assert_eq!(report.byte_identical + report.honest_partial, crash_points);
    Ok(report)
}

/// Outcome of [`journal_torture`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TortureReport {
    /// Torn-tail truncation points exercised.
    pub truncations: u64,
    /// Mid-file bit flips exercised.
    pub bit_flips: u64,
    /// Damaged journals that resumed to the byte-identical report.
    pub resumed_identical: u64,
    /// Damaged journals that failed with an honest typed error
    /// (header destroyed → decode; digest mismatch → config).
    pub honest_errors: u64,
}

/// Throw torn tails and bit flips at a finished run's journal, then
/// resume each damaged copy. Recovery must truncate to the last valid
/// frame and resume must re-derive the byte-identical report — or fail
/// with a typed per-class error when the damage ate the header.
pub fn journal_torture(
    config: &SweepConfig,
    supervisor: SupervisorConfig,
    scratch_dir: &Path,
    tag: &str,
    seed: u64,
) -> Result<TortureReport, OsntError> {
    let ref_path = scratch(scratch_dir, tag, "torture-ref.journal");
    let _ = std::fs::remove_file(&ref_path);
    let mut sweep = SupervisedSweep::new(config.clone());
    sweep.supervisor = supervisor;
    let outcome = sweep.run(&ref_path)?;
    let reference = render_report(config, &outcome);
    let bytes = std::fs::read(&ref_path).map_err(|e| OsntError::journal("read", e.to_string()))?;
    let _ = std::fs::remove_file(&ref_path);

    let mut report = TortureReport::default();
    let path = scratch(scratch_dir, tag, "torture.journal");
    // ~16 cuts spread over the file plus the last few byte boundaries
    // (the torn-tail hot zone), and as many seeded single-byte flips.
    let stride = (bytes.len() / 16).max(1);
    let mut damage: Vec<(bool, usize)> = (1..bytes.len())
        .step_by(stride)
        .map(|c| (true, c))
        .collect();
    for tail in 1..=4usize.min(bytes.len().saturating_sub(1)) {
        damage.push((true, bytes.len() - tail));
    }
    let mut x = seed | 1;
    for _ in 0..16 {
        // xorshift64 — deterministic flip positions across the seed axis.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        damage.push((false, (x as usize) % bytes.len()));
    }

    for (truncate, at) in damage {
        let mut mangled = bytes.clone();
        if truncate {
            mangled.truncate(at);
            report.truncations += 1;
        } else {
            mangled[at] ^= 0x40;
            report.bit_flips += 1;
        }
        // Recovery must already reject the damage cleanly...
        if let Ok(rec) = journal::recover_bytes(&mangled) {
            if rec.valid_len > mangled.len() as u64 {
                return Err(violated_torture(format!(
                    "{tag}: recovery claims {} valid bytes of a {}-byte journal",
                    rec.valid_len,
                    mangled.len()
                )));
            }
        }
        // ...and resume must re-derive the reference or fail honestly.
        std::fs::write(&path, &mangled).map_err(|e| OsntError::journal("write", e.to_string()))?;
        match SupervisedSweep::resume(&path, supervisor) {
            Ok((cfg, outcome)) => {
                let resumed = render_report(&cfg, &outcome);
                if resumed != reference {
                    return Err(violated_torture(format!(
                        "{tag}: resume of a journal damaged at byte {at} diverged from the reference"
                    )));
                }
                report.resumed_identical += 1;
            }
            Err(OsntError::Decode { .. }) | Err(OsntError::Config { .. }) => {
                report.honest_errors += 1
            }
            Err(e) => {
                return Err(violated_torture(format!(
                "{tag}: resume of a journal damaged at byte {at} failed with the wrong class: {e}"
            )))
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(report)
}

fn violated_torture(detail: String) -> OsntError {
    OsntError::InvariantViolated {
        invariant: "journal-torture",
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_time::SimDuration;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            loads: vec![0.0, 0.3],
            duration: SimDuration::from_ms(3),
            warmup: SimDuration::from_ms(1),
            seed: 5,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn every_crash_point_resumes_identically_or_fails_honestly() {
        let report = crash_point_sweep(
            &tiny_config(),
            SupervisorConfig::default(),
            &std::env::temp_dir(),
            "unit-sweep",
        )
        .expect("sweep completes without violations");
        assert!(
            report.crash_points >= 8,
            "a 2-phase run journals at least header + starts + samples + results + trailer, got {}",
            report.crash_points
        );
        assert_eq!(
            report.byte_identical + report.honest_partial,
            report.crash_points
        );
        // Only the pre-header crash (k = 1) can be honest-partial.
        assert_eq!(report.honest_partial, 1);
    }

    #[test]
    fn torture_never_panics_and_accounts_every_damaged_copy() {
        let report = journal_torture(
            &tiny_config(),
            SupervisorConfig::default(),
            &std::env::temp_dir(),
            "unit-torture",
            0xBADC0FFE,
        )
        .expect("torture completes without violations");
        assert!(report.truncations >= 16);
        assert_eq!(report.bit_flips, 16);
        assert_eq!(
            report.resumed_identical + report.honest_errors,
            report.truncations + report.bit_flips
        );
        // At least some damaged copies must still resume — a torture
        // harness in which *everything* is fatal is testing nothing.
        assert!(report.resumed_identical > 0);
    }
}
