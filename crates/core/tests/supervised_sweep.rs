//! The PR's two pinned end-to-end guarantees, in-process:
//!
//! 1. **Resume is invisible in the result.** Truncate a finished run's
//!    journal anywhere — simulating a crash at that point — resume it,
//!    and the rendered report is byte-identical to the uninterrupted
//!    run's.
//! 2. **A wedged phase cannot hang the campaign.** A DUT that livelocks
//!    at frozen virtual time trips the stall limit, the run aborts into a
//!    partial report with the stall as the recorded reason, and a later
//!    resume (sans wedge) completes to the same byte-identical report.

use std::path::PathBuf;
use std::time::Duration;

use osnt_core::sweep::{render_report, SupervisedSweep, SweepConfig};
use osnt_supervisor::{journal, SupervisorConfig};
use osnt_time::SimDuration;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("osnt-sweep-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

fn small_config() -> SweepConfig {
    SweepConfig {
        frame_len: 512,
        probe_load: 0.02,
        loads: vec![0.0, 0.3],
        duration: SimDuration::from_ms(4),
        warmup: SimDuration::from_ms(1),
        seed: 7,
    }
}

fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        stall_timeout: Some(Duration::from_millis(400)),
        sync_every_samples: 8,
        crash_after_appends: None,
    }
}

#[test]
fn resume_after_truncation_is_byte_identical() {
    let cfg = small_config();
    let sup = fast_supervisor();

    let path = tmp("truncate-full.journal");
    let mut sweep = SupervisedSweep::new(cfg.clone());
    sweep.supervisor = sup;
    let outcome = sweep.run(&path).expect("uninterrupted run");
    assert!(outcome.is_complete());
    assert_eq!(outcome.phases.len(), 2);
    let reference = render_report(&cfg, &outcome);
    assert!(reference.contains("phases completed: 2/2"), "{reference}");

    let bytes = std::fs::read(&path).expect("read journal");
    // Crash points spread across the whole file: inside the header
    // region, mid-phase-0 samples, and mid-phase-1.
    for fraction in [4usize, 2, 3] {
        let cut = bytes.len() * (fraction.min(3)) / 4;
        let cut = cut.min(bytes.len() - 1);
        let path_cut = tmp(&format!("truncate-{fraction}.journal"));
        std::fs::write(&path_cut, &bytes[..cut]).expect("write truncated copy");

        let (recovered_cfg, resumed) =
            SupervisedSweep::resume(&path_cut, sup).expect("resume after truncation");
        assert_eq!(recovered_cfg, cfg, "config must come back from the journal");
        assert!(resumed.is_complete());
        let report = render_report(&recovered_cfg, &resumed);
        assert_eq!(
            report,
            reference,
            "resumed report must be byte-identical (cut at {cut}/{})",
            bytes.len()
        );

        // The repaired journal itself must now be clean and complete.
        let rec = journal::recover(&path_cut).expect("recover repaired journal");
        assert!(rec.clean_close);
        assert_eq!(rec.completed_prefix(), 2);
        let _ = std::fs::remove_file(&path_cut);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wedged_phase_trips_watchdog_and_resume_completes() {
    let cfg = small_config();
    let sup = fast_supervisor();

    // Reference: the same campaign, never interrupted.
    let ref_path = tmp("wedge-reference.journal");
    let mut reference_sweep = SupervisedSweep::new(cfg.clone());
    reference_sweep.supervisor = sup;
    let reference = render_report(
        &cfg,
        &reference_sweep.run(&ref_path).expect("reference run"),
    );

    // The wedged campaign: phase 1 livelocks at frozen virtual time.
    let path = tmp("wedge.journal");
    let mut sweep = SupervisedSweep::new(cfg.clone());
    sweep.supervisor = sup;
    sweep.wedge_at_phase = Some(1);
    let outcome = sweep
        .run(&path)
        .expect("wedged run returns a partial outcome");
    assert!(!outcome.is_complete());
    assert_eq!(
        outcome.phases.len(),
        1,
        "phase 0 completed before the wedge"
    );
    let info = outcome.aborted.as_ref().expect("abort info");
    assert_eq!(info.phase_index, 1);
    assert!(
        info.reason.contains("watchdog"),
        "stall must be the recorded root cause, got: {}",
        info.reason
    );

    // The abort reached the journal before we returned.
    let rec = journal::recover(&path).expect("recover aborted journal");
    assert!(!rec.clean_close);
    let ab = rec.aborted.as_ref().expect("aborted record");
    assert_eq!(ab.phase, 1);
    assert!(ab.reason.contains("watchdog"), "{}", ab.reason);

    // Resume without the wedge: finishes, and the report is
    // byte-identical to the uninterrupted campaign.
    let (recovered_cfg, resumed) = SupervisedSweep::resume(&path, sup).expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed_phases, 1);
    assert_eq!(render_report(&recovered_cfg, &resumed), reference);

    let _ = std::fs::remove_file(&ref_path);
    let _ = std::fs::remove_file(&path);
}
