//! E11 — run-journal overhead: the E5 latency sweep run twice, once as
//! a plain unsupervised loop and once under the run supervisor
//! (write-ahead journal + per-phase stall limit + progress heartbeats),
//! and the wall-clock delta reported.
//!
//! The supervisor's pitch is "crash consistency for (almost) free": the
//! journal batches fsyncs, samples are written once per phase, and the
//! heartbeat is one atomic `fetch_max` and a stall check every 64th
//! dispatched event, on the dispatch thread — no other thread runs. This
//! bench is the receipt: it checks that both arms complete and prints
//! the delta as a reading. Nothing is asserted on it — min-of-three
//! wall times drift by more than the 5% budget between runs of one
//! commit — and the journal's cost is measured, normalised, by
//! `e0_pipeline`'s `supervisor.journal.{ns,bytes}_per_append` probes.
//!
//! `--json PATH` writes `{off_ms, on_ms, delta_pct, journal_bytes}`.

use osnt_bench::Table;
use osnt_core::experiment::LatencyExperiment;
use osnt_core::sweep::{SupervisedSweep, SweepConfig};
use osnt_switch::LegacyConfig;
use osnt_time::SimDuration;

const REPS: usize = 3;

fn sweep_config() -> SweepConfig {
    // A paper-scale sweep (Fig. 2's load axis at the default 20 ms
    // phases), not a toy: per-run fixed costs (journal create, final
    // fsync) must amortize the way they would in a real campaign for the
    // reading to mean anything.
    SweepConfig {
        frame_len: 512,
        probe_load: 0.02,
        loads: vec![0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0],
        duration: SimDuration::from_ms(20),
        warmup: SimDuration::from_ms(5),
        seed: 11,
    }
}

/// Journal-off arm: the sweep as a user would write it by hand — no
/// supervisor, no journal, no heartbeat probe.
fn run_off(cfg: &SweepConfig) -> f64 {
    let t0 = std::time::Instant::now();
    for &load in &cfg.loads {
        let exp = LatencyExperiment {
            frame_len: cfg.frame_len,
            probe_load: cfg.probe_load,
            background_load: load,
            duration: cfg.duration,
            warmup: cfg.warmup,
            seed: cfg.seed,
            ..LatencyExperiment::default()
        };
        let r = exp
            .run_legacy(LegacyConfig::default())
            .expect("plain sweep");
        assert!(r.latency.is_some(), "sweep produced no samples");
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Journal-on arm: the identical sweep under full supervision.
fn run_on(cfg: &SweepConfig, journal: &std::path::Path) -> (f64, u64) {
    let _ = std::fs::remove_file(journal);
    let sweep = SupervisedSweep::new(cfg.clone());
    let t0 = std::time::Instant::now();
    let outcome = sweep.run(journal).expect("supervised sweep");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(outcome.is_complete(), "supervised sweep did not complete");
    let bytes = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
    (ms, bytes)
}

fn main() {
    let ((), artifact) =
        osnt_bench::flags_or_exit("e11_journal_overhead [--json PATH]", |_| Ok(()));
    let cfg = sweep_config();
    let mut journal = std::env::temp_dir();
    journal.push(format!("osnt-e11-{}.journal", std::process::id()));

    println!(
        "E11: journal overhead, {} loads x {} @ frame {} B, {REPS} reps (min taken)\n",
        cfg.loads.len(),
        cfg.duration,
        cfg.frame_len
    );

    // Interleave the arms so slow-machine drift hits both equally;
    // keep the minimum of each (the least-perturbed observation).
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut journal_bytes = 0;
    for _ in 0..REPS {
        off_ms = off_ms.min(run_off(&cfg));
        let (ms, bytes) = run_on(&cfg, &journal);
        on_ms = on_ms.min(ms);
        journal_bytes = bytes;
    }
    let _ = std::fs::remove_file(&journal);
    let delta_pct = (on_ms - off_ms) / off_ms * 100.0;

    let mut table = Table::new(["arm", "wall(ms)", "journal bytes"]);
    table.row(["journal off".into(), format!("{off_ms:.2}"), "-".into()]);
    table.row([
        "journal on".into(),
        format!("{on_ms:.2}"),
        journal_bytes.to_string(),
    ]);
    table.print();
    println!("\nsupervision overhead: {delta_pct:+.2}% (a reading, not a gate)");

    artifact.write(
        "e11_journal_overhead",
        REPS,
        &format!(
            "\"reps\":{REPS},\"off_ms\":{off_ms:.3},\"on_ms\":{on_ms:.3},\
             \"delta_pct\":{delta_pct:.3},\"journal_bytes\":{journal_bytes}"
        ),
    );
}
