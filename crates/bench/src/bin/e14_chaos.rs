//! E14 — deterministic chaos campaign: composed fault schedules,
//! crash-point injection, and the global invariant audit.
//!
//! "Can you trust a number this platform prints?" is an experiment,
//! not an assertion. This harness runs the built-in chaos corpus —
//! bursty loss, corruption storms, reorder+duplicate, GPS holdover,
//! capture overload, control-channel flaps, supervisor crash sweeps and
//! journal torture — across a seed axis, and audits **every** report
//! with the invariant auditor:
//!
//! * packet conservation: every generated frame ends in exactly one
//!   ledger (captured, CRC-failed, fault-dropped, host-dropped, shed);
//! * latency sanity: order statistics ordered, samples causal;
//! * control ledger: offered == dropped + delivered, sink agrees;
//! * crash-resume: every journal append is a crash point; resume is
//!   byte-identical or honestly partial;
//! * journal torture: torn tails and bit flips never panic, never
//!   fabricate.
//!
//! The pass criterion is printed last: **zero violations**. The JSON
//! artifact (`--json PATH`) carries the full tally; it is a
//! correctness record and has no throughput rows.

use osnt_chaos::{run_campaign, CampaignConfig, ChaosPlan};

fn main() {
    let ((seeds, crash_points), artifact) = osnt_bench::flags_or_exit(
        "e14_chaos [--seeds N] [--crash-points true|false] [--json PATH]",
        |args| Ok((args.get("seeds", 4u64)?, args.get("crash-points", true)?)),
    );
    let plan = ChaosPlan::builtin();
    println!(
        "E14: chaos campaign, {} scenarios x {seeds} seeds, crash points: {crash_points}\n",
        plan.scenarios.len(),
    );
    let cfg = CampaignConfig {
        plan,
        seeds,
        crash_points,
        scratch_dir: std::env::temp_dir(),
    };
    let start = std::time::Instant::now();
    let report = run_campaign(&cfg).expect("campaign configuration is valid");
    let wall = start.elapsed().as_secs_f64();
    print!("{}", report.render());
    println!("wall time: {wall:.1}s");

    let scenarios = report
        .scenarios
        .iter()
        .map(|s| {
            let (cp, bi, hp) = s
                .crash
                .map(|c| (c.crash_points, c.byte_identical, c.honest_partial))
                .unwrap_or((0, 0, 0));
            let (tt, tf, tr, th) = s
                .torture
                .map(|t| (t.truncations, t.bit_flips, t.resumed_identical, t.honest_errors))
                .unwrap_or((0, 0, 0, 0));
            format!(
                "{{\"name\":\"{}\",\"runs\":{},\"offered\":{},\"dropped\":{},\"duplicated\":{},\"corrupted\":{},\"reordered\":{},\"capture_shed\":{},\"crash_points\":{cp},\"byte_identical\":{bi},\"honest_partial\":{hp},\"truncations\":{tt},\"bit_flips\":{tf},\"torture_resumed\":{tr},\"torture_honest\":{th}}}",
                s.scenario,
                s.runs,
                s.fault_totals.offered,
                s.fault_totals.dropped,
                s.fault_totals.duplicated,
                s.fault_totals.corrupted,
                s.fault_totals.reordered,
                s.capture_shed,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    artifact.write(
        "e14_chaos",
        1,
        &format!(
            "\"plan\":\"{}\",\"seeds\":{seeds},\"crash_points\":{crash_points},\"runs\":{},\"audited\":{},\"violations\":{},\"wall_s\":{wall:.3},\"scenarios\":[{scenarios}]",
            report.plan,
            report.runs(),
            report.audited,
            report.violations.len(),
        ),
    );

    // The bench *is* the acceptance gate: a dirty audit fails the run.
    assert!(
        report.is_clean(),
        "chaos campaign found {} invariant violation(s):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
    println!("\nPASS: zero invariant violations across the corpus");
}
