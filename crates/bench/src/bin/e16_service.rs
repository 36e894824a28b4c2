//! E16 — the multi-tenant run service under load, overload, and crashes.
//!
//! The paper's platform is a shared instrument; this harness measures
//! the service layer that makes sharing safe. Three legs, each audited
//! by the chaos crate's `InvariantAuditor` session ledger
//! (`admitted + rejected == submitted`,
//! `completed + shed + failed == admitted`, `published == completed`):
//!
//! 1. **throughput & fairness** — ≥200 concurrent tiny sessions from
//!    three tenants with weights 1:2:4 through a bounded worker pool;
//!    reports sessions/sec and the Jain fairness index of
//!    weight-normalised dispatch shares over the contended prefix
//!    (ideal = 1.0);
//! 2. **overload storm** — a 2x-capacity burst (parameters from
//!    `ChaosPlan::service()`'s `overload-storm-2x` scenario) into a
//!    deliberately small service; sheds must be deterministic (the
//!    same seed twice yields the identical shed set, pinned by CRC),
//!    and every submission must be accounted for;
//! 3. **crash-resume** — a worker killed mid-session (scenario
//!    `worker-kill-mid-session`) retries with backoff, resumes from
//!    the journal, and publishes a report byte-identical to an
//!    uninterrupted run, exactly once.
//!
//! The JSON artifact (`--json PATH`) carries one rate row
//! (`sessions_per_wall_s`, a reading) plus the audit tallies; a dirty
//! audit fails the bench itself.

use std::time::Instant;

use osnt_chaos::{ChaosPlan, InvariantAuditor, OverloadStorm};
use osnt_core::SweepConfig;
use osnt_service::{Admission, RunService, ServiceConfig, SessionOutcome, SessionSpec};
use osnt_supervisor::crc32;
use osnt_time::SimDuration;

fn tiny_sweep(seed: u64) -> SweepConfig {
    SweepConfig {
        frame_len: 256,
        probe_load: 0.05,
        loads: vec![0.1, 0.4],
        duration: SimDuration::from_ms(1),
        warmup: SimDuration::from_us(200),
        seed,
    }
}

fn spool(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("osnt-e16-{tag}-{}", std::process::id()));
    p
}

struct ThroughputLeg {
    sessions: usize,
    workers: usize,
    wall_s: f64,
    rate: f64,
    jain: f64,
    completed: u64,
}

/// Leg 1: a three-tenant backlog through the pool, dispatch order
/// frozen against worker timing by pausing during submission.
fn throughput_leg(
    sessions: usize,
    workers: usize,
    auditor: &mut InvariantAuditor,
) -> ThroughputLeg {
    let tenants = [("bronze", 1u32), ("silver", 2), ("gold", 4)];
    let per_tenant = sessions / tenants.len();
    let dir = spool("tput");
    let service = RunService::start(ServiceConfig {
        workers,
        queue_cap: sessions + 8,
        tenant_queue_cap: per_tenant + 8,
        spool: dir.clone(),
        ..ServiceConfig::default()
    })
    .expect("service starts");

    service.pause();
    let mut ids: Vec<(u64, &str)> = Vec::new();
    // Round-robin submission so every tenant is backlogged from the
    // first dispatch — the fairness measurement needs contention, not
    // a head start.
    for round in 0..per_tenant {
        for (name, weight) in tenants {
            let spec = SessionSpec {
                weight,
                sweep: tiny_sweep(round as u64 + 1),
                ..SessionSpec::new(name)
            };
            match service.submit(spec).expect("valid spec") {
                Admission::Admitted { session } => ids.push((session, name)),
                Admission::Rejected { .. } => panic!("sized queue must admit the backlog"),
            }
        }
    }
    let start = Instant::now();
    service.resume_dispatch();
    service.drain();
    let wall_s = start.elapsed().as_secs_f64();

    let counts = service.counts();
    service.audit(auditor, "e16 throughput");
    let completed = counts.completed;

    // Jain index over weight-normalised dispatch shares in the
    // contended prefix. With per-tenant backlogs of `per_tenant` and
    // weights 1:2:4, the heaviest tenant drains first at dispatch
    // ~per_tenant * 7/4; half the total is safely inside contention.
    let order = service.dispatch_order();
    let by_id: std::collections::HashMap<u64, &str> = ids.iter().cloned().collect();
    let prefix = order.len() / 2;
    let mut share = [0f64; 3];
    for id in &order[..prefix] {
        let name = by_id[id];
        let slot = tenants.iter().position(|(n, _)| *n == name).unwrap();
        share[slot] += 1.0 / f64::from(tenants[slot].1);
    }
    let sum: f64 = share.iter().sum();
    let sq: f64 = share.iter().map(|x| x * x).sum();
    let jain = (sum * sum) / (share.len() as f64 * sq);

    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    ThroughputLeg {
        sessions: ids.len(),
        workers,
        wall_s,
        rate: completed as f64 / wall_s,
        jain,
        completed,
    }
}

struct StormOutcome {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    digest: u32,
}

/// One storm run: `factor` times total capacity submitted in bursts of
/// `burst` while dispatch is paused, so every admission/shed decision
/// is a pure function of the submission sequence.
fn storm_once(storm: &OverloadStorm, tag: &str, auditor: &mut InvariantAuditor) -> StormOutcome {
    let workers = 2usize;
    let queue_cap = 16usize;
    let dir = spool(tag);
    let service = RunService::start(ServiceConfig {
        workers,
        queue_cap,
        tenant_queue_cap: 8,
        spool: dir.clone(),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    service.pause();

    let capacity = queue_cap + workers;
    let total = ((capacity as f64) * storm.factor).ceil() as usize;
    let mut decisions: Vec<u8> = Vec::new();
    let mut submitted_ids = Vec::new();
    for i in 0..total {
        // Two tenants, three priority classes, interleaved in bursts.
        let tenant = if (i / storm.burst as usize).is_multiple_of(2) {
            "alpha"
        } else {
            "beta"
        };
        let spec = SessionSpec {
            priority: (i % 3) as u8,
            sweep: tiny_sweep(i as u64 + 1),
            ..SessionSpec::new(tenant)
        };
        match service.submit(spec).expect("valid spec") {
            Admission::Admitted { session } => {
                decisions.push(b'A');
                submitted_ids.push(session);
            }
            Admission::Rejected { .. } => decisions.push(b'R'),
        }
    }
    // The storm's displacement decisions are visible as Shed records of
    // already-assigned ids; fold them into the digest in id order.
    let mut shed_ids: Vec<u64> = submitted_ids
        .iter()
        .filter(|id| {
            matches!(
                service.record(**id).map(|r| r.outcome),
                Some(SessionOutcome::Shed { .. })
            )
        })
        .copied()
        .collect();
    shed_ids.sort_unstable();
    for id in &shed_ids {
        decisions.extend_from_slice(&id.to_le_bytes());
    }

    service.resume_dispatch();
    service.drain();
    let counts = service.counts();
    service.audit(auditor, &format!("e16 storm {tag}"));
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    StormOutcome {
        submitted: counts.submitted,
        admitted: counts.admitted,
        rejected: counts.rejected,
        shed: counts.shed,
        digest: crc32(&decisions),
    }
}

struct CrashLeg {
    attempts: u32,
    retries: u64,
    byte_identical: bool,
}

/// Leg 3: a clean reference run, then the same sweep with the worker
/// killed after `after_appends` journal appends.
fn crash_leg(after_appends: u64, auditor: &mut InvariantAuditor) -> CrashLeg {
    let dir = spool("crash");
    let service = RunService::start(ServiceConfig {
        workers: 2,
        spool: dir.clone(),
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let submit_wait = |spec: SessionSpec| -> osnt_service::SessionRecord {
        match service.submit(spec).expect("valid spec") {
            Admission::Admitted { session } => service.wait(session).expect("session finishes"),
            Admission::Rejected { .. } => panic!("empty service must admit"),
        }
    };
    let clean = submit_wait(SessionSpec {
        sweep: tiny_sweep(9),
        ..SessionSpec::new("ref")
    });
    let crashed = submit_wait(SessionSpec {
        sweep: tiny_sweep(9),
        kill_after_appends: Some(after_appends),
        ..SessionSpec::new("victim")
    });
    assert_eq!(
        clean.outcome,
        SessionOutcome::Completed,
        "reference run completes"
    );
    assert_eq!(
        crashed.outcome,
        SessionOutcome::Completed,
        "crashed run resumes"
    );
    let byte_identical = clean.report == crashed.report && clean.report.is_some();

    service.drain();
    let counts = service.counts();
    service.audit(auditor, "e16 crash-resume");
    assert_eq!(
        counts.published, counts.completed,
        "at-most-once publication"
    );
    let retries = counts.retries;
    let attempts = crashed.attempts;
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    CrashLeg {
        attempts,
        retries,
        byte_identical,
    }
}

fn main() {
    let ((sessions, workers), artifact) = osnt_bench::flags_or_exit(
        "e16_service [--sessions N] [--workers N] [--json PATH]",
        |args| {
            Ok((
                args.get("sessions", 210usize)?,
                args.get("workers", 4usize)?,
            ))
        },
    );

    let plan = ChaosPlan::service();
    let storm = plan
        .scenarios
        .iter()
        .find(|s| s.name == "overload-storm-2x")
        .and_then(|s| s.lower(plan.base_seed).ok())
        .and_then(|l| l.overload_storm)
        .expect("service plan carries an overload storm");
    let kill_after = plan
        .scenarios
        .iter()
        .find(|s| s.name == "worker-kill-mid-session")
        .and_then(|s| s.lower(plan.base_seed).ok())
        .and_then(|l| l.worker_kill)
        .expect("service plan carries a worker kill");

    let mut auditor = InvariantAuditor::new();

    println!("E16: multi-tenant run service\n");
    println!("Part 1: {sessions} sessions, 3 tenants (weights 1:2:4), {workers} workers");
    let tput = throughput_leg(sessions, workers, &mut auditor);
    println!(
        "  completed {}/{} in {:.2}s -> {:.1} sessions/s, Jain fairness {:.4}\n",
        tput.completed, tput.sessions, tput.wall_s, tput.rate, tput.jain
    );
    assert!(
        tput.jain > 0.95,
        "weighted-fair dispatch must be near-ideal, got Jain {:.4}",
        tput.jain
    );

    println!(
        "Part 2: overload storm, {}x capacity in bursts of {} (plan `{}`)",
        storm.factor, storm.burst, plan.name
    );
    let a = storm_once(&storm, "storm-a", &mut auditor);
    let b = storm_once(&storm, "storm-b", &mut auditor);
    println!(
        "  run A: submitted {} = admitted {} + rejected {}; shed {}; decision digest {:08x}",
        a.submitted, a.admitted, a.rejected, a.shed, a.digest
    );
    println!(
        "  run B: submitted {} = admitted {} + rejected {}; shed {}; decision digest {:08x}",
        b.submitted, b.admitted, b.rejected, b.shed, b.digest
    );
    assert_eq!(
        a.digest, b.digest,
        "same seed, same storm -> identical shed decisions"
    );
    assert!(a.rejected + a.shed > 0, "a 2x storm must actually overload");
    println!("  deterministic: digests match\n");

    println!("Part 3: worker killed after {kill_after} journal appends");
    let crash = crash_leg(kill_after, &mut auditor);
    println!(
        "  attempts {}, retries {}, byte-identical report: {}\n",
        crash.attempts, crash.retries, crash.byte_identical
    );
    assert!(
        crash.byte_identical,
        "resumed report must match the clean run byte for byte"
    );
    assert_eq!(crash.attempts, 2, "one crash, one resumed retry");

    let violations = auditor.violations().len();
    let audited = auditor.audited();

    artifact.write(
        "e16_service",
        1,
        &format!(
            "\"plan\":\"{}\",\"audited\":{audited},\"violations\":{violations},\
\"results\":[{{\"phase\":\"throughput\",\"sessions\":{},\"tenants\":3,\"workers\":{},\
\"wall_s\":{:.3},\"sessions_per_wall_s\":{:.1},\"jain_fairness\":{:.4}}}],\
\"storm\":{{\"factor\":{},\"burst\":{},\"submitted\":{},\"admitted\":{},\"rejected\":{},\"shed\":{},\
\"digest\":\"{:08x}\",\"deterministic\":{}}},\
\"crash\":{{\"after_appends\":{kill_after},\"attempts\":{},\"retries\":{},\"byte_identical\":{}}}",
            plan.name,
            tput.sessions,
            tput.workers,
            tput.wall_s,
            tput.rate,
            tput.jain,
            storm.factor,
            storm.burst,
            a.submitted,
            a.admitted,
            a.rejected,
            a.shed,
            a.digest,
            a.digest == b.digest,
            crash.attempts,
            crash.retries,
            crash.byte_identical,
        ),
    );

    assert_eq!(
        violations, 0,
        "session-ledger audit must be clean, got {violations} violation(s)"
    );
    println!("PASS: {audited} invariants audited, zero violations");
}
