//! End-to-end contracts of the multi-tenant run service: admission
//! honesty, deterministic shedding (the service chaos plan's storm
//! pinned by CRC), per-session quota cancellation, crash-retry
//! byte-identity, weighted-fair dispatch, and a ledger that balances
//! under all of it.

use std::path::PathBuf;
use std::time::Duration;

use osnt_chaos::{ChaosPlan, InvariantAuditor};
use osnt_core::SweepConfig;
use osnt_service::{
    Admission, RunService, ServiceConfig, SessionOutcome, SessionQuota, SessionSpec,
};
use osnt_supervisor::crc32;
use osnt_time::SimDuration;

fn spool(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("osnt-service-test-{}-{name}", std::process::id()));
    p
}

/// A sweep small enough that a session is milliseconds of work.
fn tiny_sweep(seed: u64) -> SweepConfig {
    SweepConfig {
        frame_len: 256,
        probe_load: 0.05,
        loads: vec![0.2],
        duration: SimDuration::from_ms(1),
        warmup: SimDuration::from_us(200),
        seed,
    }
}

fn cfg(name: &str) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        spool: spool(name),
        ..ServiceConfig::default()
    }
}

fn spec(tenant: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        sweep: tiny_sweep(seed),
        ..SessionSpec::new(tenant)
    }
}

fn cleanup(cfg: &ServiceConfig) {
    std::fs::remove_dir_all(&cfg.spool).ok();
}

#[test]
fn concurrent_sessions_complete_and_the_ledger_balances() {
    let cfg = cfg("basic");
    let service = RunService::start(cfg.clone()).unwrap();
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let tenant = ["alice", "bob", "carol"][(i % 3) as usize];
        match service.submit(spec(tenant, 100 + i)).unwrap() {
            Admission::Admitted { session } => ids.push(session),
            other => panic!("well under capacity, got {other:?}"),
        }
    }
    service.drain();
    for id in &ids {
        let rec = service.wait(*id).unwrap();
        assert_eq!(rec.outcome, SessionOutcome::Completed, "session {id}");
        assert_eq!(rec.attempts, 1);
        assert!(rec
            .report
            .as_deref()
            .unwrap()
            .contains("supervised latency sweep"));
    }
    let counts = service.counts();
    assert_eq!(counts.submitted, 12);
    assert_eq!(counts.admitted, 12);
    assert_eq!(counts.completed, 12);
    assert_eq!(counts.published, 12);
    assert_eq!(service.publications().len(), 12);
    let mut auditor = InvariantAuditor::new();
    service.audit(&mut auditor, "basic");
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn full_queue_rejects_with_an_honest_retry_hint() {
    let cfg = ServiceConfig {
        queue_cap: 2,
        tenant_queue_cap: 2,
        est_session_cost: Duration::from_millis(10),
        ..cfg("reject")
    };
    let service = RunService::start(cfg.clone()).unwrap();
    service.pause(); // keep the queue state exact
    for _ in 0..2 {
        assert!(matches!(
            service.submit(spec("alice", 1)).unwrap(),
            Admission::Admitted { .. }
        ));
    }
    match service.submit(spec("alice", 2)).unwrap() {
        Admission::Rejected { retry_after } => {
            // Two queued, two workers: one full wave ahead plus the
            // newcomer's own — the estimate must scale with backlog,
            // not be a constant.
            assert_eq!(retry_after, Duration::from_millis(20));
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    let counts = service.counts();
    assert_eq!(
        (counts.submitted, counts.admitted, counts.rejected),
        (3, 2, 1)
    );
    service.resume_dispatch();
    service.drain();
    let mut auditor = InvariantAuditor::new();
    service.audit(&mut auditor, "reject");
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn overload_storm_sheds_deterministically_with_full_accounting() {
    // Run the identical storm twice; the shed set must be identical,
    // and the books must balance both times.
    let run_storm = |tag: &str| {
        let cfg = ServiceConfig {
            queue_cap: 6,
            tenant_queue_cap: 6,
            ..cfg(tag)
        };
        let service = RunService::start(cfg.clone()).unwrap();
        service.pause();
        let mut shed_ids = Vec::new();
        let mut rejected = 0u64;
        // 2× capacity: 6 low-priority fill the queue, then 6 arrivals
        // of mixed priority fight for slots.
        for i in 0..12u64 {
            let mut s = spec(["alice", "bob"][(i % 2) as usize], 50 + i);
            s.priority = if i < 6 { 0 } else { (i % 3) as u8 };
            match service.submit(s).unwrap() {
                Admission::Admitted { session } => {
                    // Track who got displaced so far.
                    let _ = session;
                }
                Admission::Rejected { .. } => rejected += 1,
            }
        }
        let counts = service.counts();
        // Everything admitted-then-displaced has a Shed record already.
        for id in 1..=counts.admitted {
            if let Some(rec) = service.record(id) {
                if matches!(rec.outcome, SessionOutcome::Shed { .. }) {
                    shed_ids.push(id);
                }
            }
        }
        service.resume_dispatch();
        service.drain();
        let counts = service.counts();
        assert_eq!(counts.submitted, 12);
        assert_eq!(counts.admitted + counts.rejected, counts.submitted);
        assert_eq!(
            counts.completed + counts.shed + counts.failed,
            counts.admitted,
            "every admitted session must be accounted"
        );
        assert_eq!(counts.shed as usize, shed_ids.len());
        assert!(counts.shed > 0, "a 2× storm with priorities must shed");
        assert!(rejected > 0, "equal-priority arrivals must be rejected");
        let mut auditor = InvariantAuditor::new();
        service.audit(&mut auditor, tag);
        assert!(
            auditor.violations().is_empty(),
            "{:?}",
            auditor.violations()
        );
        service.shutdown();
        cleanup(&cfg);
        (shed_ids, rejected)
    };
    assert_eq!(run_storm("storm-a"), run_storm("storm-b"));
}

/// The service plan's `overload-storm-2x` into a two-worker service
/// with 16 queue slots, dispatch paused: `factor` × capacity sessions
/// from two tenants alternating every `burst`, three priority classes.
/// Every admit/reject answer, then the ids the storm displaced, go into
/// one CRC; the shed counter must match those ids and the ledger audit
/// (admitted + rejected = submitted, every admitted session ended) must
/// pass.
#[test]
fn the_service_plans_storm_has_its_pinned_decision_crc() {
    let plan = ChaosPlan::service();
    let storm = plan
        .scenarios
        .iter()
        .find(|s| s.name == "overload-storm-2x")
        .and_then(|s| s.lower(plan.base_seed).ok())
        .and_then(|l| l.overload_storm)
        .expect("the service plan carries an overload storm");
    let cfg = ServiceConfig {
        queue_cap: 16,
        tenant_queue_cap: 8,
        ..cfg("storm")
    };
    let service = RunService::start(cfg.clone()).unwrap();
    service.pause();
    let total = ((cfg.queue_cap + cfg.workers) as f64 * storm.factor).ceil() as u64;
    let mut decisions = Vec::new();
    let mut admitted = Vec::new();
    for i in 0..total {
        let tenant = ["alpha", "beta"][(i / u64::from(storm.burst) % 2) as usize];
        let s = SessionSpec {
            priority: (i % 3) as u8,
            ..spec(tenant, i + 1)
        };
        match service.submit(s).unwrap() {
            Admission::Admitted { session } => {
                decisions.push(b'A');
                admitted.push(session);
            }
            Admission::Rejected { .. } => decisions.push(b'R'),
        }
    }
    // Everything admitted-then-displaced has its Shed record already.
    let mut shed = 0;
    for id in admitted {
        if matches!(
            service.record(id).map(|r| r.outcome),
            Some(SessionOutcome::Shed { .. })
        ) {
            decisions.extend_from_slice(&id.to_le_bytes());
            shed += 1;
        }
    }
    assert_eq!(crc32(&decisions), 0x2685_be61);
    service.resume_dispatch();
    service.drain();
    let counts = service.counts();
    assert_eq!(counts.submitted, total);
    assert_eq!(counts.shed, shed, "every shed session has a Shed record");
    let mut auditor = InvariantAuditor::new();
    service.audit(&mut auditor, "storm");
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn quota_cancels_only_the_offending_session() {
    let cfg = cfg("quota-sim");
    let service = RunService::start(cfg.clone()).unwrap();
    // The offender: a long sweep with a simulated-time budget far
    // smaller than its own duration.
    let offender = SessionSpec {
        sweep: SweepConfig {
            duration: SimDuration::from_ms(30),
            loads: vec![0.3, 0.3],
            ..tiny_sweep(9)
        },
        quota: SessionQuota {
            sim_budget: Some(SimDuration::from_us(50)),
            ..SessionQuota::default()
        },
        ..SessionSpec::new("greedy")
    };
    // The sibling: unmetered, running concurrently on the same pool.
    let sibling = spec("frugal", 10);
    let Admission::Admitted { session: bad } = service.submit(offender).unwrap() else {
        panic!("admission expected");
    };
    let Admission::Admitted { session: good } = service.submit(sibling).unwrap() else {
        panic!("admission expected");
    };
    let bad_rec = service.wait(bad).unwrap();
    let good_rec = service.wait(good).unwrap();
    match &bad_rec.outcome {
        SessionOutcome::Failed { reason } => {
            assert!(
                reason.contains("sim-budget"),
                "root cause must name the quota: {reason}"
            );
        }
        other => panic!("over-budget session must fail, got {other:?}"),
    }
    assert_eq!(
        good_rec.outcome,
        SessionOutcome::Completed,
        "the sibling must never feel a neighbour's quota"
    );
    let counts = service.counts();
    assert_eq!((counts.completed, counts.failed), (1, 1));
    assert_eq!(counts.published, 1, "failed sessions publish nothing");
    let mut auditor = InvariantAuditor::new();
    service.audit(&mut auditor, "quota-sim");
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn wall_deadline_cancels_a_slow_session() {
    let cfg = cfg("quota-wall");
    let service = RunService::start(cfg.clone()).unwrap();
    let slow = SessionSpec {
        sweep: SweepConfig {
            duration: SimDuration::from_ms(200),
            loads: vec![0.5, 0.5, 0.5, 0.5],
            ..tiny_sweep(11)
        },
        quota: SessionQuota {
            wall_deadline: Some(Duration::from_millis(20)),
            ..SessionQuota::default()
        },
        ..SessionSpec::new("deadline")
    };
    let Admission::Admitted { session } = service.submit(slow).unwrap() else {
        panic!("admission expected");
    };
    let rec = service.wait(session).unwrap();
    match &rec.outcome {
        SessionOutcome::Failed { reason } => {
            assert!(reason.contains("wall-deadline"), "got: {reason}");
        }
        other => panic!("deadline-blown session must fail, got {other:?}"),
    }
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn capture_cap_degrades_gracefully_instead_of_cancelling() {
    let cfg = cfg("quota-capture");
    let service = RunService::start(cfg.clone()).unwrap();
    let capped = SessionSpec {
        quota: SessionQuota {
            capture_cap: Some(8),
            ..SessionQuota::default()
        },
        ..spec("thrifty", 12)
    };
    let Admission::Admitted { session } = service.submit(capped).unwrap() else {
        panic!("admission expected");
    };
    let rec = service.wait(session).unwrap();
    assert_eq!(
        rec.outcome,
        SessionOutcome::Completed,
        "the capture cap sheds frames, it does not kill the session"
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn crashed_worker_session_resumes_to_a_byte_identical_report() {
    let cfg = ServiceConfig {
        workers: 1,
        ..cfg("crash")
    };
    let service = RunService::start(cfg.clone()).unwrap();
    let sweep = SweepConfig {
        loads: vec![0.1, 0.4],
        ..tiny_sweep(77)
    };
    // Reference: the same sweep, uninterrupted.
    let reference = SessionSpec {
        sweep: sweep.clone(),
        ..SessionSpec::new("ref")
    };
    // Victim: the worker is killed (SIGKILL-equivalent) at the second
    // journal append of the first attempt.
    let victim = SessionSpec {
        sweep,
        kill_after_appends: Some(2),
        ..SessionSpec::new("victim")
    };
    let Admission::Admitted { session: ref_id } = service.submit(reference).unwrap() else {
        panic!("admission expected");
    };
    let Admission::Admitted { session: victim_id } = service.submit(victim).unwrap() else {
        panic!("admission expected");
    };
    let ref_rec = service.wait(ref_id).unwrap();
    let victim_rec = service.wait(victim_id).unwrap();
    assert_eq!(ref_rec.outcome, SessionOutcome::Completed);
    assert_eq!(
        victim_rec.outcome,
        SessionOutcome::Completed,
        "the retry must survive the crash"
    );
    assert_eq!(victim_rec.attempts, 2, "one crash, one resumed retry");
    assert_eq!(
        victim_rec.report, ref_rec.report,
        "resumed report must be byte-identical to the uninterrupted one"
    );
    let counts = service.counts();
    assert_eq!(counts.retries, 1);
    assert_eq!(counts.completed, 2);
    assert_eq!(counts.published, 2, "published exactly once per session");
    let mut auditor = InvariantAuditor::new();
    service.audit(&mut auditor, "crash");
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
    service.shutdown();
    cleanup(&cfg);
}

#[test]
fn dispatch_order_follows_tenant_weights() {
    let cfg = ServiceConfig {
        workers: 1, // serial pool: the dispatch log is the schedule
        queue_cap: 64,
        ..cfg("wfq")
    };
    let service = RunService::start(cfg.clone()).unwrap();
    service.pause();
    let mut heavy = Vec::new();
    for i in 0..10u64 {
        let mut light = spec("light", 200 + i);
        light.weight = 1;
        let mut s = spec("heavy", 300 + i);
        s.weight = 4;
        let Admission::Admitted { session } = service.submit(s).unwrap() else {
            panic!("admission expected");
        };
        heavy.push(session);
        assert!(matches!(
            service.submit(light).unwrap(),
            Admission::Admitted { .. }
        ));
    }
    service.resume_dispatch();
    service.drain();
    let order = service.dispatch_order();
    assert_eq!(order.len(), 20);
    let heavy_early = order[..10].iter().filter(|id| heavy.contains(id)).count();
    assert_eq!(
        heavy_early, 8,
        "weight 4:1 must serve 8:2 over the contended prefix — got {order:?}"
    );
    service.shutdown();
    cleanup(&cfg);
}

/// Three backlogged tenants weighted 1:2:4: over the first half of the
/// dispatch log, while all three still wait, each tenant's dispatches
/// per unit of weight are near-equal (Jain's index of them > 0.95).
#[test]
fn weighted_dispatch_shares_are_fair() {
    let cfg = ServiceConfig {
        queue_cap: 64,
        ..cfg("jain")
    };
    let service = RunService::start(cfg.clone()).unwrap();
    service.pause();
    let weights = [1u32, 2, 4];
    let mut tenant_of = std::collections::HashMap::new();
    for round in 0..10u64 {
        for (t, weight) in (0..).zip(weights) {
            let s = SessionSpec {
                weight,
                ..spec(["bronze", "silver", "gold"][t], round + 1)
            };
            let Admission::Admitted { session } = service.submit(s).unwrap() else {
                panic!("admission expected");
            };
            tenant_of.insert(session, t);
        }
    }
    service.resume_dispatch();
    service.drain();
    let order = service.dispatch_order();
    assert_eq!(order.len(), 30);
    let mut share = [0f64; 3];
    for id in &order[..15] {
        let t = tenant_of[id];
        share[t] += 1.0 / f64::from(weights[t]);
    }
    let sum: f64 = share.iter().sum();
    let jain = sum * sum / (3.0 * share.iter().map(|x| x * x).sum::<f64>());
    assert!(jain > 0.95, "Jain {jain:.4} over {share:?}");
    service.shutdown();
    cleanup(&cfg);
}
