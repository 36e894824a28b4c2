//! The TCP front-end end to end on a loopback socket: submit, wait,
//! reject, crash-resume byte-identity, and shutdown — the same flow
//! the CI kill-the-worker job drives through `osnt serve` / `osnt
//! submit`.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use osnt_core::SweepConfig;
use osnt_service::{
    serve_listener, serve_on, shutdown_over_tcp, submit_over_tcp, RunService, ServiceConfig,
    SessionOutcome, SessionSpec, SubmitReply,
};
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

#[test]
fn tcp_submit_wait_crash_resume_and_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut spool = std::env::temp_dir();
    spool.push(format!("osnt-service-tcp-{}", std::process::id()));
    let cfg = ServiceConfig {
        workers: 2,
        spool: spool.clone(),
        ..ServiceConfig::default()
    };
    let server = std::thread::spawn(move || serve_listener(listener, cfg).unwrap());

    // Clean session, waited to completion.
    let reference = SessionSpec {
        sweep: tiny_sweep(5),
        ..SessionSpec::new("alice")
    };
    let SubmitReply::Admitted {
        record: Some(clean),
        ..
    } = submit_over_tcp(addr, reference, true).unwrap()
    else {
        panic!("clean submission must be admitted and waited");
    };
    assert_eq!(clean.outcome, SessionOutcome::Completed);
    let clean_report = clean.report.expect("completed sessions carry a report");

    // Same sweep, but the worker is killed mid-session; the resumed
    // retry must produce the identical bytes.
    let victim = SessionSpec {
        sweep: tiny_sweep(5),
        kill_after_appends: Some(2),
        ..SessionSpec::new("alice")
    };
    let SubmitReply::Admitted {
        record: Some(crashed),
        ..
    } = submit_over_tcp(addr, victim, true).unwrap()
    else {
        panic!("victim submission must be admitted and waited");
    };
    assert_eq!(crashed.outcome, SessionOutcome::Completed);
    assert_eq!(crashed.attempts, 2, "one crash, one resumed retry");
    assert_eq!(
        crashed.report.as_deref(),
        Some(clean_report.as_str()),
        "report over TCP must be byte-identical after crash + resume"
    );

    // A structurally bad submission is a typed error, not a hang.
    let mut bad = SessionSpec::new("mallory");
    bad.sweep.loads.clear();
    assert!(submit_over_tcp(addr, bad, false).is_err());

    shutdown_over_tcp(addr).unwrap();
    let service = server.join().unwrap();
    let counts = service.counts();
    assert_eq!(counts.completed, 2);
    assert_eq!(counts.published, 2);
    assert_eq!(counts.retries, 1);
    service.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn tcp_rejection_carries_the_retry_hint() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut spool = std::env::temp_dir();
    spool.push(format!("osnt-service-tcp-rej-{}", std::process::id()));
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 1,
        tenant_queue_cap: 1,
        spool: spool.clone(),
        est_session_cost: Duration::from_millis(7),
        ..ServiceConfig::default()
    };
    let service = Arc::new(RunService::start(cfg).unwrap());
    // Dispatch is held while the burst is submitted, so admission does
    // not race the worker: the first submission takes the one queue
    // slot and every later one finds it full, however fast a session
    // runs.
    service.pause();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_on(listener, &service).unwrap())
    };
    let mut rejections = Vec::new();
    for i in 0..8 {
        let spec = SessionSpec {
            sweep: tiny_sweep(20 + i),
            ..SessionSpec::new("bob")
        };
        if let SubmitReply::Rejected { retry_after } = submit_over_tcp(addr, spec, false).unwrap() {
            rejections.push(retry_after);
        }
    }
    assert_eq!(
        rejections.len(),
        7,
        "an 8-deep burst into a held 1-slot queue admits exactly one"
    );
    for r in &rejections {
        // One session queued ahead of one worker: the wave in the
        // queue plus the submitter's own.
        assert_eq!(*r, Duration::from_millis(14), "hint must cover the backlog");
    }
    service.resume_dispatch();
    shutdown_over_tcp(addr).unwrap();
    server.join().unwrap();
    let counts = service.counts();
    assert_eq!(
        (counts.submitted, counts.admitted, counts.rejected),
        (8, 1, 7)
    );
    assert_eq!(
        counts.completed, 1,
        "the admitted session ran once released"
    );
    let Ok(service) = Arc::try_unwrap(service) else {
        panic!("the server still holds the service");
    };
    service.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}
