//! Forced-contention stress coverage for the shard executive's
//! synchronisation: `SpinBarrier` poison propagation, and the
//! barrier-phased mailbox hand-off the executive builds on it. The unit
//! tests in `sync.rs` pin the semantics under friendly schedules; these
//! loops hammer the *unfriendly* ones — more workers than cores, and
//! barriers whose workers die mid-window at every possible round.

use osnt_netsim::SpinBarrier;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// How hard to push. Override with OSNT_SYNC_STRESS for soak runs.
fn stress_iters(default: u64) -> u64 {
    std::env::var("OSNT_SYNC_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn barrier_full_rounds_under_oversubscription() {
    // More workers than the host has cores (CI runners are often
    // 1-core) forces the yield path; every round's increments must be
    // visible to every worker between barriers, hundreds of times.
    let workers = 8usize;
    let rounds = stress_iters(300);
    let barrier = Arc::new(SpinBarrier::new(workers));
    let counter = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                let mut sense = false;
                for round in 1..=rounds {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(&mut sense).unwrap();
                    assert_eq!(counter.load(Ordering::SeqCst), round * workers as u64);
                    barrier.wait(&mut sense).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn barrier_poison_releases_workers_at_every_round() {
    // Sweep the kill point: one worker dies (unwinds through its
    // poison guard) at round k while its peers are mid-rendezvous.
    // Every survivor must return `BarrierPoisoned` — at whatever round
    // it happens to be parked in — and never deadlock. This is the
    // executive's one-panic-means-clean-all-stop contract under every
    // phase alignment, not just the first.
    struct PoisonGuard(Arc<SpinBarrier>);
    impl Drop for PoisonGuard {
        fn drop(&mut self) {
            self.0.poison();
        }
    }
    let sweeps = stress_iters(20);
    for kill_round in 0..sweeps {
        let workers = 4usize;
        let barrier = Arc::new(SpinBarrier::new(workers));
        let released = Arc::new(AtomicUsize::new(0));
        let survivors: Vec<_> = (0..workers - 1)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let released = Arc::clone(&released);
                thread::spawn(move || {
                    let mut sense = false;
                    loop {
                        if barrier.wait(&mut sense).is_err() {
                            released.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                    }
                })
            })
            .collect();
        let dying = {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let guard = PoisonGuard(Arc::clone(&barrier));
                let mut sense = false;
                for _ in 0..kill_round {
                    if barrier.wait(&mut sense).is_err() {
                        unreachable!("nobody else poisons");
                    }
                }
                drop(guard); // the unwind path, without the panic noise
            })
        };
        dying.join().unwrap();
        for s in survivors {
            s.join().unwrap();
        }
        assert_eq!(
            released.load(Ordering::SeqCst),
            workers - 1,
            "kill at round {kill_round}: every survivor must be released"
        );
        let mut sense = false;
        assert!(
            barrier.wait(&mut sense).is_err(),
            "kill at round {kill_round}: poison must be permanent"
        );
    }
}

#[test]
fn ring_and_barrier_compose_like_the_executive() {
    // A miniature two-worker shard executive: each window, worker A
    // posts a burst into its mailbox (one lock per entry, as
    // `ShardRouter::send` does), both meet at the barrier, worker B
    // empties it and checks, both meet again. Any missing, duplicated
    // or reordered entry means the lock/barrier pair failed to publish.
    let windows = stress_iters(1_000);
    let mailbox = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(SpinBarrier::new(2));
    let producer = {
        let mailbox = Arc::clone(&mailbox);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let mut sense = false;
            let mut next = 0u64;
            for _ in 0..windows {
                for _ in 0..5 {
                    mailbox.lock().unwrap().push(next);
                    next += 1;
                }
                barrier.wait(&mut sense).unwrap(); // burst published
                barrier.wait(&mut sense).unwrap(); // drain finished
            }
        })
    };
    let mut sense = false;
    let mut expect = 0u64;
    let mut out = Vec::new();
    for window in 0..windows {
        barrier.wait(&mut sense).unwrap();
        out.append(&mut mailbox.lock().unwrap());
        assert_eq!(
            out,
            (expect..expect + 5).collect::<Vec<_>>(),
            "window {window}: burst must arrive whole and in order"
        );
        out.clear();
        expect += 5;
        assert!(mailbox.lock().unwrap().is_empty());
        barrier.wait(&mut sense).unwrap();
    }
    producer.join().unwrap();
}
