//! The shard executive's one synchronisation primitive: a
//! sense-reversing barrier with a spin → yield → park backoff.
//!
//! Cross-shard events need nothing of their own here. The executive's
//! access pattern is *barrier-phased* (see `shard.rs`): within a time
//! window exactly one producer thread appends to a mailbox, and the
//! consumer thread empties it only after the next barrier — so a plain
//! `Mutex<Vec<_>>` is never contended, and crossings are well under one
//! percent of events (`BENCH_e17.json`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The barrier reported poisoned: some other worker panicked mid-window
/// and will never arrive. Callers unwind (panic) rather than deadlock.
#[derive(Debug, Clone, Copy)]
pub struct BarrierPoisoned;

/// Spin iterations before the first `yield_now` (cheap, keeps latency
/// minimal when all workers are genuinely running in parallel).
const SPIN_LIMIT: u32 = 64;
/// Yield iterations before escalating to parking. On an oversubscribed
/// host a few yields hand the timeslice to the straggler; only a
/// genuinely long wait (a peer descheduled for a full quantum, or a
/// much larger window on another shard) reaches the park path.
const YIELD_LIMIT: u32 = 256;
/// Park timeout: a pure backstop against any lost-wakeup window — a
/// parked waiter re-checks the sense at least this often even if no
/// unpark ever reaches it.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// A sense-reversing barrier for the shard workers with a three-stage
/// backoff: bounded spin, bounded `yield_now`, then `park_timeout`.
///
/// The simulation must stay correct *and cheap* on a single-core host,
/// where pure spinning burns the whole scheduling quantum of the one
/// runnable worker and even yield-looping keeps N-1 threads runnable
/// at all times. Parked waiters are registered in a wake list; the
/// last arriver (and [`SpinBarrier::poison`]) unparks them. A worker
/// that panics poisons the barrier from its drop guard so its peers
/// return [`BarrierPoisoned`] instead of waiting forever.
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    /// Flipped by the last arriver of each generation.
    sense: AtomicBool,
    poisoned: AtomicBool,
    /// Threads currently parked (or about to park) on this barrier.
    /// Entries may be stale across generations — an unpark token on a
    /// running thread only costs one spurious wake — but never missing:
    /// waiters register *before* their pre-park sense re-check.
    parked: Mutex<Vec<std::thread::Thread>>,
}

impl SpinBarrier {
    /// A barrier for `n` workers. Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            parked: Mutex::new(Vec::new()),
        }
    }

    fn wake_all(&self) {
        for t in self.parked.lock().expect("parked lock poisoned").drain(..) {
            t.unpark();
        }
    }

    /// Block until all `n` workers arrive. `local_sense` is per-worker
    /// state: initialise to `false` and pass the same variable to every
    /// wait on this barrier.
    pub fn wait(&self, local_sense: &mut bool) -> Result<(), BarrierPoisoned> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        let my_sense = !*local_sense;
        *local_sense = my_sense;
        if self.arrived.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            // Last arriver: reset, release the generation, wake anyone
            // who escalated to parking. The wake list is drained under
            // the same lock waiters register under, so a waiter either
            // registered in time (and is unparked here) or registers
            // after this drain — in which case its pre-park re-check,
            // ordered after this store by that same lock, sees the
            // flipped sense and never parks unwoken.
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            self.wake_all();
            return Ok(());
        }
        let mut spins = 0u32;
        let mut registered = false;
        loop {
            if self.sense.load(Ordering::Acquire) == my_sense {
                return Ok(());
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(BarrierPoisoned);
            }
            spins = spins.saturating_add(1);
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else if spins < SPIN_LIMIT + YIELD_LIMIT {
                // On an oversubscribed (or single-core) host the peer
                // we're waiting on needs our timeslice.
                std::thread::yield_now();
            } else if !registered {
                self.parked
                    .lock()
                    .expect("parked lock poisoned")
                    .push(std::thread::current());
                registered = true;
                // Loop back for one more sense/poison check before the
                // first park — closes the register-vs-release race.
            } else {
                std::thread::park_timeout(PARK_TIMEOUT);
            }
        }
    }

    /// Mark the barrier dead: every current and future `wait` returns
    /// [`BarrierPoisoned`]. Called from a panicking worker's drop
    /// guard. Unparks every registered waiter so the poison is
    /// observed promptly, not after a park timeout.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn barrier_synchronizes_counter() {
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let barrier = Arc::new(SpinBarrier::new(n));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let b = barrier.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    let mut sense = false;
                    for round in 1..=10u64 {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait(&mut sense).unwrap();
                        // Between barriers every worker observes the
                        // full round's increments.
                        assert_eq!(c.load(Ordering::SeqCst), round * n as u64);
                        b.wait(&mut sense).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_completes_under_single_core_style_contention() {
        // The `taskset -c 0` regression shape: more workers than any CI
        // host has cores, one deliberate straggler per round that
        // sleeps past the spin *and* yield budgets, so every other
        // worker must reach the park path — and still be woken. A
        // deadlock here hangs the test (caught by the harness timeout);
        // completion is the assertion.
        let n = 4;
        let rounds = 50u64;
        let barrier = Arc::new(SpinBarrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let b = barrier.clone();
                std::thread::spawn(move || {
                    let mut sense = false;
                    for round in 0..rounds {
                        if w as u64 == round % n as u64 {
                            // Straggler: guarantee peers exhaust their
                            // spin/yield budgets and park.
                            std::thread::sleep(Duration::from_micros(300));
                        }
                        b.wait(&mut sense).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let b = barrier.clone();
        let t = std::thread::spawn(move || {
            let mut sense = false;
            b.wait(&mut sense)
        });
        // The peer never arrives; poison instead.
        barrier.poison();
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn poison_releases_every_parked_waiter_and_future_arrivals() {
        // Three of four workers park; the fourth poisons instead of
        // arriving. Every parked waiter must unblock with an error, and
        // the barrier must stay dead for later arrivals — the shard
        // executive relies on both to turn one panicking worker into a
        // clean all-stop instead of a deadlock.
        let barrier = Arc::new(SpinBarrier::new(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let b = barrier.clone();
                std::thread::spawn(move || {
                    let mut sense = false;
                    b.wait(&mut sense)
                })
            })
            .collect();
        // Give the waiters time to escalate into the parked state, so
        // the poison's unpark path (not just the flag) is exercised.
        std::thread::sleep(Duration::from_millis(5));
        barrier.poison();
        for w in waiters {
            assert!(w.join().unwrap().is_err(), "parked waiter not released");
        }
        let mut sense = false;
        assert!(
            barrier.wait(&mut sense).is_err(),
            "poison must be permanent for future waits"
        );
    }

    #[test]
    fn poison_from_unwinding_worker_releases_peer() {
        // The executive's PoisonGuard pattern: a worker that unwinds
        // poisons from its drop guard. The peer parked at the barrier
        // must observe the poison, not spin forever.
        struct Guard(Arc<SpinBarrier>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.poison();
            }
        }
        let barrier = Arc::new(SpinBarrier::new(2));
        let b = barrier.clone();
        let peer = std::thread::spawn(move || {
            let mut sense = false;
            b.wait(&mut sense)
        });
        let b = barrier.clone();
        let dead = std::thread::spawn(move || {
            let _guard = Guard(b);
            panic!("worker died mid-window");
        });
        assert!(dead.join().is_err(), "worker must have panicked");
        assert!(peer.join().unwrap().is_err(), "peer not released");
    }
}
