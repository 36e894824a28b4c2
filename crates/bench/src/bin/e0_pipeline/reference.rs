//! The reference kernel: a fixed piece of bench-local work whose wall
//! time says how fast this machine is *right now*.
//!
//! The reference host is a 2-vCPU VM on shared hardware. Neighbours on
//! the same cores and caches slow it by up to 1.6× for seconds to
//! minutes at a time: identical reps of one workload spread 20–35 % in
//! wall time, and medians of whole 20 s runs still 10–30 %. What does
//! repeat is wall time *relative to this kernel*, run every few tens
//! of milliseconds around and between the slices of a rep: both see
//! the same contention, and over a run their ratio repeats within a few
//! percent (the series is in `scripts/e0/README.md`).
//!
//! The kernel churns a hash table it allocated once, before the first
//! rep: insert a key, remove the key inserted [`LIVE`] steps earlier.
//! Hashing, probing a table that outgrows the L1 cache and fits the L2,
//! compare and branch is the mix a simulator rep is made of, and the
//! kernel slows down with the workloads where a pure ALU chain, a
//! pointer chase and a fill-and-copy ring each tracked them at best
//! half as well. After that one allocation it never calls the
//! allocator, so its time cannot depend on the heap a rep leaves behind
//! (an earlier allocate-fill-free kernel tracked as well, but now and
//! then ran 1.6–1.8× slow for a whole process with the workload at its
//! usual speed). It shares the caches with the product, like everything
//! in the process; it shares no code and no memory with it.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Insert-and-remove steps per burst.
const STEPS: u64 = 150_000;
/// Keys alive at once: with the table's spare room ~0.5 MiB, resident
/// in the private L2 cache like a busy simulation's event queue.
const LIVE: u64 = 8192;

/// One burst's wall time on the reference host when nothing contends
/// for it. Only a unit: it scales every normalized time alike.
pub const NOMINAL: Duration = Duration::from_micros(3_000);

/// Fixed hash keys: every burst of every process does the same work.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

thread_local! {
    /// Sized so that churning [`LIVE`] keys never grows it.
    static TABLE: RefCell<Table> =
        RefCell::new(Table::with_capacity_and_hasher(2 * LIVE as usize, Default::default()));
}

/// Run one burst of the kernel; returns its wall time.
pub fn burst() -> Duration {
    // Spread the keys over the table.
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    TABLE.with_borrow_mut(|table| {
        let t = Instant::now();
        table.clear();
        for i in 0..STEPS {
            table.insert(key(i), i);
            if i >= LIVE {
                black_box(table.remove(&key(i - LIVE)));
            }
        }
        t.elapsed()
    })
}

/// How much slower than nominal the machine ran, from the bursts taken
/// around and inside one rep.
pub fn slowdown(bursts: &[Duration]) -> f64 {
    let mean = bursts.iter().sum::<Duration>().as_secs_f64() / bursts.len() as f64;
    mean / NOMINAL.as_secs_f64()
}
