//! Streaming latency statistics: O(1)-memory summaries of
//! unbounded sample streams.
//!
//! [`crate::Summary::from_durations`] buffers every sample, sorts, and
//! reads percentiles off the sorted array — O(n) memory and O(n log n)
//! time, which is exactly what makes million-packet sweeps
//! allocation-bound. [`StreamingSummary`] folds each sample into fixed
//! state instead:
//!
//! * **count / min / max** — exact, trivially.
//! * **mean** — an ordered running sum, so the result is *bit-identical*
//!   to `Summary`'s sequential `iter().sum() / n`.
//! * **stddev** — Welford's online algorithm (numerically better than
//!   the textbook two-pass on long streams; agrees with `Summary` to
//!   floating-point association).
//! * **jitter** — the RFC 3550-style mean absolute consecutive
//!   difference, accumulated in arrival order (bit-identical to
//!   `Summary`).
//! * **p50/p90/p99** — an HDR-style log-linear histogram: exact 1 ps
//!   buckets below 128 ps, then 128 sub-buckets per octave. A bucket
//!   spanning width `w` starting at `lo ≥ 128·w` reports its midpoint,
//!   so the relative quantile error is at most `(w−1)/2 / lo ≤ 1/256 ≈
//!   0.39%` — comfortably inside the documented ≤ 1% bound. The bucket
//!   array is allocated once up front (58 KiB); recording a sample never
//!   allocates.
//!
//! Summaries [`merge`](StreamingSummary::merge) across runs:
//! count/min/max and the histogram (hence percentiles) combine exactly
//! and order-independently; mean/stddev combine by Chan's parallel
//! update (order-independent up to floating-point association); jitter
//! concatenates the two sequences, which is inherently
//! sequence-dependent — merge in run order when jitter matters.

use crate::latency::Summary;
use osnt_time::SimDuration;

/// Picoseconds below which every bucket is exact (width 1 ps).
const EXACT: u64 = 128;
/// Sub-buckets per octave above the exact range.
const SUBS: u64 = 128;
/// log2(EXACT): the exponent where the log-linear range starts.
const EXACT_BITS: u32 = 7;
/// Total bucket count: 128 exact + 128 per octave for exponents 7..=63.
const NUM_BUCKETS: usize = (EXACT + (64 - EXACT_BITS as u64) * SUBS) as usize;

/// Index of the histogram bucket containing `ps`. Monotone in `ps`, so
/// the rank-`k` sorted sample always lands in the bucket the cumulative
/// walk of [`StreamingSummary::quantile`] stops at.
#[inline]
fn bucket_index(ps: u64) -> usize {
    if ps < EXACT {
        return ps as usize;
    }
    let e = 63 - ps.leading_zeros(); // e >= 7
    let block = (e - EXACT_BITS) as u64;
    (EXACT + block * SUBS + ((ps >> block) & (SUBS - 1))) as usize
}

/// Inclusive lower bound and width (ps) of bucket `i`.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < EXACT {
        return (i, 1);
    }
    let block = (i - EXACT) / SUBS;
    let sub = (i - EXACT) % SUBS;
    ((EXACT + sub) << block, 1 << block)
}

/// Streaming summary of a latency-sample stream: exact
/// count/min/max/mean/jitter, Welford stddev, histogram-derived
/// percentiles with ≤ 1% relative error (actual bound 1/256). Fixed
/// memory; recording a sample never allocates. See the module docs for
/// the full design and error argument.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    count: u64,
    min_ps: u64,
    max_ps: u64,
    /// Ordered running sum of samples in ns — keeps the mean
    /// bit-identical to `Summary`'s sequential sum.
    sum_ns: f64,
    /// Welford running mean (ns) — used only to drive `m2`.
    mean: f64,
    /// Welford sum of squared deviations (ns²).
    m2: f64,
    first_ns: f64,
    last_ns: f64,
    jitter_sum_ns: f64,
    buckets: Vec<u64>,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::new()
    }
}

impl StreamingSummary {
    /// An empty summary. Allocates the full bucket array up front; this
    /// is the only allocation the summary ever makes.
    pub fn new() -> Self {
        StreamingSummary {
            count: 0,
            min_ps: u64::MAX,
            max_ps: 0,
            sum_ns: 0.0,
            mean: 0.0,
            m2: 0.0,
            first_ns: 0.0,
            last_ns: 0.0,
            jitter_sum_ns: 0.0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Fold in one sample (in arrival order — jitter is
    /// sequence-sensitive).
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.record_ps(d.as_ps());
    }

    /// [`StreamingSummary::record`] on a raw picosecond value.
    #[inline]
    pub fn record_ps(&mut self, ps: u64) {
        let ns = ps as f64 / 1000.0;
        self.count += 1;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
        self.sum_ns += ns;
        let delta = ns - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (ns - self.mean);
        if self.count == 1 {
            self.first_ns = ns;
        } else {
            self.jitter_sum_ns += (ns - self.last_ns).abs();
        }
        self.last_ns = ns;
        self.buckets[bucket_index(ps)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Heap bytes held by the summary — constant from construction
    /// (used by the e12 bench to demonstrate the no-per-sample-
    /// allocation property over a ≥ 1M-sample sweep).
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * core::mem::size_of::<u64>()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, `None` when
    /// empty. Uses the same nearest-rank convention as
    /// [`Summary::from_durations`] (`rank = round((n−1)·q)`), then
    /// reports the midpoint of the bucket holding that rank, clamped to
    /// the exact `[min, max]` envelope — relative error ≤ 1/256.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (lo, w) = bucket_bounds(i);
                let mid_ns = (lo + (w - 1) / 2) as f64 / 1000.0;
                let min_ns = self.min_ps as f64 / 1000.0;
                let max_ns = self.max_ps as f64 / 1000.0;
                return Some(mid_ns.clamp(min_ns, max_ns));
            }
        }
        unreachable!("count > 0 but histogram empty");
    }

    /// Render the stream as a [`Summary`], `None` when empty.
    /// count/min/max/mean/jitter are exact (bit-identical to
    /// `Summary::from_durations` over the same sequence); stddev agrees
    /// to floating-point association; p50/p90/p99 carry the ≤ 1/256
    /// histogram error.
    pub fn finish(&self) -> Option<Summary> {
        if self.count == 0 {
            return None;
        }
        let count = self.count as usize;
        let jitter = if self.count > 1 {
            self.jitter_sum_ns / (self.count - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            count,
            min_ns: self.min_ps as f64 / 1000.0,
            max_ns: self.max_ps as f64 / 1000.0,
            mean_ns: self.sum_ns / self.count as f64,
            stddev_ns: (self.m2 / self.count as f64).max(0.0).sqrt(),
            p50_ns: self.quantile(0.50).expect("non-empty"),
            p90_ns: self.quantile(0.90).expect("non-empty"),
            p99_ns: self.quantile(0.99).expect("non-empty"),
            jitter_ns: jitter,
        })
    }

    /// Fold `other` into `self` as if `other`'s samples were recorded
    /// after `self`'s (run merge). count/min/max and the histogram
    /// combine exactly regardless of merge order; mean/stddev combine
    /// by Chan's update (order-independent up to f64 association);
    /// jitter gains the single boundary term `|other.first − self.last|`
    /// — the one quantity that genuinely depends on concatenation order.
    pub fn merge(&mut self, other: &StreamingSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / (n1 + n2);
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.sum_ns += other.sum_ns;
        self.jitter_sum_ns += other.jitter_sum_ns + (other.first_ns - self.last_ns).abs();
        self.last_ns = other.last_ns;
        self.count += other.count;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(samples: &[u64]) -> StreamingSummary {
        let mut s = StreamingSummary::new();
        for &ps in samples {
            s.record_ps(ps);
        }
        s
    }

    fn exact(samples: &[u64]) -> Summary {
        let d: Vec<SimDuration> = samples.iter().map(|&p| SimDuration::from_ps(p)).collect();
        Summary::from_durations(&d).unwrap()
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Every boundary of the log-linear layout, plus neighbours.
        let mut probes = vec![0u64, 1, 126, 127, 128, 129, 255, 256, 257];
        for e in 8..63 {
            let p = 1u64 << e;
            probes.extend_from_slice(&[p - 1, p, p + 1]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        probes.dedup();
        let mut last = None;
        for &ps in &probes {
            let i = bucket_index(ps);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {ps}");
            let (lo, w) = bucket_bounds(i);
            assert!(
                lo <= ps && (ps - lo) < w,
                "ps {ps} outside its bucket [{lo}, {lo}+{w})"
            );
            if let Some(prev) = last {
                assert!(i >= prev, "index not monotone at {ps}");
            }
            last = Some(i);
        }
        // The first log-linear bucket continues the exact range.
        assert_eq!(bucket_index(127), 127);
        assert_eq!(bucket_index(128), 128);
    }

    #[test]
    fn exact_fields_match_summary_bit_for_bit() {
        let samples = [100_000u64, 200_000, 300_000, 400_000, 500_000];
        let e = exact(&samples);
        let s = stream(&samples).finish().unwrap();
        assert_eq!(s.count, e.count);
        assert_eq!(s.min_ns, e.min_ns);
        assert_eq!(s.max_ns, e.max_ns);
        assert_eq!(s.mean_ns, e.mean_ns);
        assert_eq!(s.jitter_ns, e.jitter_ns);
        assert!((s.stddev_ns - e.stddev_ns).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_within_the_documented_bound() {
        // A wide spread exercises many octaves.
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * i * 997).collect();
        let e = exact(&samples);
        let s = stream(&samples).finish().unwrap();
        for (got, want) in [
            (s.p50_ns, e.p50_ns),
            (s.p90_ns, e.p90_ns),
            (s.p99_ns, e.p99_ns),
        ] {
            let rel = (got - want).abs() / want;
            assert!(rel <= 1.0 / 256.0 + 1e-12, "rel error {rel}");
        }
    }

    #[test]
    fn empty_and_single_sample_edges() {
        assert!(StreamingSummary::new().finish().is_none());
        assert!(StreamingSummary::new().quantile(0.5).is_none());
        let s = stream(&[42_000]).finish().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ns, 42.0);
        assert_eq!(s.p99_ns, 42.0, "clamped to the exact envelope");
        assert_eq!(s.jitter_ns, 0.0);
    }

    #[test]
    fn merge_equals_one_stream() {
        let all: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 1_000_000 + 1).collect();
        let (a, b) = all.split_at(313);
        let mut merged = stream(a);
        merged.merge(&stream(b));
        let whole = stream(&all);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min_ps, whole.min_ps);
        assert_eq!(merged.max_ps, whole.max_ps);
        assert_eq!(merged.buckets, whole.buckets);
        // Jitter: concatenation semantics make the merge exact here too.
        assert!((merged.jitter_sum_ns - whole.jitter_sum_ns).abs() < 1e-9);
        let (sm, sw) = (merged.finish().unwrap(), whole.finish().unwrap());
        assert!((sm.mean_ns - sw.mean_ns).abs() < 1e-9);
        assert!((sm.stddev_ns - sw.stddev_ns).abs() < 1e-9);
        assert_eq!(sm.p50_ns, sw.p50_ns);
        assert_eq!(sm.p99_ns, sw.p99_ns);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let s = stream(&[1_000, 2_000, 3_000]);
        let mut a = s.clone();
        a.merge(&StreamingSummary::new());
        assert_eq!(a, s);
        let mut b = StreamingSummary::new();
        b.merge(&s);
        assert_eq!(b, s);
    }

    #[test]
    fn heap_bytes_constant_across_many_records() {
        let mut s = StreamingSummary::new();
        let before = s.heap_bytes();
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..200_000 {
            // xorshift: cheap wide-range pseudo-samples.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.record_ps(x % 10_000_000_000);
        }
        assert_eq!(s.heap_bytes(), before, "recording must never allocate");
        assert_eq!(s.count(), 200_000);
    }
}
