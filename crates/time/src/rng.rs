//! A tiny, dependency-free, deterministic PRNG for the clock models.
//!
//! The oscillator drift model needs a noise source, but `osnt-time` sits at
//! the very bottom of the dependency graph, so it carries its own
//! xorshift64* generator instead of pulling in `rand`. Quality is more than
//! adequate for noise injection; it is **not** a cryptographic generator.

/// Uniform draws summed by [`XorShift64::next_gaussian`].
const GAUSSIAN_DRAWS: usize = 12;

/// [`XorShift64::next_gaussian`] lies in the closed range
/// `[-GAUSSIAN_BOUND, GAUSSIAN_BOUND]`.
pub(crate) const GAUSSIAN_BOUND: f64 = 6.0;

/// The state transition of [`XorShift64::next_u64`]: linear over GF(2).
const fn step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// `steps` state transitions as one GF(2) matrix, by nibble: row `i`,
/// column `v` is the image of nibble value `v` at bit `4 i`, so a state's
/// image is the XOR of its sixteen nibbles' entries.
const fn jump_table(steps: usize) -> [[u64; 16]; 16] {
    let mut table = [[0; 16]; 16];
    let mut i = 0;
    while i < 16 {
        let mut v = 0;
        while v < 16 {
            let mut x = (v as u64) << (4 * i);
            let mut s = 0;
            while s < steps {
                x = step(x);
                s += 1;
            }
            table[i][v] = x;
            v += 1;
        }
        i += 1;
    }
    table
}

/// [`jump_table`] over one Gaussian's draws (2 KiB).
static GAUSSIAN_JUMP: [[u64; 16]; 16] = jump_table(GAUSSIAN_DRAWS);

/// xorshift64* PRNG (Vigna, 2016). Deterministic and seedable.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift has a fixed point at zero).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sample from an approximately standard normal distribution.
    ///
    /// Sum of 12 uniforms minus 6 (Irwin–Hall): mean 0, variance 1, in
    /// the closed range [−6, 6] — every uniform is below 1, but the f64
    /// running sum can round up to exactly 12.0. `HwClock::read` relies
    /// on that bound. Plenty for oscillator noise; avoids transcendental
    /// functions so results are bit-stable across platforms with the same
    /// rounding mode.
    pub fn next_gaussian(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..GAUSSIAN_DRAWS {
            acc += self.next_f64();
        }
        acc - 6.0
    }

    /// Advance the state exactly as [`XorShift64::next_gaussian`] does,
    /// without computing the sample: one table lookup per state nibble.
    pub(crate) fn skip_gaussian(&mut self) {
        let x = self.state;
        self.state = GAUSSIAN_JUMP
            .iter()
            .enumerate()
            .fold(0, |acc, (i, row)| acc ^ row[(x >> (4 * i)) as usize & 0xF]);
    }

    /// Uniform value in `[lo, hi)`.
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut r = XorShift64::new(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn skip_gaussian_lands_where_twelve_draws_do() {
        // Seed 0 is the remapped constant.
        let mut seeds = XorShift64::new(0x5eed);
        for seed in (0..10_000).map(|i| if i == 0 { 0 } else { seeds.next_u64() }) {
            let mut drawn = XorShift64::new(seed);
            let mut skipped = drawn.clone();
            for _ in 0..3 {
                drawn.next_gaussian();
                skipped.skip_gaussian();
                assert_eq!(skipped.state, drawn.state, "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = XorShift64::new(11);
        for _ in 0..1000 {
            let v = r.next_range_f64(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v));
        }
    }
}
