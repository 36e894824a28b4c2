//! Free-running hardware clock model.
//!
//! The NetFPGA-10G timestamp counter is driven by a crystal oscillator.
//! Crystals are imperfect: they have a fixed frequency error (tens of ppm)
//! and a slowly wandering component (temperature, ageing). Undisciplined,
//! such a clock drifts by milliseconds per minute — useless for one-way
//! latency measurement across two cards. OSNT therefore disciplines the
//! counter from a GPS pulse-per-second input (see [`crate::gps`]).
//!
//! [`HwClock`] maps *true* simulation time to the local clock reading by
//! integrating a frequency-error process:
//!
//! ```text
//! d(offset)/dt = (freq_error_ppm + trim_ppm) * 1e-6
//! freq_error_ppm ~ random walk (+ fixed initial error)
//! local(t) = t + offset(t)
//! ```
//!
//! Readings are quantised to the 6.25 ns datapath tick, like hardware.

use crate::rng::{XorShift64, GAUSSIAN_BOUND};
use crate::timestamp::HwTimestamp;
use crate::{SimTime, DATAPATH_TICK_PS};

/// Parameters of the oscillator error process.
#[derive(Debug, Clone)]
pub struct DriftModel {
    /// Fixed frequency error in parts-per-million. Typical commodity
    /// crystals are specified at ±50 ppm; a good TCXO at ±2 ppm.
    pub initial_freq_error_ppm: f64,
    /// Intensity of the random walk on the frequency error, in
    /// ppm·s^-1/2. Zero disables wander.
    pub random_walk_ppm: f64,
    /// Standard deviation of white phase noise added to each *reading*,
    /// in picoseconds (models sampling jitter in the capture flops).
    pub reading_jitter_ps: f64,
}

impl DriftModel {
    /// A perfect oscillator: no drift, no noise. Useful in unit tests and
    /// in experiments that want to isolate other effects.
    pub fn ideal() -> Self {
        DriftModel {
            initial_freq_error_ppm: 0.0,
            random_walk_ppm: 0.0,
            reading_jitter_ps: 0.0,
        }
    }

    /// A commodity crystal as found on an FPGA board: +18 ppm fixed error,
    /// mild wander, ~50 ps sampling jitter.
    pub fn commodity_xo() -> Self {
        DriftModel {
            initial_freq_error_ppm: 18.0,
            random_walk_ppm: 0.05,
            reading_jitter_ps: 50.0,
        }
    }

    /// A temperature-compensated oscillator: ±1.5 ppm class.
    pub fn tcxo() -> Self {
        DriftModel {
            initial_freq_error_ppm: 1.5,
            random_walk_ppm: 0.01,
            reading_jitter_ps: 30.0,
        }
    }
}

impl Default for DriftModel {
    fn default() -> Self {
        DriftModel::commodity_xo()
    }
}

/// A free-running (optionally servo-trimmed) hardware clock.
#[derive(Debug, Clone)]
pub struct HwClock {
    model: DriftModel,
    rng: XorShift64,
    /// Last true instant up to which the error process was integrated.
    last_true: SimTime,
    /// Accumulated local-minus-true offset at `last_true`, picoseconds.
    offset_ps: f64,
    /// Current oscillator frequency error (wandering), ppm.
    freq_error_ppm: f64,
    /// Servo-applied frequency trim, ppm (set by the GPS discipline).
    trim_ppm: f64,
}

impl HwClock {
    /// Create a clock with the given error model and noise seed.
    pub fn new(model: DriftModel, seed: u64) -> Self {
        let freq = model.initial_freq_error_ppm;
        HwClock {
            model,
            rng: XorShift64::new(seed),
            last_true: SimTime::ZERO,
            offset_ps: 0.0,
            freq_error_ppm: freq,
            trim_ppm: 0.0,
        }
    }

    /// A perfect clock (no drift): local time equals true time.
    pub fn ideal() -> Self {
        HwClock::new(DriftModel::ideal(), 0)
    }

    /// Integrate the error process up to true time `t`. Calling with a
    /// time before the last advance is a no-op (the clock state is
    /// monotone in true time).
    pub fn advance_to(&mut self, t: SimTime) {
        let Some(dt) = t.checked_duration_since(self.last_true) else {
            return;
        };
        if dt.as_ps() == 0 {
            return;
        }
        let dt_s = dt.as_secs_f64();
        // Phase accumulates at the current rate error. 1 ppm = 1e6 ps/s.
        self.offset_ps += (self.freq_error_ppm + self.trim_ppm) * 1e6 * dt_s;
        // Frequency random-walks.
        if self.model.random_walk_ppm > 0.0 {
            self.freq_error_ppm +=
                self.model.random_walk_ppm * dt_s.sqrt() * self.rng.next_gaussian();
        }
        self.last_true = t;
    }

    /// Read the clock at true time `t` as the hardware would: advance the
    /// error process, add reading jitter, quantise to the 6.25 ns tick and
    /// encode as a 32.32 timestamp.
    ///
    /// The jitter is `reading_jitter_ps` times a Gaussian in the closed
    /// range [−6, 6], and most readings lie far enough from a tick
    /// boundary that no such Gaussian can move them off their tick. Every
    /// step from the Gaussian to the tick — the f64 product and sum, the
    /// clamp at 0, `as u64` and the tick division — is monotone, so when
    /// the Gaussians −6 and +6 quantise to one tick, every draw does:
    /// `read` then takes that tick and only advances the generator past
    /// the draw. The stamp and the generator's state are those of a
    /// reading that draws.
    pub fn read(&mut self, t: SimTime) -> HwTimestamp {
        self.advance_to(t);
        let base = t.as_ps() as f64 + self.offset_ps;
        let jitter = self.model.reading_jitter_ps;
        let ps = if jitter > 0.0 {
            if let Some(settled) = settled_tick(base, jitter) {
                self.rng.skip_gaussian();
                settled
            } else {
                tick_floor(base + jitter * self.rng.next_gaussian())
            }
        } else {
            tick_floor(base)
        };
        HwTimestamp::from_ps_unquantised(ps)
    }

    /// Current local-minus-true offset in picoseconds (positive = clock
    /// runs fast). Does not advance the process.
    pub fn offset_ps(&self) -> f64 {
        self.offset_ps
    }

    /// Current wandering frequency error, ppm (excluding servo trim).
    pub fn freq_error_ppm(&self) -> f64 {
        self.freq_error_ppm
    }

    /// Servo trim currently applied, ppm.
    pub fn trim_ppm(&self) -> f64 {
        self.trim_ppm
    }

    /// Set the servo frequency trim (called by the GPS discipline).
    pub fn set_trim_ppm(&mut self, trim: f64) {
        self.trim_ppm = trim;
    }

    /// Apply an instantaneous phase step of `delta_ps` (positive steps the
    /// clock forward). Real counters implement this by loading a new value
    /// into the timestamp register.
    pub fn step_phase_ps(&mut self, delta_ps: f64) {
        self.offset_ps += delta_ps;
    }
}

/// A local reading in picoseconds, clamped at 0 and quantised down to
/// the datapath tick.
fn tick_floor(local_ps: f64) -> u64 {
    let ps = if local_ps < 0.0 { 0 } else { local_ps as u64 };
    (ps / DATAPATH_TICK_PS) * DATAPATH_TICK_PS
}

/// The tick `base + jitter · g` quantises to for every `g` in
/// `[−GAUSSIAN_BOUND, GAUSSIAN_BOUND]`, if that is one tick (`jitter > 0`).
fn settled_tick(base: f64, jitter: f64) -> Option<u64> {
    let low = tick_floor(base + jitter * -GAUSSIAN_BOUND);
    (low == tick_floor(base + jitter * GAUSSIAN_BOUND)).then_some(low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::MAX_ROUNDTRIP_ERROR_PS;
    use crate::{SimDuration, PS_PER_SEC};
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn ideal_clock_tracks_true_time() {
        let mut c = HwClock::ideal();
        for ns in [0u64, 10, 1_000, 1_000_000] {
            let ts = c.read(SimTime::from_ns(ns));
            let expect = (ns * 1000 / DATAPATH_TICK_PS) * DATAPATH_TICK_PS;
            // Tick quantisation is exact; the 32.32 wire encoding adds
            // up to one fraction unit (~233 ps).
            assert!(
                ts.to_ps().abs_diff(expect) <= 233,
                "read {} vs expected {expect}",
                ts.to_ps()
            );
        }
    }

    #[test]
    fn fixed_ppm_error_accumulates_linearly() {
        let model = DriftModel {
            initial_freq_error_ppm: 10.0,
            random_walk_ppm: 0.0,
            reading_jitter_ps: 0.0,
        };
        let mut c = HwClock::new(model, 1);
        c.advance_to(SimTime::from_secs(1));
        // 10 ppm over 1 s = 10 µs = 1e7 ps.
        assert!(
            (c.offset_ps() - 1.0e7).abs() < 1.0,
            "offset {}",
            c.offset_ps()
        );
        c.advance_to(SimTime::from_secs(2));
        assert!((c.offset_ps() - 2.0e7).abs() < 1.0);
    }

    #[test]
    fn trim_cancels_fixed_error() {
        let model = DriftModel {
            initial_freq_error_ppm: 10.0,
            random_walk_ppm: 0.0,
            reading_jitter_ps: 0.0,
        };
        let mut c = HwClock::new(model, 1);
        c.set_trim_ppm(-10.0);
        c.advance_to(SimTime::from_secs(100));
        assert!(c.offset_ps().abs() < 1e-6);
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let mut c = HwClock::new(DriftModel::commodity_xo(), 3);
        c.advance_to(SimTime::from_secs(5));
        let off = c.offset_ps();
        // Going backwards or re-advancing to the same instant changes nothing.
        c.advance_to(SimTime::from_secs(4));
        c.advance_to(SimTime::from_secs(5));
        assert_eq!(c.offset_ps(), off);
    }

    #[test]
    fn phase_step_moves_reading() {
        let mut c = HwClock::ideal();
        c.step_phase_ps(1.0e6); // +1 µs
        let ts = c.read(SimTime::from_secs(1));
        let err = ts.to_ps() as i64 - (PS_PER_SEC + 1_000_000) as i64;
        assert!(err.abs() <= DATAPATH_TICK_PS as i64 + 233, "err {err}");
    }

    #[test]
    fn readings_are_quantised_to_tick() {
        let mut c = HwClock::new(DriftModel::commodity_xo(), 9);
        for i in 0..100u64 {
            let ts = c.read(SimTime::from_ns(i * 137 + 13));
            // The counter value is a whole number of ticks; after the
            // 32.32 wire encoding the decoded picoseconds sit within one
            // fraction unit (~233 ps) below a tick boundary.
            let rem = ts.to_ps() % DATAPATH_TICK_PS;
            assert!(
                rem <= 233 || rem >= DATAPATH_TICK_PS - 233,
                "reading {} ps is {rem} ps off a tick",
                ts.to_ps()
            );
        }
    }

    #[test]
    fn random_walk_changes_frequency() {
        let model = DriftModel {
            initial_freq_error_ppm: 0.0,
            random_walk_ppm: 0.5,
            reading_jitter_ps: 0.0,
        };
        let mut c = HwClock::new(model, 42);
        let f0 = c.freq_error_ppm();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_secs(1);
            c.advance_to(t);
        }
        assert_ne!(c.freq_error_ppm(), f0);
    }

    #[test]
    fn commodity_clock_drifts_visibly_within_a_minute() {
        let mut c = HwClock::new(DriftModel::commodity_xo(), 7);
        c.advance_to(SimTime::from_secs(60));
        // 18 ppm * 60 s ≈ 1.08 ms — far beyond sub-µs precision.
        assert!(c.offset_ps().abs() > 1e8, "offset {}", c.offset_ps());
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut c = HwClock::new(DriftModel::commodity_xo(), 99);
            c.advance_to(SimTime::from_secs(10));
            (c.offset_ps(), c.freq_error_ppm())
        };
        assert_eq!(mk(), mk());
    }

    /// `HwClock` as it read before readings skipped their jitter: the
    /// same error process and one drawn Gaussian per jittered reading, on
    /// a generator of its own.
    struct Reference {
        model: DriftModel,
        rng: XorShift64,
        last_true: u64,
        offset_ps: f64,
        freq_error_ppm: f64,
        trim_ppm: f64,
    }

    impl Reference {
        fn new(model: DriftModel, seed: u64) -> Self {
            Reference {
                freq_error_ppm: model.initial_freq_error_ppm,
                model,
                rng: XorShift64::new(seed),
                last_true: 0,
                offset_ps: 0.0,
                trim_ppm: 0.0,
            }
        }

        fn read(&mut self, t: u64) -> HwTimestamp {
            if t > self.last_true {
                let dt_s = (t - self.last_true) as f64 / PS_PER_SEC as f64;
                self.offset_ps += (self.freq_error_ppm + self.trim_ppm) * 1e6 * dt_s;
                if self.model.random_walk_ppm > 0.0 {
                    self.freq_error_ppm +=
                        self.model.random_walk_ppm * dt_s.sqrt() * self.rng.next_gaussian();
                }
                self.last_true = t;
            }
            let mut local_ps = t as f64 + self.offset_ps;
            if self.model.reading_jitter_ps > 0.0 {
                local_ps += self.model.reading_jitter_ps * self.rng.next_gaussian();
            }
            let local_ps = if local_ps < 0.0 { 0 } else { local_ps as u64 };
            HwTimestamp::from_ps_unquantised((local_ps / DATAPATH_TICK_PS) * DATAPATH_TICK_PS)
        }
    }

    /// One step of a clock's life; read instants are relative to the
    /// latest instant read so far.
    enum Op {
        Ahead(u64),
        Repeat,
        Behind(u64),
        /// The first tick boundary at least this far ahead.
        TickAligned(u64),
        /// This far past 10^15 ps, unless already later.
        Far(u64),
        Trim(f64),
        Step(f64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0..12u32, any::<u64>(), 0.0..1.0f64).prop_map(|(kind, n, x)| match kind {
            0..=3 => Op::Ahead(n % 20_000_000),
            4 => Op::Repeat,
            5 => Op::Behind(n % 50_000_000),
            6 | 7 => Op::TickAligned(n % 1_000_000),
            8 => Op::Far(n % 1_000_000_000),
            9 => Op::Trim(200.0 * x - 100.0),
            // −1 ms of phase early in a run clamps readings at 0.
            10 => Op::Step(-1e9),
            _ => Op::Step(2e4 * x - 1e4),
        })
    }

    fn model() -> impl Strategy<Value = DriftModel> {
        let wide = |reading_jitter_ps| DriftModel {
            reading_jitter_ps,
            ..DriftModel::commodity_xo()
        };
        (0..5u32).prop_map(move |i| match i {
            0 => DriftModel::ideal(),
            1 => DriftModel::tcxo(),
            2 => DriftModel::commodity_xo(),
            // Wide enough that every reading draws.
            3 => wide(2_000.0),
            _ => wide(40_000.0),
        })
    }

    proptest! {
        #[test]
        fn read_equals_the_drawing_reference(
            model in model(),
            seed in any::<u64>(),
            ops in vec(op(), 1..200),
        ) {
            let mut clock = HwClock::new(model.clone(), seed);
            let mut reference = Reference::new(model, seed);
            let mut latest = 0u64;
            for op in ops {
                let t = match op {
                    Op::Ahead(n) => latest + n,
                    Op::Repeat => latest,
                    Op::Behind(n) => latest.saturating_sub(n),
                    Op::TickAligned(n) => (latest + n).next_multiple_of(DATAPATH_TICK_PS),
                    Op::Far(n) => latest.max(1_000_000_000_000_000 + n),
                    Op::Trim(ppm) => {
                        clock.set_trim_ppm(ppm);
                        reference.trim_ppm = ppm;
                        continue;
                    }
                    Op::Step(ps) => {
                        clock.step_phase_ps(ps);
                        reference.offset_ps += ps;
                        continue;
                    }
                };
                latest = latest.max(t);
                prop_assert_eq!((t, clock.read(SimTime::from_ps(t))), (t, reference.read(t)));
                prop_assert_eq!(clock.offset_ps().to_bits(), reference.offset_ps.to_bits());
                prop_assert_eq!(
                    clock.freq_error_ppm().to_bits(),
                    reference.freq_error_ppm.to_bits()
                );
            }
        }

        #[test]
        fn a_settled_tick_is_where_every_gaussian_lands(
            boundary in (0..8u32, 0..1u64 << 40).prop_map(|(k, b)| if k == 0 { 0 } else { b }),
            // A third of the bases sit just inside or outside 6σ.
            sigmas in (0..3u32, 0.0..1.0f64).prop_map(|(k, x)| match k {
                0 => 16.0 * x - 8.0,
                1 => 5.8 + 0.4 * x,
                _ => -5.8 - 0.4 * x,
            }),
            jitter in (0..4u32, 1e-3..2e3f64).prop_map(|(k, j)| match k {
                0 => 30.0,
                1 => 50.0,
                _ => j,
            }),
            g in -GAUSSIAN_BOUND..GAUSSIAN_BOUND,
        ) {
            let base = (boundary * DATAPATH_TICK_PS) as f64 + sigmas * jitter;
            if let Some(settled) = settled_tick(base, jitter) {
                for g in [-GAUSSIAN_BOUND, g, GAUSSIAN_BOUND] {
                    prop_assert_eq!((g, tick_floor(base + jitter * g)), (g, settled));
                }
            }
        }

        /// ROADMAP 4(c): a stamp's error against the clock's own local
        /// time is at most 6σ of reading jitter, the tick it is floored
        /// to, and one encode/decode round trip (whose own tick leaves
        /// head-room for the f64 rounding of `t + offset`).
        #[test]
        fn a_stamp_is_within_its_error_bar_of_local_time(
            seed in any::<u64>(),
            initial_freq_error_ppm in -100.0..100.0f64,
            random_walk_ppm in 0.0..1.0f64,
            reading_jitter_ps in (any::<bool>(), 0.0..50_000.0f64)
                .prop_map(|(ideal, j)| if ideal { 0.0 } else { j }),
            // ≤ 100 × 2^40 ps stays below 2^53: f64 holds whole ps.
            steps in vec(
                (any::<bool>(), 0..1u64 << 40).prop_map(|(short, n)| if short { n % 10_000 } else { n }),
                1..100,
            ),
        ) {
            let model = DriftModel {
                initial_freq_error_ppm,
                random_walk_ppm,
                reading_jitter_ps,
            };
            let bound =
                6.0 * reading_jitter_ps + (DATAPATH_TICK_PS + MAX_ROUNDTRIP_ERROR_PS) as f64;
            let mut clock = HwClock::new(model, seed);
            let mut t = 0;
            for step in steps {
                t += step;
                let stamp = clock.read(SimTime::from_ps(t)).to_ps() as f64;
                let local = t as f64 + clock.offset_ps();
                prop_assert!(
                    (stamp - local).abs() <= bound,
                    "at {} ps: stamp {} vs local {}, bound {}", t, stamp, local, bound
                );
            }
        }

        #[test]
        fn an_ideal_stamp_is_within_a_round_trip_of_true_time(t in 0..=1u64 << 53) {
            let stamp = HwClock::ideal().read(SimTime::from_ps(t)).to_ps();
            prop_assert!(stamp.abs_diff(t) <= MAX_ROUNDTRIP_ERROR_PS, "{} → {}", t, stamp);
        }
    }
}
