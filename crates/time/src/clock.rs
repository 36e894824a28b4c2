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

use crate::rng::XorShift64;
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
    pub fn read(&mut self, t: SimTime) -> HwTimestamp {
        self.advance_to(t);
        let mut local_ps = t.as_ps() as f64 + self.offset_ps;
        if self.model.reading_jitter_ps > 0.0 {
            local_ps += self.model.reading_jitter_ps * self.rng.next_gaussian();
        }
        let local_ps = if local_ps < 0.0 { 0 } else { local_ps as u64 };
        let quantised = (local_ps / DATAPATH_TICK_PS) * DATAPATH_TICK_PS;
        HwTimestamp::from_ps_unquantised(quantised)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, PS_PER_SEC};

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
}
