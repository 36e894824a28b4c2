#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-time — hardware timekeeping for OSNT-rs
//!
//! OSNT associates every packet with a **64-bit timestamp taken at the MAC**
//! with a resolution of **6.25 ns** (one cycle of the NetFPGA-10G's 160 MHz
//! datapath clock), and keeps that clock disciplined to real time with an
//! external **GPS pulse-per-second (PPS)** input.
//!
//! This crate models that whole timekeeping chain:
//!
//! * [`SimTime`] — the simulator's notion of *true* time: an integer number
//!   of picoseconds since the start of the simulation. Every other
//!   timestamp in OSNT-rs is derived from it.
//! * [`HwTimestamp`] — the on-the-wire 64-bit, 32.32 fixed-point timestamp
//!   format used by the OSNT hardware (integer seconds in the upper 32
//!   bits, fractional seconds in the lower 32).
//! * [`HwClock`] — a free-running oscillator with frequency error and
//!   random-walk drift, quantised to the 6.25 ns datapath tick.
//! * [`GpsDiscipline`] — a PI servo that steers a [`HwClock`] from PPS
//!   edges, reproducing the paper's "clock drift and phase coordination
//!   maintained by a GPS input".
//!
//! The models are deterministic: all randomness comes from an internal
//! seeded PRNG ([`rng::XorShift64`]).

pub mod clock;
pub mod gps;
pub mod progress;
pub mod rng;
pub mod signal;
pub mod timestamp;

pub use clock::{DriftModel, HwClock};
pub use gps::{
    run_pps_session, run_pps_session_with_signal, DisciplineState, GpsDiscipline, PpsSample,
    ServoGains,
};
pub use progress::{ProgressProbe, Verdict};
pub use signal::GpsSignal;
pub use timestamp::HwTimestamp;

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// One tick of the OSNT datapath clock (160 MHz): 6.25 ns, i.e. 6250 ps.
pub const DATAPATH_TICK_PS: u64 = 6_250;

/// Nominal datapath clock frequency of the NetFPGA-10G design, in Hz.
pub const DATAPATH_HZ: u64 = 160_000_000;

/// Simulation ("true") time: picoseconds since the simulation epoch.
///
/// `SimTime` is a transparent `u64` newtype. Picosecond resolution is
/// chosen so that one bit time at 10 Gb/s is exactly 100 ps and one
/// datapath tick is exactly 6250 ps — all the arithmetic the 10 GbE wire
/// imposes stays exact in integers.
///
/// The full range covers ~213 days of simulated time, far beyond any
/// experiment in this repository.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Nanoseconds since the epoch (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Time as floating-point seconds (for reporting only — never for
    /// event arithmetic).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
    /// Checked subtraction: `None` if `earlier` is after `self`.
    #[inline]
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
    /// Duration since `earlier`; panics if `earlier > self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        self.checked_duration_since(earlier)
            .expect("duration_since: earlier instant is after self")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }
    /// Construct from floating-point seconds, rounding to the nearest
    /// picosecond. Intended for configuration plumbing, not event math.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        SimDuration((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Floating-point seconds (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Floating-point nanoseconds (reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Multiply by an integer count, saturating at the maximum.
    #[inline]
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
    /// Checked multiply by an integer count.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past ~213 days"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Render a picosecond count with an adaptive unit (`ps`, `ns`, `us`,
/// `ms`, `s`), used by the `Display` impls.
fn format_ps(ps: u64) -> String {
    if ps == 0 {
        return "0ps".to_string();
    }
    if ps.is_multiple_of(PS_PER_SEC) {
        format!("{}s", ps / PS_PER_SEC)
    } else if ps.is_multiple_of(PS_PER_MS) {
        format!("{}ms", ps / PS_PER_MS)
    } else if ps.is_multiple_of(PS_PER_US) {
        format!("{}us", ps / PS_PER_US)
    } else if ps.is_multiple_of(PS_PER_NS) {
        format!("{}ns", ps / PS_PER_NS)
    } else {
        format!("{}ps", ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(5).as_ps(), 5_000_000);
        assert_eq!(SimTime::from_ms(5).as_ps(), 5_000_000_000);
        assert_eq!(SimTime::from_secs(5).as_ps(), 5_000_000_000_000);
        assert_eq!(SimTime::from_secs(3).as_ns(), 3_000_000_000);
    }

    #[test]
    fn datapath_tick_is_6_25_ns() {
        assert_eq!(DATAPATH_TICK_PS, 6250);
        // 160 MHz * 6.25 ns = exactly one second.
        assert_eq!(DATAPATH_TICK_PS * DATAPATH_HZ, PS_PER_SEC);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(50);
        assert_eq!((t + d).as_ns(), 150);
        assert_eq!((t - d).as_ns(), 50);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.duration_since(SimTime::ZERO).as_ns(), 100);
    }

    #[test]
    fn checked_duration_since_ordering() {
        let early = SimTime::from_ns(10);
        let late = SimTime::from_ns(20);
        assert_eq!(
            late.checked_duration_since(early),
            Some(SimDuration::from_ns(10))
        );
        assert_eq!(early.checked_duration_since(late), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimDuration::from_ns(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ps(0).to_string(), "0ps");
        assert_eq!(SimTime::from_ns(7).to_string(), "7ns");
        assert_eq!(SimTime::from_us(3).to_string(), "3us");
        assert_eq!(SimTime::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::from_ps(6250).to_string(), "6250ps");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-12).as_ps(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_ps(), PS_PER_SEC / 2);
    }
}
