//! The OSNT 64-bit hardware timestamp format.
//!
//! The OSNT design stamps packets with a 64-bit value in **32.32 fixed
//! point**: the upper 32 bits count whole seconds, the lower 32 bits count
//! fractions of a second in units of 2⁻³² s (~232.8 ps). The hardware
//! counter itself advances once per 160 MHz datapath cycle, i.e. every
//! **6.25 ns**, so the *resolution* of a stamp is 6.25 ns even though the
//! format could express finer values.
//!
//! [`HwTimestamp`] keeps both properties: conversions from [`SimTime`]
//! first quantise to the datapath tick, then encode in 32.32 fixed point.

use crate::{SimDuration, SimTime, DATAPATH_TICK_PS, PS_PER_SEC};
use core::fmt;

/// A 64-bit OSNT hardware timestamp in 32.32 fixed-point seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HwTimestamp(pub u64);

impl HwTimestamp {
    /// Number of bytes a timestamp occupies when embedded in a packet.
    pub const WIRE_SIZE: usize = 8;

    /// Build a timestamp directly from the raw 64-bit register value.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        HwTimestamp(raw)
    }

    /// The raw 64-bit register value.
    #[inline]
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Whole-seconds part (upper 32 bits).
    #[inline]
    pub const fn seconds(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Fractional part in units of 2⁻³² s (lower 32 bits).
    #[inline]
    pub const fn fraction(self) -> u32 {
        self.0 as u32
    }

    /// Encode a true time as the hardware would: quantise down to the
    /// 6.25 ns datapath tick, then express in 32.32 fixed point.
    pub fn from_sim_time(t: SimTime) -> Self {
        let quantised_ps = (t.as_ps() / DATAPATH_TICK_PS) * DATAPATH_TICK_PS;
        Self::encode_ps(quantised_ps)
    }

    /// Encode an *exact* picosecond value (no tick quantisation); used by
    /// tests and by software-timestamp baselines that are not bound to the
    /// datapath clock.
    pub fn from_ps_unquantised(ps: u64) -> Self {
        Self::encode_ps(ps)
    }

    fn encode_ps(ps: u64) -> Self {
        let secs = ps / PS_PER_SEC;
        let frac_ps = ps % PS_PER_SEC;
        // fraction = ⌊frac_ps · 2³² / 10¹²⌋. 10¹² = 2¹² · 5¹², so the
        // quotient is ⌊frac_ps · 2²⁰ / 5¹²⌋, and frac_ps < 2⁴⁰ keeps the
        // product inside a u64: no 128-bit division on the stamp path.
        const FIVE_POW_12: u64 = 244_140_625;
        const _: () = assert!(PS_PER_SEC == FIVE_POW_12 << 12);
        let frac = (frac_ps << 20) / FIVE_POW_12;
        debug_assert!(secs <= u32::MAX as u64, "timestamp seconds overflow");
        HwTimestamp((secs << 32) | frac)
    }

    /// Decode back to picoseconds (rounded to the nearest picosecond).
    ///
    /// `decode → encode` is lossy below the 2⁻³² s fraction unit
    /// (~232.8 ps); combined with the 6.25 ns quantisation in
    /// [`HwTimestamp::from_sim_time`], round-tripping a `SimTime` is
    /// accurate to within one datapath tick.
    pub fn to_ps(self) -> u64 {
        let secs = (self.0 >> 32) * PS_PER_SEC;
        // frac_ps = fraction * 1e12 / 2^32, rounded.
        let frac_ps = ((self.0 as u32 as u128) * PS_PER_SEC as u128 + (1u128 << 31)) >> 32;
        secs + frac_ps as u64
    }

    /// Difference between two stamps as a duration. Panics if
    /// `earlier > self` (stamps are expected to be causally ordered).
    pub fn duration_since(self, earlier: HwTimestamp) -> SimDuration {
        SimDuration::from_ps(
            self.to_ps()
                .checked_sub(earlier.to_ps())
                .expect("HwTimestamp::duration_since: earlier stamp is later"),
        )
    }

    /// Serialise to big-endian bytes for embedding into a packet.
    pub fn to_be_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parse from big-endian bytes extracted from a packet.
    pub fn from_be_bytes(b: [u8; 8]) -> Self {
        HwTimestamp(u64::from_be_bytes(b))
    }
}

impl fmt::Debug for HwTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HwTimestamp({}.{:09}s)",
            self.seconds(),
            // fraction in nanoseconds for readability
            ((self.fraction() as u128 * 1_000_000_000) >> 32) as u64
        )
    }
}

/// Maximum error introduced by one encode/decode round trip, in
/// picoseconds: one datapath tick (quantisation) plus one fraction unit
/// (232.8 ps encoding granularity, rounded up).
pub const MAX_ROUNDTRIP_ERROR_PS: u64 = DATAPATH_TICK_PS + 233;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_round_trips() {
        let ts = HwTimestamp::from_sim_time(SimTime::ZERO);
        assert_eq!(ts.as_raw(), 0);
        assert_eq!(ts.to_ps(), 0);
    }

    #[test]
    fn whole_seconds_are_exact() {
        for s in [0u64, 1, 2, 59, 3600, 86_400] {
            let ts = HwTimestamp::from_sim_time(SimTime::from_secs(s));
            assert_eq!(ts.seconds() as u64, s);
            assert_eq!(ts.fraction(), 0);
            assert_eq!(ts.to_ps(), s * PS_PER_SEC);
        }
    }

    #[test]
    fn quantisation_is_6_25_ns() {
        // 10 ns of true time lands on the 6.25 ns tick below it; the
        // 32.32 encoding then adds up to one fraction unit (~233 ps) of
        // representation error below the tick.
        let ts = HwTimestamp::from_sim_time(SimTime::from_ns(10));
        assert!(ts.to_ps().abs_diff(6_250) <= 233, "got {}", ts.to_ps());
        let ts = HwTimestamp::from_sim_time(SimTime::from_ps(6_250));
        assert!(ts.to_ps().abs_diff(6_250) <= 233, "got {}", ts.to_ps());
        // Ticks that are exact multiples of the fraction unit's period
        // (every 1 s worth) survive exactly.
        let ts = HwTimestamp::from_sim_time(SimTime::from_secs(2));
        assert_eq!(ts.to_ps(), 2 * PS_PER_SEC);
    }

    #[test]
    fn round_trip_error_is_bounded() {
        // Scan a mix of magnitudes; error must stay within a tick + one
        // fraction unit.
        let mut t: u64 = 1;
        for _ in 0..200_000 {
            let ts = HwTimestamp::from_sim_time(SimTime::from_ps(t));
            let back = ts.to_ps();
            assert!(back <= t, "decode must not be in the future: {t} -> {back}");
            assert!(
                t - back <= MAX_ROUNDTRIP_ERROR_PS,
                "error too large at {t}: {}",
                t - back
            );
            t = t.wrapping_mul(3).wrapping_add(7) % (5 * PS_PER_SEC);
        }
    }

    #[test]
    fn wire_round_trip() {
        let ts = HwTimestamp::from_sim_time(SimTime::from_ps(123_456_789_012));
        let bytes = ts.to_be_bytes();
        assert_eq!(HwTimestamp::from_be_bytes(bytes), ts);
    }

    #[test]
    fn duration_since_measures_latency() {
        let a = HwTimestamp::from_sim_time(SimTime::from_ns(1_000));
        let b = HwTimestamp::from_sim_time(SimTime::from_ns(2_000));
        let d = b.duration_since(a);
        assert_eq!(d.as_ns(), 1_000);
    }

    #[test]
    #[should_panic(expected = "earlier stamp is later")]
    fn duration_since_rejects_reversed_stamps() {
        let a = HwTimestamp::from_sim_time(SimTime::from_ns(1_000));
        let b = HwTimestamp::from_sim_time(SimTime::from_ns(2_000));
        let _ = a.duration_since(b);
    }

    #[test]
    fn ordering_matches_time() {
        let a = HwTimestamp::from_sim_time(SimTime::from_ns(10));
        let b = HwTimestamp::from_sim_time(SimTime::from_ns(20));
        assert!(a < b);
    }

    /// The 32.32 encoding as first written: one 128-bit division.
    fn encode_ps_u128(ps: u64) -> u64 {
        let frac = (((ps % PS_PER_SEC) as u128) << 32) / PS_PER_SEC as u128;
        ((ps / PS_PER_SEC) << 32) | frac as u64
    }

    #[test]
    fn u64_encoding_equals_the_u128_form_at_second_boundaries() {
        // Every u64 picosecond count lies below 2³² s; the last whole
        // second one can hold is the last boundary.
        for s in [0u64, 1, 2, 59, 3600, u64::MAX / PS_PER_SEC] {
            let edge = s * PS_PER_SEC;
            for ps in [
                edge.saturating_sub(1),
                edge,
                edge + 1,
                edge.saturating_add(PS_PER_SEC - 1),
            ] {
                assert_eq!(
                    HwTimestamp::from_ps_unquantised(ps).as_raw(),
                    encode_ps_u128(ps),
                    "at {ps} ps"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn u64_encoding_equals_the_u128_form(ps in proptest::prelude::any::<u64>()) {
            proptest::prop_assert_eq!(
                HwTimestamp::from_ps_unquantised(ps).as_raw(),
                encode_ps_u128(ps)
            );
        }
    }

    #[test]
    fn fraction_encoding_of_half_second() {
        let ts = HwTimestamp::from_ps_unquantised(PS_PER_SEC / 2);
        // Half a second = 2^31 fraction units.
        assert_eq!(ts.fraction(), 1u32 << 31);
    }
}
