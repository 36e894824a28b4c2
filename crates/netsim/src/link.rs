//! Point-to-point link models.

use osnt_time::SimDuration;

/// A unidirectional link's physical parameters. [`crate::SimBuilder::connect`]
/// installs one in each direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable + PHY).
    pub propagation: SimDuration,
}

impl LinkSpec {
    /// A 10GBASE-R link with a 2 m direct-attach cable (~10 ns of
    /// propagation: 5 ns/m in copper plus PHY latency).
    pub fn ten_gig() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            propagation: SimDuration::from_ns(10),
        }
    }

    /// A 1GbE link (for control-plane channels).
    pub fn one_gig() -> Self {
        LinkSpec {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_ns(50),
        }
    }

    /// Override the propagation delay.
    pub fn with_propagation(mut self, d: SimDuration) -> Self {
        self.propagation = d;
        self
    }

    /// The whole picoseconds one byte takes on the wire:
    /// 8·10¹² ÷ `bandwidth_bps` — 800 at 10 Gb/s, 8 000 at 1 Gb/s. A
    /// frame's serialisation time is its byte count times this, exact
    /// with no division per frame. Every Ethernet rate from 1 to
    /// 800 Gb/s gives a whole number; simulated time resolves only to
    /// 1 ps, so a rate that does not is refused rather than rounded.
    ///
    /// # Panics
    ///
    /// When `bandwidth_bps` is zero or does not divide 8·10¹².
    pub fn ps_per_byte(&self) -> u64 {
        const PS_PER_BYTE_AT_1_BPS: u64 = 8 * 1_000_000_000_000;
        let bps = self.bandwidth_bps;
        // `is_multiple_of(0)` is false here, so a zero rate is refused too.
        assert!(
            PS_PER_BYTE_AT_1_BPS.is_multiple_of(bps),
            "a {bps} b/s link has no whole-picosecond byte time (8e12 / rate is not an integer)"
        );
        PS_PER_BYTE_AT_1_BPS / bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gig_byte_is_800_ps() {
        assert_eq!(LinkSpec::ten_gig().ps_per_byte(), 800);
    }

    #[test]
    fn one_gig_is_ten_times_slower() {
        assert_eq!(
            LinkSpec::one_gig().ps_per_byte(),
            10 * LinkSpec::ten_gig().ps_per_byte()
        );
    }
}
