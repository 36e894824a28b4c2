//! The loss-limited host (DMA/PCIe) path.
//!
//! OSNT's monitor offers "a loss-limited path that gets (a subset of)
//! captured packets into the host": the hardware datapath keeps up with
//! line rate, but the DMA engine and driver do not always — captures can
//! drop there, and *only* there. [`HostPath`] models that bottleneck as a
//! leaky bucket: packets (plus a fixed descriptor overhead) fill a
//! buffer that drains at the DMA rate; arrivals that would overflow the
//! buffer are dropped and counted.

use osnt_time::SimTime;

/// Host path parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostPathConfig {
    /// Sustained DMA throughput toward the host, bits per second.
    pub dma_bps: u64,
    /// On-card capture buffer, bytes.
    pub buffer_bytes: u64,
    /// Fixed per-packet cost (descriptor + metadata), bytes.
    pub per_packet_overhead: u64,
}

impl Default for HostPathConfig {
    fn default() -> Self {
        // A PCIe x8 Gen2 card with driver overheads: ~8 Gb/s sustained,
        // a 4 MiB capture buffer, 16-byte descriptors. Deliberately less
        // than 10G line rate: the whole point of filtering and thinning.
        HostPathConfig {
            dma_bps: 8_000_000_000,
            buffer_bytes: 4 * 1024 * 1024,
            per_packet_overhead: 16,
        }
    }
}

impl HostPathConfig {
    /// An infinitely fast host path (for tests that want zero host loss).
    pub fn unlimited() -> Self {
        HostPathConfig {
            dma_bps: u64::MAX / 16,
            buffer_bytes: u64::MAX / 2,
            per_packet_overhead: 0,
        }
    }
}

/// Leaky-bucket DMA model. All state is in *bits* to keep the integer
/// drain arithmetic exact.
#[derive(Debug, Clone)]
pub struct HostPath {
    config: HostPathConfig,
    queued_bits: u128,
    last_update: SimTime,
    /// Packets admitted to the host.
    pub delivered: u64,
    /// Bytes admitted (after thinning, including overhead).
    pub delivered_bytes: u64,
    /// Packets dropped at the buffer.
    pub dropped: u64,
}

impl HostPath {
    /// A host path with the given parameters.
    pub fn new(config: HostPathConfig) -> Self {
        HostPath {
            config,
            queued_bits: 0,
            last_update: SimTime::ZERO,
            delivered: 0,
            delivered_bytes: 0,
            dropped: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> HostPathConfig {
        self.config
    }

    fn drain_to(&mut self, now: SimTime) {
        let Some(dt) = now.checked_duration_since(self.last_update) else {
            return;
        };
        self.last_update = now;
        // bits drained = ⌊dt_ps × bps / 10¹²⌋, which empties the queue
        // exactly when dt_ps × bps ≥ queued × 10¹². That is the common
        // case (the path outruns the capture), decided by multiplying;
        // the 128-bit division runs only when a backlog survives.
        const PS_PER_SEC: u128 = osnt_time::PS_PER_SEC as u128;
        let drain = dt.as_ps() as u128 * self.config.dma_bps as u128;
        let drains_all = self
            .queued_bits
            .checked_mul(PS_PER_SEC)
            .is_some_and(|need| drain >= need);
        if drains_all {
            self.queued_bits = 0;
        } else {
            self.queued_bits -= drain / PS_PER_SEC;
        }
    }

    /// Offer a captured packet of `captured_bytes` at time `now`.
    /// Returns `true` if the host will receive it, `false` if the buffer
    /// overflowed (loss-limited drop).
    pub fn admit(&mut self, now: SimTime, captured_bytes: usize) -> bool {
        self.drain_to(now);
        let cost_bits = (captured_bytes as u128 + self.config.per_packet_overhead as u128) * 8;
        let cap_bits = self.config.buffer_bytes as u128 * 8;
        if self.queued_bits + cost_bits > cap_bits {
            self.dropped += 1;
            return false;
        }
        self.queued_bits += cost_bits;
        self.delivered += 1;
        self.delivered_bytes += captured_bytes as u64 + self.config.per_packet_overhead;
        true
    }

    /// Bits currently buffered (after draining to `now`).
    pub fn backlog_bits(&mut self, now: SimTime) -> u128 {
        self.drain_to(now);
        self.queued_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_time::SimDuration;
    use proptest::prelude::*;

    fn cfg(bps: u64, buf: u64) -> HostPathConfig {
        HostPathConfig {
            dma_bps: bps,
            buffer_bytes: buf,
            per_packet_overhead: 0,
        }
    }

    #[test]
    fn under_rate_traffic_is_never_dropped() {
        // 1 Gb/s of offered load into an 8 Gb/s path.
        let mut h = HostPath::new(cfg(8_000_000_000, 1_000_000));
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            assert!(h.admit(t, 125)); // 1000 bits every µs = 1 Gb/s
            t += SimDuration::from_us(1);
        }
        assert_eq!(h.dropped, 0);
    }

    #[test]
    fn over_rate_traffic_fills_buffer_then_drops() {
        // 16 Gb/s offered into an 8 Gb/s path with a small buffer.
        let mut h = HostPath::new(cfg(8_000_000_000, 10_000));
        let mut t = SimTime::ZERO;
        let mut admitted = 0;
        for _ in 0..10_000 {
            if h.admit(t, 2_000) {
                admitted += 1;
            }
            t += SimDuration::from_us(1); // 2000B/µs = 16 Gb/s
        }
        assert!(h.dropped > 0, "must drop under 2x oversubscription");
        // Long-run admitted fraction approaches the rate ratio (1/2).
        let frac = admitted as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "admitted fraction {frac}");
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut h = HostPath::new(cfg(8_000_000_000, 1_000_000));
        h.admit(SimTime::ZERO, 100_000); // 800k bits
        let b0 = h.backlog_bits(SimTime::from_us(10)); // drains 80k bits
        assert_eq!(b0, 800_000 - 80_000);
        let b1 = h.backlog_bits(SimTime::from_us(200));
        assert_eq!(b1, 0);
    }

    #[test]
    fn overhead_is_charged() {
        let mut h = HostPath::new(HostPathConfig {
            dma_bps: 1,
            buffer_bytes: 100,
            per_packet_overhead: 50,
        });
        assert!(h.admit(SimTime::ZERO, 40)); // 90 bytes total
        assert!(!h.admit(SimTime::ZERO, 40)); // would be 180 > 100
        assert_eq!(h.delivered_bytes, 90);
    }

    #[test]
    fn zero_size_buffer_drops_everything_gracefully() {
        // A dead capture buffer is a degraded configuration, not a
        // crash: every offer is a counted drop.
        let mut h = HostPath::new(cfg(8_000_000_000, 0));
        for i in 0..1000u64 {
            assert!(!h.admit(SimTime::from_us(i), 64));
        }
        assert_eq!(h.dropped, 1000);
        assert_eq!(h.delivered, 0);
        assert_eq!(h.backlog_bits(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn overhead_larger_than_the_packet_is_still_charged() {
        // Descriptor overhead dominating tiny frames must not underflow
        // or sneak past the buffer bound.
        let mut h = HostPath::new(HostPathConfig {
            dma_bps: 1,
            buffer_bytes: 1_000,
            per_packet_overhead: 600,
        });
        assert!(h.admit(SimTime::ZERO, 1)); // 601 bytes charged
        assert!(!h.admit(SimTime::ZERO, 1)); // 1202 > 1000
        assert_eq!(h.delivered_bytes, 601);
        assert_eq!(h.dropped, 1);
    }

    #[test]
    fn exact_fill_boundary_admits_then_rejects() {
        // A packet that fills the buffer to exactly its capacity fits;
        // one more bit does not.
        let mut h = HostPath::new(cfg(1, 1_000));
        assert!(h.admit(SimTime::ZERO, 1_000), "exact fill must be admitted");
        assert!(!h.admit(SimTime::ZERO, 1), "the buffer is now full");
        assert_eq!(h.dropped, 1);
    }

    proptest! {
        /// `drain_to` decides "fully drained" without dividing; it must
        /// leave exactly what the one-division form leaves — around the
        /// boundary where the queue just empties, on the unlimited path
        /// (whose rate makes `dt × bps` huge), and for a backlog so
        /// large that `queued × 10¹²` overflows `u128`.
        #[test]
        fn drain_equals_the_division_form(
            dt in any::<u64>(),
            bps in any::<u64>(),
            queued in any::<u64>(),
            shift in 0u32..64,
            near in 0u64..3,
        ) {
            for dma_bps in [bps, HostPathConfig::unlimited().dma_bps] {
                let drained = dt as u128 * dma_bps as u128 / osnt_time::PS_PER_SEC as u128;
                for queued_bits in [
                    (queued as u128) << shift,
                    (drained + near as u128).saturating_sub(1),
                    u128::MAX - queued as u128,
                ] {
                    let mut h = HostPath::new(cfg(dma_bps, 0));
                    h.queued_bits = queued_bits;
                    h.drain_to(SimTime::from_ps(dt));
                    prop_assert_eq!(h.queued_bits, queued_bits.saturating_sub(drained));
                    prop_assert_eq!(h.last_update, SimTime::from_ps(dt));
                }
            }
        }
    }

    #[test]
    fn unlimited_never_drops() {
        let mut h = HostPath::new(HostPathConfig::unlimited());
        for i in 0..100_000u64 {
            assert!(h.admit(SimTime::from_ps(i), 9000));
        }
        assert_eq!(h.dropped, 0);
    }
}
