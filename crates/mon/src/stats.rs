//! Monitor-side statistics.

/// Counters maintained by a [`crate::MonitorPort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonStats {
    /// Frames received at the MAC (all of them — the hardware path is
    /// lossless).
    pub rx_frames: u64,
    /// Frame bytes received (conventional length).
    pub rx_bytes: u64,
    /// Frames whose FCS check failed at the MAC (in-flight corruption).
    /// Counted and discarded before filtering — corrupt frames are never
    /// delivered silently.
    pub crc_fail: u64,
    /// Frames the filter table discarded.
    pub filtered_out: u64,
    /// Frames that were cut by the thinner.
    pub thinned: u64,
    /// Frames the host actually received.
    pub host_frames: u64,
    /// Captured bytes delivered to the host (post-thinning, incl. DMA
    /// overhead).
    pub host_bytes: u64,
    /// Frames lost at the DMA buffer (the loss-limited path).
    pub host_drops: u64,
    /// Frames shed by capture-buffer backpressure: the in-memory
    /// capture ring hit its configured bound
    /// ([`crate::MonConfig::capture_limit`]) and refused the frame
    /// *before* DMA admission. Keeps overload runs memory-bounded; the
    /// shed load is accounted here so partial reports can flag it.
    pub capture_shed: u64,
}

impl MonStats {
    /// Fraction of filter-passing frames that reached the host
    /// (1.0 when nothing was dropped). `None` before any frame passed
    /// the filter.
    ///
    /// Saturates rather than failing on transiently inconsistent
    /// snapshots: a reader sampling the counters mid-batch can observe
    /// `filtered_out + crc_fail > rx_frames` (the batched pipeline
    /// publishes its delta after classifying the whole burst), which
    /// used to make the subtraction return `None` even though frames
    /// had demonstrably reached the host. The ratio is clamped to
    /// `[0, 1]` for the same reason.
    pub fn host_delivery_ratio(&self) -> Option<f64> {
        let passed = self
            .rx_frames
            .saturating_sub(self.filtered_out + self.crc_fail);
        if passed == 0 {
            return (self.host_frames > 0).then_some(1.0);
        }
        Some((self.host_frames as f64 / passed as f64).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio() {
        let s = MonStats {
            rx_frames: 100,
            filtered_out: 20,
            host_frames: 40,
            host_drops: 40,
            ..MonStats::default()
        };
        assert!((s.host_delivery_ratio().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delivery_ratio_empty_is_none() {
        assert_eq!(MonStats::default().host_delivery_ratio(), None);
    }

    #[test]
    fn delivery_ratio_saturates_on_mid_batch_snapshots() {
        // Regression: a snapshot taken while a burst is half-published
        // can show more filtered/corrupt frames than received ones. The
        // old checked_sub turned that into None; it must saturate.
        let s = MonStats {
            rx_frames: 10,
            filtered_out: 8,
            crc_fail: 4,
            host_frames: 3,
            ..MonStats::default()
        };
        assert_eq!(s.host_delivery_ratio(), Some(1.0));
        // Same inconsistency with nothing delivered yet: still no signal.
        let s = MonStats {
            rx_frames: 10,
            filtered_out: 12,
            ..MonStats::default()
        };
        assert_eq!(s.host_delivery_ratio(), None);
        // A consistent snapshot can also momentarily show host_frames
        // ahead of passed; the ratio clamps at 1.
        let s = MonStats {
            rx_frames: 10,
            filtered_out: 6,
            host_frames: 5,
            ..MonStats::default()
        };
        assert_eq!(s.host_delivery_ratio(), Some(1.0));
    }
}
