//! Per-port counters, in the style of MAC statistics registers.

/// Frame/byte/drop counters for one simplex direction of a port.
///
/// Byte counts use the conventional frame length (including FCS), the
/// quantity a switch's SNMP `ifInOctets`/`ifOutOctets` would report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames accepted for transmission (queued into the MAC).
    pub tx_frames: u64,
    /// Bytes accepted for transmission.
    pub tx_bytes: u64,
    /// Frames dropped on transmit because the output buffer was full.
    pub tx_drops: u64,
    /// Frames fully received.
    pub rx_frames: u64,
    /// Bytes fully received.
    pub rx_bytes: u64,
}

impl PortCounters {
    /// Sum of two snapshots (useful to aggregate ports).
    pub fn merged(self, other: PortCounters) -> PortCounters {
        PortCounters {
            tx_frames: self.tx_frames + other.tx_frames,
            tx_bytes: self.tx_bytes + other.tx_bytes,
            tx_drops: self.tx_drops + other.tx_drops,
            rx_frames: self.rx_frames + other.rx_frames,
            rx_bytes: self.rx_bytes + other.rx_bytes,
        }
    }
}

/// How many events the kernel queued, by where each one waited: a
/// reading of the run, deterministic like every other counter. See
/// [`crate::Kernel::queue_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Pushes appended to a FIFO lane: the event was in order behind
    /// what its source (a wire, or one of a component's timer streams)
    /// had already scheduled.
    pub lane_pushes: u64,
    /// Pushes that went to the fall-back heap (`TimerWheel`, named for
    /// what it once was): out of order for every lane of their source,
    /// or the tail of a burst split at dispatch. (How often a burst is
    /// split depends on what else the kernel holds; the events
    /// dispatched do not.)
    pub wheel_pushes: u64,
}

/// Unused; held by `e0_pipeline/probes.rs:308` (`fn(&osnt_netsim::ShardStats) -> u64` over these three fields).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub windows_executed: u64,
    pub barrier_waits: u64,
    pub ring_pushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = PortCounters {
            tx_frames: 1,
            tx_bytes: 64,
            tx_drops: 2,
            rx_frames: 3,
            rx_bytes: 192,
        };
        let b = PortCounters {
            tx_frames: 10,
            tx_bytes: 640,
            tx_drops: 0,
            rx_frames: 30,
            rx_bytes: 1920,
        };
        let m = a.merged(b);
        assert_eq!(m.tx_frames, 11);
        assert_eq!(m.tx_bytes, 704);
        assert_eq!(m.tx_drops, 2);
        assert_eq!(m.rx_frames, 33);
        assert_eq!(m.rx_bytes, 2112);
    }
}
