//! Per-port counters, in the style of MAC statistics registers, plus
//! the sharded executive's per-shard window/mailbox accounting.

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

/// Deterministic counters for one shard of a [`crate::ShardedSim`] run.
///
/// Every field is a pure function of the topology, the traffic and the
/// window policy — **not** of the host's core count or scheduling — so
/// two runs of the same simulation produce identical `ShardStats`, and
/// benches can gate on them without flakiness. Window rounds are
/// lockstep across workers, which yields the executive's ledger
/// invariants (checked by the chaos auditor):
///
/// * `windows_executed + windows_skipped` is identical on every shard
///   of a run (each round, each worker either dispatches its slice of
///   the window or skips an empty one — never neither);
/// * summed over all shards, `ring_pushes == ring_drains` once the run
///   has quiesced (mailboxes are empty between runs) — a lost
///   cross-shard entry breaks it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Window rounds in which this shard dispatched at least one event.
    pub windows_executed: u64,
    /// Window rounds this shard sat out (no local event inside its
    /// window bound).
    pub windows_skipped: u64,
    /// Barrier crossings performed by this shard's worker (two per
    /// round, plus the final round's pair).
    pub barrier_waits: u64,
    /// Entries this shard posted into its outbound cross-shard
    /// mailboxes.
    pub ring_pushes: u64,
    /// Entries this shard drained out of its inbound mailboxes.
    pub ring_drains: u64,
}

impl ShardStats {
    /// Total window rounds this shard's worker participated in.
    pub fn rounds(&self) -> u64 {
        self.windows_executed + self.windows_skipped
    }

    /// Sum of two snapshots (useful to aggregate shards).
    pub fn merged(self, other: ShardStats) -> ShardStats {
        ShardStats {
            windows_executed: self.windows_executed + other.windows_executed,
            windows_skipped: self.windows_skipped + other.windows_skipped,
            barrier_waits: self.barrier_waits + other.barrier_waits,
            ring_pushes: self.ring_pushes + other.ring_pushes,
            ring_drains: self.ring_drains + other.ring_drains,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_merge_and_rounds() {
        let a = ShardStats {
            windows_executed: 3,
            windows_skipped: 2,
            barrier_waits: 12,
            ring_pushes: 7,
            ring_drains: 6,
        };
        let b = ShardStats {
            windows_executed: 1,
            windows_skipped: 4,
            ..ShardStats::default()
        };
        assert_eq!(a.rounds(), 5);
        let m = a.merged(b);
        assert_eq!(m.windows_executed, 4);
        assert_eq!(m.windows_skipped, 6);
        assert_eq!(m.rounds(), 10);
        assert_eq!(m.ring_pushes, 7);
    }

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
