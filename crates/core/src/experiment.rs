//! The canonical demo experiment (paper Fig. 2): measure a switch's
//! packet-processing latency under load.
//!
//! Topology — exactly the demo's, plus a load port:
//!
//! ```text
//!   OSNT port0 (probe gen, stamped)  ──▶ DUT in₀ ─┐
//!   OSNT port2 (background gen)      ──▶ DUT in₁ ─┤──▶ DUT out ──▶ OSNT port1 (capture)
//! ```
//!
//! The probe stream is a light, timestamp-carrying flow; the background
//! stream loads the same output port at a configurable fraction of line
//! rate. As the load rises the probe's latency distribution shows the
//! classic store-and-forward curve: flat, then queueing growth, then
//! loss past saturation.

use crate::device::{DeviceConfig, OsntDevice, PortRole};
use crate::latency::{latency_of, Summary};
use crate::streaming::StreamingSummary;
use osnt_error::OsntError;
use osnt_gen::txstamp::StampConfig;
use osnt_gen::workload::FixedTemplate;
use osnt_gen::{GenConfig, Schedule};
use osnt_mon::{FilterAction, FilterTable, HostPathConfig, MonConfig};
use osnt_netsim::{
    Component, ComponentId, FaultConfig, FaultStats, FaultyLink, LinkSpec, SimBuilder,
};
use osnt_packet::{MacAddr, PacketBuilder, WildcardRule};
use osnt_switch::{LegacyConfig, LegacySwitch};
use osnt_time::{DriftModel, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// UDP destination port of the stamped probe stream.
pub const PROBE_PORT: u16 = 9001;
/// UDP destination port of the background stream.
pub const BACKGROUND_PORT: u16 = 9002;

/// Where a device under test plugs into the experiment.
pub struct DutAttachment {
    /// The DUT's component id.
    pub id: ComponentId,
    /// DUT port that receives the probe stream.
    pub probe_in: usize,
    /// DUT port that receives the background stream.
    pub bg_in: usize,
    /// DUT port wired to the capture port.
    pub out: usize,
}

/// Configuration of one latency run.
#[derive(Debug, Clone)]
pub struct LatencyExperiment {
    /// Conventional frame length of both streams.
    pub frame_len: usize,
    /// Probe rate as a fraction of line rate (keep small).
    pub probe_load: f64,
    /// Background rate as a fraction of line rate (the load axis).
    pub background_load: f64,
    /// Generation window.
    pub duration: SimDuration,
    /// Samples captured before this offset into the window are
    /// discarded (queue warm-up).
    pub warmup: SimDuration,
    /// Card oscillator model.
    pub clock_model: DriftModel,
    /// Clock noise seed.
    pub seed: u64,
    /// Fault injection on the probe path (`None` = clean wire). The
    /// run still completes: losses, duplicates and corruption show up
    /// in the report's fault accounting instead of aborting anything.
    pub probe_faults: Option<FaultConfig>,
    /// Supervisor heartbeat (`None` = unsupervised). When set, the
    /// dispatch loop publishes its simulated-time high-water mark into
    /// the probe every 64th event and stops once one of the probe's
    /// limits fires; an aborted run returns [`OsntError::RunAborted`]
    /// instead of a report.
    pub progress: Option<std::sync::Arc<osnt_time::ProgressProbe>>,
    /// Also return the per-sample raw latencies (picoseconds) in the
    /// report — the supervisor journals them so a resumed run can
    /// splice byte-identical sample streams.
    pub record_raw: bool,
    /// Unused; held by `e0_pipeline/workloads/p1_legacy_load.rs:58` (`shards: Some(1)`).
    #[doc(hidden)]
    pub shards: Option<usize>,
    /// GPS signal feeding the card's PPS discipline (`None` =
    /// always-locked). Chaos plans lower holdover episodes into outage
    /// windows here.
    pub gps_signal: Option<osnt_time::GpsSignal>,
    /// Bound on the capture buffer (packets); overflowing frames are
    /// shed and accounted in [`LatencyReport::capture_shed`]. `None`
    /// (default) captures without bound. See
    /// [`osnt_mon::MonConfig::capture_limit`].
    pub capture_limit: Option<usize>,
    /// Unused; held by `e0_pipeline/probes.rs:294` (`shard_stats_sink: Some(..)`).
    #[doc(hidden)]
    pub shard_stats_sink: Option<std::sync::Arc<std::sync::Mutex<Vec<osnt_netsim::ShardStats>>>>,
}

impl Default for LatencyExperiment {
    fn default() -> Self {
        LatencyExperiment {
            frame_len: 512,
            probe_load: 0.02,
            background_load: 0.0,
            duration: SimDuration::from_ms(20),
            warmup: SimDuration::from_ms(5),
            clock_model: DriftModel::ideal(),
            seed: 1,
            probe_faults: None,
            progress: None,
            record_raw: false,
            shards: None,
            gps_signal: None,
            capture_limit: None,
            shard_stats_sink: None,
        }
    }
}

/// The outcome of a latency run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Background load that was offered (fraction of line rate).
    pub background_load: f64,
    /// Probe frames sent.
    pub probe_sent: u64,
    /// Probe frames captured with a valid stamp.
    pub probe_received: usize,
    /// Probe loss fraction.
    pub loss: f64,
    /// Background frames sent (0 when no background port).
    pub background_sent: u64,
    /// Latency summary (`None` when nothing survived). Produced by a
    /// streaming O(1)-memory pass ([`StreamingSummary`]): count, min,
    /// max, mean and jitter are exact; p50/p90/p99 are histogram-derived
    /// with ≤ 1% relative error (actual bound 1/256, see
    /// `crate::streaming`).
    pub latency: Option<Summary>,
    /// Probe frames the generator's own MAC refused (output buffer
    /// full — only possible on an oversubscribed probe schedule).
    pub probe_gen_dropped: u64,
    /// Captured frames discarded at the monitor MAC for a bad FCS
    /// (in-flight corruption, see [`FaultConfig::corrupt_probability`]).
    pub crc_fail: u64,
    /// Frames the capture filter discarded (by design this includes the
    /// entire background stream).
    pub filtered_out: u64,
    /// Probe frames lost on the capture host path (DMA overload).
    pub host_drops: u64,
    /// What the probe-path fault injector did (`None` when the
    /// experiment scripted no faults).
    pub fault_stats: Option<FaultStats>,
    /// Raw post-warmup latency samples in picoseconds, capture order
    /// (`None` unless [`LatencyExperiment::record_raw`] was set).
    pub raw_latencies_ps: Option<Vec<u64>>,
    /// Probe frames shed by capture-buffer backpressure (non-zero only
    /// when [`LatencyExperiment::capture_limit`] bounded the buffer and
    /// the run overflowed it). A non-zero value flags the report as a
    /// load-shedding partial: the capture is honest but incomplete.
    pub capture_shed: u64,
}

impl LatencyExperiment {
    /// Check the configuration without running anything. [`Self::run`]
    /// calls this first, so a bad config is a typed error before any
    /// event executes.
    pub fn validate(&self) -> Result<(), OsntError> {
        if !(64..=9000).contains(&self.frame_len) {
            return Err(OsntError::config(
                "experiment",
                format!("frame_len {} outside 64..=9000", self.frame_len),
            ));
        }
        if !(self.probe_load > 0.0 && self.probe_load <= 1.0) {
            return Err(OsntError::config(
                "experiment",
                format!("probe_load {} outside (0, 1]", self.probe_load),
            ));
        }
        if !(0.0..=2.0).contains(&self.background_load) {
            return Err(OsntError::config(
                "experiment",
                format!("background_load {} outside [0, 2]", self.background_load),
            ));
        }
        if self.duration == SimDuration::ZERO {
            return Err(OsntError::config("experiment", "duration is zero"));
        }
        if self.warmup >= self.duration {
            return Err(OsntError::config(
                "experiment",
                format!(
                    "warmup {} swallows the whole {} window",
                    self.warmup, self.duration
                ),
            ));
        }
        if let Some(faults) = &self.probe_faults {
            faults.validate()?;
        }
        Ok(())
    }

    /// Run against a device under test installed by `attach`.
    ///
    /// Injected faults never abort a run: losses, corruption and
    /// duplicates are accounted in the report (a *partial* result, with
    /// `latency: None` only when no sample survived). `Err` is reserved
    /// for invalid configurations and runs that produced no probe
    /// traffic at all.
    pub fn run<F>(&self, attach: F) -> Result<LatencyReport, OsntError>
    where
        F: FnOnce(&mut SimBuilder) -> DutAttachment,
    {
        self.validate()?;
        let start_at = SimTime::from_ms(1);
        let mut b = SimBuilder::new();
        let dut = attach(&mut b);

        let probe_frame = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(5001, PROBE_PORT)
            .pad_to_frame(self.frame_len)
            .build();
        let bg_frame = PacketBuilder::ethernet(MacAddr::local(3), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 2))
            .udp(5002, BACKGROUND_PORT)
            .pad_to_frame(self.frame_len)
            .build();

        let stop_at = start_at + self.duration;
        // Poisson probe sampling: by PASTA (Poisson arrivals see time
        // averages) the probe's latency distribution is an unbiased view
        // of the queue. A CBR probe can phase-lock with CBR load — all
        // flows here are quantised to exact wire slots — and then sees
        // only one fixed point of the queue cycle.
        let probe_pps =
            self.probe_load * osnt_packet::line_rate_pps(10_000_000_000, self.frame_len);
        let probe_cfg = GenConfig {
            schedule: Schedule::Poisson {
                mean_pps: probe_pps,
                seed: self.seed,
            },
            start_at,
            stop_at: Some(stop_at),
            stamp: Some(StampConfig::default_payload()),
            ..GenConfig::default()
        };
        // Capture only the probe stream: background load is filtered in
        // "hardware" so the host path is never the bottleneck being
        // measured.
        let mut filter = FilterTable::drop_by_default();
        filter.push(
            WildcardRule::any().with_dst_port(PROBE_PORT),
            FilterAction::Capture,
        );
        let mon_cfg = MonConfig {
            filter,
            host: HostPathConfig::unlimited(),
            capture_limit: self.capture_limit,
            ..MonConfig::default()
        };

        let mut ports = vec![
            PortRole::generator(Box::new(FixedTemplate::new(probe_frame)), probe_cfg),
            // Port 1 captures, and also primes the DUT's learning table
            // by sending one frame *from* the capture-side MAC.
            PortRole::generator(
                Box::new(FixedTemplate::new(
                    PacketBuilder::ethernet(MacAddr::local(2), MacAddr::BROADCAST)
                        .ipv4(
                            Ipv4Addr::new(10, 0, 0, 2),
                            Ipv4Addr::new(255, 255, 255, 255),
                        )
                        .udp(1, 1)
                        .build(),
                )),
                GenConfig {
                    count: Some(1),
                    ..GenConfig::default()
                },
            )
            .with_monitor(mon_cfg),
        ];
        if self.background_load > 0.0 {
            // Poisson, not CBR: two periodic streams can phase-lock so
            // that the probe never observes the queue (a classic
            // measurement artifact); Poisson background is also the more
            // realistic model of aggregate load.
            let mean_pps =
                self.background_load * osnt_packet::line_rate_pps(10_000_000_000, self.frame_len);
            ports.push(PortRole::generator(
                Box::new(FixedTemplate::new(bg_frame)),
                GenConfig {
                    schedule: Schedule::Poisson {
                        mean_pps,
                        seed: self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(17),
                    },
                    start_at,
                    stop_at: Some(stop_at),
                    ..GenConfig::default()
                },
            ));
        }
        let n_ports = ports.len();
        let device = OsntDevice::install(
            &mut b,
            DeviceConfig {
                clock_model: self.clock_model.clone(),
                clock_seed: self.seed,
                gps: None,
                gps_signal: self
                    .gps_signal
                    .clone()
                    .unwrap_or_else(osnt_time::GpsSignal::always_on),
                ports,
            },
        );
        // Probe path: direct, or through the fault injector.
        let probe_fault_stats = match &self.probe_faults {
            Some(cfg) => {
                let (link, stats) = FaultyLink::new(cfg.clone())?;
                let fl = b.add_component("probe-faults", Box::new(link), 2);
                b.connect(device.ports[0].id, 0, fl, 0, LinkSpec::ten_gig());
                b.connect(fl, 1, dut.id, dut.probe_in, LinkSpec::ten_gig());
                Some(stats)
            }
            None => {
                b.connect(
                    device.ports[0].id,
                    0,
                    dut.id,
                    dut.probe_in,
                    LinkSpec::ten_gig(),
                );
                None
            }
        };
        b.connect(device.ports[1].id, 0, dut.id, dut.out, LinkSpec::ten_gig());
        if n_ports > 2 {
            b.connect(
                device.ports[2].id,
                0,
                dut.id,
                dut.bg_in,
                LinkSpec::ten_gig(),
            );
        }

        // Run to the end of generation plus drain time.
        let horizon = stop_at + SimDuration::from_ms(10);
        let mut sim = b.build();
        if let Some(probe) = &self.progress {
            sim.attach_progress(std::sync::Arc::clone(probe));
        }
        sim.run_until(horizon);
        if let Some(probe) = &self.progress {
            if probe.abort_requested() {
                return Err(OsntError::RunAborted {
                    phase: format!("latency run at load {:.2}", self.background_load),
                    last_progress: probe.now_ps(),
                });
            }
        }

        let probe_gen = device.ports[0]
            .gen_stats
            .as_ref()
            .ok_or_else(|| OsntError::config("experiment", "probe port is not a generator"))?;
        let (probe_sent, probe_gen_dropped) = {
            let g = probe_gen.borrow();
            if g.not_connected {
                return Err(OsntError::NotConnected {
                    component: "probe generator".into(),
                    port: 0,
                });
            }
            (g.sent_frames, g.dropped)
        };
        let capture = device.ports[1].capture.borrow();
        // One streaming pass over the post-warm-up capture: no clone of
        // the buffer, no per-sample collect-and-sort — memory stays
        // constant however long the sweep ran. Raw samples are only
        // materialised when the caller asked to record them.
        let cutoff = start_at + self.warmup;
        let mut stream = StreamingSummary::new();
        let mut raw: Option<Vec<u64>> = self.record_raw.then(Vec::new);
        for cap in capture.packets.iter().filter(|c| c.rx_true >= cutoff) {
            let Some(d) = latency_of(cap, StampConfig::DEFAULT_OFFSET) else {
                continue;
            };
            stream.record(d);
            if let Some(raw) = raw.as_mut() {
                raw.push(d.as_ps());
            }
        }
        let received_all = capture.packets.len();
        let background_sent = device
            .ports
            .get(2)
            .and_then(|p| p.gen_stats.as_ref())
            .map(|s| s.borrow().sent_frames)
            .unwrap_or(0);
        if probe_sent == 0 || received_all == 0 {
            // Nothing generated, or every probe died in flight: even a
            // partial report would carry no measurement.
            return Err(OsntError::NoSamples {
                context: "latency experiment",
            });
        }
        let mon = device.ports[1].mon_stats.borrow();
        Ok(LatencyReport {
            background_load: self.background_load,
            probe_sent,
            background_sent,
            probe_received: received_all,
            loss: 1.0 - received_all as f64 / probe_sent as f64,
            latency: stream.finish(),
            probe_gen_dropped,
            crc_fail: mon.crc_fail,
            filtered_out: mon.filtered_out,
            host_drops: mon.host_drops,
            fault_stats: probe_fault_stats.map(|s| *s.borrow()),
            raw_latencies_ps: raw,
            capture_shed: mon.capture_shed,
        })
    }

    /// Run against a fresh legacy switch (the demo Part I device).
    pub fn run_legacy(&self, cfg: LegacyConfig) -> Result<LatencyReport, OsntError> {
        if cfg.n_ports < 3 {
            return Err(OsntError::config(
                "experiment",
                format!(
                    "legacy switch needs probe-in, bg-in and out ports; n_ports = {}",
                    cfg.n_ports
                ),
            ));
        }
        self.run(|b| {
            let sw = LegacySwitch::new(cfg.clone());
            let id = b.add_component("legacy-dut", Box::new(sw), cfg.n_ports);
            DutAttachment {
                id,
                probe_in: 0,
                bg_in: 2,
                out: 1,
            }
        })
    }

    /// Run against any boxed DUT component with `n_ports ≥ 3` wired as
    /// (0 = probe in, 2 = background in, 1 = out).
    pub fn run_boxed(
        &self,
        dut: Box<dyn Component>,
        n_ports: usize,
    ) -> Result<LatencyReport, OsntError> {
        if n_ports < 3 {
            return Err(OsntError::config(
                "experiment",
                format!("DUT needs probe-in, bg-in and out ports; n_ports = {n_ports}"),
            ));
        }
        self.run(|b| {
            let id = b.add_component("dut", dut, n_ports);
            DutAttachment {
                id,
                probe_in: 0,
                bg_in: 2,
                out: 1,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_switch_has_flat_low_latency() {
        let exp = LatencyExperiment::default();
        let report = exp.run_legacy(LegacyConfig::default()).expect("valid run");
        assert!(report.probe_sent > 100);
        assert_eq!(report.loss, 0.0, "no loss expected unloaded");
        let s = report.latency.expect("samples");
        // Deterministic path: jitter is bounded by stamp quantisation.
        assert!(s.jitter_ns <= 15.0, "jitter {} ns", s.jitter_ns);
        // Mean ≈ serialisation ×2 + lookup: roughly a microsecond at
        // 512B.
        assert!(
            s.mean_ns > 500.0 && s.mean_ns < 3_000.0,
            "mean {}",
            s.mean_ns
        );
    }

    #[test]
    fn latency_grows_with_background_load() {
        let at = |load: f64| {
            let exp = LatencyExperiment {
                background_load: load,
                duration: SimDuration::from_ms(10),
                warmup: SimDuration::from_ms(2),
                ..LatencyExperiment::default()
            };
            let r = exp.run_legacy(LegacyConfig::default()).expect("valid run");
            r.latency.expect("samples").p50_ns
        };
        let idle = at(0.0);
        let busy = at(0.9);
        let saturated = at(0.98);
        // Moderate load: visible queueing. The inputs are themselves
        // line-rate-smoothed, so the growth at 0.9 is hundreds of ns,
        // not the M/D/1 microseconds an instantaneous-arrival model
        // would predict.
        assert!(
            busy > idle + 200.0,
            "median at 90% load ({busy} ns) should exceed idle ({idle} ns)"
        );
        // Near saturation the hockey stick is unmistakable.
        assert!(
            saturated > idle * 3.0,
            "median at 98% load ({saturated} ns) should dwarf idle ({idle} ns)"
        );
    }

    #[test]
    fn oversubscription_causes_loss() {
        // probe 2% + background 105% > 100% → sustained queue growth →
        // the bounded output buffer must drop.
        let exp = LatencyExperiment {
            background_load: 1.0,
            probe_load: 0.05,
            duration: SimDuration::from_ms(30),
            warmup: SimDuration::from_ms(5),
            ..LatencyExperiment::default()
        };
        let r = exp
            .run_legacy(LegacyConfig {
                output_buffer_bytes: 64 * 1024,
                ..LegacyConfig::default()
            })
            .expect("valid run");
        assert!(r.loss > 0.0, "expected loss, got {}", r.loss);
    }

    #[test]
    fn bursty_probe_faults_yield_partial_results_with_accounting() {
        use osnt_netsim::{GilbertElliott, LossModel};
        let exp = LatencyExperiment {
            probe_faults: Some(FaultConfig {
                loss: LossModel::GilbertElliott(GilbertElliott::bursty(0.02, 8.0)),
                ..FaultConfig::default()
            }),
            ..LatencyExperiment::default()
        };
        let r = exp
            .run_legacy(LegacyConfig::default())
            .expect("faults degrade the result, they must not abort it");
        let f = r.fault_stats.expect("fault tally present");
        assert!(f.dropped > 0, "the bursty channel must have bitten");
        assert!(r.loss > 0.0);
        assert!(r.latency.is_some(), "survivors are still summarised");
        // Exact loss accounting: every probe frame either died on the
        // faulty wire or reached the capture buffer.
        assert_eq!(r.probe_received as u64, r.probe_sent - f.dropped);
    }

    #[test]
    fn corrupt_probe_frames_surface_as_crc_failures() {
        let exp = LatencyExperiment {
            probe_faults: Some(FaultConfig {
                corrupt_probability: 0.2,
                ..FaultConfig::default()
            }),
            ..LatencyExperiment::default()
        };
        let r = exp.run_legacy(LegacyConfig::default()).expect("valid run");
        let f = r.fault_stats.expect("fault tally present");
        assert!(f.corrupted > 0);
        assert!(r.crc_fail > 0, "corruption must be visible as CRC failures");
        // Corrupted frames are forwarded by the DUT but rejected at the
        // monitor MAC, so they are exactly the capture-side shortfall.
        assert_eq!(r.probe_received as u64 + r.crc_fail, r.probe_sent);
        assert!(r.latency.is_some());
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let bad_load = LatencyExperiment {
            probe_load: 0.0,
            ..LatencyExperiment::default()
        };
        assert!(matches!(
            bad_load.run_legacy(LegacyConfig::default()),
            Err(OsntError::Config { .. })
        ));
        let bad_warmup = LatencyExperiment {
            warmup: SimDuration::from_ms(30),
            ..LatencyExperiment::default()
        };
        assert!(matches!(
            bad_warmup.run_legacy(LegacyConfig::default()),
            Err(OsntError::Config { .. })
        ));
        let bad_faults = LatencyExperiment {
            probe_faults: Some(FaultConfig {
                duplicate_probability: 1.5,
                ..FaultConfig::default()
            }),
            ..LatencyExperiment::default()
        };
        assert!(matches!(
            bad_faults.run_legacy(LegacyConfig::default()),
            Err(OsntError::Config { .. })
        ));
    }

    #[test]
    fn too_few_dut_ports_is_a_typed_error_not_an_assert() {
        let exp = LatencyExperiment::default();
        let r = exp.run_legacy(LegacyConfig {
            n_ports: 2,
            ..LegacyConfig::default()
        });
        assert!(matches!(r, Err(OsntError::Config { .. })), "got {r:?}");
    }

    #[test]
    fn total_probe_loss_is_no_samples_not_a_phantom_report() {
        // A wire that eats every frame leaves nothing to summarise —
        // that is the one run-time fault class reported as an error
        // instead of a partial result.
        use osnt_netsim::LossModel;
        let exp = LatencyExperiment {
            probe_faults: Some(FaultConfig {
                loss: LossModel::Uniform { probability: 1.0 },
                ..FaultConfig::default()
            }),
            ..LatencyExperiment::default()
        };
        assert!(matches!(
            exp.run_legacy(LegacyConfig::default()),
            Err(OsntError::NoSamples { .. })
        ));
    }
}
