//! Using the tester to characterise a faulty link: inject seeded loss
//! and jitter, then measure both from the capture — loss via sequence
//! tags, delay distribution via embedded timestamps.
//!
//! ```sh
//! cargo run --release --example impaired_link
//! ```

use osnt::core::{
    analyze_sequence, latencies_from_capture, DeviceConfig, OsntDevice, PortRole, Summary,
};
use osnt::gen::txstamp::StampConfig;
use osnt::gen::workload::FixedTemplate;
use osnt::gen::{GenConfig, Schedule};
use osnt::mon::{HostPathConfig, MonConfig};
use osnt::netsim::{FaultConfig, FaultyLink, LinkSpec, LossModel, SimBuilder};
use osnt::time::{DriftModel, SimDuration, SimTime};

fn main() {
    let n_frames = 20_000u64;
    let injected_loss = 0.03;

    let mut b = SimBuilder::new();
    let device = OsntDevice::install(
        &mut b,
        DeviceConfig {
            clock_model: DriftModel::ideal(),
            clock_seed: 1,
            gps: None,
            gps_signal: osnt::time::GpsSignal::always_on(),
            ports: vec![
                PortRole::generator(
                    Box::new(FixedTemplate::new(FixedTemplate::udp_frame(512)).with_sequence_tag()),
                    GenConfig {
                        schedule: Schedule::ConstantPps(1_000_000.0),
                        count: Some(n_frames),
                        stamp: Some(StampConfig::default_payload()),
                        ..GenConfig::default()
                    },
                ),
                PortRole::monitor_only().with_monitor(MonConfig {
                    host: HostPathConfig::unlimited(),
                    ..MonConfig::default()
                }),
            ],
        },
    );
    let (bad_link, _) = FaultyLink::new(FaultConfig {
        loss: LossModel::Uniform {
            probability: injected_loss,
        },
        ..FaultConfig::delay_jitter(SimDuration::from_us(20), SimDuration::from_us(15), 4242)
    })
    .expect("valid fault config");
    let imp = b.add_component("bad-link", Box::new(bad_link), 2);
    b.connect(device.ports[0].id, 0, imp, 0, LinkSpec::ten_gig());
    b.connect(imp, 1, device.ports[1].id, 0, LinkSpec::ten_gig());

    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(50));

    let capture = device.ports[1].capture.borrow();
    let seq = analyze_sequence(&capture);
    println!(
        "sent {n_frames} frames through a link with {:.0}% injected loss, 20±15 µs delay\n",
        injected_loss * 100.0
    );
    println!("sequence analysis:");
    println!("  received   : {}", seq.tagged);
    println!(
        "  lost       : {} ({:.2}%)",
        seq.lost,
        seq.loss_fraction(n_frames) * 100.0
    );
    println!("  reordered  : {}", seq.reordered);
    println!("  duplicated : {}", seq.duplicated);

    let lat = latencies_from_capture(&capture, StampConfig::DEFAULT_OFFSET);
    if let Some(s) = Summary::from_durations(&lat) {
        println!("\nlatency (wire + injected delay):\n  {}", s.to_line());
    }
}
