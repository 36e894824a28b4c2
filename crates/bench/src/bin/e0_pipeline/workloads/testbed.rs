//! What the two demo Part II workloads share: the traced rebuild of
//! `oflops_turbo::Testbed::build`, and the digest of a testbed's
//! simulated results.

use crate::digest::Digest;
use crate::spanned::{wrap, CardPortMirror, Layer, Spans};
use oflops_turbo::{ControlDir, MeasurementModule, OflopsController, Testbed, TestbedSpec};
use osnt_gen::GeneratorPort;
use osnt_mon::{CaptureBuffer, HostPathConfig, MonConfig, MonitorPort};
use osnt_netsim::{LinkSpec, SimBuilder};
use osnt_openflow::Message;
use osnt_switch::OpenFlowSwitch;
use osnt_time::HwClock;
use std::cell::RefCell;
use std::rc::Rc;

/// `Testbed::build` from the public constructors, a span around each
/// component. Same components, names, insertion order and wiring, so
/// the kernel's total event order — and with it every simulated result
/// — is the one the public API produces.
pub fn rebuild(
    spec: TestbedSpec,
    module: Box<dyn MeasurementModule>,
    spans: &Rc<Spans>,
) -> Testbed {
    assert!(
        spec.control_faults.is_none() && spec.progress.is_none(),
        "the rebuild mirrors the fault-free, unsupervised testbed only"
    );
    let on = Some(spans);
    let mut b = SimBuilder::new();
    let mut sw_cfg = spec.switch;
    sw_cfg.n_ports = sw_cfg.n_ports.max(3);
    let switch = OpenFlowSwitch::new(sw_cfg);
    let ctrl_port = switch.control_port();
    let kernel_ports = switch.kernel_ports();
    let sw = b.add_component("of-switch", wrap(switch, Layer::Switch, on), kernel_ports);

    let (controller, control_log) = OflopsController::with_policy(module, spec.retry);
    let control_errors = controller.errors_handle();
    let ctl = b.add_component("controller", wrap(controller, Layer::Controller, on), 1);
    b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());

    let clock = Rc::new(RefCell::new(HwClock::new(
        spec.clock_model,
        spec.clock_seed,
    )));
    let mut gen_stats = None;
    let mut monitors = Vec::new();
    let probe_mon = MonConfig::default();
    let capture_mon = || MonConfig {
        host: HostPathConfig::unlimited(),
        ..MonConfig::default()
    };
    let roles = [
        (spec.probe, probe_mon),
        (None, capture_mon()),
        (None, capture_mon()),
    ];
    for (i, (probe, mon_cfg)) in roles.into_iter().enumerate() {
        let gen = probe.map(|(workload, cfg)| {
            let (g, stats) = GeneratorPort::new(workload, cfg, clock.clone());
            gen_stats = Some(stats);
            wrap(g, Layer::Gen, on)
        });
        let (mon, capture, mon_stats) = MonitorPort::new(mon_cfg, clock.clone());
        let port = CardPortMirror {
            gen,
            mon: wrap(mon, Layer::Mon, on),
        };
        let id = b.add_component(&format!("osnt-port{i}"), Box::new(port), 1);
        // OSNT port i faces OpenFlow port i+1, which is kernel port i.
        b.connect(id, 0, sw, i, LinkSpec::ten_gig());
        monitors.push((capture, mon_stats));
    }
    let (capture_b, mon_b) = monitors.pop().expect("three card ports");
    let (capture_a, mon_a) = monitors.pop().expect("three card ports");
    Testbed {
        sim: b.build(),
        control_log,
        capture_a,
        capture_b,
        mon_a,
        mon_b,
        gen_stats,
        control_errors,
        control_fault_stats: None,
    }
}

fn capture(d: &mut Digest, buffer: &CaptureBuffer) {
    d.u64(buffer.len() as u64);
    for cap in &buffer.packets {
        d.u64(cap.rx_stamp.to_ps());
        d.u64(cap.rx_true.as_ps());
        d.u64(cap.orig_len as u64);
        d.bytes(cap.packet.data());
    }
}

/// Both captures (stamps and bytes) and the whole control log.
pub fn digest(d: &mut Digest, tb: &Testbed) {
    capture(d, &tb.capture_a.borrow());
    capture(d, &tb.capture_b.borrow());
    let log = tb.control_log.borrow();
    d.u64(log.len() as u64);
    for e in log.iter() {
        d.u64(e.time.as_ps());
        d.u64(u64::from(e.dir == ControlDir::Sent));
        d.bytes(&e.message.encode(e.xid));
    }
    d.u64(tb.control_errors.borrow().len() as u64);
}

/// Control-plane outcomes that break either workload's ledger: frames
/// punted to the controller, errors the switch sent, and requests the
/// controller timed out on or gave up.
pub fn control_failures(tb: &Testbed) -> u64 {
    let log = tb.control_log.borrow();
    let bad = log
        .iter()
        .filter(|e| matches!(e.message, Message::PacketIn(_) | Message::Error { .. }))
        .count();
    (bad + tb.control_errors.borrow().len()) as u64
}
