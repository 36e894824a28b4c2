//! The standard OFLOPS-turbo testbed (paper Fig. 2).
//!
//! ```text
//!                         ┌────────────────────┐
//!   controller ──(1GbE)──▶│ ctrl   OF switch   │
//!                         │                    │
//!   OSNT gen port ───────▶│ of1            of2 │──▶ OSNT monitor A
//!                         │                of3 │──▶ OSNT monitor B
//!                         └────────────────────┘
//! ```
//!
//! The OSNT card supplies a stamped probe stream into OpenFlow port 1 and
//! captures whatever exits ports 2 and 3 with MAC-level timestamps; the
//! controller runs a [`crate::MeasurementModule`] over the control
//! channel. Modules correlate the three channels after the run.

use crate::controller::{
    ControlError, ControlLog, MeasurementModule, OflopsController, RetryPolicy,
};
use crate::faults::{ControlFaultConfig, ControlFaultStats, FaultyControlChannel};
use osnt_core::{DeviceConfig, OsntDevice, PortRole};
use osnt_gen::{GenConfig, Workload};
use osnt_mon::{CaptureBuffer, HostPathConfig, MonConfig, MonStats};
use osnt_netsim::{LinkSpec, Sim, SimBuilder};
use osnt_switch::{OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{DriftModel, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The OpenFlow wire-port numbers of the standard testbed.
pub mod ports {
    /// Probe ingress.
    pub const PROBE_IN: u16 = 1;
    /// Primary egress (monitor A).
    pub const OUT_A: u16 = 2;
    /// Alternate egress (monitor B).
    pub const OUT_B: u16 = 3;
}

/// Testbed configuration.
pub struct TestbedSpec {
    /// The switch under test.
    pub switch: OfSwitchConfig,
    /// Probe traffic (workload + pacing); `None` for control-plane-only
    /// modules.
    pub probe: Option<(Box<dyn Workload>, GenConfig)>,
    /// Card clock model.
    pub clock_model: DriftModel,
    /// Clock seed.
    pub clock_seed: u64,
    /// Scripted control-channel faults (`None` = clean channel).
    pub control_faults: Option<ControlFaultConfig>,
    /// Timeout/retry budget for tracked control requests.
    pub retry: RetryPolicy,
    /// Supervisor heartbeat: when set, the simulation's dispatch loop
    /// beats it and stops once one of its limits fires. Control events
    /// are events of that loop, so they beat it too.
    pub progress: Option<std::sync::Arc<osnt_time::ProgressProbe>>,
}

impl TestbedSpec {
    /// Control-plane-only testbed with the default switch.
    pub fn control_only() -> Self {
        TestbedSpec {
            switch: OfSwitchConfig::default(),
            probe: None,
            clock_model: DriftModel::ideal(),
            clock_seed: 1,
            control_faults: None,
            retry: RetryPolicy::default(),
            progress: None,
        }
    }
}

/// A built testbed, ready to run.
pub struct Testbed {
    /// The simulation.
    pub sim: Sim,
    /// Control-plane event log (timestamped at the controller).
    pub control_log: Rc<RefCell<ControlLog>>,
    /// Monitor A's capture buffer (switch port 2).
    pub capture_a: Rc<RefCell<CaptureBuffer>>,
    /// Monitor B's capture buffer (switch port 3).
    pub capture_b: Rc<RefCell<CaptureBuffer>>,
    /// Monitor A statistics.
    pub mon_a: Rc<RefCell<MonStats>>,
    /// Monitor B statistics.
    pub mon_b: Rc<RefCell<MonStats>>,
    /// Probe generator statistics (when a probe was configured).
    pub gen_stats: Option<Rc<RefCell<osnt_gen::GenStats>>>,
    /// Control-channel errors the controller recorded (timeouts,
    /// retries given up, decode failures). Empty on a clean channel.
    pub control_errors: Rc<RefCell<Vec<ControlError>>>,
    /// What the control-channel fault injector did (`None` when the
    /// spec scripted no faults).
    pub control_fault_stats: Option<Rc<RefCell<ControlFaultStats>>>,
}

impl Testbed {
    /// Assemble the standard testbed around a measurement module.
    ///
    /// # Panics
    ///
    /// Panics if `spec.control_faults` fails validation — scripting the
    /// faults is test code, and a bad schedule is a bug in the test.
    /// Use [`ControlFaultConfig::validate`] first to get a typed error.
    pub fn build(spec: TestbedSpec, module: Box<dyn MeasurementModule>) -> Testbed {
        let mut b = SimBuilder::new();
        let n_data = spec.switch.n_ports.max(3);
        let mut sw_cfg = spec.switch;
        sw_cfg.n_ports = n_data;
        let switch = OpenFlowSwitch::new(sw_cfg);
        let ctrl_port = switch.control_port();
        let kernel_ports = switch.kernel_ports();
        let sw = b.add_component("of-switch", Box::new(switch), kernel_ports);

        let (controller, control_log) = OflopsController::with_policy(module, spec.retry);
        let control_errors = controller.errors_handle();
        let ctl = b.add_component("controller", Box::new(controller), 1);
        let control_fault_stats = match spec.control_faults {
            Some(cfg) => {
                let (channel, stats) =
                    FaultyControlChannel::new(cfg).expect("invalid control fault schedule");
                let fc = b.add_component("ctrl-faults", Box::new(channel), 2);
                b.connect(ctl, 0, fc, 0, LinkSpec::one_gig());
                b.connect(fc, 1, sw, ctrl_port, LinkSpec::one_gig());
                Some(stats)
            }
            None => {
                b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
                None
            }
        };

        let unlimited_mon = || MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let mut roles = Vec::new();
        match spec.probe {
            Some((workload, cfg)) => roles.push(PortRole::generator(workload, cfg)),
            None => roles.push(PortRole::monitor_only()),
        }
        roles.push(PortRole::monitor_only().with_monitor(unlimited_mon()));
        roles.push(PortRole::monitor_only().with_monitor(unlimited_mon()));
        let device = OsntDevice::install(
            &mut b,
            DeviceConfig {
                clock_model: spec.clock_model,
                clock_seed: spec.clock_seed,
                gps: None,
                gps_signal: osnt_time::GpsSignal::always_on(),
                ports: roles,
            },
        );
        // OSNT port 0 → switch OF port 1; monitors on OF ports 2 and 3.
        b.connect(
            device.ports[0].id,
            0,
            sw,
            (ports::PROBE_IN - 1) as usize,
            LinkSpec::ten_gig(),
        );
        b.connect(
            device.ports[1].id,
            0,
            sw,
            (ports::OUT_A - 1) as usize,
            LinkSpec::ten_gig(),
        );
        b.connect(
            device.ports[2].id,
            0,
            sw,
            (ports::OUT_B - 1) as usize,
            LinkSpec::ten_gig(),
        );

        let gen_stats = device.ports[0].gen_stats.clone();
        let mut sim = b.build();
        if let Some(probe) = spec.progress {
            sim.attach_progress(probe);
        }
        Testbed {
            sim,
            control_log,
            capture_a: device.ports[1].capture.clone(),
            capture_b: device.ports[2].capture.clone(),
            mon_a: device.ports[1].mon_stats.clone(),
            mon_b: device.ports[2].mon_stats.clone(),
            gen_stats,
            control_errors,
            control_fault_stats,
        }
    }

    /// Run until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }
}
