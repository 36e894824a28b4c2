//! The contract's oracles, run where tier-1 (`cargo test -q`) runs:
//! bounded versions of the comparisons each fast path is held to.
//!
//! * the flow table's tuple-space index against the rule interpreter
//!   (`FlowTable::lookup_idx`) after every op of a seeded 2 000-op
//!   flow_mod history, wildcard-junk matches included — the chaos
//!   campaigns' standing `classifier-parity` audit, one seed of it (the
//!   full property suite is
//!   `crates/switch/tests/classifier_equivalence.rs`);
//! * the monitor's block path against scalar dispatch, the scalar side
//!   being a wrapper that forwards `on_packet` and nothing else (the
//!   per-stage variants are in `crates/mon/src/pipeline.rs`).

use osnt::chaos::{classifier_parity_audit, InvariantAuditor};
use osnt::gen::workload::FixedTemplate;
use osnt::gen::{GenConfig, GeneratorPort, Schedule};
use osnt::mon::{
    CaptureBuffer, FilterAction, FilterTable, HostPathConfig, MonConfig, MonStats, MonitorPort,
    ThinConfig,
};
use osnt::netsim::{Component, ComponentId, Kernel, LinkSpec, PacketBurst, SimBuilder};
use osnt::packet::{Packet, WildcardRule};
use osnt::time::{HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn flow_table_index_answers_like_the_interpreter_after_every_flow_mod() {
    let mut auditor = InvariantAuditor::new();
    classifier_parity_audit(0x0517_c0de, &mut auditor, "contract");
    assert_eq!(auditor.audited(), 1);
    assert!(
        auditor.violations().is_empty(),
        "{:?}",
        auditor.violations()
    );
}

/// The scalar reference: forwards `on_packet` (the monitor's only scalar
/// handler) and nothing else, so the kernel never hands it a batch.
struct ScalarOnly(MonitorPort);

impl Component for ScalarOnly {
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, p: Packet) {
        self.0.on_packet(k, me, port, p);
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The fast side: forwards the whole `Component` surface and keeps the
/// length of each batch the kernel delivered.
struct Recording {
    inner: MonitorPort,
    batches: Rc<RefCell<Vec<usize>>>,
}

impl Component for Recording {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        self.inner.on_start(k, me);
    }
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, p: Packet) {
        self.inner.on_packet(k, me, port, p);
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
        self.inner.on_timer(k, me, tag);
    }
    fn wants_packet_batches(&self) -> bool {
        self.inner.wants_packet_batches()
    }
    fn wants_packet_batches_on(&self, port: usize) -> bool {
        self.inner.wants_packet_batches_on(port)
    }
    fn batch_window(&self) -> Option<SimDuration> {
        self.inner.batch_window()
    }
    fn on_packet_batch(
        &mut self,
        k: &mut Kernel,
        me: ComponentId,
        port: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        self.batches.borrow_mut().push(batch.len());
        self.inner.on_packet_batch(k, me, port, batch);
    }
    fn wants_bursts(&self) -> bool {
        self.inner.wants_bursts()
    }
    fn on_burst(&mut self, k: &mut Kernel, me: ComponentId, port: usize, burst: PacketBurst) {
        self.inner.on_burst(k, me, port, burst);
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// 1 000 back-to-back frames, departing 32 per generator event, into a
/// monitor with decoy rules, thinning and a capture bound.
fn capture_run(
    wrap: impl FnOnce(MonitorPort) -> Box<dyn Component>,
) -> (Rc<RefCell<CaptureBuffer>>, Rc<RefCell<MonStats>>) {
    let (gen, _) = GeneratorPort::new(
        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(256))),
        GenConfig {
            count: Some(1_000),
            schedule: Schedule::BackToBack,
            batch: 32,
            ..GenConfig::default()
        },
        Rc::new(RefCell::new(HwClock::ideal())),
    );
    let mut filter = FilterTable::drop_by_default();
    filter.push(WildcardRule::any().with_dst_port(7), FilterAction::Drop);
    filter.push(
        WildcardRule::any().with_dst_port(9001),
        FilterAction::Capture,
    );
    let (mon, buffer, stats) = MonitorPort::new(
        MonConfig {
            filter,
            thin: ThinConfig::cut_with_hash(60),
            host: HostPathConfig::unlimited(),
            capture_limit: Some(701),
        },
        Rc::new(RefCell::new(HwClock::ideal())),
    );
    let mut b = SimBuilder::new();
    let g = b.add_component("gen", Box::new(gen), 1);
    let m = b.add_component("mon", wrap(mon), 1);
    b.connect(g, 0, m, 0, LinkSpec::ten_gig());
    b.build().run_until(SimTime::from_ms(2));
    (buffer, stats)
}

#[test]
fn monitor_block_path_captures_what_scalar_dispatch_captures() {
    let (scalar_buf, scalar_stats) = capture_run(|mon| Box::new(ScalarOnly(mon)));
    let batches = Rc::new(RefCell::new(Vec::new()));
    let (block_buf, block_stats) = capture_run(|mon| {
        Box::new(Recording {
            inner: mon,
            batches: batches.clone(),
        })
    });
    // The two sides really took different paths: full blocks and a tail
    // flush on one, no batch at all on the other.
    let batches = batches.borrow();
    assert!(batches.iter().any(|&n| n >= 8), "{batches:?}");
    assert!(batches.iter().any(|&n| n > 1 && n % 8 != 0), "{batches:?}");
    assert_eq!(*scalar_stats.borrow(), *block_stats.borrow());
    assert_eq!(scalar_stats.borrow().capture_shed, 299);
    assert_eq!(scalar_buf.borrow().packets, block_buf.borrow().packets);
}
