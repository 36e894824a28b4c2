//! An OpenFlow 1.0 switch model with a realistic (slow, serial) control
//! plane.
//!
//! The architecture mirrors the switches OFLOPS measured:
//!
//! * The **dataplane** (hardware table + fabric) forwards at line rate
//!   with a fixed lookup latency.
//! * The **management CPU** processes control messages *serially*: each
//!   `FLOW_MOD`, echo, stats request or punted packet occupies the CPU
//!   for a configurable time. Bursts of flow_mods therefore delay
//!   everything behind them — including the echo probes OFLOPS uses to
//!   watch control-plane health.
//! * A committed flow_mod still needs [`OfSwitchConfig::hw_install_delay`]
//!   before the **hardware** table actually changes. By default the
//!   switch answers `BARRIER_REQUEST` from the CPU **without** waiting
//!   for hardware (`honest_barrier = false`), reproducing the
//!   control-plane/data-plane gap that OFLOPS-turbo exposes (E6) and the
//!   transient misforwarding during large updates (E7).

use crate::cam::Cam;
use crate::control::{decap_control, encap_control};
use crate::fabric::{ForwardingPipeline, TIMER_FORWARD};
use crate::flowtable::{FlowEntry, FlowTable, RemovalReason};
use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_openflow::actions::port_no;
use osnt_openflow::messages::{
    EchoData, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved, FlowStatsEntry, Message,
    PacketIn, PacketInReason, PacketOut, PhyPort, PortStats, StatsBody,
};
use osnt_openflow::{Action, OfMatch};
use osnt_packet::ethernet::EthernetHeader;
use osnt_packet::{FlowKey, MacAddr, Packet};
use osnt_time::{SimDuration, SimTime};
use std::collections::VecDeque;

const TAG_CPU: u64 = 2;
const TAG_HW: u64 = 3;
const TAG_BARRIER: u64 = 4;
const TAG_EXPIRE: u64 = 5;

/// OpenFlow switch parameters.
#[derive(Debug, Clone)]
pub struct OfSwitchConfig {
    /// Number of data ports (the control channel gets one extra kernel
    /// port).
    pub n_ports: usize,
    /// Datapath id reported in FEATURES_REPLY.
    pub datapath_id: u64,
    /// Hardware flow-table capacity (TCAM rows).
    pub table_capacity: usize,
    /// Management-CPU time per FLOW_MOD.
    pub flowmod_proc: SimDuration,
    /// Extra delay between the CPU committing a flow_mod and the
    /// hardware table actually changing.
    pub hw_install_delay: SimDuration,
    /// When true the switch delays BARRIER_REPLY until every prior
    /// flow_mod has reached hardware (the honest behaviour); when false
    /// it replies straight from the CPU (what OFLOPS found in practice).
    pub honest_barrier: bool,
    /// CPU time per echo request.
    pub echo_proc: SimDuration,
    /// CPU time per features request.
    pub features_proc: SimDuration,
    /// CPU time to start a stats reply…
    pub stats_proc_base: SimDuration,
    /// …plus this much per flow entry scanned.
    pub stats_proc_per_entry: SimDuration,
    /// CPU time per PACKET_OUT.
    pub packet_out_proc: SimDuration,
    /// CPU time per punted packet (PACKET_IN generation).
    pub packet_in_proc: SimDuration,
    /// Dataplane fabric/lookup latency (the fixed part).
    pub lookup_latency: SimDuration,
    /// Output buffer per data port, bytes.
    pub output_buffer_bytes: usize,
    /// Bytes of a punted frame included in PACKET_IN.
    pub miss_send_len: usize,
}

impl Default for OfSwitchConfig {
    fn default() -> Self {
        OfSwitchConfig {
            n_ports: 4,
            datapath_id: 0x00_0000_0000_0042,
            table_capacity: 1500,
            flowmod_proc: SimDuration::from_us(25),
            hw_install_delay: SimDuration::from_ms(1),
            honest_barrier: false,
            echo_proc: SimDuration::from_us(10),
            features_proc: SimDuration::from_us(50),
            stats_proc_base: SimDuration::from_us(100),
            stats_proc_per_entry: SimDuration::from_us(2),
            packet_out_proc: SimDuration::from_us(15),
            packet_in_proc: SimDuration::from_us(20),
            lookup_latency: SimDuration::from_ns(900),
            output_buffer_bytes: 512 * 1024,
            miss_send_len: 128,
        }
    }
}

/// Work items for the serial management CPU.
#[derive(Debug)]
enum CpuJob {
    /// The xid of the flow_mod at `mods[hw_pending]`.
    FlowMod(u32),
    Barrier(u32),
    Echo(EchoData, u32),
    Features(u32),
    StatsFlow(OfMatch, u32),
    StatsPort(u16, u32),
    PacketOut(PacketOut),
    Punt {
        in_port: u16,
        reason: PacketInReason,
        data: Vec<u8>,
        total_len: u16,
    },
}

/// The switch component. Kernel port layout: `0..n_ports` are data
/// ports, `n_ports` is the control channel.
pub struct OpenFlowSwitch {
    config: OfSwitchConfig,
    table: FlowTable,
    cam: Cam,
    pipeline: ForwardingPipeline,
    cpu_fifo: VecDeque<CpuJob>,
    cpu_busy_until: SimTime,
    /// Every flow_mod from arrival to its hardware commit, in order: it
    /// is moved in once and out once. The first `hw_pending` have passed
    /// the CPU and wait for the TCAM; the rest wait for the CPU.
    mods: VecDeque<FlowMod>,
    hw_pending: usize,
    last_hw_commit: SimTime,
    barrier_fifo: VecDeque<u32>,
    /// Logical table occupancy as the CPU sees it (hardware length plus
    /// in-flight adds minus deletes) — used for the table-full check.
    logical_len: usize,
    next_xid: u32,
    /// PACKET_INs sent.
    pub packet_ins: u64,
    /// FLOW_MODs accepted by the CPU.
    pub flow_mods_accepted: u64,
    /// FLOW_MODs rejected (table full).
    pub flow_mods_rejected: u64,
}

impl OpenFlowSwitch {
    /// A switch with the given configuration.
    pub fn new(config: OfSwitchConfig) -> Self {
        OpenFlowSwitch {
            table: FlowTable::new(config.table_capacity),
            cam: Cam::default(),
            pipeline: ForwardingPipeline::new(),
            cpu_fifo: VecDeque::new(),
            cpu_busy_until: SimTime::ZERO,
            mods: VecDeque::new(),
            hw_pending: 0,
            last_hw_commit: SimTime::ZERO,
            barrier_fifo: VecDeque::new(),
            logical_len: 0,
            next_xid: 1,
            packet_ins: 0,
            flow_mods_accepted: 0,
            flow_mods_rejected: 0,
            config,
        }
    }

    /// The kernel port index of the control channel.
    pub fn control_port(&self) -> usize {
        self.config.n_ports
    }

    /// Total kernel ports this component needs.
    pub fn kernel_ports(&self) -> usize {
        self.config.n_ports + 1
    }

    /// Frames lost at full output queues so far.
    pub fn output_drops(&self) -> u64 {
        self.pipeline.output_drops
    }

    fn send_control(&mut self, kernel: &mut Kernel, me: ComponentId, msg: Message, xid: u32) {
        let frame = encap_control(&msg, xid);
        let ctrl = self.control_port();
        let _ = kernel.transmit(me, ctrl, frame);
    }

    /// Queue a job on the serial management CPU.
    fn enqueue_cpu(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        job: CpuJob,
        proc: SimDuration,
    ) {
        let start = kernel.now().max(self.cpu_busy_until);
        let done = start + proc;
        self.cpu_busy_until = done;
        self.cpu_fifo.push_back(job);
        kernel.schedule_timer_at(me, done, TAG_CPU);
    }

    fn on_control_frame(&mut self, kernel: &mut Kernel, me: ComponentId, packet: &Packet) {
        let Some(Ok((msg, xid))) = decap_control(packet) else {
            return; // not a control frame / malformed: ignore
        };
        match msg {
            Message::Hello => {
                self.send_control(kernel, me, Message::Hello, xid);
            }
            Message::EchoRequest(data) => {
                let proc = self.config.echo_proc;
                self.enqueue_cpu(kernel, me, CpuJob::Echo(data, xid), proc);
            }
            Message::FeaturesRequest => {
                let proc = self.config.features_proc;
                self.enqueue_cpu(kernel, me, CpuJob::Features(xid), proc);
            }
            Message::FlowMod(fm) => {
                let proc = self.config.flowmod_proc;
                self.mods.push_back(fm);
                self.enqueue_cpu(kernel, me, CpuJob::FlowMod(xid), proc);
            }
            Message::BarrierRequest => {
                // The barrier itself is cheap; ordering is the point.
                let proc = SimDuration::from_us(1);
                self.enqueue_cpu(kernel, me, CpuJob::Barrier(xid), proc);
            }
            Message::StatsRequest(StatsBody::FlowRequest { of_match, .. }) => {
                let proc = self.config.stats_proc_base
                    + self
                        .config
                        .stats_proc_per_entry
                        .saturating_mul(self.table.len() as u64);
                self.enqueue_cpu(kernel, me, CpuJob::StatsFlow(of_match, xid), proc);
            }
            Message::StatsRequest(StatsBody::PortRequest { port_no }) => {
                let proc = self.config.stats_proc_base;
                self.enqueue_cpu(kernel, me, CpuJob::StatsPort(port_no, xid), proc);
            }
            Message::PacketOut(po) => {
                let proc = self.config.packet_out_proc;
                self.enqueue_cpu(kernel, me, CpuJob::PacketOut(po), proc);
            }
            // Replies/asynchronous messages are never valid *to* a switch.
            _ => {}
        }
    }

    fn run_cpu_job(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let job = self.cpu_fifo.pop_front().expect("CPU timer without job");
        match job {
            CpuJob::Echo(data, xid) => {
                self.send_control(kernel, me, Message::EchoReply(data), xid);
            }
            CpuJob::Features(xid) => {
                let ports = (1..=self.config.n_ports as u16)
                    .map(|p| PhyPort {
                        port_no: p,
                        hw_addr: MacAddr::local(0x10 + p as u8),
                        name: format!("of{p}"),
                    })
                    .collect();
                let reply = Message::FeaturesReply(FeaturesReply {
                    datapath_id: self.config.datapath_id,
                    n_buffers: 256,
                    n_tables: 1,
                    capabilities: 0x07, // flow stats, table stats, port stats
                    actions: 0x0b,      // output, set_vlan_vid, strip_vlan
                    ports,
                });
                self.send_control(kernel, me, reply, xid);
            }
            CpuJob::FlowMod(xid) => {
                let fm = &self.mods[self.hw_pending];
                // Table-full is detected by the CPU against its logical
                // view (hardware length + in-flight deltas).
                match fm.command {
                    FlowModCommand::Add => {
                        if self.logical_len >= self.config.table_capacity {
                            let specificity = fm.of_match.specificity();
                            self.mods.remove(self.hw_pending);
                            self.flow_mods_rejected += 1;
                            self.send_control(
                                kernel,
                                me,
                                Message::Error {
                                    err_type: 3, // OFPET_FLOW_MOD_FAILED
                                    code: 0,     // OFPFMFC_ALL_TABLES_FULL
                                    data: specificity.to_be_bytes().to_vec(),
                                },
                                xid,
                            );
                            return;
                        }
                        self.logical_len += 1;
                    }
                    FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                        // Deletes free logical space when they land; the
                        // CPU can't know how many rows will match, so it
                        // reconciles at commit time (see below).
                    }
                    _ => {}
                }
                self.flow_mods_accepted += 1;
                self.hw_pending += 1;
                let commit_at = kernel.now() + self.config.hw_install_delay;
                self.last_hw_commit = self.last_hw_commit.max(commit_at);
                kernel.schedule_timer_at(me, commit_at, TAG_HW);
            }
            CpuJob::Barrier(xid) => {
                if self.config.honest_barrier {
                    let reply_at = kernel.now().max(self.last_hw_commit);
                    self.barrier_fifo.push_back(xid);
                    kernel.schedule_timer_at(me, reply_at, TAG_BARRIER);
                } else {
                    self.send_control(kernel, me, Message::BarrierReply, xid);
                }
            }
            CpuJob::StatsFlow(filter, xid) => {
                // One reply, in as many parts as the length field needs.
                let now = kernel.now();
                let entries: Vec<FlowStatsEntry> = self
                    .table
                    .iter()
                    .filter(|e| crate::flowtable::covers(&filter, &e.of_match))
                    .map(|e| FlowStatsEntry {
                        table_id: 0,
                        of_match: e.of_match,
                        duration_sec: duration_sec(now - e.installed_at),
                        duration_nsec: duration_nsec(now - e.installed_at),
                        priority: e.priority,
                        cookie: e.cookie,
                        packet_count: e.packets,
                        byte_count: e.bytes,
                        actions: e.actions.clone(),
                    })
                    .collect();
                for part in StatsBody::flow_reply_parts(entries) {
                    self.send_control(kernel, me, Message::StatsReply(part), xid);
                }
            }
            CpuJob::StatsPort(which, xid) => {
                let mut entries = Vec::new();
                for p in 0..self.config.n_ports {
                    let wire_no = (p + 1) as u16;
                    if which != 0xffff && which != wire_no {
                        continue;
                    }
                    let c = kernel.counters(me, p);
                    entries.push(PortStats {
                        port_no: wire_no,
                        rx_packets: c.rx_frames,
                        tx_packets: c.tx_frames,
                        rx_bytes: c.rx_bytes,
                        tx_bytes: c.tx_bytes,
                        rx_dropped: 0,
                        tx_dropped: c.tx_drops,
                    });
                }
                self.send_control(
                    kernel,
                    me,
                    Message::StatsReply(StatsBody::PortReply(entries)),
                    xid,
                );
            }
            CpuJob::PacketOut(po) => {
                let pkt = Packet::from_vec(po.data);
                self.forward_with_actions(kernel, me, &po.actions, po.in_port, pkt);
            }
            CpuJob::Punt {
                in_port,
                reason,
                data,
                total_len,
            } => {
                self.packet_ins += 1;
                let xid = self.next_xid;
                self.next_xid += 1;
                self.send_control(
                    kernel,
                    me,
                    Message::PacketIn(PacketIn {
                        buffer_id: 0xffff_ffff,
                        total_len,
                        in_port,
                        reason,
                        data,
                    }),
                    xid,
                );
            }
        }
    }

    fn commit_hw(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let fm = self.mods.pop_front().expect("HW timer without commit");
        self.hw_pending -= 1;
        let now = kernel.now();
        match fm.command {
            FlowModCommand::Add => {
                let mut e = FlowEntry::new(fm.of_match, fm.priority, fm.actions, now);
                e.cookie = fm.cookie;
                e.flags = fm.flags;
                e.idle_timeout = fm.idle_timeout;
                e.hard_timeout = fm.hard_timeout;
                let before = self.table.len();
                if self.table.add(e).is_err() {
                    // The CPU's logical view raced a concurrent delete the
                    // other way; drop the add on the floor like real
                    // firmware (counted as rejected).
                    self.flow_mods_rejected += 1;
                    self.logical_len = self.table.len();
                } else if self.table.len() == before {
                    // Replaced in place: logical view overcounted.
                    self.logical_len = self.logical_len.saturating_sub(1).max(self.table.len());
                }
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let n = self
                    .table
                    .modify(&fm.of_match, fm.priority, strict, &fm.actions);
                if n == 0 {
                    // Per OpenFlow 1.0: a modify with no match behaves
                    // like an add.
                    let e = FlowEntry::new(fm.of_match, fm.priority, fm.actions, now);
                    if self.table.add(e).is_ok() {
                        self.logical_len = self.logical_len.max(self.table.len());
                    }
                }
            }
            FlowModCommand::DeleteStrict => {
                let removed = self.table.delete_strict(&fm.of_match, fm.priority);
                self.reconcile_removed(kernel, me, removed);
            }
            FlowModCommand::Delete => {
                let removed = self.table.delete(&fm.of_match, fm.priority, false);
                self.reconcile_removed(kernel, me, removed);
            }
        }
    }

    /// Bring the CPU's logical occupancy in line with what a DELETE took
    /// out of hardware and send the FLOW_REMOVEDs the entries asked for.
    fn reconcile_removed(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        removed: impl IntoIterator<Item = FlowEntry>,
    ) {
        let mut n = 0;
        for e in removed {
            n += 1;
            if e.flags & 1 != 0 {
                self.send_flow_removed(kernel, me, &e, RemovalReason::Delete);
            }
        }
        self.logical_len = self.logical_len.saturating_sub(n).max(self.table.len());
    }

    fn send_flow_removed(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        e: &FlowEntry,
        reason: RemovalReason,
    ) {
        let now = kernel.now();
        let dur = now - e.installed_at;
        let xid = self.next_xid;
        self.next_xid += 1;
        self.send_control(
            kernel,
            me,
            Message::FlowRemoved(FlowRemoved {
                of_match: e.of_match,
                cookie: e.cookie,
                priority: e.priority,
                reason: reason.code(),
                duration_sec: duration_sec(dur),
                duration_nsec: duration_nsec(dur),
                packet_count: e.packets,
                byte_count: e.bytes,
            }),
            xid,
        );
    }

    /// Send `packet` where one `OUTPUT` action points: the controller, a
    /// flood, the learning path or one data port.
    fn output(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        port: u16,
        in_port_wire: u16,
        packet: &Packet,
    ) {
        match port {
            port_no::CONTROLLER => {
                self.punt(kernel, me, in_port_wire, PacketInReason::Action, packet);
            }
            port_no::FLOOD | port_no::ALL => self.flood(kernel, me, in_port_wire, packet),
            port_no::NORMAL => self.forward_normal(kernel, me, in_port_wire, packet),
            wire_port => {
                let idx = wire_port as usize;
                if idx >= 1 && idx <= self.config.n_ports {
                    let latency = self.config.lookup_latency;
                    self.pipeline
                        .submit(kernel, me, latency, idx - 1, packet.clone());
                }
            }
        }
    }

    /// Copy `packet` to every data port but the one it came in on.
    fn flood(&mut self, kernel: &mut Kernel, me: ComponentId, in_port_wire: u16, packet: &Packet) {
        let latency = self.config.lookup_latency;
        for p in 1..=self.config.n_ports {
            if p != in_port_wire as usize {
                self.pipeline
                    .submit(kernel, me, latency, p - 1, packet.clone());
            }
        }
    }

    /// Run an action list on a frame: header rewrites first (they precede
    /// outputs in practice), then every output on the rewritten frame.
    fn forward_with_actions(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        actions: &[Action],
        in_port_wire: u16,
        packet: Packet,
    ) {
        let mut frame = packet;
        for a in actions {
            match a {
                Action::SetVlanVid(vid) => frame = set_vlan_vid(frame, *vid),
                Action::StripVlan => frame = strip_vlan(frame),
                Action::Output { .. } => {}
            }
        }
        for a in actions {
            if let Action::Output { port, .. } = a {
                self.output(kernel, me, *port, in_port_wire, &frame);
            }
        }
    }

    /// Account a frame to table entry `i` and run the entry's actions on
    /// it.
    fn forward_matched(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        i: usize,
        in_port_wire: u16,
        packet: Packet,
    ) {
        self.table.account(i, kernel.now(), packet.frame_len());
        // Forwarding needs `&mut self` beside the action list, so the
        // list leaves the entry for the call and goes back after: nothing
        // on the data path reads or moves table rows in between.
        let actions = std::mem::take(&mut self.table.entry_mut(i).actions);
        self.forward_with_actions(kernel, me, &actions, in_port_wire, packet);
        self.table.entry_mut(i).actions = actions;
    }

    fn forward_normal(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        in_port_wire: u16,
        packet: &Packet,
    ) {
        let Ok(EthernetHeader { dst, .. }) = EthernetHeader::parse(packet.data()) else {
            return;
        };
        match self.cam.lookup(dst) {
            Some(out) if dst.is_unicast() => {
                if out + 1 != in_port_wire as usize {
                    let latency = self.config.lookup_latency;
                    self.pipeline
                        .submit(kernel, me, latency, out, packet.clone());
                }
            }
            _ => self.flood(kernel, me, in_port_wire, packet),
        }
    }

    fn punt(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        in_port_wire: u16,
        reason: PacketInReason,
        packet: &Packet,
    ) {
        let keep = packet.len().min(self.config.miss_send_len);
        let job = CpuJob::Punt {
            in_port: in_port_wire,
            reason,
            data: packet.data()[..keep].to_vec(),
            total_len: packet.frame_len() as u16,
        };
        let proc = self.config.packet_in_proc;
        self.enqueue_cpu(kernel, me, job, proc);
    }

    /// The dataplane path for one frame arriving on data port `port`:
    /// CAM learn, table lookup, forward or punt. The learn reads only the
    /// Ethernet header and the lookup key comes straight from the bytes;
    /// nothing parses the whole frame.
    fn data_frame(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        let in_port_wire = (port + 1) as u16;
        if let Ok(EthernetHeader { src, .. }) = EthernetHeader::parse(packet.data()) {
            if src.is_unicast() {
                self.cam.learn(src, port);
            }
        }
        let idx = self
            .table
            .lookup_key_idx(in_port_wire, &FlowKey::of_bytes(packet.data()));
        match idx {
            Some(i) => self.forward_matched(kernel, me, i, in_port_wire, packet),
            None => self.punt(kernel, me, in_port_wire, PacketInReason::NoMatch, &packet),
        }
    }
}

/// An entry's age as `ofp_flow_stats` / `ofp_flow_removed` carry it:
/// whole seconds…
fn duration_sec(age: SimDuration) -> u32 {
    (age.as_ps() / 1_000_000_000_000) as u32
}

/// …and the nanoseconds beyond them.
fn duration_nsec(age: SimDuration) -> u32 {
    (age.as_ns() % 1_000_000_000) as u32
}

/// Rewrite (or insert) the 802.1Q tag of a frame.
fn set_vlan_vid(packet: Packet, vid: u16) -> Packet {
    let mut data = packet.into_vec();
    if data.len() >= 14 {
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        if ethertype == 0x8100 {
            // Rewrite the vid bits in the existing TCI.
            let tci = u16::from_be_bytes([data[14], data[15]]);
            let new = (tci & 0xf000) | (vid & 0x0fff);
            data[14..16].copy_from_slice(&new.to_be_bytes());
        } else {
            // Insert a tag after the MAC addresses.
            let mut tag = Vec::with_capacity(4);
            tag.extend_from_slice(&0x8100u16.to_be_bytes());
            tag.extend_from_slice(&(vid & 0x0fff).to_be_bytes());
            // tag currently holds TPID + TCI; splice TPID at 12 and keep
            // the original ethertype after the TCI.
            data.splice(12..12, tag);
        }
    }
    Packet::from_vec(data)
}

/// Remove a frame's 802.1Q tag if present.
fn strip_vlan(packet: Packet) -> Packet {
    let mut data = packet.into_vec();
    if data.len() >= 18 {
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        if ethertype == 0x8100 {
            data.drain(12..16);
        }
    }
    Packet::from_vec(data)
}

impl Component for OpenFlowSwitch {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        for p in 0..self.config.n_ports {
            kernel.set_tx_buffer(me, p, Some(self.config.output_buffer_bytes));
        }
        kernel.schedule_timer(me, SimDuration::from_ms(100), TAG_EXPIRE);
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        if port == self.control_port() {
            self.on_control_frame(kernel, me, &packet);
            return;
        }
        self.data_frame(kernel, me, port, packet);
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        match tag {
            TIMER_FORWARD => self.pipeline.on_timer(kernel, me),
            TAG_CPU => self.run_cpu_job(kernel, me),
            TAG_HW => self.commit_hw(kernel, me),
            TAG_BARRIER => {
                let xid = self.barrier_fifo.pop_front().expect("barrier timer");
                self.send_control(kernel, me, Message::BarrierReply, xid);
            }
            TAG_EXPIRE => {
                let expired = self.table.expire(kernel.now());
                self.logical_len = self.table.len();
                for (e, reason) in expired {
                    if e.flags & 1 != 0 {
                        self.send_flow_removed(kernel, me, &e, reason);
                    }
                }
                kernel.schedule_timer(me, SimDuration::from_ms(100), TAG_EXPIRE);
            }
            other => panic!("unknown timer tag {other}"),
        }
    }

    fn name(&self) -> &str {
        "openflow-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlan_set_on_untagged_inserts_tag() {
        let pkt = Packet::from_vec(vec![
            1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0x08, 0x00, 0x45, 0, 0, 0,
        ]);
        let tagged = set_vlan_vid(pkt, 42);
        let d = tagged.data();
        assert_eq!(u16::from_be_bytes([d[12], d[13]]), 0x8100);
        assert_eq!(u16::from_be_bytes([d[14], d[15]]) & 0x0fff, 42);
        assert_eq!(u16::from_be_bytes([d[16], d[17]]), 0x0800);
    }

    #[test]
    fn vlan_set_on_tagged_rewrites_vid() {
        let pkt = Packet::from_vec(vec![
            1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0x81, 0x00, 0xa0, 0x07, 0x08, 0x00, 0x45, 0,
        ]);
        let out = set_vlan_vid(pkt, 99);
        let d = out.data();
        let tci = u16::from_be_bytes([d[14], d[15]]);
        assert_eq!(tci & 0x0fff, 99);
        assert_eq!(tci & 0xf000, 0xa000, "pcp/dei preserved");
        assert_eq!(d.len(), 20, "no growth");
    }

    #[test]
    fn strip_vlan_removes_tag() {
        let pkt = Packet::from_vec(vec![
            1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0x81, 0x00, 0x00, 0x07, 0x08, 0x00, 0x45, 0,
        ]);
        let out = strip_vlan(pkt);
        let d = out.data();
        assert_eq!(u16::from_be_bytes([d[12], d[13]]), 0x0800);
        assert_eq!(d.len(), 16);
        // Stripping an untagged frame is a no-op.
        let out2 = strip_vlan(out.clone());
        assert_eq!(out2, out);
    }

    // Full switch behaviour (control channel, barriers, install delay,
    // packet_in) is exercised end-to-end from the oflops-turbo crate and
    // the workspace integration tests.
}
