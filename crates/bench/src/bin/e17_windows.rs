//! E17 — conservative windows: how many barrier rounds does the sharded
//! executive need on topologies with asymmetric cross-shard delays?
//!
//! Three 4-node topologies (chain, star, leaf-spine), each with one
//! *short* cross-shard hop (500 ns) and several *long* ones (150 µs),
//! under two traffic shapes:
//!
//! * **sparse** — each leaf emits a local 512-frame burst every 300 µs
//!   plus one cross-topology frame per burst;
//! * **dense** — the same burst back-to-back (≈ continuous local
//!   load), same cross traffic.
//!
//! The executive bounds each shard by its *incoming influence paths*
//! only (min peer next-event + path delay). Every path into a leaf ends
//! with a 150 µs hop, so a leaf's 34 µs burst fits in one or two
//! rounds instead of being marched through in 500 ns steps of the
//! shortest hop anywhere.
//!
//! Checked on every run: per-component arrival digests and event counts
//! are byte-identical across shard counts 1/2/4 (panic on divergence).
//! The executive's counters (`windows_executed`, `barrier_waits`, ring
//! traffic) are pure functions of topology + traffic, so they are exact,
//! host-independent pins: `scripts/perf_guard.py` fails when either of
//! the first two *rises* over the committed `BENCH_e17.json` row.
//!
//! Wall-clock and events/s are also reported, with `host_cores` /
//! `cores_limited` honesty fields in the JSON artifact: on a 1-core
//! host the wall numbers measure scheduling overhead, not parallelism.
//! Set `OSNT_RECORD_CORES=1` when recording a real multi-core curve
//! off-CI: the run then refuses to produce an artifact on a host with
//! fewer cores than the widest shard count.

use osnt_bench::Table;
use osnt_netsim::{Component, ComponentId, Kernel, LinkSpec, ShardPlan, ShardedSim, SimBuilder};
use osnt_packet::hash::{crc32, crc32_update};
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const FRAME_LEN: usize = 64;
const BURST_LEN: u64 = 512;
/// The short cross-shard hop: the global minimum lookahead.
const SHORT_NS: u64 = 500;
/// The long cross-shard hops guarding every path into a leaf.
const LONG_NS: u64 = 150_000;
const LOCAL_NS: u64 = 50;
const HORIZON_MS: u64 = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sparse,
    Dense,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Sparse => "sparse",
            Mode::Dense => "dense",
        }
    }
    /// Burst period. Sparse leaves long silent gaps; dense repeats as
    /// soon as the previous burst has drained the MAC (≈ 34 µs of
    /// serialization for 512 × 64B at 10G).
    fn burst_interval(self) -> SimDuration {
        match self {
            Mode::Sparse => SimDuration::from_ns(300_000),
            Mode::Dense => SimDuration::from_ns(40_000),
        }
    }
}

#[derive(Default)]
struct DigestState {
    frames: u64,
    digest: u32,
}

impl DigestState {
    fn fold(&mut self, now_ps: u64, payload: &[u8]) {
        self.frames += 1;
        self.digest = crc32_update(self.digest, &now_ps.to_le_bytes());
        self.digest = crc32_update(self.digest, &crc32(payload).to_le_bytes());
    }
}

type Shared = Rc<RefCell<DigestState>>;

/// A leaf node: bursts of local traffic on port 0, one cross-topology
/// frame per burst on an uplink port, and a digest of every cross
/// frame that arrives back at it.
struct Leaf {
    /// Distinguishes payloads across leaves.
    id: u8,
    mode: Mode,
    /// Uplink ports (1..=uplinks.len() on the component); cross frames
    /// rotate across them per burst.
    uplinks: usize,
    bursts_sent: u64,
    frames_sent: u64,
    cross: Shared,
}

impl Component for Leaf {
    fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
        k.schedule_timer(me, SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _port: usize, pkt: Packet) {
        self.cross.borrow_mut().fold(k.now().as_ps(), pkt.data());
    }
    fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, _tag: u64) {
        for _ in 0..BURST_LEN {
            let mut data = vec![self.id; FRAME_LEN - 4];
            data[..8].copy_from_slice(&self.frames_sent.to_be_bytes());
            let _ = k.transmit(me, 0, Packet::from_vec(data));
            self.frames_sent += 1;
        }
        let mut data = vec![0xC0 | self.id; FRAME_LEN - 4];
        data[..8].copy_from_slice(&self.bursts_sent.to_be_bytes());
        let uplink = 1 + (self.bursts_sent as usize % self.uplinks);
        let _ = k.transmit(me, uplink, Packet::from_vec(data));
        self.bursts_sent += 1;
        k.schedule_timer(me, self.mode.burst_interval(), 0);
    }
}

/// Swallows a leaf's local burst traffic into a digest.
struct LocalSink {
    state: Shared,
}

impl Component for LocalSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        self.state.borrow_mut().fold(k.now().as_ps(), pkt.data());
    }
}

/// Forwards every arrival out the next port (mod port count): a chain
/// hop with 2 ports, a star hub rotating over 3.
struct Relay {
    ports: usize,
    forwarded: Shared,
}

impl Component for Relay {
    fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
        self.forwarded
            .borrow_mut()
            .fold(k.now().as_ps(), pkt.data());
        let out = (port + 1) % self.ports;
        let _ = k.transmit(me, out, Packet::from_vec(pkt.data().to_vec()));
    }
}

fn short() -> LinkSpec {
    LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(SHORT_NS))
}
fn long() -> LinkSpec {
    LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(LONG_NS))
}
fn local() -> LinkSpec {
    LinkSpec::ten_gig().with_propagation(SimDuration::from_ns(LOCAL_NS))
}

struct BuiltTopo {
    builder: SimBuilder,
    /// Digest states, fixed order (comparison key across runs).
    states: Vec<Shared>,
    /// Every component with its topology node (one node per shard at 4).
    nodes: Vec<(ComponentId, usize)>,
}

/// Add one leaf (Leaf + LocalSink, locally wired) on node `node`.
fn add_leaf(
    b: &mut SimBuilder,
    states: &mut Vec<Shared>,
    nodes: &mut Vec<(ComponentId, usize)>,
    node: usize,
    id: u8,
    mode: Mode,
    uplinks: usize,
) -> ComponentId {
    let cross: Shared = Rc::new(RefCell::new(DigestState::default()));
    let leaf = b.add_component(
        &format!("leaf{id}"),
        Box::new(Leaf {
            id,
            mode,
            uplinks,
            bursts_sent: 0,
            frames_sent: 0,
            cross: cross.clone(),
        }),
        1 + uplinks,
    );
    let state: Shared = Rc::new(RefCell::new(DigestState::default()));
    let sink = b.add_component(
        &format!("lsink{id}"),
        Box::new(LocalSink {
            state: state.clone(),
        }),
        1,
    );
    b.connect(leaf, 0, sink, 0, local());
    states.push(cross);
    states.push(state);
    nodes.push((leaf, node));
    nodes.push((sink, node));
    leaf
}

fn add_relay(
    b: &mut SimBuilder,
    states: &mut Vec<Shared>,
    nodes: &mut Vec<(ComponentId, usize)>,
    node: usize,
    name: &str,
    ports: usize,
) -> ComponentId {
    let fwd: Shared = Rc::new(RefCell::new(DigestState::default()));
    let relay = b.add_component(
        name,
        Box::new(Relay {
            ports,
            forwarded: fwd.clone(),
        }),
        ports,
    );
    states.push(fwd);
    nodes.push((relay, node));
    relay
}

/// chain: leaf0 —long— relay1 —short— relay2 —long— leaf3. Every
/// influence path into a leaf crosses a 150 µs hop; the 500 ns
/// relay-relay hop is the global minimum lookahead.
fn build_chain(mode: Mode) -> BuiltTopo {
    let mut b = SimBuilder::new();
    let (mut states, mut nodes) = (Vec::new(), Vec::new());
    let l0 = add_leaf(&mut b, &mut states, &mut nodes, 0, 0, mode, 1);
    let r1 = add_relay(&mut b, &mut states, &mut nodes, 1, "relay1", 2);
    let r2 = add_relay(&mut b, &mut states, &mut nodes, 2, "relay2", 2);
    let l3 = add_leaf(&mut b, &mut states, &mut nodes, 3, 3, mode, 1);
    b.connect(l0, 1, r1, 0, long());
    b.connect(r1, 1, r2, 0, short());
    b.connect(r2, 1, l3, 1, long());
    BuiltTopo {
        builder: b,
        states,
        nodes,
    }
}

/// star: hub relay (node 0) with leaf1 on a short spoke, leaves 2 and 3
/// on long spokes — asymmetric distances from one hub.
fn build_star(mode: Mode) -> BuiltTopo {
    let mut b = SimBuilder::new();
    let (mut states, mut nodes) = (Vec::new(), Vec::new());
    let hub = add_relay(&mut b, &mut states, &mut nodes, 0, "hub", 3);
    let l1 = add_leaf(&mut b, &mut states, &mut nodes, 1, 1, mode, 1);
    let l2 = add_leaf(&mut b, &mut states, &mut nodes, 2, 2, mode, 1);
    let l3 = add_leaf(&mut b, &mut states, &mut nodes, 3, 3, mode, 1);
    b.connect(l1, 1, hub, 0, short());
    b.connect(l2, 1, hub, 1, long());
    b.connect(l3, 1, hub, 2, long());
    BuiltTopo {
        builder: b,
        states,
        nodes,
    }
}

/// leaf-spine: two spine relays (nodes 0, 1), two leaves (nodes 2, 3),
/// each leaf dual-homed; exactly one of the four uplinks is short.
fn build_leaf_spine(mode: Mode) -> BuiltTopo {
    let mut b = SimBuilder::new();
    let (mut states, mut nodes) = (Vec::new(), Vec::new());
    let sp0 = add_relay(&mut b, &mut states, &mut nodes, 0, "spine0", 2);
    let sp1 = add_relay(&mut b, &mut states, &mut nodes, 1, "spine1", 2);
    let l2 = add_leaf(&mut b, &mut states, &mut nodes, 2, 2, mode, 2);
    let l3 = add_leaf(&mut b, &mut states, &mut nodes, 3, 3, mode, 2);
    b.connect(l2, 1, sp0, 0, long());
    b.connect(l3, 1, sp0, 1, long());
    b.connect(l2, 2, sp1, 0, long());
    b.connect(l3, 2, sp1, 1, short());
    BuiltTopo {
        builder: b,
        states,
        nodes,
    }
}

fn build(topology: &str, mode: Mode) -> BuiltTopo {
    match topology {
        "chain" => build_chain(mode),
        "star" => build_star(mode),
        "leaf_spine" => build_leaf_spine(mode),
        other => panic!("unknown topology {other}"),
    }
}

struct RunResult {
    wall_s: f64,
    events: u64,
    /// Summed over shards.
    windows_executed: u64,
    windows_skipped: u64,
    barrier_waits: u64,
    ring_pushes: u64,
    ring_drains: u64,
    /// (frames, digest) per digest state, fixed order.
    digests: Vec<(u64, u32)>,
}

fn run(topology: &str, mode: Mode, shards: usize) -> RunResult {
    let built = build(topology, mode);
    // Node i of 4 → shard i * shards / 4: 4 shards is one node per
    // shard, 2 shards pairs adjacent nodes, 1 shard is the reference.
    let mut plan = ShardPlan::new(built.builder.component_count(), shards);
    for &(c, node) in &built.nodes {
        plan.assign(c, node * shards / 4);
    }
    let mut sim: ShardedSim = built.builder.build_sharded(plan);
    let t0 = std::time::Instant::now();
    sim.run_until(SimTime::from_ms(HORIZON_MS));
    let wall_s = t0.elapsed().as_secs_f64();
    let merged = sim
        .shard_stats()
        .iter()
        .fold(osnt_netsim::ShardStats::default(), |a, s| a.merged(*s));
    RunResult {
        wall_s,
        events: sim.events_dispatched(),
        windows_executed: merged.windows_executed,
        windows_skipped: merged.windows_skipped,
        barrier_waits: merged.barrier_waits,
        ring_pushes: merged.ring_pushes,
        ring_drains: merged.ring_drains,
        digests: built
            .states
            .iter()
            .map(|s| {
                let s = s.borrow();
                (s.frames, s.digest)
            })
            .collect(),
    }
}

fn main() {
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument {other} (expected --json PATH)"),
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let record_cores = std::env::var("OSNT_RECORD_CORES").as_deref() == Ok("1");
    if record_cores {
        assert!(
            host_cores >= 4,
            "OSNT_RECORD_CORES=1: refusing to record a multi-core curve on a \
             {host_cores}-core host (need >= 4)"
        );
    }
    println!(
        "E17: conservative windows, 4-node topologies, {BURST_LEN}x{FRAME_LEN}B bursts, \
         {HORIZON_MS} ms horizon, host has {host_cores} core(s)\n"
    );

    let mut table = Table::new([
        "topology", "mode", "shards", "wall(ms)", "events", "win exec", "win skip", "rings",
    ]);
    let mut json_rows = Vec::new();
    for topology in ["chain", "star", "leaf_spine"] {
        for mode in [Mode::Sparse, Mode::Dense] {
            let mut reference: Option<RunResult> = None;
            for shards in [1usize, 2, 4] {
                let r = run(topology, mode, shards);
                if let Some(base) = &reference {
                    assert_eq!(
                        r.digests,
                        base.digests,
                        "digest mismatch: {topology}/{} at {shards} shards diverged from the \
                         1-shard run",
                        mode.name()
                    );
                    assert_eq!(
                        r.events,
                        base.events,
                        "event count diverged: {topology}/{} at {shards} shards",
                        mode.name()
                    );
                }
                table.row([
                    topology.to_string(),
                    mode.name().to_string(),
                    shards.to_string(),
                    format!("{:.2}", r.wall_s * 1e3),
                    r.events.to_string(),
                    r.windows_executed.to_string(),
                    r.windows_skipped.to_string(),
                    r.ring_pushes.to_string(),
                ]);
                // (`policy` stays in the row identity so the committed
                // trajectory of these rows remains comparable.)
                json_rows.push(format!(
                    "{{\"topology\":\"{topology}\",\"mode\":\"{}\",\"shards\":{shards},\
                     \"policy\":\"adaptive\",\"wall_s\":{:.6},\"events\":{},\
                     \"events_per_wall_s\":{:.0},\"windows_executed\":{},\
                     \"windows_skipped\":{},\"barrier_waits\":{},\"ring_pushes\":{},\
                     \"ring_drains\":{}}}",
                    mode.name(),
                    r.wall_s,
                    r.events,
                    r.events as f64 / r.wall_s,
                    r.windows_executed,
                    r.windows_skipped,
                    r.barrier_waits,
                    r.ring_pushes,
                    r.ring_drains,
                ));
                reference.get_or_insert(r);
            }
        }
    }
    table.print();
    println!("\nDigests and event counts identical across shard counts (checked above).");
    if let Some(path) = json {
        let cores_limited = host_cores < 4;
        let body = format!(
            "{{\"bench\":\"e17_windows\",\"burst_len\":{BURST_LEN},\"frame_len\":{FRAME_LEN},\
             \"horizon_ms\":{HORIZON_MS},\"host_cores\":{host_cores},\
             \"cores_limited\":{cores_limited},\"recorded_cores\":{record_cores},\
             \"results\":[{}]}}\n",
            json_rows.join(",")
        );
        std::fs::write(&path, body).expect("write json artifact");
        println!("wrote {path}");
    }
}
