//! Composable link fault models: bursty loss, reordering, duplication
//! and bit corruption.
//!
//! Inserted between two devices, [`FaultyLink`] turns a clean simulated
//! cable into the path a network tester exists to measure. The
//! *well-behaved* bad link — uniform loss, fixed delay, FIFO jitter — is
//! a preset ([`FaultConfig::uniform_loss`], [`FaultConfig::delay_jitter`]);
//! real networks misbehave in richer ways, and the family composes:
//!
//! * **Gilbert–Elliott bursty loss** — a two-state Markov channel
//!   (good/burst) whose loss probability depends on the state, so drops
//!   cluster the way interference and queue overflow actually cluster;
//! * **bounded reordering** — selected frames are held back by a fixed
//!   extra interval and released out of FIFO order, displacing them by a
//!   bounded number of positions;
//! * **duplication** — a frame is delivered twice (switch flooding
//!   glitches, retransmit races);
//! * **bit corruption** — seeded bit flips that invalidate the frame's
//!   FCS, so receivers count CRC errors instead of silently consuming
//!   mangled bytes (see [`osnt_packet::Packet::fcs_ok`]).
//!
//! Every decision draws from one seeded PRNG, so a faulty run is exactly
//! reproducible; all outcomes are tallied in a shared [`FaultStats`] so
//! experiments can report *partial results with explicit fault
//! accounting* instead of dying.

use crate::burst::PacketBurst;
use crate::component::{Component, ComponentId};
use crate::kernel::Kernel;
use osnt_error::OsntError;
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Frame-loss process of a [`FaultyLink`].
#[derive(Debug, Clone, Default)]
pub enum LossModel {
    /// No loss.
    #[default]
    None,
    /// Independent per-frame loss.
    Uniform {
        /// Per-frame drop probability.
        probability: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) bursty loss.
    GilbertElliott(GilbertElliott),
}

/// Parameters of the Gilbert–Elliott channel.
///
/// The channel sits in the *good* or the *burst* state; on every frame
/// it first makes a state transition, then drops the frame with the
/// state's loss probability. Mean burst length is `1 / p_exit_burst`
/// frames; stationary time in the burst state is
/// `p_enter_burst / (p_enter_burst + p_exit_burst)`.
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliott {
    /// Probability of moving good → burst at a frame.
    pub p_enter_burst: f64,
    /// Probability of moving burst → good at a frame.
    pub p_exit_burst: f64,
    /// Loss probability while in the good state (usually 0).
    pub loss_good: f64,
    /// Loss probability while in the burst state (usually near 1).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A classic bursty profile: bursts start with probability
    /// `p_enter_burst` and run `mean_burst_frames` on average, dropping
    /// everything inside a burst and nothing outside.
    pub fn bursty(p_enter_burst: f64, mean_burst_frames: f64) -> Self {
        GilbertElliott {
            p_enter_burst,
            p_exit_burst: 1.0 / mean_burst_frames.max(1.0),
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Long-run fraction of frames lost.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_enter_burst + self.p_exit_burst;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter_burst / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Full fault-injection configuration of a [`FaultyLink`]. Everything
/// defaults to *off*; compose the faults an experiment needs.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The loss process.
    pub loss: LossModel,
    /// Probability a frame is selected for reordering.
    pub reorder_probability: f64,
    /// Extra hold applied to reordered frames (bounds the displacement:
    /// a held frame is overtaken by at most `hold / frame_gap` frames).
    pub reorder_hold: SimDuration,
    /// Probability a frame is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a frame is corrupted in flight.
    pub corrupt_probability: f64,
    /// Bits flipped per corrupted frame (≥ 1).
    pub corrupt_bits: u32,
    /// Fixed extra one-way delay.
    pub extra_delay: SimDuration,
    /// Uniform random jitter on top of `extra_delay` (0..jitter); does
    /// not reorder (FIFO per direction).
    pub jitter: SimDuration,
    /// RNG seed for every stochastic decision above.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: LossModel::None,
            reorder_probability: 0.0,
            reorder_hold: SimDuration::from_us(100),
            duplicate_probability: 0.0,
            corrupt_probability: 0.0,
            corrupt_bits: 1,
            extra_delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            seed: 1,
        }
    }
}

impl FaultConfig {
    /// Independent per-frame loss and nothing else.
    pub fn uniform_loss(probability: f64, seed: u64) -> Self {
        FaultConfig {
            loss: LossModel::Uniform { probability },
            seed,
            ..FaultConfig::default()
        }
    }

    /// A fixed extra one-way delay with uniform `0..jitter` on top,
    /// released in per-direction FIFO order — a queue with a variable
    /// service time, not a reordering network.
    pub fn delay_jitter(extra_delay: SimDuration, jitter: SimDuration, seed: u64) -> Self {
        FaultConfig {
            extra_delay,
            jitter,
            seed,
            ..FaultConfig::default()
        }
    }

    /// Validate the configuration (probabilities in `[0, 1]`, burst
    /// parameters sane). Construction goes through this, so a bad config
    /// is a typed error at build time, not a panic mid-run.
    pub fn validate(&self) -> Result<(), OsntError> {
        let check_p = |name: &str, p: f64| {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                Err(OsntError::config(
                    "fault model",
                    format!("{name} probability {p} outside [0, 1]"),
                ))
            } else {
                Ok(())
            }
        };
        match &self.loss {
            LossModel::None => {}
            LossModel::Uniform { probability } => check_p("loss", *probability)?,
            LossModel::GilbertElliott(ge) => {
                check_p("burst-entry", ge.p_enter_burst)?;
                check_p("burst-exit", ge.p_exit_burst)?;
                check_p("good-state loss", ge.loss_good)?;
                check_p("burst-state loss", ge.loss_bad)?;
            }
        }
        check_p("reorder", self.reorder_probability)?;
        check_p("duplicate", self.duplicate_probability)?;
        check_p("corrupt", self.corrupt_probability)?;
        if self.corrupt_probability > 0.0 && self.corrupt_bits == 0 {
            return Err(OsntError::config(
                "fault model",
                "corrupt_probability > 0 requires corrupt_bits >= 1",
            ));
        }
        Ok(())
    }
}

/// Outcome tallies of a [`FaultyLink`], shared with the harness. One
/// counter per fault class, so an experiment can report exactly what was
/// injected alongside its (partial) measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the link (both directions).
    pub offered: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
    /// Frames dropped while the Gilbert–Elliott channel was in the
    /// burst state (subset of `dropped`).
    pub dropped_in_burst: u64,
    /// Number of good → burst transitions taken.
    pub bursts: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames corrupted (FCS invalidated).
    pub corrupted: u64,
    /// Frames released out of FIFO order.
    pub reordered: u64,
    /// Frames delivered (duplicates counted twice).
    pub delivered: u64,
}

impl FaultStats {
    /// Fold another tally into this one.
    /// Campaign reports aggregate per-link counters across links and
    /// seeds; every field is a sum, so accumulation is associative and
    /// order-independent.
    pub fn accumulate(&mut self, other: &FaultStats) {
        self.offered += other.offered;
        self.dropped += other.dropped;
        self.dropped_in_burst += other.dropped_in_burst;
        self.bursts += other.bursts;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.reordered += other.reordered;
        self.delivered += other.delivered;
    }
}

const TAG_FAULT_BASE: u64 = 0xFA17_0000_0000;

/// Per-direction Gilbert–Elliott channel state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GeState {
    Good,
    Burst,
}

/// A two-port fault-injecting link element. Frames entering port 0 leave
/// port 1 and vice versa, subject to the configured fault family.
/// Non-reordered frames keep per-direction FIFO order even under jitter;
/// only frames the reorder fault selects may overtake.
pub struct FaultyLink {
    config: FaultConfig,
    rng: SmallRng,
    ge_state: [GeState; 2],
    /// In-flight frames keyed by release tag.
    pending: HashMap<u64, (usize, Packet)>,
    next_id: u64,
    /// Latest scheduled release per output port (FIFO clamp).
    last_release: [SimTime; 2],
    stats: Rc<RefCell<FaultStats>>,
}

impl FaultyLink {
    /// Build from a config. Returns the component and the shared fault
    /// tally. Fails (typed, not panicking) on an invalid config.
    pub fn new(config: FaultConfig) -> Result<(Self, Rc<RefCell<FaultStats>>), OsntError> {
        config.validate()?;
        let stats = Rc::new(RefCell::new(FaultStats::default()));
        let seed = config.seed;
        Ok((
            FaultyLink {
                config,
                rng: SmallRng::seed_from_u64(seed ^ 0xFA01_7CAB),
                ge_state: [GeState::Good, GeState::Good],
                pending: HashMap::new(),
                next_id: 0,
                last_release: [SimTime::ZERO, SimTime::ZERO],
                stats: stats.clone(),
            },
            stats,
        ))
    }

    /// Shared handle to the fault tally.
    pub fn stats(&self) -> Rc<RefCell<FaultStats>> {
        self.stats.clone()
    }

    /// Run the loss process for one frame in direction `dir`. Returns
    /// true when the frame is lost.
    fn loss_decision(&mut self, dir: usize) -> bool {
        match &self.config.loss {
            LossModel::None => false,
            LossModel::Uniform { probability } => {
                *probability > 0.0 && self.rng.gen_bool(probability.clamp(0.0, 1.0))
            }
            LossModel::GilbertElliott(ge) => {
                let ge = *ge;
                // Transition first, then sample the state's loss.
                let state = &mut self.ge_state[dir];
                match *state {
                    GeState::Good => {
                        if ge.p_enter_burst > 0.0 && self.rng.gen_bool(ge.p_enter_burst) {
                            *state = GeState::Burst;
                            self.stats.borrow_mut().bursts += 1;
                        }
                    }
                    GeState::Burst => {
                        if ge.p_exit_burst > 0.0 && self.rng.gen_bool(ge.p_exit_burst) {
                            *state = GeState::Good;
                        }
                    }
                }
                let (p, in_burst) = match self.ge_state[dir] {
                    GeState::Good => (ge.loss_good, false),
                    GeState::Burst => (ge.loss_bad, true),
                };
                let lost = p > 0.0 && self.rng.gen_bool(p.clamp(0.0, 1.0));
                if lost && in_burst {
                    self.stats.borrow_mut().dropped_in_burst += 1;
                }
                lost
            }
        }
    }

    /// Schedule one delivery of `packet` out of `out` at `release`,
    /// through the pending map so per-frame timers can interleave.
    fn schedule_release(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        out: usize,
        release: SimTime,
        packet: Packet,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, (out, packet));
        kernel.schedule_timer_at(me, release, TAG_FAULT_BASE + id);
    }

    /// Decide the fate of one frame entering `port` at `at` (`kernel.now()`
    /// for a lone frame, the member's own arrival inside a burst): `None`
    /// when the loss process takes it, otherwise the instant it leaves
    /// the far port, the frame (bits flipped if corruption struck) and
    /// whether a duplicate leaves right behind it. Every RNG draw and
    /// every tally but `delivered` happens here, once per frame, in one
    /// order.
    fn fate(
        &mut self,
        port: usize,
        at: SimTime,
        mut packet: Packet,
    ) -> Option<(SimTime, Packet, bool)> {
        debug_assert!(port < 2, "faulty link is a 2-port device");
        let out = 1 - port;
        self.stats.borrow_mut().offered += 1;

        // 1. Loss.
        if self.loss_decision(port) {
            self.stats.borrow_mut().dropped += 1;
            return None;
        }
        // 2. Corruption (before duplication: both copies of a corrupted
        // frame arrive bad, like a corruptor upstream of the fan-out).
        if self.config.corrupt_probability > 0.0
            && self
                .rng
                .gen_bool(self.config.corrupt_probability.clamp(0.0, 1.0))
        {
            for _ in 0..self.config.corrupt_bits {
                let bit = self.rng.gen_range(0..packet.len().max(1) * 8);
                packet.flip_bit(bit);
            }
            self.stats.borrow_mut().corrupted += 1;
        }
        // 3. Base delay + jitter.
        let mut release = at + self.config.extra_delay;
        if self.config.jitter.as_ps() > 0 {
            release += SimDuration::from_ps(self.rng.gen_range(0..self.config.jitter.as_ps()));
        }
        // 4. Duplication: a second copy right behind the first.
        let duplicate = self.config.duplicate_probability > 0.0
            && self
                .rng
                .gen_bool(self.config.duplicate_probability.clamp(0.0, 1.0));
        if duplicate {
            self.stats.borrow_mut().duplicated += 1;
        }
        // 5. Reordering: held frames skip the FIFO clamp and release
        // late, letting frames behind them overtake (bounded by the
        // hold interval).
        let reorder = self.config.reorder_probability > 0.0
            && self
                .rng
                .gen_bool(self.config.reorder_probability.clamp(0.0, 1.0));
        if reorder {
            release += self.config.reorder_hold;
            self.stats.borrow_mut().reordered += 1;
        } else {
            // FIFO clamp: never release before an earlier frame of the
            // same direction (jitter must not reorder).
            release = release.max(self.last_release[out]);
            self.last_release[out] = release;
        }
        Some((release, packet, duplicate))
    }

    /// One frame through the timer-based release machinery.
    fn process_frame(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        port: usize,
        at: SimTime,
        packet: Packet,
    ) {
        let Some((release, packet, duplicate)) = self.fate(port, at, packet) else {
            return;
        };
        let out = 1 - port;
        if duplicate {
            self.schedule_release(kernel, me, out, release, packet.clone());
        }
        self.schedule_release(kernel, me, out, release, packet);
    }
}

impl Component for FaultyLink {
    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        let now = kernel.now();
        self.process_frame(kernel, me, port, now, packet);
    }

    fn wants_bursts(&self) -> bool {
        true
    }

    fn on_burst(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, burst: PacketBurst) {
        // Reordering — or frames already in flight whose release timers
        // could interleave with this burst — needs the timer-based
        // release machinery, per member at its own arrival instant
        // (only event keys differ from lone arrivals, which no handler
        // observes).
        if self.config.reorder_probability > 0.0 || !self.pending.is_empty() {
            for (at, packet) in burst {
                self.process_frame(kernel, me, port, at, packet);
            }
            return;
        }
        // Vector arm: without reordering and with nothing in flight,
        // releases are FIFO-clamped monotone, so the whole burst leaves
        // as one [`Kernel::transmit_burst`] whose per-member
        // earliest-start offers are the release instants.
        let mut members: Vec<(SimTime, Packet)> = Vec::with_capacity(burst.len());
        for (at, packet) in burst {
            let Some((release, packet, duplicate)) = self.fate(port, at, packet) else {
                continue;
            };
            if duplicate {
                members.push((release, packet.clone()));
            }
            members.push((release, packet));
        }
        if !members.is_empty() {
            let delivered = members.len() as u64;
            let _ = kernel.transmit_burst(me, 1 - port, members);
            self.stats.borrow_mut().delivered += delivered;
        }
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        let id = tag - TAG_FAULT_BASE;
        let (out, packet) = self
            .pending
            .remove(&id)
            .expect("fault release timer without pending frame");
        let _ = kernel.transmit(me, out, packet);
        self.stats.borrow_mut().delivered += 1;
    }

    fn name(&self) -> &str {
        "faulty-link"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::link::LinkSpec;

    /// The two seed sets every statistical assertion runs under: `base`,
    /// and `base` mixed with 2, so a seed-dependent fault-model bug does
    /// not hide behind one lucky constant. Determinism tests use fixed
    /// literals instead.
    fn seeds(base: u64) -> [u64; 2] {
        [base, base ^ 2u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)]
    }

    /// Emits `n` frames with a sequence number in the payload.
    struct SeqBlaster {
        n: u64,
        gap: SimDuration,
    }
    impl Component for SeqBlaster {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            for i in 0..self.n {
                k.schedule_timer_at(me, SimTime::ZERO + self.gap.saturating_mul(i), i);
            }
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            let mut p = Packet::zeroed(64);
            p.data_mut()[0..8].copy_from_slice(&tag.to_be_bytes());
            let _ = k.transmit(me, 0, p);
        }
    }

    /// Records (arrival time, sequence, fcs_ok).
    #[derive(Default)]
    struct SeqSink {
        got: Rc<RefCell<Vec<(SimTime, u64, bool)>>>,
    }
    impl Component for SeqSink {
        fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, p: Packet) {
            let mut seq = [0u8; 8];
            seq.copy_from_slice(&p.data()[0..8]);
            self.got
                .borrow_mut()
                .push((k.now(), u64::from_be_bytes(seq), p.fcs_ok()));
        }
    }

    fn run_faulty(
        config: FaultConfig,
        n: u64,
        gap: SimDuration,
    ) -> (Vec<(SimTime, u64, bool)>, FaultStats) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        let tx = b.add_component("tx", Box::new(SeqBlaster { n, gap }), 1);
        let (link, stats) = FaultyLink::new(config).expect("valid config");
        let f = b.add_component("fault", Box::new(link), 2);
        let rx = b.add_component("rx", Box::new(SeqSink { got: got.clone() }), 1);
        b.connect(tx, 0, f, 0, LinkSpec::ten_gig());
        b.connect(f, 1, rx, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(200));
        let v = got.borrow().clone();
        let s = *stats.borrow();
        (v, s)
    }

    #[test]
    fn clean_config_is_transparent() {
        let (got, s) = run_faulty(FaultConfig::default(), 200, SimDuration::from_us(1));
        assert_eq!(got.len(), 200);
        assert_eq!(s.delivered, 200);
        assert_eq!(s.dropped + s.corrupted + s.duplicated + s.reordered, 0);
        // FIFO + all clean.
        for (i, w) in got.windows(2).enumerate() {
            assert!(w[1].1 > w[0].1, "order broken at {i}");
        }
        assert!(got.iter().all(|g| g.2));
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        let ge = GilbertElliott::bursty(0.02, 8.0);
        for seed in seeds(11) {
            let config = FaultConfig {
                loss: LossModel::GilbertElliott(ge),
                seed,
                ..FaultConfig::default()
            };
            let n = 20_000;
            let (got, s) = run_faulty(config, n, SimDuration::from_ns(500));
            let loss = s.dropped as f64 / n as f64;
            let expect = ge.stationary_loss();
            assert!(
                (loss - expect).abs() < 0.05,
                "seed {seed}: loss {loss} vs stationary {expect}"
            );
            assert!(s.bursts > 10, "seed {seed}: bursts {}", s.bursts);
            assert_eq!(s.dropped_in_burst, s.dropped, "all loss inside bursts");
            // Burstiness: the arrived-sequence gaps must contain runs of
            // consecutive losses far longer than uniform loss at the same
            // rate would produce.
            let mut longest_run = 0u64;
            for w in got.windows(2) {
                longest_run = longest_run.max(w[1].1 - w[0].1 - 1);
            }
            assert!(
                longest_run >= 5,
                "seed {seed}: longest drop burst {longest_run} too short for mean-8 bursts"
            );
            // Mean drop-run length ≈ mean burst length (within a factor).
            let runs = s.bursts.max(1);
            let mean_run = s.dropped as f64 / runs as f64;
            assert!(
                mean_run > 3.0,
                "seed {seed}: mean run {mean_run} not bursty"
            );
        }
    }

    #[test]
    fn corruption_invalidates_fcs_downstream() {
        for seed in seeds(5) {
            let config = FaultConfig {
                corrupt_probability: 0.3,
                corrupt_bits: 3,
                seed,
                ..FaultConfig::default()
            };
            let (got, s) = run_faulty(config, 2000, SimDuration::from_us(1));
            assert_eq!(got.len(), 2000, "corruption never loses frames");
            let bad = got.iter().filter(|g| !g.2).count() as u64;
            assert_eq!(bad, s.corrupted);
            let frac = bad as f64 / 2000.0;
            assert!(
                (frac - 0.3).abs() < 0.06,
                "seed {seed}: corrupt fraction {frac}"
            );
        }
    }

    #[test]
    fn duplication_delivers_twice() {
        for seed in seeds(7) {
            let config = FaultConfig {
                duplicate_probability: 0.25,
                seed,
                ..FaultConfig::default()
            };
            let (got, s) = run_faulty(config, 2000, SimDuration::from_us(1));
            assert_eq!(got.len() as u64, 2000 + s.duplicated);
            assert!(
                s.duplicated > 300,
                "seed {seed}: duplicated {}",
                s.duplicated
            );
            // Duplicates are adjacent (same release instant, FIFO order).
            let dup_pairs = got.windows(2).filter(|w| w[0].1 == w[1].1).count() as u64;
            assert_eq!(dup_pairs, s.duplicated, "seed {seed}");
        }
    }

    #[test]
    fn reordering_is_bounded_by_the_hold() {
        let gap = SimDuration::from_us(10);
        let hold = SimDuration::from_us(35); // displaces by at most 4 positions
        for seed in seeds(3) {
            let config = FaultConfig {
                reorder_probability: 0.1,
                reorder_hold: hold,
                seed,
                ..FaultConfig::default()
            };
            let (got, s) = run_faulty(config, 2000, gap);
            assert_eq!(got.len(), 2000, "reordering never loses frames");
            assert!(s.reordered > 100, "seed {seed}: reordered {}", s.reordered);
            // Some frames must have been overtaken…
            let inversions = got.windows(2).filter(|w| w[1].1 < w[0].1).count();
            assert!(inversions > 0, "seed {seed}: no reordering observed");
            // …but displacement is bounded: a frame can be overtaken by at
            // most ceil(hold/gap) successors.
            let bound = (hold.as_ps() / gap.as_ps() + 1) as i64;
            for (pos, (_, seq, _)) in got.iter().enumerate() {
                let displacement = pos as i64 - *seq as i64;
                assert!(
                    displacement.abs() <= bound,
                    "seed {seed}: frame {seq} displaced by {displacement} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn composed_faults_account_exactly() {
        for seed in seeds(42) {
            let config = FaultConfig {
                loss: LossModel::Uniform { probability: 0.1 },
                duplicate_probability: 0.05,
                corrupt_probability: 0.05,
                jitter: SimDuration::from_us(3),
                seed,
                ..FaultConfig::default()
            };
            let (got, s) = run_faulty(config, 5000, SimDuration::from_us(1));
            assert_eq!(s.offered, 5000);
            assert_eq!(got.len() as u64, s.delivered, "seed {seed}");
            assert_eq!(
                s.delivered,
                s.offered - s.dropped + s.duplicated,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let config = FaultConfig {
                loss: LossModel::GilbertElliott(GilbertElliott::bursty(0.01, 5.0)),
                reorder_probability: 0.05,
                duplicate_probability: 0.05,
                corrupt_probability: 0.05,
                jitter: SimDuration::from_us(2),
                seed: 99,
                ..FaultConfig::default()
            };
            run_faulty(config, 3000, SimDuration::from_us(1))
        };
        let (a, sa) = mk();
        let (b, sb) = mk();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn presets_are_the_well_behaved_bad_link() {
        let n = 2000;
        let gap = SimDuration::from_us(1);
        let (clean, _) = run_faulty(FaultConfig::default(), n, gap);
        for seed in seeds(42) {
            let (lossy, s) = run_faulty(FaultConfig::uniform_loss(0.3, seed), n, gap);
            let frac = lossy.len() as f64 / n as f64;
            assert!(
                (frac - 0.7).abs() < 0.05,
                "seed {seed}: pass fraction {frac}"
            );
            assert_eq!(s.duplicated + s.corrupted + s.reordered, 0);
        }
        // A fixed delay shifts every arrival by exactly that much.
        let fixed = FaultConfig::delay_jitter(SimDuration::from_us(50), SimDuration::ZERO, 1);
        let (delayed, _) = run_faulty(fixed, n, gap);
        for (c, d) in clean.iter().zip(&delayed) {
            assert_eq!((d.0 - c.0).as_ps(), 50_000_000);
        }
    }

    /// Both at once: sources sequence-numbered frames, records arrivals.
    struct EndPoint {
        tx: SeqBlaster,
        rx: SeqSink,
    }
    impl Component for EndPoint {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            self.tx.on_start(k, me);
        }
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            self.tx.on_timer(k, me, tag);
        }
        fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, p: Packet) {
            self.rx.on_packet(k, me, port, p);
        }
    }

    /// Regression pin for the documented contract: jitter never reorders
    /// frames *within a direction*, even when both directions are active
    /// and their release timers interleave in the event queue. The
    /// per-direction FIFO clamp (`last_release[out]`) is what guarantees
    /// this; a clamp shared between the directions would fail here.
    #[test]
    fn bidirectional_jitter_keeps_per_direction_fifo() {
        let n = 400u64;
        let mut b = SimBuilder::new();
        let mut ends = Vec::new();
        for name in ["end-a", "end-b"] {
            let rx = SeqSink::default();
            let got = rx.got.clone();
            let tx = SeqBlaster {
                n,
                gap: SimDuration::from_us(1),
            };
            ends.push((b.add_component(name, Box::new(EndPoint { tx, rx }), 1), got));
        }
        let jittery =
            FaultConfig::delay_jitter(SimDuration::from_us(5), SimDuration::from_us(40), 13);
        let (link, _) = FaultyLink::new(jittery).expect("valid config");
        let f = b.add_component("fault", Box::new(link), 2);
        b.connect(ends[0].0, 0, f, 0, LinkSpec::ten_gig());
        b.connect(f, 1, ends[1].0, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(50));

        // Both directions complete, each strictly in order, and the gaps
        // vary (jitter was applied).
        for (dir, (_, got)) in ["b→a", "a→b"].iter().zip(&ends) {
            let got = got.borrow();
            assert_eq!(got.len() as u64, n, "direction {dir} lost frames");
            for (i, w) in got.windows(2).enumerate() {
                assert!(w[1].1 > w[0].1, "direction {dir} reordered at index {i}");
            }
            let gaps: std::collections::HashSet<u64> =
                got.windows(2).map(|w| (w[1].0 - w[0].0).as_ps()).collect();
            assert!(gaps.len() > 10, "jitter should vary the gaps");
        }
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = FaultStats {
            offered: 10,
            dropped: 1,
            dropped_in_burst: 1,
            bursts: 2,
            duplicated: 3,
            corrupted: 4,
            reordered: 5,
            delivered: 12,
        };
        let b = FaultStats {
            offered: 100,
            dropped: 20,
            dropped_in_burst: 8,
            bursts: 1,
            duplicated: 0,
            corrupted: 7,
            reordered: 2,
            delivered: 80,
        };
        let mut acc = a;
        acc.accumulate(&b);
        assert_eq!(
            acc,
            FaultStats {
                offered: 110,
                dropped: 21,
                dropped_in_burst: 9,
                bursts: 3,
                duplicated: 3,
                corrupted: 11,
                reordered: 7,
                delivered: 92,
            }
        );
        // Order independence: (a + b) == (b + a).
        let mut rev = b;
        rev.accumulate(&a);
        assert_eq!(acc, rev);
        // Identity: accumulating the default changes nothing.
        let before = acc;
        acc.accumulate(&FaultStats::default());
        assert_eq!(acc, before);
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let bad = FaultConfig {
            corrupt_probability: 1.5,
            ..FaultConfig::default()
        };
        assert!(matches!(
            FaultyLink::new(bad),
            Err(OsntError::Config { .. })
        ));
        let bad = FaultConfig {
            corrupt_probability: 0.5,
            corrupt_bits: 0,
            ..FaultConfig::default()
        };
        assert!(FaultyLink::new(bad).is_err());
        let bad = FaultConfig {
            loss: LossModel::GilbertElliott(GilbertElliott {
                p_enter_burst: f64::NAN,
                p_exit_burst: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..FaultConfig::default()
        };
        assert!(FaultyLink::new(bad).is_err());
    }
}
