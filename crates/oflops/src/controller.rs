//! The controller endpoint and the measurement-module interface.

use osnt_error::OsntError;
use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_openflow::Message;
use osnt_packet::Packet;
use osnt_switch::{decap_control, encap_control};
use osnt_time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

pub(crate) fn validate_probability(name: &str, p: f64) -> Result<(), OsntError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(OsntError::config(
            "control faults",
            format!("{name} probability {p} outside [0, 1]"),
        ));
    }
    Ok(())
}

/// Direction of a logged control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDir {
    /// Controller → switch.
    Sent,
    /// Switch → controller.
    Received,
}

/// One timestamped control-plane event.
#[derive(Debug, Clone)]
pub struct ControlLogEntry {
    /// When the controller sent/received it.
    pub time: SimTime,
    /// Direction.
    pub dir: ControlDir,
    /// The message (owned copy; control-plane volumes are small).
    pub message: Message,
    /// Transaction id.
    pub xid: u32,
}

/// The controller's record of every control-plane event, in logging
/// order.
///
/// Append-only, stored as segments that each hold twice as many entries
/// as the one before. A full segment is never grown: the next entry
/// opens a new one. So no entry is copied after it is written, where a
/// `Vec` would copy the whole log on every regrowth.
#[derive(Default)]
pub struct ControlLog {
    /// Every segment holds at least one entry: the push that fills a
    /// segment's first slot opens it.
    segments: Vec<Vec<ControlLogEntry>>,
}

impl ControlLog {
    /// Entries in the first segment.
    const FIRST_SEGMENT: usize = 16;

    /// Entries logged.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// True before the first entry.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The entries in logging order.
    pub fn iter(&self) -> impl Iterator<Item = &ControlLogEntry> + '_ {
        self.segments.iter().flatten()
    }

    pub(crate) fn push(&mut self, entry: ControlLogEntry) {
        match self.segments.last_mut() {
            Some(last) if last.len() < last.capacity() => last.push(entry),
            last => {
                let size = last.map_or(Self::FIRST_SEGMENT, |last| 2 * last.capacity());
                let mut segment = Vec::with_capacity(size);
                segment.push(entry);
                self.segments.push(segment);
            }
        }
    }
}

/// Prints exactly what a `Vec` of the same entries prints.
impl std::fmt::Debug for ControlLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What went wrong on the control channel. These are *recorded*, not
/// thrown: measurement modules keep correlating their remaining channels
/// and the final report carries the error list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlErrorKind {
    /// A tracked request saw no response within the timeout; the
    /// controller is retrying (attempt counts the resends so far).
    Timeout {
        /// Transaction id of the request.
        xid: u32,
        /// Which retry this timeout triggered (1 = first resend).
        attempt: u32,
    },
    /// A tracked request exhausted its retries and was abandoned.
    GaveUp {
        /// Transaction id of the abandoned request.
        xid: u32,
    },
    /// A control frame arrived but its OpenFlow payload did not decode
    /// (truncated read, torn write).
    Decode {
        /// Decoder's description of the malformation.
        reason: String,
    },
    /// The measurement module panicked inside one of its callbacks. The
    /// unwind was caught at the controller boundary; the module is
    /// poisoned (no further callbacks), but the controller's own
    /// machinery — logging, retries, capture — keeps running so the
    /// report survives.
    ModulePanic {
        /// Which callback unwound.
        boundary: &'static str,
        /// The panic payload, stringified.
        reason: String,
    },
}

/// One timestamped control-channel failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlError {
    /// When the controller observed it.
    pub time: SimTime,
    /// What happened.
    pub kind: ControlErrorKind,
}

/// Per-request timeout and retry budget for tracked sends.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Time to wait for a response before resending. Subsequent waits
    /// grow from this base by decorrelated jitter (see
    /// [`Self::jitter_seed`]).
    pub timeout: SimDuration,
    /// Resends allowed after the first attempt before giving up.
    pub max_retries: u32,
    /// Seed for decorrelated-jitter backoff: each retry waits
    /// `uniform(timeout, prev_wait * 3)` capped at `timeout << 16` —
    /// requests that time out together spread their resends apart
    /// instead of hammering the channel in lockstep. The stream is
    /// seeded, so a given (policy, run seed) replays bit-for-bit.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Default decorrelated-jitter seed (an arbitrary odd constant; any
    /// fixed value keeps runs reproducible).
    pub const DEFAULT_JITTER_SEED: u64 = 0x0F1C_E5D5_3B4C_9D21;
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The control RTT in the standard testbed is tens of µs; 50 ms
        // comfortably covers switch CPU stalls without dragging out
        // genuinely dead channels.
        RetryPolicy {
            timeout: SimDuration::from_ms(50),
            max_retries: 3,
            jitter_seed: Self::DEFAULT_JITTER_SEED,
        }
    }
}

/// A tracked request awaiting its response.
struct PendingRequest {
    message: Message,
    attempt: u32,
    /// The wait armed for the *current* timeout timer, in picoseconds —
    /// the `prev` term of the decorrelated-jitter recurrence.
    backoff_ps: u64,
}

/// What a measurement module can do with the testbed.
pub struct ModuleCtx<'a> {
    kernel: &'a mut Kernel,
    me: ComponentId,
    next_xid: &'a mut u32,
    log: &'a Rc<RefCell<ControlLog>>,
    pending: &'a mut HashMap<u32, PendingRequest>,
    policy: &'a RetryPolicy,
    errors: &'a Rc<RefCell<Vec<ControlError>>>,
}

impl ModuleCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Send an OpenFlow message to the switch; returns the xid used.
    pub fn send(&mut self, message: Message) -> u32 {
        let xid = *self.next_xid;
        *self.next_xid += 1;
        let frame = encap_control(&message, xid);
        self.log.borrow_mut().push(ControlLogEntry {
            time: self.kernel.now(),
            dir: ControlDir::Sent,
            message,
            xid,
        });
        let _ = self.kernel.transmit(self.me, 0, frame);
        xid
    }

    /// Send a request the controller should *track*: if no message
    /// bearing the same xid comes back within the retry policy's
    /// timeout, the request is resent (same xid, a longer timeout) up to
    /// `max_retries` times, then abandoned with a recorded
    /// [`ControlErrorKind::GaveUp`]. Use for request/response messages
    /// (echo, barrier, features, stats); plain [`ModuleCtx::send`] for
    /// fire-and-forget ones (flow-mod, packet-out).
    pub fn send_tracked(&mut self, message: Message) -> u32 {
        let xid = self.send(message.clone());
        self.pending.insert(
            xid,
            PendingRequest {
                message,
                attempt: 0,
                backoff_ps: self.policy.timeout.as_ps(),
            },
        );
        self.kernel.schedule_timer(
            self.me,
            self.policy.timeout,
            TAG_CTRL_TIMEOUT_BASE + xid as u64,
        );
        xid
    }

    /// Control-channel errors recorded so far.
    pub fn errors(&self) -> Vec<ControlError> {
        self.errors.borrow().clone()
    }

    /// Arm a module timer. Tags at or above `1 << 40` are reserved for
    /// the controller's own timeout timers; arming one panics (in the
    /// module's callback, where the controller contains it).
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        assert_module_tag(tag);
        self.kernel.schedule_timer(self.me, delay, tag);
    }

    /// Arm a module timer at an absolute instant. Same tag range as
    /// [`ModuleCtx::schedule`].
    pub fn schedule_at(&mut self, at: SimTime, tag: u64) {
        assert_module_tag(tag);
        self.kernel.schedule_timer_at(self.me, at, tag);
    }
}

/// A measurement module: the user-programmable part of OFLOPS-turbo.
///
/// Modules drive the control plane through [`ModuleCtx`]; the data plane
/// (probe generation, capture) is configured in the
/// [`crate::harness::TestbedSpec`] and analysed from the capture buffers
/// after the run.
pub trait MeasurementModule {
    /// Called once after the OpenFlow handshake completes.
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>);

    /// Called for every control message from the switch (after logging).
    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        let _ = (ctx, message, xid);
    }

    /// Called when a module timer fires.
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called whenever the controller records a control-channel error
    /// (timeout, retry exhaustion, decode failure). The default does
    /// nothing — errors are already in the shared error log — but a
    /// module can react (e.g. re-issue a measurement round).
    fn on_control_error(&mut self, ctx: &mut ModuleCtx<'_>, error: &ControlError) {
        let _ = (ctx, error);
    }
}

/// Timer tags at or above this value belong to the controller's
/// request-timeout machinery (`base + xid`); below it, to the module.
const TAG_CTRL_TIMEOUT_BASE: u64 = 1 << 40;

/// A module timer in the controller's range would fire as the retry
/// timeout of xid `tag - base` and never reach the module.
fn assert_module_tag(tag: u64) {
    assert!(
        tag < TAG_CTRL_TIMEOUT_BASE,
        "module timer tag {tag:#x} is in the controller's reserved range (>= 1 << 40)"
    );
}

/// The controller component: one kernel port wired to the switch's
/// control port.
pub struct OflopsController {
    module: Box<dyn MeasurementModule>,
    log: Rc<RefCell<ControlLog>>,
    errors: Rc<RefCell<Vec<ControlError>>>,
    pending: HashMap<u32, PendingRequest>,
    policy: RetryPolicy,
    /// Decorrelated-jitter stream for retry backoff.
    backoff_rng: rand::rngs::SmallRng,
    next_xid: u32,
    handshake_done: bool,
    /// Latched once a module callback panics: the unwind is contained
    /// at the controller boundary and the module gets no further
    /// callbacks (its internal state is unknowable mid-unwind).
    module_poisoned: bool,
}

impl OflopsController {
    /// Wrap a module; returns the component and the shared control log.
    pub fn new(module: Box<dyn MeasurementModule>) -> (Self, Rc<RefCell<ControlLog>>) {
        Self::with_policy(module, RetryPolicy::default())
    }

    /// Wrap a module with an explicit retry policy.
    pub fn with_policy(
        module: Box<dyn MeasurementModule>,
        policy: RetryPolicy,
    ) -> (Self, Rc<RefCell<ControlLog>>) {
        use rand::SeedableRng;
        let log = Rc::new(RefCell::new(ControlLog::default()));
        (
            OflopsController {
                module,
                log: log.clone(),
                errors: Rc::new(RefCell::new(Vec::new())),
                pending: HashMap::new(),
                backoff_rng: rand::rngs::SmallRng::seed_from_u64(policy.jitter_seed),
                policy,
                next_xid: 1,
                handshake_done: false,
                module_poisoned: false,
            },
            log,
        )
    }

    /// Shared handle to the control-error record. Grab it before the
    /// controller moves into the simulation.
    pub fn errors_handle(&self) -> Rc<RefCell<Vec<ControlError>>> {
        self.errors.clone()
    }

    /// Whether a module callback panicked (the module is no longer
    /// receiving callbacks; the error log has the detail).
    pub fn module_poisoned(&self) -> bool {
        self.module_poisoned
    }

    fn contain_module_panic(
        &mut self,
        kernel: &mut Kernel,
        boundary: &'static str,
        payload: &(dyn std::any::Any + Send),
    ) {
        // Poison first: the panic handler below records an error, and
        // error recording must not call back into the unwound module.
        self.module_poisoned = true;
        let reason = match OsntError::from_panic(boundary, payload) {
            OsntError::Panicked { reason, .. } => reason,
            _ => unreachable!("from_panic always builds Panicked"),
        };
        self.errors.borrow_mut().push(ControlError {
            time: kernel.now(),
            kind: ControlErrorKind::ModulePanic { boundary, reason },
        });
    }

    fn record_error(&mut self, kernel: &mut Kernel, me: ComponentId, kind: ControlErrorKind) {
        let error = ControlError {
            time: kernel.now(),
            kind,
        };
        self.errors.borrow_mut().push(error.clone());
        contained_call!(
            self,
            kernel,
            me,
            "measurement module on_control_error",
            |ctx| self.module.on_control_error(&mut ctx, &error)
        );
    }
}

/// Build a [`ModuleCtx`] from the controller's fields without borrowing
/// the whole struct (the module itself must stay borrowable).
macro_rules! ctx_parts {
    ($s:expr, $kernel:expr, $me:expr) => {
        ModuleCtx {
            kernel: $kernel,
            me: $me,
            next_xid: &mut $s.next_xid,
            log: &$s.log,
            pending: &mut $s.pending,
            policy: &$s.policy,
            errors: &$s.errors,
        }
    };
}
use ctx_parts;

/// Invoke a module callback with the unwind contained at the controller
/// boundary: a poisoned module is skipped, a panicking one is poisoned
/// and its panic recorded as [`ControlErrorKind::ModulePanic`].
macro_rules! contained_call {
    ($s:expr, $kernel:expr, $me:expr, $boundary:expr, |$ctx:ident| $call:expr) => {{
        if !$s.module_poisoned {
            let outcome = {
                let mut $ctx = ctx_parts!($s, $kernel, $me);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $call))
            };
            if let Err(payload) = outcome {
                $s.contain_module_panic($kernel, $boundary, payload.as_ref());
            }
        }
    }};
}
use contained_call;

impl Component for OflopsController {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        let mut ctx = ctx_parts!(self, kernel, me);
        ctx.send(Message::Hello);
        // The handshake itself is tracked: a switch that boots with its
        // control channel down is retried, not silently never-ready.
        ctx.send_tracked(Message::FeaturesRequest);
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, _port: usize, packet: Packet) {
        let (message, xid) = match decap_control(&packet) {
            Some(Ok(ok)) => ok,
            Some(Err(e)) => {
                // Malformed OpenFlow inside a control frame (truncated
                // read). Record and carry on — the channel survives.
                self.record_error(
                    kernel,
                    me,
                    ControlErrorKind::Decode {
                        reason: format!("{e:?}"),
                    },
                );
                return;
            }
            None => return,
        };
        // Any message bearing a tracked xid settles that request.
        self.pending.remove(&xid);
        self.log.borrow_mut().push(ControlLogEntry {
            time: kernel.now(),
            dir: ControlDir::Received,
            message: message.clone(),
            xid,
        });
        if !self.handshake_done {
            if let Message::FeaturesReply(_) = &message {
                self.handshake_done = true;
                contained_call!(self, kernel, me, "measurement module on_ready", |ctx| self
                    .module
                    .on_ready(&mut ctx));
                return;
            }
        }
        contained_call!(self, kernel, me, "measurement module on_message", |ctx| {
            self.module.on_message(&mut ctx, &message, xid)
        });
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        if tag < TAG_CTRL_TIMEOUT_BASE {
            contained_call!(self, kernel, me, "measurement module on_timer", |ctx| self
                .module
                .on_timer(&mut ctx, tag));
            return;
        }
        let xid = (tag - TAG_CTRL_TIMEOUT_BASE) as u32;
        let Some(req) = self.pending.get_mut(&xid) else {
            return; // response arrived before the timer fired
        };
        req.attempt += 1;
        let attempt = req.attempt;
        if attempt > self.policy.max_retries {
            self.pending.remove(&xid);
            self.record_error(kernel, me, ControlErrorKind::GaveUp { xid });
            return;
        }
        // Resend the same request under the same xid. The next wait
        // backs off by decorrelated jitter: uniform between the base
        // timeout and 3x the previous wait, capped. Jitter keeps a burst
        // of simultaneous timeouts from resending — and timing out
        // again — in lockstep forever.
        use rand::Rng;
        let base_ps = self.policy.timeout.as_ps();
        let cap_ps = base_ps.saturating_mul(1 << 16);
        let hi_ps = req.backoff_ps.saturating_mul(3).clamp(base_ps, cap_ps);
        let backoff_ps = self.backoff_rng.gen_range(base_ps..=hi_ps);
        req.backoff_ps = backoff_ps;
        let message = req.message.clone();
        let frame = encap_control(&message, xid);
        self.log.borrow_mut().push(ControlLogEntry {
            time: kernel.now(),
            dir: ControlDir::Sent,
            message,
            xid,
        });
        let _ = kernel.transmit(me, 0, frame);
        kernel.schedule_timer(me, SimDuration::from_ps(backoff_ps), tag);
        self.record_error(kernel, me, ControlErrorKind::Timeout { xid, attempt });
    }

    fn name(&self) -> &str {
        "oflops-controller"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_openflow::EchoData;

    fn entry(i: u32) -> ControlLogEntry {
        ControlLogEntry {
            time: SimTime::from_ns(u64::from(i)),
            dir: if i.is_multiple_of(2) {
                ControlDir::Sent
            } else {
                ControlDir::Received
            },
            message: match i % 3 {
                0 => Message::BarrierRequest,
                1 => Message::EchoRequest(EchoData(vec![i as u8; 3])),
                _ => Message::Hello,
            },
            xid: i,
        }
    }

    #[test]
    fn log_iterates_in_logging_order_across_segment_boundaries() {
        let mut log = ControlLog::default();
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
        // Segments of 16, 32, 64, …: 1000 entries cross six boundaries.
        for n in 1..=1000u32 {
            log.push(entry(n - 1));
            assert_eq!(log.len(), n as usize);
            assert!(!log.is_empty());
            assert!(log.iter().map(|e| e.xid).eq(0..n), "after {n} pushes");
        }
    }

    #[test]
    fn log_prints_what_a_vec_of_its_entries_prints() {
        let mut log = ControlLog::default();
        let mut reference = Vec::new();
        for n in 0..=200u32 {
            if [0, 1, 15, 16, 17, 48, 49, 200].contains(&n) {
                assert_eq!(format!("{log:?}"), format!("{reference:?}"), "{n} entries");
                assert_eq!(
                    format!("{log:#?}"),
                    format!("{reference:#?}"),
                    "{n} entries"
                );
            }
            log.push(entry(n));
            reference.push(entry(n));
        }
    }

    #[test]
    fn log_never_moves_an_entry() {
        let mut log = ControlLog::default();
        log.push(entry(0));
        let first: *const ControlLogEntry = log.iter().next().expect("one entry");
        for i in 1..100_000 {
            log.push(entry(i));
        }
        assert_eq!(log.len(), 100_000);
        let still: *const ControlLogEntry = log.iter().next().expect("entries");
        assert_eq!(still, first);
    }
}
