//! The discrete-event scheduler.
//!
//! Every simulated process is backed by an OS thread, but **exactly one
//! thread runs at any instant**, and events execute in `(time, seq)` order
//! (see "Who pops the next event" below). This gives straight-line
//! imperative process code (no hand-written state machines) while keeping
//! execution fully deterministic.
//!
//! Service-class packets are dispatched to a per-process handler *at their
//! arrival time*, even while the destination's application thread is in the
//! middle of a `compute` span — modelling the interrupt-driven request
//! handlers (SIGIO) of real page-based DSM systems such as TreadMarks.
//!
//! ## Who pops the next event
//!
//! There is no scheduler thread. The process thread that just blocked or
//! exited pops events itself — advancing virtual time, delivering packets
//! and running service handlers — until one wakes a process, and hands that
//! process control. The thread that called [`Sim::run`] pops only the first
//! `Resume`, then parks until the run ends: at the last process exit (events
//! still queued then never execute) or at a shutdown. The thread that finds
//! the queue empty while a process is still live has found a deadlock and
//! shuts the run down. Wake-ups are counted in [`HandoffStats`] (per run)
//! and in process-wide totals ([`handoff_totals`]) for wall-clock reporting.
//!
//! A receive that names its tags ([`AppCtx::recv_tag`],
//! [`AppCtx::recv_tags`]) is finished by the popping thread too. A delivery
//! to a process in such a wait gets the wake's bookkeeping — clock,
//! [`ProcTimes`], the causal profiler's record — and then the per-tag step
//! the waiting thread would have taken: cancel the timer of a tag that
//! landed, arm the next missing tag's. The process is woken only when its
//! last tag is in or a timer fires, so an RPC burst wakes its caller once,
//! with the event queue, `seq` and every record exactly as if its thread
//! had checked each delivery itself ([`HandoffStats::absorbed`] counts the
//! wakes saved).
//!
//! The end of a compute span is finished the same way when the process
//! owed it ([`AppCtx::defer_compute`]) and blocked in a tag wait. An owing
//! process pushes no event: its sends, trace records and tag purges wait
//! in its outbox, so the span's `Resume` takes the `seq` an eager
//! [`AppCtx::compute`] would have given it. When that `Resume` pops, the
//! popping thread does the wake's bookkeeping, performs the outbox at the
//! span's end, in program order, and starts the tag wait, all at the
//! `(time, seq)` point where the woken thread would have done so. The
//! process wakes once, when its replies are in.
//!
//! ## The OS-level hand-off
//!
//! Passing control between two OS threads costs what the OS charges for one
//! wake and one sleep, and nothing on top. Each process thread parks on its
//! own [`Baton`] (an atomic token plus `std::thread::park`/`unpark`). The
//! scheduler lock only covers the *decision* — `wake_now` marks the next
//! process runnable — and is released before the baton is handed over, so
//! the woken thread never runs into a held mutex; it re-locks uncontended,
//! because one thread runs at a time. When a process pops its own resume or
//! delivery it simply keeps running: no syscall, no context switch
//! ([`HandoffStats::self_wakes`]). The caller of [`Sim::run`] parks on a
//! baton of its own, handed once when the run ends.

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use vopp_trace::{CausalProfiler, CtxKind, EventKind, Tracer, NO_CTX};

use crate::ctx::{shrink_if_drained, AppCtx, SvcCtx};
use crate::net::{Dropped, NetModel, RouteRequest};
use crate::packet::{DeliveryClass, Packet};
use crate::sync::{Mutex, MutexGuard};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// A service-request handler: invoked by the kernel when a [`DeliveryClass::Svc`]
/// packet arrives at the process it is registered for.
pub type Handler = Box<dyn FnMut(&mut SvcCtx<'_>, Packet) + Send + 'static>;

/// How process wake-ups were scheduled during a run. Wall-clock bookkeeping
/// only — never part of the virtual-time results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Wake-ups handed on by the process thread that blocked or exited.
    pub direct: u64,
    /// Wake-ups handed on by the thread that called [`Sim::run`], which plays
    /// controller only to start the run: one per run.
    pub via_controller: u64,
    /// Of `direct`, the wake-ups where the blocking process popped its *own*
    /// resume or delivery: it just keeps running — no OS wake, no context
    /// switch. Counted inside `direct`, so [`HandoffStats::total`] is
    /// unaffected.
    pub self_wakes: u64,
    /// Wake-ups the kernel finished without waking the thread: a delivery
    /// to a process in a tag wait that left a tag missing, and the end of
    /// a span the process owed ([`AppCtx::defer_compute`]) when the tag
    /// wait it then starts is not complete. Not counted in
    /// [`HandoffStats::total`]; `total() + absorbed` is the number of
    /// wake-ups a thread that spent every span with
    /// [`AppCtx::compute`] and checked every delivery itself would have
    /// taken.
    pub absorbed: u64,
}

impl HandoffStats {
    /// Total wake-ups.
    pub fn total(&self) -> u64 {
        self.direct + self.via_controller
    }
}

/// Process-wide handoff totals, accumulated across every finished run.
static TOTAL_DIRECT: AtomicU64 = AtomicU64::new(0);
static TOTAL_VIA_CTL: AtomicU64 = AtomicU64::new(0);
static TOTAL_SELF_WAKES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ABSORBED: AtomicU64 = AtomicU64::new(0);

/// Handoff totals accumulated by every run finished in this process so far.
pub fn handoff_totals() -> HandoffStats {
    HandoffStats {
        direct: TOTAL_DIRECT.load(Ordering::Relaxed),
        via_controller: TOTAL_VIA_CTL.load(Ordering::Relaxed),
        self_wakes: TOTAL_SELF_WAKES.load(Ordering::Relaxed),
        absorbed: TOTAL_ABSORBED.load(Ordering::Relaxed),
    }
}

/// A queued event. Process ids are stored as `u32` and an in-flight packet
/// lives in [`Sched::in_flight`], not in the heap, so a [`QEntry`] stays at
/// 32 bytes however large a [`Packet`] grows.
pub(crate) enum Event {
    Resume(u32),
    /// Delivery of the packet parked in `in_flight[slot]`.
    Deliver {
        dst: u32,
        slot: u32,
    },
    /// A receive timeout; live while `ProcInfo::timer` holds this entry's
    /// `seq`.
    Timer {
        dst: u32,
    },
}

struct QEntry {
    at: SimTime,
    seq: u64,
    ev: Event,
}

const _: () = assert!(size_of::<QEntry>() <= 32);

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Thread spawned, waiting for its first resume.
    Startup,
    /// This process's thread is the one running.
    Running,
    /// Blocked until its scheduled `Resume` event fires (a compute span, or
    /// a span it owed, possibly with a tag wait to start at its end).
    BlockedResume,
    /// Blocked in a receive, possibly with a timeout armed
    /// ([`ProcInfo::timer`]) and possibly in a tag wait
    /// ([`ProcInfo::tag_wait`]).
    WaitRecv,
    /// Process body returned.
    Finished,
}

/// A receive of the contiguous tags `next..end`, in order, each waited for
/// up to `timeout` (`None`: forever) from the moment it becomes the next
/// one. The kernel advances `next` as the tags land and wakes the process
/// only when `next == end` or a timer fires. The packets stay in the
/// mailbox until the thread collects them.
#[derive(Clone, Copy)]
pub(crate) struct TagWait {
    pub(crate) next: u64,
    pub(crate) end: u64,
    pub(crate) timeout: Option<SimDuration>,
}

/// What a process did while it owed a span, performed at the span's end.
pub(crate) enum Queued {
    Send {
        dst: ProcId,
        pkt: Packet,
    },
    Trace(EventKind),
    /// [`AppCtx::purge_tags`].
    Purge(Range<u64>),
}

pub(crate) struct ProcInfo {
    pub(crate) phase: Phase,
    pub(crate) clock: SimTime,
    /// A compute span this process owes ([`AppCtx::defer_compute`]): its
    /// clock reads `clock + owed`, and it has pushed no event since.
    pub(crate) owed: SimDuration,
    /// The sends, trace records and tag purges made while owing, in program
    /// order; performed at the span's end. Keeps its capacity.
    pub(crate) outbox: Vec<Queued>,
    pub(crate) mailbox: VecDeque<Packet>,
    /// `seq` of this process's armed receive timeout, while it can still
    /// fire. Cleared when the timer fires or its receive ends with a packet.
    pub(crate) timer: Option<u64>,
    pub(crate) timed_out: bool,
    /// The tag wait in progress, from its start until the thread collects
    /// its packets; `None` in an any-packet receive.
    pub(crate) tag_wait: Option<TagWait>,
    pub(crate) times: ProcTimes,
}

impl ProcInfo {
    fn new() -> ProcInfo {
        ProcInfo {
            phase: Phase::Startup,
            clock: SimTime::ZERO,
            owed: SimDuration::ZERO,
            outbox: Vec::new(),
            mailbox: VecDeque::new(),
            timer: None,
            timed_out: false,
            tag_wait: None,
            times: ProcTimes::default(),
        }
    }

    /// Whether this process owes a compute span.
    pub(crate) fn owes(&self) -> bool {
        self.owed > SimDuration::ZERO
    }

    /// Whether a receivable packet (not a one-sided write) with `tag` is
    /// queued.
    fn has_tag(&self, tag: u64) -> bool {
        self.mailbox
            .iter()
            .any(|p| p.class != DeliveryClass::OneSided && p.tag == tag)
    }

    /// Drop every receivable packet (not a one-sided write) whose tag is in
    /// `tags`.
    pub(crate) fn purge_tags(&mut self, tags: Range<u64>) {
        self.mailbox
            .retain(|p| p.class == DeliveryClass::OneSided || !tags.contains(&p.tag));
        shrink_if_drained(&mut self.mailbox);
    }
}

/// Kernel-level classification of one process's virtual time: every clock
/// advance happens in `Shared::wake_now`, and the phase the process was
/// blocked in says which kind of time just elapsed. `compute_ns + blocked_ns`
/// equals the process's final clock, by construction — higher layers (DSM,
/// MPI) check their finer-grained phase breakdowns against these two totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcTimes {
    /// Time spent advancing through `compute` spans (CPU time).
    pub compute_ns: u64,
    /// Time spent blocked in `recv` waiting for a packet or timeout.
    pub blocked_ns: u64,
}

/// The scheduler: the one event heap and everything that must be touched in
/// exact event order — the event-seq counter, the network model (RNG and
/// link occupancy), and the per-destination delivery backlog the model reads
/// for overflow decisions.
///
/// The heap holds live events only, up to a bounded number of cancelled
/// timers: a receive that ends with a packet cancels its timeout, and once
/// cancelled timers outnumber live entries they are swept out in place.
/// Every remaining entry keeps its `(time, seq)`, so pop order is unchanged.
pub(crate) struct Sched {
    now: SimTime,
    queue: BinaryHeap<QEntry>,
    seq: u64,
    /// Cancelled timers still in `queue`.
    dead_timers: usize,
    /// Packets between send and delivery, indexed by `Event::Deliver::slot`.
    in_flight: Vec<Option<Packet>>,
    /// Vacant `in_flight` slots.
    free_slots: Vec<u32>,
    /// Wire bytes scheduled for delivery at each process but not yet handed
    /// over ([`RouteRequest::pending_bytes_at_dst`]).
    pending_bytes: Vec<usize>,
    net: Box<dyn NetModel>,
    pub(crate) procs: Vec<ProcInfo>,
    /// Service handlers, so whichever process thread pops a `Svc` delivery
    /// can run it. A handler is taken out of its slot for the duration of
    /// the call, which runs with the lock released.
    handlers: Vec<Option<Handler>>,
    running: Option<ProcId>,
    live: usize,
    shutdown: bool,
    handoff: HandoffStats,
    tracer: Option<Arc<Tracer>>,
    /// Causal-edge recorder for the critical-path profiler; pure
    /// observation — `None` costs one pointer test per wake/send.
    pub(crate) profiler: Option<Arc<CausalProfiler>>,
}

impl Sched {
    /// Events currently queued, timers included.
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queue `ev` at `at`; returns the event's `seq`.
    pub(crate) fn push_event(&mut self, at: SimTime, ev: Event) -> u64 {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        // What makes a deferred span exact: an owing process pushes no
        // event, so its span's `Resume` takes the `seq` an eager `compute`
        // would have given it.
        debug_assert!(
            self.running.is_none_or(|p| !self.procs[p].owes()),
            "proc {:?} pushed an event while owing a span",
            self.running
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QEntry { at, seq, ev });
        seq
    }

    /// Arm process `p`'s receive timeout to fire at `at`.
    pub(crate) fn arm_timer(&mut self, p: ProcId, at: SimTime) {
        debug_assert!(self.procs[p].timer.is_none(), "proc {p} armed two timers");
        let seq = self.push_event(at, Event::Timer { dst: p as u32 });
        self.procs[p].timer = Some(seq);
    }

    /// Disarm process `p`'s receive timeout, if one is armed. The entry
    /// stays queued until it pops or the next sweep, which runs once
    /// cancelled timers outnumber live entries: the heap never holds more
    /// than twice its live events, and the sweep is amortized O(1) per
    /// cancel.
    pub(crate) fn cancel_timer(&mut self, p: ProcId) {
        if self.procs[p].timer.take().is_none() {
            return;
        }
        self.dead_timers += 1;
        if 2 * self.dead_timers > self.queue.len() {
            let procs = &self.procs;
            self.queue.retain(|e| match e.ev {
                Event::Timer { dst } => procs[dst as usize].timer == Some(e.seq),
                _ => true,
            });
            self.dead_timers = 0;
        }
    }

    /// Advance process `p`'s tag wait past every tag already queued, the
    /// way a thread taking the tags one by one would: a tag found cancels
    /// the timer armed for it, and the first tag missing arms its own,
    /// `timeout` from now. Returns whether every tag is in.
    pub(crate) fn advance_tags(&mut self, p: ProcId) -> bool {
        let pi = &mut self.procs[p];
        let mut w = pi.tag_wait.expect("advance_tags outside a tag wait");
        let first = w.next;
        while w.next < w.end && pi.has_tag(w.next) {
            w.next += 1;
        }
        pi.tag_wait = Some(w);
        let deadline = w.timeout.map(|d| pi.clock + d);
        if w.next > first {
            self.cancel_timer(p);
        }
        match deadline {
            Some(at) if w.next < w.end => self.arm_timer(p, at),
            _ => {}
        }
        w.next == w.end
    }

    /// Perform what process `p` queued while it owed a span, in program
    /// order, at its clock: the span's end. Each send is stamped with the
    /// causal context running now, the wake that ended the span.
    fn flush_outbox(&mut self, p: ProcId) {
        let mut outbox = std::mem::take(&mut self.procs[p].outbox);
        let now = self.procs[p].clock;
        for q in outbox.drain(..) {
            match q {
                Queued::Send { dst, mut pkt } => {
                    if let Some(prof) = &self.profiler {
                        pkt.cause = prof.cur_ctx();
                    }
                    self.submit_send(now, dst, pkt);
                }
                Queued::Trace(kind) => {
                    if let Some(tr) = &self.tracer {
                        tr.record(now.0, p, kind);
                    }
                }
                Queued::Purge(tags) => self.procs[p].purge_tags(tags),
            }
        }
        self.procs[p].outbox = outbox;
    }

    /// Route a packet through the network model and schedule its delivery.
    pub(crate) fn submit_send(&mut self, now: SimTime, dst: ProcId, pkt: Packet) {
        if let Some(tr) = &self.tracer {
            tr.record(
                now.0,
                pkt.src,
                EventKind::NetSend {
                    dst,
                    wire_bytes: pkt.wire_bytes as u64,
                    tag: pkt.tag,
                    svc: pkt.class == DeliveryClass::Svc,
                },
            );
        }
        let one_sided = pkt.class == DeliveryClass::OneSided;
        let req = RouteRequest {
            now,
            src: pkt.src,
            dst,
            wire_bytes: pkt.wire_bytes,
            pending_bytes_at_dst: self.pending_bytes[dst],
            reliable: one_sided,
        };
        let at = match self.net.route(req) {
            Ok(at) => at,
            Err(Dropped { overflow }) => {
                if let Some(tr) = &self.tracer {
                    tr.record(
                        now.0,
                        pkt.src,
                        EventKind::NetDrop {
                            dst,
                            wire_bytes: pkt.wire_bytes as u64,
                            overflow,
                        },
                    );
                }
                return;
            }
        };
        // One-sided writes land in preposted buffers, not the receive
        // queue, so they add no overflow occupancy.
        if !one_sided {
            self.pending_bytes[dst] += pkt.wire_bytes;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.in_flight[slot as usize] = Some(pkt);
                slot
            }
            None => {
                self.in_flight.push(Some(pkt));
                u32::try_from(self.in_flight.len() - 1).expect("fewer than 2^32 packets in flight")
            }
        };
        let dst = dst as u32;
        self.push_event(at.max(now), Event::Deliver { dst, slot });
    }
}

/// One process thread's wake token. Whoever marks process `p` runnable
/// (`Sched::running = Some(p)`, under the scheduler lock) hands `p` its
/// baton *after releasing that lock*, so `p` never wakes into a held mutex;
/// `p` parks on its own baton with the lock released and re-locks —
/// uncontended, one thread runs at a time — once it is handed back. The
/// token is sticky: a hand that lands before the wait makes the wait return
/// at once, so no wake-up can be lost between the waker's unlock and the
/// wakee's park.
#[derive(Default)]
pub(crate) struct Baton {
    /// Set by [`Baton::hand`], consumed by [`Baton::wait`]. The flag
    /// publishes no data of its own — scheduler state is only ever read
    /// under the scheduler mutex, after the wait returns — so Release/Acquire
    /// merely orders the hand-off after the waker's unlock.
    go: AtomicBool,
    /// The owner's OS thread: a process thread, registered by [`Sim::run`]
    /// right after the spawn and before the first event is popped, or the
    /// thread that called [`Sim::run`].
    thread: OnceLock<Thread>,
}

impl Baton {
    /// Hand the baton to its owner. Must be called with no scheduler lock
    /// held.
    fn hand(&self) {
        self.go.store(true, Ordering::Release);
        self.thread
            .get()
            .expect("process threads are registered before the first event pops")
            .unpark();
    }

    /// Park the calling thread (the baton's owner) until the baton is handed
    /// to it. `park` may return spuriously or on a stale token;
    /// only the flag ends the wait.
    fn wait(&self) {
        while !self.go.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// A service handler's panic payload, carried to whoever re-raises it.
type Panic = Box<dyn Any + Send>;

/// What executing one event asks of the thread that popped it.
enum Step {
    /// The event woke this process ([`Shared::wake_now`] has marked it
    /// runnable); the caller hands it the baton.
    Woke(ProcId),
    /// A service handler ran, with the scheduler lock released meanwhile;
    /// `Err` is its panic payload.
    Handler(Result<(), Panic>),
    /// Nothing to wake: a cancelled timer, a resume of a finished process, a
    /// delivery nobody was blocked on, a delivery or span end after which a
    /// tag wait goes on.
    Nothing,
}

/// Shared kernel state: the scheduler, the per-process batons the process
/// threads park on, and the baton the caller of [`Sim::run`] parks on.
pub(crate) struct Shared {
    pub(crate) sched: Mutex<Sched>,
    batons: Vec<Baton>,
    /// Handed once: by the last process exit or by [`Shared::shutdown_all`].
    done: Baton,
    pub(crate) nprocs: usize,
    /// Same tracer as `Sched::tracer`, duplicated outside the mutex so the
    /// disabled path is a pointer test without taking the scheduler lock.
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// Called from a process thread: yield control and wait until it is
    /// handed back. The caller must already have set its own phase to the
    /// blocked state it wants; it then pops events itself ([`Shared::drain`])
    /// until one wakes a process.
    ///
    /// The OS-level hand-off sits at the futex floor: the drain only *marks*
    /// the next process runnable; if that process is the caller itself it
    /// simply keeps running (no syscall, no context switch); otherwise the
    /// caller releases the scheduler lock **first**, then hands the next
    /// thread its [`Baton`] (one `futex_wake`) and parks on its own (one
    /// `futex_wait`) — the woken thread never runs into a held mutex.
    pub(crate) fn yield_and_wait<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) {
        debug_assert_eq!(s.running, Some(me));
        s.running = None;
        if let Err(e) = self.drain(s) {
            // Propagate on this thread: the process-exit path records it as
            // the first panic and the run shuts down.
            std::panic::resume_unwind(e);
        }
        let next = s.running;
        if next == Some(me) {
            s.handoff.self_wakes += 1;
            return;
        }
        self.sched.unlocked(s, || {
            self.hand_on(next);
            self.batons[me].wait();
        });
        if s.running != Some(me) {
            // Only `shutdown_all` hands a baton without marking its process
            // runnable. Unblock so the run can report the real error.
            debug_assert!(s.shutdown, "proc {me} handed the baton without a wake");
            panic!("simulation shut down while proc {me} was blocked");
        }
        debug_assert_eq!(s.procs[me].phase, Phase::Running);
    }

    /// Called from process `p`'s thread once its body has returned or
    /// panicked: retire `p` and pass control on. The run ends here if `p`
    /// was the last live process — events still queued never execute — or
    /// if `p`'s panic is the run's first. Returns whether it is, or the
    /// payload of a service handler that panicked while this thread drained:
    /// that panic is then the run's first.
    fn exit(&self, p: ProcId, panicked: bool) -> Result<bool, Panic> {
        let mut s = self.sched.lock();
        // Only the *first* panic is the real error; panics raised to unblock
        // threads during shutdown are noise.
        let first_panic = panicked && !s.shutdown;
        if let Some(tr) = &s.tracer {
            tr.record(s.procs[p].clock.0, p, EventKind::ProcExit);
        }
        s.procs[p].phase = Phase::Finished;
        s.live -= 1;
        if s.running == Some(p) {
            s.running = None;
        }
        if s.shutdown {
            // `shutdown_all` has already released every thread.
            return Ok(false);
        }
        if first_panic {
            drop(s);
            self.shutdown_all();
            return Ok(true);
        }
        if s.live == 0 {
            drop(s);
            self.done.hand();
            return Ok(false);
        }
        let drained = self.drain(&mut s);
        let next = s.running;
        drop(s);
        self.hand_on(next);
        drained.map(|()| false)
    }

    /// Pop events — advancing virtual time and running service handlers —
    /// until one wakes a process, which leaves it in `Sched::running`. If the
    /// queue runs dry first, `running` stays `None`: the caller was the last
    /// thread that could have sent anything, so with a process still live
    /// the run is deadlocked. Returns the payload of a service handler that
    /// panicked, with `running` still `None`; the run must then end.
    fn drain<'a>(&'a self, s: &mut MutexGuard<'a, Sched>) -> Result<(), Panic> {
        while let Some(step) = self.step(s) {
            match step {
                Step::Woke(_) => {
                    s.handoff.direct += 1;
                    break;
                }
                Step::Handler(r) => r?,
                Step::Nothing => {}
            }
        }
        Ok(())
    }

    /// Hand the baton to `next`, the process a drain woke, or shut the run
    /// down if it woke none: the queue ran dry (a deadlock) or a service
    /// handler panicked. Called with the lock released.
    fn hand_on(&self, next: Option<ProcId>) {
        match next {
            Some(p) => self.batons[p].hand(),
            None => self.shutdown_all(),
        }
    }

    /// Pop the earliest event and execute it: the one body every popping
    /// thread runs, so event order, trace order and clock advances depend on
    /// the queue alone. `None` means the queue is empty.
    fn step<'a>(&'a self, s: &mut MutexGuard<'a, Sched>) -> Option<Step> {
        let QEntry { at, seq, ev } = s.queue.pop()?;
        debug_assert!(at >= s.now, "event queue went backwards");
        s.now = at;
        let (dst, cause) = match ev {
            Event::Resume(p) => match s.procs[p as usize].phase {
                Phase::Startup => (p as usize, NO_CTX),
                Phase::BlockedResume => return Some(self.end_span(s, p as usize, at)),
                Phase::Finished => return Some(Step::Nothing),
                ref ph => unreachable!("resume for proc {p} in phase {ph:?}"),
            },
            Event::Deliver { dst, slot } => {
                let dst = dst as usize;
                let mut pkt = s.in_flight[slot as usize]
                    .take()
                    .expect("a queued delivery owns its slot");
                s.free_slots.push(slot);
                // One-sided deliveries never entered the backlog (preposted
                // buffers, not the receive queue).
                if pkt.class != DeliveryClass::OneSided {
                    s.pending_bytes[dst] -= pkt.wire_bytes;
                }
                pkt.arrived = at;
                if let Some(tr) = &s.tracer {
                    tr.record(
                        at.0,
                        dst,
                        EventKind::NetRecv {
                            src: pkt.src,
                            wire_bytes: pkt.wire_bytes as u64,
                            tag: pkt.tag,
                        },
                    );
                }
                match pkt.class {
                    DeliveryClass::Svc => {
                        return Some(Step::Handler(self.dispatch_svc(s, dst, pkt, at)));
                    }
                    DeliveryClass::App => {
                        let (cause, tag) = (pkt.cause, pkt.tag);
                        s.procs[dst].mailbox.push_back(pkt);
                        if s.procs[dst].phase != Phase::WaitRecv {
                            return Some(Step::Nothing);
                        }
                        if let Some(w) = s.procs[dst].tag_wait {
                            // The wake the waiting thread would have taken
                            // to check this packet, then its per-tag step.
                            self.account_wake(s, dst, at, cause);
                            if tag == w.next && s.advance_tags(dst) {
                                self.mark_running(s, dst);
                                return Some(Step::Woke(dst));
                            }
                            // A tag is still missing: the thread would block
                            // again at once, so it is never woken.
                            s.handoff.absorbed += 1;
                            return Some(Step::Nothing);
                        }
                        (dst, cause)
                    }
                    // One-sided write: lands in the preposted buffer with no
                    // remote CPU involvement — no handler dispatch, no wake
                    // of a blocked receiver.
                    DeliveryClass::OneSided => {
                        s.procs[dst].mailbox.push_back(pkt);
                        return Some(Step::Nothing);
                    }
                }
            }
            Event::Timer { dst } => {
                let dst = dst as usize;
                if s.procs[dst].timer != Some(seq) {
                    // Cancelled: its receive already ended with a packet.
                    s.dead_timers -= 1;
                    return Some(Step::Nothing);
                }
                debug_assert_eq!(s.procs[dst].phase, Phase::WaitRecv);
                s.procs[dst].timer = None;
                s.procs[dst].timed_out = true;
                (dst, NO_CTX)
            }
        };
        self.wake_now(s, dst, at, cause);
        Some(Step::Woke(dst))
    }

    /// End process `p`'s compute span at `t`: the wake's bookkeeping, then
    /// what `p` queued while it owed the span, then the step its thread
    /// would take next. A plain span, or one whose tag wait is already
    /// complete, wakes `p`; otherwise the wait goes on with `p` never woken.
    fn end_span(&self, s: &mut MutexGuard<'_, Sched>, p: ProcId, t: SimTime) -> Step {
        self.account_wake(s, p, t, NO_CTX);
        s.flush_outbox(p);
        if s.procs[p].tag_wait.is_none() || s.advance_tags(p) {
            self.mark_running(s, p);
            return Step::Woke(p);
        }
        // A tag is still missing: the thread would block again at once.
        s.procs[p].phase = Phase::WaitRecv;
        s.handoff.absorbed += 1;
        Step::Nothing
    }

    /// Run the `Svc` handler for `dst`, releasing the scheduler lock for the
    /// duration of the call (handlers re-enter the scheduler through
    /// [`SvcCtx`]) and re-acquiring it before returning. Returns the
    /// handler's panic payload, if any.
    fn dispatch_svc<'a>(
        &'a self,
        s: &mut MutexGuard<'a, Sched>,
        dst: ProcId,
        pkt: Packet,
        at: SimTime,
    ) -> Result<(), Panic> {
        if let Some(prof) = &s.profiler {
            prof.record_svc(dst, at.0, pkt.cause);
        }
        let mut h = s.handlers[dst]
            .take()
            .unwrap_or_else(|| panic!("no Svc handler on proc {dst}"));
        let r = self.sched.unlocked(s, || {
            let mut ctx = SvcCtx::new(self, dst, at);
            catch_unwind(AssertUnwindSafe(|| h(&mut ctx, pkt)))
        });
        if r.is_ok() {
            // On panic the slot stays empty; the run is shutting down.
            s.handlers[dst] = Some(h);
        }
        r
    }

    /// Mark process `p` runnable at virtual time `t`. The caller hands `p`
    /// its [`Baton`] once it has released the scheduler lock (unless `p` is
    /// the caller itself).
    /// `pkt_cause` is the delivered packet's causal stamp on receive wakes
    /// ([`NO_CTX`] for self-caused resumes and timer expiries).
    fn wake_now(&self, s: &mut MutexGuard<'_, Sched>, p: ProcId, t: SimTime, pkt_cause: u64) {
        self.account_wake(s, p, t, pkt_cause);
        self.mark_running(s, p);
    }

    /// Advance process `p`'s clock to `t` for a wake: every clock advance
    /// and its compute/blocked classification happens here, and so does the
    /// causal profiler's wake record. `p` stays in its blocked phase; a wake
    /// the kernel finishes itself (a tag wait with a tag still missing)
    /// goes no further.
    fn account_wake(&self, s: &mut MutexGuard<'_, Sched>, p: ProcId, t: SimTime, pkt_cause: u64) {
        if s.procs[p].phase == Phase::Startup {
            if let Some(tr) = &s.tracer {
                tr.record(t.0, p, EventKind::ProcStart);
            }
        }
        if let Some(prof) = &s.profiler {
            let pi = &s.procs[p];
            let kind = match pi.phase {
                Phase::Startup => Some(CtxKind::Start),
                Phase::BlockedResume => Some(CtxKind::Compute),
                Phase::WaitRecv => Some(if pi.timed_out {
                    CtxKind::Timeout
                } else {
                    CtxKind::Wait
                }),
                Phase::Running | Phase::Finished => None,
            };
            if let Some(kind) = kind {
                prof.record_wake(p, pi.clock.0, pi.clock.max(t).0, kind, pkt_cause);
            }
        }
        let pi = &mut s.procs[p];
        let adv = t.0.saturating_sub(pi.clock.0);
        match pi.phase {
            Phase::BlockedResume => pi.times.compute_ns += adv,
            Phase::WaitRecv => pi.times.blocked_ns += adv,
            Phase::Startup | Phase::Running | Phase::Finished => {}
        }
        pi.clock = pi.clock.max(t);
    }

    /// Make process `p` the one running.
    fn mark_running(&self, s: &mut MutexGuard<'_, Sched>, p: ProcId) {
        debug_assert!(s.running.is_none());
        s.procs[p].phase = Phase::Running;
        s.running = Some(p);
    }

    /// Release every blocked process thread so the scope can join them, and
    /// the caller of [`Sim::run`] so it joins them.
    fn shutdown_all(&self) {
        self.sched.lock().shutdown = true;
        for b in &self.batons {
            b.hand();
        }
        self.done.hand();
    }
}

/// One complete simulated run.
pub struct RunOutcome<R> {
    /// Per-process return values of the body closure, indexed by `ProcId`.
    pub results: Vec<R>,
    /// Virtual time at which the last process finished.
    pub end_time: SimTime,
    /// Virtual finish time of each process.
    pub proc_end: Vec<SimTime>,
    /// Kernel compute/blocked time classification of each process.
    pub proc_times: Vec<ProcTimes>,
    /// Wake-up counts (wall-clock bookkeeping; not part of the virtual-time
    /// results).
    pub handoff: HandoffStats,
    /// The network model, returned so callers can read its statistics.
    pub net: Box<dyn NetModel>,
}

/// A configured simulation, ready to run.
///
/// ```
/// use std::sync::Arc;
/// use vopp_sim::{Sim, PerfectNet, SimDuration, DeliveryClass};
///
/// let sim = Sim::new(2, Box::new(PerfectNet::default()));
/// let out = sim.run(|ctx| {
///     if ctx.me() == 0 {
///         ctx.send(1, 100, DeliveryClass::App, 0, Arc::new(123u32));
///         0
///     } else {
///         ctx.recv().expect::<u32>()
///     }
/// });
/// assert_eq!(out.results, vec![0, 123]);
/// ```
pub struct Sim {
    nprocs: usize,
    net: Box<dyn NetModel>,
    handlers: Vec<Option<Handler>>,
    tracer: Option<Arc<Tracer>>,
    profiler: Option<Arc<CausalProfiler>>,
}

impl Sim {
    /// A simulation with `nprocs` processes over the given network model.
    pub fn new(nprocs: usize, net: Box<dyn NetModel>) -> Sim {
        assert!(nprocs > 0, "need at least one process");
        assert!(u32::try_from(nprocs).is_ok(), "events hold u32 process ids");
        Sim {
            nprocs,
            net,
            handlers: (0..nprocs).map(|_| None).collect(),
            tracer: None,
            profiler: None,
        }
    }

    /// Install an event tracer. Kernel-level send/receive and process
    /// lifecycle events are recorded into it; the same tracer is exposed to
    /// process bodies and service handlers via [`AppCtx::trace`] /
    /// [`SvcCtx::trace`] so higher layers share one event stream.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Install a causal-edge recorder for the critical-path profiler.
    /// Wakes, service dispatches and packet sends are tagged with their
    /// immediate causal predecessor; recording is pure observation and
    /// never influences scheduling, clocks, or any virtual-time result.
    pub fn set_profiler(&mut self, profiler: Arc<CausalProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Register the service handler for process `p` (at most one each).
    pub fn set_handler(&mut self, p: ProcId, h: Handler) {
        assert!(self.handlers[p].is_none(), "handler already set for {p}");
        self.handlers[p] = Some(h);
    }

    /// Execute the simulation to completion. `body` is invoked once per
    /// process on its own thread; the return values are collected in
    /// [`RunOutcome::results`].
    ///
    /// Panics if the simulation deadlocks (all processes blocked with no
    /// pending events) or if any process panics.
    pub fn run<R, F>(self, body: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(AppCtx<'_>) -> R + Send + Sync,
    {
        let nprocs = self.nprocs;
        let mut sched = Sched {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            dead_timers: 0,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            pending_bytes: vec![0; nprocs],
            net: self.net,
            procs: (0..nprocs).map(|_| ProcInfo::new()).collect(),
            handlers: self.handlers,
            running: None,
            live: nprocs,
            shutdown: false,
            handoff: HandoffStats::default(),
            tracer: self.tracer.clone(),
            profiler: self.profiler,
        };
        for p in 0..nprocs {
            sched.push_event(SimTime::ZERO, Event::Resume(p as u32));
        }
        let shared = Shared {
            sched: Mutex::new(sched),
            batons: (0..nprocs).map(|_| Baton::default()).collect(),
            done: Baton {
                thread: OnceLock::from(std::thread::current()),
                ..Baton::default()
            },
            nprocs,
            tracer: self.tracer,
        };

        let body = &body;
        let mut results: Vec<Option<R>> = std::thread::scope(|scope| {
            let shared = &shared;
            let joins: Vec<_> = (0..nprocs)
                .map(|p| {
                    scope.spawn(move || {
                        // Wait for the first resume; a baton handed without
                        // one is the shutdown of a run that never got to `p`.
                        shared.batons[p].wait();
                        if shared.sched.lock().running != Some(p) {
                            return None;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            let ctx = AppCtx::new(shared, p, nprocs);
                            let v = body(ctx);
                            ctx.settle(&mut shared.sched.lock());
                            v
                        }));
                        match (shared.exit(p, r.is_err()), r) {
                            (Err(handler_panic), _) => std::panic::resume_unwind(handler_panic),
                            (Ok(_), Ok(v)) => Some(v),
                            (Ok(true), Err(e)) => std::panic::resume_unwind(e),
                            (Ok(false), Err(_)) => None,
                        }
                    })
                })
                .collect();
            for (baton, j) in shared.batons.iter().zip(&joins) {
                baton
                    .thread
                    .set(j.thread().clone())
                    .expect("one registration per process");
            }

            // Pop the first `Resume` and hand it on; from then on the process
            // threads pop every event.
            let mut s = shared.sched.lock();
            let Some(Step::Woke(first)) = shared.step(&mut s) else {
                unreachable!("the first event resumes process 0")
            };
            s.handoff.via_controller += 1;
            drop(s);
            shared.batons[first].hand();
            shared.done.wait();

            joins
                .into_iter()
                .map(|j| match j.join() {
                    Ok(v) => v,
                    // Re-panic on the main thread with the process's payload.
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });

        let s = shared.sched.into_inner();
        if s.shutdown {
            panic!("simulation deadlocked: all processes blocked with no pending events");
        }
        let proc_end: Vec<SimTime> = s.procs.iter().map(|pi| pi.clock).collect();
        let end_time = proc_end.iter().copied().max().unwrap_or(SimTime::ZERO);
        TOTAL_DIRECT.fetch_add(s.handoff.direct, Ordering::Relaxed);
        TOTAL_VIA_CTL.fetch_add(s.handoff.via_controller, Ordering::Relaxed);
        TOTAL_SELF_WAKES.fetch_add(s.handoff.self_wakes, Ordering::Relaxed);
        TOTAL_ABSORBED.fetch_add(s.handoff.absorbed, Ordering::Relaxed);
        RunOutcome {
            results: results
                .iter_mut()
                .map(|r| r.take().expect("result"))
                .collect(),
            end_time,
            proc_end,
            proc_times: s.procs.iter().map(|pi| pi.times).collect(),
            handoff: s.handoff,
            net: s.net,
        }
    }
}

/// Convenience wrapper: run `nprocs` copies of `body` on a perfect network
/// with the given latency. Used heavily by unit tests.
pub fn run_simple<R, F>(nprocs: usize, latency: SimDuration, body: F) -> RunOutcome<R>
where
    R: Send,
    F: Fn(AppCtx<'_>) -> R + Send + Sync,
{
    Sim::new(nprocs, Box::new(crate::net::PerfectNet::new(latency))).run(body)
}
