//! Process-side and handler-side views of the kernel.

use std::collections::VecDeque;
use std::ops::Range;

use crate::kernel::{Event, Phase, Queued, Sched, Shared, TagWait};
use crate::packet::{DeliveryClass, Packet, Payload};
use crate::sync::MutexGuard;
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Mailbox capacity retained after a drain. A barrier fan-in can spike a
/// manager's mailbox to `nprocs` packets; once drained, capacity beyond this
/// is released so the spike doesn't pin memory for the rest of the run.
const MAILBOX_IDLE_CAP: usize = 64;

/// Release excess mailbox capacity once the queue is empty.
pub(crate) fn shrink_if_drained(mb: &mut VecDeque<Packet>) {
    if mb.is_empty() && mb.capacity() > MAILBOX_IDLE_CAP {
        mb.shrink_to(MAILBOX_IDLE_CAP);
    }
}

/// Remove the earliest queued packet satisfying `want`. Every take from a
/// mailbox goes through here, so each one releases a drained spike.
fn take(mb: &mut VecDeque<Packet>, want: impl Fn(&Packet) -> bool) -> Option<Packet> {
    let pkt = mb.remove(mb.iter().position(want)?);
    shrink_if_drained(mb);
    pkt
}

/// Whether `p` is a one-sided write from `src` with `tag`.
fn one_sided(p: &Packet, src: ProcId, tag: u64) -> bool {
    p.class == DeliveryClass::OneSided && p.src == src && p.tag == tag
}

/// The kernel interface available to a process body (application thread).
///
/// All methods are blocking in *virtual* time only; the underlying OS thread
/// parks while other processes are scheduled.
#[derive(Clone, Copy)]
pub struct AppCtx<'a> {
    shared: &'a Shared,
    me: ProcId,
    nprocs: usize,
}

impl<'a> AppCtx<'a> {
    pub(crate) fn new(shared: &'a Shared, me: ProcId, nprocs: usize) -> AppCtx<'a> {
        AppCtx { shared, me, nprocs }
    }

    /// This process's id.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Number of processes in the simulation.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time on this process's clock, including a span it
    /// owes ([`AppCtx::defer_compute`]).
    pub fn now(&self) -> SimTime {
        let s = self.shared.sched.lock();
        let pi = &s.procs[self.me];
        pi.clock + pi.owed
    }

    /// Spend `d` of virtual CPU time. Service packets arriving during the
    /// span are handled at their arrival times (interrupt semantics).
    pub fn compute(&self, d: SimDuration) {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        self.spend(&mut s, d);
    }

    /// Owe `d` of virtual CPU time instead of spending it now: the span
    /// ends, with the same service-handler interrupts as
    /// [`AppCtx::compute`], when this process next blocks. Until then
    /// [`AppCtx::now`] reads the span's end, and [`AppCtx::send`],
    /// [`AppCtx::trace`] and [`AppCtx::purge_tags`] are queued, in order,
    /// and performed at the span's end. A tag wait ([`AppCtx::recv_tag`],
    /// [`AppCtx::recv_tags`]) started while owing blocks once: the kernel
    /// ends the span, performs the queued calls and starts the wait, so
    /// the process wakes only when the wait is over. Every other call
    /// spends the span first, as does the end of the process body. The
    /// results are those of `compute(d)` in place of this call.
    ///
    /// The caller must not read, while owing, state that a service handler
    /// of this process writes: under `compute(d)` a handler landing inside
    /// the span would have run first. A layer can make that a type fact by
    /// keeping what only its process touches apart and reaching the rest
    /// through one accessor that spends the span first, as `vopp-dsm` does
    /// for its idle waits and its fault, view-acquire and view-release
    /// spans.
    pub fn defer_compute(&self, d: SimDuration) {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        s.procs[self.me].owed = d;
    }

    /// Spend a span this process owes, if any ([`AppCtx::defer_compute`]).
    pub(crate) fn settle(&self, s: &mut MutexGuard<'a, Sched>) {
        let owed = std::mem::take(&mut s.procs[self.me].owed);
        self.spend(s, owed);
    }

    /// Block in a compute span of `d`; its end wakes this process, after
    /// performing what it queued while owing the span
    /// (`Shared::end_span`).
    fn spend(&self, s: &mut MutexGuard<'a, Sched>, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let at = s.procs[self.me].clock + d;
        s.push_event(at, Event::Resume(self.me as u32));
        s.procs[self.me].phase = Phase::BlockedResume;
        self.shared.yield_and_wait(self.me, s);
    }

    /// Send a datagram. Non-blocking; delivery time and loss are decided by
    /// the network model. `wire_bytes` must include protocol headers. The
    /// payload is shared: sending the same `Arc` to many destinations (a
    /// broadcast, a retransmission) costs one allocation total. Queued
    /// while this process owes a span ([`AppCtx::defer_compute`]).
    pub fn send(
        &self,
        dst: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) {
        let mut s = self.shared.sched.lock();
        let mut pkt = Packet::new(self.me, wire_bytes, class, tag, payload);
        let pi = &mut s.procs[self.me];
        if pi.owes() {
            pi.outbox.push(Queued::Send { dst, pkt });
            return;
        }
        let now = pi.clock;
        if let Some(p) = &s.profiler {
            pkt.cause = p.cur_ctx();
        }
        s.submit_send(now, dst, pkt);
    }

    /// Receive the next mailbox packet, blocking until one arrives.
    /// One-sided writes ([`DeliveryClass::OneSided`]) are invisible to every
    /// receive — they landed without CPU involvement and are only observed
    /// by an explicit [`AppCtx::poll_one_sided`].
    pub fn recv(&self) -> Packet {
        self.recv_any(None)
            .expect("a receive without a timeout ends with a packet")
    }

    /// Receive any packet with a timeout. Returns `None` if the deadline
    /// passes first. A packet that arrives in time cancels the timeout, so
    /// it never lingers in the event queue.
    pub fn recv_timeout(&self, d: SimDuration) -> Option<Packet> {
        self.recv_any(Some(d))
    }

    /// Take the first receivable packet, blocking until one arrives or the
    /// timeout, if any, passes. Every delivery wakes this process.
    fn recv_any(&self, timeout: Option<SimDuration>) -> Option<Packet> {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        let deadline = timeout.map(|d| s.procs[self.me].clock + d);
        loop {
            let mb = &mut s.procs[self.me].mailbox;
            if let Some(pkt) = take(mb, |p| p.class != DeliveryClass::OneSided) {
                s.cancel_timer(self.me);
                return Some(pkt);
            }
            if let (Some(at), None) = (deadline, s.procs[self.me].timer) {
                s.arm_timer(self.me, at);
            }
            if self.block(&mut s) {
                return None;
            }
        }
    }

    /// Receive the first packet with `tag` (below `u64::MAX`), blocking
    /// until it arrives or, with `Some(timeout)`, until the timeout passes
    /// (`None`). Other packets stay queued in arrival order, and their
    /// arrival does not wake this process: the kernel checks the tag itself.
    /// Started while owing a span, the wait begins at the span's end.
    pub fn recv_tag(&self, tag: u64, timeout: Option<SimDuration>) -> Option<Packet> {
        let end = tag.checked_add(1).expect("tags end below u64::MAX");
        let mut got = None;
        self.recv_tags(tag..end, timeout, |p| got = Some(p)).ok()?;
        got
    }

    /// Receive one packet for each of the contiguous `tags`, handing them
    /// to `collect` in tag order. Each tag is waited for up to `timeout`
    /// from the moment the tags before it are in (as a loop of
    /// [`recv_tag`] calls would); the kernel collects the tags as they land
    /// and wakes this process once, when the last one is in or a timeout
    /// passes. `Err(tag)` means `tag`'s timeout passed: the tags before it
    /// were collected, none after. `collect` runs under the scheduler lock
    /// and must not call back into this context.
    ///
    /// [`recv_tag`]: AppCtx::recv_tag
    pub fn recv_tags(
        &self,
        tags: Range<u64>,
        timeout: Option<SimDuration>,
        mut collect: impl FnMut(Packet),
    ) -> Result<(), u64> {
        let me = self.me;
        let mut s = self.shared.sched.lock();
        s.procs[me].tag_wait = Some(TagWait {
            next: tags.start,
            end: tags.end,
            timeout,
        });
        let owed = std::mem::take(&mut s.procs[me].owed);
        if owed > SimDuration::ZERO {
            // The span's end starts the wait (`Shared::end_span`).
            s.procs[me].timed_out = false;
            self.spend(&mut s, owed);
        } else if !s.advance_tags(me) {
            self.block(&mut s);
        }
        let pi = &mut s.procs[me];
        let w = pi.tag_wait.take().expect("the tag wait ends here");
        for tag in tags.start..w.next {
            let want = |p: &Packet| p.class != DeliveryClass::OneSided && p.tag == tag;
            collect(take(&mut pi.mailbox, want).expect("a tag counted in is queued"));
        }
        if w.next == w.end {
            Ok(())
        } else {
            debug_assert!(pi.timed_out, "a tag wait woke with tag {} missing", w.next);
            Err(w.next)
        }
    }

    /// Block in a receive until the kernel wakes this process; returns
    /// whether the wake was this receive's timeout.
    fn block(&self, s: &mut MutexGuard<'a, Sched>) -> bool {
        s.procs[self.me].timed_out = false;
        s.procs[self.me].phase = Phase::WaitRecv;
        self.shared.yield_and_wait(self.me, s);
        s.procs[self.me].timed_out
    }

    /// Number of packets currently queued in this process's mailbox.
    pub fn mailbox_len(&self) -> usize {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        s.procs[self.me].mailbox.len()
    }

    /// Take the earliest one-sided write from `src` with tag `tag` out of
    /// this process's preposted buffer, if one has landed. Non-blocking: a
    /// one-sided write involves no remote CPU, so there is no wake to wait
    /// for — callers know data is present from protocol ordering (a
    /// same-link control message sent after the write arrives after it).
    pub fn poll_one_sided(&self, src: ProcId, tag: u64) -> Option<Packet> {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        take(&mut s.procs[self.me].mailbox, |p| one_sided(p, src, tag))
    }

    /// Drop every queued receivable packet (not a one-sided write) whose
    /// tag is in `tags`: the stale duplicate replies a retransmitted
    /// request was answered with. Queued while this process owes a span
    /// ([`AppCtx::defer_compute`]).
    pub fn purge_tags(&self, tags: Range<u64>) {
        let mut s = self.shared.sched.lock();
        let pi = &mut s.procs[self.me];
        if pi.owes() {
            pi.outbox.push(Queued::Purge(tags));
        } else {
            pi.purge_tags(tags);
        }
    }

    /// Drop every one-sided write from `src` with `tag` that has landed in
    /// this process's preposted buffer.
    pub fn purge_one_sided(&self, src: ProcId, tag: u64) {
        let mut s = self.shared.sched.lock();
        self.settle(&mut s);
        let mb = &mut s.procs[self.me].mailbox;
        mb.retain(|p| !one_sided(p, src, tag));
        shrink_if_drained(mb);
    }

    /// The causal profiler installed on this run, if any. Upper layers
    /// (the DSM runtime) use it to annotate the timeline with protocol
    /// operations; `None` means critical-path recording is off.
    pub fn causal_profiler(&self) -> Option<std::sync::Arc<vopp_trace::CausalProfiler>> {
        self.shared.sched.lock().profiler.clone()
    }

    /// Whether a tracer is installed. Layers that need to compute anything
    /// to build an event should gate on this first.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shared.tracer.is_some()
    }

    /// Record a trace event at this process's current virtual time.
    /// A no-op (one pointer test) when no tracer is installed. Queued
    /// while this process owes a span ([`AppCtx::defer_compute`]).
    pub fn trace(&self, kind: vopp_trace::EventKind) {
        if let Some(tr) = &self.shared.tracer {
            let mut s = self.shared.sched.lock();
            let pi = &mut s.procs[self.me];
            if pi.owes() {
                pi.outbox.push(Queued::Trace(kind));
            } else {
                tr.record(pi.clock.0, self.me, kind);
            }
        }
    }
}

/// The kernel interface available to a service handler.
///
/// Handlers run logically instantaneously at the packet arrival time; any
/// processing cost should be modelled in the network configuration's
/// service overhead.
pub struct SvcCtx<'a> {
    shared: &'a Shared,
    me: ProcId,
    now: SimTime,
}

impl<'a> SvcCtx<'a> {
    pub(crate) fn new(shared: &'a Shared, me: ProcId, now: SimTime) -> SvcCtx<'a> {
        SvcCtx { shared, me, now }
    }

    /// The process this handler serves.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Number of processes in the simulation.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.shared.nprocs
    }

    /// Arrival time of the packet being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send a datagram from this process at the current handler time.
    pub fn send(
        &mut self,
        dst: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) {
        let mut s = self.shared.sched.lock();
        let mut pkt = Packet::new(self.me, wire_bytes, class, tag, payload);
        if let Some(p) = &s.profiler {
            pkt.cause = p.cur_ctx();
        }
        s.submit_send(self.now, dst, pkt);
    }

    /// Take the earliest one-sided write from `src` with tag `tag` out of
    /// this process's preposted buffer, if one has landed. The handler-side
    /// twin of [`AppCtx::poll_one_sided`]: a service handler for a control
    /// message sent *after* a same-link one-sided write finds the write
    /// already present (FIFO link ordering).
    pub fn take_one_sided(&mut self, src: ProcId, tag: u64) -> Option<Packet> {
        let mut s = self.shared.sched.lock();
        take(&mut s.procs[self.me].mailbox, |p| one_sided(p, src, tag))
    }

    /// Record a trace event at the handled packet's arrival time.
    /// A no-op (one pointer test) when no tracer is installed.
    pub fn trace(&self, kind: vopp_trace::EventKind) {
        if let Some(tr) = &self.shared.tracer {
            tr.record(self.now.0, self.me, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::kernel::run_simple;

    impl AppCtx<'_> {
        /// Events queued in the kernel, timers included.
        fn queue_len(&self) -> usize {
            self.shared.sched.lock().queue_len()
        }
    }

    /// Receives answered before their deadline leave no timer behind: the
    /// queue tracks live events, not the number of round trips so far.
    #[test]
    fn answered_receives_leave_no_timers_queued() {
        const NPROCS: usize = 3;
        const ROUNDS: usize = 10_000;
        let out = run_simple(NPROCS, SimDuration::from_micros(1), |ctx| {
            let mut peak = 0;
            if ctx.me() == 0 {
                for _ in 0..(NPROCS - 1) * ROUNDS {
                    let req = ctx.recv();
                    ctx.send(req.src, 64, DeliveryClass::App, req.tag, Arc::new(()));
                    peak = peak.max(ctx.queue_len());
                }
            } else {
                for i in 0..ROUNDS as u64 {
                    ctx.send(0, 64, DeliveryClass::App, i, Arc::new(()));
                    let reply = ctx.recv_timeout(SimDuration::from_secs(1));
                    assert_eq!(reply.expect("answered before the deadline").tag, i);
                    peak = peak.max(ctx.queue_len());
                }
            }
            peak
        });
        let peak = out.results.into_iter().max().unwrap();
        assert!(
            peak <= 4 * NPROCS,
            "queue peaked at {peak} events for {NPROCS} processes"
        );
    }
}
