//! Process-side and handler-side views of the kernel.

use std::collections::VecDeque;

use crate::kernel::{Event, Phase, Shared};
use crate::packet::{DeliveryClass, Packet, Payload};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Mailbox capacity retained after a drain. A barrier fan-in can spike a
/// manager's mailbox to `nprocs` packets; once drained, capacity beyond this
/// is released so the spike doesn't pin memory for the rest of the run.
const MAILBOX_IDLE_CAP: usize = 64;

/// Release excess mailbox capacity once the queue is empty.
fn shrink_if_drained(mb: &mut VecDeque<Packet>) {
    if mb.is_empty() && mb.capacity() > MAILBOX_IDLE_CAP {
        mb.shrink_to(MAILBOX_IDLE_CAP);
    }
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

    /// Current virtual time on this process's clock.
    pub fn now(&self) -> SimTime {
        self.shared.sched.lock().procs[self.me].clock
    }

    /// Spend `d` of virtual CPU time. Service packets arriving during the
    /// span are handled at their arrival times (interrupt semantics).
    pub fn compute(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let mut s = self.shared.sched.lock();
        let at = s.procs[self.me].clock + d;
        s.push_event(at, Event::Resume(self.me as u32));
        s.procs[self.me].phase = Phase::BlockedResume;
        self.shared.yield_and_wait(self.me, &mut s);
    }

    /// Alias of [`AppCtx::compute`] for idle waits.
    pub fn sleep(&self, d: SimDuration) {
        self.compute(d);
    }

    /// Send a datagram. Non-blocking; delivery time and loss are decided by
    /// the network model. `wire_bytes` must include protocol headers. The
    /// payload is shared: sending the same `Arc` to many destinations (a
    /// broadcast, a retransmission) costs one allocation total.
    pub fn send(
        &self,
        dst: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) {
        let mut s = self.shared.sched.lock();
        let now = s.procs[self.me].clock;
        let mut pkt = Packet::new(self.me, wire_bytes, class, tag, payload);
        if let Some(p) = &s.profiler {
            pkt.cause = p.cur_ctx();
        }
        s.submit_send(now, dst, pkt);
    }

    /// Receive the next mailbox packet, blocking until one arrives.
    pub fn recv(&self) -> Packet {
        self.recv_filter(|_| true)
    }

    /// Receive the first mailbox packet satisfying `want`, blocking until one
    /// arrives. Non-matching packets stay queued in arrival order. One-sided
    /// writes ([`DeliveryClass::OneSided`]) are invisible here — they landed
    /// without CPU involvement and are only observed by an explicit
    /// [`AppCtx::poll_one_sided`].
    pub fn recv_filter(&self, want: impl Fn(&Packet) -> bool) -> Packet {
        let mut s = self.shared.sched.lock();
        loop {
            if let Some(pos) = s.procs[self.me]
                .mailbox
                .iter()
                .position(|p| p.class != DeliveryClass::OneSided && want(p))
            {
                let pkt = s.procs[self.me].mailbox.remove(pos).unwrap();
                shrink_if_drained(&mut s.procs[self.me].mailbox);
                return pkt;
            }
            s.procs[self.me].phase = Phase::WaitRecv;
            self.shared.yield_and_wait(self.me, &mut s);
        }
    }

    /// Like [`AppCtx::recv_filter`] with a timeout. Returns `None` if the
    /// deadline passes first. A packet that arrives in time cancels the
    /// timeout, so it never lingers in the event queue.
    pub fn recv_filter_timeout(
        &self,
        d: SimDuration,
        want: impl Fn(&Packet) -> bool,
    ) -> Option<Packet> {
        let mut s = self.shared.sched.lock();
        let deadline = s.procs[self.me].clock + d;
        loop {
            if let Some(pos) = s.procs[self.me]
                .mailbox
                .iter()
                .position(|p| p.class != DeliveryClass::OneSided && want(p))
            {
                let pkt = s.procs[self.me].mailbox.remove(pos).unwrap();
                shrink_if_drained(&mut s.procs[self.me].mailbox);
                s.cancel_timer(self.me);
                return Some(pkt);
            }
            if s.procs[self.me].timer.is_none() {
                s.arm_timer(self.me, deadline);
            }
            s.procs[self.me].timed_out = false;
            s.procs[self.me].phase = Phase::WaitRecv;
            self.shared.yield_and_wait(self.me, &mut s);
            if s.procs[self.me].timed_out {
                return None;
            }
        }
    }

    /// Receive any packet with a timeout.
    pub fn recv_timeout(&self, d: SimDuration) -> Option<Packet> {
        self.recv_filter_timeout(d, |_| true)
    }

    /// Number of packets currently queued in this process's mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.shared.sched.lock().procs[self.me].mailbox.len()
    }

    /// Take the earliest one-sided write from `src` with tag `tag` out of
    /// this process's preposted buffer, if one has landed. Non-blocking: a
    /// one-sided write involves no remote CPU, so there is no wake to wait
    /// for — callers know data is present from protocol ordering (a
    /// same-link control message sent after the write arrives after it).
    pub fn poll_one_sided(&self, src: ProcId, tag: u64) -> Option<Packet> {
        let mut s = self.shared.sched.lock();
        let pos = s.procs[self.me]
            .mailbox
            .iter()
            .position(|p| p.class == DeliveryClass::OneSided && p.src == src && p.tag == tag)?;
        let pkt = s.procs[self.me].mailbox.remove(pos).unwrap();
        shrink_if_drained(&mut s.procs[self.me].mailbox);
        Some(pkt)
    }

    /// Remove every queued packet matching `unwanted`, returning how many
    /// were discarded. Used to drop stale duplicate replies after a
    /// retransmitted request was answered twice.
    pub fn purge_filter(&self, unwanted: impl Fn(&Packet) -> bool) -> usize {
        let mut s = self.shared.sched.lock();
        let mb = &mut s.procs[self.me].mailbox;
        let before = mb.len();
        mb.retain(|p| !unwanted(p));
        let purged = before - mb.len();
        shrink_if_drained(mb);
        purged
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
    /// A no-op (one pointer test) when no tracer is installed.
    pub fn trace(&self, kind: vopp_trace::EventKind) {
        if let Some(tr) = &self.shared.tracer {
            let now = self.shared.sched.lock().procs[self.me].clock;
            tr.record(now.0, self.me, kind);
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
        let pos = s.procs[self.me]
            .mailbox
            .iter()
            .position(|p| p.class == DeliveryClass::OneSided && p.src == src && p.tag == tag)?;
        s.procs[self.me].mailbox.remove(pos)
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
