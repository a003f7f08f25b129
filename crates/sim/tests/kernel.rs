//! End-to-end tests of the simulation kernel: scheduling order, virtual
//! time accounting, message delivery, timeouts, handlers, determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vopp_sim::{
    run_simple, AppCtx, CausalProfiler, DeliveryClass, Dropped, EventKind, HandoffStats, NetModel,
    NetStats, PerfectNet, ProcTimes, RouteRequest, Sim, SimDuration, SimTime, Tracer,
};

const LAT: SimDuration = SimDuration(50_000); // 50us

#[test]
fn compute_advances_virtual_clock() {
    let out = run_simple(1, LAT, |ctx| {
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.compute(SimDuration::from_micros(100));
        assert_eq!(ctx.now(), SimTime(100_000));
        ctx.compute(SimDuration::from_micros(1));
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime(101_000));
    assert_eq!(out.end_time, SimTime(101_000));
}

#[test]
fn zero_compute_is_noop() {
    let out = run_simple(1, LAT, |ctx| {
        ctx.compute(SimDuration::ZERO);
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime::ZERO);
}

#[test]
fn message_roundtrip_with_latency() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 64, DeliveryClass::App, 1, Arc::new(7u64));
            let pkt = ctx.recv();
            assert_eq!(pkt.src, 1);
            pkt.expect::<u64>()
        } else {
            let pkt = ctx.recv();
            // One-way latency.
            assert_eq!(pkt.arrived, SimTime(50_000));
            let v = pkt.expect::<u64>();
            ctx.send(0, 64, DeliveryClass::App, 2, Arc::new(v * 2));
            v
        }
    });
    assert_eq!(out.results, vec![14, 7]);
    // Round trip = 2x latency.
    assert_eq!(out.proc_end[0], SimTime(100_000));
}

#[test]
fn recv_while_sender_computes() {
    // Receiver blocks first; sender computes, then sends.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_millis(3));
            ctx.send(1, 10, DeliveryClass::App, 0, Arc::new(()));
            ctx.now()
        } else {
            let pkt = ctx.recv();
            assert_eq!(pkt.arrived, SimTime(3_050_000));
            ctx.now()
        }
    });
    assert_eq!(out.results[1], SimTime(3_050_000));
}

#[test]
fn messages_delivered_in_order_per_link() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            for i in 0..10u32 {
                ctx.send(1, 16, DeliveryClass::App, i as u64, Arc::new(i));
            }
            0
        } else {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(ctx.recv().expect::<u32>());
            }
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            1
        }
    });
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn recv_tag_skips_non_matching() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 5, Arc::new(5u32));
            ctx.send(1, 8, DeliveryClass::App, 9, Arc::new(9u32));
            0
        } else {
            // Ask for tag 9 first even though tag 5 arrives first.
            let nine = ctx.recv_tag(9, None).unwrap().expect::<u32>();
            let five = ctx.recv().expect::<u32>();
            assert_eq!((nine, five), (9, 5));
            1
        }
    });
    assert_eq!(out.results, vec![0, 1]);
}

// ---- Tag waits: the kernel collects the tags, the caller wakes once ----

#[test]
fn a_reverse_order_burst_wakes_its_caller_once() {
    // Proc k in 1..=4 sends tag k - 1 after computing (5 - k) * 10 us: the
    // tags land in reverse order.
    let out = run_simple(5, LAT, |ctx| {
        let k = ctx.me() as u64;
        if k > 0 {
            ctx.compute(SimDuration::from_micros((5 - k) * 10));
            ctx.send(0, 8, DeliveryClass::App, k - 1, Arc::new(k - 1));
            return (vec![], ctx.now());
        }
        let mut got = Vec::new();
        assert_eq!(ctx.recv_tags(0..4, None, |p| got.push(p)), Ok(()));
        let tags: Vec<u64> = got.iter().map(|p| p.tag).collect();
        (tags, ctx.now())
    });
    let (tags, woke_at) = out.results[0].clone();
    assert_eq!(tags, [0, 1, 2, 3]);
    // The last arrival is tag 0, sent at 40 us.
    assert_eq!(woke_at, SimTime(40_000 + LAT.0));
    let h = out.handoff;
    // Five start-up wakes and four compute resumes; of the four deliveries
    // only the one that completes the burst wakes proc 0.
    assert_eq!((h.total(), h.absorbed), (10, 3));
    let pt = out.proc_times[0];
    assert_eq!((pt.compute_ns, pt.blocked_ns), (0, woke_at.0));
}

#[test]
fn an_unwanted_tag_wakes_nobody_and_stays_queued() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 1 {
            ctx.send(0, 8, DeliveryClass::App, 99, Arc::new(99u32));
            ctx.compute(SimDuration::from_millis(1));
            ctx.send(0, 8, DeliveryClass::App, 7, Arc::new(7u32));
            return (0, 0, ctx.now());
        }
        let seven = ctx.recv_tag(7, None).unwrap();
        let woke_at = ctx.now();
        let other = ctx.recv().expect::<u32>();
        (seven.expect::<u32>(), other, woke_at)
    });
    assert_eq!(out.results[0], (7, 99, SimTime(1_000_000 + LAT.0)));
    // Two start-up wakes, proc 1's resume, and the wake for tag 7; tag 99's
    // delivery is finished by the kernel.
    assert_eq!((out.handoff.total(), out.handoff.absorbed), (4, 1));
}

/// Delivers every packet after 50 us, replies `(5 - src) * 10` us later
/// still, and drops the first packet from proc 2 to proc 0.
struct DropSecondReply {
    sent: u64,
    dropped: bool,
}

impl NetModel for DropSecondReply {
    fn route(&mut self, req: RouteRequest) -> Result<SimTime, Dropped> {
        self.sent += 1;
        if (req.src, req.dst, self.dropped) == (2, 0, false) {
            self.dropped = true;
            return Err(Dropped { overflow: false });
        }
        let skew = if req.src == 0 {
            0
        } else {
            (5 - req.src as u64) * 10_000
        };
        Ok(req.now + LAT + SimDuration::from_nanos(skew))
    }

    fn stats(&self) -> NetStats {
        NetStats {
            msgs: self.sent,
            ..NetStats::default()
        }
    }
}

#[test]
fn a_burst_with_a_dropped_reply_retransmits_when_the_per_tag_loop_did() {
    let mut sim = Sim::new(
        5,
        Box::new(DropSecondReply {
            sent: 0,
            dropped: false,
        }),
    );
    for p in 1..5 {
        sim.set_handler(
            p,
            Box::new(|svc, pkt| svc.send(pkt.src, 64, DeliveryClass::App, pkt.tag, Arc::new(()))),
        );
    }
    let tracer = Arc::new(Tracer::new(1 << 10));
    sim.set_tracer(tracer.clone());
    let out = sim.run(|ctx| {
        if ctx.me() != 0 {
            return (vec![], vec![], ctx.now());
        }
        let request =
            |tag: u64| ctx.send(tag as usize + 1, 64, DeliveryClass::Svc, tag, Arc::new(()));
        (0..4).for_each(request);
        let (mut got, mut rexmits, mut next) = (Vec::new(), Vec::new(), 0);
        while let Err(tag) =
            ctx.recv_tags(next..4, Some(SimDuration::from_millis(1)), |p| got.push(p))
        {
            rexmits.push((tag, ctx.now().nanos()));
            request(tag);
            next = tag;
        }
        let got: Vec<(u64, u64)> = got.iter().map(|p| (p.tag, p.arrived.nanos())).collect();
        (got, rexmits, ctx.now())
    });
    // Recorded with a loop of one timed receive per tag: tag 1's timer is
    // armed when tag 0 lands at 140 us and fires 1 ms later.
    let (got, rexmits, end) = &out.results[0];
    assert_eq!(
        got,
        &[(0, 140_000), (1, 1_270_000), (2, 120_000), (3, 110_000)]
    );
    assert_eq!(rexmits, &[(1, 1_140_000)]);
    assert_eq!(*end, SimTime(1_270_000));
    assert_eq!(out.net.stats().msgs, 10);
    // Ten wake-ups in that loop; three are now finished by the kernel.
    assert_eq!((out.handoff.total(), out.handoff.absorbed), (7, 3));
    // The kernel records the model's drop verdict right after the send.
    let events = tracer.take().events;
    let drop = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::NetDrop { .. }))
        .expect("the drop is traced");
    let (send, drop) = (&events[drop - 1], &events[drop]);
    assert_eq!((send.t, send.node), (drop.t, drop.node));
    assert_eq!(
        (&send.kind, &drop.kind),
        (
            &EventKind::NetSend {
                dst: 0,
                wire_bytes: 64,
                tag: 1,
                svc: false
            },
            &EventKind::NetDrop {
                dst: 0,
                wire_bytes: 64,
                overflow: false
            }
        )
    );
}

#[test]
fn recv_timeout_expires() {
    let out = run_simple(1, LAT, |ctx| {
        let r = ctx.recv_timeout(SimDuration::from_millis(2));
        assert!(r.is_none());
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime(2_000_000));
}

#[test]
fn recv_timeout_beaten_by_message() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(1u8));
            true
        } else {
            let r = ctx.recv_timeout(SimDuration::from_secs(100));
            assert_eq!(ctx.now(), SimTime(50_000));
            r.is_some()
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn stale_timer_does_not_fire_later_wait() {
    // First wait is satisfied by a message well before its long timeout;
    // the stale timer must not break a later recv.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(1u8));
            ctx.compute(SimDuration::from_secs(2));
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(2u8));
            0u8
        } else {
            let a = ctx
                .recv_timeout(SimDuration::from_secs(1))
                .expect("first message")
                .expect::<u8>();
            let b = ctx.recv().expect::<u8>();
            a + b
        }
    });
    assert_eq!(out.results[1], 3);
}

#[test]
fn self_send_works() {
    let out = run_simple(1, LAT, |ctx| {
        ctx.send(0, 8, DeliveryClass::App, 0, Arc::new(99u32));
        ctx.recv().expect::<u32>()
    });
    assert_eq!(out.results[0], 99);
}

#[test]
fn svc_handler_runs_during_compute() {
    // Proc 1 computes for 10ms. Proc 0 sends a Svc request at ~0; the handler
    // must run at arrival (50us), not when proc 1 finishes computing.
    let handled_at = Arc::new(AtomicU64::new(0));
    let ha = handled_at.clone();
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(
        1,
        Box::new(move |svc, pkt| {
            ha.store(svc.now().nanos(), Ordering::SeqCst);
            let v = pkt.expect::<u32>();
            svc.send(pkt_src(), 8, DeliveryClass::App, 0, Arc::new(v + 1));
            fn pkt_src() -> usize {
                0
            }
        }),
    );
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::Svc, 0, Arc::new(41u32));
            ctx.recv().expect::<u32>()
        } else {
            ctx.compute(SimDuration::from_millis(10));
            0
        }
    });
    assert_eq!(out.results[0], 42);
    assert_eq!(handled_at.load(Ordering::SeqCst), 50_000);
    // Proc 0 got the reply at 100us, long before proc 1 finished at 10ms.
    assert_eq!(out.proc_end[0], SimTime(100_000));
    assert_eq!(out.proc_end[1], SimTime(10_000_000));
}

#[test]
fn handler_state_shared_with_app_thread() {
    // A counter service: Svc requests increment shared state; the app thread
    // on the same node reads it after a sync message.
    let state = Arc::new(Mutex::new(0u32));
    let st = state.clone();
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(
        0,
        Box::new(move |svc, pkt| {
            let mut g = st.lock().unwrap();
            *g += pkt.expect::<u32>();
            let v = *g;
            drop(g);
            svc.send(1, 8, DeliveryClass::App, 0, Arc::new(v));
        }),
    );
    let state2 = state.clone();
    let out = sim.run(move |ctx| {
        if ctx.me() == 1 {
            let mut last = 0;
            for _ in 0..5 {
                ctx.send(0, 8, DeliveryClass::Svc, 0, Arc::new(10u32));
                last = ctx.recv().expect::<u32>();
            }
            last
        } else {
            // Node 0's app thread just idles past the handler activity.
            ctx.compute(SimDuration::from_secs(1));
            *state2.lock().unwrap()
        }
    });
    assert_eq!(out.results, vec![50, 50]);
}

#[test]
fn deterministic_timestamps_across_runs() {
    let run = || {
        run_simple(4, LAT, |ctx| {
            let me = ctx.me();
            let n = ctx.nprocs();
            // All-to-all chatter with staggered compute.
            ctx.compute(SimDuration::from_micros(me as u64 * 13 + 1));
            for d in 0..n {
                if d != me {
                    ctx.send(d, 100 + me, DeliveryClass::App, me as u64, Arc::new(me));
                }
            }
            let mut sum = 0usize;
            for _ in 0..n - 1 {
                sum += ctx.recv().expect::<usize>();
            }
            (sum, ctx.now())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.proc_end, b.proc_end);
}

#[test]
fn net_stats_exposed_after_run() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 1000, DeliveryClass::App, 0, Arc::new(()));
        } else {
            ctx.recv();
        }
    });
    let net = out.net.stats();
    assert_eq!((net.msgs, net.bytes), (1, 1000));
}

#[test]
#[should_panic(expected = "deadlocked")]
fn deadlock_detected() {
    run_simple(2, LAT, |ctx| {
        // Both procs wait forever.
        ctx.recv();
    });
}

#[test]
#[should_panic(expected = "handler boom")]
fn handler_panic_propagates_without_hanging() {
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(1, Box::new(|_, _| panic!("handler boom")));
    sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::Svc, 0, Arc::new(()));
            ctx.recv(); // would wait forever; the panic must end the run
        } else {
            ctx.recv();
        }
    });
}

#[test]
#[should_panic(expected = "boom")]
fn process_panic_propagates() {
    run_simple(2, LAT, |ctx| {
        if ctx.me() == 1 {
            panic!("boom");
        }
        ctx.recv();
    });
}

#[test]
fn many_procs_ring() {
    // Token ring across 32 procs, 3 laps.
    let n = 32usize;
    let last_hop = (3 * n) as u32;
    let out = run_simple(n, LAT, move |ctx| {
        let me = ctx.me();
        let next = (me + 1) % ctx.nprocs();
        let mut seen = 0u32;
        if me == 0 {
            // Seed hop 1 towards proc 1.
            ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(1u32));
        }
        for _ in 0..3 {
            let h = ctx.recv().expect::<u32>();
            seen = h;
            if h < last_hop {
                ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(h + 1));
            }
        }
        seen
    });
    // Proc 0's final receive is hop 3n, completing the third lap.
    assert_eq!(out.results[0], last_hop);
    // 3 laps * 32 hops * 50us each.
    assert_eq!(out.end_time, SimTime(3 * 32 * 50_000));
}

#[test]
fn proc_times_classify_every_nanosecond() {
    // Proc 0 computes then waits for a late message; proc 1 only computes
    // before sending. For both, compute + blocked must equal the final clock.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_micros(100));
            ctx.recv().expect::<u8>()
        } else {
            ctx.compute(SimDuration::from_millis(2));
            ctx.send(0, 16, DeliveryClass::App, 0, Arc::new(9u8));
            0
        }
    });
    for (p, (end, pt)) in out.proc_end.iter().zip(out.proc_times.iter()).enumerate() {
        assert_eq!(
            pt.compute_ns + pt.blocked_ns,
            end.0,
            "proc {p}: kernel time classification must cover the clock"
        );
    }
    // Proc 0: 100us compute, then blocked from 100us until arrival at 2ms+50us.
    assert_eq!(out.proc_times[0].compute_ns, 100_000);
    assert_eq!(out.proc_times[0].blocked_ns, 2_050_000 - 100_000);
    // Proc 1 never blocks.
    assert_eq!(out.proc_times[1].compute_ns, 2_000_000);
    assert_eq!(out.proc_times[1].blocked_ns, 0);
}

// ---- The baton hand-off (per-process park/unpark, wake after unlock) ----

fn sim_of(nprocs: usize) -> Sim {
    Sim::new(nprocs, Box::new(PerfectNet::new(LAT)))
}

/// Run `sim` to its panic and return the payload's message.
fn panic_message<F>(sim: Sim, body: F) -> String
where
    F: Fn(AppCtx<'_>) + Send + Sync,
{
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(body)))
        .err()
        .expect("the run must panic");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => (*e.downcast::<&'static str>().expect("string payload")).to_string(),
    }
}

#[test]
fn a_lone_process_wakes_itself_without_an_os_handoff() {
    const SLICES: u64 = 10_000;
    let out = sim_of(1).run(|ctx| {
        for _ in 0..SLICES {
            ctx.compute(SimDuration::from_micros(3));
        }
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime(SLICES * 3_000));
    // Every resume is popped by the process that scheduled it; only the
    // start-up wake comes from the thread that called `run`.
    let h = out.handoff;
    assert_eq!(
        (h.direct, h.self_wakes, h.via_controller),
        (SLICES, SLICES, 1)
    );
}

#[test]
fn ping_pong_hammer_loses_no_wake() {
    // Every hand-off is a real two-thread baton exchange, not a self-wake: a
    // lost or duplicated wake hangs the run or trips a clock.
    const TRIPS: u64 = 200_000;
    let out = sim_of(2).run(|ctx| {
        let peer = 1 - ctx.me();
        for i in 0..TRIPS {
            if ctx.me() == 0 {
                ctx.send(peer, 8, DeliveryClass::App, i, Arc::new(()));
                ctx.recv();
            } else {
                ctx.recv();
                ctx.send(peer, 8, DeliveryClass::App, i, Arc::new(()));
            }
        }
    });
    assert_eq!(out.proc_end[0], SimTime(2 * TRIPS * LAT.0));
    assert_eq!(out.proc_end[1], SimTime((2 * TRIPS - 1) * LAT.0));
    // Two start-up wakes plus one per delivery.
    assert_eq!(out.handoff.total(), 2 + 2 * TRIPS);
    // Only proc 1's very first `recv` can pop its own delivery.
    assert!(out.handoff.self_wakes <= 1);
}

#[test]
fn lockstep_hammer_loses_no_wake() {
    // Eight processes resume at the same instant every slice, so the baton
    // goes round the whole ring once per microsecond of virtual time.
    const SLICES: u64 = 50_000;
    let out = sim_of(8).run(|ctx| {
        for _ in 0..SLICES {
            ctx.compute(SimDuration::from_micros(1));
        }
    });
    assert!(out.proc_end.iter().all(|&t| t == SimTime(SLICES * 1_000)));
    assert_eq!(out.handoff.total(), 8 + 8 * SLICES);
}

#[test]
fn deadlock_with_64_parked_threads_unwinds_every_one() {
    // Half the processes time out and finish; the other half wait forever.
    // Returning from `run` at all proves every thread was handed its baton
    // and joined (the threads are scoped).
    let msg = panic_message(sim_of(64), |ctx| {
        if ctx.me() % 2 == 0 {
            ctx.recv();
        } else {
            assert!(ctx.recv_timeout(SimDuration::from_millis(1)).is_none());
        }
    });
    assert!(msg.contains("deadlocked"), "{msg}");
}

#[test]
fn a_panic_among_63_parked_threads_keeps_its_payload() {
    let msg = panic_message(sim_of(64), |ctx| {
        if ctx.me() == 37 {
            ctx.compute(SimDuration::from_millis(1));
            panic!("boom from 37");
        }
        ctx.recv();
    });
    assert_eq!(msg, "boom from 37");
}

// ---- The run ends at the last exit ----

#[test]
fn a_svc_packet_in_flight_at_the_last_exit_never_runs_its_handler() {
    let runs = Arc::new(AtomicU64::new(0));
    let mut sim = sim_of(2);
    let counted = runs.clone();
    sim.set_handler(
        1,
        Box::new(move |_, _| {
            counted.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let tracer = Arc::new(Tracer::new(1 << 10));
    sim.set_tracer(tracer.clone());
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            // Arrives at 50us, after both processes have exited at 0.
            ctx.send(1, 8, DeliveryClass::Svc, 7, Arc::new(()));
        }
    });
    assert_eq!(out.end_time, SimTime::ZERO);
    assert_eq!(runs.load(Ordering::Relaxed), 0, "the handler ran");
    let events = tracer.take().events;
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::NetSend { svc: true, .. })));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::NetRecv { .. })),
        "the packet was delivered after the last exit"
    );
}

#[test]
fn a_handler_panic_while_an_exiting_process_drains_ends_the_run_with_its_payload() {
    // Proc 0 lets every other process block in `recv`, then sends a service
    // request and exits: its own thread pops the delivery and runs the
    // panicking handler. Returning from `run` at all proves the seven parked
    // threads were released and joined.
    let mut sim = sim_of(8);
    sim.set_handler(1, Box::new(|_, _| panic!("handler boom on exit")));
    let msg = panic_message(sim, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_micros(1));
            ctx.send(1, 8, DeliveryClass::Svc, 0, Arc::new(()));
        } else {
            ctx.recv();
        }
    });
    assert_eq!(msg, "handler boom on exit");
}

// ---- Event order is pinned under an order-sensitive network ----

/// A deterministic model whose delivery times depend on *route call order*
/// (`sent` feeds a jitter term) and on the destination's delivery backlog:
/// a run reproduces its output only if it routes every send in the same
/// order with the same backlog counts.
struct JitterNet {
    sent: u64,
    bytes: u64,
}

impl NetModel for JitterNet {
    fn route(&mut self, req: RouteRequest) -> Result<SimTime, Dropped> {
        if req.src == req.dst {
            return Ok(req.now + SimDuration::from_micros(5));
        }
        self.sent += 1;
        self.bytes += req.wire_bytes as u64;
        let jitter = (self.sent * 1_771 + req.pending_bytes_at_dst as u64 * 13) % 7_000;
        Ok(req.now + SimDuration::from_micros(50) + SimDuration::from_nanos(jitter))
    }

    fn stats(&self) -> NetStats {
        NetStats {
            msgs: self.sent,
            bytes: self.bytes,
            ..NetStats::default()
        }
    }
}

/// Everything a scheduler must reproduce bit for bit, and the wake-ups it
/// took to do so.
struct Artifacts {
    results: Vec<u64>,
    proc_end: Vec<SimTime>,
    proc_times: String,
    trace_json: String,
    causal: String,
    net: (u64, u64),
    handoff: HandoffStats,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Artifacts {
    /// One digest per field, in declaration order.
    fn digests(&self) -> [u64; 6] {
        let proc_end: Vec<u64> = self.proc_end.iter().map(|t| t.nanos()).collect();
        [
            fnv1a(format!("{:?}", self.results).as_bytes()),
            fnv1a(format!("{proc_end:?}").as_bytes()),
            fnv1a(self.proc_times.as_bytes()),
            fnv1a(self.trace_json.as_bytes()),
            fnv1a(self.causal.as_bytes()),
            fnv1a(format!("{:?}", self.net).as_bytes()),
        ]
    }
}

/// Request/reply over service handlers with loopback self-sends, futile
/// timeouts (live + stale timers), and order-sensitive network timing, on
/// eight processes. With `deferred`, each compute span is owed
/// ([`vopp_sim::AppCtx::defer_compute`]) and ended by the tag wait after
/// its sends.
fn jitter_run(deferred: bool) -> Artifacts {
    const N: usize = 8;
    let mut sim = Sim::new(N, Box::new(JitterNet { sent: 0, bytes: 0 }));
    for p in 0..N {
        sim.set_handler(
            p,
            Box::new(|ctx, pkt| {
                let (_, i): (usize, u64) = pkt.peek::<(usize, u64)>().copied().unwrap();
                ctx.send(
                    pkt.src,
                    128,
                    DeliveryClass::App,
                    500_000 + i,
                    Arc::new(i * 2),
                );
            }),
        );
    }
    let tracer = Arc::new(Tracer::new(1 << 20));
    let profiler = Arc::new(CausalProfiler::new(N));
    sim.set_tracer(tracer.clone());
    sim.set_profiler(profiler.clone());
    let out = sim.run(|ctx| {
        let p = ctx.me();
        let mut sum = 0u64;
        for i in 0..40u64 {
            let span = SimDuration::from_nanos((p as u64 * 7_919 + i * 104_729) % 50_000);
            if deferred {
                ctx.defer_compute(span);
            } else {
                ctx.compute(span);
            }
            if i % 4 == 0 {
                ctx.send(p, 64, DeliveryClass::App, 1_000_000 + i, Arc::new(i));
            }
            let dst = (p + 1 + (i as usize % 5)) % N;
            ctx.send(
                dst,
                256 + i as usize * 3,
                DeliveryClass::Svc,
                i,
                Arc::new((p, i)),
            );
            if i % 7 == 0 {
                // Futile wait: the timer always wins, and earlier armed
                // timers go stale.
                assert!(ctx
                    .recv_tag(u64::MAX - 1, Some(SimDuration::from_micros(5)))
                    .is_none());
            }
            let reply = ctx
                .recv_tag(500_000 + i, Some(SimDuration::from_secs(1)))
                .expect("svc reply");
            assert_eq!(reply.src, dst);
            sum = sum
                .wrapping_mul(31)
                .wrapping_add(reply.arrived.nanos() ^ reply.expect::<u64>());
            if i % 4 == 0 {
                let lb = ctx.recv_tag(1_000_000 + i, None).unwrap();
                sum = sum.wrapping_mul(31).wrapping_add(lb.arrived.nanos());
            }
        }
        sum
    });
    let log = profiler.take();
    Artifacts {
        results: out.results,
        proc_end: out.proc_end,
        proc_times: format!("{:?}", out.proc_times),
        trace_json: tracer.take().to_json(),
        causal: format!("{:?}|{:?}|{:?}", log.records, log.last_wake, log.spans),
        net: (out.net.stats().msgs, out.net.stats().bytes),
        handoff: out.handoff,
    }
}

/// `Artifacts::digests` of `jitter_run`, recorded when the kernel could
/// still route every wake-up through a controller thread and both
/// schedules produced these same digests.
const JITTER_DIGESTS: [u64; 6] = [
    0x5e13_a6ff_6404_9df1,
    0x0d91_36ff_fbe4_f01f,
    0x17a5_eab6_6daa_6f8f,
    0xbf21_9dc4_6687_417a,
    0x178b_e260_9c6a_3465,
    0xde2e_fb64_76b1_8d10,
];

#[test]
fn an_order_sensitive_net_reproduces_its_recorded_digests() {
    let run = jitter_run(false);
    assert!(run.trace_json.len() > 1_000, "the run must have traced");
    assert!(run.net.0 > 0, "the run must have routed");
    assert_eq!(run.digests(), JITTER_DIGESTS);
}

// ---- Owed spans: `defer_compute` gives the results of `compute` ----

#[test]
fn owed_spans_reproduce_the_eager_digests_with_fewer_wakes() {
    let eager = jitter_run(false);
    let owed = jitter_run(true);
    assert_eq!(owed.digests(), JITTER_DIGESTS);
    assert_eq!(owed.digests(), eager.digests());
    let (e, o) = (eager.handoff, owed.handoff);
    assert_eq!(e.total() + e.absorbed, o.total() + o.absorbed);
    // Each of the 8 x 40 spans but proc 0's first, which is zero long, ends
    // in a tag wait its reply has not completed: its wake is saved.
    assert_eq!(e.total() - o.total(), 8 * 40 - 1, "{e:?} -> {o:?}");
}

/// What [`owed_span_lets_a_handler_run_first`] records: each handler call
/// as `(proc, tag, virtual time)`.
type HandlerLog = Arc<Mutex<Vec<(usize, u64, u64)>>>;

/// Proc 1 requests tag 1 of proc 0 at time zero. Proc 0 spends (or owes)
/// 100 us, then requests tag 2 of proc 1 and waits for its reply. Proc 0's
/// handler answers tag 1 with a request of its own, tag 3; proc 1's handler
/// replies to tag 2. Returns the handler log, proc 0's end and the wakes.
fn svc_inside_a_span(deferred: bool) -> (Vec<(usize, u64, u64)>, SimTime, HandoffStats) {
    let log = HandlerLog::default();
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    for p in 0..2 {
        let log = log.clone();
        sim.set_handler(
            p,
            Box::new(move |svc, pkt| {
                log.lock().unwrap().push((p, pkt.tag, svc.now().nanos()));
                match pkt.tag {
                    1 => svc.send(1, 8, DeliveryClass::Svc, 3, Arc::new(())),
                    2 => svc.send(0, 8, DeliveryClass::App, 2, Arc::new(())),
                    _ => {}
                }
            }),
        );
    }
    let out = sim.run(|ctx| {
        if ctx.me() == 1 {
            ctx.send(0, 8, DeliveryClass::Svc, 1, Arc::new(()));
            return;
        }
        let span = SimDuration::from_micros(100);
        if deferred {
            ctx.defer_compute(span);
            assert_eq!(ctx.now(), SimTime(100_000), "an owed span reads as spent");
        } else {
            ctx.compute(span);
        }
        ctx.send(1, 8, DeliveryClass::Svc, 2, Arc::new(()));
        ctx.recv_tag(2, None).expect("proc 1 replies");
    });
    let log = log.lock().unwrap().clone();
    (log, out.proc_end[0], out.handoff)
}

#[test]
fn owed_span_lets_a_handler_run_first() {
    let (log, end, owed) = svc_inside_a_span(true);
    // Proc 0's handler ran at tag 1's arrival, inside the span, and its
    // request (tag 3) left before the one queued until the span's end.
    assert_eq!(log, [(0, 1, 50_000), (1, 3, 100_000), (1, 2, 150_000)]);
    assert_eq!(end, SimTime(200_000));
    let (eager_log, eager_end, eager) = svc_inside_a_span(false);
    assert_eq!((log, end), (eager_log, eager_end));
    // The span's end sent tag 2 and started its wait without a wake.
    assert_eq!((owed.total() + 1, owed.absorbed), (eager.total(), 1));
}

/// A call made right after a span, reduced to a number.
type Op = fn(&AppCtx<'_>) -> u64;

/// Proc 1 sends proc 0 one packet at time zero (it lands at 50 us); proc 0
/// spends (or owes) 200 us and then calls `op`. Returns `op`'s result,
/// proc 0's clock after it, and the run's clocks and time classification.
fn owing_then(deferred: bool, op: Op) -> (u64, SimTime, Vec<SimTime>, Vec<ProcTimes>) {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 1 {
            ctx.send(0, 8, DeliveryClass::App, 5, Arc::new(()));
            return (0, ctx.now());
        }
        let span = SimDuration::from_micros(200);
        if deferred {
            ctx.defer_compute(span);
        } else {
            ctx.compute(span);
        }
        let got = op(&ctx);
        (got, ctx.now())
    });
    let (got, after) = out.results[0];
    (got, after, out.proc_end, out.proc_times)
}

#[test]
fn calls_that_are_not_tag_waits_spend_an_owed_span_first() {
    let ops: [(&str, Op, u64, u64); 3] = [
        ("recv", |ctx| ctx.recv().tag, 5, 200_000),
        ("mailbox_len", |ctx| ctx.mailbox_len() as u64, 1, 200_000),
        (
            "compute",
            |ctx| {
                ctx.compute(SimDuration::from_micros(10));
                0
            },
            0,
            210_000,
        ),
    ];
    for (name, op, want, clock) in ops {
        let owed = owing_then(true, op);
        assert_eq!((owed.0, owed.1), (want, SimTime(clock)), "{name}");
        assert_eq!(owed, owing_then(false, op), "{name}");
    }
}

#[test]
fn a_body_that_returns_owing_ends_at_its_span() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_micros(10));
            ctx.defer_compute(SimDuration::from_micros(40));
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(()));
            return SimTime::ZERO;
        }
        ctx.recv().arrived
    });
    assert_eq!(out.proc_end[0], SimTime(50_000));
    assert_eq!(out.proc_times[0].compute_ns, 50_000);
    // The queued send left at the span's end.
    assert_eq!(out.results[1], SimTime(50_000 + LAT.0));
}
