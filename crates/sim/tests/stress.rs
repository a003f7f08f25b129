//! Stress tests of the kernel: many processes, heavy traffic, handler
//! pressure, and a randomized-program determinism check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vopp_sim::{run_simple, DeliveryClass, PerfectNet, Sim, SimDuration};

#[test]
fn heavy_all_to_all_traffic() {
    let n = 16;
    let rounds = 50;
    let out = run_simple(n, SimDuration::from_micros(20), move |ctx| {
        let me = ctx.me();
        let mut received = 0u64;
        for r in 0..rounds {
            for d in 0..n {
                if d != me {
                    ctx.send(d, 64, DeliveryClass::App, r, Arc::new((me, r)));
                }
            }
            for _ in 0..n - 1 {
                let (src, round) = ctx.recv_tag(r, None).unwrap().expect::<(usize, u64)>();
                assert_ne!(src, me);
                assert_eq!(round, r);
                received += 1;
            }
            ctx.compute(SimDuration::from_micros(me as u64 + 1));
        }
        received
    });
    assert!(out.results.iter().all(|&r| r == (rounds * (n as u64 - 1))));
    assert_eq!(out.net.stats().msgs, rounds * (n as u64) * (n as u64 - 1));
}

#[test]
fn handlers_under_pressure() {
    // A counting service on every node; all other nodes hammer it.
    let n = 8;
    let counters: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut sim = Sim::new(n, Box::new(PerfectNet::new(SimDuration::from_micros(5))));
    for (p, ctr) in counters.iter().enumerate() {
        let ctr = ctr.clone();
        sim.set_handler(
            p,
            Box::new(move |svc, pkt| {
                let v = ctr.fetch_add(1, Ordering::SeqCst);
                let src = pkt.src;
                let tag = pkt.tag;
                svc.send(src, 16, DeliveryClass::App, tag, Arc::new(v));
            }),
        );
    }
    let out = sim.run(|ctx| {
        let me = ctx.me();
        let mut acks = 0;
        for i in 0..100u64 {
            let dst = (me + 1 + (i as usize % (ctx.nprocs() - 1))) % ctx.nprocs();
            ctx.send(dst, 32, DeliveryClass::Svc, i, Arc::new(()));
            ctx.recv_tag(i, None);
            acks += 1;
        }
        acks
    });
    assert!(out.results.iter().all(|&r| r == 100));
    let total: u64 = counters.iter().map(|c| c.load(Ordering::SeqCst)).sum();
    assert_eq!(total, 8 * 100);
}

#[test]
fn deterministic_pseudo_random_program() {
    // A program whose send pattern depends on its own received data:
    // two runs must still be identical.
    let run = || {
        run_simple(6, SimDuration::from_micros(15), |ctx| {
            let me = ctx.me();
            let mut state = me as u64 + 1;
            let mut log = Vec::new();
            for round in 0..30u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(round);
                let dst = (state % 6) as usize;
                if dst != me {
                    ctx.send(
                        dst,
                        (state % 512) as usize + 16,
                        DeliveryClass::App,
                        round,
                        Arc::new(state),
                    );
                }
                // Opportunistically drain anything that has arrived.
                while let Some(pkt) = ctx.recv_timeout(SimDuration::from_micros(1)) {
                    log.push((pkt.src, pkt.expect::<u64>()));
                }
                ctx.compute(SimDuration::from_micros(state % 40 + 1));
            }
            // Drain stragglers.
            while let Some(pkt) = ctx.recv_timeout(SimDuration::from_millis(1)) {
                log.push((pkt.src, pkt.expect::<u64>()));
            }
            (log, ctx.now())
        })
    };
    let a = run();
    let b = run();
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x, y);
    }
    assert_eq!(a.end_time, b.end_time);
}

#[test]
fn mailbox_purge_under_load() {
    let out = run_simple(2, SimDuration::from_micros(10), |ctx| {
        if ctx.me() == 0 {
            for i in 0..200u64 {
                ctx.send(1, 8, DeliveryClass::App, i, Arc::new(i));
            }
            0
        } else {
            // Wait until everything arrived, then purge the odd tags.
            ctx.compute(SimDuration::from_millis(10));
            for odd in (1..200).step_by(2) {
                ctx.purge_tags(odd..odd + 1);
            }
            assert_eq!(ctx.mailbox_len(), 100);
            let mut sum = 0;
            while let Some(pkt) = ctx.recv_timeout(SimDuration::from_micros(1)) {
                sum += pkt.expect::<u64>() % 2;
            }
            assert_eq!(ctx.mailbox_len(), 0);
            sum // all even tags: sum of remainders is 0
        }
    });
    assert_eq!(out.results[1], 0);
}

#[test]
fn thirty_two_procs_compute_heavy() {
    // 32 nodes, lots of compute events: exercises scheduler churn.
    let out = run_simple(32, SimDuration::from_micros(10), |ctx| {
        for i in 0..200 {
            ctx.compute(SimDuration::from_micros((ctx.me() as u64 + i) % 17 + 1));
        }
        ctx.now().nanos()
    });
    assert!(out.results.iter().all(|&t| t > 0));
}
