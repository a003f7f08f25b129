//! Reliable request/reply transport over the lossy datagram network.
//!
//! The paper's DSM implementations run over UDP with timeout-based
//! retransmission; they observe that "one message retransmission results in
//! about 1 second waiting time", and that bursty centralized traffic (LRC
//! barriers) loses more messages. This module reproduces that machinery:
//! a blocking RPC with a ~1 s timeout, idempotent re-sends, and a
//! retransmission counter that feeds the `Rexmit` row of the statistics
//! tables.
//!
//! Requirements on responders (service handlers):
//! * every request must eventually produce a reply to `(src, tag)` — replies
//!   may be deferred (lock/view/barrier grants);
//! * handlers must be idempotent: a duplicate request re-sends the current
//!   answer (or updates the stored pending-reply tag).

use std::sync::Arc;

use vopp_metrics::Histogram;
use vopp_sim::{AppCtx, DeliveryClass, Packet, Payload, ProcId, SimDuration, SvcCtx};

/// High bit marking RPC-reply tags, so replies never collide with other
/// protocol messages in the mailbox.
pub const RPC_TAG_BIT: u64 = 1 << 63;

/// Per-process reliable RPC endpoint.
///
/// Not shared between threads: each simulated process owns one.
pub struct RpcClient {
    next_tag: u64,
    /// Retransmissions performed so far (the paper's `Rexmit` statistic).
    pub rexmits: u64,
    /// Round-trip latency of every completed request, including any
    /// retransmission waits, measured from the burst send to the request's
    /// own reply.
    pub rtt: Histogram,
    /// Timeout before a retransmission.
    pub timeout: SimDuration,
    /// Retransmissions before giving up (a real system would declare the
    /// peer dead; in the simulation running out is always a protocol bug).
    pub max_retries: u32,
    /// The `call_all` burst in flight, one slot per request; empty between
    /// bursts, capacity kept.
    burst: Vec<Slot>,
}

/// A burst's request, kept for retransmission until its reply replaces it.
enum Slot {
    /// `(dst, wire_bytes, payload)`, awaiting its reply.
    Request(ProcId, usize, Payload),
    /// The reply, which released the request.
    Reply(Packet),
}

impl Slot {
    /// The request of a slot still awaiting its reply.
    fn request(&self) -> (ProcId, usize, &Payload) {
        match self {
            Slot::Request(dst, bytes, payload) => (*dst, *bytes, payload),
            Slot::Reply(_) => unreachable!("an answered request is never sent again"),
        }
    }
}

impl RpcClient {
    /// An endpoint retransmitting after `timeout`: the network's
    /// [`crate::NetConfig::rexmit_timeout`], the historical 1 s on the
    /// paper's testbed and milliseconds on modern generations. The retry
    /// budget scales inversely, so the give-up horizon stays at ~60 s of
    /// unanswered waiting: a deferred grant (view or lock held elsewhere)
    /// legitimately outlasts many millisecond-scale tries.
    pub fn with_timeout(timeout: SimDuration) -> RpcClient {
        let horizon_ns: u64 = 60 * 1_000_000_000;
        let max_retries = horizon_ns.div_ceil(timeout.nanos().max(1)).max(60) as u32;
        RpcClient {
            next_tag: 0,
            rexmits: 0,
            rtt: Histogram::default(),
            timeout,
            max_retries,
            burst: Vec::new(),
        }
    }

    /// Send each request to the service handler of its destination and
    /// block until every reply has arrived: the one request routine, so a
    /// single RPC is a burst of one (the DSM fault path fetches diffs from
    /// all writers of a page in parallel, like TreadMarks). Each call is
    /// `(dst, wire_bytes, msg)`; once all replies are in, each is handed to
    /// `each`, in call order. Each call retransmits independently on
    /// timeout; `Some(timeout)` replaces the client's
    /// [`RpcClient::timeout`] for this burst (a barrier's reply is
    /// legitimately deferred until every process arrives).
    ///
    /// The replies are one tag wait ([`AppCtx::recv_tags`]): the kernel
    /// collects them as they land and wakes the caller once per burst, or
    /// once per timeout, not once per reply.
    ///
    /// Each request moves into its payload `Arc` once, shared with every
    /// retransmission. The burst buffer is the client's own and keeps its
    /// capacity, and each reply takes its request's slot, releasing the
    /// request: a burst allocates only its messages. The replies are
    /// handed on only after the wait, so every request is released before
    /// any reply is consumed; consuming each as it landed reordered a
    /// round trip's frees and raised `serve16`'s peak heap (PERFORMANCE.md
    /// §5).
    pub fn call_all<M>(
        &mut self,
        ctx: &AppCtx<'_>,
        calls: impl IntoIterator<Item = (ProcId, usize, M)>,
        timeout: Option<SimDuration>,
        mut each: impl FnMut(Packet),
    ) where
        M: Send + Sync + 'static,
    {
        let mut burst = std::mem::take(&mut self.burst);
        burst.extend(
            calls
                .into_iter()
                .map(|(dst, bytes, msg)| Slot::Request(dst, bytes, Arc::new(msg))),
        );
        if burst.is_empty() {
            self.burst = burst;
            return;
        }
        let timeout = timeout.unwrap_or(self.timeout);
        let first = RPC_TAG_BIT | self.next_tag;
        self.next_tag += burst.len() as u64;
        let end = first + burst.len() as u64;
        // Discard stale duplicate replies from earlier bursts.
        ctx.purge_tags(RPC_TAG_BIT..first);
        let started = ctx.now();
        for (tag, slot) in (first..).zip(&burst) {
            let (dst, bytes, payload) = slot.request();
            ctx.send(dst, bytes, DeliveryClass::Svc, tag, payload.clone());
        }
        // Each timeout ends the wait at the tag that timed out; retransmit
        // that one request and wait again for it and the tags after it.
        let (mut next, mut tries) = (first, 0);
        loop {
            let land = |pkt: Packet| {
                // The trip ends at the reply's arrival stamp, not the wake
                // time: a fast reply would otherwise inherit the wait for
                // the burst's slowest one. A one-tag wait wakes at the
                // arrival, so for a single request the two agree.
                self.rtt.record((pkt.arrived - started).nanos());
                let i = (pkt.tag - first) as usize;
                burst[i] = Slot::Reply(pkt);
            };
            let Err(tag) = ctx.recv_tags(next..end, Some(timeout), land) else {
                break;
            };
            tries = if tag == next { tries + 1 } else { 1 };
            next = tag;
            let (dst, bytes, payload) = burst[(tag - first) as usize].request();
            self.rexmits += 1;
            ctx.trace(vopp_sim::EventKind::Rexmit { dst, tag });
            assert!(
                tries <= self.max_retries,
                "rpc to {dst} got no reply after {tries} retransmissions"
            );
            ctx.send(dst, bytes, DeliveryClass::Svc, tag, payload.clone());
        }
        // A retransmitted request may have produced duplicate replies that
        // are already queued; purge this burst's tags so no later receive
        // can match a stale reply.
        ctx.purge_tags(first..end);
        for slot in burst.drain(..) {
            let Slot::Reply(pkt) = slot else {
                unreachable!("a burst ends with every reply in")
            };
            each(pkt);
        }
        self.burst = burst;
    }
}

/// Reply to a request previously received by a service handler: echoes the
/// request tag so the blocked caller's filter matches.
pub fn reply(svc: &mut SvcCtx<'_>, dst: ProcId, wire_bytes: usize, tag: u64, payload: Payload) {
    debug_assert!(tag & RPC_TAG_BIT != 0, "replying to a non-rpc tag");
    svc.send(dst, wire_bytes, DeliveryClass::App, tag, payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::model::EthernetModel;
    use vopp_sim::{Sim, SimTime};

    /// One request as a burst of one: its reply.
    fn call<M: Send + Sync + 'static>(
        rpc: &mut RpcClient,
        ctx: &AppCtx<'_>,
        dst: ProcId,
        msg: M,
    ) -> Packet {
        let mut reply = None;
        rpc.call_all(ctx, [(dst, 64, msg)], None, |p| reply = Some(p));
        reply.expect("a burst of one ends with its reply")
    }

    /// Echo service: replies with the request value + 1.
    fn echo_sim(cfg: NetConfig, calls: u32) -> (Vec<u64>, u64) {
        let timeout = cfg.rexmit_timeout;
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, cfg)));
        sim.set_handler(
            1,
            Box::new(|svc, pkt| {
                let tag = pkt.tag;
                let src = pkt.src;
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
            }),
        );
        let out = sim.run(move |ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(timeout);
                let mut got = Vec::new();
                for i in 0..calls as u64 {
                    got.push(call(&mut rpc, &ctx, 1, i).expect::<u64>());
                }
                (got, rpc.rexmits)
            } else {
                (Vec::new(), 0)
            }
        });
        out.results.into_iter().next().unwrap()
    }

    #[test]
    fn rpc_over_lossless_net() {
        let (got, rexmits) = echo_sim(NetConfig::lossless(), 50);
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
        assert_eq!(rexmits, 0);
    }

    #[test]
    fn rpc_survives_heavy_loss() {
        let cfg = NetConfig {
            base_drop_prob: 0.3,
            ..NetConfig::default()
        };
        let (got, rexmits) = echo_sim(cfg, 50);
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
        // With 30% loss each way, retransmissions are certain over 50 calls.
        assert!(rexmits > 0, "expected retransmissions");
    }

    #[test]
    fn duplicate_replies_are_purged() {
        // A request whose reply is slow enough to force a retransmission
        // produces two replies; the duplicate must not confuse later calls.
        let cfg = NetConfig {
            base_drop_prob: 0.0,
            latency: SimDuration::from_millis(700), // rtt 1.4s > 1s timeout
            ..NetConfig::lossless()
        };
        let (got, rexmits) = echo_sim(cfg, 5);
        assert_eq!(got, (1..=5).collect::<Vec<_>>());
        assert!(rexmits >= 5);
    }

    #[test]
    fn rtt_histogram_records_every_call() {
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, NetConfig::lossless())));
        sim.set_handler(
            1,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v));
            }),
        );
        let out = sim.run(|ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(NetConfig::lossless().rexmit_timeout);
                for i in 0..10u64 {
                    call(&mut rpc, &ctx, 1, i);
                }
                let s = rpc.rtt.summary();
                (s.count, s.p50_ns, s.max_ns)
            } else {
                (0, 0, 0)
            }
        });
        let (count, p50, max) = out.results[0];
        assert_eq!(count, 10);
        assert!(p50 > 0 && max > 0, "round trips must take virtual time");
        assert!(max >= p50);
    }

    #[test]
    fn call_all_rtt_uses_arrival_time() {
        // Fan-out where the first tag's reply only comes after a ~1 s
        // retransmission (node 1 ignores the first request) while the
        // second tag's reply arrives within microseconds. The caller wakes
        // once, after the slow tag, so the fast reply is taken ~1 s after
        // it arrived; its recorded RTT must reflect its own arrival, not
        // the wake after the slow tag.
        let mut sim = Sim::new(3, Box::new(EthernetModel::new(3, NetConfig::lossless())));
        let mut first = true;
        sim.set_handler(
            1,
            Box::new(move |svc, pkt| {
                if first {
                    first = false; // swallow the first request
                    return;
                }
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
            }),
        );
        sim.set_handler(
            2,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
            }),
        );
        let out = sim.run(|ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(NetConfig::lossless().rexmit_timeout);
                let mut replies = 0;
                rpc.call_all(&ctx, [(1, 64, 0u64), (2, 64, 0u64)], None, |_| replies += 1);
                assert_eq!(replies, 2);
                (rpc.rtt.count(), rpc.rtt.sum_ns(), rpc.rtt.max_ns())
            } else {
                (0, 0, 0)
            }
        });
        let (count, sum, max) = out.results[0];
        assert_eq!(count, 2);
        // With arrival-time attribution the fast reply's RTT is a fraction
        // of the slow one's; dequeue-time attribution would make both
        // roughly `max` and double the sum.
        assert!(
            sum < max + max / 2,
            "fast fan-out reply inherited the slow tag's wait: sum {sum} max {max}"
        );
    }

    #[test]
    fn call_all_purges_satisfied_tag_stragglers() {
        // Node 1's reply is duplicated in the network; node 2's reply is
        // slow, keeping the caller inside call_all long enough for the
        // duplicate of the already-satisfied first tag to be queued. It
        // must be purged before call_all returns so no later receive can
        // match a stale RPC reply.
        let mut sim = Sim::new(3, Box::new(EthernetModel::new(3, NetConfig::lossless())));
        sim.set_handler(
            1,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
                reply(svc, src, 64, tag, Arc::new(v + 1)); // duplicate
            }),
        );
        sim.set_handler(
            2,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 1_000_000, tag, Arc::new(v + 1)); // ~80 ms
            }),
        );
        let out = sim.run(|ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(NetConfig::lossless().rexmit_timeout);
                let mut vals = Vec::new();
                let calls = [(1, 64, 1u64), (2, 64, 2u64)];
                rpc.call_all(&ctx, calls, None, |p| vals.push(p.expect::<u64>()));
                assert_eq!(vals, vec![2, 3]);
                ctx.mailbox_len()
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 0, "stale duplicate reply left in mailbox");
    }

    #[test]
    fn call_all_retransmits_one_shared_payload_and_replies_in_call_order() {
        // Over a lossy link, every copy of a request that reaches the
        // handler, first send or retransmission, is the one payload
        // `call_all` allocated for it; the replies are handed over in call
        // order.
        let cfg = NetConfig {
            base_drop_prob: 0.3,
            ..NetConfig::default()
        };
        let timeout = cfg.rexmit_timeout;
        let mut sim = Sim::new(3, Box::new(EthernetModel::new(3, cfg)));
        let seen: Arc<std::sync::Mutex<Vec<(u64, Payload)>>> = Arc::default();
        for p in 1..3 {
            let seen = seen.clone();
            sim.set_handler(
                p,
                Box::new(move |svc, pkt| {
                    seen.lock().unwrap().push((pkt.tag, pkt.payload.clone()));
                    let (tag, src) = (pkt.tag, pkt.src);
                    let v = pkt.expect::<u64>();
                    reply(svc, src, 64, tag, Arc::new(v * 10));
                }),
            );
        }
        let out = sim.run(|ctx| {
            if ctx.me() != 0 {
                return 0;
            }
            let mut rpc = RpcClient::with_timeout(timeout);
            for burst in 0..20u64 {
                let calls = (0..4).map(|i| (1 + i as usize % 2, 64, burst * 4 + i));
                let mut got = Vec::new();
                rpc.call_all(&ctx, calls, None, |p| got.push(p.expect::<u64>()));
                let want: Vec<u64> = (0..4).map(|i| (burst * 4 + i) * 10).collect();
                assert_eq!(got, want, "burst {burst}");
            }
            rpc.rexmits
        });
        assert!(out.results[0] > 0, "the link must force retransmissions");
        let seen = seen.lock().unwrap();
        let mut repeated = 0;
        for (i, (tag, payload)) in seen.iter().enumerate() {
            for (t, p) in &seen[..i] {
                if t == tag {
                    assert!(Arc::ptr_eq(p, payload), "tag {tag:#x} was re-allocated");
                    repeated += 1;
                }
            }
        }
        assert!(repeated > 0, "no request reached a handler twice");
    }

    #[test]
    fn every_generation_keeps_the_give_up_horizon() {
        use crate::config::NetGen;
        assert_eq!(
            NetConfig::default().rexmit_timeout,
            SimDuration::from_secs(1)
        );
        for gen in NetGen::ALL {
            let cfg = gen.config();
            let rpc = RpcClient::with_timeout(cfg.rexmit_timeout);
            assert_eq!(rpc.timeout, cfg.rexmit_timeout);
            // The give-up horizon stays ~constant: shorter tries, more of
            // them. The paper preset keeps the historical 60 retries.
            assert!(
                rpc.timeout.nanos() * rpc.max_retries as u64 >= 60_000_000_000,
                "{gen}: horizon shrank"
            );
        }
        assert_eq!(
            RpcClient::with_timeout(SimDuration::from_secs(1)).max_retries,
            60
        );
    }

    #[test]
    fn loss_on_a_modern_generation_retries_at_its_own_timescale() {
        // Regression for the hardcoded 1 s timeout: a swallowed request on
        // 10 GbE must be retried after that generation's 25 ms timeout, not
        // the paper testbed's 1 s — otherwise one loss costs ~40x the
        // generation-appropriate stall.
        use crate::config::NetGen;
        let cfg = NetConfig {
            base_drop_prob: 0.0,
            ..NetGen::Eth10g.config()
        };
        let rexmit = cfg.rexmit_timeout;
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, cfg.clone())));
        let mut first = true;
        sim.set_handler(
            1,
            Box::new(move |svc, pkt| {
                if first {
                    first = false; // swallow the first request
                    return;
                }
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
            }),
        );
        let out = sim.run(move |ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(cfg.rexmit_timeout);
                let v = call(&mut rpc, &ctx, 1, 41u64).expect::<u64>();
                (v, rpc.rexmits, ctx.now())
            } else {
                (0, 0, ctx.now())
            }
        });
        let (v, rexmits, finished) = out.results[0];
        assert_eq!(v, 42);
        assert_eq!(rexmits, 1);
        // One retransmission wait plus a round trip: far below the paper's
        // 1 s, at least the generation timeout.
        assert!(finished >= SimTime::ZERO + rexmit);
        assert!(
            finished < SimTime::ZERO + rexmit + rexmit,
            "retry did not happen at the generation timescale: {finished}"
        );
    }

    #[test]
    fn a_burst_timeout_replaces_the_client_timeout() {
        // Node 1 swallows the first request. A burst of one with its own
        // timeout retransmits after that timeout, not the client's, and
        // records the round trip from the first send to the reply's
        // arrival: the swallowed try, the retransmission and its trip.
        let cfg = NetConfig::lossless();
        let (client, burst) = (cfg.rexmit_timeout, SimDuration::from_millis(3));
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, cfg)));
        let mut first = true;
        sim.set_handler(
            1,
            Box::new(move |svc, pkt| {
                if std::mem::take(&mut first) {
                    return;
                }
                let (tag, src) = (pkt.tag, pkt.src);
                reply(svc, src, 64, tag, Arc::new(pkt.expect::<u64>() + 1));
            }),
        );
        let out = sim.run(move |ctx| {
            if ctx.me() != 0 {
                return None;
            }
            let mut rpc = RpcClient::with_timeout(client);
            let mut reply = None;
            let started = ctx.now();
            rpc.call_all(&ctx, [(1, 64, 41u64)], Some(burst), |p| reply = Some(p));
            let pkt = reply.expect("one reply");
            let rtt = (rpc.rtt.count(), rpc.rtt.sum_ns());
            Some((
                pkt.arrived - started,
                ctx.now(),
                rpc.rexmits,
                rtt,
                rpc.timeout,
            ))
        });
        let (trip, finished, rexmits, rtt, timeout) = out.results[0].unwrap();
        assert_eq!(rexmits, 1);
        // The burst's timeout was used for this burst only.
        assert_eq!(timeout, client);
        // One 3 ms wait, then one lossless round trip well under a
        // millisecond: the 1 s client timeout never ran.
        assert!(trip > burst && trip < burst + SimDuration::from_millis(1));
        assert_eq!(
            finished,
            SimTime::ZERO + trip,
            "woke at the reply's arrival"
        );
        assert_eq!(rtt, (1, trip.nanos()));
    }

    #[test]
    fn one_sided_write_does_not_wake_a_blocked_receiver() {
        // The defining property of a one-sided verb: data lands in the
        // preposted buffer with no remote CPU involvement. A receiver
        // blocked in recv must not be woken, and the write must be
        // invisible to receive filters — only an explicit poll sees it.
        let sim = Sim::new(2, Box::new(EthernetModel::new(2, NetConfig::lossless())));
        let out = sim.run(|ctx| {
            if ctx.me() == 0 {
                ctx.send(1, 4096, DeliveryClass::OneSided, 7, Arc::new(123u64));
                0
            } else {
                // The write is in flight well before this 10 ms deadline;
                // the timeout firing proves no wake and no filter match.
                assert!(ctx.recv_timeout(SimDuration::from_millis(10)).is_none());
                assert!(ctx.poll_one_sided(0, 99).is_none(), "wrong tag matched");
                assert!(ctx.poll_one_sided(1, 7).is_none(), "wrong src matched");
                let pkt = ctx.poll_one_sided(0, 7).expect("write did not land");
                pkt.expect::<u64>()
            }
        });
        assert_eq!(out.results[1], 123);
    }

    #[test]
    fn one_sided_write_lands_before_a_trailing_control_message() {
        // The ordering VC_rdma relies on: a one-sided write issued before a
        // control message on the same link is delivered first (FIFO link
        // occupancy), so the control handler always finds the data present.
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, NetConfig::lossless())));
        sim.set_handler(
            1,
            Box::new(|svc, pkt| {
                let (rpc_tag, src) = (pkt.tag, pkt.src);
                let grant_tag = pkt.expect::<u64>();
                let data = svc
                    .take_one_sided(src, grant_tag)
                    .expect("control message arrived before its one-sided write");
                let v = data.expect::<u64>();
                reply(svc, src, 64, rpc_tag, Arc::new(v));
            }),
        );
        let out = sim.run(|ctx| {
            if ctx.me() == 0 {
                // Large one-sided payload first, small control message after:
                // if ordering were by size rather than FIFO, the control
                // message would win the race and the handler would panic.
                ctx.send(1, 60_000, DeliveryClass::OneSided, 42, Arc::new(999u64));
                let mut rpc = RpcClient::with_timeout(NetConfig::lossless().rexmit_timeout);
                call(&mut rpc, &ctx, 1, 42u64).expect::<u64>()
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 999);
    }

    #[test]
    #[should_panic(expected = "no reply")]
    fn rpc_gives_up_eventually() {
        let cfg = NetConfig {
            base_drop_prob: 1.0,
            overflow_cap: 1.0,
            ..NetConfig::default()
        };
        let timeout = cfg.rexmit_timeout;
        let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, cfg)));
        sim.set_handler(1, Box::new(|_, _| {}));
        sim.run(|ctx| {
            if ctx.me() == 0 {
                let mut rpc = RpcClient::with_timeout(timeout);
                rpc.max_retries = 3;
                call(&mut rpc, &ctx, 1, 0u64);
            } else {
                // Idle long enough for proc 0's retries to play out, then
                // finish so only the panic (not a deadlock) can end the run.
                ctx.compute(SimDuration::from_secs(30));
            }
        });
    }
}
