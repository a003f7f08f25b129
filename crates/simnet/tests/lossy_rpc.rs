//! A lossy 16-node RPC run whose retransmission timers do fire, pinned
//! word for word: virtual end time, wire traffic, retransmissions and the
//! kernel's hand-off counts. Any change to how the kernel queues, cancels
//! or pops timers and deliveries must leave every one of these unchanged.

use std::sync::Arc;

use vopp_sim::{HandoffStats, Sim, SimDuration};
use vopp_simnet::{reply, EthernetModel, NetConfig, RpcClient};

const NODES: usize = 16;
const CALLS: u64 = 40;

#[test]
fn lossy_sixteen_node_rpc_is_pinned() {
    let cfg = NetConfig {
        base_drop_prob: 0.05,
        ..NetConfig::default()
    };
    let timeout = cfg.rexmit_timeout;
    let mut sim = Sim::new(NODES, Box::new(EthernetModel::new(NODES, cfg)));
    for p in 0..NODES {
        sim.set_handler(
            p,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = pkt.expect::<u64>();
                reply(svc, src, 96, tag, Arc::new(v * 2));
            }),
        );
    }
    let out = sim.run(|ctx| {
        let me = ctx.me() as u64;
        let mut rpc = RpcClient::with_timeout(timeout);
        for i in 0..CALLS {
            let dst = (ctx.me() + 1 + i as usize % (NODES - 1)) % NODES;
            let want = (me * 1000 + i) * 2;
            let call = [(dst, 80, me * 1000 + i)];
            rpc.call_all(&ctx, call, None, |p| assert_eq!(p.expect::<u64>(), want));
            if i % 8 == 7 {
                // A fan-out burst: three peers answer concurrently.
                let calls = (1..=3).map(|k| ((ctx.me() + k * 5) % NODES, 80, i));
                rpc.call_all(&ctx, calls, None, |p| assert_eq!(p.expect::<u64>(), i * 2));
            }
            ctx.compute(SimDuration::from_micros(50 + me * 3));
        }
        rpc.rexmits
    });
    let rexmits: u64 = out.results.iter().sum();
    let stats = out.net.stats();
    assert!(rexmits > 0, "the run must exercise retransmission timers");
    assert_eq!(
        (out.end_time.nanos(), stats.msgs, stats.bytes, rexmits),
        (9_009_397_960, 1894, 166_240, 94)
    );
    // The wake-up count as first counted, when a controller thread still
    // handed on every wake after a non-final exit and the waiting thread
    // checked every delivery itself: each wake is now either taken or
    // finished by the kernel (a reply out of tag order in a burst, or one
    // that left its burst a tag short).
    let h = out.handoff;
    assert_eq!(h.total() + h.absorbed, 1630);
    // Only the start-up wake comes from the thread that called `run`.
    assert_eq!(
        h,
        HandoffStats {
            direct: 1469,
            via_controller: 1,
            self_wakes: 198,
            absorbed: 160,
        }
    );
}
