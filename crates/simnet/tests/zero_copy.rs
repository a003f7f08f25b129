//! Allocation accounting for the zero-copy payload path.
//!
//! Packets carry `Arc<dyn Any + Send + Sync>` payloads end-to-end, so a
//! broadcast to N destinations and every RPC retransmission share one
//! message allocation. These tests count constructor and `Clone` calls of
//! an instrumented message type to prove it: each test uses its own static
//! counters because all tests share one process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vopp_sim::{DeliveryClass, Payload, Sim};
use vopp_simnet::{reply, EthernetModel, NetConfig, RpcClient};

const NODES: usize = 33; // one broadcaster + 32 receivers
const TAG: u64 = 0xB40AD;

static BCAST_NEW: AtomicU64 = AtomicU64::new(0);
static BCAST_CLONE: AtomicU64 = AtomicU64::new(0);

/// A payload that counts how many times it is allocated and cloned.
struct BcastMsg {
    data: Vec<u8>,
}

impl BcastMsg {
    fn new(len: usize) -> BcastMsg {
        BCAST_NEW.fetch_add(1, Ordering::Relaxed);
        BcastMsg {
            data: vec![0xAB; len],
        }
    }
}

impl Clone for BcastMsg {
    fn clone(&self) -> Self {
        BCAST_CLONE.fetch_add(1, Ordering::Relaxed);
        BcastMsg {
            data: self.data.clone(),
        }
    }
}

#[test]
fn broadcast_to_32_nodes_allocates_payload_once() {
    let sim = Sim::new(
        NODES,
        Box::new(EthernetModel::new(NODES, NetConfig::lossless())),
    );
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            // One allocation; each destination gets a refcount bump only.
            let payload: Payload = Arc::new(BcastMsg::new(4096));
            for dst in 1..NODES {
                ctx.send(dst, 4096, DeliveryClass::App, TAG, payload.clone());
            }
            0
        } else {
            let pkt = ctx.recv_tag(TAG, None).unwrap();
            // Borrow the shared allocation; never deep-copy it.
            let msg = pkt.expect_arc::<BcastMsg>();
            assert_eq!(msg.data.len(), 4096);
            msg.data[0] as u64
        }
    });
    assert_eq!(out.results[1..], vec![0xAB; NODES - 1]);
    assert_eq!(
        BCAST_NEW.load(Ordering::Relaxed),
        1,
        "broadcast payload must be allocated exactly once"
    );
    assert_eq!(
        BCAST_CLONE.load(Ordering::Relaxed),
        0,
        "broadcast must never deep-copy the payload"
    );
}

static RPC_NEW: AtomicU64 = AtomicU64::new(0);
static RPC_CLONE: AtomicU64 = AtomicU64::new(0);

struct RpcMsg {
    value: u64,
}

impl RpcMsg {
    fn new(value: u64) -> RpcMsg {
        RPC_NEW.fetch_add(1, Ordering::Relaxed);
        RpcMsg { value }
    }
}

impl Clone for RpcMsg {
    fn clone(&self) -> Self {
        RPC_CLONE.fetch_add(1, Ordering::Relaxed);
        RpcMsg { value: self.value }
    }
}

#[test]
fn retransmissions_share_the_request_allocation() {
    // A reply slower than the RPC timeout forces at least one
    // retransmission per call; the retransmit must re-send the original
    // allocation, not a copy.
    let cfg = NetConfig {
        base_drop_prob: 0.0,
        latency: vopp_sim::SimDuration::from_millis(700), // rtt 1.4s > 1s timeout
        ..NetConfig::lossless()
    };
    let timeout = cfg.rexmit_timeout;
    let mut sim = Sim::new(2, Box::new(EthernetModel::new(2, cfg)));
    sim.set_handler(
        1,
        Box::new(|svc, pkt| {
            let (tag, src) = (pkt.tag, pkt.src);
            // The client retains the request for retransmission, so the
            // refcount exceeds one here; borrow it shared.
            let msg = pkt.expect_arc::<RpcMsg>();
            reply(svc, src, 64, tag, Arc::new(msg.value + 1));
        }),
    );
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            let mut rpc = RpcClient::with_timeout(timeout);
            let mut got = 0;
            let call = [(1, 64, RpcMsg::new(41))];
            rpc.call_all(&ctx, call, None, |p| got = p.expect::<u64>());
            (got, rpc.rexmits)
        } else {
            (0, 0)
        }
    });
    let (got, rexmits) = out.results[0];
    assert_eq!(got, 42);
    assert!(rexmits >= 1, "test requires at least one retransmission");
    assert_eq!(RPC_NEW.load(Ordering::Relaxed), 1);
    assert_eq!(
        RPC_CLONE.load(Ordering::Relaxed),
        0,
        "retransmissions must share the original request allocation"
    );
}
