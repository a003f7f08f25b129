//! Manager idempotency under duplicate requests, tested by driving raw
//! protocol messages at a node's service handler — exactly what a
//! retransmitting transport produces.

use std::sync::Arc;

use vopp_dsm::homes::make_handler;
use vopp_dsm::{interval_log, AccessMode, CostModel, Layout, NodeState, Protocol, Req, Resp};
use vopp_page::VTime;
use vopp_sim::sync::Mutex;
use vopp_sim::{DeliveryClass, PerfectNet, Sim, SimDuration};
use vopp_simnet::RPC_TAG_BIT;

/// Build a 2-node sim where node 0 runs a real DSM handler and node 1 is a
/// raw driver sending hand-crafted requests.
fn drive<R: Send>(
    protocol: Protocol,
    build_layout: impl FnOnce(&mut Layout),
    driver: impl Fn(&vopp_sim::AppCtx<'_>) -> R + Send + Sync,
) -> R {
    let mut layout = Layout::new();
    build_layout(&mut layout);
    let layout = layout.freeze();
    let node0 = Arc::new(Mutex::new(NodeState::new(
        0,
        2,
        protocol,
        CostModel::default(),
        layout.clone(),
        vopp_page::PagePool::shared_for(layout.npages()),
        interval_log(2),
    )));
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(SimDuration::from_micros(10))));
    sim.set_handler(0, make_handler(node0));
    let out = sim.run(move |ctx| {
        if ctx.me() == 1 {
            Some(driver(&ctx))
        } else {
            // Node 0's app thread idles while its handler serves.
            ctx.compute(SimDuration::from_millis(50));
            None
        }
    });
    out.results.into_iter().flatten().next().unwrap()
}

fn send_req(ctx: &vopp_sim::AppCtx<'_>, tag: u64, req: Req) {
    ctx.send(0, 64, DeliveryClass::Svc, RPC_TAG_BIT | tag, Arc::new(req));
}

fn recv_resp(ctx: &vopp_sim::AppCtx<'_>, tag: u64) -> Resp {
    ctx.recv_tag(RPC_TAG_BIT | tag, None)
        .unwrap()
        .expect::<Resp>()
}

#[test]
fn duplicate_view_acquire_regrants() {
    drive(
        Protocol::VcSd,
        |l| {
            l.add_view(8);
        },
        |ctx| {
            let req = Req::ViewAcquire {
                view: 0,
                mode: AccessMode::Write,
                have: 0,
            };
            send_req(ctx, 1, req.clone());
            let g1 = recv_resp(ctx, 1);
            // Retransmission of the same acquire (different rpc tag, as the
            // transport would after a lost grant).
            send_req(ctx, 2, req);
            let g2 = recv_resp(ctx, 2);
            match (g1, g2) {
                (Resp::ViewGrant { version: v1, .. }, Resp::ViewGrant { version: v2, .. }) => {
                    assert_eq!(v1, v2, "duplicate acquire must re-grant, not queue")
                }
                other => panic!("expected two grants, got {other:?}"),
            }
        },
    );
}

#[test]
fn duplicate_write_release_acks_same_version() {
    drive(
        Protocol::VcSd,
        |l| {
            l.add_view(8);
        },
        |ctx| {
            send_req(
                ctx,
                1,
                Req::ViewAcquire {
                    view: 0,
                    mode: AccessMode::Write,
                    have: 0,
                },
            );
            let _ = recv_resp(ctx, 1);
            let release = Req::ViewRelease {
                view: 0,
                mode: AccessMode::Write,
                interval: Some(vopp_page::IntervalId { owner: 1, seq: 1 }),
                lamport: 5,
                pages: vec![0],
                diffs: vec![],
            };
            send_req(ctx, 2, release.clone());
            let a1 = recv_resp(ctx, 2);
            send_req(ctx, 3, release); // duplicate after lost ack
            let a2 = recv_resp(ctx, 3);
            match (a1, a2) {
                (Resp::ReleaseAck { version: v1 }, Resp::ReleaseAck { version: v2 }) => {
                    assert_eq!(v1, 1, "first release creates version 1");
                    assert_eq!(v2, 1, "duplicate must not bump the version");
                }
                other => panic!("expected two acks, got {other:?}"),
            }
        },
    );
}

#[test]
fn duplicate_lock_acquire_and_release() {
    drive(
        Protocol::LrcD,
        |l| {
            let _ = l.alloc(8, 4);
        },
        |ctx| {
            let acq = Req::LockAcquire {
                lock: 0,
                vt: VTime::zero(2),
            };
            send_req(ctx, 1, acq.clone());
            assert!(matches!(recv_resp(ctx, 1), Resp::LockGrant { .. }));
            send_req(ctx, 2, acq); // duplicate while holding
            assert!(matches!(recv_resp(ctx, 2), Resp::LockGrant { .. }));

            let rel = Req::LockRelease {
                lock: 0,
                records: vec![],
            };
            send_req(ctx, 3, rel.clone());
            assert!(matches!(recv_resp(ctx, 3), Resp::Ack));
            send_req(ctx, 4, rel); // duplicate after lost ack
            assert!(matches!(recv_resp(ctx, 4), Resp::Ack));
        },
    );
}

#[test]
fn stale_read_release_still_acked() {
    // A duplicate read release arriving after the home already removed the
    // reader (its ack was lost in transit) must be acknowledged again.
    drive(
        Protocol::VcSd,
        |l| {
            l.add_view(8);
        },
        |ctx| {
            // Read-release without ever acquiring (as if the home already
            // processed the release and the ack was lost).
            send_req(
                ctx,
                1,
                Req::ViewRelease {
                    view: 0,
                    mode: AccessMode::Read,
                    interval: None,
                    lamport: 0,
                    pages: vec![],
                    diffs: vec![],
                },
            );
            assert!(matches!(recv_resp(ctx, 1), Resp::Ack));
        },
    );
}

#[test]
fn diff_requests_are_pure_reads() {
    drive(
        Protocol::VcD,
        |l| {
            l.add_view(8);
        },
        |ctx| {
            send_req(
                ctx,
                1,
                Req::ViewAcquire {
                    view: 0,
                    mode: AccessMode::Write,
                    have: 0,
                },
            );
            let _ = recv_resp(ctx, 1);
            // Page content requests are pure reads: asking twice returns
            // identical content and never disturbs manager state.
            send_req(ctx, 2, Req::PageReq { page: 0 });
            let p1 = recv_resp(ctx, 2);
            send_req(ctx, 3, Req::PageReq { page: 0 });
            let p2 = recv_resp(ctx, 3);
            match (p1, p2) {
                (Resp::PageResp { content: Some(a) }, Resp::PageResp { content: Some(b) }) => {
                    assert_eq!(&**a, &**b);
                }
                other => panic!("expected two page responses, got {other:?}"),
            }
        },
    );
}
