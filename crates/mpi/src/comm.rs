//! The communicator: point-to-point API, collectives, and the runner.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use vopp_dsm::{run_nodes, ClusterConfig, ClusterOutcome, CpuAccount, NodeStats};
use vopp_metrics::{Breakdown, Phase};
use vopp_sim::{AppCtx, ProcId, SimTime};
use vopp_simnet::RpcClient;

use crate::p2p::{deliver_tag, make_handler, Delivered, MpiData, MpiNode, MpiPayload};

/// The per-rank communicator handle.
pub struct MpiCtx<'a> {
    sim: AppCtx<'a>,
    rpc: RefCell<RpcClient>,
    seq_out: RefCell<Vec<u64>>,
    cpu: CpuAccount,
    breakdown: RefCell<Breakdown>,
    /// When set, blocking waits are charged to this phase instead of the
    /// default (send -> SendWait, recv -> DataWait). `barrier` uses it so
    /// its constituent sends/receives all count as barrier wait.
    wait_phase: Cell<Option<Phase>>,
}

impl<'a> MpiCtx<'a> {
    /// This rank.
    pub fn me(&self) -> ProcId {
        self.sim.me()
    }

    /// Communicator size.
    pub fn nprocs(&self) -> usize {
        self.sim.nprocs()
    }

    /// Current virtual time (flushes CPU debt).
    pub fn now(&self) -> SimTime {
        self.flush();
        self.sim.now()
    }

    /// Flush CPU debt into the clock, classifying the advance.
    fn flush(&self) {
        self.cpu.flush(&self.sim, &mut self.breakdown.borrow_mut());
    }

    /// Charge the time since `since` to `phase` (or the barrier override).
    fn charge_wait(&self, phase: Phase, since: SimTime) {
        let phase = self.wait_phase.get().unwrap_or(phase);
        let mut bd = self.breakdown.borrow_mut();
        self.cpu.charge_wait(&self.sim, phase, 0, since, &mut bd);
    }

    /// Charge floating-point work.
    pub fn flops(&self, n: u64) {
        self.cpu.flops(n);
    }

    /// Charge integer work.
    pub fn int_ops(&self, n: u64) {
        self.cpu.int_ops(n);
    }

    /// Charge raw nanoseconds.
    pub fn compute_ns(&self, ns: f64) {
        self.cpu.compute_ns(ns);
    }

    /// Blocking reliable send to `dst` with message tag `tag`.
    pub fn send(&self, dst: ProcId, tag: u32, payload: MpiPayload) {
        self.flush();
        let seq = {
            let mut s = self.seq_out.borrow_mut();
            let v = s[dst];
            s[dst] += 1;
            v
        };
        let data = MpiData { tag, seq, payload };
        let bytes = data.wire_bytes();
        // The ack is the rpc reply; retransmission handled by the transport.
        let t0 = self.sim.now();
        let call = [(dst, bytes, data)];
        self.rpc.borrow_mut().call_all(&self.sim, call, None, drop);
        self.charge_wait(Phase::SendWait, t0);
    }

    /// Blocking receive of the next in-order message from `src` with `tag`.
    pub fn recv(&self, src: ProcId, tag: u32) -> MpiPayload {
        self.flush();
        let want = deliver_tag(src, tag);
        let t0 = self.sim.now();
        let pkt = self
            .sim
            .recv_tag(want, None)
            .expect("an untimed receive ends with a packet");
        self.charge_wait(Phase::DataWait, t0);
        pkt.expect::<Delivered>().payload
    }

    /// Flat barrier through rank 0 (gather + release).
    pub fn barrier(&self) {
        let n = self.nprocs();
        if n == 1 {
            return;
        }
        self.wait_phase.set(Some(Phase::BarrierWait));
        if self.me() == 0 {
            for src in 1..n {
                let _ = self.recv(src, TAG_BARRIER);
            }
            for dst in 1..n {
                self.send(dst, TAG_BARRIER, MpiPayload::Unit);
            }
        } else {
            self.send(0, TAG_BARRIER, MpiPayload::Unit);
            let _ = self.recv(0, TAG_BARRIER);
        }
        self.wait_phase.set(None);
    }

    /// Binomial-tree broadcast from `root`. Non-root ranks pass `None`.
    pub fn bcast(&self, root: ProcId, mine: Option<MpiPayload>) -> MpiPayload {
        let n = self.nprocs();
        let rel = (self.me() + n - root) % n;
        let abs = |r: usize| (r + root) % n;
        let mut payload = mine;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let parent = rel & !mask;
                payload = Some(self.recv(abs(parent), TAG_BCAST));
                break;
            }
            mask <<= 1;
        }
        let payload = payload.expect("bcast root must supply a payload");
        mask >>= 1;
        let mut m = mask;
        while m > 0 {
            if rel | m != rel && rel + m < n {
                self.send(abs(rel + m), TAG_BCAST, payload.clone());
            }
            m >>= 1;
        }
        payload
    }

    /// Binomial-tree sum-reduction of a double vector to rank `root`.
    /// Every rank must pass a vector of the same length; the result is
    /// meaningful only at the root (others get their partial sums back).
    pub fn reduce_sum_f64(&self, root: ProcId, mine: Vec<f64>) -> Vec<f64> {
        let n = self.nprocs();
        let rel = (self.me() + n - root) % n;
        let abs = |r: usize| (r + root) % n;
        let mut acc = mine;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < n {
                    let theirs = self.recv(abs(src_rel), TAG_REDUCE).into_f64s();
                    assert_eq!(theirs.len(), acc.len(), "reduce length mismatch");
                    self.flops(acc.len() as u64);
                    for (a, b) in acc.iter_mut().zip(theirs.iter()) {
                        *a += b;
                    }
                }
            } else {
                let dst_rel = rel & !mask;
                self.send(
                    abs(dst_rel),
                    TAG_REDUCE,
                    MpiPayload::F64s(Arc::new(acc.clone())),
                );
                break;
            }
            mask <<= 1;
        }
        acc
    }

    /// Allreduce (sum) of a double vector: binomial reduce + broadcast,
    /// MPICH's default for medium messages in this era.
    pub fn allreduce_sum_f64(&self, mine: Vec<f64>) -> Vec<f64> {
        let reduced = self.reduce_sum_f64(0, mine);
        let out = if self.me() == 0 {
            self.bcast(0, Some(MpiPayload::F64s(Arc::new(reduced))))
        } else {
            self.bcast(0, None)
        };
        out.into_f64s().as_ref().clone()
    }
}

const TAG_BARRIER: u32 = 0xB000;
const TAG_BCAST: u32 = 0xB001;
const TAG_REDUCE: u32 = 0xB002;

/// Run an SPMD MPI program on the simulated cluster `cfg` describes, with
/// the same wiring as the DSM's `run_cluster`: faults, tracer and profiler
/// apply alike. A message-passing program has no shared memory, so
/// `cfg.protocol` and `cfg.racecheck` are unused.
pub fn run_mpi<R, F>(cfg: &ClusterConfig, body: F) -> ClusterOutcome<R>
where
    R: Send,
    F: Fn(&MpiCtx<'_>) -> R + Send + Sync,
{
    let n = cfg.nprocs;
    let node = |_, cost| MpiNode {
        expected_in: vec![0; n],
        cost,
        stats: NodeStats::default(),
    };
    run_nodes(
        cfg,
        node,
        make_handler,
        |node| &node.stats,
        |sim, node, rexmit| {
            let cost = node.lock().cost.clone();
            let mctx = MpiCtx {
                cpu: CpuAccount::new(&sim, cost),
                seq_out: RefCell::new(vec![0; n]),
                sim,
                rpc: RefCell::new(RpcClient::with_timeout(rexmit)),
                breakdown: RefCell::default(),
                wait_phase: Cell::new(None),
            };
            let r = body(&mctx);
            mctx.flush();
            let rpc = mctx.rpc.into_inner();
            let stats = &mut node.lock().stats;
            stats.metrics.breakdown = mctx.breakdown.into_inner();
            stats.rexmits = rpc.rexmits;
            stats.metrics.rpc_rtt = rpc.rtt;
            r
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_dsm::Protocol;

    /// MPI ignores the protocol; any one will do.
    fn lossless(n: usize) -> ClusterConfig {
        ClusterConfig::lossless(n, Protocol::VcSd)
    }

    #[test]
    fn send_recv_roundtrip() {
        let out = run_mpi(&lossless(2), |c| {
            if c.me() == 0 {
                c.send(1, 7, MpiPayload::F64s(Arc::new(vec![1.0, 2.0])));
                0.0
            } else {
                let v = c.recv(0, 7).into_f64s();
                v.iter().sum::<f64>()
            }
        });
        assert_eq!(out.results[1], 3.0);
        assert!(out.stats.net.msgs >= 2); // DATA + ACK
    }

    #[test]
    fn barrier_synchronizes() {
        let out = run_mpi(&lossless(5), |c| {
            if c.me() == 2 {
                c.compute_ns(10_000_000.0); // straggler
            }
            c.barrier();
            c.now().nanos()
        });
        for t in &out.results {
            assert!(*t >= 10_000_000, "barrier must wait for the straggler");
        }
    }

    #[test]
    fn bcast_all_sizes() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = run_mpi(&lossless(n), |c| {
                let data = if c.me() == 0 {
                    Some(MpiPayload::U32s(Arc::new(vec![42, 43])))
                } else {
                    None
                };
                let got = c.bcast(0, data).into_u32s();
                got[0] + got[1]
            });
            assert!(out.results.iter().all(|&r| r == 85), "n = {n}");
        }
    }

    #[test]
    fn bcast_nonzero_root() {
        let out = run_mpi(&lossless(6), |c| {
            let data = if c.me() == 4 {
                Some(MpiPayload::U32s(Arc::new(vec![9])))
            } else {
                None
            };
            c.bcast(4, data).into_u32s()[0]
        });
        assert!(out.results.iter().all(|&r| r == 9));
    }

    #[test]
    fn allreduce_sums() {
        for n in [1, 2, 3, 4, 6, 8] {
            let out = run_mpi(&lossless(n), move |c| {
                let mine = vec![c.me() as f64, 1.0];
                c.allreduce_sum_f64(mine)
            });
            let expect0: f64 = (0..n).map(|i| i as f64).sum();
            for r in &out.results {
                assert_eq!(r[0], expect0, "n = {n}");
                assert_eq!(r[1], n as f64);
            }
        }
    }

    #[test]
    fn reliable_under_loss() {
        let mut cfg = ClusterConfig::new(4, Protocol::VcSd);
        cfg.net.base_drop_prob = 0.05;
        let out = run_mpi(&cfg, |c| {
            let mut acc = [0.0; 8];
            for round in 0..10 {
                let mine = vec![(c.me() + round) as f64; 8];
                let s = c.allreduce_sum_f64(mine);
                for (a, b) in acc.iter_mut().zip(&s) {
                    *a += b;
                }
                c.barrier();
            }
            acc[0]
        });
        // sum over rounds of sum over ranks of (rank + round)
        let expect: f64 = (0..10)
            .map(|r| (0..4).map(|k| (k + r) as f64).sum::<f64>())
            .sum();
        for r in &out.results {
            assert_eq!(*r, expect);
        }
        assert!(out.stats.rexmits() > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut cfg = ClusterConfig::new(3, Protocol::VcSd);
            cfg.net.base_drop_prob = 0.02;
            run_mpi(&cfg, |c| {
                let s = c.allreduce_sum_f64(vec![c.me() as f64; 32]);
                c.barrier();
                s[0]
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.time, b.stats.time);
        assert_eq!(a.stats.net, b.stats.net);
    }
}
