//! Reliable point-to-point transfers.

use std::sync::Arc;

use vopp_dsm::{CostModel, NodeStats};
use vopp_sim::sync::Mutex;
use vopp_sim::{DeliveryClass, Handler, ProcId};
use vopp_simnet::{reply, HEADER_BYTES};

/// Data that can travel in an MPI message. `Arc`-wrapped so retransmission
/// clones are cheap.
#[derive(Debug, Clone)]
pub enum MpiPayload {
    /// No data (barrier tokens).
    Unit,
    /// A vector of doubles.
    F64s(Arc<Vec<f64>>),
    /// A vector of 32-bit words.
    U32s(Arc<Vec<u32>>),
    /// Raw bytes.
    Bytes(Arc<Vec<u8>>),
}

impl MpiPayload {
    /// Payload size on the wire.
    pub fn data_bytes(&self) -> usize {
        match self {
            MpiPayload::Unit => 0,
            MpiPayload::F64s(v) => v.len() * 8,
            MpiPayload::U32s(v) => v.len() * 4,
            MpiPayload::Bytes(v) => v.len(),
        }
    }

    /// Unwrap doubles.
    pub fn into_f64s(self) -> Arc<Vec<f64>> {
        match self {
            MpiPayload::F64s(v) => v,
            other => panic!("expected F64s, got {other:?}"),
        }
    }

    /// Unwrap words.
    pub fn into_u32s(self) -> Arc<Vec<u32>> {
        match self {
            MpiPayload::U32s(v) => v,
            other => panic!("expected U32s, got {other:?}"),
        }
    }
}

/// One DATA message (request half of the stop-and-wait exchange).
#[derive(Debug, Clone)]
pub(crate) struct MpiData {
    pub tag: u32,
    pub seq: u64,
    pub payload: MpiPayload,
}

impl MpiData {
    pub(crate) fn wire_bytes(&self) -> usize {
        HEADER_BYTES + 12 + self.payload.data_bytes()
    }
}

/// Delivered message as re-queued into the receiver's own mailbox.
#[derive(Debug, Clone)]
pub(crate) struct Delivered {
    pub payload: MpiPayload,
}

/// Mailbox tag encoding for delivered messages: src and user tag.
pub(crate) const DELIVER_BIT: u64 = 1 << 61;

pub(crate) fn deliver_tag(src: ProcId, tag: u32) -> u64 {
    DELIVER_BIT | ((src as u64) << 32) | tag as u64
}

/// One rank's state: the receive side's next expected sequence number per
/// sender, the rank's cost model, and the statistics the rank reports.
pub(crate) struct MpiNode {
    pub expected_in: Vec<u64>,
    pub cost: CostModel,
    pub stats: NodeStats,
}

/// Build the receive handler for one rank: acknowledges every DATA message
/// (idempotently) and forwards fresh in-order payloads to the local mailbox.
pub(crate) fn make_handler(state: Arc<Mutex<MpiNode>>) -> Handler {
    Box::new(move |svc, pkt| {
        let rpc_tag = pkt.tag;
        let src = pkt.src;
        // The sender retains the payload for retransmission; borrow it
        // shared instead of deep-copying the message.
        let data = pkt.expect_arc::<MpiData>();
        let mut st = state.lock();
        let exp = &mut st.expected_in[src];
        if data.seq == *exp {
            *exp += 1;
            let dt = deliver_tag(src, data.tag);
            let payload = data.payload.clone();
            drop(st);
            // Local hand-off to the application thread.
            svc.send(
                svc.me(),
                0,
                DeliveryClass::App,
                dt,
                Arc::new(Delivered { payload }),
            );
        } else {
            // Duplicate of an already-delivered message: just re-ack.
            debug_assert!(data.seq < *exp, "out-of-order MPI data");
            drop(st);
        }
        reply(svc, src, HEADER_BYTES, rpc_tag, Arc::new(()));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(MpiPayload::Unit.data_bytes(), 0);
        assert_eq!(MpiPayload::F64s(Arc::new(vec![0.0; 4])).data_bytes(), 32);
        assert_eq!(MpiPayload::U32s(Arc::new(vec![0; 4])).data_bytes(), 16);
        assert_eq!(MpiPayload::Bytes(Arc::new(vec![0; 5])).data_bytes(), 5);
    }

    #[test]
    fn deliver_tag_disjoint_by_src_and_tag() {
        assert_ne!(deliver_tag(1, 5), deliver_tag(2, 5));
        assert_ne!(deliver_tag(1, 5), deliver_tag(1, 6));
        assert!(deliver_tag(0, 0) & DELIVER_BIT != 0);
    }
}
