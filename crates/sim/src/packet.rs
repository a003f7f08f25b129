//! Packets exchanged between simulated processes.
//!
//! The payload is an in-process `Arc<dyn Any>`: the simulation transfers Rust
//! values directly instead of serializing them, while the *wire size* used for
//! network timing and traffic statistics is declared explicitly by the sender.
//! Sharing the payload by `Arc` means a broadcast (a barrier release fan-out,
//! an RPC retransmission) allocates the message once and every destination's
//! packet points at the same value. This keeps the simulator fast and lets
//! protocol layers account for the exact number of bytes the real system
//! would have put on the wire.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::time::SimTime;
use crate::ProcId;

/// The shared, immutable payload of a [`Packet`]. One allocation per message,
/// no matter how many destinations (or retransmissions) it is sent to.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// How a packet is consumed at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryClass {
    /// Delivered to the destination process's mailbox; consumed by a blocking
    /// `recv` on the application thread (replies, grants, app messages).
    App,
    /// Dispatched to the destination's registered service handler the moment
    /// it arrives, even while the application thread is computing — the
    /// simulation equivalent of a SIGIO/SIGSEGV-driven DSM request handler.
    Svc,
    /// A one-sided RDMA-style write: the payload lands in the destination's
    /// preposted buffer (its mailbox) with **no remote CPU involvement** —
    /// no service dispatch, and a blocked receiver is not woken. Invisible
    /// to every receive (`recv`, `recv_tag`, ...); retrieved explicitly with
    /// [`crate::AppCtx::poll_one_sided`] / [`crate::SvcCtx::take_one_sided`].
    /// Routed reliably by network models (hardware retransmission, no loss
    /// draw) and never counted toward receive-queue overflow occupancy.
    OneSided,
}

/// A message in flight (or in a mailbox) between two simulated processes.
pub struct Packet {
    /// Sending process.
    pub src: ProcId,
    /// Wire size in bytes this packet would occupy on a real network,
    /// including protocol headers. Used for link occupancy and statistics.
    pub wire_bytes: usize,
    /// Mailbox vs service-handler delivery.
    pub class: DeliveryClass,
    /// Free-form tag usable by protocols to demultiplex replies.
    pub tag: u64,
    /// Virtual time at which the packet arrived at the destination.
    /// Filled in by the kernel on delivery; zero while in flight.
    pub arrived: SimTime,
    /// Causal-profiler record id of the context this packet was sent from
    /// ([`vopp_trace::NO_CTX`] when no profiler is installed). Stamped by
    /// the sending context; pure observation, never read by protocols.
    pub cause: u64,
    /// The transferred value, shared with every other copy of this message.
    pub payload: Payload,
}

impl Packet {
    /// Build a packet. `arrived` is stamped by the kernel.
    pub fn new(
        src: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) -> Packet {
        Packet {
            src,
            wire_bytes,
            class,
            tag,
            arrived: SimTime::ZERO,
            cause: vopp_trace::NO_CTX,
            payload,
        }
    }

    /// Downcast the payload to a concrete message type, consuming the packet.
    ///
    /// If this packet holds the payload's last reference the value moves out
    /// without a copy; a payload still shared (e.g. retained by an RPC layer
    /// for retransmission) is cloned — its `Arc`-shared internals stay shared.
    ///
    /// Panics if the payload is of a different type: a type confusion here is
    /// always a protocol bug, never a recoverable condition.
    pub fn expect<T: Any + Send + Sync + Clone>(self) -> T {
        match self.payload.downcast::<T>() {
            Ok(arc) => Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()),
            Err(_) => panic!(
                "packet from proc {} (tag {}) had unexpected payload type; wanted {}",
                self.src,
                self.tag,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Downcast the payload and keep it shared, consuming the packet.
    /// Never copies the value, whatever its reference count.
    pub fn expect_arc<T: Any + Send + Sync>(self) -> Arc<T> {
        match self.payload.downcast::<T>() {
            Ok(arc) => arc,
            Err(_) => panic!(
                "packet from proc {} (tag {}) had unexpected payload type; wanted Arc<{}>",
                self.src,
                self.tag,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Borrow the payload as `T` without consuming the packet.
    /// Returns `None` on type mismatch.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("src", &self.src)
            .field("wire_bytes", &self.wire_bytes)
            .field("class", &self.class)
            .field("tag", &self.tag)
            .field("arrived", &self.arrived)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_roundtrip() {
        let p = Packet::new(3, 100, DeliveryClass::App, 7, Arc::new(42u32));
        assert_eq!(p.src, 3);
        assert_eq!(p.expect::<u32>(), 42);
    }

    #[test]
    #[should_panic(expected = "unexpected payload type")]
    fn expect_wrong_type_panics() {
        let p = Packet::new(0, 0, DeliveryClass::App, 0, Arc::new("hi"));
        let _ = p.expect::<u64>();
    }

    #[test]
    fn expect_moves_out_sole_reference_and_clones_shared() {
        // Sole reference: the value moves out (same Vec buffer, not a copy).
        let v: Arc<dyn Any + Send + Sync> = Arc::new(vec![1u8, 2, 3]);
        let buf_ptr = {
            let r = v.downcast_ref::<Vec<u8>>().unwrap();
            r.as_ptr()
        };
        let p = Packet::new(0, 8, DeliveryClass::App, 0, v);
        let out = p.expect::<Vec<u8>>();
        assert_eq!(out.as_ptr(), buf_ptr);

        // Shared reference: the packet clones, the retained copy is intact.
        let retained: Arc<dyn Any + Send + Sync> = Arc::new(vec![9u8; 4]);
        let p = Packet::new(0, 8, DeliveryClass::App, 0, retained.clone());
        let out = p.expect::<Vec<u8>>();
        assert_eq!(out, vec![9u8; 4]);
        assert_eq!(retained.downcast_ref::<Vec<u8>>().unwrap(), &vec![9u8; 4]);
    }

    #[test]
    fn peek_borrows_without_consuming() {
        let p = Packet::new(2, 4, DeliveryClass::App, 1, Arc::new(7u16));
        assert_eq!(p.peek::<u16>(), Some(&7));
        assert_eq!(p.peek::<u32>(), None);
        assert_eq!(p.expect::<u16>(), 7);
    }

    #[test]
    fn expect_arc_preserves_sharing() {
        let payload: Arc<dyn Any + Send + Sync> = Arc::new(String::from("shared"));
        let p = Packet::new(0, 8, DeliveryClass::App, 0, payload.clone());
        let arc = p.expect_arc::<String>();
        assert_eq!(*arc, "shared");
        // Both handles point at the same allocation.
        assert_eq!(Arc::strong_count(&arc), 2);
    }
}
