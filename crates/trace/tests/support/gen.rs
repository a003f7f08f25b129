//! Seeded random events and traces for the export tests and benches.

use vopp_trace::{Event, EventKind, Trace};

/// SplitMix64: tiny deterministic PRNG, seeded per case.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Mostly small ids (so begin/end events pair up in the Perfetto
    /// export), sometimes a value past 2^53, where a float loses digits.
    pub fn id(&mut self) -> u64 {
        match self.below(16) {
            0 => u64::MAX - self.below(4),
            1 => (1 << 53) + self.below(1 << 20),
            _ => self.below(6),
        }
    }

    /// An RPC tag as the transport builds it: bit 63 plus a sequence number.
    pub fn tag(&mut self) -> u64 {
        1 << 63 | self.below(5000)
    }

    /// A span name or rule label, often one the writer has to escape.
    pub fn text(&mut self) -> String {
        const POOL: [&str; 10] = [
            "",
            "view 5",
            "unbracketed",
            "say \"hi\"",
            "back\\slash",
            "line\nfeed\ttab\rreturn",
            "ctl\u{0001}\u{001f}\u{007f}",
            "héllo → 世界 😀",
            "\"",
            "\\\\\"\u{0000}",
        ];
        POOL[self.below(POOL.len() as u64) as usize].to_string()
    }
}

/// Number of [`EventKind`] variants [`event`] draws from: every declared one.
pub const KINDS: u64 = EventKind::NAMES.len() as u64;

/// One random event of variant number `variant % KINDS` at time `t`.
pub fn event(rng: &mut Rng, variant: u64, t: u64) -> Event {
    let node = rng.below(8) as usize;
    let peer = rng.below(8) as usize;
    let kind = match variant % KINDS {
        0 => EventKind::ProcStart,
        1 => EventKind::ProcExit,
        2 => EventKind::NetSend {
            dst: peer,
            wire_bytes: rng.below(1500),
            tag: rng.tag(),
            svc: rng.flip(),
        },
        3 => EventKind::NetRecv {
            src: peer,
            wire_bytes: rng.below(1500),
            tag: rng.tag(),
        },
        4 => EventKind::NetDrop {
            dst: peer,
            wire_bytes: rng.below(1500),
            overflow: rng.flip(),
        },
        5 => EventKind::Rexmit {
            dst: peer,
            tag: rng.tag(),
        },
        6 => EventKind::PageFault {
            page: rng.id(),
            write: rng.flip(),
        },
        7 => EventKind::DiffRequest {
            page: rng.id(),
            to: peer,
        },
        8 => EventKind::DiffApply {
            page: rng.id(),
            bytes: rng.below(4096),
        },
        9 => EventKind::WriteNoticeApply {
            owner: peer,
            seq: rng.id(),
            scope: rng.id(),
            pages: rng.below(64),
        },
        10 => EventKind::AcquireStart {
            view: rng.id(),
            write: rng.flip(),
        },
        11 => EventKind::AcquireEnd {
            view: rng.id(),
            write: rng.flip(),
            version: rng.id(),
            bytes: rng.below(4096),
        },
        12 => EventKind::ReleaseDone {
            view: rng.id(),
            write: rng.flip(),
        },
        13 => EventKind::ViewGrantSent {
            view: rng.id(),
            to: peer,
            version: rng.id(),
            bytes: rng.below(4096),
        },
        14 => EventKind::BarrierEnter {
            id: rng.id(),
            epoch: rng.id(),
        },
        15 => EventKind::BarrierExit {
            id: rng.id(),
            epoch: rng.id(),
            notices: rng.below(8),
        },
        16 => EventKind::LockAcquireStart { lock: rng.id() },
        17 => EventKind::LockAcquireEnd { lock: rng.id() },
        18 => EventKind::LockRelease { lock: rng.id() },
        19 => EventKind::NodeCrash {
            pages: rng.below(64),
        },
        20 => EventKind::RaceDetected {
            page: rng.id(),
            other: peer,
            start: rng.next_u64(),
            end: rng.next_u64(),
            write: rng.flip(),
        },
        21 => EventKind::DisciplineViolation {
            rule: rng.text(),
            page: rng.id(),
            start: rng.next_u64(),
            end: rng.next_u64(),
            write: rng.flip(),
        },
        22 => EventKind::ServeRequest {
            shard: rng.id(),
            write: rng.flip(),
            latency_ns: rng.below(50_000_000),
        },
        23 => EventKind::SpanBegin {
            name: rng.text().into(),
        },
        _ => EventKind::SpanEnd {
            name: rng.text().into(),
        },
    };
    Event { t, node, kind }
}

/// Where the trace of `seed` starts: at 0, or a few hundred microseconds
/// before 2^50 (where the exporters' microsecond text stops being made
/// from integers), 2^52 or 2^53 (where `f64` stops holding every
/// nanosecond), or anywhere below 2^62. A trace of a few hundred events
/// crosses the edge it starts before.
pub fn start_time(seed: u64) -> u64 {
    match seed % 5 {
        0 => 0,
        1 => (1 << 50) - 300_000,
        2 => (1 << 52) - 300_000,
        3 => (1 << 53) - 300_000,
        _ => Rng(seed).next_u64() >> 2,
    }
}

/// `n` random events of random variants in time order from
/// [`start_time`]; the steps are not whole microseconds, so the Perfetto
/// timestamps carry fractions.
pub fn trace(seed: u64, n: usize) -> Trace {
    let mut rng = Rng(seed);
    let mut t = start_time(seed);
    let events = (0..n)
        .map(|_| {
            t += rng.below(3000);
            let variant = rng.next_u64();
            event(&mut rng, variant, t)
        })
        .collect();
    Trace {
        events,
        evicted: rng.below(3),
    }
}
