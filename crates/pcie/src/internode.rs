//! Inter-node links: the network hop between DMX servers in a fleet.
//!
//! Inside one server, chains ride the PCIe tree modeled by
//! [`Topology`](crate::topology::Topology) / [`FlowNet`](crate::flow::FlowNet).
//! Between servers — load balancer to server, server to server — traffic
//! crosses a datacenter network link instead. This module models that hop
//! just precisely enough for fleet simulation:
//!
//! * a fixed one-way **base latency** (propagation + NIC + switch
//!   traversal + kernel/NIC doorbell overhead), and
//! * a **serialization** term, `bytes / bandwidth`, for the message body.
//!
//! The base latency doubles as the **lookahead** of conservative
//! partitioned execution (`dmx_sim::partition`): no message between two
//! nodes can arrive sooner than the smallest base latency in the fleet,
//! so every partition may safely advance `min_base_latency` past the
//! global minimum event time. [`InterNodeFabric::lookahead`] extracts
//! exactly that bound; it deliberately ignores the serialization term
//! (a zero-byte message is still a legal message).

use dmx_sim::{transfer_time, Time};

/// One direction of a network link between two fleet nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterNodeLink {
    /// One-way base latency applied to every message regardless of size.
    pub base_latency: Time,
    /// Body bandwidth in bytes per second.
    pub bytes_per_sec: u64,
}

impl InterNodeLink {
    /// A software-load-balancer hop over 25GbE inside one rack:
    /// ~25 µs one way (kernel network stack + ToR switch), 25 Gb/s of
    /// body bandwidth. The default fleet fabric.
    pub fn rack_25g() -> InterNodeLink {
        InterNodeLink {
            base_latency: Time::from_us(25),
            bytes_per_sec: 25_000_000_000 / 8,
        }
    }

    /// A custom link.
    pub fn new(base_latency: Time, bytes_per_sec: u64) -> InterNodeLink {
        InterNodeLink {
            base_latency,
            bytes_per_sec,
        }
    }

    /// One-way delivery time for a `bytes`-byte message: base latency
    /// plus serialization.
    pub fn delivery_time(&self, bytes: u64) -> Time {
        self.base_latency + transfer_time(bytes, self.bytes_per_sec)
    }
}

/// A scheduled window during which one fleet node's network hop is
/// *dark*: messages handed to the link while the window covers their
/// send instant are lost in both directions — dispatches never reach
/// the server, resolutions never reach the load balancer. Unlike a
/// server crash, the server itself keeps running; only the LB's view
/// of it goes silent, which is exactly the failure a per-request LB
/// timeout plus cross-server re-dispatch exists to cover.
///
/// Losing a message never shrinks the conservative lookahead — a lost
/// message is one that arrives never, which trivially satisfies
/// "no earlier than `t + lookahead`" — so outage schedules compose
/// with `dmx_sim::partition` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// When the hop goes dark.
    pub at: Time,
    /// Outage length; `None` means the hop never recovers.
    pub down_for: Option<Time>,
}

impl LinkOutage {
    /// True when the window covers instant `t` (a message *sent* at
    /// `t` is lost; delivery-side checks would double-drop).
    pub fn covers(&self, t: Time) -> bool {
        t >= self.at && self.down_for.map(|d| t < self.at + d).unwrap_or(true)
    }
}

/// The inter-node fabric of a fleet: a star — every server connects to
/// the front-end load balancer over the same link class. (A star is the
/// topology software load balancers induce; per-pair links can be added
/// later without changing the lookahead contract.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterNodeFabric {
    /// The LB↔server link, both directions.
    pub link: InterNodeLink,
}

impl InterNodeFabric {
    /// A fabric where every hop uses `link`.
    pub fn uniform(link: InterNodeLink) -> InterNodeFabric {
        InterNodeFabric { link }
    }

    /// The conservative-execution lookahead: the minimum base latency
    /// over every inter-node hop. Any cross-partition message sent at
    /// local time `t` arrives no earlier than `t + lookahead`, which is
    /// the promise `dmx_sim::partition::run_conservative` verifies at
    /// every window barrier.
    pub fn lookahead(&self) -> Time {
        self.link.base_latency
    }

    /// Delivery time of a `bytes`-byte message on the LB↔server hop.
    pub fn delivery_time(&self, bytes: u64) -> Time {
        self.link.delivery_time(bytes)
    }
}

impl Default for InterNodeFabric {
    fn default() -> InterNodeFabric {
        InterNodeFabric::uniform(InterNodeLink::rack_25g())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_time_is_latency_plus_serialization() {
        let l = InterNodeLink::new(Time::from_us(10), 1_000_000_000);
        assert_eq!(l.delivery_time(0), Time::from_us(10));
        // 1 MB at 1 GB/s = 1 ms on top of the base 10 µs.
        assert_eq!(
            l.delivery_time(1_000_000),
            Time::from_us(10) + Time::from_ms(1)
        );
    }

    #[test]
    fn rack_hop_dominates_rdma_hop() {
        let rack = InterNodeLink::rack_25g();
        // A kernel-bypass RDMA-class hop: ~3 µs one way, 100 Gb/s.
        let rdma = InterNodeLink::new(Time::from_us(3), 100_000_000_000 / 8);
        assert!(rack.base_latency > rdma.base_latency);
        assert!(rack.bytes_per_sec < rdma.bytes_per_sec);
        assert!(rack.delivery_time(4096) > rdma.delivery_time(4096));
    }

    #[test]
    fn lookahead_is_base_latency_not_serialization() {
        let fab = InterNodeFabric::uniform(InterNodeLink::new(Time::from_us(7), 1));
        // Bandwidth of 1 B/s would make serialization enormous, but
        // lookahead only promises the size-independent floor.
        assert_eq!(fab.lookahead(), Time::from_us(7));
    }

    #[test]
    fn outage_window_covers_send_instants() {
        let w = LinkOutage {
            at: Time::from_ms(10),
            down_for: Some(Time::from_ms(5)),
        };
        assert!(!w.covers(Time::from_ms(9)));
        assert!(w.covers(Time::from_ms(10)));
        assert!(w.covers(Time::from_us(14_999)));
        assert!(!w.covers(Time::from_ms(15)));
        let forever = LinkOutage {
            at: Time::from_ms(10),
            down_for: None,
        };
        assert!(forever.covers(Time::from_secs_f64(1e6)));
    }

    #[test]
    fn default_fabric_is_rack_star() {
        let fab = InterNodeFabric::default();
        assert_eq!(fab.lookahead(), Time::from_us(25));
        assert_eq!(fab.delivery_time(0), Time::from_us(25));
    }
}
