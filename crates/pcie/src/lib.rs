//! # dmx-pcie — PCIe fabric model
//!
//! Everything the DMX system simulator needs to know about PCIe:
//!
//! * [`LinkSpec`] — generation × lane-width bandwidth math
//!   (Gen3/4/5, x1..x16, 128b/130b encoding);
//! * [`Topology`] — the device tree (root complex, switches,
//!   bump-in-the-wire muxes, endpoint devices) with tree routing and the
//!   110 ns switch port-to-port latency the paper charges per traversal;
//! * [`FlowNet`] — a max-min fair fluid model of concurrent DMA
//!   transfers, which is where PCIe bandwidth contention (the Multi-Axl
//!   baseline's bottleneck) emerges;
//! * [`PcieEnergyModel`] — per-bit transfer energy and switch static
//!   power for the Fig. 15 energy comparison.
//!
//! ## Example
//!
//! ```
//! use dmx_pcie::{FlowNet, Gen, Lanes, LinkSpec, NodeKind, Topology};
//! use dmx_sim::Time;
//!
//! // A server: root complex, one switch, two accelerators.
//! let mut topo = Topology::new();
//! let sw = topo.add_node(NodeKind::Switch, "sw", &[], topo.root(),
//!                        LinkSpec::new(Gen::Gen3, Lanes::X8));
//! let a = topo.add_node(NodeKind::Device, "a", &[], sw,
//!                       LinkSpec::new(Gen::Gen3, Lanes::X16));
//! let b = topo.add_node(NodeKind::Device, "b", &[], sw,
//!                       LinkSpec::new(Gen::Gen3, Lanes::X16));
//!
//! // Move 1 MiB from a to b: two x16 hops under the switch.
//! let route = topo.route(a, b);
//! let mut net = FlowNet::new(topo.link_bandwidths());
//! net.insert(Time::ZERO, 1, 1 << 20, &route.links);
//! let done = net.next_event(Time::ZERO).unwrap() + route.latency;
//! assert!(done > Time::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backpressure;
pub mod energy;
pub mod flow;
pub mod internode;
pub mod link;
pub mod replay;
pub mod topology;

pub use backpressure::{CreditGate, CreditToken};
pub use energy::{Joules, PcieEnergyModel};
pub use flow::{FlowId, FlowNet};
pub use internode::{InterNodeFabric, InterNodeLink, LinkOutage};
pub use link::{Gen, Lanes, LinkSpec};
pub use replay::{transfer_faults, ReplayParams, TransferFaults};
pub use topology::{FabricError, LinkId, NodeId, NodeKind, Route, RouteMemo, Topology};
