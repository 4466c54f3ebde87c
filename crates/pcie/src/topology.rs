//! PCIe tree topology: root complex, switches, bump-in-the-wire
//! multiplexers, and endpoint devices, connected by [`LinkSpec`] links.

use crate::link::LinkSpec;
use dmx_sim::{FastMap, Time};
use std::collections::hash_map::Entry;
use std::fmt;

/// Errors the fabric model can report instead of panicking.
///
/// The hot paths ([`Topology::route`], [`crate::FlowNet::insert`]) keep
/// their panicking signatures for ergonomic use from the simulator, but
/// each is a thin wrapper over a `try_*` variant returning this error,
/// so callers that must survive malformed inputs (e.g. fuzzing, fault
/// injection with dead nodes) can handle them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// A non-root node had no parent link: the tree is malformed.
    OrphanNode(NodeId),
    /// A node id out of range for this topology.
    UnknownNode(NodeId),
    /// A route referenced a link the flow network does not know.
    UnknownLink(LinkId),
    /// A flow was inserted over an empty route.
    EmptyRoute,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::OrphanNode(n) => {
                write!(
                    f,
                    "malformed topology: non-root node {} has no parent",
                    n.index()
                )
            }
            FabricError::UnknownNode(n) => write!(f, "unknown node {}", n.index()),
            FabricError::UnknownLink(l) => write!(f, "route references unknown link {}", l.index()),
            FabricError::EmptyRoute => write!(
                f,
                "flows must cross at least one link; model local copies separately"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (stable for the lifetime of the topology).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Index of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Raw index (stable for the lifetime of the topology).
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates a link id from a raw index. Only meaningful together with
    /// a [`crate::FlowNet`] built from the same bandwidth vector.
    pub fn from_index(index: usize) -> LinkId {
        LinkId(index)
    }
}

/// What a topology node is. Traversal latency differs per kind:
/// a PCIe switch costs 110 ns port-to-port (Sec. VII.B), the
/// bump-in-the-wire DRX's internal dual-port multiplexer is a much
/// cheaper pass-through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The CPU root complex.
    RootComplex,
    /// A PCIe switch.
    Switch,
    /// The internal PCIe multiplexer of a bump-in-the-wire DRX
    /// (pass-through for traffic not destined to the DRX).
    Mux,
    /// A leaf device: an accelerator, a DRX, or the host DMA target.
    Device,
}

impl NodeKind {
    /// Latency for a transaction to traverse *through* this node
    /// (not charged at route endpoints).
    pub fn traversal_latency(self) -> Time {
        match self {
            // Port-to-port latency tax of a PCIe switch (Sec. VII.B).
            NodeKind::Switch => Time::from_ns(110),
            // Pass-through mux of a bump-in-the-wire DRX (Fig. 10 step 10).
            NodeKind::Mux => Time::from_ns(25),
            NodeKind::RootComplex => Time::from_ns(50),
            NodeKind::Device => Time::ZERO,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    /// The label's name and its index parts: `("mux", [0, 1], 2)`
    /// reads `mux0.1`. Formatted only when read.
    name: &'static str,
    index: [usize; 2],
    index_len: usize,
    parent: Option<(NodeId, LinkId)>,
    depth: usize,
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        for (k, i) in self.index[..self.index_len].iter().enumerate() {
            if k > 0 {
                f.write_str(".")?;
            }
            write!(f, "{i}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Edge {
    spec: LinkSpec,
    child: NodeId,
}

/// A routed path between two nodes: the links it crosses, the
/// intermediate nodes it traverses, and the accumulated fixed latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Links crossed, in order from source to destination.
    pub links: Vec<LinkId>,
    /// Nodes traversed *between* the endpoints, in order.
    pub via: Vec<NodeId>,
    /// Sum of traversal latencies of `via` nodes.
    pub latency: Time,
}

impl Route {
    /// An empty route (source == destination).
    pub fn empty() -> Route {
        Route {
            links: Vec::new(),
            via: Vec::new(),
            latency: Time::ZERO,
        }
    }

    /// Number of links crossed.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }
}

/// A PCIe device tree.
///
/// Build it top-down from the root complex:
///
/// ```
/// use dmx_pcie::{Gen, Lanes, LinkSpec, NodeKind, Topology};
/// let mut topo = Topology::new();
/// let root = topo.root();
/// let up = LinkSpec::new(Gen::Gen3, Lanes::X8);
/// let down = LinkSpec::new(Gen::Gen3, Lanes::X16);
/// let sw = topo.add_node(NodeKind::Switch, "switch", &[0], root, up);
/// let a = topo.add_node(NodeKind::Device, "accel", &[0, 0], sw, down);
/// let b = topo.add_node(NodeKind::Device, "accel", &[0, 1], sw, down);
/// assert_eq!(topo.label(b), "accel0.1");
/// let route = topo.route(a, b);
/// assert_eq!(route.hop_count(), 2);          // a->switch, switch->b
/// assert_eq!(route.via, vec![sw]);           // through one switch
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Edge>,
}

impl Topology {
    /// Creates a topology containing only the root complex.
    pub fn new() -> Topology {
        Topology {
            nodes: vec![Node {
                kind: NodeKind::RootComplex,
                name: "root",
                index: [0; 2],
                index_len: 0,
                parent: None,
                depth: 0,
            }],
            links: Vec::new(),
        }
    }

    /// The root complex node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Adds a node of `kind` under `parent`, connected by `link`,
    /// labelled `name` followed by the `index` parts joined by dots
    /// (`"mux", &[0, 1]` reads `mux0.1`). Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or a `Device` (leaves cannot
    /// have children), or if `index` has more than two parts.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        name: &'static str,
        index: &[usize],
        parent: NodeId,
        link: LinkSpec,
    ) -> NodeId {
        let mut parts = [0; 2];
        assert!(
            index.len() <= parts.len(),
            "a label has at most two index parts"
        );
        parts[..index.len()].copy_from_slice(index);
        assert!(parent.0 < self.nodes.len(), "parent out of range");
        assert!(
            self.nodes[parent.0].kind != NodeKind::Device,
            "devices are leaves and cannot have children"
        );
        let id = NodeId(self.nodes.len());
        let link_id = LinkId(self.links.len());
        self.links.push(Edge {
            spec: link,
            child: id,
        });
        let depth = self.nodes[parent.0].depth + 1;
        self.nodes.push(Node {
            kind,
            name,
            index: parts,
            index_len: index.len(),
            parent: Some((parent, link_id)),
            depth,
        });
        id
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0].kind
    }

    /// The label a node was created with, formatted.
    pub fn label(&self, node: NodeId) -> String {
        self.nodes[node.0].to_string()
    }

    /// The parent of a node, with the connecting link.
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, LinkId)> {
        self.nodes[node.0].parent
    }

    /// Bandwidths of every link, indexed by [`LinkId::index`]; the shape
    /// expected by [`crate::FlowNet::new`].
    pub fn link_bandwidths(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.spec.bytes_per_sec()).collect()
    }

    /// Computes the unique tree route from `src` to `dst` by walking
    /// both nodes up to their lowest common ancestor. Callers that look
    /// up the same pairs again keep a [`RouteMemo`].
    ///
    /// The route lists links in traversal order and every intermediate
    /// node (whose traversal latencies are summed into `Route::latency`).
    /// The endpoints themselves contribute no traversal latency.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node ids or a malformed tree; use
    /// [`Topology::try_route`] to handle those as errors.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        match self.try_route(src, dst) {
            Ok(r) => r,
            Err(e) => panic!("Topology::route({src:?} -> {dst:?}) failed: {e}"),
        }
    }

    /// Fallible variant of [`Topology::route`].
    pub fn try_route(&self, src: NodeId, dst: NodeId) -> Result<Route, FabricError> {
        let mut links = Vec::new();
        let latency = self.walk(src, dst, &mut links)?;
        // Consecutive links share one node: the first's child end where
        // the path descends through it, else its parent end (the path
        // climbs through it or turns there).
        let ends = |l: LinkId| {
            let child = self.links[l.0].child;
            let (parent, _) = self.nodes[child.0]
                .parent
                .expect("a link's child has a parent");
            (parent, child)
        };
        let via = links
            .windows(2)
            .map(|w| {
                let ((pa, ca), (pb, _)) = (ends(w[0]), ends(w[1]));
                if ca == pb {
                    ca
                } else {
                    pa
                }
            })
            .collect();
        Ok(Route {
            links,
            via,
            latency,
        })
    }

    /// Walks the tree route from `src` to `dst`, appending its links
    /// to `links` in traversal order, and returns its fixed latency:
    /// the traversal latencies of the nodes strictly between the
    /// endpoints. On error `links` is left as it was.
    fn walk(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) -> Result<Time, FabricError> {
        for n in [src, dst] {
            if n.0 >= self.nodes.len() {
                return Err(FabricError::UnknownNode(n));
            }
        }
        let parent_of = |n: NodeId| -> Result<(NodeId, LinkId), FabricError> {
            self.nodes[n.0].parent.ok_or(FabricError::OrphanNode(n))
        };
        let depth = |n: NodeId| self.nodes[n.0].depth;
        // The lowest common ancestor: climb the deeper node to the
        // other's depth, then both together.
        let (mut a, mut b) = (src, dst);
        while depth(a) > depth(b) {
            a = parent_of(a)?.0;
        }
        while depth(b) > depth(a) {
            b = parent_of(b)?.0;
        }
        while a != b {
            a = parent_of(a)?.0;
            b = parent_of(b)?.0;
        }
        let lca = a;
        // Both climbs again, now known to reach the ancestor: up from
        // `src` in traversal order, then up from `dst`, reversed.
        let mut latency = Time::ZERO;
        for (from, reverse) in [(src, false), (dst, true)] {
            let start = links.len();
            let mut n = from;
            while n != lca {
                let (p, l) = parent_of(n)?;
                links.push(l);
                if p != lca {
                    latency += self.nodes[p.0].kind.traversal_latency();
                }
                n = p;
            }
            if reverse {
                links[start..].reverse();
            }
        }
        // The ancestor is crossed once, unless it is an endpoint.
        if lca != src && lca != dst {
            latency += self.nodes[lca.0].kind.traversal_latency();
        }
        Ok(latency)
    }

    /// True when `node` lies in the subtree rooted at `ancestor`
    /// (inclusive: a node is in its own subtree).
    pub fn in_subtree(&self, node: NodeId, ancestor: NodeId) -> bool {
        let mut n = node;
        loop {
            if n == ancestor {
                return true;
            }
            match self.nodes.get(n.0).and_then(|x| x.parent) {
                Some((p, _)) => n = p,
                None => return false,
            }
        }
    }

    /// Every link inside the subtree rooted at `node`, *including* the
    /// subtree's own uplink: when a switch surprise-disappears, traffic
    /// on its uplink dies with it. Returned in link-id order.
    pub fn subtree_links(&self, node: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, e)| self.in_subtree(e.child, node))
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Bottleneck (minimum) bandwidth along a route, in bytes/second.
    /// Returns `None` for an empty route.
    pub fn route_bottleneck(&self, route: &Route) -> Option<u64> {
        route
            .links
            .iter()
            .map(|l| self.links[l.0].spec.bytes_per_sec())
            .min()
    }
}

/// The routes of one [`Topology`], memoized by `(src, dst)`: a pair's
/// first lookup walks the tree into one shared link buffer, every
/// later one is a single hash probe that returns the stored links by
/// reference. The tree is append-only (nodes are never re-parented and
/// traversal latencies are fixed per kind), so an entry never goes
/// stale as the topology grows or its links change generation. Errors
/// are returned, not stored.
///
/// ```
/// use dmx_pcie::{Gen, Lanes, LinkSpec, NodeKind, RouteMemo, Topology};
/// let mut topo = Topology::new();
/// let link = LinkSpec::new(Gen::Gen3, Lanes::X16);
/// let a = topo.add_node(NodeKind::Device, "a", &[], topo.root(), link);
/// let mut memo = RouteMemo::default();
/// let walked = topo.route(a, topo.root());
/// assert_eq!(
///     memo.route(&topo, a, topo.root()),
///     Ok((&walked.links[..], walked.latency))
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteMemo {
    /// Per walked pair: its span of `links` and its latency.
    spans: FastMap<(NodeId, NodeId), (usize, usize, Time)>,
    /// Every walked route's links, back to back.
    links: Vec<LinkId>,
}

impl RouteMemo {
    /// The links and latency of the route from `src` to `dst` in
    /// `topo`, the topology this memo serves: exactly
    /// [`Topology::try_route`]'s `links` and `latency`, errors
    /// included.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(&[LinkId], Time), FabricError> {
        let (start, end, latency) = match self.spans.entry((src, dst)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let start = self.links.len();
                let latency = topo.walk(src, dst, &mut self.links)?;
                *e.insert((start, self.links.len(), latency))
            }
        };
        Ok((&self.links[start..end], latency))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            topo: &Topology,
            node: NodeId,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let n = &topo.nodes[node.0];
            let link = match n.parent {
                Some((_, l)) => format!(" <- {}", topo.links[l.0].spec),
                None => String::new(),
            };
            writeln!(
                f,
                "{:indent$}{:?} {}{}",
                "",
                n.kind,
                n,
                link,
                indent = indent
            )?;
            for (i, e) in topo.links.iter().enumerate() {
                let _ = i;
                if topo.nodes[e.child.0].parent.map(|(p, _)| p) == Some(node) {
                    rec(topo, e.child, indent + 2, f)?;
                }
            }
            Ok(())
        }
        rec(self, self.root(), 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Gen, Lanes};

    fn two_switch_topo() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // root -- sw0 -- a0, a1
        //      \- sw1 -- b0
        let mut t = Topology::new();
        let up = LinkSpec::new(Gen::Gen3, Lanes::X8);
        let down = LinkSpec::new(Gen::Gen3, Lanes::X16);
        let root = t.root();
        let sw0 = t.add_node(NodeKind::Switch, "sw", &[0], root, up);
        let sw1 = t.add_node(NodeKind::Switch, "sw", &[1], root, up);
        let a0 = t.add_node(NodeKind::Device, "a", &[0], sw0, down);
        let a1 = t.add_node(NodeKind::Device, "a", &[1], sw0, down);
        let b0 = t.add_node(NodeKind::Device, "b", &[0], sw1, down);
        (t, root, sw0, sw1, a0, a1, b0)
    }

    #[test]
    fn route_same_node_is_empty() {
        let (t, _, _, _, a0, _, _) = two_switch_topo();
        let r = t.route(a0, a0);
        assert_eq!(r, Route::empty());
        assert!(t.route_bottleneck(&r).is_none());
    }

    #[test]
    fn route_under_one_switch() {
        let (t, _, sw0, _, a0, a1, _) = two_switch_topo();
        let r = t.route(a0, a1);
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.via, vec![sw0]);
        assert_eq!(r.latency, Time::from_ns(110));
    }

    #[test]
    fn route_across_switches_goes_through_root() {
        let (t, root, sw0, sw1, a0, _, b0) = two_switch_topo();
        let r = t.route(a0, b0);
        assert_eq!(r.hop_count(), 4);
        assert_eq!(r.via, vec![sw0, root, sw1]);
        // 110 (sw0) + 50 (root) + 110 (sw1)
        assert_eq!(r.latency, Time::from_ns(270));
    }

    #[test]
    fn route_device_to_root() {
        let (t, root, sw0, _, a0, _, _) = two_switch_topo();
        let r = t.route(a0, root);
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.via, vec![sw0]);
        let back = t.route(root, a0);
        assert_eq!(back.hop_count(), 2);
        assert_eq!(back.via, vec![sw0]);
        // Same links in reverse order.
        let mut fwd = r.links.clone();
        fwd.reverse();
        assert_eq!(fwd, back.links);
    }

    #[test]
    fn bottleneck_is_upstream_x8() {
        let (t, root, _, _, a0, _, _) = two_switch_topo();
        let r = t.route(a0, root);
        let bw = t.route_bottleneck(&r).unwrap();
        assert_eq!(bw, LinkSpec::new(Gen::Gen3, Lanes::X8).bytes_per_sec());
    }

    #[test]
    fn mux_traversal_cheaper_than_switch() {
        assert!(NodeKind::Mux.traversal_latency() < NodeKind::Switch.traversal_latency());
    }

    #[test]
    #[should_panic(expected = "devices are leaves")]
    fn devices_cannot_have_children() {
        let (mut t, _, _, _, a0, _, _) = two_switch_topo();
        t.add_node(
            NodeKind::Device,
            "bad",
            &[],
            a0,
            LinkSpec::new(Gen::Gen3, Lanes::X1),
        );
    }

    #[test]
    fn try_route_rejects_unknown_nodes() {
        let (t, _, _, _, a0, _, _) = two_switch_topo();
        let bogus = NodeId(999);
        assert_eq!(t.try_route(a0, bogus), Err(FabricError::UnknownNode(bogus)));
        assert_eq!(t.try_route(bogus, a0), Err(FabricError::UnknownNode(bogus)));
        assert!(t.try_route(a0, a0).unwrap().links.is_empty());
        let msg = FabricError::UnknownNode(bogus).to_string();
        assert!(msg.contains("999"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn route_panics_on_unknown_node() {
        let (t, _, _, _, a0, _, _) = two_switch_topo();
        t.route(a0, NodeId(999));
    }

    /// A memo's answer as owned parts.
    fn parts(
        r: Result<(&[LinkId], Time), FabricError>,
    ) -> Result<(Vec<LinkId>, Time), FabricError> {
        r.map(|(links, latency)| (links.to_vec(), latency))
    }

    /// The parts of a walked route a memo answers with.
    fn walked(r: &Route) -> Result<(Vec<LinkId>, Time), FabricError> {
        Ok((r.links.clone(), r.latency))
    }

    #[test]
    fn memoized_routes_match_fresh_walks_after_growth() {
        let (mut t, root, _, _, a0, _, b0) = two_switch_topo();
        let mut memo = RouteMemo::default();
        let first = t.route(a0, b0);
        assert_eq!(parts(memo.route(&t, a0, b0)), walked(&first));
        // Growing the tree must not invalidate memoized routes (nodes
        // are never re-parented).
        let sw2 = t.add_node(
            NodeKind::Switch,
            "sw",
            &[2],
            root,
            LinkSpec::new(Gen::Gen3, Lanes::X8),
        );
        let c0 = t.add_node(
            NodeKind::Device,
            "c",
            &[0],
            sw2,
            LinkSpec::new(Gen::Gen3, Lanes::X16),
        );
        assert_eq!(parts(memo.route(&t, a0, b0)), walked(&first));
        assert_eq!(t.route(a0, b0), first);
        assert_eq!(t.route(a0, b0), t.clone().route(a0, b0));
        // A route to the new subtree computes and memoizes fine.
        let r = t.route(a0, c0);
        assert_eq!(parts(memo.route(&t, a0, c0)), walked(&r));
        assert_eq!(parts(memo.route(&t, a0, c0)), walked(&r));
        assert_eq!(r.via, vec![NodeId(1), root, sw2]);
    }

    #[test]
    fn subtree_membership_and_links() {
        let (t, root, sw0, sw1, a0, a1, b0) = two_switch_topo();
        assert!(t.in_subtree(a0, sw0));
        assert!(t.in_subtree(a1, sw0));
        assert!(t.in_subtree(sw0, sw0), "subtrees are inclusive");
        assert!(!t.in_subtree(b0, sw0));
        assert!(!t.in_subtree(sw0, sw1));
        assert!(t.in_subtree(b0, root), "everything is under the root");
        assert!(!t.in_subtree(NodeId(999), sw0), "unknown nodes are nowhere");

        // sw0's subtree: its own uplink plus the a0/a1 downlinks.
        let links = t.subtree_links(sw0);
        assert_eq!(links.len(), 3);
        let uplink = t.parent(sw0).unwrap().1;
        assert!(links.contains(&uplink), "uplink dies with the switch");
        assert!(links.contains(&t.parent(a0).unwrap().1));
        assert!(links.contains(&t.parent(a1).unwrap().1));
        assert!(!links.contains(&t.parent(b0).unwrap().1));
        // A leaf's subtree is exactly its own uplink.
        assert_eq!(t.subtree_links(b0), vec![t.parent(b0).unwrap().1]);
        // The root's subtree is every link.
        assert_eq!(t.subtree_links(root).len(), t.link_count());
    }

    #[test]
    fn display_renders_tree() {
        let (t, ..) = two_switch_topo();
        let s = t.to_string();
        assert!(s.contains("root"));
        assert!(s.contains("sw0"));
        assert!(s.contains("a1"));
    }

    #[test]
    fn labels_join_their_index_parts() {
        let (mut t, root, sw0, ..) = two_switch_topo();
        let link = LinkSpec::new(Gen::Gen3, Lanes::X16);
        let mux = t.add_node(NodeKind::Mux, "mux", &[3, 14], sw0, link);
        assert_eq!(t.label(root), "root");
        assert_eq!(t.label(sw0), "sw0");
        assert_eq!(t.label(mux), "mux3.14");
    }
}
