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
    label: String,
    parent: Option<(NodeId, LinkId)>,
    depth: usize,
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
/// let sw = topo.add_node(NodeKind::Switch, "switch0", root, up);
/// let a = topo.add_node(NodeKind::Device, "accel0", sw, down);
/// let b = topo.add_node(NodeKind::Device, "accel1", sw, down);
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
                label: "root".to_owned(),
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

    /// Adds a node of `kind` under `parent`, connected by `link`.
    /// Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or a `Device` (leaves cannot
    /// have children).
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        label: impl Into<String>,
        parent: NodeId,
        link: LinkSpec,
    ) -> NodeId {
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
            label: label.into(),
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

    /// The label a node was created with.
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node.0].label
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
        for n in [src, dst] {
            if n.0 >= self.nodes.len() {
                return Err(FabricError::UnknownNode(n));
            }
        }
        let parent_of = |n: NodeId| -> Result<(NodeId, LinkId), FabricError> {
            self.nodes[n.0].parent.ok_or(FabricError::OrphanNode(n))
        };
        // Walk both nodes up to their lowest common ancestor.
        let mut up_links = Vec::new(); // src -> lca
        let mut up_nodes = Vec::new();
        let mut down_links = Vec::new(); // dst -> lca (reversed later)
        let mut down_nodes = Vec::new();
        let mut a = src;
        let mut b = dst;
        while self.nodes[a.0].depth > self.nodes[b.0].depth {
            let (p, l) = parent_of(a)?;
            up_links.push(l);
            up_nodes.push(p);
            a = p;
        }
        while self.nodes[b.0].depth > self.nodes[a.0].depth {
            let (p, l) = parent_of(b)?;
            down_links.push(l);
            down_nodes.push(p);
            b = p;
        }
        while a != b {
            let (pa, la) = parent_of(a)?;
            let (pb, lb) = parent_of(b)?;
            up_links.push(la);
            up_nodes.push(pa);
            down_links.push(lb);
            down_nodes.push(pb);
            a = pa;
            b = pb;
        }
        // Both climbs end at the LCA. Count it as an intermediate node
        // exactly once — and not at all when it is itself an endpoint
        // (dst an ancestor of src, or vice versa).
        let mut via = up_nodes;
        if down_nodes.pop().is_none() {
            // dst == LCA: the climb from src ended *at* the destination.
            via.pop();
        }
        via.extend(down_nodes.into_iter().rev());
        let mut links = up_links;
        links.extend(down_links.into_iter().rev());
        let latency = via
            .iter()
            .map(|n| self.nodes[n.0].kind.traversal_latency())
            .sum();
        Ok(Route {
            links,
            via,
            latency,
        })
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
/// first lookup walks the tree, every later one is a single hash probe
/// that returns the stored route by reference. The tree is append-only
/// (nodes are never re-parented and traversal latencies are fixed per
/// kind), so an entry never goes stale as the topology grows or its
/// links change generation. Errors are returned, not stored.
///
/// ```
/// use dmx_pcie::{Gen, Lanes, LinkSpec, NodeKind, RouteMemo, Topology};
/// let mut topo = Topology::new();
/// let link = LinkSpec::new(Gen::Gen3, Lanes::X16);
/// let a = topo.add_node(NodeKind::Device, "a", topo.root(), link);
/// let mut memo = RouteMemo::default();
/// assert_eq!(memo.route(&topo, a, topo.root()), Ok(&topo.route(a, topo.root())));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteMemo {
    routes: FastMap<(NodeId, NodeId), Route>,
}

impl RouteMemo {
    /// The route from `src` to `dst` in `topo`, the topology this memo
    /// serves: exactly [`Topology::try_route`]'s result, errors
    /// included.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<&Route, FabricError> {
        match self.routes.entry((src, dst)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(topo.try_route(src, dst)?)),
        }
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
                n.label,
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
        let sw0 = t.add_node(NodeKind::Switch, "sw0", root, up);
        let sw1 = t.add_node(NodeKind::Switch, "sw1", root, up);
        let a0 = t.add_node(NodeKind::Device, "a0", sw0, down);
        let a1 = t.add_node(NodeKind::Device, "a1", sw0, down);
        let b0 = t.add_node(NodeKind::Device, "b0", sw1, down);
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

    #[test]
    fn memoized_routes_match_fresh_walks_after_growth() {
        let (mut t, root, _, _, a0, _, b0) = two_switch_topo();
        let mut memo = RouteMemo::default();
        let first = memo.route(&t, a0, b0).unwrap().clone();
        assert_eq!(first, t.route(a0, b0));
        // Growing the tree must not invalidate memoized routes (nodes
        // are never re-parented).
        let sw2 = t.add_node(
            NodeKind::Switch,
            "sw2",
            root,
            LinkSpec::new(Gen::Gen3, Lanes::X8),
        );
        let c0 = t.add_node(
            NodeKind::Device,
            "c0",
            sw2,
            LinkSpec::new(Gen::Gen3, Lanes::X16),
        );
        assert_eq!(memo.route(&t, a0, b0), Ok(&first));
        assert_eq!(t.route(a0, b0), first);
        assert_eq!(t.route(a0, b0), t.clone().route(a0, b0));
        // A route to the new subtree computes and memoizes fine.
        let r = t.route(a0, c0);
        assert_eq!(memo.route(&t, a0, c0), Ok(&r));
        assert_eq!(memo.route(&t, a0, c0), Ok(&r));
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
}
