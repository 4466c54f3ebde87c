//! Property-based tests of the PCIe fabric: routing on random trees and
//! max-min fairness of the flow network, on the in-tree deterministic
//! harness (`dmx_sim::check`).

use dmx_pcie::{
    FabricError, FlowNet, Gen as PcieGen, Lanes, LinkSpec, NodeId, NodeKind, Route, RouteMemo,
    Topology,
};
use dmx_sim::{cases, run_cases, Time};

fn n_cases() -> usize {
    cases(if cfg!(feature = "heavy-tests") {
        512
    } else {
        64
    })
}

/// Builds a random two-level tree: one switch per entry of
/// `switch_sizes` under the root, each with that many devices.
fn random_tree(switch_sizes: &[usize]) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let up = LinkSpec::new(PcieGen::Gen3, Lanes::X8);
    let down = LinkSpec::new(PcieGen::Gen3, Lanes::X16);
    let mut devices = Vec::new();
    for (i, &n) in switch_sizes.iter().enumerate() {
        let sw = topo.add_node(NodeKind::Switch, "sw", &[i], topo.root(), up);
        for j in 0..n {
            devices.push(topo.add_node(NodeKind::Device, "d", &[i, j], sw, down));
        }
    }
    (topo, devices)
}

/// Tree routes are symmetric in length and latency, stay within the
/// link table, and the same-switch/cross-switch hop counts are exactly
/// 2 and 4.
#[test]
fn routes_on_random_trees() {
    run_cases("pcie::routes_on_random_trees", n_cases(), |g| {
        let sizes = g.vec(1, 5, |g| g.usize_in(1, 5));
        let (topo, devices) = random_tree(&sizes);
        let a = devices[g.usize_in(0, 100) % devices.len()];
        let b = devices[g.usize_in(0, 100) % devices.len()];
        let fwd = topo.route(a, b);
        let back = topo.route(b, a);
        assert_eq!(fwd.hop_count(), back.hop_count());
        assert_eq!(fwd.latency, back.latency);
        for l in &fwd.links {
            assert!(l.index() < topo.link_count());
        }
        if a == b {
            assert_eq!(fwd.hop_count(), 0);
        } else {
            let same_switch = topo.parent(a).map(|(p, _)| p) == topo.parent(b).map(|(p, _)| p);
            assert_eq!(fwd.hop_count(), if same_switch { 2 } else { 4 });
        }
    });
}

/// A route memo answers exactly what the tree walk does: on first and
/// repeated lookups, for `src == dst` (the empty route), and for nodes
/// the tree does not have, with the same error.
#[test]
fn route_memo_returns_the_walked_route() {
    run_cases(
        "pcie::route_memo_returns_the_walked_route",
        n_cases(),
        |g| {
            let sizes = g.vec(1, 5, |g| g.usize_in(1, 5));
            let (topo, devices) = random_tree(&sizes);
            // Node ids past this tree's end come from a larger one.
            let (_, bigger) = random_tree(&[sizes.iter().sum::<usize>() + sizes.len() + 1]);
            let unknown = *bigger.last().unwrap();
            let mut nodes = devices.clone();
            nodes.push(topo.root());
            nodes.extend(
                devices
                    .iter()
                    .filter_map(|&d| topo.parent(d))
                    .map(|(p, _)| p),
            );
            nodes.push(unknown);
            let mut memo = RouteMemo::default();
            for _ in 0..g.usize_in(1, 40) {
                let a = *g.pick(&nodes);
                let b = *g.pick(&nodes);
                let walked = topo.try_route(a, b);
                let parts = walked.clone().map(|r| (r.links, r.latency));
                let memo_parts = |memo: &mut RouteMemo| {
                    memo.route(&topo, a, b)
                        .map(|(links, latency)| (links.to_vec(), latency))
                };
                assert_eq!(memo_parts(&mut memo), parts);
                assert_eq!(memo_parts(&mut memo), parts, "repeated lookup");
                if a == unknown || b == unknown {
                    assert_eq!(walked, Err(FabricError::UnknownNode(unknown)));
                } else if a == b {
                    assert_eq!(walked, Ok(Route::empty()));
                }
            }
        },
    );
}

/// Max-min rates never oversubscribe a link, are work-conserving on the
/// bottleneck, and every flow eventually finishes with all its bytes
/// accounted on every link it crossed.
#[test]
fn flow_network_fairness_and_conservation() {
    run_cases("pcie::flow_fairness_conservation", n_cases(), |g| {
        let bws = g.vec(1, 6, |g| g.u64_in(1_000, 1_000_000));
        let flows = g.vec(1, 8, |g| {
            (g.u64_in(1, 500_000), g.vec(1, 4, |g| g.usize_in(0, 6)))
        });
        let nlinks = bws.len();
        let mut net = FlowNet::new(bws.clone());
        let mut valid = Vec::new();
        for (i, (bytes, raw_route)) in flows.iter().enumerate() {
            let mut route: Vec<dmx_pcie::LinkId> = raw_route
                .iter()
                .map(|r| dmx_pcie::LinkId::from_index(r % nlinks))
                .collect();
            route.dedup();
            net.insert(Time::ZERO, i as u64, *bytes, &route);
            valid.push((i as u64, *bytes, route));
        }
        // Rate feasibility at the initial allocation.
        let rates = net.rates();
        let mut per_link = vec![0.0f64; nlinks];
        for ((_, _, route), r) in valid.iter().zip(&rates) {
            for l in route {
                per_link[l.index()] += r;
            }
        }
        for (l, used) in per_link.iter().enumerate() {
            assert!(
                *used <= bws[l] as f64 * (1.0 + 1e-6),
                "link {l} oversubscribed"
            );
        }
        // Run to completion.
        let mut done = std::iter::from_fn(|| net.pop_finished()).count();
        let mut guard = 0;
        let mut now = Time::ZERO;
        while done < valid.len() {
            now = net.next_event(now).expect("flows pending");
            net.advance(now);
            done += std::iter::from_fn(|| net.pop_finished()).count();
            guard += 1;
            assert!(guard < 10_000, "network did not drain");
        }
        // Byte conservation per link.
        let mut expect = vec![0.0f64; nlinks];
        for (_, bytes, route) in &valid {
            for l in route {
                expect[l.index()] += *bytes as f64;
            }
        }
        for (got, want) in net.link_bytes().iter().zip(&expect) {
            assert!((got - want).abs() <= want * 1e-6 + 1.0, "{got} vs {want}");
        }
    });
}

/// A single flow's completion time equals bytes / bottleneck bandwidth
/// regardless of the rest of the route.
#[test]
fn single_flow_bottleneck_exact() {
    run_cases("pcie::single_flow_bottleneck", n_cases(), |g| {
        let bws = g.vec(1, 5, |g| g.u64_in(10_000, 10_000_000));
        let bytes = g.u64_in(1, 50_000_000);
        let route: Vec<dmx_pcie::LinkId> =
            (0..bws.len()).map(dmx_pcie::LinkId::from_index).collect();
        let bottleneck = *bws.iter().min().expect("nonempty");
        let mut net = FlowNet::new(bws);
        net.insert(Time::ZERO, 1, bytes, &route);
        let done = net.next_event(Time::ZERO).expect("flow pending");
        let ideal = bytes as f64 / bottleneck as f64;
        let got = done.as_secs_f64();
        assert!(
            (got - ideal).abs() <= ideal * 1e-6 + 1e-9,
            "{got} vs {ideal}"
        );
    });
}
