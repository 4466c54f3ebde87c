//! System operating modes and the PCIe server layout for each DRX
//! placement (Sec. III, Fig. 4).

use crate::apps::BenchmarkRef;
use crate::params::{
    downstream_link, upstream_link, upstream_links_for_gen, DrxFleetParams, SWITCH_PORTS,
};
use crate::system::units;
use dmx_pcie::{Gen, Lanes, LinkSpec, NodeId, NodeKind, Topology};
use dmx_sim::{FifoServer, PsPool};

/// Where the DRXs sit (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// One DRX engine integrated next to the CPU (Fig. 4a).
    Integrated,
    /// Standalone DRX PCIe cards, one per application (Fig. 4b).
    Standalone,
    /// A DRX in front of every accelerator (Fig. 4d) — the paper's
    /// recommended design point.
    BumpInTheWire,
    /// DRX logic inside each PCIe switch (Fig. 4c).
    PcieIntegrated,
}

impl Placement {
    /// All placements, in the paper's Fig. 14 order.
    pub const ALL: [Placement; 4] = [
        Placement::Integrated,
        Placement::Standalone,
        Placement::BumpInTheWire,
        Placement::PcieIntegrated,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Integrated => "Integrated",
            Placement::Standalone => "Standalone",
            Placement::BumpInTheWire => "Bump-in-the-Wire",
            Placement::PcieIntegrated => "PCIe-Integrated",
        }
    }
}

/// How the system executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Everything (kernels + restructuring) on host cores (Fig. 3's
    /// All-CPU configuration).
    AllCpu,
    /// Kernels on accelerators, restructuring on the host CPU — the
    /// paper's Multi-Axl baseline.
    MultiAxl,
    /// Kernels on accelerators, restructuring on DRXs at the given
    /// placement.
    Dmx(Placement),
}

/// A DRX unit that restructures chain edges, listed once in the
/// layout's unit table: a bump-in-the-wire DRX, a standalone card, or a
/// shared pool.
#[derive(Debug)]
pub(crate) struct DrxUnit {
    /// Its [`units`] id, which keys the fault draws, breakers, health
    /// scorer and crash targets.
    pub(crate) id: u64,
    /// The node its batches land on: its own endpoint, the switch of a
    /// PCIe-Integrated pool, or the root for the Integrated pool.
    pub(crate) node: NodeId,
    /// How it serves batches, idle: each run serves them on a copy of
    /// its own.
    pub(crate) engine: Engine,
}

/// The engine of a DRX unit.
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    /// Its own PCIe endpoint (a bump-in-the-wire DRX or a standalone
    /// card), serving one batch at a time in arrival order. `slowdown`
    /// stretches each batch's DRX time: a card is capped at its slot's
    /// power budget.
    Endpoint {
        fifo: FifoServer,
        slowdown: Option<f64>,
    },
    /// A processor-sharing pool serving every edge routed to it.
    Pool(PsPool),
}

impl Engine {
    /// The shared pool of a pool unit.
    ///
    /// # Panics
    ///
    /// Panics if the unit is an endpoint.
    pub(crate) fn pool(&mut self) -> &mut PsPool {
        match self {
            Engine::Pool(pool) => pool,
            Engine::Endpoint { .. } => panic!("an endpoint unit has no pool"),
        }
    }
}

/// The built server: topology, device-to-node maps and DRX units. It
/// is static: a run reads it and never changes it, so every server of
/// a fleet shares one.
#[derive(Debug)]
pub struct ServerLayout {
    /// The PCIe tree.
    pub topo: Topology,
    /// Accelerator endpoint per `[app][stage]`.
    pub accel_nodes: Vec<Vec<NodeId>>,
    /// All switch nodes (subtree crash and degrade targets by index,
    /// switch static energy).
    pub switches: Vec<NodeId>,
    /// Each DRX unit that restructures an edge, once: bump-in-the-wire
    /// DRXs by app then edge, cards by app, pools by switch index. The
    /// one place that maps a placement to units.
    pub(crate) units: Vec<DrxUnit>,
    /// Per `[app][edge]`, the index in `units` of the unit restructuring
    /// it; empty when the mode deploys no DRXs.
    edge_units: Vec<Vec<usize>>,
}

impl ServerLayout {
    /// Number of PCIe switches.
    pub(crate) fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of physical DRXs the layout deploys. Under
    /// bump-in-the-wire this includes the DRX in front of each chain's
    /// last accelerator, which restructures nothing and so is no unit.
    pub(crate) fn drx_unit_count(&self, mode: Mode) -> usize {
        if mode == Mode::Dmx(Placement::BumpInTheWire) {
            self.accel_nodes.iter().map(Vec::len).sum()
        } else {
            self.units.len()
        }
    }

    /// Index in `units` of the unit restructuring `app`'s edge `e`;
    /// `None` when the mode deploys no DRXs.
    pub(crate) fn unit_of(&self, app: usize, e: usize) -> Option<usize> {
        self.edge_units[app].get(e).copied()
    }
}

/// Builds the server for `apps` under `mode` at PCIe `gen`, its DRX
/// engines sized by `fleet`.
pub(crate) fn build_layout(
    mode: Mode,
    apps: &[BenchmarkRef],
    gen: Gen,
    fleet: &DrxFleetParams,
) -> ServerLayout {
    let mut topo = Topology::new();
    let root = topo.root();
    let up_base = upstream_link(gen);
    // Newer-generation hosts expose more upstream links; model the
    // extra link as a doubled-width uplink.
    let up = if upstream_links_for_gen(gen) >= 2 {
        LinkSpec::new(gen, Lanes::X16)
    } else {
        up_base
    };
    let down = downstream_link(gen);

    let mut switches: Vec<NodeId> = Vec::new();
    let mut slots_used: Vec<usize> = Vec::new();
    // The index of a switch with a free port, opening a new one when
    // every switch is full.
    let alloc_slot =
        |topo: &mut Topology, switches: &mut Vec<NodeId>, slots_used: &mut Vec<usize>| -> usize {
            if let Some(i) = slots_used.iter().position(|s| *s < SWITCH_PORTS) {
                slots_used[i] += 1;
                return i;
            }
            let sw = topo.add_node(NodeKind::Switch, "sw", &[switches.len()], root, up);
            switches.push(sw);
            slots_used.push(1);
            switches.len() - 1
        };
    let endpoint = |id, node, slowdown| DrxUnit {
        id,
        node,
        engine: Engine::Endpoint {
            fifo: FifoServer::new(1),
            slowdown,
        },
    };

    let bitw = mode == Mode::Dmx(Placement::BumpInTheWire);
    let mut accel_nodes = Vec::with_capacity(apps.len());
    let mut table = Vec::new();
    let mut edge_units = Vec::with_capacity(apps.len());

    for (ai, app) in apps.iter().enumerate() {
        let edges = app.edges.len();
        let mut app_accels = Vec::new();
        let mut app_switches = Vec::new();
        let mut app_units = Vec::new();
        for si in 0..app.stages.len() {
            let sw = alloc_slot(&mut topo, &mut switches, &mut slots_used);
            app_switches.push(sw);
            // Bump-in-the-wire: switch -> mux -> { accel, drx }.
            let port = if bitw {
                topo.add_node(NodeKind::Mux, "mux", &[ai, si], switches[sw], down)
            } else {
                switches[sw]
            };
            let accel = topo.add_node(NodeKind::Device, "accel", &[ai, si], port, down);
            app_accels.push(accel);
            if bitw {
                let drx = topo.add_node(NodeKind::Device, "drx", &[ai, si], port, down);
                // The DRX in front of the last accelerator restructures
                // nothing.
                if si < edges {
                    app_units.push(table.len());
                    table.push(endpoint(units::bitw(ai, si), drx, None));
                }
            }
        }
        match mode {
            Mode::Dmx(Placement::Standalone) => {
                // Install the app's card next to its first accelerator.
                let sw = switches[app_switches[0]];
                let card = topo.add_node(NodeKind::Device, "card", &[ai], sw, down);
                app_units = vec![table.len(); edges];
                table.push(endpoint(
                    units::card(ai),
                    card,
                    Some(fleet.standalone_slowdown),
                ));
            }
            Mode::Dmx(Placement::Integrated) => app_units = vec![0; edges],
            // An edge restructures in its upstream accelerator's switch.
            Mode::Dmx(Placement::PcieIntegrated) => app_units = app_switches[..edges].to_vec(),
            _ => {}
        }
        accel_nodes.push(app_accels);
        edge_units.push(app_units);
    }
    let pool = |id, node, capacity| DrxUnit {
        id,
        node,
        engine: Engine::Pool(PsPool::new(capacity)),
    };
    match mode {
        Mode::Dmx(Placement::Integrated) => {
            table.push(pool(units::pool(0), root, fleet.integrated_units));
        }
        Mode::Dmx(Placement::PcieIntegrated) => {
            table.extend(
                switches
                    .iter()
                    .enumerate()
                    .map(|(i, &sw)| pool(units::pool(i), sw, fleet.pcie_integrated_units)),
            );
        }
        _ => {}
    }

    ServerLayout {
        topo,
        accel_nodes,
        switches,
        units: table,
        edge_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::BenchmarkId;

    fn five(n: usize) -> Vec<BenchmarkRef> {
        (0..n).map(|i| BenchmarkId::FIVE[i % 5].build()).collect()
    }

    fn layout(mode: Mode, apps: &[BenchmarkRef], gen: Gen) -> ServerLayout {
        build_layout(mode, apps, gen, &DrxFleetParams::default())
    }

    #[test]
    fn one_app_fits_one_switch() {
        let layout = layout(Mode::MultiAxl, &five(1), Gen::Gen3);
        assert_eq!(layout.switch_count(), 1);
        assert_eq!(layout.accel_nodes[0].len(), 2);
    }

    #[test]
    fn fifteen_apps_need_multiple_switches() {
        // 15 apps x 2 accelerators = 30 devices > 16 ports.
        let layout = layout(Mode::MultiAxl, &five(15), Gen::Gen3);
        assert!(layout.switch_count() >= 2, "{}", layout.switch_count());
    }

    #[test]
    fn bitw_adds_one_drx_per_accelerator() {
        let apps = five(3);
        let layout = layout(Mode::Dmx(Placement::BumpInTheWire), &apps, Gen::Gen3);
        assert_eq!(
            layout.drx_unit_count(Mode::Dmx(Placement::BumpInTheWire)),
            6
        );
        // A mux and a DRX in front of each of the 6 accelerators.
        let plain = self::layout(Mode::MultiAxl, &apps, Gen::Gen3);
        assert_eq!(layout.topo.link_count(), plain.topo.link_count() + 2 * 6);
        // The accel and its DRX share a mux: 2-hop local route.
        let r = layout
            .topo
            .route(layout.accel_nodes[0][0], layout.units[0].node);
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.via.len(), 1);
        assert_eq!(layout.topo.kind(r.via[0]), NodeKind::Mux);
    }

    #[test]
    fn standalone_one_card_per_app() {
        let apps = five(4);
        let layout = layout(Mode::Dmx(Placement::Standalone), &apps, Gen::Gen3);
        assert_eq!(layout.drx_unit_count(Mode::Dmx(Placement::Standalone)), 4);
        // Card sits under a switch, reachable without crossing the root
        // from the app's first accelerator.
        let r = layout
            .topo
            .route(layout.accel_nodes[0][0], layout.units[0].node);
        assert_eq!(r.via.len(), 1);
    }

    #[test]
    fn integrated_has_single_unit() {
        let layout = layout(Mode::Dmx(Placement::Integrated), &five(5), Gen::Gen3);
        assert_eq!(layout.drx_unit_count(Mode::Dmx(Placement::Integrated)), 1);
    }

    #[test]
    fn pcie_integrated_units_track_switches() {
        let layout = layout(Mode::Dmx(Placement::PcieIntegrated), &five(15), Gen::Gen3);
        assert_eq!(
            layout.drx_unit_count(Mode::Dmx(Placement::PcieIntegrated)),
            layout.switch_count()
        );
    }

    #[test]
    fn unit_table_follows_each_placement() {
        // Fifteen apps span two switches, so PCIe-Integrated edges map
        // to more than one pool.
        let apps = five(15);
        let modes = [Mode::AllCpu, Mode::MultiAxl];
        for mode in modes.into_iter().chain(Placement::ALL.map(Mode::Dmx)) {
            let l = layout(mode, &apps, Gen::Gen3);
            assert!(l.switch_count() >= 2);
            let root = l.topo.root();
            let parent = |n: NodeId| l.topo.parent(n).expect("below the root").0;
            let ids: Vec<u64> = l.units.iter().map(|u| u.id).collect();
            let want: Vec<u64> = match mode {
                Mode::AllCpu | Mode::MultiAxl => Vec::new(),
                Mode::Dmx(Placement::BumpInTheWire) => apps
                    .iter()
                    .enumerate()
                    .flat_map(|(a, b)| (0..b.edges.len()).map(move |e| units::bitw(a, e)))
                    .collect(),
                Mode::Dmx(Placement::Standalone) => (0..apps.len()).map(units::card).collect(),
                Mode::Dmx(Placement::Integrated) => vec![units::pool(0)],
                Mode::Dmx(Placement::PcieIntegrated) => {
                    (0..l.switch_count()).map(units::pool).collect()
                }
            };
            assert_eq!(ids, want, "{mode:?}");
            for (a, bench) in apps.iter().enumerate() {
                for e in 0..bench.edges.len() {
                    let Some(u) = l.unit_of(a, e) else {
                        assert!(matches!(mode, Mode::AllCpu | Mode::MultiAxl));
                        continue;
                    };
                    let unit = &l.units[u];
                    let endpoint = matches!(unit.engine, Engine::Endpoint { .. });
                    let accel = l.accel_nodes[a][e];
                    match mode {
                        Mode::Dmx(Placement::BumpInTheWire) => {
                            assert_eq!(unit.id, units::bitw(a, e));
                            assert_eq!(l.topo.label(unit.node), format!("drx{a}.{e}"));
                            assert_eq!(parent(unit.node), parent(accel));
                            assert!(endpoint);
                        }
                        Mode::Dmx(Placement::Standalone) => {
                            assert_eq!(unit.id, units::card(a));
                            assert_eq!(l.topo.label(unit.node), format!("card{a}"));
                            assert_eq!(parent(unit.node), parent(l.accel_nodes[a][0]));
                            assert!(endpoint);
                        }
                        Mode::Dmx(Placement::Integrated) => {
                            assert_eq!((unit.id, unit.node), (units::pool(0), root));
                            assert!(!endpoint);
                        }
                        Mode::Dmx(Placement::PcieIntegrated) => {
                            let sw = parent(accel);
                            let i = l.switches.iter().position(|&s| s == sw).unwrap();
                            assert_eq!((unit.id, unit.node), (units::pool(i), sw));
                            assert!(!endpoint);
                        }
                        Mode::AllCpu | Mode::MultiAxl => unreachable!("no units"),
                    }
                }
            }
        }
    }

    #[test]
    fn gen4_widens_the_uplink() {
        let l3 = layout(Mode::MultiAxl, &five(1), Gen::Gen3);
        let l4 = layout(Mode::MultiAxl, &five(1), Gen::Gen4);
        let up3 = l3.topo.route(l3.accel_nodes[0][0], l3.topo.root());
        let up4 = l4.topo.route(l4.accel_nodes[0][0], l4.topo.root());
        let bw3 = l3.topo.route_bottleneck(&up3).unwrap();
        let bw4 = l4.topo.route_bottleneck(&up4).unwrap();
        assert!(bw4 >= 4 * bw3, "Gen4 uplink should be 2x rate x 2 links");
    }

    #[test]
    fn mode_names() {
        assert_eq!(Placement::BumpInTheWire.name(), "Bump-in-the-Wire");
    }
}
