//! Microbenchmarks of the simulation-engine hot paths: event-queue
//! churn, the max-min flow solver under arrival/departure sequences,
//! route resolution, and percentile snapshots. These isolate the paths
//! that perfbench's end-to-end numbers blend with the rest of a run.

use dmx_bench::timing::bench;
use dmx_pcie::{FlowNet, Gen, Lanes, LinkId, LinkSpec, NodeKind, RouteMemo, Topology};
use dmx_sim::partition::{run_conservative, Outbox, Partition, XMsg};
use dmx_sim::{EventQueue, Percentiles, Time};
use std::hint::black_box;

/// Token-ring partition for the window rows: each received token is
/// folded into a checksum and forwarded one hop with `LINK_NS` link
/// latency, so with lookahead == link latency every conservative
/// window carries exactly one hop of real work.
const LINK_NS: u64 = 10;

struct BenchRing {
    id: usize,
    n: usize,
    q: EventQueue<u64>,
    sum: u64,
    bound: u64,
}

impl BenchRing {
    fn new(id: usize, n: usize, bound: u64) -> BenchRing {
        let mut q = EventQueue::new();
        if id == 0 {
            q.schedule_at(Time::from_ns(1), 0);
        }
        BenchRing {
            id,
            n,
            q,
            sum: 0,
            bound,
        }
    }
}

impl Partition for BenchRing {
    type Msg = u64;

    fn next_time(&self) -> Option<Time> {
        self.q.peek_time()
    }

    fn advance(&mut self, horizon: Time, inbox: &mut Vec<XMsg<u64>>, out: &mut Outbox<u64>) {
        for m in inbox.drain(..) {
            self.q.schedule_at(m.time, m.payload);
        }
        while self.q.peek_time().is_some_and(|t| t < horizon) {
            let v = self.q.pop().expect("peeked");
            self.sum = self.sum.wrapping_add(v);
            if v < self.bound {
                out.send(
                    (self.id + 1) % self.n,
                    self.q.now() + Time::from_ns(LINK_NS),
                    v + 1,
                );
            }
        }
    }
}

/// 200 flows of 4-8 MB over a 32-link server topology (8 root ports,
/// 8 switch links, 16 device links), at most two live at once, with
/// the rates read after every insert and retirement. Consecutive flows
/// take different links, except that `shared_switch` sends every flow
/// through switch link 8.
fn sparse_solves(shared_switch: bool) -> f64 {
    let mut net = FlowNet::new(vec![4_000_000_000; 32]);
    let mut now = Time::ZERO;
    let mut acc = 0.0f64;
    for id in 0..200u64 {
        let device = LinkId::from_index(16 + (id * 5 % 16) as usize);
        let switch = LinkId::from_index(8 + if shared_switch { 0 } else { (id % 8) as usize });
        let root = LinkId::from_index((id * 3 % 8) as usize);
        let bytes = 4_000_000 + (id % 5) * 1_000_000;
        if id % 3 == 0 {
            net.insert(now, id, bytes, &[device, switch]);
        } else {
            net.insert(now, id, bytes, &[device, switch, root]);
        }
        acc += net.rates().iter().sum::<f64>();
        if net.active_flows() >= 2 {
            if let Some(t) = net.next_event(now) {
                now = t;
                net.advance(now);
                while net.pop_finished().is_some() {}
                acc += net.rates().iter().sum::<f64>();
            }
        }
    }
    acc
}

fn main() {
    // Steady-state event churn: 100k pop-one/schedule-one steps over 64
    // pending events with a 32-byte payload. Each push is due after all
    // 64, so it lands at the far end of the queue and shifts every
    // entry: the worst case, where the simulator's pushes land a mean
    // of 1.5-4 entries from the delivery end (DESIGN §11).
    bench("queue_churn_100k", || {
        let mut q: EventQueue<[u64; 4]> = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(Time::from_ns(i), [i; 4]);
        }
        let mut acc = 0u64;
        for i in 64..100_000u64 {
            let e = q.pop().expect("pending");
            acc = acc.wrapping_add(e[0]);
            q.schedule_at(Time::from_ns(i), [i; 4]);
        }
        while let Some(e) = q.pop() {
            acc = acc.wrapping_add(e[0]);
        }
        acc
    });

    // Max-min re-solves under churn: 24 flows over 8 links, then 200
    // staggered arrivals/retirements, querying rates() after each
    // mutation (the per-transfer pattern of the system model).
    bench("flow_solver_churn", || {
        let mut net = FlowNet::new(vec![4_000_000_000; 8]);
        let mut id = 0u64;
        let mut now = Time::ZERO;
        for _ in 0..24 {
            let links = [
                LinkId::from_index((id % 8) as usize),
                LinkId::from_index(((id / 3) % 8) as usize),
            ];
            net.insert(now, id, 40_000_000 + id * 1_000_000, &links);
            id += 1;
        }
        let mut acc = 0.0f64;
        for _ in 0..200 {
            acc += net.rates().iter().sum::<f64>();
            if let Some(t) = net.next_event(now) {
                now = t;
                net.advance(now);
                while net.pop_finished().is_some() {}
            }
            let links = [LinkId::from_index((id % 8) as usize)];
            net.insert(now, id, 40_000_000, &links);
            id += 1;
        }
        acc
    });

    // The shape `robust` and `fleet` re-solve: one or two flows over a
    // 32-link server topology, re-solved after every insert and
    // retirement. Live flows never share a link, so every solve takes
    // the closed form (each route's narrowest link).
    bench("flow_solver_sparse", || sparse_solves(false));

    // The same shape with every flow crossing one switch link, so the
    // two live flows share it and each two-flow solve runs the sparse
    // water-fill, set-up included.
    bench("flow_solver_shared", || sparse_solves(true));

    // Route resolution over a two-level tree, every (endpoint, peer)
    // pair queried 50 times through one memo: a run's hit pattern,
    // where each pair is walked once and then looked up.
    let mut topo = Topology::new();
    let up = LinkSpec::new(Gen::Gen4, Lanes::X8);
    let down = LinkSpec::new(Gen::Gen4, Lanes::X16);
    let mut leaves = Vec::new();
    for s in 0..4 {
        let sw = topo.add_node(NodeKind::Switch, format!("sw{s}"), topo.root(), up);
        for d in 0..4 {
            leaves.push(topo.add_node(NodeKind::Device, format!("dev{s}.{d}"), sw, down));
        }
    }
    bench("route_16dev_all_pairs_x50", || {
        let mut memo = RouteMemo::default();
        let mut hops = 0usize;
        for _ in 0..50 {
            for &a in &leaves {
                for &b in &leaves {
                    if a != b {
                        hops += memo.route(&topo, a, b).map_or(0, |r| r.links.len());
                    }
                }
            }
        }
        black_box(hops)
    });

    // Conservative-window overhead: an n-partition token ring where
    // each window moves exactly one token one hop, so the work per
    // window is negligible and the row times the window machinery
    // itself — global-min reduction, active-set scan, channel
    // collection and inbox sorting. `2p`→`8p` scales the reduction
    // width.
    const TOKENS: u64 = 5_000;
    for n in [2usize, 4, 8] {
        bench(&format!("window_ring{n}p"), || {
            let mut parts: Vec<BenchRing> =
                (0..n).map(|id| BenchRing::new(id, n, TOKENS)).collect();
            let stats = run_conservative(&mut parts, Time::from_ns(LINK_NS));
            let sum: u64 = parts.iter().map(|p| p.sum).sum();
            black_box((stats.windows, stats.messages, sum))
        });
    }

    // Quantile snapshot: 10k samples, the three tail queries per
    // snapshot the overload report makes.
    bench("percentiles_10k_snapshot", || {
        let mut p = Percentiles::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.record((x >> 11) as f64);
        }
        (p.p50(), p.p99(), p.p999())
    });
}
