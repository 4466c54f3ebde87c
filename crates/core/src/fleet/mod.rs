//! A fleet of DMX servers behind a front-end load balancer.
//!
//! One [`FleetConfig`] replicates a [`SystemConfig`] across `servers`
//! identical machines and puts a load balancer in front: the open-loop
//! multi-tenant workload arrives at the LB, a dispatch policy picks a
//! server, the request crosses the inter-node fabric
//! ([`InterNodeFabric`]), runs through the server's full engine —
//! admission, EDF dispatch, chains, every robustness layer — and its
//! resolution travels back to the LB, which records end-to-end latency
//! and goodput.
//!
//! The whole fleet is **one** simulation, executed on the conservative
//! window loop (`dmx_sim::partition`): each server is a partition
//! wrapping a [`Stepped`] engine, the LB is one more partition, and the
//! fabric's base latency is the lookahead bounding every safe window.
//! Where the windows fall never reaches a result: at any lookahead up
//! to the fabric's, every [`FleetResult`] field but `windows` is the
//! same. That window invariance is the fleet's determinism oracle.
//!
//! ## Load-balancing policies
//!
//! * [`LbPolicy::RoundRobin`] — rotate through servers per dispatch.
//! * [`LbPolicy::LeastLoaded`] — fewest outstanding dispatches, ties
//!   to the lowest index. "Outstanding" is the LB's own view —
//!   dispatches minus resolutions *received* — so the signal lags by
//!   the fabric round trip, exactly like a real L7 balancer's.
//! * [`LbPolicy::TenantAffinity`] — tenant `t` always lands on server
//!   `t % servers` (session stickiness: warm caches, but no load
//!   spreading within a tenant).
//!
//! ## Fleet-level fault tolerance
//!
//! Two optional, inert-by-default layers ride on top:
//!
//! * [`FleetFaultPlan`] ([`plan`]) kills, grays out, or unplugs whole
//!   servers mid-run, by folding into each server's own fault config;
//! * [`FailoverConfig`] ([`failover`]) turns on the balancer's
//!   delayed-knowledge health scoring, per-request timeouts with
//!   cross-server re-dispatch, first-wins dedup, and per-class SLO
//!   retry/hedge policies.
//!
//! The balancer is the same with or without them: it tags every
//! dispatch attempt and matches each resolution to its own dispatch by
//! that tag. Both layers compose with the window loop unchanged: a
//! failed-over fleet is still window-invariant.

pub mod failover;
pub mod plan;
#[cfg(test)]
mod window_invariance;

pub use failover::{
    ClassPolicy, ClassTotals, FailoverConfig, FailoverReport, LbHealthParams, RequestClass,
};
pub use plan::{FleetFaultPlan, ServerGray, ServerKill, ServerOutage};

use crate::system::{Outcome, RunResult, ServerPlan, SimError, Stepped, SystemConfig};
use dmx_pcie::{InterNodeFabric, LinkOutage};
use dmx_sim::partition::{run_conservative, Outbox, Partition, WindowStats, XMsg};
use dmx_sim::{ArrivalProcess, Time};
use failover::LbPart;
use std::fmt;
use std::rc::Rc;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of identical servers behind the load balancer.
    pub servers: usize,
    /// The per-server system; must carry a non-inert overload section
    /// (its admission machinery receives the dispatched requests).
    pub server: SystemConfig,
    /// Dispatch policy.
    pub policy: LbPolicy,
    /// The LB↔server network; its base latency is the conservative
    /// lookahead.
    pub fabric: InterNodeFabric,
    /// Seed of the LB-side arrival streams (tenant `i` draws from a
    /// sub-seed).
    pub seed: u64,
    /// Arrival process per tenant, cycled if shorter than the tenant
    /// count (one tenant per server app, as in the single-server
    /// open-loop mode).
    pub arrivals: Vec<ArrivalProcess>,
    /// Arrivals each tenant offers at the LB.
    pub requests_per_tenant: usize,
    /// Request body carried LB→server (serialization on the fabric).
    pub request_bytes: u64,
    /// Response body carried server→LB.
    pub response_bytes: u64,
    /// Fleet-level failover layer (health-aware dispatch, re-dispatch,
    /// SLO classes). `None` — or an inert config — runs the same
    /// balancer with the layer off.
    pub failover: Option<FailoverConfig>,
    /// Fleet-level fault schedule (server kills, gray-outs, network
    /// cuts). `None` — or an inert plan — changes nothing.
    pub fault_plan: Option<FleetFaultPlan>,
}

/// Front-end dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Rotate through servers.
    RoundRobin,
    /// Fewest outstanding dispatches (delayed feedback), ties to the
    /// lowest server index.
    LeastLoaded,
    /// Tenant `t` pins to server `t % servers`.
    TenantAffinity,
}

impl fmt::Display for LbPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbPolicy::RoundRobin => write!(f, "round-robin"),
            LbPolicy::LeastLoaded => write!(f, "least-loaded"),
            LbPolicy::TenantAffinity => write!(f, "tenant-affinity"),
        }
    }
}

/// Cross-partition traffic: requests out, resolutions back. Every
/// message carries the balancer's dispatch-attempt tag,
/// `(request << 6) | attempt`, by which the balancer matches each
/// resolution to the attempt it answers.
#[derive(Debug, Clone, Copy)]
enum FleetMsg {
    /// LB → server: one request of `tenant` arrives.
    Dispatch { tenant: usize, tag: u64 },
    /// Server → LB: the attempt `tag` resolved.
    Done { tag: u64, outcome: Outcome },
}

/// One server partition: a stepped engine plus its return path.
struct ServerPart<'a> {
    sim: Stepped<'a>,
    lb: usize,
    fabric: InterNodeFabric,
    response_bytes: u64,
    /// Network-cut windows of this server's LB hop; a resolution sent
    /// inside one never reaches the balancer.
    outages: Vec<LinkOutage>,
    resolutions_dropped: u64,
}

impl Partition for ServerPart<'_> {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        self.sim.next_time()
    }

    /// The raw queue head: an idle server still runs its crash,
    /// recovery and degrade events when a window's horizon passes them.
    fn earliest_pending(&self) -> Option<Time> {
        self.sim.earliest_pending()
    }

    fn advance(
        &mut self,
        horizon: Time,
        inbox: &mut Vec<XMsg<FleetMsg>>,
        out: &mut Outbox<FleetMsg>,
    ) {
        for m in inbox.drain(..) {
            let FleetMsg::Dispatch { tenant, tag } = m.payload else {
                unreachable!("servers only receive dispatches");
            };
            self.sim.inject_arrival_tagged(tenant, m.time, tag);
        }
        self.sim
            .pump_until(horizon)
            .expect("fleet server simulation failed");
        for r in self.sim.resolutions_drain() {
            if self.outages.iter().any(|o| o.covers(r.at)) {
                self.resolutions_dropped += 1;
                continue;
            }
            out.send(
                self.lb,
                r.at + self.fabric.delivery_time(self.response_bytes),
                FleetMsg::Done {
                    tag: r.tag,
                    outcome: r.outcome,
                },
            );
        }
    }
}

/// Fleet partitions are heterogeneous (servers + one LB); this enum
/// gives `run_conservative` its homogeneous slice. It is generic over
/// the server partition so that a test can script the servers.
enum FleetPart<S> {
    Server(Box<S>),
    Lb(Box<LbPart>),
}

impl<S: Partition<Msg = FleetMsg>> Partition for FleetPart<S> {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        match self {
            FleetPart::Server(s) => s.next_time(),
            FleetPart::Lb(l) => l.next_time(),
        }
    }

    fn earliest_pending(&self) -> Option<Time> {
        match self {
            FleetPart::Server(s) => s.earliest_pending(),
            FleetPart::Lb(l) => l.earliest_pending(),
        }
    }

    fn advance(
        &mut self,
        horizon: Time,
        inbox: &mut Vec<XMsg<FleetMsg>>,
        out: &mut Outbox<FleetMsg>,
    ) {
        match self {
            FleetPart::Server(s) => s.advance(horizon, inbox, out),
            FleetPart::Lb(l) => l.advance(horizon, inbox, out),
        }
    }
}

/// Results of one fleet run. Every field is a pure function of the
/// config — wall-clock measurements live outside, next to the caller's
/// stopwatch — so rendering it is byte-identical across runs and hosts.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Arrivals offered at the LB.
    pub offered: u64,
    /// Dispatches per server (the balance of the policy). With the
    /// failover layer on this counts *attempts* — retries, hedges, and
    /// probes included — so the sum may exceed `offered`.
    pub dispatched: Vec<u64>,
    /// Completions within deadline.
    pub goodput: u64,
    /// Completions past deadline.
    pub late: u64,
    /// Sheds (admission, queue-full, deadline-expiry, crash kills).
    pub shed: u64,
    /// End-to-end goodput latency (LB arrival to resolution received),
    /// p50/p99/p999 in that order.
    pub e2e_p50: Time,
    /// 99th percentile end-to-end goodput latency.
    pub e2e_p99: Time,
    /// 99.9th percentile end-to-end goodput latency.
    pub e2e_p999: Time,
    /// Conservative-engine counters (windows, cross-partition messages).
    pub windows: WindowStats,
    /// Engine events processed across every partition (LB included).
    pub events: u64,
    /// Per-server run results (per-tenant overload accounting, energy,
    /// robustness reports).
    pub servers: Vec<RunResult>,
    /// Failover-layer accounting; `None` when the layer is off (no
    /// failover config, or an inert one).
    pub failover: Option<FailoverReport>,
}

impl FleetResult {
    /// Requests resolved (goodput + late + shed).
    pub(crate) fn resolved(&self) -> u64 {
        self.goodput + self.late + self.shed
    }

    /// Every offered request resolved exactly once.
    pub(crate) fn conserved(&self) -> bool {
        self.offered == self.resolved()
    }

    /// The duplicates-aware conservation ledger. With the failover
    /// layer off this is `conserved`; with it
    /// on it additionally demands zero stranded requests and that every
    /// server resolution the LB received either won its request or was
    /// cancelled as a duplicate:
    /// `resolutions_received == (offered − lb_shed) + duplicates_cancelled`.
    pub fn conserved_with_duplicates(&self) -> bool {
        self.conserved()
            && self.failover.as_ref().is_none_or(|f| {
                f.stranded == 0
                    && f.resolutions_received == (self.offered - f.lb_shed) + f.duplicates_cancelled
            })
    }

    /// Dispatch balance: max/min per-server dispatches (1.0 = perfect).
    /// Under [`LbPolicy::LeastLoaded`], remember that ties in the
    /// delayed outstanding counts break to the lowest server index —
    /// a trickle workload (every request resolving before the next
    /// arrival) therefore reports an infinite balance with all load on
    /// server 0, which is the documented tie-break, not a bug.
    pub(crate) fn balance(&self) -> f64 {
        let max = self.dispatched.iter().copied().max().unwrap_or(0);
        let min = self.dispatched.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Runs a fleet simulation. The second argument is ignored: the window
/// loop is serial. It remains only because the benchmark package
/// (`perfbench/`) still passes a shard count.
///
/// # Errors
///
/// `NoApps` / `NoOverload` from server construction; fleet configs with
/// zero servers or an empty arrival list are rejected as `NoApps`,
/// zero `requests_per_tenant` as `NoRequests`, and an inter-node link
/// with a zero base latency or zero bandwidth as `UnusableLink`.
pub fn try_run_fleet(cfg: &FleetConfig, _shards: usize) -> Result<FleetResult, SimError> {
    run_at(cfg, cfg.fabric.lookahead())
}

/// [`try_run_fleet`] with the window loop's `lookahead`, which must not
/// exceed the fabric's base latency. The window-invariance properties
/// run fleets at fractions of it.
fn run_at(cfg: &FleetConfig, lookahead: Time) -> Result<FleetResult, SimError> {
    if cfg.servers == 0 || cfg.arrivals.is_empty() {
        return Err(SimError::NoApps);
    }
    if cfg.requests_per_tenant == 0 {
        return Err(SimError::NoRequests);
    }
    let link = cfg.fabric.link;
    if link.base_latency.is_zero() || link.bytes_per_sec == 0 {
        return Err(SimError::UnusableLink(link));
    }
    // One static plan for every server: their configs differ only in
    // faults, which no part of the plan reads.
    let server = ServerPlan::new(&cfg.server)?;
    // An inert plan is filtered here, and the balancer treats an inert
    // failover config as off, so `Some(inert)` and `None` run the exact
    // same code path, bit for bit.
    let plan = cfg.fault_plan.as_ref().filter(|p| !p.is_inert());
    // Per-server fault configs: `None` for servers the plan leaves
    // untouched (they borrow the shared config verbatim). Declared
    // before `parts`, whose engines borrow into it.
    let server_cfgs: Vec<Option<SystemConfig>> = (0..cfg.servers)
        .map(|s| {
            plan.and_then(|p| p.server_faults(s, cfg.server.faults.as_ref()))
                .map(|faults| SystemConfig {
                    faults: Some(faults),
                    ..cfg.server.clone()
                })
        })
        .collect();
    // Network-cut windows per server; both ends of a hop drop traffic.
    let outages: Vec<Vec<LinkOutage>> = (0..cfg.servers)
        .map(|s| plan.map(|p| p.outages_for(s)).unwrap_or_default())
        .collect();
    let mut parts: Vec<FleetPart<ServerPart>> = Vec::with_capacity(cfg.servers + 1);
    for (s, server_cfg) in server_cfgs.iter().enumerate() {
        parts.push(FleetPart::Server(Box::new(ServerPart {
            sim: Stepped::on(
                server_cfg.as_ref().unwrap_or(&cfg.server),
                Rc::clone(&server),
            )?,
            lb: cfg.servers,
            fabric: cfg.fabric,
            response_bytes: cfg.response_bytes,
            outages: outages[s].clone(),
            resolutions_dropped: 0,
        })));
    }
    parts.push(FleetPart::Lb(Box::new(LbPart::new(cfg, outages))));

    let windows = run_conservative(&mut parts, lookahead);

    let Some(FleetPart::Lb(mut lb)) = parts.pop() else {
        unreachable!("the LB is the last partition");
    };
    let (mut events, mut resolutions_dropped) = (lb.events_processed(), 0);
    let mut servers = Vec::with_capacity(cfg.servers);
    for p in parts {
        let FleetPart::Server(s) = p else {
            unreachable!("only servers precede the LB");
        };
        events += s.sim.events_processed();
        resolutions_dropped += s.resolutions_dropped;
        servers.push(s.sim.finish());
    }
    let failover = lb.failover_on().then(|| FailoverReport {
        resolutions_dropped,
        ..lb.report()
    });
    Ok(FleetResult {
        offered: lb.offered,
        dispatched: lb.dispatched,
        goodput: lb.goodput,
        late: lb.late,
        shed: lb.shed,
        e2e_p50: Time::from_secs_f64(lb.e2e.p50().unwrap_or(0.0)),
        e2e_p99: Time::from_secs_f64(lb.e2e.p99().unwrap_or(0.0)),
        e2e_p999: Time::from_secs_f64(lb.e2e.p999().unwrap_or(0.0)),
        windows,
        events,
        servers,
        failover,
    })
}

/// Panicking variant of [`try_run_fleet`].
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    match run_at(cfg, cfg.fabric.lookahead()) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::BenchmarkId;
    use crate::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
    use crate::placement::{Mode, Placement};
    use dmx_sim::EventQueue;
    use window_invariance::window_invariant;

    fn small_fleet(servers: usize, policy: LbPolicy, rate: f64) -> FleetConfig {
        let apps: Vec<_> = (0..3).map(|i| BenchmarkId::FIVE[i].build()).collect();
        let server = SystemConfig {
            overload: Some(OverloadConfig {
                admission: AdmissionParams {
                    tokens_per_sec: f64::INFINITY,
                    burst: 1.0,
                    max_inflight: 4,
                },
                deadline: Time::from_ms(40),
                shed: ShedPolicy::Reject,
                queue_capacity: 16,
                ..OverloadConfig::none()
            }),
            ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), apps)
        };
        FleetConfig {
            servers,
            server,
            policy,
            fabric: InterNodeFabric::default(),
            seed: 0xF1EE7,
            arrivals: vec![ArrivalProcess::Poisson { rate_rps: rate }],
            requests_per_tenant: 8,
            request_bytes: 16 << 10,
            response_bytes: 4 << 10,
            failover: None,
            fault_plan: None,
        }
    }

    /// A failover policy generous enough that a healthy (even
    /// saturated) fleet never times out — the per-attempt timers only
    /// fire when a message is actually lost: one latency-sensitive
    /// class, one batch class.
    fn two_classes(hedge: bool) -> FailoverConfig {
        FailoverConfig {
            health: LbHealthParams::default(),
            classes: vec![
                ClassPolicy {
                    class: RequestClass::LatencySensitive,
                    slo: Time::from_secs_f64(120.0),
                    timeout: Time::from_secs_f64(30.0),
                    retries: 2,
                    hedge_after: hedge.then(|| Time::from_ms(10)),
                },
                ClassPolicy {
                    class: RequestClass::Batch,
                    slo: Time::from_secs_f64(240.0),
                    timeout: Time::from_secs_f64(60.0),
                    retries: 3,
                    hedge_after: None,
                },
            ],
        }
    }

    #[test]
    fn fleet_conserves_and_balances() {
        let r = run_fleet(&small_fleet(3, LbPolicy::RoundRobin, 2000.0));
        assert!(
            r.conserved(),
            "offered {} resolved {}",
            r.offered,
            r.resolved()
        );
        assert_eq!(r.offered, 3 * 8);
        assert!(r.goodput > 0, "no goodput at moderate load");
        assert_eq!(r.dispatched.iter().sum::<u64>(), r.offered);
        // Round-robin over 24 arrivals and 3 servers is perfectly even.
        assert_eq!(r.dispatched, vec![8, 8, 8]);
        assert!(r.windows.windows > 0);
        assert!(
            r.windows.messages >= 2 * r.offered,
            "a dispatch and a done per request"
        );
        assert_eq!(r.servers.len(), 3);
    }

    #[test]
    fn results_are_window_invariant() {
        let r = window_invariant(
            &small_fleet(4, LbPolicy::LeastLoaded, 4000.0),
            &[2, 4, 1000],
        );
        assert!(r.conserved());
    }

    #[test]
    fn policies_differ_and_affinity_pins() {
        let rr = run_fleet(&small_fleet(2, LbPolicy::RoundRobin, 3000.0));
        let aff = run_fleet(&small_fleet(2, LbPolicy::TenantAffinity, 3000.0));
        assert!(rr.conserved() && aff.conserved());
        // Three tenants on two servers: affinity puts tenants 0 and 2
        // (16 requests) on server 0, tenant 1 (8) on server 1.
        assert_eq!(aff.dispatched, vec![16, 8]);
        assert_ne!(rr.dispatched, aff.dispatched);
    }

    #[test]
    fn single_server_fleet_runs() {
        let r = run_fleet(&small_fleet(1, LbPolicy::LeastLoaded, 1000.0));
        assert!(r.conserved());
        assert_eq!(r.dispatched, vec![24]);
    }

    #[test]
    fn zero_servers_rejected() {
        let mut cfg = small_fleet(1, LbPolicy::RoundRobin, 100.0);
        cfg.servers = 0;
        assert!(try_run_fleet(&cfg, 1).is_err());
    }

    #[test]
    fn zero_requests_rejected_as_no_requests() {
        let mut cfg = small_fleet(1, LbPolicy::RoundRobin, 100.0);
        cfg.requests_per_tenant = 0;
        assert_eq!(try_run_fleet(&cfg, 1).err(), Some(SimError::NoRequests));
    }

    #[test]
    fn zero_latency_or_bandwidth_links_are_rejected() {
        use dmx_pcie::InterNodeLink;
        for link in [
            InterNodeLink::new(Time::ZERO, 1_000_000_000),
            InterNodeLink::new(Time::from_us(25), 0),
        ] {
            let mut cfg = small_fleet(2, LbPolicy::RoundRobin, 100.0);
            cfg.fabric = InterNodeFabric { link };
            assert_eq!(
                try_run_fleet(&cfg, 1).err(),
                Some(SimError::UnusableLink(link))
            );
        }
    }

    #[test]
    fn least_loaded_ties_break_to_lowest_index() {
        // Pin the documented tie-break of the delayed least-loaded
        // signal directly: equal outstanding counts resolve to the
        // lowest server index, whatever the tenant.
        let cfg = small_fleet(3, LbPolicy::LeastLoaded, 10.0);
        let mut lb = LbPart::new(&cfg, vec![Vec::new(); 3]);
        let pick = |lb: &mut LbPart, tenant| lb.pick_target(tenant, None, Time::ZERO).0;
        assert_eq!(pick(&mut lb, 0), 0, "all-zero tie goes to server 0");
        assert_eq!(pick(&mut lb, 2), 0, "tie-break ignores the tenant");
        lb.outstanding = vec![2, 1, 1];
        assert_eq!(pick(&mut lb, 0), 1, "two-way tie goes to the lower index");
        lb.outstanding = vec![2, 1, 0];
        assert_eq!(pick(&mut lb, 0), 2, "a strict minimum wins outright");
    }

    /// A scripted server partition: it completes the first dispatch it
    /// receives `SLOW` after its arrival, sheds every later one on
    /// arrival, and logs the outcomes in the order it sends them.
    #[derive(Default)]
    struct Script {
        q: EventQueue<FleetMsg>,
        received: usize,
        sent: Vec<Outcome>,
    }

    impl Script {
        const SLOW: Time = Time::from_secs(1);
        const RESPONSE_BYTES: u64 = 4 << 10;
        const OK: Outcome = Outcome::Completed {
            within_deadline: true,
        };
    }

    impl Partition for Script {
        type Msg = FleetMsg;

        fn next_time(&self) -> Option<Time> {
            self.q.peek_time()
        }

        fn advance(
            &mut self,
            horizon: Time,
            inbox: &mut Vec<XMsg<FleetMsg>>,
            out: &mut Outbox<FleetMsg>,
        ) {
            for m in inbox.drain(..) {
                let FleetMsg::Dispatch { tag, .. } = m.payload else {
                    unreachable!("servers only receive dispatches");
                };
                let (at, outcome) = match self.received {
                    0 => (m.time + Script::SLOW, Script::OK),
                    _ => (m.time, Outcome::Shed),
                };
                self.q.schedule_at(at, FleetMsg::Done { tag, outcome });
                self.received += 1;
            }
            while self.q.peek_time().is_some_and(|t| t < horizon) {
                let done = self.q.pop().expect("peeked event");
                if let FleetMsg::Done { outcome, .. } = done {
                    self.sent.push(outcome);
                }
                let fabric = InterNodeFabric::default();
                let at = self.q.now() + fabric.delivery_time(Script::RESPONSE_BYTES);
                out.send(1, at, done);
            }
        }
    }

    #[test]
    fn resolutions_match_their_own_dispatch_by_tag() {
        // One server, one tenant, two requests. The server sheds
        // dispatch 2 on arrival, ahead of dispatch 1, which completes
        // later. The recorded end-to-end latency must be dispatch 1's
        // own; pairing FIFO per (server, tenant) would give the shed
        // dispatch 1's start and the completion dispatch 2's start.
        let mut cfg = small_fleet(1, LbPolicy::LeastLoaded, 1000.0);
        cfg.server.apps.truncate(1);
        cfg.requests_per_tenant = 2;
        let mut parts = vec![
            FleetPart::Server(Box::default()),
            FleetPart::Lb(Box::new(LbPart::new(&cfg, vec![Vec::new()]))),
        ];
        run_conservative(&mut parts, cfg.fabric.lookahead());
        let [FleetPart::<Script>::Server(server), FleetPart::Lb(lb)] = &mut parts[..] else {
            unreachable!("the slice was built as server, LB");
        };
        assert_eq!(server.sent, [Outcome::Shed, Script::OK], "shed first");
        assert_eq!((lb.goodput, lb.shed, lb.e2e.count()), (1, 1, 1));
        let own = cfg.fabric.delivery_time(cfg.request_bytes)
            + Script::SLOW
            + cfg.fabric.delivery_time(Script::RESPONSE_BYTES);
        assert_eq!(lb.e2e.p50(), Some(own.as_secs_f64()));
    }

    #[test]
    fn inert_failover_and_plan_are_bit_identical_to_absent() {
        let absent = small_fleet(2, LbPolicy::LeastLoaded, 3000.0);
        let mut inert = absent.clone();
        inert.failover = Some(FailoverConfig::none());
        inert.fault_plan = Some(FleetFaultPlan::none());
        assert_eq!(
            format!("{:?}", run_fleet(&absent)),
            format!("{:?}", run_fleet(&inert)),
        );
    }

    #[test]
    fn healthy_fleet_under_failover_keeps_the_ledger() {
        // Below per-server capacity (~44 rps/tenant over 3 tenants):
        // with no faults and no saturation, no per-attempt timer fires.
        let mut cfg = small_fleet(2, LbPolicy::LeastLoaded, 30.0);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        // Nothing fails, so nothing retries and nothing goes dark.
        assert_eq!(f.timeouts, 0, "{f:?}");
        assert_eq!(f.retries, 0);
        assert_eq!(f.darks, 0);
        assert!(r.goodput > 0);
    }

    #[test]
    fn idle_server_still_runs_its_scheduled_kill() {
        // Affinity pins tenant 1, a short burst, to server 1, and the
        // slow tenants 0 and 2 keep server 0 busy long after. Server
        // 1's kill falls in between, while it holds no work, so
        // `Stepped::next_time` hides it; the window loop must still
        // advance server 1 when a horizon passes the kill, as it does
        // through `earliest_pending`. Skipping on `next_time` alone
        // never runs the kill.
        let mut cfg = small_fleet(2, LbPolicy::TenantAffinity, 200.0);
        cfg.arrivals = vec![
            ArrivalProcess::Poisson { rate_rps: 200.0 },
            ArrivalProcess::Poisson { rate_rps: 20_000.0 },
        ];
        let kill_at = Time::from_ms(120);
        cfg.fault_plan = Some(FleetFaultPlan {
            kills: vec![ServerKill {
                server: 1,
                at: kill_at,
                down_for: Some(Time::from_ms(1)),
            }],
            ..FleetFaultPlan::none()
        });
        // At a third of the lookahead the kill falls in other windows.
        let r = window_invariant(&cfg, &[3]);
        assert!(r.conserved());
        assert_eq!(r.dispatched, vec![16, 8]);
        assert!(r.servers[1].makespan < kill_at, "server 1 idle at the kill");
        assert!(r.servers[0].makespan > kill_at, "the run outlives the kill");
        assert_eq!(r.servers[1].crashes.crashes, 1);
    }

    #[test]
    fn permanent_kill_recovers_via_shed_triggered_redispatch() {
        // Server 0 dies for good almost immediately; its crash layer
        // sheds everything it holds or later receives. With the
        // failover layer off those sheds are final; with it on the LB
        // re-dispatches each one onto the survivor, converting sheds
        // into (possibly late) completions. The offered load fits in
        // one server, so the survivor has the headroom to absorb it.
        let mut cfg = small_fleet(2, LbPolicy::RoundRobin, 20.0);
        cfg.requests_per_tenant = 16;
        cfg.fault_plan = Some(FleetFaultPlan {
            kills: vec![ServerKill {
                server: 0,
                at: Time::from_ms(1),
                down_for: None,
            }],
            ..FleetFaultPlan::none()
        });
        let off = run_fleet(&cfg);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.retries > 0, "sheds must re-dispatch: {f:?}");
        assert!(
            off.shed > 0 && r.shed < off.shed,
            "re-dispatch must recover sheds: off {} vs on {}",
            off.shed,
            r.shed,
        );
        assert!(
            r.goodput + r.late > off.goodput + off.late,
            "recovered requests must complete: off {}+{} vs on {}+{}",
            off.goodput,
            off.late,
            r.goodput,
            r.late,
        );
    }

    #[test]
    fn network_cut_darkens_the_server_and_work_fails_over() {
        // Server 0's hop goes permanently dark: dispatches are lost,
        // the per-attempt timers fire, the health scorer marks it Dark,
        // and later arrivals route around it.
        let mut cfg = small_fleet(2, LbPolicy::LeastLoaded, 2000.0);
        cfg.requests_per_tenant = 24;
        cfg.failover = Some(two_classes(false));
        cfg.fault_plan = Some(FleetFaultPlan {
            outages: vec![ServerOutage {
                server: 0,
                at: Time::ZERO,
                down_for: None,
            }],
            ..FleetFaultPlan::none()
        });
        let r = run_fleet(&cfg);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.timeouts > 0, "{f:?}");
        assert!(f.darks > 0, "{f:?}");
        assert!(f.dispatches_dropped > 0, "{f:?}");
        assert!(r.goodput > 0, "the healthy server must absorb: {r:?}");
    }

    #[test]
    fn hedging_fires_and_duplicates_cancel_first_wins() {
        // Gray out server 0 so latency-sensitive primaries on it run
        // slow (≈50x service time, no saturation — queues stay open);
        // hedges race them on the healthy server and whichever
        // resolution lands second is cancelled.
        let mut cfg = small_fleet(2, LbPolicy::RoundRobin, 30.0);
        cfg.requests_per_tenant = 16;
        cfg.failover = Some(two_classes(true));
        cfg.fault_plan = Some(FleetFaultPlan {
            grays: vec![ServerGray {
                server: 0,
                at: Time::ZERO,
                down_for: None,
                slowdown: 50.0,
            }],
            ..FleetFaultPlan::none()
        });
        let r = run_fleet(&cfg);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.hedges > 0, "{f:?}");
        assert!(f.duplicates_cancelled > 0, "{f:?}");
    }

    #[test]
    fn failover_fleet_is_window_invariant() {
        let mut cfg = small_fleet(4, LbPolicy::LeastLoaded, 4000.0);
        cfg.requests_per_tenant = 12;
        cfg.failover = Some(two_classes(true));
        cfg.fault_plan = Some(FleetFaultPlan {
            kills: vec![ServerKill {
                server: 1,
                at: Time::from_ms(2),
                down_for: Some(Time::from_ms(10)),
            }],
            grays: vec![ServerGray {
                server: 2,
                at: Time::from_ms(1),
                down_for: Some(Time::from_ms(8)),
                slowdown: 20.0,
            }],
            outages: vec![ServerOutage {
                server: 3,
                at: Time::from_ms(1),
                down_for: Some(Time::from_ms(6)),
            }],
        });
        let r = window_invariant(&cfg, &[2, 4, 1000]);
        assert!(r.conserved_with_duplicates());
    }
}
