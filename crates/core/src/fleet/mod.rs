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
//! partitioned engine (`dmx_sim::partition`): each server is a
//! partition wrapping a [`Stepped`] engine, the LB is one more
//! partition, and the fabric's base latency is the lookahead bounding
//! every safe window. Output is byte-identical for any shard count —
//! `run_fleet(cfg, 1)` and `run_fleet(cfg, 8)` render the same report.
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
//! * [`FailoverConfig`] ([`failover`]) swaps the legacy FIFO balancer
//!   for one with delayed-knowledge health scoring, per-request
//!   timeouts with cross-server re-dispatch, attempt-tagged first-wins
//!   dedup, and per-class SLO retry/hedge policies.
//!
//! Both compose with partitioned execution unchanged: a failed-over
//! fleet is still byte-identical for any `shards`.

pub mod failover;
pub mod plan;

pub use failover::{
    ClassPolicy, ClassTotals, FailoverConfig, FailoverReport, LbHealthParams, RequestClass,
};
pub use plan::{FleetFaultPlan, ServerGray, ServerKill, ServerOutage};

use crate::overload::TenantOverload;
use crate::system::{Outcome, RunResult, SimError, Stepped, SystemConfig};
use dmx_pcie::{InterNodeFabric, LinkOutage};
use dmx_sim::partition::{run_conservative, Outbox, Partition, WindowStats, XMsg};
use dmx_sim::{ArrivalGen, ArrivalProcess, EventQueue, Percentiles, SplitMix64, Time};
use failover::FoLbPart;
use std::collections::VecDeque;
use std::fmt;

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
    /// SLO classes). `None` — or an inert config — runs the exact
    /// legacy balancer, bit-identical to the layer-absent fleet.
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
/// message carries the dispatch-attempt tag; the legacy balancer
/// stamps `0` everywhere and matches FIFO, the failover balancer
/// encodes `(request << 6) | attempt` and matches exactly.
#[derive(Debug, Clone, Copy)]
enum FleetMsg {
    /// LB → server: one request of `tenant` arrives.
    Dispatch { tenant: usize, tag: u64 },
    /// Server → LB: one request of `tenant` resolved.
    Done {
        tenant: usize,
        tag: u64,
        outcome: Outcome,
    },
}

/// Load-balancer local events, time-ordered on its own queue so
/// arrivals and returning resolutions interleave correctly.
#[derive(Debug)]
enum LbEv {
    Arrival(usize),
    Done {
        server: usize,
        tenant: usize,
        outcome: Outcome,
    },
}

/// One LB-side tenant: its arrival stream and offer budget.
#[derive(Debug)]
struct LbTenant {
    gen: ArrivalGen,
    to_offer: usize,
}

/// The load-balancer partition.
struct LbPart {
    q: EventQueue<LbEv>,
    tenants: Vec<LbTenant>,
    policy: LbPolicy,
    fabric: InterNodeFabric,
    request_bytes: u64,
    servers: usize,
    rr_next: usize,
    /// LB's view of per-server outstanding work (dispatch minus
    /// received resolution) — the delayed least-loaded signal.
    outstanding: Vec<usize>,
    /// Dispatch times per (server, tenant), matched FIFO against
    /// resolutions of the same pair to form end-to-end samples.
    in_flight: Vec<Vec<VecDeque<Time>>>,
    /// Network-cut windows per server (from the fleet fault plan;
    /// all empty without one). A dispatch sent into a window is lost —
    /// under the legacy balancer nothing recovers it, which is the
    /// baseline the failover layer exists to fix.
    outages: Vec<Vec<LinkOutage>>,
    /// Accounting.
    offered: u64,
    dispatched: Vec<u64>,
    goodput: u64,
    late: u64,
    shed: u64,
    e2e: Percentiles,
}

impl LbPart {
    fn new(cfg: &FleetConfig, tenant_count: usize, outages: Vec<Vec<LinkOutage>>) -> LbPart {
        let mut root = SplitMix64::new(cfg.seed);
        let mut q = EventQueue::new();
        let mut tenants: Vec<LbTenant> = (0..tenant_count)
            .map(|i| {
                let sub = root.next_u64();
                LbTenant {
                    gen: ArrivalGen::new(
                        cfg.arrivals[i % cfg.arrivals.len()],
                        SplitMix64::new(sub),
                    ),
                    to_offer: cfg.requests_per_tenant,
                }
            })
            .collect();
        // Seed each tenant's first arrival, as the single-server
        // open-loop mode does.
        for (t, ts) in tenants.iter_mut().enumerate() {
            if ts.to_offer > 0 {
                let gap = ts.gen.next_gap();
                q.schedule_at(gap, LbEv::Arrival(t));
            }
        }
        LbPart {
            q,
            tenants,
            policy: cfg.policy,
            fabric: cfg.fabric,
            request_bytes: cfg.request_bytes,
            servers: cfg.servers,
            rr_next: 0,
            outstanding: vec![0; cfg.servers],
            in_flight: vec![vec![VecDeque::new(); tenant_count]; cfg.servers],
            outages,
            offered: 0,
            dispatched: vec![0; cfg.servers],
            goodput: 0,
            late: 0,
            shed: 0,
            e2e: Percentiles::new(),
        }
    }

    fn pick_server(&mut self, tenant: usize) -> usize {
        match self.policy {
            LbPolicy::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.servers;
                s
            }
            LbPolicy::LeastLoaded => self
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|(i, &o)| (o, *i))
                .map(|(i, _)| i)
                .expect("at least one server"),
            LbPolicy::TenantAffinity => tenant % self.servers,
        }
    }

    fn arrival(&mut self, tenant: usize, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        self.offered += 1;
        let ts = &mut self.tenants[tenant];
        ts.to_offer -= 1;
        if ts.to_offer > 0 {
            let gap = ts.gen.next_gap();
            self.q.schedule_at(now + gap, LbEv::Arrival(tenant));
        }
        let s = self.pick_server(tenant);
        self.outstanding[s] += 1;
        self.dispatched[s] += 1;
        self.in_flight[s][tenant].push_back(now);
        if self.outages[s].iter().any(|o| o.covers(now)) {
            return; // The hop is dark; the dispatch is lost.
        }
        out.send(
            s,
            now + self.fabric.delivery_time(self.request_bytes),
            FleetMsg::Dispatch { tenant, tag: 0 },
        );
    }

    fn done(&mut self, server: usize, tenant: usize, outcome: Outcome) {
        let now = self.q.now();
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
        let started = self.in_flight[server][tenant]
            .pop_front()
            .expect("resolution without a matching dispatch");
        match outcome {
            Outcome::Completed { within_deadline } => {
                if within_deadline {
                    self.goodput += 1;
                    self.e2e.record((now - started).as_secs_f64());
                } else {
                    self.late += 1;
                }
            }
            Outcome::Shed => self.shed += 1,
        }
    }
}

impl Partition for LbPart {
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
        // Returning resolutions join the local queue so they interleave
        // with arrivals in timestamp order.
        for m in inbox.drain(..) {
            let FleetMsg::Done {
                tenant, outcome, ..
            } = m.payload
            else {
                unreachable!("the LB only receives resolutions");
            };
            self.q.schedule_at(
                m.time,
                LbEv::Done {
                    server: m.src,
                    tenant,
                    outcome,
                },
            );
        }
        while self.q.peek_time().is_some_and(|t| t < horizon) {
            match self.q.pop().expect("peeked event") {
                LbEv::Arrival(t) => self.arrival(t, out),
                LbEv::Done {
                    server,
                    tenant,
                    outcome,
                } => self.done(server, tenant, outcome),
            }
        }
    }
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
                    tenant: r.app,
                    tag: r.tag,
                    outcome: r.outcome,
                },
            );
        }
    }
}

/// Fleet partitions are heterogeneous (servers + one LB); this enum
/// gives `run_conservative` its homogeneous slice.
enum FleetPart<'a> {
    Server(Box<ServerPart<'a>>),
    Lb(Box<LbPart>),
    FoLb(Box<FoLbPart>),
}

impl Partition for FleetPart<'_> {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        match self {
            FleetPart::Server(s) => s.next_time(),
            FleetPart::Lb(l) => l.next_time(),
            FleetPart::FoLb(l) => l.next_time(),
        }
    }

    fn earliest_pending(&self) -> Option<Time> {
        match self {
            FleetPart::Server(s) => s.earliest_pending(),
            FleetPart::Lb(l) => l.earliest_pending(),
            FleetPart::FoLb(l) => l.earliest_pending(),
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
            FleetPart::FoLb(l) => l.advance(horizon, inbox, out),
        }
    }
}

/// Results of one fleet run. Every field is a pure function of the
/// config — wall-clock measurements live outside, next to the caller's
/// stopwatch — so rendering it is byte-identical across shard counts.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Arrivals offered at the LB.
    pub offered: u64,
    /// Dispatches per server (the balance of the policy). Under the
    /// failover balancer this counts *attempts* — retries, hedges, and
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
    /// Failover-layer accounting; `None` when the fleet ran the legacy
    /// balancer (no failover config, or an inert one).
    pub failover: Option<FailoverReport>,
}

impl FleetResult {
    /// Requests resolved (goodput + late + shed).
    pub fn resolved(&self) -> u64 {
        self.goodput + self.late + self.shed
    }

    /// Every offered request resolved exactly once.
    pub fn conserved(&self) -> bool {
        self.offered == self.resolved()
    }

    /// The duplicates-aware conservation ledger. On the legacy path
    /// this is [`conserved`](FleetResult::conserved); under failover it
    /// additionally demands zero stranded requests and that every
    /// server resolution the LB received either won its request or was
    /// cancelled as a duplicate:
    /// `resolutions_received == (offered − lb_shed) + duplicates_cancelled`.
    pub fn conserved_with_duplicates(&self) -> bool {
        let base = self.conserved();
        match &self.failover {
            None => base,
            Some(f) => {
                base && f.stranded == 0
                    && f.resolutions_received == (self.offered - f.lb_shed) + f.duplicates_cancelled
            }
        }
    }

    /// Dispatch balance: max/min per-server dispatches (1.0 = perfect).
    /// Under [`LbPolicy::LeastLoaded`], remember that ties in the
    /// delayed outstanding counts break to the lowest server index —
    /// a trickle workload (every request resolving before the next
    /// arrival) therefore reports an infinite balance with all load on
    /// server 0, which is the documented tie-break, not a bug.
    pub fn balance(&self) -> f64 {
        let max = self.dispatched.iter().copied().max().unwrap_or(0);
        let min = self.dispatched.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Per-tenant accounting summed across the fleet's servers.
    ///
    /// Per-tenant placement is policy-dependent: under
    /// [`LbPolicy::LeastLoaded`] a tenant's requests may concentrate on
    /// low-indexed servers because outstanding-count ties break to the
    /// lowest index under delayed knowledge; the per-fleet sums here
    /// are the policy-independent view.
    pub fn tenant_totals(&self) -> Vec<TenantOverload> {
        let mut out: Vec<TenantOverload> = Vec::new();
        for r in &self.servers {
            let Some(ov) = &r.overload else { continue };
            for (i, t) in ov.tenants.iter().enumerate() {
                if out.len() <= i {
                    out.push(t.clone());
                } else {
                    let o = &mut out[i];
                    o.offered += t.offered;
                    o.admitted += t.admitted;
                    o.goodput += t.goodput;
                    o.late += t.late;
                    o.rejected_admission += t.rejected_admission;
                    o.rejected_queue_full += t.rejected_queue_full;
                    o.shed_deadline += t.shed_deadline;
                    o.breaker_activations += t.breaker_activations;
                }
            }
        }
        out
    }
}

/// Runs a fleet simulation on `shards` worker threads. Output is
/// byte-identical for any `shards` (the logical partition structure —
/// `servers + 1` partitions, lookahead windows, channel order — never
/// depends on it).
///
/// # Errors
///
/// `NoApps` / `NoOverload` from server construction; fleet configs with
/// zero servers, zero tenants, or an empty arrival list are rejected as
/// `NoApps`.
pub fn try_run_fleet(cfg: &FleetConfig, shards: usize) -> Result<FleetResult, SimError> {
    if cfg.servers == 0 || cfg.arrivals.is_empty() || cfg.requests_per_tenant == 0 {
        return Err(SimError::NoApps);
    }
    let tenant_count = cfg.server.apps.len();
    // Inert layers are filtered here so that `Some(inert)` and `None`
    // run the exact same code path, bit for bit.
    let plan = cfg.fault_plan.as_ref().filter(|p| !p.is_inert());
    let fo = cfg.failover.as_ref().filter(|f| !f.is_inert());
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
    let mut parts: Vec<FleetPart> = Vec::with_capacity(cfg.servers + 1);
    for (s, server_cfg) in server_cfgs.iter().enumerate() {
        parts.push(FleetPart::Server(Box::new(ServerPart {
            sim: Stepped::new(server_cfg.as_ref().unwrap_or(&cfg.server))?,
            lb: cfg.servers,
            fabric: cfg.fabric,
            response_bytes: cfg.response_bytes,
            outages: plan.map(|p| p.outages_for(s)).unwrap_or_default(),
            resolutions_dropped: 0,
        })));
    }
    let lb_outages: Vec<Vec<LinkOutage>> = (0..cfg.servers)
        .map(|s| plan.map(|p| p.outages_for(s)).unwrap_or_default())
        .collect();
    parts.push(match fo {
        Some(f) => FleetPart::FoLb(Box::new(FoLbPart::new(cfg, f, tenant_count, lb_outages))),
        None => FleetPart::Lb(Box::new(LbPart::new(cfg, tenant_count, lb_outages))),
    });

    let windows = run_conservative(&mut parts, cfg.fabric.lookahead(), shards);

    let mut servers = Vec::with_capacity(cfg.servers);
    let mut lb = None;
    let mut fo_lb = None;
    let mut events = 0;
    let mut resolutions_dropped = 0;
    for p in parts {
        match p {
            FleetPart::Server(s) => {
                events += s.sim.events_processed();
                resolutions_dropped += s.resolutions_dropped;
                servers.push(s.sim.finish());
            }
            FleetPart::Lb(l) => lb = Some(l),
            FleetPart::FoLb(l) => fo_lb = Some(l),
        }
    }
    Ok(if let Some(l) = fo_lb {
        let (offered, dispatched, goodput, late, shed, mut e2e, lb_events, mut rep) = l.finish();
        rep.resolutions_dropped = resolutions_dropped;
        events += lb_events;
        FleetResult {
            offered,
            dispatched,
            goodput,
            late,
            shed,
            e2e_p50: Time::from_secs_f64(e2e.p50().unwrap_or(0.0)),
            e2e_p99: Time::from_secs_f64(e2e.p99().unwrap_or(0.0)),
            e2e_p999: Time::from_secs_f64(e2e.p999().unwrap_or(0.0)),
            windows,
            events,
            servers,
            failover: Some(rep),
        }
    } else {
        let mut lb = *lb.expect("one LB partition");
        events += lb.q.events_processed();
        FleetResult {
            offered: lb.offered,
            dispatched: lb.dispatched.clone(),
            goodput: lb.goodput,
            late: lb.late,
            shed: lb.shed,
            e2e_p50: Time::from_secs_f64(lb.e2e.p50().unwrap_or(0.0)),
            e2e_p99: Time::from_secs_f64(lb.e2e.p99().unwrap_or(0.0)),
            e2e_p999: Time::from_secs_f64(lb.e2e.p999().unwrap_or(0.0)),
            windows,
            events,
            servers,
            failover: None,
        }
    })
}

/// Panicking variant of [`try_run_fleet`].
pub fn run_fleet(cfg: &FleetConfig, shards: usize) -> FleetResult {
    match try_run_fleet(cfg, shards) {
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
        let r = run_fleet(&small_fleet(3, LbPolicy::RoundRobin, 2000.0), 1);
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
    fn shard_counts_are_byte_identical() {
        let cfg = small_fleet(4, LbPolicy::LeastLoaded, 4000.0);
        let serial = format!("{:?}", run_fleet(&cfg, 1));
        for shards in [2, 4, 8] {
            let sharded = format!("{:?}", run_fleet(&cfg, shards));
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }

    #[test]
    fn policies_differ_and_affinity_pins() {
        let rr = run_fleet(&small_fleet(2, LbPolicy::RoundRobin, 3000.0), 1);
        let aff = run_fleet(&small_fleet(2, LbPolicy::TenantAffinity, 3000.0), 1);
        assert!(rr.conserved() && aff.conserved());
        // Three tenants on two servers: affinity puts tenants 0 and 2
        // (16 requests) on server 0, tenant 1 (8) on server 1.
        assert_eq!(aff.dispatched, vec![16, 8]);
        assert_ne!(rr.dispatched, aff.dispatched);
    }

    #[test]
    fn single_server_fleet_runs() {
        let r = run_fleet(&small_fleet(1, LbPolicy::LeastLoaded, 1000.0), 1);
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
    fn least_loaded_ties_break_to_lowest_index() {
        // Pin the documented tie-break of the delayed least-loaded
        // signal directly: equal outstanding counts resolve to the
        // lowest server index, whatever the tenant.
        let cfg = small_fleet(3, LbPolicy::LeastLoaded, 10.0);
        let mut lb = LbPart::new(&cfg, 3, vec![Vec::new(); 3]);
        assert_eq!(lb.pick_server(0), 0, "all-zero tie goes to server 0");
        assert_eq!(lb.pick_server(2), 0, "tie-break ignores the tenant");
        lb.outstanding = vec![2, 1, 1];
        assert_eq!(lb.pick_server(0), 1, "two-way tie goes to the lower index");
        lb.outstanding = vec![2, 1, 0];
        assert_eq!(lb.pick_server(0), 2, "a strict minimum wins outright");
    }

    #[test]
    fn inert_failover_and_plan_are_bit_identical_to_absent() {
        let absent = small_fleet(2, LbPolicy::LeastLoaded, 3000.0);
        let mut inert = absent.clone();
        inert.failover = Some(FailoverConfig::none());
        inert.fault_plan = Some(FleetFaultPlan::none());
        assert_eq!(
            format!("{:?}", run_fleet(&absent, 1)),
            format!("{:?}", run_fleet(&inert, 1)),
        );
    }

    #[test]
    fn healthy_fleet_under_failover_keeps_the_ledger() {
        // Below per-server capacity (~44 rps/tenant over 3 tenants):
        // with no faults and no saturation, no per-attempt timer fires.
        let mut cfg = small_fleet(2, LbPolicy::LeastLoaded, 30.0);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg, 1);
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
        let r = run_fleet(&cfg, 1);
        assert!(r.conserved());
        assert_eq!(r.dispatched, vec![16, 8]);
        assert!(r.servers[1].makespan < kill_at, "server 1 idle at the kill");
        assert!(r.servers[0].makespan > kill_at, "the run outlives the kill");
        assert_eq!(r.servers[1].crashes.crashes, 1);
        assert_eq!(format!("{:?}", run_fleet(&cfg, 3)), format!("{r:?}"));
    }

    #[test]
    fn permanent_kill_recovers_via_shed_triggered_redispatch() {
        // Server 0 dies for good almost immediately; its crash layer
        // sheds everything it holds or later receives. Under the
        // legacy balancer those sheds are final; under failover the LB
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
        let legacy = run_fleet(&cfg, 1);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.retries > 0, "sheds must re-dispatch: {f:?}");
        assert!(
            legacy.shed > 0 && r.shed < legacy.shed,
            "re-dispatch must recover sheds: legacy {} vs failover {}",
            legacy.shed,
            r.shed,
        );
        assert!(
            r.goodput + r.late > legacy.goodput + legacy.late,
            "recovered requests must complete: legacy {}+{} vs failover {}+{}",
            legacy.goodput,
            legacy.late,
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
        let r = run_fleet(&cfg, 1);
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
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.hedges > 0, "{f:?}");
        assert!(f.duplicates_cancelled > 0, "{f:?}");
    }

    #[test]
    fn failover_fleet_is_byte_identical_across_shards() {
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
        let serial = format!("{:?}", run_fleet(&cfg, 1));
        for shards in [2, 4, 8] {
            let sharded = format!("{:?}", run_fleet(&cfg, shards));
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }
}
