//! The fleet's load balancer and its failover layer: delayed-knowledge
//! server health, cross-server re-dispatch, and per-class SLO
//! retry/hedge.
//!
//! Every fleet runs one balancer, `LbPart`. It stamps each dispatch
//! attempt with a unique tag, `(request << 6) | attempt`
//! ([`Stepped::inject_arrival_tagged`](crate::system::Stepped::inject_arrival_tagged)),
//! and matches each resolution to the attempt it answers by that tag,
//! so an end-to-end sample always runs from its own request's arrival.
//! With the failover layer off (no [`FailoverConfig`], or an inert
//! one) that is all it adds to the dispatch policy: each request gets
//! one attempt and closes on its one resolution, no health signal is
//! fed, and no timer is armed.
//!
//! With the layer on it is the sixth robustness layer, at fleet
//! scope. The per-server layers (faults, overload, integrity,
//! crash-stop, fail-slow) keep a *server* honest; this layer keeps the
//! *fleet* honest when a whole server dies, grays out, or falls off
//! the network:
//!
//! * `ServerHealth` runs the [`dmx_sim::health`] lifecycle per server,
//!   fed only what a real L7 balancer can see — resolution round-trip
//!   times against the fleet median, per-request timeouts, and
//!   consecutive failures. A demoted server (Suspected or Dark) sits
//!   out a probation, then takes one half-open *probe* (a real request)
//!   that reinstates or re-demotes it.
//! * The attempt tag recognizes a late resolution of a superseded
//!   attempt exactly, and cancels it first-wins.
//! * Attempts that time out at the LB re-dispatch to a healthy server
//!   under a bounded retry budget with exponentially backed-off
//!   per-attempt timeouts; requests past their class SLO are shed at
//!   the LB instead of burning budget.
//! * Latency-sensitive classes may *hedge*: if the first attempt is
//!   still in flight past `hedge_after`, a duplicate goes to a
//!   different server and the first resolution wins.
//!
//! ## The duplicates-aware conservation ledger
//!
//! Every offered request still resolves exactly once
//! (`offered == goodput + late + shed`), and every server resolution
//! the LB receives either *wins* — closes its request — or is a
//! cancelled duplicate:
//!
//! ```text
//! resolutions_received == (offered - lb_shed) + duplicates_cancelled
//! ```
//!
//! `lb_shed` counts requests the LB closed on a timeout with no
//! budget (or SLO headroom) left — the only closures with no winning
//! resolution. Together the two laws give the ledger
//! "offered == goodput + late + shed + duplicates_cancelled": each
//! duplicate appears once on each side. `stranded` (requests still
//! open at the end) must always be zero — every attempt carries a
//! timer, so no kill schedule can leave a request unaccounted.

use super::{FleetConfig, FleetMsg, LbPolicy};
use crate::system::Outcome;
use dmx_pcie::{InterNodeFabric, LinkOutage};
use dmx_sim::health::{Health, Route};
use dmx_sim::partition::{Outbox, Partition, XMsg};
use dmx_sim::{ArrivalGen, EventQueue, Percentiles, SplitMix64, Time};
use std::collections::VecDeque;
use std::fmt;

/// Parameters of the LB-side health scorer. All signals are
/// LB-observable: no server internals, only round-trips and silences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbHealthParams {
    /// Rolling round-trip window per server.
    pub window: usize,
    /// Observations before a server's mean is compared to the fleet.
    pub min_samples: usize,
    /// Demotion threshold: mean RTT above `factor` times the median
    /// of the *other* servers' means marks the server Suspected.
    pub outlier_factor: f64,
    /// Consecutive timeouts that mark a server Dark.
    pub dark_timeouts: u32,
    /// How long a Suspected/Dark server sits out before it earns one
    /// half-open probe.
    pub probation: Time,
}

impl Default for LbHealthParams {
    fn default() -> LbHealthParams {
        LbHealthParams {
            window: 16,
            min_samples: 4,
            outlier_factor: 3.0,
            dark_timeouts: 2,
            probation: Time::from_ms(5),
        }
    }
}

/// One request class: what latency it is promised and how hard the LB
/// fights for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// The class label.
    pub class: RequestClass,
    /// End-to-end SLO measured at the LB (arrival to resolution).
    /// Completions past it count `late` even if the server met its own
    /// deadline, and the LB stops re-dispatching once it has passed.
    pub slo: Time,
    /// Base per-attempt LB timeout; attempt `k` waits `timeout << k`
    /// (exponential backoff, capped at `<< 6`).
    pub timeout: Time,
    /// Re-dispatch budget after the first attempt.
    pub retries: u32,
    /// Hedge trigger: when set, a duplicate of the first attempt goes
    /// to a different server after this long in flight. Meant for
    /// [`RequestClass::LatencySensitive`].
    pub hedge_after: Option<Time>,
}

/// The service class a tenant's requests belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Interactive traffic: tight SLO, hedged.
    LatencySensitive,
    /// Throughput traffic: loose SLO, retried but never hedged.
    Batch,
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestClass::LatencySensitive => write!(f, "latency-sensitive"),
            RequestClass::Batch => write!(f, "batch"),
        }
    }
}

/// Configuration of the failover layer. Inert by default: a fleet
/// whose `failover` is `None` *or* `FailoverConfig::none()` runs the
/// same balancer with the layer off.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverConfig {
    /// Health-scorer parameters.
    pub health: LbHealthParams,
    /// Request classes; tenant `t` belongs to class `t % classes.len()`.
    /// Empty means the layer is inert.
    pub classes: Vec<ClassPolicy>,
}

impl FailoverConfig {
    /// The inert config: no classes, no timeouts, no re-dispatch.
    pub(crate) fn none() -> FailoverConfig {
        FailoverConfig {
            health: LbHealthParams::default(),
            classes: Vec::new(),
        }
    }

    /// True when this config changes nothing.
    pub(crate) fn is_inert(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Per-class accounting in the [`FailoverReport`].
#[derive(Debug, Clone, Default)]
pub struct ClassTotals {
    /// Arrivals of this class offered at the LB.
    pub offered: u64,
    /// Completions inside both the server deadline and the class SLO.
    pub goodput: u64,
    /// Completions past either deadline.
    pub late: u64,
    /// Sheds (server-side or LB-side).
    pub shed: u64,
}

/// Fleet-level failover accounting; see the module docs for the
/// ledger these counters satisfy.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Per-attempt LB timeouts that fired on a live attempt.
    pub timeouts: u64,
    /// Re-dispatches (timeout- or shed-triggered).
    pub retries: u64,
    /// Hedge duplicates launched.
    pub hedges: u64,
    /// Requests whose winning resolution came from a hedge arm.
    pub hedge_wins: u64,
    /// Server resolutions that did not decide their request: late
    /// originals of re-dispatched requests, losing hedge arms, and
    /// sheds superseded by a parallel attempt.
    pub duplicates_cancelled: u64,
    /// Requests the LB closed on a timeout with no retry budget or
    /// SLO headroom left — the only closures without a winning
    /// resolution.
    pub lb_shed: u64,
    /// Server resolutions the LB received (winners + duplicates).
    pub resolutions_received: u64,
    /// Server→LB resolutions lost to network-cut windows.
    pub resolutions_dropped: u64,
    /// LB→server dispatches lost to network-cut windows.
    pub dispatches_dropped: u64,
    /// Requests still open when the run ended. Always zero: every
    /// attempt carries a timer.
    pub stranded: u64,
    /// Healthy→Suspected demotions (latency outlier or first timeout).
    pub demotions: u64,
    /// Transitions to Dark (consecutive timeouts or a failed probe).
    pub darks: u64,
    /// Half-open probes dispatched.
    pub probes: u64,
    /// Probes that reinstated their server.
    pub recoveries: u64,
    /// Per-class totals, indexed like `FailoverConfig::classes`.
    pub classes: Vec<ClassTotals>,
}

/// Delayed-knowledge health scorer over the fleet's servers: the
/// [`dmx_sim::health`] lifecycle per server, fed only LB-observable
/// signals. A latency outlier or one failure demotes a server
/// Suspected, a failure streak or a failed probe demotes it Dark
/// (`Demoted { dark }`); both sit out the same probation.
#[derive(Debug)]
pub(super) struct ServerHealth {
    p: LbHealthParams,
    states: Vec<Health>,
    /// Rolling RTT windows, seconds.
    rtts: Vec<VecDeque<f64>>,
    consec_timeouts: Vec<u32>,
    demotions: u64,
    darks: u64,
    probes: u64,
    recoveries: u64,
    /// [`ServerHealth::baseline_excluding`]'s buffer.
    scratch: Vec<f64>,
}

impl ServerHealth {
    fn new(p: LbHealthParams, servers: usize) -> ServerHealth {
        ServerHealth {
            p,
            states: vec![Health::Healthy; servers],
            rtts: vec![VecDeque::new(); servers],
            consec_timeouts: vec![0; servers],
            demotions: 0,
            darks: 0,
            probes: 0,
            recoveries: 0,
            scratch: Vec::new(),
        }
    }

    fn mean(&self, s: usize) -> Option<f64> {
        let w = &self.rtts[s];
        if w.len() < self.p.min_samples {
            return None;
        }
        Some(w.iter().sum::<f64>() / w.len() as f64)
    }

    /// Median of the *other* servers' mean RTTs — the fleet baseline a
    /// server is judged against, excluding its own (possibly inflated)
    /// samples. The means are sorted in a buffer kept across calls.
    fn baseline_excluding(&mut self, s: usize) -> Option<f64> {
        let mut means = std::mem::take(&mut self.scratch);
        means.clear();
        means.extend(
            (0..self.states.len())
                .filter(|&o| o != s)
                .filter_map(|o| self.mean(o)),
        );
        means.sort_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"));
        let median = means.get(means.len() / 2).copied();
        self.scratch = means;
        median
    }

    /// Demotes `s` for one probation, counted as a Dark transition or a
    /// Suspected demotion.
    fn demote(&mut self, s: usize, now: Time, dark: bool) {
        self.states[s] = Health::Demoted {
            until: now + self.p.probation,
            dark,
        };
        if dark {
            self.darks += 1;
        } else {
            self.demotions += 1;
        }
    }

    /// A resolution round-trip from `s`: refreshes the window, clears
    /// the consecutive-timeout streak, and demotes a Healthy server
    /// whose mean drifted past the fleet baseline.
    fn record(&mut self, s: usize, rtt_secs: f64, now: Time) {
        let w = &mut self.rtts[s];
        w.push_back(rtt_secs);
        while w.len() > self.p.window {
            w.pop_front();
        }
        self.consec_timeouts[s] = 0;
        if self.states[s] != Health::Healthy {
            return;
        }
        if let (Some(m), Some(b)) = (self.mean(s), self.baseline_excluding(s)) {
            if m > self.p.outlier_factor * b {
                self.demote(s, now, false);
            }
        }
    }

    /// A live attempt on `s` failed — a per-attempt timeout fired, or
    /// the server answered with a Shed (a crashed-and-shedding or
    /// overloaded server rejects instantly, which *looks* fast by RTT;
    /// the consecutive-failure streak is what routes traffic away from
    /// it). One failure suspects a healthy server; a streak of
    /// `dark_timeouts` marks it Dark.
    fn on_failure(&mut self, s: usize, now: Time) {
        self.consec_timeouts[s] += 1;
        let dark = self.consec_timeouts[s] >= self.p.dark_timeouts;
        match self.states[s] {
            Health::Healthy => self.demote(s, now, dark),
            Health::Demoted { dark: false, .. } if dark => self.demote(s, now, true),
            _ => {}
        }
    }

    /// The lowest-indexed server whose probation has expired and that
    /// therefore gets the next dispatch as its half-open probe.
    fn probe_due(&self, now: Time) -> Option<usize> {
        (0..self.states.len()).find(|&s| self.states[s].route(now) == Route::Probe)
    }

    /// Makes attempt `tag` the half-open probe of `s`.
    fn begin_probe(&mut self, s: usize, tag: u64) {
        self.states[s] = Health::Probing(tag);
        self.probes += 1;
    }

    /// Settles `s` if attempt `tag` is its probe: `ok` (the probed
    /// request completed) reinstates it, with the stale window cleared
    /// so pre-demotion samples cannot instantly re-demote; a failure
    /// sends it Dark for another probation. Returns false, changing
    /// nothing, for any other attempt.
    fn probe_result(&mut self, s: usize, tag: u64, ok: bool, now: Time) -> bool {
        if self.states[s] != Health::Probing(tag) {
            return false;
        }
        if ok {
            self.states[s] = Health::Healthy;
            self.rtts[s].clear();
            self.consec_timeouts[s] = 0;
            self.recoveries += 1;
        } else {
            self.demote(s, now, true);
        }
        true
    }
}

/// Cap on the backoff exponent (`timeout << k`).
const MAX_BACKOFF_SHIFT: u32 = 6;
/// Attempt index bits in a tag; attempts per request are capped under
/// this so `request << TAG_BITS | attempt` never collides.
const TAG_BITS: u32 = 6;
const MAX_ATTEMPTS: usize = (1 << TAG_BITS) - 1;

fn tag_of(req: usize, attempt: usize) -> u64 {
    ((req as u64) << TAG_BITS) | attempt as u64
}

fn untag(tag: u64) -> (usize, usize) {
    (
        (tag >> TAG_BITS) as usize,
        (tag & ((1 << TAG_BITS) - 1)) as usize,
    )
}

/// One dispatch attempt of one request.
#[derive(Debug, Default)]
struct Attempt {
    server: usize,
    sent_at: Time,
    /// Still counted in flight: no resolution received, timeout not
    /// fired. Leaving the live set releases the server's outstanding
    /// slot exactly once.
    live: bool,
    hedge: bool,
}

/// Attempts a request holds in place: its dispatch and one hedge or
/// retry. Only a request re-dispatched more often spills to the heap.
const INLINE_ATTEMPTS: usize = 2;

/// One request's dispatch attempts in launch order, indexed by attempt
/// number: the first [`INLINE_ATTEMPTS`] in place, the rest spilled.
#[derive(Debug, Default)]
struct Attempts {
    inline: [Attempt; INLINE_ATTEMPTS],
    len: usize,
    spilled: Vec<Attempt>,
}

impl Attempts {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, a: Attempt) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = a,
            None => self.spilled.push(a),
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &Attempt> {
        self.inline[..self.len.min(INLINE_ATTEMPTS)]
            .iter()
            .chain(&self.spilled)
    }

    fn last(&self) -> Option<&Attempt> {
        self.len.checked_sub(1).map(|k| &self[k])
    }
}

impl std::ops::Index<usize> for Attempts {
    type Output = Attempt;

    fn index(&self, k: usize) -> &Attempt {
        assert!(
            k < self.len,
            "attempt {k} of {} was never launched",
            self.len
        );
        match self.inline.get(k) {
            Some(a) => a,
            None => &self.spilled[k - INLINE_ATTEMPTS],
        }
    }
}

impl std::ops::IndexMut<usize> for Attempts {
    fn index_mut(&mut self, k: usize) -> &mut Attempt {
        assert!(
            k < self.len,
            "attempt {k} of {} was never launched",
            self.len
        );
        match self.inline.get_mut(k) {
            Some(a) => a,
            None => &mut self.spilled[k - INLINE_ATTEMPTS],
        }
    }
}

/// One request's LB-side lifecycle.
#[derive(Debug)]
struct LbReq {
    tenant: usize,
    class: usize,
    arrived: Time,
    attempts: Attempts,
    retries_used: u32,
    open: bool,
}

/// LB-local events, time-ordered on the balancer's own queue so
/// arrivals, returning resolutions and timers interleave correctly.
#[derive(Debug)]
enum LbEv {
    /// One request of tenant `t` arrives.
    Arrival(usize),
    /// A server resolution came back.
    Done {
        server: usize,
        tag: u64,
        outcome: Outcome,
    },
    /// Attempt `tag`'s per-attempt timer fired.
    Timeout(u64),
    /// Attempt `tag` (always attempt 0) crossed its hedge threshold.
    Hedge(u64),
}

/// One LB-side tenant: its arrival stream and offer budget.
#[derive(Debug)]
struct LbTenant {
    gen: ArrivalGen,
    to_offer: usize,
}

/// The fleet's load-balancer partition. With the failover layer off
/// it dispatches each request once, by the plain policy over every
/// server, and closes it on its one resolution.
pub(super) struct LbPart {
    q: EventQueue<LbEv>,
    tenants: Vec<LbTenant>,
    /// The failover layer; inert (no classes) when it is off.
    cfg: FailoverConfig,
    policy: LbPolicy,
    fabric: InterNodeFabric,
    request_bytes: u64,
    servers: usize,
    rr_next: usize,
    /// The LB's view of per-server outstanding attempts (dispatched,
    /// neither resolved nor timed out): the delayed least-loaded
    /// signal.
    pub(super) outstanding: Vec<usize>,
    /// Network-cut windows per server (from the fleet fault plan);
    /// dispatches sent into a window are lost, and with the layer off
    /// no timer recovers them.
    outages: Vec<Vec<LinkOutage>>,
    health: ServerHealth,
    reqs: Vec<LbReq>,
    // Accounting.
    pub(super) offered: u64,
    pub(super) dispatched: Vec<u64>,
    pub(super) goodput: u64,
    pub(super) late: u64,
    pub(super) shed: u64,
    pub(super) e2e: Percentiles,
    rep: FailoverReport,
}

impl LbPart {
    /// The balancer of `cfg`, one tenant per server app, with the
    /// LB-side network-cut windows per server.
    pub(super) fn new(cfg: &FleetConfig, outages: Vec<Vec<LinkOutage>>) -> LbPart {
        let fo = cfg.failover.clone().unwrap_or_else(FailoverConfig::none);
        let mut root = SplitMix64::new(cfg.seed);
        let mut q = EventQueue::new();
        // Each tenant draws from its own sub-seed and is seeded with
        // its first arrival, as the single-server open-loop mode does.
        let tenants = (0..cfg.server.apps.len())
            .map(|t| {
                let arrivals = cfg.arrivals[t % cfg.arrivals.len()];
                let mut gen = ArrivalGen::new(arrivals, SplitMix64::new(root.next_u64()));
                if cfg.requests_per_tenant > 0 {
                    q.schedule_at(gen.next_gap(), LbEv::Arrival(t));
                }
                LbTenant {
                    gen,
                    to_offer: cfg.requests_per_tenant,
                }
            })
            .collect();
        LbPart {
            q,
            tenants,
            health: ServerHealth::new(fo.health, cfg.servers),
            rep: FailoverReport {
                classes: vec![ClassTotals::default(); fo.classes.len()],
                ..FailoverReport::default()
            },
            cfg: fo,
            policy: cfg.policy,
            fabric: cfg.fabric,
            request_bytes: cfg.request_bytes,
            servers: cfg.servers,
            rr_next: 0,
            outstanding: vec![0; cfg.servers],
            outages,
            reqs: Vec::new(),
            offered: 0,
            dispatched: vec![0; cfg.servers],
            goodput: 0,
            late: 0,
            shed: 0,
            e2e: Percentiles::new(),
        }
    }

    /// Whether the failover layer is on (a non-inert config).
    pub(super) fn failover_on(&self) -> bool {
        !self.cfg.is_inert()
    }

    /// Request `ri`'s class policy; `None` with the layer off.
    fn policy_of(&self, ri: usize) -> Option<ClassPolicy> {
        self.cfg.classes.get(self.reqs[ri].class).copied()
    }

    /// Bumps request `ri`'s class totals; a no-op with the layer off.
    fn count(&mut self, ri: usize, bump: impl FnOnce(&mut ClassTotals)) {
        if let Some(c) = self.rep.classes.get_mut(self.reqs[ri].class) {
            bump(c);
        }
    }

    /// The dispatch target for one attempt: a probe-due server first
    /// (lowest index — the probe IS the dispatch, flagged `true` so the
    /// caller starts it under the attempt's tag), then the policy
    /// applied over the healthy subset, avoiding `avoid` (a hedge or
    /// retry goes to a *different* server) when any alternative
    /// exists. With nothing healthy the policy runs over every server:
    /// the LB must dispatch somewhere, and a wrong guess only costs a
    /// timeout. With the layer off every server is healthy and `avoid`
    /// is `None`, so this is the plain policy. Allocates nothing.
    pub(super) fn pick_target(
        &mut self,
        tenant: usize,
        avoid: Option<usize>,
        now: Time,
    ) -> (usize, bool) {
        if let Some(s) = self.health.probe_due(now) {
            if avoid != Some(s) {
                return (s, true);
            }
        }
        // The candidates are the first non-empty tier of: healthy and
        // not `avoid`; healthy; not `avoid`; every server.
        let health = &self.health;
        let admits = |s: usize, (healthy, distinct): (bool, bool)| {
            (!healthy || health.states[s] == Health::Healthy) && !(distinct && avoid == Some(s))
        };
        let tier = [(true, true), (true, false), (false, true), (false, false)]
            .into_iter()
            .find(|&t| (0..self.servers).any(|s| admits(s, t)))
            .expect("the last tier admits every server");
        let cand = |s: usize| admits(s, tier);
        let least_loaded = || {
            (0..self.servers)
                .filter(|&s| cand(s))
                .min_by_key(|&s| (self.outstanding[s], s))
                .expect("the tier is non-empty")
        };
        let s = match self.policy {
            LbPolicy::RoundRobin => loop {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.servers;
                if cand(s) {
                    break s;
                }
            },
            LbPolicy::LeastLoaded => least_loaded(),
            LbPolicy::TenantAffinity => {
                // A sick pinned server spills to the least loaded
                // healthy alternative.
                let pinned = tenant % self.servers;
                if cand(pinned) {
                    pinned
                } else {
                    least_loaded()
                }
            }
        };
        (s, false)
    }

    /// Launches attempt `attempts.len()` of request `ri`: pick a
    /// server and send — unless a network-cut window eats the message.
    /// With the layer on it also arms the per-attempt timer
    /// (exponentially backed off by the retry count), which fires and
    /// re-dispatches even when the message was lost, and the hedge
    /// timer on the first attempt of a hedged class.
    fn dispatch_attempt(
        &mut self,
        ri: usize,
        avoid: Option<usize>,
        hedge: bool,
        out: &mut Outbox<FleetMsg>,
    ) {
        let now = self.q.now();
        let tenant = self.reqs[ri].tenant;
        let (server, probe) = self.pick_target(tenant, avoid, now);
        let k = self.reqs[ri].attempts.len();
        debug_assert!(k < MAX_ATTEMPTS);
        let tag = tag_of(ri, k);
        if probe {
            self.health.begin_probe(server, tag);
        }
        if let Some(pol) = self.policy_of(ri) {
            let backoff = if hedge { 0 } else { self.reqs[ri].retries_used };
            let timeout = pol.timeout * (1u64 << backoff.min(MAX_BACKOFF_SHIFT));
            self.q.schedule_at(now + timeout, LbEv::Timeout(tag));
            if k == 0 {
                if let Some(h) = pol.hedge_after {
                    self.q.schedule_at(now + h, LbEv::Hedge(tag));
                }
            }
        }
        self.reqs[ri].attempts.push(Attempt {
            server,
            sent_at: now,
            live: true,
            hedge,
        });
        self.outstanding[server] += 1;
        self.dispatched[server] += 1;
        if self.outages[server].iter().any(|o| o.covers(now)) {
            self.rep.dispatches_dropped += 1;
        } else {
            out.send(
                server,
                now + self.fabric.delivery_time(self.request_bytes),
                FleetMsg::Dispatch { tenant, tag },
            );
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
        let ri = self.reqs.len();
        self.reqs.push(LbReq {
            tenant,
            class: tenant % self.cfg.classes.len().max(1),
            arrived: now,
            attempts: Attempts::default(),
            retries_used: 0,
            open: true,
        });
        self.count(ri, |c| c.offered += 1);
        self.dispatch_attempt(ri, None, false, out);
    }

    /// Takes attempt `(ri, k)` out of the live set, releasing its
    /// server's outstanding slot; false when it already left.
    fn retire_attempt(&mut self, ri: usize, k: usize) -> bool {
        let a = &mut self.reqs[ri].attempts[k];
        if !a.live {
            return false;
        }
        a.live = false;
        let s = a.server;
        self.outstanding[s] = self.outstanding[s].saturating_sub(1);
        true
    }

    /// Closes request `ri` with a winning resolution's verdict. The
    /// end-to-end sample runs from the request's own arrival, and a
    /// completion past the class SLO (layer on) counts late.
    fn close_with(&mut self, ri: usize, outcome: Outcome, via_hedge: bool) {
        let now = self.q.now();
        let arrived = self.reqs[ri].arrived;
        let in_slo = self.policy_of(ri).is_none_or(|p| now <= arrived + p.slo);
        self.reqs[ri].open = false;
        match outcome {
            Outcome::Completed { within_deadline } if within_deadline && in_slo => {
                self.goodput += 1;
                self.count(ri, |c| c.goodput += 1);
                self.e2e.record((now - arrived).as_secs_f64());
                if via_hedge {
                    self.rep.hedge_wins += 1;
                }
            }
            Outcome::Completed { .. } => {
                self.late += 1;
                self.count(ri, |c| c.late += 1);
            }
            Outcome::Shed => {
                self.shed += 1;
                self.count(ri, |c| c.shed += 1);
            }
        }
    }

    /// Request `ri` has no live attempts left. Re-dispatch if the
    /// layer is on and budget and SLO headroom remain; otherwise shed
    /// it. `shed_resolution` carries a server Shed that triggered this
    /// — when nothing re-dispatches it becomes the winning resolution
    /// (the request resolves as shed *by the server*); on a
    /// re-dispatch it is superseded and counts as a cancelled
    /// duplicate.
    fn retry_or_shed(&mut self, ri: usize, shed_resolution: bool, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let req = &self.reqs[ri];
        let retry = self.policy_of(ri).is_some_and(|pol| {
            req.retries_used < pol.retries
                && req.attempts.len() < MAX_ATTEMPTS
                && now <= req.arrived + pol.slo
        });
        if retry {
            let last = req.attempts.last().map(|a| a.server);
            self.reqs[ri].retries_used += 1;
            self.rep.retries += 1;
            if shed_resolution {
                self.rep.duplicates_cancelled += 1;
            }
            self.dispatch_attempt(ri, last, false, out);
        } else if shed_resolution {
            // The server's Shed wins: the request resolves as shed.
            self.close_with(ri, Outcome::Shed, false);
        } else {
            // Closed by the timer alone — no resolution ever wins.
            self.reqs[ri].open = false;
            self.shed += 1;
            self.rep.lb_shed += 1;
            self.count(ri, |c| c.shed += 1);
        }
    }

    fn done(&mut self, server: usize, tag: u64, outcome: Outcome, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        self.rep.resolutions_received += 1;
        let (ri, k) = untag(tag);
        // Health signals, fed only with the layer on, so off every
        // server stays Healthy and no probe is ever in flight. A probe
        // reinstates the server only when the probed request actually
        // completed: a crashed server's shed layer answers probes
        // instantly over a perfectly healthy network, and reinstating
        // it would ping-pong traffic into a black hole. Otherwise a
        // completion contributes an RTT sample, while a shed — however
        // *fast* it came back — extends the server's failure streak: a
        // crashed or saturated server rejecting instantly must lose
        // traffic, not gain it.
        let completed = matches!(outcome, Outcome::Completed { .. });
        if !self.health.probe_result(server, tag, completed, now) && self.failover_on() {
            if completed {
                let sent = self.reqs[ri].attempts[k].sent_at;
                self.health.record(server, (now - sent).as_secs_f64(), now);
            } else {
                self.health.on_failure(server, now);
            }
        }
        self.retire_attempt(ri, k);
        if !self.reqs[ri].open {
            self.rep.duplicates_cancelled += 1;
            return;
        }
        match outcome {
            Outcome::Completed { .. } => {
                // First resolution wins — even a late original whose
                // timer already fired and whose retry is in flight;
                // the retry's resolution will arrive as a duplicate.
                let via_hedge = self.reqs[ri].attempts[k].hedge;
                self.close_with(ri, outcome, via_hedge);
            }
            Outcome::Shed => {
                if self.reqs[ri].attempts.iter().any(|a| a.live) {
                    // A parallel arm (hedge or raced retry) is still
                    // running; this shed decides nothing.
                    self.rep.duplicates_cancelled += 1;
                } else {
                    self.retry_or_shed(ri, true, out);
                }
            }
        }
    }

    fn timeout(&mut self, tag: u64, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let (ri, k) = untag(tag);
        if !self.retire_attempt(ri, k) {
            return; // Resolved before the timer fired; stale.
        }
        self.rep.timeouts += 1;
        let server = self.reqs[ri].attempts[k].server;
        if !self.health.probe_result(server, tag, false, now) {
            self.health.on_failure(server, now);
        }
        if !self.reqs[ri].open {
            return; // Hedge-arm timer of an already-closed request.
        }
        if self.reqs[ri].attempts.iter().any(|a| a.live) {
            return; // The other arm is still in flight.
        }
        self.retry_or_shed(ri, false, out);
    }

    fn hedge(&mut self, tag: u64, out: &mut Outbox<FleetMsg>) {
        let (ri, k) = untag(tag);
        let req = &self.reqs[ri];
        if !req.open || !req.attempts[k].live || req.attempts.len() >= MAX_ATTEMPTS {
            return;
        }
        let primary = req.attempts[k].server;
        self.rep.hedges += 1;
        self.dispatch_attempt(ri, Some(primary), true, out);
    }

    /// Events the balancer's own queue processed.
    pub(super) fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// The failover report: the ledger counters with the health
    /// counters folded in, and the stranded (still-open) requests —
    /// structurally zero with the layer on.
    pub(super) fn report(&self) -> FailoverReport {
        FailoverReport {
            demotions: self.health.demotions,
            darks: self.health.darks,
            probes: self.health.probes,
            recoveries: self.health.recoveries,
            stranded: self.reqs.iter().filter(|r| r.open).count() as u64,
            ..self.rep.clone()
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
        for m in inbox.drain(..) {
            let FleetMsg::Done { tag, outcome } = m.payload else {
                unreachable!("the LB only receives resolutions");
            };
            self.q.schedule_at(
                m.time,
                LbEv::Done {
                    server: m.src,
                    tag,
                    outcome,
                },
            );
        }
        while self.q.peek_time().is_some_and(|t| t < horizon) {
            match self.q.pop().expect("peeked event") {
                LbEv::Arrival(t) => self.arrival(t, out),
                LbEv::Done {
                    server,
                    tag,
                    outcome,
                } => self.done(server, tag, outcome, out),
                LbEv::Timeout(tag) => self.timeout(tag, out),
                LbEv::Hedge(tag) => self.hedge(tag, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_probe_attempt_settles_a_probing_server() {
        let p = LbHealthParams::default();
        let (mut h, now) = (ServerHealth::new(p, 2), p.probation);
        h.on_failure(0, Time::ZERO);
        assert_eq!(h.probe_due(Time::ZERO), None, "still in probation");
        assert_eq!(h.probe_due(now), Some(0));
        h.begin_probe(0, 5);
        // Attempt 6 resolves or times out while attempt 5 probes; the
        // LB then feeds it as a plain sample or failure, which a
        // probing server ignores.
        for ok in [true, false] {
            assert!(!h.probe_result(0, 6, ok, now));
        }
        h.record(0, 1e-3, now);
        h.on_failure(0, now);
        assert_eq!(h.states[0], Health::Probing(5));
        assert!(h.probe_result(0, 5, true, now), "only attempt 5 decides");
        assert_eq!(h.states[0], Health::Healthy);
        assert_eq!((h.probes, h.recoveries, h.darks), (1, 1, 0));
    }
}
