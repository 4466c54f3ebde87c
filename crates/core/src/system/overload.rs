//! Overload control: admission, deadlines, load shedding, and circuit
//! breaking.
//!
//! PR 1's fault layer keeps the chain alive when hardware misbehaves;
//! this layer keeps it *stable* when demand exceeds capacity. Four
//! cooperating mechanisms, all deterministic:
//!
//! * **Admission control** — a [`TokenBucket`] per tenant caps each
//!   tenant's sustained request rate (with a burst allowance), and a
//!   global concurrency limit caps work in flight. Requests that pass
//!   admission but find the server busy wait in a bounded EDF queue
//!   ([`dmx_sim::BoundedQueue`] keyed by deadline).
//! * **Deadlines** — every open-loop request carries
//!   `arrival + deadline`; completions after it count as *late*, not
//!   goodput.
//! * **Load shedding** — a full queue rejects new arrivals, and (under
//!   [`ShedPolicy::Reject`]) a request whose deadline already passed
//!   when it reaches the head of the queue is dropped instead of
//!   wasting capacity; [`ShedPolicy::Downgrade`] runs it anyway as
//!   best-effort.
//! * **Circuit breaker** — a per-DRX [`Breaker`] watches the recovery
//!   layer's fault signals (command timeouts, chunk replays). When the
//!   recent fault count crosses a threshold the breaker opens and the
//!   unit's batches reroute to the host-CPU path; after a cooldown it
//!   half-opens and sends a single probe batch, closing again only if
//!   the probe runs clean.
//!
//! The layer's live state — each tenant's arrival stream and bucket,
//! the EDF queue, the breakers and the ingress credit gate — lives
//! here too, with the simulator code that admits arrivals, refills
//! freed slots, feeds the breakers and wakes parked transfers.

use super::{Ev, Outcome, Sim, SimError};
use crate::apps::BenchmarkRef;
use dmx_pcie::CreditGate;
use dmx_sim::health::{Health, Route};
use dmx_sim::{ArrivalGen, ArrivalProcess, BoundedQueue, FastMap, Percentiles, SplitMix64, Time};

/// Per-tenant rate limiting plus a global concurrency cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionParams {
    /// Sustained request rate each tenant may submit (tokens/second).
    /// `f64::INFINITY` disables rate limiting.
    pub tokens_per_sec: f64,
    /// Bucket depth: how many requests a tenant may burst above the
    /// sustained rate.
    pub burst: f64,
    /// Requests the whole server processes concurrently; arrivals
    /// beyond it queue. `usize::MAX` disables the limit.
    pub max_inflight: usize,
}

impl AdmissionParams {
    /// No admission control at all.
    pub(crate) fn unlimited() -> AdmissionParams {
        AdmissionParams {
            tokens_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            max_inflight: usize::MAX,
        }
    }

    /// True when neither the rate limiter nor the concurrency cap can
    /// ever refuse or queue a request.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.tokens_per_sec.is_infinite() && self.max_inflight == usize::MAX
    }
}

/// Deterministic token bucket (leaky-bucket admission).
///
/// ```
/// use dmx_core::overload::TokenBucket;
/// use dmx_sim::Time;
/// let mut b = TokenBucket::new(1000.0, 2.0); // 1k rps, burst of 2
/// assert!(b.try_take(Time::ZERO));
/// assert!(b.try_take(Time::ZERO));
/// assert!(!b.try_take(Time::ZERO)); // burst exhausted
/// assert!(b.try_take(Time::from_ms(1))); // refilled one token
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    /// Creates a full bucket refilling at `rate` tokens/second up to
    /// `burst` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `burst` is not positive.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        assert!(rate > 0.0, "token rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one token");
        TokenBucket {
            rate,
            burst,
            tokens: burst.min(1e18),
            last: Time::ZERO,
        }
    }

    /// Takes one token at `now` if available.
    pub fn try_take(&mut self, now: Time) -> bool {
        if self.rate.is_infinite() {
            return true;
        }
        let dt = now.saturating_sub(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens = (self.tokens + self.rate * dt).min(self.burst.min(1e18));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// What to do with a request whose deadline has already passed when it
/// is dequeued for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Drop it: the capacity goes to requests that can still make
    /// their deadlines (counted in `shed_deadline`).
    Reject,
    /// Run it anyway as best-effort; its completion counts as late.
    Downgrade,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerParams {
    /// Master switch; `false` keeps every unit permanently closed.
    pub enabled: bool,
    /// Sliding window over which fault events are counted.
    pub window: Time,
    /// Fault events within the window that trip the breaker open.
    pub threshold: u32,
    /// How long an open breaker rejects traffic before it half-opens
    /// and sends a probe.
    pub cooldown: Time,
}

impl Default for BreakerParams {
    fn default() -> Self {
        BreakerParams {
            enabled: false,
            window: Time::from_ms(1),
            threshold: 8,
            cooldown: Time::from_ms(2),
        }
    }
}

/// Per-unit circuit breaker (closed → open → half-open) on the
/// [`dmx_sim::health`] lifecycle, fed by fault events.
///
/// Fault events are timestamps; the breaker trips when `threshold`
/// events land within `window`. While open, all traffic reroutes; once
/// `cooldown` elapses every batch routes as a probe until
/// `Breaker::probe_result` reports one: a probe's outcome is known at
/// dispatch, so the breaker never enters [`Health::Probing`]. A clean
/// probe closes the breaker (and clears the window), a faulty one
/// re-opens it for another cooldown.
#[derive(Debug, Clone, Default)]
pub struct Breaker {
    /// Recent fault-event timestamps, oldest first.
    events: Vec<Time>,
    /// Closed (`Healthy`), or open until the cooldown ends (`Demoted`).
    health: Health,
}

impl Breaker {
    /// Routing decision for a batch arriving at `now`.
    pub(crate) fn route(&self, now: Time) -> Route {
        self.health.route(now)
    }

    /// Records a fault event on the unit; returns `true` when this
    /// event trips the breaker open.
    pub(crate) fn record_fault(&mut self, now: Time, p: &BreakerParams) -> bool {
        if self.health != Health::Healthy {
            // Already rerouting; residual faults don't re-trip.
            return false;
        }
        let cutoff = now.saturating_sub(p.window);
        self.events.retain(|&t| t >= cutoff);
        self.events.push(now);
        if self.events.len() as u32 >= p.threshold {
            self.trip(now, p);
            true
        } else {
            false
        }
    }

    /// Reports the outcome of a probe batch dispatched after
    /// [`Breaker::route`] returned [`Route::Probe`].
    pub(crate) fn probe_result(&mut self, now: Time, clean: bool, p: &BreakerParams) {
        if clean {
            self.health = Health::Healthy;
            self.events.clear();
        } else {
            self.trip(now, p);
        }
    }

    fn trip(&mut self, now: Time, p: &BreakerParams) {
        self.health = Health::Demoted {
            until: now + p.cooldown,
            dark: false,
        };
        self.events.clear();
    }
}

/// Full overload-control configuration of one run.
///
/// `None` in [`crate::system::SystemConfig::overload`] disables the
/// layer entirely; an inert config ([`OverloadConfig::none`]) must
/// produce results identical to `None` (the simulator takes the same
/// zero-overhead path, verified by integration tests).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Seed for the arrival streams (tenant `i` draws from a sub-seed
    /// derived from `seed` and `i`).
    pub seed: u64,
    /// Open-loop arrival process per tenant, one entry per app in
    /// config order. Empty keeps the closed loop (inert). Each tenant
    /// submits `requests_per_app` arrivals.
    pub arrivals: Vec<ArrivalProcess>,
    /// Admission control.
    pub admission: AdmissionParams,
    /// Relative deadline stamped on every arrival; `Time::MAX` (with
    /// no other limits) means deadlines never bind.
    pub deadline: Time,
    /// Policy for requests already late at dispatch.
    pub shed: ShedPolicy,
    /// Bound of the pending (admitted, not yet dispatched) EDF queue.
    pub queue_capacity: usize,
    /// Per-DRX ingress credit in bytes for end-to-end backpressure;
    /// `0` disables the credit gate.
    pub ingress_queue_bytes: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerParams,
}

impl OverloadConfig {
    /// An inert config: closed loop, no limits, no breaker, no gate.
    pub fn none() -> OverloadConfig {
        OverloadConfig {
            seed: 0,
            arrivals: Vec::new(),
            admission: AdmissionParams::unlimited(),
            deadline: Time::MAX,
            shed: ShedPolicy::Downgrade,
            queue_capacity: usize::MAX,
            ingress_queue_bytes: 0,
            breaker: BreakerParams::default(),
        }
    }

    /// True when no mechanism of the layer can ever fire: the config
    /// behaves exactly like `overload: None`.
    pub(crate) fn is_inert(&self) -> bool {
        self.arrivals.is_empty()
            && self.admission.is_unlimited()
            && self.deadline == Time::MAX
            && self.ingress_queue_bytes == 0
            && !self.breaker.enabled
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::none()
    }
}

/// Per-tenant overload accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOverload {
    /// Benchmark name of the tenant's app.
    pub name: &'static str,
    /// Open-loop arrivals generated.
    pub offered: u64,
    /// Arrivals that passed the token bucket.
    pub admitted: u64,
    /// Arrivals refused by the token bucket.
    pub rejected_admission: u64,
    /// Admitted arrivals refused because the pending queue was full.
    pub rejected_queue_full: u64,
    /// Requests dropped at dispatch because their deadline had passed.
    pub shed_deadline: u64,
    /// Completions within their deadline.
    pub goodput: u64,
    /// Completions after their deadline (best-effort).
    pub late: u64,
    /// Restructure batches rerouted to the host path by an open
    /// breaker.
    pub breaker_rerouted: u64,
    /// Breaker trips attributed to this tenant's units.
    pub breaker_activations: u64,
    /// Median end-to-end latency of goodput completions.
    pub goodput_p50: Time,
    /// 99th-percentile goodput latency.
    pub goodput_p99: Time,
    /// 99.9th-percentile goodput latency.
    pub goodput_p999: Time,
}

impl TenantOverload {
    /// Arrivals shed anywhere (admission, queue, or deadline).
    pub(crate) fn shed(&self) -> u64 {
        self.rejected_admission + self.rejected_queue_full + self.shed_deadline
    }

    /// Fraction of offered load shed anywhere (admission, queue, or
    /// deadline).
    pub(crate) fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed() as f64 / self.offered as f64
    }
}

/// What the overload-control layer did during a run. `None` in
/// [`crate::system::RunResult::overload`] when the layer was disabled
/// or inert.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Per-tenant accounting, in app order.
    pub tenants: Vec<TenantOverload>,
    /// Largest pending-queue occupancy observed (must stay within the
    /// configured bound).
    pub queue_peak: usize,
    /// Time-weighted mean pending-queue occupancy.
    pub queue_mean: f64,
    /// Mean time dispatched requests waited in the pending queue.
    pub queue_wait_mean: Time,
    /// Transfers that stalled for ingress credit (backpressure).
    pub backpressure_stalls: u64,
    /// Total time transfers spent stalled for credit.
    pub backpressure_stall_time: Time,
    /// Breaker trips across all units.
    pub breaker_activations: u64,
}

impl OverloadReport {
    /// Total arrivals across tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Total within-deadline completions.
    pub fn goodput(&self) -> u64 {
        self.tenants.iter().map(|t| t.goodput).sum()
    }

    /// Total sheds of any kind.
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(TenantOverload::shed).sum()
    }

    /// The request ledger: every offered arrival completed (in or out
    /// of deadline), was shed, or is one of `extra` requests resolved
    /// by another layer (quarantined, crash-killed).
    pub(crate) fn conserved_with(&self, extra: u64) -> bool {
        let resolved: u64 = self
            .tenants
            .iter()
            .map(|t| t.goodput + t.late + t.shed())
            .sum();
        self.offered() == resolved + extra
    }

    /// Shed fraction of offered load.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }
}

/// Builds the per-tenant report skeletons for `apps`.
pub(crate) fn tenant_skeletons(apps: &[BenchmarkRef]) -> Vec<TenantOverload> {
    apps.iter()
        .map(|a| TenantOverload {
            name: a.name,
            offered: 0,
            admitted: 0,
            rejected_admission: 0,
            rejected_queue_full: 0,
            shed_deadline: 0,
            goodput: 0,
            late: 0,
            breaker_rerouted: 0,
            breaker_activations: 0,
            goodput_p50: Time::ZERO,
            goodput_p99: Time::ZERO,
            goodput_p999: Time::ZERO,
        })
        .collect()
}

/// One open-loop tenant: its arrival stream, rate limiter, and
/// accounting.
#[derive(Debug)]
pub(super) struct TenantState {
    /// Arrival-gap generator; `None` in closed-loop (breaker/gate-only)
    /// configs.
    arrivals: Option<ArrivalGen>,
    /// Token bucket; `None` when the rate is unlimited.
    bucket: Option<TokenBucket>,
    /// Arrivals still to schedule.
    to_offer: usize,
    /// Counters destined for the report.
    pub(super) stats: TenantOverload,
    /// End-to-end latencies of within-deadline completions.
    pub(super) goodput_lat: Percentiles,
}

impl TenantState {
    /// Takes one arrival off the offer budget and draws the gap before
    /// it; `None` once the budget is spent. Externally fed tenants have
    /// neither a budget nor a stream: their front end decides when the
    /// next arrival lands.
    pub(super) fn next_arrival(&mut self) -> Option<Time> {
        if self.to_offer == 0 {
            return None;
        }
        self.to_offer -= 1;
        Some(self.arrivals.as_mut().expect("open-loop tenant").next_gap())
    }
}

/// A request admitted but waiting for an inflight slot.
#[derive(Debug)]
pub(super) struct Pending {
    app: usize,
    arrived: Time,
    deadline: Time,
    /// Caller's opaque arrival tag, echoed in the resolution.
    tag: u64,
}

/// Live state of the overload-control layer; `None` on `Sim` when the
/// config has no (or an inert) overload section, so the hot path is
/// byte-identical to the pre-overload simulator.
#[derive(Debug)]
pub(super) struct OvState {
    pub(super) cfg: OverloadConfig,
    /// Arrivals drive the run (vs closed-loop with breaker/gate only).
    pub(super) open_loop: bool,
    pub(super) tenants: Vec<TenantState>,
    /// Admitted-but-not-dispatched requests, EDF order (key =
    /// absolute deadline in ps).
    pub(super) pending: BoundedQueue<Pending>,
    /// Requests currently dispatched into the chain.
    inflight: usize,
    /// Per-DRX-unit circuit breakers (created on first use).
    pub(super) breakers: FastMap<u64, Breaker>,
    /// Ingress credit gate; `None` when backpressure is disabled.
    pub(super) gate: Option<CreditGate>,
    /// [`Sim::free_slot_and_dispatch`]'s buffers: the requests it pops
    /// to start and to shed.
    to_start: Vec<(usize, Time, Time, u64)>,
    to_shed: Vec<(usize, u64)>,
}

impl OvState {
    pub(super) fn new(
        o: &OverloadConfig,
        apps: &[BenchmarkRef],
        requests_per_app: usize,
        external: bool,
    ) -> OvState {
        // Externally-driven simulations (fleet servers) receive every
        // arrival by injection: the admission/EDF/shed machinery runs,
        // but no tenant generates its own stream.
        let open_loop = external || !o.arrivals.is_empty();
        // Independent per-tenant sub-streams drawn from the root seed.
        let mut root = SplitMix64::new(o.seed);
        let tenants =
            tenant_skeletons(apps)
                .into_iter()
                .enumerate()
                .map(|(i, stats)| {
                    let sub = root.next_u64();
                    TenantState {
                        arrivals: (open_loop && !external).then(|| {
                            ArrivalGen::new(o.arrivals[i % o.arrivals.len()], SplitMix64::new(sub))
                        }),
                        bucket: o.admission.tokens_per_sec.is_finite().then(|| {
                            TokenBucket::new(o.admission.tokens_per_sec, o.admission.burst)
                        }),
                        to_offer: if external { 0 } else { requests_per_app },
                        stats,
                        goodput_lat: Percentiles::new(),
                    }
                })
                .collect();
        OvState {
            cfg: o.clone(),
            open_loop,
            tenants,
            pending: BoundedQueue::new(o.queue_capacity.max(1)),
            inflight: 0,
            breakers: FastMap::default(),
            gate: (o.ingress_queue_bytes > 0).then(|| CreditGate::new(o.ingress_queue_bytes)),
            to_start: Vec::new(),
            to_shed: Vec::new(),
        }
    }
}

impl Sim<'_> {
    /// Feeds `count` fault events on `unit` into its circuit breaker,
    /// attributing any resulting trip to tenant `app`. No-op without an
    /// enabled breaker.
    pub(super) fn breaker_faults(&mut self, unit: u64, app: usize, count: u64) {
        let now = self.q.now();
        let Some(ov) = self.ov.as_mut() else { return };
        if !ov.cfg.breaker.enabled {
            return;
        }
        let p = ov.cfg.breaker;
        let br = ov.breakers.entry(unit).or_default();
        let trips = (0..count).filter(|_| br.record_fault(now, &p)).count();
        ov.tenants[app].stats.breaker_activations += trips as u64;
    }

    /// One open-loop arrival of tenant `app`: count it, schedule the
    /// next one, then run it through admission — token bucket, inflight
    /// slot, bounded EDF queue — shedding it if every stage refuses.
    pub(super) fn arrival(&mut self, app: usize, tag: u64) -> Result<(), SimError> {
        enum Verdict {
            Start(Time),
            Queued,
            Shed,
        }
        let now = self.q.now();
        let quarantined = now < self.quarantine_until[app];
        let (next_gap, verdict) = {
            let ov = self.ov.as_mut().expect("arrival without overload state");
            let ts = &mut ov.tenants[app];
            ts.stats.offered += 1;
            let next_gap = ts.next_arrival();
            let admitted = !quarantined && ts.bucket.as_mut().is_none_or(|b| b.try_take(now));
            let verdict = if quarantined {
                // Tenant is quarantined after a poisoned batch: shed
                // before admission (no token is consumed; counted in
                // the integrity report, not the tenant's overload
                // stats, so the two causes stay distinguishable).
                self.ireport.quarantine_shed += 1;
                Verdict::Shed
            } else if !admitted {
                ts.stats.rejected_admission += 1;
                Verdict::Shed
            } else {
                ts.stats.admitted += 1;
                let deadline = now.checked_add(ov.cfg.deadline).unwrap_or(Time::MAX);
                if ov.inflight < ov.cfg.admission.max_inflight {
                    ov.inflight += 1;
                    Verdict::Start(deadline)
                } else if ov.pending.try_push(
                    now,
                    deadline.as_ps(),
                    Pending {
                        app,
                        arrived: now,
                        deadline,
                        tag,
                    },
                ) {
                    Verdict::Queued
                } else {
                    ov.tenants[app].stats.rejected_queue_full += 1;
                    Verdict::Shed
                }
            };
            (next_gap, verdict)
        };
        if let Some(gap) = next_gap {
            self.q.schedule_at(now + gap, Ev::Arrival(app, 0));
        }
        match verdict {
            Verdict::Start(deadline) => self.start_request_at(app, now, deadline, tag)?,
            Verdict::Queued => {}
            Verdict::Shed => {
                self.remaining = self.remaining.saturating_sub(1);
                self.resolve(app, tag, Outcome::Shed);
            }
        }
        Ok(())
    }

    /// Frees one inflight slot and dispatches from the EDF queue,
    /// shedding (under `ShedPolicy::Reject`) requests whose deadlines
    /// already passed while they waited.
    pub(super) fn free_slot_and_dispatch(&mut self, now: Time) -> Result<(), SimError> {
        let Some(ov) = self.ov.as_mut() else {
            return Ok(());
        };
        // Borrowed out of the layer for the call, so the starts below
        // can reach `self`; a start that re-enters finds them empty.
        let mut to_start = std::mem::take(&mut ov.to_start);
        let mut to_shed = std::mem::take(&mut ov.to_shed);
        ov.inflight = ov.inflight.saturating_sub(1);
        while ov.inflight < ov.cfg.admission.max_inflight {
            let Some((_, p, _)) = ov.pending.pop_min(now) else {
                break;
            };
            if now > p.deadline && ov.cfg.shed == ShedPolicy::Reject {
                ov.tenants[p.app].stats.shed_deadline += 1;
                to_shed.push((p.app, p.tag));
                continue;
            }
            ov.inflight += 1;
            to_start.push((p.app, p.arrived, p.deadline, p.tag));
        }
        self.remaining = self.remaining.saturating_sub(to_shed.len());
        for (app, tag) in to_shed.drain(..) {
            self.resolve(app, tag, Outcome::Shed);
        }
        for (app, arrived, deadline, tag) in to_start.drain(..) {
            self.start_request_at(app, arrived, deadline, tag)?;
        }
        if let Some(ov) = self.ov.as_mut() {
            (ov.to_start, ov.to_shed) = (to_start, to_shed);
        }
        Ok(())
    }

    /// Applies `op` to the ingress credit gate, if there is one, and
    /// resumes the transfers it wakes.
    pub(super) fn gate(
        &mut self,
        op: impl FnOnce(&mut CreditGate) -> Vec<u64>,
    ) -> Result<(), SimError> {
        let gate = self.ov.as_mut().and_then(|ov| ov.gate.as_mut());
        for token in gate.map(op).unwrap_or_default() {
            self.resume_to_restr(token)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_at_threshold_and_recovers_via_probe() {
        let p = BreakerParams {
            enabled: true,
            window: Time::from_ms(1),
            threshold: 3,
            cooldown: Time::from_ms(5),
        };
        let mut b = Breaker::default();
        assert_eq!(b.route(Time::ZERO), Route::Primary);
        assert!(!b.record_fault(Time::from_us(10), &p));
        assert!(!b.record_fault(Time::from_us(20), &p));
        assert!(b.record_fault(Time::from_us(30), &p), "third fault trips");
        // Open: reroute during the cooldown.
        assert_eq!(b.route(Time::from_us(40)), Route::Fallback);
        let after = Time::from_us(30) + p.cooldown;
        assert!(matches!(b.health, Health::Demoted { until, .. } if until == after));
        // Cooldown over: half-open, next batch probes.
        assert_eq!(b.route(after), Route::Probe);
        // Clean probe closes; faulty probe re-opens.
        b.probe_result(after, true, &p);
        assert_eq!(b.route(after), Route::Primary);
        assert!(b.record_fault(after + Time::from_us(1), &p) || b.events.len() == 1);
    }
}
