//! Fail-slow (gray) failure detection and mitigation policy.
//!
//! Crash-stop failures announce themselves; gray failures don't. A
//! throttled DRX or a retraining link keeps completing work with no
//! fault signal at all — the only evidence is that *observed* service
//! time drifts away from nominal. This module holds the whole layer:
//!
//! * **Detection** — a [`HealthScorer`] keeps a rolling window of
//!   service-time ratios (observed / nominal) per device and flags a
//!   device whose rolling mean is a tunable outlier against the fleet
//!   baseline (the median of the *other* devices' means, floored at
//!   nominal). Comparing against the fleet rather than a fixed
//!   threshold is what keeps a healthy-but-noisy fleet — where every
//!   device queues a little — from tripping false positives.
//! * **Recovery** — a flagged device follows the [`dmx_sim::health`]
//!   lifecycle, like the overload layer's circuit breaker: it sits out
//!   a probation, then one probe batch runs on the suspect, and its
//!   observed ratio decides between reinstatement and another
//!   probation.
//! * **Mitigation** — demotion runs a suspect's batches on a healthy
//!   peer DRX of the same kind (host cores when none exists), and a
//!   batch still unfinished past its hedge threshold gets a
//!   speculative duplicate; the first arm to finish wins.
//!
//! The injection side lives here too: device degrades derate a batch's
//! service time at dispatch, link and subtree degrades cut fabric
//! bandwidth for their windows and duty cycles. [`FailSlowConfig`]
//! carries the mitigation tuning and [`FailSlowReport`] the accounting,
//! including the hedge conservation law
//! `hedged == won_primary + won_hedge + cancelled`.

use super::{Ev, Res, Sim, SimError, Step};
use crate::placement::{DrxUnit, Engine};
use dmx_drx::Derate;
use dmx_pcie::LinkId;
use dmx_sim::health::{Health, Route};
use dmx_sim::{DegradeTarget, Time};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Health-scorer tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthParams {
    /// Rolling window length, in samples, of the per-device service
    /// ratio estimate.
    pub window: usize,
    /// Samples required before a device can be flagged (or counted
    /// into the fleet baseline) — one slow batch is not a gray device.
    pub min_samples: usize,
    /// A device is flagged when its rolling mean ratio exceeds
    /// `outlier_factor` times the fleet baseline.
    pub outlier_factor: f64,
    /// How long a flagged device is demoted before it half-opens and
    /// receives a probe batch.
    pub probation: Time,
}

impl Default for HealthParams {
    fn default() -> Self {
        HealthParams {
            window: 16,
            min_samples: 4,
            outlier_factor: 2.0,
            probation: Time::from_ms(1),
        }
    }
}

#[derive(Debug, Clone)]
struct Dev {
    samples: VecDeque<f64>,
    sum: f64,
    state: Health,
}

impl Dev {
    fn new() -> Dev {
        Dev {
            samples: VecDeque::new(),
            sum: 0.0,
            state: Health::Healthy,
        }
    }

    fn push(&mut self, ratio: f64, window: usize) {
        self.samples.push_back(ratio);
        self.sum += ratio;
        while self.samples.len() > window {
            self.sum -= self.samples.pop_front().expect("len checked");
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }
}

/// Per-device fail-slow detector with probation/half-open recovery.
///
/// Devices are keyed by stable unit id and iterated in `BTreeMap`
/// order everywhere, so the scorer is deterministic regardless of the
/// order completions happen to arrive in different (byte-identical)
/// runs.
#[derive(Debug, Clone)]
pub struct HealthScorer {
    params: HealthParams,
    devs: BTreeMap<u64, Dev>,
    gray_flags: u64,
    recoveries: u64,
    probes: u64,
    /// [`HealthScorer::baseline_excluding`]'s buffer.
    scratch: Vec<f64>,
}

impl HealthScorer {
    /// Creates a scorer with the given tuning.
    pub(crate) fn new(params: HealthParams) -> HealthScorer {
        HealthScorer {
            params,
            devs: BTreeMap::new(),
            gray_flags: 0,
            recoveries: 0,
            probes: 0,
            scratch: Vec::new(),
        }
    }

    /// The fleet baseline a device is judged against: the median of
    /// the *other* devices' rolling means (those with enough samples),
    /// floored at the nominal ratio 1. With no peers to compare
    /// against the baseline is nominal.
    pub(crate) fn baseline_excluding(&mut self, unit: u64) -> f64 {
        let means = &mut self.scratch;
        means.clear();
        means.extend(
            self.devs
                .iter()
                .filter(|(&u, d)| u != unit && d.samples.len() >= self.params.min_samples)
                .filter_map(|(_, d)| d.mean()),
        );
        if means.is_empty() {
            return 1.0;
        }
        means.sort_by(|a, b| a.total_cmp(b));
        let mid = means.len() / 2;
        let median = if means.len() % 2 == 1 {
            means[mid]
        } else {
            (means[mid - 1] + means[mid]) / 2.0
        };
        median.max(1.0)
    }

    /// Routing decision for batch `id` headed to `unit` at `now`. Once
    /// a suspect's probation has elapsed, `id` becomes its probe, so
    /// exactly one batch probes at a time.
    pub(crate) fn route(&mut self, now: Time, unit: u64, id: u64) -> Route {
        let Some(dev) = self.devs.get_mut(&unit) else {
            return Route::Primary;
        };
        let route = dev.state.route(now);
        if route == Route::Probe {
            dev.state = Health::Probing(id);
            self.probes += 1;
        }
        route
    }

    /// Records the observed service ratio (observed / nominal) of batch
    /// `id`, which ran on `unit`. If `id` is the unit's probe it settles
    /// the unit: a clean probe reinstates the device (and resets its
    /// window — the old gray samples must not re-flag it); a slow one
    /// starts another probation. Any other batch is one more sample.
    /// Returns `true` when this sample flags the device as
    /// suspected-gray.
    pub(crate) fn observe(&mut self, now: Time, unit: u64, id: u64, ratio: f64) -> bool {
        let p = self.params;
        let demoted = Health::Demoted {
            until: now + p.probation,
            dark: false,
        };
        let dev = self.devs.entry(unit).or_insert_with(Dev::new);
        if dev.state == Health::Probing(id) {
            let clean = ratio <= p.outlier_factor * self.baseline_excluding(unit);
            let dev = self.devs.get_mut(&unit).expect("present");
            if clean {
                dev.samples.clear();
                dev.sum = 0.0;
                dev.state = Health::Healthy;
                self.recoveries += 1;
            } else {
                dev.state = demoted;
            }
            return false;
        }
        dev.push(ratio, p.window);
        if dev.state != Health::Healthy || dev.samples.len() < p.min_samples {
            return false;
        }
        let mean = dev.mean().expect("non-empty window");
        if mean > p.outlier_factor * self.baseline_excluding(unit) {
            self.devs.get_mut(&unit).expect("present").state = demoted;
            self.gray_flags += 1;
            true
        } else {
            false
        }
    }

    /// True while `unit` is flagged (suspected or probing).
    pub(crate) fn suspected(&self, unit: u64) -> bool {
        self.devs
            .get(&unit)
            .is_some_and(|d| d.state != Health::Healthy)
    }

    /// Times any device was flagged suspected-gray.
    pub(crate) fn gray_flags(&self) -> u64 {
        self.gray_flags
    }

    /// Times a probe reinstated a flagged device.
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Probe batches dispatched.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }
}

/// Fail-slow mitigation configuration.
///
/// `None` in [`crate::system::SystemConfig::failslow`] disables the
/// layer entirely; an inert config ([`FailSlowConfig::none`]) must
/// produce results byte-identical to `None`. Note the *injection* side
/// lives in the fault plan ([`dmx_sim::fault::FaultConfig::degrades`]):
/// degradations fire and are reported whether or not mitigation is on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSlowConfig {
    /// Health-scorer tuning.
    pub scorer: HealthParams,
    /// Demote suspected-gray devices in routing: their batches run on
    /// a healthy peer DRX of the same kind, or on the host path when
    /// no peer exists.
    pub demote: bool,
    /// A restructure batch still unfinished after
    /// `hedge_multiplier x nominal service time` gets a speculative
    /// duplicate on a healthy peer or the host path; first completion
    /// wins. `0` disables hedging.
    pub hedge_multiplier: f64,
    /// Lower bound on the hedge threshold, so tiny batches don't hedge
    /// on scheduling noise.
    pub hedge_floor: Time,
}

impl FailSlowConfig {
    /// An inert config: no demotion, no hedging — byte-identical to
    /// the layer being absent.
    pub fn none() -> FailSlowConfig {
        FailSlowConfig {
            scorer: HealthParams::default(),
            demote: false,
            hedge_multiplier: 0.0,
            hedge_floor: Time::ZERO,
        }
    }

    /// True when neither mitigation can ever fire.
    pub(crate) fn is_inert(&self) -> bool {
        !self.demote && self.hedge_multiplier == 0.0
    }
}

impl Default for FailSlowConfig {
    fn default() -> Self {
        FailSlowConfig::none()
    }
}

/// What the fail-slow layer did during a run: injection visibility,
/// detection counters, and mitigation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailSlowReport {
    /// Restructure batches whose device service time was stretched by
    /// an active degradation.
    pub slowed_batches: u64,
    /// Total extra service time injected into those batches.
    pub slow_extra_time: Time,
    /// Link-degradation windows applied to the PCIe fabric (one per
    /// affected link per on-phase).
    pub link_degrades: u64,
    /// Times a device was flagged suspected-gray.
    pub gray_flags: u64,
    /// Probe batches sent to flagged devices after probation.
    pub probes: u64,
    /// Probes that reinstated their device.
    pub recoveries: u64,
    /// Batches demoted away from a suspected device.
    pub demoted_batches: u64,
    /// Speculative duplicates launched for stuck batches.
    pub hedged: u64,
    /// Hedged batches whose original completed first.
    pub won_primary: u64,
    /// Hedged batches whose duplicate completed first.
    pub won_hedge: u64,
    /// Hedges cancelled with no winner: the request was torn down
    /// (crash, kill, shed) before either arm finished.
    pub cancelled: u64,
}

impl FailSlowReport {
    /// True when anything in the layer fired.
    pub fn any(&self) -> bool {
        *self != FailSlowReport::default()
    }

    /// The hedge conservation law: every launched hedge resolves
    /// exactly once — primary won, hedge won, or the request died
    /// first.
    pub fn hedge_conserved(&self) -> bool {
        self.hedged == self.won_primary + self.won_hedge + self.cancelled
    }
}

impl Sim<'_> {
    /// Anchors the in-flight batch's fail-slow clock at `start` (the
    /// engine-start instant for FIFO units, submit time for shared
    /// pools) and schedules its hedge timer from there.
    pub(super) fn arm_hedge(&mut self, id: u64, start: Time, hedge_after: Option<Time>) {
        let Some(r) = self.reqs.get_mut(id) else {
            return;
        };
        r.restr_submitted = start;
        if r.restr_unit.is_some() {
            if let Some(after) = hedge_after {
                let seq = r.restr_seq;
                self.q.schedule_at(start + after, Ev::HedgeCheck(id, seq));
            }
        }
    }

    /// Composed device-target degrade factor on `unit` at the current
    /// instant, applied to a nominal service time with fail-slow
    /// accounting. Jitter draws come from the plan's dedicated
    /// sub-stream keyed on (schedule index, batch), so they are
    /// order-independent.
    pub(super) fn derated_service(&mut self, unit: u64, id: u64, e: usize, nominal: Time) -> Time {
        if self.degrade_sched.is_empty() {
            return nominal;
        }
        let Some(plan) = &self.plan else {
            return nominal;
        };
        let now = self.q.now();
        let key = id
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(e as u64);
        let mut derate = Derate::none();
        for (i, ev) in self.degrade_sched.iter().enumerate() {
            if ev.target == DegradeTarget::Device(unit) && ev.active_at(now) {
                let jitter = if ev.jitter > 0.0 {
                    ev.jitter * plan.degrade_jitter(i as u64, key)
                } else {
                    0.0
                };
                derate.compose(ev.slowdown * (1.0 + jitter));
            }
        }
        if derate.is_unity() {
            return nominal;
        }
        let service = derate.apply(nominal);
        self.fsreport.slowed_batches += 1;
        self.fsreport.slow_extra_time += service.saturating_sub(nominal);
        service
    }

    /// A healthy peer DRX that demoted/hedged batches of `unit` can run
    /// on, as its index in the unit table. Only endpoint units
    /// (bump-in-the-wire, standalone cards) are redirect targets —
    /// shared pools already spread load internally, so their batches
    /// fall back to the host. A placement deploys one kind of unit, so
    /// every other live endpoint is a same-kind peer. The pick rotates
    /// deterministically by `key`.
    pub(super) fn healthy_peer(&self, unit: u64, key: u64) -> Option<usize> {
        let peer = |(_, u): &(usize, &DrxUnit)| {
            matches!(u.engine, Engine::Endpoint { .. })
                && u.id != unit
                && !self.dead_units.contains(&u.id)
                && !self.fs.as_ref().is_some_and(|(_, s)| s.suspected(u.id))
        };
        let peers = || self.server.layout.units.iter().enumerate().filter(peer);
        let n = peers().count() as u64;
        let pick = key.checked_rem(n)?;
        peers().nth(pick as usize).map(|(i, _)| i)
    }

    /// Services a restructure batch of `(app, e)` on peer DRX `peer`
    /// (its index in the unit table): redirect handshake, the peer's own
    /// degrade factor, dynamic energy, and (for demoted primaries, not
    /// hedge duplicates — those re-read the checkpointed staging copy)
    /// scratchpad SDC exposure. Returns the completion instant.
    pub(super) fn peer_restr_done(
        &mut self,
        id: u64,
        app: usize,
        e: usize,
        peer: usize,
        expose: bool,
    ) -> Time {
        let now = self.q.now();
        let (_, service) = self.drx_batch(id, app, e, peer, expose);
        let Engine::Endpoint { fifo, .. } = &mut self.engines[peer] else {
            unreachable!("healthy_peer returns endpoint units only");
        };
        fifo.submit(now, service) + self.cfg.driver.irq_latency
    }

    /// The hedge timer fired: if the batch dispatched under `seq` is
    /// still stuck on its unit, launch a speculative duplicate on a
    /// healthy peer DRX (host cores when none exists). First completion
    /// wins; the loser is invalidated by the winner's epoch bump.
    pub(super) fn hedge_check(&mut self, id: u64, seq: u32) -> Result<(), SimError> {
        let now = self.q.now();
        let (app, e, unit, epoch) = {
            let Some(r) = self.reqs.get(id) else {
                return Ok(());
            };
            if r.restr_seq != seq || r.hedge {
                return Ok(());
            }
            let Some(u) = r.restr_unit else {
                return Ok(());
            };
            let Step::Restr(e) = self.server.steps[r.app][r.step] else {
                return Ok(());
            };
            (r.app, e, u, r.epoch)
        };
        if let Some(r) = self.reqs.get_mut(id) {
            r.hedge = true;
        }
        self.fsreport.hedged += 1;
        if let Some(peer) = self.healthy_peer(unit, id) {
            let done = self.peer_restr_done(id, app, e, peer, false);
            self.q.schedule_at(done, Ev::HedgeDone(id, epoch));
        } else {
            // Host duplicate, re-reading the checkpointed staging copy
            // (no fresh DDR exposure — the integrity ledger must not
            // depend on which arm wins).
            let cost = self.server.costs[app].edges[e];
            let jid = self.job_id();
            self.jobs.insert(jid, (id, Time::ZERO, true));
            self.cpu
                .insert(now, jid, Time::from_secs_f64(cost.host_work), cost.host_cap);
            self.settle(Res::Cpu)?;
        }
        Ok(())
    }

    /// The links degrade event `i` covers: one for a link target, the
    /// whole subtree below a switch for a subtree target, none for
    /// device targets (those derate service at submit instead).
    fn degrade_links_of(&self, i: usize) -> Vec<LinkId> {
        match self.degrade_sched[i].target {
            DegradeTarget::Link(l) if l < self.server.layout.topo.link_count() => {
                vec![LinkId::from_index(l)]
            }
            DegradeTarget::Link(_) => Vec::new(),
            DegradeTarget::Subtree(s) => self
                .server
                .layout
                .switches
                .get(s)
                .map(|&root| self.server.layout.topo.subtree_links(root))
                .unwrap_or_default(),
            DegradeTarget::Device(_) => Vec::new(),
        }
    }

    /// Applies degrade event `i`'s bandwidth cut to its links (stacking
    /// with retrains and other degrades, like overlapping real faults).
    fn degrade_apply(&mut self, i: usize) -> Result<(), SimError> {
        if self.degrade_on[i] {
            return Ok(());
        }
        let now = self.q.now();
        let scale = 1.0 / self.degrade_sched[i].slowdown;
        for link in self.degrade_links_of(i) {
            self.flows.degrade_link(now, link, scale);
            self.fsreport.link_degrades += 1;
        }
        self.degrade_on[i] = true;
        self.settle(Res::Flows)
    }

    /// Lifts degrade event `i`'s bandwidth cut.
    pub(super) fn degrade_lift(&mut self, i: usize) -> Result<(), SimError> {
        if !self.degrade_on[i] {
            return Ok(());
        }
        let now = self.q.now();
        for link in self.degrade_links_of(i) {
            self.flows.restore_link(now, link);
        }
        self.degrade_on[i] = false;
        self.settle(Res::Flows)
    }

    /// Degrade event `i`'s window opens: cut bandwidth, start its duty
    /// cycle (if any), and arm the window end.
    pub(super) fn degrade_start(&mut self, i: usize) -> Result<(), SimError> {
        let ev = self.degrade_sched[i];
        self.degrade_apply(i)?;
        if let Some(d) = ev.duty {
            if !d.period.is_zero() && d.on_fraction < 1.0 {
                let off_at = ev.at + d.period.scale(d.on_fraction);
                if ev.ends_at().map(|end| off_at < end).unwrap_or(true) {
                    self.q.schedule_at(off_at, Ev::DegradeToggle(i));
                }
            }
        }
        if let Some(end) = ev.ends_at() {
            self.q.schedule_at(end, Ev::DegradeEnd(i));
        }
        Ok(())
    }

    /// Degrade event `i`'s duty cycle flips phase: lift or re-apply the
    /// cut and arm the next flip (the window end wins ties).
    pub(super) fn degrade_toggle(&mut self, i: usize) -> Result<(), SimError> {
        let now = self.q.now();
        let ev = self.degrade_sched[i];
        if let Some(end) = ev.ends_at() {
            if now >= end {
                // The window closed first; `DegradeEnd` owns cleanup.
                return Ok(());
            }
        }
        let Some(d) = ev.duty else {
            return Ok(());
        };
        let next = if self.degrade_on[i] {
            self.degrade_lift(i)?;
            // Next on-phase starts at the next period boundary.
            let elapsed = (now - ev.at).as_ps();
            let k = elapsed / d.period.as_ps() + 1;
            ev.at + Time::from_ps(k * d.period.as_ps())
        } else {
            self.degrade_apply(i)?;
            now + d.period.scale(d.on_fraction)
        };
        if ev.ends_at().map(|end| next < end).unwrap_or(true) {
            self.q.schedule_at(next, Ev::DegradeToggle(i));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn params() -> HealthParams {
        HealthParams {
            window: 8,
            min_samples: 4,
            outlier_factor: 2.0,
            probation: Time::from_ms(1),
        }
    }

    /// Batch id of plain samples; the probes below use small ids.
    pub(crate) const SAMPLE: u64 = u64::MAX;

    /// Feed `n` samples of `ratio` to `unit` starting at `t0`.
    pub(crate) fn feed(s: &mut HealthScorer, unit: u64, ratio: f64, n: usize, t0: Time) -> bool {
        let mut flagged = false;
        for i in 0..n {
            flagged |= s.observe(t0 + Time::from_us(i as u64), unit, SAMPLE, ratio);
        }
        flagged
    }

    #[test]
    fn only_the_probe_batch_settles_a_probing_device() {
        let mut s = HealthScorer::new(params());
        for u in 1..4 {
            feed(&mut s, u, 1.0, 8, Time::ZERO);
        }
        assert!(feed(&mut s, 0, 4.0, 4, Time::ZERO));
        let after = Time::from_ms(2);
        assert_eq!(s.route(after, 0, 1), Route::Probe);
        // Batch 2, dispatched before the demotion, lands while batch 1
        // probes: one more sample and no verdict, even at a clean ratio.
        assert!(!s.observe(after, 0, 2, 1.0));
        assert_eq!(s.devs[&0].samples.len(), 5);
        assert_eq!(s.devs[&0].state, Health::Probing(1));
        // Batch 1's observation decides.
        s.observe(after, 0, 1, 1.0);
        assert_eq!(s.devs[&0].state, Health::Healthy);
        assert_eq!(s.recoveries(), 1);
    }
}
