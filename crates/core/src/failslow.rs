//! Fail-slow (gray) failure detection and mitigation policy.
//!
//! Crash-stop failures announce themselves; gray failures don't. A
//! throttled DRX or a retraining link keeps completing work with no
//! fault signal at all — the only evidence is that *observed* service
//! time drifts away from nominal. This module owns the two policy
//! pieces the system model consults:
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
//!
//! Mitigation itself (demoting suspects in routing, hedged
//! re-dispatch past a latency threshold) lives in the system model;
//! [`FailSlowConfig`] carries its tuning and [`FailSlowReport`] its
//! accounting, including the hedge conservation law
//! `hedged == won_primary + won_hedge + cancelled`.

use dmx_sim::health::{Health, Route};
use dmx_sim::Time;
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
}

impl HealthScorer {
    /// Creates a scorer with the given tuning.
    pub fn new(params: HealthParams) -> HealthScorer {
        HealthScorer {
            params,
            devs: BTreeMap::new(),
            gray_flags: 0,
            recoveries: 0,
            probes: 0,
        }
    }

    /// The fleet baseline a device is judged against: the median of
    /// the *other* devices' rolling means (those with enough samples),
    /// floored at the nominal ratio 1. With no peers to compare
    /// against the baseline is nominal.
    pub fn baseline_excluding(&self, unit: u64) -> f64 {
        let mut means: Vec<f64> = self
            .devs
            .iter()
            .filter(|(&u, d)| u != unit && d.samples.len() >= self.params.min_samples)
            .filter_map(|(_, d)| d.mean())
            .collect();
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
    pub fn route(&mut self, now: Time, unit: u64, id: u64) -> Route {
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
    pub fn observe(&mut self, now: Time, unit: u64, id: u64, ratio: f64) -> bool {
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
    pub fn suspected(&self, unit: u64) -> bool {
        self.devs
            .get(&unit)
            .is_some_and(|d| d.state != Health::Healthy)
    }

    /// Times any device was flagged suspected-gray.
    pub fn gray_flags(&self) -> u64 {
        self.gray_flags
    }

    /// Times a probe reinstated a flagged device.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Probe batches dispatched.
    pub fn probes(&self) -> u64 {
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

    /// Both mitigations on with default tuning.
    pub fn enabled() -> FailSlowConfig {
        FailSlowConfig {
            scorer: HealthParams::default(),
            demote: true,
            hedge_multiplier: 3.0,
            hedge_floor: Time::from_us(5),
        }
    }

    /// True when neither mitigation can ever fire.
    pub fn is_inert(&self) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HealthParams {
        HealthParams {
            window: 8,
            min_samples: 4,
            outlier_factor: 2.0,
            probation: Time::from_ms(1),
        }
    }

    /// Batch id of plain samples; the probes below use small ids.
    const SAMPLE: u64 = u64::MAX;

    /// Feed `n` samples of `ratio` to `unit` starting at `t0`.
    fn feed(s: &mut HealthScorer, unit: u64, ratio: f64, n: usize, t0: Time) -> bool {
        let mut flagged = false;
        for i in 0..n {
            flagged |= s.observe(t0 + Time::from_us(i as u64), unit, SAMPLE, ratio);
        }
        flagged
    }

    #[test]
    fn step_change_flags_only_the_gray_device() {
        let mut s = HealthScorer::new(params());
        // Healthy fleet context first.
        for u in 0..3 {
            feed(&mut s, u, 1.0, 8, Time::ZERO);
        }
        // Device 3 steps to 4x nominal.
        assert!(feed(&mut s, 3, 4.0, 4, Time::from_ms(1)));
        assert!(s.suspected(3));
        assert_eq!(s.gray_flags(), 1);
        for u in 0..3 {
            assert!(!s.suspected(u));
        }
    }

    #[test]
    fn jitter_only_stream_stays_healthy() {
        let mut s = HealthScorer::new(params());
        for u in 0..4 {
            feed(&mut s, u, 1.0, 8, Time::ZERO);
        }
        // +-30% jitter around nominal: well under the 2x outlier bar.
        for (i, r) in [1.3, 0.8, 1.25, 0.9, 1.3, 0.75, 1.2, 1.1]
            .iter()
            .enumerate()
        {
            assert!(!s.observe(Time::from_us(100 + i as u64), 0, SAMPLE, *r));
        }
        assert!(!s.suspected(0));
        assert_eq!(s.gray_flags(), 0);
    }

    #[test]
    fn intermittent_duty_cycle_still_flags() {
        let mut s = HealthScorer::new(params());
        for u in 1..4 {
            feed(&mut s, u, 1.0, 8, Time::ZERO);
        }
        // 50% duty at 5x: alternating clean and slow batches. The
        // rolling mean (~3) clears the 2x bar even though half the
        // samples look healthy.
        let mut flagged = false;
        for i in 0..8u64 {
            let r = if i % 2 == 0 { 5.0 } else { 1.0 };
            flagged |= s.observe(Time::from_us(200 + i), 0, SAMPLE, r);
        }
        assert!(flagged);
        assert!(s.suspected(0));
    }

    #[test]
    fn noisy_fleet_raises_no_false_positives() {
        let mut s = HealthScorer::new(params());
        // Every device queues a little: ratios 1.2-1.7, no outlier.
        let noise = [1.3, 1.6, 1.2, 1.7, 1.4, 1.5, 1.25, 1.65];
        for u in 0..5u64 {
            for (i, r) in noise.iter().enumerate() {
                // Stagger per device so windows interleave like a real run.
                s.observe(
                    Time::from_us(u * 50 + i as u64),
                    u,
                    SAMPLE,
                    r + 0.02 * u as f64,
                );
            }
        }
        assert_eq!(s.gray_flags(), 0);
        for u in 0..5 {
            assert!(!s.suspected(u));
        }
    }

    #[test]
    fn probation_then_probe_then_recovery() {
        let mut s = HealthScorer::new(params());
        for u in 1..4 {
            feed(&mut s, u, 1.0, 8, Time::ZERO);
        }
        assert!(feed(&mut s, 0, 4.0, 4, Time::from_ms(1)));
        // During probation: demoted.
        let t = Time::from_ms(1) + Time::from_us(3);
        assert_eq!(s.route(t + Time::from_us(10), 0, 1), Route::Fallback);
        // After probation: exactly one probe, the rest still fall back.
        let after = t + Time::from_ms(1) + Time::from_us(1);
        assert_eq!(s.route(after, 0, 2), Route::Probe);
        assert_eq!(s.route(after, 0, 3), Route::Fallback);
        assert_eq!(s.probes(), 1);
        // A slow probe re-demotes for another probation.
        s.observe(after, 0, 2, 4.0);
        assert!(s.suspected(0));
        assert_eq!(s.recoveries(), 0);
        assert_eq!(s.route(after + Time::from_us(1), 0, 4), Route::Fallback);
        // Next probe runs clean: reinstated, window reset.
        let again = after + Time::from_ms(1) + Time::from_us(1);
        assert_eq!(s.route(again, 0, 5), Route::Probe);
        s.observe(again, 0, 5, 1.0);
        assert!(!s.suspected(0));
        assert_eq!(s.recoveries(), 1);
        assert_eq!(s.route(again, 0, 6), Route::Primary);
        // The cleared window must not insta-reflag on one slow batch.
        assert!(!s.observe(again + Time::from_us(1), 0, SAMPLE, 4.0));
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

    #[test]
    fn baseline_tracks_fleet_and_floors_at_nominal() {
        let mut s = HealthScorer::new(params());
        assert_eq!(s.baseline_excluding(0), 1.0, "no peers: nominal");
        for u in 1..4 {
            feed(&mut s, u, 1.4, 8, Time::ZERO);
        }
        assert!((s.baseline_excluding(0) - 1.4).abs() < 1e-9);
        // Sub-nominal fleet means floor at 1.0.
        let mut fast = HealthScorer::new(params());
        for u in 1..4 {
            feed(&mut fast, u, 0.5, 8, Time::ZERO);
        }
        assert_eq!(fast.baseline_excluding(0), 1.0);
    }

    #[test]
    fn config_inertness() {
        assert!(FailSlowConfig::none().is_inert());
        assert!(FailSlowConfig::default().is_inert());
        assert!(!FailSlowConfig::enabled().is_inert());
        let demote_only = FailSlowConfig {
            demote: true,
            ..FailSlowConfig::none()
        };
        assert!(!demote_only.is_inert());
        let hedge_only = FailSlowConfig {
            hedge_multiplier: 2.0,
            ..FailSlowConfig::none()
        };
        assert!(!hedge_only.is_inert());
    }

    #[test]
    fn hedge_conservation_law() {
        let mut r = FailSlowReport::default();
        assert!(r.hedge_conserved());
        assert!(!r.any());
        r.hedged = 5;
        r.won_primary = 2;
        r.won_hedge = 2;
        r.cancelled = 1;
        assert!(r.hedge_conserved());
        assert!(r.any());
        r.cancelled = 0;
        assert!(!r.hedge_conserved(), "a lost hedge must break the law");
    }
}
