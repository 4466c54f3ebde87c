//! Tests of the fail-slow policy through its public path. Tests that
//! read the scorer's private state, and the fixtures they share with
//! these, sit in `system::failslow`.

use super::*;
use crate::system::failslow::tests::{feed, params, SAMPLE};
use dmx_sim::health::Route;
use dmx_sim::Time;

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
    let both = FailSlowConfig {
        scorer: HealthParams::default(),
        demote: true,
        hedge_multiplier: 3.0,
        hedge_floor: Time::from_us(5),
    };
    assert!(!both.is_inert());
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
