//! Tests of the overload policy through its public path. Tests that
//! read a breaker's private state sit in `system::overload`.

use super::*;
use dmx_sim::health::Route;
use dmx_sim::{ArrivalProcess, Time};

#[test]
fn token_bucket_enforces_rate() {
    let mut b = TokenBucket::new(100.0, 1.0);
    let mut granted = 0;
    // Offer 1 request/ms for 100 ms at a 100 rps cap: ~10 grants.
    for i in 0..100u64 {
        if b.try_take(Time::from_ms(i)) {
            granted += 1;
        }
    }
    assert!((9..=12).contains(&granted), "granted {granted}");
}

#[test]
fn token_bucket_burst_depth() {
    let mut b = TokenBucket::new(1.0, 5.0);
    let burst = (0..10).filter(|_| b.try_take(Time::ZERO)).count();
    assert_eq!(burst, 5);
    // A second later exactly one token is back.
    assert!(b.try_take(Time::from_secs(1)));
    assert!(!b.try_take(Time::from_secs(1)));
}

#[test]
fn token_bucket_time_moving_backwards_is_safe() {
    // Fault-free queries may arrive at equal timestamps; the bucket
    // must not mint tokens from a zero or negative dt.
    let mut b = TokenBucket::new(10.0, 1.0);
    assert!(b.try_take(Time::from_ms(100)));
    assert!(!b.try_take(Time::from_ms(100)));
    assert!(!b.try_take(Time::from_ms(50)));
}

#[test]
fn breaker_failed_probe_reopens() {
    let p = BreakerParams {
        enabled: true,
        window: Time::from_ms(1),
        threshold: 1,
        cooldown: Time::from_ms(1),
    };
    let mut b = Breaker::default();
    assert!(b.record_fault(Time::ZERO, &p));
    let probe_at = p.cooldown;
    assert_eq!(b.route(probe_at), Route::Probe);
    b.probe_result(probe_at, false, &p);
    assert_eq!(b.route(probe_at + Time::from_us(1)), Route::Fallback);
    assert_eq!(b.route(probe_at + p.cooldown), Route::Probe);
}

#[test]
fn breaker_half_open_probes_until_a_verdict() {
    // A routed probe may still be demoted elsewhere before its
    // verdict (a fail-slow fallback); the next batch probes again.
    let p = BreakerParams {
        enabled: true,
        window: Time::from_ms(1),
        threshold: 1,
        cooldown: Time::from_ms(1),
    };
    let mut b = Breaker::default();
    assert!(b.record_fault(Time::ZERO, &p));
    for us in [1000, 1000, 5000] {
        assert_eq!(b.route(Time::from_us(us)), Route::Probe);
    }
    b.probe_result(Time::from_us(5000), true, &p);
    assert_eq!(b.route(Time::from_us(5000)), Route::Primary);
}

#[test]
fn breaker_window_expires_old_events() {
    let p = BreakerParams {
        enabled: true,
        window: Time::from_us(100),
        threshold: 3,
        cooldown: Time::from_ms(1),
    };
    let mut b = Breaker::default();
    assert!(!b.record_fault(Time::from_us(0), &p));
    assert!(!b.record_fault(Time::from_us(50), &p));
    // The first event has aged out of the window by now.
    assert!(!b.record_fault(Time::from_us(200), &p));
    assert_eq!(b.route(Time::from_us(200)), Route::Primary);
}

#[test]
fn inert_config_detection() {
    assert!(OverloadConfig::none().is_inert());
    assert!(OverloadConfig::default().is_inert());
    let open_loop = OverloadConfig {
        arrivals: vec![ArrivalProcess::Poisson { rate_rps: 100.0 }],
        ..OverloadConfig::none()
    };
    assert!(!open_loop.is_inert());
    let breaker_only = OverloadConfig {
        breaker: BreakerParams {
            enabled: true,
            ..BreakerParams::default()
        },
        ..OverloadConfig::none()
    };
    assert!(!breaker_only.is_inert());
    let gated = OverloadConfig {
        ingress_queue_bytes: 1 << 20,
        ..OverloadConfig::none()
    };
    assert!(!gated.is_inert());
    let deadlined = OverloadConfig {
        deadline: Time::from_ms(1),
        ..OverloadConfig::none()
    };
    assert!(!deadlined.is_inert());
}

#[test]
fn shed_rate_arithmetic() {
    let mut t = tenant_skeletons(&[crate::apps::BenchmarkId::SoundDetection.build()]);
    let t = &mut t[0];
    t.offered = 10;
    t.rejected_admission = 1;
    t.rejected_queue_full = 1;
    t.shed_deadline = 1;
    assert!((t.shed_rate() - 0.3).abs() < 1e-12);
}

#[test]
fn request_ledger_counts_every_resolution() {
    let app = crate::apps::BenchmarkId::SoundDetection.build();
    let mut tenants = tenant_skeletons(&[app.clone(), app]);
    for t in &mut tenants {
        t.offered = 10;
        t.goodput = 6;
        t.late = 1;
        t.rejected_admission = 1;
        t.rejected_queue_full = 1;
        t.shed_deadline = 1;
    }
    // Tenant 1 leaks one arrival: offered but never resolved.
    tenants[1].goodput = 5;
    let r = OverloadReport {
        tenants,
        queue_peak: 0,
        queue_mean: 0.0,
        queue_wait_mean: Time::ZERO,
        backpressure_stalls: 0,
        backpressure_stall_time: Time::ZERO,
        breaker_activations: 0,
    };
    assert_eq!(r.shed(), 6);
    assert!(
        !r.conserved_with(0),
        "a leaked arrival must unbalance the ledger"
    );
    // Another layer accounting for it (say, a crash kill) closes it.
    assert!(r.conserved_with(1));
    assert!(
        !r.conserved_with(2),
        "double-counting must unbalance it too"
    );
}
