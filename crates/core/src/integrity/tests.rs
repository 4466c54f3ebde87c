//! Tests of the integrity policy through its public path.

use super::*;
use dmx_sim::Time;

#[test]
fn inert_config_is_mode_none() {
    assert!(IntegrityConfig::none().is_inert());
    assert!(!IntegrityConfig::checked(ChecksumMode::PerHop).is_inert());
    assert!(!IntegrityConfig::checked(ChecksumMode::EndToEnd).is_inert());
}

#[test]
fn check_time_scales_with_bytes() {
    let c = IntegrityConfig::checked(ChecksumMode::EndToEnd);
    let small = c.check_time(1 << 20);
    let big = c.check_time(1 << 30);
    assert!(big > small * 100);
    assert!(small > Time::ZERO);
}

#[test]
fn report_conservation_and_blast() {
    let mut r = IntegrityReport::default();
    assert!(r.conserved());
    assert!(!r.any());
    r.injected = 5;
    r.detected = 3;
    r.escaped = 2;
    r.poisoned_batches = 2;
    r.poison_hops = 6;
    assert!(r.conserved());
    assert!(r.any());
    assert!((r.mean_blast() - 3.0).abs() < 1e-12);
    r.escaped = 1;
    assert!(!r.conserved());
}
