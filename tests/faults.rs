//! Fault-injection acceptance tests: the zero-fault identity invariant,
//! same-seed determinism, graceful degradation after a mid-run DRX
//! death, and functional correctness of the CPU fallback path the
//! reroute lands on.

use dmx_core::apps::BenchmarkId;
use dmx_core::experiments::Suite;
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{simulate, try_simulate, units, SystemConfig};
use dmx_sim::{FaultConfig, Time};

/// Builds the suite with the engine's no-progress watchdog armed: a
/// simulation that stops advancing time aborts with an event dump
/// instead of hanging the test run.
fn suite() -> Suite {
    dmx_sim::set_default_stall_limit(1_000_000);
    Suite::new()
}

fn mix(suite: &Suite, n: usize) -> Vec<dmx_core::apps::BenchmarkRef> {
    suite.mix(n)
}

/// A config with a given fault layer, everything else identical.
fn cfg(suite: &Suite, mode: Mode, faults: Option<FaultConfig>) -> SystemConfig {
    SystemConfig {
        faults,
        ..SystemConfig::latency(mode, mix(suite, 5))
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_fault_layer() {
    let suite = suite();
    for mode in [
        Mode::Dmx(Placement::BumpInTheWire),
        Mode::Dmx(Placement::Integrated),
        Mode::MultiAxl,
    ] {
        let absent = simulate(&cfg(&suite, mode, None));
        let inert = simulate(&cfg(&suite, mode, Some(FaultConfig::none())));
        // Debug output covers every field: per-app latencies and
        // breakdowns, makespan, energy, notify counts, fault report.
        assert_eq!(
            format!("{absent:?}"),
            format!("{inert:?}"),
            "inert fault plan perturbed {mode:?}"
        );
        assert!(!inert.faults.any(), "inert plan reported faults");
    }
}

#[test]
fn same_seed_faulty_runs_are_byte_identical() {
    let suite = suite();
    let storm = FaultConfig {
        seed: 7,
        bit_error_rate: 1e-8,
        lost_completion_rate: 0.05,
        stall_rate: 0.1,
        kills: vec![(units::bitw(1, 0), Time::from_ms(2))],
        ..FaultConfig::none()
    };
    let mode = Mode::Dmx(Placement::BumpInTheWire);
    let a = simulate(&cfg(&suite, mode, Some(storm.clone())));
    let b = simulate(&cfg(&suite, mode, Some(storm)));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.faults.any(), "the storm config should actually fault");
}

#[test]
fn different_seeds_diverge_under_faults() {
    let suite = suite();
    let mode = Mode::Dmx(Placement::BumpInTheWire);
    let storm = |seed| FaultConfig {
        seed,
        bit_error_rate: 1e-7,
        stall_rate: 0.2,
        ..FaultConfig::none()
    };
    let a = simulate(&cfg(&suite, mode, Some(storm(1))));
    let b = simulate(&cfg(&suite, mode, Some(storm(2))));
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "distinct seeds should sample distinct fault patterns"
    );
}

#[test]
fn drx_death_mid_run_degrades_gracefully() {
    let suite = suite();
    let mode = Mode::Dmx(Placement::BumpInTheWire);
    let clean = simulate(&cfg(&suite, mode, None));
    let killed = simulate(&cfg(
        &suite,
        mode,
        Some(FaultConfig {
            seed: 3,
            kills: vec![(units::bitw(0, 0), Time::from_us(100))],
            ..FaultConfig::none()
        }),
    ));

    // Every app — including app 0, whose first-stage DRX died — must
    // complete exactly the requests the clean run completed.
    assert_eq!(killed.apps.len(), clean.apps.len());
    for (k, c) in killed.apps.iter().zip(&clean.apps) {
        assert_eq!(k.name, c.name);
        assert_eq!(
            k.completed, c.completed,
            "{}: dropped requests after the DRX death",
            k.name
        );
    }

    // The recovery layer must account for the reroute.
    assert_eq!(killed.faults.unit_deaths, 1);
    assert!(killed.faults.rerouted_batches > 0, "nothing rerouted");
    assert!(
        killed.faults.fallback_time > Time::ZERO,
        "fallback path time unaccounted"
    );

    // The victim app pays for the host-CPU fallback; the run still
    // terminates (no hang waiting on dead-unit completions).
    assert!(killed.apps[0].latency > clean.apps[0].latency);
    assert!(killed.makespan >= clean.makespan);
}

#[test]
fn unit_death_leaves_a_batch_already_on_host_cores_alone() {
    // Every command to the DRX stalls, so each restructure batch
    // exhausts its retries and reroutes to host cores before it would
    // touch the unit. When the unit then dies, the batch it never rode
    // must keep its one host job: restarting it as well would complete
    // the step twice.
    let suite = suite();
    let cfg = SystemConfig {
        requests_per_app: 2,
        faults: Some(FaultConfig {
            seed: 1,
            stall_rate: 1.0,
            kills: vec![(units::bitw(0, 0), Time::from_ms(100))],
            ..FaultConfig::none()
        }),
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), mix(&suite, 1))
    };
    let r = try_simulate(&cfg).expect("a unit death must not complete a step twice");
    assert_eq!(r.apps[0].completed, 2);
    assert_eq!(r.faults.unit_deaths, 1);
    assert!(r.faults.rerouted_batches > 0, "no batch reached host cores");
}

#[test]
fn healthy_apps_survive_every_placement_kill() {
    // Kill a unit in each placement's own topology flavor: the shared
    // integrated engine, a standalone card, and a switch-pool engine.
    let suite = suite();
    for (mode, unit) in [
        (Mode::Dmx(Placement::Integrated), units::pool(0)),
        (Mode::Dmx(Placement::Standalone), units::card(2)),
        (Mode::Dmx(Placement::PcieIntegrated), units::pool(0)),
    ] {
        let clean = simulate(&cfg(&suite, mode, None));
        let killed = simulate(&cfg(
            &suite,
            mode,
            Some(FaultConfig {
                seed: 11,
                kills: vec![(unit, Time::from_us(50))],
                ..FaultConfig::none()
            }),
        ));
        let total =
            |r: &dmx_core::system::RunResult| -> usize { r.apps.iter().map(|a| a.completed).sum() };
        assert_eq!(
            total(&killed),
            total(&clean),
            "{mode:?}: kill of unit {unit:#x} dropped requests"
        );
        assert_eq!(killed.faults.unit_deaths, 1, "{mode:?}");
    }
}

#[test]
fn fallback_path_is_functionally_correct() {
    // The reroute sends restructuring to the host CPU. The simulator
    // models time, not data — but the *real* op implementations must
    // agree, or the fallback would silently corrupt pipelines. Check
    // every Table I benchmark's restructure ops: CPU reference ==
    // DRX execution, bit for bit, on deterministic inputs.
    use dmx_drx::DrxConfig;
    use dmx_restructure::assert_cpu_drx_equal;
    let config = DrxConfig::default();
    for id in BenchmarkId::FIVE {
        let bench = id.build();
        for edge in &bench.edges {
            for (op, _) in &edge.ops {
                let lowered = op.lower(&config).expect("suite ops fit the default DRX");
                let input: Vec<u8> = (0..lowered.input_bytes())
                    .map(|i| (i % 251) as u8)
                    .collect();
                assert_cpu_drx_equal(op.as_ref(), &config, &input);
            }
        }
    }
}
