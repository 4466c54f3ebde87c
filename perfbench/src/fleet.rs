//! `fleet`: four servers behind a least-loaded load balancer, run by
//! `run_fleet` on one shard. Cells cross the legacy balancer with the
//! failover one (retry + hedge), and no fleet fault with a
//! kill-and-recover plan. Here the partition window loop, the balancer
//! and the stepped servers do the work, none of which the other two
//! workloads run.
//!
//! One shard, because at two shards `run_conservative` parks the
//! caller and two workers on a `std::sync::Barrier` twice per window
//! (about 1.5 events per window), so a two-shard run measures the host
//! scheduler, not the simulator. `partition.shard_speedup` keeps the
//! gap visible.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{digest, Cell, Done, Tally, CLEAN_MEAN_S, SLOWEST_S};
use dmx_core::apps::BenchmarkRef;
use dmx_core::fleet::{
    try_run_fleet, ClassPolicy, FailoverConfig, FleetConfig, FleetFaultPlan, LbHealthParams,
    LbPolicy, RequestClass, ServerKill,
};
use dmx_core::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::SystemConfig;
use dmx_pcie::InterNodeFabric;
use dmx_sim::{ArrivalProcess, Time};
use std::collections::HashMap;
use std::time::Instant;

/// Servers behind the balancer.
const SERVERS: usize = 4;

/// Open-loop tenants, one per Table I benchmark.
const TENANTS: usize = 5;

/// Arrivals per tenant per server.
const ARRIVALS_PER_TENANT_PER_SERVER: usize = 6;

/// Per-server concurrent-admission bound.
const MAX_INFLIGHT: usize = 8;

/// Offered load per server, as a multiple of `MAX_INFLIGHT / CLEAN_MEAN_S`.
const LOAD: f64 = 0.5;

/// Input sets (sub-seeds) a pass can draw per cell shape.
const SUBSEEDS: usize = 32;

/// Cells per (failover, fault) shape in one pass.
const PER_SHAPE: usize = 16;

/// Root of every sub-seed's inputs.
const INPUT_SEED: u64 = 0xF1EE_7000;

struct FleetCell {
    failover: bool,
    fault: bool,
    sub: usize,
}

fn retry_hedge() -> FailoverConfig {
    FailoverConfig {
        health: LbHealthParams::default(),
        classes: vec![
            ClassPolicy {
                class: RequestClass::LatencySensitive,
                slo: Time::from_secs(60),
                timeout: Time::from_secs(5),
                retries: 3,
                hedge_after: Some(Time::from_ms(50)),
            },
            ClassPolicy {
                class: RequestClass::Batch,
                slo: Time::from_secs(120),
                timeout: Time::from_secs(10),
                retries: 3,
                hedge_after: None,
            },
        ],
    }
}

impl FleetCell {
    fn config(&self, benches: &[BenchmarkRef]) -> FleetConfig {
        let mut r = Rng::new(INPUT_SEED, self.sub as u64);
        let rate = LOAD * MAX_INFLIGHT as f64 / (CLEAN_MEAN_S * TENANTS as f64) * SERVERS as f64;
        let per_tenant = ARRIVALS_PER_TENANT_PER_SERVER * SERVERS;
        let span = per_tenant as f64 / rate;
        let seed = r.next_u64();
        let kill = ServerKill {
            server: r.below(SERVERS),
            at: Time::from_secs_f64(span * r.range(0.15, 0.35)),
            down_for: Some(Time::from_secs_f64(span * r.range(0.15, 0.3))),
        };
        let server = SystemConfig {
            overload: Some(OverloadConfig {
                admission: AdmissionParams {
                    tokens_per_sec: f64::INFINITY,
                    burst: 1.0,
                    max_inflight: MAX_INFLIGHT,
                },
                deadline: Time::from_secs_f64(4.0 * SLOWEST_S),
                shed: ShedPolicy::Reject,
                queue_capacity: 8,
                ..OverloadConfig::none()
            }),
            ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), benches.to_vec())
        };
        FleetConfig {
            servers: SERVERS,
            server,
            policy: LbPolicy::LeastLoaded,
            fabric: InterNodeFabric::default(),
            seed,
            arrivals: vec![ArrivalProcess::Poisson { rate_rps: rate }; TENANTS],
            requests_per_tenant: per_tenant,
            request_bytes: 64 << 10,
            response_bytes: 16 << 10,
            failover: self.failover.then(retry_hedge),
            fault_plan: self.fault.then(|| FleetFaultPlan {
                kills: vec![kill],
                ..FleetFaultPlan::none()
            }),
        }
    }
}

impl Cell for FleetCell {
    fn key(&self) -> String {
        format!(
            "fleet/{}/{}/sub{}",
            if self.failover { "failover" } else { "legacy" },
            if self.fault {
                "kill-recover"
            } else {
                "no-fault"
            },
            self.sub
        )
    }

    fn run(
        &self,
        benches: &[BenchmarkRef],
        t: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Done, String> {
        let cfg = t.time("bench.inputs", || self.config(benches));
        let r = t
            .time("fleet.run_fleet", || try_run_fleet(&cfg, 1))
            .map_err(|e| format!("try_run_fleet: {e}"))?;
        t.time("bench.check", || {
            for s in &r.servers {
                tally.run_result(s);
            }
            tally.add("partition.windows", r.windows.windows as f64);
            tally.add("partition.messages", r.windows.messages as f64);
            if let Some(f) = &r.failover {
                tally.add("failover.retries", f.retries as f64);
                tally.add("failover.hedges", f.hedges as f64);
                tally.add("failover.probes", f.probes as f64);
                tally.add("failover.duplicates", f.duplicates_cancelled as f64);
                tally.add("failover.received", f.resolutions_received as f64);
            }
            if r.conserved_with_duplicates() {
                Ok(())
            } else {
                Err(format!(
                    "fleet ledger: offered {} goodput {} late {} shed {} failover {:?}",
                    r.offered, r.goodput, r.late, r.shed, r.failover
                ))
            }
        })?;
        Ok(Done {
            requests: r.offered,
            digest: digest(t, &r),
        })
    }
}

fn shapes() -> [(bool, bool); 4] {
    [(false, false), (false, true), (true, false), (true, true)]
}

/// One pass under `seed`: [`PER_SHAPE`] seeded input sets for every
/// (failover, fault) shape.
fn pass_cells(seed: u64) -> Vec<FleetCell> {
    let mut r = Rng::new(seed, 3);
    shapes()
        .into_iter()
        .flat_map(|(failover, fault)| {
            (0..PER_SHAPE)
                .map(|_| FleetCell {
                    failover,
                    fault,
                    sub: r.below(SUBSEEDS),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The cells of [`pass_cells`], boxed.
pub fn pass(seed: u64) -> Vec<Box<dyn Cell>> {
    pass_cells(seed)
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn Cell>)
        .collect()
}

/// Every cell a pass can draw.
pub fn universe() -> Vec<Box<dyn Cell>> {
    shapes()
        .into_iter()
        .flat_map(|(failover, fault)| {
            (0..SUBSEEDS).map(move |sub| {
                Box::new(FleetCell {
                    failover,
                    fault,
                    sub,
                }) as Box<dyn Cell>
            })
        })
        .collect()
}

/// `run_fleet` host time at one shard over time at one shard per
/// available core, on the first cell of each shape of the pass. Both
/// runs must match the reference digest.
pub fn shard_speedup(
    seed: u64,
    benches: &[BenchmarkRef],
    reference: &HashMap<String, u64>,
) -> Result<f64, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut serial, mut sharded) = (0.0, 0.0);
    let mut t = Tracer::new();
    for cell in pass_cells(seed).iter().step_by(PER_SHAPE) {
        let cfg = cell.config(benches);
        let want = reference
            .get(&cell.key())
            .ok_or_else(|| format!("{}: no reference digest", cell.key()))?;
        for (shards, total) in [(1, &mut serial), (cores, &mut sharded)] {
            let t0 = Instant::now();
            let res = try_run_fleet(&cfg, shards).map_err(|e| format!("try_run_fleet: {e}"))?;
            *total += t0.elapsed().as_secs_f64();
            if digest(&mut t, &res) != *want {
                return Err(format!(
                    "{} at {shards} shards differs from reference",
                    cell.key()
                ));
            }
        }
    }
    Ok(serial / sharded)
}
