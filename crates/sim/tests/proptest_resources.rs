//! Property-based tests of the simulation engine's invariants, on the
//! in-tree deterministic harness (`dmx_sim::check`).

use dmx_sim::{cases, run_cases, water_fill, EventQueue, FifoServer, PsPool, Time};

fn n_cases() -> usize {
    cases(if cfg!(feature = "heavy-tests") {
        512
    } else {
        64
    })
}

/// Water-filling never exceeds capacity, never exceeds a job's cap,
/// and is work-conserving (either capacity is exhausted or every job
/// runs at its cap).
#[test]
fn water_fill_invariants() {
    run_cases("sim::water_fill_invariants", n_cases(), |g| {
        let capacity = g.f64_in(0.1, 64.0);
        let caps = g.vec(1, 20, |g| g.f64_in(0.1, 16.0));
        let rates = water_fill(capacity, &caps);
        let total: f64 = rates.iter().sum();
        assert!(total <= capacity + 1e-9);
        for (r, c) in rates.iter().zip(&caps) {
            assert!(*r <= c + 1e-9);
            assert!(*r >= 0.0);
        }
        let all_capped = rates.iter().zip(&caps).all(|(r, c)| (r - c).abs() < 1e-9);
        assert!(
            (total - capacity).abs() < 1e-6 || all_capped,
            "work conservation violated: total={total}, capacity={capacity}"
        );
    });
}

/// Allocations sum to exactly `min(capacity, Σcaps)`.
#[test]
fn water_fill_sums_to_min_of_capacity_and_demand() {
    run_cases("sim::water_fill_sum", n_cases(), |g| {
        let capacity = g.f64_in(0.1, 64.0);
        let caps = g.vec(1, 20, |g| g.f64_in(0.1, 16.0));
        let rates = water_fill(capacity, &caps);
        let total: f64 = rates.iter().sum();
        let demand: f64 = caps.iter().sum();
        let want = capacity.min(demand);
        assert!(
            (total - want).abs() <= want * 1e-9 + 1e-9,
            "total {total} != min(capacity, demand) {want}"
        );
    });
}

/// Uncapped jobs (caps above their fair share) all receive the same
/// rate, and no capped job gets more than an uncapped one.
#[test]
fn water_fill_fair_among_uncapped() {
    run_cases("sim::water_fill_fairness", n_cases(), |g| {
        let capacity = g.f64_in(1.0, 32.0);
        let caps = g.vec(2, 16, |g| g.f64_in(0.05, 8.0));
        let rates = water_fill(capacity, &caps);
        // "Uncapped" = allocation strictly below its cap; all such jobs
        // must sit at the common water level.
        let uncapped: Vec<f64> = rates
            .iter()
            .zip(&caps)
            .filter(|(r, c)| **r < **c - 1e-9)
            .map(|(r, _)| *r)
            .collect();
        if let Some(&level) = uncapped.first() {
            for r in &uncapped {
                assert!((r - level).abs() <= 1e-9 * level.max(1.0), "{r} vs {level}");
            }
            // Capped jobs saturated below the water level never exceed it.
            for (r, c) in rates.iter().zip(&caps) {
                if (*r - *c).abs() <= 1e-9 {
                    assert!(*r <= level + 1e-9, "capped {r} above level {level}");
                }
            }
        }
    });
}

/// Degenerate shapes: empty job list, zero-ish capacity dominated by
/// caps, single job.
#[test]
fn water_fill_edge_shapes() {
    assert!(water_fill(4.0, &[]).is_empty());
    assert_eq!(water_fill(10.0, &[3.0]), vec![3.0]);
    assert_eq!(water_fill(2.0, &[3.0]), vec![2.0]);
    let even = water_fill(9.0, &[5.0, 5.0, 5.0]);
    for r in &even {
        assert!((r - 3.0).abs() < 1e-12);
    }
}

/// Every job inserted into a PsPool eventually completes, and the busy
/// core-time equals the total work inserted.
#[test]
fn ps_pool_conserves_work() {
    run_cases("sim::ps_pool_conserves_work", n_cases(), |g| {
        let jobs = g.vec(1, 12, |g| (g.u64_in(1, 5_000_000), g.u64_in(1, 8) as u32));
        let capacity = g.u64_in(1, 32) as u32;
        let mut pool = PsPool::new(capacity as f64);
        let mut total_work = 0u64;
        for (i, (work_ps, cap)) in jobs.iter().enumerate() {
            pool.insert(Time::ZERO, i as u64, Time::from_ps(*work_ps), *cap as f64);
            total_work += work_ps;
        }
        let mut done = std::iter::from_fn(|| pool.pop_finished()).count();
        let mut guard = 0;
        while done < jobs.len() {
            let t = pool.next_event(Time::ZERO).expect("jobs pending");
            pool.advance(t);
            done += std::iter::from_fn(|| pool.pop_finished()).count();
            guard += 1;
            assert!(guard < 10_000, "pool did not converge");
        }
        assert_eq!(done, jobs.len(), "each job finishes exactly once");
        let busy_ps = pool.busy_core_secs() * 1e12;
        // Completion rounds up to whole picoseconds per event, so allow
        // one picosecond of slack per job per advance.
        assert!(
            (busy_ps - total_work as f64).abs()
                <= guard as f64 * capacity as f64 + jobs.len() as f64,
            "busy {busy_ps} vs work {total_work}"
        );
    });
}

/// FIFO servers never start a job before its submission and never run
/// more jobs than servers at once (checked via total busy time <=
/// horizon * servers).
#[test]
fn fifo_server_feasibility() {
    run_cases("sim::fifo_server_feasibility", n_cases(), |g| {
        let services = g.vec(1, 40, |g| g.u64_in(1, 1_000_000));
        let servers = g.usize_in(1, 4);
        let mut s = FifoServer::new(servers);
        let mut last_done = Time::ZERO;
        for &svc in &services {
            let done = s.submit(Time::ZERO, Time::from_ps(svc));
            last_done = last_done.max(done);
        }
        let total: u64 = services.iter().sum();
        assert_eq!(s.busy_time(), Time::from_ps(total));
        // Makespan is at least total/servers and at most total.
        assert!(last_done.as_ps() >= total / servers as u64);
        assert!(last_done.as_ps() <= total);
        // Utilization over the makespan is at most 1.
        assert!(s.busy_time().as_ps() <= last_done.as_ps().max(1) * servers as u64);
    });
}

/// The event queue delivers every event exactly once, in nondecreasing
/// time order, FIFO among ties.
#[test]
fn event_queue_total_order() {
    run_cases("sim::event_queue_total_order", n_cases(), |g| {
        let times = g.vec(1, 200, |g| g.u64_in(0, 1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Time::from_ps(t), (t, i));
        }
        let mut seen = 0;
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            assert_eq!(q.now(), Time::from_ps(t));
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
            seen += 1;
        }
        assert_eq!(seen, times.len());
    });
}

/// All-equal timestamps drain in exact insertion order — FIFO
/// stability is a hard guarantee, not a tie-break accident.
#[test]
fn event_queue_fifo_at_equal_timestamps() {
    let mut q = EventQueue::new();
    for i in 0..100 {
        q.schedule_at(Time::from_us(5), i);
    }
    let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(drained, (0..100).collect::<Vec<_>>());

    // Interleaved with earlier/later events, ties still hold order.
    let mut q = EventQueue::new();
    q.schedule_at(Time::from_us(9), "late");
    q.schedule_at(Time::from_us(5), "tie-a");
    q.schedule_at(Time::from_us(1), "early");
    q.schedule_at(Time::from_us(5), "tie-b");
    q.schedule_at(Time::from_us(5), "tie-c");
    let drained: Vec<&str> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(drained, vec!["early", "tie-a", "tie-b", "tie-c", "late"]);
}
