//! Queuing resources used by the full-system model.
//!
//! Two service disciplines cover everything DMX needs:
//!
//! * [`FifoServer`] — `k` identical servers with run-to-completion
//!   service (PCIe link slots, DMA engines, accelerator kernels,
//!   per-accelerator DRX engines).
//! * [`PsPool`] — generalized processor sharing with a per-job
//!   parallelism cap (the host CPU's core pool running data
//!   restructuring, and shared DRX devices in the Integrated /
//!   Standalone placements). The cap models the limited thread
//!   scalability of cache-thrashing streaming kernels that the paper's
//!   Fig. 5 characterization shows.

use crate::time::Time;
use std::cell::RefCell;

/// A bank of `k` identical FIFO servers with deterministic service times.
///
/// Because service times are known at submission and there is no
/// preemption, the completion time of a job is fully determined when it
/// is submitted: it starts on the earliest-free server. This lets callers
/// schedule a single completion event per job.
///
/// ```
/// use dmx_sim::{FifoServer, Time};
/// let mut s = FifoServer::new(1);
/// let a = s.submit(Time::ZERO, Time::from_ns(10));
/// let b = s.submit(Time::ZERO, Time::from_ns(5));
/// assert_eq!(a, Time::from_ns(10));
/// assert_eq!(b, Time::from_ns(15)); // queued behind `a`
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    free_at: Vec<Time>,
    busy: Time,
}

impl FifoServer {
    /// Creates a bank of `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "server bank must have at least one server");
        FifoServer {
            free_at: vec![Time::ZERO; servers],
            busy: Time::ZERO,
        }
    }

    /// Number of servers in the bank.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a job at `now` needing `service` time on one server and
    /// returns its completion time.
    pub fn submit(&mut self, now: Time, service: Time) -> Time {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("submit on an empty server bank: construct it with at least one server");
        let start = self.free_at[slot].max(now);
        let done = start + service;
        self.free_at[slot] = done;
        self.busy += service;
        done
    }

    /// Total service time accumulated across all servers.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Mean utilization of the bank over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: Time) -> f64 {
        assert!(!horizon.is_zero(), "horizon must be nonzero");
        self.busy.as_ps() as f64 / (horizon.as_ps() as f64 * self.free_at.len() as f64)
    }
}

/// Identifier of a job inside a [`PsPool`].
pub type PsJobId = u64;

#[derive(Debug, Clone)]
struct PsJob {
    id: PsJobId,
    /// Remaining work in core-picoseconds (time the job would still need
    /// on a single dedicated core).
    remaining: f64,
    /// Maximum number of cores this job can exploit.
    cap: f64,
}

/// Generalized processor sharing over `capacity` cores, with a per-job
/// parallelism cap (water-filling allocation).
///
/// The pool is passive: it never schedules events itself. The owner
/// drives it with this protocol:
///
/// 1. mutate ([`PsPool::insert`]) or observe a tick,
/// 2. call [`PsPool::advance`] to the current time,
/// 3. drain [`PsPool::pop_finished`] until it returns `None`,
/// 4. once per simulated instant, after its last change, ask
///    [`PsPool::next_event`] and schedule one tick at that time,
///    tagged with [`PsPool::generation`]; stale ticks (mismatched
///    generation) must be ignored by the owner. A tick scheduled
///    before a later change in the same instant would only go stale.
///
/// ```
/// use dmx_sim::{PsPool, Time};
/// let mut pool = PsPool::new(16.0);
/// pool.insert(Time::ZERO, 1, Time::from_us(16), 4.0);
/// // alone, the job runs at its cap of 4 cores: 16us / 4 = 4us
/// assert_eq!(pool.next_event(Time::ZERO), Some(Time::from_us(4)));
/// ```
#[derive(Debug, Clone)]
pub struct PsPool {
    capacity: f64,
    jobs: Vec<PsJob>,
    last: Time,
    generation: u64,
    finished: Vec<PsJobId>,
    /// Read cursor into `finished` for [`PsPool::pop_finished`].
    finished_head: usize,
    /// Reusable water-fill buffers so steady-state advance/next_event
    /// cycles allocate nothing.
    scratch: RefCell<PsScratch>,
    busy_core_ps: f64,
    jobs_completed: u64,
}

#[derive(Debug, Clone, Default)]
struct PsScratch {
    /// Whether `rates` matches the current job set. Rates are a pure
    /// function of (capacity, per-job caps), so they stay valid until a
    /// job joins or retires — advancing time alone never changes them.
    valid: bool,
    caps: Vec<f64>,
    order: Vec<usize>,
    rates: Vec<f64>,
}

impl PsPool {
    /// Creates a pool with `capacity` cores (may be fractional).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "pool capacity must be positive"
        );
        PsPool {
            capacity,
            jobs: Vec::new(),
            last: Time::ZERO,
            generation: 0,
            finished: Vec::new(),
            finished_head: 0,
            scratch: RefCell::new(PsScratch::default()),
            busy_core_ps: 0.0,
            jobs_completed: 0,
        }
    }

    /// Total core capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Current generation; bumped on every state change so that stale
    /// scheduled ticks can be detected.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of jobs currently in service.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of jobs that have completed.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Integral of allocated cores over time, in core-seconds.
    pub fn busy_core_secs(&self) -> f64 {
        self.busy_core_ps / 1e12
    }

    /// Water-filling rate allocation into the shared scratch: every job
    /// gets `min(cap, fair share)` cores where the shares of uncapped
    /// jobs are raised until capacity is exhausted. After this returns,
    /// `scratch.rates[i]` is the allocation of `jobs[i]`.
    fn fill_rates(&self, s: &mut PsScratch) {
        if s.valid {
            return;
        }
        s.caps.clear();
        s.caps.extend(self.jobs.iter().map(|j| j.cap));
        let (caps, order, rates) = (&s.caps, &mut s.order, &mut s.rates);
        water_fill_into(self.capacity, caps, order, rates);
        s.valid = true;
    }

    /// Advances internal accounting to `now`, depleting remaining work at
    /// the current allocation and marking finished jobs.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the last advance.
    pub fn advance(&mut self, now: Time) {
        assert!(now >= self.last, "PsPool advanced backwards");
        let dt = (now - self.last).as_ps() as f64;
        self.last = now;
        if dt == 0.0 || self.jobs.is_empty() {
            return;
        }
        // Borrow the scratch buffers out of the cell while jobs are
        // mutated, then hand them back; nothing observes the cell in
        // between.
        let mut s = self.scratch.take();
        self.fill_rates(&mut s);
        for (job, rate) in self.jobs.iter_mut().zip(&s.rates) {
            job.remaining -= rate * dt;
            self.busy_core_ps += rate * dt;
        }
        *self.scratch.borrow_mut() = s;
        // A job is finished when less than one picosecond of dedicated
        // single-core time remains; completion events are rounded up to
        // whole picoseconds so this absorbs float error. Ids go straight
        // onto `finished` in the same order the old collect-then-extend
        // produced.
        let before = self.jobs.len();
        let finished = &mut self.finished;
        self.jobs.retain(|j| {
            if j.remaining < 1.0 {
                finished.push(j.id);
                false
            } else {
                true
            }
        });
        let retired = before - self.jobs.len();
        if retired > 0 {
            self.jobs_completed += retired as u64;
            self.generation += 1;
            self.scratch.get_mut().valid = false;
        }
    }

    /// Inserts a job with `work` single-core service demand and a
    /// parallelism cap of `cap` cores. The pool must already be advanced
    /// to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not strictly positive or `now` disagrees with
    /// the pool's internal clock.
    pub fn insert(&mut self, now: Time, id: PsJobId, work: Time, cap: f64) {
        assert!(cap > 0.0, "parallelism cap must be positive");
        self.advance(now);
        let remaining = work.as_ps() as f64;
        if remaining < 1.0 {
            self.finished.push(id);
            self.jobs_completed += 1;
        } else {
            self.jobs.push(PsJob { id, remaining, cap });
            self.scratch.get_mut().valid = false;
        }
        self.generation += 1;
    }

    /// Pops the next completed job in completion (FIFO) order, or `None`
    /// when drained. The buffer is recycled once empty, so steady-state
    /// draining never allocates.
    pub fn pop_finished(&mut self) -> Option<PsJobId> {
        if self.finished_head < self.finished.len() {
            let id = self.finished[self.finished_head];
            self.finished_head += 1;
            Some(id)
        } else {
            self.finished.clear();
            self.finished_head = 0;
            None
        }
    }

    /// Absolute time of the next job completion given the current
    /// allocation, or `None` if the pool is idle. The caller should
    /// schedule a tick at this time tagged with [`PsPool::generation`].
    pub fn next_event(&self, now: Time) -> Option<Time> {
        if self.jobs.is_empty() {
            return None;
        }
        let mut s = self.scratch.borrow_mut();
        self.fill_rates(&mut s);
        let mut best = f64::INFINITY;
        for (job, rate) in self.jobs.iter().zip(&s.rates) {
            if *rate > 0.0 {
                best = best.min(job.remaining / rate);
            }
        }
        if !best.is_finite() {
            return None;
        }
        let dt = Time::from_ps(best.ceil().max(1.0) as u64);
        // `last` may momentarily trail `now` if the owner has not called
        // advance; completions can never be earlier than `now`.
        Some((self.last + dt).max(now))
    }
}

/// Water-filling allocation of `capacity` among jobs with caps.
///
/// Returns the per-job rates. Jobs with small caps get their cap; the
/// rest split the leftover evenly (never exceeding their own cap).
pub fn water_fill(capacity: f64, caps: &[f64]) -> Vec<f64> {
    let mut order = Vec::new();
    let mut rates = Vec::new();
    water_fill_into(capacity, caps, &mut order, &mut rates);
    rates
}

/// [`water_fill`] into caller-provided buffers (cleared and refilled),
/// so repeated allocations inside the event loop reuse capacity.
///
/// The sort is unstable, which cannot change the result: two jobs with
/// equal caps always receive equal rates (if the fair share exceeds the
/// tied cap once it exceeds it for both; if it does not, both freeze at
/// the identical fair share), so tie order is unobservable.
fn water_fill_into(capacity: f64, caps: &[f64], order: &mut Vec<usize>, rates: &mut Vec<f64>) {
    let n = caps.len();
    rates.clear();
    rates.resize(n, 0.0);
    if n == 0 {
        return;
    }
    order.clear();
    // Common case in steady state: every job has the same cap (or caps
    // already ascend), so skip the sort. The fill loop below is exactly
    // the same arithmetic either way. Otherwise, pools see only a
    // handful of distinct cap values (driver vs kernel vs restructure
    // classes), so an O(n·d) bucket pass beats a comparison sort; with
    // many distinct values, fall back to sorting. Order within an equal-
    // cap group is unobservable (equal caps always yield bitwise-equal
    // rates), so every branch produces the same result.
    if caps.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()) {
        order.extend(0..n);
    } else {
        let mut distinct: [f64; 8] = [0.0; 8];
        let mut nd = 0usize;
        for &c in caps {
            if !distinct[..nd].contains(&c) {
                if nd == distinct.len() {
                    nd = usize::MAX;
                    break;
                }
                distinct[nd] = c;
                nd += 1;
            }
        }
        if nd == usize::MAX {
            order.extend(0..n);
            order.sort_unstable_by(|&a, &b| caps[a].total_cmp(&caps[b]));
        } else {
            distinct[..nd].sort_unstable_by(|a, b| a.total_cmp(b));
            for &v in &distinct[..nd] {
                order.extend((0..n).filter(|&i| caps[i] == v));
            }
        }
    }
    let mut remaining_cap = capacity;
    let mut remaining_jobs = n as f64;
    for &i in order.iter() {
        let fair = remaining_cap / remaining_jobs;
        let r = caps[i].min(fair);
        rates[i] = r;
        remaining_cap -= r;
        remaining_jobs -= 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pool: &mut PsPool) -> Vec<PsJobId> {
        std::iter::from_fn(|| pool.pop_finished()).collect()
    }

    #[test]
    fn fifo_single_server_queues() {
        let mut s = FifoServer::new(1);
        assert_eq!(s.submit(Time::ZERO, Time::from_ns(10)), Time::from_ns(10));
        assert_eq!(s.submit(Time::ZERO, Time::from_ns(10)), Time::from_ns(20));
        assert_eq!(
            s.submit(Time::from_ns(25), Time::from_ns(10)),
            Time::from_ns(35)
        );
        assert_eq!(s.busy_time(), Time::from_ns(30));
    }

    #[test]
    fn fifo_multi_server_parallel() {
        let mut s = FifoServer::new(2);
        assert_eq!(s.submit(Time::ZERO, Time::from_ns(10)), Time::from_ns(10));
        assert_eq!(s.submit(Time::ZERO, Time::from_ns(10)), Time::from_ns(10));
        assert_eq!(s.submit(Time::ZERO, Time::from_ns(10)), Time::from_ns(20));
        assert!((s.utilization(Time::from_ns(20)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn water_fill_respects_caps() {
        let rates = water_fill(16.0, &[4.0, 4.0]);
        assert_eq!(rates, vec![4.0, 4.0]);
        // 10 jobs capped at 4 on 16 cores: fair share 1.6 each
        let rates = water_fill(16.0, &[4.0; 10]);
        for r in rates {
            assert!((r - 1.6).abs() < 1e-9);
        }
        // mixed: cap 1 gets 1, the two big ones split the remaining 15
        let rates = water_fill(16.0, &[1.0, 100.0, 100.0]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 7.5).abs() < 1e-9);
        assert!((rates[2] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn water_fill_total_never_exceeds_capacity() {
        let caps = [0.5, 2.0, 3.0, 8.0, 8.0];
        let rates = water_fill(4.0, &caps);
        let total: f64 = rates.iter().sum();
        assert!(total <= 4.0 + 1e-9);
        for (r, c) in rates.iter().zip(&caps) {
            assert!(r <= c);
        }
    }

    #[test]
    fn ps_single_job_runs_at_cap() {
        let mut pool = PsPool::new(16.0);
        pool.insert(Time::ZERO, 7, Time::from_us(16), 4.0);
        let t = pool.next_event(Time::ZERO).unwrap();
        assert_eq!(t, Time::from_us(4));
        pool.advance(t);
        assert_eq!(drain(&mut pool), vec![7]);
        assert_eq!(pool.active_jobs(), 0);
    }

    #[test]
    fn ps_contention_slows_jobs() {
        // 8 jobs, cap 4, on 16 cores: each gets 2 cores -> 2x slower than
        // its solo rate.
        let mut pool = PsPool::new(16.0);
        for id in 0..8 {
            pool.insert(Time::ZERO, id, Time::from_us(16), 4.0);
        }
        let t = pool.next_event(Time::ZERO).unwrap();
        assert_eq!(t, Time::from_us(8));
        pool.advance(t);
        let mut done = drain(&mut pool);
        done.sort_unstable();
        assert_eq!(done, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ps_zero_work_finishes_immediately() {
        let mut pool = PsPool::new(1.0);
        pool.insert(Time::ZERO, 1, Time::ZERO, 1.0);
        assert_eq!(drain(&mut pool), vec![1]);
        assert_eq!(pool.next_event(Time::ZERO), None);
    }

    #[test]
    fn ps_generation_bumps_on_mutation() {
        let mut pool = PsPool::new(2.0);
        let g0 = pool.generation();
        pool.insert(Time::ZERO, 1, Time::from_ns(100), 1.0);
        assert!(pool.generation() > g0);
        let g1 = pool.generation();
        let t = pool.next_event(Time::ZERO).unwrap();
        pool.advance(t);
        assert!(pool.generation() > g1);
    }

    #[test]
    fn ps_staggered_arrivals() {
        // Job A alone for 5us at 1 core/1 cap on 1-core pool, then B
        // arrives; they share 0.5 cores each.
        let mut pool = PsPool::new(1.0);
        pool.insert(Time::ZERO, 1, Time::from_us(10), 1.0);
        pool.advance(Time::from_us(5));
        pool.insert(Time::from_us(5), 2, Time::from_us(10), 1.0);
        // A has 5us left at 0.5 cores -> finishes at 5 + 10 = 15us.
        let t = pool.next_event(Time::from_us(5)).unwrap();
        assert_eq!(t, Time::from_us(15));
        pool.advance(t);
        assert_eq!(drain(&mut pool), vec![1]);
        // B has 10 - 5 = 5us left, alone now -> 15 + 5 = 20us.
        let t2 = pool.next_event(t).unwrap();
        assert_eq!(t2, Time::from_us(20));
    }

    #[test]
    fn ps_busy_accounting() {
        let mut pool = PsPool::new(4.0);
        pool.insert(Time::ZERO, 1, Time::from_secs(1), 2.0);
        let t = pool.next_event(Time::ZERO).unwrap();
        pool.advance(t);
        assert!((pool.busy_core_secs() - 1.0).abs() < 1e-6);
        assert_eq!(pool.jobs_completed(), 1);
    }
}
