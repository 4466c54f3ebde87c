//! Open-loop workload generation and bounded admission queues.
//!
//! The throughput experiments of the paper drive the server with a
//! *closed* loop (a fixed number of requests kept in flight). A
//! production chain instead faces an *open* loop: requests arrive on
//! their own schedule, whether or not the server keeps up. This module
//! provides the two pieces the overload experiments need:
//!
//! * [`ArrivalProcess`] / [`ArrivalGen`] — deterministic per-tenant
//!   arrival streams: Poisson for steady load, a two-state
//!   Markov-modulated Poisson process (MMPP) for bursty load. Every
//!   draw comes from a caller-seeded [`SplitMix64`], so a run is
//!   exactly reproducible from its config.
//! * [`BoundedQueue`] — a capacity-bounded priority queue (minimum key
//!   first, FIFO among equal keys) that tracks occupancy over time,
//!   per-item waiting time, the high-water mark, and how many pushes it
//!   refused. Keyed by deadline it is an EDF dispatch queue; keyed by
//!   arrival time it is a plain bounded FIFO.

use crate::rng::SplitMix64;
use crate::stats::{Summary, TimeWeighted};
use crate::time::Time;
use std::collections::VecDeque;

/// A request arrival process, in requests per second of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate (requests per second).
        rate_rps: f64,
    },
    /// Two-state Markov-modulated Poisson process: the stream dwells in
    /// a low-rate and a high-rate phase, switching after exponentially
    /// distributed dwell times. Models bursty tenants whose mean rate
    /// is `(low_rps + high_rps) / 2` when dwell times are equal.
    Mmpp {
        /// Arrival rate in the quiet phase.
        low_rps: f64,
        /// Arrival rate in the burst phase.
        high_rps: f64,
        /// Mean dwell time in each phase.
        mean_dwell: Time,
    },
}

/// Deterministic generator of inter-arrival gaps for one tenant.
///
/// ```
/// use dmx_sim::{ArrivalGen, ArrivalProcess, SplitMix64};
/// let p = ArrivalProcess::Poisson { rate_rps: 1000.0 };
/// let mut a = ArrivalGen::new(p, SplitMix64::new(7));
/// let mut b = ArrivalGen::new(p, SplitMix64::new(7));
/// assert_eq!(a.next_gap(), b.next_gap()); // reproducible
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    /// MMPP only: `true` in the burst phase.
    high: bool,
    /// MMPP only: simulated seconds left in the current phase.
    dwell_left: f64,
}

impl ArrivalGen {
    /// Creates a generator drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if any rate or dwell time of the process is not positive.
    pub fn new(process: ArrivalProcess, mut rng: SplitMix64) -> ArrivalGen {
        let dwell_left = match process {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "Poisson rate must be positive");
                0.0
            }
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                mean_dwell,
            } => {
                assert!(
                    low_rps > 0.0 && high_rps > 0.0,
                    "MMPP rates must be positive"
                );
                assert!(!mean_dwell.is_zero(), "MMPP dwell time must be nonzero");
                rng.next_exp(mean_dwell.as_secs_f64())
            }
        };
        ArrivalGen {
            process,
            rng,
            high: false,
            dwell_left,
        }
    }

    /// Gap to the next arrival. Never zero: gaps are rounded up to one
    /// picosecond so arrival order stays strict.
    pub fn next_gap(&mut self) -> Time {
        let secs = match self.process {
            ArrivalProcess::Poisson { rate_rps } => self.rng.next_exp(1.0 / rate_rps),
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                mean_dwell,
            } => {
                // Walk phase boundaries until an arrival lands inside
                // the current phase. Memorylessness lets us redraw the
                // exponential gap after each switch.
                let mut elapsed = 0.0;
                loop {
                    let rate = if self.high { high_rps } else { low_rps };
                    let gap = self.rng.next_exp(1.0 / rate);
                    if gap <= self.dwell_left {
                        self.dwell_left -= gap;
                        break elapsed + gap;
                    }
                    elapsed += self.dwell_left;
                    self.high = !self.high;
                    self.dwell_left = self.rng.next_exp(mean_dwell.as_secs_f64());
                }
            }
        };
        Time::from_secs_f64(secs).max(Time::from_ps(1))
    }
}

/// A bounded minimum-key-first queue with occupancy and wait statistics.
///
/// Pushes beyond the capacity are refused and counted; pops return the
/// smallest key (FIFO among ties) together with how long the item
/// waited. Occupancy is integrated over time for the mean and tracked
/// for the peak, so callers can verify the bound was never exceeded.
///
/// ```
/// use dmx_sim::{BoundedQueue, Time};
/// let mut q: BoundedQueue<&str> = BoundedQueue::new(2);
/// assert!(q.try_push(Time::ZERO, 20, "late"));
/// assert!(q.try_push(Time::ZERO, 10, "urgent"));
/// assert!(!q.try_push(Time::ZERO, 5, "refused")); // full
/// let (key, item, waited) = q.pop_min(Time::from_us(3)).unwrap();
/// assert_eq!((key, item), (10, "urgent")); // EDF order
/// assert_eq!(waited, Time::from_us(3));
/// assert_eq!(q.rejected(), 1);
/// assert_eq!(q.peak(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    cap: usize,
    /// `(key, item, enqueued at)`, ascending by key and FIFO among
    /// equal keys. The buffer is reused, so a queue that drains and
    /// refills allocates nothing once it has held its peak.
    items: VecDeque<(u64, T, Time)>,
    occupancy: TimeWeighted,
    wait: Summary,
    rejected: u64,
    peak: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> BoundedQueue<T> {
        assert!(cap > 0, "queue capacity must be nonzero");
        BoundedQueue {
            cap,
            items: VecDeque::new(),
            occupancy: TimeWeighted::new(0.0),
            wait: Summary::new(),
            rejected: 0,
            peak: 0,
        }
    }

    /// Largest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Pushes refused because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Waiting-time statistics of popped items (seconds).
    pub fn wait_stats(&self) -> &Summary {
        &self.wait
    }

    /// Time-weighted mean occupancy over `[0, now]`.
    pub fn occupancy_mean(&mut self, now: Time) -> f64 {
        self.occupancy.mean(now)
    }

    /// Enqueues `item` under `key` at `now`; returns `false` (and
    /// counts a rejection) when the queue is at capacity.
    pub fn try_push(&mut self, now: Time, key: u64, item: T) -> bool {
        if self.items.len() >= self.cap {
            self.rejected += 1;
            return false;
        }
        // After every item with an equal key: FIFO among ties. EDF
        // deadlines mostly ascend, so this lands at or near the back.
        let at = self.items.partition_point(|e| e.0 <= key);
        self.items.insert(at, (key, item, now));
        self.peak = self.peak.max(self.items.len());
        self.occupancy.set(now, self.items.len() as f64);
        true
    }

    /// Removes the smallest-key item (FIFO among ties), returning its
    /// key, the item, and how long it waited.
    pub fn pop_min(&mut self, now: Time) -> Option<(u64, T, Time)> {
        let (key, item, enqueued) = self.items.pop_front()?;
        let waited = now.saturating_sub(enqueued);
        self.wait.record_time(waited);
        self.occupancy.set(now, self.items.len() as f64);
        Some((key, item, waited))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, run_cases};

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::Poisson { rate_rps: 500.0 },
            SplitMix64::new(1),
        );
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| g.next_gap().as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / 500.0).abs() < 2e-4, "mean gap {mean}");
    }

    #[test]
    fn mmpp_mean_rate_between_phases() {
        let p = ArrivalProcess::Mmpp {
            low_rps: 100.0,
            high_rps: 900.0,
            mean_dwell: Time::from_ms(20),
        };
        let mut g = ArrivalGen::new(p, SplitMix64::new(2));
        let n = 50_000;
        let span: f64 = (0..n).map(|_| g.next_gap().as_secs_f64()).sum();
        let rate = n as f64 / span;
        // Long-run rate sits strictly between the phase rates, near the
        // mean (equal dwell in both phases).
        assert!(rate > 150.0 && rate < 850.0, "long-run rate {rate}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for MMPP with distinct phase rates.
        let cv2 = |mut g: ArrivalGen| {
            let gaps: Vec<f64> = (0..30_000).map(|_| g.next_gap().as_secs_f64()).collect();
            let n = gaps.len() as f64;
            let mean = gaps.iter().sum::<f64>() / n;
            let var = gaps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalGen::new(
            ArrivalProcess::Poisson { rate_rps: 500.0 },
            SplitMix64::new(3),
        ));
        let mmpp = cv2(ArrivalGen::new(
            ArrivalProcess::Mmpp {
                low_rps: 100.0,
                high_rps: 900.0,
                mean_dwell: Time::from_ms(50),
            },
            SplitMix64::new(3),
        ));
        assert!((poisson - 1.0).abs() < 0.15, "Poisson cv^2 {poisson}");
        assert!(mmpp > 1.5, "MMPP cv^2 {mmpp} not bursty");
    }

    #[test]
    fn arrival_streams_are_deterministic() {
        for p in [
            ArrivalProcess::Poisson { rate_rps: 250.0 },
            ArrivalProcess::Mmpp {
                low_rps: 50.0,
                high_rps: 400.0,
                mean_dwell: Time::from_ms(5),
            },
        ] {
            let mut a = ArrivalGen::new(p, SplitMix64::new(9));
            let mut b = ArrivalGen::new(p, SplitMix64::new(9));
            for _ in 0..200 {
                assert_eq!(a.next_gap(), b.next_gap());
            }
        }
    }

    #[test]
    fn gaps_are_never_zero() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::Poisson { rate_rps: 1e9 },
            SplitMix64::new(4),
        );
        for _ in 0..1000 {
            assert!(g.next_gap() >= Time::from_ps(1));
        }
    }

    #[test]
    fn queue_orders_by_key_then_fifo() {
        let mut q = BoundedQueue::new(8);
        assert!(q.try_push(Time::ZERO, 5, "a"));
        assert!(q.try_push(Time::ZERO, 5, "b"));
        assert!(q.try_push(Time::ZERO, 1, "c"));
        assert_eq!(q.pop_min(Time::ZERO).unwrap().1, "c");
        assert_eq!(q.pop_min(Time::ZERO).unwrap().1, "a");
        assert_eq!(q.pop_min(Time::ZERO).unwrap().1, "b");
        assert!(q.pop_min(Time::ZERO).is_none());
    }

    #[test]
    fn queue_tracks_wait_and_occupancy() {
        let mut q = BoundedQueue::new(4);
        q.try_push(Time::ZERO, 1, ());
        q.try_push(Time::ZERO, 2, ());
        let (_, _, w) = q.pop_min(Time::from_us(10)).unwrap();
        assert_eq!(w, Time::from_us(10));
        assert_eq!(q.wait_stats().count(), 1);
        assert_eq!(q.peak(), 2);
        // Occupancy: 2 for 10us, then 1 for 10us => mean 1.5 over 20us.
        let mean = q.occupancy_mean(Time::from_us(20));
        assert!((mean - 1.5).abs() < 1e-9, "{mean}");
    }

    /// The bound invariant under random push/pop interleavings: length
    /// never exceeds capacity, the peak never exceeds capacity, and
    /// every push at capacity is refused.
    #[test]
    fn queue_never_exceeds_bound() {
        run_cases("bounded_queue_invariant", cases(64), |g| {
            let cap = g.usize_in(1, 12);
            let mut q = BoundedQueue::new(cap);
            let mut now = Time::ZERO;
            let mut accepted = 0u64;
            let mut popped = 0u64;
            for _ in 0..g.usize_in(1, 120) {
                now += Time::from_ns(g.u64_in(1, 1000));
                if g.chance(0.6) {
                    let full = q.items.len() == cap;
                    let ok = q.try_push(now, g.u64_in(0, 50), ());
                    assert_eq!(ok, !full, "push must succeed iff below the bound");
                    accepted += ok as u64;
                } else if q.pop_min(now).is_some() {
                    popped += 1;
                }
                assert!(
                    q.items.len() <= cap,
                    "occupancy {} over bound {cap}",
                    q.items.len()
                );
            }
            assert!(q.peak() <= cap);
            assert_eq!(accepted - popped, q.items.len() as u64);
            assert_eq!(q.wait_stats().count(), popped);
        });
    }
}
