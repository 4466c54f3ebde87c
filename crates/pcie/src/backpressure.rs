//! Credit-based ingress backpressure.
//!
//! Each DRX endpoint owns a finite ingress data queue (Sec. V
//! provisions a queue pair per unit). When a producer wants to DMA a
//! batch into an endpoint, it must first reserve that many bytes of
//! ingress credit; if the queue cannot hold the batch, the transfer
//! *stalls at the source* instead of buffering unboundedly somewhere in
//! the fabric. Credits are released when the endpoint consumes the
//! batch, which wakes the oldest stalled producer that now fits. This
//! makes congestion visible end-to-end: a slow endpoint propagates
//! backpressure upstream as measurable stall time rather than silent
//! unbounded queueing.
//!
//! The gate is deliberately independent of [`crate::flow::FlowNet`]:
//! it arbitrates *whether a transfer may start*, the flow network
//! models *how fast it runs* once started.

use dmx_sim::Time;
use std::collections::{HashMap, VecDeque};

/// Opaque token a caller uses to identify a parked transfer (typically
/// its request id).
pub type CreditToken = u64;

#[derive(Debug, Clone, Default)]
struct Endpoint {
    /// Bytes of ingress queue currently reserved.
    in_use: u64,
    /// Transfers waiting for credit, oldest first.
    waiting: VecDeque<(CreditToken, u64, Time)>,
}

/// Per-endpoint byte-credit gate with FIFO wakeup and stall statistics.
///
/// Endpoints are keyed by an arbitrary `u64` (the DMX system uses its
/// stable DRX unit ids). Batches larger than the whole queue are
/// clamped to the queue size — they occupy the entire queue and stream
/// through it, which is how a real bounded queue handles an oversized
/// transfer.
///
/// ```
/// use dmx_pcie::CreditGate;
/// use dmx_sim::Time;
/// let mut g = CreditGate::new(100);
/// assert!(g.try_acquire(Time::ZERO, 1, 10, 60)); // fits
/// assert!(!g.try_acquire(Time::ZERO, 1, 11, 60)); // parked
/// let woken = g.release(Time::from_us(5), 1, 60);
/// assert_eq!(woken, vec![11]);
/// assert_eq!(g.stalls(), 1);
/// assert_eq!(g.stall_time(), Time::from_us(5));
/// ```
#[derive(Debug, Clone)]
pub struct CreditGate {
    capacity: u64,
    endpoints: HashMap<u64, Endpoint>,
    stalls: u64,
    stall_time: Time,
}

impl CreditGate {
    /// Creates a gate giving every endpoint `capacity_bytes` of ingress
    /// credit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64) -> CreditGate {
        assert!(
            capacity_bytes > 0,
            "ingress queue must have nonzero capacity"
        );
        CreditGate {
            capacity: capacity_bytes,
            endpoints: HashMap::new(),
            stalls: 0,
            stall_time: Time::ZERO,
        }
    }

    /// Transfers that had to stall for credit so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total time stalled transfers spent parked.
    pub fn stall_time(&self) -> Time {
        self.stall_time
    }

    /// Tries to reserve `bytes` of ingress credit on `endpoint` for the
    /// transfer identified by `token`. Returns `true` when the credit
    /// was granted; otherwise the transfer is parked (FIFO) and will be
    /// returned by a future [`CreditGate::release`] once it fits.
    ///
    /// Transfers already parked on the endpoint always park behind the
    /// queue — credit is granted in arrival order, so a stream of small
    /// batches cannot starve a large one.
    pub fn try_acquire(
        &mut self,
        now: Time,
        endpoint: u64,
        token: CreditToken,
        bytes: u64,
    ) -> bool {
        let bytes = bytes.min(self.capacity).max(1);
        let ep = self.endpoints.entry(endpoint).or_default();
        if ep.waiting.is_empty() && ep.in_use + bytes <= self.capacity {
            ep.in_use += bytes;
            true
        } else {
            ep.waiting.push_back((token, bytes, now));
            self.stalls += 1;
            false
        }
    }

    /// Returns `bytes` of credit to `endpoint` and grants credit to as
    /// many parked transfers (oldest first) as now fit. Returns the
    /// tokens of the woken transfers; the caller starts them.
    pub fn release(&mut self, now: Time, endpoint: u64, bytes: u64) -> Vec<CreditToken> {
        let bytes = bytes.min(self.capacity).max(1);
        let Some(ep) = self.endpoints.get_mut(&endpoint) else {
            return Vec::new();
        };
        ep.in_use = ep.in_use.saturating_sub(bytes);
        self.wake_fitting(now, endpoint)
    }

    /// Cancels `token`'s reservation of `bytes` on `endpoint` (the
    /// transfer's owner went away — e.g. a crashed request being
    /// migrated). A still-parked transfer leaves the wait queue without
    /// ever holding credit; a granted one returns its credit like
    /// [`CreditGate::release`]. Either way, transfers that now fit are
    /// woken and returned for the caller to start.
    pub fn cancel(
        &mut self,
        now: Time,
        endpoint: u64,
        token: CreditToken,
        bytes: u64,
    ) -> Vec<CreditToken> {
        let Some(ep) = self.endpoints.get_mut(&endpoint) else {
            return Vec::new();
        };
        if let Some(pos) = ep.waiting.iter().position(|(t, _, _)| *t == token) {
            let since = ep.waiting[pos].2;
            ep.waiting.remove(pos);
            self.stall_time += now.saturating_sub(since);
            // Removing a parked head can unblock the transfers behind
            // it (FIFO grant order no longer waits on the removed one).
            self.wake_fitting(now, endpoint)
        } else {
            self.release(now, endpoint, bytes)
        }
    }

    /// Grants credit to parked transfers (oldest first) while they fit;
    /// returns the woken tokens.
    fn wake_fitting(&mut self, now: Time, endpoint: u64) -> Vec<CreditToken> {
        let Some(ep) = self.endpoints.get_mut(&endpoint) else {
            return Vec::new();
        };
        let mut woken = Vec::new();
        while let Some(&(token, need, since)) = ep.waiting.front() {
            if ep.in_use + need > self.capacity {
                break;
            }
            ep.waiting.pop_front();
            ep.in_use += need;
            self.stall_time += now.saturating_sub(since);
            woken.push(token);
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CreditGate {
        /// Bytes currently reserved on `endpoint`.
        fn in_use(&self, endpoint: u64) -> u64 {
            self.endpoints.get(&endpoint).map_or(0, |e| e.in_use)
        }

        /// Transfers currently parked on `endpoint`.
        fn parked(&self, endpoint: u64) -> usize {
            self.endpoints.get(&endpoint).map_or(0, |e| e.waiting.len())
        }
    }

    #[test]
    fn grants_until_full_then_parks() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 40));
        assert!(g.try_acquire(Time::ZERO, 7, 2, 40));
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 40));
        assert_eq!(g.in_use(7), 80);
        assert_eq!(g.parked(7), 1);
        assert_eq!(g.stalls(), 1);
    }

    #[test]
    fn release_wakes_fifo_order() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 100));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 30));
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 30));
        assert!(!g.try_acquire(Time::ZERO, 7, 4, 60));
        // 100 bytes return: 2 and 3 fit (60), 4 would overflow and must
        // wait even though it is smaller than the remaining 40.
        let woken = g.release(Time::from_us(1), 7, 100);
        assert_eq!(woken, vec![2, 3]);
        assert_eq!(g.in_use(7), 60);
        let woken = g.release(Time::from_us(2), 7, 30);
        assert_eq!(woken, vec![4]);
        assert_eq!(g.in_use(7), 90);
    }

    #[test]
    fn arrivals_park_behind_existing_queue() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 90));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 90));
        // Would fit the 10 free bytes, but 2 is ahead in line.
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 10));
        // 90 bytes return: 2 (90) is granted first, and then 3 (10)
        // fits in the remainder — both wake, in FIFO order.
        let woken = g.release(Time::from_us(1), 7, 90);
        assert_eq!(woken, vec![2, 3]);
    }

    #[test]
    fn oversized_batches_clamp_to_capacity() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 10_000));
        assert_eq!(g.in_use(7), 100);
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 1));
        let woken = g.release(Time::ZERO, 7, 10_000);
        assert_eq!(woken, vec![2]);
    }

    #[test]
    fn endpoints_are_independent() {
        let mut g = CreditGate::new(50);
        assert!(g.try_acquire(Time::ZERO, 1, 10, 50));
        assert!(g.try_acquire(Time::ZERO, 2, 20, 50));
        assert_eq!(g.in_use(1), 50);
        assert_eq!(g.in_use(2), 50);
    }

    #[test]
    fn stall_time_accumulates() {
        let mut g = CreditGate::new(10);
        assert!(g.try_acquire(Time::ZERO, 1, 1, 10));
        assert!(!g.try_acquire(Time::from_us(2), 1, 2, 10));
        let woken = g.release(Time::from_us(10), 1, 10);
        assert_eq!(woken, vec![1 + 1]);
        assert_eq!(g.stall_time(), Time::from_us(8));
    }

    #[test]
    fn cancel_unparks_without_releasing_credit() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 80));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 50));
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 20));
        // 2 never held credit: cancelling it must not change in_use,
        // but 3 (parked behind it) now fits the 20 free bytes.
        let woken = g.cancel(Time::from_us(1), 7, 2, 50);
        assert_eq!(woken, vec![3]);
        assert_eq!(g.in_use(7), 100);
        // 1 was granted: cancelling it behaves like release.
        let woken = g.cancel(Time::from_us(2), 7, 1, 80);
        assert!(woken.is_empty());
        assert_eq!(g.in_use(7), 20);
    }

    #[test]
    fn interleaved_park_cancel_grant_keeps_fifo_order() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 70));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 40));
        // 3 would fit the 30 free bytes but parks behind 2.
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 20));
        // Cancelling parked 2 unblocks 3 — and only 3.
        let woken = g.cancel(Time::from_us(1), 7, 2, 40);
        assert_eq!(woken, vec![3]);
        assert_eq!(g.in_use(7), 90);
        // A new arrival parks behind nothing but still lacks credit.
        assert!(!g.try_acquire(Time::from_us(2), 7, 4, 20));
        // Granted 1 cancels: like a release, oldest-first wakeup.
        let woken = g.cancel(Time::from_us(3), 7, 1, 70);
        assert_eq!(woken, vec![4]);
        assert_eq!(g.in_use(7), 40);
        assert_eq!(g.parked(7), 0);
    }

    #[test]
    fn cancel_of_granted_credit_cannot_leapfrog_queue_head() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 50));
        assert!(g.try_acquire(Time::ZERO, 7, 2, 50));
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 60));
        assert!(!g.try_acquire(Time::ZERO, 7, 4, 10));
        // 1's credit comes back, but head-of-line 3 still does not fit;
        // 4 must keep waiting behind it (no starvation of the big one).
        let woken = g.cancel(Time::from_us(1), 7, 1, 50);
        assert!(woken.is_empty());
        assert_eq!(g.in_use(7), 50);
        assert_eq!(g.parked(7), 2);
        // 2's credit completes the picture: 3 then 4, in FIFO order.
        let woken = g.release(Time::from_us(2), 7, 50);
        assert_eq!(woken, vec![3, 4]);
        assert_eq!(g.in_use(7), 70);
    }

    #[test]
    fn cancelling_parked_head_unblocks_followers_in_order() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 90));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 80));
        assert!(!g.try_acquire(Time::ZERO, 7, 3, 5));
        assert!(!g.try_acquire(Time::ZERO, 7, 4, 5));
        let woken = g.cancel(Time::from_us(1), 7, 2, 80);
        assert_eq!(woken, vec![3, 4]);
        assert_eq!(g.in_use(7), 100);
    }

    #[test]
    fn cancelled_token_can_repark_and_regrant_once() {
        let mut g = CreditGate::new(100);
        assert!(g.try_acquire(Time::ZERO, 7, 1, 100));
        assert!(!g.try_acquire(Time::ZERO, 7, 2, 50));
        let woken = g.cancel(Time::from_us(1), 7, 2, 50);
        assert!(woken.is_empty());
        assert_eq!(g.parked(7), 0);
        // The same token parks again (a migrated request retrying) and
        // is granted exactly once.
        assert!(!g.try_acquire(Time::from_us(2), 7, 2, 50));
        let woken = g.release(Time::from_us(3), 7, 100);
        assert_eq!(woken, vec![2]);
        assert_eq!(g.in_use(7), 50);
        assert!(g.release(Time::from_us(4), 7, 50).is_empty());
        assert_eq!(g.in_use(7), 0);
    }

    #[test]
    fn cancelled_parked_transfer_still_accounts_stall_time() {
        let mut g = CreditGate::new(10);
        assert!(g.try_acquire(Time::ZERO, 1, 1, 10));
        assert!(!g.try_acquire(Time::from_us(3), 1, 2, 10));
        g.cancel(Time::from_us(7), 1, 2, 10);
        assert_eq!(g.stall_time(), Time::from_us(4));
        assert_eq!(g.stalls(), 1);
    }

    #[test]
    fn release_on_unknown_endpoint_is_noop() {
        let mut g = CreditGate::new(10);
        assert!(g.release(Time::ZERO, 99, 10).is_empty());
    }

    #[test]
    fn zero_byte_transfer_still_reserves_a_byte() {
        // A zero-byte batch must not bypass arbitration entirely: it
        // reserves the one-byte minimum so ordering stays honest.
        let mut g = CreditGate::new(10);
        assert!(g.try_acquire(Time::ZERO, 1, 1, 0));
        assert_eq!(g.in_use(1), 1);
        g.release(Time::ZERO, 1, 0);
        assert_eq!(g.in_use(1), 0);
    }
}
