//! Time-ordered event queue with FIFO tie-breaking.
//!
//! The queue is one vector of pending events kept in reverse delivery
//! order, so the next event is the last entry and a pop is
//! `Vec::pop`. A push walks back from that end past every event due at
//! or before it and inserts there, which also places it behind the
//! events already scheduled for its instant. A simulation here holds a
//! few dozen pending events, and most pushes land within a few entries
//! of the delivery end, so the walk and the shift are short.

use crate::time::Time;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-global count of delivered events, accumulated as queues are
/// dropped (one atomic add per queue lifetime, nothing on the hot
/// path). perfbench samples this around each cell it runs and reports
/// the count per pass (`system.events`).
static DELIVERED: AtomicU64 = AtomicU64::new(0);

/// Total events delivered by all [`EventQueue`]s *dropped so far*,
/// process-wide. Live queues contribute only once they drop, so sample
/// this before and after a complete run.
pub fn events_delivered() -> u64 {
    DELIVERED.load(AtomicOrdering::Relaxed)
}

/// Process-global nanoseconds spent in simulation *setup* (system
/// construction before the event loop starts), accumulated by
/// [`record_setup_nanos`]. perfbench samples this around each cell it
/// runs (`system.build_s`), so system construction is reported apart
/// from the event loop.
static SETUP_NANOS: AtomicU64 = AtomicU64::new(0);

/// Total nanoseconds recorded as simulation setup so far, process-wide.
/// Sample before and after a run and subtract.
pub fn setup_nanos() -> u64 {
    SETUP_NANOS.load(AtomicOrdering::Relaxed)
}

/// Adds `nanos` to the process-global setup-time counter. Called by
/// simulator constructors (one add per system built, nothing on the
/// event hot path).
pub fn record_setup_nanos(nanos: u64) {
    SETUP_NANOS.fetch_add(nanos, AtomicOrdering::Relaxed);
}

/// Process-global default for the no-progress watchdog, read once by
/// each [`EventQueue::new`]. 0 = disabled (the library default).
static DEFAULT_STALL_LIMIT: AtomicU64 = AtomicU64::new(0);

/// Sets the default no-progress watchdog limit for every
/// [`EventQueue`] created *after* this call: a queue that delivers
/// `limit` consecutive events without simulated time advancing panics
/// with a diagnostic dump of its pending events instead of spinning
/// forever. `0` disables the watchdog (the default). Test harnesses
/// arm this so a livelocked simulation aborts loudly; individual
/// queues can override via [`EventQueue::set_stall_limit`].
pub fn set_default_stall_limit(limit: u64) {
    DEFAULT_STALL_LIMIT.store(limit, AtomicOrdering::Relaxed);
}

/// A pending event.
struct Entry<E> {
    time: Time,
    payload: E,
}

/// The core of a discrete-event simulation: a clock plus a priority queue
/// of future events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, which keeps simulations deterministic. The pending
/// events sit in one `Vec` in reverse delivery order; a push inserts
/// behind every event due at or before it, so ties keep their schedule
/// order by position alone. The buffer is reused as events come and
/// go, so a steady-state simulation stops allocating once the queue
/// reaches its peak depth.
///
/// ```
/// use dmx_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.schedule_after(Time::from_ns(10), "b");
/// q.schedule_at(Time::from_ns(5), "a");
/// assert_eq!(q.pop(), Some("a"));
/// assert_eq!(q.now(), Time::from_ns(5));
/// assert_eq!(q.pop(), Some("b"));
/// assert_eq!(q.now(), Time::from_ns(10));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending events, the next one last.
    pending: Vec<Entry<E>>,
    now: Time,
    popped: u64,
    /// No-progress watchdog: abort after this many consecutive
    /// deliveries at one instant. 0 = disabled.
    stall_limit: u64,
    stall_streak: u64,
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        DELIVERED.fetch_add(self.popped, AtomicOrdering::Relaxed);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("processed", &self.popped)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`]. The
    /// no-progress watchdog starts at the process-global default set by
    /// [`set_default_stall_limit`] (disabled unless a harness armed it).
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            now: Time::ZERO,
            popped: 0,
            stall_limit: DEFAULT_STALL_LIMIT.load(AtomicOrdering::Relaxed),
            stall_streak: 0,
        }
    }

    /// Overrides the no-progress watchdog for this queue: deliver
    /// `limit` consecutive events without the clock advancing and
    /// [`pop`](EventQueue::pop) panics with a dump of the pending
    /// queue. 0 disables.
    pub fn set_stall_limit(&mut self, limit: u64) {
        self.stall_limit = limit;
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedules `payload` at absolute time `at`, to be delivered after
    /// every pending event due at or before `at`. The push costs one
    /// compare and one move for each of those events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); scheduling *at*
    /// the current instant is allowed.
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let last_due_after = self.pending.iter().rposition(|e| e.time > at);
        let i = last_due_after.map_or(0, |i| i + 1);
        self.pending.insert(i, Entry { time: at, payload });
    }

    /// Schedules `payload` at `self.now() + delay`.
    pub fn schedule_after(&mut self, delay: Time, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.pending.last().map(|e| e.time)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock is
    /// left where it was).
    ///
    /// # Panics
    ///
    /// With the no-progress watchdog armed (see
    /// [`set_default_stall_limit`] / [`set_stall_limit`](EventQueue::set_stall_limit)),
    /// panics with a dump of the pending queue once `stall_limit`
    /// consecutive events are delivered without the clock advancing —
    /// the signature of a model livelock (e.g. two stages endlessly
    /// rescheduling each other at the same instant).
    pub fn pop(&mut self) -> Option<E>
    where
        E: std::fmt::Debug,
    {
        let entry = self.pending.pop()?;
        debug_assert!(entry.time >= self.now);
        if self.stall_limit > 0 {
            if entry.time > self.now {
                self.stall_streak = 0;
            } else {
                self.stall_streak += 1;
                if self.stall_streak >= self.stall_limit {
                    self.no_progress_abort(&entry);
                }
            }
        }
        self.now = entry.time;
        self.popped += 1;
        Some(entry.payload)
    }

    /// Watchdog trip: render the stuck instant, the tripping event and
    /// the head of the pending queue in delivery order, then panic.
    /// Cold — only reached on a genuine livelock.
    #[cold]
    fn no_progress_abort(&self, tripped: &Entry<E>) -> !
    where
        E: std::fmt::Debug,
    {
        const DUMP: usize = 32;
        let dump: String = std::iter::once(tripped)
            .chain(self.pending.iter().rev())
            .take(DUMP)
            .map(|e| format!("  at {:?}: {:?}\n", e.time, e.payload))
            .collect();
        let listed = self.pending.len() + 1;
        panic!(
            "event queue made no progress: {} consecutive events delivered at {:?} \
             (stall limit {}); the simulation is livelocked. Next {} pending events \
             in delivery order ({} more omitted):\n{}",
            self.stall_streak,
            self.now,
            self.stall_limit,
            listed.min(DUMP),
            listed.saturating_sub(DUMP),
            dump
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_cases;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(30), 3);
        q.schedule_at(Time::from_ns(10), 1);
        q.schedule_at(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn fifo_among_simultaneous() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Time::from_ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(5), ());
        q.schedule_at(Time::from_ns(5), ());
        q.schedule_at(Time::from_ns(9), ());
        let mut last = Time::ZERO;
        while q.pop().is_some() {
            assert!(q.now() >= last);
            last = q.now();
        }
        assert_eq!(last, Time::from_ns(9));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(10), ());
        q.pop();
        q.schedule_at(Time::from_ns(5), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(10), 1);
        q.pop();
        q.schedule_at(Time::from_ns(10), 2);
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn delivered_counter_flushes_on_drop() {
        let before = events_delivered();
        {
            let mut q = EventQueue::new();
            for i in 0..5u64 {
                q.schedule_at(Time::from_ns(i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(events_delivered() >= before + 5);
    }

    #[test]
    fn watchdog_off_by_default_tolerates_long_same_time_runs() {
        let mut q = EventQueue::new();
        q.set_stall_limit(0);
        for i in 0..10_000u64 {
            q.schedule_at(Time::from_ns(7), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    #[should_panic(expected = "event queue made no progress")]
    fn watchdog_trips_on_livelock() {
        let mut q = EventQueue::new();
        q.set_stall_limit(100);
        // A self-rescheduling zero-delay event: time never advances.
        q.schedule_at(Time::from_ns(1), 0u64);
        while let Some(e) = q.pop() {
            q.schedule_after(Time::ZERO, e + 1);
        }
    }

    #[test]
    fn watchdog_streak_resets_when_time_advances() {
        let mut q = EventQueue::new();
        q.set_stall_limit(50);
        // 40 same-instant events per step stays under the limit as
        // long as the clock moves between bursts.
        for step in 0..10u64 {
            for i in 0..40u64 {
                q.schedule_at(Time::from_ns(step + 1), i);
            }
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 400);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_after(Time::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_jump_and_back() {
        let mut q = EventQueue::new();
        // Two events 100 s out, then one near the clock.
        q.schedule_at(Time::from_secs(100), 2);
        q.schedule_at(Time::from_secs(100), 3);
        q.schedule_at(Time::from_ns(1), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.pop(), Some(1));
        // An event at `now` still goes ahead of the far pair.
        q.schedule_at(Time::from_ns(1), 10);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.peek_time(), Some(Time::from_secs(100)));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None::<u64>);
    }

    #[test]
    fn watchdog_dump_lists_tripping_event_then_delivery_order() {
        let msg = std::panic::catch_unwind(|| {
            let mut q = EventQueue::new();
            q.set_stall_limit(3);
            // The a* events share t = 1: a0 moves the clock, a1..a3 do
            // not, so a3 trips. The rest are scheduled out of delivery
            // order, p9 first, and p3a and p3b tie at t = 3.
            for (ns, name) in [
                (9, "p9"),
                (1, "a0"),
                (3, "p3a"),
                (7, "p7"),
                (1, "a1"),
                (3, "p3b"),
                (1, "a2"),
                (5, "p5"),
                (1, "a3"),
                (2, "p2"),
                (8, "p8"),
                (4, "p4"),
            ] {
                q.schedule_at(Time::from_ns(ns), name);
            }
            while q.pop().is_some() {}
        })
        .expect_err("the watchdog must trip");
        let msg = msg.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("event queue made no progress"), "{msg}");
        let dumped: Vec<&str> = msg
            .lines()
            .filter(|l| l.starts_with("  at "))
            .map(|l| l.rsplit(": ").next().expect("payload after the colon"))
            .map(|p| p.trim_matches('"'))
            .collect();
        assert_eq!(
            dumped,
            ["a3", "p2", "p3a", "p3b", "p4", "p5", "p7", "p8", "p9"]
        );
    }

    #[test]
    fn zero_delay_event_goes_behind_its_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(9), 90);
        for i in 0..4 {
            q.schedule_at(Time::from_ns(5), i);
        }
        assert_eq!((q.peek_time(), q.len()), (Some(Time::from_ns(5)), 5));
        assert_eq!(q.pop(), Some(0));
        // Scheduled at `now` while 1, 2 and 3 still wait at t = 5, and a
        // second one after 1 has gone.
        q.schedule_after(Time::ZERO, 4);
        assert_eq!((q.peek_time(), q.len()), (Some(Time::from_ns(5)), 5));
        assert_eq!(q.pop(), Some(1));
        q.schedule_after(Time::ZERO, 5);
        for (left, want, ns) in [(5, 2, 5), (4, 3, 5), (3, 4, 5), (2, 5, 5), (1, 90, 9)] {
            assert_eq!((q.peek_time(), q.len()), (Some(Time::from_ns(ns)), left));
            assert_eq!(q.pop(), Some(want));
            assert_eq!(q.now(), Time::from_ns(ns));
        }
        assert_eq!((q.peek_time(), q.len()), (None, 0));
    }

    /// Independent oracle: the pending `(time, seq)` pairs in a plain
    /// vector, the next one found by linear scan.
    #[derive(Default)]
    struct Oracle {
        pending: Vec<(Time, u64)>,
        seq: u64,
    }

    impl Oracle {
        fn push(&mut self, t: Time) {
            self.pending.push((t, self.seq));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(Time, u64)> {
            let i = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
            Some(self.pending.swap_remove(i))
        }
    }

    /// Schedules the oracle's next seq as the payload, so a delivered
    /// payload must equal the seq the oracle pops beside it.
    fn schedule(q: &mut EventQueue<u64>, o: &mut Oracle, dt: Time) {
        q.schedule_after(dt, o.seq);
        o.push(q.now() + dt);
    }

    /// Pops both sides and checks they agree; false once both are empty.
    fn check_pop(q: &mut EventQueue<u64>, o: &mut Oracle) -> bool {
        let want = o.pop();
        assert_eq!(q.peek_time(), want.map(|(t, _)| t), "peek diverged");
        match (q.pop(), want) {
            (None, None) => false,
            (Some(v), Some((t, seq))) => {
                assert_eq!(v, seq, "delivery order diverged");
                assert_eq!(q.now(), t, "clock diverged");
                assert_eq!(q.len(), o.pending.len(), "length diverged");
                true
            }
            (got, want) => panic!("pop mismatch: {got:?} vs {want:?}"),
        }
    }

    // The two properties below keep the names they had when the queue
    // was a two-level calendar checked against a `BinaryHeap`; both now
    // check the queue against the linear-scan `Oracle`.

    #[test]
    fn calendar_matches_heap_reference_on_random_histories() {
        run_cases("queue::oracle", crate::check::cases(60), |g| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut o = Oracle::default();
            for _ in 0..g.usize_in(1, 400) {
                match g.usize_in(0, 11) {
                    // Bursts of same-instant events exercise FIFO ties.
                    0..=2 => {
                        let dt = Time::from_ps(g.u64_in(0, 2_000));
                        for _ in 0..g.usize_in(1, 8) {
                            schedule(&mut q, &mut o, dt);
                        }
                    }
                    // Near-future single events.
                    3..=5 => schedule(&mut q, &mut o, Time::from_ps(g.u64_in(0, 5_000_000))),
                    // Far-future events, up to 10 s out.
                    6 => schedule(&mut q, &mut o, Time::from_us(g.u64_in(1, 10_000_000))),
                    // Steady-state churn: pop one, schedule one up to
                    // 100 us after the clock.
                    7 => {
                        for _ in 0..g.usize_in(1, 200) {
                            check_pop(&mut q, &mut o);
                            schedule(&mut q, &mut o, Time::from_ns(g.u64_in(0, 100_000)));
                        }
                    }
                    // Pops, including runs of them.
                    _ => {
                        for _ in 0..g.usize_in(1, 6) {
                            check_pop(&mut q, &mut o);
                        }
                    }
                }
            }
            // Drain; both must agree to the end.
            while check_pop(&mut q, &mut o) {}
            assert!(q.is_empty());
        });
    }

    #[test]
    fn calendar_handles_steady_state_churn_across_rebases() {
        run_cases("queue::steady_churn", crate::check::cases(20), |g| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut o = Oracle::default();
            // Seed a pending window, then pop one and schedule one for
            // a long run at a constant population.
            for _ in 0..32 {
                schedule(&mut q, &mut o, Time::from_ns(g.u64_in(0, 50)));
            }
            for _ in 0..2_000 {
                assert!(check_pop(&mut q, &mut o), "queue drained early");
                schedule(&mut q, &mut o, Time::from_ns(g.u64_in(0, 100_000)));
            }
            while check_pop(&mut q, &mut o) {}
            assert!(q.is_empty());
        });
    }
}
