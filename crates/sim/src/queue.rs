//! Time-ordered event queue with FIFO tie-breaking.
//!
//! The queue is a two-level calendar: level 0 is a bucket array over a
//! sliding time window (each bucket a small vec kept sorted so the next
//! event pops from its back), level 1 is an unsorted overflow holding
//! everything at or beyond the window. Inserts and pops are O(1)
//! amortized; when the window drains, [`rebase`](EventQueue) picks a new
//! bucket width and count from the overflow population and refills. In
//! debug builds a shadow binary heap — the original implementation —
//! is popped in lockstep and every delivery is cross-checked against it.

use crate::time::Time;
use std::cmp::Ordering;
#[cfg(debug_assertions)]
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-global count of delivered events, accumulated as queues are
/// dropped (one atomic add per queue lifetime, nothing on the hot
/// path). The `repro bench` harness samples this for events/sec.
static DELIVERED: AtomicU64 = AtomicU64::new(0);

/// Total events delivered by all [`EventQueue`]s *dropped so far*,
/// process-wide. Live queues contribute only once they drop, so sample
/// this before and after a complete run.
pub fn events_delivered() -> u64 {
    DELIVERED.load(AtomicOrdering::Relaxed)
}

/// Process-global nanoseconds spent in simulation *setup* (system
/// construction before the event loop starts), accumulated by
/// [`record_setup_nanos`]. The `repro bench` harness samples this
/// around each timed experiment so events/sec can be computed over the
/// event-loop window alone.
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

/// Process-global nanoseconds spent in cold DRX cost measurement:
/// `Edge::drx_cost` compiling and executing an edge's ops on a cache
/// miss, accumulated by [`record_cost_model_nanos`]. It runs lazily
/// inside event loops and sweeps, not in system construction, so it
/// is kept apart from [`setup_nanos`]; the `repro bench` harness
/// subtracts both from the event-loop window.
static COST_MODEL_NANOS: AtomicU64 = AtomicU64::new(0);

/// Total nanoseconds recorded as cold cost measurement so far,
/// process-wide. Sample before and after a run and subtract.
pub fn cost_model_nanos() -> u64 {
    COST_MODEL_NANOS.load(AtomicOrdering::Relaxed)
}

/// Adds `nanos` to the process-global cost-measurement counter (one
/// add per cache miss).
pub fn record_cost_model_nanos(nanos: u64) {
    COST_MODEL_NANOS.fetch_add(nanos, AtomicOrdering::Relaxed);
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

/// An ordering key; the payload lives in the slab, so calendar and heap
/// operations move 24 bytes regardless of payload size.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // Reverse ordering: earliest (time, seq) compares greatest. The
    // debug shadow heap is a max-heap, and a bucket vec sorted
    // ascending by this ordering holds its earliest event at the back,
    // where it pops without shifting the rest.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fewest buckets the calendar window will use.
const MIN_BUCKETS: usize = 16;
/// Most buckets the calendar window will use; bounds rebase cost and
/// empty-bucket scans for any pending population.
const MAX_BUCKETS: usize = 4096;

/// The core of a discrete-event simulation: a clock plus a priority queue
/// of future events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, which keeps simulations deterministic.
///
/// Payloads are stored in a slab whose slots are recycled as events are
/// delivered, so a steady-state simulation reuses the same allocations
/// for its entire run; the two-level calendar orders small fixed-size
/// keys in O(1) amortized time per operation.
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
    /// Level 0: buckets over `[base, window_end)`, each sorted ascending
    /// by the reversed `Entry` ordering (earliest event at the back).
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set while the bucket is non-empty.
    occupied: Vec<u64>,
    /// Window start in ps, aligned down to the bucket width.
    base: u64,
    /// log2 of the bucket width in ps.
    width_shift: u32,
    /// Exclusive end of the window in ps (may exceed `u64::MAX`).
    window_end: u128,
    /// All buckets below this index are empty.
    cur: usize,
    /// Level 1: unsorted events at or beyond `window_end`.
    overflow: Vec<Entry>,
    /// Minimum timestamp present in `overflow` (`u64::MAX` when empty).
    /// Exact: overflow only grows between rebases, and every rebase
    /// recomputes it.
    overflow_min: u64,
    /// Total events pending across both levels.
    pending: usize,
    /// Payload storage; `None` slots are free and listed in `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    now: Time,
    seq: u64,
    popped: u64,
    /// No-progress watchdog: abort after this many consecutive
    /// deliveries at one instant. 0 = disabled.
    stall_limit: u64,
    stall_streak: u64,
    /// Reference implementation, popped in lockstep with the calendar;
    /// any divergence in delivery order is a bug in the calendar.
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<Entry>,
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
            .field("pending", &self.pending)
            .field("processed", &self.popped)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`]. The
    /// no-progress watchdog starts at the process-global default set by
    /// [`set_default_stall_limit`] (disabled unless a harness armed it).
    pub fn new() -> Self {
        // 16 one-microsecond buckets to start; the first rebase adapts
        // both knobs to the actual event population.
        let width_shift = 20;
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0; MIN_BUCKETS.div_ceil(64)],
            base: 0,
            width_shift,
            window_end: (MIN_BUCKETS as u128) << width_shift,
            cur: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            pending: 0,
            slab: Vec::new(),
            free: Vec::new(),
            now: Time::ZERO,
            seq: 0,
            popped: 0,
            stall_limit: DEFAULT_STALL_LIMIT.load(AtomicOrdering::Relaxed),
            stall_streak: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
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
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `payload` at absolute time `at`.
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
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len())
                    .expect("event queue slab overflow: more than u32::MAX events pending at once");
                self.slab.push(Some(payload));
                s
            }
        };
        self.push_entry(Entry {
            time: at,
            seq,
            slot,
        });
    }

    /// Schedules `payload` at `self.now() + delay`.
    pub fn schedule_after(&mut self, delay: Time, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if self.pending == 0 {
            return None;
        }
        if let Some(idx) = self.next_occupied() {
            let b = &self.buckets[idx];
            return Some(b[b.len() - 1].time);
        }
        Some(Time::from_ps(self.overflow_min))
    }

    /// Inserts an ordering key into the calendar.
    fn push_entry(&mut self, e: Entry) {
        #[cfg(debug_assertions)]
        self.shadow.push(e);
        let t = e.time.as_ps();
        if (t as u128) < self.window_end {
            // Inserts never predate `base`: `schedule_at` rejects the
            // past, pops keep `now` at or above the window start.
            debug_assert!(t >= self.base);
            let idx = ((t - self.base) >> self.width_shift) as usize;
            let b = &mut self.buckets[idx];
            let pos = b.binary_search(&e).unwrap_err();
            b.insert(pos, e);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            // The cursor may already have passed this (then-empty)
            // bucket; pull it back so the event is not skipped.
            if idx < self.cur {
                self.cur = idx;
            }
        } else {
            self.overflow.push(e);
            if t < self.overflow_min {
                self.overflow_min = t;
            }
        }
        self.pending += 1;
    }

    /// Removes the earliest (time, seq) key.
    fn pop_entry(&mut self) -> Option<Entry> {
        if self.pending == 0 {
            return None;
        }
        loop {
            if let Some(idx) = self.next_occupied() {
                self.cur = idx;
                let b = &mut self.buckets[idx];
                let e = b.pop().expect("occupied bit set on an empty bucket");
                if b.is_empty() {
                    self.occupied[idx >> 6] &= !(1 << (idx & 63));
                }
                self.pending -= 1;
                #[cfg(debug_assertions)]
                {
                    let r = self
                        .shadow
                        .pop()
                        .expect("calendar has events the reference heap lacks");
                    debug_assert!(
                        r.time == e.time && r.seq == e.seq && r.slot == e.slot,
                        "calendar queue diverged from reference heap: \
                         calendar ({:?}, seq {}) vs heap ({:?}, seq {})",
                        e.time,
                        e.seq,
                        r.time,
                        r.seq,
                    );
                }
                return Some(e);
            }
            // Window drained but events remain: they are all in the
            // overflow. Slide the window forward over them.
            self.rebase();
        }
    }

    /// First non-empty bucket at or after the cursor, via the
    /// occupancy bitmap (word-at-a-time scan).
    fn next_occupied(&self) -> Option<usize> {
        let nb = self.buckets.len();
        let mut w = self.cur >> 6;
        if w >= self.occupied.len() {
            return None;
        }
        let mut bits = self.occupied[w] & (!0u64 << (self.cur & 63));
        loop {
            if bits != 0 {
                let idx = (w << 6) + bits.trailing_zeros() as usize;
                return (idx < nb).then_some(idx);
            }
            w += 1;
            if w >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[w];
        }
    }

    /// Re-anchors the window at the earliest overflow event, re-sizing
    /// the bucket array and width to the overflow population, and moves
    /// every overflow event that now fits into its bucket. Cold: runs
    /// once per drained window, cost amortized over the events moved.
    #[cold]
    fn rebase(&mut self) {
        debug_assert!(!self.overflow.is_empty(), "rebase with an empty overflow");
        let m = self.overflow.len();
        let nb = (2 * m).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if nb != self.buckets.len() {
            self.buckets.resize_with(nb, Vec::new);
            self.occupied.resize(nb.div_ceil(64), 0);
        }
        self.occupied.fill(0);
        let omin = self.overflow_min;
        let omax = self
            .overflow
            .iter()
            .map(|e| e.time.as_ps())
            .max()
            .expect("nonempty");
        // Widen buckets until the whole overflow span fits the window;
        // terminates at shift <= 61 because nb >= 16. Clustered spans
        // leave the tail in the overflow for a later rebase.
        let mut shift = 0u32;
        let mut base = omin;
        while ((omax - base) >> shift) as usize >= nb {
            shift += 1;
            base = omin & !((1u64 << shift) - 1);
        }
        self.base = base;
        self.width_shift = shift;
        self.window_end = base as u128 + ((nb as u128) << shift);
        let mut remaining_min = u64::MAX;
        let mut min_idx = nb - 1;
        let mut i = 0;
        while i < self.overflow.len() {
            let t = self.overflow[i].time.as_ps();
            if (t as u128) < self.window_end {
                let e = self.overflow.swap_remove(i);
                let idx = ((t - base) >> shift) as usize;
                self.buckets[idx].push(e);
                self.occupied[idx >> 6] |= 1 << (idx & 63);
                min_idx = min_idx.min(idx);
            } else {
                remaining_min = remaining_min.min(t);
                i += 1;
            }
        }
        self.overflow_min = remaining_min;
        for idx in min_idx..nb {
            if self.buckets[idx].len() > 1 {
                self.buckets[idx].sort_unstable();
            }
        }
        self.cur = min_idx;
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
        let entry = self.pop_entry()?;
        debug_assert!(entry.time >= self.now);
        if self.stall_limit > 0 {
            if entry.time > self.now {
                self.stall_streak = 0;
            } else {
                self.stall_streak += 1;
                if self.stall_streak >= self.stall_limit {
                    self.no_progress_abort(entry);
                }
            }
        }
        self.now = entry.time;
        self.popped += 1;
        let payload = self.slab[entry.slot as usize]
            .take()
            .expect("event queue corruption: calendar entry references an already-freed slot");
        self.free.push(entry.slot);
        Some(payload)
    }

    /// Watchdog trip: render the stuck instant and the head of the
    /// pending queue (delivery order), then panic. Cold — only reached
    /// on a genuine livelock.
    #[cold]
    fn no_progress_abort(&self, tripped: Entry) -> !
    where
        E: std::fmt::Debug,
    {
        const DUMP: usize = 32;
        let mut pending: Vec<Entry> = self
            .buckets
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .copied()
            .collect();
        pending.sort_by(|a, b| a.time.cmp(&b.time).then(a.seq.cmp(&b.seq)));
        let mut dump = String::new();
        for e in std::iter::once(&tripped).chain(pending.iter()).take(DUMP) {
            dump.push_str(&format!(
                "  at {:?} seq {}: {:?}\n",
                e.time, e.seq, self.slab[e.slot as usize]
            ));
        }
        let omitted = (pending.len() + 1).saturating_sub(DUMP);
        panic!(
            "event queue made no progress: {} consecutive events delivered at {:?} \
             (stall limit {}); the simulation is livelocked. Next {} pending events \
             in delivery order ({} more omitted):\n{}",
            self.stall_streak,
            self.now,
            self.stall_limit,
            (pending.len() + 1).min(DUMP),
            omitted,
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
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Steady state: one event in flight at a time. The slab must
        // not grow beyond the peak concurrency.
        for i in 0..1000u64 {
            q.schedule_at(Time::from_ns(i), i);
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.slab.len(), 1);
        // Peak of 3 pending -> 3 slots, reused forever after.
        for i in 0..3u64 {
            q.schedule_after(Time::from_ns(i + 1), i);
        }
        while q.pop().is_some() {}
        for i in 0..100u64 {
            q.schedule_after(Time::from_ns(i + 1), i);
            if i % 2 == 0 {
                q.pop();
            }
        }
        while q.pop().is_some() {}
        assert!(q.slab.len() <= 51, "slab grew to {}", q.slab.len());
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
    fn far_future_jump_lands_in_overflow_and_back() {
        let mut q = EventQueue::new();
        // A full idle year of the initial window, then a cluster.
        q.schedule_at(Time::from_secs(100), 2);
        q.schedule_at(Time::from_secs(100), 3);
        q.schedule_at(Time::from_ns(1), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.pop(), Some(1));
        // Insert at `now` after the cursor advanced past its bucket.
        q.schedule_at(Time::from_ns(1), 10);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.peek_time(), Some(Time::from_secs(100)));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None::<u64>);
    }

    /// Minimal ordered reference: a max-heap of the same reversed keys.
    struct RefQueue {
        heap: std::collections::BinaryHeap<Entry>,
        seq: u64,
    }

    impl RefQueue {
        fn new() -> Self {
            RefQueue {
                heap: std::collections::BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, t: Time) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry {
                time: t,
                seq,
                slot: 0,
            });
        }
        fn pop(&mut self) -> Option<(Time, u64)> {
            self.heap.pop().map(|e| (e.time, e.seq))
        }
    }

    #[test]
    fn calendar_matches_heap_reference_on_random_histories() {
        run_cases("queue::calendar_vs_heap", crate::check::cases(60), |g| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut r = RefQueue::new();
            let mut label = 0u64;
            let ops = g.usize_in(1, 400);
            for _ in 0..ops {
                match g.usize_in(0, 10) {
                    // Bursts of same-instant events exercise FIFO ties.
                    0..=2 => {
                        let dt = Time::from_ps(g.u64_in(0, 2_000));
                        let n = g.usize_in(1, 8);
                        for _ in 0..n {
                            q.schedule_after(dt, label);
                            r.push(q.now() + dt);
                            label += 1;
                        }
                    }
                    // Near-future single events.
                    3..=5 => {
                        let dt = Time::from_ps(g.u64_in(0, 5_000_000));
                        q.schedule_after(dt, label);
                        r.push(q.now() + dt);
                        label += 1;
                    }
                    // Far-future events land in the overflow level.
                    6 => {
                        let dt = Time::from_us(g.u64_in(1, 10_000_000));
                        q.schedule_after(dt, label);
                        r.push(q.now() + dt);
                        label += 1;
                    }
                    // Pops, including runs of them.
                    _ => {
                        let n = g.usize_in(1, 6);
                        for _ in 0..n {
                            let got = q.pop();
                            let want = r.pop();
                            match (got, want) {
                                (None, None) => {}
                                (Some(v), Some((t, seq))) => {
                                    assert_eq!(v, seq, "payload order diverged");
                                    assert_eq!(q.now(), t, "clock diverged");
                                }
                                (g2, w) => panic!("pop mismatch: {g2:?} vs {w:?}"),
                            }
                        }
                    }
                }
            }
            // Drain; both must agree to the end.
            loop {
                match (q.pop(), r.pop()) {
                    (None, None) => break,
                    (Some(v), Some((t, seq))) => {
                        assert_eq!(v, seq);
                        assert_eq!(q.now(), t);
                    }
                    (g2, w) => panic!("drain mismatch: {g2:?} vs {w:?}"),
                }
            }
        });
    }

    #[test]
    fn calendar_handles_steady_state_churn_across_rebases() {
        run_cases("queue::steady_churn", crate::check::cases(20), |g| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut r = RefQueue::new();
            // Seed a pending window, then run schedule-one/pop-one for
            // long enough to cross several rebases.
            for i in 0..32 {
                let t = Time::from_ns(g.u64_in(0, 50));
                q.schedule_at(t, i);
                r.push(t);
            }
            for i in 32..2_000u64 {
                let (v, (t, seq)) = (q.pop().unwrap(), r.pop().unwrap());
                assert_eq!(v, seq);
                assert_eq!(q.now(), t);
                let dt = Time::from_ns(g.u64_in(0, 100_000));
                q.schedule_after(dt, i);
                r.push(q.now() + dt);
            }
            while let Some(v) = q.pop() {
                assert_eq!(v, r.pop().unwrap().1);
            }
            assert!(r.pop().is_none());
        });
    }
}
