//! Conservative discrete-event execution across partitions.
//!
//! A partitioned run splits one simulation into N logical partitions —
//! one per server of a fleet, or per PCIe subtree — each owning its own
//! event queue and advancing its own clock. Partitions interact only
//! through explicit cross-partition messages carried on deterministic
//! per-(src, dst) channels, which is exactly the structure conservative
//! ("Chandy–Misra style") synchronization exploits: if every message
//! sent at local time `t` arrives no earlier than `t + lookahead`
//! (the minimum inter-partition link latency), then every partition may
//! safely advance to `t_min + lookahead` — the *safe window* — where
//! `t_min` is the global minimum over all pending local events and
//! in-flight messages. Nothing anywhere in the system can affect a
//! partition before that horizon.
//!
//! The engine loop runs one window at a time, on the caller's thread:
//!
//! 1. compute `t_min` over every partition's next event time and every
//!    undelivered channel message (`None` everywhere → the run is done);
//! 2. deliver all messages with `time < t_min + lookahead` to their
//!    destination partitions, sorted by `(time, src, seq)`;
//! 3. advance every partition with work — an inbox, or a pending event
//!    before the horizon — up to the exclusive horizon
//!    `t_min + lookahead`, in partition order. The others are skipped:
//!    advancing them would be a no-op (the three rules on
//!    [`Partition`]);
//! 4. move each advanced partition's sends into the channels.
//!
//! Each partition's times and each channel's earliest message are
//! cached and refreshed only when they can change, so a window costs
//! a comparison per idle partition and real work only for active ones.
//!
//! ## Determinism contract
//!
//! A run is a pure function of its partitions and the lookahead:
//!
//! * the horizon is a pure function of global simulation state;
//! * each partition is internally sequential and deterministic given
//!   its inbox sequence;
//! * inboxes are sorted by `(time, src, seq)` where `seq` counts sends
//!   per source partition in send order — a total order over every
//!   message in the run.
//!
//! Any lookahead no larger than the partitions' real minimum latency
//! is valid; a smaller one only cuts the run into more windows. A
//! partition whose behaviour does not depend on where windows fall
//! gives the same results at every valid lookahead, and only
//! [`WindowStats`] moves. The fleet's property suite checks exactly
//! that of the fleet's servers and balancer (window invariance).
//!
//! The engine *verifies* the lookahead promise after every advance: a
//! message timestamped before the window horizon is a causality
//! violation and panics rather than silently corrupting the run.

use crate::time::Time;

/// Does nothing: the window loop always runs serially on the caller's
/// thread. Kept only because the benchmark package (`perfbench/`)
/// still calls it.
pub fn set_partitions(_n: usize) {}

/// One cross-partition message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XMsg<M> {
    /// Arrival time at the destination partition.
    pub time: Time,
    /// Source partition index.
    pub src: usize,
    /// Per-source send sequence number; with `time` and `src` this
    /// totally orders every message in the run.
    pub seq: u64,
    /// The payload.
    pub payload: M,
}

/// Per-partition send buffer. Sequence numbers are assigned in send
/// order per source partition, so the `(time, src, seq)` delivery
/// order is a pure function of each partition's deterministic
/// execution, never of scheduling.
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    next_seq: u64,
    msgs: Vec<(usize, XMsg<M>)>,
}

impl<M> Outbox<M> {
    fn new(src: usize) -> Outbox<M> {
        Outbox {
            src,
            next_seq: 0,
            msgs: Vec::new(),
        }
    }

    /// Queues `payload` for partition `dst`, arriving at absolute time
    /// `at`. The engine checks `at` against the window horizon after
    /// the advance — senders must respect the lookahead promise.
    pub fn send(&mut self, dst: usize, at: Time, payload: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.msgs.push((
            dst,
            XMsg {
                time: at,
                src: self.src,
                seq,
                payload,
            },
        ));
    }
}

/// One logical partition of a conservative run: a sequential
/// deterministic simulation that can advance to a horizon and exchange
/// timestamped messages with its peers.
///
/// The window loop advances only the partitions that have work in a
/// window, so every implementation keeps three rules:
///
/// 1. [`next_time`](Partition::next_time) drives `t_min`, and so every
///    window's horizon. It may leave out bookkeeping events (a
///    scheduled crash, a link restore) that must not keep the run
///    alive on their own.
/// 2. [`earliest_pending`](Partition::earliest_pending) must include
///    them: it is the earliest local event of any kind. The loop skips
///    a partition with an empty inbox when this is not before the
///    horizon, so an event it leaves out would not run in the window
///    whose horizon passes it.
/// 3. [`advance`](Partition::advance) with an empty inbox and nothing
///    pending before the horizon is a no-op: it changes no state and
///    sends nothing, so skipping the call cannot be observed.
///
/// The loop caches both times and refreshes them only after the
/// partition advances; nothing else may change them.
pub trait Partition {
    /// Cross-partition message payload.
    type Msg;

    /// Timestamp of this partition's next pending local event, or
    /// `None` when it is quiescent (it may still be woken by an
    /// inbound message). May leave out bookkeeping events (rule 1).
    fn next_time(&self) -> Option<Time>;

    /// Timestamp of the earliest pending local event of any kind,
    /// bookkeeping included (rule 2). Defaults to
    /// [`next_time`](Partition::next_time), which is right for every
    /// partition that hides nothing from it.
    fn earliest_pending(&self) -> Option<Time> {
        self.next_time()
    }

    /// Advances local simulation strictly below `horizon`. `inbox`
    /// holds every message addressed here with `time < horizon`,
    /// sorted by `(time, src, seq)`; implementations drain it and must
    /// interleave the messages with local events in timestamp order
    /// (scheduling them into the local event queue before popping does
    /// exactly that). Messages to peers go through `out`; each must be
    /// timestamped at or after `horizon` — local now plus at least the
    /// lookahead. With an empty inbox and no event before `horizon`
    /// the call must be a no-op (rule 3).
    fn advance(
        &mut self,
        horizon: Time,
        inbox: &mut Vec<XMsg<Self::Msg>>,
        out: &mut Outbox<Self::Msg>,
    );
}

/// Counters from one conservative run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Safe windows executed.
    pub windows: u64,
    /// Cross-partition messages delivered.
    pub messages: u64,
    /// Largest single-window inbox seen by any partition.
    pub max_inbox: usize,
}

/// Runs `parts` to quiescence under conservative synchronization with
/// the given `lookahead`. Each window advances only the partitions with
/// an inbox or a pending event before its horizon (see [`Partition`]).
///
/// # Panics
///
/// Panics if `lookahead` is zero (windows could not advance), or if a
/// partition violates the lookahead promise by sending a message
/// timestamped before the window horizon. A panic inside a
/// partition's `advance` propagates with its own payload.
pub fn run_conservative<P: Partition>(parts: &mut [P], lookahead: Time) -> WindowStats {
    assert!(
        !lookahead.is_zero(),
        "conservative execution needs a positive lookahead"
    );
    let n = parts.len();
    if n == 0 {
        return WindowStats::default();
    }
    let mut w = Windows::new(parts, lookahead);
    let mut outboxes: Vec<Outbox<P::Msg>> = (0..n).map(Outbox::new).collect();
    let mut inbox = Vec::new();
    while let Some(horizon) = w.horizon() {
        for (i, p) in parts.iter_mut().enumerate() {
            if !w.is_active(i, horizon) {
                continue;
            }
            w.deliver(i, horizon, &mut inbox);
            p.advance(horizon, &mut inbox, &mut outboxes[i]);
            inbox.clear();
            w.advanced(i, times(p), &mut outboxes[i], horizon);
        }
        w.stats.windows += 1;
    }
    w.stats
}

/// A partition's `(next_time, earliest_pending)`.
type Times = (Option<Time>, Option<Time>);

fn times<P: Partition>(p: &P) -> Times {
    (p.next_time(), p.earliest_pending())
}

/// The window loop's view of the run: the channels and each
/// partition's cached times. A partition's times change only when it
/// advances, so they are refreshed only then, and a window costs one
/// comparison per idle partition.
struct Windows<M> {
    lookahead: Time,
    /// Undelivered messages per destination partition.
    chan: Vec<Channel<M>>,
    /// Cached [`Partition::next_time`] per partition (drives `t_min`).
    next: Vec<Option<Time>>,
    /// Cached [`Partition::earliest_pending`] per partition (drives
    /// the skip test).
    pending: Vec<Option<Time>>,
    stats: WindowStats,
}

impl<M> Windows<M> {
    fn new<P: Partition<Msg = M>>(parts: &[P], lookahead: Time) -> Windows<M> {
        Windows {
            lookahead,
            chan: parts.iter().map(|_| Channel::default()).collect(),
            next: parts.iter().map(P::next_time).collect(),
            pending: parts.iter().map(P::earliest_pending).collect(),
            stats: WindowStats::default(),
        }
    }

    /// The next window's exclusive horizon, `t_min + lookahead` over
    /// every partition's next event and every undelivered message;
    /// `None` when nothing is pending anywhere (the run is done).
    fn horizon(&self) -> Option<Time> {
        let local = self.next.iter().flatten();
        let msgs = self.chan.iter().filter_map(|c| c.earliest.as_ref());
        let t_min = local.chain(msgs).min()?;
        Some(safe_horizon(*t_min, self.lookahead))
    }

    /// Whether partition `i` has an inbox or a pending event before
    /// `horizon`. An inactive partition's advance would be a no-op.
    fn is_active(&self, i: usize, horizon: Time) -> bool {
        self.chan[i].due(horizon) || self.pending[i].is_some_and(|t| t < horizon)
    }

    /// Fills `inbox` with partition `i`'s messages for this window.
    fn deliver(&mut self, i: usize, horizon: Time, inbox: &mut Vec<XMsg<M>>) {
        self.chan[i].take_before(horizon, inbox);
        self.stats.messages += inbox.len() as u64;
        self.stats.max_inbox = self.stats.max_inbox.max(inbox.len());
    }

    /// Records partition `i`'s times after it advanced to `horizon`,
    /// and moves its sends into the channels.
    fn advanced(&mut self, i: usize, times: Times, out: &mut Outbox<M>, horizon: Time) {
        (self.next[i], self.pending[i]) = times;
        collect_outbox(out, horizon, &mut self.chan);
    }
}

/// Undelivered messages for one destination partition, with the
/// earliest one's time cached.
struct Channel<M> {
    msgs: Vec<XMsg<M>>,
    earliest: Option<Time>,
}

impl<M> Default for Channel<M> {
    fn default() -> Channel<M> {
        Channel {
            msgs: Vec::new(),
            earliest: None,
        }
    }
}

impl<M> Channel<M> {
    fn push(&mut self, msg: XMsg<M>) {
        self.earliest = Some(self.earliest.map_or(msg.time, |t| t.min(msg.time)));
        self.msgs.push(msg);
    }

    /// Whether a message is due before `horizon`.
    fn due(&self, horizon: Time) -> bool {
        self.earliest.is_some_and(|t| t < horizon)
    }

    /// Moves every message with `time < horizon` into `inbox`, sorted
    /// by `(time, src, seq)` — the channel determinism rule.
    fn take_before(&mut self, horizon: Time, inbox: &mut Vec<XMsg<M>>) {
        if !self.due(horizon) {
            return;
        }
        let mut earliest = None::<Time>;
        let mut i = 0;
        while i < self.msgs.len() {
            if self.msgs[i].time < horizon {
                inbox.push(self.msgs.swap_remove(i));
            } else {
                let t = self.msgs[i].time;
                earliest = Some(earliest.map_or(t, |e| e.min(t)));
                i += 1;
            }
        }
        self.earliest = earliest;
        // `(src, seq)` is unique per message, so the key is a total
        // order and an unstable sort gives the one deterministic order.
        inbox.sort_unstable_by_key(|m| (m.time, m.src, m.seq));
    }
}

/// The exclusive window horizon: `t_min + lookahead`, saturating at
/// the top of the clock.
fn safe_horizon(t_min: Time, lookahead: Time) -> Time {
    t_min.checked_add(lookahead).unwrap_or(Time::MAX)
}

/// Moves one advance's sends into the channels, enforcing the
/// lookahead promise.
fn collect_outbox<M>(ob: &mut Outbox<M>, horizon: Time, chan: &mut [Channel<M>]) {
    for (dst, msg) in ob.msgs.drain(..) {
        assert!(
            msg.time >= horizon,
            "lookahead violation: partition {} sent a message for t={:?} \
             inside the safe window ending at {:?}",
            msg.src,
            msg.time,
            horizon,
        );
        chan[dst].push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_cases;
    use crate::queue::EventQueue;

    /// A partition that relays a token around a ring: on receiving
    /// value `v` it waits a deterministic local delay, then forwards
    /// `v + 1` to the next partition with `LAT` link latency, until the
    /// token value reaches a bound. Each hop also logs `(time, value)`.
    struct Ring {
        id: usize,
        n: usize,
        q: EventQueue<u64>,
        log: Vec<(Time, u64)>,
        bound: u64,
        lat: Time,
    }

    impl Ring {
        fn new(id: usize, n: usize, bound: u64, lat: Time) -> Ring {
            let mut q = EventQueue::new();
            if id == 0 {
                q.schedule_at(Time::from_ns(1), 0);
            }
            Ring {
                id,
                n,
                q,
                log: Vec::new(),
                bound,
                lat,
            }
        }
    }

    impl Partition for Ring {
        type Msg = u64;

        fn next_time(&self) -> Option<Time> {
            self.q.peek_time()
        }

        fn advance(&mut self, horizon: Time, inbox: &mut Vec<XMsg<u64>>, out: &mut Outbox<u64>) {
            for m in inbox.drain(..) {
                self.q.schedule_at(m.time, m.payload);
            }
            while self.q.peek_time().is_some_and(|t| t < horizon) {
                let v = self.q.pop().expect("peeked");
                self.log.push((self.q.now(), v));
                if v < self.bound {
                    out.send((self.id + 1) % self.n, self.q.now() + self.lat, v + 1);
                }
            }
        }
    }

    /// The window loop without skipping: every partition advances in
    /// every window, with or without work. It is the reference the
    /// active-set loop must match, window for window.
    fn run_dense<P: Partition>(parts: &mut [P], lookahead: Time) -> WindowStats {
        let n = parts.len();
        let mut stats = WindowStats::default();
        let mut chan: Vec<Vec<XMsg<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let mut outboxes: Vec<Outbox<P::Msg>> = (0..n).map(Outbox::new).collect();
        loop {
            let local = parts.iter().filter_map(P::next_time);
            let msgs = chan.iter().flatten().map(|m| m.time);
            let Some(t_min) = local.chain(msgs).min() else {
                return stats;
            };
            let horizon = safe_horizon(t_min, lookahead);
            for (i, p) in parts.iter_mut().enumerate() {
                let (mut inbox, later): (Vec<_>, Vec<_>) = std::mem::take(&mut chan[i])
                    .into_iter()
                    .partition(|m| m.time < horizon);
                chan[i] = later;
                inbox.sort_by_key(|m| (m.time, m.src, m.seq));
                stats.messages += inbox.len() as u64;
                stats.max_inbox = stats.max_inbox.max(inbox.len());
                p.advance(horizon, &mut inbox, &mut outboxes[i]);
            }
            for ob in &mut outboxes {
                for (dst, msg) in ob.msgs.drain(..) {
                    chan[dst].push(msg);
                }
            }
            stats.windows += 1;
        }
    }

    type RingRun = (Vec<Vec<(Time, u64)>>, WindowStats);

    /// Runs an `n`-partition ring on the active-set loop, or on the
    /// dense reference loop when `dense` is set.
    fn run_ring(n: usize, bound: u64, dense: bool) -> RingRun {
        let lat = Time::from_us(3);
        let mut parts: Vec<Ring> = (0..n).map(|i| Ring::new(i, n, bound, lat)).collect();
        let stats = if dense {
            run_dense(&mut parts, lat)
        } else {
            run_conservative(&mut parts, lat)
        };
        (parts.into_iter().map(|p| p.log).collect(), stats)
    }

    #[test]
    fn ring_token_visits_every_partition_in_order() {
        let (logs, stats) = run_ring(4, 10, false);
        // Token 0..=10: partition i sees values i, i+4, ...
        assert_eq!(
            logs[0].iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        assert_eq!(
            logs[1].iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert_eq!(
            logs[2].iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![2, 6, 10]
        );
        assert!(stats.windows >= 10, "one window per hop at minimum");
        assert_eq!(stats.messages, 10);
    }

    #[test]
    fn empty_partition_set_terminates() {
        let mut parts: Vec<Ring> = Vec::new();
        let stats = run_conservative(&mut parts, Time::from_ns(1));
        assert_eq!(stats, WindowStats::default());
    }

    #[test]
    fn quiescent_partitions_terminate_immediately() {
        let mut parts: Vec<Ring> = (1..3)
            .map(|i| Ring::new(i, 4, 0, Time::from_us(1)))
            .collect();
        // No partition 0, so nothing is ever scheduled.
        let stats = run_conservative(&mut parts, Time::from_us(1));
        assert_eq!(stats.windows, 0);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut parts = vec![Ring::new(0, 1, 1, Time::from_us(1))];
        run_conservative(&mut parts, Time::ZERO);
    }

    /// A partition that (incorrectly) sends with less latency than the
    /// lookahead it promised.
    struct Cheater {
        fired: bool,
    }

    impl Partition for Cheater {
        type Msg = ();

        fn next_time(&self) -> Option<Time> {
            (!self.fired).then(|| Time::from_ns(5))
        }

        fn advance(&mut self, _horizon: Time, _inbox: &mut Vec<XMsg<()>>, out: &mut Outbox<()>) {
            self.fired = true;
            out.send(0, Time::from_ns(6), ()); // horizon is 5ns + 1us
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn lookahead_violations_are_caught() {
        let mut parts: Vec<Cheater> = (0..3).map(|_| Cheater { fired: false }).collect();
        run_conservative(&mut parts, Time::from_us(1));
    }

    /// A partition whose `advance` panics when it is `armed`.
    struct Bomb {
        armed: bool,
    }

    impl Partition for Bomb {
        type Msg = ();

        fn next_time(&self) -> Option<Time> {
            self.armed.then(|| Time::from_ns(5))
        }

        fn advance(&mut self, _horizon: Time, _inbox: &mut Vec<XMsg<()>>, _out: &mut Outbox<()>) {
            panic!("partition blew up");
        }
    }

    #[test]
    #[should_panic(expected = "partition blew up")]
    fn panicking_partitions_end_the_run() {
        let mut parts: Vec<Bomb> = (0..3).map(|i| Bomb { armed: i == 1 }).collect();
        run_conservative(&mut parts, Time::from_us(1));
    }

    #[test]
    fn inbox_sorted_by_time_src_seq() {
        let mut pending = vec![
            XMsg {
                time: Time::from_ns(10),
                src: 2,
                seq: 0,
                payload: 'c',
            },
            XMsg {
                time: Time::from_ns(5),
                src: 3,
                seq: 1,
                payload: 'b',
            },
            XMsg {
                time: Time::from_ns(5),
                src: 1,
                seq: 7,
                payload: 'a',
            },
            XMsg {
                time: Time::from_ns(5),
                src: 1,
                seq: 9,
                payload: 'd',
            },
            XMsg {
                time: Time::from_ns(50),
                src: 0,
                seq: 0,
                payload: 'z',
            },
        ];
        let mut chan = Channel::default();
        for m in pending.drain(..) {
            chan.push(m);
        }
        assert_eq!(chan.earliest, Some(Time::from_ns(5)));
        let mut inbox = Vec::new();
        chan.take_before(Time::from_ns(20), &mut inbox);
        let order: Vec<char> = inbox.iter().map(|m| m.payload).collect();
        assert_eq!(order, vec!['a', 'd', 'b', 'c']);
        assert_eq!(chan.msgs.len(), 1, "future messages stay queued");
        assert_eq!(chan.msgs[0].payload, 'z');
        assert_eq!(chan.earliest, Some(Time::from_ns(50)));
        // Nothing due: the channel is untouched and the inbox stays empty.
        inbox.clear();
        chan.take_before(Time::from_ns(50), &mut inbox);
        assert!(inbox.is_empty());
        assert_eq!(chan.earliest, Some(Time::from_ns(50)));
    }

    #[test]
    fn outbox_sequences_in_send_order() {
        let mut ob: Outbox<u32> = Outbox::new(3);
        ob.send(0, Time::from_ns(100), 11);
        ob.send(1, Time::from_ns(100), 22);
        assert_eq!(ob.msgs.len(), 2);
        let mut chan: Vec<Channel<u32>> = vec![Channel::default(), Channel::default()];
        collect_outbox(&mut ob, Time::from_ns(100), &mut chan);
        assert!(ob.msgs.is_empty());
        assert_eq!(chan[0].msgs[0].seq, 0);
        assert_eq!(chan[1].msgs[0].seq, 1);
        assert_eq!(chan[1].msgs[0].src, 3);
        // Sequence numbers keep counting across windows.
        ob.send(0, Time::from_ns(200), 33);
        collect_outbox(&mut ob, Time::from_ns(150), &mut chan);
        assert_eq!(chan[0].msgs[1].seq, 2);
        assert_eq!(chan[0].earliest, Some(Time::from_ns(100)));
    }

    #[test]
    fn ring_property_vs_serial_reference() {
        // Logs and every `WindowStats` field, which fleet digests render.
        run_cases("partition::ring_vs_serial", crate::check::cases(30), |g| {
            let n = g.usize_in(2, 6);
            let bound = g.u64_in(1, 60);
            assert_eq!(
                run_ring(n, bound, false),
                run_ring(n, bound, true),
                "n={n} bound={bound}"
            );
        });
    }

    /// Wraps a partition and fails the run if the loop ever advances
    /// it with an empty inbox and nothing pending before the horizon.
    struct Counting<P> {
        inner: P,
        advances: u64,
    }

    impl<P: Partition> Partition for Counting<P> {
        type Msg = P::Msg;

        fn next_time(&self) -> Option<Time> {
            self.inner.next_time()
        }

        fn earliest_pending(&self) -> Option<Time> {
            self.inner.earliest_pending()
        }

        fn advance(
            &mut self,
            horizon: Time,
            inbox: &mut Vec<XMsg<P::Msg>>,
            out: &mut Outbox<P::Msg>,
        ) {
            let due = self.inner.earliest_pending().is_some_and(|t| t < horizon);
            assert!(!inbox.is_empty() || due, "idle partition advanced");
            self.advances += 1;
            self.inner.advance(horizon, inbox, out);
        }
    }

    #[test]
    fn idle_partitions_are_never_advanced() {
        let lat = Time::from_us(3);
        for n in [2, 4, 8] {
            let mut parts: Vec<Counting<Ring>> = (0..n)
                .map(|i| Counting {
                    inner: Ring::new(i, n, 50, lat),
                    advances: 0,
                })
                .collect();
            let stats = run_conservative(&mut parts, lat);
            // One token: exactly one partition has work per window.
            let advances: u64 = parts.iter().map(|p| p.advances).sum();
            assert_eq!(advances, stats.windows, "n={n}");
            let logs: Vec<_> = parts.into_iter().map(|p| p.inner.log).collect();
            assert_eq!((logs, stats), run_ring(n, 50, true), "n={n}");
        }
        let mut hosts: Vec<Counting<Host>> = Host::script(true)
            .into_iter()
            .map(|inner| Counting { inner, advances: 0 })
            .collect();
        run_conservative(&mut hosts, Host::LAT);
        assert_eq!(hosts[1].inner.chores, 1);
    }

    /// A client (partition 0) and servers shaped like a fleet's. The
    /// client sends scripted jobs; a server answers each after the link
    /// latency with `10 * job + chores`. A server's queue also holds a
    /// bookkeeping chore, and like `Stepped`, its `next_time()` hides
    /// the queue while no job is outstanding, so a chore never keeps
    /// the run alive. An `honest` server reports the chore from
    /// `earliest_pending()`; the others leave the default.
    struct Host {
        id: usize,
        q: EventQueue<Job>,
        outstanding: u32,
        honest: bool,
        chores: u32,
        /// `(window horizon, event time, event)` per event run.
        log: Vec<(Time, Time, Job)>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Job {
        Send { to: usize, job: u64 },
        Run(u64),
        Reply(u64),
        Chore,
    }

    impl Host {
        const LAT: Time = Time::from_us(3);

        /// Jobs to server 1 at 1 µs and to server 2 at 28 µs; server 1
        /// has a chore at 30 µs, when it is idle, and server 2 one at
        /// 1 s, past the end of the run.
        fn script(honest: bool) -> Vec<Host> {
            let events: [&[(Time, Job)]; 3] = [
                &[
                    (Time::from_us(1), Job::Send { to: 1, job: 1 }),
                    (Time::from_us(28), Job::Send { to: 2, job: 2 }),
                ],
                &[(Time::from_us(30), Job::Chore)],
                &[(Time::from_secs(1), Job::Chore)],
            ];
            events
                .iter()
                .enumerate()
                .map(|(id, evs)| {
                    let mut q = EventQueue::new();
                    for &(t, ev) in *evs {
                        q.schedule_at(t, ev);
                    }
                    Host {
                        id,
                        q,
                        outstanding: 0,
                        honest,
                        chores: 0,
                        log: Vec::new(),
                    }
                })
                .collect()
        }
    }

    impl Partition for Host {
        type Msg = u64;

        fn next_time(&self) -> Option<Time> {
            if self.id == 0 || self.outstanding > 0 {
                self.q.peek_time()
            } else {
                None
            }
        }

        fn earliest_pending(&self) -> Option<Time> {
            if self.honest {
                self.q.peek_time()
            } else {
                self.next_time()
            }
        }

        fn advance(&mut self, horizon: Time, inbox: &mut Vec<XMsg<u64>>, out: &mut Outbox<u64>) {
            for m in inbox.drain(..) {
                let ev = if self.id == 0 {
                    Job::Reply(m.payload)
                } else {
                    self.outstanding += 1;
                    Job::Run(m.payload)
                };
                self.q.schedule_at(m.time, ev);
            }
            while self.q.peek_time().is_some_and(|t| t < horizon) {
                let ev = self.q.pop().expect("peeked");
                let now = self.q.now();
                self.log.push((horizon, now, ev));
                match ev {
                    Job::Send { to, job } => out.send(to, now + Host::LAT, job),
                    Job::Run(job) => {
                        self.outstanding -= 1;
                        out.send(0, now + Host::LAT, 10 * job + u64::from(self.chores));
                    }
                    Job::Reply(_) => {}
                    Job::Chore => self.chores += 1,
                }
            }
        }
    }

    #[test]
    fn bookkeeping_hidden_from_next_time_still_runs_in_its_window() {
        let mut dense = Host::script(true);
        let dense_stats = run_dense(&mut dense, Host::LAT);
        // The dense loop advances idle server 1 in the window the
        // client's 28 µs send opens (horizon 31 µs), so its 30 µs chore
        // runs there; server 2's 1 s chore never runs.
        assert!(dense[1]
            .log
            .contains(&(Time::from_us(31), Time::from_us(30), Job::Chore)));
        assert_eq!((dense[1].chores, dense[2].chores), (1, 0));
        let replies: Vec<Job> = dense[0].log.iter().map(|e| e.2).collect();
        assert!(replies.contains(&Job::Reply(10)) && replies.contains(&Job::Reply(20)));
        let mut hosts = Host::script(true);
        assert_eq!(run_conservative(&mut hosts, Host::LAT), dense_stats);
        for (h, d) in hosts.iter().zip(&dense) {
            assert_eq!(h.log, d.log, "partition {}", h.id);
        }
        // Skipping on `next_time()` alone loses the chore, as it would
        // a fleet server's scheduled crash.
        let mut hiding = Host::script(false);
        run_conservative(&mut hiding, Host::LAT);
        assert_eq!(hiding[1].chores, 0);
    }
}
