//! Fluid-flow model of concurrent DMA transfers with max-min fair
//! bandwidth sharing.
//!
//! PCIe switches arbitrate at TLP granularity, so concurrent transfers
//! crossing a link share its bandwidth almost perfectly fairly. Instead
//! of simulating per-packet events, [`FlowNet`] models each transfer as
//! a fluid flow over its route and computes the classic *max-min fair*
//! allocation; events are only needed when a flow starts or finishes.
//! This is exact for fair arbitration and keeps event counts tiny, and
//! it is where the paper's headline contention effects (the shared x8
//! upstream link saturating in the Multi-Axl baseline, Sec. VII.A)
//! come from.

use crate::topology::{FabricError, LinkId};
use dmx_sim::Time;
use std::cell::RefCell;

/// Identifier a caller assigns to a flow.
pub type FlowId = u64;

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    remaining: f64, // bytes
    links: Vec<usize>,
}

/// Reusable solver state: the memoized max-min rates plus the scratch
/// buffers `solve_rates_into` works in. Keeping them together means a
/// steady-state advance/next_event cycle allocates nothing — buffers
/// are cleared and refilled in place on each re-solve.
#[derive(Debug, Clone, Default)]
struct RateScratch {
    /// Whether `rates` reflects the current flow set and bandwidths.
    valid: bool,
    rates: Vec<f64>,
    frozen: Vec<bool>,
    cap: Vec<f64>,
    counts: Vec<u32>,
    /// Flow indices crossing each link, rebuilt per solve (ascending).
    link_members: Vec<Vec<u32>>,
    /// Cached per-link fair share (`cap / counts`, infinite when idle).
    shares: Vec<f64>,
    /// Links touched in the current round whose share needs a refresh.
    dirty: Vec<u32>,
    /// Links with unfrozen flows, ascending; compacted as counts hit
    /// zero so the per-round bottleneck scan touches only live links.
    active: Vec<u32>,
    /// Bitmap of the links some flow crosses, one bit per link; read
    /// word by word it lists them in ascending order without a sort.
    crossed: Vec<u64>,
}

/// Max-min fair fluid flow network over a set of capacitated links.
///
/// Driving protocol (same pattern as `dmx_sim::PsPool`):
/// mutate → [`FlowNet::advance`] → drain [`FlowNet::pop_finished`];
/// then, once per simulated instant and after its last change, ask
/// [`FlowNet::next_event`] and schedule one tick tagged with
/// [`FlowNet::generation`], ignoring stale ticks. A tick scheduled
/// before a later change in the same instant would only go stale.
///
/// ```
/// use dmx_pcie::{FlowNet, LinkId};
/// use dmx_sim::Time;
/// // One 10 GB/s link; two flows share it 50/50.
/// let link = LinkId::from_index(0);
/// let mut net = FlowNet::new(vec![10_000_000_000]);
/// net.insert(Time::ZERO, 1, 10_000_000_000, &[link]);
/// net.insert(Time::ZERO, 2, 10_000_000_000, &[link]);
/// // each runs at 5 GB/s -> both finish at 2s
/// assert_eq!(net.next_event(Time::ZERO), Some(Time::from_secs(2)));
/// ```
#[derive(Debug, Clone)]
pub struct FlowNet {
    link_bw: Vec<f64>, // current bytes per second (after degradations)
    base_bw: Vec<f64>, // nominal bytes per second
    /// Active degradation factors per link (stacked: overlapping
    /// retrains multiply).
    degradations: Vec<Vec<f64>>,
    flows: Vec<Flow>,
    /// Active flows crossing each link, maintained incrementally on
    /// insert/retire so the max-min solver never rebuilds it.
    link_flows: Vec<u32>,
    /// Memoized max-min rates plus solver scratch; valid until the flow
    /// set or a link bandwidth changes. The allocation itself depends
    /// only on which flows cross which links, not on remaining bytes,
    /// so it is constant between such changes.
    scratch: RefCell<RateScratch>,
    /// Retired flows' route vecs, recycled by `try_insert` so starting
    /// a flow in steady state does not allocate.
    links_pool: Vec<Vec<usize>>,
    last: Time,
    generation: u64,
    finished: Vec<FlowId>,
    /// Read cursor into `finished` for [`FlowNet::pop_finished`]; the
    /// buffer is recycled once drained instead of reallocated.
    finished_head: usize,
    link_bytes: Vec<f64>, // cumulative bytes crossing each link
}

impl FlowNet {
    /// Creates a network over links with the given bandwidths in
    /// bytes/second (indexed by `LinkId::index()`).
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth is zero.
    pub fn new(bandwidths: Vec<u64>) -> FlowNet {
        assert!(
            bandwidths.iter().all(|b| *b > 0),
            "links must have nonzero bandwidth"
        );
        let n = bandwidths.len();
        let bw: Vec<f64> = bandwidths.into_iter().map(|b| b as f64).collect();
        FlowNet {
            link_bw: bw.clone(),
            base_bw: bw,
            degradations: vec![Vec::new(); n],
            flows: Vec::new(),
            link_flows: vec![0; n],
            scratch: RefCell::new(RateScratch::default()),
            links_pool: Vec::new(),
            last: Time::ZERO,
            generation: 0,
            finished: Vec::new(),
            finished_head: 0,
            link_bytes: vec![0.0; n],
        }
    }

    /// Drops the memoized rates; call after any change to the flow set
    /// or link bandwidths. The scratch buffers keep their capacity.
    fn invalidate_rates(&self) {
        self.scratch.borrow_mut().valid = false;
    }

    /// Re-solves into the shared scratch if the memo is stale. After
    /// this returns, `scratch.rates` holds the current allocation.
    fn ensure_rates(&self) {
        let mut s = self.scratch.borrow_mut();
        if s.valid {
            return;
        }
        self.solve_rates_into(&mut s);
        s.valid = true;
        debug_assert_eq!(
            s.rates,
            self.solve_rates_reference(),
            "incremental max-min solver diverged from reference"
        );
    }

    /// Current generation, bumped on every state change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of flows in progress.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Cumulative bytes that have crossed each link (for energy
    /// accounting: PCIe transfer energy is per byte per link).
    pub fn link_bytes(&self) -> &[f64] {
        &self.link_bytes
    }

    /// Max-min fair rate of every active flow, in bytes/second.
    ///
    /// Water-filling: repeatedly find the most contended link, freeze
    /// the flows crossing it at its fair share, remove their bandwidth,
    /// and continue until all flows are frozen. While no link carries
    /// two flows this is each route's narrowest link, computed directly.
    ///
    /// The allocation is memoized between state changes and re-solved
    /// incrementally from the maintained per-link flow counts; debug
    /// builds cross-check the result against the from-scratch solver.
    pub fn rates(&self) -> Vec<f64> {
        self.ensure_rates();
        self.scratch.borrow().rates.clone()
    }

    /// Standalone incremental solve into a fresh scratch (tests and the
    /// debug cross-check drive this directly).
    #[cfg(test)]
    fn solve_rates(&self) -> Vec<f64> {
        let mut s = RateScratch::default();
        self.solve_rates_into(&mut s);
        s.rates
    }

    /// Closed form first: each flow's rate is its route's narrowest
    /// link. That is the max-min allocation, bit for bit, whenever no
    /// link carries two flows: the water-fill would freeze each flow at
    /// its narrowest link's share `cap / 1` and never subtract from a
    /// link another flow uses. The same pass checks the maintained
    /// per-link counts and falls through to the water-fill only when
    /// some crossed link is shared.
    ///
    /// Incremental water-fill: starts from the maintained per-link flow
    /// counts and decrements them as flows freeze, instead of rebuilding
    /// the count table from every flow on every bottleneck level. The
    /// arithmetic (order of subtractions, clamping) is identical to
    /// [`FlowNet::solve_rates_reference`], so the two agree bit-for-bit.
    /// Works entirely inside `s`'s buffers — no allocation once they
    /// have grown to the network's size.
    ///
    /// Sparse: a solve sets up cap, count, share and member state only
    /// for the links some flow crosses, so its cost follows the active
    /// flows, not the topology. The other links' entries keep stale
    /// values from earlier solves and are never read: every link the
    /// water-fill visits is on some flow's route.
    fn solve_rates_into(&self, s: &mut RateScratch) {
        s.rates.clear();
        'closed_form: {
            for f in &self.flows {
                let mut rate = f64::INFINITY;
                for &l in &f.links {
                    if self.link_flows[l] > 1 {
                        break 'closed_form;
                    }
                    rate = rate.min(self.link_bw[l]);
                }
                s.rates.push(rate);
            }
            return;
        }
        let nf = self.flows.len();
        let nl = self.link_bw.len();
        s.rates.clear();
        s.rates.resize(nf, f64::INFINITY);
        s.frozen.clear();
        s.frozen.resize(nf, false);
        let RateScratch {
            rates,
            frozen,
            cap,
            counts,
            link_members,
            shares,
            dirty,
            active,
            crossed,
            ..
        } = s;
        cap.resize(nl, 0.0);
        counts.resize(nl, 0);
        shares.resize(nl, f64::INFINITY);
        link_members.resize_with(nl, Vec::new);
        crossed.clear();
        crossed.resize(nl.div_ceil(64), 0);
        // Set up each crossed link when a route first reaches it, and
        // build the per-link flow lists in ascending flow index (freeze
        // order within a round is the reference's iteration order; the
        // float result is order-independent within a round anyway,
        // since every freeze subtracts the same share). The cached fair
        // share per link is recomputed only for links whose cap/count
        // changed last round; the shares a round observes are exactly
        // `cap[l] / counts[l]` with the same operands as the reference,
        // so the bottleneck choice and rates match bit-for-bit.
        for (fi, f) in self.flows.iter().enumerate() {
            for &l in &f.links {
                let bit = 1 << (l % 64);
                if crossed[l / 64] & bit == 0 {
                    crossed[l / 64] |= bit;
                    cap[l] = self.link_bw[l];
                    counts[l] = self.link_flows[l];
                    shares[l] = cap[l] / counts[l] as f64;
                    link_members[l].clear();
                }
                link_members[l].push(fi as u32);
            }
        }
        // The crossed links in ascending order, the order the
        // reference's full scan visits them, so the bottleneck
        // tie-break (lowest index) matches.
        active.clear();
        for (word, &bits) in crossed.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                active.push((word * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        dirty.clear();
        let mut remaining = nf;
        while remaining > 0 {
            // Most contended link among the unfrozen flows: lowest index
            // wins ties, as in the reference's forward scan. The active
            // list is compacted in the same pass — it stays ascending,
            // so the tie-break matches the reference's full scan.
            let mut bottleneck: Option<(usize, f64)> = None;
            let mut w = 0;
            for r in 0..active.len() {
                let l = active[r] as usize;
                if counts[l] > 0 {
                    active[w] = active[r];
                    w += 1;
                    let share = shares[l];
                    if bottleneck.is_none_or(|(_, s)| share < s) {
                        bottleneck = Some((l, share));
                    }
                }
            }
            active.truncate(w);
            let Some((bl, share)) = bottleneck else {
                // Remaining flows cross no links at all; they are not
                // allowed by `insert`, so this cannot happen.
                unreachable!("unfrozen flow with empty route");
            };
            for &fi in &link_members[bl] {
                let fi = fi as usize;
                if !frozen[fi] {
                    frozen[fi] = true;
                    rates[fi] = share;
                    remaining -= 1;
                    for &l in &self.flows[fi].links {
                        cap[l] -= share;
                        counts[l] -= 1;
                        dirty.push(l as u32);
                    }
                }
            }
            // Guard against negative drift from float subtraction, and
            // refresh the cached shares of the links this round touched
            // (untouched links kept their cap, count, and share).
            for &l in dirty.iter() {
                let l = l as usize;
                if cap[l] < 0.0 {
                    cap[l] = 0.0;
                }
                shares[l] = if counts[l] > 0 {
                    cap[l] / counts[l] as f64
                } else {
                    f64::INFINITY
                };
            }
            dirty.clear();
        }
    }

    /// The original from-scratch solver, kept as the debug-build
    /// reference for the incremental one.
    fn solve_rates_reference(&self) -> Vec<f64> {
        let nf = self.flows.len();
        let mut rate = vec![f64::INFINITY; nf];
        let mut frozen = vec![false; nf];
        let mut cap = self.link_bw.clone();
        let mut remaining = nf;
        while remaining > 0 {
            // Fair share of each link among its unfrozen flows.
            let mut counts = vec![0u32; cap.len()];
            for (fi, f) in self.flows.iter().enumerate() {
                if !frozen[fi] {
                    for &l in &f.links {
                        counts[l] += 1;
                    }
                }
            }
            let mut bottleneck: Option<(usize, f64)> = None;
            for (l, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let share = cap[l] / c as f64;
                    if bottleneck.is_none_or(|(_, s)| share < s) {
                        bottleneck = Some((l, share));
                    }
                }
            }
            let Some((bl, share)) = bottleneck else {
                unreachable!("unfrozen flow with empty route");
            };
            for (fi, f) in self.flows.iter().enumerate() {
                if !frozen[fi] && f.links.contains(&bl) {
                    frozen[fi] = true;
                    rate[fi] = share;
                    remaining -= 1;
                    for &l in &f.links {
                        cap[l] -= share;
                    }
                }
            }
            for c in &mut cap {
                if *c < 0.0 {
                    *c = 0.0;
                }
            }
        }
        rate
    }

    /// Advances accounting to `now`, moving fluid at the current rates
    /// and retiring flows whose bytes are exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the previous advance.
    pub fn advance(&mut self, now: Time) {
        assert!(now >= self.last, "FlowNet advanced backwards");
        let dt = (now - self.last).as_secs_f64();
        self.last = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        // Borrow the memoized rates out of the scratch cell for the
        // duration of the fluid update (no clone), then hand the buffer
        // back. Nothing can observe the cell in between.
        self.ensure_rates();
        let rates = std::mem::take(&mut self.scratch.borrow_mut().rates);
        for (f, r) in self.flows.iter_mut().zip(&rates) {
            let moved = (r * dt).min(f.remaining);
            f.remaining -= moved;
            for &l in &f.links {
                self.link_bytes[l] += moved;
            }
        }
        self.scratch.borrow_mut().rates = rates;
        // Finished when less than one byte remains: completion events
        // are rounded up to whole picoseconds, which absorbs float error.
        // Retired ids go straight onto `finished` (same FIFO order as
        // the retain visit) and their route vecs back into the pool.
        let before = self.flows.len();
        let link_flows = &mut self.link_flows;
        let finished = &mut self.finished;
        let pool = &mut self.links_pool;
        self.flows.retain_mut(|f| {
            if f.remaining < 1.0 {
                for &l in &f.links {
                    link_flows[l] -= 1;
                }
                finished.push(f.id);
                let mut links = std::mem::take(&mut f.links);
                links.clear();
                pool.push(links);
                false
            } else {
                true
            }
        });
        if self.flows.len() < before {
            self.generation += 1;
            self.invalidate_rates();
        }
    }

    /// Temporarily degrades a link's bandwidth by `scale` (a link
    /// retrain after an error burst). Degradations stack: overlapping
    /// retrains multiply. Pair every call with [`FlowNet::restore_link`].
    ///
    /// # Panics
    ///
    /// Panics if the link is unknown, `scale` is not in `(0, 1]`, or
    /// `now` is before the previous advance.
    pub fn degrade_link(&mut self, now: Time, link: LinkId, scale: f64) {
        let l = link.index();
        assert!(l < self.link_bw.len(), "degrading unknown link");
        assert!(
            scale > 0.0 && scale <= 1.0,
            "degradation scale must be in (0, 1]"
        );
        self.advance(now);
        self.degradations[l].push(scale);
        self.recompute_link(l);
        self.generation += 1;
    }

    /// Lifts the oldest active degradation of `link` (retrain done).
    /// A no-op if the link is not degraded.
    ///
    /// # Panics
    ///
    /// Panics if the link is unknown or `now` is before the previous
    /// advance.
    pub fn restore_link(&mut self, now: Time, link: LinkId) {
        let l = link.index();
        assert!(l < self.link_bw.len(), "restoring unknown link");
        self.advance(now);
        if self.degradations[l].is_empty() {
            return;
        }
        self.degradations[l].remove(0);
        self.recompute_link(l);
        self.generation += 1;
    }

    fn recompute_link(&mut self, l: usize) {
        // Recompute from the nominal rate so repeated degrade/restore
        // cycles never accumulate float drift.
        self.link_bw[l] = self.degradations[l]
            .iter()
            .fold(self.base_bw[l], |bw, s| bw * s);
        self.invalidate_rates();
    }

    /// Starts a flow of `bytes` over `route_links`. The network must be
    /// advanced to `now` first (or `insert` does it for you).
    ///
    /// # Panics
    ///
    /// Panics if the route is empty or references an unknown link; use
    /// [`FlowNet::try_insert`] to handle those as errors.
    pub fn insert(&mut self, now: Time, id: FlowId, bytes: u64, route_links: &[LinkId]) {
        if let Err(e) = self.try_insert(now, id, bytes, route_links) {
            panic!("FlowNet::insert({id:?}, {bytes} B) failed: {e}");
        }
    }

    /// Fallible variant of [`FlowNet::insert`].
    pub fn try_insert(
        &mut self,
        now: Time,
        id: FlowId,
        bytes: u64,
        route_links: &[LinkId],
    ) -> Result<(), FabricError> {
        if route_links.is_empty() {
            return Err(FabricError::EmptyRoute);
        }
        let mut links = self.links_pool.pop().unwrap_or_default();
        links.extend(route_links.iter().map(|l| l.index()));
        for (&l, &lid) in links.iter().zip(route_links) {
            if l >= self.link_bw.len() {
                links.clear();
                self.links_pool.push(links);
                return Err(FabricError::UnknownLink(lid));
            }
        }
        self.advance(now);
        if bytes == 0 {
            links.clear();
            self.links_pool.push(links);
            self.finished.push(id);
        } else {
            for &l in &links {
                self.link_flows[l] += 1;
            }
            self.flows.push(Flow {
                id,
                remaining: bytes as f64,
                links,
            });
            self.invalidate_rates();
        }
        self.generation += 1;
        Ok(())
    }

    /// Kills every in-flight flow crossing any of `links` (surprise
    /// device removal: the DMA engine on one side of the transfer no
    /// longer exists). Accounting is advanced to `now` first, so bytes
    /// already moved stay counted; the aborted flows are *not* reported
    /// by [`FlowNet::pop_finished`] — their ids are returned here for
    /// the caller to unwind.
    pub fn abort_flows(&mut self, now: Time, links: &[LinkId]) -> Vec<FlowId> {
        self.advance(now);
        let dead: Vec<usize> = links.iter().map(|l| l.index()).collect();
        let link_flows = &mut self.link_flows;
        let pool = &mut self.links_pool;
        let mut aborted: Vec<FlowId> = Vec::new();
        self.flows.retain_mut(|f| {
            if f.links.iter().any(|l| dead.contains(l)) {
                for &l in &f.links {
                    link_flows[l] -= 1;
                }
                aborted.push(f.id);
                let mut route = std::mem::take(&mut f.links);
                route.clear();
                pool.push(route);
                false
            } else {
                true
            }
        });
        if !aborted.is_empty() {
            self.generation += 1;
            self.invalidate_rates();
        }
        aborted
    }

    /// Pops the next completed flow in completion (FIFO) order, or
    /// `None` when the pending set is drained. The completion buffer
    /// is recycled once empty, so steady-state draining never allocates.
    pub fn pop_finished(&mut self) -> Option<FlowId> {
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

    /// Absolute time of the next flow completion at current rates, or
    /// `None` when idle.
    pub fn next_event(&self, now: Time) -> Option<Time> {
        if self.flows.is_empty() {
            return None;
        }
        self.ensure_rates();
        let s = self.scratch.borrow();
        let mut best = f64::INFINITY;
        for (f, r) in self.flows.iter().zip(&s.rates) {
            if *r > 0.0 {
                best = best.min(f.remaining / r);
            }
        }
        if !best.is_finite() {
            return None;
        }
        let dt = Time::from_secs_f64(best).max(Time::from_ps(1));
        Some((self.last + dt).max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(i: usize) -> LinkId {
        LinkId(i)
    }

    fn drain(net: &mut FlowNet) -> Vec<FlowId> {
        std::iter::from_fn(|| net.pop_finished()).collect()
    }

    /// Max-min optimality certificate, judged without the reference
    /// solver: every flow runs at a positive rate, no link carries more
    /// than its bandwidth, and every flow crosses a saturated link on
    /// which no other flow runs faster (its bottleneck). Comparisons
    /// allow a relative error of 1e-9 for float rounding.
    fn assert_max_min(net: &FlowNet) {
        const TOL: f64 = 1e-9;
        let rates = net.rates();
        let mut load = vec![0.0f64; net.link_bw.len()];
        let mut fastest = vec![0.0f64; net.link_bw.len()];
        for (f, &r) in net.flows.iter().zip(&rates) {
            assert!(r > 0.0 && r.is_finite(), "flow {} runs at {r}", f.id);
            for &l in &f.links {
                load[l] += r;
                fastest[l] = fastest[l].max(r);
            }
        }
        for (l, (&used, &bw)) in load.iter().zip(&net.link_bw).enumerate() {
            assert!(
                used <= bw * (1.0 + TOL),
                "link {l} carries {used} B/s over its {bw}"
            );
        }
        // Link `l` bottlenecks a flow at rate `r`: saturated, and no
        // flow on it runs faster.
        let bottleneck = |l: usize, r: f64| {
            load[l] >= net.link_bw[l] * (1.0 - TOL) && fastest[l] <= r * (1.0 + TOL)
        };
        for (f, &r) in net.flows.iter().zip(&rates) {
            let found = f.links.iter().any(|&l| bottleneck(l, r));
            assert!(found, "flow {} at {r} B/s has no bottleneck", f.id);
        }
    }

    #[test]
    fn single_flow_full_rate() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 500_000_000, &[lid(0)]);
        assert_eq!(net.next_event(Time::ZERO), Some(Time::from_ms(500)));
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_000_000_000, &[lid(0)]);
        net.insert(Time::ZERO, 2, 1_000_000_000, &[lid(0)]);
        let t = net.next_event(Time::ZERO).unwrap();
        assert_eq!(t, Time::from_secs(2));
        net.advance(t);
        let mut done = drain(&mut net);
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn bottleneck_determines_rate() {
        // Flow over links 0 (fast) and 1 (slow).
        let mut net = FlowNet::new(vec![10_000_000_000, 1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_000_000_000, &[lid(0), lid(1)]);
        assert_eq!(net.next_event(Time::ZERO), Some(Time::from_secs(1)));
    }

    #[test]
    fn max_min_unfreezes_leftover_bandwidth() {
        // Link 0: 10 GB/s shared by flows A and B; flow B also crosses
        // link 1 at 2 GB/s. Max-min: B is capped at 2, A gets 8.
        let mut net = FlowNet::new(vec![10_000_000_000, 2_000_000_000]);
        net.insert(Time::ZERO, 1, 8_000_000_000, &[lid(0)]);
        net.insert(Time::ZERO, 2, 2_000_000_000, &[lid(0), lid(1)]);
        let rates = net.rates();
        assert!((rates[0] - 8e9).abs() < 1.0);
        assert!((rates[1] - 2e9).abs() < 1.0);
        // Both finish at exactly 1s.
        assert_eq!(net.next_event(Time::ZERO), Some(Time::from_secs(1)));
    }

    #[test]
    fn departures_speed_up_survivors() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 500_000_000, &[lid(0)]);
        net.insert(Time::ZERO, 2, 1_500_000_000, &[lid(0)]);
        // Shared until flow 1 finishes at t=1s (500M at 0.5 GB/s).
        let t1 = net.next_event(Time::ZERO).unwrap();
        assert_eq!(t1, Time::from_secs(1));
        net.advance(t1);
        assert_eq!(drain(&mut net), vec![1]);
        // Flow 2 has 1.0 GB left, now at full 1 GB/s -> finishes at 2s.
        let t2 = net.next_event(t1).unwrap();
        assert_eq!(t2, Time::from_secs(2));
    }

    #[test]
    fn staggered_arrival() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_000_000_000, &[lid(0)]);
        // After 0.5s, flow 1 has 500MB left; flow 2 arrives.
        net.insert(Time::from_ms(500), 2, 500_000_000, &[lid(0)]);
        // Both now at 0.5 GB/s: flow 1 needs 1s more, flow 2 needs 1s.
        let t = net.next_event(Time::from_ms(500)).unwrap();
        assert_eq!(t, Time::from_ms(1500));
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 9, 0, &[lid(0)]);
        assert_eq!(drain(&mut net), vec![9]);
        assert_eq!(net.next_event(Time::ZERO), None);
    }

    #[test]
    fn link_byte_accounting() {
        let mut net = FlowNet::new(vec![1_000_000_000, 1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_000_000, &[lid(0), lid(1)]);
        let t = net.next_event(Time::ZERO).unwrap();
        net.advance(t);
        assert!((net.link_bytes()[0] - 1e6).abs() < 1.0);
        assert!((net.link_bytes()[1] - 1e6).abs() < 1.0);
        assert_eq!(drain(&mut net), vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_route_rejected() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 10, &[]);
    }

    #[test]
    fn degraded_link_slows_flows_until_restored() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_500_000_000, &[lid(0)]);
        // Halve the link for the first second: only 500 MB moves.
        net.degrade_link(Time::ZERO, lid(0), 0.5);
        assert_eq!(net.rates(), vec![500_000_000.0]);
        net.restore_link(Time::from_secs(1), lid(0));
        assert_eq!(net.rates(), vec![1_000_000_000.0]);
        // 1.0 GB left at the full 1 GB/s -> finishes at t=2s.
        assert_eq!(net.next_event(Time::from_secs(1)), Some(Time::from_secs(2)));
    }

    #[test]
    fn overlapping_degradations_stack_and_unwind() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 1, u64::MAX / 2, &[lid(0)]);
        net.degrade_link(Time::ZERO, lid(0), 0.5);
        net.degrade_link(Time::ZERO, lid(0), 0.5);
        assert_eq!(net.rates(), vec![250_000_000.0]);
        net.restore_link(Time::ZERO, lid(0));
        assert_eq!(net.rates(), vec![500_000_000.0]);
        net.restore_link(Time::ZERO, lid(0));
        assert_eq!(net.rates(), vec![1_000_000_000.0]);
        // Extra restore is a no-op, and rates stay exactly nominal.
        net.restore_link(Time::ZERO, lid(0));
        assert_eq!(net.rates(), vec![1_000_000_000.0]);
    }

    #[test]
    fn abort_kills_crossing_flows_and_frees_bandwidth() {
        let mut net = FlowNet::new(vec![1_000_000_000, 1_000_000_000]);
        net.insert(Time::ZERO, 1, 1_000_000_000, &[lid(0)]);
        net.insert(Time::ZERO, 2, 1_000_000_000, &[lid(0), lid(1)]);
        net.insert(Time::ZERO, 3, 1_000_000_000, &[lid(1)]);
        // Abort link 1 at t=0.5s: flows 2 and 3 die, flow 1 survives.
        let gen_before = net.generation();
        let mut dead = net.abort_flows(Time::from_ms(500), &[lid(1)]);
        dead.sort_unstable();
        assert_eq!(dead, vec![2, 3]);
        assert_eq!(net.active_flows(), 1);
        assert!(net.generation() > gen_before);
        // Aborted flows never surface as finished.
        assert!(drain(&mut net).is_empty());
        // Bytes moved before the abort stay accounted on every link.
        assert!(net.link_bytes()[1] > 0.0);
        // Flow 1 now runs alone at the full 1 GB/s: 750 MB left after
        // sharing link 0 for 0.5s -> finishes at 1.25s.
        assert_eq!(
            net.next_event(Time::from_ms(500)),
            Some(Time::from_ms(1250))
        );
        net.advance(Time::from_ms(1250));
        assert_eq!(drain(&mut net), vec![1]);
        // Aborting with no crossing flows is a clean no-op.
        let g = net.generation();
        assert!(net.abort_flows(Time::from_ms(1250), &[lid(1)]).is_empty());
        assert_eq!(net.generation(), g);
    }

    #[test]
    fn try_insert_reports_errors() {
        use crate::topology::FabricError;
        let mut net = FlowNet::new(vec![1_000_000_000]);
        assert_eq!(
            net.try_insert(Time::ZERO, 1, 10, &[]),
            Err(FabricError::EmptyRoute)
        );
        assert_eq!(
            net.try_insert(Time::ZERO, 1, 10, &[lid(7)]),
            Err(FabricError::UnknownLink(lid(7)))
        );
        // Failed inserts leave the network untouched.
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.generation(), 0);
        assert!(net.try_insert(Time::ZERO, 1, 10, &[lid(0)]).is_ok());
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn pop_finished_drains_in_completion_order() {
        let mut net = FlowNet::new(vec![1_000_000_000]);
        net.insert(Time::ZERO, 7, 0, &[lid(0)]);
        net.insert(Time::ZERO, 8, 0, &[lid(0)]);
        net.insert(Time::ZERO, 9, 500_000_000, &[lid(0)]);
        assert_eq!(net.pop_finished(), Some(7));
        // A completion that lands mid-drain queues behind the rest.
        net.insert(Time::ZERO, 10, 0, &[lid(0)]);
        assert_eq!(net.pop_finished(), Some(8));
        assert_eq!(net.pop_finished(), Some(10));
        assert_eq!(net.pop_finished(), None);
        let t = net.next_event(Time::ZERO).unwrap();
        net.advance(t);
        // The recycled buffer takes completions after a full drain.
        assert_eq!(net.pop_finished(), Some(9));
        assert_eq!(net.pop_finished(), None);
    }

    #[test]
    fn incremental_solver_matches_reference_on_random_histories() {
        use dmx_sim::{cases, run_cases};
        // Drive random arrival / completion / degrade / restore
        // sequences and demand the incremental water-fill agree
        // bit-for-bit with the from-scratch reference after every
        // mutation (stronger than the debug_assert in `rates`, which
        // only fires on cache misses and only in debug builds).
        run_cases("flow::incremental_vs_reference", cases(40), |g| {
            let nl = g.usize_in(1, 5);
            let bw: Vec<u64> = (0..nl).map(|_| g.u64_in(1, 11) * 100_000_000).collect();
            let mut net = FlowNet::new(bw);
            let mut now = Time::ZERO;
            let mut next_id = 0u64;
            for _ in 0..g.usize_in(5, 40) {
                match g.usize_in(0, 10) {
                    // Mostly arrivals, so contention actually builds up.
                    0..=4 => {
                        let mut links: Vec<LinkId> =
                            (0..nl).filter(|_| g.chance(0.6)).map(lid).collect();
                        if links.is_empty() {
                            links.push(lid(g.usize_in(0, nl)));
                        }
                        let bytes = g.u64_in(1, 2_000_000_000);
                        net.insert(now, next_id, bytes, &links);
                        next_id += 1;
                    }
                    // Jump to the next completion (exercises retire).
                    5..=6 => {
                        if let Some(t) = net.next_event(now) {
                            now = t;
                            net.advance(now);
                            drain(&mut net);
                        }
                    }
                    // A partial advance that retires nothing for sure.
                    7 => {
                        now += Time::from_ps(g.u64_in(1, 1_000_000));
                        net.advance(now);
                        drain(&mut net);
                    }
                    8 => net.degrade_link(now, lid(g.usize_in(0, nl)), g.f64_in(0.1, 1.0)),
                    _ => net.restore_link(now, lid(g.usize_in(0, nl))),
                }
                if net.active_flows() > 0 {
                    let fast = net.solve_rates();
                    let reference = net.solve_rates_reference();
                    assert_eq!(fast, reference, "solvers diverged");
                    assert_eq!(net.rates(), fast, "memoized rates stale");
                }
                assert_max_min(&net);
            }
        });
    }

    #[test]
    fn sparse_solver_matches_reference_on_large_networks() {
        use dmx_sim::{cases, run_cases};
        // The shape a server topology runs: tens of links, one or a few
        // flows of 1-4 links each, so most links are crossed by nothing
        // and the sparse solve leaves their scratch entries stale. A
        // fifth of the cases span more than one 64-link bitmap word.
        // Degrades and restores hit uncrossed links half the time.
        // After every mutation the memoized rates (reused scratch) and
        // a fresh solve must equal the reference bit for bit.
        fn bits(rates: &[f64]) -> Vec<u64> {
            rates.iter().map(|r| r.to_bits()).collect()
        }
        run_cases("flow::sparse_vs_reference", cases(40), |g| {
            let nl = if g.chance(0.8) {
                g.usize_in(1, 41)
            } else {
                g.usize_in(65, 131)
            };
            let bw: Vec<u64> = (0..nl).map(|_| g.u64_in(1, 11) * 100_000_000).collect();
            let mut net = FlowNet::new(bw);
            let mut now = Time::ZERO;
            let mut next_id = 0u64;
            for _ in 0..g.usize_in(5, 60) {
                let uncrossed: Vec<usize> = (0..nl).filter(|&l| net.link_flows[l] == 0).collect();
                let pick_link = |g: &mut dmx_sim::check::Gen| {
                    if !uncrossed.is_empty() && g.chance(0.5) {
                        *g.pick(&uncrossed)
                    } else {
                        g.usize_in(0, nl)
                    }
                };
                match g.usize_in(0, 12) {
                    // Arrivals while fewer than four flows are up;
                    // past that the arm falls through to a departure.
                    0..=3 if net.active_flows() < 4 => {
                        let hops = g.usize_in(1, 5).min(nl);
                        let mut links: Vec<LinkId> = Vec::with_capacity(hops);
                        while links.len() < hops {
                            let l = lid(g.usize_in(0, nl));
                            if !links.contains(&l) {
                                links.push(l);
                            }
                        }
                        net.insert(now, next_id, g.u64_in(1, 2_000_000_000), &links);
                        next_id += 1;
                    }
                    0..=5 => {
                        if let Some(t) = net.next_event(now) {
                            now = t;
                            net.advance(now);
                            drain(&mut net);
                        }
                    }
                    6 => {
                        now += Time::from_ps(g.u64_in(1, 1_000_000));
                        net.advance(now);
                        drain(&mut net);
                    }
                    7..=8 => {
                        let l = pick_link(g);
                        net.degrade_link(now, lid(l), g.f64_in(0.1, 1.0));
                    }
                    9..=10 => {
                        let l = pick_link(g);
                        net.restore_link(now, lid(l));
                    }
                    _ => {
                        let l = pick_link(g);
                        net.abort_flows(now, &[lid(l)]);
                    }
                }
                let reference = bits(&net.solve_rates_reference());
                assert_eq!(bits(&net.rates()), reference, "memoized rates diverged");
                assert_eq!(bits(&net.solve_rates()), reference, "fresh solve diverged");
                assert_max_min(&net);
            }
        });
    }

    #[test]
    fn link_flow_counts_stay_consistent() {
        use dmx_sim::{cases, run_cases};
        // The incrementally maintained per-link counts must equal a
        // recount from the live flow set at any point in a history.
        run_cases("flow::link_counts", cases(40), |g| {
            let nl = g.usize_in(1, 4);
            let mut net = FlowNet::new(vec![1_000_000_000; nl]);
            let mut now = Time::ZERO;
            for id in 0..g.u64_in(3, 25) {
                if g.chance(0.7) {
                    let links: Vec<LinkId> = vec![lid(g.usize_in(0, nl))];
                    net.insert(now, id, g.u64_in(0, 1_000_000_000), &links);
                } else if let Some(t) = net.next_event(now) {
                    now = t;
                    net.advance(now);
                    drain(&mut net);
                }
                let mut recount = vec![0u32; nl];
                for f in &net.flows {
                    for &l in &f.links {
                        recount[l] += 1;
                    }
                }
                assert_eq!(net.link_flows, recount, "link counts drifted");
            }
        });
    }

    #[test]
    fn rates_never_oversubscribe_links() {
        // A fixed scenario where every link is shared, so the
        // water-fill, not the closed form, sets the rates.
        let mut net = FlowNet::new(vec![3_000_000_000, 1_000_000_000, 2_000_000_000]);
        let routes: Vec<Vec<LinkId>> = vec![
            vec![lid(0)],
            vec![lid(0), lid(1)],
            vec![lid(1), lid(2)],
            vec![lid(0), lid(2)],
            vec![lid(2)],
        ];
        for (i, r) in routes.iter().enumerate() {
            net.insert(Time::ZERO, i as u64, 1_000_000_000, r);
        }
        assert_max_min(&net);
    }
}
