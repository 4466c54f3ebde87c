//! Crash-stop layer: surprise removal of a DRX unit, a switch subtree
//! or the host driver; hot-plug re-admission when an outage window
//! closes; and migration of torn requests from their last chain-hop
//! checkpoint onto surviving resources. The schedule is the fault
//! plan's `crashes`, fixed at build; with none, `begin_or_park` starts
//! every step at once.

use super::{Ev, Outcome, Res, Sim, SimError, Step};
use crate::placement::Engine;
use dmx_pcie::{LinkId, NodeId};
use dmx_sim::{CrashTarget, Time};

/// What the crash-stop layer did during a run: surprise removals,
/// hot-plug re-admissions, checkpointed chain migrations, and the
/// requests no surviving path could save. All-zero when the fault
/// config schedules no crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Crash events that fired (device, subtree, or driver).
    pub crashes: u64,
    /// Outage windows that ended with the component re-admitted.
    pub readmissions: u64,
    /// Chain-hop checkpoints taken by the driver.
    pub checkpoints: u64,
    /// Requests torn off a crashed component and restarted from their
    /// last checkpoint on surviving resources.
    pub migrations: u64,
    /// Work those migrations threw away (time since the checkpoint).
    pub lost_progress: Time,
    /// Requests whose data died with a permanently-removed component.
    pub crash_killed: u64,
    /// Requests parked waiting out a finite outage window.
    pub crash_stalls: u64,
    /// Total time requests spent parked on crashed components.
    pub stall_time: Time,
    /// Pending silent flips that left the system inside crash-killed
    /// requests. Keeps the integrity ledger conserved under crashes:
    /// injected = detected + escaped + discarded.
    pub flips_discarded: u64,
}

impl CrashReport {
    /// True if any crash fired or any recovery action ran.
    pub(crate) fn any(&self) -> bool {
        *self != CrashReport::default()
    }
}

impl Sim<'_> {
    /// True when crash event `i`'s outage window covers `now`.
    fn crash_live(&self, i: usize, now: Time) -> bool {
        let ev = &self.crash_sched[i];
        ev.at <= now && ev.recovers_at().is_none_or(|r| now < r)
    }

    /// The crash event (if any) whose live outage window blocks `id`
    /// from starting its next step: a down driver blocks everything, a
    /// dark subtree blocks steps whose data would have to enter it.
    /// Device crashes never block — their work reroutes to the host-CPU
    /// fallback instead.
    fn crash_block(&self, id: u64) -> Option<usize> {
        if self.crash_sched.is_empty() {
            return None;
        }
        let now = self.q.now();
        let r = self.reqs.get(id)?;
        let step = *self.server.steps[r.app].get(r.step)?;
        (0..self.crash_sched.len()).find(|&i| {
            self.crash_live(i, now)
                && match self.crash_sched[i].target {
                    CrashTarget::Driver => true,
                    CrashTarget::Subtree(s) => self.step_in_subtree(r.app, step, s),
                    CrashTarget::Device(_) => false,
                }
        })
    }

    /// True when `step`'s work would have to enter the subtree of
    /// switch `s`: a kernel or restructure resident there, or a DMA
    /// with an endpoint inside it. Driver steps run on the host and
    /// never enter a switch subtree.
    fn step_in_subtree(&self, app: usize, step: Step, s: usize) -> bool {
        let Some(&root) = self.server.layout.switches.get(s) else {
            return false;
        };
        let within = |n: NodeId| self.server.layout.topo.in_subtree(n, root);
        match step {
            Step::Kernel(k) => within(self.server.layout.accel_nodes[app][k]),
            Step::ToRestr(e) => {
                within(self.server.layout.accel_nodes[app][e]) || within(self.restr_node(app, e))
            }
            Step::Restr(e) => within(self.restr_node(app, e)),
            Step::ToNext(e) => {
                within(self.restr_node(app, e))
                    || within(self.server.layout.accel_nodes[app][e + 1])
            }
            Step::DriverPost(_) | Step::DriverPre(_) => false,
        }
    }

    /// Starts `id`'s next step unless a live outage blocks it, in which
    /// case the request parks until the window closes — or dies with a
    /// permanent one.
    pub(super) fn begin_or_park(&mut self, id: u64) -> Result<(), SimError> {
        if let Some(i) = self.crash_block(id) {
            return self.park_or_kill(id, i);
        }
        self.begin_step(id)
    }

    /// Parks `id` until crash event `i`'s outage ends; a permanent
    /// outage that blocks the chain kills the request outright.
    fn park_or_kill(&mut self, id: u64, i: usize) -> Result<(), SimError> {
        let now = self.q.now();
        match self.crash_sched[i].recovers_at() {
            Some(at) => {
                self.creport.crash_stalls += 1;
                self.creport.stall_time += at.saturating_sub(now);
                let Some(r) = self.reqs.get(id) else {
                    return Ok(());
                };
                let ep = r.epoch;
                self.q
                    .schedule_at(at + self.cfg.driver.irq_latency, Ev::Resume(id, ep));
                Ok(())
            }
            None => self.crash_kill(id),
        }
    }

    /// A parked, migrated or re-executing request resumes. Re-checks
    /// the schedule: another outage window may have opened meanwhile.
    pub(super) fn resume(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        let Some(r) = self.reqs.get(id) else {
            return Ok(());
        };
        if r.epoch != epoch {
            return Ok(());
        }
        self.begin_or_park(id)
    }

    /// Crash event `i` fires: surprise removal of its target.
    pub(super) fn crash(&mut self, i: usize) -> Result<(), SimError> {
        self.creport.crashes += 1;
        match self.crash_sched[i].target {
            CrashTarget::Device(u) => self.crash_device(u),
            CrashTarget::Subtree(s) => self.crash_subtree(s),
            CrashTarget::Driver => self.crash_driver(),
        }
    }

    /// Surprise removal of DRX unit `unit`: it leaves routing, every
    /// flow touching its point-to-point links dies, and in-flight
    /// batches on it migrate to surviving resources from their last
    /// checkpoint.
    fn crash_device(&mut self, unit: u64) -> Result<(), SimError> {
        *self.down_devices.entry(unit).or_insert(0) += 1;
        if !self.dead_units.insert(unit) {
            // Already out of routing (overlapping window or permanent
            // death): nothing is running on it.
            return Ok(());
        }
        let mut torn: Vec<u64> = Vec::new();
        // Bump-in-the-wire engines and standalone cards are their own
        // endpoints; DMA over their links dies with the device. Pool
        // units live on switches/root and keep the fabric.
        let endpoint = self
            .server
            .layout
            .units
            .iter()
            .find(|u| u.id == unit && matches!(u.engine, Engine::Endpoint { .. }));
        if let Some(node) = endpoint.map(|u| u.node) {
            let links = self.server.layout.topo.subtree_links(node);
            torn.extend(self.abort_flows_on(&links)?);
        }
        for (id, r) in self.reqs.iter() {
            if r.step >= self.server.steps[r.app].len() {
                continue;
            }
            // Anything whose data sits in (or is headed into / parked
            // for) the removed unit is torn; batches already rerouted
            // to the host fallback are unaffected.
            let on_unit = match self.server.steps[r.app][r.step] {
                Step::ToRestr(e) | Step::DriverPre(e) => self.unit_for(r.app, e) == Some(unit),
                Step::Restr(e) => !r.degraded && self.unit_for(r.app, e) == Some(unit),
                _ => false,
            };
            if on_unit {
                torn.push(id);
            }
        }
        self.tear_requests(torn)
    }

    /// Power loss on switch subtree `s`: every unit under it goes down,
    /// every flow crossing into it dies, and requests resident inside
    /// migrate from their last checkpoint.
    fn crash_subtree(&mut self, s: usize) -> Result<(), SimError> {
        let Some(&root) = self.server.layout.switches.get(s) else {
            // Schedules may name more subtrees than the layout has.
            return Ok(());
        };
        for unit in self.units_in_subtree(root) {
            *self.down_devices.entry(unit).or_insert(0) += 1;
            self.dead_units.insert(unit);
        }
        let links = self.server.layout.topo.subtree_links(root);
        let mut torn = self.abort_flows_on(&links)?;
        for (id, r) in self.reqs.iter() {
            if r.step >= self.server.steps[r.app].len() {
                continue;
            }
            let step = self.server.steps[r.app][r.step];
            if r.degraded && matches!(step, Step::Restr(_)) {
                continue;
            }
            if self.step_in_subtree(r.app, step, s) {
                torn.push(id);
            }
        }
        self.tear_requests(torn)
    }

    /// Host driver crash-restart: descriptor rings and completion
    /// queues are gone, so every in-flight request re-plans from its
    /// last checkpoint once the restarted driver re-enumerates.
    fn crash_driver(&mut self) -> Result<(), SimError> {
        self.driver.restart();
        let torn: Vec<u64> = self.reqs.keys().collect();
        self.tear_requests(torn)
    }

    /// Every deployed DRX unit whose batches land under `root`.
    fn units_in_subtree(&self, root: NodeId) -> Vec<u64> {
        let layout = &self.server.layout;
        layout
            .units
            .iter()
            .filter(|u| layout.topo.in_subtree(u.node, root))
            .map(|u| u.id)
            .collect()
    }

    /// Kills every in-flight flow crossing `links` and returns the ids
    /// of the requests that owned them.
    pub(super) fn abort_flows_on(&mut self, links: &[LinkId]) -> Result<Vec<u64>, SimError> {
        let now = self.q.now();
        let mut owners = Vec::new();
        for fid in self.flows.abort_flows(now, links) {
            if let Some((id, ..)) = self.jobs.remove(&fid) {
                owners.push(id);
            }
        }
        self.settle(Res::Flows)?;
        Ok(owners)
    }

    /// Migrates every request in `ids` off its crashed component. The
    /// set is sorted and deduplicated first — teardown order must not
    /// depend on map iteration order — and every torn request leaves
    /// the restructure gates *before* any freed gate re-dispatches, so
    /// a gate can never hand itself to a batch that is also being torn.
    fn tear_requests(&mut self, mut ids: Vec<u64>) -> Result<(), SimError> {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Ok(());
        }
        let mut refill: Vec<(usize, usize)> = Vec::new();
        for app in 0..self.restr_active.len() {
            for e in 0..self.restr_active[app].len() {
                if self.restr_active[app][e].is_some_and(|a| ids.binary_search(&a).is_ok()) {
                    self.restr_active[app][e] = None;
                    refill.push((app, e));
                }
                self.restr_queue[app][e].retain(|q| ids.binary_search(q).is_err());
            }
        }
        for &id in &ids {
            self.migrate_one(id)?;
        }
        for (app, e) in refill {
            self.restr_active[app][e] = self.restr_queue[app][e].pop_front();
            if let Some(next) = self.restr_active[app][e] {
                self.submit_restr(next, app, e)?;
            }
        }
        Ok(())
    }

    /// Tears one request off a crashed component: cancel its in-flight
    /// work and held credit, rewind to the last checkpoint, and re-plan
    /// onto surviving resources after the driver re-enumerates.
    fn migrate_one(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        // Neither arm of a live hedge can win the discarded attempt.
        self.cancel_attempt(id);
        let credit = self.reqs.get_mut(id).and_then(|r| r.credit.take());
        self.cancel_credit(id, credit)?;
        let Some(r) = self.reqs.get_mut(id) else {
            return Ok(());
        };
        self.creport.migrations += 1;
        self.creport.lost_progress += now.saturating_sub(r.ckpt_at);
        r.epoch += 1;
        r.crash_rewinds += 1;
        r.degraded = false;
        r.restr_unit = None;
        r.step = r.ckpt_step;
        // The restored snapshot is materialized now; a second crash
        // before the next checkpoint only loses work from here.
        r.ckpt_at = now;
        let ep = r.epoch;
        self.q
            .schedule_at(now + self.cfg.driver.irq_latency, Ev::Resume(id, ep));
        Ok(())
    }

    /// Removes `id` outright: its data died with a permanently-removed
    /// component and no surviving path can recreate it. The request is
    /// fully accounted — its flips move to the discard ledger, its slot
    /// frees, and closed-loop apps launch their next request.
    fn crash_kill(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        // The hedge dies with the request; its accounting survives.
        self.cancel_attempt(id);
        let Some(r) = self.reqs.remove(id) else {
            return Ok(());
        };
        self.creport.crash_killed += 1;
        self.creport.flips_discarded += r.flips;
        self.remaining = self.remaining.saturating_sub(1);
        self.resolve(r.app, r.tag, Outcome::Shed);
        self.cancel_credit(id, r.credit)?;
        self.refill(r.app, now)
    }

    /// Crash event `i`'s outage window ends: hot-plug re-admission.
    /// Devices rejoin routing unless a permanent death also claimed
    /// them; parked requests resume via their scheduled `Resume`s.
    pub(super) fn crash_recover(&mut self, i: usize) -> Result<(), SimError> {
        self.creport.readmissions += 1;
        match self.crash_sched[i].target {
            CrashTarget::Device(u) => self.revive_unit(u),
            CrashTarget::Subtree(s) => {
                if let Some(&root) = self.server.layout.switches.get(s) {
                    for u in self.units_in_subtree(root) {
                        self.revive_unit(u);
                    }
                }
            }
            CrashTarget::Driver => {}
        }
        Ok(())
    }

    /// Closes one crash window on `unit`; at zero open windows it
    /// rejoins routing — unless permanently dead.
    fn revive_unit(&mut self, unit: u64) {
        if let Some(n) = self.down_devices.get_mut(&unit) {
            *n -= 1;
            if *n == 0 {
                self.down_devices.remove(&unit);
                if !self.perma_dead.contains(&unit) {
                    self.dead_units.remove(&unit);
                }
            }
        }
    }
}
