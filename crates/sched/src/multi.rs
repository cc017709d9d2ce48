//! Multi-fabric scheduling: one request stream sharded over K devices.
//!
//! [`MultiFabricScheduler`] turns a fleet of single-fabric [`Scheduler`]s
//! into one dispatcher. Each submitted load is routed to a fabric by a
//! pluggable [`ShardPolicy`] (round-robin, least-loaded, cache-affinity) and
//! joins that fabric's work queue; unloads and relocations follow the job to
//! wherever it was routed. Two mechanisms make up the fleet:
//!
//! * **Inline rounds** — a processing round runs every fabric with queued
//!   work through the ordinary [`Scheduler::process_pending_tagged`], one
//!   after another on the caller's thread, in fabric order, the way the
//!   paper's run-time manager drives each device through one sequential
//!   reconfiguration controller. A K=1 fleet is therefore a plain
//!   [`Scheduler`] behind a router — the differential tests pin it
//!   bit-identical. No thread is spawned: decodes are ≈ 1 % of a fleet
//!   replay, so there is no work worth overlapping, and a scoped thread
//!   per busy fabric cost the fleet 10× the host time of one fabric.
//! * **Cross-fabric migration** — a load rejected for capacity on its
//!   assigned fabric is re-dispatched to a fabric it has not tried yet
//!   (chosen by the same shard policy), so one saturated device sheds work
//!   to the rest of the fleet instead of dropping it.
//!
//! Job ids returned by [`MultiFabricScheduler::submit`] are fleet-global,
//! and the dispatcher queues every request on its shard under that id (a
//! migrated or re-queued load keeps it on its new fabric). A shard's
//! residents, its outcomes — `evicted` lists included — and its telemetry
//! events therefore name a job exactly as the fleet does: there is no
//! per-fabric id and nothing to translate.

use crate::scheduler::{EvacuatedJob, Outcome, RejectReason, Request, SchedMetrics, Scheduler};
use crate::shard::{FabricStatus, ShardPolicy};
use std::collections::HashMap;
use vbs_telemetry::{EventKind, Telemetry, FLEET_FABRIC};

/// Fleet-level counters (per-fabric counters live in each shard's
/// [`SchedMetrics`]). A migrated load counts once here — submitted once,
/// accepted or rejected once — while every fabric it visited counts it in
/// its own per-shard view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiMetrics {
    /// Load requests submitted to the fleet.
    pub loads_submitted: u64,
    /// Loads accepted by some fabric.
    pub loads_accepted: u64,
    /// Loads rejected by every fabric they were dispatched to.
    pub loads_rejected: u64,
    /// Re-dispatches of a capacity-rejected load to another fabric.
    pub migrations: u64,
    /// Loads accepted on a fabric other than their first choice.
    pub migrated_accepts: u64,
    /// Processing rounds executed (≥1 per `process_pending` call).
    pub process_rounds: u64,
    /// Fabrics quarantined after going offline.
    pub quarantines: u64,
    /// Quarantined fabrics that recovered and rejoined the fleet.
    pub recoveries: u64,
    /// Residents of quarantined fabrics re-queued for re-placement on the
    /// survivors.
    pub residents_requeued: u64,
    /// Re-queued residents that landed on a surviving fabric (degraded-mode
    /// acceptance; the original load already counted in `loads_accepted`).
    pub degraded_accepts: u64,
}

impl MultiMetrics {
    /// Accepted / submitted loads, 1.0 when nothing was submitted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.loads_submitted == 0 {
            return 1.0;
        }
        self.loads_accepted as f64 / self.loads_submitted as f64
    }
}

/// A routed job: where its unloads and relocations go, and, while its
/// load waits for a final outcome, what drives migration.
#[derive(Debug)]
struct Job {
    /// The fabric the job was last queued on.
    fabric: usize,
    /// The load still waiting for its final outcome, if any.
    pending: Option<PendingLoad>,
}

/// A load waiting for its final outcome (used to drive migration).
#[derive(Debug)]
struct PendingLoad {
    /// The load request (re-queued as is when the load migrates).
    request: Request,
    /// Fabrics the load was queued on before its current one, in order —
    /// with the current one, the set a migrating load must not retry.
    tried: Vec<usize>,
    /// Whether this is a re-placement of a resident evacuated from a
    /// quarantined fabric (books as a degraded-mode acceptance, not a
    /// fresh fleet load).
    replacement: bool,
}

/// One request stream sharded across K fabrics (see the module docs).
#[derive(Debug)]
pub struct MultiFabricScheduler {
    fabrics: Vec<Scheduler>,
    policy: Box<dyn ShardPolicy>,
    /// Every routed load job. Dropped when the job is unloaded, reported
    /// gone, or finally rejected. An *evicted* job keeps its entry until
    /// its owner unloads it (eviction is not terminal for the owner — the
    /// unload must still resolve on the right fabric, and the K=1
    /// differential requires the shard to process it), so clients should
    /// unload jobs they saw evicted.
    jobs: HashMap<u64, Job>,
    /// Per-fabric quarantine flags: a fabric found offline after a round is
    /// quarantined (no new routing, residents re-queued elsewhere) until its
    /// fault hook reports it reachable again.
    quarantined: Vec<bool>,
    /// The shard policy's view of the fleet for the load being routed,
    /// refilled per decision so that routing allocates nothing.
    statuses: Vec<FabricStatus>,
    /// Outcomes answered without touching any fabric (unroutable targets).
    synthesized: Vec<(u64, Outcome)>,
    next_job: u64,
    metrics: MultiMetrics,
    /// Fleet-scope telemetry (dispatcher decisions, migrations). Installed
    /// by [`Self::set_telemetry`]; a no-op registry until then.
    telemetry: Telemetry,
}

impl MultiFabricScheduler {
    /// Creates a dispatcher over a fleet of per-fabric schedulers.
    ///
    /// Every fabric should target the same architecture spec (any fabric
    /// must be able to host any task); sizes may differ.
    ///
    /// # Panics
    ///
    /// Panics if `fabrics` is empty.
    pub fn new(fabrics: Vec<Scheduler>, policy: Box<dyn ShardPolicy>) -> Self {
        assert!(!fabrics.is_empty(), "a fleet needs at least one fabric");
        let quarantined = vec![false; fabrics.len()];
        let statuses = Vec::with_capacity(fabrics.len());
        MultiFabricScheduler {
            fabrics,
            policy,
            jobs: HashMap::new(),
            quarantined,
            statuses,
            synthesized: Vec::new(),
            next_job: 1,
            metrics: MultiMetrics::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs one shared telemetry registry across the whole fleet: the
    /// dispatcher records fleet-scope events (shard decisions, migrations)
    /// under the [`FLEET_FABRIC`] tag, and each per-fabric scheduler and its
    /// controller's decodes and checkouts record under the fabric's index.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, fabric) in self.fabrics.iter_mut().enumerate() {
            fabric.set_telemetry(telemetry.clone(), i as u16);
        }
        self.telemetry = telemetry;
    }

    /// The dispatcher's telemetry handle (a shared clone).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Number of fabrics in the fleet.
    pub fn fabric_count(&self) -> usize {
        self.fabrics.len()
    }

    /// Read access to one shard's scheduler.
    pub fn fabric(&self, index: usize) -> &Scheduler {
        &self.fabrics[index]
    }

    /// Mutable access to one shard's scheduler — the seam chaos drivers use
    /// to install per-fabric fault hooks and verification. Requests belong
    /// on [`Self::submit`]: one submitted to a shard directly takes an id
    /// of the shard's own, which a fleet id may already name.
    pub fn fabric_mut(&mut self, index: usize) -> &mut Scheduler {
        &mut self.fabrics[index]
    }

    /// Whether a fabric is currently quarantined (offline and routed
    /// around).
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.quarantined[index]
    }

    /// Read access to every shard.
    pub fn fabrics(&self) -> &[Scheduler] {
        &self.fabrics
    }

    /// The active shard policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Fleet-level counters so far.
    pub const fn metrics(&self) -> &MultiMetrics {
        &self.metrics
    }

    /// Per-shard scheduler counters, indexed like [`Self::fabric`].
    pub fn fabric_metrics(&self) -> Vec<SchedMetrics> {
        self.fabrics.iter().map(|f| f.metrics()).collect()
    }

    /// Advances the logical clock of every fabric.
    pub fn advance_to(&mut self, tick: u64) {
        for fabric in &mut self.fabrics {
            fabric.advance_to(tick);
        }
    }

    /// Everything resident across the fleet as `(fabric index, resident
    /// info)` pairs; shards hold fleet-global ids, so `info.job` is the id
    /// [`MultiFabricScheduler::submit`] returned.
    pub fn residents(&self) -> Vec<(usize, crate::ResidentInfo)> {
        self.fabrics
            .iter()
            .enumerate()
            .flat_map(|(f, fabric)| fabric.residents().into_iter().map(move |r| (f, r)))
            .collect()
    }

    /// Fills `statuses` with what the shard policy sees of each fabric for
    /// a load of `task`. Takes the fleet's fields apart so that `task` may
    /// borrow from a job entry.
    fn fill_statuses(
        statuses: &mut Vec<FabricStatus>,
        fabrics: &[Scheduler],
        quarantined: &[bool],
        task: &str,
    ) {
        let status_of = |(i, s): (usize, &Scheduler)| FabricStatus {
            fabric: i,
            free_area: s.manager().fabric_view().free_area(),
            queued_loads: s.queued_loads(),
            holds_decoded: s.holds_decoded(task),
        };
        // Quarantined fabrics take no new work. If the whole fleet is down
        // the unfiltered list keeps the policy fed (the load then fails on
        // the offline fabric and is reported, not silently dropped here).
        statuses.clear();
        statuses.extend(
            fabrics
                .iter()
                .enumerate()
                .filter(|&(i, _)| !quarantined[i])
                .map(status_of),
        );
        if statuses.is_empty() {
            statuses.extend(fabrics.iter().enumerate().map(status_of));
        }
    }

    /// Enqueues a request, routing loads through the shard policy, and
    /// returns its fleet-global id (semantics as [`Scheduler::submit`]).
    pub fn submit(&mut self, request: Request) -> u64 {
        let job = self.next_job;
        self.next_job += 1;
        match &request {
            Request::Load { task, .. } => {
                self.metrics.loads_submitted += 1;
                Self::fill_statuses(&mut self.statuses, &self.fabrics, &self.quarantined, task);
                let fabric = self.statuses[self.policy.choose(&self.statuses)].fabric;
                self.telemetry
                    .event(EventKind::ShardDecision, FLEET_FABRIC, job, fabric as u64);
                self.dispatch(job, fabric, request, false);
            }
            Request::Unload { job: target } | Request::Relocate { job: target, .. } => {
                match self.jobs.get(target).map(|j| j.fabric) {
                    Some(fabric) => self.fabrics[fabric].enqueue(job, request),
                    None => self
                        .synthesized
                        .push((job, Outcome::NotResident { job: *target })),
                }
            }
        }
        job
    }

    /// Queues load `job` on `fabric` and opens its pending entry.
    fn dispatch(&mut self, job: u64, fabric: usize, request: Request, replacement: bool) {
        self.fabrics[fabric].enqueue(job, request.clone());
        let pending = Some(PendingLoad {
            request,
            tried: Vec::new(),
            replacement,
        });
        self.jobs.insert(job, Job { fabric, pending });
    }

    /// Processes every queued request, migrating capacity-rejected loads
    /// until each has either landed or tried every fabric, and returns the
    /// outcomes (fleet-global ids).
    pub fn process_pending(&mut self) -> Vec<Outcome> {
        self.process_pending_tagged()
            .into_iter()
            .map(|(_, outcome)| outcome)
            .collect()
    }

    /// As [`Self::process_pending`], but each outcome is tagged with the id
    /// [`Self::submit`] returned for the request that produced it.
    pub fn process_pending_tagged(&mut self) -> Vec<(u64, Outcome)> {
        let mut results: Vec<(u64, Outcome)> = std::mem::take(&mut self.synthesized);
        loop {
            self.metrics.process_rounds += 1;
            let round = self.process_round();
            // Probe fabric health before settling: a fabric that went
            // offline during the round is quarantined *now*, so this very
            // round's runtime rejections from it migrate to survivors
            // instead of dropping, and its evacuated residents re-queue.
            let mut more_work = self.check_fabric_health();
            for (job, outcome) in round {
                if self.try_migrate(job, &outcome) {
                    more_work = true;
                    continue; // final outcome pending on another fabric
                }
                self.settle(job, &outcome);
                results.push((job, outcome));
            }
            if !more_work {
                break;
            }
        }
        results
    }

    /// Probes every fabric's reachability after a round. A newly offline
    /// fabric is quarantined: its residents are evacuated (bookkeeping
    /// only — the device is unreachable) and re-queued on the survivors
    /// under their fleet-global ids. A quarantined fabric whose
    /// hook reports it reachable again is wiped ([`Scheduler`]
    /// `reset_after_recovery`) and rejoins the routing set. Returns whether
    /// any resident was re-queued (another round must run to place it).
    fn check_fabric_health(&mut self) -> bool {
        let mut requeued = false;
        for i in 0..self.fabrics.len() {
            let offline = self.fabrics[i].is_offline();
            if offline && !self.quarantined[i] {
                self.quarantined[i] = true;
                self.metrics.quarantines += 1;
                let evacuated = self.fabrics[i].evacuate();
                self.telemetry.event(
                    EventKind::Quarantine,
                    FLEET_FABRIC,
                    i as u64,
                    evacuated.len() as u64,
                );
                for job in evacuated {
                    requeued |= self.requeue_resident(job);
                }
            } else if !offline && self.quarantined[i] {
                // Nothing written during the outage can be trusted, so the
                // shard rejoins empty; if the wipe itself fails the fabric
                // stays quarantined and is re-probed next round.
                if self.fabrics[i].reset_after_recovery().is_ok() {
                    self.quarantined[i] = false;
                    self.metrics.recoveries += 1;
                    self.telemetry
                        .event(EventKind::Recover, FLEET_FABRIC, i as u64, 0);
                }
            }
        }
        requeued
    }

    /// Re-queues one evacuated resident of a quarantined fabric as a
    /// replacement load on a surviving fabric, under its fleet-global id.
    /// Returns whether a new dispatch was created.
    fn requeue_resident(&mut self, evacuated: EvacuatedJob) -> bool {
        let job = evacuated.job;
        self.jobs.remove(&job);
        self.metrics.residents_requeued += 1;
        Self::fill_statuses(
            &mut self.statuses,
            &self.fabrics,
            &self.quarantined,
            &evacuated.task,
        );
        if self.statuses.iter().all(|s| self.quarantined[s.fabric]) {
            // Whole fleet down: the resident is lost until re-submitted.
            return false;
        }
        let target = self.statuses[self.policy.choose(&self.statuses)].fabric;
        self.telemetry
            .event(EventKind::ShardDecision, FLEET_FABRIC, job, target as u64);
        let request = Request::Load {
            task: evacuated.task,
            priority: evacuated.priority,
            deadline: None,
        };
        self.dispatch(job, target, request, true);
        true
    }

    /// Books the final outcome of a request in the fleet counters and
    /// drops the entry of a job no fabric can name again.
    fn settle(&mut self, job: u64, outcome: &Outcome) {
        if let Some(pending) = self.jobs.get_mut(&job).and_then(|j| j.pending.take()) {
            match outcome {
                Outcome::Loaded { .. } if pending.replacement => {
                    self.metrics.degraded_accepts += 1;
                }
                Outcome::Loaded { .. } => {
                    self.metrics.loads_accepted += 1;
                    if !pending.tried.is_empty() {
                        self.metrics.migrated_accepts += 1;
                    }
                }
                Outcome::Rejected { .. } => {
                    // A failed *re-placement* is not a fresh fleet
                    // rejection — the original load already counted as
                    // accepted; the gap between `residents_requeued` and
                    // `degraded_accepts` is where lost residents show.
                    if !pending.replacement {
                        self.metrics.loads_rejected += 1;
                    }
                    self.jobs.remove(&job);
                }
                _ => {}
            }
        }
        // An unloaded or reported-gone job has no home any more — unless
        // its *load* is still pending in this very batch (an unload
        // submitted before its target was processed resolves NotResident
        // first, while the load still lands afterwards and must stay
        // addressable).
        if let Outcome::Unloaded { job } | Outcome::NotResident { job } = outcome {
            if self.jobs.get(job).is_some_and(|j| j.pending.is_none()) {
                self.jobs.remove(job);
            }
        }
    }

    /// Re-dispatches a capacity-rejected load to an untried fabric. Returns
    /// whether the load migrated (its outcome is then deferred).
    fn try_migrate(&mut self, job: u64, outcome: &Outcome) -> bool {
        let Some(Job {
            fabric: current,
            pending: Some(pending),
        }) = self.jobs.get(&job)
        else {
            return false;
        };
        let migratable = match outcome {
            Outcome::Rejected {
                reason: RejectReason::NoCapacity,
                ..
            } => true,
            // A load caught in flight by an outage fails with a runtime
            // error on the dead fabric; once that fabric is quarantined
            // the load deserves a surviving fabric, not a drop.
            Outcome::Rejected {
                reason: RejectReason::Runtime(_),
                ..
            } => self.quarantined[*current],
            _ => false,
        };
        // A pending entry always holds its load request.
        let (true, Request::Load { task, .. }) = (migratable, &pending.request) else {
            return false;
        };
        Self::fill_statuses(&mut self.statuses, &self.fabrics, &self.quarantined, task);
        self.statuses
            .retain(|s| s.fabric != *current && !pending.tried.contains(&s.fabric));
        if self.statuses.is_empty() {
            return false;
        }
        let target = self.statuses[self.policy.choose(&self.statuses)].fabric;
        self.telemetry
            .event(EventKind::Migrate, FLEET_FABRIC, job, target as u64);
        self.fabrics[target].enqueue(job, pending.request.clone());
        if let Some(Job {
            fabric,
            pending: Some(pending),
        }) = self.jobs.get_mut(&job)
        {
            pending.tried.push(std::mem::replace(fabric, target));
        }
        self.metrics.migrations += 1;
        true
    }

    /// One processing round: every fabric with queued work runs its queue
    /// on the caller's thread, in fabric order. Returns the `(job,
    /// outcome)` pairs in that order.
    fn process_round(&mut self) -> Vec<(u64, Outcome)> {
        let mut round = Vec::new();
        for sched in &mut self.fabrics {
            if sched.queued_len() > 0 {
                round.extend(sched.process_pending_tagged());
            }
        }
        round
    }
}
