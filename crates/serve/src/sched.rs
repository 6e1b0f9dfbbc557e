//! The scheduling core of the serving front.
//!
//! The discrete-event simulation ([`crate::cluster::sim`]: `se cluster`'s
//! N instances, and `se serve` as the 1-instance cluster) makes every
//! admission, routing, batch-formation, residency, and failure-injection
//! decision through the one state machine here, `ClusterCore`, driven
//! from a serial loop. Every decision is a pure function of the arrival
//! order, the service tables, and the scripted fault plan (never of
//! wall-clock time), which is what makes serving output bit-identical for
//! any worker count.
//!
//! The core advances a *virtual* clock: `ClusterCore::admit` routes one
//! arrival into an instance queue (or bounces it off the cap),
//! `ClusterCore::launch` forms and launches the earliest pending batch
//! (the `Launch` that `ClusterCore::pending_launch` found and the driver
//! chose), whose completion time is known at launch (execution latencies
//! come from pre-computed batch tables), and
//! `ClusterCore::apply_next_fault` fires the next scripted membership
//! change ([`crate::fault::FaultPlan`]): a kill re-routes the dead
//! instance's in-flight and queued requests with their original arrival
//! and deadline intact, a restart brings the instance back empty with a
//! cold weight store. The drivers `drive_open_loop` and
//! `drive_closed_loop` encode the one legal interleaving of those
//! operations: a due fault fires before anything else at its cycle, and
//! an arrival is admitted before any batch that would launch at or after
//! its arrival time.
//!
//! Each instance keeps its waiting requests in EDF order, one sorted ring
//! buffer per model ordered by `(deadline or u64::MAX, arrival, id)`: an
//! arrival that sorts last is a `push_back`, anything else (a re-routed
//! kill victim, an earlier deadline) is inserted at its sorted position.
//! The next batch is read straight off them: its model is the minimum of
//! at most M queue heads, its members are that queue's first `max_batch`
//! entries, and the launch pops them off the front. Each instance keeps
//! that next launch as `(start, model)` and refreshes it only where the
//! instance changes: an admission or re-route into it and a launch from
//! it. A kill clears it (nothing launches from a down instance), which a
//! restart leaves as it is, since the instance comes back empty; a
//! spawned instance starts with none, and a drain does not change it. So
//! `ClusterCore::pending_launch` is a minimum over N kept values.
//!
//! The core counts each decision into the one [`ClusterReport`] where it
//! makes it (a rejection at admission, a loss at a kill, latencies and
//! batch sizes at launch, a membership change as its `se_obs` event),
//! and `ClusterCore::finish` hands that report back.
//!
//! Residency is one model: an instance owns an optional
//! [`TieredStore`] (`None` = every batch streams its weights; a
//! `--buffer-kb` buffer is the two-tier stack of that buffer over the
//! lane's DRAM), and every miss is charged its tier walk. A flat run is a
//! tiered run over that stack; only the printed tier lines and the
//! reports built from them key on [`ClusterSpec::tiers`].

use std::collections::VecDeque;

use crate::cluster::router::InstanceView;
use crate::cluster::sim::{ClusterReport, ClusterSpec, InstanceSummary, ModelService};
use crate::fault::FaultAction;
use crate::queue::BatchPolicy;
use crate::workload::Request;
use crate::{BoxError, Result};
use se_hw::residency::{TierAdmission, TierSpec, TierStats, TieredStore};
use se_obs::{Event, EventKind, EventSink};

/// A queued request plus its issue order (the final EDF tie-breaker and
/// the identity the determinism contract is stated over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    /// Arrival sequence number (stamped by the driver in arrival order,
    /// counting every arrival including later-rejected ones).
    id: usize,
    /// The request itself.
    req: Request,
    /// The cycle the request joined its *current* queue: the arrival for
    /// a first admission, the kill cycle for a re-routed victim (whose
    /// original `req.arrival` — and so its latency and deadline clock —
    /// is untouched). Batch formation cannot start a batch before its
    /// members are physically enqueued.
    enqueued_at: u64,
}

impl Queued {
    /// EDF ordering key: earliest deadline first (`None` = best effort,
    /// after every deadline), then arrival, then issue order. With no
    /// deadlines anywhere this is exactly FIFO.
    fn key(&self) -> (u64, u64, usize) {
        (self.req.deadline.unwrap_or(u64::MAX), self.req.arrival, self.id)
    }
}

/// A fresh (empty) weight store for one instance: the `--tiers` stack;
/// the flat `--buffer-kb` buffer over the lane's DRAM, an origin no model
/// outgrows read at the bandwidth the services share (`validate` checks
/// it), so a miss walks one crossing at that bandwidth; or `None` when
/// residency modeling is off.
fn fresh_store(spec: &ClusterSpec, services: &[ModelService]) -> Option<TieredStore> {
    let stack = match (&spec.tiers, spec.buffer_bytes) {
        (Some(tiers), _) => tiers.clone(),
        (None, Some(bytes)) => {
            let bw = services[0].dram_bytes_per_cycle;
            vec![TierSpec::new("buf", bytes, bw), TierSpec::new("dram", u64::MAX, bw)]
        }
        (None, None) => return None,
    };
    Some(TieredStore::new(stack))
}

/// One instance's private state. Its waiting requests are kept in EDF
/// order, one queue per model, so the next batch is read off the queue
/// heads ([`Instance::next_batch`]) and kept in `next` until the
/// instance changes.
struct Instance {
    /// Waiting requests, `queues[model]` strictly ascending by
    /// [`Queued::key`].
    queues: Vec<VecDeque<Queued>>,
    /// Requests waiting across `queues`: the depth routing, the queue
    /// cap and autoscale read.
    waiting: usize,
    free: u64,
    /// The batch this instance launches next as `(start, model)`:
    /// [`Instance::next_batch`] as of its last change, `None` when
    /// nothing waits (always so while the instance is killed).
    next: Option<(u64, usize)>,
    /// Weight store (`None` = residency modeling off).
    store: Option<TieredStore>,
    /// Batch and completion counts; residency and tier traffic are read
    /// off `store` once, at [`ClusterCore::finish`].
    summary: InstanceSummary,
    /// `false` when killed *or* draining (an autoscaled instance told to
    /// stop accepting; it still launches until its queue empties). A
    /// killed instance, between its kill and its restart, has empty
    /// queues and no kept launch, so it never launches either.
    accepting: bool,
    /// Spawned by autoscale (drain only ever retires these).
    dynamic: bool,
    /// Members of an in-flight batch doomed by a pending kill, parked
    /// here between the launch and the kill event that re-routes them.
    doomed: Vec<Queued>,
}

impl Instance {
    /// A fresh (empty, cold) instance serving `services`, free from
    /// `free`.
    fn fresh(spec: &ClusterSpec, services: &[ModelService], free: u64, dynamic: bool) -> Instance {
        Instance {
            queues: vec![VecDeque::new(); services.len()],
            waiting: 0,
            free,
            next: None,
            store: fresh_store(spec, services),
            summary: InstanceSummary::default(),
            accepting: true,
            dynamic,
            doomed: Vec::new(),
        }
    }

    /// The batch this instance would launch next, as `(start, model)`:
    /// the model of the EDF-minimum head, whose queue's first
    /// `max_batch` entries are the members. `None` when nothing waits.
    fn next_batch(&self, policy: &BatchPolicy) -> Option<(u64, usize)> {
        let (_, model, head) = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(model, queue)| queue.front().map(|q| (q.key(), model, q)))
            .min_by_key(|&(key, _, _)| key)?;
        let queue = &self.queues[model];
        let start = if queue.len() >= policy.max_batch {
            // Full batch: ready as soon as its last member is enqueued
            // (= its arrival, or the kill cycle for a re-routed victim).
            let last_enqueued =
                queue.range(..policy.max_batch).map(|q| q.enqueued_at).max().unwrap_or(0);
            self.free.max(last_enqueued)
        } else {
            // Short batch: wait out the head-of-line request's patience.
            self.free.max(head.enqueued_at.saturating_add(policy.max_wait))
        };
        Some((start, model))
    }

    /// Queues `item` in EDF order: appended when it sorts last (every
    /// first arrival of a uniform-deadline stream), else inserted at its
    /// sorted position.
    fn push(&mut self, item: Queued) {
        let queue = &mut self.queues[item.req.model];
        let key = item.key();
        if queue.back().is_none_or(|last| last.key() < key) {
            queue.push_back(item);
        } else {
            let at = queue.partition_point(|q| q.key() < key);
            queue.insert(at, item);
        }
        self.waiting += 1;
    }
}

/// A batch launch the scheduler found pending: `instance` starts a batch
/// of `model` at cycle `start`. The drivers read it to order the launch
/// against arrivals and faults, then hand it to [`ClusterCore::launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Launch {
    pub start: u64,
    pub instance: usize,
    pub model: usize,
}

/// The incremental cluster scheduler: instance queues, weight buffers,
/// batch formation, and scripted churn, advanced one admission, launch,
/// or fault at a time, each counted into the run's report as it is made.
/// Decisions depend only on the admission order and the spec, so any
/// driver that preserves the canonical interleaving (see
/// [`drive_open_loop`]) reproduces the discrete-event simulation exactly.
pub(crate) struct ClusterCore<'a, 'o> {
    services: &'a [ModelService],
    spec: &'a ClusterSpec,
    instances: Vec<Instance>,
    launched: u64,
    /// Next unapplied event in `spec.faults.events`.
    fault_cursor: usize,
    /// The run's outcome, built decision by decision. Per-instance
    /// summaries and the residency totals are filled in by `finish`. It
    /// is the scheduler's own record, never the event sink's, so the
    /// report is the same whether or not the run is traced.
    report: ClusterReport,
    /// Observability sink, kept only when it is enabled (`None` =
    /// tracing off: no event is built). The core runs serially, so the
    /// emitted event stream is byte-identical across worker counts by
    /// construction. The sink borrow has its own lifetime: it outlives
    /// the core without pinning the services borrow (`&mut dyn` is
    /// invariant, so sharing `'a` would force the caller's locals and
    /// sink to live equally long).
    obs: Option<&'o mut dyn EventSink>,
}

impl<'a, 'o> ClusterCore<'a, 'o> {
    /// Builds a core over validated services and spec that narrates its
    /// decisions into `sink` (a disabled sink such as
    /// [`se_obs::NullSink`] turns tracing off).
    ///
    /// # Errors
    ///
    /// Rejects an invalid spec (see [`ClusterSpec::validate`]).
    pub(crate) fn new(
        services: &'a [ModelService],
        spec: &'a ClusterSpec,
        sink: &'o mut dyn EventSink,
    ) -> Result<Self> {
        spec.validate(services)?;
        let instances =
            (0..spec.instances).map(|_| Instance::fresh(spec, services, 0, false)).collect();
        Ok(ClusterCore {
            services,
            spec,
            instances,
            launched: 0,
            fault_cursor: 0,
            report: ClusterReport::default(),
            obs: sink.enabled().then_some(sink),
        })
    }

    /// Records one observability event (no-op when tracing is off).
    fn emit(&mut self, at: u64, kind: EventKind) {
        if let Some(sink) = self.obs.as_mut() {
            sink.record(Event { at, kind });
        }
    }

    /// Logs one membership change (kill, restart, spawn or drain) into
    /// the report and narrates it.
    fn membership(&mut self, at: u64, kind: EventKind) {
        self.emit(at, kind.clone());
        self.report.events.push(Event { at, kind });
    }

    /// The cycle of the next unapplied scripted fault, if any.
    pub(crate) fn next_fault_at(&self) -> Option<u64> {
        self.spec.faults.events.get(self.fault_cursor).map(|e| e.at)
    }

    /// The earliest of the instances' kept launches — ties break toward
    /// the lowest instance index — or `None` when every queue is empty.
    /// Killed instances keep none; draining ones still flush their
    /// queues. A driver hands the launch it chose back to
    /// [`ClusterCore::launch`].
    pub(crate) fn pending_launch(&self) -> Option<Launch> {
        self.instances
            .iter()
            .enumerate()
            .filter_map(|(instance, inst)| {
                let (start, model) = inst.next?;
                Some(Launch { start, instance, model })
            })
            .min_by_key(|l| (l.start, l.instance))
    }

    /// Routes one arrival: ask the policy over the instances' current
    /// state, join or bounce off the bounded queue. Returns `false` when rejected (full
    /// target queue, or no accepting instance), counting the rejection.
    pub(crate) fn admit(&mut self, id: usize, req: Request) -> bool {
        let admitted = self.enqueue(Queued { id, req, enqueued_at: req.arrival }, req.arrival);
        if !admitted {
            self.report.rejected += 1;
            self.emit(req.arrival, EventKind::Rejected { id, model: req.model });
        }
        admitted
    }

    /// The shared admission path of first arrivals and kill re-routes:
    /// run the autoscale spawn check, route over the accepting
    /// instances, join or bounce. `now` is the cycle the request joins
    /// the queue at (arrival or kill cycle).
    fn enqueue(&mut self, mut item: Queued, now: u64) -> bool {
        self.autoscale_spawn(now);
        let model = item.req.model;
        let instances = &self.instances;
        let view = |i: usize| {
            let inst = &instances[i];
            InstanceView {
                queued: inst.waiting,
                // Routing sees top-tier residency only: a model parked in
                // a lower tier still pays a promotion walk.
                resident: inst.store.as_ref().is_some_and(|store| store.is_resident_top(model)),
                accepting: inst.accepting,
            }
        };
        let Some(target) =
            self.spec.router.route_over(item.id as u64, model, instances.len(), view)
        else {
            return false;
        };
        let inst = &mut self.instances[target];
        if inst.waiting >= self.spec.policy.queue_cap {
            return false;
        }
        item.enqueued_at = now;
        inst.push(item);
        inst.next = inst.next_batch(&self.spec.policy);
        if self.obs.is_some() {
            let depth = inst.waiting;
            self.emit(
                now,
                EventKind::Admitted { id: item.id, model: item.req.model, instance: target },
            );
            self.emit(now, EventKind::QueueDepth { instance: target, depth });
        }
        true
    }

    /// The first unapplied kill of `instance` strictly before `done`, if
    /// any — the scripted fate of a batch completing at `done`. (Only
    /// the instance's *next* event can be a kill while it is up, and
    /// every unapplied event fires after the batch's start, so a single
    /// lookup decides.)
    fn next_kill_before(&self, instance: usize, done: u64) -> Option<u64> {
        self.spec.faults.events[self.fault_cursor..]
            .iter()
            .find(|e| e.instance == instance)
            .filter(|e| e.action == FaultAction::Kill && e.at < done)
            .map(|e| e.at)
    }

    /// Fires the next scripted fault. A kill takes its instance down and
    /// re-routes the victims (doomed in-flight members first joined by
    /// the waiting queue, in ascending request id) through the router at
    /// the kill cycle; victims that cannot be placed are counted lost. A
    /// restart brings the instance back empty, free from the restart
    /// cycle, with a cold weight store. No-op when no fault is pending.
    pub(crate) fn apply_next_fault(&mut self) {
        let Some(&event) = self.spec.faults.events.get(self.fault_cursor) else {
            return;
        };
        self.fault_cursor += 1;
        match event.action {
            FaultAction::Kill => {
                let (mut victims, in_flight) = {
                    let inst = &mut self.instances[event.instance];
                    inst.accepting = false;
                    inst.next = None;
                    let mut victims = std::mem::take(&mut inst.doomed);
                    let in_flight = victims.len() as u64;
                    for queue in &mut inst.queues {
                        victims.extend(queue.drain(..));
                    }
                    inst.waiting = 0;
                    (victims, in_flight)
                };
                victims.sort_unstable_by_key(|q| q.id);
                let mut rerouted = 0u64;
                let mut lost = 0u64;
                for victim in victims {
                    if self.enqueue(victim, event.at) {
                        rerouted += 1;
                    } else {
                        lost += 1;
                        self.emit(
                            event.at,
                            EventKind::Lost { id: victim.id, model: victim.req.model },
                        );
                    }
                }
                self.report.rerouted += rerouted;
                self.report.lost += lost;
                // The totals follow the per-victim re-route/loss records.
                self.membership(
                    event.at,
                    EventKind::InstanceKilled {
                        instance: event.instance,
                        in_flight,
                        rerouted,
                        lost,
                    },
                );
            }
            FaultAction::Restart => {
                let obs_on = self.obs.is_some();
                let inst = &mut self.instances[event.instance];
                inst.accepting = true;
                inst.free = event.at;
                // The kill emptied the queues and a down instance accepts
                // nothing, so `next` stays `None`.
                let mut purged = Vec::new();
                if let Some(store) = &mut inst.store {
                    store.cold_restart(event.instance, &mut |kind| {
                        if obs_on {
                            purged.push(kind);
                        }
                    });
                }
                self.membership(
                    event.at,
                    EventKind::InstanceRestarted { instance: event.instance },
                );
                // The purge follows the restart it belongs to: the trace
                // reads "instance came back, and these weights were lost".
                for kind in purged {
                    self.emit(event.at, kind);
                }
            }
        }
    }

    /// Spawns a fresh instance when the accepting queues exceed the
    /// autoscale high-water mark (checked at every admission), up to
    /// twice the base cluster size.
    fn autoscale_spawn(&mut self, now: u64) {
        let Some(auto) = self.spec.faults.autoscale else { return };
        if self.instances.len() >= 2 * self.spec.instances {
            return;
        }
        let accepting = self.instances.iter().filter(|i| i.accepting).count() as u64;
        let queued: u64 =
            self.instances.iter().filter(|i| i.accepting).map(|i| i.waiting as u64).sum();
        if queued > auto.spawn_above.saturating_mul(accepting) {
            let instance = self.instances.len();
            self.instances.push(Instance::fresh(self.spec, self.services, now, true));
            self.membership(now, EventKind::InstanceSpawned { instance });
        }
    }

    /// Retires the highest-indexed accepting autoscaled instance when the
    /// accepting queues fall under the low-water mark (checked at every
    /// launch). The drained instance flushes its queue and idles; base
    /// instances are never drained.
    fn autoscale_drain(&mut self, now: u64) {
        let Some(auto) = self.spec.faults.autoscale else { return };
        let accepting = self.instances.iter().filter(|i| i.accepting).count() as u64;
        let queued: u64 =
            self.instances.iter().filter(|i| i.accepting).map(|i| i.waiting as u64).sum();
        if queued < auto.drain_below.saturating_mul(accepting) {
            if let Some(instance) = self.instances.iter().rposition(|i| i.dynamic && i.accepting) {
                self.instances[instance].accepting = false;
                self.membership(now, EventKind::InstanceDraining { instance });
            }
        }
    }

    /// Launches the batch `launch` names, which must be the current
    /// [`ClusterCore::pending_launch`]: admits the model's weights,
    /// charges the batch (plus any miss's tier walk), records its members'
    /// latencies, pops them off the front of their queue, and returns the
    /// batch's `(completion cycle, size)`. A batch overlapping a scripted
    /// kill of its instance is counted killed and its members are parked
    /// for re-routing instead of completing.
    pub(crate) fn launch(&mut self, launch: Launch) -> (u64, usize) {
        let Launch { start, instance: idx, model } = launch;
        let spec = self.spec;
        let services = self.services;
        let obs_on = self.obs.is_some();
        // Tier events generated inside the store's admission (demotions
        // are only visible there); replayed into the sink once the
        // instance borrow ends.
        let mut tier_notes: Vec<EventKind> = Vec::new();
        let inst = &mut self.instances[idx];
        let k = inst.queues[model].len().min(spec.policy.max_batch);
        let svc = &services[model];
        let exec = match &mut inst.store {
            None => svc.streamed[k - 1],
            Some(store) => {
                let admission = store.admit(model, svc.footprint_bytes, idx, &mut |kind| {
                    if obs_on {
                        tier_notes.push(kind);
                    }
                });
                match admission {
                    TierAdmission::Hit => svc.resident[k - 1],
                    // A miss serializes its walk through every crossed
                    // tier in front of the batch.
                    walk @ (TierAdmission::Promoted { .. } | TierAdmission::Cold { .. }) => {
                        walk.cycles() + svc.resident[k - 1]
                    }
                    // A stream pays its deep haul (0 cycles in one or two
                    // tiers) on top of the per-batch-fetch table, whose
                    // fetch models the final staging-tier crossing.
                    walk @ TierAdmission::Streamed { .. } => walk.cycles() + svc.streamed[k - 1],
                }
            }
        };
        let done = start.saturating_add(exec);
        inst.free = done;
        inst.summary.batches += 1;
        let killed_at = self.next_kill_before(idx, done);
        let inst = &mut self.instances[idx];
        // The members stay at the queue's front until the batch is
        // recorded, and are popped after it.
        let members = inst.queues[model].range(..k);
        let report = &mut self.report;
        if killed_at.is_some() {
            // The kill fires before this batch completes: its members
            // never finish here. Park them for the kill to re-route.
            assert!(inst.doomed.is_empty(), "one in-flight batch per kill");
            inst.doomed.extend(members);
            report.killed_batches += 1;
        } else {
            inst.summary.completed += k as u64;
            for m in members {
                report.latencies.push(done - m.req.arrival);
                report.misses += u64::from(m.req.deadline.is_some_and(|d| done > d));
            }
            report.batch_sizes.push(k);
            report.makespan = report.makespan.max(done);
        }
        let seq = self.launched;
        self.launched += 1;
        if let Some(sink) = self.obs.as_mut() {
            let mut emit = |at, kind| sink.record(Event { at, kind });
            for kind in tier_notes {
                emit(start, kind);
            }
            emit(start, EventKind::BatchFormed { seq, instance: idx, model, size: k });
            emit(start, EventKind::BatchLaunched { seq, instance: idx, model, size: k, done });
            if let Some(at) = killed_at {
                emit(at, EventKind::BatchKilled { seq, instance: idx });
            } else {
                for m in self.instances[idx].queues[model].range(..k) {
                    emit(
                        done,
                        EventKind::Served {
                            id: m.id,
                            model,
                            instance: idx,
                            batch: seq,
                            enqueued: m.enqueued_at,
                            latency: done.saturating_sub(m.req.arrival),
                            missed: m.req.deadline.is_some_and(|d| done > d),
                        },
                    );
                }
                emit(done, EventKind::BatchCompleted { seq, instance: idx, size: k });
            }
        }
        let inst = &mut self.instances[idx];
        inst.queues[model].drain(..k);
        inst.waiting -= k;
        inst.next = inst.next_batch(&spec.policy);
        self.autoscale_drain(start);
        (done, k)
    }

    /// Tears the core down into the run's report: each instance's
    /// residency counters and per-tier traffic are read off its store
    /// once and summed into the cluster totals. An instance that never
    /// launched reports no tier traffic.
    pub(crate) fn finish(self) -> ClusterReport {
        let mut report = self.report;
        for inst in self.instances {
            let mut summary = inst.summary;
            if let Some(store) = &inst.store {
                summary.residency = *store.summary();
                if summary.batches > 0 {
                    summary.tier_traffic = store.tier_stats().to_vec();
                }
            }
            report.residency.accumulate(&summary.residency);
            if report.tier_traffic.len() < summary.tier_traffic.len() {
                report.tier_traffic.resize(summary.tier_traffic.len(), TierStats::default());
            }
            for (agg, tier) in report.tier_traffic.iter_mut().zip(&summary.tier_traffic) {
                agg.accumulate(tier);
            }
            report.per_instance.push(summary);
        }
        report
    }
}

#[cfg(test)]
impl ClusterCore<'_, '_> {
    /// The pending launch as `(start, instance)`.
    fn next_launch(&self) -> Option<(u64, usize)> {
        self.pending_launch().map(|l| (l.start, l.instance))
    }

    /// Launches the pending batch, if any, as `(completion cycle, size)`.
    fn launch_next(&mut self) -> Option<(u64, usize)> {
        let launch = self.pending_launch()?;
        Some(self.launch(launch))
    }
}

/// Drives `core` over an **open-loop** arrival stream (pre-stamped `(id,
/// request)` pairs in non-decreasing arrival order) to a full drain, in
/// the canonical order: a scripted fault due at or before the next
/// arrival and the next launch fires first (so a kill pre-empts a batch
/// launching at the kill cycle, and a restart is visible to a same-cycle
/// arrival); otherwise an arrival is admitted before any batch launching
/// at or after its arrival time — exactly the event interleaving of the
/// discrete-event simulation. Faults scripted after the last launch
/// still fire.
pub(crate) fn drive_open_loop<I>(core: &mut ClusterCore<'_, '_>, arrivals: I)
where
    I: IntoIterator<Item = (usize, Request)>,
{
    let mut it = arrivals.into_iter();
    let mut pending = it.next();
    loop {
        let next_launch = core.pending_launch();
        if let Some(fault_at) = core.next_fault_at() {
            let beats_arrival = pending.is_none_or(|(_, req)| fault_at <= req.arrival);
            let beats_launch = next_launch.is_none_or(|l| fault_at <= l.start);
            if beats_arrival && beats_launch {
                core.apply_next_fault();
                continue;
            }
        }
        match (pending, next_launch) {
            (None, None) => return,
            // Arrivals landing before (or exactly when) the next batch
            // closes are admitted first — they may fill a batch and pull
            // its start in.
            (Some((id, req)), nl) if nl.is_none_or(|l| req.arrival <= l.start) => {
                core.admit(id, req);
                pending = it.next();
            }
            (_, Some(launch)) => {
                core.launch(launch);
            }
            (Some(_), None) => unreachable!("the guard admits arrivals when no launch pends"),
        }
    }
}

/// Drives `core` over a **closed-loop** workload: `concurrency` clients
/// each keep exactly one request in flight (model 0, no deadlines),
/// submitting the next the moment the previous completes, until
/// `requests` total have been issued. The caller's spec must lift the
/// queue cap (closed loops are bounded by their concurrency, not the
/// queue) and must not script faults — closed-loop arrivals are derived
/// from completions, which failure injection would sever.
///
/// # Errors
///
/// A rejected admission: the spec broke that contract.
pub(crate) fn drive_closed_loop(
    core: &mut ClusterCore<'_, '_>,
    requests: usize,
    concurrency: usize,
) -> Result<()> {
    // All future arrivals, kept sorted: completions append arrivals with
    // time >= every queued entry, so a plain FIFO stays sorted.
    let mut issued = concurrency.min(requests);
    let mut pending: VecDeque<u64> = std::iter::repeat_n(0u64, issued).collect();
    let mut next_id = 0usize;
    loop {
        match (pending.front().copied(), core.pending_launch()) {
            (None, None) => return Ok(()),
            (Some(arrival), nl) if nl.is_none_or(|l| arrival <= l.start) => {
                if !core.admit(next_id, Request { model: 0, arrival, deadline: None }) {
                    return Err(BoxError::from(format!(
                        "closed-loop request {next_id} was rejected at cycle {arrival}: a \
                         closed loop needs an uncapped queue and no fault plan"
                    )));
                }
                pending.pop_front();
                next_id += 1;
            }
            (_, Some(launch)) => {
                // Each completed request unblocks its client, which
                // immediately submits the next request.
                let (done, size) = core.launch(launch);
                let more = size.min(requests - issued);
                pending.extend(std::iter::repeat_n(done, more));
                issued += more;
            }
            (Some(_), None) => unreachable!("the guard admits arrivals when no launch pends"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::router::RouterPolicy;
    use crate::fault::{AutoscalePolicy, FaultEvent, FaultPlan};
    use proptest::prelude::*;
    use se_obs::Recorder;

    fn svc(exec: &[u64]) -> ModelService {
        ModelService {
            name: "m".into(),
            streamed: exec.to_vec(),
            resident: exec.to_vec(),
            footprint_bytes: 0,
            dram_bytes_per_cycle: 64.0,
        }
    }

    fn spec(max_batch: usize, max_wait: u64, cap: usize) -> ClusterSpec {
        ClusterSpec {
            instances: 1,
            router: RouterPolicy::RoundRobin,
            policy: BatchPolicy { max_batch, max_wait, queue_cap: cap },
            buffer_bytes: None,
            tiers: None,
            faults: FaultPlan::default(),
        }
    }

    /// Drives a traced core over model-0 arrivals: the report plus the
    /// event stream the core narrated.
    fn drive(
        services: &[ModelService],
        spec: &ClusterSpec,
        arrivals: &[u64],
    ) -> (ClusterReport, Vec<Event>) {
        let mut recorder = Recorder::new();
        let mut core = ClusterCore::new(services, spec, &mut recorder).unwrap();
        drive_open_loop(
            &mut core,
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &a)| (i, Request { model: 0, arrival: a, deadline: None })),
        );
        let report = core.finish();
        (report, recorder.into_events())
    }

    /// `(seq, instance, start, done)` of every launched batch, in launch
    /// order.
    fn launches(events: &[Event]) -> Vec<(u64, usize, u64, u64)> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchLaunched { seq, instance, done, .. } => {
                    Some((seq, instance, e.at, done))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn open_loop_emits_batches_in_launch_order_with_seq() {
        let services = [svc(&[10, 12, 14, 16])];
        let (report, events) = drive(&services, &spec(4, 0, 8), &[0, 0, 0, 0, 0, 0]);
        assert_eq!(launches(&events), vec![(0, 0, 0, 16), (1, 0, 16, 16 + 12)]);
        assert_eq!(report.batch_sizes, vec![4, 2]);
        assert_eq!(report.latencies, vec![16, 16, 16, 16, 28, 28]);
        assert_eq!(report.makespan, 28);
        assert_eq!(report.killed_batches, 0);
        assert_eq!(report.per_instance[0].batches, 2);
        assert_eq!(report.per_instance[0].completed, 6);
        assert!(report.events.is_empty());
    }

    /// `(model, member ids, start)` of the batch `inst` launches next by
    /// the flat rule the ordered queues replace: the EDF minimum over
    /// every waiting request picks the model, that model's requests
    /// sorted by key and cut at `max_batch` are the members, and a full
    /// batch starts once its last member is enqueued, a short one when
    /// the head's wait runs out.
    fn flat_batch(inst: &Instance, policy: &BatchPolicy) -> Option<(usize, Vec<usize>, u64)> {
        let edf = |q: &Queued| (q.req.deadline.unwrap_or(u64::MAX), q.req.arrival, q.id);
        let waiting: Vec<Queued> = inst.queues.iter().flatten().copied().collect();
        let head = *waiting.iter().min_by_key(|q| edf(q))?;
        let mut members: Vec<Queued> =
            waiting.into_iter().filter(|q| q.req.model == head.req.model).collect();
        members.sort_by_key(edf);
        members.truncate(policy.max_batch);
        let start = if members.len() >= policy.max_batch {
            inst.free.max(members.iter().map(|q| q.enqueued_at).max().unwrap_or(0))
        } else {
            inst.free.max(head.enqueued_at.saturating_add(policy.max_wait))
        };
        Some((head.req.model, members.iter().map(|q| q.id).collect(), start))
    }

    /// The same triple from the kept launch and the ordered queues.
    fn ordered_batch(inst: &Instance, policy: &BatchPolicy) -> Option<(usize, Vec<usize>, u64)> {
        let (start, model) = inst.next?;
        let members = inst.queues[model].iter().take(policy.max_batch).map(|q| q.id).collect();
        Some((model, members, start))
    }

    /// Every instance's queues hold each request in its model's queue,
    /// strictly ascending by key, counted in `waiting`; every instance's
    /// kept launch matches the flat rule (none on a killed instance,
    /// whose queues are empty), and so does the cluster's.
    fn check(core: &ClusterCore<'_, '_>) -> std::result::Result<(), TestCaseError> {
        let policy = &core.spec.policy;
        for inst in &core.instances {
            let mut waiting = 0;
            for (model, queue) in inst.queues.iter().enumerate() {
                for q in queue {
                    prop_assert!(q.req.model == model);
                    prop_assert!(q.enqueued_at >= q.req.arrival);
                }
                let keys: Vec<_> = queue.iter().map(Queued::key).collect();
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted queue {:?}", keys);
                waiting += queue.len();
            }
            prop_assert_eq!(inst.waiting, waiting);
            prop_assert_eq!(ordered_batch(inst, policy), flat_batch(inst, policy));
        }
        let flat_launch = (core.instances.iter().enumerate())
            .filter_map(|(i, inst)| flat_batch(inst, policy).map(|(_, _, start)| (start, i)))
            .min();
        prop_assert_eq!(core.next_launch(), flat_launch);
        Ok(())
    }

    /// Ids waiting on `inst`, ascending.
    fn waiting_ids(inst: &Instance) -> Vec<usize> {
        let mut ids: Vec<usize> = inst.queues.iter().flatten().map(|q| q.id).collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random three-model streams, with and without deadlines (equal
        /// deadlines and equal arrivals included), routed over two
        /// instances through launches, a kill whose victims re-enqueue
        /// after their arrival, a restart, and (when `autoscale` > 0)
        /// spawns and drains: before every step the kept launches and
        /// the ordered queues agree with the flat rule, and every launch
        /// pops exactly the flat rule's members.
        #[test]
        fn ordered_queues_match_the_flat_edf_rule(
            gaps in collection::vec(0u64..40, 1..80),
            models in collection::vec(0usize..3, 80..81),
            budgets in collection::vec(0u64..4, 80..81),
            router in 0usize..3,
            max_batch in 1usize..5,
            max_wait in 0u64..60,
            queue_cap in 1usize..16,
            kill_at in 1u64..1500,
            restart_after in 1u64..800,
            autoscale in 0u64..4,
        ) {
            let services = [svc(&[30, 34, 38, 42]), svc(&[20, 26, 32, 38]), svc(&[50, 51, 52, 53])];
            let mut sp = spec(max_batch, max_wait, queue_cap);
            sp.instances = 2;
            sp.router = [RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue, RouterPolicy::ModelAffinity][router];
            sp.faults.events = vec![
                FaultEvent { at: kill_at, instance: 0, action: FaultAction::Kill },
                FaultEvent { at: kill_at + restart_after, instance: 0, action: FaultAction::Restart },
            ];
            sp.faults.autoscale = (autoscale > 0)
                .then_some(AutoscalePolicy { spawn_above: autoscale, drain_below: autoscale / 2 });
            let mut arrival = 0;
            let requests: Vec<Request> = gaps
                .iter()
                .zip(&models)
                .zip(&budgets)
                .map(|((&gap, &model), &budget)| {
                    arrival += gap;
                    // Budget 0 is best effort; the rest collide often.
                    Request { model, arrival, deadline: (budget > 0).then_some(arrival + 100 * budget) }
                })
                .collect();
            let mut sink = se_obs::NullSink;
            let mut core = ClusterCore::new(&services, &sp, &mut sink).unwrap();
            let mut pending = requests.iter().copied().enumerate().peekable();
            // The canonical interleaving of `drive_open_loop`, checked
            // before every step.
            loop {
                check(&core)?;
                let next_launch = core.next_launch();
                if let Some(fault_at) = core.next_fault_at() {
                    if pending.peek().is_none_or(|(_, r)| fault_at <= r.arrival)
                        && next_launch.is_none_or(|(start, _)| fault_at <= start)
                    {
                        core.apply_next_fault();
                        continue;
                    }
                }
                match (pending.peek().copied(), next_launch) {
                    (None, None) => break,
                    (Some((id, req)), nl) if nl.is_none_or(|(start, _)| req.arrival <= start) => {
                        core.admit(id, req);
                        pending.next();
                    }
                    (_, Some((_, idx))) => {
                        let inst = &core.instances[idx];
                        let (_, members, _) = flat_batch(inst, &sp.policy).unwrap();
                        let mut left = waiting_ids(inst);
                        left.retain(|id| !members.contains(id));
                        let (_, size) = core.launch_next().unwrap();
                        prop_assert_eq!(size, members.len());
                        prop_assert_eq!(waiting_ids(&core.instances[idx]), left);
                    }
                    (Some(_), None) => unreachable!("the guard admits arrivals when no launch pends"),
                }
            }
            prop_assert!(core.finish().conserves(requests.len()));
        }
    }

    #[test]
    fn kill_victims_insert_into_the_middle_of_a_survivors_queue() {
        // Round-robin over two instances, nothing launches before the
        // kill at 10: instance 1 holds deadlines 100 and 300, and instance
        // 0's victims (deadlines 200 and 250) land between them.
        let services = [svc(&[10, 12, 14, 16])];
        let mut sp = spec(4, 1000, 8);
        sp.instances = 2;
        sp.faults.events = vec![FaultEvent { at: 10, instance: 0, action: FaultAction::Kill }];
        let mut sink = se_obs::NullSink;
        let mut core = ClusterCore::new(&services, &sp, &mut sink).unwrap();
        for (id, deadline) in [200, 100, 250, 300].into_iter().enumerate() {
            assert!(core.admit(id, Request { model: 0, arrival: 0, deadline: Some(deadline) }));
        }
        let ids = |core: &ClusterCore<'_, '_>| -> Vec<usize> {
            core.instances[1].queues[0].iter().map(|q| q.id).collect()
        };
        assert_eq!(ids(&core), vec![1, 3]);
        assert_eq!(core.next_launch(), Some((1000, 0)), "two short batches wait out max_wait");
        core.apply_next_fault();
        assert_eq!(ids(&core), vec![1, 0, 2, 3], "victims sort between the survivors");
        assert_eq!(core.instances[0].next, None, "a killed instance keeps no launch");
        // Four waiting make a full batch, ready once the victims join.
        assert_eq!(core.next_launch(), Some((10, 1)));
        assert_eq!(core.launch_next(), Some((10 + 16, 4)));
        assert!(ids(&core).is_empty());
        assert_eq!(core.next_launch(), None);
    }

    #[test]
    fn kill_fails_the_in_flight_batch_and_reroutes_with_original_arrival() {
        // Two instances, round-robin. A burst at 0 launches a batch on
        // each; instance 0 dies at cycle 5, mid-flight. Its members (and
        // nothing of instance 1's) must re-route to instance 1 with their
        // original arrival intact.
        let services = [svc(&[10, 12])];
        let mut sp = spec(2, 0, 8);
        sp.instances = 2;
        sp.faults.events = vec![FaultEvent { at: 5, instance: 0, action: FaultAction::Kill }];
        let (report, events) = drive(&services, &sp, &[0, 0, 0, 0]);
        // Batch on instance 0 (ids 0, 2) is killed at 5; instance 1's
        // batch (ids 1, 3) completes; the victims re-run on instance 1.
        let killed: Vec<(u64, usize, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchKilled { seq, instance } => Some((seq, instance, e.at)),
                _ => None,
            })
            .collect();
        assert_eq!(killed, vec![(0, 0, 5)]);
        assert_eq!(report.killed_batches, 1);
        // (id, instance, enqueued, latency) of every completion.
        let mut served: Vec<(usize, usize, u64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Served { id, instance, enqueued, latency, .. } => {
                    Some((id, instance, enqueued, latency))
                }
                _ => None,
            })
            .collect();
        served.sort_unstable();
        let ids: Vec<usize> = served.iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "every request completes exactly once");
        // Re-routed members keep their original arrival (latency clock)
        // but re-enqueue at the kill cycle.
        for &(id, instance, enqueued, latency) in &served {
            assert_eq!(instance, 1, "request {id} completes on the survivor");
            if id % 2 == 0 {
                let done = launches(&events).last().unwrap().3;
                assert_eq!(enqueued, 5, "request {id} re-enqueues at the kill");
                assert_eq!(latency, done, "request {id} keeps its arrival at 0");
            }
        }
        assert_eq!(
            report.events,
            vec![Event {
                at: 5,
                kind: EventKind::InstanceKilled { instance: 0, in_flight: 2, rerouted: 2, lost: 0 }
            }]
        );
        assert_eq!(report.rerouted, 2);
        assert_eq!(report.per_instance[0].completed, 0, "killed batch completes nothing");
        assert_eq!(report.per_instance[0].batches, 1);
    }

    #[test]
    fn victims_with_nowhere_to_go_are_lost_not_dropped() {
        // One instance, killed while requests wait: no accepting instance
        // remains, so every victim is lost.
        let services = [svc(&[100])];
        let mut sp = spec(1, 0, 8);
        sp.faults.events = vec![FaultEvent { at: 50, instance: 0, action: FaultAction::Kill }];
        let (report, events) = drive(&services, &sp, &[0, 0, 0]);
        let lost: Vec<(usize, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Lost { id, .. } => Some((id, e.at)),
                _ => None,
            })
            .collect();
        assert_eq!(lost, vec![(0, 50), (1, 50), (2, 50)], "in-flight + queued, by id");
        assert_eq!(report.lost, 3);
        assert!(report.conserves(3));
        assert_eq!(
            report.events[0].kind,
            EventKind::InstanceKilled { instance: 0, in_flight: 1, rerouted: 0, lost: 3 }
        );
    }

    #[test]
    fn restart_rejoins_empty_and_serves_again() {
        // Kill at 5, restart at 40: the late arrival at 60 must be served
        // by the restarted instance.
        let services = [svc(&[10])];
        let mut sp = spec(1, 0, 8);
        sp.faults.events = vec![
            FaultEvent { at: 5, instance: 0, action: FaultAction::Kill },
            FaultEvent { at: 40, instance: 0, action: FaultAction::Restart },
        ];
        let (report, events) = drive(&services, &sp, &[0, 60]);
        assert_eq!(report.lost, 1, "the request in flight at the kill is lost");
        assert_eq!(report.killed_batches, 1);
        assert_eq!(report.latencies, vec![10], "the restarted instance serves the late arrival");
        assert_eq!(launches(&events)[1..], [(1, 0, 60, 70)]);
        // An arrival during the outage is rejected (nothing accepting).
        let (report, events) = drive(&services, &sp, &[0, 20]);
        assert_eq!(report.rejected, 1);
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::Rejected { id: 1, .. })));
    }

    #[test]
    fn autoscale_spawns_under_pressure_and_drains_when_idle() {
        let services = [svc(&[10, 12, 14, 16])];
        let mut sp = spec(4, 0, 64);
        sp.faults.autoscale = Some(AutoscalePolicy { spawn_above: 2, drain_below: 1 });
        // A burst of 8 at cycle 0: more than 2 queued per accepting
        // instance triggers a spawn (capped at 2x base = 2 instances).
        let arrivals = [0u64, 0, 0, 0, 0, 0, 0, 0, 500, 501];
        let (report, _) = drive(&services, &sp, &arrivals);
        assert_eq!(report.completed(), 10, "nothing is lost to elasticity");
        let kinds: Vec<&EventKind> = report.events.iter().map(|e| &e.kind).collect();
        assert!(
            kinds.contains(&&EventKind::InstanceSpawned { instance: 1 }),
            "burst spawned an instance: {kinds:?}"
        );
        assert!(
            kinds.contains(&&EventKind::InstanceDraining { instance: 1 }),
            "idle period drained it again: {kinds:?}"
        );
        assert_eq!(report.per_instance.len(), 2, "spawned instance reports a summary");
    }

    #[test]
    fn closed_loop_errors_on_a_rejected_admission() {
        // A capped queue bounces the third client: the driver reports the
        // broken contract instead of silently serving fewer requests.
        let services = [svc(&[10, 12])];
        let sp = spec(2, 0, 2);
        let mut sink = se_obs::NullSink;
        let mut core = ClusterCore::new(&services, &sp, &mut sink).unwrap();
        let err = drive_closed_loop(&mut core, 6, 3).unwrap_err().to_string();
        assert!(err.contains("request 2 was rejected"), "{err}");
    }
}
