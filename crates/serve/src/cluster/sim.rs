//! The sharded cluster front: a deterministic discrete-event simulation of
//! N accelerator instances behind one request stream.
//!
//! Each instance is a single-accelerator server: a bounded waiting queue
//! with a batch aggregator ([`BatchPolicy`]: max-batch / max-wait),
//! executing batches back-to-back. On top of that the cluster adds:
//!
//! * **routing** — every arrival joins one instance's queue, chosen by the
//!   [`RouterPolicy`] from a deterministic snapshot of queue depths and
//!   weight-buffer residency;
//! * **SLO-aware batch formation** — within a queue, requests are ordered
//!   earliest-deadline-first (ties by arrival, then issue order; plain
//!   FIFO when no deadlines are set), and a batch is formed from the
//!   head-of-line request's model only — batches share weights, so they
//!   are single-model by construction. A full batch of another model never
//!   jumps the EDF head;
//! * **weight-buffer residency** — with a finite per-instance buffer
//!   ([`ClusterSpec::buffer_bytes`], a one-tier
//!   [`se_hw::residency::TieredStore`]), each batch first *admits* its
//!   model's weight footprint: a hit runs at the resident batch latency,
//!   a miss serializes the switch fetch in front of it (evicting LRU
//!   models), and an oversized model streams at the per-batch-fetch
//!   latency. With `buffer_bytes: None` every batch streams — exactly the
//!   `se serve` execution model. [`ClusterSpec::tiers`] swaps the flat
//!   buffer for a deeper stack.
//!
//! The whole simulation is a serial event loop over pre-computed latency
//! tables, so its output is bit-identical for any worker count of the
//! surrounding harness. `se serve` is the 1-instance, round-robin,
//! no-residency cluster, run open loop ([`simulate_cluster_run_obs`]) or
//! closed loop ([`simulate_closed_loop`]).
//!
//! Every scheduling decision, and the report that counts them, lives in
//! the [`crate::sched`] core; this module holds the spec, the report
//! shape, and the entry points.

use crate::cluster::router::RouterPolicy;
use crate::engine::BatchEngine;
use crate::fault::FaultPlan;
use crate::queue::BatchPolicy;
use crate::sched::{self, ClusterCore};
use crate::workload::{check_sorted, Request};
use crate::{BoxError, Result};
use se_hw::residency::{fetch_cycles, ResidencyStats, TierSpec, TierStats};
use se_hw::RunResult;
use se_obs::{Event, EventSink, NullSink};

/// One model's execution profile on one accelerator lane — everything the
/// cluster needs to charge its batches, derived from a single per-image
/// simulation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelService {
    /// Model name (for reports).
    pub name: String,
    /// `streamed[k - 1]`: cycles of a batch of `k` with the weight fetch
    /// charged per batch (`BatchEngine::latency_table` — the `se serve`
    /// execution model, used when residency modeling is off or the model
    /// does not fit the buffer).
    pub streamed: Vec<u64>,
    /// `resident[k - 1]`: cycles of a batch of `k` with the weights
    /// already on chip (`BatchEngine::resident_latency_table`).
    pub resident: Vec<u64>,
    /// Whole-model weight footprint in bytes (what a switch re-fetches and
    /// the buffer must hold — `RunResult::weight_footprint_bytes`).
    pub footprint_bytes: u64,
    /// DRAM cycles a model switch serializes in front of its first batch
    /// (`se_hw::residency::fetch_cycles` of the footprint).
    pub switch_cycles: u64,
}

impl ModelService {
    /// Builds the service profile of `per_image` on `lane`, covering
    /// batches up to `max_batch`.
    pub fn from_engine(
        engine: &BatchEngine,
        lane: usize,
        name: &str,
        per_image: &RunResult,
        max_batch: usize,
    ) -> ModelService {
        let footprint_bytes = per_image.weight_footprint_bytes();
        ModelService {
            name: name.to_string(),
            streamed: engine.latency_table(lane, per_image, max_batch),
            resident: engine.resident_latency_table(lane, per_image, max_batch),
            footprint_bytes,
            switch_cycles: fetch_cycles(
                footprint_bytes,
                engine.accelerator(lane).dram_bytes_per_cycle(),
            ),
        }
    }
}

/// Cluster shape and policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Accelerator instances behind the shared front.
    pub instances: usize,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Per-instance batch-formation policy (`queue_cap` bounds each
    /// instance's waiting queue).
    pub policy: BatchPolicy,
    /// Per-instance weight-buffer capacity in bytes; `None` disables
    /// residency modeling (every batch streams its weights, the `se serve`
    /// execution model).
    pub buffer_bytes: Option<u64>,
    /// Per-instance tiered weight store (top tier first, bottom tier the
    /// durable origin — see [`se_hw::residency::TieredStore`]); `None`
    /// keeps the flat buffer above. Mutually exclusive with
    /// `buffer_bytes`: a tier stack *replaces* the flat buffer, charging
    /// each miss its real tier-walk cost instead of the flat
    /// `switch_cycles`, and reporting per-tier traffic.
    pub tiers: Option<Vec<TierSpec>>,
    /// Deterministic failure injection and elasticity script (see
    /// [`crate::fault`]). The default empty plan reproduces a cluster
    /// without churn bit for bit.
    pub faults: FaultPlan,
}

impl ClusterSpec {
    /// Validates the spec against the served model set.
    ///
    /// # Errors
    ///
    /// Rejects an empty cluster, an invalid batch policy, an invalid
    /// fault plan, an empty model set, and service tables shorter than
    /// `max_batch`.
    pub fn validate(&self, services: &[ModelService]) -> Result<()> {
        if self.instances == 0 {
            return Err(BoxError::from("a cluster needs at least one instance"));
        }
        self.policy.validate()?;
        self.faults.validate(self.instances)?;
        if services.is_empty() {
            return Err(BoxError::from("a cluster needs at least one model service"));
        }
        for s in services {
            if s.streamed.len() < self.policy.max_batch || s.resident.len() < self.policy.max_batch
            {
                return Err(BoxError::from(format!(
                    "model {}: service tables cover batches up to {}, policy allows {}",
                    s.name,
                    s.streamed.len().min(s.resident.len()),
                    self.policy.max_batch
                )));
            }
        }
        if let Some(tiers) = &self.tiers {
            if self.buffer_bytes.is_some() {
                return Err(BoxError::from(
                    "tiers and buffer_bytes are mutually exclusive: a tier stack replaces \
                     the flat weight buffer",
                ));
            }
            if tiers.is_empty() {
                return Err(BoxError::from("a tier stack needs at least one tier"));
            }
            for t in tiers {
                if !(t.bytes_per_cycle > 0.0 && t.bytes_per_cycle.is_finite()) {
                    return Err(BoxError::from(format!(
                        "tier {}: bandwidth must be positive and finite",
                        t.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Per-instance outcome summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceSummary {
    /// Batches executed.
    pub batches: u64,
    /// Requests completed.
    pub completed: u64,
    /// Residency counters of this instance's weight store (zeros with
    /// residency modeling off): top-tier hits and any-movement fetches.
    pub residency: ResidencyStats,
    /// Per-tier traffic of this instance's tiered store, top tier first
    /// (empty without `ClusterSpec::tiers`).
    pub tier_traffic: Vec<TierStats>,
}

/// Outcome of one cluster simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterReport {
    /// Per-request latency in cycles, in completion order.
    pub latencies: Vec<u64>,
    /// Executed batch sizes, in launch order across the cluster.
    pub batch_sizes: Vec<usize>,
    /// Arrivals rejected by a full instance queue.
    pub rejected: u64,
    /// Completed requests that finished after their deadline.
    pub misses: u64,
    /// Completion time of the last batch, in cycles.
    pub makespan: u64,
    /// Cluster-wide residency counters (sum over instances).
    pub residency: ResidencyStats,
    /// Cluster-wide per-tier traffic, top tier first (elementwise sum
    /// over instances; empty without `ClusterSpec::tiers`).
    pub tier_traffic: Vec<TierStats>,
    /// Per-instance summaries (spawned instances appended after the base
    /// cluster).
    pub per_instance: Vec<InstanceSummary>,
    /// Membership changes that fired, in the order they fired: the
    /// `InstanceKilled` (with its victim accounting), `InstanceRestarted`,
    /// `InstanceSpawned` and `InstanceDraining` events the core also
    /// narrates into its sink. Logged whether or not the run is traced;
    /// empty without failure injection.
    pub events: Vec<Event>,
    /// In-flight batches failed by an instance kill (their members either
    /// re-routed or were lost; none completed in the failed batch).
    pub killed_batches: u64,
    /// Kill victims re-admitted through the router.
    pub rerouted: u64,
    /// Kill victims that could not be re-routed — a terminal outcome,
    /// never a silent drop.
    pub lost: u64,
}

impl ClusterReport {
    /// Requests served to completion.
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// Mean request latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    /// The `p`-th latency percentile in cycles (the shared nearest-rank
    /// definition, [`se_obs::analyze::percentile`]); `None` when nothing
    /// completed, so an all-rejected/all-lost run is distinguishable from
    /// a zero-latency one.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        se_obs::analyze::percentile(&self.latencies, p)
    }

    /// The conservation law of the serving front: every submitted request
    /// ends in exactly one of completed (on time or late), rejected, or
    /// lost. `true` when the counters account for `submitted` exactly.
    pub fn conserves(&self, submitted: usize) -> bool {
        self.completed() as u64 + self.rejected + self.lost == submitted as u64
    }

    /// Completed requests per second at `frequency_hz`.
    pub fn throughput_per_s(&self, frequency_hz: f64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed() as f64 / (self.makespan as f64 / frequency_hz)
    }

    /// **Goodput**: requests completed *within their deadline* per second
    /// at `frequency_hz` (equals throughput when no deadlines are set).
    pub fn goodput_per_s(&self, frequency_hz: f64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        (self.completed() as u64 - self.misses) as f64 / (self.makespan as f64 / frequency_hz)
    }
}

/// Full result of one cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRun {
    /// Aggregate report (latencies, batch sizes, residency, ...).
    pub report: ClusterReport,
}

/// Checks every request's model index against the service set and the
/// stream's arrival order.
fn validate_requests(requests: &[Request], services: &[ModelService]) -> Result<()> {
    if let Some(r) = requests.iter().find(|r| r.model >= services.len()) {
        return Err(BoxError::from(format!(
            "request targets model {} but only {} services are defined",
            r.model,
            services.len()
        )));
    }
    check_sorted(requests.iter().map(|r| r.arrival))
}

/// Simulates the cluster over an open-loop request stream (arrivals
/// non-decreasing; `model` indexes into `services`). Every scheduling
/// decision is narrated into `sink` as virtual-time [`se_obs::Event`]s;
/// a disabled sink (e.g. [`NullSink`]) builds no events, and the run
/// result is identical either way.
///
/// # Errors
///
/// Rejects an invalid spec, out-of-range model indices, and an unsorted
/// stream (naming the first out-of-order request).
pub fn simulate_cluster_run_obs(
    requests: &[Request],
    services: &[ModelService],
    spec: &ClusterSpec,
    sink: &mut dyn EventSink,
) -> Result<ClusterRun> {
    validate_requests(requests, services)?;
    let mut core = ClusterCore::new(services, spec, sink)?;
    sched::drive_open_loop(&mut core, requests.iter().copied().enumerate());
    Ok(ClusterRun { report: core.finish() })
}

/// Simulates the cluster over an open-loop request stream, untraced,
/// returning the report (see [`simulate_cluster_run_obs`] for the event
/// stream).
///
/// # Errors
///
/// As [`simulate_cluster_run_obs`].
pub fn simulate_cluster(
    requests: &[Request],
    services: &[ModelService],
    spec: &ClusterSpec,
) -> Result<ClusterReport> {
    Ok(simulate_cluster_run_obs(requests, services, spec, &mut NullSink)?.report)
}

/// Simulates a **closed-loop** workload: `concurrency` clients each keep
/// exactly one model-0 request in flight (no deadlines), submitting the
/// next the moment the previous completes, until `requests` total have
/// been issued. At most `concurrency` requests are outstanding, so the
/// queue cap is lifted and nothing is rejected. Scheduling decisions are
/// narrated into `sink` as in [`simulate_cluster_run_obs`].
///
/// # Errors
///
/// Rejects a zero concurrency, any fault or autoscale plan (closed-loop
/// arrivals follow completions, which churn would sever), and an invalid
/// spec.
pub fn simulate_closed_loop(
    requests: usize,
    concurrency: usize,
    services: &[ModelService],
    spec: &ClusterSpec,
    sink: &mut dyn EventSink,
) -> Result<ClusterRun> {
    if concurrency == 0 {
        return Err(BoxError::from("closed-loop concurrency must be at least 1"));
    }
    if !spec.faults.is_empty() {
        return Err(BoxError::from(
            "closed-loop workloads take no fault or autoscale plan: their arrivals follow \
             completions",
        ));
    }
    let spec = ClusterSpec {
        policy: BatchPolicy { queue_cap: usize::MAX, ..spec.policy.clone() },
        ..spec.clone()
    };
    let mut core = ClusterCore::new(services, &spec, sink)?;
    sched::drive_closed_loop(&mut core, requests, concurrency)?;
    Ok(ClusterRun { report: core.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(name: &str, base: u64, per: u64, footprint: u64, bw: u64) -> ModelService {
        // Streamed batch of k costs base + per*k; resident drops the
        // footprint's share of `base`.
        let fetch = footprint / bw;
        ModelService {
            name: name.into(),
            streamed: (1..=8).map(|k| base + per * k).collect(),
            resident: (1..=8).map(|k| base - fetch + per * k).collect(),
            footprint_bytes: footprint,
            switch_cycles: fetch,
        }
    }

    fn spec(instances: usize, router: RouterPolicy, buffer: Option<u64>) -> ClusterSpec {
        ClusterSpec {
            instances,
            router,
            policy: BatchPolicy { max_batch: 4, max_wait: 0, queue_cap: 64 },
            buffer_bytes: buffer,
            tiers: None,
            faults: FaultPlan::default(),
        }
    }

    fn reqs(arrivals: &[(u64, usize)]) -> Vec<Request> {
        arrivals
            .iter()
            .map(|&(arrival, model)| Request { model, arrival, deadline: None })
            .collect()
    }

    #[test]
    fn round_robin_spreads_a_burst_across_instances() {
        // Eight simultaneous single-model requests, two instances, batch
        // cap 4: each instance runs one full batch in parallel.
        let services = [svc("m", 40, 2, 0, 64)];
        let r = simulate_cluster(
            &reqs(&[(0, 0); 8]),
            &services,
            &spec(2, RouterPolicy::RoundRobin, None),
        )
        .unwrap();
        assert_eq!(r.batch_sizes, vec![4, 4]);
        assert_eq!(r.completed(), 8);
        assert_eq!(r.makespan, 48, "instances run concurrently");
        assert_eq!(r.per_instance[0].batches, 1);
        assert_eq!(r.per_instance[1].batches, 1);
    }

    #[test]
    fn jsq_avoids_the_loaded_instance() {
        // Two instances; a burst loads both, then a straggler arrives while
        // instance 0 still holds a longer queue.
        let services = [svc("m", 40, 2, 0, 64)];
        let mut rs = reqs(&[(0, 0), (0, 0), (0, 0)]);
        rs.push(Request { model: 0, arrival: 1, deadline: None });
        let r = simulate_cluster(&rs, &services, &spec(2, RouterPolicy::JoinShortestQueue, None))
            .unwrap();
        assert_eq!(r.completed(), 4);
        // JSQ: 0 -> inst0, 1 -> inst1 (tie by index after inst0 got one),
        // 2 -> inst1? No: queues (1,0) -> inst1; then (1,1) -> inst0.
        // The straggler joins whichever queue drained first; the exact
        // split is pinned by determinism, not asserted here.
        assert_eq!(r.batch_sizes.iter().sum::<usize>(), 4);
    }

    #[test]
    fn edf_orders_batches_by_deadline_not_arrival() {
        // Two models, one instance. Model 1's request arrives later but
        // with the earlier deadline: it must be served first.
        let services = [svc("a", 40, 2, 0, 64), svc("b", 40, 2, 0, 64)];
        let rs = vec![
            Request { model: 0, arrival: 0, deadline: Some(10_000) },
            Request { model: 1, arrival: 1, deadline: Some(100) },
        ];
        let mut sp = spec(1, RouterPolicy::RoundRobin, None);
        sp.policy.max_wait = 50;
        let r = simulate_cluster(&rs, &services, &sp).unwrap();
        assert_eq!(r.batch_sizes, vec![1, 1]);
        // First completion is model 1 (arrived at 1, launched at
        // 1 + max_wait = 51, done at 51 + 42 = 93): latency 92 and no miss.
        assert_eq!(r.latencies[0], 92);
        assert_eq!(r.misses, 0);
    }

    #[test]
    fn deadline_misses_are_counted_and_goodput_excludes_them() {
        let services = [svc("m", 1000, 2, 0, 64)];
        let rs = vec![
            Request { model: 0, arrival: 0, deadline: Some(500) },
            Request { model: 0, arrival: 0, deadline: Some(5000) },
        ];
        let r = simulate_cluster(&rs, &services, &spec(1, RouterPolicy::RoundRobin, None)).unwrap();
        assert_eq!(r.completed(), 2);
        assert_eq!(r.misses, 1, "the 500-cycle deadline cannot be met");
        assert!((r.goodput_per_s(1e9) - r.throughput_per_s(1e9) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn residency_turns_repeat_batches_into_hits() {
        // One model that fits the buffer: first batch fetches, the rest hit
        // and run at the (cheaper) resident latency.
        let services = [svc("m", 100, 2, 640, 64)];
        let r = simulate_cluster(
            &reqs(&[(0, 0), (10_000, 0), (20_000, 0)]),
            &services,
            &spec(1, RouterPolicy::RoundRobin, Some(1000)),
        )
        .unwrap();
        assert_eq!(r.residency.fetches, 1);
        assert_eq!(r.residency.hits, 2);
        assert_eq!(r.residency.evictions, 0);
        assert_eq!(r.residency.bytes_fetched, 640);
        // First batch: switch (10) + resident (90 + 2) = 102; later
        // batches: 92 cycles.
        assert_eq!(r.latencies, vec![102, 92, 92]);
    }

    #[test]
    fn too_small_buffer_evicts_on_every_alternation() {
        // Two models alternating on one instance; the buffer holds one.
        let services = [svc("a", 100, 2, 600, 64), svc("b", 100, 2, 600, 64)];
        let rs = reqs(&[(0, 0), (10_000, 1), (20_000, 0), (30_000, 1)]);
        let r = simulate_cluster(&rs, &services, &spec(1, RouterPolicy::RoundRobin, Some(700)))
            .unwrap();
        assert_eq!(r.residency.fetches, 4, "every batch switches");
        assert_eq!(r.residency.hits, 0);
        assert_eq!(r.residency.evictions, 3);
        // Affinity routing on two instances pins each model, eliminating
        // the thrash entirely after the two cold fetches.
        let r2 = simulate_cluster(&rs, &services, &spec(2, RouterPolicy::ModelAffinity, Some(700)))
            .unwrap();
        assert_eq!(r2.residency.fetches, 2);
        assert_eq!(r2.residency.hits, 2);
        assert_eq!(r2.residency.evictions, 0);
    }

    #[test]
    fn oversized_models_stream_at_the_per_batch_rate() {
        let services = [svc("big", 100, 2, 5000, 64)];
        let r = simulate_cluster(
            &reqs(&[(0, 0), (10_000, 0)]),
            &services,
            &spec(1, RouterPolicy::RoundRobin, Some(1000)),
        )
        .unwrap();
        assert_eq!(r.residency.fetches, 2, "streams every batch");
        assert_eq!(r.residency.hits, 0);
        assert_eq!(r.latencies, vec![102, 102], "streamed latency, no switch serialization");
    }

    #[test]
    fn full_instance_queues_reject() {
        let services = [svc("m", 1_000_000, 2, 0, 64)];
        let mut sp = spec(1, RouterPolicy::RoundRobin, None);
        sp.policy.queue_cap = 3;
        sp.policy.max_batch = 2;
        let r = simulate_cluster(&reqs(&[(0, 0); 10]), &services, &sp).unwrap();
        assert_eq!(r.completed() as u64 + r.rejected, 10);
        assert_eq!(r.rejected, 7, "the bounded queue's admission rule");
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let services = [svc("m", 10, 1, 0, 64)];
        assert!(simulate_cluster(&[], &services, &spec(0, RouterPolicy::RoundRobin, None)).is_err());
        assert!(simulate_cluster(&[], &[], &spec(1, RouterPolicy::RoundRobin, None)).is_err());
        let mut short = spec(1, RouterPolicy::RoundRobin, None);
        short.policy.max_batch = 100;
        assert!(simulate_cluster(&[], &services, &short).is_err());
        let bad_model = [Request { model: 7, arrival: 0, deadline: None }];
        assert!(simulate_cluster(&bad_model, &services, &spec(1, RouterPolicy::RoundRobin, None))
            .is_err());
        let empty =
            simulate_cluster(&[], &services, &spec(2, RouterPolicy::RoundRobin, None)).unwrap();
        assert_eq!(empty.completed(), 0);
        assert_eq!(empty.per_instance.len(), 2);
    }

    #[test]
    fn report_statistics() {
        let r = ClusterReport {
            latencies: vec![10, 30, 20, 40],
            batch_sizes: vec![2, 2],
            rejected: 1,
            misses: 1,
            makespan: 100,
            ..Default::default()
        };
        assert_eq!(r.completed(), 4);
        assert_eq!(r.mean_latency(), 25.0);
        assert_eq!(r.latency_percentile(50.0), Some(20));
        assert_eq!(r.latency_percentile(99.0), Some(40));
        assert_eq!(r.throughput_per_s(1000.0), 40.0);
        assert_eq!(r.goodput_per_s(1000.0), 30.0);
        assert!(r.conserves(5), "4 completed + 1 rejected");
        assert!(!r.conserves(6));
        assert_eq!(ClusterReport::default().goodput_per_s(1e9), 0.0);
        assert_eq!(
            ClusterReport::default().latency_percentile(99.0),
            None,
            "an empty sample has no percentile, not a perfect one"
        );
    }

    #[test]
    fn a_kill_mid_run_conserves_requests_and_reports_the_event() {
        use crate::fault::{FaultAction, FaultEvent};
        use se_obs::EventKind;
        // Two instances; instance 0 dies while loaded and comes back
        // later. Nothing may vanish: completed + rejected + lost ==
        // submitted, and the report carries the event lines.
        let services = [svc("m", 100, 2, 640, 64)];
        let mut sp = spec(2, RouterPolicy::RoundRobin, Some(1000));
        sp.faults.events = vec![
            FaultEvent { at: 50, instance: 0, action: FaultAction::Kill },
            FaultEvent { at: 10_000, instance: 0, action: FaultAction::Restart },
        ];
        let rs = reqs(&[(0, 0), (0, 0), (0, 0), (0, 0), (20_000, 0), (20_000, 0)]);
        let r = simulate_cluster(&rs, &services, &sp).unwrap();
        assert!(
            r.conserves(rs.len()),
            "completed {} rejected {} lost {}",
            r.completed(),
            r.rejected,
            r.lost
        );
        assert_eq!(r.killed_batches, 1, "instance 0's in-flight batch failed");
        assert!(r.rerouted >= 2, "its members re-routed to instance 1");
        assert_eq!(r.lost, 0, "instance 1 had queue room for every victim");
        assert_eq!(r.events.len(), 2);
        assert!(matches!(r.events[0].kind, EventKind::InstanceKilled { in_flight: 2, .. }));
        assert_eq!(
            r.events[1],
            Event { at: 10_000, kind: EventKind::InstanceRestarted { instance: 0 } }
        );
        // The restarted instance is cold: its post-restart batch at
        // 20_000 re-fetches the model even though it was resident before
        // the kill (fetch at first batch + fetch after restart on
        // instance 0, plus instance 1's own cold fetch).
        assert_eq!(r.residency.fetches, 3);
    }

    #[test]
    fn closed_loops_reject_fault_and_autoscale_plans() {
        use crate::fault::{AutoscalePolicy, FaultAction, FaultEvent};
        let services = [svc("m", 100, 2, 0, 64)];
        let mut killed = spec(1, RouterPolicy::RoundRobin, None);
        killed.faults.events = vec![FaultEvent { at: 50, instance: 0, action: FaultAction::Kill }];
        let mut elastic = spec(1, RouterPolicy::RoundRobin, None);
        elastic.faults.autoscale = Some(AutoscalePolicy { spawn_above: 2, drain_below: 1 });
        for sp in [&killed, &elastic] {
            let err = simulate_closed_loop(8, 2, &services, sp, &mut NullSink).unwrap_err();
            assert!(err.to_string().contains("fault or autoscale plan"), "{err}");
        }
        // The same workload on a healthy spec runs, whatever its queue cap.
        let mut capped = spec(1, RouterPolicy::RoundRobin, None);
        capped.policy.queue_cap = 1;
        let run = simulate_closed_loop(8, 2, &services, &capped, &mut NullSink).unwrap();
        assert_eq!(run.report.completed(), 8);
        assert_eq!(run.report.batch_sizes, vec![2, 2, 2, 2]);
    }

    #[test]
    fn unsorted_streams_are_rejected_naming_the_request() {
        let services = [svc("m", 10, 1, 0, 64)];
        let err = simulate_cluster(
            &reqs(&[(0, 0), (50, 0), (40, 0)]),
            &services,
            &spec(1, RouterPolicy::RoundRobin, None),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("arrival 2 at cycle 40"), "{err}");
    }
}
