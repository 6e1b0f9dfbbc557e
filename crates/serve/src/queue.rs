//! The serving front: a bounded FIFO request queue with a batch
//! aggregator, simulated as a deterministic discrete-event loop.
//!
//! Requests arrive at simulated cycle timestamps and queue FIFO. The
//! aggregator closes a batch when either (a) [`BatchPolicy::max_batch`]
//! requests are waiting, or (b) the oldest waiting request has been queued
//! for [`BatchPolicy::max_wait`] cycles — the standard latency/throughput
//! dial of batched serving. A single simulated accelerator executes batches
//! back-to-back; the execution time of a batch of `k` images comes from the
//! caller-supplied table (built by
//! [`crate::engine::BatchEngine::latency_table`], where weight fetches are
//! amortized across the batch). Open-loop arrivals that find the bounded
//! queue full are rejected.
//!
//! The whole simulation is serial integer arithmetic over a fixed arrival
//! order, so its output is bit-identical for any worker count of the
//! surrounding harness — the determinism contract of `se serve`.
//!
//! The scheduling decisions live in the [`crate::sched`] core (a
//! 1-instance, round-robin, no-residency cluster *is* this queue —
//! enforced by property test); this module keeps the single-accelerator
//! entry points and the [`ServeReport`] shape.

use crate::cluster::router::RouterPolicy;
use crate::cluster::sim::{ClusterSpec, ModelService};
use crate::sched::{self, ClusterCore, SchedEvent};
use crate::workload::{check_sorted, Request};
use crate::{BoxError, Result};
use se_obs::EventSink;

/// Batch-formation policy of the serving front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum images per batch; the aggregator closes a batch as soon as
    /// this many requests are waiting.
    pub max_batch: usize,
    /// Maximum cycles the oldest queued request may wait before the
    /// aggregator closes the batch short (0 = never wait for company).
    pub max_wait: u64,
    /// Bounded queue capacity: an open-loop arrival that finds this many
    /// requests already waiting is rejected. Closed-loop workloads are
    /// bounded by their concurrency instead and ignore this field.
    pub queue_cap: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 8, max_wait: 0, queue_cap: 1024 }
    }
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects a zero batch size or queue capacity.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(BoxError::from("max batch size must be at least 1"));
        }
        if self.queue_cap == 0 {
            return Err(BoxError::from("queue capacity must be at least 1"));
        }
        Ok(())
    }
}

/// Outcome of one serving simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeReport {
    /// Per-request latency in cycles (completion − arrival), in completion
    /// order — which, for the FIFO queue, is arrival order over the
    /// admitted requests.
    pub latencies: Vec<u64>,
    /// Sizes of the executed batches, in execution order.
    pub batch_sizes: Vec<usize>,
    /// Open-loop arrivals rejected by the bounded queue.
    pub rejected: u64,
    /// Completion time of the last batch, in cycles.
    pub makespan: u64,
}

impl ServeReport {
    /// Requests served to completion.
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// Mean executed batch size in images.
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            return 0.0;
        }
        self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
    }

    /// Mean request latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    /// The `p`-th latency percentile in cycles (see [`percentile`]);
    /// `None` when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        percentile(&self.latencies, p)
    }

    /// Completed requests whose latency exceeded `budget` cycles — the
    /// deadline misses of a workload where every request carries the same
    /// relative deadline (deadline = arrival + budget, and latency =
    /// completion − arrival, so `latency > budget` is exactly a miss).
    /// Shared with the cluster lane's per-request deadline accounting.
    pub fn misses_over_budget(&self, budget: u64) -> u64 {
        self.latencies.iter().filter(|&&l| l > budget).count() as u64
    }

    /// Sustained throughput in images per second at `frequency_hz`.
    pub fn throughput_per_s(&self, frequency_hz: f64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed() as f64 / (self.makespan as f64 / frequency_hz)
    }

    /// How many batches of each size ran: `histogram[k - 1]` counts the
    /// executed batches of exactly `k` images (`k` up to `max_batch`).
    pub fn batch_histogram(&self, max_batch: usize) -> Vec<u64> {
        let mut h = vec![0u64; max_batch.max(1)];
        let last = h.len() - 1;
        for &k in &self.batch_sizes {
            h[(k - 1).min(last)] += 1;
        }
        h
    }
}

/// The `p`-th percentile of `values` (`p` in `[0, 100]`; nearest-rank on
/// the sorted values). `None` for an empty sample — a run where every
/// request was rejected or lost has *no* latency percentile, and must
/// not print the `0` of a perfect run (reports render it as `-`). The
/// single percentile definition shared by the serving and cluster
/// reports, so their latency columns are directly comparable.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Validates the policy against the execution table.
fn validate_exec(exec: &[u64], policy: &BatchPolicy) -> Result<()> {
    policy.validate()?;
    if exec.len() < policy.max_batch {
        return Err(BoxError::from(format!(
            "execution table covers batches up to {}, policy allows {}",
            exec.len(),
            policy.max_batch
        )));
    }
    Ok(())
}

/// The single-accelerator server as a 1-instance cluster: one model whose
/// batch table is `exec` (no residency modeling, so streamed == resident
/// and every batch charges the table directly).
fn single_instance(exec: &[u64], policy: BatchPolicy) -> (ModelService, ClusterSpec) {
    let service = ModelService {
        name: "serve".into(),
        streamed: exec.to_vec(),
        resident: exec.to_vec(),
        footprint_bytes: 0,
        switch_cycles: 0,
    };
    let spec = ClusterSpec {
        instances: 1,
        router: RouterPolicy::RoundRobin,
        policy,
        buffer_bytes: None,
        tiers: None,
        faults: crate::fault::FaultPlan::default(),
    };
    (service, spec)
}

/// Folds one scheduling event into a [`ServeReport`]. Launched batches
/// must arrive in launch order (the single instance executes serially, so
/// completion times are non-decreasing).
///
/// # Errors
///
/// A single-instance queue has no fault plan, so a lost request or a
/// killed batch means the scheduler broke its contract: both are reported
/// as errors rather than folded into the report.
fn record_event(event: &SchedEvent, report: &mut ServeReport) -> Result<()> {
    match event {
        SchedEvent::Rejected(..) => report.rejected += 1,
        SchedEvent::Lost(id, _, at) => {
            return Err(BoxError::from(format!(
                "request {id} lost to an instance kill at cycle {at}, but a single-instance \
                 queue has no fault plan"
            )));
        }
        SchedEvent::Launched(batch) => {
            if let Some(at) = batch.killed_at {
                return Err(BoxError::from(format!(
                    "batch {} killed at cycle {at}, but a single-instance queue has no \
                     fault plan",
                    batch.seq
                )));
            }
            for m in &batch.members {
                report.latencies.push(batch.done - m.req.arrival);
            }
            report.batch_sizes.push(batch.members.len());
            report.makespan = report.makespan.max(batch.done);
        }
    }
    Ok(())
}

/// Runs one single-instance drive, folding its events into a report and
/// stopping at the first event [`record_event`] rejects.
fn collect_report(
    drive: impl FnOnce(&mut dyn FnMut(SchedEvent) -> bool) -> bool,
) -> Result<ServeReport> {
    let mut report = ServeReport::default();
    let mut failure = None;
    drive(&mut |event| match record_event(&event, &mut report) {
        Ok(()) => true,
        Err(e) => {
            failure = Some(e);
            false
        }
    });
    failure.map_or(Ok(report), Err)
}

/// Simulates an **open-loop** workload: requests arrive at the given cycle
/// timestamps (non-decreasing) regardless of service progress — the
/// uniform/burst workloads of [`crate::workload`]. `exec[k - 1]` is the
/// execution time of a batch of `k` images (see
/// [`crate::engine::BatchEngine::latency_table`]). Scheduling decisions
/// are narrated into `sink` as virtual-time [`se_obs::Event`]s; pass
/// [`se_obs::NullSink`] to run untraced (the report is identical either
/// way).
///
/// # Errors
///
/// Rejects an invalid policy, a table shorter than `max_batch`, and
/// arrivals that are not non-decreasing (naming the first out-of-order
/// index).
pub fn simulate_open_loop(
    arrivals: &[u64],
    exec: &[u64],
    policy: &BatchPolicy,
    sink: &mut dyn EventSink,
) -> Result<ServeReport> {
    validate_exec(exec, policy)?;
    check_sorted(arrivals.iter().copied())?;
    let (service, spec) = single_instance(exec, policy.clone());
    let services = [service];
    let mut core = ClusterCore::new(&services, &spec, sink)?;
    collect_report(|record| {
        sched::drive_open_loop(
            &mut core,
            arrivals
                .iter()
                .enumerate()
                .map(|(id, &arrival)| (id, Request { model: 0, arrival, deadline: None })),
            record,
        )
    })
}

/// Simulates a **closed-loop** workload: `concurrency` clients each keep
/// exactly one request in flight, submitting the next the moment the
/// previous completes, until `requests` total have been issued. The
/// bounded queue never rejects here — at most `concurrency` requests are
/// outstanding — so [`BatchPolicy::queue_cap`] is ignored. Scheduling
/// decisions are narrated into `sink` as in [`simulate_open_loop`].
///
/// # Errors
///
/// Rejects an invalid policy, a zero concurrency, or an execution table
/// shorter than `max_batch`.
pub fn simulate_closed_loop(
    requests: usize,
    concurrency: usize,
    exec: &[u64],
    policy: &BatchPolicy,
    sink: &mut dyn EventSink,
) -> Result<ServeReport> {
    validate_exec(exec, policy)?;
    if concurrency == 0 {
        return Err(BoxError::from("closed-loop concurrency must be at least 1"));
    }
    // Closed loops are bounded by their concurrency, not the queue cap.
    let uncapped = BatchPolicy { queue_cap: usize::MAX, ..policy.clone() };
    let (service, spec) = single_instance(exec, uncapped);
    let services = [service];
    let mut core = ClusterCore::new(&services, &spec, sink)?;
    collect_report(|record| sched::drive_closed_loop(&mut core, requests, concurrency, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{PlannedBatch, Queued};
    use se_obs::NullSink;

    /// Batch of k costs 10 + 2k cycles: sublinear per image.
    fn exec(max: usize) -> Vec<u64> {
        (1..=max).map(|k| 10 + 2 * k as u64).collect()
    }

    fn policy(max_batch: usize, max_wait: u64, cap: usize) -> BatchPolicy {
        BatchPolicy { max_batch, max_wait, queue_cap: cap }
    }

    #[test]
    fn immediate_singles_when_queue_is_drained() {
        // Arrivals far apart, no waiting: every request runs alone.
        let r =
            simulate_open_loop(&[0, 100, 200], &exec(4), &policy(4, 0, 8), &mut NullSink).unwrap();
        assert_eq!(r.batch_sizes, vec![1, 1, 1]);
        assert_eq!(r.latencies, vec![12, 12, 12]);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.makespan, 212);
    }

    #[test]
    fn burst_fills_batches_up_to_max() {
        // Six requests at once, max batch 4: one full batch, one pair.
        let r = simulate_open_loop(&[0; 6], &exec(4), &policy(4, 0, 8), &mut NullSink).unwrap();
        assert_eq!(r.batch_sizes, vec![4, 2]);
        // Full batch: 10+8 = 18 cycles; pair: 18 + (10+4) = 32.
        assert_eq!(r.latencies, vec![18, 18, 18, 18, 32, 32]);
        assert_eq!(r.mean_batch(), 3.0);
    }

    #[test]
    fn max_wait_holds_the_batch_open() {
        // Second request arrives within the wait window and shares the
        // batch; without waiting it would run alone.
        let eager = simulate_open_loop(&[0, 5], &exec(4), &policy(4, 0, 8), &mut NullSink).unwrap();
        assert_eq!(eager.batch_sizes, vec![1, 1]);
        let patient =
            simulate_open_loop(&[0, 5], &exec(4), &policy(4, 6, 8), &mut NullSink).unwrap();
        assert_eq!(patient.batch_sizes, vec![2]);
        // Launch at 0+6 (wait expiry), both done at 6 + 14 = 20.
        assert_eq!(patient.latencies, vec![20, 15]);
    }

    #[test]
    fn filling_the_batch_cuts_the_wait_short() {
        // Four arrivals inside a long wait window: the batch closes when
        // the fourth arrives (t = 3), not at the wait expiry (t = 50).
        let r =
            simulate_open_loop(&[0, 1, 2, 3], &exec(4), &policy(4, 50, 8), &mut NullSink).unwrap();
        assert_eq!(r.batch_sizes, vec![4]);
        assert_eq!(r.makespan, 3 + 18);
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        // Ten simultaneous arrivals, capacity 3, batch 2: the first is
        // admitted to an empty queue, two more fill it to capacity, the
        // rest bounce while the server is still at cycle 0.
        let r = simulate_open_loop(&[0; 10], &exec(2), &policy(2, 0, 3), &mut NullSink).unwrap();
        assert_eq!(r.rejected, 7);
        assert_eq!(r.completed(), 3);
        assert_eq!(r.batch_sizes, vec![2, 1]);
    }

    #[test]
    fn closed_loop_keeps_concurrency_in_flight() {
        // 3 clients, 9 requests, batch 4: every batch is exactly 3 wide —
        // the clients resubmit in lockstep at each completion.
        let r = simulate_closed_loop(9, 3, &exec(4), &policy(4, 0, 1), &mut NullSink).unwrap();
        assert_eq!(r.batch_sizes, vec![3, 3, 3]);
        assert_eq!(r.completed(), 9);
        assert_eq!(r.rejected, 0);
        // Each round costs 10+6 = 16 cycles.
        assert_eq!(r.makespan, 48);
    }

    #[test]
    fn closed_loop_stops_at_the_request_budget() {
        let r = simulate_closed_loop(5, 4, &exec(4), &policy(4, 0, 1), &mut NullSink).unwrap();
        assert_eq!(r.completed(), 5);
        assert_eq!(r.batch_sizes, vec![4, 1]);
    }

    #[test]
    fn report_statistics() {
        let r = ServeReport {
            latencies: vec![10, 30, 20, 40],
            batch_sizes: vec![2, 2],
            rejected: 1,
            makespan: 100,
        };
        assert_eq!(r.completed(), 4);
        assert_eq!(r.mean_latency(), 25.0);
        assert_eq!(r.latency_percentile(50.0), Some(20));
        assert_eq!(r.latency_percentile(100.0), Some(40));
        assert_eq!(r.latency_percentile(0.0), Some(10));
        assert_eq!(r.misses_over_budget(25), 2);
        assert_eq!(r.misses_over_budget(40), 0);
        assert_eq!(percentile(&[5, 1, 3], 99.0), Some(5));
        assert_eq!(r.throughput_per_s(1000.0), 40.0);
        assert_eq!(r.batch_histogram(4), vec![0, 2, 0, 0]);
        assert_eq!(ServeReport::default().throughput_per_s(1e9), 0.0);
        assert_eq!(ServeReport::default().mean_batch(), 0.0);
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        // Regression: an all-rejected run used to report p50/p95/p99 = 0,
        // indistinguishable from a perfect zero-latency run.
        assert_eq!(percentile(&[], 99.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(ServeReport::default().latency_percentile(99.0), None);
        let all_rejected = ServeReport { rejected: 7, ..Default::default() };
        assert_eq!(all_rejected.latency_percentile(50.0), None);
        assert_eq!(percentile(&[0], 50.0), Some(0), "a real zero latency still reports 0");
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        assert!(simulate_open_loop(&[0], &exec(4), &policy(0, 0, 8), &mut NullSink).is_err());
        assert!(simulate_open_loop(&[0], &exec(4), &policy(4, 0, 0), &mut NullSink).is_err());
        assert!(
            simulate_open_loop(&[0], &exec(2), &policy(4, 0, 8), &mut NullSink).is_err(),
            "short table"
        );
        assert!(simulate_closed_loop(4, 0, &exec(4), &policy(4, 0, 8), &mut NullSink).is_err());
        assert!(simulate_open_loop(&[], &exec(4), &policy(4, 0, 8), &mut NullSink)
            .unwrap()
            .batch_sizes
            .is_empty());
        assert_eq!(
            simulate_closed_loop(0, 2, &exec(4), &policy(4, 0, 8), &mut NullSink)
                .unwrap()
                .completed(),
            0
        );
    }

    #[test]
    fn unsorted_arrivals_are_rejected_naming_the_index() {
        let err = simulate_open_loop(&[0, 5, 3, 9], &exec(4), &policy(4, 0, 8), &mut NullSink)
            .unwrap_err()
            .to_string();
        assert!(err.contains("arrival 2"), "{err}");
    }

    #[test]
    fn lost_requests_and_killed_batches_are_errors_not_reports() {
        let req = Request { model: 0, arrival: 3, deadline: None };
        let mut report = ServeReport::default();
        let err = record_event(&SchedEvent::Lost(4, req, 10), &mut report).unwrap_err();
        assert!(err.to_string().contains("request 4 lost"), "{err}");
        let killed = PlannedBatch {
            seq: 2,
            instance: 0,
            model: 0,
            start: 5,
            done: 20,
            members: vec![Queued { id: 4, req, enqueued_at: 3 }],
            killed_at: Some(9),
        };
        let err = record_event(&SchedEvent::Launched(killed), &mut report).unwrap_err();
        assert!(err.to_string().contains("batch 2 killed"), "{err}");
        assert_eq!(report, ServeReport::default(), "nothing was folded in");
    }
}
