//! The batch-formation policy of the serving front.
//!
//! Each instance queues its requests and closes a batch when either (a)
//! [`BatchPolicy::max_batch`] requests are waiting, or (b) the oldest
//! waiting request has been queued for [`BatchPolicy::max_wait`] cycles —
//! the standard latency/throughput dial of batched serving. Open-loop
//! arrivals that find the bounded queue full are rejected. The policy is
//! enforced by the [`crate::sched`] core; `se serve` runs it as the
//! 1-instance cluster of [`crate::cluster`].

use crate::{BoxError, Result};

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

#[cfg(test)]
mod tests {
    //! The batching policy's semantics, exercised through `se serve`'s
    //! execution model: a 1-instance, round-robin, no-residency cluster
    //! over one model whose batch of `k` costs `exec[k - 1]`.

    use super::*;
    use crate::cluster::{self, ClusterReport, ClusterSpec, ModelService, RouterPolicy};
    use crate::fault::FaultPlan;
    use crate::workload::Request;
    use se_obs::NullSink;

    /// Batch of k costs 10 + 2k cycles: sublinear per image.
    fn exec(max: usize) -> Vec<u64> {
        (1..=max).map(|k| 10 + 2 * k as u64).collect()
    }

    fn policy(max_batch: usize, max_wait: u64, cap: usize) -> BatchPolicy {
        BatchPolicy { max_batch, max_wait, queue_cap: cap }
    }

    fn single(exec: &[u64], policy: BatchPolicy) -> ([ModelService; 1], ClusterSpec) {
        let service = ModelService {
            name: "serve".into(),
            streamed: exec.to_vec(),
            resident: exec.to_vec(),
            footprint_bytes: 0,
            dram_bytes_per_cycle: 64.0,
        };
        let spec = ClusterSpec {
            instances: 1,
            router: RouterPolicy::RoundRobin,
            policy,
            buffer_bytes: None,
            tiers: None,
            faults: FaultPlan::default(),
        };
        ([service], spec)
    }

    fn open_loop(arrivals: &[u64], exec: &[u64], policy: BatchPolicy) -> Result<ClusterReport> {
        let requests: Vec<Request> =
            arrivals.iter().map(|&arrival| Request { model: 0, arrival, deadline: None }).collect();
        let (services, spec) = single(exec, policy);
        cluster::simulate_cluster(&requests, &services, &spec)
    }

    fn closed_loop(
        requests: usize,
        concurrency: usize,
        exec: &[u64],
        policy: BatchPolicy,
    ) -> Result<ClusterReport> {
        let (services, spec) = single(exec, policy);
        let run =
            cluster::simulate_closed_loop(requests, concurrency, &services, &spec, &mut NullSink)?;
        Ok(run.report)
    }

    #[test]
    fn immediate_singles_when_queue_is_drained() {
        // Arrivals far apart, no waiting: every request runs alone.
        let r = open_loop(&[0, 100, 200], &exec(4), policy(4, 0, 8)).unwrap();
        assert_eq!(r.batch_sizes, vec![1, 1, 1]);
        assert_eq!(r.latencies, vec![12, 12, 12]);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.makespan, 212);
    }

    #[test]
    fn burst_fills_batches_up_to_max() {
        // Six requests at once, max batch 4: one full batch, one pair.
        let r = open_loop(&[0; 6], &exec(4), policy(4, 0, 8)).unwrap();
        assert_eq!(r.batch_sizes, vec![4, 2]);
        // Full batch: 10+8 = 18 cycles; pair: 18 + (10+4) = 32.
        assert_eq!(r.latencies, vec![18, 18, 18, 18, 32, 32]);
    }

    #[test]
    fn max_wait_holds_the_batch_open() {
        // Second request arrives within the wait window and shares the
        // batch; without waiting it would run alone.
        let eager = open_loop(&[0, 5], &exec(4), policy(4, 0, 8)).unwrap();
        assert_eq!(eager.batch_sizes, vec![1, 1]);
        let patient = open_loop(&[0, 5], &exec(4), policy(4, 6, 8)).unwrap();
        assert_eq!(patient.batch_sizes, vec![2]);
        // Launch at 0+6 (wait expiry), both done at 6 + 14 = 20.
        assert_eq!(patient.latencies, vec![20, 15]);
    }

    #[test]
    fn filling_the_batch_cuts_the_wait_short() {
        // Four arrivals inside a long wait window: the batch closes when
        // the fourth arrives (t = 3), not at the wait expiry (t = 50).
        let r = open_loop(&[0, 1, 2, 3], &exec(4), policy(4, 50, 8)).unwrap();
        assert_eq!(r.batch_sizes, vec![4]);
        assert_eq!(r.makespan, 3 + 18);
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        // Ten simultaneous arrivals, capacity 3, batch 2: the first is
        // admitted to an empty queue, two more fill it to capacity, the
        // rest bounce while the server is still at cycle 0.
        let r = open_loop(&[0; 10], &exec(2), policy(2, 0, 3)).unwrap();
        assert_eq!(r.rejected, 7);
        assert_eq!(r.completed(), 3);
        assert_eq!(r.batch_sizes, vec![2, 1]);
    }

    #[test]
    fn closed_loop_keeps_concurrency_in_flight() {
        // 3 clients, 9 requests, batch 4: every batch is exactly 3 wide —
        // the clients resubmit in lockstep at each completion. The queue
        // cap (1) does not bound a closed loop.
        let r = closed_loop(9, 3, &exec(4), policy(4, 0, 1)).unwrap();
        assert_eq!(r.batch_sizes, vec![3, 3, 3]);
        assert_eq!(r.completed(), 9);
        assert_eq!(r.rejected, 0);
        // Each round costs 10+6 = 16 cycles.
        assert_eq!(r.makespan, 48);
    }

    #[test]
    fn closed_loop_stops_at_the_request_budget() {
        let r = closed_loop(5, 4, &exec(4), policy(4, 0, 1)).unwrap();
        assert_eq!(r.completed(), 5);
        assert_eq!(r.batch_sizes, vec![4, 1]);
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        assert!(open_loop(&[0], &exec(4), policy(0, 0, 8)).is_err());
        assert!(open_loop(&[0], &exec(4), policy(4, 0, 0)).is_err());
        assert!(open_loop(&[0], &exec(2), policy(4, 0, 8)).is_err(), "short table");
        assert!(closed_loop(4, 0, &exec(4), policy(4, 0, 8)).is_err());
        assert!(open_loop(&[], &exec(4), policy(4, 0, 8)).unwrap().batch_sizes.is_empty());
        assert_eq!(closed_loop(0, 2, &exec(4), policy(4, 0, 8)).unwrap().completed(), 0);
    }

    #[test]
    fn unsorted_arrivals_are_rejected_naming_the_index() {
        let err = open_loop(&[0, 5, 3, 9], &exec(4), policy(4, 0, 8)).unwrap_err().to_string();
        assert!(err.contains("arrival 2"), "{err}");
    }
}
