//! Conservation of the trace analytics engine, property-tested over
//! random traces × fault plans × residency stacks: the windowed
//! aggregates of `se_obs::analyze` must fold back exactly to the
//! stream totals, and the stream totals must re-derive the
//! `ClusterReport` the run itself produced — served, missed, rejected,
//! lost, killed batches, and tier traffic all agree, at every window
//! width.

use proptest::prelude::*;
use se_obs::analyze::analyze;
use se_obs::Recorder;
use se_serve::cluster::{
    simulate_cluster_run_obs, ClusterSpec, ModelService, RouterPolicy, TierSpec,
};
use se_serve::fault::{AutoscalePolicy, FaultAction, FaultEvent, FaultPlan};
use se_serve::queue::BatchPolicy;
use se_serve::workload::Request;

fn service(name: &str, base: u64, per: u64, max_batch: usize, footprint: u64) -> ModelService {
    let streamed: Vec<u64> = (1..=max_batch as u64).map(|k| base + per * k).collect();
    let resident: Vec<u64> = streamed.iter().map(|c| c - c / 4).collect();
    ModelService {
        name: name.into(),
        streamed,
        resident,
        footprint_bytes: footprint,
        switch_cycles: base / 2,
    }
}

fn router_of(idx: usize) -> RouterPolicy {
    match idx % 3 {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        _ => RouterPolicy::ModelAffinity,
    }
}

fn plan_of(
    instances: usize,
    kill_ats: &[u64],
    restart_gaps: &[u64],
    flags: &[usize],
    auto_raw: u64,
) -> FaultPlan {
    let mut events = Vec::new();
    for i in 0..instances.min(kill_ats.len()) {
        if flags[i] & 1 != 0 {
            events.push(FaultEvent { at: kill_ats[i], instance: i, action: FaultAction::Kill });
            if flags[i] & 2 != 0 {
                events.push(FaultEvent {
                    at: kill_ats[i] + 1 + restart_gaps[i],
                    instance: i,
                    action: FaultAction::Restart,
                });
            }
        }
    }
    events.sort_unstable_by_key(|e| (e.at, e.instance));
    let autoscale = (auto_raw >= 2)
        .then_some(AutoscalePolicy { spawn_above: auto_raw, drain_below: auto_raw / 2 });
    FaultPlan { events, autoscale }
}

fn residency_of(raw: usize, cap: u64) -> (Option<u64>, Option<Vec<TierSpec>>) {
    match raw % 3 {
        0 => (None, None),
        1 => (Some(cap), None),
        _ => (
            None,
            Some(vec![
                TierSpec::new("buf", cap, 64.0),
                TierSpec::new("dram", cap * 4, 8.0),
                TierSpec::new("ssd", cap * 16, 1.0),
            ]),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random workloads, fault plans, and tier stacks, and at every
    /// window width: windows fold exactly to totals, and totals re-derive
    /// the run's own `ClusterReport`.
    #[test]
    fn windows_fold_to_totals_and_totals_rederive_the_report(
        gaps in proptest::collection::vec(0u64..1000, 1..60),
        model_picks in proptest::collection::vec(0usize..3, 60..61),
        instances in 2usize..5,
        router_idx in 0usize..3,
        max_batch in 1usize..5,
        max_wait in 0u64..1500,
        queue_cap in 1usize..8,
        raw_deadline in 0u64..6000,
        residency_raw in 0usize..3,
        tier_cap in 500u64..3000,
        kill_ats in proptest::collection::vec(1u64..40_000, 4..5),
        restart_gaps in proptest::collection::vec(0u64..30_000, 4..5),
        flags in proptest::collection::vec(0usize..4, 4..5),
        auto_raw in 0u64..6,
        window_raw in 0u64..5000,
    ) {
        // Window draw spans the extremes: single-cycle, mid-size, and
        // one window covering the whole run.
        let window = match window_raw {
            0 => 1,
            1 => 1 << 40,
            w => w,
        };
        let deadline_budget = (raw_deadline >= 500).then_some(raw_deadline);
        let services = [
            service("a", 300, 60, max_batch, 700),
            service("b", 250, 90, max_batch, 500),
            service("c", 400, 30, max_batch, 900),
        ];
        let mut requests = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for (i, g) in gaps.iter().enumerate() {
            t += g;
            requests.push(Request {
                model: model_picks[i],
                arrival: t,
                deadline: deadline_budget.map(|d| t + d),
            });
        }
        let (buffer_bytes, tiers) = residency_of(residency_raw, tier_cap);
        let spec = ClusterSpec {
            instances,
            router: router_of(router_idx),
            policy: BatchPolicy { max_batch, max_wait, queue_cap },
            buffer_bytes,
            tiers,
            faults: plan_of(instances, &kill_ats, &restart_gaps, &flags, auto_raw),
        };

        let mut rec = Recorder::new();
        let run = simulate_cluster_run_obs(&requests, &services, &spec, &mut rec).unwrap();
        let report = &run.report;
        let a = analyze(rec.events(), window);

        // The fold property: the windows partition the stream.
        prop_assert_eq!(&a.fold_windows(), &a.totals);

        // The totals re-derive the run's own report.
        prop_assert!(a.totals.conserves());
        prop_assert!(report.conserves(requests.len()));
        prop_assert_eq!(a.totals.submitted as usize, requests.len());
        prop_assert_eq!(a.totals.served as usize, report.completed());
        prop_assert_eq!(a.totals.missed, report.misses);
        prop_assert_eq!(a.totals.rejected, report.rejected);
        prop_assert_eq!(a.totals.lost, report.lost);
        prop_assert_eq!(a.totals.batches_killed, report.killed_batches);
        // Every launched batch completes or is killed.
        prop_assert_eq!(
            a.totals.batches_launched,
            a.totals.batches_completed + a.totals.batches_killed
        );

        // Tier traffic: the event stream carries the same story the
        // report's per-tier counters tell.
        if let Some(stack) = &spec.tiers {
            prop_assert_eq!(report.tier_traffic.len(), stack.len());
            prop_assert_eq!(a.totals.tier_hits, report.tier_traffic[0].hits);
            let promotions: u64 = report.tier_traffic.iter().map(|t| t.promotions).sum();
            prop_assert_eq!(a.totals.tier_promotions, promotions);
        }

        // Attribution: segments of every served request sum to its
        // latency, and the missed/lost splits match the report.
        let mut missed = 0u64;
        let mut lost = 0u64;
        for at in &a.attributions {
            if at.lost {
                lost += 1;
                continue;
            }
            // Segments of a served lifetime sum to its latency.
            prop_assert_eq!(
                at.reroute + at.queue + at.formation + at.cold + at.exec,
                at.done - at.arrival
            );
            if at.missed {
                missed += 1;
            }
        }
        prop_assert_eq!(missed, report.misses);
        prop_assert_eq!(lost, report.lost);
    }
}
