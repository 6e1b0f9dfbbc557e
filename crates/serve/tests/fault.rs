//! Failure-injection invariants, property-tested over random workloads
//! and random fault plans:
//!
//! * **conservation**: completed + rejected + lost == submitted — a kill
//!   re-routes or loses its victims, it never silently drops one;
//! * **outcome completeness**: the run's event stream ends every request
//!   exactly once (served, rejected, or lost), and the served/rejected/
//!   lost split matches the report's counters.

use proptest::prelude::*;
use se_obs::analyze::analyze;
use se_obs::{EventKind, NullSink, Recorder};
use se_serve::cluster::{simulate_cluster_run_obs, ClusterSpec, ModelService, RouterPolicy};
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

/// Builds a valid plan from raw per-instance draws: instance `i` gets a
/// kill at `kill_ats[i]` when `flags[i]` has bit 0 set, plus a restart
/// strictly after it when bit 1 is also set. Events are then ordered by
/// `(at, instance)`, which preserves each instance's kill-then-restart
/// history (the restart time is strictly larger).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under a random fault plan (kills, restarts, sometimes autoscaling)
    /// on a random mixed-model stream: every request reaches exactly one
    /// terminal state and the books balance.
    #[test]
    fn random_churn_conserves_requests(
        gaps in proptest::collection::vec(0u64..1200, 1..70),
        model_picks in proptest::collection::vec(0usize..3, 70..71),
        instances in 2usize..6,
        router_idx in 0usize..3,
        max_batch in 1usize..5,
        max_wait in 0u64..2000,
        queue_cap in 1usize..10,
        raw_deadline in 0u64..6000,
        raw_buffer in 0u64..2000,
        kill_ats in proptest::collection::vec(1u64..40_000, 5..6),
        restart_gaps in proptest::collection::vec(0u64..30_000, 5..6),
        flags in proptest::collection::vec(0usize..4, 5..6),
        auto_raw in 0u64..6,
    ) {
        let deadline_budget = (raw_deadline >= 500).then_some(raw_deadline);
        let buffer = (raw_buffer >= 400).then_some(raw_buffer);
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
        let faults = plan_of(instances, &kill_ats, &restart_gaps, &flags, auto_raw);
        let scripted = !faults.events.is_empty();
        let spec = ClusterSpec {
            instances,
            router: router_of(router_idx),
            policy: BatchPolicy { max_batch, max_wait, queue_cap },
            buffer_bytes: buffer,
            tiers: None,
            faults,
        };
        let mut recorder = Recorder::new();
        let run = simulate_cluster_run_obs(&requests, &services, &spec, &mut recorder).unwrap();

        // Conservation: served + rejected + lost accounts for every
        // submitted request exactly once.
        prop_assert!(run.report.conserves(requests.len()),
            "completed {} + rejected {} + lost {} != submitted {}",
            run.report.completed(), run.report.rejected, run.report.lost,
            requests.len());

        // Outcome completeness and report consistency: every request id
        // reaches exactly one terminal event on the stream.
        let totals = analyze(&recorder.into_events(), 1_000).totals;
        prop_assert_eq!(totals.submitted, requests.len() as u64);
        prop_assert_eq!(totals.duplicate_terminals, 0);
        prop_assert!(totals.conserves());
        prop_assert_eq!(totals.served, run.report.completed() as u64);
        prop_assert_eq!(totals.rejected, run.report.rejected);
        prop_assert_eq!(totals.lost, run.report.lost);
        if !scripted {
            prop_assert_eq!(run.report.lost, 0);
            prop_assert_eq!(run.report.killed_batches, 0);
        }
    }
}

/// A directed chaos scenario (the shape the CI smoke runs): four mixed
/// SE+dense-style instances, one killed mid-run and restarted later. The
/// books must balance, goodput must degrade but not collapse, and the
/// restarted instance's cold buffer must show up as extra weight fetches.
#[test]
fn one_kill_mid_run_degrades_goodput_proportionally_not_to_zero() {
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 1600)];
    let requests: Vec<Request> = (0..120)
        .map(|i| Request {
            model: (i % 2) as usize,
            arrival: i * 180,
            deadline: Some(i * 180 + 4000),
        })
        .collect();
    let healthy_spec = ClusterSpec {
        instances: 4,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 16 },
        buffer_bytes: Some(2000),
        tiers: None,
        faults: FaultPlan::default(),
    };
    let churn_spec = ClusterSpec {
        faults: FaultPlan {
            // Instance 1's first batch (requests 1/5/9/13, all model 1)
            // runs over [2340, 2815]: the kill lands mid-execution.
            events: vec![
                FaultEvent { at: 2_500, instance: 1, action: FaultAction::Kill },
                FaultEvent { at: 15_000, instance: 1, action: FaultAction::Restart },
            ],
            autoscale: None,
        },
        ..healthy_spec.clone()
    };
    let healthy =
        simulate_cluster_run_obs(&requests, &services, &healthy_spec, &mut NullSink).unwrap();
    let churned =
        simulate_cluster_run_obs(&requests, &services, &churn_spec, &mut NullSink).unwrap();

    assert!(healthy.report.conserves(120));
    assert!(churned.report.conserves(120));
    assert_eq!(healthy.report.lost, 0);

    // Goodput under churn: worse than healthy, but nowhere near zero —
    // the other three instances keep serving and victims are re-routed.
    let healthy_good = healthy.report.goodput_per_s(1e9);
    let churned_good = churned.report.goodput_per_s(1e9);
    assert!(churned_good <= healthy_good);
    assert!(
        churned_good >= healthy_good / 2.0,
        "one dead instance of four must not halve goodput: {churned_good} vs {healthy_good}"
    );

    // The kill and restart are on the books, and the cold restart forces
    // re-fetches the healthy run never pays.
    let [kill, restart] = &churned.report.events[..] else {
        panic!("one kill and one restart: {:?}", churned.report.events);
    };
    assert!(matches!(kill.kind, EventKind::InstanceKilled { .. }));
    assert!(matches!(restart.kind, EventKind::InstanceRestarted { .. }));
    assert!(churned.report.killed_batches >= 1);
    assert!(churned.report.rerouted >= 1, "victims re-enter the router");
    assert!(
        churned.report.residency.fetches > healthy.report.residency.fetches,
        "a cold restart must force weight re-fetches: {} !> {}",
        churned.report.residency.fetches,
        healthy.report.residency.fetches
    );
}
