//! Determinism of the observability event stream, property-tested over
//! random traces × fault plans × residency stacks:
//!
//! * **non-perturbation**: running with a recording sink produces exactly
//!   the same `ClusterRun` as running blind — observation never changes a
//!   scheduling decision;
//! * **purity**: the virtual-time event stream is a function of the trace
//!   and spec alone — two recordings are identical bit for bit;
//! * **bookkeeping**: the stream's terminal events re-derive the report's
//!   counters (served/rejected/lost).

use proptest::prelude::*;
use se_obs::{EventKind, NullSink, Recorder};
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
        dram_bytes_per_cycle: 4.0,
    }
}

fn router_of(idx: usize) -> RouterPolicy {
    match idx % 3 {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        _ => RouterPolicy::ModelAffinity,
    }
}

/// Same valid-plan construction as `tests/fault.rs`: optional kill per
/// instance, optional strictly-later restart, events ordered by
/// `(at, instance)`.
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

/// Residency draw: nothing, the flat weight buffer, or a 3-deep tier
/// stack (buf/dram/ssd shape).
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

    /// Over random mixed-model traces, churn plans, and residency stacks:
    /// observation does not perturb outcomes, the event stream is a pure
    /// function of the inputs, and its terminal events balance the books.
    #[test]
    fn observation_is_pure_and_never_perturbs_the_run(
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
    ) {
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

        let plain = simulate_cluster_run_obs(&requests, &services, &spec, &mut NullSink).unwrap();
        let mut sim_rec = Recorder::new();
        let observed =
            simulate_cluster_run_obs(&requests, &services, &spec, &mut sim_rec).unwrap();
        prop_assert!(observed == plain, "observation must not perturb the run");
        let mut again = Recorder::new();
        simulate_cluster_run_obs(&requests, &services, &spec, &mut again).unwrap();
        prop_assert!(again.events() == sim_rec.events(), "the event stream must be pure");

        // Terminal events re-derive the report's books.
        let (mut served, mut rejected, mut lost) = (0usize, 0u64, 0u64);
        for event in sim_rec.events() {
            match event.kind {
                EventKind::Served { .. } => served += 1,
                EventKind::Rejected { .. } => rejected += 1,
                EventKind::Lost { .. } => lost += 1,
                _ => {}
            }
        }
        prop_assert_eq!(served, plain.report.completed());
        prop_assert_eq!(rejected, plain.report.rejected);
        prop_assert_eq!(lost, plain.report.lost);
    }
}

/// A disabled sink records nothing and leaves the run unchanged, while an
/// enabled sink on the same trace sees the full story:
/// admissions, batch spans, the kill/restart pair, and — with a tier
/// stack — per-tier admission events.
#[test]
fn directed_churned_tiered_run_tells_the_whole_story() {
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 1600)];
    let requests: Vec<Request> = (0..120)
        .map(|i| Request {
            model: (i % 2) as usize,
            arrival: i * 180,
            deadline: Some(i * 180 + 4000),
        })
        .collect();
    let spec = ClusterSpec {
        instances: 4,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 16 },
        buffer_bytes: None,
        tiers: Some(vec![
            TierSpec::new("buf", 1700, 64.0),
            TierSpec::new("dram", 6800, 8.0),
            TierSpec::new("ssd", 27_200, 1.0),
        ]),
        faults: FaultPlan {
            events: vec![
                FaultEvent { at: 2_500, instance: 1, action: FaultAction::Kill },
                FaultEvent { at: 15_000, instance: 1, action: FaultAction::Restart },
            ],
            autoscale: None,
        },
    };

    let plain = simulate_cluster_run_obs(&requests, &services, &spec, &mut NullSink).unwrap();

    let mut rec = Recorder::new();
    let observed = simulate_cluster_run_obs(&requests, &services, &spec, &mut rec).unwrap();
    assert_eq!(observed, plain);

    let count = |pred: &dyn Fn(&EventKind) -> bool| -> usize {
        rec.events().iter().filter(|e| pred(&e.kind)).count()
    };
    assert_eq!(
        count(&|k| matches!(k, EventKind::InstanceKilled { instance: 1, .. })),
        1,
        "the scripted kill is on the stream"
    );
    assert_eq!(count(&|k| matches!(k, EventKind::InstanceRestarted { instance: 1 })), 1);
    assert!(count(&|k| matches!(k, EventKind::BatchLaunched { .. })) >= 1);
    assert!(
        count(&|k| matches!(
            k,
            EventKind::TierHit { .. }
                | EventKind::TierPromoted { .. }
                | EventKind::TierColdFetch { .. }
                | EventKind::TierStreamed { .. }
        )) >= 1,
        "a tiered run narrates its admissions"
    );
    assert_eq!(count(&|k| matches!(k, EventKind::Served { .. })), plain.report.completed());

    // Virtual timestamps are monotone per batch: a batch completes at or
    // after it launches, and every kill precedes its restart.
    let launch = rec
        .events()
        .iter()
        .find(|e| matches!(e.kind, EventKind::BatchLaunched { .. }))
        .expect("at least one launch");
    if let EventKind::BatchLaunched { done, .. } = launch.kind {
        assert!(done >= launch.at);
    }
}
