//! Property tests locking down the tiered weight store and its serving
//! integration:
//!
//! * **tier conservation**: over random admission streams, stacks, and
//!   restarts, `admissions == Σ tier hits + cold_fetches + streams`, and
//!   no tier ever holds more bytes than its capacity;
//! * **flat buffer**: a one-tier store (the `--buffer-kb` buffer) never
//!   promotes and never charges a walk — its misses cost exactly the
//!   lane's flat switch fetch;
//! * **report folding**: over random tier stacks crossed with random
//!   fault plans, the cluster's tier traffic is the per-instance fold;
//! * **cost ordering** (directed): a post-restart cold load is strictly
//!   costlier than a DRAM-backed promotion, and the SE lane moves
//!   strictly fewer bottom-tier bytes than every dense lane through an
//!   identical stack.

use proptest::prelude::*;
use se_hw::residency::{TierAdmission, TierSpec, TieredStore};
use se_obs::NullSink;
use se_serve::cluster::{simulate_cluster_run_obs, ClusterSpec, ModelService, RouterPolicy};
use se_serve::fault::{FaultAction, FaultEvent, FaultPlan};
use se_serve::queue::BatchPolicy;
use se_serve::workload::Request;

fn stack_of(caps: &[u64], bws: &[u64]) -> Vec<TierSpec> {
    caps.iter()
        .zip(bws)
        .enumerate()
        .map(|(k, (&cap, &bw))| TierSpec::new(&format!("t{k}"), cap, (bw + 1) as f64))
        .collect()
}

/// Untraced admission on instance 0.
fn admit(store: &mut TieredStore, model: usize, bytes: u64) -> TierAdmission {
    store.admit(model, bytes, 0, &mut |_| {})
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over a random stack, a random admission stream, and periodic cold
    /// restarts: every admission is exactly one of {tier hit, cold fetch,
    /// stream}, occupancy never exceeds any tier's capacity, a fitting
    /// footprint always lands in the top tier, and the top-tier summary
    /// splits the same total.
    #[test]
    fn random_streams_conserve_admissions_and_respect_capacity(
        caps in proptest::collection::vec(1u64..3000, 1..5),
        bws in proptest::collection::vec(0u64..63, 5..6),
        picks in proptest::collection::vec(0usize..6, 1..120),
        sizes in proptest::collection::vec(1u64..1500, 6..7),
        restart_every in 1usize..40,
    ) {
        let specs = stack_of(&caps, &bws);
        let mut store = TieredStore::new(specs.clone());
        for (i, &m) in picks.iter().enumerate() {
            let bytes = sizes[m];
            let adm = admit(&mut store, m, bytes);
            for (k, spec) in specs.iter().enumerate() {
                prop_assert!(
                    store.occupied_bytes(k) <= spec.capacity_bytes,
                    "tier {} over capacity: {} > {}",
                    k, store.occupied_bytes(k), spec.capacity_bytes
                );
            }
            if bytes > specs[0].capacity_bytes {
                prop_assert!(matches!(adm, TierAdmission::Streamed { .. }));
                prop_assert!(!store.is_resident_top(m), "streamed models never install");
            } else {
                prop_assert!(store.is_resident_top(m), "a fitting admission ends resident on top");
                prop_assert!(adm.cycles() == 0 || !matches!(adm, TierAdmission::Hit));
            }
            if (i + 1) % restart_every == 0 {
                store.cold_restart(0, &mut |_| {});
            }
        }

        // The conservation law the store documents.
        let tier_hits: u64 = store.tier_stats().iter().map(|t| t.hits).sum();
        prop_assert_eq!(store.admissions(), tier_hits + store.cold_fetches() + store.streams());
        prop_assert_eq!(store.admissions(), picks.len() as u64);

        // Every lower-tier hit is a promotion, and the top-tier summary
        // splits the same admission count: hits at the top, everything
        // byte-moving under `fetches`.
        let lower_hits: u64 = store.tier_stats().iter().skip(1).map(|t| t.hits).sum();
        let promotions: u64 = store.tier_stats().iter().map(|t| t.promotions).sum();
        prop_assert_eq!(lower_hits, promotions);
        prop_assert_eq!(store.summary().hits, store.tier_stats()[0].hits);
        prop_assert_eq!(store.summary().hits + store.summary().fetches, store.admissions());
    }

    /// The flat buffer is the one-tier stack: with nothing below the top
    /// tier, no admission ever promotes or charges walk cycles (so a flat
    /// miss costs exactly the lane's `switch_cycles`), evictions drop
    /// cold, and a restart empties the buffer.
    #[test]
    fn a_one_tier_store_never_promotes_or_charges_a_walk(
        cap in 1u64..4000,
        picks in proptest::collection::vec(0usize..5, 1..100),
        sizes in proptest::collection::vec(1u64..2000, 5..6),
        restart_every in 1usize..30,
    ) {
        let mut store = TieredStore::new(vec![TierSpec::new("buf", cap, 8.0)]);
        for (i, &m) in picks.iter().enumerate() {
            let adm = admit(&mut store, m, sizes[m]);
            prop_assert!(!matches!(adm, TierAdmission::Promoted { .. }), "{:?}", adm);
            prop_assert_eq!(adm.cycles(), 0);
            prop_assert!(store.occupied_bytes(0) <= cap);
            if (i + 1) % restart_every == 0 {
                store.cold_restart(0, &mut |_| {});
                prop_assert_eq!(store.occupied_bytes(0), 0);
            }
        }
        prop_assert_eq!(store.tier_stats()[0].demotions, 0);
    }

    /// Over random tier stacks crossed with random fault plans, requests
    /// are conserved and the cluster report's tier traffic is exactly the
    /// per-instance fold.
    #[test]
    fn tier_traffic_folds_over_random_stacks_and_fault_plans(
        caps in proptest::collection::vec(1u64..2500, 2..5),
        bws in proptest::collection::vec(0u64..31, 5..6),
        gaps in proptest::collection::vec(0u64..1000, 1..60),
        model_picks in proptest::collection::vec(0usize..3, 60..61),
        instances in 2usize..5,
        router_idx in 0usize..3,
        max_batch in 1usize..4,
        kill_at in 1u64..30_000,
        restart_gap in 0u64..20_000,
        fault_kind in 0usize..3,
    ) {
        let tiers = stack_of(&caps, &bws);
        let services = [
            service("a", 300, 60, max_batch, 700),
            service("b", 250, 90, max_batch, 500),
            service("c", 400, 30, max_batch, 900),
        ];
        let mut requests = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for (i, g) in gaps.iter().enumerate() {
            t += g;
            requests.push(Request { model: model_picks[i], arrival: t, deadline: Some(t + 5000) });
        }
        let mut events = Vec::new();
        if fault_kind >= 1 {
            events.push(FaultEvent { at: kill_at, instance: 0, action: FaultAction::Kill });
            if fault_kind == 2 {
                events.push(FaultEvent {
                    at: kill_at + 1 + restart_gap,
                    instance: 0,
                    action: FaultAction::Restart,
                });
            }
        }
        let spec = ClusterSpec {
            instances,
            router: match router_idx {
                0 => RouterPolicy::RoundRobin,
                1 => RouterPolicy::JoinShortestQueue,
                _ => RouterPolicy::ModelAffinity,
            },
            policy: BatchPolicy { max_batch, max_wait: 500, queue_cap: 8 },
            buffer_bytes: None,
            tiers: Some(tiers.clone()),
            faults: FaultPlan { events, autoscale: None },
        };
        let run = simulate_cluster_run_obs(&requests, &services, &spec, &mut NullSink).unwrap();

        prop_assert!(run.report.conserves(requests.len()));
        prop_assert_eq!(run.report.tier_traffic.len(), tiers.len());
        // The report's tier traffic is the elementwise per-instance fold.
        for (k, total) in run.report.tier_traffic.iter().enumerate() {
            let mut folded = se_serve::TierStats::default();
            for inst in &run.report.per_instance {
                if let Some(t) = inst.tier_traffic.get(k) {
                    folded.accumulate(t);
                }
            }
            prop_assert_eq!(&folded, total);
        }
    }
}

/// The acceptance ordering on a buf ↔ DRAM ↔ SSD stack: promoting out of
/// DRAM is cheap, a cold load after a restart walks from SSD and costs
/// strictly more.
#[test]
fn a_cold_load_after_restart_costs_strictly_more_than_a_dram_promotion() {
    let mut store = TieredStore::new(vec![
        TierSpec::new("buf", 1000, 16.0),
        TierSpec::new("dram", 10_000, 4.0),
        TierSpec::new("ssd", 1 << 30, 1.0),
    ]);
    assert!(matches!(admit(&mut store, 0, 800), TierAdmission::Cold { .. }));
    // Admitting model 1 displaces model 0 out of the buffer into DRAM.
    match admit(&mut store, 1, 800) {
        TierAdmission::Cold { evicted, .. } => assert_eq!(evicted, vec![0]),
        other => panic!("expected an evicting cold load, got {other:?}"),
    }
    let dram_walk = match admit(&mut store, 0, 800) {
        TierAdmission::Promoted { from: 1, cycles, .. } => cycles,
        other => panic!("expected a DRAM promotion, got {other:?}"),
    };
    assert_eq!(dram_walk, 200, "800 B over the 4 B/cycle DRAM link");

    // A restart wipes the volatile tiers; nothing was demoted as far as
    // SSD, so the model re-loads cold through the whole stack.
    store.cold_restart(0, &mut |_| {});
    let cold_walk = match admit(&mut store, 0, 800) {
        TierAdmission::Cold { cycles, .. } => cycles,
        other => panic!("expected a cold load after restart, got {other:?}"),
    };
    assert_eq!(cold_walk, 800 + 200, "SSD haul plus the DRAM crossing");
    assert!(cold_walk > dram_walk);
}

/// The same ordering observed end to end: a kill + restart on a tiered
/// cluster forces post-restart cold loads, so the churned run reads
/// strictly more bytes out of the bottom tier than the healthy one.
#[test]
fn a_restart_forces_bottom_tier_reloads_the_healthy_run_never_pays() {
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 700)];
    let requests: Vec<Request> = (0..120)
        .map(|i| Request { model: (i % 2) as usize, arrival: i * 180, deadline: None })
        .collect();
    let healthy_spec = ClusterSpec {
        instances: 2,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 16 },
        buffer_bytes: None,
        tiers: Some(vec![
            TierSpec::new("buf", 1100, 16.0),
            TierSpec::new("dram", 4000, 4.0),
            TierSpec::new("ssd", 1 << 30, 1.0),
        ]),
        faults: FaultPlan::default(),
    };
    let churn_spec = ClusterSpec {
        faults: FaultPlan {
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

    let bottom =
        |run: &se_serve::cluster::ClusterRun| run.report.tier_traffic.last().unwrap().bytes_up;
    assert!(
        bottom(&churned) > bottom(&healthy),
        "a cold restart must re-read the bottom tier: {} !> {}",
        bottom(&churned),
        bottom(&healthy)
    );
}

/// The figure-of-merit the stack exists to show: through an identical
/// buf ↔ DRAM ↔ SSD stack under an identical request stream, the
/// compressed SE lane's footprint fits where the dense lanes' do not,
/// so SE moves strictly fewer bottom-tier bytes than every dense lane.
#[test]
fn se_moves_strictly_fewer_bottom_tier_bytes_than_every_dense_lane() {
    let tiers = vec![
        TierSpec::new("buf", 1000, 16.0),
        TierSpec::new("dram", 2000, 4.0),
        TierSpec::new("ssd", 1 << 30, 1.0),
    ];
    let spec = ClusterSpec {
        instances: 2,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 16 },
        buffer_bytes: None,
        tiers: Some(tiers),
        faults: FaultPlan::default(),
    };
    // Two models per lane, alternating — the SE pair fits the buffer
    // together, each dense pair thrashes it.
    let lanes = [("se", 400, 450), ("dense-a", 900, 950), ("dense-b", 800, 1800)];
    let requests: Vec<Request> = (0..160)
        .map(|i| Request { model: (i % 2) as usize, arrival: i * 150, deadline: None })
        .collect();
    let bottom_bytes: Vec<u64> = lanes
        .iter()
        .map(|&(name, fp0, fp1)| {
            let services = [
                service(&format!("{name}-0"), 200, 40, 4, fp0),
                service(&format!("{name}-1"), 220, 45, 4, fp1),
            ];
            let run = simulate_cluster_run_obs(&requests, &services, &spec, &mut NullSink).unwrap();
            run.report.tier_traffic.last().unwrap().bytes_up
        })
        .collect();
    for (lane, &dense) in lanes.iter().zip(&bottom_bytes).skip(1) {
        assert!(
            bottom_bytes[0] < dense,
            "SE must move fewer bottom-tier bytes than {}: {} !< {}",
            lane.0,
            bottom_bytes[0],
            dense
        );
    }
}
