//! Cluster-subsystem invariants:
//!
//! * cluster results are bit-identical across worker counts of the
//!   per-image simulation;
//! * residency: N requests to one resident model fetch weights once;
//!   alternating two models at a too-small buffer evicts on every switch;
//! * the acceptance comparison: on a mixed two-model workload at a fixed
//!   per-instance weight buffer, the SmartExchange lane refetches fewer
//!   weights and sustains no worse goodput than every dense baseline.

use se_baselines::BaselineConfig;
use se_hw::SeAcceleratorConfig;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{trace_pairs, TraceOptions};
use se_serve::cluster::{simulate_cluster, ClusterSpec, ModelService, RouterPolicy};
use se_serve::fault::FaultPlan;
use se_serve::queue::BatchPolicy;
use se_serve::workload::Request;
use se_serve::{BatchEngine, ACCEL_NAMES, SE_LANE};

fn conv(name: &str, ci: usize, co: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
        (hw, hw),
    )
}

/// The mixed two-model workload's nets (small, distinct footprints).
fn two_models() -> Vec<NetworkDesc> {
    vec![
        NetworkDesc::new(
            "alpha",
            Dataset::Cifar10,
            vec![conv("a1", 3, 8, 8), conv("a2", 8, 8, 8), conv("a3", 8, 8, 8)],
        )
        .unwrap(),
        NetworkDesc::new(
            "beta",
            Dataset::Cifar10,
            vec![conv("b1", 3, 16, 8), conv("b2", 16, 8, 8)],
        )
        .unwrap(),
    ]
}

/// The full engine-backed path: per-image simulation at several worker
/// counts must produce bit-identical cluster reports (the serial cluster
/// loop inherits the grid's determinism).
#[test]
fn cluster_reports_are_bit_identical_across_worker_counts() {
    let models = two_models();
    let spec = ClusterSpec {
        instances: 3,
        router: RouterPolicy::JoinShortestQueue,
        policy: BatchPolicy { max_batch: 4, max_wait: 500, queue_cap: 32 },
        buffer_bytes: Some(2048),
        tiers: None,
        faults: FaultPlan::default(),
    };
    let requests: Vec<Request> = (0..40)
        .map(|i| Request {
            model: i % 2,
            arrival: i as u64 * 700,
            deadline: Some(i as u64 * 700 + 2500),
        })
        .collect();
    let mut baseline = None;
    for workers in [1usize, 4] {
        let engine =
            BatchEngine::new(SeAcceleratorConfig::default(), BaselineConfig::default()).unwrap();
        let services: Vec<ModelService> = models
            .iter()
            .map(|net| {
                let pairs = trace_pairs(net, &TraceOptions::fast()).unwrap();
                let per_image =
                    engine.per_image_comparison(&pairs, workers).unwrap()[SE_LANE].clone().unwrap();
                ModelService::from_engine(&engine, SE_LANE, net.name(), &per_image, 4)
            })
            .collect();
        let report = simulate_cluster(&requests, &services, &spec).unwrap();
        assert!(report.completed() > 0);
        match &baseline {
            None => baseline = Some(report),
            Some(b) => assert_eq!(&report, b, "workers = {workers}"),
        }
    }
}

/// Residency mechanics through the real engine: one model served
/// repeatedly fetches its weights exactly once; two models alternating
/// through a buffer that holds only one evict on every switch.
#[test]
fn residency_fetches_once_when_resident_and_thrashes_when_not() {
    let models = two_models();
    let engine =
        BatchEngine::new(SeAcceleratorConfig::default(), BaselineConfig::default()).unwrap();
    let services: Vec<ModelService> = models
        .iter()
        .map(|net| {
            let pairs = trace_pairs(net, &TraceOptions::fast()).unwrap();
            let per_image =
                engine.per_image_comparison(&pairs, 2).unwrap()[SE_LANE].clone().unwrap();
            ModelService::from_engine(&engine, SE_LANE, net.name(), &per_image, 4)
        })
        .collect();
    let spec = |buffer: u64| ClusterSpec {
        instances: 1,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 0, queue_cap: 64 },
        buffer_bytes: Some(buffer),
        tiers: None,
        faults: FaultPlan::default(),
    };

    // One model, far-apart arrivals (every batch is a single): weights are
    // fetched once, then every batch is a residency hit.
    let single: Vec<Request> =
        (0..12).map(|i| Request { model: 0, arrival: i * 50_000, deadline: None }).collect();
    let roomy = services[0].footprint_bytes + 1;
    let r = simulate_cluster(&single, &services, &spec(roomy)).unwrap();
    assert_eq!(r.residency.fetches, 1, "one resident model fetches weights once");
    assert_eq!(r.residency.hits, 11);
    assert_eq!(r.residency.evictions, 0);
    assert_eq!(r.residency.bytes_fetched, services[0].footprint_bytes);

    // Two models alternating through a buffer that holds either but not
    // both: every batch is a switch, every switch an eviction (after the
    // first).
    let alternating: Vec<Request> = (0..12)
        .map(|i| Request { model: (i % 2) as usize, arrival: i * 50_000, deadline: None })
        .collect();
    let fits_one = services.iter().map(|s| s.footprint_bytes).max().unwrap() + 1;
    assert!(fits_one < services.iter().map(|s| s.footprint_bytes).sum::<u64>());
    let r = simulate_cluster(&alternating, &services, &spec(fits_one)).unwrap();
    assert_eq!(r.residency.fetches, 12, "every alternation refetches");
    assert_eq!(r.residency.hits, 0);
    assert_eq!(r.residency.evictions, 11, "every fetch after the first evicts the other model");
}

/// The acceptance comparison: same mixed two-model request stream, same
/// per-instance weight buffer, every lane. The SmartExchange lane's
/// compressed footprints both fit (two cold fetches, then residency
/// hits); the dense footprints do not, so the dense lanes re-fetch on
/// (nearly) every switch — and under a DRAM-bandwidth-constrained node
/// that costs them deadlines. Asserts: strictly fewer weight fetches and
/// no worse goodput for SmartExchange than for every dense baseline.
#[test]
fn se_lane_refetches_less_and_sustains_goodput_vs_dense_at_equal_buffer() {
    let models = two_models();
    // A bandwidth-constrained serving node: 2 B/cycle makes the weight
    // stream the bottleneck, which is exactly the regime the paper's
    // trade targets.
    let se_cfg = SeAcceleratorConfig { dram_bytes_per_cycle: 2.0, ..Default::default() };
    let baseline_cfg = BaselineConfig { dram_bytes_per_cycle: 2.0, ..Default::default() };
    let engine = BatchEngine::new(se_cfg, baseline_cfg).unwrap();
    let per_lane_services: Vec<Option<Vec<ModelService>>> = (0..ACCEL_NAMES.len())
        .map(|lane| {
            models
                .iter()
                .map(|net| {
                    let pairs = trace_pairs(net, &TraceOptions::fast()).unwrap();
                    let runs = engine.per_image_comparison(&pairs, 2).unwrap();
                    runs[lane]
                        .as_ref()
                        .map(|r| ModelService::from_engine(&engine, lane, net.name(), r, 4))
                })
                .collect()
        })
        .collect();

    // Both SE footprints fit a 2 KB buffer together; no dense pair does.
    let se = per_lane_services[SE_LANE].as_ref().unwrap();
    let buffer = 2048u64;
    assert!(se.iter().map(|s| s.footprint_bytes).sum::<u64>() <= buffer);
    let spec = ClusterSpec {
        instances: 1,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 0, queue_cap: 64 },
        buffer_bytes: Some(buffer),
        tiers: None,
        faults: FaultPlan::default(),
    };
    // Interleaved models, uniform arrivals, a deadline the resident SE
    // lane can hold.
    let requests: Vec<Request> = (0..48)
        .map(|i| Request {
            model: (i % 2) as usize,
            arrival: i * 6000,
            deadline: Some(i * 6000 + 2000),
        })
        .collect();

    let se_report = simulate_cluster(&requests, se, &spec).unwrap();
    assert_eq!(se_report.completed(), 48);
    for (lane, services) in per_lane_services.iter().enumerate() {
        if lane == SE_LANE {
            continue;
        }
        let services = services.as_ref().expect("both nets are plain CONV stacks");
        assert!(
            services.iter().map(|s| s.footprint_bytes).sum::<u64>() > buffer,
            "{}: dense pair must overflow the buffer",
            ACCEL_NAMES[lane]
        );
        let dense = simulate_cluster(&requests, services, &spec).unwrap();
        assert!(
            se_report.residency.fetches < dense.residency.fetches,
            "{}: SE fetches {} !< dense {}",
            ACCEL_NAMES[lane],
            se_report.residency.fetches,
            dense.residency.fetches
        );
        assert!(
            se_report.residency.bytes_fetched < dense.residency.bytes_fetched,
            "{}: SE refetch bytes must be smaller",
            ACCEL_NAMES[lane]
        );
        assert!(
            se_report.goodput_per_s(1e9) >= dense.goodput_per_s(1e9),
            "{}: SE goodput {} !>= dense {}",
            ACCEL_NAMES[lane],
            se_report.goodput_per_s(1e9),
            dense.goodput_per_s(1e9)
        );
        assert!(
            se_report.misses <= dense.misses,
            "{}: SE misses {} !<= dense {}",
            ACCEL_NAMES[lane],
            se_report.misses,
            dense.misses
        );
    }
    // The SE lane really is resident: two cold fetches, then hits.
    assert_eq!(se_report.residency.fetches, 2);
    assert_eq!(se_report.residency.evictions, 0);
}
