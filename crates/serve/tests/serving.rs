//! Serving-subsystem invariants: the batch-amortization property (a batch
//! of N identical images matches N single-image runs on every
//! activation-side statistic while weight-side DRAM is charged once) and
//! the end-to-end determinism of the serving pipeline across worker
//! counts.

use proptest::prelude::*;
use se_baselines::BaselineConfig;
use se_hw::SeAcceleratorConfig;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{trace_pairs, TraceOptions};
use se_obs::NullSink;
use se_serve::cluster::{self, ClusterReport, ClusterSpec, ModelService, RouterPolicy};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern, Request};
use se_serve::{BatchEngine, FaultPlan, SE_LANE};

fn conv(name: &str, ci: usize, co: usize, k: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: k, stride: 1, padding: 1 },
        (hw, hw),
    )
}

fn engine() -> BatchEngine {
    BatchEngine::new(SeAcceleratorConfig::default(), BaselineConfig::default()).unwrap()
}

/// `se serve`'s server: the 1-instance, round-robin, no-residency
/// cluster.
fn one_instance(policy: BatchPolicy) -> ClusterSpec {
    ClusterSpec {
        instances: 1,
        router: RouterPolicy::RoundRobin,
        policy,
        buffer_bytes: None,
        tiers: None,
        faults: FaultPlan::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every accelerator lane and random CONV geometry: a batch of N
    /// identical images equals the sum of N single-image runs on every
    /// activation-side statistic (input/output DRAM, global-buffer
    /// traffic, compute work), while weight-side DRAM accesses — the
    /// compressed weights, their indices, the weight-buffer fill, and the
    /// rebuild register-file traffic — are charged exactly once.
    #[test]
    fn batch_of_n_matches_n_singles_except_weight_side(
        seed in 0u64..200,
        ci in 2usize..5,
        co in 2usize..9,
        k in 1usize..4,
        n in 2u64..9,
    ) {
        let net = NetworkDesc::new(
            "prop",
            Dataset::Cifar10,
            vec![conv("c", ci, co, k, 8)],
        ).unwrap();
        let opts = TraceOptions::fast().with_seed(seed);
        let pair = trace_pairs(&net, &opts).unwrap().remove(0);
        let e = engine();
        for lane in 0..5 {
            let accel = e.accelerator(lane);
            let trace = if lane == SE_LANE { &pair.se } else { &pair.dense };
            let single = accel.process_layer(trace).unwrap();
            let bw = accel.dram_bytes_per_cycle();
            let batch = single.amortized_over_batch(n, bw);

            // Activation-side: exactly N single-image runs.
            prop_assert_eq!(batch.mem.dram_input_bytes, n * single.mem.dram_input_bytes);
            prop_assert_eq!(batch.mem.dram_output_bytes, n * single.mem.dram_output_bytes);
            prop_assert_eq!(batch.mem.input_gb_read_bytes, n * single.mem.input_gb_read_bytes);
            prop_assert_eq!(batch.mem.input_gb_write_bytes, n * single.mem.input_gb_write_bytes);
            prop_assert_eq!(batch.mem.output_gb_read_bytes, n * single.mem.output_gb_read_bytes);
            prop_assert_eq!(batch.mem.output_gb_write_bytes, n * single.mem.output_gb_write_bytes);
            prop_assert_eq!(batch.mem.weight_gb_read_bytes, n * single.mem.weight_gb_read_bytes);
            prop_assert_eq!(batch.ops.pe_lane_cycles, n * single.ops.pe_lane_cycles);
            prop_assert_eq!(batch.ops.macs, n * single.ops.macs);
            prop_assert_eq!(batch.ops.accumulator_adds, n * single.ops.accumulator_adds);
            prop_assert_eq!(batch.ops.index_compares, n * single.ops.index_compares);
            prop_assert_eq!(batch.compute_cycles, n * single.compute_cycles);

            // Weight-side DRAM and rebuild: charged once per batch.
            prop_assert_eq!(batch.mem.dram_weight_bytes, single.mem.dram_weight_bytes);
            prop_assert_eq!(batch.mem.dram_index_bytes, single.mem.dram_index_bytes);
            prop_assert_eq!(batch.mem.weight_gb_write_bytes, single.mem.weight_gb_write_bytes);
            prop_assert_eq!(batch.mem.rf_bytes, single.mem.rf_bytes);
            prop_assert_eq!(batch.ops.rebuild_shift_adds, single.ops.rebuild_shift_adds);

            // And batch = 1 is the single-image result, bit for bit.
            prop_assert_eq!(single.amortized_over_batch(1, bw), single.clone());
        }
    }
}

/// A serving run end to end, returning a value that captures everything
/// `se serve` would print: per-request latencies, batch sizes, rejects.
fn serve_once(sim_workers: usize, trace_workers: usize) -> (ClusterReport, Vec<u64>) {
    let net = NetworkDesc::new(
        "det",
        Dataset::Cifar10,
        vec![conv("c1", 3, 8, 3, 8), conv("c2", 8, 8, 3, 8), conv("c3", 8, 8, 3, 8)],
    )
    .unwrap();
    let opts = TraceOptions::fast()
        .with_se_config(TraceOptions::fast().se_config.with_parallelism(trace_workers).unwrap());
    let pairs = trace_pairs(&net, &opts).unwrap();
    let e = engine();
    let per_image = e.per_image_comparison(&pairs, sim_workers).unwrap()[SE_LANE].clone().unwrap();
    let spec = one_instance(BatchPolicy { max_batch: 4, max_wait: 2_000, queue_cap: 64 });
    let service = ModelService::from_engine(&e, SE_LANE, "det", &per_image, spec.policy.max_batch);
    let requests: Vec<Request> = workload::open_loop_arrivals(
        48,
        200_000.0,
        SeAcceleratorConfig::default().frequency_hz,
        ArrivalPattern::Burst { size: 3 },
    )
    .unwrap()
    .into_iter()
    .map(|arrival| Request { model: 0, arrival, deadline: None })
    .collect();
    let report = cluster::simulate_cluster(&requests, std::slice::from_ref(&service), &spec);
    (report.unwrap(), service.streamed)
}

#[test]
fn serving_pipeline_is_bit_identical_across_worker_counts() {
    let (serial, exec1) = serve_once(1, 1);
    assert!(serial.completed() > 0);
    for workers in [2usize, 4, 8] {
        let (parallel, exec) = serve_once(workers, workers.min(4));
        assert_eq!(serial, parallel, "workers = {workers}");
        assert_eq!(exec1, exec, "latency table must not depend on workers");
    }
}

#[test]
fn batched_serving_beats_single_image_serving_on_throughput() {
    let net = NetworkDesc::new("thr", Dataset::Cifar10, vec![conv("c1", 3, 8, 3, 8)]).unwrap();
    let pairs = trace_pairs(&net, &TraceOptions::fast()).unwrap();
    // A bandwidth-starved configuration makes the weight fetch the
    // bottleneck — the regime where batch amortization pays in latency.
    let se_cfg = SeAcceleratorConfig { dram_bytes_per_cycle: 0.25, ..Default::default() };
    let e = BatchEngine::new(se_cfg, BaselineConfig::default()).unwrap();
    let per_image = e.per_image_comparison(&pairs, 2).unwrap()[SE_LANE].clone().unwrap();
    let services = [ModelService::from_engine(&e, SE_LANE, "thr", &per_image, 8)];
    // A closed loop saturates the server; wider batches finish the same
    // demand sooner because each batch fetches weights once.
    let closed = |max_batch| {
        let spec = one_instance(BatchPolicy { max_batch, ..Default::default() });
        cluster::simulate_closed_loop(64, 8, &services, &spec, &mut NullSink).unwrap().report
    };
    let singles = closed(1);
    let batched = closed(8);
    assert_eq!(singles.completed(), 64);
    assert_eq!(batched.completed(), 64);
    assert!(
        batched.makespan < singles.makespan,
        "batched {} !< single {}",
        batched.makespan,
        singles.makespan
    );
}
