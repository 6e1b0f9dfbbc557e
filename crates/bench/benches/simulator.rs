//! Criterion benches for the accelerator simulators: per-layer simulation
//! throughput for the SmartExchange engine and the four baselines on a
//! 3×3 CONV and on the two MobileNetV2 shapes that dominate a compact
//! model's simulation time (a 1×1 CONV and a depth-wise CONV at 56×56),
//! plus the serial-vs-parallel five-accelerator comparison grid on a
//! repeated-geometry (ResNet164-profile) network, and the serving
//! scheduler (`se_serve`'s admit/launch loop) on a 4-instance cluster
//! with deep queues, and the `.setrace` decode that feeds a replay.

use criterion::{criterion_group, criterion_main, Criterion};
use se_baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use se_bench::runner::{compare_pairs, RunnerOptions};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, SeAcceleratorConfig};
use se_ir::serialize::ByteReader;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{self, TraceOptions};
use se_models::zoo;
use se_serve::cluster::{simulate_cluster, ClusterSpec, ModelService};
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchPolicy, FaultAction, FaultEvent, FaultPlan, RouterPolicy};
use std::hint::black_box;

/// A one-layer network around `kind` at `hw × hw`.
fn one_layer(name: &str, kind: LayerKind, hw: usize) -> NetworkDesc {
    NetworkDesc::new("bench", Dataset::Cifar10, vec![LayerDesc::new(name, kind, (hw, hw))]).unwrap()
}

/// Each of the five simulators on one layer's trace pair, as group `group`.
fn bench_layer(c: &mut Criterion, group: &str, net: &NetworkDesc) {
    let opts = TraceOptions::fast();
    let traces::TracePair { dense, se, .. } = traces::trace_pair(net, 0, &opts).unwrap();

    let mut group = c.benchmark_group(group);
    group.sample_size(20);

    let accel = SeAccelerator::new(SeAcceleratorConfig::default()).unwrap();
    group.bench_function("smartexchange", |b| {
        b.iter(|| black_box(accel.process_layer(black_box(&se)).unwrap()))
    });

    let sampled_cfg = SeAcceleratorConfig { row_sample: 4, ..Default::default() };
    let sampled = SeAccelerator::new(sampled_cfg).unwrap();
    group.bench_function("smartexchange_row_sample_4", |b| {
        b.iter(|| black_box(sampled.process_layer(black_box(&se)).unwrap()))
    });

    let diannao = DianNao::new(BaselineConfig::default()).unwrap();
    group.bench_function("diannao", |b| {
        b.iter(|| black_box(diannao.process_layer(black_box(&dense)).unwrap()))
    });

    let scnn = Scnn::new(BaselineConfig::default()).unwrap();
    group.bench_function("scnn", |b| {
        b.iter(|| black_box(scnn.process_layer(black_box(&dense)).unwrap()))
    });

    let cx = CambriconX::new(BaselineConfig::default()).unwrap();
    group.bench_function("cambricon_x", |b| {
        b.iter(|| black_box(cx.process_layer(black_box(&dense)).unwrap()))
    });

    let prag = BitPragmatic::default();
    group.bench_function("bit_pragmatic", |b| {
        b.iter(|| black_box(prag.process_layer(black_box(&dense)).unwrap()))
    });

    group.finish();
}

fn bench_simulators(c: &mut Criterion) {
    let conv = |c, m, k, p| LayerKind::Conv2d {
        in_channels: c,
        out_channels: m,
        kernel: k,
        stride: 1,
        padding: p,
    };
    bench_layer(c, "simulate_conv_64x64x3x3_16x16", &one_layer("c1", conv(64, 64, 3, 1), 16));
    // MobileNetV2's stage-2 projection and the depth-wise CONV before it.
    bench_layer(c, "simulate_pointwise_144x24_56x56", &one_layer("pw", conv(144, 24, 1, 0), 56));
    let dw = LayerKind::DepthwiseConv2d { channels: 144, kernel: 3, stride: 1, padding: 1 };
    bench_layer(c, "simulate_depthwise_144x3x3_56x56", &one_layer("dw", dw, 56));
}

/// Serial vs parallel five-accelerator simulation on a repeated-geometry
/// network: the first stage of ResNet164 (conv1 + 12 bottlenecks — the
/// same three layer shapes repeated 12×, exercising the schedule caches).
/// Traces are generated once outside the measurement, so this isolates the
/// `(layer, accelerator)` simulation grid of `se_bench::runner`. Outputs
/// are bit-identical across worker counts; on an N-core machine the
/// parallel run should show a clear wall-clock win over the serial one.
fn bench_simulation_grid_parallel(c: &mut Criterion) {
    let full = zoo::resnet164();
    let profile: Vec<LayerDesc> = full.layers()[..37].to_vec();
    let net = NetworkDesc::new("ResNet164-stage1", Dataset::Cifar10, profile).unwrap();
    let opts = RunnerOptions::fast();
    let pairs = traces::trace_pairs(&net, &opts.traces).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut group = c.benchmark_group("simulation_grid_resnet164_stage1");
    group.sample_size(10);
    for (label, workers) in
        [("serial_1_worker".to_string(), 1), (format!("parallel_{cores}_workers"), cores)]
    {
        let opts = opts.clone().with_sim_parallelism(workers).unwrap();
        group.bench_function(&label, |b| {
            b.iter(|| black_box(compare_pairs(net.name(), black_box(&pairs), &opts).unwrap()))
        });
    }
    group.finish();
}

/// The serving scheduler alone: a 4-instance join-shortest-queue cluster
/// over two synthetic models (batch tables `base + per * k`, no weight
/// store), offered 25% more than it can serve so every queue runs near
/// its 256-request cap (a 50 ms deadline, above the ~30 ms a full queue
/// waits), with and without instance 1 killed at a third of the stream
/// and restarted at two thirds. No accelerator is simulated:
/// this isolates admission, routing, EDF batch formation and launch.
fn bench_cluster_scheduler(c: &mut Criterion) {
    const REQUESTS: usize = 20_000;
    const FREQ_HZ: f64 = 1e9;
    let table = |base: u64, per: u64| (1..=8).map(|k| base + per * k).collect::<Vec<u64>>();
    let service = |name: &str, base, per| ModelService {
        name: name.into(),
        streamed: table(base, per),
        resident: table(base, per),
        footprint_bytes: 0,
        switch_cycles: 0,
    };
    // Full batches of 8 take 1.0 and 0.84 ms: about 8.7k req/s per
    // instance, 35k for the cluster.
    let services = [service("a", 200_000, 100_000), service("b", 120_000, 90_000)];
    let rate = 1.25 * 35_000.0;
    let stream = workload::request_stream(
        REQUESTS,
        rate,
        FREQ_HZ,
        ArrivalPattern::Uniform,
        services.len(),
        Some(50_000_000),
    )
    .unwrap();
    let span = (REQUESTS as f64 / rate * FREQ_HZ) as u64;
    let steady = ClusterSpec {
        instances: 4,
        router: RouterPolicy::JoinShortestQueue,
        policy: BatchPolicy { max_batch: 8, max_wait: 50_000, queue_cap: 256 },
        buffer_bytes: None,
        tiers: None,
        faults: FaultPlan::default(),
    };
    let churn = |at, action| FaultEvent { at, instance: 1, action };
    let churned = ClusterSpec {
        faults: FaultPlan {
            events: vec![
                churn(span / 3, FaultAction::Kill),
                churn(2 * span / 3, FaultAction::Restart),
            ],
            autoscale: None,
        },
        ..steady.clone()
    };

    let mut group = c.benchmark_group("cluster_4x_jsq_deep_queues_20k_requests");
    group.sample_size(20);
    for (label, spec) in [("steady", &steady), ("kill_restart", &churned)] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(simulate_cluster(black_box(&stream), &services, spec).unwrap()))
        });
    }
    group.finish();
}

/// Decoding an in-memory `.setrace` artifact of three layers (a 3×3 CONV,
/// a depth-wise CONV and an FC layer, the three `Ce` layouts) through
/// `read_trace_pairs`, the decode a cached replay starts with.
fn bench_decode_trace(c: &mut Criterion) {
    let conv =
        LayerKind::Conv2d { in_channels: 64, out_channels: 64, kernel: 3, stride: 1, padding: 1 };
    let dw = LayerKind::DepthwiseConv2d { channels: 144, kernel: 3, stride: 1, padding: 1 };
    let fc = LayerKind::Linear { in_features: 512, out_features: 256 };
    let layers = vec![
        LayerDesc::new("conv", conv, (16, 16)),
        LayerDesc::new("dw", dw, (28, 28)),
        LayerDesc::new("fc", fc, (1, 1)),
    ];
    let net = NetworkDesc::new("decode", Dataset::Cifar10, layers).unwrap();
    let pairs = traces::trace_pairs(&net, &TraceOptions::fast().with_fc_layers()).unwrap();
    let bytes = traces::encode_trace_pairs(net.name(), 0, &pairs).unwrap();

    let mut group = c.benchmark_group("decode_trace");
    group.sample_size(20);
    group.bench_function("conv_depthwise_fc", |b| {
        b.iter(|| {
            let mut r = ByteReader::new(black_box(&bytes));
            black_box(traces::read_trace_pairs(&mut r).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulators,
    bench_simulation_grid_parallel,
    bench_cluster_scheduler,
    bench_decode_trace
);
criterion_main!(benches);
