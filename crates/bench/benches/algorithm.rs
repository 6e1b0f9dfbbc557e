//! Criterion benches for the SmartExchange decomposition itself: matrix-
//! level Algorithm 1 and full layer compression at CONV-layer sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use se_core::{algorithm, layer, network, SeConfig, VectorSparsity};
use se_ir::{LayerDesc, LayerKind};
use se_models::{weights, zoo};
use se_tensor::rng;
use std::hint::black_box;

fn bench_decompose_matrix(c: &mut Criterion) {
    let cfg = SeConfig::default().with_max_iterations(8).unwrap();
    for rows in [48usize, 192, 768] {
        let mut r = rng::seeded(rows as u64);
        let w = rng::normal_mat(&mut r, rows, 3, 0.08);
        c.bench_function(&format!("decompose_{rows}x3"), |b| {
            b.iter(|| black_box(algorithm::decompose(black_box(&w), &cfg).unwrap()))
        });
    }
}

/// The unit shapes `se trace build --fast` spends its time on: the average
/// decomposition unit is about 43×3, and depthwise 5×5 kernels are whole
/// units, at the trace configuration (6 iterations, relative threshold).
fn bench_decompose_cold_units(c: &mut Criterion) {
    let cfg = SeConfig::default()
        .with_max_iterations(6)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))
        .unwrap();
    for (rows, cols) in [(43usize, 3usize), (5, 5)] {
        let mut r = rng::seeded((rows * cols) as u64);
        let w = rng::normal_mat(&mut r, rows, cols, 0.08);
        c.bench_function(&format!("decompose_cold_{rows}x{cols}"), |b| {
            b.iter(|| black_box(algorithm::decompose(black_box(&w), &cfg).unwrap()))
        });
    }
}

fn bench_compress_conv_layer(c: &mut Criterion) {
    let cfg = SeConfig::default()
        .with_max_iterations(6)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))
        .unwrap();
    let desc = LayerDesc::new(
        "bench",
        LayerKind::Conv2d { in_channels: 64, out_channels: 64, kernel: 3, stride: 1, padding: 1 },
        (14, 14),
    );
    let mut r = rng::seeded(9);
    let w = rng::kaiming_tensor(&mut r, &[64, 64, 3, 3], 576);
    let mut group = c.benchmark_group("compress_layer");
    group.sample_size(10);
    group.bench_function("conv_64x64x3x3", |b| {
        b.iter(|| black_box(layer::compress_layer(&desc, black_box(&w), &cfg).unwrap()))
    });
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let cfg = SeConfig::default().with_max_iterations(6).unwrap();
    let desc = LayerDesc::new(
        "bench",
        LayerKind::Conv2d { in_channels: 32, out_channels: 32, kernel: 3, stride: 1, padding: 1 },
        (14, 14),
    );
    let mut r = rng::seeded(10);
    let w = rng::kaiming_tensor(&mut r, &[32, 32, 3, 3], 288);
    let parts = layer::compress_layer(&desc, &w, &cfg).unwrap();
    c.bench_function("reconstruct_conv_32x32x3x3", |b| {
        b.iter(|| black_box(layer::reconstruct_layer(&desc, black_box(&parts)).unwrap()))
    });
}

/// Serial vs parallel whole-network compression on a ResNet-scale zoo
/// network (ResNet164: 167 layers, ~1.7 M params). The pipeline's outputs
/// are bit-identical across worker counts, so this measures pure speedup;
/// on an N-core machine the parallel run should approach N× (and must be
/// ≥2× on ≥4 cores — layers are fully independent jobs).
fn bench_compress_network_parallel(c: &mut Criterion) {
    let net = zoo::resnet164();
    let base = SeConfig::default().with_max_iterations(4).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut group = c.benchmark_group("compress_network_resnet164");
    group.sample_size(10);
    for (label, workers) in
        [("serial_1_worker".to_string(), 1), (format!("parallel_{cores}_workers"), cores)]
    {
        let cfg = base.clone().with_parallelism(workers).unwrap();
        group.bench_function(&label, |b| {
            b.iter(|| {
                black_box(
                    network::compress_network(net.layers(), &cfg, |_, d| {
                        Ok(weights::synthetic_weights(net.name(), d, 0)
                            .expect("synthetic weights are infallible"))
                    })
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decompose_matrix,
    bench_decompose_cold_units,
    bench_compress_conv_layer,
    bench_reconstruct,
    bench_compress_network_parallel
);
criterion_main!(benches);
