//! Criterion benches for the numeric kernels the pipeline leans on:
//! power-of-2 quantization, Booth digit counting, the tap-window max, matmul,
//! and im2col.

use criterion::{criterion_group, criterion_main, Criterion};
use se_hw::window::{self, SerialMode};
use se_ir::{booth, Po2Set, QuantTensor};
use se_tensor::conv::{im2col, Conv2dGeom};
use se_tensor::{rng, Mat};
use std::hint::black_box;

fn bench_po2_quantize(c: &mut Criterion) {
    let po2 = Po2Set::default();
    let mut r = rng::seeded(1);
    let xs = rng::normal_vec(&mut r, 4096, 0.0, 0.3);
    c.bench_function("po2_quantize_4096", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in &xs {
                acc += po2.quantize(black_box(x));
            }
            black_box(acc)
        })
    });
}

fn bench_booth(c: &mut Criterion) {
    let codes: Vec<i8> = (0..4096).map(|i| (i % 256) as u8 as i8).collect();
    c.bench_function("booth_digits_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &codes {
                acc += booth::booth_nonzero_digits(black_box(x));
            }
            black_box(acc)
        })
    });
}

fn bench_window(c: &mut Criterion) {
    let mut r = rng::seeded(2);
    let t = rng::normal_tensor(&mut r, &[64, 32, 32], 1.0).map(f32::abs);
    let q = QuantTensor::quantize(&t, 8).unwrap();
    let counts = window::serial_counts(&q, SerialMode::Booth);
    c.bench_function("window_sweep_32row", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for row in counts.chunks(32) {
                for start in 0..24 {
                    acc += u64::from(window::window_max(black_box(&row[start..]), 1, 8));
                }
            }
            black_box(acc)
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut r = rng::seeded(3);
    let a = rng::normal_mat(&mut r, 128, 128, 1.0);
    let b_m = rng::normal_mat(&mut r, 128, 128, 1.0);
    c.bench_function("matmul_128", |b| b.iter(|| black_box(a.matmul(black_box(&b_m)).unwrap())));
    // The sparse-row fast path the SE coefficient matrices exercise.
    let mut sparse = Mat::zeros(128, 128);
    for i in (0..128).step_by(4) {
        sparse.set(i, i, 0.5);
    }
    c.bench_function("matmul_128_sparse_rows", |b| {
        b.iter(|| black_box(sparse.matmul(black_box(&b_m)).unwrap()))
    });
}

fn bench_im2col(c: &mut Criterion) {
    let mut r = rng::seeded(4);
    let x = rng::normal_tensor(&mut r, &[16, 32, 32], 1.0);
    let geom = Conv2dGeom {
        in_channels: 16,
        out_channels: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    c.bench_function("im2col_16x32x32_k3", |b| {
        b.iter(|| black_box(im2col(black_box(&x), &geom).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_po2_quantize,
    bench_booth,
    bench_window,
    bench_matmul,
    bench_im2col
);
criterion_main!(benches);
