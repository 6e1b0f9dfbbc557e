//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use smartexchange::core::{algorithm, SeConfig, VectorSparsity};
use smartexchange::ir::{booth, Po2Set, QuantTensor};
use smartexchange::tensor::{linalg, Mat, Tensor};

mod golden;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantizing to Ω_P is idempotent and always lands in the set.
    #[test]
    fn po2_quantize_idempotent(x in -10.0f32..10.0) {
        let set = Po2Set::default();
        let q = set.quantize(x);
        prop_assert!(set.contains(q));
        prop_assert_eq!(set.quantize(q), q);
    }

    /// Encode/decode of representable values round-trips for arbitrary
    /// alphabet shapes.
    #[test]
    fn po2_codec_roundtrip(max_exp in -8i32..8, count in 1u32..12, idx in 0u32..12, neg in any::<bool>()) {
        let set = Po2Set::new(max_exp, count).unwrap();
        let p = max_exp - (idx % count) as i32;
        let v = if neg { -1.0 } else { 1.0 } * (p as f32).exp2();
        let code = set.encode(v).unwrap();
        prop_assert_eq!(set.decode(code).unwrap(), v);
        prop_assert!(u32::from(code) < (1u32 << set.code_bits()));
    }

    /// Booth digits always reconstruct the 8-bit value.
    #[test]
    fn booth_reconstructs(v in any::<i8>()) {
        let d = booth::booth_digits(v);
        let recon: i32 = d.iter().enumerate().map(|(i, &dv)| i32::from(dv) * 4i32.pow(i as u32)).sum();
        prop_assert_eq!(recon, i32::from(v));
        prop_assert!(booth::booth_nonzero_digits(v) <= 4);
    }

    /// 8-bit quantization round-trips within half a step.
    #[test]
    fn quant_tensor_error_bounded(xs in proptest::collection::vec(-5.0f32..5.0, 1..64)) {
        let n = xs.len();
        let t = Tensor::from_vec(xs, &[n]).unwrap();
        let q = QuantTensor::quantize(&t, 8).unwrap();
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() <= q.scale() / 2.0 + 1e-6);
        }
    }

    /// The decomposition always produces representable coefficients and a
    /// bounded reconstruction error for well-scaled inputs.
    #[test]
    fn decomposition_invariants(seed in 0u64..50, rows in 6usize..40) {
        let mut r = smartexchange::tensor::rng::seeded(seed);
        let w = smartexchange::tensor::rng::normal_mat(&mut r, rows, 3, 0.1);
        let cfg = SeConfig::default()
            .with_max_iterations(5).unwrap()
            .with_vector_sparsity(VectorSparsity::None).unwrap();
        let d = algorithm::decompose(&w, &cfg).unwrap();
        for &x in d.ce.data() {
            prop_assert!(cfg.po2().contains(x), "coefficient {} not in Ω_P", x);
        }
        let err = d.reconstruction_error(&w).unwrap();
        prop_assert!(err < 0.6, "reconstruction error {}", err);
    }

    /// KeepFraction guarantees at least the requested row sparsity.
    #[test]
    fn keep_fraction_row_guarantee(seed in 0u64..30, keep in 0.1f32..0.9) {
        let mut r = smartexchange::tensor::rng::seeded(seed);
        let w = smartexchange::tensor::rng::normal_mat(&mut r, 30, 3, 0.1);
        let cfg = SeConfig::default()
            .with_max_iterations(4).unwrap()
            .with_vector_sparsity(VectorSparsity::KeepFraction(keep)).unwrap();
        let d = algorithm::decompose(&w, &cfg).unwrap();
        let zero_rows = d.ce.zero_rows();
        let expect_zero = 30 - ((30.0 * keep).round() as usize);
        prop_assert!(zero_rows >= expect_zero, "{} zero rows < {}", zero_rows, expect_zero);
    }

    /// Least squares never increases the residual relative to Ce = W, B = I.
    #[test]
    fn lstsq_left_is_optimal_enough(seed in 0u64..30) {
        let mut r = smartexchange::tensor::rng::seeded(seed);
        let c = smartexchange::tensor::rng::normal_mat(&mut r, 12, 3, 1.0);
        let w = smartexchange::tensor::rng::normal_mat(&mut r, 12, 3, 1.0);
        let b = linalg::lstsq_left(&c, &w, 1e-6).unwrap();
        let fitted = w.sub(&c.matmul(&b).unwrap()).unwrap().frobenius_norm();
        let identity = w.sub(&c.matmul(&Mat::identity(3)).unwrap()).unwrap().frobenius_norm();
        prop_assert!(fitted <= identity + 1e-3);
    }

    /// Parallel (4 workers) and serial (1 worker) whole-network compression
    /// produce bit-identical results on a seeded 6-layer network: the
    /// pipeline reassembles per-layer jobs in network order, so worker
    /// count must never leak into the output.
    #[test]
    fn parallel_compression_is_bit_identical_to_serial(seed in 0u64..16) {
        use smartexchange::core::network;
        use smartexchange::ir::{LayerDesc, LayerKind};

        let mut r = smartexchange::tensor::rng::seeded(seed);
        let chans = [3usize, 8, 8, 16, 16, 8, 4];
        let layers: Vec<(LayerDesc, smartexchange::tensor::Tensor)> = (0..6)
            .map(|i| {
                let (ci, co) = (chans[i], chans[i + 1]);
                let desc = LayerDesc::new(
                    format!("c{i}"),
                    LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
                    (8, 8),
                );
                let w = smartexchange::tensor::rng::kaiming_tensor(&mut r, &[co, ci, 3, 3], ci * 9);
                (desc, w)
            })
            .collect();
        let serial_cfg = SeConfig::default()
            .with_max_iterations(4).unwrap()
            .with_parallelism(1).unwrap();
        let parallel_cfg = serial_cfg.clone().with_parallelism(4).unwrap();
        let descs: Vec<LayerDesc> = layers.iter().map(|(d, _)| d.clone()).collect();
        let lend = |i: usize, _: &LayerDesc| Ok(&layers[i].1);
        let serial = network::compress_network(&descs, &serial_cfg, lend).unwrap();
        let parallel = network::compress_network(&descs, &parallel_cfg, lend).unwrap();
        prop_assert_eq!(&serial.reports, &parallel.reports);
        prop_assert_eq!(serial, parallel);
    }

    /// Matrix transpose is an involution and matmul distributes over it.
    #[test]
    fn transpose_involution(seed in 0u64..30, rows in 1usize..12, cols in 1usize..12) {
        let mut r = smartexchange::tensor::rng::seeded(seed);
        let a = smartexchange::tensor::rng::normal_mat(&mut r, rows, cols, 1.0);
        prop_assert_eq!(a.transpose().transpose(), a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// For randomized CONV geometries, the fast simulator's compute-cycle
    /// count equals the brute-force golden model's — the randomized
    /// extension of the fixed-grid validation in `golden` (which only
    /// checks hand-picked cases). Every geometry drawn here is valid
    /// by construction: `hw >= 6` and `kernel <= 5`, so `hw + 2·padding >=
    /// kernel` always holds.
    #[test]
    fn simulator_matches_golden_on_random_conv_geometries(
        seed in 0u64..1000,
        c in 1usize..5,
        m in 1usize..7,
        hw in 6usize..12,
        kidx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        keep in 0.3f32..1.0,
        index_select in any::<bool>(),
        bit_serial in any::<bool>(),
    ) {
        use smartexchange::core::{layer as se_layer, SeConfig, VectorSparsity};
        use smartexchange::hw::sim::SeAccelerator;
        use smartexchange::hw::{Accelerator, SeAcceleratorConfig};
        use smartexchange::ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, WeightData};
        use smartexchange::tensor::rng;

        let k = [2usize, 3, 5][kidx];
        let desc = LayerDesc::new(
            "g",
            LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: k, stride, padding },
            (hw, hw),
        );
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[m, c, k, k], c * k * k);
        let se_cfg = SeConfig::default()
            .with_max_iterations(3).unwrap()
            .with_vector_sparsity(VectorSparsity::KeepFraction(keep)).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &se_cfg).unwrap();
        let act = rng::normal_tensor(&mut r, &[c, hw, hw], 1.0)
            .map(|v| if v < 0.3 { 0.0 } else { v });
        let q = QuantTensor::quantize(&act, 8).unwrap();
        let trace = LayerTrace::new(desc, WeightData::Se(parts), q).unwrap();

        let cfg = SeAcceleratorConfig {
            dim_m: 2,
            dim_c: 2,
            dim_f: 4,
            index_select,
            bit_serial,
            ..Default::default()
        };
        let sim = SeAccelerator::new(cfg.clone()).unwrap();
        let fast = sim.process_layer(&trace).unwrap().compute_cycles;
        let golden = golden::golden_conv_cycles(&cfg, &trace).unwrap();
        prop_assert!(
            fast == golden,
            "fast {} vs golden {}: c={} m={} hw={} k={} stride={} pad={} idx={} serial={}",
            fast, golden, c, m, hw, k, stride, padding, index_select, bit_serial
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The `Ce` counts read from codes equal the old rule over the `f32`
    /// matrix the slice was built from (an entry counts when `x != 0.0`, so
    /// `-0.0` does not), for narrow and wide (`u16`) alphabets and `Ce`
    /// widths 0, 3, 5, 7 and 9 (the unrolled widths and the general path).
    #[test]
    fn code_counts_match_the_f32_rule(
        seed in any::<u64>(),
        width in 0usize..5,
        wide in any::<bool>(),
        rows in 1usize..24,
        slices in 1usize..4,
        zero_pct in 0u64..101,
    ) {
        use smartexchange::ir::{storage, SeLayer, SeLayout, SeSlice};

        let po2 = if wide { Po2Set::new(60, 180).unwrap() } else { Po2Set::default() };
        let cols = [0, 3, 5, 7, 9][width];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let exps: Vec<i32> = po2.exponents().collect();
        let ces: Vec<Mat> = (0..slices)
            .map(|_| {
                Mat::from_fn(rows, cols, |_, _| match next() % 100 {
                    p if p < zero_pct => if next() % 2 == 0 { 0.0 } else { -0.0 },
                    _ => {
                        let v = (exps[next() as usize % exps.len()] as f32).exp2();
                        if next() % 2 == 0 { v } else { -v }
                    }
                })
            })
            .collect();
        let parts: Vec<SeSlice> = ces
            .iter()
            .map(|ce| SeSlice::new(ce.clone(), Mat::zeros(cols, 2), &po2).unwrap())
            .collect();
        let layout = SeLayout::FcPerRow {
            out_features: slices,
            in_features: 2 * rows,
            width: 2,
            slices_per_row: 1,
        };
        let layer = SeLayer::new(layout, po2, parts).unwrap();

        let row_nnz = |ce: &Mat| -> Vec<u32> {
            (0..ce.rows()).map(|r| ce.row(r).iter().filter(|&&x| x != 0.0).count() as u32).collect()
        };
        let mut all_rows = Vec::new();
        for (slice, ce) in layer.slices().iter().zip(&ces) {
            let counts = row_nnz(ce);
            let nnz = ce.data().iter().filter(|&&x| x != 0.0).count();
            let mask: Vec<bool> = counts.iter().map(|&n| n > 0).collect();
            prop_assert_eq!(slice.row_nonzero_mask(), mask.clone());
            prop_assert_eq!(slice.nonzero_rows(), mask.iter().filter(|&&b| b).count());
            prop_assert_eq!(slice.nnz(), nnz);
            prop_assert_eq!(slice.rebuild_ops(), nnz as u64 * 2);
            prop_assert_eq!(row_nnz(&slice.ce_values()), counts.clone());
            all_rows.extend(counts);
        }
        prop_assert_eq!(storage::row_nnz(&layer), all_rows.clone());
        prop_assert_eq!(layer.total_nonzero_rows(), all_rows.iter().filter(|&&n| n > 0).count());
    }
}
