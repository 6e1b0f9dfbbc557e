//! Golden digests of Algorithm 1's output.
//!
//! Each case compresses a seeded layer with `layer::compress_layer` and
//! hashes the f32 bits of every `Ce` and `B` it produces. The constants pin
//! the exact floating-point results: a solver change that reorders an
//! operation, fuses a multiply-add or swaps a division for a reciprocal
//! shows up here as a changed digest, long before it changes a `.setrace`
//! artifact.

use se_core::{algorithm, layer, SeConfig, VectorSparsity};
use se_ir::{LayerDesc, LayerKind, SeLayer};
use se_tensor::{rng, Mat, Tensor};

/// FNV-1a, folded over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn mat(&mut self, m: &Mat) {
        self.word(m.rows() as u32);
        self.word(m.cols() as u32);
        for &x in m.data() {
            self.word(x.to_bits());
        }
    }
}

fn digest(parts: &[SeLayer]) -> u64 {
    let mut h = Fnv::new();
    for part in parts {
        for s in part.slices() {
            h.mat(&s.ce_values());
            h.mat(s.basis());
        }
    }
    h.0
}

/// The trace-generation configuration (`se trace build --fast`).
fn cold_cfg() -> SeConfig {
    SeConfig::default()
        .with_max_iterations(6)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))
        .unwrap()
        .with_parallelism(1)
        .unwrap()
}

fn conv(in_channels: usize, out_channels: usize, kernel: usize) -> LayerDesc {
    LayerDesc::new(
        "conv",
        LayerKind::Conv2d { in_channels, out_channels, kernel, stride: 1, padding: kernel / 2 },
        (8, 8),
    )
}

fn depthwise(channels: usize, kernel: usize) -> LayerDesc {
    LayerDesc::new(
        "dw",
        LayerKind::DepthwiseConv2d { channels, kernel, stride: 1, padding: kernel / 2 },
        (8, 8),
    )
}

fn compress(desc: &LayerDesc, w: &Tensor, cfg: &SeConfig) -> u64 {
    digest(&layer::compress_layer(desc, w, cfg).unwrap())
}

fn seeded_weights(desc: &LayerDesc, seed: u64) -> Tensor {
    let shape = desc.weight_shape();
    let fan_in = shape[1..].iter().product();
    rng::kaiming_tensor(&mut rng::seeded(seed), &shape, fan_in)
}

#[test]
fn chunked_conv_with_channel_pruning() {
    // 8 input channels of 3 rows = 24 rows per filter, sliced into three
    // 8-row chunks, so chunk boundaries split channels.
    let desc = conv(8, 4, 3);
    let mut w = seeded_weights(&desc, 101);
    for m in 0..4 {
        for ch in [1usize, 5] {
            for r in 0..3 {
                for s in 0..3 {
                    let v = w.at(&[m, ch, r, s]) * 0.01;
                    w.set(&[m, ch, r, s], v);
                }
            }
        }
    }
    let cfg = cold_cfg().with_max_unit_rows(10).unwrap().with_channel_prune(Some(0.3)).unwrap();
    assert_eq!(compress(&desc, &w, &cfg), 0xbcf1_1154_741b_4320);
}

#[test]
fn pointwise_conv_takes_the_fc_rule() {
    // 1×1 CONV: each 16-long row is padded to 18 and reshaped to 6×3.
    let desc = conv(16, 6, 1);
    let w = seeded_weights(&desc, 102);
    assert_eq!(compress(&desc, &w, &cold_cfg()), 0xa076_2c82_504e_e1f2);
}

#[test]
fn depthwise_5x5() {
    let desc = depthwise(6, 5);
    let w = seeded_weights(&desc, 103);
    assert_eq!(compress(&desc, &w, &cold_cfg()), 0x1784_8cef_d313_dc88);
}

#[test]
fn depthwise_17x17_takes_the_generic_width() {
    let desc = depthwise(2, 17);
    let w = seeded_weights(&desc, 104);
    assert_eq!(compress(&desc, &w, &cold_cfg()), 0x5cd8_a3af_e7be_a98a);
}

#[test]
fn squeeze_excite() {
    let desc = LayerDesc::new("se", LayerKind::SqueezeExcite { channels: 12, reduced: 4 }, (8, 8));
    let w = seeded_weights(&desc, 105);
    assert_eq!(compress(&desc, &w, &cold_cfg()), 0x9ce1_2bc9_6f1c_ac67);
}

#[test]
fn every_vector_sparsity_policy() {
    let desc = conv(6, 4, 3);
    let w = seeded_weights(&desc, 106);
    let cases = [
        (VectorSparsity::None, 0xc9b7_129b_38bb_444a),
        (VectorSparsity::Threshold(0.05), 0xa55c_e942_9e4c_4aba),
        (VectorSparsity::KeepFraction(0.5), 0x538f_42fe_6249_f3e2),
        (VectorSparsity::RelativeThreshold(0.4), 0xa951_af34_f558_3917),
    ];
    for (policy, want) in cases {
        let cfg = cold_cfg().with_vector_sparsity(policy).unwrap();
        assert_eq!(compress(&desc, &w, &cfg), want, "{policy:?}");
    }
}

#[test]
fn unquantized_basis_at_the_paper_iteration_budget() {
    let desc = conv(5, 3, 3);
    let w = seeded_weights(&desc, 107);
    let cfg = cold_cfg().with_max_iterations(30).unwrap().with_quantize_basis(false);
    assert_eq!(compress(&desc, &w, &cfg), 0xc124_bd94_0e36_9ed2);
}

#[test]
fn unit_with_an_all_zero_column() {
    // Every third input is zero, so column 2 of each 8×3 unit is zero and
    // the normal equations are singular without the ridge.
    let desc = LayerDesc::new("fc", LayerKind::Linear { in_features: 24, out_features: 4 }, (1, 1));
    let mut w = seeded_weights(&desc, 108);
    for o in 0..4 {
        for i in (2..24).step_by(3) {
            w.set(&[o, i], 0.0);
        }
    }
    assert_eq!(compress(&desc, &w, &cold_cfg()), 0x9687_7c36_909f_723f);
}

#[test]
fn traced_records_of_one_unit() {
    let w = rng::normal_mat(&mut rng::seeded(109), 43, 3, 0.08);
    let cfg = cold_cfg().with_max_iterations(12).unwrap();
    let (d, trace) = algorithm::decompose_traced(&w, &cfg).unwrap();
    let mut h = Fnv::new();
    h.mat(&d.ce);
    h.mat(&d.basis);
    for r in &trace.records {
        h.word(r.iteration as u32);
        for x in
            [r.recon_error, r.ce_sparsity, r.ce_row_sparsity, r.basis_identity_dist, r.quant_delta]
        {
            h.word(x.to_bits());
        }
    }
    assert_eq!(trace.records.len(), 12);
    assert_eq!(h.0, 0x44b7_1a8e_d7e4_74f6);
}
