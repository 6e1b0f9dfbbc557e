//! Golden digests of the five accelerator simulators.
//!
//! Each case simulates one seeded layer trace and hashes every field of
//! the per-image `LayerResult`, of its `amortized_over_batch(4)` form and
//! of its `with_weights_resident` form. The constants pin the exact cycle,
//! traffic and operation counts: a simulator refactor that changes any
//! count for any layer shape or configuration below shows up here as a
//! changed digest.

use std::sync::OnceLock;

use smartexchange::baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use smartexchange::core::{layer, SeConfig, VectorSparsity};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::{Accelerator, LayerResult, SeAcceleratorConfig};
use smartexchange::ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, WeightData};
use smartexchange::tensor::{rng, Tensor};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every field of `r`, through its `Debug` form (which lists them all).
    fn result(&mut self, r: &LayerResult) {
        self.bytes(format!("{r:?}").as_bytes());
    }

    /// One simulation outcome: the per-image result with its batched and
    /// resident forms, or a marker for a rejected trace.
    fn outcome(&mut self, accel: &dyn Accelerator, trace: &LayerTrace) {
        match accel.process_layer(trace) {
            Ok(r) => {
                let bw = accel.dram_bytes_per_cycle();
                self.result(&r);
                self.result(&r.amortized_over_batch(4, bw));
                self.result(&r.with_weights_resident(bw));
            }
            Err(_) => self.bytes(b"unsupported"),
        }
    }
}

fn conv(c: usize, m: usize, kernel: usize, stride: usize, hw: usize) -> LayerDesc {
    let kind =
        LayerKind::Conv2d { in_channels: c, out_channels: m, kernel, stride, padding: kernel / 2 };
    LayerDesc::new("conv", kind, (hw, hw))
}

fn depthwise(channels: usize, kernel: usize, stride: usize, hw: usize) -> LayerDesc {
    let kind = LayerKind::DepthwiseConv2d { channels, kernel, stride, padding: kernel / 2 };
    LayerDesc::new("dw", kind, (hw, hw))
}

/// The layer shapes, one per simulator path and tiling regime.
fn layers() -> Vec<LayerDesc> {
    vec![
        // 72 filters: two output-channel tiles, no slice fold.
        conv(6, 72, 3, 1, 10),
        conv(8, 16, 3, 2, 13),
        conv(6, 12, 5, 1, 10),
        conv(6, 12, 5, 2, 11),
        // 4 filters on 64 slices: the 8-way output-pixel fold.
        conv(16, 4, 3, 1, 12),
        conv(16, 24, 1, 1, 10),
        depthwise(16, 3, 1, 12),
        depthwise(12, 5, 2, 13),
        LayerDesc::new("fc", LayerKind::Linear { in_features: 96, out_features: 40 }, (1, 1)),
        LayerDesc::new("se", LayerKind::SqueezeExcite { channels: 16, reduced: 4 }, (8, 8)),
    ]
}

/// Post-ReLU activations with whole zero rows, so the index selector has
/// rows to skip.
fn activation(desc: &LayerDesc, seed: u64) -> QuantTensor {
    let shape = match *desc.kind() {
        LayerKind::Conv2d { in_channels: c, .. }
        | LayerKind::DepthwiseConv2d { channels: c, .. }
        | LayerKind::SqueezeExcite { channels: c, .. } => {
            let (h, w) = desc.input_hw();
            vec![c, h, w]
        }
        LayerKind::Linear { in_features, .. } => vec![in_features],
    };
    let mut t = rng::normal_tensor(&mut rng::seeded(seed), &shape, 1.0).map(|v| v.max(0.0));
    if let [_, h, w] = shape[..] {
        for (row, chunk) in t.data_mut().chunks_mut(w).enumerate() {
            if (row * 7 + row / h) % 4 == 0 {
                chunk.fill(0.0);
            }
        }
    }
    QuantTensor::quantize(&t, 8).unwrap()
}

/// `(SE trace, dense trace)` per layer of [`layers`], over the same
/// weights and activations.
fn traces() -> &'static [(LayerTrace, LayerTrace)] {
    static TRACES: OnceLock<Vec<(LayerTrace, LayerTrace)>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let cfg = SeConfig::default()
            .with_max_iterations(4)
            .unwrap()
            .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))
            .unwrap()
            .with_parallelism(1)
            .unwrap();
        layers()
            .into_iter()
            .enumerate()
            .map(|(i, desc)| {
                let shape = desc.weight_shape();
                let fan_in = shape[1..].iter().product();
                let w: Tensor =
                    rng::kaiming_tensor(&mut rng::seeded(300 + i as u64), &shape, fan_in);
                let act = activation(&desc, 400 + i as u64);
                let parts = layer::compress_layer(&desc, &w, &cfg).unwrap();
                let dense = WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap());
                (
                    LayerTrace::new(desc.clone(), WeightData::Se(parts), act.clone()).unwrap(),
                    LayerTrace::new(desc, dense, act).unwrap(),
                )
            })
            .collect()
    })
}

/// The SmartExchange configurations: the default, each feature toggle
/// off, output-row sampling, weight-buffer overflow with the partial-sum
/// spill to the output GB and to DRAM, input-GB refetch, a DRAM-bound
/// bandwidth, and the Section V-B dense ablation baseline.
fn se_configs() -> Vec<SeAcceleratorConfig> {
    let d = SeAcceleratorConfig::default;
    vec![
        d(),
        SeAcceleratorConfig { index_select: false, ..d() },
        SeAcceleratorConfig { bit_serial: false, ..d() },
        SeAcceleratorConfig { booth_encoder: false, ..d() },
        SeAcceleratorConfig { compact_dedicated: false, ..d() },
        SeAcceleratorConfig { row_sample: 4, ..d() },
        SeAcceleratorConfig { weight_buf_bank_kb: 0.01, ..d() },
        SeAcceleratorConfig { weight_buf_bank_kb: 0.01, output_gb_bank_kb: 0.05, ..d() },
        SeAcceleratorConfig { input_gb_bank_kb: 0.01, ..d() },
        SeAcceleratorConfig { dram_bytes_per_cycle: 0.01, ..d() },
        SeAcceleratorConfig::ablation_dense_baseline(),
    ]
}

fn baseline_configs() -> [BaselineConfig; 2] {
    [BaselineConfig::default(), BaselineConfig { sram_bytes: 512.0, ..Default::default() }]
}

/// One digest per layer: `run` feeds every outcome of that layer's
/// `(SE, dense)` traces into the hash.
fn digests(run: impl Fn(&mut Fnv, &LayerTrace, &LayerTrace)) -> Vec<u64> {
    traces()
        .iter()
        .map(|(se, dense)| {
            let mut h = Fnv::new();
            run(&mut h, se, dense);
            h.0
        })
        .collect()
}

fn check(name: &str, got: &[u64], want: &[u64]) {
    let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, want, "{name} digests changed; now [{}]", hex.join(", "));
}

#[test]
fn smartexchange_on_se_and_dense_traces() {
    let accels: Vec<SeAccelerator> =
        se_configs().into_iter().map(|c| SeAccelerator::new(c).unwrap()).collect();
    let got = digests(|h, se, dense| {
        for a in &accels {
            h.outcome(a, se);
            h.outcome(a, dense);
        }
    });
    check(
        "SmartExchange",
        &got,
        &[
            0x128e_50ea_2e15_ce7c,
            0xca9e_25a5_4cd2_f91a,
            0xf53a_c0b4_3b8f_33e8,
            0xf17a_e8bf_484c_d14a,
            0xbda4_cf86_6415_df75,
            0xb5e3_5573_21d9_c07d,
            0x21e9_7e1b_378d_f399,
            0x63d8_512c_fb53_45e6,
            0x39e1_7b7f_da10_a940,
            0x48ce_f216_93bf_b68b,
        ],
    );
}

#[test]
fn bit_pragmatic() {
    let accels: Vec<BitPragmatic> =
        se_configs().into_iter().map(|c| BitPragmatic::new(c).unwrap()).collect();
    let got = digests(|h, _, dense| {
        for a in &accels {
            h.outcome(a, dense);
        }
    });
    check(
        "Bit-pragmatic",
        &got,
        &[
            0x843e_224b_5099_9efa,
            0x1373_8ed4_ac2f_106a,
            0xf863_2c95_984c_6211,
            0x0847_de79_238f_baf6,
            0x1772_d3e0_5c07_1058,
            0x95d1_e276_b253_3879,
            0xd44e_713f_b1fe_28fe,
            0x8a79_b91e_61f4_6f30,
            0x107e_502f_62f8_2196,
            0x4ed3_cd9c_118c_8f06,
        ],
    );
}

#[test]
fn diannao() {
    let accels = baseline_configs().map(|c| DianNao::new(c).unwrap());
    let got = digests(|h, _, dense| accels.iter().for_each(|a| h.outcome(a, dense)));
    check(
        "DianNao",
        &got,
        &[
            0x121d_9ea5_719d_0472,
            0xc6b6_8662_1db7_d513,
            0x310c_3492_cf00_3c51,
            0xec3a_6c7c_5db0_7f25,
            0xabba_1f23_4d94_5d59,
            0x57bd_c41b_bb08_cd6f,
            0x1292_098a_c667_99f1,
            0x842e_f44a_100f_8ff5,
            0x47a0_f0c8_d0d3_ddcf,
            0xb5b9_10c1_b562_71fb,
        ],
    );
}

#[test]
fn cambricon_x() {
    let accels = baseline_configs().map(|c| CambriconX::new(c).unwrap());
    let got = digests(|h, _, dense| accels.iter().for_each(|a| h.outcome(a, dense)));
    check(
        "Cambricon-X",
        &got,
        &[
            0x9407_a338_6988_7c69,
            0x13e5_ca5f_1600_7949,
            0x8b51_c26a_640a_1445,
            0xbe8b_d32f_3290_fa39,
            0xdec8_0c0b_fd7c_c7a5,
            0x8f29_924a_7877_18dd,
            0x09f1_1fdb_57ce_66c5,
            0x8b93_ec7d_99fc_6091,
            0x4a84_0339_cb79_319d,
            0x8f31_b2f2_f915_1095,
        ],
    );
}

#[test]
fn scnn() {
    let accels = baseline_configs().map(|c| Scnn::new(c).unwrap());
    let got = digests(|h, _, dense| accels.iter().for_each(|a| h.outcome(a, dense)));
    check(
        "SCNN",
        &got,
        &[
            0x1a20_b2ed_1150_1b65,
            0xab6f_b9fa_1a4f_009d,
            0x306f_bc02_cd51_236f,
            0x0590_fb82_9b2c_6495,
            0x4883_e87c_a863_5fd7,
            0x9a52_b9c4_b620_66f5,
            // Known wrong: `dense_stats` gives a depth-wise layer `c = 1`,
            // so SCNN pairs only kernel position 0 of each channel with
            // every activation of the map. Fixing it re-captures these two.
            0x6a63_2528_c912_2f29,
            0xa361_96fc_e565_0d59,
            0x8894_f348_da73_4f8f,
            0x8894_f348_da73_4f8f,
        ],
    );
}
