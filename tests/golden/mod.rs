//! Brute-force reference model for validating `se_hw::sim::SeAccelerator`.
//!
//! The paper validates its cycle-accurate simulator against RTL; this
//! module is the reproduction's analogue: an independently-written,
//! per-window event loop (no shared scratch tables, different loop
//! structure) that recomputes CONV compute-cycles. The tests below enforce
//! exact agreement on a grid of small layers, and `properties.rs`'s
//! `simulator_matches_golden_on_random_conv_geometries` on random ones; the
//! fast simulator is then trusted at full scale.

use smartexchange::core::{layer as se_layer, SeConfig, VectorSparsity};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::window::SerialMode;
use smartexchange::hw::{Accelerator, HwError, Result, SeAcceleratorConfig};
use smartexchange::ir::{
    LayerDesc, LayerKind, LayerTrace, QuantTensor, SeLayer, SeLayout, SeSlice, WeightData,
};
use smartexchange::tensor::{rng, Mat, Tensor};

/// Coefficient row values of one filter's reshaped matrix, from the
/// layer's decoded `Ce` matrices in slice order (independent of the
/// simulator's mask preparation).
fn filter_ce_row(layer: &SeLayer, ce: &[Mat], filter: usize, row: usize) -> Vec<f32> {
    let per_unit = match *layer.layout() {
        SeLayout::ConvPerFilter { slices_per_filter, .. } => slices_per_filter,
        SeLayout::FcPerRow { slices_per_row, .. } => slices_per_row,
    };
    let mut remaining = row;
    for m in &ce[filter * per_unit..(filter + 1) * per_unit] {
        if remaining < m.rows() {
            return m.row(remaining).to_vec();
        }
        remaining -= m.rows();
    }
    Vec::new()
}

/// Compute-cycles of a standard CONV layer, re-derived by brute force.
///
/// # Errors
///
/// Returns [`HwError::UnsupportedTrace`] for non-CONV layers or dense
/// weights (the golden model targets the SE path).
pub fn golden_conv_cycles(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<u64> {
    let desc = trace.desc();
    let LayerKind::Conv2d { in_channels: c, out_channels: m, kernel, stride, padding } =
        *desc.kind()
    else {
        return Err(HwError::UnsupportedTrace {
            reason: "golden model handles standard CONV only".into(),
        });
    };
    if kernel < 2 {
        return Err(HwError::UnsupportedTrace {
            reason: "golden model handles R = S > 1 CONV only".into(),
        });
    }
    let WeightData::Se(parts) = trace.weights() else {
        return Err(HwError::UnsupportedTrace { reason: "golden model expects SE weights".into() });
    };
    let layer = &parts[0];
    let ce: Vec<Mat> = layer.slices().iter().map(SeSlice::ce_values).collect();
    let (h, w) = desc.input_hw();
    let (e_out, f_out) = desc.output_hw()?;
    let q = trace.input();
    let mode = match (cfg.bit_serial, cfg.booth_encoder) {
        (true, true) => SerialMode::Booth,
        (true, false) => SerialMode::PlainBits,
        (false, _) => SerialMode::Unit,
    };

    let code_at = |ci: usize, iy: usize, ix: isize| -> i8 {
        if ix < 0 || ix as usize >= w {
            0
        } else {
            q.data()[(ci * h + iy) * w + ix as usize]
        }
    };
    let act_row_zero =
        |ci: usize, iy: usize| -> bool { (0..w).all(|x| q.data()[(ci * h + iy) * w + x] == 0) };

    // Row cost: the lockstep bit-serial cycles of one weight row over one
    // output-pixel group.
    let row_cost = |ci: usize, iy: usize, f0: usize, nf: usize| -> u64 {
        let mut cost = 0u64;
        for si in 0..kernel {
            let mut wmax = 0u8;
            for j in 0..nf {
                let ix = ((f0 + j) * stride + si) as isize - padding as isize;
                wmax = wmax.max(mode.cycles(code_at(ci, iy, ix)));
            }
            cost += u64::from(wmax.max(1));
        }
        cost
    };

    let fold = if m < cfg.dim_m { (cfg.dim_m / m.max(1)).clamp(1, 8) } else { 1 };
    let eff_f = cfg.dim_f * fold;
    let mut cycles = 0u64;
    for e in 0..e_out {
        if cfg.index_select {
            // Work pools over the output row's pixel groups and channels:
            // the selector dispatches (coefficient row, pixel group) pairs
            // from the layer-wide index to free lines, bounded below by the
            // longest single item.
            for m0 in (0..m).step_by(cfg.dim_m) {
                let mut tile = 0u64;
                for fi in m0..(m0 + cfg.dim_m).min(m) {
                    let mut work = 0u64;
                    let mut longest = 0u64;
                    for ci in 0..c {
                        for kr in 0..kernel {
                            let iy = (e * stride + kr) as isize - padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let iy = iy as usize;
                            let ce_row = filter_ce_row(layer, &ce, fi, ci * kernel + kr);
                            if ce_row.iter().all(|&x| x == 0.0) || act_row_zero(ci, iy) {
                                continue;
                            }
                            for f0 in (0..f_out).step_by(eff_f) {
                                let nf = eff_f.min(f_out - f0);
                                let cost = row_cost(ci, iy, f0, nf);
                                work += cost;
                                longest = longest.max(cost);
                            }
                        }
                    }
                    let slice = work.div_ceil(cfg.dim_c as u64).max(longest);
                    tile = tile.max(slice);
                }
                cycles += tile;
            }
        } else {
            // Static line ownership: line time accumulates over the output
            // row; every filter tile pays the slowest line.
            let m_tiles = m.div_ceil(cfg.dim_m) as u64;
            for c0 in (0..c).step_by(cfg.dim_c) {
                let mut line_max = 0u64;
                for ci in c0..(c0 + cfg.dim_c).min(c) {
                    let mut line = 0u64;
                    for kr in 0..kernel {
                        let iy = (e * stride + kr) as isize - padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let iy = iy as usize;
                        for f0 in (0..f_out).step_by(eff_f) {
                            let nf = eff_f.min(f_out - f0);
                            line += row_cost(ci, iy, f0, nf);
                        }
                    }
                    line_max = line_max.max(line);
                }
                cycles += line_max * m_tiles;
            }
        }
    }
    Ok(cycles)
}

#[allow(clippy::too_many_arguments)]
fn make_trace(
    c: usize,
    m: usize,
    hw: usize,
    k: usize,
    stride: usize,
    pad: usize,
    keep: f32,
    seed: u64,
) -> LayerTrace {
    let desc = LayerDesc::new(
        "g",
        LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: k, stride, padding: pad },
        (hw, hw),
    );
    let mut r = rng::seeded(seed);
    let w = rng::kaiming_tensor(&mut r, &[m, c, k, k], c * k * k);
    let cfg = SeConfig::default()
        .with_max_iterations(4)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::KeepFraction(keep))
        .unwrap();
    let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
    let act = rng::normal_tensor(&mut r, &[c, hw, hw], 1.0).map(|v| if v < 0.3 { 0.0 } else { v });
    let q = QuantTensor::quantize(&act, 8).unwrap();
    LayerTrace::new(desc, WeightData::Se(parts), q).unwrap()
}

/// The fast simulator and the brute-force model must agree exactly.
#[test]
fn simulator_matches_golden_on_small_grid() {
    let configs: [(usize, usize, usize, usize, usize, usize, f32); 5] = [
        (2, 3, 6, 3, 1, 1, 1.0),
        (3, 4, 8, 3, 1, 1, 0.5),
        (2, 2, 9, 3, 2, 1, 0.6),
        (1, 5, 7, 3, 1, 0, 0.4),
        (4, 3, 10, 5, 2, 2, 0.7),
    ];
    for (i, &(c, m, hw, k, stride, pad, keep)) in configs.iter().enumerate() {
        let trace = make_trace(c, m, hw, k, stride, pad, keep, 100 + i as u64);
        let cfg = SeAcceleratorConfig { dim_m: 2, dim_c: 2, dim_f: 4, ..Default::default() };
        let sim = SeAccelerator::new(cfg.clone()).unwrap();
        let fast = sim.process_layer(&trace).unwrap().compute_cycles;
        let golden = golden_conv_cycles(&cfg, &trace).unwrap();
        assert_eq!(fast, golden, "config {i}: fast {fast} vs golden {golden}");
    }
}

#[test]
fn simulator_matches_golden_with_default_array() {
    let trace = make_trace(4, 8, 12, 3, 1, 1, 0.5, 42);
    let cfg = SeAcceleratorConfig::default();
    let sim = SeAccelerator::new(cfg.clone()).unwrap();
    let fast = sim.process_layer(&trace).unwrap().compute_cycles;
    let golden = golden_conv_cycles(&cfg, &trace).unwrap();
    assert_eq!(fast, golden);
}

#[test]
fn simulator_matches_golden_without_index_select() {
    let trace = make_trace(3, 4, 8, 3, 1, 1, 0.5, 77);
    let mut cfg = SeAcceleratorConfig { dim_m: 2, dim_c: 2, dim_f: 4, ..Default::default() };
    cfg.index_select = false;
    let sim = SeAccelerator::new(cfg.clone()).unwrap();
    assert_eq!(
        sim.process_layer(&trace).unwrap().compute_cycles,
        golden_conv_cycles(&cfg, &trace).unwrap()
    );
}

#[test]
fn simulator_matches_golden_without_bit_serial() {
    let trace = make_trace(3, 4, 8, 3, 1, 1, 0.6, 78);
    let mut cfg = SeAcceleratorConfig { dim_m: 4, dim_c: 2, dim_f: 4, ..Default::default() };
    cfg.bit_serial = false;
    let sim = SeAccelerator::new(cfg.clone()).unwrap();
    assert_eq!(
        sim.process_layer(&trace).unwrap().compute_cycles,
        golden_conv_cycles(&cfg, &trace).unwrap()
    );
}

#[test]
fn golden_rejects_unsupported() {
    let desc = LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 2 }, (1, 1));
    let q = QuantTensor::quantize(&Tensor::full(&[4], 1.0), 8).unwrap();
    let t = LayerTrace::new(
        desc,
        WeightData::Dense(QuantTensor::quantize(&Tensor::zeros(&[2, 4]), 8).unwrap()),
        q,
    )
    .unwrap();
    assert!(golden_conv_cycles(&SeAcceleratorConfig::default(), &t).is_err());
}
