//! The cycle model as flat loops over every (filter, row) pair and every
//! pixel group, the form the simulator had before it walked only the
//! active rows, kept as an oracle: a property test below runs both on
//! random layers and configurations and asks for equal `LayerResult`s.
//!
//! Everything here recomputes from scratch what the simulator now
//! aggregates: per-element Booth digits from [`booth::booth_digits`], a
//! bounds-checked tap window, the per-row non-zero counts and row mask of
//! every coefficient row, and each FC neuron's input groups. Only the
//! data-independent [`Schedule`], the memory rules the two forms share and
//! the storage rule of [`se_ir::storage`] (pinned by its own tests) are
//! reused.

use super::{
    fc_width, input_dram_bytes, needed_input_bytes, pass_ops, serial_mode, weight_chunking, Pass,
    Schedule,
};
use crate::window::{self, SerialMode};
use crate::{HwError, LayerResult, MemCounters, Result, SeAcceleratorConfig};
use se_ir::{booth, LayerKind, LayerTrace, QuantTensor, SeLayer, SeLayout, WeightData};

/// The flat model's result for `trace`, through the same dispatch and
/// idle-lane rule as [`super::SeAccelerator`].
pub(super) fn process_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<LayerResult> {
    let desc = trace.desc();
    let (compute, mem, ops) = match *desc.kind() {
        LayerKind::Conv2d { kernel, .. } if kernel > 1 => {
            conv_layer(cfg, trace, &Schedule::build(desc, cfg)?)?
        }
        LayerKind::Conv2d { .. } => pointwise_layer(cfg, trace, &Schedule::build(desc, cfg)?)?,
        LayerKind::DepthwiseConv2d { .. } => {
            depthwise_layer(cfg, trace, &Schedule::build(desc, cfg)?)?
        }
        LayerKind::Linear { .. } => fc_layer(cfg, trace)?,
        LayerKind::SqueezeExcite { .. } => squeeze_excite_layer(cfg, trace)?,
    };
    let ops = ops.with_idle_lanes(compute, cfg.total_lanes() as u64);
    Ok(LayerResult::new(desc.name(), compute, mem, ops, cfg.dram_bytes_per_cycle))
}

/// Serial cycles of every activation code, one element at a time.
fn serial_counts_flat(q: &QuantTensor, mode: SerialMode) -> Vec<u8> {
    let cycles = |code: i8| match mode {
        SerialMode::Booth => booth::booth_digits(code).iter().filter(|&&d| d != 0).count() as u8,
        SerialMode::PlainBits => (code as u8).count_ones() as u8,
        SerialMode::Unit => 1,
    };
    q.data().iter().map(|&c| cycles(c)).collect()
}

/// Maximum and sum of the serial counts over a strided window of a row
/// starting at `start`, which may be negative or run past the row (zero
/// padding: out-of-range lanes cost nothing).
fn window(row: &[u8], start: isize, stride: usize, count: usize) -> (u8, u32) {
    let (mut max, mut sum) = (0u8, 0u32);
    let len = row.len() as isize;
    let mut x = start;
    for _ in 0..count {
        if x >= 0 && x < len {
            let v = row[x as usize];
            max = max.max(v);
            sum += u32::from(v);
        }
        x += stride as isize;
    }
    (max, sum)
}

/// Weight information normalised for the cycle model.
struct FlatWeights {
    /// Coefficient rows per filter.
    rows_per_filter: usize,
    /// Non-zeros per coefficient row, `filters × rows_per_filter`,
    /// row-major by filter. For dense weights every row counts as full.
    nnz_row: Vec<u16>,
    /// Per row position: does *any* filter have a non-zero there
    /// (drives shared activation fetches).
    any_row: Vec<bool>,
    /// DRAM bytes for coefficients+basis (or dense weights).
    weight_bytes: u64,
    /// DRAM bytes for the 1-bit row index (zero for dense).
    index_bytes: u64,
    /// Basis bytes (subset of `weight_bytes`, read into RE register files).
    basis_bytes: u64,
    /// Total non-zero coefficients.
    total_nnz: u64,
    /// Whether weights are in SmartExchange form.
    is_se: bool,
}

impl FlatWeights {
    #[inline]
    fn row_nnz(&self, filter: usize, row: usize) -> u16 {
        self.nnz_row[filter * self.rows_per_filter + row]
    }
}

/// Builds [`FlatWeights`] from an SE layer whose layout units map to
/// "filters" (works for both `ConvPerFilter` and `FcPerRow`).
fn prepare_se_flat(layer: &SeLayer) -> FlatWeights {
    let filters = match *layer.layout() {
        SeLayout::ConvPerFilter { out_channels, .. } => out_channels,
        SeLayout::FcPerRow { out_features, .. } => out_features,
    };
    let rows_per_filter = layer.layout().rows_per_unit();
    let nnz_row: Vec<u16> = layer
        .slices()
        .iter()
        .flat_map(|slice| {
            let ce = slice.ce_values();
            (0..ce.rows())
                .map(|r| ce.row(r).iter().filter(|&&x| x != 0.0).count() as u16)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut any_row = vec![false; rows_per_filter];
    for f in 0..filters {
        for r in 0..rows_per_filter {
            if nnz_row[f * rows_per_filter + r] > 0 {
                any_row[r] = true;
            }
        }
    }
    let s = se_ir::storage::se_layer_storage(layer);
    FlatWeights {
        rows_per_filter,
        nnz_row,
        any_row,
        weight_bytes: (s.ce_bits + s.basis_bits).div_ceil(8),
        index_bytes: s.index_bits.div_ceil(8),
        basis_bytes: s.basis_bits.div_ceil(8),
        total_nnz: layer.nnz() as u64,
        is_se: true,
    }
}

/// Dense weights presented through the accelerator's original-weight path
/// (MUX1 path ③): no sparsity metadata, every row processed.
fn prepare_dense_flat(filters: usize, rows_per_filter: usize, row_len: usize) -> FlatWeights {
    FlatWeights {
        rows_per_filter,
        nnz_row: vec![row_len as u16; filters * rows_per_filter],
        any_row: vec![true; rows_per_filter],
        weight_bytes: (filters * rows_per_filter * row_len) as u64,
        index_bytes: 0,
        basis_bytes: 0,
        total_nnz: (filters * rows_per_filter * row_len) as u64,
        is_se: false,
    }
}

/// The weights of a single-part `trace` in cycle-model form, with the
/// width of the input group one coefficient row covers. An SE layer must
/// pass `layout`, which returns that width or what is wrong with the
/// layout for this path; dense weights are `filters × rows` rows of
/// `row_len`, one input per row position.
fn prepare_weights_flat(
    trace: &LayerTrace,
    layout: impl FnOnce(&SeLayout) -> std::result::Result<usize, String>,
    (filters, rows, row_len): (usize, usize, usize),
) -> Result<(FlatWeights, usize)> {
    let name = trace.desc().name();
    match trace.weights() {
        WeightData::Se(parts) if parts.len() == 1 => {
            let group = layout(parts[0].layout()).map_err(|reason| HwError::UnsupportedTrace {
                reason: format!("layer {name}: {reason}"),
            })?;
            Ok((prepare_se_flat(&parts[0]), group))
        }
        WeightData::Se(parts) => Err(HwError::UnsupportedTrace {
            reason: format!("layer {name} carries {} SE parts where 1 is expected", parts.len()),
        }),
        WeightData::Dense(_) => Ok((prepare_dense_flat(filters, rows, row_len), 1)),
    }
}

/// Cycles and switching work of one weight row of `steps` taps over the
/// `nf` output pixels from `f0`: lanes run in lockstep, so a tap costs its
/// window's slowest lane (a fully-zero window still costs one issue
/// cycle), while the work is the window's sum.
fn row_cost_flat(
    row: &[u8],
    f0: usize,
    nf: usize,
    stride: usize,
    padding: usize,
    steps: usize,
) -> (u64, u64) {
    let (mut cycles, mut energy) = (0u64, 0u64);
    for si in 0..steps {
        let start = (f0 * stride + si) as isize - padding as isize;
        let (max, sum) = window(row, start, stride, nf);
        cycles += u64::from(max.max(1));
        energy += u64::from(sum);
    }
    (cycles, energy)
}

/// The memory counters of a pass that fetches its weights once and reads
/// them from the buffer once: `needed_in` input bytes staged through the
/// input GB (see [`super::input_dram_bytes`]) and `gb_in_read` bytes read from
/// it, `outputs` written once, and the basis loaded into the RE register
/// files once per output-channel tile next to the `rebuild` traffic.
fn pass_mem_flat(
    cfg: &SeAcceleratorConfig,
    pw: &FlatWeights,
    needed_in: u64,
    m_tiles: u64,
    gb_in_read: u64,
    outputs: u64,
    rebuild: u64,
) -> MemCounters {
    let dram_in = input_dram_bytes(cfg, needed_in, m_tiles);
    let weight_fill = pw.weight_bytes + pw.index_bytes;
    MemCounters {
        dram_input_bytes: dram_in,
        dram_output_bytes: outputs,
        dram_weight_bytes: pw.weight_bytes,
        dram_index_bytes: pw.index_bytes,
        input_gb_read_bytes: gb_in_read,
        input_gb_write_bytes: dram_in,
        output_gb_read_bytes: 0,
        output_gb_write_bytes: outputs,
        weight_gb_read_bytes: weight_fill,
        weight_gb_write_bytes: weight_fill,
        rf_bytes: rebuild + pw.basis_bytes * m_tiles,
    }
}

/// Standard CONV path (`R = S > 1`).
fn conv_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace, sched: &Schedule) -> Result<Pass> {
    let desc = trace.desc();
    let LayerKind::Conv2d { in_channels: c, out_channels: m, kernel, stride, padding } =
        *desc.kind()
    else {
        unreachable!("dispatch guarantees Conv2d");
    };
    let (h, w) = desc.input_hw();
    let e_out = sched.e_out;
    let r = kernel;
    let s = kernel;

    let (pw, _) = prepare_weights_flat(
        trace,
        |layout| match layout.rows_per_unit() {
            rows if rows == c * r => Ok(1),
            rows => Err(format!("SE rows {rows} do not match C*R = {}", c * r)),
        },
        (m, c * r, s),
    )?;
    let sc = serial_counts_flat(trace.input(), serial_mode(cfg));
    let act_nz = window::activation_row_nonzero(trace.input());

    let (dim_m, dim_c) = (cfg.dim_m, cfg.dim_c);
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Scratch per (e, f0): row cycle/energy tables over (c, kr), valid
    // where `processed`.
    let mut t_row = vec![0u64; c * r];
    let mut e_row = vec![0u64; c * r];
    let mut processed = vec![false; c * r];

    // Per-filter pooled work for one output row: the index selector
    // dispatches (coefficient row, pixel group) pairs from the layer-wide
    // index to whichever PE line is free, so a slice's work pools across
    // both the f0 groups and the channels of the output row.
    let mut slice_work = vec![0u64; m];
    let mut slice_longest = vec![0u64; m];
    let mut line_total = vec![0u64; c];
    for ei in 0..sched.e_rows {
        slice_work.fill(0);
        slice_longest.fill(0);
        line_total.fill(0);
        for &(f0, nf) in &sched.f_groups {
            // Phase 1: per-(channel, kernel-row) costs, shared by all slices.
            for ci in 0..c {
                for kr in 0..r {
                    let idx = ci * r + kr;
                    processed[idx] = false;
                    // Pure padding row: no hardware iterates it.
                    let Some(iy) = sched.input_row(ei, kr) else {
                        continue;
                    };
                    let row = ci * h + iy;
                    // Index selector: zero activation rows are skipped for
                    // every filter; one compare per considered row.
                    if cfg.index_select {
                        index_compares += 1;
                        if !act_nz[row] {
                            continue;
                        }
                    }
                    (t_row[idx], e_row[idx]) =
                        row_cost_flat(&sc[row * w..][..w], f0, nf, stride, padding, s);
                    processed[idx] = true;
                }
            }
            // Shared activation fetches: a row segment is read once per
            // (e, f0) if any filter needs it.
            let seg_bytes = ((nf - 1) * stride + s) as u64;
            #[allow(clippy::needless_range_loop)]
            for idx in 0..c * r {
                if processed[idx] && (!cfg.index_select || pw.any_row[idx]) {
                    gb_in_read += seg_bytes;
                }
            }
            // Accumulate pooled work per filter (compacted dispatch) or
            // per line (static ownership).
            if cfg.index_select {
                for fi in 0..m {
                    for idx in 0..c * r {
                        if !processed[idx] {
                            continue;
                        }
                        index_compares += 1;
                        if pw.row_nnz(fi, idx) > 0 {
                            slice_work[fi] += t_row[idx];
                            slice_longest[fi] = slice_longest[fi].max(t_row[idx]);
                            pe_busy += e_row[idx];
                            acc_adds += (s * nf) as u64;
                        }
                    }
                }
            } else {
                // Static line ownership: every filter pays the same line
                // times (no per-filter skipping hardware).
                for idx in (0..c * r).filter(|&idx| processed[idx]) {
                    line_total[idx / r] += t_row[idx];
                    pe_busy += e_row[idx] * m as u64;
                    acc_adds += (s * nf * m) as u64;
                }
            }
        }
        // Close the output row: slices (filters) run in parallel within an
        // m-tile; m-tiles are sequential passes.
        if cfg.index_select {
            for m0 in (0..m).step_by(dim_m) {
                let m_hi = (m0 + dim_m).min(m);
                let mut tile_max = 0u64;
                for fi in m0..m_hi {
                    let t = slice_work[fi].div_ceil(dim_c as u64).max(slice_longest[fi]);
                    tile_max = tile_max.max(t);
                }
                compute += tile_max;
            }
        } else {
            for lines in line_total.chunks(dim_c) {
                compute += lines.iter().copied().max().unwrap_or(0) * sched.m_tiles;
            }
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    // Rebuild engine: active coefficient rows are rebuilt once per output
    // row (the rebuilt row stays registered across the f0 tiles).
    let mut rebuild: u64 = 0;
    let mut active_row_codes: u64 = 0;
    if pw.is_se {
        for fi in 0..m {
            for idx in 0..c * r {
                if pw.row_nnz(fi, idx) > 0 {
                    rebuild += u64::from(pw.row_nnz(fi, idx)) * s as u64;
                    active_row_codes += s as u64;
                }
            }
        }
        rebuild *= e_out as u64;
        active_row_codes *= e_out as u64;
    }

    // Needed input rows: non-zero rows of channels any filter uses.
    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |ci| {
        !cfg.index_select || (0..r).any(|kr| pw.any_row[ci * r + kr])
    });
    let per_filter_bytes = (pw.weight_bytes + pw.index_bytes).div_ceil(m.max(1) as u64);
    let spill = weight_chunking(cfg, per_filter_bytes, sched);
    let (gb_spill, dram_spill) = if sched.psum_to_gb { (spill / 2, 0) } else { (0, spill) };
    let code_bits = 4u64; // 4-bit coefficients in the paper's configuration
    let weight_gb_read = if pw.is_se {
        active_row_codes * code_bits / 8 + pw.basis_bytes + pw.index_bytes
    } else {
        // Dense: each weight row re-read per output row.
        (m * c * r * s) as u64 * e_out as u64
    };
    let mem = pass_mem_flat(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
    let mem = MemCounters {
        dram_output_bytes: mem.dram_output_bytes + dram_spill,
        output_gb_read_bytes: gb_spill,
        output_gb_write_bytes: mem.output_gb_write_bytes + gb_spill,
        weight_gb_read_bytes: weight_gb_read,
        ..mem
    };
    Ok((compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares)))
}

/// 1×1 CONV path: FC-style coefficient rows (groups of `fc_width` input
/// channels) mapped onto PE lines, output pixels onto MACs.
fn pointwise_layer(
    cfg: &SeAcceleratorConfig,
    trace: &LayerTrace,
    sched: &Schedule,
) -> Result<Pass> {
    let desc = trace.desc();
    let LayerKind::Conv2d { in_channels: c, out_channels: m, stride, padding, .. } = *desc.kind()
    else {
        unreachable!("dispatch guarantees Conv2d");
    };
    let (h, w) = desc.input_hw();

    let (pw, group) = prepare_weights_flat(trace, fc_width("1x1 CONV"), (m, c, 1))?;
    let groups = pw.rows_per_filter;
    let sc = serial_counts_flat(trace.input(), serial_mode(cfg));
    let act_nz = window::activation_row_nonzero(trace.input());

    let (dim_m, dim_c) = (cfg.dim_m, cfg.dim_c);
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    let mut t_row = vec![0u64; groups];
    let mut e_row = vec![0u64; groups];
    let mut live = vec![false; groups];
    let mut lanes = vec![0u64; groups];

    for ei in 0..sched.e_rows {
        let Some(iy) = sched.input_row(ei, 0) else {
            continue;
        };
        for &(f0, nf) in &sched.f_groups {
            for g in 0..groups {
                let c_lo = g * group;
                let c_hi = (c_lo + group).min(c);
                let mut cycles = 0u64;
                let mut energy = 0u64;
                let mut act_live = false;
                for ci in c_lo..c_hi {
                    let row = ci * h + iy;
                    act_live |= act_nz[row];
                    let (cy, en) = row_cost_flat(&sc[row * w..][..w], f0, nf, stride, padding, 1);
                    cycles += cy;
                    energy += en;
                }
                if cfg.index_select {
                    index_compares += 1;
                }
                live[g] = !cfg.index_select || act_live;
                if live[g] {
                    t_row[g] = cycles;
                    e_row[g] = energy;
                    lanes[g] = ((c_hi - c_lo) * nf) as u64;
                }
            }
            let seg_bytes = (((nf - 1) * stride + 1) * group) as u64;
            #[allow(clippy::needless_range_loop)]
            for g in 0..groups {
                if live[g] && (!cfg.index_select || pw.any_row[g]) {
                    gb_in_read += seg_bytes;
                }
            }
            for m0 in (0..m).step_by(dim_m) {
                let m_hi = (m0 + dim_m).min(m);
                for g0 in (0..groups).step_by(dim_c) {
                    let g_hi = (g0 + dim_c).min(groups);
                    let mut tile_max = 0u64;
                    for fi in m0..m_hi {
                        let slice_time = if cfg.index_select {
                            let mut work = 0u64;
                            let mut longest = 0u64;
                            for g in g0..g_hi {
                                if !live[g] {
                                    continue;
                                }
                                index_compares += 1;
                                if pw.row_nnz(fi, g) > 0 {
                                    work += t_row[g];
                                    longest = longest.max(t_row[g]);
                                    pe_busy += e_row[g];
                                    acc_adds += lanes[g];
                                }
                            }
                            work.div_ceil(dim_c as u64).max(longest)
                        } else {
                            let mut line_max = 0u64;
                            for g in g0..g_hi {
                                if !live[g] {
                                    continue;
                                }
                                line_max = line_max.max(t_row[g]);
                                pe_busy += e_row[g];
                                acc_adds += lanes[g];
                            }
                            line_max
                        };
                        tile_max = tile_max.max(slice_time);
                    }
                    compute += tile_max;
                }
            }
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    let mut rebuild: u64 = 0;
    if pw.is_se {
        for fi in 0..m {
            for g in 0..groups {
                rebuild += u64::from(pw.row_nnz(fi, g)) * group as u64;
            }
        }
        rebuild *= sched.e_out as u64;
    }

    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |_| true);
    let mem = pass_mem_flat(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
    Ok((compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares)))
}

/// Depth-wise CONV: with the dedicated design, kernel rows run on parallel
/// PE lines and channels map across slices; without it, one line per
/// channel processes the rows sequentially (Fig. 15 ablation).
fn depthwise_layer(
    cfg: &SeAcceleratorConfig,
    trace: &LayerTrace,
    sched: &Schedule,
) -> Result<Pass> {
    let desc = trace.desc();
    let LayerKind::DepthwiseConv2d { channels: c, kernel, stride, padding } = *desc.kind() else {
        unreachable!("dispatch guarantees DepthwiseConv2d");
    };
    let (h, w) = desc.input_hw();
    let r = kernel;
    let s = kernel;

    let (pw, _) = prepare_weights_flat(trace, |_| Ok(1), (c, r, s))?;
    let sc = serial_counts_flat(trace.input(), serial_mode(cfg));
    let act_nz = window::activation_row_nonzero(trace.input());

    let dim_m = cfg.dim_m;
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Per-kernel-row cycles of one channel, reset per channel.
    let mut row_times = vec![0u64; r];
    for ei in 0..sched.e_rows {
        for &(f0, nf) in &sched.f_groups {
            let seg_bytes = ((nf - 1) * stride + s) as u64;
            for c0 in (0..c).step_by(dim_m) {
                let c_hi = (c0 + dim_m).min(c);
                let mut tile_max = 0u64;
                for ci in c0..c_hi {
                    row_times.fill(0);
                    #[allow(clippy::needless_range_loop)]
                    for kr in 0..r {
                        let Some(iy) = sched.input_row(ei, kr) else {
                            continue;
                        };
                        let row = ci * h + iy;
                        if cfg.index_select {
                            index_compares += 1;
                            if !act_nz[row] || pw.row_nnz(ci, kr) == 0 {
                                continue;
                            }
                        }
                        let (cycles, energy) =
                            row_cost_flat(&sc[row * w..][..w], f0, nf, stride, padding, s);
                        row_times[kr] = cycles;
                        pe_busy += energy;
                        acc_adds += (s * nf) as u64;
                        gb_in_read += seg_bytes;
                    }
                    let channel_time: u64 = if cfg.compact_dedicated {
                        // Kernel rows on parallel PE lines.
                        row_times.iter().copied().max().unwrap_or(0)
                    } else {
                        // Single line processes rows back-to-back.
                        row_times.iter().sum()
                    };
                    tile_max = tile_max.max(channel_time);
                }
                compute += tile_max;
            }
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    let rebuild = if pw.is_se { pw.total_nnz * s as u64 * sched.e_out as u64 } else { 0 };
    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |_| true);
    let mem = pass_mem_flat(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
    Ok((compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares)))
}

/// Work (serial cycles) for one output neuron of an FC matrix given its
/// prepared weights and the flat activation serial counts.
fn fc_neuron_work(
    cfg: &SeAcceleratorConfig,
    pw: &FlatWeights,
    filter: usize,
    group: usize,
    sc: &[u8],
) -> (u64, u64, u64) {
    let mut cycles = 0u64;
    let mut energy = 0u64;
    let mut adds = 0u64;
    for g in 0..pw.rows_per_filter {
        let coeff_live = pw.row_nnz(filter, g) > 0;
        if cfg.index_select && !coeff_live {
            continue;
        }
        let lo = g * group;
        let hi = (lo + group).min(sc.len());
        if lo >= sc.len() {
            continue;
        }
        let seg = &sc[lo..hi];
        if cfg.index_select && seg.iter().all(|&x| x == 0) {
            continue;
        }
        for &x in seg {
            cycles += u64::from(x.max(1));
            energy += u64::from(x);
        }
        adds += seg.len() as u64;
    }
    (cycles, energy, adds)
}

/// FC path: output neurons distributed over slices × lines (× 2 clusters
/// with the dedicated compact-model design).
fn fc_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<Pass> {
    let LayerKind::Linear { in_features: c, out_features: m } = *trace.desc().kind() else {
        unreachable!("dispatch guarantees Linear");
    };
    let (pw, group) = prepare_weights_flat(trace, fc_width("FC"), (m, c, 1))?;
    let sc = serial_counts_flat(trace.input(), serial_mode(cfg));
    Ok(fc_engine(cfg, &pw, group, &sc, m, c))
}

/// Shared FC cycle/memory engine (used by both FC and squeeze-excite).
fn fc_engine(
    cfg: &SeAcceleratorConfig,
    pw: &FlatWeights,
    group: usize,
    sc: &[u8],
    m: usize,
    c: usize,
) -> Pass {
    let clusters = if cfg.compact_dedicated { 2 } else { 1 };
    let units = cfg.dim_m * cfg.dim_c * clusters;
    let mut unit_work = vec![0u64; units.max(1)];
    let mut pe_busy = 0u64;
    let mut acc_adds = 0u64;
    let mut index_compares = 0u64;
    for fi in 0..m {
        let (cy, en, adds) = fc_neuron_work(cfg, pw, fi, group, sc);
        unit_work[fi % units] += cy;
        pe_busy += en;
        acc_adds += adds;
        if cfg.index_select {
            index_compares += pw.rows_per_filter as u64;
        }
    }
    let compute = unit_work.iter().copied().max().unwrap_or(0);
    let rebuild = if pw.is_se { pw.total_nnz * group as u64 } else { 0 };
    // Every input is read once per round of output neurons over the units.
    let gb_in_read = c as u64 * (m as u64).div_ceil(units as u64).max(1);
    let mem = pass_mem_flat(cfg, pw, c as u64, 1, gb_in_read, m as u64, rebuild);
    (compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares))
}

/// Squeeze-and-excite: global pool, two FC matrices (executed on the FC
/// engine), and the channel-wise rescale of the feature map.
fn squeeze_excite_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<Pass> {
    let desc = trace.desc();
    let LayerKind::SqueezeExcite { channels, reduced } = *desc.kind() else {
        unreachable!("dispatch guarantees SqueezeExcite");
    };
    let (h, w) = desc.input_hw();
    let q = trace.input();

    // Pooled per-channel means (computable exactly from the trace).
    let per = h * w;
    let mut pooled = Vec::with_capacity(channels);
    for ch in 0..channels {
        let sum: i64 = q.data()[ch * per..(ch + 1) * per].iter().map(|&x| i64::from(x)).sum();
        pooled.push(sum as f32 * q.scale() / per as f32);
    }
    let pooled_t = se_tensor::Tensor::from_vec(pooled, &[channels])?;
    let pooled_q = QuantTensor::quantize(&pooled_t, 8)?;

    let (squeeze_pw, excite_pw, group, fc1_out) = match trace.weights() {
        WeightData::Se(parts) if parts.len() == 2 => {
            let g = match *parts[0].layout() {
                SeLayout::FcPerRow { width, .. } => width,
                SeLayout::ConvPerFilter { .. } => {
                    return Err(HwError::UnsupportedTrace {
                        reason: format!(
                            "layer {}: squeeze-excite expects FcPerRow parts",
                            desc.name()
                        ),
                    })
                }
            };
            // Compute the FC1 output to feed FC2's activation statistics.
            let w1 = parts[0].reconstruct_weights()?; // (reduced, channels)
            let x = pooled_q.dequantize();
            let y: Vec<f32> = (0..reduced)
                .map(|i| {
                    let row = &w1.data()[i * channels..(i + 1) * channels];
                    row.iter().zip(x.data()).map(|(&a, &b)| a * b).sum::<f32>().max(0.0)
                })
                .collect();
            (
                prepare_se_flat(&parts[0]),
                prepare_se_flat(&parts[1]),
                g,
                QuantTensor::quantize(&se_tensor::Tensor::from_vec(y, &[reduced])?, 8)?,
            )
        }
        WeightData::Dense(_) => {
            let ones = se_tensor::Tensor::full(&[reduced], 1.0);
            (
                prepare_dense_flat(reduced, channels, 1),
                prepare_dense_flat(channels, reduced, 1),
                1,
                QuantTensor::quantize(&ones, 8)?,
            )
        }
        WeightData::Se(parts) => {
            return Err(HwError::UnsupportedTrace {
                reason: format!(
                    "layer {}: squeeze-excite expects 2 SE parts, found {}",
                    desc.name(),
                    parts.len()
                ),
            })
        }
    };

    let mode = serial_mode(cfg);
    let sc1 = serial_counts_flat(&pooled_q, mode);
    let (cy1, mem1, ops1) = fc_engine(cfg, &squeeze_pw, group, &sc1, reduced, channels);
    let sc2 = serial_counts_flat(&fc1_out, mode);
    let (cy2, mem2, ops2) = fc_engine(cfg, &excite_pw, group, &sc2, channels, reduced);

    let map_elems = (channels * h * w) as u64;
    // Pooling adds + rescale multiplies over the feature map; the map is
    // streamed from/to the GB (it is the layer's input trace).
    let mut mem = mem1;
    mem.accumulate(&mem2);
    mem.dram_input_bytes = input_dram_bytes(cfg, map_elems, 1);
    mem.input_gb_write_bytes = mem.dram_input_bytes;
    mem.input_gb_read_bytes += map_elems * 2; // pool read + rescale read
    mem.dram_output_bytes = map_elems;
    mem.output_gb_write_bytes = map_elems;
    let mut ops = ops1;
    ops.accumulate(&ops2);
    ops.accumulator_adds += map_elems;
    ops.macs += map_elems;
    // Rescale runs on the MAC array at one multiply per element.
    let rescale_cycles = map_elems.div_ceil(cfg.total_lanes() as u64);
    let pool_cycles = map_elems.div_ceil(cfg.total_lanes() as u64);
    let compute = cy1 + cy2 + rescale_cycles + pool_cycles;
    Ok((compute, mem, ops))
}

mod tests {
    use super::*;
    use crate::sim::SeAccelerator;
    use crate::Accelerator;
    use proptest::prelude::*;
    use se_ir::{LayerDesc, Po2Set, SeSlice};
    use se_tensor::Mat;

    /// Members of the default 4-bit alphabet a non-zero coefficient draws
    /// from.
    const COEFFS: [f32; 5] = [1.0, -0.5, 0.25, -0.125, 0.015625];

    /// Draws from one case's generator.
    struct Draw(TestRng);

    impl Draw {
        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            (lo..hi + 1).sample(&mut self.0)
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.range(1, n) == 1
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.range(0, xs.len() - 1)]
        }
    }

    /// An SE layer of `units` units of `rows × cols` coefficients, each unit
    /// split into `per_unit` slices (the last takes the remainder). A unit
    /// is all zero one time in six (a pruned filter); otherwise a row is
    /// zero one time in three and a coefficient one time in three.
    fn se_layer(d: &mut Draw, layout: SeLayout, rows: usize, cols: usize) -> SeLayer {
        let (units, per_unit) = match layout {
            SeLayout::ConvPerFilter { out_channels, slices_per_filter, .. } => {
                (out_channels, slices_per_filter)
            }
            SeLayout::FcPerRow { out_features, slices_per_row, .. } => {
                (out_features, slices_per_row)
            }
        };
        let po2 = Po2Set::default();
        let mut slices = Vec::with_capacity(units * per_unit);
        for _ in 0..units {
            let dead = d.one_in(6);
            let mut coeffs = Vec::with_capacity(rows * cols);
            for _ in 0..rows {
                let zero_row = dead || d.one_in(3);
                for _ in 0..cols {
                    let zero = zero_row || d.one_in(3);
                    coeffs.push(if zero { 0.0 } else { d.pick(&COEFFS) });
                }
            }
            let mut rest = &coeffs[..];
            for i in 0..per_unit {
                let n = if i + 1 == per_unit { rest.len() / cols } else { rows / per_unit };
                let (head, tail) = rest.split_at(n * cols);
                rest = tail;
                let ce = Mat::from_vec(head.to_vec(), n, cols).unwrap();
                slices.push(SeSlice::new(ce, Mat::identity(cols), &po2).unwrap());
            }
        }
        SeLayer::new(layout, po2, slices).unwrap()
    }

    /// A conv-style SE layout of `units` filters of `channels × kernel` rows.
    fn conv_se(d: &mut Draw, units: usize, channels: usize, kernel: usize) -> SeLayer {
        let rows = channels * kernel;
        let layout = SeLayout::ConvPerFilter {
            out_channels: units,
            in_channels: channels,
            kernel,
            slices_per_filter: d.range(1, rows.min(3)),
        };
        se_layer(d, layout, rows, kernel)
    }

    /// An FC-style SE layout of `units` rows over `inputs` inputs in groups
    /// of `width`.
    fn fc_se(d: &mut Draw, units: usize, inputs: usize, width: usize) -> SeLayer {
        let rows = inputs.div_ceil(width);
        let layout = SeLayout::FcPerRow {
            out_features: units,
            in_features: inputs,
            width,
            slices_per_row: d.range(1, rows.min(3)),
        };
        se_layer(d, layout, rows, width)
    }

    /// Codes of an input of `rows` rows of `w`: a row is all zero one time in
    /// four, a code zero one time in two.
    fn activations(d: &mut Draw, shape: Vec<usize>, w: usize) -> QuantTensor {
        let rows = shape.iter().product::<usize>() / w.max(1);
        let mut codes = Vec::with_capacity(rows * w);
        for _ in 0..rows {
            let zero_row = d.one_in(4);
            for _ in 0..w {
                let zero = zero_row || d.one_in(2);
                codes.push(if zero { 0 } else { (d.range(0, 254) as i16 - 127) as i8 });
            }
        }
        QuantTensor::from_parts(shape, codes, 0.05, 8).unwrap()
    }

    /// A random configuration: small arrays (so that folds, partial tiles
    /// and line tiles `dim_c` does not divide all occur), every feature
    /// toggle, and buffers small enough to refetch and chunk.
    fn config(d: &mut Draw) -> SeAcceleratorConfig {
        SeAcceleratorConfig {
            dim_m: d.range(1, 9),
            dim_c: d.range(1, 5),
            dim_f: d.range(1, 5),
            input_gb_bank_kb: if d.one_in(3) { 0.01 } else { 16.0 },
            weight_buf_bank_kb: if d.one_in(3) { 0.01 } else { 2.0 },
            bit_serial: !d.one_in(4),
            booth_encoder: !d.one_in(3),
            index_select: !d.one_in(3),
            compact_dedicated: d.one_in(2),
            row_sample: d.pick(&[1, 3, 4]),
            ..Default::default()
        }
    }

    /// A random spatial layer: input side `hw` with `kernel` fitting the
    /// padded input, stride 1 or 2, padding 0 to 2.
    fn spatial(d: &mut Draw, kernel: usize) -> (usize, usize, usize) {
        let (stride, padding) = (d.range(1, 2), d.range(0, 2));
        let hw = d.range(kernel.saturating_sub(2 * padding).max(1), kernel + 6);
        (stride, padding, hw)
    }

    /// One random trace of the family `family` (0: CONV with `R > 1`,
    /// 1: 1×1 CONV, 2: depth-wise, 3: FC, 4: squeeze-excite), with SE
    /// weights two times in three and dense weights otherwise.
    fn trace(d: &mut Draw, family: usize) -> LayerTrace {
        let se = !d.one_in(3);
        let (kind, hw, weights) = match family {
            0 | 1 => {
                let kernel = if family == 0 { d.pick(&[2, 3, 5]) } else { 1 };
                let (stride, padding, hw) = spatial(d, kernel);
                let (c, m, width) = (d.range(1, 12), d.range(1, 20), d.range(1, 5));
                let weights = match (se, kernel) {
                    (false, _) => None,
                    (true, 1) => Some(vec![fc_se(d, m, c, width)]),
                    (true, _) => Some(vec![conv_se(d, m, c, kernel)]),
                };
                let kind =
                    LayerKind::Conv2d { in_channels: c, out_channels: m, kernel, stride, padding };
                (kind, hw, weights)
            }
            2 => {
                let kernel = d.pick(&[1, 3, 5]);
                let (stride, padding, hw) = spatial(d, kernel);
                let c = d.range(1, 12);
                let weights = se.then(|| vec![conv_se(d, c, 1, kernel)]);
                (LayerKind::DepthwiseConv2d { channels: c, kernel, stride, padding }, hw, weights)
            }
            3 => {
                let (c, m, width) = (d.range(1, 40), d.range(1, 30), d.range(1, 5));
                let weights = se.then(|| vec![fc_se(d, m, c, width)]);
                (LayerKind::Linear { in_features: c, out_features: m }, 1, weights)
            }
            _ => {
                let (channels, reduced) = (d.range(1, 16), d.range(1, 6));
                let width = d.range(1, 4);
                let weights = se.then(|| {
                    vec![fc_se(d, reduced, channels, width), fc_se(d, channels, reduced, width)]
                });
                (LayerKind::SqueezeExcite { channels, reduced }, d.range(1, 5), weights)
            }
        };
        let desc = LayerDesc::new("layer", kind, (hw, hw));
        let weights = match weights {
            Some(parts) => WeightData::Se(parts),
            None => {
                let shape = desc.weight_shape();
                let w = *shape.last().unwrap();
                WeightData::Dense(activations(d, shape, w))
            }
        };
        let input = match kind {
            LayerKind::Linear { in_features, .. } => activations(d, vec![in_features], 1),
            _ => {
                let channels = match kind {
                    LayerKind::Conv2d { in_channels, .. } => in_channels,
                    LayerKind::DepthwiseConv2d { channels, .. }
                    | LayerKind::SqueezeExcite { channels, .. } => channels,
                    LayerKind::Linear { .. } => unreachable!(),
                };
                activations(d, vec![channels, hw, hw], hw)
            }
        };
        LayerTrace::new(desc, weights, input).unwrap()
    }

    /// Every `LayerResult` field of the simulator equals the flat model's.
    fn matches_flat(seed: u64, family: usize) -> std::result::Result<(), TestCaseError> {
        let mut d = Draw(TestRng::new(seed));
        let cfg = config(&mut d);
        let trace = trace(&mut d, family);
        let fast = SeAccelerator::new(cfg.clone()).unwrap().process_layer(&trace);
        let flat = process_layer(&cfg, &trace);
        prop_assert!(fast.is_ok(), "{:?} rejected: {:?}", trace.desc(), fast);
        prop_assert_eq!(fast, flat);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn conv_layer_matches_flat_loops(seed in any::<u64>()) {
            matches_flat(seed, 0)?;
        }

        #[test]
        fn pointwise_layer_matches_flat_loops(seed in any::<u64>()) {
            matches_flat(seed, 1)?;
        }

        #[test]
        fn depthwise_layer_matches_flat_loops(seed in any::<u64>()) {
            matches_flat(seed, 2)?;
        }

        #[test]
        fn fc_layer_matches_flat_loops(seed in any::<u64>()) {
            matches_flat(seed, 3)?;
        }

        #[test]
        fn squeeze_excite_layer_matches_flat_loops(seed in any::<u64>()) {
            matches_flat(seed, 4)?;
        }
    }
}
