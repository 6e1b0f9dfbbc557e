//! The SmartExchange accelerator simulator.
//!
//! # Cycle model
//!
//! Standard CONV (`R = S > 1`): output channels map to PE slices, input
//! channels to PE lines, `dimF` adjacent output pixels to the bit-serial
//! MACs of a line. For an output row `e` and pixel group `f0`, a line
//! processes its channel's `R` weight rows back-to-back; one weight row is
//! a 1-D convolution of `S` steps, and each step costs the **maximum**
//! Booth-digit count over the `dimF` activations in the window (lanes run
//! in lockstep; a fully-zero window still costs one issue cycle). Rows are
//! skipped outright — no cycles, no fetches — when the index selector is on
//! and either the coefficient row or the activation row is zero. Lines of a
//! slice run in parallel (the slice finishes with its slowest line), slices
//! run in parallel over filters, channel tiles are sequential passes, so:
//!
//! ```text
//! cycles = Σ_{e, f0, c-tile} max_{slice, line} Σ_{kr active} row_cycles
//! ```
//!
//! 1×1 CONV maps the FC-style reshape onto the same array (lines process
//! `fc_width`-channel coefficient rows); depth-wise CONV uses the dedicated
//! mapping of Section IV-B (kernel rows across PE lines) or, with the
//! dedicated design disabled (Fig. 15 ablation), a single line per channel
//! processing rows sequentially; FC and squeeze-excite layers distribute
//! output neurons over slices × lines (× 2 MAC clusters with the dedicated
//! design).
//!
//! # Memory model
//!
//! Compressed weights (`Ce` codes + basis + 1-bit row index) are fetched
//! from DRAM once and held in the per-slice weight buffers; oversized
//! filters fall back to channel-chunked passes with partial-sum spill.
//! Inputs are fetched once when the needed rows fit the input GB, and
//! re-streamed per output-channel tile otherwise; zero activation rows and
//! rows no filter needs are never fetched. Outputs are written once.
//! Compute and DRAM transfers overlap through double buffering:
//! `total_cycles = max(compute, DRAM bytes / bandwidth)`.
//!
//! # Schedule reuse
//!
//! The data-independent skeleton of a layer pass — which output rows are
//! sampled under `row_sample`, the input row each kernel row reads, the
//! `(f0, nf)` output-pixel groups, the slice-fold width, and the
//! memory-model constants (output-channel tile count, output-element
//! volume, the partial-sum spill target of weight chunking) — is a pure
//! function of the layer geometry and the accelerator configuration. It is
//! captured in a `Schedule` (private to this module), memoized per
//! [`crate::schedule::ScheduleKey`] in one process-wide
//! [`crate::schedule::ScheduleCache`], and shared across layers with
//! identical shapes (ResNet164 repeats each bottleneck geometry 18× per
//! stage) and across every accelerator with the same configuration. Only the data-dependent terms — zero activation rows,
//! Booth-digit window costs, coefficient-row masks, rebuild costs — are
//! re-evaluated per layer, so cache hits are bit-identical to cold builds.

use std::sync::{Arc, LazyLock};

use crate::schedule::{ScheduleCache, ScheduleKey};
use crate::window::{self, SerialMode};
use crate::{
    Accelerator, HwError, LayerResult, MemCounters, OpCounters, Result, SeAcceleratorConfig,
};
use se_ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, SeLayer, SeLayout, WeightData};

/// Every schedule built in this process, keyed by
/// [`ScheduleKey::for_config`], which holds every field [`Schedule::build`]
/// reads: any accelerator with that configuration — cluster replicas, one
/// engine per model, Bit-pragmatic's derived engine — reuses it.
static SCHEDULES: LazyLock<ScheduleCache<Schedule>> = LazyLock::new(ScheduleCache::default);

/// The SmartExchange accelerator (Section IV).
#[derive(Debug, Clone, PartialEq)]
pub struct SeAccelerator {
    cfg: SeAcceleratorConfig,
}

impl SeAccelerator {
    /// Creates an accelerator with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] for invalid configurations.
    pub fn new(cfg: SeAcceleratorConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(SeAccelerator { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SeAcceleratorConfig {
        &self.cfg
    }

    /// The geometry schedule for `desc`, built once per distinct shape and
    /// configuration in the process.
    fn schedule_for(&self, desc: &LayerDesc) -> Result<Arc<Schedule>> {
        SCHEDULES.get_or_try_build(ScheduleKey::for_config(desc, &self.cfg), || {
            Schedule::build(desc, &self.cfg)
        })
    }
}

impl Accelerator for SeAccelerator {
    fn name(&self) -> &str {
        "SmartExchange"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.cfg.dram_bytes_per_cycle
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        let desc = trace.desc();
        match *desc.kind() {
            LayerKind::Conv2d { kernel, .. } if kernel > 1 => {
                let sched = self.schedule_for(desc)?;
                conv_layer(&self.cfg, trace, &sched)
            }
            LayerKind::Conv2d { .. } => {
                let sched = self.schedule_for(desc)?;
                pointwise_layer(&self.cfg, trace, &sched)
            }
            LayerKind::DepthwiseConv2d { .. } => {
                let sched = self.schedule_for(desc)?;
                depthwise_layer(&self.cfg, trace, &sched)
            }
            LayerKind::Linear { .. } => fc_layer(&self.cfg, trace),
            LayerKind::SqueezeExcite { .. } => squeeze_excite_layer(&self.cfg, trace),
        }
    }
}

/// The data-independent skeleton of one simulator pass over a spatial
/// (CONV / 1×1 CONV / depth-wise) layer: everything derivable from the
/// layer geometry and the accelerator configuration alone, computed once
/// per distinct shape and reused across repeats.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Schedule {
    /// Output rows simulated under `row_sample`.
    e_rows: Vec<usize>,
    /// Factor scaling sampled totals back to the full layer.
    e_scale: f64,
    /// Kernel rows tracked per output row (`R` for CONV/depth-wise, 1 for
    /// 1×1 CONV).
    r: usize,
    /// `row_iy[ei * r + kr]`: the input row kernel row `kr` reads at
    /// sampled output row `e_rows[ei]`, or `None` for pure padding rows.
    row_iy: Vec<Option<usize>>,
    /// Output-pixel groups `(f0, nf)` with `nf <= eff_f`.
    f_groups: Vec<(usize, usize)>,
    /// Output feature-map height.
    e_out: usize,
    /// Output-channel tiles driving input refetch (`ceil(M / dimM)`; 1 for
    /// depth-wise layers, whose input pass is never repeated per tile).
    m_tiles: u64,
    /// Output elements of one image (`M × E × F`; channels for depth-wise).
    outputs: u64,
    /// Whether a chunked filter's spilled partial sums fit the output GB
    /// (the spill target of `weight_chunking`; DRAM otherwise).
    psum_to_gb: bool,
}

impl Schedule {
    /// Builds the schedule for a spatial layer.
    ///
    /// # Errors
    ///
    /// Propagates invalid output geometry; FC-style layers have no spatial
    /// schedule (the dispatch never requests one).
    fn build(desc: &LayerDesc, cfg: &SeAcceleratorConfig) -> Result<Schedule> {
        let (h, _) = desc.input_hw();
        let (e_out, f_out) = desc.output_hw()?;
        // Narrow layers (fewer filters than slices) fold spare slices into
        // wider output-pixel groups, as the compiler's dataflow selection
        // (Section IV-B) would; depth-wise layers map channels to slices
        // directly and do not fold.
        let (r, stride, padding, eff_f, out_units, m_tiles) = match *desc.kind() {
            LayerKind::Conv2d { out_channels: m, kernel, stride, padding, .. } => {
                let fold = if m < cfg.dim_m { (cfg.dim_m / m.max(1)).clamp(1, 8) } else { 1 };
                let m_tiles = (m as u64).div_ceil(cfg.dim_m as u64);
                (kernel.max(1), stride, padding, cfg.dim_f * fold, m, m_tiles)
            }
            LayerKind::DepthwiseConv2d { channels, kernel, stride, padding } => {
                (kernel, stride, padding, cfg.dim_f, channels, 1)
            }
            LayerKind::Linear { .. } | LayerKind::SqueezeExcite { .. } => {
                return Err(HwError::UnsupportedTrace {
                    reason: format!(
                        "layer {}: FC-style layers have no spatial schedule",
                        desc.name()
                    ),
                })
            }
        };
        let (e_rows, e_scale) = sampled_rows(e_out, cfg.row_sample);
        let mut row_iy = Vec::with_capacity(e_rows.len() * r);
        for &e in &e_rows {
            for kr in 0..r {
                let iy = (e * stride + kr) as isize - padding as isize;
                row_iy.push(if iy < 0 || iy as usize >= h { None } else { Some(iy as usize) });
            }
        }
        let mut f_groups = Vec::new();
        let mut f0 = 0;
        while f0 < f_out {
            f_groups.push((f0, eff_f.min(f_out - f0)));
            f0 += eff_f;
        }
        // Memory-model constants, folded into the cached skeleton so batch
        // replays of a geometry never recompute them.
        let outputs = (out_units * e_out * f_out) as u64;
        let tile_psums = (cfg.dim_m as u64) * 2 * outputs.div_ceil(cfg.dim_m as u64).max(1);
        let psum_to_gb =
            (tile_psums as f64) <= cfg.output_gb_banks as f64 * cfg.output_gb_bank_kb * 1024.0;
        Ok(Schedule { e_rows, e_scale, r, row_iy, f_groups, e_out, m_tiles, outputs, psum_to_gb })
    }

    /// The input row kernel row `kr` reads at sampled output row index
    /// `ei`, or `None` for pure padding rows.
    #[inline]
    fn input_row(&self, ei: usize, kr: usize) -> Option<usize> {
        self.row_iy[ei * self.r + kr]
    }
}

/// Weight information normalised for the cycle model.
struct PreparedWeights {
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

impl PreparedWeights {
    #[inline]
    fn row_nnz(&self, filter: usize, row: usize) -> u16 {
        self.nnz_row[filter * self.rows_per_filter + row]
    }
}

fn se_storage_bytes(layer: &SeLayer) -> (u64, u64, u64) {
    let s = se_ir::storage::se_layer_storage(layer);
    ((s.ce_bits + s.basis_bits).div_ceil(8), s.index_bits.div_ceil(8), s.basis_bits.div_ceil(8))
}

/// Builds [`PreparedWeights`] from an SE layer whose layout units map to
/// "filters" (works for both `ConvPerFilter` and `FcPerRow`).
fn prepare_se(layer: &SeLayer) -> PreparedWeights {
    let (filters, per_unit_slices) = match *layer.layout() {
        SeLayout::ConvPerFilter { out_channels, slices_per_filter, .. } => {
            (out_channels, slices_per_filter)
        }
        SeLayout::FcPerRow { out_features, slices_per_row, .. } => (out_features, slices_per_row),
    };
    let rows_per_filter = layer.layout().rows_per_unit();
    let mut nnz_row = Vec::with_capacity(filters * rows_per_filter);
    for unit in layer.slices().chunks(per_unit_slices) {
        for slice in unit {
            let ce = slice.ce();
            for r in 0..ce.rows() {
                let nnz = ce.row(r).iter().filter(|&&x| x != 0.0).count() as u16;
                nnz_row.push(nnz);
            }
        }
    }
    let mut any_row = vec![false; rows_per_filter];
    for f in 0..filters {
        for r in 0..rows_per_filter {
            if nnz_row[f * rows_per_filter + r] > 0 {
                any_row[r] = true;
            }
        }
    }
    let (weight_bytes, index_bytes, basis_bytes) = se_storage_bytes(layer);
    let total_nnz = layer.nnz() as u64;
    PreparedWeights {
        rows_per_filter,
        nnz_row,
        any_row,
        weight_bytes,
        index_bytes,
        basis_bytes,
        total_nnz,
        is_se: true,
    }
}

/// Dense weights presented through the accelerator's original-weight path
/// (MUX1 path ③): no sparsity metadata, every row processed.
fn prepare_dense(filters: usize, rows_per_filter: usize, row_len: usize) -> PreparedWeights {
    PreparedWeights {
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

fn serial_mode(cfg: &SeAcceleratorConfig) -> SerialMode {
    match (cfg.bit_serial, cfg.booth_encoder) {
        (true, true) => SerialMode::Booth,
        (true, false) => SerialMode::PlainBits,
        (false, _) => SerialMode::Unit,
    }
}

#[inline]
fn step_cost(wmax: u8) -> u64 {
    u64::from(wmax.max(1))
}

/// Output rows to simulate under `row_sample`, plus the factor that scales
/// sampled totals back to the full layer.
fn sampled_rows(e_out: usize, row_sample: usize) -> (Vec<usize>, f64) {
    let rs = row_sample.max(1);
    let rows: Vec<usize> = (0..e_out).step_by(rs).collect();
    let scale = if rows.is_empty() { 1.0 } else { e_out as f64 / rows.len() as f64 };
    (rows, scale)
}

#[inline]
fn scale_u64(v: u64, s: f64) -> u64 {
    if s == 1.0 {
        v
    } else {
        (v as f64 * s).round() as u64
    }
}

/// DRAM input traffic with tiling-aware refetch: one pass when the needed
/// bytes fit the input GB, one pass per output-channel tile otherwise.
fn input_dram_bytes(cfg: &SeAcceleratorConfig, needed_bytes: u64, m_tiles: u64) -> u64 {
    if (needed_bytes as f64) <= cfg.input_gb_bytes() {
        needed_bytes
    } else {
        needed_bytes * m_tiles.max(1)
    }
}

/// Weight-buffer overflow handling: filters whose compressed form exceeds
/// the per-slice buffer are processed in channel chunks with partial sums
/// spilled between passes. Returns `(chunks, spill_bytes)`; the spill goes
/// to the output GB when a slice tile's partial sums fit (the cached
/// `Schedule::psum_to_gb` constant), else DRAM.
fn weight_chunking(
    cfg: &SeAcceleratorConfig,
    per_filter_bytes: u64,
    sched: &Schedule,
) -> (u64, u64) {
    let buf = (cfg.weight_buf_banks as f64 * cfg.weight_buf_bank_kb * 1024.0) as u64;
    let chunks = per_filter_bytes.div_ceil(buf.max(1)).max(1);
    if chunks <= 1 {
        return (1, 0);
    }
    // 16-bit partial sums, written and re-read once per extra chunk.
    (chunks, 2 * (chunks - 1) * sched.outputs * 2)
}

fn finish(
    cfg: &SeAcceleratorConfig,
    name: &str,
    compute_cycles: u64,
    mem: MemCounters,
    mut ops: OpCounters,
) -> LayerResult {
    let dram_cycles = (mem.dram_total_bytes() as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let lanes = cfg.total_lanes() as u64;
    let busy = ops.pe_lane_cycles + ops.macs;
    ops.idle_lane_cycles = (compute_cycles * lanes).saturating_sub(busy);
    LayerResult {
        name: name.to_string(),
        compute_cycles,
        dram_cycles,
        total_cycles: compute_cycles.max(dram_cycles),
        mem,
        ops,
    }
}

/// Extracts the single SE part or signals a dense layer.
fn weight_form(trace: &LayerTrace) -> Result<Option<&SeLayer>> {
    match trace.weights() {
        WeightData::Se(parts) if parts.len() == 1 => Ok(Some(&parts[0])),
        WeightData::Se(parts) => Err(HwError::UnsupportedTrace {
            reason: format!(
                "layer {} carries {} SE parts where 1 is expected",
                trace.desc().name(),
                parts.len()
            ),
        }),
        WeightData::Dense(_) => Ok(None),
    }
}

/// Standard CONV path (`R = S > 1`).
fn conv_layer(
    cfg: &SeAcceleratorConfig,
    trace: &LayerTrace,
    sched: &Schedule,
) -> Result<LayerResult> {
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

    let pw = match weight_form(trace)? {
        Some(layer) => {
            if layer.layout().rows_per_unit() != c * r {
                return Err(HwError::UnsupportedTrace {
                    reason: format!(
                        "layer {}: SE rows {} do not match C*R = {}",
                        desc.name(),
                        layer.layout().rows_per_unit(),
                        c * r
                    ),
                });
            }
            prepare_se(layer)
        }
        None => prepare_dense(m, c * r, s),
    };

    let q = trace.input();
    let mode = serial_mode(cfg);
    let sc = window::serial_counts(q, mode);
    let act_nz = window::activation_row_nonzero(q);

    let (dim_m, dim_c) = (cfg.dim_m, cfg.dim_c);
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Scratch per (e, f0): row cycle/energy tables over (c, kr).
    let mut t_row = vec![0u64; c * r];
    let mut e_row = vec![0u64; c * r];
    let mut processed = vec![false; c * r];

    let e_scale = sched.e_scale;
    // Per-filter pooled work for one output row: the index selector
    // dispatches (coefficient row, pixel group) pairs from the layer-wide
    // index to whichever PE line is free, so a slice's work pools across
    // both the f0 groups and the channels of the output row.
    let mut slice_work = vec![0u64; m];
    let mut slice_longest = vec![0u64; m];
    let mut line_total = vec![0u64; c];
    for ei in 0..sched.e_rows.len() {
        slice_work.fill(0);
        slice_longest.fill(0);
        line_total.fill(0);
        for &(f0, nf) in &sched.f_groups {
            // Phase 1: per-(channel, kernel-row) costs, shared by all slices.
            for ci in 0..c {
                for kr in 0..r {
                    let idx = ci * r + kr;
                    let Some(iy) = sched.input_row(ei, kr) else {
                        // Pure padding row: no hardware iterates it.
                        t_row[idx] = 0;
                        e_row[idx] = 0;
                        processed[idx] = false;
                        continue;
                    };
                    let act_live = act_nz[ci * h + iy];
                    // Index selector: zero activation rows are skipped for
                    // every filter; one compare per considered row.
                    if cfg.index_select {
                        index_compares += 1;
                    }
                    if cfg.index_select && !act_live {
                        t_row[idx] = 0;
                        e_row[idx] = 0;
                        processed[idx] = false;
                        continue;
                    }
                    let row_sc = &sc[(ci * h + iy) * w..(ci * h + iy + 1) * w];
                    let mut cycles = 0u64;
                    let mut energy = 0u64;
                    for si in 0..s {
                        let start = (f0 * stride + si) as isize - padding as isize;
                        cycles += step_cost(window::window_max(row_sc, start, stride, nf));
                        energy += u64::from(window::window_sum(row_sc, start, stride, nf));
                    }
                    t_row[idx] = cycles;
                    e_row[idx] = energy;
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
                #[allow(clippy::needless_range_loop)]
                for ci in 0..c {
                    for kr in 0..r {
                        let idx = ci * r + kr;
                        if !processed[idx] {
                            continue;
                        }
                        line_total[ci] += t_row[idx];
                        pe_busy += e_row[idx] * m as u64;
                        acc_adds += (s * nf * m) as u64;
                    }
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
            let m_tiles = m.div_ceil(dim_m) as u64;
            for c0 in (0..c).step_by(dim_c) {
                let c_hi = (c0 + dim_c).min(c);
                let line_max = (c0..c_hi).map(|ci| line_total[ci]).max().unwrap_or(0);
                compute += line_max * m_tiles;
            }
        }
    }

    compute = scale_u64(compute, e_scale);
    pe_busy = scale_u64(pe_busy, e_scale);
    acc_adds = scale_u64(acc_adds, e_scale);
    gb_in_read = scale_u64(gb_in_read, e_scale);
    index_compares = scale_u64(index_compares, e_scale);

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

    // Memory accounting (volume/tiling constants from the cached schedule).
    let outputs = sched.outputs;
    let per_filter_bytes = (pw.weight_bytes + pw.index_bytes).div_ceil(m.max(1) as u64);
    let (_, spill) = weight_chunking(cfg, per_filter_bytes, sched);
    let spill_to_gb = sched.psum_to_gb;

    // Needed input rows: non-zero rows of channels any filter uses.
    let mut needed_in: u64 = 0;
    for ci in 0..c {
        let channel_needed = !cfg.index_select || (0..r).any(|kr| pw.any_row[ci * r + kr]);
        if !channel_needed {
            continue;
        }
        for y in 0..h {
            if !cfg.index_select || act_nz[ci * h + y] {
                needed_in += w as u64;
            }
        }
    }
    let m_tiles = sched.m_tiles;
    let dram_in = input_dram_bytes(cfg, needed_in, m_tiles);

    let code_bits = 4u64; // 4-bit coefficients in the paper's configuration
    let weight_gb_read = if pw.is_se {
        active_row_codes * code_bits / 8 + pw.basis_bytes + pw.index_bytes
    } else {
        // Dense: each weight row re-read per output row.
        (m * c * r * s) as u64 * e_out as u64
    };

    let mem = MemCounters {
        dram_input_bytes: dram_in,
        dram_output_bytes: outputs + if spill_to_gb { 0 } else { spill },
        dram_weight_bytes: pw.weight_bytes,
        dram_index_bytes: pw.index_bytes,
        input_gb_read_bytes: gb_in_read,
        input_gb_write_bytes: dram_in,
        output_gb_read_bytes: if spill_to_gb { spill / 2 } else { 0 },
        output_gb_write_bytes: outputs + if spill_to_gb { spill / 2 } else { 0 },
        weight_gb_read_bytes: weight_gb_read,
        weight_gb_write_bytes: pw.weight_bytes + pw.index_bytes,
        rf_bytes: rebuild + pw.basis_bytes * m_tiles,
    };
    let ops = OpCounters {
        pe_lane_cycles: if cfg.bit_serial { pe_busy } else { 0 },
        macs: if cfg.bit_serial { 0 } else { pe_busy },
        accumulator_adds: acc_adds,
        rebuild_shift_adds: rebuild,
        index_compares,
        idle_lane_cycles: 0,
    };
    Ok(finish(cfg, desc.name(), compute, mem, ops))
}

/// 1×1 CONV path: FC-style coefficient rows (groups of `fc_width` input
/// channels) mapped onto PE lines, output pixels onto MACs.
fn pointwise_layer(
    cfg: &SeAcceleratorConfig,
    trace: &LayerTrace,
    sched: &Schedule,
) -> Result<LayerResult> {
    let desc = trace.desc();
    let LayerKind::Conv2d { in_channels: c, out_channels: m, stride, padding, .. } = *desc.kind()
    else {
        unreachable!("dispatch guarantees Conv2d");
    };
    let (h, w) = desc.input_hw();
    let e_out = sched.e_out;

    let (pw, group) = match weight_form(trace)? {
        Some(layer) => {
            let SeLayout::FcPerRow { width, .. } = *layer.layout() else {
                return Err(HwError::UnsupportedTrace {
                    reason: format!("layer {}: 1x1 CONV expects FcPerRow SE layout", desc.name()),
                });
            };
            (prepare_se(layer), width)
        }
        None => (prepare_dense(m, c, 1), 1),
    };
    let groups = pw.rows_per_filter;

    let q = trace.input();
    let mode = serial_mode(cfg);
    let sc = window::serial_counts(q, mode);
    let act_nz = window::activation_row_nonzero(q);

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

    let e_scale = sched.e_scale;
    for ei in 0..sched.e_rows.len() {
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
                let mut active_lanes = 0u64;
                for ci in c_lo..c_hi {
                    if act_nz[ci * h + iy] {
                        act_live = true;
                    }
                    let row_sc = &sc[(ci * h + iy) * w..(ci * h + iy + 1) * w];
                    let start = (f0 * stride) as isize - padding as isize;
                    cycles += step_cost(window::window_max(row_sc, start, stride, nf));
                    energy += u64::from(window::window_sum(row_sc, start, stride, nf));
                    active_lanes += nf as u64;
                }
                if cfg.index_select {
                    index_compares += 1;
                }
                if cfg.index_select && !act_live {
                    live[g] = false;
                    continue;
                }
                live[g] = true;
                t_row[g] = cycles;
                e_row[g] = energy;
                lanes[g] = active_lanes;
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

    compute = scale_u64(compute, e_scale);
    pe_busy = scale_u64(pe_busy, e_scale);
    acc_adds = scale_u64(acc_adds, e_scale);
    gb_in_read = scale_u64(gb_in_read, e_scale);
    index_compares = scale_u64(index_compares, e_scale);

    let mut rebuild: u64 = 0;
    if pw.is_se {
        for fi in 0..m {
            for g in 0..groups {
                rebuild += u64::from(pw.row_nnz(fi, g)) * group as u64;
            }
        }
        rebuild *= e_out as u64;
    }

    let outputs = sched.outputs;
    let needed_in: u64 = (0..c)
        .map(|ci| {
            (0..h).filter(|&y| !cfg.index_select || act_nz[ci * h + y]).count() as u64 * w as u64
        })
        .sum();
    let m_tiles = sched.m_tiles;
    let dram_in = input_dram_bytes(cfg, needed_in, m_tiles);

    let mem = MemCounters {
        dram_input_bytes: dram_in,
        dram_output_bytes: outputs,
        dram_weight_bytes: pw.weight_bytes,
        dram_index_bytes: pw.index_bytes,
        input_gb_read_bytes: gb_in_read,
        input_gb_write_bytes: dram_in,
        output_gb_read_bytes: 0,
        output_gb_write_bytes: outputs,
        weight_gb_read_bytes: pw.weight_bytes + pw.index_bytes,
        weight_gb_write_bytes: pw.weight_bytes + pw.index_bytes,
        rf_bytes: rebuild + pw.basis_bytes * m_tiles,
    };
    let ops = OpCounters {
        pe_lane_cycles: if cfg.bit_serial { pe_busy } else { 0 },
        macs: if cfg.bit_serial { 0 } else { pe_busy },
        accumulator_adds: acc_adds,
        rebuild_shift_adds: rebuild,
        index_compares,
        idle_lane_cycles: 0,
    };
    Ok(finish(cfg, desc.name(), compute, mem, ops))
}

/// Depth-wise CONV: with the dedicated design, kernel rows run on parallel
/// PE lines and channels map across slices; without it, one line per
/// channel processes the rows sequentially (Fig. 15 ablation).
fn depthwise_layer(
    cfg: &SeAcceleratorConfig,
    trace: &LayerTrace,
    sched: &Schedule,
) -> Result<LayerResult> {
    let desc = trace.desc();
    let LayerKind::DepthwiseConv2d { channels: c, kernel, stride, padding } = *desc.kind() else {
        unreachable!("dispatch guarantees DepthwiseConv2d");
    };
    let (h, w) = desc.input_hw();
    let e_out = sched.e_out;
    let r = kernel;
    let s = kernel;

    let pw = match weight_form(trace)? {
        Some(layer) => prepare_se(layer),
        None => prepare_dense(c, r, s),
    };

    let q = trace.input();
    let mode = serial_mode(cfg);
    let sc = window::serial_counts(q, mode);
    let act_nz = window::activation_row_nonzero(q);

    let dim_m = cfg.dim_m;
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    let e_scale = sched.e_scale;
    // Per-kernel-row cycles of one channel, reset per channel.
    let mut row_times = vec![0u64; r];
    for ei in 0..sched.e_rows.len() {
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
                        if cfg.index_select {
                            index_compares += 1;
                        }
                        let act_live = act_nz[ci * h + iy];
                        let coeff_live = pw.row_nnz(ci, kr) > 0;
                        if cfg.index_select && (!act_live || !coeff_live) {
                            continue;
                        }
                        let row_sc = &sc[(ci * h + iy) * w..(ci * h + iy + 1) * w];
                        let mut cycles = 0u64;
                        let mut energy = 0u64;
                        for si in 0..s {
                            let start = (f0 * stride + si) as isize - padding as isize;
                            cycles += step_cost(window::window_max(row_sc, start, stride, nf));
                            energy += u64::from(window::window_sum(row_sc, start, stride, nf));
                        }
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

    compute = scale_u64(compute, e_scale);
    pe_busy = scale_u64(pe_busy, e_scale);
    acc_adds = scale_u64(acc_adds, e_scale);
    gb_in_read = scale_u64(gb_in_read, e_scale);
    index_compares = scale_u64(index_compares, e_scale);

    let mut rebuild: u64 = 0;
    if pw.is_se {
        rebuild = pw.total_nnz * s as u64 * e_out as u64;
    }
    let outputs = sched.outputs;
    let needed_in: u64 =
        (0..c * h).filter(|&row| !cfg.index_select || act_nz[row]).count() as u64 * w as u64;
    let dram_in = input_dram_bytes(cfg, needed_in, sched.m_tiles);

    let mem = MemCounters {
        dram_input_bytes: dram_in,
        dram_output_bytes: outputs,
        dram_weight_bytes: pw.weight_bytes,
        dram_index_bytes: pw.index_bytes,
        input_gb_read_bytes: gb_in_read,
        input_gb_write_bytes: dram_in,
        output_gb_read_bytes: 0,
        output_gb_write_bytes: outputs,
        weight_gb_read_bytes: pw.weight_bytes + pw.index_bytes,
        weight_gb_write_bytes: pw.weight_bytes + pw.index_bytes,
        rf_bytes: rebuild + pw.basis_bytes,
    };
    let ops = OpCounters {
        pe_lane_cycles: if cfg.bit_serial { pe_busy } else { 0 },
        macs: if cfg.bit_serial { 0 } else { pe_busy },
        accumulator_adds: acc_adds,
        rebuild_shift_adds: rebuild,
        index_compares,
        idle_lane_cycles: 0,
    };
    Ok(finish(cfg, desc.name(), compute, mem, ops))
}

/// Work (serial cycles) for one output neuron of an FC matrix given its
/// prepared weights and the flat activation serial counts.
fn fc_neuron_work(
    cfg: &SeAcceleratorConfig,
    pw: &PreparedWeights,
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
            cycles += step_cost(x);
            energy += u64::from(x);
        }
        adds += seg.len() as u64;
    }
    (cycles, energy, adds)
}

/// FC path: output neurons distributed over slices × lines (× 2 clusters
/// with the dedicated compact-model design).
fn fc_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<LayerResult> {
    let desc = trace.desc();
    let LayerKind::Linear { in_features: c, out_features: m } = *desc.kind() else {
        unreachable!("dispatch guarantees Linear");
    };
    let (pw, group) = match weight_form(trace)? {
        Some(layer) => {
            let SeLayout::FcPerRow { width, .. } = *layer.layout() else {
                return Err(HwError::UnsupportedTrace {
                    reason: format!("layer {}: FC expects FcPerRow SE layout", desc.name()),
                });
            };
            (prepare_se(layer), width)
        }
        None => (prepare_dense(m, c, 1), 1),
    };

    let q = trace.input();
    let mode = serial_mode(cfg);
    let sc = window::serial_counts(q, mode);
    let (compute, mem, ops) = fc_engine(cfg, &pw, group, &sc, m, c)?;
    Ok(finish(cfg, desc.name(), compute, mem, ops))
}

/// Shared FC cycle/memory engine (used by both FC and squeeze-excite).
fn fc_engine(
    cfg: &SeAcceleratorConfig,
    pw: &PreparedWeights,
    group: usize,
    sc: &[u8],
    m: usize,
    c: usize,
) -> Result<(u64, MemCounters, OpCounters)> {
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

    let input_bytes = c as u64;
    let mem = MemCounters {
        dram_input_bytes: input_bytes,
        dram_output_bytes: m as u64,
        dram_weight_bytes: pw.weight_bytes,
        dram_index_bytes: pw.index_bytes,
        input_gb_read_bytes: input_bytes * (m as u64).div_ceil(units as u64).max(1),
        input_gb_write_bytes: input_bytes,
        output_gb_read_bytes: 0,
        output_gb_write_bytes: m as u64,
        weight_gb_read_bytes: pw.weight_bytes + pw.index_bytes,
        weight_gb_write_bytes: pw.weight_bytes + pw.index_bytes,
        rf_bytes: rebuild + pw.basis_bytes,
    };
    let ops = OpCounters {
        pe_lane_cycles: if cfg.bit_serial { pe_busy } else { 0 },
        macs: if cfg.bit_serial { 0 } else { pe_busy },
        accumulator_adds: acc_adds,
        rebuild_shift_adds: rebuild,
        index_compares,
        idle_lane_cycles: 0,
    };
    Ok((compute, mem, ops))
}

/// Squeeze-and-excite: global pool, two FC matrices (executed on the FC
/// engine), and the channel-wise rescale of the feature map.
fn squeeze_excite_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<LayerResult> {
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
                prepare_se(&parts[0]),
                prepare_se(&parts[1]),
                g,
                QuantTensor::quantize(&se_tensor::Tensor::from_vec(y, &[reduced])?, 8)?,
            )
        }
        WeightData::Dense(_) => {
            let ones = se_tensor::Tensor::full(&[reduced], 1.0);
            (
                prepare_dense(reduced, channels, 1),
                prepare_dense(channels, reduced, 1),
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
    let sc1 = window::serial_counts(&pooled_q, mode);
    let (cy1, mem1, ops1) = fc_engine(cfg, &squeeze_pw, group, &sc1, reduced, channels)?;
    let sc2 = window::serial_counts(&fc1_out, mode);
    let (cy2, mem2, ops2) = fc_engine(cfg, &excite_pw, group, &sc2, channels, reduced)?;

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
    Ok(finish(cfg, desc.name(), compute, mem, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::{layer as se_layer, SeConfig, VectorSparsity};
    use se_ir::{LayerDesc, QuantTensor};
    use se_tensor::rng;

    fn conv_desc(c: usize, m: usize, k: usize, stride: usize, pad: usize, hw: usize) -> LayerDesc {
        LayerDesc::new(
            "conv",
            LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: k, stride, padding: pad },
            (hw, hw),
        )
    }

    fn quant_act(c: usize, hw: usize, seed: u64, sparsity: f32) -> QuantTensor {
        let mut r = rng::seeded(seed);
        let t = rng::normal_tensor(&mut r, &[c, hw, hw], 1.0).map(|v| {
            if v.abs() < sparsity {
                0.0
            } else {
                v.abs()
            }
        });
        QuantTensor::quantize(&t, 8).unwrap()
    }

    fn se_trace(c: usize, m: usize, hw: usize, keep: f32, seed: u64) -> LayerTrace {
        let desc = conv_desc(c, m, 3, 1, 1, hw);
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[m, c, 3, 3], c * 9);
        let cfg = SeConfig::default()
            .with_max_iterations(4)
            .unwrap()
            .with_vector_sparsity(VectorSparsity::KeepFraction(keep))
            .unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        LayerTrace::new(desc, WeightData::Se(parts), quant_act(c, hw, seed + 1, 0.4)).unwrap()
    }

    fn dense_trace(c: usize, m: usize, hw: usize, seed: u64) -> LayerTrace {
        let desc = conv_desc(c, m, 3, 1, 1, hw);
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[m, c, 3, 3], c * 9);
        let qw = QuantTensor::quantize(&w, 8).unwrap();
        LayerTrace::new(desc, WeightData::Dense(qw), quant_act(c, hw, seed + 1, 0.4)).unwrap()
    }

    fn accel() -> SeAccelerator {
        SeAccelerator::new(SeAcceleratorConfig::default()).unwrap()
    }

    #[test]
    fn conv_layer_produces_sane_counts() {
        let t = se_trace(4, 8, 8, 1.0, 1);
        let r = accel().process_layer(&t).unwrap();
        assert!(r.compute_cycles > 0);
        assert!(r.total_cycles >= r.compute_cycles);
        assert!(r.mem.dram_weight_bytes > 0);
        assert!(r.ops.rebuild_shift_adds > 0);
        assert!(r.ops.pe_lane_cycles > 0);
    }

    #[test]
    fn sparser_weights_run_faster_and_fetch_less() {
        let dense = accel().process_layer(&se_trace(8, 16, 16, 1.0, 2)).unwrap();
        let sparse = accel().process_layer(&se_trace(8, 16, 16, 0.3, 2)).unwrap();
        assert!(
            sparse.compute_cycles < dense.compute_cycles,
            "{} !< {}",
            sparse.compute_cycles,
            dense.compute_cycles
        );
        assert!(sparse.mem.dram_weight_bytes < dense.mem.dram_weight_bytes);
    }

    #[test]
    fn index_select_reduces_cycles() {
        let t = se_trace(8, 16, 16, 0.3, 3);
        let with = accel().process_layer(&t).unwrap();
        let cfg = SeAcceleratorConfig { index_select: false, ..Default::default() };
        let without = SeAccelerator::new(cfg).unwrap().process_layer(&t).unwrap();
        assert!(with.compute_cycles < without.compute_cycles);
        assert!(with.mem.dram_input_bytes <= without.mem.dram_input_bytes);
    }

    #[test]
    fn bit_serial_exploits_bit_sparsity() {
        let t = se_trace(8, 16, 16, 1.0, 4);
        let serial = accel().process_layer(&t).unwrap();
        let cfg = SeAcceleratorConfig { bit_serial: false, ..Default::default() };
        let parallel = SeAccelerator::new(cfg).unwrap().process_layer(&t).unwrap();
        // Booth digits of small activations are < 4, so bit-serial beats
        // one-cycle-per-multiply only when counting equivalent lanes; what
        // must hold unconditionally: the serial PE does fewer lane-cycles
        // than 8 per multiply.
        assert!(serial.ops.pe_lane_cycles > 0);
        assert_eq!(parallel.ops.pe_lane_cycles, 0);
        assert!(parallel.ops.macs > 0);
    }

    #[test]
    fn dense_weight_path_works() {
        let t = dense_trace(4, 8, 8, 5);
        let r = accel().process_layer(&t).unwrap();
        assert_eq!(r.ops.rebuild_shift_adds, 0);
        assert_eq!(r.mem.dram_index_bytes, 0);
        assert_eq!(r.mem.dram_weight_bytes, 8 * 4 * 9);
    }

    #[test]
    fn se_weights_shrink_dram_weight_traffic() {
        let se = accel().process_layer(&se_trace(8, 16, 16, 0.5, 6)).unwrap();
        let dn = accel().process_layer(&dense_trace(8, 16, 16, 6)).unwrap();
        assert!(
            se.mem.dram_weight_bytes < dn.mem.dram_weight_bytes,
            "{} !< {}",
            se.mem.dram_weight_bytes,
            dn.mem.dram_weight_bytes
        );
    }

    #[test]
    fn pointwise_layer_runs() {
        let desc = LayerDesc::new(
            "pw",
            LayerKind::Conv2d { in_channels: 9, out_channels: 8, kernel: 1, stride: 1, padding: 0 },
            (8, 8),
        );
        let mut r = rng::seeded(7);
        let w = rng::kaiming_tensor(&mut r, &[8, 9, 1, 1], 9);
        let cfg = SeConfig::default().with_max_iterations(4).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        let t = LayerTrace::new(desc, WeightData::Se(parts), quant_act(9, 8, 8, 0.3)).unwrap();
        let res = accel().process_layer(&t).unwrap();
        assert!(res.compute_cycles > 0);
        assert!(res.ops.rebuild_shift_adds > 0);
    }

    #[test]
    fn depthwise_dedicated_design_is_faster() {
        let desc = LayerDesc::new(
            "dw",
            LayerKind::DepthwiseConv2d { channels: 16, kernel: 3, stride: 1, padding: 1 },
            (16, 16),
        );
        let mut r = rng::seeded(9);
        let w = rng::kaiming_tensor(&mut r, &[16, 3, 3], 9);
        let cfg = SeConfig::default().with_max_iterations(4).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        let t = LayerTrace::new(desc, WeightData::Se(parts), quant_act(16, 16, 10, 0.3)).unwrap();
        let ded = accel().process_layer(&t).unwrap();
        let cfg2 = SeAcceleratorConfig { compact_dedicated: false, ..Default::default() };
        let plain = SeAccelerator::new(cfg2).unwrap().process_layer(&t).unwrap();
        assert!(
            ded.compute_cycles < plain.compute_cycles,
            "{} !< {}",
            ded.compute_cycles,
            plain.compute_cycles
        );
        // Idle-lane coupling: the slower mapping also burns more energy.
        let em = crate::EnergyModel::default();
        let c = SeAcceleratorConfig::default();
        assert!(ded.energy(&em, &c).total() < plain.energy(&em, &c).total());
    }

    #[test]
    fn depthwise_kernels_taller_than_16_rows_simulate() {
        // Regression: the per-row scratch was a fixed 16 entries, so a
        // 17x17 depthwise kernel (a `.setrace` can carry one) indexed out
        // of bounds in release builds.
        let desc = LayerDesc::new(
            "dw17",
            LayerKind::DepthwiseConv2d { channels: 2, kernel: 17, stride: 1, padding: 8 },
            (20, 20),
        );
        let w = rng::kaiming_tensor(&mut rng::seeded(21), &[2, 17, 17], 17 * 17);
        let qw = QuantTensor::quantize(&w, 8).unwrap();
        let t = LayerTrace::new(desc, WeightData::Dense(qw), quant_act(2, 20, 22, 0.3)).unwrap();
        for compact_dedicated in [true, false] {
            let cfg = SeAcceleratorConfig { compact_dedicated, ..Default::default() };
            let res = SeAccelerator::new(cfg).unwrap().process_layer(&t).unwrap();
            assert!(res.compute_cycles > 0, "compact_dedicated = {compact_dedicated}");
        }
    }

    #[test]
    fn fc_layer_runs_and_uses_cluster_mode() {
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 96, out_features: 32 }, (1, 1));
        let mut r = rng::seeded(11);
        let w = rng::kaiming_tensor(&mut r, &[32, 96], 96);
        let cfg = SeConfig::default().with_max_iterations(4).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        let act = {
            let t = rng::normal_tensor(&mut rng::seeded(12), &[96], 1.0).map(f32::abs);
            QuantTensor::quantize(&t, 8).unwrap()
        };
        let t = LayerTrace::new(desc, WeightData::Se(parts), act).unwrap();
        let res = accel().process_layer(&t).unwrap();
        assert!(res.compute_cycles > 0);
        assert!(res.mem.dram_weight_bytes > 0);
    }

    #[test]
    fn squeeze_excite_layer_runs() {
        let desc =
            LayerDesc::new("se", LayerKind::SqueezeExcite { channels: 16, reduced: 4 }, (8, 8));
        let mut r = rng::seeded(13);
        let w = rng::kaiming_tensor(&mut r, &[2, 16, 4], 16);
        let cfg = SeConfig::default().with_max_iterations(4).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        let t = LayerTrace::new(desc, WeightData::Se(parts), quant_act(16, 8, 14, 0.3)).unwrap();
        let res = accel().process_layer(&t).unwrap();
        assert!(res.compute_cycles > 0);
        assert!(res.ops.macs >= (16 * 8 * 8) as u64); // rescale multiplies
    }

    #[test]
    fn strided_and_padded_conv_runs() {
        let desc = conv_desc(3, 8, 3, 2, 1, 9);
        let mut r = rng::seeded(15);
        let w = rng::kaiming_tensor(&mut r, &[8, 3, 3, 3], 27);
        let cfg = SeConfig::default().with_max_iterations(3).unwrap();
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        let t = LayerTrace::new(desc, WeightData::Se(parts), quant_act(3, 9, 16, 0.2)).unwrap();
        let res = accel().process_layer(&t).unwrap();
        assert!(res.compute_cycles > 0);
    }

    #[test]
    fn results_are_deterministic() {
        let t = se_trace(4, 8, 8, 0.5, 17);
        let a = accel().process_layer(&t).unwrap();
        let b = accel().process_layer(&t).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_geometries_share_one_schedule() {
        // A configuration no other test uses, so the process-wide memo
        // starts cold for it. Two layers with the same shape but different
        // data and one distinct shape: the repeats share one schedule, and
        // every cache-hit result is bit-identical to a cold build.
        let cfg = SeAcceleratorConfig { row_sample: 3, ..Default::default() };
        let accel = SeAccelerator::new(cfg.clone()).unwrap();
        let traces =
            [se_trace(4, 8, 8, 0.5, 21), se_trace(4, 8, 8, 0.7, 22), se_trace(8, 16, 16, 0.5, 23)];
        let warm: Vec<_> = traces.iter().map(|t| accel.process_layer(t).unwrap()).collect();
        let sched = |t: &LayerTrace| accel.schedule_for(t.desc()).unwrap();
        assert!(Arc::ptr_eq(&sched(&traces[0]), &sched(&traces[1])), "repeats reuse the schedule");
        assert!(!Arc::ptr_eq(&sched(&traces[0]), &sched(&traces[2])));
        for (t, w) in traces.iter().zip(&warm) {
            let cold = Schedule::build(t.desc(), &cfg).unwrap();
            assert_eq!(
                &conv_layer(&cfg, t, &cold).unwrap(),
                w,
                "cache hit differs from cold build"
            );
        }
    }

    #[test]
    fn instances_with_one_config_share_the_process_wide_memo() {
        // Separately constructed accelerators with one configuration (a
        // value no other test uses) hand out the same schedule; a
        // different configuration never shares an entry.
        let cfg = SeAcceleratorConfig { row_sample: 5, ..Default::default() };
        let t = se_trace(4, 8, 8, 0.5, 31);
        let a = SeAccelerator::new(cfg.clone()).unwrap().schedule_for(t.desc()).unwrap();
        let b = SeAccelerator::new(cfg).unwrap().schedule_for(t.desc()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let other = SeAcceleratorConfig { row_sample: 6, ..Default::default() };
        let c = SeAccelerator::new(other).unwrap().schedule_for(t.desc()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn amortized_layer_charges_weight_side_and_rebuild_once() {
        let t = se_trace(8, 16, 16, 0.5, 19);
        let a = accel();
        let one = a.process_layer(&t).unwrap();
        let four = one.amortized_over_batch(4, a.dram_bytes_per_cycle());
        // Weight fetch, basis, and rebuild once per batch.
        assert_eq!(four.mem.dram_weight_bytes, one.mem.dram_weight_bytes);
        assert_eq!(four.mem.dram_index_bytes, one.mem.dram_index_bytes);
        assert_eq!(four.mem.weight_gb_write_bytes, one.mem.weight_gb_write_bytes);
        assert_eq!(four.mem.rf_bytes, one.mem.rf_bytes);
        assert_eq!(four.ops.rebuild_shift_adds, one.ops.rebuild_shift_adds);
        // Activation traffic and compute per image.
        assert_eq!(four.mem.dram_input_bytes, 4 * one.mem.dram_input_bytes);
        assert_eq!(four.mem.dram_output_bytes, 4 * one.mem.dram_output_bytes);
        assert_eq!(four.compute_cycles, 4 * one.compute_cycles);
        // Per-image DRAM traffic strictly drops toward the activation floor.
        assert!(four.mem.dram_total_bytes() < 4 * one.mem.dram_total_bytes());
    }

    #[test]
    fn dram_bound_layers_report_dram_cycles() {
        // Starve the accelerator of DRAM bandwidth.
        let cfg = SeAcceleratorConfig { dram_bytes_per_cycle: 0.001, ..Default::default() };
        let accel = SeAccelerator::new(cfg).unwrap();
        let t = se_trace(4, 8, 8, 1.0, 18);
        let r = accel.process_layer(&t).unwrap();
        assert!(r.dram_cycles > r.compute_cycles);
        assert_eq!(r.total_cycles, r.dram_cycles);
    }
}
