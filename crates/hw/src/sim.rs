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
//! # Schedule
//!
//! The data-independent skeleton of a spatial layer pass — which output
//! rows are sampled under `row_sample`, the input row each kernel row
//! reads, the `(f0, nf)` output-pixel groups, and the memory-model
//! constants (output-channel tile count, output-element volume, the
//! partial-sum spill target of weight chunking) — is a `Schedule` (private
//! to this module), a pure function of the layer geometry and the
//! configuration fields [`crate::schedule::ScheduleKey::for_config`]
//! lists. `process_layer` builds one per spatial layer: building costs
//! O(E·R + F) against the pass itself, and a process-wide memo of it
//! measured no faster (see [`crate::schedule`]).
//!
//! # Cost of a pass
//!
//! A pass costs what the layer's non-zero work costs, not `M × C·R` per
//! pixel group. The weights are scanned once
//! ([`se_ir::storage::row_nnz`], which also yields the storage and index
//! bits) into each filter's list of *active* rows (rows holding a
//! non-zero) and a per-row count of the filters holding one. Every count
//! is an integer sum or maximum, so the pass reorders them freely:
//!
//! - **Activation side**, O(sampled input rows × taps × F): only the input
//!   rows some sampled output row reads are converted to serial counts,
//!   zero-padded so that every tap window is a plain slice. A row's
//!   switching work over all its windows is one weighted sum
//!   ([`crate::window::window_sum`]); its cycles are one window maximum
//!   per (tap, pixel group).
//! - **Weight side**, O(sampled output rows × active rows), the *active-row
//!   walk*: per-row work counters (PE work, accumulations) are multiplied
//!   by the row's filter count instead of being added per filter, and a
//!   slice's pooled time is summed over its active rows only. CONV rows
//!   are processed or skipped for a whole output row, so their cycles are
//!   totalled over the pixel groups first and each filter is walked once
//!   per output row; 1×1 CONV walks per pixel group (line tiles are
//!   closed per group), over per-(filter, line tile) bounds found once per
//!   layer. A tile's slowest slice is `max(ceil(most work / dimC),
//!   longest row)`, one division per tile.
//! - Without the index selector (static line ownership, the Bit-pragmatic
//!   configuration) every filter pays the same line times, so the weight
//!   side is O(rows), independent of `M`.
//!
//! `flat_reference` (a test module) keeps the flat per-(filter, row,
//! pixel group) loops as an oracle for a property test over random
//! geometries and configurations.

use crate::window::{self, SerialMode};
use crate::{
    Accelerator, HwError, LayerResult, MemCounters, OpCounters, Result, SeAcceleratorConfig,
};
use se_ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, SeLayer, SeLayout, WeightData};

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
}

impl Accelerator for SeAccelerator {
    fn name(&self) -> &str {
        "SmartExchange"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.cfg.dram_bytes_per_cycle
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        let (cfg, desc) = (&self.cfg, trace.desc());
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
}

/// Compute cycles, memory counters and operation counters of one layer
/// pass (idle lanes not yet charged).
type Pass = (u64, MemCounters, OpCounters);

/// The data-independent skeleton of one simulator pass over a spatial
/// (CONV / 1×1 CONV / depth-wise) layer: everything derivable from the
/// layer geometry and the accelerator configuration alone.
#[derive(Debug, Clone, PartialEq)]
struct Schedule {
    /// Output rows simulated under `row_sample`.
    e_rows: usize,
    /// Factor scaling sampled totals back to the full layer.
    e_scale: f64,
    /// Kernel rows tracked per output row (`R` for CONV/depth-wise, 1 for
    /// 1×1 CONV).
    r: usize,
    /// `row_iy[ei * r + kr]`: the input row kernel row `kr` reads at
    /// sampled output row `ei`, or `None` for pure padding rows.
    row_iy: Vec<Option<usize>>,
    /// Output-pixel groups `(f0, nf)` with `nf <= eff_f`.
    f_groups: Vec<(usize, usize)>,
    /// Convolution stride and zero padding.
    stride: usize,
    padding: usize,
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
        let row_step = cfg.row_sample.max(1);
        let e_rows = e_out.div_ceil(row_step);
        let e_scale = if e_rows == 0 { 1.0 } else { e_out as f64 / e_rows as f64 };
        let mut row_iy = Vec::with_capacity(e_rows * r);
        for e in (0..e_out).step_by(row_step) {
            for kr in 0..r {
                let iy = (e * stride + kr) as isize - padding as isize;
                row_iy.push(if iy < 0 || iy as usize >= h { None } else { Some(iy as usize) });
            }
        }
        let f_groups = (0..f_out).step_by(eff_f).map(|f0| (f0, eff_f.min(f_out - f0))).collect();
        let outputs = (out_units * e_out * f_out) as u64;
        let tile_psums = (cfg.dim_m as u64) * 2 * outputs.div_ceil(cfg.dim_m as u64).max(1);
        let psum_to_gb =
            (tile_psums as f64) <= cfg.output_gb_banks as f64 * cfg.output_gb_bank_kb * 1024.0;
        Ok(Schedule {
            e_rows,
            e_scale,
            r,
            row_iy,
            f_groups,
            stride,
            padding,
            e_out,
            m_tiles,
            outputs,
            psum_to_gb,
        })
    }

    /// The input row kernel row `kr` reads at sampled output row index
    /// `ei`, or `None` for pure padding rows.
    #[inline]
    fn input_row(&self, ei: usize, kr: usize) -> Option<usize> {
        self.row_iy[ei * self.r + kr]
    }

    /// `v` scaled from the sampled output rows to the full layer.
    fn scale(&self, v: u64) -> u64 {
        if self.e_scale == 1.0 {
            v
        } else {
            (v as f64 * self.e_scale).round() as u64
        }
    }
}

/// Weight information normalised for the cycle model.
struct PreparedWeights {
    /// Filters (output channels, or output neurons of an FC matrix).
    filters: usize,
    /// Coefficient rows per filter.
    rows_per_filter: usize,
    /// The rows holding a non-zero coefficient, ascending, filter after
    /// filter: filter `f` owns `active[starts[f]..starts[f + 1]]`. Dense
    /// weights keep one list of every row, shared by all filters, and no
    /// `starts`.
    active: Vec<u32>,
    starts: Vec<usize>,
    /// Per row position: how many filters hold a non-zero there (the
    /// index selector fetches a row's activations when any filter does).
    row_filters: Vec<u32>,
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
    /// The rows of `filter` holding a non-zero, ascending.
    #[inline]
    fn active_rows(&self, filter: usize) -> &[u32] {
        if self.is_se {
            &self.active[self.starts[filter]..self.starts[filter + 1]]
        } else {
            &self.active
        }
    }

    /// The (filter, row) pairs holding a non-zero.
    fn active_pairs(&self) -> u64 {
        if self.is_se {
            self.active.len() as u64
        } else {
            (self.filters * self.active.len()) as u64
        }
    }

    /// Filters per row that the pass charges: those holding a non-zero
    /// there with the index selector, every filter without it.
    #[inline]
    fn charged_filters(&self, cfg: &SeAcceleratorConfig, row: usize) -> u64 {
        if cfg.index_select {
            u64::from(self.row_filters[row])
        } else {
            self.filters as u64
        }
    }
}

/// Builds [`PreparedWeights`] from an SE layer whose layout units map to
/// "filters" (works for both `ConvPerFilter` and `FcPerRow`), from one scan
/// of its coefficients ([`se_ir::storage::row_nnz`]).
fn prepare_se(layer: &SeLayer) -> PreparedWeights {
    let filters = match *layer.layout() {
        SeLayout::ConvPerFilter { out_channels, .. } => out_channels,
        SeLayout::FcPerRow { out_features, .. } => out_features,
    };
    let rows_per_filter = layer.layout().rows_per_unit();
    let nnz = se_ir::storage::row_nnz(layer);
    let s = se_ir::storage::storage_from_row_nnz(layer, &nnz);
    // Compacted without a data-dependent branch: every row is written,
    // and the end advances past the rows holding a non-zero.
    let mut active = vec![0u32; nnz.len()];
    let mut starts = Vec::with_capacity(filters + 1);
    let mut row_filters = vec![0u32; rows_per_filter];
    let mut end = 0;
    starts.push(0);
    for f in 0..filters {
        let unit = &nnz[f * rows_per_filter..(f + 1) * rows_per_filter];
        for ((row, &n), count) in unit.iter().enumerate().zip(row_filters.iter_mut()) {
            active[end] = row as u32;
            end += usize::from(n > 0);
            *count += u32::from(n > 0);
        }
        starts.push(end);
    }
    active.truncate(end);
    PreparedWeights {
        filters,
        rows_per_filter,
        active,
        starts,
        row_filters,
        weight_bytes: (s.ce_bits + s.basis_bits).div_ceil(8),
        index_bytes: s.index_bits.div_ceil(8),
        basis_bytes: s.basis_bits.div_ceil(8),
        total_nnz: nnz.iter().map(|&n| u64::from(n)).sum(),
        is_se: true,
    }
}

/// Dense weights presented through the accelerator's original-weight path
/// (MUX1 path ③): no sparsity metadata, every row processed.
fn prepare_dense(filters: usize, rows_per_filter: usize, row_len: usize) -> PreparedWeights {
    PreparedWeights {
        filters,
        rows_per_filter,
        active: (0..rows_per_filter as u32).collect(),
        starts: Vec::new(),
        row_filters: vec![filters as u32; rows_per_filter],
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
/// layout for this path, and hold one unit per filter; dense weights are
/// `filters × rows` rows of `row_len`, one input per row position.
fn prepare_weights(
    trace: &LayerTrace,
    layout: impl FnOnce(&SeLayout) -> std::result::Result<usize, String>,
    (filters, rows, row_len): (usize, usize, usize),
) -> Result<(PreparedWeights, usize)> {
    let name = trace.desc().name();
    match trace.weights() {
        WeightData::Se(parts) if parts.len() == 1 => {
            let group = layout(parts[0].layout()).map_err(|reason| HwError::UnsupportedTrace {
                reason: format!("layer {name}: {reason}"),
            })?;
            let pw = prepare_se(&parts[0]);
            if pw.filters != filters {
                return Err(HwError::UnsupportedTrace {
                    reason: format!("layer {name}: SE units {} do not match {filters}", pw.filters),
                });
            }
            Ok((pw, group))
        }
        WeightData::Se(parts) => Err(HwError::UnsupportedTrace {
            reason: format!("layer {name} carries {} SE parts where 1 is expected", parts.len()),
        }),
        WeightData::Dense(_) => Ok((prepare_dense(filters, rows, row_len), 1)),
    }
}

/// The layout check of the FC-style paths: `FcPerRow`, whose row width is
/// the input group of one coefficient row.
fn fc_width(path: &str) -> impl FnOnce(&SeLayout) -> std::result::Result<usize, String> + '_ {
    move |layout| match *layout {
        SeLayout::FcPerRow { width, .. } => Ok(width),
        SeLayout::ConvPerFilter { .. } => Err(format!("{path} expects FcPerRow SE layout")),
    }
}

fn serial_mode(cfg: &SeAcceleratorConfig) -> SerialMode {
    match (cfg.bit_serial, cfg.booth_encoder) {
        (true, true) => SerialMode::Booth,
        (true, false) => SerialMode::PlainBits,
        (false, _) => SerialMode::Unit,
    }
}

/// The serial counts of the input rows a spatial pass reads (those some
/// sampled output row's kernel rows land on), each zero-padded so that
/// every tap window of the pass lies inside it: `padding` zero codes in
/// front, and enough behind for the last pixel group's last tap. A padding
/// lane costs nothing, as zero padding does on the hardware. Rows no
/// sampled output row reads are never converted.
struct InputRows {
    counts: Vec<u8>,
    pitch: usize,
    /// Per input row `y`: its slot among a channel's converted rows.
    slot: Vec<usize>,
    /// Converted rows per channel.
    per_channel: usize,
    /// Per padded column: how many lanes read it over one weight row's
    /// taps and every pixel group.
    reads: Vec<u32>,
}

impl InputRows {
    /// The rows of `trace`'s `c`-channel input for a pass of `steps` taps
    /// per weight row.
    fn new(
        cfg: &SeAcceleratorConfig,
        trace: &LayerTrace,
        sched: &Schedule,
        c: usize,
        steps: usize,
    ) -> Self {
        let (h, w) = trace.desc().input_hw();
        let (stride, padding) = (sched.stride, sched.padding);
        let f_out = sched.f_groups.last().map_or(0, |&(f0, nf)| f0 + nf);
        let reach = f_out.saturating_sub(1) * stride + steps;
        let pitch = (w + 2 * padding).max(reach).max(1);
        let mut reads = vec![0u32; pitch];
        for &(f0, nf) in &sched.f_groups {
            for si in 0..steps {
                for lane in 0..nf {
                    reads[(f0 + lane) * stride + si] += 1;
                }
            }
        }
        let mut slot = vec![usize::MAX; h];
        for &iy in sched.row_iy.iter().flatten() {
            slot[iy] = 0;
        }
        let read: Vec<usize> = (0..h).filter(|&iy| slot[iy] == 0).collect();
        for (i, &iy) in read.iter().enumerate() {
            slot[iy] = i;
        }
        let table = serial_mode(cfg).table();
        let mut counts = vec![0u8; c * read.len() * pitch];
        for (ci, rows) in counts.chunks_exact_mut((read.len() * pitch).max(1)).enumerate() {
            for (dst, &iy) in rows.chunks_exact_mut(pitch).zip(&read) {
                let src = &trace.input().data()[(ci * h + iy) * w..][..w];
                for (d, &code) in dst[padding..padding + w].iter_mut().zip(src) {
                    *d = table[usize::from(code as u8)];
                }
            }
        }
        InputRows { counts, pitch, slot, per_channel: read.len(), reads }
    }

    /// Input row `iy` of channel `ci`, padding included.
    #[inline]
    fn row(&self, ci: usize, iy: usize) -> &[u8] {
        &self.counts[(ci * self.per_channel + self.slot[iy]) * self.pitch..][..self.pitch]
    }

    /// The switching work of one weight row over input row `iy` of channel
    /// `ci`: every lane's serial count, summed over the taps and pixel
    /// groups (a column counts once per lane that reads it).
    fn work(&self, ci: usize, iy: usize) -> u64 {
        window::window_sum(self.row(ci, iy), &self.reads)
    }
}

/// Cycles of one weight row of `steps` taps over the `nf` output pixels of
/// the pixel group at padded column `row[0]` (`row` starts at the group's
/// first tap): lanes run in lockstep, so a tap costs its window's slowest
/// lane, and a fully-zero window still costs one issue cycle.
#[inline]
fn tap_cycles(row: &[u8], nf: usize, stride: usize, steps: usize) -> u64 {
    (0..steps).map(|si| u64::from(window::window_max(&row[si..], stride, nf).max(1))).sum()
}

/// Input bytes a spatial pass fetches from DRAM: the `w`-byte rows of the
/// channels `needed` keeps (of `c` channels of `h` rows), without the zero
/// rows the index selector skips.
fn needed_input_bytes(
    cfg: &SeAcceleratorConfig,
    act_nz: &[bool],
    (c, h, w): (usize, usize, usize),
    needed: impl Fn(usize) -> bool,
) -> u64 {
    let live = (0..c)
        .filter(|&ci| needed(ci))
        .flat_map(|ci| &act_nz[ci * h..(ci + 1) * h])
        .filter(|&&nz| !cfg.index_select || nz)
        .count();
    live as u64 * w as u64
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
/// spilled between passes. Returns the spill bytes, which go to the output
/// GB when a slice tile's partial sums fit (`Schedule::psum_to_gb`), else
/// to DRAM.
fn weight_chunking(cfg: &SeAcceleratorConfig, per_filter_bytes: u64, sched: &Schedule) -> u64 {
    let buf = (cfg.weight_buf_banks as f64 * cfg.weight_buf_bank_kb * 1024.0) as u64;
    let chunks = per_filter_bytes.div_ceil(buf.max(1)).max(1);
    // 16-bit partial sums, written and re-read once per extra chunk.
    2 * (chunks - 1) * sched.outputs * 2
}

/// The memory counters of a pass that fetches its weights once and reads
/// them from the buffer once: `needed_in` input bytes staged through the
/// input GB (see [`input_dram_bytes`]) and `gb_in_read` bytes read from
/// it, `outputs` written once, and the basis loaded into the RE register
/// files once per output-channel tile next to the `rebuild` traffic.
fn pass_mem(
    cfg: &SeAcceleratorConfig,
    pw: &PreparedWeights,
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

/// The operation counters of a pass whose PE work is `pe_busy`: bit-serial
/// lane-cycles on the serial datapath, full multiplies otherwise.
fn pass_ops(
    cfg: &SeAcceleratorConfig,
    pe_busy: u64,
    accumulator_adds: u64,
    rebuild_shift_adds: u64,
    index_compares: u64,
) -> OpCounters {
    let (pe_lane_cycles, macs) = if cfg.bit_serial { (pe_busy, 0) } else { (0, pe_busy) };
    OpCounters {
        pe_lane_cycles,
        macs,
        accumulator_adds,
        rebuild_shift_adds,
        index_compares,
        idle_lane_cycles: 0,
    }
}

/// Standard CONV path (`R = S > 1`).
fn conv_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace, sched: &Schedule) -> Result<Pass> {
    let desc = trace.desc();
    let LayerKind::Conv2d { in_channels: c, out_channels: m, kernel, stride, .. } = *desc.kind()
    else {
        unreachable!("dispatch guarantees Conv2d");
    };
    let (h, w) = desc.input_hw();
    let e_out = sched.e_out;
    let r = kernel;
    let s = kernel;

    let (pw, _) = prepare_weights(
        trace,
        |layout| match layout.rows_per_unit() {
            rows if rows == c * r => Ok(1),
            rows => Err(format!("SE rows {rows} do not match C*R = {}", c * r)),
        },
        (m, c * r, s),
    )?;
    let input = InputRows::new(cfg, trace, sched, c, s);
    let act_nz = window::activation_row_nonzero(trace.input());

    let (dim_m, dim_c) = (cfg.dim_m, cfg.dim_c);
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Which rows are processed depends on the output row alone, not on the
    // pixel group, so each (channel, kernel-row) pair is costed over all
    // groups at once: the index selector dispatches (coefficient row, pixel
    // group) pairs from the layer-wide index to whichever PE line is free,
    // so a slice's work pools across both the groups and the channels of
    // the output row, and its longest single item bounds it from below.
    let groups = sched.f_groups.len() as u64;
    // Input bytes and MAC lanes of one row over every pixel group.
    let seg_bytes: u64 = sched.f_groups.iter().map(|&(_, nf)| ((nf - 1) * stride + s) as u64).sum();
    let lanes = (s * sched.f_groups.iter().map(|&(_, nf)| nf).sum::<usize>()) as u64;
    // Per (channel, kernel row) of one output row: cycles summed over the
    // pixel groups and the longest group, both zero where not processed.
    let mut t_sum = vec![0u64; c * r];
    let mut t_max = vec![0u64; c * r];
    let mut line_total = vec![0u64; c];
    for ei in 0..sched.e_rows {
        t_sum.fill(0);
        t_max.fill(0);
        line_total.fill(0);
        for (ci, line) in line_total.iter_mut().enumerate() {
            for kr in 0..r {
                let idx = ci * r + kr;
                // Pure padding row: no hardware iterates it.
                let Some(iy) = sched.input_row(ei, kr) else {
                    continue;
                };
                let row = ci * h + iy;
                // Index selector: zero activation rows are skipped for
                // every filter; one compare per considered row and group.
                if cfg.index_select {
                    index_compares += groups;
                    if !act_nz[row] {
                        continue;
                    }
                }
                let input_row = input.row(ci, iy);
                for &(f0, nf) in &sched.f_groups {
                    let cycles = tap_cycles(&input_row[f0 * stride..], nf, stride, s);
                    t_sum[idx] += cycles;
                    t_max[idx] = t_max[idx].max(cycles);
                }
                // Shared activation fetches: a row segment is read once per
                // group if any filter needs it; each filter with a non-zero
                // there (every filter without the selector) pays the work.
                if !cfg.index_select || pw.row_filters[idx] > 0 {
                    gb_in_read += seg_bytes;
                }
                let filters = pw.charged_filters(cfg, idx);
                pe_busy += input.work(ci, iy) * filters;
                acc_adds += lanes * filters;
                if cfg.index_select {
                    index_compares += groups * m as u64;
                } else {
                    *line += t_sum[idx];
                }
            }
        }
        // Close the output row: slices (filters) run in parallel within an
        // m-tile; m-tiles are sequential passes.
        if cfg.index_select {
            // A slice takes `max(ceil(work / dim_c), longest item)`; the
            // rounding is monotone, so the tile's maxima are taken first.
            for m0 in (0..m).step_by(dim_m) {
                let (mut most_work, mut longest) = (0u64, 0u64);
                for fi in m0..(m0 + dim_m).min(m) {
                    let mut work = 0u64;
                    for &idx in pw.active_rows(fi) {
                        work += t_sum[idx as usize];
                        longest = longest.max(t_max[idx as usize]);
                    }
                    most_work = most_work.max(work);
                }
                compute += most_work.div_ceil(dim_c as u64).max(longest);
            }
        } else {
            // Static line ownership: every filter pays the same line times
            // (no per-filter skipping hardware).
            for lines in line_total.chunks(dim_c) {
                compute += lines.iter().copied().max().unwrap_or(0) * sched.m_tiles;
            }
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    // Rebuild engine: active coefficient rows are rebuilt once per output
    // row (the rebuilt row stays registered across the f0 tiles).
    let (rebuild, active_row_codes) = if pw.is_se {
        (pw.total_nnz * (s * e_out) as u64, pw.active_pairs() * (s * e_out) as u64)
    } else {
        (0, 0)
    };

    // Needed input rows: non-zero rows of channels any filter uses.
    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |ci| {
        !cfg.index_select || (0..r).any(|kr| pw.row_filters[ci * r + kr] > 0)
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
    let mem = pass_mem(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
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
    let LayerKind::Conv2d { in_channels: c, out_channels: m, stride, .. } = *desc.kind() else {
        unreachable!("dispatch guarantees Conv2d");
    };
    let (h, w) = desc.input_hw();

    let (pw, group) = prepare_weights(trace, fc_width("1x1 CONV"), (m, c, 1))?;
    let groups = pw.rows_per_filter;
    let input = InputRows::new(cfg, trace, sched, c, 1);
    let act_nz = window::activation_row_nonzero(trace.input());

    let (dim_m, dim_c) = (cfg.dim_m, cfg.dim_c);
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Cycles of each coefficient row's input group at each pixel group of
    // one output row (`groups` per pixel group), zero where the index
    // selector skips the group.
    let mut t_rows = vec![0u64; sched.f_groups.len() * groups];
    // Per line tile (`dim_c` groups) of an m-tile: the most work and the
    // longest row any slice pools there.
    let tiles = groups.div_ceil(dim_c);
    let mut tile_work = vec![0u64; tiles];
    let mut tile_longest = tile_work.clone();
    // Per (filter, line tile): the end of the tile's rows in the filter's
    // active list.
    let mut tile_ends = Vec::with_capacity(if cfg.index_select { m * tiles } else { 0 });
    if cfg.index_select {
        for fi in 0..m {
            let rows = pw.active_rows(fi);
            tile_ends.extend(
                (1..=tiles).map(|t| {
                    rows.partition_point(|&g| (g as usize) < t.saturating_mul(dim_c)) as u32
                }),
            );
        }
    }
    // Input bytes one input group reads and MAC lanes one input channel
    // drives, over every pixel group.
    let seg_bytes: u64 =
        sched.f_groups.iter().map(|&(_, nf)| (((nf - 1) * stride + 1) * group) as u64).sum();
    let lanes: u64 = sched.f_groups.iter().map(|&(_, nf)| nf as u64).sum();
    let pixel_groups = sched.f_groups.len() as u64;
    let channels = |g: usize| g * group..((g + 1) * group).min(c);
    let mut live = vec![false; groups];
    for ei in 0..sched.e_rows {
        let Some(iy) = sched.input_row(ei, 0) else {
            continue;
        };
        t_rows.fill(0);
        // Which input groups the index selector keeps (one compare per
        // group and pixel group, and per filter of a kept one), and the
        // switching work they cost, depend on the output row alone.
        for (g, live) in live.iter_mut().enumerate() {
            *live = !cfg.index_select || channels(g).any(|ci| act_nz[ci * h + iy]);
            if cfg.index_select {
                index_compares += pixel_groups * if *live { 1 + m as u64 } else { 1 };
            }
            if !*live {
                continue;
            }
            if !cfg.index_select || pw.row_filters[g] > 0 {
                gb_in_read += seg_bytes;
            }
            let filters = pw.charged_filters(cfg, g);
            acc_adds += channels(g).len() as u64 * lanes * filters;
            for ci in channels(g) {
                pe_busy += input.work(ci, iy) * filters;
                let row = input.row(ci, iy);
                for (t_row, &(f0, nf)) in t_rows.chunks_exact_mut(groups).zip(&sched.f_groups) {
                    t_row[g] += tap_cycles(&row[f0 * stride..], nf, stride, 1);
                }
            }
        }
        for t_row in t_rows.chunks_exact(groups.max(1)) {
            if cfg.index_select {
                // A slice finishes a line tile with its busiest line or its
                // longest row, so the tile's slowest slice takes
                // `max(ceil(most work / dim_c), longest row)`: the rounding
                // is monotone, so the maxima can be taken first.
                for m0 in (0..m).step_by(dim_m) {
                    tile_work.fill(0);
                    tile_longest.fill(0);
                    for fi in m0..(m0 + dim_m).min(m) {
                        let (rows, ends) = (pw.active_rows(fi), &tile_ends[fi * tiles..]);
                        pool_rows(rows, ends, t_row, &mut tile_work, &mut tile_longest);
                    }
                    let times = tile_work.iter().zip(&tile_longest);
                    compute += times.map(|(&w, &l)| w.div_ceil(dim_c as u64).max(l)).sum::<u64>();
                }
            } else {
                // Static line ownership: every filter of every m-tile pays
                // the same line times.
                let lines: u64 =
                    t_row.chunks(dim_c).map(|t| t.iter().copied().max().unwrap_or(0)).sum();
                compute += lines * m.div_ceil(dim_m) as u64;
            }
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    let rebuild = if pw.is_se { pw.total_nnz * (group * sched.e_out) as u64 } else { 0 };
    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |_| true);
    let mem = pass_mem(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
    Ok((compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares)))
}

/// Pools one slice's `active` rows per line tile, tile `t` holding
/// `active[ends[t - 1]..ends[t]]`: the tile's summed cycles `t_row` and its
/// longest row raise the tile's `work` and `longest` maxima (a skipped row
/// adds nothing).
fn pool_rows(active: &[u32], ends: &[u32], t_row: &[u64], work: &mut [u64], longest: &mut [u64]) {
    let mut lo = 0;
    for ((&end, work), longest) in ends.iter().zip(work).zip(longest) {
        let (mut sum, mut max) = (0u64, 0u64);
        for &g in &active[lo..end as usize] {
            sum += t_row[g as usize];
            max = max.max(t_row[g as usize]);
        }
        lo = end as usize;
        *work = (*work).max(sum);
        *longest = (*longest).max(max);
    }
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
    let LayerKind::DepthwiseConv2d { channels: c, kernel, stride, .. } = *desc.kind() else {
        unreachable!("dispatch guarantees DepthwiseConv2d");
    };
    let (h, w) = desc.input_hw();
    let r = kernel;
    let s = kernel;

    let (pw, _) = prepare_weights(
        trace,
        |layout| match layout.rows_per_unit() {
            rows if rows == r => Ok(1),
            rows => Err(format!("SE rows {rows} do not match R = {r}")),
        },
        (c, r, s),
    )?;
    let input = InputRows::new(cfg, trace, sched, c, s);
    let act_nz = window::activation_row_nonzero(trace.input());

    let dim_m = cfg.dim_m;
    let mut compute: u64 = 0;
    let mut pe_busy: u64 = 0;
    let mut acc_adds: u64 = 0;
    let mut gb_in_read: u64 = 0;
    let mut index_compares: u64 = 0;

    // Input bytes and MAC lanes of one kernel row over every pixel group.
    let seg_bytes: u64 = sched.f_groups.iter().map(|&(_, nf)| ((nf - 1) * stride + s) as u64).sum();
    let lanes = (s * sched.f_groups.iter().map(|&(_, nf)| nf).sum::<usize>()) as u64;
    // Per pixel group: one channel's time, and the slowest channel of the
    // channel tile.
    let mut channel_time = vec![0u64; sched.f_groups.len()];
    let mut tile_max = channel_time.clone();
    let all_rows: Vec<u32> = (0..r as u32).collect();
    for ei in 0..sched.e_rows {
        if cfg.index_select {
            // One compare per (channel, kernel row with an input row, group).
            let rows_in = (0..r).filter(|&kr| sched.input_row(ei, kr).is_some()).count();
            index_compares += (rows_in * c * sched.f_groups.len()) as u64;
        }
        for c0 in (0..c).step_by(dim_m) {
            tile_max.fill(0);
            for ci in c0..(c0 + dim_m).min(c) {
                channel_time.fill(0);
                // The selector skips zero coefficient rows outright.
                let kernel_rows = if cfg.index_select { pw.active_rows(ci) } else { &all_rows };
                for &kr in kernel_rows {
                    let Some(iy) = sched.input_row(ei, kr as usize) else {
                        continue;
                    };
                    if cfg.index_select && !act_nz[ci * h + iy] {
                        continue;
                    }
                    let input_row = input.row(ci, iy);
                    for (&(f0, nf), time) in sched.f_groups.iter().zip(&mut channel_time) {
                        let cycles = tap_cycles(&input_row[f0 * stride..], nf, stride, s);
                        *time = if cfg.compact_dedicated {
                            // Kernel rows on parallel PE lines.
                            (*time).max(cycles)
                        } else {
                            // Single line processes rows back-to-back.
                            *time + cycles
                        };
                    }
                    pe_busy += input.work(ci, iy);
                    acc_adds += lanes;
                    gb_in_read += seg_bytes;
                }
                for (slowest, &time) in tile_max.iter_mut().zip(&channel_time) {
                    *slowest = (*slowest).max(time);
                }
            }
            compute += tile_max.iter().sum::<u64>();
        }
    }
    let [compute, pe_busy, acc_adds, gb_in_read, index_compares] =
        [compute, pe_busy, acc_adds, gb_in_read, index_compares].map(|v| sched.scale(v));

    let rebuild = if pw.is_se { pw.total_nnz * s as u64 * sched.e_out as u64 } else { 0 };
    let needed_in = needed_input_bytes(cfg, &act_nz, (c, h, w), |_| true);
    let mem = pass_mem(cfg, &pw, needed_in, sched.m_tiles, gb_in_read, sched.outputs, rebuild);
    Ok((compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares)))
}

/// FC path: output neurons distributed over slices × lines (× 2 clusters
/// with the dedicated compact-model design).
fn fc_layer(cfg: &SeAcceleratorConfig, trace: &LayerTrace) -> Result<Pass> {
    let LayerKind::Linear { in_features: c, out_features: m } = *trace.desc().kind() else {
        unreachable!("dispatch guarantees Linear");
    };
    let (pw, group) = prepare_weights(trace, fc_width("FC"), (m, c, 1))?;
    let sc = window::serial_counts(trace.input(), serial_mode(cfg));
    Ok(fc_engine(cfg, &pw, group, &sc, m, c))
}

/// Shared FC cycle/memory engine (used by both FC and squeeze-excite).
///
/// Coefficient row `g` of a neuron covers inputs `[g·group, (g+1)·group)`;
/// the row's serial cycles (a zero input still costs one), switching work
/// and accumulations depend on the inputs alone, so they are summed once
/// per row and each neuron adds up its rows: the rows holding a non-zero,
/// with the index selector (which also skips all-zero input groups), or
/// every row, the same for every neuron, without it.
fn fc_engine(
    cfg: &SeAcceleratorConfig,
    pw: &PreparedWeights,
    group: usize,
    sc: &[u8],
    m: usize,
    c: usize,
) -> Pass {
    let clusters = if cfg.compact_dedicated { 2 } else { 1 };
    let units = cfg.dim_m * cfg.dim_c * clusters;
    let row_work: Vec<[u64; 3]> = (0..pw.rows_per_filter)
        .map(|g| {
            let seg = sc.get(g * group..((g + 1) * group).min(sc.len())).unwrap_or(&[]);
            if cfg.index_select && seg.iter().all(|&x| x == 0) {
                return [0; 3];
            }
            let cycles = seg.iter().map(|&x| u64::from(x.max(1))).sum();
            let energy = seg.iter().map(|&x| u64::from(x)).sum();
            [cycles, energy, seg.len() as u64]
        })
        .collect();
    let every_row = sum_rows(&row_work, 0..pw.rows_per_filter);
    let mut unit_work = vec![0u64; units.max(1)];
    let mut pe_busy = 0u64;
    let mut acc_adds = 0u64;
    for fi in 0..m {
        let [cycles, energy, adds] = if cfg.index_select {
            sum_rows(&row_work, pw.active_rows(fi).iter().map(|&g| g as usize))
        } else {
            every_row
        };
        unit_work[fi % units] += cycles;
        pe_busy += energy;
        acc_adds += adds;
    }
    let index_compares = if cfg.index_select { (m * pw.rows_per_filter) as u64 } else { 0 };
    let compute = unit_work.iter().copied().max().unwrap_or(0);
    let rebuild = if pw.is_se { pw.total_nnz * group as u64 } else { 0 };
    // Every input is read once per round of output neurons over the units.
    let gb_in_read = c as u64 * (m as u64).div_ceil(units as u64).max(1);
    let mem = pass_mem(cfg, pw, c as u64, 1, gb_in_read, m as u64, rebuild);
    (compute, mem, pass_ops(cfg, pe_busy, acc_adds, rebuild, index_compares))
}

/// Element-wise sum of `row_work` over `rows`.
fn sum_rows(row_work: &[[u64; 3]], rows: impl Iterator<Item = usize>) -> [u64; 3] {
    rows.fold([0; 3], |[a, b, c], g| {
        let [x, y, z] = row_work[g];
        [a + x, b + y, c + z]
    })
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
    let (cy1, mem1, ops1) = fc_engine(cfg, &squeeze_pw, group, &sc1, reduced, channels);
    let sc2 = window::serial_counts(&fc1_out, mode);
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

#[cfg(test)]
mod flat_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKey;
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
        // Two layers with one `ScheduleKey` but different names and data
        // build equal schedules: the key lists everything a schedule reads.
        let cfg = SeAcceleratorConfig { row_sample: 3, ..Default::default() };
        let (a, b) = (se_trace(4, 8, 8, 0.5, 21), se_trace(4, 8, 8, 0.7, 22));
        let renamed = LayerDesc::new("conv_repeat", *b.desc().kind(), b.desc().input_hw());
        assert_ne!(a.weights(), b.weights());
        assert_eq!(
            ScheduleKey::for_config(a.desc(), &cfg),
            ScheduleKey::for_config(&renamed, &cfg)
        );
        assert_eq!(
            Schedule::build(a.desc(), &cfg).unwrap(),
            Schedule::build(&renamed, &cfg).unwrap()
        );
        // A distinct shape builds a distinct schedule.
        let other = se_trace(8, 16, 16, 0.5, 23);
        assert_ne!(
            Schedule::build(a.desc(), &cfg).unwrap(),
            Schedule::build(other.desc(), &cfg).unwrap()
        );
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
