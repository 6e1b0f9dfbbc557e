use crate::{IrError, Po2Set, Result};
use se_tensor::{Mat, Tensor};

/// `Ce` as its [`Po2Set`] codes in row-major order, code `0` being zero:
/// one byte per code for alphabets of at most 8 code bits, two otherwise
/// (the widths a `.setrace` file stores). Every code is valid in its
/// slice's alphabet: codes come from [`SeSlice::new`] or
/// [`CeCodes::from_le_bytes`], which check them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CeCodes {
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

impl CeCodes {
    /// Whether codes of this alphabet fit one byte (they do for every
    /// alphabet up to 8-bit codes, including the paper's 4-bit default).
    pub(crate) fn narrow(po2: &Po2Set) -> bool {
        po2.code_bits() <= 8
    }

    /// Bytes per code of this alphabet.
    pub(crate) fn width(po2: &Po2Set) -> usize {
        if CeCodes::narrow(po2) {
            1
        } else {
            2
        }
    }

    /// Range-checks a run of codes as a file stores them ([`width`] bytes
    /// each, little-endian), then copies it.
    ///
    /// [`width`]: CeCodes::width
    ///
    /// # Errors
    ///
    /// Returns [`Po2Set::decode`]'s [`IrError::InvalidPo2`] for the first
    /// code outside `po2`.
    pub(crate) fn from_le_bytes(run: &[u8], po2: &Po2Set) -> Result<Self> {
        if CeCodes::narrow(po2) {
            check_codes(run, po2)?;
            return Ok(CeCodes::Narrow(run.to_vec()));
        }
        let codes: Vec<u16> =
            run.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect();
        check_codes(&codes, po2)?;
        Ok(CeCodes::Wide(codes))
    }

    fn len(&self) -> usize {
        match self {
            CeCodes::Narrow(c) => c.len(),
            CeCodes::Wide(c) => c.len(),
        }
    }
}

/// One branch-free pass finds the largest code; only a run holding an
/// invalid one is searched for the first offender.
fn check_codes<T: Copy + Into<u16>>(codes: &[T], po2: &Po2Set) -> Result<()> {
    let valid = 2 * po2.count() + 1;
    if u32::from(codes.iter().fold(0, |m: u16, &c| m.max(c.into()))) >= valid {
        if let Some(&bad) = codes.iter().find(|&&c| u32::from(c.into()) >= valid) {
            po2.decode(bad.into())?;
        }
    }
    Ok(())
}

/// Appends the non-zero count of each `cols`-wide row of `codes` to `out`;
/// a constant width unrolls the count (the paper's kernel sides and FC
/// width).
fn extend_row_nnz<T: Copy + Into<u16>>(
    codes: &[T],
    rows: usize,
    cols: usize,
    out: &mut impl Extend<u32>,
) {
    fn nonzeros<T: Copy + Into<u16>>(row: &[T]) -> u32 {
        row.iter().map(|&c| u32::from(c.into() != 0)).sum()
    }
    fn unrolled<T: Copy + Into<u16>, const W: usize>(codes: &[T], out: &mut impl Extend<u32>) {
        out.extend(
            codes
                .chunks_exact(W)
                .map(|row| nonzeros::<T>(<&[T; W]>::try_from(row).expect("chunks are W wide"))),
        );
    }
    match cols {
        0 => out.extend(std::iter::repeat_n(0, rows)),
        3 => unrolled::<T, 3>(codes, out),
        5 => unrolled::<T, 5>(codes, out),
        7 => unrolled::<T, 7>(codes, out),
        cols => out.extend(codes.chunks_exact(cols).map(nonzeros)),
    }
}

/// Counts the rows holding a non-zero, as an [`Extend`] sink of per-row
/// counts, so a count allocates nothing.
#[derive(Default)]
struct LiveRows(usize);

impl Extend<u32> for LiveRows {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, counts: I) {
        self.0 += counts.into_iter().map(|n| usize::from(n > 0)).sum::<usize>();
    }
}

fn shape_mismatch(rows: usize, cols: usize, basis: &Mat) -> IrError {
    IrError::LayoutMismatch {
        reason: format!("Ce is {rows}x{cols} but basis is {}x{}", basis.rows(), basis.cols()),
    }
}

/// One decomposed unit: a sparse power-of-2 coefficient matrix `Ce`
/// (`rows × r`) and its small basis matrix `B` (`r × n`), with
/// `W_slice ≈ Ce · B` (Eq. 1 of the paper).
///
/// `Ce` is held as its codes in the slice's [`Po2Set`] plus its shape, as
/// the accelerator stores it; [`SeSlice::ce_values`] expands it for the
/// consumers that need values.
///
/// Invariant: every code is valid in the slice's alphabet — enforced at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SeSlice {
    rows: usize,
    cols: usize,
    po2: Po2Set,
    codes: CeCodes,
    basis: Mat,
}

impl SeSlice {
    /// Creates a slice, validating shapes and the power-of-2 invariant,
    /// and converts `ce` to codes once (`-0.0` becomes code 0, zero).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if `ce.cols() != basis.rows()`,
    /// or [`IrError::InvalidPo2`] if any `ce` entry is not in `po2`.
    pub fn new(ce: Mat, basis: Mat, po2: &Po2Set) -> Result<Self> {
        if ce.cols() != basis.rows() {
            return Err(shape_mismatch(ce.rows(), ce.cols(), &basis));
        }
        // One branch-free pass (it vectorizes); the first offender is looked
        // for only once the pass has failed.
        if !ce.data().iter().fold(true, |all, &v| all & po2.contains(v)) {
            if let Some(i) = ce.data().iter().position(|&v| !po2.contains(v)) {
                let v = ce.data()[i];
                return Err(IrError::InvalidPo2 {
                    reason: format!("Ce element {i} = {v} is not in Ω_P"),
                });
            }
        }
        let codes = if CeCodes::narrow(po2) {
            CeCodes::Narrow(ce.data().iter().map(|&v| po2.member_code(v) as u8).collect())
        } else {
            CeCodes::Wide(ce.data().iter().map(|&v| po2.member_code(v)).collect())
        };
        Ok(SeSlice { rows: ce.rows(), cols: ce.cols(), po2: *po2, codes, basis })
    }

    /// Creates a slice from `Ce` codes of `po2` (as
    /// [`CeCodes::from_le_bytes`] reads them), validating the shapes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if the code count is not
    /// `rows × cols` or `cols != basis.rows()`.
    pub(crate) fn from_codes(
        rows: usize,
        cols: usize,
        codes: CeCodes,
        basis: Mat,
        po2: Po2Set,
    ) -> Result<Self> {
        if cols != basis.rows() || Some(codes.len()) != rows.checked_mul(cols) {
            return Err(shape_mismatch(rows, cols, &basis));
        }
        Ok(SeSlice { rows, cols, po2, codes, basis })
    }

    /// Rows of `Ce`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of `Ce` (the rank `r`, the rows of `B`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The power-of-2 alphabet the codes index.
    pub fn po2(&self) -> &Po2Set {
        &self.po2
    }

    /// The `Ce` codes in row-major order.
    pub(crate) fn codes(&self) -> &CeCodes {
        &self.codes
    }

    /// The coefficient matrix `Ce`, decoded from its codes (every zero
    /// reads `+0.0`).
    pub fn ce_values(&self) -> Mat {
        let decode = |c: u16| self.po2.decode(c).expect("codes are validated at construction");
        let data = match &self.codes {
            CeCodes::Narrow(c) => c.iter().map(|&c| decode(c.into())).collect(),
            CeCodes::Wide(c) => c.iter().map(|&c| decode(c)).collect(),
        };
        Mat::from_vec(data, self.rows, self.cols).expect("shape validated at construction")
    }

    /// The basis matrix `B`.
    pub fn basis(&self) -> &Mat {
        &self.basis
    }

    /// Rebuilds the dense slice `Ce · B`.
    pub fn reconstruct(&self) -> Mat {
        self.ce_values().matmul(&self.basis).expect("shapes validated at construction")
    }

    /// Appends the non-zero count of each `Ce` row, in order, to `out`.
    pub(crate) fn extend_row_nnz(&self, out: &mut impl Extend<u32>) {
        match &self.codes {
            CeCodes::Narrow(c) => extend_row_nnz(c, self.rows, self.cols, out),
            CeCodes::Wide(c) => extend_row_nnz(c, self.rows, self.cols, out),
        }
    }

    /// Per-row mask: `true` where the `Ce` row has at least one non-zero.
    ///
    /// This is exactly the 1-bit direct index the accelerator stores to skip
    /// zero weight vectors (Section IV-B, "Coefficient matrix indexing").
    pub fn row_nonzero_mask(&self) -> Vec<bool> {
        let mut counts = Vec::with_capacity(self.rows);
        self.extend_row_nnz(&mut counts);
        counts.into_iter().map(|n| n > 0).collect()
    }

    /// Number of rows with at least one non-zero coefficient.
    pub fn nonzero_rows(&self) -> usize {
        let mut live = LiveRows::default();
        self.extend_row_nnz(&mut live);
        live.0
    }

    /// Total non-zero coefficients.
    pub fn nnz(&self) -> usize {
        match &self.codes {
            CeCodes::Narrow(c) => c.iter().map(|&c| usize::from(c != 0)).sum(),
            CeCodes::Wide(c) => c.iter().map(|&c| usize::from(c != 0)).sum(),
        }
    }

    /// Total number of shift-and-add operations needed to rebuild this
    /// slice's weights (one per non-zero coefficient per basis column).
    pub fn rebuild_ops(&self) -> u64 {
        self.nnz() as u64 * self.basis.cols() as u64
    }
}

/// How a sequence of [`SeSlice`]s maps back onto a layer's weight tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeLayout {
    /// CONV with `R = S = kernel > 1` (Section III-C, Case 1): each of the
    /// `out_channels` filters is reshaped to a `(in_channels·kernel) × kernel`
    /// matrix and decomposed independently, possibly split into
    /// `slices_per_filter` consecutive row chunks.
    ConvPerFilter {
        /// Output channels (`M`).
        out_channels: usize,
        /// Input channels (`C`); `1` for depth-wise CONV.
        in_channels: usize,
        /// Kernel side (`R = S`).
        kernel: usize,
        /// Row chunks per filter.
        slices_per_filter: usize,
    },
    /// FC layers and 1×1 CONV (Section III-C, Case 2): each of the
    /// `out_features` weight rows (length `in_features`, zero-padded to a
    /// multiple of `width`) is reshaped to `(padded/width) × width` and
    /// decomposed, possibly split into `slices_per_row` row chunks.
    FcPerRow {
        /// Output features / output channels (`M`).
        out_features: usize,
        /// Input features / input channels (`C`).
        in_features: usize,
        /// Reshape width (`S`).
        width: usize,
        /// Row chunks per reshaped row-matrix.
        slices_per_row: usize,
    },
}

impl SeLayout {
    /// Number of slices the layout expects.
    pub fn expected_slices(&self) -> usize {
        match *self {
            SeLayout::ConvPerFilter { out_channels, slices_per_filter, .. } => {
                out_channels * slices_per_filter
            }
            SeLayout::FcPerRow { out_features, slices_per_row, .. } => {
                out_features * slices_per_row
            }
        }
    }

    /// Rows of the full reshaped matrix per decomposition unit
    /// (filter or FC row).
    pub fn rows_per_unit(&self) -> usize {
        match *self {
            SeLayout::ConvPerFilter { in_channels, kernel, .. } => in_channels * kernel,
            SeLayout::FcPerRow { in_features, width, .. } => in_features.div_ceil(width),
        }
    }
}

/// A layer's weights in SmartExchange form: an ordered list of slices plus
/// the layout that maps them back to the dense weight tensor.
///
/// # Examples
///
/// Rebuilding a 1-filter 3×3 CONV layer from its SE form:
///
/// ```
/// use se_ir::{Po2Set, SeLayer, SeLayout, SeSlice};
/// use se_tensor::Mat;
///
/// # fn main() -> Result<(), se_ir::IrError> {
/// let po2 = Po2Set::default();
/// let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.5, 0.0], &[0.0, 0.0, 0.25]])?;
/// let basis = Mat::identity(3);
/// let slice = SeSlice::new(ce, basis, &po2)?;
/// let layer = SeLayer::new(
///     SeLayout::ConvPerFilter { out_channels: 1, in_channels: 1, kernel: 3, slices_per_filter: 1 },
///     po2,
///     vec![slice],
/// )?;
/// let w = layer.reconstruct_weights()?;
/// assert_eq!(w.shape(), &[1, 1, 3, 3]);
/// assert_eq!(w.at(&[0, 0, 1, 1]), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeLayer {
    layout: SeLayout,
    po2: Po2Set,
    slices: Vec<SeSlice>,
}

impl SeLayer {
    /// Creates a compressed layer, validating the slice inventory against
    /// the layout.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if the layout has a zero FC
    /// width or zero slices per unit, the slice count differs from the
    /// layout's expectation, or the per-unit row counts do not add up, and
    /// [`IrError::InvalidPo2`] if a slice is coded in another alphabet.
    pub fn new(layout: SeLayout, po2: Po2Set, slices: Vec<SeSlice>) -> Result<Self> {
        let (per_unit, width) = match layout {
            SeLayout::ConvPerFilter { slices_per_filter, .. } => (slices_per_filter, 1),
            SeLayout::FcPerRow { slices_per_row, width, .. } => (slices_per_row, width),
        };
        if per_unit == 0 || width == 0 {
            return Err(IrError::LayoutMismatch {
                reason: format!("{layout:?} has a zero width or slices-per-unit count"),
            });
        }
        if slices.len() != layout.expected_slices() {
            return Err(IrError::LayoutMismatch {
                reason: format!(
                    "layout expects {} slices, found {}",
                    layout.expected_slices(),
                    slices.len()
                ),
            });
        }
        if let Some(i) = slices.iter().position(|s| s.po2 != po2) {
            return Err(IrError::InvalidPo2 {
                reason: format!("slice {i} is coded in {:?}, the layer in {po2:?}", slices[i].po2),
            });
        }
        let rows_per_unit = layout.rows_per_unit();
        for unit in slices.chunks(per_unit) {
            let rows: usize = unit.iter().map(SeSlice::rows).sum();
            if rows != rows_per_unit {
                return Err(IrError::LayoutMismatch {
                    reason: format!("unit rows {rows} do not match layout's {rows_per_unit}"),
                });
            }
        }
        Ok(SeLayer { layout, po2, slices })
    }

    /// The layout mapping slices to the weight tensor.
    pub fn layout(&self) -> &SeLayout {
        &self.layout
    }

    /// The power-of-2 alphabet the coefficients use.
    pub fn po2(&self) -> &Po2Set {
        &self.po2
    }

    /// The decomposed slices in layout order.
    pub fn slices(&self) -> &[SeSlice] {
        &self.slices
    }

    /// Rebuilds the dense weight tensor (`(M, C, R, S)` for CONV layouts,
    /// `(M, C)` for FC layouts).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Tensor`] if an internal reshape fails (cannot
    /// happen for layouts validated at construction).
    pub fn reconstruct_weights(&self) -> Result<Tensor> {
        match self.layout {
            SeLayout::ConvPerFilter { out_channels, in_channels, kernel, slices_per_filter } => {
                let mut data = Vec::with_capacity(out_channels * in_channels * kernel * kernel);
                for unit in self.slices.chunks(slices_per_filter) {
                    for slice in unit {
                        data.extend_from_slice(slice.reconstruct().data());
                    }
                }
                Ok(Tensor::from_vec(data, &[out_channels, in_channels, kernel, kernel])?)
            }
            SeLayout::FcPerRow { out_features, in_features, width, slices_per_row } => {
                let padded = in_features.div_ceil(width) * width;
                let mut data = Vec::with_capacity(out_features * in_features);
                for unit in self.slices.chunks(slices_per_row) {
                    let mut row = Vec::with_capacity(padded);
                    for slice in unit {
                        row.extend_from_slice(slice.reconstruct().data());
                    }
                    row.truncate(in_features);
                    data.extend_from_slice(&row);
                }
                Ok(Tensor::from_vec(data, &[out_features, in_features])?)
            }
        }
    }

    /// Total non-zero coefficients across slices.
    pub fn nnz(&self) -> usize {
        self.slices.iter().map(SeSlice::nnz).sum()
    }

    /// Total `Ce` rows across slices.
    pub fn total_rows(&self) -> usize {
        self.slices.iter().map(SeSlice::rows).sum()
    }

    /// Total rows with at least one non-zero (the rows the accelerator
    /// actually fetches and computes on).
    pub fn total_nonzero_rows(&self) -> usize {
        self.slices.iter().map(SeSlice::nonzero_rows).sum()
    }

    /// Vector-wise sparsity: fraction of all-zero `Ce` rows, in `[0, 1]`.
    pub fn vector_sparsity(&self) -> f32 {
        let total = self.total_rows();
        if total == 0 {
            return 0.0;
        }
        (total - self.total_nonzero_rows()) as f32 / total as f32
    }

    /// Total shift-and-add operations to rebuild all weights once.
    pub fn rebuild_ops(&self) -> u64 {
        self.slices.iter().map(SeSlice::rebuild_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn po2() -> Po2Set {
        Po2Set::default()
    }

    fn slice(rows: usize, diag: f32) -> SeSlice {
        let mut ce = Mat::zeros(rows, 3);
        for i in 0..rows.min(3) {
            ce.set(i, i, diag);
        }
        SeSlice::new(ce, Mat::identity(3), &po2()).unwrap()
    }

    #[test]
    fn slice_rejects_non_po2() {
        let ce = Mat::from_rows(&[&[0.3, 0.0, 0.0]]).unwrap();
        assert!(matches!(
            SeSlice::new(ce, Mat::identity(3), &po2()),
            Err(IrError::InvalidPo2 { .. })
        ));
    }

    #[test]
    fn slice_names_the_first_non_member() {
        // Members (0, ±1, 2^-6) surround three non-members: 2.0 (above
        // max_exp) is the first, then a NaN and 0.3.
        let ce = Mat::from_rows(&[&[0.0, -1.0, 0.015_625], &[2.0, f32::NAN, 0.3]]).unwrap();
        assert_eq!(
            SeSlice::new(ce, Mat::identity(3), &po2()).unwrap_err(),
            IrError::InvalidPo2 { reason: "Ce element 3 = 2 is not in Ω_P".into() }
        );
        let mut ce = Mat::zeros(64, 3);
        ce.set(50, 2, 2.0f32.powi(-7));
        let err = SeSlice::new(ce, Mat::identity(3), &po2()).unwrap_err();
        assert!(err.to_string().contains("Ce element 152 = 0.0078125 is not"), "{err}");
    }

    #[test]
    fn slice_rejects_shape_mismatch() {
        let ce = Mat::zeros(4, 2);
        assert!(matches!(
            SeSlice::new(ce, Mat::identity(3), &po2()),
            Err(IrError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn slice_row_stats() {
        let ce = Mat::from_rows(&[&[0.5, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.25, -0.5, 0.0]]).unwrap();
        let s = SeSlice::new(ce, Mat::identity(3), &po2()).unwrap();
        assert_eq!(s.row_nonzero_mask(), vec![true, false, true]);
        assert_eq!(s.nonzero_rows(), 2);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.rebuild_ops(), 9);
    }

    #[test]
    fn negative_zero_is_code_zero_and_decodes_to_positive_zero() {
        let slice = |x: f32| {
            SeSlice::new(Mat::from_rows(&[&[x, 0.5, 0.0]]).unwrap(), Mat::identity(3), &po2())
        };
        let s = slice(-0.0).unwrap();
        assert_eq!(s.codes(), &CeCodes::Narrow(vec![0, 3, 0]));
        assert_eq!(s.ce_values().get(0, 0).to_bits(), 0.0f32.to_bits());
        assert_eq!(s, slice(0.0).unwrap());
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn layer_rejects_a_slice_coded_in_another_alphabet() {
        let other = Po2Set::new(3, 7).unwrap();
        let s = SeSlice::new(Mat::identity(3), Mat::identity(3), &other).unwrap();
        let layout = SeLayout::ConvPerFilter {
            out_channels: 1,
            in_channels: 1,
            kernel: 3,
            slices_per_filter: 1,
        };
        let err = SeLayer::new(layout, po2(), vec![s]).unwrap_err();
        assert!(matches!(err, IrError::InvalidPo2 { .. }), "{err}");
    }

    #[test]
    fn conv_layer_reconstruction() {
        // 2 filters, C=1, 3x3 kernel; each filter one slice of 3 rows.
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 2,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0), slice(3, 0.5)],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[2, 1, 3, 3]);
        assert_eq!(w.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(w.at(&[1, 0, 1, 1]), 0.5);
        assert_eq!(w.at(&[1, 0, 0, 1]), 0.0);
    }

    #[test]
    fn fc_layer_reconstruction_with_padding() {
        // 1 output row, 7 inputs, width 3 -> padded to 9, 3x3 reshaped.
        let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let basis = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f32 / 8.0);
        let s = SeSlice::new(ce, basis.clone(), &po2()).unwrap();
        let layer = SeLayer::new(
            SeLayout::FcPerRow { out_features: 1, in_features: 7, width: 3, slices_per_row: 1 },
            po2(),
            vec![s],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[1, 7]);
        // Identity Ce means the row is just the basis flattened, truncated to 7.
        assert_eq!(w.at(&[0, 4]), basis.get(1, 1));
    }

    #[test]
    fn layer_validates_slice_count() {
        let r = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 2,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0)],
        );
        assert!(matches!(r, Err(IrError::LayoutMismatch { .. })));
    }

    #[test]
    fn layer_rejects_zero_width_and_zero_slices_per_unit() {
        let fc = |width, slices_per_row| SeLayout::FcPerRow {
            out_features: 1,
            in_features: 3,
            width,
            slices_per_row,
        };
        let conv = SeLayout::ConvPerFilter {
            out_channels: 0,
            in_channels: 1,
            kernel: 3,
            slices_per_filter: 0,
        };
        for layout in [fc(0, 1), fc(3, 0), conv] {
            let slices = if layout.expected_slices() == 0 { vec![] } else { vec![slice(1, 1.0)] };
            let r = SeLayer::new(layout, po2(), slices);
            assert!(matches!(r, Err(IrError::LayoutMismatch { .. })), "{layout:?}");
        }
    }

    #[test]
    fn layer_validates_row_totals() {
        let r = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 2,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0)], // needs 6 rows
        );
        assert!(matches!(r, Err(IrError::LayoutMismatch { .. })));
    }

    #[test]
    fn vector_sparsity_aggregation() {
        let ce = Mat::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]).unwrap();
        let s = SeSlice::new(ce, Mat::identity(3), &po2()).unwrap();
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![s],
        )
        .unwrap();
        assert!((layer.vector_sparsity() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(layer.total_nonzero_rows(), 1);
    }

    #[test]
    fn multi_slice_filters() {
        // One filter with C=2, kernel=3 (6 rows) split into two 3-row slices.
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 2,
                kernel: 3,
                slices_per_filter: 2,
            },
            po2(),
            vec![slice(3, 1.0), slice(3, 0.25)],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[1, 2, 3, 3]);
        assert_eq!(w.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(w.at(&[0, 1, 0, 0]), 0.25);
    }
}
