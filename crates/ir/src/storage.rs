//! Bit-exact storage accounting and compression-rate math.
//!
//! The paper defines the overall compression rate of a network as the ratio
//! between the bits needed to store the original FP32 weights and the bits
//! needed for the SmartExchange form — *including* the coefficient matrices
//! `Ce`, the basis matrices `B`, and the sparsity-encoding overhead
//! (Section III-C). This module implements that accounting:
//!
//! * `Ce`: only rows with at least one non-zero are stored, at
//!   [`Po2Set::code_bits`](crate::Po2Set::code_bits) bits per element
//!   (4 bits in the default configuration);
//! * index: 1-bit direct indexing with *clustered zeros removed*
//!   (Section IV-B): for CONV layouts, one bit per input channel (the
//!   channel bitmap) plus one bit per row only inside live channels; FC
//!   layouts use a flat bit per row;
//! * `B`: 8 bits per element.
//!
//! The rule has one home: [`row_nnz`] scans the `Ce` codes once, and
//! [`storage_from_row_nnz`] derives the breakdown from those per-row
//! counts. [`se_layer_storage`] is the two in sequence; the accelerator
//! simulator keeps the counts for its index selector as well.

use crate::{SeLayer, SeLayout};

/// Bits per basis-matrix element in the paper's configuration.
pub const BASIS_BITS: u32 = 8;

/// Bits per FP32 weight in the uncompressed baseline.
pub const FP32_BITS: u32 = 32;

/// Storage breakdown of one or more compressed layers, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeStorage {
    /// Bits for the non-zero rows of coefficient matrices.
    pub ce_bits: u64,
    /// Bits for the basis matrices.
    pub basis_bits: u64,
    /// Bits for the vector-sparsity index (1 bit per `Ce` row).
    pub index_bits: u64,
}

impl SeStorage {
    /// Total bits across all components.
    pub fn total_bits(&self) -> u64 {
        self.ce_bits + self.basis_bits + self.index_bits
    }

    /// Accumulates another storage record into this one.
    pub fn accumulate(&mut self, other: &SeStorage) {
        self.ce_bits += other.ce_bits;
        self.basis_bits += other.basis_bits;
        self.index_bits += other.index_bits;
    }

    /// Megabytes of the `Ce` component including the index overhead
    /// (the paper's "Ce (MB)" column groups encoding overhead with `Ce`).
    pub fn ce_megabytes(&self) -> f64 {
        (self.ce_bits + self.index_bits) as f64 / 8.0 / (1024.0 * 1024.0)
    }

    /// Megabytes of the basis component (the paper's "B (MB)" column).
    pub fn basis_megabytes(&self) -> f64 {
        self.basis_bits as f64 / 8.0 / (1024.0 * 1024.0)
    }

    /// Total megabytes (the paper's compressed "Param. (MB)" column).
    pub fn total_megabytes(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / (1024.0 * 1024.0)
    }
}

/// Bits to store `params` dense weights at `bits_per_weight` bits each.
pub fn dense_bits(params: u64, bits_per_weight: u32) -> u64 {
    params * u64::from(bits_per_weight)
}

/// Computes the storage breakdown for one compressed layer.
///
/// # Examples
///
/// ```
/// use se_ir::{storage, Po2Set, SeLayer, SeLayout, SeSlice};
/// use se_tensor::Mat;
///
/// # fn main() -> Result<(), se_ir::IrError> {
/// let po2 = Po2Set::default();
/// // 3-row Ce with 1 zero row; 3x3 basis.
/// let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 0.5, 0.0]])?;
/// let layer = SeLayer::new(
///     SeLayout::ConvPerFilter { out_channels: 1, in_channels: 1, kernel: 3, slices_per_filter: 1 },
///     po2,
///     vec![SeSlice::new(ce, Mat::identity(3), &po2)?],
/// )?;
/// let s = storage::se_layer_storage(&layer);
/// assert_eq!(s.ce_bits, 2 * 3 * 4);   // 2 non-zero rows x 3 coeffs x 4 bits
/// assert_eq!(s.index_bits, 1 + 3);    // channel bitmap + per-row bits
/// assert_eq!(s.basis_bits, 9 * 8);    // 3x3 basis at 8 bits
/// # Ok(())
/// # }
/// ```
pub fn se_layer_storage(layer: &SeLayer) -> SeStorage {
    storage_from_row_nnz(layer, &row_nnz(layer))
}

/// Non-zero coefficients of every `Ce` row of `layer`, slices in layout
/// order: unit `u` (a filter or an FC row) owns the counts
/// `[u * rows_per_unit, (u + 1) * rows_per_unit)`. This is the one scan of
/// the coefficients that [`storage_from_row_nnz`] and the accelerator's
/// index selector both read; it counts non-zero codes.
pub fn row_nnz(layer: &SeLayer) -> Vec<u32> {
    let mut counts = Vec::with_capacity(layer.total_rows());
    for slice in layer.slices() {
        slice.extend_row_nnz(&mut counts);
    }
    counts
}

/// The storage breakdown of `layer` from its per-row non-zero counts (as
/// [`row_nnz`] returns them), in one pass over the counts.
///
/// The index is 1-bit direct indexing with clustered zeros removed
/// (Section IV-B). CONV layouts: per decomposition unit, one bit per input
/// channel (groups of `kernel` rows) plus `kernel` row bits for every
/// channel that still holds a non-zero row — pruned channels cost only
/// their bitmap bit. FC layouts: a flat bit per row.
///
/// # Panics
///
/// Panics if `row_nnz` holds fewer counts than `layer` has `Ce` rows; it
/// must hold exactly one count per row.
pub fn storage_from_row_nnz(layer: &SeLayer, row_nnz: &[u32]) -> SeStorage {
    let code_bits = u64::from(layer.po2().code_bits());
    let mut s = SeStorage::default();
    let mut rest = row_nnz;
    for slice in layer.slices() {
        let (rows, tail) = rest.split_at(slice.rows());
        rest = tail;
        let live = rows.iter().filter(|&&n| n > 0).count() as u64;
        s.ce_bits += live * slice.cols() as u64 * code_bits;
        s.basis_bits +=
            slice.basis().rows() as u64 * slice.basis().cols() as u64 * u64::from(BASIS_BITS);
    }
    s.index_bits = match *layer.layout() {
        SeLayout::FcPerRow { .. } => row_nnz.len() as u64,
        SeLayout::ConvPerFilter { kernel, .. } => row_nnz
            .chunks(layer.layout().rows_per_unit().max(1))
            .flat_map(|unit| unit.chunks(kernel.max(1)))
            .map(|channel| {
                // Channel bitmap bit, plus the per-row bits of a live channel.
                let live = channel.iter().any(|&n| n > 0);
                1 + if live { channel.len() as u64 } else { 0 }
            })
            .sum(),
    };
    s
}

/// Compression rate: original FP32 bits over compressed bits.
///
/// Returns `f64::INFINITY` when the compressed size is zero (degenerate
/// empty layer).
pub fn compression_rate(original_params: u64, compressed: &SeStorage) -> f64 {
    let orig = dense_bits(original_params, FP32_BITS) as f64;
    let comp = compressed.total_bits() as f64;
    if comp == 0.0 {
        f64::INFINITY
    } else {
        orig / comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Po2Set, SeLayout, SeSlice};
    use se_tensor::Mat;

    fn layer_with_rows(rows: &[&[f32]]) -> SeLayer {
        let po2 = Po2Set::default();
        let ce = Mat::from_rows(rows).unwrap();
        let n = ce.rows();
        SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: n / 3,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2,
            vec![SeSlice::new(ce, Mat::identity(3), &po2).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn fully_dense_ce_storage() {
        let l = layer_with_rows(&[&[1.0, 0.5, 0.25], &[0.5, 0.5, 0.5], &[1.0, 1.0, 1.0]]);
        let s = se_layer_storage(&l);
        assert_eq!(s.ce_bits, 3 * 3 * 4);
        assert_eq!(s.index_bits, 4); // 1 channel bit + 3 row bits
        assert_eq!(s.basis_bits, 72);
        assert_eq!(s.total_bits(), 36 + 4 + 72);
    }

    #[test]
    fn zero_rows_are_free_except_index() {
        let l = layer_with_rows(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0]]);
        let s = se_layer_storage(&l);
        assert_eq!(s.ce_bits, 3 * 4);
        assert_eq!(s.index_bits, 4); // the single channel is still live
    }

    #[test]
    fn pruned_channels_cost_only_bitmap_bits() {
        // Two channels (6 rows): channel 0 fully zero, channel 1 live.
        let l = layer_with_rows(&[
            &[0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[0.0, 0.5, 0.0],
        ]);
        let s = se_layer_storage(&l);
        // bitmap: 2 bits; live channel rows: 3 bits.
        assert_eq!(s.index_bits, 2 + 3);
        assert_eq!(s.ce_bits, 2 * 3 * 4);
    }

    #[test]
    fn row_counts_cover_every_slice_and_width() {
        // Two slices of width 3 (the unrolled count) and one of width 4.
        let po2 = Po2Set::default();
        let slice = |rows: &[&[f32]]| {
            let ce = Mat::from_rows(rows).unwrap();
            SeSlice::new(ce.clone(), Mat::identity(ce.cols()), &po2).unwrap()
        };
        let layer = SeLayer::new(
            SeLayout::FcPerRow { out_features: 3, in_features: 6, width: 3, slices_per_row: 1 },
            po2,
            vec![
                slice(&[&[1.0, 0.0, 0.5], &[0.0, 0.0, 0.0]]),
                slice(&[&[0.0, 0.25, 0.0], &[1.0, 1.0, 1.0]]),
                slice(&[&[0.0, 0.0, 0.0, 0.5], &[0.5, 0.5, 0.0, 0.0]]),
            ],
        )
        .unwrap();
        let counts = row_nnz(&layer);
        assert_eq!(counts, vec![2, 0, 1, 3, 1, 2]);
        let s = storage_from_row_nnz(&layer, &counts);
        assert_eq!(s, se_layer_storage(&layer));
        assert_eq!(s.ce_bits, (3 + 3 + 3 + 4 + 4) * 4); // five live rows
        assert_eq!(s.index_bits, 6); // a flat bit per FC row
    }

    #[test]
    fn compression_rate_math() {
        // 9 original FP32 weights = 288 bits.
        let l = layer_with_rows(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]);
        let s = se_layer_storage(&l);
        // 0 ce bits + 1 bitmap bit (dead channel) + 72 basis = 73 bits.
        assert!((compression_rate(9, &s) - 288.0 / 73.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_sums_components() {
        let a = SeStorage { ce_bits: 10, basis_bits: 20, index_bits: 5 };
        let mut b = SeStorage { ce_bits: 1, basis_bits: 2, index_bits: 3 };
        b.accumulate(&a);
        assert_eq!(b, SeStorage { ce_bits: 11, basis_bits: 22, index_bits: 8 });
    }

    #[test]
    fn megabyte_conversions() {
        let s = SeStorage { ce_bits: 8 * 1024 * 1024, basis_bits: 8 * 1024 * 1024, index_bits: 0 };
        assert!((s.ce_megabytes() - 1.0).abs() < 1e-12);
        assert!((s.basis_megabytes() - 1.0).abs() < 1e-12);
        assert!((s.total_megabytes() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_cr_for_empty() {
        assert!(compression_rate(100, &SeStorage::default()).is_infinite());
    }
}
