//! Sparsification primitives: channel-wise and vector-wise (row) pruning of
//! coefficient matrices (Step 3 of Algorithm 1).
//!
//! The paper enforces two granularities simultaneously:
//!
//! * **channel-wise** — whole input channels (groups of `R` consecutive rows
//!   of the reshaped weight matrix) are pruned once, up front, driven by a
//!   per-channel saliency (the paper uses batch-norm scaling factors; with
//!   synthetic weights we use the channel's L2 norm — see DESIGN.md);
//! * **vector-wise** — individual rows (length-`S` weight vectors) are
//!   zeroed by magnitude, which is the structured sparsity the accelerator's
//!   index selector exploits.

use crate::VectorSparsity;
use se_tensor::{by_width, Mat};

/// Root-mean-square of a slice (0 for empty).
fn rms(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / xs.len() as f64).sqrt() as f32
}

/// Applies the vector-wise sparsification policy in place, zeroing whole
/// rows of `ce`. Returns the number of rows that are zero afterwards
/// (including rows that were already zero).
///
/// # Examples
///
/// ```
/// use se_core::{sparsify, VectorSparsity};
/// use se_tensor::Mat;
///
/// let mut ce = Mat::from_rows(&[&[1.0, 1.0], &[0.001, 0.0], &[0.5, 0.5]]).unwrap();
/// let zeroed = sparsify::vector_sparsify(&mut ce, VectorSparsity::Threshold(0.01));
/// assert_eq!(zeroed, 1);
/// assert_eq!(ce.row(1), &[0.0, 0.0]);
/// ```
pub fn vector_sparsify(ce: &mut Mat, policy: VectorSparsity) -> usize {
    let (rows, n) = (ce.rows(), ce.cols());
    match policy {
        VectorSparsity::None => (0..rows).filter(|&i| rms(ce.row(i)) == 0.0).count(),
        VectorSparsity::Threshold(theta) => by_width!(n, n, zero_rows_below(ce, theta)),
        VectorSparsity::KeepFraction(frac) => {
            let keep = (((rows as f64) * f64::from(frac)).round() as usize).min(rows);
            let mut norms: Vec<(usize, f32)> = (0..rows).map(|i| (i, rms(ce.row(i)))).collect();
            // Sort by descending norm; stable on ties so results are
            // deterministic.
            norms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite norms"));
            for &(i, _) in norms.iter().skip(keep) {
                ce.row_mut(i).fill(0.0);
            }
            (0..rows).filter(|&i| ce.row(i).iter().all(|&x| x == 0.0)).count()
        }
        VectorSparsity::RelativeThreshold(frac) => by_width!(n, n, relative_threshold(ce, frac)),
    }
}

/// Rows whose RMS [`block_rms`] computes together, as vector lanes.
const LANES: usize = 8;

/// The RMS of rows `r0..r0 + LANES` of `ce`, each bit-identical to
/// [`rms`] of the row, and whether each row is all zero (its f64 sum of
/// squares is exactly zero). Lanes past the last row read as zero rows.
/// `N` is the row width when non-zero (see [`se_tensor::by_width`]).
#[inline(always)]
fn block_rms<const N: usize>(ce: &Mat, r0: usize) -> ([f32; LANES], [bool; LANES]) {
    let n = if N == 0 { ce.cols() } else { N };
    let rows = &ce.data()[r0 * n..(r0 + LANES).min(ce.rows()) * n];
    let mut sq = [0.0f64; LANES];
    for (acc, row) in sq.iter_mut().zip(rows.chunks_exact(n.max(1))) {
        for &x in row {
            let x = f64::from(x);
            *acc += x * x;
        }
    }
    let rms = sq.map(|s| if n == 0 { 0.0 } else { (s / n as f64).sqrt() as f32 });
    (rms, sq.map(|s| s == 0.0))
}

/// [`VectorSparsity::RelativeThreshold`]: the threshold is `frac ×` the
/// mean RMS of the non-zero rows, summed in row order.
fn relative_threshold<const N: usize>(ce: &mut Mat, frac: f32) -> usize {
    let rows = ce.rows();
    let (mut sum, mut live) = (0.0f32, 0usize);
    for r0 in (0..rows).step_by(LANES) {
        for &n in &block_rms::<N>(ce, r0).0[..LANES.min(rows - r0)] {
            sum += if n > 0.0 { n } else { 0.0 };
            live += usize::from(n > 0.0);
        }
    }
    if live == 0 {
        return rows;
    }
    zero_rows_below::<N>(ce, frac * (sum / live as f32))
}

/// Zeros every row of `ce` whose RMS is below `theta`; returns the number
/// of all-zero rows afterwards.
fn zero_rows_below<const N: usize>(ce: &mut Mat, theta: f32) -> usize {
    let (rows, n) = (ce.rows(), if N == 0 { ce.cols() } else { N });
    let mut zeroed = 0;
    for r0 in (0..rows).step_by(LANES) {
        let (norms, zero) = block_rms::<N>(ce, r0);
        let len = LANES.min(rows - r0);
        let block = &mut ce.data_mut()[r0 * n..(r0 + len) * n];
        for (l, (&norm, &zero)) in norms.iter().zip(&zero).take(len).enumerate() {
            let drop = norm < theta;
            for x in &mut block[l * n..(l + 1) * n] {
                *x = if drop { 0.0 } else { *x };
            }
            zeroed += usize::from(drop | zero);
        }
    }
    zeroed
}

/// Computes a per-channel keep mask for a reshaped weight matrix whose rows
/// come in consecutive groups of `group_rows` (one group per input channel).
///
/// A channel is pruned (`false`) when its saliency — the RMS of its rows —
/// falls below `rel_threshold ×` the mean channel saliency. This mirrors the
/// paper's batch-norm-scale rule with the norm standing in for the
/// unavailable BN statistics.
///
/// Returns one flag per channel. If `group_rows` is zero or does not divide
/// the row count, every channel is kept (no pruning is better than wrong
/// pruning).
pub fn channel_mask(w: &Mat, group_rows: usize, rel_threshold: f32) -> Vec<bool> {
    if group_rows == 0 || w.rows() % group_rows != 0 {
        return vec![true; w.rows().checked_div(group_rows).unwrap_or(0)];
    }
    let channels = w.rows() / group_rows;
    let saliency: Vec<f32> = (0..channels)
        .map(|c| {
            let start = c * group_rows;
            let elems: Vec<f32> =
                (start..start + group_rows).flat_map(|r| w.row(r).iter().copied()).collect();
            rms(&elems)
        })
        .collect();
    let mean = saliency.iter().sum::<f32>() / channels.max(1) as f32;
    saliency.iter().map(|&s| s >= rel_threshold * mean).collect()
}

/// Zeros every row belonging to a pruned channel (mask `false`), in place.
///
/// Rows are grouped as in [`channel_mask`]. Group/row mismatches leave the
/// matrix untouched.
pub fn apply_channel_mask(ce: &mut Mat, mask: &[bool], group_rows: usize) {
    if group_rows == 0 || ce.rows() != mask.len() * group_rows {
        return;
    }
    for (c, &keep) in mask.iter().enumerate() {
        if keep {
            continue;
        }
        for r in c * group_rows..(c + 1) * group_rows {
            ce.row_mut(r).fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_zeroes_small_rows() {
        let mut ce = Mat::from_rows(&[&[0.002, 0.001], &[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::Threshold(0.01));
        assert_eq!(zeroed, 2); // the small row and the already-zero row
        assert_eq!(ce.row(0), &[0.0, 0.0]);
        assert_eq!(ce.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn none_policy_only_counts() {
        let mut ce = Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::None);
        assert_eq!(zeroed, 1);
        assert_eq!(ce.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn rows_without_columns_count_as_zero() {
        let mut ce = Mat::zeros(3, 0);
        assert_eq!(vector_sparsify(&mut ce, VectorSparsity::Threshold(0.01)), 3);
        assert_eq!(vector_sparsify(&mut ce, VectorSparsity::RelativeThreshold(0.4)), 3);
    }

    #[test]
    fn keep_fraction_exact_count() {
        let mut ce = Mat::from_rows(&[&[4.0, 0.0], &[1.0, 0.0], &[3.0, 0.0], &[2.0, 0.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(0.5));
        assert_eq!(zeroed, 2);
        // Largest two rows (4.0 and 3.0) survive.
        assert_eq!(ce.row(0), &[4.0, 0.0]);
        assert_eq!(ce.row(1), &[0.0, 0.0]);
        assert_eq!(ce.row(2), &[3.0, 0.0]);
        assert_eq!(ce.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn keep_fraction_one_keeps_everything() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(1.0));
        assert_eq!(zeroed, 0);
    }

    #[test]
    fn keep_fraction_zero_zeroes_everything() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(0.0));
        assert_eq!(zeroed, 2);
        assert_eq!(ce.sparsity(), 1.0);
    }

    #[test]
    fn channel_mask_prunes_weak_channels() {
        // 3 channels of 2 rows; channel 1 is tiny.
        let w = Mat::from_rows(&[
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[0.001, 0.0],
            &[0.0, 0.001],
            &[2.0, 2.0],
            &[2.0, 2.0],
        ])
        .unwrap();
        let mask = channel_mask(&w, 2, 0.1);
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn apply_channel_mask_zeroes_groups() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]).unwrap();
        apply_channel_mask(&mut ce, &[false, true], 2);
        assert_eq!(ce.row(0), &[0.0]);
        assert_eq!(ce.row(1), &[0.0]);
        assert_eq!(ce.row(2), &[3.0]);
    }

    #[test]
    fn mismatched_groups_are_noops() {
        let w = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        // 2 does not divide 3: everything kept.
        assert!(channel_mask(&w, 2, 10.0).iter().all(|&b| b));
        let mut ce = w.clone();
        apply_channel_mask(&mut ce, &[false], 2);
        assert_eq!(ce, w);
    }
}
