//! The SmartExchange decomposition algorithm (Algorithm 1 of the paper).
//!
//! Given a weight matrix `W ∈ R^{m×n}`, find `Ce ∈ R^{m×r}` and
//! `B ∈ R^{r×n}` (with `r = n` here, as in the paper's practice) such that
//! `W ≈ Ce·B`, every non-zero of `Ce` is `±2^p`, and `Ce` is vector-wise
//! sparse. The solver alternates:
//!
//! 1. **Quantize** — normalise each `Ce` column to unit norm (folding the
//!    scale into `B` to avoid scale ambiguity), then round every non-zero to
//!    the nearest power of two; `δ(Ce)` is the quantization difference.
//! 2. **Fit** — solve the two unconstrained least-squares problems
//!    `B ← argmin‖W − CeB‖` then `Ce ← argmin‖W − CeB‖`.
//! 3. **Sparsify** — zero small `Ce` rows (vector-wise), keeping any
//!    channel-pruned rows at zero.
//!
//! After the loop, `Ce` is re-quantized and `B` re-fitted (and optionally
//! quantized to its 8-bit stored form).

use crate::{sparsify, CoreError, Result, SeConfig};
use se_ir::{Po2Set, SeSlice};
use se_tensor::linalg::LstsqWorkspace;
use se_tensor::{by_width, Mat, TensorError};

/// The result of decomposing one matrix: `W ≈ ce · basis`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Coefficient matrix (`m × r`); every entry is in the configured
    /// power-of-2 set.
    pub ce: Mat,
    /// Basis matrix (`r × n`).
    pub basis: Mat,
}

impl Decomposition {
    /// Rebuilds the approximated weight matrix `Ce · B`.
    ///
    /// # Errors
    ///
    /// Returns a tensor error only if the factors were mutated into
    /// incompatible shapes after construction.
    pub fn reconstruct(&self) -> Result<Mat> {
        Ok(self.ce.matmul(&self.basis)?)
    }

    /// Relative Frobenius reconstruction error `‖W − CeB‖_F / ‖W‖_F`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tensor`] on shape mismatch with `w`.
    pub fn reconstruction_error(&self, w: &Mat) -> Result<f32> {
        let recon = self.reconstruct()?;
        let diff = w.sub(&recon)?.frobenius_norm();
        let denom = w.frobenius_norm();
        Ok(if denom > 0.0 { diff / denom } else { diff })
    }

    /// Converts into the interchange [`SeSlice`] format, validating the
    /// power-of-2 invariant against `po2`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ir`] if any coefficient is not representable —
    /// which indicates the decomposition was produced with a different
    /// alphabet.
    pub fn into_se_slice(self, po2: &Po2Set) -> Result<SeSlice> {
        Ok(SeSlice::new(self.ce, self.basis, po2)?)
    }
}

/// One iteration's measurements (the series plotted in Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration index.
    pub iteration: usize,
    /// `‖W − CeB‖_F / ‖W‖_F` at the end of the iteration.
    pub recon_error: f32,
    /// Element-wise sparsity of `Ce` in `[0, 1]`.
    pub ce_sparsity: f32,
    /// Vector-wise (row) sparsity of `Ce` in `[0, 1]`.
    pub ce_row_sparsity: f32,
    /// `‖B − I‖_F / ‖I‖_F` — how far the basis has moved from its identity
    /// initialisation.
    pub basis_identity_dist: f32,
    /// Quantization difference `‖δ(Ce)‖_F` measured in Step 1.
    pub quant_delta: f32,
}

/// The full per-iteration evolution of a decomposition run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecompositionTrace {
    /// Records in iteration order.
    pub records: Vec<IterationRecord>,
}

/// Decomposes `w` with the given configuration.
///
/// Channel pruning (if enabled in `cfg`) groups rows in `w.cols()`-sized
/// groups, which is correct for the CONV reshape where each input channel
/// contributes `R = S = n` consecutive rows; use
/// [`decompose_with_channel_mask`] to supply an explicit mask instead.
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] for empty or non-finite inputs and
/// propagates linear-algebra failures.
pub fn decompose(w: &Mat, cfg: &SeConfig) -> Result<Decomposition> {
    solve(w, cfg, config_channel_mask(w, cfg).as_deref(), None)
}

/// Like [`decompose`], also returning the per-iteration trace (Fig. 9).
///
/// # Errors
///
/// See [`decompose`].
pub fn decompose_traced(w: &Mat, cfg: &SeConfig) -> Result<(Decomposition, DecompositionTrace)> {
    let mut trace = DecompositionTrace::default();
    let d = solve(w, cfg, config_channel_mask(w, cfg).as_deref(), Some(&mut trace))?;
    Ok((d, trace))
}

/// Decomposes `w` with an explicit channel keep-mask (`None` disables
/// channel pruning). The mask has one flag per group of `w.cols()`
/// consecutive rows.
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] for empty/non-finite inputs and
/// propagates linear-algebra failures.
pub fn decompose_with_channel_mask(
    w: &Mat,
    cfg: &SeConfig,
    channel_mask: Option<&[bool]>,
) -> Result<Decomposition> {
    solve(w, cfg, channel_mask, None)
}

/// The channel mask `cfg` asks for: one flag per `w.cols()` rows.
fn config_channel_mask(w: &Mat, cfg: &SeConfig) -> Option<Vec<bool>> {
    cfg.channel_prune_threshold().map(|t| sparsify::channel_mask(w, w.cols().max(1), t))
}

/// Algorithm 1. Every iteration runs in place on `ce`, `basis` and one
/// set of scratch buffers; the Fig. 9 records are measured only when
/// `trace` asks for them.
fn solve(
    w: &Mat,
    cfg: &SeConfig,
    channel_mask: Option<&[bool]>,
    mut trace: Option<&mut DecompositionTrace>,
) -> Result<Decomposition> {
    validate_weights(w)?;
    let n = w.cols();
    let mut ce = w.clone();
    let mut basis = Mat::identity(n);
    let mut ws = Workspace::new(w.rows(), n);

    // Channel-wise sparsification happens once, up front (Algorithm 1,
    // line 1): the paper observes the pruned channel structure does not
    // change over iterations.
    if let Some(mask) = channel_mask {
        sparsify::apply_channel_mask(&mut ce, mask, n);
    }
    let forced_zero = forced_zero_rows(&ce, channel_mask, n);

    for iteration in 1..=cfg.max_iterations() {
        // Step 1: quantize Ce to powers of 2 (on unit-norm columns).
        let delta =
            by_width!(n, n, normalize_and_quantize(&mut ce, &mut basis, cfg.po2(), &mut ws));

        // Record the *quantized* state (the solution the hardware would
        // use if we stopped here) — this is the series Fig. 9 plots; the
        // subsequent unconstrained refit is exact for full-rank bases and
        // would always read as zero error.
        if let Some(trace) = trace.as_deref_mut() {
            trace.records.push(IterationRecord {
                iteration,
                recon_error: relative_error(w, &ce, &basis)?,
                ce_sparsity: ce.sparsity(),
                ce_row_sparsity: ce.zero_rows() as f32 / ce.rows() as f32,
                basis_identity_dist: basis.sub(&Mat::identity(n))?.frobenius_norm()
                    / (n as f32).sqrt(),
                quant_delta: delta,
            });
        }

        // Step 2: fit B, then fit Ce (two unconstrained least squares).
        fit_basis(&mut ws.lstsq, &ce, w, cfg.ridge(), &mut basis)?;
        escalate_ridge(cfg.ridge(), |r| ws.lstsq.lstsq_right_into(w, &basis, r, &mut ce))?;
        apply_forced_zeros(&mut ce, forced_zero.as_deref());

        // Step 3: vector-wise sparsify Ce.
        sparsify::vector_sparsify(&mut ce, cfg.vector_sparsity());

        if delta <= cfg.tol() {
            break;
        }
    }

    // Conclude: re-quantize Ce and re-fit B (Algorithm 1, line 8).
    by_width!(n, n, normalize_and_quantize(&mut ce, &mut basis, cfg.po2(), &mut ws));
    apply_forced_zeros(&mut ce, forced_zero.as_deref());
    fit_basis(&mut ws.lstsq, &ce, w, cfg.ridge(), &mut basis)?;
    if cfg.quantize_basis() {
        quantize_basis_8bit(&mut basis);
    }

    Ok(Decomposition { ce, basis })
}

/// Buffers one decomposition reuses across its iterations.
struct Workspace {
    lstsq: LstsqWorkspace,
    /// Receives the quantized `Ce`, then swaps with it.
    spare: Mat,
    /// Per-column sums of squares.
    col_sq: Vec<f64>,
    /// Per-column normalisation factors.
    col_inv: Vec<f32>,
}

impl Workspace {
    fn new(rows: usize, cols: usize) -> Self {
        Workspace {
            lstsq: LstsqWorkspace::default(),
            spare: Mat::zeros(rows, cols),
            col_sq: vec![0.0; cols],
            col_inv: vec![0.0; cols],
        }
    }
}

/// Fits `basis ← argmin_B ‖W − Ce·B‖` in place.
pub(crate) fn fit_basis(
    lstsq: &mut LstsqWorkspace,
    ce: &Mat,
    w: &Mat,
    ridge: f32,
    basis: &mut Mat,
) -> Result<()> {
    escalate_ridge(ridge, |r| lstsq.lstsq_left_into(ce, w, r, basis))
}

/// Quantized coefficient matrices routinely develop linearly dependent
/// columns (identical power-of-2 patterns), so the least-squares fits retry
/// with escalating ridge regularisation rather than failing.
fn escalate_ridge(
    ridge: f32,
    mut fit: impl FnMut(f32) -> std::result::Result<(), TensorError>,
) -> Result<()> {
    let mut r = ridge.max(1e-9);
    for _ in 0..6 {
        match fit(r) {
            Ok(()) => return Ok(()),
            Err(TensorError::Singular) => r *= 100.0,
            Err(e) => return Err(e.into()),
        }
    }
    Err(CoreError::Tensor(TensorError::Singular))
}

fn validate_weights(w: &Mat) -> Result<()> {
    if w.is_empty() {
        return Err(CoreError::InvalidWeights { reason: "weight matrix is empty".into() });
    }
    if w.data().iter().any(|x| !x.is_finite()) {
        return Err(CoreError::InvalidWeights {
            reason: "weight matrix contains non-finite values".into(),
        });
    }
    Ok(())
}

/// Rows forced to zero by channel pruning; vector sparsity is recomputed
/// every iteration, but channel-pruned rows must stay zero through refits.
fn forced_zero_rows(ce: &Mat, mask: Option<&[bool]>, group: usize) -> Option<Vec<bool>> {
    let mask = mask.filter(|m| group > 0 && m.len() * group == ce.rows())?;
    Some(mask.iter().flat_map(|&keep| std::iter::repeat_n(!keep, group)).collect())
}

fn apply_forced_zeros(ce: &mut Mat, forced: Option<&[bool]>) {
    for (i, &z) in forced.unwrap_or_default().iter().enumerate() {
        if z {
            ce.row_mut(i).fill(0.0);
        }
    }
}

/// Step 1: normalises each column of `ce` to unit L2 norm, folding the
/// scale into the corresponding row of `basis` so `ce · basis` is
/// unchanged, then rounds every entry to the nearest element of `po2`.
/// Returns the Frobenius norm of the rounding (`‖δ(Ce)‖`).
///
/// The rounding lands in `ws.spare`, which then swaps with `ce`. The
/// quantize pass is branch-free so it vectorizes; the rare entries next
/// to a rounding boundary send the whole pass through the exact scalar
/// [`Po2Set::quantize`]. `N` is the width when non-zero (see
/// [`se_tensor::by_width`]).
fn normalize_and_quantize<const N: usize>(
    ce: &mut Mat,
    basis: &mut Mat,
    po2: &Po2Set,
    ws: &mut Workspace,
) -> f32 {
    let n = if N == 0 { ce.cols() } else { N };
    let (col_sq, col_inv) = (&mut ws.col_sq[..n], &mut ws.col_inv[..n]);
    col_sq.fill(0.0);
    for row in ce.data().chunks_exact(n) {
        for (acc, &v) in col_sq.iter_mut().zip(row) {
            let v = f64::from(v);
            *acc += v * v;
        }
    }
    // A fully-pruned column is left as is: scaling by 1 is exact.
    for (j, (&sq, inv)) in col_sq.iter().zip(col_inv.iter_mut()).enumerate() {
        let norm = sq.sqrt() as f32;
        let pruned = norm <= f32::MIN_POSITIVE;
        let fold = if pruned { 1.0 } else { norm };
        *inv = if pruned { 1.0 } else { 1.0 / norm };
        for b in basis.row_mut(j) {
            *b *= fold;
        }
    }
    for row in ce.data_mut().chunks_exact_mut(n) {
        for (v, &inv) in row.iter_mut().zip(col_inv.iter()) {
            *v *= inv;
        }
    }
    let (x, q) = (ce.data(), ws.spare.data_mut());
    let mut near_boundary = false;
    for (q, &x) in q.iter_mut().zip(x) {
        let (v, near) = po2.quantize_bits(x);
        *q = v;
        near_boundary |= near;
    }
    if near_boundary {
        for (q, &x) in q.iter_mut().zip(x) {
            *q = po2.quantize(x);
        }
    }
    let mut delta_sq = 0.0f64;
    for (&q, &x) in q.iter().zip(x) {
        let d = f64::from(q - x);
        delta_sq += d * d;
    }
    std::mem::swap(ce, &mut ws.spare);
    delta_sq.sqrt() as f32
}

/// Quantizes the basis to its 8-bit fixed-point stored form (symmetric,
/// per-matrix scale), in place.
fn quantize_basis_8bit(basis: &mut Mat) {
    let max_abs = basis.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        return;
    }
    let scale = max_abs / 127.0;
    for v in basis.data_mut() {
        *v = (*v / scale).round().clamp(-127.0, 127.0) * scale;
    }
}

fn relative_error(w: &Mat, ce: &Mat, basis: &Mat) -> Result<f32> {
    let recon = ce.matmul(basis)?;
    let num = w.sub(&recon)?.frobenius_norm();
    let den = w.frobenius_norm();
    Ok(if den > 0.0 { num / den } else { num })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorSparsity;
    use se_tensor::{linalg, rng};

    fn cfg() -> SeConfig {
        SeConfig::default()
    }

    #[test]
    fn po2_diagonal_is_exactly_recovered() {
        // W whose rows are already po2 multiples of identity basis rows.
        let w = Mat::from_rows(&[
            &[0.5, 0.0, 0.0],
            &[0.0, -0.25, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.125, 0.0, 0.0],
        ])
        .unwrap();
        let c = cfg().with_vector_sparsity(VectorSparsity::None).unwrap();
        let d = decompose(&w, &c).unwrap();
        let err = d.reconstruction_error(&w).unwrap();
        assert!(err < 0.02, "error {err}");
    }

    #[test]
    fn all_coefficients_are_representable() {
        let mut r = rng::seeded(11);
        let w = rng::normal_mat(&mut r, 96, 3, 0.05);
        let d = decompose(&w, &cfg()).unwrap();
        let po2 = *cfg().po2();
        assert!(d.ce.data().iter().all(|&x| po2.contains(x)));
    }

    #[test]
    fn random_matrix_error_is_bounded() {
        let mut r = rng::seeded(3);
        let w = rng::normal_mat(&mut r, 192, 3, 0.06);
        let c = cfg().with_vector_sparsity(VectorSparsity::None).unwrap();
        let d = decompose(&w, &c).unwrap();
        let err = d.reconstruction_error(&w).unwrap();
        // Power-of-2 quantization with a fitted basis keeps the error well
        // under the "quantize W directly" level (~0.2 for Gaussians).
        assert!(err < 0.35, "error {err}");
    }

    #[test]
    fn keep_fraction_guarantees_row_sparsity() {
        let mut r = rng::seeded(5);
        let w = rng::normal_mat(&mut r, 60, 3, 0.1);
        let c = cfg().with_vector_sparsity(VectorSparsity::KeepFraction(0.4)).unwrap();
        let d = decompose(&w, &c).unwrap();
        let zero_rows = d.ce.zero_rows();
        assert!(zero_rows >= 36, "only {zero_rows} zero rows"); // 60% of 60
    }

    #[test]
    fn channel_mask_rows_stay_zero() {
        let mut r = rng::seeded(8);
        let w = rng::normal_mat(&mut r, 12, 3, 0.1); // 4 channels of 3 rows
        let mask = vec![true, false, true, false];
        let d = decompose_with_channel_mask(&w, &cfg(), Some(&mask)).unwrap();
        for ch in [1usize, 3] {
            for row in ch * 3..(ch + 1) * 3 {
                assert!(d.ce.row(row).iter().all(|&x| x == 0.0), "row {row} not zero");
            }
        }
    }

    #[test]
    fn trace_has_expected_shape() {
        let mut r = rng::seeded(21);
        let w = rng::normal_mat(&mut r, 192, 3, 0.08);
        let c = cfg().with_max_iterations(20).unwrap();
        let (_, trace) = decompose_traced(&w, &c).unwrap();
        assert_eq!(trace.records.len(), 20);
        assert_eq!(trace.records[0].iteration, 1);
        // Fig. 9 shape: the basis moves away from identity over iterations.
        let first = trace.records.first().unwrap();
        let last = trace.records.last().unwrap();
        assert!(last.basis_identity_dist > 0.0);
        // The algorithm remedies the early error spike: final error is no
        // worse than the first iteration's.
        assert!(last.recon_error <= first.recon_error * 1.5 + 0.05);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            decompose(&Mat::zeros(0, 0), &cfg()),
            Err(CoreError::InvalidWeights { .. })
        ));
        let mut w = Mat::zeros(2, 2);
        w.set(0, 0, f32::NAN);
        assert!(matches!(decompose(&w, &cfg()), Err(CoreError::InvalidWeights { .. })));
    }

    #[test]
    fn all_zero_matrix_decomposes_to_zero() {
        let w = Mat::zeros(6, 3);
        let d = decompose(&w, &cfg()).unwrap();
        assert_eq!(d.ce.sparsity(), 1.0);
        assert!(d.reconstruct().unwrap().frobenius_norm() == 0.0);
    }

    #[test]
    fn into_se_slice_roundtrip() {
        let mut r = rng::seeded(13);
        let w = rng::normal_mat(&mut r, 24, 3, 0.1);
        let d = decompose(&w, &cfg()).unwrap();
        let recon_direct = d.reconstruct().unwrap();
        let slice = d.into_se_slice(cfg().po2()).unwrap();
        let recon_slice = slice.reconstruct();
        assert_eq!(recon_direct, recon_slice);
    }

    #[test]
    fn basis_quantization_is_applied() {
        let mut r = rng::seeded(17);
        let w = rng::normal_mat(&mut r, 48, 3, 0.1);
        let d = decompose(&w, &cfg()).unwrap();
        // All basis entries are integer multiples of the 8-bit scale.
        let max_abs = d.basis.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = max_abs / 127.0;
        for &b in d.basis.data() {
            let q = (b / scale).round();
            assert!((b - q * scale).abs() < 1e-6);
        }
    }

    #[test]
    fn disabled_basis_quantization() {
        let mut r = rng::seeded(19);
        let w = rng::normal_mat(&mut r, 48, 3, 0.1);
        let c = cfg().with_quantize_basis(false);
        let dq = decompose(&w, &cfg()).unwrap();
        let dn = decompose(&w, &c).unwrap();
        // Unquantized basis fits at least as well.
        assert!(
            dn.reconstruction_error(&w).unwrap() <= dq.reconstruction_error(&w).unwrap() + 1e-4
        );
    }

    #[test]
    fn dependent_columns_escalate_the_ridge() {
        // Identical unit-norm columns: at the 1e-9 floor the ridge rounds
        // away in f32 and the normal matrix is singular, so both fits retry
        // at 1e-7; the bits pin the escalated solutions.
        let ce = Mat::from_rows(&[&[0.5, 0.5], &[0.5, 0.5], &[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let w = Mat::from_rows(&[&[0.3, -0.1], &[0.2, 0.4], &[-0.5, 0.1], &[0.25, 0.0]]).unwrap();
        assert_eq!(linalg::lstsq_left(&ce, &w, 1e-9), Err(TensorError::Singular));
        let mut lstsq = LstsqWorkspace::default();
        let mut basis = Mat::zeros(2, 2);
        fit_basis(&mut lstsq, &ce, &w, 0.0, &mut basis).unwrap();
        let bits: Vec<u32> = basis.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0x3d7f_fffb, 0x3dcc_ccc9, 0x3d80_0001, 0x3dcc_ccce]);

        let basis = ce.transpose();
        let w = Mat::from_rows(&[&[0.3, -0.1, 0.2, 0.7], &[0.2, 0.4, -0.3, 0.1]]).unwrap();
        assert_eq!(linalg::lstsq_right(&w, &basis, 1e-9), Err(TensorError::Singular));
        let mut c = Mat::zeros(2, 2);
        escalate_ridge(0.0, |r| lstsq.lstsq_right_into(&w, &basis, r, &mut c)).unwrap();
        let bits: Vec<u32> = c.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0x3e8c_ccca, 0x3e8c_ccce, 0x3dcc_ccc9, 0x3dcc_ccce]);
    }

    #[test]
    fn decomposition_is_deterministic() {
        let mut r = rng::seeded(23);
        let w = rng::normal_mat(&mut r, 33, 3, 0.1);
        let a = decompose(&w, &cfg()).unwrap();
        let b = decompose(&w, &cfg()).unwrap();
        assert_eq!(a, b);
    }
}
