//! Linear-algebra kernels: Cholesky factorisation, least squares, and a
//! one-sided Jacobi SVD.
//!
//! The SmartExchange fitting steps (Section III-B, Step 2 of Algorithm 1)
//! are two unconstrained least-squares problems:
//!
//! * `B  = argmin_B  ||W - Ce B||_F`  → solved by [`lstsq_left`], and
//! * `Ce = argmin_Ce ||W - Ce B||_F`  → solved by [`lstsq_right`].
//!
//! Both reduce to small symmetric positive (semi-)definite systems
//! (`r × r` with `r = S`, typically 3), solved via Cholesky with optional
//! ridge regularisation for rank-deficient cases.
//!
//! The solver loop calls [`LstsqWorkspace`] directly; after the first call
//! at a shape it allocates nothing. One pass over the rows accumulates
//! both halves of the left normal equations (`CᵀC` and `CᵀW`); the right
//! fit factors `B·Bᵀ` once and substitutes eight rows of `W` at a time, so
//! independent rows hide each other's division chains. Widths 3, 5 and 7
//! (the zoo's kernel sizes) run the kernels with the width as a constant;
//! every other width runs the same bodies with a runtime width.
//! [`lstsq_left`], [`lstsq_right`], [`solve_spd`] and [`cholesky`] are
//! allocating wrappers over the same kernels.
//!
//! The kernels are bit-exact with the textbook formulation (explicit
//! transposes, [`Mat::matmul`], one substitution per right-hand side).
//! Three rules keep them so:
//!
//! * no reordering: every sum accumulates its terms in the same order;
//! * no fused multiply-add: each product rounds before it is added;
//! * no reciprocals: every division stays a division.
//!
//! `Mat::matmul`'s zero skip becomes a select (`a != 0 ? a·b : +0`): the
//! accumulators start at `+0.0` and never reach `-0.0`, so adding `+0.0` is
//! a no-op. The Cholesky factor is computed in `f64`, rounded to `f32` and
//! widened again for the substitutions.
//!
//! [`svd`] provides the low-rank-decomposition *baseline* the paper compares
//! against (decomposition-alone compression).

use crate::{Mat, Result, TensorError};

/// Rows of `W` that [`LstsqWorkspace::lstsq_right_into`] substitutes
/// together.
const LANES: usize = 8;

/// Calls `$body::<N>(args…)` with the width as a compile-time constant `N`
/// when both sides of a system share one of the zoo's kernel widths (3, 5,
/// 7), and with `N = 0`, meaning "read the width at run time", otherwise:
/// one generic body serves every width, and the common ones get loops the
/// compiler can unroll and keep in registers.
///
/// ```
/// fn width<const N: usize>(n: usize) -> usize {
///     if N == 0 { n } else { N }
/// }
/// assert_eq!(se_tensor::by_width!(3, 3, width(3)), 3);
/// assert_eq!(se_tensor::by_width!(4, 4, width(4)), 4);
/// ```
#[macro_export]
macro_rules! by_width {
    ($r:expr, $n:expr, $body:ident($($arg:expr),* $(,)?)) => {
        match ($r, $n) {
            (3, 3) => $body::<3>($($arg),*),
            (5, 5) => $body::<5>($($arg),*),
            (7, 7) => $body::<7>($($arg),*),
            _ => $body::<0>($($arg),*),
        }
    };
}

/// The `(r, n)` a kernel body runs at: `(N, N)` for a constant width.
#[inline(always)]
fn width<const N: usize>(r: usize, n: usize) -> (usize, usize) {
    if N == 0 {
        (r, n)
    } else {
        (N, N)
    }
}

/// `a·b`, or `+0.0` when `a` is zero: [`Mat::matmul`]'s zero skip as a
/// select, so a non-finite `b` never enters a sum.
#[inline(always)]
fn skip_zero(a: f32, b: f32) -> f32 {
    if a != 0.0 {
        a * b
    } else {
        0.0
    }
}

/// Reusable scratch for the least-squares kernels: after the first call at
/// a shape, fits allocate nothing. Widths 3, 5 and 7 keep their scratch in
/// local fixed-size arrays instead, which the compiler holds in registers.
#[derive(Debug, Clone, Default)]
pub struct LstsqWorkspace {
    gram: Vec<f32>,
    rhs: Vec<f32>,
    factor: Vec<f64>,
    lanes: Vec<f64>,
    block: Vec<f32>,
}

/// The scratch one fit runs in, sized for `r × r` normal equations with
/// `n`-wide rows.
struct Scratch<'a> {
    /// Normal matrix, lower triangle, `r × r`.
    gram: &'a mut [f32],
    /// Right-hand sides of the left fit, `r × n`.
    rhs: &'a mut [f32],
    /// Rounded Cholesky factor, `r × r`.
    factor: &'a mut [f64],
    /// Substitution lanes, `r × max(n, LANES)`.
    lanes: &'a mut [f64],
    /// A block of `W` rows, transposed: `n × LANES`.
    block: &'a mut [f32],
}

impl LstsqWorkspace {
    /// Runs `f` in scratch for width `N`: local arrays for a constant
    /// width, this workspace's buffers (grown to `r`, `n`) otherwise.
    #[inline(always)]
    fn scratch<const N: usize, T>(
        &mut self,
        r: usize,
        n: usize,
        f: impl FnOnce(Scratch<'_>) -> T,
    ) -> T {
        if N == 0 {
            self.gram.resize(r * r, 0.0);
            self.rhs.resize(r * n, 0.0);
            self.factor.resize(r * r, 0.0);
            self.lanes.resize(r * n.max(LANES), 0.0);
            self.block.resize(n * LANES, 0.0);
            f(Scratch {
                gram: &mut self.gram,
                rhs: &mut self.rhs,
                factor: &mut self.factor,
                lanes: &mut self.lanes,
                block: &mut self.block,
            })
        } else {
            const { assert!(N <= LANES) };
            let mut gram = [[0.0f32; N]; N];
            let mut rhs = [[0.0f32; N]; N];
            let mut factor = [[0.0f64; N]; N];
            let mut lanes = [[0.0f64; LANES]; N];
            let mut block = [[0.0f32; LANES]; N];
            f(Scratch {
                gram: gram.as_flattened_mut(),
                rhs: rhs.as_flattened_mut(),
                factor: factor.as_flattened_mut(),
                lanes: lanes.as_flattened_mut(),
                block: block.as_flattened_mut(),
            })
        }
    }

    /// [`lstsq_left`] into `out` (`c.cols() × w.cols()`), with `ridge` as
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `c.rows() != w.rows()` or
    /// `out` has the wrong shape, or [`TensorError::Singular`] (leaving
    /// `out` untouched) if the regularised normal matrix is singular.
    pub fn lstsq_left_into(&mut self, c: &Mat, w: &Mat, ridge: f32, out: &mut Mat) -> Result<()> {
        let (r, n) = (c.cols(), w.cols());
        if c.rows() != w.rows() || out.rows() != r || out.cols() != n {
            return Err(TensorError::ShapeMismatch {
                op: "lstsq_left",
                lhs: vec![c.rows(), c.cols()],
                rhs: vec![w.rows(), w.cols()],
            });
        }
        by_width!(r, n, fit_left(self, c, w, ridge, out.data_mut()))
    }

    /// [`lstsq_right`] into `out` (`w.rows() × b.rows()`), with `ridge` as
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `w.cols() != b.cols()` or
    /// `out` has the wrong shape, or [`TensorError::Singular`] (leaving
    /// `out` untouched) if the regularised Gram matrix is singular.
    pub fn lstsq_right_into(&mut self, w: &Mat, b: &Mat, ridge: f32, out: &mut Mat) -> Result<()> {
        let (r, n) = (b.rows(), b.cols());
        if w.cols() != n || out.rows() != w.rows() || out.cols() != r {
            return Err(TensorError::ShapeMismatch {
                op: "lstsq_right",
                lhs: vec![w.rows(), w.cols()],
                rhs: vec![b.rows(), b.cols()],
            });
        }
        by_width!(r, n, fit_right(self, w, b, ridge, out.data_mut()))
    }
}

/// `(CᵀC + ridge) X = CᵀW`, into `out`.
#[inline(always)]
fn fit_left<const N: usize>(
    ws: &mut LstsqWorkspace,
    c: &Mat,
    w: &Mat,
    ridge: f32,
    out: &mut [f32],
) -> Result<()> {
    let (r, n) = width::<N>(c.cols(), w.cols());
    ws.scratch::<N, _>(r, n, |s| {
        normal_left::<N>(c, w, s.gram, s.rhs);
        factor::<N>(s.gram, r, ridge, s.factor)?;
        let y = &mut s.lanes[..r * n];
        for (y, &b) in y.iter_mut().zip(&s.rhs[..r * n]) {
            *y = f64::from(b);
        }
        substitute::<N>(s.factor, r, y, n);
        for (o, &y) in out.iter_mut().zip(y.iter()) {
            *o = y as f32;
        }
        Ok(())
    })
}

/// Row `c` of `out` solves `(B·Bᵀ + ridge) x = B·w_c`; blocks of
/// [`LANES`] rows are substituted together.
#[inline(always)]
fn fit_right<const N: usize>(
    ws: &mut LstsqWorkspace,
    w: &Mat,
    b: &Mat,
    ridge: f32,
    out: &mut [f32],
) -> Result<()> {
    let (r, n) = width::<N>(b.rows(), b.cols());
    let (b, wd) = (&b.data()[..r * n], w.data());
    ws.scratch::<N, _>(r, n, |s| {
        normal_right::<N>(b, r, n, s.gram);
        factor::<N>(s.gram, r, ridge, s.factor)?;
        let (block, lanes) = (&mut s.block[..n * LANES], &mut s.lanes[..r * LANES]);
        for c0 in (0..w.rows()).step_by(LANES) {
            let rows = c0..(c0 + LANES).min(w.rows());
            // Transpose the block so each `W` column is one lane vector;
            // the lanes past the last row stay zero and are never written
            // out.
            block.fill(0.0);
            for (l, c) in rows.clone().enumerate() {
                for (k, &x) in wd[c * n..(c + 1) * n].iter().enumerate() {
                    block[k * LANES + l] = x;
                }
            }
            for i in 0..r {
                let mut acc = [0.0f32; LANES];
                for (&a, col) in b[i * n..(i + 1) * n].iter().zip(block.chunks_exact(LANES)) {
                    for (acc, &x) in acc.iter_mut().zip(col) {
                        *acc += skip_zero(a, x);
                    }
                }
                for (y, acc) in lanes[i * LANES..(i + 1) * LANES].iter_mut().zip(acc) {
                    *y = f64::from(acc);
                }
            }
            substitute::<N>(s.factor, r, lanes, LANES);
            for (l, c) in rows.enumerate() {
                for (i, o) in out[c * r..(c + 1) * r].iter_mut().enumerate() {
                    *o = lanes[i * LANES + l] as f32;
                }
            }
        }
        Ok(())
    })
}

/// One pass over the rows of `C` and `W`: the lower triangle of `CᵀC` into
/// `gram` and `CᵀW` into `rhs`, each sum in row order.
#[inline(always)]
fn normal_left<const N: usize>(c: &Mat, w: &Mat, gram: &mut [f32], rhs: &mut [f32]) {
    let (r, n) = width::<N>(c.cols(), w.cols());
    let (gram, rhs) = (&mut gram[..r * r], &mut rhs[..r * n]);
    let (cd, wd) = (c.data(), w.data());
    gram.fill(0.0);
    rhs.fill(0.0);
    for k in 0..c.rows() {
        let (ck, wk) = (&cd[k * r..(k + 1) * r], &wd[k * n..(k + 1) * n]);
        for (i, &a) in ck.iter().enumerate() {
            for (acc, &b) in gram[i * r..=i * r + i].iter_mut().zip(ck) {
                *acc += skip_zero(a, b);
            }
            for (acc, &b) in rhs[i * n..(i + 1) * n].iter_mut().zip(wk) {
                *acc += skip_zero(a, b);
            }
        }
    }
}

/// The lower triangle of `B·Bᵀ` (`b` is `r × n`) into `gram`.
#[inline(always)]
fn normal_right<const N: usize>(b: &[f32], r: usize, n: usize, gram: &mut [f32]) {
    let (r, n) = width::<N>(r, n);
    for i in 0..r {
        for j in 0..=i {
            let mut acc = 0.0f32;
            for (&x, &y) in b[i * n..(i + 1) * n].iter().zip(&b[j * n..(j + 1) * n]) {
                acc += skip_zero(x, y);
            }
            gram[i * r + j] = acc;
        }
    }
}

/// Factors the lower triangle of `gram`, plus the relative ridge when
/// `ridge > 0`, as `L·Lᵀ` in `f64`, then rounds `L` to `f32` precision in
/// place. The upper triangle of `l` is zeroed.
///
/// The ridge is `ridge · (1 + mean(diag))`, so the regularisation stays
/// meaningful across scales (an absolute `1e-8` would vanish in `f32` next
/// to a diagonal of order 1).
#[inline(always)]
fn factor<const N: usize>(gram: &[f32], r: usize, ridge: f32, l: &mut [f64]) -> Result<()> {
    let (r, _) = width::<N>(r, r);
    let (gram, l) = (&gram[..r * r], &mut l[..r * r]);
    let ridged = ridge > 0.0 || ridge.is_nan();
    let eff = ridge * (1.0 + (0..r).map(|i| gram[i * r + i]).sum::<f32>() / r.max(1) as f32);
    for i in 0..r {
        for j in 0..=i {
            let a = if i == j && ridged { gram[i * r + j] + eff } else { gram[i * r + j] };
            let mut sum = f64::from(a);
            for k in 0..j {
                sum -= l[i * r + k] * l[j * r + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(TensorError::Singular);
                }
                l[i * r + j] = sum.sqrt();
            } else {
                l[i * r + j] = sum / l[j * r + j];
            }
        }
        l[i * r + i + 1..(i + 1) * r].fill(0.0);
    }
    for v in l.iter_mut() {
        *v = f64::from(*v as f32);
    }
    Ok(())
}

/// Solves `L·Lᵀ X = Y` in place for `lanes` right-hand sides held as the
/// columns of `y` (`r × lanes`): forward substitution, then back
/// substitution, each lane exactly as a lone column would be solved.
#[inline(always)]
fn substitute<const N: usize>(l: &[f64], r: usize, y: &mut [f64], lanes: usize) {
    let (r, _) = width::<N>(r, r);
    let l = &l[..r * r];
    let y = &mut y[..r * lanes];
    for i in 0..r {
        for k in 0..i {
            let lik = l[i * r + k];
            for c in 0..lanes {
                y[i * lanes + c] -= lik * y[k * lanes + c];
            }
        }
        let lii = l[i * r + i];
        for v in &mut y[i * lanes..(i + 1) * lanes] {
            *v /= lii;
        }
    }
    for i in (0..r).rev() {
        for k in i + 1..r {
            let lki = l[k * r + i];
            for c in 0..lanes {
                y[i * lanes + c] -= lki * y[k * lanes + c];
            }
        }
        let lii = l[i * r + i];
        for v in &mut y[i * lanes..(i + 1) * lanes] {
            *v /= lii;
        }
    }
}

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular `L` with `A = L Lᵀ`. Only the lower
/// triangle of `a` is read.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a` is not square and
/// [`TensorError::Singular`] if a non-positive pivot is encountered
/// (matrix not positive definite within `f64` round-off).
///
/// # Examples
///
/// ```
/// use se_tensor::{Mat, linalg};
/// # fn main() -> Result<(), se_tensor::TensorError> {
/// let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let l = linalg::cholesky(&a)?;
/// let recon = l.matmul(&l.transpose())?;
/// assert!((recon.get(0, 0) - 4.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn cholesky(a: &Mat) -> Result<Mat> {
    let l = factor_spd(a)?;
    Mat::from_vec(l.into_iter().map(|v| v as f32).collect(), a.rows(), a.rows())
}

/// The rounded factor of a square `a`, as [`cholesky`] returns it.
fn factor_spd(a: &Mat) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::ShapeMismatch {
            op: "cholesky",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![n, n],
        });
    }
    let mut l = vec![0.0f64; n * n];
    factor::<0>(a.data(), n, 0.0, &mut l)?;
    Ok(l)
}

/// Solves `A X = B` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates [`cholesky`] errors; also returns
/// [`TensorError::ShapeMismatch`] if `b.rows() != a.rows()`.
pub fn solve_spd(a: &Mat, b: &Mat) -> Result<Mat> {
    if b.rows() != a.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "solve_spd",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let l = factor_spd(a)?;
    let mut y: Vec<f64> = b.data().iter().map(|&v| f64::from(v)).collect();
    substitute::<0>(&l, a.rows(), &mut y, b.cols());
    Mat::from_vec(y.into_iter().map(|v| v as f32).collect(), b.rows(), b.cols())
}

/// Least squares for the *left* factor position:
/// `B = argmin_B ||W - C B||_F`, solved as `(CᵀC + ridge·I) B = CᵀW`.
///
/// `ridge >= 0` adds Tikhonov regularisation; pass a small positive value
/// (e.g. `1e-6`) when `C` may have zero columns (fully-pruned coefficient
/// columns produce an exactly singular normal matrix).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `c.rows() != w.rows()`, or
/// [`TensorError::Singular`] if the (regularised) normal matrix is still
/// singular.
pub fn lstsq_left(c: &Mat, w: &Mat, ridge: f32) -> Result<Mat> {
    let mut out = Mat::zeros(c.cols(), w.cols());
    LstsqWorkspace::default().lstsq_left_into(c, w, ridge, &mut out)?;
    Ok(out)
}

/// Least squares for the *right* factor position:
/// `C = argmin_C ||W - C B||_F`, solved as `C = W Bᵀ (B Bᵀ + ridge·I)⁻¹`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `w.cols() != b.cols()`, or
/// [`TensorError::Singular`] if the (regularised) Gram matrix is singular.
pub fn lstsq_right(w: &Mat, b: &Mat, ridge: f32) -> Result<Mat> {
    let mut out = Mat::zeros(w.rows(), b.rows());
    LstsqWorkspace::default().lstsq_right_into(w, b, ridge, &mut out)?;
    Ok(out)
}

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, `m × k` with orthonormal columns.
    pub u: Mat,
    /// Singular values in non-increasing order, length `k = min(m, n)`.
    pub sigma: Vec<f32>,
    /// Right singular vectors, `n × k` with orthonormal columns.
    pub v: Mat,
}

impl Svd {
    /// Reconstructs the best rank-`r` approximation `U_r Σ_r V_rᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `r` exceeds the number of
    /// singular values.
    pub fn truncate(&self, r: usize) -> Result<Mat> {
        if r > self.sigma.len() {
            return Err(TensorError::InvalidShape {
                reason: format!("rank {r} exceeds {} singular values", self.sigma.len()),
            });
        }
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Mat::zeros(m, n);
        for k in 0..r {
            let s = self.sigma[k];
            for i in 0..m {
                let uis = self.u.get(i, k) * s;
                if uis == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = out.get(i, j) + uis * self.v.get(j, k);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }
}

/// One-sided Jacobi SVD of `a` (`m × n`, any aspect ratio).
///
/// Orthogonalises the columns of `A` by Jacobi rotations; suitable for the
/// moderate matrix sizes used in the low-rank compression baseline.
///
/// # Errors
///
/// Returns [`TensorError::NoConvergence`] if off-diagonal mass remains after
/// the sweep budget (does not happen for well-scaled inputs).
///
/// # Examples
///
/// ```
/// use se_tensor::{Mat, linalg};
/// # fn main() -> Result<(), se_tensor::TensorError> {
/// let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
/// let svd = linalg::svd(&a)?;
/// assert!((svd.sigma[0] - 3.0).abs() < 1e-4);
/// assert!((svd.sigma[1] - 2.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn svd(a: &Mat) -> Result<Svd> {
    // Work on the tall orientation; transpose back at the end if needed.
    if a.rows() < a.cols() {
        let s = svd(&a.transpose())?;
        return Ok(Svd { u: s.v, sigma: s.sigma, v: s.u });
    }
    let m = a.rows();
    let n = a.cols();
    // u starts as a copy of A in f64; v accumulates rotations.
    let mut u: Vec<f64> = a.data().iter().map(|&x| x as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let max_sweeps = 60;
    let eps = 1e-12_f64;
    let mut converged = false;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column inner products.
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let up = u[i * n + p];
                    let uq = u[i * n + q];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                off += apq * apq;
                if apq.abs() <= eps * (app * aqq).sqrt().max(1e-300) {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) entry of AᵀA.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[i * n + p];
                    let uq = u[i * n + q];
                    u[i * n + p] = c * up - s * uq;
                    u[i * n + q] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[i * n + p];
                    let vq = v[i * n + q];
                    v[i * n + p] = c * vp - s * vq;
                    v[i * n + q] = s * vp + c * vq;
                }
            }
        }
        if off.sqrt() <= 1e-10 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(TensorError::NoConvergence { routine: "svd", iterations: max_sweeps });
    }
    // Column norms are the singular values; normalise U's columns.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigmas = vec![0.0f64; n];
    for (j, s) in sigmas.iter_mut().enumerate() {
        *s = (0..m).map(|i| u[i * n + j] * u[i * n + j]).sum::<f64>().sqrt();
    }
    order.sort_by(|&x, &y| sigmas[y].partial_cmp(&sigmas[x]).expect("finite singular values"));

    let mut u_out = Mat::zeros(m, n);
    let mut v_out = Mat::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (k, &j) in order.iter().enumerate() {
        let s = sigmas[j];
        sigma.push(s as f32);
        let inv = if s > 1e-30 { 1.0 / s } else { 0.0 };
        for i in 0..m {
            u_out.set(i, k, (u[i * n + j] * inv) as f32);
        }
        for i in 0..n {
            v_out.set(i, k, v[i * n + j] as f32);
        }
    }
    Ok(Svd { u: u_out, sigma, v: v_out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn cholesky_known() {
        let a =
            Mat::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap();
        let l = cholesky(&a).unwrap();
        assert_close(l.get(0, 0), 5.0, 1e-5);
        assert_close(l.get(1, 0), 3.0, 1e-5);
        assert_close(l.get(1, 1), 3.0, 1e-5);
        assert_close(l.get(2, 0), -1.0, 1e-5);
        assert_close(l.get(2, 2), 3.0, 1e-4);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(cholesky(&a), Err(TensorError::Singular));
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(cholesky(&a), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn solve_spd_identity_rhs() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve_spd(&a, &Mat::identity(2)).unwrap();
        // x should be A^{-1}: check A * x = I.
        let prod = a.matmul(&x).unwrap();
        assert_close(prod.get(0, 0), 1.0, 1e-5);
        assert_close(prod.get(0, 1), 0.0, 1e-5);
        assert_close(prod.get(1, 1), 1.0, 1e-5);
    }

    #[test]
    fn lstsq_left_exact_system() {
        // C is square invertible: B must satisfy W = C B exactly.
        let c = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let w = Mat::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]).unwrap();
        let b = lstsq_left(&c, &w, 0.0).unwrap();
        assert_close(b.get(0, 0), 1.0, 1e-5);
        assert_close(b.get(0, 1), 2.0, 1e-5);
        assert_close(b.get(1, 0), 2.0, 1e-5);
        assert_close(b.get(1, 1), 3.0, 1e-5);
    }

    #[test]
    fn lstsq_right_exact_system() {
        let b = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let c_true = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let w = c_true.matmul(&b).unwrap();
        let c = lstsq_right(&w, &b, 0.0).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert_close(c.get(i, j), c_true.get(i, j), 1e-4);
            }
        }
    }

    #[test]
    fn lstsq_left_overdetermined_reduces_residual() {
        // Random-ish overdetermined system: residual of LS solution must be
        // no worse than residual of any other candidate (here: zero).
        let c = Mat::from_rows(&[&[1.0, 0.5], &[0.2, 1.0], &[1.0, 1.0], &[0.3, 0.7]]).unwrap();
        let w = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[0.5]]).unwrap();
        let b = lstsq_left(&c, &w, 0.0).unwrap();
        let resid = w.sub(&c.matmul(&b).unwrap()).unwrap().frobenius_norm();
        assert!(resid < w.frobenius_norm());
    }

    #[test]
    fn ridge_rescues_singular_gram() {
        // C has an all-zero column -> CᵀC singular without ridge.
        let c = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]).unwrap();
        let w = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert_eq!(lstsq_left(&c, &w, 0.0), Err(TensorError::Singular));
        let b = lstsq_left(&c, &w, 1e-6).unwrap();
        assert_close(b.get(0, 0), 1.0, 1e-3);
    }

    #[test]
    fn svd_diagonal() {
        let a = Mat::from_rows(&[&[0.0, 2.0], &[3.0, 0.0], &[0.0, 0.0]]).unwrap();
        let s = svd(&a).unwrap();
        assert_close(s.sigma[0], 3.0, 1e-4);
        assert_close(s.sigma[1], 2.0, 1e-4);
    }

    #[test]
    fn svd_reconstructs() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[1.0, 0.0, -1.0],
        ])
        .unwrap();
        let s = svd(&a).unwrap();
        let full = s.truncate(3).unwrap();
        let err = a.sub(&full).unwrap().frobenius_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn svd_truncation_is_best_low_rank() {
        let a = Mat::from_rows(&[&[10.0, 0.0], &[0.0, 1.0]]).unwrap();
        let s = svd(&a).unwrap();
        let r1 = s.truncate(1).unwrap();
        // Best rank-1 approximation keeps the sigma=10 direction.
        assert_close(r1.get(0, 0), 10.0, 1e-4);
        assert_close(r1.get(1, 1), 0.0, 1e-4);
        assert!(s.truncate(5).is_err());
    }

    #[test]
    fn svd_wide_matrix() {
        let a = Mat::from_rows(&[&[1.0, 0.0, 0.0, 2.0], &[0.0, 3.0, 0.0, 0.0]]).unwrap();
        let s = svd(&a).unwrap();
        assert_eq!(s.u.rows(), 2);
        assert_eq!(s.v.rows(), 4);
        let recon = s.truncate(2).unwrap();
        assert_close(recon.get(0, 3), 2.0, 1e-4);
        assert_close(recon.get(1, 1), 3.0, 1e-4);
    }

    #[test]
    fn svd_singular_values_nonincreasing() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f32 - 2.0);
        let s = svd(&a).unwrap();
        for w in s.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }
}
