use crate::{CoreError, Result};
use se_ir::Po2Set;

/// The vector-wise (row) sparsification policy for the coefficient matrix
/// `Ce` (Step 3 of Algorithm 1).
///
/// The paper uses manually-controlled per-layer hard thresholds
/// ("we use hard thresholds for channel and vector-wise sparsity … for
/// implementation convenience"); [`VectorSparsity::Threshold`] reproduces
/// that. [`VectorSparsity::KeepFraction`] instead targets an exact sparsity
/// ratio, which is what the paper's sparsity-sweep experiment (Fig. 14)
/// needs, and corresponds to choosing `Sc` in Eq. (2) directly.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum VectorSparsity {
    /// No vector-wise sparsification.
    None,
    /// Zero every `Ce` row whose root-mean-square falls below this absolute
    /// threshold (the paper's `θ`, e.g. `4e-3` for VGG19/CIFAR-10).
    Threshold(f32),
    /// Keep only the given fraction of rows (by L2 norm), zeroing the rest;
    /// `KeepFraction(0.4)` produces 60% vector-wise sparsity.
    KeepFraction(f32),
    /// Zero rows whose RMS falls below `fraction ×` the mean RMS of the
    /// currently non-zero rows — a scale-free version of the paper's
    /// per-layer manual thresholds that works across layers of very
    /// different weight magnitudes.
    RelativeThreshold(f32),
}

impl VectorSparsity {
    fn validate(&self) -> Result<()> {
        match *self {
            VectorSparsity::None => Ok(()),
            VectorSparsity::Threshold(t) if t.is_finite() && t >= 0.0 => Ok(()),
            VectorSparsity::Threshold(t) => Err(CoreError::InvalidConfig {
                reason: format!("vector sparsity threshold {t} must be finite and >= 0"),
            }),
            VectorSparsity::KeepFraction(f) if (0.0..=1.0).contains(&f) => Ok(()),
            VectorSparsity::KeepFraction(f) => Err(CoreError::InvalidConfig {
                reason: format!("keep fraction {f} must be in [0, 1]"),
            }),
            VectorSparsity::RelativeThreshold(f) if f.is_finite() && f >= 0.0 => Ok(()),
            VectorSparsity::RelativeThreshold(f) => Err(CoreError::InvalidConfig {
                reason: format!("relative threshold {f} must be finite and >= 0"),
            }),
        }
    }
}

/// Configuration of the SmartExchange algorithm.
///
/// Defaults follow the paper: 4-bit power-of-2 coefficients, 30 iterations,
/// `tol = 1e-10`, FC reshape width `S = 3`, threshold-based vector sparsity
/// with `θ = 4e-3` (the VGG19/CIFAR-10 setting of Section III-C).
///
/// # Examples
///
/// ```
/// use se_core::{SeConfig, VectorSparsity};
///
/// # fn main() -> Result<(), se_core::CoreError> {
/// let cfg = SeConfig::default()
///     .with_max_iterations(10)?
///     .with_vector_sparsity(VectorSparsity::KeepFraction(0.5))?;
/// assert_eq!(cfg.max_iterations(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeConfig {
    po2: Po2Set,
    max_iterations: usize,
    tol: f32,
    ridge: f32,
    vector_sparsity: VectorSparsity,
    channel_prune_threshold: Option<f32>,
    fc_width: usize,
    max_unit_rows: usize,
    quantize_basis: bool,
    parallelism: usize,
}

impl Default for SeConfig {
    fn default() -> Self {
        SeConfig {
            po2: Po2Set::default(),
            max_iterations: 30,
            tol: 1e-10,
            ridge: 1e-6,
            vector_sparsity: VectorSparsity::Threshold(4e-3),
            channel_prune_threshold: None,
            fc_width: 3,
            max_unit_rows: 768,
            quantize_basis: true,
            parallelism: default_parallelism(),
        }
    }
}

/// The default worker count for the parallel work queue: the
/// `SE_PARALLELISM` environment variable when set to a positive integer
/// (CI pins it to enforce bit-identical results across worker counts),
/// otherwise every available core (layers are independent jobs; see
/// [`crate::pipeline`]).
fn default_parallelism() -> usize {
    match std::env::var("SE_PARALLELISM").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

impl SeConfig {
    /// The power-of-2 alphabet for `Ce` entries.
    pub fn po2(&self) -> &Po2Set {
        &self.po2
    }

    /// Maximum alternating iterations (paper: 30).
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Convergence tolerance on the quantization difference `‖δ(Ce)‖`
    /// (paper: `1e-10`).
    pub fn tol(&self) -> f32 {
        self.tol
    }

    /// Tikhonov ridge added to the least-squares normal matrices so
    /// fully-pruned rows/columns cannot make them singular.
    pub fn ridge(&self) -> f32 {
        self.ridge
    }

    /// Vector-wise sparsification policy.
    pub fn vector_sparsity(&self) -> VectorSparsity {
        self.vector_sparsity
    }

    /// Channel-pruning threshold (fraction of the mean channel saliency
    /// below which a channel is pruned), or `None` to skip channel pruning.
    pub fn channel_prune_threshold(&self) -> Option<f32> {
        self.channel_prune_threshold
    }

    /// Reshape width `S` for FC layers and 1×1 CONVs (paper: the CONV
    /// kernel size, i.e. 3).
    pub fn fc_width(&self) -> usize {
        self.fc_width
    }

    /// Maximum rows per decomposition unit before slicing along the first
    /// dimension (Section III-C: "sliced into smaller matrices along the
    /// first dimension" when `S×C ≫ S`).
    pub fn max_unit_rows(&self) -> usize {
        self.max_unit_rows
    }

    /// Whether to quantize the basis matrices to 8-bit fixed point at the
    /// end (the stored representation the paper's CR accounting assumes).
    pub fn quantize_basis(&self) -> bool {
        self.quantize_basis
    }

    /// Sets the iteration budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `n == 0`.
    pub fn with_max_iterations(mut self, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_iterations must be at least 1".into(),
            });
        }
        self.max_iterations = n;
        Ok(self)
    }

    /// Sets the vector-wise sparsification policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range parameters.
    pub fn with_vector_sparsity(mut self, v: VectorSparsity) -> Result<Self> {
        v.validate()?;
        self.vector_sparsity = v;
        self.validate_self()
    }

    /// Enables channel pruning with the given relative threshold (channels
    /// whose saliency is below `threshold ×` the mean saliency are pruned),
    /// or disables it with `None`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for negative or non-finite
    /// thresholds.
    pub fn with_channel_prune(mut self, threshold: Option<f32>) -> Result<Self> {
        if let Some(t) = threshold {
            if !t.is_finite() || t < 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("channel prune threshold {t} must be finite and >= 0"),
                });
            }
        }
        self.channel_prune_threshold = threshold;
        Ok(self)
    }

    /// Sets the slicing bound (rows per decomposition unit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `rows == 0`.
    pub fn with_max_unit_rows(mut self, rows: usize) -> Result<Self> {
        if rows == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_unit_rows must be positive".into(),
            });
        }
        self.max_unit_rows = rows;
        Ok(self)
    }

    /// Enables or disables final 8-bit basis quantization.
    pub fn with_quantize_basis(mut self, q: bool) -> Self {
        self.quantize_basis = q;
        self
    }

    /// Worker-thread count for whole-network compression (default: all
    /// available cores). Results are bit-identical for every value; see
    /// [`crate::pipeline`].
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Sets the worker-thread count for whole-network compression.
    ///
    /// `1` forces the fully serial path; results are bit-identical for
    /// every value (only wall-clock time changes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `n == 0`.
    pub fn with_parallelism(mut self, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "parallelism must be at least 1".into(),
            });
        }
        self.parallelism = n;
        Ok(self)
    }

    fn validate_self(self) -> Result<Self> {
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SeConfig::default();
        assert_eq!(c.max_iterations(), 30);
        assert_eq!(c.tol(), 1e-10);
        assert_eq!(c.fc_width(), 3);
        assert_eq!(c.po2().code_bits(), 4);
        assert!(matches!(c.vector_sparsity(), VectorSparsity::Threshold(t) if t == 4e-3));
        assert!(c.quantize_basis());
    }

    #[test]
    fn builder_validation() {
        assert!(SeConfig::default().with_max_iterations(0).is_err());
        assert!(SeConfig::default()
            .with_vector_sparsity(VectorSparsity::KeepFraction(1.5))
            .is_err());
        assert!(SeConfig::default().with_vector_sparsity(VectorSparsity::Threshold(-0.1)).is_err());
        assert!(SeConfig::default().with_channel_prune(Some(-1.0)).is_err());
        assert!(SeConfig::default().with_max_unit_rows(0).is_err());
        assert!(SeConfig::default().with_parallelism(0).is_err());
    }

    #[test]
    fn parallelism_defaults_to_available_cores() {
        let c = SeConfig::default();
        assert!(c.parallelism() >= 1);
        let forced = SeConfig::default().with_parallelism(4).unwrap();
        assert_eq!(forced.parallelism(), 4);
    }

    #[test]
    fn builder_chains() {
        let c = SeConfig::default()
            .with_max_iterations(5)
            .unwrap()
            .with_vector_sparsity(VectorSparsity::KeepFraction(0.4))
            .unwrap()
            .with_quantize_basis(false);
        assert_eq!(c.max_iterations(), 5);
        assert!(!c.quantize_basis());
    }
}
