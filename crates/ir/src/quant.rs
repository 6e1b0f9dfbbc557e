use crate::{IrError, Result};
use se_tensor::Tensor;

/// A symmetric fixed-point quantized tensor (at most 8-bit codes).
///
/// The paper runs the accelerator comparison with 8-bit activations and
/// 8-bit baseline weights; `QuantTensor` is the representation the
/// simulators consume. Codes are stored as `i8`; the real value of a code
/// `q` is `q · scale`.
///
/// # Examples
///
/// ```
/// use se_ir::QuantTensor;
/// use se_tensor::Tensor;
///
/// # fn main() -> Result<(), se_ir::IrError> {
/// let t = Tensor::from_vec(vec![0.0, 0.5, -1.0, 0.25], &[4])?;
/// let q = QuantTensor::quantize(&t, 8)?;
/// assert_eq!(q.data()[0], 0);
/// assert_eq!(q.data()[2], -127);       // max magnitude pins the scale
/// assert_eq!(q.zero_count(), 1);
/// let back = q.dequantize();
/// assert!((back.data()[1] - 0.5).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    shape: Vec<usize>,
    data: Vec<i8>,
    scale: f32,
    bits: u32,
}

impl QuantTensor {
    /// Quantizes a tensor symmetrically to `bits`-bit signed codes
    /// (`2 <= bits <= 8`). The scale is chosen so the largest magnitude maps
    /// to the largest code.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidDescriptor`] if `bits` is outside `2..=8`.
    pub fn quantize(t: &Tensor, bits: u32) -> Result<Self> {
        if !(2..=8).contains(&bits) {
            return Err(IrError::InvalidDescriptor {
                reason: format!("quantization bits must be in 2..=8, got {bits}"),
            });
        }
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let max_abs = t.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        let data = t
            .data()
            .iter()
            .map(|&x| {
                let q = (x / scale).round().clamp(-qmax, qmax);
                q as i8
            })
            .collect();
        Ok(QuantTensor { shape: t.shape().to_vec(), data, scale, bits })
    }

    /// Reassembles a tensor from its raw parts — the exact inverse of
    /// reading back [`QuantTensor::shape`], [`QuantTensor::data`],
    /// [`QuantTensor::scale`], and [`QuantTensor::bits`] — used by the
    /// on-disk codec (`se_ir::serialize`) for bit-identical round trips.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidDescriptor`] if `bits` is outside `2..=8`,
    /// the data length does not match the shape volume, a code exceeds the
    /// `bits`-bit signed range, or the scale is not finite and positive.
    pub fn from_parts(shape: Vec<usize>, data: Vec<i8>, scale: f32, bits: u32) -> Result<Self> {
        if !(2..=8).contains(&bits) {
            return Err(IrError::InvalidDescriptor {
                reason: format!("quantization bits must be in 2..=8, got {bits}"),
            });
        }
        let volume: usize = shape.iter().product();
        if data.len() != volume {
            return Err(IrError::InvalidDescriptor {
                reason: format!(
                    "{} codes cannot form a tensor of shape {shape:?} ({volume} elements)",
                    data.len()
                ),
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(IrError::InvalidDescriptor {
                reason: format!("scale {scale} must be finite and positive"),
            });
        }
        let qmax = ((1i32 << (bits - 1)) - 1) as u8;
        // One branch-free pass over the codes (it vectorizes); the first
        // offender is looked for only once the pass has failed.
        let widest = data.iter().fold(0, |m, &q| m.max(q.unsigned_abs()));
        if widest > qmax {
            if let Some(q) = data.iter().find(|q| q.unsigned_abs() > qmax) {
                return Err(IrError::InvalidDescriptor {
                    reason: format!("code {q} exceeds the {bits}-bit signed range ±{qmax}"),
                });
            }
        }
        Ok(QuantTensor { shape, data, scale, bits })
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The quantized codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The scale factor (`value = code · scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Code width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of codes equal to zero.
    pub fn zero_count(&self) -> usize {
        self.data.iter().filter(|&&q| q == 0).count()
    }

    /// Fraction of zero codes in `[0, 1]` (the paper's element-wise
    /// activation sparsity).
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.zero_count() as f32 / self.data.len() as f32
    }

    /// Reconstructs an approximate `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let data = self.data.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(data, &self.shape).expect("shape preserved from construction")
    }

    /// Total storage in bits (codes only, no scale/metadata).
    pub fn storage_bits(&self) -> u64 {
        self.data.len() as u64 * u64::from(self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let orig = t(vec![0.9, -0.3, 0.02, 0.55, -1.0, 0.0]);
        let q = QuantTensor::quantize(&orig, 8).unwrap();
        let back = q.dequantize();
        for (a, b) in orig.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn max_magnitude_maps_to_max_code() {
        let q = QuantTensor::quantize(&t(vec![2.0, -4.0, 1.0]), 8).unwrap();
        assert_eq!(q.data()[1], -127);
        assert_eq!(q.data()[0], 64); // 2.0 / (4.0/127) = 63.5 -> 64
    }

    #[test]
    fn lower_bit_widths() {
        let q = QuantTensor::quantize(&t(vec![1.0, 0.5, -1.0]), 4).unwrap();
        assert_eq!(q.bits(), 4);
        assert_eq!(q.data()[0], 7);
        assert_eq!(q.data()[2], -7);
        assert_eq!(q.storage_bits(), 12);
    }

    #[test]
    fn all_zero_tensor() {
        let q = QuantTensor::quantize(&t(vec![0.0; 5]), 8).unwrap();
        assert_eq!(q.sparsity(), 1.0);
        assert_eq!(q.dequantize().data(), &[0.0; 5]);
    }

    #[test]
    fn invalid_bits_rejected() {
        assert!(QuantTensor::quantize(&t(vec![1.0]), 1).is_err());
        assert!(QuantTensor::quantize(&t(vec![1.0]), 9).is_err());
    }

    #[test]
    fn from_parts_names_the_first_out_of_range_code() {
        // 4-bit codes span ±7; -8 and 12 both exceed it, -8 comes first.
        let err = QuantTensor::from_parts(vec![5], vec![7, -7, -8, 0, 12], 1.0, 4).unwrap_err();
        assert_eq!(
            err,
            IrError::InvalidDescriptor {
                reason: "code -8 exceeds the 4-bit signed range ±7".into()
            }
        );
        // At 8 bits only -128 is out of range, wherever it sits.
        let mut data = vec![127i8; 4096];
        data[4000] = -128;
        let err = QuantTensor::from_parts(vec![4096], data, 1.0, 8).unwrap_err();
        assert!(err.to_string().contains("code -128 exceeds the 8-bit"), "{err}");
        assert!(QuantTensor::from_parts(vec![2], vec![127, -127], 1.0, 8).is_ok());
    }

    #[test]
    fn sparsity_counts_exact_zero_codes() {
        // 0.001 with scale 1/127 quantizes to code 0.
        let q = QuantTensor::quantize(&t(vec![1.0, 0.001, 0.5]), 8).unwrap();
        assert_eq!(q.zero_count(), 1);
        assert!((q.sparsity() - 1.0 / 3.0).abs() < 1e-6);
    }
}
