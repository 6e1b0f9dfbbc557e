use crate::{Mat, Result, TensorError};

/// A dense, contiguous, row-major n-dimensional array of `f32`.
///
/// `Tensor` is deliberately simple: it owns its data, is always contiguous,
/// and exposes just the operations the SmartExchange pipeline needs
/// (element-wise maps, reductions, reshapes, and 4-D indexing for
/// convolution weights/activations).
///
/// # Examples
///
/// ```
/// use se_tensor::Tensor;
///
/// # fn main() -> Result<(), se_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = se_tensor::Tensor::zeros(&[3, 4]);
    /// assert_eq!(t.len(), 12);
    /// assert!(t.data().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; n] }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the buffer length does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::InvalidShape {
                reason: format!("buffer of {} elements cannot have shape {shape:?}", data.len()),
            });
        }
        Ok(Tensor { shape: shape.to_vec(), data })
    }

    /// The shape (dimension sizes) of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Computes the linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.ndim()` or any index is out of bounds
    /// (this is an internal indexing contract, like slice indexing).
    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            off = off * s + i;
        }
        off
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds, mirroring slice indexing.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Applies a function to every element, returning a new tensor.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = se_tensor::Tensor::full(&[2], -1.0);
    /// let r = t.map(|x| x.max(0.0)); // ReLU
    /// assert_eq!(r.data(), &[0.0, 0.0]);
    /// ```
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Element-wise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "mul", |a, b| a * b)
    }

    fn zip(&self, other: &Tensor, op: &'static str, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        })
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element, or `None` for an empty tensor.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius / L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Fraction of elements equal to exactly zero, in `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = se_tensor::Tensor::from_vec(vec![0.0, 1.0, 0.0, 2.0], &[4]).unwrap();
    /// assert_eq!(t.sparsity(), 0.5);
    /// ```
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Interprets a 2-D tensor as a [`Mat`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the tensor is not 2-D.
    pub fn to_mat(&self) -> Result<Mat> {
        if self.shape.len() != 2 {
            return Err(TensorError::InvalidShape {
                reason: format!("expected 2-D tensor, found shape {:?}", self.shape),
            });
        }
        Mat::from_vec(self.data.clone(), self.shape[0], self.shape[1])
    }
}

impl From<Mat> for Tensor {
    fn from(m: Mat) -> Tensor {
        let (rows, cols) = (m.rows(), m.cols());
        Tensor { shape: vec![rows, cols], data: m.into_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(z.len(), 24);
        assert_eq!(z.ndim(), 3);
        let f = Tensor::full(&[2], 7.5);
        assert_eq!(f.data(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.sum(), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -4.0, 0.0], &[3]).unwrap();
        assert_eq!(t.sum(), -1.0);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.min(), Some(-4.0));
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!((t.sparsity() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 1]), 4.0);
        assert!(t.reshape(&[3, 2]).is_err());
    }

    #[test]
    fn mat_conversion_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let m = t.to_mat().unwrap();
        assert_eq!(m.get(1, 2), 6.0);
        let back: Tensor = m.into();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tensor_behaviour() {
        let t = Tensor::zeros(&[0]);
        assert!(t.is_empty());
        assert_eq!(t.max(), None);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sparsity(), 0.0);
    }
}
