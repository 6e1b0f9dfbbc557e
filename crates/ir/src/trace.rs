use crate::{IrError, LayerDesc, QuantTensor, Result, SeLayer};
use std::sync::Arc;

/// A layer's weights as consumed by an accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightData {
    /// Dense 8-bit weights (what the baseline accelerators process; zero
    /// codes are what the sparsity-exploiting baselines skip).
    Dense(QuantTensor),
    /// SmartExchange-compressed weights. A plain CONV/FC layer has one
    /// [`SeLayer`]; a squeeze-and-excite block has two (its two FC
    /// matrices).
    Se(Vec<SeLayer>),
}

impl WeightData {
    /// Whether the weights are in SmartExchange form.
    pub fn is_se(&self) -> bool {
        matches!(self, WeightData::Se(_))
    }
}

/// One layer's complete simulation record: geometry, weights, and the input
/// activation map observed during inference.
///
/// Traces are produced by the model zoo (`se-models`) one layer at a time
/// (activation tensors for ImageNet-scale layers are large) and consumed by
/// both the SmartExchange accelerator simulator (`se-hw`) and the baseline
/// simulators (`se-baselines`), guaranteeing every accelerator sees the
/// *same* data — the paper's equal-footing methodology. The input map is
/// held behind an [`Arc`], so the dense and SE traces of one layer can
/// share a single copy of it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    desc: LayerDesc,
    weights: WeightData,
    input: Arc<QuantTensor>,
}

impl LayerTrace {
    /// Creates a trace, validating that the input tensor volume matches the
    /// layer geometry. The input is an owned tensor or an [`Arc`] shared
    /// with another trace.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if the input element count does
    /// not equal the descriptor's expected input volume.
    pub fn new(
        desc: LayerDesc,
        weights: WeightData,
        input: impl Into<Arc<QuantTensor>>,
    ) -> Result<Self> {
        let input = input.into();
        let expect = desc.input_elems();
        if input.len() as u64 != expect {
            return Err(IrError::LayoutMismatch {
                reason: format!(
                    "layer {}: input has {} elements, geometry expects {expect}",
                    desc.name(),
                    input.len()
                ),
            });
        }
        Ok(LayerTrace { desc, weights, input })
    }

    /// The layer descriptor.
    pub fn desc(&self) -> &LayerDesc {
        &self.desc
    }

    /// The weights.
    pub fn weights(&self) -> &WeightData {
        &self.weights
    }

    /// The 8-bit input activation map, shaped `(C, H, W)` (or `(C,)` for
    /// FC layers).
    pub fn input(&self) -> &QuantTensor {
        &self.input
    }

    /// The shared handle to the input map: two traces built from one
    /// [`Arc`] hold the same allocation.
    pub fn shared_input(&self) -> &Arc<QuantTensor> {
        &self.input
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerKind, Po2Set, SeLayout, SeSlice};
    use se_tensor::{Mat, Tensor};

    fn desc() -> LayerDesc {
        LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        )
    }

    fn quant(n: usize) -> QuantTensor {
        QuantTensor::quantize(&Tensor::full(&[n], 1.0), 8).unwrap()
    }

    #[test]
    fn trace_validates_input_volume() {
        let w = WeightData::Dense(quant(9));
        assert!(LayerTrace::new(desc(), w.clone(), quant(16)).is_ok());
        assert!(matches!(
            LayerTrace::new(desc(), w, quant(15)),
            Err(IrError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn weight_data_kind_queries() {
        let po2 = Po2Set::default();
        let slice = SeSlice::new(Mat::zeros(3, 3), Mat::identity(3), &po2).unwrap();
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2,
            vec![slice],
        )
        .unwrap();
        assert!(WeightData::Se(vec![layer]).is_se());
        assert!(!WeightData::Dense(quant(4)).is_se());
    }
}
