use crate::{IrError, LayerDesc, Result};

/// The dataset a benchmark network targets; fixes the nominal input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Dataset {
    /// ImageNet classification (224 × 224 × 3 inputs).
    ImageNet,
    /// CIFAR-10 classification (32 × 32 × 3 inputs).
    Cifar10,
    /// CamVid segmentation (evaluated at 360 × 480 × 3; see DESIGN.md for
    /// the downscaling note).
    CamVid,
    /// MNIST classification (28 × 28 × 1 inputs).
    Mnist,
}

impl Dataset {
    /// Nominal input shape `(C, H, W)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        match self {
            Dataset::ImageNet => (3, 224, 224),
            Dataset::Cifar10 => (3, 32, 32),
            Dataset::CamVid => (3, 360, 480),
            Dataset::Mnist => (1, 28, 28),
        }
    }

    /// Number of target classes.
    pub fn classes(&self) -> usize {
        match self {
            Dataset::ImageNet => 1000,
            Dataset::Cifar10 => 10,
            Dataset::CamVid => 11,
            Dataset::Mnist => 10,
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Dataset::ImageNet => "ImageNet",
            Dataset::Cifar10 => "CIFAR-10",
            Dataset::CamVid => "CamVid",
            Dataset::Mnist => "MNIST",
        };
        f.write_str(s)
    }
}

/// A network descriptor: an ordered list of weight-bearing layers plus the
/// dataset it targets.
///
/// # Examples
///
/// ```
/// use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
///
/// # fn main() -> Result<(), se_ir::IrError> {
/// let net = NetworkDesc::new(
///     "tiny",
///     Dataset::Cifar10,
///     vec![
///         LayerDesc::new(
///             "conv1",
///             LayerKind::Conv2d { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
///             (32, 32),
///         ),
///         LayerDesc::new(
///             "fc",
///             LayerKind::Linear { in_features: 8, out_features: 10 },
///             (1, 1),
///         ),
///     ],
/// )?;
/// assert_eq!(net.total_params(), 3 * 8 * 9 + 80);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDesc {
    name: String,
    dataset: Dataset,
    layers: Vec<LayerDesc>,
}

impl NetworkDesc {
    /// Creates a network descriptor, validating every layer's geometry and
    /// name uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidDescriptor`] if a layer's geometry is
    /// invalid or two layers share a name.
    pub fn new(name: impl Into<String>, dataset: Dataset, layers: Vec<LayerDesc>) -> Result<Self> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for l in &layers {
            l.output_hw()?; // validates geometry
            if !seen.insert(l.name().to_string()) {
                return Err(IrError::InvalidDescriptor {
                    reason: format!("network {name}: duplicate layer name {}", l.name()),
                });
            }
        }
        Ok(NetworkDesc { name, dataset, layers })
    }

    /// Network name (e.g. `"ResNet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Target dataset.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The ordered layers.
    pub fn layers(&self) -> &[LayerDesc] {
        &self.layers
    }

    /// Total weight parameters across all layers.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params()).sum()
    }

    /// Total MACs for one inference (batch 1). Layer geometries were
    /// validated at construction, so this cannot fail.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs().expect("validated at construction")).sum()
    }

    /// Model size in megabytes at FP32 (the paper's `Param.` column unit).
    pub fn fp32_megabytes(&self) -> f64 {
        self.total_params() as f64 * 4.0 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    fn tiny() -> NetworkDesc {
        NetworkDesc::new(
            "tiny",
            Dataset::Cifar10,
            vec![
                LayerDesc::new(
                    "c1",
                    LayerKind::Conv2d {
                        in_channels: 3,
                        out_channels: 16,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    (32, 32),
                ),
                LayerDesc::new(
                    "fc",
                    LayerKind::Linear { in_features: 16, out_features: 10 },
                    (1, 1),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn totals() {
        let n = tiny();
        assert_eq!(n.total_params(), (3 * 16 * 9 + 160) as u64);
        assert_eq!(n.total_macs(), (16 * 32 * 32 * 27 + 160) as u64);
        assert!(n.fp32_megabytes() > 0.0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let l =
            LayerDesc::new("dup", LayerKind::Linear { in_features: 4, out_features: 4 }, (1, 1));
        assert!(NetworkDesc::new("n", Dataset::Mnist, vec![l.clone(), l]).is_err());
    }

    #[test]
    fn invalid_layer_rejected() {
        let l = LayerDesc::new(
            "bad",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 9, stride: 1, padding: 0 },
            (4, 4),
        );
        assert!(NetworkDesc::new("n", Dataset::Mnist, vec![l]).is_err());
    }

    #[test]
    fn conv_like_filter_excludes_fc() {
        let n = tiny();
        let names: Vec<_> = n
            .layers()
            .iter()
            .filter(|l| l.kind().is_conv_like())
            .map(|l| l.name().to_string())
            .collect();
        assert_eq!(names, vec!["c1"]);
    }

    #[test]
    fn dataset_properties() {
        assert_eq!(Dataset::ImageNet.input_shape(), (3, 224, 224));
        assert_eq!(Dataset::Cifar10.classes(), 10);
        assert_eq!(Dataset::Mnist.input_shape().0, 1);
        assert_eq!(Dataset::CamVid.to_string(), "CamVid");
    }
}
