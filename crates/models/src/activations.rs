//! Synthetic activation maps with realistic sparsity structure, and the
//! bit-level sparsity statistics of Fig. 4.
//!
//! Real post-ReLU activations have three kinds of sparsity the accelerator
//! exploits: element-wise zeros (~40–60% after ReLU), *bit-level* sparsity
//! (small magnitudes ⇒ few set bits; Fig. 4 reports 79.8–86.8% zero bits,
//! or 66–76.9% zero Booth digits), and *vector-wise* sparsity (whole dead
//! rows/channels, up to 27–32% in late layers; Section IV-A). The generator
//! reproduces all three: zeros from a per-layer ReLU sparsity, magnitudes
//! from a half-normal, and dead channels whose fraction grows with depth —
//! all deterministic. Integration tests validate the generator against
//! activations captured from genuinely trained `se-nn` models.

use crate::{weights, Result};
use rand::rngs::StdRng;
use rand::RngExt;
use se_ir::{booth, LayerDesc, NetworkDesc, QuantTensor};
use se_tensor::{rng, Tensor};

/// Per-layer activation statistics driving the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationProfile {
    /// Fraction of exactly-zero elements (post-ReLU sparsity).
    pub relu_sparsity: f32,
    /// Fraction of channels that are entirely zero (dead channels).
    pub dead_channel_fraction: f32,
    /// Scale (σ) of the half-normal magnitudes.
    pub scale: f32,
}

/// The profile for a layer at a given depth: ReLU sparsity ~40–60%, dead
/// channels growing from 0 toward ~25% at the end of the network
/// (the depth trend Section IV-A describes for MobileNetV2/ResNet164).
pub fn profile_for_depth(
    layer_index: usize,
    total_layers: usize,
    r: &mut StdRng,
) -> ActivationProfile {
    let depth =
        if total_layers <= 1 { 0.0 } else { layer_index as f32 / (total_layers - 1) as f32 };
    ActivationProfile {
        relu_sparsity: 0.40 + 0.20 * r.random::<f32>(),
        dead_channel_fraction: 0.25 * depth * r.random::<f32>(),
        scale: 0.5 + 1.5 * r.random::<f32>(),
    }
}

/// Generates the synthetic input activation map for one layer.
///
/// The first layer of a network receives image-like data (dense, uniform
/// `[0, 1)`); deeper layers receive sparse half-normal maps per
/// [`profile_for_depth`].
///
/// # Errors
///
/// Infallible for valid descriptors; kept fallible for interface stability.
pub fn synthetic_activation(
    net: &NetworkDesc,
    layer_index: usize,
    base_seed: u64,
) -> Result<Tensor> {
    let desc = &net.layers()[layer_index];
    let seed = weights::layer_seed(net.name(), desc.name(), base_seed ^ 0xac71_7a70);
    let mut r = rng::seeded(seed);
    let (h, w) = desc.input_hw();
    let c = desc.in_channels();
    if layer_index == 0 {
        let data = rng::uniform_vec(&mut r, c * h * w, 0.0, 1.0);
        return Ok(Tensor::from_vec(data, &shape_for(desc, c, h, w))?);
    }
    let profile = profile_for_depth(layer_index, net.layers().len(), &mut r);
    let mut data = vec![0.0f32; c * h * w];
    let per = h * w;
    for ch in 0..c {
        if r.random::<f32>() < profile.dead_channel_fraction {
            continue; // dead channel stays all-zero
        }
        for v in &mut data[ch * per..(ch + 1) * per] {
            if r.random::<f32>() >= profile.relu_sparsity {
                *v = rng::normal(&mut r).abs() * profile.scale;
            }
        }
    }
    Ok(Tensor::from_vec(data, &shape_for(desc, c, h, w))?)
}

fn shape_for(desc: &LayerDesc, c: usize, h: usize, w: usize) -> Vec<usize> {
    match desc.kind() {
        se_ir::LayerKind::Linear { .. } => vec![c * h * w],
        _ => vec![c, h, w],
    }
}

/// Bit-sparsity statistics for one network (one group of bars in Fig. 4):
/// activations of every CONV-like layer are generated, quantized to 8 bits,
/// and aggregated.
///
/// # Errors
///
/// Propagates generation/quantization failures.
pub fn network_bit_sparsity(net: &NetworkDesc, base_seed: u64) -> Result<booth::BitSparsity> {
    let mut set_bits = 0u64;
    let mut set_digits = 0u64;
    let mut zero_codes = 0u64;
    let mut total = 0u64;
    for (i, desc) in net.layers().iter().enumerate() {
        if !desc.kind().is_conv_like() {
            continue;
        }
        let act = synthetic_activation(net, i, base_seed)?;
        let q = QuantTensor::quantize(&act, 8)?;
        for &code in q.data() {
            set_bits += u64::from(booth::nonzero_bits(code));
            set_digits += u64::from(booth::booth_nonzero_digits(code));
            if code == 0 {
                zero_codes += 1;
            }
        }
        total += q.len() as u64;
    }
    if total == 0 {
        return Ok(booth::BitSparsity::default());
    }
    Ok(booth::BitSparsity {
        plain: 1.0 - set_bits as f32 / (8.0 * total as f32),
        booth: 1.0 - set_digits as f32 / (4.0 * total as f32),
        element: zero_codes as f32 / total as f32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn first_layer_is_dense_image_like() {
        let net = zoo::vgg19_cifar();
        let act = synthetic_activation(&net, 0, 1).unwrap();
        assert_eq!(act.shape(), &[3, 32, 32]);
        assert!(act.sparsity() < 0.01);
        assert!(act.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn deep_layers_are_relu_sparse() {
        let net = zoo::vgg19_cifar();
        let act = synthetic_activation(&net, 8, 1).unwrap();
        let sp = act.sparsity();
        assert!((0.3..0.9).contains(&sp), "sparsity {sp}");
        assert!(act.min().unwrap() >= 0.0, "post-ReLU activations are non-negative");
    }

    #[test]
    fn activations_are_deterministic() {
        let net = zoo::resnet164();
        let a = synthetic_activation(&net, 5, 3).unwrap();
        let b = synthetic_activation(&net, 5, 3).unwrap();
        assert_eq!(a, b);
        let c = synthetic_activation(&net, 5, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fc_layers_get_flat_activations() {
        let net = zoo::mlp2();
        let act = synthetic_activation(&net, 1, 0).unwrap();
        assert_eq!(act.shape(), &[300]);
    }

    #[test]
    fn bit_sparsity_in_paper_range() {
        // Fig. 4 reports 79.8–86.8% plain and 66–76.9% Booth for real
        // models; the synthetic generator must land in that neighbourhood.
        let net = zoo::vgg19_cifar();
        let s = network_bit_sparsity(&net, 0).unwrap();
        assert!((0.70..0.95).contains(&s.plain), "plain {}", s.plain);
        assert!((0.55..0.90).contains(&s.booth), "booth {}", s.booth);
        assert!(s.plain > s.booth, "plain bit sparsity exceeds Booth digit sparsity");
    }

    /// Vector-wise activation sparsity of a `(C, H, W)` map: the fraction of
    /// feature-map rows (length `W`, per channel) that are entirely zero —
    /// the rows whose weight-vector fetches the accelerator can skip.
    fn vector_activation_sparsity(q: &QuantTensor) -> f32 {
        let s = q.shape();
        if s.len() != 3 {
            return 0.0;
        }
        let (c, h, w) = (s[0], s[1], s[2]);
        if c * h == 0 || w == 0 {
            return 0.0;
        }
        let mut zero_rows = 0usize;
        for row in 0..c * h {
            if q.data()[row * w..(row + 1) * w].iter().all(|&x| x == 0) {
                zero_rows += 1;
            }
        }
        zero_rows as f32 / (c * h) as f32
    }

    #[test]
    fn vector_sparsity_detects_dead_rows() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        // One non-zero row in channel 0.
        t.set(&[0, 1, 2], 5.0);
        let q = QuantTensor::quantize(&t, 8).unwrap();
        let vs = vector_activation_sparsity(&q);
        assert!((vs - 5.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn late_layers_have_more_dead_channels() {
        let net = zoo::mobilenet_v2();
        let n = net.layers().len();
        // Average vector sparsity over a few early vs late conv layers.
        let avg = |range: std::ops::Range<usize>| {
            let mut sum = 0.0f32;
            let mut cnt = 0;
            for i in range {
                if !net.layers()[i].kind().is_conv_like() {
                    continue;
                }
                let act = synthetic_activation(&net, i, 0).unwrap();
                let q = QuantTensor::quantize(&act, 8).unwrap();
                sum += vector_activation_sparsity(&q);
                cnt += 1;
            }
            sum / cnt.max(1) as f32
        };
        let early = avg(1..6);
        let late = avg(n - 6..n - 1);
        assert!(late > early, "late {late} vs early {early}");
    }
}
