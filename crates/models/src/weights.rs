//! Deterministic synthetic weights for the zoo models.
//!
//! Pre-trained checkpoints are a gate (DESIGN.md); we substitute Kaiming
//! fan-in-scaled Gaussians, which match the magnitude statistics real
//! trained CONV/FC weights exhibit closely enough for compression-rate and
//! accelerator-energy measurements (both depend on magnitudes and shapes,
//! not on task semantics).

use crate::Result;
use se_ir::{LayerDesc, LayerKind};
use se_tensor::{rng, Tensor};

/// A stable per-layer seed derived from the network and layer names, so
/// every layer's weights are reproducible in isolation (the streaming
/// compression path regenerates layers independently).
pub fn layer_seed(net_name: &str, layer_name: &str, base: u64) -> u64 {
    // FNV-1a over the two names, mixed with the base seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in net_name.bytes().chain([b'/']).chain(layer_name.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fan-in of a layer (the denominator of the Kaiming initialisation).
fn fan_in(desc: &LayerDesc) -> usize {
    match *desc.kind() {
        LayerKind::Conv2d { in_channels, kernel, .. } => in_channels * kernel * kernel,
        LayerKind::DepthwiseConv2d { kernel, .. } => kernel * kernel,
        LayerKind::Linear { in_features, .. } => in_features,
        LayerKind::SqueezeExcite { channels, .. } => channels,
    }
}

/// The "natural" element-wise weight sparsity of each benchmark network —
/// trained-and-pruned checkpoints are the gate (DESIGN.md), so synthetic
/// weights are magnitude-pruned to the per-model sparsity the paper's
/// Tables II/III report. Compact models (MobileNetV2, EfficientNet-B0)
/// carry no sparsity, exactly as in Table III (`Spar. 0.00%`).
pub fn natural_sparsity(net_name: &str) -> f32 {
    match net_name.to_ascii_lowercase().as_str() {
        "vgg11" => 0.86,
        "resnet50" => 0.55,
        "vgg19" => 0.93,
        "resnet164" => 0.50,
        "mobilenetv2" | "efficientnet-b0" => 0.0,
        "deeplabv3+" => 0.55, // ResNet50 backbone sparsity
        "mlp-1" => 0.82,
        "mlp-2" => 0.90,
        _ => 0.0,
    }
}

/// Generates the synthetic weight tensor for one layer (shape per
/// [`LayerDesc::weight_shape`]): Kaiming-scaled Gaussians magnitude-pruned
/// to the network's [`natural_sparsity`] at *weight-vector* granularity
/// (length-`S` vectors along the kernel's last dimension).
///
/// Vector granularity models the structure SmartExchange re-training
/// enforces — and the paper's observation (after Mao et al. \[37\]) that
/// vector-wise pruning reaches the same sparsity at the same accuracy as
/// element-wise pruning. The baselines still see and exploit the resulting
/// *element* sparsity; the SE form additionally benefits from the
/// clustering, exactly the comparison the paper draws.
///
/// # Errors
///
/// Infallible for valid descriptors; kept fallible for interface stability.
pub fn synthetic_weights(net_name: &str, desc: &LayerDesc, base_seed: u64) -> Result<Tensor> {
    synthetic_weights_with_sparsity(net_name, desc, base_seed, natural_sparsity(net_name))
}

/// [`synthetic_weights`] with an explicit sparsity target instead of the
/// network's [`natural_sparsity`] — used by sweeps such as Fig. 14 that
/// vary the sparsity of one model.
///
/// # Errors
///
/// Infallible for valid descriptors; kept fallible for interface stability.
pub fn synthetic_weights_with_sparsity(
    net_name: &str,
    desc: &LayerDesc,
    base_seed: u64,
    sparsity: f32,
) -> Result<Tensor> {
    let mut r = rng::seeded(layer_seed(net_name, desc.name(), base_seed));
    let mut w = rng::kaiming_tensor(&mut r, &desc.weight_shape(), fan_in(desc));
    let sparsity = sparsity.clamp(0.0, 1.0);
    if sparsity > 0.0 {
        // A share of the sparsity is *global channel pruning* — the same
        // input channels zeroed across every filter, as Network-Slimming
        // style training produces (removing a channel of the previous
        // layer's output removes it from all of this layer's filters).
        // This is what lets the accelerator skip whole input-activation
        // fetches (Section IV-A), and lets that skipping scale with a
        // sparsity sweep as in the paper.
        if let LayerKind::Conv2d { in_channels, out_channels, kernel, .. } = *desc.kind() {
            prune_input_channels(&mut w, out_channels, in_channels, kernel, 0.4 * sparsity);
        }
        // The full target at weight-vector granularity (already-zero
        // channel vectors sort first, so the channel share is subsumed):
        // the kernel width for CONV (matching the (C·R) × S reshape), the
        // FC reshape width S = 3 for FC-style layers.
        let group = match *desc.kind() {
            LayerKind::Conv2d { kernel, .. } => kernel,
            LayerKind::DepthwiseConv2d { kernel, .. } => kernel,
            LayerKind::Linear { .. } | LayerKind::SqueezeExcite { .. } => 3,
        }
        .min(w.len())
        .max(1);
        vector_prune_in_place(&mut w, sparsity, group);
    }
    Ok(w)
}

/// Zeros the `fraction` of input channels with the smallest aggregate norm
/// across all filters.
fn prune_input_channels(
    w: &mut Tensor,
    out_channels: usize,
    in_channels: usize,
    kernel: usize,
    fraction: f32,
) {
    let per_chan = kernel * kernel;
    let per_filter = in_channels * per_chan;
    let count = ((in_channels as f64) * f64::from(fraction)).round() as usize;
    if count == 0 {
        return;
    }
    let pruned = smallest_norms(in_channels, count, |ci| {
        let mut s = 0.0f32;
        for fi in 0..out_channels {
            let base = fi * per_filter + ci * per_chan;
            s += w.data()[base..base + per_chan].iter().map(|&x| x * x).sum::<f32>();
        }
        s
    });
    for (ci, _) in pruned {
        let ci = ci as usize;
        for fi in 0..out_channels {
            let base = fi * per_filter + ci * per_chan;
            w.data_mut()[base..base + per_chan].fill(0.0);
        }
    }
}

/// Zeros the smallest-norm `fraction` of length-`group` weight vectors
/// (consecutive along the last dimension), in place.
fn vector_prune_in_place(w: &mut Tensor, fraction: f32, group: usize) {
    let vectors = w.len() / group;
    let prune = ((vectors as f64) * f64::from(fraction)).round() as usize;
    if prune == 0 || vectors == 0 {
        return;
    }
    let pruned = smallest_norms(vectors, prune, |v| {
        w.data()[v * group..(v + 1) * group].iter().map(|&x| x * x).sum()
    });
    for (v, _) in pruned {
        let v = v as usize;
        w.data_mut()[v * group..(v + 1) * group].fill(0.0);
    }
}

/// The `(index, norm)` of the `count` smallest `norm(i)` for `i < n` (all
/// of them when `count >= n`), in no particular order: the `count` first in
/// (norm, then index) order, i.e. the set a stable sort by norm puts first.
/// A selection over 8-byte entries, not a sort: on VGG11's 102.8 M-weight
/// FC layer that is half the scratch of `(usize, f32)` and no sort buffer.
fn smallest_norms(n: usize, count: usize, norm: impl Fn(usize) -> f32) -> Vec<(u32, f32)> {
    let index = |i: usize| u32::try_from(i).expect("at most u32::MAX vectors");
    let mut norms: Vec<(u32, f32)> = (0..n).map(|i| (index(i), norm(i))).collect();
    if count < n {
        norms.select_nth_unstable_by(count, |a, b| {
            a.1.partial_cmp(&b.1).expect("finite weights").then(a.0.cmp(&b.0))
        });
        norms.truncate(count);
    }
    norms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    /// The vectors a stable sort by norm zeroes: the rule the selection
    /// replaced.
    fn stable_sort_pruned(w: &Tensor, fraction: f32, group: usize) -> Tensor {
        let mut w = w.clone();
        let vectors = w.len() / group;
        let prune = ((vectors as f64) * f64::from(fraction)).round() as usize;
        let mut norms: Vec<(usize, f32)> = (0..vectors)
            .map(|v| (v, w.data()[v * group..(v + 1) * group].iter().map(|&x| x * x).sum()))
            .collect();
        norms.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for &(v, _) in norms.iter().take(prune.min(vectors)) {
            w.data_mut()[v * group..(v + 1) * group].fill(0.0);
        }
        w
    }

    #[test]
    fn selection_prunes_the_stable_sort_set_with_ties() {
        let mut r = rng::seeded(11);
        let mut w = rng::kaiming_tensor(&mut r, &[4, 6, 3, 3], 54);
        // Every third of the 72 vectors all zero (24 tied norms), and the
        // three next-smallest tied at a non-zero norm: at 25 and 26 pruned
        // vectors (fractions 0.35 and 0.36) the tie-break by index decides
        // which of those three are zeroed.
        for v in (0..w.len() / 3).step_by(3) {
            w.data_mut()[v * 3..v * 3 + 3].fill(0.0);
        }
        for v in [13usize, 1, 7] {
            w.data_mut()[v * 3..v * 3 + 3].copy_from_slice(&[0.01, -0.01, 0.005]);
        }
        for fraction in [0.0f32, 0.1, 0.2, 1.0 / 3.0, 0.35, 0.36, 0.4, 0.5, 0.9, 1.0] {
            let mut got = w.clone();
            vector_prune_in_place(&mut got, fraction, 3);
            let want = stable_sort_pruned(&w, fraction, 3);
            assert_eq!(got.data(), want.data(), "fraction {fraction}");
        }
    }

    #[test]
    fn selection_keeps_the_stable_sort_set_at_every_count() {
        // Three tied norms repeating, with -0.0 among the zeros: the set
        // is decided by the tie-break alone.
        let norm = |i: usize| [0.0f32, -0.0, 0.5, 0.0, 0.25][i % 5];
        for n in [0usize, 1, 7, 20] {
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by(|&a, &b| norm(a).partial_cmp(&norm(b)).unwrap());
            for count in 0..=n + 1 {
                let mut got: Vec<usize> =
                    smallest_norms(n, count, norm).into_iter().map(|(i, _)| i as usize).collect();
                got.sort_unstable();
                let mut want = sorted[..count.min(n)].to_vec();
                want.sort_unstable();
                assert_eq!(got, want, "n {n} count {count}");
            }
        }
    }

    #[test]
    fn weights_match_descriptor_shapes() {
        let net = zoo::mlp2();
        for desc in net.layers() {
            let w = synthetic_weights(net.name(), desc, 1).unwrap();
            assert_eq!(w.shape(), desc.weight_shape().as_slice());
            assert_eq!(w.len() as u64, desc.params());
        }
    }

    #[test]
    fn weights_are_deterministic_and_layer_local() {
        let net = zoo::mlp2();
        let a = synthetic_weights(net.name(), &net.layers()[1], 7).unwrap();
        let b = synthetic_weights(net.name(), &net.layers()[1], 7).unwrap();
        assert_eq!(a, b);
        let c = synthetic_weights(net.name(), &net.layers()[1], 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn different_networks_differ() {
        let l = zoo::mlp2().layers()[0].clone();
        let a = synthetic_weights("MLP-2", &l, 0).unwrap();
        let b = synthetic_weights("other", &l, 0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn natural_sparsity_applied() {
        let net = zoo::vgg19_cifar();
        let w = synthetic_weights(net.name(), &net.layers()[4], 0).unwrap();
        let sp = w.sparsity();
        assert!((sp - 0.93).abs() < 0.01, "sparsity {sp}");
        // Compact models stay dense (Table III: Spar. 0.00%).
        let mb = zoo::mobilenet_v2();
        let wd = synthetic_weights(mb.name(), &mb.layers()[1], 0).unwrap();
        assert!(wd.sparsity() < 0.05, "sparsity {}", wd.sparsity());
    }

    #[test]
    fn magnitudes_follow_fan_in() {
        let net = zoo::vgg19_cifar();
        let first = &net.layers()[0]; // fan_in 27
        let later = &net.layers()[10]; // fan_in 512*9
        let wf = synthetic_weights(net.name(), first, 0).unwrap();
        let wl = synthetic_weights(net.name(), later, 0).unwrap();
        let std =
            |t: &Tensor| (t.data().iter().map(|&x| x * x).sum::<f32>() / t.len() as f32).sqrt();
        assert!(std(&wf) > 3.0 * std(&wl), "{} vs {}", std(&wf), std(&wl));
    }
}
