//! Layer-by-layer descriptors of the paper's nine benchmark networks.
//!
//! Geometry follows the published architectures; residual/skip additions
//! and activation/pool layers carry no weights and are reflected only in
//! the spatial-size bookkeeping. Parameter totals are validated against the
//! published counts in this module's tests.

use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};

/// Incrementally builds a network descriptor while tracking the activation
/// shape `(C, H, W)`.
struct NetBuilder {
    layers: Vec<LayerDesc>,
    c: usize,
    h: usize,
    w: usize,
    idx: usize,
}

impl NetBuilder {
    fn new(input: (usize, usize, usize)) -> Self {
        NetBuilder { layers: Vec::new(), c: input.0, h: input.1, w: input.2, idx: 0 }
    }

    fn next_name(&mut self, prefix: &str) -> String {
        self.idx += 1;
        format!("{prefix}{}", self.idx)
    }

    fn conv(&mut self, out: usize, kernel: usize, stride: usize, padding: usize) {
        let name = self.next_name("conv");
        let desc = LayerDesc::new(
            name,
            LayerKind::Conv2d { in_channels: self.c, out_channels: out, kernel, stride, padding },
            (self.h, self.w),
        );
        let (e, f) = desc.output_hw().expect("builder geometry is valid");
        self.layers.push(desc);
        self.c = out;
        self.h = e;
        self.w = f;
    }

    fn dwconv(&mut self, kernel: usize, stride: usize, padding: usize) {
        let name = self.next_name("dwconv");
        let desc = LayerDesc::new(
            name,
            LayerKind::DepthwiseConv2d { channels: self.c, kernel, stride, padding },
            (self.h, self.w),
        );
        let (e, f) = desc.output_hw().expect("builder geometry is valid");
        self.layers.push(desc);
        self.h = e;
        self.w = f;
    }

    fn squeeze_excite(&mut self, reduced: usize) {
        let name = self.next_name("se");
        self.layers.push(LayerDesc::new(
            name,
            LayerKind::SqueezeExcite { channels: self.c, reduced: reduced.max(1) },
            (self.h, self.w),
        ));
    }

    fn linear(&mut self, out: usize) {
        let name = self.next_name("fc");
        let in_features = self.c * self.h * self.w;
        self.layers.push(LayerDesc::new(
            name,
            LayerKind::Linear { in_features, out_features: out },
            (1, 1),
        ));
        self.c = out;
        self.h = 1;
        self.w = 1;
    }

    /// Weightless max/avg pool: only updates the tracked spatial size.
    fn pool(&mut self, factor: usize) {
        self.h /= factor;
        self.w /= factor;
    }

    fn global_pool(&mut self) {
        self.h = 1;
        self.w = 1;
    }

    fn build(self, name: &str, dataset: Dataset) -> NetworkDesc {
        NetworkDesc::new(name, dataset, self.layers).expect("zoo geometry is valid")
    }
}

/// VGG11 on ImageNet (the "A" configuration).
pub fn vgg11() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 224, 224));
    b.conv(64, 3, 1, 1);
    b.pool(2);
    b.conv(128, 3, 1, 1);
    b.pool(2);
    b.conv(256, 3, 1, 1);
    b.conv(256, 3, 1, 1);
    b.pool(2);
    b.conv(512, 3, 1, 1);
    b.conv(512, 3, 1, 1);
    b.pool(2);
    b.conv(512, 3, 1, 1);
    b.conv(512, 3, 1, 1);
    b.pool(2);
    b.linear(4096);
    b.linear(4096);
    b.linear(1000);
    b.build("VGG11", Dataset::ImageNet)
}

/// VGG19 adapted to CIFAR-10: 16 CONV layers plus the 512–512–512–10
/// classifier head of the `pytorch-vgg-cifar10` implementation the paper
/// cites (footnote 1 of Section III-C).
pub fn vgg19_cifar() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 32, 32));
    for &(reps, ch) in &[(2usize, 64usize), (2, 128), (4, 256), (4, 512), (4, 512)] {
        for _ in 0..reps {
            b.conv(ch, 3, 1, 1);
        }
        b.pool(2);
    }
    b.linear(512);
    b.linear(512);
    b.linear(10);
    b.build("VGG19", Dataset::Cifar10)
}

/// Appends one ResNet bottleneck (`1×1 reduce → 3×3 → 1×1 expand`), plus a
/// `1×1` projection shortcut when the input/output shapes differ.
fn bottleneck(b: &mut NetBuilder, mid: usize, out: usize, stride: usize) {
    let needs_proj = b.c != out || stride != 1;
    let (in_c, in_h, in_w) = (b.c, b.h, b.w);
    b.conv(mid, 1, 1, 0);
    b.conv(mid, 3, stride, 1);
    b.conv(out, 1, 1, 0);
    if needs_proj {
        // Projection shortcut runs on the block input.
        let name = b.next_name("proj");
        b.layers.push(LayerDesc::new(
            name,
            LayerKind::Conv2d {
                in_channels: in_c,
                out_channels: out,
                kernel: 1,
                stride,
                padding: 0,
            },
            (in_h, in_w),
        ));
    }
}

/// ResNet50 on ImageNet.
pub fn resnet50() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 224, 224));
    b.conv(64, 7, 2, 3);
    b.pool(2); // 3x3/2 max pool
    let stages: [(usize, usize, usize, usize); 4] =
        [(3, 64, 256, 1), (4, 128, 512, 2), (6, 256, 1024, 2), (3, 512, 2048, 2)];
    for &(blocks, mid, out, stride) in &stages {
        for i in 0..blocks {
            bottleneck(&mut b, mid, out, if i == 0 { stride } else { 1 });
        }
    }
    b.global_pool();
    b.linear(1000);
    b.build("ResNet50", Dataset::ImageNet)
}

/// ResNet164 on CIFAR-10 (pre-activation bottleneck, 18 blocks per stage).
pub fn resnet164() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 32, 32));
    b.conv(16, 3, 1, 1);
    let stages: [(usize, usize, usize); 3] = [(16, 64, 1), (32, 128, 2), (64, 256, 2)];
    for &(mid, out, stride) in &stages {
        for i in 0..18 {
            bottleneck(&mut b, mid, out, if i == 0 { stride } else { 1 });
        }
    }
    b.global_pool();
    b.linear(10);
    b.build("ResNet164", Dataset::Cifar10)
}

/// Appends one MobileNetV2 inverted residual (`1×1 expand → 3×3 depth-wise
/// → 1×1 project`).
fn inverted_residual(b: &mut NetBuilder, expand: usize, out: usize, stride: usize, kernel: usize) {
    let hidden = b.c * expand;
    if expand != 1 {
        b.conv(hidden, 1, 1, 0);
    }
    b.dwconv(kernel, stride, kernel / 2);
    b.conv(out, 1, 1, 0);
}

/// MobileNetV2 on ImageNet.
pub fn mobilenet_v2() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 224, 224));
    b.conv(32, 3, 2, 1);
    // (expand t, channels c, repeats n, stride s) per the paper's Table 2.
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for &(t, c, n, s) in &cfg {
        for i in 0..n {
            inverted_residual(&mut b, t, c, if i == 0 { s } else { 1 }, 3);
        }
    }
    b.conv(1280, 1, 1, 0);
    b.global_pool();
    b.linear(1000);
    b.build("MobileNetV2", Dataset::ImageNet)
}

/// Appends one EfficientNet MBConv block (expand → depth-wise →
/// squeeze-excite → project); the SE bottleneck is a quarter of the block's
/// *input* channels, as in the reference implementation.
fn mbconv(b: &mut NetBuilder, expand: usize, out: usize, stride: usize, kernel: usize) {
    let input_c = b.c;
    let hidden = input_c * expand;
    if expand != 1 {
        b.conv(hidden, 1, 1, 0);
    }
    b.dwconv(kernel, stride, kernel / 2);
    b.squeeze_excite((input_c / 4).max(1));
    b.conv(out, 1, 1, 0);
}

/// EfficientNet-B0 on ImageNet.
pub fn efficientnet_b0() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 224, 224));
    b.conv(32, 3, 2, 1);
    // (expand, channels, repeats, stride, kernel) for the seven stages.
    let cfg: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    for &(t, c, n, s, k) in &cfg {
        for i in 0..n {
            mbconv(&mut b, t, c, if i == 0 { s } else { 1 }, k);
        }
    }
    b.conv(1280, 1, 1, 0);
    b.global_pool();
    b.linear(1000);
    b.build("EfficientNet-B0", Dataset::ImageNet)
}

/// DeepLabV3+ with a ResNet50 backbone (output stride 16) on CamVid,
/// evaluated at 360 × 480 (see DESIGN.md for the input-size note).
///
/// The last backbone stage keeps stride 1 (the paper's dilated convolutions
/// preserve resolution; dilation does not change weight geometry), followed
/// by the ASPP head and the two-stage decoder.
pub fn deeplab_v3plus() -> NetworkDesc {
    let mut b = NetBuilder::new((3, 360, 480));
    b.conv(64, 7, 2, 3);
    b.pool(2);
    let stages: [(usize, usize, usize, usize); 4] =
        [(3, 64, 256, 1), (4, 128, 512, 2), (6, 256, 1024, 2), (3, 512, 2048, 1)];
    for &(blocks, mid, out, stride) in &stages {
        for i in 0..blocks {
            bottleneck(&mut b, mid, out, if i == 0 { stride } else { 1 });
        }
    }
    // ASPP at output stride 16: 1x1 + three 3x3 (dilated) branches + image
    // pooling, all to 256 channels, then fused by a 1x1.
    let (aspp_h, aspp_w) = (b.h, b.w);
    for i in 0..5 {
        let name = format!("aspp{i}");
        let kernel = if i == 0 || i == 4 { 1 } else { 3 };
        b.layers.push(LayerDesc::new(
            name,
            LayerKind::Conv2d {
                in_channels: 2048,
                out_channels: 256,
                kernel,
                stride: 1,
                padding: kernel / 2,
            },
            (aspp_h, aspp_w),
        ));
    }
    b.c = 256 * 5;
    b.conv(256, 1, 1, 0);
    // Decoder: project low-level features (256ch at stride 4) to 48, concat
    // with 4x-upsampled ASPP output, refine with two 3x3 convs, classify.
    let (low_h, low_w) = (90, 120); // stride-4 feature map of 360x480
    b.layers.push(LayerDesc::new(
        "dec_lowlevel",
        LayerKind::Conv2d { in_channels: 256, out_channels: 48, kernel: 1, stride: 1, padding: 0 },
        (low_h, low_w),
    ));
    b.c = 256 + 48;
    b.h = low_h;
    b.w = low_w;
    b.conv(256, 3, 1, 1);
    b.conv(256, 3, 1, 1);
    b.conv(11, 1, 1, 0); // CamVid's 11 classes
    b.build("DeepLabV3+", Dataset::CamVid)
}

/// MLP-1 on MNIST (784–2048–1024–10, matching the ~14.1 MB FP32 size the
/// paper reports for the model of \[40\]).
pub fn mlp1() -> NetworkDesc {
    let mut b = NetBuilder::new((1, 28, 28));
    b.linear(2048);
    b.linear(1024);
    b.linear(10);
    b.build("MLP-1", Dataset::Mnist)
}

/// MLP-2 on MNIST (LeNet-300-100, the Cambricon-S MLP of \[56\]).
pub fn mlp2() -> NetworkDesc {
    let mut b = NetBuilder::new((1, 28, 28));
    b.linear(300);
    b.linear(100);
    b.linear(10);
    b.build("MLP-2", Dataset::Mnist)
}

/// All nine benchmark networks in the paper's presentation order.
pub fn all_models() -> Vec<NetworkDesc> {
    vec![
        vgg11(),
        resnet50(),
        mobilenet_v2(),
        efficientnet_b0(),
        vgg19_cifar(),
        resnet164(),
        deeplab_v3plus(),
        mlp1(),
        mlp2(),
    ]
}

/// The seven models used in the accelerator comparison (Figs. 10–13).
pub fn accelerator_benchmark_models() -> Vec<NetworkDesc> {
    vec![
        vgg11(),
        resnet50(),
        mobilenet_v2(),
        efficientnet_b0(),
        vgg19_cifar(),
        resnet164(),
        deeplab_v3plus(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(net: &NetworkDesc) -> f64 {
        net.fp32_megabytes()
    }

    #[test]
    fn vgg11_matches_published_size() {
        let net = vgg11();
        // Canonical torchvision VGG11 weight count: ~132.86 M.
        let params = net.total_params();
        assert!((132_000_000..134_000_000).contains(&params), "VGG11 params {params}");
        // ~7.6 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!((7.0..8.2).contains(&g), "VGG11 GMACs {g}");
    }

    #[test]
    fn vgg19_cifar_matches_paper_mb() {
        // Paper Table II: 80.13 MB; the cited implementation's weights-only
        // total is ~78.4 MB (EXPERIMENTS.md records the delta).
        let size = mb(&vgg19_cifar());
        assert!((77.0..82.0).contains(&size), "VGG19 {size} MB");
    }

    #[test]
    fn resnet50_matches_published_size() {
        let net = resnet50();
        let params = net.total_params();
        // Weights-only ResNet50: ~25.5 M.
        assert!((24_500_000..26_500_000).contains(&params), "ResNet50 params {params}");
        let g = net.total_macs() as f64 / 1e9;
        assert!((3.7..4.4).contains(&g), "ResNet50 GMACs {g}");
    }

    #[test]
    fn resnet164_matches_paper_mb() {
        // Paper Table II: 6.75 MB.
        let size = mb(&resnet164());
        assert!((size - 6.75).abs() < 0.5, "ResNet164 {size} MB");
        // 164 layers: 3 stages x 18 blocks x 3 convs + stem + fc = 164.
        let convs = resnet164()
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::Conv2d { .. }))
            .count();
        assert!(convs >= 163, "conv count {convs}");
    }

    #[test]
    fn mobilenet_v2_matches_paper_mb() {
        // Paper Table III: 13.92 MB (we expect ~13.4 from weights only).
        let size = mb(&mobilenet_v2());
        assert!((12.5..14.5).contains(&size), "MBV2 {size} MB");
        let has_dw = mobilenet_v2()
            .layers()
            .iter()
            .any(|l| matches!(l.kind(), LayerKind::DepthwiseConv2d { .. }));
        assert!(has_dw);
    }

    #[test]
    fn efficientnet_b0_matches_paper_mb() {
        // Paper Table III: 20.40 MB.
        let size = mb(&efficientnet_b0());
        assert!((18.0..22.0).contains(&size), "Eff-B0 {size} MB");
        let se_blocks = efficientnet_b0()
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::SqueezeExcite { .. }))
            .count();
        assert_eq!(se_blocks, 16); // one per MBConv block
    }

    #[test]
    fn mlp_sizes_match_paper() {
        // Paper Table II: MLP-1 14.125 MB, MLP-2 1.07 MB.
        let m1 = mb(&mlp1());
        assert!((m1 - 14.125).abs() < 0.3, "MLP-1 {m1} MB");
        let m2 = mb(&mlp2());
        assert!((m2 - 1.02).abs() < 0.1, "MLP-2 {m2} MB");
    }

    #[test]
    fn deeplab_has_segmentation_head() {
        let net = deeplab_v3plus();
        let last = net.layers().last().unwrap();
        assert_eq!(last.out_channels(), 11);
        assert!(net.total_params() > 35_000_000);
        // Dense prediction: output spatial size stays large somewhere.
        assert!(net.layers().iter().any(|l| l.input_hw().0 >= 23));
    }

    #[test]
    fn all_models_have_valid_geometry() {
        for net in all_models() {
            assert!(net.total_macs() > 0, "{} has zero MACs", net.name());
            for l in net.layers() {
                assert!(l.output_hw().is_ok(), "{}:{} invalid", net.name(), l.name());
            }
        }
    }

    #[test]
    fn accelerator_set_is_the_paper_seven() {
        let names: Vec<String> =
            accelerator_benchmark_models().iter().map(|n| n.name().to_string()).collect();
        assert_eq!(
            names,
            vec![
                "VGG11",
                "ResNet50",
                "MobileNetV2",
                "EfficientNet-B0",
                "VGG19",
                "ResNet164",
                "DeepLabV3+"
            ]
        );
    }
}
