//! The inputs of a layer's simulation schedule.
//!
//! The data-independent part of a simulator pass — which output rows are
//! sampled, where every kernel row reads its input row, how output pixels
//! group onto MAC lanes, how filters tile onto PE slices — depends only on
//! the layer *geometry* and the accelerator *configuration*, never on the
//! weights or activations. [`ScheduleKey`] names exactly those inputs; the
//! layer *name* is not one of them.
//!
//! `se_hw::sim` builds the schedule per spatial layer rather than keeping
//! it. Building costs O(E·R + F) against the pass's O(E·F·C·R·S); on the
//! `replay` workload (the five simulators over MobileNetV2,
//! EfficientNet-B0 and ResNet164 traces) a process-wide memo of it, with
//! one of the baselines' dense geometry, measured no faster than building
//! per layer: the SE simulation read 300 and 324 ms with the memos and 304
//! and 228 ms without them (two traced pairs on a 2-vCPU host), so neither
//! is kept.

use crate::SeAcceleratorConfig;
use se_ir::{LayerDesc, LayerKind};

/// The inputs a `Schedule` is a function of: the full layer geometry
/// (kind with all its dimensions, plus the input feature-map size) and the
/// configuration fields that shape a schedule (PE-array tile dimensions,
/// output-row sampling, and the output-GB geometry the partial-sum spill
/// target derives from). The key also holds `dim_c` and the feature
/// toggles, which the schedule does not read, so configurations that
/// differ only there count as distinct schedules.
///
/// Two keys compare equal exactly when every geometry and configuration
/// field matches; any differing field — kernel, stride, padding, channel
/// counts, input size, tile dimensions, `row_sample`, or a feature toggle —
/// produces a distinct key. Layers with equal keys build equal schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    kind: LayerKind,
    input_hw: (usize, usize),
    dim_m: usize,
    dim_c: usize,
    dim_f: usize,
    row_sample: usize,
    bit_serial: bool,
    booth_encoder: bool,
    index_select: bool,
    compact_dedicated: bool,
    /// Output-GB geometry (bank count, bank size as exact `f64` bits): the
    /// schedule's partial-sum spill target depends on it.
    output_gb_banks: usize,
    output_gb_bank_kb_bits: u64,
}

impl ScheduleKey {
    /// The schedule inputs of `desc` under `cfg` (the SE engine's
    /// configuration, or Bit-pragmatic's, which runs on it).
    pub fn for_config(desc: &LayerDesc, cfg: &SeAcceleratorConfig) -> Self {
        ScheduleKey {
            kind: *desc.kind(),
            input_hw: desc.input_hw(),
            dim_m: cfg.dim_m,
            dim_c: cfg.dim_c,
            dim_f: cfg.dim_f,
            row_sample: cfg.row_sample,
            bit_serial: cfg.bit_serial,
            booth_encoder: cfg.booth_encoder,
            index_select: cfg.index_select,
            compact_dedicated: cfg.compact_dedicated,
            output_gb_banks: cfg.output_gb_banks,
            output_gb_bank_kb_bits: cfg.output_gb_bank_kb.to_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn conv_desc(name: &str) -> LayerDesc {
        LayerDesc::new(
            name,
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            (16, 16),
        )
    }

    fn hash_of(k: &ScheduleKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_geometry_and_config_hash_equal() {
        let cfg = SeAcceleratorConfig::default();
        // Different layer names, identical geometry: same key, same hash.
        let a = ScheduleKey::for_config(&conv_desc("stage1_block3"), &cfg);
        let b = ScheduleKey::for_config(&conv_desc("stage1_block17"), &cfg);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn any_differing_geometry_field_changes_the_key() {
        let cfg = SeAcceleratorConfig::default();
        let base = ScheduleKey::for_config(&conv_desc("c"), &cfg);
        let variants = [
            LayerKind::Conv2d { in_channels: 5, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            LayerKind::Conv2d { in_channels: 4, out_channels: 9, kernel: 3, stride: 1, padding: 1 },
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 5, stride: 1, padding: 1 },
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 2, padding: 1 },
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 0 },
            LayerKind::DepthwiseConv2d { channels: 4, kernel: 3, stride: 1, padding: 1 },
        ];
        for kind in variants {
            let k = ScheduleKey::for_config(&LayerDesc::new("c", kind, (16, 16)), &cfg);
            assert_ne!(base, k, "kind {kind:?} must produce a distinct key");
        }
        // Input feature-map size is part of the geometry too.
        let resized =
            ScheduleKey::for_config(&LayerDesc::new("c", *conv_desc("c").kind(), (8, 16)), &cfg);
        assert_ne!(base, resized);
    }

    #[test]
    fn any_differing_config_field_changes_the_key() {
        let desc = conv_desc("c");
        let base = ScheduleKey::for_config(&desc, &SeAcceleratorConfig::default());
        let variants: [SeAcceleratorConfig; 10] = [
            SeAcceleratorConfig { dim_m: 32, ..Default::default() },
            SeAcceleratorConfig { dim_c: 8, ..Default::default() },
            SeAcceleratorConfig { dim_f: 4, ..Default::default() },
            SeAcceleratorConfig { row_sample: 4, ..Default::default() },
            SeAcceleratorConfig { bit_serial: false, ..Default::default() },
            SeAcceleratorConfig { booth_encoder: false, ..Default::default() },
            SeAcceleratorConfig { index_select: false, ..Default::default() },
            SeAcceleratorConfig { compact_dedicated: false, ..Default::default() },
            SeAcceleratorConfig { output_gb_banks: 4, ..Default::default() },
            SeAcceleratorConfig { output_gb_bank_kb: 8.0, ..Default::default() },
        ];
        for (i, cfg) in variants.iter().enumerate() {
            let k = ScheduleKey::for_config(&desc, cfg);
            assert_ne!(base, k, "config variant {i} must produce a distinct key");
        }
    }
}
