//! Geometry-keyed schedule reuse.
//!
//! ResNet-style networks repeat identical layer geometries many times
//! (ResNet164 repeats each bottleneck shape 18× per stage), and the
//! data-independent part of a simulator pass — which output rows are
//! sampled, where every kernel row reads its input row, how output pixels
//! group onto MAC lanes, how filters tile onto PE slices — depends only on
//! the layer *geometry* and the accelerator *configuration*, never on the
//! weights or activations. This module provides the two pieces that let
//! every simulator compute that skeleton once per distinct shape and reuse
//! it across repeats:
//!
//! * [`ScheduleKey`] — a hashable key derived from [`LayerDesc`] geometry
//!   plus the configuration fields a schedule may depend on. The layer
//!   *name* is deliberately excluded: two layers with different names but
//!   the same shape share a schedule.
//! * [`ScheduleCache`] — a thread-safe memo table from key to an
//!   immutable, shared schedule value. Each simulator holds one
//!   process-wide: the SmartExchange engine keyed by
//!   [`ScheduleKey::for_config`], the dense baselines by
//!   [`ScheduleKey::for_geometry`].
//!
//! Correctness note: cached values must be **pure functions of their key**.
//! Under that contract a cache is observationally transparent — hits and
//! misses produce bit-identical simulation results, for any worker count
//! and any layer order — which is what keeps the parallel five-accelerator
//! runner's output independent of scheduling (see `se_bench::runner`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::SeAcceleratorConfig;
use se_ir::{LayerDesc, LayerKind};

/// Cache key for a layer's simulation schedule: the full layer geometry
/// (kind with all its dimensions, plus the input feature-map size) and the
/// configuration fields that shape a schedule (PE-array tile dimensions,
/// output-row sampling, the feature toggles, and the output-GB geometry
/// the partial-sum spill target derives from).
///
/// Two keys compare equal exactly when every geometry and configuration
/// field matches; any differing field — kernel, stride, padding, channel
/// counts, input size, tile dimensions, `row_sample`, or a feature toggle —
/// produces a distinct key, so schedules can never silently collide across
/// shapes.
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
    /// Output-GB geometry (bank count, bank size as `f32`-exact bits):
    /// the cached skeleton's partial-sum spill target depends on it, and
    /// cached values must stay pure functions of their key.
    output_gb_banks: usize,
    output_gb_bank_kb_bits: u64,
}

impl ScheduleKey {
    /// Key for a schedule that depends on the SmartExchange accelerator
    /// configuration (the SE engine and Bit-pragmatic, which reuses it).
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

    /// Key for a configuration-independent cached value (the baseline
    /// accelerators' geometry statistics): configuration fields are pinned
    /// to neutral values so the key is pure geometry.
    ///
    /// Geometry-only keys must only ever be used in caches whose values
    /// are pure functions of the layer *shape* alone — under that contract
    /// one cache is shared by every dense baseline design. Never mix them
    /// into a cache holding configuration-dependent values; those belong
    /// under [`ScheduleKey::for_config`].
    pub fn for_geometry(desc: &LayerDesc) -> Self {
        ScheduleKey {
            kind: *desc.kind(),
            input_hw: desc.input_hw(),
            dim_m: 0,
            dim_c: 0,
            dim_f: 0,
            row_sample: 0,
            bit_serial: false,
            booth_encoder: false,
            index_select: false,
            compact_dedicated: false,
            output_gb_banks: 0,
            output_gb_bank_kb_bits: 0,
        }
    }
}

/// A thread-safe memo table from [`ScheduleKey`] to a shared, immutable
/// schedule value; each simulator keeps one in a process-wide `static`.
///
/// Values are built at most a handful of times per distinct key (a
/// concurrent miss on the same key may build twice; the first insert wins
/// and both results are identical because values are pure functions of the
/// key) and shared via [`Arc`] afterwards.
#[derive(Debug)]
pub struct ScheduleCache<T> {
    inner: Mutex<HashMap<ScheduleKey, Arc<T>>>,
}

impl<T> Default for ScheduleCache<T> {
    fn default() -> Self {
        ScheduleCache { inner: Mutex::new(HashMap::new()) }
    }
}

impl<T> ScheduleCache<T> {
    /// Returns the cached value for `key`, building it with `build` on a
    /// miss. The lock is not held while building, so concurrent simulator
    /// workers never serialize on schedule construction; a racing build for
    /// the same key keeps the first inserted value.
    ///
    /// # Errors
    ///
    /// Propagates the `build` failure (nothing is cached in that case).
    pub fn get_or_try_build<E>(
        &self,
        key: ScheduleKey,
        build: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E> {
        if let Some(hit) = self.inner.lock().expect("schedule cache never poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let value = Arc::new(build()?);
        let mut map = self.inner.lock().expect("schedule cache never poisoned");
        Ok(Arc::clone(map.entry(key).or_insert(value)))
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

    #[test]
    fn geometry_key_ignores_config() {
        let desc = conv_desc("c");
        let a = ScheduleKey::for_geometry(&desc);
        let b = ScheduleKey::for_geometry(&conv_desc("other_name"));
        assert_eq!(a, b);
        // But geometry still distinguishes.
        let c = ScheduleKey::for_geometry(&LayerDesc::new("c", *desc.kind(), (8, 8)));
        assert_ne!(a, c);
    }

    #[test]
    fn cache_builds_once_per_key_and_shares() {
        let cache: ScheduleCache<u64> = ScheduleCache::default();
        let cfg = SeAcceleratorConfig::default();
        let key = ScheduleKey::for_config(&conv_desc("c"), &cfg);
        let a = cache.get_or_try_build::<()>(key, || Ok(7)).unwrap();
        // Second lookup must not rebuild (a panicking builder proves it).
        let b = cache.get_or_try_build::<()>(key, || panic!("cache hit expected")).unwrap();
        assert_eq!(*a, *b);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_build_errors_are_not_cached() {
        let cache: ScheduleCache<u64> = ScheduleCache::default();
        let key = ScheduleKey::for_geometry(&conv_desc("c"));
        assert!(cache.get_or_try_build(key, || Err("boom")).is_err());
        // The failed key is still a miss: the next lookup builds.
        let v = cache.get_or_try_build::<&str>(key, || Ok(3)).unwrap();
        assert_eq!(*v, 3);
    }
}
