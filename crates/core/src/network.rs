//! Whole-network compression: applies the SmartExchange algorithm to every
//! layer of a network and aggregates the storage accounting that backs the
//! paper's Tables II and III.
//!
//! Since the decomposition never looks across layers, [`compress_network`]
//! — the one whole-network entry point — runs one job per layer on the
//! parallel work queue of [`crate::pipeline`] (worker count from
//! [`SeConfig::parallelism`], default all cores), with results reassembled
//! in network order: output is bit-identical to a serial run for every
//! worker count. Each job fetches its layer's weights on its worker and
//! drops them when the layer is done, so only the layers in flight hold
//! weights; the compressed parts are kept.

use crate::{layer, pipeline, CoreError, Result, SeConfig};
use se_ir::{storage, LayerDesc, SeLayer};
use se_tensor::Tensor;
use std::borrow::Borrow;

/// Per-layer compression report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Original parameter count.
    pub params: u64,
    /// Storage breakdown of the compressed form.
    pub storage: storage::SeStorage,
    /// Vector-wise sparsity of the coefficient matrices in `[0, 1]`.
    pub vector_sparsity: f32,
    /// Relative Frobenius reconstruction error.
    pub recon_error: f32,
}

/// A compressed network: per-layer compressed weights plus reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedNetwork {
    /// Per-layer compressed weight parts, in network order (one entry per
    /// layer, each holding one or more [`SeLayer`]s).
    pub parts: Vec<Vec<SeLayer>>,
    /// Per-layer reports, in network order.
    pub reports: Vec<LayerReport>,
}

impl CompressedNetwork {
    /// Total storage across all layers.
    pub fn total_storage(&self) -> storage::SeStorage {
        let mut s = storage::SeStorage::default();
        for r in &self.reports {
            s.accumulate(&r.storage);
        }
        s
    }

    /// Total original parameters.
    pub fn total_params(&self) -> u64 {
        self.reports.iter().map(|r| r.params).sum()
    }

    /// Overall compression rate vs FP32 (the paper's `CR` column).
    pub fn compression_rate(&self) -> f64 {
        storage::compression_rate(self.total_params(), &self.total_storage())
    }

    /// Parameter-weighted overall sparsity (the paper's `Spar.` column: the
    /// ratio of pruned to total parameters).
    pub fn overall_sparsity(&self) -> f64 {
        let total: u64 = self.total_params();
        if total == 0 {
            return 0.0;
        }
        let pruned: f64 =
            self.reports.iter().map(|r| f64::from(r.vector_sparsity) * r.params as f64).sum();
        pruned / total as f64
    }

    /// Parameter-weighted mean reconstruction error.
    pub fn mean_recon_error(&self) -> f64 {
        let total = self.total_params();
        if total == 0 {
            return 0.0;
        }
        self.reports.iter().map(|r| f64::from(r.recon_error) * r.params as f64).sum::<f64>()
            / total as f64
    }

    /// Serializes the compressed network to the versioned binary format of
    /// [`se_ir::serialize`] (payload kind `CompressedNetwork`; layout in
    /// `docs/TRACE_FORMAT.md`). `Ce` matrices are stored as compact
    /// power-of-2 codes, so the file is within a small factor of the
    /// paper's CR accounting rather than FP32 size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ir`] if a field exceeds its layout width.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        use se_ir::serialize as ser;
        let mut w = ser::ByteWriter::new();
        ser::write_header(&mut w, ser::PayloadKind::CompressedNetwork);
        let layers = u32::try_from(self.parts.len())
            .map_err(|_| CoreError::InvalidConfig { reason: "more than u32::MAX layers".into() })?;
        w.put_u32(layers);
        for (parts, report) in self.parts.iter().zip(&self.reports) {
            w.put_str(&report.name).map_err(CoreError::from)?;
            w.put_u64(report.params);
            w.put_u64(report.storage.ce_bits);
            w.put_u64(report.storage.basis_bits);
            w.put_u64(report.storage.index_bits);
            w.put_f32(report.vector_sparsity);
            w.put_f32(report.recon_error);
            w.put_u32(parts.len() as u32);
            for part in parts {
                ser::write_se_layer(&mut w, part).map_err(CoreError::from)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Deserializes a compressed network written by
    /// [`CompressedNetwork::to_bytes`]; the round trip is bit-identical
    /// (every `f32`, every report field).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ir`] on malformed bytes (bad magic, version or
    /// payload-kind mismatch, truncation, or failed re-validation).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::read(&mut se_ir::serialize::ByteReader::new(bytes))
    }

    /// Deserializes a compressed network from a reader over a file or a
    /// byte buffer, consuming it to its end (the general form of
    /// [`CompressedNetwork::from_bytes`]).
    ///
    /// # Errors
    ///
    /// As [`CompressedNetwork::from_bytes`], plus read failures of the
    /// reader's source.
    pub fn read(r: &mut se_ir::serialize::ByteReader<'_>) -> Result<Self> {
        use se_ir::serialize as ser;
        ser::expect_header(r, ser::PayloadKind::CompressedNetwork).map_err(CoreError::from)?;
        let layers = r.get_u32().map_err(CoreError::from)? as usize;
        // No reservations: a hostile count must not size an allocation.
        let (mut parts, mut reports) = (Vec::new(), Vec::new());
        for _ in 0..layers {
            let name = r.get_str().map_err(CoreError::from)?;
            let params = r.get_u64().map_err(CoreError::from)?;
            let storage = storage::SeStorage {
                ce_bits: r.get_u64().map_err(CoreError::from)?,
                basis_bits: r.get_u64().map_err(CoreError::from)?,
                index_bits: r.get_u64().map_err(CoreError::from)?,
            };
            let vector_sparsity = r.get_f32().map_err(CoreError::from)?;
            let recon_error = r.get_f32().map_err(CoreError::from)?;
            let n = r.get_u32().map_err(CoreError::from)? as usize;
            let mut layer_parts = Vec::new();
            for _ in 0..n {
                layer_parts.push(ser::read_se_layer(r).map_err(CoreError::from)?);
            }
            parts.push(layer_parts);
            reports.push(LayerReport { name, params, storage, vector_sparsity, recon_error });
        }
        r.expect_end().map_err(CoreError::from)?;
        Ok(CompressedNetwork { parts, reports })
    }
}

/// Compresses one layer and produces its report alongside the parts.
///
/// # Errors
///
/// Propagates decomposition and shape-validation failures; an
/// [`CoreError::InvalidWeights`] reason is prefixed with the layer name.
pub fn compress_layer_reported(
    desc: &LayerDesc,
    weights: &Tensor,
    cfg: &SeConfig,
) -> Result<(Vec<SeLayer>, LayerReport)> {
    report_layer(desc, weights, cfg).map_err(|e| match e {
        CoreError::InvalidWeights { reason } => {
            CoreError::InvalidWeights { reason: format!("{}: {reason}", desc.name()) }
        }
        other => other,
    })
}

fn report_layer(
    desc: &LayerDesc,
    weights: &Tensor,
    cfg: &SeConfig,
) -> Result<(Vec<SeLayer>, LayerReport)> {
    let parts = layer::compress_layer(desc, weights, cfg)?;
    let mut st = storage::SeStorage::default();
    let mut rows = 0usize;
    let mut zero_rows = 0usize;
    for p in &parts {
        st.accumulate(&storage::se_layer_storage(p));
        rows += p.total_rows();
        zero_rows += p.total_rows() - p.total_nonzero_rows();
    }
    let recon = layer::reconstruct_layer(desc, &parts)?;
    let diff = weights.distance(&recon).map_err(CoreError::from)?;
    let denom = weights.norm();
    let report = LayerReport {
        name: desc.name().to_string(),
        params: desc.params(),
        storage: st,
        vector_sparsity: if rows > 0 { zero_rows as f32 / rows as f32 } else { 0.0 },
        recon_error: if denom > 0.0 { diff / denom } else { diff },
    };
    Ok((parts, report))
}

/// Compresses every layer of a network, in network order. `weights_for`
/// gives layer `i`'s weights on the worker that compresses it: a tensor
/// it generates (dropped once the layer is done) or a borrow of one the
/// caller holds (`W` is anything that lends a [`Tensor`]).
///
/// # Errors
///
/// The failure of the lowest-indexed failing layer, as a serial run
/// reports it: a `weights_for` error, or a compression failure naming the
/// layer.
///
/// # Examples
///
/// ```
/// use se_core::{network, SeConfig};
/// use se_ir::{LayerDesc, LayerKind};
/// use se_tensor::rng;
///
/// # fn main() -> Result<(), se_core::CoreError> {
/// let mut r = rng::seeded(1);
/// let desc = LayerDesc::new(
///     "c1",
///     LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
///     (8, 8),
/// );
/// let w = rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 36);
/// let cfg = SeConfig::default().with_max_iterations(5)?;
/// let net = network::compress_network(&[desc], &cfg, |_, _| Ok(&w))?;
/// assert!(net.compression_rate() > 4.0);
/// # Ok(())
/// # }
/// ```
pub fn compress_network<W, F>(
    descs: &[LayerDesc],
    cfg: &SeConfig,
    weights_for: F,
) -> Result<CompressedNetwork>
where
    W: Borrow<Tensor>,
    F: Fn(usize, &LayerDesc) -> Result<W> + Sync,
{
    let layers = pipeline::try_run_nested(descs, cfg, |i, desc, inner| {
        compress_layer_reported(desc, weights_for(i, desc)?.borrow(), inner)
    })?;
    let (parts, reports) = layers.into_iter().unzip();
    Ok(CompressedNetwork { parts, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorSparsity;
    use se_ir::LayerKind;
    use se_tensor::rng;

    fn small_net() -> Vec<(LayerDesc, Tensor)> {
        let mut r = rng::seeded(71);
        vec![
            (
                LayerDesc::new(
                    "c1",
                    LayerKind::Conv2d {
                        in_channels: 3,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    (8, 8),
                ),
                rng::kaiming_tensor(&mut r, &[8, 3, 3, 3], 27),
            ),
            (
                LayerDesc::new(
                    "fc",
                    LayerKind::Linear { in_features: 12, out_features: 4 },
                    (1, 1),
                ),
                rng::kaiming_tensor(&mut r, &[4, 12], 12),
            ),
        ]
    }

    /// A six-layer conv net with seeded weights, layers `c0`..`c5`.
    fn six_layer_net(seed: u64) -> Vec<(LayerDesc, Tensor)> {
        let mut r = rng::seeded(seed);
        let chans = [3usize, 8, 8, 16, 16, 8];
        (0..6)
            .map(|i| {
                let (ci, co) = (chans[i], chans[(i + 1) % 6].max(4));
                let kind = LayerKind::Conv2d {
                    in_channels: ci,
                    out_channels: co,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let w = rng::kaiming_tensor(&mut r, &[co, ci, 3, 3], ci * 9);
                (LayerDesc::new(format!("c{i}"), kind, (8, 8)), w)
            })
            .collect()
    }

    fn descs(layers: &[(LayerDesc, Tensor)]) -> Vec<LayerDesc> {
        layers.iter().map(|(d, _)| d.clone()).collect()
    }

    /// Compresses layers the caller holds, lending each tensor.
    fn compress(layers: &[(LayerDesc, Tensor)], cfg: &SeConfig) -> Result<CompressedNetwork> {
        compress_network(&descs(layers), cfg, |i, _| Ok(&layers[i].1))
    }

    fn cfg() -> SeConfig {
        SeConfig::default().with_max_iterations(6).unwrap()
    }

    fn workers(n: usize) -> SeConfig {
        SeConfig::default().with_max_iterations(5).unwrap().with_parallelism(n).unwrap()
    }

    #[test]
    fn network_compression_rates_exceed_fp32_to_4bit_floor() {
        let net = compress(&small_net(), &cfg()).unwrap();
        assert_eq!(net.reports.len(), 2);
        // 32-bit -> ~4-bit coefficients plus overheads: CR must beat 4x.
        assert!(net.compression_rate() > 4.0, "CR {}", net.compression_rate());
        assert!(net.total_params() > 0);
    }

    #[test]
    fn sparsity_is_weighted_by_params() {
        let c = cfg().with_vector_sparsity(VectorSparsity::KeepFraction(0.25)).unwrap();
        let net = compress(&small_net(), &c).unwrap();
        assert!(net.overall_sparsity() > 0.5, "sparsity {}", net.overall_sparsity());
    }

    #[test]
    fn reports_match_parts() {
        let net = compress(&small_net(), &cfg()).unwrap();
        for (parts, report) in net.parts.iter().zip(&net.reports) {
            let mut st = storage::SeStorage::default();
            for p in parts {
                st.accumulate(&storage::se_layer_storage(p));
            }
            assert_eq!(st, report.storage);
        }
    }

    #[test]
    fn streaming_variant_matches_owned() {
        // Weights generated on the worker give what lent ones give.
        let layers = small_net();
        let owned = compress(&layers, &cfg()).unwrap();
        let streamed = compress_network(&descs(&layers), &cfg(), |i, _| Ok(layers[i].1.clone()));
        assert_eq!(owned, streamed.unwrap());
    }

    #[test]
    fn streaming_reports_match_owned_in_parallel() {
        let layers = six_layer_net(23);
        let owned = compress(&layers, &workers(4)).unwrap();
        let streamed =
            compress_network(&descs(&layers), &workers(4), |i, _| Ok(layers[i].1.clone()));
        assert_eq!(owned, streamed.unwrap());
        // And both match a serial run, bit for bit.
        assert_eq!(owned, compress(&layers, &workers(1)).unwrap());
    }

    #[test]
    fn error_reported_matches_serial_first_failure() {
        let mut layers = six_layer_net(31);
        // Two failures: the queue must report the lower-indexed one.
        layers[1].1 = Tensor::zeros(&[2, 2]);
        layers[4].1 = Tensor::zeros(&[3, 3]);
        let serial_err = compress(&layers, &workers(1)).unwrap_err();
        for n in [2usize, 4, 8] {
            let parallel_err = compress(&layers, &workers(n)).unwrap_err();
            assert_eq!(serial_err.to_string(), parallel_err.to_string());
            assert!(parallel_err.to_string().contains("c1"), "err {parallel_err}");
        }
    }

    #[test]
    fn generated_weights_failure_is_deterministic() {
        let layers = six_layer_net(5);
        let failing = |i: usize, d: &LayerDesc| -> Result<Tensor> {
            if d.name() == "c2" {
                Err(CoreError::InvalidWeights { reason: "synthetic failure".into() })
            } else {
                Ok(layers[i].1.clone())
            }
        };
        let e1 = compress_network(&descs(&layers), &workers(1), failing).unwrap_err();
        let e4 = compress_network(&descs(&layers), &workers(4), failing).unwrap_err();
        assert_eq!(e1.to_string(), e4.to_string());
        // A weight-source error is passed on as it is, without a prefix.
        assert_eq!(e1.to_string(), failing(2, &layers[2].0).unwrap_err().to_string());
    }

    #[test]
    fn error_identifies_layer() {
        let mut layers = small_net();
        layers[1].1 = Tensor::zeros(&[3, 3]); // wrong shape
        let err = compress(&layers, &cfg()).unwrap_err();
        assert!(err.to_string().contains("fc"), "error was {err}");
    }

    #[test]
    fn serialized_roundtrip_is_bit_identical() {
        let net = compress(&small_net(), &cfg()).unwrap();
        let bytes = net.to_bytes().unwrap();
        let back = CompressedNetwork::from_bytes(&bytes).unwrap();
        assert_eq!(net, back);
        // Parts decode to working SE layers.
        assert_eq!(back.parts[0][0].reconstruct_weights().unwrap().shape(), &[8, 3, 3, 3]);
        // Wrong payload kind and corrupt headers are rejected.
        assert!(CompressedNetwork::from_bytes(&bytes[..10]).is_err());
        let mut wrong = bytes.clone();
        wrong[6] = 1; // TraceSet tag
        assert!(CompressedNetwork::from_bytes(&wrong).is_err());
    }

    #[test]
    fn hostile_counts_are_an_error_not_an_abort() {
        // A valid empty network whose layer count is patched to u32::MAX,
        // then a first layer whose part count is u32::MAX, then 64 MB of
        // filler: decoding must fail on the first part instead of sizing
        // an allocation from either count.
        let empty = CompressedNetwork { parts: vec![], reports: vec![] };
        let mut bytes = empty.to_bytes().unwrap();
        let count = bytes.len() - 4;
        bytes[count..].copy_from_slice(&u32::MAX.to_le_bytes());
        // Layer 0: empty name, zero params/storage/sparsity/error.
        bytes.extend_from_slice(&[0; 4 + 8 + 3 * 8 + 4 + 4]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(bytes.len() + (64 << 20), 0);
        assert!(CompressedNetwork::from_bytes(&bytes).is_err());
    }

    #[test]
    fn recon_error_reported_and_bounded() {
        let net = compress(&small_net(), &cfg()).unwrap();
        for r in &net.reports {
            assert!(r.recon_error.is_finite());
            assert!(r.recon_error < 0.6, "{}: {}", r.name, r.recon_error);
        }
        assert!(net.mean_recon_error() < 0.6);
    }
}
