//! Persisted compression-side artifacts: whole-network
//! [`CompressedNetwork`]s written through the existing
//! `to_bytes`/`from_bytes` codec and keyed like the `*.setrace` trace
//! artifacts (`<net>-<options digest>.senet` under `--traces-dir`).
//!
//! The compression experiments (`se table2`, `se table3`, `se postproc`)
//! recompress every network from its synthetic seed on each run; caching
//! the [`CompressedNetwork`] trades that recomputation for one file read,
//! the same inverse-of-the-paper trade the simulation side already makes
//! for traces. Artifacts are self-populating: a cached run writes on miss
//! and replays on hit, and both paths produce bit-identical reports.

use crate::traces::{fnv1a, io_err, publish, put_se_config, sanitize_net_name};
use crate::{weights, Result};
use se_core::network::{CompressedNetwork, LayerReport};
use se_core::pipeline::{self, LayerJob, WeightSource};
use se_core::{CoreError, SeConfig};
use se_ir::serialize::ByteWriter;
use se_ir::{LayerDesc, NetworkDesc};
use se_tensor::Tensor;
use std::path::{Path, PathBuf};

/// File extension of persisted compressed networks.
pub const NETWORK_FILE_EXT: &str = "senet";

/// A stable 64-bit digest of everything that determines a compressed
/// network: the synthetic-weight seed and the full [`SeConfig`] (worker
/// counts excluded — compression is bit-identical across them). Keys the
/// artifact filename, so changed options can never replay a stale file.
pub fn compression_digest(cfg: &SeConfig, seed: u64) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(seed);
    // Domain tag so a compression digest can never collide with a trace
    // digest built from the same configuration.
    w.put_u8(b'C');
    put_se_config(&mut w, cfg);
    fnv1a(&w.into_bytes())
}

/// The artifact filename for a network compressed under `cfg` and `seed`:
/// `<sanitized-net-name>-<16-hex-digit digest>.senet`.
pub fn network_file_name(net_name: &str, cfg: &SeConfig, seed: u64) -> String {
    format!(
        "{}-{:016x}.{NETWORK_FILE_EXT}",
        sanitize_net_name(net_name),
        compression_digest(cfg, seed)
    )
}

/// Writes a compressed network into `dir` under [`network_file_name`]
/// using [`CompressedNetwork::to_bytes`], creating the directory if
/// needed. Published atomically (temp file + rename) so an interrupted
/// build never leaves a truncated artifact. Returns the file path.
///
/// # Errors
///
/// Propagates encoding and filesystem failures.
pub fn write_network_file(
    dir: &Path,
    net_name: &str,
    cfg: &SeConfig,
    seed: u64,
    network: &CompressedNetwork,
) -> Result<PathBuf> {
    let bytes = network.to_bytes()?;
    publish(dir, &network_file_name(net_name, cfg, seed), &bytes)
}

/// Size in bytes of an artifact file of either kind (`*.senet` or
/// `*.setrace`) on disk, without reading or decoding it.
///
/// # Errors
///
/// Propagates filesystem failures (missing file, permission).
pub fn artifact_bytes(path: &Path) -> Result<u64> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| io_err(path, e))
}

/// Reads a compressed-network artifact via [`CompressedNetwork::from_bytes`].
///
/// # Errors
///
/// Propagates filesystem and decoding failures.
pub fn read_network_file(path: &Path) -> Result<CompressedNetwork> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    Ok(CompressedNetwork::from_bytes(&bytes)?)
}

/// Looks a network's compressed form up in the artifact directory:
/// `Ok(Some(_))` on a hit, `Ok(None)` when no artifact exists for these
/// options. The decoded artifact is validated against the network's layer
/// inventory (count and names), so a file planted under the wrong name is
/// a loud error, not a silently wrong replay.
///
/// # Errors
///
/// Propagates read/decode failures and layer-inventory mismatches.
pub fn cached_compressed_network(
    net: &NetworkDesc,
    cfg: &SeConfig,
    seed: u64,
    dir: &Path,
) -> Result<Option<CompressedNetwork>> {
    let path = dir.join(network_file_name(net.name(), cfg, seed));
    if !path.exists() {
        return Ok(None);
    }
    let network = read_network_file(&path)?;
    if network.reports.len() != net.layers().len() {
        return Err(io_err(
            &path,
            format!(
                "artifact holds {} layers, network {} has {}",
                network.reports.len(),
                net.name(),
                net.layers().len()
            ),
        ));
    }
    for (report, desc) in network.reports.iter().zip(net.layers()) {
        if report.name != desc.name() {
            return Err(io_err(
                &path,
                format!(
                    "artifact layer {:?} does not match network layer {:?}",
                    report.name,
                    desc.name()
                ),
            ));
        }
    }
    Ok(Some(network))
}

/// Compresses every layer of `net` from its synthetic weights on the
/// parallel work queue, keeping the compressed parts (unlike the
/// streaming report-only path) so the result can be persisted.
///
/// # Errors
///
/// Propagates weight-generation and compression failures.
pub fn compress_network(net: &NetworkDesc, cfg: &SeConfig, seed: u64) -> Result<CompressedNetwork> {
    let generate = |d: &LayerDesc| -> se_core::Result<Tensor> {
        weights::synthetic_weights(net.name(), d, seed)
            .map_err(|e| CoreError::InvalidWeights { reason: e.to_string() })
    };
    let jobs: Vec<LayerJob<'_>> = net
        .layers()
        .iter()
        .map(|desc| LayerJob { desc, weights: WeightSource::Generate(&generate) })
        .collect();
    let (parts, reports) = pipeline::compress_jobs(&jobs, cfg)?.into_iter().unzip();
    Ok(CompressedNetwork { parts, reports })
}

/// The per-layer compression reports for `net` under `cfg`/`seed`, through
/// the artifact cache when `dir` is given:
///
/// * **hit** — the persisted [`CompressedNetwork`] is replayed (reports
///   round-trip bit-identically, every `f32`);
/// * **miss with a directory** — the network is compressed once (keeping
///   parts) and the artifact written for subsequent runs;
/// * **no directory** — the streaming report-only path of
///   [`se_core::network::compress_network_reports`], which never holds a
///   whole network's parts in memory.
///
/// All three paths produce identical reports.
///
/// # Errors
///
/// Propagates compression, read/write, and validation failures.
pub fn network_reports_cached(
    net: &NetworkDesc,
    cfg: &SeConfig,
    seed: u64,
    dir: Option<&Path>,
) -> Result<Vec<LayerReport>> {
    let Some(dir) = dir else {
        let descs: Vec<LayerDesc> = net.layers().to_vec();
        return Ok(se_core::network::compress_network_reports(&descs, cfg, |d| {
            weights::synthetic_weights(net.name(), d, seed)
                .map_err(|e| CoreError::InvalidWeights { reason: e.to_string() })
        })?);
    };
    if let Some(cached) = cached_compressed_network(net, cfg, seed, dir)? {
        return Ok(cached.reports);
    }
    let network = compress_network(net, cfg, seed)?;
    write_network_file(dir, net.name(), cfg, seed, &network)?;
    Ok(network.reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("se-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> SeConfig {
        SeConfig::default().with_max_iterations(4).unwrap()
    }

    #[test]
    fn digest_separates_options_and_domains() {
        let base = compression_digest(&cfg(), 0);
        assert_ne!(base, compression_digest(&cfg(), 1), "seed must change the digest");
        let other = cfg().with_max_iterations(5).unwrap();
        assert_ne!(base, compression_digest(&other, 0), "config must change the digest");
        // Same config, different artifact kind: different key space.
        let topts =
            crate::traces::TraceOptions { base_seed: 0, se_config: cfg(), conv_like_only: true };
        assert_ne!(base, crate::traces::options_digest(&topts));
        let name = network_file_name("EfficientNet-B0", &cfg(), 0);
        assert!(name.starts_with("efficientnet-b0-"));
        assert!(name.ends_with(".senet"));
    }

    #[test]
    fn roundtrip_and_cache_reports_are_bit_identical() {
        let net = zoo::mlp2();
        let dir = temp_dir("roundtrip");
        let direct = network_reports_cached(&net, &cfg(), 0, None).unwrap();

        // Miss with a directory: compresses, persists, same reports.
        let written = network_reports_cached(&net, &cfg(), 0, Some(&dir)).unwrap();
        assert_eq!(direct, written);
        let path = dir.join(network_file_name(net.name(), &cfg(), 0));
        assert!(path.exists());

        // Hit: replayed from disk, still identical — including parts.
        let replayed = network_reports_cached(&net, &cfg(), 0, Some(&dir)).unwrap();
        assert_eq!(direct, replayed);
        let full = cached_compressed_network(&net, &cfg(), 0, &dir).unwrap().unwrap();
        assert_eq!(full, compress_network(&net, &cfg(), 0).unwrap());

        // Other options miss.
        assert!(cached_compressed_network(&net, &cfg(), 7, &dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_mismatched_artifacts_are_loud_errors() {
        let net = zoo::mlp2();
        let dir = temp_dir("corrupt");
        network_reports_cached(&net, &cfg(), 0, Some(&dir)).unwrap();
        let path = dir.join(network_file_name(net.name(), &cfg(), 0));

        // Truncation: error, not a silent miss.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cached_compressed_network(&net, &cfg(), 0, &dir).is_err());
        std::fs::write(&path, &bytes).unwrap();

        // A valid artifact planted under another network's key: layer
        // inventory mismatch (count, then names).
        let other = se_ir::NetworkDesc::new(
            "other",
            se_ir::Dataset::Mnist,
            vec![
                se_ir::LayerDesc::new(
                    "lin1",
                    se_ir::LayerKind::Linear { in_features: 784, out_features: 10 },
                    (1, 1),
                ),
                se_ir::LayerDesc::new(
                    "lin2",
                    se_ir::LayerKind::Linear { in_features: 10, out_features: 10 },
                    (1, 1),
                ),
            ],
        )
        .unwrap();
        let planted = dir.join(network_file_name(other.name(), &cfg(), 0));
        std::fs::copy(&path, &planted).unwrap();
        let err = cached_compressed_network(&other, &cfg(), 0, &dir).unwrap_err();
        assert!(
            err.to_string().contains("does not match") || err.to_string().contains("layers"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
