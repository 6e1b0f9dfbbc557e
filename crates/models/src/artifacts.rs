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
//! and replays on hit, and both paths produce bit-identical reports. A
//! miss compresses through [`se_core::network::compress_network`], with
//! each layer's synthetic weights generated on the worker that compresses
//! it.

use crate::traces::{
    decode_err, fnv1a, io_err, open_artifact, publish, put_se_config, sanitize_net_name,
};
use crate::{weights, Result};
use se_core::network::{compress_network, CompressedNetwork, LayerReport};
use se_core::{CoreError, SeConfig};
use se_ir::serialize::ByteWriter;
use se_ir::NetworkDesc;
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
    publish(dir, &network_file_name(net_name, cfg, seed), |out| out(&bytes))
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

/// Reads a compressed-network artifact via [`CompressedNetwork::read`],
/// decoding straight from the open file through the reader's buffer.
///
/// # Errors
///
/// Propagates filesystem failures, and decoding failures as
/// [`crate::ModelError::Artifact`] naming the file.
pub fn read_network_file(path: &Path) -> Result<CompressedNetwork> {
    CompressedNetwork::read(&mut open_artifact(path)?).map_err(|e| decode_err(path, e))
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

/// The per-layer compression reports for `net` under `cfg`/`seed`, through
/// the artifact cache when `dir` is given: a hit replays the persisted
/// [`CompressedNetwork`] (reports round-trip bit-identically, every
/// `f32`); otherwise the network is compressed from its synthetic weights
/// and, when `dir` is given, the artifact is written for later runs. Every
/// path gives identical reports.
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
    if let Some(dir) = dir {
        if let Some(cached) = cached_compressed_network(net, cfg, seed, dir)? {
            return Ok(cached.reports);
        }
    }
    let network = compress_network(net.layers(), cfg, |_, d| {
        weights::synthetic_weights(net.name(), d, seed)
            .map_err(|e| CoreError::InvalidWeights { reason: e.to_string() })
    })?;
    if let Some(dir) = dir {
        write_network_file(dir, net.name(), cfg, seed, &network)?;
    }
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
        let direct = network_reports_cached(&net, &cfg(), 0, None).unwrap();
        // The written artifact is the same at every worker count.
        let mut written = Vec::new();
        for workers in [1usize, 4] {
            let wcfg = cfg().with_parallelism(workers).unwrap();
            let dir = temp_dir(&format!("roundtrip-{workers}"));
            // Miss with a directory: compresses, persists, same reports.
            let missed = network_reports_cached(&net, &wcfg, 0, Some(&dir)).unwrap();
            assert_eq!(direct, missed, "workers = {workers}");
            // Hit: replayed from disk, still identical.
            let hit = network_reports_cached(&net, &wcfg, 0, Some(&dir)).unwrap();
            assert_eq!(direct, hit, "workers = {workers}");
            let path = dir.join(network_file_name(net.name(), &wcfg, 0));
            written.push(std::fs::read(&path).unwrap());
            if workers == 1 {
                // The replayed artifact holds the parts a fresh run makes.
                let full = cached_compressed_network(&net, &wcfg, 0, &dir).unwrap().unwrap();
                let fresh = compress_network(net.layers(), &wcfg, |_, d| {
                    Ok(weights::synthetic_weights(net.name(), d, 0).unwrap())
                });
                assert_eq!(full, fresh.unwrap());
                // Other options miss.
                assert!(cached_compressed_network(&net, &wcfg, 7, &dir).unwrap().is_none());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(written[0] == written[1], "the .senet bytes differ between 1 and 4 workers");
    }

    #[test]
    fn corrupt_or_mismatched_artifacts_are_loud_errors() {
        let net = zoo::mlp2();
        let dir = temp_dir("corrupt");
        network_reports_cached(&net, &cfg(), 0, Some(&dir)).unwrap();
        let path = dir.join(network_file_name(net.name(), &cfg(), 0));

        // Truncation: an error naming the file and the offset, not a
        // silent miss.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = cached_compressed_network(&net, &cfg(), 0, &dir).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("truncated input") && err.contains(" at offset "), "{err}");
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
