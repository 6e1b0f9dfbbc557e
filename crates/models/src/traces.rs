//! Per-layer simulation traces: the same synthetic weights and activations
//! packaged both ways — dense 8-bit for the baseline accelerators and
//! SmartExchange-compressed for the SE accelerator — so every simulator
//! sees identical data (the paper's equal-footing methodology).
//!
//! [`for_each_chunk`] is the one source of a network's pairs. An artifact
//! replay (`*.setrace`, built by `se trace build`) holds the whole network
//! in memory and is handed over as one chunk; generation streams the
//! traced layers in chunks of a caller-chosen size, so peak memory stays
//! bounded on ImageNet-scale models. [`trace_pairs`] is the collect-all
//! form and [`trace_pair`] generates one layer.

use crate::{activations, weights, ModelError, Result};
use se_core::{pipeline, SeConfig};
use se_ir::{LayerTrace, NetworkDesc, QuantTensor, WeightData};

/// Options controlling trace generation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Base seed for synthetic weights and activations.
    pub base_seed: u64,
    /// SmartExchange configuration for the compressed variant.
    pub se_config: SeConfig,
    /// Skip FC layers (the Figs. 10–12 protocol, which excludes FC for
    /// fairness to SCNN).
    pub conv_like_only: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { base_seed: 0, se_config: trace_se_config(30), conv_like_only: true }
    }
}

/// The SE configuration used for trace generation: the scale-free relative
/// vector-sparsity threshold stands in for the paper's per-layer manual
/// thresholds (it adapts to each layer's weight magnitudes and picks up the
/// near-zero rows that the networks' natural element sparsity produces).
fn trace_se_config(iterations: usize) -> SeConfig {
    SeConfig::default()
        .with_max_iterations(iterations)
        .expect("static configuration is valid")
        .with_vector_sparsity(se_core::VectorSparsity::RelativeThreshold(0.4))
        .expect("static configuration is valid")
}

impl TraceOptions {
    /// A faster configuration for large sweeps: fewer decomposition
    /// iterations (the factorisation converges early; see Fig. 9).
    ///
    /// # Panics
    ///
    /// Never panics; the static configuration is valid.
    pub fn fast() -> Self {
        TraceOptions { base_seed: 0, se_config: trace_se_config(6), conv_like_only: true }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the SmartExchange configuration.
    pub fn with_se_config(mut self, cfg: SeConfig) -> Self {
        self.se_config = cfg;
        self
    }

    /// Includes FC layers in the stream (the Fig. 13(b) protocol).
    pub fn with_fc_layers(mut self) -> Self {
        self.conv_like_only = false;
        self
    }
}

/// A matched pair of traces for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePair {
    /// Index of the layer within the network descriptor.
    pub layer_index: usize,
    /// Dense-weight trace (baseline accelerators).
    pub dense: LayerTrace,
    /// SmartExchange-compressed trace (SE accelerator).
    pub se: LayerTrace,
}

/// Generates the matched trace pair for one layer. The synthetic weights
/// and activations are generated once and shared by both traces: the
/// dense trace quantizes them to 8 bits, the SE trace compresses the same
/// weights with `opts.se_config`.
///
/// # Errors
///
/// Propagates weight/activation generation, quantization, and compression
/// failures.
pub fn trace_pair(net: &NetworkDesc, layer_index: usize, opts: &TraceOptions) -> Result<TracePair> {
    let desc = net.layers()[layer_index].clone();
    let w = weights::synthetic_weights(net.name(), &desc, opts.base_seed)?;
    let qw = QuantTensor::quantize(&w, 8)?;
    let act = activations::synthetic_activation(net, layer_index, opts.base_seed)?;
    let qa = QuantTensor::quantize(&act, 8)?;
    let parts = se_core::layer::compress_layer(&desc, &w, &opts.se_config)?;
    let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw), qa.clone())?;
    let se = LayerTrace::new(desc, WeightData::Se(parts), qa)?;
    Ok(TracePair { layer_index, dense, se })
}

/// Indices of the layers the options trace, in network order: every layer,
/// or only the conv-like ones.
fn traced_layers(net: &NetworkDesc, opts: &TraceOptions) -> Vec<usize> {
    let keep = |d: &se_ir::LayerDesc| !opts.conv_like_only || d.kind().is_conv_like();
    net.layers().iter().enumerate().filter(|(_, d)| keep(d)).map(|(i, _)| i).collect()
}

/// Generates the pairs of `layers` on the work queue of
/// [`se_core::pipeline`], in the given order. `pipeline::worker_config`
/// splits the thread budget of `opts.se_config.parallelism()` between the
/// layer queue and the per-layer decomposition threads; results are
/// bit-identical for every worker count.
fn generate(net: &NetworkDesc, layers: &[usize], opts: &TraceOptions) -> Result<Vec<TracePair>> {
    let wopts = opts.clone().with_se_config(pipeline::worker_config(&opts.se_config, layers.len()));
    pipeline::try_run_ordered(layers, opts.se_config.parallelism(), |_, &i| {
        trace_pair(net, i, &wopts)
    })
}

/// Generates every traced layer's pair at once, in network order. This
/// holds the whole network; [`for_each_chunk`] bounds memory for
/// ImageNet-scale models.
///
/// # Errors
///
/// Returns the first (lowest-index) per-layer failure.
pub fn trace_pairs(net: &NetworkDesc, opts: &TraceOptions) -> Result<Vec<TracePair>> {
    generate(net, &traced_layers(net, opts), opts)
}

/// Feeds a network's trace pairs to `consume` in network order: the one
/// place that decides where pairs come from. When `dir` holds an artifact
/// for this network and these options, the whole artifact is handed over
/// as one chunk (see [`cached_trace_pairs`]). Otherwise the traced layers
/// are generated `chunk` at a time, so at most `chunk` generated pairs are
/// alive at once. Both sources give the same bits: artifacts round-trip
/// exactly and generation is a pure function of the options.
///
/// # Errors
///
/// Propagates artifact read/decode failures, the lowest-index generation
/// failure, and the first failure of `consume`.
pub fn for_each_chunk<E: From<ModelError>>(
    net: &NetworkDesc,
    opts: &TraceOptions,
    dir: Option<&Path>,
    chunk: usize,
    mut consume: impl FnMut(Vec<TracePair>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    if let Some(dir) = dir {
        if let Some(pairs) = cached_trace_pairs(net, opts, dir)? {
            return consume(pairs);
        }
    }
    for layers in traced_layers(net, opts).chunks(chunk.max(1)) {
        consume(generate(net, layers, opts)?)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Persisted trace artifacts
// ---------------------------------------------------------------------------
//
// A sweep regenerates the same expensive SE decompositions in every
// experiment binary; persisting the trace pairs once and replaying them
// trades that recomputation for one cheap file read (the inverse of the
// paper's trade, applied to the harness itself). Files use the versioned
// binary codec of `se_ir::serialize` (layout: docs/TRACE_FORMAT.md) and
// round-trip bit-identically, so a cached run is byte-for-byte the same as
// a direct one.

use se_ir::serialize::{self as ser, ByteReader, ByteWriter, PayloadKind};
use std::path::{Path, PathBuf};

/// File extension of persisted trace-pair sets.
pub const TRACE_FILE_EXT: &str = "setrace";

/// The error for a failed read or write of an artifact file (shared by
/// every artifact kind).
pub(crate) fn io_err(path: &Path, e: impl std::fmt::Display) -> ModelError {
    ModelError::Io { path: path.display().to_string(), reason: e.to_string() }
}

/// Writes `bytes` to `dir/name`, creating `dir` if needed, and returns the
/// path (shared by every artifact kind). The file is published atomically
/// (written to a temp name, then renamed): an interrupted build must never
/// leave a truncated artifact at the final path, since a present-but-corrupt
/// artifact is a loud error for every later cached run.
pub(crate) fn publish(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

/// A stable 64-bit digest of every [`TraceOptions`] field that influences
/// generated traces — seed, layer filter, and the full SE configuration —
/// deliberately **excluding** worker counts: results are bit-identical for
/// every parallelism level, so a cache built at one level must hit at all
/// others.
///
/// The digest keys cache filenames (see [`trace_file_name`]) and is stored
/// in the file so a stale artifact can never be replayed against changed
/// options.
pub fn options_digest(opts: &TraceOptions) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(opts.base_seed);
    w.put_bool(opts.conv_like_only);
    put_se_config(&mut w, &opts.se_config);
    fnv1a(&w.into_bytes())
}

/// Canonical byte encoding of every generation-relevant [`SeConfig`] field
/// (worker counts excluded — results are bit-identical across them),
/// shared by the trace digest above and the compression-artifact digest of
/// [`crate::artifacts`].
pub(crate) fn put_se_config(w: &mut ByteWriter, cfg: &SeConfig) {
    w.put_i32(cfg.po2().max_exp());
    w.put_u32(cfg.po2().count());
    w.put_u64(cfg.max_iterations() as u64);
    w.put_u32(cfg.tol().to_bits());
    w.put_u32(cfg.ridge().to_bits());
    match cfg.vector_sparsity() {
        se_core::VectorSparsity::None => {
            w.put_u8(0);
            w.put_u32(0);
        }
        se_core::VectorSparsity::Threshold(t) => {
            w.put_u8(1);
            w.put_u32(t.to_bits());
        }
        se_core::VectorSparsity::KeepFraction(f) => {
            w.put_u8(2);
            w.put_u32(f.to_bits());
        }
        se_core::VectorSparsity::RelativeThreshold(f) => {
            w.put_u8(3);
            w.put_u32(f.to_bits());
        }
        // `VectorSparsity` is non-exhaustive; a future variant must not
        // silently collide with an existing digest.
        other => {
            w.put_u8(255);
            let _ = w.put_str(&format!("{other:?}"));
        }
    }
    match cfg.channel_prune_threshold() {
        None => {
            w.put_u8(0);
            w.put_u32(0);
        }
        Some(t) => {
            w.put_u8(1);
            w.put_u32(t.to_bits());
        }
    }
    w.put_u64(cfg.fc_width() as u64);
    w.put_u64(cfg.max_unit_rows() as u64);
    w.put_bool(cfg.quantize_basis());
}

/// FNV-1a over the canonical option encoding: tiny, dependency-free, and
/// stable across platforms (all inputs are little-endian bytes).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lowercases a network name and replaces non-alphanumerics so it is safe
/// as a filename component (shared by every artifact kind).
pub(crate) fn sanitize_net_name(net_name: &str) -> String {
    net_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

/// The cache filename for a network under the given options:
/// `<sanitized-net-name>-<16-hex-digit digest>.setrace`.
pub fn trace_file_name(net_name: &str, opts: &TraceOptions) -> String {
    format!("{}-{:016x}.{TRACE_FILE_EXT}", sanitize_net_name(net_name), options_digest(opts))
}

/// A decoded trace-artifact file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Network name recorded at build time.
    pub net_name: String,
    /// [`options_digest`] of the options the traces were generated under.
    pub digest: u64,
    /// The trace pairs, in network order.
    pub pairs: Vec<TracePair>,
}

/// Serializes trace pairs to the versioned byte format (without touching
/// the filesystem — the testable core of [`write_trace_file`]).
///
/// # Errors
///
/// Propagates codec failures (oversized dimension fields).
pub fn encode_trace_pairs(net_name: &str, digest: u64, pairs: &[TracePair]) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    ser::write_header(&mut w, PayloadKind::TraceSet);
    w.put_str(net_name)?;
    w.put_u64(digest);
    w.put_u32(pairs.len() as u32);
    for pair in pairs {
        w.put_u64(pair.layer_index as u64);
        ser::write_layer_trace(&mut w, &pair.dense)?;
        ser::write_layer_trace(&mut w, &pair.se)?;
    }
    Ok(w.into_bytes())
}

/// Decodes a trace-artifact byte buffer (the inverse of
/// [`encode_trace_pairs`]); the round trip is bit-identical.
///
/// # Errors
///
/// Propagates codec failures: bad magic, version or payload-kind mismatch,
/// truncation, trailing garbage, or failed re-validation of a trace.
pub fn decode_trace_pairs(bytes: &[u8]) -> Result<TraceFile> {
    let mut r = ByteReader::new(bytes);
    ser::expect_header(&mut r, PayloadKind::TraceSet)?;
    let net_name = r.get_str()?;
    let digest = r.get_u64()?;
    let n = r.get_u32()? as usize;
    // No reservation: a hostile count must not size an allocation.
    let mut pairs = Vec::new();
    for _ in 0..n {
        let layer_index = r.get_u64()? as usize;
        let dense = ser::read_layer_trace(&mut r)?;
        let se = ser::read_layer_trace(&mut r)?;
        pairs.push(TracePair { layer_index, dense, se });
    }
    r.expect_end()?;
    Ok(TraceFile { net_name, digest, pairs })
}

/// Writes a network's trace pairs into `dir` under [`trace_file_name`],
/// creating the directory if needed and publishing atomically. Returns the
/// file path.
///
/// # Errors
///
/// Propagates encoding and filesystem failures.
pub fn write_trace_file(
    dir: &Path,
    net: &NetworkDesc,
    opts: &TraceOptions,
    pairs: &[TracePair],
) -> Result<PathBuf> {
    let bytes = encode_trace_pairs(net.name(), options_digest(opts), pairs)?;
    publish(dir, &trace_file_name(net.name(), opts), &bytes)
}

/// Reads a trace-artifact file.
///
/// # Errors
///
/// Propagates filesystem and decoding failures.
pub fn read_trace_file(path: &Path) -> Result<TraceFile> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_trace_pairs(&bytes)
}

/// Looks a network's traces up in the cache directory: `Ok(Some(pairs))`
/// on a hit, `Ok(None)` when no artifact exists for these options (the
/// caller falls back to generating). A present-but-corrupt or mismatched
/// artifact is an error, not a silent miss — replaying wrong traces would
/// silently change results.
///
/// # Errors
///
/// Propagates read/decode failures and name/digest mismatches.
pub fn cached_trace_pairs(
    net: &NetworkDesc,
    opts: &TraceOptions,
    dir: &Path,
) -> Result<Option<Vec<TracePair>>> {
    let path = dir.join(trace_file_name(net.name(), opts));
    if !path.exists() {
        return Ok(None);
    }
    let file = read_trace_file(&path)?;
    if file.net_name != net.name() {
        return Err(io_err(
            &path,
            format!("artifact is for network {:?}, wanted {:?}", file.net_name, net.name()),
        ));
    }
    let expect = options_digest(opts);
    if file.digest != expect {
        return Err(io_err(
            &path,
            format!(
                "artifact was built under options digest {:016x}, current options are {expect:016x}",
                file.digest
            ),
        ));
    }
    Ok(Some(file.pairs))
}

/// Generates a network's trace pairs (on the parallel work queue, like
/// [`trace_pairs`]) and persists them into `dir`. Returns the artifact
/// path and the number of pairs written.
///
/// # Errors
///
/// Propagates generation, encoding, and filesystem failures.
pub fn build_trace_file(
    net: &NetworkDesc,
    opts: &TraceOptions,
    dir: &Path,
) -> Result<(PathBuf, usize)> {
    let pairs = trace_pairs(net, opts)?;
    let path = write_trace_file(dir, net, opts, &pairs)?;
    Ok((path, pairs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use se_ir::{Dataset, LayerDesc, LayerKind};

    fn tiny_net() -> NetworkDesc {
        NetworkDesc::new(
            "tiny",
            Dataset::Cifar10,
            vec![
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
                LayerDesc::new(
                    "c2",
                    LayerKind::Conv2d {
                        in_channels: 8,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    (8, 8),
                ),
                LayerDesc::new(
                    "fc",
                    LayerKind::Linear { in_features: 8, out_features: 10 },
                    (1, 1),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_and_se_traces_share_inputs() {
        let net = tiny_net();
        let opts = TraceOptions::fast();
        let pairs = trace_pairs(&net, &opts).unwrap();
        assert_eq!(pairs.len(), 2); // FC skipped by default
        for p in &pairs {
            assert_eq!(p.dense.input(), p.se.input());
            assert!(p.se.weights().is_se());
            assert!(!p.dense.weights().is_se());
        }
    }

    #[test]
    fn parallel_stream_is_bit_identical_to_serial() {
        let net = tiny_net();
        let serial_opts = TraceOptions::fast()
            .with_se_config(TraceOptions::fast().se_config.with_parallelism(1).unwrap());
        let serial = trace_pairs(&net, &serial_opts).unwrap();
        for workers in [2usize, 4] {
            let opts = TraceOptions::fast()
                .with_se_config(TraceOptions::fast().se_config.with_parallelism(workers).unwrap());
            assert_eq!(trace_pairs(&net, &opts).unwrap(), serial, "workers = {workers}");
        }
    }

    #[test]
    fn fc_included_when_requested() {
        let net = tiny_net();
        let opts = TraceOptions::fast().with_fc_layers();
        let pairs = trace_pairs(&net, &opts).unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2].layer_index, 2);
    }

    #[test]
    fn se_weights_approximate_dense_weights() {
        let net = tiny_net();
        let pair = trace_pair(&net, 0, &TraceOptions::fast()).unwrap();
        let (dense_w, se_parts) = match (pair.dense.weights(), pair.se.weights()) {
            (WeightData::Dense(d), WeightData::Se(s)) => (d, s),
            other => panic!("unexpected weight kinds {other:?}"),
        };
        let recon = se_core::layer::reconstruct_layer(pair.dense.desc(), se_parts).unwrap();
        let orig = dense_w.dequantize();
        let rel = orig.sub(&recon).unwrap().norm() / orig.norm();
        assert!(rel < 0.45, "relative error {rel}");
    }

    fn with_workers(opts: TraceOptions, workers: usize) -> TraceOptions {
        let cfg = opts.se_config.clone().with_parallelism(workers).unwrap();
        opts.with_se_config(cfg)
    }

    /// Every chunk [`for_each_chunk`] hands over, in order.
    fn chunks(
        net: &NetworkDesc,
        opts: &TraceOptions,
        dir: Option<&Path>,
        chunk: usize,
    ) -> Vec<Vec<TracePair>> {
        let mut out = Vec::new();
        for_each_chunk(net, opts, dir, chunk, |pairs| {
            out.push(pairs);
            Result::Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn chunked_pairs_equal_trace_pairs_and_artifact_replay() {
        let dir = temp_dir("chunks");
        for (net, opts) in [
            (tiny_net(), TraceOptions::fast()),
            (tiny_net(), TraceOptions::fast().with_fc_layers()),
            (zoo::mlp2(), TraceOptions::fast().with_fc_layers().with_seed(4)),
        ] {
            let all = trace_pairs(&net, &opts).unwrap();
            assert!(all.len() >= 2, "{}: a chunk size of 1 must split the network", net.name());
            for workers in [1usize, 4] {
                let opts = with_workers(opts.clone(), workers);
                for chunk in [1, 2, all.len()] {
                    let got = chunks(&net, &opts, None, chunk);
                    assert!(got.iter().all(|c| !c.is_empty() && c.len() <= chunk));
                    assert_eq!(got.len(), all.len().div_ceil(chunk));
                    assert_eq!(got.concat(), all, "{} chunk {chunk} workers {workers}", net.name());
                }
            }
            // An artifact hit is one chunk holding the whole network, at
            // any chunk size; a miss in `dir` falls back to generation.
            assert_eq!(chunks(&net, &opts, Some(&dir), 1).concat(), all);
            build_trace_file(&net, &opts, &dir).unwrap();
            for chunk in [1, 2] {
                assert_eq!(chunks(&net, &opts, Some(&dir), chunk), vec![all.clone()]);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failing_layer_gives_the_lowest_index_error_at_every_chunk_size() {
        // Squeeze-excite layers with a zero-width bottleneck pass the
        // geometry checks but fail compression: layers 2 and 4 fail.
        let conv = |name: &str| {
            LayerDesc::new(
                name,
                LayerKind::Conv2d {
                    in_channels: 8,
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                (8, 8),
            )
        };
        let bad = |name: &str, channels| {
            LayerDesc::new(name, LayerKind::SqueezeExcite { channels, reduced: 0 }, (8, 8))
        };
        let net = NetworkDesc::new(
            "failing",
            Dataset::Cifar10,
            vec![conv("c0"), conv("c1"), bad("se2", 8), conv("c3"), bad("se4", 16)],
        )
        .unwrap();
        let opts = TraceOptions::fast();
        let expected = trace_pair(&net, 2, &opts).unwrap_err();
        assert_eq!(trace_pairs(&net, &opts).unwrap_err(), expected);
        for workers in [1usize, 4] {
            let opts = with_workers(opts.clone(), workers);
            for chunk in [1, 2, net.layers().len()] {
                let mut consumed = Vec::new();
                let err = for_each_chunk(&net, &opts, None, chunk, |pairs| {
                    consumed.extend(pairs.into_iter().map(|p| p.layer_index));
                    Result::Ok(())
                })
                .unwrap_err();
                assert_eq!(err, expected, "chunk {chunk} workers {workers}");
                // Only the whole chunks before the failing layer were
                // handed over.
                let before = if chunk > 2 { 0 } else { 2 };
                assert_eq!(consumed, (0..before).collect::<Vec<_>>());
            }
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("se-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn trace_file_roundtrip_is_bit_identical() {
        let net = tiny_net();
        let opts = TraceOptions::fast();
        let pairs = trace_pairs(&net, &opts).unwrap();
        let dir = temp_dir("roundtrip");
        let path = write_trace_file(&dir, &net, &opts, &pairs).unwrap();
        assert_eq!(path.extension().unwrap(), TRACE_FILE_EXT);
        let file = read_trace_file(&path).unwrap();
        assert_eq!(file.net_name, "tiny");
        assert_eq!(file.digest, options_digest(&opts));
        assert_eq!(file.pairs, pairs); // bit-identical, every f32
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_pair_count_is_an_error_not_an_abort() {
        // A valid empty artifact whose pair count is patched to u32::MAX,
        // followed by 64 MB of filler: decoding must fail on the first
        // record instead of sizing an allocation from the count.
        let mut bytes = encode_trace_pairs("x", 0, &[]).unwrap();
        let count = bytes.len() - 4;
        bytes[count..].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(bytes.len() + (64 << 20), 0xFF);
        assert!(decode_trace_pairs(&bytes).is_err());
    }

    #[test]
    fn cache_hits_across_parallelism_and_misses_across_options() {
        let net = tiny_net();
        let opts = TraceOptions::fast();
        let dir = temp_dir("cache");
        assert_eq!(cached_trace_pairs(&net, &opts, &dir).unwrap(), None, "cold cache misses");
        let (_, n) = build_trace_file(&net, &opts, &dir).unwrap();
        assert_eq!(n, 2);

        // Hit: same options.
        let hit = cached_trace_pairs(&net, &opts, &dir).unwrap().unwrap();
        assert_eq!(hit.len(), 2);

        // Hit: different worker count (parallelism is excluded from the
        // digest — results are bit-identical across worker counts).
        let par = opts.clone().with_se_config(opts.se_config.clone().with_parallelism(3).unwrap());
        assert_eq!(options_digest(&par), options_digest(&opts));
        assert!(cached_trace_pairs(&net, &par, &dir).unwrap().is_some());

        // Miss: any generation-relevant option changes the digest.
        let seeded = opts.clone().with_seed(9);
        assert_ne!(options_digest(&seeded), options_digest(&opts));
        assert_eq!(cached_trace_pairs(&net, &seeded, &dir).unwrap(), None);
        let with_fc = opts.clone().with_fc_layers();
        assert_ne!(options_digest(&with_fc), options_digest(&opts));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_mismatched_artifacts_are_loud_errors() {
        let net = tiny_net();
        let opts = TraceOptions::fast();
        let dir = temp_dir("corrupt");
        let (path, _) = build_trace_file(&net, &opts, &dir).unwrap();

        // Truncated file: error, not a silent miss.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cached_trace_pairs(&net, &opts, &dir).is_err());

        // A valid artifact renamed onto another digest: digest mismatch.
        std::fs::write(&path, &bytes).unwrap();
        let other = opts.clone().with_seed(1);
        let renamed = dir.join(trace_file_name(net.name(), &other));
        std::fs::rename(&path, &renamed).unwrap();
        let err = cached_trace_pairs(&net, &other, &dir).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The worked example of docs/TRACE_FORMAT.md, byte for byte: a file
    /// holding one FC trace pair. If this test fails after an intentional
    /// layout change, bump `se_ir::serialize::FORMAT_VERSION` and update
    /// the document alongside the expected bytes.
    #[test]
    fn golden_bytes_match_trace_format_doc() {
        use se_ir::{LayerDesc, LayerKind, Po2Set, SeLayer, SeLayout, SeSlice};
        use se_tensor::Mat;
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 3, out_features: 1 }, (1, 1));
        let qw = QuantTensor::from_parts(vec![1, 3], vec![64, 0, -32], 0.0078125, 8).unwrap();
        let input = QuantTensor::from_parts(vec![3], vec![127, 0, -64], 0.5, 8).unwrap();
        let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw), input.clone()).unwrap();
        let po2 = Po2Set::default();
        let ce = Mat::from_rows(&[&[0.5, 0.0, -0.25]]).unwrap();
        let slice = SeSlice::new(ce, Mat::identity(3), &po2).unwrap();
        let layer = SeLayer::new(
            SeLayout::FcPerRow { out_features: 1, in_features: 3, width: 3, slices_per_row: 1 },
            po2,
            vec![slice],
        )
        .unwrap();
        let se = LayerTrace::new(desc, WeightData::Se(vec![layer]), input).unwrap();
        let pair = TracePair { layer_index: 0, dense, se };

        let bytes =
            encode_trace_pairs("golden", 0x1122_3344_5566_7788, std::slice::from_ref(&pair))
                .unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            // header: magic "SETR", version 1, payload kind 1 (trace set)
            "53455452",
            "0100",
            "01",
            // net name "golden" (u32 len + bytes), options digest, pair count
            "06000000",
            "676f6c64656e",
            "8877665544332211",
            "01000000",
            // pair 0: layer index (u64)
            "0000000000000000",
            // dense trace: desc ("fc", Linear 3->1, input 1x1)
            "02000000",
            "6663",
            "02",
            "03000000",
            "01000000",
            "01000000",
            "01000000",
            // dense weights: tag 0, rank 2, dims [1,3], bits 8, scale 2^-7, codes
            "00",
            "02",
            "01000000",
            "03000000",
            "08",
            "0000003c",
            "4000e0",
            // dense input: rank 1, dim [3], bits 8, scale 0.5, codes
            "01",
            "03000000",
            "08",
            "0000003f",
            "7f00c0",
            // se trace: same descriptor
            "02000000",
            "6663",
            "02",
            "03000000",
            "01000000",
            "01000000",
            "01000000",
            // weights: tag 1 (SE), layer count 1
            "01",
            "01000000",
            // SeLayer: po2 (max_exp 0, count 7), layout FcPerRow(1,3,3,1)
            "00000000",
            "07000000",
            "01",
            "01000000",
            "03000000",
            "03000000",
            "01000000",
            // slice count, Ce 1x3 as 4-bit-alphabet codes [0.5, 0, -0.25]
            "01000000",
            "01000000",
            "03000000",
            "03",
            "00",
            "06",
            // basis: 3x3 identity as f32 bit patterns
            "03000000",
            "03000000",
            "0000803f",
            "00000000",
            "00000000",
            "00000000",
            "0000803f",
            "00000000",
            "00000000",
            "00000000",
            "0000803f",
            // se input: identical to the dense input
            "01",
            "03000000",
            "08",
            "0000003f",
            "7f00c0",
        );
        assert_eq!(hex, expected, "layout drifted from docs/TRACE_FORMAT.md");
        // And the documented bytes decode back to the same value.
        let decoded = decode_trace_pairs(&bytes).unwrap();
        assert_eq!(decoded.pairs, vec![pair]);
    }

    #[test]
    fn trace_file_names_are_sanitized() {
        let opts = TraceOptions::fast();
        let name = trace_file_name("EfficientNet-B0", &opts);
        assert!(name.starts_with("efficientnet-b0-"));
        assert!(name.ends_with(".setrace"));
        assert!(trace_file_name("DeepLabV3+", &opts).starts_with("deeplabv3--"));
    }

    #[test]
    fn traces_work_on_a_real_zoo_model() {
        // MLP-2 is small enough to trace in full.
        let net = zoo::mlp2();
        let opts = TraceOptions::fast().with_fc_layers();
        let pairs = trace_pairs(&net, &opts).unwrap();
        for p in &pairs {
            assert_eq!(p.dense.input().len() as u64, p.dense.desc().input_elems());
        }
        assert_eq!(pairs.len(), 3);
    }
}
