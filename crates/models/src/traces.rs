//! Per-layer simulation traces: the same synthetic weights and activations
//! packaged both ways — dense 8-bit for the baseline accelerators and
//! SmartExchange-compressed for the SE accelerator — so every simulator
//! sees identical data (the paper's equal-footing methodology). The two
//! traces of a pair hold one shared input map.
//!
//! [`PairStream`] is the one source of a network's pairs, handed out one at
//! a time in network order. An artifact (`*.setrace`, built by
//! `se trace build`) is read a pair at a time from the open file through a
//! [`TraceReader`]; without one, the traced layers are generated in chunks
//! of a caller-chosen size. Either way only the pairs in flight are alive,
//! so peak memory stays bounded on ImageNet-scale models.
//! [`for_each_chunk`] hands a stream over in chunks, [`trace_pairs`] is the
//! collect-all form and [`trace_pair`] generates one layer.

use crate::{activations, weights, ModelError, Result};
use se_core::{pipeline, SeConfig};
use se_ir::{LayerTrace, NetworkDesc, QuantTensor, WeightData};
use std::sync::Arc;

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
/// weights with `opts.se_config`, and both hold one quantized input map.
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
    let qa = Arc::new(QuantTensor::quantize(&act, 8)?);
    let parts = se_core::layer::compress_layer(&desc, &w, &opts.se_config)?;
    let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw), Arc::clone(&qa))?;
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
/// [`se_core::pipeline`], in the given order. [`pipeline::try_run_nested`]
/// splits the thread budget of `opts.se_config.parallelism()` between the
/// layer queue and the per-layer decomposition threads; results are
/// bit-identical for every worker count.
fn generate(net: &NetworkDesc, layers: &[usize], opts: &TraceOptions) -> Result<Vec<TracePair>> {
    pipeline::try_run_nested(layers, &opts.se_config, |_, &i, inner| {
        trace_pair(net, i, &opts.clone().with_se_config(inner.clone()))
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

/// One network's trace pairs, one at a time in network order: the one
/// place that decides where pairs come from. When the cache directory
/// holds an artifact for this network and these options, pairs are read
/// from it as they are asked for (see [`TraceReader::lookup`]). Otherwise
/// the traced layers are generated `chunk` at a time on the work queue, so
/// at most `chunk` generated pairs wait here. Both sources give the same
/// bits: artifacts round-trip exactly and generation is a pure function of
/// the options.
#[derive(Debug)]
pub struct PairStream<'a> {
    net: &'a NetworkDesc,
    opts: &'a TraceOptions,
    source: PairSource,
}

#[derive(Debug)]
enum PairSource {
    Artifact(TraceReader),
    Generated {
        layers: Vec<usize>,
        next: usize,
        chunk: usize,
        ready: std::vec::IntoIter<TracePair>,
    },
}

impl<'a> PairStream<'a> {
    /// Opens the stream of `net`'s pairs: from the artifact in `dir` when
    /// there is one, generated `chunk` layers at a time otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the artifact's open, header, name and digest failures.
    pub fn open(
        net: &'a NetworkDesc,
        opts: &'a TraceOptions,
        dir: Option<&Path>,
        chunk: usize,
    ) -> Result<Self> {
        let reader = match dir {
            Some(dir) => TraceReader::lookup(net, opts, dir)?,
            None => None,
        };
        let source = match reader {
            Some(reader) => PairSource::Artifact(reader),
            None => PairSource::Generated {
                layers: traced_layers(net, opts),
                next: 0,
                chunk: chunk.max(1),
                ready: Vec::new().into_iter(),
            },
        };
        Ok(PairStream { net, opts, source })
    }

    /// The next pair, or `Ok(None)` after the last one (for an artifact,
    /// once its end has been checked). A caller stops at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the artifact's decode failures (naming the file) and the
    /// lowest-index generation failure of the chunk being generated.
    pub fn next_pair(&mut self) -> Result<Option<TracePair>> {
        match &mut self.source {
            PairSource::Artifact(reader) => reader.next_pair(),
            PairSource::Generated { layers, next, chunk, ready } => {
                if let Some(pair) = ready.next() {
                    return Ok(Some(pair));
                }
                if *next == layers.len() {
                    return Ok(None);
                }
                let end = layers.len().min(next.saturating_add(*chunk));
                *ready = generate(self.net, &layers[*next..end], self.opts)?.into_iter();
                *next = end;
                Ok(ready.next())
            }
        }
    }

    /// Whether the pairs are read from an artifact (else they are
    /// generated).
    pub fn is_cached(&self) -> bool {
        matches!(self.source, PairSource::Artifact(_))
    }

    /// The next `chunk` pairs (fewer at the end; none after the last).
    ///
    /// # Errors
    ///
    /// As [`PairStream::next_pair`].
    pub fn next_chunk(&mut self, chunk: usize) -> Result<Vec<TracePair>> {
        let mut pairs = Vec::new();
        while pairs.len() < chunk.max(1) {
            match self.next_pair()? {
                Some(pair) => pairs.push(pair),
                None => break,
            }
        }
        Ok(pairs)
    }

    /// Reads the rest of an artifact, keeping no pair, so that a decode
    /// error anywhere in the file is reported as it would be had the file
    /// been read before any pair was used. Generation has nothing to check.
    ///
    /// # Errors
    ///
    /// The artifact's first decode failure past the pairs already read.
    pub fn finish(&mut self) -> Result<()> {
        if let PairSource::Artifact(reader) = &mut self.source {
            while reader.next_pair()?.is_some() {}
        }
        Ok(())
    }
}

/// Feeds a network's trace pairs to `consume` in network order, `chunk`
/// pairs at a time (the last chunk may be shorter), from a
/// [`PairStream`]: at most one chunk is alive at once, whether it was read
/// from an artifact or generated.
///
/// # Errors
///
/// Propagates artifact read/decode failures, the lowest-index generation
/// failure, and the first failure of `consume`. A decode failure anywhere
/// in an artifact beats a failure of `consume`.
pub fn for_each_chunk<E: From<ModelError>>(
    net: &NetworkDesc,
    opts: &TraceOptions,
    dir: Option<&Path>,
    chunk: usize,
    mut consume: impl FnMut(Vec<TracePair>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut stream = PairStream::open(net, opts, dir, chunk)?;
    loop {
        let pairs = stream.next_chunk(chunk)?;
        if pairs.is_empty() {
            return Ok(());
        }
        if let Err(e) = consume(pairs) {
            stream.finish()?;
            return Err(e);
        }
    }
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
use std::borrow::BorrowMut;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension of persisted trace-pair sets.
pub const TRACE_FILE_EXT: &str = "setrace";

/// The error for a failed read or write of an artifact file (shared by
/// every artifact kind).
pub(crate) fn io_err(path: &Path, e: impl std::fmt::Display) -> ModelError {
    ModelError::Io { path: path.display().to_string(), reason: e.to_string() }
}

/// The error for a failed decode of the artifact at `path` (shared by
/// every artifact kind): the decoder's own error, prefixed with the path.
pub(crate) fn decode_err(path: &Path, e: impl Into<ModelError>) -> ModelError {
    ModelError::Artifact { path: path.display().to_string(), source: Box::new(e.into()) }
}

/// Writes `dir/name`, creating `dir` if needed, and returns the path
/// (shared by every artifact kind). `write` hands its bytes, in as many
/// pieces as it likes, to the sink it is given. The file is published
/// atomically (written to a temp name, then renamed; removed if `write`
/// fails): an interrupted build must never leave a truncated artifact at
/// the final path, since a present-but-corrupt artifact is a loud error for
/// every later cached run.
pub(crate) fn publish(
    dir: &Path,
    name: &str,
    write: impl FnOnce(&mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>,
) -> Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp-{}", std::process::id()));
    let mut file = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    let written = write(&mut |bytes| file.write_all(bytes).map_err(|e| io_err(&tmp, e)));
    drop(file);
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
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

/// The one encode loop: writes the header and then each pair into `w`,
/// handing `w` to `drain` before each pair and once at the end. A drain
/// that empties `w` bounds it by the largest pair; one that keeps the
/// bytes leaves the whole encoding in `w`.
fn encode_pairs(
    w: &mut ByteWriter,
    net_name: &str,
    digest: u64,
    pairs: &[TracePair],
    mut drain: impl FnMut(&mut ByteWriter) -> Result<()>,
) -> Result<()> {
    ser::write_header(w, PayloadKind::TraceSet);
    w.put_str(net_name)?;
    w.put_u64(digest);
    w.put_u32(pairs.len() as u32);
    for pair in pairs {
        drain(w)?;
        w.reserve(pair_len(pair));
        w.put_u64(pair.layer_index as u64);
        ser::write_layer_trace(w, &pair.dense)?;
        ser::write_layer_trace(w, &pair.se)?;
    }
    drain(w)
}

/// The encoded size of one pair: layer index and both traces.
fn pair_len(pair: &TracePair) -> usize {
    8 + ser::layer_trace_len(&pair.dense) + ser::layer_trace_len(&pair.se)
}

/// Serializes trace pairs to the versioned byte format (without touching
/// the filesystem — the in-memory form of [`write_trace_file`], through the
/// same encode loop).
///
/// # Errors
///
/// Propagates codec failures (oversized dimension fields).
pub fn encode_trace_pairs(net_name: &str, digest: u64, pairs: &[TracePair]) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    // File header, name, digest and pair count, then the pairs.
    let header = 7 + 4 + net_name.len() + 8 + 4;
    w.reserve(header + pairs.iter().map(pair_len).sum::<usize>());
    encode_pairs(&mut w, net_name, digest, pairs, |_| Ok(()))?;
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
    read_trace_pairs(&mut ByteReader::new(bytes))
}

/// Decodes a whole trace artifact from a reader over a file or a byte
/// buffer: every pair of a [`TraceReader`] over it.
///
/// # Errors
///
/// As [`decode_trace_pairs`], plus read failures of the reader's source.
pub fn read_trace_pairs(r: &mut ByteReader<'_>) -> Result<TraceFile> {
    TraceReader::new(r)?.into_file()
}

/// A trace artifact read one pair at a time. Opening one reads the
/// header, network name, options digest and pair count;
/// [`TraceReader::next_pair`] decodes the next pair, and after the last
/// one checks that nothing follows it. Each pair's SE trace shares the
/// dense trace's input map when the file stores the two bit-identically
/// (as every artifact this crate writes does); an input that differs gets
/// its own allocation.
///
/// `R` is the [`ByteReader`] itself or a borrow of one; a reader opened
/// on a file ([`TraceReader::open`], [`TraceReader::lookup`]) owns its
/// file and names it in every decode error.
#[derive(Debug)]
pub struct TraceReader<R = ByteReader<'static>> {
    r: R,
    path: Option<PathBuf>,
    net_name: String,
    digest: u64,
    /// Pairs not yet read.
    left: u32,
}

impl<'a, R: BorrowMut<ByteReader<'a>>> TraceReader<R> {
    /// Reads the artifact's header, network name, options digest and pair
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates codec failures: bad magic, version or payload-kind
    /// mismatch, truncation, and read failures of the reader's source.
    fn new(mut r: R) -> Result<Self> {
        let b = r.borrow_mut();
        ser::expect_header(b, PayloadKind::TraceSet)?;
        let net_name = b.get_str()?;
        let digest = b.get_u64()?;
        let left = b.get_u32()?;
        Ok(TraceReader { r, path: None, net_name, digest, left })
    }

    /// Decodes the next pair; `Ok(None)` after the last one, once the end
    /// of the artifact has been checked. A caller stops at the first error.
    ///
    /// # Errors
    ///
    /// Propagates codec failures (as [`ModelError::Artifact`] naming the
    /// file, for a reader opened on one): truncation, trailing bytes after
    /// the last pair, failed re-validation of a trace, and read failures.
    pub fn next_pair(&mut self) -> Result<Option<TracePair>> {
        let r: &mut ByteReader<'a> = self.r.borrow_mut();
        let pair = if self.left == 0 {
            r.expect_end().map(|()| None).map_err(ModelError::from)
        } else {
            self.left -= 1;
            read_pair(r).map(Some)
        };
        pair.map_err(|e| match &self.path {
            Some(path) => decode_err(path, e),
            None => e,
        })
    }

    /// Every remaining pair, as one decoded file.
    fn into_file(mut self) -> Result<TraceFile> {
        // No reservation: a hostile count must not size an allocation.
        let mut pairs = Vec::new();
        while let Some(pair) = self.next_pair()? {
            pairs.push(pair);
        }
        Ok(TraceFile { net_name: self.net_name, digest: self.digest, pairs })
    }
}

/// Decodes one pair: its layer index, then the dense and SE traces.
fn read_pair(r: &mut ByteReader<'_>) -> Result<TracePair> {
    let layer_index = r.get_u64()? as usize;
    let dense = ser::read_layer_trace(r)?;
    let se = ser::read_layer_trace_sharing(r, dense.shared_input())?;
    Ok(TracePair { layer_index, dense, se })
}

impl TraceReader {
    /// A reader over the artifact file at `path`, of whatever network and
    /// options it holds ([`TraceReader::net_name`], [`TraceReader::digest`]),
    /// streaming from the open file through the reader's buffer.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures, and header decode failures as
    /// [`ModelError::Artifact`] naming the file.
    pub fn at(path: &Path) -> Result<Self> {
        let mut reader = TraceReader::new(open_artifact(path)?).map_err(|e| decode_err(path, e))?;
        reader.path = Some(path.to_path_buf());
        Ok(reader)
    }

    /// The network name the artifact was built for.
    pub fn net_name(&self) -> &str {
        &self.net_name
    }

    /// The [`options_digest`] the artifact was built under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Opens the artifact at `path` for `net` under `opts`, checking up
    /// front that it was built for this network under these options.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and header decode failures (as
    /// [`ModelError::Artifact`] naming the file), and rejects an artifact
    /// of another network or options digest — replaying wrong traces would
    /// silently change results.
    pub fn open(net: &NetworkDesc, opts: &TraceOptions, path: &Path) -> Result<Self> {
        let reader = TraceReader::at(path)?;
        if reader.net_name != net.name() {
            return Err(io_err(
                path,
                format!("artifact is for network {:?}, wanted {:?}", reader.net_name, net.name()),
            ));
        }
        let expect = options_digest(opts);
        if reader.digest != expect {
            return Err(io_err(
                path,
                format!(
                    "artifact was built under options digest {:016x}, current options are {expect:016x}",
                    reader.digest
                ),
            ));
        }
        Ok(reader)
    }

    /// Looks a network's traces up in the cache directory: `Ok(Some(_))`
    /// on a hit ([`TraceReader::open`] on [`trace_file_name`]), `Ok(None)`
    /// when no artifact exists for these options (the caller falls back to
    /// generating). A miss while `dir` holds an artifact of the same
    /// network under other options prints a warning on stderr naming that
    /// file and both digests. A present-but-corrupt or mismatched artifact
    /// is an error, not a silent miss.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::open`].
    pub fn lookup(net: &NetworkDesc, opts: &TraceOptions, dir: &Path) -> Result<Option<Self>> {
        let path = dir.join(trace_file_name(net.name(), opts));
        if path.exists() {
            return TraceReader::open(net, opts, &path).map(Some);
        }
        if let Some(note) = bypass_note(net, opts, dir) {
            se_core::se_warn!("{note}");
        }
        Ok(None)
    }
}

/// The warning for a cache miss in a directory that holds an artifact of
/// the same network under another options digest (the first such file by
/// name), or `None` when it holds none.
fn bypass_note(net: &NetworkDesc, opts: &TraceOptions, dir: &Path) -> Option<String> {
    let prefix = format!("{}-", sanitize_net_name(net.name()));
    let suffix = format!(".{TRACE_FILE_EXT}");
    let mut others: Vec<(String, u64)> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let hex = name.strip_prefix(&prefix)?.strip_suffix(&suffix)?;
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            let digest = u64::from_str_radix(hex, 16).ok()?;
            Some((name, digest))
        })
        .collect();
    others.sort();
    let (name, digest) = others.into_iter().next()?;
    Some(format!(
        "warning: {} holds {name} (options digest {digest:016x}) but no {} artifact for the \
         current options (digest {:016x}); generating its traces instead",
        dir.display(),
        net.name(),
        options_digest(opts)
    ))
}

/// Writes a network's trace pairs into `dir` under [`trace_file_name`],
/// creating the directory if needed and publishing atomically. Pairs are
/// encoded one at a time into one reused buffer that is drained into the
/// file after each, so the whole encoding is never held in memory. Returns
/// the file path.
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
    publish(dir, &trace_file_name(net.name(), opts), |out| {
        encode_pairs(&mut ByteWriter::new(), net.name(), options_digest(opts), pairs, |w| {
            out(w.as_bytes())?;
            w.clear();
            Ok(())
        })
    })
}

/// A reader over an artifact file of either kind, sized by its length on
/// disk (shared by every artifact kind).
pub(crate) fn open_artifact(path: &Path) -> Result<ByteReader<'static>> {
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    let len = file.metadata().map_err(|e| io_err(path, e))?.len();
    let len = usize::try_from(len).map_err(|e| io_err(path, e))?;
    Ok(ByteReader::from_read(file, len))
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
            // A miss in `dir` falls back to generation; an artifact hit is
            // read in chunks of the same size as generation's.
            assert_eq!(chunks(&net, &opts, Some(&dir), 1).concat(), all);
            build_trace_file(&net, &opts, &dir).unwrap();
            for chunk in [1, 2, all.len()] {
                let got = chunks(&net, &opts, Some(&dir), chunk);
                assert_eq!(got, chunks(&net, &opts, None, chunk), "{} chunk {chunk}", net.name());
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
        let file = TraceReader::at(&path).and_then(TraceReader::into_file).unwrap();
        assert_eq!(file.net_name, "tiny");
        assert_eq!(file.digest, options_digest(&opts));
        assert_eq!(file.pairs, pairs); // bit-identical, every f32
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One FC pair whose SE layer is coded in a wide (`u16`) alphabet,
    /// with codes past the byte range and a `-0.0`.
    fn wide_pair() -> TracePair {
        use se_ir::{Po2Set, SeLayer, SeLayout, SeSlice};
        use se_tensor::Mat;
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 2 }, (1, 1));
        let qw = QuantTensor::from_parts(vec![2, 4], vec![1, -2, 3, -4, 5, 0, 7, -8], 0.25, 8);
        let input = QuantTensor::from_parts(vec![4], vec![9, 0, -9, 90], 0.5, 8).unwrap();
        let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw.unwrap()), input.clone());
        let po2 = Po2Set::new(60, 180).unwrap();
        let slice = |ce: &[&[f32]]| {
            let basis = Mat::from_fn(2, 2, |i, j| (i + 2 * j) as f32 / 4.0);
            SeSlice::new(Mat::from_rows(ce).unwrap(), basis, &po2).unwrap()
        };
        let big = 2.0f32.powi(-100);
        let slices = vec![
            slice(&[&[big, -0.0], &[-2.0f32.powi(60), 1.0]]),
            slice(&[&[0.0, 0.0], &[0.0, 0.0]]),
        ];
        let layout =
            SeLayout::FcPerRow { out_features: 2, in_features: 4, width: 2, slices_per_row: 1 };
        let layer = SeLayer::new(layout, po2, slices).unwrap();
        let se = LayerTrace::new(desc, WeightData::Se(vec![layer]), input).unwrap();
        TracePair { layer_index: 0, dense: dense.unwrap(), se }
    }

    #[test]
    fn reencoding_a_read_artifact_gives_its_bytes() {
        let net = tiny_net();
        let opts = TraceOptions::fast().with_fc_layers();
        let dir = temp_dir("reencode");
        let (real, n) = build_trace_file(&net, &opts, &dir).unwrap();
        assert_eq!(n, 3);
        let wide = dir.join("wide.setrace");
        std::fs::write(&wide, encode_trace_pairs("wide", 3, &[wide_pair()]).unwrap()).unwrap();
        for path in [real, wide] {
            let bytes = std::fs::read(&path).unwrap();
            let file = TraceReader::at(&path).and_then(TraceReader::into_file).unwrap();
            let again = encode_trace_pairs(&file.net_name, file.digest, &file.pairs).unwrap();
            assert!(again == bytes, "{} re-encodes differently", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_pair_holds_one_input_map() {
        let net = tiny_net();
        let opts = TraceOptions::fast().with_fc_layers();
        let pairs = trace_pairs(&net, &opts).unwrap();
        let dir = temp_dir("shared-input");
        let path = write_trace_file(&dir, &net, &opts, &pairs).unwrap();
        let file = TraceReader::at(&path).and_then(TraceReader::into_file).unwrap();
        assert_eq!(file.pairs, pairs);
        for p in pairs.iter().chain(&file.pairs) {
            assert!(Arc::ptr_eq(p.dense.shared_input(), p.se.shared_input()), "{}", p.layer_index);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_sizes_its_buffer_once() {
        let net = tiny_net();
        let pairs = trace_pairs(&net, &TraceOptions::fast().with_fc_layers()).unwrap();
        for n in 0..=pairs.len() {
            let bytes = encode_trace_pairs(net.name(), 0, &pairs[..n]).unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "{n} pairs: the buffer was regrown");
        }
    }

    #[test]
    fn unequal_inputs_in_a_file_stay_two_maps() {
        let pair = trace_pair(&tiny_net(), 0, &TraceOptions::fast()).unwrap();
        let input = pair.se.input().clone();
        let bytes = encode_trace_pairs("tiny", 0, std::slice::from_ref(&pair)).unwrap();
        // The SE input closes the file: its scale (f32), then its codes.
        let codes = bytes.len() - input.len();
        let scale = codes - 4;
        let mut one_code = bytes.clone();
        one_code[codes + 5] = u8::from(one_code[codes + 5] == 0);
        let mut one_scale = bytes.clone();
        one_scale[scale..codes].copy_from_slice(&(2.0 * input.scale()).to_le_bytes());
        for edited in [one_code, one_scale] {
            let got = decode_trace_pairs(&edited).unwrap().pairs.remove(0);
            assert!(!Arc::ptr_eq(got.dense.shared_input(), got.se.shared_input()));
            assert_eq!(got.dense, pair.dense);
            let stored = f32::from_le_bytes(edited[scale..codes].try_into().unwrap());
            let data = edited[codes..].iter().map(|&b| b as i8).collect();
            let want = QuantTensor::from_parts(input.shape().to_vec(), data, stored, 8).unwrap();
            assert_ne!(&want, pair.dense.input());
            assert_eq!(got.se.input(), &want);
            assert_eq!(got.se.input().scale().to_bits(), stored.to_bits());
            // The edited file is a legal v1 artifact: it round-trips.
            assert_eq!(encode_trace_pairs("tiny", 0, &[got]).unwrap(), edited);
        }
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

    /// Every pair of the artifact [`TraceReader::lookup`] finds in `dir`.
    fn cached(
        net: &NetworkDesc,
        opts: &TraceOptions,
        dir: &Path,
    ) -> Result<Option<Vec<TracePair>>> {
        match TraceReader::lookup(net, opts, dir)? {
            Some(reader) => reader.into_file().map(|file| Some(file.pairs)),
            None => Ok(None),
        }
    }

    #[test]
    fn cache_hits_across_parallelism_and_misses_across_options() {
        let net = tiny_net();
        let opts = TraceOptions::fast();
        let dir = temp_dir("cache");
        assert_eq!(cached(&net, &opts, &dir).unwrap(), None, "cold cache misses");
        let (_, n) = build_trace_file(&net, &opts, &dir).unwrap();
        assert_eq!(n, 2);

        // Hit: same options.
        let hit = cached(&net, &opts, &dir).unwrap().unwrap();
        assert_eq!(hit.len(), 2);

        // Hit: different worker count (parallelism is excluded from the
        // digest — results are bit-identical across worker counts).
        let par = opts.clone().with_se_config(opts.se_config.clone().with_parallelism(3).unwrap());
        assert_eq!(options_digest(&par), options_digest(&opts));
        assert!(cached(&net, &par, &dir).unwrap().is_some());

        // Miss: any generation-relevant option changes the digest.
        let seeded = opts.clone().with_seed(9);
        assert_ne!(options_digest(&seeded), options_digest(&opts));
        assert_eq!(cached(&net, &seeded, &dir).unwrap(), None);
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

        // Truncated file: an error naming the file and the offset, not a
        // silent miss.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = cached(&net, &opts, &dir).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("truncated input") && err.contains(" at offset "), "{err}");

        // A valid artifact renamed onto another digest: digest mismatch.
        std::fs::write(&path, &bytes).unwrap();
        let other = opts.clone().with_seed(1);
        let renamed = dir.join(trace_file_name(net.name(), &other));
        std::fs::rename(&path, &renamed).unwrap();
        let err = cached(&net, &other, &dir).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_decode_error_anywhere_in_the_artifact_beats_a_consumer_error() {
        let net = tiny_net();
        let opts = TraceOptions::fast().with_fc_layers();
        let dir = temp_dir("precedence");
        let (path, n) = build_trace_file(&net, &opts, &dir).unwrap();
        assert_eq!(n, 3);
        let bytes = std::fs::read(&path).unwrap();
        // The first pair is whole; the file ends inside the last one.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut handed = 0;
        let err = for_each_chunk(&net, &opts, Some(&dir), 1, |_| {
            handed += 1;
            Err(ModelError::Io { path: "consumer".into(), reason: "refused".into() })
        })
        .unwrap_err();
        assert_eq!(handed, 1);
        assert!(matches!(err, ModelError::Artifact { .. }), "{err}");
        assert!(err.to_string().contains("truncated input"), "{err}");
        // Trailing bytes after the last pair are a decode error too.
        let mut longer = bytes.clone();
        longer.push(0);
        std::fs::write(&path, &longer).unwrap();
        let err = for_each_chunk(&net, &opts, Some(&dir), 2, |_| Result::Ok(())).unwrap_err();
        assert!(err.to_string().contains("1 trailing bytes after payload"), "{err}");
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = PairStream::open(&net, &opts, Some(&dir), 1).unwrap();
        let first = stream.next_pair().unwrap().unwrap();
        assert_eq!(first, trace_pair(&net, 0, &opts).unwrap());
        stream.finish().unwrap();
        assert_eq!(stream.next_pair().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cache_of_other_options_is_named_when_it_is_bypassed() {
        let net = tiny_net();
        let dir = temp_dir("bypass");
        std::fs::create_dir_all(&dir).unwrap();
        let replay = TraceOptions::fast();
        assert_eq!(bypass_note(&net, &replay, &dir), None, "an empty directory is a cold cache");
        // Built under seed 1, replayed under seed 0: a miss, with a warning
        // naming the file and both digests.
        let built = TraceOptions::fast().with_seed(1);
        let (path, _) = build_trace_file(&net, &built, &dir).unwrap();
        build_trace_file(&zoo::mlp1(), &replay.clone().with_fc_layers(), &dir).unwrap();
        assert!(TraceReader::lookup(&net, &replay, &dir).unwrap().is_none());
        let note = bypass_note(&net, &replay, &dir).unwrap();
        let file = path.file_name().unwrap().to_str().unwrap();
        assert!(note.starts_with("warning: ") && note.contains(file), "{note}");
        assert!(note.contains(&format!("{:016x}", options_digest(&built))), "{note}");
        assert!(note.contains(&format!("{:016x}", options_digest(&replay))), "{note}");
        // Another network's artifact alone is no reason to warn.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(bypass_note(&net, &replay, &dir), None);
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
