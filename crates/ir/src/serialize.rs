//! Versioned on-disk serialization of the interchange formats.
//!
//! The experiment harness replays expensive SmartExchange decompositions
//! from disk instead of regenerating them (see `docs/TRACE_FORMAT.md` for
//! the byte-level layout and the compatibility policy). This module is the
//! byte-level codec: a small, self-describing binary format with **no
//! external serde dependency** (the build environment is offline — see
//! `vendor/README.md`), designed for bit-identical round trips:
//!
//! * every `f32` is stored as its exact little-endian bit pattern;
//! * `Ce` coefficient matrices are stored as compact [`Po2Set`] codes
//!   (exact by construction — every entry is validated against the
//!   alphabet when an [`SeSlice`] is built), not as floats;
//! * every container is re-validated through its normal constructor on
//!   read, so a decoded value upholds the same invariants as a freshly
//!   built one.
//!
//! Files start with the [`MAGIC`] bytes, a [`FORMAT_VERSION`], and a
//! [`PayloadKind`] tag; readers reject unknown magic, newer versions, and
//! mismatched payload kinds. All multi-byte integers are little-endian.
//!
//! Higher layers compose these primitives: `se_models::traces` persists
//! whole trace-pair sets (`*.setrace` files) and `se_core`'s
//! `CompressedNetwork` persists compressed networks, both through the
//! [`ByteWriter`] / [`ByteReader`] pair defined here.
//!
//! # Examples
//!
//! ```
//! use se_ir::serialize::{ByteReader, ByteWriter};
//! use se_ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, WeightData};
//! use se_tensor::Tensor;
//!
//! # fn main() -> Result<(), se_ir::IrError> {
//! let desc = LayerDesc::new(
//!     "fc",
//!     LayerKind::Linear { in_features: 4, out_features: 2 },
//!     (1, 1),
//! );
//! let w = QuantTensor::quantize(&Tensor::full(&[8], 0.5), 8)?;
//! let x = QuantTensor::quantize(&Tensor::full(&[4], -1.0), 8)?;
//! let trace = LayerTrace::new(desc, WeightData::Dense(w), x)?;
//!
//! let mut out = ByteWriter::new();
//! se_ir::serialize::write_layer_trace(&mut out, &trace)?;
//! let bytes = out.into_bytes();
//!
//! let mut rd = ByteReader::new(&bytes);
//! let back = se_ir::serialize::read_layer_trace(&mut rd)?;
//! assert_eq!(trace, back); // bit-identical, including every f32
//! # Ok(())
//! # }
//! ```

use crate::{
    IrError, LayerDesc, LayerKind, LayerTrace, Po2Set, QuantTensor, Result, SeLayer, SeLayout,
    SeSlice, WeightData,
};
use se_tensor::Mat;

/// The four magic bytes opening every SmartExchange artifact file.
pub const MAGIC: [u8; 4] = *b"SETR";

/// Current format version. Readers accept exactly this version; the
/// compatibility policy (bump on any layout change, no silent migration)
/// is documented in `docs/TRACE_FORMAT.md`.
pub const FORMAT_VERSION: u16 = 1;

/// What a serialized file contains, tagged in the header so a trace file
/// can never be mistaken for a compressed-network file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PayloadKind {
    /// A set of per-layer simulation trace pairs (`se_models::traces`).
    TraceSet,
    /// A compressed network with its reports (`se_core`'s
    /// `CompressedNetwork`).
    CompressedNetwork,
}

impl PayloadKind {
    fn tag(self) -> u8 {
        match self {
            PayloadKind::TraceSet => 1,
            PayloadKind::CompressedNetwork => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(PayloadKind::TraceSet),
            2 => Ok(PayloadKind::CompressedNetwork),
            other => Err(err(format!("unknown payload kind tag {other}"))),
        }
    }
}

fn err(reason: impl Into<String>) -> IrError {
    IrError::Serialize { reason: reason.into() }
}

/// Checked `usize → u32` for dimension fields (layer dimensions are far
/// below `u32::MAX`; the check guards against corrupted inputs).
fn dim_u32(v: usize, what: &str) -> Result<u32> {
    u32::try_from(v).map_err(|_| err(format!("{what} = {v} does not fit the u32 layout field")))
}

/// An append-only little-endian byte sink.
///
/// All `put_*` methods write the exact layouts documented in
/// `docs/TRACE_FORMAT.md`; writing is infallible (memory-backed).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian two's-complement `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its exact little-endian bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string: `u32` byte length, then the bytes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] for strings longer than `u32::MAX`
    /// bytes.
    pub fn put_str(&mut self, v: &str) -> Result<()> {
        let len = dim_u32(v.len(), "string length")?;
        self.put_u32(len);
        self.buf.extend_from_slice(v.as_bytes());
        Ok(())
    }

    /// Appends an `f32` slice as consecutive bit patterns (no length
    /// prefix; the element count comes from the surrounding layout).
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends an `i8` slice as consecutive two's-complement bytes (no
    /// length prefix).
    pub fn put_i8_slice(&mut self, v: &[i8]) {
        self.buf.reserve(v.len());
        for &x in v {
            self.buf.push(x as u8);
        }
    }
}

/// A bounds-checked little-endian byte source over a borrowed buffer.
///
/// Every `get_*` method fails with [`IrError::Serialize`] instead of
/// panicking when the buffer is truncated.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the buffer was consumed exactly to its end — trailing
    /// garbage is as much a corruption signal as truncation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] if bytes remain.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(err(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(err(format!(
                "truncated input: wanted {n} bytes at offset {}, {} available",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("length checked")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads a little-endian two's-complement `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| err(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads `n` consecutive `f32` bit patterns.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_f32_vec(&mut self, n: usize) -> Result<Vec<f32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| err("f32 count overflow"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk")))
            .collect())
    }

    /// Reads `n` consecutive `i8` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serialize`] on truncation.
    pub fn get_i8_vec(&mut self, n: usize) -> Result<Vec<i8>> {
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }
}

/// Writes the file header: [`MAGIC`], [`FORMAT_VERSION`], payload kind.
pub fn write_header(w: &mut ByteWriter, kind: PayloadKind) {
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind.tag());
}

/// Reads and validates the file header, returning the payload kind.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on wrong magic, an unsupported format
/// version, or an unknown payload tag.
pub fn read_header(r: &mut ByteReader<'_>) -> Result<PayloadKind> {
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(err(format!("bad magic {magic:02x?}, expected {MAGIC:02x?} (\"SETR\")")));
    }
    let version = r.get_u16()?;
    if version != FORMAT_VERSION {
        return Err(err(format!(
            "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    PayloadKind::from_tag(r.get_u8()?)
}

/// Reads and validates the header, additionally requiring `expected`.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on header problems or a payload-kind
/// mismatch (e.g. opening a compressed-network file as a trace set).
pub fn expect_header(r: &mut ByteReader<'_>, expected: PayloadKind) -> Result<()> {
    let kind = read_header(r)?;
    if kind != expected {
        return Err(err(format!("payload is {kind:?}, expected {expected:?}")));
    }
    Ok(())
}

const KIND_CONV: u8 = 0;
const KIND_DEPTHWISE: u8 = 1;
const KIND_LINEAR: u8 = 2;
const KIND_SQUEEZE_EXCITE: u8 = 3;

/// Writes a [`LayerKind`]: a one-byte tag plus its `u32` dimensions.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] if a dimension exceeds `u32::MAX`.
pub fn write_layer_kind(w: &mut ByteWriter, kind: &LayerKind) -> Result<()> {
    match *kind {
        LayerKind::Conv2d { in_channels, out_channels, kernel, stride, padding } => {
            w.put_u8(KIND_CONV);
            w.put_u32(dim_u32(in_channels, "in_channels")?);
            w.put_u32(dim_u32(out_channels, "out_channels")?);
            w.put_u32(dim_u32(kernel, "kernel")?);
            w.put_u32(dim_u32(stride, "stride")?);
            w.put_u32(dim_u32(padding, "padding")?);
        }
        LayerKind::DepthwiseConv2d { channels, kernel, stride, padding } => {
            w.put_u8(KIND_DEPTHWISE);
            w.put_u32(dim_u32(channels, "channels")?);
            w.put_u32(dim_u32(kernel, "kernel")?);
            w.put_u32(dim_u32(stride, "stride")?);
            w.put_u32(dim_u32(padding, "padding")?);
        }
        LayerKind::Linear { in_features, out_features } => {
            w.put_u8(KIND_LINEAR);
            w.put_u32(dim_u32(in_features, "in_features")?);
            w.put_u32(dim_u32(out_features, "out_features")?);
        }
        LayerKind::SqueezeExcite { channels, reduced } => {
            w.put_u8(KIND_SQUEEZE_EXCITE);
            w.put_u32(dim_u32(channels, "channels")?);
            w.put_u32(dim_u32(reduced, "reduced")?);
        }
    }
    Ok(())
}

/// Reads a [`LayerKind`] written by [`write_layer_kind`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on truncation or an unknown tag.
pub fn read_layer_kind(r: &mut ByteReader<'_>) -> Result<LayerKind> {
    match r.get_u8()? {
        KIND_CONV => Ok(LayerKind::Conv2d {
            in_channels: r.get_u32()? as usize,
            out_channels: r.get_u32()? as usize,
            kernel: r.get_u32()? as usize,
            stride: r.get_u32()? as usize,
            padding: r.get_u32()? as usize,
        }),
        KIND_DEPTHWISE => Ok(LayerKind::DepthwiseConv2d {
            channels: r.get_u32()? as usize,
            kernel: r.get_u32()? as usize,
            stride: r.get_u32()? as usize,
            padding: r.get_u32()? as usize,
        }),
        KIND_LINEAR => Ok(LayerKind::Linear {
            in_features: r.get_u32()? as usize,
            out_features: r.get_u32()? as usize,
        }),
        KIND_SQUEEZE_EXCITE => Ok(LayerKind::SqueezeExcite {
            channels: r.get_u32()? as usize,
            reduced: r.get_u32()? as usize,
        }),
        other => Err(err(format!("unknown layer-kind tag {other}"))),
    }
}

/// Writes a [`LayerDesc`]: name, kind, input `(H, W)`.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] if a field exceeds its layout width.
pub fn write_layer_desc(w: &mut ByteWriter, desc: &LayerDesc) -> Result<()> {
    w.put_str(desc.name())?;
    write_layer_kind(w, desc.kind())?;
    let (h, wd) = desc.input_hw();
    w.put_u32(dim_u32(h, "input height")?);
    w.put_u32(dim_u32(wd, "input width")?);
    Ok(())
}

/// Reads a [`LayerDesc`] written by [`write_layer_desc`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input.
pub fn read_layer_desc(r: &mut ByteReader<'_>) -> Result<LayerDesc> {
    let name = r.get_str()?;
    let kind = read_layer_kind(r)?;
    let h = r.get_u32()? as usize;
    let wd = r.get_u32()? as usize;
    Ok(LayerDesc::new(name, kind, (h, wd)))
}

/// Writes a [`Po2Set`]: `max_exp` as `i32`, `count` as `u32`.
pub fn write_po2(w: &mut ByteWriter, po2: &Po2Set) {
    w.put_i32(po2.max_exp());
    w.put_u32(po2.count());
}

/// Reads a [`Po2Set`] written by [`write_po2`], re-validating the range.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on truncation, or the underlying
/// [`IrError::InvalidPo2`] if the stored range is invalid.
pub fn read_po2(r: &mut ByteReader<'_>) -> Result<Po2Set> {
    let max_exp = r.get_i32()?;
    let count = r.get_u32()?;
    Po2Set::new(max_exp, count)
}

/// Writes a [`QuantTensor`]: rank, `u32` dims, code width, scale, codes.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for ranks above 255 or oversized dims.
pub fn write_quant_tensor(w: &mut ByteWriter, q: &QuantTensor) -> Result<()> {
    let rank = u8::try_from(q.shape().len())
        .map_err(|_| err("tensor rank does not fit u8".to_string()))?;
    w.put_u8(rank);
    for &d in q.shape() {
        w.put_u32(dim_u32(d, "tensor dim")?);
    }
    let bits = u8::try_from(q.bits()).expect("bits validated to 2..=8");
    w.put_u8(bits);
    w.put_f32(q.scale());
    w.put_i8_slice(q.data());
    Ok(())
}

/// Reads a [`QuantTensor`] written by [`write_quant_tensor`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input, or the underlying
/// validation error from [`QuantTensor::from_parts`].
pub fn read_quant_tensor(r: &mut ByteReader<'_>) -> Result<QuantTensor> {
    let rank = r.get_u8()? as usize;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.get_u32()? as usize);
    }
    let bits = u32::from(r.get_u8()?);
    let scale = r.get_f32()?;
    let len = shape.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d).ok_or_else(|| err("tensor volume overflow"))
    })?;
    let data = r.get_i8_vec(len)?;
    QuantTensor::from_parts(shape, data, scale, bits)
}

/// Writes a [`Mat`] as `u32` rows/cols plus its row-major `f32` blob.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for dimensions above `u32::MAX`.
pub fn write_mat(w: &mut ByteWriter, m: &Mat) -> Result<()> {
    w.put_u32(dim_u32(m.rows(), "mat rows")?);
    w.put_u32(dim_u32(m.cols(), "mat cols")?);
    w.put_f32_slice(m.data());
    Ok(())
}

/// Reads a [`Mat`] written by [`write_mat`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on truncation or dimension overflow.
pub fn read_mat(r: &mut ByteReader<'_>) -> Result<Mat> {
    let rows = r.get_u32()? as usize;
    let cols = r.get_u32()? as usize;
    let len = rows.checked_mul(cols).ok_or_else(|| err("mat volume overflow"))?;
    let data = r.get_f32_vec(len)?;
    Mat::from_vec(data, rows, cols).map_err(IrError::from)
}

/// Whether a `Ce` code for this alphabet fits one byte (it does for every
/// alphabet up to 8-bit codes, including the paper's 4-bit default).
fn narrow_codes(po2: &Po2Set) -> bool {
    po2.code_bits() <= 8
}

/// Writes one [`SeSlice`] against its owning layer's alphabet: `Ce`
/// dimensions, the `Ce` entries as [`Po2Set::encode`] codes (one byte per
/// code for alphabets of at most 8 code bits, two otherwise), then the
/// basis as an `f32` [`Mat`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on oversized dimensions, or
/// [`IrError::InvalidPo2`] if a `Ce` entry is not in the alphabet (cannot
/// happen for slices built through [`SeSlice::new`]).
pub fn write_se_slice(w: &mut ByteWriter, slice: &SeSlice, po2: &Po2Set) -> Result<()> {
    let ce = slice.ce();
    w.put_u32(dim_u32(ce.rows(), "Ce rows")?);
    w.put_u32(dim_u32(ce.cols(), "Ce cols")?);
    let narrow = narrow_codes(po2);
    for &v in ce.data() {
        let code = po2.encode(v)?;
        if narrow {
            w.put_u8(u8::try_from(code).expect("code fits 8 bits by alphabet width"));
        } else {
            w.put_u16(code);
        }
    }
    write_mat(w, slice.basis())
}

/// Reads an [`SeSlice`] written by [`write_se_slice`], decoding the `Ce`
/// codes against the given alphabet and re-validating the slice.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input, or the underlying
/// decode/validation error.
pub fn read_se_slice(r: &mut ByteReader<'_>, po2: &Po2Set) -> Result<SeSlice> {
    let rows = r.get_u32()? as usize;
    let cols = r.get_u32()? as usize;
    let len = rows.checked_mul(cols).ok_or_else(|| err("Ce volume overflow"))?;
    let narrow = narrow_codes(po2);
    // Capacity is capped by the bytes actually present so a corrupted count
    // cannot trigger a giant allocation; truncation errors out on read.
    let mut data = Vec::with_capacity(len.min(r.remaining()));
    for _ in 0..len {
        let code = if narrow { u16::from(r.get_u8()?) } else { r.get_u16()? };
        data.push(po2.decode(code)?);
    }
    let ce = Mat::from_vec(data, rows, cols).map_err(IrError::from)?;
    let basis = read_mat(r)?;
    SeSlice::new(ce, basis, po2)
}

const LAYOUT_CONV_PER_FILTER: u8 = 0;
const LAYOUT_FC_PER_ROW: u8 = 1;

/// Writes an [`SeLayout`]: a one-byte tag plus its `u32` fields.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for fields above `u32::MAX`.
pub fn write_se_layout(w: &mut ByteWriter, layout: &SeLayout) -> Result<()> {
    match *layout {
        SeLayout::ConvPerFilter { out_channels, in_channels, kernel, slices_per_filter } => {
            w.put_u8(LAYOUT_CONV_PER_FILTER);
            w.put_u32(dim_u32(out_channels, "out_channels")?);
            w.put_u32(dim_u32(in_channels, "in_channels")?);
            w.put_u32(dim_u32(kernel, "kernel")?);
            w.put_u32(dim_u32(slices_per_filter, "slices_per_filter")?);
        }
        SeLayout::FcPerRow { out_features, in_features, width, slices_per_row } => {
            w.put_u8(LAYOUT_FC_PER_ROW);
            w.put_u32(dim_u32(out_features, "out_features")?);
            w.put_u32(dim_u32(in_features, "in_features")?);
            w.put_u32(dim_u32(width, "width")?);
            w.put_u32(dim_u32(slices_per_row, "slices_per_row")?);
        }
    }
    Ok(())
}

/// Reads an [`SeLayout`] written by [`write_se_layout`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on truncation or an unknown tag.
pub fn read_se_layout(r: &mut ByteReader<'_>) -> Result<SeLayout> {
    match r.get_u8()? {
        LAYOUT_CONV_PER_FILTER => Ok(SeLayout::ConvPerFilter {
            out_channels: r.get_u32()? as usize,
            in_channels: r.get_u32()? as usize,
            kernel: r.get_u32()? as usize,
            slices_per_filter: r.get_u32()? as usize,
        }),
        LAYOUT_FC_PER_ROW => Ok(SeLayout::FcPerRow {
            out_features: r.get_u32()? as usize,
            in_features: r.get_u32()? as usize,
            width: r.get_u32()? as usize,
            slices_per_row: r.get_u32()? as usize,
        }),
        other => Err(err(format!("unknown SE layout tag {other}"))),
    }
}

/// Writes an [`SeLayer`]: alphabet, layout, slice count, slices.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for oversized fields.
pub fn write_se_layer(w: &mut ByteWriter, layer: &SeLayer) -> Result<()> {
    write_po2(w, layer.po2());
    write_se_layout(w, layer.layout())?;
    w.put_u32(dim_u32(layer.slices().len(), "slice count")?);
    for slice in layer.slices() {
        write_se_slice(w, slice, layer.po2())?;
    }
    Ok(())
}

/// Reads an [`SeLayer`] written by [`write_se_layer`], re-validating the
/// slice inventory against the layout.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input, or the underlying
/// validation error from [`SeLayer::new`].
pub fn read_se_layer(r: &mut ByteReader<'_>) -> Result<SeLayer> {
    let po2 = read_po2(r)?;
    let layout = read_se_layout(r)?;
    let n = r.get_u32()? as usize;
    // No reservation: a hostile count must not size an allocation.
    let mut slices = Vec::new();
    for _ in 0..n {
        slices.push(read_se_slice(r, &po2)?);
    }
    SeLayer::new(layout, po2, slices)
}

const WEIGHTS_DENSE: u8 = 0;
const WEIGHTS_SE: u8 = 1;

/// Writes a [`WeightData`]: a one-byte tag, then the dense tensor or the
/// SE layer list.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for oversized fields.
pub fn write_weight_data(w: &mut ByteWriter, weights: &WeightData) -> Result<()> {
    match weights {
        WeightData::Dense(q) => {
            w.put_u8(WEIGHTS_DENSE);
            write_quant_tensor(w, q)
        }
        WeightData::Se(layers) => {
            w.put_u8(WEIGHTS_SE);
            w.put_u32(dim_u32(layers.len(), "SE layer count")?);
            for l in layers {
                write_se_layer(w, l)?;
            }
            Ok(())
        }
    }
}

/// Reads a [`WeightData`] written by [`write_weight_data`].
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input.
pub fn read_weight_data(r: &mut ByteReader<'_>) -> Result<WeightData> {
    match r.get_u8()? {
        WEIGHTS_DENSE => Ok(WeightData::Dense(read_quant_tensor(r)?)),
        WEIGHTS_SE => {
            let n = r.get_u32()? as usize;
            let mut layers = Vec::new();
            for _ in 0..n {
                layers.push(read_se_layer(r)?);
            }
            Ok(WeightData::Se(layers))
        }
        other => Err(err(format!("unknown weight-data tag {other}"))),
    }
}

/// Writes a [`LayerTrace`]: descriptor, weights, input activations.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] for oversized fields.
pub fn write_layer_trace(w: &mut ByteWriter, trace: &LayerTrace) -> Result<()> {
    write_layer_desc(w, trace.desc())?;
    write_weight_data(w, trace.weights())?;
    write_quant_tensor(w, trace.input())
}

/// Reads a [`LayerTrace`] written by [`write_layer_trace`], re-validating
/// the input volume against the descriptor.
///
/// # Errors
///
/// Returns [`IrError::Serialize`] on malformed input, or the underlying
/// validation error from [`LayerTrace::new`].
pub fn read_layer_trace(r: &mut ByteReader<'_>) -> Result<LayerTrace> {
    let desc = read_layer_desc(r)?;
    let weights = read_weight_data(r)?;
    let input = read_quant_tensor(r)?;
    LayerTrace::new(desc, weights, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_tensor::Tensor;

    fn sample_dense_trace() -> LayerTrace {
        let desc = LayerDesc::new(
            "c1",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let w = QuantTensor::quantize(
            &Tensor::from_vec((0..9).map(|i| i as f32 / 7.0 - 0.5).collect(), &[1, 1, 3, 3])
                .unwrap(),
            8,
        )
        .unwrap();
        let x = QuantTensor::quantize(
            &Tensor::from_vec((0..16).map(|i| (i % 5) as f32 / 4.0).collect(), &[1, 4, 4]).unwrap(),
            8,
        )
        .unwrap();
        LayerTrace::new(desc, WeightData::Dense(w), x).unwrap()
    }

    fn sample_se_trace() -> LayerTrace {
        let po2 = Po2Set::default();
        let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0], &[-0.25, 0.5, 0.015_625]])
            .unwrap();
        let basis = Mat::from_fn(3, 3, |i, j| (i as f32 - j as f32) / 3.0);
        let slice = SeSlice::new(ce, basis, &po2).unwrap();
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2,
            vec![slice],
        )
        .unwrap();
        let desc = LayerDesc::new(
            "c1",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let x = QuantTensor::quantize(&Tensor::full(&[1, 4, 4], 0.25), 8).unwrap();
        LayerTrace::new(desc, WeightData::Se(vec![layer]), x).unwrap()
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i32(-9);
        w.put_f32(0.1);
        w.put_bool(true);
        w.put_str("héllo").unwrap();
        w.put_f32_slice(&[1.5, -2.25]);
        w.put_i8_slice(&[-128, 0, 127]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i32().unwrap(), -9);
        assert_eq!(r.get_f32().unwrap().to_bits(), 0.1f32.to_bits());
        assert_eq!(r.get_u8().unwrap(), 1, "true is written as byte 1");
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_f32_vec(2).unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.get_i8_vec(3).unwrap(), vec![-128, 0, 127]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..2]);
        assert!(matches!(r.get_u32(), Err(IrError::Serialize { .. })));
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(matches!(r.get_u8(), Err(IrError::Serialize { .. })));
    }

    #[test]
    fn header_rejects_bad_magic_version_and_kind() {
        let mut w = ByteWriter::new();
        write_header(&mut w, PayloadKind::TraceSet);
        let good = w.into_bytes();
        assert_eq!(read_header(&mut ByteReader::new(&good)).unwrap(), PayloadKind::TraceSet);
        assert!(expect_header(&mut ByteReader::new(&good), PayloadKind::TraceSet).is_ok());
        assert!(expect_header(&mut ByteReader::new(&good), PayloadKind::CompressedNetwork).is_err());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(read_header(&mut ByteReader::new(&bad_magic)).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = FORMAT_VERSION as u8 + 1;
        assert!(read_header(&mut ByteReader::new(&bad_version)).is_err());

        let mut bad_kind = good;
        bad_kind[6] = 0xee;
        assert!(read_header(&mut ByteReader::new(&bad_kind)).is_err());
    }

    #[test]
    fn layer_kind_roundtrip_all_variants() {
        let kinds = [
            LayerKind::Conv2d {
                in_channels: 3,
                out_channels: 64,
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            LayerKind::DepthwiseConv2d { channels: 32, kernel: 3, stride: 1, padding: 1 },
            LayerKind::Linear { in_features: 4096, out_features: 1000 },
            LayerKind::SqueezeExcite { channels: 96, reduced: 4 },
        ];
        for kind in kinds {
            let mut w = ByteWriter::new();
            write_layer_kind(&mut w, &kind).unwrap();
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(read_layer_kind(&mut r).unwrap(), kind);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn quant_tensor_roundtrip_is_bit_exact() {
        let q = QuantTensor::quantize(
            &Tensor::from_vec(vec![0.9, -0.3, 0.02, 0.55, -1.0, 0.0], &[2, 3]).unwrap(),
            5,
        )
        .unwrap();
        let mut w = ByteWriter::new();
        write_quant_tensor(&mut w, &q).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_quant_tensor(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(q, back);
        assert_eq!(q.scale().to_bits(), back.scale().to_bits());
    }

    #[test]
    fn dense_trace_roundtrip() {
        let trace = sample_dense_trace();
        let mut w = ByteWriter::new();
        write_layer_trace(&mut w, &trace).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_layer_trace(&mut r).unwrap(), trace);
        r.expect_end().unwrap();
    }

    #[test]
    fn se_trace_roundtrip() {
        let trace = sample_se_trace();
        let mut w = ByteWriter::new();
        write_layer_trace(&mut w, &trace).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_layer_trace(&mut r).unwrap(), trace);
        r.expect_end().unwrap();
    }

    #[test]
    fn wide_alphabet_uses_u16_codes() {
        // count = 180 > 127 exponents: codes exceed one byte.
        let po2 = Po2Set::new(60, 180).unwrap();
        assert!(po2.code_bits() > 8);
        let ce = Mat::from_rows(&[&[2.0f32.powi(-100), 0.0, 2.0f32.powi(60)]]).unwrap();
        let slice = SeSlice::new(ce, Mat::from_fn(3, 2, |i, j| (i + j) as f32), &po2).unwrap();
        let mut w = ByteWriter::new();
        write_se_slice(&mut w, &slice, &po2).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_se_slice(&mut r, &po2).unwrap(), slice);
        r.expect_end().unwrap();
    }

    #[test]
    fn corrupted_payload_fails_validation_not_panics() {
        let trace = sample_se_trace();
        let mut w = ByteWriter::new();
        write_layer_trace(&mut w, &trace).unwrap();
        let bytes = w.into_bytes();
        // Flip every byte position one at a time; reading must never panic
        // (it may succeed when the flip lands in a don't-care float bit).
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xff;
            let mut r = ByteReader::new(&corrupted);
            let _ = read_layer_trace(&mut r);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let trace = sample_dense_trace();
        let mut w = ByteWriter::new();
        write_layer_trace(&mut w, &trace).unwrap();
        let mut bytes = w.into_bytes();
        bytes.push(0);
        let mut r = ByteReader::new(&bytes);
        read_layer_trace(&mut r).unwrap();
        assert!(r.expect_end().is_err());
    }
}
