//! Hostile-input properties of the `.setrace` decoder: a damaged artifact
//! (truncated, bit-flipped, or with a length field blown up to a huge
//! count) must decode to `Ok` or `Err`, never panic or abort on a giant
//! allocation. The streaming reader must decode any split of the bytes
//! into reads exactly like a slice, and a huge length field must fail
//! before the reader's buffer grows past the file. A `TraceReader` over
//! the file, drained a pair at a time, must give the slice decode's pairs
//! or its error (naming the file) at every cut and every flipped byte.

use proptest::prelude::*;
use se_ir::serialize::ByteReader;
use se_ir::{
    Dataset, IrError, LayerDesc, LayerKind, LayerTrace, NetworkDesc, Po2Set, QuantTensor, SeLayer,
    SeLayout, SeSlice, WeightData,
};
use se_models::traces::{
    decode_trace_pairs, encode_trace_pairs, options_digest, read_trace_pairs, trace_pairs,
    TraceFile, TraceOptions, TracePair, TraceReader,
};
use se_models::ModelError;
use se_tensor::Mat;
use std::io::Read;
use std::path::Path;
use std::sync::OnceLock;

/// A small real artifact plus the offsets of its `u32` fields and of its
/// `Ce` code bytes, with each code's alphabet size.
struct Fixture {
    bytes: Vec<u8>,
    u32_fields: Vec<usize>,
    ce_codes: Vec<(usize, u32)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let conv = |name: &str, in_channels, out_channels| {
            let kind =
                LayerKind::Conv2d { in_channels, out_channels, kernel: 3, stride: 1, padding: 1 };
            LayerDesc::new(name, kind, (6, 6))
        };
        let net = NetworkDesc::new(
            "hostile",
            Dataset::Cifar10,
            vec![
                conv("c1", 3, 4),
                LayerDesc::new(
                    "dw",
                    LayerKind::DepthwiseConv2d { channels: 4, kernel: 3, stride: 1, padding: 1 },
                    (6, 6),
                ),
                LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 5 }, (1, 1)),
            ],
        )
        .unwrap();
        let pairs = trace_pairs(&net, &TraceOptions::fast().with_fc_layers()).unwrap();
        let f = walked(encode_trace_pairs(net.name(), 7, &pairs).unwrap());
        assert!(f.ce_codes.iter().all(|&(_, valid)| valid < 256), "one-byte codes only");
        f
    })
}

/// An artifact of one FC pair whose SE layer is coded in a wide alphabet
/// (two-byte codes).
fn wide_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 2 }, (1, 1));
        let qw = QuantTensor::from_parts(vec![2, 4], vec![1, -2, 3, -4, 5, 0, 7, -8], 0.25, 8);
        let input = QuantTensor::from_parts(vec![4], vec![9, 0, -9, 90], 0.5, 8).unwrap();
        let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw.unwrap()), input.clone());
        let po2 = Po2Set::new(60, 180).unwrap();
        let ce = Mat::from_rows(&[&[2.0f32.powi(-100), 0.0], &[-2.0f32.powi(60), 1.0]]).unwrap();
        let slice = || SeSlice::new(ce.clone(), Mat::identity(2), &po2).unwrap();
        let layout =
            SeLayout::FcPerRow { out_features: 2, in_features: 4, width: 2, slices_per_row: 1 };
        let layer = SeLayer::new(layout, po2, vec![slice(), slice()]).unwrap();
        let se = LayerTrace::new(desc, WeightData::Se(vec![layer]), input).unwrap();
        let pair = TracePair { layer_index: 0, dense: dense.unwrap(), se };
        let f = walked(encode_trace_pairs("wide", 7, &[pair]).unwrap());
        assert!(f.ce_codes.iter().all(|&(_, valid)| valid > 256), "two-byte codes only");
        f
    })
}

/// The offsets of `bytes`' `u32` fields and `Ce` codes.
fn walked(bytes: Vec<u8>) -> Fixture {
    let mut walk = Walk {
        r: ByteReader::new(&bytes),
        len: bytes.len(),
        u32_fields: Vec::new(),
        ce_codes: Vec::new(),
    };
    walk.file();
    assert_eq!(walk.r.remaining(), 0, "the walk covers the whole artifact");
    assert!(!walk.ce_codes.is_empty());
    Fixture { u32_fields: walk.u32_fields, ce_codes: walk.ce_codes, bytes: bytes.clone() }
}

/// Steps through an artifact along the layout of docs/TRACE_FORMAT.md,
/// recording where each `u32` field and each `Ce` code sits.
struct Walk<'a> {
    r: ByteReader<'a>,
    len: usize,
    u32_fields: Vec<usize>,
    ce_codes: Vec<(usize, u32)>,
}

impl Walk<'_> {
    fn pos(&self) -> usize {
        self.len - self.r.remaining()
    }

    fn u32(&mut self) -> usize {
        self.u32_fields.push(self.pos());
        self.r.get_u32().unwrap() as usize
    }

    fn skip(&mut self, n: usize) {
        self.r.get_i8_vec(n).unwrap();
    }

    fn file(&mut self) {
        self.skip(7); // magic, version, payload kind
        let name = self.u32();
        self.skip(name + 8); // name, options digest
        for _ in 0..self.u32() {
            self.skip(8); // layer index
            self.layer_trace();
            self.layer_trace();
        }
    }

    fn layer_trace(&mut self) {
        let name = self.u32();
        self.skip(name);
        let dims = match self.r.get_u8().unwrap() {
            0 => 5,
            1 => 4,
            _ => 2,
        };
        for _ in 0..dims + 2 {
            self.u32(); // kind dimensions, input H and W
        }
        if self.r.get_u8().unwrap() == 0 {
            self.quant_tensor();
        } else {
            for _ in 0..self.u32() {
                self.se_layer();
            }
        }
        self.quant_tensor();
    }

    fn quant_tensor(&mut self) {
        let rank = self.r.get_u8().unwrap();
        let volume: usize = (0..rank).map(|_| self.u32()).product();
        self.skip(5 + volume); // code bits, scale, codes
    }

    fn se_layer(&mut self) {
        let max_exp = self.r.get_i32().unwrap();
        let count = self.u32() as u32;
        let narrow = Po2Set::new(max_exp, count).unwrap().code_bits() <= 8;
        self.skip(1); // layout tag
        for _ in 0..4 {
            self.u32();
        }
        for _ in 0..self.u32() {
            let codes = self.u32() * self.u32();
            let width = if narrow { 1 } else { 2 };
            let start = self.pos();
            self.ce_codes.extend((0..codes).map(|i| (start + i * width, 2 * count + 1)));
            self.skip(codes * width);
            let basis = self.u32() * self.u32();
            self.skip(4 * basis);
        }
    }
}

#[test]
fn the_undamaged_fixture_decodes() {
    let f = fixture();
    let file = decode_trace_pairs(&f.bytes).unwrap();
    assert_eq!(file.pairs.len(), 3);
    assert!(f.u32_fields.len() > 50, "{} u32 fields", f.u32_fields.len());
}

#[test]
fn every_u32_field_at_its_edge_values_never_panics() {
    let f = fixture();
    for &at in &f.u32_fields {
        for v in [0, 1, u32::MAX] {
            let mut bytes = f.bytes.clone();
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            let _ = decode_trace_pairs(&bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn truncation_is_an_error(cut in 0..fixture().bytes.len()) {
        prop_assert!(decode_trace_pairs(&fixture().bytes[..cut]).is_err());
    }

    #[test]
    fn a_flipped_byte_never_panics(at in 0..fixture().bytes.len(), mask in 1u16..256) {
        let mut bytes = fixture().bytes.clone();
        bytes[at] ^= mask as u8;
        let _ = decode_trace_pairs(&bytes);
    }

    #[test]
    fn a_huge_count_never_panics_or_aborts(
        field in 0..fixture().u32_fields.len(),
        count in (1u32 << 24)..u32::MAX,
        max in any::<bool>(),
    ) {
        let mut bytes = fixture().bytes.clone();
        let at = fixture().u32_fields[field];
        let count = if max { u32::MAX } else { count };
        bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let _ = decode_trace_pairs(&bytes);
    }

    #[test]
    fn a_ce_code_outside_the_alphabet_is_invalid_po2(
        code in 0..fixture().ce_codes.len(),
        byte in any::<u8>(),
    ) {
        let (at, valid) = fixture().ce_codes[code];
        let mut bytes = fixture().bytes.clone();
        bytes[at] = (valid + u32::from(byte) % (256 - valid)) as u8;
        let err = decode_trace_pairs(&bytes).unwrap_err();
        prop_assert!(matches!(err, ModelError::Ir(IrError::InvalidPo2 { .. })), "{err}");
    }

    #[test]
    fn a_u16_code_past_a_wide_alphabet_is_invalid_po2(
        code in 0..wide_fixture().ce_codes.len(),
        past in any::<u16>(),
    ) {
        let (at, valid) = wide_fixture().ce_codes[code];
        let mut bytes = wide_fixture().bytes.clone();
        let bad = (valid + u32::from(past) % (65_536 - valid)) as u16;
        bytes[at..at + 2].copy_from_slice(&bad.to_le_bytes());
        let err = decode_trace_pairs(&bytes).unwrap_err();
        prop_assert!(matches!(err, ModelError::Ir(IrError::InvalidPo2 { .. })), "{err}");
    }
}

/// A source handing out its bytes 1 to `k` at a time, the count of each
/// read drawn from a seeded generator.
struct Trickle<'a> {
    bytes: &'a [u8],
    k: usize,
    state: u64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.state = self.state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let n = (1 + (self.state >> 33) as usize % self.k).min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Decodes `bytes` through a [`Trickle`], the reader told the source holds
/// `len` bytes.
fn trickle_decode(
    bytes: &[u8],
    len: usize,
    k: usize,
    seed: u64,
) -> se_models::Result<se_models::traces::TraceFile> {
    read_trace_pairs(&mut ByteReader::from_read(Trickle { bytes, k, state: seed }, len))
}

#[test]
fn a_huge_length_prefix_fails_before_the_buffer_outgrows_the_file() {
    let f = fixture();
    let path = std::env::temp_dir().join(format!("se-hostile-prefix-{}", std::process::id()));
    // The net-name length is the file's first length prefix; every other
    // `u32` field blown up must keep the buffer within the file as well.
    for (i, &at) in f.u32_fields.iter().enumerate() {
        let mut bytes = f.bytes.clone();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut r = ByteReader::from_read(std::fs::File::open(&path).unwrap(), bytes.len());
        let got = read_trace_pairs(&mut r);
        assert!(i > 0 || got.is_err(), "a u32::MAX name length decoded");
        assert!(r.buffer_len() <= bytes.len(), "field at byte {at}: {}", r.buffer_len());
    }
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_split_into_reads_decodes_like_the_slice(k in 1usize..4096, seed in any::<u64>()) {
        let bytes = &fixture().bytes;
        let got = trickle_decode(bytes, bytes.len(), k, seed).unwrap();
        prop_assert_eq!(got, decode_trace_pairs(bytes).unwrap());
    }

    #[test]
    fn bytes_past_the_stated_length_are_never_read(k in 1usize..4096, seed in any::<u64>()) {
        let bytes = &fixture().bytes;
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0xAB; 100]);
        let mut src = Trickle { bytes: &longer, k, state: seed };
        let got = read_trace_pairs(&mut ByteReader::from_read(&mut src, bytes.len())).unwrap();
        prop_assert_eq!(got, decode_trace_pairs(bytes).unwrap());
        prop_assert_eq!(src.bytes.len(), 100);
    }

    #[test]
    fn truncation_through_the_stream_is_an_error(
        cut in 0..fixture().bytes.len(),
        k in 1usize..4096,
        seed in any::<u64>(),
    ) {
        let bytes = &fixture().bytes;
        // A short file, and a source that ends before its stated length.
        prop_assert!(trickle_decode(&bytes[..cut], cut, k, seed).is_err());
        prop_assert!(trickle_decode(&bytes[..cut], bytes.len(), k, seed).is_err());
    }
}

/// The fixture's pairs under the options digest [`TraceReader::open`]
/// expects, with the network it expects.
fn opened_fixture() -> &'static (Vec<u8>, NetworkDesc, TraceOptions) {
    static FIXTURE: OnceLock<(Vec<u8>, NetworkDesc, TraceOptions)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let opts = TraceOptions::fast().with_fc_layers();
        let pairs = decode_trace_pairs(&fixture().bytes).unwrap().pairs;
        let bytes = encode_trace_pairs("hostile", options_digest(&opts), &pairs).unwrap();
        let fc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 5 }, (1, 1));
        (bytes, NetworkDesc::new("hostile", Dataset::Cifar10, vec![fc]).unwrap(), opts)
    })
}

/// Every pair a reader hands out, up to its end or its first error.
fn drain(mut reader: TraceReader) -> se_models::Result<Vec<TracePair>> {
    let mut pairs = Vec::new();
    while let Some(pair) = reader.next_pair()? {
        pairs.push(pair);
    }
    Ok(pairs)
}

/// `bytes` damaged at every cut and with every byte flipped, one at a
/// time, each written to `path`; `check` gets the damaged bytes and the
/// flipped offset (`None` for a cut).
fn every_cut_and_flip(bytes: &[u8], tag: &str, mut check: impl FnMut(&Path, &[u8], Option<usize>)) {
    let path =
        std::env::temp_dir().join(format!("se-hostile-{tag}-{}.setrace", std::process::id()));
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        check(&path, &bytes[..cut], None);
    }
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0xA5;
        std::fs::write(&path, &flipped).unwrap();
        check(&path, &flipped, Some(at));
    }
    std::fs::remove_file(&path).unwrap();
}

/// `decode_trace_pairs`' error on `bytes`, as a reader of the file at
/// `path` reports it.
fn named(path: &Path, e: ModelError) -> ModelError {
    ModelError::Artifact { path: path.display().to_string(), source: Box::new(e) }
}

#[test]
fn a_file_reader_decodes_every_cut_and_flip_like_the_slice() {
    every_cut_and_flip(&fixture().bytes, "file", |path, bytes, _| {
        let want = decode_trace_pairs(bytes).map_err(|e| named(path, e));
        let got = TraceReader::at(path).and_then(|reader| {
            let (net_name, digest) = (reader.net_name().to_string(), reader.digest());
            Ok(TraceFile { net_name, digest, pairs: drain(reader)? })
        });
        assert_eq!(got, want);
    });
}

#[test]
fn draining_an_opened_reader_gives_the_slice_decode_or_a_mismatch() {
    let (bytes, net, opts) = opened_fixture();
    // The network name and options digest, after the 7-byte header.
    let checked = 7..7 + 4 + net.name().len() + 8;
    every_cut_and_flip(bytes, "opened", |path, damaged, flipped| {
        let got = TraceReader::open(net, opts, path).and_then(drain);
        let want = decode_trace_pairs(damaged).map(|file| file.pairs).map_err(|e| named(path, e));
        match (&got, flipped) {
            // A flip in the checked fields may fail the up-front check.
            (Err(ModelError::Io { reason, .. }), Some(at)) if checked.contains(&at) => {
                assert!(reason.contains("for network") || reason.contains("digest"), "{reason}");
            }
            _ => assert_eq!(got, want, "cut or flip {flipped:?}"),
        }
    });
}
