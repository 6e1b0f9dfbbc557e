//! Hostile-input properties of the `.senet` decoder
//! (`CompressedNetwork::from_bytes`): a damaged artifact (truncated,
//! byte-flipped, or with a `u32` field blown up to a huge count) must give
//! `Err` or a valid network, never panic or abort on a giant allocation.

use proptest::prelude::*;
use se_core::network::{compress_network, CompressedNetwork};
use se_core::SeConfig;
use se_ir::serialize::ByteReader;
use se_ir::{LayerDesc, LayerKind, Po2Set};
use se_tensor::rng;
use std::sync::OnceLock;

/// A small real artifact plus the offsets of its `u32` fields.
struct Fixture {
    bytes: Vec<u8>,
    u32_fields: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut r = rng::seeded(11);
        let conv =
            LayerKind::Conv2d { in_channels: 3, out_channels: 4, kernel: 3, stride: 1, padding: 1 };
        let fc = LayerKind::Linear { in_features: 12, out_features: 4 };
        let layers = [
            (LayerDesc::new("conv", conv, (6, 6)), rng::kaiming_tensor(&mut r, &[4, 3, 3, 3], 27)),
            (LayerDesc::new("fc", fc, (1, 1)), rng::kaiming_tensor(&mut r, &[4, 12], 12)),
        ];
        let cfg = SeConfig::default().with_max_iterations(4).unwrap().with_parallelism(1).unwrap();
        let descs: Vec<LayerDesc> = layers.iter().map(|(d, _)| d.clone()).collect();
        let network = compress_network(&descs, &cfg, |i, _| Ok(&layers[i].1)).unwrap();
        let bytes = network.to_bytes().unwrap();
        let mut walk =
            Walk { r: ByteReader::new(&bytes), len: bytes.len(), u32_fields: Vec::new() };
        walk.file();
        assert_eq!(walk.r.remaining(), 0, "the walk covers the whole artifact");
        Fixture { u32_fields: walk.u32_fields, bytes: bytes.clone() }
    })
}

/// Steps through an artifact along the `.senet` layout of
/// docs/TRACE_FORMAT.md, recording where each `u32` field sits.
struct Walk<'a> {
    r: ByteReader<'a>,
    len: usize,
    u32_fields: Vec<usize>,
}

impl Walk<'_> {
    fn u32(&mut self) -> usize {
        self.u32_fields.push(self.len - self.r.remaining());
        self.r.get_u32().unwrap() as usize
    }

    fn skip(&mut self, n: usize) {
        self.r.get_i8_vec(n).unwrap();
    }

    fn file(&mut self) {
        self.skip(7); // magic, version, payload kind
        for _ in 0..self.u32() {
            let name = self.u32();
            self.skip(name + 4 * 8 + 2 * 4); // name, params + storage, sparsity + error
            for _ in 0..self.u32() {
                self.se_layer();
            }
        }
    }

    fn se_layer(&mut self) {
        let max_exp = self.r.get_i32().unwrap();
        let count = self.u32() as u32;
        let width = if Po2Set::new(max_exp, count).unwrap().code_bits() <= 8 { 1 } else { 2 };
        self.skip(1); // layout tag
        for _ in 0..4 {
            self.u32(); // layout dimensions
        }
        for _ in 0..self.u32() {
            let codes = self.u32() * self.u32();
            self.skip(codes * width);
            let basis = self.u32() * self.u32();
            self.skip(4 * basis);
        }
    }
}

#[test]
fn the_undamaged_fixture_decodes() {
    let f = fixture();
    let net = CompressedNetwork::from_bytes(&f.bytes).unwrap();
    assert_eq!(net.reports.len(), 2);
    assert!(f.u32_fields.len() > 20, "{} u32 fields", f.u32_fields.len());
}

#[test]
fn every_u32_field_at_its_edge_values_never_panics() {
    let f = fixture();
    for &at in &f.u32_fields {
        for v in [0, 1, u32::MAX] {
            let mut bytes = f.bytes.clone();
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            let _ = CompressedNetwork::from_bytes(&bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn truncation_is_an_error(cut in 0..fixture().bytes.len()) {
        prop_assert!(CompressedNetwork::from_bytes(&fixture().bytes[..cut]).is_err());
    }

    #[test]
    fn a_flipped_byte_never_panics(at in 0..fixture().bytes.len(), mask in 1u16..256) {
        let mut bytes = fixture().bytes.clone();
        bytes[at] ^= mask as u8;
        let _ = CompressedNetwork::from_bytes(&bytes);
    }

    #[test]
    fn a_huge_count_is_an_error(
        field in 0..fixture().u32_fields.len(),
        count in (1u32 << 24)..u32::MAX,
        max in any::<bool>(),
    ) {
        let mut bytes = fixture().bytes.clone();
        let at = fixture().u32_fields[field];
        let count = if max { u32::MAX } else { count };
        bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
        prop_assert!(CompressedNetwork::from_bytes(&bytes).is_err(), "field at byte {at}");
    }
}
