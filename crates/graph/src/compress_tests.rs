//! Unit tests of `compress.rs`: codec and reader edge cases, row walks
//! over raw and compressed views, and the pinned compressed sizes.

use super::*;
use crate::edgelist::EdgeList;
use crate::gen;

const CODECS: [CompressionCodec; 5] = [
    CompressionCodec::Varint,
    CompressionCodec::Zeta(1),
    CompressionCodec::Zeta(2),
    CompressionCodec::Zeta(3),
    CompressionCodec::Zeta(4),
];

#[test]
fn bit_writer_reader_roundtrip() {
    let mut w = BitWriter::new();
    w.write_bits(0b101, 3);
    w.write_bits((1 << 57) - 1, 57); // spans words
    w.write_bits(0, 0);
    w.write_bits(0x5a, 8);
    assert_eq!(w.bit_len(), 68);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 9);
    let mut r = BitReader::new(&bytes, 0);
    assert_eq!(r.read_bits(3), 0b101);
    assert_eq!(r.read_bits(57), (1 << 57) - 1);
    assert_eq!(r.read_bits(8), 0x5a);
    assert_eq!(r.bit_pos(), 68);
    assert!(!r.overrun());
}

#[test]
fn zigzag_roundtrip() {
    for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40)] {
        assert_eq!(unzigzag(zigzag(v)), v);
    }
    assert_eq!(zigzag(0), 0);
    assert_eq!(zigzag(-1), 1);
    assert_eq!(zigzag(1), 2);
}

/// Code length by the published definitions, bit by bit: LEB128 groups,
/// and Boldi–Vigna's unary `h` + minimal binary over
/// `[0, 2^(hk) (2^k - 1))`. The word-at-a-time codec must spend exactly
/// these bits (byte accounting and simulated time hang on it).
fn reference_len(codec: CompressionCodec, x: u64) -> u64 {
    match codec {
        CompressionCodec::Varint => (64 - x.leading_zeros() as u64).div_ceil(7).max(1) * 8,
        CompressionCodec::Zeta(k) => {
            let n = x + 1;
            let h = (63 - n.leading_zeros()) / k;
            let lo = 1u64 << (h * k);
            let z = (lo << k) - lo;
            let body = if z <= 1 {
                0
            } else {
                let s = 64 - (z - 1).leading_zeros();
                let threshold = (1u64 << s) - z;
                if n - lo < threshold {
                    s - 1
                } else {
                    s
                }
            };
            (h + 1 + body) as u64
        }
    }
}

/// Under the release profile this also guards the codecs'
/// bool-to-int adds (the varint `more` bit, ζ's `hi != 0` and `long`
/// lengths): dropping any one of them changes a length or a value here.
#[test]
fn codec_roundtrip_is_exhaustive_at_every_bit_offset() {
    let mut values: Vec<u64> = (0..=65_536).collect();
    for i in 0..=40 {
        values.extend([(1u64 << i) - 1, 1 << i, (1 << i) + 1]);
    }
    values.push((1 << VALUE_BITS) - 2); // the domain's last value
    for codec in CODECS {
        let expected_bits: u64 = values.iter().map(|&v| reference_len(codec, v)).sum();
        for offset in 0..64u32 {
            let mut w = BitWriter::new();
            w.write_bits(u64::MAX, offset.min(57));
            w.write_bits(u64::MAX, offset - offset.min(57));
            for &v in &values {
                let before = w.bit_len();
                codec.write(&mut w, v);
                if offset == 0 {
                    let len = w.bit_len() - before;
                    assert_eq!(len, reference_len(codec, v), "{} len of {v}", codec.name());
                }
            }
            assert_eq!(w.bit_len(), offset as u64 + expected_bits);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes, offset as u64);
            for &v in &values {
                assert_eq!(codec.read(&mut r), v, "{} @{offset}", codec.name());
            }
            assert_eq!(r.bit_pos(), offset as u64 + expected_bits);
            assert!(!r.overrun());
        }
    }
}

#[test]
fn reader_is_total_on_truncated_and_impossible_streams() {
    for codec in CODECS {
        let mut w = BitWriter::new();
        for v in [3u64, 1 << 20, 77, 1 << 33] {
            codec.write(&mut w, v);
        }
        let bytes = w.finish();
        // Every truncation: reads never panic, and running off the end
        // is reported.
        for cut in 0..bytes.len() {
            let mut r = BitReader::new(&bytes[..cut], 0);
            for _ in 0..4 {
                codec.read(&mut r);
            }
            assert!(r.overrun(), "{} cut at {cut}", codec.name());
        }
        // Bits past the end read as zero.
        let mut r = BitReader::new(&bytes, bytes.len() as u64 * 8 - 3);
        assert_eq!(r.read_bits(40) >> 3, 0);
        assert!(r.overrun());
        let mut r = BitReader::new(&bytes, u64::MAX / 2);
        assert_eq!(r.read_bits(57), 0);
    }
    // Patterns no writer produces: an endless varint, a ζ prefix longer
    // than any value's. The cursor is poisoned, later reads stay quiet.
    let ones = [0xffu8; 32];
    let mut r = BitReader::new(&ones, 0);
    assert_eq!(r.read_varint(), 0);
    assert!(r.overrun());
    assert_eq!(r.read_varint(), 0);
    let zeros = [0u8; 32];
    for k in 1..=8 {
        let mut r = BitReader::new(&zeros, 5);
        assert_eq!(r.read_zeta(k), 0);
        assert!(r.overrun());
        r.read_zeta(k);
        r.read_bits(57);
        assert!(r.overrun());
    }
    // A ζ_3 prefix of 16 zeros announces a 48-bit-plus value.
    let mut long_prefix = [0xffu8; 16];
    long_prefix[..2].fill(0);
    let mut r = BitReader::new(&long_prefix, 0);
    r.read_zeta(3);
    assert!(r.overrun());
}

#[test]
fn zeta_small_gaps_beat_varint() {
    // ζ3 spends ~4 bits on tiny gaps; varint spends 8.
    let mut wz = BitWriter::new();
    let mut wv = BitWriter::new();
    for g in 0..64u64 {
        CompressionCodec::Zeta(3).write(&mut wz, g % 4);
        CompressionCodec::Varint.write(&mut wv, g % 4);
    }
    assert!(wz.bit_len() < wv.bit_len());
}

#[test]
fn codec_names_parse_back() {
    for codec in CODECS {
        assert_eq!(CompressionCodec::parse(codec.name()), Some(codec));
    }
    assert_eq!(
        CompressionCodec::parse("zeta"),
        Some(CompressionCodec::Zeta(3))
    );
    assert_eq!(CompressionCodec::parse("lz4"), None);
    assert_eq!(CompressionCodec::default(), CompressionCodec::Zeta(3));
}

/// `next()`, `fold`, a `next()`-then-`fold` split and a resumed `any`
/// must all yield the raw row, through raw and compressed views alike;
/// the neighbor-only walk must yield the raw destinations.
fn assert_row_walks_agree(layout: &GraphLayout, view: TopoView<'_>, tag: &str) {
    fn by_fold(row: TopoRowIter<'_>) -> Vec<(VertexId, u32)> {
        row.fold(Vec::new(), |mut out, e| {
            out.push(e);
            out
        })
    }
    #[allow(clippy::while_let_on_iterator)] // `next()` is the path under test
    fn by_next(mut row: TopoRowIter<'_>) -> Vec<(VertexId, u32)> {
        let mut out = Vec::new();
        while let Some(e) = row.next() {
            out.push(e);
        }
        out
    }
    fn split(mut row: TopoRowIter<'_>) -> Vec<(VertexId, u32)> {
        let mut out: Vec<_> = row.next().into_iter().collect();
        out.extend(by_fold(row));
        out
    }
    /// `any` stopping at every third entry, resumed until the row is
    /// spent: each call must leave the row just after its hit.
    fn by_any(mut row: TopoRowIter<'_>) -> Vec<(VertexId, u32)> {
        let mut out = Vec::new();
        while row.any(|e| {
            out.push(e);
            out.len() % 3 == 0
        }) {}
        out
    }
    for v in 0..layout.num_vertices() {
        let raw_csc: Vec<_> = layout.csc.entries(v).collect();
        let raw_csr: Vec<_> = layout.csr.entries(v).collect();
        assert_eq!(view.csc_entries(v).len(), raw_csc.len());
        assert_eq!(view.csr_entries(v).len(), raw_csr.len());
        for walk in [by_fold, by_next, split, by_any] {
            assert_eq!(walk(view.csc_entries(v)), raw_csc, "csc row {v} ({tag})");
            assert_eq!(walk(view.csr_entries(v)), raw_csr, "csr row {v} ({tag})");
        }
        let dsts: Vec<_> = raw_csr.iter().map(|&(dst, _)| dst).collect();
        assert_eq!(view.csr_neighbors(v).len(), dsts.len());
        assert_eq!(view.csr_neighbors(v).collect::<Vec<_>>(), dsts, "{tag}");
        let mut folded = Vec::new();
        view.csr_neighbors(v).for_each(|dst| folded.push(dst));
        assert_eq!(folded, dsts, "csr neighbors of {v} ({tag})");
    }
}

fn assert_topo_roundtrip(layout: &GraphLayout) {
    assert_row_walks_agree(layout, TopoView::raw(layout), "raw");
    for codec in CODECS {
        let comp = CompressedTopology::build(layout, codec);
        let view = TopoView::compressed(layout, &comp);
        assert_row_walks_agree(layout, view, codec.name());
    }
}

#[test]
fn roundtrip_exact_on_generated_graphs() {
    let graphs = [
        gen::uniform(512, 4096, 3).symmetrize(),
        gen::rmat_g500(10, 1 << 12, 42),
        gen::grid2d_with_edges(576, 2304, 1),
        EdgeList::new(17), // empty rows everywhere
    ];
    for el in &graphs {
        assert_topo_roundtrip(&GraphLayout::build(el));
    }
}

#[test]
fn roundtrip_exact_with_multi_edges_and_hubs() {
    // Duplicate edges (zero gaps) and a hub with back-pointing
    // neighbors (negative first offsets).
    let el = EdgeList::from_edges(
        8,
        vec![
            (7, 0),
            (7, 0),
            (7, 1),
            (0, 7),
            (1, 7),
            (2, 7),
            (3, 7),
            (3, 7),
            (5, 4),
            (4, 5),
        ],
    );
    assert_topo_roundtrip(&GraphLayout::build(&el));
}

/// Compressed sizes at the commit before the word-at-a-time codec
/// (bit-serial writer, CSR ids interleaved with destinations). The
/// simulated clock and every transfer count are functions of these
/// bytes, so a codec change may not move one of them.
#[test]
fn compressed_sizes_are_pinned() {
    let graphs = [
        gen::rmat_g500(10, 1 << 12, 42),
        gen::grid2d_with_edges(576, 2304, 1),
        gen::uniform(512, 4096, 3).symmetrize(),
    ];
    // (csc, csr) bytes per codec in `CODECS` order.
    let pinned: [[(u64, u64); 5]; 3] = [
        [
            (5035, 11245),
            (4771, 11588),
            (4102, 9741),
            (4077, 9518),
            (4220, 9678),
        ],
        [
            (2304, 5129),
            (1893, 5060),
            (1695, 4384),
            (1752, 4408),
            (2091, 4661),
        ],
        [
            (8715, 23217),
            (9341, 25852),
            (8030, 21445),
            (7912, 20635),
            (8349, 21160),
        ],
    ];
    for (el, sizes) in graphs.iter().zip(pinned) {
        let layout = GraphLayout::build(el);
        for (codec, (csc, csr)) in CODECS.into_iter().zip(sizes) {
            let comp = CompressedTopology::build(&layout, codec);
            assert_eq!(comp.csc.total_bytes(), csc, "{} csc", codec.name());
            assert_eq!(comp.csr.total_bytes(), csr, "{} csr", codec.name());
            assert_eq!(comp.total_bytes(), csc + csr);
        }
    }
}

#[test]
fn interval_bytes_sum_to_total() {
    let layout = GraphLayout::build(&gen::rmat_g500(9, 4096, 7).symmetrize());
    let comp = CompressedTopology::build(&layout, CompressionCodec::Zeta(3));
    let n = layout.num_vertices();
    let mid = n / 2;
    for adj in [&comp.csc, &comp.csr] {
        let whole = adj.interval_bytes(0, n);
        // Bit extents are exact; byte rounding may add at most 1 per cut.
        let parts = adj.interval_bytes(0, mid) + adj.interval_bytes(mid, n);
        assert!(parts >= whole && parts <= whole + 1);
        assert_eq!(adj.total_bytes(), adj.interval_bytes(0, n));
    }
    assert_eq!(
        comp.total_bytes(),
        comp.csc.total_bytes() + comp.csr.total_bytes()
    );
}

#[test]
fn compression_beats_raw_on_skewed_graphs() {
    // Raw topology ships 12 B per edge per direction in the cost
    // model; a scale-10 RMAT should compress well below half of the
    // 4 B/edge neighbor words alone.
    let layout = GraphLayout::build(&gen::rmat_g500(10, 1 << 13, 42).symmetrize());
    let raw_topo = layout.num_edges() * 12 * 2;
    for codec in CODECS {
        let comp = CompressedTopology::build(&layout, codec);
        let ratio = raw_topo as f64 / comp.total_bytes() as f64;
        assert!(
            ratio > 2.5,
            "{}: ratio {ratio:.2} (raw {raw_topo} vs {})",
            codec.name(),
            comp.total_bytes()
        );
    }
}

#[test]
fn weighted_flag_tracks_real_weights() {
    let el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]);
    let layout = GraphLayout::build(&el);
    let comp = CompressedTopology::build(&layout, CompressionCodec::Varint);
    assert!(!comp.weighted);
    let wl = GraphLayout::build(&el.clone().with_weights(vec![2.0, 1.0]));
    let comp = CompressedTopology::build(&wl, CompressionCodec::Varint);
    assert!(comp.weighted);
}
