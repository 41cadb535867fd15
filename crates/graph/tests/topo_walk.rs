//! The CSC scan, `TopoView::csc_fold_active`, against the per-row fold it
//! replaces: over raw rows and under varint and ζ₁..ζ₄, on R-MAT, grid,
//! uniform, empty-row and multi-edge-hub graphs, with seeded random id
//! ranges and active sets, every active row is emitted exactly once with
//! `view.csc_entries(v).fold(..)`'s value, no inactive row is emitted, and
//! the returned counts are the active rows and their in-degree sum. The
//! fold is order-sensitive, so an entry folded out of CSC order, into the
//! wrong row, or twice changes a value.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use gr_graph::{
    gen, Bitmap, CompressedTopology, CompressionCodec, EdgeList, GraphLayout, TopoView,
};

const CODECS: [CompressionCodec; 5] = [
    CompressionCodec::Varint,
    CompressionCodec::Zeta(1),
    CompressionCodec::Zeta(2),
    CompressionCodec::Zeta(3),
    CompressionCodec::Zeta(4),
];

/// Draws per graph and view.
const DRAWS: usize = 40;

fn graphs() -> Vec<(&'static str, EdgeList)> {
    // Edges into every fifth vertex only: runs of empty rows between.
    let sparse_rows = EdgeList::from_edges(
        300,
        (0..900u32).map(|i| (i * 13 % 300, i % 60 * 5)).collect(),
    );
    // A hub holding most in-edges, many of them duplicates (zero gaps),
    // beside back-pointing rows (negative first offsets).
    let mut hub = gen::uniform(400, 600, 5);
    hub.edges.extend((0..900u32).map(|i| (i % 250, 17)));
    hub.edges.extend([(399, 0), (398, 0), (398, 0), (3, 2)]);
    vec![
        ("rmat", gen::rmat_g500(10, 1 << 13, 42)),
        ("grid", gen::grid2d_with_edges(576, 2304, 1)),
        ("uniform", gen::uniform(512, 4096, 3).symmetrize()),
        ("empty rows", sparse_rows),
        ("all empty", EdgeList::new(17)),
        ("multi-edge hub", hub),
    ]
}

/// An order-sensitive fold of `(source, canonical id)` entries.
fn fold_entry(acc: u64, (src, eid): (u32, u32)) -> u64 {
    acc.wrapping_mul(0x100_0000_01b3) ^ (u64::from(src) << 32 | u64::from(eid))
}

/// A random id range of `0..=n` (sometimes empty, sometimes all of it)
/// and an active set: all, none, a random density, or a middle run.
fn draw(rng: &mut SmallRng, n: u32) -> (std::ops::Range<u32>, Bitmap) {
    let (lo, hi) = match rng.random_range(0..6u32) {
        0 => (0, n),
        1 => {
            let v = rng.random_range(0..=n);
            (v, v)
        }
        _ => {
            let a = rng.random_range(0..=n);
            let b = rng.random_range(0..=n);
            (a.min(b), a.max(b))
        }
    };
    let mut active = Bitmap::new(n);
    match rng.random_range(0..5u32) {
        0 => (0..n).for_each(|v| {
            active.set(v);
        }),
        1 => {}
        2 if hi - lo >= 3 => (lo + 1..hi - 1).for_each(|v| {
            active.set(v);
        }),
        _ => {
            let density = rng.random_range(1..=9u32);
            for v in 0..n {
                if rng.random_range(0..10u32) < density {
                    active.set(v);
                }
            }
        }
    }
    (lo..hi, active)
}

fn assert_walk_matches_rows(
    view: TopoView<'_>,
    ids: std::ops::Range<u32>,
    active: &Bitmap,
    tag: &str,
) {
    let n = view.layout().num_vertices() as usize;
    let mut emitted = vec![0u32; n];
    let mut got = vec![0u64; n];
    let counts = view.csc_fold_active(
        ids.clone(),
        |v| active.get(v),
        1,
        |_| fold_entry,
        |v, acc| {
            emitted[v as usize] += 1;
            got[v as usize] = acc;
        },
    );
    let (mut rows, mut entries) = (0, 0);
    for v in 0..n as u32 {
        let case = format!("row {v} of {ids:?} ({tag})");
        if ids.contains(&v) && active.get(v) {
            rows += 1;
            entries += view.csc_entries(v).len() as u64;
            assert_eq!(emitted[v as usize], 1, "{case}: emitted once");
            assert_eq!(
                got[v as usize],
                view.csc_entries(v).fold(1, fold_entry),
                "{case}"
            );
        } else {
            assert_eq!(emitted[v as usize], 0, "{case}: inactive, not emitted");
        }
    }
    assert_eq!(counts, (rows, entries), "counts over {ids:?} ({tag})");
}

#[test]
fn the_scan_matches_the_per_row_fold() {
    let mut rng = SmallRng::seed_from_u64(0x5ca9);
    for (name, el) in graphs() {
        let layout = GraphLayout::build(&el);
        let n = layout.num_vertices();
        let coded: Vec<_> = CODECS
            .iter()
            .map(|&codec| (codec.name(), CompressedTopology::build(&layout, codec)))
            .collect();
        let views = std::iter::once(("raw", TopoView::raw(&layout))).chain(
            coded
                .iter()
                .map(|(tag, comp)| (*tag, TopoView::compressed(&layout, comp))),
        );
        for (tag, view) in views {
            for _ in 0..DRAWS {
                let (ids, active) = draw(&mut rng, n);
                assert_walk_matches_rows(view, ids, &active, &format!("{name}, {tag}"));
            }
        }
    }
}
