//! Property tests over the graph substrate: layout round-trips, partition
//! invariants, shard coverage, and model-based bitmap checks.

use std::collections::HashSet;

use proptest::prelude::*;

use gr_graph::{
    build_shards, partition_even_edges, validate_partition, Bitmap, EdgeList, GraphLayout,
};

fn edge_list() -> impl Strategy<Value = EdgeList> {
    (2u32..150).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..400)
            .prop_map(move |edges| EdgeList::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every input edge appears exactly once in CSC and exactly once in
    /// CSR, and their canonical ids agree on endpoints.
    #[test]
    fn layout_preserves_the_multiset_of_edges(el in edge_list()) {
        let g = GraphLayout::build(&el);
        prop_assert_eq!(g.num_edges() as usize, el.num_edges());

        let mut want = el.edges.clone();
        want.sort_unstable();

        // CSC view.
        let mut from_csc: Vec<(u32, u32)> = (0..g.num_vertices())
            .flat_map(|v| g.csc.entries(v).map(move |(src, _)| (src, v)))
            .collect();
        from_csc.sort_unstable();
        prop_assert_eq!(&from_csc, &want);

        // CSR view, resolving through canonical edge ids.
        let mut from_csr: Vec<(u32, u32)> = (0..g.num_vertices())
            .flat_map(|v| g.csr.entries(v).map(move |(dst, _)| (v, dst)))
            .collect();
        from_csr.sort_unstable();
        prop_assert_eq!(&from_csr, &want);

        // Canonical ids form a permutation and endpoints match both views.
        let mut seen = vec![false; el.num_edges()];
        for v in 0..g.num_vertices() {
            for (dst, eid) in g.csr.entries(v) {
                prop_assert!(!seen[eid as usize], "duplicate canonical id");
                seen[eid as usize] = true;
                prop_assert_eq!(g.edge_endpoints(eid), (v, dst));
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// Weights follow edges through the canonical reordering.
    #[test]
    fn layout_keeps_weights_attached(el in edge_list()) {
        let weights: Vec<f32> = (0..el.num_edges()).map(|i| i as f32 + 0.5).collect();
        let pairs: HashSet<(u32, u32, u32)> = el
            .edges
            .iter()
            .zip(&weights)
            .map(|(&(s, d), &w)| (s, d, w as u32))
            .collect();
        let g = GraphLayout::build(&el.clone().with_weights(weights));
        for v in 0..g.num_vertices() {
            for (src, eid) in g.csc.entries(v) {
                prop_assert!(pairs.contains(&(src, v, g.weights[eid as usize] as u32)));
            }
        }
    }

    /// The even-edge partition is a valid covering partition whose shards
    /// cover every edge exactly once, for any shard budget.
    #[test]
    fn partitions_are_valid_and_cover(el in edge_list(), p in 1usize..40) {
        let g = GraphLayout::build(&el);
        let intervals = partition_even_edges(&g, p);
        validate_partition(&intervals, g.num_vertices()).unwrap();
        prop_assert!(intervals.len() <= p.max(1));
        let shards = build_shards(&g, &intervals);
        let in_total: u64 = shards.iter().map(|s| s.num_in_edges()).sum();
        let out_total: u64 = shards.iter().map(|s| s.num_out_edges()).sum();
        prop_assert_eq!(in_total, g.num_edges());
        prop_assert_eq!(out_total, g.num_edges());
    }

    /// Symmetrize yields a symmetric edge multiset and dedup is idempotent.
    #[test]
    fn symmetrize_and_dedup(el in edge_list()) {
        let sym = el.symmetrize();
        let set: HashSet<(u32, u32)> = sym.edges.iter().copied().collect();
        for &(s, d) in &sym.edges {
            prop_assert!(set.contains(&(d, s)));
        }
        let d1 = el.dedup();
        let d2 = d1.dedup();
        prop_assert_eq!(&d1, &d2);
        let uniq: HashSet<_> = d1.edges.iter().copied().collect();
        prop_assert_eq!(uniq.len(), d1.num_edges());
        prop_assert!(d1.edges.iter().all(|&(s, d)| s != d));
    }

    /// Text IO round-trips arbitrary edge lists.
    #[test]
    fn text_io_roundtrip(el in edge_list()) {
        let mut buf = Vec::new();
        el.write_text(&mut buf).unwrap();
        let back = EdgeList::read_text(&buf[..]).unwrap();
        prop_assert_eq!(el, back);
    }
}

/// Bit positions at word (64-bit) and summary-word (4096-bit) edges.
const BIT_EDGES: [u32; 8] = [0, 1, 63, 64, 65, 4095, 4096, 4097];

/// Lengths straddling a word, a summary word and three summary words.
const EDGE_LENS: [u32; 9] = [0, 1, 63, 64, 65, 4095, 4096, 4097, 64 * 64 * 3 + 1];

#[derive(Clone, Debug)]
enum BitOp {
    Set(u32),
    Clear(u32),
    /// Set every bit of `[lo, hi)`, so words fill up.
    SetRun(u32, u32),
    /// Clear every bit of `[lo, hi)`, so words empty again.
    ClearRun(u32, u32),
    ClearAll,
    /// OR in a bitmap holding the run `[lo, hi)` and the listed bits.
    OrAssign(u32, u32, Vec<u32>),
    /// Replace the bitmap by `from_words` of its own words.
    FromWords,
    /// Compare `count_range`, `any_in_range` and `iter_set_range`.
    Range(u32, u32),
    NextSetFrom(u32),
}

fn bitmap_len() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..400, (0..EDGE_LENS.len()).prop_map(|i| EDGE_LENS[i])]
}

/// A position in `0..=len`, on a word or summary-word edge half the time.
fn point(len: u32) -> impl Strategy<Value = u32> {
    prop_oneof![
        0..=len,
        (0..BIT_EDGES.len() + 1).prop_map(move |i| BIT_EDGES.get(i).map_or(len, |&e| e.min(len))),
    ]
}

/// A range `lo <= hi <= len`.
fn range(len: u32) -> impl Strategy<Value = (u32, u32)> {
    (point(len), point(len)).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

fn bit_ops(len: u32) -> impl Strategy<Value = Vec<BitOp>> {
    // `0..len` is empty at length 0: draw from `0..1` and skip the
    // out-of-range bits.
    let bit = 0..len.max(1);
    let op = prop_oneof![
        bit.clone().prop_map(BitOp::Set),
        bit.clone().prop_map(BitOp::Clear),
        range(len).prop_map(|(lo, hi)| BitOp::SetRun(lo, hi.min(lo + 130))),
        range(len).prop_map(|(lo, hi)| BitOp::ClearRun(lo, hi.min(lo + 130))),
        Just(BitOp::ClearAll),
        (range(len), prop::collection::vec(bit, 0..20))
            .prop_map(|((lo, hi), bits)| BitOp::OrAssign(lo, hi, bits)),
        Just(BitOp::FromWords),
        range(len).prop_map(|(lo, hi)| BitOp::Range(lo, hi)),
        (0..=len + 1).prop_map(BitOp::NextSetFrom),
    ];
    prop::collection::vec(op, 0..120)
}

fn model_words(model: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; model.len().div_ceil(64)];
    for (i, _) in model.iter().enumerate().filter(|&(_, &x)| x) {
        words[i / 64] |= 1u64 << (i % 64);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-based bitmap check against a `Vec<bool>`: after every step
    /// the count, the words, the set bits and equality with a rebuilt
    /// bitmap agree with the model, and each query op agrees over its
    /// range.
    #[test]
    fn bitmap_matches_set_model((len, ops) in bitmap_len().prop_flat_map(|len| (Just(len), bit_ops(len)))) {
        let mut bm = Bitmap::new(len);
        let mut model = vec![false; len as usize];
        // The model's set bits in `[lo, hi)`.
        let within = |model: &[bool], lo: u32, hi: u32| -> Vec<u32> {
            (lo..hi).filter(|&i| model[i as usize]).collect()
        };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                BitOp::Set(i) if i < len => {
                    prop_assert_eq!(bm.set(i), !model[i as usize]);
                    model[i as usize] = true;
                }
                BitOp::Clear(i) if i < len => {
                    prop_assert_eq!(bm.clear(i), model[i as usize]);
                    model[i as usize] = false;
                }
                BitOp::SetRun(lo, hi) => {
                    for i in lo..hi {
                        prop_assert_eq!(bm.set(i), !model[i as usize]);
                        model[i as usize] = true;
                    }
                }
                BitOp::ClearRun(lo, hi) => {
                    for i in lo..hi {
                        prop_assert_eq!(bm.clear(i), model[i as usize]);
                        model[i as usize] = false;
                    }
                }
                BitOp::ClearAll => {
                    bm.clear_all();
                    model.fill(false);
                }
                BitOp::OrAssign(lo, hi, bits) => {
                    let mut other = Bitmap::new(len);
                    for i in (lo..hi).chain(bits.into_iter().filter(|&i| i < len)) {
                        other.set(i);
                        model[i as usize] = true;
                    }
                    bm.or_assign(&other);
                }
                BitOp::FromWords => {
                    bm = Bitmap::from_words(len, bm.words().to_vec()).expect("round trip");
                }
                BitOp::Range(lo, hi) => {
                    let want = within(&model, lo, hi);
                    prop_assert_eq!(bm.count_range(lo, hi), want.len() as u64, "step {step}: count_range({lo}, {hi})");
                    prop_assert_eq!(bm.any_in_range(lo, hi), !want.is_empty(), "step {step}: any_in_range({lo}, {hi})");
                    prop_assert_eq!(bm.iter_set_range(lo, hi).collect::<Vec<_>>(), want, "step {step}: iter_set_range({lo}, {hi})");
                }
                BitOp::NextSetFrom(i) => {
                    let want = within(&model, i.min(len), len).first().copied();
                    prop_assert_eq!(bm.next_set_from(i), want, "step {step}: next_set_from({i})");
                }
                _ => {}
            }
            let words = model_words(&model);
            let ones = within(&model, 0, len);
            prop_assert_eq!(bm.count(), ones.len() as u64, "step {step}: count");
            prop_assert_eq!(bm.words(), &words[..], "step {step}: words");
            prop_assert_eq!(bm.iter_set().collect::<Vec<_>>(), ones, "step {step}: iter_set");
            prop_assert_eq!(&bm, &Bitmap::from_words(len, words).expect("clean tail"), "step {step}: equality");
        }
    }

    /// or_assign equals set union.
    #[test]
    fn bitmap_union(len in 1u32..300, xs in prop::collection::vec(0u32..300, 0..60), ys in prop::collection::vec(0u32..300, 0..60)) {
        let mut a = Bitmap::new(len);
        let mut b = Bitmap::new(len);
        let mut model = HashSet::new();
        for x in xs { if x < len { a.set(x); model.insert(x); } }
        for y in ys { if y < len { b.set(y); model.insert(y); } }
        a.or_assign(&b);
        prop_assert_eq!(a.count(), model.len() as u64);
        for v in model { prop_assert!(a.get(v)); }
    }
}
