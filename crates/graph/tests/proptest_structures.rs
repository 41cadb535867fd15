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

#[derive(Clone, Debug)]
enum BitOp {
    Set(u32),
    Clear(u32),
    CountRange(u32, u32),
    AnyRange(u32, u32),
}

fn bit_ops(len: u32) -> impl Strategy<Value = Vec<BitOp>> {
    let op = prop_oneof![
        (0..len).prop_map(BitOp::Set),
        (0..len).prop_map(BitOp::Clear),
        (0..len, 0..len).prop_map(|(a, b)| BitOp::CountRange(a.min(b), a.max(b))),
        (0..len, 0..len).prop_map(|(a, b)| BitOp::AnyRange(a.min(b), a.max(b))),
    ];
    prop::collection::vec(op, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-based bitmap check against a HashSet.
    #[test]
    fn bitmap_matches_set_model(len in 1u32..400, ops in bit_ops(400)) {
        let mut bm = Bitmap::new(len);
        let mut model: HashSet<u32> = HashSet::new();
        for op in ops {
            match op {
                BitOp::Set(i) if i < len => {
                    prop_assert_eq!(bm.set(i), model.insert(i));
                }
                BitOp::Clear(i) if i < len => {
                    prop_assert_eq!(bm.clear(i), model.remove(&i));
                }
                BitOp::CountRange(lo, hi) if hi <= len => {
                    let want = model.iter().filter(|&&x| (lo..hi).contains(&x)).count();
                    prop_assert_eq!(bm.count_range(lo, hi), want as u64);
                }
                BitOp::AnyRange(lo, hi) if hi <= len => {
                    let want = model.iter().any(|&x| (lo..hi).contains(&x));
                    prop_assert_eq!(bm.any_in_range(lo, hi), want);
                }
                _ => {}
            }
            prop_assert_eq!(bm.count(), model.len() as u64);
        }
        let mut got: Vec<u32> = bm.iter_set().collect();
        let mut want: Vec<u32> = model.into_iter().collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
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
