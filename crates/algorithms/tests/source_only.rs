//! Every program that declares `GasProgram::gather_is_source_only` is held
//! to it: over seeded random inputs, `gather_map`'s bytes depend on the
//! source value alone, never on the destination, the edge or the weight.
//! The engine trusts the declaration, so a map that broke it would give
//! wrong answers rather than fail.

use gr_algorithms::{MsBfs, MsBfsLevels, MsBfsLevelsValue, MsBfsValue, PageRank, PrValue};
use graphreduce::{GasProgram, StateBytes};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn bytes<T: StateBytes>(v: &T) -> Vec<u8> {
    let mut out = vec![0; T::BYTES];
    v.write_bytes(&mut out);
    out
}

/// Compare `gather_map(dst, src, edge, weight)` against the source's own
/// term `gather_map(src, src, default, 0.0)` over 1 000 draws of `value`
/// and weights of any bit pattern.
fn assert_source_only<P: GasProgram>(p: &P, value: impl Fn(&mut SmallRng) -> P::VertexValue) {
    assert!(p.gather_is_source_only(), "{} must declare", p.name());
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let edge = P::EdgeValue::default();
    for draw in 0..1_000 {
        let (dst, src) = (value(&mut rng), value(&mut rng));
        let weight = f32::from_bits(rng.random());
        let term = bytes(&p.gather_map(&src, &src, &edge, 0.0));
        let mapped = bytes(&p.gather_map(&dst, &src, &edge, weight));
        assert_eq!(mapped, term, "{} draw {draw}", p.name());
    }
}

#[test]
fn pagerank_maps_its_source_alone() {
    assert_source_only(&PageRank::default(), |rng| PrValue {
        rank: rng.random::<f32>() * 4.0,
        // Sinks included: their term is the zero branch.
        out_degree: rng.random_range(0..4u32) * rng.random_range(0..1_000u32),
    });
}

#[test]
fn ms_bfs_maps_its_source_alone() {
    assert_source_only(&MsBfs::new(vec![0, 1]), |rng| MsBfsValue {
        reached_by: rng.random(),
        first_hit: rng.random(),
    });
}

#[test]
fn ms_bfs_levels_maps_its_source_alone() {
    assert_source_only(&MsBfsLevels::new(vec![0, 1]), |rng| {
        let mut v = MsBfsLevelsValue {
            reached_by: rng.random(),
            ..Default::default()
        };
        v.levels.iter_mut().for_each(|l| *l = rng.random());
        v
    });
}
