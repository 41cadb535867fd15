//! Raw directed edge lists: the interchange format produced by generators
//! and loaders, consumed by the CSR/CSC builder.

use std::fmt::Display;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::str::FromStr;

/// Vertex identifier. 32 bits covers every dataset in the paper (the largest,
/// uk-2002, has 18.5 M vertices) with headroom.
pub type VertexId = u32;

/// A directed graph as an unordered list of `(src, dst)` pairs with optional
/// per-edge weights (aligned with `edges`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeList {
    /// Number of vertices; all endpoints are `< num_vertices`.
    pub num_vertices: u32,
    /// Directed edges in arbitrary order.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Optional weights, one per edge (used by SSSP).
    pub weights: Option<Vec<f32>>,
}

impl EdgeList {
    /// An empty graph over `num_vertices` isolated vertices.
    pub fn new(num_vertices: u32) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Build from parts, validating endpoints and weight alignment.
    pub fn from_edges(num_vertices: u32, edges: Vec<(VertexId, VertexId)>) -> Self {
        assert!(
            edges
                .iter()
                .all(|&(s, d)| s < num_vertices && d < num_vertices),
            "edge endpoint out of range"
        );
        EdgeList {
            num_vertices,
            edges,
            weights: None,
        }
    }

    /// Attach weights (must align 1:1 with edges).
    pub fn with_weights(mut self, weights: Vec<f32>) -> Self {
        assert_eq!(weights.len(), self.edges.len(), "weights/edges mismatch");
        self.weights = Some(weights);
        self
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for &(s, _) in &self.edges {
            deg[s as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for &(_, d) in &self.edges {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Symmetrize: for every `(u, v)` also include `(v, u)`. The paper
    /// stores undirected inputs (orkut; CC inputs) as pairs of directed
    /// edges. Self-loops are kept single. Weights are mirrored.
    pub fn symmetrize(&self) -> EdgeList {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        let mut weights = self.weights.as_ref().map(|w| {
            let mut v = Vec::with_capacity(w.len() * 2);
            v.extend_from_slice(w);
            v
        });
        edges.extend_from_slice(&self.edges);
        for (i, &(s, d)) in self.edges.iter().enumerate() {
            if s != d {
                edges.push((d, s));
                if let (Some(out), Some(w)) = (weights.as_mut(), self.weights.as_ref()) {
                    out.push(w[i]);
                }
            }
        }
        EdgeList {
            num_vertices: self.num_vertices,
            edges,
            weights,
        }
    }

    /// Remove duplicate edges and self-loops (weights of kept edges are
    /// preserved; among duplicates the first occurrence wins).
    pub fn dedup(&self) -> EdgeList {
        let mut idx: Vec<u32> = (0..self.edges.len() as u32).collect();
        idx.sort_unstable_by_key(|&i| self.edges[i as usize]);
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut weights = self.weights.as_ref().map(|_| Vec::new());
        let mut last: Option<(u32, u32)> = None;
        for i in idx {
            let e = self.edges[i as usize];
            if e.0 == e.1 || Some(e) == last {
                continue;
            }
            last = Some(e);
            edges.push(e);
            if let (Some(ws), Some(w)) = (weights.as_mut(), self.weights.as_ref()) {
                ws.push(w[i as usize]);
            }
        }
        EdgeList {
            num_vertices: self.num_vertices,
            edges,
            weights,
        }
    }

    /// Write in a simple text format: first line `V E`, then `src dst
    /// [weight]` per line.
    pub fn write_text<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "{} {}", self.num_vertices, self.edges.len())?;
        for (i, &(s, d)) in self.edges.iter().enumerate() {
            match &self.weights {
                Some(ws) => writeln!(w, "{s} {d} {}", ws[i])?,
                None => writeln!(w, "{s} {d}")?,
            }
        }
        w.flush()
    }

    /// Write in a compact little-endian binary format:
    /// magic `GRED`, version u32, |V| u32, |E| u64, weights-flag u8, then
    /// `(src u32, dst u32)` pairs and optionally |E| f32 weights.
    pub fn write_binary<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(b"GRED")?;
        w.write_all(&1u32.to_le_bytes())?;
        w.write_all(&self.num_vertices.to_le_bytes())?;
        w.write_all(&(self.edges.len() as u64).to_le_bytes())?;
        w.write_all(&[u8::from(self.weights.is_some())])?;
        for &(s, d) in &self.edges {
            w.write_all(&s.to_le_bytes())?;
            w.write_all(&d.to_le_bytes())?;
        }
        if let Some(ws) = &self.weights {
            for &x in ws {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        w.flush()
    }

    /// Read the binary format written by [`EdgeList::write_binary`].
    ///
    /// Every failure is a typed [`io::Error`]: `InvalidData` for malformed
    /// content (bad magic, out-of-range endpoints, non-finite weights) and
    /// `UnexpectedEof` for truncation, each carrying the byte offset at
    /// which the problem was detected.
    pub fn read_binary<R: Read>(r: R) -> io::Result<EdgeList> {
        let mut r = io::BufReader::new(r);
        let mut offset: u64 = 0;
        let bad = |offset: u64, msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{msg} (at byte offset {offset})"),
            )
        };
        fn take<R: Read>(
            r: &mut R,
            offset: &mut u64,
            buf: &mut [u8],
            what: &str,
        ) -> io::Result<()> {
            let at = *offset;
            r.read_exact(buf).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("truncated input reading {what} (at byte offset {at})"),
                    )
                } else {
                    e
                }
            })?;
            *offset += buf.len() as u64;
            Ok(())
        }
        let mut magic = [0u8; 4];
        take(&mut r, &mut offset, &mut magic, "magic")?;
        if &magic != b"GRED" {
            return Err(bad(0, format!("bad magic {magic:?}, expected \"GRED\"")));
        }
        let mut u32buf = [0u8; 4];
        let mut u64buf = [0u8; 8];
        take(&mut r, &mut offset, &mut u32buf, "version")?;
        let version = u32::from_le_bytes(u32buf);
        if version != 1 {
            return Err(bad(4, format!("unsupported version {version}")));
        }
        take(&mut r, &mut offset, &mut u32buf, "vertex count")?;
        let v = u32::from_le_bytes(u32buf);
        take(&mut r, &mut offset, &mut u64buf, "edge count")?;
        let m = u64::from_le_bytes(u64buf);
        let m = usize::try_from(m).map_err(|_| bad(12, format!("edge count {m} too large")))?;
        let mut flag = [0u8; 1];
        take(&mut r, &mut offset, &mut flag, "weights flag")?;
        if flag[0] > 1 {
            return Err(bad(
                20,
                format!("weights flag must be 0 or 1, got {}", flag[0]),
            ));
        }
        // Grow incrementally past this point: `m` is attacker-controlled and
        // must not drive a huge up-front allocation before the payload is
        // proven to exist.
        let mut edges = Vec::with_capacity(m.min(1 << 20));
        for i in 0..m {
            let at = offset;
            take(&mut r, &mut offset, &mut u32buf, "edge source")?;
            let s = u32::from_le_bytes(u32buf);
            take(&mut r, &mut offset, &mut u32buf, "edge target")?;
            let d = u32::from_le_bytes(u32buf);
            if s >= v || d >= v {
                return Err(bad(
                    at,
                    format!("edge {i} ({s},{d}) out of range for {v} vertices"),
                ));
            }
            edges.push((s, d));
        }
        let weights = if flag[0] != 0 {
            let mut ws = Vec::with_capacity(m.min(1 << 20));
            for i in 0..m {
                let at = offset;
                take(&mut r, &mut offset, &mut u32buf, "edge weight")?;
                let w = f32::from_le_bytes(u32buf);
                if !w.is_finite() {
                    return Err(bad(at, format!("non-finite weight {w} on edge {i}")));
                }
                ws.push(w);
            }
            Some(ws)
        } else {
            None
        };
        Ok(EdgeList {
            num_vertices: v,
            edges,
            weights,
        })
    }

    /// Read the text format written by [`EdgeList::write_text`].
    ///
    /// Every failure is an `InvalidData` [`io::Error`] naming the 1-based
    /// line it was detected on: missing/garbled header, unparsable
    /// endpoints, a vertex count or endpoint that does not fit a `u32`
    /// (rejected, never wrapped), out-of-range endpoints, non-finite
    /// weights (`NaN`/`inf` are rejected — they silently poison distance
    /// algorithms), and a header/body edge-count mismatch.
    pub fn read_text<R: Read>(r: R) -> io::Result<EdgeList> {
        fn bad(line: usize, msg: String) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, format!("{msg} (line {line})"))
        }
        /// One token as a `T`; a number that does not fit `T` is rejected,
        /// never wrapped.
        fn parse<T: FromStr>(tok: Option<&str>, line: usize, what: &str) -> io::Result<T>
        where
            T::Err: Display,
        {
            let tok = tok.ok_or_else(|| bad(line, format!("missing {what}")))?;
            tok.parse()
                .map_err(|e| bad(line, format!("bad {what} {tok:?}: {e}")))
        }
        let r = io::BufReader::new(r);
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad(1, "empty input, expected \"V E\" header".to_owned()))??;
        let mut it = header.split_whitespace();
        let v: u32 = parse(it.next(), 1, "vertex count")?;
        let m: usize = parse(it.next(), 1, "edge count")?;
        // Grow incrementally: the header's edge count is untrusted input
        // and must not drive a huge up-front allocation.
        let mut edges = Vec::with_capacity(m.min(1 << 20));
        let mut weights: Vec<f32> = Vec::new();
        let mut any_weight = false;
        for (ln, line) in lines.enumerate() {
            let lineno = ln + 2; // 1-based, after the header
            let line = line?;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let s: u32 = parse(it.next(), lineno, "edge source")?;
            let d: u32 = parse(it.next(), lineno, "edge target")?;
            if s >= v || d >= v {
                return Err(bad(
                    lineno,
                    format!("edge ({s},{d}) out of range for {v} vertices"),
                ));
            }
            if let Some(wtok) = it.next() {
                let w: f32 = parse(Some(wtok), lineno, "weight")?;
                if !w.is_finite() {
                    return Err(bad(lineno, format!("non-finite weight {w}")));
                }
                if !any_weight {
                    weights.resize(edges.len(), 1.0);
                    any_weight = true;
                }
                weights.push(w);
            } else if any_weight {
                weights.push(1.0);
            }
            edges.push((s, d));
        }
        if edges.len() != m {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("header says {m} edges, found {}", edges.len()),
            ));
        }
        Ok(EdgeList {
            num_vertices: v,
            edges,
            weights: any_weight.then_some(weights),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 1]);
        assert_eq!(g.in_degrees(), vec![1, 1, 2, 1]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_validation() {
        EdgeList::from_edges(2, vec![(0, 2)]);
    }

    #[test]
    fn symmetrize_doubles_non_loops() {
        let g = EdgeList::from_edges(3, vec![(0, 1), (2, 2)]);
        let s = g.symmetrize();
        assert_eq!(s.num_edges(), 3); // (0,1), (2,2), (1,0)
        assert!(s.edges.contains(&(1, 0)));
    }

    #[test]
    fn symmetrize_mirrors_weights() {
        let g = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).with_weights(vec![5.0, 7.0]);
        let s = g.symmetrize();
        let w = s.weights.unwrap();
        assert_eq!(s.edges, vec![(0, 1), (1, 2), (1, 0), (2, 1)]);
        assert_eq!(w, vec![5.0, 7.0, 5.0, 7.0]);
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let g = EdgeList::from_edges(3, vec![(0, 1), (0, 1), (1, 1), (2, 0)]);
        let d = g.dedup();
        assert_eq!(d.edges, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_text(&mut buf).unwrap();
        let g2 = EdgeList::read_text(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_roundtrip_with_weights() {
        let g = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).with_weights(vec![1.5, 2.5]);
        let mut buf = Vec::new();
        g.write_text(&mut buf).unwrap();
        let g2 = EdgeList::read_text(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(EdgeList::read_text(&b""[..]).is_err());
        assert!(EdgeList::read_text(&b"2 1\n0 5\n"[..]).is_err());
        assert!(EdgeList::read_text(&b"2 2\n0 1\n"[..]).is_err());
    }

    #[test]
    fn text_errors_name_the_offending_line() {
        let err = EdgeList::read_text(&b"4 2\n0 1\n0 9\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");

        let err = EdgeList::read_text(&b"4 1\nx 1\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("edge source"), "{err}");

        let err = EdgeList::read_text(&b"nope\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn text_rejects_non_finite_weights() {
        for w in ["NaN", "inf", "-inf"] {
            let input = format!("3 1\n0 1 {w}\n");
            let err = EdgeList::read_text(input.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{w}");
            assert!(err.to_string().contains("non-finite"), "{w}: {err}");
        }
    }

    #[test]
    fn binary_rejects_non_finite_weights() {
        let g = EdgeList::from_edges(3, vec![(0, 1), (2, 0)]).with_weights(vec![0.5, 1.0]);
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        let wpos = buf.len() - 4; // last weight
        buf[wpos..].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = EdgeList::read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(err.to_string().contains("edge 1"), "{err}");
    }

    #[test]
    fn binary_errors_carry_byte_offsets() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();

        let err = EdgeList::read_binary(&buf[..buf.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("byte offset"), "{err}");

        let edge0 = 4 + 4 + 4 + 8 + 1;
        let mut bad = buf.clone();
        bad[edge0 + 4..edge0 + 8].copy_from_slice(&999u32.to_le_bytes());
        let err = EdgeList::read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("byte offset {edge0}")),
            "{err}"
        );

        let mut bad = buf.clone();
        bad[20] = 7; // weights flag must be 0 or 1
        let err = EdgeList::read_binary(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("weights flag"), "{err}");
    }

    #[test]
    fn binary_truncated_header_is_eof_not_allocation() {
        // A header promising u64::MAX edges with no payload must fail fast
        // with EOF rather than attempt a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GRED");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.push(0);
        let err = EdgeList::read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        assert_eq!(EdgeList::read_binary(&buf[..]).unwrap(), g);

        let gw = EdgeList::from_edges(3, vec![(0, 1), (2, 0)]).with_weights(vec![0.5, -3.25]);
        let mut buf = Vec::new();
        gw.write_binary(&mut buf).unwrap();
        assert_eq!(EdgeList::read_binary(&buf[..]).unwrap(), gw);
    }

    #[test]
    fn text_numbers_past_u32_are_rejected_not_wrapped() {
        // Each of these used to wrap to a small value: a 0-vertex graph,
        // and the edge (1, 1).
        for input in ["4294967296 0\n", "4 1\n4294967297 1\n"] {
            let err = EdgeList::read_text(input.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{input:?}");
            assert!(err.to_string().contains("4294967"), "{err}");
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        assert!(EdgeList::read_binary(&b"NOPE"[..]).is_err());
        let g = sample();
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        // Truncated payload.
        assert!(EdgeList::read_binary(&buf[..buf.len() - 3]).is_err());
        // Out-of-range endpoint: patch an edge's dst beyond |V|.
        let mut bad = buf.clone();
        let edge0_dst = 4 + 4 + 4 + 8 + 1 + 4;
        bad[edge0_dst..edge0_dst + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(EdgeList::read_binary(&bad[..]).is_err());
    }

    /// splitmix64: the harness's seeded case generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// One on-disk format: its writer and its reader.
    type Writer = fn(&EdgeList, &mut Vec<u8>) -> io::Result<()>;
    type Reader = fn(&[u8]) -> io::Result<EdgeList>;

    /// Real written lists, one encoding each: unweighted, weighted, and
    /// one with a self-loop, duplicates and an isolated vertex.
    fn corpus(write: Writer) -> Vec<Vec<u8>> {
        let rmat = crate::gen::rmat_g500(4, 40, 1);
        let lists = [
            rmat.clone(),
            crate::gen::with_random_weights(rmat, 9.0, 2),
            EdgeList::from_edges(6, vec![(0, 1), (0, 1), (5, 5), (4, 0)])
                .with_weights(vec![0.5, -2.25, 1e-3, 7.0]),
        ];
        lists
            .iter()
            .map(|el| {
                let mut buf = Vec::new();
                write(el, &mut buf).unwrap();
                buf
            })
            .collect()
    }

    /// The contract: a typed error, or a list whose endpoints are in range
    /// and whose weights align with the edges and are finite, and which
    /// lays out. A flipped high bit of a vertex count is a valid graph
    /// whose layout offsets alone take gigabytes, so the layout runs only
    /// up to 2^16 vertices.
    fn check(read: Reader, buf: &[u8]) {
        let Ok(el) = read(buf) else {
            return;
        };
        let n = el.num_vertices;
        assert!(el.edges.iter().all(|&(s, d)| s < n && d < n));
        if let Some(w) = &el.weights {
            assert_eq!(w.len(), el.edges.len());
            assert!(w.iter().all(|x| x.is_finite()));
        }
        if n <= 1 << 16 {
            let g = crate::csr::GraphLayout::build(&el);
            assert_eq!(g.num_edges(), el.edges.len() as u64);
        }
    }

    /// Seeded mutation fuzz: 10 000 cases of one mutation per format.
    fn fuzz(mutate: impl Fn(&mut Rng, &[Vec<u8>], usize) -> Vec<u8>) {
        let formats: [(Writer, Reader); 2] = [
            (|el, buf| el.write_text(buf), |buf| EdgeList::read_text(buf)),
            (
                |el, buf| el.write_binary(buf),
                |buf| EdgeList::read_binary(buf),
            ),
        ];
        let mut rng = Rng(0x5eed);
        for (write, read) in formats {
            let lists = corpus(write);
            for case in 0..10_000 {
                check(read, &mutate(&mut rng, &lists, case % lists.len()));
            }
        }
    }

    #[test]
    fn fuzz_bit_flips_never_panic() {
        fuzz(|rng, lists, i| {
            let mut buf = lists[i].clone();
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            buf
        });
    }

    #[test]
    fn fuzz_truncations_never_panic() {
        fuzz(|rng, lists, i| lists[i][..rng.below(lists[i].len())].to_vec());
    }

    #[test]
    fn fuzz_splices_never_panic() {
        // Replace a run of one list with a run of another (or itself).
        fuzz(|rng, lists, i| {
            let buf = &lists[i];
            let donor = &lists[rng.below(lists.len())];
            let at = rng.below(buf.len());
            let cut = at + rng.below(buf.len() - at + 1);
            let from = rng.below(donor.len());
            let to = from + rng.below(donor.len() - from + 1);
            [&buf[..at], &donor[from..to], &buf[cut..]].concat()
        });
    }
}
