//! Frontier sets: which vertices are active in an iteration.
//!
//! The frontier drives the paper's dynamic frontier management (Section
//! 5.2): shards whose interval holds no active vertex (and receives no
//! activation) are neither copied to the device nor launched. The bitmap
//! has two levels so a sparse iteration costs what its frontier touches:
//! the dense words keep activation (one-hop neighborhood marking)
//! branch-light, and one summary bit per word lets clears, range counts
//! and walks skip all-zero words, 64 of them per summary word.

/// A fixed-size dense bitmap over vertex ids with an exact popcount cache
/// and a word summary.
///
/// Summary bit `j` is set iff word `j` is non-zero. It is written only
/// when a word turns from zero to non-zero or back, so a `set` into a
/// non-empty word costs what it did without the summary. Clearing,
/// range counts, range walks, `next_set_from` and `or_assign` follow the
/// summary and touch only non-zero words: O(n / 4096 + touched words)
/// instead of O(n / 64). The summary adds one `u64` per 64 words, and
/// it is a function of the words, so equality is equality of bits.
///
/// ```
/// use gr_graph::Bitmap;
///
/// let mut frontier = Bitmap::new(1000);
/// frontier.set(3);
/// frontier.set(997);
/// assert_eq!(frontier.count(), 2);
/// assert!(frontier.any_in_range(0, 10));
/// assert_eq!(frontier.count_range(500, 1000), 1);
/// assert_eq!(frontier.iter_set().collect::<Vec<_>>(), vec![3, 997]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    /// Bit `j` is set iff `words[j] != 0`.
    summary: Vec<u64>,
    len: u32,
    count: u64,
}

/// The summary of `words`: bit `j` set iff `words[j]` is non-zero.
fn summarize(words: &[u64]) -> Vec<u64> {
    let mut summary = vec![0u64; words.len().div_ceil(64)];
    for (j, &w) in words.iter().enumerate() {
        if w != 0 {
            summary[j / 64] |= 1u64 << (j % 64);
        }
    }
    summary
}

impl Bitmap {
    /// All-zeros bitmap over `len` bits.
    pub fn new(len: u32) -> Self {
        let words = (len as usize).div_ceil(64);
        Bitmap {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// All-ones bitmap over `len` bits.
    pub fn full(len: u32) -> Self {
        let mut words = vec![!0u64; (len as usize).div_ceil(64)];
        // Clear the tail past `len`.
        let tail = (len % 64) as u64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Bitmap {
            summary: summarize(&words),
            words,
            len,
            count: len as u64,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`; returns whether it was newly set.
    ///
    /// The counter and summary updates branch instead of adding
    /// `u64::from(newly)`: rustc 1.95.0 miscompiles the bool-to-int add in
    /// release builds when the returned flag also feeds a caller-side
    /// branch (the increment is dropped entirely). `docs/RUSTC_MISCOMPILE.md`
    /// has a reproducer, the flags that trigger it, and why the summary
    /// write hides it here today. The summary bit is written only when the
    /// word was zero, so dense marking pays one predictable branch and no
    /// extra store.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let wi = (i / 64) as usize;
        let w = &mut self.words[wi];
        let old = *w;
        let mask = 1u64 << (i % 64);
        let newly = old & mask == 0;
        *w = old | mask;
        if newly {
            self.count += 1;
            if old == 0 {
                self.summary[wi / 64] |= 1u64 << (wi % 64);
            }
        }
        newly
    }

    /// Set bit `i` for every `i` of `ids`; returns how many were newly set.
    ///
    /// Marks a whole adjacency row without a data-dependent branch: each
    /// bit and its summary bit are OR-ed in unconditionally, and the
    /// newly-set count is the bit shifted down from the word read before
    /// the write, an integer add rather than [`set`](Self::set)'s
    /// bool-to-int (see `docs/RUSTC_MISCOMPILE.md`). The count is kept
    /// in a local and stored once. Folds `ids`, so a row iterator that
    /// overrides [`Iterator::fold`] keeps its monomorphic loop.
    #[inline]
    pub fn set_each(&mut self, ids: impl Iterator<Item = u32>) -> u64 {
        let len = self.len;
        let (words, summary) = (&mut self.words, &mut self.summary);
        let added = ids.fold(0u64, |added, i| {
            debug_assert!(i < len);
            let wi = (i / 64) as usize;
            let old = words[wi];
            words[wi] = old | 1u64 << (i % 64);
            summary[wi / 64] |= 1u64 << (wi % 64);
            added + (!old >> (i % 64) & 1)
        });
        self.count += added;
        added
    }

    /// Clear bit `i`; returns whether it was previously set.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let wi = (i / 64) as usize;
        let w = &mut self.words[wi];
        let mask = 1u64 << (i % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        if was {
            self.count -= 1;
            if *w == 0 {
                self.summary[wi / 64] &= !(1u64 << (wi % 64));
            }
        }
        was
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits (O(1)).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The backing 64-bit words, low bit = low vertex id (serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstruct a bitmap from serialized words, rebuilding the count
    /// and the summary. Returns `None` when the word count does not match
    /// `len` or a tail bit past `len` is set — both indicate corrupted
    /// input, never a valid bitmap.
    pub fn from_words(len: u32, words: Vec<u64>) -> Option<Self> {
        if words.len() != (len as usize).div_ceil(64) {
            return None;
        }
        let tail = (len % 64) as u64;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return None;
                }
            }
        }
        let count = words.iter().map(|w| w.count_ones() as u64).sum();
        Some(Bitmap {
            summary: summarize(&words),
            words,
            len,
            count,
        })
    }

    /// Clear all bits, zeroing only the non-zero words the summary names.
    pub fn clear_all(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut bits = *s;
            while bits != 0 {
                self.words[si * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
            *s = 0;
        }
        self.count = 0;
    }

    /// Bitwise OR-assign from another bitmap of the same length, visiting
    /// only `other`'s non-zero words.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for j in other.nonzero_words(0, other.words.len()) {
            let (a, b) = (self.words[j], other.words[j]);
            let added = b & !a;
            if added != 0 {
                self.words[j] = a | b;
                self.count += added.count_ones() as u64;
            }
        }
        for (s, &o) in self.summary.iter_mut().zip(&other.summary) {
            *s |= o;
        }
    }

    /// Indices of the non-zero words in `[wl, wh)`, ascending, read from
    /// the summary.
    fn nonzero_words(&self, wl: usize, wh: usize) -> impl Iterator<Item = usize> + '_ {
        let mut si = wl / 64;
        let end = wh.div_ceil(64);
        let mut cur = if wl < wh {
            self.summary[si] & (!0u64 << (wl % 64))
        } else {
            0
        };
        std::iter::from_fn(move || loop {
            if cur != 0 {
                let j = si * 64 + cur.trailing_zeros() as usize;
                if j >= wh {
                    return None;
                }
                cur &= cur - 1;
                return Some(j);
            }
            si += 1;
            if si >= end {
                return None;
            }
            cur = self.summary[si];
        })
    }

    /// The non-zero words overlapping `[lo, hi)` (which must be
    /// non-empty), each masked to the range.
    fn masked_words(&self, lo: u32, hi: u32) -> impl Iterator<Item = u64> + '_ {
        let (wl, wh) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
        let (mask_lo, mask_hi) = (!0u64 << (lo % 64), !0u64 >> (63 - (hi - 1) % 64));
        self.nonzero_words(wl, wh + 1).map(move |j| {
            let mut w = self.words[j];
            if j == wl {
                w &= mask_lo;
            }
            if j == wh {
                w &= mask_hi;
            }
            w
        })
    }

    /// Count set bits within `[lo, hi)`.
    pub fn count_range(&self, lo: u32, hi: u32) -> u64 {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo == 0 && hi == self.len {
            return self.count;
        }
        if lo == hi {
            return 0;
        }
        self.masked_words(lo, hi)
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// Whether any bit in `[lo, hi)` is set (early-exit).
    pub fn any_in_range(&self, lo: u32, hi: u32) -> bool {
        debug_assert!(lo <= hi && hi <= self.len);
        lo < hi && self.masked_words(lo, hi).any(|w| w != 0)
    }

    /// Iterate over set bit indices in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter_set_range(0, self.len)
    }

    /// Index of the first set bit at or after `i`, skipping zero words
    /// through the summary.
    pub fn next_set_from(&self, i: u32) -> Option<u32> {
        if i >= self.len {
            return None;
        }
        self.iter_set_range(i, self.len).next()
    }

    /// Iterate set bits within `[lo, hi)` in ascending order, visiting only
    /// non-zero words — the sparse-mode kernel walk: cost is
    /// O(range / 4096 + non-zero words + set bits), so a mostly empty
    /// interval costs what its set bits touch.
    pub fn iter_set_range(&self, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        debug_assert!(lo <= hi && hi <= self.len);
        let wl = (lo / 64) as usize;
        // One-past-the-last word the range touches (== wl for empty ranges).
        let wh = if lo < hi {
            (hi as usize).div_ceil(64)
        } else {
            wl
        };
        let mut words = self.nonzero_words(wl, wh);
        let (mut wi, mut cur) = (0usize, 0u64);
        std::iter::from_fn(move || loop {
            if cur != 0 {
                let b = wi as u32 * 64 + cur.trailing_zeros();
                if b >= hi {
                    return None;
                }
                cur &= cur - 1;
                return Some(b);
            }
            wi = words.next()?;
            cur = self.words[wi];
            if wi == wl {
                cur &= !0u64 << (lo % 64);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_count() {
        let mut b = Bitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64)); // already set
        assert_eq!(b.count(), 3);
        assert!(b.get(129) && b.get(0) && b.get(64));
        assert!(!b.get(1));
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn full_has_exact_count_and_clean_tail() {
        let b = Bitmap::full(70);
        assert_eq!(b.count(), 70);
        assert_eq!(b.iter_set().count(), 70);
        assert_eq!(b.iter_set().last(), Some(69));
        let b64 = Bitmap::full(64);
        assert_eq!(b64.count(), 64);
    }

    #[test]
    fn count_range_cases() {
        let mut b = Bitmap::new(200);
        for i in [0u32, 5, 63, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        assert_eq!(b.count_range(0, 200), 8);
        assert_eq!(b.count_range(0, 64), 3);
        assert_eq!(b.count_range(64, 128), 3);
        assert_eq!(b.count_range(5, 6), 1);
        assert_eq!(b.count_range(6, 63), 0);
        assert_eq!(b.count_range(65, 65), 0);
        assert_eq!(b.count_range(128, 200), 2);
        assert_eq!(b.count_range(1, 199), 6);
    }

    #[test]
    fn any_in_range_matches_count_range() {
        let mut b = Bitmap::new(300);
        for i in [17u32, 64, 255] {
            b.set(i);
        }
        for lo in (0..300).step_by(13) {
            for hi in (lo..300).step_by(29) {
                assert_eq!(
                    b.any_in_range(lo, hi),
                    b.count_range(lo, hi) > 0,
                    "range {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn or_assign_unions() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        a.or_assign(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![1, 50, 99]);
    }

    #[test]
    fn iter_set_ascending() {
        let mut b = Bitmap::new(500);
        let bits = [3u32, 64, 65, 129, 400, 499];
        for &i in &bits {
            b.set(i);
        }
        assert_eq!(b.iter_set().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn clear_all_resets() {
        let mut b = Bitmap::full(77);
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_set().count(), 0);
    }

    /// Regression guard for the rustc 1.95.0 release-mode miscompile of
    /// `count += u64::from(flag)` when `flag` also reaches a branch: keep
    /// the exact trigger shape (`assert!(set(..))`). It pins the guarded
    /// `set`; see `docs/RUSTC_MISCOMPILE.md` for what it cannot catch.
    #[test]
    fn count_survives_release_opt() {
        let mut b = Bitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64));
        assert_eq!(b.count(), 3);
        assert!(b.clear(129));
        assert!(!b.clear(129));
        assert_eq!(b.count(), 2);
    }

    /// The same release-mode guard for the summary write: a `set` that
    /// turns a zero word non-zero (and a `clear` that turns it back) must
    /// reach the summary, or every summary-driven walk misses the bit.
    #[test]
    fn summary_survives_release_opt() {
        let mut b = Bitmap::new(64 * 64 * 3 + 1);
        assert!(b.set(64 * 65 + 7));
        assert!(b.set(64 * 64 * 3));
        assert!(!b.set(64 * 65 + 7));
        assert!(b.any_in_range(64 * 65, 64 * 66));
        assert_eq!(b.count_range(1, 64 * 64 * 3), 1);
        assert_eq!(b.next_set_from(0), Some(64 * 65 + 7));
        assert_eq!(
            b.iter_set().collect::<Vec<_>>(),
            vec![64 * 65 + 7, 64 * 64 * 3]
        );
        assert!(b.clear(64 * 65 + 7));
        assert!(!b.any_in_range(0, 64 * 64 * 3));
        assert_eq!(b.next_set_from(0), Some(64 * 64 * 3));
        b.clear_all();
        assert!(b.set(64 * 65));
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![64 * 65]);
    }

    /// `set_each` against a rebuild of its own words (which recounts and
    /// re-summarizes them), under release codegen in CI: re-marked and
    /// repeated ids add nothing, a word that turns non-zero reaches the
    /// summary, and a row may cross a 4 096-bit summary word.
    #[test]
    fn set_each_keeps_count_and_summary_exact() {
        let n = 64 * 64 * 2 + 100;
        let mut b = Bitmap::new(n);
        assert!(b.set(5));
        let row = [
            5,
            6,
            6,
            64 * 64 - 1,
            64 * 64,
            64 * 64 + 1,
            64 * 65 + 3,
            n - 1,
        ];
        assert_eq!(b.set_each(row.into_iter()), 6);
        assert_eq!(b, Bitmap::from_words(n, b.words().to_vec()).unwrap());
        assert_eq!(b.count(), 7);
        assert_eq!(b.count_range(64 * 64, n), 4);
        assert_eq!(b.set_each(row.into_iter()), 0);
        assert_eq!(b.count(), 7);
        // Row by row, it matches marking bit by bit.
        let mut one_by_one = b.clone();
        let mut s = 7u64;
        for len in [0usize, 1, 9, 64, 300] {
            let ids: Vec<u32> = (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 33) as u32 % n
                })
                .collect();
            let mut newly = 0;
            for &i in &ids {
                if one_by_one.set(i) {
                    newly += 1;
                }
            }
            assert_eq!(b.set_each(ids.iter().copied()), newly, "row of {len}");
            assert_eq!(b, one_by_one, "row of {len}");
        }
        assert_eq!(b, Bitmap::from_words(n, b.words().to_vec()).unwrap());
        assert_eq!(b.iter_set().count() as u64, b.count());
    }

    #[test]
    fn sparse_clear_all_leaves_no_stale_summary() {
        let mut b = Bitmap::new(100_000);
        for i in [5u32, 4_100, 70_000, 99_999] {
            b.set(i);
        }
        b.clear_all();
        assert_eq!(b, Bitmap::new(100_000));
        b.set(4_101);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![4_101]);
        assert_eq!(b.count_range(0, 99_999), 1);
    }

    #[test]
    fn next_set_from_skips_zero_words() {
        let mut b = Bitmap::new(1000);
        for i in [3u32, 64, 700, 999] {
            b.set(i);
        }
        assert_eq!(b.next_set_from(0), Some(3));
        assert_eq!(b.next_set_from(3), Some(3));
        assert_eq!(b.next_set_from(4), Some(64));
        assert_eq!(b.next_set_from(65), Some(700));
        assert_eq!(b.next_set_from(700), Some(700));
        assert_eq!(b.next_set_from(701), Some(999));
        assert_eq!(b.next_set_from(1000), None);
        let empty = Bitmap::new(256);
        assert_eq!(empty.next_set_from(0), None);
    }

    #[test]
    fn iter_set_range_matches_filtered_iter_set() {
        let mut b = Bitmap::new(500);
        for i in [0u32, 1, 63, 64, 65, 127, 200, 255, 256, 440, 499] {
            b.set(i);
        }
        for lo in (0..=500).step_by(37) {
            for hi in (lo..=500).step_by(41) {
                let got: Vec<u32> = b.iter_set_range(lo, hi).collect();
                let want: Vec<u32> = b.iter_set().filter(|&v| v >= lo && v < hi).collect();
                assert_eq!(got, want, "range {lo}..{hi}");
            }
        }
        // Degenerate and word-aligned edges.
        assert_eq!(b.iter_set_range(64, 64).count(), 0);
        assert_eq!(
            b.iter_set_range(64, 128).collect::<Vec<_>>(),
            vec![64, 65, 127]
        );
        assert_eq!(b.iter_set_range(0, 500).count() as u64, b.count());
    }

    #[test]
    fn iter_set_range_on_full_bitmap() {
        let b = Bitmap::full(130);
        assert_eq!(
            b.iter_set_range(100, 130).collect::<Vec<_>>(),
            (100..130).collect::<Vec<_>>()
        );
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let mut b = Bitmap::new(130);
        for i in [0u32, 64, 129] {
            b.set(i);
        }
        let rebuilt = Bitmap::from_words(130, b.words().to_vec()).unwrap();
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.count(), 3);
        // Wrong word count and dirty tail bits are both rejected.
        assert!(Bitmap::from_words(130, vec![0; 2]).is_none());
        assert!(Bitmap::from_words(130, vec![0, 0, 1 << 2]).is_none());
        // Word-aligned lengths have no tail to validate.
        assert!(Bitmap::from_words(128, vec![!0, !0]).is_some());
        assert!(Bitmap::from_words(0, vec![]).is_some());
    }

    #[test]
    fn zero_length_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_set().count(), 0);
    }
}
