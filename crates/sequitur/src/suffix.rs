//! Suffix array, LCP array, and longest-common-extension queries.
//!
//! The stream lookup-heuristic replay (paper Figure 6) repeatedly asks "how
//! far does the miss sequence starting at position *i* match the sequence
//! that followed an earlier occurrence at position *p*?". That is a
//! longest-common-extension (LCE) query. We answer it in O(B) time, B = 32,
//! after an O(n log n) preprocessing pass:
//!
//! * symbols rank-compressed to dense ids by one comparison sort,
//! * suffix array by prefix doubling, each round ordered by a stable
//!   counting sort,
//! * LCP array by Kasai's algorithm,
//! * range-minimum over LCP with a two-level (block + sparse-table) scheme
//!   whose memory stays linear in the trace length; a query scans at most
//!   two partial blocks of B entries plus two sparse-table lookups.

use std::fmt;

/// Precomputed index over a symbol trace answering longest-common-extension
/// queries in O(B) time, B = 32 (two partial-block scans).
///
/// # Example
///
/// ```
/// use tifs_sequitur::LceIndex;
///
/// let trace = [1u64, 2, 3, 9, 1, 2, 3, 7];
/// let idx = LceIndex::new(&trace);
/// assert_eq!(idx.lce(0, 4), 3); // "1 2 3" matches, then 9 != 7
/// assert_eq!(idx.lce(2, 6), 1); // "3" matches, then 9 != 7
/// assert_eq!(idx.lce(3, 3), trace.len() - 3); // identical suffixes
/// ```
pub struct LceIndex {
    /// Order-preserving dense id of each trace symbol, in `0..distinct`.
    ids: Vec<u32>,
    distinct: usize,
    /// rank[i] = position of suffix i in the suffix array.
    rank: Vec<u32>,
    /// Range-minimum structure over the LCP array.
    rmq: BlockRmq,
}

impl fmt::Debug for LceIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LceIndex").field("n", &self.len()).finish()
    }
}

impl LceIndex {
    /// Builds the index for `trace`. Cost: O(n log n) time, O(n) memory.
    pub fn new(trace: &[u64]) -> LceIndex {
        let (ids, distinct, order) = compress(trace);
        let sa = doubling(&ids, distinct, order);
        let mut rank = vec![0u32; sa.len()];
        for (k, &s) in sa.iter().enumerate() {
            rank[s as usize] = k as u32;
        }
        let lcp = kasai(&ids, &sa, &rank);
        let rmq = BlockRmq::new(&lcp);
        LceIndex {
            ids,
            distinct,
            rank,
            rmq,
        }
    }

    /// Length of the trace this index covers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the indexed trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense id of every trace symbol: `ids()[i] < distinct()`, equal
    /// symbols share an id, and ids keep the symbols' numeric order.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct symbols in the trace.
    pub(crate) fn distinct(&self) -> usize {
        self.distinct
    }

    /// Longest common extension: the length of the longest common prefix of
    /// the suffixes starting at `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn lce(&self, i: usize, j: usize) -> usize {
        let n = self.len();
        assert!(i <= n && j <= n, "lce out of bounds");
        if i == j {
            return n - i;
        }
        if i == n || j == n {
            return 0;
        }
        let (a, b) = {
            let (ra, rb) = (self.rank[i] as usize, self.rank[j] as usize);
            if ra < rb {
                (ra, rb)
            } else {
                (rb, ra)
            }
        };
        self.rmq.min(a + 1, b) as usize
    }
}

/// Suffix array by prefix doubling, O(n log n). Symbols are arbitrary `u64`
/// values; they are first rank-compressed by one comparison sort, and every
/// doubling round after that is a linear-time stable counting sort.
///
/// # Panics
///
/// Panics if the trace holds `u32::MAX` or more symbols.
pub fn suffix_array(trace: &[u64]) -> Vec<u32> {
    let (ids, distinct, order) = compress(trace);
    doubling(&ids, distinct, order)
}

/// Rank-compresses `trace`: returns each symbol's dense id, the number of
/// distinct symbols, and the positions sorted by symbol (ties in any order).
fn compress(trace: &[u64]) -> (Vec<u32>, usize, Vec<u32>) {
    let n = trace.len();
    assert!(n < u32::MAX as usize, "trace too long for u32 positions");
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| trace[i as usize]);
    let mut ids = vec![0u32; n];
    let mut distinct = 0u32;
    for w in 0..n {
        let i = order[w] as usize;
        if w > 0 && trace[i] != trace[order[w - 1] as usize] {
            distinct += 1;
        }
        ids[i] = distinct;
    }
    (ids, if n == 0 { 0 } else { distinct as usize + 1 }, order)
}

/// Prefix doubling over dense ids. `sa` enters sorted by first symbol; each
/// round re-sorts it by (rank of the first k symbols, rank of the next k)
/// and stops as soon as every rank is distinct.
fn doubling(ids: &[u32], distinct: usize, mut sa: Vec<u32>) -> Vec<u32> {
    let n = ids.len();
    let mut rank = ids.to_vec();
    let mut classes = distinct;
    let mut by_second = vec![0u32; n];
    let mut count = vec![0u32; n + 1];
    let mut next = vec![0u32; n];
    let mut k = 1usize;
    while classes < n {
        // Order by second key: suffixes with no second half (i + k >= n)
        // sort first; the rest follow the previous order shifted by k.
        // (Two suffixes still share a class, so both are at least k long
        // and k < n.)
        let mut w = 0;
        for i in n - k..n {
            by_second[w] = i as u32;
            w += 1;
        }
        for &s in &sa {
            if s as usize >= k {
                by_second[w] = s - k as u32;
                w += 1;
            }
        }
        // Stable counting sort by first key.
        count[..=classes].fill(0);
        for &r in &rank {
            count[r as usize + 1] += 1;
        }
        for c in 1..=classes {
            count[c] += count[c - 1];
        }
        for &s in &by_second {
            let slot = &mut count[rank[s as usize] as usize];
            sa[*slot as usize] = s;
            *slot += 1;
        }
        // Re-rank: a new class starts wherever either key changes. The
        // second key is shifted by one so that 0 means "no second half".
        let second = |i: usize| if i + k < n { rank[i + k] + 1 } else { 0 };
        next[sa[0] as usize] = 0;
        let mut c = 0u32;
        for w in 1..n {
            let (a, b) = (sa[w - 1] as usize, sa[w] as usize);
            if rank[a] != rank[b] || second(a) != second(b) {
                c += 1;
            }
            next[b] = c;
        }
        std::mem::swap(&mut rank, &mut next);
        classes = c as usize + 1;
        k <<= 1;
    }
    sa
}

/// Kasai's LCP construction: `lcp[k]` = LCP(sa[k-1], sa[k]), `lcp[0]` = 0.
fn kasai(trace: &[u32], sa: &[u32], rank: &[u32]) -> Vec<u32> {
    let n = trace.len();
    let mut lcp = vec![0u32; n];
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa[r - 1] as usize;
            while i + h < n && j + h < n && trace[i + h] == trace[j + h] {
                h += 1;
            }
            lcp[r] = h as u32;
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    lcp
}

/// Two-level range-minimum structure: per-block minima with a sparse table on
/// top, linear scan within blocks. O(n) memory, O(B) query with B = 32.
struct BlockRmq {
    data: Vec<u32>,
    block: usize,
    /// sparse[l][b] = min of blocks [b, b + 2^l).
    sparse: Vec<Vec<u32>>,
}

impl BlockRmq {
    fn new(data: &[u32]) -> BlockRmq {
        let block = 32usize;
        let nb = data.len().div_ceil(block);
        let mut level0 = vec![u32::MAX; nb.max(1)];
        for (i, &v) in data.iter().enumerate() {
            let b = i / block;
            if v < level0[b] {
                level0[b] = v;
            }
        }
        let mut sparse = vec![level0];
        let mut width = 1usize;
        while width * 2 <= nb {
            let prev = sparse.last().expect("at least one level");
            let mut next = Vec::with_capacity(nb - width * 2 + 1);
            for b in 0..=(nb - width * 2) {
                next.push(prev[b].min(prev[b + width]));
            }
            sparse.push(next);
            width *= 2;
        }
        BlockRmq {
            data: data.to_vec(),
            block,
            sparse,
        }
    }

    /// Minimum of `data[lo..=hi]`. Requires `lo <= hi < data.len()`.
    fn min(&self, lo: usize, hi: usize) -> u32 {
        debug_assert!(lo <= hi && hi < self.data.len());
        let b_lo = lo / self.block;
        let b_hi = hi / self.block;
        if b_lo == b_hi {
            return self.data[lo..=hi].iter().copied().min().expect("non-empty");
        }
        let mut best = u32::MAX;
        // Head partial block.
        let head_end = (b_lo + 1) * self.block - 1;
        best = best.min(
            self.data[lo..=head_end]
                .iter()
                .copied()
                .min()
                .expect("non-empty"),
        );
        // Tail partial block.
        let tail_start = b_hi * self.block;
        best = best.min(
            self.data[tail_start..=hi]
                .iter()
                .copied()
                .min()
                .expect("non-empty"),
        );
        // Whole blocks in between via sparse table.
        if b_lo < b_hi.wrapping_sub(1) && b_hi >= 1 {
            let (first, last) = (b_lo + 1, b_hi - 1);
            if first <= last {
                let span = last - first + 1;
                let level = usize::BITS as usize - 1 - span.leading_zeros() as usize;
                let w = 1usize << level;
                best = best.min(self.sparse[level][first]);
                best = best.min(self.sparse[level][last + 1 - w]);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(trace: &[u64]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..trace.len() as u32).collect();
        sa.sort_by(|&a, &b| trace[a as usize..].cmp(&trace[b as usize..]));
        sa
    }

    fn naive_lce(trace: &[u64], i: usize, j: usize) -> usize {
        let mut k = 0;
        while i + k < trace.len() && j + k < trace.len() && trace[i + k] == trace[j + k] {
            k += 1;
        }
        k
    }

    #[test]
    fn sa_matches_naive_small() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![5],
            vec![1, 1, 1, 1],
            vec![3, 1, 2, 3, 1, 2],
            vec![9, 8, 7, 6, 5],
            (0..40).map(|i| (i * 7 % 5) as u64).collect(),
        ];
        for t in cases {
            assert_eq!(suffix_array(&t), naive_sa(&t), "trace {t:?}");
        }
    }

    #[test]
    fn lce_matches_naive() {
        let trace: Vec<u64> = (0..200).map(|i| (i * 13 % 7) as u64).collect();
        let idx = LceIndex::new(&trace);
        for i in 0..trace.len() {
            for j in 0..trace.len() {
                assert_eq!(
                    idx.lce(i, j),
                    naive_lce(&trace, i, j),
                    "lce({i},{j}) on periodic trace"
                );
            }
        }
    }

    #[test]
    fn lce_empty_and_end() {
        let trace = [1u64, 2, 3];
        let idx = LceIndex::new(&trace);
        assert_eq!(idx.lce(3, 3), 0);
        assert_eq!(idx.lce(0, 3), 0);
        let empty = LceIndex::new(&[]);
        assert_eq!(empty.lce(0, 0), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn rmq_exhaustive_small() {
        let data: Vec<u32> = (0..300).map(|i| ((i * 31) % 97) as u32).collect();
        let rmq = BlockRmq::new(&data);
        for lo in 0..data.len() {
            for hi in lo..data.len() {
                let expect = data[lo..=hi].iter().copied().min().unwrap();
                assert_eq!(rmq.min(lo, hi), expect, "range [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn large_repetitive_trace() {
        // A trace with a long repeated stream; LCE across the two copies must
        // equal the stream length.
        let stream: Vec<u64> = (100..612).collect();
        let mut trace = stream.clone();
        trace.push(1);
        trace.extend_from_slice(&stream);
        trace.push(2);
        let idx = LceIndex::new(&trace);
        assert_eq!(idx.lce(0, stream.len() + 1), stream.len());
    }
}
