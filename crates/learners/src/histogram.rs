//! Per-bin statistic accumulation shared by the histogram split finders
//! of the classification tree ([`crate::tree`]) and the gradient
//! regression tree ([`crate::regtree`]).
//!
//! Both trees need the same machinery: for every candidate feature, sum
//! a pair of per-sample quantities into that feature's bins
//! (weight / weighted-positive for classification, gradient / hessian
//! for regression), then scan bin prefixes for the best split. The pair
//! is kept generic as `(a, b)` here; `n` counts samples so
//! `min_samples_leaf` can be enforced without a second pass.
//!
//! Node histograms are additive, which buys the classic subtraction
//! trick: `hist(parent) = hist(left) + hist(right)`, so after computing
//! the *smaller* child's histogram the sibling comes from an O(bins)
//! subtraction instead of an O(rows · features) re-accumulation.
//!
//! Parallelism here is reserved for large nodes (the root and the first
//! levels of a tree over many rows): only a node with at least
//! [`PAR_MIN_CELLS`] row-feature cells splits its features across the
//! pool. Every smaller node accumulates inline, where a pool hand-off
//! costs more than the sums. The workspace's wider parallel axes sit
//! above the tree: row-parallel rescoring and concurrent one-vs-rest
//! classes (`spe_core`).

use spe_data::BinIndex;

/// Fewest `rows × features` cells for which [`accumulate`] splits the
/// features of one node across the pool.
const PAR_MIN_CELLS: usize = 1 << 17;

/// One bin's accumulated statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct BinStat {
    /// First summed quantity (sample weight, or gradient).
    pub a: f64,
    /// Second summed quantity (weighted positives, or hessian).
    pub b: f64,
    /// Number of samples in the bin (bootstrap repeats count each time).
    pub n: u32,
}

/// Where each feature's bins live inside a flat histogram buffer.
pub(crate) struct HistLayout {
    /// `offsets[f]..offsets[f + 1]` is feature `f`'s slice; the final
    /// entry is the total buffer length.
    offsets: Vec<usize>,
}

impl HistLayout {
    pub fn new(bins: &BinIndex) -> Self {
        let d = bins.n_features();
        let mut offsets = Vec::with_capacity(d + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for f in 0..d {
            acc += bins.n_bins(f);
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Total buffer length covering every feature.
    #[inline]
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Slice range of feature `f` inside the flat buffer.
    #[inline]
    pub fn feature_range(&self, f: usize) -> std::ops::Range<usize> {
        self.offsets[f]..self.offsets[f + 1]
    }
}

/// Fills `out` (layout-sized, will be zeroed) with per-bin sums of
/// `(a[r], b[r])` over the given rows, for every feature.
///
/// A node of at least [`PAR_MIN_CELLS`] cells (`rows.len()` times the
/// feature count) processes its features in parallel on the shared
/// runtime; a smaller one runs them one after another on the calling
/// thread. Either way each feature's bins are summed sequentially in row
/// order, so the result is independent of the path and the thread count.
pub(crate) fn accumulate(
    bins: &BinIndex,
    rows: &[u32],
    a: &[f64],
    b: &[f64],
    layout: &HistLayout,
    out: &mut [BinStat],
) {
    debug_assert_eq!(out.len(), layout.total());
    out.fill(BinStat::default());
    if rows.len() * bins.n_features() < PAR_MIN_CELLS {
        for f in 0..bins.n_features() {
            accumulate_feature(bins, rows, a, b, f, &mut out[layout.feature_range(f)]);
        }
        return;
    }
    // Carve the flat buffer into disjoint per-feature slices so the
    // parallel fill needs no locks.
    let mut slices: Vec<&mut [BinStat]> = Vec::with_capacity(bins.n_features());
    let mut rest = out;
    for f in 0..bins.n_features() {
        let (head, tail) = rest.split_at_mut(layout.feature_range(f).len());
        slices.push(head);
        rest = tail;
    }
    spe_runtime::par_for_each_mut(&mut slices, |f, slice| {
        accumulate_feature(bins, rows, a, b, f, slice);
    });
}

/// Fills `out` (zeroed by the caller or here) with feature `f`'s per-bin
/// sums over the given rows. Used directly by the sampled-feature mode
/// (Random Forest), where no persistent full histogram exists.
pub(crate) fn accumulate_feature(
    bins: &BinIndex,
    rows: &[u32],
    a: &[f64],
    b: &[f64],
    f: usize,
    out: &mut [BinStat],
) {
    debug_assert_eq!(out.len(), bins.n_bins(f));
    let codes = bins.feature_codes(f);
    for &r in rows {
        let r = r as usize;
        let s = &mut out[codes[r] as usize];
        s.a += a[r];
        s.b += b[r];
        s.n += 1;
    }
}

/// In-place `parent -= child`, turning the parent histogram into the
/// sibling of `child`. Counts use saturating subtraction: they can only
/// disagree when float drift has already made the stats approximate.
pub(crate) fn subtract(parent: &mut [BinStat], child: &[BinStat]) {
    debug_assert_eq!(parent.len(), child.len());
    for (p, c) in parent.iter_mut().zip(child) {
        p.a -= c.a;
        p.b -= c.b;
        p.n = p.n.saturating_sub(c.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::Matrix;

    fn small_index() -> BinIndex {
        // 6 rows, 2 features; feature values chosen so bins are obvious.
        let x = Matrix::from_vec(
            6,
            2,
            vec![
                0.0, 5.0, //
                1.0, 5.0, //
                2.0, 6.0, //
                0.0, 6.0, //
                1.0, 5.0, //
                2.0, 6.0,
            ],
        );
        BinIndex::build(&x, 8)
    }

    #[test]
    fn layout_matches_bin_counts() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        assert_eq!(layout.total(), bins.total_bins());
        assert_eq!(layout.feature_range(0), 0..3);
        assert_eq!(layout.feature_range(1), 3..5);
    }

    #[test]
    fn accumulate_sums_per_bin() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        let rows: Vec<u32> = (0..6).collect();
        let a = [1.0; 6];
        let b = [0.0, 1.0, 0.0, 0.0, 1.0, 1.0];
        let mut out = vec![BinStat::default(); layout.total()];
        accumulate(&bins, &rows, &a, &b, &layout, &mut out);
        // Feature 0: values 0,1,2 -> bins 0,1,2 with two rows each.
        for bin in 0..3 {
            assert_eq!(out[bin].n, 2, "bin {bin}");
            assert_eq!(out[bin].a, 2.0);
        }
        assert_eq!(out[1].b, 2.0); // both value-1 rows are positive
                                   // Feature 1: value 5 (3 rows), value 6 (3 rows).
        assert_eq!(out[3].n, 3);
        assert_eq!(out[4].n, 3);
        assert_eq!(out[4].b, 1.0); // rows 2,3,5 have value 6; only row 5 is positive
                                   // Whole-node totals agree across features.
        let tot0: f64 = out[..3].iter().map(|s| s.a).sum();
        let tot1: f64 = out[3..].iter().map(|s| s.a).sum();
        assert_eq!(tot0, tot1);
    }

    #[test]
    fn inline_and_parallel_nodes_sum_identically() {
        // 4 features: the work floor falls at 32768 rows.
        let (n, d) = (PAR_MIN_CELLS / 4 + 64, 4);
        let mut rng = spe_data::SeededRng::new(17);
        let x = Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal(0.0, 1.0)).collect());
        let bins = BinIndex::build(&x, 64);
        let layout = HistLayout::new(&bins);
        let a: Vec<f64> = (0..n).map(|_| rng.uniform() * 3.0).collect();
        let b: Vec<f64> = a
            .iter()
            .map(|&w| w * f64::from(u8::from(rng.uniform() < 0.2)))
            .collect();
        // A bootstrap-like draw (repeats, no order), cut either side of the floor.
        let all: Vec<u32> = (0..n).map(|_| rng.below(n) as u32).collect();
        for len in [PAR_MIN_CELLS / d - 1, PAR_MIN_CELLS / d, n] {
            let rows = &all[..len];
            assert_eq!(rows.len() * d >= PAR_MIN_CELLS, len >= PAR_MIN_CELLS / d);
            let mut want = vec![BinStat::default(); layout.total()];
            for f in 0..d {
                accumulate_feature(&bins, rows, &a, &b, f, &mut want[layout.feature_range(f)]);
            }
            for threads in [1, 2, 4] {
                let mut got = vec![BinStat::default(); layout.total()];
                spe_runtime::Runtime::with_threads(threads)
                    .install(|| accumulate(&bins, rows, &a, &b, &layout, &mut got));
                // Bit-for-bit, not approximately: same sums in the same order.
                let bits = |h: &[BinStat]| -> Vec<(u64, u64, u32)> {
                    h.iter()
                        .map(|s| (s.a.to_bits(), s.b.to_bits(), s.n))
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "{len} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn bootstrap_repeats_count_each_occurrence() {
        let bins = small_index();
        let mut out = vec![BinStat::default(); bins.n_bins(0)];
        accumulate_feature(&bins, &[0, 0, 0], &[2.0; 6], &[1.0; 6], 0, &mut out);
        assert_eq!(out[0].n, 3);
        assert_eq!(out[0].a, 6.0);
    }

    #[test]
    fn subtraction_reconstructs_sibling() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.5; 6];
        let all: Vec<u32> = (0..6).collect();
        let (left, right) = ([0u32, 2, 4], [1u32, 3, 5]);
        let mut parent = vec![BinStat::default(); layout.total()];
        let mut lh = vec![BinStat::default(); layout.total()];
        let mut rh = vec![BinStat::default(); layout.total()];
        accumulate(&bins, &all, &a, &b, &layout, &mut parent);
        accumulate(&bins, &left, &a, &b, &layout, &mut lh);
        accumulate(&bins, &right, &a, &b, &layout, &mut rh);
        subtract(&mut parent, &lh);
        for (got, want) in parent.iter().zip(&rh) {
            assert_eq!(got.n, want.n);
            assert!((got.a - want.a).abs() < 1e-12);
            assert!((got.b - want.b).abs() < 1e-12);
        }
    }
}
