//! Classification decision tree (CART) with weighted samples.
//!
//! Serves as the paper's "DT / C4.5" base classifier (entropy criterion
//! approximates C4.5's information gain on numeric features) and as the
//! building block for AdaBoost, Bagging, Random Forest and every
//! under/over-sampling ensemble baseline.
//!
//! Two split-finding engines share one [`TreeModel`] representation:
//!
//! - **Exact** ([`SplitMethod::Exact`]): per node, each candidate
//!   feature is sorted once and scanned with weighted prefix sums —
//!   O(n·d·log n) per level, every distinct value a candidate.
//! - **Histogram** ([`SplitMethod::Histogram`]): features are quantized
//!   once into ≤256 bins ([`BinIndex`]), then each node accumulates
//!   per-bin (weight, weighted-positive) stats in O(n·d) and scans bin
//!   boundaries. Sibling histograms come from parent−child subtraction,
//!   and ensembles can share one index across all members via
//!   [`BinnedLearner`].
//!
//! The trained tree is a flat arena of 24-byte nodes (leaf flag folded
//! into the feature id, threshold and leaf probability sharing one
//! slot), so `predict_proba` walks a contiguous `Vec` with no pointer
//! chasing.

use crate::histogram::{self, BinStat, HistLayout};
use crate::persist::ModelSnapshot;
use crate::traits::{
    check_fit_inputs, effective_weights, BinRequest, BinnedLearner, BinnedProblem, ConstantModel,
    FeatureBound, Learner, Model,
};
use crate::tree_util::{midpoint, partition};
use spe_data::{BinIndex, Matrix, MatrixView, SeededRng};
use std::cell::Cell;

/// Split quality criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity `2p(1-p)` (CART default).
    Gini,
    /// Shannon entropy (information gain, ≈ C4.5 on numeric features).
    Entropy,
}

impl SplitCriterion {
    /// Impurity of a node with weighted positive fraction `p`.
    #[inline]
    pub fn impurity(self, p: f64) -> f64 {
        match self {
            SplitCriterion::Gini => 2.0 * p * (1.0 - p),
            SplitCriterion::Entropy => {
                let q = 1.0 - p;
                let mut h = 0.0;
                if p > 0.0 {
                    h -= p * p.log2();
                }
                if q > 0.0 {
                    h -= q * q.log2();
                }
                h
            }
        }
    }
}

/// Which split-finding engine a tree uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitMethod {
    /// Sort-and-scan over raw feature values at every node.
    Exact,
    /// Pre-binned histogram split finding (≤ `max_bins` thresholds per
    /// feature), regardless of training-set size.
    Histogram,
    /// Exact below `threshold` training rows, histogram at or above —
    /// small fits keep every candidate threshold, large fits get the
    /// O(n·d)-per-level path.
    Auto {
        /// Row count at which the histogram engine takes over.
        threshold: usize,
    },
}

impl SplitMethod {
    /// Default crossover for [`SplitMethod::Auto`]: below this the exact
    /// engine's extra candidate resolution is cheap enough to keep.
    pub const DEFAULT_AUTO_THRESHOLD: usize = 8192;

    /// True when a fit on `n` rows should take the histogram path.
    #[inline]
    pub fn use_histogram(self, n: usize) -> bool {
        match self {
            SplitMethod::Exact => false,
            SplitMethod::Histogram => true,
            SplitMethod::Auto { threshold } => n >= threshold,
        }
    }
}

impl Default for SplitMethod {
    fn default() -> Self {
        SplitMethod::Auto {
            threshold: Self::DEFAULT_AUTO_THRESHOLD,
        }
    }
}

/// Decision-tree hyper-parameters. Paper settings: `max_depth = 10` for
/// the standalone DT (Table II); depth-1 stumps inside AdaBoost.
#[derive(Clone, Debug)]
pub struct DecisionTreeConfig {
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples on each side of a split.
    pub min_samples_leaf: usize,
    /// Features sampled per node (None = all; Random Forest sets √d).
    pub max_features: Option<usize>,
    /// Minimum weighted impurity decrease to accept a split.
    pub min_impurity_decrease: f64,
    /// Split-finding engine (default: histogram for large fits).
    pub split_method: SplitMethod,
    /// Bin budget per feature for the histogram engine (≤ 256).
    pub max_bins: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            criterion: SplitCriterion::Gini,
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            min_impurity_decrease: 0.0,
            split_method: SplitMethod::default(),
            max_bins: spe_data::binning::MAX_BINS,
        }
    }
}

impl DecisionTreeConfig {
    /// Default config with the given depth cap.
    pub fn with_depth(max_depth: usize) -> Self {
        Self {
            max_depth,
            ..Self::default()
        }
    }

    /// Entropy-criterion config (the paper's C4.5 stand-in).
    pub fn c45(max_depth: usize) -> Self {
        Self {
            criterion: SplitCriterion::Entropy,
            max_depth,
            ..Self::default()
        }
    }

    /// A depth-1 decision stump (AdaBoost's default weak learner).
    pub fn stump() -> Self {
        Self::with_depth(1)
    }
}

/// Sentinel feature id marking a leaf node.
const LEAF: u32 = u32::MAX;

/// One arena node: 24 bytes, no enum discriminant. `feature == LEAF`
/// marks a leaf, in which case `value` is the positive-class probability
/// and the child indices are unused; otherwise `value` is the split
/// threshold (`<=` goes left).
#[derive(Clone, Copy, Debug)]
struct FlatNode {
    feature: u32,
    left: u32,
    right: u32,
    value: f64,
}

serde::impl_serde!(FlatNode {
    feature,
    left,
    right,
    value
});

impl FlatNode {
    #[inline]
    fn leaf(proba: f64) -> Self {
        Self {
            feature: LEAF,
            left: 0,
            right: 0,
            value: proba,
        }
    }
}

/// A trained decision tree (flat node arena; root at index 0).
#[derive(Clone)]
pub struct TreeModel {
    nodes: Vec<FlatNode>,
}

impl serde::Serialize for TreeModel {
    fn serialize(&self, w: &mut serde::Writer) {
        serde::Serialize::serialize(&self.nodes, w);
    }
}

impl serde::Deserialize for TreeModel {
    /// Decodes and structurally validates the arena: both builders push
    /// a split node before its children, so `left`/`right` must point
    /// strictly forward. Enforcing that on decode means a decoded tree
    /// can never loop or index outside the arena during prediction.
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::DecodeError> {
        let nodes = <Vec<FlatNode> as serde::Deserialize>::deserialize(r)?;
        validate_arena(&nodes).map_err(serde::DecodeError::Invalid)?;
        Ok(Self { nodes })
    }
}

/// Checks the parent-before-child invariant of a flat tree arena: the
/// builders push a split node before its subtrees, so child indices
/// point strictly forward. [`crate::regtree::RegTree`] performs the same
/// check on its own (structurally identical) node type.
fn validate_arena(nodes: &[FlatNode]) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("empty tree arena".into());
    }
    let n = nodes.len() as u32;
    for (i, node) in nodes.iter().enumerate() {
        if node.feature == LEAF {
            continue;
        }
        let i = i as u32;
        if node.left <= i || node.right <= i || node.left >= n || node.right >= n {
            return Err(format!(
                "tree node {i} has out-of-order children ({}, {})",
                node.left, node.right
            ));
        }
    }
    Ok(())
}

/// Read-only view of one flat-arena tree node, for consumers that
/// re-compile trees into other layouts (the serving-side quantized
/// kernel) without exposing the private arena representation.
///
/// Indices come from [`TreeModel::node`] / `RegTree::node`; the root is
/// node 0 and children always point strictly forward in the arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeView {
    /// A terminal node carrying the prediction (probability for
    /// classification trees, leaf weight for regression trees).
    Leaf {
        /// Predicted value.
        value: f64,
    },
    /// An internal split: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold (`<=` goes left, `NaN` goes right).
        threshold: f64,
        /// Arena index of the left child (`> self`).
        left: usize,
        /// Arena index of the right child (`> self`).
        right: usize,
    },
}

impl TreeModel {
    /// Probability of the positive class for one sample.
    #[inline]
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let n = self.nodes[i];
            if n.feature == LEAF {
                return n.value;
            }
            i = if row[n.feature as usize] <= n.value {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Number of nodes (diagnostic).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached (diagnostic).
    pub fn depth(&self) -> usize {
        fn go(nodes: &[FlatNode], i: usize) -> usize {
            let n = nodes[i];
            if n.feature == LEAF {
                0
            } else {
                1 + go(nodes, n.left as usize).max(go(nodes, n.right as usize))
            }
        }
        go(&self.nodes, 0)
    }

    /// Read-only view of arena node `i` (root at 0).
    ///
    /// # Panics
    /// Panics if `i >= self.n_nodes()`.
    pub fn node(&self, i: usize) -> NodeView {
        let n = self.nodes[i];
        if n.feature == LEAF {
            NodeView::Leaf { value: n.value }
        } else {
            NodeView::Split {
                feature: n.feature as usize,
                threshold: n.value,
                left: n.left as usize,
                right: n.right as usize,
            }
        }
    }
}

impl Model for TreeModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        x.iter_rows().map(|r| self.predict_one(r)).collect()
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output buffer must match row count");
        for (o, r) in out.iter_mut().zip(x.iter_rows()) {
            *o = self.predict_one(r);
        }
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Tree(self.clone()))
    }

    fn feature_bound(&self) -> FeatureBound {
        FeatureBound::AtLeast(
            self.nodes
                .iter()
                .filter(|n| n.feature != LEAF)
                .map(|n| n.feature as usize + 1)
                .max()
                .unwrap_or(0),
        )
    }
}

/// Reusable per-fit working memory, kept in a thread-local so repeated
/// `fit` calls on one thread (ensemble members, boosting rounds) stop
/// re-allocating their sort buffers, index vectors and histogram pool.
#[derive(Default)]
pub(crate) struct TreeScratch {
    /// Exact path: (value, weight-like, second weight-like) sort buffer.
    pub sorted: Vec<(f64, f64, f64)>,
    /// Exact path: sample-index buffer partitioned in place.
    pub idx: Vec<usize>,
    /// Histogram path: row-index buffer partitioned in place.
    pub rows: Vec<u32>,
    /// Histogram path: recycled full-layout histogram buffers.
    pub hist_pool: Vec<Vec<BinStat>>,
    /// Histogram path: per-row first accumulated quantity.
    pub wa: Vec<f64>,
    /// Histogram path: per-row second accumulated quantity.
    pub wb: Vec<f64>,
}

thread_local! {
    static SCRATCH: Cell<TreeScratch> = Cell::new(TreeScratch::default());
}

/// Frees this thread's reusable tree-fit buffers; the next fit on the
/// thread starts from empty ones. Called when a batch of fits that may
/// have run on a pool worker ends (one class of a one-vs-rest SPE), so
/// buffers sized for that batch do not stay resident on an idle worker.
pub fn release_scratch() {
    SCRATCH.with(|cell| drop(cell.take()));
}

/// Runs `f` with this thread's [`TreeScratch`], restoring it (with any
/// grown capacity) afterwards. A panic inside `f` loses the buffers —
/// the next fit simply starts from empty ones.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TreeScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.take();
        let r = f(&mut s);
        cell.set(s);
        r
    })
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [u8],
    w: &'a [f64],
    cfg: &'a DecisionTreeConfig,
    rng: SeededRng,
    nodes: Vec<FlatNode>,
    /// Scratch: (value, weight, weighted positive indicator) sorted per feature.
    scratch: &'a mut Vec<(f64, f64, f64)>,
}

impl<'a> Builder<'a> {
    fn leaf(&mut self, w_pos: f64, w_total: f64) -> u32 {
        let proba = if w_total > 0.0 { w_pos / w_total } else { 0.5 };
        self.nodes.push(FlatNode::leaf(proba));
        (self.nodes.len() - 1) as u32
    }

    /// Builds the subtree over `idx` at the given depth, returning its
    /// node index.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> u32 {
        let (w_pos, w_total) = self.node_weights(idx);
        let p = if w_total > 0.0 { w_pos / w_total } else { 0.0 };
        let node_impurity = self.cfg.criterion.impurity(p);

        // The budget check makes deep builds interruptible: once the
        // installed wall-clock deadline passes, every pending subtree
        // terminates as a (valid) leaf instead of splitting further.
        let stop = depth >= self.cfg.max_depth
            || idx.len() < self.cfg.min_samples_split
            || node_impurity == 0.0
            || w_total <= 0.0
            || (depth > 0 && spe_runtime::budget_exceeded());
        if stop {
            return self.leaf(w_pos, w_total);
        }

        let Some(best) = self.best_split(idx, node_impurity, w_total) else {
            return self.leaf(w_pos, w_total);
        };

        // Partition indices in place around the threshold.
        let mid = partition(idx, |&i| self.x.get(i, best.feature) <= best.threshold);
        if mid == 0 || mid == idx.len() {
            // Numeric degeneracy (shouldn't happen with midpoint
            // thresholds, but guard anyway).
            return self.leaf(w_pos, w_total);
        }

        // Reserve the split node, then build children.
        self.nodes.push(FlatNode::leaf(0.0));
        let me = (self.nodes.len() - 1) as u32;
        let (li, ri) = idx.split_at_mut(mid);
        let left = self.build(li, depth + 1);
        let right = self.build(ri, depth + 1);
        self.nodes[me as usize] = FlatNode {
            feature: best.feature as u32,
            left,
            right,
            value: best.threshold,
        };
        me
    }

    fn node_weights(&self, idx: &[usize]) -> (f64, f64) {
        let mut w_pos = 0.0;
        let mut w_total = 0.0;
        for &i in idx {
            w_total += self.w[i];
            if self.y[i] != 0 {
                w_pos += self.w[i];
            }
        }
        (w_pos, w_total)
    }

    fn best_split(&mut self, idx: &[usize], node_impurity: f64, w_total: f64) -> Option<BestSplit> {
        let d = self.x.cols();
        // Feature sub-sampling allocates per node (the rng hands back a
        // vector); the common full-feature case iterates 0..d directly.
        let sampled: Option<Vec<usize>> = match self.cfg.max_features {
            Some(m) if m < d => Some(self.rng.sample_indices(d, m)),
            _ => None,
        };
        let mut best: Option<BestSplit> = None;
        let (w_pos_all, _) = self.node_weights(idx);
        match &sampled {
            Some(fs) => {
                for &f in fs {
                    self.scan_feature(f, idx, node_impurity, w_total, w_pos_all, &mut best);
                }
            }
            None => {
                for f in 0..d {
                    self.scan_feature(f, idx, node_impurity, w_total, w_pos_all, &mut best);
                }
            }
        }
        best
    }

    fn scan_feature(
        &mut self,
        f: usize,
        idx: &[usize],
        node_impurity: f64,
        w_total: f64,
        w_pos_all: f64,
        best: &mut Option<BestSplit>,
    ) {
        let min_leaf = self.cfg.min_samples_leaf;
        // Gather and sort this node's samples by feature value.
        self.scratch.clear();
        for &i in idx {
            let pos_w = if self.y[i] != 0 { self.w[i] } else { 0.0 };
            self.scratch.push((self.x.get(i, f), self.w[i], pos_w));
        }
        self.scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        let mut w_left = 0.0;
        let mut w_pos_left = 0.0;
        let n = self.scratch.len();
        for s in 0..n - 1 {
            let (v, wi, pi) = self.scratch[s];
            w_left += wi;
            w_pos_left += pi;
            let v_next = self.scratch[s + 1].0;
            if v == v_next {
                continue; // can't split between equal values
            }
            let count_left = s + 1;
            if count_left < min_leaf || n - count_left < min_leaf {
                continue;
            }
            let w_right = w_total - w_left;
            if w_left <= 0.0 || w_right <= 0.0 {
                continue;
            }
            let p_l = w_pos_left / w_left;
            let p_r = (w_pos_all - w_pos_left) / w_right;
            let child_imp = (w_left * self.cfg.criterion.impurity(p_l)
                + w_right * self.cfg.criterion.impurity(p_r))
                / w_total;
            // Like scikit-learn, a split is admissible when its
            // impurity decrease is >= the configured minimum; with the
            // default of 0 this allows zero-gain splits (necessary for
            // XOR-like data, where every first split has zero gain).
            let gain = node_impurity - child_imp;
            if gain >= self.cfg.min_impurity_decrease - 1e-15
                && best.as_ref().is_none_or(|b| gain > b.gain)
            {
                *best = Some(BestSplit {
                    feature: f,
                    threshold: midpoint(v, v_next),
                    gain,
                });
            }
        }
    }
}

struct BestHistSplit {
    feature: usize,
    bin: usize,
    gain: f64,
}

/// Histogram-path tree builder over a shared [`BinIndex`].
struct HistBuilder<'a> {
    bins: &'a BinIndex,
    /// Per-row sample weight (indexed by bin-index row id).
    wa: &'a [f64],
    /// Per-row weighted positive indicator.
    wb: &'a [f64],
    cfg: &'a DecisionTreeConfig,
    rng: SeededRng,
    layout: HistLayout,
    nodes: Vec<FlatNode>,
    /// Recycled full-layout histogram buffers (thread-local pool).
    pool: &'a mut Vec<Vec<BinStat>>,
    /// Scratch for single-feature histograms in sampled mode.
    feat_hist: Vec<BinStat>,
}

impl<'a> HistBuilder<'a> {
    /// True when every feature is a candidate at every node — the
    /// precondition for sibling subtraction (with per-node feature
    /// sampling the candidate sets differ between parent and child, so
    /// each node accumulates only its own sampled features instead).
    fn full_features(&self) -> bool {
        self.cfg
            .max_features
            .is_none_or(|m| m >= self.bins.n_features())
    }

    fn alloc_hist(&mut self) -> Vec<BinStat> {
        let mut h = self.pool.pop().unwrap_or_default();
        h.resize(self.layout.total(), BinStat::default());
        h
    }

    fn free_hist(&mut self, h: Vec<BinStat>) {
        self.pool.push(h);
    }

    fn push_leaf(&mut self, w_pos: f64, w_total: f64) -> u32 {
        let proba = if w_total > 0.0 { w_pos / w_total } else { 0.5 };
        self.nodes.push(FlatNode::leaf(proba));
        (self.nodes.len() - 1) as u32
    }

    /// True when a child with `n` rows at `depth` cannot split, so
    /// computing its histogram would be wasted work.
    fn surely_leaf(&self, depth: usize, n: usize) -> bool {
        depth >= self.cfg.max_depth || n < self.cfg.min_samples_split
    }

    /// Builds the subtree over `rows`; `hist_in`, when present, is this
    /// node's pre-computed histogram (from sibling subtraction).
    fn build(&mut self, rows: &mut [u32], depth: usize, hist_in: Option<Vec<BinStat>>) -> u32 {
        let mut w_pos = 0.0;
        let mut w_total = 0.0;
        for &r in rows.iter() {
            w_total += self.wa[r as usize];
            w_pos += self.wb[r as usize];
        }
        let p = if w_total > 0.0 { w_pos / w_total } else { 0.0 };
        let node_impurity = self.cfg.criterion.impurity(p);

        // Same stop set as the exact engine, including the cooperative
        // wall-clock budget check.
        let stop = depth >= self.cfg.max_depth
            || rows.len() < self.cfg.min_samples_split
            || node_impurity == 0.0
            || w_total <= 0.0
            || (depth > 0 && spe_runtime::budget_exceeded());
        if stop {
            if let Some(h) = hist_in {
                self.free_hist(h);
            }
            return self.push_leaf(w_pos, w_total);
        }

        let (best, hist) = if self.full_features() {
            let hist = match hist_in {
                Some(h) => h,
                None => {
                    let mut h = self.alloc_hist();
                    histogram::accumulate(self.bins, rows, self.wa, self.wb, &self.layout, &mut h);
                    h
                }
            };
            let best = self.best_split_full(&hist, rows.len(), node_impurity, w_total, w_pos);
            (best, Some(hist))
        } else {
            debug_assert!(hist_in.is_none());
            let best = self.best_split_sampled(rows, node_impurity, w_total, w_pos);
            (best, None)
        };

        let Some(best) = best else {
            if let Some(h) = hist {
                self.free_hist(h);
            }
            return self.push_leaf(w_pos, w_total);
        };

        // Partition rows by bin code; by the bin/cut invariant this is
        // exactly `value <= threshold` for every finite feature value.
        let codes = self.bins.feature_codes(best.feature);
        let split_bin = best.bin as u8;
        let mid = partition(rows, |&r| codes[r as usize] <= split_bin);
        if mid == 0 || mid == rows.len() {
            if let Some(h) = hist {
                self.free_hist(h);
            }
            return self.push_leaf(w_pos, w_total);
        }

        self.nodes.push(FlatNode::leaf(0.0));
        let me = (self.nodes.len() - 1) as u32;
        let (lrows, rrows) = rows.split_at_mut(mid);

        // Derive child histograms: accumulate the smaller side, get the
        // sibling by subtracting it from the parent in place.
        let need_children =
            !self.surely_leaf(depth + 1, lrows.len()) || !self.surely_leaf(depth + 1, rrows.len());
        let (lh, rh) = match hist {
            Some(mut parent) if need_children => {
                let mut child = self.alloc_hist();
                let (small, child_is_left) = if lrows.len() <= rrows.len() {
                    (&*lrows, true)
                } else {
                    (&*rrows, false)
                };
                histogram::accumulate(self.bins, small, self.wa, self.wb, &self.layout, &mut child);
                histogram::subtract(&mut parent, &child);
                if child_is_left {
                    (Some(child), Some(parent))
                } else {
                    (Some(parent), Some(child))
                }
            }
            Some(parent) => {
                self.free_hist(parent);
                (None, None)
            }
            None => (None, None),
        };

        let left = self.build(lrows, depth + 1, lh);
        let right = self.build(rrows, depth + 1, rh);
        self.nodes[me as usize] = FlatNode {
            feature: best.feature as u32,
            left,
            right,
            value: self.bins.cut(best.feature, best.bin),
        };
        me
    }

    fn best_split_full(
        &mut self,
        hist: &[BinStat],
        n_node: usize,
        node_impurity: f64,
        w_total: f64,
        w_pos_all: f64,
    ) -> Option<BestHistSplit> {
        let mut best: Option<BestHistSplit> = None;
        for f in 0..self.bins.n_features() {
            let stats = &hist[self.layout.feature_range(f)];
            if let Some((bin, gain)) =
                self.scan_bins(stats, n_node, node_impurity, w_total, w_pos_all)
            {
                if best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestHistSplit {
                        feature: f,
                        bin,
                        gain,
                    });
                }
            }
        }
        best
    }

    fn best_split_sampled(
        &mut self,
        rows: &[u32],
        node_impurity: f64,
        w_total: f64,
        w_pos_all: f64,
    ) -> Option<BestHistSplit> {
        let d = self.bins.n_features();
        let m = self.cfg.max_features.unwrap_or(d).min(d);
        let features = self.rng.sample_indices(d, m);
        let mut best: Option<BestHistSplit> = None;
        let mut feat_hist = std::mem::take(&mut self.feat_hist);
        for f in features {
            feat_hist.clear();
            feat_hist.resize(self.bins.n_bins(f), BinStat::default());
            histogram::accumulate_feature(self.bins, rows, self.wa, self.wb, f, &mut feat_hist);
            if let Some((bin, gain)) =
                self.scan_bins(&feat_hist, rows.len(), node_impurity, w_total, w_pos_all)
            {
                if best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestHistSplit {
                        feature: f,
                        bin,
                        gain,
                    });
                }
            }
        }
        self.feat_hist = feat_hist;
        best
    }

    /// Scans one feature's bin prefixes; returns the best (bin, gain).
    /// Mirrors the exact engine's admissibility rules: `min_samples_leaf`
    /// on both sides, positive weight on both sides, and a gain at least
    /// `min_impurity_decrease` (first strict maximum wins ties).
    fn scan_bins(
        &self,
        stats: &[BinStat],
        n_node: usize,
        node_impurity: f64,
        w_total: f64,
        w_pos_all: f64,
    ) -> Option<(usize, f64)> {
        let min_leaf = self.cfg.min_samples_leaf;
        let mut best: Option<(usize, f64)> = None;
        let mut w_left = 0.0;
        let mut w_pos_left = 0.0;
        let mut n_left = 0usize;
        for (b, s) in stats.iter().enumerate().take(stats.len().saturating_sub(1)) {
            w_left += s.a;
            w_pos_left += s.b;
            n_left += s.n as usize;
            let n_right = n_node - n_left;
            if n_left == 0 || n_right == 0 {
                continue; // threshold separates nothing
            }
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let w_right = w_total - w_left;
            if w_left <= 0.0 || w_right <= 0.0 {
                continue;
            }
            let p_l = w_pos_left / w_left;
            let p_r = (w_pos_all - w_pos_left) / w_right;
            let child_imp = (w_left * self.cfg.criterion.impurity(p_l)
                + w_right * self.cfg.criterion.impurity(p_r))
                / w_total;
            let gain = node_impurity - child_imp;
            if gain >= self.cfg.min_impurity_decrease - 1e-15 && best.is_none_or(|(_, g)| gain > g)
            {
                best = Some((b, gain));
            }
        }
        best
    }
}

impl DecisionTreeConfig {
    /// Histogram-path fit over a subset of a pre-built bin index.
    ///
    /// `y` and `weights` cover **all** rows of `bins`; `rows` selects the
    /// training subset (repeats allowed). Single-class subsets degrade
    /// to a [`ConstantModel`], mirroring the plain `fit` path.
    fn fit_hist(
        &self,
        bins: &BinIndex,
        y: &[u8],
        weights: Option<&[f64]>,
        rows: &[u32],
        seed: u64,
    ) -> Box<dyn Model> {
        assert_eq!(y.len(), bins.n_rows(), "label/bin-index length mismatch");
        if let Some(w) = weights {
            assert_eq!(w.len(), bins.n_rows(), "weight/bin-index length mismatch");
        }
        assert!(!rows.is_empty(), "cannot fit on an empty row subset");
        let n_pos = rows.iter().filter(|&&r| y[r as usize] != 0).count();
        if n_pos == 0 || n_pos == rows.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }

        let n = bins.n_rows();
        let nodes = with_scratch(|scratch| {
            // Per-row accumulated quantities: weight and weighted
            // positive indicator (leaf probabilities and gains are
            // ratio-based, so the weight scale is irrelevant).
            scratch.wa.clear();
            match weights {
                Some(w) => scratch.wa.extend_from_slice(w),
                None => scratch.wa.resize(n, 1.0),
            }
            scratch.wb.clear();
            scratch
                .wb
                .extend((0..n).map(|r| if y[r] != 0 { scratch.wa[r] } else { 0.0 }));
            scratch.rows.clear();
            scratch.rows.extend_from_slice(rows);

            let mut builder = HistBuilder {
                bins,
                wa: &scratch.wa,
                wb: &scratch.wb,
                cfg: self,
                rng: SeededRng::new(seed),
                layout: HistLayout::new(bins),
                nodes: Vec::new(),
                pool: &mut scratch.hist_pool,
                feat_hist: Vec::new(),
            };
            let root = builder.build(&mut scratch.rows, 0, None);
            debug_assert_eq!(root, 0);
            builder.nodes
        });
        Box::new(TreeModel { nodes })
    }
}

impl Learner for DecisionTreeConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        if self.split_method.use_histogram(y.len()) {
            let bins = BinIndex::build(x, self.max_bins);
            let rows: Vec<u32> = (0..y.len() as u32).collect();
            return self.fit_hist(&bins, y, weights, &rows, seed);
        }
        let w = effective_weights(y.len(), weights);
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }
        let nodes = with_scratch(|scratch| {
            let mut builder = Builder {
                x,
                y,
                w: &w,
                cfg: self,
                rng: SeededRng::new(seed),
                nodes: Vec::new(),
                scratch: &mut scratch.sorted,
            };
            scratch.idx.clear();
            scratch.idx.extend(0..y.len());
            let root = builder.build(&mut scratch.idx, 0);
            // Both the leaf and the split path push the root node before
            // any descendant, so the root always lands at slot 0.
            debug_assert_eq!(root, 0);
            builder.nodes
        });
        Box::new(TreeModel { nodes })
    }

    fn name(&self) -> &'static str {
        "DT"
    }

    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        Some(self)
    }
}

impl BinnedLearner for DecisionTreeConfig {
    fn bin_request(&self) -> Option<BinRequest> {
        match self.split_method {
            SplitMethod::Exact => None,
            SplitMethod::Histogram => Some(BinRequest {
                min_rows: 0,
                max_bins: self.max_bins,
            }),
            SplitMethod::Auto { threshold } => Some(BinRequest {
                min_rows: threshold,
                max_bins: self.max_bins,
            }),
        }
    }

    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model> {
        self.fit_hist(problem.bins, problem.y, problem.weights, rows, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR pattern: needs depth >= 2.
        let pts = [(0.0, 0.0, 0u8), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)];
        let mut x = Matrix::with_capacity(4, 2);
        let mut y = Vec::new();
        for &(a, b, l) in &pts {
            x.push_row(&[a, b]);
            y.push(l);
        }
        (x, y)
    }

    fn hist_cfg(max_depth: usize) -> DecisionTreeConfig {
        DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::with_depth(max_depth)
        }
    }

    #[test]
    fn learns_a_threshold() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::with_depth(3).fit(&x, &y, 0);
        let test = Matrix::from_vec(2, 1, vec![1.5, 10.5]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let (x, y) = xor_data();
        let m = DecisionTreeConfig::with_depth(2).fit(&x, &y, 0);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn stump_cannot_learn_xor() {
        let (x, y) = xor_data();
        let m = DecisionTreeConfig::stump().fit(&x, &y, 0);
        assert_ne!(m.predict(&x), y);
    }

    #[test]
    fn entropy_criterion_also_works() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::c45(3).fit(&x, &y, 0);
        assert_eq!(
            m.predict(&Matrix::from_vec(2, 1, vec![0.5, 11.5])),
            vec![0, 1]
        );
    }

    #[test]
    fn single_class_returns_constant() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let m = DecisionTreeConfig::default().fit(&x, &[1, 1, 1], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 3]);
    }

    #[test]
    fn respects_max_depth() {
        // Alternating labels force deep trees if allowed.
        let x = Matrix::from_vec(16, 1, (0..16).map(f64::from).collect());
        let y: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        let learner = DecisionTreeConfig::with_depth(2);
        let boxed = learner.fit(&x, &y, 0);
        // Downcast trick: verify via behaviour — a depth-2 tree has at
        // most 4 leaves, so it cannot match 16 alternating labels.
        let preds = boxed.predict(&x);
        assert_ne!(preds, y);
    }

    #[test]
    fn weights_dominate_split_choice() {
        // Unweighted majority at each x is label 0, but the positives
        // carry large weight, flipping leaf probabilities.
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let w = vec![1.0, 9.0, 1.0, 9.0];
        let m = DecisionTreeConfig::with_depth(2).fit_weighted(&x, &y, Some(&w), 0);
        let p = m.predict_proba(&x);
        assert!(p.iter().all(|&pi| pi > 0.5), "{p:?}");
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let x = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = vec![1, 0, 0, 0, 0];
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 2,
            ..DecisionTreeConfig::with_depth(4)
        };
        let m = cfg.fit(&x, &y, 0);
        // The lone positive cannot be isolated: its leaf has >= 2 samples,
        // so its probability is at most 0.5.
        let p = m.predict_proba(&Matrix::from_vec(1, 1, vec![0.0]));
        assert!(p[0] <= 0.5 + 1e-12);
    }

    #[test]
    fn feature_subsampling_is_seeded() {
        let (x, y) = xor_data();
        let cfg = DecisionTreeConfig {
            max_features: Some(1),
            ..DecisionTreeConfig::with_depth(3)
        };
        let a = cfg.fit(&x, &y, 7).predict_proba(&x);
        let b = cfg.fit(&x, &y, 7).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_feature_values_never_split_between_ties() {
        let x = Matrix::from_vec(4, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let m = DecisionTreeConfig::default().fit(&x, &y, 0);
        let p = m.predict_proba(&x);
        assert!(p.iter().all(|&pi| (pi - 0.5).abs() < 1e-12));
    }

    #[test]
    fn probabilities_are_leaf_fractions() {
        // Only two distinct feature values, so only one split exists.
        let x = Matrix::from_vec(6, 1, vec![0.0, 0.0, 0.0, 5.0, 5.0, 5.0]);
        let y = vec![0, 0, 1, 1, 1, 0];
        let cfg = DecisionTreeConfig::with_depth(1);
        let m = cfg.fit(&x, &y, 0);
        let p = m.predict_proba(&Matrix::from_vec(2, 1, vec![0.0, 5.0]));
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    // ---- histogram engine ----

    #[test]
    fn histogram_learns_a_threshold() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = hist_cfg(3).fit(&x, &y, 0);
        let test = Matrix::from_vec(2, 1, vec![1.5, 10.5]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn histogram_learns_xor() {
        let (x, y) = xor_data();
        let m = hist_cfg(2).fit(&x, &y, 0);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn histogram_matches_exact_on_training_data() {
        // Low-cardinality data: every distinct value gets its own bin,
        // so the histogram engine considers the same candidate
        // partitions as the exact engine and both produce identical
        // leaf assignments on the training set.
        let mut rng = SeededRng::new(42);
        let n = 400;
        let mut x = Matrix::with_capacity(n, 3);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.below(8) as f64;
            let b = rng.below(8) as f64;
            let c = rng.below(4) as f64;
            x.push_row(&[a, b, c]);
            y.push(u8::from(a + b >= 8.0));
        }
        let exact = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::with_depth(6)
        };
        let hist = DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::with_depth(6)
        };
        let pe = exact.fit(&x, &y, 0).predict_proba(&x);
        let ph = hist.fit(&x, &y, 0).predict_proba(&x);
        for (a, b) in pe.iter().zip(&ph) {
            assert!((a - b).abs() < 1e-9, "exact {a} vs hist {b}");
        }
    }

    #[test]
    fn histogram_subset_fit_uses_only_selected_rows() {
        // Rows outside the subset carry the opposite label; the model
        // must reflect the subset only.
        let x = Matrix::from_vec(8, 1, vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
        let y = vec![1, 1, 1, 1, 0, 0, 0, 0];
        let bins = BinIndex::build(&x, 16);
        let cfg = hist_cfg(3);
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        // Subset flips the apparent geometry: low rows are 1, high are 0.
        let m = BinnedLearner::fit_on_bins(&cfg, &problem, &[0, 1, 4, 5], 0);
        let p = m.predict_proba(&Matrix::from_vec(2, 1, vec![0.5, 12.0]));
        assert!(p[0] > 0.5 && p[1] < 0.5, "{p:?}");
    }

    #[test]
    fn histogram_single_class_subset_is_constant() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let y = vec![0, 0, 1, 1];
        let bins = BinIndex::build(&x, 8);
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let m = BinnedLearner::fit_on_bins(&hist_cfg(3), &problem, &[2, 3], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 4]);
    }

    #[test]
    fn histogram_respects_min_samples_leaf() {
        let x = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = vec![1, 0, 0, 0, 0];
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 2,
            ..hist_cfg(4)
        };
        let m = cfg.fit(&x, &y, 0);
        let p = m.predict_proba(&Matrix::from_vec(1, 1, vec![0.0]));
        assert!(p[0] <= 0.5 + 1e-12);
    }

    #[test]
    fn histogram_sampled_features_deterministic() {
        let mut rng = SeededRng::new(9);
        let n = 200;
        let mut x = Matrix::with_capacity(n, 4);
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..4).map(|_| rng.below(16) as f64).collect();
            y.push(u8::from(row[0] >= 8.0));
            x.push_row(&row);
        }
        let cfg = DecisionTreeConfig {
            max_features: Some(2),
            ..hist_cfg(5)
        };
        let a = cfg.fit(&x, &y, 3).predict_proba(&x);
        let b = cfg.fit(&x, &y, 3).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn auto_threshold_switches_engines() {
        let cfg = DecisionTreeConfig::default();
        assert!(matches!(cfg.split_method, SplitMethod::Auto { .. }));
        assert!(!cfg.split_method.use_histogram(100));
        assert!(cfg
            .split_method
            .use_histogram(SplitMethod::DEFAULT_AUTO_THRESHOLD));
        assert!(SplitMethod::Histogram.use_histogram(1));
        assert!(!SplitMethod::Exact.use_histogram(usize::MAX));
    }

    #[test]
    fn bin_request_follows_split_method() {
        let exact = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::default()
        };
        assert!(BinnedLearner::bin_request(&exact).is_none());
        let hist = hist_cfg(3);
        let req = BinnedLearner::bin_request(&hist).unwrap();
        assert_eq!(req.min_rows, 0);
        assert_eq!(req.max_bins, 256);
        let auto = DecisionTreeConfig::default();
        let req = BinnedLearner::bin_request(&auto).unwrap();
        assert_eq!(req.min_rows, SplitMethod::DEFAULT_AUTO_THRESHOLD);
    }

    #[test]
    fn predict_proba_view_matches_owned() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::with_depth(3).fit(&x, &y, 0);
        assert_eq!(m.predict_proba(&x), m.predict_proba_view(x.view()));
        assert_eq!(
            m.predict_proba_view(x.view_rows(2..5)),
            m.predict_proba(&x.row_range(2..5))
        );
    }
}
