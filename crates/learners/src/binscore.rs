//! Scoring models directly on u8 bin codes.
//!
//! Both binary SPE training loops need each new member's probabilities
//! over *every* majority row every round, and both already hold those
//! rows as column-major bin codes (one byte per cell): the in-memory
//! fit in its shared [`BinIndex`](spe_data::BinIndex), the out-of-core
//! fit in its spill, where the `f64` features are gone.
//! [`CodeScorer`] recompiles a trained model's [`ModelSnapshot`] into
//! bin-space: every tree split `x[f] <= t` becomes `code[f] <= b` where
//! `b` is the index of `t` in the shared cut grid. Scoring is
//! row-parallel on the shared runtime.
//!
//! This is exact, not approximate: histogram-trained trees only ever
//! split *at* cut values, and the grid invariant
//! `encode(v) <= b ⟺ v <= cut(b)` holds for every input including
//! `NaN` (which encodes past every cut and correctly walks right). A
//! threshold that is not on the grid — an exact-split tree, or a tree
//! from some other grid — is a typed error, never a silent
//! misprediction.

use crate::persist::ModelSnapshot;
use crate::traits::Model;
use crate::tree::{NodeView, TreeModel};
use spe_data::SpeError;

/// One compiled ensemble member (see [`CodeScorer`]).
enum CodeMember {
    /// Constant probability.
    Constant(f64),
    /// Flat tree over bin codes.
    Tree(CodeTree),
    /// Soft-vote average of nested members.
    Vote(Vec<CodeMember>),
}

/// A tree in bin space, rooted at node 0. Leaves loop back to
/// themselves (`code <= u8::MAX` always holds), so every row walks
/// exactly `depth` steps with no exit test: a row that reaches its
/// leaf early just stays there.
struct CodeTree {
    nodes: Vec<CodeNode>,
    /// Leaf probability per node (unused on splits).
    values: Vec<f64>,
    /// Longest root-to-leaf path, in splits.
    depth: usize,
}

/// A tree node in bin space: `code[feature] <= bin` goes left.
#[derive(Clone, Copy)]
struct CodeNode {
    feature: u32,
    bin: u8,
    left: u32,
    right: u32,
}

/// A model compiled to traverse column-major u8 bin codes.
pub struct CodeScorer {
    member: CodeMember,
    n_features: usize,
}

impl CodeScorer {
    /// Compiles `model` against the cut grid its codes were encoded
    /// with. Supports constants, histogram-trained trees and soft-vote
    /// compositions thereof (SPE members included); anything else — or
    /// a split threshold absent from `cuts` — is
    /// [`SpeError::InvalidConfig`].
    pub fn compile(model: &dyn Model, cuts: &[Vec<f64>]) -> Result<Self, SpeError> {
        let snapshot = model.snapshot().ok_or_else(|| {
            SpeError::InvalidConfig("model does not support snapshots, cannot bin-compile".into())
        })?;
        Ok(Self {
            member: compile_member(&snapshot, cuts)?,
            n_features: cuts.len(),
        })
    }

    /// Scores `n_rows` rows stored as column-major codes
    /// (`codes[f * n_rows + row]`) into `out`, row-parallel on the
    /// shared runtime (each row's score depends only on its codes, so
    /// the output is the same for every thread count).
    ///
    /// # Panics
    /// Panics if the buffers disagree with `n_rows` and the compiled
    /// feature count.
    pub fn score_block(&self, codes: &[u8], n_rows: usize, out: &mut [f64]) {
        assert_eq!(codes.len(), self.n_features * n_rows, "code block size");
        assert_eq!(out.len(), n_rows, "output buffer size");
        spe_runtime::par_chunks_mut(out, MIN_ROWS_PER_TASK, |start, chunk| {
            score_member(&self.member, codes, n_rows, |k| start + k, chunk);
        });
    }

    /// Scores the rows named by `rows` — ids into a column-major code
    /// buffer of `n_rows` rows, such as [`BinIndex::codes`] — into
    /// `out` (`out[k]` is the score of row `rows[k]`), row-parallel
    /// like [`Self::score_block`].
    ///
    /// [`BinIndex::codes`]: spe_data::BinIndex::codes
    ///
    /// # Panics
    /// Panics if the buffers disagree with `n_rows` and the compiled
    /// feature count, or a row id is not below `n_rows`.
    pub fn score_rows(&self, codes: &[u8], n_rows: usize, rows: &[u32], out: &mut [f64]) {
        assert_eq!(codes.len(), self.n_features * n_rows, "code buffer size");
        assert_eq!(out.len(), rows.len(), "output buffer size");
        spe_runtime::par_chunks_mut(out, MIN_ROWS_PER_TASK, |start, chunk| {
            let ids = &rows[start..start + chunk.len()];
            assert!(
                ids.iter().all(|&r| (r as usize) < n_rows),
                "row id out of range for {n_rows} rows"
            );
            score_member(&self.member, codes, n_rows, |k| ids[k] as usize, chunk);
        });
    }
}

/// Fewest rows one parallel scoring task handles: a task costs about
/// as much as traversing a few dozen rows, so smaller pieces would
/// spend more on dispatch than they save.
const MIN_ROWS_PER_TASK: usize = 1024;

fn compile_member(snapshot: &ModelSnapshot, cuts: &[Vec<f64>]) -> Result<CodeMember, SpeError> {
    match snapshot {
        ModelSnapshot::Constant(p) => Ok(CodeMember::Constant(*p)),
        ModelSnapshot::Tree(tree) => Ok(CodeMember::Tree(compile_tree(tree, cuts)?)),
        ModelSnapshot::SoftVote(members) => Ok(CodeMember::Vote(
            members
                .iter()
                .map(|m| compile_member(m, cuts))
                .collect::<Result<_, _>>()?,
        )),
        ModelSnapshot::SelfPaced { members, .. } => Ok(CodeMember::Vote(
            members
                .iter()
                .map(|m| compile_member(m, cuts))
                .collect::<Result<_, _>>()?,
        )),
        other => Err(SpeError::InvalidConfig(format!(
            "cannot bin-compile a {:?} model (only constants and histogram trees)",
            other.kind()
        ))),
    }
}

fn compile_tree(tree: &TreeModel, cuts: &[Vec<f64>]) -> Result<CodeTree, SpeError> {
    let n_nodes = tree.n_nodes();
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut values = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let (node, value) = match tree.node(i) {
            NodeView::Leaf { value } => (
                CodeNode {
                    feature: 0,
                    bin: u8::MAX,
                    left: i as u32,
                    right: i as u32,
                },
                value,
            ),
            NodeView::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let grid = cuts.get(feature).ok_or_else(|| {
                    SpeError::InvalidConfig(format!(
                        "tree splits on feature {feature} but the grid has {} features",
                        cuts.len()
                    ))
                })?;
                // Histogram trees split exactly at cut values; locate
                // the threshold and demand an exact hit so a foreign
                // tree can never silently mis-route rows.
                let b = grid.partition_point(|c| *c < threshold);
                if grid.get(b).copied() != Some(threshold) {
                    return Err(SpeError::InvalidConfig(format!(
                        "split threshold {threshold} on feature {feature} is not a cut of the \
                         shared grid (model was not histogram-trained on it)"
                    )));
                }
                (
                    CodeNode {
                        feature: feature as u32,
                        bin: b as u8,
                        left: left as u32,
                        right: right as u32,
                    },
                    0.0,
                )
            }
        };
        nodes.push(node);
        values.push(value);
    }
    // A tree arena is non-empty and stores every split before its
    // children (`TreeModel` checks both on decode), so one backward
    // pass sees each node's subtree depths before the node itself.
    let mut below = vec![0usize; n_nodes];
    for i in (0..n_nodes).rev() {
        let n = nodes[i];
        if n.left as usize != i {
            below[i] = 1 + below[n.left as usize].max(below[n.right as usize]);
        }
    }
    Ok(CodeTree {
        nodes,
        values,
        depth: below[0],
    })
}

/// Rows walked level by level as one block: the block's walks are
/// independent, so they hide each other's code-load latency, and the
/// branch-free step keeps mispredictions out of the loop.
const BLOCK: usize = 64;

/// Scores `out.len()` rows of `tree` into `out` (`row(k)` as in
/// [`score_member`]).
fn score_tree(
    tree: &CodeTree,
    codes: &[u8],
    n_rows: usize,
    row: impl Fn(usize) -> usize,
    out: &mut [f64],
) {
    let nodes = &tree.nodes[..];
    #[inline(always)]
    fn step(nodes: &[CodeNode], codes: &[u8], n_rows: usize, r: usize, i: usize) -> usize {
        let n = nodes[i];
        let code = codes[n.feature as usize * n_rows + r];
        (if code <= n.bin { n.left } else { n.right }) as usize
    }
    let mut blocks = out.chunks_exact_mut(BLOCK);
    let mut k = 0;
    for block in &mut blocks {
        let rows: [usize; BLOCK] = std::array::from_fn(|l| row(k + l));
        let mut at = [0u32; BLOCK];
        for _ in 0..tree.depth {
            for (i, &r) in at.iter_mut().zip(&rows) {
                *i = step(nodes, codes, n_rows, r, *i as usize) as u32;
            }
        }
        for (slot, &i) in block.iter_mut().zip(&at) {
            *slot = tree.values[i as usize];
        }
        k += BLOCK;
    }
    for slot in blocks.into_remainder() {
        let r = row(k);
        let mut i = 0;
        for _ in 0..tree.depth {
            i = step(nodes, codes, n_rows, r, i);
        }
        *slot = tree.values[i];
        k += 1;
    }
}

/// Scores `out.len()` rows into `out`, where `row(k)` is the code
/// buffer row of output `k`.
fn score_member(
    member: &CodeMember,
    codes: &[u8],
    n_rows: usize,
    row: impl Fn(usize) -> usize + Copy,
    out: &mut [f64],
) {
    match member {
        CodeMember::Constant(p) => out.fill(*p),
        CodeMember::Tree(tree) => score_tree(tree, codes, n_rows, row, out),
        CodeMember::Vote(members) => {
            out.fill(0.0);
            let mut buf = vec![0.0f64; out.len()];
            for m in members {
                score_member(m, codes, n_rows, row, &mut buf);
                for (o, b) in out.iter_mut().zip(&buf) {
                    *o += b;
                }
            }
            // Divide, as the f64 soft vote does: multiplying by the
            // reciprocal is not bit-identical for every member count.
            let k = members.len().max(1) as f64;
            for o in out.iter_mut() {
                *o /= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{BinnedLearner, BinnedProblem, Learner};
    use crate::tree::{DecisionTreeConfig, SplitMethod};
    use spe_data::{encode_batch_into, BinIndex, Matrix, SeededRng};

    fn hist_tree() -> DecisionTreeConfig {
        DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        }
    }

    fn random_data(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(rows, cols);
        let mut y = Vec::new();
        let mut row = vec![0.0; cols];
        for _ in 0..rows {
            for v in row.iter_mut() {
                *v = rng.normal(0.0, 1.0);
            }
            x.push_row(&row);
            y.push(u8::from(row[0] + row[1] > 0.0));
        }
        (x, y)
    }

    #[test]
    fn code_traversal_matches_f64_traversal() {
        let (x, y) = random_data(500, 4, 1);
        let bins = BinIndex::build(&x, 64);
        let rows: Vec<u32> = (0..500).collect();
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let model = hist_tree().fit_on_bins(&problem, &rows, 7);
        let cuts: Vec<Vec<f64>> = (0..4).map(|f| bins.cuts(f).to_vec()).collect();
        let scorer = CodeScorer::compile(model.as_ref(), &cuts).unwrap();
        // Encode a *different* batch and compare against f64 prediction.
        let (test_x, _) = random_data(300, 4, 2);
        let mut codes = vec![0u8; 300 * 4];
        encode_batch_into(&cuts, test_x.view(), &mut codes);
        let mut got = vec![0.0; 300];
        scorer.score_block(&codes, 300, &mut got);
        let expect = model.predict_proba(&test_x);
        assert_eq!(got, expect, "bin-space traversal must be bit-exact");
    }

    #[test]
    fn nan_rows_route_like_f64() {
        let (x, y) = random_data(200, 3, 3);
        let bins = BinIndex::build(&x, 32);
        let rows: Vec<u32> = (0..200).collect();
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let model = hist_tree().fit_on_bins(&problem, &rows, 9);
        let cuts: Vec<Vec<f64>> = (0..3).map(|f| bins.cuts(f).to_vec()).collect();
        let scorer = CodeScorer::compile(model.as_ref(), &cuts).unwrap();
        let mut test_x = Matrix::zeros(4, 3);
        test_x.set(0, 0, f64::NAN);
        test_x.set(1, 1, f64::NAN);
        test_x.set(2, 2, f64::NAN);
        test_x.set(3, 0, 0.5);
        let mut codes = vec![0u8; 4 * 3];
        encode_batch_into(&cuts, test_x.view(), &mut codes);
        let mut got = vec![0.0; 4];
        scorer.score_block(&codes, 4, &mut got);
        assert_eq!(got, model.predict_proba(&test_x));
    }

    /// Three features on coarse grids (heavily repeated values) and
    /// one continuous one.
    fn repetitive_data(rows: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(rows, 4);
        let mut y = Vec::with_capacity(rows);
        for _ in 0..rows {
            let row = [
                rng.below(4) as f64,
                (rng.normal(0.0, 1.0) * 2.0).round() / 2.0,
                f64::from(u8::from(rng.uniform() < 0.2)),
                rng.normal(0.0, 1.0),
            ];
            y.push(u8::from(row[0] + row[1] + row[3] > 1.5));
            x.push_row(&row);
        }
        (x, y)
    }

    #[test]
    fn score_rows_matches_predict_proba_on_row_subsets() {
        let (x, y) = repetitive_data(6000, 5);
        let bins = BinIndex::build(&x, 64);
        let train: Vec<u32> = (0..6000).step_by(2).collect();
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let model = hist_tree().fit_on_bins(&problem, &train, 11);
        let scorer = CodeScorer::compile(model.as_ref(), bins.cut_grids()).unwrap();
        // An arbitrary subset: unsorted, with repeats, spanning several
        // parallel tasks.
        let mut rng = SeededRng::new(12);
        let subset: Vec<u32> = (0..4500).map(|_| rng.below(6000) as u32).collect();
        let rows: Vec<usize> = subset.iter().map(|&r| r as usize).collect();
        let expect = model.predict_proba(&x.select_rows(&rows));
        for threads in [1, 2, 4] {
            let mut got = vec![0.0; subset.len()];
            spe_runtime::Runtime::with_threads(threads)
                .install(|| scorer.score_rows(bins.codes(), bins.n_rows(), &subset, &mut got));
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn score_block_is_exact_on_nan_rows_in_parallel() {
        let (x, y) = repetitive_data(3000, 6);
        let bins = BinIndex::build(&x, 32);
        let train: Vec<u32> = (0..3000).collect();
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let model = hist_tree().fit_on_bins(&problem, &train, 13);
        let scorer = CodeScorer::compile(model.as_ref(), bins.cut_grids()).unwrap();
        let (mut test_x, _) = repetitive_data(5000, 7);
        for r in (0..5000).step_by(7) {
            test_x.set(r, r % 4, f64::NAN);
        }
        let mut codes = vec![0u8; 5000 * 4];
        encode_batch_into(bins.cut_grids(), test_x.view(), &mut codes);
        let mut got = vec![0.0; 5000];
        spe_runtime::Runtime::with_threads(2)
            .install(|| scorer.score_block(&codes, 5000, &mut got));
        assert_eq!(got, model.predict_proba(&test_x));
    }

    #[test]
    fn soft_vote_matches_f64_soft_vote() {
        let (x, y) = repetitive_data(2000, 8);
        let bins = BinIndex::build(&x, 32);
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        // Shallow trees keep impure leaves, so the vote averages
        // fractions whose sum / 3 and sum · (1/3) differ in the last bit.
        let shallow = DecisionTreeConfig {
            max_depth: 3,
            ..hist_tree()
        };
        let members: Vec<Box<dyn Model>> = (0..3u32)
            .map(|m| {
                let rows: Vec<u32> = (m..2000).step_by(3).collect();
                shallow.fit_on_bins(&problem, &rows, u64::from(m))
            })
            .collect();
        let vote = crate::ensemble::SoftVoteEnsemble::try_new(members).unwrap();
        let scorer = CodeScorer::compile(&vote, bins.cut_grids()).unwrap();
        let mut got = vec![0.0; 2000];
        scorer.score_block(bins.codes(), 2000, &mut got);
        assert_eq!(got, vote.predict_proba(&x));
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn score_rows_rejects_foreign_row_ids() {
        let model = crate::traits::ConstantModel(0.5);
        let scorer = CodeScorer::compile(&model, &[vec![0.5]]).unwrap();
        let mut out = vec![0.0; 2];
        scorer.score_rows(&[0, 1, 1], 3, &[0, 3], &mut out);
    }

    #[test]
    fn exact_split_tree_is_rejected() {
        let (x, y) = random_data(200, 2, 4);
        let model = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::default()
        }
        .fit(&x, &y, 5);
        let bins = BinIndex::build(&x, 8);
        let cuts: Vec<Vec<f64>> = (0..2).map(|f| bins.cuts(f).to_vec()).collect();
        // Exact midpoint thresholds almost never coincide with an
        // 8-bin grid; compile must refuse rather than mis-route.
        assert!(matches!(
            CodeScorer::compile(model.as_ref(), &cuts),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn constant_model_compiles() {
        let model = crate::traits::ConstantModel(0.25);
        let scorer = CodeScorer::compile(&model, &[vec![0.5]]).unwrap();
        let mut out = vec![0.0; 3];
        scorer.score_block(&[0, 1, 1], 3, &mut out);
        assert_eq!(out, vec![0.25; 3]);
    }
}
