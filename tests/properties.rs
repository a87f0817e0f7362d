//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;
use spe::core::{HardnessBins, HardnessFn, SelfPacedSampler};
use spe::data::{Dataset, Matrix, SanitizePolicy, Sanitizer, SeededRng, SpeError};
use spe::metrics::{aucprc, average_precision, f1_score, g_mean, mcc, roc_auc, ConfusionMatrix};
use spe::prelude::{RandomOverSampler, RandomUnderSampler, Sampler, Smote};

/// Strategy: a non-degenerate labelled score vector (both classes
/// present, scores in [0, 1]).
fn labelled_scores() -> impl Strategy<Value = (Vec<u8>, Vec<f64>)> {
    (2usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..2, n),
            proptest::collection::vec(0.0f64..=1.0, n),
        )
            .prop_filter("need both classes", |(y, _)| {
                y.contains(&0) && y.contains(&1)
            })
    })
}

/// Strategy: a small imbalanced dataset in 2-D.
fn imbalanced_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..12, 20usize..80, 0u64..1000).prop_map(|(n_pos, n_neg, seed)| {
        let mut rng = SeededRng::new(seed);
        let n = n_pos + n_neg;
        let mut x = Matrix::with_capacity(n, 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
            y.push(0);
        }
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(1.0, 1.0), rng.normal(1.0, 1.0)]);
            y.push(1);
        }
        Dataset::new(x, y)
    })
}

/// Strategy: a small dataset where any cell may be NaN/Inf and labels
/// are arbitrary (possibly single-class) — the sanitizer's worst case.
fn dirty_dataset() -> impl Strategy<Value = Dataset> {
    // 4/7 finite, 1/7 each NaN / +Inf / -Inf (the vendored proptest has
    // no `prop_oneof`, so the choice is encoded in an integer draw).
    fn cell() -> impl Strategy<Value = f64> {
        (0u8..7, -10.0f64..10.0).prop_map(|(kind, v)| match kind {
            0..=3 => v,
            4 => f64::NAN,
            5 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        })
    }
    (1usize..20, 1usize..4).prop_flat_map(move |(rows, cols)| {
        (
            proptest::collection::vec(cell(), rows * cols),
            proptest::collection::vec(0u8..2, rows),
        )
            .prop_map(move |(cells, y)| Dataset::new(Matrix::from_vec(rows, cols, cells), y))
    })
}

proptest! {
    #[test]
    fn metric_ranges((y, s) in labelled_scores()) {
        let auc = aucprc(&y, &s);
        prop_assert!((0.0..=1.0).contains(&auc));
        let ap = average_precision(&y, &s);
        prop_assert!((0.0..=1.0).contains(&ap));
        let roc = roc_auc(&y, &s);
        prop_assert!((0.0..=1.0).contains(&roc));
        let m = ConfusionMatrix::from_scores(&y, &s, 0.5);
        prop_assert!((0.0..=1.0).contains(&f1_score(&m)));
        prop_assert!((0.0..=1.0).contains(&g_mean(&m)));
        prop_assert!((-1.0..=1.0).contains(&mcc(&m)));
    }

    #[test]
    fn perfect_scores_maximize_all_curve_metrics((y, _) in labelled_scores()) {
        // Scores equal to the labels: perfect ranking.
        let s: Vec<f64> = y.iter().map(|&l| f64::from(l)).collect();
        prop_assert!((aucprc(&y, &s) - 1.0).abs() < 1e-9);
        prop_assert!((roc_auc(&y, &s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn score_order_invariance((y, s) in labelled_scores()) {
        // AUCPRC depends only on the ranking: a strictly monotone
        // transform of the scores must not change it.
        let transformed: Vec<f64> = s.iter().map(|&v| v * 0.5 + 0.1).collect();
        prop_assert!((aucprc(&y, &s) - aucprc(&y, &transformed)).abs() < 1e-9);
    }

    #[test]
    fn confusion_matrix_conserves_counts((y, s) in labelled_scores()) {
        let m = ConfusionMatrix::from_scores(&y, &s, 0.5);
        prop_assert_eq!(m.total() as usize, y.len());
        prop_assert_eq!((m.tp + m.fn_) as usize, y.iter().filter(|&&l| l == 1).count());
    }

    #[test]
    fn bins_partition_samples(h in proptest::collection::vec(0.0f64..=1.0, 1..200), k in 1usize..30) {
        let bins = HardnessBins::cut(&h, k);
        let total: usize = bins.stats().iter().map(|s| s.population).sum();
        prop_assert_eq!(total, h.len());
        // Contributions sum to the total hardness.
        let contrib: f64 = bins.stats().iter().map(|s| s.contribution).sum();
        prop_assert!((contrib - h.iter().sum::<f64>()).abs() < 1e-9);
        // Every assignment is a valid bin.
        prop_assert!(bins.assignment().iter().all(|&b| b < k));
        // Each bin's members ascend in row order, belong to that bin,
        // and together the bins cover every row exactly once.
        let mut seen = vec![0usize; h.len()];
        for b in 0..k {
            let members = bins.members(b);
            prop_assert_eq!(members.len(), bins.stats()[b].population);
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
            for &i in members {
                prop_assert_eq!(bins.assignment()[i], b);
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn self_paced_sampler_meets_target(
        h in proptest::collection::vec(0.0f64..=1.0, 1..300),
        alpha in 0.0f64..20.0,
        target_frac in 0.05f64..1.0,
        seed in 0u64..100,
    ) {
        let target = ((h.len() as f64) * target_frac).ceil() as usize;
        let mut rng = SeededRng::new(seed);
        let out = SelfPacedSampler::default().sample(&h, alpha, target, &mut rng);
        // Exactly min(target, n) distinct positions.
        let mut sel = out.selected.clone();
        sel.sort_unstable();
        sel.dedup();
        prop_assert_eq!(sel.len(), out.selected.len());
        prop_assert_eq!(out.selected.len(), target.min(h.len()));
        prop_assert!(out.selected.iter().all(|&i| i < h.len()));
    }

    #[test]
    fn hardness_functions_are_nonnegative(p in 0.0f64..=1.0, label in 0u8..2) {
        for h in [HardnessFn::AbsoluteError, HardnessFn::SquaredError, HardnessFn::CrossEntropy] {
            prop_assert!(h.eval(p, label) >= 0.0);
        }
    }

    #[test]
    fn hardness_monotone_in_error(label in 0u8..2, a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        // Further from the label => harder, for every hardness function.
        let y = f64::from(label);
        let (near, far) = if (a - y).abs() <= (b - y).abs() { (a, b) } else { (b, a) };
        for h in [HardnessFn::AbsoluteError, HardnessFn::SquaredError, HardnessFn::CrossEntropy] {
            prop_assert!(h.eval(far, label) >= h.eval(near, label) - 1e-12);
        }
    }

    #[test]
    fn random_under_sampler_balances_exactly(data in imbalanced_dataset(), seed in 0u64..50) {
        let r = RandomUnderSampler::default().resample(&data, seed);
        prop_assert_eq!(r.n_positive(), data.n_positive());
        prop_assert_eq!(r.n_negative(), data.n_positive().min(data.n_negative()));
    }

    #[test]
    fn random_over_sampler_balances_exactly(data in imbalanced_dataset(), seed in 0u64..50) {
        let r = RandomOverSampler::default().resample(&data, seed);
        prop_assert_eq!(r.n_negative(), data.n_negative());
        prop_assert_eq!(r.n_positive(), data.n_negative().max(data.n_positive()));
    }

    #[test]
    fn smote_balances_and_keeps_originals(data in imbalanced_dataset(), seed in 0u64..50) {
        let r = Smote::default().resample(&data, seed);
        prop_assert_eq!(r.n_positive(), r.n_negative());
        // Original rows are preserved as a prefix.
        prop_assert_eq!(&r.x().as_slice()[..data.x().as_slice().len()], data.x().as_slice());
    }

    #[test]
    fn stratified_split_is_a_partition(data in imbalanced_dataset(), seed in 0u64..50) {
        let s = spe::data::train_val_test_split(&data, 0.6, 0.2, seed);
        prop_assert_eq!(s.train.len() + s.validation.len() + s.test.len(), data.len());
        prop_assert_eq!(
            s.train.n_positive() + s.validation.n_positive() + s.test.n_positive(),
            data.n_positive()
        );
    }

    #[test]
    fn sanitizer_output_is_never_non_finite(
        data in dirty_dataset(),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            SanitizePolicy::Reject,
            SanitizePolicy::ImputeMean,
            SanitizePolicy::DropRows,
        ][policy_idx];
        match Sanitizer::new(policy).sanitize(&data) {
            // Whatever the policy did, a returned dataset is fully finite.
            Ok((out, report)) => {
                prop_assert!(out.x().as_slice().iter().all(|v| v.is_finite()));
                prop_assert_eq!(
                    report.non_finite_cells,
                    data.x().as_slice().iter().filter(|v| !v.is_finite()).count()
                );
                // A dataset that comes back has both classes.
                prop_assert!(out.n_positive() > 0 && out.n_negative() > 0);
            }
            // Rejections must be one of the typed sanitization errors.
            Err(e) => prop_assert!(matches!(
                e,
                SpeError::NonFiniteFeature { .. }
                    | SpeError::EmptyClass { .. }
                    | SpeError::EmptyDataset
            )),
        }
    }

    #[test]
    fn impute_mean_preserves_rows_and_labels(data in dirty_dataset()) {
        if let Ok((out, report)) = Sanitizer::new(SanitizePolicy::ImputeMean).sanitize(&data) {
            // ImputeMean never removes rows: labels are untouched.
            prop_assert_eq!(out.len(), data.len());
            prop_assert_eq!(out.y(), data.y());
            prop_assert_eq!(report.dropped_rows, 0);
            prop_assert_eq!(report.imputed_cells, report.non_finite_cells);
            // Finite cells pass through unchanged.
            for (a, b) in out.x().as_slice().iter().zip(data.x().as_slice()) {
                if b.is_finite() {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn drop_rows_keeps_exactly_the_clean_rows(data in dirty_dataset()) {
        if let Ok((out, report)) = Sanitizer::new(SanitizePolicy::DropRows).sanitize(&data) {
            let clean_rows: Vec<usize> = (0..data.len())
                .filter(|&i| data.x().row(i).iter().all(|v| v.is_finite()))
                .collect();
            prop_assert_eq!(out.len(), clean_rows.len());
            prop_assert_eq!(report.dropped_rows, data.len() - clean_rows.len());
            // Surviving rows keep their labels, in order: class balance
            // of the output equals the balance of the clean subset.
            let expected: Vec<u8> = clean_rows.iter().map(|&i| data.y()[i]).collect();
            prop_assert_eq!(out.y(), &expected[..]);
        }
    }
}
