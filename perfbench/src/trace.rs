//! Outside-in tracing: delegating wrappers around the public traits
//! each layer exposes, timing every call into the layer below.
//!
//! Wrappers delegate every method they do not time, including
//! `snapshot`, so a traced fit produces the same model bytes as an
//! untraced one; the benchmark checks that by hash.

use spe_data::{BinIndex, Chunk, ChunkedSource, Matrix, MatrixView, SpeError};
use spe_learners::traits::{
    BinRequest, BinnedLearner, BinnedProblem, FeatureBound, Learner, Model, SharedLearner,
};
use spe_learners::ModelSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every counter the wrappers feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    MemberFitNs,
    MemberFits,
    MemberFitRows,
    RescoreNs,
    RescoreRows,
    ShardReadNs,
    ShardBytes,
    ShardChunks,
}

const N_COUNTERS: usize = 8;

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

fn add(c: Counter, v: u64) {
    // Statistics only: nothing is published through these.
    COUNTERS[c as usize].fetch_add(v, Ordering::Relaxed);
}

/// A copy of all counters at one instant; subtract two to get the
/// counts of the span between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot([u64; N_COUNTERS]);

impl Snapshot {
    pub fn now() -> Self {
        Self(std::array::from_fn(|i| COUNTERS[i].load(Ordering::Relaxed)))
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// A nanosecond counter in milliseconds.
    pub fn ms(&self, c: Counter) -> f64 {
        self.get(c) as f64 / 1e6
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Self(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        Self(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// All counters by name, for the chunked child's report.
    pub fn to_pairs(&self) -> Vec<(&'static str, u64)> {
        ALL.iter().map(|&(c, name)| (name, self.get(c))).collect()
    }

    pub fn from_pairs(lookup: impl Fn(&str) -> Option<u64>) -> Option<Snapshot> {
        let mut s = Snapshot::default();
        for &(c, name) in &ALL {
            s.0[c as usize] = lookup(name)?;
        }
        Some(s)
    }
}

const ALL: [(Counter, &str); N_COUNTERS] = [
    (Counter::MemberFitNs, "member_fit_ns"),
    (Counter::MemberFits, "member_fits"),
    (Counter::MemberFitRows, "member_fit_rows"),
    (Counter::RescoreNs, "rescore_ns"),
    (Counter::RescoreRows, "rescore_rows"),
    (Counter::ShardReadNs, "shard_read_ns"),
    (Counter::ShardBytes, "shard_bytes"),
    (Counter::ShardChunks, "shard_chunks"),
];

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A base learner whose fits (plain or on a shared bin index) are
/// timed as member fits, and whose models time their scoring as
/// majority rescoring.
pub struct TracedLearner {
    inner: SharedLearner,
}

impl TracedLearner {
    pub fn wrap(inner: SharedLearner) -> SharedLearner {
        Arc::new(Self { inner })
    }
}

impl Learner for TracedLearner {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        let t0 = Instant::now();
        let model = self.inner.fit_weighted(x, y, weights, seed);
        add(Counter::MemberFitNs, elapsed_ns(t0));
        add(Counter::MemberFits, 1);
        add(Counter::MemberFitRows, y.len() as u64);
        Box::new(TracedModel(model))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        self.inner.as_binned().map(|_| self as &dyn BinnedLearner)
    }
}

impl BinnedLearner for TracedLearner {
    fn bin_request(&self) -> Option<BinRequest> {
        self.inner.as_binned().and_then(|b| b.bin_request())
    }

    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model> {
        let binned = self
            .inner
            .as_binned()
            .expect("as_binned only exposes this hook when the inner learner has it");
        let t0 = Instant::now();
        let model = binned.fit_on_bins(problem, rows, seed);
        add(Counter::MemberFitNs, elapsed_ns(t0));
        add(Counter::MemberFits, 1);
        add(Counter::MemberFitRows, rows.len() as u64);
        Box::new(TracedModel(model))
    }
}

/// A member model that times its row scoring.
pub struct TracedModel(Box<dyn Model>);

impl TracedModel {
    fn timed<R>(&self, rows: usize, f: impl FnOnce(&dyn Model) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.0.as_ref());
        add(Counter::RescoreNs, elapsed_ns(t0));
        add(Counter::RescoreRows, rows as u64);
        r
    }
}

impl Model for TracedModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        self.timed(x.rows(), |m| m.predict_proba_view(x))
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.timed(x.rows(), |m| m.predict_proba_into(x, out));
    }

    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }

    fn predict_proba_k_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.timed(x.rows(), |m| m.predict_proba_k_into(x, out));
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        self.0.snapshot()
    }

    fn feature_bound(&self) -> FeatureBound {
        self.0.feature_bound()
    }
}

/// A chunk stream whose reads are timed and counted.
pub struct TracedSource<S> {
    inner: S,
    /// Size on disk of the file each chunk after a reset is read from,
    /// in order: the bytes a pass reads, headers and checksums included.
    file_bytes: Vec<u64>,
    next: usize,
}

impl<S: ChunkedSource> TracedSource<S> {
    pub fn new(inner: S, file_bytes: Vec<u64>) -> Self {
        Self {
            inner,
            file_bytes,
            next: 0,
        }
    }
}

impl<S: ChunkedSource> ChunkedSource for TracedSource<S> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn total_rows_hint(&self) -> Option<u64> {
        self.inner.total_rows_hint()
    }

    fn reset(&mut self) -> Result<(), SpeError> {
        self.next = 0;
        self.inner.reset()
    }

    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError> {
        let t0 = Instant::now();
        let more = self.inner.next_chunk(out)?;
        add(Counter::ShardReadNs, elapsed_ns(t0));
        if more {
            let bytes = self.file_bytes.get(self.next).ok_or_else(|| {
                SpeError::InvalidConfig(format!(
                    "chunk {} has no file among the {} listed",
                    self.next,
                    self.file_bytes.len()
                ))
            })?;
            add(Counter::ShardBytes, *bytes);
            add(Counter::ShardChunks, 1);
            self.next += 1;
        }
        Ok(more)
    }
}

/// Wall time of `f` in milliseconds, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// The bin index the in-memory fit would build for `x` when training
/// `positives` minority rows against `negatives` majority rows, timed
/// by a direct call with the same arguments; 0 when the fit would not
/// bin (too few rows for the learner's request).
pub fn bin_build_ms(learner: &dyn Learner, x: &Matrix, positives: usize, negatives: usize) -> f64 {
    let Some(req) = learner.as_binned().and_then(|b| b.bin_request()) else {
        return 0.0;
    };
    if positives + positives.min(negatives) < req.min_rows {
        return 0.0;
    }
    let (ms, bins) = time_ms(|| BinIndex::build(x, req.max_bins));
    std::hint::black_box(bins);
    ms
}
