//! Request-granular scoring engine.
//!
//! Single-row scoring of an ensemble is overhead-dominated, so the
//! engine scores queued requests in batches. Each request is one *unit*
//! — its rows as one row-major block, one rendezvous slot, one deadline.
//! A scheduler thread takes whole units off the queue until it holds
//! `max_batch` rows (a larger unit is scored whole), scores them in one
//! call fanned out across the shared `spe-runtime` pool, and fills one
//! slot per unit. It never waits on a timer while work is queued:
//! units arriving while a batch is scored form the next batch, so a lone
//! request is scored at once and batches grow with load. Queue depth
//! and capacity are counted in rows.
//!
//! Every unit is scored k-wide (`[rows × n_classes]`); a binary score is
//! a view of that output ([`scalar_score`]), so binary and k-class
//! requests share one queue, one deadline and one failure contract.
//!
//! The model lives behind an `RwLock`ed registry slot, so a retrained
//! model can be hot-swapped with [`ScoringEngine::swap_model`] while
//! requests are in flight: in-flight batches finish on the Arc they
//! already cloned, later batches pick up the new model. Nothing blocks
//! for longer than the pointer swap.
//!
//! Scoring runs on one of two backends selected by [`ScoreBackend`]:
//! the plain f64 path through the model itself, or the
//! [quantized](crate::quantize) u8 kernel compiled from the model's
//! snapshot. Both produce bit-identical probabilities; `Auto` (the
//! default) quantizes when the model supports it and silently keeps the
//! f64 path otherwise.

use crate::error::ServeError;
use crate::quantize::QuantizedModel;
use parking_lot::{Condvar, Mutex, RwLock};
use spe_data::{Matrix, MatrixView};
use spe_learners::Model;
use spe_runtime::Runtime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which kernel the engine scores with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreBackend {
    /// Always traverse the model's own f64 representation.
    F64,
    /// Require the quantized u8 kernel; [`ScoringEngine::start`] and
    /// [`ScoringEngine::swap_model`] fail with
    /// [`ServeError::Unquantizable`] if the model cannot compile.
    Quantized,
    /// Use the quantized kernel when the model compiles, the f64 path
    /// otherwise. [`ScoringEngine::backend`] reports which one won.
    #[default]
    Auto,
}

/// Tuning knobs for the [`ScoringEngine`]. Build with
/// [`EngineConfig::builder`], which validates the parameters instead of
/// clamping them; `EngineConfig::default()` is the builder's default.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Rows at which the scheduler stops gathering units into a batch;
    /// units are never split, so a larger request is still scored whole.
    pub max_batch: usize,
    /// Queue capacity in rows; a submission whose rows do not fit fails
    /// fast with [`ServeError::QueueFull`] so overload backpressures the
    /// caller instead of growing an unbounded buffer.
    pub queue_capacity: usize,
    /// Scoring kernel selection.
    pub backend: ScoreBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
            backend: ScoreBackend::Auto,
        }
    }
}

impl EngineConfig {
    /// Starts a builder with the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Chainable builder for [`EngineConfig`], in the style of
/// `SelfPacedEnsembleConfig::builder()`: setters accumulate, `build`
/// validates and reports problems as [`ServeError::InvalidConfig`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Rows at which the scheduler stops gathering units into a batch.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Queue capacity, in rows, before submissions fail with `QueueFull`.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Scoring kernel selection.
    pub fn backend(mut self, backend: ScoreBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, ServeError> {
        let c = &self.config;
        if c.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if c.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if c.queue_capacity < c.max_batch {
            return Err(ServeError::InvalidConfig(format!(
                "queue_capacity ({}) must hold at least one full batch ({})",
                c.queue_capacity, c.max_batch
            )));
        }
        Ok(self.config)
    }
}

/// Rolling latency window: enough batches to estimate a stable p99
/// without unbounded growth.
const LATENCY_WINDOW: usize = 4096;

/// Counters published by [`ScoringEngine::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Rows accepted through the queue ([`ScoringEngine::submit`] and
    /// [`ScoringEngine::submit_rows`]).
    pub requests: u64,
    /// Batches flushed by the scheduler.
    pub batches: u64,
    /// Rows scored through the direct [`ScoringEngine::score_matrix`]
    /// path (these bypass the queue and are not in `requests`).
    pub direct_rows: u64,
    /// Deepest the queue has ever been, in rows, counting the accepted
    /// submission itself. Never exceeds the queue capacity.
    pub queue_high_water: usize,
    /// Median batch service time (gather + scoring), microseconds.
    /// Zero until the first batch completes.
    pub p50_batch_latency_us: u64,
    /// 99th-percentile batch service time, microseconds.
    pub p99_batch_latency_us: u64,
    /// Times a new model was installed via hot swap.
    pub model_swaps: u64,
}

/// Mutable statistics shared between submitters and the scheduler.
#[derive(Default)]
struct StatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    direct_rows: AtomicU64,
    queue_high_water: AtomicUsize,
    model_swaps: AtomicU64,
    /// Rolling window of batch service times in µs.
    latencies: Mutex<Vec<u64>>,
}

impl StatsInner {
    fn record_batch(&self, elapsed: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut lat = self.latencies.lock();
        if lat.len() == LATENCY_WINDOW {
            // Overwrite round-robin so the window tracks recent batches.
            let i = (self.batches.load(Ordering::Relaxed) as usize) % LATENCY_WINDOW;
            lat[i] = us;
        } else {
            lat.push(us);
        }
    }

    fn raise_high_water(&self, depth: usize) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeStats {
        let mut lat = self.latencies.lock().clone();
        lat.sort_unstable();
        let pct = |q: f64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let idx = ((lat.len() - 1) as f64 * q).round() as usize;
            lat[idx]
        };
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            direct_rows: self.direct_rows.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            p50_batch_latency_us: pct(0.50),
            p99_batch_latency_us: pct(0.99),
            model_swaps: self.model_swaps.load(Ordering::Relaxed),
        }
    }
}

/// One queued request: its rows and the slot its scores go to.
struct Unit {
    x: Matrix,
    slot: Arc<Slot>,
}

/// Rendezvous cell a submitter blocks on until the scheduler fills it
/// with the unit's row-major `[rows × n_classes]` distributions.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<Vec<f64>, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, value: Result<Vec<f64>, ServeError>) {
        *self.result.lock() = Some(value);
        self.ready.notify_all();
    }
}

/// Handle to one in-flight [`ScoringEngine::submit_rows`] unit.
#[must_use = "wait on the pending unit to get its scores"]
pub struct PendingRows {
    slot: Arc<Slot>,
}

impl PendingRows {
    /// Blocks until the scheduler scores this unit's batch, returning
    /// its row-major `[rows × n_classes]` distributions.
    ///
    /// Always completes: engine shutdown drains the queue, scoring every
    /// accepted unit before the scheduler exits.
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        self.wait_until(None)
    }

    /// Blocks at most `timeout`, then fails with
    /// [`ServeError::DeadlineExceeded`] — so a wedged model can never
    /// hang a connection. The deadline is checked before the result, so
    /// a zero timeout always misses. A late unit is still scored; its
    /// result is discarded when the abandoned slot drops.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<f64>, ServeError> {
        self.wait_until(Instant::now().checked_add(timeout))
    }

    fn wait_until(self, deadline: Option<Instant>) -> Result<Vec<f64>, ServeError> {
        let mut guard = self.slot.result.lock();
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ServeError::DeadlineExceeded);
            }
            if let Some(res) = guard.take() {
                return res;
            }
            // A spurious wake or a timeout that raced the fill both land
            // back at the checks above, so no result is ever lost.
            match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    let _ = self.slot.ready.wait_for(&mut guard, remaining);
                }
                None => self.slot.ready.wait(&mut guard),
            }
        }
    }
}

/// Handle to one in-flight single-row [`ScoringEngine::submit`].
#[must_use = "wait() on the pending score to get the probability"]
pub struct PendingScore(PendingRows);

impl PendingScore {
    /// [`PendingRows::wait`] for the row's scalar score.
    pub fn wait(self) -> Result<f64, ServeError> {
        self.0.wait().map(|dist| scalar_score(&dist))
    }

    /// [`PendingRows::wait_timeout`] for the row's scalar score.
    pub fn wait_timeout(self, timeout: Duration) -> Result<f64, ServeError> {
        self.0.wait_timeout(timeout).map(|dist| scalar_score(&dist))
    }
}

/// The scalar score of one row's class distribution, as
/// [`Model::predict_proba`] reports it: `p` of a binary `[1 − p, p]`
/// row, and `1 − P(class 0)` for more classes.
pub fn scalar_score(dist: &[f64]) -> f64 {
    if dist.len() == 2 {
        dist[1]
    } else {
        1.0 - dist[0]
    }
}

/// The served model plus its (optional) quantized compilation; both
/// swap atomically under the registry lock so a batch never mixes
/// kernels from different models.
struct ServingSlot {
    model: Arc<dyn Model>,
    quantized: Option<Arc<QuantizedModel>>,
}

impl ServingSlot {
    /// Resolves `backend` for `model`: compiles the quantized kernel
    /// when requested (hard failure for `Quantized`, silent f64
    /// fallback for `Auto`).
    fn resolve(
        model: Arc<dyn Model>,
        n_features: usize,
        backend: ScoreBackend,
    ) -> Result<Self, ServeError> {
        // Width gate first: a model that cannot score rows of the
        // engine's width is rejected at install/swap time with a typed
        // error, never discovered later as garbage scores. Covers both
        // `start` and `swap_model` (both resolve through here).
        let bound = model.feature_bound();
        if !bound.admits(n_features) {
            return Err(ServeError::ModelWidthMismatch {
                expected: n_features,
                model: bound,
            });
        }
        let compile = || -> Result<QuantizedModel, ServeError> {
            let snap = model.snapshot().ok_or_else(|| {
                ServeError::Unquantizable("model does not support snapshots".into())
            })?;
            QuantizedModel::compile(&snap, n_features)
        };
        let quantized = match backend {
            ScoreBackend::F64 => None,
            ScoreBackend::Quantized => Some(Arc::new(compile()?)),
            ScoreBackend::Auto => compile().ok().map(Arc::new),
        };
        Ok(Self { model, quantized })
    }

    /// The scorer batches should run on.
    fn active(&self) -> Arc<dyn Model> {
        match &self.quantized {
            Some(q) => Arc::clone(q) as Arc<dyn Model>,
            None => Arc::clone(&self.model),
        }
    }
}

/// State shared between the engine handle and its scheduler thread.
struct Shared {
    /// Accepted units in arrival order; the scheduler sleeps on `ready`
    /// while it is empty.
    queue: Mutex<VecDeque<Unit>>,
    ready: Condvar,
    /// Rows reserved in the queue: added by a submitter before it
    /// pushes, released by the scheduler as it takes units. A pure
    /// count (the units themselves pass through the `queue` lock), so
    /// every access is `Relaxed`.
    queued_rows: AtomicUsize,
    model: RwLock<ServingSlot>,
    stopping: AtomicBool,
    stats: StatsInner,
    config: EngineConfig,
    n_features: usize,
    /// Class count the engine serves, fixed by the initial model; swaps
    /// must match it so response rows never change width mid-stream.
    n_classes: usize,
}

/// Batched scoring engine over a hot-swappable model.
///
/// Dropping the engine performs a graceful shutdown: no new requests
/// are accepted, already-queued units are scored, and the scheduler
/// thread is joined.
pub struct ScoringEngine {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl ScoringEngine {
    /// Starts an engine serving `model` for rows of `n_features`.
    ///
    /// Fails with [`ServeError::InvalidConfig`] on out-of-range
    /// parameters (hand-built configs bypassing
    /// [`EngineConfig::builder`] are re-validated here), with
    /// [`ServeError::Unquantizable`] when `config.backend` demands the
    /// quantized kernel and the model cannot compile, and with
    /// [`ServeError::Io`] if the scheduler thread cannot spawn.
    pub fn start(
        model: Box<dyn Model>,
        n_features: usize,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let config = EngineConfigBuilder { config }.build()?;
        let slot = ServingSlot::resolve(Arc::from(model), n_features, config.backend)?;
        let n_classes = slot.model.n_classes();
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            ready: Condvar::default(),
            queued_rows: AtomicUsize::default(),
            model: RwLock::new(slot),
            stopping: AtomicBool::new(false),
            stats: StatsInner::default(),
            config,
            n_features,
            n_classes,
        });
        let worker = Arc::clone(&shared);
        // The scheduler fans batches out with the parallelism of the
        // thread that started the engine.
        let runtime = Runtime::with_threads(spe_runtime::current_threads());
        let scheduler = std::thread::Builder::new()
            .name("spe-serve-scheduler".into())
            .spawn(move || runtime.install(|| scheduler_loop(&worker)))
            .map_err(|e| ServeError::Io(format!("failed to spawn scheduler thread: {e}")))?;
        Ok(Self {
            shared,
            scheduler: Some(scheduler),
        })
    }

    /// The backend the *current* model actually scores on — `Quantized`
    /// only when a compiled kernel is installed. An `Auto` engine
    /// reports what auto-selection picked.
    pub fn backend(&self) -> ScoreBackend {
        if self.shared.model.read().quantized.is_some() {
            ScoreBackend::Quantized
        } else {
            ScoreBackend::F64
        }
    }

    /// Enqueues one row for batched scoring: a one-row
    /// [`submit_rows`](Self::submit_rows) resolving to its scalar score.
    pub fn submit(&self, row: &[f64]) -> Result<PendingScore, ServeError> {
        self.submit_rows(Matrix::from_vec(1, row.len(), row.to_vec()))
            .map(PendingScore)
    }

    /// Enqueues one request's rows, moved not copied, as one unit that is
    /// scored whole within one batch. Fails fast with
    /// [`ServeError::QueueFull`] when the rows do not fit in the queue and
    /// [`ServeError::RowWidthMismatch`] on a wrong-width block.
    pub fn submit_rows(&self, x: Matrix) -> Result<PendingRows, ServeError> {
        self.admit(x.view())?;
        let shared = &*self.shared;
        let rows = x.rows();
        let capacity = shared.config.queue_capacity;
        // One atomic add reserves the rows, so concurrent submitters can
        // never overshoot the capacity between a check and a push.
        let depth = shared.queued_rows.fetch_add(rows, Ordering::Relaxed) + rows;
        if depth > capacity {
            shared.queued_rows.fetch_sub(rows, Ordering::Relaxed);
            return Err(ServeError::QueueFull { capacity });
        }
        let slot = Arc::new(Slot::default());
        shared.queue.lock().push_back(Unit {
            x,
            slot: Arc::clone(&slot),
        });
        shared.ready.notify_one();
        shared
            .stats
            .requests
            .fetch_add(rows as u64, Ordering::Relaxed);
        shared.stats.raise_high_water(depth);
        Ok(PendingRows { slot })
    }

    /// Scores a whole matrix synchronously, bypassing the queue.
    ///
    /// Rows fan out across the shared runtime in contiguous chunks; the
    /// output is bit-identical to scoring the matrix in one call.
    pub fn score_matrix(&self, x: &Matrix) -> Result<Vec<f64>, ServeError> {
        let mut out = vec![0.0; x.rows()];
        self.score_into(x.view(), &mut out)?;
        Ok(out)
    }

    /// Scores a borrowed row block into a caller-owned buffer — the
    /// zero-alloc direct path: the input is a view, the output is the
    /// caller's slice, and the backend's scratch is thread-local. Blocks
    /// fan out across the shared runtime exactly as queued batches do.
    pub fn score_into(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), ServeError> {
        self.score_direct(x, out, 1)
    }

    /// Installs a new model; later batches score against it.
    ///
    /// In-flight batches finish on the model they already hold, so
    /// there is no downtime and no torn batch. The configured
    /// [`ScoreBackend`] is re-resolved for the new model; on a
    /// `Quantized` engine a model that cannot compile is rejected and
    /// the old model keeps serving.
    pub fn swap_model(&self, model: Box<dyn Model>) -> Result<(), ServeError> {
        // Class gate, symmetric to the feature-width gate in `resolve`:
        // a swap target scoring a different number of classes would
        // change every k-wide response row's width under live clients.
        if model.n_classes() != self.shared.n_classes {
            return Err(ServeError::ModelClassMismatch {
                expected: self.shared.n_classes,
                got: model.n_classes(),
            });
        }
        let slot = ServingSlot::resolve(
            Arc::from(model),
            self.shared.n_features,
            self.shared.config.backend,
        )?;
        *self.shared.model.write() = slot;
        self.shared
            .stats
            .model_swaps
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rows currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued_rows.load(Ordering::Relaxed)
    }

    /// The configured queue capacity (admission controllers watermark
    /// against this).
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.queue_capacity
    }

    /// Rows at which the scheduler stops gathering units into a batch.
    pub fn max_batch(&self) -> usize {
        self.shared.config.max_batch
    }

    /// Row width this engine was started for.
    pub fn n_features(&self) -> usize {
        self.shared.n_features
    }

    /// Classes per response row, fixed by the model the engine started
    /// with (2 for every binary model).
    pub fn n_classes(&self) -> usize {
        self.shared.n_classes
    }

    /// Scores a whole matrix into row-major `[rows × n_classes]`
    /// probability distributions, bypassing the queue.
    pub fn score_classes_matrix(&self, x: &Matrix) -> Result<Vec<f64>, ServeError> {
        let mut out = vec![0.0; x.rows() * self.shared.n_classes];
        self.score_classes_into(x.view(), &mut out)?;
        Ok(out)
    }

    /// K-wide twin of [`ScoringEngine::score_into`]: writes each row's
    /// full class distribution into the caller's row-major
    /// `[rows × n_classes]` buffer.
    pub fn score_classes_into(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), ServeError> {
        self.score_direct(x, out, self.shared.n_classes)
    }

    /// Rejects work for a stopped engine or rows of the wrong width.
    fn admit(&self, x: MatrixView<'_>) -> Result<(), ServeError> {
        if self.shared.stopping.load(Ordering::Acquire) {
            return Err(ServeError::EngineStopped);
        }
        if x.cols() != self.shared.n_features && x.rows() > 0 {
            return Err(ServeError::RowWidthMismatch {
                expected: self.shared.n_features,
                got: x.cols(),
            });
        }
        Ok(())
    }

    /// The direct paths: `width` 1 writes scalar probabilities, any
    /// other width the model's `width`-class distributions.
    fn score_direct(
        &self,
        x: MatrixView<'_>,
        out: &mut [f64],
        width: usize,
    ) -> Result<(), ServeError> {
        self.admit(x)?;
        if out.len() != x.rows() * width {
            return Err(ServeError::OutputLengthMismatch {
                expected: x.rows() * width,
                got: out.len(),
            });
        }
        let model = self.shared.model.read().active();
        fan_out(x, out, width, |x, out| {
            if width == 1 {
                model.predict_proba_into(x, out);
            } else {
                model.predict_proba_k_into(x, out);
            }
        });
        self.shared
            .stats
            .direct_rows
            .fetch_add(x.rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }
}

impl Drop for ScoringEngine {
    fn drop(&mut self) {
        // Raised under the queue lock so the scheduler cannot miss it
        // between its emptiness check and its wait.
        {
            let _queue = self.shared.queue.lock();
            self.shared.stopping.store(true, Ordering::Release);
        }
        self.shared.ready.notify_one();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // The scheduler drains every accepted unit before it exits; if
        // it died instead, fail what it left with a typed error so no
        // waiter is ever left blocked on a dead engine.
        for unit in self.shared.queue.lock().drain(..) {
            unit.slot.fill(Err(ServeError::Shutdown));
        }
    }
}

/// Scores `x` into `out` (`width` values per row) through `score`,
/// fanning blocks larger than one chunk out across the shared runtime.
/// Chunk geometry mirrors `par_chunks` (≥64 rows, ≤4 chunks per
/// thread); per-row results are chunk-independent, so the output is
/// bit-identical for every thread count and batch split.
fn fan_out(
    x: MatrixView<'_>,
    out: &mut [f64],
    width: usize,
    score: impl Fn(MatrixView<'_>, &mut [f64]) + Sync,
) {
    let threads = spe_runtime::current_threads().max(1);
    let chunk_len = x.rows().div_ceil(threads * 4).max(64);
    if threads <= 1 || x.rows() <= chunk_len {
        // One worker (or one chunk) gains nothing from splitting.
        score(x, out);
        return;
    }
    let mut chunks: Vec<&mut [f64]> = out.chunks_mut(chunk_len * width).collect();
    spe_runtime::par_for_each_mut(&mut chunks, |i, chunk| {
        let start = i * chunk_len;
        score(x.rows_range(start..start + chunk.len() / width), chunk);
    });
}

fn scheduler_loop(shared: &Shared) {
    // Buffers reused across batches: the units, the gathered row-major
    // block of a multi-unit batch and the probability output.
    let mut batch: Vec<Unit> = Vec::new();
    let mut gathered: Vec<f64> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    while take_batch(shared, &mut batch) {
        score_batch(shared, &mut batch, &mut gathered, &mut probs);
    }
}

/// Blocks until work is queued — never on a timer — then moves whole
/// units into `batch` in arrival order until it holds `max_batch` rows
/// or the queue is empty; units are never split, so the last one may
/// carry the batch past `max_batch`. False once the engine is stopping
/// and the queue is empty.
fn take_batch(shared: &Shared, batch: &mut Vec<Unit>) -> bool {
    let mut queue = shared.queue.lock();
    while queue.is_empty() {
        if shared.stopping.load(Ordering::Acquire) {
            return false;
        }
        shared.ready.wait(&mut queue);
    }
    let mut rows = 0;
    while rows < shared.config.max_batch {
        let Some(unit) = queue.pop_front() else { break };
        rows += unit.x.rows();
        batch.push(unit);
    }
    drop(queue);
    shared.queued_rows.fetch_sub(rows, Ordering::Relaxed);
    true
}

/// Scores a batch in one call and fills one slot per unit, draining
/// `batch`.
fn score_batch(
    shared: &Shared,
    batch: &mut Vec<Unit>,
    gathered: &mut Vec<f64>,
    probs: &mut Vec<f64>,
) {
    let started = Instant::now();
    let k = shared.n_classes;
    let rows: usize = batch.iter().map(|unit| unit.x.rows()).sum();
    // A lone unit is scored in place; several are gathered first.
    let x = match batch.as_slice() {
        [unit] => unit.x.view(),
        units => {
            gathered.clear();
            for unit in units {
                gathered.extend_from_slice(unit.x.as_slice());
            }
            MatrixView::from_slice(gathered, rows, shared.n_features)
        }
    };
    probs.clear();
    probs.resize(rows * k, 0.0);
    // One model per batch: a hot swap lands between batches, never
    // inside one.
    let model = shared.model.read().active();
    // A misbehaving custom model (wrong output length, internal panic)
    // must fail the batch with a typed error, not kill the scheduler
    // thread and hang every waiter.
    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fan_out(x, probs, k, |x, out| model.predict_proba_k_into(x, out));
    }))
    .is_ok();
    // Record before filling any slot: a waiter released by `fill` may
    // read the stats immediately and must already see this batch.
    shared.stats.record_batch(started.elapsed());
    let mut at = 0;
    for unit in batch.drain(..) {
        let len = unit.x.rows() * k;
        unit.slot.fill(if scored {
            Ok(probs[at..at + len].to_vec())
        } else {
            Err(ServeError::Corrupt(
                "model panicked while scoring the batch".into(),
            ))
        });
        at += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_learners::traits::ConstantModel;

    /// Model that reports each row's first feature as its probability —
    /// makes result/request alignment checkable.
    struct Echo;
    impl Model for Echo {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            x.iter_rows().map(|r| r[0]).collect()
        }
    }

    fn engine(model: Box<dyn Model>) -> ScoringEngine {
        ScoringEngine::start(model, 2, EngineConfig::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn submit_scores_through_the_batcher() {
        let e = engine(Box::new(Echo));
        let pending: Vec<_> = (0..10)
            .map(|i| {
                e.submit(&[f64::from(i) / 10.0, 0.0])
                    .unwrap_or_else(|err| panic!("{err}"))
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let got = p.wait().unwrap_or_else(|err| panic!("{err}"));
            assert!((got - i as f64 / 10.0).abs() < 1e-12);
        }
        let stats = e.stats();
        assert_eq!(stats.requests, 10);
        assert!(stats.batches >= 1);
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn wrong_width_row_rejected() {
        let e = engine(Box::new(ConstantModel(0.5)));
        assert_eq!(
            e.submit(&[1.0]).map(|_| ()),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            e.score_matrix(&Matrix::zeros(3, 5)).map(|_| ()),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 5
            })
        );
    }

    /// Scores correctly but slowly — keeps the scheduler busy so tests
    /// can fill the queue deterministically.
    struct Slow;
    impl Model for Slow {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            std::thread::sleep(Duration::from_millis(40));
            vec![0.5; x.rows()]
        }
    }

    #[test]
    fn queue_overflow_backpressures() {
        let cfg = EngineConfig::builder()
            .queue_capacity(4)
            .max_batch(1)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(Slow), 1, cfg).unwrap_or_else(|e| panic!("{e}"));
        // First row gets pulled into a (slow) batch almost immediately.
        let mut pending = vec![e.submit(&[0.0]).unwrap_or_else(|err| panic!("{err}"))];
        std::thread::sleep(Duration::from_millis(10));
        // The scheduler is now asleep inside predict_proba; these four
        // fill the queue and the next submit must shed load.
        let mut overflowed = false;
        for _ in 0..32 {
            match e.submit(&[0.0]) {
                Ok(p) => pending.push(p),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 4);
                    overflowed = true;
                    break;
                }
                Err(other) => panic!("{other}"),
            }
        }
        assert!(overflowed, "queue never filled");
        drop(e); // shutdown drains the queue...
        for p in pending {
            assert_eq!(p.wait(), Ok(0.5)); // ...so every accepted row resolves
        }
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let e = engine(Box::new(ConstantModel(0.25)));
        let pending: Vec<_> = (0..32)
            .map(|_| e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}")))
            .collect();
        drop(e);
        for p in pending {
            assert_eq!(p.wait(), Ok(0.25));
        }
    }

    #[test]
    fn submit_after_drop_is_rejected() {
        let e = engine(Box::new(ConstantModel(0.5)));
        let shared = Arc::clone(&e.shared);
        drop(e);
        assert!(shared.stopping.load(Ordering::Acquire));
    }

    #[test]
    fn hot_swap_changes_later_scores() {
        let e = engine(Box::new(ConstantModel(0.1)));
        let before = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(before.wait(), Ok(0.1));
        e.swap_model(Box::new(ConstantModel(0.9)))
            .unwrap_or_else(|err| panic!("{err}"));
        let after = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(after.wait(), Ok(0.9));
        assert_eq!(e.stats().model_swaps, 1);
    }

    #[test]
    fn score_matrix_matches_direct_prediction() {
        let e = engine(Box::new(Echo));
        let x = Matrix::from_vec(4, 2, vec![0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0]);
        let got = e.score_matrix(&x).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(got, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(e.stats().direct_rows, 4);
        // Empty input short-circuits without a width check.
        assert_eq!(
            e.score_matrix(&Matrix::zeros(0, 0))
                .unwrap_or_else(|err| panic!("{err}")),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn score_into_matches_score_matrix_and_checks_buffer() {
        let e = engine(Box::new(Echo));
        let x = Matrix::from_vec(4, 2, vec![0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0]);
        let mut buf = vec![0.0; 4];
        e.score_into(x.view(), &mut buf)
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(
            buf,
            e.score_matrix(&x).unwrap_or_else(|err| panic!("{err}"))
        );
        let mut short = vec![0.0; 3];
        assert!(matches!(
            e.score_into(x.view(), &mut short),
            Err(ServeError::OutputLengthMismatch {
                expected: 4,
                got: 3
            })
        ));
        let wide = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let mut one = vec![0.0; 1];
        assert!(matches!(
            e.score_into(wide.view(), &mut one),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn latency_percentiles_populate() {
        let e = engine(Box::new(Echo));
        for _ in 0..5 {
            let p = e.submit(&[0.5, 0.0]).unwrap_or_else(|err| panic!("{err}"));
            let _ = p.wait();
        }
        let s = e.stats();
        assert!(s.p50_batch_latency_us <= s.p99_batch_latency_us);
    }

    #[test]
    fn builder_rejects_bad_params() {
        let zero_batch = EngineConfig::builder().max_batch(0).build();
        assert!(matches!(zero_batch, Err(ServeError::InvalidConfig(_))));
        let zero_queue = EngineConfig::builder().queue_capacity(0).build();
        assert!(matches!(zero_queue, Err(ServeError::InvalidConfig(_))));
        let queue_lt_batch = EngineConfig::builder()
            .max_batch(64)
            .queue_capacity(8)
            .build();
        assert!(matches!(queue_lt_batch, Err(ServeError::InvalidConfig(_))));
        // `start` re-validates so a hand-built struct literal can't
        // smuggle a bad config past the builder.
        let cfg = EngineConfig {
            max_batch: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            ScoringEngine::start(Box::new(Echo), 2, cfg).map(|_| ()),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn backend_selection_and_fallback() {
        // Echo has no snapshot: Quantized is a hard error, Auto falls
        // back to the f64 path and keeps serving.
        let want_quantized = EngineConfig::builder()
            .backend(ScoreBackend::Quantized)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            ScoringEngine::start(Box::new(Echo), 2, want_quantized).map(|_| ()),
            Err(ServeError::Unquantizable(_))
        ));
        let e = engine(Box::new(Echo));
        assert_eq!(e.backend(), ScoreBackend::F64);
        let p = e.submit(&[0.75, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.75));
        // A quantizable swap target upgrades the slot in place.
        e.swap_model(Box::new(ConstantModel(0.5)))
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(e.backend(), ScoreBackend::Quantized);
        let p = e.submit(&[0.1, 0.2]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.5));
    }

    #[test]
    fn swap_failure_keeps_old_model_serving() {
        let cfg = EngineConfig::builder()
            .backend(ScoreBackend::Quantized)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(ConstantModel(0.3)), 2, cfg)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            e.swap_model(Box::new(Echo)),
            Err(ServeError::Unquantizable(_))
        ));
        assert_eq!(e.stats().model_swaps, 0);
        let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.3));
    }

    #[test]
    fn wait_timeout_returns_deadline_exceeded_then_result_is_discarded() {
        let cfg = EngineConfig::builder()
            .max_batch(1)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(Slow), 1, cfg).unwrap_or_else(|e| panic!("{e}"));
        // Slow sleeps 40ms per batch; a 2ms deadline must miss.
        let p = e.submit(&[0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(
            p.wait_timeout(Duration::from_millis(2)),
            Err(ServeError::DeadlineExceeded)
        );
        // The engine is not poisoned: a generous deadline succeeds.
        let p = e.submit(&[0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait_timeout(Duration::from_secs(10)), Ok(0.5));
    }

    #[test]
    fn concurrent_submitters_racing_drop_never_hang() {
        // Regression: a submit that wins the stopping-flag race but
        // pushes after the scheduler's final drain must still resolve —
        // with Ok (scheduler saw it) or the typed Shutdown error (drop
        // drained it) — never block forever.
        for _ in 0..20 {
            let e = Arc::new(engine(Box::new(ConstantModel(0.5))));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let eng = Arc::clone(&e);
                handles.push(std::thread::spawn(move || {
                    let mut outcomes = Vec::new();
                    for _ in 0..50 {
                        match eng.submit(&[0.0, 0.0]) {
                            Ok(p) => outcomes.push(p),
                            Err(ServeError::EngineStopped) => break,
                            Err(ServeError::QueueFull { .. }) => continue,
                            Err(other) => panic!("{other}"),
                        }
                    }
                    for p in outcomes {
                        match p.wait() {
                            Ok(v) => assert_eq!(v, 0.5),
                            Err(ServeError::Shutdown) => {}
                            Err(other) => panic!("{other}"),
                        }
                    }
                }));
            }
            drop(e); // submitters hold their own Arcs; last one drops the engine
            for h in handles {
                h.join().unwrap_or_else(|_| panic!("submitter panicked"));
            }
        }
    }

    /// Model claiming an exact 5-feature width, for install-gate tests.
    struct Wide;
    impl Model for Wide {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            vec![0.5; x.rows()]
        }
        fn feature_bound(&self) -> spe_learners::FeatureBound {
            spe_learners::FeatureBound::Exact(5)
        }
    }

    #[test]
    fn width_mismatched_model_rejected_at_start_and_swap() {
        assert!(matches!(
            ScoringEngine::start(Box::new(Wide), 2, EngineConfig::default()).map(|_| ()),
            Err(ServeError::ModelWidthMismatch { expected: 2, .. })
        ));
        let e = engine(Box::new(ConstantModel(0.5)));
        assert!(matches!(
            e.swap_model(Box::new(Wide)),
            Err(ServeError::ModelWidthMismatch { expected: 2, .. })
        ));
        // The rejected swap left the old model serving.
        assert_eq!(e.stats().model_swaps, 0);
        let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.5));
    }

    fn tri_class() -> Box<dyn Model> {
        Box::new(spe_learners::OneVsRestModel::new(vec![
            Box::new(ConstantModel(0.2)),
            Box::new(ConstantModel(0.3)),
            Box::new(ConstantModel(0.5)),
        ]))
    }

    #[test]
    fn class_mismatched_swap_rejected() {
        let e = engine(Box::new(ConstantModel(0.5)));
        assert_eq!(e.n_classes(), 2);
        assert!(matches!(
            e.swap_model(tri_class()),
            Err(ServeError::ModelClassMismatch {
                expected: 2,
                got: 3
            })
        ));
        assert_eq!(e.stats().model_swaps, 0);
        let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.5));
    }

    #[test]
    fn score_classes_emits_full_distributions() {
        let e = ScoringEngine::start(tri_class(), 2, EngineConfig::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(e.n_classes(), 3);
        let x = Matrix::zeros(2, 2);
        let dist = e
            .score_classes_matrix(&x)
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(dist, vec![0.2, 0.3, 0.5, 0.2, 0.3, 0.5]);
        // A same-k swap is accepted.
        e.swap_model(tri_class())
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(e.stats().model_swaps, 1);
        // Binary engines expand the scalar probability to [1-p, p].
        let b = engine(Box::new(ConstantModel(0.25)));
        assert_eq!(
            b.score_classes_matrix(&Matrix::zeros(1, 2))
                .unwrap_or_else(|err| panic!("{err}")),
            vec![0.75, 0.25]
        );
        // The buffer must hold rows * k slots.
        let mut short = vec![0.0; 4];
        assert!(matches!(
            e.score_classes_into(x.view(), &mut short),
            Err(ServeError::OutputLengthMismatch {
                expected: 6,
                got: 4
            })
        ));
    }

    /// Model that panics while scoring — the batch must resolve to
    /// `Corrupt` errors instead of hanging every waiter.
    struct Panicky;
    impl Model for Panicky {
        fn predict_proba_view(&self, _x: MatrixView<'_>) -> Vec<f64> {
            panic!("boom");
        }
    }

    #[test]
    fn panicking_model_fails_the_batch_not_the_engine() {
        let e = engine(Box::new(Panicky));
        let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert!(matches!(p.wait(), Err(ServeError::Corrupt(_))));
        // Scheduler survived; a healthy swap restores service.
        e.swap_model(Box::new(ConstantModel(0.6)))
            .unwrap_or_else(|err| panic!("{err}"));
        let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Ok(0.6));
    }

    /// Echoes each row's first feature, but its first call blocks until
    /// the test releases it — holds the scheduler inside a batch while
    /// the test queues more units.
    struct Gated(Mutex<Option<std::sync::mpsc::Receiver<()>>>);
    impl Model for Gated {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            let gate = self.0.lock().take();
            if let Some(gate) = gate {
                let _ = gate.recv();
            }
            x.iter_rows().map(|r| r[0]).collect()
        }
    }

    #[test]
    fn coalesced_units_get_back_their_own_rows_in_order() {
        let max_batch = 64;
        for threads in [1, 2] {
            Runtime::with_threads(threads).install(|| {
                let (release, gate) = std::sync::mpsc::channel();
                let cfg = EngineConfig::builder()
                    .max_batch(max_batch)
                    .queue_capacity(256)
                    .build()
                    .unwrap_or_else(|e| panic!("{e}"));
                let e = ScoringEngine::start(Box::new(Gated(Mutex::new(Some(gate)))), 2, cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
                let first = e.submit(&[0.5, 0.0]).unwrap_or_else(|err| panic!("{err}"));
                // The scheduler has taken the first unit once the queue
                // is empty again; it is now blocked inside the gate.
                while e.queue_depth() > 0 {
                    std::thread::yield_now();
                }
                let sizes = [1, 5, 3 * max_batch];
                let value = |u: usize, i: usize| (u * 1000 + i) as f64 / 1e4;
                let pending: Vec<_> = sizes
                    .iter()
                    .enumerate()
                    .map(|(u, &rows)| {
                        let mut x = Matrix::with_capacity(rows, 2);
                        for i in 0..rows {
                            x.push_row(&[value(u, i), 1.0]);
                        }
                        e.submit_rows(x).unwrap_or_else(|err| panic!("{err}"))
                    })
                    .collect();
                assert_eq!(e.queue_depth(), 1 + 5 + 3 * max_batch);
                release.send(()).unwrap_or_else(|err| panic!("{err}"));
                assert_eq!(first.wait(), Ok(0.5));
                for (u, (p, &rows)) in pending.into_iter().zip(&sizes).enumerate() {
                    let dist = p.wait().unwrap_or_else(|err| panic!("{err}"));
                    let want: Vec<f64> = (0..rows)
                        .flat_map(|i| [1.0 - value(u, i), value(u, i)])
                        .collect();
                    assert_eq!(dist, want, "unit {u} under {threads} threads");
                }
                let stats = e.stats();
                assert_eq!(stats.batches, 2, "the three units shared one batch");
                assert_eq!(stats.requests, (2 + 5 + 3 * max_batch) as u64);
            });
        }
    }

    #[test]
    fn queue_capacity_is_a_hard_bound_under_concurrent_submits() {
        let capacity = 16;
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .queue_capacity(capacity)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = Arc::new(
            ScoringEngine::start(Box::new(Slow), 1, cfg).unwrap_or_else(|e| panic!("{e}")),
        );
        let submitters = 8;
        let barrier = Arc::new(std::sync::Barrier::new(submitters));
        let handles: Vec<_> = (0..submitters)
            .map(|_| {
                let (e, barrier) = (Arc::clone(&e), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut accepted = Vec::new();
                    for _ in 0..6 {
                        match e.submit_rows(Matrix::zeros(3, 1)) {
                            Ok(p) => accepted.push(p),
                            Err(ServeError::QueueFull { .. }) => {}
                            Err(other) => panic!("{other}"),
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: Vec<PendingRows> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| panic!("submitter panicked")))
            .collect();
        assert!(!accepted.is_empty());
        assert!(accepted.len() < submitters * 6, "the queue never filled");
        let high_water = e.stats().queue_high_water;
        assert!(high_water <= capacity, "{high_water} > {capacity}");
        for p in accepted {
            assert_eq!(p.wait(), Ok(vec![0.5; 6]));
        }
    }

    #[test]
    fn zero_timeout_always_misses() {
        let e = engine(Box::new(ConstantModel(0.5)));
        for _ in 0..50 {
            let p = e.submit(&[0.0, 0.0]).unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(
                p.wait_timeout(Duration::ZERO),
                Err(ServeError::DeadlineExceeded)
            );
        }
    }
}
