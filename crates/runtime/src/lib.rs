//! # spe-runtime
//!
//! Shared deterministic thread-pool runtime for the self-paced-ensemble
//! workspace.
//!
//! All parallelism in the workspace flows through two primitives backed
//! by one lazily-initialized work-stealing pool:
//!
//! * [`par_map_indexed`] — maps a function over `0..n`, returning
//!   results in input order. Used for per-member ensemble training and
//!   per-row prediction.
//! * [`par_chunks`] — splits `0..n` into contiguous index ranges and
//!   processes each range on some thread, with results stitched back in
//!   range order. Used for batch k-NN and soft-vote aggregation, where
//!   per-item dispatch would be too fine-grained.
//!
//! ## Determinism contract
//!
//! Both primitives guarantee: **the output is a pure function of the
//! inputs — never of the thread count or schedule.** Results are written
//! by input index; chunk boundaries depend only on `n` and the
//! parallelism cap, and each item's computation must not depend on its
//! chunk-mates (all workspace callers satisfy this). Randomized callers
//! derive per-task seeds with [`seed::fork_seed`] *before* dispatch, so
//! `SPE_THREADS=1` and `SPE_THREADS=32` produce bit-for-bit identical
//! models.
//!
//! ## Thread-count resolution
//!
//! 1. [`Runtime::with_threads`] installed via [`Runtime::install`]
//!    (scoped, per-thread);
//! 2. the `SPE_THREADS` environment variable (read once, when the
//!    global pool first initializes);
//! 3. hardware parallelism.

pub mod budget;
pub mod config;
pub mod pool;
pub mod seed;

pub use budget::{budget_exceeded, TrainingBudget};
pub use config::{current_threads, Runtime};
pub use pool::{default_threads, global, Pool};
pub use seed::{fork_seed, fork_seeds, splitmix64};

/// Maps `f` over `0..n` in parallel, collecting results in index order.
///
/// `f` runs at most once per index; the output at position `i` is
/// exactly `f(i)`. With an effective thread count of 1 (or `n <= 1`)
/// this degrades to a plain sequential loop with no pool involvement.
///
/// The caller's scoped state — the installed [`Runtime`] thread cap and
/// any [`TrainingBudget`] deadline — is captured at dispatch and
/// re-installed inside each task, so nested primitives and budget polls
/// behave identically on pool threads and on the calling thread.
///
/// Panics in `f` propagate to the caller after all in-flight tasks
/// finish. Use [`try_par_map_indexed`] to capture panics per-task
/// instead.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    let threads = current_threads();
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cap = config::installed_cap();
    let deadline = budget::current_deadline();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    {
        let f = &f;
        let deadline = &deadline;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    let r =
                        config::with_cap(cap, || budget::with_deadline(deadline.clone(), || f(i)));
                    *slot = Some(r);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::global().run_scope(tasks);
    }
    // Every slot is filled by its task under a healthy pool. If a slot
    // ever comes back empty (a dropped-without-running task), recompute
    // it inline instead of panicking: `f` is pure by the determinism
    // contract, so the caller still gets exactly `f(i)` at position `i`
    // and a background retrain loop never dies on a pool hiccup.
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| f(i)))
        .collect()
}

/// Applies `f` to every element of `items` in parallel, handing each
/// task exclusive mutable access to its element.
///
/// This is the in-place sibling of [`par_map_indexed`]: instead of
/// collecting results, each task mutates its own slot. Histogram tree
/// training uses it to fill disjoint per-feature histogram slices
/// without per-node result allocation. The same determinism contract
/// applies — `f(i, ...)` must depend only on `i` and the element, never
/// on the schedule — and the caller's installed thread cap and budget
/// deadline are re-installed inside each task.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Send + Sync,
{
    let threads = current_threads();
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let cap = config::installed_cap();
    let deadline = budget::current_deadline();
    let f = &f;
    let deadline = &deadline;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .iter_mut()
        .enumerate()
        .map(|(i, item)| {
            Box::new(move || {
                config::with_cap(cap, || {
                    budget::with_deadline(deadline.clone(), || f(i, item))
                });
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::global().run_scope(tasks);
}

/// Splits `items` into contiguous chunks (the [`par_chunks`] ranges for
/// `min_chunk`), applies `f(start, chunk)` to each in parallel, where
/// `start` is the chunk's offset into `items`, and returns the
/// per-chunk results in chunk order.
///
/// The row-parallel sibling of [`par_for_each_mut`]: per-row kernels
/// write their own output rows, so the result is the same for every
/// thread count as long as each row's value depends only on its index.
/// Per-chunk results depend on where chunks start and end; callers
/// combine them with an operation that chunking cannot change (integer
/// sums, min/max).
pub fn par_chunks_mut<T, R, F>(items: &mut [T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Send + Sync,
{
    let ranges = chunk_ranges(items.len(), min_chunk, current_threads());
    if ranges.len() <= 1 {
        return if items.is_empty() {
            Vec::new()
        } else {
            vec![f(0, items)]
        };
    }
    let mut parts: Vec<(usize, &mut [T], Option<R>)> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    for r in &ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        parts.push((r.start, head, None));
        rest = tail;
    }
    par_for_each_mut(&mut parts, |_, (start, chunk, out)| {
        *out = Some(f(*start, chunk));
    });
    // `par_for_each_mut` runs every task or re-raises the panic of one.
    parts
        .into_iter()
        .map(|(_, _, out)| out.expect("every chunk task ran"))
        .collect()
}

/// A panic captured from one parallel task, converted to a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a caught panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_map_indexed`], but a panic in `f(i)` is captured and
/// returned as `Err(TaskPanic)` at position `i` instead of propagating:
/// one faulty item cannot take down its siblings, and the pool is never
/// poisoned. Output order and determinism guarantees are unchanged.
pub fn try_par_map_indexed<R, F>(n: usize, f: F) -> Vec<Result<R, TaskPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    par_map_indexed(n, |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).map_err(|p| TaskPanic {
            message: panic_message(p.as_ref()),
        })
    })
}

/// Splits `0..n` into contiguous ranges of at least `min_chunk` items,
/// applies `f` to each range in parallel, and returns the per-range
/// results in range order.
///
/// Chunk boundaries are a pure function of `(n, min_chunk, effective
/// thread count)` — but because callers' per-item work is independent of
/// chunk-mates, the *stitched* output is identical for every thread
/// count. Typical use flattens the returned `Vec<R>` where `R` is
/// itself a `Vec` of per-item results.
pub fn par_chunks<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Send + Sync,
{
    let ranges = chunk_ranges(n, min_chunk, current_threads());
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let f = &f;
    par_map_indexed(ranges.len(), |i| f(ranges[i].clone()))
}

/// Contiguous near-equal ranges covering `0..n`: at most
/// `threads * 4` chunks (for stealing granularity), none smaller than
/// `min_chunk` except possibly the tail-adjusted remainder.
fn chunk_ranges(n: usize, min_chunk: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let max_chunks = (threads.max(1) * 4).max(1);
    let n_chunks = (n / min_chunk).clamp(1, max_chunks);
    let base = n / n_chunks;
    let extra = n % n_chunks;
    let mut ranges = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = par_map_indexed(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_indexed_empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_chunks_covers_all_indices() {
        let chunks = par_chunks(1000, 64, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..1000).collect::<Vec<usize>>());
    }

    #[test]
    fn chunk_ranges_respect_min_chunk() {
        for n in [0usize, 1, 7, 63, 64, 65, 1000, 4096] {
            for threads in [1usize, 2, 8] {
                let ranges = chunk_ranges(n, 64, threads);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                if n >= 64 {
                    for r in &ranges {
                        assert!(r.len() >= 64 / 2, "range {r:?} too small for n={n}");
                    }
                }
                assert!(ranges.len() <= threads * 4 || ranges.len() == 1);
            }
        }
    }

    #[test]
    fn chunk_ranges_are_thread_count_stable_per_item() {
        // The *stitched* order is what matters: flattening chunk results
        // must equal the sequential order for any thread count.
        for threads in [1usize, 2, 3, 7, 16] {
            let ranges = chunk_ranges(500, 10, threads);
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(flat, (0..500).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn sequential_cap_matches_parallel_output() {
        let parallel = par_map_indexed(100, |i| seed::fork_seed(42, i as u64));
        let sequential = Runtime::with_threads(1)
            .install(|| par_map_indexed(100, |i| seed::fork_seed(42, i as u64)));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn try_par_map_captures_panics_in_place() {
        let out = try_par_map_indexed(16, |i| {
            if i % 5 == 3 {
                panic!("injected {i}");
            }
            i * 10
        });
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 3 {
                assert_eq!(
                    r,
                    &Err(TaskPanic {
                        message: format!("injected {i}")
                    })
                );
            } else {
                assert_eq!(r, &Ok(i * 10));
            }
        }
        // The pool stays healthy afterwards.
        assert_eq!(par_map_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn installed_cap_propagates_to_pool_tasks() {
        let caps = Runtime::with_threads(3).install(|| par_map_indexed(32, |_| current_threads()));
        assert!(caps.iter().all(|&c| c == 3), "{caps:?}");
    }

    #[test]
    fn par_for_each_mut_touches_every_slot_once() {
        let mut data = vec![0usize; 333];
        par_for_each_mut(&mut data, |i, slot| *slot = i * 3);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
        // Sequential cap produces the identical result.
        let mut seq = vec![0usize; 333];
        Runtime::with_threads(1).install(|| par_for_each_mut(&mut seq, |i, slot| *slot = i * 3));
        assert_eq!(data, seq);
    }

    #[test]
    fn par_for_each_mut_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = [7usize];
        par_for_each_mut(&mut one, |i, slot| *slot += i + 1);
        assert_eq!(one, [8]);
    }

    #[test]
    fn par_chunks_mut_hands_out_every_row_once_with_its_offset() {
        for threads in [1usize, 2, 5] {
            let mut data = vec![0usize; 1001];
            let lens = Runtime::with_threads(threads).install(|| {
                par_chunks_mut(&mut data, 16, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v += start + k + 1;
                    }
                    chunk.len()
                })
            });
            assert_eq!(data, (1..=1001).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(lens.iter().sum::<usize>(), 1001);
            assert!(lens.len() > 1, "{threads} threads: one chunk");
        }
        let mut empty: [u8; 0] = [];
        assert!(par_chunks_mut(&mut empty, 4, |_, _| unreachable!()).is_empty());
    }

    #[test]
    fn par_map_handles_non_send_free_results() {
        // Results only need Send, not 'static: borrow from the caller.
        let data: Vec<String> = (0..50).map(|i| format!("row-{i}")).collect();
        let refs = par_map_indexed(data.len(), |i| data[i].as_str());
        for (i, s) in refs.iter().enumerate() {
            assert_eq!(*s, format!("row-{i}"));
        }
    }
}
