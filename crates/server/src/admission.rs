//! Queue-depth admission control.
//!
//! The scoring engine already backpressures at `queue_capacity`, but by
//! the time a submit fails the request has crossed the network and
//! parsed its body. The admission gate sheds earlier and cheaper: a
//! request is rejected up front — on its line count, before its body
//! is parsed — when the queue is past a *watermark* set below capacity,
//! so the engine keeps headroom for the requests already past the gate
//! and a shed request costs one queue-depth read.
//!
//! Shed responses carry a `Retry-After` hint derived from the engine's
//! own batch-latency estimate: the queued work, in batches, times the
//! median batch service time is roughly when the queue will have
//! drained back under the watermark.

use spe_serve::ServeError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Watermark gate in front of one engine's queue.
pub struct Admission {
    watermark: usize,
    capacity: usize,
    shed: AtomicU64,
}

impl Admission {
    /// A gate shedding at `fraction` of `capacity` (clamped so the
    /// watermark is at least one row and at most the full capacity).
    pub fn new(capacity: usize, fraction: f64) -> Self {
        let watermark = (capacity as f64 * fraction.clamp(0.0, 1.0)).floor() as usize;
        Self {
            watermark: watermark.clamp(1, capacity),
            capacity,
            shed: AtomicU64::new(0),
        }
    }

    /// The queue depth above which requests shed.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Admits a request wanting to enqueue `incoming` rows onto a queue
    /// currently `depth` deep, or sheds it with
    /// [`ServeError::QueueFull`].
    pub fn check(&self, depth: usize, incoming: usize) -> Result<(), ServeError> {
        if depth + incoming > self.watermark {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Requests shed at this gate (does not include engine-level
    /// `QueueFull` from submits racing past the watermark).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Counts a shed that happened past the gate (an engine-level
    /// `QueueFull` on submit), so `shed_count` covers both layers.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
}

/// `Retry-After` hint in milliseconds: the queued backlog in batches
/// times the median batch service time, clamped to `[1ms, 5s]`. With no
/// latency estimate yet (cold engine) the floor applies.
pub fn retry_after_ms(p50_batch_latency_us: u64, queue_depth: usize, max_batch: usize) -> u64 {
    let batches = (queue_depth / max_batch.max(1)) as u64 + 1;
    (batches * p50_batch_latency_us / 1000).clamp(1, 5_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_above_watermark_and_counts() {
        let a = Admission::new(100, 0.9);
        assert_eq!(a.watermark(), 90);
        assert!(a.check(0, 90).is_ok());
        assert_eq!(a.check(0, 91), Err(ServeError::QueueFull { capacity: 100 }));
        assert_eq!(a.check(89, 2), Err(ServeError::QueueFull { capacity: 100 }));
        assert!(a.check(89, 1).is_ok());
        assert_eq!(a.shed_count(), 2);
        a.note_shed();
        assert_eq!(a.shed_count(), 3);
    }

    #[test]
    fn watermark_is_clamped_sane() {
        assert_eq!(Admission::new(10, 0.0).watermark(), 1);
        assert_eq!(Admission::new(10, 5.0).watermark(), 10);
        assert_eq!(Admission::new(1, 0.5).watermark(), 1);
    }

    #[test]
    fn retry_hint_scales_with_backlog() {
        // Empty queue, 2ms batches: one batch-time hint.
        assert_eq!(retry_after_ms(2_000, 0, 64), 2);
        // 10 queued batches: eleven batch-times.
        assert_eq!(retry_after_ms(2_000, 640, 64), 22);
        // Cold engine (no latency yet) still hints at least 1ms.
        assert_eq!(retry_after_ms(0, 0, 64), 1);
        // Absurd backlog clamps to 5s.
        assert_eq!(retry_after_ms(1_000_000, 64_000, 64), 5_000);
    }
}
