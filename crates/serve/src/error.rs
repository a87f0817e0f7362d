//! Typed errors for the persistence and serving layers.

use spe_data::SpeError;
use spe_learners::FeatureBound;
use std::fmt;

/// Everything that can go wrong saving, loading or serving a model.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// An underlying I/O failure (rendered, to keep the type `Clone`).
    Io(String),
    /// The file is structurally not a model envelope (bad magic,
    /// trailing garbage, malformed payload, ...).
    Corrupt(String),
    /// The file ends before the envelope does.
    Truncated,
    /// The stored checksum disagrees with the bytes — bit rot or a
    /// partial overwrite. Reported *before* any payload decoding runs.
    ChecksumMismatch {
        /// Checksum recomputed from the file bytes.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// The envelope was written by a newer format revision.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// The envelope holds a different model kind than the caller asked
    /// for (e.g. expected `"SPE"`, found `"DT"`).
    KindMismatch {
        /// Kind the caller required.
        expected: String,
        /// Kind stored in the envelope.
        found: String,
    },
    /// The model does not implement snapshotting (MLP, AdaBoost, Naive
    /// Bayes and user-defined models return `None` from
    /// `Model::snapshot`).
    UnsupportedModel,
    /// The scoring queue is at capacity; the caller should shed load or
    /// retry after a delay.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The engine has been stopped; no further requests are accepted.
    EngineStopped,
    /// A scoring request's feature count disagrees with the engine's.
    RowWidthMismatch {
        /// Feature count the engine was built for.
        expected: usize,
        /// Feature count of the offending row.
        got: usize,
    },
    /// A caller-owned output buffer does not hold one slot per row of
    /// the batch being scored.
    OutputLengthMismatch {
        /// Rows in the batch (slots required).
        expected: usize,
        /// Length of the buffer the caller passed.
        got: usize,
    },
    /// A training-side error bubbled through a fit-then-save pipeline.
    Train(SpeError),
    /// An engine configuration parameter is out of range (rejected by
    /// `EngineConfig::builder()` instead of being silently clamped).
    InvalidConfig(String),
    /// The model cannot be compiled to the quantized backend (no
    /// snapshot, an unsupported member kind, or a feature tested
    /// against more distinct thresholds than a u8 code can carry).
    Unquantizable(String),
    /// A scoring request's deadline elapsed before its batch completed.
    /// The row may still be scored internally; the result is discarded.
    DeadlineExceeded,
    /// The engine shut down after accepting this request but before
    /// scoring it (a submit racing the final drain). Waiters are woken
    /// with this instead of blocking forever.
    Shutdown,
    /// The model installed via `start`/`swap_model` cannot score rows of
    /// the engine's configured width — rejected up front instead of
    /// producing garbage scores (or panics) on live traffic.
    ModelWidthMismatch {
        /// Row width the engine serves.
        expected: usize,
        /// What the offending model requires.
        model: FeatureBound,
    },
    /// The model installed via `swap_model` outputs a different number
    /// of classes than the engine was started with — rejected up front
    /// so clients never see response rows change width mid-stream.
    ModelClassMismatch {
        /// Class count the engine serves.
        expected: usize,
        /// Class count of the offending model.
        got: usize,
    },
    /// The model's circuit breaker is open after consecutive scoring
    /// failures; requests are rejected until a half-open probe succeeds.
    CircuitOpen {
        /// Suggested client back-off until the next probe window.
        retry_after_ms: u64,
    },
    /// No model registered under the requested name.
    UnknownModel(String),
    /// A scoring request's body is not CSV rows of numbers.
    BadRequest(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "I/O error: {msg}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
            ServeError::Truncated => write!(f, "model file is truncated"),
            ServeError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: file says {found:#018x}, bytes hash to {expected:#018x}"
            ),
            ServeError::UnsupportedVersion { found, supported } => write!(
                f,
                "model format version {found} is newer than supported version {supported}"
            ),
            ServeError::KindMismatch { expected, found } => {
                write!(f, "expected a {expected} model, file holds {found}")
            }
            ServeError::UnsupportedModel => {
                write!(f, "model does not support persistence (no snapshot)")
            }
            ServeError::QueueFull { capacity } => {
                write!(f, "scoring queue is full ({capacity} requests)")
            }
            ServeError::EngineStopped => write!(f, "scoring engine is stopped"),
            ServeError::RowWidthMismatch { expected, got } => {
                write!(f, "row has {got} features, engine expects {expected}")
            }
            ServeError::OutputLengthMismatch { expected, got } => {
                write!(
                    f,
                    "output buffer holds {got} slots, batch has {expected} rows"
                )
            }
            ServeError::Train(e) => write!(f, "training failed: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
            ServeError::Unquantizable(msg) => {
                write!(f, "model cannot use the quantized backend: {msg}")
            }
            ServeError::DeadlineExceeded => write!(f, "scoring deadline exceeded"),
            ServeError::Shutdown => write!(f, "engine shut down before scoring the request"),
            ServeError::ModelWidthMismatch { expected, model } => {
                write!(
                    f,
                    "model requires {model}, engine serves rows of {expected}"
                )
            }
            ServeError::ModelClassMismatch { expected, got } => {
                write!(f, "model outputs {got} classes, engine serves {expected}")
            }
            ServeError::CircuitOpen { retry_after_ms } => {
                write!(
                    f,
                    "circuit breaker is open; retry after {retry_after_ms} ms"
                )
            }
            ServeError::UnknownModel(name) => write!(f, "no model registered as {name:?}"),
            ServeError::BadRequest(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<SpeError> for ServeError {
    fn from(e: SpeError) -> Self {
        ServeError::Train(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        assert!(ServeError::Truncated.to_string().contains("truncated"));
        assert!(ServeError::ChecksumMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum mismatch"));
        assert!(ServeError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains("version 9"));
        assert!(ServeError::KindMismatch {
            expected: "SPE".into(),
            found: "DT".into()
        }
        .to_string()
        .contains("expected a SPE"));
        assert!(ServeError::QueueFull { capacity: 4 }
            .to_string()
            .contains("full"));
        let io: ServeError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(io, ServeError::Io("gone".into()));
        let tr: ServeError = SpeError::EmptyDataset.into();
        assert!(tr.to_string().contains("training failed"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServeError::Shutdown.to_string().contains("shut down"));
        assert!(ServeError::ModelWidthMismatch {
            expected: 30,
            model: FeatureBound::Exact(7)
        }
        .to_string()
        .contains("exactly 7"));
        assert!(ServeError::ModelClassMismatch {
            expected: 2,
            got: 5
        }
        .to_string()
        .contains("5 classes"));
        assert!(ServeError::CircuitOpen {
            retry_after_ms: 250
        }
        .to_string()
        .contains("250 ms"));
        assert!(ServeError::UnknownModel("fraud".into())
            .to_string()
            .contains("fraud"));
        assert_eq!(
            ServeError::BadRequest("line 2: not a CSV row of numbers".into()).to_string(),
            "line 2: not a CSV row of numbers"
        );
    }
}
