//! The typed error hierarchy for the profiling → training → search path.
//!
//! One enum rather than per-crate error types: every stage of the pipeline
//! (experiment execution, trace sanitization, storage, checkpointing, CLI
//! argument handling) fails in one vocabulary, so retry logic and the CLI
//! exit-code policy can pattern-match without conversion layers.

use std::fmt;
use std::io;

/// Errors surfaced by the fault-tolerant STCA pipeline.
#[derive(Debug)]
pub enum StcaError {
    /// A fault plan decided this experiment attempt crashes.
    InjectedCrash {
        /// Seed identifying the experiment run the crash was keyed to.
        run_key: u64,
        /// Attempt number (0-based) within the retry loop.
        attempt: u32,
    },
    /// A fault plan decided this experiment attempt times out.
    InjectedTimeout {
        /// Seed identifying the experiment run the timeout was keyed to.
        run_key: u64,
        /// Attempt number (0-based) within the retry loop.
        attempt: u32,
        /// Virtual seconds spent before the timeout fired.
        waited_s: f64,
    },
    /// Retries were exhausted without a successful attempt.
    RetriesExhausted {
        /// Total attempts made (initial try plus retries).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<StcaError>,
    },
    /// A counter trace was too damaged to sanitize into training data.
    InvalidTrace {
        /// Human-readable reason (e.g. "14/20 samples corrupt").
        reason: String,
    },
    /// An input failed validation before any work was attempted.
    InvalidInput {
        /// What was invalid and why.
        what: String,
    },
    /// An I/O operation failed; `path` says where.
    Io {
        /// The file or directory involved.
        path: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// On-disk data (profile store, checkpoint) failed to parse.
    Format {
        /// What was malformed, with file/line context where available.
        context: String,
    },
    /// The user invoked the CLI incorrectly (bad flag, missing arg).
    Usage(String),
}

impl StcaError {
    /// Process exit code for this error: 2 for usage mistakes, 1 for
    /// everything else — so scripts can tell "fix your command line" from
    /// "the run failed".
    pub fn exit_code(&self) -> u8 {
        match self {
            StcaError::Usage(_) => 2,
            _ => 1,
        }
    }

    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Injected crashes/timeouts, task panics, and damaged traces are
    /// transient: each attempt re-rolls the fault plan. Bad inputs, I/O
    /// failures, parse errors, and exhausted retries are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StcaError::InjectedCrash { .. }
                | StcaError::InjectedTimeout { .. }
                | StcaError::InvalidTrace { .. }
        )
    }

    /// Convenience constructor for usage errors.
    pub fn usage(msg: impl Into<String>) -> Self {
        StcaError::Usage(msg.into())
    }

    /// Convenience constructor for input-validation errors.
    pub fn invalid_input(what: impl Into<String>) -> Self {
        StcaError::InvalidInput { what: what.into() }
    }

    /// Wrap an I/O error with the path it happened on.
    pub fn io(path: impl Into<String>, source: io::Error) -> Self {
        StcaError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for StcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StcaError::InjectedCrash { run_key, attempt } => {
                write!(f, "injected crash (run {run_key:#x}, attempt {attempt})")
            }
            StcaError::InjectedTimeout {
                run_key,
                attempt,
                waited_s,
            } => write!(
                f,
                "injected timeout after {waited_s:.1}s (run {run_key:#x}, attempt {attempt})"
            ),
            StcaError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            StcaError::InvalidTrace { reason } => write!(f, "invalid counter trace: {reason}"),
            StcaError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            StcaError::Io { path, source } => write!(f, "{path}: {source}"),
            StcaError::Format { context } => write!(f, "malformed data: {context}"),
            StcaError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for StcaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StcaError::Io { source, .. } => Some(source),
            StcaError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// Flag-parse failures are usage errors (exit 2).
impl From<stca_util::ArgError> for StcaError {
    fn from(e: stca_util::ArgError) -> Self {
        StcaError::Usage(e.to_string())
    }
}

/// Spec-parse failures (fault plans, scenario files) are usage errors
/// (exit 2); the rendered message names the offending key/value and the
/// valid key set.
impl From<stca_util::SpecError> for StcaError {
    fn from(e: stca_util::SpecError) -> Self {
        StcaError::Usage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_split_usage_from_runtime() {
        assert_eq!(StcaError::usage("bad flag").exit_code(), 2);
        assert_eq!(
            StcaError::InvalidTrace { reason: "x".into() }.exit_code(),
            1
        );
        assert_eq!(
            StcaError::io("f.txt", io::Error::new(io::ErrorKind::NotFound, "gone")).exit_code(),
            1
        );
    }

    #[test]
    fn transient_classification() {
        assert!(StcaError::InjectedCrash {
            run_key: 1,
            attempt: 0
        }
        .is_transient());
        assert!(!StcaError::usage("x").is_transient());
        assert!(!StcaError::RetriesExhausted {
            attempts: 4,
            last: Box::new(StcaError::InjectedCrash {
                run_key: 1,
                attempt: 3
            })
        }
        .is_transient());
    }

    #[test]
    fn display_includes_context() {
        let e = StcaError::RetriesExhausted {
            attempts: 4,
            last: Box::new(StcaError::InjectedTimeout {
                run_key: 0xBEEF,
                attempt: 3,
                waited_s: 2.5,
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("4 attempts"), "{msg}");
        assert!(msg.contains("0xbeef"), "{msg}");
    }
}
