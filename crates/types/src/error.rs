//! Error type shared across the SLIMSTORE crates.

use std::fmt;

/// Errors produced by SLIMSTORE components.
#[derive(Debug)]
pub enum SlimError {
    /// An object requested from the object store does not exist.
    ObjectNotFound(String),

    /// A byte-range read fell outside the object bounds.
    RangeOutOfBounds {
        key: String,
        start: u64,
        end: u64,
        len: u64,
    },

    /// A serialized structure failed to decode.
    Corrupt { what: &'static str, detail: String },

    /// A chunk referenced by a recipe could not be located in any container.
    ChunkUnresolvable { fp: String, detail: String },

    /// A container referenced by a recipe is missing from the container store.
    ContainerMissing(u64),

    /// The requested backup version does not exist (or was collected).
    VersionNotFound(u64),

    /// The requested file does not exist in the given version.
    FileNotFound { file: String, version: u64 },

    /// Fault injected by a test or the simulated network.
    InjectedFault(String),

    /// A transient failure (simulated 5xx); the operation may succeed if
    /// retried.
    Transient(String),

    /// The object store rejected the request due to rate limiting; the
    /// operation may succeed if retried after backing off.
    Throttled(String),

    /// An operation exhausted its retry/deadline budget without succeeding.
    Timeout {
        op: String,
        attempts: u32,
        last: String,
    },

    /// A circuit breaker refused the call because every eligible endpoint
    /// is currently considered sick (Open state). The request was *not*
    /// issued; retrying after backing off may find a recovered endpoint or
    /// an admitted half-open probe slot.
    CircuitOpen(String),

    /// The request plane refused or abandoned the request because the
    /// deployment is saturated: admission queue full, tenant rate limit
    /// exceeded, deadline expired while queued, or the frontend is
    /// draining. The request was *not* executed; retrying after backing
    /// off may succeed.
    Overloaded(String),

    /// Configuration rejected at construction time.
    InvalidConfig(String),

    /// An I/O error from the local-disk tier of the restore cache.
    Io(std::io::Error),
}

impl fmt::Display for SlimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SlimError::*;
        match self {
            ObjectNotFound(key) => write!(f, "object not found: {key}"),
            RangeOutOfBounds {
                key,
                start,
                end,
                len,
            } => write!(
                f,
                "range {start}..{end} out of bounds for object {key} of {len} bytes"
            ),
            Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            ChunkUnresolvable { fp, detail } => write!(f, "chunk {fp} unresolvable: {detail}"),
            ContainerMissing(id) => write!(f, "container {id} missing"),
            VersionNotFound(version) => write!(f, "version {version} not found"),
            FileNotFound { file, version } => {
                write!(f, "file {file} not found in version {version}")
            }
            InjectedFault(what) => write!(f, "injected fault: {what}"),
            Transient(what) => write!(f, "transient failure: {what}"),
            Throttled(what) => write!(f, "throttled: {what}"),
            Timeout { op, attempts, last } => {
                write!(f, "{op} timed out after {attempts} attempts: {last}")
            }
            CircuitOpen(what) => write!(f, "circuit open: {what}"),
            Overloaded(what) => write!(f, "overloaded: {what}"),
            InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SlimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SlimError {
    fn from(e: std::io::Error) -> Self {
        SlimError::Io(e)
    }
}

/// Convenience alias used across all SLIMSTORE crates.
pub type Result<T> = std::result::Result<T, SlimError>;

impl SlimError {
    /// Helper for constructing [`SlimError::Corrupt`].
    pub fn corrupt(what: &'static str, detail: impl Into<String>) -> Self {
        SlimError::Corrupt {
            what,
            detail: detail.into(),
        }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Transient and throttling failures are the retryable class; a
    /// [`SlimError::Timeout`] is retryable too because it wraps a retryable
    /// cause that merely ran out of budget at one layer — an outer layer with
    /// a larger budget may still succeed. [`SlimError::Overloaded`] is
    /// retryable by construction: the request plane guarantees a shed
    /// request was never executed, so resubmitting after backoff is safe,
    /// and the same reasoning covers [`SlimError::CircuitOpen`] — a breaker
    /// shed call never reached the endpoint. Permanent conditions (missing
    /// objects, corruption, injected hard faults, config errors) are not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SlimError::Transient(_)
                | SlimError::Throttled(_)
                | SlimError::Timeout { .. }
                | SlimError::Overloaded(_)
                | SlimError::CircuitOpen(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_taxonomy() {
        assert!(SlimError::Transient("503".into()).is_retryable());
        assert!(SlimError::Throttled("slow down".into()).is_retryable());
        assert!(SlimError::Timeout {
            op: "put k".into(),
            attempts: 5,
            last: "transient".into(),
        }
        .is_retryable());
        assert!(SlimError::Overloaded("queue full".into()).is_retryable());
        assert!(SlimError::CircuitOpen("endpoint 1 sick".into()).is_retryable());
        assert!(!SlimError::ObjectNotFound("k".into()).is_retryable());
        assert!(!SlimError::InjectedFault("put k".into()).is_retryable());
        assert!(!SlimError::corrupt("recipe", "bad magic").is_retryable());
        assert!(!SlimError::ContainerMissing(3).is_retryable());
    }

    #[test]
    fn every_variant_renders_its_pinned_message() {
        // The CLI prints these and suites match on them.
        let io = || std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let rendered: [(SlimError, &str); 15] = [
            (
                SlimError::ObjectNotFound("recipes/3".into()),
                "object not found: recipes/3",
            ),
            (
                SlimError::RangeOutOfBounds {
                    key: "containers/7".into(),
                    start: 10,
                    end: 90,
                    len: 64,
                },
                "range 10..90 out of bounds for object containers/7 of 64 bytes",
            ),
            (
                SlimError::corrupt("recipe", "bad magic"),
                "corrupt recipe: bad magic",
            ),
            (
                SlimError::ChunkUnresolvable {
                    fp: "a9993e36".into(),
                    detail: "not in index".into(),
                },
                "chunk a9993e36 unresolvable: not in index",
            ),
            (SlimError::ContainerMissing(3), "container 3 missing"),
            (SlimError::VersionNotFound(9), "version 9 not found"),
            (
                SlimError::FileNotFound {
                    file: "db/a.bin".into(),
                    version: 2,
                },
                "file db/a.bin not found in version 2",
            ),
            (
                SlimError::InjectedFault("put k".into()),
                "injected fault: put k",
            ),
            (SlimError::Transient("503".into()), "transient failure: 503"),
            (
                SlimError::Throttled("slow down".into()),
                "throttled: slow down",
            ),
            (
                SlimError::Timeout {
                    op: "put k".into(),
                    attempts: 5,
                    last: "transient failure: 503".into(),
                },
                "put k timed out after 5 attempts: transient failure: 503",
            ),
            (
                SlimError::CircuitOpen("endpoint 1 sick".into()),
                "circuit open: endpoint 1 sick",
            ),
            (
                SlimError::Overloaded("queue full".into()),
                "overloaded: queue full",
            ),
            (
                SlimError::InvalidConfig("avg_chunk_size = 0".into()),
                "invalid configuration: avg_chunk_size = 0",
            ),
            (SlimError::Io(io()), "io error: no such file"),
        ];
        for (error, expected) in &rendered {
            assert_eq!(error.to_string(), *expected);
        }
        // Fifteen rows, fifteen distinct variants: none is pinned twice in
        // another's place.
        let distinct: std::collections::HashSet<_> = rendered
            .iter()
            .map(|(error, _)| std::mem::discriminant(error))
            .collect();
        assert_eq!(distinct.len(), rendered.len());

        // `?` on an `io::Result` still converts, and the cause stays reachable.
        let converted: SlimError = io().into();
        assert!(matches!(converted, SlimError::Io(_)));
        assert!(std::error::Error::source(&converted).is_some());
        assert!(std::error::Error::source(&SlimError::ContainerMissing(3)).is_none());
    }
}
