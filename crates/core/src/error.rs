//! Unified error type for bellwether analysis.

use std::fmt;

/// Errors surfaced by bellwether search, trees and cubes.
#[derive(Debug)]
pub enum BellwetherError {
    /// Relational substrate error.
    Table(bellwether_table::TableError),
    /// Storage IO error.
    Io(std::io::Error),
    /// Problem configuration is invalid.
    Config(String),
    /// A referenced item, region or attribute does not exist.
    NotFound(String),
    /// No feasible region satisfied the constraints.
    NoFeasibleRegion,
    /// Reading one region's training set failed; carries the failing
    /// region index so operators know *which* block to inspect.
    RegionRead {
        /// Index of the region whose read failed.
        index: usize,
        /// The underlying storage error (corruption, truncation, IO).
        source: std::io::Error,
    },
    /// A scan worker thread panicked. The panic is caught and isolated —
    /// the process keeps running; only this computation fails.
    WorkerPanic {
        /// Index of the panicking worker (its chunk position).
        worker: usize,
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// A `SkipUnreadable` scan exceeded its skip budget.
    TooManyUnreadable {
        /// Number of unreadable regions encountered.
        skipped: usize,
        /// The configured maximum.
        max_skipped: usize,
    },
}

impl fmt::Display for BellwetherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BellwetherError::Table(e) => write!(f, "table error: {e}"),
            BellwetherError::Io(e) => write!(f, "io error: {e}"),
            BellwetherError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            BellwetherError::NotFound(what) => write!(f, "not found: {what}"),
            BellwetherError::NoFeasibleRegion => {
                write!(f, "no feasible region satisfies the constraints")
            }
            BellwetherError::RegionRead { index, source } => {
                write!(f, "failed to read region {index}: {source}")
            }
            BellwetherError::WorkerPanic { worker, message } => {
                write!(f, "scan worker {worker} panicked: {message}")
            }
            BellwetherError::TooManyUnreadable {
                skipped,
                max_skipped,
            } => {
                write!(
                    f,
                    "{skipped} unreadable regions exceed the skip budget of {max_skipped}"
                )
            }
        }
    }
}

impl std::error::Error for BellwetherError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BellwetherError::Table(e) => Some(e),
            BellwetherError::Io(e) => Some(e),
            BellwetherError::RegionRead { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<bellwether_table::TableError> for BellwetherError {
    fn from(e: bellwether_table::TableError) -> Self {
        BellwetherError::Table(e)
    }
}

impl From<std::io::Error> for BellwetherError {
    fn from(e: std::io::Error) -> Self {
        BellwetherError::Io(e)
    }
}

/// A CUBE pass's malformed input or too-large key space is a
/// configuration error; its spill I/O is I/O.
impl From<bellwether_cube::CubeError> for BellwetherError {
    fn from(e: bellwether_cube::CubeError) -> Self {
        match e {
            bellwether_cube::CubeError::Io(e) => BellwetherError::Io(e),
            bellwether_cube::CubeError::InvalidInput(why) => BellwetherError::Config(why),
            e => BellwetherError::Config(e.to_string()),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BellwetherError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = BellwetherError::Config("budget must be positive".into());
        assert!(e.to_string().contains("budget"));
        let e = BellwetherError::NoFeasibleRegion;
        assert!(e.to_string().contains("feasible"));
        let e: BellwetherError =
            bellwether_table::TableError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains("unknown column"));
    }

    #[test]
    fn fault_variants_carry_their_context() {
        let e = BellwetherError::RegionRead {
            index: 17,
            source: std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt block"),
        };
        assert!(e.to_string().contains("region 17"));
        assert!(e.to_string().contains("corrupt block"));
        assert!(std::error::Error::source(&e).is_some());

        let e = BellwetherError::WorkerPanic {
            worker: 2,
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("worker 2"));
        assert!(e.to_string().contains("index out of bounds"));

        let e = BellwetherError::TooManyUnreadable {
            skipped: 5,
            max_skipped: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
    }
}
