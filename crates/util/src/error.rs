//! Typed error hierarchy for BookLeaf-rs.
//!
//! BookLeaf's Fortran reference aborts on fatal conditions (tangled mesh,
//! vanished time step…). The Rust port surfaces the same conditions as
//! values so that drivers, tests and the fault-matrix suite can assert
//! on them.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BookLeafError>;

/// Everything that can be wrong with an input deck, as a typed value.
///
/// Produced by `Deck::validate` and by the text-deck parser
/// (`bookleaf_core::decks::from_str`); every build path — the
/// `Simulation` builder, text decks — funnels through these variants
/// rather than a stringly error, so tests and tools can distinguish a
/// malformed file (line-anchored) from an inconsistent programmatic
/// deck.
#[derive(Debug, Clone, PartialEq)]
pub enum DeckError {
    /// Field-array lengths do not match the deck's mesh.
    Shape {
        /// Deck name.
        deck: String,
        /// Which array, and the expected/actual lengths.
        message: String,
    },
    /// The deck's mesh or material table violates an invariant.
    Invalid {
        /// Deck name.
        deck: String,
        /// The underlying mesh/material error.
        source: Box<BookLeafError>,
    },
    /// A text deck failed to parse; anchored to a 1-based source line.
    Text {
        /// 1-based line in the deck text.
        line: usize,
        /// What was wrong on that line.
        message: String,
    },
    /// An option combination that cannot run (no source line available:
    /// the deck was built programmatically).
    Config {
        /// What is inconsistent.
        message: String,
    },
}

impl fmt::Display for DeckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeckError::Shape { deck, message } => write!(f, "deck `{deck}`: {message}"),
            DeckError::Invalid { deck, source } => write!(f, "deck `{deck}`: {source}"),
            DeckError::Text { line, message } => write!(f, "line {line}: {message}"),
            DeckError::Config { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for DeckError {}

impl From<DeckError> for BookLeafError {
    fn from(e: DeckError) -> Self {
        BookLeafError::Deck(e)
    }
}

/// Everything that can go wrong loading or applying a checkpoint file,
/// as a typed value.
///
/// Produced by the checkpoint codec in `bookleaf_core::output` and by
/// `SimulationBuilder::resume`. The checkpoint-restart suite pins the
/// contract that a damaged file — truncated, bit-flipped, stale-version,
/// wrong problem — always surfaces as one of these variants and never a
/// panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The underlying file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The byte stream ended before the section named here.
    Truncated {
        /// Which part of the format was cut short.
        what: &'static str,
    },
    /// The leading magic bytes are not a BookLeaf-rs checkpoint.
    BadMagic,
    /// The file's format version is not one this reader understands.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload is internally inconsistent (failed CRC, implausible
    /// counts, trailing garbage, unparsable embedded deck…).
    Corrupt {
        /// What check failed.
        what: String,
    },
    /// The checkpoint is well-formed but does not fit the target
    /// simulation (different problem, resolution, or field shapes).
    DeckMismatch {
        /// What disagrees.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint file {path}: {message}")
            }
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated in {what}")
            }
            CheckpointError::BadMagic => {
                write!(f, "not a BookLeaf-rs checkpoint (bad magic)")
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint format version {found} unsupported (this build reads \
                     version {supported})"
                )
            }
            CheckpointError::Corrupt { what } => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::DeckMismatch { message } => {
                write!(f, "checkpoint does not match the simulation: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for BookLeafError {
    fn from(e: CheckpointError) -> Self {
        BookLeafError::Checkpoint(e)
    }
}

/// A typed point-to-point / collective communication failure.
///
/// The typhon layer bounds every blocking operation (receives and
/// collectives carry deadlines) and checksums every payload, so a dead
/// rank, a dropped message or in-flight corruption — injected by a
/// `FaultPlan` or real — surfaces as one of these variants, never as a
/// hang or a panic. All fields are deterministic (rank ids, tags,
/// scheduled steps — no wall-clock durations), so two runs of the same
/// seeded fault schedule produce byte-identical error values and the
/// recovery log built from them is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// This rank was killed by its fault schedule: the first
    /// communication it attempts at or after the scheduled point
    /// returns this instead of touching the wire.
    Killed {
        /// The killed rank (== the rank reporting the error).
        rank: usize,
        /// The step the kill was scheduled at.
        step: usize,
    },
    /// A receive's deadline expired with no matching message — the
    /// peer is dead, the message was dropped, or it is later than the
    /// configured timeout allows.
    RecvTimeout {
        /// Rank the message was expected from.
        from: usize,
        /// Tag of the missing message.
        tag: u64,
    },
    /// A collective's deadline expired: at least one rank never
    /// contributed (died or hung before the reduction).
    CollectiveTimeout {
        /// The rank reporting the timeout.
        rank: usize,
    },
    /// A received payload failed its checksum: corrupted in flight.
    Corrupt {
        /// Sending rank.
        from: usize,
        /// Tag of the corrupt message.
        tag: u64,
    },
    /// A received payload had the wrong shape for its exchange phase.
    Malformed {
        /// Sending rank.
        from: usize,
        /// Tag of the malformed message.
        tag: u64,
        /// Doubles the phase layout expects.
        expected: usize,
        /// Doubles actually received.
        got: usize,
    },
    /// The peer rank is gone: a send to it could not be delivered, or a
    /// receive from it expired after it had failed.
    RankUnreachable {
        /// The unreachable rank.
        to: usize,
    },
    /// The team's channels disconnected while this rank was receiving
    /// (every peer exited — typically after another rank failed).
    Disconnected {
        /// The rank reporting the disconnect.
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Killed { rank, step } => {
                write!(f, "rank {rank} killed by fault schedule at step {step}")
            }
            CommError::RecvTimeout { from, tag } => {
                write!(f, "receive from rank {from} (tag {tag}) timed out")
            }
            CommError::CollectiveTimeout { rank } => {
                write!(f, "collective timed out on rank {rank}")
            }
            CommError::Corrupt { from, tag } => {
                write!(
                    f,
                    "payload from rank {from} (tag {tag}) failed its checksum"
                )
            }
            CommError::Malformed {
                from,
                tag,
                expected,
                got,
            } => {
                write!(
                    f,
                    "payload from rank {from} (tag {tag}) malformed: expected {expected} \
                     doubles, got {got}"
                )
            }
            CommError::RankUnreachable { to } => {
                write!(f, "rank {to} unreachable (hung up)")
            }
            CommError::Disconnected { rank } => {
                write!(f, "team disconnected while rank {rank} was receiving")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for BookLeafError {
    fn from(e: CommError) -> Self {
        BookLeafError::CommFault(e)
    }
}

/// Which field the health sentinel flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthField {
    /// Density.
    Rho,
    /// Specific internal energy.
    Ein,
    /// Artificial viscosity.
    Q,
    /// Nodal velocity.
    U,
    /// Element Lagrangian mass.
    Mass,
    /// Element volume.
    Volume,
}

impl HealthField {
    /// Stable small integer code, used to pack a diagnosis into the
    /// f64 the sentinel min-reduces across ranks.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            HealthField::Rho => 0,
            HealthField::Ein => 1,
            HealthField::Q => 2,
            HealthField::U => 3,
            HealthField::Mass => 4,
            HealthField::Volume => 5,
        }
    }

    /// Inverse of [`HealthField::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<HealthField> {
        Some(match code {
            0 => HealthField::Rho,
            1 => HealthField::Ein,
            2 => HealthField::Q,
            3 => HealthField::U,
            4 => HealthField::Mass,
            5 => HealthField::Volume,
            _ => return None,
        })
    }
}

impl fmt::Display for HealthField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthField::Rho => "rho",
            HealthField::Ein => "ein",
            HealthField::Q => "q",
            HealthField::U => "u",
            HealthField::Mass => "mass",
            HealthField::Volume => "volume",
        };
        write!(f, "{s}")
    }
}

/// What the health sentinel found, carried inside
/// [`BookLeafError::Unhealthy`].
///
/// Field diagnoses name the offending field and the element/node index
/// on the reporting rank; the dt and conservation diagnoses carry the
/// globally-reduced values (identical on every rank by construction).
#[derive(Debug, Clone, PartialEq)]
pub enum HealthDiagnosis {
    /// A NaN or infinity appeared in a state field.
    NonFinite {
        /// Rank that saw it (0 for serial runs).
        rank: usize,
        /// The offending field.
        field: HealthField,
        /// Element index (or node index for [`HealthField::U`]) local
        /// to `rank`.
        index: usize,
    },
    /// A quantity that must stay positive went non-positive.
    NonPositive {
        /// Rank that saw it (0 for serial runs).
        rank: usize,
        /// The offending field.
        field: HealthField,
        /// Element index local to `rank`.
        index: usize,
    },
    /// The globally-reduced time step fell below the sentinel floor.
    DtFloor {
        /// The reduced dt.
        dt: f64,
        /// The configured floor.
        floor: f64,
    },
    /// Total energy drifted beyond the configured tolerance.
    ConservationDrift {
        /// Relative drift from the run's starting energy.
        drift: f64,
        /// The configured tolerance.
        tol: f64,
    },
}

impl fmt::Display for HealthDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthDiagnosis::NonFinite { rank, field, index } => {
                write!(f, "non-finite {field} at index {index} on rank {rank}")
            }
            HealthDiagnosis::NonPositive { rank, field, index } => {
                write!(f, "non-positive {field} at index {index} on rank {rank}")
            }
            HealthDiagnosis::DtFloor { dt, floor } => {
                write!(f, "dt {dt:.6e} collapsed below sentinel floor {floor:.6e}")
            }
            HealthDiagnosis::ConservationDrift { drift, tol } => {
                write!(
                    f,
                    "energy drift {drift:.6e} beyond sentinel tolerance {tol:.6e}"
                )
            }
        }
    }
}

/// Every fatal condition a BookLeaf run can hit.
#[derive(Debug, Clone, PartialEq)]
pub enum BookLeafError {
    /// An element's volume went non-positive (tangled / inverted mesh).
    /// Carries the global element index and the offending volume.
    NegativeVolume { element: usize, volume: f64 },
    /// The computed time step fell below the configured minimum.
    TimestepCollapse { dt: f64, dt_min: f64, cause: String },
    /// A thermodynamic state left the valid region of its EoS
    /// (e.g. negative density or internal energy where disallowed).
    InvalidState { element: usize, what: String },
    /// Mesh construction or connectivity invariants were violated.
    MeshTopology(String),
    /// A mesh of more elements than its `u32` corner ids can number.
    MeshTooLarge { elements: usize, max: usize },
    /// An input deck was missing, unreadable, inconsistent or out of
    /// range (typed detail).
    Deck(DeckError),
    /// Domain decomposition failed (empty part, unbalanced beyond limits…).
    Partition(String),
    /// A checkpoint file could not be read, parsed or applied.
    Checkpoint(CheckpointError),
    /// An executor or rank team shaped to run nowhere: zero ranks, or
    /// zero threads per rank. `field` names the count that was zero
    /// (`ranks`, `threads_per_rank`), as the deck grammar spells it.
    EmptyExecutor { field: &'static str },
    /// The host would not spawn the `threads` workers of a rank's
    /// thread pool.
    ThreadSpawn { threads: usize },
    /// A typed communication failure: timeout, corruption, dead rank…
    /// (see [`CommError`]). The comm layer's bounded waits and payload
    /// checksums make these the *only* way comm failures surface —
    /// never hangs or panics.
    CommFault(CommError),
    /// The health sentinel found an invalid state: NaN/Inf fields,
    /// non-positive mass/volume, dt collapse, conservation drift. All
    /// ranks of a team abort together with the same diagnosis.
    Unhealthy {
        /// The step at which the sweep flagged the state (0-based; the
        /// step whose results were inspected).
        step: usize,
        /// What was wrong, with the offending field and index.
        diagnosis: HealthDiagnosis,
    },
    /// A rank thread panicked during a distributed run.
    RankPanic { rank: usize, message: String },
    /// The run's wall-clock deadline expired before completion. The
    /// abort is symmetric: the rank that notices the expiry proposes a
    /// negative dt through the per-step reduction every rank already
    /// performs, so the whole team returns this error at the same step.
    /// Also returned by supervised retries whose backoff would sleep
    /// past the deadline.
    DeadlineExceeded {
        /// The 0-based step about to execute when the deadline fired.
        step: usize,
    },
}

impl fmt::Display for BookLeafError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BookLeafError::NegativeVolume { element, volume } => {
                write!(
                    f,
                    "element {element} has non-positive volume {volume:.6e} (mesh tangled)"
                )
            }
            BookLeafError::TimestepCollapse { dt, dt_min, cause } => {
                write!(f, "time step {dt:.6e} below minimum {dt_min:.6e} ({cause})")
            }
            BookLeafError::InvalidState { element, what } => {
                write!(
                    f,
                    "invalid thermodynamic state in element {element}: {what}"
                )
            }
            BookLeafError::MeshTopology(msg) => write!(f, "mesh topology error: {msg}"),
            BookLeafError::MeshTooLarge { elements, max } => {
                write!(
                    f,
                    "mesh of {elements} elements: at most {max} are supported"
                )
            }
            BookLeafError::Deck(e) => write!(f, "invalid input deck: {e}"),
            BookLeafError::Partition(msg) => write!(f, "partitioning error: {msg}"),
            BookLeafError::Checkpoint(e) => write!(f, "{e}"),
            BookLeafError::EmptyExecutor { field } => {
                write!(f, "executor: `{field}` must be at least 1, got 0")
            }
            BookLeafError::ThreadSpawn { threads } => {
                write!(f, "could not spawn a pool of {threads} threads")
            }
            BookLeafError::CommFault(e) => write!(f, "communication error: {e}"),
            BookLeafError::Unhealthy { step, diagnosis } => {
                write!(f, "unhealthy state after step {step}: {diagnosis}")
            }
            BookLeafError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            BookLeafError::DeadlineExceeded { step } => {
                write!(f, "wall-clock deadline exceeded before step {step}")
            }
        }
    }
}

impl std::error::Error for BookLeafError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_fields() {
        let e = BookLeafError::NegativeVolume {
            element: 42,
            volume: -1.0,
        };
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("tangled"));
    }

    #[test]
    fn timestep_collapse_reports_cause() {
        let e = BookLeafError::TimestepCollapse {
            dt: 1e-12,
            dt_min: 1e-8,
            cause: "CFL in element 7".into(),
        };
        assert!(e.to_string().contains("CFL in element 7"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = BookLeafError::MeshTopology("x".into());
        let b = BookLeafError::MeshTopology("x".into());
        assert_eq!(a, b);
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(BookLeafError::EmptyExecutor {
            field: "threads_per_rank",
        });
        assert!(e
            .to_string()
            .contains("`threads_per_rank` must be at least 1"));
    }
}
