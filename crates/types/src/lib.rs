//! Foundational types shared by every RTPB crate.
//!
//! This crate defines the vocabulary of the reproduction of Zou & Jahanian's
//! *Real-Time Primary-Backup (RTPB) Replication with Temporal Consistency
//! Guarantees* (ICDCS 1998):
//!
//! - [`Time`] and [`TimeDelta`]: integer-nanosecond virtual time. All
//!   scheduling theory in the paper is exact arithmetic over time instants;
//!   using integers keeps the schedulers and the consistency conditions free
//!   of floating-point drift.
//! - [`ObjectId`], [`NodeId`], [`TaskId`]: typed identifiers.
//! - [`ObjectSpec`]: the registration record a client hands to the primary
//!   (§4.2 of the paper): update period `p_i`, execution times `e_i` and
//!   `e'_i`, and the external temporal-consistency bounds `δ_i^P` / `δ_i^B`.
//! - [`InterObjectConstraint`]: the `δ_ij` bound between two objects (§3).
//! - [`ObjectValue`]: a versioned, timestamped object image held by a
//!   replica.
//! - Error types for specification validation and admission control.
//!
//! # Examples
//!
//! ```
//! use rtpb_types::{ObjectSpec, TimeDelta};
//!
//! # fn main() -> Result<(), rtpb_types::SpecError> {
//! let spec = ObjectSpec::builder("airspeed")
//!     .update_period(TimeDelta::from_millis(50))
//!     .primary_bound(TimeDelta::from_millis(100))
//!     .backup_bound(TimeDelta::from_millis(400))
//!     .build()?;
//! assert_eq!(spec.window().as_millis(), 300);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the SSE4.2 CRC32C kernel in `crc32c` is the one
// place allowed `unsafe`, and an inner `allow` cannot relax `forbid`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod bufpool;
mod constraint;
mod crc32c;
mod epoch;
mod error;
mod ids;
mod logpos;
mod object;
mod read;
mod time;

pub use bufpool::{BufLease, BufPool, Frame, FramePool};
pub use constraint::{InterObjectConstraint, QosNegotiation};
pub use crc32c::{crc32c, Crc32c};
pub use epoch::{Epoch, Lease};
pub use error::{AdmissionError, SpecError};
pub use ids::{NodeId, ObjectId, TaskId};
pub use logpos::LogPosition;
pub use object::{ObjectSpec, ObjectSpecBuilder, ObjectValue, Version, MAX_OBJECT_SIZE};
pub use read::{
    ReadConsistency, ReadError, ReadOutcome, SessionToken, StalenessCertificate, WriteError,
};
pub use time::{Time, TimeDelta};
