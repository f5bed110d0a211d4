//! End-to-end integrity events: corruption detection and scrub results.
//!
//! Every durable or transmitted byte in this crate is covered by a
//! CRC32C check — wire frames carry a trailer verified before any field
//! is interpreted, update-log records and snapshots are checksummed at
//! append time, and store entries keep a checksum over their applied
//! image. Detection alone is not enough, though: a check that fails
//! silently is indistinguishable from one that never ran. This module
//! defines the typed [`IntegrityEvent`]s the protocol cores raise when a
//! check fails (or a background scrub finds replica divergence), so the
//! harness and runtime can surface them as observable `integrity_violation`
//! / `scrub_divergence` events and count them in metrics.
//!
//! The contract mirrors the temporal monitor's drain pattern
//! ([`crate::monitor`]): cores accumulate events internally and the
//! driver drains them after each dispatch, keeping the state machines
//! sans-io.

use std::fmt;

use rtpb_types::ObjectId;

/// Which integrity check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IntegritySource {
    /// A wire frame's CRC32C trailer did not match its body. The frame
    /// was dropped before any field was interpreted.
    Frame,
    /// A retained update-log record failed its checksum; the record was
    /// withheld from catch-up suffixes.
    LogRecord,
    /// A snapshot delta that a diff would read failed its checksum;
    /// catch-up fell past the snapshot-diff rung to a full state
    /// transfer.
    LogSnapshot,
    /// A store entry's applied image failed its checksum; the entry was
    /// quarantined and its value withheld from reads.
    StoreEntry,
}

impl IntegritySource {
    /// Stable snake_case name for logs and event streams.
    pub fn name(self) -> &'static str {
        match self {
            IntegritySource::Frame => "frame",
            IntegritySource::LogRecord => "log_record",
            IntegritySource::LogSnapshot => "log_snapshot",
            IntegritySource::StoreEntry => "store_entry",
        }
    }
}

impl fmt::Display for IntegritySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An integrity incident detected by a protocol core.
///
/// Raised on the node that *detected* the problem, which is not
/// necessarily the node that caused it — a backup detecting a corrupt
/// frame says nothing about whether the link or the sender flipped the
/// bit. Drained by the driver after each dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IntegrityEvent {
    /// A checksum verification failed. The corrupted datum was contained
    /// (frame dropped, record withheld, entry quarantined) before any of
    /// its bytes could influence replicated state or a certificate.
    Violation {
        /// Which layer's check failed.
        source: IntegritySource,
        /// The object involved, when the corrupted datum names one.
        object: Option<ObjectId>,
        /// The log sequence number involved, for log-layer failures.
        seq: Option<u64>,
    },
    /// A background scrub found a backup's range digest diverging from
    /// the primary's. Neither side knows which replica is wrong; the
    /// backup initiates anti-entropy resync so the primary's authority
    /// re-converges the range.
    ScrubDivergence {
        /// The diverging range index.
        range: u32,
        /// Total ranges the object space is divided into.
        ranges: u32,
    },
}

impl IntegrityEvent {
    /// Stable snake_case event name for observability streams.
    pub fn name(&self) -> &'static str {
        match self {
            IntegrityEvent::Violation { .. } => "integrity_violation",
            IntegrityEvent::ScrubDivergence { .. } => "scrub_divergence",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let v = IntegrityEvent::Violation {
            source: IntegritySource::Frame,
            object: None,
            seq: None,
        };
        assert_eq!(v.name(), "integrity_violation");
        let s = IntegrityEvent::ScrubDivergence {
            range: 2,
            ranges: 8,
        };
        assert_eq!(s.name(), "scrub_divergence");
        assert_eq!(IntegritySource::StoreEntry.name(), "store_entry");
        assert_eq!(format!("{}", IntegritySource::LogRecord), "log_record");
    }
}
