//! Fencing epochs and time-bounded leadership leases.
//!
//! Split-brain-safe failover rests on two cooperating mechanisms:
//!
//! - An [`Epoch`] is a monotonically increasing fencing token minted each
//!   time a replica is promoted to primary. Every wire frame carries the
//!   sender's epoch; receivers reject frames whose epoch is lower than the
//!   highest they have observed, so a deposed primary on the far side of a
//!   partition cannot overwrite state owned by its successor.
//! - A [`Lease`] is the primary's time-bounded permission to act as leader.
//!   It is renewed from the *send* timestamp of an acknowledged outbound
//!   probe (guard-start-before-send: the backup's declaration timer had not
//!   started before the probe left, so a renewal anchored there cannot
//!   outlive the declaration bound) and sized so that its duration plus
//!   `clock_skew + link_delay_bound` is strictly less than the backup's
//!   declaration bound: by the time a backup may promote, the old primary's
//!   lease has provably lapsed even under worst-case clock skew and message
//!   delay.
//!
//! # Examples
//!
//! ```
//! use rtpb_types::{Epoch, Lease, Time, TimeDelta};
//!
//! let e = Epoch::INITIAL;
//! assert!(e.next() > e);
//!
//! let mut lease = Lease::new(TimeDelta::from_millis(200));
//! lease.renew(Time::ZERO);
//! assert!(lease.is_valid(Time::ZERO + TimeDelta::from_millis(100)));
//! assert!(!lease.is_valid(Time::ZERO + TimeDelta::from_millis(300)));
//! ```

use core::fmt;

use crate::time::{Time, TimeDelta};

/// Monotonically increasing fencing token minted at promotion.
///
/// Epoch `0` is the epoch of the cluster's founding primary. Each failover
/// mints `next()`, so a frame's epoch totally orders the leadership history:
/// a receiver that has seen epoch `n` can safely discard any frame tagged
/// with an epoch `< n` — its sender has been deposed.
///
/// # Examples
///
/// ```
/// use rtpb_types::Epoch;
///
/// let genesis = Epoch::INITIAL;
/// let after_failover = genesis.next();
/// assert!(after_failover > genesis);
/// assert_eq!(after_failover.value(), 1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(u64);

impl Epoch {
    /// The epoch of the founding primary, before any failover.
    pub const INITIAL: Self = Self(0);

    /// Creates an epoch from its raw counter value.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// The raw counter value.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The epoch minted by the next promotion.
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch#{}", self.0)
    }
}

/// Time-bounded leadership lease held by the acting primary.
///
/// The lease starts expired; confirmed evidence of a backup tracking this
/// primary — an acknowledged probe, anchored at its *send* timestamp —
/// calls [`Lease::renew`], pushing the expiry `duration` past the evidence
/// instant. Renewal is monotone: evidence arriving out of order can never
/// pull an already-granted expiry backwards. A primary whose lease has
/// lapsed must stop originating updates *and* stop admitting client
/// writes — its successors may already have been promoted.
///
/// # Examples
///
/// ```
/// use rtpb_types::{Lease, Time, TimeDelta};
///
/// let mut lease = Lease::new(TimeDelta::from_millis(200));
/// assert!(!lease.is_valid(Time::ZERO)); // never renewed
/// lease.renew(Time::ZERO);
/// assert!(lease.is_valid(Time::ZERO + TimeDelta::from_millis(199)));
/// assert!(!lease.is_valid(Time::ZERO + TimeDelta::from_millis(200)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    duration: TimeDelta,
    expires_at: Option<Time>,
}

impl Lease {
    /// Creates a lease of the given duration, initially expired.
    #[must_use]
    pub const fn new(duration: TimeDelta) -> Self {
        Self {
            duration,
            expires_at: None,
        }
    }

    /// The configured lease duration.
    #[must_use]
    pub const fn duration(self) -> TimeDelta {
        self.duration
    }

    /// Extends the lease to `now + duration`, keeping any later expiry
    /// already granted (renewal evidence may arrive out of order; older
    /// evidence must never shorten the lease).
    pub fn renew(&mut self, now: Time) {
        let candidate = now + self.duration;
        if self.expires_at.is_none_or(|t| candidate > t) {
            self.expires_at = Some(candidate);
        }
    }

    /// Whether the lease covers the instant `now`.
    ///
    /// A lease that was never renewed is invalid at every instant.
    #[must_use]
    pub fn is_valid(self, now: Time) -> bool {
        self.expires_at.is_some_and(|t| now < t)
    }

    /// The instant the lease lapses, if it was ever renewed.
    #[must_use]
    pub const fn expires_at(self) -> Option<Time> {
        self.expires_at
    }

    /// Forgets any renewal, returning the lease to the expired state.
    pub fn revoke(&mut self) {
        self.expires_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_ordered_and_monotone() {
        let a = Epoch::INITIAL;
        let b = a.next();
        let c = b.next();
        assert!(a < b && b < c);
        assert_eq!(c.value(), 2);
        assert_eq!(Epoch::new(7).value(), 7);
        assert_eq!(Epoch::new(3).to_string(), "epoch#3");
    }

    #[test]
    fn fresh_lease_is_invalid_until_renewed() {
        let lease = Lease::new(TimeDelta::from_millis(100));
        assert!(!lease.is_valid(Time::ZERO));
        assert_eq!(lease.expires_at(), None);
    }

    #[test]
    fn renewal_extends_exactly_one_duration() {
        let mut lease = Lease::new(TimeDelta::from_millis(100));
        let t0 = Time::ZERO + TimeDelta::from_millis(40);
        lease.renew(t0);
        assert_eq!(lease.expires_at(), Some(t0 + TimeDelta::from_millis(100)));
        assert!(lease.is_valid(t0 + TimeDelta::from_millis(99)));
        assert!(!lease.is_valid(t0 + TimeDelta::from_millis(100)));
    }

    #[test]
    fn later_renewal_supersedes_earlier() {
        let mut lease = Lease::new(TimeDelta::from_millis(100));
        lease.renew(Time::ZERO);
        let t1 = Time::ZERO + TimeDelta::from_millis(80);
        lease.renew(t1);
        assert!(lease.is_valid(Time::ZERO + TimeDelta::from_millis(150)));
    }

    #[test]
    fn out_of_order_renewal_never_shortens_the_lease() {
        let mut lease = Lease::new(TimeDelta::from_millis(100));
        let t1 = Time::ZERO + TimeDelta::from_millis(80);
        lease.renew(t1);
        // Older evidence (e.g. a reordered ack) arrives after newer.
        lease.renew(Time::ZERO);
        assert_eq!(lease.expires_at(), Some(t1 + TimeDelta::from_millis(100)));
    }

    #[test]
    fn revoke_expires_immediately() {
        let mut lease = Lease::new(TimeDelta::from_millis(100));
        lease.renew(Time::ZERO);
        lease.revoke();
        assert!(!lease.is_valid(Time::ZERO));
    }
}
