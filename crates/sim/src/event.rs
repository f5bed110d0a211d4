//! Event identity.

use core::fmt;

/// Identity of a scheduled event.
///
/// Ids are unique within one [`Simulation`](crate::Simulation) run and
/// serve as the tie-breaker that makes simultaneous events execute in
/// scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number.
    #[must_use]
    pub const fn sequence(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ids_order_by_sequence() {
        assert!(EventId(1) < EventId(2));
        assert_eq!(EventId(7).sequence(), 7);
        assert_eq!(EventId(7).to_string(), "evt#7");
    }
}
