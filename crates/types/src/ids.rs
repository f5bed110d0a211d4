//! Typed identifiers for objects, nodes, and update tasks.
//!
//! Newtypes keep the three id spaces statically distinct (C-NEWTYPE): an
//! [`ObjectId`] indexes the replicated-object table, a [`NodeId`] names a
//! host in the cluster, and a [`TaskId`] names a periodic task inside a
//! scheduler.

use core::fmt;

/// Identifier of a replicated data object.
///
/// Assigned by the primary at registration time (§4.2) and carried in every
/// update message so the backup can route the payload to the right slot.
///
/// # Examples
///
/// ```
/// use rtpb_types::ObjectId;
///
/// let id = ObjectId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "obj#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u32);

/// Identifier of a host (primary, backup, or client node).
///
/// # Examples
///
/// ```
/// use rtpb_types::NodeId;
///
/// assert_ne!(NodeId::new(0), NodeId::new(1));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

/// Identifier of a periodic task inside a scheduler instance.
///
/// # Examples
///
/// ```
/// use rtpb_types::TaskId;
///
/// let t = TaskId::new(7);
/// assert_eq!(t.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

macro_rules! impl_id {
    ($ty:ident, $inner:ty, $prefix:literal) => {
        impl $ty {
            /// Creates an identifier from its raw index.
            #[must_use]
            pub const fn new(index: $inner) -> Self {
                Self(index)
            }

            /// The raw index.
            #[must_use]
            pub const fn index(self) -> $inner {
                self.0
            }

            /// The raw index widened to `usize`, for table indexing.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "#{}"), self.0)
            }
        }

        impl From<$inner> for $ty {
            fn from(index: $inner) -> Self {
                Self(index)
            }
        }
    };
}

impl_id!(ObjectId, u32, "obj");
impl_id!(NodeId, u16, "node");
impl_id!(TaskId, u32, "task");

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_their_index() {
        assert_eq!(ObjectId::new(42).index(), 42);
        assert_eq!(NodeId::new(42).index(), 42);
        assert_eq!(TaskId::new(42).index(), 42);
        assert_eq!(ObjectId::from(9u32), ObjectId::new(9));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(ObjectId::new(1).to_string(), "obj#1");
        assert_eq!(NodeId::new(2).to_string(), "node#2");
        assert_eq!(TaskId::new(3).to_string(), "task#3");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(ObjectId::new(1));
        set.insert(ObjectId::new(1));
        set.insert(ObjectId::new(2));
        assert_eq!(set.len(), 2);
        assert!(TaskId::new(1) < TaskId::new(2));
    }

    #[test]
    fn as_usize_widens() {
        assert_eq!(ObjectId::new(u32::MAX).as_usize(), u32::MAX as usize);
    }
}
