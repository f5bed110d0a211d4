//! A dense per-object table indexed by [`ObjectId`].
//!
//! Every store hands ids out in order from zero, so per-object state fits
//! a vector with one slot per id: a lookup is one bounds check instead of
//! a `BTreeMap` walk, and iteration still runs in id order. Only
//! [`IdTable::insert`] grows the table. Callers insert at registration,
//! never for an id read off the wire, so a frame naming an id far past the
//! registered range cannot size the table.

use rtpb_types::ObjectId;

/// Per-object values keyed by [`ObjectId`], iterated in id order.
#[derive(Debug, Clone)]
pub(crate) struct IdTable<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
        }
    }
}

/// Two tables are equal when they hold the same `(id, value)` pairs,
/// whatever their capacity.
impl<T: PartialEq> PartialEq for IdTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

fn slot(id: ObjectId) -> usize {
    id.index() as usize
}

impl<T> IdTable<T> {
    /// The value stored under `id`.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&T> {
        self.slots.get(slot(id)).and_then(Option::as_ref)
    }

    /// The value stored under `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut T> {
        self.slots.get_mut(slot(id)).and_then(Option::as_mut)
    }

    /// Whether `id` holds a value.
    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, growing the table to reach it, and
    /// returns the value it replaced.
    pub(crate) fn insert(&mut self, id: ObjectId, value: T) -> Option<T> {
        let i = slot(id);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value under `id`.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<T> {
        let old = self.slots.get_mut(slot(id)).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Number of ids holding a value.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no id holds a value.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(id, value)` pairs in id order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (ObjectId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (id_at(i), v)))
    }

    /// `(id, value)` pairs in id order, values mutable.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (ObjectId, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.as_mut().map(|v| (id_at(i), v)))
    }

    /// The values in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

fn id_at(i: usize) -> ObjectId {
    ObjectId::new(u32::try_from(i).expect("slots are indexed by u32 ids"))
}

impl<T> FromIterator<(ObjectId, T)> for IdTable<T> {
    fn from_iter<I: IntoIterator<Item = (ObjectId, T)>>(iter: I) -> Self {
        let mut table = IdTable::default();
        for (id, value) in iter {
            table.insert(id, value);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn insert_get_remove_track_len() {
        let mut t = IdTable::default();
        assert!(t.is_empty());
        assert_eq!(t.insert(id(3), 'c'), None);
        assert_eq!(t.insert(id(1), 'a'), None);
        assert_eq!(t.insert(id(3), 'C'), Some('c'));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(id(3)), Some(&'C'));
        assert_eq!(t.get(id(2)), None);
        assert_eq!(t.get(id(99)), None);
        assert!(t.contains(id(1)));
        assert_eq!(t.remove(id(1)), Some('a'));
        assert_eq!(t.remove(id(1)), None);
        assert_eq!(t.remove(id(99)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookups_past_the_end_never_grow_the_table() {
        let mut t: IdTable<u8> = IdTable::default();
        t.insert(id(0), 1);
        assert!(t.get_mut(id(u32::MAX)).is_none());
        assert!(t.remove(id(u32::MAX)).is_none());
        assert_eq!(t.slots.len(), 1);
    }

    #[test]
    fn iterates_in_id_order_and_compares_by_content() {
        let t: IdTable<u32> = [(id(5), 50), (id(0), 0), (id(2), 20)].into_iter().collect();
        let pairs: Vec<(ObjectId, u32)> = t.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(pairs, vec![(id(0), 0), (id(2), 20), (id(5), 50)]);
        assert_eq!(t.iter().next_back().map(|(i, _)| i), Some(id(5)));
        let mut shrunk = t.clone();
        shrunk.insert(id(9), 90);
        shrunk.remove(id(9));
        assert_eq!(shrunk, t, "trailing empty slots do not count");
    }
}
