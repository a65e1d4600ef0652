//! Internal ordered-set primitive for the 2Q and ARC ghost queues.

use crate::page::PageKey;
use rb_simcore::fnv::FnvHashMap;
use std::collections::BTreeMap;

/// A set of page keys ordered by insertion/refresh recency.
///
/// Ghost pages have left the cache, so they have no page-table slot and
/// are kept by key.
///
/// Front = oldest (LRU end), back = newest (MRU end). All operations are
/// O(log n) via a monotone stamp index.
#[derive(Debug, Default, Clone)]
pub(crate) struct OrderedSet {
    stamp_of: FnvHashMap<PageKey, u64>,
    by_stamp: BTreeMap<u64, PageKey>,
    next_stamp: u64,
}

impl OrderedSet {
    /// Inserts or refreshes `key` at the MRU end.
    pub(crate) fn push_back(&mut self, key: PageKey) {
        if let Some(old) = self.stamp_of.get(&key).copied() {
            self.by_stamp.remove(&old);
        }
        let s = self.next_stamp;
        self.next_stamp += 1;
        self.stamp_of.insert(key, s);
        self.by_stamp.insert(s, key);
    }

    /// Removes and returns the LRU (oldest) key.
    pub(crate) fn pop_front(&mut self) -> Option<PageKey> {
        let (&stamp, &key) = self.by_stamp.iter().next()?;
        self.by_stamp.remove(&stamp);
        self.stamp_of.remove(&key);
        Some(key)
    }

    /// Removes `key` if present; returns whether it was present.
    pub(crate) fn remove(&mut self, key: PageKey) -> bool {
        match self.stamp_of.remove(&key) {
            Some(stamp) => {
                self.by_stamp.remove(&stamp);
                true
            }
            None => false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.stamp_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn fifo_order_without_refresh() {
        let mut s = OrderedSet::default();
        for i in 0..5 {
            s.push_back(key(i));
        }
        for i in 0..5 {
            assert_eq!(s.pop_front(), Some(key(i)));
        }
        assert!(s.pop_front().is_none());
    }

    #[test]
    fn refresh_moves_to_back() {
        let mut s = OrderedSet::default();
        s.push_back(key(0));
        s.push_back(key(1));
        s.push_back(key(0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop_front(), Some(key(1)));
        assert_eq!(s.pop_front(), Some(key(0)));
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = OrderedSet::default();
        s.push_back(key(7));
        assert!(s.remove(key(7)));
        assert!(!s.remove(key(7)));
        assert_eq!(s.len(), 0);
    }
}
