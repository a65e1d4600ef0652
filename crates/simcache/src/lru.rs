//! Least-recently-used replacement.
//!
//! The reference policy: Linux's page cache approximates LRU (via the
//! two-list active/inactive scheme), and the paper's Figure 1 analysis —
//! steady-state hit ratio = capacity / file size under uniform random
//! access — holds exactly for LRU.

use crate::page::PageKey;
use crate::policy::EvictionPolicy;
use crate::slots::SlotLists;

/// Exact LRU as one intrusive doubly-linked list over the page cache's
/// slots.
///
/// Every operation — insert, touch, evict, remove — is O(1) pointer
/// surgery with no map probe: the cache's page table already resolved
/// the page to its slot.
#[derive(Debug, Default)]
pub struct Lru {
    /// Front = least recently used (eviction side).
    order: SlotLists<1>,
}

impl Lru {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        Lru::default()
    }
}

impl EvictionPolicy for Lru {
    fn insert(&mut self, slot: u32, _key: PageKey) {
        self.order.push_back(0, slot);
    }

    fn touch(&mut self, slot: u32) {
        self.order.move_to_back(0, slot);
    }

    fn evict(&mut self) -> Option<u32> {
        self.order.pop_front(0)
    }

    fn remove(&mut self, slot: u32) {
        self.order.unlink(slot);
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn evicts_least_recent() {
        let mut l = Lru::new();
        for i in 0..5 {
            l.insert(i, key(u64::from(i)));
        }
        // Touch 0 so 1 becomes the oldest.
        l.touch(0);
        assert_eq!(l.evict(), Some(1));
        assert_eq!(l.evict(), Some(2));
    }

    #[test]
    fn removed_slots_are_reused_without_disturbing_order() {
        let mut l = Lru::new();
        for i in 0..8 {
            l.insert(i, key(u64::from(i)));
        }
        l.remove(3);
        l.remove(0);
        // The cache hands freed slots to new pages.
        l.insert(3, key(100));
        l.insert(0, key(101));
        let order: Vec<u32> = std::iter::from_fn(|| l.evict()).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 6, 7, 3, 0]);
    }

    #[test]
    fn sequential_scan_evicts_in_order() {
        let mut l = Lru::new();
        for i in 0..100 {
            l.insert(i, key(u64::from(i)));
        }
        for i in 0..100 {
            assert_eq!(l.evict(), Some(i));
        }
        assert_eq!(l.evict(), None);
    }
}
