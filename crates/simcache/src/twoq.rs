//! 2Q replacement (Johnson & Shasha, VLDB '94).
//!
//! Pages enter a FIFO probation queue (A1in); only pages re-referenced
//! *after* falling out of probation — their identity remembered in the
//! A1out ghost queue — are promoted to the protected LRU main queue (Am).
//! This makes 2Q scan-resistant: a one-pass sequential read cannot flush
//! the hot set, unlike pure LRU.

use crate::olist::OrderedSet;
use crate::page::PageKey;
use crate::policy::EvictionPolicy;
use crate::slots::{self, SlotLists};

/// Probation queue (FIFO).
const A1IN: usize = 0;
/// Protected main queue (LRU).
const AM: usize = 1;

/// The 2Q policy.
///
/// The resident queues hold page-cache slots; only the A1out ghosts,
/// which have no slot, are kept by page key.
#[derive(Debug)]
pub struct TwoQ {
    /// A1in and Am.
    queues: SlotLists<2>,
    /// The page in each slot, for the ghost entry an eviction leaves.
    keys: Vec<PageKey>,
    a1out: OrderedSet,
    /// Probation queue target size (Kin), in pages.
    kin: u64,
    /// Ghost queue size bound (Kout), in pages.
    kout: u64,
}

impl TwoQ {
    /// Creates a 2Q policy tuned for a cache of `capacity_pages`, using
    /// the authors' recommended Kin = 25 % and Kout = 50 % of capacity.
    pub fn new(capacity_pages: u64) -> Self {
        let capacity = capacity_pages.max(4);
        TwoQ {
            queues: SlotLists::default(),
            keys: Vec::new(),
            a1out: OrderedSet::default(),
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
        }
    }

    fn trim_ghost(&mut self) {
        while self.a1out.len() as u64 > self.kout {
            self.a1out.pop_front();
        }
    }

    /// Number of pages in the probation queue (test visibility).
    pub fn probation_len(&self) -> usize {
        self.queues.len(A1IN)
    }

    /// Number of pages in the protected queue (test visibility).
    pub fn protected_len(&self) -> usize {
        self.queues.len(AM)
    }
}

impl EvictionPolicy for TwoQ {
    fn insert(&mut self, slot: u32, key: PageKey) {
        *slots::at(&mut self.keys, slot, key) = key;
        // A re-reference after probation promotes; a first sighting
        // goes on probation.
        let queue = if self.a1out.remove(key) { AM } else { A1IN };
        self.queues.push_back(queue, slot);
    }

    fn touch(&mut self, slot: u32) {
        // Hits in A1in deliberately do not reorder (2Q rule).
        if self.queues.list_of(slot) == Some(AM) {
            self.queues.move_to_back(AM, slot);
        }
    }

    fn evict(&mut self) -> Option<u32> {
        if self.queues.len(A1IN) as u64 > self.kin || self.queues.len(AM) == 0 {
            let slot = self.queues.pop_front(A1IN)?;
            self.a1out.push_back(self.keys[slot as usize]);
            self.trim_ghost();
            Some(slot)
        } else {
            self.queues.pop_front(AM)
        }
    }

    fn remove(&mut self, slot: u32) {
        self.queues.unlink(slot);
    }

    fn forget(&mut self, key: PageKey) {
        self.a1out.remove(key);
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn fresh_pages_go_to_probation() {
        let mut q = TwoQ::new(16);
        q.insert(0, key(1));
        assert_eq!(q.probation_len(), 1);
        assert_eq!(q.protected_len(), 0);
    }

    #[test]
    fn ghost_hit_promotes() {
        let mut q = TwoQ::new(16); // kin = 4
        for i in 0..6 {
            q.insert(i, key(u64::from(i)));
        }
        // Probation over-full: evictions drain A1in into the ghost list.
        assert_eq!(q.evict(), Some(0));
        // Key 0 is now a ghost; re-inserting it (in any slot) goes
        // straight to Am.
        q.insert(9, key(0));
        assert_eq!(q.protected_len(), 1);
        assert_eq!(q.probation_len(), 5);
    }

    #[test]
    fn forgotten_ghost_is_not_promoted() {
        let mut q = TwoQ::new(16);
        for i in 0..6 {
            q.insert(i, key(u64::from(i)));
        }
        assert_eq!(q.evict(), Some(0));
        q.forget(key(0));
        q.insert(0, key(0));
        assert_eq!(q.protected_len(), 0);
    }

    #[test]
    fn scan_resistance() {
        let mut q = TwoQ::new(16);
        // Build a hot set in Am via ghost promotion.
        for i in 0..8 {
            q.insert(i, key(u64::from(i)));
        }
        for _ in 0..8 {
            q.evict();
        }
        for i in 0..4 {
            q.insert(i, key(u64::from(i))); // promoted from ghost to Am
        }
        assert_eq!(q.protected_len(), 4);
        // A long one-touch scan floods probation only.
        let mut evicted = Vec::new();
        for i in 100..130 {
            q.insert(i, key(u64::from(i)));
            if q.probation_len() + q.protected_len() > 16 {
                evicted.push(q.evict().unwrap());
            }
        }
        // The hot set survived the scan.
        assert_eq!(q.protected_len(), 4);
        assert!(evicted.iter().all(|&s| s >= 100), "hot set flushed by scan");
    }

    #[test]
    fn evict_prefers_overfull_probation() {
        let mut q = TwoQ::new(8); // kin = 2
        q.insert(10, key(10));
        q.evict(); // 10 -> ghost
        q.insert(10, key(10)); // promote to Am
        for i in 0..3 {
            q.insert(i, key(u64::from(i))); // probation now above kin
        }
        assert_eq!(
            q.evict(),
            Some(0),
            "should drain probation before touching Am"
        );
        assert_eq!(q.protected_len(), 1);
    }
}
