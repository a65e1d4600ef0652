//! Adaptive Replacement Cache (Megiddo & Modha, FAST '03).
//!
//! ARC balances recency (T1) against frequency (T2) with a self-tuning
//! target `p`, steered by ghost hits in B1 (evicted from T1) and B2
//! (evicted from T2). It adapts to workload shifts that fixed policies
//! miss — exactly the kind of cache behaviour the paper says benchmarks
//! never examine.

use crate::olist::OrderedSet;
use crate::page::PageKey;
use crate::policy::EvictionPolicy;
use crate::slots::{self, SlotLists};

/// Recency list.
const T1: usize = 0;
/// Frequency list.
const T2: usize = 1;

/// The ARC policy.
///
/// Named `ArcPolicy` to avoid colliding with [`std::sync::Arc`] in user
/// imports. T1 and T2 hold page-cache slots; only the B1/B2 ghosts,
/// which have no slot, are kept by page key.
#[derive(Debug)]
pub struct ArcPolicy {
    /// T1 and T2.
    lists: SlotLists<2>,
    /// The page in each slot, for the ghost entry an eviction leaves.
    keys: Vec<PageKey>,
    b1: OrderedSet,
    b2: OrderedSet,
    /// Cache capacity `c` the ghosts are scaled to.
    capacity: u64,
    /// Adaptive target for |T1|.
    p: u64,
}

impl ArcPolicy {
    /// Creates an ARC policy for a cache of `capacity_pages`.
    pub fn new(capacity_pages: u64) -> Self {
        ArcPolicy {
            lists: SlotLists::default(),
            keys: Vec::new(),
            b1: OrderedSet::default(),
            b2: OrderedSet::default(),
            capacity: capacity_pages.max(2),
            p: 0,
        }
    }

    /// Current adaptation target for the recency list (test visibility).
    pub fn target_p(&self) -> u64 {
        self.p
    }

    /// Sizes of (T1, T2, B1, B2) for diagnostics.
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.lists.len(T1),
            self.lists.len(T2),
            self.b1.len(),
            self.b2.len(),
        )
    }

    fn trim_ghosts(&mut self) {
        let (t1, t2) = (self.lists.len(T1), self.lists.len(T2));
        // |T1| + |B1| <= c and total directory <= 2c.
        while t1 + self.b1.len() > self.capacity as usize {
            if self.b1.pop_front().is_none() {
                break;
            }
        }
        while t1 + t2 + self.b1.len() + self.b2.len() > 2 * self.capacity as usize {
            if self.b2.pop_front().is_none() {
                break;
            }
        }
    }
}

impl EvictionPolicy for ArcPolicy {
    fn insert(&mut self, slot: u32, key: PageKey) {
        *slots::at(&mut self.keys, slot, key) = key;
        if self.b1.remove(key) {
            // Ghost hit in B1: favour recency.
            let delta = (self.b2.len().max(1) / self.b1.len().max(1)).max(1) as u64;
            self.p = (self.p + delta).min(self.capacity);
            self.lists.push_back(T2, slot);
        } else if self.b2.remove(key) {
            // Ghost hit in B2: favour frequency.
            let delta = (self.b1.len().max(1) / self.b2.len().max(1)).max(1) as u64;
            self.p = self.p.saturating_sub(delta);
            self.lists.push_back(T2, slot);
        } else {
            self.lists.push_back(T1, slot);
        }
        self.trim_ghosts();
    }

    fn touch(&mut self, slot: u32) {
        self.lists.move_to_back(T2, slot);
    }

    fn evict(&mut self) -> Option<u32> {
        // REPLACE: evict from T1 if it exceeds the target, else from T2.
        let (t1, t2) = (self.lists.len(T1), self.lists.len(T2));
        let from_t1 = t1 > 0 && (t1 as u64 > self.p.max(1) || t2 == 0);
        let (list, ghosts) = if from_t1 {
            (T1, &mut self.b1)
        } else {
            (T2, &mut self.b2)
        };
        let victim = self.lists.pop_front(list)?;
        ghosts.push_back(self.keys[victim as usize]);
        self.trim_ghosts();
        Some(victim)
    }

    fn remove(&mut self, slot: u32) {
        self.lists.unlink(slot);
    }

    fn forget(&mut self, key: PageKey) {
        self.b1.remove(key);
        self.b2.remove(key);
    }

    fn name(&self) -> &'static str {
        "arc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    /// Inserts page `i` in slot `i`.
    fn insert(a: &mut ArcPolicy, i: u32) {
        a.insert(i, key(u64::from(i)));
    }

    #[test]
    fn single_touch_stays_in_t1() {
        let mut a = ArcPolicy::new(8);
        insert(&mut a, 1);
        let (t1, t2, _, _) = a.list_sizes();
        assert_eq!((t1, t2), (1, 0));
    }

    #[test]
    fn second_touch_promotes_to_t2() {
        let mut a = ArcPolicy::new(8);
        insert(&mut a, 1);
        a.touch(1);
        let (t1, t2, _, _) = a.list_sizes();
        assert_eq!((t1, t2), (0, 1));
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut a = ArcPolicy::new(4);
        for i in 0..4 {
            insert(&mut a, i);
        }
        let p0 = a.target_p();
        assert_eq!(a.evict(), Some(0)); // key 0 -> B1
        a.insert(7, key(0)); // ghost hit, in a new slot
        assert!(a.target_p() > p0, "p did not grow on B1 hit");
        // Promoted straight to T2.
        let (_, t2, _, _) = a.list_sizes();
        assert!(t2 >= 1);
    }

    #[test]
    fn ghost_hit_in_b2_shrinks_p() {
        let mut a = ArcPolicy::new(4);
        // Build frequency traffic: promote 0 to T2, then push it to B2.
        insert(&mut a, 0);
        a.touch(0);
        // Grow p so the shrink is observable.
        for i in 1..5 {
            insert(&mut a, i);
        }
        a.evict();
        a.evict();
        // Force T2 eviction by draining T1 empty first.
        while a.list_sizes().0 > 0 {
            a.evict();
        }
        a.evict(); // now from T2 -> B2
        let p_before = a.target_p();
        insert(&mut a, 0); // whichever ghost 0 is in adjusts p
        assert!(a.target_p() <= p_before.max(1));
    }

    #[test]
    fn frequency_protected_from_scan() {
        let mut a = ArcPolicy::new(8);
        // Hot pages touched repeatedly live in T2.
        for i in 0..4 {
            insert(&mut a, i);
            a.touch(i);
        }
        // Scan of cold pages fills T1; evictions should drain T1 first.
        let mut evicted = Vec::new();
        for i in 100..120 {
            insert(&mut a, i);
            while a.list_sizes().0 + a.list_sizes().1 > 8 {
                evicted.push(a.evict().unwrap());
            }
        }
        let lost_hot = evicted.iter().filter(|&&s| s < 4).count();
        assert!(lost_hot <= 1, "scan evicted hot set: {lost_hot}/4 lost");
    }

    #[test]
    fn directory_stays_bounded() {
        let mut a = ArcPolicy::new(16);
        let mut free = Vec::new();
        for i in 0..1000 {
            a.insert(free.pop().unwrap_or(i), key(u64::from(i)));
            while a.list_sizes().0 + a.list_sizes().1 > 16 {
                free.push(a.evict().unwrap());
            }
        }
        let (t1, t2, b1, b2) = a.list_sizes();
        assert!(t1 + t2 <= 16);
        assert!(
            t1 + t2 + b1 + b2 <= 32,
            "directory leak: {:?}",
            (t1, t2, b1, b2)
        );
    }
}
