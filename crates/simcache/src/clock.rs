//! Second-chance (CLOCK) replacement.
//!
//! The classic low-overhead LRU approximation: pages sit on a circular
//! list with a reference bit; the hand sweeps, clearing bits, and evicts
//! the first unreferenced page it meets.

use crate::page::PageKey;
use crate::policy::EvictionPolicy;
use crate::slots;

#[derive(Debug, Clone, Copy)]
struct Entry {
    slot: u32,
    /// The page the slot held when it joined the ring. Only compaction
    /// reads it, to re-aim the hand at the page it pointed at (the slot
    /// of a dead entry may already hold another page).
    key: PageKey,
    referenced: bool,
    live: bool,
}

/// CLOCK replacement over a growable ring of page-cache slots.
///
/// `pos` maps each tracked slot to its ring position, so touch and
/// remove are one array lookup. Dead entries (from `remove`) are skipped
/// by the hand and compacted when they exceed half the ring, keeping
/// amortized costs O(1).
#[derive(Debug, Default)]
pub struct Clock {
    ring: Vec<Entry>,
    pos: Vec<u32>,
    hand: usize,
    dead: usize,
}

impl Clock {
    /// Creates an empty CLOCK tracker.
    pub fn new() -> Self {
        Clock::default()
    }

    fn compact(&mut self) {
        if self.dead * 2 <= self.ring.len() || self.ring.is_empty() {
            return;
        }
        // Re-aim the hand at the live entry of the page it pointed at,
        // or at the start when that page is gone.
        let hand_key = self.ring.get(self.hand).map(|e| e.key);
        self.ring.retain(|e| e.live);
        self.dead = 0;
        self.hand = 0;
        for (i, e) in self.ring.iter().enumerate() {
            self.pos[e.slot as usize] = i as u32;
            if Some(e.key) == hand_key {
                self.hand = i;
            }
        }
    }
}

impl EvictionPolicy for Clock {
    fn insert(&mut self, slot: u32, key: PageKey) {
        *slots::at(&mut self.pos, slot, 0) = self.ring.len() as u32;
        self.ring.push(Entry {
            slot,
            key,
            referenced: false,
            live: true,
        });
    }

    fn touch(&mut self, slot: u32) {
        self.ring[self.pos[slot as usize] as usize].referenced = true;
    }

    fn evict(&mut self) -> Option<u32> {
        if self.ring.len() == self.dead {
            return None;
        }
        loop {
            let i = self.hand % self.ring.len();
            self.hand = (i + 1) % self.ring.len();
            let e = &mut self.ring[i];
            if !e.live {
                continue;
            }
            if e.referenced {
                e.referenced = false;
            } else {
                e.live = false;
                self.dead += 1;
                let slot = e.slot;
                self.compact();
                return Some(slot);
            }
        }
    }

    fn remove(&mut self, slot: u32) {
        self.ring[self.pos[slot as usize] as usize].live = false;
        self.dead += 1;
        self.compact();
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn unreferenced_evicted_first() {
        let mut c = Clock::new();
        for i in 0..4 {
            c.insert(i, key(u64::from(i)));
        }
        // Reference 0 and 1; the hand should pass them once and evict 2.
        c.touch(0);
        c.touch(1);
        assert_eq!(c.evict(), Some(2));
    }

    #[test]
    fn second_chance_granted_once() {
        let mut c = Clock::new();
        c.insert(0, key(0));
        c.touch(0);
        // First sweep clears the bit; second sweep evicts.
        assert_eq!(c.evict(), Some(0));
        assert_eq!(c.evict(), None);
    }

    #[test]
    fn compaction_preserves_membership() {
        let mut c = Clock::new();
        for i in 0..100 {
            c.insert(i, key(u64::from(i)));
        }
        for i in 0..80 {
            c.remove(i);
        }
        // Touches after compaction still find their entries.
        for i in 80..100 {
            c.touch(i);
        }
        let mut left: Vec<u32> = std::iter::from_fn(|| c.evict()).collect();
        left.sort_unstable();
        assert_eq!(left, (80..100).collect::<Vec<u32>>());
    }

    #[test]
    fn compaction_reaims_the_hand_at_its_page() {
        let mut c = Clock::new();
        for i in 0..6 {
            c.insert(i, key(u64::from(i)));
        }
        c.touch(0);
        c.touch(1);
        // The hand clears 0 and 1, evicts 2 and rests on 3.
        assert_eq!(c.evict(), Some(2));
        c.remove(0);
        c.remove(4);
        c.remove(5);
        // Four of six entries are dead, so the ring compacted to [1, 3];
        // the hand still points at 3, not back at 1.
        assert_eq!(c.evict(), Some(3));
    }
}
