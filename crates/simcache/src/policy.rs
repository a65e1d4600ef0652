//! The eviction-policy abstraction and policy selection.
//!
//! The paper asks: "How are elements evicted from the cache? To the best
//! of our knowledge, none of the existing benchmarks consider these
//! questions." rocketbench makes eviction a first-class experimental
//! variable: every policy implements [`EvictionPolicy`], and the cache
//! benchmarks sweep across them.

use crate::page::PageKey;

/// A page replacement policy over the page cache's slots.
///
/// The cache owns residency: its page table maps each resident page to
/// a slot (a small integer, reused once the page leaves), and the
/// policy keeps only a replacement order over slots; ghost history of
/// evicted pages, which have no slot, is all it may key by page.
/// Implementations must uphold two invariants, checked by the shared
/// conformance tests:
///
/// 1. `evict` returns a slot that was inserted and has not since been
///    evicted or removed (no phantom or double evictions).
/// 2. Every inserted slot stays tracked until it is evicted or removed:
///    evicting until `None` yields exactly the tracked slots.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Notes that `key` became resident in `slot`, which the policy
    /// does not currently track.
    fn insert(&mut self, slot: u32, key: PageKey);

    /// Notes that the page in tracked `slot` was accessed.
    fn touch(&mut self, slot: u32);

    /// Chooses a victim slot and stops tracking it (`None` when no slot
    /// is tracked).
    fn evict(&mut self) -> Option<u32>;

    /// Stops tracking `slot` without treating it as an eviction
    /// (invalidation).
    fn remove(&mut self, slot: u32);

    /// Drops any ghost history of the non-resident page `key`
    /// (invalidation). Policies without ghosts ignore it.
    fn forget(&mut self, _key: PageKey) {}

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Selectable replacement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Second-chance clock.
    Clock,
    /// 2Q (Johnson & Shasha): FIFO probation + LRU protection.
    TwoQ,
    /// Adaptive Replacement Cache (Megiddo & Modha).
    Arc,
}

impl PolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::Arc,
    ];

    /// Instantiates the policy for a cache of `capacity_pages`.
    pub fn build(self, capacity_pages: u64) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(crate::lru::Lru::new()),
            PolicyKind::Clock => Box::new(crate::clock::Clock::new()),
            PolicyKind::TwoQ => Box::new(crate::twoq::TwoQ::new(capacity_pages)),
            PolicyKind::Arc => Box::new(crate::arc::ArcPolicy::new(capacity_pages)),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::TwoQ => "2q",
            PolicyKind::Arc => "arc",
        }
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every policy.

    use super::*;
    use rb_simcore::rng::Rng;
    use std::collections::{HashMap, HashSet};

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    /// Evicts until `None`, returning the victims in order.
    fn drain(policy: &mut dyn EvictionPolicy) -> Vec<u32> {
        std::iter::from_fn(|| policy.evict()).collect()
    }

    /// Every inserted slot is evicted exactly once; evictions are never
    /// phantom; an empty policy evicts nothing.
    pub fn check_basic(policy: &mut dyn EvictionPolicy) {
        assert_eq!(policy.evict(), None, "{} evicted from empty", policy.name());
        // Slots need not be dense or match the key.
        for i in 0..10 {
            policy.insert(3 * i as u32 + 1, key(100 + i));
        }
        let mut seen = HashSet::new();
        for victim in drain(policy) {
            assert!(
                victim % 3 == 1 && victim < 30,
                "{} phantom eviction",
                policy.name()
            );
            assert!(seen.insert(victim), "{} double eviction", policy.name());
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(policy.evict(), None);
    }

    /// remove() never yields the removed slot from a later evict().
    pub fn check_remove(policy: &mut dyn EvictionPolicy) {
        for i in 0..8 {
            policy.insert(i, key(u64::from(i)));
        }
        policy.remove(3);
        policy.remove(7);
        let evicted: HashSet<u32> = drain(policy).into_iter().collect();
        assert!(
            !evicted.contains(&3),
            "{} resurrected removed slot",
            policy.name()
        );
        assert!(!evicted.contains(&7));
        assert_eq!(evicted.len(), 6);
    }

    /// A random mixed workload keeps the policy consistent with a model
    /// of the tracked slots. Slots are recycled the way the page cache
    /// recycles them, so a key returns in a different slot and a slot
    /// returns holding a different key (ghost hits included).
    pub fn check_random_model(policy: &mut dyn EvictionPolicy, seed: u64) {
        let mut model: HashMap<u32, PageKey> = HashMap::new();
        let mut resident: HashSet<PageKey> = HashSet::new();
        let mut free: Vec<u32> = Vec::new();
        let mut next_slot = 0u32;
        let mut rng = Rng::new(seed);
        for step in 0..5000u64 {
            match rng.below(100) {
                0..=49 => {
                    let k = key(rng.below(200));
                    if resident.contains(&k) {
                        let slot = model.iter().find(|(_, v)| **v == k).map(|(s, _)| *s);
                        policy.touch(slot.expect("resident key has a slot"));
                    } else {
                        let slot = free.pop().unwrap_or_else(|| {
                            next_slot += 1;
                            next_slot - 1
                        });
                        policy.insert(slot, k);
                        model.insert(slot, k);
                        resident.insert(k);
                    }
                }
                50..=69 => match policy.evict() {
                    Some(v) => {
                        let k = model.remove(&v);
                        assert!(
                            k.is_some(),
                            "{} phantom eviction at step {step}",
                            policy.name()
                        );
                        resident.remove(&k.unwrap());
                        free.push(v);
                    }
                    None => assert!(model.is_empty(), "{} lost slots", policy.name()),
                },
                70..=79 => {
                    let k = key(rng.below(200));
                    match model.iter().find(|(_, v)| **v == k).map(|(s, _)| *s) {
                        Some(slot) => {
                            policy.remove(slot);
                            model.remove(&slot);
                            resident.remove(&k);
                            free.push(slot);
                        }
                        None => policy.forget(k),
                    }
                }
                _ => {}
            }
        }
        let mut left = drain(policy);
        left.sort_unstable();
        let mut want: Vec<u32> = model.into_keys().collect();
        want.sort_unstable();
        assert_eq!(left, want, "{} tracked set diverged", policy.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_buildable() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(128);
            assert_eq!(p.evict(), None);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn conformance_all_policies() {
        for kind in PolicyKind::ALL {
            conformance::check_basic(kind.build(64).as_mut());
            conformance::check_remove(kind.build(64).as_mut());
            conformance::check_random_model(kind.build(64).as_mut(), 0xC0FFEE);
        }
    }
}
