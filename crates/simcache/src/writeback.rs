//! Dirty-page tracking and writeback policy.
//!
//! Write benchmarks are dominated by *when* dirty pages reach the disk:
//! a benchmark that ends before the flusher runs measures memory, one
//! that runs past the dirty threshold measures the disk — another of the
//! paper's hidden dimensions made explicit and controllable here.

use crate::page::PageKey;
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Writeback configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritebackConfig {
    /// Fraction of cache capacity that may be dirty before writeback
    /// becomes urgent (Linux `vm.dirty_ratio`, default 0.20).
    pub dirty_ratio: f64,
    /// Age at which a dirty page is flushed regardless of pressure
    /// (Linux `dirty_expire_centisecs`, default 30 s).
    pub max_age: Nanos,
    /// Pages flushed per writeback batch.
    pub batch: usize,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig {
            dirty_ratio: 0.20,
            max_age: Nanos::from_secs(30),
            batch: 64,
        }
    }
}

/// Tracks dirty pages and decides what to flush when.
#[derive(Debug, Clone)]
pub struct Writeback {
    config: WritebackConfig,
    /// Dirty pages ordered by the instant they were first dirtied: a
    /// min-heap with lazy deletion. `age_of` is the ground truth; a
    /// heap entry whose `(instant, key)` no longer matches `age_of` is
    /// stale (cleared or re-dirtied) and skipped on pop. Flush order is
    /// identical to an ordered-map walk — ascending `(instant, key)` —
    /// without paying a tree rebalance on every `mark_dirty`/`clear`.
    by_age: BinaryHeap<Reverse<(Nanos, PageKey)>>,
    /// Dirty-state probe map (`take` runs on every eviction).
    age_of: FnvHashMap<PageKey, Nanos>,
}

impl Writeback {
    /// Creates an empty tracker.
    pub fn new(config: WritebackConfig) -> Self {
        Writeback {
            config,
            by_age: BinaryHeap::new(),
            age_of: Default::default(),
        }
    }

    /// Drops stale heap entries once they outnumber the live ones, so
    /// the heap stays proportional to the dirty set.
    fn maybe_compact(&mut self) {
        if self.by_age.len() > 2 * self.age_of.len() + 64 {
            self.by_age = self.age_of.iter().map(|(&k, &t)| Reverse((t, k))).collect();
        }
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.age_of.len()
    }

    /// Returns true if `key` is dirty.
    pub fn is_dirty(&self, key: PageKey) -> bool {
        self.age_of.contains_key(&key)
    }

    /// Marks a page dirty at `now` (keeps the original dirty time on
    /// repeated writes, as Linux does for expiry purposes).
    pub fn mark_dirty(&mut self, key: PageKey, now: Nanos) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.age_of.entry(key) {
            e.insert(now);
            self.by_age.push(Reverse((now, key)));
        }
    }

    /// Clears the dirty state (page written back or invalidated). The
    /// heap entry is left behind and skipped lazily.
    pub fn clear(&mut self, key: PageKey) {
        self.age_of.remove(&key);
    }

    /// [`Writeback::clear`] that reports whether the page was dirty, so
    /// eviction decides dirty-vs-clean with a single probe.
    pub fn take(&mut self, key: PageKey) -> bool {
        self.age_of.remove(&key).is_some()
    }

    /// Returns true if dirty pressure exceeds the ratio for a cache of
    /// `capacity_pages`.
    pub fn over_ratio(&self, capacity_pages: u64) -> bool {
        self.dirty_count() as f64 > self.config.dirty_ratio * capacity_pages.max(1) as f64
    }

    /// Collects up to one batch of pages due for writeback at `now`:
    /// expired pages always, plus oldest-first overflow while over the
    /// dirty ratio. Returned pages are cleared from the tracker (the
    /// caller performs the media writes).
    pub fn take_due(&mut self, now: Nanos, capacity_pages: u64) -> Vec<PageKey> {
        let mut out = Vec::new();
        while out.len() < self.config.batch {
            let Some(&Reverse((dirtied, key))) = self.by_age.peek() else {
                break;
            };
            // Stale entry: the page was cleared (or re-dirtied at a
            // different instant) after this entry was pushed.
            if self.age_of.get(&key) != Some(&dirtied) {
                self.by_age.pop();
                continue;
            }
            let expired = now.saturating_sub(dirtied) >= self.config.max_age;
            let pressured = self.over_ratio(capacity_pages);
            if !(expired || pressured) {
                break;
            }
            self.by_age.pop();
            self.age_of.remove(&key);
            out.push(key);
        }
        self.maybe_compact();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn dirty_bookkeeping() {
        let mut wb = Writeback::new(WritebackConfig::default());
        wb.mark_dirty(key(1), Nanos::from_secs(1));
        wb.mark_dirty(key(2), Nanos::from_secs(2));
        assert_eq!(wb.dirty_count(), 2);
        assert!(wb.is_dirty(key(1)));
        wb.clear(key(1));
        assert!(!wb.is_dirty(key(1)));
        assert_eq!(wb.dirty_count(), 1);
    }

    #[test]
    fn rewrite_keeps_first_dirty_time() {
        let mut wb = Writeback::new(WritebackConfig::default());
        wb.mark_dirty(key(1), Nanos::from_secs(1));
        wb.mark_dirty(key(1), Nanos::from_secs(100));
        // Expires based on the first dirty time.
        let due = wb.take_due(Nanos::from_secs(31), 1_000_000);
        assert_eq!(due, vec![key(1)]);
    }

    #[test]
    fn expiry_flushes_old_pages_only() {
        let mut wb = Writeback::new(WritebackConfig::default());
        wb.mark_dirty(key(1), Nanos::from_secs(0));
        wb.mark_dirty(key(2), Nanos::from_secs(20));
        let due = wb.take_due(Nanos::from_secs(35), 1_000_000);
        assert_eq!(due, vec![key(1)]);
        assert_eq!(wb.dirty_count(), 1);
    }

    #[test]
    fn ratio_pressure_flushes_oldest_first() {
        let cfg = WritebackConfig {
            dirty_ratio: 0.5,
            ..Default::default()
        };
        let mut wb = Writeback::new(cfg);
        for i in 0..8 {
            wb.mark_dirty(key(i), Nanos::from_secs(i));
        }
        // Capacity 10, ratio 0.5: 8 dirty > 5, flush down toward the ratio.
        let due = wb.take_due(Nanos::from_secs(9), 10);
        assert!(!due.is_empty());
        assert_eq!(due[0], key(0));
        // Flushing stops once under the ratio.
        assert!(wb.dirty_count() <= 5);
    }

    #[test]
    fn batch_limit_respected() {
        let cfg = WritebackConfig {
            batch: 3,
            dirty_ratio: 0.0,
            ..Default::default()
        };
        let mut wb = Writeback::new(cfg);
        for i in 0..10 {
            wb.mark_dirty(key(i), Nanos::ZERO);
        }
        let due = wb.take_due(Nanos::from_secs(100), 10);
        assert_eq!(due.len(), 3);
    }

    #[test]
    fn nothing_due_under_thresholds() {
        let mut wb = Writeback::new(WritebackConfig::default());
        wb.mark_dirty(key(1), Nanos::from_secs(100));
        let due = wb.take_due(Nanos::from_secs(101), 1_000_000);
        assert!(due.is_empty());
    }
}
