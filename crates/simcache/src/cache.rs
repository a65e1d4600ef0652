//! The unified page cache: residency, replacement, readahead, writeback.
//!
//! This is the layer whose capacity — and whose few-megabyte run-to-run
//! wobble — produces the paper's Figure 1 cliff and 35 % RSD transition
//! spike. The cache is a pure bookkeeping machine: it answers which pages
//! hit, which must be read from media, which should be prefetched, and
//! which dirty pages an eviction pushes out. The storage stack translates
//! those page lists into device I/O and latency.

use crate::index::PageIndex;
use crate::page::{CacheStats, FileId, PageKey};
use crate::policy::{EvictionPolicy, PolicyKind};
use crate::readahead::{Readahead, ReadaheadConfig};
use crate::slots::NIL;
use crate::writeback::{Writeback, WritebackConfig};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use rb_simcore::units::PageNo;

/// Page cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Capacity in pages.
    pub capacity_pages: u64,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Readahead settings (applied per file).
    pub readahead: ReadaheadConfig,
    /// Writeback settings.
    pub writeback: WritebackConfig,
}

impl CacheConfig {
    /// The paper's testbed: 410 MiB of page cache (512 MiB RAM minus OS),
    /// LRU, default readahead and writeback.
    pub fn paper_testbed() -> Self {
        CacheConfig {
            capacity_pages: 410 * 256, // 410 MiB of 4 KiB pages
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        }
    }
}

/// One resident page: a slot of the page table.
#[derive(Debug, Clone, Copy)]
struct Page {
    key: PageKey,
    /// Brought in by readahead and not yet read.
    prefetched: bool,
    /// Neighbours in the owning file's chain (`NIL` at either end).
    prev: u32,
    next: u32,
}

/// Result of a read access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Pages satisfied from the cache.
    pub hit_pages: u64,
    /// Demand pages that must be read from media.
    pub miss_pages: Vec<PageNo>,
    /// Readahead pages to fetch alongside (already inserted as resident).
    pub prefetch_pages: Vec<PageNo>,
    /// Dirty pages pushed out by the insertions; the caller must write
    /// them to media.
    pub writeback_pages: Vec<PageKey>,
}

impl ReadOutcome {
    /// True if every requested page hit.
    pub fn all_hit(&self) -> bool {
        self.miss_pages.is_empty()
    }
}

/// Result of a write access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Dirty pages pushed out by the insertions (write them to media).
    pub writeback_pages: Vec<PageKey>,
}

/// The simulated page cache.
///
/// # Examples
///
/// ```
/// use rb_simcache::cache::{CacheConfig, PageCache};
/// use rb_simcore::time::Nanos;
///
/// let mut cache = PageCache::new(CacheConfig::paper_testbed());
/// let cold = cache.read(1, 0, 2, 1024, Nanos::ZERO);
/// assert_eq!(cold.miss_pages, vec![0, 1]);
/// let warm = cache.read(1, 0, 2, 1024, Nanos::ZERO);
/// assert!(warm.all_hit());
/// ```
#[derive(Debug)]
pub struct PageCache {
    config: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    // The page table: one slot of `pages` per resident page, and
    // `index`, which finds a page's slot with one probe of its 64-page
    // chunk (see `crate::index`). The policy and the per-file chains
    // speak in slots, so a page access costs that one probe, not one
    // per structure.
    pages: Vec<Page>,
    free: Vec<u32>,
    index: PageIndex,
    // Head of each file's chain through `pages`, so fsync and
    // invalidate_file touch only the file's own pages. Chains are
    // unordered; `fsync` sorts, `invalidate_file` does not care.
    by_file: FnvHashMap<FileId, u32>,
    readahead: FnvHashMap<FileId, Readahead>,
    writeback: Writeback,
    stats: CacheStats,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let policy = config.policy.build(config.capacity_pages);
        let writeback = Writeback::new(config.writeback);
        PageCache {
            config,
            policy,
            pages: Vec::new(),
            free: Vec::new(),
            index: PageIndex::default(),
            by_file: FnvHashMap::default(),
            readahead: FnvHashMap::default(),
            writeback,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.config.capacity_pages
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.index.len() as u64
    }

    /// Number of dirty pages awaiting writeback.
    pub fn dirty_pages(&self) -> u64 {
        self.writeback.dirty_count() as u64
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Name of the active eviction policy (for attribution in reports).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Returns true if the page is resident.
    pub fn is_resident(&self, file: FileId, page: PageNo) -> bool {
        self.index.get(PageKey::new(file, page)).is_some()
    }

    /// Resizes the cache (models OS memory pressure / per-run jitter).
    ///
    /// Returns dirty pages evicted by a shrink; the caller must write
    /// them back.
    pub fn set_capacity_pages(&mut self, pages: u64) -> Vec<PageKey> {
        self.config.capacity_pages = pages;
        self.evict_to_capacity()
    }

    /// Drops `slot` from the page table (index and file chain) and
    /// frees it; the policy is the caller's business.
    fn release(&mut self, slot: u32) -> PageKey {
        let Page {
            key, prev, next, ..
        } = self.pages[slot as usize];
        self.index.remove(key);
        if next != NIL {
            self.pages[next as usize].prev = prev;
        }
        match prev {
            NIL if next == NIL => {
                self.by_file.remove(&key.file);
            }
            NIL => {
                self.by_file.insert(key.file, next);
            }
            p => self.pages[p as usize].next = next,
        }
        self.free.push(slot);
        key
    }

    fn evict_to_capacity(&mut self) -> Vec<PageKey> {
        let mut dirty = Vec::new();
        while self.index.len() as u64 > self.config.capacity_pages {
            let Some(slot) = self.policy.evict() else {
                break;
            };
            let victim = self.release(slot);
            // One probe: clearing reports whether it was dirty.
            if self.writeback.take(victim) {
                self.stats.evicted_dirty += 1;
                dirty.push(victim);
            } else {
                self.stats.evicted_clean += 1;
            }
        }
        dirty
    }

    /// Makes the non-resident `key` resident: a slot at the head of its
    /// file's chain, an index entry, and a place in the policy.
    fn insert_absent(&mut self, key: PageKey, prefetched: bool) {
        let head = self.by_file.entry(key.file).or_insert(NIL);
        let page = Page {
            key,
            prefetched,
            prev: NIL,
            next: *head,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pages[slot as usize] = page;
                slot
            }
            None => {
                self.pages.push(page);
                (self.pages.len() - 1) as u32
            }
        };
        if *head != NIL {
            self.pages[*head as usize].prev = slot;
        }
        *head = slot;
        self.index.insert(key, slot);
        self.policy.insert(slot, key);
        self.stats.insertions += 1;
        if prefetched {
            self.stats.prefetched += 1;
        }
    }

    /// Performs a read of `count` pages of `file` starting at `first`.
    ///
    /// `file_pages` bounds readahead at end of file. The returned outcome
    /// lists demand misses and prefetch pages; both are inserted as
    /// resident (the caller is expected to fetch them from media before
    /// virtual time advances past the access).
    pub fn read(
        &mut self,
        file: FileId,
        first: PageNo,
        count: u64,
        file_pages: u64,
        _now: Nanos,
    ) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        for page in first..first + count {
            let key = PageKey::new(file, page);
            // `get`, not `entry`: the hit path stays one plain probe.
            if let Some(slot) = self.index.get(key) {
                self.stats.hits += 1;
                out.hit_pages += 1;
                let resident = &mut self.pages[slot as usize];
                if resident.prefetched {
                    resident.prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                self.policy.touch(slot);
            } else {
                self.stats.misses += 1;
                out.miss_pages.push(page);
                self.insert_absent(key, false);
            }
        }
        // Readahead beyond the request.
        let window = self
            .readahead
            .entry(file)
            .or_insert_with(|| Readahead::new(self.config.readahead))
            .on_read(first, count);
        let ra_start = first + count;
        let ra_end = (ra_start + window).min(file_pages);
        for page in ra_start..ra_end {
            let key = PageKey::new(file, page);
            if self.index.get(key).is_none() {
                out.prefetch_pages.push(page);
                self.insert_absent(key, true);
            }
        }
        out.writeback_pages = self.evict_to_capacity();
        out
    }

    /// Inserts a single clean page (file-system cluster fetch), returning
    /// any dirty pages evicted to make room.
    pub fn insert_clean(&mut self, file: FileId, page: PageNo) -> Vec<PageKey> {
        let key = PageKey::new(file, page);
        if self.index.get(key).is_none() {
            self.insert_absent(key, false);
        }
        self.evict_to_capacity()
    }

    /// Performs a write of `count` pages of `file` starting at `first`.
    ///
    /// Pages are dirtied in place (no read-modify-write is modelled for
    /// partial pages; the stack issues whole-page writes).
    pub fn write(&mut self, file: FileId, first: PageNo, count: u64, now: Nanos) -> WriteOutcome {
        for page in first..first + count {
            let key = PageKey::new(file, page);
            if let Some(slot) = self.index.get(key) {
                self.policy.touch(slot);
            } else {
                self.insert_absent(key, false);
            }
            self.writeback.mark_dirty(key, now);
        }
        WriteOutcome {
            writeback_pages: self.evict_to_capacity(),
        }
    }

    /// Collects dirty pages due for background writeback at `now`.
    ///
    /// The pages remain resident (clean) after this call; the caller
    /// performs the media writes.
    pub fn take_writeback_due(&mut self, now: Nanos) -> Vec<PageKey> {
        let due = self.writeback.take_due(now, self.config.capacity_pages);
        self.stats.writeback_flushed += due.len() as u64;
        due
    }

    /// Flushes every dirty page of `file` (fsync). Pages stay resident.
    pub fn fsync(&mut self, file: FileId) -> Vec<PageKey> {
        let mut mine = Vec::new();
        let mut slot = self.by_file.get(&file).copied().unwrap_or(NIL);
        while slot != NIL {
            let Page { key, next, .. } = self.pages[slot as usize];
            if self.writeback.take(key) {
                mine.push(key);
            }
            slot = next;
        }
        self.stats.writeback_flushed += mine.len() as u64;
        mine.sort_unstable();
        mine
    }

    /// Drops one page of `file` (a media read that never delivered its
    /// data — the inserted page must not masquerade as a future hit).
    pub fn invalidate_page(&mut self, file: FileId, page: PageNo) {
        let key = PageKey::new(file, page);
        match self.index.get(key) {
            Some(slot) => {
                self.policy.remove(slot);
                self.release(slot);
            }
            None => self.policy.forget(key),
        }
        self.writeback.clear(key);
    }

    /// Drops every page of `file` (unlink / truncate). Dirty pages are
    /// discarded, as POSIX unlink discards un-synced data.
    pub fn invalidate_file(&mut self, file: FileId) {
        // The whole chain goes, so its links need no repair.
        let mut slot = self.by_file.remove(&file).unwrap_or(NIL);
        while slot != NIL {
            let Page { key, next, .. } = self.pages[slot as usize];
            self.index.remove(key);
            self.policy.remove(slot);
            self.writeback.clear(key);
            self.free.push(slot);
            slot = next;
        }
        self.readahead.remove(&file);
    }

    /// Drops every page in the cache (drop_caches).
    pub fn invalidate_all(&mut self) {
        self.index.drain(|key, slot| {
            self.policy.remove(slot);
            self.writeback.clear(key);
        });
        self.pages.clear();
        self.free.clear();
        self.by_file.clear();
        self.readahead.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: u64) -> PageCache {
        PageCache::new(CacheConfig {
            capacity_pages: pages,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        })
    }

    #[test]
    fn cold_then_warm() {
        let mut c = cache(100);
        let cold = c.read(1, 0, 4, 1000, Nanos::ZERO);
        assert_eq!(cold.miss_pages, vec![0, 1, 2, 3]);
        assert_eq!(cold.hit_pages, 0);
        let warm = c.read(1, 0, 4, 1000, Nanos::ZERO);
        assert!(warm.all_hit());
        assert_eq!(warm.hit_pages, 4);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = cache(10);
        for p in 0..50 {
            c.read(1, p, 1, 1000, Nanos::ZERO);
            assert!(c.resident_pages() <= 10, "over capacity at page {p}");
        }
        assert_eq!(c.stats().evicted_clean, 40);
    }

    #[test]
    fn lru_steady_state_hit_ratio_matches_theory() {
        // Uniform random over N pages with C-page LRU: hit ratio -> C/N.
        use rb_simcore::rng::Rng;
        let (cap, n) = (200u64, 800u64);
        let mut c = cache(cap);
        let mut rng = Rng::new(99);
        // Warm up.
        for _ in 0..20_000 {
            c.read(1, rng.below(n), 1, n, Nanos::ZERO);
        }
        let before = c.stats();
        for _ in 0..50_000 {
            c.read(1, rng.below(n), 1, n, Nanos::ZERO);
        }
        let after = c.stats();
        let hits = (after.hits - before.hits) as f64;
        let total = hits + (after.misses - before.misses) as f64;
        let ratio = hits / total;
        let expect = cap as f64 / n as f64;
        assert!(
            (ratio - expect).abs() < 0.02,
            "hit ratio {ratio:.3} vs theory {expect:.3}"
        );
    }

    #[test]
    fn readahead_inserts_and_counts_hits() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        });
        // Build a sequential stream.
        c.read(1, 0, 2, 1000, Nanos::ZERO);
        let second = c.read(1, 2, 2, 1000, Nanos::ZERO);
        assert_eq!(second.prefetch_pages, vec![4, 5, 6, 7]);
        // The prefetched pages now hit, and accuracy is recorded.
        let third = c.read(1, 4, 2, 1000, Nanos::ZERO);
        assert!(third.all_hit());
        assert_eq!(c.stats().prefetch_hits, 2);
        assert!(c.stats().prefetch_accuracy() > 0.0);
    }

    #[test]
    fn readahead_respects_eof() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        });
        c.read(1, 0, 2, 5, Nanos::ZERO);
        let out = c.read(1, 2, 2, 5, Nanos::ZERO);
        // Only page 4 exists past the request.
        assert_eq!(out.prefetch_pages, vec![4]);
    }

    #[test]
    fn writes_dirty_and_fsync_cleans() {
        let mut c = cache(100);
        c.write(3, 0, 4, Nanos::from_secs(1));
        assert_eq!(c.dirty_pages(), 4);
        let flushed = c.fsync(3);
        assert_eq!(flushed.len(), 4);
        assert_eq!(c.dirty_pages(), 0);
        // Pages remain resident after fsync.
        assert!(c.is_resident(3, 0));
        // Second fsync flushes nothing.
        assert!(c.fsync(3).is_empty());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache(4);
        c.write(1, 0, 4, Nanos::ZERO);
        // Reading 4 new pages evicts the dirty ones.
        let out = c.read(1, 100, 4, 1000, Nanos::ZERO);
        assert_eq!(out.writeback_pages.len(), 4);
        assert_eq!(c.stats().evicted_dirty, 4);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn invalidate_file_is_selective() {
        let mut c = cache(100);
        c.read(1, 0, 4, 1000, Nanos::ZERO);
        c.read(2, 0, 4, 1000, Nanos::ZERO);
        c.write(1, 10, 1, Nanos::ZERO);
        c.invalidate_file(1);
        assert!(!c.is_resident(1, 0));
        assert!(c.is_resident(2, 0));
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn shrink_capacity_evicts() {
        let mut c = cache(100);
        for p in 0..50 {
            c.write(1, p, 1, Nanos::ZERO);
        }
        let dirty = c.set_capacity_pages(20);
        assert_eq!(c.resident_pages(), 20);
        assert_eq!(dirty.len(), 30, "all evicted pages were dirty");
    }

    #[test]
    fn background_writeback_under_pressure() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig {
                dirty_ratio: 0.1,
                ..Default::default()
            },
        });
        for p in 0..30 {
            c.write(1, p, 1, Nanos::from_secs(1));
        }
        // 30 dirty > 10 % of 100: flusher kicks in.
        let due = c.take_writeback_due(Nanos::from_secs(2));
        assert!(!due.is_empty());
        assert!(c.dirty_pages() < 30);
    }

    #[test]
    fn invalidate_all_resets() {
        let mut c = cache(100);
        c.read(1, 0, 10, 1000, Nanos::ZERO);
        c.write(2, 0, 5, Nanos::ZERO);
        c.invalidate_all();
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn works_with_every_policy() {
        for kind in PolicyKind::ALL {
            let mut c = PageCache::new(CacheConfig {
                capacity_pages: 16,
                policy: kind,
                readahead: ReadaheadConfig::disabled(),
                writeback: WritebackConfig::default(),
            });
            use rb_simcore::rng::Rng;
            let mut rng = Rng::new(5);
            for _ in 0..2000 {
                c.read(1, rng.below(64), 2, 64, Nanos::ZERO);
                assert!(
                    c.resident_pages() <= 16,
                    "{} overflowed capacity",
                    kind.name()
                );
            }
            assert!(c.stats().hit_ratio() > 0.05, "{} never hits", kind.name());
        }
    }
}
