//! Eviction equivalence: seeded random mixes of every `PageCache`
//! operation per replacement policy, digested.
//!
//! Two mixes run: a dense one (six files of 96 pages) and a sparse one
//! shaped like the storage stack's metadata stream (one file keyed by
//! raw block numbers spread over 2^26 blocks), whose pages rarely share
//! a 64-page chunk of the page index.
//!
//! The digest covers every outcome list the cache hands back (demand
//! misses, prefetches, eviction writebacks, fsync and background flush
//! lists, shrink writebacks, residency probes) and the final statistics,
//! so any change to an eviction decision, a readahead insertion or a
//! flush order moves it. The pinned values were computed before the
//! page table was shared between residency and the policies; no
//! workload in the benchmark runs CLOCK, 2Q or ARC, so this is their
//! proof that the refactor kept every decision.
//!
//! One caveat for CLOCK. Its compaction re-aims the hand at the page it
//! pointed at, or at the ring start when that page is already gone, so
//! when `invalidate_file` removes a file's pages one by one, *which*
//! page goes first can move the hand. Before the refactor that order was
//! the iteration order of a per-file hash set: the old code, unchanged
//! except for removing the file's pages in ascending or descending page
//! order, or most recently inserted first, gives one CLOCK digest
//! (pinned below) and with the hash-set order another
//! (`0x0c3a_e845_66b9_d985`). The page table walks the file's chain
//! most recently inserted first, a deterministic order.
//!
//! Along the way every step checks the invariants a caller relies on:
//! residency never exceeds capacity, `fsync` returns only the file's
//! dirty pages in sorted order, and the statistics agree with the
//! outcomes counted here.

use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::page::{CacheStats, PageKey};
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::ReadaheadConfig;
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;

const FILES: u64 = 6;
const FILE_PAGES: u64 = 96;
const STEPS: u32 = 20_000;

/// Running FNV-1a digest over tagged words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = fnv1a(self.0, &x.to_le_bytes());
    }

    fn pages(&mut self, tag: u64, pages: &[u64]) {
        self.word(tag);
        self.word(pages.len() as u64);
        for &p in pages {
            self.word(p);
        }
    }

    fn keys(&mut self, tag: u64, keys: &[PageKey]) {
        self.word(tag);
        self.word(keys.len() as u64);
        for k in keys {
            self.word(k.file);
            self.word(k.page);
        }
    }

    fn stats(&mut self, s: &CacheStats) {
        for x in [
            s.hits,
            s.misses,
            s.insertions,
            s.evicted_clean,
            s.evicted_dirty,
            s.prefetched,
            s.prefetch_hits,
            s.writeback_flushed,
        ] {
            self.word(x);
        }
    }
}

/// The outcome counts `stats()` must agree with.
#[derive(Default)]
struct Counted {
    hits: u64,
    misses: u64,
    prefetched: u64,
    evicted_dirty: u64,
    flushed: u64,
}

/// One cache under a seeded mix: every call's outcome goes into the
/// digest and the counts, and `end_step` checks the invariants.
struct Mix {
    kind: PolicyKind,
    cache: PageCache,
    digest: Digest,
    counted: Counted,
}

impl Mix {
    fn new(kind: PolicyKind, capacity_pages: u64) -> Self {
        Mix {
            kind,
            cache: PageCache::new(CacheConfig {
                capacity_pages,
                policy: kind,
                readahead: ReadaheadConfig::default(),
                writeback: WritebackConfig::default(),
            }),
            digest: Digest(FNV_OFFSET),
            counted: Counted::default(),
        }
    }

    fn read(&mut self, file: u64, first: u64, count: u64, file_pages: u64, now: Nanos) {
        let out = self.cache.read(file, first, count, file_pages, now);
        self.counted.hits += out.hit_pages;
        self.counted.misses += out.miss_pages.len() as u64;
        self.counted.prefetched += out.prefetch_pages.len() as u64;
        self.counted.evicted_dirty += out.writeback_pages.len() as u64;
        self.digest.word(out.hit_pages);
        self.digest.pages(1, &out.miss_pages);
        self.digest.pages(2, &out.prefetch_pages);
        self.digest.keys(3, &out.writeback_pages);
    }

    fn write(&mut self, file: u64, first: u64, count: u64, now: Nanos) {
        let out = self.cache.write(file, first, count, now);
        self.counted.evicted_dirty += out.writeback_pages.len() as u64;
        self.digest.keys(4, &out.writeback_pages);
    }

    fn insert_clean(&mut self, file: u64, page: u64) {
        let dirty = self.cache.insert_clean(file, page);
        self.counted.evicted_dirty += dirty.len() as u64;
        self.digest.keys(5, &dirty);
    }

    fn fsync(&mut self, file: u64, step: u32) {
        let name = self.kind.name();
        let dirty_before = self.cache.dirty_pages();
        let flushed = self.cache.fsync(file);
        assert!(
            flushed.iter().all(|k| k.file == file),
            "{name} step {step}: fsync({file}) returned another file's page"
        );
        assert!(
            flushed.windows(2).all(|w| w[0] < w[1]),
            "{name} step {step}: fsync result not sorted"
        );
        assert_eq!(
            dirty_before - self.cache.dirty_pages(),
            flushed.len() as u64,
            "{name} step {step}: fsync returned a clean page"
        );
        self.counted.flushed += flushed.len() as u64;
        self.digest.keys(6, &flushed);
    }

    fn flush_due(&mut self, now: Nanos) {
        let due = self.cache.take_writeback_due(now);
        self.counted.flushed += due.len() as u64;
        self.digest.keys(7, &due);
    }

    fn invalidate_page(&mut self, file: u64, page: u64) {
        self.digest.word(8);
        self.digest
            .word(u64::from(self.cache.is_resident(file, page)));
        self.cache.invalidate_page(file, page);
        assert!(!self.cache.is_resident(file, page));
    }

    fn set_capacity(&mut self, pages: u64) {
        let dirty = self.cache.set_capacity_pages(pages);
        self.counted.evicted_dirty += dirty.len() as u64;
        self.digest.keys(10, &dirty);
    }

    fn invalidate_all(&mut self) {
        self.cache.invalidate_all();
        assert_eq!(self.cache.resident_pages(), 0);
        assert_eq!(self.cache.dirty_pages(), 0);
    }

    fn end_step(&mut self, step: u32) {
        let (name, cache, c) = (self.kind.name(), &self.cache, &self.counted);
        assert!(
            cache.resident_pages() <= cache.capacity_pages(),
            "{name} step {step}: {} resident over capacity {}",
            cache.resident_pages(),
            cache.capacity_pages()
        );
        assert!(cache.dirty_pages() <= cache.resident_pages());
        let s = cache.stats();
        assert_eq!(
            (
                s.hits,
                s.misses,
                s.prefetched,
                s.evicted_dirty,
                s.writeback_flushed
            ),
            (c.hits, c.misses, c.prefetched, c.evicted_dirty, c.flushed),
            "{name} step {step}: stats disagree with the counted outcomes"
        );
        self.digest.word(cache.resident_pages());
        self.digest.word(cache.dirty_pages());
    }

    fn finish(mut self) -> u64 {
        self.digest.stats(&self.cache.stats());
        self.digest.0
    }
}

/// A page biased towards each file's hot head, so every policy sees
/// re-references, ghost hits and cold scans.
fn page(rng: &mut Rng) -> u64 {
    if rng.chance(0.6) {
        rng.below(16)
    } else {
        rng.below(FILE_PAGES)
    }
}

fn run_mix(kind: PolicyKind, seed: u64) -> u64 {
    let mut mix = Mix::new(kind, 64);
    let mut rng = Rng::new(seed);
    let mut cursor = [0u64; FILES as usize];
    let mut now = Nanos::ZERO;
    for step in 0..STEPS {
        now += Nanos::from_millis(rng.below(400));
        let file = rng.below(FILES);
        match rng.below(100) {
            0..=44 => {
                // Half the reads continue the file's stream, so readahead
                // ramps up; the rest land at a random page.
                let first = if rng.chance(0.5) {
                    cursor[file as usize]
                } else {
                    page(&mut rng)
                };
                let count = rng.range(1, 5);
                mix.read(file, first, count, FILE_PAGES, now);
                cursor[file as usize] = (first + count) % FILE_PAGES;
            }
            45..=64 => {
                let first = page(&mut rng);
                mix.write(file, first, rng.range(1, 4), now);
            }
            65..=71 => mix.insert_clean(file, page(&mut rng)),
            72..=77 => mix.fsync(file, step),
            78..=83 => mix.flush_due(now),
            84..=88 => mix.invalidate_page(file, page(&mut rng)),
            89..=91 => {
                mix.cache.invalidate_file(file);
                mix.digest.word(9);
                assert!((0..FILE_PAGES).all(|p| !mix.cache.is_resident(file, p)));
            }
            // Shrink or grow around the starting capacity.
            92..=98 => mix.set_capacity(rng.range(16, 129)),
            _ => {
                if rng.chance(0.2) {
                    mix.invalidate_all();
                }
                mix.digest.word(11);
            }
        }
        mix.end_step(step);
    }
    mix.finish()
}

/// The metadata stream's file id: the storage stack caches metadata
/// under this one file, keyed by raw disk block number.
const META: u64 = u64::MAX;
/// Block numbers of the sparse mix lie below this (a 256 GiB device of
/// 4 KiB blocks).
const BLOCKS: u64 = 1 << 26;

/// A metadata-shaped key space: single-page reads and writes of
/// `META` at block numbers spread over `BLOCKS`. Most land near one of
/// a few cluster bases (block-group headers, inode tables, directory
/// blocks), half of those in each cluster's hot head; some walk on from
/// the last block so readahead crosses 64-page boundaries; the rest are
/// anywhere. A small data file shares
/// the same page numbers. Invalidations mostly miss, and the cache is
/// dropped whole now and then and refilled.
fn run_sparse(kind: PolicyKind, seed: u64) -> u64 {
    let mut mix = Mix::new(kind, 96);
    let mut rng = Rng::new(seed);
    let bases: Vec<u64> = (0..12).map(|_| rng.below(BLOCKS - 256)).collect();
    let mut last = 0u64;
    let mut now = Nanos::ZERO;
    for step in 0..STEPS {
        now += Nanos::from_millis(rng.below(400));
        let file = if rng.chance(0.9) { META } else { 7 };
        let block = match rng.below(10) {
            0..=5 => {
                let base = bases[rng.below(bases.len() as u64) as usize];
                base + if rng.chance(0.5) {
                    rng.below(16)
                } else {
                    rng.below(200)
                }
            }
            6..=7 => (last + 1) % BLOCKS,
            8 => [0, 63, 64, BLOCKS - 1][rng.below(4) as usize],
            _ => rng.below(BLOCKS),
        };
        last = block;
        match rng.below(100) {
            0..=44 => mix.read(file, block, 1, u64::MAX, now),
            45..=69 => mix.write(file, block, 1, now),
            70..=74 => mix.insert_clean(file, block),
            75..=78 => mix.fsync(file, step),
            79..=82 => mix.flush_due(now),
            83..=90 => {
                // Mostly a block that is not resident.
                let p = if rng.chance(0.7) {
                    rng.below(BLOCKS)
                } else {
                    block
                };
                mix.invalidate_page(file, p);
            }
            91..=97 => mix.set_capacity(rng.range(32, 193)),
            _ => {
                if rng.chance(0.1) {
                    mix.invalidate_all();
                }
                mix.digest.word(11);
            }
        }
        mix.end_step(step);
    }
    mix.finish()
}

/// Runs `run` for every policy and compares each digest with its pin.
/// Both mixes' pins were computed before the page index was chunked.
fn assert_pinned(pinned: [(PolicyKind, u64); 4], run: fn(PolicyKind, u64) -> u64) {
    let got: Vec<(PolicyKind, u64)> = pinned
        .iter()
        .map(|&(kind, _)| (kind, run(kind, 0x5EED_CAC4E)))
        .collect();
    for (&(kind, want), &(_, digest)) in pinned.iter().zip(&got) {
        assert_eq!(
            digest,
            want,
            "{} eviction digest moved: {digest:#018x} (all: {:x?})",
            kind.name(),
            got.iter().map(|(_, d)| *d).collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_policy_keeps_its_pinned_eviction_digest() {
    assert_pinned(
        [
            (PolicyKind::Lru, 0x5daa_80a0_2876_d2b8),
            (PolicyKind::Clock, 0x1d2e_f945_f78a_44ef),
            (PolicyKind::TwoQ, 0xede2_1816_c568_0f59),
            (PolicyKind::Arc, 0x9d6a_664c_c497_b0ff),
        ],
        run_mix,
    );
}

#[test]
fn every_policy_keeps_its_pinned_sparse_key_digest() {
    assert_pinned(
        [
            (PolicyKind::Lru, 0x809f_9a56_2dac_becc),
            (PolicyKind::Clock, 0x0ea8_12f1_220d_f50f),
            (PolicyKind::TwoQ, 0x1488_921b_8a47_0885),
            (PolicyKind::Arc, 0x96ac_8319_bcdf_3434),
        ],
        run_sparse,
    );
}
