//! Eviction equivalence: one seeded random mix of every `PageCache`
//! operation per replacement policy, digested.
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
    let mut cache = PageCache::new(CacheConfig {
        capacity_pages: 64,
        policy: kind,
        readahead: ReadaheadConfig::default(),
        writeback: WritebackConfig::default(),
    });
    let mut rng = Rng::new(seed);
    let mut digest = Digest(FNV_OFFSET);
    let mut counted = Counted::default();
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
                let out = cache.read(file, first, count, FILE_PAGES, now);
                cursor[file as usize] = (first + count) % FILE_PAGES;
                counted.hits += out.hit_pages;
                counted.misses += out.miss_pages.len() as u64;
                counted.prefetched += out.prefetch_pages.len() as u64;
                counted.evicted_dirty += out.writeback_pages.len() as u64;
                digest.word(out.hit_pages);
                digest.pages(1, &out.miss_pages);
                digest.pages(2, &out.prefetch_pages);
                digest.keys(3, &out.writeback_pages);
            }
            45..=64 => {
                let out = cache.write(file, page(&mut rng), rng.range(1, 4), now);
                counted.evicted_dirty += out.writeback_pages.len() as u64;
                digest.keys(4, &out.writeback_pages);
            }
            65..=71 => {
                let dirty = cache.insert_clean(file, page(&mut rng));
                counted.evicted_dirty += dirty.len() as u64;
                digest.keys(5, &dirty);
            }
            72..=77 => {
                let dirty_before = cache.dirty_pages();
                let flushed = cache.fsync(file);
                assert!(
                    flushed.iter().all(|k| k.file == file),
                    "{} step {step}: fsync({file}) returned another file's page",
                    kind.name()
                );
                assert!(
                    flushed.windows(2).all(|w| w[0] < w[1]),
                    "{} step {step}: fsync result not sorted",
                    kind.name()
                );
                assert_eq!(
                    dirty_before - cache.dirty_pages(),
                    flushed.len() as u64,
                    "{} step {step}: fsync returned a clean page",
                    kind.name()
                );
                counted.flushed += flushed.len() as u64;
                digest.keys(6, &flushed);
            }
            78..=83 => {
                let due = cache.take_writeback_due(now);
                counted.flushed += due.len() as u64;
                digest.keys(7, &due);
            }
            84..=88 => {
                let p = page(&mut rng);
                digest.word(8);
                digest.word(u64::from(cache.is_resident(file, p)));
                cache.invalidate_page(file, p);
                assert!(!cache.is_resident(file, p));
            }
            89..=91 => {
                cache.invalidate_file(file);
                digest.word(9);
                assert!((0..FILE_PAGES).all(|p| !cache.is_resident(file, p)));
            }
            92..=98 => {
                // Shrink or grow around the starting capacity.
                let dirty = cache.set_capacity_pages(rng.range(16, 129));
                counted.evicted_dirty += dirty.len() as u64;
                digest.keys(10, &dirty);
            }
            _ => {
                if rng.chance(0.2) {
                    cache.invalidate_all();
                    assert_eq!(cache.resident_pages(), 0);
                    assert_eq!(cache.dirty_pages(), 0);
                }
                digest.word(11);
            }
        }
        assert!(
            cache.resident_pages() <= cache.capacity_pages(),
            "{} step {step}: {} resident over capacity {}",
            kind.name(),
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
            (
                counted.hits,
                counted.misses,
                counted.prefetched,
                counted.evicted_dirty,
                counted.flushed
            ),
            "{} step {step}: stats disagree with the counted outcomes",
            kind.name()
        );
        digest.word(cache.resident_pages());
        digest.word(cache.dirty_pages());
    }
    digest.stats(&cache.stats());
    digest.0
}

#[test]
fn every_policy_keeps_its_pinned_eviction_digest() {
    let pinned = [
        (PolicyKind::Lru, 0x5daa_80a0_2876_d2b8),
        (PolicyKind::Clock, 0x1d2e_f945_f78a_44ef),
        (PolicyKind::TwoQ, 0xede2_1816_c568_0f59),
        (PolicyKind::Arc, 0x9d6a_664c_c497_b0ff),
    ];
    let got: Vec<(PolicyKind, u64)> = pinned
        .iter()
        .map(|&(kind, _)| (kind, run_mix(kind, 0x5EED_CAC4E)))
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
