//! The page index: `PageKey → slot` in two levels, shaped like the
//! 64-entry nodes of Linux's per-inode page-cache xarray.
//!
//! One hash probe keyed by `(file, page / 64)` finds a chunk of 64 slot
//! numbers, and the page's slot is the chunk's entry `page % 64`. Nearby
//! pages of a file share a chunk, so the map holds one entry per
//! populated chunk instead of one per page. A chunk returns to the free
//! list as soon as its last page leaves. The first level is a map, not a
//! per-file array, because the storage stack keys its metadata stream by
//! raw disk block number: sparse, up to the size of the device.

use crate::page::PageKey;
use crate::slots::NIL;
use rb_simcore::fnv::FnvHashMap;
use std::collections::hash_map::Entry;

const SHIFT: u32 = 6;
/// Pages per chunk.
const WIDTH: usize = 1 << SHIFT;

#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Slot of each page of the chunk, `NIL` where none is resident.
    slots: [u32; WIDTH],
    /// Entries that are not `NIL`.
    live: u32,
}

/// The chunk that holds `key` (its key: the file and `page / 64`), and
/// the page's entry in it.
fn split(key: PageKey) -> (PageKey, usize) {
    let chunk = PageKey::new(key.file, key.page >> SHIFT);
    (chunk, (key.page & (WIDTH as u64 - 1)) as usize)
}

/// Maps each resident page to its page-table slot.
#[derive(Debug, Default)]
pub(crate) struct PageIndex {
    map: FnvHashMap<PageKey, u32>,
    chunks: Vec<Chunk>,
    free: Vec<u32>,
    len: usize,
}

impl PageIndex {
    /// Pages indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of `key`, if it is indexed.
    pub(crate) fn get(&self, key: PageKey) -> Option<u32> {
        let (chunk, i) = split(key);
        let slot = self.chunks[*self.map.get(&chunk)? as usize].slots[i];
        (slot != NIL).then_some(slot)
    }

    /// Indexes the absent `key` at `slot`.
    pub(crate) fn insert(&mut self, key: PageKey, slot: u32) {
        let (chunk, i) = split(key);
        let c = *self.map.entry(chunk).or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.chunks.push(Chunk {
                    slots: [NIL; WIDTH],
                    live: 0,
                });
                (self.chunks.len() - 1) as u32
            })
        });
        let chunk = &mut self.chunks[c as usize];
        debug_assert_eq!(chunk.slots[i], NIL, "{key:?} is already indexed");
        chunk.slots[i] = slot;
        chunk.live += 1;
        self.len += 1;
    }

    /// Unindexes `key`, returning its slot. The chunk is freed with its
    /// last page.
    pub(crate) fn remove(&mut self, key: PageKey) -> Option<u32> {
        let (chunk, i) = split(key);
        let Entry::Occupied(entry) = self.map.entry(chunk) else {
            return None;
        };
        let c = *entry.get();
        let chunk = &mut self.chunks[c as usize];
        let slot = std::mem::replace(&mut chunk.slots[i], NIL);
        if slot == NIL {
            return None;
        }
        chunk.live -= 1;
        if chunk.live == 0 {
            entry.remove();
            self.free.push(c);
        }
        self.len -= 1;
        Some(slot)
    }

    /// Empties the index, handing every `(key, slot)` it held to `f`.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(PageKey, u32)) {
        for (chunk, c) in self.map.drain() {
            for (i, &slot) in (0..).zip(&self.chunks[c as usize].slots) {
                if slot != NIL {
                    f(PageKey::new(chunk.file, chunk.page << SHIFT | i), slot);
                }
            }
        }
        self.chunks.clear();
        self.free.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, page: u64) -> PageKey {
        PageKey::new(file, page)
    }

    #[test]
    fn emptied_chunk_is_freed_and_reused() {
        let mut ix = PageIndex::default();
        ix.insert(key(1, 5), 0);
        ix.insert(key(1, 6), 1);
        assert_eq!(ix.remove(key(1, 5)), Some(0));
        assert_eq!(ix.map.len(), 1, "a live page keeps its chunk");
        assert_eq!(ix.remove(key(1, 6)), Some(1));
        assert!(ix.map.is_empty());
        assert_eq!(ix.free, vec![0]);
        // Another file's chunk takes the freed one, which starts empty.
        ix.insert(key(2, 1 << 20), 7);
        assert_eq!((ix.chunks.len(), ix.free.len()), (1, 0));
        assert_eq!(ix.get(key(2, 1 << 20)), Some(7));
        assert_eq!(ix.get(key(1, 5)), None);
        assert_eq!(ix.get(key(1, 6)), None);
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut ix = PageIndex::default();
        for p in 0..10 {
            ix.insert(key(3, p * 50), p as u32);
        }
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.remove(key(3, 50)), Some(1));
        assert_eq!(ix.remove(key(3, 50)), None, "already gone");
        assert_eq!(ix.remove(key(3, 51)), None, "never indexed, chunk live");
        assert_eq!(ix.remove(key(4, 0)), None, "no such chunk");
        assert_eq!(ix.len(), 9);
    }

    #[test]
    fn pages_straddling_a_chunk_boundary_resolve_in_both_chunks() {
        let mut ix = PageIndex::default();
        for p in 60..70 {
            ix.insert(key(9, p), p as u32);
        }
        assert_eq!(ix.map.len(), 2);
        for p in 60..70 {
            assert_eq!(ix.get(key(9, p)), Some(p as u32), "page {p}");
        }
        assert_eq!(ix.get(key(9, 59)), None);
        assert_eq!(ix.get(key(9, 70)), None);
        assert_eq!(ix.get(key(8, 64)), None, "same chunk number, other file");
    }

    #[test]
    fn drain_yields_every_page_and_leaves_no_chunk() {
        let mut ix = PageIndex::default();
        let mut keys = vec![
            key(u64::MAX, 0),
            key(u64::MAX, 63),
            key(u64::MAX, 64),
            key(u64::MAX, (1 << 26) - 1),
            key(u64::MAX, u64::MAX),
            key(0, 64),
        ];
        for (slot, &k) in keys.iter().enumerate() {
            ix.insert(k, slot as u32);
        }
        ix.remove(key(0, 64));
        keys.pop();
        let mut drained = Vec::new();
        ix.drain(|k, slot| drained.push((k, slot)));
        drained.sort_unstable();
        let want: Vec<(PageKey, u32)> = (0..).zip(&keys).map(|(s, &k)| (k, s)).collect();
        assert_eq!(drained, want);
        assert_eq!(ix.len(), 0);
        assert!(ix.map.is_empty() && ix.chunks.is_empty() && ix.free.is_empty());
        assert!(keys.iter().all(|&k| ix.get(k).is_none()));
    }
}
