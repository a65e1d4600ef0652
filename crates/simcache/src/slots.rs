//! Intrusive recency lists over page-table slots, shared by the LRU, 2Q
//! and ARC policies.

/// Sentinel for "no slot".
pub(crate) const NIL: u32 = u32::MAX;

/// The entry for `slot` in a slot-indexed `vec`, grown with `fill`.
pub(crate) fn at<T: Clone>(vec: &mut Vec<T>, slot: u32, fill: T) -> &mut T {
    let i = slot as usize;
    if i >= vec.len() {
        vec.resize(i + 1, fill);
    }
    &mut vec[i]
}

#[derive(Debug, Clone, Copy, Default)]
struct Link {
    prev: u32,
    next: u32,
    /// One more than the list the slot is on; 0 = on no list.
    list: u8,
}

/// `N` doubly-linked lists threaded through one slot-indexed link
/// array; a slot is on at most one of them. Front = oldest (eviction
/// end). Every operation is O(1) pointer surgery with no key map: the
/// page cache's page table already maps keys to slots.
#[derive(Debug)]
pub(crate) struct SlotLists<const N: usize> {
    links: Vec<Link>,
    head: [u32; N],
    tail: [u32; N],
    len: [usize; N],
}

impl<const N: usize> Default for SlotLists<N> {
    fn default() -> Self {
        SlotLists {
            links: Vec::new(),
            head: [NIL; N],
            tail: [NIL; N],
            len: [0; N],
        }
    }
}

impl<const N: usize> SlotLists<N> {
    pub(crate) fn len(&self, list: usize) -> usize {
        self.len[list]
    }

    /// The list `slot` is on, if any.
    pub(crate) fn list_of(&self, slot: u32) -> Option<usize> {
        let list = self.links.get(slot as usize)?.list;
        list.checked_sub(1).map(usize::from)
    }

    /// Appends `slot`, which must be on no list, at the back of `list`.
    pub(crate) fn push_back(&mut self, list: usize, slot: u32) {
        let tail = self.tail[list];
        *at(&mut self.links, slot, Link::default()) = Link {
            prev: tail,
            next: NIL,
            list: list as u8 + 1,
        };
        match tail {
            NIL => self.head[list] = slot,
            t => self.links[t as usize].next = slot,
        }
        self.tail[list] = slot;
        self.len[list] += 1;
    }

    /// Takes `slot` off its list, returning which list that was.
    pub(crate) fn unlink(&mut self, slot: u32) -> Option<usize> {
        let list = self.list_of(slot)?;
        let Link { prev, next, .. } = self.links[slot as usize];
        match prev {
            NIL => self.head[list] = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail[list] = prev,
            n => self.links[n as usize].prev = prev,
        }
        self.links[slot as usize].list = 0;
        self.len[list] -= 1;
        Some(list)
    }

    /// Moves `slot` from whatever list it is on to the back of `list`.
    pub(crate) fn move_to_back(&mut self, list: usize, slot: u32) {
        self.unlink(slot);
        self.push_back(list, slot);
    }

    /// Removes and returns the front (oldest) slot of `list`.
    pub(crate) fn pop_front(&mut self, list: usize) -> Option<u32> {
        let slot = self.head[list];
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_membership() {
        let mut l: SlotLists<2> = SlotLists::default();
        for s in [4, 0, 9] {
            l.push_back(0, s);
        }
        l.push_back(1, 2);
        assert_eq!((l.len(0), l.len(1)), (3, 1));
        assert_eq!(l.list_of(9), Some(0));
        assert_eq!(l.list_of(2), Some(1));
        assert_eq!(l.list_of(7), None);
        assert_eq!(l.pop_front(0), Some(4));
        assert_eq!(l.list_of(4), None);
    }

    #[test]
    fn move_to_back_reorders_and_switches_lists() {
        let mut l: SlotLists<2> = SlotLists::default();
        for s in 0..4 {
            l.push_back(0, s);
        }
        l.move_to_back(0, 1);
        l.move_to_back(1, 2);
        assert_eq!(l.unlink(3), Some(0));
        assert_eq!(l.unlink(3), None, "a detached slot unlinks once");
        let order: Vec<u32> = std::iter::from_fn(|| l.pop_front(0)).collect();
        assert_eq!(order, vec![0, 1]);
        assert_eq!(l.pop_front(1), Some(2));
        assert_eq!((l.len(0), l.len(1)), (0, 0));
    }
}
