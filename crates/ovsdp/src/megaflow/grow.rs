//! Construction, subtable creation and arena growth — the megaflow cache's
//! parts that allocate, kept out of the lint-covered probe/insert/remove
//! file.

use std::collections::VecDeque;

use netdev::FlatHash;

use super::{MegaflowCache, Slot, Subtable};
use crate::mask::{CompiledMask, FieldMask};

impl MegaflowCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty cache bounded to `max_entries` megaflows.
    pub fn with_capacity(max_entries: usize) -> Self {
        MegaflowCache {
            subtables: Vec::new(),
            next_subtable_id: 0,
            insertion_order: VecDeque::new(),
            next_stamp: 0,
            max_entries: max_entries.max(1),
            len: 0,
            rank_countdown: Self::RANK_INTERVAL,
            subtables_searched: 0,
            lookups: 0,
        }
    }

    /// The position of `mask`'s subtable; a new one, probed last, when no
    /// subtable has that mask yet.
    pub(super) fn subtable_for(&mut self, mask: &FieldMask) -> usize {
        if let Some(at) = self.subtables.iter().position(|s| s.key.mask() == mask) {
            return at;
        }
        self.subtables.push(Subtable {
            id: self.next_subtable_id,
            key: CompiledMask::new(mask.clone()),
            index: FlatHash::new(),
            words: Vec::new(),
            slots: Vec::new(),
            programs: Vec::new(),
            free: None,
            len: 0,
            rank_hits: 0,
        });
        self.next_subtable_id += 1;
        self.subtables.len() - 1
    }
}

impl Default for MegaflowCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Subtable {
    /// An arena slot for a new entry whose key is `key`: the head of the
    /// free list, or a new slot at the end of the arena.
    pub(super) fn alloc_slot(&mut self, key: &[u64]) -> usize {
        let stride = self.key.stride();
        match self.free {
            Some(free) => {
                let i = free.index();
                self.free = self.slots[i].next;
                self.words[i * stride..][..stride].copy_from_slice(key);
                i
            }
            None => {
                self.words.extend_from_slice(key);
                self.slots.push(Slot {
                    stamp: 0,
                    next: None,
                });
                self.programs.push(None);
                self.slots.len() - 1
            }
        }
    }
}
