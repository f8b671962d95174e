//! The slab-backed, index-linked connection table.
//!
//! Declared a fast-path module (`cargo xtask lint` bans allocation
//! constructors here): all storage is allocated once in [`ConnTable::new`]
//! and the established path — lookup, LRU touch — performs no heap
//! allocation per packet.
//!
//! Layout: a fixed-capacity slab of [`Conn`] records threaded by an
//! intrusive free list, plus an open-addressed index (linear probing,
//! backward-shift deletion, ≤ 50% load by construction) holding **two**
//! entries per connection — one for the original-direction tuple, one for
//! the reply-direction tuple — so a single probe classifies a packet's
//! direction along with its connection. An index entry is eight bytes (the
//! top half of the key hash, the slab slot and the direction), eight to a
//! cache line, and its home slot is the **top** bits of the hash: the hash
//! ends in a multiply, whose low bits see only the low bits of the last
//! key word.
//!
//! Recency is tracked second-chance (CLOCK) style: a hit sets one bit in
//! the connection record ([`ConnTable::touch`] — no list surgery on the
//! established path), and the capacity-eviction victim is found by
//! rotating the insertion-ordered list past recently-used entries,
//! clearing their bits ([`ConnTable::clock_victim`]). The result is the
//! usual approximate LRU every datapath cache uses: exact order isn't
//! kept, but anything hit since its last rotation survives over anything
//! that wasn't.

use crate::key::{tuple_hash, ConnKey};
use crate::tcp::ConnState;
use openflow::CtTuple;

/// Sentinel for "no slot" in the intrusive links and the index.
pub const NONE: u32 = u32::MAX;

/// Which direction of a connection an index entry (or a packet) matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The tuple as first seen (the initiator's direction).
    Orig,
    /// The reverse tuple a reply carries (post-translation for NAT/LB).
    Reply,
}

/// One tracked connection.
#[derive(Debug, Clone, Copy)]
pub struct Conn {
    /// Tuple of the first packet, before any translation.
    pub orig: CtTuple,
    /// Tuple reply packets carry (the reverse of the translated forward
    /// tuple). Equal to `orig.reversed()` for untranslated connections.
    pub reply: CtTuple,
    /// Protocol state.
    pub state: ConnState,
    /// Idle deadline in virtual ticks — the timer wheel's authority. Lives
    /// here so the established-path re-arm writes a cache line the hit has
    /// already dirtied instead of touching wheel memory.
    pub deadline: u64,
    lru_prev: u32,
    lru_next: u32,
    free_next: u32,
    live: bool,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// passes during victim selection.
    used: bool,
}

const EMPTY_TUPLE: CtTuple = CtTuple {
    proto: 0,
    src_ip: 0,
    dst_ip: 0,
    src_port: 0,
    dst_port: 0,
};

const EMPTY_CONN: Conn = Conn {
    orig: EMPTY_TUPLE,
    reply: EMPTY_TUPLE,
    state: ConnState::UdpNew,
    deadline: 0,
    lru_prev: NONE,
    lru_next: NONE,
    free_next: NONE,
    live: false,
    used: false,
};

/// One open-addressed index entry. `tag` is the top half of the key hash:
/// its leading bits are the entry's home slot ([`ConnTable::home_of_tag`]),
/// the rest filter probes before a connection record is touched. `link` is
/// the slab slot shifted left once, with the direction the entry represents
/// in bit 0; [`NONE`] marks an empty entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    link: u32,
}

const EMPTY_SLOT: Slot = Slot { tag: 0, link: NONE };

impl Slot {
    #[inline]
    fn new(hash: u64, conn: u32, dir: Dir) -> Slot {
        Slot {
            tag: (hash >> 32) as u32,
            link: conn << 1 | dir as u32,
        }
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.link == NONE
    }

    #[inline]
    fn conn(self) -> u32 {
        self.link >> 1
    }

    #[inline]
    fn dir(self) -> Dir {
        if self.link & 1 == 0 {
            Dir::Orig
        } else {
            Dir::Reply
        }
    }
}

/// Fixed-capacity connection table. See the module docs for the layout.
#[derive(Debug)]
pub struct ConnTable {
    slab: Vec<Conn>,
    free_head: u32,
    live: u32,
    index: Vec<Slot>,
    mask: usize,
    /// `32 - log2(index.len())`: what [`ConnTable::home_of_tag`] shifts by.
    home_shift: u32,
    lru_head: u32,
    lru_tail: u32,
}

impl ConnTable {
    /// Creates a table for at most `capacity` live connections. The index
    /// is sized to 4× capacity (two entries per connection, ≤ 50% load)
    /// rounded up to a power of two; this is the only allocation the table
    /// ever performs.
    pub fn new(capacity: usize) -> ConnTable {
        assert!(capacity > 0, "conntrack capacity must be non-zero");
        // A slab slot and a direction share an entry's 32-bit link, and a
        // home slot comes out of a 32-bit tag.
        assert!(capacity <= 1 << 30, "conntrack capacity too large");
        let index_len = (capacity * 4).next_power_of_two();
        let mut slab = Vec::with_capacity(capacity);
        for i in 0..capacity {
            let mut c = EMPTY_CONN;
            c.free_next = if i + 1 < capacity {
                (i + 1) as u32
            } else {
                NONE
            };
            slab.push(c);
        }
        let mut index = Vec::with_capacity(index_len);
        index.resize(index_len, EMPTY_SLOT);
        ConnTable {
            slab,
            free_head: 0,
            live: 0,
            index,
            mask: index_len - 1,
            home_shift: u32::BITS - index_len.trailing_zeros(),
            lru_head: NONE,
            lru_tail: NONE,
        }
    }

    /// Maximum number of live connections.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }

    /// Currently tracked connections.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// True when no further connection can be inserted without eviction.
    pub fn is_full(&self) -> bool {
        self.free_head == NONE
    }

    /// Bytes held by the slab and the index — fixed at construction, the
    /// table's memory bound at any load.
    pub fn memory_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Conn>()
            + self.index.capacity() * std::mem::size_of::<Slot>()
    }

    /// The index slot a probe starts at, from the half of the key hash an
    /// entry keeps: the hash's top bits (multiplicative hashing). The low
    /// bits of an `fx_mix` chain depend only on the low bits of the key's
    /// last word, which for the reply tuples of one SNAT address are a
    /// constant and a well-known server port — those entries would share a
    /// few thousand home slots and probe through each other.
    #[inline]
    fn home_of_tag(&self, tag: u32) -> usize {
        (tag >> self.home_shift) as usize
    }

    /// Shared view of a connection record.
    #[inline]
    pub fn conn(&self, idx: u32) -> &Conn {
        &self.slab[idx as usize]
    }

    /// Exclusive view of a connection record.
    #[inline]
    pub fn conn_mut(&mut self, idx: u32) -> &mut Conn {
        &mut self.slab[idx as usize]
    }

    /// Looks up the connection a tuple belongs to, classifying its
    /// direction. One linear probe over the index; no allocation.
    #[inline]
    pub fn lookup(&self, tuple: &CtTuple) -> Option<(u32, Dir)> {
        let probe = Slot::new(tuple_hash(tuple), 0, Dir::Orig);
        let mut i = self.home_of_tag(probe.tag);
        loop {
            let s = self.index[i];
            if s.is_empty() {
                return None;
            }
            if s.tag == probe.tag {
                let c = &self.slab[s.conn() as usize];
                let stored = match s.dir() {
                    Dir::Orig => &c.orig,
                    Dir::Reply => &c.reply,
                };
                if stored == tuple {
                    return Some((s.conn(), s.dir()));
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a new connection, indexing both directions. Returns the slab
    /// slot, or `None` when the table is full (callers decide the eviction
    /// policy). The new connection becomes the most-recently-used.
    pub fn insert(&mut self, orig: CtTuple, reply: CtTuple, state: ConnState) -> Option<u32> {
        let idx = self.free_head;
        if idx == NONE {
            return None;
        }
        self.free_head = self.slab[idx as usize].free_next;
        let c = &mut self.slab[idx as usize];
        c.orig = orig;
        c.reply = reply;
        c.state = state;
        c.free_next = NONE;
        c.live = true;
        c.used = false;
        self.live += 1;
        self.index_insert(ConnKey::from_tuple(&orig).hash(), idx, Dir::Orig);
        self.index_insert(ConnKey::from_tuple(&reply).hash(), idx, Dir::Reply);
        self.lru_push_tail(idx);
        Some(idx)
    }

    /// Removes a connection: both index entries, the LRU link, and the
    /// slab slot (returned to the free list). Returns the removed record.
    pub fn remove(&mut self, idx: u32) -> Conn {
        let c = self.slab[idx as usize];
        debug_assert!(c.live, "removing dead conntrack slot {idx}");
        self.index_remove(ConnKey::from_tuple(&c.orig).hash(), idx, Dir::Orig);
        self.index_remove(ConnKey::from_tuple(&c.reply).hash(), idx, Dir::Reply);
        self.lru_unlink(idx);
        let slot = &mut self.slab[idx as usize];
        slot.live = false;
        slot.free_next = self.free_head;
        self.free_head = idx;
        self.live -= 1;
        c
    }

    /// Marks a connection recently used (established-path hit): one store
    /// to a record the hit path has already written, no list surgery.
    #[inline]
    pub fn touch(&mut self, idx: u32) {
        self.slab[idx as usize].used = true;
    }

    /// Selects the capacity-eviction victim: the oldest connection whose
    /// second-chance bit is clear. Recently-used connections at the head
    /// of the rotation get their bit cleared and move to the back, so a
    /// full pass over an all-hot table still terminates (the first entry
    /// revisited has just been cleared). Amortised O(1): every rotation
    /// clears a bit some hit must pay to set again.
    pub fn clock_victim(&mut self) -> Option<u32> {
        loop {
            let head = self.lru_head;
            if head == NONE {
                return None;
            }
            if !self.slab[head as usize].used {
                return Some(head);
            }
            self.slab[head as usize].used = false;
            self.lru_unlink(head);
            self.lru_push_tail(head);
        }
    }

    /// Iterates every live connection with its slab slot, in slab order.
    /// Control-plane only: bucket export walks the whole slab once per
    /// migration; the datapath never calls this. Allocation-free.
    pub fn live_slots(&self) -> impl Iterator<Item = (u32, &Conn)> + '_ {
        self.slab
            .iter()
            .enumerate()
            .filter(|(_, c)| c.live)
            .map(|(i, c)| (i as u32, c))
    }

    fn index_insert(&mut self, hash: u64, conn: u32, dir: Dir) {
        let entry = Slot::new(hash, conn, dir);
        let mut i = self.home_of_tag(entry.tag);
        loop {
            if self.index[i].is_empty() {
                self.index[i] = entry;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes the entry for (`conn`, `dir`) using backward-shift deletion,
    /// which keeps probe chains tombstone-free.
    fn index_remove(&mut self, hash: u64, conn: u32, dir: Dir) {
        let entry = Slot::new(hash, conn, dir);
        let mut i = self.home_of_tag(entry.tag);
        loop {
            let s = self.index[i];
            if s.is_empty() {
                debug_assert!(false, "index entry missing for conn {conn}");
                return;
            }
            if s.link == entry.link {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let mut hole = i;
        let mut k = (hole + 1) & self.mask;
        loop {
            let s = self.index[k];
            if s.is_empty() {
                break;
            }
            let ideal = self.home_of_tag(s.tag);
            // The entry at k may fill the hole only if the hole lies on its
            // probe path (cyclically between its ideal slot and k).
            if (k.wrapping_sub(ideal) & self.mask) >= (k.wrapping_sub(hole) & self.mask) {
                self.index[hole] = s;
                hole = k;
            }
            k = (k + 1) & self.mask;
        }
        self.index[hole] = EMPTY_SLOT;
    }

    fn lru_push_tail(&mut self, idx: u32) {
        let tail = self.lru_tail;
        {
            let c = &mut self.slab[idx as usize];
            c.lru_prev = tail;
            c.lru_next = NONE;
        }
        if tail != NONE {
            self.slab[tail as usize].lru_next = idx;
        } else {
            self.lru_head = idx;
        }
        self.lru_tail = idx;
    }

    fn lru_unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let c = &self.slab[idx as usize];
            (c.lru_prev, c.lru_next)
        };
        if prev != NONE {
            self.slab[prev as usize].lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != NONE {
            self.slab[next as usize].lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
        let c = &mut self.slab[idx as usize];
        c.lru_prev = NONE;
        c.lru_next = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(proto: u8, s: u32, d: u32, sp: u16, dp: u16) -> CtTuple {
        CtTuple {
            proto,
            src_ip: s,
            dst_ip: d,
            src_port: sp,
            dst_port: dp,
        }
    }

    fn commit(table: &mut ConnTable, tuple: CtTuple) -> u32 {
        table
            .insert(tuple, tuple.reversed(), ConnState::TcpSynSent)
            .expect("capacity")
    }

    #[test]
    fn both_directions_resolve_to_the_same_connection() {
        let mut table = ConnTable::new(8);
        let fwd = t(6, 0x0a000001, 0x0a000002, 1000, 80);
        let idx = commit(&mut table, fwd);
        assert_eq!(table.lookup(&fwd), Some((idx, Dir::Orig)));
        assert_eq!(table.lookup(&fwd.reversed()), Some((idx, Dir::Reply)));
        assert_eq!(table.lookup(&t(17, 1, 2, 3, 4)), None);
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn remove_clears_both_entries_and_recycles_the_slot() {
        let mut table = ConnTable::new(2);
        let a = t(6, 1, 2, 10, 20);
        let b = t(6, 3, 4, 30, 40);
        let ia = commit(&mut table, a);
        let _ib = commit(&mut table, b);
        assert!(table.is_full());
        table.remove(ia);
        assert_eq!(table.lookup(&a), None);
        assert_eq!(table.lookup(&a.reversed()), None);
        assert!(table.lookup(&b).is_some());
        // Freed slot is reusable.
        let c = t(17, 5, 6, 50, 60);
        let ic = commit(&mut table, c);
        assert_eq!(ic, ia);
        assert_eq!(table.live(), 2);
    }

    #[test]
    fn clock_victim_honours_second_chance() {
        let mut table = ConnTable::new(4);
        let a = commit(&mut table, t(6, 1, 1, 1, 1));
        let b = commit(&mut table, t(6, 2, 2, 2, 2));
        let c = commit(&mut table, t(6, 3, 3, 3, 3));
        assert_eq!(table.clock_victim(), Some(a));
        table.touch(a); // a is granted a second chance; b becomes the victim
        assert_eq!(table.clock_victim(), Some(b));
        table.remove(b);
        // a's bit was cleared by the rotation above, but c is older now.
        assert_eq!(table.clock_victim(), Some(c));
        table.remove(c);
        assert_eq!(table.clock_victim(), Some(a));
        table.remove(a);
        assert_eq!(table.clock_victim(), None);
    }

    #[test]
    fn clock_victim_terminates_when_everything_is_hot() {
        let mut table = ConnTable::new(4);
        let idxs: Vec<u32> = (1..=4u32)
            .map(|i| {
                let idx = commit(&mut table, t(6, i, i, 1, 1));
                table.touch(idx);
                idx
            })
            .collect();
        // All bits set: one full rotation clears them and the oldest falls.
        assert_eq!(table.clock_victim(), Some(idxs[0]));
    }

    #[test]
    fn reply_tuples_of_one_snat_address_do_not_share_home_slots() {
        // An SNAT edge's reply tuples differ only in the server address and
        // the allocated public port: the key words' low bits are the
        // protocol, six address bits and a well-known server port.
        let cap = 4096;
        let mut table = ConnTable::new(cap);
        for seq in 0..cap as u32 {
            let (server, port) = (0xac10_0000 + seq, if seq & 1 == 0 { 80 } else { 443 });
            let client = 0x0a00_0000 + seq.wrapping_mul(40_503);
            let orig = t(6, client, server, 1024, port);
            let reply = t(6, server, 0xc633_6401, port, 1024 + seq as u16);
            table
                .insert(orig, reply, ConnState::TcpEstablished)
                .expect("capacity");
        }
        // How far each entry sits from its home slot. Uniform hashing at
        // this load (one slot in two taken) gives a mean of 0.5.
        let displaced: Vec<usize> = (0..table.index.len())
            .filter(|&i| !table.index[i].is_empty())
            .map(|i| i.wrapping_sub(table.home_of_tag(table.index[i].tag)) & table.mask)
            .collect();
        assert_eq!(displaced.len(), 2 * cap);
        let mean = displaced.iter().sum::<usize>() as f64 / displaced.len() as f64;
        assert!(mean < 1.0, "mean displacement {mean}");
        assert!(displaced.iter().all(|&d| d < 64), "{displaced:?}");
    }

    #[test]
    fn dense_fill_and_drain_keeps_index_consistent() {
        // Exercises backward-shift deletion across long probe chains.
        let cap = 512;
        let mut table = ConnTable::new(cap);
        let tuples: Vec<CtTuple> = (0..cap as u32)
            .map(|i| t(6, 0x0a000000 + i, 0x0b000000 + i, (i % 60000) as u16, 443))
            .collect();
        let idxs: Vec<u32> = tuples.iter().map(|tp| commit(&mut table, *tp)).collect();
        assert!(table.is_full());
        assert!(table
            .insert(t(17, 9, 9, 9, 9), t(17, 9, 9, 9, 9), ConnState::UdpNew)
            .is_none());
        // Remove every other connection, then verify the survivors (both
        // directions) still resolve.
        for (i, idx) in idxs.iter().enumerate() {
            if i % 2 == 0 {
                table.remove(*idx);
            }
        }
        for (i, tp) in tuples.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(table.lookup(tp), None, "removed {i}");
            } else {
                let hit = table.lookup(tp);
                assert_eq!(hit, Some((idxs[i], Dir::Orig)), "survivor {i}");
                assert_eq!(table.lookup(&tp.reversed()), Some((idxs[i], Dir::Reply)));
            }
        }
        assert_eq!(table.live(), cap / 2);
    }
}
