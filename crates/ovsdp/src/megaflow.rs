//! The megaflow cache: a wildcard-match store searched with tuple space
//! search.
//!
//! Megaflows bundle many microflows into one aggregate: every flow whose key,
//! masked by the megaflow's mask, equals the megaflow's masked key gets the
//! same cached action program. Because the slow path never encodes
//! priorities into megaflows, all megaflows are disjoint and the first match
//! wins (§2.2). The cache is organised as one subtable per distinct mask —
//! literally "linearly iterating over a list of key/mask pairs for each
//! packet" — so the cost of a lookup grows with mask diversity, and the
//! number of entries needed grows as fine-grained rules "punch holes" in the
//! aggregates.
//!
//! Each subtable is OVS's `dpcls` subtable (Pfaff et al., NSDI '15, §5). Its
//! mask is compiled once, at creation, to the [`MiniKey`] words it pins
//! ([`CompiledMask`]); a probe ANDs those words out of the miniflow the
//! packet already carries, prepends the masked presence word, hashes the
//! few words with one `fx_mix` chain and looks the hash up in a
//! [`netdev::FlatHash`]. The index maps a hash to the head of a chain in the
//! subtable's arena, whose slots hold the key words (a fixed stride per
//! subtable), the program, the eviction stamp and the chain link, each in
//! its own array so a hit touches only the words and the program pointer;
//! a hit compares the words. Lookups are allocation-free, and subtables are
//! periodically re-ranked by hit count so the linear search probes hot
//! masks first — OVS sorts its subtable vector by usage for exactly this
//! reason.
//!
//! This file is in `cargo xtask lint`'s fast-path set; construction,
//! subtable creation and arena growth, the parts that allocate, live in
//! `grow`.

mod grow;

use std::collections::VecDeque;
use std::mem::size_of;
use std::num::NonZeroU32;
use std::sync::Arc;

use netdev::{FlatHash, BURST_SIZE};
use openflow::flow_match::FlowMatch;

use crate::mask::{BitIter, CompiledMask, FieldMask, KeyPlan, MAX_KEY_WORDS};
use crate::minikey::MiniKey;
use crate::program::Program;

const _: () = assert!(BURST_SIZE <= 64, "a burst's pending keys fit one u64");

/// An arena index plus one, so a chain link is four bytes and an index slot
/// sixteen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link(NonZeroU32);

impl Link {
    fn to(index: usize) -> Self {
        let raw = u32::try_from(index + 1).expect("arena index fits in u32");
        Link(NonZeroU32::new(raw).expect("index + 1 is nonzero"))
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// The bookkeeping of one arena slot. A slot's key words and program sit at
/// the same index of the subtable's `words` (at its stride) and `programs`,
/// so a hit reads its words and then one pointer from a dense array.
#[derive(Debug)]
struct Slot {
    /// Insertion sequence number: an eviction-FIFO triple evicts this entry
    /// only when its stamp matches, so triples left behind by flushed
    /// entries are harmless.
    stamp: u64,
    /// The next slot of this entry's hash chain, or of the free list.
    next: Option<Link>,
}

/// One subtable: all megaflows sharing a mask.
#[derive(Debug)]
struct Subtable {
    /// Stable identity (survives rank-reordering; eviction bookkeeping refers
    /// to subtables by id, never by position).
    id: u32,
    key: CompiledMask,
    /// Key hash → head of the chain of entries with that hash.
    index: FlatHash<u64, Link>,
    /// `key.stride()` words per arena slot.
    words: Vec<u64>,
    slots: Vec<Slot>,
    /// The cached action program per arena slot; `None` for a free slot.
    programs: Vec<Option<Arc<Program>>>,
    /// Head of the free-slot list.
    free: Option<Link>,
    len: usize,
    /// Hits since the last re-rank (decayed, not reset, so a briefly idle
    /// subtable does not immediately fall to the back).
    rank_hits: u64,
}

impl Subtable {
    /// The stored key of arena slot `i`.
    #[inline]
    fn key_of(&self, i: usize) -> &[u64] {
        let stride = self.key.stride();
        &self.words[i * stride..][..stride]
    }

    /// The arena slot holding `key`, whose hash is `hash`.
    fn find(&self, key: &[u64], hash: u64) -> Option<usize> {
        let head = self.index.get(hash).copied()?;
        self.chain_find(head, key)
    }

    /// The slot holding `key` on the hash chain starting at `head`.
    #[inline]
    fn chain_find(&self, head: Link, key: &[u64]) -> Option<usize> {
        let mut link = Some(head);
        while let Some(at) = link {
            let i = at.index();
            if self.key_of(i).iter().zip(key).all(|(a, b)| a == b) {
                return Some(i);
            }
            link = self.slots[i].next;
        }
        None
    }

    /// Stores a new entry at the head of its hash chain; returns its slot.
    fn add(&mut self, key: &[u64], hash: u64, actions: Arc<Program>, stamp: u64) -> usize {
        let i = self.alloc_slot(key);
        self.programs[i] = Some(actions);
        self.slots[i] = Slot {
            stamp,
            next: self.index.get(hash).copied(),
        };
        self.index.insert(hash, Link::to(i));
        self.len += 1;
        i
    }

    /// Unlinks the live entry in slot `i`, frees the slot and returns the
    /// entry's program.
    fn remove(&mut self, i: usize) -> Arc<Program> {
        let hash = CompiledMask::hash(self.key_of(i));
        let next = self.slots[i].next;
        let head = self
            .index
            .get(hash)
            .copied()
            .expect("live entry is indexed");
        if head.index() == i {
            match next {
                Some(next) => self.index.insert(hash, next),
                None => self.index.remove(hash),
            };
        } else {
            let mut prev = head.index();
            while self.slots[prev].next != Some(Link::to(i)) {
                prev = self.slots[prev]
                    .next
                    .expect("live entry is chained")
                    .index();
            }
            self.slots[prev].next = next;
        }
        self.slots[i].next = self.free.replace(Link::to(i));
        self.len -= 1;
        self.programs[i].take().expect("live entry")
    }
}

/// The megaflow cache.
#[derive(Debug)]
pub struct MegaflowCache {
    subtables: Vec<Subtable>,
    next_subtable_id: u32,
    /// FIFO of (subtable id, arena slot, stamp) used for eviction when the
    /// cache is at capacity, coarsely modelling OVS's flow-limit +
    /// revalidator behaviour. Selective flushes leave their triples behind
    /// (stale: no entry with that stamp); they are skipped when popped and
    /// compacted away once they outnumber the live ones.
    insertion_order: VecDeque<(u32, u32, u64)>,
    /// The stamp the next new entry gets.
    next_stamp: u64,
    max_entries: usize,
    len: usize,
    /// Lookups until the next subtable re-rank.
    rank_countdown: u64,
    /// Cumulative count of subtables visited by lookups (the tuple-space
    /// search work metric surfaced in the evaluation).
    pub subtables_searched: u64,
    /// Cumulative lookups.
    pub lookups: u64,
}

impl MegaflowCache {
    /// Default capacity; matches the order of magnitude of OVS's default
    /// datapath flow limit.
    pub const DEFAULT_MAX_ENTRIES: usize = 65_536;

    /// Lookups between subtable re-ranks (OVS re-sorts its subtable vector on
    /// a timer; a lookup countdown is the deterministic equivalent).
    pub const RANK_INTERVAL: u64 = 4_096;

    /// Resident bytes of one megaflow in a subtable of four one-word
    /// fields (the gateway's masks), for working-set estimates: its index
    /// slot, its arena slot, its program pointer and its five key words
    /// (presence + four).
    pub const ENTRY_BYTES: usize = size_of::<Option<(u64, Link)>>()
        + size_of::<Slot>()
        + size_of::<Option<Arc<Program>>>()
        + 5 * size_of::<u64>();

    /// Number of cached megaflows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct masks (subtables).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Looks up the cached action program covering `key`, if any: a burst
    /// of one through [`MegaflowCache::lookup_burst`].
    pub fn lookup(&mut self, key: &MiniKey) -> Option<Arc<Program>> {
        let mut found = [None];
        self.lookup_burst(std::slice::from_ref(key), 1, &mut found);
        let [found] = found;
        found
    }

    /// Tuple space search for a burst: looks up `keys[i]` for every bit `i`
    /// set in `pending`, writes the program covering it into `found[i]`,
    /// and returns the bits of the keys found. Subtables are probed hot
    /// first, each key stopping at its first hit, with no heap allocation.
    ///
    /// As OVS's `dpcls_lookup` does, the search runs one subtable at a
    /// time over every key still unresolved, in passes: hash them all, then
    /// probe the index for each, then confirm each candidate's words. The
    /// probes of different keys are independent loads, so their cache
    /// misses overlap instead of queueing behind one key's whole search.
    pub fn lookup_burst(
        &mut self,
        keys: &[MiniKey],
        pending: u64,
        found: &mut [Option<Arc<Program>>],
    ) -> u64 {
        debug_assert!(keys.len() <= BURST_SIZE && found.len() >= keys.len());
        debug_assert!(pending >> keys.len() == 0);
        let asked = u64::from(pending.count_ones());
        self.lookups += asked;
        if self.rank_countdown <= asked {
            self.rerank();
        } else {
            self.rank_countdown -= asked;
        }
        let mut hashes = [0u64; BURST_SIZE];
        let mut heads = [None; BURST_SIZE];
        // `(subtable position, arena slot)` of each key found.
        let mut hits = [(0, 0); BURST_SIZE];
        let mut probe = [0; MAX_KEY_WORDS];
        let mut unresolved = pending;
        for (at, subtable) in self.subtables.iter_mut().enumerate() {
            if unresolved == 0 {
                break;
            }
            self.subtables_searched += u64::from(unresolved.count_ones());
            let mut plan = KeyPlan::NONE;
            for i in BitIter(unresolved) {
                hashes[i] = subtable.key.key_into(&keys[i], &mut plan, &mut probe);
            }
            for i in BitIter(unresolved) {
                heads[i] = subtable.index.get(hashes[i]).copied();
            }
            let stride = subtable.key.stride();
            for i in BitIter(unresolved) {
                let Some(head) = heads[i] else { continue };
                subtable.key.key_into(&keys[i], &mut plan, &mut probe);
                if let Some(slot) = subtable.chain_find(head, &probe[..stride]) {
                    hits[i] = (at, slot);
                    unresolved &= !(1 << i);
                    subtable.rank_hits += 1;
                }
            }
        }
        let resolved = pending & !unresolved;
        for i in BitIter(resolved) {
            let (at, slot) = hits[i];
            found[i] = self.subtables[at].programs[slot].clone();
        }
        resolved
    }

    /// Sorts subtables by hits since the last rank (descending, stable) and
    /// decays the counters.
    fn rerank(&mut self) {
        self.rank_countdown = Self::RANK_INTERVAL;
        self.subtables
            .sort_by_key(|s| std::cmp::Reverse(s.rank_hits));
        for subtable in &mut self.subtables {
            subtable.rank_hits /= 2;
        }
    }

    /// Installs a megaflow computed by the slow path: `key` masked by `mask`
    /// → `actions`. Evicts the oldest megaflow when inserting a *new* entry
    /// at capacity; replacing the program of an existing masked key never
    /// evicts anything, keeps the entry's place in the eviction order, and
    /// retires the replaced program.
    pub fn insert(&mut self, key: &MiniKey, mask: &FieldMask, actions: Arc<Program>) {
        let at = self.subtable_for(mask);
        let mut probe = [0; MAX_KEY_WORDS];
        let subtable = &mut self.subtables[at];
        let mut plan = KeyPlan::NONE;
        let hash = subtable.key.key_into(key, &mut plan, &mut probe);
        let probe = &probe[..subtable.key.stride()];
        if let Some(i) = subtable.find(probe, hash) {
            let program = subtable.programs[i].as_mut().expect("live entry");
            std::mem::replace(program, actions).retire();
            return;
        }
        while self.len >= self.max_entries {
            self.evict_oldest();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        // Eviction never drops a subtable, so `at` still names this one.
        let subtable = &mut self.subtables[at];
        let i = subtable.add(probe, hash, actions, stamp);
        self.len += 1;
        let slot = u32::try_from(i).expect("arena index fits in u32");
        self.insertion_order.push_back((subtable.id, slot, stamp));
    }

    /// Evicts the oldest megaflow still cached, skipping stale FIFO triples.
    fn evict_oldest(&mut self) {
        while let Some((id, slot, stamp)) = self.insertion_order.pop_front() {
            if let Some(at) = self.current(id, slot, stamp) {
                self.subtables[at].remove(slot as usize).retire();
                self.len -= 1;
                return;
            }
        }
        // Insertion order exhausted: nothing left to evict.
        self.len = self.subtables.iter().map(|s| s.len).sum();
    }

    /// The position of the subtable whose arena `slot` holds the entry
    /// stamped `stamp`, when the FIFO triple `(id, slot, stamp)` still names
    /// a cached entry.
    fn current(&self, id: u32, slot: u32, stamp: u64) -> Option<usize> {
        let at = self.subtables.iter().position(|s| s.id == id)?;
        let subtable = &self.subtables[at];
        let live = subtable.programs.get(slot as usize)?.is_some();
        (live && subtable.slots[slot as usize].stamp == stamp).then_some(at)
    }

    /// Drops every megaflow (and every subtable), retiring every program so
    /// the EMC entries sharing them die too. This is what a flow-table
    /// change triggers in OVS: "the brute-force strategy to invalidate the
    /// entire cache after essentially all changes".
    pub fn invalidate(&mut self) {
        for program in self
            .subtables
            .iter()
            .flat_map(|s| s.programs.iter().flatten())
        {
            program.retire();
        }
        self.subtables.clear();
        self.insertion_order.clear();
        self.len = 0;
    }

    /// Delta-aware invalidation: drops only the megaflows that could overlap
    /// one of the changed rules' matches, keeping every entry that provably
    /// cannot see a different verdict ([`CompiledMask::disjoint_test`]), and
    /// retires the dropped programs (so their EMC entries die too). The
    /// modelled analogue of OVS's revalidator tagging instead of the
    /// brute-force whole-cache flush. Returns the number of flushed entries.
    ///
    /// Only sound when the changed rules' match fields cannot have been
    /// rewritten by apply-actions earlier in the pipeline (megaflows are
    /// keyed on extraction-time keys); the datapath checks that before
    /// choosing this path.
    pub fn invalidate_overlapping(&mut self, matches: &[FlowMatch]) -> usize {
        let mut flushed = 0usize;
        for m in matches {
            for subtable in &mut self.subtables {
                let test = subtable.key.disjoint_test(m);
                for i in 0..subtable.slots.len() {
                    if subtable.programs[i].is_some() && !test.proves(subtable.key_of(i)) {
                        subtable.remove(i).retire();
                        flushed += 1;
                    }
                }
            }
        }
        self.len -= flushed;
        // Emptied subtables drop out of the probe order entirely.
        self.subtables.retain(|s| s.len > 0);
        // The flushed entries' FIFO triples stay behind, stale. Under
        // sustained selective churn below capacity nothing pops them, so
        // compact once they outnumber the live triples: each compaction
        // removes at least half of what it scans, which amortises it to
        // O(1) per insert.
        if self.insertion_order.len() > 2 * self.len {
            let mut order = std::mem::take(&mut self.insertion_order);
            order.retain(|&(id, slot, stamp)| self.current(id, slot, stamp).is_some());
            self.insertion_order = order;
        }
        flushed
    }

    /// The subtable masks in current probe order (tests/statistics).
    pub fn subtable_masks(&self) -> impl Iterator<Item = &FieldMask> {
        self.subtables.iter().map(|s| s.key.mask())
    }

    /// Average subtables searched per lookup so far.
    pub fn avg_subtables_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.subtables_searched as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::KeyPlan;
    use openflow::{Action, Field, FlowKey};
    use pkt::builder::PacketBuilder;

    fn key(port: u16, ip_last: u8) -> MiniKey {
        MiniKey::from_flow(&FlowKey::extract(
            &PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, ip_last])
                .tcp_dst(port)
                .build(),
        ))
    }

    fn port_mask() -> FieldMask {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::TcpDst);
        m
    }

    fn ip_mask() -> FieldMask {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard(Field::Ipv4Dst, 0xffff_ff00);
        m
    }

    fn actions(p: u32) -> Arc<Program> {
        Arc::new(Program::new(vec![Action::Output(p)], Default::default()))
    }

    #[test]
    fn aggregate_covers_many_microflows() {
        let mut cache = MegaflowCache::new();
        // One megaflow matching only tcp_dst=80 covers every source/dest
        // combination — the "bundle multiple microflows" behaviour.
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        assert_eq!(cache.len(), 1);
        for last in 0..50u8 {
            assert!(cache.lookup(&key(80, last)).is_some());
        }
        assert!(cache.lookup(&key(443, 1)).is_none());
    }

    #[test]
    fn distinct_masks_create_subtables() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        cache.insert(&key(443, 2), &ip_mask(), actions(2));
        assert_eq!(cache.subtable_count(), 2);
        assert_eq!(cache.len(), 2);
        // Both are reachable.
        assert!(cache.lookup(&key(80, 99)).is_some());
        assert!(cache.lookup(&key(9999, 7)).is_some()); // via the /24 entry
    }

    #[test]
    fn same_mask_same_key_replaces() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        cache.insert(&key(80, 2), &port_mask(), actions(9)); // same masked key (port 80)
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(80, 3)).unwrap()[0], Action::Output(9));
    }

    #[test]
    fn eviction_bounds_the_cache() {
        let mut cache = MegaflowCache::with_capacity(16);
        for port in 0..100u16 {
            cache.insert(&key(port, 1), &port_mask(), actions(1));
        }
        assert!(cache.len() <= 16);
        // The most recently inserted entries survive.
        assert!(cache.lookup(&key(99, 1)).is_some());
        assert!(cache.lookup(&key(0, 1)).is_none());
    }

    #[test]
    fn replace_at_capacity_does_not_evict_unrelated_entries() {
        // Regression: replacing the action program of an existing masked key
        // while the cache is full used to evict the oldest (unrelated)
        // megaflow first.
        let mut cache = MegaflowCache::with_capacity(4);
        for port in 0..4u16 {
            cache.insert(&key(port, 1), &port_mask(), actions(u32::from(port)));
        }
        assert_eq!(cache.len(), 4);
        cache.insert(&key(2, 9), &port_mask(), actions(99)); // replace port 2
        assert_eq!(cache.len(), 4);
        for port in 0..4u16 {
            assert!(cache.lookup(&key(port, 1)).is_some(), "port {port} evicted");
        }
        assert_eq!(cache.lookup(&key(2, 1)).unwrap()[0], Action::Output(99));
    }

    #[test]
    fn delta_invalidation_keeps_disjoint_megaflows() {
        use openflow::flow_match::FlowMatch;
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), &port_mask(), actions(1)); // pins tcp_dst=80
        cache.insert(&key(443, 1), &port_mask(), actions(2)); // pins tcp_dst=443
        cache.insert(&key(80, 7), &ip_mask(), actions(3)); // pins 192.0.2.0/24

        // A rule on tcp_dst=443 overlaps only the 443 megaflow; the port-80
        // entry is provably disjoint and the /24 entry pins no port bits so
        // it must be flushed too (covered packets vary on the port).
        let flushed =
            cache.invalidate_overlapping(&[FlowMatch::any().with_exact(Field::TcpDst, 443)]);
        assert_eq!(flushed, 2);
        assert!(
            cache.lookup(&key(80, 1)).is_some(),
            "disjoint entry flushed"
        );
        // The 443 subtable entry and the /24 subtable are gone.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.subtable_count(), 1);
    }

    #[test]
    fn delta_invalidation_purges_eviction_bookkeeping() {
        use openflow::flow_match::FlowMatch;
        // Sustained flush-and-reinstall churn below capacity must not grow
        // the eviction FIFO without bound.
        let mut cache = MegaflowCache::with_capacity(1024);
        for round in 0..50u16 {
            cache.insert(&key(80, 1), &port_mask(), actions(u32::from(round)));
            let flushed =
                cache.invalidate_overlapping(&[FlowMatch::any().with_exact(Field::TcpDst, 80)]);
            assert_eq!(flushed, 1);
        }
        assert!(cache.is_empty());
        assert!(
            cache.insertion_order.is_empty(),
            "stale eviction pairs leaked: {}",
            cache.insertion_order.len()
        );
    }

    #[test]
    fn stale_fifo_pairs_never_evict_a_reinstalled_entry() {
        use openflow::flow_match::FlowMatch;
        let flush = |cache: &mut MegaflowCache, port: u16| {
            cache.invalidate_overlapping(&[
                FlowMatch::any().with_exact(Field::TcpDst, u128::from(port))
            ])
        };
        let mut cache = MegaflowCache::with_capacity(3);
        let (a, b) = (actions(1), actions(2));
        cache.insert(&key(80, 1), &port_mask(), Arc::clone(&a));
        cache.insert(&key(81, 1), &port_mask(), Arc::clone(&b));
        assert_eq!(flush(&mut cache, 80), 1);
        assert!(!a.is_alive(), "a flushed program stays alive");
        // Port 80 comes back (its old FIFO pair is now stale), then fills
        // the cache: the next insert evicts the oldest *live* entry, port
        // 81, not the reinstalled port 80.
        cache.insert(&key(80, 1), &port_mask(), actions(3));
        cache.insert(&key(82, 1), &port_mask(), actions(4));
        cache.insert(&key(83, 1), &port_mask(), actions(5));
        assert_eq!(cache.len(), 3);
        assert!(
            cache.lookup(&key(80, 1)).is_some(),
            "reinstalled entry evicted"
        );
        assert!(cache.lookup(&key(81, 1)).is_none());
        assert!(!b.is_alive(), "an evicted program stays alive");

        // Sustained flush-and-reinstall churn keeps the FIFO within twice
        // the live entries (plus the pair just pushed).
        for _ in 0..100 {
            flush(&mut cache, 82);
            cache.insert(&key(82, 1), &port_mask(), actions(6));
            assert!(cache.insertion_order.len() <= 2 * cache.len() + 1);
        }
    }

    #[test]
    fn replacement_retires_the_replaced_program() {
        let mut cache = MegaflowCache::new();
        let old = actions(1);
        cache.insert(&key(80, 1), &port_mask(), Arc::clone(&old));
        let new = actions(9);
        cache.insert(&key(80, 2), &port_mask(), Arc::clone(&new));
        assert!(!old.is_alive() && new.is_alive());
        cache.invalidate();
        assert!(!new.is_alive(), "a full flush left a program alive");
    }

    #[test]
    fn delta_invalidation_respects_absent_fields() {
        use openflow::flow_match::FlowMatch;
        let mut cache = MegaflowCache::new();
        // A megaflow over UDP traffic that pins udp_dst: a TCP packet's key
        // has no udp_dst, so its key's presence word records it absent.
        let udp_key =
            MiniKey::from_flow(&FlowKey::extract(&PacketBuilder::udp().udp_dst(53).build()));
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::UdpDst);
        cache.insert(&udp_key, &m, actions(1));
        // A megaflow over TCP traffic through the same udp_dst mask (absent).
        cache.insert(&key(80, 1), &m, actions(2));

        // A rule matching udp_dst=53 can only affect packets carrying UDP:
        // the absent-field entry survives, the present-and-equal one dies.
        let flushed =
            cache.invalidate_overlapping(&[FlowMatch::any().with_exact(Field::UdpDst, 53)]);
        assert_eq!(flushed, 1);
        assert!(cache.lookup(&key(80, 1)).is_some());
        assert!(cache.lookup(&udp_key).is_none());
    }

    #[test]
    fn equal_hashes_of_distinct_keys_share_a_chain() {
        use netdev::fx_mix;
        use openflow::flow_match::FlowMatch;
        // Key words under this mask: presence (InPort and Metadata, both
        // always carried: 0b11), in_port, metadata. Solving the last
        // `fx_mix` step for the second key's metadata gives it the first
        // key's hash.
        let mut mask = FieldMask::wildcard_all();
        mask.unwildcard_exact(Field::InPort);
        mask.unwildcard_exact(Field::Metadata);
        let flow = |in_port: u32, metadata: u64| {
            let mut key = FlowKey::extract(&PacketBuilder::tcp().build());
            key.in_port = in_port;
            key.metadata = metadata;
            MiniKey::from_flow(&key)
        };
        let prefix = |in_port: u32| fx_mix(fx_mix(0, 0b11), u64::from(in_port));
        let first_metadata = 0x1234_5678;
        let second_metadata = prefix(1).rotate_left(5) ^ prefix(2).rotate_left(5) ^ first_metadata;
        let (a, b) = (flow(1, first_metadata), flow(2, second_metadata));
        let stored = |key: &MiniKey| {
            let compiled = CompiledMask::new(mask.clone());
            let mut words = [0; MAX_KEY_WORDS];
            compiled.key_into(key, &mut { KeyPlan::NONE }, &mut words);
            words[..compiled.stride()].to_vec()
        };
        assert_ne!(stored(&a), stored(&b));
        assert_eq!(
            CompiledMask::hash(&stored(&a)),
            CompiledMask::hash(&stored(&b))
        );

        // Either key leaves, by selective flush or by eviction; the other
        // stays found.
        for (gone, stays) in [(1u32, 2u32), (2, 1)] {
            let key_of = |port| if port == 1 { a } else { b };
            let mut cache = MegaflowCache::with_capacity(2);
            cache.insert(&a, &mask, actions(1));
            cache.insert(&b, &mask, actions(2));
            assert_eq!(cache.subtables[0].index.len(), 1, "the keys share a hash");
            assert_eq!(cache.lookup(&a).unwrap()[0], Action::Output(1));
            assert_eq!(cache.lookup(&b).unwrap()[0], Action::Output(2));
            let rule = FlowMatch::any().with_exact(Field::InPort, u128::from(gone));
            assert_eq!(cache.invalidate_overlapping(&[rule]), 1);
            assert!(cache.lookup(&key_of(gone)).is_none());
            assert_eq!(
                cache.lookup(&key_of(stays)).unwrap()[0],
                Action::Output(stays)
            );

            let mut cache = MegaflowCache::with_capacity(2);
            cache.insert(&key_of(gone), &mask, actions(gone));
            cache.insert(&key_of(stays), &mask, actions(stays));
            cache.insert(&flow(3, 0), &mask, actions(3)); // evicts the oldest
            assert!(cache.lookup(&key_of(gone)).is_none());
            assert_eq!(
                cache.lookup(&key_of(stays)).unwrap()[0],
                Action::Output(stays)
            );
        }
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.subtable_count(), 0);
        assert!(cache.lookup(&key(80, 1)).is_none());
    }

    #[test]
    fn hit_counters_and_search_stats() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        cache.insert(&key(443, 2), &ip_mask(), actions(2));
        for _ in 0..10 {
            cache.lookup(&key(80, 1));
        }
        assert!(cache.avg_subtables_per_lookup() >= 1.0);
        let hits: u64 = cache.subtables.iter().map(|s| s.rank_hits).sum();
        assert_eq!(hits, 10);
    }

    fn key_in_net(port: u16, net: [u8; 4]) -> MiniKey {
        MiniKey::from_flow(&FlowKey::extract(
            &PacketBuilder::tcp().ipv4_dst(net).tcp_dst(port).build(),
        ))
    }

    #[test]
    fn reranking_moves_hot_subtable_first() {
        let mut cache = MegaflowCache::new();
        // Install the cold mask first so it initially ranks ahead. Its /24
        // (10.9.9.0) is disjoint from the hammered flow's 192.0.2.0 so the
        // cold subtable is probed but never hit.
        cache.insert(&key_in_net(443, [10, 9, 9, 9]), &ip_mask(), actions(2));
        cache.insert(&key(80, 1), &port_mask(), actions(1));
        assert_eq!(cache.subtable_masks().next(), Some(&ip_mask()));

        // Hammer the port subtable past a rank interval. Every one of these
        // lookups pays a probe of the cold ip subtable first.
        for _ in 0..MegaflowCache::RANK_INTERVAL {
            assert!(cache.lookup(&key(80, 1)).is_some());
        }
        assert_eq!(
            cache.subtable_masks().next(),
            Some(&port_mask()),
            "hot subtable must be probed first after re-ranking"
        );
        // And the hot path now stops at the first subtable.
        let before = cache.subtables_searched;
        assert!(cache.lookup(&key(80, 1)).is_some());
        assert_eq!(cache.subtables_searched - before, 1);
        // Eviction bookkeeping still finds entries after the reorder.
        let mut cache2 = MegaflowCache::with_capacity(2);
        cache2.insert(&key_in_net(443, [10, 9, 9, 9]), &ip_mask(), actions(2));
        cache2.insert(&key(80, 1), &port_mask(), actions(1));
        for _ in 0..MegaflowCache::RANK_INTERVAL {
            cache2.lookup(&key(80, 1));
        }
        cache2.insert(&key(81, 1), &port_mask(), actions(3)); // evicts the ip entry
        assert_eq!(cache2.len(), 2);
        assert!(
            cache2.lookup(&key_in_net(9999, [10, 9, 9, 2])).is_none(),
            "oldest not evicted"
        );
        assert!(cache2.lookup(&key(81, 1)).is_some());
    }
}
