//! The megaflow cache: a wildcard-match store searched with tuple space
//! search.
//!
//! Megaflows bundle many microflows into one aggregate: every flow whose key,
//! projected through the megaflow's mask, equals the megaflow's masked key
//! gets the same cached action program. Because the slow path never encodes
//! priorities into megaflows, all megaflows are disjoint and the first match
//! wins (§2.2). The cache is organised as one subtable per distinct mask —
//! literally "linearly iterating over a list of key/mask pairs for each
//! packet" — so the cost of a lookup grows with mask diversity, and the
//! number of entries needed grows as fine-grained rules "punch holes" in the
//! aggregates.
//!
//! Two fast-path properties of the real OVS classifier are reproduced here:
//! lookups are allocation-free (projection writes into a stack buffer which
//! probes the subtable map through `Borrow<[FieldValue]>`, hashed with
//! FxHash), and subtables are periodically re-ranked by hit count so the
//! linear search probes hot masks first — OVS sorts its subtable vector by
//! usage for exactly this reason.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use netdev::FxBuildHasher;
use openflow::flow_match::FlowMatch;
use openflow::{FieldValue, FlowKey};

use crate::mask::{FieldMask, MaskedKey};
use crate::program::Program;

/// One cached megaflow. Deliberately slim (two words): entries live inline
/// in the subtable hash slots, so their size is what tuple-space probes drag
/// through the cache, and a hit only reads its slot. The mask lives on the
/// subtable ([`MegaflowCache::subtable_masks`]), not on every entry; hits
/// are counted per subtable, for the probe-order ranking.
#[derive(Debug, Clone)]
pub struct MegaflowEntry {
    /// The cached action program; the entry owns its liveness flag.
    pub actions: Arc<Program>,
    /// Insertion sequence number: an eviction-FIFO pair evicts this entry
    /// only when its stamp matches, so pairs left behind by flushed entries
    /// are harmless.
    stamp: u64,
}

/// One subtable: all megaflows sharing a mask, hashed by masked key.
#[derive(Debug)]
struct Subtable {
    /// Stable identity (survives rank-reordering; eviction bookkeeping refers
    /// to subtables by id, never by position).
    id: u32,
    mask: FieldMask,
    entries: HashMap<MaskedKey, MegaflowEntry, FxBuildHasher>,
    /// Hits since the last re-rank (decayed, not reset, so a briefly idle
    /// subtable does not immediately fall to the back).
    rank_hits: u64,
}

/// The megaflow cache.
#[derive(Debug)]
pub struct MegaflowCache {
    subtables: Vec<Subtable>,
    next_subtable_id: u32,
    /// FIFO of (subtable id, key, stamp) used for eviction when the cache is
    /// at capacity, coarsely modelling OVS's flow-limit + revalidator
    /// behaviour. Selective flushes leave their pairs behind (stale: no
    /// entry with that stamp); they are skipped when popped and compacted
    /// away once they outnumber the live ones.
    insertion_order: VecDeque<(u32, MaskedKey, u64)>,
    /// The stamp the next new entry gets.
    next_stamp: u64,
    max_entries: usize,
    len: usize,
    /// Lookups until the next subtable re-rank.
    rank_countdown: u64,
    /// Projection scratch buffer, kept on the cache so lookups neither
    /// allocate nor re-zero 640 bytes of stack per call.
    scratch: [FieldValue; FieldMask::MAX_FIELDS],
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
            scratch: [0; FieldMask::MAX_FIELDS],
            subtables_searched: 0,
            lookups: 0,
        }
    }

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

    /// Looks up the cached action program covering `key`, if any.
    /// Tuple space search: one hash probe per subtable until a hit, hot
    /// subtables first, no heap allocation.
    #[inline]
    pub fn lookup(&mut self, key: &FlowKey) -> Option<Arc<Program>> {
        self.lookups += 1;
        self.rank_countdown -= 1;
        if self.rank_countdown == 0 {
            self.rerank();
        }
        for si in 0..self.subtables.len() {
            self.subtables_searched += 1;
            let n = self.subtables[si].mask.project_into(key, &mut self.scratch);
            let probe: &[FieldValue] = &self.scratch[..n];
            let subtable = &mut self.subtables[si];
            if let Some(entry) = subtable.entries.get(probe) {
                subtable.rank_hits += 1;
                return Some(Arc::clone(&entry.actions));
            }
        }
        None
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

    /// Installs a megaflow computed by the slow path: `key` projected through
    /// `mask` → `actions`. Evicts the oldest megaflow when inserting a *new*
    /// entry at capacity; replacing the program of an existing masked key
    /// never evicts anything, keeps the entry's place in the eviction order,
    /// and retires the replaced program.
    pub fn insert(&mut self, key: &FlowKey, mask: FieldMask, actions: Arc<Program>) {
        let subtable_index = match self.subtables.iter().position(|s| s.mask == mask) {
            Some(i) => i,
            None => {
                self.subtables.push(Subtable {
                    id: self.next_subtable_id,
                    mask: mask.clone(),
                    entries: HashMap::default(),
                    rank_hits: 0,
                });
                self.next_subtable_id += 1;
                self.subtables.len() - 1
            }
        };
        let masked = mask.project(key);
        if let Some(entry) = self.subtables[subtable_index]
            .entries
            .get_mut(masked.values())
        {
            std::mem::replace(&mut entry.actions, actions).retire();
            return;
        }
        while self.len >= self.max_entries {
            self.evict_oldest();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let subtable = &mut self.subtables[subtable_index];
        subtable
            .entries
            .insert(masked.clone(), MegaflowEntry { actions, stamp });
        self.len += 1;
        self.insertion_order.push_back((subtable.id, masked, stamp));
    }

    /// Evicts the oldest megaflow still cached, skipping stale FIFO pairs.
    fn evict_oldest(&mut self) {
        while let Some((id, key, stamp)) = self.insertion_order.pop_front() {
            if self.is_current(id, &key, stamp) {
                let subtable = self.subtables.iter_mut().find(|s| s.id == id);
                let entry = subtable.and_then(|s| s.entries.remove(key.values()));
                entry.expect("current pair").actions.retire();
                self.len -= 1;
                return;
            }
        }
        // Insertion order exhausted: nothing left to evict.
        self.len = self.subtables.iter().map(|s| s.entries.len()).sum();
    }

    /// True when the FIFO pair `(id, key, stamp)` still names a cached entry.
    fn is_current(&self, id: u32, key: &MaskedKey, stamp: u64) -> bool {
        self.subtables
            .iter()
            .find(|s| s.id == id)
            .and_then(|s| s.entries.get(key.values()))
            .is_some_and(|e| e.stamp == stamp)
    }

    /// Drops every megaflow (and every subtable), retiring every program so
    /// the EMC entries sharing them die too. This is what a flow-table
    /// change triggers in OVS: "the brute-force strategy to invalidate the
    /// entire cache after essentially all changes".
    pub fn invalidate(&mut self) {
        for entry in self.iter() {
            entry.actions.retire();
        }
        self.subtables.clear();
        self.insertion_order.clear();
        self.len = 0;
    }

    /// Delta-aware invalidation: drops only the megaflows that could overlap
    /// one of the changed rules' matches, keeping every entry that provably
    /// cannot see a different verdict ([`FieldMask::disjoint_from`]), and
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
        for subtable in &mut self.subtables {
            let mask = &subtable.mask;
            let before = subtable.entries.len();
            subtable.entries.retain(|key, entry| {
                let keep = matches.iter().all(|m| mask.disjoint_from(key.values(), m));
                if !keep {
                    entry.actions.retire();
                }
                keep
            });
            flushed += before - subtable.entries.len();
        }
        self.len -= flushed;
        // Emptied subtables drop out of the probe order entirely.
        self.subtables.retain(|s| !s.entries.is_empty());
        // The flushed entries' FIFO pairs stay behind, stale. Under
        // sustained selective churn below capacity nothing pops them, so
        // compact once they outnumber the live pairs: each compaction
        // removes at least half of what it scans, which amortises it to
        // O(1) per insert.
        if self.insertion_order.len() > 2 * self.len {
            let mut order = std::mem::take(&mut self.insertion_order);
            order.retain(|(id, key, stamp)| self.is_current(*id, key, *stamp));
            self.insertion_order = order;
        }
        flushed
    }

    /// Iterates over all cached megaflows (dump/debug/tests).
    pub fn iter(&self) -> impl Iterator<Item = &MegaflowEntry> {
        self.subtables.iter().flat_map(|s| s.entries.values())
    }

    /// The subtable masks in current probe order (tests/statistics).
    pub fn subtable_masks(&self) -> impl Iterator<Item = &FieldMask> {
        self.subtables.iter().map(|s| &s.mask)
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

impl Default for MegaflowCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::{Action, Field};
    use pkt::builder::PacketBuilder;

    fn key(port: u16, ip_last: u8) -> FlowKey {
        FlowKey::extract(
            &PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, ip_last])
                .tcp_dst(port)
                .build(),
        )
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
        cache.insert(&key(80, 1), port_mask(), actions(1));
        assert_eq!(cache.len(), 1);
        for last in 0..50u8 {
            assert!(cache.lookup(&key(80, last)).is_some());
        }
        assert!(cache.lookup(&key(443, 1)).is_none());
    }

    #[test]
    fn distinct_masks_create_subtables() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), port_mask(), actions(1));
        cache.insert(&key(443, 2), ip_mask(), actions(2));
        assert_eq!(cache.subtable_count(), 2);
        assert_eq!(cache.len(), 2);
        // Both are reachable.
        assert!(cache.lookup(&key(80, 99)).is_some());
        assert!(cache.lookup(&key(9999, 7)).is_some()); // via the /24 entry
    }

    #[test]
    fn same_mask_same_key_replaces() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), port_mask(), actions(1));
        cache.insert(&key(80, 2), port_mask(), actions(9)); // same masked key (port 80)
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(80, 3)).unwrap()[0], Action::Output(9));
    }

    #[test]
    fn eviction_bounds_the_cache() {
        let mut cache = MegaflowCache::with_capacity(16);
        for port in 0..100u16 {
            cache.insert(&key(port, 1), port_mask(), actions(1));
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
            cache.insert(&key(port, 1), port_mask(), actions(u32::from(port)));
        }
        assert_eq!(cache.len(), 4);
        cache.insert(&key(2, 9), port_mask(), actions(99)); // replace port 2
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
        cache.insert(&key(80, 1), port_mask(), actions(1)); // pins tcp_dst=80
        cache.insert(&key(443, 1), port_mask(), actions(2)); // pins tcp_dst=443
        cache.insert(&key(80, 7), ip_mask(), actions(3)); // pins 192.0.2.0/24

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
            cache.insert(&key(80, 1), port_mask(), actions(u32::from(round)));
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
        cache.insert(&key(80, 1), port_mask(), Arc::clone(&a));
        cache.insert(&key(81, 1), port_mask(), Arc::clone(&b));
        assert_eq!(flush(&mut cache, 80), 1);
        assert!(!a.is_alive(), "a flushed program stays alive");
        // Port 80 comes back (its old FIFO pair is now stale), then fills
        // the cache: the next insert evicts the oldest *live* entry, port
        // 81, not the reinstalled port 80.
        cache.insert(&key(80, 1), port_mask(), actions(3));
        cache.insert(&key(82, 1), port_mask(), actions(4));
        cache.insert(&key(83, 1), port_mask(), actions(5));
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
            cache.insert(&key(82, 1), port_mask(), actions(6));
            assert!(cache.insertion_order.len() <= 2 * cache.len() + 1);
        }
    }

    #[test]
    fn replacement_retires_the_replaced_program() {
        let mut cache = MegaflowCache::new();
        let old = actions(1);
        cache.insert(&key(80, 1), port_mask(), Arc::clone(&old));
        let new = actions(9);
        cache.insert(&key(80, 2), port_mask(), Arc::clone(&new));
        assert!(!old.is_alive() && new.is_alive());
        cache.invalidate();
        assert!(!new.is_alive(), "a full flush left a program alive");
    }

    #[test]
    fn delta_invalidation_respects_absent_fields() {
        use openflow::flow_match::FlowMatch;
        let mut cache = MegaflowCache::new();
        // A megaflow over UDP traffic that pins udp_dst: a TCP packet's key
        // has no udp_dst, so the mask stores the absent sentinel.
        let udp_key = FlowKey::extract(&PacketBuilder::udp().udp_dst(53).build());
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::UdpDst);
        cache.insert(&udp_key, m.clone(), actions(1));
        // A megaflow over TCP traffic through the same udp_dst mask (absent).
        cache.insert(&key(80, 1), m, actions(2));

        // A rule matching udp_dst=53 can only affect packets carrying UDP:
        // the absent-field entry survives, the present-and-equal one dies.
        let flushed =
            cache.invalidate_overlapping(&[FlowMatch::any().with_exact(Field::UdpDst, 53)]);
        assert_eq!(flushed, 1);
        assert!(cache.lookup(&key(80, 1)).is_some());
        assert!(cache.lookup(&udp_key).is_none());
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), port_mask(), actions(1));
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.subtable_count(), 0);
        assert!(cache.lookup(&key(80, 1)).is_none());
    }

    #[test]
    fn hit_counters_and_search_stats() {
        let mut cache = MegaflowCache::new();
        cache.insert(&key(80, 1), port_mask(), actions(1));
        cache.insert(&key(443, 2), ip_mask(), actions(2));
        for _ in 0..10 {
            cache.lookup(&key(80, 1));
        }
        assert!(cache.avg_subtables_per_lookup() >= 1.0);
        let hits: u64 = cache.subtables.iter().map(|s| s.rank_hits).sum();
        assert_eq!(hits, 10);
    }

    fn key_in_net(port: u16, net: [u8; 4]) -> FlowKey {
        FlowKey::extract(&PacketBuilder::tcp().ipv4_dst(net).tcp_dst(port).build())
    }

    #[test]
    fn reranking_moves_hot_subtable_first() {
        let mut cache = MegaflowCache::new();
        // Install the cold mask first so it initially ranks ahead. Its /24
        // (10.9.9.0) is disjoint from the hammered flow's 192.0.2.0 so the
        // cold subtable is probed but never hit.
        cache.insert(&key_in_net(443, [10, 9, 9, 9]), ip_mask(), actions(2));
        cache.insert(&key(80, 1), port_mask(), actions(1));
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
        cache2.insert(&key_in_net(443, [10, 9, 9, 9]), ip_mask(), actions(2));
        cache2.insert(&key(80, 1), port_mask(), actions(1));
        for _ in 0..MegaflowCache::RANK_INTERVAL {
            cache2.lookup(&key(80, 1));
        }
        cache2.insert(&key(81, 1), port_mask(), actions(3)); // evicts the ip entry
        assert_eq!(cache2.len(), 2);
        assert!(
            cache2.lookup(&key_in_net(9999, [10, 9, 9, 2])).is_none(),
            "oldest not evicted"
        );
        assert!(cache2.lookup(&key(81, 1)).is_some());
    }
}
