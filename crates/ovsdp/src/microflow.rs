//! The microflow cache (OVS "exact match cache", EMC).
//!
//! A small, fixed-size, set-associative store mapping the *complete* flow key
//! of a transport connection to the cached action program. "Since exact
//! matching occurs over all relevant tuple fields, essentially any change in
//! the packet header inside an established flow results in a cache miss"
//! (§2.2) — and because the store is small, an active-flow set larger than
//! it is answered mostly by the megaflow cache behind it, which is the first
//! step of the performance decline the evaluation demonstrates.
//!
//! Keys are [`MiniKey`]s — compact miniflow-style keys of `u64` words whose
//! hash is computed once at extraction — so a probe is an index plus a
//! compact compare, with no per-lookup SipHash and no allocation (the real
//! EMC stores `(miniflow, hash)` pairs for the same reason). The set is taken
//! from the hash's *top* bits, where its final multiply mixes best; keys
//! that differ only in high-order field bits would otherwise crowd a fraction
//! of the sets.
//!
//! **Promotion is sampled.** A megaflow hit enters the EMC through
//! [`MicroflowCache::promote`], which admits one in
//! [`EMC_INSERT_INV_PROB`] on average, as OVS has done by default since 2.7
//! (`other_config:emc-insert-inv-prob`). Promoting every hit makes a flow set
//! larger than the EMC evict itself in a cycle: each promotion rewrites a
//! slot, and the entry it leaves is evicted before its flow returns. Sampled,
//! the resident entries stay long enough to be hit, so the EMC's share
//! decays as about capacity ÷ flows instead of collapsing. The sampler is a
//! xorshift generator seeded from a constant, so runs reproduce.
//! [`MicroflowCache::insert`] stays unconditional: the slow path installs a
//! megaflow once, which cannot thrash the EMC.
//!
//! The EMC has no invalidation of its own: an entry answers only while the
//! megaflow it came from is cached, which its shared [`Program`]'s liveness
//! flag says. Whatever removes megaflows — a selective or full flush, an
//! eviction, a replacement — thereby removes their EMC entries, in O(1) each
//! and without a scan of the EMC.

use std::mem::size_of;
use std::sync::Arc;

use crate::minikey::MiniKey;
use crate::program::Program;

/// A megaflow hit is promoted into the EMC with probability
/// `1 / EMC_INSERT_INV_PROB`: OVS's `other_config:emc-insert-inv-prob`
/// default (since OVS 2.7).
pub const EMC_INSERT_INV_PROB: u32 = 100;

/// The sampler admits a promotion when its next draw is at most this, as
/// OVS's `emc_probabilistic_insert` compares `random_uint32()` against
/// `UINT32_MAX / emc-insert-inv-prob`.
const EMC_INSERT_MIN: u32 = u32::MAX / EMC_INSERT_INV_PROB;

/// Fixed nonzero xorshift seed: every datapath samples the same sequence.
const SAMPLER_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// One cached entry: the exact key plus the program shared with its
/// megaflow.
#[derive(Debug, Clone)]
struct Slot {
    key: MiniKey,
    actions: Arc<Program>,
}

/// A set-associative exact-match cache.
#[derive(Debug)]
pub struct MicroflowCache {
    slots: Box<[Option<Slot>]>,
    /// `64 - log2(sets)`: the set index is the key hash shifted right by
    /// this, i.e. its top bits.
    set_shift: u32,
    /// Toggle used to pick the victim way on insertion, mirroring the cheap
    /// replacement policy of the real EMC.
    victim_toggle: bool,
    /// Xorshift state of the promotion sampler.
    sampler: u64,
}

impl MicroflowCache {
    /// Default number of entries, matching OVS's EMC size.
    pub const DEFAULT_ENTRIES: usize = 8192;
    /// Associativity (OVS's EMC is effectively 2-way).
    pub const WAYS: usize = 2;
    /// Resident bytes per entry (key, program pointer), for working-set
    /// estimates.
    pub const ENTRY_BYTES: usize = size_of::<Option<Slot>>();

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_ENTRIES)
    }

    /// Creates a cache holding at most `entries` keys, rounded up to a power
    /// of two of at least two sets × 2 ways. Zero entries is no cache at all:
    /// every lookup misses and insertions are dropped.
    pub fn with_capacity(entries: usize) -> Self {
        let sets = match entries {
            0 => 0,
            _ => entries.div_ceil(Self::WAYS).next_power_of_two().max(2),
        };
        MicroflowCache {
            slots: (0..sets * Self::WAYS).map(|_| None).collect(),
            set_shift: u64::BITS - sets.trailing_zeros(),
            victim_toggle: false,
            sampler: SAMPLER_SEED,
        }
    }

    /// The first slot of `key`'s set.
    #[inline]
    fn set_base(&self, key: &MiniKey) -> usize {
        (key.hash() >> self.set_shift) as usize * Self::WAYS
    }

    /// Looks up the live action program cached for exactly this key.
    #[inline]
    pub fn lookup(&self, key: &MiniKey) -> Option<Arc<Program>> {
        if self.slots.is_empty() {
            return None;
        }
        let base = self.set_base(key);
        for s in self.slots[base..base + Self::WAYS].iter().flatten() {
            if s.key == *key && s.actions.is_alive() {
                return Some(Arc::clone(&s.actions));
            }
        }
        None
    }

    /// Offers a megaflow hit for promotion: inserts it with probability
    /// `1 / EMC_INSERT_INV_PROB` and says whether it did.
    #[inline]
    pub fn promote(&mut self, key: &MiniKey, actions: &Arc<Program>) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        // xorshift64 (Marsaglia's 13/7/17 triple); the high half is the draw.
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        let admit = (x >> 32) as u32 <= EMC_INSERT_MIN;
        if admit {
            self.insert(*key, Arc::clone(actions));
        }
        admit
    }

    /// Inserts (or refreshes) an entry for `key`.
    pub fn insert(&mut self, key: MiniKey, actions: Arc<Program>) {
        if self.slots.is_empty() {
            return;
        }
        let base = self.set_base(&key);
        // Reuse a slot holding the same key or an empty slot if possible.
        // Dead slots get no preference: telling them apart would read every
        // way's program, a cache miss per way on the promotion path.
        let mut victim = None;
        for (i, slot) in self.slots[base..base + Self::WAYS].iter().enumerate() {
            match slot {
                Some(s) if s.key == key => {
                    victim = Some(i);
                    break;
                }
                None if victim.is_none() => victim = Some(i),
                _ => {}
            }
        }
        let way = victim.unwrap_or_else(|| {
            self.victim_toggle = !self.victim_toggle;
            usize::from(self.victim_toggle)
        });
        self.slots[base + way] = Some(Slot { key, actions });
    }

    /// Number of live entries (their megaflow is still cached); linear
    /// scan, meant for tests and statistics dumps only.
    pub fn live_entries(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.actions.is_alive())
            .count()
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl Default for MicroflowCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::{Action, FlowKey};
    use pkt::builder::PacketBuilder;

    fn key(port: u16) -> MiniKey {
        MiniKey::from_flow(&FlowKey::extract(
            &PacketBuilder::tcp()
                .tcp_dst(port)
                .tcp_src(port ^ 0x1234)
                .build(),
        ))
    }

    fn actions(port: u32) -> Arc<Program> {
        Arc::new(Program::new(vec![Action::Output(port)], Default::default()))
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = MicroflowCache::with_capacity(64);
        c.insert(key(80), actions(1));
        c.insert(key(443), actions(2));
        assert_eq!(c.lookup(&key(80)).unwrap()[0], Action::Output(1));
        assert_eq!(c.lookup(&key(443)).unwrap()[0], Action::Output(2));
        assert!(c.lookup(&key(22)).is_none());
        assert_eq!(c.live_entries(), 2);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let mut c = MicroflowCache::with_capacity(64);
        c.insert(key(80), actions(1));
        c.insert(key(80), actions(9));
        assert_eq!(c.lookup(&key(80)).unwrap()[0], Action::Output(9));
        assert_eq!(c.live_entries(), 1);
    }

    #[test]
    fn invalidate_clears_everything() {
        // A full megaflow flush retires every program: the whole EMC goes
        // dead with it, without being touched.
        let mut c = MicroflowCache::with_capacity(64);
        let programs: Vec<_> = (0..20).map(|_| actions(1)).collect();
        for (p, program) in programs.iter().enumerate() {
            c.insert(key(p as u16), Arc::clone(program));
        }
        assert!(c.live_entries() > 0);
        for program in &programs {
            program.retire();
        }
        assert_eq!(c.live_entries(), 0);
        assert!(c.lookup(&key(5)).is_none());
        // The cache keeps working after invalidation.
        c.insert(key(5), actions(3));
        assert_eq!(c.lookup(&key(5)).unwrap()[0], Action::Output(3));
    }

    #[test]
    fn small_cache_thrashes_under_many_flows() {
        // With far more active flows than capacity, most lookups miss —
        // the behaviour behind Fig. 14's microflow hit-rate collapse.
        let mut c = MicroflowCache::with_capacity(32);
        for p in 0..1000u16 {
            c.insert(key(p), actions(1));
        }
        let hits = (0..1000u16)
            .filter(|p| c.lookup(&key(*p)).is_some())
            .count();
        assert!(hits <= c.capacity(), "hits {hits} exceed capacity");
        assert!(c.live_entries() <= c.capacity());
    }

    #[test]
    fn capacity_rounding() {
        let c = MicroflowCache::with_capacity(100);
        assert!(c.capacity() >= 100);
        assert_eq!(c.capacity() % MicroflowCache::WAYS, 0);
        assert_eq!(MicroflowCache::with_capacity(1).capacity(), 4);
    }

    #[test]
    fn slot_is_compact() {
        // A 240-byte key of `u64` words plus the program pointer: the
        // default EMC stays near 2 MB.
        const { assert!(MicroflowCache::ENTRY_BYTES <= 256) };
    }

    #[test]
    fn zero_capacity_is_no_cache() {
        let mut c = MicroflowCache::with_capacity(0);
        assert_eq!(c.capacity(), 0);
        c.insert(key(80), actions(1));
        assert!(!(0..1000).any(|_| c.promote(&key(80), &actions(1))));
        assert!(c.lookup(&key(80)).is_none());
        assert_eq!(c.live_entries(), 0);
    }

    #[test]
    fn flows_differing_above_the_low_byte_spread_over_the_sets() {
        // 4 096 flows whose `ipv4_src` differs only above its low byte, into
        // the default EMC's 4 096 sets. Uniform hashing occupies
        // 4 096 × (1 − 1/e) ≈ 2 590 of them; a set index from the hash's low
        // bits puts these flows in about 1 000.
        let c = MicroflowCache::new();
        let sets = c.capacity() / MicroflowCache::WAYS;
        assert_eq!(sets, 4096);
        let base = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(4000).build());
        let mut occupied = vec![false; sets];
        for i in 0..4096u32 {
            let flow = FlowKey {
                ipv4_src: Some(0x0a00_0001 | (i << 8)),
                ..base
            };
            occupied[c.set_base(&MiniKey::from_flow(&flow)) / MicroflowCache::WAYS] = true;
        }
        let used = occupied.iter().filter(|&&o| o).count();
        assert!(
            used >= 2_450,
            "4 096 flows occupy only {used} of 4 096 sets"
        );
    }

    #[test]
    fn promotion_admits_about_one_in_inv_prob_reproducibly() {
        let draws = 100_000;
        let admitted = |c: &mut MicroflowCache| {
            let program = actions(1);
            (0..draws)
                .map(|i| c.promote(&key((i % 50) as u16), &program))
                .collect::<Vec<bool>>()
        };
        let first = admitted(&mut MicroflowCache::with_capacity(64));
        let expected = draws / EMC_INSERT_INV_PROB as usize;
        let got = first.iter().filter(|&&a| a).count();
        assert!(
            got.abs_diff(expected) < expected / 5,
            "{got} of {draws} admitted, expected about {expected}"
        );
        // A second cache samples the same sequence.
        assert_eq!(admitted(&mut MicroflowCache::with_capacity(64)), first);
    }

    #[test]
    fn admitted_promotion_is_found() {
        let mut c = MicroflowCache::with_capacity(64);
        let program = actions(4);
        let mut offers = 0;
        while !c.promote(&key(80), &program) {
            offers += 1;
            assert!(c.lookup(&key(80)).is_none(), "a declined offer inserted");
            assert!(offers < 20 * EMC_INSERT_INV_PROB, "never admitted");
        }
        assert_eq!(c.lookup(&key(80)).unwrap()[0], Action::Output(4));
    }
}
