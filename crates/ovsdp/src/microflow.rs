//! The microflow cache (OVS "exact match cache", EMC).
//!
//! A small, fixed-size, set-associative store mapping the *complete* flow key
//! of a transport connection to the cached action program. "Since exact
//! matching occurs over all relevant tuple fields, essentially any change in
//! the packet header inside an established flow results in a cache miss"
//! (§2.2) — and because the store is small, a large active-flow set simply
//! thrashes it, which is the first step of the performance collapse the
//! evaluation demonstrates.
//!
//! Keys are [`MiniKey`]s — compact miniflow-style keys whose hash is computed
//! once at extraction — so a probe is an index plus a compact compare, with
//! no per-lookup SipHash and no allocation (the real EMC stores
//! `(miniflow, hash)` pairs for the same reason).
//!
//! The EMC has no invalidation of its own: an entry answers only while the
//! megaflow it came from is cached, which its shared [`Program`]'s liveness
//! flag says. Whatever removes megaflows — a selective or full flush, an
//! eviction, a replacement — thereby removes their EMC entries, in O(1) each
//! and without a scan of the EMC.

use std::sync::Arc;

use crate::minikey::MiniKey;
use crate::program::Program;

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
    slots: Vec<Option<Slot>>,
    ways: usize,
    sets: usize,
    /// Toggle used to pick the victim way on insertion, mirroring the cheap
    /// replacement policy of the real EMC.
    victim_toggle: bool,
}

impl MicroflowCache {
    /// Default number of entries, matching OVS's EMC size.
    pub const DEFAULT_ENTRIES: usize = 8192;
    /// Associativity (OVS's EMC is effectively 2-way).
    pub const WAYS: usize = 2;

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_ENTRIES)
    }

    /// Creates a cache holding at most `entries` keys (rounded to a power of
    /// two of sets × 2 ways).
    pub fn with_capacity(entries: usize) -> Self {
        let sets = (entries.max(Self::WAYS) / Self::WAYS).next_power_of_two();
        MicroflowCache {
            slots: vec![None; sets * Self::WAYS],
            ways: Self::WAYS,
            sets,
            victim_toggle: false,
        }
    }

    #[inline]
    fn set_index(&self, key: &MiniKey) -> usize {
        (key.hash() as usize) & (self.sets - 1)
    }

    /// Looks up the live action program cached for exactly this key.
    #[inline]
    pub fn lookup(&self, key: &MiniKey) -> Option<Arc<Program>> {
        let base = self.set_index(key) * self.ways;
        for s in self.slots[base..base + self.ways].iter().flatten() {
            if s.key == *key && s.actions.is_alive() {
                return Some(Arc::clone(&s.actions));
            }
        }
        None
    }

    /// Inserts (or refreshes) an entry for `key`.
    pub fn insert(&mut self, key: MiniKey, actions: Arc<Program>) {
        let base = self.set_index(&key) * self.ways;
        // Reuse a slot holding the same key or an empty slot if possible.
        // Dead slots get no preference: telling them apart would read every
        // way's program, a cache miss per way on the promotion path, which
        // runs once per megaflow hit.
        let mut victim = None;
        for (i, slot) in self.slots[base..base + self.ways].iter().enumerate() {
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
    }
}
