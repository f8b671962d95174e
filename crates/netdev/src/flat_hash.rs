//! One flat open-addressed hash table — the backing store of the
//! compound-hash table template.
//!
//! The paper (§3.1) asks of the hash template "fast constant time lookups, a
//! key to a robust datapath performance", and §5 charges it one hash and one
//! memory access. This table is that shape: one multiply hash, the home slot
//! taken from the hash's *top* bits, and a slot that holds the packed key
//! beside the value, so a hit is one probe of one array — usually one cache
//! line. The table is kept at most a quarter full; collisions are resolved by
//! Robin Hood linear probing with a *bounded* displacement: no entry ever sits
//! more than [`MAX_DISPLACEMENT`] slots past its home, so a lookup — hit or
//! miss — reads at most one fixed window. An insert that would pass either
//! limit re-seeds and doubles the table instead (`grow`); that is the only
//! time entries are re-homed. Insert is otherwise in
//! place and remove closes its gap by backward shift (no tombstones), so
//! §3.4's incremental flow-mods never rebuild.
//!
//! This file holds everything that runs per packet or per flow-mod and is in
//! `cargo xtask lint`'s fast-path set (no allocation); construction and
//! re-homing allocate and live in `grow`.

mod grow;

/// No entry sits further than this many slots past its home slot.
pub const MAX_DISPLACEMENT: usize = 15;

/// Home slots per stored entry, at least: the table is never more than a
/// quarter full. There about seven hits in eight end at the home slot, so
/// the probe loop's exit branch predicts; at half full (two in three) the
/// mispredictions made `l2_min` — one hash hop per packet — 4–6 % slower end
/// to end, for 32 KiB saved on its 1 000-entry table.
const SLOTS_PER_ENTRY: usize = 4;

/// A key the table can hash: the packed compound key of a flow table, in 64
/// bits when the matched fields fit and 128 otherwise.
pub trait HashKey: Copy + Eq {
    /// One multiply hash of the key under an odd `seed`; the table uses the
    /// top bits.
    fn hash(self, seed: u64) -> u64;
}

impl HashKey for u64 {
    /// The xor-fold brings keys that differ only in their high bits (a field
    /// packed first) down to where the multiply spreads them to the top.
    #[inline]
    fn hash(self, seed: u64) -> u64 {
        (self ^ (self >> 32)).wrapping_mul(seed)
    }
}

impl HashKey for u128 {
    /// Folds the high half in under the seed (so two keys that fold alike
    /// under one seed part under the next), then hashes as 64 bits.
    #[inline]
    fn hash(self, seed: u64) -> u64 {
        let (low, high) = (self as u64, (self >> 64) as u64);
        (low ^ high.wrapping_mul(seed).rotate_left(32)).hash(seed)
    }
}

/// A hash map from packed compound keys to values: one array, one probe.
#[derive(Debug, Clone)]
pub struct FlatHash<K, V> {
    /// `capacity + MAX_DISPLACEMENT` slots, so the probe window of the last
    /// home slot needs no wrap-around. Within a run of occupied slots entries
    /// are ordered by home slot (the Robin Hood invariant), and there is no
    /// empty slot between an entry and its home.
    slots: Box<[Option<(K, V)>]>,
    /// `64 - log2(capacity)`: the home slot is the hash's top bits.
    shift: u32,
    /// Odd multiplier of the hash; changes whenever the table is re-homed.
    seed: u64,
    len: usize,
}

impl<K: HashKey, V> FlatHash<K, V> {
    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of home slots (a power of two, at least four times
    /// [`Self::len`]).
    pub fn capacity(&self) -> usize {
        self.slots.len() - MAX_DISPLACEMENT
    }

    #[inline]
    fn home(&self, key: K) -> usize {
        (key.hash(self.seed) >> self.shift) as usize
    }

    /// The probe: one hash, then the key's window until the key or an empty
    /// slot. Yields the slot index too, for the operations that edit it.
    #[inline]
    fn find(&self, key: K) -> Option<(usize, &V)> {
        let home = self.home(key);
        let window = &self.slots[home..=home + MAX_DISPLACEMENT];
        for (offset, slot) in window.iter().enumerate() {
            match slot {
                Some((k, v)) if *k == key => return Some((home + offset, v)),
                Some(_) => {}
                None => return None,
            }
        }
        None
    }

    /// Constant-time lookup: one probe.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).map(|(_, value)| value)
    }

    /// Inserts or replaces an entry in place, returning the value replaced.
    /// Re-homes the table only when it is a quarter full or the new entry's
    /// displacement would pass the bound.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some((at, _)) = self.find(key) {
            let (_, stored) = self.slots[at].as_mut().expect("find yields occupied slots");
            return Some(std::mem::replace(stored, value));
        }
        if (self.len + 1) * SLOTS_PER_ENTRY > self.capacity() {
            self.grow(None);
        }
        if let Err(homeless) = self.place((key, value)) {
            self.grow(Some(homeless));
        }
        self.len += 1;
        None
    }

    /// Robin Hood insertion of an entry whose key is not stored: walks from
    /// the home slot, taking the slot of any resident that sits closer to its
    /// own home and carrying that resident on. `Err` hands back the entry left
    /// without a slot when a displacement would pass the bound; every other
    /// entry is still stored and findable.
    fn place(&mut self, mut entry: (K, V)) -> Result<(), (K, V)> {
        let (seed, shift) = (self.seed, self.shift);
        let mut home = self.home(entry.0);
        let mut at = home;
        while at - home <= MAX_DISPLACEMENT {
            match &mut self.slots[at] {
                empty @ None => {
                    *empty = Some(entry);
                    return Ok(());
                }
                Some(resident) => {
                    let resident_home = (resident.0.hash(seed) >> shift) as usize;
                    if resident_home > home {
                        std::mem::swap(resident, &mut entry);
                        home = resident_home;
                    }
                }
            }
            at += 1;
        }
        Err(entry)
    }

    /// Removes an entry, returning its value if present. The gap is closed by
    /// backward shift: each follower that sits past its home moves down one
    /// slot, so every probe chain stays unbroken and nothing is left to
    /// clean up later.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let (mut gap, _) = self.find(key)?;
        let (_, value) = self.slots[gap].take().expect("find yields occupied slots");
        while let Some(Some((follower, _))) = self.slots.get(gap + 1) {
            if self.home(*follower) > gap {
                break;
            }
            self.slots.swap(gap, gap + 1);
            gap += 1;
        }
        self.len -= 1;
        Some(value)
    }

    /// Iterates over all entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }

    /// Resident size in bytes; feeds the cache model's working-set estimate.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two structural invariants every operation must keep: bounded
    /// displacement, and no empty slot between an entry and its home.
    fn assert_chains_intact<K: HashKey + std::fmt::Debug, V>(map: &FlatHash<K, V>) {
        let mut stored = 0;
        for (at, slot) in map.slots.iter().enumerate() {
            let Some((key, _)) = slot else { continue };
            stored += 1;
            let home = map.home(*key);
            assert!(home <= at && at - home <= MAX_DISPLACEMENT, "{key:?}");
            assert!(map.slots[home..at].iter().all(Option::is_some), "{key:?}");
        }
        assert_eq!(stored, map.len());
    }

    #[test]
    fn build_and_lookup() {
        let map: FlatHash<u128, u32> = (0..100u128).map(|k| (k * 7, k as u32)).collect();
        assert_eq!(map.len(), 100);
        for k in 0..100u128 {
            assert_eq!(map.get(k * 7), Some(&(k as u32)));
        }
        assert_eq!(map.get(3), None);
        assert_chains_intact(&map);
    }

    #[test]
    fn later_duplicates_replace_earlier_ones() {
        let map: FlatHash<u64, u32> = vec![(1, 1), (2, 2), (1, 10)].into_iter().collect();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(1), Some(&10));
    }

    #[test]
    fn insert_replace_remove() {
        let mut map = FlatHash::new();
        assert_eq!(map.insert(42u64, "a"), None);
        assert_eq!(map.insert(43, "b"), None);
        assert_eq!(map.insert(42, "c"), Some("a"));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(42), Some(&"c"));
        assert_eq!(map.remove(42), Some("c"));
        assert_eq!(map.get(42), None);
        assert_eq!(map.remove(42), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn growth_keeps_every_entry_and_the_load_under_a_quarter() {
        let mut map = FlatHash::new();
        let small = map.capacity();
        for k in 0..5_000u64 {
            map.insert(k.wrapping_mul(0x9e37_79b9), k);
        }
        assert!(map.capacity() > small && map.capacity() >= 4 * map.len());
        for k in 0..5_000u64 {
            assert_eq!(map.get(k.wrapping_mul(0x9e37_79b9)), Some(&k));
        }
        assert_chains_intact(&map);
        // Linear total size: under 8 slots per entry after rounding up.
        let slot = std::mem::size_of::<Option<(u64, u64)>>();
        assert!(map.memory_footprint() <= 5_000 * 8 * slot);
    }

    #[test]
    fn removal_shifts_followers_back_and_keeps_chains_intact() {
        let mut map: FlatHash<u64, u64> = (0..2_000u64).map(|k| (k, k)).collect();
        let capacity = map.capacity();
        for k in (0..2_000u64).step_by(3) {
            assert_eq!(map.remove(k), Some(k));
            assert_chains_intact(&map);
        }
        for k in 0..2_000u64 {
            assert_eq!(map.get(k), (k % 3 != 0).then_some(&k), "key {k}");
        }
        assert_eq!(map.capacity(), capacity, "removal never re-homes");
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut map: FlatHash<u128, u128> = (0..20u128).map(|k| (k, k * 2)).collect();
        map.insert(100, 200);
        let mut keys: Vec<u128> = map.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let mut expected: Vec<u128> = (0..20).collect();
        expected.push(100);
        assert_eq!(keys, expected);
    }

    #[test]
    fn empty_map_behaves() {
        let map: FlatHash<u128, u32> = FlatHash::new();
        assert!(map.is_empty());
        assert_eq!(map.get(0), None);
        assert!(map.memory_footprint() > 0);
        let empty_build: FlatHash<u64, u32> = std::iter::empty().collect();
        assert!(empty_build.is_empty());
        assert_eq!(empty_build.get(42), None);
    }

    #[test]
    fn slots_are_at_most_32_bytes() {
        use std::sync::Arc;
        assert_eq!(std::mem::size_of::<Option<(u64, Arc<[u8; 100]>)>>(), 16);
        assert_eq!(std::mem::size_of::<Option<(u128, Arc<[u8; 100]>)>>(), 32);
    }
}
