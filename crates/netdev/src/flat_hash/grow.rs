//! Construction and re-homing of [`FlatHash`] — the parts that allocate,
//! kept out of the lint-covered probe/insert/remove file.

use super::{FlatHash, HashKey, MAX_DISPLACEMENT, SLOTS_PER_ENTRY};

/// Home slots of an empty table.
const MIN_CAPACITY: usize = 8;

impl<K: HashKey, V> FlatHash<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty map that takes `entries` inserts without growing for
    /// load.
    pub fn with_capacity(entries: usize) -> Self {
        let capacity = (entries * SLOTS_PER_ENTRY)
            .next_power_of_two()
            .max(MIN_CAPACITY);
        FlatHash {
            slots: empty_slots(capacity),
            shift: u64::BITS - capacity.trailing_zeros(),
            seed: 0x9e37_79b9_7f4a_7c15,
            len: 0,
        }
    }

    /// Re-homes every entry, and `homeless` if given, into twice the home
    /// slots under a fresh seed — doubling again for as long as some entry
    /// still lands past the displacement bound. Doubling keeps this amortised
    /// O(1) per insert; a fresh seed each round separates wide keys that
    /// folded alike.
    pub(super) fn grow(&mut self, homeless: Option<(K, V)>) {
        let mut capacity = self.capacity();
        let mut entries: Vec<(K, V)> = homeless.into_iter().collect();
        loop {
            capacity *= 2;
            entries.extend(self.take_slots(capacity));
            while let Some(entry) = entries.pop() {
                if let Err(homeless) = self.place(entry) {
                    entries.push(homeless);
                    break;
                }
            }
            if entries.is_empty() {
                return;
            }
        }
    }

    /// Swaps in `capacity` empty home slots under the next seed and hands
    /// back the entries the old slots held.
    fn take_slots(&mut self, capacity: usize) -> impl Iterator<Item = (K, V)> {
        self.seed = self
            .seed
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(2);
        self.shift = u64::BITS - capacity.trailing_zeros();
        std::mem::replace(&mut self.slots, empty_slots(capacity))
            .into_vec()
            .into_iter()
            .flatten()
    }
}

fn empty_slots<K, V>(capacity: usize) -> Box<[Option<(K, V)>]> {
    (0..capacity + MAX_DISPLACEMENT).map(|_| None).collect()
}

impl<K: HashKey, V> Default for FlatHash<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a map in one shot; later duplicates of a key replace earlier ones.
impl<K: HashKey, V> FromIterator<(K, V)> for FlatHash<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut map = Self::with_capacity(entries.size_hint().0);
        for (key, value) in entries {
            map.insert(key, value);
        }
        map
    }
}
