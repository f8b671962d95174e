//! Megaflow masks: which fields (and which bits of them) a cached megaflow
//! matches on, and the subtable key a mask compiles to.
//!
//! [`FieldMask`] is what the slow path accumulates: a bitset of present
//! fields plus a dense `[FieldValue; Field::COUNT]` array indexed by
//! [`Field::index`]. A megaflow subtable compiles its mask once, at
//! creation, into a [`CompiledMask`]: the list of [`MiniKey`] words the mask
//! pins, each with the `u64` bits it keeps. A subtable key is then the
//! packet's presence bitmap ANDed with the pinned fields' presence bits,
//! followed by each pinned word ANDed with its mask — OVS's `dpcls` key, a
//! few `u64` words read straight out of the miniflow the packet already
//! carries. The presence word keeps "field absent" apart from every value
//! the field can take, all-ones included; a field the key never carries
//! (MPLS, PBB, …) is absent on every packet, so it adds no word.

use netdev::fx_mix;
use openflow::flow_match::FlowMatch;
use openflow::tuple_index::Unwildcard;
use openflow::{Field, FieldValue};

use crate::minikey::{packing_bit, MiniKey, WordRef, MINI_WORDS};

/// Most words a subtable key can have: the presence word plus every word a
/// [`MiniKey`] can pack.
pub(crate) const MAX_KEY_WORDS: usize = 1 + MINI_WORDS;

/// A per-field wildcard mask, accumulated by the slow path while it decides a
/// packet's fate.
///
/// A field absent from the bitset is fully wildcarded; a field present with
/// mask `m` participates in the megaflow with exactly the bits of `m`. The
/// OVS term for building this up is *un-wildcarding*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMask {
    /// Bit `Field::index(f)` set ⇔ field `f` has at least one un-wildcarded
    /// bit. Invariant: `present` bit set ⇔ `masks[i] != 0`.
    present: u64,
    masks: [FieldValue; Field::COUNT],
}

impl Default for FieldMask {
    fn default() -> Self {
        FieldMask {
            present: 0,
            masks: [0; Field::COUNT],
        }
    }
}

impl FieldMask {
    /// The fully wildcarded mask (matches everything).
    pub fn wildcard_all() -> Self {
        FieldMask::default()
    }

    /// Un-wildcards `mask` bits of `field` (ORs into any existing mask).
    #[inline]
    pub fn unwildcard(&mut self, field: Field, mask: FieldValue) {
        let mask = mask & field.full_mask();
        if mask == 0 {
            return;
        }
        let i = field.index();
        self.present |= 1u64 << i;
        self.masks[i] |= mask;
    }

    /// Un-wildcards the full width of `field`.
    pub fn unwildcard_exact(&mut self, field: Field) {
        self.unwildcard(field, field.full_mask());
    }

    /// Merges another mask into this one.
    pub fn merge(&mut self, other: &FieldMask) {
        self.present |= other.present;
        let mut bits = other.present;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.masks[i] |= other.masks[i];
        }
    }

    /// The per-field masks, in dense field order.
    pub fn fields(&self) -> impl Iterator<Item = (Field, FieldValue)> + '_ {
        BitIter(self.present).map(|i| (Field::from_index(i), self.masks[i]))
    }

    /// The mask on one field (0 = fully wildcarded).
    #[inline]
    pub fn mask_of(&self, field: Field) -> FieldValue {
        self.masks[field.index()]
    }

    /// Number of fields with at least one un-wildcarded bit.
    pub fn field_count(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// True when nothing is un-wildcarded.
    pub fn is_wildcard_all(&self) -> bool {
        self.present == 0
    }

    /// Total number of un-wildcarded bits across all fields — a measure of
    /// megaflow specificity (more bits → more megaflows needed to cover the
    /// same traffic).
    pub fn unwildcarded_bits(&self) -> u32 {
        self.fields().map(|(_, m)| m.count_ones()).sum()
    }
}

/// The slow path's flow tables un-wildcard straight into the mask.
impl Unwildcard for FieldMask {
    #[inline]
    fn mask_of(&self, field: Field) -> FieldValue {
        FieldMask::mask_of(self, field)
    }

    #[inline]
    fn unwildcard(&mut self, field: Field, bits: FieldValue) {
        FieldMask::unwildcard(self, field, bits);
    }
}

/// Iterator over the set bit indices of a `u64`.
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Where a [`CompiledMask`]'s key words sit among the packed words of keys
/// with one presence bitmap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyPlan {
    /// The presence bitmap this plan is for.
    present: u32,
    /// Key word 0.
    presence: u64,
    /// Bit `j` set ⇔ such keys carry the field of key word `1 + j`.
    carried: u32,
    /// The packed-word rank of key word `1 + j`, where carried.
    ranks: [u8; MINI_WORDS],
}

impl KeyPlan {
    /// A plan for no key: the first [`CompiledMask::key_into`] replaces it.
    /// No key has every bit of `u32` present.
    pub(crate) const NONE: KeyPlan = KeyPlan {
        present: u32::MAX,
        presence: 0,
        carried: 0,
        ranks: [0; MINI_WORDS],
    };
}

/// A [`FieldMask`] compiled to the words of a megaflow subtable's key.
///
/// Key word 0 is the packet's presence bitmap ANDed with [`Self::present`];
/// key word `1 + j` is `words[j]`'s [`MiniKey`] word ANDed with its mask (0
/// when the packet lacks the field). Fields sharing a packed word (`InPort`
/// and `InPhyPort`) share one key word under the union of their masks; an
/// IPv6 address contributes one word per half its mask touches.
#[derive(Debug, Clone)]
pub(crate) struct CompiledMask {
    mask: FieldMask,
    /// Presence bits of the carried fields the mask pins.
    present: u32,
    /// Number of key words after the presence word.
    len: u8,
    words: [(WordRef, u64); MINI_WORDS],
}

impl CompiledMask {
    /// Compiles `mask`: its pinned words in packing order.
    pub(crate) fn new(mask: FieldMask) -> Self {
        let mut per_bit = [0 as FieldValue; MINI_WORDS];
        let mut present = 0u32;
        for (field, bits) in mask.fields() {
            if let Some(bit) = packing_bit(field) {
                present |= 1 << bit;
                per_bit[bit as usize] |= bits;
            }
        }
        let mut words = [(WordRef::default(), 0); MINI_WORDS];
        let mut len = 0;
        for bit in BitIter(u64::from(present)) {
            // Only an IPv6 address has a nonzero high half.
            let halves = [(0, per_bit[bit] as u64), (1, (per_bit[bit] >> 64) as u64)];
            for (half, bits) in halves {
                if bits != 0 {
                    words[len] = (WordRef::new(bit as u32, half), bits);
                    len += 1;
                }
            }
        }
        CompiledMask {
            mask,
            present,
            len: len as u8,
            words,
        }
    }

    /// The mask this was compiled from.
    pub(crate) fn mask(&self) -> &FieldMask {
        &self.mask
    }

    /// Words per key: the presence word plus one per pinned word.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        1 + usize::from(self.len)
    }

    /// Writes `key`'s subtable key into `out[..self.stride()]` and returns
    /// its hash: one `fx_mix` chain over the words, as [`Self::hash`].
    /// `plan` is where the words sit in keys with `key`'s presence bitmap;
    /// it is rebuilt only when that bitmap differs from the last key's, so
    /// a burst of like packets pays the word ranks once per subtable.
    #[inline]
    pub(crate) fn key_into(
        &self,
        key: &MiniKey,
        plan: &mut KeyPlan,
        out: &mut [u64; MAX_KEY_WORDS],
    ) -> u64 {
        if plan.present != key.present() {
            *plan = self.plan(key.present());
        }
        out[0] = plan.presence;
        let mut hash = fx_mix(0, plan.presence);
        let words = self.words[..usize::from(self.len)].iter().zip(plan.ranks);
        for (j, (slot, (&(_, bits), rank))) in out[1..].iter_mut().zip(words).enumerate() {
            *slot = if plan.carried & 1 << j != 0 {
                key.packed(usize::from(rank)) & bits
            } else {
                0
            };
            hash = fx_mix(hash, *slot);
        }
        hash
    }

    /// Where this mask's key words sit in keys whose presence bitmap is
    /// `present`.
    fn plan(&self, present: u32) -> KeyPlan {
        let mut plan = KeyPlan {
            present,
            presence: u64::from(present & self.present),
            ..KeyPlan::NONE
        };
        for (j, &(word, _)) in self.words[..usize::from(self.len)].iter().enumerate() {
            if let Some(rank) = word.rank(present) {
                plan.carried |= 1 << j;
                plan.ranks[j] = rank as u8;
            }
        }
        plan
    }

    /// The hash of a stored key, as [`Self::key_into`] computed it.
    pub(crate) fn hash(key: &[u64]) -> u64 {
        key.iter().fold(0, |hash, &word| fx_mix(hash, word))
    }

    /// Prepares the delta-aware invalidation predicate for a rule matching
    /// `m`, over this subtable's stored keys: [`DisjointTest::proves`]
    /// tells, per key, whether it can *prove* that no packet the megaflow
    /// covers satisfies `m`. An entry it cannot prove disjoint must be
    /// flushed when such a rule is added, modified or removed.
    ///
    /// A megaflow covers exactly the packets whose subtable key equals its
    /// key. For each field the rule matches:
    ///
    /// * if the mask pins the field and covered packets lack it (its
    ///   presence bit is clear in key word 0, or the key never carries the
    ///   field), a match on it always fails, so the entry is disjoint from
    ///   the rule;
    /// * if the mask pins bits the rule also matches and the pinned value
    ///   disagrees with the rule's value on any common bit, no covered packet
    ///   can match the rule;
    /// * otherwise this field proves nothing (covered packets vary on the
    ///   rule's bits) and the next field is consulted.
    ///
    /// The field → key word map is resolved here, once per subtable and
    /// rule, so the test per stored key is a presence mask and a few masked
    /// word compares.
    pub(crate) fn disjoint_test(&self, m: &FlowMatch) -> DisjointTest {
        let mut test = DisjointTest {
            never_carried: false,
            required: 0,
            len: 0,
            checks: [(0, 0, 0); MAX_KEY_WORDS],
        };
        for mf in m.fields() {
            let pinned = self.mask.mask_of(mf.field);
            if pinned == 0 {
                continue; // field fully wildcarded here: proves nothing
            }
            let Some(bit) = packing_bit(mf.field) else {
                test.never_carried = true;
                return test;
            };
            test.required |= 1 << bit;
            let common = pinned & mf.mask;
            for (j, &(word, _)) in self.words[..usize::from(self.len)].iter().enumerate() {
                if word.present_bit() == 1 << bit {
                    let shift = if word.is_high_half() { 64 } else { 0 };
                    let bits = (common >> shift) as u64;
                    if bits != 0 {
                        let want = (mf.value >> shift) as u64 & bits;
                        test.checks[usize::from(test.len)] = (1 + j, bits, want);
                        test.len += 1;
                    }
                }
            }
        }
        test
    }
}

/// [`CompiledMask::disjoint_test`] for one subtable and one rule match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DisjointTest {
    /// The mask pins a field the rule matches and no key carries.
    never_carried: bool,
    /// Presence bits of the carried fields the mask pins and the rule
    /// matches: a key lacking any of them proves disjointness.
    required: u64,
    len: u8,
    /// `(key word, bits, value)`: a key whose word, masked by `bits`, is
    /// not `value` contradicts the rule. At most one per key word, plus one
    /// when the rule matches both `InPort` and `InPhyPort`, which share a
    /// word.
    checks: [(usize, u64, u64); MAX_KEY_WORDS],
}

impl DisjointTest {
    /// True when no packet covered by the megaflow with `key` can satisfy
    /// the rule.
    #[inline]
    pub(crate) fn proves(&self, key: &[u64]) -> bool {
        self.never_carried
            || key[0] & self.required != self.required
            || self.checks[..usize::from(self.len)]
                .iter()
                .any(|&(word, bits, value)| key[word] & bits != value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::FlowKey;
    use pkt::builder::PacketBuilder;

    fn key(port: u16) -> FlowKey {
        FlowKey::extract(&PacketBuilder::tcp().tcp_dst(port).build())
    }

    #[test]
    fn unwildcard_accumulates_bits() {
        let mut m = FieldMask::wildcard_all();
        assert!(m.is_wildcard_all());
        m.unwildcard(Field::TcpDst, 0x00f0);
        m.unwildcard(Field::TcpDst, 0x000f);
        m.unwildcard_exact(Field::IpProto);
        assert_eq!(m.mask_of(Field::TcpDst), 0x00ff);
        assert_eq!(m.mask_of(Field::IpProto), 0xff);
        assert_eq!(m.mask_of(Field::Ipv4Dst), 0);
        assert_eq!(m.field_count(), 2);
        assert_eq!(m.unwildcarded_bits(), 16);
    }

    #[test]
    fn merge_unions_masks() {
        let mut a = FieldMask::wildcard_all();
        a.unwildcard(Field::TcpDst, 0xff00);
        let mut b = FieldMask::wildcard_all();
        b.unwildcard(Field::TcpDst, 0x00ff);
        b.unwildcard_exact(Field::InPort);
        a.merge(&b);
        assert_eq!(a.mask_of(Field::TcpDst), 0xffff);
        assert_eq!(a.mask_of(Field::InPort), Field::InPort.full_mask());
    }

    #[test]
    fn fields_iterates_in_dense_order() {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::TcpDst);
        m.unwildcard_exact(Field::InPort);
        m.unwildcard_exact(Field::Ipv4Dst);
        let fields: Vec<Field> = m.fields().map(|(f, _)| f).collect();
        assert_eq!(fields, vec![Field::InPort, Field::Ipv4Dst, Field::TcpDst]);
    }

    /// The subtable key `m` compiles `key` to.
    fn project(m: &FieldMask, key: &FlowKey) -> Vec<u64> {
        let compiled = CompiledMask::new(m.clone());
        let mut out = [0; MAX_KEY_WORDS];
        compiled.key_into(&MiniKey::from_flow(key), &mut { KeyPlan::NONE }, &mut out);
        out[..compiled.stride()].to_vec()
    }

    #[test]
    fn projection_respects_mask_bits() {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard(Field::TcpDst, 0xfff0); // ignore the low 4 bits
        let a = project(&m, &key(80)); // 0x50
        let b = project(&m, &key(85)); // 0x55 -> same under the mask
        let c = project(&m, &key(96)); // 0x60 -> different
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn key_into_hash_matches_stored_key_hash() {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::TcpDst);
        m.unwildcard(Field::Ipv4Dst, 0xffff_ff00);
        m.unwildcard(Field::Ipv6Src, u128::MAX << 64);
        let compiled = CompiledMask::new(m);
        // Presence, Ipv4Dst, the high half of Ipv6Src, TcpDst.
        assert_eq!(compiled.stride(), 4);
        let mut out = [0; MAX_KEY_WORDS];
        let key = MiniKey::from_flow(&key(443));
        let hash = compiled.key_into(&key, &mut { KeyPlan::NONE }, &mut out);
        assert_eq!(hash, CompiledMask::hash(&out[..compiled.stride()]));
    }

    #[test]
    fn absent_field_distinct_from_zero() {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::UdpDst);
        let tcp_key = project(&m, &key(0)); // TCP packet: udp_dst absent
        let udp_pkt = PacketBuilder::udp().udp_dst(0).build();
        let udp_key = project(&m, &FlowKey::extract(&udp_pkt)); // present, == 0
        assert_ne!(tcp_key, udp_key);
    }

    #[test]
    fn absent_field_distinct_from_all_ones() {
        // An absent IPv6 address and a present ff…ff under a full mask: the
        // presence word parts them.
        let mut m = FieldMask::wildcard_all();
        m.unwildcard_exact(Field::Ipv6Src);
        let v4 = key(80);
        let v6 = FlowKey {
            ipv6_src: Some(u128::MAX),
            ..v4
        };
        assert_ne!(project(&m, &v4), project(&m, &v6));
    }

    #[test]
    fn in_phy_port_reads_in_port_and_unmodelled_fields_add_no_word() {
        let mut m = FieldMask::wildcard_all();
        m.unwildcard(Field::InPort, 0xf0);
        m.unwildcard(Field::InPhyPort, 0x0f);
        m.unwildcard_exact(Field::MplsLabel);
        assert_eq!(CompiledMask::new(m.clone()).stride(), 2);
        let mut k = key(80);
        k.in_port = 0x1ab;
        assert_eq!(project(&m, &k), vec![1, 0xab]);
    }

    #[test]
    fn wildcard_all_projects_to_empty_key() {
        let m = FieldMask::wildcard_all();
        assert_eq!(project(&m, &key(80)), project(&m, &key(12345)));
        assert_eq!(project(&m, &key(80)), vec![0], "only the presence word");
    }
}
