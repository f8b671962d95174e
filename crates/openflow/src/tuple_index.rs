//! Tuple-space search over one flow table: the OVS slow path's classifier.
//!
//! OVS's `ofproto` classifier (Srinivasan et al., "Packet Classification
//! using Tuple Space Search", SIGCOMM '99; Pfaff et al., NSDI '15 §5–6)
//! keeps one hash table per distinct *shape* — the list of (field, mask)
//! pairs an entry matches on — and probes the shapes in order of their best
//! entry, stopping once no remaining shape holds an entry that could beat
//! the match found so far. [`TupleIndex`] is that classifier for one
//! [`FlowTable`](crate::FlowTable), with one contract beyond picking the
//! right entry: it reports exactly what the table's front-to-back scan would
//! have reported, so megaflow contents do not depend on which of the two
//! ran. That is, [`TupleIndex::lookup`] returns
//! - the entry the scan picks, and the scan's position plus one as the
//!   number of entries examined;
//! - through an [`Unwildcard`] sink, the union of what the scan's
//!   comparisons consulted ([`unwildcard_entry`] for each entry it
//!   examined).
//!
//! The union comes from per-shape data. Every examined entry of a shape
//! pins the shape's masks on untracked fields, and its full mask on a
//! tracked field the packet lacks. On a tracked field the packet carries, an
//! entry that differs from the packet pins the bits down to the first
//! difference ([`prefix_to_first_difference`]), so the shape pins the
//! deepest such difference among its examined entries. Read as integers, the
//! stored value sharing the longest leading run of bits with the packet's is
//! one of the packet value's two sorted neighbours, so each tracked field
//! keeps its values in order and a lookup reads the neighbours just below
//! and above. When a shape's entries straddle the winner's rank, the walk
//! skips the values only entries at or below the winner hold. The one case
//! the order cannot place is an *irregular* entry: a stored value with bits
//! outside its mask, which never matches, or a match with more pairs than
//! there are fields. Those are compared one by one, as the scan compares
//! them.
//!
//! This file is the per-lookup half and is in `cargo xtask lint`'s
//! fast-path set (no allocation); building and maintaining the index under
//! flow-mods allocate and live in `build`.

use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

use crate::entry::FlowEntry;
use crate::field::{Field, FieldValue};
use crate::key::FlowKey;

mod build;
#[cfg(test)]
mod reference_tests;

/// Where a lookup records the bits its decision consulted: the megaflow
/// mask under construction.
pub trait Unwildcard {
    /// Bits of `field` already un-wildcarded.
    fn mask_of(&self, field: Field) -> FieldValue;
    /// Un-wildcards `bits` of `field` (ORs them in).
    fn unwildcard(&mut self, field: Field, bits: FieldValue);
}

/// An entry's place in the table's scan order: descending priority in the
/// top 16 bits (inverted, so a smaller rank scans earlier), then an
/// insertion sequence number, so equal priorities keep insertion order.
type Rank = u64;

/// Sequence numbers stay below this, so no rank equals `Rank::MAX` and
/// `Rank::MAX` can stand for "after every entry".
const SEQ_LIMIT: u64 = (1 << 48) - 1;

/// The tuple-space index of one flow table. Derived state: built from the
/// table's entries the first time the slow path looks the table up, then
/// kept in step by the table's mutators.
#[derive(Debug, Clone, Default)]
pub(crate) struct TupleIndex {
    /// Rank of each entry, aligned with the table's entries (so ascending).
    ranks: Vec<Rank>,
    /// The next insertion's sequence number.
    next_seq: u64,
    /// Shape slots; retired ones are empty and listed in `free`.
    shapes: Vec<Shape>,
    free: Vec<usize>,
    /// Live shape by signature.
    by_signature: HashMap<Box<[(Field, FieldValue)]>, usize>,
    /// Live shapes by best rank, ascending: the probe order.
    order: Vec<usize>,
}

/// All entries matching on one list of (field, mask) pairs.
#[derive(Debug, Clone, Default)]
struct Shape {
    /// The (field, mask) pairs, in the entries' match order.
    fields: Box<[(Field, FieldValue)]>,
    /// Best and worst member rank.
    best: Rank,
    worst: Rank,
    /// Every member's rank.
    members: BTreeSet<Rank>,
    /// Regular members by their values on `fields`; ranks ascending.
    buckets: HashMap<Box<[FieldValue]>, Vec<Rank>>,
    /// Pairs a lookup pins whole: untracked fields, and tracked ones with
    /// an empty mask.
    pins: Box<[(Field, FieldValue)]>,
    /// Tracked pairs with a nonempty mask.
    tracked: Box<[Tracked]>,
    /// Irregular members, ascending: compared one by one.
    irregular: Vec<Rank>,
}

/// One tracked (field, mask) pair of a shape, with its members' values.
#[derive(Debug, Clone)]
struct Tracked {
    /// The pair's position in the shape's `fields`.
    slot: usize,
    field: Field,
    mask: FieldValue,
    /// The most a mismatch on this pair can pin: down to the mask's lowest
    /// bit. A sink already holding it needs nothing from the pair.
    cap: FieldValue,
    /// Regular members' [`ValueRank`]s: value order, then rank.
    values: BTreeSet<ValueRank>,
}

/// A member's value on a tracked pair in the top 64 bits and its rank in the
/// bottom 64, so one integer orders by value and then rank. Every tracked
/// field is at most 32 bits wide, and a regular member's value lies within
/// the field.
type ValueRank = u128;

const _: () = assert!(
    Field::Ipv4Src.width_bits() <= 64
        && Field::Ipv4Dst.width_bits() <= 64
        && Field::TcpSrc.width_bits() <= 64
        && Field::TcpDst.width_bits() <= 64
        && Field::UdpSrc.width_bits() <= 64
        && Field::UdpDst.width_bits() <= 64
);

/// The [`ValueRank`] of `rank`'s value `value`.
fn value_rank(value: FieldValue, rank: Rank) -> ValueRank {
    value << 64 | FieldValue::from(rank)
}

/// Fields that get bit-level prefix tracking: a failed comparison pins only
/// the bits down to the first difference — the effect of OVS's address and
/// port tries — which keeps megaflows broader when a packet merely has to be
/// proven different from a higher-priority rule.
pub fn is_tracked_field(field: Field) -> bool {
    matches!(
        field,
        Field::Ipv4Src
            | Field::Ipv4Dst
            | Field::TcpSrc
            | Field::TcpDst
            | Field::UdpSrc
            | Field::UdpDst
    )
}

/// Un-wildcards everything the comparison of `key` against `entry`
/// consulted, as a front-to-back scan that examined the entry records it.
///
/// A match (`hit`) pins every bit the rule matched on; anything less would
/// let the megaflow cover packets that should have matched a different rule.
/// Untracked fields are pinned across the rule's mask either way. A tracked
/// field that compared unequal pins the bits down to the first difference;
/// one the packet lacks pins the rule's mask, because the presence decision
/// hinges on protocol fields the caller's rules also match.
pub fn unwildcard_entry(mask: &mut impl Unwildcard, entry: &FlowEntry, key: &FlowKey, hit: bool) {
    for mf in entry.flow_match.fields() {
        let field = mf.field;
        if hit || !is_tracked_field(field) {
            mask.unwildcard(field, mf.mask);
            continue;
        }
        match key.get(field) {
            None => mask.unwildcard(field, mf.mask),
            Some(value) => {
                if (value & mf.mask) != mf.value {
                    mask.unwildcard(
                        field,
                        prefix_to_first_difference(value, mf.value, mf.mask, field.width_bits()),
                    );
                }
                // A field that compared equal while the entry failed on
                // another pins nothing here.
            }
        }
    }
}

/// Mask of the top `bits` bits of a `width`-bit field.
pub fn top_bits_mask(bits: u32, width: u32) -> FieldValue {
    if bits == 0 {
        0
    } else if bits >= width {
        if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    } else {
        (((1u128 << bits) - 1) << (width - bits)) & ((1u128 << width) - 1)
    }
}

/// Bits (from the MSB down to and including the first differing bit) needed
/// to prove that `value` does not equal `rule_value` under `rule_mask`.
pub fn prefix_to_first_difference(
    value: FieldValue,
    rule_value: FieldValue,
    rule_mask: FieldValue,
    width: u32,
) -> FieldValue {
    let diff = (value ^ rule_value) & rule_mask;
    if diff == 0 {
        return rule_mask;
    }
    // Position of the highest differing bit, counted from the field MSB.
    let highest = 127 - diff.leading_zeros(); // bit index within u128
    let from_msb = width - 1 - highest.min(width - 1);
    top_bits_mask(from_msb + 1, width)
}

impl TupleIndex {
    /// Classifies `key` against `entries` — the table this index was built
    /// from and kept in step with — and un-wildcards into `mask` what a
    /// front-to-back scan of the table would have consulted. Returns the
    /// entry the scan picks and how many entries it examined.
    pub(crate) fn lookup<'e>(
        &self,
        entries: &'e [FlowEntry],
        key: &FlowKey,
        mask: &mut impl Unwildcard,
    ) -> (Option<&'e FlowEntry>, usize) {
        // Probe shapes best first; a shape whose best entry ranks below the
        // winner so far holds nothing that could beat it.
        let mut values = [0 as FieldValue; Field::COUNT];
        let mut winner: Option<(Rank, usize)> = None;
        let mut visited = 0;
        for &id in &self.order {
            let shape = &self.shapes[id];
            if winner.is_some_and(|(w, _)| shape.best > w) {
                break;
            }
            visited += 1;
            let limit = winner.map_or(Rank::MAX, |(w, _)| w);
            if let Some(rank) = shape.probe(key, &mut values, limit, entries, &self.ranks) {
                winner = Some((rank, id));
            }
        }

        // Every shape probed holds an examined entry: its best ranks at or
        // above the winner.
        let w = winner.map_or(Rank::MAX, |(w, _)| w);
        for &id in &self.order[..visited] {
            let holds_winner = winner.is_some_and(|(_, at)| at == id);
            self.shapes[id].unwildcard(key, w, holds_winner, entries, &self.ranks, mask);
        }
        match winner {
            Some((rank, _)) => {
                let pos = self.position(rank);
                (Some(&entries[pos]), pos + 1)
            }
            None => (None, entries.len()),
        }
    }

    /// The table position of the entry ranked `rank`.
    fn position(&self, rank: Rank) -> usize {
        self.ranks
            .binary_search(&rank)
            .expect("a member's rank is in the table")
    }
}

impl Shape {
    /// The best member ranked above `limit` that `key` matches.
    fn probe(
        &self,
        key: &FlowKey,
        values: &mut [FieldValue; Field::COUNT],
        limit: Rank,
        entries: &[FlowEntry],
        ranks: &[Rank],
    ) -> Option<Rank> {
        let mut best = None;
        if !self.buckets.is_empty() {
            let mut carried = true;
            for (slot, &(field, m)) in self.fields.iter().enumerate() {
                match key.get(field) {
                    Some(v) => values[slot] = v & m,
                    None => {
                        carried = false;
                        break;
                    }
                }
            }
            if carried {
                best = self
                    .buckets
                    .get(&values[..self.fields.len()])
                    .map(|bucket| bucket[0])
                    .filter(|&rank| rank < limit);
            }
        }
        let limit = best.unwrap_or(limit);
        for &rank in self.irregular.iter().take_while(|&&rank| rank < limit) {
            let at = ranks
                .binary_search(&rank)
                .expect("a member's rank is in the table");
            if entries[at].flow_match.matches(key) {
                return Some(rank);
            }
        }
        best
    }

    /// Un-wildcards what the scan's comparisons against this shape's
    /// members ranked above `w` consulted, plus the winner's full mask when
    /// the shape holds it.
    fn unwildcard(
        &self,
        key: &FlowKey,
        w: Rank,
        holds_winner: bool,
        entries: &[FlowEntry],
        ranks: &[Rank],
        mask: &mut impl Unwildcard,
    ) {
        if holds_winner {
            for &(field, m) in self.fields.iter() {
                mask.unwildcard(field, m);
            }
        } else {
            for &(field, m) in self.pins.iter() {
                mask.unwildcard(field, m);
            }
        }
        // Only a shape straddling the winner filters its values by rank.
        let limit = if self.worst > w { w } else { Rank::MAX };
        for t in self.tracked.iter() {
            let Some(value) = key.get(t.field) else {
                mask.unwildcard(t.field, t.mask);
                continue;
            };
            if mask.mask_of(t.field) & t.cap == t.cap {
                continue;
            }
            if let Some(bits) = t.deepest_difference(value & t.mask, limit) {
                mask.unwildcard(t.field, bits);
            }
        }
        for &rank in self.irregular.iter().take_while(|&&rank| rank < w) {
            let at = ranks
                .binary_search(&rank)
                .expect("a member's rank is in the table");
            unwildcard_entry(mask, &entries[at], key, false);
        }
    }
}

impl Tracked {
    /// The bits a scan pins proving `value` (already masked) different from
    /// every member value ranked above `limit` that differs from it: the
    /// difference with the nearest such value below or above in value order.
    fn deepest_difference(&self, value: FieldValue, limit: Rank) -> Option<FieldValue> {
        let ranked = |&&packed: &&ValueRank| (packed as Rank) < limit;
        let below = self
            .values
            .range(..value_rank(value, 0))
            .rev()
            .find(ranked)
            .map(|&packed| packed >> 64);
        let above = self
            .values
            .range((
                Bound::Excluded(value_rank(value, Rank::MAX)),
                Bound::Unbounded,
            ))
            .find(ranked)
            .map(|&packed| packed >> 64);
        let nearest = match (below, above) {
            (Some(b), Some(a)) => {
                if value ^ b <= value ^ a {
                    b
                } else {
                    a
                }
            }
            (Some(v), None) | (None, Some(v)) => v,
            (None, None) => return None,
        };
        Some(prefix_to_first_difference(
            value,
            nearest,
            self.mask,
            self.field.width_bits(),
        ))
    }
}
