//! Building the tuple-space index and keeping it in step with its table.
//! Every operation here costs one entry's fields plus a reorder of the probe
//! list; none rescans the table.

use std::collections::BTreeSet;

use super::{is_tracked_field, value_rank, Rank, Shape, Tracked, TupleIndex, SEQ_LIMIT};
use crate::entry::FlowEntry;
use crate::field::{Field, FieldValue};
use crate::flow_match::FlowMatch;

/// The (field, mask) pairs of a match: its shape's signature.
fn signature(flow_match: &FlowMatch) -> Vec<(Field, FieldValue)> {
    flow_match
        .fields()
        .iter()
        .map(|mf| (mf.field, mf.mask))
        .collect()
}

/// The values a match stores, in its pairs' order: its key in its shape's
/// hash table.
fn values(flow_match: &FlowMatch) -> Box<[FieldValue]> {
    flow_match.fields().iter().map(|mf| mf.value).collect()
}

/// True when `flow_match` can live in its shape's hash table and value
/// order: no stored bit outside its mask, no mask bit outside its field, and
/// no more pairs than a lookup's buffer holds.
fn is_regular(flow_match: &FlowMatch) -> bool {
    flow_match.len() <= Field::COUNT
        && flow_match
            .fields()
            .iter()
            .all(|mf| mf.value & !mf.mask == 0 && mf.mask & !mf.field.full_mask() == 0)
}

impl TupleIndex {
    /// Builds the index of a table holding `entries`, in match order.
    pub(crate) fn build(entries: &[FlowEntry]) -> Self {
        let mut index = TupleIndex::default();
        for entry in entries {
            let rank = index.fresh_rank(entry.priority);
            index.ranks.push(rank);
            index.add(entry, rank);
        }
        index
    }

    /// Follows the insertion of `entries[pos]`, a new entry (not one that
    /// replaced an identical match and priority in place, which leaves the
    /// index as it was).
    pub(crate) fn inserted(&mut self, entries: &[FlowEntry], pos: usize) {
        if self.next_seq == SEQ_LIMIT {
            // Out of sequence numbers: renumber from scratch.
            *self = TupleIndex::build(entries);
            return;
        }
        let entry = &entries[pos];
        let rank = self.fresh_rank(entry.priority);
        self.ranks.insert(pos, rank);
        self.add(entry, rank);
    }

    /// Follows the removal of `entry` from table position `pos`.
    pub(crate) fn removed(&mut self, pos: usize, entry: &FlowEntry) {
        let rank = self.ranks.remove(pos);
        let id = self.by_signature[signature(&entry.flow_match).as_slice()];
        let shape = &mut self.shapes[id];
        let old_best = shape.best;
        shape.members.remove(&rank);
        if is_regular(&entry.flow_match) {
            let values = values(&entry.flow_match);
            let bucket = shape
                .buckets
                .get_mut(&values)
                .expect("a regular member has a bucket");
            bucket.retain(|&r| r != rank);
            if bucket.is_empty() {
                shape.buckets.remove(&values);
            }
            for t in shape.tracked.iter_mut() {
                t.values
                    .remove(&value_rank(entry.flow_match.fields()[t.slot].value, rank));
            }
        } else {
            shape.irregular.retain(|&r| r != rank);
        }
        match (shape.members.first(), shape.members.last()) {
            (Some(&best), Some(&worst)) => {
                shape.best = best;
                shape.worst = worst;
                if best != old_best {
                    self.reorder(id);
                }
            }
            _ => {
                // The last member left: retire the shape.
                let shape = std::mem::take(&mut self.shapes[id]);
                self.by_signature.remove(&shape.fields);
                self.order.retain(|&at| at != id);
                self.free.push(id);
            }
        }
    }

    /// The next rank at `priority`: after every entry of that priority.
    fn fresh_rank(&mut self, priority: u16) -> Rank {
        let seq = self.next_seq;
        self.next_seq += 1;
        (u64::from(u16::MAX - priority) << 48) | seq
    }

    /// Adds `entry`, ranked `rank`, to its shape.
    fn add(&mut self, entry: &FlowEntry, rank: Rank) {
        let fields = signature(&entry.flow_match);
        let id = match self.by_signature.get(fields.as_slice()) {
            Some(&id) => id,
            None => self.open_shape(fields.into_boxed_slice()),
        };
        let shape = &mut self.shapes[id];
        let new_best = shape.members.first().is_none_or(|&best| rank < best);
        shape.members.insert(rank);
        if is_regular(&entry.flow_match) {
            let bucket = shape.buckets.entry(values(&entry.flow_match)).or_default();
            let at = bucket.partition_point(|&r| r < rank);
            bucket.insert(at, rank);
            for t in shape.tracked.iter_mut() {
                t.values
                    .insert(value_rank(entry.flow_match.fields()[t.slot].value, rank));
            }
        } else {
            let at = shape.irregular.partition_point(|&r| r < rank);
            shape.irregular.insert(at, rank);
        }
        shape.best = *shape.members.first().expect("just inserted");
        shape.worst = *shape.members.last().expect("just inserted");
        if new_best {
            self.reorder(id);
        }
    }

    /// Opens an empty shape for `fields` in a free slot and returns its id.
    /// It joins the probe order when its first member arrives.
    fn open_shape(&mut self, fields: Box<[(Field, FieldValue)]>) -> usize {
        let mut pins = Vec::new();
        let mut tracked = Vec::new();
        for (slot, &(field, mask)) in fields.iter().enumerate() {
            if is_tracked_field(field) && mask != 0 {
                let width = field.width_bits();
                let lowest = mask.trailing_zeros().min(width - 1);
                tracked.push(Tracked {
                    slot,
                    field,
                    mask,
                    cap: super::top_bits_mask(width - lowest, width),
                    values: BTreeSet::new(),
                });
            } else {
                pins.push((field, mask));
            }
        }
        let shape = Shape {
            fields: fields.clone(),
            pins: pins.into_boxed_slice(),
            tracked: tracked.into_boxed_slice(),
            ..Shape::default()
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.shapes[id] = shape;
                id
            }
            None => {
                self.shapes.push(shape);
                self.shapes.len() - 1
            }
        };
        self.by_signature.insert(fields, id);
        id
    }

    /// Moves shape `id` to its place in the probe order after its best rank
    /// changed (or it just got its first member).
    fn reorder(&mut self, id: usize) {
        self.order.retain(|&at| at != id);
        let best = self.shapes[id].best;
        let at = self
            .order
            .partition_point(|&other| self.shapes[other].best < best);
        self.order.insert(at, id);
    }

    /// Checks the index against a fresh build from `entries`: the same
    /// shapes in the same probe order, each with the same members, buckets,
    /// value orders and irregular list, with ranks compared as table
    /// positions; and the ranks themselves ascending, one per entry, each
    /// carrying its entry's priority.
    pub(crate) fn audit(&self, entries: &[FlowEntry]) -> Result<(), String> {
        if self.ranks.len() != entries.len() {
            return Err(format!(
                "{} ranks for {} entries",
                self.ranks.len(),
                entries.len()
            ));
        }
        if let Some(pos) = self.ranks.windows(2).position(|w| w[0] >= w[1]) {
            return Err(format!("ranks out of order at position {pos}"));
        }
        if let Some(pos) = (0..entries.len())
            .find(|&pos| self.ranks[pos] >> 48 != u64::from(u16::MAX - entries[pos].priority))
        {
            return Err(format!("rank at position {pos} has the wrong priority"));
        }
        let live: BTreeSet<usize> = self.order.iter().copied().collect();
        if live.len() != self.order.len() || self.by_signature.len() != live.len() {
            return Err("probe order and signature map disagree".into());
        }
        if let Some(id) = (0..self.shapes.len())
            .find(|id| !live.contains(id) && !self.shapes[*id].members.is_empty())
        {
            return Err(format!("retired shape {id} still has members"));
        }
        let fresh = TupleIndex::build(entries);
        let (mine, theirs) = (self.describe(), fresh.describe());
        if mine != theirs {
            return Err(format!(
                "maintained index differs from a fresh build:\n{mine:#?}\nvs\n{theirs:#?}"
            ));
        }
        Ok(())
    }

    /// A rank-free description of the live shapes in probe order.
    fn describe(&self) -> Vec<ShapeView> {
        let at = |rank: &Rank| self.ranks.binary_search(rank).ok();
        self.order
            .iter()
            .map(|&id| {
                let shape = &self.shapes[id];
                let mut buckets: Vec<_> = shape
                    .buckets
                    .iter()
                    .map(|(values, ranks)| (values.to_vec(), ranks.iter().map(at).collect()))
                    .collect();
                buckets.sort();
                ShapeView {
                    signature: shape.fields.to_vec(),
                    found: self.by_signature.get(&shape.fields) == Some(&id),
                    best: at(&shape.best),
                    worst: at(&shape.worst),
                    members: shape.members.iter().map(at).collect(),
                    buckets,
                    pins: shape.pins.to_vec(),
                    tracked: shape
                        .tracked
                        .iter()
                        .map(|t| {
                            let values = t
                                .values
                                .iter()
                                .map(|&packed| (packed >> 64, at(&(packed as Rank))))
                                .collect();
                            (t.field, t.mask, t.cap, values)
                        })
                        .collect(),
                    irregular: shape.irregular.iter().map(at).collect(),
                }
            })
            .collect()
    }
}

/// One shape as [`TupleIndex::audit`] compares it.
#[derive(Debug, PartialEq)]
struct ShapeView {
    signature: Vec<(Field, FieldValue)>,
    found: bool,
    best: Option<usize>,
    worst: Option<usize>,
    members: Vec<Option<usize>>,
    buckets: Vec<(Vec<FieldValue>, Vec<Option<usize>>)>,
    pins: Vec<(Field, FieldValue)>,
    #[allow(clippy::type_complexity)]
    tracked: Vec<(
        Field,
        FieldValue,
        FieldValue,
        Vec<(FieldValue, Option<usize>)>,
    )>,
    irregular: Vec<Option<usize>>,
}
