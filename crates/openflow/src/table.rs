//! Flow tables.

use netdev::Counters;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::entry::FlowEntry;
use crate::flow_match::FlowMatch;
use crate::instruction::{written_match_fields, Instruction};
use crate::key::FlowKey;
use crate::pipeline::TableId;
use crate::tuple_index::{unwildcard_entry, TupleIndex, Unwildcard};

/// What to do with a packet that matches no entry in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableMissBehavior {
    /// Drop the packet (OpenFlow 1.3 default).
    #[default]
    Drop,
    /// Send the packet to the controller.
    ToController,
    /// Continue processing at the next table.
    Continue,
}

/// One stage of the OpenFlow pipeline: a priority-ordered list of entries.
///
/// Entries are kept sorted by descending priority (ties broken by insertion
/// order, matching the paper's convention that "flow entries are listed in
/// decreasing order of priority"). [`FlowTable::scan`] is a linear scan in
/// that order — this *is* the direct-datapath strategy, and the reference
/// interpreter's; faster structures are exactly what the OVS caches and the
/// ESWITCH templates provide on top. The OVS slow path classifies through
/// [`FlowTable::lookup_unwildcarding`] instead: a tuple-space index
/// ([`crate::tuple_index`]) built the first time it is asked for and kept in
/// step by every mutator from then on, which picks the entry the scan picks
/// in time proportional to the table's distinct match shapes.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Table identifier within the pipeline.
    pub id: TableId,
    /// Human-readable name (handy in dumps of decomposed pipelines).
    pub name: String,
    /// Miss behaviour.
    pub miss: TableMissBehavior,
    entries: Vec<FlowEntry>,
    /// What the entries do to packets that leave them for another table;
    /// kept in step with `entries` by every mutator below.
    summary: TableSummary,
    /// The slow path's tuple-space index over `entries`; absent until the
    /// slow path first looks the table up, so tables only the interpreter
    /// or a compiler reads never build or maintain one.
    index: OnceLock<TupleIndex>,
    /// Packets looked up in this table (hit or miss).
    pub lookups: Arc<Counters>,
    /// Packets that matched some entry.
    pub matches: Arc<Counters>,
}

/// What a table's entries can do to a packet before another table sees it:
/// the match fields their apply-actions and metadata writes rewrite, and the
/// tables their gotos name. Both are counted per entry, so an insert or a
/// removal costs that entry's instructions and never a rescan of the table;
/// the goto-graph gate ([`Pipeline::fields_written_upstream`]) reads only
/// these summaries.
///
/// [`Pipeline::fields_written_upstream`]: crate::Pipeline::fields_written_upstream
#[derive(Debug, Clone, Default)]
struct TableSummary {
    /// Entries rewriting each field, by [`Field::index`](crate::Field::index).
    writers: BTreeMap<usize, u32>,
    /// Entries naming each goto target.
    gotos: BTreeMap<TableId, u32>,
}

impl TableSummary {
    fn of(entries: &[FlowEntry]) -> Self {
        let mut summary = TableSummary::default();
        for entry in entries {
            summary.count(entry, true);
        }
        summary
    }

    /// Counts `entry` in (`add`) or out of the summary.
    fn count(&mut self, entry: &FlowEntry, add: bool) {
        let mut bits = written_match_fields(&entry.instructions);
        while bits != 0 {
            bump(&mut self.writers, bits.trailing_zeros() as usize, add);
            bits &= bits - 1;
        }
        for target in entry
            .instructions
            .iter()
            .filter_map(Instruction::goto_target)
        {
            bump(&mut self.gotos, target, add);
        }
    }
}

/// Adds one to, or takes one from, `key`'s count; a count that reaches zero
/// leaves the map.
fn bump<K: Ord>(counts: &mut BTreeMap<K, u32>, key: K, add: bool) {
    if add {
        *counts.entry(key).or_insert(0) += 1;
    } else if let std::collections::btree_map::Entry::Occupied(mut slot) = counts.entry(key) {
        *slot.get_mut() -= 1;
        if *slot.get() == 0 {
            slot.remove();
        }
    }
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new(id: TableId) -> Self {
        FlowTable {
            id,
            name: format!("table{id}"),
            miss: TableMissBehavior::default(),
            entries: Vec::new(),
            summary: TableSummary::default(),
            index: OnceLock::new(),
            lookups: Arc::new(Counters::new()),
            matches: Arc::new(Counters::new()),
        }
    }

    /// Creates an empty table with a name.
    pub fn named(id: TableId, name: impl Into<String>) -> Self {
        let mut t = Self::new(id);
        t.name = name.into();
        t
    }

    /// Builder-style miss behaviour setter.
    pub fn with_miss(mut self, miss: TableMissBehavior) -> Self {
        self.miss = miss;
        self
    }

    /// Inserts an entry, keeping the priority order. An entry with an
    /// identical match and priority replaces the old one (OpenFlow add
    /// semantics); the displaced entry is returned so transactional callers
    /// can build an undo log without cloning the table up front.
    pub fn insert(&mut self, entry: FlowEntry) -> Option<FlowEntry> {
        // The run of the new entry's priority is the only place a duplicate
        // can be.
        let run = self.priority_run(entry.priority);
        self.summary.count(&entry, true);
        if let Some(existing) = self.entries[run.clone()]
            .iter_mut()
            .find(|e| e.flow_match == entry.flow_match)
        {
            let old = std::mem::replace(existing, entry);
            self.summary.count(&old, false);
            return Some(old);
        }
        // Insert after the run, preserving insertion order among equal
        // priorities.
        self.entries.insert(run.end, entry);
        if let Some(index) = self.index.get_mut() {
            index.inserted(&self.entries, run.end);
        }
        None
    }

    /// The index range of the entries at `priority`. The entries are sorted
    /// by descending priority, so the run is found by bisection.
    fn priority_run(&self, priority: u16) -> std::ops::Range<usize> {
        let start = self.entries.partition_point(|e| e.priority > priority);
        start..start + self.entries[start..].partition_point(|e| e.priority == priority)
    }

    /// Removes entries matching the (non-strict) OpenFlow delete semantics:
    /// every entry whose match is equal to or more specific than `pattern`,
    /// and whose cookie matches if a cookie filter is given. Returns the
    /// removed entries with the positions they held, ascending.
    pub fn remove_overlapping(
        &mut self,
        pattern: &FlowMatch,
        cookie: Option<u64>,
    ) -> Vec<(usize, FlowEntry)> {
        let mut removed = Vec::new();
        let mut pos = 0;
        self.entries.retain(|e| {
            let cookie_ok = cookie.map(|c| e.cookie == c).unwrap_or(true);
            let doomed = cookie_ok && e.flow_match.is_more_specific_than(pattern);
            if doomed {
                removed.push((pos, e.clone()));
            }
            pos += 1;
            !doomed
        });
        for (_, entry) in &removed {
            self.summary.count(entry, false);
        }
        if let Some(index) = self.index.get_mut() {
            // Back to front, so each position is still the entry's own.
            for (pos, entry) in removed.iter().rev() {
                index.removed(*pos, entry);
            }
        }
        removed
    }

    /// Removes the entry with exactly this match and priority (strict delete),
    /// returning it and the position it held, if present.
    pub fn remove_strict(
        &mut self,
        pattern: &FlowMatch,
        priority: u16,
    ) -> Option<(usize, FlowEntry)> {
        let run = self.priority_run(priority);
        let pos = run.start
            + self.entries[run]
                .iter()
                .position(|e| e.flow_match == *pattern)?;
        let removed = self.entries.remove(pos);
        self.summary.count(&removed, false);
        if let Some(index) = self.index.get_mut() {
            index.removed(pos, &removed);
        }
        Some((pos, removed))
    }

    /// Puts removed entries back at the positions they held, given
    /// ascending: a rolled-back delete leaves the order among equal
    /// priorities as it was, which re-inserting (at the end of the priority
    /// run) would not. Only rollback calls this, and it rebuilds the index,
    /// whose ranks follow insertion order.
    pub(crate) fn restore(&mut self, removed: Vec<(usize, FlowEntry)>) {
        for (pos, entry) in removed {
            self.summary.count(&entry, true);
            self.entries.insert(pos, entry);
        }
        if let Some(index) = self.index.get_mut() {
            *index = TupleIndex::build(&self.entries);
        }
    }

    /// The entries, in match order (descending priority).
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces all entries at once (used by pipeline builders and by the
    /// decomposition pass).
    pub fn set_entries(&mut self, mut entries: Vec<FlowEntry>) {
        entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
        self.summary = TableSummary::of(&entries);
        if let Some(index) = self.index.get_mut() {
            *index = TupleIndex::build(&entries);
        }
        self.entries = entries;
    }

    /// Bitmask (by [`Field::index`](crate::Field::index)) of the match
    /// fields some entry's apply-actions or metadata write can rewrite
    /// before a later table looks the packet up
    /// ([`written_match_fields`]).
    pub(crate) fn written_fields(&self) -> u64 {
        self.summary.writers.keys().fold(0, |bits, i| bits | 1 << i)
    }

    /// Every table some entry's goto names, ascending, each once.
    pub(crate) fn goto_targets(&self) -> impl Iterator<Item = TableId> + '_ {
        self.summary.gotos.keys().copied()
    }

    /// The linear scan: the first entry in match order that `key` matches,
    /// and how many entries were examined to find it — the work metric the
    /// direct datapath pays and the caching and compiled datapaths avoid.
    /// Each examined entry un-wildcards into `mask` what its comparison
    /// consulted ([`unwildcard_entry`]); the interpreter passes `&mut ()`,
    /// which records nothing. Records no statistics; the walk does.
    pub fn scan(&self, key: &FlowKey, mask: &mut impl Unwildcard) -> (Option<&FlowEntry>, usize) {
        for (i, entry) in self.entries.iter().enumerate() {
            let hit = entry.flow_match.matches(key);
            unwildcard_entry(mask, entry, key, hit);
            if hit {
                return (Some(entry), i + 1);
            }
        }
        (None, self.entries.len())
    }

    /// Answers exactly what [`FlowTable::scan`] answers — the entry, the
    /// count, and the bits un-wildcarded into `mask` — through the table's
    /// tuple-space index: the OVS slow path's per-table step. Builds the
    /// index on first use. Records no statistics; the walk does.
    pub fn lookup_unwildcarding(
        &self,
        key: &FlowKey,
        mask: &mut impl Unwildcard,
    ) -> (Option<&FlowEntry>, usize) {
        self.index
            .get_or_init(|| TupleIndex::build(&self.entries))
            .lookup(&self.entries, key, mask)
    }

    /// Checks the tuple-space index, if one was built, against a fresh build
    /// from the entries ([`FlowTable::lookup_unwildcarding`]'s derived state
    /// audit).
    pub fn audit_index(&self) -> Result<(), String> {
        self.index
            .get()
            .map_or(Ok(()), |index| index.audit(&self.entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::field::Field;
    use crate::instruction::terminal_actions;
    use pkt::builder::PacketBuilder;

    fn entry(priority: u16, port: u16, out: u32) -> FlowEntry {
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(port)),
            priority,
            terminal_actions(vec![Action::Output(out)]),
        )
    }

    fn key_for_port(port: u16) -> FlowKey {
        FlowKey::extract(&PacketBuilder::tcp().tcp_dst(port).build())
    }

    #[test]
    fn priority_ordering_and_lookup() {
        let mut t = FlowTable::new(0);
        t.insert(entry(10, 80, 1));
        t.insert(entry(100, 80, 2)); // higher priority inserted later
        t.insert(entry(50, 443, 3));
        assert_eq!(t.len(), 3);
        // Entries sorted by descending priority.
        let prios: Vec<u16> = t.entries().iter().map(|e| e.priority).collect();
        assert_eq!(prios, vec![100, 50, 10]);
        let hit = t.scan(&key_for_port(80), &mut ()).0.unwrap();
        assert_eq!(hit.priority, 100);
        assert!(t.scan(&key_for_port(22), &mut ()).0.is_none());
    }

    #[test]
    fn equal_priority_keeps_insertion_order() {
        let mut t = FlowTable::new(0);
        t.insert(entry(10, 80, 1));
        t.insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            terminal_actions(vec![Action::Output(9)]),
        ));
        // The port-80 entry was inserted first, so it still wins for port 80.
        assert_eq!(
            t.scan(&key_for_port(80), &mut ()).0.unwrap().instructions,
            terminal_actions(vec![Action::Output(1)])
        );
        // The catch-all handles everything else.
        assert!(t.scan(&key_for_port(22), &mut ()).0.is_some());
    }

    #[test]
    fn insert_replaces_identical_match_and_priority() {
        let mut t = FlowTable::new(0);
        t.insert(entry(10, 80, 1));
        t.insert(entry(10, 80, 7));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.scan(&key_for_port(80), &mut ()).0.unwrap().instructions,
            terminal_actions(vec![Action::Output(7)])
        );
    }

    #[test]
    fn strict_and_overlapping_removal() {
        let mut t = FlowTable::new(0);
        t.insert(entry(10, 80, 1));
        t.insert(entry(20, 443, 2));
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        assert!(t
            .remove_strict(&FlowMatch::any().with_exact(Field::TcpDst, 80), 99)
            .is_none());
        let (_, removed) = t
            .remove_strict(&FlowMatch::any().with_exact(Field::TcpDst, 80), 10)
            .unwrap();
        assert_eq!(removed.priority, 10);
        assert_eq!(t.len(), 2);

        // Non-strict delete with an empty pattern clears everything.
        assert_eq!(t.remove_overlapping(&FlowMatch::any(), None).len(), 2);
        assert!(t.is_empty());

        // The strict delete bisects to its priority run: on a table of
        // repeated priorities it removes what a scan of the whole table
        // would, present or absent, and leaves the same order behind.
        let mut t = FlowTable::new(0);
        for i in 0..60u16 {
            t.insert(entry(10 * (i % 4), 1000 + i % 15, u32::from(i)));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 10, vec![]));
        for priority in [0u16, 5, 10, 20, 30, 40] {
            for port in [None, Some(999u16), Some(1000), Some(1003), Some(1014)] {
                let pattern = port.map_or(FlowMatch::any(), |p| {
                    FlowMatch::any().with_exact(Field::TcpDst, u128::from(p))
                });
                let mut scanned = t.entries.clone();
                let want = scanned
                    .iter()
                    .position(|e| e.priority == priority && e.flow_match == pattern)
                    .map(|pos| scanned.remove(pos));
                let got = t.remove_strict(&pattern, priority);
                assert_eq!(
                    got.map(|(_, e)| (e.priority, e.instructions)),
                    want.map(|e| (e.priority, e.instructions)),
                    "priority {priority} port {port:?}"
                );
                let order = |entries: &[FlowEntry]| {
                    entries
                        .iter()
                        .map(|e| (e.priority, e.flow_match.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(order(&t.entries), order(&scanned));
            }
        }
    }

    #[test]
    fn cookie_filtered_removal() {
        let mut t = FlowTable::new(0);
        t.insert(entry(10, 80, 1).with_cookie(0xaa));
        t.insert(entry(10, 443, 2).with_cookie(0xbb));
        assert_eq!(t.remove_overlapping(&FlowMatch::any(), Some(0xaa)).len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].cookie, 0xbb);
    }

    #[test]
    fn summary_tracks_every_mutation() {
        use crate::instruction::actions_then_goto;
        // The summary must always equal a recount of the entries.
        fn check(t: &FlowTable) {
            let written = t
                .entries()
                .iter()
                .fold(0, |b, e| b | written_match_fields(&e.instructions));
            let mut gotos: Vec<TableId> = t
                .entries()
                .iter()
                .flat_map(|e| e.instructions.iter().filter_map(Instruction::goto_target))
                .collect();
            gotos.sort_unstable();
            gotos.dedup();
            assert_eq!(t.written_fields(), written);
            assert_eq!(t.goto_targets().collect::<Vec<_>>(), gotos);
        }
        let rewrite = |port: u16, field: Field, to: TableId| {
            FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, u128::from(port)),
                10,
                actions_then_goto(vec![Action::SetField(field, 1)], to),
            )
        };
        let mut t = FlowTable::new(0);
        t.insert(rewrite(80, Field::Ipv4Src, 3));
        t.insert(rewrite(81, Field::Ipv4Src, 5));
        t.insert(rewrite(82, Field::Ipv4Dst, 3));
        check(&t);
        // Replacing an entry counts the new one in and the old one out.
        t.insert(rewrite(82, Field::TcpSrc, 4));
        check(&t);
        assert_eq!(t.goto_targets().collect::<Vec<_>>(), [3, 4, 5]);
        t.remove_strict(&FlowMatch::any().with_exact(Field::TcpDst, 80), 10);
        check(&t);
        t.remove_overlapping(&FlowMatch::any().with_exact(Field::TcpDst, 81), None);
        check(&t);
        assert_eq!(t.written_fields(), 1 << Field::TcpSrc.index());
        t.set_entries(vec![rewrite(90, Field::EthDst, 7), entry(5, 22, 1)]);
        check(&t);
        t.remove_overlapping(&FlowMatch::any(), None);
        check(&t);
        assert_eq!(t.written_fields(), 0);
        assert_eq!(t.goto_targets().count(), 0);
    }

    #[test]
    fn scan_reports_examined_entries() {
        let mut t = FlowTable::new(0);
        for (i, port) in [1000u16, 1001, 1002, 80].iter().enumerate() {
            t.insert(entry(100 - i as u16, *port, 1));
        }
        let (hit, examined) = t.scan(&key_for_port(80), &mut ());
        assert!(hit.is_some());
        assert_eq!(examined, 4);
        let (miss, examined) = t.scan(&key_for_port(9999), &mut ());
        assert!(miss.is_none());
        assert_eq!(examined, 4);
    }
}
