//! The shared §3.4 update planner.
//!
//! The paper makes rule updates cheap via a three-tier ladder: an in-place
//! incremental template edit when the flow-mod fits the compiled template's
//! shape, a side-by-side per-table rebuild swapped through the table's
//! trampoline when only existing tables changed, and a full recompilation
//! only when the pipeline's structure changed. The [`UpdatePlanner`] decides
//! the tier, lands an incremental edit itself and hands back what a higher
//! tier needs ([`Absorbed`]);
//! [`EswitchRuntime`](crate::runtime::EswitchRuntime) is its one executor —
//! the sharded control plane applies ESWITCH flow-mods through a runtime
//! too. Every tier below the full recompile lands *in place* (trampoline
//! semantics: packets see the change at their next lookup of the touched
//! table), so a published datapath stays the same allocation until a
//! structural change replaces it.
//!
//! Planning is conservative: an edit is only planned when it is known to
//! apply (shape checked, existence checked for deletes, parser depth checked
//! for adds).
//! A table the compiler decomposed into a chain (§3.2) takes neither tier
//! below the full one, and neither does a rebuild whose best layout would be
//! a chain: a full recompilation lays out chains exactly as compiling the
//! pipeline from scratch would, so the compiled datapath never depends on
//! the update history.

use std::sync::Arc;

use netdev::sync::atomic::{AtomicU64, Ordering};

use openflow::flow_mod::{FlowModCommand, FlowModEffect};
use openflow::pipeline::TableId;
use openflow::{Field, FieldValue, FlowMod, Pipeline};

use crate::compile::{
    compile_instructions, compile_table, instruction_fields, layout, CompiledDatapath, Layout,
    SlotIndex,
};
use crate::templates::action::ActionStore;
use crate::templates::parser::ParserTemplate;
use crate::templates::table::{CompiledInstrs, CompiledTable};

/// Which tier of the §3.4 ladder absorbed an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateClass {
    /// In-place incremental template edit (hash insert/remove, LPM
    /// insert/remove).
    Incremental,
    /// Side-by-side rebuild of the touched tables only.
    PerTable,
    /// Full datapath recompilation (structural change).
    Full,
}

impl UpdateClass {
    /// Short label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            UpdateClass::Incremental => "incremental",
            UpdateClass::PerTable => "per_table",
            UpdateClass::Full => "full",
        }
    }
}

/// Counter for update events: number of flow-mods absorbed at a tier plus
/// the flow entries they touched. Unlike the byte-oriented traffic
/// [`netdev::Counters`], the units here are meaningful for updates — a
/// `record(0)`-style "packet of zero bytes" cannot sneak in.
#[derive(Debug, Default)]
pub struct UpdateCounter {
    updates: AtomicU64,
    entries: AtomicU64,
}

impl UpdateCounter {
    /// Records one absorbed flow-mod that touched `entries` flow entries.
    pub fn record(&self, entries: u64) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Flow-mods absorbed at this tier.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Flow entries those flow-mods touched (added + modified + removed).
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

/// One in-place template edit, precompiled and shape-validated by the
/// planner.
#[derive(Debug)]
struct TableEdit {
    table: TableId,
    op: EditOp,
}

#[derive(Debug)]
enum EditOp {
    HashInsert {
        values: Vec<FieldValue>,
        instrs: Arc<CompiledInstrs>,
    },
    HashRemove {
        values: Vec<FieldValue>,
    },
    LpmInsert {
        prefix: u32,
        len: u8,
        instrs: Arc<CompiledInstrs>,
    },
    LpmRemove {
        prefix: u32,
        len: u8,
    },
}

impl TableEdit {
    /// Applies the edit in place through the table's trampoline lock.
    /// Returns false when the live template no longer accepts it (e.g. LPM
    /// tbl8 exhaustion); the caller escalates to a per-table rebuild.
    fn apply(&self, datapath: &CompiledDatapath) -> bool {
        let Some(slot) = datapath.slot(self.table) else {
            return false;
        };
        let mut table = slot.table.write();
        match (&mut *table, &self.op) {
            (CompiledTable::CompoundHash(hash), EditOp::HashInsert { values, instrs }) => {
                hash.insert(values, Arc::clone(instrs));
                true
            }
            (CompiledTable::CompoundHash(hash), EditOp::HashRemove { values }) => {
                hash.remove(values)
            }
            (
                CompiledTable::Lpm(lpm),
                EditOp::LpmInsert {
                    prefix,
                    len,
                    instrs,
                },
            ) => lpm.insert(*prefix, *len, Arc::clone(instrs)).is_ok(),
            (CompiledTable::Lpm(lpm), EditOp::LpmRemove { prefix, len }) => {
                lpm.remove(*prefix, *len).is_ok()
            }
            _ => false,
        }
    }
}

/// Outcome of [`UpdatePlanner::absorb`]: how far below the full tier the
/// update landed.
#[derive(Debug)]
pub(crate) enum Absorbed {
    /// The live datapath took an incremental edit in place.
    Incremental,
    /// The touched tables were rebuilt; the caller writes them into their
    /// trampoline slots.
    PerTable(Vec<(TableId, CompiledTable)>),
    /// Structure changed: the caller must recompile the whole datapath.
    Full,
}

/// The §3.4 update planner: decides, for an applied flow-mod, the cheapest
/// tier that preserves correctness, and precompiles whatever that tier needs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UpdatePlanner;

impl UpdatePlanner {
    /// Plans the update for `fm` (already applied to `pipeline`, yielding
    /// `effect`) against the running `datapath`, and executes everything
    /// below the full tier: an incremental edit is applied to `datapath` in
    /// place (escalating to a per-table rebuild if the live template rejects
    /// it, e.g. on LPM tbl8 exhaustion); a per-table plan returns the rebuilt
    /// tables for the caller to realise. `Full` means the caller must
    /// recompile — the one step whose execution (and failure handling)
    /// differs per consumer.
    pub(crate) fn absorb(
        &self,
        pipeline: &Pipeline,
        datapath: &CompiledDatapath,
        fm: &FlowMod,
        effect: &FlowModEffect,
    ) -> Absorbed {
        // A decomposed table's chain has no slot a rebuild or an edit can
        // take: its flow-mods recompile the datapath.
        if effect
            .tables_touched
            .iter()
            .any(|id| datapath.chain(*id).is_some())
        {
            return Absorbed::Full;
        }
        let edit = self.plan_incremental(pipeline, datapath, fm, effect);
        if edit.is_some_and(|edit| edit.apply(datapath)) {
            return Absorbed::Incremental;
        }
        match self.plan_per_table(pipeline, datapath, effect) {
            Some(tables) => Absorbed::PerTable(tables),
            None => Absorbed::Full,
        }
    }

    /// Attempts tier 1: a single-table Add/DeleteStrict whose shape fits the
    /// live template, whose fields the compiled parser already covers, and
    /// whose priority relations keep the template's semantics exact. Hash
    /// and LPM templates key on match values alone — one slot per key —
    /// while the pipeline resolves overlaps by priority, so the edit is only
    /// absorbable when the edited key has no priority story left: an Add
    /// must leave exactly one same-match entry (a duplicate at another
    /// priority cannot share one slot) that outranks the catch-all, a
    /// DeleteStrict must leave none (the slot removal must not erase a
    /// surviving duplicate), and a new prefix rule must order by specificity
    /// against every overlapping prefix (the LPM prerequisite, checked
    /// against the new rule only — existing rules already kept the
    /// invariant). Anything else escalates to the per-table rebuild, whose
    /// template selection re-validates the whole table.
    fn plan_incremental(
        &self,
        pipeline: &Pipeline,
        datapath: &CompiledDatapath,
        fm: &FlowMod,
        effect: &FlowModEffect,
    ) -> Option<TableEdit> {
        if effect.tables_touched.len() != 1 {
            return None;
        }
        let table_id = effect.tables_touched[0];
        let slot = datapath.slot(table_id)?;
        let table_entries = pipeline.table(table_id)?.entries();
        let same_match = table_entries
            .iter()
            .filter(|e| e.flow_match == fm.flow_match)
            .count();
        match fm.command {
            FlowModCommand::Add => {
                if same_match != 1 || !outranks_catch_all(table_entries, fm.priority) {
                    return None;
                }
            }
            FlowModCommand::DeleteStrict => {
                if same_match != 0 {
                    return None;
                }
            }
            _ => return None,
        }
        if matches!(fm.command, FlowModCommand::Add) {
            // An added entry may need a deeper parser than the datapath was
            // compiled with — not only through its match fields (the template
            // shape checks below pin those) but through action-written
            // fields: a compiled SetField(IpDscp)/DecNwTtl silently no-ops
            // when the parser never located the IP header. Escalate instead.
            let entry = openflow::FlowEntry::new(
                fm.flow_match.clone(),
                fm.priority,
                fm.instructions.clone(),
            );
            let needed = ParserTemplate::for_fields(
                entry
                    .flow_match
                    .fields()
                    .iter()
                    .map(|mf| mf.field)
                    .chain(instruction_fields(&entry)),
            );
            if needed.depth() > datapath.parser().depth() {
                return None;
            }
        }
        let table = slot.table.read();
        let op = match (&*table, fm.command) {
            (CompiledTable::CompoundHash(hash), FlowModCommand::Add) => {
                // The new entry must have exactly the template's field shape.
                let values = hash_key_values(hash.fields(), fm)?;
                EditOp::HashInsert {
                    values,
                    instrs: compile_entry_instrs(fm, datapath.slot_index()),
                }
            }
            (CompiledTable::CompoundHash(hash), FlowModCommand::DeleteStrict) => {
                let values = hash_key_values(hash.fields(), fm)?;
                if !hash.contains(&values) {
                    return None;
                }
                EditOp::HashRemove { values }
            }
            (CompiledTable::Lpm(lpm), FlowModCommand::Add) => {
                let (prefix, len) = lpm_rule(lpm.field(), fm)?;
                if !lpm_priority_consistent(table_entries, fm, prefix, len) {
                    return None;
                }
                EditOp::LpmInsert {
                    prefix,
                    len,
                    instrs: compile_entry_instrs(fm, datapath.slot_index()),
                }
            }
            (CompiledTable::Lpm(lpm), FlowModCommand::DeleteStrict) => {
                let (prefix, len) = lpm_rule(lpm.field(), fm)?;
                if !lpm.contains(prefix, len) {
                    return None;
                }
                EditOp::LpmRemove { prefix, len }
            }
            _ => return None,
        };
        Some(TableEdit {
            table: table_id,
            op,
        })
    }

    /// Attempts tier 2: every touched table already exists in the datapath
    /// and still compiles to one template, and the change does not
    /// require a deeper packet parser than the one the datapath was compiled
    /// with (matching a new, deeper field after a shallow-parse compile needs
    /// the full recompile path). Produces the rebuilt templates; also used to
    /// escalate a failed in-place edit.
    fn plan_per_table(
        &self,
        pipeline: &Pipeline,
        datapath: &CompiledDatapath,
        effect: &FlowModEffect,
    ) -> Option<Vec<(TableId, CompiledTable)>> {
        if effect.tables_touched.is_empty() {
            return None;
        }
        let all_tables_known = effect
            .tables_touched
            .iter()
            .all(|id| datapath.slot(*id).is_some());
        if !all_tables_known {
            return None;
        }
        let needed = ParserTemplate::for_fields(
            effect
                .tables_touched
                .iter()
                .filter_map(|id| pipeline.table(*id))
                .flat_map(|t| t.entries())
                .flat_map(|e| {
                    e.flow_match
                        .fields()
                        .iter()
                        .map(|mf| mf.field)
                        .chain(instruction_fields(e))
                }),
        );
        if needed.depth() > datapath.parser().depth() {
            return None;
        }
        let mut rebuilt = Vec::with_capacity(effect.tables_touched.len());
        for id in &effect.tables_touched {
            let table = pipeline.table(*id).expect("touched table exists");
            // A chain takes slots the datapath does not have.
            let Layout::Table(shape) = layout(pipeline, table) else {
                return None;
            };
            // The paper keeps a shared template library; re-interning per
            // rebuild only affects sharing across tables, not correctness.
            let mut store = ActionStore::new();
            rebuilt.push((
                *id,
                compile_table(table, shape, &mut store, datapath.slot_index()),
            ));
        }
        Some(rebuilt)
    }
}

/// True when an entry at `priority` outranks every catch-all (empty-match)
/// entry of the table: the pipeline resolves a tie — or a lower-priority
/// body entry — in the earlier-inserted catch-all's favour, which a
/// value-keyed template cannot express. Checked against *all* empty matches
/// because an entry inserted at or below the catch-all's priority sorts
/// after it, so the catch-all is not necessarily the last entry anymore.
fn outranks_catch_all(entries: &[openflow::FlowEntry], priority: u16) -> bool {
    entries
        .iter()
        .filter(|e| e.flow_match.is_empty())
        .all(|e| priority > e.priority)
}

/// Checks the LPM prerequisite ("whenever rules overlap, the more specific
/// one has higher priority") for the newly added `prefix/len` rule against
/// every existing prefix rule. Existing rules already satisfy it pairwise
/// (the table compiled as LPM and every incremental add re-checked), so only
/// pairs involving the new rule need examination: one pass over the
/// entries, with none of `analysis::lpm_shape`'s per-length maps to build.
fn lpm_priority_consistent(
    entries: &[openflow::FlowEntry],
    fm: &FlowMod,
    prefix: u32,
    len: u8,
) -> bool {
    for entry in entries {
        if entry.flow_match == fm.flow_match || entry.flow_match.is_empty() {
            continue;
        }
        let fields = entry.flow_match.fields();
        // A non-prefix-shaped entry in what compiled as an LPM table should
        // not happen; escalate conservatively if it does.
        if fields.len() != 1 {
            return false;
        }
        let mf = &fields[0];
        let Some(other_len) = mf.prefix_len() else {
            return false;
        };
        let other_len = other_len as u8;
        let other_prefix = mf.value as u32;
        // Overlap = the shorter prefix contains the longer one.
        let short_len = other_len.min(len);
        let short_mask = if short_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(short_len))
        };
        if (prefix ^ other_prefix) & short_mask != 0 {
            continue; // disjoint
        }
        let (more_specific_prio, less_specific_prio) = if len > other_len {
            (fm.priority, entry.priority)
        } else if other_len > len {
            (entry.priority, fm.priority)
        } else {
            // Same length and overlapping means same prefix but a different
            // match object — cannot happen (flow_match equality was checked);
            // escalate defensively.
            return false;
        };
        if more_specific_prio <= less_specific_prio {
            return false;
        }
    }
    true
}

/// Extracts the per-field key values of a flow-mod whose match has exactly
/// the compound-hash template's shape.
fn hash_key_values(shape: &[(Field, FieldValue)], fm: &FlowMod) -> Option<Vec<FieldValue>> {
    let fields = fm.flow_match.fields();
    if fields.len() != shape.len() {
        return None;
    }
    let mut values = Vec::with_capacity(shape.len());
    for (mf, (field, mask)) in fields.iter().zip(shape) {
        if mf.field != *field || mf.mask != *mask {
            return None;
        }
        values.push(mf.value);
    }
    Some(values)
}

/// Extracts the (prefix, length) of a flow-mod targeting an LPM table.
fn lpm_rule(field: Field, fm: &FlowMod) -> Option<(u32, u8)> {
    let fields = fm.flow_match.fields();
    if fields.len() != 1 || fields[0].field != field {
        return None;
    }
    let len = fields[0].prefix_len()? as u8;
    Some((fields[0].value as u32, len))
}

/// Compiles the instruction block of a flow-mod's would-be entry, its goto
/// linked against the slots of the datapath the edit lands in (used by the
/// incremental update paths).
fn compile_entry_instrs(fm: &FlowMod, links: &SlotIndex) -> Arc<CompiledInstrs> {
    let entry =
        openflow::FlowEntry::new(fm.flow_match.clone(), fm.priority, fm.instructions.clone());
    compile_instructions(&entry, &mut ActionStore::new(), links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::flow_match::FlowMatch;
    use openflow::flow_mod::apply_flow_mod;
    use openflow::instruction::terminal_actions;
    use openflow::Datapath;
    use openflow::{Action, FlowEntry};

    fn l2_pipeline(n: u64) -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        for i in 0..n {
            t.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0000 + i)),
                10,
                terminal_actions(vec![Action::Output((i % 4) as u32)]),
            ));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    fn plan_for(pipeline: &mut Pipeline, fm: &FlowMod) -> UpdateClass {
        let datapath = crate::compile::compile(pipeline).unwrap();
        let effect = apply_flow_mod(pipeline, fm).unwrap();
        match UpdatePlanner.absorb(pipeline, &datapath, fm, &effect) {
            Absorbed::Incremental => UpdateClass::Incremental,
            Absorbed::PerTable(_) => UpdateClass::PerTable,
            Absorbed::Full => UpdateClass::Full,
        }
    }

    #[test]
    fn hash_add_and_strict_delete_plan_incremental() {
        let mut p = l2_pipeline(32);
        let add = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0900u128),
            10,
            terminal_actions(vec![Action::Output(1)]),
        );
        assert_eq!(plan_for(&mut p, &add), UpdateClass::Incremental);

        let del = FlowMod::delete_strict(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001u128),
            10,
        );
        assert_eq!(plan_for(&mut p, &del), UpdateClass::Incremental);
    }

    #[test]
    fn shape_mismatch_plans_per_table_and_structure_plans_full() {
        // A non-strict delete cannot be absorbed in place -> per-table.
        let mut p = l2_pipeline(32);
        let del = FlowMod::delete(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001u128),
        );
        assert_eq!(plan_for(&mut p, &del), UpdateClass::PerTable);

        // Installing into a table the datapath does not have -> full.
        let mut p = l2_pipeline(8);
        let structural = FlowMod::add(
            5,
            FlowMatch::any(),
            1,
            terminal_actions(vec![Action::Output(1)]),
        );
        assert_eq!(plan_for(&mut p, &structural), UpdateClass::Full);
    }

    #[test]
    fn deeper_parser_need_escalates_to_full() {
        // The L2-compiled datapath cannot absorb a TCP-matching entry, even
        // per-table: the parser is too shallow.
        let mut p = l2_pipeline(32);
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            50,
            terminal_actions(vec![Action::Output(9)]),
        );
        assert_eq!(plan_for(&mut p, &fm), UpdateClass::Full);
    }

    #[test]
    fn planned_edit_applies_in_place() {
        let mut p = l2_pipeline(32);
        let datapath = crate::compile::compile(&p).unwrap();
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0900u128),
            10,
            terminal_actions(vec![Action::Output(3)]),
        );
        let effect = apply_flow_mod(&mut p, &fm).unwrap();
        let absorbed = UpdatePlanner.absorb(&p, &datapath, &fm, &effect);
        assert!(matches!(absorbed, Absorbed::Incremental), "{absorbed:?}");
        let mut pkt = pkt::builder::PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0900).octets())
            .build();
        assert_eq!(crate::process_one(&datapath, &mut pkt).outputs, vec![3]);
    }

    #[test]
    fn incrementally_inserted_goto_is_linked_to_its_slot() {
        // Table ids 0, 5, 9 sit in slots 0, 1, 2: an entry added in place
        // (no rebuild, no recompile) must carry its goto as a slot index,
        // or the fast path — which never consults the id map — would stop
        // (or jump to the wrong table).
        let mut p = l2_pipeline(32);
        for (id, port) in [(5, 50), (9, 90)] {
            let mut t = openflow::FlowTable::new(id);
            t.insert(FlowEntry::new(
                FlowMatch::any(),
                1,
                terminal_actions(vec![Action::Output(port)]),
            ));
            p.add_table(t);
        }
        let runtime = crate::runtime::EswitchRuntime::compile(p).unwrap();
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0900u128),
            10,
            vec![openflow::Instruction::GotoTable(9)],
        );
        runtime.flow_mod(&fm).unwrap();
        assert_eq!(runtime.updates.incremental.updates(), 1);

        let mut pkt = pkt::builder::PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0900).octets())
            .build();
        let verdict = runtime.process(&mut pkt);
        assert_eq!(verdict.outputs, vec![90]);
        assert_eq!(verdict.tables_visited, 2);
        let datapath = runtime.datapath();
        assert_eq!(datapath.slot(5).unwrap().lookups.packets(), 0);
        assert_eq!(datapath.slot(9).unwrap().lookups.packets(), 1);
    }

    #[test]
    fn duplicate_match_at_other_priority_is_not_absorbed_incrementally() {
        // A same-match add at a *different* priority leaves two pipeline
        // entries for one hash key: a single template slot cannot express
        // the priority resolution, so the planner must escalate — and the
        // per-table rebuild must keep the highest-priority entry's actions.
        let mut p = l2_pipeline(32);
        let runtime = crate::runtime::EswitchRuntime::compile(p.clone()).unwrap();
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001u128),
            5, // below the existing priority-10 entry: the old entry wins
            terminal_actions(vec![Action::Output(9)]),
        );
        assert_eq!(plan_for(&mut p, &fm), UpdateClass::PerTable);

        runtime.flow_mod(&fm).unwrap();
        assert_eq!(runtime.updates.incremental.updates(), 0);
        let mut pkt = pkt::builder::PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0001).octets())
            .build();
        let compiled = runtime.process(&mut pkt);
        let mut reference = pkt::builder::PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0001).octets())
            .build();
        let expected =
            runtime.with_pipeline(|pl| pl.process_ct(&mut reference, &mut openflow::NoCt));
        assert_eq!(compiled.decision(), expected.decision());
        assert_eq!(compiled.outputs, vec![1], "priority-10 entry must win");

        // Strict-deleting the low-priority duplicate must also escalate
        // (the surviving entry owns the slot), and behaviour holds.
        let del = FlowMod::delete_strict(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001u128),
            5,
        );
        runtime.flow_mod(&del).unwrap();
        assert_eq!(runtime.updates.incremental.updates(), 0);
        let mut pkt = pkt::builder::PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0001).octets())
            .build();
        assert_eq!(runtime.process(&mut pkt).outputs, vec![1]);
    }

    #[test]
    fn add_below_catch_all_priority_is_not_absorbed_incrementally() {
        // An entry ranked below the catch-all is dead in pipeline order; a
        // hash slot would wrongly bring it to life.
        let mut p = l2_pipeline(32); // catch-all at priority 1
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0900u128),
            1, // ties the catch-all: the earlier catch-all wins in order
            terminal_actions(vec![Action::Output(7)]),
        );
        assert_ne!(plan_for(&mut p, &fm), UpdateClass::Incremental);
    }

    #[test]
    fn lpm_add_with_inconsistent_priority_escalates() {
        // A more specific prefix with too-low priority violates the LPM
        // prerequisite ("more specific wins"): must not be edited in place.
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        for i in 0..16u32 {
            let len = if i % 2 == 0 { 16 } else { 24 };
            t.insert(FlowEntry::new(
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, i as u8, 1, 0])),
                    len,
                ),
                (len + 10) as u16,
                terminal_actions(vec![Action::Output(i % 3)]),
            ));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        // /28 inside 10.0.0.0/16 but priority below the /16's 26.
        let bad = FlowMod::add(
            0,
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([10, 0, 1, 16])),
                28,
            ),
            20,
            terminal_actions(vec![Action::Output(7)]),
        );
        assert_ne!(plan_for(&mut p.clone(), &bad), UpdateClass::Incremental);

        // The same prefix with a consistent priority is absorbed in place.
        let good = FlowMod::add(
            0,
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([10, 0, 1, 16])),
                28,
            ),
            40,
            terminal_actions(vec![Action::Output(7)]),
        );
        assert_eq!(plan_for(&mut p, &good), UpdateClass::Incremental);
    }

    #[test]
    fn flow_mod_on_a_decomposed_table_plans_full() {
        // Table 0 compiles to a chain: no edit or rebuild may land in its
        // stages, so even a hash-shaped add escalates to a full recompile.
        let mut p = Pipeline::new();
        p.add_table(crate::decompose::tests::fig5_table());
        assert!(crate::compile::compile(&p).unwrap().chain(0).is_some());
        for fm in [
            FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::TcpDst, 443),
                99,
                terminal_actions(vec![Action::Output(9)]),
            ),
            FlowMod::delete(0, FlowMatch::any().with_exact(Field::TcpDst, 22)),
        ] {
            assert_eq!(plan_for(&mut p.clone(), &fm), UpdateClass::Full);
        }
    }

    #[test]
    fn rebuild_whose_best_layout_is_a_chain_plans_full() {
        // Five hash-shaped rules plus one on another field: the table falls
        // from the hash template to the linked list, whose decomposition the
        // model charges less, so the chain needs a full recompile.
        let mut p = Pipeline::with_tables(1);
        for i in 0..5u64 {
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, u128::from(80 + i)),
                10,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpSrc, 7),
            20,
            terminal_actions(vec![Action::Output(2)]),
        );
        assert_eq!(plan_for(&mut p.clone(), &fm), UpdateClass::Full);
        apply_flow_mod(&mut p, &fm).unwrap();
        assert!(crate::compile::compile(&p).unwrap().chain(0).is_some());
    }

    #[test]
    fn update_counter_units() {
        let c = UpdateCounter::default();
        c.record(1);
        c.record(5);
        assert_eq!(c.updates(), 2);
        assert_eq!(c.entries(), 6);
    }
}
