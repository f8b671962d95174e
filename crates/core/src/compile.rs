//! Template specialization & linking: turning a declarative [`Pipeline`] into
//! a [`CompiledDatapath`].
//!
//! This is §3.3 of the paper. The compiler walks every flow table, selects a
//! template ([`crate::analysis`]), patches the flow keys into matcher/table
//! templates, interns action sets so identical ones are shared, and links
//! `goto_table` references through per-table *trampolines* — here a
//! `parking_lot::RwLock` slot per table — so that a single table can later be
//! rebuilt side-by-side and swapped in atomically while packets keep flowing.
//!
//! The compiler chooses every template, with nothing to configure: a table
//! that would fall to the linked list is decomposed (§3.2) when the model
//! charges the chain less ([`ChainCharge`]: lookups at the cache level the
//! entries fit in, table visits, and every slot's per-burst upkeep). The
//! chain lives only in the compiled datapath — its stages take the table's
//! slot, id and the slots behind it, linked by slot index — and the
//! controller's [`Pipeline`] is never rewritten.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use netdev::Counters;
use openflow::instruction::Instruction;
use openflow::pipeline::TableId;
use openflow::table::TableMissBehavior;
use openflow::{Action, Field, FieldValue, FlowEntry, FlowTable, Pipeline, PipelineError};

use crate::analysis::{select_shape, TemplateKind, TemplateShape};
use crate::perfmodel::PerformanceModel;
use crate::templates::action::ActionStore;
use crate::templates::matcher::CompiledMatcher;
use crate::templates::parser::ParserTemplate;
use crate::templates::table::{
    CompiledEntry, CompiledInstrs, CompiledTable, CompoundHashTable, DirectCodeTable,
    LinkedListTable, LpmTable,
};

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The pipeline itself is malformed (dangling or backward goto).
    InvalidPipeline(PipelineError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidPipeline(e) => write!(f, "invalid pipeline: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PipelineError> for CompileError {
    fn from(e: PipelineError) -> Self {
        CompileError::InvalidPipeline(e)
    }
}

/// The link map: OpenFlow table id → slot index in a compiled datapath.
/// `goto_table` targets are resolved through it when instructions are
/// compiled, so the fast path follows a goto by array index. Slot indices
/// are stable across incremental edits and per-table rebuilds, which write
/// into the existing slots; only a full recompilation renumbers them (and
/// recompiles every goto with them).
pub(crate) type SlotIndex = HashMap<TableId, usize>;

/// One compiled table behind its trampoline slot.
pub struct TableSlot {
    /// OpenFlow table id. Every stage of a decomposed table carries the
    /// table's id.
    pub id: TableId,
    /// Miss behaviour of the table.
    pub miss: TableMissBehavior,
    /// The compiled template. The `RwLock` is the trampoline: rebuilding a
    /// table writes a fresh template into the slot in one atomic step.
    pub table: RwLock<CompiledTable>,
    /// Packets looked up in this table.
    pub lookups: Counters,
}

/// Statistics of a compiled datapath.
#[derive(Debug, Default)]
pub struct DatapathStats {
    /// Packets processed.
    pub processed: Counters,
    /// Packets punted to the controller.
    pub punted: Counters,
}

/// A fully compiled, executable datapath.
///
/// Each table sits behind its own trampoline slot, and every update below a
/// full recompilation lands in place: an incremental edit or a per-table
/// rebuild writes the slot's template while the other tables keep serving
/// packets (§3.4). One `Arc<CompiledDatapath>` therefore serves every
/// holder — the single-switch runtime and every shard — until a structural
/// change replaces it whole.
pub struct CompiledDatapath {
    pub(crate) parser: ParserTemplate,
    pub(crate) slots: Vec<TableSlot>,
    /// Control-plane lookups only (`slot(id)`, linking); the fast path
    /// follows pre-resolved slot indices.
    index_of: SlotIndex,
    /// Slot of table 0, where every packet starts (`None`: no table 0).
    pub(crate) entry: Option<usize>,
    /// Decomposed tables: id → the model's charges, with the chain's
    /// costliest goto path in slots.
    chains: HashMap<TableId, ChainCharge>,
    /// Runtime statistics.
    pub stats: DatapathStats,
}

impl CompiledDatapath {
    /// The parser template the compiler selected.
    pub fn parser(&self) -> &ParserTemplate {
        &self.parser
    }

    /// The compiled tables in pipeline order, each behind its slot.
    pub fn slots(&self) -> &[TableSlot] {
        &self.slots
    }

    /// The link map tables destined for this datapath are compiled against.
    pub(crate) fn slot_index(&self) -> &SlotIndex {
        &self.index_of
    }

    /// Looks up the slot backing an OpenFlow table id (a decomposed
    /// table's first stage).
    pub fn slot(&self, id: TableId) -> Option<&TableSlot> {
        self.index_of.get(&id).map(|i| &self.slots[*i])
    }

    /// The charges that made the compiler decompose table `id`, its path
    /// given in slots; `None` when the table compiled to one template.
    pub fn chain(&self, id: TableId) -> Option<&ChainCharge> {
        self.chains.get(&id)
    }

    /// The slots a lookup in table `id` costs at most: its chain's costliest
    /// goto path, or its one slot.
    pub(crate) fn lookup_path(&self, id: TableId) -> Option<&[usize]> {
        self.chain(id)
            .map(|chain| chain.path.as_slice())
            .or_else(|| self.index_of.get(&id).map(std::slice::from_ref))
    }

    /// Template kinds per slot (a decomposed table lists one per stage),
    /// for statistics dumps and tests.
    pub fn template_kinds(&self) -> Vec<(TableId, TemplateKind)> {
        self.slots
            .iter()
            .map(|s| (s.id, s.table.read().kind()))
            .collect()
    }

    /// Total data-structure footprint of all compiled tables, feeding the
    /// working-set estimate of the cache model.
    pub fn memory_footprint(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.table.read().memory_footprint())
            .sum()
    }

    /// Renders the whole compiled datapath as a pseudo-assembly listing.
    pub fn disassemble(&self) -> String {
        let mut out = self.parser.disassemble();
        for slot in &self.slots {
            out.push_str(&format!(
                "\n; ===== table {} ({:?}) =====\n",
                slot.id,
                slot.table.read().kind()
            ));
            out.push_str(&slot.table.read().disassemble());
        }
        out
    }
}

/// Compiles an entry's instructions into a [`CompiledInstrs`] block, interning
/// action sets in `store` and linking its goto through `links`.
pub(crate) fn compile_instructions(
    entry: &FlowEntry,
    store: &mut ActionStore,
    links: &SlotIndex,
) -> Arc<CompiledInstrs> {
    let mut instrs = CompiledInstrs::default();
    let mut apply: Vec<Action> = Vec::new();
    let mut write: Vec<Action> = Vec::new();
    for instruction in &entry.instructions {
        match instruction {
            Instruction::ApplyActions(actions) => apply.extend(actions.iter().cloned()),
            Instruction::WriteActions(actions) => write.extend(actions.iter().cloned()),
            Instruction::ClearActions => instrs.clear_set = true,
            Instruction::WriteMetadata { value, mask } => instrs.metadata = Some((*value, *mask)),
            Instruction::GotoTable(t) => {
                instrs.goto = Some(*t);
                instrs.goto_slot = links.get(t).copied();
            }
            Instruction::Meter(_) => {}
        }
    }
    if apply.iter().any(|a| matches!(a, Action::ToController)) {
        instrs.to_controller = true;
    }
    if !apply.is_empty() {
        instrs.apply = Some(store.intern(&apply));
    }
    if !write.is_empty() {
        instrs.write_set = Some(store.intern(&write));
    }
    Arc::new(instrs)
}

/// Builds a [`CompiledEntry`] from a flow entry (direct-code / linked-list
/// path): one specialised matcher per matched field.
fn compile_entry(entry: &FlowEntry, store: &mut ActionStore, links: &SlotIndex) -> CompiledEntry {
    let matchers = entry
        .flow_match
        .fields()
        .iter()
        .map(|mf| CompiledMatcher::new(mf.field, mf.value, mf.mask))
        .collect();
    CompiledEntry::new(matchers, compile_instructions(entry, store, links))
}

/// Compiles a flow table to the template of `shape` (the one
/// [`select_shape`] picked), linking its gotos through `links` — the slot
/// layout of the datapath the table is destined for.
pub(crate) fn compile_table(
    table: &FlowTable,
    shape: TemplateShape,
    store: &mut ActionStore,
    links: &SlotIndex,
) -> CompiledTable {
    let entries = |store: &mut ActionStore| {
        table
            .entries()
            .iter()
            .map(|e| compile_entry(e, store, links))
            .collect()
    };
    match shape {
        TemplateShape::DirectCode => {
            CompiledTable::DirectCode(DirectCodeTable::new(entries(store)))
        }
        TemplateShape::CompoundHash(shape) => match build_hash(table, &shape, store, links) {
            Ok(t) => CompiledTable::CompoundHash(t),
            Err(_) => CompiledTable::LinkedList(LinkedListTable::new(entries(store))),
        },
        TemplateShape::Lpm(field) => match build_lpm(table, field, store, links) {
            Ok(t) => CompiledTable::Lpm(t),
            Err(_) => CompiledTable::LinkedList(LinkedListTable::new(entries(store))),
        },
        TemplateShape::LinkedList => {
            CompiledTable::LinkedList(LinkedListTable::new(entries(store)))
        }
    }
}

/// What [`compile`] builds for one controller table.
pub(crate) enum Layout {
    /// One template of the selected shape.
    Table(TemplateShape),
    /// The table's decomposition (§3.2): its stages with their shapes, first
    /// stage first, and the charges that chose it.
    Chain(Vec<(FlowTable, TemplateShape)>, ChainCharge),
}

/// The performance model's per-packet charges for the two ways a table
/// whose best template is the linked list can compile (§3.2): as that list,
/// or as the chain of stages it decomposes into.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCharge {
    /// The linked list: a lookup over every entry, at the cache level the
    /// table fits in, one table visit and its one slot's upkeep.
    pub list: f64,
    /// The chain: the lookups and visits on its costliest goto path, at the
    /// cache level all its stages fit in, and the upkeep of every stage's
    /// slot.
    pub chain: f64,
    /// The stages on that path, first stage first: indices into the stage
    /// list (into the slots, in [`CompiledDatapath::chain`]).
    pub path: Vec<usize>,
}

impl ChainCharge {
    /// Charges `table` as a linked list and as `stages`, its decomposition,
    /// each stage in the template `select_shape` gives it.
    pub fn new(table: &FlowTable, stages: &[FlowTable]) -> Self {
        let stages: Vec<_> = stages.iter().map(|t| (t, select_shape(t).kind())).collect();
        Self::of(&PerformanceModel::new(), table, &stages)
    }

    fn of(
        model: &PerformanceModel,
        table: &FlowTable,
        stages: &[(&FlowTable, TemplateKind)],
    ) -> Self {
        let entries = stages.iter().map(|(t, _)| t.len()).sum();
        let latency = model.footprint_latency(entries);
        let index: HashMap<TableId, usize> = stages
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (t.id, i))
            .collect();
        // Per stage, backwards (gotos within a chain run forward through the
        // stage list): the cycles of the costliest path from it to the
        // chain's end, and the stage that path continues at.
        let mut best: Vec<(f64, Option<usize>)> = vec![(0.0, None); stages.len()];
        for (i, (stage, kind)) in stages.iter().enumerate().rev() {
            let next = stage
                .entries()
                .iter()
                .filter_map(|e| index.get(&e.goto_target()?).copied())
                .max_by(|a, b| best[*a].0.total_cmp(&best[*b].0));
            let (fixed, accesses) = model.lookup_charge(*kind, stage.len());
            let own = fixed + accesses * latency + model.atoms.table_visit;
            best[i] = (own + next.map_or(0.0, |n| best[n].0), next);
        }
        let first = (!stages.is_empty()).then_some(0);
        ChainCharge {
            list: list_cycles(model, table),
            chain: first.map_or(0.0, |i| best[i].0) + model.upkeep_cycles(stages.len()),
            path: std::iter::successors(first, |i| best[*i].1).collect(),
        }
    }
}

/// The model's charge for `table` as one linked list (see [`ChainCharge`]).
fn list_cycles(model: &PerformanceModel, table: &FlowTable) -> f64 {
    let (fixed, accesses) = model.lookup_charge(TemplateKind::LinkedList, table.len());
    let lookup = fixed + accesses * model.footprint_latency(table.len());
    lookup + model.atoms.table_visit + model.upkeep_cycles(1)
}

/// Chooses how `table` of `pipeline` compiles. A table whose best template
/// is the linked list is decomposed, and the chain is taken when the
/// performance model charges it less than the linked list ([`ChainCharge`]);
/// otherwise — and for every other table — it is one template.
pub(crate) fn layout(pipeline: &Pipeline, table: &FlowTable) -> Layout {
    let shape = select_shape(table);
    if shape != TemplateShape::LinkedList {
        return Layout::Table(shape);
    }
    // A chain whose slots' upkeep alone costs what the list does cannot be
    // the cheaper one, so decomposition stops at that many stages.
    let model = PerformanceModel::new();
    let budget = (list_cycles(&model, table) / model.upkeep_cycles(1)) as usize;
    let Some(stages) = crate::decompose::decompose_in_place(pipeline, table, budget) else {
        return Layout::Table(shape);
    };
    let stages: Vec<(FlowTable, TemplateShape)> = stages
        .into_iter()
        .map(|stage| {
            let shape = select_shape(&stage);
            (stage, shape)
        })
        .collect();
    let kinds: Vec<_> = stages.iter().map(|(t, shape)| (t, shape.kind())).collect();
    let charge = ChainCharge::of(&model, table, &kinds);
    if charge.chain >= charge.list {
        return Layout::Table(shape);
    }
    Layout::Chain(stages, charge)
}

fn build_hash(
    table: &FlowTable,
    shape: &[(Field, FieldValue)],
    store: &mut ActionStore,
    links: &SlotIndex,
) -> Result<CompoundHashTable, crate::templates::table::TemplateError> {
    let (body, catch_all) = crate::analysis::split_catch_all(table);
    // Entries arrive in pipeline match order (descending priority); the
    // template has one slot per key, so on duplicate key values the first —
    // highest-priority — entry must own the slot, exactly as the pipeline's
    // first-match rule resolves the overlap.
    let mut seen: HashSet<Vec<FieldValue>> = HashSet::new();
    let keys = body
        .iter()
        .filter_map(|entry| {
            let values: Vec<FieldValue> = shape
                .iter()
                .map(|(field, _)| {
                    entry
                        .flow_match
                        .field(*field)
                        .map(|mf| mf.value)
                        .unwrap_or_default()
                })
                .collect();
            seen.insert(values.clone())
                .then(|| (values, compile_instructions(entry, store, links)))
        })
        .collect();
    CompoundHashTable::new(
        shape.to_vec(),
        keys,
        catch_all.map(|e| compile_instructions(e, store, links)),
    )
}

fn build_lpm(
    table: &FlowTable,
    field: Field,
    store: &mut ActionStore,
    links: &SlotIndex,
) -> Result<LpmTable, crate::templates::table::TemplateError> {
    let (body, catch_all) = crate::analysis::split_catch_all(table);
    // Same first-wins rule as `build_hash`: the highest-priority entry of a
    // duplicated prefix owns the LPM rule.
    let mut seen: HashSet<(u32, u8)> = HashSet::new();
    let rules = body
        .iter()
        .filter_map(|entry| {
            let mf = entry.flow_match.fields()[0];
            let len = mf.prefix_len().expect("lpm shape checked") as u8;
            seen.insert((mf.value as u32, len)).then(|| {
                (
                    mf.value as u32,
                    len,
                    compile_instructions(entry, store, links),
                )
            })
        })
        .collect();
    LpmTable::new(
        field,
        rules,
        catch_all.map(|e| compile_instructions(e, store, links)),
    )
}

/// The header field an action needs parsed to execute, if any. Match fields
/// alone do not determine parser depth: a pipeline that matches only on L2
/// fields but rewrites DSCP (or decrements the TTL) still needs the IP header
/// located, or the compiled action would silently no-op.
fn action_touched_field(action: &Action) -> Option<Field> {
    match action {
        // An address rewrite also steps the TCP/UDP checksum (the
        // pseudo-header covers both addresses), so it needs L4 located.
        Action::SetField(Field::Ipv4Src | Field::Ipv4Dst, _) => Some(Field::TcpSrc),
        Action::SetField(field, _) => Some(*field),
        Action::DecNwTtl => Some(Field::Ipv4Src),
        // Ct extracts the 5-tuple (and TCP flags), so the parser must reach
        // L4 even if the pipeline matches nothing past L2.
        Action::Ct(_) => Some(Field::TcpSrc),
        _ => None,
    }
}

/// Every field an entry's instructions read or write through the parser.
pub(crate) fn instruction_fields(entry: &FlowEntry) -> impl Iterator<Item = Field> + '_ {
    entry
        .instructions
        .iter()
        .flat_map(|instruction| match instruction {
            Instruction::ApplyActions(actions) | Instruction::WriteActions(actions) => {
                actions.as_slice()
            }
            _ => &[],
        })
        .filter_map(action_touched_field)
}

/// Compiles a whole pipeline, choosing every table's template.
pub fn compile(pipeline: &Pipeline) -> Result<CompiledDatapath, CompileError> {
    pipeline.validate()?;
    let mut store = ActionStore::new();

    // Parser template: as deep as the deepest field matched *or touched by an
    // action* anywhere in the pipeline.
    let parser =
        ParserTemplate::for_fields(pipeline.tables().iter().flat_map(|t| t.entries()).flat_map(
            |e| {
                e.flow_match
                    .fields()
                    .iter()
                    .map(|mf| mf.field)
                    .chain(instruction_fields(e))
            },
        ));

    // A decomposed table's stages take consecutive slots from its own, so a
    // `Continue` miss of the table before it still lands on its first stage.
    let layouts: Vec<Layout> = pipeline
        .tables()
        .iter()
        .map(|table| layout(pipeline, table))
        .collect();
    let mut index_of = SlotIndex::with_capacity(layouts.len());
    let mut slot_count = 0;
    for (table, layout) in pipeline.tables().iter().zip(&layouts) {
        index_of.insert(table.id, slot_count);
        slot_count += match layout {
            Layout::Table(_) => 1,
            Layout::Chain(stages, _) => stages.len(),
        };
    }
    let mut slots = Vec::with_capacity(slot_count);
    let mut chains = HashMap::new();
    for (table, layout) in pipeline.tables().iter().zip(layouts) {
        let mut push = |stage: &FlowTable, shape, links: &SlotIndex| {
            let compiled = compile_table(stage, shape, &mut store, links);
            slots.push(TableSlot {
                id: table.id,
                miss: stage.miss,
                table: RwLock::new(compiled),
                lookups: Counters::new(),
            });
        };
        match layout {
            Layout::Table(shape) => push(table, shape, &index_of),
            Layout::Chain(stages, mut charge) => {
                // The stages' internal ids link within the chain only; they
                // never enter the datapath's id map.
                let first = index_of[&table.id];
                let mut links = index_of.clone();
                links.extend(
                    stages
                        .iter()
                        .enumerate()
                        .map(|(i, (t, _))| (t.id, first + i)),
                );
                charge.path.iter_mut().for_each(|i| *i += first);
                chains.insert(table.id, charge);
                for (stage, shape) in stages {
                    push(&stage, shape, &links);
                }
            }
        }
    }

    Ok(CompiledDatapath {
        parser,
        slots,
        entry: index_of.get(&0).copied(),
        index_of,
        chains,
        stats: DatapathStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::{actions_then_goto, terminal_actions};
    use pkt::builder::PacketBuilder;
    use pkt::parser::ParseDepth;
    use pkt::Packet;
    use rand::prelude::*;

    /// Compares the compiled datapath against the reference interpreter on a
    /// set of packets — the master semantic-equivalence check.
    fn assert_equivalent(pipeline: &Pipeline, packets: &[Packet]) {
        let dp = compile(pipeline).unwrap();
        for (i, packet) in packets.iter().enumerate() {
            let mut a = packet.clone();
            let mut b = packet.clone();
            let compiled = crate::process_one(&dp, &mut a);
            let reference = pipeline.process_ct(&mut b, &mut openflow::NoCt);
            assert_eq!(
                compiled.decision(),
                reference.decision(),
                "packet {i} diverged"
            );
            assert_eq!(a.data(), b.data(), "packet {i} rewritten differently");
        }
    }

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

    #[test]
    fn l2_table_compiles_to_hash_and_matches_reference() {
        let pipeline = l2_pipeline(64);
        let dp = compile(&pipeline).unwrap();
        assert_eq!(dp.template_kinds(), vec![(0, TemplateKind::CompoundHash)]);
        assert_eq!(dp.parser().depth(), ParseDepth::L2);

        let mut rng = StdRng::seed_from_u64(1);
        let packets: Vec<Packet> = (0..200)
            .map(|_| {
                let mac = 0x0200_0000_0000u64 + rng.gen_range(0u64..80);
                PacketBuilder::udp()
                    .eth_dst(pkt::MacAddr::from_u64(mac).octets())
                    .build()
            })
            .collect();
        assert_equivalent(&pipeline, &packets);
    }

    #[test]
    fn small_table_compiles_direct_and_matches_reference() {
        let pipeline = l2_pipeline(3);
        let dp = compile(&pipeline).unwrap();
        assert_eq!(dp.template_kinds(), vec![(0, TemplateKind::DirectCode)]);
        let packets: Vec<Packet> = (0..8)
            .map(|i| {
                PacketBuilder::udp()
                    .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0000 + i).octets())
                    .build()
            })
            .collect();
        assert_equivalent(&pipeline, &packets);
    }

    fn l3_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        let prefixes = [
            ([10u8, 0, 0, 0], 8u32, 1u32),
            ([10, 1, 0, 0], 16, 2),
            ([10, 1, 2, 0], 24, 3),
            ([192, 0, 2, 0], 24, 4),
            ([198, 51, 100, 0], 24, 5),
            ([203, 0, 113, 0], 24, 6),
        ];
        for (addr, len, port) in prefixes {
            t.insert(FlowEntry::new(
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes(addr)),
                    len,
                ),
                (len + 10) as u16,
                terminal_actions(vec![Action::DecNwTtl, Action::Output(port)]),
            ));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    #[test]
    fn l3_table_compiles_to_lpm_and_matches_reference() {
        let pipeline = l3_pipeline();
        let dp = compile(&pipeline).unwrap();
        assert_eq!(dp.template_kinds(), vec![(0, TemplateKind::Lpm)]);
        assert_eq!(dp.parser().depth(), ParseDepth::L3);

        let packets: Vec<Packet> = [
            [10u8, 0, 5, 5],
            [10, 1, 5, 5],
            [10, 1, 2, 5],
            [192, 0, 2, 200],
            [8, 8, 8, 8],
            [203, 0, 113, 1],
        ]
        .iter()
        .map(|dst| PacketBuilder::udp().ipv4_dst(*dst).build())
        .collect();
        assert_equivalent(&pipeline, &packets);
    }

    /// The two-stage firewall of Fig. 1b.
    fn firewall_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(2);
        {
            let t0 = p.table_mut(0).unwrap();
            t0.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::InPort, 1),
                300,
                terminal_actions(vec![Action::Output(0)]),
            ));
            t0.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::InPort, 0),
                200,
                vec![Instruction::GotoTable(1)],
            ));
        }
        {
            let t1 = p.table_mut(1).unwrap();
            t1.insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::Ipv4Dst, u128::from(0xc0000201u32))
                    .with_exact(Field::TcpDst, 80),
                100,
                terminal_actions(vec![Action::Output(1)]),
            ));
            t1.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        }
        p
    }

    #[test]
    fn multi_stage_firewall_equivalence_and_goto_linking() {
        let pipeline = firewall_pipeline();
        let dp = compile(&pipeline).unwrap();
        assert_eq!(dp.template_kinds().len(), 2);

        let packets: Vec<Packet> = vec![
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(80)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(22)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 9])
                .tcp_dst(80)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(80)
                .in_port(1)
                .build(),
            PacketBuilder::udp().in_port(1).build(),
        ];
        assert_equivalent(&pipeline, &packets);

        // The compiled fast path visits both tables for admitted web traffic.
        let mut web = PacketBuilder::tcp()
            .ipv4_dst([192, 0, 2, 1])
            .tcp_dst(80)
            .in_port(0)
            .build();
        assert_eq!(crate::process_one(&dp, &mut web).tables_visited, 2);
    }

    #[test]
    fn nat_rewrite_pipeline_equivalence() {
        // Table 0 rewrites the source address (NAT) and forwards to an LPM
        // table matching the *destination*, as the gateway use case does.
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Src, u128::from(0x0a000001u32)),
            10,
            actions_then_goto(vec![Action::SetField(Field::Ipv4Src, 0xcb007101)], 1),
        ));
        p.table_mut(0)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let t1 = p.table_mut(1).unwrap();
        t1.insert(FlowEntry::new(
            FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(0xc6336400u32), 24),
            20,
            terminal_actions(vec![Action::Output(7)]),
        ));
        t1.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        let packets = vec![
            PacketBuilder::udp()
                .ipv4_src([10, 0, 0, 1])
                .ipv4_dst([198, 51, 100, 9])
                .build(),
            PacketBuilder::udp()
                .ipv4_src([10, 0, 0, 2])
                .ipv4_dst([198, 51, 100, 9])
                .build(),
            PacketBuilder::udp()
                .ipv4_src([10, 0, 0, 1])
                .ipv4_dst([8, 8, 8, 8])
                .build(),
        ];
        assert_equivalent(&p, &packets);
    }

    #[test]
    fn parser_depth_covers_action_rewrites_not_just_matches() {
        // Regression: a pipeline matching only L2 fields but rewriting DSCP
        // (an L3 header byte) used to compile an L2-only parser, so the
        // compiled set-field silently no-opped while the reference
        // interpreter rewrote the packet.
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0001u64)),
            10,
            actions_then_goto(vec![Action::SetField(Field::IpDscp, 10)], 1),
        ));
        p.table_mut(0)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let t1 = p.table_mut(1).unwrap();
        t1.insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            terminal_actions(vec![Action::Output(2)]),
        ));

        let dp = compile(&p).unwrap();
        assert!(dp.parser().depth() >= ParseDepth::L3);

        let packets = vec![
            PacketBuilder::udp()
                .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0001).octets())
                .build(),
            PacketBuilder::udp()
                .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0009).octets())
                .build(),
        ];
        assert_equivalent(&p, &packets);
    }

    #[test]
    fn write_actions_last_output_wins() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![
                Instruction::WriteActions(vec![Action::Output(3)]),
                Instruction::GotoTable(1),
            ],
        ));
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            10,
            vec![Instruction::WriteActions(vec![Action::Output(5)])],
        ));
        p.table_mut(1)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        let dp = compile(&p).unwrap();
        let mut http = PacketBuilder::tcp().tcp_dst(80).build();
        assert_eq!(crate::process_one(&dp, &mut http).outputs, vec![5]);
        let mut other = PacketBuilder::tcp().tcp_dst(22).build();
        assert_eq!(crate::process_one(&dp, &mut other).outputs, vec![3]);
    }

    #[test]
    fn metadata_and_clear_actions() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![
                Instruction::WriteActions(vec![Action::Output(3)]),
                Instruction::WriteMetadata {
                    value: 0x7,
                    mask: 0xf,
                },
                Instruction::GotoTable(1),
            ],
        ));
        let t1 = p.table_mut(1).unwrap();
        t1.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Metadata, 0x7),
            10,
            vec![
                Instruction::ClearActions,
                Instruction::ApplyActions(vec![Action::Output(9)]),
            ],
        ));
        t1.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        let dp = compile(&p).unwrap();
        let mut pkt = PacketBuilder::udp().build();
        let verdict = crate::process_one(&dp, &mut pkt);
        assert_eq!(verdict.outputs, vec![9]);
    }

    #[test]
    fn miss_behaviours() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().miss = TableMissBehavior::Continue;
        p.table_mut(1).unwrap().miss = TableMissBehavior::ToController;
        let dp = compile(&p).unwrap();
        let mut pkt = PacketBuilder::udp().build();
        let verdict = crate::process_one(&dp, &mut pkt);
        assert!(verdict.to_controller);
        assert_eq!(dp.stats.punted.packets(), 1);

        let empty = Pipeline::new();
        let dp = compile(&empty).unwrap();
        let mut pkt = PacketBuilder::udp().build();
        assert!(crate::process_one(&dp, &mut pkt).is_drop());
    }

    #[test]
    fn action_sets_are_shared_across_flows() {
        // 64 MAC entries all forwarding to the same 4 ports: at most 5
        // distinct compiled action sets (4 outputs + none for the catch-all).
        let pipeline = l2_pipeline(64);
        let mut store = ActionStore::new();
        let table = pipeline.table(0).unwrap();
        let _ = compile_table(
            table,
            select_shape(table),
            &mut store,
            &SlotIndex::default(),
        );
        assert!(store.len() <= 4, "action sets not shared: {}", store.len());
    }

    #[test]
    fn invalid_pipeline_rejected() {
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(9)],
        ));
        assert!(matches!(compile(&p), Err(CompileError::InvalidPipeline(_))));
    }

    #[test]
    fn disassembly_covers_all_tables() {
        let dp = compile(&firewall_pipeline()).unwrap();
        let listing = dp.disassemble();
        assert!(listing.contains("table 0"));
        assert!(listing.contains("table 1"));
        assert!(listing.contains("L2_PARSER"));
        assert!(dp.memory_footprint() > 0);
    }

    #[test]
    fn vlan_pop_pipeline_equivalence() {
        // Match on the VLAN tag, pop it, forward — the gateway's downstream
        // direction in miniature.
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::VlanVid, 7),
            10,
            terminal_actions(vec![Action::PopVlan, Action::Output(2)]),
        ));
        p.table_mut(0)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let packets = vec![
            PacketBuilder::udp().vlan(7).build(),
            PacketBuilder::udp().vlan(8).build(),
            PacketBuilder::udp().build(),
        ];
        assert_equivalent(&p, &packets);
    }
}
