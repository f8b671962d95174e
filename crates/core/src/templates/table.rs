//! Flow-table templates: direct code, compound hash, LPM and linked list
//! (Fig. 4 of the paper).
//!
//! Each template holds fully specialised state — the flow keys are "patched
//! into the code" — and exposes a single `lookup` that returns the matched
//! entry's compiled instruction block. Template prerequisites are *checked*
//! by [`crate::analysis`]; the constructors here assume their input satisfies
//! them (they return an error otherwise so the compiler can fall back).

use std::sync::Arc;

use netdev::{FlatHash, Lpm};
use openflow::field::{Field, FieldValue};
use openflow::pipeline::TableId;
use pkt::ipv4::Ipv4Addr4;
use pkt::parser::{ParsedHeaders, ProtoMask};

use super::action::CompiledActionSet;
use super::matcher::{required_protocols, CompiledMatcher, Regs};
use crate::fastpath::{FieldLoad, KeyLoader};

/// The compiled form of a matched entry's instructions.
///
/// Action sets are held as shared [`Arc`]s produced by the compiler's
/// interning pass, so identical action sets are physically shared across
/// flows exactly as §3.1 prescribes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledInstrs {
    /// Actions applied immediately on match (apply-actions).
    pub apply: Option<Arc<CompiledActionSet>>,
    /// Action set written for execution at pipeline exit (write-actions).
    pub write_set: Option<Arc<CompiledActionSet>>,
    /// True if the entry clears the accumulated action set first.
    pub clear_set: bool,
    /// Metadata register write: `(value, mask)`.
    pub metadata: Option<(u64, u64)>,
    /// Continue processing at this table (linked through the trampoline).
    pub goto: Option<TableId>,
    /// Slot index of `goto` in the datapath the block was compiled for,
    /// resolved at link time so the fast path follows a goto with an array
    /// index. `None` when there is no goto or its target has no slot.
    pub goto_slot: Option<usize>,
    /// Punt to the controller on match (used for table-miss entries of
    /// reactive pipelines).
    pub to_controller: bool,
}

/// One compiled flow entry of the direct-code / linked-list templates.
#[derive(Debug, Clone)]
pub struct CompiledEntry {
    /// Protocol bits that must be present (the prologue check).
    pub required: ProtoMask,
    /// The specialised matchers, one per matched field.
    pub matchers: Vec<CompiledMatcher>,
    /// What to do on match.
    pub instrs: Arc<CompiledInstrs>,
}

impl CompiledEntry {
    /// Builds an entry from matchers + instructions, deriving the prologue
    /// protocol requirement from the matched fields.
    pub fn new(matchers: Vec<CompiledMatcher>, instrs: Arc<CompiledInstrs>) -> Self {
        let mut required = ProtoMask::NONE;
        for m in &matchers {
            required = required.or(required_protocols(m.field));
        }
        CompiledEntry {
            required,
            matchers,
            instrs,
        }
    }

    /// Runs the prologue + matchers against a packet.
    #[inline]
    pub fn matches(&self, frame: &[u8], headers: &ParsedHeaders, regs: &Regs) -> bool {
        if !headers.mask.contains(self.required) {
            return false;
        }
        self.matchers
            .iter()
            .all(|m| m.matches(frame, headers, regs))
    }
}

/// Errors returned by template constructors when their prerequisite is not
/// met; the compiler reacts by falling back to the next template (Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The table does not satisfy the template's prerequisite.
    PrerequisiteViolated(&'static str),
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateError::PrerequisiteViolated(what) => {
                write!(f, "template prerequisite violated: {what}")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// Direct code template: the classification rules as straight-line code.
///
/// Prerequisite: the table has at most `direct_code_limit` entries (the
/// constant calibrated by the Fig. 9 measurement). Matching is a linear walk
/// over fully specialised entries — for a handful of entries this beats any
/// data structure because keys live in the instruction stream.
#[derive(Debug, Clone, Default)]
pub struct DirectCodeTable {
    entries: Vec<CompiledEntry>,
}

impl DirectCodeTable {
    /// Builds the template from compiled entries (already in priority order).
    pub fn new(entries: Vec<CompiledEntry>) -> Self {
        DirectCodeTable { entries }
    }

    /// The compiled entries in match order.
    pub fn entries(&self) -> &[CompiledEntry] {
        &self.entries
    }

    /// Looks up the first matching entry.
    #[inline]
    pub fn lookup(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<&CompiledInstrs> {
        self.entries
            .iter()
            .find(|e| e.matches(frame, headers, regs))
            .map(|e| &*e.instrs)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the template holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Compound hash template: exact match over a fixed field set via one probe
/// of one flat hash table.
///
/// Prerequisite: every (non-catch-all) entry matches the same fields with the
/// same masks, and the concatenated key fits in 128 bits.
#[derive(Debug, Clone)]
pub struct CompoundHashTable {
    /// The fields participating in the key, with their shared (global) masks.
    fields: Vec<(Field, FieldValue)>,
    /// The same fields as pre-resolved loads: builds a packet's key.
    loader: KeyLoader,
    hash: HashStore,
    /// The optional lowest-priority catch-all entry.
    catch_all: Option<Arc<CompiledInstrs>>,
}

/// The template's table, with slots as wide as the key needs: packed key and
/// instruction-block pointer are 16 bytes when the key fits 64 bits
/// ([`KeyLoader::narrow`]), 32 otherwise.
#[derive(Debug, Clone)]
enum HashStore {
    Narrow(FlatHash<u64, Arc<CompiledInstrs>>),
    Wide(FlatHash<u128, Arc<CompiledInstrs>>),
}

/// The control-plane view: keys as [`KeyLoader::pack`] builds them (a narrow
/// template's packed keys fit 64 bits by construction).
impl HashStore {
    fn get(&self, key: u128) -> Option<&Arc<CompiledInstrs>> {
        match self {
            HashStore::Narrow(table) => table.get(key as u64),
            HashStore::Wide(table) => table.get(key),
        }
    }

    fn insert(&mut self, key: u128, instrs: Arc<CompiledInstrs>) {
        match self {
            HashStore::Narrow(table) => table.insert(key as u64, instrs),
            HashStore::Wide(table) => table.insert(key, instrs),
        };
    }

    fn remove(&mut self, key: u128) -> bool {
        match self {
            HashStore::Narrow(table) => table.remove(key as u64).is_some(),
            HashStore::Wide(table) => table.remove(key).is_some(),
        }
    }

    fn len(&self) -> usize {
        match self {
            HashStore::Narrow(table) => table.len(),
            HashStore::Wide(table) => table.len(),
        }
    }

    fn memory_footprint(&self) -> usize {
        match self {
            HashStore::Narrow(table) => table.memory_footprint(),
            HashStore::Wide(table) => table.memory_footprint(),
        }
    }
}

impl CompoundHashTable {
    /// Builds the template.
    ///
    /// `keys` are (per-field values, instruction block) pairs; values must be
    /// listed in the same order as `fields`.
    pub fn new(
        fields: Vec<(Field, FieldValue)>,
        keys: Vec<(Vec<FieldValue>, Arc<CompiledInstrs>)>,
        catch_all: Option<Arc<CompiledInstrs>>,
    ) -> Result<Self, TemplateError> {
        let total_bits: u32 = fields.iter().map(|(f, _)| f.width_bits()).sum();
        if total_bits > 128 {
            return Err(TemplateError::PrerequisiteViolated(
                "compound key exceeds 128 bits",
            ));
        }
        if fields.is_empty() {
            return Err(TemplateError::PrerequisiteViolated(
                "compound hash needs at least one field",
            ));
        }
        let loader = KeyLoader::for_fields(&fields);
        let mut hash = if loader.narrow {
            HashStore::Narrow(FlatHash::with_capacity(keys.len()))
        } else {
            HashStore::Wide(FlatHash::with_capacity(keys.len()))
        };
        for (values, instrs) in keys {
            if values.len() != fields.len() {
                return Err(TemplateError::PrerequisiteViolated(
                    "key arity differs from field list",
                ));
            }
            hash.insert(loader.pack(&values), instrs);
        }
        Ok(CompoundHashTable {
            fields,
            loader,
            hash,
            catch_all,
        })
    }

    /// Looks up a packet: one key build, one hash probe, then the catch-all.
    #[inline]
    pub fn lookup(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<&CompiledInstrs> {
        let hit = match &self.hash {
            HashStore::Narrow(table) => self
                .loader
                .key64(frame, headers, regs)
                .and_then(|key| table.get(key)),
            HashStore::Wide(table) => self
                .loader
                .key128(frame, headers, regs)
                .and_then(|key| table.get(key)),
        };
        hit.or(self.catch_all.as_ref()).map(|instrs| &**instrs)
    }

    /// Inserts (or replaces) one entry incrementally. `values` must follow
    /// the template's field order.
    pub fn insert(&mut self, values: &[FieldValue], instrs: Arc<CompiledInstrs>) {
        self.hash.insert(self.loader.pack(values), instrs);
    }

    /// Removes one entry incrementally. Returns true if it existed.
    pub fn remove(&mut self, values: &[FieldValue]) -> bool {
        self.hash.remove(self.loader.pack(values))
    }

    /// True when an entry with these key values is installed. Used by the
    /// update planner to predict whether a delete is absorbable in place.
    pub fn contains(&self, values: &[FieldValue]) -> bool {
        self.hash.get(self.loader.pack(values)).is_some()
    }

    /// The fields and global masks of the compound key.
    pub fn fields(&self) -> &[(Field, FieldValue)] {
        &self.fields
    }

    /// Number of hashed entries (excluding the catch-all).
    pub fn len(&self) -> usize {
        self.hash.len()
    }

    /// True when the template holds no hashed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes, for the working-set/cache model.
    pub fn memory_footprint(&self) -> usize {
        self.hash.memory_footprint()
    }
}

/// LPM template: longest prefix match on a single IPv4 field, backed by the
/// DIR-24-8 structure (`rte_lpm` in the paper's prototype).
#[derive(Debug)]
pub struct LpmTable {
    field: Field,
    /// The pre-resolved load of `field`.
    load: FieldLoad,
    lpm: Lpm,
    /// Instruction blocks indexed by the LPM next-hop value.
    targets: Vec<Arc<CompiledInstrs>>,
    /// Entry used when no prefix matches (a /0 rule or table miss fallback).
    catch_all: Option<Arc<CompiledInstrs>>,
}

impl LpmTable {
    /// Builds the template from `(prefix, prefix_len, instrs)` rules.
    pub fn new(
        field: Field,
        rules: Vec<(u32, u8, Arc<CompiledInstrs>)>,
        catch_all: Option<Arc<CompiledInstrs>>,
    ) -> Result<Self, TemplateError> {
        if !matches!(
            field,
            Field::Ipv4Dst | Field::Ipv4Src | Field::ArpSpa | Field::ArpTpa
        ) {
            return Err(TemplateError::PrerequisiteViolated(
                "LPM template requires an IPv4 address field",
            ));
        }
        let mut table = LpmTable {
            field,
            load: FieldLoad::for_field(field),
            lpm: Lpm::new(),
            targets: Vec::new(),
            catch_all,
        };
        for (prefix, len, instrs) in rules {
            table
                .insert(prefix, len, instrs)
                .map_err(|_| TemplateError::PrerequisiteViolated("invalid prefix rule"))?;
        }
        Ok(table)
    }

    /// Adds one prefix rule incrementally.
    pub fn insert(
        &mut self,
        prefix: u32,
        len: u8,
        instrs: Arc<CompiledInstrs>,
    ) -> Result<(), netdev::LpmError> {
        let hop = match self
            .targets
            .iter()
            .position(|t| Arc::ptr_eq(t, &instrs) || **t == *instrs)
        {
            Some(i) => i as u16,
            None => {
                self.targets.push(Arc::clone(&instrs));
                (self.targets.len() - 1) as u16
            }
        };
        self.lpm.add(Ipv4Addr4::from_u32(prefix), len, hop)
    }

    /// Removes one prefix rule incrementally.
    pub fn remove(&mut self, prefix: u32, len: u8) -> Result<(), netdev::LpmError> {
        self.lpm.delete(Ipv4Addr4::from_u32(prefix), len)
    }

    /// True when exactly this prefix rule is installed. Used by the update
    /// planner to predict whether a delete is absorbable in place.
    pub fn contains(&self, prefix: u32, len: u8) -> bool {
        self.lpm.has_rule(Ipv4Addr4::from_u32(prefix), len)
    }

    /// Looks up a packet: load the address, one DIR-24-8 lookup, then the
    /// catch-all.
    #[inline]
    pub fn lookup(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<&CompiledInstrs> {
        self.load
            .load(frame, headers, regs)
            .and_then(|addr| self.lpm.lookup(Ipv4Addr4::from_u32(addr as u32)))
            .and_then(|hop| self.targets.get(usize::from(hop)))
            .or(self.catch_all.as_ref())
            .map(|instrs| &**instrs)
    }

    /// The matched field.
    pub fn field(&self) -> Field {
        self.field
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// True when no prefixes are installed.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Approximate resident bytes, for the working-set/cache model.
    pub fn memory_footprint(&self) -> usize {
        self.lpm.memory_footprint()
    }

    /// Memory accesses the LPM structure needs for `addr` (1 or 2); feeds the
    /// Fig. 20 cost model.
    pub fn lookup_depth(&self, addr: u32) -> u8 {
        self.lpm.lookup_depth(Ipv4Addr4::from_u32(addr))
    }
}

/// Linked-list template: tuple space search, the last-resort fallback.
///
/// Entries are grouped by the combination of (field, mask) they match on; a
/// shared matcher function per group is called with subsequent entry keys.
/// Priority order across groups is preserved by walking entries in global
/// priority order.
#[derive(Debug, Clone, Default)]
pub struct LinkedListTable {
    entries: Vec<CompiledEntry>,
    /// Number of distinct field/mask combinations (tuples) — reported for
    /// statistics and the cost model.
    tuple_count: usize,
}

impl LinkedListTable {
    /// Builds the template from compiled entries in priority order.
    pub fn new(entries: Vec<CompiledEntry>) -> Self {
        let mut tuples: Vec<Vec<(Field, FieldValue)>> = Vec::new();
        for e in &entries {
            let shape: Vec<(Field, FieldValue)> =
                e.matchers.iter().map(|m| (m.field, m.mask)).collect();
            if !tuples.contains(&shape) {
                tuples.push(shape);
            }
        }
        LinkedListTable {
            tuple_count: tuples.len(),
            entries,
        }
    }

    /// Looks up the first matching entry.
    #[inline]
    pub fn lookup(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<&CompiledInstrs> {
        self.entries
            .iter()
            .find(|e| e.matches(frame, headers, regs))
            .map(|e| &*e.instrs)
    }

    /// Appends an entry (incremental update); the caller is responsible for
    /// inserting at the right priority position.
    pub fn insert_at(&mut self, index: usize, entry: CompiledEntry) {
        self.entries.insert(index.min(self.entries.len()), entry);
    }

    /// The compiled entries in match order.
    pub fn entries(&self) -> &[CompiledEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the template holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct tuples (field/mask combinations).
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }
}

/// A compiled flow table: one of the four templates, plus bookkeeping shared
/// by the compiler and the performance model.
#[derive(Debug)]
pub enum CompiledTable {
    /// Direct machine-code style table.
    DirectCode(DirectCodeTable),
    /// Compound hash: one probe of one flat table.
    CompoundHash(CompoundHashTable),
    /// DIR-24-8 longest prefix match.
    Lpm(LpmTable),
    /// Tuple space search fallback.
    LinkedList(LinkedListTable),
}

impl CompiledTable {
    /// Looks up a packet in whichever template backs this table.
    #[inline]
    pub fn lookup(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<&CompiledInstrs> {
        match self {
            CompiledTable::DirectCode(t) => t.lookup(frame, headers, regs),
            CompiledTable::CompoundHash(t) => t.lookup(frame, headers, regs),
            CompiledTable::Lpm(t) => t.lookup(frame, headers, regs),
            CompiledTable::LinkedList(t) => t.lookup(frame, headers, regs),
        }
    }

    /// The template kind, for statistics and the cost model.
    pub fn kind(&self) -> crate::analysis::TemplateKind {
        match self {
            CompiledTable::DirectCode(_) => crate::analysis::TemplateKind::DirectCode,
            CompiledTable::CompoundHash(_) => crate::analysis::TemplateKind::CompoundHash,
            CompiledTable::Lpm(_) => crate::analysis::TemplateKind::Lpm,
            CompiledTable::LinkedList(_) => crate::analysis::TemplateKind::LinkedList,
        }
    }

    /// Number of entries the template holds.
    pub fn len(&self) -> usize {
        match self {
            CompiledTable::DirectCode(t) => t.len(),
            CompiledTable::CompoundHash(t) => t.len(),
            CompiledTable::Lpm(t) => t.len(),
            CompiledTable::LinkedList(t) => t.len(),
        }
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the lookup structure (instruction-stream
    /// resident templates report zero extra data footprint).
    pub fn memory_footprint(&self) -> usize {
        match self {
            CompiledTable::DirectCode(t) => t.len() * std::mem::size_of::<CompiledEntry>(),
            CompiledTable::CompoundHash(t) => t.memory_footprint(),
            CompiledTable::Lpm(t) => t.memory_footprint(),
            CompiledTable::LinkedList(t) => t.len() * std::mem::size_of::<CompiledEntry>(),
        }
    }

    /// Renders a pseudo-assembly listing of the compiled table, in the style
    /// of the paper's direct-code example.
    pub fn disassemble(&self) -> String {
        match self {
            CompiledTable::DirectCode(t) => {
                let mut out = String::new();
                for (i, e) in t.entries().iter().enumerate() {
                    out.push_str(&format!("FLOW_{}:\n", i + 1));
                    out.push_str(&format!(
                        "    mov eax,{:#x} ; protocol bitmask check\n",
                        e.required.0
                    ));
                    for m in &e.matchers {
                        out.push_str(&m.disassemble());
                        out.push('\n');
                    }
                    match &e.instrs.goto {
                        Some(t) => out.push_str(&format!("    jmp TRAMPOLINE_TABLE_{t}\n")),
                        None => out.push_str("    jmp ACTION_SET ; shared action set\n"),
                    }
                }
                out.push_str("TABLE_MISS: jmp MISS_HANDLER\n");
                out
            }
            CompiledTable::CompoundHash(t) => {
                let fields: Vec<String> = t
                    .fields()
                    .iter()
                    .map(|(f, m)| format!("{f:?}/{m:#x}"))
                    .collect();
                format!(
                    "COMPOUND_HASH: key = [{}]\n    flat_hash_lookup(key)      ; {} entries\n",
                    fields.join(" ++ "),
                    t.len()
                )
            }
            CompiledTable::Lpm(t) => format!(
                "LPM({:?}): dir24_8_lookup(addr)      ; {} prefixes\n",
                t.field(),
                t.len()
            ),
            CompiledTable::LinkedList(t) => format!(
                "LINKED_LIST: tuple space search    ; {} entries in {} tuples\n",
                t.len(),
                t.tuple_count()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;
    use pkt::parser::{parse, ParseDepth};

    fn instrs_output(goto: Option<TableId>) -> Arc<CompiledInstrs> {
        Arc::new(CompiledInstrs {
            goto,
            ..Default::default()
        })
    }

    fn headers_regs(p: &pkt::Packet) -> (ParsedHeaders, Regs) {
        (
            parse(p.data(), ParseDepth::L4),
            Regs {
                in_port: p.in_port,
                ..Default::default()
            },
        )
    }

    #[test]
    fn direct_code_priority_order_and_prologue() {
        let port80 = CompiledEntry::new(
            vec![CompiledMatcher::new(
                Field::TcpDst,
                80,
                Field::TcpDst.full_mask(),
            )],
            instrs_output(Some(1)),
        );
        let catch_all = CompiledEntry::new(vec![], instrs_output(None));
        let table = DirectCodeTable::new(vec![port80, catch_all]);

        let tcp80 = PacketBuilder::tcp().tcp_dst(80).build();
        let (h, r) = headers_regs(&tcp80);
        assert_eq!(table.lookup(tcp80.data(), &h, &r).unwrap().goto, Some(1));

        let udp = PacketBuilder::udp().udp_dst(80).build();
        let (h, r) = headers_regs(&udp);
        // The TCP prologue check fails for the UDP packet: the catch-all wins.
        assert_eq!(table.lookup(udp.data(), &h, &r).unwrap().goto, None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn compound_hash_exact_match_and_catch_all() {
        let fields = vec![
            (Field::Ipv4Dst, Field::Ipv4Dst.full_mask()),
            (Field::TcpDst, Field::TcpDst.full_mask()),
        ];
        let keys = vec![
            (vec![0xc000_0201u128, 80u128], instrs_output(Some(7))),
            (vec![0xc000_0202u128, 443u128], instrs_output(Some(8))),
        ];
        let table = CompoundHashTable::new(fields, keys, Some(instrs_output(None))).unwrap();
        assert_eq!(table.len(), 2);

        let hit = PacketBuilder::tcp()
            .ipv4_dst([192, 0, 2, 1])
            .tcp_dst(80)
            .build();
        let (h, r) = headers_regs(&hit);
        assert_eq!(table.lookup(hit.data(), &h, &r).unwrap().goto, Some(7));

        let miss = PacketBuilder::tcp()
            .ipv4_dst([192, 0, 2, 1])
            .tcp_dst(81)
            .build();
        let (h, r) = headers_regs(&miss);
        assert_eq!(table.lookup(miss.data(), &h, &r).unwrap().goto, None);

        // Key arity mismatch is rejected.
        assert!(CompoundHashTable::new(
            vec![(Field::TcpDst, Field::TcpDst.full_mask())],
            vec![(vec![1, 2], instrs_output(None))],
            None
        )
        .is_err());
    }

    #[test]
    fn compound_hash_incremental_insert_and_remove() {
        let fields = vec![(Field::EthDst, Field::EthDst.full_mask())];
        let mut table = CompoundHashTable::new(fields, vec![], None).unwrap();
        table.insert(&[0x0200_0000_0001], instrs_output(Some(3)));
        table.insert(&[0x0200_0000_0002], instrs_output(Some(4)));
        assert_eq!(table.len(), 2);

        let p = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 2]).build();
        let (h, r) = headers_regs(&p);
        assert_eq!(table.lookup(p.data(), &h, &r).unwrap().goto, Some(4));

        assert!(table.remove(&[0x0200_0000_0002]));
        assert!(!table.remove(&[0x0200_0000_0002]));
        assert!(table.lookup(p.data(), &h, &r).is_none());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn compound_hash_rejects_oversized_keys() {
        let fields = vec![
            (Field::Ipv6Src, Field::Ipv6Src.full_mask()),
            (Field::TcpDst, Field::TcpDst.full_mask()),
        ];
        assert!(matches!(
            CompoundHashTable::new(fields, vec![], None),
            Err(TemplateError::PrerequisiteViolated(_))
        ));
    }

    #[test]
    fn lpm_longest_prefix_and_fallback() {
        let a = instrs_output(Some(1));
        let b = instrs_output(Some(2));
        let table = LpmTable::new(
            Field::Ipv4Dst,
            vec![
                (u32::from_be_bytes([10, 0, 0, 0]), 8, a),
                (u32::from_be_bytes([10, 1, 0, 0]), 16, b),
            ],
            Some(instrs_output(None)),
        )
        .unwrap();
        assert_eq!(table.len(), 2);

        let specific = PacketBuilder::udp().ipv4_dst([10, 1, 2, 3]).build();
        let (h, r) = headers_regs(&specific);
        assert_eq!(table.lookup(specific.data(), &h, &r).unwrap().goto, Some(2));

        let broad = PacketBuilder::udp().ipv4_dst([10, 9, 9, 9]).build();
        let (h, r) = headers_regs(&broad);
        assert_eq!(table.lookup(broad.data(), &h, &r).unwrap().goto, Some(1));

        let miss = PacketBuilder::udp().ipv4_dst([192, 0, 2, 1]).build();
        let (h, r) = headers_regs(&miss);
        assert_eq!(table.lookup(miss.data(), &h, &r).unwrap().goto, None);

        // Non-IP packets fall back to the catch-all.
        let arp = PacketBuilder::arp_request(
            pkt::MacAddr::new([2, 0, 0, 0, 0, 1]),
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(10, 0, 0, 2),
        );
        let (h, r) = headers_regs(&arp);
        assert_eq!(table.lookup(arp.data(), &h, &r).unwrap().goto, None);

        assert!(LpmTable::new(Field::TcpDst, vec![], None).is_err());
    }

    #[test]
    fn lpm_shares_action_blocks_across_prefixes() {
        let shared = instrs_output(Some(9));
        let mut table = LpmTable::new(Field::Ipv4Dst, vec![], None).unwrap();
        for i in 0..50u32 {
            table
                .insert(
                    u32::from_be_bytes([10, i as u8, 0, 0]),
                    16,
                    Arc::clone(&shared),
                )
                .unwrap();
        }
        // All 50 prefixes reference the same compiled instruction block.
        assert_eq!(table.targets.len(), 1);
        assert_eq!(table.len(), 50);
    }

    #[test]
    fn linked_list_tuple_grouping() {
        let e1 = CompiledEntry::new(
            vec![CompiledMatcher::new(Field::TcpDst, 80, 0xffff)],
            instrs_output(Some(1)),
        );
        let e2 = CompiledEntry::new(
            vec![CompiledMatcher::new(Field::TcpDst, 443, 0xffff)],
            instrs_output(Some(2)),
        );
        let e3 = CompiledEntry::new(
            vec![CompiledMatcher::new(Field::Ipv4Dst, 0x0a000000, 0xff000000)],
            instrs_output(Some(3)),
        );
        let table = LinkedListTable::new(vec![e1, e2, e3]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.tuple_count(), 2);

        let p = PacketBuilder::tcp()
            .tcp_dst(443)
            .ipv4_dst([10, 0, 0, 1])
            .build();
        let (h, r) = headers_regs(&p);
        // Priority order: the port rule appears before the IP rule.
        assert_eq!(table.lookup(p.data(), &h, &r).unwrap().goto, Some(2));
    }

    #[test]
    fn compiled_table_dispatch_and_disassembly() {
        let direct = CompiledTable::DirectCode(DirectCodeTable::new(vec![CompiledEntry::new(
            vec![CompiledMatcher::new(Field::TcpDst, 80, 0xffff)],
            instrs_output(None),
        )]));
        assert_eq!(direct.kind(), crate::analysis::TemplateKind::DirectCode);
        assert_eq!(direct.len(), 1);
        let listing = direct.disassemble();
        assert!(listing.contains("FLOW_1"));
        assert!(listing.contains("TCP_DST_MATCHER(0x50)"));

        let hash = CompiledTable::CompoundHash(
            CompoundHashTable::new(
                vec![(Field::EthDst, Field::EthDst.full_mask())],
                vec![(vec![1], instrs_output(None))],
                None,
            )
            .unwrap(),
        );
        assert!(hash.disassemble().contains("COMPOUND_HASH"));
        assert!(hash.memory_footprint() > 0);

        let lpm = CompiledTable::Lpm(LpmTable::new(Field::Ipv4Dst, vec![], None).unwrap());
        assert!(lpm.disassemble().contains("LPM"));
        assert!(lpm.is_empty());

        let ll = CompiledTable::LinkedList(LinkedListTable::new(vec![]));
        assert!(ll.disassemble().contains("LINKED_LIST"));
    }
}
