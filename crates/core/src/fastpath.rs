//! The compiled datapath's per-packet code: the burst table walk and the
//! specialised key loaders. Everything here runs once per packet (or per
//! table hop) and must not allocate — `cargo xtask lint` bans allocation
//! constructors in this file; compile-time constructors live in
//! [`crate::compile`] and [`crate::templates`].
//!
//! **Burst contract.** [`CompiledDatapath::process_burst_ct`] is the one
//! execution entry; a single packet is the burst of one. What is resolved
//! when:
//!
//! * *per compile / flow-mod* — goto targets become slot indices
//!   ([`CompiledInstrs::goto_slot`](crate::templates::table::CompiledInstrs)),
//!   hash/LPM key fields become [`FieldLoad`]s, table 0's slot is a field;
//! * *per burst* — each table's trampoline (`RwLock`) is read-locked the
//!   first time a packet of the burst reaches it and stays held until the
//!   burst ends, so hits are plain borrows; processed / punted / per-table
//!   lookup counts are tallied in locals and flushed with one
//!   `record_batch` per touched counter;
//! * *per packet* — the parse (read from the packet's RX stamp when it
//!   carries one), then per hop one key build, one lookup and the matched
//!   actions.
//!
//! A trampoline already held is never re-acquired (a `parking_lot::RwLock`
//! read — like `std`'s, which backs the vendored shim — is not re-entrant
//! once a writer waits), and every guard is released before
//! `process_burst_ct` returns — callers run deferred controller punts (which
//! may `flow_mod`) only after it, so an update lands between bursts, which
//! is §3.4's trampoline swap. Holding several read guards cannot deadlock
//! because flow-mods are serialised by their runtime's pipeline lock: at
//! most one writer waits on any table of a datapath at a time.

use std::cell::{Cell, OnceCell};

use parking_lot::RwLockReadGuard;

use openflow::ct::ConnCtx;
use openflow::field::FieldValue;
use openflow::table::TableMissBehavior;
use openflow::{PacketInReason, Verdict};
use pkt::parser::{ParsedHeaders, ProtoMask};
use pkt::Packet;

use crate::compile::{CompiledDatapath, TableSlot};
use crate::templates::action::{CompiledAction, CompiledActionSet};
use crate::templates::matcher::Regs;
use crate::templates::table::CompiledTable;

/// The header layer a frame load is relative to (the paper keeps these
/// pointers in `r12`–`r14`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Ethernet header.
    L2,
    /// Network header (IPv4/IPv6/ARP).
    L3,
    /// Transport header (TCP/UDP/ICMP).
    L4,
}

impl Layer {
    /// Byte offset of the layer in the frame, as the parser recorded it.
    #[inline]
    fn start(self, headers: &ParsedHeaders) -> usize {
        usize::from(match self {
            Layer::L2 => headers.l2_offset,
            Layer::L3 => headers.l3_offset,
            Layer::L4 => headers.l4_offset,
        })
    }
}

/// Where a field's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// `len` big-endian bytes at `offset` past the start of `layer`.
    Frame {
        /// Layer the offset is relative to.
        layer: Layer,
        /// Byte offset within the layer.
        offset: u8,
        /// Bytes to load (1, 2, 4, 6 or 16).
        len: u8,
    },
    /// Ingress port register.
    InPort,
    /// Metadata register.
    Metadata,
    /// Tunnel-id register.
    TunnelId,
    /// EtherType recorded by the parser (after any VLAN tags).
    EthType,
    /// Outermost VLAN VID recorded by the parser.
    VlanVid,
    /// Outermost VLAN PCP recorded by the parser.
    VlanPcp,
    /// IP protocol recorded by the parser.
    IpProto,
    /// A field the prototype does not model in the frame: never loads.
    Unmodelled,
}

/// One pre-resolved field load: the matcher template's
/// `mov eax,[r13+0x10]` with the layer, offset and width patched in at
/// specialization time (built by `FieldLoad::for_field`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldLoad {
    pub(crate) source: LoadSource,
    /// Protocol layers of which at least one must be present (empty: none).
    pub(crate) need: ProtoMask,
    /// Right shift applied to the loaded bytes (sub-byte fields).
    pub(crate) shift: u8,
    /// Mask applied after the shift (sub-byte fields; all-ones otherwise).
    pub(crate) keep: u64,
}

impl FieldLoad {
    /// Loads the field, or `None` when its protocol layer is absent or the
    /// frame is too short.
    #[inline]
    pub fn load(&self, frame: &[u8], headers: &ParsedHeaders, regs: &Regs) -> Option<FieldValue> {
        if self.need.0 != 0 && !headers.mask.intersects(self.need) {
            return None;
        }
        self.load_wide(frame, headers, regs)
    }

    /// Loads a field of at most 64 bits without the presence check (the
    /// table templates check the union of their fields' layers once).
    #[inline]
    pub(crate) fn load_narrow(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<u64> {
        let raw = match self.source {
            LoadSource::Frame { layer, offset, len } => {
                let start = layer.start(headers) + usize::from(offset);
                be_uint(frame.get(start..start + usize::from(len))?)
            }
            LoadSource::InPort => u64::from(regs.in_port),
            LoadSource::Metadata => regs.metadata,
            LoadSource::TunnelId => regs.tunnel_id,
            LoadSource::EthType => u64::from(headers.ethertype),
            LoadSource::VlanVid => u64::from(headers.vlan_vid),
            LoadSource::VlanPcp => u64::from(headers.vlan_pcp),
            LoadSource::IpProto => u64::from(headers.ip_proto),
            LoadSource::Unmodelled => return None,
        };
        Some((raw >> self.shift) & self.keep)
    }

    /// Like [`FieldLoad::load_narrow`] for any width (IPv6 addresses).
    #[inline]
    fn load_wide(&self, frame: &[u8], headers: &ParsedHeaders, regs: &Regs) -> Option<u128> {
        if let LoadSource::Frame {
            layer,
            offset,
            len: 16,
        } = self.source
        {
            let start = layer.start(headers) + usize::from(offset);
            let bytes: [u8; 16] = frame.get(start..start + 16)?.try_into().ok()?;
            return Some(u128::from_be_bytes(bytes));
        }
        self.load_narrow(frame, headers, regs).map(u128::from)
    }
}

/// Big-endian integer of a 1/2/4/6-byte header field.
#[inline]
fn be_uint(bytes: &[u8]) -> u64 {
    match *bytes {
        [a] => u64::from(a),
        [a, b] => u64::from(u16::from_be_bytes([a, b])),
        [a, b, c, d] => u64::from(u32::from_be_bytes([a, b, c, d])),
        [a, b, c, d, e, f] => u64::from_be_bytes([0, 0, a, b, c, d, e, f]),
        _ => bytes.iter().fold(0, |v, b| (v << 8) | u64::from(*b)),
    }
}

/// One field of a compound key: its load, key width and global mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyPart {
    pub(crate) load: FieldLoad,
    pub(crate) width: u32,
    pub(crate) mask: u128,
}

/// The key builder of a hash/LPM template: "the code runs together relevant
/// header fields into a single key, applies the global mask" — a straight
/// run of pre-resolved loads, in 64-bit arithmetic when the key fits.
#[derive(Debug, Clone)]
pub struct KeyLoader {
    pub(crate) parts: Box<[KeyPart]>,
    /// Protocol bits every part needs, checked once per key.
    pub(crate) required: ProtoMask,
    /// True when the whole key fits 64 bits: the template's table is then
    /// built with 64-bit keys.
    pub(crate) narrow: bool,
}

impl KeyLoader {
    /// Builds the compound key of a packet for a [`KeyLoader::narrow`]
    /// template, in 64-bit arithmetic; `None` when a required layer is
    /// missing.
    #[inline]
    pub(crate) fn key64(&self, frame: &[u8], headers: &ParsedHeaders, regs: &Regs) -> Option<u64> {
        if !headers.mask.contains(self.required) {
            return None;
        }
        let mut key = 0u64;
        for part in &*self.parts {
            let value = part.load.load_narrow(frame, headers, regs)? & part.mask as u64;
            key = key.checked_shl(part.width).unwrap_or(0) | value;
        }
        Some(key)
    }

    /// [`KeyLoader::key64`] for a key of up to 128 bits.
    #[inline]
    pub(crate) fn key128(
        &self,
        frame: &[u8],
        headers: &ParsedHeaders,
        regs: &Regs,
    ) -> Option<u128> {
        if !headers.mask.contains(self.required) {
            return None;
        }
        let mut key = 0u128;
        for part in &*self.parts {
            let value = part.load.load_wide(frame, headers, regs)? & part.mask;
            key = key.checked_shl(part.width).unwrap_or(0) | value;
        }
        Some(key)
    }

    /// Packs an entry's per-field values (in part order) the way
    /// [`KeyLoader::key64`] and [`KeyLoader::key128`] pack a packet's.
    pub(crate) fn pack(&self, values: &[FieldValue]) -> u128 {
        self.parts
            .iter()
            .zip(values)
            .fold(0u128, |key, (part, value)| {
                key.checked_shl(part.width).unwrap_or(0) | (value & part.mask)
            })
    }
}

/// One table's burst-local state: its trampoline guard, taken on first use,
/// and the lookups to flush at burst end. The guard fills through `&self`, so
/// hits borrowed from one table stay valid while later packets lock further
/// tables.
#[derive(Default)]
struct Held<'a> {
    table: OnceCell<RwLockReadGuard<'a, CompiledTable>>,
    lookups: Cell<u64>,
}

impl<'a> Held<'a> {
    /// The table behind `slot`, locking its trampoline if this burst has not
    /// yet; counts one lookup.
    #[inline]
    fn table(&self, slot: &'a TableSlot) -> &CompiledTable {
        self.lookups.set(self.lookups.get() + 1);
        self.table.get_or_init(|| slot.table.read())
    }
}

/// Runs `f` over `n` default cells of burst-local scratch, one per table
/// slot. Up to 16 they live on the stack, in an array sized to the pipeline
/// (a one-table pipeline does not set up and tear down sixteen); wider
/// pipelines pay one heap block per burst.
#[inline]
fn with_cells<T: Default, R>(n: usize, f: impl FnOnce(&[T]) -> R) -> R {
    #[inline]
    fn on_stack<T: Default, R, const N: usize>(f: impl FnOnce(&[T]) -> R) -> R {
        f(&std::array::from_fn::<T, N, _>(|_| T::default()))
    }
    match n {
        0..=1 => on_stack::<T, R, 1>(f),
        2..=4 => on_stack::<T, R, 4>(f),
        5..=16 => on_stack::<T, R, 16>(f),
        _ => f(&(0..n).map(|_| T::default()).collect::<Box<[T]>>()),
    }
}

impl CompiledDatapath {
    /// Processes a burst, appending one verdict per packet to `verdicts`
    /// (cleared first); a single packet is the burst of one. See the module
    /// docs for the burst contract: every trampoline guard taken is released
    /// before this returns, so callers hand punted packets to a controller
    /// only afterwards. The datapath is shared read-only across shards; each
    /// caller threads its own shard-local tracker, so the compiled program
    /// stays immutable while connection state stays unshared.
    pub fn process_burst_ct(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        verdicts.clear();
        verdicts.reserve(packets.len());
        // One guard cell and one write-set cell per slot: a packet visits a
        // table at most once (gotos only go forward), so it collects at most
        // that many sets.
        let slots = self.slots.len();
        with_cells(slots, |held: &[Held]| {
            with_cells(slots, |write_sets| {
                let (mut bytes, mut punted, mut punted_bytes) = (0u64, 0u64, 0u64);
                for packet in packets.iter_mut() {
                    bytes += packet.len() as u64;
                    let verdict = self.walk(packet, held, write_sets, ct);
                    if verdict.to_controller {
                        punted += 1;
                        punted_bytes += packet.len() as u64;
                    }
                    verdicts.push(verdict);
                }
                self.stats
                    .processed
                    .record_batch(packets.len() as u64, bytes);
                if punted > 0 {
                    self.stats.punted.record_batch(punted, punted_bytes);
                }
                for (slot, held) in self.slots.iter().zip(held) {
                    if held.lookups.get() > 0 {
                        slot.lookups.record_batch(held.lookups.get(), 0);
                    }
                }
            })
        })
    }

    /// One packet's table walk over the burst's held tables. `write_sets`
    /// is scratch for the write-action sets the packet accumulates, as
    /// borrows of the held tables.
    #[inline]
    fn walk<'a, 'h>(
        &'a self,
        packet: &mut Packet,
        held: &'h [Held<'a>],
        write_sets: &[Cell<Option<&'h CompiledActionSet>>],
        ct: &mut dyn ConnCtx,
    ) -> Verdict {
        let depth = self.parser.depth();
        let mut verdict = Verdict::default();
        let mut regs = Regs {
            in_port: packet.in_port,
            ..Default::default()
        };
        // The packet's one parse is the RX stage's; cut to this pipeline's
        // depth it is what the parser template would produce. A packet that
        // came through no RX stage is parsed here.
        let mut headers = match packet.parsed() {
            Some(stamp) => stamp.at_depth(depth),
            None => self.parser.parse(packet.data()),
        };
        let mut written = 0;

        let mut next = self.entry;
        // The stages of a decomposed table share its id: one table visited.
        let mut table = None;
        while let Some(index) = next {
            let slot = &self.slots[index];
            if table != Some(slot.id) {
                table = Some(slot.id);
                verdict.tables_visited += 1;
            }
            match held[index]
                .table(slot)
                .lookup(packet.data(), &headers, &regs)
            {
                Some(instrs) => {
                    if instrs.clear_set {
                        written = 0;
                    }
                    if let Some(apply) = &instrs.apply {
                        if apply.execute_ct(packet, &mut headers, depth, &mut verdict, ct) {
                            // Stateful deny: drop, discarding any forwarding
                            // decisions merged so far; keep the accounting.
                            return Verdict {
                                tables_visited: verdict.tables_visited,
                                entries_examined: verdict.entries_examined,
                                ..Verdict::default()
                            };
                        }
                    }
                    if let Some(set) = &instrs.write_set {
                        write_sets[written].set(Some(set));
                        written += 1;
                    }
                    if let Some((value, mask)) = instrs.metadata {
                        regs.metadata = (regs.metadata & !mask) | (value & mask);
                    }
                    if instrs.to_controller {
                        verdict.to_controller = true;
                        verdict.punt_reason = PacketInReason::Action;
                    }
                    next = instrs.goto_slot;
                }
                // A miss that ends the walk drops (or punts) the packet as it
                // is: the accumulated action set is not executed.
                None => match slot.miss {
                    TableMissBehavior::Continue if index + 1 < self.slots.len() => {
                        next = Some(index + 1);
                    }
                    TableMissBehavior::ToController => {
                        verdict.to_controller = true;
                        return verdict;
                    }
                    TableMissBehavior::Drop | TableMissBehavior::Continue => return verdict,
                },
            }
        }

        // Execute the accumulated write-action sets: modifiers in order, then
        // the last forwarding decision (OpenFlow action-set semantics).
        let written = write_sets[..written].iter().filter_map(Cell::get);
        for set in written.clone() {
            set.execute_modifiers(packet, &mut headers, depth);
        }
        match written.rev().find_map(|s| s.output_action()) {
            Some(CompiledAction::Output(p)) => verdict.outputs.push(*p),
            Some(CompiledAction::Flood) => verdict.flood = true,
            Some(CompiledAction::ToController) => {
                verdict.to_controller = true;
                verdict.punt_reason = PacketInReason::Action;
            }
            _ => {}
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::ct::NoCt;
    use openflow::flow_match::FlowMatch;
    use openflow::{Action, Field, FlowEntry, FlowKey, Instruction, Pipeline};
    use pkt::builder::PacketBuilder;
    use pkt::parser::{parse, ParseDepth};

    #[test]
    fn wide_pipelines_keep_their_scratch_on_the_heap() {
        // 40 chained tables, each adding a write-action set: more slots than
        // `with_cells` keeps on the stack. Same answer as the interpreter,
        // every table counted once per packet.
        const TABLES: u32 = 40;
        let mut pipeline = Pipeline::with_tables(TABLES);
        for id in 0..TABLES {
            let mut instructions = vec![Instruction::WriteActions(vec![
                Action::SetField(Field::IpDscp, u128::from(id % 64)),
                Action::Output(id),
            ])];
            if id + 1 < TABLES {
                instructions.push(Instruction::GotoTable(id + 1));
            }
            pipeline.table_mut(id).unwrap().insert(FlowEntry::new(
                FlowMatch::any(),
                1,
                instructions,
            ));
        }
        let datapath = crate::compile::compile(&pipeline).unwrap();

        let mut burst: Vec<Packet> = (0..5)
            .map(|i| PacketBuilder::tcp().tcp_dst(80 + i).build())
            .collect();
        let mut reference = burst.clone();
        let mut verdicts = Vec::new();
        datapath.process_burst_ct(&mut burst, &mut verdicts, &mut NoCt);
        for ((packet, verdict), expected) in burst.iter().zip(&verdicts).zip(&mut reference) {
            let want = pipeline.process_ct(expected, &mut NoCt);
            assert_eq!(verdict.decision(), want.decision());
            assert_eq!(verdict.outputs, vec![TABLES - 1]);
            assert_eq!(verdict.tables_visited, TABLES);
            assert_eq!(packet.data(), expected.data());
        }
        for slot in datapath.slots() {
            assert_eq!(slot.lookups.packets(), 5, "table {}", slot.id);
        }
    }

    #[test]
    fn key_loader_packs_packets_like_entries() {
        let packet = PacketBuilder::tcp()
            .eth_dst([2, 0, 0, 0, 0, 9])
            .eth_src([2, 0, 0, 0, 0, 7])
            .ipv4_dst([192, 0, 2, 9])
            .tcp_dst(443)
            .in_port(5)
            .build();
        let headers = parse(packet.data(), ParseDepth::L4);
        let flow = FlowKey::extract(&packet);
        let regs = Regs {
            in_port: 5,
            metadata: u64::MAX - 1,
            ..Default::default()
        };
        let full = |fields: &[Field]| -> Vec<(Field, FieldValue)> {
            fields.iter().map(|f| (*f, f.full_mask())).collect()
        };
        // A 64-bit-or-less key, a wider one, and single fields that fill the
        // accumulator exactly (the shift-by-width edge).
        for fields in [
            full(&[Field::InPort, Field::Ipv4Dst]),
            full(&[Field::IpProto, Field::Ipv4Dst, Field::TcpDst]),
            full(&[Field::EthDst, Field::EthSrc, Field::InPort]),
            full(&[Field::Metadata]),
            vec![(Field::Ipv4Dst, 0xffff_ff00), (Field::IpDscp, 0x3f)],
        ] {
            let loader = KeyLoader::for_fields(&fields);
            let values: Vec<FieldValue> = fields
                .iter()
                .map(|(f, _)| match f {
                    Field::Metadata => FieldValue::from(regs.metadata),
                    f => flow.get(*f).unwrap(),
                })
                .collect();
            assert_eq!(
                loader.key128(packet.data(), &headers, &regs),
                Some(loader.pack(&values)),
                "{fields:?}"
            );
            assert_eq!(
                loader.narrow,
                fields.iter().map(|(f, _)| f.width_bits()).sum::<u32>() <= 64
            );
            if loader.narrow {
                assert_eq!(
                    loader.key64(packet.data(), &headers, &regs).map(u128::from),
                    Some(loader.pack(&values)),
                    "{fields:?}"
                );
            }
        }
        // A missing layer or an unmodelled field yields no key.
        assert_eq!(
            KeyLoader::for_fields(&full(&[Field::UdpDst])).key64(packet.data(), &headers, &regs),
            None
        );
        assert_eq!(
            KeyLoader::for_fields(&full(&[Field::SctpDst])).key64(packet.data(), &headers, &regs),
            None
        );
    }
}
