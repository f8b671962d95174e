//! The ESWITCH runtime: compiled fast path + flow-mod handling with
//! per-table, mostly non-destructive updates (§3.4 of the paper).
//!
//! Updates are handled at three escalating granularities:
//!
//! 1. **Incremental** — templates that support in-place updates (compound
//!    hash, LPM) absorb a single-entry add/delete without rebuilding;
//! 2. **Per-table rebuild** — the affected table is recompiled side by side
//!    and swapped into its trampoline slot atomically while other tables keep
//!    serving packets (also covers template fallback when a prerequisite
//!    breaks);
//! 3. **Full recompile** — only when the pipeline's *structure* changes
//!    (a table appears or disappears) or a decomposed table changes.
//!
//! Either way the update is transactional: the flow-mod is applied to the
//! declarative pipeline first, and the compiled state is derived from it, so
//! a failed compilation leaves the previous datapath running untouched.

use std::sync::Arc;

use parking_lot::RwLock;

use openflow::ct::ConnCtx;
use openflow::flow_mod::{apply_flow_mod_undoable, FlowModEffect, FlowModError};
use openflow::{Datapath, FlowMod, Pipeline, Verdict};
use pkt::Packet;

use crate::compile::{compile, CompileError, CompiledDatapath};
use crate::update::{Absorbed, UpdateClass, UpdateCounter, UpdatePlanner};

/// Statistics about how updates were absorbed; the Fig. 17/18 harnesses read
/// these to attribute update cost. Counted in updates and flow entries
/// touched — meaningful units, unlike the traffic counters' packets/bytes.
#[derive(Debug, Default)]
pub struct UpdateStats {
    /// Flow-mods absorbed by an in-place template update.
    pub incremental: UpdateCounter,
    /// Flow-mods absorbed by rebuilding only the touched tables.
    pub table_rebuilds: UpdateCounter,
    /// Flow-mods that forced a full datapath recompilation.
    pub full_recompiles: UpdateCounter,
}

impl UpdateStats {
    /// Records one absorbed flow-mod at the given ladder tier.
    pub fn record(&self, class: UpdateClass, entries: u64) {
        match class {
            UpdateClass::Incremental => self.incremental.record(entries),
            UpdateClass::PerTable => self.table_rebuilds.record(entries),
            UpdateClass::Full => self.full_recompiles.record(entries),
        }
    }
}

/// The ESWITCH switch runtime.
pub struct EswitchRuntime {
    pipeline: RwLock<Pipeline>,
    datapath: RwLock<Arc<CompiledDatapath>>,
    /// Update accounting.
    pub updates: UpdateStats,
}

impl EswitchRuntime {
    /// Compiles `pipeline`; the compiler chooses every table's template.
    pub fn compile(pipeline: Pipeline) -> Result<Self, CompileError> {
        let datapath = compile(&pipeline)?;
        Ok(EswitchRuntime {
            pipeline: RwLock::new(pipeline),
            datapath: RwLock::new(Arc::new(datapath)),
            updates: UpdateStats::default(),
        })
    }

    /// A snapshot handle to the current compiled datapath (cheap Arc clone).
    pub fn datapath(&self) -> Arc<CompiledDatapath> {
        Arc::clone(&self.datapath.read())
    }

    /// Read access to the declarative pipeline.
    pub fn with_pipeline<R>(&self, f: impl FnOnce(&Pipeline) -> R) -> R {
        f(&self.pipeline.read())
    }

    /// The runtime's one execution entry ([`Datapath::process_burst`]; this
    /// inherent name is the one the frozen `benchmark/src/sut.rs` binds):
    /// processes a batch of packets through one datapath snapshot, appending
    /// one verdict per packet to `verdicts` (which is cleared first).
    ///
    /// The compiled-datapath handle is resolved once per batch (one
    /// `RwLock` read + `Arc` clone instead of one per packet) and so is each
    /// table's trampoline ([`CompiledDatapath::process_burst_ct`]); an update
    /// racing the batch lands in the *next* batch, which is exactly the
    /// trampoline-swap semantics of §3.4. Punts are reported in the verdicts
    /// and answered, if at all, by a [`crate::reactive::Reactive`] wrapping
    /// this runtime.
    ///
    /// `ct` is the caller's connection tracker — shard-local by construction
    /// — so the runtime itself stays free of connection state.
    pub fn process_batch_into_ct(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        self.datapath().process_burst_ct(packets, verdicts, ct);
    }

    /// Applies a flow-mod, updating the compiled datapath at the finest
    /// granularity that preserves correctness. The §3.4 ladder decision
    /// itself lives in the shared [`UpdatePlanner`]; this runtime is its one
    /// executor (the sharded control plane applies ESWITCH flow-mods through
    /// a runtime too), and it executes in place: an incremental edit or a
    /// per-table rebuild is written through the touched tables' trampolines,
    /// so a handle [`EswitchRuntime::datapath`] returned stays current; only
    /// a full recompile replaces it.
    pub fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        // The pipeline write lock is held across apply + plan + execute (and
        // a possible undo), so concurrent flow-mods serialise: one caller's
        // rollback can never clobber another caller's acknowledged change.
        // Packet processing never takes this lock — it reads `datapath` only.
        let mut pipeline = self.pipeline.write();

        // 1. Update the declarative pipeline (the source of truth), keeping
        //    the undo log so a failed compilation can roll it back without
        //    having cloned anything up front.
        let (effect, undo) = apply_flow_mod_undoable(&mut pipeline, fm)?;
        let entries = effect.entries_touched();
        if entries == 0 {
            // The flow-mod matched nothing (e.g. a non-strict delete with no
            // overlapping entries): the pipeline is unchanged, so the
            // compiled datapath is still exact — nothing to do.
            return Ok(effect);
        }

        // 2. Plan the cheapest absorbing tier; incremental edits land in
        //    the live datapath inside `absorb`, per-table rebuilds swap
        //    through the trampolines here.
        let datapath = self.datapath();
        let class = match UpdatePlanner.absorb(&pipeline, &datapath, fm, &effect) {
            Absorbed::Incremental => UpdateClass::Incremental,
            Absorbed::PerTable(rebuilt) => {
                for (id, table) in rebuilt {
                    let slot = datapath.slot(id).expect("planner checked the slot exists");
                    *slot.table.write() = table;
                }
                UpdateClass::PerTable
            }
            // 3. Structural change: full recompilation, swapped in
            //    atomically.
            Absorbed::Full => match compile(&pipeline) {
                Ok(dp) => {
                    *self.datapath.write() = Arc::new(dp);
                    UpdateClass::Full
                }
                Err(CompileError::InvalidPipeline(e)) => {
                    // Compilation failure: roll the declarative change back
                    // so the running datapath and the pipeline stay
                    // consistent (transactional updates, §3.4).
                    undo.undo(&mut pipeline);
                    return Err(FlowModError::BadGoto(e));
                }
            },
        };
        self.updates.record(class, entries);
        Ok(effect)
    }
}

impl Datapath for EswitchRuntime {
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        self.process_batch_into_ct(packets, verdicts, ct);
    }

    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        EswitchRuntime::flow_mod(self, fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TemplateKind;
    use crate::reactive::Reactive;
    use openflow::controller::FnController;
    use openflow::ct::NoCt;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{
        Action, ControllerDecision, Field, FlowEntry, FlowKey, NullController, PacketIn,
        PacketInReason,
    };
    use pkt::builder::PacketBuilder;

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

    fn mac_packet(i: u64) -> Packet {
        PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0000 + i).octets())
            .build()
    }

    #[test]
    fn incremental_hash_add_and_delete() {
        let switch = EswitchRuntime::compile(l2_pipeline(32)).unwrap();
        assert_eq!(
            switch.datapath().template_kinds(),
            vec![(0, TemplateKind::CompoundHash)]
        );

        // Unknown MAC drops (catch-all).
        assert!(switch.process(&mut mac_packet(500)).is_drop());

        // Add it incrementally.
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0000u64 + 500)),
            10,
            terminal_actions(vec![Action::Output(3)]),
        );
        switch.flow_mod(&fm).unwrap();
        assert_eq!(switch.updates.incremental.updates(), 1);
        assert_eq!(switch.updates.table_rebuilds.updates(), 0);
        assert_eq!(switch.process(&mut mac_packet(500)).outputs, vec![3]);

        // Strict delete, also incremental.
        let del = FlowMod::delete_strict(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0000u64 + 500)),
            10,
        );
        switch.flow_mod(&del).unwrap();
        assert_eq!(switch.updates.incremental.updates(), 2);
        assert!(switch.process(&mut mac_packet(500)).is_drop());
    }

    #[test]
    fn non_strict_delete_rebuilds_table() {
        let switch = EswitchRuntime::compile(l2_pipeline(32)).unwrap();
        let del = FlowMod::delete(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0001u64)),
        );
        switch.flow_mod(&del).unwrap();
        assert_eq!(switch.updates.table_rebuilds.updates(), 1);
        assert!(switch.process(&mut mac_packet(1)).is_drop());
        assert_eq!(switch.process(&mut mac_packet(2)).outputs, vec![2]);
    }

    #[test]
    fn prerequisite_violation_falls_back_to_another_template() {
        // Adding a port-matching entry to a MAC hash table breaks the global
        // mask prerequisite: the table would fall to the linked list, so the
        // compiler decomposes it into a chain of fast templates, which keeps
        // answering correctly. Because the new entry also deepens the
        // required parser (L2 -> L4), this change is a full recompile.
        let switch = EswitchRuntime::compile(l2_pipeline(32)).unwrap();
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            50,
            terminal_actions(vec![Action::Output(9)]),
        );
        switch.flow_mod(&fm).unwrap();
        assert_eq!(switch.updates.full_recompiles.updates(), 1);
        let datapath = switch.datapath();
        assert!(datapath.chain(0).is_some(), "table 0 not decomposed");
        let kinds = datapath.template_kinds();
        assert!(kinds.len() > 1);
        assert!(kinds
            .iter()
            .all(|(_, kind)| *kind != TemplateKind::LinkedList));
        // The controller's pipeline still has its one table.
        switch.with_pipeline(|p| assert_eq!(p.table_count(), 1));

        let mut http = PacketBuilder::tcp().tcp_dst(80).build();
        assert_eq!(switch.process(&mut http).outputs, vec![9]);
        assert_eq!(switch.process(&mut mac_packet(2)).outputs, vec![2]);

        // A flow-mod on the decomposed table lands in a full recompile.
        let del = FlowMod::delete(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0003u64)),
        );
        switch.flow_mod(&del).unwrap();
        assert_eq!(switch.updates.full_recompiles.updates(), 2);
        assert_eq!(switch.updates.table_rebuilds.updates(), 0);
        assert_eq!(switch.updates.incremental.updates(), 0);
        assert!(switch.process(&mut mac_packet(3)).is_drop());
        assert_eq!(switch.process(&mut mac_packet(2)).outputs, vec![2]);
    }

    #[test]
    fn flow_mod_with_deeper_action_field_escalates_past_incremental() {
        // Regression: a flow-mod whose *match* fits the compiled template
        // shape but whose *actions* write a deeper header (SetField(IpDscp)
        // on an L2-compiled datapath) used to be absorbed incrementally,
        // leaving the L2-only parser in place — the compiled set-field then
        // silently no-opped while the declarative pipeline rewrote packets.
        let switch = EswitchRuntime::compile(l2_pipeline(32)).unwrap();
        assert_eq!(
            switch.datapath().parser().depth(),
            pkt::parser::ParseDepth::L2
        );

        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0000u64 + 700)),
            10,
            terminal_actions(vec![Action::SetField(Field::IpDscp, 10), Action::Output(3)]),
        );
        switch.flow_mod(&fm).unwrap();
        assert_eq!(switch.updates.incremental.updates(), 0);
        assert_eq!(switch.updates.full_recompiles.updates(), 1);
        assert!(switch.datapath().parser().depth() >= pkt::parser::ParseDepth::L3);

        // The compiled fast path must now actually rewrite the packet,
        // agreeing with the reference interpreter.
        let mut compiled = mac_packet(700);
        let verdict = switch.process(&mut compiled);
        assert_eq!(verdict.outputs, vec![3]);
        let mut reference = mac_packet(700);
        switch.with_pipeline(|p| p.process_ct(&mut reference, &mut NoCt));
        assert_eq!(compiled.data(), reference.data());
        // TOS byte = DSCP << 2 right after the 14-byte Ethernet header.
        assert_eq!(compiled.data()[15], 10 << 2);
    }

    #[test]
    fn structural_change_forces_full_recompile() {
        let switch = EswitchRuntime::compile(l2_pipeline(8)).unwrap();
        // Install an entry into a table that did not exist at compile time.
        let fm = FlowMod::add(
            5,
            FlowMatch::any(),
            1,
            terminal_actions(vec![Action::Output(1)]),
        );
        switch.flow_mod(&fm).unwrap();
        assert_eq!(switch.updates.full_recompiles.updates(), 1);
        assert!(switch.datapath().slot(5).is_some());
    }

    #[test]
    fn failed_recompilation_rolls_the_pipeline_back() {
        // A structural flow-mod whose entry jumps to a nonexistent table
        // forces the full-recompile tier, which must fail — and the
        // declarative pipeline must be restored so the running datapath and
        // the pipeline stay consistent (§3.4's transactional updates).
        let switch = EswitchRuntime::compile(l2_pipeline(8)).unwrap();
        let fm = FlowMod::add(
            5,
            FlowMatch::any(),
            1,
            vec![openflow::Instruction::GotoTable(99)],
        );
        assert!(switch.flow_mod(&fm).is_err());
        assert_eq!(switch.updates.full_recompiles.updates(), 0);
        switch.with_pipeline(|p| {
            assert!(p.table(5).is_none(), "failed flow-mod left table 5 behind");
            assert!(p.validate().is_ok());
        });
        // The switch keeps forwarding with the old datapath.
        assert_eq!(switch.process(&mut mac_packet(2)).outputs, vec![2]);
    }

    /// A Fig. 5a-style table missing into the next table: the compiler
    /// decomposes it, and its chain's stages take the internal ids 1, 2, …
    /// — ids a controller may use for its own tables later.
    fn fig5_continue_pipeline() -> Pipeline {
        let mut p = Pipeline::new();
        p.add_table(crate::decompose::tests::fig5_continue_table());
        p
    }

    fn assert_agrees_with_interpreter(switch: &EswitchRuntime) {
        for (i, packet) in crate::decompose::tests::fig5_packets().iter().enumerate() {
            let compiled = switch.process(&mut packet.clone()).decision();
            let reference =
                switch.with_pipeline(|p| p.process_ct(&mut packet.clone(), &mut NoCt).decision());
            assert_eq!(compiled, reference, "probe {i}");
        }
    }

    #[test]
    fn controller_table_at_a_stage_id_is_never_planned_into_the_stage() {
        let switch = EswitchRuntime::compile(fig5_continue_pipeline()).unwrap();
        let stages = switch.datapath().slots().len();
        assert!(switch.datapath().chain(0).is_some() && stages > 1);
        assert!(switch.datapath().slot(1).is_none(), "a stage id leaked");

        // Table 1 is a new controller table: a structural change, recompiled
        // whole, with table 0's chain still in front of it.
        let add = |port: u16, out: u32| {
            FlowMod::add(
                1,
                FlowMatch::any().with_exact(Field::TcpDst, u128::from(port)),
                10,
                terminal_actions(vec![Action::Output(out)]),
            )
        };
        switch.flow_mod(&add(443, 9)).unwrap();
        assert_eq!(switch.updates.full_recompiles.updates(), 1);
        let datapath = switch.datapath();
        assert!(datapath.chain(0).is_some());
        assert_eq!(datapath.slots().len(), stages + 1);
        assert_eq!(datapath.slot(1).unwrap().id, 1);
        assert_eq!(datapath.slot(1).unwrap().table.read().len(), 1);
        assert_agrees_with_interpreter(&switch);
        let mut https = PacketBuilder::tcp()
            .ipv4_dst([10, 0, 0, 4])
            .tcp_dst(443)
            .build();
        assert_eq!(switch.process(&mut https).outputs, vec![9]);

        // The next flow-mod on table 1 lands in table 1's own slot.
        switch.flow_mod(&add(8080, 7)).unwrap();
        assert_eq!(switch.updates.full_recompiles.updates(), 1);
        assert_eq!(switch.updates.table_rebuilds.updates(), 1);
        assert_eq!(datapath.slot(1).unwrap().table.read().len(), 2);
        let chain_entries: Vec<usize> = datapath.slots()[..stages]
            .iter()
            .map(|s| s.table.read().len())
            .collect();
        let fresh = EswitchRuntime::compile(switch.with_pipeline(Pipeline::clone)).unwrap();
        let fresh_entries: Vec<usize> = fresh.datapath().slots()[..stages]
            .iter()
            .map(|s| s.table.read().len())
            .collect();
        assert_eq!(chain_entries, fresh_entries, "a stage took the flow-mod");
        assert_agrees_with_interpreter(&switch);
    }

    #[test]
    fn failed_recompilation_after_a_decomposed_table_flow_mod_rolls_back() {
        // A flow-mod on the decomposed table always takes the full tier; a
        // dangling goto fails it, and the pipeline is restored.
        let switch = EswitchRuntime::compile(fig5_continue_pipeline()).unwrap();
        let before = switch.datapath();
        let entries = switch.with_pipeline(Pipeline::entry_count);
        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 443),
            99,
            vec![openflow::Instruction::GotoTable(99)],
        );
        assert!(switch.flow_mod(&fm).is_err());
        assert_eq!(switch.updates.full_recompiles.updates(), 0);
        switch.with_pipeline(|p| {
            assert_eq!(p.entry_count(), entries);
            assert!(p.validate().is_ok());
        });
        assert!(Arc::ptr_eq(&before, &switch.datapath()));
        assert_agrees_with_interpreter(&switch);
    }

    #[test]
    fn update_counters_report_entries_touched() {
        let switch = EswitchRuntime::compile(l2_pipeline(32)).unwrap();
        // A wildcard delete removing two entries counts one per-table update
        // touching two entries.
        let del = FlowMod::delete(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0001u64)),
        );
        switch.flow_mod(&del).unwrap();
        assert_eq!(switch.updates.table_rebuilds.updates(), 1);
        assert_eq!(switch.updates.table_rebuilds.entries(), 1);

        let add = FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0900u64)),
            10,
            terminal_actions(vec![Action::Output(1)]),
        );
        switch.flow_mod(&add).unwrap();
        assert_eq!(switch.updates.incremental.updates(), 1);
        assert_eq!(switch.updates.incremental.entries(), 1);
    }

    #[test]
    fn lpm_incremental_updates() {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        for i in 0..16u32 {
            // Mixed prefix lengths keep the table a genuine LPM table (a
            // uniform-mask table would legitimately prefer the hash template).
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
        let switch = EswitchRuntime::compile(p).unwrap();
        assert_eq!(
            switch.datapath().template_kinds(),
            vec![(0, TemplateKind::Lpm)]
        );

        let mut pkt = PacketBuilder::udp().ipv4_dst([172, 16, 0, 1]).build();
        assert!(switch.process(&mut pkt).is_drop());

        let fm = FlowMod::add(
            0,
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([172, 16, 0, 0])),
                12,
            ),
            12,
            terminal_actions(vec![Action::Output(7)]),
        );
        switch.flow_mod(&fm).unwrap();
        assert_eq!(switch.updates.incremental.updates(), 1);
        let mut pkt = PacketBuilder::udp().ipv4_dst([172, 16, 0, 1]).build();
        assert_eq!(switch.process(&mut pkt).outputs, vec![7]);
    }

    #[test]
    fn packets_flow_during_updates_from_another_thread() {
        // A burst holds its tables' trampoline guards until it ends; a
        // flow-mod thread editing the same table must still get in between
        // back-to-back bursts (no writer starvation), and both bursts and
        // single packets must keep forwarding known flows correctly
        // meanwhile. The loop ends once the updater has landed its quota
        // *while it runs*, or — a failure — when the deadline passes.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        const UPDATES: u64 = 200;
        let switch = Arc::new(EswitchRuntime::compile(l2_pipeline(64)).unwrap());
        let stop = Arc::new(AtomicBool::new(false));

        let updater = {
            let switch = Arc::clone(&switch);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 1000u64;
                while !stop.load(Ordering::Relaxed) {
                    let fm = FlowMod::add(
                        0,
                        FlowMatch::any()
                            .with_exact(Field::EthDst, u128::from(0x0200_0000_0000 + i)),
                        10,
                        terminal_actions(vec![Action::Output(1)]),
                    );
                    switch.flow_mod(&fm).unwrap();
                    i += 1;
                }
            })
        };

        let ingress: Vec<Packet> = (0..32).map(mac_packet).collect();
        let mut verdicts = Vec::new();
        let mut packets = 0u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        while switch.updates.incremental.updates() < UPDATES && Instant::now() < deadline {
            let mut burst = ingress.clone();
            switch.process_burst(&mut burst, &mut verdicts, &mut NoCt);
            for (i, verdict) in verdicts.iter().enumerate() {
                assert_eq!(verdict.outputs, vec![i as u32 % 4]);
            }
            assert_eq!(switch.process(&mut mac_packet(5)).outputs, vec![1]); // 5 % 4
            packets += ingress.len() as u64 + 1;
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
        let landed = switch.updates.incremental.updates();
        assert!(
            landed >= UPDATES,
            "flow-mods starved: {landed} landed while {packets} packets ran"
        );
        assert_eq!(switch.datapath().stats.processed.packets(), packets);
    }

    // The three tests below run the runtime under the controller loop,
    // `Reactive`, which answers the punts its verdicts report.

    #[test]
    fn deferred_batch_punts_carry_ingress_frame_and_reason() {
        // Regression: punts are answered at burst end, after processing has
        // rewritten the burst's frames in place. The deferred PacketIn must
        // carry each punted packet's *ingress* bytes and its faithful reason
        // — here packet 0 is rewritten (SetField) and then punted by an
        // explicit ToController action, while packet 1 punts via a plain
        // table miss later in the same burst.
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().miss = openflow::TableMissBehavior::ToController;
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            10,
            terminal_actions(vec![
                Action::SetField(Field::IpDscp, 42),
                Action::ToController,
            ]),
        ));
        let seen: Arc<parking_lot::Mutex<Vec<PacketIn>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let controller = FnController::new(move |pi: PacketIn| {
            sink.lock().push(pi);
            vec![ControllerDecision::Drop]
        });
        let switch = Reactive::new(EswitchRuntime::compile(p).unwrap(), Box::new(controller));

        let mut batch = vec![
            PacketBuilder::tcp().tcp_dst(80).build(),
            PacketBuilder::udp().udp_dst(53).build(),
        ];
        let ingress: Vec<Packet> = batch.clone();
        let mut verdicts = Vec::new();
        switch.process_burst(&mut batch, &mut verdicts, &mut NoCt);
        assert!(verdicts[0].to_controller && verdicts[1].to_controller);

        // The forwarded packet 0 was rewritten in place (TOS byte = DSCP<<2
        // right behind the 14-byte Ethernet header)...
        assert_eq!(batch[0].data()[15], 42 << 2);
        assert_ne!(batch[0].data(), ingress[0].data());

        // ...but both deferred packet-ins carry the ingress frames and the
        // faithful reasons.
        let events = seen.lock();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].packet.data(), ingress[0].data());
        assert_eq!(events[0].reason, PacketInReason::Action);
        assert_eq!(events[1].packet.data(), ingress[1].data());
        assert_eq!(events[1].reason, PacketInReason::NoMatch);
    }

    #[test]
    fn duplicate_punts_of_one_flow_are_suppressed_within_a_burst() {
        // Three packets of the same missing flow plus one of another flow in
        // one burst: the punt gate admits one packet-in per flow while the
        // install is in flight and counts the rest as suppressed.
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().miss = openflow::TableMissBehavior::ToController;
        let switch = Reactive::new(
            EswitchRuntime::compile(p).unwrap(),
            Box::new(NullController::new()),
        );

        let mut batch = vec![mac_packet(1), mac_packet(1), mac_packet(1), mac_packet(2)];
        switch.process_burst(&mut batch, &mut Vec::new(), &mut NoCt);
        assert_eq!(switch.stats().packet_ins, 2, "one packet-in per flow");
        assert_eq!(switch.punt_gate().admitted(), 2);
        assert_eq!(switch.punt_gate().suppressed(), 2);
        // The installs (here: drops) completed, so the flows re-arm: the
        // next miss punts again.
        let mut again = vec![mac_packet(1)];
        switch.process_burst(&mut again, &mut Vec::new(), &mut NoCt);
        assert_eq!(switch.stats().packet_ins, 3);
    }

    #[test]
    fn reactive_controller_populates_tables() {
        // A miss-to-controller pipeline where the controller installs MAC
        // rules reactively; the second packet takes the compiled fast path.
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().miss = openflow::TableMissBehavior::ToController;
        let controller = FnController::new(|pi: PacketIn| {
            let key = FlowKey::extract(&pi.packet);
            vec![ControllerDecision::FlowMod(FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst)),
                10,
                terminal_actions(vec![Action::Output(2)]),
            ))]
        });
        let switch = Reactive::new(EswitchRuntime::compile(p).unwrap(), Box::new(controller));

        let mut first = mac_packet(42);
        assert!(switch.process(&mut first).to_controller);
        let mut second = mac_packet(42);
        let verdict = switch.process(&mut second);
        assert_eq!(verdict.outputs, vec![2]);
        assert!(!verdict.to_controller);
        assert_eq!(switch.stats().packet_ins, 1);
        assert_eq!(switch.stats().flow_mods, 1);
    }
}
