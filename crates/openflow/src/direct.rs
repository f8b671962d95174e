//! The direct datapath: a switch runtime that classifies every packet
//! directly on the flow tables.
//!
//! This is the reference-switch strategy of §2.1 of the paper ("a direct
//! datapath in the worst case loops through all flow entries in all flow
//! tables"). It is deliberately naive — its value is as ground truth and as
//! the lower baseline: the OVS caches (`ovsdp`) and the compiled templates
//! (`eswitch`) must agree with it packet-for-packet while doing far less work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use netdev::Counters;
use pkt::Packet;

use crate::controller::{Controller, ControllerDecision, NullController};
use crate::ct::ConnCtx;
use crate::datapath::Datapath;
use crate::flow_mod::{apply_flow_mod, FlowMod, FlowModEffect, FlowModError};
use crate::instruction::{instructions_can_punt, pipeline_can_punt};
use crate::key::FlowKey;
use crate::messages::{PacketIn, PacketInReason};
use crate::pipeline::{Pipeline, Verdict};

/// A switch built around direct (uncached, uncompiled) pipeline lookup.
pub struct DirectDatapath {
    pipeline: Arc<RwLock<Pipeline>>,
    controller: Mutex<Box<dyn Controller>>,
    /// True when some path through the pipeline can punt; grows with
    /// flow-mods and gates the ingress copy a packet-in carries.
    may_punt: AtomicBool,
    /// Packets processed.
    pub processed: Counters,
    /// Packets punted to the controller.
    pub punted: Counters,
}

impl DirectDatapath {
    /// Creates a datapath over the given pipeline with a drop-all controller.
    pub fn new(pipeline: Pipeline) -> Self {
        Self::with_controller(pipeline, Box::new(NullController::new()))
    }

    /// Creates a datapath with an explicit controller application.
    pub fn with_controller(pipeline: Pipeline, controller: Box<dyn Controller>) -> Self {
        DirectDatapath {
            may_punt: AtomicBool::new(pipeline_can_punt(&pipeline)),
            pipeline: Arc::new(RwLock::new(pipeline)),
            controller: Mutex::new(controller),
            processed: Counters::new(),
            punted: Counters::new(),
        }
    }

    /// Shared handle to the pipeline (read-mostly).
    pub fn pipeline(&self) -> Arc<RwLock<Pipeline>> {
        Arc::clone(&self.pipeline)
    }

    /// Applies a flow-mod to the pipeline.
    pub fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        let effect = apply_flow_mod(&mut self.pipeline.write(), fm)?;
        if instructions_can_punt(&fm.instructions) {
            self.may_punt.store(true, Ordering::Relaxed);
        }
        Ok(effect)
    }

    /// [`Datapath::process`]; kept inherent because the frozen
    /// `benchmark/src/sut.rs` oracle calls it without importing the trait.
    pub fn process(&self, packet: &mut Packet) -> Verdict {
        Datapath::process(self, packet)
    }

    /// Runs the controller application for a punted packet.
    fn handle_packet_in(&self, packet: Packet, reason: PacketInReason) {
        let decisions = {
            let mut controller = self.controller.lock();
            controller.packet_in(PacketIn::new(packet, reason, 0))
        };
        for decision in decisions {
            match decision {
                ControllerDecision::FlowMod(fm) => {
                    let _ = self.flow_mod(&fm);
                }
                ControllerDecision::PacketOut(mut po) => {
                    // Re-inject: apply the action list directly.
                    let mut key = FlowKey::extract(&po.packet);
                    let _ = crate::action::apply_action_list(&po.actions, &mut po.packet, &mut key);
                }
                ControllerDecision::Drop => {}
            }
        }
    }

    /// Number of packet-in events the controller has handled.
    pub fn controller_packet_ins(&self) -> u64 {
        self.controller.lock().packet_in_count()
    }
}

impl Datapath for DirectDatapath {
    /// Walks each packet through the tables in arrival order. A punted
    /// packet is handed to the controller synchronously, with its ingress
    /// frame and the verdict's reason, and any flow-mods the controller
    /// answers with apply before the next packet (reactive provisioning).
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        verdicts.clear();
        for packet in packets.iter_mut() {
            self.processed.record(packet.len());
            let ingress = self
                .may_punt
                .load(Ordering::Relaxed)
                .then(|| packet.clone());
            let verdict = self.pipeline.read().process_ct(packet, ct);
            if verdict.to_controller {
                self.punted.record(packet.len());
                // `may_punt` over-approximates the pipeline, so a punt
                // implies the copy exists.
                let original = ingress.unwrap_or_else(|| packet.clone());
                self.handle_packet_in(original, verdict.punt_reason);
            }
            verdicts.push(verdict);
        }
    }

    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        DirectDatapath::flow_mod(self, fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::controller::FnController;
    use crate::field::Field;
    use crate::flow_match::FlowMatch;
    use crate::instruction::terminal_actions;
    use crate::table::TableMissBehavior;
    use pkt::builder::PacketBuilder;

    fn l2_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.miss = TableMissBehavior::ToController;
        t.insert(crate::entry::FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001),
            10,
            terminal_actions(vec![Action::Output(1)]),
        ));
        p
    }

    #[test]
    fn known_mac_is_forwarded() {
        let dp = DirectDatapath::new(l2_pipeline());
        let mut pkt = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 1]).build();
        let verdict = dp.process(&mut pkt);
        assert_eq!(verdict.outputs, vec![1]);
        assert_eq!(dp.processed.packets(), 1);
        assert_eq!(dp.punted.packets(), 0);
    }

    #[test]
    fn unknown_mac_punted_to_controller() {
        let dp = DirectDatapath::new(l2_pipeline());
        let mut pkt = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        let verdict = dp.process(&mut pkt);
        assert!(verdict.to_controller);
        assert_eq!(dp.punted.packets(), 1);
        assert_eq!(dp.controller_packet_ins(), 1);
    }

    #[test]
    fn reactive_controller_installs_rules() {
        // The controller installs a forwarding rule for every punted MAC, so
        // the second packet to the same destination is switched in the fast
        // path without controller involvement.
        let controller = FnController::new(|pi| {
            let key = FlowKey::extract(&pi.packet);
            vec![ControllerDecision::FlowMod(FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst)),
                10,
                terminal_actions(vec![Action::Output(2)]),
            ))]
        });
        let dp = DirectDatapath::with_controller(l2_pipeline(), Box::new(controller));

        let mut first = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        assert!(dp.process(&mut first).to_controller);

        let mut second = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        let verdict = dp.process(&mut second);
        assert_eq!(verdict.outputs, vec![2]);
        assert!(!verdict.to_controller);
        assert_eq!(dp.controller_packet_ins(), 1);
    }

    #[test]
    fn batch_processing_matches_single() {
        let dp = DirectDatapath::new(l2_pipeline());
        let mut packets: Vec<Packet> = (0..10)
            .map(|i| {
                PacketBuilder::udp()
                    .eth_dst([2, 0, 0, 0, 0, u8::from(i % 2 == 0)])
                    .build()
            })
            .collect();
        let mut singles = packets.clone();
        let mut verdicts = Vec::new();
        dp.process_burst(&mut packets, &mut verdicts, &mut crate::ct::NoCt);
        assert_eq!(verdicts.len(), 10);
        assert_eq!(verdicts.iter().filter(|v| v.outputs == vec![1]).count(), 5);
        for (single, burst) in singles.iter_mut().zip(&verdicts) {
            assert_eq!(dp.process(single), *burst);
        }
    }

    #[test]
    fn packet_in_carries_the_ingress_frame_and_the_reason() {
        // An explicit output-to-controller after a rewrite: the controller
        // sees the frame as it arrived, reported as an action punt.
        let mut p = l2_pipeline();
        p.table_mut(0).unwrap().insert(crate::entry::FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0002),
            10,
            terminal_actions(vec![
                Action::SetField(Field::IpDscp, 42),
                Action::ToController,
            ]),
        ));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let controller = FnController::new(move |pi: PacketIn| {
            sink.lock().push((pi.packet.data().to_vec(), pi.reason));
            vec![ControllerDecision::Drop]
        });
        let dp = DirectDatapath::with_controller(p, Box::new(controller));
        let ingress = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 2]).build();
        let mut packet = ingress.clone();
        assert!(dp.process(&mut packet).to_controller);
        assert_ne!(
            packet.data(),
            ingress.data(),
            "the forwarded copy is rewritten"
        );
        let mut miss = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        assert!(dp.process(&mut miss).to_controller);
        assert_eq!(
            *seen.lock(),
            vec![
                (ingress.data().to_vec(), PacketInReason::Action),
                (miss.data().to_vec(), PacketInReason::NoMatch),
            ]
        );
    }
}
