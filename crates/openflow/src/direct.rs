//! The direct datapath: a switch runtime that classifies every packet
//! directly on the flow tables.
//!
//! This is the reference-switch strategy of §2.1 of the paper ("a direct
//! datapath in the worst case loops through all flow entries in all flow
//! tables"). It is deliberately naive — its value is as ground truth and as
//! the lower baseline: the OVS caches (`ovsdp`) and the compiled templates
//! (`eswitch`) must agree with it packet-for-packet while doing far less work.

use std::sync::Arc;

use parking_lot::RwLock;

use netdev::Counters;
use pkt::Packet;

use crate::ct::ConnCtx;
use crate::datapath::Datapath;
use crate::flow_mod::{apply_flow_mod, FlowMod, FlowModEffect, FlowModError};
use crate::pipeline::{Pipeline, Verdict};

/// A switch built around direct (uncached, uncompiled) pipeline lookup.
pub struct DirectDatapath {
    pipeline: Arc<RwLock<Pipeline>>,
    /// Packets processed.
    pub processed: Counters,
}

impl DirectDatapath {
    /// Creates a datapath over the given pipeline.
    pub fn new(pipeline: Pipeline) -> Self {
        DirectDatapath {
            pipeline: Arc::new(RwLock::new(pipeline)),
            processed: Counters::new(),
        }
    }

    /// Shared handle to the pipeline (read-mostly).
    pub fn pipeline(&self) -> Arc<RwLock<Pipeline>> {
        Arc::clone(&self.pipeline)
    }

    /// Applies a flow-mod to the pipeline.
    pub fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        apply_flow_mod(&mut self.pipeline.write(), fm)
    }

    /// [`Datapath::process`]; kept inherent because the frozen
    /// `benchmark/src/sut.rs` oracle calls it without importing the trait.
    pub fn process(&self, packet: &mut Packet) -> Verdict {
        Datapath::process(self, packet)
    }
}

impl Datapath for DirectDatapath {
    /// Walks each packet through the tables in arrival order.
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        verdicts.clear();
        let pipeline = self.pipeline.read();
        for packet in packets.iter_mut() {
            self.processed.record(packet.len());
            verdicts.push(pipeline.process_ct(packet, ct));
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
    use crate::field::Field;
    use crate::flow_match::FlowMatch;
    use crate::instruction::terminal_actions;
    use crate::messages::PacketInReason;
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
        assert!(!verdict.to_controller);
        assert_eq!(dp.processed.packets(), 1);
    }

    #[test]
    fn unknown_mac_punted_to_controller() {
        // The punt is reported in the verdict, as a miss; answering it is
        // the controller loop's job (`eswitch::reactive::Reactive`).
        let dp = DirectDatapath::new(l2_pipeline());
        let mut pkt = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        let verdict = dp.process(&mut pkt);
        assert!(verdict.to_controller);
        assert_eq!(verdict.punt_reason, PacketInReason::NoMatch);
        assert_eq!(dp.processed.packets(), 1);
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
}
