//! The controller side of the OpenFlow channel.
//!
//! The paper treats the controller as "the highest level of the datapath
//! hierarchy": it manages entries at the next lower level (the pipeline) and
//! serves as the last resort for packets missing that level. The access
//! gateway use case depends on this: packets of unknown users are punted, the
//! controller allocates a public IP and installs per-user NAT rules
//! reactively.

use pkt::Packet;

use crate::flow_mod::FlowMod;
use crate::messages::{PacketIn, PacketOut};

/// One decision a controller makes in response to a packet-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerDecision {
    /// Install/modify/delete a flow entry.
    FlowMod(FlowMod),
    /// Send a packet back into the dataplane.
    PacketOut(PacketOut),
    /// Do nothing (the packet is dropped).
    Drop,
}

/// A controller application reacting to packet-in events.
///
/// Implementations live with the use cases (`workloads` crate) — e.g. the
/// gateway admission controller — and in the tests; the switch runtimes only
/// need this interface.
pub trait Controller: Send {
    /// Handles a packet-in, returning any number of decisions. The switch
    /// applies flow-mods first and then packet-outs, which lets a reactive
    /// controller install a rule and re-inject the triggering packet so it
    /// takes the new rule immediately.
    fn packet_in(&mut self, event: PacketIn) -> Vec<ControllerDecision>;

    /// Number of packet-in events handled so far (for the evaluation's
    /// cache-hierarchy accounting).
    fn packet_in_count(&self) -> u64;
}

/// A controller that drops every punted packet: the answer of a purely
/// proactive deployment (L2, L3, load balancer).
#[derive(Debug, Default)]
pub struct NullController {
    seen: u64,
}

impl NullController {
    /// Creates a new drop-everything controller.
    pub fn new() -> Self {
        NullController::default()
    }
}

impl Controller for NullController {
    fn packet_in(&mut self, _event: PacketIn) -> Vec<ControllerDecision> {
        self.seen += 1;
        vec![ControllerDecision::Drop]
    }

    fn packet_in_count(&self) -> u64 {
        self.seen
    }
}

/// A controller driven by a closure; convenient for tests.
pub struct FnController<F> {
    handler: F,
    seen: u64,
}

impl<F> FnController<F>
where
    F: FnMut(PacketIn) -> Vec<ControllerDecision> + Send,
{
    /// Wraps a closure as a controller.
    pub fn new(handler: F) -> Self {
        FnController { handler, seen: 0 }
    }
}

impl<F> Controller for FnController<F>
where
    F: FnMut(PacketIn) -> Vec<ControllerDecision> + Send,
{
    fn packet_in(&mut self, event: PacketIn) -> Vec<ControllerDecision> {
        self.seen += 1;
        (self.handler)(event)
    }

    fn packet_in_count(&self) -> u64 {
        self.seen
    }
}

/// Helper for controllers that just want to flood the punted packet back out
/// (classic learning-switch behaviour before the MAC is learned).
pub fn flood_packet_out(packet: Packet) -> ControllerDecision {
    ControllerDecision::PacketOut(PacketOut::new(packet, vec![crate::action::Action::Flood]))
}

/// Helper for reactive controllers that install a rule and then re-inject
/// the triggering packet through the tables so it takes the new rule
/// immediately (the `OFPP_TABLE` packet-out).
pub fn resubmit_packet_out(packet: Packet) -> ControllerDecision {
    ControllerDecision::PacketOut(PacketOut::resubmit(packet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PacketInReason;
    use pkt::builder::PacketBuilder;

    fn event() -> PacketIn {
        PacketIn::new(PacketBuilder::udp().build(), PacketInReason::NoMatch, 0)
    }

    #[test]
    fn null_controller_drops_and_counts() {
        let mut c = NullController::new();
        assert_eq!(c.packet_in(event()), vec![ControllerDecision::Drop]);
        assert_eq!(c.packet_in(event()), vec![ControllerDecision::Drop]);
        assert_eq!(c.packet_in_count(), 2);
    }

    #[test]
    fn fn_controller_delegates() {
        let mut c = FnController::new(|pi| vec![flood_packet_out(pi.packet)]);
        let decisions = c.packet_in(event());
        assert_eq!(decisions.len(), 1);
        assert!(matches!(decisions[0], ControllerDecision::PacketOut(_)));
        assert_eq!(c.packet_in_count(), 1);
    }
}
