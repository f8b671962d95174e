//! The one interface every execution of a pipeline implements.
//!
//! The paper compares three executions of one OpenFlow pipeline: the direct
//! interpreter of §2.1 ([`DirectDatapath`](crate::DirectDatapath)), the
//! compiled ESWITCH templates and the OVS cache hierarchy. Each implements
//! [`Datapath`] with exactly one burst entry; the per-packet and stateless
//! forms are provided on top of it as bursts of one, so a caller — a
//! differential suite, a figure harness, the benchmark's oracle — can hold
//! the executions in one list and adding an execution or a check is one edit.

use std::cell::Cell;

use pkt::Packet;

use crate::ct::{ConnCtx, NoCt};
use crate::flow_mod::{FlowMod, FlowModEffect, FlowModError};
use crate::pipeline::Verdict;

/// A switch that executes a pipeline and accepts flow-mods.
pub trait Datapath: Send + Sync {
    /// Processes `packets` in place, clearing `verdicts` first and then
    /// appending one verdict per packet, in order. `ct` is the caller's
    /// connection tracker ([`NoCt`] for stateless pipelines): it is threaded
    /// per burst, never owned by the datapath, so connection state stays
    /// with the shard that owns the packets.
    ///
    /// Punts are handed to the datapath's controller before this returns.
    /// The packet-in carries the verdict's
    /// [`punt_reason`](Verdict::punt_reason) and the ingress frame. Two
    /// known exceptions, both in the OVS implementation (ROADMAP item 2(e)):
    /// it hands up the forwarded (rewritten) frame, and a packet that hits a
    /// cached miss-to-controller megaflow is not handed up again.
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    );

    /// Applies a flow-mod to the pipeline this datapath executes.
    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError>;

    /// One packet without a connection tracker: the burst of one.
    fn process(&self, packet: &mut Packet) -> Verdict {
        self.process_ct(packet, &mut NoCt)
    }

    /// One packet with a connection tracker: the burst of one. The verdict
    /// buffer is a per-thread one reused across calls, so a warmed-up
    /// per-packet caller allocates no more than the burst path does.
    fn process_ct(&self, packet: &mut Packet, ct: &mut dyn ConnCtx) -> Verdict {
        thread_local! {
            static VERDICTS: Cell<Vec<Verdict>> = const { Cell::new(Vec::new()) };
        }
        // Taken, not borrowed: a controller that re-enters the datapath
        // finds an empty buffer and allocates its own.
        let mut verdicts = VERDICTS.take();
        self.process_burst(std::slice::from_mut(packet), &mut verdicts, ct);
        let verdict = verdicts.pop().expect("one verdict per packet");
        VERDICTS.set(verdicts);
        verdict
    }
}
