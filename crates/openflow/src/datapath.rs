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
    /// A datapath owns no controller: every packet that must reach one says
    /// so in its verdict ([`to_controller`](Verdict::to_controller) and
    /// [`punt_reason`](Verdict::punt_reason)), whichever level of the
    /// datapath answered it. The synchronous controller loop,
    /// `eswitch::reactive::Reactive`, answers them after the burst (and
    /// hands the controller the ingress frame); the sharded runtime answers
    /// them asynchronously.
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

/// A boxed execution is an execution, so a list of `Box<dyn Datapath>` can
/// be wrapped whole (in a controller loop, say).
impl<D: Datapath + ?Sized> Datapath for Box<D> {
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        (**self).process_burst(packets, verdicts, ct);
    }

    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        (**self).flow_mod(fm)
    }
}
