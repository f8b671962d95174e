//! # eswitch — dataplane specialization for OpenFlow software switching
//!
//! This crate is the primary contribution of the reproduced paper: a switch
//! architecture that *compiles* the configured OpenFlow pipeline into a
//! specialized fast path assembled from pre-fabricated templates, instead of
//! pushing every packet through a general-purpose flow cache.
//!
//! The compilation pipeline mirrors §3 of the paper:
//!
//! 1. **Flow table analysis** ([`analysis`]) — recognise, for every flow
//!    table, the most efficient *table template* whose prerequisite it
//!    satisfies, falling back along the chain of Fig. 4:
//!    direct code → compound hash → LPM → linked list.
//! 2. **Table decomposition** ([`decompose`]) — split a table that would
//!    only fit the slow linked-list template into an equivalent chain of
//!    template-friendly stages (Figs. 5–6 and the Appendix hardness result),
//!    compiled in the table's place when the model charges it less.
//! 3. **Template specialization & linking** ([`compile`]) — patch flow keys
//!    into the matcher/table templates, deduplicate action sets, and link
//!    `goto_table` jumps through per-table trampolines so individual tables
//!    can later be swapped atomically.
//! 4. **Runtime** ([`runtime`]) — execute the compiled datapath, apply
//!    flow-mods with per-table granularity (incremental where the template
//!    allows, side-by-side rebuild + trampoline swap otherwise), and keep
//!    serving packets during updates. Punts are only reported in the
//!    verdicts; [`reactive::Reactive`] answers them for any execution.
//! 5. **Performance model** ([`perfmodel`]) — compose per-template cycle
//!    "atoms" into whole-datapath estimates (Fig. 20) and lower/upper packet
//!    rate bounds (Figs. 13 and 16).
//!
//! ```
//! use eswitch::runtime::EswitchRuntime;
//! use openflow::{Action, Datapath, Field, FlowEntry, FlowMatch, Pipeline};
//! use openflow::instruction::terminal_actions;
//! use pkt::builder::PacketBuilder;
//!
//! // A one-table L2 pipeline compiles into the compound-hash template.
//! let mut pipeline = Pipeline::with_tables(1);
//! pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
//!     FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001),
//!     10,
//!     terminal_actions(vec![Action::Output(1)]),
//! ));
//! let switch = EswitchRuntime::compile(pipeline).unwrap();
//! let mut packet = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 1]).build();
//! assert_eq!(switch.process(&mut packet).outputs, vec![1]);
//! ```

pub mod analysis;
pub mod compile;
pub mod decompose;
pub mod fastpath;
pub mod perfmodel;
pub mod reactive;
pub mod runtime;
pub mod templates;
pub mod update;

pub use analysis::TemplateKind;
pub use compile::{compile, CompileError, CompiledDatapath};
pub use decompose::decompose_table;
pub use perfmodel::{CacheLevelCosts, PerformanceEstimate, PerformanceModel};
pub use reactive::{
    punt_signature, DecisionCounts, DecisionSink, DecisionStats, IngressSnapshot, PuntGate,
    Reactive,
};
pub use runtime::EswitchRuntime;
pub use update::{UpdateClass, UpdateCounter};

/// Test helper: one packet through a compiled datapath, the burst of one.
#[cfg(test)]
pub(crate) fn process_one(
    datapath: &CompiledDatapath,
    packet: &mut pkt::Packet,
) -> openflow::Verdict {
    let mut verdicts = Vec::with_capacity(1);
    datapath.process_burst_ct(
        std::slice::from_mut(packet),
        &mut verdicts,
        &mut openflow::NoCt,
    );
    verdicts.pop().expect("one verdict per packet")
}
