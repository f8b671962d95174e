//! # openflow — the OpenFlow pipeline model
//!
//! This crate implements the OpenFlow abstractions of §2 of the paper: match
//! fields, flow entries, flow tables, instructions and actions, the pipeline
//! (a linked hierarchy of flow tables), flow-mod handling, and the
//! controller-channel message types (PacketIn / PacketOut / FlowMod).
//!
//! It also contains the **direct datapath** reference interpreter
//! ([`direct::DirectDatapath`]): priority-ordered linear classification over
//! the flow tables themselves, the implementation strategy of the OpenFlow
//! reference switch, CPqD, xDPd and LINC. The direct datapath serves three
//! purposes here: it defines the ground-truth semantics every other datapath
//! (the OVS-style caching hierarchy in `ovsdp`, the compiled datapath in
//! `eswitch`) must agree with, it is one of the baselines of the evaluation,
//! and it is the slow path the OVS architecture falls back to.
//!
//! Pipelines are plain data ([`Pipeline`]) shared between datapaths via
//! `Arc`; datapaths never own the specification, they *realise* it. Every
//! datapath — this crate's interpreter, the compiled ESWITCH runtime, the OVS
//! caches — implements the one [`Datapath`] trait: a burst entry plus
//! flow-mods, with the per-packet forms provided as bursts of one.

pub mod action;
pub mod controller;
pub mod ct;
pub mod datapath;
pub mod direct;
pub mod entry;
pub mod field;
pub mod flow_match;
pub mod flow_mod;
pub mod instruction;
pub mod key;
pub mod messages;
pub mod pipeline;
pub mod portlist;
pub mod table;
pub mod tuple_index;

pub use action::{Action, ActionSet};
pub use controller::{Controller, ControllerDecision, NullController};
pub use ct::{ConnCtx, CtOutcome, CtTuple, CtVerb, NatSpec, NoCt};
pub use datapath::Datapath;
pub use direct::DirectDatapath;
pub use entry::FlowEntry;
pub use field::{Field, FieldValue};
pub use flow_match::{FlowMatch, MatchField};
pub use flow_mod::{FlowMod, FlowModCommand, FlowModError};
pub use instruction::Instruction;
pub use key::FlowKey;
pub use messages::{PacketIn, PacketInReason, PacketOut};
pub use pipeline::{Pipeline, PipelineError, TableId, Verdict, WalkObserver};
pub use portlist::PortList;
pub use table::{FlowTable, TableMissBehavior};
