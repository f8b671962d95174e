//! # shard — sharded multi-worker switch runtime with a live control plane
//!
//! The paper's Fig. 19 runs the switch on 1–5 packet-processing cores and
//! shows both architectures scaling linearly; its §3.4 update machinery only
//! matters when flow-mods race live traffic. This crate is the runtime that
//! makes both real, mirroring the deployment shape of OVS's per-PMD-thread
//! datapath (and of a DPDK ESWITCH instance). There is one runtime,
//! [`ShardedSwitch`]: `launch`, or `launch_with` the optional [`LaunchParts`]:
//!
//! * **RSS dispatch** ([`rss`], [`remap`]) — each packet's flow tuple is
//!   hashed with the extraction-time miniflow hash and the hash steers
//!   through a NIC-style 256-entry *indirection table*
//!   ([`remap::RemapTable`]) whose entries name worker shards, so one flow
//!   always lands on one shard (per-shard caches stay warm, no cross-shard
//!   flow state) and the hash rides the packet for downstream reuse.
//!   Packets travel over per-(dispatcher, shard) [`netdev::SpscRing`]s,
//!   published burst-at-a-time.
//! * **Port stages** ([`multiport`]) — a launch given its `PortSet` gets one
//!   ingress dispatcher thread per port (rx → classify → RSS into its own
//!   row of the ring matrix) and a per-port egress stage behind every worker
//!   (vectored `tx_burst` per port per drain pass).
//! * **Elastic scheduling** ([`telemetry`], [`remap`],
//!   [`rss::RssDispatcher::remap_bucket`]) — workers flush batched load
//!   telemetry (busy time, pps, ring high-water); on sustained imbalance the
//!   dispatcher's rebalancer re-homes the hottest flow buckets away from the
//!   overloaded shard through a quiesce/export/import handshake that drains
//!   the old owner, migrates the bucket's conntrack and NAT state,
//!   invalidates the old replica's cached entries for exactly the moved
//!   flows, and publishes the new table epoch — no reordering within any
//!   flow, no lost connection state, no locks on the dispatch path.
//! * **Worker shards** ([`backend`], [`runtime`]) — each shard owns a
//!   datapath replica behind the [`ShardBackend`] trait: the compiled ESWITCH
//!   datapath (shared read-only, as compiled code is) or an OVS replica with
//!   *private* microflow/megaflow caches, exactly like OVS PMD threads. A
//!   shard drains its column of ingress rings in 32-packet bursts through
//!   its architecture's one zero-allocation burst entry — one worker loop,
//!   whatever the launch attached.
//! * **Control plane** ([`runtime::ShardedSwitch::flow_mod`]) — flow-mods are
//!   applied to the canonical [`openflow::Pipeline`] once, classified by the
//!   shared §3.4 update planner ([`eswitch::update`]) on the control thread,
//!   and broadcast as an epoch-stamped state via atomic `Arc` swap. An
//!   incremental edit publishes in O(1) through the touched table's
//!   trampoline; a per-table rebuild publishes a datapath that structurally
//!   shares every untouched table; only structural changes recompile the
//!   whole state. OVS epochs carry the changed rules' matches when provably
//!   selective-safe, so replicas flush only overlapping megaflows and keep
//!   disjoint EMC entries. Workers pick the new epoch up at their next burst
//!   boundary: no worker ever blocks on recompilation, and a failed
//!   compilation replays the flow-mod's undo log, leaving every shard on the
//!   old epoch.
//! * **Reactive slow path** ([`controller`]) — worker shards run punted
//!   packets through a layered admission pipeline (per-flow
//!   [`eswitch::reactive::PuntGate`], per-source and aggregate token
//!   buckets — [`eswitch::reactive::PuntAdmission`]) and enqueue the
//!   admitted punt copies (ingress frame + key + shard + epoch) onto a
//!   matrix of SPSC punt rings; N controller workers, partitioned by flow
//!   signature ([`controller::partition_of`]), each drain their own slice
//!   into the shared [`openflow::Controller`] application and route the
//!   answers back: flow-mods publish through the §3.4 planner as
//!   incremental epochs, `OFPP_TABLE` packet-outs re-inject through each
//!   worker's private RSS dispatcher so the triggering packet takes the
//!   fresh rule on the fast path. A full punt ring or an over-rate source
//!   sheds the punt *copy* (counted by reason — that packet is not
//!   duplicated up, like a real switch's bounded upcall queue, but its
//!   verdict stands) — workers never block on the controller.
//! * **Stats & shutdown** — per-shard [`netdev::Counters`] aggregate into
//!   switch-wide totals; the one shutdown joins the port dispatchers,
//!   flushes the caller's dispatcher, waits for every dispatched packet,
//!   runs the punt flow to a provable fixpoint (every punt answered, every
//!   re-injection processed), and only then joins the controller threads
//!   and the workers, so no packet — and no punt — is lost or
//!   double-counted. A wait on a dead thread panics naming it; `Drop` joins.

pub mod backend;
pub mod controller;
pub mod epoch;
pub mod multiport;
pub mod remap;
pub mod rss;
pub mod runtime;
pub mod telemetry;

pub use backend::{BackendSpec, CompiledState, ShardBackend};
pub use controller::{
    partition_of, ControllerWorkerSnapshot, Punt, ReactiveSnapshot, ReactiveStats,
};
pub use multiport::{MultiPortConfig, MultiPortSwitch};
// The admission-policy types callers need to configure a hardened launch.
pub use conntrack::{CtConfig, CtSnapshot, CtTimeouts, EvictionPolicy, LbGroup};
pub use epoch::EpochSlot;
pub use eswitch::reactive::{PuntPolicy, RateLimit};
pub use remap::{RebalanceConfig, RemapShared, RemapTable};
pub use rss::{rss_hash, rss_hash_symmetric, shard_of, RssDispatcher};
pub use runtime::{
    LaunchParts, ShardError, ShardStats, ShardedConfig, ShardedSwitch, ShutdownReport,
    UpdateClassCounts, UpdateClassStats, VerdictSink,
};
pub use telemetry::{LoadSnapshot, ShardLoad};
