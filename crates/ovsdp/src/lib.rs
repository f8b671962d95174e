//! # ovsdp — the flow-caching (Open vSwitch architecture) baseline
//!
//! The paper evaluates ESWITCH against Open vSwitch, "the flagship OpenFlow
//! softswitch", whose datapath is a four-level cache hierarchy (Fig. 2):
//!
//! 1. **microflow cache** — a per-transport-connection exact-match store,
//! 2. **megaflow cache** — a wildcard-match store searched with tuple space
//!    search, holding traffic aggregates computed by the slow path; each
//!    subtable is OVS's `dpcls`, probed with the masked miniflow words,
//! 3. **`vswitchd`** — the full OpenFlow pipeline, consulted on megaflow
//!    misses; besides deciding the packet's fate it *un-wildcards* every
//!    field (and, with prefix tracking, every bit) it consulted, and installs
//!    the resulting megaflow,
//! 4. **the controller** — the last resort for packets the pipeline punts.
//!    The datapath reports each punt in its verdict; the controller loop
//!    that answers it (`eswitch::reactive::Reactive`) is shared with the
//!    other executions.
//!
//! This crate re-implements that architecture over the same `openflow`
//! pipeline model the ESWITCH compiler consumes, so the two datapaths can be
//! compared on identical workloads. The comparison is meant to be fair, so
//! the fast path pays what OVS's pays: the EMC keys on miniflows of `u64`
//! words ([`minikey`]) and takes its set from the hash's top bits, a megaflow
//! hit is promoted into the EMC with OVS's default probability of 1 in 100
//! ([`microflow::EMC_INSERT_INV_PROB`]) rather than on every hit, and the
//! per-level hit counters are published once per burst, not per packet.
//! The behaviours the paper attributes OVS's performance regressions to are
//! reproduced deliberately:
//!
//! * megaflow masks depend on which rules the slow path had to examine, so
//!   the cache contents depend on packet arrival order (Fig. 3),
//! * the caches are bounded and evict, so large active-flow sets push
//!   processing down the hierarchy (Fig. 14) and throughput collapses to the
//!   slow-path rate (Fig. 13),
//! * a flow-table change invalidates the caches (§2.3, footnote 2), which is
//!   what hurts update-intensive workloads (Fig. 18). Here the change is
//!   selective wherever it can be proven sound — only megaflows overlapping
//!   a changed rule go, and their EMC entries with them — and the full flush
//!   is kept for changes that match a field rewritten upstream of the
//!   changed table (see [`datapath::delta_is_selective`]).

pub mod datapath;
pub mod mask;
pub mod megaflow;
pub mod microflow;
pub mod minikey;
pub mod program;
pub mod slowpath;

pub use datapath::{CacheStats, OvsConfig, OvsDatapath};
pub use mask::FieldMask;
pub use megaflow::MegaflowCache;
pub use microflow::MicroflowCache;
pub use minikey::MiniKey;
pub use program::Program;
pub use slowpath::{SlowPath, SlowPathResult};
