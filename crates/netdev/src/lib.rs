//! # netdev — DPDK-analogue substrate
//!
//! The ESWITCH prototype of the paper runs on top of the Intel DataPlane
//! Development Kit: poll-mode ports, burst RX/TX, the `rte_lpm` DIR-24-8
//! longest-prefix-match library and assorted lock-free rings. None of that is
//! available (or wanted) in a portable reproduction, so this crate provides
//! the equivalent in-process substrate the datapaths and benchmarks run on:
//!
//! * [`ring`] — bounded single-producer/single-consumer and multi-producer
//!   rings used to back ports and inter-core queues (the `rte_ring` analogue),
//! * [`port`] — polled ports with vectored burst receive/transmit
//!   (`recvmmsg`/`sendmmsg`-shaped `_into` APIs), the conventional burst
//!   size, and per-port statistics (the `rte_ethdev` analogue),
//! * [`classify`] — a pre-RSS match program for steering special traffic to
//!   designated shards (the software `SO_REUSEPORT` + eBPF analogue),
//! * [`lpm`] — a DIR-24-8 longest-prefix-match table, the same layout as
//!   `rte_lpm`, backing the ESWITCH LPM table template,
//! * [`flat_hash`] — one flat open-addressed table with bounded displacement
//!   (one hash, one probe), backing the compound-hash table template,
//! * [`fxhash`] — the multiply-rotate hash the cache hot paths key on
//!   (SipHash setup/finalisation dominates at flow-key sizes),
//! * [`stats`] — shared atomic packet/byte/drop counters,
//! * [`sync`] — the synchronization facade the lock-free pieces are written
//!   against: `std`/`parking_lot` types normally, the vendored loom model
//!   checker under `--cfg loom` (see README §"Concurrency verification
//!   methodology").
//!
//! See DESIGN.md §1 for why this substitution preserves the behaviours the
//! evaluation depends on.

pub mod classify;
pub mod flat_hash;
pub mod fxhash;
pub mod lpm;
pub mod port;
pub mod ring;
pub mod stats;
pub mod sync;

pub use classify::{Classifier, ClassifyAction, ClassifyRule, MatchSpec};
pub use flat_hash::FlatHash;
pub use fxhash::{fx_mix, FxBuildHasher, FxHasher};
pub use lpm::{Lpm, LpmError};
pub use port::{
    Port, PortId, PortSet, PortStats, BURST_SIZE, PORT_CONTROLLER, PORT_DROP, PORT_FLOOD,
    PORT_IN_PORT,
};
pub use ring::{MpmcRing, SpscRing};
pub use stats::{CounterSnapshot, Counters};
