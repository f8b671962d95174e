//! The RSS indirection table and the elastic rebalancer's planning logic.
//!
//! A NIC's receive-side scaling does not map the flow hash onto a queue
//! directly: the hash indexes a small *indirection table* (Intel's RETA)
//! whose entries name queues, so the host can re-spread load by rewriting
//! table entries without touching the hash function — and without moving
//! any flow that stays in an untouched entry. This module is that table in
//! software, sized at [`FLOW_BUCKETS`] entries (the flow-bucket unit the
//! conntrack engine already partitions NAT state by), plus the pieces the
//! elastic scheduler builds on it:
//!
//! * [`RemapTable`] — the immutable bucket → shard owner array. A remap
//!   produces a *new* table differing in exactly the moved buckets
//!   ([`RemapTable::with_owner`]), the minimal-movement property: flows in
//!   every other bucket keep their shard, their cache residency and their
//!   connection state.
//! * [`RemapShared`] — an [`EpochSlot`] publishing the current table. The
//!   main dispatcher is the sole writer; the port dispatchers and the
//!   controller workers' re-inject dispatchers are readers that poll the
//!   epoch (one `Acquire` load) and refresh at dispatch boundaries — no
//!   locks anywhere on the dispatch path.
//! * [`RebalanceConfig`] / [`Rebalancer`] — detection and planning.
//!   Detection runs on the per-shard busy-time telemetry
//!   ([`crate::telemetry::ShardLoad`]): every `check_packets` dispatched
//!   packets the rebalancer compares the busiest shard's busy-time delta
//!   against the all-shard average and arms only after the imbalance
//!   sustains `sustain` consecutive windows (hysteresis — a one-burst blip
//!   never migrates state). Planning is greedy minimal-movement: take the
//!   overloaded shard's hottest buckets (by the dispatcher's per-bucket
//!   packet window) until the projected excess is covered, capped at
//!   `max_moves` buckets per window, all re-homed to the least-loaded
//!   shard.
//!
//! The *execution* of a move — quiesce, conntrack export/import, cache
//! invalidation, table publication — is the dispatcher's job
//! ([`crate::rss::RssDispatcher::remap_bucket`]); the command/ack types the
//! handshake rides on ([`ShardCmd`], [`BucketAck`]) live here. One caveat is
//! inherited by design: a reactive (controller-driven) launch re-injects
//! packet-outs through reader dispatchers that may trail the table by one
//! epoch, so a re-injection racing a live remap can land on the flow's
//! previous owner. Stateless pipelines are placement-independent (any shard
//! computes the same verdict), and the ct-bearing workloads drive remaps
//! only through the non-reactive launch paths, where the main dispatcher's
//! synchronous handshake makes stale placement impossible.

use std::sync::Arc;

use conntrack::FLOW_BUCKETS;
use openflow::ct::CtTuple;
use openflow::flow_match::FlowMatch;
use openflow::Field;

use crate::epoch::EpochSlot;

/// The bucket → shard indirection table. Immutable once built; a remap
/// publishes a new table sharing nothing but its values (256 entries — the
/// clone is control-plane work, never on the dispatch path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapTable {
    /// `owners[b]` = the shard owning flow bucket `b`. `u16` bounds the
    /// runtime at 65k shards, far beyond any launch.
    owners: Vec<u16>,
}

impl RemapTable {
    /// The launch-time table: buckets spread contiguously over `shards`
    /// (`owner(b) = b * shards / FLOW_BUCKETS`), the same bias-free
    /// multiply-shift spread the direct reduction produced — so a static
    /// (never-rebalanced) run behaves like the pre-table runtime.
    pub fn uniform(shards: usize) -> RemapTable {
        let shards = shards.max(1);
        RemapTable {
            owners: (0..FLOW_BUCKETS)
                .map(|b| (b * shards / FLOW_BUCKETS) as u16)
                .collect(),
        }
    }

    /// The shard owning `bucket`.
    #[inline]
    pub fn owner(&self, bucket: usize) -> usize {
        usize::from(self.owners[bucket])
    }

    /// The shard a flow hash steers to: bucket index by multiply-shift on
    /// the high bits (`conntrack::bucket_of`), then one table load.
    #[inline]
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        self.owner(conntrack::bucket_of(hash))
    }

    /// A new table identical but for `bucket`, now owned by `shard` — the
    /// minimal-movement remap step.
    pub fn with_owner(&self, bucket: usize, shard: usize) -> RemapTable {
        let mut owners = self.owners.clone();
        owners[bucket] = shard as u16;
        RemapTable { owners }
    }

    /// The buckets `shard` currently owns.
    pub fn buckets_of(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter(move |(_, o)| usize::from(**o) == shard)
            .map(|(b, _)| b)
    }

    /// Bucket counts per shard (diagnostics / tests).
    pub fn shard_counts(&self, shards: usize) -> Vec<usize> {
        let mut counts = vec![0usize; shards];
        for owner in &self.owners {
            counts[usize::from(*owner)] += 1;
        }
        counts
    }
}

/// The shared publication point for the indirection table: an epoch-stamped
/// slot with a one-`Acquire`-load staleness probe. The main dispatcher
/// publishes; port and re-inject dispatchers and diagnostics read.
#[derive(Debug)]
pub struct RemapShared {
    slot: EpochSlot<RemapTable>,
}

impl RemapShared {
    /// A shared slot holding the uniform table for `shards` as epoch 0.
    pub fn new(shards: usize) -> RemapShared {
        RemapShared {
            slot: EpochSlot::new(Arc::new(RemapTable::uniform(shards))),
        }
    }

    /// The latest published table epoch (0 = the launch-time uniform table).
    pub fn epoch(&self) -> u64 {
        self.slot.epoch()
    }

    /// Clones out the current table.
    pub fn load(&self) -> Arc<RemapTable> {
        self.slot.load()
    }

    /// Publishes `table` as `epoch`. The sole caller is the main
    /// dispatcher's remap handshake, which serialises publications by being
    /// single-threaded.
    pub(crate) fn publish(&self, epoch: u64, table: Arc<RemapTable>) {
        self.slot.publish(epoch, table);
    }
}

/// When and how aggressively the dispatcher rebalances. `None` in
/// [`crate::runtime::ShardedConfig`] disables rebalancing entirely (the
/// table stays static); `Some(RebalanceConfig::default())` is the tuned
/// elephant-flow profile the skew benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Dispatched packets per observation window. Each window closes with
    /// one telemetry read and (rarely) a plan.
    pub check_packets: u64,
    /// Trigger threshold: the busiest shard's busy-time delta must exceed
    /// `imbalance_ratio ×` the all-shard average delta.
    pub imbalance_ratio: f64,
    /// Consecutive over-threshold windows required before acting —
    /// hysteresis against one-burst blips.
    pub sustain: u32,
    /// Most buckets moved per plan. Each move is a full quiesce + state
    /// transfer, so this bounds the per-window disruption.
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            check_packets: 16 * 1024,
            imbalance_ratio: 1.25,
            sustain: 2,
            max_moves: 8,
        }
    }
}

/// Detection + planning state, owned by the dispatcher. Stateless about the
/// table (passed in per plan); stateful about telemetry (busy-time deltas
/// need a previous reading) and hysteresis.
#[derive(Debug)]
pub(crate) struct Rebalancer {
    pub(crate) config: RebalanceConfig,
    /// Busy-nanos reading per shard at the previous window close.
    last_busy: Vec<u64>,
    /// Consecutive windows the imbalance trigger has held.
    sustained: u32,
}

impl Rebalancer {
    pub(crate) fn new(config: RebalanceConfig, shards: usize) -> Rebalancer {
        Rebalancer {
            config,
            last_busy: vec![0; shards],
            sustained: 0,
        }
    }

    /// Closes one observation window: `busy` is the cumulative per-shard
    /// busy-nanos telemetry, `counts` the dispatcher's per-bucket packet
    /// counts for the window. Returns the moves to execute, `(bucket,
    /// new_owner)`, possibly empty.
    pub(crate) fn plan(
        &mut self,
        table: &RemapTable,
        busy: &[u64],
        counts: &[u64],
    ) -> Vec<(usize, usize)> {
        let shards = busy.len();
        let mut deltas = Vec::with_capacity(shards);
        for (shard, total) in busy.iter().enumerate() {
            deltas.push(total.saturating_sub(self.last_busy[shard]));
            self.last_busy[shard] = *total;
        }
        if shards < 2 {
            return Vec::new();
        }
        let total: u64 = deltas.iter().sum();
        if total == 0 {
            self.sustained = 0;
            return Vec::new();
        }
        let avg = total as f64 / shards as f64;
        let (hot, hot_delta) = deltas
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|(_, d)| *d)
            .expect("at least two shards");
        if (hot_delta as f64) < self.config.imbalance_ratio * avg {
            self.sustained = 0;
            return Vec::new();
        }
        self.sustained += 1;
        if self.sustained < self.config.sustain {
            return Vec::new();
        }
        self.sustained = 0;

        let (cold, _) = deltas
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, d)| *d)
            .expect("at least two shards");
        // Greedy minimal movement: shed the hot shard's hottest buckets
        // until the projected busy share it loses covers its excess over
        // the average. Packet counts proxy busy time per bucket — exact
        // enough for a greedy plan that re-evaluates next window anyway.
        let mut owned: Vec<(usize, u64)> = table
            .buckets_of(hot)
            .map(|b| (b, counts[b]))
            .filter(|(_, c)| *c > 0)
            .collect();
        if owned.len() <= 1 {
            // One live bucket (or none): the imbalance is a single flow
            // bucket, indivisible by construction. Moving it would only
            // shift the hot spot, so leave it pinned.
            return Vec::new();
        }
        owned.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let hot_packets: u64 = owned.iter().map(|(_, c)| c).sum();
        let excess = (hot_delta as f64 - avg).max(0.0) / hot_delta as f64;
        let shed_target = (hot_packets as f64 * excess) as u64;
        let mut moves = Vec::with_capacity(self.config.max_moves);
        let mut shed = 0u64;
        for (bucket, count) in owned {
            if shed >= shed_target || moves.len() >= self.config.max_moves {
                break;
            }
            // Never empty the hot shard completely: keep its last bucket.
            if moves.len() + 1 >= table.buckets_of(hot).count() {
                break;
            }
            moves.push((bucket, cold));
            shed += count;
        }
        moves
    }
}

/// A bucket-migration command on a shard's SPSC command ring (dispatcher →
/// worker). Handled strictly between bursts.
pub(crate) enum ShardCmd {
    /// Drain `bucket`'s connections (and NAT allocators) out of the private
    /// engine, invalidate the backend's cached entries for the moved flows,
    /// and ack with the state.
    Export { bucket: usize },
    /// Install a previously exported bucket into the private engine.
    Import { state: Box<conntrack::BucketExport> },
}

/// A worker's reply on its SPSC ack ring (worker → dispatcher).
pub(crate) struct BucketAck {
    pub(crate) bucket: usize,
    /// `Some` for export acks (the drained state); `None` for import acks.
    pub(crate) state: Option<Box<conntrack::BucketExport>>,
}

/// An exact-5-tuple [`FlowMatch`] for one conntrack tuple — what the worker
/// hands `ShardBackend::invalidate_flows` per moved connection (both
/// directions), so an OVS replica flushes exactly the moved flows' EMC and
/// megaflow entries.
pub(crate) fn exact_tuple_match(t: &CtTuple) -> FlowMatch {
    const UDP: u8 = 17;
    let (src_field, dst_field) = if t.proto == UDP {
        (Field::UdpSrc, Field::UdpDst)
    } else {
        (Field::TcpSrc, Field::TcpDst)
    };
    FlowMatch::any()
        .with_exact(Field::IpProto, u128::from(t.proto))
        .with_exact(Field::Ipv4Src, u128::from(t.src_ip))
        .with_exact(Field::Ipv4Dst, u128::from(t.dst_ip))
        .with_exact(src_field, u128::from(t.src_port))
        .with_exact(dst_field, u128::from(t.dst_port))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spreads_contiguously_and_fully() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let table = RemapTable::uniform(shards);
            let counts = table.shard_counts(shards);
            assert_eq!(counts.iter().sum::<usize>(), FLOW_BUCKETS);
            // Every shard owns a near-equal contiguous run.
            for (shard, count) in counts.iter().enumerate() {
                let ideal = FLOW_BUCKETS / shards;
                assert!(
                    (ideal..=ideal + 1).contains(count),
                    "shard {shard} owns {count} buckets of {FLOW_BUCKETS} over {shards}"
                );
            }
            // Ownership is monotone in the bucket index (contiguity).
            for b in 1..FLOW_BUCKETS {
                assert!(table.owner(b) >= table.owner(b - 1));
            }
        }
    }

    #[test]
    fn with_owner_moves_exactly_one_bucket() {
        let table = RemapTable::uniform(4);
        let moved = table.with_owner(3, 2);
        for b in 0..FLOW_BUCKETS {
            if b == 3 {
                assert_eq!(moved.owner(b), 2);
            } else {
                assert_eq!(moved.owner(b), table.owner(b), "bucket {b} must not move");
            }
        }
    }

    #[test]
    fn shared_slot_publishes_epochs() {
        let shared = RemapShared::new(2);
        assert_eq!(shared.epoch(), 0);
        let next = Arc::new(shared.load().with_owner(0, 1));
        shared.publish(1, Arc::clone(&next));
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.load().owner(0), 1);
    }

    #[test]
    fn rebalancer_requires_sustained_imbalance() {
        let table = RemapTable::uniform(2);
        let mut reb = Rebalancer::new(RebalanceConfig::default(), 2);
        let mut counts = vec![0u64; FLOW_BUCKETS];
        for b in table.buckets_of(0) {
            counts[b] = 10;
        }
        // Window 1: heavy imbalance — armed, but not yet acted on.
        assert!(reb.plan(&table, &[1_000_000, 10_000], &counts).is_empty());
        // Window 2 balanced: hysteresis resets.
        assert!(reb.plan(&table, &[1_100_000, 110_000], &counts).is_empty());
        // Two hot windows in a row: now it acts.
        assert!(reb.plan(&table, &[2_100_000, 120_000], &counts).is_empty());
        let moves = reb.plan(&table, &[3_100_000, 130_000], &counts);
        assert!(!moves.is_empty());
        for (bucket, to) in &moves {
            assert_eq!(table.owner(*bucket), 0, "only hot-shard buckets move");
            assert_eq!(*to, 1, "moves target the least-loaded shard");
        }
        assert!(moves.len() <= RebalanceConfig::default().max_moves);
    }

    #[test]
    fn rebalancer_moves_hottest_buckets_first() {
        let table = RemapTable::uniform(2);
        let config = RebalanceConfig {
            sustain: 1,
            max_moves: 2,
            ..RebalanceConfig::default()
        };
        let mut reb = Rebalancer::new(config, 2);
        let mut counts = vec![0u64; FLOW_BUCKETS];
        counts[0] = 5;
        counts[1] = 500; // the elephant
        counts[2] = 50;
        let moves = reb.plan(&table, &[1_000_000, 1_000], &counts);
        assert_eq!(moves.first(), Some(&(1, 1)), "elephant bucket moves first");
        assert!(moves.len() <= 2);
    }

    #[test]
    fn rebalancer_never_splits_a_single_bucket() {
        // All load in one bucket: indivisible, so no move can help.
        let table = RemapTable::uniform(2);
        let config = RebalanceConfig {
            sustain: 1,
            ..RebalanceConfig::default()
        };
        let mut reb = Rebalancer::new(config, 2);
        let mut counts = vec![0u64; FLOW_BUCKETS];
        counts[7] = 10_000;
        assert!(reb.plan(&table, &[5_000_000, 1_000], &counts).is_empty());
    }

    #[test]
    fn exact_tuple_match_pins_the_five_tuple() {
        let t = CtTuple {
            proto: 6,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 1234,
            dst_port: 80,
        };
        let m = exact_tuple_match(&t);
        assert_eq!(m.fields().len(), 5);
    }
}
