//! RSS-style dispatch: hash a packet's flow tuple through the indirection
//! table onto a worker shard.
//!
//! A NIC with receive-side scaling hashes each packet's 5-tuple in hardware,
//! steers it through a small indirection table (Intel's RETA) to a per-core
//! RX queue and delivers hash and packet type in the RX descriptor. This
//! module is that stage in software: [`rss_hash`] mixes the flow
//! discriminators straight from the frame at the offsets of the packet's
//! parse (no flow key is built), the hash indexes a
//! [`crate::remap::RemapTable`] bucket whose entry names the shard, and
//! [`RssDispatcher`] stamps hash and parse on the packet (so the OVS burst
//! path's grouping and both datapaths reuse them), stages packets per shard
//! and publishes each burst with one tail release.
//!
//! Hashing the flow tuple (not round-robin) is what keeps one flow on one
//! shard: per-shard EMC/megaflow caches stay warm and no flow ever needs
//! cross-shard state. A *bucket remap* moves that ownership deliberately:
//! [`RssDispatcher::remap_bucket`] runs the quiesce handshake — flush and
//! drain the old owner, export the bucket's connection state, publish the
//! new table, import on the new owner — so a flow's packets are never in
//! flight to two shards at once (no reordering) and its conntrack/NAT state
//! arrives before its first packet does. Harnesses that replay a fixed flow
//! set can precompute each prototype's hash once and use
//! [`RssDispatcher::dispatch_hashed`], mirroring the hardware split where
//! the hash costs the host nothing.

use std::fmt::Display;
use std::sync::Arc;
use std::thread::JoinHandle;

use conntrack::{bucket_of, FLOW_BUCKETS};
use netdev::sync::atomic::Ordering;
use netdev::{fx_mix, SpscRing, BURST_SIZE};
use openflow::ct::CtTuple;
use pkt::{Packet, ProtoMask};

use crate::multiport::Ingress;
use crate::remap::{BucketAck, Rebalancer, RemapShared, RemapTable, ShardCmd};
use crate::runtime::ShardStats;
use crate::telemetry::ShardLoad;

/// The RSS hash of a packet: in-port, MACs, EtherType, VLAN VID, IPv4/IPv6
/// addresses, protocol, L4 ports (ICMP type/code) and the ARP body, mixed as
/// raw frame words at the offsets of the packet's parse (the RX stamp when it
/// carries one). Every packet of a flow hashes alike; the protocol mask is
/// mixed in so an absent field and a zero one do not.
pub fn rss_hash(packet: &Packet) -> u64 {
    let (frame, h) = (packet.data(), packet.headers());
    let (l3, l4) = (usize::from(h.l3_offset), usize::from(h.l4_offset));
    let tags = u64::from(h.ethertype) | u64::from(h.vlan_vid) << 16;
    let mut lane0 = fx_mix(0, u64::from(packet.in_port) | tags << 32);
    let mut lane1 = fx_mix(0x9e37_79b9_7f4a_7c15, word::<8>(frame, 0));
    lane0 = fx_mix(lane0, word::<4>(frame, 8));
    if h.has_ipv4() {
        lane1 = fx_mix(lane1, word::<8>(frame, l3 + 12));
    } else if h.mask.contains(ProtoMask::IPV6) {
        lane1 = fx_mix(lane1, word::<8>(frame, l3 + 8) ^ word::<8>(frame, l3 + 16));
        lane0 = fx_mix(lane0, word::<8>(frame, l3 + 24) ^ word::<8>(frame, l3 + 32));
    } else if h.mask.contains(ProtoMask::ARP) {
        // Operation and sender MAC, sender IP, target MAC and IP.
        lane1 = fx_mix(lane1, word::<8>(frame, l3 + 6));
        lane0 = fx_mix(lane0, word::<4>(frame, l3 + 14));
        lane1 = fx_mix(lane1, word::<8>(frame, l3 + 20));
    }
    let l4_word = if h.has_tcp() || h.has_udp() {
        word::<4>(frame, l4)
    } else if h.mask.contains(ProtoMask::ICMP) {
        word::<2>(frame, l4)
    } else {
        0
    };
    let protos = u64::from(h.ip_proto) | u64::from(h.mask.0) << 8;
    lane0 = fx_mix(lane0, l4_word | protos << 32);
    fx_mix(lane0, lane1)
}

/// `N <= 8` frame bytes at `at` as one little-endian word; 0 past the end.
#[inline]
fn word<const N: usize>(frame: &[u8], at: usize) -> u64 {
    frame.get(at..at + N).map_or(0, |bytes| {
        let mut le = [0u8; 8];
        le[..N].copy_from_slice(bytes);
        u64::from_le_bytes(le)
    })
}

/// Direction-insensitive RSS: both directions of one connection hash alike,
/// so a stateful (conntrack) pipeline sees a flow's requests *and* replies on
/// one shard and connection state stays strictly shard-local (NIC
/// symmetric-Toeplitz configurations do the same). The mix *is*
/// [`conntrack::symmetric_tuple_hash`], the function that defines the
/// flow-bucket migration unit, so a connection's dispatch bucket and its
/// conntrack bucket agree by construction. Frames conntrack ignores (not
/// TCP/UDP over IPv4) fall back to [`rss_hash`].
pub fn rss_hash_symmetric(packet: &Packet) -> u64 {
    match CtTuple::from_frame(packet.data(), &packet.headers()) {
        Some(t) => conntrack::symmetric_tuple_hash(&t),
        None => rss_hash(packet),
    }
}

/// Maps an RSS hash directly onto one of `shards` indices. Multiply-shift
/// on the high bits instead of a modulo: the grouping hash mixes its
/// entropy into the high word, and the reduction stays bias-free for any
/// shard count. The *dispatcher* steers through the indirection table
/// instead; this direct reduction remains for hash-partitioning jobs with
/// no table (controller-worker partitioning, tests).
pub fn shard_of(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((u128::from(hash) * shards as u128) >> 64) as usize
}

/// A runtime thread's handle, shared by the switch (which joins it) and its
/// main dispatcher (whose waits check it is still alive).
pub(crate) type Thread = Arc<JoinHandle<()>>;

/// The elastic-scheduling side of a launched main dispatcher: the shared
/// table slot it publishes remaps through, the per-shard command/ack rings
/// the quiesce handshake rides on, the per-shard stats (the quiesce
/// progress signal) and load telemetry (the rebalance trigger), the optional
/// rebalancer, and the threads its waits depend on — the workers and, on a
/// port-attached launch, the port dispatchers it parks.
pub(crate) struct Elastic {
    pub(crate) shared: Arc<RemapShared>,
    pub(crate) cmd: Vec<Arc<SpscRing<ShardCmd>>>,
    pub(crate) ack: Vec<Arc<SpscRing<BucketAck>>>,
    pub(crate) stats: Vec<Arc<ShardStats>>,
    pub(crate) loads: Vec<Arc<ShardLoad>>,
    pub(crate) rebalancer: Option<Rebalancer>,
    pub(crate) remaps: u64,
    /// Worker threads, indexed by shard.
    pub(crate) workers: Vec<Thread>,
    /// The port dispatchers' shared face and threads, in slot order.
    pub(crate) ingress: Option<(Arc<Ingress>, Vec<Thread>)>,
}

/// The single producer feeding every worker ring.
///
/// Owns the producer side of each shard's SPSC ring plus a per-shard staging
/// buffer. Packets accumulate in the staging buffer until a full burst is
/// ready, then the burst is published with one tail release. Delivery is
/// lossless: when a ring is full the dispatcher spins briefly, then yields
/// until the worker drains it (backpressure, not drops).
pub struct RssDispatcher {
    rings: Vec<Arc<SpscRing<Packet>>>,
    staged: Vec<Vec<Packet>>,
    dispatched: u64,
    /// Packets handed to each shard (staged or published) — the quiesce
    /// handshake's per-shard progress target.
    dispatched_to: Vec<u64>,
    symmetric: bool,
    /// The current indirection table (bucket → owning shard).
    table: Arc<RemapTable>,
    table_epoch: u64,
    /// Reader role: refresh `table` from this slot when its epoch advances
    /// (the controller workers' re-inject dispatchers).
    reader: Option<Arc<RemapShared>>,
    /// Writer role: the elastic machinery of a launched main dispatcher.
    elastic: Option<Elastic>,
    /// Per-bucket packets dispatched in the current observation window.
    bucket_counts: Vec<u64>,
    /// Packets since the last rebalance check.
    since_check: u64,
}

impl RssDispatcher {
    pub(crate) fn new(rings: Vec<Arc<SpscRing<Packet>>>) -> Self {
        let staged = rings
            .iter()
            .map(|_| Vec::with_capacity(BURST_SIZE))
            .collect();
        let shards = rings.len();
        RssDispatcher {
            rings,
            staged,
            dispatched: 0,
            dispatched_to: vec![0; shards],
            symmetric: false,
            table: Arc::new(RemapTable::uniform(shards)),
            table_epoch: 0,
            reader: None,
            elastic: None,
            bucket_counts: vec![0; FLOW_BUCKETS],
            since_check: 0,
        }
    }

    /// Switches this dispatcher to [`rss_hash_symmetric`] steering. The
    /// sharded launch enables it whenever the pipeline contains a conntrack
    /// action, so both directions of every connection land on one shard.
    pub(crate) fn with_symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Reader role: follow `shared`'s table publications (re-inject
    /// dispatchers). The epoch is polled at dispatch and flush boundaries —
    /// one `Acquire` load; the table itself is only reloaded on a change.
    pub(crate) fn with_reader(mut self, shared: Arc<RemapShared>) -> Self {
        self.table = shared.load();
        self.table_epoch = shared.epoch();
        self.reader = Some(shared);
        self
    }

    /// Writer role: arm the elastic machinery (the launched main
    /// dispatcher). A rebalancer in it enables automatic rebalancing;
    /// [`RssDispatcher::remap_bucket`] works either way.
    pub(crate) fn with_elastic(mut self, elastic: Elastic) -> Self {
        self.table = elastic.shared.load();
        self.table_epoch = elastic.shared.epoch();
        self.elastic = Some(elastic);
        self
    }

    /// Whether this dispatcher steers with the direction-insensitive hash.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Number of worker shards this dispatcher feeds.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Packets handed to `dispatch`/`dispatch_to` so far (staged or
    /// published).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Packets handed to each shard so far (staged or published).
    pub(crate) fn dispatched_to(&self) -> &[u64] {
        &self.dispatched_to
    }

    /// Bucket remaps executed so far (manual and rebalancer-driven).
    pub fn remaps(&self) -> u64 {
        self.elastic.as_ref().map_or(0, |e| e.remaps)
    }

    /// The current indirection-table epoch this dispatcher steers by.
    pub fn table_epoch(&self) -> u64 {
        self.table_epoch
    }

    /// The indirection table currently steering dispatch.
    pub fn table(&self) -> &RemapTable {
        &self.table
    }

    /// The steering hash of `packet` in this dispatcher's mode.
    fn hash_of(&self, packet: &Packet) -> u64 {
        if self.symmetric {
            rss_hash_symmetric(packet)
        } else {
            rss_hash(packet)
        }
    }

    /// The shard `packet` steers to under the current indirection table.
    pub fn shard_for(&self, packet: &Packet) -> usize {
        self.table.shard_of_hash(self.hash_of(packet))
    }

    /// Hashes `packet`'s flow tuple and stages it for its shard, publishing
    /// the shard's staging buffer when it reaches a full burst.
    pub fn dispatch(&mut self, mut packet: Packet) {
        packet.ensure_parsed();
        self.dispatch_hashed(self.hash_of(&packet), packet);
    }

    /// Dispatches with a precomputed RSS hash — the replay path for
    /// harnesses with a fixed flow set (hardware RSS computes the hash off
    /// the host CPU; precomputing it per prototype is the software
    /// equivalent). The hash is stamped on the packet and the indirection
    /// table picks the shard, so replayed traffic follows live remaps.
    pub fn dispatch_hashed(&mut self, hash: u64, mut packet: Packet) {
        packet.set_rss_hash(hash);
        self.refresh_table();
        let bucket = bucket_of(hash);
        self.bucket_counts[bucket] += 1;
        let shard = self.table.owner(bucket);
        self.dispatch_to(shard, packet);
        self.maybe_rebalance();
    }

    /// The classifier-steered path: a
    /// [`netdev::classify::ClassifyAction::Steer`] decision overrides the
    /// indirection table for shard *placement*, but downstream consumers
    /// (per-flow telemetry, differential harnesses keyed by hash) still need
    /// the flow hash on the packet, so it is computed and stamped exactly as
    /// [`RssDispatcher::dispatch`] would.
    pub fn dispatch_steered(&mut self, shard: usize, mut packet: Packet) {
        packet.ensure_parsed();
        packet.set_rss_hash(self.hash_of(&packet));
        self.refresh_table();
        self.dispatch_to(shard, packet);
    }

    /// Stages `packet` for an explicitly chosen shard, bypassing the hash
    /// and the indirection table entirely (fixed-placement harnesses). Every
    /// dispatch ends here, so every packet reaches its worker parsed.
    pub fn dispatch_to(&mut self, shard: usize, mut packet: Packet) {
        packet.ensure_parsed();
        self.dispatched += 1;
        self.dispatched_to[shard] += 1;
        self.staged[shard].push(packet);
        if self.staged[shard].len() >= BURST_SIZE {
            Self::publish(&self.rings[shard], &mut self.staged[shard]);
        }
    }

    /// Publishes every staged packet to its ring, blocking (spin, then
    /// yield) on full rings until the workers drain them.
    pub fn flush(&mut self) {
        self.refresh_table();
        for shard in 0..self.rings.len() {
            Self::publish(&self.rings[shard], &mut self.staged[shard]);
        }
    }

    /// Moves flow bucket `bucket` to shard `to`, running the full quiesce
    /// handshake so the move is invisible to every flow it carries:
    ///
    /// 1. **Flush + quiesce the old owner** — every switch-owned port
    ///    dispatcher parks at a burst boundary (staged packets flushed, its
    ///    per-shard dispatch counts published; they stay parked until step 4
    ///    completes), this dispatcher's staged packets are published, and it
    ///    waits until the shard's processed counter reaches everything *any*
    ///    of them dispatched to it. The counter is advanced `Release`
    ///    *after* the worker's sink calls, punt enqueues and egress flush,
    ///    so reaching the target proves every pre-move packet is fully
    ///    observed — no packet of the bucket is left in a ring or mid-burst
    ///    (in-flow ordering across the move).
    /// 2. **Export** — the old owner, strictly between bursts, drains the
    ///    bucket's connections and NAT allocators out of its engine,
    ///    invalidates its backend's cached entries for the moved flows
    ///    (EMC/megaflow on OVS), and acks with the state.
    /// 3. **Publish** — the new table (differing in exactly this bucket)
    ///    is published through the shared epoch slot; this dispatcher and
    ///    every reader now steer the bucket to `to`.
    /// 4. **Import** — the state lands in the new owner's engine, and the
    ///    dispatcher waits for the ack *before dispatching anything more*,
    ///    so the bucket's first post-move packet finds its connections (and
    ///    its NAT allocator's exact continuation) already resident.
    ///
    /// Established flows keep their verdicts and translations across the
    /// move; only the moved bucket changes owner.
    pub fn remap_bucket(&mut self, bucket: usize, to: usize) {
        assert!(bucket < FLOW_BUCKETS, "bucket out of range");
        assert!(to < self.rings.len(), "target shard out of range");
        assert!(
            self.elastic.is_some(),
            "remap_bucket on a dispatcher without the elastic machinery"
        );
        let from = self.table.owner(bucket);
        if from == to {
            return;
        }
        // 1. Quiesce the old owner.
        let elastic = self.elastic.as_ref().expect("asserted above");
        if let Some((ingress, threads)) = &elastic.ingress {
            ingress.pause.store(true, Ordering::Release);
            for (slot, thread) in ingress.slots.iter().zip(threads) {
                let mut idle = 0u32;
                while !slot.parked.load(Ordering::Acquire) {
                    let gone =
                        format_args!("port {} dispatcher died; it will never park", slot.port);
                    wait_on_thread(thread, &mut idle, gone);
                }
            }
        }
        Self::publish(&self.rings[from], &mut self.staged[from]);
        self.wait_processed(from);
        // 2. Export the bucket's state.
        Self::command(&elastic.cmd[from], ShardCmd::Export { bucket });
        let ack = Self::await_ack(&elastic.ack[from]);
        debug_assert_eq!(ack.bucket, bucket);
        let state = ack.state.expect("export ack carries the bucket state");
        // 3. Publish the remap.
        let next = Arc::new(self.table.with_owner(bucket, to));
        self.table_epoch += 1;
        self.table = Arc::clone(&next);
        let elastic = self.elastic.as_mut().expect("asserted above");
        elastic.shared.publish(self.table_epoch, next);
        // 4. Import on the new owner; only after its ack may the bucket's
        //    packets flow again (this method returns and the port
        //    dispatchers are released: dispatch resumes).
        Self::command(&elastic.cmd[to], ShardCmd::Import { state });
        let ack = Self::await_ack(&elastic.ack[to]);
        debug_assert_eq!(ack.bucket, bucket);
        elastic.remaps += 1;
        if let Some((ingress, _)) = &elastic.ingress {
            ingress.pause.store(false, Ordering::Release);
        }
    }

    /// Reader-role staleness check: one `Acquire` load; reload the table
    /// only when the epoch moved.
    fn refresh_table(&mut self) {
        if let Some(shared) = &self.reader {
            let epoch = shared.epoch();
            if epoch != self.table_epoch {
                self.table = shared.load();
                self.table_epoch = epoch;
            }
        }
    }

    /// Closes an observation window every `check_packets` dispatches:
    /// reads the busy-time telemetry, lets the rebalancer plan, and
    /// executes the plan's moves.
    fn maybe_rebalance(&mut self) {
        self.since_check += 1;
        let Some(elastic) = &mut self.elastic else {
            return;
        };
        let Some(rebalancer) = &mut elastic.rebalancer else {
            return;
        };
        if self.since_check < rebalancer.config.check_packets {
            return;
        }
        self.since_check = 0;
        let mut busy = Vec::with_capacity(elastic.loads.len());
        for load in &elastic.loads {
            busy.push(load.busy_nanos());
        }
        let moves = rebalancer.plan(&self.table, &busy, &self.bucket_counts);
        for count in self.bucket_counts.iter_mut() {
            *count = 0;
        }
        for (bucket, to) in moves {
            self.remap_bucket(bucket, to);
        }
    }

    /// Blocks until `shard`'s processed counter covers everything this
    /// dispatcher — and every (parked) port dispatcher — handed it.
    /// `Counters::record_batch` is `Release` and the read here `Acquire`, so
    /// covering the count implies observing every side effect (sink calls,
    /// punt enqueues, egress) of every covered packet.
    fn wait_processed(&self, shard: usize) {
        let elastic = self.elastic.as_ref().expect("elastic dispatcher");
        let from_ports = elastic
            .ingress
            .as_ref()
            .map_or(0, |(ingress, _)| ingress.dispatched_to(shard));
        let target = self.dispatched_to[shard] + from_ports;
        let mut idle = 0u32;
        while elastic.stats[shard].processed.packets() < target {
            let gone = format_args!("shard {shard} worker died; quiescing would hang");
            wait_on_thread(&elastic.workers[shard], &mut idle, gone);
        }
    }

    /// Pushes one command onto a shard's command ring. The handshake keeps
    /// at most one command in flight per shard, and the ring holds more, so
    /// a full ring means the worker died mid-handshake.
    fn command(ring: &Arc<SpscRing<ShardCmd>>, cmd: ShardCmd) {
        let mut slot = Some(cmd);
        let mut idle = 0u32;
        while let Err(returned) = ring.push(slot.take().expect("command present")) {
            slot = Some(returned);
            wait_on_worker(ring, &mut idle, "command ring will never drain");
        }
    }

    /// Waits for a worker's command ack.
    fn await_ack(ring: &Arc<SpscRing<BucketAck>>) -> BucketAck {
        let mut idle = 0u32;
        loop {
            if let Some(ack) = ring.pop() {
                return ack;
            }
            wait_on_worker(ring, &mut idle, "ack will never arrive");
        }
    }

    fn publish(ring: &Arc<SpscRing<Packet>>, staged: &mut Vec<Packet>) {
        let mut idle = 0u32;
        while !staged.is_empty() {
            if ring.push_burst(staged) == 0 {
                wait_on_worker(ring, &mut idle, "dispatching would hang");
            } else {
                idle = 0;
            }
        }
    }
}

/// One step of waiting for the worker on the other side of `ring`: spin
/// briefly, then yield — the worker needs CPU time, and on an
/// undersubscribed host yielding beats spinning. If the worker is *gone*
/// (panicked, or the switch was dropped without `shutdown`) nothing will
/// ever move the ring: only this dispatcher still holds it, so fail loudly
/// instead of hanging the producer thread forever.
fn wait_on_worker<T>(ring: &Arc<SpscRing<T>>, idle: &mut u32, otherwise: &str) {
    if *idle > 64 && Arc::strong_count(ring) == 1 {
        panic!("shard worker is gone; {otherwise}");
    }
    backoff(idle);
}

/// One step of a control-side wait for progress only `thread` can make (a
/// processed counter reaching a target, a dispatcher parking). A thread that
/// has exited will never make it: panic with `gone`, which names it.
pub(crate) fn wait_on_thread(thread: &JoinHandle<()>, idle: &mut u32, gone: impl Display) {
    if thread.is_finished() {
        panic!("{gone}");
    }
    backoff(idle);
}

/// Spin briefly, then yield: the thread waited on needs CPU time, and on an
/// undersubscribed host yielding beats spinning.
pub(crate) fn backoff(idle: &mut u32) {
    *idle += 1;
    if *idle < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;

    fn tcp(src: u16) -> Packet {
        PacketBuilder::tcp().tcp_dst(80).tcp_src(src).build()
    }

    #[test]
    fn same_flow_same_shard_across_instances() {
        // Determinism must hold across *independently built* packets of the
        // same flow AND across dispatcher instances — a restarted (or
        // parallel) dispatcher must agree on placement, or a flow's packets
        // would straddle shards after a failover.
        for shards in [1usize, 2, 3, 4, 7] {
            let d1 = RssDispatcher::new((0..shards).map(|_| Arc::new(SpscRing::new(64))).collect());
            let d2 = RssDispatcher::new((0..shards).map(|_| Arc::new(SpscRing::new(64))).collect());
            for src in 0..64u16 {
                let a = shard_of(rss_hash(&tcp(src)), shards);
                let b = shard_of(rss_hash(&tcp(src)), shards);
                assert_eq!(a, b, "flow affinity must be deterministic");
                assert!(a < shards);
                let p = tcp(src);
                assert_eq!(
                    d1.shard_for(&p),
                    d2.shard_for(&p),
                    "placement must agree across dispatcher instances"
                );
            }
        }
    }

    #[test]
    fn symmetric_hash_is_direction_insensitive() {
        for src in 0..256u16 {
            let forward = PacketBuilder::tcp()
                .ipv4_src([10, 0, 0, 1])
                .ipv4_dst([10, 0, 0, 2])
                .tcp_src(src)
                .tcp_dst(80)
                .build();
            let reply = PacketBuilder::tcp()
                .ipv4_src([10, 0, 0, 2])
                .ipv4_dst([10, 0, 0, 1])
                .tcp_src(80)
                .tcp_dst(src)
                .build();
            assert_eq!(
                rss_hash_symmetric(&forward),
                rss_hash_symmetric(&reply),
                "src={src}"
            );
        }
        // Distinct connections still spread.
        let mut counts = [0usize; 4];
        for src in 0..1024u16 {
            let p = PacketBuilder::tcp().tcp_src(src).tcp_dst(80).build();
            counts[shard_of(rss_hash_symmetric(&p), 4)] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (128..=512).contains(count),
                "shard {shard} got {count} of 1024 flows"
            );
        }
    }

    #[test]
    fn hash_is_per_flow_and_fills_every_bucket_evenly() {
        // Stamped or not, rebuilt or cloned: one flow, one hash. Close-by
        // flows differ (the cases of `ovsdp`'s `hash_separates_nearby_flows`).
        let mut stamped = tcp(9);
        stamped.ensure_parsed();
        assert_eq!(rss_hash(&stamped.clone()), rss_hash(&tcp(9)));
        let udp = PacketBuilder::udp().udp_dst(80).udp_src(9).build();
        let tagged = PacketBuilder::tcp().tcp_dst(80).tcp_src(9).vlan(0).build();
        for other in [tcp(10), udp, tagged] {
            assert_ne!(rss_hash(&stamped), rss_hash(&other));
        }
        // 65 536 flows over the 256 buckets: a uniform draw puts 256 ± 16 in
        // each; every bucket must sit within 4 sigma (±25 %) of the mean.
        let mut counts = [0u32; FLOW_BUCKETS];
        for flow in 0..65_536u32 {
            let [_, b, c, d] = flow.to_be_bytes();
            let builder = PacketBuilder::tcp()
                .ipv4_src([10, b, c, d])
                .in_port(flow % 4);
            let p = builder.tcp_src(1024 + (flow % 50_000) as u16).build();
            counts[bucket_of(rss_hash(&p))] += 1;
        }
        for (bucket, count) in counts.iter().enumerate() {
            assert!((192..=320).contains(count), "bucket {bucket}: {count}");
        }
    }

    #[test]
    fn table_steering_spreads_and_follows_the_table() {
        let rings: Vec<_> = (0..4).map(|_| Arc::new(SpscRing::new(2048))).collect();
        let mut d = RssDispatcher::new(rings.clone());
        let mut counts = [0usize; 4];
        for src in 0..1024u16 {
            counts[d.shard_for(&tcp(src))] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (128..=512).contains(count),
                "shard {shard} got {count} of 1024 flows through the table"
            );
        }
        // Steering actually consults the table: after rewriting it so one
        // shard owns everything, every packet lands there.
        d.table = Arc::new(RemapTable::uniform(1));
        for src in 0..64u16 {
            assert_eq!(d.shard_for(&tcp(src)), 0);
            d.dispatch(tcp(src));
        }
        d.flush();
        assert_eq!(rings[0].len(), 64);
        assert!(rings[1..].iter().all(|r| r.is_empty()));
    }

    #[test]
    fn dispatch_and_steering_stamp_hash_and_parse() {
        let rings: Vec<_> = (0..4).map(|_| Arc::new(SpscRing::new(256))).collect();
        let mut d = RssDispatcher::new(rings.clone());
        let p = tcp(42);
        let expected = Some(rss_hash(&p));
        assert_eq!((p.rss_hash(), p.parsed()), (None, None), "fresh: unstamped");
        let natural = d.shard_for(&p);
        let steered = (natural + 1) % 4;
        d.dispatch(p.clone());
        // Steering overrides placement, never the descriptor.
        d.dispatch_steered(steered, p);
        d.flush();
        for shard in [natural, steered] {
            let got = rings[shard].pop().expect("dispatched packet");
            assert_eq!(got.rss_hash(), expected, "the hash rides the packet");
            assert_eq!(got.parsed(), Some(got.headers()), "and so does the parse");
        }
        assert!(rings.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn reader_follows_published_remaps() {
        let shared = Arc::new(RemapShared::new(2));
        let rings: Vec<_> = (0..2).map(|_| Arc::new(SpscRing::new(256))).collect();
        let mut d = RssDispatcher::new(rings.clone()).with_reader(Arc::clone(&shared));
        let p = tcp(1);
        let before = d.shard_for(&p);
        // Move every bucket to the other shard and publish.
        let mut table = RemapTable::uniform(2);
        for b in 0..FLOW_BUCKETS {
            table = table.with_owner(b, 1 - before);
        }
        shared.publish(1, Arc::new(table));
        // The reader refreshes at the next dispatch boundary.
        d.dispatch(p.clone());
        d.flush();
        assert_eq!(d.table_epoch(), 1);
        assert_eq!(rings[1 - before].len(), 1);
        assert!(rings[before].is_empty());
    }

    #[test]
    fn dispatcher_stages_bursts_and_flushes_remainder() {
        let rings: Vec<_> = (0..2).map(|_| Arc::new(SpscRing::new(256))).collect();
        let mut dispatcher = RssDispatcher::new(rings.clone());
        // Force-steer to shard 0: below a burst nothing is published.
        for i in 0..(BURST_SIZE - 1) {
            dispatcher.dispatch_to(0, tcp(i as u16));
        }
        assert_eq!(rings[0].len(), 0);
        dispatcher.dispatch_to(0, tcp(999));
        assert_eq!(rings[0].len(), BURST_SIZE, "full burst publishes");
        // A partial stage is only published by flush.
        dispatcher.dispatch_to(1, tcp(7));
        assert_eq!(rings[1].len(), 0);
        dispatcher.flush();
        assert_eq!(rings[1].len(), 1);
        assert_eq!(dispatcher.dispatched(), BURST_SIZE as u64 + 1);
    }
}
