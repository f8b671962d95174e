//! The per-shard connection-tracking engine.
//!
//! Owns the [`ConnTable`], the [`TimerWheel`], the NAT port allocators and
//! the maglev LB state, and implements [`ConnCtx`] so datapath executors
//! can thread it through ct actions. Exactly one engine exists per shard;
//! nothing in here is shared across threads except the [`CtStats`]
//! counters (facade atomics, `Arc`-shared for shutdown aggregation).
//!
//! Time is virtual: the worker loop calls [`CtEngine::tick`] once per
//! processed burst, which advances the wheel and reclaims idle
//! connections. All timeouts are expressed in ticks.

use netdev::sync::Arc;
use openflow::ct::{ConnCtx, CtOutcome, CtTuple, CtVerb, NatSpec};
use openflow::Field;

use crate::bucket::{bucket_of_tuple, FLOW_BUCKETS};
use crate::key::tuple_hash;
use crate::maglev::{maglev_table, select};
use crate::nat::PortAlloc;
use crate::stats::CtStats;
use crate::table::{ConnTable, Dir};
use crate::tcp::ConnState;
use crate::wheel::TimerWheel;

/// What to do when a new connection arrives and the table is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Refuse the new connection (counted as `refused`). Commit verbs pass
    /// the packet untracked; NAT/LB verbs — which cannot forward without
    /// state — drop it.
    RefuseNew,
    /// Evict the least-recently-used connection to make room (counted as
    /// `evicted_capacity`). Recency is approximate — second-chance (CLOCK)
    /// order, so the established path pays one bit-store per hit instead
    /// of list surgery.
    Lru,
}

/// Idle timeouts in virtual ticks (one tick per processed burst), by state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtTimeouts {
    /// TCP connection not yet answered.
    pub tcp_syn: u64,
    /// TCP connection with bidirectional traffic.
    pub tcp_established: u64,
    /// TCP connection after a FIN.
    pub tcp_fin: u64,
    /// UDP flow not yet answered.
    pub udp_new: u64,
    /// UDP flow with bidirectional traffic.
    pub udp_established: u64,
}

impl Default for CtTimeouts {
    fn default() -> Self {
        CtTimeouts {
            tcp_syn: 32,
            tcp_established: 2048,
            tcp_fin: 16,
            udp_new: 64,
            udp_established: 512,
        }
    }
}

impl CtTimeouts {
    fn for_state(&self, state: ConnState) -> u64 {
        match state {
            ConnState::TcpSynSent => self.tcp_syn,
            ConnState::TcpEstablished => self.tcp_established,
            ConnState::TcpFin | ConnState::TcpClosed => self.tcp_fin,
            ConnState::UdpNew => self.udp_new,
            ConnState::UdpEstablished => self.udp_established,
        }
    }
}

/// One load-balancer backend group: a virtual IP fronting a backend set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbGroup {
    /// The virtual IP the group serves (informational; the pipeline's match
    /// decides which traffic reaches the Lb verb).
    pub vip: u32,
    /// Backend addresses.
    pub backends: Vec<u32>,
    /// Maglev table size (rounded up to odd; ≥ 100× backends recommended).
    pub table_size: usize,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtConfig {
    /// Maximum live connections per shard (slab capacity; fixed).
    pub capacity: usize,
    /// Timer-wheel bucket count (rounded up to a power of two).
    pub wheel_slots: usize,
    /// Full-table admission policy.
    pub eviction: EvictionPolicy,
    /// Idle timeouts by state, in ticks.
    pub timeouts: CtTimeouts,
    /// LB groups, indexed by the `group` id of [`CtVerb::Lb`].
    pub lb_groups: Vec<LbGroup>,
}

impl Default for CtConfig {
    fn default() -> Self {
        CtConfig {
            capacity: 4096,
            wheel_slots: 256,
            eviction: EvictionPolicy::Lru,
            timeouts: CtTimeouts::default(),
            lb_groups: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct LbState {
    vip: u32,
    backends: Vec<u32>,
    table: Vec<u16>,
}

/// The per-shard connection-tracking engine. See the module docs.
#[derive(Debug)]
pub struct CtEngine {
    table: ConnTable,
    wheel: TimerWheel,
    stats: Arc<CtStats>,
    timeouts: CtTimeouts,
    eviction: EvictionPolicy,
    /// One allocator per (SNAT spec, flow bucket) pair, created lazily.
    /// Bucket-striped (not shard-striped) so a connection's translation is a
    /// pure function of its bucket and creation order — independent of
    /// which shard the bucket currently lives on — and so the allocator
    /// state can travel with the bucket on migration.
    nat_allocs: Vec<(NatSpec, usize, PortAlloc)>,
    lb: Vec<LbState>,
    /// Established-path hits since the last flush. Batched into the shared
    /// atomic on every tick (and on drop) so the hot path pays a plain
    /// increment instead of a locked read-modify-write per packet.
    pending_hits: u64,
}

impl CtEngine {
    /// Creates an engine with fresh stats. Engines carry no shard identity:
    /// NAT striping is per flow bucket, so any shard can own any bucket and
    /// produce identical translations.
    pub fn new(config: &CtConfig) -> CtEngine {
        Self::with_stats(config, Arc::new(CtStats::new()))
    }

    /// Like [`CtEngine::new`] but recording into caller-owned counters
    /// (the sharded runtime creates them at launch so reports survive the
    /// engine).
    pub fn with_stats(config: &CtConfig, stats: Arc<CtStats>) -> CtEngine {
        let lb = config
            .lb_groups
            .iter()
            .map(|g| LbState {
                vip: g.vip,
                backends: g.backends.clone(),
                table: maglev_table(&g.backends, g.table_size),
            })
            .collect();
        CtEngine {
            table: ConnTable::new(config.capacity),
            wheel: TimerWheel::new(config.capacity, config.wheel_slots),
            stats,
            timeouts: config.timeouts,
            eviction: config.eviction,
            nat_allocs: Vec::new(),
            lb,
            pending_hits: 0,
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &Arc<CtStats> {
        &self.stats
    }

    /// Live connections right now.
    pub fn live(&self) -> usize {
        self.table.live()
    }

    /// Slab capacity (the memory bound: no load grows the table past it).
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Bytes held by the connection table and timer wheel. All of it is
    /// allocated in the constructor; no packet load grows it.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes() + self.wheel.memory_bytes()
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.wheel.now()
    }

    /// Advances one tick (call once per processed burst) and reclaims
    /// idle connections.
    pub fn tick(&mut self) {
        self.advance_to(self.wheel.now() + 1);
    }

    /// Advances virtual time to `target`, reclaiming every connection whose
    /// idle deadline passed, and flushes batched hit counts to the shared
    /// stats.
    pub fn advance_to(&mut self, target: u64) {
        let CtEngine {
            wheel,
            table,
            stats,
            pending_hits,
            ..
        } = self;
        if *pending_hits > 0 {
            stats.record_hits(std::mem::take(pending_hits));
        }
        wheel.advance_to(target, |idx| {
            let deadline = table.conn(idx).deadline;
            if deadline <= target {
                table.remove(idx);
                stats.record_evicted_idle();
                None
            } else {
                Some(deadline)
            }
        });
    }

    /// Replaces LB group `group`'s backend set and rebuilds its maglev
    /// table. Established connections keep their pinned backend: the table
    /// is consulted only on a connection's first packet.
    pub fn set_lb_group(&mut self, group: u16, vip: u32, backends: Vec<u32>, table_size: usize) {
        let g = group as usize;
        while self.lb.len() <= g {
            self.lb.push(LbState {
                vip: 0,
                backends: Vec::new(),
                table: Vec::new(),
            });
        }
        self.lb[g] = LbState {
            vip,
            backends: backends.clone(),
            table: maglev_table(&backends, table_size),
        };
    }

    /// The VIP configured for `group` (tests and workload generators).
    pub fn lb_vip(&self, group: u16) -> Option<u32> {
        self.lb.get(group as usize).map(|g| g.vip)
    }

    fn hit(&mut self, idx: u32, dir: Dir, tuple: &CtTuple, tcp_flags: u8) -> CtOutcome {
        let reply_dir = dir == Dir::Reply;
        let (want, closed) = {
            let now = self.wheel.now();
            let timeouts = self.timeouts;
            let conn = self.table.conn_mut(idx);
            conn.state = conn.state.advance(reply_dir, tcp_flags);
            let want = if reply_dir {
                conn.orig.reversed()
            } else {
                conn.reply.reversed()
            };
            let closed = conn.state == ConnState::TcpClosed;
            if !closed {
                // Re-arm in place: the wheel re-buckets from this field
                // when the connection's bucket is next swept.
                conn.deadline = now + timeouts.for_state(conn.state);
            }
            (want, closed)
        };
        self.pending_hits += 1;
        if closed {
            // RST: forward this packet (translated), then drop the state.
            self.wheel.cancel(idx);
            self.table.remove(idx);
            self.stats.record_teardown();
        } else {
            self.table.touch(idx);
        }
        let mut out = CtOutcome::pass();
        push_diffs(&mut out, tuple, &want);
        out
    }

    /// Creates a connection (evicting per policy if full). Returns `false`
    /// when nothing was created: table full under refuse-new, or the first
    /// packet already carries RST (stillborn — nothing worth tracking).
    fn create(&mut self, orig: CtTuple, reply: CtTuple, tcp_flags: u8) -> bool {
        let state = ConnState::initial(orig.proto).advance(false, tcp_flags);
        if state == ConnState::TcpClosed {
            return false;
        }
        if self.table.is_full() {
            match self.eviction {
                EvictionPolicy::RefuseNew => {
                    self.stats.record_refused();
                    return false;
                }
                EvictionPolicy::Lru => {
                    if let Some(victim) = self.table.clock_victim() {
                        self.wheel.cancel(victim);
                        self.table.remove(victim);
                        self.stats.record_evicted_capacity();
                    }
                }
            }
        }
        let idx = self
            .table
            .insert(orig, reply, state)
            .expect("slot free after eviction");
        let deadline = self.wheel.now() + self.timeouts.for_state(state);
        self.table.conn_mut(idx).deadline = deadline;
        self.wheel.schedule(idx, deadline);
        self.stats.record_created();
        true
    }

    fn miss(&mut self, verb: &CtVerb, tuple: &CtTuple, tcp_flags: u8) -> CtOutcome {
        match verb {
            CtVerb::Commit => {
                // Admit-and-track; if untrackable (full, refuse-new) the
                // packet still passes — commit polices nothing by itself.
                self.create(*tuple, tuple.reversed(), tcp_flags);
                CtOutcome::pass()
            }
            CtVerb::Established => {
                self.stats.record_denied();
                CtOutcome::halt()
            }
            CtVerb::Nat(spec) => {
                let translated = self.translate_nat(spec, tuple);
                if self.create(*tuple, translated.reversed(), tcp_flags) {
                    let mut out = CtOutcome::pass();
                    push_diffs(&mut out, tuple, &translated);
                    out
                } else {
                    // NAT cannot forward without state.
                    CtOutcome::halt()
                }
            }
            CtVerb::Lb { group } => {
                let Some(backend) = self.pick_backend(*group, tuple) else {
                    self.stats.record_denied();
                    return CtOutcome::halt();
                };
                let translated = CtTuple {
                    dst_ip: backend,
                    ..*tuple
                };
                if self.create(*tuple, translated.reversed(), tcp_flags) {
                    let mut out = CtOutcome::pass();
                    push_diffs(&mut out, tuple, &translated);
                    out
                } else {
                    CtOutcome::halt()
                }
            }
        }
    }

    fn translate_nat(&mut self, spec: &NatSpec, tuple: &CtTuple) -> CtTuple {
        if spec.snat {
            let port = self.alloc_port(spec, bucket_of_tuple(tuple));
            CtTuple {
                src_ip: spec.addr,
                src_port: port,
                ..*tuple
            }
        } else {
            CtTuple {
                dst_ip: spec.addr,
                dst_port: spec.port_lo,
                ..*tuple
            }
        }
    }

    fn alloc_port(&mut self, spec: &NatSpec, bucket: usize) -> u16 {
        if let Some((_, _, alloc)) = self
            .nat_allocs
            .iter_mut()
            .find(|(s, b, _)| s == spec && *b == bucket)
        {
            return alloc.alloc();
        }
        let mut alloc = PortAlloc::new(
            spec.port_lo,
            spec.port_hi,
            bucket as u32,
            FLOW_BUCKETS as u32,
        );
        let port = alloc.alloc();
        self.nat_allocs.push((*spec, bucket, alloc));
        port
    }

    fn pick_backend(&self, group: u16, tuple: &CtTuple) -> Option<u32> {
        let g = self.lb.get(group as usize)?;
        if g.backends.is_empty() {
            return None;
        }
        let slot = select(&g.table, tuple_hash(tuple));
        g.backends.get(slot as usize).copied()
    }

    /// Drains every connection (and NAT allocator) belonging to flow bucket
    /// `bucket` out of this engine, for transfer to the shard that now owns
    /// the bucket. Deadlines are exported as *remaining* idle ticks because
    /// each shard's virtual clock is independent; the importer re-arms
    /// relative to its own clock. Control-plane cost: one walk of the slab.
    ///
    /// The caller (the dispatcher's quiesce handshake) guarantees no packet
    /// of this bucket is in flight to this shard when it runs.
    pub fn export_bucket(&mut self, bucket: usize) -> BucketExport {
        let now = self.wheel.now();
        let slots: Vec<u32> = self
            .table
            .live_slots()
            .filter(|(_, c)| bucket_of_tuple(&c.orig) == bucket)
            .map(|(i, _)| i)
            .collect();
        let mut conns = Vec::with_capacity(slots.len());
        for idx in slots {
            self.wheel.cancel(idx);
            let c = self.table.remove(idx);
            self.stats.record_migrated_out();
            conns.push(ConnExport {
                orig: c.orig,
                reply: c.reply,
                state: c.state,
                ticks_left: c.deadline.saturating_sub(now),
            });
        }
        let mut nat = Vec::new();
        let mut i = 0;
        while i < self.nat_allocs.len() {
            if self.nat_allocs[i].1 == bucket {
                let (spec, _, alloc) = self.nat_allocs.swap_remove(i);
                nat.push((spec, alloc));
            } else {
                i += 1;
            }
        }
        BucketExport { bucket, conns, nat }
    }

    /// Installs a [`BucketExport`] drained from the bucket's previous owner.
    /// Admission evicts LRU victims if the table is full *regardless of the
    /// eviction policy*: the imported connections already exist — refusing
    /// them would silently drop established state, which is exactly what a
    /// migration must not do.
    pub fn import_bucket(&mut self, export: BucketExport) {
        let now = self.wheel.now();
        for ce in export.conns {
            debug_assert!(
                self.table.lookup(&ce.orig).is_none(),
                "bucket {} imported while this shard still tracks it",
                export.bucket
            );
            while self.table.is_full() {
                let Some(victim) = self.table.clock_victim() else {
                    break;
                };
                self.wheel.cancel(victim);
                self.table.remove(victim);
                self.stats.record_evicted_capacity();
            }
            let Some(idx) = self.table.insert(ce.orig, ce.reply, ce.state) else {
                continue;
            };
            let deadline = now + ce.ticks_left;
            self.table.conn_mut(idx).deadline = deadline;
            self.wheel.schedule(idx, deadline);
            self.stats.record_migrated_in();
        }
        for (spec, alloc) in export.nat {
            self.nat_allocs
                .retain(|(s, b, _)| !(*b == export.bucket && s == &spec));
            self.nat_allocs.push((spec, export.bucket, alloc));
        }
    }
}

/// One connection's transferable state (see [`CtEngine::export_bucket`]).
#[derive(Debug, Clone, Copy)]
pub struct ConnExport {
    /// Tuple of the connection's first packet.
    pub orig: CtTuple,
    /// Tuple reply packets carry (post-translation).
    pub reply: CtTuple,
    /// Protocol state at export.
    pub state: ConnState,
    /// Idle ticks remaining at export, re-armed against the importer's
    /// clock.
    pub ticks_left: u64,
}

/// Everything shard-local that one flow bucket owns: its tracked
/// connections and its NAT allocators (whose `next` cursors must travel with
/// the bucket so ports stay a pure function of allocation order).
#[derive(Debug, Clone, Default)]
pub struct BucketExport {
    /// The bucket this state belongs to.
    pub bucket: usize,
    /// Drained connections.
    pub conns: Vec<ConnExport>,
    /// Drained NAT allocators, one per SNAT spec the bucket has used.
    pub nat: Vec<(NatSpec, PortAlloc)>,
}

impl BucketExport {
    /// True when the bucket owned no state at all (nothing to transfer).
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty() && self.nat.is_empty()
    }
}

impl Drop for CtEngine {
    /// Flushes hit counts batched since the last tick, so shutdown
    /// aggregation (which reads the `Arc`-shared stats after the worker's
    /// engine is gone) sees every hit.
    fn drop(&mut self) {
        if self.pending_hits > 0 {
            self.stats
                .record_hits(std::mem::take(&mut self.pending_hits));
        }
    }
}

impl ConnCtx for CtEngine {
    fn ct_execute(&mut self, verb: &CtVerb, tuple: &CtTuple, tcp_flags: u8) -> CtOutcome {
        match self.table.lookup(tuple) {
            Some((idx, dir)) => self.hit(idx, dir, tuple, tcp_flags),
            None => self.miss(verb, tuple, tcp_flags),
        }
    }
}

/// Pushes the field rewrites that turn `cur` into `want` (at most four:
/// two addresses, two ports — exactly [`openflow::ct::CT_MAX_REWRITES`]).
fn push_diffs(out: &mut CtOutcome, cur: &CtTuple, want: &CtTuple) {
    if cur.src_ip != want.src_ip {
        out.push_rewrite(Field::Ipv4Src, want.src_ip);
    }
    if cur.dst_ip != want.dst_ip {
        out.push_rewrite(Field::Ipv4Dst, want.dst_ip);
    }
    let tcp = cur.proto == 6;
    if cur.src_port != want.src_port {
        let field = if tcp { Field::TcpSrc } else { Field::UdpSrc };
        out.push_rewrite(field, u32::from(want.src_port));
    }
    if cur.dst_port != want.dst_port {
        let field = if tcp { Field::TcpDst } else { Field::UdpDst };
        out.push_rewrite(field, u32::from(want.dst_port));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{ACK, RST, SYN};

    fn tcp_tuple(src: u32, sport: u16, dst: u32, dport: u16) -> CtTuple {
        CtTuple {
            proto: 6,
            src_ip: src,
            dst_ip: dst,
            src_port: sport,
            dst_port: dport,
        }
    }

    fn small_engine(eviction: EvictionPolicy, capacity: usize) -> CtEngine {
        CtEngine::new(&CtConfig {
            capacity,
            eviction,
            ..CtConfig::default()
        })
    }

    fn rewritten(tuple: &CtTuple, out: &CtOutcome) -> CtTuple {
        let mut t = *tuple;
        for (f, v) in out.rewrites() {
            match f {
                Field::Ipv4Src => t.src_ip = *v,
                Field::Ipv4Dst => t.dst_ip = *v,
                Field::TcpSrc | Field::UdpSrc => t.src_port = *v as u16,
                Field::TcpDst | Field::UdpDst => t.dst_port = *v as u16,
                other => panic!("unexpected rewrite field {other:?}"),
            }
        }
        t
    }

    #[test]
    fn acl_commit_then_established_reply() {
        let mut e = small_engine(EvictionPolicy::Lru, 16);
        let fwd = tcp_tuple(0x0a000001, 1234, 0x0a000002, 80);
        // Untracked reply direction is denied.
        assert!(e
            .ct_execute(&CtVerb::Established, &fwd.reversed(), SYN | ACK)
            .halted());
        // Commit the original direction, then the reply passes.
        assert!(!e.ct_execute(&CtVerb::Commit, &fwd, SYN).halted());
        let reply = e.ct_execute(&CtVerb::Established, &fwd.reversed(), SYN | ACK);
        assert!(!reply.halted());
        assert!(reply.rewrites().is_empty());
        // The connection is now established.
        let (idx, _) = e.table.lookup(&fwd).unwrap();
        assert_eq!(e.table.conn(idx).state, ConnState::TcpEstablished);
        // An unrelated tuple is still denied.
        let other = tcp_tuple(0x0a000009, 999, 0x0a000002, 80);
        assert!(e.ct_execute(&CtVerb::Established, &other, ACK).halted());
        assert_eq!(e.stats().denied(), 2);
    }

    #[test]
    fn snat_allocates_and_reverses() {
        let mut e = small_engine(EvictionPolicy::Lru, 16);
        let spec = NatSpec {
            snat: true,
            addr: 0xc0a80001,
            port_lo: 40000,
            port_hi: 40999,
        };
        let fwd = tcp_tuple(0x0a000001, 1234, 0x08080808, 443);
        let out = e.ct_execute(&CtVerb::Nat(spec), &fwd, SYN);
        assert!(!out.halted());
        let translated = rewritten(&fwd, &out);
        assert_eq!(translated.src_ip, spec.addr);
        // Bucket-striped allocation: the first port of a connection's bucket
        // is `lo + (bucket % span)` — a pure function of the tuple, not of
        // any shard identity.
        let bucket = bucket_of_tuple(&fwd) as u16;
        assert_eq!(translated.src_port, 40000 + bucket % 1000);
        assert_eq!(translated.dst_ip, fwd.dst_ip);
        // Reply to the translated tuple maps back to the original client.
        let reply_in = translated.reversed();
        let back = e.ct_execute(&CtVerb::Established, &reply_in, SYN | ACK);
        assert!(!back.halted());
        let untranslated = rewritten(&reply_in, &back);
        assert_eq!(untranslated, fwd.reversed());
        // A second connection gets a distinct port, wherever its bucket
        // starts the stride.
        let fwd2 = tcp_tuple(0x0a000002, 1234, 0x08080808, 443);
        let out2 = e.ct_execute(&CtVerb::Nat(spec), &fwd2, SYN);
        let port2 = rewritten(&fwd2, &out2).src_port;
        assert_ne!(port2, translated.src_port);
        assert!((40000..=40999).contains(&port2));
        // A fresh engine replays the identical allocation sequence.
        let mut e2 = small_engine(EvictionPolicy::Lru, 16);
        let replay = e2.ct_execute(&CtVerb::Nat(spec), &fwd, SYN);
        assert_eq!(rewritten(&fwd, &replay).src_port, translated.src_port);
    }

    #[test]
    fn lb_pins_backend_across_reshuffle() {
        let mut e = CtEngine::new(&CtConfig {
            capacity: 64,
            lb_groups: vec![LbGroup {
                vip: 0x0a00ff01,
                backends: vec![0x0a000101, 0x0a000102, 0x0a000103],
                table_size: 101,
            }],
            ..CtConfig::default()
        });
        let fwd = tcp_tuple(0x0a000001, 5555, 0x0a00ff01, 80);
        let out = e.ct_execute(&CtVerb::Lb { group: 0 }, &fwd, SYN);
        let pinned = rewritten(&fwd, &out).dst_ip;
        assert!([0x0a000101u32, 0x0a000102, 0x0a000103].contains(&pinned));
        // Reply from the backend is un-rewritten to the VIP.
        let reply_in = CtTuple {
            dst_ip: pinned,
            ..fwd
        }
        .reversed();
        let back = e.ct_execute(&CtVerb::Established, &reply_in, SYN | ACK);
        assert_eq!(rewritten(&reply_in, &back).src_ip, 0x0a00ff01);
        // Shrink the backend set: the established flow keeps its backend.
        e.set_lb_group(0, 0x0a00ff01, vec![0x0a000101], 101);
        let again = e.ct_execute(&CtVerb::Lb { group: 0 }, &fwd, ACK);
        assert_eq!(rewritten(&fwd, &again).dst_ip, pinned);
    }

    #[test]
    fn rst_teardown_and_identity() {
        let mut e = small_engine(EvictionPolicy::Lru, 16);
        let fwd = tcp_tuple(1, 1, 2, 2);
        e.ct_execute(&CtVerb::Commit, &fwd, SYN);
        assert_eq!(e.live(), 1);
        // RST passes (it informs the peer) but tears the state down.
        assert!(!e.ct_execute(&CtVerb::Commit, &fwd, RST).halted());
        assert_eq!(e.live(), 0);
        let snap = e.stats().snapshot();
        assert_eq!(snap.teardown, 1);
        assert!(snap.identity_holds());
    }

    #[test]
    fn idle_timeout_reclaims() {
        let mut e = CtEngine::new(&CtConfig {
            capacity: 8,
            timeouts: CtTimeouts {
                tcp_syn: 4,
                ..CtTimeouts::default()
            },
            wheel_slots: 8,
            ..CtConfig::default()
        });
        let fwd = tcp_tuple(1, 1, 2, 2);
        e.ct_execute(&CtVerb::Commit, &fwd, SYN);
        // Activity at tick 3 re-arms the deadline lazily.
        e.advance_to(3);
        e.ct_execute(&CtVerb::Commit, &fwd, SYN);
        e.advance_to(6);
        assert_eq!(
            e.live(),
            1,
            "re-armed connection survives original deadline"
        );
        // Long idle: reclaimed (allow a full wheel rotation of slack).
        e.advance_to(6 + 4 + 8);
        assert_eq!(e.live(), 0);
        let snap = e.stats().snapshot();
        assert_eq!(snap.evicted_idle, 1);
        assert!(snap.identity_holds());
    }

    #[test]
    fn bucket_migration_preserves_nat_and_identity() {
        let stats_a = Arc::new(CtStats::new());
        let stats_b = Arc::new(CtStats::new());
        let cfg = CtConfig {
            capacity: 32,
            ..CtConfig::default()
        };
        let mut a = CtEngine::with_stats(&cfg, Arc::clone(&stats_a));
        let mut b = CtEngine::with_stats(&cfg, Arc::clone(&stats_b));
        let spec = NatSpec {
            snat: true,
            addr: 0xc0a80001,
            port_lo: 40000,
            port_hi: 40999,
        };
        let fwd = tcp_tuple(0x0a000001, 1234, 0x08080808, 443);
        let out = a.ct_execute(&CtVerb::Nat(spec), &fwd, SYN);
        let translated = rewritten(&fwd, &out);
        // Advance the exporter's clock so the relative-deadline transfer is
        // exercised (the importer's clock is still at zero).
        a.advance_to(5);
        let bucket = bucket_of_tuple(&fwd);
        let export = a.export_bucket(bucket);
        assert_eq!(export.conns.len(), 1);
        assert_eq!(export.nat.len(), 1, "allocator travels with the bucket");
        assert_eq!(a.live(), 0);
        b.import_bucket(export);
        assert_eq!(b.live(), 1);
        // The established reply un-rewrites to the client on the new owner.
        let reply_in = translated.reversed();
        let back = b.ct_execute(&CtVerb::Established, &reply_in, SYN | ACK);
        assert!(!back.halted());
        assert_eq!(rewritten(&reply_in, &back), fwd.reversed());
        // The migrated allocator continues the bucket's stride: the next
        // connection in this bucket gets the port it would have gotten had
        // the bucket never moved.
        let mut src = 2u32;
        let fwd2 = loop {
            let t = tcp_tuple(0x0a000000 + src, 1234, 0x08080808, 443);
            if bucket_of_tuple(&t) == bucket {
                break t;
            }
            src += 1;
        };
        let out2 = b.ct_execute(&CtVerb::Nat(spec), &fwd2, SYN);
        let expected = 40000 + ((bucket + FLOW_BUCKETS) % 1000) as u16;
        assert_eq!(rewritten(&fwd2, &out2).src_port, expected);
        drop(a);
        drop(b);
        let (sa, sb) = (stats_a.snapshot(), stats_b.snapshot());
        assert_eq!(sa.migrated_out, 1);
        assert_eq!(sb.migrated_in, 1);
        assert!(sa.identity_holds(), "exporter identity");
        assert!(sb.identity_holds(), "importer identity");
        assert!(sa.merged(&sb).identity_holds(), "merged identity");
    }

    #[test]
    fn capacity_policies() {
        // Refuse-new: commits pass untracked, NAT drops.
        let mut e = small_engine(EvictionPolicy::RefuseNew, 2);
        for i in 0..2u32 {
            e.ct_execute(&CtVerb::Commit, &tcp_tuple(i + 1, 1, 99, 2), SYN);
        }
        assert!(!e
            .ct_execute(&CtVerb::Commit, &tcp_tuple(50, 1, 99, 2), SYN)
            .halted());
        let spec = NatSpec {
            snat: true,
            addr: 7,
            port_lo: 1000,
            port_hi: 2000,
        };
        assert!(e
            .ct_execute(&CtVerb::Nat(spec), &tcp_tuple(51, 1, 99, 2), SYN)
            .halted());
        let snap = e.stats().snapshot();
        assert_eq!(snap.refused, 2);
        assert_eq!(snap.live, 2);
        assert!(snap.identity_holds());

        // LRU: the oldest connection is evicted to admit the new one.
        let mut e = small_engine(EvictionPolicy::Lru, 2);
        let a = tcp_tuple(1, 1, 99, 2);
        let b = tcp_tuple(2, 1, 99, 2);
        e.ct_execute(&CtVerb::Commit, &a, SYN);
        e.ct_execute(&CtVerb::Commit, &b, SYN);
        e.ct_execute(&CtVerb::Commit, &a, SYN); // touch a; b is now LRU
        e.ct_execute(&CtVerb::Commit, &tcp_tuple(3, 1, 99, 2), SYN);
        assert!(e.table.lookup(&a).is_some());
        assert!(e.table.lookup(&b).is_none(), "LRU victim evicted");
        let snap = e.stats().snapshot();
        assert_eq!(snap.evicted_capacity, 1);
        assert!(snap.identity_holds());
    }

    /// A refuse-new engine holds a fill that no tick interrupts, then one
    /// sweep past the idle timeout (plus the wheel's lazy re-arm slack)
    /// hands every connection back with the stats identity intact. The
    /// flows are distinct UDP packets committed through a one-rule pipeline.
    #[test]
    fn capacity_run_fills_and_reclaims() {
        use openflow::instruction::terminal_actions;
        use openflow::{Action, FlowEntry, FlowMatch, Pipeline};
        use pkt::builder::PacketBuilder;

        let config = CtConfig {
            capacity: 1 << 12,
            wheel_slots: 4096,
            eviction: EvictionPolicy::RefuseNew,
            ..CtConfig::default()
        };
        let mut pipeline = Pipeline::with_tables(1);
        pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            terminal_actions(vec![Action::Ct(CtVerb::Commit), Action::Output(2)]),
        ));
        let mut engine = CtEngine::new(&config);
        let offered = 3 << 10;
        for i in 0..offered {
            let mut packet = PacketBuilder::udp()
                .ipv4_src([10, (i >> 14) as u8, (i >> 6) as u8, i as u8])
                .ipv4_dst([192, 0, 2, 1])
                .udp_src(1024 + (i % 4096) as u16)
                .udp_dst(53)
                .build();
            pipeline.process_ct(&mut packet, &mut engine);
        }
        assert_eq!(engine.live(), offered);
        assert!(engine.memory_bytes() > 0);

        let deadline = engine.now() + config.timeouts.udp_new + config.wheel_slots as u64 + 1;
        engine.advance_to(deadline);
        assert_eq!(engine.live(), 0);
        let snap = engine.stats().snapshot();
        assert_eq!(snap.evicted_idle, offered as u64);
        assert!(snap.identity_holds());
    }
}
