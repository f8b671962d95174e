//! The four-level OVS-architecture datapath.
//!
//! Packets move through the hierarchy one *burst* at a time
//! ([`Datapath::process_burst`]; a single packet is the burst of one): keys
//! and miniflow keys are extracted for the whole burst (one miniflow key per
//! packet, probed by both caches), packets of the same flow are grouped so
//! each cache is consulted once per distinct flow (OVS's `packet_batch`
//! behaviour), each cache lock is taken at most a handful of times per burst
//! instead of per packet, and verdicts land in a caller-provided buffer. The
//! steady-state hit path — microflow or megaflow hit, with or without a
//! sampled EMC promotion — performs no heap allocation per packet (enforced
//! by `tests/alloc_regression.rs`). Per-level hit counters are tallied
//! locally and published once per burst.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use netdev::{Counters, BURST_SIZE};
use openflow::action::apply_action_list;
use openflow::ct::ConnCtx;
use openflow::flow_match::FlowMatch;
use openflow::flow_mod::{apply_flow_mod, FlowModEffect, FlowModError};
use openflow::{Datapath, FlowKey, FlowMod, Pipeline, Verdict};
use pkt::parser::ParsedHeaders;
use pkt::Packet;

use crate::mask::BitIter;
use crate::megaflow::MegaflowCache;
use crate::microflow::MicroflowCache;
use crate::minikey::MiniKey;
use crate::program::Program;
use crate::slowpath::{SlowPath, SlowPathResult};

/// Which level of the hierarchy answered a burst's leader packet. Mirrors
/// Fig. 14's series, which [`CacheStats`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum CacheLevel {
    /// The exact-match microflow cache.
    Microflow,
    /// The wildcard megaflow cache.
    Megaflow,
    /// The full pipeline in `vswitchd`.
    SlowPath,
}

/// Per-level hit statistics.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Packets answered by the microflow cache.
    pub microflow_hits: Counters,
    /// Packets answered by the megaflow cache.
    pub megaflow_hits: Counters,
    /// Packets that required slow-path classification.
    pub slowpath_hits: Counters,
}

impl CacheStats {
    /// Publishes one burst's per-level `(packets, bytes)` tally, indexed by
    /// [`CacheLevel`]: one `record_batch` per level that answered anything.
    fn record_burst(&self, tally: &[(u64, u64); 3]) {
        let levels = [
            &self.microflow_hits,
            &self.megaflow_hits,
            &self.slowpath_hits,
        ];
        for (counters, &(packets, bytes)) in levels.into_iter().zip(tally) {
            if packets > 0 {
                counters.record_batch(packets, bytes);
            }
        }
    }

    /// Total packets processed.
    pub fn total(&self) -> u64 {
        self.microflow_hits.packets() + self.megaflow_hits.packets() + self.slowpath_hits.packets()
    }

    /// Fraction of packets answered at each level, as
    /// `(microflow, megaflow, slowpath)`; the series of Fig. 14.
    pub fn hit_fractions(&self) -> (f64, f64, f64) {
        let total = self.total() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.microflow_hits.packets() as f64 / total,
            self.megaflow_hits.packets() as f64 / total,
            self.slowpath_hits.packets() as f64 / total,
        )
    }
}

/// Configuration of the cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct OvsConfig {
    /// Microflow (EMC) capacity in entries; 0 means no EMC at all, which
    /// isolates megaflow behaviour in tests and ablations.
    pub microflow_entries: usize,
    /// Megaflow cache capacity in entries.
    pub megaflow_entries: usize,
}

impl Default for OvsConfig {
    fn default() -> Self {
        OvsConfig {
            microflow_entries: MicroflowCache::DEFAULT_ENTRIES,
            megaflow_entries: MegaflowCache::DEFAULT_MAX_ENTRIES,
        }
    }
}

/// Reusable per-burst working state: keys, parse results, miniflow hashes,
/// flow grouping and resolved programs for up to [`BURST_SIZE`] packets.
/// Living on the datapath (not the stack) means a burst neither allocates
/// nor zero-initialises tens of kilobytes of arrays per call.
#[derive(Default)]
struct BurstScratch {
    keys: Vec<FlowKey>,
    headers: Vec<ParsedHeaders>,
    minis: Vec<MiniKey>,
    hashes: Vec<u64>,
    /// `group[i]`: index of the first packet of packet i's flow in the burst.
    group: Vec<usize>,
    actions: Vec<Option<Arc<Program>>>,
    levels: Vec<CacheLevel>,
    /// Sparse `(leader index, classification)` list — empty in steady state,
    /// so no 700-byte `Option<SlowPathResult>` slots get rewritten per burst.
    slow: Vec<(usize, SlowPathResult)>,
}

impl BurstScratch {
    fn reset(&mut self, n: usize) {
        self.keys.clear();
        self.headers.clear();
        self.minis.clear();
        self.hashes.clear();
        self.group.clear();
        self.actions.clear();
        self.actions.resize_with(n, || None);
        self.levels.clear();
        self.levels.resize(n, CacheLevel::SlowPath);
        self.slow.clear();
    }
}

/// The flow-caching datapath: microflow cache → megaflow cache → slow path.
pub struct OvsDatapath {
    pipeline: Arc<RwLock<Pipeline>>,
    microflow: Mutex<MicroflowCache>,
    megaflow: Mutex<MegaflowCache>,
    config: OvsConfig,
    /// Burst working state; `try_lock` + local fallback, so concurrent
    /// batchers degrade to allocating instead of serialising on each other.
    scratch: Mutex<BurstScratch>,
    /// Per-level hit statistics.
    pub stats: CacheStats,
}

/// True when a flow-mod's `effect` on `pipeline` (the pipeline *after* the
/// change) can soundly drive selective cache invalidation: flushing only the
/// cached flows whose extraction-time keys match a touched rule.
///
/// A cached flow sees a different verdict only if its path first diverges
/// at a touched table T, on a touched rule its key at T matches. Up to T the
/// path used unchanged rules, so every table on it is a goto-graph ancestor
/// of T in the new pipeline too; if none of those rewrites a field the
/// touched rules match ([`Pipeline::fields_written_upstream`]), the key at
/// T agrees with the extraction-time key on those fields and the flow is
/// among the flushed ones. A match on a field rewritten upstream, and a
/// created table (it changes where `Continue` misses land, which no match
/// describes), fall back to the brute-force full flush, as does an effect
/// with no match to compare.
pub fn delta_is_selective(pipeline: &Pipeline, effect: &FlowModEffect) -> bool {
    if effect.table_created || effect.touched_matches.is_empty() {
        return false;
    }
    let written = pipeline.fields_written_upstream(&effect.tables_touched);
    effect.touched_matches.iter().all(|m| {
        m.fields()
            .iter()
            .all(|mf| written & (1u64 << mf.field.index()) == 0)
    })
}

impl OvsDatapath {
    /// Creates a datapath over `pipeline` with default configuration.
    pub fn new(pipeline: Pipeline) -> Self {
        Self::with_config(pipeline, OvsConfig::default())
    }

    /// Creates a datapath with explicit configuration.
    pub fn with_config(pipeline: Pipeline, config: OvsConfig) -> Self {
        OvsDatapath {
            pipeline: Arc::new(RwLock::new(pipeline)),
            microflow: Mutex::new(MicroflowCache::with_capacity(config.microflow_entries)),
            megaflow: Mutex::new(MegaflowCache::with_capacity(config.megaflow_entries)),
            config,
            scratch: Mutex::new(BurstScratch::default()),
            stats: CacheStats::default(),
        }
    }

    /// Shared handle to the pipeline.
    pub fn pipeline(&self) -> Arc<RwLock<Pipeline>> {
        Arc::clone(&self.pipeline)
    }

    /// Applies a flow-mod and invalidates as little of the cache hierarchy
    /// as the change permits: nothing when it changed nothing, the megaflows
    /// overlapping a touched rule when [`delta_is_selective`] proves that
    /// sound, and otherwise everything — OVS's brute-force strategy
    /// ("invalidate the entire cache after essentially all changes").
    pub fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        let (effect, selective) = {
            let mut pipeline = self.pipeline.write();
            let effect = apply_flow_mod(&mut pipeline, fm)?;
            let selective = delta_is_selective(&pipeline, &effect);
            (effect, selective)
        };
        // A flow-mod that matched nothing (e.g. a non-strict delete with no
        // overlapping entries) leaves every cached program exact.
        if effect.entries_touched() > 0 {
            if selective {
                self.invalidate_matches(&effect.touched_matches);
            } else {
                self.invalidate_caches();
            }
        }
        Ok(effect)
    }

    /// Selective invalidation for a known-good list of matches: flushes the
    /// overlapping megaflow entries — and with them, through their programs'
    /// liveness, every EMC entry they answered — leaving every disjoint
    /// cache entry alive. The EMC is not scanned. Used for selective-safe
    /// flow-mod deltas, and by the sharded runtime's elastic scheduler to
    /// evict exactly a migrated flow bucket's connections from this
    /// replica's caches.
    pub fn invalidate_matches(&self, matches: &[FlowMatch]) {
        self.megaflow.lock().invalidate_overlapping(matches);
    }

    /// Replaces the whole pipeline with an externally prepared one and
    /// invalidates both caches — the epoch-swap update path of a sharded
    /// deployment, where a central control plane applies flow-mods to the
    /// canonical pipeline once and broadcasts the result to every per-worker
    /// datapath replica. Equivalent to replaying the flow-mods locally with
    /// no usable delta: the entire cache hierarchy is invalidated (§2.3).
    pub fn replace_pipeline(&self, pipeline: Pipeline) {
        *self.pipeline.write() = pipeline;
        self.invalidate_caches();
    }

    /// Replaces the pipeline using the publishing control plane's delta:
    /// `deltas` lists, epoch by epoch, the matches of every rule changed
    /// between this replica's pipeline and `pipeline`. Only the megaflow
    /// subtable entries overlapping a changed match are flushed, and the EMC
    /// keeps every entry whose megaflow survives. The caller (the
    /// epoch-swap control plane) guarantees the deltas are contiguous and
    /// selective-safe; replicas that skipped epochs use
    /// [`OvsDatapath::replace_pipeline`] instead.
    pub fn replace_pipeline_with_delta(&self, pipeline: Pipeline, deltas: &[Arc<Vec<FlowMatch>>]) {
        *self.pipeline.write() = pipeline;
        for delta in deltas {
            self.invalidate_matches(delta);
        }
    }

    /// Invalidates the megaflow cache, and with it every EMC entry.
    pub fn invalidate_caches(&self) {
        self.megaflow.lock().invalidate();
    }

    /// Number of megaflows currently cached.
    pub fn megaflow_count(&self) -> usize {
        self.megaflow.lock().len()
    }

    /// Number of live microflow entries currently cached.
    pub fn microflow_count(&self) -> usize {
        self.microflow.lock().live_entries()
    }

    /// The datapath's one execution entry ([`Datapath::process_burst`];
    /// this inherent name is the one the frozen `benchmark/src/sut.rs`
    /// binds): processes a batch of packets burst-by-burst, appending one
    /// verdict per packet to `verdicts` (which is cleared first). Within
    /// each burst of [`BURST_SIZE`], keys are extracted up front, packets of
    /// the same flow share one cache resolution, and each cache lock is
    /// taken a bounded number of times per burst rather than per packet.
    ///
    /// The caches are keyed on each packet's *original* key: the slow path
    /// may rewrite the packet (and its working key) while classifying, but
    /// later packets of the same flow arrive un-rewritten and must still
    /// hit. Cached action programs retain their ct ops, so cache hits
    /// re-execute connection tracking per packet against `ct` — the caches
    /// accelerate classification, never connection state.
    ///
    /// Every packet of a punting flow reports the punt in its verdict, with
    /// the reason the slow path found, whichever level answered it.
    /// Statistics attribute the non-leading packets of a flow's burst to the
    /// level that answered the leading packet (a flow answered by the slow
    /// path counts its followers as megaflow hits, which is where sequential
    /// processing would have answered them).
    pub fn process_batch_into_ct(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        verdicts.clear();
        verdicts.reserve(packets.len());
        for chunk in packets.chunks_mut(BURST_SIZE) {
            self.burst(chunk, verdicts, ct);
        }
    }

    /// One burst (≤ [`BURST_SIZE`] packets) through the hierarchy,
    /// appending its verdicts.
    fn burst(&self, packets: &mut [Packet], verdicts: &mut Vec<Verdict>, ct: &mut dyn ConnCtx) {
        let n = packets.len();
        debug_assert!(n <= BURST_SIZE);
        if n == 0 {
            return;
        }
        let mut scratch_guard = self.scratch.try_lock();
        let mut scratch_local = None;
        let s: &mut BurstScratch = match scratch_guard.as_deref_mut() {
            Some(shared) => shared,
            None => scratch_local.insert(BurstScratch::default()),
        };
        s.reset(n);

        // Phase 1: read (or make) the parse and extract every key, miniflow
        // key and flow hash for the burst, grouping by exact flow as we go:
        // `group[i]` is the index of the first packet of packet i's flow in
        // this burst (its leader). The parse results are reused by the
        // replay phase; the miniflow key is what both caches probe with.
        // The dense hash array makes the pairwise grouping scan a one-word
        // compare; the miniflow key confirms only on a hash match.
        let use_microflow = self.config.microflow_entries > 0;
        let mut leaders = 0usize;
        for (i, p) in packets.iter().enumerate() {
            let headers = p.headers();
            s.keys.push(FlowKey::from_parsed(p, &headers));
            let mini = MiniKey::from_flow(s.keys.last().expect("just pushed"));
            // The grouping hash is a pure prefilter — every pairwise match
            // below is confirmed by miniflow equality — so any value that is
            // deterministic per flow works. A packet that arrived through
            // the sharded dispatcher already carries its RSS hash (the
            // NIC-descriptor pattern): reuse it.
            s.hashes.push(p.rss_hash().unwrap_or_else(|| mini.hash()));
            s.minis.push(mini);
            s.headers.push(headers);
            let leader = (0..i)
                .find(|&j| s.hashes[j] == s.hashes[i] && s.minis[j] == s.minis[i])
                .unwrap_or(i);
            leaders += usize::from(leader == i);
            s.group.push(leader);
        }

        // Phase 2: resolve each leader against the hierarchy, taking each
        // cache lock once per pass instead of once per packet.
        let mut unresolved = leaders;
        let mut promoted = 0usize;
        if use_microflow {
            let micro = self.microflow.lock();
            for i in 0..n {
                if s.group[i] == i {
                    if let Some(found) = micro.lookup(&s.minis[i]) {
                        s.actions[i] = Some(found);
                        s.levels[i] = CacheLevel::Microflow;
                        unresolved -= 1;
                    }
                }
            }
        }
        if unresolved > 0 {
            let pending = (0..n)
                .filter(|&i| s.group[i] == i && s.actions[i].is_none())
                .fold(0u64, |bits, i| bits | 1 << i);
            let found = self
                .megaflow
                .lock()
                .lookup_burst(&s.minis, pending, &mut s.actions);
            for i in BitIter(found) {
                s.levels[i] = CacheLevel::Megaflow;
            }
            promoted = found.count_ones() as usize;
            unresolved -= promoted;
        }
        if use_microflow && promoted > 0 {
            // Offer this burst's megaflow hits to the EMC (one lock); the
            // cache admits about one in `EMC_INSERT_INV_PROB`.
            let mut micro = self.microflow.lock();
            for i in 0..n {
                if s.levels[i] == CacheLevel::Megaflow {
                    if let Some(found) = &s.actions[i] {
                        micro.promote(&s.minis[i], found);
                    }
                }
            }
        }

        // A stateful tracker observes the *order* of ct executions, and the
        // phase split below would reorder them: phase 3 runs the slow-path
        // leaders' ct side effects before phase 4 replays the cache hits
        // that arrived earlier in the burst (a slow-path reply must not
        // outrun an already-cached teardown). Established-path bursts
        // resolve entirely from the caches and never take this branch; a
        // burst with misses degrades to arrival order, each packet a burst
        // of one (which has nothing to reorder).
        if n > 1 && unresolved > 0 && ct.is_stateful() {
            drop(scratch_guard);
            for packet in packets.iter_mut() {
                self.burst(std::slice::from_mut(packet), verdicts, ct);
            }
            return;
        }

        // Per-level `(packets, bytes)`, indexed by `CacheLevel` and published
        // once at the end of the burst.
        let mut tally = [(0u64, 0u64); 3];
        let mut count = |level: CacheLevel, packet: &Packet| {
            let (packets, bytes) = &mut tally[level as usize];
            *packets += 1;
            *bytes += packet.len() as u64;
        };

        // Phase 3: slow-path the leaders both caches missed. `classify`
        // applies the actions to the leader packet as it walks the pipeline,
        // so leaders need no replay afterwards.
        if unresolved > 0 {
            {
                let pipeline = self.pipeline.read();
                #[allow(clippy::needless_range_loop)] // parallel scratch arrays
                for i in 0..n {
                    if s.group[i] == i && s.actions[i].is_none() {
                        count(CacheLevel::SlowPath, &packets[i]);
                        let mut working_key = s.keys[i];
                        let result =
                            SlowPath.classify_ct(&pipeline, &mut packets[i], &mut working_key, ct);
                        s.slow.push((i, result));
                    }
                }
            }
            {
                let mut mega = self.megaflow.lock();
                for (i, result) in &s.slow {
                    if result.cacheable {
                        mega.insert(&s.minis[*i], &result.mask, Arc::clone(&result.actions));
                    }
                }
            }
            if use_microflow {
                let mut micro = self.microflow.lock();
                for (i, result) in &s.slow {
                    if result.cacheable {
                        micro.insert(s.minis[*i], Arc::clone(&result.actions));
                    }
                }
            }
        }

        // Phase 4: apply the resolved action programs and emit verdicts.
        // Leaders answered by a cache replay their program; followers replay
        // their leader's. All cache locks are released by now.
        #[allow(clippy::needless_range_loop)] // parallel scratch arrays
        for i in 0..n {
            let leader = s.group[i];
            let program = match s.actions[leader].as_ref() {
                Some(program) => program,
                None => {
                    // Field-precise borrow of the sparse slow list, so the
                    // replay below can still mutate the other scratch fields.
                    let result = s
                        .slow
                        .iter()
                        .find(|(j, _)| *j == leader)
                        .map(|(_, r)| r)
                        .expect("leader resolved");
                    if leader == i {
                        verdicts.push(result.verdict.clone());
                        continue;
                    }
                    // Sequential processing would have answered followers of
                    // a slow-pathed flow from the just-installed megaflow.
                    count(CacheLevel::Megaflow, &packets[i]);
                    verdicts.push(replay(
                        &result.actions,
                        &mut packets[i],
                        &mut s.keys[i],
                        s.headers[i],
                        ct,
                    ));
                    continue;
                }
            };
            debug_assert_ne!(s.levels[leader], CacheLevel::SlowPath);
            count(s.levels[leader], &packets[i]);
            // The scratch key is dead after this packet; replay mutates it
            // in place instead of copying 400 bytes of `FlowKey`.
            verdicts.push(replay(
                program,
                &mut packets[i],
                &mut s.keys[i],
                s.headers[i],
                ct,
            ));
        }
        self.stats.record_burst(&tally);
    }
}

impl Datapath for OvsDatapath {
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        self.process_batch_into_ct(packets, verdicts, ct);
    }

    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        OvsDatapath::flow_mod(self, fm)
    }
}

/// Replays a cached action program on a packet and converts the outputs into
/// a [`Verdict`], resuming from the parse the key was extracted with; a punt
/// carries the reason the program was recorded with.
/// Allocation-free for inline-sized output lists. Ct ops in the program
/// re-execute against `ct`; a stateful deny discards every decision the
/// replay merged and drops the packet.
#[inline]
fn replay(
    program: &Program,
    packet: &mut Packet,
    key: &mut FlowKey,
    headers: ParsedHeaders,
    ct: &mut dyn ConnCtx,
) -> Verdict {
    let mut verdict = Verdict::default();
    if apply_action_list(program, packet, key, headers, |out| verdict.add(out), ct) {
        return Verdict::default();
    }
    if verdict.to_controller {
        verdict.punt_reason = program.punt_reason();
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microflow::EMC_INSERT_INV_PROB;
    use openflow::ct::NoCt;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, PacketInReason};
    use pkt::builder::PacketBuilder;

    fn port_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t.insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 443),
            90,
            terminal_actions(vec![Action::Output(2)]),
        ));
        t.insert(openflow::FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    fn pkt(port: u16, src: u16) -> Packet {
        PacketBuilder::tcp().tcp_dst(port).tcp_src(src).build()
    }

    /// Per-level hit counts as `(microflow, megaflow, slow path)`.
    fn levels(dp: &OvsDatapath) -> (u64, u64, u64) {
        (
            dp.stats.microflow_hits.packets(),
            dp.stats.megaflow_hits.packets(),
            dp.stats.slowpath_hits.packets(),
        )
    }

    #[test]
    fn hierarchy_progression_slowpath_then_megaflow_then_microflow() {
        let dp = OvsDatapath::new(port_pipeline());

        // First packet of a flow: slow path.
        assert_eq!(dp.process(&mut pkt(80, 1000)).outputs, vec![1]);
        assert_eq!(levels(&dp), (0, 0, 1));

        // Same megaflow but a different transport connection: megaflow hit.
        assert_eq!(dp.process(&mut pkt(80, 2000)).outputs, vec![1]);
        assert_eq!(levels(&dp), (0, 1, 1));

        // Same exact connection again: megaflow hits until one is sampled
        // into the EMC, then a microflow hit.
        let mut mega = 1;
        while levels(&dp).0 == 0 {
            assert_eq!(dp.process(&mut pkt(80, 2000)).outputs, vec![1]);
            mega = levels(&dp).1;
            assert!(mega < 20 * u64::from(EMC_INSERT_INV_PROB), "never promoted");
        }
        assert!(mega > 1, "promoted on its first megaflow hit");
        assert_eq!(levels(&dp), (1, mega, 1));
        assert_eq!(dp.process(&mut pkt(80, 2000)).outputs, vec![1]);
        assert_eq!(levels(&dp), (2, mega, 1));

        let total = mega + 3;
        assert_eq!(dp.stats.total(), total);
        let (micro, megaflow, slow) = dp.stats.hit_fractions();
        assert!((micro - 2.0 / total as f64).abs() < 1e-9);
        assert!((megaflow - mega as f64 / total as f64).abs() < 1e-9);
        assert!((slow - 1.0 / total as f64).abs() < 1e-9);
    }

    #[test]
    fn cyclic_replay_beyond_emc_capacity_keeps_emc_hits() {
        // 4 × capacity connections of one megaflow, replayed in a cycle.
        // Promoting every megaflow hit would evict each entry before its
        // flow came round again; sampled, the resident entries stay and
        // keep answering.
        let emc = 256;
        let dp = OvsDatapath::with_config(
            port_pipeline(),
            OvsConfig {
                microflow_entries: emc,
                ..OvsConfig::default()
            },
        );
        let ring: Vec<Packet> = (0..4 * emc as u16).map(|src| pkt(80, src)).collect();
        let mut verdicts = Vec::new();
        let mut cycle = |rounds: usize| {
            for _ in 0..rounds {
                let mut work = ring.clone();
                dp.process_burst(&mut work, &mut verdicts, &mut NoCt);
                assert!(verdicts.iter().all(|v| v.outputs == vec![1]));
            }
        };
        cycle(60);
        dp.stats.microflow_hits.reset();
        dp.stats.megaflow_hits.reset();
        dp.stats.slowpath_hits.reset();
        cycle(10);
        let (micro, _, slow) = dp.stats.hit_fractions();
        assert_eq!(slow, 0.0);
        assert!(micro >= 0.15, "steady-state microflow share {micro}");
    }

    #[test]
    fn verdicts_agree_with_reference_interpreter() {
        let dp = OvsDatapath::new(port_pipeline());
        let reference = port_pipeline();
        for (dst, src) in [(80u16, 1u16), (443, 2), (22, 3), (80, 4), (443, 2)] {
            let mut a = pkt(dst, src);
            let mut b = a.clone();
            assert_eq!(
                dp.process(&mut a).decision(),
                reference.process_ct(&mut b, &mut NoCt).decision(),
                "dst {dst} src {src}"
            );
        }
    }

    #[test]
    fn batch_agrees_with_sequential_processing() {
        let batch_dp = OvsDatapath::new(port_pipeline());
        let seq_dp = OvsDatapath::new(port_pipeline());
        // Mix of repeated flows (grouping), cache misses and hits, spanning
        // more than one burst.
        let mut batch: Vec<Packet> = (0..BURST_SIZE as u16 * 2 + 7)
            .map(|i| pkt([80, 443, 22][usize::from(i) % 3], 1000 + i / 5))
            .collect();
        let mut sequential = batch.clone();

        let mut verdicts = Vec::new();
        batch_dp.process_burst(&mut batch, &mut verdicts, &mut NoCt);
        assert_eq!(verdicts.len(), batch.len());
        for (i, (p, v)) in sequential.iter_mut().zip(&verdicts).enumerate() {
            assert_eq!(seq_dp.process(p).decision(), v.decision(), "packet {i}");
        }
        for (i, (a, b)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(a.data(), b.data(), "packet {i} bytes");
        }
        // Both datapaths saw every packet.
        assert_eq!(batch_dp.stats.total(), batch.len() as u64);
        assert_eq!(seq_dp.stats.total(), batch.len() as u64);
    }

    #[test]
    fn batch_groups_flows_to_one_cache_resolution() {
        let dp = OvsDatapath::new(port_pipeline());
        // Warm the caches.
        dp.process(&mut pkt(80, 7));
        let lookups_before = {
            let mega = dp.megaflow.lock();
            mega.lookups
        };
        // A full burst of the *same* flow: the megaflow cache must be
        // consulted at most once (the EMC answers it after warm-up).
        let mut burst: Vec<Packet> = (0..BURST_SIZE).map(|_| pkt(80, 7)).collect();
        let mut verdicts = Vec::new();
        dp.process_burst(&mut burst, &mut verdicts, &mut NoCt);
        assert!(verdicts.iter().all(|v| v.outputs == vec![1]));
        let lookups_after = {
            let mega = dp.megaflow.lock();
            mega.lookups
        };
        assert!(
            lookups_after - lookups_before <= 1,
            "burst of one flow caused {} megaflow lookups",
            lookups_after - lookups_before
        );
    }

    #[test]
    fn flow_mod_invalidates_caches_and_changes_behaviour() {
        let dp = OvsDatapath::new(port_pipeline());
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert!(dp.megaflow_count() > 0);

        // Redirect port 80 traffic to port 9.
        dp.flow_mod(&FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(9)]),
        ))
        .unwrap();
        assert_eq!(dp.megaflow_count(), 0, "megaflow cache must be flushed");
        assert_eq!(dp.microflow_count(), 0, "microflow cache must be flushed");
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![9]);
    }

    #[test]
    fn flow_mod_spares_disjoint_cached_flows() {
        // The delta-aware path: adding a rule on a port no cached flow uses
        // must keep the unrelated megaflows and EMC entries alive (this
        // pipeline rewrites nothing, so the delta is selective).
        let dp = OvsDatapath::new(port_pipeline());
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]); // EMC warm
        let megaflows = dp.megaflow_count();
        let microflows = dp.microflow_count();
        assert!(megaflows > 0 && microflows > 0);

        dp.flow_mod(&FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 8080),
            95,
            terminal_actions(vec![Action::Output(7)]),
        ))
        .unwrap();
        assert_eq!(dp.megaflow_count(), megaflows, "disjoint megaflows flushed");
        assert_eq!(
            dp.microflow_count(),
            microflows,
            "disjoint EMC entries flushed"
        );

        // The surviving cached flow still answers from the caches...
        let slow_before = dp.stats.slowpath_hits.packets();
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert_eq!(dp.stats.slowpath_hits.packets(), slow_before);
        // ...and the new rule takes effect for its own traffic.
        assert_eq!(dp.process(&mut pkt(8080, 1)).outputs, vec![7]);
    }

    #[test]
    fn emc_entry_dies_with_its_flushed_megaflow_and_only_then() {
        let dp = OvsDatapath::new(port_pipeline());
        for _ in 0..2 {
            dp.process(&mut pkt(80, 1));
            dp.process(&mut pkt(443, 1));
        }
        assert_eq!(levels(&dp), (2, 0, 2));
        assert_eq!(dp.microflow_count(), 2);

        // Redirect port 80: a selective flow-mod flushes the port-80
        // megaflow, so its EMC entry stops answering; the port-443 megaflow
        // survives, and so does its EMC entry.
        dp.flow_mod(&FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(9)]),
        ))
        .unwrap();
        assert_eq!(dp.microflow_count(), 1, "only live entries count");
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![9]);
        assert_eq!(levels(&dp), (2, 0, 3), "a flushed entry answered");
        assert_eq!(dp.process(&mut pkt(443, 1)).outputs, vec![2]);
        assert_eq!(levels(&dp), (3, 0, 3), "a surviving entry stopped");
    }

    #[test]
    fn emc_entry_dies_when_its_megaflow_is_evicted() {
        let config = OvsConfig {
            megaflow_entries: 1,
            ..OvsConfig::default()
        };
        let dp = OvsDatapath::with_config(port_pipeline(), config);
        dp.process(&mut pkt(80, 1));
        // The port-443 megaflow takes the only slot: the port-80 megaflow is
        // evicted, and its EMC entry with it.
        dp.process(&mut pkt(443, 1));
        assert_eq!(dp.microflow_count(), 1);
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert_eq!(
            levels(&dp),
            (0, 0, 3),
            "an evicted megaflow's EMC entry answered"
        );
    }

    #[test]
    fn emc_entry_dies_when_its_megaflow_is_replaced() {
        // Two connections of one megaflow slow-pathed in one burst: the
        // second installs the same masked key, replacing the first's
        // program, whose EMC entry must stop answering.
        let dp = OvsDatapath::new(port_pipeline());
        let mut burst = vec![pkt(80, 1), pkt(80, 2)];
        dp.process_burst(&mut burst, &mut Vec::new(), &mut NoCt);
        assert_eq!(levels(&dp), (0, 0, 2));
        assert_eq!(dp.megaflow_count(), 1);
        assert_eq!(dp.microflow_count(), 1);
        dp.process(&mut pkt(80, 1));
        assert_eq!(
            levels(&dp),
            (0, 1, 2),
            "a replaced program's EMC entry answered"
        );
        dp.process(&mut pkt(80, 2));
        assert_eq!(levels(&dp), (1, 1, 2));
    }

    #[test]
    fn no_op_flow_mod_invalidates_nothing() {
        // A non-strict delete matching zero entries changes nothing: both
        // caches must survive untouched.
        let dp = OvsDatapath::new(port_pipeline());
        dp.process(&mut pkt(80, 1));
        dp.process(&mut pkt(80, 1));
        let megaflows = dp.megaflow_count();
        let microflows = dp.microflow_count();
        assert!(megaflows > 0 && microflows > 0);
        let effect = dp
            .flow_mod(&FlowMod::delete(
                0,
                FlowMatch::any().with_exact(Field::TcpDst, 12345),
            ))
            .unwrap();
        assert_eq!(effect.entries_touched(), 0);
        assert_eq!(dp.megaflow_count(), megaflows);
        assert_eq!(dp.microflow_count(), microflows);
    }

    #[test]
    fn flow_mod_on_rewritten_field_falls_back_to_full_flush() {
        // A pipeline that rewrites Ipv4Dst mid-traversal makes matches on
        // Ipv4Dst unverifiable against extraction-time keys: the delta path
        // must refuse and flush everything.
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(openflow::FlowEntry::new(
            FlowMatch::any(),
            10,
            openflow::instruction::actions_then_goto(
                vec![Action::SetField(Field::Ipv4Dst, 0x0a00_0001)],
                1,
            ),
        ));
        let t1 = p.table_mut(1).unwrap();
        t1.insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Dst, 0x0a00_0001u128),
            10,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t1.insert(openflow::FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let dp = OvsDatapath::new(p);
        dp.process(&mut pkt(80, 1));
        assert!(dp.megaflow_count() > 0);

        dp.flow_mod(&FlowMod::add(
            1,
            FlowMatch::any().with_exact(Field::Ipv4Dst, 0x0a00_0002u128),
            20,
            terminal_actions(vec![Action::Output(2)]),
        ))
        .unwrap();
        assert_eq!(
            dp.megaflow_count(),
            0,
            "rewritten-field delta must full-flush"
        );
    }

    #[test]
    fn flow_mod_creating_a_table_falls_back_to_full_flush() {
        // Table 0 misses on to table 2, which forwards. A rule into a new
        // table 1 reroutes every such miss there — and table 1 drops what
        // it does not match — though the rule's own match is disjoint from
        // the cached flow: no delta describes that, so everything goes.
        let mut p = Pipeline::new();
        p.add_table(openflow::FlowTable::new(0)).miss = openflow::TableMissBehavior::Continue;
        p.add_table(openflow::FlowTable::new(2))
            .insert(openflow::FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, 80),
                1,
                terminal_actions(vec![Action::Output(3)]),
            ));
        let dp = OvsDatapath::new(p);
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![3]);
        dp.flow_mod(&FlowMod::add(
            1,
            FlowMatch::any().with_exact(Field::TcpDst, 9999),
            10,
            terminal_actions(vec![Action::Output(4)]),
        ))
        .unwrap();
        assert_eq!(dp.megaflow_count(), 0, "a created table must full-flush");
        assert!(dp.process(&mut pkt(80, 1)).is_drop());
    }

    #[test]
    fn replace_pipeline_with_delta_keeps_disjoint_flows() {
        let dp = OvsDatapath::new(port_pipeline());
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert_eq!(dp.process(&mut pkt(443, 1)).outputs, vec![2]);
        let megaflows = dp.megaflow_count();

        // The control plane redirects port 443 and ships the delta.
        let mut replacement = port_pipeline();
        replacement
            .table_mut(0)
            .unwrap()
            .insert(openflow::FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, 443),
                90,
                terminal_actions(vec![Action::Output(9)]),
            ));
        let delta = vec![Arc::new(vec![
            FlowMatch::any().with_exact(Field::TcpDst, 443)
        ])];
        dp.replace_pipeline_with_delta(replacement, &delta);

        assert!(dp.megaflow_count() < megaflows, "443 megaflow must go");
        assert!(dp.megaflow_count() > 0, "port-80 megaflow must survive");
        assert_eq!(dp.process(&mut pkt(443, 1)).outputs, vec![9]);
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
    }

    #[test]
    fn replace_pipeline_swaps_behaviour_and_flushes_caches() {
        let dp = OvsDatapath::new(port_pipeline());
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![1]);
        assert!(dp.megaflow_count() > 0);

        let mut replacement = Pipeline::with_tables(1);
        let t = replacement.table_mut(0).unwrap();
        t.insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(7)]),
        ));
        t.insert(openflow::FlowEntry::new(FlowMatch::any(), 1, vec![]));
        dp.replace_pipeline(replacement);
        assert_eq!(dp.megaflow_count(), 0, "megaflow cache must be flushed");
        assert_eq!(dp.microflow_count(), 0, "microflow cache must be flushed");
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![7]);
    }

    #[test]
    fn megaflow_aggregates_across_connections() {
        let dp = OvsDatapath::new(port_pipeline());
        for src in 0..100u16 {
            dp.process(&mut pkt(80, 40000 + src));
        }
        // All 100 connections are covered by a single megaflow: the port-80
        // rule plus the rules examined above it only pin tcp_dst bits.
        assert_eq!(dp.stats.slowpath_hits.packets(), 1);
        assert!(dp.megaflow_count() <= 2);
    }

    #[test]
    fn controller_punts_counted() {
        // A miss punt is reported in the verdict, as a miss, by the slow
        // path and again by the megaflow it cached — every packet of the
        // flow punts until a controller installs a rule.
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().miss = openflow::TableMissBehavior::ToController;
        let dp = OvsDatapath::new(p);
        // The slow path's install fills the EMC, so the same connection is
        // then a microflow hit; another connection is a megaflow hit.
        for (src, want) in [(1, (0, 0, 1)), (1, (1, 0, 1)), (2, (1, 1, 1))] {
            let verdict = dp.process(&mut pkt(80, src));
            assert!(verdict.to_controller, "{want:?}");
            assert_eq!(verdict.punt_reason, PacketInReason::NoMatch, "{want:?}");
            assert_eq!(levels(&dp), want);
        }
    }

    /// One table: `Ipv6Src = ff…ff → Output(1)` above `any → Output(2)`.
    fn all_ones_ipv6_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv6Src, u128::MAX),
            10,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t.insert(openflow::FlowEntry::new(
            FlowMatch::any(),
            1,
            terminal_actions(vec![Action::Output(2)]),
        ));
        p
    }

    /// A UDP-over-IPv6 frame from `src` (`PacketBuilder` builds no IPv6).
    fn ipv6_udp(src: u128) -> Packet {
        let mut frame = vec![0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01, 0x86, 0xdd];
        frame.extend_from_slice(&[0x60, 0, 0, 0, 0, 8, 17, 64]); // 8-byte UDP payload
        frame.extend_from_slice(&src.to_be_bytes());
        frame.extend_from_slice(&1u128.to_be_bytes());
        frame.extend_from_slice(&[0x30, 0x39, 0, 53, 0, 8, 0, 0]);
        Packet::from_bytes(frame, 1)
    }

    #[test]
    fn absent_ipv6_source_megaflow_does_not_cover_an_all_ones_source() {
        // An IPv4 packet installs a megaflow pinning `Ipv6Src` as absent;
        // an IPv6 packet from ff…ff must not hit it.
        let dp = OvsDatapath::new(all_ones_ipv6_pipeline());
        let reference = all_ones_ipv6_pipeline();
        assert_eq!(
            FlowKey::extract(&ipv6_udp(u128::MAX)).ipv6_src,
            Some(u128::MAX)
        );
        assert_eq!(dp.process(&mut pkt(80, 1)).outputs, vec![2]);
        let mut a = ipv6_udp(u128::MAX);
        let mut b = a.clone();
        let want = reference.process_ct(&mut b, &mut NoCt).decision();
        assert_eq!(want.0, vec![1]);
        assert_eq!(dp.process(&mut a).decision(), want);
    }

    #[test]
    fn flow_mod_on_all_ones_ipv6_source_flushes_its_megaflow() {
        // A megaflow holding a *present* all-ones `Ipv6Src` overlaps a rule
        // on that value: the selective flush must take it.
        let dp = OvsDatapath::new(all_ones_ipv6_pipeline());
        assert_eq!(dp.process(&mut ipv6_udp(u128::MAX)).outputs, vec![1]);
        assert_eq!(dp.megaflow_count(), 1);
        dp.flow_mod(&FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::Ipv6Src, u128::MAX),
            20,
            terminal_actions(vec![Action::Output(3)]),
        ))
        .unwrap();
        assert_eq!(dp.megaflow_count(), 0, "overlapping megaflow kept");
        assert_eq!(dp.process(&mut ipv6_udp(u128::MAX)).outputs, vec![3]);
    }

    #[test]
    fn microflow_can_be_disabled() {
        let config = OvsConfig {
            microflow_entries: 0,
            ..OvsConfig::default()
        };
        let dp = OvsDatapath::with_config(port_pipeline(), config);
        for _ in 0..1000 {
            dp.process(&mut pkt(80, 7));
        }
        assert_eq!(dp.stats.microflow_hits.packets(), 0);
        assert_eq!(dp.stats.megaflow_hits.packets(), 999);
        assert_eq!(dp.microflow_count(), 0);
    }
}
