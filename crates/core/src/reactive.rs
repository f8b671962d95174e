//! The reactive handoff: the synchronous controller loop ([`Reactive`]) and
//! the punt admission control it shares with the sharded runtime's
//! asynchronous channel, layered defense-in-depth style.
//!
//! The paper's reactive workloads (the access gateway, a learning switch)
//! depend on table misses reaching the controller and the controller's
//! flow-mods repopulating the pipeline. A datapath only *reports* punts, in
//! its verdicts (`to_controller`, `punt_reason`); [`Reactive`] wraps any
//! [`Datapath`] and answers them after each burst, and the `shard` crate's
//! controller workers answer them asynchronously — both through the one
//! decision applier, [`DecisionStats::answer`]. Between the miss and the
//! install, *every* packet of the missing flow keeps missing — and a
//! line-rate flow would flood the controller with thousands of identical
//! packet-ins for one decision. Worse, the slow path is an *attack
//! surface*: a single tenant emitting high-entropy traffic (every packet a
//! fresh flow — the `cache_attack` scenario) turns the punt channel into a
//! denial of service for every well-behaved tenant sharing the switch.
//!
//! The defense is layered, each layer stateless or low-state on the fast
//! path and every rejection counted by reason:
//!
//! 1. **Per-flow one-in-flight** — the [`PuntGate`]: the first miss of a
//!    flow is admitted, every further miss of the same flow is *suppressed*
//!    until the install completes. Absorbs line-rate repetition of one flow.
//! 2. **Per-source token buckets** — a fixed-width table of [`TokenBucket`]s
//!    indexed by the *source* signature ([`source_signature`]): who sent the
//!    packet, not which flow it is. A scanning tenant cycling destinations
//!    creates thousands of distinct flows but only one source — its punts
//!    collapse onto one bucket and are *shed* once it exceeds its rate,
//!    while other tenants' buckets stay full.
//! 3. **Aggregate controller budget** — one global [`TokenBucket`] bounding
//!    total punt admissions per second to what the controller can actually
//!    absorb, whatever the mix of sources.
//!
//! All three layers are zero-alloc at punt time (the buckets are fixed
//! arrays allocated at launch; acquiring is one CAS), and packets that never
//! punt pay for none of it. [`PuntPolicy`] configures layers 2 and 3;
//! [`PuntAdmission`] evaluates them in order.
//!
//! Flows are identified by a 64-bit signature of the extraction-time flow
//! key ([`punt_signature`]); RSS shard affinity means one flow only ever
//! punts from one worker, so per-shard gates never see cross-shard aliasing.
//! Sources are identified by [`source_signature`] over the key's origin
//! fields only, so per-source buckets see through destination churn.

use std::collections::HashSet;

use netdev::sync::atomic::{AtomicU64, Ordering};
use netdev::sync::Mutex;
use netdev::FxBuildHasher;
use openflow::action::apply_action_list;
use openflow::ct::{ConnCtx, NoCt};
use openflow::flow_mod::{FlowModEffect, FlowModError};
use openflow::{Controller, ControllerDecision, Datapath, FlowKey, FlowMod, PacketIn, Verdict};
use pkt::parser::{parse, ParseDepth};
use pkt::Packet;

/// The 64-bit flow signature punt deduplication keys on: an FxHash of the
/// full extraction-time flow key. Both controller loops (and the tests
/// asserting suppression) must derive it the same way, which is why it lives
/// here.
pub fn punt_signature(key: &FlowKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = netdev::FxHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// The 64-bit *source* signature the per-tenant admission buckets key on: a
/// hash of the flow key's origin fields only (ingress port, source MAC,
/// VLAN, source IP). Two flows from one sender share it even when the
/// sender cycles destinations and ports — which is exactly how a
/// high-entropy adversary evades per-*flow* state, and why layer 2 of the
/// admission pipeline must not key on the full tuple.
pub fn source_signature(key: &FlowKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = netdev::FxHasher::new();
    key.in_port.hash(&mut hasher);
    key.eth_src.hash(&mut hasher);
    key.vlan_vid.hash(&mut hasher);
    key.ipv4_src.hash(&mut hasher);
    key.ipv6_src.hash(&mut hasher);
    hasher.finish()
}

/// A token-bucket rate: sustained tokens per second plus the burst depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained refill rate, tokens per second (clamped to ≥ 1 effective
    /// millitoken per refill tick).
    pub per_sec: u64,
    /// Bucket depth: tokens that may be spent in one burst (clamped ≥ 1).
    pub burst: u64,
}

impl RateLimit {
    /// A limit of `per_sec` sustained with an equal burst depth.
    pub fn per_sec(per_sec: u64) -> Self {
        RateLimit {
            per_sec,
            burst: per_sec.max(1),
        }
    }
}

/// Tokens are tracked in 1/1024ths ("millitokens") so sub-1000/s rates
/// still refill something every tick.
const TOKEN_SCALE: u64 = 1024;
/// One refill tick is 1 ms of the caller-supplied nanosecond clock.
const TICK_NANOS: u64 = 1_000_000;

/// A lock-free token bucket: the whole state — last refill tick and current
/// millitoken count — packs into one `AtomicU64`, so acquiring a token is a
/// single CAS (zero-alloc, no lock, safe to hammer from every worker).
///
/// Time is supplied by the caller as nanoseconds on any monotone clock
/// (the runtimes pass "nanos since launch"); the bucket itself never reads a
/// clock, which keeps it deterministic under the loom model suites. Ticks
/// are 32-bit milliseconds — a clock living longer than ~49 days wraps and
/// costs at most one burst of over-admission, never an under-admission
/// stall, because a stale `last` tick saturates to zero elapsed.
#[derive(Debug)]
pub struct TokenBucket {
    /// `(last_refill_tick as u64) << 32 | millitokens`.
    state: AtomicU64,
    /// Millitokens refilled per tick (≥ 1 so every configured rate makes
    /// progress).
    per_tick: u64,
    /// Millitoken ceiling (the burst depth).
    cap: u64,
}

fn pack(tick: u32, millitokens: u64) -> u64 {
    debug_assert!(millitokens <= u64::from(u32::MAX));
    (u64::from(tick) << 32) | millitokens
}

impl TokenBucket {
    /// A bucket starting full at `limit.burst` tokens.
    pub fn new(limit: RateLimit) -> Self {
        let per_tick = (limit.per_sec.saturating_mul(TOKEN_SCALE) / 1000).max(1);
        let cap = limit
            .burst
            .max(1)
            .saturating_mul(TOKEN_SCALE)
            .min(u64::from(u32::MAX));
        TokenBucket {
            state: AtomicU64::new(pack(0, cap)),
            per_tick,
            cap,
        }
    }

    /// Attempts to spend one token at time `now_nanos`; `false` means the
    /// bucket is empty (the punt must be shed). Refill happens inline on
    /// the same CAS — there is no background filler thread.
    pub fn try_acquire(&self, now_nanos: u64) -> bool {
        let now_tick = (now_nanos / TICK_NANOS) as u32;
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let last = (cur >> 32) as u32;
            let tokens = cur & u64::from(u32::MAX);
            // Saturating: a peer thread may have stored a slightly newer
            // tick than this thread's clock read; that is zero elapsed, not
            // 49 days of refill.
            let elapsed = u64::from(now_tick.saturating_sub(last));
            let refilled = tokens
                .saturating_add(elapsed.saturating_mul(self.per_tick))
                .min(self.cap);
            let (next, granted) = if refilled >= TOKEN_SCALE {
                (pack(now_tick.max(last), refilled - TOKEN_SCALE), true)
            } else if elapsed == 0 {
                // Nothing accrued and nothing to spend: fail without a
                // store so a shedding storm stays read-mostly.
                return false;
            } else {
                // Bank the fractional accrual under the new tick so slow
                // rates still converge on their configured average.
                (pack(now_tick.max(last), refilled), false)
            };
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return granted,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whole tokens currently available (diagnostics only).
    pub fn available(&self) -> u64 {
        (self.state.load(Ordering::Relaxed) & u64::from(u32::MAX)) / TOKEN_SCALE
    }
}

/// Configuration of the layered punt-admission pipeline (layers 2 and 3;
/// layer 1 — the per-flow [`PuntGate`] — is sized separately because it is
/// per-shard). The default is fully open: no source or aggregate limit, the
/// pre-hardening behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PuntPolicy {
    /// Layer 2: per-source punt rate, applied to every source independently
    /// through a fixed table of [`source_buckets`](PuntPolicy::source_buckets)
    /// token buckets. `None` disables the layer.
    pub per_source: Option<RateLimit>,
    /// Width of the per-source bucket table (rounded up to a power of two,
    /// clamped ≥ 16). Sources hash onto buckets, so the state is O(width)
    /// regardless of how many sources exist — an adversary minting fake
    /// sources degrades toward the aggregate limit, never toward unbounded
    /// memory.
    pub source_buckets: usize,
    /// Layer 3: aggregate punt budget across all sources — what the
    /// controller can actually absorb. `None` disables the layer.
    pub aggregate: Option<RateLimit>,
}

impl Default for PuntPolicy {
    fn default() -> Self {
        PuntPolicy {
            per_source: None,
            source_buckets: 1024,
            aggregate: None,
        }
    }
}

impl PuntPolicy {
    /// The hardened profile used by the adversarial-storm benchmarks:
    /// `per_source` punts/s per tenant, an aggregate budget of
    /// `aggregate` punts/s, 1024 source buckets.
    pub fn hardened(per_source: u64, aggregate: u64) -> Self {
        PuntPolicy {
            per_source: Some(RateLimit::per_sec(per_source)),
            source_buckets: 1024,
            aggregate: Some(RateLimit::per_sec(aggregate)),
        }
    }
}

/// Why (or that) the admission pipeline let a punt through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuntAdmit {
    /// Every layer passed: raise the packet-in.
    Admitted,
    /// Layer 2 shed it: the packet's *source* exceeded its punt rate.
    ShedSource,
    /// Layer 3 shed it: the switch-wide controller budget is exhausted.
    ShedAggregate,
}

/// Layers 2 and 3 of the punt-admission pipeline, shared across every
/// worker shard (sources spread over shards, so per-shard buckets would
/// multiply every tenant's budget by the shard count).
///
/// Layer order matters and is fixed: the per-source bucket is charged
/// first, so a source already over its own rate cannot drain the aggregate
/// budget that compliant sources share — the misbehaving tenant is shed at
/// its own layer and the blast radius stops there.
#[derive(Debug)]
pub struct PuntAdmission {
    source_buckets: Option<Box<[TokenBucket]>>,
    aggregate: Option<TokenBucket>,
}

impl PuntAdmission {
    /// Builds the pipeline for `policy`. All bucket state is allocated
    /// here, once; admission itself never allocates.
    pub fn new(policy: &PuntPolicy) -> Self {
        let source_buckets = policy.per_source.map(|limit| {
            let width = policy.source_buckets.max(16).next_power_of_two();
            (0..width)
                .map(|_| TokenBucket::new(limit))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        PuntAdmission {
            source_buckets,
            aggregate: policy.aggregate.map(TokenBucket::new),
        }
    }

    /// Runs layers 2 and 3 for one gate-admitted punt from `source` at time
    /// `now_nanos`. Zero-alloc; at most two CASes.
    pub fn admit(&self, source: u64, now_nanos: u64) -> PuntAdmit {
        if let Some(buckets) = &self.source_buckets {
            // Multiply-shift reduction on the high bits, like the RSS shard
            // map: bias-free for any power-of-two width.
            let idx = ((u128::from(source) * buckets.len() as u128) >> 64) as usize;
            if !buckets[idx].try_acquire(now_nanos) {
                return PuntAdmit::ShedSource;
            }
        }
        if let Some(aggregate) = &self.aggregate {
            if !aggregate.try_acquire(now_nanos) {
                return PuntAdmit::ShedAggregate;
            }
        }
        PuntAdmit::Admitted
    }
}

/// Admission control for controller punts: at most one packet-in per flow
/// may be in flight at a time.
///
/// * [`PuntGate::admit`] — called at punt time; `true` means "send the
///   packet-in", `false` means the flow already has one in flight and this
///   punt copy must be suppressed (the packet itself still forwards per the
///   pipeline's miss action — only the controller copy is elided).
/// * [`PuntGate::complete`] — called when the install finished (or the punt
///   was abandoned, e.g. a full punt ring), re-arming the flow.
///
/// The in-flight table is bounded: at capacity the gate *fails open* —
/// further new flows are admitted untracked, trading duplicate packet-ins
/// (which a correct controller must tolerate anyway: OpenFlow never promised
/// exactly-once packet-ins) for a bounded memory footprint under a miss
/// storm of millions of flows.
#[derive(Debug)]
pub struct PuntGate {
    in_flight: Mutex<HashSet<u64, FxBuildHasher>>,
    capacity: usize,
    admitted: AtomicU64,
    suppressed: AtomicU64,
}

impl PuntGate {
    /// Default bound on tracked in-flight flows.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A gate tracking at most `capacity` in-flight flows (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PuntGate {
            in_flight: Mutex::new(HashSet::with_hasher(FxBuildHasher::default())),
            capacity: capacity.max(1),
            admitted: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Decides whether a punt for `flow` should produce a packet-in. `true`
    /// admits (and tracks the flow as in-flight, capacity permitting);
    /// `false` means a packet-in for this flow is already in flight.
    pub fn admit(&self, flow: u64) -> bool {
        let mut set = self.in_flight.lock();
        if set.contains(&flow) {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if set.len() < self.capacity {
            set.insert(flow);
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Marks `flow`'s in-flight packet-in as resolved (installed, answered
    /// with a drop, or abandoned): the next miss of this flow punts again.
    pub fn complete(&self, flow: u64) {
        self.in_flight.lock().remove(&flow);
    }

    /// Number of flows currently tracked as in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.lock().len()
    }

    /// Punts admitted (each produced — or was meant to produce — one
    /// packet-in).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Punts suppressed because their flow already had a packet-in in
    /// flight.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }
}

impl Default for PuntGate {
    fn default() -> Self {
        PuntGate::new(Self::DEFAULT_CAPACITY)
    }
}

/// Reusable per-burst ingress snapshots: frame bytes + ingress port, copied
/// *before* processing (which rewrites frames in place) so punt copies carry
/// the frame as received. Buffers are reused across bursts — steady-state
/// snapshotting is a memcpy per packet, no allocation. Shared by
/// [`Reactive`] and the sharded workers.
#[derive(Debug, Default)]
pub struct IngressSnapshot {
    frames: Vec<Vec<u8>>,
    ports: Vec<u32>,
}

impl IngressSnapshot {
    /// Copies every frame of `burst` (and its ingress port) into the reused
    /// buffers.
    pub fn capture(&mut self, burst: &[Packet]) {
        self.ports.clear();
        for (i, packet) in burst.iter().enumerate() {
            if self.frames.len() <= i {
                self.frames.push(Vec::with_capacity(packet.len()));
            }
            let frame = &mut self.frames[i];
            frame.clear();
            frame.extend_from_slice(packet.data());
            self.ports.push(packet.in_port);
        }
    }

    /// Rebuilds burst slot `i`'s packet as it arrived.
    ///
    /// # Panics
    /// Panics if `i` is outside the last captured burst.
    pub fn packet(&self, i: usize) -> Packet {
        Packet::from_bytes(&self.frames[i], self.ports[i])
    }
}

/// Where the one decision applier ([`DecisionStats::answer`]) sends the
/// answers it cannot finish at the controller edge. Two sinks exist: the
/// in-place datapath of a [`Reactive`] loop, and the sharded runtime's
/// control plane plus its controller worker's re-injection dispatcher.
pub trait DecisionSink {
    /// Applies a controller flow-mod.
    fn flow_mod(&mut self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError>;
    /// Sends an `OFPP_TABLE` packet-out back through the pipeline.
    fn resubmit(&mut self, packet: Packet);
}

/// What the one decision applier has done: both controller loops — the
/// synchronous [`Reactive`] and the sharded runtime's controller workers —
/// count their answers here.
#[derive(Debug, Default)]
pub struct DecisionStats {
    /// Packet-ins handed to the controller.
    pub packet_ins: AtomicU64,
    /// Controller flow-mods the sink applied.
    pub flow_mods: AtomicU64,
    /// Controller flow-mods the sink refused (its pipeline unchanged).
    pub flow_mods_rejected: AtomicU64,
    /// Packet-outs with explicit actions, applied at the controller edge.
    pub direct_outs: AtomicU64,
    /// Controller decisions to drop the punted packet.
    pub dropped: AtomicU64,
}

/// Plain-data copy of [`DecisionStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Packet-ins handed to the controller.
    pub packet_ins: u64,
    /// Controller flow-mods the sink applied.
    pub flow_mods: u64,
    /// Controller flow-mods the sink refused.
    pub flow_mods_rejected: u64,
    /// Packet-outs with explicit actions, applied at the controller edge.
    pub direct_outs: u64,
    /// Controller decisions to drop the punted packet.
    pub dropped: u64,
}

impl DecisionStats {
    /// The one decision applier: raises `event` at `controller` and applies
    /// its answers in order — flow-mods through `sink` (counted applied or
    /// rejected), `OFPP_TABLE` resubmits through `sink`, other packet-outs
    /// by their action list, drops counted. The controller lock covers
    /// computing the decisions only; applying them runs outside it.
    pub fn answer(
        &self,
        controller: &Mutex<Box<dyn Controller>>,
        event: PacketIn,
        sink: &mut dyn DecisionSink,
    ) {
        self.packet_ins.fetch_add(1, Ordering::Relaxed);
        let decisions = controller.lock().packet_in(event);
        for decision in decisions {
            match decision {
                ControllerDecision::FlowMod(fm) => {
                    let counter = match sink.flow_mod(&fm) {
                        Ok(_) => &self.flow_mods,
                        Err(_) => &self.flow_mods_rejected,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                ControllerDecision::PacketOut(po) if po.resubmit => sink.resubmit(po.packet),
                ControllerDecision::PacketOut(mut po) => {
                    self.direct_outs.fetch_add(1, Ordering::Relaxed);
                    let mut key = FlowKey::extract(&po.packet);
                    let headers = parse(po.packet.data(), ParseDepth::L4);
                    apply_action_list(
                        &po.actions,
                        &mut po.packet,
                        &mut key,
                        headers,
                        |_| {},
                        &mut NoCt,
                    );
                }
                ControllerDecision::Drop => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> DecisionCounts {
        DecisionCounts {
            packet_ins: self.packet_ins.load(Ordering::Relaxed),
            flow_mods: self.flow_mods.load(Ordering::Relaxed),
            flow_mods_rejected: self.flow_mods_rejected.load(Ordering::Relaxed),
            direct_outs: self.direct_outs.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// The synchronous controller loop: any [`Datapath`] `D` plus the
/// [`Controller`] that answers its punts. It is itself a [`Datapath`], so a
/// suite can hold reactive and bare executions in one list.
///
/// Each burst's ingress frames are snapshotted before `D` processes (and
/// rewrites) them; once `D::process_burst` has returned — every lock it took
/// released — each punting verdict raises a packet-in carrying that packet's
/// ingress frame and the verdict's reason, at most one per flow per burst
/// (the [`PuntGate`] stays closed for the burst's whole punt group). The
/// answers apply before the burst returns, through
/// [`DecisionStats::answer`] into `D` itself: flow-mods through
/// `D::flow_mod`, `OFPP_TABLE` resubmits as a burst of one through `D`
/// whose own punt is not raised again.
pub struct Reactive<D> {
    datapath: D,
    controller: Mutex<Box<dyn Controller>>,
    gate: PuntGate,
    /// Reused ingress snapshot; `try_lock` + local fallback, so concurrent
    /// bursts degrade to allocating instead of serialising on each other.
    ingress: Mutex<IngressSnapshot>,
    decisions: DecisionStats,
}

/// [`Reactive`]'s sink: the wrapped datapath, in place.
struct InPlace<'a, D> {
    datapath: &'a D,
    ct: &'a mut dyn ConnCtx,
}

impl<D: Datapath> DecisionSink for InPlace<'_, D> {
    fn flow_mod(&mut self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        self.datapath.flow_mod(fm)
    }

    fn resubmit(&mut self, mut packet: Packet) {
        self.datapath.process_burst(
            std::slice::from_mut(&mut packet),
            &mut Vec::with_capacity(1),
            self.ct,
        );
    }
}

impl<D: Datapath> Reactive<D> {
    /// Answers `datapath`'s punts with `controller`.
    pub fn new(datapath: D, controller: Box<dyn Controller>) -> Self {
        Reactive {
            datapath,
            controller: Mutex::new(controller),
            gate: PuntGate::default(),
            ingress: Mutex::new(IngressSnapshot::default()),
            decisions: DecisionStats::default(),
        }
    }

    /// The wrapped datapath.
    pub fn inner(&self) -> &D {
        &self.datapath
    }

    /// The per-flow punt gate (admitted/suppressed accounting).
    pub fn punt_gate(&self) -> &PuntGate {
        &self.gate
    }

    /// The loop's counters at this instant.
    pub fn stats(&self) -> DecisionCounts {
        self.decisions.snapshot()
    }
}

impl<D: Datapath> Datapath for Reactive<D> {
    fn process_burst(
        &self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        let mut shared = self.ingress.try_lock();
        let mut local = None;
        let ingress = match shared.as_deref_mut() {
            Some(snapshot) => snapshot,
            None => local.insert(IngressSnapshot::default()),
        };
        ingress.capture(packets);
        self.datapath.process_burst(packets, verdicts, ct);
        let mut admitted = Vec::new();
        for (i, verdict) in verdicts.iter().enumerate() {
            if !verdict.to_controller {
                continue;
            }
            let packet = ingress.packet(i);
            let flow = punt_signature(&FlowKey::extract(&packet));
            if self.gate.admit(flow) {
                admitted.push(flow);
                let mut sink = InPlace {
                    datapath: &self.datapath,
                    ct: &mut *ct,
                };
                self.decisions.answer(
                    &self.controller,
                    PacketIn::new(packet, verdict.punt_reason, 0),
                    &mut sink,
                );
            }
        }
        for flow in admitted {
            self.gate.complete(flow);
        }
    }

    fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        self.datapath.flow_mod(fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EswitchRuntime;
    use openflow::controller::FnController;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{
        Action, DirectDatapath, Field, FlowEntry, Instruction, PacketInReason, Pipeline,
        TableMissBehavior,
    };
    use pkt::builder::PacketBuilder;
    use std::sync::Arc;

    fn l2_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.miss = TableMissBehavior::ToController;
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0001),
            10,
            terminal_actions(vec![Action::Output(1)]),
        ));
        p
    }

    #[test]
    fn reactive_controller_installs_rules() {
        // The controller installs a forwarding rule for every punted MAC, so
        // the second packet to the same destination is switched by the
        // interpreter without controller involvement.
        let controller = FnController::new(|pi: PacketIn| {
            let key = FlowKey::extract(&pi.packet);
            vec![ControllerDecision::FlowMod(FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst)),
                10,
                terminal_actions(vec![Action::Output(2)]),
            ))]
        });
        let dp = Reactive::new(DirectDatapath::new(l2_pipeline()), Box::new(controller));

        let mut first = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        assert!(dp.process(&mut first).to_controller);

        let mut second = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        let verdict = dp.process(&mut second);
        assert_eq!(verdict.outputs, vec![2]);
        assert!(!verdict.to_controller);
        assert_eq!(dp.stats().packet_ins, 1);
    }

    #[test]
    fn packet_in_carries_the_ingress_frame_and_the_reason() {
        // An explicit output-to-controller after a rewrite: the controller
        // sees the frame as it arrived, reported as an action punt.
        let mut p = l2_pipeline();
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0002),
            10,
            terminal_actions(vec![
                Action::SetField(Field::IpDscp, 42),
                Action::ToController,
            ]),
        ));
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let controller = FnController::new(move |pi: PacketIn| {
            sink.lock().push((pi.packet.data().to_vec(), pi.reason));
            vec![ControllerDecision::Drop]
        });
        let dp = Reactive::new(DirectDatapath::new(p), Box::new(controller));
        let ingress = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 2]).build();
        let mut packet = ingress.clone();
        assert!(dp.process(&mut packet).to_controller);
        assert_ne!(
            packet.data(),
            ingress.data(),
            "the forwarded copy is rewritten"
        );
        let mut miss = PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();
        assert!(dp.process(&mut miss).to_controller);
        assert_eq!(
            *seen.lock(),
            vec![
                (ingress.data().to_vec(), PacketInReason::Action),
                (miss.data().to_vec(), PacketInReason::NoMatch),
            ]
        );
    }

    /// Every rule of `p` as text, in table order.
    fn rules(p: &Pipeline) -> Vec<String> {
        p.tables()
            .iter()
            .flat_map(|t| {
                t.entries().iter().map(move |e| {
                    format!(
                        "{} {} {:?} {:?}",
                        t.id, e.priority, e.flow_match, e.instructions
                    )
                })
            })
            .collect()
    }

    #[test]
    fn rejected_controller_flow_mod_is_counted_and_changes_nothing() {
        // The controller answers every miss with a rule in table 1 that
        // jumps back to table 0, which `apply_flow_mod` refuses: the loop
        // counts the refusal, and neither execution's pipeline moves.
        let controller = || -> Box<dyn Controller> {
            Box::new(FnController::new(|_pi: PacketIn| {
                vec![ControllerDecision::FlowMod(FlowMod::add(
                    1,
                    FlowMatch::any(),
                    10,
                    vec![Instruction::GotoTable(0)],
                ))]
            }))
        };
        let mut p = l2_pipeline();
        p.add_table(openflow::FlowTable::new(1));
        let before = rules(&p);
        let miss = || PacketBuilder::udp().eth_dst([2, 0, 0, 0, 0, 9]).build();

        let interpreter = Reactive::new(DirectDatapath::new(p.clone()), controller());
        assert!(interpreter.process(&mut miss()).to_controller);
        let compiled = Reactive::new(EswitchRuntime::compile(p).unwrap(), controller());
        assert!(compiled.process(&mut miss()).to_controller);

        let want = DecisionCounts {
            packet_ins: 1,
            flow_mods: 0,
            flow_mods_rejected: 1,
            direct_outs: 0,
            dropped: 0,
        };
        assert_eq!(interpreter.stats(), want);
        assert_eq!(compiled.stats(), want);
        assert_eq!(rules(&interpreter.inner().pipeline().read()), before);
        assert_eq!(compiled.inner().with_pipeline(rules), before);
        assert_eq!(compiled.inner().updates.full_recompiles.updates(), 0);
    }

    #[test]
    fn signature_is_per_flow() {
        let a = FlowKey::extract(&PacketBuilder::tcp().tcp_src(1).build());
        let a2 = FlowKey::extract(&PacketBuilder::tcp().tcp_src(1).build());
        let b = FlowKey::extract(&PacketBuilder::tcp().tcp_src(2).build());
        assert_eq!(punt_signature(&a), punt_signature(&a2));
        assert_ne!(punt_signature(&a), punt_signature(&b));
    }

    #[test]
    fn second_punt_of_a_flow_is_suppressed_until_complete() {
        let gate = PuntGate::new(16);
        assert!(gate.admit(7));
        assert!(!gate.admit(7), "in-flight flow must be suppressed");
        assert!(gate.admit(8), "other flows are unaffected");
        assert_eq!(gate.in_flight(), 2);
        gate.complete(7);
        assert!(gate.admit(7), "completed flow punts again");
        assert_eq!(gate.admitted(), 3);
        assert_eq!(gate.suppressed(), 1);
    }

    #[test]
    fn source_signature_sees_through_destination_churn() {
        // One sender scanning many destinations: one source signature.
        let a = FlowKey::extract(
            &PacketBuilder::tcp()
                .ipv4_src([10, 0, 0, 1])
                .tcp_dst(80)
                .build(),
        );
        let b = FlowKey::extract(
            &PacketBuilder::tcp()
                .ipv4_src([10, 0, 0, 1])
                .tcp_dst(8080)
                .ipv4_dst([203, 0, 113, 7])
                .build(),
        );
        assert_ne!(punt_signature(&a), punt_signature(&b));
        assert_eq!(source_signature(&a), source_signature(&b));
        // A different sender is a different source.
        let c = FlowKey::extract(
            &PacketBuilder::tcp()
                .ipv4_src([10, 0, 0, 2])
                .tcp_dst(80)
                .build(),
        );
        assert_ne!(source_signature(&a), source_signature(&c));
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn token_bucket_spends_burst_then_refills_at_rate() {
        // 1000/s sustained, burst 4: four immediate tokens, then 1 per ms.
        let bucket = TokenBucket::new(RateLimit {
            per_sec: 1000,
            burst: 4,
        });
        for _ in 0..4 {
            assert!(bucket.try_acquire(0));
        }
        assert!(!bucket.try_acquire(0), "burst exhausted");
        assert!(!bucket.try_acquire(MS / 2), "half a tick: nothing accrued");
        assert!(bucket.try_acquire(MS), "one tick refills one token");
        assert!(!bucket.try_acquire(MS));
        // A long idle period refills to the burst cap, not beyond.
        for _ in 0..4 {
            assert!(bucket.try_acquire(10_000 * MS));
        }
        assert!(!bucket.try_acquire(10_000 * MS));
    }

    #[test]
    fn token_bucket_banks_fractional_accrual() {
        // 100/s: one token every 10 ticks; single-tick polls must still
        // converge on the configured average instead of losing fractions.
        let bucket = TokenBucket::new(RateLimit {
            per_sec: 100,
            burst: 1,
        });
        assert!(bucket.try_acquire(0));
        let mut granted = 0;
        for tick in 1..=100u64 {
            if bucket.try_acquire(tick * MS) {
                granted += 1;
            }
        }
        assert!(
            (9..=11).contains(&granted),
            "100 ticks at 100/s should grant ~10, got {granted}"
        );
    }

    #[test]
    fn token_bucket_stale_clock_is_zero_elapsed() {
        let bucket = TokenBucket::new(RateLimit {
            per_sec: 1000,
            burst: 1,
        });
        assert!(bucket.try_acquire(100 * MS));
        // A thread with a slightly older clock read must not underflow into
        // a 49-day refill.
        assert!(!bucket.try_acquire(99 * MS));
        assert!(bucket.try_acquire(101 * MS));
    }

    #[test]
    fn admission_sheds_per_source_before_aggregate() {
        // Source limit 2/s (burst 2), aggregate 100/s: an abusive source is
        // stopped by its own bucket without touching the shared budget.
        let admission = PuntAdmission::new(&PuntPolicy {
            per_source: Some(RateLimit {
                per_sec: 2,
                burst: 2,
            }),
            source_buckets: 64,
            aggregate: Some(RateLimit::per_sec(100)),
        });
        // Realistic signatures (hash outputs with high-bit entropy — the
        // bucket index is a multiply-shift on the high bits); these two land
        // in different buckets of the 64-wide table.
        let attacker = 0x0bad_c0de_dead_beef_u64;
        let victim = 0x600d_600d_1234_5678_u64;
        assert_eq!(admission.admit(attacker, 0), PuntAdmit::Admitted);
        assert_eq!(admission.admit(attacker, 0), PuntAdmit::Admitted);
        for _ in 0..50 {
            assert_eq!(admission.admit(attacker, 0), PuntAdmit::ShedSource);
        }
        // The victim's bucket and the aggregate are untouched by the sheds.
        assert_eq!(admission.admit(victim, 0), PuntAdmit::Admitted);
    }

    #[test]
    fn admission_aggregate_budget_backstops() {
        let admission = PuntAdmission::new(&PuntPolicy {
            per_source: Some(RateLimit::per_sec(1_000)),
            source_buckets: 64,
            aggregate: Some(RateLimit {
                per_sec: 3,
                burst: 3,
            }),
        });
        // Many distinct sources, each within its own rate: the aggregate
        // layer still bounds the total.
        let mut admitted = 0;
        let mut shed_aggregate = 0;
        for source in 0..32u64 {
            match admission.admit(source.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0) {
                PuntAdmit::Admitted => admitted += 1,
                PuntAdmit::ShedAggregate => shed_aggregate += 1,
                PuntAdmit::ShedSource => panic!("sources were within rate"),
            }
        }
        assert_eq!(admitted, 3);
        assert_eq!(shed_aggregate, 29);
    }

    #[test]
    fn open_policy_admits_everything() {
        let admission = PuntAdmission::new(&PuntPolicy::default());
        for source in 0..10_000u64 {
            assert_eq!(admission.admit(source, 0), PuntAdmit::Admitted);
        }
    }

    #[test]
    fn full_gate_fails_open() {
        let gate = PuntGate::new(2);
        assert!(gate.admit(1));
        assert!(gate.admit(2));
        // At capacity: new flows are admitted but untracked — duplicates
        // beat an unbounded table.
        assert!(gate.admit(3));
        assert!(gate.admit(3));
        assert_eq!(gate.in_flight(), 2);
        // Tracked flows keep deduplicating.
        assert!(!gate.admit(1));
    }
}
