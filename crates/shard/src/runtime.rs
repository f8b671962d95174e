//! The sharded switch runtime: worker shards, control plane, lifecycle.
//!
//! A [`ShardedSwitch`] owns N worker threads, each draining its *column* of
//! SPSC ingress rings — one fed by the caller-owned [`RssDispatcher`], plus,
//! on a port-attached launch ([`LaunchParts::ports`]), one per ingress port
//! fed by that port's dispatcher thread — in 32-packet bursts through its
//! datapath replica, and handing each verdict to its per-port egress stage
//! ([`crate::multiport`]). The stages, in packet order: port ingress →
//! classify/RSS → SPSC ring matrix → worker (backend + ct) → per-port
//! egress. There is one worker loop whatever the launch attached.
//!
//! The control plane lives on whichever thread calls `flow_mod`: an ESWITCH
//! flow-mod goes through the launch's one [`eswitch::runtime::EswitchRuntime`]
//! — the §3.4 ladder's one executor — and an OVS flow-mod edits the canonical
//! pipeline ([`Canonical`]); the result is published as an epoch-stamped
//! [`CompiledState`] behind an atomic `Arc` swap. An *incremental* or
//! *per-table* epoch re-publishes the shared datapath after the runtime wrote
//! the touched tables through their trampolines, and only structural
//! changes recompile the full state. Workers poll the epoch counter (one
//! relaxed load) at every loop iteration and swap in the published state at
//! a burst boundary, so:
//!
//! * no worker ever blocks while the control plane plans or compiles (the
//!   `published` write lock guards a pointer swap only),
//! * a full epoch is atomic per worker (swapped at a burst boundary), and an
//!   incremental or per-table update is atomic per table lookup — the
//!   paper's trampoline semantics, so a verdict can never mix pre- and
//!   post-update behaviour of one table,
//! * a shard that is idle still converges to the newest epoch.
//!
//! Shutdown is drain-then-join: the port dispatchers steer what their ports
//! still hold and exit, the caller's dispatcher is flushed, every dispatched
//! packet is waited for, the shutdown flag is raised, and each worker exits
//! once its column is observably empty — every dispatched packet is
//! processed exactly once. Every control-side wait names the thread it
//! depends on and fails loudly if that thread has died.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netdev::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use netdev::sync::Arc as CtArc;
use netdev::sync::Mutex;

use conntrack::{CtConfig, CtEngine, CtSnapshot, CtStats};
use eswitch::compile::CompileError;
use eswitch::reactive::{
    punt_signature, source_signature, IngressSnapshot, PuntAdmit, PuntGate, PuntPolicy,
};
use eswitch::runtime::UpdateStats;
use netdev::classify::Classifier;
use netdev::{CounterSnapshot, Counters, PortSet, SpscRing, BURST_SIZE};
use openflow::ct::{ConnCtx, NoCt};
use openflow::flow_mod::{FlowModEffect, FlowModError};
use openflow::instruction::{instructions_can_punt, pipeline_can_punt, pipeline_has_ct};
use openflow::{Controller, FlowKey, FlowMod, PacketInReason, Pipeline, Verdict};
use pkt::Packet;

use crate::backend::{BackendSpec, Canonical, CompiledState, Delta};
use crate::controller::{partition_of, ControllerWorker, Punt, ReactiveShared, ReactiveSnapshot};
use crate::epoch::EpochSlot;
use crate::multiport::{Egress, Ingress, PortDispatcher};
use crate::remap::{
    exact_tuple_match, BucketAck, RebalanceConfig, Rebalancer, RemapShared, ShardCmd,
};
use crate::rss::{backoff, wait_on_thread, Elastic, RssDispatcher, Thread};
use crate::telemetry::{LoadRecorder, LoadSnapshot, ShardLoad};

/// Sharded runtime configuration.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of worker shards (clamped to at least 1).
    pub workers: usize,
    /// Per-shard ring capacity in packets (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Per-(shard, controller-worker) punt ring capacity (reactive launches
    /// only; rounded up to a power of two). A full punt ring sheds the punt
    /// *copy* — counted as `overflow`, never blocking the worker.
    pub punt_ring_capacity: usize,
    /// Controller workers draining the punt rings, partitioned by flow
    /// signature (reactive launches only; clamped to at least 1). Each
    /// worker exclusively owns its slice of the punt/inject ring matrices,
    /// so reactive flow setup scales with cores without MPSC contention.
    pub controller_workers: usize,
    /// Layers 2 and 3 of the punt-admission pipeline: per-source and
    /// aggregate token buckets ([`eswitch::reactive::PuntPolicy`]). The
    /// default is fully open (no rate limits) — the hardened profiles are
    /// opt-in per deployment.
    pub punt_policy: PuntPolicy,
    /// Per-shard connection tracking. `Some` gives every worker shard its
    /// own private [`CtEngine`] (capacity, timeouts, eviction policy, and LB
    /// groups from this config), threaded into the replica per burst and
    /// ticked at every burst boundary. Launching with a ct-bearing pipeline
    /// also switches the dispatcher to symmetric RSS so both directions of a
    /// connection land on one shard — ct state never crosses shards.
    pub ct: Option<CtConfig>,
    /// Elastic rebalancing. `None` (the default) keeps the launch-time
    /// uniform indirection table static — the pre-elastic behaviour, and the
    /// skew benchmark's baseline. `Some` arms the dispatcher's rebalancer:
    /// every `check_packets` dispatched packets it closes an observation
    /// window over the per-shard busy-time telemetry and, on sustained
    /// imbalance, re-homes the hottest flow buckets away from the overloaded
    /// shard through the full quiesce/export/import handshake.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            workers: 2,
            ring_capacity: 1024,
            punt_ring_capacity: 256,
            controller_workers: 1,
            punt_policy: PuntPolicy::default(),
            ct: None,
            rebalance: None,
        }
    }
}

impl ShardedConfig {
    /// The per-shard [`PuntGate`] capacity a launch uses:
    /// [`PuntGate::DEFAULT_CAPACITY`], floored at the shard's total punt-ring
    /// slots
    /// (one ring per controller worker, capacities rounded to powers of
    /// two). The floor makes the gate *eviction-resistant by sizing*: every
    /// punt that can physically sit in a ring has a tracked gate entry, so
    /// an adversarial flow storm can fill the rings and the gate's spare
    /// capacity but can never push a tracked compliant flow into the
    /// fail-open (duplicate-producing) regime — the gate never evicts, it
    /// only stops tracking *new* flows once full, and by then every one of
    /// the adversary's punts is already bounded by the ring slots.
    pub fn effective_gate_capacity(&self) -> usize {
        let ring_slots =
            self.punt_ring_capacity.max(1).next_power_of_two() * self.controller_workers.max(1);
        PuntGate::DEFAULT_CAPACITY.max(ring_slots)
    }
}

/// Number of trailing per-epoch deltas an epoch publication carries. A
/// worker that fell further behind than this window (or crossed a
/// non-selective epoch) falls back to brute-force cache invalidation.
const DELTA_WINDOW: usize = 64;

/// What one epoch changed, kept in the publication's trailing window so OVS
/// replicas that are a few epochs behind can still invalidate selectively.
#[derive(Clone)]
struct EpochDelta {
    epoch: u64,
    /// Matches of the rules this epoch changed; `None` when the change was
    /// not provably selective-safe (a created table, or a match on a field
    /// rewritten upstream of the touched table —
    /// [`delta_is_selective`]).
    matches: Option<Delta>,
}

/// An epoch-stamped published state.
struct Published {
    epoch: u64,
    state: CompiledState,
    /// Trailing window of per-epoch deltas, newest last.
    recent: Vec<EpochDelta>,
}

impl Published {
    /// The per-epoch deltas covering exactly `(since, self.epoch]`, if every
    /// epoch in that gap is inside the window and selective-safe.
    fn deltas_since(&self, since: u64) -> Option<Vec<Delta>> {
        let need = self.epoch.checked_sub(since)?;
        if need > self.recent.len() as u64 {
            // The gap exceeds the delta window: a far-behind worker cannot
            // be covered (and must not size an allocation to the gap).
            return None;
        }
        let mut out = Vec::with_capacity(need as usize);
        for delta in self
            .recent
            .iter()
            .filter(|d| d.epoch > since && d.epoch <= self.epoch)
        {
            out.push(Arc::clone(delta.matches.as_ref()?));
        }
        (out.len() as u64 == need).then_some(out)
    }
}

/// Switch-wide counts of how flow-mods were absorbed, by §3.4 ladder tier
/// (one epoch each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateClassCounts {
    /// Epochs published by an in-place incremental template edit.
    pub incremental: u64,
    /// Epochs published by rebuilding only the touched tables.
    pub per_table: u64,
    /// Epochs that required recompiling the full state.
    pub full: u64,
}

impl UpdateClassCounts {
    /// Total epochs published.
    pub fn total(&self) -> u64 {
        self.incremental + self.per_table + self.full
    }
}

impl From<&UpdateStats> for UpdateClassCounts {
    fn from(updates: &UpdateStats) -> Self {
        UpdateClassCounts {
            incremental: updates.incremental.updates(),
            per_table: updates.table_rebuilds.updates(),
            full: updates.full_recompiles.updates(),
        }
    }
}

/// State shared between the control plane and every worker. The reactive
/// controller threads hold an `Arc` to it too: their flow-mods go through
/// [`Control::flow_mod`], the same path the switch handle uses.
pub(crate) struct Control {
    /// The canonical state flow-mods mutate.
    canonical: Canonical,
    /// Held across apply + publish, so epochs go out in the order their
    /// flow-mods were applied.
    publish: Mutex<()>,
    /// The latest compiled state plus the monotonic epoch counter workers
    /// poll, as an [`EpochSlot`]: the write-side critical section contains a
    /// pointer swap only — every compile/plan/rebuild happens before it,
    /// outside the readers' visible window — and the counter is published
    /// `Release`-after-swap so a worker observing epoch N always reads
    /// state >= N. The swap protocol itself is model-checked in
    /// `tests/loom_epoch.rs`.
    published: EpochSlot<Published>,
    /// True when some path through the canonical pipeline can punt to the
    /// controller; monotone OR, gates the workers' per-burst ingress-frame
    /// snapshot so proactive pipelines pay nothing for packet-in fidelity.
    may_punt: AtomicBool,
    shutdown: AtomicBool,
}

impl Control {
    /// Applies a flow-mod and publishes the next epoch — the shared control
    /// plane entry point, reachable from the switch handle
    /// ([`ShardedSwitch::flow_mod`]) and from the reactive controller
    /// threads.
    pub(crate) fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        let _order = self.publish.lock();
        if instructions_can_punt(&fm.instructions) {
            // Set before the change can reach a worker (an in-place edit
            // does so before publication). Monotone: a refused punt path
            // only leaves the bit conservatively set.
            self.may_punt.store(true, Ordering::Relaxed);
        }
        let (effect, delta) = self.canonical.flow_mod(fm)?;
        // Matched nothing, changed nothing: every shard's state is still
        // exact, and publishing an epoch would only force needless work.
        if effect.entries_touched() > 0 {
            let prev = self.published.load();
            let epoch = prev.epoch + 1;
            let mut recent = prev.recent.clone();
            if recent.len() >= DELTA_WINDOW {
                recent.drain(..recent.len() + 1 - DELTA_WINDOW);
            }
            recent.push(EpochDelta {
                epoch,
                matches: delta,
            });
            let state = self.canonical.state();
            self.published.publish(
                epoch,
                Arc::new(Published {
                    epoch,
                    state,
                    recent,
                }),
            );
        }
        Ok(effect)
    }
}

/// Per-shard runtime statistics, readable while the worker runs.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Packets and bytes this shard has processed.
    pub processed: Counters,
    /// The epoch this shard currently serves.
    pub epoch: AtomicU64,
}

/// Observer invoked by a worker for every verdict it produces, with the
/// shard index and the processed (post-action) frame. Used by the update-
/// and rebalance-consistency tests; `None` in production and in the
/// benchmarks. Sink calls happen *before* the shard's processed counter
/// advances past the burst, so the dispatcher's quiesce wait observes every
/// sink effect of every pre-quiesce packet.
pub type VerdictSink = Arc<dyn Fn(usize, &Packet, &Verdict) + Send + Sync>;

/// The optional parts of a launch ([`ShardedSwitch::launch_with`]); the
/// default attaches nothing and is [`ShardedSwitch::launch`].
#[derive(Default)]
pub struct LaunchParts {
    /// The switch's ports and the pre-shard match program: every port gets
    /// an ingress dispatcher thread and every worker an egress stage
    /// ([`crate::multiport`]). The caller-owned dispatcher still feeds the
    /// same workers, and drives remaps for all of them.
    pub ports: Option<(Arc<PortSet>, Classifier)>,
    /// The asynchronous controller channel: workers enqueue punted packets
    /// onto punt rings, controller workers drain them into this application,
    /// and the answers flow back as epoch-published flow-mods and
    /// RSS-re-injected packet-outs ([`crate::controller`]).
    pub controller: Option<Box<dyn Controller>>,
    /// Per-verdict observer (testing hook). Observes ingress-ring packets
    /// only; re-injected packet-outs are accounted in the reactive counters.
    pub sink: Option<VerdictSink>,
}

/// Aggregate report returned by [`ShardedSwitch::shutdown`].
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Packets handed to the dispatchers — the caller's and every port's —
    /// over the runtime's lifetime.
    pub dispatched: u64,
    /// Switch-wide totals (sum over shards); re-injected packet-outs are
    /// accounted separately in `reactive`, so `processed == dispatched` at
    /// an orderly shutdown.
    pub processed: CounterSnapshot,
    /// Per-shard totals, indexed by shard.
    pub per_shard: Vec<CounterSnapshot>,
    /// The control-plane epoch at shutdown.
    pub epoch: u64,
    /// How the published epochs were classified (§3.4 ladder tiers).
    pub update_classes: UpdateClassCounts,
    /// Reactive slow-path accounting (reactive launches only).
    pub reactive: Option<ReactiveSnapshot>,
    /// Per-shard connection-tracking snapshots, indexed by shard (ct
    /// launches only). Every counter in a shard's snapshot was incremented
    /// by that shard's worker alone — the aggregation here is the only
    /// cross-shard touch ct state ever gets.
    pub ct_per_shard: Option<Vec<CtSnapshot>>,
    /// Per-shard load telemetry, indexed by shard. Exact at shutdown: each
    /// worker's recorder flushes its tail on exit, before the join.
    pub load_per_shard: Vec<LoadSnapshot>,
    /// Bucket remaps the dispatcher executed (manual and rebalancer-driven).
    pub remaps: u64,
}

impl ShutdownReport {
    /// Switch-wide ct totals: the field-wise sum of every shard's snapshot.
    pub fn ct_merged(&self) -> Option<CtSnapshot> {
        self.ct_per_shard.as_ref().map(|shards| {
            shards
                .iter()
                .fold(CtSnapshot::default(), |a, s| a.merged(s))
        })
    }
}

/// The reactive channel's switch-side handles: the controller workers plus
/// everything shutdown needs to prove the punt flow quiescent. The ring
/// vectors are the flattened matrices — shutdown only ever asks "are they
/// all empty", so the [shard][worker] structure is not preserved here.
struct ReactiveHandle {
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shared: Arc<ReactiveShared>,
    punt_rings: Vec<Arc<SpscRing<Punt>>>,
    inject_rings: Vec<Arc<SpscRing<Packet>>>,
}

/// The sharded switch: N worker shards plus the flow-mod control plane and,
/// for reactive launches, the asynchronous controller channel.
pub struct ShardedSwitch {
    control: Arc<Control>,
    stats: Vec<Arc<ShardStats>>,
    /// Per-shard ct counters (ct launches only): each worker's engine
    /// increments its own `Arc<CtStats>`; this side only ever reads.
    ct_stats: Option<Vec<CtArc<CtStats>>>,
    /// Per-shard load telemetry: each worker's recorder flushes into its
    /// own slot; this side (and the dispatcher's rebalancer) only reads.
    loads: Vec<Arc<ShardLoad>>,
    /// Worker threads by shard; the dispatcher's waits hold clones.
    workers: Vec<Thread>,
    /// The port dispatchers' shared face and threads (port-attached
    /// launches only), in [`PortSet`] slot order.
    ingress: Option<(Arc<Ingress>, Vec<Thread>)>,
    reactive: Option<ReactiveHandle>,
}

impl ShardedSwitch {
    /// Compiles `pipeline`, spawns the worker shards, and returns the switch
    /// handle plus the single-producer dispatcher that feeds it.
    pub fn launch(
        spec: BackendSpec,
        pipeline: Pipeline,
        config: ShardedConfig,
    ) -> Result<(Self, RssDispatcher), CompileError> {
        Self::launch_with(spec, pipeline, config, LaunchParts::default())
    }

    /// [`ShardedSwitch::launch`] with any of the optional parts attached:
    /// ports (ingress dispatchers + egress), a controller, a verdict sink.
    pub fn launch_with(
        spec: BackendSpec,
        pipeline: Pipeline,
        config: ShardedConfig,
        parts: LaunchParts,
    ) -> Result<(Self, RssDispatcher), CompileError> {
        let workers_wanted = config.workers.max(1);
        let may_punt = pipeline_can_punt(&pipeline);
        // A ct-bearing pipeline needs both directions of a connection on one
        // shard: steer every dispatcher (ingress and the controller workers'
        // re-injectors) with the direction-insensitive hash.
        let symmetric = pipeline_has_ct(&pipeline);
        let canonical = Canonical::new(spec, pipeline)?;
        let published = Arc::new(Published {
            epoch: 0,
            state: canonical.state(),
            recent: Vec::new(),
        });
        let control = Arc::new(Control {
            canonical,
            publish: Mutex::new(()),
            published: EpochSlot::new(Arc::clone(&published)),
            may_punt: AtomicBool::new(may_punt),
            shutdown: AtomicBool::new(false),
        });

        // The reactive channel's shared plumbing, when a controller rides
        // along. Both ring families are matrices so every ring stays
        // strictly SPSC with N controller workers:
        //
        // * `punt_rings[s][w]`: worker shard `s` is the only producer,
        //   controller worker `w` the only consumer — the worker picks `w`
        //   by flow signature ([`partition_of`]), so a flow's punts always
        //   serialise through one controller worker;
        // * `inject_rings[w][s]`: controller worker `w` is the only
        //   producer (through its private RSS dispatcher), worker shard `s`
        //   the only consumer.
        let controller_workers = config.controller_workers.max(1);
        let shared = parts.controller.as_ref().map(|_| {
            Arc::new(ReactiveShared::new(
                workers_wanted,
                controller_workers,
                config.effective_gate_capacity(),
                &config.punt_policy,
            ))
        });
        let punt_rings: Vec<Vec<Arc<SpscRing<Punt>>>> = ring_matrix(
            workers_wanted,
            controller_workers,
            config.punt_ring_capacity,
        );
        let inject_rings: Vec<Vec<Arc<SpscRing<Packet>>>> =
            ring_matrix(controller_workers, workers_wanted, config.ring_capacity);

        // One private ct engine per worker shard, each over its own shared
        // counter block: the engine moves into the worker thread (no lock
        // ever guards connection state); the `Arc<CtStats>` stays behind for
        // the shutdown report's aggregation.
        let ct_stats: Option<Vec<CtArc<CtStats>>> = config.ct.as_ref().map(|_| {
            (0..workers_wanted)
                .map(|_| CtArc::new(CtStats::new()))
                .collect()
        });

        // The elastic-scheduling plumbing: the shared indirection-table slot
        // every dispatcher steers by, plus per-shard command/ack rings (each
        // strictly SPSC: main dispatcher <-> one worker) and the load
        // telemetry slots the rebalancer reads.
        let remap = Arc::new(RemapShared::new(workers_wanted));
        // The ingress ring matrix, `matrix[dispatcher][shard]`: row 0 is the
        // caller-owned dispatcher's, then one row per port. Each ring is
        // strictly SPSC (its row's dispatcher produces, its shard's worker
        // consumes); a worker's ingress *column* is its ring of every row.
        let port_count = parts.ports.as_ref().map_or(0, |(set, _)| set.len());
        let matrix: Vec<Vec<Arc<SpscRing<Packet>>>> =
            ring_matrix(1 + port_count, workers_wanted, config.ring_capacity);
        let mut cmd_rings = Vec::with_capacity(workers_wanted);
        let mut ack_rings = Vec::with_capacity(workers_wanted);
        let mut loads = Vec::with_capacity(workers_wanted);
        let mut stats = Vec::with_capacity(workers_wanted);
        let mut workers = Vec::with_capacity(workers_wanted);
        for shard in 0..workers_wanted {
            let shard_stats = Arc::new(ShardStats::default());
            let cmd: Arc<SpscRing<ShardCmd>> = Arc::new(SpscRing::new(16));
            let ack: Arc<SpscRing<BucketAck>> = Arc::new(SpscRing::new(16));
            let load = Arc::new(ShardLoad::default());
            let ct = (config.ct.as_ref().zip(ct_stats.as_ref()))
                .map(|(cfg, stats)| CtEngine::with_stats(cfg, CtArc::clone(&stats[shard])));
            let reactive = shared.as_ref().map(|shared| WorkerReactive {
                punt_rings: punt_rings[shard].clone(),
                inject_rings: inject_rings
                    .iter()
                    .map(|row| Arc::clone(&row[shard]))
                    .collect(),
                gate: Arc::clone(&shared.gates[shard]),
                shared: Arc::clone(shared),
            });
            let worker = WorkerHandle {
                shard,
                control: Arc::clone(&control),
                column: matrix.iter().map(|row| Arc::clone(&row[shard])).collect(),
                egress: parts
                    .ports
                    .as_ref()
                    .map(|(set, _)| Egress::new(Arc::clone(set), Arc::clone(&shard_stats))),
                stats: Arc::clone(&shard_stats),
                cmd: Arc::clone(&cmd),
                ack: Arc::clone(&ack),
                recorder: LoadRecorder::new(Arc::clone(&load)),
                sink: parts.sink.clone(),
                reactive,
                backend: spec.replica(&published.state),
                epoch: 0,
                ct,
                verdicts: Vec::with_capacity(BURST_SIZE),
                ingress: IngressSnapshot::default(),
            };
            let name = format!("shard-{shard}");
            workers.push(Arc::new(spawn(name, move || worker.run())));
            stats.push(shard_stats);
            cmd_rings.push(cmd);
            ack_rings.push(ack);
            loads.push(load);
        }

        let reactive = match (parts.controller, shared) {
            (Some(controller), Some(shared)) => {
                let stop = Arc::new(AtomicBool::new(false));
                let app: Arc<Mutex<Box<dyn Controller>>> = Arc::new(Mutex::new(controller));
                let mut threads = Vec::with_capacity(controller_workers);
                for index in 0..controller_workers {
                    let worker = ControllerWorker {
                        index,
                        control: Arc::clone(&control),
                        controller: Arc::clone(&app),
                        punt_rings: punt_rings
                            .iter()
                            .map(|row| Arc::clone(&row[index]))
                            .collect(),
                        injector: RssDispatcher::new(inject_rings[index].clone())
                            .with_symmetric(symmetric)
                            .with_reader(Arc::clone(&remap)),
                        shared: Arc::clone(&shared),
                        stop: Arc::clone(&stop),
                    };
                    let name = format!("shard-controller-{index}");
                    threads.push(spawn(name, move || worker.run()));
                }
                Some(ReactiveHandle {
                    threads,
                    stop,
                    shared,
                    punt_rings: punt_rings.into_iter().flatten().collect(),
                    inject_rings: inject_rings.into_iter().flatten().collect(),
                })
            }
            _ => None,
        };

        // Port dispatcher threads: one per port, each the sole producer of
        // its matrix row, all steering by the shared indirection table.
        let mut rows = matrix.into_iter();
        let rings = rows.next().expect("row 0 always exists");
        let ingress = parts.ports.map(|(set, classifier)| {
            let ingress = Arc::new(Ingress::new(&set, workers_wanted));
            let threads = set
                .iter()
                .zip(rows)
                .enumerate()
                .map(|(slot, (port, row))| {
                    let dispatcher = PortDispatcher {
                        port: Arc::clone(port),
                        slot,
                        rss: RssDispatcher::new(row)
                            .with_symmetric(symmetric)
                            .with_reader(Arc::clone(&remap)),
                        classifier: classifier.clone(),
                        ingress: Arc::clone(&ingress),
                    };
                    let name = format!("shard-port-{}", port.id());
                    Arc::new(spawn(name, move || dispatcher.run()))
                })
                .collect();
            (ingress, threads)
        });

        let dispatcher = RssDispatcher::new(rings)
            .with_symmetric(symmetric)
            .with_elastic(Elastic {
                shared: remap,
                cmd: cmd_rings,
                ack: ack_rings,
                stats: stats.clone(),
                loads: loads.clone(),
                rebalancer: config
                    .rebalance
                    .map(|config| Rebalancer::new(config, workers_wanted)),
                remaps: 0,
                workers: workers.clone(),
                ingress: ingress.clone(),
            });
        Ok((
            ShardedSwitch {
                control,
                stats,
                ct_stats,
                loads,
                workers,
                ingress,
                reactive,
            },
            dispatcher,
        ))
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Applies a flow-mod while traffic runs and broadcasts the result to
    /// every shard as the next epoch. Workers swap it in at their next burst
    /// boundary without ever blocking — the `published` write lock holds a
    /// pointer swap only, never compilation.
    ///
    /// ESWITCH flow-mods go through the launch's one
    /// [`eswitch::runtime::EswitchRuntime`], exactly as on a single switch:
    ///
    /// * **Incremental** — the edit lands in the shared compiled datapath
    ///   through the touched table's trampoline (O(1); packets see the edit
    ///   at their next lookup of that one table, the paper's trampoline
    ///   semantics);
    /// * **PerTable** — only the touched tables are recompiled and written
    ///   into their trampolines the same way;
    /// * **Full** — structure changed: the whole state is recompiled. A
    ///   compilation failure replays the flow-mod's undo log (no up-front
    ///   pipeline clone) and leaves every shard on the previous epoch.
    ///
    /// OVS epochs carry the changed rules' matches when the change is
    /// provably selective-safe, so replicas flush only the overlapping
    /// megaflow entries and keep disjoint EMC entries alive.
    pub fn flow_mod(&self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        self.control.flow_mod(fm)
    }

    /// Switch-wide per-class epoch counts (§3.4 ladder accounting).
    pub fn update_classes(&self) -> UpdateClassCounts {
        self.control.canonical.updates().into()
    }

    /// Reactive slow-path accounting, when this switch was launched with a
    /// controller ([`LaunchParts::controller`]). Live: counters keep
    /// advancing while punts resolve.
    pub fn reactive_stats(&self) -> Option<ReactiveSnapshot> {
        self.reactive.as_ref().map(|r| r.shared.snapshot())
    }

    /// Read access to the canonical pipeline.
    pub fn with_pipeline<R>(&self, f: impl FnOnce(&Pipeline) -> R) -> R {
        self.control.canonical.with_pipeline(f)
    }

    /// The control-plane epoch (number of published updates).
    pub fn epoch(&self) -> u64 {
        self.control.published.epoch()
    }

    /// The epoch each shard currently serves (trails [`ShardedSwitch::epoch`]
    /// until the shard's next burst boundary).
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.epoch.load(Ordering::Acquire))
            .collect()
    }

    /// Per-shard statistics handle (live; counters keep advancing).
    pub fn shard_stats(&self, shard: usize) -> &ShardStats {
        &self.stats[shard]
    }

    /// Live per-shard connection-tracking snapshots (ct launches only).
    /// Counters keep advancing while the workers run; the conservation
    /// identity is only guaranteed between bursts (use the shutdown report
    /// for an exact read).
    pub fn ct_snapshots(&self) -> Option<Vec<CtSnapshot>> {
        self.ct_stats
            .as_ref()
            .map(|stats| stats.iter().map(|s| s.snapshot()).collect())
    }

    /// Live per-shard load telemetry snapshots, indexed by shard. The shared
    /// side lags each worker's local window by at most
    /// [`LoadRecorder::FLUSH_BURSTS`] bursts; use the shutdown report for an
    /// exact read.
    pub fn load_snapshots(&self) -> Vec<LoadSnapshot> {
        self.loads.iter().map(|l| l.snapshot()).collect()
    }

    /// Switch-wide totals: the sum of every shard's counters at this instant.
    pub fn stats(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for s in &self.stats {
            let snap = s.processed.snapshot();
            total.packets += snap.packets;
            total.bytes += snap.bytes;
            total.drops += snap.drops;
        }
        total
    }

    /// Drains and stops the runtime: flushes the caller's dispatcher, stops
    /// and joins the port dispatchers (each steers what its port still holds
    /// first), waits for every dispatched packet to be processed, then —
    /// for reactive launches — runs the punt flow to a provable fixpoint
    /// (every punt answered, every re-injected packet-out processed, every
    /// ring empty) before joining the controller threads and the workers.
    /// Every dispatched packet is processed, and every punt is accounted,
    /// before this returns. Panics, naming the thread, if a worker or port
    /// dispatcher died: a wait on a dead thread fails rather than hangs.
    pub fn shutdown(mut self, mut dispatcher: RssDispatcher) -> ShutdownReport {
        dispatcher.flush();
        let (from_caller, remaps) = (dispatcher.dispatched(), dispatcher.remaps());
        // The dispatcher's clones of the thread handles go with it, so every
        // join below can tell a panic from an exit.
        drop(dispatcher);
        let from_ports = self.stop_ingress().expect("port dispatcher panicked");

        // Phase 1: every dispatched packet processed. Workers enqueue a
        // packet's punts and flush its egress *before* advancing the
        // processed counter, so reaching the dispatch count proves no punt
        // is still unborn and no frame still staged.
        let dispatched = from_caller + from_ports;
        let mut idle = 0u32;
        while self.stats().packets < dispatched {
            for (shard, worker) in self.workers.iter().enumerate() {
                let gone = format_args!("shard {shard} worker died; the drain would hang");
                wait_on_thread(worker, &mut idle, gone);
            }
        }
        if let Some(reactive) = &mut self.reactive {
            // Phase 2: punt-flow fixpoint. Each condition's violation names
            // pending work that monotonically completes (a queued punt gets
            // answered, a queued packet-out gets processed — possibly
            // punting again, which re-opens the punted==answered gap), so
            // the loop terminates for any controller that stops generating
            // new packet-outs for answered flows.
            loop {
                let before = reactive.shared.snapshot();
                let rings_empty = reactive.punt_rings.iter().all(|r| r.is_empty())
                    && reactive.inject_rings.iter().all(|r| r.is_empty());
                if rings_empty
                    && before.answered == before.punted
                    && before.injected == before.reinjected
                    && reactive.shared.snapshot() == before
                {
                    break;
                }
                std::thread::yield_now();
            }
            reactive.stop.store(true, Ordering::Release);
            for thread in reactive.threads.drain(..) {
                thread.join().expect("controller worker panicked");
            }
        }

        self.control.shutdown.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            join(worker).expect("worker panicked");
        }
        let per_shard: Vec<CounterSnapshot> =
            self.stats.iter().map(|s| s.processed.snapshot()).collect();
        ShutdownReport {
            dispatched,
            processed: self.stats(),
            per_shard,
            epoch: self.control.published.epoch(),
            update_classes: self.update_classes(),
            reactive: self.reactive.as_ref().map(|r| r.shared.snapshot()),
            ct_per_shard: self
                .ct_stats
                .as_ref()
                .map(|stats| stats.iter().map(|s| s.snapshot()).collect()),
            load_per_shard: self.loads.iter().map(|l| l.snapshot()).collect(),
            remaps,
        }
    }

    /// Stops and joins the port dispatchers, if any, and returns how many
    /// packets they dispatched in total; `Err` if one of them panicked.
    fn stop_ingress(&mut self) -> std::thread::Result<u64> {
        let Some((ingress, threads)) = self.ingress.take() else {
            return Ok(0);
        };
        ingress.stop.store(true, Ordering::Release);
        let mut outcome = Ok(());
        for thread in threads {
            outcome = outcome.and(join(thread));
        }
        outcome?;
        Ok((0..self.stats.len())
            .map(|shard| ingress.dispatched_to(shard))
            .sum())
    }
}

/// A `rows` × `cols` matrix of SPSC rings: row `r`'s owner is the only
/// producer of `matrix[r][..]`, column `c`'s owner the only consumer of
/// `matrix[..][c]`.
fn ring_matrix<T>(rows: usize, cols: usize, capacity: usize) -> Vec<Vec<Arc<SpscRing<T>>>> {
    let ring = |_| Arc::new(SpscRing::new(capacity));
    (0..rows).map(|_| (0..cols).map(ring).collect()).collect()
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let thread = std::thread::Builder::new().name(name);
    thread.spawn(body).expect("spawn runtime thread")
}

/// Waits for `thread` to exit; `Err` if it panicked. Where the dispatcher
/// (which holds a clone of every handle) outlives the switch — a dirty drop
/// — the exit is still awaited, only the panic is not retrievable.
fn join(thread: Thread) -> std::thread::Result<()> {
    while !thread.is_finished() {
        std::thread::yield_now();
    }
    Arc::into_inner(thread).map_or(Ok(()), JoinHandle::join)
}

impl Drop for ShardedSwitch {
    /// Dropping the switch without [`ShardedSwitch::shutdown`] (a panicking
    /// test, an early return) must not leak spinning threads: stop and join
    /// all of them. Packets still staged in the (separately owned)
    /// dispatcher are lost in this path — orderly code goes through
    /// `shutdown`, which flushes first.
    fn drop(&mut self) {
        // Stop the controller workers first, while the worker shards still
        // drain the inject rings they may be publishing to; punts the shards
        // raise after they exit are shed as overflow once the punt rings
        // fill — dirty teardown loses punts, never hangs. Orderly code goes
        // through `shutdown`, which proves the punt flow quiescent first.
        if let Some(reactive) = &mut self.reactive {
            reactive.stop.store(true, Ordering::Release);
            for thread in reactive.threads.drain(..) {
                let _ = thread.join();
            }
        }
        // Port dispatchers next, for the same reason: their final drain
        // publishes into rings only live workers empty.
        let _ = self.stop_ingress();
        self.control.shutdown.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            let _ = join(worker);
        }
    }
}

/// A worker's side of the reactive channel: its row of punt rings (one per
/// controller worker, picked by flow signature), its column of inject rings
/// (one per controller worker, each an SPSC it exclusively consumes), and
/// the dedup gate shared with the controller workers.
struct WorkerReactive {
    punt_rings: Vec<Arc<SpscRing<Punt>>>,
    inject_rings: Vec<Arc<SpscRing<Packet>>>,
    gate: Arc<PuntGate>,
    shared: Arc<ReactiveShared>,
}

/// One worker shard: everything its thread owns.
struct WorkerHandle {
    shard: usize,
    control: Arc<Control>,
    /// This shard's ingress rings: the caller's dispatcher's, then one per
    /// attached port. Each strictly SPSC, this shard the sole consumer.
    column: Vec<Arc<SpscRing<Packet>>>,
    /// Where verdicts go on a port-attached launch.
    egress: Option<Egress>,
    stats: Arc<ShardStats>,
    /// Bucket-migration commands from the main dispatcher (SPSC, this shard
    /// the sole consumer); handled strictly between bursts.
    cmd: Arc<SpscRing<ShardCmd>>,
    /// Command acks back to the main dispatcher (SPSC, this shard the sole
    /// producer).
    ack: Arc<SpscRing<BucketAck>>,
    /// Load telemetry, flushed into the shard's shared slot.
    recorder: LoadRecorder,
    sink: Option<VerdictSink>,
    reactive: Option<WorkerReactive>,
    /// The datapath replica and the epoch it serves.
    backend: Box<dyn crate::backend::ShardBackend>,
    epoch: u64,
    /// This shard's private connection-tracking engine (ct launches only).
    /// Owned by the worker thread alone and threaded into the replica per
    /// burst, so it survives every epoch swap and never needs a lock.
    ct: Option<CtEngine>,
    /// The verdicts of the burst in flight and, where the pipeline can punt,
    /// its frames as received.
    verdicts: Vec<Verdict>,
    ingress: IngressSnapshot,
}

impl WorkerHandle {
    fn run(mut self) {
        let mut burst: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
        let mut idle = 0u32;
        loop {
            self.sync_epoch();

            // Bucket-migration commands, strictly between bursts: an export
            // can never split a burst, so every packet of a moved bucket the
            // dispatcher quiesced is fully processed before its connections
            // leave this engine.
            self.handle_commands();

            // Re-injected packet-outs first: the controller publishes the
            // install *before* queueing the packet-out, so after re-syncing
            // the epoch the packet takes the fresh rule on the fast path.
            // One ring per controller worker; each is SPSC with this shard
            // as sole consumer.
            burst.clear();
            let mut injected = 0;
            for ring in self.reactive.iter().flat_map(|r| &r.inject_rings) {
                injected += ring.pop_burst(&mut burst, BURST_SIZE);
            }
            if injected > 0 {
                // Injected work is work: keep the backoff at spin so the
                // next re-injection is not penalised a scheduler quantum.
                idle = 0;
                self.sync_epoch();
                let started = Instant::now();
                self.process_group(&mut burst);
                if let Some(egress) = &mut self.egress {
                    egress.route(&mut burst, &self.verdicts);
                    egress.flush(&mut self.recorder);
                }
                // Injected bursts drain no ingress backlog: occupancy 0.
                let busy = started.elapsed().as_nanos() as u64;
                self.recorder.record_burst(busy, injected as u64, 0);
                // Counted after the group's punts are enqueued and its
                // frames transmitted, so `injected == reinjected` proves the
                // inject flow quiescent at shutdown.
                if let Some(reactive) = &self.reactive {
                    let stats = &reactive.shared.stats;
                    stats.injected.fetch_add(injected as u64, Ordering::Release);
                }
            }

            // One drain pass over the ingress column, a burst per ring.
            let (mut packets, mut bytes) = (0u64, 0u64);
            for index in 0..self.column.len() {
                burst.clear();
                let ring = &self.column[index];
                let n = ring.pop_burst(&mut burst, BURST_SIZE);
                if n == 0 {
                    continue;
                }
                // Ring occupancy at this drain: the popped burst plus
                // whatever queued behind it — the telemetry high-water
                // signal.
                let depth = (n + ring.len()) as u64;
                // Ingress byte accounting: before processing, which may grow
                // or shrink frames (push-VLAN and friends).
                bytes += burst.iter().map(|p| p.len() as u64).sum::<u64>();
                packets += n as u64;
                let started = Instant::now();
                self.process_group(&mut burst);
                let mut busy = started.elapsed();
                if let Some(sink) = &self.sink {
                    for (packet, verdict) in burst.iter().zip(&self.verdicts) {
                        sink(self.shard, packet, verdict);
                    }
                }
                if let Some(egress) = &mut self.egress {
                    let started = Instant::now();
                    egress.route(&mut burst, &self.verdicts);
                    busy += started.elapsed();
                }
                self.recorder
                    .record_burst(busy.as_nanos() as u64, n as u64, depth);
            }
            if packets == 0 {
                // `shutdown` is raised only after the port dispatchers
                // exited and the caller's dispatcher was flushed (and, for
                // reactive launches, after the controller threads drained
                // and exited), so once it reads true an empty column is
                // final.
                let mut rings = self
                    .column
                    .iter()
                    .chain(self.reactive.iter().flat_map(|r| &r.inject_rings));
                if self.control.shutdown.load(Ordering::Acquire) && rings.all(|r| r.is_empty()) {
                    break;
                }
                backoff(&mut idle);
                continue;
            }
            idle = 0;
            if let Some(egress) = &mut self.egress {
                egress.flush(&mut self.recorder);
            }
            // Processed is advanced (`Release`) only after the pass's punt
            // copies are enqueued, the sink observed every verdict *and* the
            // egress stage transmitted every frame: `processed ==
            // dispatched` then proves no punt is still unborn (the shutdown
            // fixpoint's phase 1), and the dispatcher's quiesce wait proves
            // every pre-remap packet fully observed.
            self.stats.processed.record_batch(packets, bytes);
        }
    }

    /// Drains this shard's command ring — bucket exports and imports from
    /// the main dispatcher's remap handshake. Called strictly between
    /// bursts. An export drains the bucket's connections (and NAT
    /// allocators) from the private engine and invalidates the backend's
    /// cached entries for every moved flow (both directions), so post-move
    /// packets of those flows can never hit a stale EMC/megaflow verdict on
    /// this shard; the state travels back on the ack ring. An import
    /// installs a previously exported bucket. Launches without ct still ack
    /// (with empty state): stateless verdicts are placement-independent.
    fn handle_commands(&mut self) {
        while let Some(cmd) = self.cmd.pop() {
            let ack = match cmd {
                ShardCmd::Export { bucket } => {
                    let state = match &mut self.ct {
                        Some(engine) => engine.export_bucket(bucket),
                        None => conntrack::BucketExport {
                            bucket,
                            ..Default::default()
                        },
                    };
                    let mut matches = Vec::with_capacity(state.conns.len() * 2);
                    for conn in &state.conns {
                        matches.push(exact_tuple_match(&conn.orig));
                        matches.push(exact_tuple_match(&conn.reply));
                    }
                    if !matches.is_empty() {
                        self.backend.invalidate_flows(&matches);
                    }
                    BucketAck {
                        bucket,
                        state: Some(Box::new(state)),
                    }
                }
                ShardCmd::Import { state } => {
                    let bucket = state.bucket;
                    if let Some(engine) = &mut self.ct {
                        engine.import_bucket(*state);
                    }
                    BucketAck {
                        bucket,
                        state: None,
                    }
                }
            };
            // The handshake keeps one command in flight per shard and the
            // ack ring holds more, so this push cannot starve; retry
            // defensively rather than assert.
            let mut slot = Some(ack);
            while let Err(returned) = self.ack.push(slot.take().expect("ack present")) {
                slot = Some(returned);
                std::thread::yield_now();
            }
        }
    }

    /// One epoch check: a relaxed-cost load per call; the swap itself only
    /// happens when the control plane actually published.
    fn sync_epoch(&mut self) {
        if self.control.published.epoch() != self.epoch {
            let published = self.control.published.load();
            // Selective invalidation is only sound when the delta window
            // covers every epoch this shard skipped; otherwise the
            // replica pays the brute-force flush.
            let deltas = published.deltas_since(self.epoch);
            self.backend.apply(&published.state, deltas.as_deref());
            self.epoch = published.epoch;
            self.stats.epoch.store(self.epoch, Ordering::Release);
        }
    }

    /// Processes one burst through the replica into `self.verdicts` and
    /// raises punt copies for every punting verdict. When the pipeline can
    /// punt at all, the ingress frames are snapshotted first so the punt
    /// copy carries the frame as received — processing rewrites the burst in
    /// place.
    ///
    /// When this shard tracks connections, the engine's clock ticks once per
    /// group here — the burst boundary — expiring idle connections before
    /// the burst's packets consult the table.
    fn process_group(&mut self, burst: &mut [Packet]) {
        let snapshot = self.reactive.is_some() && self.control.may_punt.load(Ordering::Relaxed);
        if snapshot {
            self.ingress.capture(burst);
        }
        let mut no_ct = NoCt;
        let ct: &mut dyn ConnCtx = match &mut self.ct {
            Some(engine) => {
                engine.tick();
                engine
            }
            None => &mut no_ct,
        };
        self.backend.process_burst(burst, &mut self.verdicts, ct);
        let Some(reactive) = &self.reactive else {
            return;
        };
        for (i, verdict) in self.verdicts.iter().enumerate() {
            if !verdict.to_controller {
                continue;
            }
            // `may_punt` is a monotone over-approximation of the published
            // state, so a punting verdict implies the snapshot exists; fall
            // back to the processed frame defensively rather than panic.
            let packet = if snapshot {
                self.ingress.packet(i)
            } else {
                burst[i].clone()
            };
            self.punt(reactive, packet, verdict.punt_reason);
        }
    }

    /// Raises one punt copy through the layered admission pipeline:
    /// dedup-gate it (layer 1), charge the per-source and aggregate token
    /// buckets (layers 2–3), then enqueue onto the controller worker that
    /// owns this flow's partition — or shed it, counted by layer, if any
    /// layer refuses or the punt ring is full. Never blocks, never
    /// allocates beyond the punted packet copy itself.
    fn punt(&self, reactive: &WorkerReactive, packet: Packet, reason: PacketInReason) {
        let key = FlowKey::extract(&packet);
        let flow = punt_signature(&key);
        if !reactive.gate.admit(flow) {
            // An install for this flow is already in flight: the controller
            // copy is suppressed (counted by the gate). The verdict the
            // worker already emitted stands — for a pure miss-to-controller
            // disposition that means this packet is not duplicated up, the
            // lossy upcall-queue behaviour of a real switch. The gate runs
            // *before* the buckets so duplicates never burn tokens.
            return;
        }
        // Layers 2–3: per-source bucket first (an over-rate source is shed
        // on its own budget and never drains the shared one), then the
        // aggregate controller budget. A shed re-arms the gate so a later
        // packet of the same flow retries once the source is compliant.
        match reactive
            .shared
            .admission
            .admit(source_signature(&key), reactive.shared.now_nanos())
        {
            PuntAdmit::Admitted => {}
            PuntAdmit::ShedSource => {
                reactive
                    .shared
                    .stats
                    .shed_source
                    .fetch_add(1, Ordering::Relaxed);
                reactive.gate.complete(flow);
                return;
            }
            PuntAdmit::ShedAggregate => {
                reactive
                    .shared
                    .stats
                    .shed_aggregate
                    .fetch_add(1, Ordering::Relaxed);
                reactive.gate.complete(flow);
                return;
            }
        }
        let punt = Punt {
            packet,
            key,
            flow,
            shard: self.shard,
            epoch: self.epoch,
            reason,
            table_id: 0,
            enqueued: Instant::now(),
        };
        // The flow signature — not the RSS hash — picks the owning
        // controller worker, so partition placement is independent of
        // shard placement.
        let partition = partition_of(flow, reactive.punt_rings.len());
        if reactive.punt_rings[partition].push(punt).is_ok() {
            reactive.shared.stats.punted.fetch_add(1, Ordering::Release);
        } else {
            // Lossless-by-policy backpressure: the punt *copy* is shed —
            // counted, and the flow re-armed so a later packet retries.
            reactive
                .shared
                .stats
                .overflow
                .fetch_add(1, Ordering::Relaxed);
            reactive.gate.complete(flow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowEntry};
    use parking_lot::Mutex as PlMutex;
    use pkt::builder::PacketBuilder;

    fn port_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::UdpDst, 53),
            90,
            terminal_actions(vec![Action::Output(2)]),
        ));
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    fn mixed_traffic(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| match i % 3 {
                0 => PacketBuilder::tcp()
                    .tcp_dst(80)
                    .tcp_src(1000 + (i % 512) as u16)
                    .build(),
                1 => PacketBuilder::udp()
                    .udp_dst(53)
                    .udp_src(1000 + (i % 512) as u16)
                    .build(),
                _ => PacketBuilder::tcp()
                    .tcp_dst(22)
                    .tcp_src(1000 + (i % 512) as u16)
                    .build(),
            })
            .collect()
    }

    #[test]
    fn drains_every_packet_before_join() {
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            let (switch, mut dispatcher) = ShardedSwitch::launch(
                spec,
                port_pipeline(),
                ShardedConfig {
                    workers: 2,
                    ring_capacity: 64,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            for packet in mixed_traffic(5_000) {
                dispatcher.dispatch(packet);
            }
            let report = switch.shutdown(dispatcher);
            assert_eq!(report.dispatched, 5_000, "{}", spec.label());
            assert_eq!(report.processed.packets, 5_000, "{}", spec.label());
            assert_eq!(
                report.per_shard.iter().map(|s| s.packets).sum::<u64>(),
                5_000
            );
            // RSS must actually use both shards on a mixed flow set.
            assert!(
                report.per_shard.iter().all(|s| s.packets > 0),
                "{}: some shard processed nothing: {:?}",
                spec.label(),
                report.per_shard
            );
        }
    }

    #[test]
    fn sharded_verdicts_match_reference_interpreter() {
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            // Collect (tcp_dst-class, decision) pairs through the sink; with
            // per-flow traffic the reference interpreter predicts them all.
            type Decisions = Arc<PlMutex<Vec<(Vec<u32>, bool, bool)>>>;
            let seen: Decisions = Arc::new(PlMutex::new(Vec::new()));
            let sink_seen = Arc::clone(&seen);
            let sink: VerdictSink = Arc::new(move |_shard, _packet: &Packet, verdict: &Verdict| {
                sink_seen.lock().push(verdict.decision());
            });
            let (switch, mut dispatcher) = ShardedSwitch::launch_with(
                spec,
                port_pipeline(),
                ShardedConfig {
                    workers: 3,
                    ring_capacity: 64,
                    ..ShardedConfig::default()
                },
                LaunchParts {
                    sink: Some(sink),
                    ..LaunchParts::default()
                },
            )
            .unwrap();

            let reference = port_pipeline();
            let traffic = mixed_traffic(900);
            let mut expected = std::collections::HashMap::new();
            for packet in &traffic {
                let mut copy = packet.clone();
                let verdict = reference.process_ct(&mut copy, &mut openflow::NoCt);
                *expected.entry(verdict.decision()).or_insert(0u64) += 1;
            }
            for packet in traffic {
                dispatcher.dispatch(packet);
            }
            let report = switch.shutdown(dispatcher);
            assert_eq!(report.processed.packets, 900);

            let mut observed = std::collections::HashMap::new();
            for decision in seen.lock().iter() {
                *observed.entry(decision.clone()).or_insert(0u64) += 1;
            }
            assert_eq!(observed, expected, "{}", spec.label());
        }
    }

    #[test]
    fn flow_mod_reaches_idle_shards() {
        // Even with no traffic flowing, every shard converges to the newest
        // epoch (the epoch poll is part of the idle loop, not the RX path).
        let (switch, dispatcher) = ShardedSwitch::launch(
            BackendSpec::eswitch(),
            port_pipeline(),
            ShardedConfig {
                workers: 2,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        switch
            .flow_mod(&FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::TcpDst, 8080),
                95,
                terminal_actions(vec![Action::Output(4)]),
            ))
            .unwrap();
        assert_eq!(switch.epoch(), 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while switch.shard_epochs().iter().any(|e| *e != 1) {
            assert!(
                std::time::Instant::now() < deadline,
                "shards never converged: {:?}",
                switch.shard_epochs()
            );
            std::thread::yield_now();
        }
        let report = switch.shutdown(dispatcher);
        assert_eq!(report.epoch, 1);
    }

    fn mac_match(i: u64) -> FlowMatch {
        FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_0000 + i))
    }

    fn l2_hash_pipeline() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        for i in 0..64u64 {
            t.insert(FlowEntry::new(
                mac_match(i),
                10,
                terminal_actions(vec![Action::Output((i % 4) as u32)]),
            ));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    /// The acceptance gate of the update-planner PR: hash-table rule
    /// add/delete flow-mods must publish epochs classified Incremental or
    /// PerTable — never Full — and the packets must still see the change.
    #[test]
    fn hash_rule_churn_publishes_incremental_epochs() {
        let (switch, dispatcher) = ShardedSwitch::launch(
            BackendSpec::eswitch(),
            l2_hash_pipeline(),
            ShardedConfig {
                workers: 2,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();

        // Adds and strict deletes of template-shaped MAC rules.
        for i in 100..120u64 {
            switch
                .flow_mod(&FlowMod::add(
                    0,
                    mac_match(i),
                    10,
                    terminal_actions(vec![Action::Output(3)]),
                ))
                .unwrap();
        }
        for i in 100..110u64 {
            switch
                .flow_mod(&FlowMod::delete_strict(0, mac_match(i), 10))
                .unwrap();
        }
        let classes = switch.update_classes();
        assert_eq!(classes.incremental, 30, "{classes:?}");
        assert_eq!(classes.full, 0, "{classes:?}");
        assert_eq!(switch.epoch(), 30);

        // A non-strict delete rebuilds just the one table.
        switch.flow_mod(&FlowMod::delete(0, mac_match(1))).unwrap();
        assert_eq!(switch.update_classes().per_table, 1);
        assert_eq!(switch.update_classes().full, 0);

        // A structural change (new table) is the only full recompile.
        switch
            .flow_mod(&FlowMod::add(
                5,
                FlowMatch::any(),
                1,
                terminal_actions(vec![Action::Output(1)]),
            ))
            .unwrap();
        assert_eq!(switch.update_classes().full, 1);

        // Shards converge and the surviving adds actually forward.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
            assert!(std::time::Instant::now() < deadline, "no convergence");
            std::thread::yield_now();
        }
        let report = switch.shutdown(dispatcher);
        assert_eq!(report.update_classes.incremental, 30);
        assert_eq!(report.update_classes.per_table, 1);
        assert_eq!(report.update_classes.full, 1);
    }

    #[test]
    fn no_op_flow_mod_publishes_no_epoch() {
        let (switch, dispatcher) = ShardedSwitch::launch(
            BackendSpec::eswitch(),
            l2_hash_pipeline(),
            ShardedConfig {
                workers: 1,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let effect = switch
            .flow_mod(&FlowMod::delete(0, mac_match(9999)))
            .unwrap();
        assert_eq!(effect.entries_touched(), 0);
        assert_eq!(switch.epoch(), 0, "no-op must not publish an epoch");
        assert_eq!(switch.update_classes().total(), 0);
        switch.shutdown(dispatcher);
    }

    #[test]
    fn ovs_selective_rule_adds_classify_incremental() {
        let (switch, dispatcher) = ShardedSwitch::launch(
            BackendSpec::ovs(),
            port_pipeline(),
            ShardedConfig {
                workers: 1,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        // port_pipeline rewrites nothing, so a port-rule add ships a delta.
        switch
            .flow_mod(&FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::TcpDst, 8080),
                95,
                terminal_actions(vec![Action::Output(4)]),
            ))
            .unwrap();
        assert_eq!(switch.update_classes().incremental, 1);
        switch.shutdown(dispatcher);
    }

    /// A stateful ACL pipeline: client→server traffic commits a connection,
    /// server→client traffic passes only when established.
    fn ct_acl_pipeline() -> Pipeline {
        use openflow::ct::CtVerb;
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Ct(CtVerb::Commit), Action::Output(1)]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpSrc, 80),
            90,
            terminal_actions(vec![Action::Ct(CtVerb::Established), Action::Output(2)]),
        ));
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    /// The ct acceptance gate: bidirectional traffic over a multi-shard
    /// launch tracks connections strictly shard-locally. Symmetric RSS puts
    /// every reply on its request's shard (a miss would show up as a denied
    /// Established verdict), and the per-shard counters — incremented by
    /// each worker alone, no cross-shard locks — satisfy the conservation
    /// identity and sum to exactly the offered load.
    #[test]
    fn ct_state_is_shard_local_and_identities_hold() {
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            let (switch, mut dispatcher) = ShardedSwitch::launch(
                spec,
                ct_acl_pipeline(),
                ShardedConfig {
                    workers: 4,
                    ring_capacity: 256,
                    ct: Some(conntrack::CtConfig::default()),
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            assert!(dispatcher.is_symmetric(), "{}", spec.label());

            let flows = 512u16;
            for src in 0..flows {
                dispatcher.dispatch(
                    PacketBuilder::tcp()
                        .ipv4_src([10, 0, 0, 1])
                        .ipv4_dst([10, 0, 0, 2])
                        .tcp_src(1024 + src)
                        .tcp_dst(80)
                        .build(),
                );
            }
            dispatcher.flush();
            // Replies only after every request is processed, so no reply can
            // race its own commit through a still-staged request burst.
            while switch.stats().packets < u64::from(flows) {
                std::thread::yield_now();
            }
            for src in 0..flows {
                dispatcher.dispatch(
                    PacketBuilder::tcp()
                        .ipv4_src([10, 0, 0, 2])
                        .ipv4_dst([10, 0, 0, 1])
                        .tcp_src(80)
                        .tcp_dst(1024 + src)
                        .build(),
                );
            }
            // One unsolicited "reply" no request ever committed: denied.
            dispatcher.dispatch(
                PacketBuilder::tcp()
                    .ipv4_src([10, 9, 9, 9])
                    .ipv4_dst([10, 0, 0, 1])
                    .tcp_src(80)
                    .tcp_dst(9999)
                    .build(),
            );

            let report = switch.shutdown(dispatcher);
            assert_eq!(report.processed.packets, u64::from(flows) * 2 + 1);
            let shards = report.ct_per_shard.as_ref().expect("ct launch");
            for (shard, snap) in shards.iter().enumerate() {
                assert!(
                    snap.identity_holds(),
                    "{}: shard {shard} identity: {snap:?}",
                    spec.label()
                );
            }
            let merged = report.ct_merged().unwrap();
            assert!(merged.identity_holds(), "{}: {merged:?}", spec.label());
            assert_eq!(merged.created, u64::from(flows), "{}", spec.label());
            // Every reply found its connection on its own shard — symmetric
            // RSS at work; any cross-shard reply would be denied instead.
            assert_eq!(merged.hits, u64::from(flows), "{}", spec.label());
            assert_eq!(merged.denied, 1, "{}", spec.label());
            // The load spread: no shard tracked everything.
            assert!(
                shards.iter().filter(|s| s.created > 0).count() > 1,
                "{}: all connections landed on one shard",
                spec.label()
            );
        }
    }

    #[test]
    fn rejected_flow_mod_rolls_back() {
        let (switch, dispatcher) = ShardedSwitch::launch(
            BackendSpec::eswitch(),
            port_pipeline(),
            ShardedConfig {
                workers: 1,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        // Strict-deleting from a table that does not exist is a
        // FlowModError; the epoch must not advance.
        let bogus = FlowMod::delete_strict(40, FlowMatch::any().with_exact(Field::TcpDst, 80), 100);
        assert!(switch.flow_mod(&bogus).is_err());
        assert_eq!(switch.epoch(), 0);
        switch.shutdown(dispatcher);
    }
}
