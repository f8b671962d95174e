//! The asynchronous controller channel: the reactive slow path of the
//! sharded runtime, itself sharded.
//!
//! A worker shard whose datapath punts a packet must not call the controller
//! itself — a controller decision costs microseconds to milliseconds, and a
//! worker that blocks on one stalls its whole ring. Instead the worker runs
//! the punt through the layered admission pipeline (per-flow [`PuntGate`],
//! per-source and aggregate token buckets — [`eswitch::reactive`]) and, if
//! admitted, enqueues a *punt copy* (ingress frame + extracted key + shard
//! id + the epoch it was serving) onto a private SPSC punt ring and keeps
//! forwarding per the pipeline's miss action.
//!
//! The control plane's drain side is **partitioned by flow signature**: N
//! controller workers each exclusively own one slice of the punt and inject
//! rings. The rings form a matrix — worker shard `s` owns the producer side
//! of `punt[s][w]` for every controller worker `w`, and controller worker
//! `w` owns the consumer side of `punt[s][w]` for every shard `s` — so every
//! ring stays strictly SPSC (no MPSC contention anywhere on the punt path),
//! and a flow's punts always land on the same controller worker
//! ([`partition_of`] over the flow signature), which keeps per-flow
//! ordering: a flow's second punt can never overtake its first into a
//! different worker. Controller answers flow back through the two channels
//! the architecture already has:
//!
//! * **flow-mods** go through the control plane (`Control::flow_mod`), i.e.
//!   through the launch's runtime and the epoch-swap publication — a
//!   reactive install is an incremental epoch like any other, and no worker
//!   blocks on it. Concurrent controller workers serialise on the publish
//!   lock exactly like concurrent proactive flow-mods do;
//! * **packet-outs** with an empty action list (`OFPP_TABLE` resubmit) are
//!   re-injected through a *per-controller-worker* RSS dispatcher over that
//!   worker's own slice of inject rings (`inject[w][s]`), so the triggering
//!   packet re-enters its own shard and takes the freshly installed rule on
//!   the fast path; explicit action lists are applied at the controller
//!   edge.
//!
//! Those two channels are this loop's [`DecisionSink`]; the answers are
//! applied, and counted, by the one decision applier the synchronous
//! [`eswitch::reactive::Reactive`] loop uses too
//! ([`DecisionStats::answer`]).
//!
//! The controller *application* (`dyn Controller`) is a single logical
//! entity — a learning switch's MAC table spans flows from every partition —
//! so the workers share it behind a mutex held only while computing
//! decisions; draining, admission bookkeeping, flow-mod publication and
//! re-injection all run outside it.
//!
//! Backpressure is lossless-by-policy for the *dataplane*: a shed punt (full
//! ring, source over rate, budget exhausted) only drops the punt *copy* —
//! the packet's verdict already stands, and any non-controller disposition
//! it carried (outputs, flood) was honoured — and every shed is counted by
//! reason, never silent. Per-shard [`PuntGate`]s suppress duplicate
//! packet-ins for a flow while its install is in flight; RSS flow affinity
//! guarantees a flow only ever punts from one shard, so the gates never see
//! cross-shard aliasing.
//!
//! Every punted packet is accounted exactly once:
//!
//! ```text
//! punt attempts  = admitted + suppressed                 (gate decision)
//! admitted       = punted + overflow                     (ring admission)
//!                  + shed_source + shed_aggregate        (token buckets)
//! punted         = answered                              (at quiescence)
//! reinjected     = injected                              (at quiescence)
//! punted         = Σ per-worker drained                  (at quiescence)
//! ```

use std::sync::Arc;
use std::time::Instant;

use netdev::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use netdev::sync::Mutex;

use eswitch::reactive::{DecisionSink, DecisionStats, PuntAdmission, PuntGate, PuntPolicy};
use netdev::{SpscRing, BURST_SIZE};
use openflow::flow_mod::{FlowModEffect, FlowModError};
use openflow::pipeline::TableId;
use openflow::{Controller, FlowKey, FlowMod, PacketIn, PacketInReason};
use pkt::Packet;

use crate::rss::RssDispatcher;
use crate::runtime::Control;

/// Maps a flow signature onto one of `workers` controller workers: the same
/// bias-free multiply-shift reduction RSS uses for shards, over a hash that
/// is *independent* of the RSS hash — so controller partitioning does not
/// correlate with shard placement and one busy shard's punts still spread
/// over every controller worker.
pub fn partition_of(flow: u64, workers: usize) -> usize {
    crate::rss::shard_of(flow, workers)
}

/// One buffered punt: everything a controller worker needs to raise the
/// packet-in and route the answers back.
pub struct Punt {
    /// The *ingress* frame of the punted packet (a copy; the original kept
    /// forwarding per the pipeline's miss action).
    pub packet: Packet,
    /// The flow key extracted from the ingress frame.
    pub key: FlowKey,
    /// The flow's punt signature ([`eswitch::reactive::punt_signature`]);
    /// doubles as the packet-in's buffer id and picks the controller
    /// worker ([`partition_of`]).
    pub flow: u64,
    /// The worker shard the punt came from.
    pub shard: usize,
    /// The datapath epoch the shard was serving when the packet missed.
    pub epoch: u64,
    /// Why the datapath punted.
    pub reason: PacketInReason,
    /// Table at which the punt decision was taken (0: the runtimes do not
    /// attribute punts to inner tables).
    pub table_id: TableId,
    /// When the worker enqueued the punt (punt round-trip accounting).
    pub enqueued: Instant,
}

/// Live counters of the reactive slow path.
///
/// The fixpoint counters (`punted`, `answered`, `injected`, `reinjected`)
/// are bumped only *after* the work they describe is externally visible,
/// with `Release` increments read `Acquire` by [`ReactiveShared::snapshot`]
/// — that ordering (free on x86-TSO) is what lets shutdown conclude
/// quiescence from counter equalities on weakly-ordered machines too; the
/// program-order half of the contract ("count after the side effect") is
/// model-checked in `tests/loom_fixpoint.rs`. The rest are plain statistics
/// and stay relaxed.
#[derive(Debug, Default)]
pub struct ReactiveStats {
    /// Punt copies successfully enqueued on a punt ring.
    pub punted: AtomicU64,
    /// Punt copies dropped because the punt ring was full (the packet still
    /// forwarded per the miss action; only the controller copy was shed).
    pub overflow: AtomicU64,
    /// Punt copies shed by the per-source token bucket (layer 2): the
    /// sending tenant exceeded its punt rate.
    pub shed_source: AtomicU64,
    /// Punt copies shed by the aggregate controller budget (layer 3).
    pub shed_aggregate: AtomicU64,
    /// Packet-ins the controller workers have fully handled (decisions
    /// applied).
    pub answered: AtomicU64,
    /// Packet-outs re-injected through the RSS dispatchers (empty action
    /// list: `OFPP_TABLE` resubmit).
    pub reinjected: AtomicU64,
    /// Re-injected packets the workers have processed.
    pub injected: AtomicU64,
    /// Sum of punt round-trip times (enqueue → decisions applied), nanos.
    pub rtt_nanos: AtomicU64,
    /// Worst observed punt round-trip, nanos.
    pub rtt_max_nanos: AtomicU64,
}

/// Per-controller-worker drain accounting, so partition imbalance is
/// observable instead of averaged away in the switch-wide totals.
#[derive(Debug, Default)]
pub struct ControllerWorkerStats {
    /// Punts this worker drained and fully handled.
    pub drained: AtomicU64,
    /// Sum of this worker's punt round-trips, nanos.
    pub rtt_nanos: AtomicU64,
    /// This worker's worst punt round-trip, nanos.
    pub rtt_max_nanos: AtomicU64,
}

/// Plain-data copy of one controller worker's drain stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerWorkerSnapshot {
    /// Punts this worker drained and fully handled.
    pub drained: u64,
    /// Sum of this worker's punt round-trips, nanoseconds.
    pub rtt_nanos_total: u64,
    /// This worker's worst punt round-trip, nanoseconds.
    pub rtt_max_nanos: u64,
}

impl ControllerWorkerSnapshot {
    /// Mean punt round-trip over this worker's drained punts, nanoseconds.
    pub fn rtt_mean_nanos(&self) -> f64 {
        if self.drained == 0 {
            0.0
        } else {
            self.rtt_nanos_total as f64 / self.drained as f64
        }
    }
}

/// Everything the workers, the controller workers and the switch handle
/// share about the reactive channel.
pub(crate) struct ReactiveShared {
    pub(crate) stats: ReactiveStats,
    /// What the decision applier did with the controller's answers
    /// (`packet_ins` is not reported: it equals `answered` once the
    /// answers are applied).
    pub(crate) decisions: DecisionStats,
    /// Per-shard punt-dedup gates (worker admits, controller completes).
    pub(crate) gates: Vec<Arc<PuntGate>>,
    /// Layers 2 and 3 of the admission pipeline (per-source + aggregate
    /// token buckets), shared switch-wide.
    pub(crate) admission: PuntAdmission,
    /// Per-controller-worker drain stats, indexed by partition.
    pub(crate) workers: Vec<ControllerWorkerStats>,
    /// Monotone time base for the token buckets (nanos since launch).
    clock: Instant,
}

impl ReactiveShared {
    pub(crate) fn new(
        shards: usize,
        controller_workers: usize,
        gate_capacity: usize,
        policy: &PuntPolicy,
    ) -> Self {
        ReactiveShared {
            stats: ReactiveStats::default(),
            decisions: DecisionStats::default(),
            gates: (0..shards)
                .map(|_| Arc::new(PuntGate::new(gate_capacity)))
                .collect(),
            admission: PuntAdmission::new(policy),
            workers: (0..controller_workers)
                .map(|_| ControllerWorkerStats::default())
                .collect(),
            clock: Instant::now(),
        }
    }

    /// Nanoseconds since launch — the token buckets' time source.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Point-in-time copy of every reactive counter.
    pub(crate) fn snapshot(&self) -> ReactiveSnapshot {
        let s = &self.stats;
        let answered = s.answered.load(Ordering::Acquire);
        let decisions = self.decisions.snapshot();
        ReactiveSnapshot {
            admitted: self.gates.iter().map(|g| g.admitted()).sum(),
            suppressed: self.gates.iter().map(|g| g.suppressed()).sum(),
            punted: s.punted.load(Ordering::Acquire),
            overflow: s.overflow.load(Ordering::Relaxed),
            shed_source: s.shed_source.load(Ordering::Relaxed),
            shed_aggregate: s.shed_aggregate.load(Ordering::Relaxed),
            answered,
            flow_mods: decisions.flow_mods,
            flow_mods_rejected: decisions.flow_mods_rejected,
            reinjected: s.reinjected.load(Ordering::Acquire),
            injected: s.injected.load(Ordering::Acquire),
            direct_outs: decisions.direct_outs,
            dropped: decisions.dropped,
            rtt_nanos_total: s.rtt_nanos.load(Ordering::Relaxed),
            rtt_max_nanos: s.rtt_max_nanos.load(Ordering::Relaxed),
            per_worker: self
                .workers
                .iter()
                .map(|w| ControllerWorkerSnapshot {
                    drained: w.drained.load(Ordering::Relaxed),
                    rtt_nanos_total: w.rtt_nanos.load(Ordering::Relaxed),
                    rtt_max_nanos: w.rtt_max_nanos.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Plain-data copy of the reactive slow path's accounting at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactiveSnapshot {
    /// Punts the per-flow gates admitted
    /// (= `punted + overflow + shed_source + shed_aggregate`).
    pub admitted: u64,
    /// Punts suppressed because the flow's install was already in flight.
    pub suppressed: u64,
    /// Punt copies enqueued for the controller workers.
    pub punted: u64,
    /// Punt copies shed because the punt ring was full (counted, not
    /// silent; the packets themselves forwarded per the miss action).
    pub overflow: u64,
    /// Punt copies shed by the per-source token bucket (layer 2).
    pub shed_source: u64,
    /// Punt copies shed by the aggregate controller budget (layer 3).
    pub shed_aggregate: u64,
    /// Packet-ins fully handled by the controller workers.
    pub answered: u64,
    /// Reactive flow-mods applied through the epoch-swap control plane.
    pub flow_mods: u64,
    /// Reactive flow-mods the control plane rejected.
    pub flow_mods_rejected: u64,
    /// Packet-outs re-injected through the RSS dispatchers.
    pub reinjected: u64,
    /// Re-injected packets processed by the workers.
    pub injected: u64,
    /// Packet-outs with explicit actions applied at the controller edge.
    pub direct_outs: u64,
    /// Punted packets the controller decided to drop.
    pub dropped: u64,
    /// Sum of punt round-trip times over `answered` punts, nanoseconds.
    pub rtt_nanos_total: u64,
    /// Worst observed punt round-trip, nanoseconds.
    pub rtt_max_nanos: u64,
    /// Per-controller-worker drain stats, indexed by partition — partition
    /// imbalance is visible here, not averaged away.
    pub per_worker: Vec<ControllerWorkerSnapshot>,
}

impl ReactiveSnapshot {
    /// Mean punt round-trip (enqueue → decisions applied) in nanoseconds.
    pub fn rtt_mean_nanos(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.rtt_nanos_total as f64 / self.answered as f64
        }
    }

    /// Every punt attempt the workers made, however it was resolved.
    pub fn attempts(&self) -> u64 {
        self.admitted + self.suppressed
    }

    /// Punt copies shed by the admission token buckets (layers 2 + 3).
    pub fn shed_total(&self) -> u64 {
        self.shed_source + self.shed_aggregate
    }
}

/// One controller worker: drains its own slice of the punt-ring matrix
/// (column `index`: one SPSC ring per shard), runs the shared controller
/// application, and routes its answers back through the control plane
/// (flow-mods) and its private inject dispatcher (packet-outs).
pub(crate) struct ControllerWorker {
    /// This worker's partition index.
    pub(crate) index: usize,
    pub(crate) control: Arc<Control>,
    /// The controller application, shared by every worker: locked only
    /// while computing decisions, never across flow-mod publication or
    /// re-injection.
    pub(crate) controller: Arc<Mutex<Box<dyn Controller>>>,
    /// `punt_rings[s]` = the (shard `s` → this worker) ring; this worker is
    /// the exclusive consumer of every ring in the vector.
    pub(crate) punt_rings: Vec<Arc<SpscRing<Punt>>>,
    /// This worker's private re-injection dispatcher over its own row of
    /// the inject-ring matrix; it is the exclusive producer of those rings.
    pub(crate) injector: RssDispatcher,
    pub(crate) shared: Arc<ReactiveShared>,
    pub(crate) stop: Arc<AtomicBool>,
}

impl ControllerWorker {
    pub(crate) fn run(mut self) {
        let mut batch: Vec<Punt> = Vec::with_capacity(BURST_SIZE);
        let mut idle = 0u32;
        loop {
            let mut drained = 0usize;
            for shard in 0..self.punt_rings.len() {
                batch.clear();
                drained += self.punt_rings[shard].pop_burst(&mut batch, BURST_SIZE);
                for punt in batch.drain(..) {
                    self.handle(punt);
                }
            }
            if drained == 0 {
                // `stop` is raised only once shutdown has proven the punt
                // flow quiescent, so empty rings are then final.
                if self.stop.load(Ordering::Acquire) && self.punt_rings.iter().all(|r| r.is_empty())
                {
                    break;
                }
                idle += 1;
                if idle < 16 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            } else {
                idle = 0;
            }
        }
    }

    fn handle(&mut self, punt: Punt) {
        debug_assert_eq!(
            partition_of(punt.flow, self.shared.workers.len()),
            self.index,
            "punt routed to the wrong controller worker"
        );
        let stats = &self.shared.stats;
        let event = PacketIn::new(punt.packet, punt.reason, punt.table_id)
            .with_epoch(punt.epoch)
            .with_buffer(punt.flow);
        // The application mutex covers decision *computation* only; the
        // expensive halves — flow-mod publication, RSS re-injection — run
        // after it, in parallel across controller workers.
        let mut sink = ShardSink {
            control: &self.control,
            injector: &mut self.injector,
            reinjected: &stats.reinjected,
        };
        self.shared
            .decisions
            .answer(&self.controller, event, &mut sink);
        // Re-arm the flow only after its install is published: a packet
        // missing *now* (stale epoch) may punt again, and the controller
        // must be idempotent — OpenFlow never promised exactly-once
        // packet-ins.
        self.shared.gates[punt.shard].complete(punt.flow);
        let nanos = punt.enqueued.elapsed().as_nanos() as u64;
        stats.rtt_nanos.fetch_add(nanos, Ordering::Relaxed);
        stats.rtt_max_nanos.fetch_max(nanos, Ordering::Relaxed);
        let mine = &self.shared.workers[self.index];
        mine.drained.fetch_add(1, Ordering::Relaxed);
        mine.rtt_nanos.fetch_add(nanos, Ordering::Relaxed);
        mine.rtt_max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // `answered` last: once it matches `punted`, every side effect of
        // every handled punt (flow-mod published, packet-out enqueued and
        // counted) is already visible — the shutdown fixpoint relies on it.
        stats.answered.fetch_add(1, Ordering::Release);
    }
}

/// A controller worker's [`DecisionSink`]: flow-mods through the control
/// plane, resubmits through the worker's private inject dispatcher.
struct ShardSink<'a> {
    control: &'a Control,
    injector: &'a mut RssDispatcher,
    reinjected: &'a AtomicU64,
}

impl DecisionSink for ShardSink<'_> {
    /// Reactive installs go through the runtime's ladder and the epoch-swap
    /// publication like any proactive flow-mod; the punting shard picks the
    /// new epoch up at a burst boundary.
    fn flow_mod(&mut self, fm: &FlowMod) -> Result<FlowModEffect, FlowModError> {
        self.control.flow_mod(fm)
    }

    /// OFPP_TABLE resubmit: back through RSS, so the packet re-enters its
    /// own shard and takes the rule installed a moment ago on the fast path.
    /// Punts are rare; flushing immediately trades burst batching for setup
    /// latency.
    fn resubmit(&mut self, packet: Packet) {
        self.reinjected.fetch_add(1, Ordering::Release);
        self.injector.dispatch(packet);
        self.injector.flush();
    }
}
