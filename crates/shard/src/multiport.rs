//! Multi-port NIC front end: per-port dispatchers over a strictly-SPSC
//! ring matrix, with batched vectored egress.
//!
//! [`crate::runtime::ShardedSwitch`] models the *compute* side of the paper's
//! deployment — N worker shards behind one dispatcher — but its single
//! dispatcher looks nothing like the multi-queue NIC a real switch sits on.
//! [`MultiPortSwitch`] adds the I/O side: one RSS dispatcher thread per
//! ingress [`netdev::Port`], polling the port with the allocation-free
//! `rx_burst_into` API (which stamps each frame's one parse on its
//! descriptor for the hash and the worker's datapath to read) and steering
//! each frame into a matrix of
//! per-(port, shard) [`SpscRing`]s. Every ring has exactly one producer (its
//! port's dispatcher) and one consumer (its shard's worker), so the ingress
//! path carries no MPSC contention anywhere — the same discipline as the
//! reactive runtime's punt matrix. All dispatchers read the *shared*
//! indirection-table epoch slot ([`RemapShared`]), so one bucket remap
//! retargets every ingress port at once.
//!
//! Before RSS, each dispatcher runs the port's pre-shard
//! [`Classifier`] (the software `SO_REUSEPORT` + eBPF analogue): a
//! [`ClassifyAction::Steer`] decision pins the frame to a designated shard
//! (controller-bound traffic, LB VIPs), everything else takes the normal
//! hash → indirection-table path.
//!
//! On the way out, workers stage each verdict's output frames per
//! destination port and flush each port's staging buffer with one vectored
//! [`netdev::Port::tx_burst`] per drain pass — the `sendmmsg` shape — instead
//! of paying a ring reservation and two stats RMWs per packet. The realised
//! batch factor is observable per shard via
//! [`LoadSnapshot::egress_batch_factor`].
//!
//! This runtime is deliberately *stateless*: shards replicate a fixed
//! compiled pipeline (no flow-mod control plane, no conntrack — workers
//! thread [`NoCt`]). The full control plane, reactive slow path and ct
//! engine remain in [`crate::runtime::ShardedSwitch`]; the multi-port
//! front end is about the I/O architecture, and the differential suite
//! (`tests/multiport_equivalence.rs`) proves the two front ends produce
//! identical per-flow verdicts.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netdev::classify::{Classifier, ClassifyAction};
use netdev::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use netdev::{Counters, Port, PortSet, SpscRing, BURST_SIZE};
use netdev::{PORT_CONTROLLER, PORT_DROP, PORT_FLOOD, PORT_IN_PORT};
use openflow::ct::NoCt;
use openflow::{Pipeline, Verdict};
use pkt::Packet;

use eswitch::compile::CompileError;

use crate::backend::BackendSpec;
use crate::remap::{RemapShared, RemapTable};
use crate::rss::RssDispatcher;
use crate::runtime::VerdictSink;
use crate::telemetry::{LoadRecorder, LoadSnapshot, ShardLoad};

/// Configuration for a [`MultiPortSwitch`] launch.
#[derive(Clone)]
pub struct MultiPortConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Per-(port, shard) ring capacity in packets (rounded up to a power of
    /// two by the ring).
    pub ring_capacity: usize,
    /// Stage verdict outputs per destination port and flush with one
    /// vectored `tx_burst` per drain pass (`true`, the default), or pay a
    /// per-packet `tx` — the baseline the `fig_io` benchmark compares
    /// against.
    pub egress_batching: bool,
    /// The pre-shard match program every dispatcher runs before RSS. Empty
    /// by default: every frame hashes normally.
    pub classifier: Classifier,
}

impl Default for MultiPortConfig {
    fn default() -> Self {
        MultiPortConfig {
            shards: 2,
            ring_capacity: 1024,
            egress_batching: true,
            classifier: Classifier::new(),
        }
    }
}

/// Final accounting returned by [`MultiPortSwitch::shutdown`].
#[derive(Debug, Clone)]
pub struct MultiPortReport {
    /// Frames handed to the ring matrix across all port dispatchers.
    pub dispatched: u64,
    /// Per-shard processed totals, indexed by shard.
    pub per_shard: Vec<netdev::CounterSnapshot>,
    /// Per-shard load telemetry (busy time, bursts, egress batching).
    pub load_per_shard: Vec<LoadSnapshot>,
    /// Controller-bound verdicts observed (counted, not forwarded — this
    /// runtime has no reactive channel).
    pub controller_punts: u64,
    /// The indirection-table epoch at shutdown.
    pub epoch: u64,
}

/// Shared flags coordinating the dispatcher/worker threads.
struct Shared {
    /// Dispatchers stop polling RX and drain out.
    stop_dispatch: AtomicBool,
    /// Workers exit once their rings run dry.
    stop_workers: AtomicBool,
    /// Remap barrier: dispatchers park between bursts while set.
    pause: AtomicBool,
}

/// One ingress dispatcher thread's shared face.
struct DispatcherSlot {
    /// Frames published to the ring matrix so far (monotonic; `Release`
    /// after the publishing flush, so the quiesce wait's `Acquire` read
    /// observes the published packets).
    dispatched: AtomicU64,
    /// Set while the dispatcher is parked at the remap barrier.
    parked: AtomicBool,
}

/// The multi-port switch: one dispatcher thread per ingress port, one
/// worker thread per shard, wired by a strictly-SPSC ring matrix.
pub struct MultiPortSwitch {
    shared: Arc<Shared>,
    remap: Arc<RemapShared>,
    slots: Vec<Arc<DispatcherSlot>>,
    stats: Vec<Arc<Counters>>,
    loads: Vec<Arc<ShardLoad>>,
    punts: Vec<Arc<AtomicU64>>,
    dispatchers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    epoch: u64,
}

impl MultiPortSwitch {
    /// Compiles `pipeline`, spawns one dispatcher per port in `ports` and
    /// one worker per shard, and starts forwarding.
    pub fn launch(
        spec: BackendSpec,
        pipeline: Pipeline,
        config: MultiPortConfig,
        ports: Arc<PortSet>,
    ) -> Result<MultiPortSwitch, CompileError> {
        Self::launch_with_sink(spec, pipeline, config, ports, None)
    }

    /// [`MultiPortSwitch::launch`] with a per-verdict observer (testing
    /// hook). The sink runs *before* the shard's processed counter advances
    /// past the burst, so the remap barrier's quiesce wait observes every
    /// sink effect of every pre-remap packet.
    pub fn launch_with_sink(
        spec: BackendSpec,
        pipeline: Pipeline,
        config: MultiPortConfig,
        ports: Arc<PortSet>,
        sink: Option<VerdictSink>,
    ) -> Result<MultiPortSwitch, CompileError> {
        assert!(!ports.is_empty(), "a multi-port switch needs ports");
        let shards = config.shards.max(1);
        let state = spec.compile_state(&pipeline)?;
        let shared = Arc::new(Shared {
            stop_dispatch: AtomicBool::new(false),
            stop_workers: AtomicBool::new(false),
            pause: AtomicBool::new(false),
        });
        let remap = Arc::new(RemapShared::new(shards));

        // The ring matrix: matrix[port][shard], each strictly SPSC (one
        // dispatcher produces, one worker consumes).
        let matrix: Vec<Vec<Arc<SpscRing<Packet>>>> = (0..ports.len())
            .map(|_| {
                (0..shards)
                    .map(|_| Arc::new(SpscRing::new(config.ring_capacity)))
                    .collect()
            })
            .collect();

        let stats: Vec<_> = (0..shards).map(|_| Arc::new(Counters::default())).collect();
        let loads: Vec<_> = (0..shards)
            .map(|_| Arc::new(ShardLoad::default()))
            .collect();
        let punts: Vec<_> = (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect();

        // Worker threads: shard s exclusively consumes matrix column s.
        let port_list: Vec<Arc<Port>> = ports.iter().map(Arc::clone).collect();
        let workers = (0..shards)
            .map(|s| {
                let column: Vec<_> = matrix.iter().map(|row| Arc::clone(&row[s])).collect();
                let mut worker = Worker {
                    shard: s,
                    backend: spec.replica(&state),
                    column,
                    ports: port_list.clone(),
                    egress_batching: config.egress_batching,
                    stats: Arc::clone(&stats[s]),
                    recorder: LoadRecorder::new(Arc::clone(&loads[s])),
                    punts: Arc::clone(&punts[s]),
                    sink: sink.clone(),
                    shared: Arc::clone(&shared),
                };
                std::thread::Builder::new()
                    .name(format!("mp-shard-{s}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker")
            })
            .collect();

        // Dispatcher threads: one per ingress port, each the sole producer
        // of its matrix row.
        let slots: Vec<_> = (0..ports.len())
            .map(|_| {
                Arc::new(DispatcherSlot {
                    dispatched: AtomicU64::new(0),
                    parked: AtomicBool::new(false),
                })
            })
            .collect();
        let dispatchers = matrix
            .into_iter()
            .zip(port_list.iter())
            .zip(slots.iter())
            .map(|((row, port), slot)| {
                let mut dispatcher = PortDispatcher {
                    port: Arc::clone(port),
                    rss: RssDispatcher::new(row).with_reader(Arc::clone(&remap)),
                    classifier: config.classifier.clone(),
                    shards,
                    slot: Arc::clone(slot),
                    shared: Arc::clone(&shared),
                };
                std::thread::Builder::new()
                    .name(format!("mp-port-{}", port.id()))
                    .spawn(move || dispatcher.run())
                    .expect("spawn dispatcher")
            })
            .collect();

        Ok(MultiPortSwitch {
            shared,
            remap,
            slots,
            stats,
            loads,
            punts,
            dispatchers,
            workers,
            epoch: 0,
        })
    }

    /// Frames published to the ring matrix so far, across all ports.
    pub fn dispatched(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.dispatched.load(Ordering::Acquire))
            .sum()
    }

    /// Packets fully processed (verdict delivered, egress flushed), across
    /// all shards.
    pub fn processed(&self) -> u64 {
        self.stats.iter().map(|c| c.packets()).sum()
    }

    /// Per-shard processed counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<netdev::CounterSnapshot> {
        self.stats.iter().map(|c| c.snapshot()).collect()
    }

    /// Per-shard load telemetry snapshots, indexed by shard.
    pub fn shard_loads(&self) -> Vec<LoadSnapshot> {
        self.loads.iter().map(|l| l.snapshot()).collect()
    }

    /// The current indirection table (diagnostics / tests).
    pub fn table(&self) -> Arc<RemapTable> {
        self.remap.load()
    }

    /// Re-homes flow bucket `bucket` to shard `to` across *every* ingress
    /// port at once, via a barrier quiesce:
    ///
    /// 1. every dispatcher parks between bursts (staged packets flushed),
    /// 2. the workers drain the whole matrix (`processed == dispatched` —
    ///    and because sink calls and egress flushes happen before the
    ///    processed counter advances, every pre-remap packet is fully
    ///    observed),
    /// 3. the new table publishes through the shared epoch slot,
    /// 4. the dispatchers resume; their next dispatch picks up the epoch.
    ///
    /// No conntrack state migrates — this runtime is stateless by design
    /// (see the module docs); in-flow ordering still holds because the old
    /// owner finished everything before the new owner sees a packet.
    pub fn remap_bucket(&mut self, bucket: usize, to: usize) {
        assert!(to < self.stats.len(), "target shard out of range");
        self.shared.pause.store(true, Ordering::Release);
        for slot in &self.slots {
            while !slot.parked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        while self.processed() < self.dispatched() {
            std::thread::yield_now();
        }
        let table = self.remap.load().with_owner(bucket, to);
        self.epoch += 1;
        self.remap.publish(self.epoch, Arc::new(table));
        self.shared.pause.store(false, Ordering::Release);
    }

    /// Stops dispatch, drains the matrix to a fixpoint, joins every thread
    /// and returns the final accounting.
    pub fn shutdown(mut self) -> MultiPortReport {
        // Phase 1: dispatchers drain their ports' RX queues and exit.
        self.shared.stop_dispatch.store(true, Ordering::Release);
        for handle in self.dispatchers.drain(..) {
            handle.join().expect("dispatcher panicked");
        }
        // Phase 2: workers drain the matrix until everything dispatched is
        // processed, then exit.
        while self.processed() < self.dispatched() {
            std::thread::yield_now();
        }
        self.shared.stop_workers.store(true, Ordering::Release);
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        MultiPortReport {
            dispatched: self.dispatched(),
            per_shard: self.shard_stats(),
            load_per_shard: self.shard_loads(),
            controller_punts: self.punts.iter().map(|p| p.load(Ordering::Acquire)).sum(),
            epoch: self.epoch,
        }
    }
}

/// One ingress port's dispatcher: polls RX, classifies, steers into its
/// matrix row.
struct PortDispatcher {
    port: Arc<Port>,
    rss: RssDispatcher,
    classifier: Classifier,
    shards: usize,
    slot: Arc<DispatcherSlot>,
    shared: Arc<Shared>,
}

impl PortDispatcher {
    fn run(&mut self) {
        let mut burst: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
        loop {
            if self.shared.stop_dispatch.load(Ordering::Acquire) {
                break;
            }
            if self.shared.pause.load(Ordering::Acquire) {
                self.publish();
                self.slot.parked.store(true, Ordering::Release);
                while self.shared.pause.load(Ordering::Acquire)
                    && !self.shared.stop_dispatch.load(Ordering::Acquire)
                {
                    std::thread::yield_now();
                }
                self.slot.parked.store(false, Ordering::Release);
                continue;
            }
            if self.port.rx_burst_into(&mut burst, BURST_SIZE) == 0 {
                self.publish();
                std::thread::yield_now();
                continue;
            }
            self.steer(&mut burst);
            self.publish();
        }
        // Shutdown drain: everything already injected must reach the matrix.
        loop {
            if self.port.rx_burst_into(&mut burst, BURST_SIZE) == 0 {
                break;
            }
            self.steer(&mut burst);
        }
        self.publish();
    }

    /// Classifies and dispatches one received burst.
    fn steer(&mut self, burst: &mut Vec<Packet>) {
        let in_port = self.port.id();
        for packet in burst.drain(..) {
            match self.classifier.classify(in_port, packet.data()) {
                ClassifyAction::Steer(shard) => {
                    self.rss.dispatch_steered(shard % self.shards, packet);
                }
                ClassifyAction::Hash => self.rss.dispatch(packet),
            }
        }
    }

    /// Flushes staged packets to the rings and publishes the dispatched
    /// count for the quiesce waits.
    fn publish(&mut self) {
        self.rss.flush();
        self.slot
            .dispatched
            .store(self.rss.dispatched(), Ordering::Release);
    }
}

/// One shard's worker: drains its matrix column, processes bursts through
/// the replica, and egresses verdict outputs with vectored TX.
struct Worker {
    shard: usize,
    backend: Box<dyn crate::backend::ShardBackend>,
    /// This shard's matrix column: one ring per ingress port.
    column: Vec<Arc<SpscRing<Packet>>>,
    /// All ports, in [`PortSet`] insertion order; egress staging is indexed
    /// by position in this list.
    ports: Vec<Arc<Port>>,
    egress_batching: bool,
    stats: Arc<Counters>,
    recorder: LoadRecorder,
    punts: Arc<AtomicU64>,
    sink: Option<VerdictSink>,
    shared: Arc<Shared>,
}

impl Worker {
    fn run(&mut self) {
        let mut batch: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);
        let mut staged: Vec<Vec<Packet>> = self
            .ports
            .iter()
            .map(|_| Vec::with_capacity(BURST_SIZE))
            .collect();
        // Reused per-packet scratch: indices (into `ports`) of the
        // destinations one verdict fans out to.
        let mut emit: Vec<usize> = Vec::with_capacity(self.ports.len());
        let mut no_ct = NoCt;
        loop {
            let mut pass_packets = 0u64;
            let mut pass_bytes = 0u64;
            for ring in &self.column {
                batch.clear();
                let popped = ring.pop_burst(&mut batch, BURST_SIZE);
                if popped == 0 {
                    continue;
                }
                let queued_behind = ring.len() as u64;
                let start = Instant::now();
                self.backend
                    .process_batch_into(&mut batch, &mut verdicts, &mut no_ct);
                for (packet, verdict) in batch.drain(..).zip(verdicts.iter()) {
                    if let Some(sink) = &self.sink {
                        sink(self.shard, &packet, verdict);
                    }
                    pass_packets += 1;
                    pass_bytes += packet.len() as u64;
                    self.route(packet, verdict, &mut staged, &mut emit);
                }
                self.recorder.record_burst(
                    start.elapsed().as_nanos() as u64,
                    popped as u64,
                    popped as u64 + queued_behind,
                );
            }
            if pass_packets > 0 {
                if self.egress_batching {
                    for (idx, buffer) in staged.iter_mut().enumerate() {
                        if !buffer.is_empty() {
                            let frames = buffer.len() as u64;
                            self.ports[idx].tx_burst(buffer);
                            self.recorder.record_egress(frames);
                        }
                    }
                }
                // Advance the processed counter only after the sink calls
                // and the egress flush: the quiesce waits key off this.
                self.stats.record_batch(pass_packets, pass_bytes);
            } else {
                if self.shared.stop_workers.load(Ordering::Acquire) {
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.recorder.flush();
    }

    /// Resolves one verdict into destination ports and either stages the
    /// frame (batched egress) or transmits it immediately (per-packet
    /// baseline). Single-destination verdicts move the packet; fan-out
    /// clones per extra destination.
    fn route(
        &self,
        packet: Packet,
        verdict: &Verdict,
        staged: &mut [Vec<Packet>],
        emit: &mut Vec<usize>,
    ) {
        if verdict.to_controller {
            self.punts.fetch_add(1, Ordering::Release);
        }
        emit.clear();
        if verdict.flood {
            self.fan_flood(packet.in_port, emit);
        }
        for &out in verdict.outputs.as_slice() {
            match out {
                PORT_DROP | PORT_CONTROLLER => {}
                PORT_FLOOD => self.fan_flood(packet.in_port, emit),
                PORT_IN_PORT => self.push_port(packet.in_port, emit),
                id => self.push_port(id, emit),
            }
        }
        let Some((&last, rest)) = emit.split_last() else {
            return;
        };
        for &idx in rest {
            self.emit_frame(packet.clone(), idx, staged);
        }
        self.emit_frame(packet, last, staged);
    }

    /// Appends every port except the ingress one to `emit`.
    fn fan_flood(&self, in_port: u32, emit: &mut Vec<usize>) {
        for (idx, port) in self.ports.iter().enumerate() {
            if port.id() != in_port {
                emit.push(idx);
            }
        }
    }

    /// Appends the position of port `id` to `emit`; unknown ids are dropped
    /// silently (the pipeline referenced a port this switch doesn't have).
    fn push_port(&self, id: u32, emit: &mut Vec<usize>) {
        if let Some(idx) = self.ports.iter().position(|p| p.id() == id) {
            emit.push(idx);
        }
    }

    /// Hands one frame to destination `idx`: staged for the vectored flush,
    /// or transmitted immediately in per-packet mode.
    fn emit_frame(&self, frame: Packet, idx: usize, staged: &mut [Vec<Packet>]) {
        if self.egress_batching {
            staged[idx].push(frame);
        } else {
            self.ports[idx].tx(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowEntry};
    use pkt::builder::PacketBuilder;

    /// A one-table pipeline steering by TCP destination port: 1000+i →
    /// Output(i % out_ports), catch-all drop.
    fn port_pipeline(out_ports: u32) -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        for i in 0..16u16 {
            t.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, u128::from(1000 + i)),
                100,
                terminal_actions(vec![Action::Output(u32::from(i) % out_ports)]),
            ));
        }
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    fn flow_packet(flow: u16, src: u16) -> Packet {
        PacketBuilder::tcp()
            .tcp_dst(1000 + (flow % 16))
            .tcp_src(src)
            .build()
    }

    #[test]
    fn forwards_across_ports_and_shards() {
        let ports = Arc::new(PortSet::with_ports(4));
        let switch = MultiPortSwitch::launch(
            BackendSpec::eswitch(),
            port_pipeline(4),
            MultiPortConfig {
                shards: 2,
                ..MultiPortConfig::default()
            },
            Arc::clone(&ports),
        )
        .unwrap();
        let mut injected = 0u64;
        for src in 0..256u16 {
            let port = ports.get(u32::from(src % 4)).unwrap();
            if port.inject(flow_packet(src, src)) {
                injected += 1;
            }
        }
        let report = switch.shutdown();
        assert_eq!(report.dispatched, injected);
        let processed: u64 = report.per_shard.iter().map(|s| s.packets).sum();
        assert_eq!(processed, injected);
        // Every flow maps to some output port; drops only come from the
        // catch-all, which none of these flows hit.
        let egressed: u64 = ports.iter().map(|p| p.stats().tx.packets()).sum();
        assert_eq!(egressed, injected);
        // Both shards saw work (256 flows over 2 shards).
        assert!(report.per_shard.iter().all(|s| s.packets > 0));
        // Batched egress actually batched.
        let flushes: u64 = report.load_per_shard.iter().map(|l| l.egress_flushes).sum();
        let frames: u64 = report.load_per_shard.iter().map(|l| l.egress_frames).sum();
        assert_eq!(frames, injected);
        assert!(flushes > 0 && flushes < frames, "no batching realised");
    }

    #[test]
    fn per_packet_mode_still_forwards() {
        let ports = Arc::new(PortSet::with_ports(2));
        let switch = MultiPortSwitch::launch(
            BackendSpec::eswitch(),
            port_pipeline(2),
            MultiPortConfig {
                shards: 2,
                egress_batching: false,
                ..MultiPortConfig::default()
            },
            Arc::clone(&ports),
        )
        .unwrap();
        for src in 0..64u16 {
            assert!(ports
                .get(u32::from(src % 2))
                .unwrap()
                .inject(flow_packet(src, src)));
        }
        let report = switch.shutdown();
        assert_eq!(report.dispatched, 64);
        let egressed: u64 = ports.iter().map(|p| p.stats().tx.packets()).sum();
        assert_eq!(egressed, 64);
        let flushes: u64 = report.load_per_shard.iter().map(|l| l.egress_flushes).sum();
        assert_eq!(flushes, 0, "per-packet mode must not report egress flushes");
    }

    #[test]
    fn classifier_steers_to_designated_shard() {
        use std::sync::Mutex;
        let ports = Arc::new(PortSet::with_ports(2));
        let seen: Arc<Mutex<Vec<(usize, u16)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink: VerdictSink = Arc::new(move |shard, packet, _verdict| {
            let hdrs = pkt::parse(packet.data(), pkt::ParseDepth::L4);
            let dst = hdrs.l4_dst(packet.data()).unwrap_or(0);
            sink_seen.lock().unwrap().push((shard, dst));
        });
        let classifier = Classifier::new().rule(
            netdev::MatchSpec::any().ip_proto(6).l4_dst(6653),
            ClassifyAction::Steer(3),
        );
        let switch = MultiPortSwitch::launch_with_sink(
            BackendSpec::eswitch(),
            port_pipeline(2),
            MultiPortConfig {
                shards: 4,
                classifier,
                ..MultiPortConfig::default()
            },
            Arc::clone(&ports),
            Some(sink),
        )
        .unwrap();
        for src in 0..128u16 {
            let port = ports.get(u32::from(src % 2)).unwrap();
            assert!(port.inject(PacketBuilder::tcp().tcp_dst(6653).tcp_src(src).build()));
            assert!(port.inject(flow_packet(src, src)));
        }
        switch.shutdown();
        let seen = seen.lock().unwrap();
        let steered: Vec<_> = seen.iter().filter(|(_, dst)| *dst == 6653).collect();
        assert_eq!(steered.len(), 128);
        assert!(
            steered.iter().all(|(shard, _)| *shard == 3),
            "controller-bound traffic leaked off its designated shard"
        );
        // The rest spread over all shards (sanity that steering is the
        // exception, not the rule).
        assert!(seen.iter().any(|(shard, dst)| *dst != 6653 && *shard != 3));
    }

    #[test]
    fn remap_bucket_retargets_every_port() {
        use crate::rss::rss_hash;
        use conntrack::bucket_of;

        let ports = Arc::new(PortSet::with_ports(2));
        let mut switch = MultiPortSwitch::launch(
            BackendSpec::eswitch(),
            port_pipeline(2),
            MultiPortConfig {
                shards: 2,
                ..MultiPortConfig::default()
            },
            Arc::clone(&ports),
        )
        .unwrap();
        // The RSS hash covers `in_port`, so the same frame arriving on
        // different ports occupies different buckets — pin them all to one
        // shard (as the rebalancer would when re-homing a hot flow group).
        let mut buckets: Vec<usize> = (0..2u32)
            .map(|pid| {
                let mut probe = flow_packet(0, 7);
                probe.in_port = pid;
                bucket_of(rss_hash(&probe))
            })
            .collect();
        buckets.dedup();
        let target = 1 - switch.table().owner(buckets[0]);
        let mut epochs = 0;
        for &bucket in &buckets {
            if switch.table().owner(bucket) != target {
                switch.remap_bucket(bucket, target);
                epochs += 1;
            }
            assert_eq!(switch.table().owner(bucket), target);
        }
        // Traffic injected after the remap lands on the new owner via every
        // ingress port.
        for port in ports.iter() {
            assert!(port.inject(flow_packet(0, 7)));
        }
        let report = switch.shutdown();
        assert_eq!(report.epoch, epochs);
        assert_eq!(report.per_shard[target].packets, 2);
        assert_eq!(report.per_shard[1 - target].packets, 0);
    }
}
