//! The port stages of the sharded runtime: per-port ingress dispatchers in
//! front of the worker shards, per-port egress staging behind them.
//!
//! A launch that is handed an `Arc<PortSet>` ([`LaunchParts::ports`]) puts a
//! multi-queue NIC around [`ShardedSwitch`]'s workers; this module is the two
//! stages that touch the ports. Nothing here runs a worker, drains a ring or
//! owns a lifecycle — there is one worker loop, one remap protocol and one
//! shutdown, all in [`crate::runtime`] and [`crate::rss`].
//!
//! * **Ingress** — one `PortDispatcher` thread per port polls it with the
//!   allocation-free `rx_burst_into` (which stamps each frame's one parse on
//!   its descriptor), runs the pre-shard [`Classifier`] (the software
//!   `SO_REUSEPORT` + eBPF analogue: a [`ClassifyAction::Steer`] decision
//!   pins the frame to a designated shard, everything else hashes) and steers
//!   each frame into its row of the per-(port, shard) ring matrix through a
//!   reader-role [`RssDispatcher`] — symmetric RSS when the pipeline has ct,
//!   like every other dispatcher. Every ring has exactly one producer (its
//!   port's dispatcher) and one consumer (its shard's worker), and all rows
//!   follow the one shared indirection table, so a bucket remap retargets
//!   every port at once. The remap's quiesce step parks the dispatchers at a
//!   burst boundary through `Ingress`.
//! * **Egress** — each worker owns an `Egress`: verdict outputs are staged
//!   per destination port and flushed with one vectored
//!   [`netdev::Port::tx_burst`] per port per drain pass — the `sendmmsg`
//!   shape — before the shard's processed counter advances. An output naming
//!   a port the switch does not have is counted on the shard's drop counter.
//!   The realised batch factor is
//!   [`crate::telemetry::LoadSnapshot::egress_batch_factor`].

use std::sync::Arc;

use netdev::classify::{Classifier, ClassifyAction};
use netdev::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use netdev::{Port, PortSet, BURST_SIZE};
use netdev::{PORT_CONTROLLER, PORT_DROP, PORT_FLOOD, PORT_IN_PORT};
use openflow::{Pipeline, Verdict};
use pkt::Packet;

use eswitch::compile::CompileError;

use crate::backend::BackendSpec;
use crate::rss::RssDispatcher;
use crate::runtime::{LaunchParts, ShardStats, ShardedConfig, ShardedSwitch, ShutdownReport};
use crate::telemetry::LoadRecorder;

/// What the control side (the switch handle and its main dispatcher) shares
/// with the port dispatcher threads.
pub(crate) struct Ingress {
    /// Dispatchers stop polling, steer what their ports already hold, exit.
    pub(crate) stop: AtomicBool,
    /// The remap quiesce: dispatchers park at a burst boundary while set.
    pub(crate) pause: AtomicBool,
    /// One per port, in [`PortSet`] slot order.
    pub(crate) slots: Vec<PortSlot>,
}

/// One port dispatcher's shared face.
pub(crate) struct PortSlot {
    /// The port's id, for the control side's diagnostics.
    pub(crate) port: u32,
    /// Set while the dispatcher sits at the remap barrier.
    pub(crate) parked: AtomicBool,
    /// Packets published to each shard's ring, stored (`Release`, after the
    /// publishing flush) when the dispatcher parks and when it exits — the
    /// two points the control side reads them.
    dispatched_to: Vec<AtomicU64>,
}

impl Ingress {
    pub(crate) fn new(ports: &PortSet, shards: usize) -> Ingress {
        let slot = |port: &Arc<Port>| PortSlot {
            port: port.id(),
            parked: AtomicBool::new(false),
            dispatched_to: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        };
        Ingress {
            stop: AtomicBool::new(false),
            pause: AtomicBool::new(false),
            slots: ports.iter().map(slot).collect(),
        }
    }

    /// Packets the port dispatchers published to `shard`, as of their last
    /// park or exit.
    pub(crate) fn dispatched_to(&self, shard: usize) -> u64 {
        let to_shard = |slot: &PortSlot| slot.dispatched_to[shard].load(Ordering::Acquire);
        self.slots.iter().map(to_shard).sum()
    }
}

/// One ingress port's dispatcher: polls RX, classifies, steers into its
/// matrix row.
pub(crate) struct PortDispatcher {
    pub(crate) port: Arc<Port>,
    /// This port's index in [`Ingress::slots`].
    pub(crate) slot: usize,
    pub(crate) rss: RssDispatcher,
    pub(crate) classifier: Classifier,
    pub(crate) ingress: Arc<Ingress>,
}

impl PortDispatcher {
    pub(crate) fn run(mut self) {
        let ingress = Arc::clone(&self.ingress);
        let slot = &ingress.slots[self.slot];
        let mut burst: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
        while !ingress.stop.load(Ordering::Acquire) {
            if ingress.pause.load(Ordering::Acquire) {
                self.publish(slot);
                slot.parked.store(true, Ordering::Release);
                while ingress.pause.load(Ordering::Acquire) && !ingress.stop.load(Ordering::Acquire)
                {
                    std::thread::yield_now();
                }
                slot.parked.store(false, Ordering::Release);
            } else if self.port.rx_burst_into(&mut burst, BURST_SIZE) == 0 {
                std::thread::yield_now();
            } else {
                self.steer(&mut burst);
                self.rss.flush();
            }
        }
        // Shutdown drain: everything already injected must reach the matrix.
        while self.port.rx_burst_into(&mut burst, BURST_SIZE) > 0 {
            self.steer(&mut burst);
        }
        self.publish(slot);
    }

    /// Classifies and dispatches one received burst.
    fn steer(&mut self, burst: &mut Vec<Packet>) {
        let in_port = self.port.id();
        for packet in burst.drain(..) {
            match self.classifier.classify(in_port, packet.data()) {
                ClassifyAction::Steer(shard) => {
                    self.rss.dispatch_steered(shard % self.rss.shards(), packet);
                }
                ClassifyAction::Hash => self.rss.dispatch(packet),
            }
        }
    }

    /// Flushes staged packets to the rings, then publishes the per-shard
    /// dispatch counts the control side's quiesce and drain waits cover.
    fn publish(&mut self, slot: &PortSlot) {
        self.rss.flush();
        for (shared, count) in slot.dispatched_to.iter().zip(self.rss.dispatched_to()) {
            shared.store(*count, Ordering::Release);
        }
    }
}

/// One worker's egress stage: verdict outputs staged per destination port,
/// flushed with one vectored TX per port per drain pass.
pub(crate) struct Egress {
    ports: Arc<PortSet>,
    /// The owning shard's counters: undeliverable outputs are dropped here.
    stats: Arc<ShardStats>,
    /// Frames awaiting the flush, indexed by [`PortSet`] slot.
    staged: Vec<Vec<Packet>>,
    /// Reused per-verdict scratch: the slots one verdict fans out to.
    emit: Vec<usize>,
}

impl Egress {
    pub(crate) fn new(ports: Arc<PortSet>, stats: Arc<ShardStats>) -> Egress {
        Egress {
            staged: ports
                .iter()
                .map(|_| Vec::with_capacity(BURST_SIZE))
                .collect(),
            emit: Vec::with_capacity(ports.len()),
            ports,
            stats,
        }
    }

    /// Resolves each verdict of a processed burst into destination ports and
    /// stages the frames, draining `burst`. Single-destination verdicts move
    /// the packet; fan-out clones per extra destination.
    pub(crate) fn route(&mut self, burst: &mut Vec<Packet>, verdicts: &[Verdict]) {
        for (packet, verdict) in burst.drain(..).zip(verdicts) {
            self.emit.clear();
            if verdict.flood {
                self.fan_flood(packet.in_port);
            }
            for &out in verdict.outputs.as_slice() {
                match out {
                    PORT_DROP | PORT_CONTROLLER => {}
                    PORT_FLOOD => self.fan_flood(packet.in_port),
                    PORT_IN_PORT => self.push_port(packet.in_port),
                    id => self.push_port(id),
                }
            }
            if let Some((&last, rest)) = self.emit.split_last() {
                for &slot in rest {
                    self.staged[slot].push(packet.clone());
                }
                self.staged[last].push(packet);
            }
        }
    }

    /// Transmits every staged frame, one `tx_burst` per port that has any.
    /// Called once per drain pass, before the processed counter advances.
    pub(crate) fn flush(&mut self, recorder: &mut LoadRecorder) {
        for (port, frames) in self.ports.iter().zip(&mut self.staged) {
            if !frames.is_empty() {
                recorder.record_egress(frames.len() as u64);
                port.tx_burst(frames);
            }
        }
    }

    /// Appends every port except the ingress one to `emit`.
    fn fan_flood(&mut self, in_port: u32) {
        let ingress = self.ports.slot(in_port);
        let others = (0..self.staged.len()).filter(|slot| Some(*slot) != ingress);
        self.emit.extend(others);
    }

    /// Appends port `id`'s slot to `emit`. An id the switch has no port for
    /// (the pipeline names a port that was never attached) cannot be
    /// delivered: the output is counted on the shard's drop counter.
    fn push_port(&mut self, id: u32) {
        match self.ports.slot(id) {
            Some(slot) => self.emit.push(slot),
            None => self.stats.processed.record_drop(),
        }
    }
}

/// Launch knobs of the [`MultiPortSwitch`] shim.
#[derive(Clone)]
pub struct MultiPortConfig {
    /// Number of worker shards ([`ShardedConfig::workers`]).
    pub shards: usize,
    /// Per-ring capacity in packets ([`ShardedConfig::ring_capacity`]).
    pub ring_capacity: usize,
    /// The pre-shard match program ([`LaunchParts::ports`]).
    pub classifier: Classifier,
}

impl Default for MultiPortConfig {
    fn default() -> Self {
        MultiPortConfig {
            shards: 2,
            ring_capacity: 1024,
            classifier: Classifier::new(),
        }
    }
}

/// The pre-unification names of a port-attached launch, forwarding to
/// [`ShardedSwitch::launch_with`]. Its only caller is `benchmark/src/sut.rs`,
/// which is frozen outside benchmark PRs; the benchmark PR that re-binds that
/// file deletes this shim.
pub struct MultiPortSwitch(ShardedSwitch, RssDispatcher);

impl MultiPortSwitch {
    /// [`ShardedSwitch::launch_with`] over `ports`.
    pub fn launch(
        spec: BackendSpec,
        pipeline: Pipeline,
        config: MultiPortConfig,
        ports: Arc<PortSet>,
    ) -> Result<MultiPortSwitch, CompileError> {
        let sharded = ShardedConfig {
            workers: config.shards,
            ring_capacity: config.ring_capacity,
            ..ShardedConfig::default()
        };
        let parts = LaunchParts {
            ports: Some((ports, config.classifier)),
            ..LaunchParts::default()
        };
        let (switch, dispatcher) = ShardedSwitch::launch_with(spec, pipeline, sharded, parts)?;
        Ok(MultiPortSwitch(switch, dispatcher))
    }

    /// Packets fully processed (egress flushed), across all shards.
    pub fn processed(&self) -> u64 {
        self.0.stats().packets
    }

    /// [`ShardedSwitch::shutdown`].
    pub fn shutdown(self) -> ShutdownReport {
        self.0.shutdown(self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::VerdictSink;
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

    /// A port-attached ESWITCH launch of `pipeline` over `ports`.
    fn launch(
        pipeline: Pipeline,
        ports: &Arc<PortSet>,
        workers: usize,
        classifier: Classifier,
        sink: Option<VerdictSink>,
    ) -> (ShardedSwitch, RssDispatcher) {
        let config = ShardedConfig {
            workers,
            ..ShardedConfig::default()
        };
        let parts = LaunchParts {
            ports: Some((Arc::clone(ports), classifier)),
            sink,
            ..LaunchParts::default()
        };
        ShardedSwitch::launch_with(BackendSpec::eswitch(), pipeline, config, parts).unwrap()
    }

    #[test]
    fn forwards_across_ports_and_shards() {
        let ports = Arc::new(PortSet::with_ports(4));
        let (switch, dispatcher) = launch(port_pipeline(4), &ports, 2, Classifier::new(), None);
        let mut injected = 0u64;
        for src in 0..256u16 {
            let port = ports.get(u32::from(src % 4)).unwrap();
            if port.inject(flow_packet(src, src)) {
                injected += 1;
            }
        }
        let report = switch.shutdown(dispatcher);
        assert_eq!(report.dispatched, injected);
        assert_eq!(report.processed.packets, injected);
        // Every flow maps to some output port; drops only come from the
        // catch-all, which none of these flows hit.
        let egressed: u64 = ports.iter().map(|p| p.stats().tx.packets()).sum();
        assert_eq!(egressed, injected);
        assert_eq!(report.processed.drops, 0);
        // Both shards saw work (256 flows over 2 shards).
        assert!(report.per_shard.iter().all(|s| s.packets > 0));
        // Batched egress actually batched.
        let flushes: u64 = report.load_per_shard.iter().map(|l| l.egress_flushes).sum();
        let frames: u64 = report.load_per_shard.iter().map(|l| l.egress_frames).sum();
        assert_eq!(frames, injected);
        assert!(flushes > 0 && flushes < frames, "no batching realised");
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
        let (switch, dispatcher) = launch(port_pipeline(2), &ports, 4, classifier, Some(sink));
        for src in 0..128u16 {
            let port = ports.get(u32::from(src % 2)).unwrap();
            assert!(port.inject(PacketBuilder::tcp().tcp_dst(6653).tcp_src(src).build()));
            assert!(port.inject(flow_packet(src, src)));
        }
        switch.shutdown(dispatcher);
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
        let (switch, mut dispatcher) = launch(port_pipeline(2), &ports, 2, Classifier::new(), None);
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
        let target = 1 - dispatcher.table().owner(buckets[0]);
        let mut remaps = 0;
        for &bucket in &buckets {
            if dispatcher.table().owner(bucket) != target {
                dispatcher.remap_bucket(bucket, target);
                remaps += 1;
            }
            assert_eq!(dispatcher.table().owner(bucket), target);
        }
        // Traffic injected after the remap lands on the new owner via every
        // ingress port.
        for port in ports.iter() {
            assert!(port.inject(flow_packet(0, 7)));
        }
        let report = switch.shutdown(dispatcher);
        assert_eq!(report.remaps, remaps);
        assert_eq!(report.per_shard[target].packets, 2);
        assert_eq!(report.per_shard[1 - target].packets, 0);
    }

    #[test]
    fn output_to_a_port_the_switch_lacks_is_a_counted_drop() {
        let mut pipeline = Pipeline::with_tables(1);
        pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            terminal_actions(vec![Action::Output(99)]),
        ));
        let ports = Arc::new(PortSet::with_ports(2));
        let (switch, dispatcher) = launch(pipeline, &ports, 2, Classifier::new(), None);
        assert!(ports.get(0).unwrap().inject(flow_packet(0, 7)));
        let report = switch.shutdown(dispatcher);
        assert_eq!(report.processed.packets, 1);
        let drops: Vec<u64> = report.per_shard.iter().map(|s| s.drops).collect();
        assert_eq!(drops.iter().sum::<u64>(), 1, "{drops:?}");
        assert!(ports.iter().all(|port| port.tx_pending() == 0));
    }

    #[test]
    fn dropping_the_switch_stops_every_thread() {
        let ports = Arc::new(PortSet::with_ports(2));
        let (switch, dispatcher) = launch(port_pipeline(2), &ports, 2, Classifier::new(), None);
        for src in 0..64u16 {
            assert!(ports
                .get(u32::from(src % 2))
                .unwrap()
                .inject(flow_packet(src, src)));
        }
        // No shutdown: the drop alone must stop and join the two port
        // dispatchers and the two workers, with the dispatcher (and its
        // clones of the thread handles) still alive.
        drop(switch);
        drop(dispatcher);
        // Each port dispatcher held its port, each worker's egress stage the
        // set: once the threads are gone only this test's handles remain.
        assert!(ports.iter().all(|port| Arc::strong_count(port) == 1));
        assert_eq!(Arc::strong_count(&ports), 1);
    }

    #[test]
    fn a_dead_worker_fails_shutdown_instead_of_hanging() {
        let ports = Arc::new(PortSet::with_ports(2));
        let sink: VerdictSink = Arc::new(|_, _, _| panic!("sink fault injected by the test"));
        let (switch, dispatcher) =
            launch(port_pipeline(2), &ports, 1, Classifier::new(), Some(sink));
        for src in 0..8u16 {
            assert!(ports
                .get(u32::from(src % 2))
                .unwrap()
                .inject(flow_packet(src, src)));
        }
        let started = std::time::Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| switch.shutdown(dispatcher)));
        let panic = outcome.expect_err("shutdown returned with a dead worker");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("shard 0 worker died"), "{message}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }
}
