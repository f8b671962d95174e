//! The system under test: every call into a product crate lives in this file.
//!
//! The rest of the benchmark sees frames, stage methods and plain numbers.
//! `README.md` lists each product symbol bound here; re-basing the benchmark
//! onto a changed runtime API is an edit to this file alone.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conntrack::{CtConfig, CtEngine, CtTimeouts, EvictionPolicy};
use eswitch::perfmodel::{CacheAssumption, CacheLevelCosts, PerformanceModel};
use eswitch::{EswitchRuntime, TemplateKind};
use netdev::{
    Classifier, ClassifyAction, MatchSpec, Port, PortSet, SpscRing, BURST_SIZE, PORT_CONTROLLER,
    PORT_DROP, PORT_FLOOD, PORT_IN_PORT,
};
use openflow::ct::{ConnCtx, CtTuple, NoCt};
use openflow::{DirectDatapath, FlowKey, FlowMod, Pipeline, Verdict};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::{parse, ParseDepth, TcpFlags};
use shard::{
    rss_hash, rss_hash_symmetric, BackendSpec, MultiPortConfig, MultiPortSwitch, RemapTable,
    ShardedConfig, ShardedSwitch,
};
use workloads::{gateway, l2, snat_edge, GatewayConfig, L2Config, SnatEdgeConfig};

pub use pkt::Packet as Frame;
pub use workloads::usecases::{PORT_NET, PORT_USER};

/// Packets per burst, the product's own constant.
pub const BURST: usize = BURST_SIZE;

/// Capacity of the dispatcher-to-worker ring, `MultiPortConfig`'s default.
const RING_CAPACITY: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    Eswitch,
    Ovs,
}

enum Backend {
    Eswitch(Box<EswitchRuntime>),
    Ovs(Box<OvsDatapath>),
}

/// Static facts about an instantiated backend, for the layer ledger.
#[derive(Debug, Default, Clone)]
pub struct BackendFacts {
    pub compile_s: f64,
    pub mem_mib: f64,
    /// Compiled tables by template: direct, hash, lpm, linked list.
    pub templates: [u64; 4],
    /// The §5 model's per-packet prediction at the reference clock.
    pub model_ns: f64,
}

/// Cumulative OVS cache-tier hits plus current cache sizes.
#[derive(Debug, Default, Clone, Copy)]
pub struct OvsCounters {
    pub microflow: u64,
    pub megaflow: u64,
    pub slowpath: u64,
    pub microflow_entries: u64,
    pub megaflow_entries: u64,
}

/// The connection tracker's cumulative counters, its live count and memory,
/// and whether its conservation identity holds.
#[derive(Debug, Default, Clone, Copy)]
pub struct CtCounters {
    pub created: u64,
    pub hits: u64,
    pub denied: u64,
    pub refused: u64,
    pub evicted_idle: u64,
    pub evicted_capacity: u64,
    pub teardown: u64,
    pub live: u64,
    pub mem_mib: f64,
    pub identity_holds: bool,
}

/// Cumulative ESWITCH update-ladder counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateCounters {
    pub incremental: u64,
    pub per_table: u64,
    pub full: u64,
}

impl UpdateCounters {
    pub fn total(&self) -> u64 {
        self.incremental + self.per_table + self.full
    }
}

/// One port, one shard, one thread: the layers' public functions in the order
/// `shard::multiport` composes them, one method per stage so the lap driver
/// can stamp every boundary.
pub struct Sut {
    ports: Vec<Arc<Port>>,
    classifier: Classifier,
    table: RemapTable,
    symmetric_rss: bool,
    ring: SpscRing<Frame>,
    backend: Backend,
    ct: Option<CtEngine>,
    facts: BackendFacts,
    received: Vec<Frame>,
    steer: Vec<Option<usize>>,
    batch: Vec<Frame>,
    verdicts: Vec<Verdict>,
    staged: Vec<Vec<Frame>>,
    emit: Vec<usize>,
    wire: Vec<Vec<Frame>>,
    /// Negative-test hook: the verdict at this index of the next burst is
    /// replaced by a drop.
    #[cfg(test)]
    pub corrupt_next: Option<usize>,
}

/// Everything one workload asks the product to be: the pipeline, the
/// connection-tracker configuration if it is stateful, the port count and
/// whether the pre-shard classifier carries rules. Built from `--seed` by
/// the `*_inputs` functions below.
#[derive(Clone)]
pub struct Blueprint {
    pipeline: Pipeline,
    ct: Option<CtConfig>,
    ports: u32,
    classifier_rules: bool,
}

impl Sut {
    pub fn new(blueprint: &Blueprint, kind: BackendKind) -> Sut {
        let Blueprint {
            pipeline,
            ct,
            ports,
            classifier_rules,
        } = blueprint.clone();
        let started = Instant::now();
        let (backend, mut facts) = match kind {
            BackendKind::Eswitch => {
                let runtime =
                    EswitchRuntime::compile(pipeline).expect("workload pipelines compile");
                let datapath = runtime.datapath();
                let mut templates = [0u64; 4];
                for (_, kind) in datapath.template_kinds() {
                    templates[match kind {
                        TemplateKind::DirectCode => 0,
                        TemplateKind::CompoundHash => 1,
                        TemplateKind::Lpm => 2,
                        TemplateKind::LinkedList => 3,
                    }] += 1;
                }
                let costs = CacheLevelCosts::default();
                let cycles = PerformanceModel::new()
                    .estimate(&datapath)
                    .cycles_per_packet(&costs, CacheAssumption::AllL2);
                let facts = BackendFacts {
                    mem_mib: datapath.memory_footprint() as f64 / (1 << 20) as f64,
                    templates,
                    model_ns: cycles / costs.clock_hz * 1e9,
                    ..BackendFacts::default()
                };
                (Backend::Eswitch(Box::new(runtime)), facts)
            }
            BackendKind::Ovs => (
                Backend::Ovs(Box::new(OvsDatapath::new(pipeline))),
                BackendFacts::default(),
            ),
        };
        facts.compile_s = started.elapsed().as_secs_f64();
        // The controller-bound steering rule of the multiport tests: it makes
        // the classifier parse every frame and never matches workload traffic.
        let classifier = if classifier_rules {
            Classifier::new().rule(
                MatchSpec::any().ip_proto(6).l4_dst(6653),
                ClassifyAction::Steer(0),
            )
        } else {
            Classifier::new()
        };
        let ports: Vec<Arc<Port>> = PortSet::with_ports(ports).iter().map(Arc::clone).collect();
        let per_port =
            || -> Vec<Vec<Frame>> { ports.iter().map(|_| Vec::with_capacity(BURST)).collect() };
        Sut {
            staged: per_port(),
            wire: per_port(),
            ports,
            classifier,
            table: RemapTable::uniform(1),
            symmetric_rss: ct.is_some(),
            ring: SpscRing::new(RING_CAPACITY),
            backend,
            ct: ct.as_ref().map(CtEngine::new),
            facts,
            received: Vec::with_capacity(BURST),
            steer: Vec::with_capacity(BURST),
            batch: Vec::with_capacity(BURST),
            verdicts: Vec::with_capacity(BURST),
            emit: Vec::with_capacity(4),
            #[cfg(test)]
            corrupt_next: None,
        }
    }

    pub fn facts(&self) -> &BackendFacts {
        &self.facts
    }

    /// `Port::inject_burst`: the wire side hands a burst to the ingress port.
    #[inline]
    pub fn inject(&mut self, port: u32, burst: &mut Vec<Frame>) -> usize {
        self.ports[port as usize].inject_burst(burst)
    }

    /// `Port::rx_burst_into`: the dispatcher polls the port.
    #[inline]
    pub fn rx(&mut self, port: u32) -> usize {
        self.ports[port as usize].rx_burst_into(&mut self.received, BURST)
    }

    /// `Classifier::classify` on every received frame.
    #[inline]
    pub fn classify(&mut self, port: u32) -> usize {
        self.steer.clear();
        for frame in &self.received {
            self.steer
                .push(match self.classifier.classify(port, frame.data()) {
                    ClassifyAction::Steer(shard) => Some(shard),
                    ClassifyAction::Hash => None,
                });
        }
        self.steer.len()
    }

    /// `rss_hash` + `RemapTable::shard_of_hash` + `Packet::set_rss_hash`.
    #[inline]
    pub fn rss(&mut self) -> usize {
        let mut shards = 0;
        for (frame, steer) in self.received.iter_mut().zip(&self.steer) {
            let hash = if self.symmetric_rss {
                rss_hash_symmetric(frame)
            } else {
                rss_hash(frame)
            };
            frame.set_rss_hash(hash);
            shards += steer.unwrap_or_else(|| self.table.shard_of_hash(hash));
        }
        // One shard: every frame steers to shard 0.
        black_box(shards);
        self.received.len()
    }

    /// `SpscRing::push_burst`.
    #[inline]
    pub fn ring_push(&mut self) -> usize {
        self.ring.push_burst(&mut self.received)
    }

    /// `SpscRing::pop_burst`.
    #[inline]
    pub fn ring_pop(&mut self) -> usize {
        self.ring.pop_burst(&mut self.batch, BURST)
    }

    /// `EswitchRuntime`/`OvsDatapath::process_batch_into_ct`.
    #[inline]
    pub fn process(&mut self) -> usize {
        let ct: &mut dyn ConnCtx = match &mut self.ct {
            Some(engine) => engine,
            None => &mut NoCt,
        };
        match &self.backend {
            Backend::Eswitch(rt) => {
                rt.process_batch_into_ct(&mut self.batch, &mut self.verdicts, ct)
            }
            Backend::Ovs(dp) => dp.process_batch_into_ct(&mut self.batch, &mut self.verdicts, ct),
        }
        #[cfg(test)]
        if let Some(index) = self.corrupt_next.take() {
            self.verdicts[index] = Verdict::drop();
        }
        self.verdicts.len()
    }

    /// `CtEngine::tick`: one virtual tick per burst, as the worker loops do.
    #[inline]
    pub fn tick(&mut self) {
        if let Some(engine) = &mut self.ct {
            engine.tick();
        }
    }

    /// The benchmark's own copy of the worker's private verdict-to-port
    /// staging: harness cost, reported apart from the product stages.
    #[inline]
    pub fn route(&mut self) -> usize {
        let mut frames = 0;
        for (frame, verdict) in self.batch.drain(..).zip(&self.verdicts) {
            destinations(verdict, frame.in_port, self.ports.len(), &mut self.emit);
            frames += self.emit.len();
            if let Some((&last, rest)) = self.emit.split_last() {
                for &port in rest {
                    self.staged[port].push(frame.clone());
                }
                self.staged[last].push(frame);
            }
        }
        frames
    }

    /// `Port::tx_burst`, once per port that has frames staged.
    #[inline]
    pub fn tx(&mut self) -> usize {
        let mut accepted = 0;
        for (port, frames) in self.ports.iter().zip(&mut self.staged) {
            if !frames.is_empty() {
                accepted += port.tx_burst(frames);
            }
        }
        accepted
    }

    /// `Port::tx_drain_into`: the wire side collects what each port sent.
    #[inline]
    pub fn drain(&mut self) -> usize {
        let mut delivered = 0;
        for (port, out) in self.ports.iter().zip(&mut self.wire) {
            delivered += port.tx_drain_into(out, BURST);
        }
        delivered
    }

    /// What the last laps delivered, by port id, in wire order.
    pub fn wire(&self) -> &[Vec<Frame>] {
        &self.wire
    }

    /// Frees the delivered frames (outside any timed span).
    pub fn recycle(&mut self) {
        for out in &mut self.wire {
            out.clear();
        }
    }

    /// `EswitchRuntime`/`OvsDatapath::flow_mod`; returns entries touched.
    pub fn flow_mod(&self, fm: &FlowMod) -> u64 {
        let effect = match &self.backend {
            Backend::Eswitch(rt) => rt.flow_mod(fm),
            Backend::Ovs(dp) => dp.flow_mod(fm),
        };
        effect
            .expect("workload flow-mods are valid")
            .entries_touched()
    }

    pub fn tx_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.stats().tx.drops()).sum()
    }

    pub fn ovs_counters(&self) -> Option<OvsCounters> {
        let Backend::Ovs(dp) = &self.backend else {
            return None;
        };
        Some(OvsCounters {
            microflow: dp.stats.microflow_hits.packets(),
            megaflow: dp.stats.megaflow_hits.packets(),
            slowpath: dp.stats.slowpath_hits.packets(),
            microflow_entries: dp.microflow_count() as u64,
            megaflow_entries: dp.megaflow_count() as u64,
        })
    }

    pub fn update_counters(&self) -> Option<UpdateCounters> {
        let Backend::Eswitch(rt) = &self.backend else {
            return None;
        };
        Some(UpdateCounters {
            incremental: rt.updates.incremental.updates(),
            per_table: rt.updates.table_rebuilds.updates(),
            full: rt.updates.full_recompiles.updates(),
        })
    }

    /// The engine's counters, with its batched hits flushed first.
    pub fn ct_counters(&mut self) -> Option<CtCounters> {
        let engine = self.ct.as_mut()?;
        engine.advance_to(engine.now());
        let snapshot = engine.stats().snapshot();
        Some(CtCounters {
            created: snapshot.created,
            hits: snapshot.hits,
            denied: snapshot.denied,
            refused: snapshot.refused,
            evicted_idle: snapshot.evicted_idle,
            evicted_capacity: snapshot.evicted_capacity,
            teardown: snapshot.teardown,
            live: snapshot.live,
            mem_mib: engine.memory_bytes() as f64 / (1 << 20) as f64,
            identity_holds: snapshot.identity_holds(),
        })
    }
}

/// Resolves a verdict into indexes of the ports the frame leaves on, as
/// `shard::multiport`'s worker does. Shared by [`Sut::route`] and the oracle.
fn destinations(verdict: &Verdict, in_port: u32, ports: usize, emit: &mut Vec<usize>) {
    emit.clear();
    let flood = |emit: &mut Vec<usize>| emit.extend((0..ports).filter(|&p| p != in_port as usize));
    if verdict.flood {
        flood(emit);
    }
    for &out in verdict.outputs.as_slice() {
        match out {
            PORT_DROP | PORT_CONTROLLER => {}
            PORT_FLOOD => flood(emit),
            PORT_IN_PORT => emit.push(in_port as usize),
            id if (id as usize) < ports => emit.push(id as usize),
            _ => {}
        }
    }
}

/// The reference every lap is checked against: `openflow::DirectDatapath`,
/// with its own connection tracker on stateful pipelines.
pub struct Oracle {
    datapath: DirectDatapath,
    ct: Option<CtEngine>,
    ports: usize,
    emit: Vec<usize>,
}

impl Oracle {
    pub fn new(blueprint: &Blueprint) -> Oracle {
        Oracle {
            datapath: DirectDatapath::new(blueprint.pipeline.clone()),
            ct: blueprint.ct.as_ref().map(CtEngine::new),
            ports: blueprint.ports as usize,
            emit: Vec::new(),
        }
    }

    /// Interprets one frame in place and returns the ports it must leave on.
    pub fn process(&mut self, frame: &mut Frame) -> &[usize] {
        let verdict = match &mut self.ct {
            Some(engine) => self.datapath.pipeline().read().process_ct(frame, engine),
            None => self.datapath.process(frame),
        };
        destinations(&verdict, frame.in_port, self.ports, &mut self.emit);
        &self.emit
    }

    pub fn tick(&mut self) {
        if let Some(engine) = &mut self.ct {
            engine.tick();
        }
    }

    pub fn flow_mod(&self, fm: &FlowMod) {
        self.datapath
            .flow_mod(fm)
            .expect("workload flow-mods are valid");
    }
}

// ---- workload inputs ------------------------------------------------------

/// Paper Fig. 10: one MAC table, aligned traffic, minimal frames.
/// The hash-only (empty) classifier: bare forwarding.
pub fn l2_inputs(seed: u64, table: usize, ports: u32, flows: usize) -> (Blueprint, Vec<Frame>) {
    let config = L2Config {
        table_size: table,
        ports,
        seed,
    };
    let blueprint = Blueprint {
        pipeline: l2::build_pipeline(&config),
        ct: None,
        ports,
        classifier_rules: false,
    };
    let traffic = l2::build_traffic(&config, flows);
    (blueprint, traffic.one_cycle().collect())
}

/// Paper Fig. 13: the access gateway and its upstream traffic.
pub fn gateway_inputs(seed: u64, prefixes: usize, flows: usize) -> (Blueprint, Vec<Frame>) {
    let config = GatewayConfig {
        routing_prefixes: prefixes,
        seed,
        ..GatewayConfig::default()
    };
    let blueprint = Blueprint {
        pipeline: gateway::build_pipeline(&config),
        ct: None,
        ports: 2,
        classifier_rules: true,
    };
    let traffic = gateway::build_traffic(&config, flows);
    (blueprint, traffic.one_cycle().collect())
}

/// Number of provisioned gateway users (CEs × users per CE).
pub fn gateway_users() -> usize {
    let config = GatewayConfig::default();
    config.ces * config.users_per_ce
}

/// The provisioned user an upstream gateway frame belongs to.
pub fn gateway_user_of(frame: &Frame) -> usize {
    let key = FlowKey::extract(frame);
    let ce = usize::from(key.vlan_vid.expect("upstream frames are tagged")) - 100;
    let private = key
        .ipv4_src
        .expect("upstream frames are IPv4")
        .to_be_bytes();
    let user = usize::from(private[2]) * 250 + usize::from(private[3]) - 2;
    ce * GatewayConfig::default().users_per_ce + user
}

/// The flow-mods that install (`add`) or remove one user's NAT rule pair.
pub fn gateway_user_flow_mods(user: usize, add: bool) -> Vec<FlowMod> {
    let per_ce = GatewayConfig::default().users_per_ce;
    let mods = gateway::user_flow_mods(user / per_ce, user % per_ce);
    if add {
        return mods;
    }
    mods.iter()
        .map(|fm| {
            FlowMod::delete_strict(
                fm.table_id.expect("user rules name their table"),
                fm.flow_match.clone(),
                fm.priority,
            )
        })
        .collect()
}

/// The `snat_edge` pipeline and an engine configuration sized for
/// `capacity` connections whose traffic recurs within `est_timeout` ticks.
/// The wheel gets one slot per tick of the longest timeout, so a sweep only
/// visits connections whose deadline is due.
pub fn snat_inputs(seed: u64, capacity: usize, est_timeout: u64) -> Blueprint {
    let ct = CtConfig {
        capacity,
        wheel_slots: est_timeout as usize,
        eviction: EvictionPolicy::Lru,
        timeouts: CtTimeouts {
            tcp_established: est_timeout,
            ..CtTimeouts::default()
        },
        ..snat_edge::ct_config()
    };
    Blueprint {
        pipeline: snat_edge::build_pipeline(&SnatEdgeConfig { seed }),
        ct: Some(ct),
        ports: 2,
        classifier_rules: true,
    }
}

/// The NAT pool's public address.
pub fn snat_public_ip() -> u32 {
    snat_edge::public_ip().to_u32()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpKind {
    Syn,
    SynAck,
    Ack,
    Fin,
    Rst,
}

/// A minimal TCP frame with valid checksums.
pub fn tcp_frame(src: (u32, u16), dst: (u32, u16), kind: TcpKind, in_port: u32) -> Frame {
    let flags = TcpFlags {
        syn: matches!(kind, TcpKind::Syn | TcpKind::SynAck),
        ack: !matches!(kind, TcpKind::Syn | TcpKind::Rst),
        fin: kind == TcpKind::Fin,
        rst: kind == TcpKind::Rst,
        ..TcpFlags::default()
    };
    PacketBuilder::tcp()
        .ipv4_src(src.0.to_be_bytes())
        .ipv4_dst(dst.0.to_be_bytes())
        .tcp_src(src.1)
        .tcp_dst(dst.1)
        .tcp_flags(flags)
        .in_port(in_port)
        .build()
}

/// `(src ip, src port, dst ip, dst port)` of a TCP/UDP-over-IPv4 frame.
pub fn endpoints(frame: &Frame) -> Option<(u32, u16, u32, u16)> {
    let headers = parse(frame.data(), ParseDepth::L4);
    let t = CtTuple::from_frame(frame.data(), &headers)?;
    Some((t.src_ip, t.src_port, t.dst_ip, t.dst_port))
}

// ---- side probes ----------------------------------------------------------

/// `pkt::parser::parse` to L4 on one frame.
#[inline]
pub fn parse_frame(frame: &Frame) {
    black_box(parse(black_box(frame.data()), ParseDepth::L4));
}

/// `Packet::clone`: what the generator pays per frame outside the lap.
#[inline]
pub fn clone_frame(frame: &Frame) {
    black_box(black_box(frame).clone());
}

/// `Packet::from_bytes`: what a real RX path would pay per frame.
#[inline]
pub fn frame_from_bytes(frame: &Frame) {
    black_box(Frame::from_bytes(black_box(frame.data()), frame.in_port));
}

// ---- the threaded runtimes (layer probe only) -----------------------------

/// What one closed-loop probe through a threaded runtime saw.
#[derive(Debug, Default, Clone)]
pub struct RuntimeProbe {
    /// Round-trip time of each window, nanoseconds.
    pub window_ns: Vec<u64>,
    /// Time of each control-plane flow-mod, nanoseconds.
    pub flowmod_ns: Vec<u64>,
    pub busy_ns_per_packet: f64,
    pub ring_high_water: u64,
    pub egress_frames_per_flush: f64,
    pub lost: u64,
    /// Threads the probe kept runnable: generator, dispatcher(s), worker(s).
    pub threads: usize,
}

/// Packets in flight per closed-loop window.
const PROBE_WINDOW: usize = 256;

/// `MultiPortSwitch`, 1 port × 1 shard: this thread injects a window, waits
/// until the worker has processed and egressed it, and repeats. `frames`
/// must enter on port 0 and leave on port 0 (a one-port pipeline).
pub fn probe_multiport(
    blueprint: &Blueprint,
    frames: &[Frame],
    duration: Duration,
) -> RuntimeProbe {
    assert_eq!(
        blueprint.ports, 1,
        "the multiport probe is 1 port x 1 shard"
    );
    let ports = Arc::new(PortSet::with_ports(1));
    let port = Arc::clone(ports.get(0).expect("port 0 exists"));
    let switch = MultiPortSwitch::launch(
        BackendSpec::eswitch(),
        blueprint.pipeline.clone(),
        MultiPortConfig {
            shards: 1,
            ..MultiPortConfig::default()
        },
        Arc::clone(&ports),
    )
    .expect("workload pipelines compile");
    let mut probe = RuntimeProbe {
        threads: 3,
        ..RuntimeProbe::default()
    };
    let (mut burst, mut wire) = (Vec::with_capacity(BURST), Vec::with_capacity(PROBE_WINDOW));
    let (mut injected, mut next) = (0u64, 0usize);
    let started = Instant::now();
    while started.elapsed() < duration {
        let window_start = Instant::now();
        for _ in 0..PROBE_WINDOW / BURST {
            burst.extend((0..BURST).map(|i| frames[(next + i) % frames.len()].clone()));
            next = (next + BURST) % frames.len();
            injected += port.inject_burst(&mut burst) as u64;
            burst.clear();
        }
        while switch.processed() < injected {
            std::thread::yield_now();
        }
        probe
            .window_ns
            .push(window_start.elapsed().as_nanos() as u64);
        while port.tx_drain_into(&mut wire, PROBE_WINDOW) > 0 {
            wire.clear();
        }
    }
    let offered = probe.window_ns.len() as u64 * PROBE_WINDOW as u64;
    let report = switch.shutdown();
    let load = report.load_per_shard[0];
    probe.busy_ns_per_packet = load.nanos_per_packet();
    probe.ring_high_water = load.ring_high_water;
    probe.egress_frames_per_flush = load.egress_batch_factor();
    probe.lost = offered - report.per_shard[0].packets + port.stats().tx.drops();
    probe
}

/// `ShardedSwitch`, 1 worker: this thread dispatches a window, waits until
/// the worker has processed it, and repeats. A stateful blueprint gives the
/// worker a `CtEngine`; with `flow_mods` one `ShardedSwitch::flow_mod` is applied (and
/// timed) before each window, cycling through the list.
pub fn probe_sharded(
    blueprint: &Blueprint,
    flow_mods: &[FlowMod],
    frames: &[Frame],
    duration: Duration,
) -> RuntimeProbe {
    let (switch, mut dispatcher) = ShardedSwitch::launch(
        BackendSpec::eswitch(),
        blueprint.pipeline.clone(),
        ShardedConfig {
            workers: 1,
            ct: blueprint.ct.clone(),
            ..ShardedConfig::default()
        },
    )
    .expect("workload pipelines compile");
    let mut probe = RuntimeProbe {
        threads: 2,
        ..RuntimeProbe::default()
    };
    let (mut next, mut next_mod) = (0usize, 0usize);
    let started = Instant::now();
    while started.elapsed() < duration {
        if !flow_mods.is_empty() {
            let mod_start = Instant::now();
            switch
                .flow_mod(&flow_mods[next_mod % flow_mods.len()])
                .expect("workload flow-mods are valid");
            probe.flowmod_ns.push(mod_start.elapsed().as_nanos() as u64);
            next_mod += 1;
        }
        let window_start = Instant::now();
        for _ in 0..PROBE_WINDOW {
            dispatcher.dispatch(frames[next].clone());
            next = (next + 1) % frames.len();
        }
        dispatcher.flush();
        while switch.stats().packets < dispatcher.dispatched() {
            std::thread::yield_now();
        }
        probe
            .window_ns
            .push(window_start.elapsed().as_nanos() as u64);
    }
    let report = switch.shutdown(dispatcher);
    let load = report.load_per_shard[0];
    probe.busy_ns_per_packet = load.nanos_per_packet();
    probe.ring_high_water = load.ring_high_water;
    probe.lost = report.dispatched - report.processed.packets;
    probe
}
