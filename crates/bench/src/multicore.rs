//! Multi-core throughput measurement (Fig. 19) and the elastic-scheduling
//! skew harness.
//!
//! [`measure_sharded_throughput`] runs the real deployment shape: the
//! `shard` runtime's RSS dispatcher feeds per-worker rings, every worker
//! drains 32-packet bursts through its own datapath replica (per-shard
//! caches, like OVS PMD threads), and a live control plane can apply
//! flow-mods mid-run. Fig. 19 and the committed `BENCH_multicore.json` run
//! this. [`measure_skewed_throughput`] offers a Zipf elephant-flow load to
//! the same runtime with and without the rebalancer.
//!
//! The OVS workloads run over [`port_pipeline`], a four-class forwarding
//! pipeline whose traffic classes produce four distinct megaflow masks, so
//! steady state exercises genuine tuple-space search; the knob that moves
//! between the Fig. 14 regimes is the active-flow count relative to the EMC
//! capacity.

use std::time::{Duration, Instant};

use netdev::BURST_SIZE;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use shard::{
    rss_hash, rss_hash_symmetric, BackendSpec, RebalanceConfig, RssDispatcher, ShardedConfig,
    ShardedSwitch,
};
use workloads::FlowSet;

/// Per-shard ring capacity [`measure_sharded_throughput`] launches with;
/// public so the `multicore` bin records the operating point it measured.
pub const SHARD_RING_CAPACITY: usize = 1024;

/// Distinct destination ports per transport protocol in the port pipeline.
const PORTS_PER_PROTO: u16 = 64;
/// Number of `eth_dst` rules (the fourth traffic class below).
const MAC_RULES: u64 = 32;

/// A four-class forwarding pipeline: 64 `tcp_dst` rules over 64 `udp_dst`
/// rules over an ICMP rule over 32 `eth_dst` rules over a catch-all drop.
/// Under slow-path un-wildcarding the four traffic classes produce four
/// distinct megaflow masks — `{tcp_dst}`, `{tcp_dst, udp_dst}`,
/// `{tcp_dst, udp_dst, icmp_type}` and `{…, eth_dst}` — so steady state is
/// genuine tuple-space search over several subtables, the regime whose cost
/// the paper's §2.2 attributes OVS's megaflow-level slowdown to.
pub fn port_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for i in 0..PORTS_PER_PROTO {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(1000 + i)),
            100,
            terminal_actions(vec![Action::Output(u32::from(i % 4))]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::UdpDst, u128::from(1000 + i)),
            90,
            terminal_actions(vec![Action::Output(u32::from(i % 4))]),
        ));
    }
    t.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::Icmpv4Type, 8),
        80,
        terminal_actions(vec![Action::Output(5)]),
    ));
    for m in 0..MAC_RULES {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_2000 + m)),
            70,
            terminal_actions(vec![Action::Output((m % 4) as u32)]),
        ));
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

/// `flows` distinct flows in a 2:1:1:1 mix of the four traffic classes of
/// [`port_pipeline`]: TCP port flows, UDP port flows, ICMP flows, and
/// odd-port TCP flows answered by the `eth_dst` rules.
pub fn port_traffic(flows: usize) -> FlowSet {
    let protos: Vec<Packet> = (0..flows)
        .map(|f| {
            let dst = 1000 + (f as u16 % PORTS_PER_PROTO);
            let src = 1024 + (f / PORTS_PER_PROTO as usize) as u16;
            match f % 5 {
                0 | 1 => PacketBuilder::tcp().tcp_dst(dst).tcp_src(src).build(),
                2 => PacketBuilder::udp().udp_dst(dst).udp_src(src).build(),
                3 => PacketBuilder::icmp()
                    .ipv4_src([10, (f >> 10) as u8, (f >> 2) as u8, f as u8])
                    .build(),
                _ => PacketBuilder::tcp()
                    .eth_dst(
                        pkt::MacAddr::from_u64(0x0200_0000_2000 + (f as u64 % MAC_RULES)).octets(),
                    )
                    .tcp_dst(5000)
                    .tcp_src(src)
                    .build(),
            }
        })
        .collect();
    FlowSet::new(protos, 0xfa57)
}

/// Measures aggregate packets/second of the sharded runtime: an RSS
/// dispatcher on the calling thread feeds `workers` shard threads over SPSC
/// rings; each shard drains 32-packet bursts through its own replica of
/// `pipeline` under `spec`. The flow set's shard assignment is precomputed
/// once (hardware RSS computes the hash off the host CPU), warm-up runs
/// until the shards have processed `warmup` packets, and the timed window
/// counts packets actually processed (not merely enqueued) over its span.
pub fn measure_sharded_throughput(
    spec: BackendSpec,
    pipeline: Pipeline,
    traffic: &FlowSet,
    workers: usize,
    warmup: usize,
    duration_ms: u64,
) -> f64 {
    let (switch, mut dispatcher) = ShardedSwitch::launch(
        spec,
        pipeline,
        ShardedConfig {
            workers,
            ring_capacity: SHARD_RING_CAPACITY,
            ..ShardedConfig::default()
        },
    )
    .expect("pipeline compiles");

    // Precompute each replay slot's shard and keep the prototypes: the timed
    // loop pays one packet clone per dispatch (the ring consumes packets)
    // but no parsing or hashing, mirroring NIC-resident RSS.
    let len = traffic.active_flows();
    let n = len.max(BURST_SIZE).div_ceil(BURST_SIZE) * BURST_SIZE;
    let ring: Vec<(usize, Packet)> = (0..n)
        .map(|i| {
            let packet = traffic.packet(i);
            (dispatcher.shard_for(&packet), packet)
        })
        .collect();

    let feed_pass = |dispatcher: &mut shard::RssDispatcher| {
        for (shard, proto) in &ring {
            dispatcher.dispatch_to(*shard, proto.clone());
        }
    };

    // Warm-up: per-shard caches fill; wait until the shards have actually
    // processed the packets, not just received them.
    let mut warmed = 0usize;
    while warmed < warmup {
        feed_pass(&mut dispatcher);
        warmed += ring.len();
    }
    dispatcher.flush();
    while switch.stats().packets < warmed as u64 {
        std::thread::yield_now();
    }

    let base = switch.stats().packets;
    let window = Duration::from_millis(duration_ms);
    let start = Instant::now();
    loop {
        feed_pass(&mut dispatcher);
        if start.elapsed() >= window {
            break;
        }
    }
    let processed = switch.stats().packets - base;
    let elapsed = start.elapsed();
    switch.shutdown(dispatcher);
    processed as f64 / elapsed.as_secs_f64()
}

/// How the elastic-scheduling (skew) harness offers load.
#[derive(Debug, Clone, Copy)]
pub struct SkewConfig {
    /// Worker shards.
    pub workers: usize,
    /// Distinct flows in the set.
    pub flows: usize,
    /// Zipf exponent: per-packet flow rank `k` is drawn with probability
    /// ∝ `k^-s`. At `s ≈ 1.3` the top flow carries ~25–30% of all packets —
    /// the elephant-flow regime.
    pub zipf_s: f64,
    /// The top-`elephants` ranks are *pinned to shard 0* under the uniform
    /// launch table (their flow tuples are chosen so their buckets start on
    /// shard 0): the adversarial placement where static hashing concentrates
    /// the elephants on one shard and only a remap can spread them.
    pub elephants: usize,
    /// Packets processed before the timed window opens.
    pub warmup_packets: usize,
    /// Timed window length.
    pub duration_ms: u64,
    /// `None` = static indirection table (the baseline that cannot adapt);
    /// `Some` = the elastic rebalancer.
    pub rebalance: Option<RebalanceConfig>,
    /// Replace the Zipf draw with a uniform round-robin over the same flow
    /// set — the no-skew upper-bound reference the rebalanced run is judged
    /// against.
    pub uniform: bool,
}

impl SkewConfig {
    /// The skew benchmark's rebalancer profile. The imbalance cutoff must
    /// sit *below* the acceptance bar: with 2 shards the rebalancer stops
    /// acting once `max/avg < ratio`, i.e. at a max busy share of
    /// `ratio / workers` — 1.15 bounds the converged share at 0.575, keeping
    /// the modeled aggregate comfortably within 20% of uniform.
    pub fn rebalance_profile() -> RebalanceConfig {
        RebalanceConfig {
            check_packets: 8 * 1024,
            imbalance_ratio: 1.15,
            sustain: 2,
            max_moves: 8,
        }
    }
}

/// What one skew run measured.
#[derive(Debug, Clone)]
pub struct SkewResult {
    /// Aggregate wall-clock packets/second over the timed window. Only
    /// meaningful with real hardware parallelism; on an undersubscribed
    /// host the shards time-slice and wall pps flattens regardless of
    /// balance.
    pub pps_wall: f64,
    /// The *modeled* aggregate rate: packets processed over the window
    /// divided by the **busiest shard's** busy time. This is what the
    /// aggregate would sustain with a core per shard (every other shard
    /// finishes its share inside the bottleneck's window) — the
    /// load-balance signal that stays valid on a 1-CPU container.
    pub pps_model: f64,
    /// The busiest shard's fraction of total busy time (1/workers = ideal).
    pub max_busy_share: f64,
    /// Bucket remaps the dispatcher executed.
    pub remaps: u64,
    /// Per-shard busy milliseconds over the timed window.
    pub per_shard_busy_ms: Vec<f64>,
}

/// Deterministic xorshift64 — the harness's only randomness source (seeded,
/// reproducible, no external dependency).
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A presampled Zipf(`s`) rank sequence over `flows` ranks.
fn zipf_sequence(flows: usize, s: f64, len: usize, seed: u64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(flows);
    let mut total = 0.0f64;
    for k in 1..=flows {
        total += (k as f64).powf(-s);
        cdf.push(total);
    }
    let mut rng = XorShift64(seed | 1);
    (0..len)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
            cdf.partition_point(|c| *c < u).min(flows - 1) as u32
        })
        .collect()
}

/// Builds the flow prototypes, RSS hash precomputed per flow (the
/// NIC-descriptor split: the timed loop pays one clone per dispatch, no
/// parsing or hashing). The first `elephants` ranks are chosen so their
/// buckets start on shard 0 under the launch table.
fn skew_prototypes(
    dispatcher: &RssDispatcher,
    flows: usize,
    elephants: usize,
) -> Vec<(u64, Packet)> {
    let mut protos = Vec::with_capacity(flows);
    let mut src: u16 = 1;
    while protos.len() < flows {
        let packet = PacketBuilder::tcp()
            .ipv4_src([10, 0, 0, 1])
            .ipv4_dst([10, 0, 0, 2])
            .tcp_src(src)
            .tcp_dst(80)
            .build();
        src = src.checked_add(1).expect("flow-tuple space exhausted");
        if protos.len() < elephants && dispatcher.shard_for(&packet) != 0 {
            continue;
        }
        let hash = if dispatcher.is_symmetric() {
            rss_hash_symmetric(&packet)
        } else {
            rss_hash(&packet)
        };
        protos.push((hash, packet));
    }
    protos
}

/// Runs the elephant-flow skew workload through the sharded runtime and
/// reports both wall and modeled aggregate rates plus the busy-time balance
/// (see [`SkewResult`]). The measurement protocol: warm up (caches fill,
/// telemetry baseline taken after the warm-up fully drains), then dispatch
/// the presampled sequence for `duration_ms`, flush, wait until every
/// dispatched packet is processed, and read the exact per-shard busy deltas
/// from the shutdown report (worker recorders flush their tails on exit).
/// The telemetry baseline can lag the warm-up's last few bursts by one
/// recorder flush window (64 bursts) — noise well under a percent of any
/// realistic timed window.
pub fn measure_skewed_throughput(
    spec: BackendSpec,
    pipeline: Pipeline,
    config: &SkewConfig,
) -> SkewResult {
    let (switch, mut dispatcher) = ShardedSwitch::launch(
        spec,
        pipeline,
        ShardedConfig {
            workers: config.workers,
            ring_capacity: SHARD_RING_CAPACITY,
            rebalance: config.rebalance,
            ..ShardedConfig::default()
        },
    )
    .expect("pipeline compiles");

    let protos = skew_prototypes(&dispatcher, config.flows, config.elephants);
    let seq: Vec<u32> = if config.uniform {
        (0..8192u32).map(|i| i % config.flows as u32).collect()
    } else {
        zipf_sequence(config.flows, config.zipf_s, 8192, 0x5eed_cafe)
    };

    let mut sent = 0u64;
    while sent < config.warmup_packets as u64 {
        for &f in &seq {
            let (hash, proto) = &protos[f as usize];
            dispatcher.dispatch_hashed(*hash, proto.clone());
        }
        sent += seq.len() as u64;
    }
    dispatcher.flush();
    while switch.stats().packets < sent {
        std::thread::yield_now();
    }

    let busy_base: Vec<u64> = switch
        .load_snapshots()
        .iter()
        .map(|s| s.busy_nanos)
        .collect();
    let base = switch.stats().packets;
    let window = Duration::from_millis(config.duration_ms);
    let start = Instant::now();
    loop {
        for &f in &seq {
            let (hash, proto) = &protos[f as usize];
            dispatcher.dispatch_hashed(*hash, proto.clone());
        }
        if start.elapsed() >= window {
            break;
        }
    }
    dispatcher.flush();
    let dispatched = dispatcher.dispatched();
    while switch.stats().packets < dispatched {
        std::thread::yield_now();
    }
    let wall = start.elapsed();
    let processed = switch.stats().packets - base;
    let report = switch.shutdown(dispatcher);

    let busy: Vec<u64> = report
        .load_per_shard
        .iter()
        .zip(&busy_base)
        .map(|(snap, base)| snap.busy_nanos.saturating_sub(*base))
        .collect();
    let total_busy: u64 = busy.iter().sum();
    let max_busy = busy.iter().copied().max().unwrap_or(0);
    SkewResult {
        pps_wall: processed as f64 / wall.as_secs_f64(),
        pps_model: if max_busy == 0 {
            0.0
        } else {
            processed as f64 / (max_busy as f64 / 1e9)
        },
        max_busy_share: if total_busy == 0 {
            0.0
        } else {
            max_busy as f64 / total_busy as f64
        },
        remaps: report.remaps,
        per_shard_busy_ms: busy.iter().map(|n| *n as f64 / 1e6).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::Datapath;
    use ovsdp::OvsDatapath;

    #[test]
    fn workload_reaches_cache_steady_state() {
        let dp = OvsDatapath::new(port_pipeline());
        let mut ring: Vec<Packet> = port_traffic(320).one_cycle().collect();
        for p in ring.iter_mut() {
            dp.process(p);
        }
        // Megaflows aggregate flows: far fewer entries than flows, spread
        // over the four traffic classes.
        assert!(dp.megaflow_count() >= 100 && dp.megaflow_count() <= 200);
        // Warm again: everything must now be answered by the caches.
        let slow_before = dp.stats.slowpath_hits.packets();
        for p in ring.iter_mut() {
            dp.process(p);
        }
        assert_eq!(dp.stats.slowpath_hits.packets(), slow_before);
    }

    /// The elastic-scheduling acceptance gate. An adversarial Zipf workload
    /// (elephant buckets pinned to shard 0 at launch) is offered three ways:
    /// static table, elastic rebalancer, and a uniform no-skew reference.
    /// The bar is asserted on busy *shares* rather than on the two runs'
    /// absolute `pps_model` values: the modeled rate relative to a perfectly
    /// balanced run is `(1 / workers) / max_busy_share` (both have the same
    /// per-packet cost; only the bottleneck's share of the busy time
    /// differs), so "within 20% of uniform" is exactly `max_busy_share <
    /// 0.625` at two workers. A share is still wall-clock busy time, and
    /// with fewer cores than the run's three threads (dispatcher + two
    /// shards) preemption lands inside it, so the shares are asserted only
    /// where each thread has a core; below that only the remap counts,
    /// which no scheduler moves, are. The committed BENCH_multicore.json
    /// reports the measured `pps_model` ratios from a quiet release run.
    #[test]
    fn rebalancer_recovers_skewed_throughput() {
        let skew = SkewConfig {
            workers: 2,
            flows: 256,
            zipf_s: 1.3,
            elephants: 8,
            warmup_packets: 16_384,
            duration_ms: 250,
            rebalance: None,
            uniform: false,
        };
        let run = |rebalance, uniform| {
            measure_skewed_throughput(
                BackendSpec::ovs(),
                port_pipeline(),
                &SkewConfig {
                    rebalance,
                    uniform,
                    ..skew
                },
            )
        };
        let uniform = run(None, true);
        let stat = run(None, false);
        let elastic = run(Some(SkewConfig::rebalance_profile()), false);

        assert_eq!(stat.remaps, 0, "static run must not remap");
        assert!(
            elastic.remaps > 0,
            "rebalancer never acted on a sustained elephant skew"
        );
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus < 3 {
            println!(
                "busy shares unmeasurable on {cpus} cpus (3 threads): uniform {:.2}, static {:.2}, rebalanced {:.2}",
                uniform.max_busy_share, stat.max_busy_share, elastic.max_busy_share
            );
            return;
        }
        // The no-skew reference spreads; the pinned elephants concentrate.
        assert!(
            uniform.max_busy_share < stat.max_busy_share,
            "uniform reference as concentrated as the skewed run: {:.2} vs {:.2}",
            uniform.max_busy_share,
            stat.max_busy_share
        );
        assert!(
            elastic.max_busy_share < stat.max_busy_share,
            "rebalancing did not reduce the busy concentration: {:.2} -> {:.2}",
            stat.max_busy_share,
            elastic.max_busy_share
        );
        // The headline bar in share form (see the doc comment): at two
        // workers the modeled rate is within 20% of a balanced run exactly
        // when the bottleneck's busy share is below 0.5 / 0.8 = 0.625.
        assert!(
            stat.max_busy_share > 0.625,
            "static table unexpectedly held the balanced rate: share {:.2}",
            stat.max_busy_share
        );
        assert!(
            elastic.max_busy_share < 0.625,
            "rebalancer did not recover to within 20% of balanced: share {:.2}",
            elastic.max_busy_share
        );
    }

    #[test]
    fn zipf_sequence_is_deterministic_and_skewed() {
        let a = zipf_sequence(256, 1.3, 8192, 42);
        let b = zipf_sequence(256, 1.3, 8192, 42);
        assert_eq!(a, b, "same seed must reproduce the sequence");
        let top = a.iter().filter(|r| **r == 0).count() as f64 / a.len() as f64;
        assert!(
            (0.2..0.4).contains(&top),
            "rank-0 mass {top:.2} out of the Zipf(1.3) envelope"
        );
        assert!(a.iter().all(|r| (*r as usize) < 256));
    }

    /// The PR-3 acceptance gate: with a core per thread two shards must beat
    /// one by ≥ 1.5× on the EMC-hit workload; on a smaller host the same run
    /// must stay correct and not collapse.
    #[test]
    fn sharded_two_workers_scale_on_emc_hit_workload() {
        let traffic = port_traffic(1_024);
        let one = measure_sharded_throughput(
            BackendSpec::ovs(),
            port_pipeline(),
            &traffic,
            1,
            4_096,
            120,
        );
        let two = measure_sharded_throughput(
            BackendSpec::ovs(),
            port_pipeline(),
            &traffic,
            2,
            4_096,
            120,
        );
        assert!(one > 0.0);
        assert!(two > 0.0);
        // The 2-worker configuration keeps three threads runnable (dispatcher
        // + two shards). With a core for each, demand the full 1.5x bar.
        // With fewer the threads time-slice and the ratio is the scheduler's
        // (0.8–1.15x over 30 runs on 2 vCPUs): a number this host cannot
        // measure is labelled, not asserted — only require that sharding
        // does not collapse throughput.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus >= 3 {
            assert!(
                two >= one * 1.5,
                "2 workers at {two:.0} pps < 1.5x the 1-worker {one:.0} pps"
            );
        } else {
            println!(
                "2-worker scaling unmeasurable on {cpus} cpus (3 threads): {:.2}x",
                two / one
            );
            assert!(
                two > one * 0.5,
                "2 workers at {two:.0} pps collapsed vs 1 worker at {one:.0} pps"
            );
        }
    }
}
