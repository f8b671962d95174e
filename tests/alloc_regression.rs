//! Allocation-regression tests: the steady-state cache hit paths of the OVS
//! datapath must not touch the heap. A counting global allocator wraps the
//! system allocator; after warm-up, processing packets that hit the
//! microflow or megaflow cache must leave the allocation counter untouched.
//! The counter is per thread, so tests running in parallel (the default
//! `cargo test` threading) cannot bleed into each other's measured windows.
//!
//! This pins the tentpole property of the zero-allocation fast path: flat
//! mask projection into stack buffers, slice-borrow subtable probes, inline
//! miniflow keys, inline verdict port lists, and reused burst scratch.
//!
//! The conntrack tests extend the property to the stateful datapath: once a
//! connection is established, per-packet tracking (table probe, TCP state
//! advance, in-place timer re-arm, CLOCK recency bit, batched hit counters,
//! fixed-capacity NAT rewrite outcomes) is heap-free too — the engine's
//! slab, index, and wheel are all sized at construction.
//!
//! The compiled-gateway test holds the ESWITCH burst path to the same
//! standard: demux → per-CE NAT with an in-place VLAN pop → LPM, through
//! `EswitchRuntime::process_batch_into_ct`, allocates nothing per packet.
//!
//! The update-plane test pins §3.4 on the hash template: an add or a strict
//! delete is an in-place edit of one flat table — no rebuild, and a number
//! of allocations that does not depend on how many entries the table holds.
//!
//! The descriptor tests pin what the mbuf promises: a `Packet::clone` is
//! exactly one allocation, and the receive half of a lap — `rx_burst_into`
//! (which stamps the parse) → `rss_hash` → `process_batch_into_ct` — is
//! heap-free on the L2, gateway and ct-established cases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

use common::{data_ring, warm_established};
use conntrack::CtEngine;
use eswitch::EswitchRuntime;
use netdev::{Port, BURST_SIZE};
use openflow::ct::NoCt;
use openflow::{Action, Datapath, Field, FlowEntry, FlowMatch, FlowMod, Pipeline, Verdict};
use ovsdp::{OvsConfig, OvsDatapath};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use shard::{rss_hash, rss_hash_symmetric};
use workloads::usecases::{PORT_NET, PORT_USER};
use workloads::{gateway, l2, snat_edge, stateful_acl_gateway as acl};

/// Counts every allocation (alloc, alloc_zeroed, realloc) the calling thread
/// forwards to the system allocator. Deallocations are free and not counted.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers TLS teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread's last frees/allocs may run during TLS teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: pure passthrough to the system allocator — every method forwards
// its arguments unchanged, so `GlobalAlloc`'s layout/aliasing contract holds
// exactly as it does for `System`; the counter bump has no side effect on
// allocation state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: same contract as ours; `layout` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: same contract as ours; `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, which forwards to
        // `System`, and `layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which forwards to
        // `System`; `layout` is the one it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling (test) thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn port_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for i in 0..16u16 {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(openflow::Field::TcpDst, u128::from(1000 + i)),
            100,
            openflow::instruction::terminal_actions(vec![Action::Output(u32::from(i % 4))]),
        ));
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

fn flow_packets(flows: u16) -> Vec<Packet> {
    (0..flows)
        .map(|f| {
            PacketBuilder::tcp()
                .tcp_dst(1000 + (f % 16))
                .tcp_src(2000 + f)
                .build()
        })
        .collect()
}

#[test]
fn microflow_hit_path_is_allocation_free() {
    let dp = OvsDatapath::new(port_pipeline());
    let mut packets = flow_packets(64);
    // Warm up until every flow hits the EMC: slow-path installs fill it
    // directly, megaflow hits only when sampled for promotion.
    let mut passes = 0;
    loop {
        let before_hits = dp.stats.microflow_hits.packets();
        for p in packets.iter_mut() {
            dp.process(p);
        }
        if dp.stats.microflow_hits.packets() - before_hits == packets.len() as u64 {
            break;
        }
        passes += 1;
        assert!(passes < 5_000, "warm-up must bring every flow to the EMC");
    }
    assert!(passes > 1, "the EMC filled without sampled promotions");

    let before_hits = dp.stats.microflow_hits.packets();
    let before = allocations();
    for p in packets.iter_mut() {
        std::hint::black_box(dp.process(p));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "microflow hit path allocated {} times over {} packets",
        after - before,
        packets.len()
    );
    assert_eq!(
        dp.stats.microflow_hits.packets() - before_hits,
        packets.len() as u64,
        "every measured packet must be a microflow hit"
    );
}

#[test]
fn megaflow_hit_path_is_allocation_free() {
    // EMC disabled: every packet is answered by tuple-space search.
    let dp = OvsDatapath::with_config(
        port_pipeline(),
        OvsConfig {
            microflow_entries: 0,
            ..OvsConfig::default()
        },
    );
    let mut packets = flow_packets(64);
    for p in packets.iter_mut() {
        dp.process(p);
    }
    let before_hits = dp.stats.megaflow_hits.packets();
    let before = allocations();
    for p in packets.iter_mut() {
        std::hint::black_box(dp.process(p));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "megaflow hit path allocated {} times over {} packets",
        after - before,
        packets.len()
    );
    assert_eq!(
        dp.stats.megaflow_hits.packets() - before_hits,
        packets.len() as u64,
        "every measured packet must be a megaflow hit"
    );
}

/// Megaflow hits offered to the EMC: over 4 096 packets of 1 024 flows, a
/// few dozen are sampled and promoted, rewriting an EMC slot each, and the
/// path stays heap-free.
#[test]
fn megaflow_hit_with_emc_promotion_is_allocation_free() {
    let dp = OvsDatapath::new(port_pipeline());
    let ring = flow_packets(1024);
    let mut work = ring.clone();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);
    // One pass installs the 16 megaflows and warms the burst scratch.
    for chunk in work.chunks_mut(BURST_SIZE) {
        dp.process_burst(chunk, &mut verdicts, &mut NoCt);
    }
    let slow = dp.stats.slowpath_hits.packets();
    let before_hits = dp.stats.megaflow_hits.packets();
    let before_entries = dp.microflow_count();
    let before = allocations();
    for _ in 0..4 {
        for chunk in work.chunks_mut(BURST_SIZE) {
            dp.process_burst(chunk, &mut verdicts, &mut NoCt);
            std::hint::black_box(verdicts.len());
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "megaflow hit path with EMC promotion allocated {} times over {} packets",
        after - before,
        4 * ring.len()
    );
    assert_eq!(dp.stats.slowpath_hits.packets(), slow);
    assert!(
        dp.stats.megaflow_hits.packets() - before_hits > 3 * ring.len() as u64,
        "the measured packets must be mostly megaflow hits"
    );
    assert!(
        dp.microflow_count() >= before_entries + 10,
        "sampled promotions must happen: {before_entries} -> {} EMC entries",
        dp.microflow_count()
    );
}

#[test]
fn batched_hit_path_is_allocation_free_with_reused_buffers() {
    let dp = OvsDatapath::new(port_pipeline());
    let mut packets = flow_packets(64);
    let mut verdicts = Vec::new();
    // Warm up caches AND the reusable burst scratch / verdict buffers.
    dp.process_burst(&mut packets, &mut verdicts, &mut NoCt);
    dp.process_burst(&mut packets, &mut verdicts, &mut NoCt);

    let before = allocations();
    for _ in 0..8 {
        dp.process_burst(&mut packets, &mut verdicts, &mut NoCt);
        std::hint::black_box(verdicts.len());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "batched hit path allocated {} times over {} packets",
        after - before,
        8 * packets.len()
    );
}

/// Runs `ring` through a warmed stateful datapath for eight passes —
/// ticking the engine once per burst, exactly like the shard worker loop —
/// and asserts the established path (conntrack lookup, state advance,
/// in-place re-arm, CLOCK touch, batched hit counting, wheel sweeps, and
/// any NAT rewrites from the stored tuples) never touches the heap.
fn assert_established_path_allocation_free(
    name: &str,
    dp: &OvsDatapath,
    engine: &mut CtEngine,
    ring: &[Packet],
) {
    let mut work: Vec<Packet> = ring.to_vec();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);
    // One unmeasured pass warms the burst scratch and verdict buffers.
    work.clone_from_slice(ring);
    for chunk in work.chunks_mut(BURST_SIZE) {
        engine.tick();
        dp.process_batch_into_ct(chunk, &mut verdicts, engine);
    }
    let hits_before = {
        engine.advance_to(engine.now());
        engine.stats().snapshot().hits
    };

    // Restore the pristine ring *outside* the counted region each pass
    // (cloning packets allocates; the datapath must not).
    let mut allocated = 0;
    for _ in 0..8 {
        work.clone_from_slice(ring);
        let before = allocations();
        for chunk in work.chunks_mut(BURST_SIZE) {
            engine.tick();
            dp.process_batch_into_ct(chunk, &mut verdicts, engine);
            std::hint::black_box(verdicts.len());
        }
        allocated += allocations() - before;
    }
    assert_eq!(
        allocated,
        0,
        "{name}: established path allocated {allocated} times over {} packets",
        8 * ring.len()
    );

    engine.advance_to(engine.now());
    assert_eq!(
        engine.stats().snapshot().hits - hits_before,
        8 * ring.len() as u64,
        "{name}: every measured packet must be an established-path ct hit"
    );
}

/// The full port I/O loop — burst RX out of an ingress port's ring into a
/// reused buffer, cache-hit processing, egress staging, one vectored
/// `tx_burst`, and wire-side drain/re-injection — is heap-free in steady
/// state. Packets circulate by move the whole way (no clones), so after the
/// warm-up pass sizes every scratch buffer, eight full laps of 64 packets
/// must leave the allocation counter untouched. This is the regression for
/// the old `rx_burst`/`tx_drain` per-burst `Vec` allocations.
#[test]
fn port_rx_process_tx_loop_is_allocation_free() {
    let dp = OvsDatapath::new(port_pipeline());
    let ingress = Port::with_depth(1, 256);
    let egress = Port::with_depth(2, 256);

    let mut staged = flow_packets(64);
    let mut batch: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);

    // One lap moves a burst all the way around the loop and back into the
    // ingress ring, warming caches and every reusable buffer on the way.
    let lap = |staged: &mut Vec<Packet>, batch: &mut Vec<Packet>, verdicts: &mut Vec<Verdict>| {
        assert_eq!(ingress.inject_burst(staged), 64);
        loop {
            if ingress.rx_burst_into(batch, BURST_SIZE) == 0 {
                break;
            }
            dp.process_burst(batch, verdicts, &mut NoCt);
            std::hint::black_box(verdicts.len());
            // Stage the whole burst for one vectored flush (the pipeline's
            // verdicts all name ports; routing fan-out is covered by the
            // multiport suite — here the property under test is the I/O).
            let frames = batch.len();
            assert_eq!(egress.tx_burst(batch), frames);
        }
        while egress.tx_drain_into(staged, BURST_SIZE) > 0 {}
        assert_eq!(staged.len(), 64, "a lap lost frames");
    };
    lap(&mut staged, &mut batch, &mut verdicts);
    lap(&mut staged, &mut batch, &mut verdicts);

    let before = allocations();
    for _ in 0..8 {
        lap(&mut staged, &mut batch, &mut verdicts);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "port RX→process→TX loop allocated {} times over {} packets",
        after - before,
        8 * 64
    );
    assert_eq!(ingress.stats().rx.drops(), 0);
    assert_eq!(egress.stats().tx.drops(), 0);
}

/// The compiled gateway's upstream path — table 0 demux on (in_port, VLAN),
/// per-CE NAT (`SetField(Ipv4Src)` + `PopVlan`), LPM routing with a TTL
/// decrement — through the runtime's burst entry. The VLAN pop shrinks the
/// frame in place and the parsed offsets are shifted, the burst's trampoline
/// guards, write-set accumulator and stats tallies live on the stack, and
/// the (punt-capable) pipeline's ingress snapshot reuses its buffers: after
/// warm-up, zero allocations per packet.
#[test]
fn compiled_gateway_burst_path_is_allocation_free() {
    let config = gateway::GatewayConfig {
        ces: 4,
        users_per_ce: 8,
        routing_prefixes: 300,
        seed: 7,
        preinstall_users: true,
    };
    let switch = EswitchRuntime::compile(gateway::build_pipeline(&config)).expect("compiles");
    let ring: Vec<Packet> = gateway::build_traffic(&config, 64).one_cycle().collect();
    assert!(ring.len() >= 2 * BURST_SIZE);
    let mut work: Vec<Packet> = ring.clone();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);

    let mut allocated = 0;
    // Pass 0 warms the verdict buffer and the ingress-snapshot scratch.
    for pass in 0..9 {
        // Restoring the tagged, un-NATted frames allocates; the datapath
        // must not, so only the processing is counted.
        work.clone_from_slice(&ring);
        let before = allocations();
        for chunk in work.chunks_mut(BURST_SIZE) {
            switch.process_batch_into_ct(chunk, &mut verdicts, &mut NoCt);
            for verdict in &verdicts {
                assert_eq!(verdict.outputs.as_slice(), [PORT_NET]);
                assert_eq!(verdict.tables_visited, 3, "demux, per-CE NAT, routing");
            }
        }
        if pass > 0 {
            allocated += allocations() - before;
        }
    }
    assert_eq!(
        allocated,
        0,
        "compiled gateway burst path allocated {allocated} times over {} packets",
        8 * ring.len()
    );
    // The packets really took the layout-changing path: tag gone, 4 bytes shorter.
    for (after, before) in work.iter().zip(&ring) {
        assert_eq!(after.len() + 4, before.len());
    }
}

/// Allocations over 256 fresh upstream gateway flows, 254 of which miss
/// both caches, after 256 others warmed the caches and the tables' indexes,
/// as the linear slow path made them: 603, or 2.4 per miss. A miss
/// allocates its products — the program's action list and its shared
/// allocation, and the megaflow and EMC entries it installs, with their
/// tables' amortised growth.
const GATEWAY_MISS_ALLOCATIONS_AT_SCAN: u64 = 603;

/// One slow-path miss on the gateway pipeline — demux, per-CE NAT, routing
/// — through the OVS datapath: the tuple-space lookups themselves allocate
/// nothing, so a miss costs at most what the scan it replaced cost.
#[test]
fn gateway_slow_path_miss_allocates_no_more_than_the_scan() {
    let config = gateway::GatewayConfig {
        ces: 4,
        users_per_ce: 8,
        routing_prefixes: 2_000,
        seed: 7,
        preinstall_users: true,
    };
    let dp = OvsDatapath::new(gateway::build_pipeline(&config));
    let mut work: Vec<Packet> = gateway::build_traffic(&config, 512).one_cycle().collect();
    let (warm, measured) = work.split_at_mut(256);
    for packet in warm.iter_mut() {
        dp.process(packet);
    }
    let slow_before = dp.stats.slowpath_hits.packets();
    let before = allocations();
    for packet in measured.iter_mut() {
        std::hint::black_box(dp.process(packet));
    }
    let allocated = allocations() - before;
    let misses = dp.stats.slowpath_hits.packets() - slow_before;
    eprintln!("{allocated} allocations over {misses} slow-path misses");
    assert_eq!(misses, 254, "the scan's megaflows leave 254 flows to miss");
    assert!(
        allocated <= GATEWAY_MISS_ALLOCATIONS_AT_SCAN,
        "{allocated} allocations over {misses} slow-path misses"
    );
}

#[test]
fn conntrack_established_path_is_allocation_free() {
    let dp = OvsDatapath::new(acl::build_pipeline(&acl::StatefulAclConfig::default()));
    let mut engine = CtEngine::new(&acl::ct_config());
    let ring = data_ring(64, PORT_USER);
    warm_established(&dp, &mut engine, &ring, PORT_NET);
    assert_established_path_allocation_free("stateful_acl", &dp, &mut engine, &ring);
}

#[test]
fn conntrack_nat_established_path_is_allocation_free() {
    let dp = OvsDatapath::new(snat_edge::build_pipeline(
        &snat_edge::SnatEdgeConfig::default(),
    ));
    let mut engine = CtEngine::new(&snat_edge::ct_config());
    let ring = data_ring(64, PORT_USER);
    warm_established(&dp, &mut engine, &ring, PORT_NET);
    assert_established_path_allocation_free("snat_edge", &dp, &mut engine, &ring);
}

#[test]
fn packet_clone_is_exactly_one_allocation() {
    let mut template = PacketBuilder::tcp().payload(&[7u8; 300]).build();
    for stamped in [false, true] {
        if stamped {
            template.ensure_parsed();
            template.set_rss_hash(9);
        }
        let before = allocations();
        let copy = std::hint::black_box(template.clone());
        assert_eq!(allocations() - before, 1, "stamped: {stamped}");
        assert_eq!(copy.parsed(), template.parsed());
    }
}

/// Eight laps of the receive half over `ring`: each packet is injected into
/// the port numbered as its `in_port` (cloning and injecting are outside the
/// counted window, as a lap's generator is), then received, hashed, stamped
/// and processed in bursts with nothing allocated.
fn assert_rx_hash_process_allocation_free(
    name: &str,
    ring: &[Packet],
    hash: fn(&Packet) -> u64,
    mut process: impl FnMut(&mut [Packet], &mut Vec<Verdict>),
) {
    let mut ids: Vec<u32> = ring.iter().map(|p| p.in_port).collect();
    ids.sort_unstable();
    ids.dedup();
    let ports: Vec<Port> = ids
        .iter()
        .map(|&id| Port::with_depth(id, ring.len()))
        .collect();
    let mut batch: Vec<Packet> = Vec::with_capacity(BURST_SIZE);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);
    let mut allocated = 0;
    // Lap 0 warms the verdict buffer and the datapath's burst scratch.
    for lap in 0..9 {
        for packet in ring {
            let port = ids.binary_search(&packet.in_port).expect("listed");
            assert!(ports[port].inject(packet.clone()));
        }
        let before = allocations();
        for port in &ports {
            while port.rx_burst_into(&mut batch, BURST_SIZE) > 0 {
                for packet in batch.iter_mut() {
                    assert!(packet.parsed().is_some(), "{name}: RX stamps the parse");
                    let hash = hash(packet);
                    packet.set_rss_hash(hash);
                }
                process(&mut batch, &mut verdicts);
                std::hint::black_box(verdicts.len());
                batch.clear();
            }
        }
        if lap > 0 {
            allocated += allocations() - before;
        }
    }
    assert_eq!(
        allocated,
        0,
        "{name}: rx → rss → process allocated {allocated} times over {} packets",
        8 * ring.len()
    );
}

#[test]
fn rx_hash_process_is_allocation_free_on_l2_gateway_and_ct() {
    let config = l2::L2Config {
        table_size: 1_000,
        ports: 4,
        seed: 7,
    };
    let switch = EswitchRuntime::compile(l2::build_pipeline(&config)).expect("compiles");
    let ring: Vec<Packet> = l2::build_traffic(&config, 256).one_cycle().collect();
    assert_rx_hash_process_allocation_free("l2", &ring, rss_hash, |batch, verdicts| {
        switch.process_batch_into_ct(batch, verdicts, &mut NoCt)
    });

    let config = gateway::GatewayConfig {
        ces: 4,
        users_per_ce: 8,
        routing_prefixes: 300,
        seed: 7,
        preinstall_users: true,
    };
    let switch = EswitchRuntime::compile(gateway::build_pipeline(&config)).expect("compiles");
    let ring: Vec<Packet> = gateway::build_traffic(&config, 64).one_cycle().collect();
    assert_rx_hash_process_allocation_free("gateway", &ring, rss_hash, |batch, verdicts| {
        switch.process_batch_into_ct(batch, verdicts, &mut NoCt);
        assert!(verdicts.iter().all(|v| v.outputs.as_slice() == [PORT_NET]));
    });

    let dp = OvsDatapath::new(snat_edge::build_pipeline(
        &snat_edge::SnatEdgeConfig::default(),
    ));
    let mut engine = CtEngine::new(&snat_edge::ct_config());
    let ring = data_ring(64, PORT_USER);
    warm_established(&dp, &mut engine, &ring, PORT_NET);
    let hits_before = {
        engine.advance_to(engine.now());
        engine.stats().snapshot().hits
    };
    assert_rx_hash_process_allocation_free(
        "ct-established",
        &ring,
        rss_hash_symmetric,
        |batch, verdicts| {
            engine.tick();
            dp.process_batch_into_ct(batch, verdicts, &mut engine);
        },
    );
    engine.advance_to(engine.now());
    assert_eq!(
        engine.stats().snapshot().hits - hits_before,
        9 * ring.len() as u64,
        "every packet must be an established-path ct hit"
    );
}

/// 10 000 alternating add / strict-delete flow-mods against a compiled MAC
/// table of `table_size` entries. Returns the allocations they made, after
/// checking that every one was absorbed incrementally, that the flat table
/// was never re-homed (same footprint) and that lookups see each change.
fn hash_template_update_allocations(table_size: usize) -> u64 {
    let config = l2::L2Config {
        table_size,
        ports: 4,
        seed: 11,
    };
    let switch = EswitchRuntime::compile(l2::build_pipeline(&config)).expect("compiles");
    let footprint = switch.datapath().memory_footprint();
    let probe = |mac: u64| {
        let mut packet = PacketBuilder::udp()
            .eth_dst(pkt::MacAddr::from_u64(mac).octets())
            .build();
        switch.process(&mut packet).outputs.to_vec()
    };
    let flow_match = |mac: u64| FlowMatch::any().with_exact(Field::EthDst, u128::from(mac));
    // The per-packet form reuses one verdict buffer per thread: warm it
    // outside the count, so the first table size does not pay for it.
    probe(0x0300_0000_0000);

    let before = allocations();
    for round in 0..5_000u64 {
        // Locally administered, multicast bit set: none of the installed
        // (unicast) MACs.
        let mac = 0x0300_0000_0000 + round % 61;
        let add = FlowMod::add(
            0,
            flow_match(mac),
            100,
            openflow::instruction::terminal_actions(vec![Action::Output(9)]),
        );
        switch.flow_mod(&add).expect("add applies");
        if round % 500 == 0 {
            assert_eq!(probe(mac), vec![9], "round {round}: added entry must hit");
        }
        let delete = FlowMod::delete_strict(0, flow_match(mac), 100);
        switch.flow_mod(&delete).expect("delete applies");
        if round % 500 == 0 {
            assert_eq!(
                probe(mac),
                Vec::<u32>::new(),
                "round {round}: deleted entry must miss"
            );
        }
    }
    let allocated = allocations() - before;

    assert_eq!(switch.updates.incremental.updates(), 10_000);
    assert_eq!(switch.updates.table_rebuilds.updates(), 0);
    assert_eq!(switch.updates.full_recompiles.updates(), 0);
    assert_eq!(switch.datapath().memory_footprint(), footprint);
    allocated
}

#[test]
fn hash_template_flow_mods_stay_incremental_and_allocate_o1() {
    let small = hash_template_update_allocations(500);
    let large = hash_template_update_allocations(8_000);
    // The probes allocate (a packet each); the 20 per table size cancel out.
    assert_eq!(
        small, large,
        "allocations per flow-mod must not depend on the table size"
    );
    assert!(
        small <= 10_000 * 32,
        "{small} allocations over 10 000 flow-mods"
    );
}
