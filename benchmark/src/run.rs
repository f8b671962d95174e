//! One workload, one process: set up (several times), check against the
//! oracle, measure for the window, and name every number.

use std::time::{Duration, Instant};

use crate::lap::{lap, LapStamps, Ledger, NoTrace, Stage};
use crate::stats::{self, Blocks, Histogram, Speed};
use crate::sut::{
    self, Blueprint, CtCounters, Frame, Oracle, OvsCounters, RuntimeProbe, Sut, UpdateCounters,
    BURST,
};
use crate::workload::{self, BurstMeta, Kind, Traffic, Workload, LAPS_PER_CYCLE};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Checks only: one set-up, no sample floor, no runtime probe.
    pub smoke: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced run's kept spans, as JSON.
    pub trace: Option<String>,
}

/// Set-ups per run: at least `MIN_SETUPS`, more (up to `MAX_SETUPS`) while
/// they fit in `SETUP_BUDGET_S`, judged by the first; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;
/// The measuring window is split evenly over the last set-ups of a run, each
/// measured as soon as it is up: hash seeds and heap placement differ from
/// one instance to the next (measured on `gateway_ovs`: one instance in ten
/// is 5 to 25 % slower), and an estimate over four does not ride on one draw.
const MEASURED_SETUPS: usize = 4;
/// Update cycles replayed in lockstep with the oracle before timing.
const CHECKED_CYCLES: usize = 32;
/// A traced run alternates blocks of this many traced and untraced units, so
/// both see the same stretch of host time.
const BLOCK: u64 = 64;
/// Timed laps per second of window a full run should reach (50 k at the
/// default 8 s; fewer is reported), and the tenth of it below which the run
/// is refused: quantiles of so few units say nothing.
const WANTED_LAPS_PER_SECOND: f64 = 6_250.0;
/// Untimed laps (and microseconds of window) between clock-meter samples.
const LAPS_PER_SPEED_SAMPLE: u64 = 16;
const SPEED_SAMPLE_EVERY: Duration = Duration::from_micros(250);

/// A clock that stops while the harness does work of its own, and counts
/// reference-clock nanoseconds: each stretch is scaled by the mean of the
/// clock-meter factors at its two ends.
struct Stopwatch {
    reference_ns: f64,
    since: Option<(Instant, f64)>,
}

impl Stopwatch {
    fn start(speed: &Speed) -> Stopwatch {
        Stopwatch {
            reference_ns: 0.0,
            since: Some((Instant::now(), speed.factor())),
        }
    }
    fn pause(&mut self, speed: &Speed) {
        if let Some((since, factor)) = self.since.take() {
            let mean = (factor + speed.factor()) / 2.0;
            self.reference_ns += since.elapsed().as_nanos() as f64 * mean;
        }
    }
    fn resume(&mut self, speed: &Speed) {
        self.since = Some((Instant::now(), speed.factor()));
    }
    fn seconds(mut self, speed: &Speed) -> f64 {
        self.pause(speed);
        self.reference_ns / 1e9
    }
}

/// What the checks have seen so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Frames compared with the oracle, and those that differed.
    compared: u64,
    mismatched: u64,
    interp_ns: u64,
    /// Flow-mods that did not touch exactly one entry.
    update_errors: u64,
    /// Broken ct identities and update counts that do not add up.
    state_errors: u64,
}

struct Instance {
    blueprint: Blueprint,
    sut: Sut,
    traffic: Traffic,
    burst: Vec<Frame>,
    want: Vec<Vec<Frame>>,
    untimed_laps: u64,
}

impl Instance {
    fn new(workload: Workload, seed: u64) -> Instance {
        let (blueprint, traffic) = workload::inputs(workload, seed);
        let sut = Sut::new(&blueprint, workload.backend());
        Instance {
            want: sut.wire().iter().map(|_| Vec::new()).collect(),
            blueprint,
            sut,
            traffic,
            burst: Vec::with_capacity(BURST),
            untimed_laps: 0,
        }
    }

    /// One untimed lap. With an oracle, the same frames are interpreted by
    /// `openflow::DirectDatapath` and everything the wire side received is
    /// compared with it, port by port and byte by byte; `watch` is stopped
    /// for that work.
    fn checked_lap(
        &mut self,
        oracle: Option<&mut Oracle>,
        watch: &mut Stopwatch,
        speed: &mut Speed,
        tally: &mut Tally,
    ) {
        self.untimed_laps += 1;
        if self.untimed_laps.is_multiple_of(LAPS_PER_SPEED_SAMPLE) {
            watch.pause(speed);
            speed.sample();
            watch.resume(speed);
        }
        let mut meta = self.traffic.next(&mut self.burst);
        let checked = oracle.is_some();
        if let Some(oracle) = oracle {
            watch.pause(speed);
            let started = Instant::now();
            for frame in &self.burst {
                let mut frame = frame.clone();
                let ports = oracle.process(&mut frame).to_vec();
                for port in ports {
                    self.want[port].push(frame.clone());
                }
            }
            oracle.tick();
            tally.interp_ns += started.elapsed().as_nanos() as u64;
            // The oracle is the authority on how many frames come out. The
            // replay sets learn it; a generator that states its own
            // expectation must have stated the same.
            let delivered = self.want.iter().map(Vec::len).sum::<usize>() as u32;
            self.traffic.learn(&meta, delivered);
            if !matches!(self.traffic, Traffic::Replay(_)) {
                tally.mismatched += u64::from(delivered.abs_diff(meta.expected));
            }
            meta.expected = delivered;
            watch.resume(speed);
        }
        let offered = self.burst.len() as u64;
        let result = lap(&mut self.sut, &mut self.burst, meta.in_port, &mut NoTrace);
        watch.pause(speed);
        if checked {
            for (got, want) in self.sut.wire().iter().zip(&mut self.want) {
                tally.compared += want.len().max(got.len()) as u64;
                tally.mismatched += got.len().abs_diff(want.len()) as u64
                    + got.iter().zip(want.iter()).filter(|(g, w)| g != w).count() as u64;
                want.clear();
            }
        }
        self.settle(&meta, offered, result.delivered, tally);
        watch.resume(speed);
    }

    /// Per-lap check and clean-up shared by timed and untimed laps.
    fn settle(&mut self, meta: &BurstMeta, offered: u64, delivered: u32, tally: &mut Tally) {
        tally.attempted += offered;
        tally.failed += u64::from(delivered.abs_diff(meta.expected))
            + u64::from(self.traffic.observe(meta, self.sut.wire()));
        self.sut.recycle();
    }
}

/// Builds the workload from `seed` and brings it to steady state. Returns
/// the reference-clock seconds that took, not counting the oracle's own work.
fn setup(
    workload: Workload,
    seed: u64,
    with_oracle: bool,
    speed: &mut Speed,
    tally: &mut Tally,
) -> (Instance, f64) {
    speed.refresh();
    let mut watch = Stopwatch::start(speed);
    let mut instance = Instance::new(workload, seed);
    speed.refresh();
    watch.pause(speed);
    let mut oracle = with_oracle.then(|| Oracle::new(&instance.blueprint));
    watch.resume(speed);
    for _ in 0..instance.traffic.warmup_laps() {
        instance.checked_lap(oracle.as_mut(), &mut watch, speed, tally);
    }
    let seconds = watch.seconds(speed);
    if let (Some(oracle), Traffic::Updates(_)) = (&mut oracle, &instance.traffic) {
        let mut unused = Stopwatch::start(speed);
        for _ in 0..CHECKED_CYCLES {
            let Traffic::Updates(updates) = &mut instance.traffic else {
                unreachable!()
            };
            let (user, add) = updates.next_update();
            for fm in sut::gateway_user_flow_mods(user, add) {
                tally.update_errors += u64::from(instance.sut.flow_mod(&fm) != 1);
                oracle.flow_mod(&fm);
            }
            for _ in 0..LAPS_PER_CYCLE {
                instance.checked_lap(Some(oracle), &mut unused, speed, tally);
            }
        }
    }
    (instance, seconds)
}

/// Units per block of the gated estimates (see `stats::Blocks`): laps, and
/// update cycles, of which a window holds far fewer.
const LAPS_PER_BLOCK: usize = 512;
const CYCLES_PER_BLOCK: usize = 64;

/// Timed-unit samples of one mode (traced or not).
struct Samples {
    /// Every lap, for `lap_us_p90`.
    lap: Blocks,
    /// The unit `fwd_mpps` counts: laps of the workload's main burst kind,
    /// or update cycles.
    unit: Blocks,
    /// Every lap again, pooled, for the far quantiles.
    all_laps: Histogram,
    /// Laps as the wall clock saw them, before scaling to the reference clock.
    raw_lap: Histogram,
    by_kind: [Histogram; 4],
    flow_mod: Histogram,
    first_lap: Histogram,
    packets: u64,
}

impl Samples {
    fn new(workload: Workload) -> Samples {
        let per_unit_block = if workload.is_updates() {
            CYCLES_PER_BLOCK
        } else {
            LAPS_PER_BLOCK
        };
        Samples {
            lap: Blocks::new(LAPS_PER_BLOCK),
            unit: Blocks::new(per_unit_block),
            all_laps: Histogram::default(),
            raw_lap: Histogram::default(),
            by_kind: Default::default(),
            flow_mod: Histogram::default(),
            first_lap: Histogram::default(),
            packets: 0,
        }
    }
}

/// Everything the measuring window produced, over all measured instances.
struct Measurement {
    plain: Samples,
    traced: Samples,
    ledger: Ledger,
    wall_s: f64,
    units: u64,
    laps: u64,
    /// Sum and count of the clock-meter factors sampled in the window.
    factors: (f64, u64),
    /// Counters of each measured instance, before and after its share.
    ovs: Vec<(OvsCounters, OvsCounters)>,
    ct: Vec<(CtCounters, CtCounters)>,
    updates: Vec<(UpdateCounters, UpdateCounters)>,
}

impl Measurement {
    fn new(workload: Workload) -> Measurement {
        Measurement {
            plain: Samples::new(workload),
            traced: Samples::new(workload),
            ledger: Ledger::default(),
            wall_s: 0.0,
            units: 0,
            laps: 0,
            factors: (0.0, 0),
            ovs: Vec::new(),
            ct: Vec::new(),
            updates: Vec::new(),
        }
    }
}

/// Measures `instance` for one of `shares` equal parts of the window.
fn measure(
    instance: &mut Instance,
    opts: &Options,
    shares: usize,
    speed: &mut Speed,
    tally: &mut Tally,
    m: &mut Measurement,
) {
    let ovs_before = instance.sut.ovs_counters();
    let ct_before = instance.sut.ct_counters();
    let updates_before = instance.sut.update_counters();
    let mut flow_mods = 0u64;
    let primary = opts.workload.main_kind();
    let mut stamps = LapStamps::new();
    let started = Instant::now();
    let window = Duration::from_secs_f64(opts.seconds / shares as f64);
    let mut sampled = Duration::ZERO;
    speed.refresh();
    loop {
        let elapsed = started.elapsed();
        if elapsed >= window {
            break;
        }
        if elapsed - sampled >= SPEED_SAMPLE_EVERY {
            speed.sample();
            sampled = elapsed;
            m.factors.0 += speed.factor();
            m.factors.1 += 1;
        }
        // Reference-clock nanoseconds of a span measured now.
        let factor = speed.factor();
        let scaled = |nanos: u64| (nanos as f64 * factor).round() as u64;
        let traced = opts.trace && (m.units / BLOCK) % 2 == 1;
        let samples = if traced { &mut m.traced } else { &mut m.plain };
        let mut cycle_ns = 0u64;
        let mut laps = 1;
        if let Traffic::Updates(updates) = &mut instance.traffic {
            laps = LAPS_PER_CYCLE;
            let (user, add) = updates.next_update();
            for fm in sut::gateway_user_flow_mods(user, add) {
                let mod_start = Instant::now();
                let touched = instance.sut.flow_mod(&fm);
                let nanos = scaled(mod_start.elapsed().as_nanos() as u64);
                samples.flow_mod.record(nanos);
                cycle_ns += nanos;
                flow_mods += 1;
                tally.update_errors += u64::from(touched != 1);
                if traced {
                    m.ledger.record_flow_mod(m.units, mod_start, nanos);
                }
            }
        }
        for i in 0..laps {
            let meta = instance.traffic.next(&mut instance.burst);
            let offered = instance.burst.len();
            let allocations = stats::allocations();
            let (sut, burst) = (&mut instance.sut, &mut instance.burst);
            let result = if traced {
                lap(sut, burst, meta.in_port, &mut stamps)
            } else {
                lap(sut, burst, meta.in_port, &mut NoTrace)
            };
            if traced {
                m.ledger.allocations += stats::allocations() - allocations;
                m.ledger.packets += offered as u64;
                let (id, unit) = (m.laps, m.units);
                m.ledger
                    .record_lap(id, unit, meta.kind, offered, result.nanos, &stamps, factor);
            }
            let nanos = scaled(result.nanos);
            samples.raw_lap.record(result.nanos);
            samples.lap.record(nanos);
            samples.all_laps.record(nanos);
            samples.by_kind[meta.kind as usize].record(nanos);
            if laps == 1 && meta.kind == primary {
                samples.unit.record(nanos);
            }
            if i == 0 && laps > 1 {
                samples.first_lap.record(nanos);
            }
            samples.packets += offered as u64;
            cycle_ns += nanos;
            m.laps += 1;
            instance.settle(&meta, offered as u64, result.delivered, tally);
        }
        if laps > 1 {
            samples.unit.record(cycle_ns);
        }
        m.units += 1;
    }
    m.wall_s += started.elapsed().as_secs_f64();

    let name = opts.workload.name();
    if let (Some(before), Some(after)) = (ovs_before, instance.sut.ovs_counters()) {
        m.ovs.push((before, after));
    }
    if let (Some(before), Some(after)) = (ct_before, instance.sut.ct_counters()) {
        if !after.identity_holds {
            eprintln!("benchmark: {name}: ct identity broken: {after:?}");
            tally.state_errors += 1;
        }
        m.ct.push((before, after));
    }
    if let (Some(before), Some(after)) = (updates_before, instance.sut.update_counters()) {
        let published = after.total() - before.total();
        if published != flow_mods {
            eprintln!("benchmark: {name}: {flow_mods} flow-mods published {published} updates");
            tally.state_errors += 1;
        }
        m.updates.push((before, after));
    }
}

/// Median reference-clock nanoseconds per call of `op` over the frames, from
/// 64 passes.
fn side_probe(frames: &[Frame], speed: &mut Speed, op: fn(&Frame)) -> f64 {
    let passes: Vec<f64> = (0..64)
        .map(|_| {
            speed.sample();
            let started = Instant::now();
            frames.iter().for_each(op);
            started.elapsed().as_nanos() as f64 * speed.factor() / frames.len() as f64
        })
        .collect();
    stats::median(&passes)
}

/// What one cumulative counter grew by, summed over the measured instances'
/// `(before, after)` readings.
fn grown<T>(readings: &[(T, T)], field: fn(&T) -> u64) -> f64 {
    let each = readings
        .iter()
        .map(|(before, after)| field(after) - field(before));
    each.sum::<u64>() as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The closed-loop probe through the real threaded runtime, on the three
/// workloads that have one.
fn runtime_probe(instance: &Instance, opts: &Options) -> Option<RuntimeProbe> {
    let duration = Duration::from_secs_f64(opts.seconds / 4.0);
    match opts.workload {
        Workload::L2Min => {
            let (one_port, frames) =
                sut::l2_inputs(opts.seed, workload::L2_TABLE, 1, workload::L2_FLOWS);
            Some(sut::probe_multiport(&one_port, &frames, duration))
        }
        Workload::SnatChurn => {
            let frames = instance.traffic.sample_frames(32);
            Some(sut::probe_sharded(
                &instance.blueprint,
                &[],
                &frames,
                duration,
            ))
        }
        Workload::UpdatesEs => {
            let frames = instance.traffic.sample_frames(usize::MAX);
            let Traffic::Updates(updates) = &instance.traffic else {
                unreachable!()
            };
            // Remove and re-add each of the first users in turn, so the list
            // can be applied round and round.
            let flow_mods: Vec<_> = updates
                .scheduled_users()
                .iter()
                .take(16)
                .flat_map(|&user| [(user, false), (user, true)])
                .flat_map(|(user, add)| sut::gateway_user_flow_mods(usize::from(user), add))
                .collect();
            Some(sut::probe_sharded(
                &instance.blueprint,
                &flow_mods,
                &frames,
                duration,
            ))
        }
        _ => None,
    }
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    values.iter().for_each(|&v| h.record(v));
    h
}

pub fn run(opts: &Options) -> Outcome {
    let jiffies = stats::cpu_jiffies();
    let mut tally = Tally::default();
    let mut speed = Speed::new();
    let mut m = Measurement::new(opts.workload);
    let mut setups = if opts.smoke { 1 } else { MIN_SETUPS };
    let mut setup_seconds = Vec::new();
    let mut instance = None;
    while setup_seconds.len() < setups {
        drop(instance.take());
        // The last set-ups each get an equal share of the measuring window.
        let shares = MEASURED_SETUPS.min(setups);
        let measured = setup_seconds.len() + shares >= setups;
        let (mut built, seconds) =
            setup(opts.workload, opts.seed, measured, &mut speed, &mut tally);
        if setup_seconds.is_empty() && !opts.smoke {
            setups = ((SETUP_BUDGET_S / seconds) as usize).clamp(MIN_SETUPS, MAX_SETUPS);
        }
        setup_seconds.push(seconds);
        if measured {
            measure(&mut built, opts, shares, &mut speed, &mut tally, &mut m);
        }
        instance = Some(built);
    }
    let instance = instance.expect("at least one set-up");
    let setup_s = stats::median(&setup_seconds);

    let primary = opts.workload.main_kind();
    let updates = opts.workload.is_updates();
    let unit_packets = if updates {
        LAPS_PER_CYCLE * BURST
    } else {
        BURST
    };
    let plain = &m.plain;
    let name = opts.workload.name();
    let wanted_laps = WANTED_LAPS_PER_SECOND * opts.seconds * if opts.trace { 0.5 } else { 1.0 };
    let laps = plain.lap.samples() as f64;
    if !opts.smoke && laps < wanted_laps {
        eprintln!("benchmark: {name}: only {laps} timed laps, {wanted_laps} wanted");
    }
    let checks = [
        (
            tally.failed == 0,
            format!(
                "{} of {} packets lost or wrong",
                tally.failed, tally.attempted
            ),
        ),
        (
            tally.mismatched == 0 && tally.compared > 0,
            format!(
                "{} of {} frames differ from the oracle",
                tally.mismatched, tally.compared
            ),
        ),
        (
            tally.update_errors == 0,
            format!(
                "{} flow-mods did not touch exactly one entry",
                tally.update_errors
            ),
        ),
        (tally.state_errors == 0, "a state check failed".to_string()),
        (
            opts.smoke || laps >= wanted_laps / 10.0,
            format!("{laps} timed laps, fewer than a tenth of the {wanted_laps} wanted"),
        ),
    ];
    for (_, what) in checks.iter().filter(|(ok, _)| !ok) {
        eprintln!("benchmark: {name}: {what}");
    }
    let correct = checks.iter().all(|(ok, _)| *ok);

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut trace = None;
    if !opts.trace {
        metrics.push((
            "fwd_mpps",
            ratio(unit_packets as f64 * 1e3, plain.unit.p50()),
        ));
        metrics.push(("lap_us_p90", plain.lap.p90() / 1e3));
        metrics.push(("setup_s", setup_s));
        metrics.push(("mem_mib", stats::peak_rss_mib()));
    } else {
        let ledger = &m.ledger;
        // The ledger of the workload's main burst kind; the other kinds only
        // give their datapath stage (`conntrack.new_ns`, `.close_ns`).
        let per_packet = |stage| ledger.stage_ns_per_packet(primary, stage, BURST);
        let process_ns = per_packet(Stage::Process);
        let es = opts.workload.backend() == sut::BackendKind::Eswitch;
        let interp_ns = ratio(tally.interp_ns as f64, tally.compared as f64);
        let facts = instance.sut.facts().clone();
        metrics.extend([
            (
                "conn_setup_kcps",
                ratio(
                    BURST as f64 * 1e6,
                    plain.by_kind[Kind::New as usize].quantile(0.5),
                ),
            ),
            ("flowmod_us_p50", plain.flow_mod.quantile(0.5) / 1e3),
            (
                "loss_share",
                ratio(tally.failed as f64, tally.attempted as f64),
            ),
            ("netdev.port.inject_ns", per_packet(Stage::Inject)),
            ("netdev.port.rx_ns", per_packet(Stage::Rx)),
            ("netdev.port.tx_ns", per_packet(Stage::Tx)),
            ("netdev.port.drain_ns", per_packet(Stage::Drain)),
            ("netdev.ring.push_ns", per_packet(Stage::Push)),
            ("netdev.ring.pop_ns", per_packet(Stage::Pop)),
            ("netdev.classify_ns", per_packet(Stage::Classify)),
            ("netdev.port.tx_drops", instance.sut.tx_drops() as f64),
            ("shard.rss_ns", per_packet(Stage::Rss)),
            ("core.process_ns", if es { process_ns } else { 0.0 }),
            ("core.compile_s", if es { facts.compile_s } else { 0.0 }),
            ("core.mem_mib", facts.mem_mib),
            ("core.templates.direct", facts.templates[0] as f64),
            ("core.templates.hash", facts.templates[1] as f64),
            ("core.templates.lpm", facts.templates[2] as f64),
            ("core.templates.linked_list", facts.templates[3] as f64),
            ("core.model_ns", facts.model_ns),
            ("openflow.interp_ns", interp_ns),
            (
                "core.speedup_vs_interp",
                if es {
                    ratio(interp_ns, process_ns)
                } else {
                    0.0
                },
            ),
            ("ovsdp.process_ns", if es { 0.0 } else { process_ns }),
            ("conntrack.tick_ns", per_packet(Stage::Tick)),
            ("harness.route_ns", per_packet(Stage::Route)),
            ("lap.us_p50", plain.all_laps.quantile(0.5) / 1e3),
            ("lap.us_p99", plain.all_laps.quantile(0.99) / 1e3),
            ("lap.us_p999", plain.all_laps.quantile(0.999) / 1e3),
            ("lap.samples", laps),
            ("lap.traced_samples", m.traced.all_laps.samples() as f64),
            ("lap.raw_us_p50", plain.raw_lap.quantile(0.5) / 1e3),
            (
                "lap.coverage",
                ratio(
                    ledger.stage_sum_ns(primary),
                    m.traced.by_kind[primary as usize].quantile(0.5),
                ),
            ),
            (
                "lap.allocs_per_pkt",
                ratio(ledger.allocations as f64, ledger.packets as f64),
            ),
            (
                "trace.overhead_share",
                ratio(
                    m.traced.all_laps.quantile(0.5),
                    plain.all_laps.quantile(0.5),
                ) - 1.0,
            ),
            ("host.nproc", stats::nproc() as f64),
            (
                "host.clock_ghz",
                stats::REFERENCE_HZ / 1e9 * ratio(m.factors.0, m.factors.1 as f64),
            ),
            ("host.steal_share", stats::steal_share(jiffies)),
            (
                "wall_mpps",
                ratio((plain.packets + m.traced.packets) as f64 / 1e6, m.wall_s),
            ),
        ]);
        if let Some((_, last)) = m.ovs.last() {
            let sum = |field| grown(&m.ovs, field);
            let (micro, mega, slow) = (
                sum(|c| c.microflow),
                sum(|c| c.megaflow),
                sum(|c| c.slowpath),
            );
            let total = micro + mega + slow;
            metrics.extend([
                ("ovsdp.hit_share.microflow", ratio(micro, total)),
                ("ovsdp.hit_share.megaflow", ratio(mega, total)),
                ("ovsdp.hit_share.slowpath", ratio(slow, total)),
                ("ovsdp.megaflow_entries", last.megaflow_entries as f64),
                ("ovsdp.microflow_entries", last.microflow_entries as f64),
            ]);
            if updates {
                let cycles = plain.unit.samples() + m.traced.unit.samples();
                metrics.push((
                    "ovsdp.update.slowpath_per_cycle",
                    ratio(slow, cycles as f64),
                ));
            }
        }
        if let Some((_, last)) = m.ct.last() {
            let sum = |field| grown(&m.ct, field);
            let (hits, created) = (sum(|c| c.hits), sum(|c| c.created));
            let by_kind = |kind| ledger.stage_ns_per_packet(kind, Stage::Process, BURST);
            metrics.extend([
                ("conntrack.new_ns", by_kind(Kind::New)),
                ("conntrack.est_ns", by_kind(Kind::Est)),
                ("conntrack.close_ns", by_kind(Kind::Close)),
                ("conntrack.live", last.live as f64),
                ("conntrack.created", created),
                ("conntrack.evicted_idle", sum(|c| c.evicted_idle)),
                ("conntrack.evicted_capacity", sum(|c| c.evicted_capacity)),
                ("conntrack.refused", sum(|c| c.refused)),
                ("conntrack.teardown", sum(|c| c.teardown)),
                (
                    "conntrack.hit_share",
                    ratio(hits, hits + created + sum(|c| c.denied)),
                ),
                ("conntrack.mem_mib", last.mem_mib),
            ]);
        }
        if updates {
            let p99 = plain.flow_mod.quantile(0.99) / 1e3;
            let first = plain.first_lap.quantile(0.5) / BURST as f64;
            if es {
                metrics.extend([
                    ("core.update.flowmod_us_p99", p99),
                    ("core.update.first_lap_ns", first),
                ]);
            } else {
                metrics.extend([
                    ("ovsdp.update.flowmod_us_p99", p99),
                    ("ovsdp.update.first_lap_ns", first),
                ]);
            }
        }
        if !m.updates.is_empty() {
            let sum = |field| grown(&m.updates, field);
            metrics.extend([
                ("core.update.incremental", sum(|c| c.incremental)),
                ("core.update.per_table", sum(|c| c.per_table)),
                ("core.update.full", sum(|c| c.full)),
            ]);
        }
        let frames = instance.traffic.sample_frames(32);
        metrics.extend([
            (
                "packet.parse_ns",
                side_probe(&frames, &mut speed, sut::parse_frame),
            ),
            (
                "packet.clone_ns",
                side_probe(&frames, &mut speed, sut::clone_frame),
            ),
            (
                "packet.from_bytes_ns",
                side_probe(&frames, &mut speed, sut::frame_from_bytes),
            ),
        ]);
        trace = Some(ledger.to_json(name, opts.seed));
        speed.refresh();
        let factor_before = speed.factor();
        let probe = if opts.smoke {
            None
        } else {
            runtime_probe(&instance, opts)
        };
        if let Some(probe) = probe {
            // This thread's clock stands in for the worker's: layer numbers
            // only, scaled so they sit beside the lap's.
            speed.refresh();
            let factor = (factor_before + speed.factor()) / 2.0;
            let measurable = probe.threads <= stats::nproc() && stats::steal_share(jiffies) <= 0.05;
            metrics.extend([
                (
                    "shard.runtime.window_us_p50",
                    histogram_of(&probe.window_ns).quantile(0.5) * factor / 1e3,
                ),
                ("shard.runtime.busy_ns", probe.busy_ns_per_packet * factor),
                (
                    "shard.runtime.ring_high_water",
                    probe.ring_high_water as f64,
                ),
                (
                    "shard.runtime.egress_frames_per_flush",
                    probe.egress_frames_per_flush,
                ),
                ("shard.runtime.lost", probe.lost as f64),
                (
                    "shard.control.flowmod_us_p50",
                    histogram_of(&probe.flowmod_ns).quantile(0.5) * factor / 1e3,
                ),
                ("shard.runtime.measurable", f64::from(u8::from(measurable))),
                ("shard.runtime.windows", probe.window_ns.len() as f64),
            ]);
        }
    }
    Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed + tally.mismatched + tally.update_errors + tally.state_errors,
        metrics,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(outcome: &Outcome, name: &str) -> f64 {
        let found = outcome.metrics.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("{name} not reported")).1
    }

    fn smoke(workload: Workload, seconds: f64) -> Outcome {
        run(&Options {
            workload,
            seed: 5,
            seconds,
            trace: true,
            smoke: true,
        })
    }

    /// The negative test: one corrupted verdict must show up both as a frame
    /// that differs from the oracle and as a lost packet.
    #[test]
    fn a_corrupted_verdict_is_caught() {
        let mut speed = Speed::new();
        let mut tally = Tally::default();
        let (mut instance, _) = setup(Workload::L2Min, 9, true, &mut speed, &mut tally);
        assert!(tally.compared > 0 && tally.attempted > 0);
        assert_eq!(
            (tally.mismatched, tally.failed),
            (0, 0),
            "clean laps are clean"
        );

        let mut oracle = Oracle::new(&instance.blueprint);
        let mut watch = Stopwatch::start(&speed);
        instance.sut.corrupt_next = Some(3);
        instance.checked_lap(Some(&mut oracle), &mut watch, &mut speed, &mut tally);
        // The missing frame, plus every later frame of that port out of place.
        assert!(tally.mismatched >= 1, "the oracle sees the missing frame");
        assert_eq!(tally.failed, 1, "the per-lap count sees the lost packet");
        assert!(
            tally.failed as f64 / tally.attempted as f64 > 0.0,
            "loss_share rises"
        );

        // The timed path's own check (count only) catches it too.
        let before = tally.failed;
        instance.sut.corrupt_next = Some(0);
        let opts = Options {
            workload: Workload::L2Min,
            seed: 9,
            seconds: 0.05,
            trace: false,
            smoke: true,
        };
        let mut m = Measurement::new(opts.workload);
        measure(&mut instance, &opts, 1, &mut speed, &mut tally, &mut m);
        assert_eq!(tally.failed, before + 1);
        assert!(m.plain.lap.samples() > 0);
    }

    #[test]
    fn stage_spans_cover_the_lap() {
        let outcome = smoke(Workload::L2Min, 1.0);
        assert!(outcome.correct);
        let coverage = metric(&outcome, "lap.coverage");
        assert!(
            (0.95..=1.05).contains(&coverage),
            "lap.coverage = {coverage}"
        );
        assert!(metric(&outcome, "lap.traced_samples") > 1_000.0);
        assert_eq!(metric(&outcome, "loss_share"), 0.0);
        let trace = outcome.trace.expect("a traced run keeps spans");
        assert!(trace.contains("\"name\":\"netdev.ring.push\""));
    }

    #[test]
    fn churn_holds_the_engine_near_its_live_target() {
        let outcome = smoke(Workload::SnatChurn, 0.5);
        assert!(
            outcome.correct,
            "oracle, NAT address and ct identity checks pass"
        );
        let live = metric(&outcome, "conntrack.live");
        let target = workload::SNAT_LIVE as f64;
        assert!(
            (live - target).abs() <= 0.1 * target,
            "{live} live, {target} wanted"
        );
        assert!(metric(&outcome, "conntrack.created") > 0.0);
        assert_eq!(metric(&outcome, "conntrack.evicted_capacity"), 0.0);
    }

    #[test]
    fn every_update_cycle_publishes_one_update_per_flow_mod() {
        for workload in [Workload::UpdatesEs, Workload::UpdatesOvs] {
            let outcome = smoke(workload, 0.3);
            assert!(outcome.correct, "{}", workload.name());
            assert!(metric(&outcome, "flowmod_us_p50") > 0.0);
        }
        // ESWITCH absorbs user rules in place: no rebuild, no recompile.
        let es = smoke(Workload::UpdatesEs, 0.3);
        assert!(metric(&es, "core.update.incremental") > 0.0);
        assert_eq!(metric(&es, "core.update.full"), 0.0);
    }
}
