//! The timed unit: one run-to-completion lap of a 32-packet burst, wire to
//! wire, and the spans a traced lap records at every stage boundary.
//!
//! Traced and untraced laps run the same code; tracing only adds one clock
//! read per boundary. Stage spans share their boundaries, so their sum is the
//! lap up to its last stamp and a lap's self time is that last stamp's cost.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Histogram;
use crate::sut::{Frame, Sut};
use crate::workload::Kind;

/// The stages of a lap, in order. Names are `<crate>.<thing>`; `harness.route`
/// is the benchmark's own verdict-to-port staging, not product code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Inject,
    Rx,
    Classify,
    Rss,
    Push,
    Pop,
    Process,
    Tick,
    Route,
    Tx,
    Drain,
}

impl Stage {
    pub const ALL: [Stage; 11] = [
        Stage::Inject,
        Stage::Rx,
        Stage::Classify,
        Stage::Rss,
        Stage::Push,
        Stage::Pop,
        Stage::Process,
        Stage::Tick,
        Stage::Route,
        Stage::Tx,
        Stage::Drain,
    ];

    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Inject => "netdev.port.inject",
            Stage::Rx => "netdev.port.rx",
            Stage::Classify => "netdev.classify",
            Stage::Rss => "shard.rss",
            Stage::Push => "netdev.ring.push",
            Stage::Pop => "netdev.ring.pop",
            Stage::Process => "datapath.process",
            Stage::Tick => "conntrack.tick",
            Stage::Route => "harness.route",
            Stage::Tx => "netdev.port.tx",
            Stage::Drain => "netdev.port.drain",
        }
    }
}

/// Receives one call per stage boundary.
pub trait Tracer {
    fn begin(&mut self, start: Instant);
    fn stamp(&mut self, stage: Stage, packets_out: usize);
}

/// The untraced run: boundaries cost nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _start: Instant) {}
    #[inline(always)]
    fn stamp(&mut self, _stage: Stage, _packets_out: usize) {}
}

/// One lap's stage boundaries.
#[derive(Clone, Copy)]
pub struct LapStamps {
    start: Instant,
    end: [Instant; Stage::ALL.len()],
    packets_out: [u16; Stage::ALL.len()],
}

impl LapStamps {
    pub fn new() -> LapStamps {
        let now = Instant::now();
        LapStamps {
            start: now,
            end: [now; Stage::ALL.len()],
            packets_out: [0; Stage::ALL.len()],
        }
    }

    /// Nanoseconds spent in `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        let index = stage as usize;
        let from = if index == 0 {
            self.start
        } else {
            self.end[index - 1]
        };
        self.end[index].duration_since(from).as_nanos() as u64
    }
}

impl Tracer for LapStamps {
    #[inline(always)]
    fn begin(&mut self, start: Instant) {
        self.start = start;
    }
    #[inline(always)]
    fn stamp(&mut self, stage: Stage, packets_out: usize) {
        self.end[stage as usize] = Instant::now();
        self.packets_out[stage as usize] = packets_out as u16;
    }
}

pub struct LapResult {
    pub nanos: u64,
    pub delivered: u32,
}

/// Drives one burst through every layer, from the wire into `in_port` to the
/// wire out of the egress ports. `burst` is left empty; what came out waits
/// in `Sut::wire` until `Sut::recycle`.
#[inline]
pub fn lap<T: Tracer>(
    sut: &mut Sut,
    burst: &mut Vec<Frame>,
    in_port: u32,
    tracer: &mut T,
) -> LapResult {
    let start = Instant::now();
    tracer.begin(start);
    let n = sut.inject(in_port, burst);
    tracer.stamp(Stage::Inject, n);
    let n = sut.rx(in_port);
    tracer.stamp(Stage::Rx, n);
    let n = sut.classify(in_port);
    tracer.stamp(Stage::Classify, n);
    let n = sut.rss();
    tracer.stamp(Stage::Rss, n);
    let n = sut.ring_push();
    tracer.stamp(Stage::Push, n);
    let n = sut.ring_pop();
    tracer.stamp(Stage::Pop, n);
    let n = sut.process();
    tracer.stamp(Stage::Process, n);
    sut.tick();
    tracer.stamp(Stage::Tick, n);
    let n = sut.route();
    tracer.stamp(Stage::Route, n);
    let n = sut.tx();
    tracer.stamp(Stage::Tx, n);
    let delivered = sut.drain();
    tracer.stamp(Stage::Drain, delivered);
    LapResult {
        nanos: start.elapsed().as_nanos() as u64,
        delivered: delivered as u32,
    }
}

/// Laps whose spans are kept for the trace file; later laps only feed the
/// stage histograms.
const KEPT_LAPS: usize = 1_024;

struct KeptLap {
    id: u64,
    cycle: u64,
    kind: Kind,
    offered: u16,
    nanos: u64,
    stamps: LapStamps,
}

struct KeptFlowMod {
    cycle: u64,
    start: Instant,
    nanos: u64,
}

/// Per-stage histograms over every traced lap, by burst kind, plus the first
/// laps' spans in pre-sized memory.
pub struct Ledger {
    origin: Instant,
    /// `stage[kind][stage]`.
    stage: Vec<Vec<Histogram>>,
    kept: Vec<KeptLap>,
    kept_mods: Vec<KeptFlowMod>,
    pub allocations: u64,
    pub packets: u64,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            origin: Instant::now(),
            stage: Kind::ALL
                .iter()
                .map(|_| Stage::ALL.iter().map(|_| Histogram::default()).collect())
                .collect(),
            kept: Vec::with_capacity(KEPT_LAPS),
            kept_mods: Vec::with_capacity(KEPT_LAPS),
            allocations: 0,
            packets: 0,
        }
    }
}

impl Ledger {
    /// Records one traced lap. The histograms take stage times scaled by
    /// `factor` to the reference clock; the kept spans stay as measured.
    #[allow(clippy::too_many_arguments)]
    pub fn record_lap(
        &mut self,
        id: u64,
        cycle: u64,
        kind: Kind,
        offered: usize,
        nanos: u64,
        stamps: &LapStamps,
        factor: f64,
    ) {
        for stage in Stage::ALL {
            let scaled = (stamps.stage_ns(stage) as f64 * factor).round() as u64;
            self.stage[kind as usize][stage as usize].record(scaled);
        }
        if self.kept.len() < KEPT_LAPS {
            self.kept.push(KeptLap {
                id,
                cycle,
                kind,
                offered: offered as u16,
                nanos,
                stamps: *stamps,
            });
        }
    }

    pub fn record_flow_mod(&mut self, cycle: u64, start: Instant, nanos: u64) {
        if self.kept_mods.len() < KEPT_LAPS {
            self.kept_mods.push(KeptFlowMod {
                cycle,
                start,
                nanos,
            });
        }
    }

    /// Median nanoseconds per packet of `stage` on `kind` bursts.
    pub fn stage_ns_per_packet(&self, kind: Kind, stage: Stage, burst: usize) -> f64 {
        self.stage[kind as usize][stage as usize].quantile(0.5) / burst as f64
    }

    /// Sum of the stage medians of `kind` bursts, nanoseconds per lap.
    pub fn stage_sum_ns(&self, kind: Kind) -> f64 {
        self.stage[kind as usize]
            .iter()
            .map(|h| h.quantile(0.5))
            .sum()
    }

    /// The kept spans as JSON: one `lap` span per lap and one child span per
    /// stage, sharing the lap id; flow-mods are children of their cycle.
    /// Times are nanoseconds since the ledger was created.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let since = |t: Instant| t.duration_since(self.origin).as_nanos();
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":[\n"
        );
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
        };
        for m in &self.kept_mods {
            sep(&mut out);
            let start = since(m.start);
            let _ = write!(
                out,
                "{{\"name\":\"flow_mod\",\"cycle\":{},\"parent\":\"cycle\",\"start\":{start},\"end\":{}}}",
                m.cycle,
                start + u128::from(m.nanos)
            );
        }
        for lap in &self.kept {
            sep(&mut out);
            let start = since(lap.stamps.start);
            let _ = write!(
                out,
                "{{\"name\":\"lap\",\"lap\":{},\"cycle\":{},\"kind\":\"{}\",\"parent\":null,\"start\":{start},\"end\":{},\"packets_in\":{},\"packets_out\":{}}}",
                lap.id,
                lap.cycle,
                lap.kind.name(),
                start + u128::from(lap.nanos),
                lap.offered,
                lap.stamps.packets_out[Stage::Drain as usize]
            );
            let mut packets_in = lap.offered;
            let mut from = lap.stamps.start;
            for stage in Stage::ALL {
                let index = stage as usize;
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"lap\":{},\"kind\":\"{}\",\"parent\":\"lap\",\"start\":{},\"end\":{},\"packets_in\":{packets_in},\"packets_out\":{}}}",
                    stage.span_name(),
                    lap.id,
                    lap.kind.name(),
                    since(from),
                    since(lap.stamps.end[index]),
                    lap.stamps.packets_out[index]
                );
                packets_in = lap.stamps.packets_out[index];
                from = lap.stamps.end[index];
            }
        }
        out.push_str("\n]}\n");
        out
    }
}
