//! The estimator and the host probes.
//!
//! Every timing the benchmark reports is a quantile of many short timed
//! units, read from a fixed-size log-bucket [`Histogram`]: recording is one
//! array increment, nothing is allocated while measuring, and memory does
//! not depend on how many units the host managed to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket bits: values below `2^(SUB_BITS+1)` ns are exact, larger ones
/// are binned with relative width `2^-SUB_BITS` (0.8 %) and interpolated.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values are clamped to `2^MAX_BITS` ns (~69 s).
const MAX_BITS: u32 = 36;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS) as usize + 1) << SUB_BITS;

/// A log-bucket histogram of nanosecond durations.
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        let v = value.min((1 << MAX_BITS) - 1);
        if v < 2 * SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
    }

    /// Lower edge and width of bucket `index`.
    fn bounds(index: usize) -> (f64, f64) {
        if index < 2 * SUB {
            return (index as f64, 1.0);
        }
        let shift = (index >> SUB_BITS) - 1;
        let low = ((SUB + (index & (SUB - 1))) as u64) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated inside
    /// the bucket that holds the rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (before + u64::from(count)) as f64 {
                let (low, width) = Self::bounds(index);
                let inside = (rank - before as f64 + 0.5) / f64::from(count);
                return low + width * inside;
            }
            before += u64::from(count);
        }
        unreachable!("rank below the total always lands in a bucket")
    }
}

/// Timed units in blocks of consecutive ones. Each full block gives its own
/// median and p90; the estimate is the **lowest percentile over the blocks**.
///
/// Everything that disturbs this class of host makes units slower, never
/// faster, and it comes and goes: a neighbour thrashing the shared cache
/// lifted the p90 of a quarter to nine tenths of the one-second stretches of
/// `gateway_es` runs by 25 to 40 %, and in one run in eight left under 2 % of
/// the blocks alone, while the undisturbed blocks of every run agreed within
/// 2 %. A quantile over the whole window follows the neighbour; so does a
/// median over sub-windows once more than half are hit, and a lowest decile
/// once nine tenths are. The best sustained blocks do not: on that run the
/// lowest percentile read 5 % high where the lowest decile read 25 % high.
/// A block is a few hundred units — ten to a hundred milliseconds — so a
/// product effect on that scale or below is inside every block's quantiles;
/// what this cannot see is a product effect that comes and goes over seconds.
pub struct Blocks {
    len: usize,
    open: Vec<u32>,
    /// `(p50, p90)` of each full block, nanoseconds.
    closed: Vec<(f64, f64)>,
}

impl Blocks {
    pub fn new(len: usize) -> Blocks {
        Blocks {
            len,
            open: Vec::with_capacity(len),
            closed: Vec::new(),
        }
    }

    fn quantiles_of(sorted: &[u32]) -> (f64, f64) {
        let at = |q: f64| f64::from(sorted[((sorted.len() - 1) as f64 * q).round() as usize]);
        (at(0.5), at(0.9))
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.open.push(nanos.min(u64::from(u32::MAX)) as u32);
        if self.open.len() == self.len {
            self.open.sort_unstable();
            self.closed.push(Self::quantiles_of(&self.open));
            self.open.clear();
        }
    }

    pub fn samples(&self) -> u64 {
        (self.closed.len() * self.len + self.open.len()) as u64
    }

    /// Lowest percentile over the full blocks of `pick`'s quantile; of a run
    /// too short to fill one block, that quantile of what there is; 0 of
    /// nothing.
    fn lowest_percentile(&self, pick: fn(&(f64, f64)) -> f64) -> f64 {
        let mut each: Vec<f64> = self.closed.iter().map(pick).collect();
        if each.is_empty() {
            if self.open.is_empty() {
                return 0.0;
            }
            let mut sorted = self.open.clone();
            sorted.sort_unstable();
            return pick(&Self::quantiles_of(&sorted));
        }
        each.sort_by(f64::total_cmp);
        let position = (each.len() - 1) as f64 * 0.01;
        let below = position.floor() as usize;
        let above = (below + 1).min(each.len() - 1);
        each[below] + (each[above] - each[below]) * (position - below as f64)
    }

    pub fn p50(&self) -> f64 {
        self.lowest_percentile(|block| block.0)
    }

    pub fn p90(&self) -> f64 {
        self.lowest_percentile(|block| block.1)
    }
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// acceptance runs are judged with. One value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "quartiles of nothing");
    let at = |k: usize| {
        if n == 1 {
            return sorted[0];
        }
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The reference clock all reported times are scaled to: the paper's
/// Table 1 machine and `core::perfmodel`'s default, 2.0 GHz.
pub const REFERENCE_HZ: f64 = 2.0e9;
const CHAIN_WORDS: usize = 512;
const CHAIN_PASSES: usize = 4;
/// Core cycles one run of the chain takes: per word one `xor` (1 cycle) and
/// one 64-bit multiply (3 cycles) on the critical path, on every x86-64 core
/// of the last decade.
const CHAIN_CYCLES: f64 = (CHAIN_WORDS * CHAIN_PASSES * 4) as f64;

/// A core-clock meter. This class of host changes its core frequency in
/// steps of 5 to 27 % every few hundred milliseconds, which moves every lap
/// by as much; quantiles cannot remove that, a ratio can. The meter times a
/// fixed dependent multiply chain — latency-bound, so its cycle count does
/// not depend on code layout or on what else the core just ran — and the
/// timed units are multiplied by [`Speed::factor`], which turns nanoseconds
/// at the current clock into nanoseconds at [`REFERENCE_HZ`].
pub struct Speed {
    words: Vec<u64>,
    recent: [u64; 9],
    next: usize,
    factor: f64,
}

impl Speed {
    pub fn new() -> Speed {
        let mut speed = Speed {
            words: (0..CHAIN_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            recent: [0; 9],
            next: 0,
            factor: 1.0,
        };
        speed.refresh();
        speed.refresh();
        speed
    }

    #[inline(never)]
    fn chain(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..CHAIN_PASSES {
            for &word in &self.words {
                h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
        h
    }

    /// Times the chain once (~4 us) and refreshes the factor from the median
    /// of the last nine timings.
    pub fn sample(&mut self) {
        let started = std::time::Instant::now();
        std::hint::black_box(self.chain());
        self.recent[self.next % self.recent.len()] = started.elapsed().as_nanos() as u64;
        self.next += 1;
        let mut sorted = self.recent;
        sorted.sort_unstable();
        let chain_ns = sorted[sorted.len() / 2].max(1) as f64;
        self.factor = CHAIN_CYCLES / REFERENCE_HZ * 1e9 / chain_ns;
    }

    /// Five fresh samples: the factor afterwards describes the clock now,
    /// whatever ran since the last sample.
    pub fn refresh(&mut self) {
        for _ in 0..5 {
            self.sample();
        }
    }

    /// Reference-clock nanoseconds per measured nanosecond, now. Also the
    /// reference clock over the core's clock: below 1 when the core runs
    /// faster than [`REFERENCE_HZ`].
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter, so a traced lap can report
/// how many heap allocations the path made per packet.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative `(steal, total)` jiffies of the whole host from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time the hypervisor withheld since `before`.
pub fn steal_share(before: (u64, u64)) -> f64 {
    let (steal, total) = cpu_jiffies();
    let elapsed = total.saturating_sub(before.1);
    if elapsed == 0 {
        0.0
    } else {
        steal.saturating_sub(before.0) as f64 / elapsed as f64
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.samples(), 1000);
        // Ranks 499.5 and 899.1 of 1..=1000, interpolated in 2- and 4-wide
        // buckets.
        assert!((h.quantile(0.5) - 501.0).abs() < 2.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 900.6).abs() < 4.0, "{}", h.quantile(0.9));
        assert!(h.quantile(0.0) >= 1.0 && h.quantile(1.0) <= 1004.0);
        // Below 256 ns buckets are 1 ns wide.
        let mut small = Histogram::default();
        (1..=200u64).for_each(|v| small.record(v));
        assert!(
            (small.quantile(0.5) - 101.0).abs() <= 0.5,
            "{}",
            small.quantile(0.5)
        );
    }

    #[test]
    fn large_values_stay_within_the_bucket_width() {
        let mut h = Histogram::default();
        for v in [3_000u64, 70_000, 5_000_000, 900_000_000, 40_000_000_000] {
            let mut one = Histogram::default();
            one.record(v);
            let got = one.quantile(0.5);
            assert!(
                (got - v as f64).abs() / (v as f64) < 1.0 / SUB as f64,
                "{v}: {got}"
            );
            let (low, width) = Histogram::bounds(Histogram::index(v));
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} not in its bucket"
            );
            h.record(v);
        }
        assert!(h.quantile(1.0) > 3.9e10);
    }

    #[test]
    fn indexes_are_contiguous_and_monotone() {
        let mut last = 0;
        for v in 0..300_000u64 {
            let i = Histogram::index(v);
            assert!(i == last || i == last + 1, "{v}: {last} -> {i}");
            let (low, width) = Histogram::bounds(i);
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} not in bucket {i}"
            );
            last = i;
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn disturbed_blocks_do_not_move_the_estimate() {
        let mut blocks = Blocks::new(201);
        for block in 0..400u64 {
            // All but 2 % of the blocks run four times slower, and one is a
            // fluke twice as fast.
            let (mul, div) = match block {
                7 => (1, 2),
                b if b % 50 == 3 => (1, 1),
                _ => (4, 1),
            };
            // Recorded out of order: a block sorts itself.
            for v in (900..=1100u64).rev() {
                blocks.record(v * mul / div);
            }
        }
        assert_eq!(blocks.samples(), 201 * 400);
        // Position 3.99 of the 400 sorted block values: the fluke, then the
        // eight quiet blocks.
        assert!((blocks.p50() - 1000.0).abs() < 1.0, "{}", blocks.p50());
        assert!((blocks.p90() - 1080.0).abs() < 1.0, "{}", blocks.p90());
    }

    #[test]
    fn short_runs_fall_back_to_what_there_is() {
        let mut blocks = Blocks::new(512);
        assert_eq!(
            (blocks.p50(), blocks.p90(), blocks.samples()),
            (0.0, 0.0, 0)
        );
        for v in 1..=101u64 {
            blocks.record(v);
        }
        assert_eq!(
            (blocks.p50(), blocks.p90(), blocks.samples()),
            (51.0, 91.0, 101)
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
