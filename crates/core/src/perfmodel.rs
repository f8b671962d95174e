//! The analytic performance model (§4.4, Fig. 20).
//!
//! "A compiled datapath is just a handful of templates linked into a binary
//! and so we can define elementary performance 'atoms' to characterize each
//! template and track down the template generation process to combine these
//! atoms into composite datapath models."
//!
//! Costs are split into a *fixed* component (packet I/O, parsing, action
//! execution, the arithmetic of each table template) and a *variable*
//! component (the memory accesses each template makes, whose latency depends
//! on which CPU cache level the working set fits into). Evaluating the model
//! under an optimistic cache assumption gives the paper's upper packet-rate
//! bound, under a pessimistic assumption the lower bound (the `model-ub` /
//! `model-lb` curves of Figs. 13 and 16).

use serde::{Deserialize, Serialize};

use netdev::BURST_SIZE;

use crate::analysis::TemplateKind;
use crate::compile::CompiledDatapath;

/// Bytes a flow entry adds to a table's footprint: one cache line, the
/// model's unit of memory access.
const ENTRY_BYTES: usize = 64;

/// Table 1's L1d and L2 capacities.
const L1_BYTES: usize = 32 << 10;
const L2_BYTES: usize = 256 << 10;

/// Cycle latencies of the three cache levels (Table 1's Sandy Bridge values
/// by default).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelCosts {
    /// L1 load-to-use latency in cycles.
    pub l1: f64,
    /// L2 latency in cycles.
    pub l2: f64,
    /// L3 (LLC) latency in cycles.
    pub l3: f64,
    /// CPU clock in Hz, used to convert cycles/packet into packets/second.
    pub clock_hz: f64,
}

impl Default for CacheLevelCosts {
    fn default() -> Self {
        // Table 1: L1 = 4, L2 = 12, L3 = 29 cycles; 2.0 GHz Xeon E5-2620.
        CacheLevelCosts {
            l1: 4.0,
            l2: 12.0,
            l3: 29.0,
            clock_hz: 2.0e9,
        }
    }
}

/// Which cache level the model assumes table data is served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAssumption {
    /// Everything hits the L1 data cache (optimistic; upper bound).
    AllL1,
    /// Table accesses come from L2 (the "~1K active flows" assumption).
    AllL2,
    /// Table accesses come from the LLC (pessimistic; lower bound).
    AllL3,
}

/// Per-packet fixed-cost atoms (cycles). Values follow Fig. 20 and the
/// accompanying static-code analysis in §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostAtoms {
    /// DPDK packet receive I/O.
    pub pkt_in: f64,
    /// DPDK packet transmit I/O.
    pub pkt_out: f64,
    /// Parser template (per layer parsed; Fig. 20 charges 28 for the combined
    /// parser).
    pub parser: f64,
    /// Fixed arithmetic of one hash-template lookup (key construction + hash),
    /// excluding the memory access. The template is built to this charge:
    /// `netdev::FlatHash` computes one multiply hash and probes one array
    /// whose slot holds the key beside the instruction-block pointer, so the
    /// model's single access is the home slot's cache line (a displaced
    /// entry sits in the same or the next line, never past the bounded probe
    /// window).
    pub hash_fixed: f64,
    /// Fixed arithmetic of one LPM lookup, excluding its two memory accesses.
    pub lpm_fixed: f64,
    /// Memory accesses per LPM lookup (DIR-24-8 worst case: tbl24 + tbl8).
    pub lpm_accesses: f64,
    /// Cost of evaluating one direct-code entry (compare + branch with the
    /// key inlined in the instruction stream).
    pub direct_per_entry: f64,
    /// Cost of evaluating one linked-list entry (shared matcher call).
    pub linked_per_entry: f64,
    /// Action-set execution.
    pub actions: f64,
    /// Per-burst upkeep of one table slot, visited or not: the fast path
    /// sets up its guard and write-set cells and flushes its lookup counter
    /// once per burst (`CompiledDatapath::process_burst_ct`). Measured:
    /// about 2.6 ns per slot per 32-packet burst (one-slot vs 65 536-slot
    /// datapaths on a 2-vCPU x86 host), 5 cycles at the model's clock.
    pub slot_per_burst: f64,
    /// Per table a walk visits, beside its template's lookup: the
    /// trampoline guard, the lookup counter and the instruction dispatch.
    /// Measured: about 14 ns per table added to a walk of 1–16 one-entry
    /// tables (same host), 28 cycles less the entry's direct-code charge.
    pub table_visit: f64,
}

impl Default for CostAtoms {
    fn default() -> Self {
        CostAtoms {
            pkt_in: 40.0,
            pkt_out: 40.0,
            parser: 28.0,
            hash_fixed: 8.0,
            lpm_fixed: 13.0,
            lpm_accesses: 2.0,
            direct_per_entry: 2.5,
            linked_per_entry: 4.0,
            actions: 25.0,
            slot_per_burst: 5.0,
            table_visit: 25.0,
        }
    }
}

/// One line of the per-stage cost breakdown (the rows of Fig. 20).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Human-readable stage name.
    pub stage: String,
    /// Fixed cycles charged to the stage.
    pub fixed_cycles: f64,
    /// Number of cache accesses whose level depends on the working set.
    pub memory_accesses: f64,
}

/// The composite estimate for a datapath.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceEstimate {
    /// Per-stage breakdown.
    pub stages: Vec<StageCost>,
    /// Total fixed cycles per packet.
    pub fixed_cycles: f64,
    /// Total cache accesses per packet.
    pub memory_accesses: f64,
}

impl PerformanceEstimate {
    /// Cycles per packet under a cache assumption.
    pub fn cycles_per_packet(&self, costs: &CacheLevelCosts, assumption: CacheAssumption) -> f64 {
        let latency = match assumption {
            CacheAssumption::AllL1 => costs.l1,
            CacheAssumption::AllL2 => costs.l2,
            CacheAssumption::AllL3 => costs.l3,
        };
        self.fixed_cycles + self.memory_accesses * latency
    }

    /// Packets per second under a cache assumption.
    pub fn packet_rate(&self, costs: &CacheLevelCosts, assumption: CacheAssumption) -> f64 {
        costs.clock_hz / self.cycles_per_packet(costs, assumption)
    }

    /// The paper's (upper, lower) packet-rate bounds: all-L1 optimistic vs
    /// all-L3 pessimistic.
    pub fn rate_bounds(&self, costs: &CacheLevelCosts) -> (f64, f64) {
        (
            self.packet_rate(costs, CacheAssumption::AllL1),
            self.packet_rate(costs, CacheAssumption::AllL3),
        )
    }

    /// Renders the Fig. 20-style table.
    pub fn render_table(&self) -> String {
        let mut out = String::from("pipeline stage                 | cycles\n");
        out.push_str("-------------------------------+---------------\n");
        for stage in &self.stages {
            let cycles = if stage.memory_accesses > 0.0 {
                format!("{} + {}*Lx", stage.fixed_cycles, stage.memory_accesses)
            } else {
                format!("{}", stage.fixed_cycles)
            };
            out.push_str(&format!("{:<31}| {}\n", stage.stage, cycles));
        }
        out.push_str(&format!(
            "{:<31}| {} + {}*Lx\n",
            "TOTAL", self.fixed_cycles, self.memory_accesses
        ));
        out
    }
}

/// The performance model: cost atoms + cache parameters.
#[derive(Debug, Clone, Default)]
pub struct PerformanceModel {
    /// Per-template cost atoms.
    pub atoms: CostAtoms,
    /// Cache level latencies and clock.
    pub cache: CacheLevelCosts,
}

impl PerformanceModel {
    /// Creates the model with the paper's default atoms and Table 1's cache
    /// parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The model's charge for one lookup in a `kind` template holding
    /// `entries` flow entries: fixed cycles and memory accesses. This is the
    /// one per-template charge: [`estimate_walk`](Self::estimate_walk) sums
    /// it along a walk, and the compiler weighs a table's linked list
    /// against its decomposed chain with it (§3.2).
    pub fn lookup_charge(&self, kind: TemplateKind, entries: usize) -> (f64, f64) {
        let entries = entries.max(1) as f64;
        match kind {
            TemplateKind::DirectCode => (self.atoms.direct_per_entry * entries, 0.0),
            TemplateKind::CompoundHash => (self.atoms.hash_fixed, 1.0),
            TemplateKind::Lpm => (self.atoms.lpm_fixed, self.atoms.lpm_accesses),
            TemplateKind::LinkedList => (self.atoms.linked_per_entry * entries, entries),
        }
    }

    /// The latency of the cache level `entries` flow entries fit in, one
    /// line each: L1, L2, or else L3.
    pub fn footprint_latency(&self, entries: usize) -> f64 {
        match entries.saturating_mul(ENTRY_BYTES) {
            bytes if bytes <= L1_BYTES => self.cache.l1,
            bytes if bytes <= L2_BYTES => self.cache.l2,
            _ => self.cache.l3,
        }
    }

    /// Each packet's share of the per-burst upkeep of `slots` table slots.
    pub fn upkeep_cycles(&self, slots: usize) -> f64 {
        self.atoms.slot_per_burst * slots as f64 / BURST_SIZE as f64
    }

    /// Estimates the per-packet cost of a compiled datapath along the given
    /// table walk (sequence of table ids a typical packet traverses). Tables
    /// outside the walk contribute nothing — exactly how the paper models the
    /// gateway's user-to-network direction. A decomposed table is charged
    /// along its chain's longest goto path, one line per stage.
    pub fn estimate_walk(&self, datapath: &CompiledDatapath, walk: &[u32]) -> PerformanceEstimate {
        let mut stages = vec![
            StageCost {
                stage: "PKT_IN (rx burst I/O)".to_string(),
                fixed_cycles: self.atoms.pkt_in,
                memory_accesses: 0.0,
            },
            StageCost {
                stage: "parser template".to_string(),
                fixed_cycles: self.atoms.parser,
                memory_accesses: 0.0,
            },
        ];
        for id in walk {
            let Some(path) = datapath.lookup_path(*id) else {
                continue;
            };
            for index in path {
                let table = datapath.slots()[*index].table.read();
                let (kind, len) = (table.kind(), table.len());
                let (fixed_cycles, memory_accesses) = self.lookup_charge(kind, len);
                let label = match kind {
                    TemplateKind::DirectCode => format!("direct code ({len} entries)"),
                    TemplateKind::CompoundHash => format!("hash template ({len} entries)"),
                    TemplateKind::Lpm => format!("LPM template ({len} prefixes)"),
                    TemplateKind::LinkedList => format!("linked list ({len} entries)"),
                };
                stages.push(StageCost {
                    stage: format!("table {id}: {label}"),
                    fixed_cycles,
                    memory_accesses,
                });
            }
        }
        stages.push(StageCost {
            stage: "action templates".to_string(),
            fixed_cycles: self.atoms.actions,
            memory_accesses: 0.0,
        });
        stages.push(StageCost {
            stage: "PKT_OUT (tx burst I/O)".to_string(),
            fixed_cycles: self.atoms.pkt_out,
            memory_accesses: 0.0,
        });

        let fixed_cycles = stages.iter().map(|s| s.fixed_cycles).sum();
        let memory_accesses = stages.iter().map(|s| s.memory_accesses).sum();
        PerformanceEstimate {
            stages,
            fixed_cycles,
            memory_accesses,
        }
    }

    /// Estimates the cost over all tables in pipeline order — adequate for
    /// run-to-completion pipelines where every packet visits every table.
    pub fn estimate(&self, datapath: &CompiledDatapath) -> PerformanceEstimate {
        // A chain's stages sit side by side under the table's id.
        let mut walk: Vec<u32> = datapath.slots().iter().map(|s| s.id).collect();
        walk.dedup();
        self.estimate_walk(datapath, &walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowEntry, Pipeline};

    fn l2_pipeline(n: u64) -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        for i in 0..n {
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::EthDst, u128::from(i)),
                10,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        p
    }

    #[test]
    fn gateway_style_total_matches_fig20_shape() {
        // Two hash stages + one LPM stage: the paper's user-to-network walk.
        // Fixed = 40+28+8+8+13+25+40 = 162 (the paper rounds to 166 with its
        // combined parser), memory accesses = 1+1+2 = 4 ≈ the paper's 3·Lx
        // plus the L3-resident packet load it folds into PKT_IN.
        let mut p = Pipeline::with_tables(3);
        for t in 0..2u32 {
            for i in 0..16u64 {
                p.table_mut(t).unwrap().insert(FlowEntry::new(
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(i)),
                    10,
                    vec![openflow::Instruction::GotoTable(t + 1)],
                ));
            }
        }
        for i in 0..32u32 {
            // Mixed prefix lengths keep this a genuine LPM table (uniform
            // masks would satisfy the stricter hash prerequisite instead).
            let len = if i % 2 == 0 { 16 } else { 24 };
            p.table_mut(2).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, i as u8, 1, 0])),
                    len,
                ),
                (len + 10) as u16,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        let dp = compile(&p).unwrap();
        let model = PerformanceModel::new();
        let estimate = model.estimate(&dp);
        assert!(
            (estimate.fixed_cycles - 162.0).abs() < 1e-9,
            "{}",
            estimate.fixed_cycles
        );
        assert!((estimate.memory_accesses - 4.0).abs() < 1e-9);

        // Bounds ordering: L1 assumption gives the highest rate.
        let costs = CacheLevelCosts::default();
        let (ub, lb) = estimate.rate_bounds(&costs);
        assert!(ub > lb);
        let mid = estimate.packet_rate(&costs, CacheAssumption::AllL2);
        assert!(lb < mid && mid < ub);

        // With Table 1 latencies the estimates land in the paper's range
        // (roughly 8–12 Mpps for the gateway walk).
        assert!(ub > 9.0e6 && ub < 13.0e6, "ub = {ub}");
        assert!(lb > 6.0e6 && lb < 9.0e6, "lb = {lb}");

        let rendered = estimate.render_table();
        assert!(rendered.contains("LPM template"));
        assert!(rendered.contains("TOTAL"));
    }

    #[test]
    fn direct_code_cost_scales_with_entries_and_hash_does_not() {
        let model = PerformanceModel::new();
        let small = compile(&l2_pipeline(2)).unwrap();
        let larger = compile(&l2_pipeline(4)).unwrap();
        let hash = compile(&l2_pipeline(100)).unwrap();

        let c_small = model
            .estimate(&small)
            .cycles_per_packet(&model.cache, CacheAssumption::AllL1);
        let c_larger = model
            .estimate(&larger)
            .cycles_per_packet(&model.cache, CacheAssumption::AllL1);
        let c_hash_100 = model
            .estimate(&hash)
            .cycles_per_packet(&model.cache, CacheAssumption::AllL1);
        let c_hash_1000 = model
            .estimate(&compile(&l2_pipeline(1000)).unwrap())
            .cycles_per_packet(&model.cache, CacheAssumption::AllL1);

        assert!(
            c_small < c_larger,
            "direct code cost must grow with entries"
        );
        assert!(
            (c_hash_100 - c_hash_1000).abs() < 1e-9,
            "hash cost must be size-independent"
        );
        // The crossover the paper calibrates: at 4 entries direct code is
        // still at least competitive with the hash template.
        assert!(c_larger <= c_hash_100 + model.cache.l1);
    }

    #[test]
    fn walk_restriction_excludes_unvisited_tables() {
        let mut p = l2_pipeline(100);
        // A second table that the measured direction never visits.
        p.add_table(openflow::FlowTable::new(7));
        let dp = compile(&p).unwrap();
        let model = PerformanceModel::new();
        let full = model.estimate(&dp);
        let restricted = model.estimate_walk(&dp, &[0]);
        assert!(restricted.fixed_cycles <= full.fixed_cycles);
        assert_eq!(restricted.stages.len(), 5); // rx, parser, table 0, actions, tx
    }
}
