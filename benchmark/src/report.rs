//! Metric names, units and bounds; the result files; and `agree`, which
//! tells whether two result sets are the same within those bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::quartiles;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the switch sees. Every workload reports every one of them
/// from the untraced window. `BENCHMARK.json` repeats this table; a test
/// keeps the two equal.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "fwd_mpps",
        unit: "Mpps",
        higher_is_better: true,
        bound: 0.07,
    },
    EndToEnd {
        name: "lap_us_p90",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit, higher is better)` of the single-layer metrics, from the
/// traced run. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, bool); 73] = [
    ("conn_setup_kcps", "kconn/s", true),
    ("flowmod_us_p50", "us", false),
    ("loss_share", "share", false),
    ("netdev.port.inject_ns", "ns/pkt", false),
    ("netdev.port.rx_ns", "ns/pkt", false),
    ("netdev.port.tx_ns", "ns/pkt", false),
    ("netdev.port.drain_ns", "ns/pkt", false),
    ("netdev.ring.push_ns", "ns/pkt", false),
    ("netdev.ring.pop_ns", "ns/pkt", false),
    ("netdev.classify_ns", "ns/pkt", false),
    ("netdev.port.tx_drops", "count", false),
    ("shard.rss_ns", "ns/pkt", false),
    ("packet.parse_ns", "ns/pkt", false),
    ("packet.clone_ns", "ns/pkt", false),
    ("packet.from_bytes_ns", "ns/pkt", false),
    ("core.process_ns", "ns/pkt", false),
    ("core.compile_s", "s", false),
    ("core.mem_mib", "MiB", false),
    ("core.templates.direct", "count", true),
    ("core.templates.hash", "count", true),
    ("core.templates.lpm", "count", true),
    ("core.templates.linked_list", "count", false),
    ("core.model_ns", "ns/pkt", false),
    ("openflow.interp_ns", "ns/pkt", false),
    ("core.speedup_vs_interp", "ratio", true),
    ("ovsdp.process_ns", "ns/pkt", false),
    ("ovsdp.hit_share.microflow", "share", true),
    ("ovsdp.hit_share.megaflow", "share", true),
    ("ovsdp.hit_share.slowpath", "share", false),
    ("ovsdp.megaflow_entries", "count", false),
    ("ovsdp.microflow_entries", "count", false),
    ("conntrack.new_ns", "ns/pkt", false),
    ("conntrack.est_ns", "ns/pkt", false),
    ("conntrack.close_ns", "ns/pkt", false),
    ("conntrack.tick_ns", "ns/pkt", false),
    ("conntrack.live", "count", true),
    ("conntrack.created", "count", true),
    ("conntrack.evicted_idle", "count", true),
    ("conntrack.evicted_capacity", "count", false),
    ("conntrack.refused", "count", false),
    ("conntrack.teardown", "count", true),
    ("conntrack.hit_share", "share", true),
    ("conntrack.mem_mib", "MiB", false),
    ("core.update.flowmod_us_p99", "us", false),
    ("core.update.incremental", "count", true),
    ("core.update.per_table", "count", false),
    ("core.update.full", "count", false),
    ("core.update.first_lap_ns", "ns/pkt", false),
    ("ovsdp.update.flowmod_us_p99", "us", false),
    ("ovsdp.update.first_lap_ns", "ns/pkt", false),
    ("ovsdp.update.slowpath_per_cycle", "count", false),
    ("shard.runtime.window_us_p50", "us", false),
    ("shard.runtime.busy_ns", "ns/pkt", false),
    ("shard.runtime.ring_high_water", "count", false),
    ("shard.runtime.egress_frames_per_flush", "count", true),
    ("shard.runtime.lost", "count", false),
    ("shard.control.flowmod_us_p50", "us", false),
    ("shard.runtime.measurable", "count", true),
    ("shard.runtime.windows", "count", true),
    ("lap.us_p50", "us", false),
    ("lap.us_p99", "us", false),
    ("lap.us_p999", "us", false),
    ("lap.samples", "count", true),
    ("lap.traced_samples", "count", true),
    ("lap.raw_us_p50", "us", false),
    ("lap.coverage", "ratio", true),
    ("lap.allocs_per_pkt", "1/pkt", false),
    ("harness.route_ns", "ns/pkt", false),
    ("trace.overhead_share", "share", false),
    ("host.nproc", "count", true),
    ("host.clock_ghz", "GHz", true),
    ("host.steal_share", "share", false),
    ("wall_mpps", "Mpps", true),
];

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// Orders `measured` by the registry, fills layers the workload does not
    /// exercise with 0, and refuses a value that is not a finite number.
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        outcome: &crate::run::Outcome,
    ) -> Record {
        let value = |name: &str| {
            let found = outcome.metrics.iter().find(|(n, _)| *n == name);
            let v = found.map_or(0.0, |(_, v)| *v);
            assert!(v.is_finite(), "{name} = {v}");
            v
        };
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, _) in &outcome.metrics {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "{name} is not in the registry"
            );
        }
        Record {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            correct: outcome.correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: names
                .into_iter()
                .map(|(n, u)| (n.to_string(), value(n), u.to_string()))
                .collect(),
        }
    }

    /// The object the driver reads from the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn from_json(json: &Json) -> Result<Record, String> {
        let metrics = match json.get("metrics") {
            Some(Json::Object(entries)) => entries
                .iter()
                .map(|(name, m)| Ok((name.clone(), m.number("value")?, m.string("unit")?)))
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("no metrics object".into()),
        };
        Ok(Record {
            workload: json.string("workload").unwrap_or_default(),
            seed: json.number("seed").unwrap_or(0.0) as u64,
            seconds: json.number("seconds").unwrap_or(0.0),
            trace: json.number("trace").unwrap_or(0.0) != 0.0,
            correct: matches!(json.get("correct"), Some(Json::Bool(true))),
            attempted: json.number("attempted")? as u64,
            failed: json.number("failed")? as u64,
            metrics,
        })
    }

    /// Parses a child's result line, naming the run it belongs to.
    pub fn from_result_line(
        line: &str,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Result<Record, String> {
        let parsed = Record::from_json(&Json::parse(line)?)?;
        Ok(Record {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            ..parsed
        })
    }

    /// Every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} {} s {}: correct {} attempted {} failed {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "untraced" },
            self.correct,
            self.attempted,
            self.failed
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
        }
        out
    }
}

pub fn write_set(path: &str, records: &[Record]) -> std::io::Result<()> {
    let runs: Vec<String> = records.iter().map(Record::to_json).collect();
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n")))
}

pub fn read_set(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match Json::parse(&text)?.get("runs") {
        Some(Json::Array(runs)) => runs.iter().map(Record::from_json).collect(),
        _ => Err(format!("{path}: no \"runs\" array")),
    }
}

/// Compares the end-to-end metrics of two result sets, workload by workload.
/// Returns the report and whether every median of `b` is within its bound of
/// `a`'s, in either direction.
pub fn agree(a: &[Record], b: &[Record]) -> (String, bool) {
    let group = |set: &[Record]| {
        let mut values: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
        for record in set.iter().filter(|r| !r.trace) {
            for metric in &END_TO_END {
                if let Some((_, v, _)) = record.metrics.iter().find(|(n, _, _)| n == metric.name) {
                    values
                        .entry((record.workload.clone(), metric.name))
                        .or_default()
                        .push(*v);
                }
            }
        }
        values
    };
    let (a, b) = (group(a), group(b));
    let mut out = format!(
        "{:<12} {:<11} {:<7} {:>36} {:>36} {:>8} {:>7}\n",
        "workload",
        "metric",
        "better",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "differ",
        "bound"
    );
    let mut all_agree = !a.is_empty();
    let show = |v: &[f64]| {
        let (q1, median, q3) = quartiles(v);
        (
            median,
            format!("{median:.4} [{q1:.4}, {q3:.4}] {}", v.len()),
        )
    };
    for ((workload, name), values_a) in &a {
        let metric = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("grouped by registry");
        let Some(values_b) = b.get(&(workload.clone(), *name)) else {
            let _ = writeln!(out, "{workload:<12} {name:<11} missing from B");
            all_agree = false;
            continue;
        };
        let ((median_a, text_a), (median_b, text_b)) = (show(values_a), show(values_b));
        let differ = (median_b - median_a).abs() / median_a;
        let ok = differ <= metric.bound;
        all_agree &= ok;
        let _ = writeln!(
            out,
            "{workload:<12} {name:<11} {:<7} {text_a:>36} {text_b:>36} {:>7.2}% {:>6.0}% {}",
            if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            differ * 100.0,
            metric.bound * 100.0,
            if ok { "" } else { "DIFFERS" }
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        let _ = writeln!(out, "{:<12} {:<11} missing from A", key.0, key.1);
        all_agree = false;
    }
    (out, all_agree)
}

/// Just enough JSON to read back what this program writes, and
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.at));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn number(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Number(n)) => Ok(*n),
            _ => Err(format!("no number \"{key}\"")),
        }
    }

    pub fn string(&self, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Json::String(s)) => Ok(s.clone()),
            _ => Err(format!("no string \"{key}\"")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_space();
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!("expected '{token}' at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                self.skip_space();
                if self.eat("}") {
                    return Ok(Json::Object(entries));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(":")?;
                    entries.push((key, self.value()?));
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Json::Object(entries));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without escapes other than `\"` and `\\`: all this program
    /// writes, and all `BENCHMARK.json` needs.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') if matches!(self.bytes.get(self.at + 1), Some(b'"' | b'\\')) => {
                    out.push(self.bytes[self.at + 1]);
                    self.at += 2;
                }
                Some(b'\\') => return Err(format!("unsupported escape at byte {}", self.at)),
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn record(workload: &str, trace: bool, values: &[f64]) -> Record {
        Record {
            workload: workload.into(),
            seed: 1,
            seconds: 8.0,
            trace,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), *v, m.unit.to_string()))
                .collect(),
        }
    }

    #[test]
    fn result_sets_round_trip() {
        let records = vec![
            record("l2_min", false, &[12.5, 3.25, 0.011, 40.0]),
            record("gateway_es", false, &[4.0, 9.5, 0.4, 120.125]),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).unwrap();
        let path = format!("{dir}/round-trip-{}.json", std::process::id());
        write_set(&path, &records).unwrap();
        let back = read_set(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, records);
        let line = records[0].result_line();
        let back = Record::from_result_line(&line, "l2_min", 1, 8.0, false).unwrap();
        assert_eq!(back, records[0]);
    }

    #[test]
    fn agree_judges_each_metric_by_its_own_bound() {
        let a = vec![
            record("l2_min", false, &[10.0, 3.0, 1.0, 50.0]),
            record("l2_min", false, &[10.2, 3.1, 1.1, 50.0]),
            record("l2_min", false, &[9.8, 2.9, 0.9, 50.0]),
        ];
        let (report, ok) = agree(&a, &a);
        assert!(ok, "{report}");
        assert!(report.contains("10.0000 [9.8000, 10.2000] 3"), "{report}");
        // 6 % off on fwd_mpps' 7 % bound agrees; 12 % off on lap_us_p90's
        // 10 % does not.
        let mut b = a.clone();
        b.iter_mut().for_each(|r| r.metrics[0].1 *= 0.94);
        assert!(agree(&a, &b).1);
        b.iter_mut().for_each(|r| r.metrics[1].1 *= 1.12);
        let (report, ok) = agree(&a, &b);
        assert!(!ok && report.contains("DIFFERS"), "{report}");
        // Traced records carry no end-to-end metric; a missing workload fails.
        assert!(!agree(&a, &[record("l2_min", true, &[])]).1);
        assert!(!agree(&[], &[]).1);
    }

    #[test]
    fn json_reads_what_it_must() {
        let j = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}} "#).unwrap();
        assert_eq!(j.get("b").unwrap().string("c").unwrap(), "x\"y");
        assert_eq!(
            j.get("a"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    /// `BENCHMARK.json` is the contract other tools read; the registry here
    /// is what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let array = |key: &str| match json.get(key) {
            Some(Json::Array(items)) => items.clone(),
            _ => panic!("no array {key}"),
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let workloads: Vec<String> = array("workloads")
            .iter()
            .map(|w| w.string("name").unwrap())
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        let end_to_end = array("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (got, want) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(got.string("name").unwrap(), want.name);
            assert_eq!(got.string("unit").unwrap(), want.unit);
            assert_eq!(got.string("better").unwrap(), better(want.higher_is_better));
            assert_eq!(got.number("bound").unwrap(), want.bound);
        }
        let per_layer = array("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (got, (name, unit, higher)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(got.string("name").unwrap(), *name);
            assert_eq!(got.string("unit").unwrap(), *unit);
            assert_eq!(got.string("better").unwrap(), better(*higher));
        }
    }
}
