//! The repo's one benchmark. See `README.md` for what it measures and why.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!               [--out F.json] [--runs N] [--reverse] [--smoke]
//! benchmark agree A.json B.json
//! ```
//!
//! With `--workload`, the run happens in this process and the last line of
//! standard output is the result object. Without it, every workload runs in a
//! process of its own, untraced and traced, and `--out` collects the set.

mod lap;
mod report;
mod run;
mod stats;
mod sut;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use report::Record;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: stats::CountingAllocator = stats::CountingAllocator;

/// The measuring window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 8.0;
/// `--smoke`: the window of each of its (traced) runs.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    runs: u64,
    reverse: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        out: None,
        runs: 1,
        reverse: false,
        smoke: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--runs" => parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--reverse" => parsed.reverse = true,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload here and prints its result line last.
fn run_here(workload: Workload, args: &Args) -> Result<bool, String> {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace.unwrap_or(args.smoke),
        smoke: args.smoke,
    };
    let outcome = run::run(&opts);
    if let Some(trace) = &outcome.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}.json", workload.name());
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let record = Record::new(
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        &outcome,
    );
    if let Some(out) = &args.out {
        report::write_set(out, std::slice::from_ref(&record)).map_err(|e| format!("{out}: {e}"))?;
    }
    print!("{}", record.table());
    println!("{}", record.result_line());
    // The verdict travels in the result line; a non-zero exit means no result.
    Ok(true)
}

/// Runs every workload in a child process each, untraced then traced (traced
/// for half the window), `--runs` times with consecutive seeds.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut order = Workload::ALL.to_vec();
    if args.reverse {
        order.reverse();
    }
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let modes: Vec<(bool, f64)> = match (args.smoke, args.trace) {
        (true, _) => vec![(true, SMOKE_SECONDS)],
        (false, Some(trace)) => vec![(trace, seconds)],
        (false, None) => vec![(false, seconds), (true, seconds / 2.0)],
    };
    let mut records = Vec::new();
    for run in 0..args.runs {
        for &workload in &order {
            for &(trace, seconds) in &modes {
                let seed = args.seed + run;
                let mut child = Command::new(&exe);
                child
                    .args(["run", "--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit());
                if args.smoke {
                    child.arg("--smoke");
                }
                let output = child
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or("");
                let record = Record::from_result_line(line, workload.name(), seed, seconds, trace)
                    .map_err(|e| format!("{} gave no result: {e}", workload.name()))?;
                print!("{}", record.table());
                records.push(record);
            }
        }
    }
    if let Some(out) = &args.out {
        report::write_set(out, &records).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(records.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_args(rest).and_then(|args| match args.workload {
                Some(workload) => run_here(workload, &args),
                None => run_suite(&args),
            })
        }
        Some((command, [a, b])) if command == "agree" => report::read_set(a)
            .and_then(|a| Ok((a, report::read_set(b)?)))
            .map(|(a, b)| {
                let (table, agree) = report::agree(&a, &b);
                print!("{table}");
                agree
            }),
        _ => Err(
            "usage: benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                  [--out F.json] [--runs N] [--reverse] [--smoke] | benchmark agree A.json B.json"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
