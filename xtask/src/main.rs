//! Repo automation entry point. `cargo xtask lint` runs the source-analysis
//! lint pass (see the `lint` module).

mod lint;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: lint)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <task>\n\ntasks:\n  lint    source-analysis checks (SAFETY comments, sync facade, fast-path allocations, checksum re-sums, one datapath entry, one controller loop, one control plane)");
            ExitCode::FAILURE
        }
    }
}
