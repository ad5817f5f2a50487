//! `appscen` — the application scenario families as a standalone tool.
//!
//! ```text
//! appscen                  # A1–A3 at the fixed seeds, markdown on stdout
//! appscen --sweep          # deadline-miss rate vs loss (nightly artifact)
//! appscen --hostile-sweep  # QTPAF goodput, reorder-jitter × RTT grid
//! ```
//!
//! The default mode is a pure function of the code — `cargo test` diffs
//! its output against `crates/bench/golden/appscen.md`, so any change to
//! the stream data plane that shifts an application-visible number shows
//! up as a golden diff in review rather than as silent drift.

use std::process::ExitCode;

use qtp_bench::{hostile, scenarios};

/// Loss rates of the nightly deadline sweep.
const SWEEP_LOSSES: [f64; 4] = [0.01, 0.02, 0.03, 0.05];

/// Reorder-jitter axis of the nightly hostile-path grid (ms).
const SWEEP_JITTERS_MS: [u64; 3] = [0, 25, 100];

/// One-way delay axis of the nightly hostile-path grid (ms).
const SWEEP_ONE_WAYS_MS: [u64; 3] = [20, 150, 300];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: appscen [--sweep | --hostile-sweep]");
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !["--sweep", "--hostile-sweep"].contains(&a.as_str()))
    {
        eprintln!("unknown flag {flag} (try --help)");
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--sweep") {
        print!("{}", scenarios::deadline_sweep(&SWEEP_LOSSES).to_markdown());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--hostile-sweep") {
        print!(
            "{}",
            hostile::hostile_sweep(&SWEEP_JITTERS_MS, &SWEEP_ONE_WAYS_MS).to_markdown()
        );
        return ExitCode::SUCCESS;
    }
    for table in [scenarios::a1(), scenarios::a2(), scenarios::a3()] {
        print!("{}", table.to_markdown());
    }
    ExitCode::SUCCESS
}
