//! Experiment runner and claims-ledger gate: regenerates every evaluation
//! claim of the paper and holds future runs to the committed baseline.
//!
//! ```text
//! expt all                  # run everything, print markdown tables
//! expt e2 e5                # run selected experiments
//! expt --json all           # also dump machine-readable JSON to stdout
//! expt --report             # full ledger → EXPERIMENTS.md + experiments.json
//! expt --report --out DIR   # write the artifacts elsewhere
//! expt --check              # re-run, diff vs committed baseline, exit ≠ 0
//! expt --check --baseline D # read the baseline from another directory
//! expt --check --only h     # re-run + gate only one table group (H1–H5)
//! ```
//!
//! `--report` and `--check` run the **full deterministic ledger** (E1–E12
//! plus the fairness sweep F1); the artifacts contain no timestamps, so
//! the same commit regenerates them byte-identically. `--check --only
//! PREFIX` restricts the re-run and the gate to tables whose id starts
//! with the prefix — a fast focused gate for one group (e.g. the
//! hostile-path matrix) that still diffs against the full committed
//! baseline.

use qtp_bench::ledger;
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every flag `expt` takes besides `--help`; any other `--` argument is a
/// usage error, so a script passing a flag that went away hears of it.
const FLAGS: [&str; 6] = [
    "--json",
    "--report",
    "--out",
    "--check",
    "--baseline",
    "--only",
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: expt [ids|all] [--json] | expt --report [--out DIR] | expt --check [--baseline DIR] [--only PREFIX]"
        );
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        return usage_error(&format!("unknown flag {flag}"));
    }
    if args.iter().any(|a| a == "--report") {
        return match dir_flag(&args, "--out") {
            Ok(out) => report(out),
            Err(e) => usage_error(&e),
        };
    }
    if args.iter().any(|a| a == "--check") {
        return match (dir_flag(&args, "--baseline"), value_flag(&args, "--only")) {
            (Ok(dir), Ok(only)) => check(dir, only),
            (Err(e), _) | (_, Err(e)) => usage_error(&e),
        };
    }
    run_selected(&args)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg} (try --help)");
    ExitCode::from(2)
}

/// Value of `--flag DIR`, defaulting to the current directory (the
/// workspace root under `cargo run`). A present flag without a directory
/// value is an error, not a silent fallback — otherwise a forgotten value
/// would write over the committed root artifacts.
fn dir_flag(args: &[String], flag: &str) -> Result<PathBuf, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(PathBuf::from(".")),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(PathBuf::from(v)),
            _ => Err(format!("missing directory value for {flag}")),
        },
    }
}

/// Value of `--flag VALUE`, or `None` when the flag is absent. Like
/// [`dir_flag`], a present flag with no value is an error.
fn value_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("missing value for {flag}")),
        },
    }
}

/// The original mode: run chosen experiments, print markdown (+ JSON).
fn run_selected(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.to_lowercase())
        .collect();
    let ids: Vec<&str> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        qtp_bench::ALL_IDS.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    println!("# QTP experiment harness — reproduction of Jourjon et al., CoNEXT 2006\n");
    let mut tables = Vec::new();
    let mut unknown = false;
    for id in ids {
        let t0 = Instant::now();
        match qtp_bench::run_experiment(id) {
            Some(table) => {
                print!("{}", table.to_markdown());
                println!("_(generated in {:.1} s)_\n", t0.elapsed().as_secs_f64());
                tables.push(table);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                unknown = true;
            }
        }
    }
    if json {
        println!("```json");
        println!("{}", qtp_bench::table::tables_to_json(&tables));
        println!("```");
    }
    if unknown {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--report`: run the full ledger and write the committed artifact pair.
fn report(out: PathBuf) -> ExitCode {
    let t0 = Instant::now();
    eprintln!("running the full claims ledger (12 experiments + app scenarios + fairness sweep)…");
    let ledger_run = ledger::run_full();
    let md = ledger::render_markdown(&ledger_run);
    let json = ledger::render_json(&ledger_run);
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("EXPERIMENTS.md"), md))
        .and_then(|()| std::fs::write(out.join("experiments.json"), json))
    {
        eprintln!("cannot write report to {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let violated = ledger::evaluate_assertions(&ledger_run, &ledger::assertions())
        .into_iter()
        .filter(|r| !r.holds)
        .count();
    eprintln!(
        "wrote {}/EXPERIMENTS.md and experiments.json in {:.1} s",
        out.display(),
        t0.elapsed().as_secs_f64(),
    );
    if violated > 0 {
        eprintln!("{violated} claim assertion(s) VIOLATED — see the report's final section");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--check`: run the full ledger (or one `--only` group of it) and gate
/// it against the committed baseline.
fn check(baseline_dir: PathBuf, only: Option<String>) -> ExitCode {
    let path = baseline_dir.join("experiments.json");
    let baseline = match load_baseline(&path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let fresh = match &only {
        Some(prefix) => {
            eprintln!(
                "re-running ledger group '{prefix}' against {}…",
                path.display()
            );
            ledger::run_group(prefix)
        }
        None => {
            eprintln!(
                "re-running the full claims ledger against {}…",
                path.display()
            );
            ledger::run_full()
        }
    };
    if fresh.tables.is_empty() {
        eprintln!("no table id matches --only prefix");
        return ExitCode::from(2);
    }
    match ledger::check_against(&baseline, &fresh) {
        Ok(report) => {
            let report = match &only {
                Some(prefix) => ledger::filter_check(report, prefix),
                None => report,
            };
            print!("{}", report.render());
            eprintln!("(ledger re-run took {:.1} s)", t0.elapsed().as_secs_f64());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                write_flight_dumps(&fresh);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// On gate failure, write every table's captured diagnostics (flight
/// recorder tails of the traced scenarios) to `flight-dumps/` so CI can
/// upload them as a failure artifact.
fn write_flight_dumps(ledger: &ledger::Ledger) {
    let dir = Path::new("flight-dumps");
    let mut written = 0usize;
    for table in &ledger.tables {
        if table.diagnostics.is_empty() {
            continue;
        }
        if written == 0 {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return;
            }
        }
        let path = dir.join(format!("{}.txt", table.id.to_lowercase()));
        match std::fs::write(&path, table.diagnostics.join("\n")) {
            Ok(()) => written += 1,
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if written > 0 {
        eprintln!(
            "wrote {written} flight-recorder dump(s) to {}/",
            dir.display()
        );
    }
}

fn load_baseline(path: &Path) -> Result<qtp_bench::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {} ({e}) — generate it with `expt --report`",
            path.display()
        )
    })?;
    qtp_bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
