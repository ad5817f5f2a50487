//! `simbench` — simulator-core scaling benchmark: the events/s trajectory.
//!
//! Runs the many-flow dumbbell scenario at a ladder of flow counts and
//! reports, per point, the deterministic engine counters (events
//! dispatched, flows completed, bytes delivered, packet-pool high-water
//! mark) plus informational timing (wall-clock, events/s, process peak
//! RSS). The deterministic fields are pure functions of (flow count,
//! seed), so CI can re-run a subset of points and fail on any drift
//! without ever gating on machine speed:
//!
//! ```text
//! simbench --out BENCH_simnet.json                     # full sweep, rewrite the file
//! simbench --points 1000,10000 --out /tmp/b.json       # subset sweep
//! simbench --check BENCH_simnet.json --points 10000    # CI gate (10^3: cargo test)
//! simbench --check BENCH_simnet.json --out fresh.json  # one sweep: gate + artifact
//! ```
//!
//! `--check` and `--out` compose: the sweep runs once, the deterministic
//! fields are gated against the baseline, and the fresh results (with this
//! machine's timings) are written out — the nightly job uses this to
//! publish a trajectory artifact without running the sweep twice.
//!
//! Peak RSS (`vm_hwm_kb`) is the process-wide high-water mark from
//! `/proc/self/status`, sampled after each point; it is only meaningful
//! when points run in ascending flow order (which the sweep enforces) and
//! is never gated on.

use qtp_bench::json;
use qtp_bench::manyflow::{run_sim_instrumented, ManyFlowConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The default ladder: four decades-ish of flow counts, 10^3..10^5.
const DEFAULT_POINTS: [usize; 5] = [1000, 3162, 10_000, 31_623, 100_000];

const SCHEMA: &str = "simnet-bench/v1";

struct PointResult {
    flows: usize,
    // Deterministic (gated by --check):
    events: u64,
    completed: usize,
    delivered_bytes: u64,
    packet_pool_high_water: usize,
    // Informational (never gated):
    wall_s: f64,
    events_per_s: f64,
    vm_hwm_kb: u64,
}

fn run_point(flows: usize, seed: u64) -> PointResult {
    let mut cfg = ManyFlowConfig::new(flows);
    cfg.seed = seed;
    let start = Instant::now();
    let (report, metrics) = run_sim_instrumented(&cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let delivered_bytes: u64 = report.outcomes.iter().map(|o| o.delivered_bytes).sum();
    PointResult {
        flows,
        events: metrics.events_processed,
        completed: report.completed,
        delivered_bytes,
        packet_pool_high_water: metrics.packet_pool_high_water,
        wall_s,
        events_per_s: metrics.events_processed as f64 / wall_s.max(1e-9),
        vm_hwm_kb: vm_hwm_kb().unwrap_or(0),
    }
}

/// Process peak RSS in KiB from /proc/self/status (Linux; 0 elsewhere).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn render_json(seed: u64, points: &[PointResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"deterministic_fields\": [\"events\", \"completed\", \"delivered_bytes\", \"packet_pool_high_water\"],"
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"flows\": {},", p.flows);
        let _ = writeln!(out, "      \"events\": {},", p.events);
        let _ = writeln!(out, "      \"completed\": {},", p.completed);
        let _ = writeln!(out, "      \"delivered_bytes\": {},", p.delivered_bytes);
        let _ = writeln!(
            out,
            "      \"packet_pool_high_water\": {},",
            p.packet_pool_high_water
        );
        let _ = writeln!(out, "      \"wall_s\": {:.3},", p.wall_s);
        let _ = writeln!(out, "      \"events_per_s\": {:.0},", p.events_per_s);
        let _ = writeln!(out, "      \"vm_hwm_kb\": {}", p.vm_hwm_kb);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn u64_field(v: &json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .filter(|x| x.is_finite())
        .map(|x| x as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Compare already-computed sweep results against the committed baseline
/// file. Only deterministic fields are compared; timing fields are
/// reported but never gated. Returns the number of mismatches.
fn check(baseline_path: &str, results: &[PointResult], seed: u64) -> Result<usize, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("{baseline_path}: unexpected schema"));
    }
    let base_seed = u64_field(&doc, "seed")?;
    if base_seed != seed {
        return Err(format!(
            "{baseline_path} was generated with seed {base_seed}, check requested seed {seed}"
        ));
    }
    let base_points = doc
        .get("points")
        .and_then(|p| p.as_arr())
        .ok_or("missing points array")?;
    let mut failures = 0;
    for got in results {
        let flows = got.flows;
        let Some(base) = base_points
            .iter()
            .find(|p| u64_field(p, "flows") == Ok(flows as u64))
        else {
            println!("FAIL {flows:>7} flows: no such point in {baseline_path}");
            failures += 1;
            continue;
        };
        let want = [
            ("events", u64_field(base, "events")?, got.events),
            (
                "completed",
                u64_field(base, "completed")?,
                got.completed as u64,
            ),
            (
                "delivered_bytes",
                u64_field(base, "delivered_bytes")?,
                got.delivered_bytes,
            ),
            (
                "packet_pool_high_water",
                u64_field(base, "packet_pool_high_water")?,
                got.packet_pool_high_water as u64,
            ),
        ];
        let bad: Vec<String> = want
            .iter()
            .filter(|(_, base, got)| base != got)
            .map(|(name, base, got)| format!("{name}: baseline {base}, got {got}"))
            .collect();
        if bad.is_empty() {
            println!(
                "ok   {:>7} flows: {} events in {:.2} s ({:.2} M events/s, peak RSS {} MiB)",
                flows,
                got.events,
                got.wall_s,
                got.events_per_s / 1e6,
                got.vm_hwm_kb / 1024,
            );
        } else {
            println!("FAIL {:>7} flows: {}", flows, bad.join("; "));
            failures += 1;
        }
    }
    Ok(failures)
}

struct Args {
    points: Vec<usize>,
    seed: u64,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        points: DEFAULT_POINTS.to_vec(),
        seed: 42,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--points" => {
                args.points = val()?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = Some(val()?),
            "--check" => args.check = Some(val()?),
            "--help" | "-h" => {
                return Err(
                    "usage: simbench [--points N,N,...] [--seed N] [--out FILE] [--check FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.points.is_empty() {
        return Err("--points must name at least one flow count".into());
    }
    // Ascending order keeps the VmHWM samples attributable.
    args.points.sort_unstable();
    args.points.dedup();
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let mut results = Vec::with_capacity(args.points.len());
    for &flows in &args.points {
        let r = run_point(flows, args.seed);
        println!(
            "{:>7} flows: {:>11} events in {:>7.2} s  ({:>6.2} M events/s, {:>4} completed, peak RSS {} MiB)",
            r.flows,
            r.events,
            r.wall_s,
            r.events_per_s / 1e6,
            r.completed,
            r.vm_hwm_kb / 1024,
        );
        results.push(r);
    }

    let mut exit = 0;
    if let Some(baseline) = &args.check {
        match check(baseline, &results, args.seed) {
            Ok(0) => println!("simbench check: all points match the committed baseline"),
            Ok(n) => {
                eprintln!("simbench check: {n} point(s) drifted from {baseline}");
                exit = 1;
            }
            Err(msg) => {
                eprintln!("simbench check: {msg}");
                exit = 2;
            }
        }
    }

    match &args.out {
        Some(path) => {
            let doc = render_json(args.seed, &results);
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("cannot write {path}: {e}");
                exit = 2;
            } else {
                println!("wrote {path}");
            }
        }
        None if args.check.is_none() => print!("{}", render_json(args.seed, &results)),
        None => {}
    }
    std::process::exit(exit);
}
