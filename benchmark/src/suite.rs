//! The whole benchmark in one command: every workload in a child process of
//! its own (so peak memory and allocator counts are per workload), first with
//! tracing off for the end-to-end metrics, then traced for the per-layer
//! ones; the tables; `results.json`. And the comparison of two such results
//! against the bounds, which is what `selfcheck.sh` runs.

use crate::report::{num, obj, short, text};
use crate::run::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use qtp_bench::json::{self, Value};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The traced pass needs a few repetitions, not a steady median.
const TRACE_SECONDS: f64 = 4.0;

/// Workloads whose counts are a pure function of the seed: their count
/// metrics must match bit for bit between two runs.
const EXACT_WORKLOADS: [&str; 3] = ["pipe_bulk", "pipe_lossy_vlbi", "sim_manyflow"];
const EXACT_METRICS: [&str; 3] = [
    "allocs_per_dgram",
    "alloc_bytes_per_dgram",
    "wire_overhead_ratio",
];

/// Run one workload in a child; its result line, parsed.
fn child(a: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = if trace {
        a.seconds.min(TRACE_SECONDS)
    } else {
        a.seconds
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v = json::parse(line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload}: run failed or was not correct ({})",
            out.status
        ));
    }
    Ok(v)
}

fn value_of(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn print_table(title: &str, rows: &[(&str, &str)], results: &[(&str, Value)]) {
    println!("\n{title}");
    print!("{:<38} {:<7}", "metric", "unit");
    for (w, _) in results {
        print!(" {w:>16}");
    }
    println!();
    for (name, unit) in rows {
        print!("{name:<38} {unit:<7}");
        for (_, r) in results {
            print!(" {:>16}", short(value_of(r, name)));
        }
        println!();
    }
}

/// Where the time of one datagram goes, on the protocol-only pipe and on the
/// CPU-bound socket path. Nested layers are priced by replay and overlap the
/// layer that calls them; the residual is stated, not hidden.
fn print_layer_table(traced: &[(&str, Value)]) {
    let of = |w: &str, m: &str| {
        traced
            .iter()
            .find(|(name, _)| *name == w)
            .and_then(|(_, r)| value_of(r, m))
            .unwrap_or(0.0)
    };
    let (pipe, fan) = ("pipe_bulk", "mux_fanout16");
    // Span times carry the tracing overhead, so shares are taken of the
    // traced repetitions' wall time per datagram, not the untraced one.
    let traced_wall =
        |w: &str| of(w, "harness.wall_ns_per_dgram") * of(w, "harness.trace_overhead_ratio");
    let (pipe_wall, fan_wall) = (traced_wall(pipe), traced_wall(fan));
    let fb_share = |w: &str| {
        let fb = of(w, "session.fb_per_data_dgram");
        fb / (1.0 + fb)
    };
    let data = |w: &str| 1.0 - fb_share(w);
    let wire = |w: &str| of(w, "wire.decode_ns_per_pkt") + of(w, "wire.encode_ns_per_pkt");
    let sack = |w: &str| {
        of(w, "sack.scoreboard_ns_per_feedback") * fb_share(w)
            + of(w, "sack.reassembly_ns_per_pkt") * data(w)
    };
    let cc = |w: &str| {
        of(w, "tfrc.detector_ns_per_pkt") * data(w) + of(w, "cc.feedback_ns") * fb_share(w)
    };
    let frame = of(fan, "frame.encode_ns_per_dgram") + of(fan, "frame.decode_ns_per_dgram");
    let wheel = of(fan, "wheel.ns_per_timer") * of(fan, "mux.timers_per_dgram");
    // (layer, source, ns per datagram on pipe_bulk, on mux_fanout16, allocations per datagram)
    let rows: [(&str, &str, f64, f64, f64); 11] = [
        (
            "stream",
            "spans",
            of(pipe, "stream.ns_per_dgram"),
            of(fan, "stream.ns_per_dgram"),
            0.0,
        ),
        (
            "session",
            "spans",
            of(pipe, "session.ns_per_dgram"),
            0.0,
            of(pipe, "session.allocs_per_dgram"),
        ),
        (
            "  wire (inside session)",
            "replay",
            wire(pipe),
            wire(fan),
            of(pipe, "wire.allocs_per_pkt"),
        ),
        (
            "  sack (inside session)",
            "replay",
            sack(pipe),
            sack(fan),
            0.0,
        ),
        (
            "  tfrc + cc (inside session)",
            "replay",
            cc(pipe),
            cc(fan),
            0.0,
        ),
        (
            "mux drive_once (all below)",
            "spans",
            0.0,
            of(fan, "mux.drive_ns_per_dgram"),
            0.0,
        ),
        (
            "  frame (inside mux)",
            "replay",
            0.0,
            frame,
            of(fan, "frame.allocs_per_dgram"),
        ),
        (
            "  ingest: decode, route, dispatch",
            "replay",
            0.0,
            of(fan, "mux.ingest_ns_per_dgram"),
            0.0,
        ),
        ("  wheel (inside mux)", "replay", 0.0, wheel, 0.0),
        (
            "  socket floor (kernel)",
            "replay",
            0.0,
            of(fan, "socket.floor_us_per_dgram") * 1e3,
            0.0,
        ),
        (
            "  mux minus pipe",
            "counts",
            0.0,
            0.0,
            of(fan, "mux.allocs_per_dgram"),
        ),
    ];
    println!("\nper-layer cost of one datagram (traced wall {pipe_wall:.0} ns on {pipe}, {fan_wall:.0} ns on {fan})");
    println!(
        "{:<34} {:<7} {:>12} {:>8} {:>12} {:>8} {:>12}",
        "layer", "from", "ns pipe", "share", "ns fanout", "share", "allocs/dgram"
    );
    let share = |ns: f64, wall: f64| {
        if wall > 0.0 && ns > 0.0 {
            format!("{:.1}%", 100.0 * ns / wall)
        } else {
            "-".into()
        }
    };
    for (layer, how, p, f, allocs) in rows {
        println!(
            "{layer:<34} {how:<7} {:>12} {:>8} {:>12} {:>8} {:>12}",
            if p > 0.0 {
                format!("{p:.0}")
            } else {
                "-".into()
            },
            share(p, pipe_wall),
            if f > 0.0 {
                format!("{f:.0}")
            } else {
                "-".into()
            },
            share(f, fan_wall),
            if allocs != 0.0 {
                format!("{allocs:.2}")
            } else {
                "-".into()
            },
        );
    }
    println!(
        "residual (harness: pattern, verify, queues): {:.1}% of {pipe}, {:.1}% of {fan}; tracing overhead x{:.3} / x{:.3}",
        100.0 * of(pipe, "harness.attribution_residual_ratio"),
        100.0 * of(fan, "harness.attribution_residual_ratio"),
        of(pipe, "harness.trace_overhead_ratio"),
        of(fan, "harness.trace_overhead_ratio"),
    );
}

pub fn run(a: &Args) -> ExitCode {
    println!(
        "qtpperf suite: seed {}, {} s per workload{} — all socket traffic crosses the host's loopback interface, never a real link",
        a.seed,
        a.seconds,
        if a.quick { ", quick (1 repetition, 1/16 size)" } else { "" },
    );
    let mut plain: Vec<(&str, Value)> = Vec::new();
    let mut traced: Vec<(&str, Value)> = Vec::new();
    for (pass, results) in [(false, &mut plain), (true, &mut traced)] {
        for (w, _) in WORKLOADS {
            eprintln!("qtpperf suite: {w} (trace {})", u8::from(pass));
            match child(a, w, pass) {
                Ok(v) => results.push((w, v)),
                Err(e) => {
                    eprintln!("qtpperf suite: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    print_table(
        "end-to-end (tracing off; medians over repetitions)",
        &e2e,
        &plain,
    );
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    print_table(
        "per-layer (traced pass and isolated replays)",
        &layers,
        &traced,
    );
    print_layer_table(&traced);

    let detail = |w: &str, trace: u8| {
        std::fs::read_to_string(a.out.join(format!("run-{w}-trace{trace}.json")))
            .ok()
            .and_then(|s| json::parse(&s).ok())
            .unwrap_or(Value::Null)
    };
    let workloads = WORKLOADS
        .iter()
        .zip(plain.iter().zip(&traced))
        .map(|((w, why), (p, t))| {
            (
                *w,
                obj([
                    ("why", text(*why)),
                    (
                        "attempted",
                        p.1.get("attempted").cloned().unwrap_or(Value::Null),
                    ),
                    ("failed", p.1.get("failed").cloned().unwrap_or(Value::Null)),
                    (
                        "end_to_end",
                        p.1.get("metrics").cloned().unwrap_or(Value::Null),
                    ),
                    (
                        "per_layer",
                        t.1.get("metrics").cloned().unwrap_or(Value::Null),
                    ),
                    ("detail", detail(w, 0)),
                ]),
            )
        });
    let results = obj([
        ("schema", text("qtpperf/v1")),
        ("seed", num(a.seed as f64)),
        ("seconds", num(a.seconds)),
        ("quick", Value::Bool(a.quick)),
        ("network", text("host loopback interface, not a link")),
        ("host", crate::host()),
        ("workloads", obj(workloads)),
    ]);
    crate::write_json(&a.out, "results.json", &results);
    println!("\nwrote {}", a.out.join("results.json").display());
    ExitCode::SUCCESS
}

fn load(path: &Path) -> Result<Value, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&s).map_err(|e| format!("{}: {e}", path.display()))
}

/// Two results of the same code must agree: every end-to-end metric of every
/// workload within its bound, exact counts bit for bit.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("qtpperf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let value = |r: &Value, w: &str, m: &str| {
        r.get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .get("value")?
            .as_f64()
    };
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    let mut failures = 0;
    for (w, _) in WORKLOADS {
        for (m, _, _, bound) in END_TO_END {
            let (Some(x), Some(y)) = (value(&ra, w, m), value(&rb, w, m)) else {
                println!("{w:<16} {m:<24} missing from one of the results  FAIL");
                failures += 1;
                continue;
            };
            let exact = EXACT_WORKLOADS.contains(&w) && EXACT_METRICS.contains(&m);
            let differ = (y - x).abs() / x.abs();
            let ok = if exact {
                x.to_bits() == y.to_bits()
            } else {
                differ <= bound
            };
            failures += usize::from(!ok);
            println!(
                "{w:<16} {m:<24} {:>14} {:>14} {:>8.2}% {:>7}  {}",
                short(Some(x)),
                short(Some(y)),
                100.0 * differ,
                if exact {
                    "exact".into()
                } else {
                    format!("{:.0}%", 100.0 * bound)
                },
                if ok { "ok" } else { "FAIL" },
            );
        }
    }
    if failures == 0 {
        println!("selfcheck: both runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {failures} metric(s) disagree beyond their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_values_are_found_by_metric_name() {
        let r = obj([(
            "metrics",
            obj([("goodput_mbps", crate::report::metric(18.5, "Mbit/s"))]),
        )]);
        assert_eq!(value_of(&r, "goodput_mbps"), Some(18.5));
        assert_eq!(value_of(&r, "setup_s"), None);
    }
}
