//! `qtpperf`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! qtpperf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one workload
//! qtpperf --suite [--seed <n>] [--seconds <s>] [--quick]             every workload, both passes
//! qtpperf --compare <a/results.json> <b/results.json>                two suites, against the bounds
//! ```
//!
//! One run prints every metric by name with its unit and, as its last line,
//! one JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! correctness violation names the workload and the first bad offset and
//! exits non-zero. All socket traffic crosses the host's loopback interface,
//! never a real link.

mod alloc;
mod app;
mod mux;
mod pattern;
mod pipe;
mod replay;
mod report;
mod run;
mod sim;
mod span;
mod stats;
mod suite;
mod sys;

use qtp_bench::json::Value;
use report::{metric, num, obj, text};
use run::{Opts, RunOut, Violation, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const MIB: u64 = 1 << 20;
/// Spans written to a trace file; the totals beside them cover all spans.
const TRACE_FILE_SPANS: usize = 50_000;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    suite: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out: PathBuf,
    corrupt_at: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        suite: false,
        compare: None,
        out: PathBuf::from("benchmark/out"),
        corrupt_at: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? != "0",
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--corrupt-at" => {
                a.corrupt_at = Some(
                    value("a stream position")?
                        .parse()
                        .map_err(|e| format!("--corrupt-at: {e}"))?,
                )
            }
            "--compare" => {
                a.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--quick" => a.quick = true,
            "--suite" => a.suite = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

/// Build the named workload; `--quick` runs sixteenth-size repetitions.
fn workload(name: &str, a: &Args) -> Option<Box<dyn Workload>> {
    let div = if a.quick { 16 } else { 1 };
    let pipe = |spec| {
        Box::new(pipe::PipeWorkload {
            spec,
            seed: a.seed,
            corrupt_at: a.corrupt_at,
        })
    };
    Some(match name {
        "mux_bulk1" => Box::new(mux::BulkWorkload {
            name: "mux_bulk1",
            conns: 1,
            bytes_per_conn: 2 * MIB / div,
            seed: a.seed,
        }),
        "mux_fanout16" => Box::new(mux::BulkWorkload {
            name: "mux_fanout16",
            conns: 16,
            bytes_per_conn: 4 * MIB / div,
            seed: a.seed,
        }),
        "mux_chat" => Box::new(mux::ChatWorkload {
            exchanges: 2000 / div,
            seed: a.seed,
        }),
        "pipe_bulk" => pipe(pipe::PipeSpec::bulk(128 * MIB / div)),
        "pipe_lossy_vlbi" => pipe(pipe::PipeSpec::lossy_vlbi(64 * MIB / div)),
        "sim_manyflow" => Box::new(sim::SimWorkload::new(3162 / div as usize, a.seed)),
        _ => return None,
    })
}

/// `{name: {"value", "unit"}}`, as every result reports its metrics.
fn metrics_obj(metrics: &[(&'static str, f64)]) -> Value {
    obj(metrics
        .iter()
        .map(|(n, v)| (*n, metric(*v, run::unit_of(n)))))
}

/// Where a result was measured (see [`sys::host_stamps`]).
fn host() -> Value {
    obj(sys::host_stamps().into_iter().map(|(k, v)| (k, text(v))))
}

/// Median, quartiles and count of a per-repetition series, for the detail file.
fn series(xs: &[f64]) -> Value {
    let (q1, med, q3) = stats::quartiles(xs);
    obj([
        ("median", num(med)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", num(xs.len() as f64)),
        ("values", Value::Arr(xs.iter().map(|x| num(*x)).collect())),
    ])
}

fn detail(out: &RunOut, a: &Args, metrics: &[(&'static str, f64)]) -> Value {
    let rep = |f: &dyn Fn(&run::Rep) -> f64| -> Vec<f64> { out.reps.iter().map(f).collect() };
    let mut latency = vec![("n", num(out.lat_us.len() as f64))];
    for (q, label) in [(0.5, "p50")].into_iter().chain(stats::TAILS) {
        latency.push((label, num(stats::percentile_sorted(&out.lat_us, q))));
    }
    obj([
        ("workload", text(out.workload)),
        ("seed", num(a.seed as f64)),
        ("seconds", num(a.seconds)),
        ("quick", Value::Bool(a.quick)),
        ("traced", Value::Bool(a.trace)),
        ("repetitions", num(out.reps.len() as f64)),
        ("traced_repetitions", num(out.traced.len() as f64)),
        ("host", host()),
        ("metrics", metrics_obj(metrics)),
        (
            "per_repetition",
            obj([
                ("setup_s", series(&out.setups_s)),
                ("goodput_mbps", series(&out.goodputs_mbps())),
                ("wall_s", series(&rep(&|r| r.wall_s))),
                ("cpu_s", series(&rep(&|r| r.cpu_s))),
                ("dgrams", series(&rep(&|r| r.dgrams as f64))),
                ("app_bytes", series(&rep(&|r| r.app_bytes as f64))),
                ("wire_bytes", series(&rep(&|r| r.wire_bytes as f64))),
                ("allocs", series(&rep(&|r| r.allocs as f64))),
                ("alloc_bytes", series(&rep(&|r| r.alloc_bytes as f64))),
                ("lat_p50_us", series(&rep(&|r| r.lat_p50_us))),
                ("lat_p99_us", series(&rep(&|r| r.lat_p99_us))),
            ]),
        ),
        ("msg_latency_us", obj(latency)),
    ])
}

/// The span file of a traced run: totals per name over every span, and the
/// first spans themselves.
fn trace_file(out: &RunOut) -> Value {
    let s = &out.spans;
    let kept = s.kept();
    let shown = &kept[..kept.len().min(TRACE_FILE_SPANS)];
    let totals = (0..s.names().len() as span::NameId).map(|id| {
        let t = s.totals(id);
        (
            s.name(id),
            obj([
                ("count", num(t.count as f64)),
                ("total_ns", num(t.total_ns as f64)),
                ("self_ns", num(t.self_ns as f64)),
                ("allocs", num(t.allocs as f64)),
            ]),
        )
    });
    obj([
        ("workload", text(out.workload)),
        ("spans_closed", num(s.closed as f64)),
        ("spans_listed", num(shown.len() as f64)),
        ("totals", obj(totals)),
        (
            "spans",
            Value::Arr(
                shown
                    .iter()
                    .map(|sp| {
                        obj([
                            ("name", text(s.name(sp.name))),
                            ("start_ns", num(sp.start_ns as f64)),
                            ("end_ns", num(sp.end_ns as f64)),
                            (
                                "parent",
                                if sp.parent == u32::MAX {
                                    Value::Null
                                } else {
                                    num(f64::from(sp.parent))
                                },
                            ),
                            ("rep", num(f64::from(sp.rep))),
                            ("allocs", num(f64::from(sp.allocs))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_json(dir: &Path, file: &str, v: &Value) {
    let res = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(file), report::to_string(v) + "\n"));
    if let Err(e) = res {
        eprintln!("qtpperf: could not write {}: {e}", dir.join(file).display());
    }
}

/// The last line of a run, exactly as the acceptance driver reads it.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    report::to_string(&obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted.max(1) as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics_obj(metrics)),
    ]))
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let Some(mut w) = workload(name, a) else {
        let known: Vec<&str> = run::WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "qtpperf: unknown workload {name}; known: {}",
            known.join(" ")
        );
        return ExitCode::from(2);
    };
    println!(
        "qtpperf {name}: seed {}, {} s, trace {}{} — all socket traffic crosses the host's loopback interface, never a real link",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.quick { ", quick (1/16 size)" } else { "" },
    );
    let opts = Opts {
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
    };
    let measured = run::execute(w.as_mut(), &opts).and_then(|out| {
        let metrics = if a.trace {
            let own = out.layer_metrics();
            let e2e = out.end_to_end();
            let allocs_per_dgram = e2e
                .iter()
                .find(|m| m.0 == "allocs_per_dgram")
                .map_or(0.0, |m| m.1);
            let replayed = replay::canonical(a.seed)?
                .layer_metrics(allocs_per_dgram, name.starts_with("mux_"))?;
            // Table order, whichever source a metric came from.
            run::PER_LAYER
                .iter()
                .map(|(n, ..)| {
                    let v = own.iter().chain(&replayed).find(|m| m.0 == *n);
                    (*n, v.unwrap_or_else(|| panic!("no source for {n}")).1)
                })
                .collect()
        } else {
            out.end_to_end()
        };
        Ok((out, metrics))
    });
    match measured {
        Ok((out, metrics)) => {
            for (n, v) in &metrics {
                println!(
                    "  {n:<36} {:>16} {}",
                    report::short(Some(*v)),
                    run::unit_of(n)
                );
            }
            if let Some((q, label)) = stats::highest_supported_tail(out.lat_us.len()) {
                println!(
                    "  msg_latency {label} (highest tail with 10 samples beyond it, of {}): {:.1} us",
                    out.lat_us.len(),
                    stats::percentile_sorted(&out.lat_us, q),
                );
            }
            let suffix = format!("{name}-trace{}.json", u8::from(a.trace));
            write_json(&a.out, &format!("run-{suffix}"), &detail(&out, a, &metrics));
            if a.trace {
                write_json(&a.out, &format!("trace-{name}.json"), &trace_file(&out));
            }
            let bad = metrics.iter().find(|(_, v)| !v.is_finite());
            let correct = out.failed() == 0 && bad.is_none();
            if let Some((n, v)) = bad {
                eprintln!("qtpperf {name}: metric {n} is not a number ({v})");
            }
            if out.failed() > 0 {
                eprintln!(
                    "qtpperf {name}: {} of {} operations were not completed and verified",
                    out.failed(),
                    out.attempted()
                );
            }
            println!(
                "{}",
                result_line(correct, out.attempted(), out.failed(), &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(Violation { what, offset }) => {
            eprintln!("qtpperf {name}: CORRECTNESS VIOLATION at offset {offset}: {what}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qtpperf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    match &args.workload {
        Some(name) if !args.suite => run_one(name, &args),
        _ => suite::run(&args),
    }
}
