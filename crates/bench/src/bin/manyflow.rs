//! `manyflow` — the many-flow dumbbell scenario family runner.
//!
//! Runs N concurrent QTP connections with mixed capability profiles and
//! prints per-flow goodput, completion time and the Jain fairness index:
//!
//! ```text
//! manyflow --flows 1000 --seed 42                 # deterministic sim run
//! manyflow --flows 64 --mode mux                  # real sockets, one pair
//! manyflow --flows 200 --profiles qtpaf,tfrc --per-flow
//! ```
//!
//! Sim-mode output is byte-identical for a fixed seed (CI diffs two runs).

use qtp_bench::manyflow::{run_mux_loopback, run_sim, ManyFlowConfig, ProfileKind};
use std::time::Duration;

struct Args {
    flows: usize,
    seed: u64,
    packets: u64,
    secs: u64,
    mode: String,
    profiles: Vec<ProfileKind>,
    per_flow: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            flows: 100,
            seed: 42,
            packets: 30,
            secs: 120,
            mode: "sim".into(),
            profiles: ProfileKind::MIXED.to_vec(),
            per_flow: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--flows" => args.flows = val()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("{e}"))?,
            "--packets" => args.packets = val()?.parse().map_err(|e| format!("{e}"))?,
            "--secs" => args.secs = val()?.parse().map_err(|e| format!("{e}"))?,
            "--mode" => args.mode = val()?,
            "--profiles" => {
                args.profiles = val()?
                    .split(',')
                    .map(ProfileKind::parse)
                    .collect::<Result<_, _>>()?;
            }
            "--per-flow" => args.per_flow = true,
            "--help" | "-h" => {
                return Err(
                    "usage: manyflow [--flows N] [--seed N] [--packets N] [--secs N] \
                     [--mode sim|mux] [--profiles qtpaf,qtplight,qtplight-ttl,tfrc,cubic,bbr-lite] \
                     [--per-flow]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.flows == 0 {
        return Err("--flows must be at least 1".into());
    }
    if args.profiles.is_empty() {
        return Err("--profiles must name at least one profile".into());
    }
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
    let mut cfg = ManyFlowConfig::new(args.flows);
    cfg.seed = args.seed;
    cfg.packets_per_flow = args.packets;
    cfg.horizon = Duration::from_secs(args.secs);
    cfg.profiles = args.profiles;

    println!(
        "manyflow: {} flows over one {} bottleneck ({} pkts/flow, seed {}, mode {})\n",
        cfg.flows, cfg.bottleneck, cfg.packets_per_flow, cfg.seed, args.mode,
    );
    let detail = if args.per_flow { usize::MAX } else { 10 };
    let report = match args.mode.as_str() {
        "sim" => run_sim(&cfg),
        "mux" => match run_mux_loopback(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mux run failed: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("unknown mode {other} (sim|mux)");
            std::process::exit(2);
        }
    };
    print!("{}", report.render(detail));
    if report.completed < report.outcomes.len() {
        eprintln!(
            "warning: {}/{} flows did not complete within the horizon",
            report.outcomes.len() - report.completed,
            report.outcomes.len(),
        );
        std::process::exit(1);
    }
}
