//! `qtpsim` — one-off scenario runner.
//!
//! Runs a single transport over a configurable two-host path and prints a
//! summary, so a user can poke at the protocols without writing a driver:
//!
//! ```text
//! qtpsim --protocol qtpaf --target-mbps 4 --loss 0.01 --rtt-ms 80 --secs 30
//! qtpsim --protocol tcp --rate-mbps 5 --loss 0.02
//! qtpsim --protocol qtplight --gilbert 0.01,0.3,0.0,0.5
//! ```

use qtp_core::session::{attach_pair, ConnectionPlan, Profile};
use qtp_simnet::prelude::*;
use qtp_tcp::{attach_tcp, TcpFlavor};
use std::time::Duration;

#[derive(Debug)]
struct Args {
    protocol: String,
    rate_mbps: f64,
    rtt_ms: u64,
    loss: f64,
    gilbert: Option<(f64, f64, f64, f64)>,
    target_mbps: f64,
    secs: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocol: "qtplight".into(),
            rate_mbps: 10.0,
            rtt_ms: 60,
            loss: 0.0,
            gilbert: None,
            target_mbps: 2.0,
            secs: 30,
            seed: 42,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--protocol" => args.protocol = val()?,
            "--rate-mbps" => args.rate_mbps = val()?.parse().map_err(|e| format!("{e}"))?,
            "--rtt-ms" => args.rtt_ms = val()?.parse().map_err(|e| format!("{e}"))?,
            "--loss" => args.loss = val()?.parse().map_err(|e| format!("{e}"))?,
            "--gilbert" => {
                let v = val()?;
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|x| x.parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 4 {
                    return Err("--gilbert wants p_gb,p_bg,loss_good,loss_bad".into());
                }
                args.gilbert = Some((parts[0], parts[1], parts[2], parts[3]));
            }
            "--target-mbps" => args.target_mbps = val()?.parse().map_err(|e| format!("{e}"))?,
            "--secs" => args.secs = val()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                return Err(
                    "usage: qtpsim [--protocol tcp|tcp-sack|tfrc|qtplight|qtpaf] \
                     [--rate-mbps N] [--rtt-ms N] [--loss P] \
                     [--gilbert p_gb,p_bg,lg,lb] [--target-mbps N] [--secs N] [--seed N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
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
    let loss = match args.gilbert {
        Some((a, b, c, d)) => LossModel::gilbert_elliott(a, b, c, d),
        None if args.loss > 0.0 => LossModel::bernoulli(args.loss),
        None => LossModel::None,
    };
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    let one_way = Duration::from_micros(args.rtt_ms * 500);
    b.simplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps_f64(args.rate_mbps), one_way)
            .with_loss(loss.clone())
            .with_queue(QueueConfig::DropTailPkts(300)),
    );
    b.simplex_link(
        r,
        s,
        LinkConfig::new(Rate::from_mbps_f64(args.rate_mbps), one_way),
    );
    let mut sim = b.build(args.seed);
    sim.set_sample_interval(Duration::from_secs(1));

    println!(
        "qtpsim: {} over {:.1} Mbit/s, RTT {} ms, loss model {:?} ({} s, seed {})\n",
        args.protocol,
        args.rate_mbps,
        args.rtt_ms,
        loss.steady_state_loss(),
        args.secs,
        args.seed
    );

    let secs = Duration::from_secs(args.secs);
    match args.protocol.as_str() {
        "tcp" | "tcp-sack" => {
            let flavor = if args.protocol == "tcp" {
                TcpFlavor::NewReno
            } else {
                TcpFlavor::Sack
            };
            let data = attach_tcp(&mut sim, s, r, flavor);
            sim.run_until(SimTime::from_secs(args.secs));
            let f = sim.stats().flow(data);
            println!("throughput: {:.3} Mbit/s", f.throughput_bps(secs) / 1e6);
            println!("goodput:    {:.3} Mbit/s", f.goodput_bps(secs) / 1e6);
            println!("network loss rate: {:.4}", f.loss_rate());
        }
        proto @ ("tfrc" | "qtplight" | "qtpaf") => {
            let profile = match proto {
                "tfrc" => Profile::tfrc(),
                "qtplight" => Profile::qtp_light(),
                _ => Profile::qtp_af(Rate::from_mbps_f64(args.target_mbps)),
            };
            let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(profile));
            sim.run_until(SimTime::from_secs(args.secs));
            let f = sim.stats().flow(h.data_flow);
            println!("throughput: {:.3} Mbit/s", f.throughput_bps(secs) / 1e6);
            println!("goodput:    {:.3} Mbit/s", f.goodput_bps(secs) / 1e6);
            println!("network loss rate: {:.4}", f.loss_rate());
            let (tx, rx) = (h.tx_tracer.counters(), h.rx_tracer.counters());
            println!(
                "sender: {} data pkts ({} retx, {} abandoned), rtt est {:.1} ms",
                tx.data_pkts_tx,
                tx.retransmits,
                tx.abandoned,
                tx.srtt_s * 1e3
            );
            println!(
                "receiver: {:.1} ops/pkt, peak state {} B, {} feedback pkts",
                rx.ops_per_data_pkt(),
                rx.state_bytes_peak,
                rx.feedbacks_tx
            );
            if proto == "qtpaf" {
                println!(
                    "target: {:.1} Mbit/s -> achieved {:.2} of g",
                    args.target_mbps,
                    f.throughput_bps(secs) / (args.target_mbps * 1e6)
                );
            }
        }
        other => {
            eprintln!("unknown protocol {other}");
            std::process::exit(2);
        }
    }
    println!("\nper-second arrival rate (Mbit/s):");
    let series = sim
        .stats()
        .flow(0)
        .arrive_series_bps(Duration::from_secs(1));
    for (i, bps) in series.iter().enumerate() {
        println!(
            "  t={:>3}s {:>8.2}  {}",
            i + 1,
            bps / 1e6,
            "#".repeat((bps / 4e5) as usize)
        );
    }
}
