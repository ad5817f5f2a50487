//! `qtptrace` — run a scenario with the observability plane on.
//!
//! Runs the many-flow dumbbell scenario on the deterministic simulator
//! with every endpoint's tracer registered, then emits the qlog-style
//! JSON-lines trace followed by a human per-connection summary (counter
//! totals, rate timeline, loss events, retransmit map):
//!
//! ```text
//! qtptrace --flows 2 --packets 20 --seed 42            # trace + summary
//! qtptrace --flows 8 --qlog /tmp/run.qlog --per-conn   # trace to a file
//! qtptrace --flows 2 --no-qlog                         # summary only
//! ```
//!
//! Everything printed derives from simulated time and integer counters,
//! so a fixed seed reproduces the full output byte-for-byte (CI diffs a
//! committed golden).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use qtp_bench::manyflow::{run_sim_traced, ManyFlowConfig, ProfileKind};
use qtp_metrics::trace::{QlogWriter, Tee, TraceEvent, TraceEventKind, TraceRegistry, TraceSink};

/// Sink keeping the full event stream for the post-run summary (the
/// qlog writer flattens to text; the summary wants typed events).
#[derive(Default)]
struct CollectSink {
    events: Vec<TraceEvent>,
}

impl TraceSink for CollectSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

struct Args {
    flows: usize,
    seed: u64,
    packets: u64,
    secs: u64,
    profiles: Vec<ProfileKind>,
    qlog: Option<String>,
    no_qlog: bool,
    timeline: usize,
    bottleneck_kbps: Option<u64>,
    reorder_ms: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            flows: 2,
            seed: 42,
            packets: 20,
            secs: 120,
            profiles: ProfileKind::MIXED.to_vec(),
            qlog: None,
            no_qlog: false,
            timeline: 6,
            bottleneck_kbps: None,
            reorder_ms: None,
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
            "--timeline" => args.timeline = val()?.parse().map_err(|e| format!("{e}"))?,
            "--bottleneck" => {
                args.bottleneck_kbps = Some(val()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--reorder-ms" => args.reorder_ms = Some(val()?.parse().map_err(|e| format!("{e}"))?),
            "--profiles" => {
                args.profiles = val()?
                    .split(',')
                    .map(ProfileKind::parse)
                    .collect::<Result<_, _>>()?;
            }
            "--qlog" => args.qlog = Some(val()?),
            "--no-qlog" => args.no_qlog = true,
            "--help" | "-h" => {
                return Err(
                    "usage: qtptrace [--flows N] [--seed N] [--packets N] [--secs N] \
                     [--profiles qtpaf,qtplight,qtplight-ttl,tfrc,cubic,bbr-lite] \
                     [--bottleneck KBPS] \
                     [--reorder-ms N] [--qlog FILE] [--no-qlog] [--timeline N]"
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

/// Per-connection summary: counter totals, a sampled rate timeline, the
/// loss events and the retransmit map — the "what did this flow do"
/// digest of the raw trace.
fn summarize(registry: &TraceRegistry, events: &[TraceEvent], timeline: usize) -> String {
    use std::fmt::Write as _;
    let mut by_conn: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        by_conn.entry(ev.conn).or_default().push(ev);
    }
    let mut s = String::new();
    for (conn, label, c) in registry.connections() {
        let evs = by_conn.remove(&conn).unwrap_or_default();
        let _ = writeln!(s, "conn {conn} [{label}]: {} events", evs.len());
        let _ = writeln!(
            s,
            "  counters: tx {} pkts / {} B, rx {} pkts / {} B, retx {}, ttl drops {}, \
             abandoned {}, loss events {}, rate updates {}, timers {}/{}/{} set/fired/stale, \
             soft errors {}",
            c.pkts_tx,
            c.bytes_tx,
            c.pkts_rx,
            c.bytes_rx,
            c.retransmits,
            c.ttl_drops,
            c.abandoned,
            c.loss_events,
            c.rate_updates,
            c.timers_set,
            c.timer_fires,
            c.timers_cancelled,
            c.soft_errors,
        );
        // Controller counters appear only for window/model controllers
        // (CUBIC, BBR-lite), so TFRC-family goldens keep their exact shape.
        if c.cc_state_updates > 0 || c.cc_phase_changes > 0 {
            let _ = writeln!(
                s,
                "  cc counters: {} state updates, {} phase changes, startup exit {} us",
                c.cc_state_updates, c.cc_phase_changes, c.bbr_startup_exit_us,
            );
        }

        let rates: Vec<&&TraceEvent> = evs
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::RateUpdate { .. }))
            .collect();
        if !rates.is_empty() {
            let _ = writeln!(s, "  rate timeline ({} updates):", rates.len());
            // Evenly sampled, endpoints included, ≤ `timeline` rows.
            let n = rates.len();
            let rows = timeline.max(2).min(n);
            let mut printed = std::collections::BTreeSet::new();
            for r in 0..rows {
                let i = if rows == 1 {
                    0
                } else {
                    r * (n - 1) / (rows - 1)
                };
                if !printed.insert(i) {
                    continue;
                }
                if let TraceEventKind::RateUpdate {
                    rate_bps,
                    p_ppm,
                    rtt_us,
                } = rates[i].kind
                {
                    let _ = writeln!(
                        s,
                        "    t={} rate {} kbit/s  p {}.{:04}%  rtt {} us",
                        rates[i].time_str(),
                        rate_bps / 1000,
                        p_ppm / 10_000,
                        p_ppm % 10_000,
                        rtt_us,
                    );
                }
            }
        }

        // Window/model controller timeline (cwnd for CUBIC, btlbw/min_rtt
        // and phase for BBR-lite), sampled like the rate timeline.
        let ccs: Vec<&&TraceEvent> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::CubicState { .. } | TraceEventKind::BbrState { .. }
                )
            })
            .collect();
        if !ccs.is_empty() {
            let _ = writeln!(s, "  cc timeline ({} snapshots):", ccs.len());
            let n = ccs.len();
            let rows = timeline.max(2).min(n);
            let mut printed = std::collections::BTreeSet::new();
            for r in 0..rows {
                let i = if rows == 1 {
                    0
                } else {
                    r * (n - 1) / (rows - 1)
                };
                if !printed.insert(i) {
                    continue;
                }
                match ccs[i].kind {
                    TraceEventKind::CubicState {
                        cwnd_bytes,
                        w_max_bytes,
                        tcp_friendly,
                    } => {
                        let _ = writeln!(
                            s,
                            "    t={} cwnd {} B  w_max {} B  region {}",
                            ccs[i].time_str(),
                            cwnd_bytes,
                            w_max_bytes,
                            if tcp_friendly {
                                "tcp-friendly"
                            } else {
                                "cubic"
                            },
                        );
                    }
                    TraceEventKind::BbrState {
                        phase,
                        btlbw_bps,
                        min_rtt_us,
                    } => {
                        let phase_name = match phase {
                            0 => "startup",
                            1 => "drain",
                            _ => "probe-bw",
                        };
                        let _ = writeln!(
                            s,
                            "    t={} phase {phase_name}  btlbw {} kbit/s  min_rtt {} us",
                            ccs[i].time_str(),
                            btlbw_bps / 1000,
                            min_rtt_us,
                        );
                    }
                    _ => {}
                }
            }
        }

        let losses: Vec<&&TraceEvent> = evs
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::LossEvent { .. }))
            .collect();
        if !losses.is_empty() {
            let _ = write!(s, "  loss events ({}):", losses.len());
            for (shown, ev) in losses.iter().enumerate() {
                if shown >= 8 {
                    let _ = write!(s, " … {} more", losses.len() - shown);
                    break;
                }
                if let TraceEventKind::LossEvent { pkts } = ev.kind {
                    let _ = write!(s, " t={} ({} pkt)", ev.time_str(), pkts);
                }
            }
            let _ = writeln!(s);
        }

        let mut retx: BTreeMap<u64, u32> = BTreeMap::new();
        for ev in &evs {
            if let TraceEventKind::PktSent {
                seq, retx: true, ..
            } = ev.kind
            {
                *retx.entry(seq).or_default() += 1;
            }
        }
        if !retx.is_empty() {
            let _ = write!(s, "  retransmit map ({} seqs):", retx.len());
            for (shown, (seq, n)) in retx.iter().enumerate() {
                if shown >= 12 {
                    let _ = write!(s, " … {} more", retx.len() - shown);
                    break;
                }
                let _ = write!(s, " {seq}×{n}");
            }
            let _ = writeln!(s);
        }
    }
    s
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
    if let Some(kbps) = args.bottleneck_kbps {
        cfg.bottleneck = qtp_simnet::time::Rate::from_kbps(kbps);
    }
    if let Some(ms) = args.reorder_ms {
        // A hostile bottleneck: half the packets stretched by up to `ms`
        // of extra delay, enough to invert delivery order regularly.
        cfg.bottleneck_path =
            qtp_simnet::path::PathModel::none().with_reorder(0.5, Duration::from_millis(ms));
    }

    let qlog = Rc::new(RefCell::new(QlogWriter::new()));
    let collect = Rc::new(RefCell::new(CollectSink::default()));
    let registry = TraceRegistry::new();
    registry.set_sink(Rc::new(RefCell::new(Tee::new(
        qlog.clone(),
        collect.clone(),
    ))));

    println!(
        "qtptrace: {} flows, {} pkts/flow, seed {} (sim)",
        cfg.flows, cfg.packets_per_flow, cfg.seed,
    );
    let report = run_sim_traced(&cfg, registry.clone());

    let trace = qlog.borrow().output().to_string();
    match &args.qlog {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &trace) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("qlog: {} events written to {path}", trace.lines().count());
        }
        None if !args.no_qlog => {
            println!("--- qlog ({} events) ---", trace.lines().count());
            print!("{trace}");
            println!("--- end qlog ---");
        }
        None => {}
    }

    println!("--- per-connection summary ---");
    print!(
        "{}",
        summarize(&registry, &collect.borrow().events, args.timeline)
    );
    println!("--- scenario report ---");
    print!("{}", report.render(usize::MAX));
}
