//! Isolated-layer replays: the datagram trace of a short `pipe_bulk` and a
//! short `pipe_lossy_vlbi` repetition, pushed through one layer's public
//! functions at a time.
//!
//! Spans time a layer where the harness calls it; the replays price the
//! layers the harness only reaches through another one (wire under session,
//! frame and wheel under mux, sack/tfrc/cc under sender and receiver). Every
//! traced run records the same two canonical repetitions, so these numbers
//! describe the layers, not the workload that happened to be running.

use crate::alloc;
use crate::pipe::{PipeSpec, PipeWorkload, Recording, Stage};
use crate::run::{Ctx, Violation};
use crate::span::Spans;
use crate::stats;
use qtp_core::driver::{Endpoint, Outbox};
use qtp_core::wire::ppb_to_p;
use qtp_core::{controller_for, QtpPacket};
use qtp_io::frame::{Frame, FIXED_LEN};
use qtp_io::mux::{ConnId, MuxDriver, TimerWheel};
use qtp_sack::{ReceiverBuffer, Scoreboard};
use qtp_simnet::prelude::{CalendarQueue, Packet, PacketArena};
use qtp_simnet::time::SimTime;
use qtp_tfrc::LossDetector;
use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Bytes of the canonical repetitions: a sixteenth of `pipe_bulk`, and enough
/// of `pipe_lossy_vlbi` to leave some 18 000 messages ahead of its loss-free tail.
const BULK_BYTES: u64 = 8 << 20;
const LOSSY_BYTES: u64 = 24 << 20;
/// Timed passes over a trace; the median is reported.
const ROUNDS: usize = 7;

struct Decoded {
    stage: Stage,
    at: SimTime,
    pkt: QtpPacket,
}

struct Trace {
    spec: PipeSpec,
    rec: Recording,
    pkts: Vec<Decoded>,
}

pub struct Canonical {
    bulk: Trace,
    lossy: Trace,
    /// Allocations per datagram of the protocol stack alone, no `qtp-io`.
    pipe_allocs_per_dgram: f64,
}

fn record(spec: PipeSpec, seed: u64) -> Result<(Trace, f64), Violation> {
    let w = PipeWorkload {
        spec,
        seed,
        corrupt_at: None,
    };
    let mut spans = Spans::off();
    let mut lat = Vec::new();
    let mut ctx = Ctx {
        spans: &mut spans,
        lat_us: &mut lat,
    };
    // Unrecorded first: recording clones every header, which would count.
    let plain = w.transfer(&mut ctx, None)?;
    let mut rec = Recording::default();
    w.transfer(&mut ctx, Some(&mut rec))?;
    let pkts = rec
        .dgrams
        .iter()
        .map(|r| {
            QtpPacket::decode(&r.header)
                .map(|pkt| Decoded {
                    stage: r.stage,
                    at: r.at,
                    pkt,
                })
                .map_err(|e| Violation::new(format!("recorded datagram does not decode: {e:?}"), 0))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let allocs_per_dgram = plain.allocs as f64 / plain.dgrams as f64;
    Ok((
        Trace {
            spec: w.spec,
            rec,
            pkts,
        },
        allocs_per_dgram,
    ))
}

pub fn canonical(seed: u64) -> Result<Canonical, Violation> {
    let (bulk, pipe_allocs_per_dgram) = record(PipeSpec::bulk(BULK_BYTES), seed)?;
    let (lossy, _) = record(PipeSpec::lossy_vlbi(LOSSY_BYTES), seed)?;
    Ok(Canonical {
        bulk,
        lossy,
        pipe_allocs_per_dgram,
    })
}

/// Median wall nanoseconds of [`ROUNDS`] calls of `pass`, and the
/// allocations one call makes.
fn timed(mut pass: impl FnMut()) -> (f64, u64) {
    let mut ns = Vec::with_capacity(ROUNDS);
    let mut allocs = 0;
    for _ in 0..ROUNDS {
        let before = alloc::snapshot();
        let t = Instant::now();
        pass();
        ns.push(t.elapsed().as_nanos() as f64);
        allocs = alloc::delta(before).0;
    }
    (stats::median(&ns), allocs)
}

/// An endpoint that swallows everything: isolates decode + route + dispatch.
struct Blackhole;
impl Endpoint for Blackhole {
    fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, _header: &[u8]) {}
}

fn peer() -> SocketAddr {
    "127.0.0.1:4433".parse().expect("literal address")
}

fn mux_with(conns: u32) -> std::io::Result<MuxDriver<Blackhole>> {
    let mut mux: MuxDriver<Blackhole> = MuxDriver::bind("127.0.0.1:0")?;
    for i in 0..conns {
        mux.add_connection(peer(), vec![2 * i, 2 * i + 1], Blackhole)?;
    }
    Ok(mux)
}

fn route_ns(conns: u32) -> std::io::Result<f64> {
    let mux = mux_with(conns)?;
    let lookups = 64 * 1024u32;
    let (ns, _) = timed(|| {
        for i in 0..lookups {
            black_box(mux.route(peer(), black_box(2 * (i % conns))));
        }
    });
    Ok(ns / f64::from(lookups))
}

/// Non-blocking `send_to` + `recv_from` of one data-sized datagram over
/// loopback: the per-datagram kernel cost no change inside the crates removes.
fn socket_floor_us(len: usize) -> std::io::Result<f64> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    let to = b.local_addr()?;
    let (out, mut inb) = (vec![0xA5u8; len], vec![0u8; 2048]);
    let n = 20_000u32;
    let mut failure = None;
    let (ns, _) = timed(|| {
        for _ in 0..n {
            if let Err(e) = a.send_to(&out, to) {
                failure.get_or_insert(e);
            }
            loop {
                match b.recv_from(&mut inb) {
                    Ok(_) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => {
                        failure.get_or_insert(e);
                        break;
                    }
                }
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(ns / f64::from(n) / 1e3),
    }
}

/// Scheduler hold model: a steady population, each pop re-armed a
/// pseudo-random distance ahead — how the simulator uses its calendar.
fn calendar_ns_per_op() -> f64 {
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut rng = crate::pattern::SplitMix::new(7);
    let mut seq = 0u64;
    for _ in 0..4096 {
        seq += 1;
        q.push(rng.next_u64() % 1_000_000, seq, 0);
    }
    let n = 200_000u64;
    let (ns, _) = timed(|| {
        for _ in 0..n {
            let (at, _, item) = q.pop().expect("steady population");
            seq += 1;
            q.push(at + 1 + rng.next_u64() % 1_000_000, seq, black_box(item));
        }
    });
    ns / (2 * n) as f64
}

fn arena_ns_per_pkt() -> f64 {
    let mut arena = PacketArena::new();
    let n = 200_000u64;
    let (ns, _) = timed(|| {
        for uid in 0..n {
            let id = arena.alloc(Packet::new(uid, 0, 0, 1, 1049, SimTime::ZERO, Vec::new()));
            arena.release(black_box(id));
        }
    });
    ns / n as f64
}

impl Canonical {
    /// Every replay-derived per-layer metric. `allocs_per_dgram` is the
    /// running workload's own figure, for the mux-minus-pipe difference.
    pub fn layer_metrics(
        &self,
        allocs_per_dgram: f64,
        over_mux: bool,
    ) -> Result<Vec<(&'static str, f64)>, Violation> {
        let mut m = self.wire_and_frame();
        m.extend(self.sack_tfrc_cc());
        m.extend(self.mux_and_wheel(allocs_per_dgram, over_mux)?);
        m.push(("simnet.calendar_ns_per_op", calendar_ns_per_op()));
        m.push(("simnet.arena_ns_per_pkt", arena_ns_per_pkt()));
        Ok(m)
    }

    fn sent(&self) -> impl Iterator<Item = (&[u8], &QtpPacket)> {
        let t = &self.bulk;
        t.rec
            .dgrams
            .iter()
            .zip(&t.pkts)
            .filter(|(r, _)| matches!(r.stage, Stage::TxSent | Stage::RxSent))
            .map(|(r, d)| (r.header.as_slice(), &d.pkt))
    }

    fn wire_and_frame(&self) -> Vec<(&'static str, f64)> {
        let headers: Vec<&[u8]> = self.sent().map(|(h, _)| h).collect();
        let pkts: Vec<&QtpPacket> = self.sent().map(|(_, p)| p).collect();
        let n = headers.len() as f64;
        let (decode_ns, decode_allocs) = timed(|| {
            for h in &headers {
                black_box(QtpPacket::decode(black_box(h)).ok());
            }
        });
        let (encode_ns, encode_allocs) = timed(|| {
            for p in &pkts {
                black_box(black_box(*p).encode());
            }
        });
        let data_hdr: Vec<f64> = self
            .sent()
            .filter_map(|(h, p)| match p {
                QtpPacket::StreamData { payload, .. } => Some((h.len() - payload.len()) as f64),
                _ => None,
            })
            .collect();

        let frames: Vec<Frame> = headers
            .iter()
            .enumerate()
            .map(|(i, h)| Frame {
                flow: 0,
                seq: i as u64,
                wire_size: h.len() as u32 + qtp_core::wire::IP_OVERHEAD,
                header: h.to_vec(),
            })
            .collect();
        let encoded: Vec<Vec<u8>> = frames.iter().filter_map(|f| f.encode().ok()).collect();
        let (fenc_ns, fenc_allocs) = timed(|| {
            for f in &frames {
                black_box(black_box(f).encode().ok());
            }
        });
        let (fdec_ns, fdec_allocs) = timed(|| {
            for b in &encoded {
                black_box(Frame::decode(black_box(b)).ok());
            }
        });
        vec![
            ("wire.decode_ns_per_pkt", decode_ns / n),
            ("wire.encode_ns_per_pkt", encode_ns / n),
            (
                "wire.allocs_per_pkt",
                (decode_allocs + encode_allocs) as f64 / n,
            ),
            (
                "wire.hdr_bytes_per_data_pkt",
                data_hdr.iter().sum::<f64>() / data_hdr.len().max(1) as f64,
            ),
            ("frame.encode_ns_per_dgram", fenc_ns / n),
            ("frame.decode_ns_per_dgram", fdec_ns / n),
            (
                "frame.allocs_per_dgram",
                (fenc_allocs + fdec_allocs) as f64 / n,
            ),
        ]
    }

    /// The loss-recovery machinery, on the trace that exercises it.
    fn sack_tfrc_cc(&self) -> Vec<(&'static str, f64)> {
        let t = &self.lossy;
        let data_seq = |p: &QtpPacket| match p {
            QtpPacket::StreamData {
                seq,
                ts_nanos,
                is_retx,
                ..
            } => Some((*seq, *ts_nanos, *is_retx)),
            _ => None,
        };

        // Sender side: the scoreboard sees every send, retransmission and
        // report in the order the sender did; only the reports are timed
        // (they are few and dear, so the clock reads around each are noise).
        let mut in_feedback = Duration::ZERO;
        let (_, _) = timed(|| {
            in_feedback = Duration::ZERO;
            let mut sb = Scoreboard::new();
            for d in &t.pkts {
                match (d.stage, &d.pkt) {
                    (Stage::TxSent, p) => match data_seq(p) {
                        Some((seq, _, true)) => sb.register_retransmit(seq, d.at),
                        Some(_) => {
                            sb.register_send(d.at);
                        }
                        None => {}
                    },
                    (
                        Stage::TxArrived,
                        QtpPacket::Feedback {
                            cum_ack, blocks, ..
                        },
                    ) => {
                        let t0 = Instant::now();
                        black_box(sb.on_feedback(*cum_ack, blocks));
                        in_feedback += t0.elapsed();
                    }
                    _ => {}
                }
            }
        });
        let feedbacks: Vec<&Decoded> = t
            .pkts
            .iter()
            .filter(|d| d.stage == Stage::TxArrived && matches!(d.pkt, QtpPacket::Feedback { .. }))
            .collect();
        let blocks: f64 = feedbacks
            .iter()
            .map(|d| match &d.pkt {
                QtpPacket::Feedback { blocks, .. } => blocks.len() as f64,
                _ => 0.0,
            })
            .sum();

        // Receiver side: arrival order into reassembly, a SACK block set
        // built wherever the real receiver sent a report.
        let arrivals = t
            .pkts
            .iter()
            .filter(|d| d.stage == Stage::RxArrived && data_seq(&d.pkt).is_some())
            .count() as f64;
        let (reasm_ns, _) = timed(|| {
            let mut buf = ReceiverBuffer::new();
            for d in &t.pkts {
                match (d.stage, &d.pkt) {
                    (Stage::RxArrived, QtpPacket::Forward { new_cum }) => buf.on_forward(*new_cum),
                    (Stage::RxArrived, p) => {
                        if let Some((seq, ..)) = data_seq(p) {
                            black_box(buf.on_packet(seq));
                        }
                    }
                    (Stage::RxSent, QtpPacket::Feedback { .. }) => {
                        black_box(buf.sack_blocks(qtp_core::wire::MAX_FB_BLOCKS));
                    }
                    _ => {}
                }
            }
        });
        let (detector_ns, _) = timed(|| {
            let mut det = LossDetector::new();
            for d in &t.pkts {
                if let (Stage::RxArrived, Some((seq, ts, _))) = (d.stage, data_seq(&d.pkt)) {
                    black_box(det.on_packet(seq, SimTime::from_nanos(ts)));
                }
            }
        });

        let s = t.spec.plan.payload;
        let (cc_ns, _) = timed(|| {
            let mut cc = controller_for(t.spec.plan.profile.cc(), s);
            cc.seed_rtt(SimTime::ZERO, 2 * t.spec.one_way);
            let mut acked = 0u64;
            for d in &feedbacks {
                if let QtpPacket::Feedback {
                    ts_echo_nanos,
                    t_delay_micros,
                    x_recv,
                    p_ppb,
                    cum_ack,
                    ..
                } = &d.pkt
                {
                    cc.on_feedback(&qtp_cc::FeedbackReport {
                        now: d.at,
                        ts_echo: SimTime::from_nanos(*ts_echo_nanos),
                        t_delay: Duration::from_micros(u64::from(*t_delay_micros)),
                        x_recv: *x_recv as f64,
                        p: ppb_to_p(p_ppb.unwrap_or(0)),
                        newly_acked_bytes: cum_ack.saturating_sub(acked) * u64::from(s),
                        newly_lost_pkts: 0,
                    });
                    acked = acked.max(*cum_ack);
                    black_box(cc.allowed_rate());
                }
            }
        });
        let nfb = feedbacks.len().max(1) as f64;
        vec![
            (
                "sack.scoreboard_ns_per_feedback",
                in_feedback.as_nanos() as f64 / nfb,
            ),
            ("sack.reassembly_ns_per_pkt", reasm_ns / arrivals.max(1.0)),
            ("sack.blocks_per_feedback", blocks / nfb),
            ("tfrc.detector_ns_per_pkt", detector_ns / arrivals.max(1.0)),
            ("cc.feedback_ns", cc_ns / nfb),
        ]
    }

    fn mux_and_wheel(
        &self,
        allocs_per_dgram: f64,
        over_mux: bool,
    ) -> Result<Vec<(&'static str, f64)>, Violation> {
        // Pre-encoded data-direction frames spread over 16 connections.
        let data: Vec<Vec<u8>> = self
            .bulk
            .rec
            .dgrams
            .iter()
            .filter(|r| r.stage == Stage::TxSent)
            .enumerate()
            .filter_map(|(i, r)| {
                Frame {
                    flow: 2 * (i as u32 % 16),
                    seq: i as u64,
                    wire_size: r.wire_size,
                    header: r.header.clone(),
                }
                .encode()
                .ok()
            })
            .collect();
        let mut mux = mux_with(16)?;
        let mut failure = None;
        let (ingest_ns, _) = timed(|| {
            for bytes in &data {
                if let Err(e) = mux.handle_datagram_from(peer(), black_box(bytes)) {
                    failure.get_or_insert(e);
                }
            }
        });
        if let Some(e) = failure {
            return Err(e.into());
        }

        let deadlines = &self.bulk.rec.deadlines;
        let (wheel_ns, _) = timed(|| {
            let mut wheel = TimerWheel::new(Duration::from_millis(1));
            for (i, (now, deadline)) in deadlines.iter().enumerate() {
                wheel.schedule(*deadline, ConnId::from_raw(0), i as u64);
                black_box(wheel.advance(*now));
            }
        });

        let mut sizes: Vec<f64> = data.iter().map(|d| d.len() as f64).collect();
        sizes.sort_by(f64::total_cmp);
        let typical = stats::percentile_sorted(&sizes, 0.5) as usize;
        debug_assert!(typical > FIXED_LEN);
        Ok(vec![
            (
                "mux.ingest_ns_per_dgram",
                ingest_ns / data.len().max(1) as f64,
            ),
            ("mux.route_ns_16", route_ns(16)?),
            ("mux.route_ns_1024", route_ns(1024)?),
            (
                "mux.allocs_per_dgram",
                if over_mux {
                    allocs_per_dgram - self.pipe_allocs_per_dgram
                } else {
                    0.0
                },
            ),
            (
                "wheel.ns_per_timer",
                wheel_ns / deadlines.len().max(1) as f64,
            ),
            ("socket.floor_us_per_dgram", socket_floor_us(typical)?),
        ])
    }
}
