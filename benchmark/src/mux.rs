//! `mux_bulk1`, `mux_fanout16` and `mux_chat`: stream bytes through two
//! [`MuxDriver<Session>`]s on two real UDP sockets, driven single-threaded by
//! the repository's own [`drive_mux_pair`]; the server side's sessions come
//! from [`accept_sessions`].
//!
//! All traffic crosses the host's loopback interface, never a real link.
//! The application work (write, read, verify) runs in `drive_mux_pair`'s
//! `done` callback, once per `drive_once` pair, exactly as the repository's
//! stream-transfer tests do it.

use crate::app::{self, Writer};
use crate::pattern;
use crate::pipe::PipeSpec;
use crate::run::{names::*, Ctx, Layer, Meter, Rep, Violation, Workload};
use crate::sys;
use qtp_core::session::{ConnectionPlan, Session, SessionEvents};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig};
use qtp_core::wire::IP_OVERHEAD;
use qtp_io::frame::FIXED_LEN;
use qtp_io::{accept_sessions, drive_mux_pair, AcceptQueue, ConnId, MuxDriver, MuxStats};
use qtp_metrics::trace::{CounterSet, Tracer};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(120);
const WRITE_LEN: usize = 8 * 1024;

type Mux = MuxDriver<Session>;

/// One direction of one connection: the sending session lives in `from`'s
/// mux, the receiving one was accepted by the other side.
struct Conn {
    tx_id: ConnId,
    send: SendStream,
    tx_events: SessionEvents,
    tx_tracer: Tracer,
    recv: RecvStream,
    rx_tracer: Tracer,
}

struct Rig {
    client: Mux,
    server: Mux,
    conns: Vec<Conn>,
}

/// Open `flows.len()` connections `from` → `to` and drive until both ends of
/// each are `Connected`. Connection `i` owns data flow `flows[i]` and
/// feedback flow `flows[i] + 1`.
fn open(
    from_is_client: bool,
    client: &mut Mux,
    server: &mut Mux,
    accepts: &AcceptQueue,
    plan: &ConnectionPlan,
    flows: &[u32],
) -> Result<Vec<Conn>, Violation> {
    let (from, to) = if from_is_client {
        (&mut *client, &*server)
    } else {
        (&mut *server, &*client)
    };
    let to_addr = to.local_addr()?;
    let from_addr = from.local_addr()?;
    let mut half = Vec::with_capacity(flows.len());
    for &flow in flows {
        let sess = Session::sender(flow, 0, plan);
        let handles = (
            sess.send_stream().expect("stream plan"),
            sess.events(),
            sess.tracer(),
        );
        let id = from.add_connection(to_addr, vec![flow, flow + 1], sess)?;
        half.push((id, handles));
    }
    let mut rx: Vec<Option<(RecvStream, Tracer)>> = vec![None; flows.len()];
    let ok = drive_mux_pair(client, server, DEADLINE, |c, s| {
        let (from, to) = if from_is_client { (c, s) } else { (s, c) };
        while let Some(ev) = accepts.pop() {
            let i = flows.iter().position(|f| *f == ev.data_flow);
            let sess = to
                .route(ev.peer, ev.data_flow)
                .and_then(|id| to.endpoint(id));
            if let (Some(i), Some(sess)) = (i, sess) {
                rx[i] = sess.recv_stream().map(|r| (r, sess.tracer()));
            }
        }
        let accepted = flows.iter().zip(&rx).all(|(flow, r)| {
            r.is_some()
                && to
                    .route(from_addr, *flow)
                    .and_then(|id| to.endpoint(id))
                    .is_some_and(|sess| sess.negotiated().is_some())
        });
        accepted
            && half
                .iter()
                .all(|(id, _)| from.endpoint(*id).is_some_and(|s| s.negotiated().is_some()))
    })?;
    if !ok {
        return Err(Violation::new("connection set-up timed out", 0));
    }
    Ok(half
        .into_iter()
        .zip(rx)
        .map(|((tx_id, (send, tx_events, tx_tracer)), rx)| {
            let (recv, rx_tracer) = rx.expect("checked above");
            Conn {
                tx_id,
                send,
                tx_events,
                tx_tracer,
                recv,
                rx_tracer,
            }
        })
        .collect())
}

/// What the mux layer counted on both sides, and what the sessions did.
#[derive(Clone, Copy, Default)]
struct Snapshot {
    client: MuxStats,
    server: MuxStats,
    sessions: CounterSet,
    /// Feedback-direction packets (sent by receiving sessions).
    fb_pkts: u64,
}

impl Rig {
    fn snapshot(&self) -> Snapshot {
        let mut sessions = CounterSet::default();
        let mut fb_pkts = 0;
        for c in &self.conns {
            let rx = c.rx_tracer.counters();
            fb_pkts += rx.pkts_tx;
            sessions.merge(&c.tx_tracer.counters());
            sessions.merge(&rx);
        }
        Snapshot {
            client: self.client.stats(),
            server: self.server.stats(),
            sessions,
            fb_pkts,
        }
    }

    /// Fill the count fields of `rep` with what happened since `before`.
    fn account(&self, before: &Snapshot, rep: &mut Rep) -> Result<(), Violation> {
        let after = self.snapshot();
        let (b, a) = (&before.sessions, &after.sessions);
        let mux = |f: fn(&MuxStats) -> u64| {
            f(&after.client) + f(&after.server) - f(&before.client) - f(&before.server)
        };
        rep.dgrams = mux(|s| s.datagrams_sent);
        // On the wire: the frame's fixed header plus the transport header
        // (which carries the payload). The sessions account header + IP.
        let pkts = a.pkts_tx - b.pkts_tx;
        rep.wire_bytes = (a.bytes_tx - b.bytes_tx) - pkts * u64::from(IP_OVERHEAD)
            + rep.dgrams * FIXED_LEN as u64;
        let l = &mut rep.layer;
        l.fb_dgrams = after.fb_pkts - before.fb_pkts;
        l.data_dgrams = pkts - l.fb_dgrams;
        l.timer_fires = a.timer_fires - b.timer_fires;
        l.timers_set = a.timers_set - b.timers_set;
        l.timers_cancelled = a.timers_cancelled - b.timers_cancelled;
        l.retransmits = a.retransmits - b.retransmits;
        l.abandoned = a.abandoned - b.abandoned;
        l.loss_events = a.loss_events - b.loss_events;
        l.mux_timers = mux(|s| s.timers_fired);
        l.requeued = mux(|s| s.sends_requeued);
        l.backlog_hw = after
            .client
            .tx_backlog_high_water
            .max(after.server.tx_backlog_high_water);
        l.wheel_hw = after
            .client
            .timer_wheel_high_water
            .max(after.server.timer_wheel_high_water);
        l.unroutable = mux(|s| s.datagrams_unroutable);
        l.rejected = mux(|s| s.datagrams_rejected);
        l.soft_errors = mux(|s| s.soft_errors);
        l.rx_drops = sys::udp_drops(&[
            self.client.local_addr()?.port(),
            self.server.local_addr()?.port(),
        ]);
        Ok(())
    }
}

/// Per-iteration view of the drive loop, taken from inside the callback:
/// how long one `drive_once` pair took and whether it handled anything.
struct LoopWatch {
    on: bool,
    last: Instant,
    seen: u64,
}

impl LoopWatch {
    fn activity(c: &Mux, s: &Mux) -> u64 {
        let (c, s) = (c.stats(), s.stats());
        c.datagrams_received + s.datagrams_received + c.timers_fired + s.timers_fired
    }

    fn start(on: bool, c: &Mux, s: &Mux) -> Self {
        LoopWatch {
            on,
            last: Instant::now(),
            seen: Self::activity(c, s),
        }
    }

    /// Called first thing in the callback: closes the iteration that just ran.
    fn iteration_done(&mut self, c: &Mux, s: &Mux, l: &mut Layer) {
        if !self.on {
            return;
        }
        let now = Self::activity(c, s);
        l.iterations += 1;
        if now == self.seen {
            l.idle_iterations += 1;
        } else {
            l.busy_ns += self.last.elapsed().as_nanos() as u64;
        }
        self.seen = now;
    }

    /// Called last thing in the callback: the next iteration starts now.
    fn iteration_starts(&mut self) {
        if self.on {
            self.last = Instant::now();
        }
    }
}

// ---------------------------------------------------------------------------
// mux_bulk1 / mux_fanout16
// ---------------------------------------------------------------------------

pub struct BulkWorkload {
    pub name: &'static str,
    pub conns: usize,
    pub bytes_per_conn: u64,
    pub seed: u64,
}

impl BulkWorkload {
    fn connect(&self) -> Result<(Rig, f64), Violation> {
        let t0 = Instant::now();
        let plan = PipeSpec::bulk_plan();
        let mut server: Mux = MuxDriver::bind("127.0.0.1:0")?;
        let accepts = accept_sessions(&mut server, plan.clone());
        let mut client: Mux = MuxDriver::bind("127.0.0.1:0")?;
        let flows: Vec<u32> = (0..self.conns as u32).map(|i| 2 * i).collect();
        let conns = open(true, &mut client, &mut server, &accepts, &plan, &flows)?;
        let rig = Rig {
            client,
            server,
            conns,
        };
        Ok((rig, t0.elapsed().as_secs_f64()))
    }
}

impl Workload for BulkWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn exact(&self) -> bool {
        false
    }

    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Result<Rep, Violation> {
        let (mut rig, setup_s) = self.connect()?;
        let writes = self.bytes_per_conn / WRITE_LEN as u64;
        // Per connection: its writer, its key, and how many writes arrived.
        let mut apps: Vec<(Writer, u64, u64)> = (0..self.conns as u64)
            .map(|i| {
                let key = pattern::key(self.seed, i);
                (Writer::new(key, WRITE_LEN, writes, false), key, 0)
            })
            .collect();
        let mut rep = Rep {
            setup_s,
            attempted: writes * self.conns as u64,
            ..Rep::default()
        };
        let mut layer = Layer::default();
        let mut violation: Option<Violation> = None;
        let before = rig.snapshot();
        let mut watch = LoopWatch::start(ctx.spans.is_on(), &rig.client, &rig.server);

        let meter = Meter::start();
        let rep_span = ctx.spans.enter(REP);
        let mut drive = ctx.spans.enter(MUX_DRIVE);
        let conns = &rig.conns;
        let done = drive_mux_pair(&mut rig.client, &mut rig.server, DEADLINE, |c, s| {
            ctx.spans.exit(drive);
            watch.iteration_done(c, s, &mut layer);
            let mut all_done = true;
            for (conn, (writer, key, received)) in conns.iter().zip(apps.iter_mut()) {
                while let Some(ev) = conn.tx_events.poll() {
                    writer.on_event(&ev);
                }
                if let Err(v) = writer.pump(&conn.send, ctx.spans, &mut layer) {
                    violation.get_or_insert(v);
                    return true;
                }
                loop {
                    let t = ctx.spans.enter(STREAM_RECV);
                    let msg = conn.recv.recv();
                    ctx.spans.exit(t);
                    let Some(msg) = msg else { break };
                    // In-order, exactly-once: message k must be write k.
                    if let Err(v) = app::check(*key, WRITE_LEN, *received, &msg, false) {
                        violation.get_or_insert(v);
                        return true;
                    }
                    ctx.latency(writer.sent_at(*received));
                    *received += 1;
                    rep.app_bytes += msg.len() as u64;
                }
                all_done &= conn.recv.is_finished()
                    && c.endpoint(conn.tx_id).is_some_and(|sess| sess.is_closed());
            }
            watch.iteration_starts();
            drive = ctx.spans.enter(MUX_DRIVE);
            all_done
        })?;
        ctx.spans.exit(drive);
        ctx.spans.exit(rep_span);
        meter.stop(&mut rep);
        if let Some(v) = violation {
            return Err(v);
        }
        if !done {
            return Err(Violation::new("transfer timed out", rep.app_bytes));
        }
        layer.msgs_recv = apps.iter().map(|a| a.2).sum();
        rep.failed = rep.attempted - layer.msgs_recv;
        rep.layer = layer;
        rig.account(&before, &mut rep)?;
        Ok(rep)
    }
}

// ---------------------------------------------------------------------------
// mux_chat
// ---------------------------------------------------------------------------

pub const REQ_LEN: usize = 64;
pub const RSP_LEN: usize = 1000;

pub struct ChatWorkload {
    pub exchanges: u64,
    pub seed: u64,
}

impl ChatWorkload {
    /// Request connection client → server, response connection server →
    /// client: both muxes carry a sending and a receiving session.
    fn connect(&self) -> Result<(Rig, f64), Violation> {
        let t0 = Instant::now();
        let plan = ConnectionPlan::new(PipeSpec::bulk_plan().profile)
            .stream(StreamConfig::with_send_buf(64 * 1024));
        let mut server: Mux = MuxDriver::bind("127.0.0.1:0")?;
        let srv_accepts = accept_sessions(&mut server, plan.clone());
        let mut client: Mux = MuxDriver::bind("127.0.0.1:0")?;
        let cli_accepts = accept_sessions(&mut client, plan.clone());
        let mut conns = open(true, &mut client, &mut server, &srv_accepts, &plan, &[0])?;
        conns.extend(open(
            false,
            &mut client,
            &mut server,
            &cli_accepts,
            &plan,
            &[2],
        )?);
        let rig = Rig {
            client,
            server,
            conns,
        };
        Ok((rig, t0.elapsed().as_secs_f64()))
    }
}

impl Workload for ChatWorkload {
    fn name(&self) -> &'static str {
        "mux_chat"
    }

    fn exact(&self) -> bool {
        false
    }

    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Result<Rep, Violation> {
        let (mut rig, setup_s) = self.connect()?;
        let (req_key, rsp_key) = (pattern::key(self.seed, 0), pattern::key(self.seed, 1));
        let (mut req_buf, mut rsp_buf) = (vec![0u8; REQ_LEN], vec![0u8; RSP_LEN]);
        let total = self.exchanges;
        let (mut sent, mut served, mut completed) = (0u64, 0u64, 0u64);
        let mut inflight: Option<Instant> = None;
        let mut rep = Rep {
            setup_s,
            attempted: total,
            ..Rep::default()
        };
        let mut layer = Layer::default();
        let mut violation: Option<Violation> = None;
        let before = rig.snapshot();
        let mut watch = LoopWatch::start(ctx.spans.is_on(), &rig.client, &rig.server);

        let meter = Meter::start();
        let rep_span = ctx.spans.enter(REP);
        let mut drive = ctx.spans.enter(MUX_DRIVE);
        let (req, rsp) = (&rig.conns[0], &rig.conns[1]);
        let done = drive_mux_pair(&mut rig.client, &mut rig.server, DEADLINE, |c, s| {
            ctx.spans.exit(drive);
            watch.iteration_done(c, s, &mut layer);
            // Server: every verified request gets its response.
            loop {
                let t = ctx.spans.enter(STREAM_RECV);
                let msg = req.recv.recv();
                ctx.spans.exit(t);
                let Some(msg) = msg else { break };
                if let Err(v) = app::check(req_key, REQ_LEN, served, &msg, false) {
                    violation.get_or_insert(v);
                    return true;
                }
                pattern::fill(rsp_key, served * RSP_LEN as u64, &mut rsp_buf);
                layer.sends += 1;
                let t = ctx.spans.enter(STREAM_SEND);
                let res = rsp.send.send(&rsp_buf);
                ctx.spans.exit(t);
                if let Err(e) = res {
                    violation
                        .get_or_insert(Violation::new(format!("response refused: {e}"), served));
                    return true;
                }
                served += 1;
                rep.app_bytes += REQ_LEN as u64;
            }
            // Client: a verified response completes the exchange in flight.
            loop {
                let t = ctx.spans.enter(STREAM_RECV);
                let msg = rsp.recv.recv();
                ctx.spans.exit(t);
                let Some(msg) = msg else { break };
                if let Err(v) = app::check(rsp_key, RSP_LEN, completed, &msg, false) {
                    violation.get_or_insert(v);
                    return true;
                }
                if let Some(at) = inflight.take() {
                    ctx.latency(at);
                }
                completed += 1;
                rep.app_bytes += RSP_LEN as u64;
            }
            // One request outstanding at a time.
            if inflight.is_none() && sent < total {
                pattern::fill(req_key, sent * REQ_LEN as u64, &mut req_buf);
                layer.sends += 1;
                // The exchange is timed from before the request's `send`.
                inflight = Some(Instant::now());
                let t = ctx.spans.enter(STREAM_SEND);
                let res = req.send.send(&req_buf);
                ctx.spans.exit(t);
                if let Err(e) = res {
                    violation.get_or_insert(Violation::new(format!("request refused: {e}"), sent));
                    return true;
                }
                sent += 1;
            }
            if completed == total {
                for conn in [req, rsp] {
                    if !conn.send.is_finished() {
                        conn.send.finish();
                    }
                }
            }
            while req.tx_events.poll().is_some() || rsp.tx_events.poll().is_some() {}
            watch.iteration_starts();
            drive = ctx.spans.enter(MUX_DRIVE);
            completed == total
                && req.recv.is_finished()
                && rsp.recv.is_finished()
                && c.endpoint(req.tx_id).is_some_and(|sess| sess.is_closed())
                && s.endpoint(rsp.tx_id).is_some_and(|sess| sess.is_closed())
        })?;
        ctx.spans.exit(drive);
        ctx.spans.exit(rep_span);
        meter.stop(&mut rep);
        if let Some(v) = violation {
            return Err(v);
        }
        if !done {
            return Err(Violation::new("chat timed out", completed));
        }
        layer.msgs_recv = served + completed;
        rep.failed = total - completed;
        rep.layer = layer;
        rig.account(&before, &mut rep)?;
        Ok(rep)
    }
}
