//! The real-socket [`Backend`] binding: the same [`ConnectionPlan`]s that
//! run on the deterministic simulator (`qtp_core::session::SimBackend`)
//! run here over actual UDP sockets on loopback, every connection
//! multiplexed over a single socket pair ([`MuxBackend`]; one plan is one
//! connection on it).
//!
//! The backend mounts [`Session`]s in [`MuxDriver`]s (a `Session`
//! implements the `Endpoint` seam), so the protocol behaviour is exactly
//! the driver behaviour; what this module adds is plan wiring, the
//! completion rule and outcome extraction. Times in the outcomes are
//! wall-clock, so socket-backend reports are *not* byte-deterministic —
//! the deterministic claims all live on the sim backend.

use qtp_core::session::{Backend, ConnectionOutcome, ConnectionPlan, Reliability, Session};
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::mux::{drive_mux_pair, Accepted, ConnId, MuxConfig, MuxDriver, MuxStats};

/// Client-side completion rule of the socket backend: a finite
/// transfer is done when its backlog has been transmitted — and, when
/// the [effective](ConnectionPlan::effective_reliability) reliability is
/// `Full`, acknowledged. Keying on the negotiated mode (not the offer)
/// matters: a policy-downgraded connection never retransmits, so one
/// dropped datagram would leave `all_acked()` false forever and spin the
/// loop to the deadline. Open-ended apps (greedy, CBR) run until the
/// backend's deadline.
fn tx_complete(plan: &ConnectionPlan, tx: &Session) -> bool {
    let Some(packets) = plan.finite_packets() else {
        return false;
    };
    let sent_all = tx.sent_new() >= packets;
    if plan.effective_reliability(tx.negotiated()) == Reliability::Full {
        sent_all && tx.all_acked()
    } else {
        sent_all
    }
}

fn outcome(
    label: String,
    completion_s: Option<f64>,
    horizon_s: f64,
    tx: &Session,
    rx: Option<&Session>,
) -> ConnectionOutcome {
    let delivered = rx.map(|r| r.delivered_bytes()).unwrap_or(0);
    let elapsed = completion_s.unwrap_or(horizon_s);
    ConnectionOutcome {
        label,
        negotiated: tx.negotiated(),
        delivered_bytes: delivered,
        completion_s,
        goodput_bps: if elapsed > 0.0 {
            delivered as f64 * 8.0 / elapsed
        } else {
            0.0
        },
        tx_events: tx.events().drain(),
        rx_events: rx.map(|r| r.events().drain()).unwrap_or_default(),
        tx: tx.tracer().counters(),
        rx: rx.map(|r| r.tracer().counters()).unwrap_or_default(),
    }
}

/// Socket-level counters from one [`MuxBackend::run`], per side. The
/// [`MuxStats::counter_set`] view is the cross-backend currency; the raw
/// stats keep the mux-only fields (backlog / timer-wheel high-water).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxRunStats {
    /// The client-side mux (all senders).
    pub client: MuxStats,
    /// The server-side mux (all receivers).
    pub server: MuxStats,
}

/// Every connection multiplexed over ONE client socket and ONE server
/// socket — the [`MuxDriver`] binding of the backend seam. The server
/// accepts each connection on its first frame; connection `i` owns data
/// flow `2i` and feedback flow `2i + 1`.
#[derive(Debug, Clone)]
pub struct MuxBackend {
    /// Wall-clock bound for the whole run.
    pub deadline: Duration,
    /// Mux limits (the connection cap is raised to fit the plans).
    pub mux: MuxConfig,
    /// Counters of the most recent [`Backend::run`], for reports.
    pub last_stats: Option<MuxRunStats>,
}

impl MuxBackend {
    /// A backend with the given wall-clock deadline and default limits.
    pub fn new(deadline: Duration) -> MuxBackend {
        MuxBackend {
            deadline,
            mux: MuxConfig::default(),
            last_stats: None,
        }
    }
}

impl Default for MuxBackend {
    fn default() -> Self {
        MuxBackend::new(Duration::from_secs(60))
    }
}

impl Backend for MuxBackend {
    fn name(&self) -> &'static str {
        "mux"
    }

    fn run(&mut self, plans: &[ConnectionPlan]) -> io::Result<Vec<ConnectionOutcome>> {
        let mux_cfg = MuxConfig {
            max_conns: (2 * plans.len()).max(self.mux.max_conns),
        };
        let mut server: MuxDriver<Session> = MuxDriver::bind_with("127.0.0.1:0", mux_cfg.clone())?;
        let accept_plans: Rc<Vec<ConnectionPlan>> = Rc::new(plans.to_vec());
        server.set_acceptor(move |_, frame| {
            if frame.flow % 2 != 0 {
                return None;
            }
            let plan = accept_plans.get((frame.flow / 2) as usize)?;
            Some(Accepted {
                endpoint: Session::receiver(frame.flow, frame.flow + 1, 0, plan),
                flows: vec![frame.flow, frame.flow + 1],
            })
        });
        let server_addr = server.local_addr()?;

        let mut client: MuxDriver<Session> = MuxDriver::bind_with("127.0.0.1:0", mux_cfg)?;
        let mut conns: Vec<ConnId> = Vec::with_capacity(plans.len());
        for (i, plan) in plans.iter().enumerate() {
            let data = 2 * i as u32;
            conns.push(client.add_connection(
                server_addr,
                vec![data, data + 1],
                Session::sender(data, 0, plan),
            )?);
        }

        let start = Instant::now();
        let mut completion: Vec<Option<f64>> = vec![None; plans.len()];
        drive_mux_pair(&mut client, &mut server, self.deadline, |c, _| {
            let mut all_done = true;
            for (i, (plan, id)) in plans.iter().zip(&conns).enumerate() {
                if completion[i].is_some() {
                    continue;
                }
                // A connection gone from the mux never completes, and
                // holds nothing up.
                let Some(tx) = c.endpoint(*id) else {
                    continue;
                };
                if tx_complete(plan, tx) {
                    completion[i] = Some(start.elapsed().as_secs_f64());
                } else {
                    all_done = false;
                }
            }
            all_done
        })?;

        let client_addr = client.local_addr()?;
        self.last_stats = Some(MuxRunStats {
            client: client.stats(),
            server: server.stats(),
        });
        let horizon_s = self.deadline.as_secs_f64();
        plans
            .iter()
            .zip(&conns)
            .enumerate()
            .map(|(i, (plan, id))| {
                let tx = client.endpoint(*id).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, format!("client {id} is gone"))
                })?;
                let rx = server
                    .route(client_addr, 2 * i as u32)
                    .and_then(|rid| server.endpoint(rid));
                Ok(outcome(
                    plan.display_label(i),
                    completion[i],
                    horizon_s,
                    tx,
                    rx,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_core::session::Profile;
    use qtp_core::ServerPolicy;
    use qtp_simnet::time::Rate;

    fn mixed_plans(packets: u64) -> Vec<ConnectionPlan> {
        vec![
            ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
                .label("af")
                .finite(packets),
            ConnectionPlan::new(Profile::qtp_light())
                .label("light")
                .finite(packets),
        ]
    }

    #[test]
    fn mux_backend_runs_mixed_plans_over_one_socket_pair() {
        let plans = mixed_plans(10);
        let outcomes = MuxBackend::default().run(&plans).expect("mux run");
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.completion_s.is_some(), "{} completed", o.label);
        }
        // The reliable connection delivered everything; negotiation
        // matches the pure policy function.
        assert_eq!(outcomes[0].delivered_bytes, 10 * 1000);
        assert_eq!(
            outcomes[0].negotiated,
            Some(ServerPolicy::default().negotiate(Profile::qtp_af(Rate::from_kbps(500)).caps()))
        );
        assert!(outcomes[1].negotiated.is_some());
    }
}
