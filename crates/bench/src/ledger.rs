//! The claims ledger: every paper claim re-measured, serialized, and
//! regression-gated.
//!
//! The paper's evaluation is twelve textual claims; each is reproduced by
//! one experiment (E1–E12, see [`crate::experiments_a`] /
//! [`crate::experiments_b`] / [`crate::experiments_c`]), extended to the
//! application data plane by the scenario families (A1–A3, see
//! [`crate::scenarios`]), extended to the hostile-path scenario matrix
//! (H1–H5, see [`crate::hostile`]), extended along the negotiated
//! congestion-control axis by the controller races (C1–C3, see
//! [`crate::controllers`]) and extended at
//! scale by the many-flow fairness sweep (F1, Jain index vs N). This
//! module turns those runs into a **committed artifact pair** —
//! `EXPERIMENTS.md` (human) and `experiments.json` (machine baseline) —
//! and a gate: `cargo test` (qtp-bench's `behaviour_identity` suite)
//! regenerates every group in-process and holds both files byte for byte,
//! and re-evaluates the [ordering assertions](assertions) that encode the
//! claims themselves ("QTPAF goodput ≥ TFRC goodput", …). `expt --check`
//! is the developer's view of the same run: it compares every gated
//! metric against the committed baseline under its [`Tolerance`], so a
//! drift is classified as within or beyond what the claim allows.
//!
//! Everything gated is produced by the deterministic simulator at fixed
//! seeds, so the committed artifacts are byte-identical across runs of
//! the same code. Real-socket numbers are wall-clock and live in qtpperf
//! (`benchmark/`), not here.

use crate::json::{self, Value};
use crate::manyflow::{run_sim, ManyFlowConfig};
use crate::table::{MetricValue, Table, Tolerance};
use std::fmt::Write as _;

/// Flow counts of the committed fairness sweep.
pub const SWEEP_NS: [usize; 4] = [4, 64, 256, 1000];

/// The full deterministic ledger: all twelve experiments plus the
/// fairness sweep at [`SWEEP_NS`].
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Result tables in report order (E1…E12, then F1).
    pub tables: Vec<Table>,
}

impl Ledger {
    /// Qualified-name lookup (`e2.qtpaf_min`) across all tables.
    pub fn find_metric(&self, qualified: &str) -> Option<(MetricValue, Tolerance, String)> {
        let (tid, name) = qualified.split_once('.')?;
        let table = self
            .tables
            .iter()
            .find(|t| t.id.eq_ignore_ascii_case(tid))?;
        let m = table.get_metric(name)?;
        Some((m.value, m.tolerance, m.unit.clone()))
    }

    /// Every gated metric as `(qualified name, value, tolerance)`, in
    /// report order.
    pub fn all_metrics(&self) -> Vec<(String, MetricValue, Tolerance)> {
        let mut out = Vec::new();
        for t in &self.tables {
            for m in &t.metrics {
                out.push((
                    format!("{}.{}", t.id.to_lowercase(), m.name),
                    m.value,
                    m.tolerance,
                ));
            }
        }
        out
    }
}

/// Run the complete deterministic ledger (all experiments, sim sweep).
/// Takes ~15 s in release mode; every number is a pure function of the
/// fixed seeds.
pub fn run_full() -> Ledger {
    let mut tables: Vec<Table> = crate::ALL_IDS
        .iter()
        .map(|id| crate::run_experiment(id).expect("known id"))
        .collect();
    tables.push(fairness_sweep_sim(&SWEEP_NS));
    Ledger { tables }
}

/// Run only the tables whose id starts with `prefix` (case-insensitive),
/// e.g. `"h"` for the hostile-path group or `"e1"` for E1/E10–E12. The
/// fairness sweep is included when its id (`f1`) matches. Backs
/// `expt --check --only PREFIX` for a focused re-run of one group.
pub fn run_group(prefix: &str) -> Ledger {
    let prefix = prefix.to_lowercase();
    let mut tables: Vec<Table> = crate::ALL_IDS
        .iter()
        .filter(|id| id.starts_with(&prefix))
        .map(|id| crate::run_experiment(id).expect("known id"))
        .collect();
    if "f1".starts_with(&prefix) {
        tables.push(fairness_sweep_sim(&SWEEP_NS));
    }
    Ledger { tables }
}

/// Restrict a [`CheckReport`] to the metrics and assertions of one table
/// group (qualified names starting with `prefix`). Used with
/// [`run_group`]: the fresh run only produced that group, so baseline
/// metrics from other groups must not be reported as missing.
pub fn filter_check(mut report: CheckReport, prefix: &str) -> CheckReport {
    let prefix = prefix.to_lowercase();
    report.metrics.retain(|m| m.name.starts_with(&prefix));
    report
        .assertions
        .retain(|a| a.check.left.starts_with(&prefix));
    report
}

/// F1 — the many-flow fairness sweep on the deterministic simulator:
/// mixed capability profiles, Jain index and per-profile goodput vs N.
pub fn fairness_sweep_sim(ns: &[usize]) -> Table {
    let mut t = Table::new(
        "F1",
        "Many-flow fairness sweep (sim): Jain index vs N, mixed profiles",
        "scaling extension of §4: capability negotiation stays fair when one bottleneck carries N ∈ {4…1000} mixed QTPAF/QTPlight/TTL/TFRC flows",
        &[
            "N",
            "jain",
            "completed",
            "mean goodput (kbit/s)",
            "p95 completion (s)",
            "qtpaf mean (kbit/s)",
            "tfrc mean (kbit/s)",
        ],
    );
    let mut worst_jain = f64::INFINITY;
    let mut incomplete_ns: Vec<usize> = Vec::new();
    let mut floor_behind_ns: Vec<usize> = Vec::new();
    for &n in ns {
        let cfg = ManyFlowConfig::new(n);
        let report = run_sim(&cfg);
        let summary = report.profile_summary();
        let goodput_of = |label: &str| {
            summary
                .iter()
                .find(|a| a.profile == label)
                .map(|a| a.mean_goodput_bps)
                .unwrap_or(f64::NAN)
        };
        let (qtpaf, tfrc) = (goodput_of("qtpaf"), goodput_of("tfrc"));
        let p95 = report.p95_completion_s();
        worst_jain = worst_jain.min(report.jain);
        if report.completed < n {
            incomplete_ns.push(n);
        }
        // NaN (a profile missing from the mix) also counts as "behind".
        if qtpaf.partial_cmp(&tfrc) != Some(std::cmp::Ordering::Greater)
            && qtpaf.partial_cmp(&tfrc) != Some(std::cmp::Ordering::Equal)
        {
            floor_behind_ns.push(n);
        }
        t.row(vec![
            n.to_string(),
            format!("{:.4}", report.jain),
            format!("{}/{}", report.completed, n),
            format!("{:.1}", report.mean_goodput_bps() / 1e3),
            format!("{p95:.3}"),
            format!("{:.1}", qtpaf / 1e3),
            format!("{:.1}", tfrc / 1e3),
        ]);
        t.metric(
            &format!("jain_n{n}"),
            report.jain,
            "index",
            Tolerance::Abs(0.05),
        );
        t.metric(
            &format!("completed_n{n}"),
            report.completed,
            "flows",
            Tolerance::Exact,
        );
        t.metric(
            &format!("mean_goodput_n{n}"),
            report.mean_goodput_bps() / 1e3,
            "kbit/s",
            Tolerance::Rel(0.10),
        );
        t.metric(
            &format!("qtpaf_goodput_n{n}"),
            qtpaf / 1e3,
            "kbit/s",
            Tolerance::Rel(0.15),
        );
        t.metric(
            &format!("tfrc_goodput_n{n}"),
            tfrc / 1e3,
            "kbit/s",
            Tolerance::Rel(0.15),
        );
        t.metric(
            &format!("p95_completion_n{n}"),
            p95,
            "s",
            Tolerance::Rel(0.20),
        );
    }
    // Derived from the measured rows, so the committed text can never
    // contradict its own table.
    let completion_text = if incomplete_ns.is_empty() {
        "every flow count completes within the horizon".to_string()
    } else {
        format!("flows missed the horizon at N ∈ {incomplete_ns:?}")
    };
    let floor_text = if floor_behind_ns.is_empty() {
        "keeps its class at or above the unreserved TFRC class at every N".to_string()
    } else {
        format!("falls behind the TFRC class at N ∈ {floor_behind_ns:?}")
    };
    t.verdict = format!(
        "{completion_text} and the mixed-profile Jain index never drops below {worst_jain:.4}; the QTPAF floor (fair share) {floor_text}."
    );
    t
}

/// Comparison operator of an ordering assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Left ≥ right.
    Ge,
    /// Left ≤ right.
    Le,
}

impl Op {
    fn symbol(&self) -> &'static str {
        match self {
            Op::Ge => "≥",
            Op::Le => "≤",
        }
    }

    fn json_name(&self) -> &'static str {
        match self {
            Op::Ge => "ge",
            Op::Le => "le",
        }
    }

    fn holds(&self, left: f64, right: f64) -> bool {
        // NaN on either side fails both directions by IEEE comparison
        // semantics, which is exactly the gate behaviour we want.
        match self {
            Op::Ge => left >= right,
            Op::Le => left <= right,
        }
    }
}

/// Right-hand side of an ordering assertion: another metric or a fixed
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A qualified metric name (`e2.tcp_min`).
    Metric(String),
    /// A constant threshold.
    Const(f64),
}

/// One ordering assertion over the *fresh* run — the machine-checkable
/// form of a paper claim, independent of any baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingCheck {
    /// Qualified left-hand metric name.
    pub left: String,
    /// Comparison direction.
    pub op: Op,
    /// Right-hand side.
    pub right: Operand,
    /// The claim this assertion encodes, for reports.
    pub why: &'static str,
}

impl OrderingCheck {
    fn ge(left: &str, right: Operand, why: &'static str) -> Self {
        OrderingCheck {
            left: left.into(),
            op: Op::Ge,
            right,
            why,
        }
    }

    fn le(left: &str, right: Operand, why: &'static str) -> Self {
        OrderingCheck {
            left: left.into(),
            op: Op::Le,
            right,
            why,
        }
    }

    /// Human rendering, e.g. `e2.qtpaf_min ≥ e2.tcp_min`.
    pub fn describe(&self) -> String {
        match &self.right {
            Operand::Metric(m) => format!("{} {} {}", self.left, self.op.symbol(), m),
            Operand::Const(c) => format!("{} {} {}", self.left, self.op.symbol(), c),
        }
    }
}

/// The ordering assertions the ledger enforces on every run: each paper
/// claim reduced to an inequality over the gated metrics. Thresholds sit
/// well inside the measured seed values so legitimate numeric jitter
/// passes while a claim inversion cannot.
pub fn assertions() -> Vec<OrderingCheck> {
    use Operand::{Const, Metric};
    vec![
        // E1 — TCP cannot hold an AF reservation (Seddigh baseline).
        OrderingCheck::le(
            "e1.worst_high_target",
            Const(0.8),
            "large TCP reservations under-achieve",
        ),
        OrderingCheck::ge(
            "e1.best_low_target",
            Const(1.05),
            "small TCP reservations grab excess",
        ),
        // E2 — QTPAF holds the negotiated rate, TCP does not.
        OrderingCheck::ge(
            "e2.qtpaf_min",
            Const(0.9),
            "QTPAF achieves the negotiated rate in the worst case",
        ),
        OrderingCheck::ge(
            "e2.qtpaf_min",
            Metric("e2.tcp_min".into()),
            "QTPAF's worst case beats TCP's",
        ),
        // E3 — convergence to the guarantee.
        OrderingCheck::ge(
            "e3.qtpaf_steady_mbps",
            Const(4.0),
            "QTPAF steady state at or above g = 4 Mbit/s",
        ),
        OrderingCheck::ge(
            "e3.qtpaf_steady_mbps",
            Metric("e3.tcp_steady_mbps".into()),
            "QTPAF converges above the TCP flow with the same reservation",
        ),
        // E4 — QTPlight ≡ TFRC rate behaviour.
        OrderingCheck::ge(
            "e4.worst_deviation",
            Const(0.7),
            "QTPlight stays within a small factor of standard TFRC",
        ),
        OrderingCheck::le(
            "e4.worst_deviation",
            Const(1.4),
            "QTPlight stays within a small factor of standard TFRC",
        ),
        // E5 — receiver load drops.
        OrderingCheck::ge(
            "e5.min_reduction",
            Const(1.1),
            "QTPlight reduces receiver ops/packet at every loss rate",
        ),
        // E6 — selfish receivers neutralised.
        OrderingCheck::le(
            "e6.max_light_gain",
            Metric("e6.max_std_gain".into()),
            "sender-side estimation shrinks the selfish-receiver attack",
        ),
        OrderingCheck::le(
            "e6.max_light_gain",
            Const(2.0),
            "a selfish receiver gains almost nothing under QTPlight",
        ),
        OrderingCheck::ge(
            "e6.max_std_gain",
            Const(2.0),
            "standard TFRC is genuinely vulnerable (the attack exists)",
        ),
        // E7 — smooth and still fair.
        OrderingCheck::le(
            "e7.cov_tfrc",
            Metric("e7.cov_tcp".into()),
            "TFRC's rate is smoother than TCP's",
        ),
        OrderingCheck::ge(
            "e7.jain_tcp_tfrc",
            Const(0.7),
            "TFRC and TCP still share the bottleneck roughly fairly",
        ),
        // E8 — rate-based control on wireless paths.
        OrderingCheck::ge(
            "e8.min_advantage",
            Const(0.9),
            "rate-based control sustains at least TCP-level goodput on bursty paths",
        ),
        // E9 — the composition matrix.
        OrderingCheck::ge(
            "e9.full_min_delivered",
            Const(0.99),
            "full reliability delivers everything under 3% loss",
        ),
        OrderingCheck::ge(
            "e9.full_min_delivered",
            Metric("e9.none_max_delivered".into()),
            "full reliability beats best-effort delivery",
        ),
        // E10 — reliability and QoS compose.
        OrderingCheck::ge(
            "e10.qtpaf_wire_ratio",
            Const(1.0),
            "QTPAF holds the reservation on the lossy assured path",
        ),
        OrderingCheck::le(
            "e10.qtpaf_app_loss",
            Const(0.0),
            "QTPAF recovers every loss (tail-adjusted app loss zero)",
        ),
        // E11 — loss-event grouping is load-bearing.
        OrderingCheck::ge(
            "e11.worst_penalty",
            Const(1.5),
            "removing event grouping collapses the rate on bursty paths",
        ),
        // E12 — the guarantee needs the full composition.
        OrderingCheck::ge(
            "e12.full_achieved",
            Const(0.95),
            "the full QTPAF composition holds g",
        ),
        OrderingCheck::le(
            "e12.no_floor_achieved",
            Const(0.9),
            "dropping the gTFRC floor breaks the reservation",
        ),
        // F1 — fairness at scale, and the floor keeps QTPAF ≥ TFRC.
        OrderingCheck::ge(
            "f1.jain_n4",
            Const(0.7),
            "mixed-profile fairness holds at N = 4",
        ),
        OrderingCheck::ge(
            "f1.jain_n64",
            Const(0.7),
            "mixed-profile fairness holds at N = 64",
        ),
        OrderingCheck::ge(
            "f1.jain_n256",
            Const(0.7),
            "mixed-profile fairness holds at N = 256",
        ),
        OrderingCheck::ge(
            "f1.jain_n1000",
            Const(0.7),
            "mixed-profile fairness holds at N = 1000",
        ),
        OrderingCheck::ge(
            "f1.qtpaf_goodput_n256",
            Metric("f1.tfrc_goodput_n256".into()),
            "the QTPAF reservation keeps its class ahead of TFRC at N = 256",
        ),
        OrderingCheck::ge(
            "f1.qtpaf_goodput_n1000",
            Metric("f1.tfrc_goodput_n1000".into()),
            "the QTPAF reservation keeps its class ahead of TFRC at N = 1000",
        ),
        // A1 — the stream data plane composes the floor with reliability.
        OrderingCheck::ge(
            "a1.qtpaf_goodput_mbps",
            Metric("a1.tfrc_goodput_mbps".into()),
            "floor + full reliability beats the plain-TFRC datagram copy on bulk goodput",
        ),
        OrderingCheck::ge(
            "a1.qtpaf_byte_exact",
            Const(1.0),
            "the reliable stream reproduces the file byte-exact under loss",
        ),
        // A2 — interactive traffic completes and the tail stays bounded.
        OrderingCheck::ge(
            "a2.completed",
            Const(100.0),
            "every closed-loop exchange completes under loss",
        ),
        OrderingCheck::le(
            "a2.p99_ms",
            Const(1_000.0),
            "the response-time tail is one tail-loss recovery, not a stall",
        ),
        // A3 — TTL-partial reliability beats full on deadline misses.
        OrderingCheck::le(
            "a3.partial_miss_rate",
            Metric("a3.full_miss_rate".into()),
            "TTL-bounded delivery misses fewer playout deadlines than full reliability",
        ),
        OrderingCheck::ge(
            "a3.partial_ttl_dropped",
            Const(1.0),
            "the receiver-side TTL drop path fires on stale retransmissions",
        ),
        // H1 — bounded reordering: graceful degradation vs collapse.
        OrderingCheck::ge(
            "h1.qtpaf_retention",
            Const(0.30),
            "QTPAF keeps a substantial fraction of its goodput under heavy reordering",
        ),
        OrderingCheck::le(
            "h1.tcp_retention",
            Const(0.15),
            "TCP SACK genuinely collapses under the same reordering (the hazard exists)",
        ),
        OrderingCheck::ge(
            "h1.qtpaf_j100_mbps",
            Metric("h1.tcp_j100_mbps".into()),
            "the equation-based profile beats the window-based one at the 100 ms jitter bound",
        ),
        // H2 — duplication: exact dedup under a really-duplicating wire.
        OrderingCheck::ge(
            "h2.byte_exact_dup",
            Const(1.0),
            "the reliable stream stays byte-exact over a duplicating link",
        ),
        OrderingCheck::ge(
            "h2.amplification",
            Const(1.10),
            "the wire really carries duplicates (the adversary is live)",
        ),
        OrderingCheck::ge(
            "h2.goodput_retention",
            Const(0.85),
            "deduplication costs almost no goodput",
        ),
        // H3 — asymmetry: per-RTT feedback vs per-packet acks.
        OrderingCheck::ge(
            "h3.qtpaf_narrow_mbps",
            Metric("h3.tcp_narrow_mbps".into()),
            "QTP outperforms TCP behind a narrowband return channel",
        ),
        OrderingCheck::ge(
            "h3.qtpaf_retention",
            Const(0.85),
            "shrinking the return channel barely moves QTP's goodput",
        ),
        OrderingCheck::le(
            "h3.tcp_retention",
            Const(0.50),
            "ack starvation genuinely throttles TCP (the hazard exists)",
        ),
        // H4 — long fat pipe: the floor is RTT-independent.
        OrderingCheck::ge(
            "h4.qtpaf_rtt600_mbps",
            Const(12.0),
            "the gTFRC floor holds on the 600 ms RTT pipe",
        ),
        OrderingCheck::ge(
            "h4.qtpaf_rtt600_mbps",
            Metric("h4.tcp_rtt600_mbps".into()),
            "rate-based control beats the window transport at satellite latency",
        ),
        OrderingCheck::ge(
            "h4.qtpaf_retention",
            Const(0.85),
            "doubling the RTT barely moves the rate-based goodput",
        ),
        // H5 — handover: TTL-partial holds the deadline-miss floor.
        OrderingCheck::le(
            "h5.partial_miss_rate",
            Metric("h5.full_miss_rate".into()),
            "TTL-partial misses fewer playout deadlines across the handover",
        ),
        OrderingCheck::le(
            "h5.partial_miss_rate",
            Const(0.10),
            "the deadline-miss floor survives the WLAN→cellular handover",
        ),
        OrderingCheck::ge(
            "h5.partial_ttl_dropped",
            Const(1.0),
            "the receiver-side TTL drop path fires on post-handover stale retransmissions",
        ),
        // C1 — bufferbloat dumbbell: everyone fills the link, the
        // model-based controller does it without the standing queue.
        OrderingCheck::ge(
            "c1.tfrc_util",
            Const(0.7),
            "TFRC fills the bloated dumbbell",
        ),
        OrderingCheck::ge(
            "c1.cubic_util",
            Const(0.7),
            "CUBIC fills the bloated dumbbell",
        ),
        OrderingCheck::ge(
            "c1.bbr_util",
            Const(0.7),
            "BBR-lite fills the bloated dumbbell",
        ),
        OrderingCheck::le(
            "c1.bbr_qdelay_ms",
            Metric("c1.cubic_qdelay_ms".into()),
            "BBR-lite holds less standing queue than loss-based CUBIC",
        ),
        OrderingCheck::ge(
            "c1.cubic_qdelay_ms",
            Const(300.0),
            "loss-based control genuinely bloats the deep buffer (the hazard exists)",
        ),
        OrderingCheck::le(
            "c1.bbr_qdelay_ms",
            Const(50.0),
            "the model-based controller keeps queue delay near the propagation floor",
        ),
        // C2 — long fat pipe: the new controllers beat the equation at
        // satellite RTT (TFRC's throughput scales as 1/RTT).
        OrderingCheck::ge(
            "c2.cubic_rtt600_mbps",
            Metric("c2.tfrc_rtt600_mbps".into()),
            "CUBIC's RTT-decoupled window growth beats TFRC on the 600 ms LBDP",
        ),
        OrderingCheck::ge(
            "c2.bbr_rtt600_mbps",
            Metric("c2.tfrc_rtt600_mbps".into()),
            "BBR-lite's model-based rate beats TFRC on the 600 ms LBDP",
        ),
        // C3 — bursty loss and self-fairness at N = 64.
        OrderingCheck::ge(
            "c3.tfrc_burst_mbps",
            Const(1.0),
            "TFRC keeps moving on the bursty wireless hop",
        ),
        OrderingCheck::ge(
            "c3.cubic_burst_mbps",
            Const(1.0),
            "CUBIC keeps moving on the bursty wireless hop",
        ),
        OrderingCheck::ge(
            "c3.bbr_burst_mbps",
            Const(1.0),
            "BBR-lite keeps moving on the bursty wireless hop",
        ),
        OrderingCheck::ge(
            "c3.jain_cubic_n64",
            Const(0.9),
            "a uniform CUBIC flock stays self-fair at N = 64",
        ),
        OrderingCheck::ge(
            "c3.jain_bbr_n64",
            Const(0.9),
            "a uniform BBR-lite flock stays self-fair at N = 64",
        ),
        OrderingCheck::ge(
            "c3.jain_tfrc_n64",
            Const(0.7),
            "a uniform TFRC flock holds the F1 fairness floor despite its RTT-proportional bias",
        ),
    ]
}

/// Outcome of one evaluated assertion.
#[derive(Debug, Clone)]
pub struct AssertionResult {
    /// The assertion.
    pub check: OrderingCheck,
    /// Resolved left value (`NaN` if the metric is missing).
    pub left: f64,
    /// Resolved right value (`NaN` if a referenced metric is missing).
    pub right: f64,
    /// Whether it holds.
    pub holds: bool,
}

/// Evaluate [`assertions`] (or any custom list) against a fresh ledger.
pub fn evaluate_assertions(ledger: &Ledger, checks: &[OrderingCheck]) -> Vec<AssertionResult> {
    checks
        .iter()
        .map(|c| {
            let left = ledger
                .find_metric(&c.left)
                .map(|(v, _, _)| v.as_f64())
                .unwrap_or(f64::NAN);
            let right = match &c.right {
                Operand::Const(x) => *x,
                Operand::Metric(name) => ledger
                    .find_metric(name)
                    .map(|(v, _, _)| v.as_f64())
                    .unwrap_or(f64::NAN),
            };
            AssertionResult {
                check: c.clone(),
                left,
                right,
                holds: c.op.holds(left, right),
            }
        })
        .collect()
}

/// Render the committed `EXPERIMENTS.md` for a ledger. Pure function of
/// the tables — no timestamps, no environment — so the output is
/// byte-identical whenever the measurements are.
pub fn render_markdown(ledger: &Ledger) -> String {
    let mut out = String::new();
    out.push_str("# QTP claims ledger\n\n");
    out.push_str(
        "Machine-regenerated reproduction of every evaluation claim in\n\
         *Towards a Versatile Transport Protocol* (Jourjon, Lochin, Sénac —\n\
         CoNEXT 2006), plus the application scenario families (A1–A3, over\n\
         the stream data plane) and the many-flow fairness sweep. Every\n\
         number comes from the deterministic simulator at fixed seeds: the\n\
         same commit regenerates this file byte-identically.\n\n\
         - Regenerate: `cargo run --release -p qtp-bench --bin expt -- --report`\n\
         - Regression gate: `cargo run --release -p qtp-bench --bin expt -- --check`\n\n\
         `--check` re-runs everything and fails if any **gated metric**\n\
         drifts outside its tolerance versus the committed\n\
         `experiments.json`, or if any **claim assertion** below stops\n\
         holding. Intentional behaviour changes regenerate both files in\n\
         the same commit, so the diff *is* the review artifact.\n\n",
    );
    out.push_str("## Experiments\n\n");
    for t in &ledger.tables {
        out.push_str(&t.to_markdown());
    }
    out.push_str("## Claim assertions\n\n");
    out.push_str("| assertion | claim | measured | status |\n|---|---|---|---|\n");
    for r in evaluate_assertions(ledger, &assertions()) {
        let _ = writeln!(
            out,
            "| `{}` | {} | {:.4} vs {:.4} | {} |",
            r.check.describe(),
            r.check.why,
            r.left,
            r.right,
            if r.holds { "holds" } else { "**VIOLATED**" },
        );
    }
    out
}

/// Render the machine baseline (`experiments.json`) for a ledger.
pub fn render_json(ledger: &Ledger) -> String {
    let assertions_json: Vec<String> = evaluate_assertions(ledger, &assertions())
        .iter()
        .map(|r| {
            let right = match &r.check.right {
                Operand::Metric(m) => format!("\"right_metric\": {}", json::escape(m)),
                Operand::Const(c) => format!("\"right_const\": {c}"),
            };
            format!(
                "{{\"left\": {}, \"op\": {}, {}, \"holds\": {}}}",
                json::escape(&r.check.left),
                json::escape(r.check.op.json_name()),
                right,
                r.holds,
            )
        })
        .collect();
    format!(
        "{{\"version\": 1,\n \"paper\": \"Towards a versatile transport protocol (CoNEXT 2006)\",\n \"tables\": {},\n \"assertions\": [{}]\n}}\n",
        crate::table::tables_to_json(&ledger.tables),
        assertions_json.join(",\n  "),
    )
}

/// One finding of the baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Within tolerance (or informational).
    Ok,
    /// Outside its tolerance versus the baseline.
    Drifted,
    /// In the baseline but not produced by the fresh run.
    MissingInFresh,
    /// Produced by the fresh run but absent from the baseline — the
    /// baseline needs regenerating.
    MissingInBaseline,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricCheck {
    /// Qualified metric name.
    pub name: String,
    /// What happened.
    pub finding: Finding,
    /// Human detail line.
    pub detail: String,
}

/// Full result of `expt --check`.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Per-metric comparisons, report order, failures included.
    pub metrics: Vec<MetricCheck>,
    /// Fresh-run assertion results.
    pub assertions: Vec<AssertionResult>,
}

impl CheckReport {
    /// Number of regressions (drifted/missing metrics + violated
    /// assertions).
    pub fn failures(&self) -> usize {
        self.metrics
            .iter()
            .filter(|m| m.finding != Finding::Ok)
            .count()
            + self.assertions.iter().filter(|a| !a.holds).count()
    }

    /// Did everything pass?
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Human summary: every failure, then one count line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            if m.finding != Finding::Ok {
                let _ = writeln!(out, "REGRESSION {}: {}", m.name, m.detail);
            }
        }
        for a in &self.assertions {
            if !a.holds {
                let _ = writeln!(
                    out,
                    "ASSERTION VIOLATED {} ({}): measured {:.6} vs {:.6}",
                    a.check.describe(),
                    a.check.why,
                    a.left,
                    a.right,
                );
            }
        }
        let gated = self
            .metrics
            .iter()
            .filter(|m| m.finding == Finding::Ok)
            .count();
        let held = self.assertions.iter().filter(|a| a.holds).count();
        let _ = writeln!(
            out,
            "claims ledger check: {} metrics within tolerance, {} assertions hold, {} failure(s)",
            gated,
            held,
            self.failures(),
        );
        out
    }
}

/// Errors loading or interpreting the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineError(
    /// What is wrong with the baseline document.
    pub String,
);

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad experiments.json baseline: {}", self.0)
    }
}

impl std::error::Error for BaselineError {}

/// Extract `(qualified name, value)` pairs from a parsed baseline
/// document (the committed `experiments.json`).
pub fn baseline_metrics(doc: &Value) -> Result<Vec<(String, MetricValue)>, BaselineError> {
    let tables = doc
        .get("tables")
        .and_then(Value::as_arr)
        .ok_or_else(|| BaselineError("missing \"tables\" array".into()))?;
    let mut out = Vec::new();
    for t in tables {
        let id = t
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| BaselineError("table without \"id\"".into()))?
            .to_lowercase();
        let metrics = t
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or_else(|| BaselineError(format!("table {id} without \"metrics\"")))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| BaselineError(format!("metric without \"name\" in {id}")))?;
            let ty = m
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| BaselineError(format!("metric {id}.{name} without \"type\"")))?;
            let value = m
                .get("value")
                .ok_or_else(|| BaselineError(format!("metric {id}.{name} without \"value\"")))?;
            let value = match (ty, value) {
                ("float", v) => MetricValue::Float(
                    v.as_f64()
                        .ok_or_else(|| BaselineError(format!("{id}.{name}: non-numeric float")))?,
                ),
                ("int", Value::Num(x)) => MetricValue::Int(*x as i64),
                ("bool", Value::Bool(b)) => MetricValue::Bool(*b),
                _ => {
                    return Err(BaselineError(format!(
                        "{id}.{name}: value does not match type {ty}"
                    )))
                }
            };
            out.push((format!("{id}.{name}"), value));
        }
    }
    Ok(out)
}

/// Compare a fresh ledger against the committed baseline document under
/// the *fresh code's* tolerances, and evaluate the fresh assertions.
pub fn check_against(baseline: &Value, fresh: &Ledger) -> Result<CheckReport, BaselineError> {
    let base = baseline_metrics(baseline)?;
    let fresh_metrics = fresh.all_metrics();
    let mut checks = Vec::new();
    for (name, value, tol) in &fresh_metrics {
        if matches!(tol, Tolerance::Info) {
            continue;
        }
        match base.iter().find(|(n, _)| n == name) {
            None => checks.push(MetricCheck {
                name: name.clone(),
                finding: Finding::MissingInBaseline,
                detail: format!(
                    "new metric (= {}) absent from the committed baseline — regenerate with `expt --report`",
                    value.display(),
                ),
                }),
            Some((_, base_value)) => {
                if tol.accepts(*base_value, *value) {
                    checks.push(MetricCheck {
                        name: name.clone(),
                        finding: Finding::Ok,
                        detail: String::new(),
                    });
                } else {
                    checks.push(MetricCheck {
                        name: name.clone(),
                        finding: Finding::Drifted,
                        detail: format!(
                            "baseline {} → fresh {} exceeds tolerance {}",
                            base_value.display(),
                            value.display(),
                            tol.describe(),
                        ),
                    });
                }
            }
        }
    }
    for (name, value) in &base {
        if !fresh_metrics.iter().any(|(n, _, _)| n == name) {
            checks.push(MetricCheck {
                name: name.clone(),
                finding: Finding::MissingInFresh,
                detail: format!(
                    "baseline metric (= {}) no longer produced — regenerate with `expt --report`",
                    value.display(),
                ),
            });
        }
    }
    Ok(CheckReport {
        metrics: checks,
        assertions: evaluate_assertions(fresh, &assertions()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic ledger so the comparison machinery is testable
    /// without running any simulation.
    fn toy_ledger(speed: f64, count: u64) -> Ledger {
        let mut t = Table::new("E0", "toy", "x beats y", &["a"]);
        t.metric("speed", speed, "Mbit/s", Tolerance::Rel(0.10));
        t.metric("count", count, "pkts", Tolerance::Exact);
        t.metric("wall", 1.23, "s", Tolerance::Info);
        Ledger { tables: vec![t] }
    }

    #[test]
    fn identical_run_passes_check() {
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let report = check_against(&base, &toy_ledger(10.0, 5)).unwrap();
        // The toy ledger has none of the real assertion metrics, so only
        // look at the metric comparisons here.
        assert!(report.metrics.iter().all(|m| m.finding == Finding::Ok));
    }

    #[test]
    fn drift_within_tolerance_passes_but_beyond_fails() {
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let ok = check_against(&base, &toy_ledger(10.9, 5)).unwrap();
        assert!(ok.metrics.iter().all(|m| m.finding == Finding::Ok));
        // A deliberate 20% violation of the 10% budget is caught.
        let bad = check_against(&base, &toy_ledger(12.0, 5)).unwrap();
        let drifted: Vec<_> = bad
            .metrics
            .iter()
            .filter(|m| m.finding == Finding::Drifted)
            .collect();
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].name, "e0.speed");
        assert!(bad.failures() >= 1);
        assert!(bad.render().contains("REGRESSION e0.speed"));
    }

    #[test]
    fn exact_int_metric_tolerates_nothing() {
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let bad = check_against(&base, &toy_ledger(10.0, 6)).unwrap();
        assert!(bad
            .metrics
            .iter()
            .any(|m| m.name == "e0.count" && m.finding == Finding::Drifted));
    }

    #[test]
    fn missing_and_extra_metrics_are_regressions() {
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let mut fresh = toy_ledger(10.0, 5);
        fresh.tables[0].metrics.remove(1); // drop "count"
        fresh.tables[0].metric("brand_new", 1.0, "x", Tolerance::Abs(0.1));
        let report = check_against(&base, &fresh).unwrap();
        assert!(report
            .metrics
            .iter()
            .any(|m| m.name == "e0.count" && m.finding == Finding::MissingInFresh));
        assert!(report
            .metrics
            .iter()
            .any(|m| m.name == "e0.brand_new" && m.finding == Finding::MissingInBaseline));
    }

    #[test]
    fn nan_fresh_value_is_a_regression() {
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let bad = check_against(&base, &toy_ledger(f64::NAN, 5)).unwrap();
        assert!(bad
            .metrics
            .iter()
            .any(|m| m.name == "e0.speed" && m.finding == Finding::Drifted));
    }

    #[test]
    fn info_metrics_are_never_gated() {
        // Even a wildly different Info value compares clean.
        let base = json::parse(&render_json(&toy_ledger(10.0, 5))).unwrap();
        let mut fresh = toy_ledger(10.0, 5);
        fresh.tables[0].metrics[2].value = MetricValue::Float(9000.0);
        let report = check_against(&base, &fresh).unwrap();
        assert!(report.metrics.iter().all(|m| m.finding == Finding::Ok));
        assert!(!report.metrics.iter().any(|m| m.name == "e0.wall"));
    }

    #[test]
    fn ordering_assertions_metric_and_const() {
        let mut t = Table::new("E0", "toy", "c", &["a"]);
        t.metric("fast", 2.0, "x", Tolerance::Info);
        t.metric("slow", 1.0, "x", Tolerance::Info);
        let ledger = Ledger { tables: vec![t] };
        let checks = vec![
            OrderingCheck::ge("e0.fast", Operand::Metric("e0.slow".into()), "fast ≥ slow"),
            OrderingCheck::ge("e0.fast", Operand::Const(1.5), "fast ≥ 1.5"),
            OrderingCheck::le("e0.fast", Operand::Const(1.5), "fast ≤ 1.5 (should fail)"),
            OrderingCheck::ge("e0.missing", Operand::Const(0.0), "missing metric fails"),
        ];
        let results = evaluate_assertions(&ledger, &checks);
        assert!(results[0].holds);
        assert!(results[1].holds);
        assert!(!results[2].holds);
        assert!(!results[3].holds, "missing metric must fail, not pass");
        assert!(results[3].left.is_nan());
    }

    #[test]
    fn boundary_equal_ordering_holds() {
        let mut t = Table::new("E0", "toy", "c", &["a"]);
        t.metric("x", 1.5, "x", Tolerance::Info);
        let ledger = Ledger { tables: vec![t] };
        let results = evaluate_assertions(
            &ledger,
            &[
                OrderingCheck::ge("e0.x", Operand::Const(1.5), "boundary ge"),
                OrderingCheck::le("e0.x", Operand::Const(1.5), "boundary le"),
            ],
        );
        assert!(
            results.iter().all(|r| r.holds),
            "boundary-equal passes both"
        );
    }

    #[test]
    fn baseline_parsing_rejects_malformed_documents() {
        for bad in [
            "{}",
            r#"{"tables": [{"title": "no id", "metrics": []}]}"#,
            r#"{"tables": [{"id": "E0", "metrics": [{"name": "x"}]}]}"#,
            r#"{"tables": [{"id": "E0", "metrics": [{"name": "x", "type": "bool", "value": 3}]}]}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(baseline_metrics(&doc).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn render_json_roundtrips_through_parser() {
        let ledger = toy_ledger(10.0, 5);
        let doc = json::parse(&render_json(&ledger)).expect("render_json emits valid JSON");
        let metrics = baseline_metrics(&doc).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0], ("e0.speed".into(), MetricValue::Float(10.0)));
        assert_eq!(metrics[1], ("e0.count".into(), MetricValue::Int(5)));
    }

    #[test]
    fn small_sim_sweep_produces_gated_metrics() {
        let t = fairness_sweep_sim(&[4]);
        assert_eq!(t.rows.len(), 1);
        let jain = t.get_metric("jain_n4").expect("jain metric");
        assert!(jain.value.as_f64() > 0.5);
        let completed = t.get_metric("completed_n4").expect("completed metric");
        assert_eq!(completed.value, MetricValue::Int(4));
        assert_eq!(completed.tolerance, Tolerance::Exact);
    }
}
