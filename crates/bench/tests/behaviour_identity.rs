//! Nothing moved: the fixed-seed goldens and both claims-ledger files
//! regenerate byte for byte from the code.
//!
//! Every golden scenario runs through its binary with exactly the
//! arguments `crates/bench/golden/README.md` regenerates it with, and its
//! stdout must equal the committed file. `simbench --check` holds the
//! simulator's deterministic engine counters at 10^3 flows against
//! `BENCH_simnet.json`. Each ledger group (A, C, E, F, H) is regenerated
//! in-process: every table's JSON must equal its object in the committed
//! `experiments.json`, its markdown must equal its section of the
//! committed `EXPERIMENTS.md`, and every claim assertion whose left
//! operand lies in the group must hold. One more test renders the rest of
//! both files (framing and claim assertions) from the committed metrics,
//! so no experiment runs twice. Group E, the paper's own experiments, is
//! the slowest (about 35 s unoptimised); the root manifest's
//! `opt-level = 1` for test builds brings it within a few seconds.
//!
//! A mismatch names the golden file, table id or file part and shows the
//! first differing line with three lines of context. There is no switch
//! that rewrites the committed files: an intended change regenerates them
//! with the commands in the golden README (the ledger with `expt
//! --report`) and commits the diff.

use qtp_bench::json;
use qtp_bench::ledger;
use qtp_bench::table::{Table, Tolerance};
use std::process::Command;

/// The workspace root: the committed ledger and simbench baseline live
/// there, and the binaries run from there as CI runs them.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

/// Lines of context shown before and after the first difference.
const CONTEXT: usize = 3;

/// Describe the first line where `fresh` and `committed` differ, with
/// [`CONTEXT`] lines around it, or `None` when they are byte-identical.
fn first_difference(fresh: &str, committed: &str) -> Option<String> {
    if fresh == committed {
        return None;
    }
    let fresh_lines: Vec<&str> = fresh.split('\n').collect();
    let committed_lines: Vec<&str> = committed.split('\n').collect();
    let at = (0..)
        .find(|&i| fresh_lines.get(i) != committed_lines.get(i))
        .expect("unequal texts differ in some line");
    let mut out = format!("first difference at line {}:\n", at + 1);
    for line in &committed_lines[at.saturating_sub(CONTEXT)..at] {
        out.push_str(&format!("    {}\n", clip(line, 0)));
    }
    let column = match (committed_lines.get(at), fresh_lines.get(at)) {
        (Some(c), Some(f)) => c.bytes().zip(f.bytes()).take_while(|(a, b)| a == b).count(),
        _ => 0,
    };
    let show = |line: Option<&&str>| line.map_or("<end of text>".to_string(), |l| clip(l, column));
    out.push_str(&format!("  - {}\n", show(committed_lines.get(at))));
    out.push_str(&format!("  + {}\n", show(fresh_lines.get(at))));
    for line in fresh_lines.iter().skip(at + 1).take(CONTEXT) {
        out.push_str(&format!("    {}\n", clip(line, 0)));
    }
    Some(out)
}

/// A long line (a ledger table's rows share one) cut to a window around
/// byte `column`.
fn clip(line: &str, column: usize) -> String {
    const WIDTH: usize = 100;
    if line.len() <= 2 * WIDTH {
        return line.to_string();
    }
    let mut start = column.saturating_sub(WIDTH / 2).min(line.len());
    while !line.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = (start + WIDTH).min(line.len());
    while !line.is_char_boundary(end) {
        end += 1;
    }
    format!(
        "{}{}{}",
        if start > 0 { "…" } else { "" },
        &line[start..end],
        if end < line.len() { "…" } else { "" }
    )
}

fn assert_identical(what: &str, fresh: &str, committed: &str) {
    if let Some(diff) = first_difference(fresh, committed) {
        panic!("{what} moved (- committed, + fresh); {diff}");
    }
}

/// Run one of this package's binaries from the workspace root with the
/// space-separated `args` and return its stdout; a non-zero exit fails
/// with both output streams.
fn run(bin: &str, args: &str) -> String {
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(ROOT)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{bin} {args} exited with {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    stdout
}

fn golden(file: &str, bin: &str, args: &str) {
    let path = format!("{GOLDEN}/{file}");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_identical(&format!("golden {file}"), &run(bin, args), &committed);
}

#[test]
fn golden_qtpsim_qtplight() {
    golden(
        "qtpsim-qtplight-seed42.txt",
        env!("CARGO_BIN_EXE_qtpsim"),
        "--protocol qtplight --rate-mbps 5 --rtt-ms 40 --loss 0.01 --secs 5 --seed 42",
    );
}

/// The one golden whose round trip starts below the receiver's 10 ms
/// feedback-interval floor.
#[test]
fn golden_qtpsim_qtplight_rtt8() {
    golden(
        "qtpsim-qtplight-rtt8-seed42.txt",
        env!("CARGO_BIN_EXE_qtpsim"),
        "--protocol qtplight --rate-mbps 5 --rtt-ms 8 --loss 0.01 --secs 5 --seed 42",
    );
}

#[test]
fn golden_manyflow_1000() {
    golden(
        "manyflow-1000-seed42.txt",
        env!("CARGO_BIN_EXE_manyflow"),
        "--flows 1000 --seed 42 --per-flow",
    );
}

#[test]
fn golden_appscen() {
    golden("appscen.md", env!("CARGO_BIN_EXE_appscen"), "");
}

/// The traced two-flow scenario the three `qtptrace` goldens share.
const QTPTRACE: &str = "--flows 2 --packets 40 --seed 42 --bottleneck 200";

#[test]
fn golden_qtptrace() {
    golden(
        "qtptrace-seed42.txt",
        env!("CARGO_BIN_EXE_qtptrace"),
        QTPTRACE,
    );
}

#[test]
fn golden_qtptrace_hostile() {
    golden(
        "qtptrace-hostile-seed42.txt",
        env!("CARGO_BIN_EXE_qtptrace"),
        &format!("{QTPTRACE} --reorder-ms 30"),
    );
}

#[test]
fn golden_qtptrace_cc() {
    golden(
        "qtptrace-cc-seed42.txt",
        env!("CARGO_BIN_EXE_qtptrace"),
        &format!("{QTPTRACE} --profiles cubic,bbr-lite"),
    );
}

/// The 10^3-flow point of the committed events/s trajectory: events
/// dispatched, flows completed, bytes delivered and the packet-pool
/// high-water must all match (timings are printed, never compared).
#[test]
fn simbench_engine_counters_at_1000_flows() {
    let out = run(
        env!("CARGO_BIN_EXE_simbench"),
        "--check BENCH_simnet.json --points 1000",
    );
    assert!(
        out.contains("all points match the committed baseline"),
        "{out}"
    );
}

/// The ledger groups, one test each; every committed table belongs to one.
const GROUPS: [&str; 5] = ["a", "c", "e", "f", "h"];

fn read_root(file: &str) -> String {
    let path = format!("{ROOT}/{file}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The ids of the tables in the committed `experiments.json`, in order.
fn committed_ids(doc: &str) -> Vec<&str> {
    doc.match_indices("{\"id\": \"")
        .map(|(i, key)| {
            let id = &doc[i + key.len()..];
            &id[..id.find('"').expect("quoted id")]
        })
        .collect()
}

/// The committed JSON object of table `id` inside `experiments.json`.
fn committed_table<'a>(doc: &'a str, id: &str) -> &'a str {
    let key = format!("{{\"id\": \"{id}\", ");
    let start = doc
        .find(&key)
        .unwrap_or_else(|| panic!("experiments.json has no table {id}"));
    let rest = &doc[start..];
    let end = [",\n {\"id\": ", "],\n \"assertions\""]
        .iter()
        .filter_map(|sep| rest.find(sep))
        .min()
        .expect("every table is followed by another or by the assertions");
    &rest[..end]
}

/// The committed `EXPERIMENTS.md` section of table `id`: from its heading
/// to the next heading (the next table's, or the claim assertions').
fn committed_section<'a>(md: &'a str, id: &str) -> &'a str {
    let start = md
        .find(&format!("\n### {id} — "))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no table {id}"))
        + 1;
    let len = md[start + 1..]
        .find("\n#")
        .map_or(md.len() - start, |i| i + 2);
    &md[start..start + len]
}

/// Regenerate the ledger group `prefix`: each table must equal its
/// committed JSON object and its committed `EXPERIMENTS.md` section byte
/// for byte, and each assertion on the group must hold.
fn ledger_group(prefix: &str) {
    let doc = read_root("experiments.json");
    let md = read_root("EXPERIMENTS.md");
    let fresh = ledger::run_group(prefix);
    let fresh_ids: Vec<&str> = fresh.tables.iter().map(|t| t.id.as_str()).collect();
    let committed_ids: Vec<&str> = committed_ids(&doc)
        .into_iter()
        .filter(|id| id.to_lowercase().starts_with(prefix))
        .collect();
    assert_eq!(
        fresh_ids, committed_ids,
        "group {prefix} changed its tables"
    );
    for table in &fresh.tables {
        assert_identical(
            &format!("experiments.json table {}", table.id),
            &table.to_json(),
            committed_table(&doc, &table.id),
        );
        assert_identical(
            &format!("EXPERIMENTS.md table {}", table.id),
            &table.to_markdown(),
            committed_section(&md, &table.id),
        );
    }
    let checks: Vec<_> = ledger::assertions()
        .into_iter()
        .filter(|c| c.left.starts_with(prefix))
        .collect();
    assert!(!checks.is_empty(), "group {prefix} has no claim assertions");
    for r in ledger::evaluate_assertions(&fresh, &checks) {
        assert!(
            r.holds,
            "claim assertion `{}` no longer holds: {:.4} vs {:.4} ({})",
            r.check.describe(),
            r.left,
            r.right,
            r.check.why,
        );
    }
}

#[test]
fn ledger_a_app_scenarios() {
    ledger_group("a");
}

#[test]
fn ledger_c_controller_races() {
    ledger_group("c");
}

#[test]
fn ledger_e_paper_experiments() {
    ledger_group("e");
}

#[test]
fn ledger_f_fairness_sweep() {
    ledger_group("f");
}

#[test]
fn ledger_h_hostile_paths() {
    ledger_group("h");
}

/// Hold the `committed` file's text before `open` and from `close` on
/// against the `rendered` one's, and return the committed tables between.
fn framing<'a>(file: &str, rendered: &str, committed: &'a str, open: &str, close: &str) -> &'a str {
    let bounds = |text: &str| match (text.find(open), text.find(close)) {
        (Some(start), Some(end)) => (start + open.len(), end),
        _ => panic!("{file} lacks {open:?} or {close:?}"),
    };
    let ((rs, re), (cs, ce)) = (bounds(rendered), bounds(committed));
    assert_identical(
        &format!("{file} before the tables"),
        &rendered[..rs],
        &committed[..cs],
    );
    assert_identical(
        &format!("{file} after the tables"),
        &rendered[re..],
        &committed[ce..],
    );
    &committed[cs..ce]
}

/// Everything in the two ledger files that is not a table: both files'
/// framing and the claim assertions, rendered from the committed metrics
/// (which the group tests prove equal to fresh ones, floats included:
/// they are written with `{x}` and parse back exactly). The tables
/// between the framing must be exactly the committed ones, in order, so
/// together with the group tests every byte of both files is regenerated.
#[test]
fn ledger_framing_and_claim_assertions() {
    let doc = read_root("experiments.json");
    let md = read_root("EXPERIMENTS.md");
    let ids = committed_ids(&doc);
    let orphan = ids
        .iter()
        .find(|id| !GROUPS.iter().any(|g| id.to_lowercase().starts_with(g)));
    assert_eq!(orphan, None, "a table belongs to no ledger group test");
    let parsed = json::parse(&doc).expect("experiments.json parses");
    let mut tables: Vec<Table> = Vec::new();
    for (name, value) in ledger::baseline_metrics(&parsed).expect("committed metrics") {
        let (id, metric) = name.split_once('.').expect("qualified metric name");
        if tables.last().map(|t| t.id.as_str()) != Some(id) {
            tables.push(Table::new(id, "", "", &[]));
        }
        let table = tables.last_mut().expect("just pushed");
        table.metric(metric, value, "", Tolerance::Exact);
    }
    let committed = ledger::Ledger { tables };

    let rendered = ledger::render_markdown(&committed);
    let body = framing(
        "EXPERIMENTS.md",
        &rendered,
        &md,
        "## Experiments\n\n",
        "## Claim assertions",
    );
    let sections: String = ids.iter().map(|id| committed_section(&md, id)).collect();
    assert_identical("EXPERIMENTS.md table sections", &sections, body);

    let rendered = ledger::render_json(&committed);
    let body = framing(
        "experiments.json",
        &rendered,
        &doc,
        "\"tables\": [",
        "],\n \"assertions\"",
    );
    let objects: Vec<&str> = ids.iter().map(|id| committed_table(&doc, id)).collect();
    assert_identical("experiments.json tables", &objects.join(",\n "), body);
}
