//! Results as JSON: a serializer for [`qtp_bench::json::Value`] (the crate
//! ships the parser and the string escaper; this is the writing half) and
//! small constructors so result-building code stays readable.

use qtp_bench::json::{escape, Value};
use std::collections::BTreeMap;

pub fn num(x: f64) -> Value {
    Value::Num(x)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// `{"value": v, "unit": u}` — how every metric is reported.
pub fn metric(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", text(unit))])
}

/// A value for a table cell: four decimals, or four significant digits in
/// scientific notation where those would show nothing (set-up times in
/// microseconds) or too much; `n/a` for a value that does not exist.
pub fn short(x: Option<f64>) -> String {
    match x {
        Some(v) if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
        None => "n/a".into(),
    }
}

/// Serialize on one line. Numbers print with every digit `f64` holds
/// (shortest form that parses back to the same value); non-finite numbers
/// become `null`, as in the ledger's serializer.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => out.push_str(&escape(s)),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&escape(k));
                out.push_str(": ");
                write(item, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_bench::json::parse;

    #[test]
    fn results_round_trip_through_the_ledger_parser() {
        let v = obj([
            ("correct", Value::Bool(true)),
            ("attempted", num(20_000.0)),
            ("failed", num(0.0)),
            (
                "metrics",
                obj([
                    ("goodput_mbps", metric(1284.0625731, "Mbit/s")),
                    ("msg_latency_p50_us", metric(351.25, "us")),
                    ("tiny", metric(1.25e-9, "s")),
                ]),
            ),
            (
                "note",
                text("loopback, not a link: \"quoted\" \\ and\nnewline"),
            ),
            (
                "quartiles",
                Value::Arr(vec![num(1.0), num(2.5), Value::Null]),
            ),
        ]);
        let line = to_string(&v);
        assert!(!line.contains('\n'), "one line, as the driver reads it");
        assert_eq!(parse(&line).expect("parses"), v);
    }

    #[test]
    fn cells_are_short_and_mark_missing_values() {
        assert_eq!(short(None), "n/a");
        assert_eq!(short(Some(0.0)), "0.0000");
        assert_eq!(short(Some(1284.06257)), "1284.0626");
        assert_eq!(short(Some(1.25e-6)), "1.2500e-6");
        assert_eq!(short(Some(2.5e7)), "2.5000e7");
    }

    #[test]
    fn whole_numbers_print_without_a_fraction_and_nan_as_null() {
        assert_eq!(to_string(&num(1000.0)), "1000");
        assert_eq!(to_string(&num(0.1)), "0.1");
        assert_eq!(to_string(&num(f64::NAN)), "null");
        assert_eq!(to_string(&num(f64::INFINITY)), "null");
    }
}
