//! Aligned plain-text tables and JSON result files for experiment output.

use bba_obs::json::{self, Value};

/// Prints a header banner for an experiment, including the active SIMD
/// kernel dispatch — perf numbers from an `avx2` host and a `portable`
/// fallback host are not comparable, so every artifact names its path.
pub fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!("simd dispatch: {}", bba_simd::name());
    println!();
}

/// Renders rows as an aligned text table. The first row is the header.
///
/// ```
/// use bba_bench::report::render_table;
/// let t = render_table(&[
///     vec!["method".into(), "AP".into()],
///     vec!["BB-Align".into(), "0.71".into()],
/// ]);
/// assert!(t.contains("BB-Align"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            line.push_str(&format!("{cell:<width$}  ", width = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Prints a rendered table.
pub fn print_table(rows: &[Vec<String>]) {
    print!("{}", render_table(rows));
}

/// Formats a fraction as a percentage string.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

/// Formats an `Option<f64>` metric with fixed decimals, or `-`.
pub fn opt(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "-".into(),
    }
}

/// Writes a machine-readable result blob to `results/<name>.json`,
/// alongside the human-readable `.txt` the driver script captures. This is
/// the perf-trajectory record: CI's bench-smoke job uploads `results/`, so
/// every run leaves a parseable snapshot next to the table.
///
/// Errors are reported on stderr but never fail the benchmark — a missing
/// `results/` directory on an ad-hoc machine must not kill a run.
pub fn write_results_json(name: &str, value: &Value) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, json::to_string_pretty(value) + "\n") {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Writes an observability snapshot to `results/metrics_<name>.json` (the
/// per-run health artifact CI's bench-smoke job uploads) and returns it
/// re-parsed as a [`Value`] so callers can also merge it into
/// their main results blob. Follows the same never-fail policy as
/// [`write_results_json`]; the returned value is `Null` when the snapshot
/// JSON fails to parse (it shouldn't — the exporter emits strict JSON).
pub fn write_metrics_json(name: &str, snapshot: &bba_obs::MetricsSnapshot) -> Value {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create results/: {e}");
    } else {
        let path = dir.join(format!("metrics_{name}.json"));
        match snapshot.write_json(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    json::parse(&snapshot.to_json()).unwrap_or(Value::Null)
}

/// Recursively searches a JSON value for a map that binds the same key
/// twice, returning the path of the first offender (e.g.
/// `phases[2].median_1thr_ms`) or `None` when every map is well-formed.
///
/// [`Value::Map`] keeps objects as ordered `(key, value)` pairs and the
/// printer writes duplicates as they are — which is how
/// `timing_breakdown` once emitted two `median_1thr_ms` fields per phase on
/// a single-thread host. Result writers (and the results-schema test) use
/// this to reject such records.
pub fn duplicate_key_path(value: &Value) -> Option<String> {
    fn walk(v: &Value, path: &str) -> Option<String> {
        match v {
            Value::Map(entries) => {
                let mut seen = std::collections::HashSet::new();
                for (k, _) in entries {
                    if !seen.insert(k.as_str()) {
                        return Some(if path.is_empty() {
                            k.clone()
                        } else {
                            format!("{path}.{k}")
                        });
                    }
                }
                for (k, child) in entries {
                    let child_path =
                        if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    if let Some(found) = walk(child, &child_path) {
                        return Some(found);
                    }
                }
                None
            }
            Value::Seq(items) => {
                items.iter().enumerate().find_map(|(i, child)| walk(child, &format!("{path}[{i}]")))
            }
            _ => None,
        }
    }
    walk(value, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["wide-cell".into(), "x".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        // Second column starts at the same offset in header and body.
        let h = lines[0].find("long-header").unwrap();
        let b = lines[2].find('x').unwrap();
        assert_eq!(h, b);
    }

    #[test]
    fn empty_table_is_empty() {
        assert_eq!(render_table(&[]), "");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8), "80.0%");
        assert_eq!(opt(Some(1.23456), 2), "1.23");
        assert_eq!(opt(None, 2), "-");
    }

    #[test]
    fn duplicate_keys_are_detected_with_their_path() {
        let clean = Value::Map(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Seq(vec![Value::Map(vec![
                    ("x".into(), Value::UInt(1)),
                    ("y".into(), Value::UInt(2)),
                ])]),
            ),
        ]);
        assert_eq!(duplicate_key_path(&clean), None);

        // The exact shape of the old timing_breakdown bug: a phase record
        // binding median_1thr_ms twice.
        let buggy = Value::Map(vec![(
            "phases".into(),
            Value::Seq(vec![
                Value::Map(vec![("label".into(), Value::Str("ok".into()))]),
                Value::Map(vec![
                    ("label".into(), Value::Str("ransac".into())),
                    ("median_1thr_ms".into(), Value::Float(324.0)),
                    ("median_1thr_ms".into(), Value::Float(323.9)),
                ]),
            ]),
        )]);
        assert_eq!(duplicate_key_path(&buggy).as_deref(), Some("phases[1].median_1thr_ms"));

        // Duplicates at the root are reported without a leading dot.
        let root = Value::Map(vec![("k".into(), Value::Null), ("k".into(), Value::Null)]);
        assert_eq!(duplicate_key_path(&root).as_deref(), Some("k"));
    }
}
