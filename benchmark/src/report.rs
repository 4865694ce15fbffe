//! Output: the human-readable table, and the one-line JSON result the
//! driver reads (and `hopbench aa` reads back from its child runs).

use crate::run::{Metric, Report};
use crate::spec::PER_LAYER;

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, values printed with every digit `f64` carries.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, m.value, m.unit))
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A result line read back: `(correct, [(name, value)])`. Understands
/// exactly what [`result_line`] writes — this is not a JSON parser.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains(r#""correct": true"#);
    let body = line.split_once(r#""metrics": {"#)?.1;
    let mut values = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.trim_start_matches('"').split_once(r#"": {"value": "#)?;
        let value = rest.split_once(',')?.0.parse().ok()?;
        values.push((name.to_string(), value));
    }
    Some((correct, values))
}

fn row(m: &Metric) -> String {
    let mut line = format!("  {:<40} {:>16.6} {:<8}", m.name, m.value, m.unit);
    if let Some(s) = m.samples {
        line.push_str(&format!("  q1 {:.6}  q3 {:.6}  n={}", s.q1, s.q3, s.count));
    }
    if let Some((pct, value)) = m.tail {
        line.push_str(&format!("  p{pct} {value:.3}"));
    }
    if let Some(decl) = PER_LAYER.iter().find(|decl| decl.name == m.name) {
        line.push_str(&format!("  -> {}", decl.moves));
    }
    line
}

/// Every metric by name with its unit; timings with quartiles and sample
/// count, per-layer metrics with the end-to-end metric they should move.
pub fn table(title: &str, report: &Report) -> String {
    let mut out = format!("{title}\n");
    for m in &report.metrics {
        out.push_str(&row(m));
        out.push('\n');
    }
    if !report.ungated.is_empty() {
        out.push_str("ungated timings (per-layer metrics of the traced run)\n");
        for m in &report.ungated {
            out.push_str(&row(m));
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "  operations: {} attempted, {} failed -> {}\n",
        report.attempted,
        report.failed,
        if report.failed == 0 { "correct" } else { "INCORRECT" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let report = Report {
            metrics: vec![
                Metric { name: "setup_s", unit: "s", value: 1.2503417, samples: None, tail: None },
                Metric {
                    name: "wire_large_pairs_per_s",
                    unit: "pairs/s",
                    value: 2.5e6,
                    samples: None,
                    tail: None,
                },
            ],
            ungated: Vec::new(),
            attempted: 42,
            failed: 0,
        };
        let line = result_line(&report);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 42, "failed": 0, "metrics": {"setup_s": {"value": 1.2503417, "unit": "s"}, "wire_large_pairs_per_s": {"value": 2500000, "unit": "pairs/s"}}}"#
        );
        let (correct, values) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            values,
            vec![("setup_s".to_string(), 1.2503417), ("wire_large_pairs_per_s".to_string(), 2.5e6)]
        );

        let failed = Report { failed: 3, ..report };
        assert!(
            result_line(&failed).starts_with(r#"{"correct": false, "attempted": 42, "failed": 3,"#)
        );
        assert!(!parse_result_line(&result_line(&failed)).unwrap().0);
    }
}
