//! Sample summaries and the hand-written JSON of the result line.

use std::fmt::Write as _;

/// Samples beyond the tail value.
const TAIL_BEYOND: usize = 10;

/// The median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A latency distribution reduced to its median and its tail: the highest
/// percentile with at least ten samples beyond it, i.e. the eleventh
/// largest sample (with ten or fewer samples, the maximum).
#[derive(Clone, Debug)]
pub struct Summary {
    /// Samples the summary was computed from.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// Which percentile the tail is: the share of samples at or below it.
    pub tail_pct: f64,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = if n > TAIL_BEYOND {
            n - TAIL_BEYOND - 1
        } else {
            n.saturating_sub(1)
        };
        Summary {
            n,
            p50: median(samples),
            tail_pct: if n == 0 {
                100.0
            } else {
                100.0 * (at + 1) as f64 / n as f64
            },
            tail: sorted.get(at).copied().unwrap_or(0.0),
        }
    }

    /// One human-readable line: `name p50=… p95.2=… (n=…)`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p50={:.3}{unit} p{:.1}={:.3}{unit} (n={})",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One named metric with its unit, in output order.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// Renders `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let samples: Vec<f64> = (1..=250).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.tail, s.tail_pct), (240.0, 96.0));
        assert_eq!(Summary::of(&samples[..60]).tail, 50.0);
        assert_eq!(Summary::of(&samples[..5]).tail, 5.0);
        assert_eq!(Summary::of(&[]).tail, 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\n\"");
        assert_eq!(
            metrics_json(&[Metric {
                name: "x_ms",
                value: 1.5,
                unit: "ms"
            }]),
            "{\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
