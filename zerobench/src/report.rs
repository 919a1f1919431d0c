//! Result assembly: named metrics with units, order statistics, and the
//! one-line JSON object the benchmark ends its output with.

use std::fmt::Write as _;

/// Metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.items.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.items.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }
}

/// What one run of one workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Gate failures; the run is correct when this is empty.
    pub gate_failures: Vec<String>,
    /// Operations attempted (training steps, or requests sent).
    pub attempted: u64,
    /// Operations failed (steps that errored or panicked, or requests
    /// shed or rejected).
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// The final output line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. Values print with every digit Rust's shortest
    /// round-tripping float format gives.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate_failures.is_empty(),
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// A finite float as JSON. Non-finite values cannot be written as JSON
/// numbers; the caller gates them out first, so reaching here is a bug.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail the sample supports: the value with exactly ten samples above
/// it, and the percentile that value sits at. Needs at least 11 samples.
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    pub samples: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    assert!(
        n > 10,
        "a tail with ten samples beyond it needs more than 10 samples, got {n}"
    );
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Tail {
        value: s[n - 11],
        percentile: (100 * (n - 10) / n) as u32,
        samples: n,
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
