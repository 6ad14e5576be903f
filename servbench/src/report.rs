//! Samples, counters and the result line.

use std::collections::BTreeMap;

/// Percentile `p` (0–100) of `v` by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Timing samples of one op class, split by whether tracing was on.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Untraced samples, ns.
    pub plain: Vec<u64>,
    /// Traced samples, ns.
    pub traced: Vec<u64>,
}

/// What a run measured: timed op samples, seeded counters and the
/// failures of the output checks.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Tracing is on for the current op.
    pub traced: bool,
    /// The current op falls inside the deterministic counting prefix.
    pub counting: bool,
    /// Timing samples per op class (`search`, `publish`, …).
    pub samples: BTreeMap<&'static str, Samples>,
    /// Untraced ops and their summed wall time (ns).
    pub plain_ops: u64,
    /// Summed untraced op wall time, ns.
    pub plain_ns: u64,
    /// Traced ops and their summed wall time (ns).
    pub traced_ops: u64,
    /// Summed traced op wall time, ns.
    pub traced_ns: u64,
    /// Seeded counters, accumulated over the counting prefix only.
    pub counts: BTreeMap<&'static str, f64>,
    /// Seeded value distributions, over the counting prefix only.
    pub values: BTreeMap<&'static str, Vec<f64>>,
    /// Ops attempted and ops that returned an error.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Output checks that failed (any entry makes the run incorrect).
    pub check_failures: Vec<String>,
}

impl Recorder {
    /// Records `ops` completed ops of class `class` that took `ns` in
    /// total. Maintenance classes pass `ops = 0`: they are timed but do
    /// not count toward throughput.
    pub fn sample(&mut self, class: &'static str, ns: u64, ops: u64) {
        let s = self.samples.entry(class).or_default();
        if self.traced {
            s.traced.push(ns);
        } else {
            s.plain.push(ns);
        }
        if ops > 0 {
            self.attempted += ops;
            if self.traced {
                self.traced_ops += ops;
                self.traced_ns += ns;
            } else {
                self.plain_ops += ops;
                self.plain_ns += ns;
            }
        }
    }

    /// Adds `v` to a seeded counter when inside the counting prefix.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.counting {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Adds `v` to a seeded distribution when inside the counting prefix.
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.counting {
            self.values.entry(name).or_default().push(v);
        }
    }

    /// Median of a seeded distribution (0 when empty).
    pub fn value_median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| percentile(v, 50.0))
    }

    /// A seeded counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den` over seeded counters, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.counter(den);
        if d == 0.0 {
            0.0
        } else {
            self.counter(num) / d
        }
    }

    /// An op returned an error; the first few are echoed to stderr.
    pub fn fail(&mut self, ops: u64, err: &dyn std::fmt::Display) {
        if self.failed < 4 {
            eprintln!("servbench: op failed: {err}");
        }
        self.attempted += ops;
        self.failed += ops;
    }

    /// An output check failed; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.check_failures.len() < 16 {
            self.check_failures.push(what());
        }
    }

    /// Untraced ops per second of untraced op time.
    pub fn ops_per_s(&self) -> f64 {
        self.plain_ops as f64 / (self.plain_ns.max(1) as f64 / 1e9)
    }

    /// Untraced samples of a class, in `per` ns.
    pub fn plain_in(&self, class: &str, per: f64) -> Vec<f64> {
        self.samples
            .get(class)
            .map(|s| s.plain.iter().map(|&ns| ns as f64 / per).collect())
            .unwrap_or_default()
    }

    /// All samples (traced or not) of a class in the given unit.
    pub fn all_in(&self, class: &str, per: f64) -> Vec<f64> {
        self.samples
            .get(class)
            .map(|s| {
                s.plain
                    .iter()
                    .chain(&s.traced)
                    .map(|&ns| ns as f64 / per)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Forgets every sample and counter (after the warm-up).
    pub fn reset(&mut self) {
        *self = Recorder::default();
    }
}

/// Named metric values with their units, printed in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// The metrics as a JSON object `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(n),
                    num(*v),
                    jstr(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which no metric should produce) print as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn counters_only_move_inside_the_prefix() {
        let mut r = Recorder::default();
        r.count("searches", 1.0);
        r.counting = true;
        r.count("searches", 2.0);
        assert_eq!(r.counter("searches"), 2.0);
        assert_eq!(r.ratio("searches", "missing"), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(jstr("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
