//! Result assembly: quantiles, metric lists and the one-line JSON the
//! benchmark ends with.

use crate::sys::Provenance;
use std::fmt::Write as _;

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `0..=1`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency histogram of 10 µs buckets up to a fixed ceiling. Its
/// memory is fixed when it is made and does not grow with the sample
/// count, so a faster program taking more samples in a run does not
/// read as a bigger peak RSS.
#[derive(Debug)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

impl LatencyHist {
    /// Buckets per millisecond.
    const PER_MS: f64 = 100.0;

    /// Buckets up to `max_ms`; larger samples land in the last bucket.
    pub fn new(max_ms: f64) -> Self {
        LatencyHist {
            counts: vec![0; (max_ms * Self::PER_MS) as usize + 1],
            n: 0,
        }
    }

    /// Record one sample (ms).
    pub fn record(&mut self, ms: f64) {
        let last = self.counts.len() - 1;
        self.counts[((ms * Self::PER_MS) as usize).min(last)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn rank_bucket(&self, q: f64) -> Option<usize> {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        self.counts.iter().position(|c| {
            seen += u64::from(*c);
            seen >= rank
        })
    }

    /// Nearest-rank quantile (ms, bucket midpoint); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.rank_bucket(q)
            .map_or(f64::NAN, |i| (i as f64 + 0.5) / Self::PER_MS)
    }

    /// Samples in buckets above the `q` quantile's bucket.
    pub fn beyond(&self, q: f64) -> u64 {
        self.rank_bucket(q).map_or(0, |i| {
            self.counts[i + 1..].iter().map(|c| u64::from(*c)).sum()
        })
    }
}

/// Samples that lie strictly above the nearest-rank `q` quantile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.iter().filter(|v| **v > cut).count()
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("round_ms_p50", "ms"),
    ("round_ms_p95", "ms"),
    ("react_ms_p50", "ms"),
    ("react_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("wire.decode_summary_ns", "ns"),
    ("cluster.ingest_ns", "ns"),
    ("cluster.schedule_ms", "ms"),
    ("wire.encode_ceiling_ns", "ns"),
    ("sched.cache_proc_hit_ratio", "ratio"),
    ("sched.cache_proc_hits", "count"),
    ("sched.cache_proc_lookups", "count"),
    ("cluster.procs_per_round", "count"),
    ("cluster.commands_per_round", "count"),
    ("node.tick_us", "us"),
    ("node.summarize_us", "us"),
    ("node.apply_us", "us"),
    ("net.coordinator.busy_ms_per_s", "ms/s"),
    ("net.coordinator.busy_us_per_summary", "us"),
    ("transport.fill_us", "us"),
    ("wire.decode_ceiling_ns", "ns"),
    ("burst.write_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations timed (rounds or reactions).
    pub attempted: u64,
    /// Operations that failed (see the workload for what counts).
    pub failed: u64,
    /// Output-check failures; empty means every check passed.
    pub failures: Vec<String>,
    /// Measured metrics (end-to-end or per-layer, by trace mode).
    pub metrics: Vec<Metric>,
    /// Extra `key: value` facts for the provenance line (sample
    /// counts, sizes), already JSON-encoded values.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record a failed output check (kept short: the first few are
    /// printed verbatim, the rest counted).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Record a numeric fact for the provenance line.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values have no JSON form and become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The provenance line printed just before the result line.
pub fn provenance_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    prov: &Provenance,
    outcome: &Outcome,
) -> String {
    let mut s = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"commit\": {}, \"source_digest\": {}, \"nproc\": {}, \"rustc\": {}",
        json_str(workload),
        u8::from(trace),
        json_str(&prov.commit),
        json_str(&prov.source_digest),
        prov.nproc,
        json_str(&prov.rustc),
    );
    for (k, v) in &outcome.facts {
        let _ = write!(s, ", {}: {v}", json_str(k));
    }
    let shown: Vec<String> = outcome
        .failures
        .iter()
        .take(8)
        .map(|f| json_str(f))
        .collect();
    let _ = write!(
        s,
        ", \"check_failures\": {}, \"first_failures\": [{}]}}}}",
        outcome.failures.len(),
        shown.join(", ")
    );
    s
}

/// The final result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
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
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Check that `metrics` names exactly the expected set, each once, with
/// the listed unit and a finite value; returns the problems found.
pub fn metric_set_problems(metrics: &[Metric], expected: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in expected {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            n => problems.push(format!("metric {name} printed {n} times")),
        }
        if let Some(m) = metrics.iter().find(|m| m.name == *name) {
            if m.unit != *unit {
                problems.push(format!("metric {name} has unit {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                problems.push(format!("metric {name} is not finite"));
            }
        }
    }
    for m in metrics {
        if !expected.iter().any(|(n, _)| *n == m.name) {
            problems.push(format!("unexpected metric {}", m.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn histogram_quantiles_match_the_sorted_samples() {
        let mut h = LatencyHist::new(10.0);
        for i in 1..=100 {
            h.record(f64::from(i) * 0.05 + 0.001);
        }
        assert_eq!(h.len(), 100);
        assert!((h.quantile(0.5) - 2.505).abs() < 1e-9);
        assert!((h.quantile(0.99) - 4.955).abs() < 1e-9);
        assert_eq!(h.beyond(0.99), 1);
        h.record(50.0);
        assert!((h.quantile(1.0) - 10.005).abs() < 1e-9);
    }
}
