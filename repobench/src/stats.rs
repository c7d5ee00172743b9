//! Sample statistics and the result line.
//!
//! Percentiles follow one rule everywhere: a percentile is reported only
//! when at least [`TAIL_SAMPLES`] samples lie beyond it, so p99 needs
//! 1000 samples. Metric names are checked against the contract's charset
//! before anything is printed.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest rank (1-based) of the `per_mille`/1000 quantile among `n`
/// samples, in integer arithmetic so 0.99 × 1000 is exactly 990.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The `per_mille`/1000 percentile of `sorted` (ascending) by the
/// nearest-rank rule. `None` when `sorted` is empty or, above the
/// median, when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || per_mille > 1000 {
        return None;
    }
    let r = rank(n, per_mille);
    if per_mille > 500 && n - r < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[r - 1])
}

/// The median of `sorted`; `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[n / 2]),
        n => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest of the usual tail percentiles that `n` samples support,
/// in per mille (999, 990, 950 or 900), or `None` below 100 samples.
pub fn highest_supported(n: usize) -> Option<usize> {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&q| n > 0 && n - rank(n, q) >= TAIL_SAMPLES)
}

/// Sorts a sample vector in place (NaN-free by construction: every
/// sample is a measured duration or size).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of a run: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// # Panics
///
/// On an invalid metric name or a non-finite value — both are bugs in
/// the benchmark, not in the program under test.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that round-trips the f64,
        // so every measured digit survives.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(5000), 990), Some(4950.0));
        assert_eq!(percentile(&ramp(7), 500), Some(4.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(200), Some(950));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(9999), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        for n in [100, 200, 1000, 10_000, 123_456] {
            let q = highest_supported(n).unwrap();
            let samples = ramp(n);
            let v = percentile(&samples, q).expect("supported percentile reports");
            let beyond = samples.iter().filter(|s| **s > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), Some(3.0));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["latency_p99_us", "core.rec_us", "serve.cache-hit", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/name",
            "ümlaut",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "latency_ms",
                value: 1.2034567891234,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn result_line_refuses_bad_names() {
        result_line(
            true,
            1,
            0,
            &[Metric {
                name: "bad name",
                value: 1.0,
                unit: "s",
            }],
        );
    }
}
