//! Metric arithmetic: percentiles where an undecided operation counts as
//! +∞, the emission rule for percentiles, medians, and the named metric
//! rows the report prints.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One time-to-verdict sample: the outside-clock time when the operation
/// got a verdict, `+∞` when it did not (undecided, failed, refused).
#[must_use]
pub fn verdict_sample(decided: bool, ms: f64) -> f64 {
    if decided {
        ms
    } else {
        f64::INFINITY
    }
}

/// A reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pct {
    /// A finite value with enough samples beyond it.
    Value(f64),
    /// The percentile lands on an undecided operation.
    Infinite,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFew,
}

impl Pct {
    /// The finite value, if this percentile may be emitted.
    #[must_use]
    pub fn value(self) -> Option<f64> {
        match self {
            Pct::Value(v) => Some(v),
            Pct::Infinite | Pct::TooFew => None,
        }
    }
}

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples` (`+∞` entries sort
/// last). Emitted only when at least [`MIN_BEYOND`] samples rank beyond
/// it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return Pct::TooFew;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let v = sorted[rank - 1];
    if v.is_finite() {
        Pct::Value(v)
    } else {
        Pct::Infinite
    }
}

/// Median of finite values (mean of the two middle ones for even counts);
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Interquartile mean: the mean of the values ranked in the middle half
/// (ranks `⌊n/4⌋ .. n − ⌊n/4⌋`). Robust to the few budget overruns that
/// dominate a plain mean, yet it averages half the samples, so it stays
/// steady where a median has too few samples beyond it. `None` for an
/// empty slice.
#[must_use]
pub fn iqm(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    Some(mid.iter().sum::<f64>() / mid.len() as f64)
}

/// `num / den`, or `0` when nothing was attempted.
#[must_use]
pub fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One named metric as printed and emitted.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when the metric is printed but may not be
    /// emitted (an infinite or under-sampled percentile).
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
    /// Free-form annotation for the human report.
    pub note: String,
}

impl Metric {
    /// A metric with a value.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: Some(value),
            n,
            note: String::new(),
        }
    }

    /// A percentile metric: emitted when [`Pct::value`] allows it.
    #[must_use]
    pub fn pct(name: impl Into<String>, pct: Pct, n: usize) -> Metric {
        let note = match pct {
            Pct::Value(_) => String::new(),
            Pct::Infinite => "not emitted: lands on an undecided operation (+inf)".to_string(),
            Pct::TooFew => format!("not emitted: fewer than {MIN_BEYOND} samples beyond it"),
        };
        Metric {
            name: name.into(),
            unit: "ms",
            value: pct.value(),
            n,
            note,
        }
    }

    /// Attach a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// The human report line.
    #[must_use]
    pub fn line(&self) -> String {
        let value = self
            .value
            .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        let mut line = format!(
            "  {:<40} {:>16} {:<6} n={}",
            self.name, value, self.unit, self.n
        );
        if !self.note.is_empty() {
            line.push_str("  ");
            line.push_str(&self.note);
        }
        line
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decided(ms: &[f64]) -> Vec<f64> {
        ms.iter().map(|&m| verdict_sample(true, m)).collect()
    }

    #[test]
    fn undecided_operations_count_as_infinite() {
        // 30 decided at 1..=30 ms, 31 undecided: the median is undecided.
        let mut s = decided(&(1..=30).map(f64::from).collect::<Vec<_>>());
        s.extend((0..31).map(|_| verdict_sample(false, 5.0)));
        assert_eq!(percentile(&s, 0.5), Pct::Infinite);
        // An undecided operation's own (small) clock reading never counts.
        assert_eq!(percentile(&s, 0.25), Pct::Value(16.0));
        // 31 decided, 30 undecided: the median is the slowest decided one.
        let mut s = decided(&(1..=31).map(f64::from).collect::<Vec<_>>());
        s.extend((0..30).map(|_| f64::INFINITY));
        assert_eq!(percentile(&s, 0.5), Pct::Value(31.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = decided(&(1..=19).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.5), Pct::TooFew, "rank 10 of 19: 9 beyond");
        let s = decided(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.5), Pct::Value(10.0), "rank 10 of 20");
        let s = decided(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.9), Pct::TooFew);
        let s = decided(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.9), Pct::Value(90.0));
        assert_eq!(percentile(&[], 0.5), Pct::TooFew);
    }

    #[test]
    fn unemitted_percentiles_keep_their_sample_count() {
        let m = Metric::pct("verdict_p90_ms", Pct::TooFew, 42);
        assert_eq!(m.value, None);
        assert!(m.line().contains("n=42"), "{}", m.line());
        assert!(m.line().contains("not emitted"), "{}", m.line());
    }

    #[test]
    fn medians_and_fractions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // The slowest and fastest quarter do not move the IQM.
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 1000.0]), Some(2.5));
        assert_eq!(iqm(&[0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9e9]), Some(4.5));
        assert_eq!(iqm(&[7.0]), Some(7.0));
        assert_eq!(iqm(&[]), None);
        assert_eq!(frac(0, 0), 0.0);
        assert_eq!(frac(1, 4), 0.25);
    }
}
