//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spread the benchmark reports for
//! its own samples is computed the same way as the spread between runs.

/// Fewest samples a tail percentile may have beyond it before it is
/// reported: p99 needs at least 1000 samples.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median of `sorted` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartile of `sorted`, as Python's
/// `statistics.quantiles(sorted, n=4)` gives them. `None` below two
/// samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Exclusive method: position i*(n+1)/4, 1-based, clamped to
        // the data range; `delta` may leave 0..4 after the clamp, which
        // extrapolates exactly as Python does.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `q`-quantile (`0 < q < 1`) of `sorted` by linear interpolation
/// between closest ranks, provided at least [`MIN_TAIL_SAMPLES`]
/// samples lie above it; `None` otherwise, so a short run can never
/// report a tail it did not observe.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // The epsilon keeps (1 - 0.9) * 100 = 9.999… from rounding down.
    let beyond = ((1.0 - q) * n as f64 + 1e-9).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = pos - lo as f64;
    // Written so infinite samples (failed requests) stay infinite
    // instead of turning into NaN.
    Some(if frac == 0.0 || sorted[lo] == sorted[hi] {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    })
}

/// Median, p99 and count of a set of per-call timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub count: usize,
}

/// Sorts `values` and summarises them. `None` when the sample is too
/// small to carry a p99 with ten samples beyond it.
pub fn summarize(mut values: Vec<f64>) -> Option<Summary> {
    values.sort_by(f64::total_cmp);
    Some(Summary {
        p50: median(&values)?,
        p99: tail_percentile(&values, 0.99)?,
        count: values.len(),
    })
}

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was sent, ns from the start of the run.
    pub start_ns: f64,
    /// How long it took, ns; infinite when it failed.
    pub latency_ns: f64,
    /// Verdicts it completed.
    pub work: usize,
}

/// Windows a run is split into.
pub const WINDOWS: usize = 10;

/// A run's throughput, median and p99, each the median over its
/// windows, plus the per-window values.
#[derive(Debug, Clone)]
pub struct Windowed {
    pub rate: f64,
    pub p50: f64,
    pub p99: f64,
    pub rates: Vec<f64>,
    pub p50s: Vec<f64>,
    pub p99s: Vec<f64>,
}

/// Splits `samples` (in send order) into up to [`WINDOWS`] windows of
/// equal count, each large enough for a p99 with ten samples beyond
/// it. A window's rate is the work it completed over the time from its
/// first send to the next window's first send (or `end_ns`). A burst
/// of interference from outside moves one window, not the medians.
/// `None` when the run is too short for even one window.
pub fn windowed(samples: &[Sample], end_ns: f64) -> Option<Windowed> {
    let n = samples.len();
    let windows = WINDOWS.min(n / 1000);
    if windows == 0 {
        return None;
    }
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..windows {
        let (a, b) = (k * n / windows, (k + 1) * n / windows);
        let until = samples.get(b).map_or(end_ns, |s| s.start_ns);
        let span_s = (until - samples[a].start_ns) / 1e9;
        let work: usize = samples[a..b].iter().map(|s| s.work).sum();
        rates.push(work as f64 / span_s);
        let mut latency: Vec<f64> = samples[a..b].iter().map(|s| s.latency_ns).collect();
        latency.sort_by(f64::total_cmp);
        p50s.push(median(&latency)?);
        p99s.push(tail_percentile(&latency, 0.99)?);
    }
    let mid = |values: &[f64]| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        median(&sorted)
    };
    Some(Windowed {
        rate: mid(&rates)?,
        p50: mid(&p50s)?,
        p99: mid(&p99s)?,
        rates,
        p50s,
        p99s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&seq(4)), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&seq(2)), Some((0.75, 2.25)));
        // statistics.quantiles([3, 7, 8, 15, 20], n=4) == [5.0, 8.0, 17.5]
        assert_eq!(quartiles(&[3.0, 7.0, 8.0, 15.0, 20.0]), Some((5.0, 17.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 999 samples leave only 9 beyond p99: refused.
        assert_eq!(tail_percentile(&seq(999), 0.99), None);
        // 1000 samples leave 10: numpy's linear p99 of 1..=1000.
        let p99 = tail_percentile(&seq(1000), 0.99).expect("enough samples");
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        // Ten samples beyond p90 of 100 samples.
        let p90 = tail_percentile(&seq(100), 0.9).expect("enough samples");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(tail_percentile(&seq(99), 0.9), None);
    }

    #[test]
    fn tail_percentile_sees_failures_as_misses() {
        // A failed request counts as infinitely slow, so enough of them
        // push the tail past any finite limit.
        let mut values = seq(1000);
        for v in values.iter_mut().skip(985) {
            *v = f64::INFINITY;
        }
        assert_eq!(tail_percentile(&values, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn windowed_takes_medians_over_windows() {
        // 10 000 requests of 10µs back to back, except that one window
        // runs 100x slower: the medians ignore it.
        let mut samples = Vec::new();
        let mut clock = 0.0;
        for i in 0..10_000 {
            let latency_ns = if (3000..4000).contains(&i) { 1e6 } else { 1e4 };
            samples.push(Sample {
                start_ns: clock,
                latency_ns,
                work: 1,
            });
            clock += latency_ns;
        }
        let w = windowed(&samples, clock).expect("enough samples");
        assert_eq!(w.rates.len(), 10);
        assert!((w.rate - 1e5).abs() < 1e-6, "{}", w.rate);
        assert_eq!(w.p50, 1e4);
        assert_eq!(w.p99, 1e4);
        assert_eq!(w.p99s[3], 1e6);
        // Too short for one window with a p99.
        assert!(windowed(&samples[..999], clock).is_none());
    }

    #[test]
    fn summarize_sorts_and_counts() {
        let mut values = seq(2000);
        values.reverse();
        let s = summarize(values).expect("enough samples");
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 1000.5);
        assert!(s.p99 > 1979.0 && s.p99 < 1981.0, "{}", s.p99);
        assert!(summarize(seq(500)).is_none());
    }
}
