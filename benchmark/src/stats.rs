//! Order statistics shared by the runner, the multi-run aggregator and `compare`.

/// Nearest-rank percentile of `values`: element `⌈q·n⌉` (1-indexed) of the sorted set, with
/// `q = 0` giving the minimum — the rank contract `bnn_serve::latency_percentile` uses for
/// ticks, applied to host times.
///
/// # Panics
///
/// Panics on an empty set or `q` outside `0.0..=1.0`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile q={q} outside 0.0..=1.0");
    assert!(!values.is_empty(), "no values to rank");
    let sorted = sorted(values);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median; an even-length set averages its two middle values (Python's `statistics.median`).
///
/// # Panics
///
/// Panics on an empty set.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles exactly as Python's `statistics.quantiles(values, n=4)` computes
/// them (its default "exclusive" method, extrapolating for very small sets). A single value
/// is its own quartiles.
///
/// # Panics
///
/// Panics on an empty set.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty set");
    let data = sorted(values);
    let ld = data.len() as i64;
    if ld == 1 {
        return (data[0], data[0]);
    }
    let (n, m) = (4i64, ld + 1);
    let quantile = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let j = j as usize;
        (data[j - 1] * (n - delta) as f64 + data[j] * delta as f64) / n as f64
    };
    (quantile(1), quantile(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread the benchmark's
/// bounds are checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
