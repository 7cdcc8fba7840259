//! Order statistics, wall-clock helpers and the process memory probe.

use std::time::{Duration, Instant};

/// The `i`-th of the `n − 1` cut points dividing `values` into `n` equal
/// groups, by the same "exclusive" rule as Python's
/// `statistics.quantiles(values, n=n)` (so the steadiness mode and any
/// outside checker agree to the last digit).
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// Median (the middle cut point of `n = 2`).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 1, 4),
        quantile(values, 2, 4),
        quantile(values, 3, 4),
    )
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f`, returning its value and its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Whether a run that started at `start` and has finished `rounds` whole
/// rounds should start another: yes while that round is expected to end
/// less than half a round past `seconds`, so a run measures the whole
/// number of rounds closest to `seconds` (always at least one).
pub fn another_round(start: Instant, rounds: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let per_round = elapsed / rounds.max(1) as f64;
    elapsed + per_round / 2.0 < seconds
}

/// Run `setup` `repeats` times, returning the last result and the median
/// wall time in seconds — the `setup_s` metric.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    assert!(repeats > 0, "set up at least once");
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let (out, d) = timed(&mut setup);
        last = Some(out?);
        secs.push(d.as_secs_f64());
    }
    Ok((last.expect("repeats > 0"), median(&secs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles(range(1, 21), n=10)[8] == 18.9
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((quantile(&w, 9, 10) - 18.9).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
