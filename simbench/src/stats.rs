//! Order statistics for the reported figures.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the value with exactly ten samples
/// above it — the highest percentile that still has at least ten
/// samples beyond it. Returns `(value, percentile, samples)`; with ten
/// or fewer samples there is no such value and the maximum is returned
/// at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Best-of-N times of repeated operations: each operation kind is run
/// several times through a run, and only its fastest run is kept.
///
/// On a shared host whose speed moves by 2× between regimes lasting
/// minutes, a median over one run follows the regime the run landed in,
/// while the fastest of many repetitions spread through the run does
/// not: it reads the uncontended speed in every run that saw a fast
/// moment.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
}

impl BestOf {
    /// No samples yet for `kinds` operation kinds.
    pub fn new(kinds: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; kinds],
        }
    }

    /// Records one run of operation `kind` that took `seconds`.
    pub fn record(&mut self, kind: usize, seconds: f64) {
        self.best[kind] = self.best[kind].min(seconds);
    }

    /// `(kind, best seconds)` of every kind with at least one run.
    pub fn bests(&self) -> Vec<(usize, f64)> {
        self.best
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| s.is_finite())
            .collect()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_of_keeps_the_fastest_run_of_each_kind() {
        let mut b = BestOf::new(3);
        b.record(0, 2.0);
        b.record(0, 1.0);
        b.record(2, 5.0);
        assert_eq!(b.bests(), vec![(0, 1.0), (2, 5.0)]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(n, 40);
        assert_eq!(value, 30.0, "ten samples (31..=40) lie beyond");
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[5.0, 7.0]).0, 7.0);
    }
}
