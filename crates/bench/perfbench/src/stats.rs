//! Order statistics over measured samples.

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The percentile ladder tried for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder with at least ten samples beyond
/// it, as `(percentile, value)`, or `None` under 20 samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len() as f64;
    let pct = TAIL_LADDER.into_iter().find(|p| n * (1.0 - p / 100.0) >= 10.0)?;
    // Nearest-rank percentile.
    let rank = ((pct / 100.0) * n).ceil().max(1.0) as usize;
    Some((pct, s[rank.min(s.len()) - 1]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=72).map(f64::from).collect();
        // 72 × 25% = 18 ≥ 10 beyond p75; 72 × 10% = 7.2 < 10 beyond p90.
        assert_eq!(tail(&v), Some((75.0, 54.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }
}
