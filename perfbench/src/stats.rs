//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
/// An empty slice has no percentile and yields NaN, so a missing sample
/// can never pass for a fast one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sort a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
