//! Order statistics over measured samples.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean of `xs`; 0 when empty.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The tail of `xs`: the highest whole percentile `p` that leaves at
/// least ten samples strictly above the sample it reads, with that
/// sample. `None` when there are fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    (1..100u32).rev().find_map(|p| {
        // Nearest-rank percentile: the sample at rank ceil(p/100 · n).
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&xs).expect("200 samples have a tail");
        assert_eq!((p, x), (95, 190.0));
        assert!(xs.iter().filter(|&&y| y > x).count() >= 10);
        assert!(tail(&xs[..10]).is_none());
    }
}
