//! Order statistics the benchmark reports.

/// Samples a tail figure leaves beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of unsorted samples (`None` when empty).
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), pct)])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A tail figure: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

/// The tail of `samples`: the nearest-rank percentile `100 (n - 10) / n`,
/// which is the largest sample with ten larger ones. It moves smoothly
/// with the sample count, so runs of slightly different length report
/// comparable tails. With ten samples or fewer the maximum is reported
/// as percentile 100.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (pct, idx) = if n > TAIL_BEYOND {
        let i = n - 1 - TAIL_BEYOND;
        (100.0 * (i + 1) as f64 / n as f64, i)
    } else {
        (100.0, n - 1)
    };
    Some(Tail {
        pct,
        value: s[idx],
        n,
    })
}

/// The smallest of the samples at each position modulo `period`, for
/// the positions that have one.
pub fn best_per_slot(samples: &[f64], period: usize) -> Vec<f64> {
    let period = period.max(1);
    let mut best = vec![f64::INFINITY; period.min(samples.len())];
    for (i, s) in samples.iter().enumerate() {
        let b = &mut best[i % period];
        *b = b.min(*s);
    }
    best
}

/// Interquartile range as a share of the median (0 for an empty or
/// zero-median sample).
pub fn spread(samples: &[f64]) -> f64 {
    match (
        percentile(samples, 25.0),
        percentile(samples, 50.0),
        percentile(samples, 75.0),
    ) {
        (Some(q1), Some(m), Some(q3)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11, 200, 999, 1000, 1001] {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            assert_eq!(t.n, n);
            assert_eq!(
                v.iter().filter(|x| **x > t.value).count(),
                TAIL_BEYOND,
                "n={n}"
            );
            // It is that percentile's nearest-rank value, and no higher
            // percentile leaves ten samples beyond.
            assert_eq!(percentile(&v, t.pct), Some(t.value), "n={n}");
            let above = t.pct + 100.0 / n as f64;
            if above <= 100.0 {
                let next = percentile(&v, above).unwrap();
                assert!(v.iter().filter(|x| **x > next).count() < TAIL_BEYOND);
            }
        }
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
    }

    #[test]
    fn tail_without_enough_samples_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.pct, t.value, t.n), (100.0, 3.0, 3));
        let t = tail(&ramp(10)).unwrap();
        assert_eq!((t.pct, t.value), (100.0, 10.0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(500);
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value), (98.0, 490.0));
    }

    #[test]
    fn best_per_slot_takes_each_positions_minimum() {
        let v = [5.0, 2.0, 9.0, 4.0, 3.0, 1.0, 6.0];
        assert_eq!(best_per_slot(&v, 3), vec![4.0, 2.0, 1.0]);
        assert_eq!(best_per_slot(&v[..2], 3), vec![5.0, 2.0]);
        assert!(best_per_slot(&[], 3).is_empty());
    }

    #[test]
    fn percentiles_and_spread() {
        let v = ramp(100);
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&v, 25.0), Some(25.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }
}
