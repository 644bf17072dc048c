//! Order statistics for the benchmark's own samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the acceptance driver uses
//! to judge run-to-run spread; keeping the two definitions identical
//! means `perf compare` and the driver never disagree about a spread.

/// Sort a copy of `xs` ascending (NaNs are a harness bug; they sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median; `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, Python's exclusive method: position
/// `q·(n+1)` (1-based) with linear interpolation, clamped to the ends.
/// Fewer than two samples give `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        // j, delta of Python's `divmod(q * (n + 1), 4)`, j clamped to 1..=n-1.
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (`0.0` when the median
/// is zero) — the spread the driver bounds.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// The tail of a latency distribution and the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Which percentile of the sample set it is (95.0 when the set is
    /// large enough for p95, lower otherwise).
    pub percentile: f64,
}

/// p95 when there are at least 200 samples; otherwise the highest
/// percentile that still has ten samples beyond it; and when that would
/// fall at or below the median (21 samples or fewer), the median —
/// nothing higher can be told from noise.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
        };
    }
    if n >= 200 {
        // Nearest-rank p95: the smallest value with ≥ 95 % at or below it.
        let rank = (0.95 * n as f64).ceil() as usize;
        return Tail {
            value: v[rank - 1],
            percentile: 95.0,
        };
    }
    if n <= 21 {
        return Tail {
            value: median(&v),
            percentile: 50.0,
        };
    }
    // Ten samples lie strictly beyond index n-11.
    let idx = n - 11;
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

/// Metric and workload names: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit (the `BENCHMARK.json` contract).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → `[2.75, 5.5, 8.25]`
    /// `statistics.quantiles([10, 20, 30], n=4)` → `[10.0, 20.0, 30.0]`
    /// `statistics.quantiles([1, 2], n=4)` → `[0.75, 1.5, 2.25]`
    #[test]
    fn quartiles_match_python_exclusive() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_is_p95_from_200_samples() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 22 runs: index 11 (the 12th value) has exactly ten above it.
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 12.0);
        assert!((t.percentile - 100.0 * 12.0 / 22.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 199 samples: just under the p95 threshold, still ten beyond.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 189.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_small_sets_is_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile), (3.0, 50.0));
        // 21 samples: ten beyond the 11th, which *is* the median.
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!((tail(&xs).value, tail(&xs).percentile), (11.0, 50.0));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "run_p50_ms",
            "cluster.transport.round_us",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "-lead",
            "has space",
            "slash/y",
            "ünï",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
