//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100] of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it, with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, 0–100.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub n: usize,
}

/// The highest nearest-rank percentile `p` with at least [`TAIL_BEYOND`]
/// samples strictly above rank `ceil(p·n/100)`: rank `n − 10`, so
/// `p = 100·(n − 10)/n`. `None` when the sample has 10 values or fewer,
/// where no percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    s
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "10 samples: nothing can have 10 beyond");
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 1.0, "11 samples: the minimum has 10 beyond");
        assert_eq!(t.n, 11);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.n), (90.0, 90.0, 100));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // The rule agrees with the nearest-rank percentile it names.
        assert_eq!(percentile(&xs, t.percentile), t.value);
        let xs: Vec<f64> = (0..4096).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert!(t.percentile > 99.0 && t.percentile < 99.9);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 100.0), 5.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "graph.gather_gbps", "cora-saturating", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
