//! Order statistics and the result digest.
//!
//! Everything the benchmark reports is a median, a quartile or a
//! percentile of per-op samples; the quartile rule is the one the
//! acceptance procedure uses (`statistics.quantiles(values, n=4)` in
//! Python, the "exclusive" method), so a spread computed here is the
//! spread the driver computes.

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
/// Panics on an empty slice — a metric with no samples is a bug in the
/// workload, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by Python's exclusive method. One sample has no
/// spread: all three quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the "spread" of a
/// metric across runs.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// The `p`-th percentile (nearest rank, `0 < p <= 100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over the bits of every reply a run checks, in op order. Two
/// runs of one seed must agree on it; two seeds must not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn digest_separates_order_and_content() {
        let mut a = Digest::default();
        a.f64(1.5);
        a.str("x");
        let mut b = Digest::default();
        b.str("x");
        b.f64(1.5);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
