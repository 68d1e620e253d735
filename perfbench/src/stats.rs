//! Reductions the benchmark applies to its own samples: order statistics
//! with their sample counts, and the attempted/failed tally.

/// A sorted sample set. Every percentile it reports travels with the
/// number of samples behind it.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the samples at or below it. `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (q * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    /// How many samples lie strictly above the `q` percentile: the
    /// guide for whether that percentile is backed by enough tail.
    pub fn beyond(&self, q: f64) -> usize {
        match self.quantile(q) {
            Some(v) => self.sorted.iter().filter(|&&x| x > v).count(),
            None => 0,
        }
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.len() as f64)
    }

    /// `q` percentile, or 0 for an empty set (printed with `n=0`).
    pub fn q_or_zero(&self, q: f64) -> f64 {
        self.quantile(q).unwrap_or(0.0)
    }

    /// `name p50=… p90=… p99=… n=…` for the report lines.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: mean={:.4} p10={:.4} p50={:.4} p90={:.4} p99={:.4} {unit} (n={}, beyond p99={})",
            self.mean(),
            self.q_or_zero(0.1),
            self.q_or_zero(0.5),
            self.q_or_zero(0.9),
            self.q_or_zero(0.99),
            self.len(),
            self.beyond(0.99),
        )
    }
}

/// `num / den`, or 0 when nothing was counted in the denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Checked operations: how many were attempted and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// One operation, failed unless `ok`.
    pub fn check(ok: bool) -> Tally {
        Tally {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    /// `expected` operations of which `done` were observed: every missing
    /// or extra one counts as a failure, capped at `expected`.
    pub fn expect_count(expected: u64, done: u64) -> Tally {
        Tally {
            attempted: expected,
            failed: expected.abs_diff(done).min(expected),
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_counts() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.len(), 100);
        assert_eq!(d.quantile(0.5), Some(50.0));
        assert_eq!(d.quantile(0.9), Some(90.0));
        assert_eq!(d.quantile(0.99), Some(99.0));
        assert_eq!(d.quantile(1.0), Some(100.0));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.beyond(0.9), 10);
        assert_eq!(d.beyond(0.99), 1);
        assert!(d.describe("x", "ms").contains("n=100"));
    }

    #[test]
    fn small_and_empty_sets() {
        let one = Dist::new(vec![7.5]);
        assert_eq!(one.quantile(0.5), Some(7.5));
        assert_eq!(one.quantile(0.99), Some(7.5));
        assert_eq!(one.beyond(0.5), 0);
        let none = Dist::default();
        assert_eq!(none.quantile(0.5), None);
        assert_eq!(none.q_or_zero(0.99), 0.0);
        assert_eq!(none.beyond(0.99), 0);
        assert!(none.describe("x", "us").contains("n=0"));
        let two = Dist::new(vec![3.0, 1.0]);
        assert_eq!(two.quantile(0.5), Some(1.0));
        assert_eq!(two.quantile(0.51), Some(3.0));
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let d = Dist::new(vec![1.0, 2.0, 2.0, 2.0]);
        assert_eq!(d.quantile(0.5), Some(2.0));
        assert_eq!(d.beyond(0.5), 0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.add(Tally::check(true));
        t.add(Tally::check(false));
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        // Lost and duplicated tasks both fail; a wild count fails them all.
        t.add(Tally::expect_count(100, 97));
        t.add(Tally::expect_count(100, 101));
        t.add(Tally::expect_count(10, 1_000));
        assert_eq!(
            t,
            Tally {
                attempted: 212,
                failed: 1 + 3 + 1 + 10
            }
        );
        assert_eq!(Tally::expect_count(5, 5).failed, 0);
    }
}
