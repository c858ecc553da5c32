//! The percentile helper every workload reports its timings through.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, capped at p99. With few
//! samples the tail falls short of p99, and the summary says which
//! percentile it is, so a reader never mistakes a p80 for a p99.

/// Samples beyond the tail percentile that make it trustworthy.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// The tail value: the `tail_pct`-th percentile (nearest rank).
    pub tail: f64,
    /// Which percentile `tail` is: 99 when enough samples exist, lower
    /// when they do not, and 50 (the tail is then the median itself) when
    /// even p51 has fewer than ten samples beyond it.
    pub tail_pct: u32,
}

impl Summary {
    /// Summarizes `samples` (order irrelevant). `None` when empty or when
    /// any sample is not finite.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 =
            if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) };
        match (51..=99).rev().find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND) {
            Some(p) => Some(Summary { n, p50, tail: sorted[rank(n, p) - 1], tail_pct: p }),
            None => Some(Summary { n, p50, tail: p50, tail_pct: 50 }),
        }
    }

    /// `"p99"`, or `"p93 (short of p99)"` when the samples did not allow p99.
    #[must_use]
    pub fn tail_label(&self) -> String {
        if self.tail_pct == 99 {
            "p99".to_string()
        } else {
            format!("p{} (short of p99)", self.tail_pct)
        }
    }
}

/// Median and tail of samples grouped by pass, and whether the tail is per
/// pass. When every pass alone has enough samples for a p99, the tail is
/// the median of the per-pass p99s, so one disturbed pass cannot set it;
/// otherwise it is the tail of all samples pooled. The median is always
/// over all samples.
#[must_use]
pub fn by_pass(passes: &[Vec<f64>]) -> Option<(Summary, bool)> {
    let pooled: Vec<f64> = passes.iter().flatten().copied().collect();
    let mut s = Summary::of(&pooled)?;
    let per_pass: Option<Vec<Summary>> = passes.iter().map(|p| Summary::of(p)).collect();
    match per_pass {
        Some(per) if per.len() >= 3 && per.iter().all(|p| p.tail_pct == 99) => {
            s.tail = median(&per.iter().map(|p| p.tail).collect::<Vec<_>>());
            s.tail_pct = 99;
            Some((s, true))
        }
        _ => Some((s, false)),
    }
}

/// Combines per-pass summaries: the median of the per-pass medians and of
/// the per-pass tails, for workloads with too many samples to keep. The tail
/// percentile is the lowest any pass reached.
#[must_use]
pub fn of_passes(per: &[Summary]) -> Option<Summary> {
    let tail_pct = per.iter().map(|s| s.tail_pct).min()?;
    Some(Summary {
        n: per.iter().map(|s| s.n).sum(),
        p50: median(&per.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail: median(&per.iter().map(|s| s.tail).collect::<Vec<_>>()),
        tail_pct,
    })
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Plain median of `samples`; `NaN` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().p50, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().p50, 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: nearest-rank p99 is the 990th, with 10 beyond it.
        let s = Summary::of(&seq(1000)).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (1000, 99, 990.0));
        assert_eq!(s.tail_label(), "p99");
        // 999 samples leave only 9 beyond p99, so the tail steps down.
        let s = Summary::of(&seq(999)).unwrap();
        assert_eq!(s.tail_pct, 98);
        assert_eq!(s.tail_label(), "p98 (short of p99)");
    }

    #[test]
    fn tail_falls_back_to_the_largest_percentile_that_qualifies() {
        // 100 samples: p90 is the 90th value with exactly 10 beyond it.
        let s = Summary::of(&seq(100)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (90, 90.0));
        // Every qualifying percentile really has ten samples beyond it.
        for n in 20..400 {
            let s = Summary::of(&seq(n)).unwrap();
            let beyond = (1..=n).filter(|&i| i as f64 > s.tail).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {s:?}");
            if s.tail_pct < 99 {
                let next = rank(n, s.tail_pct + 1);
                assert!(n - next < TAIL_MIN_BEYOND, "n={n}: p{} also qualifies", s.tail_pct + 1);
            }
        }
    }

    #[test]
    fn few_samples_report_the_median_as_the_tail() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (3, 50, 3.0));
        // With an even count the fallback tail is the median itself, never
        // below it.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((s.p50, s.tail), (2.5, 2.5));
        assert_eq!(s.tail_label(), "p50 (short of p99)");
        let s = Summary::of(&seq(19)).unwrap();
        assert_eq!(s.tail_pct, 50);
    }

    #[test]
    fn rejects_empty_and_non_finite_samples() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn by_pass_takes_the_median_of_per_pass_tails() {
        let calm: Vec<f64> = seq(1000);
        let disturbed: Vec<f64> = seq(1000).iter().map(|v| v * 10.0).collect();
        let passes = vec![calm.clone(), calm.clone(), disturbed.clone(), calm.clone()];
        let (s, per_pass) = by_pass(&passes).unwrap();
        assert!(per_pass);
        assert_eq!((s.n, s.tail, s.tail_pct), (4000, 990.0, 99));
        // The pooled tail would have come from the disturbed pass.
        assert!(Summary::of(&passes.concat()).unwrap().tail > 990.0);
        // Too few passes, or passes too short for p99: pooled.
        let (s, per_pass) = by_pass(&[calm.clone(), disturbed]).unwrap();
        assert!(!per_pass);
        assert_eq!(
            s.tail,
            Summary::of(&[calm.clone(), seq(1000).iter().map(|v| v * 10.0).collect()].concat())
                .unwrap()
                .tail
        );
        let short = vec![seq(50), seq(50), seq(50)];
        assert!(!by_pass(&short).unwrap().1);
        assert!(by_pass(&[]).is_none());
    }

    #[test]
    fn of_passes_takes_medians_of_the_pass_summaries() {
        let per: Vec<Summary> = [1.0, 10.0, 2.0]
            .iter()
            .map(|k| Summary::of(&seq(1000).iter().map(|v| v * k).collect::<Vec<_>>()).unwrap())
            .collect();
        let s = of_passes(&per).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3000, 1001.0, 1980.0, 99));
        let short = [Summary::of(&seq(100)).unwrap(), Summary::of(&seq(1000)).unwrap()];
        assert_eq!(of_passes(&short).unwrap().tail_pct, 90);
        assert!(of_passes(&[]).is_none());
    }

    #[test]
    fn order_does_not_matter() {
        let mut v = seq(250);
        let a = Summary::of(&v).unwrap();
        v.reverse();
        assert_eq!(Summary::of(&v).unwrap(), a);
    }
}
