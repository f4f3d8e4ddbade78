//! Medians, quartiles and the verdict rule shared by the runner and
//! `--compare`.

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, by the rule of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the benchmark contract's spread check uses. A single value is its
/// own three quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |i: usize| {
        // Rank i·(n+1)/4, counted from 1; like Python, a rank outside the
        // sample (only when n = 2) extrapolates from the nearest pair.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The quartile on the good side of `better`, kept inside the sample: the
/// first quartile of times, the third of rates. The host's noise is one-sided
/// — a neighbour can only slow a rep down, for seconds at a stretch — so the
/// median of a run's reps flips between a quiet and a disturbed mode while
/// the good quartile stays on the program's own cost.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let (q1, _, q3) = quartiles(values);
    let (lo, hi) = min_max(values);
    match better {
        Better::Lower => q1.max(lo),
        Better::Higher => q3.min(hi),
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread is wider than the bound and the two sides overlap.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s median;
/// negative when `b` is better.
pub fn relative_worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// Runs a side needs before its median and quartiles carry a verdict.
pub const MIN_RUNS: usize = 5;

/// Compare the runs `b` of a change with the runs `a` of its parent on a
/// timed metric. With fewer than [`MIN_RUNS`] on a side, or where either
/// side's spread exceeds `bound`, the row is unresolved — in the second case
/// unless every run of one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let worse = relative_worsening(a, b, better);
    if relative_spread(a).max(relative_spread(b)) > bound {
        let (min_a, max_a) = min_max(a);
        let (min_b, max_b) = min_max(b);
        let (b_wins, a_wins) = match better {
            Better::Lower => (max_b < min_a, max_a < min_b),
            Better::Higher => (min_b > max_a, min_a > max_b),
        };
        return if b_wins {
            Verdict::Improved
        } else if a_wins {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn the_quiet_quartile_is_the_good_side_and_stays_in_the_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Better::Lower), 2.75);
        assert_eq!(quiet_quartile(&v, Better::Higher), 8.25);
        // Two samples would extrapolate to 0.75 and 2.25.
        assert_eq!(quiet_quartile(&[1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(quiet_quartile(&[1.0, 2.0], Better::Higher), 2.0);
        assert_eq!(quiet_quartile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn verdict_needs_the_medians_to_differ_by_more_than_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.0];
        let near = [10.4, 10.5, 10.3, 10.4, 10.4];
        let far = [12.0, 12.1, 11.9, 12.0, 12.0];
        assert_eq!(verdict(&a, &near, Better::Lower, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &far, Better::Lower, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&a, &far, Better::Higher, 0.10), Verdict::Improved);
        // Four runs a side are too few to judge.
        assert_eq!(
            verdict(&a[..4], &far, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [8.0, 10.0, 12.0, 14.0, 11.0];
        assert_eq!(
            verdict(&noisy, &[9.0, 11.0, 13.0, 15.0, 12.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[3.0, 4.0, 5.0, 6.0, 4.5], Better::Lower, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&noisy, &[30.0, 40.0, 50.0, 60.0, 45.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[], &[1.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
