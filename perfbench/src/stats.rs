//! Order statistics computed here, from raw samples.
//!
//! The simulator's own `Histogram`/`MetricsRegistry` percentiles report
//! the bucket maximum rather than the requested quantile, so nothing in
//! this benchmark reads them. [`self_test`] runs on every invocation and
//! refuses to report numbers if these functions disagree with known
//! answers on a skewed distribution.

/// Sorted copy of `xs` (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Returns `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// A tail percentile: its value, which percentile it is, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile (nearest-rank).
    pub value: f64,
    /// The percentile, e.g. `95.0`; `100.0` means "the maximum", used
    /// only when no listed percentile has ten samples beyond it.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Percentiles tried for [`tail`], highest first, in tenths of a
/// percent (integer ranks avoid float rounding at the cut).
const LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The highest percentile in [`LADDER`] that has at least ten samples
/// beyond it (nearest-rank definition), or the maximum, marked as
/// percentile 100, when there are too few samples for any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for permille in LADDER {
        let rank = (permille * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return Some(Tail {
                value: v[rank - 1],
                pct: permille as f64 / 10.0,
                n,
            });
        }
    }
    Some(Tail {
        value: v[n - 1],
        pct: 100.0,
        n,
    })
}

/// Checks the functions above against hand-verified answers (the
/// quartiles are Python's `statistics.quantiles` output for the same
/// data). Returns a description of the first disagreement.
pub fn self_test() -> Result<(), String> {
    fn check(what: &str, got: Option<f64>, want: f64) -> Result<(), String> {
        match got {
            Some(g) if (g - want).abs() <= 1e-12 * want.abs().max(1.0) => Ok(()),
            other => Err(format!("{what}: got {other:?}, want {want}")),
        }
    }
    // Heavily right-skewed: one outlier three orders above the rest.
    let skewed = [
        1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 1000.0,
    ];
    check("median(skewed)", median(&skewed), 5.0)?;
    let q = quartiles(&skewed).ok_or("quartiles(skewed) empty")?;
    check("q1(skewed)", Some(q[0]), 1.0)?;
    check("q2(skewed)", Some(q[1]), 5.0)?;
    check("q3(skewed)", Some(q[2]), 34.0)?;
    let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        .ok_or("quartiles(1..10) empty")?;
    check("q1(1..10)", Some(q[0]), 2.75)?;
    check("q3(1..10)", Some(q[2]), 8.25)?;
    check("median(even)", median(&[4.0, 1.0, 3.0, 2.0]), 2.5)?;
    // 1..=100 plus a 1e9 outlier: p90 has ten samples beyond it and must
    // not collapse to the maximum.
    let mut long: Vec<f64> = (1..=100).map(f64::from).collect();
    long.push(1e9);
    let t = tail(&long).ok_or("tail(long) empty")?;
    if t.pct != 90.0 || t.value != 91.0 || t.n != 101 {
        return Err(format!("tail(1..=100 + outlier): got {t:?}"));
    }
    check("median(long)", median(&long), 51.0)?;
    // Too few samples for any percentile: report the maximum as p100.
    let t = tail(&skewed).ok_or("tail(skewed) empty")?;
    if t.pct != 100.0 || t.value != 1000.0 {
        return Err(format!("tail(skewed): got {t:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_climbs_the_ladder_with_more_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 50.0);
    }
}
