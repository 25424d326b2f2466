//! Sample summaries: the median, the highest percentile the sample can
//! support, and the quartile spread the agreement criterion uses.

/// Percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND as f64)
}

/// A timing as the ledger reports it: median, supported tail, count.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; the median itself when nothing higher has
    /// ten samples beyond it.
    pub tail: (f64, f64),
}

pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let p = highest_supported_percentile(s.len()).unwrap_or(50.0);
    Summary {
        n: s.len(),
        median: median(&s),
        tail: (p, percentile_sorted(&s, p)),
    }
}

/// The time an operation repeated back to back takes while the host
/// leaves it alone: its fastest sample. Noise on a shared host is
/// one-sided — a stolen core, a busy sibling thread or a late wake-up
/// only ever slows an operation — and comes in spells of minutes during
/// which the median of a core-bound operation rises by 20–70 % and every
/// low percentile by 10–40 %, while the fastest of a few hundred samples
/// moves by 3–9 % (README, "The estimator"). Every sample is also checked
/// for correctness, so a fast sample is never a short-circuited one.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so `--repeat` reproduces the
/// driver's spread arithmetic exactly.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}
