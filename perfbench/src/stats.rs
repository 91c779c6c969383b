//! Latency summaries.
//!
//! A percentile is the nearest-rank value of the sorted samples. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, one slow sample would decide the number.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    // Rank ceil(q·n), 1-based; q = 0 maps to the minimum.
    let rank = (q * n as f64).ceil().max(1.0) as usize; // cast-ok: 1..=n
    Some(sorted[rank.min(n) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil().max(1.0) as usize).min(n); // cast-ok: 1..=n
    n - rank
}

/// The `q` percentile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    if beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, q)
}

/// Median and p99 of a latency sample set, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latency {
    sorted: Vec<u64>,
}

impl Latency {
    pub fn new(mut samples: Vec<u64>) -> Latency {
        samples.sort_unstable();
        Latency { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50_us(&self) -> Option<f64> {
        percentile(&self.sorted, 0.5).map(ns_to_us)
    }

    pub fn p99_us(&self) -> Option<f64> {
        tail(&self.sorted, 0.99).map(ns_to_us)
    }
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0 // cast-ok: latency statistic
}

/// Mean of the better quarter of `values` (at least one value): the
/// lowest when lower is better, the highest when higher is better. A block
/// the host disturbed only ever reads worse, so this keeps a run's figure
/// from moving with the share of disturbed blocks. Averaging the quarter
/// rather than taking one order statistic keeps a single lucky block from
/// deciding it. NaN when `values` is empty.
pub fn better_quarter_mean(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let k = (v.len() / 4).max(1).min(v.len());
    if k == 0 {
        return f64::NAN;
    }
    v[..k].iter().sum::<f64>() / k as f64 // cast-ok: small count
}

/// For each slot, its lowest value over all rows: `rows[r][i]` is slot
/// `i`'s latency in repetition `r`. Slots past a shorter row's end take
/// their minimum over the rows that have them. Empty without rows.
pub fn slot_minima(rows: &[Vec<u64>]) -> Vec<u64> {
    let mut min: Vec<u64> = Vec::new();
    for row in rows {
        for (i, &v) in row.iter().enumerate() {
            match min.get_mut(i) {
                Some(m) => *m = (*m).min(v),
                None => min.push(v),
            }
        }
    }
    min
}

/// Median of a small set of floats (set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
