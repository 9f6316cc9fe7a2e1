//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The statistic every timing metric reports over a run's passes: the
/// lower decile (the minimum below ten samples).
///
/// Every pass of a run does identical work, so passes differ only by
/// what the machine adds: hypervisor steal and neighbours on the core's
/// other thread, in bursts that can cover most of a 20-second window. A
/// burst at a 30 % duty cycle moved the median pass of `small_cold` by
/// 15 % and the lower decile by 4 %; the lower decile is the steadier
/// estimate of what the code itself costs.
pub fn low_decile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 10).copied().unwrap_or(0.0)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
