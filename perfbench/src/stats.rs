//! Order statistics and the seeded shuffle.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0–100); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile that still leaves at least ten samples
/// above it, with its value: `(value, percentile)`. With ten samples or
/// fewer no percentile qualifies and the maximum is reported as p100.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    let n = samples.len();
    if n <= 10 {
        return (sorted(samples).last().copied().unwrap_or(0.0), 100);
    }
    let p = 100 * (n - 10) / n;
    (percentile(samples, p as f64), p)
}

/// `max − min`; 0 for no samples.
pub fn range(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0.0,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the benchmark's only randomness, derived from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, p) = tail(&v);
        assert_eq!(p, 80);
        assert_eq!(value, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 99.0), 5.0);
        assert_eq!(range(&[2.0, 7.0, 3.0]), 5.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..36).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..36).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
