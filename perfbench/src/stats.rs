//! Order statistics over timing samples, the seeded shuffle that draws the
//! query mix order, and the host-speed calibration.

use sparklite::rdd::util::SplitMix64;

/// The median of `v` (mean of the middle two when the length is even);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `v`; 0 for an
/// empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, or `None` when even the median does not (fewer
/// than 20 samples). A tail quoted past that point rests on a handful of
/// samples and moves from run to run for no reason in the program.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The geometric mean of positive values; 0 when `v` is empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Fisher–Yates shuffle of `v`, drawn from `rng`: the seeded query mix
/// order.
pub fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// How long, in ms, this thread takes for a fixed integer-mixing loop: the
/// median of three timings. The loop touches no memory and calls nothing
/// in the engine, so it measures the host's speed at the moment (clock rate
/// and contention from other tenants), which on a shared machine drifts by
/// tens of percent within minutes.
pub fn calibration_ms() -> f64 {
    let once = || {
        let start = std::time::Instant::now();
        let mut x = 0x1234_u64;
        for i in 0..3_000_000_u64 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ i;
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    };
    median(&[once(), once(), once()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // The rule itself, on every size up to a few thousand samples.
        for n in 0..5000usize {
            match tail_percentile(n) {
                Some(p) => {
                    let beyond = n as f64 * (1.0 - p / 100.0);
                    assert!(beyond >= 10.0 - 1e-9, "n={n} p={p}");
                    for q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                        assert!(n as f64 * (1.0 - q / 100.0) < 10.0 - 1e-9, "n={n} q={q}");
                    }
                }
                None => assert!(n < 20),
            }
        }
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_seeded() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..10).collect();
            shuffle(&mut SplitMix64::new(seed), &mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }
}
