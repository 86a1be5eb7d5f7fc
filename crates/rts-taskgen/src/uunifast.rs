//! UUniFast (Bini & Buttazzo, 2005) — the classic utilization-vector
//! generator, kept alongside [`crate::randfixedsum`] as its reference.
//!
//! UUniFast draws `n` utilizations summing to `s` in `O(n)` but, unlike
//! Randfixedsum, does **not** constrain each value to `[0, 1]`: for
//! `s > 1` individual samples can exceed 1 (an infeasible per-task
//! utilization on one core), which is exactly why Emberson et al. —
//! and the paper's Table 3 — prefer Randfixedsum for multicore sweeps.
//! [`uunifast_discard`] implements the standard discard workaround —
//! unbiased, but with an acceptance rate that collapses at high total
//! utilization. The statistics test below cross-validates the two
//! generators' marginals against each other, which makes it the
//! reference check on Randfixedsum.

use rand::Rng;

/// Draws `n` non-negative values summing to `s` with the UUniFast
/// recurrence. Values may exceed 1 when `s > 1`.
///
/// # Panics
///
/// Panics if `n` is zero or `s` is negative/non-finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rts_taskgen::uunifast::uunifast;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let u = uunifast(6, 1.8, &mut rng);
/// assert!((u.iter().sum::<f64>() - 1.8).abs() < 1e-9);
/// ```
#[must_use]
pub fn uunifast<R: Rng + ?Sized>(n: usize, s: f64, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "uunifast needs at least one value");
    assert!(s.is_finite() && s >= 0.0, "total must be non-negative");
    let mut values = Vec::with_capacity(n);
    let mut sum = s;
    for i in 1..n {
        let next = sum * rng.gen::<f64>().powf(1.0 / (n - i) as f64);
        values.push(sum - next);
        sum = next;
    }
    values.push(sum);
    values
}

/// UUniFast with the standard discard rule: redraw until every value is
/// at most `cap` (typically 1.0). Rejection from a uniform proposal is
/// exactly unbiased — the result is uniform over the capped polytope,
/// the same distribution Randfixedsum samples — but the acceptance rate
/// collapses as `s` approaches `n·cap`, which is why Emberson et al.
/// prefer Randfixedsum for high-utilization multicore sweeps.
///
/// # Panics
///
/// Panics if `s > n·cap` (no valid vector exists) plus the conditions of
/// [`uunifast`].
#[must_use]
pub fn uunifast_discard<R: Rng + ?Sized>(n: usize, s: f64, cap: f64, rng: &mut R) -> Vec<f64> {
    assert!(
        s <= n as f64 * cap + 1e-12,
        "total {s} unreachable with {n} values capped at {cap}"
    );
    loop {
        let values = uunifast(n, s, rng);
        if values.iter().all(|&v| v <= cap) {
            return values;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randfixedsum::randfixedsum;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sums_are_exact_across_seeds() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + (seed as usize % 10);
            let s = (seed as f64 * 0.21) % (n as f64);
            let u = uunifast(n, s, &mut rng);
            assert_eq!(u.len(), n);
            assert!((u.iter().sum::<f64>() - s).abs() < 1e-9);
            assert!(u.iter().all(|&v| v >= -1e-12));
        }
    }

    #[test]
    fn plain_uunifast_can_exceed_one() {
        // With s = 3.5 over 4 tasks, oversized samples appear quickly.
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_oversize = false;
        for _ in 0..200 {
            if uunifast(4, 3.5, &mut rng).iter().any(|&v| v > 1.0) {
                saw_oversize = true;
                break;
            }
        }
        assert!(saw_oversize, "expected at least one sample above 1.0");
    }

    #[test]
    fn discard_variant_respects_the_cap() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let u = uunifast_discard(4, 2.5, 1.0, &mut rng);
            assert!(u.iter().all(|&v| v <= 1.0));
            assert!((u.iter().sum::<f64>() - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn discard_and_randfixedsum_agree_on_the_marginals() {
        // UUniFast is uniform on the simplex, so conditioning on
        // "all ≤ 1" by rejection is *exactly* uniform over the capped
        // polytope — the very distribution Randfixedsum constructs
        // directly. The two independent generators therefore cross-
        // validate each other: the mean of the maximum coordinate must
        // agree up to sampling noise (~1e-3 s.e. at 3000 trials each).
        let n = 4;
        let s = 3.2;
        let trials = 3000;
        let mut rng = StdRng::seed_from_u64(7);
        let mean_max = |gen: &mut dyn FnMut(&mut StdRng) -> Vec<f64>, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..trials {
                let v = gen(rng);
                acc += v.iter().copied().fold(f64::MIN, f64::max);
            }
            acc / trials as f64
        };
        let uu = mean_max(&mut |r| uunifast_discard(n, s, 1.0, r), &mut rng);
        let rfs = mean_max(&mut |r| randfixedsum(n, s, r), &mut rng);
        assert!(
            (uu - rfs).abs() < 0.01,
            "generator marginals disagree: UUniFast-discard max-mean {uu} vs Randfixedsum {rfs}"
        );
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn impossible_cap_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = uunifast_discard(2, 2.5, 1.0, &mut rng);
    }
}
