//! The Randfixedsum algorithm (Stafford; Emberson, Stafford & Davis,
//! WATERS 2010) — uniform sampling of utilization vectors.
//!
//! Given `n` tasks and a total utilization `s`, draws a vector
//! `u ∈ [0, 1]^n` with `Σ u_i = s`, uniformly distributed over that
//! simplex slice. This is the paper's Table 3 choice for generating
//! per-task utilizations without the bias of naive normalization
//! (citation \[51\] in the paper).
//!
//! The implementation is a direct port of Roger Stafford's
//! `randfixedsum.m` with one numerical change: the dynamic-programming
//! weight rows are renormalized to a maximum of 1.0 instead of seeding
//! with `realmax`, which removes any chance of overflow while leaving the
//! transition probabilities (which only depend on within-row ratios)
//! untouched.

use rand::Rng;

/// Draws one vector of `n` values in `[0, 1]` summing to `total`,
/// uniformly over the valid region.
///
/// # Panics
///
/// Panics if `n == 0` or `total` is outside `[0, n]` (no such vector
/// exists), or if `total` is not finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rts_taskgen::randfixedsum::randfixedsum;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let u = randfixedsum(5, 2.0, &mut rng);
/// assert_eq!(u.len(), 5);
/// let sum: f64 = u.iter().sum();
/// assert!((sum - 2.0).abs() < 1e-9);
/// assert!(u.iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
#[must_use]
pub fn randfixedsum<R: Rng + ?Sized>(n: usize, total: f64, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "randfixedsum needs at least one value");
    assert!(total.is_finite(), "total must be finite");
    assert!(
        (0.0..=n as f64).contains(&total),
        "total {total} outside the feasible range [0, {n}]"
    );
    if n == 1 {
        return vec![total];
    }

    let s = total;
    // k = integer part of s, clamped so both child branches exist.
    let k = (s.floor() as usize).min(n - 1);
    let s = s.clamp(k as f64, k as f64 + 1.0);

    // s1[j] = s − k + j          (distance to the lower lattice planes)
    // s2[j] = k + n − j − s      (distance to the upper lattice planes)
    let s1: Vec<f64> = (0..n).map(|j| s - k as f64 + j as f64).collect();
    let s2: Vec<f64> = (0..n).map(|j| (k + n - j) as f64 - s).collect();

    // Dynamic-programming table of (renormalized) simplex volumes and the
    // branch-probability table `t`.
    let tiny = f64::MIN_POSITIVE;
    let mut w = vec![vec![0.0f64; n + 1]; n];
    w[0][1] = 1.0;
    let mut t = vec![vec![0.0f64; n]; n - 1];
    for i in 2..=n {
        let ri = i - 1;
        let mut row_max = 0.0f64;
        for q in 0..i {
            let tmp1 = w[ri - 1][q + 1] * s1[q] / i as f64;
            let tmp2 = w[ri - 1][q] * s2[n - i + q] / i as f64;
            let cell = tmp1 + tmp2;
            w[ri][q + 1] = cell;
            row_max = row_max.max(cell);
            let tmp3 = cell + tiny;
            t[i - 2][q] = if s2[n - i + q] > s1[q] {
                tmp2 / tmp3
            } else {
                1.0 - tmp1 / tmp3
            };
        }
        // Renormalize so products of probabilities never underflow.
        if row_max > 0.0 {
            for cell in &mut w[ri] {
                *cell /= row_max;
            }
        }
    }

    // Walk the probability table backwards, peeling off one coordinate at
    // a time (conditional simplex sampling).
    let mut x = vec![0.0f64; n];
    let mut s_cur = s;
    let mut j = k + 1; // 1-based branch column
    let mut sm = 0.0f64;
    let mut pr = 1.0f64;
    for i in (1..n).rev() {
        // Decide between the two sub-simplices.
        let e = rng.gen::<f64>() <= t[i - 1][j - 1];
        let sx = rng.gen::<f64>().powf(1.0 / i as f64);
        sm += (1.0 - sx) * pr * s_cur / (i as f64 + 1.0);
        pr *= sx;
        x[n - i - 1] = sm + pr * f64::from(u8::from(e));
        if e {
            s_cur -= 1.0;
            j -= 1;
        }
    }
    x[n - 1] = sm + pr * s_cur;

    // The construction above is exchangeable only after a random
    // permutation of the coordinates.
    shuffle(&mut x, rng);
    x
}

/// Fisher–Yates shuffle (kept local to avoid a `rand` feature dependency
/// on `SliceRandom`).
fn shuffle<R: Rng + ?Sized>(values: &mut [f64], rng: &mut R) {
    for i in (1..values.len()).rev() {
        let j = rng.gen_range(0..=i);
        values.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn sum_and_range_hold_across_seeds() {
        for seed in 0..50 {
            let mut r = rng(seed);
            let n = 1 + (seed as usize % 12);
            let total = (seed as f64 * 0.137) % (n as f64);
            let u = randfixedsum(n, total, &mut r);
            assert_eq!(u.len(), n);
            let sum: f64 = u.iter().sum();
            assert!(
                (sum - total).abs() < 1e-9,
                "seed {seed}: sum {sum} != {total}"
            );
            assert!(
                u.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)),
                "seed {seed}: out of range {u:?}"
            );
        }
    }

    #[test]
    fn single_task_gets_everything() {
        assert_eq!(randfixedsum(1, 0.73, &mut rng(1)), vec![0.73]);
    }

    #[test]
    fn extremes_zero_and_n() {
        let zero = randfixedsum(4, 0.0, &mut rng(2));
        assert!(zero.iter().all(|&v| v.abs() < 1e-12));
        let full = randfixedsum(4, 4.0, &mut rng(3));
        assert!(full.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn mean_is_s_over_n() {
        // With s = n/2, each coordinate has mean 1/2 by exchangeability.
        let n = 6;
        let s = 3.0;
        let mut r = rng(42);
        let trials = 4000;
        let mut acc = vec![0.0; n];
        for _ in 0..trials {
            let u = randfixedsum(n, s, &mut r);
            for (a, v) in acc.iter_mut().zip(&u) {
                *a += v;
            }
        }
        for a in &acc {
            let mean = a / trials as f64;
            assert!(
                (mean - 0.5).abs() < 0.03,
                "coordinate mean {mean} deviates from 0.5"
            );
        }
    }

    #[test]
    fn spread_is_nontrivial() {
        // Uniform sampling must produce coordinate values across the whole
        // of [0, 1], not cluster at s/n.
        let mut r = rng(9);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..1000 {
            for v in randfixedsum(4, 2.0, &mut r) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        assert!(lo < 0.05, "minimum {lo} not near 0");
        assert!(hi > 0.95, "maximum {hi} not near 1");
    }

    #[test]
    #[should_panic(expected = "outside the feasible range")]
    fn overful_total_panics() {
        let _ = randfixedsum(3, 3.5, &mut rng(0));
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_n_panics() {
        let _ = randfixedsum(0, 0.0, &mut rng(0));
    }
}
