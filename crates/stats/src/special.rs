//! Special functions needed by the statistical tests.
//!
//! Implemented from scratch (no external numerics dependency): the error
//! function, the log-gamma function, and the regularized incomplete beta
//! function (via Lentz's continued fraction), which underlies the
//! Student's t CDF used by [`crate::welch_t_test`].

/// Error function `erf(x)`, accurate to ~1.2e-7 (Abramowitz & Stegun 7.1.26
/// refined with the Numerical Recipes rational Chebyshev fit).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// CDF at `x` of the normal distribution with the given mean and
/// (positive) standard deviation.
pub(crate) fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    0.5 * (1.0 + erf((x - mean) / (std_dev * std::f64::consts::SQRT_2)))
}

/// Complementary error function `erfc(x)`.
///
/// Uses the Numerical Recipes `erfccheb`-style rational approximation,
/// accurate to better than 1e-12 over the real line.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev coefficients for erfc (Numerical Recipes, 3rd ed.).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Evaluated with Lentz's modified continued fraction, using the symmetry
/// transformation for fast convergence.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x` is outside `[0, 1]`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "beta_inc requires positive shape parameters"
    );
    assert!((0.0..=1.0).contains(&x), "beta_inc requires x in [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (Lentz's method).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t.is_nan() {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from tables.
        assert!((erf(0.0)).abs() < 1e-14);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-9);
        assert!((erf(2.0) - 0.9953222650189527).abs() < 1e-9);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-9);
    }

    #[test]
    fn erfc_is_complement() {
        for &x in &[-2.5, -1.0, -0.1, 0.0, 0.3, 1.7, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn normal_cdf_standard_values() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.9750021).abs() < 1e-5);
        assert!((normal_cdf(-1.96, 0.0, 1.0) - 0.0249979).abs() < 1e-5);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..12u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn beta_inc_boundaries() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.7, 0.9, 0.6), (10.0, 3.0, 0.8)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn student_t_cdf_symmetric() {
        for &df in &[1.0, 2.0, 5.0, 30.0] {
            for &t in &[0.5, 1.0, 2.5] {
                let p = student_t_cdf(t, df);
                let q = student_t_cdf(-t, df);
                assert!((p + q - 1.0).abs() < 1e-12, "df={df} t={t}");
            }
            assert!((student_t_cdf(0.0, df) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn student_t_cdf_known_values() {
        // t = 2.0, df = 10 -> CDF ~ 0.96331.
        assert!((student_t_cdf(2.0, 10.0) - 0.963306).abs() < 1e-4);
        // df = 1 is the Cauchy distribution: CDF(1) = 0.75.
        assert!((student_t_cdf(1.0, 1.0) - 0.75).abs() < 1e-10);
        // Large df approaches the normal distribution.
        let normal = 0.5 * (1.0 + erf(1.96 / std::f64::consts::SQRT_2));
        assert!((student_t_cdf(1.96, 1e6) - normal).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "x in [0, 1]")]
    fn beta_inc_rejects_bad_x() {
        beta_inc(1.0, 1.0, 1.5);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// erf is odd, bounded, and monotone.
        #[test]
        fn erf_shape(x in -6.0f64..6.0, y in -6.0f64..6.0) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
            prop_assert!(erf(x).abs() <= 1.0);
            if x < y {
                prop_assert!(erf(x) <= erf(y) + 1e-15);
            }
        }

        /// Gamma recurrence: ln Γ(x+1) = ln Γ(x) + ln x.
        #[test]
        fn gamma_recurrence(x in 0.1f64..30.0) {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
        }

        /// The regularized incomplete beta is a CDF in x: monotone,
        /// bounded, symmetric under (a,b,x) -> (b,a,1-x).
        #[test]
        fn beta_inc_is_a_cdf(
            a in 0.2f64..20.0,
            b in 0.2f64..20.0,
            x in 0.0f64..1.0,
            y in 0.0f64..1.0,
        ) {
            let fx = beta_inc(a, b, x);
            prop_assert!((0.0..=1.0).contains(&fx));
            if x < y {
                prop_assert!(fx <= beta_inc(a, b, y) + 1e-12);
            }
            let sym = 1.0 - beta_inc(b, a, 1.0 - x);
            prop_assert!((fx - sym).abs() < 1e-9);
        }

        /// Student-t CDF is a proper CDF and symmetric.
        #[test]
        fn student_t_is_a_cdf(t in -20.0f64..20.0, df in 0.5f64..100.0) {
            let p = student_t_cdf(t, df);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((p + student_t_cdf(-t, df) - 1.0).abs() < 1e-10);
        }
    }
}
