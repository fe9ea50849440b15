//! A minimal complex-number type for the FFT and frequency-domain filtering.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
///
/// `repr(C)` so a `[Complex]` slice is layout-compatible with interleaved
/// `[re, im, re, im, …]` `f64` data — the view the `bba-simd` kernels
/// operate on (see the crate-private `as_floats` / `as_floats_mut`).
///
/// # Example
///
/// ```
/// use bba_signal::Complex;
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Views a complex slice as interleaved `f64` data for the SIMD kernels.
pub(crate) fn as_floats(x: &[Complex]) -> &[f64] {
    // SAFETY: `Complex` is `repr(C)` with exactly two `f64` fields, so its
    // layout is two consecutive `f64`s with no padding; the produced slice
    // covers the same allocation with the same lifetime.
    unsafe { std::slice::from_raw_parts(x.as_ptr() as *const f64, x.len() * 2) }
}

/// Mutable interleaved-`f64` view of a complex slice.
pub(crate) fn as_floats_mut(x: &mut [Complex]) -> &mut [f64] {
    // SAFETY: as in `as_floats`; exclusivity carries over from `&mut`.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr() as *mut f64, x.len() * 2) }
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — the unit complex number at angle `theta`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (cheaper than [`Complex::abs`]).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn multiplication_rotates() {
        let z = Complex::cis(0.3) * Complex::cis(0.4);
        assert!((z.arg() - 0.7).abs() < 1e-12);
        assert!((z.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conjugate_negates_argument() {
        let z = Complex::new(1.0, 2.0);
        assert!((z.conj().arg() + z.arg()).abs() < 1e-12);
        assert!(((z * z.conj()).re - z.norm_sq()).abs() < 1e-12);
    }

    #[test]
    fn cis_pi_is_minus_one() {
        let z = Complex::cis(PI);
        assert!((z - Complex::new(-1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b - b, a);
        assert_eq!((a * Complex::ONE), a);
        assert_eq!(a + (-a), Complex::ZERO);
        assert_eq!(a * 2.0, Complex::new(3.0, -4.0));
    }

    #[test]
    fn from_real_has_no_imaginary() {
        let z: Complex = 3.25.into();
        assert_eq!(z, Complex::new(3.25, 0.0));
    }
}
