//! Angle utilities: wrapping, differences and degree/radian newtypes.
//!
//! Pose-recovery accuracy in the paper is reported as an absolute *angular
//! difference* (rotation error), so correct wrapping at the ±π seam matters
//! throughout the codebase.

use std::f64::consts::PI;
use std::fmt;

/// Wraps an angle into `(-π, π]`.
///
/// ```
/// use bba_geometry::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-3.5 * PI) - 0.5 * PI).abs() < 1e-12);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    let mut r = a.rem_euclid(2.0 * PI);
    if r > PI {
        r -= 2.0 * PI;
    }
    r
}

/// The signed smallest difference `a - b`, wrapped into `(-π, π]`.
///
/// The absolute value of this is the paper's **rotation error** metric.
///
/// ```
/// use bba_geometry::angle_diff;
/// use std::f64::consts::PI;
/// // 179° and -179° are only 2° apart.
/// let d = angle_diff(179f64.to_radians(), -179f64.to_radians());
/// assert!((d.abs() - 2f64.to_radians()).abs() < 1e-12);
/// ```
pub fn angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(a - b)
}

/// An angle expressed in radians (newtype for API clarity).
///
/// ```
/// use bba_geometry::{Degrees, Radians};
/// let r = Radians(std::f64::consts::PI);
/// assert!((r.to_degrees().0 - 180.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(pub f64);

/// An angle expressed in degrees (newtype for API clarity).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(pub f64);

impl Radians {
    /// Converts to degrees.
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Wraps into `(-π, π]`.
    pub fn normalized(self) -> Radians {
        Radians(normalize_angle(self.0))
    }
}

impl Degrees {
    /// Converts to radians.
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }
}

impl From<Degrees> for Radians {
    fn from(d: Degrees) -> Self {
        d.to_radians()
    }
}

impl From<Radians> for Degrees {
    fn from(r: Radians) -> Self {
        r.to_degrees()
    }
}

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rad", self.0)
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}°", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_keeps_range() {
        for k in -20..20 {
            let a = k as f64 * 0.7;
            let n = normalize_angle(a);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "{a} -> {n}");
            // Same direction.
            assert!(
                ((n - a).rem_euclid(2.0 * PI)).min(2.0 * PI - (n - a).rem_euclid(2.0 * PI)) < 1e-9
            );
        }
    }

    #[test]
    fn normalize_pi_maps_to_pi() {
        assert!((normalize_angle(PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn diff_is_antisymmetric() {
        let a = 2.5;
        let b = -1.2;
        assert!((angle_diff(a, b) + angle_diff(b, a)).abs() < 1e-12);
    }

    #[test]
    fn diff_across_seam_is_small() {
        let d = angle_diff(PI - 0.01, -(PI - 0.01));
        assert!((d + 0.02).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn degree_radian_roundtrip() {
        let d = Degrees(123.456);
        let back: Degrees = d.to_radians().into();
        assert!((back.0 - d.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Degrees(90.0)), "90°");
        assert_eq!(format!("{}", Radians(1.5)), "1.5 rad");
    }
}
