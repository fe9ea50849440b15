//! Closed-form least-squares rigid 2-D fit from point correspondences.
//!
//! Both RANSAC stages of BB-Align ("estimating the transformation given
//! source and destination points" — Algorithm 1, lines 11 and 14) reduce to
//! this primitive: find the rotation + translation minimising
//! `Σᵢ wᵢ ‖R·sᵢ + t − dᵢ‖²`.
//!
//! In 2-D the optimum has a closed form without an SVD: demean both point
//! sets, then `θ* = atan2(Σ wᵢ (sᵢ × dᵢ), Σ wᵢ (sᵢ · dᵢ))` and
//! `t* = d̄ − R(θ*)·s̄` (the planar specialisation of Arun/Umeyama
//! least-squares fitting of two point sets, paper reference \[17\]).

use crate::iso::Iso2;
use crate::vec::Vec2;
use std::error::Error;
use std::fmt;

/// Error returned when a rigid fit is impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RigidFitError {
    /// Fewer than two correspondences (rotation unobservable).
    TooFewPoints {
        /// Number of correspondences supplied.
        got: usize,
    },
    /// Source and destination slices differ in length.
    LengthMismatch {
        /// Length of the source slice.
        src: usize,
        /// Length of the destination slice.
        dst: usize,
    },
    /// All points coincide (after weighting), so rotation is unobservable.
    Degenerate,
}

impl fmt::Display for RigidFitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RigidFitError::TooFewPoints { got } => {
                write!(f, "rigid fit needs at least 2 correspondences, got {got}")
            }
            RigidFitError::LengthMismatch { src, dst } => {
                write!(f, "source has {src} points but destination has {dst}")
            }
            RigidFitError::Degenerate => {
                write!(f, "correspondences are degenerate (coincident points)")
            }
        }
    }
}

impl Error for RigidFitError {}

/// Least-squares rigid transform mapping `src[i]` onto `dst[i]`.
///
/// # Errors
///
/// Returns [`RigidFitError`] when the slices mismatch, have fewer than two
/// points, or are rotationally degenerate.
///
/// # Example
///
/// ```
/// use bba_geometry::{fit_rigid_2d, Iso2, Vec2};
/// let truth = Iso2::new(0.7, Vec2::new(3.0, -1.0));
/// let src = [Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0), Vec2::new(0.0, 2.0)];
/// let dst: Vec<Vec2> = src.iter().map(|&p| truth.apply(p)).collect();
/// let fit = fit_rigid_2d(&src, &dst)?;
/// assert!(fit.approx_eq(&truth, 1e-9, 1e-9));
/// # Ok::<(), bba_geometry::RigidFitError>(())
/// ```
pub fn fit_rigid_2d(src: &[Vec2], dst: &[Vec2]) -> Result<Iso2, RigidFitError> {
    weighted_fit_rigid_2d(src, dst, None)
}

/// Weighted variant of [`fit_rigid_2d`].
///
/// `weights`, when provided, must match the point count; non-positive
/// weights effectively drop the pair.
///
/// # Errors
///
/// Same conditions as [`fit_rigid_2d`]; a weight slice of the wrong length
/// is reported as [`RigidFitError::LengthMismatch`].
pub fn weighted_fit_rigid_2d(
    src: &[Vec2],
    dst: &[Vec2],
    weights: Option<&[f64]>,
) -> Result<Iso2, RigidFitError> {
    if src.len() != dst.len() {
        return Err(RigidFitError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    if let Some(w) = weights {
        if w.len() != src.len() {
            return Err(RigidFitError::LengthMismatch { src: src.len(), dst: w.len() });
        }
    }
    if src.len() < 2 {
        return Err(RigidFitError::TooFewPoints { got: src.len() });
    }

    let w_at = |i: usize| weights.map_or(1.0, |w| w[i].max(0.0));
    let total_w: f64 = (0..src.len()).map(w_at).sum();
    if total_w <= 1e-300 {
        return Err(RigidFitError::Degenerate);
    }

    let mut s_mean = Vec2::ZERO;
    let mut d_mean = Vec2::ZERO;
    for i in 0..src.len() {
        let w = w_at(i);
        s_mean += src[i] * w;
        d_mean += dst[i] * w;
    }
    s_mean = s_mean / total_w;
    d_mean = d_mean / total_w;

    let mut dot = 0.0;
    let mut cross = 0.0;
    let mut spread = 0.0;
    for i in 0..src.len() {
        let w = w_at(i);
        let a = src[i] - s_mean;
        let b = dst[i] - d_mean;
        dot += w * a.dot(b);
        cross += w * a.cross(b);
        spread += w * a.norm_sq();
    }
    if spread < 1e-18 {
        return Err(RigidFitError::Degenerate);
    }

    let yaw = cross.atan2(dot);
    let t = d_mean - s_mean.rotated(yaw);
    Ok(Iso2::new(yaw, t))
}

/// Two-correspondence special case of [`fit_rigid_2d`], bit-identical to
/// `fit_rigid_2d(&[s0, s1], &[d0, d1])` but without slices or the generic
/// accumulation loop — the shape RANSAC's minimal-sample hypothesis fit
/// takes thousands of times per call. Equivalent to
/// `TwoPointMoments::new(s0, s1, d0, d1).fit()`.
///
/// # Errors
///
/// Returns [`RigidFitError::Degenerate`] when the two source points
/// (near-)coincide; length/count errors cannot occur by construction.
#[inline]
pub fn fit_rigid_2pt(s0: Vec2, s1: Vec2, d0: Vec2, d1: Vec2) -> Result<Iso2, RigidFitError> {
    TwoPointMoments::new(s0, s1, d0, d1).fit()
}

/// The demeaned sums [`fit_rigid_2pt`] solves, exposed so a caller can
/// inspect a minimal sample (RANSAC's trig-free screen builds an
/// approximate rotation `(dot, cross) / ‖(dot, cross)‖` from them) before
/// paying for the exact `atan2`/`sin_cos` solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPointMoments {
    /// Mean of the two source points.
    pub s_mean: Vec2,
    /// Mean of the two destination points.
    pub d_mean: Vec2,
    /// `Σ (sᵢ − s̄) · (dᵢ − d̄)`.
    pub dot: f64,
    /// `Σ (sᵢ − s̄) × (dᵢ − d̄)`.
    pub cross: f64,
    /// `Σ ‖sᵢ − s̄‖²`.
    pub spread: f64,
}

impl TwoPointMoments {
    /// Accumulates the sums. The order deliberately mirrors the general
    /// loop of [`weighted_fit_rigid_2d`] (start from zero, add the two
    /// terms in index order) so [`TwoPointMoments::fit`] returns the exact
    /// bits of `fit_rigid_2d(&[s0, s1], &[d0, d1])`; `crates/features` pins
    /// that equivalence under proptest.
    #[inline]
    pub fn new(s0: Vec2, s1: Vec2, d0: Vec2, d1: Vec2) -> Self {
        let total_w = 2.0;
        let mut s_mean = Vec2::ZERO;
        let mut d_mean = Vec2::ZERO;
        s_mean += s0;
        d_mean += d0;
        s_mean += s1;
        d_mean += d1;
        s_mean = s_mean / total_w;
        d_mean = d_mean / total_w;

        let mut dot = 0.0;
        let mut cross = 0.0;
        let mut spread = 0.0;
        let a0 = s0 - s_mean;
        let b0 = d0 - d_mean;
        dot += a0.dot(b0);
        cross += a0.cross(b0);
        spread += a0.norm_sq();
        let a1 = s1 - s_mean;
        let b1 = d1 - d_mean;
        dot += a1.dot(b1);
        cross += a1.cross(b1);
        spread += a1.norm_sq();
        TwoPointMoments { s_mean, d_mean, dot, cross, spread }
    }

    /// Whether the source spread is too small to observe a rotation — the
    /// condition under which [`TwoPointMoments::fit`] fails.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.spread < 1e-18
    }

    /// The least-squares rigid transform.
    ///
    /// # Errors
    ///
    /// Returns [`RigidFitError::Degenerate`] when
    /// [`TwoPointMoments::is_degenerate`].
    #[inline]
    pub fn fit(&self) -> Result<Iso2, RigidFitError> {
        if self.is_degenerate() {
            return Err(RigidFitError::Degenerate);
        }
        let yaw = self.cross.atan2(self.dot);
        let t = self.d_mean - self.s_mean.rotated(yaw);
        Ok(Iso2::new(yaw, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(t: &Iso2, pts: &[Vec2]) -> Vec<Vec2> {
        pts.iter().map(|&p| t.apply(p)).collect()
    }

    #[test]
    fn exact_recovery_on_clean_data() {
        let truth = Iso2::new(-1.9, Vec2::new(12.0, -7.5));
        let src =
            [Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0), Vec2::new(3.0, 8.0), Vec2::new(-5.0, 2.0)];
        let dst = apply_all(&truth, &src);
        let fit = fit_rigid_2d(&src, &dst).unwrap();
        assert!(fit.approx_eq(&truth, 1e-10, 1e-10));
    }

    #[test]
    fn two_points_suffice() {
        let truth = Iso2::new(0.4, Vec2::new(1.0, 1.0));
        let src = [Vec2::new(0.0, 0.0), Vec2::new(5.0, 0.0)];
        let dst = apply_all(&truth, &src);
        let fit = fit_rigid_2d(&src, &dst).unwrap();
        assert!(fit.approx_eq(&truth, 1e-10, 1e-10));
    }

    #[test]
    fn least_squares_averages_noise() {
        // Symmetric noise around the true transform cancels in the estimate.
        let truth = Iso2::new(0.0, Vec2::ZERO);
        let src =
            [Vec2::new(1.0, 0.0), Vec2::new(-1.0, 0.0), Vec2::new(0.0, 1.0), Vec2::new(0.0, -1.0)];
        let eps = 0.05;
        let dst = [
            Vec2::new(1.0 + eps, 0.0),
            Vec2::new(-1.0 - eps, 0.0),
            Vec2::new(0.0, 1.0 + eps),
            Vec2::new(0.0, -1.0 - eps),
        ];
        let fit = fit_rigid_2d(&src, &dst).unwrap();
        assert!(fit.approx_eq(&truth, 1e-10, 1e-10));
    }

    #[test]
    fn weights_select_inliers() {
        let truth = Iso2::new(0.8, Vec2::new(-2.0, 3.0));
        let src = [
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(0.0, 4.0),
            Vec2::new(100.0, 100.0), // outlier pair
        ];
        let mut dst = apply_all(&truth, &src);
        dst[3] = Vec2::new(-500.0, 200.0);
        let w = [1.0, 1.0, 1.0, 0.0];
        let fit = weighted_fit_rigid_2d(&src, &dst, Some(&w)).unwrap();
        assert!(fit.approx_eq(&truth, 1e-9, 1e-9));
    }

    #[test]
    fn mismatched_lengths_error() {
        let e = fit_rigid_2d(&[Vec2::ZERO], &[Vec2::ZERO, Vec2::ZERO]).unwrap_err();
        assert_eq!(e, RigidFitError::LengthMismatch { src: 1, dst: 2 });
    }

    #[test]
    fn too_few_points_error() {
        let e = fit_rigid_2d(&[Vec2::ZERO], &[Vec2::ZERO]).unwrap_err();
        assert_eq!(e, RigidFitError::TooFewPoints { got: 1 });
    }

    #[test]
    fn coincident_points_error() {
        let p = Vec2::new(1.0, 1.0);
        let e = fit_rigid_2d(&[p, p, p], &[p, p, p]).unwrap_err();
        assert_eq!(e, RigidFitError::Degenerate);
    }

    #[test]
    fn two_point_fit_matches_general_fit_bit_for_bit() {
        // A spread of pair geometries, including negative coords, tiny
        // offsets and signed zeros — the bits must agree exactly.
        let pairs = [
            (Vec2::new(0.0, 0.0), Vec2::new(5.0, 0.0), Vec2::new(1.0, 1.0), Vec2::new(4.9, 2.3)),
            (
                Vec2::new(-3.25, 7.5),
                Vec2::new(12.0, -0.125),
                Vec2::new(8.0, 8.0),
                Vec2::new(-1.0, 2.0),
            ),
            (
                Vec2::new(1e-7, -1e-7),
                Vec2::new(-2e-7, 3e-7),
                Vec2::new(0.5, 0.5),
                Vec2::new(0.25, -0.75),
            ),
            (
                Vec2::new(-0.0, 0.0),
                Vec2::new(0.0, -0.0),
                Vec2::new(-0.0, -0.0),
                Vec2::new(1.0, 1.0),
            ),
            (
                Vec2::new(100.5, -200.25),
                Vec2::new(-300.125, 400.0),
                Vec2::new(7.0, 9.0),
                Vec2::new(-11.0, 13.0),
            ),
        ];
        for (s0, s1, d0, d1) in pairs {
            let general = fit_rigid_2d(&[s0, s1], &[d0, d1]);
            let special = fit_rigid_2pt(s0, s1, d0, d1);
            match (general, special) {
                (Ok(g), Ok(s)) => {
                    assert_eq!(g.yaw().to_bits(), s.yaw().to_bits());
                    assert_eq!(g.translation().x.to_bits(), s.translation().x.to_bits());
                    assert_eq!(g.translation().y.to_bits(), s.translation().y.to_bits());
                }
                (g, s) => assert_eq!(g, s),
            }
        }
    }

    #[test]
    fn two_point_fit_coincident_points_degenerate() {
        let p = Vec2::new(2.0, 3.0);
        assert_eq!(
            fit_rigid_2pt(p, p, Vec2::ZERO, Vec2::new(1.0, 0.0)),
            Err(RigidFitError::Degenerate)
        );
        assert_eq!(
            fit_rigid_2d(&[p, p], &[Vec2::ZERO, Vec2::new(1.0, 0.0)]),
            Err(RigidFitError::Degenerate)
        );
    }

    #[test]
    fn errors_are_displayable() {
        let msgs = [
            RigidFitError::TooFewPoints { got: 1 }.to_string(),
            RigidFitError::LengthMismatch { src: 1, dst: 2 }.to_string(),
            RigidFitError::Degenerate.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
