//! Classic 2-D point-to-point Iterative Closest Point.
//!
//! Included as the rigid-registration baseline of the paper's related work
//! (§II: ICP "requires similar sensor configurations" and a decent initial
//! guess). The benchmark harness uses it to illustrate why raw point
//! registration is a poor fit for heterogeneous V2V pairs.

use bba_geometry::{fit_rigid_2d, Iso2, Vec2};

/// ICP parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IcpConfig {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Pairs farther apart than this (m) are excluded from each fit.
    pub max_pair_distance: f64,
    /// Convergence threshold on the per-iteration transform update
    /// (translation metres; rotation uses the same number in radians).
    pub tolerance: f64,
}

impl Default for IcpConfig {
    fn default() -> Self {
        IcpConfig { max_iterations: 50, max_pair_distance: 5.0, tolerance: 1e-4 }
    }
}

/// ICP output.
#[derive(Debug, Clone, PartialEq)]
pub struct IcpResult {
    /// Estimated transform mapping `src` onto `dst` (includes the initial
    /// guess).
    pub transform: Iso2,
    /// Iterations executed.
    pub iterations: usize,
    /// Root-mean-square distance of the final matched pairs (m).
    pub rmse: f64,
    /// Number of pairs used in the final fit.
    pub pairs: usize,
    /// True when the update fell below tolerance before the iteration cap.
    pub converged: bool,
}

/// Runs point-to-point ICP from an initial guess.
///
/// Returns `None` when fewer than two usable pairs ever form (e.g. empty
/// inputs or no overlap within `max_pair_distance`).
pub fn icp_2d(src: &[Vec2], dst: &[Vec2], initial: Iso2, config: &IcpConfig) -> Option<IcpResult> {
    if src.len() < 2 || dst.len() < 2 {
        return None;
    }
    // Uniform grid over dst for nearest-neighbour queries.
    let grid = NnGrid::build(dst, config.max_pair_distance.max(0.5));

    let mut transform = initial;
    let mut iterations = 0;
    let mut converged = false;
    let mut last_rmse = f64::INFINITY;
    let mut last_pairs = 0usize;

    for it in 0..config.max_iterations {
        iterations = it + 1;
        let mut pairs_src = Vec::new();
        let mut pairs_dst = Vec::new();
        let mut sq_sum = 0.0;
        for &p in src {
            let q = transform.apply(p);
            if let Some((nn, d_sq)) = grid.nearest(q, config.max_pair_distance) {
                pairs_src.push(p);
                pairs_dst.push(nn);
                sq_sum += d_sq;
            }
        }
        if pairs_src.len() < 2 {
            return None;
        }
        last_pairs = pairs_src.len();
        last_rmse = (sq_sum / pairs_src.len() as f64).sqrt();
        let Ok(update) = fit_rigid_2d(&pairs_src, &pairs_dst) else {
            break;
        };
        let (dt, dr) = update.error_to(&transform);
        transform = update;
        if dt < config.tolerance && dr < config.tolerance {
            converged = true;
            break;
        }
    }

    Some(IcpResult { transform, iterations, rmse: last_rmse, pairs: last_pairs, converged })
}

/// A uniform-grid nearest-neighbour index over 2-D points.
struct NnGrid {
    cell: f64,
    map: std::collections::HashMap<(i64, i64), Vec<Vec2>>,
}

impl NnGrid {
    fn build(points: &[Vec2], cell: f64) -> Self {
        let mut map: std::collections::HashMap<(i64, i64), Vec<Vec2>> =
            std::collections::HashMap::new();
        for &p in points {
            map.entry(Self::key(p, cell)).or_default().push(p);
        }
        NnGrid { cell, map }
    }

    fn key(p: Vec2, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Nearest point within `radius`, with its squared distance.
    fn nearest(&self, q: Vec2, radius: f64) -> Option<(Vec2, f64)> {
        let reach = (radius / self.cell).ceil() as i64;
        let (kx, ky) = Self::key(q, self.cell);
        let mut best: Option<(Vec2, f64)> = None;
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(bucket) = self.map.get(&(kx + dx, ky + dy)) {
                    for &p in bucket {
                        let d = (p - q).norm_sq();
                        if d <= radius * radius && best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((p, d));
                        }
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Vec2> {
        // A pseudo-random scatter with ≥ ~2 m point separation: nearest
        // neighbours are unambiguous for sub-metre displacements.
        (0..60)
            .map(|i| Vec2::new(((i * 37) % 97) as f64 * 0.7, ((i * 53) % 89) as f64 * 0.55))
            .collect()
    }

    #[test]
    fn converges_from_good_initial_guess() {
        let truth = Iso2::new(0.01, Vec2::new(0.5, -0.3));
        let dst: Vec<Vec2> = cloud().iter().map(|&p| truth.apply(p)).collect();
        let r = icp_2d(&cloud(), &dst, Iso2::IDENTITY, &IcpConfig::default()).unwrap();
        assert!(r.converged);
        assert!(r.transform.approx_eq(&truth, 1e-3, 1e-3), "got {}", r.transform);
        assert!(r.rmse < 1e-3);
    }

    #[test]
    fn diverges_or_stalls_from_bad_initial_guess() {
        // A gross initial error (far beyond the pairing radius) leaves ICP
        // without pairs — the documented failure mode for V2V-scale errors.
        let truth = Iso2::new(1.2, Vec2::new(40.0, 25.0));
        let dst: Vec<Vec2> = cloud().iter().map(|&p| truth.apply(p)).collect();
        let r = icp_2d(&cloud(), &dst, Iso2::IDENTITY, &IcpConfig::default());
        match r {
            None => {}
            Some(r) => {
                let (dt, _) = r.transform.error_to(&truth);
                assert!(dt > 1.0, "ICP should not recover a 47 m error, got {dt}");
            }
        }
    }

    #[test]
    fn partial_overlap_still_converges() {
        let truth = Iso2::new(-0.005, Vec2::new(0.4, 0.3));
        let full = cloud();
        let dst: Vec<Vec2> = full.iter().map(|&p| truth.apply(p)).collect();
        // Source only sees 60 % of the structure.
        let src: Vec<Vec2> = full.iter().take(36).copied().collect();
        let r = icp_2d(&src, &dst, Iso2::IDENTITY, &IcpConfig::default()).unwrap();
        assert!(r.transform.approx_eq(&truth, 0.05, 0.02), "got {}", r.transform);
    }

    #[test]
    fn empty_inputs_return_none() {
        assert!(icp_2d(&[], &cloud(), Iso2::IDENTITY, &IcpConfig::default()).is_none());
        assert!(icp_2d(&cloud(), &[], Iso2::IDENTITY, &IcpConfig::default()).is_none());
    }

    #[test]
    fn identity_on_identical_clouds() {
        let pts = cloud();
        let r = icp_2d(&pts, &pts, Iso2::IDENTITY, &IcpConfig::default()).unwrap();
        assert!(r.transform.approx_eq(&Iso2::IDENTITY, 1e-9, 1e-9));
        assert_eq!(r.pairs, pts.len());
    }

    #[test]
    fn nn_grid_finds_nearest() {
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(5.0, 5.0), Vec2::new(-3.0, 2.0)];
        let grid = NnGrid::build(&pts, 1.0);
        let (nn, d) = grid.nearest(Vec2::new(4.6, 5.2), 2.0).unwrap();
        assert_eq!(nn, Vec2::new(5.0, 5.0));
        assert!(d < 0.25);
        assert!(grid.nearest(Vec2::new(100.0, 100.0), 2.0).is_none());
    }
}
