//! VIPS-style spectral graph matching for relative pose estimation.

use bba_geometry::{fit_rigid_2d, Iso2, Vec2};
use std::error::Error;
use std::fmt;

/// Parameters of the spectral matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct VipsConfig {
    /// Distance-consistency kernel width σ (m): affinity between candidate
    /// correspondences `(i,a)` and `(j,b)` is
    /// `exp(−(d_ij − d_ab)² / σ²)` when the discrepancy is below the gate.
    pub sigma: f64,
    /// Hard gate on `|d_ij − d_ab|` (m); beyond it the affinity is 0.
    pub distance_gate: f64,
    /// Power-iteration steps for the leading eigenvector.
    pub power_iterations: usize,
    /// Minimum matched pairs required to fit a pose.
    pub min_matches: usize,
    /// Keep only matches whose eigenvector weight is at least this fraction
    /// of the strongest match's weight.
    pub weight_floor: f64,
}

impl Default for VipsConfig {
    fn default() -> Self {
        VipsConfig {
            sigma: 1.2,
            distance_gate: 3.0,
            power_iterations: 60,
            min_matches: 2,
            weight_floor: 0.1,
        }
    }
}

/// Output of the spectral matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct VipsResult {
    /// Estimated rigid transform mapping `src` (other car) centres onto
    /// `dst` (ego) centres.
    pub transform: Iso2,
    /// Matched index pairs `(src, dst)`.
    pub matches: Vec<(usize, usize)>,
    /// Eigenvector confidence of the accepted matches (descending).
    pub weights: Vec<f64>,
}

/// Failure modes of the spectral matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VipsError {
    /// One of the inputs has no objects.
    EmptyInput,
    /// Fewer consistent matches than [`VipsConfig::min_matches`].
    TooFewMatches {
        /// Matches found.
        got: usize,
        /// Matches required.
        required: usize,
    },
    /// The matched set was geometrically degenerate (coincident points).
    Degenerate,
}

impl fmt::Display for VipsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VipsError::EmptyInput => write!(f, "graph matching requires objects on both sides"),
            VipsError::TooFewMatches { got, required } => {
                write!(f, "only {got} consistent matches, {required} required")
            }
            VipsError::Degenerate => write!(f, "matched points are degenerate"),
        }
    }
}

impl Error for VipsError {}

/// Matches the object centres detected by the other car (`src`) to those
/// detected by the ego car (`dst`) and estimates the relative pose.
///
/// # Errors
///
/// Returns [`VipsError`] when either side is empty, the affinity graph
/// yields too few one-to-one matches, or the matched set is degenerate.
pub fn vips_match(
    src: &[Vec2],
    dst: &[Vec2],
    config: &VipsConfig,
) -> Result<VipsResult, VipsError> {
    let n = src.len();
    let m = dst.len();
    if n == 0 || m == 0 {
        return Err(VipsError::EmptyInput);
    }

    // Candidate correspondences: the full bipartite set (n·m). For V2V
    // object counts (≤ ~30 per side) this stays small.
    let num_c = n * m;
    let cand = |c: usize| (c / m, c % m); // -> (src index, dst index)

    // Affinity matrix (dense, symmetric, zero diagonal).
    let sigma_sq = config.sigma * config.sigma;
    let mut w = vec![0.0f64; num_c * num_c];
    for c1 in 0..num_c {
        let (i, a) = cand(c1);
        for c2 in (c1 + 1)..num_c {
            let (j, b) = cand(c2);
            if i == j || a == b {
                continue; // conflicting assignments reinforce nothing
            }
            let d_src = src[i].distance(src[j]);
            let d_dst = dst[a].distance(dst[b]);
            let diff = (d_src - d_dst).abs();
            if diff < config.distance_gate {
                let aff = (-(diff * diff) / sigma_sq).exp();
                w[c1 * num_c + c2] = aff;
                w[c2 * num_c + c1] = aff;
            }
        }
    }

    // Leading eigenvector by power iteration.
    let mut x = vec![1.0 / (num_c as f64).sqrt(); num_c];
    let mut y = vec![0.0f64; num_c];
    for _ in 0..config.power_iterations {
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &w[r * num_c..(r + 1) * num_c];
            *yr = row.iter().zip(&x).map(|(wij, xj)| wij * xj).sum();
        }
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            break; // no consistent structure at all
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }

    // A candidate with zero affinity row support never received evidence;
    // an all-zero affinity matrix leaves the eigenvector at its uniform
    // initialisation, which must not be mistaken for consensus.
    let support: Vec<f64> =
        (0..num_c).map(|r| w[r * num_c..(r + 1) * num_c].iter().sum()).collect();

    // Candidate shortlist: the strongest eigenvector entries (conflicts
    // allowed at this point).
    let mut order: Vec<usize> = (0..num_c).filter(|&c| support[c] > 0.0 && x[c] > 0.0).collect();
    order.sort_by(|&a, &b| x[b].total_cmp(&x[a]));
    let shortlist_len = order.len().min((4 * n.max(m)).max(16));
    let shortlist = &order[..shortlist_len];
    if shortlist.len() < 2 {
        return Err(VipsError::TooFewMatches { got: shortlist.len(), required: 2 });
    }

    // Geometric verification: the eigenvector proposes correspondences, a
    // rigid-consistency sweep disposes. Every non-conflicting candidate
    // pair defines a transform hypothesis; the hypothesis with the largest
    // one-to-one consistent support wins (ties broken by residual). This
    // is the verification stage real VIPS deployments add on top of
    // spectral matching — without it, the eigenvector is easily dominated
    // by spurious consistency among objects only one car observes.
    let verify_threshold = config.sigma.max(0.5) * 1.2;
    let consistent_set = |t: &Iso2| -> (Vec<(usize, usize)>, f64) {
        // Greedy 1-1 matching of transformed src to dst under the gate.
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for (i, sp) in src.iter().enumerate() {
            let p = t.apply(*sp);
            for (a, q) in dst.iter().enumerate() {
                let d = p.distance(*q);
                if d <= verify_threshold {
                    pairs.push((i, a, d));
                }
            }
        }
        pairs.sort_by(|a, b| a.2.total_cmp(&b.2));
        let mut used_s = vec![false; n];
        let mut used_d = vec![false; m];
        let mut set = Vec::new();
        let mut residual = 0.0;
        for (i, a, d) in pairs {
            if !used_s[i] && !used_d[a] {
                used_s[i] = true;
                used_d[a] = true;
                set.push((i, a));
                residual += d;
            }
        }
        (set, residual)
    };

    let mut best: Option<(Vec<(usize, usize)>, f64)> = None;
    for (k1, &c1) in shortlist.iter().enumerate() {
        let (i1, a1) = cand(c1);
        for &c2 in &shortlist[k1 + 1..] {
            let (i2, a2) = cand(c2);
            if i1 == i2 || a1 == a2 {
                continue;
            }
            if (src[i1] - src[i2]).norm_sq() < 1e-9 {
                continue;
            }
            let Ok(model) = fit_rigid_2d(&[src[i1], src[i2]], &[dst[a1], dst[a2]]) else {
                continue;
            };
            let (set, residual) = consistent_set(&model);
            let better = match &best {
                None => true,
                Some((bset, bres)) => {
                    set.len() > bset.len() || (set.len() == bset.len() && residual < *bres)
                }
            };
            if better {
                best = Some((set, residual));
            }
        }
    }

    let Some((matches, _)) = best else {
        return Err(VipsError::TooFewMatches { got: 0, required: config.min_matches.max(2) });
    };
    if matches.len() < config.min_matches.max(2) {
        return Err(VipsError::TooFewMatches {
            got: matches.len(),
            required: config.min_matches.max(2),
        });
    }

    let s: Vec<Vec2> = matches.iter().map(|&(i, _)| src[i]).collect();
    let d: Vec<Vec2> = matches.iter().map(|&(_, a)| dst[a]).collect();
    let transform = fit_rigid_2d(&s, &d).map_err(|_| VipsError::Degenerate)?;
    let weights = matches.iter().map(|&(i, a)| x[i * m + a]).collect();
    Ok(VipsResult { transform, matches, weights })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize) -> Vec<Vec2> {
        // Irregular, non-collinear layout.
        (0..n)
            .map(|i| {
                let i = i as f64;
                Vec2::new(7.0 * i + (i * i * 3.7) % 11.0, ((i * i * i) % 17.0) - 8.0 + 2.0 * i)
            })
            .collect()
    }

    #[test]
    fn recovers_pose_from_clean_objects() {
        let truth = Iso2::new(-0.7, Vec2::new(15.0, 4.0));
        let dst = scatter(6);
        let src: Vec<Vec2> = dst.iter().map(|&p| truth.inverse().apply(p)).collect();
        let r = vips_match(&src, &dst, &VipsConfig::default()).unwrap();
        assert!(r.transform.approx_eq(&truth, 1e-6, 1e-6));
        assert_eq!(r.matches.len(), 6);
        // One-to-one.
        let mut srcs: Vec<usize> = r.matches.iter().map(|&(i, _)| i).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 6);
    }

    #[test]
    fn tolerates_partial_overlap() {
        // The other car sees 5 of the ego's 8 objects plus 2 of its own.
        let truth = Iso2::new(0.4, Vec2::new(-6.0, 9.0));
        let dst = scatter(8);
        let mut src: Vec<Vec2> = dst[..5].iter().map(|&p| truth.inverse().apply(p)).collect();
        src.push(Vec2::new(200.0, 0.0));
        src.push(Vec2::new(0.0, 300.0));
        let r = vips_match(&src, &dst, &VipsConfig::default()).unwrap();
        assert!(r.transform.approx_eq(&truth, 1e-6, 1e-6), "got {}", r.transform);
    }

    #[test]
    fn noisy_centres_degrade_gracefully() {
        let truth = Iso2::new(0.2, Vec2::new(10.0, -3.0));
        let dst = scatter(7);
        let src: Vec<Vec2> = dst
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                truth.inverse().apply(p)
                    + Vec2::new(0.2 * ((i % 3) as f64 - 1.0), 0.2 * ((i % 2) as f64 - 0.5))
            })
            .collect();
        let r = vips_match(&src, &dst, &VipsConfig::default()).unwrap();
        let (dt, dr) = r.transform.error_to(&truth);
        assert!(dt < 0.6, "translation error {dt}");
        assert!(dr < 0.08, "rotation error {dr}");
    }

    #[test]
    fn single_object_fails() {
        let e =
            vips_match(&[Vec2::ZERO], &[Vec2::new(1.0, 1.0)], &VipsConfig::default()).unwrap_err();
        assert!(matches!(e, VipsError::TooFewMatches { .. }));
    }

    #[test]
    fn empty_input_fails() {
        assert_eq!(
            vips_match(&[], &[Vec2::ZERO], &VipsConfig::default()).unwrap_err(),
            VipsError::EmptyInput
        );
    }

    #[test]
    fn inconsistent_geometry_yields_few_matches() {
        // Completely unrelated scatters: pairwise distances rarely agree.
        let src = vec![Vec2::new(0.0, 0.0), Vec2::new(50.0, 0.0), Vec2::new(0.0, 70.0)];
        let dst = vec![Vec2::new(0.0, 0.0), Vec2::new(11.0, 0.0), Vec2::new(0.0, 23.0)];
        let cfg = VipsConfig { min_matches: 3, ..Default::default() };
        assert!(vips_match(&src, &dst, &cfg).is_err());
    }

    #[test]
    fn symmetric_layout_is_ambiguous() {
        // A perfect square is rotationally symmetric: distance consistency
        // cannot distinguish the four rotations, so the transform may be
        // wrong — but the matcher must still return *a* one-to-one matching
        // or an error, never panic.
        let dst = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 10.0),
            Vec2::new(0.0, 10.0),
        ];
        let truth = Iso2::new(0.0, Vec2::new(5.0, 5.0));
        let src: Vec<Vec2> = dst.iter().map(|&p| truth.inverse().apply(p)).collect();
        match vips_match(&src, &dst, &VipsConfig::default()) {
            Ok(r) => assert_eq!(r.matches.len(), 4),
            Err(e) => assert!(matches!(e, VipsError::TooFewMatches { .. })),
        }
    }

    #[test]
    fn errors_are_displayable() {
        for e in [
            VipsError::EmptyInput,
            VipsError::TooFewMatches { got: 1, required: 2 },
            VipsError::Degenerate,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
