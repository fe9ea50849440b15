//! The geometric pseudo-detector.

use bba_geometry::{Box3, Vec2, Vec3};
use bba_lidar::Scan;
use bba_scene::{GaussianSampler, ObstacleId, Trajectory, World};
use rand::Rng;

/// Detection-model profiles mirroring the paper's two detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectorModel {
    /// coBEVT-like: higher recall, lower box noise (the paper's default).
    #[default]
    CoBevt,
    /// F-Cooper-like: earlier-generation profile with more box noise.
    FCooper,
}

/// Noise/recall constants of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Profile {
    /// Minimum LiDAR hits for a detection to be possible.
    min_hits: usize,
    /// Hits at which detection probability saturates.
    saturate_hits: f64,
    /// Peak detection probability.
    max_recall: f64,
    /// Base centre noise σ (m).
    center_sigma: f64,
    /// Extra centre noise per metre of range (m/m).
    center_sigma_per_m: f64,
    /// Yaw noise σ (rad).
    yaw_sigma: f64,
    /// Extent noise σ (fractional).
    extent_sigma: f64,
    /// Expected false positives per scan.
    false_positives: f64,
}

impl DetectorModel {
    fn profile(self) -> Profile {
        match self {
            DetectorModel::CoBevt => Profile {
                min_hits: 3,
                saturate_hits: 40.0,
                max_recall: 0.97,
                center_sigma: 0.12,
                center_sigma_per_m: 0.004,
                yaw_sigma: 0.03,
                extent_sigma: 0.04,
                false_positives: 0.5,
            },
            DetectorModel::FCooper => Profile {
                min_hits: 5,
                saturate_hits: 55.0,
                max_recall: 0.93,
                center_sigma: 0.2,
                center_sigma_per_m: 0.006,
                yaw_sigma: 0.05,
                extent_sigma: 0.07,
                false_positives: 1.0,
            },
        }
    }
}

/// A detected object: a 3-D box in the scan's sensor frame plus a
/// confidence score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Detected box in the sensor frame.
    pub box3: Box3,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Ground-truth identity (diagnostics only — `None` for false
    /// positives). A real detector does not output this; nothing in the
    /// BB-Align pipeline reads it.
    pub truth: Option<ObstacleId>,
}

/// The pseudo object detector.
///
/// See the [crate-level docs](crate) for the modelling rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detector {
    model: DetectorModel,
}

impl Detector {
    /// Creates a detector with the given model profile.
    pub fn new(model: DetectorModel) -> Self {
        Detector { model }
    }

    /// The model profile.
    pub fn model(&self) -> DetectorModel {
        self.model
    }

    /// Runs detection on a scan taken by `self_id` while moving along
    /// `trajectory` (both needed to reconstruct the instantaneous sensor
    /// frames that give detections their distortion-consistent positions).
    ///
    /// Returns boxes in the scan's nominal sensor frame.
    pub fn detect<R: Rng + ?Sized>(
        &self,
        scan: &Scan,
        world: &World,
        trajectory: &Trajectory,
        self_id: ObstacleId,
        rng: &mut R,
    ) -> Vec<Detection> {
        let p = self.model.profile();
        let mut gauss = GaussianSampler::new();
        let t0 = scan.timestamp();
        let pose0 = trajectory.pose_at(t0);
        let mut out = Vec::new();

        for (id, world_box) in world.vehicles_at(t0, Some(self_id)) {
            let hits = scan.hits_on(id);
            if hits < p.min_hits {
                continue;
            }
            // Detection probability rises with evidence and saturates.
            let evid = (hits as f64 / p.saturate_hits).min(1.0);
            let p_det = p.max_recall * evid.powf(0.25);
            if rng.random::<f64>() > p_det {
                continue;
            }
            // Express the box in the sensor frame *at the sweep time the
            // object was observed* — this bakes self-motion distortion into
            // the detection, as a real point-based detector would.
            let frac = scan.mean_sweep_frac(id).unwrap_or(0.0);
            let t_obs = t0 + frac * scan.config().scan_duration;
            let pose_obs = trajectory.pose_at(t_obs);
            let sensor_box = world_box.transformed(&pose_obs.inverse());

            let range = sensor_box.center.xy().norm();
            let sigma_c = p.center_sigma + p.center_sigma_per_m * range;
            let noisy = Box3::new(
                Vec3::new(
                    sensor_box.center.x + gauss.sample_scaled(rng, sigma_c),
                    sensor_box.center.y + gauss.sample_scaled(rng, sigma_c),
                    sensor_box.center.z,
                ),
                Vec3::new(
                    (sensor_box.extents.x * (1.0 + gauss.sample_scaled(rng, p.extent_sigma)))
                        .max(0.5),
                    (sensor_box.extents.y * (1.0 + gauss.sample_scaled(rng, p.extent_sigma)))
                        .max(0.5),
                    sensor_box.extents.z,
                ),
                sensor_box.yaw + gauss.sample_scaled(rng, p.yaw_sigma),
            );
            let confidence = (p_det * (0.85 + 0.15 * rng.random::<f64>())).clamp(0.05, 0.999);
            out.push(Detection { box3: noisy, confidence, truth: Some(id) });
        }

        // False positives: clutter boxes at random in-range positions.
        let n_fp = poisson_small(p.false_positives, rng);
        for _ in 0..n_fp {
            let range = rng.random_range(5.0..scan.config().max_range * 0.7);
            let bearing = rng.random_range(-std::f64::consts::PI..std::f64::consts::PI);
            let center = Vec2::from_angle(bearing) * range;
            let yaw = rng.random_range(-std::f64::consts::PI..std::f64::consts::PI);
            out.push(Detection {
                box3: Box3::new(Vec3::from_xy(center, 0.8), Vec3::new(4.2, 1.8, 1.6), yaw),
                confidence: rng.random_range(0.05..0.45),
                truth: None,
            });
        }
        let _ = pose0; // nominal frame is implicit: boxes relative to pose0
        out
    }
}

/// Small-λ Poisson sampler (inversion by sequential search).
fn poisson_small<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l || k > 50 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_lidar::{LidarConfig, Scanner};
    use bba_scene::{Scenario, ScenarioConfig, ScenarioPreset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scan_setup(seed: u64) -> (Scenario, Scan) {
        let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Urban), seed);
        let scanner = Scanner::new(LidarConfig::test_coarse());
        let mut rng = StdRng::seed_from_u64(seed);
        let scan = scanner.scan(
            scenario.world(),
            scenario.ego_trajectory(),
            0.0,
            scenario.ego_id(),
            &mut rng,
        );
        (scenario, scan)
    }

    #[test]
    fn detects_nearby_vehicles() {
        let (scenario, scan) = scan_setup(1);
        let mut rng = StdRng::seed_from_u64(2);
        let dets = Detector::new(DetectorModel::CoBevt).detect(
            &scan,
            scenario.world(),
            scenario.ego_trajectory(),
            scenario.ego_id(),
            &mut rng,
        );
        let true_dets: Vec<_> = dets.iter().filter(|d| d.truth.is_some()).collect();
        assert!(!true_dets.is_empty(), "urban scene should yield detections");
        // The other agent car at 35 m should usually be detected.
        for d in &dets {
            assert!((0.0..=1.0).contains(&d.confidence));
        }
    }

    #[test]
    fn detection_positions_are_close_to_truth() {
        let (scenario, scan) = scan_setup(3);
        let mut rng = StdRng::seed_from_u64(4);
        let dets = Detector::new(DetectorModel::CoBevt).detect(
            &scan,
            scenario.world(),
            scenario.ego_trajectory(),
            scenario.ego_id(),
            &mut rng,
        );
        let ego_pose = scenario.ego_trajectory().pose_at(0.0);
        for d in dets.iter().filter(|d| d.truth.is_some()) {
            let id = d.truth.unwrap();
            let world_truth = scenario
                .world()
                .vehicles_at(0.0, None)
                .into_iter()
                .find(|(vid, _)| *vid == id)
                .unwrap()
                .1;
            let det_world = d.box3.transformed(&ego_pose);
            let err = det_world.center.xy().distance(world_truth.center.xy());
            // Noise + distortion stays bounded (ego at 8 m/s → ≤ ~0.8 m
            // distortion plus ≤ ~1 m of detector noise).
            assert!(err < 3.0, "detection {err} m from truth");
        }
    }

    #[test]
    fn fcooper_is_noisier_than_cobevt() {
        // Aggregate centre error across many seeds.
        let mut errs = std::collections::HashMap::new();
        for model in [DetectorModel::CoBevt, DetectorModel::FCooper] {
            let mut total = 0.0;
            let mut count = 0usize;
            for seed in 0..8 {
                let (scenario, scan) = scan_setup(seed);
                let mut rng = StdRng::seed_from_u64(100 + seed);
                let dets = Detector::new(model).detect(
                    &scan,
                    scenario.world(),
                    scenario.ego_trajectory(),
                    scenario.ego_id(),
                    &mut rng,
                );
                let ego_pose = scenario.ego_trajectory().pose_at(0.0);
                for d in dets.iter().filter(|d| d.truth.is_some()) {
                    let id = d.truth.unwrap();
                    if let Some((_, world_truth)) = scenario
                        .world()
                        .vehicles_at(0.0, None)
                        .into_iter()
                        .find(|(vid, _)| *vid == id)
                    {
                        let det_world = d.box3.transformed(&ego_pose);
                        total += det_world.center.xy().distance(world_truth.center.xy());
                        count += 1;
                    }
                }
            }
            errs.insert(format!("{model:?}"), total / count.max(1) as f64);
        }
        assert!(
            errs["FCooper"] > errs["CoBevt"] * 0.9,
            "expected FCooper ≥ CoBevt noise: {errs:?}"
        );
    }

    #[test]
    fn far_unhit_vehicles_are_missed() {
        let (scenario, scan) = scan_setup(5);
        let mut rng = StdRng::seed_from_u64(6);
        let dets = Detector::new(DetectorModel::CoBevt).detect(
            &scan,
            scenario.world(),
            scenario.ego_trajectory(),
            scenario.ego_id(),
            &mut rng,
        );
        for d in dets.iter().filter(|d| d.truth.is_some()) {
            let hits = scan.hits_on(d.truth.unwrap());
            // CoBevt's profile floors detection at min_hits = 3; anything
            // below that must be missed regardless of the recall draw.
            assert!(hits >= 3, "detected object with only {hits} hits");
        }
    }

    #[test]
    fn poisson_sampler_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson_small(1.5, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 1.5).abs() < 0.1, "mean {mean}");
        assert_eq!(poisson_small(0.0, &mut rng), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (scenario, scan) = scan_setup(9);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Detector::new(DetectorModel::CoBevt).detect(
                &scan,
                scenario.world(),
                scenario.ego_trajectory(),
                scenario.ego_id(),
                &mut rng,
            )
        };
        assert_eq!(run(42), run(42));
    }
}
