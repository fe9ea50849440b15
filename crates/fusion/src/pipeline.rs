//! The fusion pipelines and their shared evidence model.

use bba_dataset::FramePair;
use bba_detect::{Detection, GroundTruthBox};
use bba_geometry::{obb_iou, Box3, Iso2, Vec3};
use bba_obs::Recorder;
use bba_scene::GaussianSampler;
use rand::Rng;

/// The fusion families of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionMethod {
    /// Merge raw point clouds, then detect.
    Early,
    /// Detect per car, transform the other car's boxes, NMS-merge.
    Late,
    /// Intermediate fusion, F-Cooper style (maxout of BEV features).
    FCooper,
    /// Intermediate fusion, coBEVT style (attention-weighted features).
    CoBevt,
}

impl FusionMethod {
    /// All four methods, in Table I row order.
    pub const ALL: [FusionMethod; 4] =
        [FusionMethod::Early, FusionMethod::Late, FusionMethod::FCooper, FusionMethod::CoBevt];

    /// Human-readable name matching the paper's table rows.
    pub fn name(self) -> &'static str {
        match self {
            FusionMethod::Early => "Early Fusion",
            FusionMethod::Late => "Late Fusion",
            FusionMethod::FCooper => "F-Cooper",
            FusionMethod::CoBevt => "coBEVT",
        }
    }

    /// Misalignment tolerance `τ` (m): how fast the other car's evidence
    /// decays as its placement error grows. Point-level merging (early) is
    /// the most brittle; attention-weighted feature fusion (coBEVT)
    /// tolerates the most — mirroring the relative robustness ordering of
    /// Table I's "corrupted pose" columns.
    fn tolerance(self) -> f64 {
        match self {
            FusionMethod::Early => 1.0,
            FusionMethod::Late => 1.0, // unused: late fusion merges boxes
            FusionMethod::FCooper => 1.6,
            FusionMethod::CoBevt => 2.1,
        }
    }

    /// Displacement (m) beyond which fused evidence splits into a ghost
    /// detection instead of blending.
    fn split_threshold(self) -> f64 {
        match self {
            FusionMethod::Early => 2.2,
            FusionMethod::Late => f64::INFINITY,
            FusionMethod::FCooper => 2.8,
            FusionMethod::CoBevt => 3.2,
        }
    }
}

/// Detection/evidence constants of the fused detector (shared across
/// methods; per-method behaviour enters through `tolerance` /
/// `split_threshold`).
const MIN_HITS: usize = 5;
const SATURATE_HITS: f64 = 60.0;
const MAX_RECALL: f64 = 0.97;
const CENTER_SIGMA: f64 = 0.12;
const CENTER_SIGMA_PER_M: f64 = 0.004;
const YAW_SIGMA: f64 = 0.03;
const NMS_IOU: f64 = 0.3;

/// A cooperative-detection experiment bound to one fusion method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionExperiment {
    method: FusionMethod,
}

impl FusionExperiment {
    /// Creates an experiment.
    pub fn new(method: FusionMethod) -> Self {
        FusionExperiment { method }
    }

    /// The fusion method.
    pub fn method(&self) -> FusionMethod {
        self.method
    }

    /// Runs cooperative detection on one frame pair, fusing with
    /// `used_pose` (the relative other→ego transform actually applied —
    /// ground truth, corrupted, or recovered).
    ///
    /// Returns `(detections, ground_truth)`, both in the ego frame, ready
    /// for [`bba_detect::average_precision`].
    pub fn run_frame<R: Rng + ?Sized>(
        &self,
        pair: &FramePair,
        used_pose: &Iso2,
        rng: &mut R,
    ) -> (Vec<Detection>, Vec<GroundTruthBox>) {
        let gt: Vec<GroundTruthBox> =
            pair.gt_vehicles_ego.iter().map(|&(_, b)| GroundTruthBox { box3: b }).collect();
        let dets = match self.method {
            FusionMethod::Late => self.late_fusion(pair, used_pose, rng),
            _ => self.evidence_fusion(pair, used_pose, rng),
        };
        (dets, gt)
    }

    /// Ego-only detection: what the receiver is left with when the V2V
    /// link delivered no usable frame. Same `(detections, ground_truth)`
    /// shape as [`FusionExperiment::run_frame`], so degradation
    /// experiments can score both operating modes with one AP pass.
    pub fn ego_only(pair: &FramePair) -> (Vec<Detection>, Vec<GroundTruthBox>) {
        let gt: Vec<GroundTruthBox> =
            pair.gt_vehicles_ego.iter().map(|&(_, b)| GroundTruthBox { box3: b }).collect();
        (pair.ego.detections.clone(), gt)
    }

    /// Link-fed entry point: fuses cooperatively when the transport
    /// produced a pose for this frame (recovered or extrapolated), and
    /// degrades to [`FusionExperiment::ego_only`] when it did not.
    pub fn run_frame_link<R: Rng + ?Sized>(
        &self,
        pair: &FramePair,
        link_pose: Option<&Iso2>,
        rng: &mut R,
    ) -> (Vec<Detection>, Vec<GroundTruthBox>) {
        match link_pose {
            Some(pose) => self.run_frame(pair, pose, rng),
            None => Self::ego_only(pair),
        }
    }

    /// [`FusionExperiment::run_frame_link`] with observability: times the
    /// frame under a `fusion` span and counts cooperative vs. ego-only
    /// operation plus emitted detections. `FusionExperiment` is a `Copy`
    /// method tag, so the recorder is passed per call rather than stored.
    pub fn run_frame_link_observed<R: Rng + ?Sized>(
        &self,
        pair: &FramePair,
        link_pose: Option<&Iso2>,
        rng: &mut R,
        obs: &Recorder,
    ) -> (Vec<Detection>, Vec<GroundTruthBox>) {
        let _span = obs.span("fusion");
        obs.incr("fusion.frames");
        obs.incr(if link_pose.is_some() {
            "fusion.cooperative_frames"
        } else {
            "fusion.ego_only_frames"
        });
        let out = self.run_frame_link(pair, link_pose, rng);
        obs.add("fusion.detections", out.0.len() as u64);
        out
    }

    /// Late fusion: per-car boxes, other's transformed, NMS-merged.
    fn late_fusion<R: Rng + ?Sized>(
        &self,
        pair: &FramePair,
        used_pose: &Iso2,
        rng: &mut R,
    ) -> Vec<Detection> {
        let _ = rng;
        let mut boxes: Vec<Detection> = pair.ego.detections.clone();
        boxes.extend(pair.other.detections.iter().map(|d| Detection {
            box3: d.box3.transformed(used_pose),
            confidence: d.confidence,
            truth: d.truth,
        }));
        // Greedy NMS by confidence.
        boxes.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        let mut kept: Vec<Detection> = Vec::new();
        for det in boxes {
            let dup = kept.iter().any(|k| obb_iou(&k.box3.to_bev(), &det.box3.to_bev()) > NMS_IOU);
            if !dup {
                kept.push(det);
            }
        }
        kept
    }

    /// Early / intermediate fusion: the analytic evidence model (see the
    /// [crate docs](crate)).
    fn evidence_fusion<R: Rng + ?Sized>(
        &self,
        pair: &FramePair,
        used_pose: &Iso2,
        rng: &mut R,
    ) -> Vec<Detection> {
        let mut gauss = GaussianSampler::new();
        let mut out = Vec::new();
        let true_pose = pair.true_relative;
        let tau = self.method.tolerance();
        let split = self.method.split_threshold();
        // Rotation error shared by all of the other car's evidence.
        let yaw_err = bba_geometry::angle_diff(used_pose.yaw(), true_pose.yaw());

        for &(id, gt_box) in &pair.gt_vehicles_ego {
            let n_e = pair.ego.scan.hits_on(id);
            let n_o = pair.other.scan.hits_on(id);
            if n_e + n_o < MIN_HITS {
                continue; // neither car gathered meaningful evidence
            }
            // Placement error of the other car's evidence at this object:
            // where the used pose puts it minus where it belongs.
            let c_other = true_pose.inverse().apply(gt_box.center.xy());
            let displacement = used_pose.apply(c_other) - gt_box.center.xy();
            let miss = displacement.norm();

            // Candidate clusters: (evidence, centre offset, yaw offset).
            let mut clusters: Vec<(f64, bba_geometry::Vec2, f64)> = Vec::new();
            if miss <= split {
                // Evidence blends; the other car's share is attenuated by
                // the misalignment and pulls the fused centre toward its
                // displaced position.
                let eff_o = n_o as f64 * (-(miss / tau).powi(2)).exp();
                let total = n_e as f64 + eff_o;
                if total >= MIN_HITS as f64 {
                    let w_o = eff_o / total;
                    clusters.push((total, displacement * w_o, yaw_err * w_o));
                }
            } else {
                // Ghosting: each car's evidence stands alone.
                if n_e >= MIN_HITS {
                    clusters.push((n_e as f64, bba_geometry::Vec2::ZERO, 0.0));
                }
                if n_o >= MIN_HITS {
                    clusters.push((n_o as f64, displacement, yaw_err));
                }
            }

            for (evidence, offset, yaw_offset) in clusters {
                let p_det = MAX_RECALL * (evidence / SATURATE_HITS).min(1.0).powf(0.35);
                if rng.random::<f64>() > p_det {
                    continue;
                }
                let range = gt_box.center.xy().norm();
                let sigma_c = CENTER_SIGMA + CENTER_SIGMA_PER_M * range;
                let center = gt_box.center.xy()
                    + offset
                    + bba_geometry::Vec2::new(
                        gauss.sample_scaled(rng, sigma_c),
                        gauss.sample_scaled(rng, sigma_c),
                    );
                let confidence = (p_det * (0.85 + 0.15 * rng.random::<f64>())).clamp(0.05, 0.999);
                out.push(Detection {
                    box3: Box3::new(
                        Vec3::from_xy(center, gt_box.center.z),
                        gt_box.extents,
                        gt_box.yaw + yaw_offset + gauss.sample_scaled(rng, YAW_SIGMA),
                    ),
                    confidence,
                    truth: Some(id),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_dataset::{Dataset, DatasetConfig, PoseNoise};
    use bba_detect::average_precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frames(n: usize, seed: u64) -> Vec<FramePair> {
        let mut ds = Dataset::new(DatasetConfig::test_small(), seed);
        (0..n).map(|_| ds.next_pair().unwrap()).collect()
    }

    fn ap_for(method: FusionMethod, pose_error: Option<PoseNoise>, frames: &[FramePair]) -> f64 {
        let exp = FusionExperiment::new(method);
        let mut rng = StdRng::seed_from_u64(7);
        let evaluated: Vec<_> = frames
            .iter()
            .map(|pair| {
                let pose = match pose_error {
                    Some(noise) => noise.corrupt(&pair.true_relative, &mut rng),
                    None => pair.true_relative,
                };
                exp.run_frame(pair, &pose, &mut rng)
            })
            .collect();
        average_precision(&evaluated, 0.5).ap
    }

    #[test]
    fn true_pose_beats_corrupted_pose_for_every_method() {
        let frames = frames(4, 11);
        for method in FusionMethod::ALL {
            let ap_true = ap_for(method, None, &frames);
            let ap_bad = ap_for(method, Some(PoseNoise::table1()), &frames);
            assert!(
                ap_true > ap_bad + 0.05,
                "{}: clean AP {ap_true:.3} should clearly beat corrupted {ap_bad:.3}",
                method.name()
            );
        }
    }

    #[test]
    fn cobevt_is_most_robust_intermediate() {
        let frames = frames(6, 13);
        let noise = PoseNoise::table1();
        let early = ap_for(FusionMethod::Early, Some(noise), &frames);
        let cobevt = ap_for(FusionMethod::CoBevt, Some(noise), &frames);
        assert!(
            cobevt >= early,
            "coBEVT ({cobevt:.3}) should tolerate pose error at least as well as early fusion ({early:.3})"
        );
    }

    #[test]
    fn fusion_beats_single_car_on_recall() {
        // With the true pose, cooperative early fusion should detect
        // objects the ego car alone misses (the whole point of V2V).
        let frames = frames(4, 17);
        let exp = FusionExperiment::new(FusionMethod::Early);
        let mut rng = StdRng::seed_from_u64(3);
        let mut coop_tp = 0usize;
        let mut solo_tp = 0usize;
        for pair in &frames {
            let (dets, gt) = exp.run_frame(pair, &pair.true_relative, &mut rng);
            let r = average_precision(&[(dets, gt.clone())], 0.5);
            coop_tp += r.true_positives;
            let solo = average_precision(&[(pair.ego.detections.clone(), gt)], 0.5);
            solo_tp += solo.true_positives;
        }
        assert!(coop_tp >= solo_tp, "cooperative TP {coop_tp} should be ≥ single-car TP {solo_tp}");
    }

    #[test]
    fn ghosting_appears_under_large_error() {
        // A gross pose error splits fused evidence into ghosts for early
        // fusion: detection count grows or localisation collapses.
        let frames = frames(3, 23);
        let exp = FusionExperiment::new(FusionMethod::Early);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ghosted = 0;
        for pair in &frames {
            let bad = Iso2::new(
                pair.true_relative.yaw(),
                pair.true_relative.translation() + bba_geometry::Vec2::new(5.0, 5.0),
            );
            let (dets, _) = exp.run_frame(pair, &bad, &mut rng);
            // Count detections that are far from every ground-truth box.
            for d in &dets {
                let nearest = pair
                    .gt_vehicles_ego
                    .iter()
                    .map(|(_, g)| g.center.xy().distance(d.box3.center.xy()))
                    .fold(f64::INFINITY, f64::min);
                if nearest > 2.0 {
                    ghosted += 1;
                }
            }
        }
        assert!(ghosted > 0, "large pose error should create ghost detections");
    }

    #[test]
    fn late_fusion_nms_deduplicates_aligned_boxes() {
        let frames = frames(2, 29);
        let exp = FusionExperiment::new(FusionMethod::Late);
        let mut rng = StdRng::seed_from_u64(9);
        for pair in &frames {
            let (dets, _) = exp.run_frame(pair, &pair.true_relative, &mut rng);
            // No two kept boxes overlap strongly.
            for (i, a) in dets.iter().enumerate() {
                for b in dets.iter().skip(i + 1) {
                    assert!(
                        obb_iou(&a.box3.to_bev(), &b.box3.to_bev()) <= NMS_IOU + 1e-9,
                        "NMS left overlapping duplicates"
                    );
                }
            }
        }
    }

    #[test]
    fn method_names_match_table() {
        assert_eq!(FusionMethod::Early.name(), "Early Fusion");
        assert_eq!(FusionMethod::Late.name(), "Late Fusion");
        assert_eq!(FusionMethod::FCooper.name(), "F-Cooper");
        assert_eq!(FusionMethod::CoBevt.name(), "coBEVT");
    }
}
