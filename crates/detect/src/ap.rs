//! Average Precision (AP@IoU) evaluation for BEV object detection.
//!
//! This is the metric of the paper's Table I: detections are greedily
//! matched to ground truth in descending confidence order; a detection is a
//! true positive when its BEV IoU with an unmatched ground-truth box
//! reaches the threshold (0.5 / 0.7). AP is the area under the
//! interpolated precision-recall curve (all-point interpolation).
//! Range bands (`0–30`, `30–50`, `50–100` m) restrict both ground truth and
//! detections by distance from the ego sensor.

use crate::detector::Detection;
use bba_geometry::Box3;

/// A ground-truth object for evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthBox {
    /// The true box, in the same frame as the detections being evaluated.
    pub box3: Box3,
}

/// A distance band `[min, max)` from the ego sensor, in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeBand {
    /// Inclusive lower bound (m).
    pub min: f64,
    /// Exclusive upper bound (m).
    pub max: f64,
}

impl RangeBand {
    /// The paper's Table I bands plus "Overall".
    pub fn table1_bands() -> [(&'static str, RangeBand); 4] {
        [
            ("Overall", RangeBand { min: 0.0, max: 100.0 }),
            ("0-30m", RangeBand { min: 0.0, max: 30.0 }),
            ("30-50m", RangeBand { min: 30.0, max: 50.0 }),
            ("50-100m", RangeBand { min: 50.0, max: 100.0 }),
        ]
    }

    /// True when a box centre falls inside the band.
    pub fn contains(&self, b: &Box3) -> bool {
        let r = b.center.xy().norm();
        r >= self.min && r < self.max
    }
}

/// Result of an AP evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApResult {
    /// Average precision in `[0, 1]`.
    pub ap: f64,
    /// Number of true positives at the end of the sweep.
    pub true_positives: usize,
    /// Number of false positives.
    pub false_positives: usize,
    /// Number of ground-truth boxes considered.
    pub ground_truth: usize,
}

/// Accumulates detections/ground truth over many frames, then computes AP.
///
/// # Example
///
/// ```
/// use bba_detect::{average_precision, Detection, GroundTruthBox};
/// use bba_geometry::{Box3, Vec3};
///
/// let gt_box = Box3::new(Vec3::new(10.0, 0.0, 0.8), Vec3::new(4.5, 1.9, 1.6), 0.0);
/// let gt = vec![GroundTruthBox { box3: gt_box }];
/// let dets = vec![Detection { box3: gt_box, confidence: 0.9, truth: None }];
/// let r = average_precision(&[(dets, gt)], 0.5);
/// assert_eq!(r.ap, 1.0);
/// ```
pub fn average_precision(
    frames: &[(Vec<Detection>, Vec<GroundTruthBox>)],
    iou_threshold: f64,
) -> ApResult {
    // Collect per-detection (confidence, is_tp) over all frames.
    let mut scored: Vec<(f64, bool)> = Vec::new();
    let mut total_gt = 0usize;

    for (dets, gts) in frames {
        total_gt += gts.len();
        let mut taken = vec![false; gts.len()];
        // Descending confidence within the frame.
        let mut order: Vec<usize> = (0..dets.len()).collect();
        order.sort_by(|&a, &b| dets[b].confidence.total_cmp(&dets[a].confidence));
        for &di in &order {
            let det = &dets[di];
            let mut best_iou = 0.0;
            let mut best_j = None;
            for (j, gt) in gts.iter().enumerate() {
                if taken[j] {
                    continue;
                }
                let iou = det.box3.bev_iou(&gt.box3);
                if iou > best_iou {
                    best_iou = iou;
                    best_j = Some(j);
                }
            }
            if best_iou >= iou_threshold {
                taken[best_j.unwrap()] = true;
                scored.push((det.confidence, true));
            } else {
                scored.push((det.confidence, false));
            }
        }
    }

    if total_gt == 0 {
        return ApResult {
            ap: 0.0,
            true_positives: 0,
            false_positives: scored.len(),
            ground_truth: 0,
        };
    }

    // Global descending-confidence sweep.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut recalls = Vec::with_capacity(scored.len());
    let mut precisions = Vec::with_capacity(scored.len());
    for &(_, is_tp) in &scored {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        recalls.push(tp as f64 / total_gt as f64);
        precisions.push(tp as f64 / (tp + fp) as f64);
    }

    // All-point interpolation: make precision monotone non-increasing from
    // the right, then integrate over recall steps.
    for i in (0..precisions.len().saturating_sub(1)).rev() {
        if precisions[i] < precisions[i + 1] {
            precisions[i] = precisions[i + 1];
        }
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for i in 0..recalls.len() {
        ap += (recalls[i] - prev_recall) * precisions[i];
        prev_recall = recalls[i];
    }

    ApResult { ap, true_positives: tp, false_positives: fp, ground_truth: total_gt }
}

/// Band-filtered AP: keeps only detections and ground truth whose centres
/// fall in `band`, then evaluates.
pub fn evaluate_detections(
    frames: &[(Vec<Detection>, Vec<GroundTruthBox>)],
    iou_threshold: f64,
    band: RangeBand,
) -> ApResult {
    let filtered: Vec<(Vec<Detection>, Vec<GroundTruthBox>)> = frames
        .iter()
        .map(|(dets, gts)| {
            (
                dets.iter().filter(|d| band.contains(&d.box3)).copied().collect(),
                gts.iter().filter(|g| band.contains(&g.box3)).copied().collect(),
            )
        })
        .collect();
    average_precision(&filtered, iou_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_geometry::Vec3;

    fn car_at(x: f64, y: f64) -> Box3 {
        Box3::new(Vec3::new(x, y, 0.8), Vec3::new(4.5, 1.9, 1.6), 0.0)
    }

    fn det(b: Box3, conf: f64) -> Detection {
        Detection { box3: b, confidence: conf, truth: None }
    }

    #[test]
    fn perfect_detections_have_unit_ap() {
        let gts = vec![
            GroundTruthBox { box3: car_at(10.0, 0.0) },
            GroundTruthBox { box3: car_at(20.0, 5.0) },
        ];
        let dets = vec![det(car_at(10.0, 0.0), 0.9), det(car_at(20.0, 5.0), 0.8)];
        let r = average_precision(&[(dets, gts)], 0.7);
        assert!((r.ap - 1.0).abs() < 1e-12);
        assert_eq!(r.true_positives, 2);
        assert_eq!(r.false_positives, 0);
    }

    #[test]
    fn missed_objects_cap_recall() {
        let gts = vec![
            GroundTruthBox { box3: car_at(10.0, 0.0) },
            GroundTruthBox { box3: car_at(50.0, 0.0) },
        ];
        let dets = vec![det(car_at(10.0, 0.0), 0.9)];
        let r = average_precision(&[(dets, gts)], 0.5);
        assert!((r.ap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn false_positives_reduce_precision() {
        let gts = vec![GroundTruthBox { box3: car_at(10.0, 0.0) }];
        // FP ranked above the TP: precision at the TP is 1/2.
        let dets = vec![det(car_at(40.0, 20.0), 0.95), det(car_at(10.0, 0.0), 0.9)];
        let r = average_precision(&[(dets, gts)], 0.5);
        assert!((r.ap - 0.5).abs() < 1e-12);
        // FP ranked below the TP: AP stays 1.0.
        let gts = vec![GroundTruthBox { box3: car_at(10.0, 0.0) }];
        let dets = vec![det(car_at(40.0, 20.0), 0.3), det(car_at(10.0, 0.0), 0.9)];
        let r = average_precision(&[(dets, gts)], 0.5);
        assert!((r.ap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_box_fails_high_iou_threshold() {
        let gts = vec![GroundTruthBox { box3: car_at(10.0, 0.0) }];
        // 1 m lateral shift: IoU ≈ 0.31 — TP at 0.3 threshold, FP at 0.5.
        let dets = vec![det(car_at(10.0, 1.0), 0.9)];
        let r_lo = average_precision(&[(dets.clone(), gts.clone())], 0.3);
        let r_hi = average_precision(&[(dets, gts)], 0.5);
        assert_eq!(r_lo.true_positives, 1);
        assert_eq!(r_hi.true_positives, 0);
    }

    #[test]
    fn duplicate_detections_count_once() {
        let gts = vec![GroundTruthBox { box3: car_at(10.0, 0.0) }];
        let dets = vec![det(car_at(10.0, 0.0), 0.9), det(car_at(10.0, 0.05), 0.85)];
        let r = average_precision(&[(dets, gts)], 0.5);
        assert_eq!(r.true_positives, 1);
        assert_eq!(r.false_positives, 1);
    }

    #[test]
    fn multi_frame_accumulation() {
        let f1 =
            (vec![det(car_at(10.0, 0.0), 0.9)], vec![GroundTruthBox { box3: car_at(10.0, 0.0) }]);
        let f2 = (Vec::new(), vec![GroundTruthBox { box3: car_at(15.0, 0.0) }]);
        let r = average_precision(&[f1, f2], 0.5);
        assert_eq!(r.ground_truth, 2);
        assert!((r.ap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ground_truth_gives_zero_ap() {
        let r = average_precision(&[(vec![det(car_at(1.0, 0.0), 0.5)], Vec::new())], 0.5);
        assert_eq!(r.ap, 0.0);
        assert_eq!(r.ground_truth, 0);
    }

    #[test]
    fn range_bands_partition() {
        let bands = RangeBand::table1_bands();
        let near = car_at(10.0, 0.0);
        let mid = car_at(40.0, 0.0);
        let far = car_at(70.0, 0.0);
        assert!(bands[1].1.contains(&near) && !bands[1].1.contains(&mid));
        assert!(bands[2].1.contains(&mid) && !bands[2].1.contains(&far));
        assert!(bands[3].1.contains(&far));
        for b in [near, mid, far] {
            assert!(bands[0].1.contains(&b));
        }
    }

    #[test]
    fn band_filtering_restricts_evaluation() {
        let gts = vec![
            GroundTruthBox { box3: car_at(10.0, 0.0) },
            GroundTruthBox { box3: car_at(60.0, 0.0) },
        ];
        let dets = vec![det(car_at(10.0, 0.0), 0.9)];
        let near = evaluate_detections(
            &[(dets.clone(), gts.clone())],
            0.5,
            RangeBand { min: 0.0, max: 30.0 },
        );
        assert!((near.ap - 1.0).abs() < 1e-12);
        let far = evaluate_detections(&[(dets, gts)], 0.5, RangeBand { min: 50.0, max: 100.0 });
        assert_eq!(far.ap, 0.0);
        assert_eq!(far.ground_truth, 1);
    }
}
