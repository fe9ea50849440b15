//! The transmissible perception frame: BV image + BEV boxes.
//!
//! This is precisely what the other car sends the ego car in the paper's
//! protocol (§III "Pose Recovery"): its BV image `B_other` and its detected
//! object bounding boxes projected to BEV rectangles `B_other` — not the
//! raw point cloud, which is the bandwidth argument for the whole design.
//!
//! A frame also carries a private cache of its pair-invariant stage-1
//! features (`FrameFeatures`), so a frame that takes part in several
//! recoveries and a place descriptor pays for its Log-Gabor MIM,
//! keypoints and patch samples once (see `BbAlign::match_bv`).

use bba_bev::BevImage;
use bba_features::{DescriptorSet, PatchSamples};
use bba_geometry::BevBox;
use bba_signal::MaxIndexMap;
use std::sync::{Arc, OnceLock};

/// A detected BEV box with its confidence, as transmitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameBox {
    /// The BEV rectangle (sensor frame).
    pub bev: BevBox,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
}

/// One car's transmissible perception payload.
///
/// `Clone` carries the feature cache along (the clone has the same BV
/// image, so the same features); equality ignores it.
#[derive(Debug, Clone)]
pub struct PerceptionFrame {
    bev: BevImage,
    boxes: Vec<FrameBox>,
    /// The features of `bev`, keyed by the id of the engine that built
    /// them: features depend on the engine's configuration, so another
    /// engine never reads or overwrites them.
    features: OnceLock<(u64, Arc<FrameFeatures>)>,
}

impl PartialEq for PerceptionFrame {
    fn eq(&self, other: &Self) -> bool {
        self.bev == other.bev && self.boxes == other.boxes
    }
}

/// The pair-invariant stage-1 work on one frame's BV image: a pure
/// function of the image and the engine configuration, built once per
/// frame and shared by every recovery and place descriptor it feeds.
#[derive(Debug)]
pub(crate) struct FrameFeatures {
    /// The Log-Gabor maximum-index map.
    pub(crate) mim: MaxIndexMap,
    /// Keypoints, samples and descriptors, built on the first recovery
    /// (a place descriptor needs only the MIM).
    pub(crate) stage1: OnceLock<Stage1Features>,
}

/// The keypoint side of [`FrameFeatures`].
#[derive(Debug)]
pub(crate) struct Stage1Features {
    /// Number of keypoints detected.
    pub(crate) keypoints: usize,
    /// The hypothesis-invariant patch samples of those keypoints.
    pub(crate) samples: PatchSamples,
    /// The samples re-binned at rotation hypothesis 0.
    pub(crate) set0: DescriptorSet,
}

impl PerceptionFrame {
    /// Assembles a frame from a rasterised BV image and BEV boxes.
    pub fn new(bev: BevImage, boxes: Vec<FrameBox>) -> Self {
        PerceptionFrame { bev, boxes, features: OnceLock::new() }
    }

    /// The features engine `engine` keeps on this frame, built with
    /// `build` on first use. A frame already holding another engine's
    /// features gets them built afresh and not stored. Concurrent callers
    /// block until the first build finishes. Returns whether `build` ran.
    pub(crate) fn features_or_build(
        &self,
        engine: u64,
        build: impl FnOnce() -> FrameFeatures,
    ) -> (Arc<FrameFeatures>, bool) {
        let mut build = Some(build);
        let (owner, features) = self
            .features
            .get_or_init(|| (engine, Arc::new(build.take().expect("init runs once")())));
        match build.take() {
            None => (Arc::clone(features), true),
            Some(_) if *owner == engine => (Arc::clone(features), false),
            Some(build) => (Arc::new(build()), true),
        }
    }

    /// The BV image.
    pub fn bev(&self) -> &BevImage {
        &self.bev
    }

    /// The detected boxes.
    pub fn boxes(&self) -> &[FrameBox] {
        &self.boxes
    }

    /// Boxes with confidence at least `min_confidence`.
    pub fn confident_boxes(&self, min_confidence: f64) -> impl Iterator<Item = &FrameBox> {
        self.boxes.iter().filter(move |b| b.confidence >= min_confidence)
    }

    /// Approximate transmitted size in bytes: sparse BV image plus
    /// 24 bytes per box (2×f32 centre, 2×f32 extents, f32 yaw, f32
    /// confidence).
    pub fn wire_size_bytes(&self) -> usize {
        self.bev.wire_size_bytes() + self.boxes.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_bev::BevConfig;
    use bba_geometry::{Vec2, Vec3};

    fn sample_frame() -> PerceptionFrame {
        let cfg = BevConfig::test_small();
        let bev =
            BevImage::height_map(vec![Vec3::new(1.0, 2.0, 5.0), Vec3::new(-4.0, 3.0, 2.0)], &cfg);
        let boxes = vec![
            FrameBox {
                bev: BevBox::new(Vec2::new(10.0, 0.0), Vec2::new(4.5, 1.9), 0.1),
                confidence: 0.9,
            },
            FrameBox {
                bev: BevBox::new(Vec2::new(-5.0, 8.0), Vec2::new(4.2, 1.8), -0.4),
                confidence: 0.2,
            },
        ];
        PerceptionFrame::new(bev, boxes)
    }

    #[test]
    fn accessors_and_filtering() {
        let f = sample_frame();
        assert_eq!(f.boxes().len(), 2);
        assert_eq!(f.confident_boxes(0.5).count(), 1);
        assert_eq!(f.confident_boxes(0.0).count(), 2);
    }

    #[test]
    fn wire_size_combines_image_and_boxes() {
        let f = sample_frame();
        assert_eq!(f.wire_size_bytes(), f.bev().wire_size_bytes() + 2 * 24);
        // Two occupied cells → 10 bytes of image payload.
        assert_eq!(f.bev().wire_size_bytes(), 10);
    }
}
