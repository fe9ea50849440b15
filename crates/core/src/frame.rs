//! The transmissible perception frame: BV image + BEV boxes.
//!
//! This is precisely what the other car sends the ego car in the paper's
//! protocol (§III "Pose Recovery"): its BV image `B_other` and its detected
//! object bounding boxes projected to BEV rectangles `B_other` — not the
//! raw point cloud, which is the bandwidth argument for the whole design.

use bba_bev::BevImage;
use bba_geometry::BevBox;

/// A detected BEV box with its confidence, as transmitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameBox {
    /// The BEV rectangle (sensor frame).
    pub bev: BevBox,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
}

/// One car's transmissible perception payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionFrame {
    bev: BevImage,
    boxes: Vec<FrameBox>,
}

impl PerceptionFrame {
    /// Assembles a frame from a rasterised BV image and BEV boxes.
    pub fn new(bev: BevImage, boxes: Vec<FrameBox>) -> Self {
        PerceptionFrame { bev, boxes }
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
