//! The global place descriptor: a compact, rotation-tolerant signature
//! of one BV frame.
//!
//! Construction follows BVMatch's insight that the Log-Gabor machinery
//! stage 1 already runs contains everything a *global* scene signature
//! needs — but aggregates it as a **keypoint constellation** rather than
//! a pooled statistic. Pooled orientation/ring histograms turn out to be
//! nearly identical for every scan of the same world class (every
//! suburban corridor has the same mix of edges), so they rank overlapping
//! pairs barely better than chance. What distinguishes *this* place from
//! one 150 m down the road is the specific spatial arrangement of its
//! strongest structure. Starting from the [`MaxIndexMap`] (per-pixel
//! winning orientation + amplitude):
//!
//! 1. **Keypoints** — the image is tiled into `nms_cell × nms_cell`
//!    blocks; each block keeps its strongest significant pixel (see
//!    [`MaxIndexMap::significance_threshold`]), and the `keypoints`
//!    strongest block winners survive. This non-maximum suppression
//!    spreads the constellation over the scene instead of letting one
//!    bright building soak up the budget.
//! 2. **Pair geometry histogram** — every keypoint pair votes into a
//!    histogram over `(distance, orientation difference, baseline-
//!    relative orientations)`: the pair's pixel distance (linearly
//!    splatted over `distance_bins` to tolerate rasterisation jitter),
//!    the circular difference of the two winning orientations, and the
//!    two orientations expressed *relative to the pair's baseline
//!    direction* (a symmetric `relative_bins × relative_bins` pair).
//!    Every one of these features is invariant to rigid motion of the
//!    scene: distances and relative angles survive rotation and
//!    translation exactly, so the descriptor is rotation-tolerant by
//!    construction — exactly so for 90° grid rotations, approximately
//!    for arbitrary angles (keypoint re-rasterisation moves votes to
//!    neighbouring bins, which the distance splat absorbs).
//! 3. The histogram is L2-normalised, making the dot product a cosine
//!    similarity.
//!
//! The logical histogram is `distance_bins × (N_o/2 + 1) ×
//! relative_bins²`-dimensional (24 192 with defaults) but only a few
//! thousand bins are ever hit by `keypoints·(keypoints−1)/2` pairs, so
//! it is stored sparsely — a few tens of kilobytes per frame, cheap
//! enough to ship alongside every pose submission and to compare
//! against an entire fleet (similarity is a sorted merge over the
//! non-zeros, cheaper than a dense dot product).

use bba_signal::MaxIndexMap;

/// Tuning for descriptor extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceConfig {
    /// Strongest block winners kept as the constellation. More keypoints
    /// dilute the signature with unstable weak structure; fewer starve
    /// the pair histogram.
    pub keypoints: usize,
    /// Non-maximum-suppression block size in pixels: each
    /// `nms_cell × nms_cell` tile contributes at most one keypoint.
    pub nms_cell: usize,
    /// Pixels below this fraction of the maximum amplitude are treated
    /// as empty (see [`MaxIndexMap::significance_threshold`]).
    pub significance_fraction: f64,
    /// Bins the pair-distance axis is split into (the range is the
    /// larger image dimension, so bins scale with resolution).
    pub distance_bins: usize,
    /// Bins for each baseline-relative orientation (the aux axis is the
    /// symmetric `relative_bins × relative_bins` pair).
    pub relative_bins: usize,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig {
            keypoints: 56,
            nms_cell: 6,
            significance_fraction: 0.05,
            distance_bins: 96,
            relative_bins: 6,
        }
    }
}

/// A fixed-length global place descriptor (see the [module docs](self)).
///
/// The vector lives in a `dims`-dimensional space fixed by the config
/// and the filter bank; only the non-zero entries are stored, sorted by
/// bin index and L2-normalised.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceDescriptor {
    /// Logical dimensionality: `distance_bins × (N_o/2 + 1) × relative_bins²`.
    dims: usize,
    /// Bin indices of the non-zero entries, strictly increasing.
    indices: Vec<u32>,
    /// Values of the non-zero entries (unit L2 norm overall).
    values: Vec<f64>,
}

/// One selected constellation keypoint.
struct Keypoint {
    u: f64,
    v: f64,
    orient: u8,
}

impl PlaceDescriptor {
    /// Extracts the descriptor from a computed [`MaxIndexMap`].
    ///
    /// This is the no-recomputation path: a frame that already ran
    /// stage 1 (or any caller holding a MIM) reuses it directly instead
    /// of re-filtering the BV image.
    pub fn from_mim(mim: &MaxIndexMap, config: &PlaceConfig) -> PlaceDescriptor {
        let n_o = mim.num_orientations.max(1);
        let diff_bins = n_o / 2 + 1;
        let rel_bins = config.relative_bins.max(1);
        let dist_bins = config.distance_bins.max(1);
        let aux = diff_bins * rel_bins * rel_bins;
        let dims = dist_bins * aux;

        let kps = select_keypoints(mim, config);
        let max_dist = mim.width().max(mim.height()) as f64;
        let mut hist = vec![0.0f64; dims];
        for (i, a) in kps.iter().enumerate() {
            for b in kps.iter().skip(i + 1) {
                let (du, dv) = (b.u - a.u, b.v - a.v);
                let d = (du * du + dv * dv).sqrt();
                if d <= 0.0 || d >= max_dist {
                    continue;
                }
                // Baseline direction in orientation-index units
                // (orientations are π-periodic, index width π/N_o).
                let theta = dv.atan2(du).rem_euclid(std::f64::consts::PI);
                let tbin = theta / std::f64::consts::PI * n_o as f64;
                let rel = |o: u8| -> usize {
                    let r = (o as f64 - tbin).rem_euclid(n_o as f64);
                    ((r / (n_o as f64 / rel_bins as f64)) as usize).min(rel_bins - 1)
                };
                // Symmetric pair of baseline-relative orientations: the
                // pair is unordered, so sort the two bins.
                let (r1, r2) = (rel(a.orient), rel(b.orient));
                let (lo, hi) = (r1.min(r2), r1.max(r2));
                // Circular orientation difference, 0..=N_o/2.
                let diff = (a.orient as i32 - b.orient as i32).rem_euclid(n_o as i32);
                let od = diff.min(n_o as i32 - diff) as usize;
                let aux_idx = (od * rel_bins + lo) * rel_bins + hi;
                // Linear splat over distance to tolerate ±1 px jitter.
                let df = d / max_dist * dist_bins as f64 - 0.5;
                let b0 = df.floor();
                let frac = df - b0;
                let b0 = b0 as isize;
                for (bin, w) in [(b0, 1.0 - frac), (b0 + 1, frac)] {
                    if bin >= 0 && (bin as usize) < dist_bins && w > 0.0 {
                        hist[bin as usize * aux + aux_idx] += w;
                    }
                }
            }
        }

        let norm = hist.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        if norm > 0.0 {
            for (i, &v) in hist.iter().enumerate() {
                if v > 0.0 {
                    indices.push(i as u32);
                    values.push(v / norm);
                }
            }
        }
        PlaceDescriptor { dims, indices, values }
    }

    /// Logical dimensionality of the descriptor space.
    pub fn len(&self) -> usize {
        self.dims
    }

    /// Stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zero entries as `(bin index, value)`, sorted by index.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// True when the frame had no significant energy (no entries).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Cosine similarity in `[0, 1]` (both vectors are non-negative and
    /// unit-length); a sorted merge over the non-zeros. Zero when either
    /// descriptor is empty or the dimensionalities disagree.
    pub fn similarity(&self, other: &PlaceDescriptor) -> f64 {
        if self.dims != other.dims {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        dot.clamp(0.0, 1.0)
    }

    /// Euclidean distance between the unit vectors: `√(2 − 2·similarity)`,
    /// in `[0, √2]`. Dimension-mismatched or empty descriptors are
    /// maximally distant.
    pub fn distance(&self, other: &PlaceDescriptor) -> f64 {
        (2.0 - 2.0 * self.similarity(other)).max(0.0).sqrt()
    }
}

/// Non-maximum-suppressed constellation selection: one winner per
/// `nms_cell × nms_cell` block, strongest `keypoints` winners kept.
/// Fully deterministic: block winners favour the first pixel in row
/// order on amplitude ties, and the global cut sorts by `(amplitude,
/// row, column)`.
fn select_keypoints(mim: &MaxIndexMap, config: &PlaceConfig) -> Vec<Keypoint> {
    let (w, h) = (mim.width(), mim.height());
    let cell = config.nms_cell.max(1);
    let thr = mim.significance_threshold(config.significance_fraction);
    let (cw, ch) = (w.div_ceil(cell), h.div_ceil(cell));
    // (amp, v, u) per block, amp < 0 meaning empty.
    let mut best = vec![(-1.0f64, 0usize, 0usize); cw * ch];
    for v in 0..h {
        for u in 0..w {
            let a = mim.amplitude[(u, v)];
            if a <= 0.0 || a < thr {
                continue;
            }
            let slot = &mut best[(v / cell) * cw + u / cell];
            if a > slot.0 {
                *slot = (a, v, u);
            }
        }
    }
    let mut winners: Vec<(f64, usize, usize)> = best.into_iter().filter(|s| s.0 > 0.0).collect();
    winners.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    winners.truncate(config.keypoints.max(1));
    winners
        .into_iter()
        .map(|(_, v, u)| Keypoint { u: u as f64, v: v as f64, orient: mim.index[(u, v)] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_signal::{Grid, LogGaborConfig};

    fn scene(seed: u64, size: usize) -> Grid<f64> {
        // A deterministic scatter of bright structure.
        let mut img = Grid::new(size, size, 0.0);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..40 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state as usize >> 3) % size;
            let v = (state as usize >> 23) % size;
            for d in 0..6usize.min(size - u.max(v)) {
                img[(u + d, v)] = 5.0;
            }
        }
        img
    }

    #[test]
    fn descriptor_shape_and_normalisation() {
        let mim = MaxIndexMap::compute(&scene(3, 64), &LogGaborConfig::default());
        let d = PlaceDescriptor::from_mim(&mim, &PlaceConfig::default());
        // 96 distance bins × (12/2 + 1) orientation diffs × 6² relative pairs.
        assert_eq!(d.len(), 96 * 7 * 36);
        assert!(!d.is_empty());
        assert!(d.nnz() > 0 && d.nnz() < d.len());
        let norm: f64 = d.entries().map(|(_, v)| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9, "descriptor must be unit-length, got {norm}");
        assert!((d.similarity(&d) - 1.0).abs() < 1e-9);
        assert!(d.distance(&d) < 1e-6);
    }

    #[test]
    fn entries_are_sorted_and_positive() {
        let mim = MaxIndexMap::compute(&scene(9, 64), &LogGaborConfig::default());
        let d = PlaceDescriptor::from_mim(&mim, &PlaceConfig::default());
        let entries: Vec<(u32, f64)> = d.entries().collect();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "indices must strictly increase");
        assert!(entries.iter().all(|&(i, v)| v > 0.0 && (i as usize) < d.len()));
    }

    #[test]
    fn empty_frame_yields_empty_descriptor() {
        let mim = MaxIndexMap::compute(&Grid::new(32, 32, 0.0), &LogGaborConfig::default());
        let d = PlaceDescriptor::from_mim(&mim, &PlaceConfig::default());
        assert!(d.is_empty());
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.similarity(&d), 0.0);
        assert!((d.distance(&d) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_dimensions_are_maximally_distant() {
        let mim = MaxIndexMap::compute(&scene(7, 32), &LogGaborConfig::default());
        let a = PlaceDescriptor::from_mim(&mim, &PlaceConfig::default());
        let b = PlaceDescriptor::from_mim(
            &mim,
            &PlaceConfig { distance_bins: 48, ..PlaceConfig::default() },
        );
        assert_eq!(a.similarity(&b), 0.0);
        assert!((a.distance(&b) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn keypoint_cap_and_nms_are_respected() {
        let mim = MaxIndexMap::compute(&scene(11, 64), &LogGaborConfig::default());
        let cfg = PlaceConfig { keypoints: 8, ..PlaceConfig::default() };
        let kps = select_keypoints(&mim, &cfg);
        assert!(kps.len() <= 8);
        for (i, a) in kps.iter().enumerate() {
            for b in kps.iter().skip(i + 1) {
                let same_cell = (a.u as usize / cfg.nms_cell) == (b.u as usize / cfg.nms_cell)
                    && (a.v as usize / cfg.nms_cell) == (b.v as usize / cfg.nms_cell);
                assert!(!same_cell, "two keypoints share an NMS block");
            }
        }
    }
}
