//! The per-frame feature cache changes no result bit.
//!
//! `PerceptionFrame` caches its Log-Gabor MIM, keypoints, patch samples
//! and hypothesis-0 descriptors under the id of the engine that built
//! them. Every property here compares a recovery (or place descriptor)
//! computed on frames whose cache was already filled — by another
//! recovery, a place descriptor, another engine, or a concurrent batch
//! item — against the same computation on fresh frames, exactly
//! (`to_bits`), at thread widths 1–8.

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, RecoverError, Recovery};
use bba_dataset::{Dataset, DatasetConfig};
use bba_obs::Recorder;
use bba_place::{PlaceConfig, PlaceDescriptor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Everything a recovery reports, floats as bits.
type Fingerprint = Result<([u64; 3], usize, usize, usize, (usize, usize)), RecoverError>;

fn fingerprint(r: Result<Recovery, RecoverError>) -> Fingerprint {
    r.map(|r| {
        let t = r.transform.translation();
        (
            [r.transform.yaw().to_bits(), t.x.to_bits(), t.y.to_bits()],
            r.inliers_bv(),
            r.inliers_box(),
            r.bv.matches,
            r.bv.keypoints,
        )
    })
}

fn recover(engine: &BbAlign, ego: &PerceptionFrame, other: &PerceptionFrame) -> Fingerprint {
    fingerprint(engine.recover(ego, other, &mut StdRng::seed_from_u64(17)))
}

fn place_bits(d: &PlaceDescriptor) -> Vec<(u32, u64)> {
    d.entries().map(|(i, v)| (i, v.to_bits())).collect()
}

/// A frame with the same content and an empty cache.
fn fresh(frame: &PerceptionFrame) -> PerceptionFrame {
    PerceptionFrame::new(frame.bev().clone(), frame.boxes().to_vec())
}

/// A dataset pair that recovers, and one with a featureless other frame
/// (an error variant).
fn frame_pairs(engine: &BbAlign) -> Vec<(PerceptionFrame, PerceptionFrame)> {
    let pair = Dataset::new(DatasetConfig::test_small(), 5).next_pair().expect("a pair");
    let frame = |car: &bba_dataset::AgentFrame| {
        engine.frame_from_parts(
            car.scan.points().iter().map(|p| p.position),
            car.detections.iter().map(|d| (d.box3, d.confidence)),
        )
    };
    let (ego, other) = (frame(&pair.ego), frame(&pair.other));
    let empty = engine.frame_from_parts(std::iter::empty(), std::iter::empty());
    vec![(ego.clone(), other), (ego, empty)]
}

#[test]
fn prefilled_features_recover_bit_identically_at_every_width() {
    let engine = BbAlign::new(BbAlignConfig::test_small());
    let place = PlaceConfig::default();
    let pairs = frame_pairs(&engine);
    let reference: Vec<Fingerprint> = bba_par::with_threads(1, || {
        pairs.iter().map(|(e, o)| recover(&engine, &fresh(e), &fresh(o))).collect()
    });
    assert!(reference[0].is_ok() && reference[1].is_err(), "{reference:?}");
    for threads in 1..=8 {
        bba_par::with_threads(threads, || {
            for ((ego, other), want) in pairs.iter().zip(&reference) {
                let (e, o) = (fresh(ego), fresh(other));
                engine.place_descriptor(&e, &place);
                engine.place_descriptor(&o, &place);
                assert_eq!(&recover(&engine, &e, &o), want, "after place, {threads} threads");

                // The swapped recovery fills both frames' full features.
                let (e, o) = (fresh(ego), fresh(other));
                let _ = engine.recover(&o, &e, &mut StdRng::seed_from_u64(99));
                assert_eq!(&recover(&engine, &e, &o), want, "after swap, {threads} threads");
            }
        });
    }
}

#[test]
fn place_descriptor_is_unchanged_by_a_recovery() {
    let engine = BbAlign::new(BbAlignConfig::test_small());
    let place = PlaceConfig::default();
    let (ego, other) = frame_pairs(&engine).swap_remove(0);
    let (e, o) = (fresh(&ego), fresh(&other));
    let before = place_bits(&engine.place_descriptor(&e, &place));
    engine.recover(&e, &o, &mut StdRng::seed_from_u64(3)).expect("pair recovers");
    assert_eq!(place_bits(&engine.place_descriptor(&e, &place)), before);
    // A frame whose cache a recovery filled first gives the same bits.
    let (e, o) = (fresh(&ego), fresh(&other));
    engine.recover(&e, &o, &mut StdRng::seed_from_u64(3)).expect("pair recovers");
    assert_eq!(place_bits(&engine.place_descriptor(&e, &place)), before);
}

#[test]
fn engines_with_different_configs_never_share_features() {
    let small = BbAlign::new(BbAlignConfig::test_small());
    let mut cfg = BbAlignConfig::test_small();
    cfg.descriptor.patch_size = 24;
    let other_engine = BbAlign::new(cfg);
    let mut disagreed = false;
    for (ego, other) in frame_pairs(&small) {
        let want_small = recover(&small, &fresh(&ego), &fresh(&other));
        let want_other = recover(&other_engine, &fresh(&ego), &fresh(&other));
        disagreed |= want_small != want_other;
        // Filled by one engine, then read by the other, in both orders;
        // the filling engine's cache is neither overwritten nor misread.
        let runs = [(&small, &want_small), (&other_engine, &want_other)];
        for (first, second) in [(runs[0], runs[1]), (runs[1], runs[0])] {
            let (e, o) = (fresh(&ego), fresh(&other));
            assert_eq!(&recover(first.0, &e, &o), first.1);
            assert_eq!(&recover(second.0, &e, &o), second.1);
            assert_eq!(&recover(first.0, &e, &o), first.1);
        }
    }
    assert!(disagreed, "the configs must disagree somewhere for the test to bite");
}

#[test]
fn concurrent_items_sharing_a_frame_build_it_once() {
    let recorder = Recorder::enabled();
    let engine = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
    let (ego, other) = frame_pairs(&engine).swap_remove(0);
    let shared = Arc::new(fresh(&ego));
    let others: Vec<PerceptionFrame> = (0..8).map(|_| fresh(&other)).collect();
    let want = recover(&engine, &fresh(&ego), &fresh(&other));
    let snap = recorder.snapshot();
    let built_before = snap.counter("features.built").unwrap_or(0);
    let reused_before = snap.counter("features.reused").unwrap_or(0);

    let got =
        bba_par::with_threads(8, || bba_par::par_map(&others, |o| recover(&engine, &shared, o)));
    assert!(got.iter().all(|g| g == &want), "{got:?} vs {want:?}");
    let snap = recorder.snapshot();
    // One build for the shared frame, one per distinct other frame; the
    // seven remaining fetches of the shared frame are reuses.
    assert_eq!(snap.counter("features.built").unwrap_or(0) - built_before, 1 + 8);
    assert_eq!(snap.counter("features.reused").unwrap_or(0) - reused_before, 7);
}

#[test]
fn stage1_timing_reads_zero_for_reused_features() {
    let engine = BbAlign::new(BbAlignConfig::test_small());
    let (ego, other) = frame_pairs(&engine).swap_remove(0);
    let (e, o) = (fresh(&ego), fresh(&other));
    let mut rng = StdRng::seed_from_u64(1);
    let (_, cold) = engine.match_bv_timed(&e, &o, &mut rng).expect("pair matches");
    assert!(cold.mim_ms > 0.0 && cold.detect_ms > 0.0 && cold.describe_ms > 0.0, "{cold:?}");
    let (_, warm) = engine.match_bv_timed(&e, &o, &mut rng).expect("pair matches");
    assert_eq!((warm.mim_ms, warm.detect_ms), (0.0, 0.0), "{warm:?}");
}
