//! Pins the `--json PATH` record dump: keys, order and value shapes of
//! [`PairRecord::to_json`]. The expected text is the output of the
//! derive-based serializer these hand-written encoders replaced.

use bba_bench::cli::Options;
use bba_bench::harness::{maybe_dump_json, PairRecord, RecoveryStats};
use bba_obs::json::to_string_pretty;

fn failed() -> PairRecord {
    PairRecord { index: 3, distance: 42.5, common_cars: 2, bb: None, vips: None }
}

fn solved() -> PairRecord {
    PairRecord {
        index: 7,
        distance: 18.0,
        common_cars: 5,
        bb: Some(RecoveryStats {
            dt: 0.1 + 0.2,
            dr: 0.003490658503988659,
            stage1_dt: 1.25e-7,
            stage1_dr: f64::NAN,
            inliers_bv: 31,
            inliers_box: 0,
            box_pairs: 4,
            success: true,
            elapsed_ms: 125.0,
        }),
        vips: Some((2.0, -0.75)),
    }
}

#[test]
fn stage1_failure_dumps_null_bb_and_vips() {
    let expected = r#"{
  "index": 3,
  "distance": 42.5,
  "common_cars": 2,
  "bb": null,
  "vips": null
}"#;
    assert_eq!(to_string_pretty(&failed().to_json()), expected);
}

#[test]
fn recovery_dumps_stats_object_and_vips_pair() {
    let expected = r#"{
  "index": 7,
  "distance": 18.0,
  "common_cars": 5,
  "bb": {
    "dt": 0.30000000000000004,
    "dr": 0.003490658503988659,
    "stage1_dt": 0.000000125,
    "stage1_dr": null,
    "inliers_bv": 31,
    "inliers_box": 0,
    "box_pairs": 4,
    "success": true,
    "elapsed_ms": 125.0
  },
  "vips": [
    2.0,
    -0.75
  ]
}"#;
    assert_eq!(to_string_pretty(&solved().to_json()), expected);
}

#[test]
fn json_flag_writes_the_records_as_one_array() {
    let path = std::env::temp_dir().join(format!("bba_pair_records_{}.json", std::process::id()));
    let opts = Options {
        frames: 2,
        seed: 0,
        json: Some(path.clone()),
        threads: None,
        bev: None,
        pairs: None,
    };
    maybe_dump_json(&[failed(), solved()], &opts);
    let written = std::fs::read_to_string(&path).expect("--json file written");
    std::fs::remove_file(&path).ok();
    let expected = r#"[
  {
    "index": 3,
    "distance": 42.5,
    "common_cars": 2,
    "bb": null,
    "vips": null
  },
  {
    "index": 7,
    "distance": 18.0,
    "common_cars": 5,
    "bb": {
      "dt": 0.30000000000000004,
      "dr": 0.003490658503988659,
      "stage1_dt": 0.000000125,
      "stage1_dr": null,
      "inliers_bv": 31,
      "inliers_box": 0,
      "box_pairs": 4,
      "success": true,
      "elapsed_ms": 125.0
    },
    "vips": [
      2.0,
      -0.75
    ]
  }
]"#;
    assert_eq!(written, expected);
}
