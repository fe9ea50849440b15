//! The repository benchmark: one binary, two workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `README.md` beside this package for the metric table, the reasons
//! behind each workload, and the command that runs it all.
//!
//! Usage: `bba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

mod host;
mod inputs;
mod replay;
mod stats;
mod trace;
mod workloads;

use host::Fingerprint;
use stats::{interquartile_mean, mean, median, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{CountingAlloc, Tracer};
use workloads::{timed_phase, ColdPairs, PhaseLog, PlatoonFanout, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Construction + warm-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics: name, unit. Every one is reported on every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("poses_per_s", "1/s"),
    ("pose_latency_p50_ms", "ms"),
    ("pose_latency_tail_ms", "ms"),
    ("cpu_ms_per_pose", "ms"),
    ("success_rate", "share"),
    ("pose_err_t_p50_m", "m"),
    ("pose_err_r_iqm_deg", "deg"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Where a per-layer value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// The workload's own traced calls; the layer sweep when the workload
    /// never calls that layer.
    Run,
    /// The kernel replay on the workload's frames.
    Replay,
}

/// How raw per-layer samples reduce to one value.
#[derive(Clone, Copy)]
enum Reduce {
    /// Median span duration, scaled from ms by the factor.
    Span(&'static str, f64),
    /// Median of recorded samples.
    Median(&'static str),
    /// Mean of recorded samples.
    Mean(&'static str),
}

/// Per-layer metrics: name, unit, source, reduction.
const PER_LAYER: [(&str, &str, Source, Reduce); 34] = {
    use Reduce::{Mean, Median, Span};
    use Source::{Replay, Run};
    [
        ("bev.rasterize_ms", "ms", Run, Span("bev.rasterize", 1.0)),
        ("signal.mim_ms", "ms", Replay, Span("signal.mim", 1.0)),
        ("features.detect_ms", "ms", Replay, Span("features.detect", 1.0)),
        ("features.sample_ms", "ms", Replay, Span("features.sample", 1.0)),
        ("features.rebin_ms", "ms", Replay, Span("features.rebin", 1.0)),
        ("features.match_ms", "ms", Replay, Span("features.match", 1.0)),
        ("features.ransac_ms", "ms", Replay, Span("features.ransac", 1.0)),
        ("features.hypotheses_per_pair", "count", Replay, Mean("features.hypotheses_per_pair")),
        ("core.verify_ms", "ms", Replay, Span("core.verify", 1.0)),
        ("core.stage2_ms", "ms", Replay, Span("core.stage2", 1.0)),
        ("core.recover_ms", "ms", Replay, Span("core.recover", 1.0)),
        ("core.stage1_residue_ms", "ms", Replay, Median("core.stage1_residue_ms")),
        ("core.warm_hit_rate", "share", Run, Mean("core.warm_hit")),
        ("serve.warm_item_ms", "ms", Run, Median("serve.warm_item_ms")),
        ("serve.cold_item_ms", "ms", Run, Median("serve.cold_item_ms")),
        ("serve.batch_ms", "ms", Run, Span("serve.batch", 1.0)),
        ("serve.batch_size", "count", Run, Mean("serve.batch_size")),
        ("serve.worker_busy_share", "share", Run, Median("serve.worker_busy_share")),
        ("serve.submit_us", "us", Run, Span("serve.submit", 1e3)),
        ("serve.queue_wait_ms", "ms", Run, Median("serve.queue_wait_ms")),
        ("serve.shed_share", "share", Run, Mean("serve.shed_share")),
        ("place.extract_ms", "ms", Run, Span("place.extract", 1.0)),
        ("place.update_us", "us", Run, Span("place.update", 1e3)),
        ("place.query_ms", "ms", Run, Span("place.query", 1.0)),
        ("place.gated_share", "share", Run, Mean("place.gated_share")),
        ("wire.encode_us", "us", Run, Span("wire.encode", 1e3)),
        ("wire.decode_us", "us", Run, Span("wire.decode", 1e3)),
        ("wire.frame_bytes", "bytes", Run, Mean("wire.frame_bytes")),
        ("link.send_us", "us", Run, Span("link.send", 1e3)),
        ("link.pump_us", "us", Run, Span("link.pump", 1e3)),
        ("link.datagrams_per_frame", "count", Run, Mean("link.datagrams_per_frame")),
        ("link.delivered_share", "share", Run, Mean("link.delivered_share")),
        ("alloc.bytes_per_pose", "bytes", Run, Mean("alloc.bytes_per_pose")),
        ("alloc.calls_per_pose", "count", Run, Mean("alloc.calls_per_pose")),
    ]
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad value for {flag}: {value} ({e})");
        let badf = |e: std::num::ParseFloatError| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(badf)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-1a over the poses in `(round, pair, seq)` order: the bits of every
/// transform and its inlier counts, or the error of a failed frame.
fn digest(log: &PhaseLog) -> u64 {
    let mut poses: Vec<_> = log.poses.iter().collect();
    poses.sort_by_key(|p| p.key);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in poses {
        for k in [p.key.0, p.key.1, p.key.2] {
            eat(&k.to_le_bytes());
        }
        match &p.result {
            Ok((t, bv, bx, ok)) => {
                for x in [t.yaw(), t.translation().x, t.translation().y] {
                    eat(&x.to_bits().to_le_bytes());
                }
                for n in [*bv as u64, *bx as u64, *ok as u64] {
                    eat(&n.to_le_bytes());
                }
            }
            Err(e) => eat(e.as_bytes()),
        }
    }
    h
}

/// End-to-end metrics of one phase, plus the tail's percentile and count.
fn end_to_end(log: &PhaseLog, setup: &[f64]) -> (BTreeMap<&'static str, f64>, String) {
    let returned: Vec<_> = log.poses.iter().filter_map(|p| p.result.as_ref().ok()).collect();
    // Errors of poses that pass the paper criterion: over every returned pose
    // the median would mostly track `success_rate`.
    let errors: Vec<(f64, f64)> = log
        .poses
        .iter()
        .filter(|p| matches!(p.result, Ok((.., true))))
        .filter_map(|p| p.error)
        .collect();
    let nan = f64::NAN;
    let (tail_ms, tail_pct) = tail(&log.latencies_ms).unwrap_or((nan, nan));
    let mut m = BTreeMap::new();
    m.insert("poses_per_s", log.returned as f64 / log.wall_s);
    m.insert("pose_latency_p50_ms", median(&log.latencies_ms).unwrap_or(nan));
    m.insert("pose_latency_tail_ms", tail_ms);
    m.insert("cpu_ms_per_pose", log.cpu_s * 1e3 / log.returned as f64);
    m.insert(
        "success_rate",
        returned.iter().filter(|r| r.3).count() as f64 / returned.len() as f64,
    );
    m.insert(
        "pose_err_t_p50_m",
        median(&errors.iter().map(|e| e.0).collect::<Vec<_>>()).unwrap_or(nan),
    );
    // Rotation errors spread over a decade: their median moves by a quarter
    // between seeds, and aliased poses that pass the criterion (errors of
    // tens of degrees) swamp the mean. The interquartile mean is steady and
    // ignores them.
    m.insert(
        "pose_err_r_iqm_deg",
        interquartile_mean(&errors.iter().map(|e| e.1.to_degrees()).collect::<Vec<_>>())
            .unwrap_or(nan),
    );
    m.insert("setup_s", median(setup).unwrap_or(nan));
    m.insert("peak_rss_mb", host::peak_rss_mb());
    let note = format!(
        "tail = p{tail_pct:.1} of {} samples; {} rounds, {} poses",
        log.latencies_ms.len(),
        log.rounds,
        log.poses.len()
    );
    (m, note)
}

/// Reduces the traced run and the replay to the per-layer metrics.
fn per_layer(run: &Tracer, replay: &Tracer) -> BTreeMap<&'static str, f64> {
    let sources = [(run.durations_ms(), run.samples()), (replay.durations_ms(), replay.samples())];
    let pick = |from: Source, key: &str, spans: bool| -> Option<Vec<f64>> {
        let get = |i: usize| {
            let map = if spans { &sources[i].0 } else { &sources[i].1 };
            map.get(key).filter(|v| !v.is_empty()).cloned()
        };
        match from {
            Source::Run => get(0).or_else(|| get(1)),
            Source::Replay => get(1),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, _, from, reduce)| {
            let value = match reduce {
                Reduce::Span(key, scale) => {
                    pick(from, key, true).and_then(|v| median(&v)).map(|v| v * scale)
                }
                Reduce::Median(key) => pick(from, key, false).and_then(|v| median(&v)),
                Reduce::Mean(key) => pick(from, key, false).and_then(|v| mean(&v)),
            };
            (name, value.unwrap_or(f64::NAN))
        })
        .collect()
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(values[name]))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("BBA_BENCH_OUT")
        .map_or_else(|| PathBuf::from("target/perfbench-out"), PathBuf::from)
}

/// The first run of a workload, seed and round count on a given source tree
/// stores its digest under `digests/<source>/`; every later run of the same
/// sources — traced or not — must reproduce it. Runs of other sources never
/// read it, so a change that moves pose bits starts a digest of its own.
fn check_digest(workload: &str, seed: u64, rounds: usize, digest: u64) -> Result<(), String> {
    let source: String = host::source_identity()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .collect();
    let dir = out_dir().join("digests").join(source);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}-rounds{rounds}.txt"));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == ours => Ok(()),
        Ok(stored) => Err(format!("pose digest {ours} != {} from an earlier run", stored.trim())),
        Err(_) => {
            std::fs::write(&path, &ours).map_err(|e| format!("writing {}: {e}", path.display()))
        }
    }
}

struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: String,
    lines: String,
}

fn run<W: Workload>(args: &Args) -> Report {
    let threads = W::THREADS.min(host::nproc());
    bba_par::with_threads(threads, || {
        let mut setup = Vec::new();
        let mut built = None;
        for _ in 0..SETUP_REPS {
            drop(built.take());
            let start = Instant::now();
            let w = W::new(args.seed);
            let construction = start.elapsed().as_secs_f64();
            let warm = workloads::warm_inputs(&w);
            let start = Instant::now();
            workloads::warm_up(&w, warm);
            setup.push(construction + start.elapsed().as_secs_f64());
            built = Some(w);
        }
        let w = built.expect("at least one set-up");
        let fp = Fingerprint::collect(threads, w.engine().config().bev.image_size());
        let mut lines = String::new();
        let _ = writeln!(
            lines,
            "workload {} seed {} seconds {} trace {}",
            W::NAME,
            args.seed,
            args.seconds,
            args.trace as u8
        );
        let _ = writeln!(lines, "fingerprint: {}", fp.to_json());
        let _ = writeln!(lines, "setup_s samples: {setup:?}");

        let mut problems = Vec::new();
        // A traced run splits `--seconds` between an untraced and a traced
        // phase of the same rounds, so it takes about as long as an untraced
        // run.
        let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
        let rounds = workloads::rounds::<W>(seconds);
        let plain = timed_phase(&w, rounds, &Tracer::new(false));
        let (e2e, note) = end_to_end(&plain, &setup);
        let d = digest(&plain);
        problems.extend(plain.problems.iter().cloned());
        if let Err(e) = check_digest(W::NAME, args.seed, rounds, d) {
            problems.push(e);
        }
        let (min_success, max_err) = (W::MIN_SUCCESS_RATE, W::MAX_ERR_T_M);
        if e2e["success_rate"].is_nan() || e2e["success_rate"] < min_success {
            problems.push(format!(
                "success_rate {} below the {min_success} floor",
                e2e["success_rate"]
            ));
        }
        if e2e["pose_err_t_p50_m"].is_nan() || e2e["pose_err_t_p50_m"] > max_err {
            problems.push(format!(
                "pose_err_t_p50_m {} above the {max_err} m ceiling",
                e2e["pose_err_t_p50_m"]
            ));
        }
        let _ = writeln!(lines, "pose digest {d:016x} ({note})");
        let _ = writeln!(
            lines,
            "offered {} returned {} failed {} (failed_share {:.4}) gate-shed {}",
            plain.offered,
            plain.returned,
            plain.failed,
            plain.failed as f64 / plain.offered as f64,
            plain.gated
        );
        for p in plain.poses.iter().filter(|p| p.result.is_err()) {
            let _ = writeln!(lines, "no pose for (round, pair, seq) {:?}: {:?}", p.key, p.result);
        }
        let _ = writeln!(
            lines,
            "recovery paths: warm start {} cold fallback {} cold {}",
            plain.paths[0], plain.paths[1], plain.paths[2]
        );
        for (name, unit) in END_TO_END {
            let _ = writeln!(lines, "{name} = {} {unit}", json_num(e2e[name]));
        }
        if !args.trace {
            return Report {
                problems,
                attempted: plain.offered,
                failed: plain.failed,
                metrics: json_metrics(&e2e, &END_TO_END),
                lines,
            };
        }

        let tracer = Tracer::new(true);
        let before = trace::allocations();
        trace::count_allocations(true);
        let traced = timed_phase(&w, rounds, &tracer);
        trace::count_allocations(false);
        let after = trace::allocations();
        let poses = traced.returned.max(1) as f64;
        tracer.sample("alloc.calls_per_pose", (after.0 - before.0) as f64 / poses);
        tracer.sample("alloc.bytes_per_pose", (after.1 - before.1) as f64 / poses);
        problems.extend(traced.problems.iter().cloned());
        let dt = digest(&traced);
        if dt != d {
            problems.push(format!("traced pose digest {dt:016x} != untraced {d:016x}"));
        }
        let (e2e_traced, _) = end_to_end(&traced, &setup);
        let _ = writeln!(lines, "tracing overhead (traced - untraced):");
        for (name, unit) in
            END_TO_END.iter().filter(|(n, _)| *n != "setup_s" && *n != "peak_rss_mb")
        {
            let (a, b) = (e2e[name], e2e_traced[name]);
            let _ = writeln!(
                lines,
                "  {name}: {b:.4} - {a:.4} = {:+.4} {unit} ({:+.2}%)",
                b - a,
                100.0 * (b - a) / a
            );
        }

        let replay = Tracer::new(true);
        bba_par::with_threads(1, || {
            problems.extend(replay::replay_kernels(w.engine(), &traced.replay, &replay));
            problems.extend(replay::layer_sweep(w.engine(), &traced.replay, args.seed, &replay));
        });
        let layers = per_layer(&tracer, &replay);
        for (name, v) in &layers {
            if !v.is_finite() {
                problems.push(format!("per-layer metric {name} has no samples"));
            }
        }
        let _ = writeln!(lines, "{}", accounting(&replay, traced.replay.len()));
        for (name, unit, _, _) in PER_LAYER {
            let _ = writeln!(lines, "{name} = {} {unit}", json_num(layers[name]));
        }
        let dir = out_dir().join("traces");
        let spans = format!(
            "{}{}",
            tracer.spans_jsonl(W::NAME),
            replay.spans_jsonl(&format!("{}-replay", W::NAME))
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| {
            std::fs::write(dir.join(format!("{}-{}.jsonl", W::NAME, args.seed)), spans)
        }) {
            problems.push(format!("writing spans: {e}"));
        }
        let units: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _, _)| (*n, *u)).collect();
        Report {
            problems,
            attempted: traced.offered,
            failed: traced.failed,
            metrics: json_metrics(&layers, &units),
            lines,
        }
    })
}

/// Per replayed pair: each layer's mean self time, their sum, the residue
/// and `recover` — the rows add up to `recover` by construction, and the
/// residue is shown rather than folded into any layer.
fn accounting(replay: &Tracer, pairs: usize) -> String {
    let totals = replay.self_times_ms();
    let per_pair = |k: &str| totals.get(k).copied().unwrap_or(0.0) / pairs.max(1) as f64;
    let mut out = format!("layer accounting over {pairs} replayed pairs (mean ms per pair):\n");
    let mut sum = 0.0;
    for k in replay::KERNEL_SPANS {
        sum += per_pair(k);
        let _ = writeln!(out, "  {k:<18} {:>9.3}", per_pair(k));
    }
    let residue: f64 =
        replay.samples().get("core.stage1_residue_ms").map_or(0.0, |v| v.iter().sum::<f64>())
            / pairs.max(1) as f64;
    let _ = writeln!(out, "  {:<18} {:>9.3}", "stage1_residue", residue);
    let _ = write!(
        out,
        "  {:<18} {:>9.3}  (core.recover {:.3})",
        "sum",
        sum + residue,
        per_pair("core.recover")
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: bba-perfbench --workload <cold_pairs|platoon_fanout> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        ColdPairs::NAME => run::<ColdPairs>(&args),
        PlatoonFanout::NAME => run::<PlatoonFanout>(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.lines);
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        report.metrics
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn listed(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        for name in e2e.iter().chain(&layers) {
            assert!(stats::is_valid_metric_name(name), "{name}");
        }
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        assert_eq!(listed("workloads"), [ColdPairs::NAME, PlatoonFanout::NAME]);
    }
}
