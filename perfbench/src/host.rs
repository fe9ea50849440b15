//! Process clocks, memory and the host fingerprint stamped on every result.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call; the clock id is a constant
    // the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result was measured on. Results whose fingerprints differ are
/// never compared.
#[derive(Debug)]
pub struct Fingerprint {
    pub simd: &'static str,
    pub nproc: usize,
    pub threads: usize,
    pub bev_size: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub source: String,
}

impl Fingerprint {
    /// The fingerprint of this process. `rustc`, `commit` and `source` come
    /// from the launcher (`BBA_BENCH_RUSTC`, `BBA_BENCH_COMMIT`,
    /// [`source_identity`]), which knows the toolchain that built the binary.
    pub fn collect(threads: usize, bev_size: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            simd: match bba_simd::active() {
                bba_simd::Dispatch::Avx2 => "avx2",
                bba_simd::Dispatch::Portable => "portable",
            },
            nproc: nproc(),
            threads,
            bev_size,
            cpu_model,
            rustc: env("BBA_BENCH_RUSTC"),
            commit: env("BBA_BENCH_COMMIT"),
            source: source_identity(),
        }
    }

    pub fn to_json(&self) -> String {
        let quoted = |v: &str| format!("\"{}\"", v.replace(['"', '\\'], "_"));
        format!(
            "{{\"simd\": {}, \"nproc\": {}, \"threads\": {}, \"bev_size\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"source\": {}}}",
            quoted(self.simd),
            self.nproc,
            self.threads,
            self.bev_size,
            quoted(&self.cpu_model),
            quoted(&self.rustc),
            quoted(&self.commit),
            quoted(&self.source)
        )
    }
}

/// A digest of the sources the binary was built from (`BBA_BENCH_SOURCE`,
/// set by the launcher): it changes whenever the measured code or the
/// benchmark changes, committed or not.
pub fn source_identity() -> String {
    std::env::var("BBA_BENCH_SOURCE").unwrap_or_else(|_| "unknown".into())
}
