//! In-memory span tracing around the benchmark's own calls into the
//! program, plus the counting global allocator. Nothing here reaches inside
//! the program: a span brackets one public call made from this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The request a span belongs to: workload (implicit per run), pair, seq.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub pair: u64,
    pub seq: u64,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Request,
}

/// Span and sample sink. Disabled, every call is one branch and the
/// wrapped closure runs untouched.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    samples: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
            samples: RefCell::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, request: Request, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, request });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Records a derived per-layer value (a count, a share, a latency the
    /// program reports itself).
    pub fn sample(&self, name: &'static str, value: f64) {
        if self.on {
            self.samples.borrow_mut().entry(name).or_default().push(value);
        }
    }

    /// Per span name: every span's duration (ms), in recording order.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            out.entry(s.name).or_default().push((s.end_ns - s.start_ns) as f64 * 1e-6);
        }
        out
    }

    /// Per span name: total self time (ms) — duration minus the time its
    /// child spans cover. Children of one span run sequentially on the
    /// coordinating thread, so their durations never overlap.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns - c) as f64 * 1e-6;
        }
        out
    }

    pub fn samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        self.samples.borrow().clone()
    }

    /// Every span as one JSON object per line.
    pub fn spans_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":\"{workload}/{}/{}\"}}",
                s.name, s.start_ns, s.end_ns, s.request.pair, s.request.seq
            );
        }
        out
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and requested bytes while
/// [`count_allocations`] is on.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` counted so far.
pub fn allocations() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}
