//! Tracing from outside the engine: spans recorded around calls into each
//! layer's public functions, and per-thread CPU time read from
//! `/proc/self/task/*/stat`.
//!
//! Spans live in a thread-local buffer that is empty and untouched unless
//! [`enable`] was called, so the untraced end-to-end run pays one
//! thread-local flag read per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since tracing was enabled.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u64>,
    next_id: u64,
    paused: bool,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            paused: false,
        })
    });
}

/// Whether spans are being recorded right now.
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|t| !t.paused))
}

/// Suspend or resume recording (the traced run interleaves untraced chunks
/// to measure tracing overhead against the same database state).
pub fn set_paused(paused: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.paused = paused;
        }
    });
}

/// Run `f` inside a span named `name`, child of the innermost open span.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let (id, start) = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer is active");
        let id = t.next_id;
        t.next_id += 1;
        t.stack.push(id);
        (id, t.epoch.elapsed().as_nanos() as u64)
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer is active");
        let end = t.epoch.elapsed().as_nanos() as u64;
        t.stack.pop();
        let parent = t.stack.last().copied().unwrap_or(0);
        t.spans.push(Span { name, id, parent, start_ns: start, end_ns: end });
    });
    out
}

/// Take every recorded span (ordered by end time).
pub fn take_spans() -> Vec<Span> {
    TRACER
        .with(|t| t.borrow_mut().as_mut().map(|t| std::mem::take(&mut t.spans)).unwrap_or_default())
}

/// Per-name statistics over a span list: durations and self times (a span's
/// duration minus the part of it its children cover; children nest
/// strictly, so their durations sum without overlap).
pub struct SpanStats {
    pub median_ns: f64,
    pub self_median_ns: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0.push(dur as f64);
        e.1.push(own as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (mut d, mut own))| {
            let stats = SpanStats { median_ns: median(&mut d), self_median_ns: median(&mut own) };
            (name, stats)
        })
        .collect()
}

/// Write spans as CSV (`name,id,parent,start_ns,end_ns`).
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 48);
    let _ = writeln!(out, "# {header}");
    out.push_str("name,id,parent,start_ns,end_ns\n");
    for s in spans {
        let _ = writeln!(out, "{},{},{},{},{}", s.name, s.id, s.parent, s.start_ns, s.end_ns);
    }
    std::fs::write(path, out)
}

/// Median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile of `xs` (sorts in place); 0 for an empty slice.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

// ---------------------------------------------------------------------------
// Thread CPU from /proc
// ---------------------------------------------------------------------------

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const CLOCK_TICKS: f64 = 100.0;

/// CPU seconds (user + system) of every thread of this process, keyed by
/// thread id, with the thread's name.
pub fn thread_cpu() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else { continue };
        if let Some(sample) = read_stat(&entry.path().join("stat")) {
            out.insert(tid, sample);
        }
    }
    out
}

/// CPU seconds of the calling thread.
pub fn own_cpu() -> f64 {
    read_stat(Path::new("/proc/thread-self/stat")).map(|(_, s)| s).unwrap_or(0.0)
}

fn read_stat(path: &Path) -> Option<(String, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text[open + 1..close].to_string();
    // Fields after the name start at field 3 (state); utime and stime are
    // fields 14 and 15.
    let rest: Vec<&str> = text[close + 1..].split_whitespace().collect();
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((name, (utime + stime) / CLOCK_TICKS))
}

/// CPU seconds each thread-name prefix used between two samples. Threads
/// born after `before` count from zero.
pub fn cpu_delta(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name.starts_with(prefix))
        .map(|(tid, (_, cpu))| cpu - before.get(tid).map(|(_, c)| *c).unwrap_or(0.0))
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
