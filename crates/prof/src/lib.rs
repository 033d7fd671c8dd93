//! # qoncord-prof
//!
//! Low-overhead wall-clock span profiling for every layer of the Qoncord
//! workspace: scoped span timers ([`span`]/[`SpanGuard`]) feeding a
//! thread-safe registry keyed by static labels ([`Profiler`]), nested spans
//! producing folded-stack paths, and a [`ProfileReport`] aggregation with
//! per-path count / total / min / max / self-vs-child wall time.
//!
//! The crate sits below `qoncord-sim`, `qoncord-circuit`, `qoncord-vqa`,
//! `qoncord-cloud`, and the orchestrator so hot kernels in all of them can
//! carry spans; `qoncord_core::prof` re-exports it as the canonical path.
//!
//! ## Install model
//!
//! Nothing is recorded until a [`Profiler`] is *installed* on the current
//! thread; that is the only way profiling is off. Instrumented code calls
//! [`span`] unconditionally; with no profiler installed the call returns an
//! inert guard without reading the clock, touching the registry, or
//! allocating — the near-zero off path the engine's determinism guard
//! asserts.
//!
//! ```
//! use qoncord_prof::{folded_export, span, Profiler};
//!
//! let profiler = Profiler::new();
//! let _session = profiler.install();
//! {
//!     let _outer = span("train");
//!     let _inner = span("kernel");
//! }
//! let report = profiler.report();
//! assert_eq!(report.entries.len(), 2);
//! assert_eq!(report.entries[0].path, vec!["train"]);
//! assert_eq!(report.entries[1].path, vec!["train", "kernel"]);
//! // Folded-stack lines are ready for inferno / flamegraph.pl.
//! assert!(folded_export(&report).starts_with("train "));
//! ```
//!
//! ## Contracts
//!
//! - Span guards must drop in LIFO order (scoped `let _guard = span(..)`
//!   usage guarantees this); the install guard must outlive every span it
//!   observes.
//! - Labels are `&'static str` and must not contain `';'` — that is the
//!   folded-stack path separator.
//! - Recording a span never branches on recorded data, so installing the
//!   profiler cannot change the control flow of instrumented code.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Sentinel parent id for top-of-stack spans.
const ROOT: u32 = u32::MAX;

/// Raw spans retained for timeline export; beyond this the registry keeps
/// aggregates only and counts the overflow in
/// [`ProfileReport::dropped_spans`].
const SPAN_RETAIN_CAP: usize = 65_536;

/// One interned path node: a static label under a parent path.
struct PathNode {
    label: &'static str,
    parent: u32,
}

/// Aggregate statistics of one path.
#[derive(Clone, Copy)]
struct PathStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    child_ns: u64,
}

impl PathStats {
    const EMPTY: PathStats = PathStats {
        count: 0,
        total_ns: 0,
        min_ns: u64::MAX,
        max_ns: 0,
        child_ns: 0,
    };
}

/// A raw retained span (offsets are nanoseconds since the profiler epoch).
struct RawSpan {
    path: u32,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct Registry {
    nodes: Vec<PathNode>,
    stats: Vec<PathStats>,
    index: HashMap<(u32, &'static str), u32>,
    spans: Vec<RawSpan>,
    dropped: u64,
}

struct Inner {
    epoch: Instant,
    registry: Mutex<Registry>,
}

/// A shareable wall-clock span profiler: a thread-safe registry of folded
/// span paths.
///
/// Cloning is shallow (an [`Arc`] bump); clones observe the same registry.
/// Spans are only recorded on threads where the profiler is
/// [`install`](Profiler::install)ed, so concurrently running tests each
/// profiling their own work never cross-pollute.
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").finish_non_exhaustive()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Profiler>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// One open span on the thread-local stack.
struct Frame {
    path: u32,
    child_ns: u64,
}

impl Profiler {
    /// Creates a profiler; its epoch (the zero point of span start
    /// offsets) is the moment of creation.
    pub fn new() -> Self {
        Profiler {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                registry: Mutex::new(Registry::default()),
            }),
        }
    }

    /// Installs this profiler as the current thread's span recipient,
    /// returning a guard that restores the previous recipient (if any) on
    /// drop. The guard must outlive every span opened under it.
    pub fn install(&self) -> InstalledProfiler {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        InstalledProfiler {
            prev,
            _not_send: PhantomData,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        // A panic mid-span must not cascade into a poisoned-mutex panic in
        // a drop handler; the aggregates are plain counters, always valid.
        self.inner
            .registry
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn intern(&self, parent: u32, label: &'static str) -> u32 {
        let mut reg = self.lock();
        if let Some(&id) = reg.index.get(&(parent, label)) {
            return id;
        }
        let id = reg.nodes.len() as u32;
        reg.nodes.push(PathNode { label, parent });
        reg.stats.push(PathStats::EMPTY);
        reg.index.insert((parent, label), id);
        id
    }

    fn record(&self, path: u32, start_ns: u64, dur_ns: u64, child_ns: u64) {
        let mut reg = self.lock();
        let stats = &mut reg.stats[path as usize];
        stats.count += 1;
        stats.total_ns += dur_ns;
        stats.min_ns = stats.min_ns.min(dur_ns);
        stats.max_ns = stats.max_ns.max(dur_ns);
        stats.child_ns += child_ns;
        if reg.spans.len() < SPAN_RETAIN_CAP {
            reg.spans.push(RawSpan {
                path,
                start_ns,
                dur_ns,
            });
        } else {
            reg.dropped += 1;
        }
    }

    /// Snapshots everything recorded so far as a [`ProfileReport`]:
    /// entries sorted by folded path (parents before their children), raw
    /// retained spans rebased onto entry indices.
    pub fn report(&self) -> ProfileReport {
        let reg = self.lock();
        let full_path = |mut id: u32| -> Vec<&'static str> {
            let mut path = Vec::new();
            while id != ROOT {
                path.push(reg.nodes[id as usize].label);
                id = reg.nodes[id as usize].parent;
            }
            path.reverse();
            path
        };
        // Interned-but-never-closed paths (a span still open at snapshot
        // time) carry no samples and are omitted.
        let mut closed: Vec<(Vec<&'static str>, u32)> = (0..reg.nodes.len() as u32)
            .filter(|&id| reg.stats[id as usize].count > 0)
            .map(|id| (full_path(id), id))
            .collect();
        closed.sort();
        let mut entry_of: HashMap<u32, usize> = HashMap::new();
        let entries: Vec<ProfileEntry> = closed
            .into_iter()
            .enumerate()
            .map(|(i, (path, id))| {
                entry_of.insert(id, i);
                let s = reg.stats[id as usize];
                ProfileEntry {
                    path,
                    count: s.count,
                    total_ns: s.total_ns,
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                    child_ns: s.child_ns,
                }
            })
            .collect();
        let spans: Vec<ProfileSpan> = reg
            .spans
            .iter()
            .filter_map(|s| {
                entry_of.get(&s.path).map(|&entry| ProfileSpan {
                    entry,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
            })
            .collect();
        ProfileReport {
            entries,
            spans,
            dropped_spans: reg.dropped,
        }
    }
}

/// Guard returned by [`Profiler::install`]; restores the thread's previous
/// profiler (if any) on drop. Not `Send`: an installation is a property of
/// the installing thread.
pub struct InstalledProfiler {
    prev: Option<Profiler>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstalledProfiler {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The profiler currently installed on this thread, if any.
pub fn current() -> Option<Profiler> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Snapshot of the currently installed profiler's report; empty when no
/// profiler is installed. This is how the orchestrator surfaces
/// `OrchestratorReport::perf` without threading a handle through every
/// layer.
pub fn current_report() -> ProfileReport {
    current().map(|p| p.report()).unwrap_or_default()
}

/// Opens a scoped wall-clock span named `label` against the thread's
/// installed profiler; timing stops when the returned guard drops.
///
/// With no profiler installed this returns an inert guard without reading
/// the clock or touching any registry: instrumented hot loops pay only a
/// thread-local load.
///
/// `label` must not contain `';'` (the folded-stack separator).
pub fn span(label: &'static str) -> SpanGuard {
    debug_assert!(
        !label.contains(';'),
        "span label {label:?} contains the folded-path separator ';'"
    );
    let Some(profiler) = current() else {
        return SpanGuard { active: None };
    };
    let parent = STACK.with(|s| s.borrow().last().map(|f| f.path).unwrap_or(ROOT));
    let path = profiler.intern(parent, label);
    STACK.with(|s| s.borrow_mut().push(Frame { path, child_ns: 0 }));
    SpanGuard {
        active: Some(ActiveSpan {
            profiler,
            start: Instant::now(),
        }),
    }
}

struct ActiveSpan {
    profiler: Profiler,
    start: Instant,
}

/// A scoped span timer from [`span`]; records its duration (and credits it
/// to the parent span's child time) when dropped. Guards must drop in LIFO
/// order — the natural consequence of scoped `let` bindings.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let frame = STACK.with(|s| s.borrow_mut().pop());
        let Some(frame) = frame else {
            return; // Out-of-order drop; lose the sample rather than panic.
        };
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                parent.child_ns += dur_ns;
            }
        });
        let start_ns = active
            .start
            .saturating_duration_since(active.profiler.inner.epoch)
            .as_nanos() as u64;
        active
            .profiler
            .record(frame.path, start_ns, dur_ns, frame.child_ns);
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Aggregated wall-clock statistics of one folded span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The folded path, root-first (e.g. `["engine::run", "sim::sv::apply_1q"]`).
    pub path: Vec<&'static str>,
    /// Closed spans on this exact path.
    pub count: u64,
    /// Total inclusive wall time, nanoseconds.
    pub total_ns: u64,
    /// Shortest single span, nanoseconds.
    pub min_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Wall time attributed to child spans, nanoseconds.
    pub child_ns: u64,
}

impl ProfileEntry {
    /// The leaf label of the path.
    pub fn label(&self) -> &'static str {
        self.path.last().expect("paths are non-empty")
    }

    /// Wall time spent in this path itself, excluding child spans
    /// (saturating against clock jitter between parent and child reads).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// The path as a `';'`-joined folded-stack string.
    pub fn folded_path(&self) -> String {
        self.path.join(";")
    }
}

/// One retained raw span, for timeline export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Index into [`ProfileReport::entries`] identifying the span's path.
    pub entry: usize,
    /// Start offset from the profiler epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Snapshot of everything a [`Profiler`] recorded: per-path aggregates plus
/// the retained raw spans. `Default` is the empty report — what an
/// unprofiled orchestrator run carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Per-path aggregates, sorted by folded path (parents first).
    pub entries: Vec<ProfileEntry>,
    /// Raw retained spans (capped; see
    /// [`dropped_spans`](ProfileReport::dropped_spans)).
    pub spans: Vec<ProfileSpan>,
    /// Spans recorded beyond the retention cap — aggregated above but
    /// absent from [`spans`](ProfileReport::spans).
    pub dropped_spans: u64,
}

impl ProfileReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total closed spans across all paths.
    pub fn total_spans(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// The entry with exactly this folded path, if recorded.
    pub fn entry(&self, path: &[&str]) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.path == path)
    }
}

/// Renders a report as flamegraph-compatible folded-stack text: one
/// `path;to;span <self-nanoseconds>` line per entry, ready for
/// `inferno-flamegraph` / `flamegraph.pl`.
pub fn folded_export(report: &ProfileReport) -> String {
    let mut out = String::new();
    for entry in &report.entries {
        let _ = writeln!(out, "{} {}", entry.folded_path(), entry.self_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_spans_fold_and_attribute_self_time() {
        let profiler = Profiler::new();
        let _session = profiler.install();
        {
            let _outer = span("outer");
            spin(200_000);
            {
                let _inner = span("inner");
                spin(200_000);
            }
            {
                let _inner = span("inner");
                spin(200_000);
            }
        }
        let report = profiler.report();
        assert_eq!(report.entries.len(), 2);
        let outer = report.entry(&["outer"]).unwrap();
        let inner = report.entry(&["outer", "inner"]).unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(inner.min_ns <= inner.max_ns);
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.self_ns() >= 200_000, "self = {}", outer.self_ns());
        assert!(outer.total_ns >= outer.self_ns() + inner.total_ns);
        assert_eq!(report.total_spans(), 3);
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.dropped_spans, 0);
    }

    #[test]
    fn no_install_means_inert_guards() {
        assert!(current().is_none());
        let guard = span("unrecorded");
        assert!(guard.active.is_none());
    }

    #[test]
    fn install_guard_restores_previous_profiler() {
        let a = Profiler::new();
        let b = Profiler::new();
        let _outer = a.install();
        {
            let _inner = b.install();
            let _s = span("inner-work");
        }
        {
            let _s = span("outer-work");
        }
        assert_eq!(a.report().entries[0].path, vec!["outer-work"]);
        assert_eq!(b.report().entries[0].path, vec!["inner-work"]);
        assert_eq!(a.report().total_spans(), 1);
        assert_eq!(b.report().total_spans(), 1);
    }

    #[test]
    fn same_label_under_different_parents_is_two_paths() {
        let profiler = Profiler::new();
        let _session = profiler.install();
        {
            let _a = span("a");
            let _k = span("kernel");
        }
        {
            let _b = span("b");
            let _k = span("kernel");
        }
        let report = profiler.report();
        assert_eq!(report.entries.len(), 4);
        let kernels = report.entries.iter().filter(|e| e.label() == "kernel");
        assert_eq!(kernels.count(), 2);
        assert!(report.entry(&["a", "kernel"]).is_some());
        assert!(report.entry(&["b", "kernel"]).is_some());
    }

    #[test]
    fn folded_export_lines_are_path_space_nanos() {
        let profiler = Profiler::new();
        let _session = profiler.install();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let folded = folded_export(&profiler.report());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("outer "));
        assert!(lines[1].starts_with("outer;inner "));
        for line in lines {
            let (_, count) = line.rsplit_once(' ').unwrap();
            count.parse::<u64>().expect("integer self time");
        }
    }

    #[test]
    fn reports_are_deterministically_ordered() {
        let profiler = Profiler::new();
        let _session = profiler.install();
        for _ in 0..3 {
            let _z = span("z");
        }
        {
            let _a = span("a");
        }
        let report = profiler.report();
        assert_eq!(report.entries[0].path, vec!["a"]);
        assert_eq!(report.entries[1].path, vec!["z"]);
        assert_eq!(report.entries[1].count, 3);
    }

    #[test]
    fn span_retention_cap_counts_drops() {
        let profiler = Profiler::new();
        let _session = profiler.install();
        for _ in 0..(SPAN_RETAIN_CAP + 10) {
            let _s = span("hot");
        }
        let report = profiler.report();
        assert_eq!(report.spans.len(), SPAN_RETAIN_CAP);
        assert_eq!(report.dropped_spans, 10);
        assert_eq!(report.entries[0].count, (SPAN_RETAIN_CAP + 10) as u64);
    }
}
