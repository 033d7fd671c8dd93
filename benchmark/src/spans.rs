//! Benchmark-side spans: recorded from outside the program, around the
//! calls it makes across the `orchestrator -> vqa` boundary. Each job's
//! `EvaluatorFactory` is wrapped so `make` and every
//! `CostEvaluator::evaluate` is timed into a per-evaluator buffer that is
//! merged when the evaluator is dropped; spans stay in memory until the
//! run ends and are then written as Chrome-trace JSON.

use qoncord_circuit::transpile::CircuitStats;
use qoncord_core::executor::EvaluatorFactory;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::evaluator::{CostEvaluator, Evaluation};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans written to the trace file at most; the rest are counted in the
/// file's `otherData.dropped_spans` (a stub workload makes 10^5 calls).
const MAX_EXPORTED_SPANS: usize = 20_000;

/// One span: nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` only for the root).
    pub parent: Option<usize>,
    /// The job the span belongs to; spans of one job share it.
    pub job: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared in-memory span store. Index 0 is the root span `run`.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(vec![Span {
                name: "run",
                start_ns: 0,
                end_ns: 0,
                parent: None,
                job: None,
            }]),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span store")
    }

    /// Opens the root span; everything recorded until [`finish`] is its child.
    pub fn start(&self) {
        let now = self.now_ns();
        self.lock()[0].start_ns = now;
    }

    /// Closes the root span and returns every span, root first.
    pub fn finish(&self) -> Vec<Span> {
        let now = self.now_ns();
        let mut spans = self.lock();
        spans[0].end_ns = now;
        std::mem::take(&mut *spans)
    }
}

/// Wraps a job's factory so the boundary calls are timed.
pub struct TimedFactory {
    pub inner: Box<dyn EvaluatorFactory>,
    pub job: usize,
    pub recorder: Arc<Recorder>,
}

impl EvaluatorFactory for TimedFactory {
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        let start_ns = self.recorder.now_ns();
        let inner = self.inner.make(backend, seed);
        let end_ns = self.recorder.now_ns();
        self.recorder.lock().push(Span {
            name: "make",
            start_ns,
            end_ns,
            parent: Some(0),
            job: Some(self.job),
        });
        Box::new(TimedEvaluator {
            inner,
            job: self.job,
            recorder: Arc::clone(&self.recorder),
            calls: Vec::new(),
        })
    }
}

struct TimedEvaluator {
    inner: Box<dyn CostEvaluator>,
    job: usize,
    recorder: Arc<Recorder>,
    calls: Vec<(u64, u64)>,
}

impl CostEvaluator for TimedEvaluator {
    fn n_params(&self) -> usize {
        self.inner.n_params()
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        let start = self.recorder.now_ns();
        let evaluation = self.inner.evaluate(params);
        self.calls.push((start, self.recorder.now_ns()));
        evaluation
    }

    fn executions(&self) -> u64 {
        self.inner.executions()
    }

    fn device_name(&self) -> String {
        self.inner.device_name()
    }

    fn ground_energy(&self) -> f64 {
        self.inner.ground_energy()
    }

    fn circuit_stats(&self) -> CircuitStats {
        self.inner.circuit_stats()
    }
}

impl Drop for TimedEvaluator {
    fn drop(&mut self) {
        // A poisoned store means another thread already panicked; losing
        // this buffer is harmless then, and `Drop` must not panic.
        if let Ok(mut spans) = self.recorder.spans.lock() {
            let job = self.job;
            spans.extend(self.calls.drain(..).map(|(start_ns, end_ns)| Span {
                name: "evaluate",
                start_ns,
                end_ns,
                parent: Some(0),
                job: Some(job),
            }));
        }
    }
}

/// Structural checks before export: exactly the root lacks a parent, every
/// child lies inside its parent, and the children of a span never sum to
/// more than the span itself.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        match span.parent {
            None if i == 0 => {}
            None => return Err(format!("span {i} ({}) has no parent", span.name)),
            Some(p) if p >= spans.len() || p == i => {
                return Err(format!("span {i} ({}) has a bad parent {p}", span.name))
            }
            Some(p) => {
                let parent = &spans[p];
                if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        span.name, parent.name
                    ));
                }
                child_ns[p] += span.dur_ns();
            }
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if child_ns[i] > span.dur_ns() {
            return Err(format!(
                "children of span {i} ({}) cover {} ns of its {} ns",
                span.name,
                child_ns[i],
                span.dur_ns()
            ));
        }
    }
    Ok(())
}

/// Chrome-trace JSON of `spans` (root first): one `X` event per span on a
/// track per job, `args` carrying the span's parent and job.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"e2e {workload}\"}}}}"
    );
    for (i, span) in spans.iter().take(MAX_EXPORTED_SPANS).enumerate() {
        let tid = span.job.map_or(0, |j| j + 1);
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
        );
        if let Some(parent) = span.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        if let Some(job) = span.job {
            let _ = write!(out, ",\"job\":{job}");
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "\n],\"otherData\":{{\"workload\":\"{workload}\",\"spans\":{},\"dropped_spans\":{}}}}}\n",
        spans.len(),
        spans.len().saturating_sub(MAX_EXPORTED_SPANS)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: parent.map(|_| 3),
        }
    }

    #[test]
    fn well_formed_spans_validate_and_export() {
        let spans = vec![
            span("run", 0, 100, None),
            span("make", 5, 20, Some(0)),
            span("evaluate", 20, 90, Some(0)),
        ];
        validate(&spans).expect("well formed");
        let json = chrome_json("unit", &spans);
        let summary = qoncord_orchestrator::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.total_events, 4);
    }

    #[test]
    fn orphans_escapes_and_overfull_parents_are_rejected() {
        let orphan = vec![span("run", 0, 10, None), span("make", 1, 2, None)];
        assert!(validate(&orphan).unwrap_err().contains("no parent"));
        let escape = vec![span("run", 0, 10, None), span("make", 5, 12, Some(0))];
        assert!(validate(&escape).unwrap_err().contains("escapes"));
        let overfull = vec![
            span("run", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 2, 10, Some(0)),
        ];
        assert!(validate(&overfull).unwrap_err().contains("cover"));
    }
}
