//! Benchmark-side tracing: spans around calls into each crate's public API
//! and counts taken at the same boundaries, kept in memory and written out
//! when the workload ends. Off (every call a no-op) in end-to-end runs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

/// Interior mutability so the set-up, timed and check closures of one
/// repetition loop can all record into the same tracer.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost open span.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            inner.open.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].start_ns = start;
        inner.spans[id].end_ns = end;
        inner.open.pop();
        out
    }

    /// Adds to a named count, taken at the same boundary as the spans.
    pub fn count(&self, name: &'static str, n: f64) {
        if self.on.get() {
            *self.inner.borrow_mut().counts.entry(name).or_insert(0.0) += n;
        }
    }

    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// The distinct layers that recorded at least one span.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> =
            self.inner.borrow().spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Durations (ns) of every span named `name`, in start order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// The fastest of the spans named `name`: of identical passes or
    /// repetitions the least disturbed one, which is also what keeps
    /// differences between two drivers meaningful.
    pub fn best_ns(&self, name: &str) -> f64 {
        self.durations_ns(name)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Total self time (ns) of spans named `name`: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ns(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        inner
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c) as f64)
            .sum()
    }

    /// The span file: `metrics` (handed in by the caller), a per-name
    /// `summary` (count, total and self time), the counts, then every span
    /// in start order. `parent` is the `id` of the span that caused this
    /// one; `workload` is the identifier every span of the run shares.
    pub fn to_json(&self, workload: &str, metrics: &str) -> String {
        let mut names: Vec<(&'static str, &'static str)> = self
            .inner
            .borrow()
            .spans
            .iter()
            .map(|s| (s.layer, s.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        let summary: Vec<String> = names
            .iter()
            .map(|(layer, name)| {
                let durations = self.durations_ns(name);
                format!(
                    "\"{name}\": {{\"layer\": \"{layer}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    durations.len(),
                    durations.iter().sum::<f64>(),
                    self.self_ns(name)
                )
            })
            .collect();
        let inner = self.inner.borrow();
        let counts: Vec<String> = inner
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let mut out = format!(
            "{{\"workload\": \"{workload}\",\n\"metrics\": {metrics},\n\"summary\": {{{}}},\n\"counts\": {{{}}},\n\"spans\": [\n",
            summary.join(", "),
            counts.join(", ")
        );
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\"}}{}\n",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                if i + 1 == inner.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
