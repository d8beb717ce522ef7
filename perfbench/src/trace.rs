//! In-memory span tracing for the traced benchmark run.
//!
//! A span is one call into a layer, recorded by the benchmark around
//! the public function it calls: a name (the layer, e.g.
//! `routing.build`), start and end times, and the span that caused it.
//! Spans nest on a thread through a thread-local stack; a span opened
//! on a pool thread names its parent explicitly ([`Tracer::enter_under`]).
//! Counters sit beside the spans so ratios are taken where the work
//! happens. Everything stays in memory until [`Tracer::write_json`].
//!
//! Self time is attributed by wall clock: a span's self intervals are
//! its interval minus the union of its children's intervals, and where
//! self intervals of several spans overlap in time (spans on parallel
//! threads) each gets an equal share of the overlap. The shares of all
//! spans under a root therefore sum to the root's duration exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer name.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Small integer naming the recording thread.
    pub thread: usize,
}

#[derive(Default)]
struct Store {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, f64>,
}

/// The span and counter store. Disabled tracers record nothing and cost
/// one branch per call.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    store: Mutex<Store>,
}

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
    static THREAD: usize = next_thread_index();
}

fn next_thread_index() -> usize {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.epoch.elapsed().as_secs_f64();
        STACK.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        });
        if let Ok(mut store) = self.tracer.store.lock() {
            if let Some(span) = store.spans.get_mut(id) {
                span.end = end;
            }
        }
    }
}

impl SpanGuard<'_> {
    /// The span's id (`None` when tracing is off), for children opened
    /// on other threads.
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }

    /// `true` if spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Turns recording on or off (threads already running see the
    /// change at their next span).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Opens a span whose parent is this thread's innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let parent = STACK.with(|stack| stack.borrow().last().copied());
        self.open(name, parent)
    }

    /// Opens a span under an explicit parent (a span of another thread),
    /// or under this thread's innermost span when `parent` is `None`.
    pub fn enter_under(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        match parent {
            Some(parent) if self.enabled() => self.open(name, Some(parent)),
            _ => self.enter(name),
        }
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        let start = self.epoch.elapsed().as_secs_f64();
        let thread = THREAD.with(|t| *t);
        let id = {
            let mut store = self.store.lock().expect("trace store poisoned");
            store.spans.push(SpanRecord {
                name,
                start,
                end: start,
                parent,
                thread,
            });
            store.spans.len() - 1
        };
        STACK.with(|stack| stack.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name);
        f()
    }

    /// Adds `value` to counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled() {
            *self
                .store
                .lock()
                .expect("trace store poisoned")
                .counters
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    /// Raises counter `name` to at least `value`.
    pub fn count_max(&self, name: &'static str, value: f64) {
        if self.enabled() {
            let mut store = self.store.lock().expect("trace store poisoned");
            let slot = store.counters.entry(name).or_insert(0.0);
            *slot = slot.max(value);
        }
    }

    /// A counter's value (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.store
            .lock()
            .expect("trace store poisoned")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// All finished spans, indexed by id.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.store
            .lock()
            .expect("trace store poisoned")
            .spans
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Wall-clock self time per layer name over the span tree under
    /// `root` (the root's own self time included under its name).
    #[must_use]
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        // Self intervals of every span in the tree.
        let mut pieces: Vec<(f64, f64, &'static str)> = Vec::new();
        let mut todo = vec![root];
        while let Some(id) = todo.pop() {
            let span = &spans[id];
            let mut covered: Vec<(f64, f64)> = children[id]
                .iter()
                .map(|&c| (spans[c].start.max(span.start), spans[c].end.min(span.end)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut cursor = span.start;
            for (a, b) in covered {
                if a > cursor {
                    pieces.push((cursor, a, span.name));
                }
                cursor = cursor.max(b);
            }
            if span.end > cursor {
                pieces.push((cursor, span.end, span.name));
            }
            todo.extend(children[id].iter().copied());
        }
        // Sweep the piece boundaries, sharing each elementary segment
        // equally among the pieces active in it.
        let mut bounds: Vec<f64> = pieces.iter().flat_map(|p| [p.0, p.1]).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut by_start = pieces.clone();
        by_start.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut active: Vec<(f64, f64, &'static str)> = Vec::new();
        let mut next = 0;
        for window in bounds.windows(2) {
            let (a, b) = (window[0], window[1]);
            while next < by_start.len() && by_start[next].0 <= a {
                active.push(by_start[next]);
                next += 1;
            }
            active.retain(|p| p.1 > a);
            if active.is_empty() {
                continue;
            }
            let share = (b - a) / active.len() as f64;
            for piece in &active {
                *totals.entry(piece.2).or_insert(0.0) += share;
            }
        }
        totals
    }

    /// Describes every span recorded since `root` opened that is not a
    /// descendant of `root`, or that starts before or ends after its
    /// parent: time such a span covers is missing from, or counted
    /// outside, [`Tracer::self_times`] of `root`.
    #[must_use]
    pub fn misplaced_spans(&self, root: SpanId) -> Vec<String> {
        let spans = self.spans();
        let mut under_root = vec![false; spans.len()];
        let mut problems = Vec::new();
        under_root[root] = true;
        // A parent is recorded before its children, so one pass in id
        // order settles every span.
        for (id, span) in spans.iter().enumerate().skip(root + 1) {
            match span.parent {
                Some(parent) if under_root[parent] => {
                    under_root[id] = true;
                    let outer = &spans[parent];
                    if span.start < outer.start || span.end > outer.end {
                        problems.push(format!(
                            "span {id} ({}) outlives its parent {parent} ({})",
                            span.name, outer.name
                        ));
                    }
                }
                _ => problems.push(format!(
                    "span {id} ({}) is not under the traced run",
                    span.name
                )),
            }
        }
        problems
    }

    /// Writes every span and counter as one JSON object to `path`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (id, span) in self.spans().iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"thread\":{}}}",
                span.name,
                span.start,
                span.end,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.thread
            ));
        }
        out.push_str("],\"counters\":{");
        let store = self.store.lock().expect("trace store poisoned");
        for (i, (name, value)) in store.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_and_share_parallel_overlap() {
        let tracer = Tracer::new(true);
        let root = tracer.enter("job");
        let root_id = root.id();
        std::thread::sleep(std::time::Duration::from_millis(5));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _child = tracer.enter_under("child", root_id);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        drop(root);
        let root_id = root_id.expect("tracing on");
        let spans = tracer.spans();
        let wall = spans[root_id].end - spans[root_id].start;
        let times = tracer.self_times(root_id);
        let total: f64 = times.values().sum();
        assert!((total - wall).abs() < 1e-9, "{total} vs {wall}");
        // Two overlapping 20 ms children share their overlap: their
        // layer is charged about 20 ms of wall time, not 40.
        assert!(times["child"] < 0.035, "{times:?}");
        assert!(times["job"] >= 0.004, "{times:?}");
    }

    #[test]
    fn misplaced_spans_finds_orphans_and_spans_outliving_their_parent() {
        let tracer = Tracer::new(true);
        let root = tracer.enter("run");
        let root_id = root.id().expect("tracing on");
        let child = tracer.enter("layer");
        let child_id = child.id();
        drop(child);
        tracer.span("layer", || {});
        // Beside the two well-placed layer spans: a span on another
        // thread with no parent, and one opened under a span that has
        // already closed.
        std::thread::scope(|scope| {
            scope.spawn(|| tracer.span("orphan", || {}));
        });
        let late = tracer.enter_under("late", child_id);
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(late);
        drop(root);
        let problems = tracer.misplaced_spans(root_id);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("orphan"), "{problems:?}");
        assert!(problems[1].contains("late"), "{problems:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.span("job", || tracer.count("x", 1.0));
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.counter("x"), 0.0);
    }
}
