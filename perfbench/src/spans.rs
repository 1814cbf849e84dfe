//! Spans recorded around the benchmark's own calls into each layer, and
//! the arithmetic that turns them into per-layer self times.
//!
//! A span has a layer, a parent, start and end times, and the calling
//! thread's counter deltas (distribution calls, allocations) over its
//! interval. Spans stay in memory until the iteration ends.
//!
//! Two self times come out of [`analyze`]:
//!
//! * **busy**: a span's duration minus the union of its children's
//!   intervals. Summed over a layer this is thread time: two workers
//!   busy for 1 s each give 2 s.
//! * **wall**: busy time scaled so that a parallel section counts once.
//!   Where a span's children overlap (pool tasks), each child's subtree
//!   is scaled by `union / sum` of the children's durations. The wall
//!   self times of all spans then add up to the root's duration, which
//!   is what the reconciliation against the untraced `wall_s` needs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Simulation kernel classes, as `dses_sim::fast` specializes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Random / Round-Robin / size-interval: no host state read.
    Static,
    /// Least-Work-Left's closed-form argmin over work left.
    WorkLeft,
    /// Opaque policies that read queue lengths (completion heaps).
    QueueLen,
    /// Opaque policies that read only work left.
    Opaque,
    /// Replication lanes fused into one pass.
    Fused,
    /// The event engine (central queue).
    Event,
}

/// The layer a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole workload iteration; its self time is benchmark glue.
    Root,
    /// A `par_map_indexed` call, seen from the submitting thread.
    Par,
    /// One pool task.
    Task,
    /// `Experiment::trace`.
    Trace,
    /// `PolicySpec::build` (including any cutoff solve inside it).
    Build,
    /// An explicit `resolve_cutoff` call.
    Cutoff,
    /// A simulation kernel call.
    Kernel(Kernel),
    /// `sita_slowdown_quantile`.
    Quantile,
    /// `analyze_policy`.
    Analyze,
}

/// Counter readings of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Distribution::sample` calls through the counting wrapper.
    pub samples: u64,
    /// Other `Distribution` calls through the counting wrapper.
    pub queries: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes allocated.
    pub bytes: u64,
}

impl Counts {
    fn now() -> Self {
        let (samples, queries) = crate::counted::thread_counts();
        let (allocs, bytes) = crate::alloc::thread_counts();
        Self {
            samples,
            queries,
            allocs,
            bytes,
        }
    }

    fn minus(self, o: Counts) -> Counts {
        Counts {
            samples: self.samples - o.samples,
            queries: self.queries - o.queries,
            allocs: self.allocs - o.allocs,
            bytes: self.bytes - o.bytes,
        }
    }

    fn add(&mut self, o: Counts) {
        self.samples += o.samples;
        self.queries += o.queries;
        self.allocs += o.allocs;
        self.bytes += o.bytes;
    }
}

/// Identifies a span to its children.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// unique within its tracer, dense from 0
    pub id: SpanId,
    /// the span that caused this one
    pub parent: Option<SpanId>,
    /// what it measures
    pub layer: Layer,
    /// recording thread
    pub thread: u64,
    /// start, ns since the tracer's origin
    pub start_ns: u64,
    /// end, ns since the tracer's origin
    pub end_ns: u64,
    /// work units: jobs for traces and kernels, solves for builds
    pub units: u64,
    /// counter deltas over the span, on its own thread
    pub counts: Counts,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Relaxed);
}

/// Collects the spans of one traced iteration.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Run `f` inside a span of `layer` under `parent`, counting `units`
    /// of work. `f` receives the new span's id for its children.
    pub fn span<R>(
        &self,
        layer: Layer,
        parent: Option<SpanId>,
        units: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Relaxed);
        let c0 = Counts::now();
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        let counts = Counts::now().minus(c0);
        let rec = SpanRec {
            id,
            parent,
            layer,
            thread: THREAD_ID.with(|t| *t),
            start_ns,
            end_ns,
            units,
            counts,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking task")
            .push(rec);
        r
    }

    /// The spans recorded so far, in id order.
    pub fn finish(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking task")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-layer sums over one traced iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// spans of the layer
    pub spans: u64,
    /// summed busy self time, ns
    pub busy_ns: f64,
    /// summed wall self time, ns
    pub wall_ns: f64,
    /// summed full durations, ns
    pub dur_ns: f64,
    /// summed work units
    pub units: u64,
    /// summed self counter deltas
    pub counts: Counts,
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Busy and wall self times plus self counts per layer.
///
/// `spans` must be one tracer's output ([`Tracer::finish`]): ids dense
/// from 0, every parent present.
pub fn analyze(spans: &[SpanRec]) -> BTreeMap<Layer, Totals> {
    let n = spans.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for s in spans {
        assert_eq!(spans[s.id].id, s.id, "span ids must be dense and sorted");
        match s.parent {
            Some(p) => children[p].push(s.id),
            None => roots.push(s.id),
        }
    }
    let mut out: BTreeMap<Layer, Totals> = BTreeMap::new();
    // Depth-first from the roots, carrying each subtree's wall scale.
    let mut stack: Vec<(usize, f64)> = roots.into_iter().map(|r| (r, 1.0)).collect();
    while let Some((i, scale)) = stack.pop() {
        let s = &spans[i];
        let clipped: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        let busy_children: u64 = clipped.iter().map(|(a, b)| b - a).sum();
        let covered = union_len(clipped);
        let dur = s.end_ns - s.start_ns;
        let self_ns = (dur - covered) as f64;
        let mut counts = s.counts;
        for &c in &children[i] {
            if spans[c].thread == s.thread {
                // a same-thread child's deltas are inside ours
                counts = counts.minus(spans[c].counts);
            }
        }
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.busy_ns += self_ns;
        t.wall_ns += self_ns * scale;
        t.dur_ns += dur as f64;
        t.units += s.units;
        t.counts.add(counts);
        let child_scale = if busy_children > 0 {
            scale * covered as f64 / busy_children as f64
        } else {
            scale
        };
        stack.extend(children[i].iter().map(|&c| (c, child_scale)));
    }
    out
}

/// `(untraced wall − Σ wall self time of every layer but the root) /
/// untraced wall`: the share of the untraced run the layers do not
/// explain. The root's self time is benchmark glue, not a layer.
pub fn residual_share(untraced_wall_s: f64, totals: &BTreeMap<Layer, Totals>) -> f64 {
    let layers_s: f64 = totals
        .iter()
        .filter(|(l, _)| **l != Layer::Root)
        .map(|(_, t)| t.wall_ns)
        .sum::<f64>()
        / 1e9;
    (untraced_wall_s - layers_s) / untraced_wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, layer: Layer, thread: u64, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            layer,
            thread,
            start_ns: s,
            end_ns: e,
            units: 0,
            counts: Counts::default(),
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(vec![(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn sequential_children_subtract_from_self_time() {
        let spans = vec![
            rec(0, None, Layer::Root, 0, 0, 100),
            rec(1, Some(0), Layer::Trace, 0, 10, 40),
            rec(2, Some(0), Layer::Build, 0, 50, 70),
        ];
        let t = analyze(&spans);
        assert_eq!(t[&Layer::Root].busy_ns, 50.0);
        assert_eq!(t[&Layer::Trace].wall_ns, 30.0);
        assert_eq!(t[&Layer::Build].wall_ns, 20.0);
        let wall: f64 = t.values().map(|x| x.wall_ns).sum();
        assert_eq!(wall, 100.0, "wall self times add up to the root");
    }

    #[test]
    fn parallel_tasks_count_once_in_wall_time() {
        // two workers run two 80 ns tasks side by side inside a 100 ns
        // par span: busy time doubles, wall time does not
        let spans = vec![
            rec(0, None, Layer::Root, 0, 0, 120),
            rec(1, Some(0), Layer::Par, 0, 10, 110),
            rec(2, Some(1), Layer::Task, 0, 20, 100),
            rec(3, Some(2), Layer::Trace, 0, 20, 100),
            rec(4, Some(1), Layer::Task, 1, 20, 100),
            rec(5, Some(4), Layer::Trace, 1, 20, 100),
        ];
        let t = analyze(&spans);
        assert_eq!(t[&Layer::Trace].busy_ns, 160.0);
        assert_eq!(t[&Layer::Trace].wall_ns, 80.0);
        assert_eq!(t[&Layer::Par].wall_ns, 20.0);
        let wall: f64 = t.values().map(|x| x.wall_ns).sum();
        assert!((wall - 120.0).abs() < 1e-9, "wall {wall}");
        // untraced 120 ns: the layers explain all but the root's 20 ns
        let r = residual_share(120e-9, &t);
        assert!((r - 20.0 / 120.0).abs() < 1e-9, "residual {r}");
    }

    #[test]
    fn counts_are_self_counts_across_threads() {
        let mut spans = vec![
            rec(0, None, Layer::Par, 0, 0, 100),
            rec(1, Some(0), Layer::Trace, 0, 0, 50),
            rec(2, Some(0), Layer::Trace, 1, 0, 50),
        ];
        spans[0].counts.samples = 15; // includes its own thread's child
        spans[1].counts.samples = 10;
        spans[2].counts.samples = 7; // other thread: not inside span 0's
        let t = analyze(&spans);
        assert_eq!(t[&Layer::Par].counts.samples, 5);
        assert_eq!(t[&Layer::Trace].counts.samples, 17);
    }

    #[test]
    fn tracer_records_nested_spans_with_parents() {
        let tr = Tracer::default();
        tr.span(Layer::Root, None, 0, |root| {
            tr.span(Layer::Cutoff, Some(root), 1, |_| std::hint::black_box(3));
        });
        let spans = tr.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(analyze(&spans)[&Layer::Cutoff].units, 1);
    }
}
