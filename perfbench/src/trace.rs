//! Spans recorded by the benchmark's own code around each call into a layer.
//!
//! A span has a name (`layer.call`), a start, an end, its parent span and a
//! request id (shared by the spans of one `kv-mix` request, 0 elsewhere).
//! Each activity records into its own [`Recorder`] — an activity can block
//! and resume on another executor thread, so nothing is thread-local — and
//! hands its spans to the shared [`Tracer`] when it finishes. Spans stay in
//! memory until the run ends and are then written out in one file.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request id; 0 when the span belongs to no request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's span store.
pub struct Tracer {
    epoch: Instant,
    next_recorder: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_recorder: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One activity's span buffer. With no tracer every call is a no-op that
/// reads no clock, so untraced rounds pay only a branch.
pub struct Recorder {
    tracer: Option<Arc<Tracer>>,
    base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(tracer: Option<&Arc<Tracer>>) -> Recorder {
        let base = tracer.map_or(0, |t| t.next_recorder.fetch_add(1, Ordering::Relaxed) << 32);
        Recorder {
            tracer: tracer.cloned(),
            base,
            spans: Vec::new(),
        }
    }

    /// The tracer this recorder feeds, for activities it starts.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Open a span; returns its id (0 when tracing is off).
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let Some(t) = &self.tracer else {
            return 0;
        };
        let id = self.base | (self.spans.len() as u64 + 1);
        let now = t.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: u64) {
        if let Some(t) = &self.tracer {
            let idx = (id & 0xFFFF_FFFF) as usize - 1;
            self.spans[idx].end_ns = t.now_ns();
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            if let Ok(mut all) = t.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}

/// Self time per layer, in seconds, summed over the spans that descend
/// from a root named `root`: each span's duration minus the part of it its
/// children cover (children of one parent may overlap — the per-place
/// loops of one `finish` run side by side — so their union is subtracted).
pub fn self_times(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let under_root = |mut i: usize| -> bool {
        loop {
            let s = &spans[i];
            match index.get(&s.parent) {
                Some(&p) => i = p,
                None => return s.parent == 0 && s.name == root,
            }
        }
    };
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !under_root(i) {
            continue;
        }
        let mut iv: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&j| {
                        let c = &spans[j];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer()).or_insert(0.0) += (s.dur_ns() - covered) as f64 * 1e-9;
    }
    out
}

/// For each span named `parent` with children named `child`: the summed
/// duration of those children, and the tail from the last child's end to
/// the parent's end (how long a `finish` waited after its last loop).
pub fn child_phases(spans: &[Span], parent: &str, child: &str) -> Vec<(f64, f64)> {
    let mut by_parent: HashMap<u64, (u64, u64)> = HashMap::new();
    for c in spans.iter().filter(|s| s.name == child) {
        let e = by_parent.entry(c.parent).or_insert((0, 0));
        e.0 += c.dur_ns();
        e.1 = e.1.max(c.end_ns);
    }
    spans
        .iter()
        .filter(|s| s.name == parent)
        .filter_map(|p| {
            let (busy, last_end) = by_parent.get(&p.id)?;
            Some((
                *busy as f64 * 1e-9,
                p.end_ns.saturating_sub(*last_end) as f64 * 1e-9,
            ))
        })
        .collect()
}

/// Write every span as one tab-separated line:
/// `id parent req name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "bench.round", 0, 100),
            span(2, 1, "apgas.finish", 10, 90),
            span(3, 2, "apgas.spawn_issue", 20, 50),
            span(4, 2, "apgas.spawn_issue", 40, 60),
            span(5, 0, "bench.setup", 0, 1000),
        ];
        let t = self_times(&spans, "bench.round");
        assert!((t["bench"] - 20e-9).abs() < 1e-15);
        // finish: 80 minus the union [20, 60) of its children; the two
        // loops: 30 + 20.
        assert!((t["apgas"] - (40e-9 + 50e-9)).abs() < 1e-15);
    }

    #[test]
    fn recorder_ids_link_across_recorders() {
        let t = Tracer::new();
        let mut a = Recorder::new(Some(&t));
        let root = a.begin("bench.round", 0, 0);
        {
            let mut b = Recorder::new(Some(&t));
            let child = b.begin("dist.get", root, 7);
            b.end(child);
        }
        a.end(root);
        drop(a);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "dist.get").unwrap();
        assert_eq!(child.parent, root);
        assert_eq!(child.req, 7);
        let off = Recorder::new(None).begin("x.y", 0, 0);
        assert_eq!(off, 0);
    }
}
