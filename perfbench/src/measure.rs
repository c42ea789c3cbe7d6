//! The parts every workload shares: timed set-up, the round loop, and the
//! assembly of the end-to-end and per-layer metrics.

use crate::counters::{proc_status_mb, ratio, Snapshot};
use crate::trace::{self, Recorder, Tracer};
use crate::{Metric, Opts, Report};
use apgas::Runtime;
use std::sync::Arc;
use std::time::Instant;

/// A traced run stops opening traced rounds once this many spans are held,
/// which bounds its memory and the size of the spans file.
pub const SPAN_BUDGET: usize = 200_000;

/// What one round did. `secs` is the time of the round's timed call and
/// `counts` what the runtime counted during it (see [`timed`]).
#[derive(Clone, Debug)]
pub struct Round {
    pub secs: f64,
    pub counts: Snapshot,
    /// Work items completed: tree nodes, updates, or map calls.
    pub ops: u64,
    /// Oracle checks made and failed in this round.
    pub attempted: u64,
    pub failed: u64,
    /// Median and 99th percentile, in µs, of the latencies of the round's
    /// individual blocking calls, when it makes many (`kv-mix` gets).
    /// `None` when the round is itself the call.
    pub call_p50_p99_us: Option<(f64, f64)>,
}

/// A runtime with the workload's state built on it, and the set-up times.
pub struct Setup<S> {
    pub rt: Runtime,
    pub state: S,
    /// Medians over the set-up repetitions.
    pub setup_s: f64,
    pub runtime_new_s: f64,
}

/// Build the runtime and the workload state `opts.sizes.setup_reps` times
/// and keep the last; every repetition is timed.
pub fn setup<S>(
    opts: &Opts,
    places: usize,
    tracer: Option<&Arc<Tracer>>,
    mut init: impl FnMut(&Runtime, &mut Recorder, u64) -> S,
) -> Setup<S> {
    let mut rec = Recorder::new(tracer);
    let (mut total, mut new) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..opts.sizes.setup_reps.max(1) {
        drop(last.take());
        let root = rec.begin("bench.setup", 0, 0);
        let t0 = Instant::now();
        let span = rec.begin("apgas.runtime_new", root, 0);
        let rt = Runtime::new(crate::config(places));
        rec.end(span);
        let t1 = Instant::now();
        let state = init(&rt, &mut rec, root);
        let t2 = Instant::now();
        rec.end(root);
        total.push((t2 - t0).as_secs_f64());
        new.push((t1 - t0).as_secs_f64());
        last = Some((rt, state));
    }
    let (rt, state) = last.expect("at least one set-up");
    Setup {
        rt,
        state,
        setup_s: median(&mut total),
        runtime_new_s: median(&mut new),
    }
}

/// The measured rounds of one run.
pub struct Measured {
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
    /// Runtime counts over the timed calls of all measured rounds.
    pub counts: Snapshot,
    /// Summed time of those calls.
    pub secs: f64,
    /// Oracle totals, warm-up round included.
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident memory through set-up and the warm-up round: a fixed
    /// amount of work, so the figure does not depend on how many rounds
    /// the machine's speed allowed.
    pub peak_rss_mb: f64,
    /// Growth of resident memory over the measured rounds.
    pub rss_growth_mb: f64,
}

impl Measured {
    pub fn rounds(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    pub fn ops(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|r| r.ops)
            .sum()
    }
}

/// Run one checked warm-up round, then measured rounds until
/// `opts.seconds` have passed. With a tracer, rounds alternate untraced
/// and traced (while the span budget lasts); `round` gets the tracer only
/// for traced rounds.
pub fn rounds(
    opts: &Opts,
    tracer: Option<&Arc<Tracer>>,
    mut round: impl FnMut(u64, Option<&Arc<Tracer>>) -> Round,
) -> Measured {
    let warm = round(0, None);
    let rss_after_warm_up = proc_status_mb("VmRSS");
    let start = Instant::now();
    let mut m = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
        counts: Snapshot::default(),
        secs: 0.0,
        attempted: warm.attempted,
        failed: warm.failed,
        peak_rss_mb: proc_status_mb("VmHWM"),
        rss_growth_mb: 0.0,
    };
    for i in 1.. {
        let done = start.elapsed().as_secs_f64() >= opts.seconds;
        if done && !m.untraced.is_empty() && (tracer.is_none() || !m.traced.is_empty()) {
            break;
        }
        let traced = tracer.filter(|t| i % 2 == 0 && t.len() < SPAN_BUDGET);
        let r = round(i, traced);
        eprintln!(
            "perfbench: round {i}{}: {:.4} s, {} ops, {} failed",
            if traced.is_some() { " (traced)" } else { "" },
            r.secs,
            r.ops,
            r.failed
        );
        m.attempted += r.attempted;
        m.failed += r.failed;
        m.counts.add(&r.counts);
        m.secs += r.secs;
        if traced.is_some() {
            m.traced.push(r);
        } else {
            m.untraced.push(r);
        }
    }
    m.rss_growth_mb = proc_status_mb("VmRSS") - rss_after_warm_up;
    m
}

/// Run `call` — a round's timed call — with the runtime's counts taken
/// around it; returns its result, its wall time and the counts.
pub fn timed<R>(rt: &Runtime, call: impl FnOnce() -> R) -> (R, f64, Snapshot) {
    let before = Snapshot::take(rt);
    let t = Instant::now();
    let r = call();
    let secs = t.elapsed().as_secs_f64();
    (r, secs, Snapshot::take(rt).since(&before))
}

/// Median (sorts in place); 0 for no samples.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end metrics, from the untraced rounds only.
///
/// * `ops_per_s` — median over rounds of work items per second.
/// * `latency_p50_us` — median latency of the blocking call the workload
///   makes: where a round makes many (`kv-mix` gets), the median over
///   rounds of each round's median; otherwise the round is the call, and
///   the median is over the rounds' times. There is no end-to-end tail
///   figure: a run has a few dozen rounds, too few for a percentile with
///   ten samples beyond it, so `kv-mix`'s get p99 is a per-layer metric.
pub fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let rounds = &m.untraced;
    let mut rates: Vec<f64> = rounds.iter().map(|r| r.ops as f64 / r.secs).collect();
    let mut p50: Vec<f64> = rounds
        .iter()
        .map(|r| r.call_p50_p99_us.map_or(r.secs * 1e6, |p| p.0))
        .collect();
    vec![
        metric("ops_per_s", median(&mut rates), "1/s"),
        metric("latency_p50_us", median(&mut p50), "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer values only some workloads produce; 0 where a workload does
/// not exercise the layer.
#[derive(Clone, Debug, Default)]
pub struct LayerExtras {
    pub spawn_issue_s: f64,
    pub finish_drain_s: f64,
    pub steal_hit_ratio: f64,
    pub lifeline_gifts: f64,
    pub resuscitations: f64,
    pub imbalance: f64,
    pub seq_nodes_per_s: f64,
    pub parallel_eff: f64,
    pub preload_s: f64,
    pub insert_call_us: f64,
    pub dist_drain_s: f64,
    pub get_p99_us: f64,
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order. Counts are
/// per measured round; span-derived times are per traced round.
pub fn per_layer(
    m: &Measured,
    runtime_new_s: f64,
    tracer: &Tracer,
    x: &LayerExtras,
) -> Vec<Metric> {
    let d = &m.counts;
    let rounds = m.rounds() as f64;
    let flushes = d.counter("coalescer.flush.explicit")
        + d.counter("coalescer.flush.threshold_msgs")
        + d.counter("coalescer.flush.threshold_bytes");
    let arena_hits = d.counter("arena.recycle.hits");
    let arena_takes = arena_hits + d.counter("arena.recycle.misses");
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans, "bench.round");
    let traced = m.traced.len() as f64;
    let self_s = |layer: &str| ratio(selfs.get(layer).copied().unwrap_or(0.0), traced);
    let mut u: Vec<f64> = m.untraced.iter().map(|r| r.secs).collect();
    let mut t: Vec<f64> = m.traced.iter().map(|r| r.secs).collect();
    let (mu, mt) = (median(&mut u), median(&mut t));
    vec![
        metric(
            "x10rt.msgs_per_envelope",
            ratio(d.msgs as f64, d.envelopes as f64),
            "msgs",
        ),
        metric(
            "x10rt.wire_bytes_per_msg",
            ratio(d.envelope_bytes as f64, d.msgs as f64),
            "B",
        ),
        metric(
            "x10rt.ring_overflows",
            d.ring_overflows as f64 / rounds,
            "count",
        ),
        metric(
            "x10rt.arena_hit_ratio",
            ratio(arena_hits as f64, arena_takes as f64),
            "ratio",
        ),
        metric(
            "x10rt.flush_explicit_frac",
            ratio(d.counter("coalescer.flush.explicit") as f64, flushes as f64),
            "ratio",
        ),
        metric(
            "x10rt.msgs_per_op",
            ratio(d.msgs as f64, m.ops() as f64),
            "msgs",
        ),
        metric("x10rt.task_msgs", d.task_msgs as f64 / rounds, "count"),
        metric(
            "x10rt.finish_ctl_msgs",
            d.finish_ctl_msgs as f64 / rounds,
            "count",
        ),
        metric("x10rt.steal_msgs", d.steal_msgs as f64 / rounds, "count"),
        metric("apgas.runtime_new_s", runtime_new_s, "s"),
        metric("apgas.parks_per_s", d.parks as f64 / m.secs, "1/s"),
        metric("apgas.drain_depth_p50", d.drain_depth_p50(), "msgs"),
        metric(
            "apgas.finish_ctl_per_task",
            ratio(d.finish_ctl_msgs as f64, d.task_msgs as f64),
            "ratio",
        ),
        metric("apgas.spawn_issue_s", x.spawn_issue_s, "s"),
        metric("apgas.finish_drain_s", x.finish_drain_s, "s"),
        metric("apgas.rss_growth_mb", m.rss_growth_mb / rounds, "MiB"),
        metric("glb.steal_hit_ratio", x.steal_hit_ratio, "ratio"),
        metric("glb.lifeline_gifts", x.lifeline_gifts, "count"),
        metric("glb.resuscitations", x.resuscitations, "count"),
        metric("glb.imbalance", x.imbalance, "ratio"),
        metric("uts.seq_nodes_per_s", x.seq_nodes_per_s, "1/s"),
        metric("uts.parallel_eff", x.parallel_eff, "ratio"),
        metric("dist.preload_s", x.preload_s, "s"),
        metric("dist.insert_call_us", x.insert_call_us, "us"),
        metric("dist.drain_s", x.dist_drain_s, "s"),
        metric("dist.get_p99_us", x.get_p99_us, "us"),
        metric("self.bench_s", self_s("bench"), "s"),
        metric("self.apgas_s", self_s("apgas"), "s"),
        metric("self.uts_s", self_s("uts"), "s"),
        metric("self.dist_s", self_s("dist"), "s"),
        metric("trace.overhead_pct", ratio(mt - mu, mu) * 100.0, "%"),
    ]
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Assemble the report: end-to-end metrics for an untraced run; for a
/// traced run the per-layer metrics, with the spans and the layer summary
/// written to `opts.out_dir`.
pub fn report(
    opts: &Opts,
    m: &Measured,
    setup_s: f64,
    runtime_new_s: f64,
    tracer: Option<&Arc<Tracer>>,
    extras: &LayerExtras,
) -> Report {
    let metrics = match tracer {
        None => end_to_end(m, setup_s),
        Some(t) => {
            let metrics = per_layer(m, runtime_new_s, t, extras);
            if let Err(e) = write_trace(opts, t, &metrics) {
                eprintln!("perfbench: could not write the trace output: {e}");
            }
            metrics
        }
    };
    Report {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    }
}

/// `<out_dir>/<workload>.spans.tsv` (every span) and
/// `<out_dir>/<workload>.layers.json` (the per-layer metrics).
fn write_trace(opts: &Opts, tracer: &Tracer, metrics: &[Metric]) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let name = opts.workload.name();
    trace::write_spans(
        &opts.out_dir.join(format!("{name}.spans.tsv")),
        &tracer.spans(),
    )?;
    std::fs::write(
        opts.out_dir.join(format!("{name}.layers.json")),
        format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"metrics\": {}}}\n",
            opts.seed,
            crate::metrics_json(metrics)
        ),
    )
}
