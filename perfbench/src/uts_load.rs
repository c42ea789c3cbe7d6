//! `uts-32` and `uts-1024`: the paper's UTS GEO tree (`b0 = 4`, root seed
//! `r = 19`, depth cut-off 11: 5,648,065 nodes) traversed by
//! `uts::run_distributed` under lifeline GLB with a probe interval of 64
//! nodes. One round is one traversal. The workload seed drives the
//! balancer's random victim choice, a fresh stream per round.
//!
//! The tree does not follow the seed: GEO trees of other root seeds differ
//! in size by two orders of magnitude, and even trees of equal size differ
//! by a quarter in throughput at 1,024 places, so a seeded tree would make
//! runs incomparable.
//!
//! Oracle: every traversal's node count equals `uts::traverse` on the same
//! tree. That sequential traversal, run with no runtime at all, is also the
//! single-threaded baseline (`uts.seq_nodes_per_s`).

use crate::measure::{self, LayerExtras, Round};
use crate::trace::{Recorder, Tracer};
use crate::{Opts, Report, SplitMix64};
use glb::{GlbConfig, GlbStatsSummary};
use std::hint::black_box;
use std::time::Instant;
use uts::GeoTree;

/// GLB work units between probes: small, so work spreads and the steal and
/// lifeline paths carry real traffic.
pub const GLB_CHUNK: usize = 64;

pub fn run(opts: &Opts, places: usize) -> Report {
    let tree = GeoTree::paper(opts.sizes.uts_depth);
    let t0 = Instant::now();
    let expected = black_box(uts::traverse(black_box(&tree))).nodes;
    let seq_nodes_per_s = expected as f64 / t0.elapsed().as_secs_f64();

    let tracer = opts.trace.then(Tracer::new);
    let s = measure::setup(opts, places, tracer.as_ref(), |_, _, _| ());
    let mut glb = GlbStatsSummary::default();
    let mut imbalance = Vec::new();
    let m = measure::rounds(opts, tracer.as_ref(), |i, tr| {
        let mut rec = Recorder::new(tr);
        let root = rec.begin("bench.round", 0, 0);
        let run_span = rec.begin("apgas.run", root, 0);
        // A fresh victim-shuffle seed per round, so the median round is
        // not one steal schedule's luck.
        let cfg = GlbConfig {
            chunk: GLB_CHUNK,
            seed: SplitMix64::stream(opts.seed, i, 1).next_u64(),
            ..GlbConfig::default()
        };
        let tr = tr.cloned();
        let (run, secs, counts) = measure::timed(&s.rt, || {
            s.rt.run(move |ctx| {
                let mut rec = Recorder::new(tr.as_ref());
                let span = rec.begin("uts.run_distributed", run_span, 0);
                let run = uts::run_distributed(ctx, tree, cfg);
                rec.end(span);
                run
            })
        });
        rec.end(run_span);
        rec.end(root);
        if i > 0 {
            glb.add(&run.balancer);
            let max = run.per_place_nodes.iter().copied().max().unwrap_or(0) as f64;
            let mean = run.stats.nodes as f64 / run.per_place_nodes.len() as f64;
            imbalance.push(max / mean);
        }
        Round {
            secs,
            counts,
            ops: run.stats.nodes,
            attempted: 1,
            failed: u64::from(run.stats.nodes != expected),
            call_p50_p99_us: None,
        }
    });

    let rounds = m.rounds() as f64;
    let mut rates: Vec<f64> = m.untraced.iter().map(|r| r.ops as f64 / r.secs).collect();
    let extras = LayerExtras {
        steal_hit_ratio: crate::counters::ratio(glb.random_hits as f64, glb.random_attempts as f64),
        lifeline_gifts: glb.lifeline_gifts as f64 / rounds,
        resuscitations: glb.resuscitations as f64 / rounds,
        imbalance: measure::median(&mut imbalance),
        seq_nodes_per_s,
        parallel_eff: measure::median(&mut rates)
            / (crate::EXECUTOR_THREADS as f64 * seq_nodes_per_s),
        ..LayerExtras::default()
    };
    measure::report(
        opts,
        &m,
        s.setup_s,
        s.runtime_new_s,
        tracer.as_ref(),
        &extras,
    )
}
