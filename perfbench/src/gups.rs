//! `gups-msgs`: message-path RandomAccess. Every place holds a table of
//! `2^k` words; each place's generation loop sends `2 · 2^k` tiny XOR
//! updates, each an `at_async` to the owner named by a seeded random word,
//! all under one default `finish`. One round is one such pass. Rounds come
//! in pairs: the odd round replays the even round's streams, which must
//! return every table word to 0 — the oracle, checked after every pair
//! (and after an extra, untimed replay when the run ends on an even
//! round): each non-zero word is one failed operation.

use crate::measure::{self, LayerExtras, Round};
use crate::trace::{self, Recorder, Tracer};
use crate::{Opts, Report, SplitMix64};
use apgas::{Ctx, PlaceGroup, PlaceId, PlaceLocalHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Table = PlaceLocalHandle<Vec<AtomicU64>>;

pub fn run(opts: &Opts) -> Report {
    let places = opts.sizes.gups_places;
    let words = 1usize << opts.sizes.gups_log2_words;
    let tracer = opts.trace.then(Tracer::new);
    let s = measure::setup(opts, places, tracer.as_ref(), |rt, _, _| {
        rt.run(move |ctx| {
            PlaceLocalHandle::init(ctx, &PlaceGroup::world(ctx), move |_| {
                (0..words).map(|_| AtomicU64::new(0)).collect::<Vec<_>>()
            })
        })
    });
    let table = s.state;
    let seed = opts.seed;
    let updates = (places * 2 * words) as u64;
    let nonzero = |rt: &apgas::Runtime| {
        rt.run(move |ctx| {
            ctx.places()
                .map(|p| {
                    ctx.at(p, move |c| {
                        let t = table.get(c);
                        t.iter().filter(|w| w.load(Ordering::Relaxed) != 0).count() as u64
                    })
                })
                .sum::<u64>()
        })
    };
    let mut last = 0;
    let mut m = measure::rounds(opts, tracer.as_ref(), |i, tr| {
        last = i;
        let mut rec = Recorder::new(tr);
        let root = rec.begin("bench.round", 0, 0);
        let tr = tr.cloned();
        let ((), secs, counts) = measure::timed(&s.rt, || {
            s.rt.run(move |ctx| pass(ctx, table, seed, i / 2, tr.as_ref(), root))
        });
        rec.end(root);
        // Odd rounds replay the even round before them: the table is back
        // to all zeros.
        let failed = if i % 2 == 1 { nonzero(&s.rt) } else { 0 };
        Round {
            secs,
            counts,
            ops: updates,
            attempted: updates,
            failed,
            call_p50_p99_us: None,
        }
    });
    if last % 2 == 0 {
        s.rt.run(move |ctx| pass(ctx, table, seed, last / 2, None, 0));
        m.failed += nonzero(&s.rt);
    }

    let phases = tracer
        .as_ref()
        .map(|t| trace::child_phases(&t.spans(), "apgas.finish", "apgas.spawn_issue"))
        .unwrap_or_default();
    let mut issue: Vec<f64> = phases.iter().map(|p| p.0).collect();
    let mut drain: Vec<f64> = phases.iter().map(|p| p.1).collect();
    let extras = LayerExtras {
        spawn_issue_s: measure::median(&mut issue),
        finish_drain_s: measure::median(&mut drain),
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

/// One update pass of the streams numbered `stream` under one default
/// `finish`. Running the same streams twice XORs every word back to its
/// value before the first.
fn pass(
    ctx: &Ctx,
    table: Table,
    seed: u64,
    stream: u64,
    tracer: Option<&Arc<Tracer>>,
    parent: u64,
) {
    let mut rec = Recorder::new(tracer);
    let fin = rec.begin("apgas.finish", parent, 0);
    ctx.finish(|c| {
        for p in c.places() {
            let tr = tracer.cloned();
            c.at_async(p, move |cc| {
                let mut rec = Recorder::new(tr.as_ref());
                let span = rec.begin("apgas.spawn_issue", fin, 0);
                let places = cc.num_places() as u64;
                let words = table.get(cc).len();
                let mut rng = SplitMix64::stream(seed, stream, u64::from(cc.here().0));
                for _ in 0..2 * words {
                    let r = rng.next_u64();
                    let owner = PlaceId(((r >> 32) % places) as u32);
                    cc.at_async(owner, move |c| {
                        let t = table.get(c);
                        t[r as usize & (t.len() - 1)].fetch_xor(r, Ordering::Relaxed);
                    });
                }
                rec.end(span);
            });
        }
    });
    rec.end(fin);
}
