//! `kv-mix`: a closed-loop key-value service on a `dist::DistMap`. Set-up
//! preloads every key of the key space (each place inserts its share);
//! a round starts the clients — spread round-robin over the places, all
//! under one `finish` — and each client makes its calls one after another:
//! 90% `get` (a blocking round trip to the shard owner, timed one by one)
//! and 10% `insert` (an asynchronous update, mirrored to a replica).
//!
//! Oracle: every stored value encodes its key (`key << 20 | tag`), so every
//! `get` must return `Some(v)` with `v >> 20 == key`; after the last round
//! the map must hold exactly the key space.

use crate::measure::{self, LayerExtras, Round};
use crate::trace::{self, Recorder, Tracer};
use crate::{Opts, Report, SplitMix64};
use apgas::{Ctx, PlaceId};
use dist::DistMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Value tag bits below the key.
const TAG_BITS: u32 = 20;

/// The client loop's parameters (copied into every client activity).
#[derive(Clone, Copy)]
struct Load {
    map: DistMap,
    seed: u64,
    keys: u64,
    ops: usize,
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    get_ns: Vec<u64>,
    bad_gets: u64,
}

pub fn run(opts: &Opts) -> Report {
    let z = &opts.sizes;
    let (places, clients, keys, chunks) = (z.kv_places, z.kv_clients, z.kv_keys, z.kv_chunks);
    let tracer = opts.trace.then(Tracer::new);
    let mut preload_s = Vec::new();
    let s = measure::setup(opts, places, tracer.as_ref(), |rt, rec, parent| {
        let tr = rec.tracer().cloned();
        let (map, secs) = rt.run(move |ctx| {
            let mut rec = Recorder::new(tr.as_ref());
            let span = rec.begin("dist.preload", parent, 0);
            let t = Instant::now();
            let map = DistMap::new(ctx, chunks, false);
            ctx.finish(|c| {
                for p in c.places() {
                    c.at_async(p, move |cc| {
                        let n = cc.num_places() as u64;
                        for key in (u64::from(cc.here().0)..keys).step_by(n as usize) {
                            map.insert(cc, key, key << TAG_BITS);
                        }
                    });
                }
            });
            let secs = t.elapsed().as_secs_f64();
            rec.end(span);
            (map, secs)
        });
        preload_s.push(secs);
        map
    });
    let load = Load {
        map: s.state,
        seed: opts.seed,
        keys,
        ops: z.kv_ops_per_client,
    };
    let mut m = measure::rounds(opts, tracer.as_ref(), |i, tr| {
        let mut rec = Recorder::new(tr);
        let root = rec.begin("bench.round", 0, 0);
        let tr = tr.cloned();
        let (logs, secs, counts) = measure::timed(&s.rt, || {
            s.rt.run(move |ctx| clients_round(ctx, load, i, clients, tr, root))
        });
        rec.end(root);
        let mut get_us = Vec::new();
        let mut failed = 0;
        for l in logs {
            get_us.extend(l.get_ns.iter().map(|&ns| ns as f64 * 1e-3));
            failed += l.bad_gets;
        }
        get_us.sort_by(f64::total_cmp);
        let ops = (clients * load.ops) as u64;
        Round {
            secs,
            counts,
            ops,
            attempted: ops,
            failed,
            call_p50_p99_us: Some((
                measure::percentile(&get_us, 0.50),
                measure::percentile(&get_us, 0.99),
            )),
        }
    });
    let len = s.rt.run(move |ctx| load.map.len(ctx)) as u64;
    m.attempted += 1;
    m.failed += u64::from(len != keys);

    let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    let mut drain: Vec<f64> = trace::child_phases(&spans, "apgas.finish", "bench.client")
        .iter()
        .map(|p| p.1)
        .collect();
    let inserts: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "dist.insert")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
        .collect();
    let mut get_p99: Vec<f64> = m
        .untraced
        .iter()
        .filter_map(|r| r.call_p50_p99_us.map(|p| p.1))
        .collect();
    let extras = LayerExtras {
        get_p99_us: measure::median(&mut get_p99),
        preload_s: measure::median(&mut preload_s),
        insert_call_us: crate::counters::ratio(inserts.iter().sum(), inserts.len() as f64),
        dist_drain_s: measure::median(&mut drain),
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

/// Start every client under one `finish`; returns the clients' logs.
fn clients_round(
    ctx: &Ctx,
    load: Load,
    round: u64,
    clients: usize,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
) -> Vec<ClientLog> {
    let logs = Arc::new(Mutex::new(Vec::with_capacity(clients)));
    let mut rec = Recorder::new(tracer.as_ref());
    let fin = rec.begin("apgas.finish", parent, 0);
    ctx.finish(|c| {
        let places = c.num_places();
        for client in 0..clients {
            let (tr, logs) = (tracer.clone(), logs.clone());
            c.at_async(PlaceId((client % places) as u32), move |cc| {
                let log = client_loop(cc, load, round, client as u64, tr.as_ref(), fin);
                logs.lock().expect("client logs poisoned").push(log);
            });
        }
    });
    rec.end(fin);
    let logs = std::mem::take(&mut *logs.lock().expect("client logs poisoned"));
    logs
}

/// One client's calls, each issued after the previous one returned.
fn client_loop(
    ctx: &Ctx,
    load: Load,
    round: u64,
    client: u64,
    tracer: Option<&Arc<Tracer>>,
    parent: u64,
) -> ClientLog {
    let mut rec = Recorder::new(tracer);
    let span = rec.begin("bench.client", parent, 0);
    let mut rng = SplitMix64::stream(load.seed, round, client);
    let mut log = ClientLog {
        get_ns: Vec::with_capacity(load.ops),
        bad_gets: 0,
    };
    for i in 0..load.ops as u64 {
        // Request ids are unique within a run: round, client, call.
        let req = (round << 40) | (client << 20) | (i + 1);
        let r = rng.next_u64();
        let key = r % load.keys;
        let request = rec.begin("bench.request", span, req);
        if (r >> 32).is_multiple_of(10) {
            let call = rec.begin("dist.insert", request, req);
            let tag = (r >> 40) & ((1 << TAG_BITS) - 1);
            load.map.insert(ctx, key, (key << TAG_BITS) | tag);
            rec.end(call);
        } else {
            let call = rec.begin("dist.get", request, req);
            let t = Instant::now();
            let v = load.map.get(ctx, key);
            log.get_ns.push(t.elapsed().as_nanos() as u64);
            rec.end(call);
            if v.map(|v| v >> TAG_BITS) != Some(key) {
                log.bad_gets += 1;
            }
        }
        rec.end(request);
    }
    rec.end(span);
    log
}
