//! The batch-granular receive path end to end.
//!
//! A receiver dispatches each coalesced envelope as a unit: it charges a
//! run of same-sender, same-finish spawns in one accounting step, settles
//! that run before it handles any control message inside the batch, and
//! enqueues the batch's activities together. These tests drive that path
//! with RandomAccess-style XOR updates from every place to every place —
//! so each receiver drains batches from several senders — in both spawn
//! wire forms (typed `SpawnMsg` and serialized `H_SPAWN`), under a default
//! and a resilient finish. Under the resilient finish every command spawn
//! to a third place also sends a `CmdLog` to the finish home, which lands
//! between spawns in the sender's batch to the home. Two passes of the same
//! streams must XOR every table word back to zero, and no finish state may
//! be left anywhere.

use apgas::{CodecMode, Config, Ctx, FinishKind, HandlerId, PlaceId, PlaceLocalHandle, Runtime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use x10rt::transport::Waker;
use x10rt::{BatchPayload, Envelope, LocalTransport, MsgClass, NetStats, SendError, Transport};

const PLACES: usize = 4;
const WORDS: usize = 256;
/// Updates each place issues per pass.
const UPDATES: u64 = 3_000;
const H_XOR: HandlerId = HandlerId(2100);

type Table = PlaceLocalHandle<Vec<AtomicU64>>;

/// A pass-through transport that counts received batches holding a
/// finish-control message with task messages on both sides of it — the
/// shape whose accounting order these tests are about.
struct CountMidBatchCtl {
    inner: LocalTransport,
    mid_batch_ctl: AtomicU64,
}

fn ctl_between_tasks(batch: &BatchPayload) -> bool {
    let is_task = |e: &Envelope| e.class == MsgClass::Task;
    batch.envs.iter().enumerate().any(|(i, e)| {
        e.class == MsgClass::FinishCtl
            && batch.envs[..i].iter().any(is_task)
            && batch.envs[i + 1..].iter().any(is_task)
    })
}

impl Transport for CountMidBatchCtl {
    fn send(&self, env: Envelope) -> Result<(), SendError> {
        self.inner.send(env)
    }

    fn send_batch(&self, envs: Vec<Envelope>) -> Result<(), SendError> {
        self.inner.send_batch(envs)
    }

    fn try_recv_batch(&self, place: PlaceId, max: usize, out: &mut Vec<Envelope>) -> usize {
        let before = out.len();
        let n = self.inner.try_recv_batch(place, max, out);
        let seen = out[before..]
            .iter()
            .filter_map(|e| e.payload.downcast_ref::<BatchPayload>())
            .filter(|b| ctl_between_tasks(b))
            .count();
        self.mid_batch_ctl.fetch_add(seen as u64, Ordering::Relaxed);
        n
    }

    fn register_waker(&self, place: PlaceId, waker: Waker) {
        self.inner.register_waker(place, waker)
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn num_places(&self) -> usize {
        self.inner.num_places()
    }

    fn queue_len(&self, place: PlaceId) -> usize {
        self.inner.queue_len(place)
    }
}

fn xor(table: &[AtomicU64], r: u64) {
    table[r as usize % table.len()].fetch_xor(r, Ordering::Relaxed);
}

/// SplitMix64 over a per-(stream, place) seed: the same streams replay
/// the same updates.
fn stream_rng(stream: u64, place: u32) -> impl FnMut() -> u64 {
    let mut s = stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(place + 1) << 32;
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One pass of every place's update stream under one `kind` finish: most
/// updates are closure spawns, every eighth a command spawn.
fn pass(ctx: &Ctx, table: Table, kind: FinishKind, stream: u64) {
    ctx.finish_pragma(kind, |c| {
        for p in c.places() {
            c.at_async(p, move |cc| {
                let places = cc.num_places() as u64;
                let mut rng = stream_rng(stream, cc.here().0);
                for i in 0..UPDATES {
                    let r = rng();
                    let owner = PlaceId(((r >> 32) % places) as u32);
                    if i % 8 == 7 {
                        cc.at_async_cmd(owner, H_XOR, r.to_le_bytes().to_vec());
                    } else {
                        cc.at_async(owner, move |c| xor(&table.get(c), r));
                    }
                }
            });
        }
    });
}

/// Run two passes of each finish kind on a runtime built from `cfg` and
/// check the oracles. Returns how many mid-batch control messages the
/// receivers saw.
fn run(cfg: Config) -> u64 {
    let transport = Arc::new(CountMidBatchCtl {
        inner: LocalTransport::new(PLACES),
        mid_batch_ctl: AtomicU64::new(0),
    });
    let rt = Runtime::with_transport(cfg, transport.clone());
    let table: Table = rt.run(|ctx| {
        PlaceLocalHandle::init(ctx, &apgas::PlaceGroup::world(ctx), |_| {
            (0..WORDS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>()
        })
    });
    rt.register_handler(H_XOR, move |c, args| {
        xor(
            &table.get(c),
            u64::from_le_bytes(args.try_into().expect("8-byte update")),
        )
    });
    for (stream, kind) in [(1, FinishKind::Default), (2, FinishKind::Resilient)] {
        for _ in 0..2 {
            rt.run(move |ctx| pass(ctx, table, kind, stream));
        }
        let nonzero: usize = rt.run(move |ctx| {
            ctx.places()
                .map(|p| {
                    ctx.at(p, move |c| {
                        table
                            .get(c)
                            .iter()
                            .filter(|w| w.load(Ordering::Relaxed) != 0)
                            .count()
                    })
                })
                .sum()
        });
        assert_eq!(nonzero, 0, "{kind:?}: table words not XORed back to zero");
        let residue = rt.finish_residue();
        assert!(residue.is_clean(), "{kind:?}: finish residue {residue:?}");
    }
    let stats = rt.net_stats();
    assert!(
        stats.total_envelopes() < stats.total_messages(),
        "aggregation must pack messages into batches"
    );
    transport.mid_batch_ctl.load(Ordering::Relaxed)
}

#[test]
fn batched_receipts_balance_with_typed_spawns() {
    assert!(
        run(Config::new(PLACES)) > 0,
        "no finish-ctl landed mid-batch"
    );
}

#[test]
fn batched_receipts_balance_with_serialized_spawns() {
    assert!(
        run(Config::new(PLACES).codec(CodecMode::Bytes)) > 0,
        "no finish-ctl landed mid-batch"
    );
}

#[test]
fn batched_receipts_balance_with_causal_tracing() {
    assert!(
        run(Config::new(PLACES).causal_enable(true)) > 0,
        "no finish-ctl landed mid-batch"
    );
}
