//! Property tests of the SPSC-ring mailbox fast path, run at deliberately
//! tiny ring capacities so wraparound and the overflow side-queue — the
//! paths a default-sized ring almost never exercises — are hit constantly.
//! These mirror the invariants `transport_props.rs` checks at the default
//! capacity: per-pair FIFO, conservation, and waker-debounce liveness.

use proptest::prelude::*;
use std::sync::Arc;
use x10rt::{recv_one, Envelope, LocalTransport, MsgClass, PlaceId, SpscRing, Transport};

fn env(from: u32, to: u32, tag: u64) -> Envelope {
    Envelope::new(PlaceId(from), PlaceId(to), MsgClass::Task, 8, Box::new(tag))
}

fn tag_of(from: u32, to: u32, seq: u64) -> u64 {
    ((from as u64) << 40) | ((to as u64) << 32) | seq
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// FIFO and conservation survive arbitrary push/pop interleavings across
    /// many wraparounds of a tiny ring.
    #[test]
    fn ring_fifo_across_wraparound(
        ops in prop::collection::vec(any::<bool>(), 1..300),
        cap in 1usize..9
    ) {
        let r = SpscRing::new(cap);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for &push in &ops {
            if push {
                match r.push(next_push) {
                    Ok(()) => next_push += 1,
                    Err(v) => prop_assert_eq!(v, next_push, "rejected value mangled"),
                }
            } else {
                match r.pop() {
                    Some(v) => {
                        prop_assert_eq!(v, next_pop, "FIFO violated");
                        next_pop += 1;
                    }
                    None => prop_assert_eq!(next_pop, next_push, "empty pop lost items"),
                }
            }
            prop_assert_eq!(r.len() as u64, next_push - next_pop);
        }
        // Drain the remainder: everything pushed comes out, in order.
        while let Some(v) = r.pop() {
            prop_assert_eq!(v, next_pop);
            next_pop += 1;
        }
        prop_assert_eq!(next_pop, next_push);
    }

    /// With rings far smaller than the traffic, most envelopes divert to the
    /// overflow side-queues — per-pair FIFO and conservation must hold
    /// across the ring → overflow → ring transitions, for any interleaving
    /// and any receive chunking.
    #[test]
    fn overflow_preserves_per_pair_fifo(
        sends in prop::collection::vec((0u32..4, 0u32..4), 1..200),
        cap in 1usize..5,
        chunk in 1usize..9
    ) {
        let t = LocalTransport::with_ring_capacity(4, cap);
        let mut seq = [[0u64; 4]; 4];
        for &(from, to) in &sends {
            let s = seq[from as usize][to as usize];
            seq[from as usize][to as usize] += 1;
            t.send(env(from, to, tag_of(from, to, s))).unwrap();
        }
        let mut seen = [[0u64; 4]; 4];
        let mut total = 0usize;
        for place in 0..4u32 {
            let mut out = Vec::new();
            while t.try_recv_batch(PlaceId(place), chunk, &mut out) > 0 {
                for e in out.drain(..) {
                    let tag = *e.payload.downcast::<u64>().unwrap();
                    let from = (tag >> 40) as usize;
                    let to = ((tag >> 32) & 0xff) as usize;
                    let s = tag & 0xffff_ffff;
                    prop_assert_eq!(to as u32, place);
                    prop_assert_eq!(s, seen[from][to], "per-pair FIFO violated");
                    seen[from][to] += 1;
                    total += 1;
                }
            }
        }
        prop_assert_eq!(total, sends.len());
        // Bursts longer than ring capacity must have engaged the overflow.
        let max_pair = seq.iter().flatten().copied().max().unwrap_or(0);
        if max_pair > t.ring_capacity() as u64 {
            prop_assert!(t.stats().total_ring_overflows() > 0);
        }
    }

    /// Interleaving receives between sends (so lanes oscillate between ring
    /// mode and overflow mode) never reorders or loses messages.
    #[test]
    fn mixed_send_recv_oscillates_overflow_mode(
        steps in prop::collection::vec(any::<bool>(), 1..300),
        cap in 1usize..4
    ) {
        let t = LocalTransport::with_ring_capacity(2, cap);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for &send in &steps {
            if send {
                t.send(env(0, 1, pushed)).unwrap();
                pushed += 1;
            } else if let Some(e) = recv_one(&t, PlaceId(1)) {
                prop_assert_eq!(*e.payload.downcast::<u64>().unwrap(), popped);
                popped += 1;
            }
            prop_assert_eq!(t.queue_len(PlaceId(1)) as u64, pushed - popped);
        }
        while let Some(e) = recv_one(&t, PlaceId(1)) {
            prop_assert_eq!(*e.payload.downcast::<u64>().unwrap(), popped);
            popped += 1;
        }
        prop_assert_eq!(popped, pushed);
    }
}

/// The waker-liveness harness from `transport_props.rs`, re-run over a
/// 2-slot ring so nearly every send crosses the overflow side-queue: the
/// empty→non-empty edge, the re-arm race and the overflow handoff all
/// interleave under 4 producer threads. A lost wakeup fails the 5-second
/// condvar timeout.
#[test]
fn debounced_waker_survives_constant_overflow() {
    use parking_lot::{Condvar, Mutex};
    use std::time::Duration;

    const SENDERS: u64 = 4;
    const PER_SENDER: u64 = 5_000;
    const TOTAL: u64 = SENDERS * PER_SENDER;

    let t = Arc::new(LocalTransport::with_ring_capacity(2, 2));
    let state = Arc::new((Mutex::new(false), Condvar::new()));

    let s2 = state.clone();
    t.register_waker(
        PlaceId(1),
        Arc::new(move || {
            let (flag, cv) = &*s2;
            *flag.lock() = true;
            cv.notify_all();
        }),
    );

    let producers: Vec<_> = (0..SENDERS)
        .map(|s| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    t.send(env(0, 1, (s << 32) | i)).unwrap();
                }
            })
        })
        .collect();

    let mut got = 0u64;
    let mut out = Vec::new();
    while got < TOTAL {
        let n = t.try_recv_batch(PlaceId(1), 1024, &mut out);
        if n > 0 {
            got += n as u64;
            out.clear();
            continue;
        }
        let (flag, cv) = &*state;
        let mut pending = flag.lock();
        if !*pending && t.queue_len(PlaceId(1)) == 0 {
            let r = cv.wait_for(&mut pending, Duration::from_secs(5));
            assert!(
                !r.timed_out(),
                "lost wakeup: {got}/{TOTAL} received, queue empty, no notify in 5s"
            );
        }
        *pending = false;
    }
    assert_eq!(got, TOTAL);
    assert!(
        t.stats().total_ring_overflows() > 0,
        "2-slot rings under 4 producers must overflow"
    );
    for p in producers {
        p.join().unwrap();
    }
}

/// Concurrent per-pair senders at tiny capacity: each pair's FIFO holds even
/// while other pairs' lanes overflow and drain concurrently.
#[test]
fn concurrent_pairs_keep_fifo_under_overflow() {
    let t = Arc::new(LocalTransport::with_ring_capacity(3, 4));
    const PER_SENDER: u64 = 2_000;
    let producers: Vec<_> = (0..2u32)
        .map(|s| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    t.send(env(s, 2, ((s as u64) << 32) | i)).unwrap();
                }
            })
        })
        .collect();
    let mut next = [0u64; 2];
    let mut got = 0u64;
    let mut out = Vec::new();
    while got < 2 * PER_SENDER {
        let n = t.try_recv_batch(PlaceId(2), 256, &mut out);
        for e in out.drain(..) {
            let tag = *e.payload.downcast::<u64>().unwrap();
            let s = (tag >> 32) as usize;
            assert_eq!(tag & 0xffff_ffff, next[s], "sender {s} FIFO violated");
            next[s] += 1;
        }
        got += n as u64;
        if n == 0 {
            std::hint::spin_loop();
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(next, [PER_SENDER; 2]);
}
