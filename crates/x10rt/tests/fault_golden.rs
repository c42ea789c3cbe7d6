//! Golden seed-stability tests for the fault decorator's decision stream.
//!
//! Chaos runs and DST repro lines are only as durable as the mapping from
//! `(seed, pair, class, sequence)` to fault decisions: if a refactor of the
//! decision hash silently reshuffles which sends get dropped or delayed, a
//! `SIM-REPRO` line recorded yesterday replays a *different* run today and
//! every seed corpus goes stale. These tests pin the observable decision
//! pattern for fixed seeds so such a change has to be made consciously
//! (update the goldens **and** invalidate recorded corpora/repro lines —
//! see TESTING.md).

use std::sync::Arc;
use x10rt::{
    recv_one, ClassFaults, Envelope, FaultPlan, FaultTransport, LocalTransport, MsgClass, PlaceId,
    Transport,
};

const PLACES: usize = 4;

fn env(from: u32, to: u32, class: MsgClass, tag: u64) -> Envelope {
    Envelope::new(PlaceId(from), PlaceId(to), class, 64, Box::new(tag))
}

/// Send `n` tagged envelopes 0→1 of `class` through a fresh decorator over
/// `plan`, then drain place 1 and return the delivered-tag bitmask (bit i
/// set ⇔ tag i came out at least once) plus the number of envelopes that
/// came out (counts duplicates).
fn delivered_pattern(plan: FaultPlan, class: MsgClass, n: u64) -> (u64, u64) {
    assert!(n <= 64);
    let t = FaultTransport::new(Arc::new(LocalTransport::new(PLACES)), plan);
    for tag in 0..n {
        // Drops and delays are "the wire lost/held it", not send errors.
        t.send(env(0, 1, class, tag)).unwrap();
    }
    // Advance the logical clock far enough that every held (delayed)
    // envelope has been released back into the inner transport.
    while t.held_len() > 0 {
        t.poke();
    }
    let mut mask = 0u64;
    let mut count = 0u64;
    while let Some(e) = recv_one(&t, PlaceId(1)) {
        // Delay markers and duplicates both resolve to real payloads here;
        // phantom duplicate markers are filtered by the decorator itself.
        let tag = *e.payload.downcast::<u64>().unwrap();
        mask |= 1 << tag;
        count += 1;
    }
    (mask, count)
}

#[test]
fn drop_decisions_are_a_pure_function_of_the_seed() {
    let plan = || FaultPlan::new(0x601D).class(MsgClass::Task, ClassFaults::dropping(0.5));
    let (mask, count) = delivered_pattern(plan(), MsgClass::Task, 64);
    // Golden: which of the 64 sends survived seed 0x601D. A change here
    // means the decision hash changed and all recorded corpora are stale.
    assert_eq!(mask, 0xddbe_af1f_79d2_a394, "drop pattern moved");
    assert_eq!(count, mask.count_ones() as u64);
    // Replays bit-for-bit.
    assert_eq!(delivered_pattern(plan(), MsgClass::Task, 64).0, mask);
}

#[test]
fn decisions_are_class_and_seed_sensitive() {
    let base = FaultPlan::new(0x601D).all_classes(ClassFaults::dropping(0.5));
    let (task_mask, _) = delivered_pattern(base.clone(), MsgClass::Task, 64);
    let (ctl_mask, _) = delivered_pattern(base, MsgClass::FinishCtl, 64);
    // Independent draws per class: same pair, same seq, different stream.
    assert_ne!(task_mask, ctl_mask, "classes must draw independently");
    let reseeded = FaultPlan::new(0x601E).all_classes(ClassFaults::dropping(0.5));
    let (reseeded_mask, _) = delivered_pattern(reseeded, MsgClass::Task, 64);
    assert_ne!(task_mask, reseeded_mask, "seed must steer the decisions");
}

#[test]
fn delay_release_pattern_is_stable() {
    let plan = || {
        FaultPlan::new(0xDE1A7)
            .class(MsgClass::Task, ClassFaults::delaying(0.5))
            .delay_steps(1, 6)
    };
    let run = || {
        let t = FaultTransport::new(Arc::new(LocalTransport::new(PLACES)), plan());
        for tag in 0..16u64 {
            t.send(env(0, 1, MsgClass::Task, tag)).unwrap();
        }
        while t.held_len() > 0 {
            t.poke();
        }
        let mut order = Vec::new();
        while let Some(e) = recv_one(&t, PlaceId(1)) {
            order.push(*e.payload.downcast::<u64>().unwrap());
        }
        (order, t.fault_counts().delayed)
    };
    let (order, delayed) = run();
    // Goldens: how many sends were held, and — the load-bearing FIFO
    // invariant — that releases merge back *in per-pair order*: a delay
    // must never reorder one sender's stream to one destination.
    assert_eq!(delayed, 9, "delay decision count moved");
    assert_eq!(
        order,
        (0..16).collect::<Vec<u64>>(),
        "delays reordered a per-pair FIFO stream"
    );
    assert_eq!(run().0, order, "delay pattern must replay");
}

#[test]
fn duplicate_decisions_are_stable() {
    let plan = FaultPlan::new(0xD0_D0).class(MsgClass::Task, ClassFaults::duplicating(0.25));
    let t = FaultTransport::new(Arc::new(LocalTransport::new(PLACES)), plan);
    for tag in 0..32u64 {
        t.send(env(0, 1, MsgClass::Task, tag)).unwrap();
    }
    let mut mask = 0u64;
    let mut count = 0u64;
    while let Some(e) = recv_one(&t, PlaceId(1)) {
        mask |= 1 << *e.payload.downcast::<u64>().unwrap();
        count += 1;
    }
    // Nothing dropped and no phantom surfaces: every tag arrives exactly
    // once (duplicates are wire-level phantoms the decorator filters back
    // out at recv — they stress the transport beneath, not the runtime).
    assert_eq!(mask, 0xffff_ffff);
    assert_eq!(count, 32);
    // The golden number of phantom duplicates was injected and filtered.
    let counts = t.fault_counts();
    assert_eq!(counts.duplicated, 10, "duplicate decision pattern moved");
    assert_eq!(counts.filtered, 10, "phantom filter leaked or over-ate");
}
