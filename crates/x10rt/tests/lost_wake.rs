//! Lost-wake stress test of the transport's waker protocol.
//!
//! The receiver here never re-polls on a timer: after a poll comes back
//! empty it sleeps on a condvar that only its registered waker signals. So
//! if a send ever lands without its wake reaching the receiver — the hazard
//! of the empty-poll fast path and the debounced waker — the receiver sleeps
//! forever and the watchdog below fails the test. Several senders mix
//! single sends and batched sends with random pauses so the sends race the
//! receiver's drain, re-arm and sleep at every point; every message must
//! still arrive, in per-pair FIFO order.
//!
//! A lost wake only shows when no later send comes to heal it, so the
//! senders work in short rounds: each sends a few messages, then all wait
//! at a barrier until the receiver has taken the whole round. Every round
//! end is a chance to strand the receiver. More senders than cores let
//! preemption widen the race windows, and each test repeats whole exchanges
//! for a fixed time budget.

use parking_lot::{Condvar, Mutex};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use x10rt::{Envelope, LocalTransport, MsgClass, PlaceId, Transport};

const SENDERS: u32 = 4;
/// Messages each sender sends per round.
const ROUND_MSGS: u64 = 12;
const ROUNDS: u64 = 500;
const RECEIVER: PlaceId = PlaceId(SENDERS);
/// How long one exchange may take before the run counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);
/// How long each test keeps starting fresh exchanges.
const STRESS_TIME: Duration = Duration::from_secs(2);

/// A receiver's sleep: the waker sets `pending` and signals; the receiver
/// consumes `pending` before it sleeps, so a wake that fires between its
/// empty poll and its wait is not missed — but nothing else wakes it.
#[derive(Default)]
struct Doorbell {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    fn ring(&self) {
        *self.pending.lock() = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut pending = self.pending.lock();
        while !*pending {
            self.cv.wait(&mut pending);
        }
        *pending = false;
    }
}

/// A tiny xorshift generator: each sender's pause pattern is seeded, but
/// the interleaving with the receiver is left to the OS scheduler.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn env(from: u32, seq: u64) -> Envelope {
    Envelope::new(PlaceId(from), RECEIVER, MsgClass::Task, 8, Box::new(seq))
}

fn sender(t: Arc<LocalTransport>, rounds: Arc<Barrier>, from: u32) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ u64::from(from + 1));
    let mut seq = 0;
    for round in 1..=ROUNDS {
        let end = round * ROUND_MSGS;
        while seq < end {
            let r = rng.next();
            if r.is_multiple_of(3) {
                t.send(env(from, seq)).unwrap();
                seq += 1;
            } else {
                let n = (1 + (r >> 8) % 8).min(end - seq);
                t.send_batch((seq..seq + n).map(|s| env(from, s)).collect())
                    .unwrap();
                seq += n;
            }
            match (r >> 16) % 32 {
                0 => std::thread::sleep(Duration::from_micros((r >> 24) % 20)),
                1..=8 => std::thread::yield_now(),
                _ => {}
            }
        }
        rounds.wait();
    }
}

/// Receive every round in full, sleeping on the doorbell whenever a poll
/// finds nothing. Poll budgets vary from 1 to 8, so a poll often stops
/// with traffic left behind — the state a re-arm must not strand. Returns
/// how many messages each sender delivered.
fn receiver(t: Arc<LocalTransport>, bell: Arc<Doorbell>, rounds: Arc<Barrier>) -> Vec<u64> {
    let mut next = vec![0u64; SENDERS as usize];
    let mut out = Vec::new();
    let mut polls = 0;
    for _ in 0..ROUNDS {
        let mut left = u64::from(SENDERS) * ROUND_MSGS;
        while left > 0 {
            polls += 1;
            if t.try_recv_batch(RECEIVER, 1 + polls % 8, &mut out) == 0 {
                bell.wait();
                continue;
            }
            for e in out.drain(..) {
                let from = e.from.index();
                let seq = *e.payload.downcast::<u64>().unwrap();
                assert_eq!(seq, next[from], "per-pair FIFO broken for sender {from}");
                next[from] += 1;
                left -= 1;
            }
        }
        rounds.wait();
    }
    next
}

/// Repeat [`exchange`] until the stress budget is spent.
fn stress(ring_capacity: usize) {
    let deadline = Instant::now() + STRESS_TIME;
    while Instant::now() < deadline {
        exchange(ring_capacity);
    }
}

/// One exchange: every sender streams its rounds to the receiver, which
/// must get them all without ever missing a wake.
fn exchange(ring_capacity: usize) {
    let t = Arc::new(LocalTransport::with_ring_capacity(
        SENDERS as usize + 1,
        ring_capacity,
    ));
    let bell = Arc::new(Doorbell::default());
    let b = bell.clone();
    t.register_waker(RECEIVER, Arc::new(move || b.ring()));
    let rounds = Arc::new(Barrier::new(SENDERS as usize + 1));
    let (done_tx, done_rx) = mpsc::channel();
    let (rx_t, rx_rounds) = (t.clone(), rounds.clone());
    let rx = std::thread::spawn(move || {
        let counts = receiver(rx_t, bell, rx_rounds);
        let _ = done_tx.send(counts);
    });
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let (t, rounds) = (t.clone(), rounds.clone());
            std::thread::spawn(move || sender(t, rounds, s))
        })
        .collect();
    // Wait on the receiver first: after a lost wake every thread here stays
    // blocked (the receiver asleep, the senders at the round barrier), so
    // they are joined only once the receiver reports back.
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(counts) => assert_eq!(counts, vec![ROUNDS * ROUND_MSGS; SENDERS as usize]),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "receiver still asleep after {WATCHDOG:?} with {} messages queued: lost wake",
            t.queue_len(RECEIVER)
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("receiver thread died (a FIFO assertion failed)")
        }
    }
    rx.join().unwrap();
    for s in senders {
        s.join().unwrap();
    }
}

#[test]
fn no_lost_wakes_with_ring_lanes() {
    stress(x10rt::DEFAULT_RING_CAPACITY);
}

#[test]
fn no_lost_wakes_through_overflow() {
    // A tiny ring keeps the lanes diving into the overflow side-queue, so
    // the wake protocol races the ring → overflow → ring transitions too.
    stress(8);
}
