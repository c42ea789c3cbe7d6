//! Counters the runtime crates already expose, read from outside:
//! `x10rt::NetStats`, `Runtime::metrics_json` and `Runtime::total_parks`.
//! A [`Snapshot`] is taken before and after each round's timed call; the
//! difference is what that call did.

use apgas::{MsgClass, Runtime};
use std::collections::BTreeMap;

/// Histogram name and bucket bounds, as the runtime registers them.
const DRAIN_DEPTH: &str = "mailbox.drain_depth";

#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Logical messages sent, all classes.
    pub msgs: u64,
    /// Physical envelopes handed to the transport.
    pub envelopes: u64,
    /// Physical wire bytes handed to the transport.
    pub envelope_bytes: u64,
    pub ring_overflows: u64,
    pub task_msgs: u64,
    pub finish_ctl_msgs: u64,
    pub steal_msgs: u64,
    pub parks: u64,
    /// Every counter of the metrics registry, by name.
    pub counters: BTreeMap<String, u64>,
    /// `mailbox.drain_depth`: bucket upper bounds and counts (the last
    /// count is the overflow bucket).
    pub drain_bounds: Vec<u64>,
    pub drain_counts: Vec<u64>,
}

impl Snapshot {
    pub fn take(rt: &Runtime) -> Snapshot {
        let net = rt.net_stats();
        let mut s = Snapshot {
            msgs: net.total_messages(),
            envelopes: net.total_envelopes(),
            envelope_bytes: net.envelope_bytes(),
            ring_overflows: net.total_ring_overflows(),
            task_msgs: net.class(MsgClass::Task).messages,
            finish_ctl_msgs: net.class(MsgClass::FinishCtl).messages,
            steal_msgs: net.class(MsgClass::Steal).messages,
            parks: rt.total_parks(),
            ..Snapshot::default()
        };
        let Some(json) = rt.metrics_json() else {
            return s;
        };
        let v = serde_json::from_str(&json).expect("metrics_json is valid JSON");
        if let Some(m) = v.get("counters").and_then(|c| c.as_object()) {
            for (name, val) in m {
                s.counters.insert(name.clone(), val.as_u64().unwrap_or(0));
            }
        }
        if let Some(h) = v.get("histograms").and_then(|h| h.get(DRAIN_DEPTH)) {
            let nums = |key: &str| -> Vec<u64> {
                h.get(key)
                    .and_then(|a| a.as_array())
                    .map(|a| a.iter().map(|x| x.as_u64().unwrap_or(0)).collect())
                    .unwrap_or_default()
            };
            s.drain_bounds = nums("bounds");
            s.drain_counts = nums("counts");
        }
        s
    }

    /// `self − before`, counter by counter.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let b = before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        let drain_counts = self
            .drain_counts
            .iter()
            .enumerate()
            .map(|(i, c)| c.saturating_sub(before.drain_counts.get(i).copied().unwrap_or(0)))
            .collect();
        Snapshot {
            msgs: self.msgs - before.msgs,
            envelopes: self.envelopes - before.envelopes,
            envelope_bytes: self.envelope_bytes - before.envelope_bytes,
            ring_overflows: self.ring_overflows - before.ring_overflows,
            task_msgs: self.task_msgs - before.task_msgs,
            finish_ctl_msgs: self.finish_ctl_msgs - before.finish_ctl_msgs,
            steal_msgs: self.steal_msgs - before.steal_msgs,
            parks: self.parks - before.parks,
            counters,
            drain_bounds: self.drain_bounds.clone(),
            drain_counts,
        }
    }

    /// Add `other`'s counts to these (summing per-round deltas).
    pub fn add(&mut self, other: &Snapshot) {
        self.msgs += other.msgs;
        self.envelopes += other.envelopes;
        self.envelope_bytes += other.envelope_bytes;
        self.ring_overflows += other.ring_overflows;
        self.task_msgs += other.task_msgs;
        self.finish_ctl_msgs += other.finish_ctl_msgs;
        self.steal_msgs += other.steal_msgs;
        self.parks += other.parks;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        if self.drain_counts.len() < other.drain_counts.len() {
            self.drain_bounds = other.drain_bounds.clone();
            self.drain_counts.resize(other.drain_counts.len(), 0);
        }
        for (m, o) in self.drain_counts.iter_mut().zip(&other.drain_counts) {
            *m += o;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Median of the drain-depth histogram: the upper bound of the bucket
    /// holding the middle observation (the overflow bucket reports one past
    /// the last bound).
    pub fn drain_depth_p50(&self) -> f64 {
        let total: u64 = self.drain_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (i, c) in self.drain_counts.iter().enumerate() {
            seen += c;
            if seen * 2 >= total {
                return match self.drain_bounds.get(i) {
                    Some(b) => *b as f64,
                    None => self.drain_bounds.last().map_or(0.0, |b| (*b + 1) as f64),
                };
            }
        }
        0.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A memory figure of this process from `/proc/self/status` in MiB:
/// `VmHWM` (peak resident) or `VmRSS` (resident now); 0 where unreadable.
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
