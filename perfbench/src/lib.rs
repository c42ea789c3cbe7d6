//! The repository benchmark.
//!
//! Four seeded workloads exercise the runtime's layers from outside: the
//! benchmark calls the public functions of `apgas`, `uts` (with `glb`
//! underneath), `dist` and reads the counters that `x10rt` and `apgas`
//! already expose. Every workload runs under M:N scheduling on two executor
//! threads with 32 places per host and all other runtime defaults.
//!
//! | workload | one round |
//! |---|---|
//! | `uts-32` | one `uts::run_distributed` of the paper's GEO tree at 32 places |
//! | `uts-1024` | the same traversal at 1,024 places |
//! | `gups-msgs` | one pass of 1,048,576 remote XOR `at_async`s under one `finish` |
//! | `kv-mix` | 64 closed-loop clients making 2,000 `DistMap` calls each, 90% `get` |
//!
//! [`Workload::why`] gives the reason each is in the benchmark.
//!
//! A run sets up the runtime several times (the median is `setup_s`), runs
//! one checked warm-up round, then measured rounds until `--seconds` have
//! passed. Every round is checked by the workload's oracle. Untraced runs
//! report the end-to-end metrics; a traced run (`--trace 1`) alternates
//! untraced and traced rounds and reports the per-layer metrics, the
//! per-layer self times from the spans, and the tracing overhead.

pub mod counters;
pub mod gups;
pub mod kv;
pub mod measure;
pub mod trace;
pub mod uts_load;

use std::path::PathBuf;

/// Executor threads for every workload: the M:N pool uses no more OS
/// threads than the two cores the benchmark was sized on.
pub const EXECUTOR_THREADS: usize = 2;

/// Places per host (the paper's octant), for every workload.
pub const PLACES_PER_HOST: usize = 32;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Uts32,
    Uts1024,
    GupsMsgs,
    KvMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Uts32,
        Workload::Uts1024,
        Workload::GupsMsgs,
        Workload::KvMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uts32 => "uts-32",
            Workload::Uts1024 => "uts-1024",
            Workload::GupsMsgs => "gups-msgs",
            Workload::KvMix => "kv-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (also recorded in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Uts32 => {
                "compute-bound UTS under lifeline GLB at 32 places: the SHA-1 kernel and GLB show, the transport barely does"
            }
            Workload::Uts1024 => {
                "the same tree at 1,024 places: cost moves to the executor sweeping contexts, sparse lanes, FINISH_DENSE and lifelines"
            }
            Workload::GupsMsgs => {
                "message-path RandomAccess: 1M tiny remote updates under one finish, pure transport and finish counting"
            }
            Workload::KvMix => {
                "closed-loop DistMap service, 90% blocking gets: latency-bound, uses the transport opposite to gups-msgs"
            }
        }
    }
}

/// Problem sizes. [`Sizes::full`] is what the command line runs;
/// [`Sizes::small`] is the reduced run of the benchmark's own test.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// GEO tree depth cut-off for the `uts-*` workloads.
    pub uts_depth: u32,
    /// Places of `uts-32` and `uts-1024`.
    pub uts_places: [usize; 2],
    /// `log2` of the RandomAccess table words per place.
    pub gups_log2_words: u32,
    /// Places of `gups-msgs`.
    pub gups_places: usize,
    /// Places of `kv-mix`.
    pub kv_places: usize,
    /// Closed-loop clients of `kv-mix`.
    pub kv_clients: usize,
    /// Calls per client per round.
    pub kv_ops_per_client: usize,
    /// Preloaded key space.
    pub kv_keys: u64,
    /// Shards of the map.
    pub kv_chunks: u32,
    /// Runtime set-ups per run (the median is `setup_s`).
    pub setup_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            uts_depth: 11,
            uts_places: [32, 1024],
            gups_log2_words: 14,
            gups_places: 32,
            kv_places: 16,
            kv_clients: 64,
            kv_ops_per_client: 2000,
            kv_keys: 100_000,
            kv_chunks: 64,
            setup_reps: 15,
        }
    }

    pub fn small() -> Sizes {
        Sizes {
            uts_depth: 6,
            uts_places: [8, 64],
            gups_log2_words: 8,
            gups_places: 8,
            kv_places: 4,
            kv_clients: 8,
            kv_ops_per_client: 100,
            kv_keys: 1_000,
            kv_chunks: 16,
            setup_reps: 2,
        }
    }
}

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    /// Workload seed (default 19): every generated input derives from it.
    pub seed: u64,
    /// Seconds of measured rounds (after set-up and warm-up).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans and layer summary.
    pub out_dir: PathBuf,
    pub sizes: Sizes,
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: the oracle verdict and the metrics.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value prints
/// as 0.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Run one workload.
pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::Uts32 => uts_load::run(opts, opts.sizes.uts_places[0]),
        Workload::Uts1024 => uts_load::run(opts, opts.sizes.uts_places[1]),
        Workload::GupsMsgs => gups::run(opts),
        Workload::KvMix => kv::run(opts),
    }
}

/// The runtime configuration every workload uses.
pub fn config(places: usize) -> apgas::Config {
    apgas::Config::new(places)
        .executor_threads(EXECUTOR_THREADS)
        .places_per_host(PLACES_PER_HOST)
}

/// SplitMix64: the seeded generator behind every workload input.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// A stream for `(seed, a, b)`: distinct tuples give unrelated streams.
    pub fn stream(seed: u64, a: u64, b: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.0 ^= s.next_u64() ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
