//! The benchmark's own test: a reduced-size run of every workload completes,
//! passes its oracle and emits exactly the metrics `BENCHMARK.json` names,
//! with their units — the end-to-end ones untraced, the per-layer ones
//! traced.

use perfbench::{run, Opts, Sizes, Workload};
use serde_json::Value;
use std::path::PathBuf;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(a, b)` of every entry of the list `key` of `BENCHMARK.json`.
fn pairs(key: &str, a: &str, b: &str) -> Vec<(String, String)> {
    let v = benchmark_json();
    let field = |e: &Value, f: &str| e.get(f).and_then(|s| s.as_str()).expect(f).to_string();
    v.get(key)
        .and_then(|l| l.as_array())
        .expect(key)
        .iter()
        .map(|e| (field(e, a), field(e, b)))
        .collect()
}

fn small(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 19,
        seconds: 0.05,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        sizes: Sizes::small(),
    }
}

/// Runs `workload` untraced and traced; in the traced run, the per-layer
/// metrics named in `exercised` must be non-zero.
fn check(workload: Workload, exercised: &[&str]) {
    let name = workload.name();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let opts = small(workload, trace);
        let files = ["spans.tsv", "layers.json"].map(|f| opts.out_dir.join(format!("{name}.{f}")));
        for f in &files {
            let _ = std::fs::remove_file(f);
        }
        let r = run(&opts);
        assert!(r.correct(), "{name}: {}", r.to_json());
        let emitted: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(emitted, pairs(key, "name", "unit"), "{name} {key}");
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            if !trace || COMMON.contains(&m.name) || exercised.contains(&m.name) {
                assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
            }
        }
        if trace {
            for f in &files {
                assert!(f.exists(), "{} not written", f.display());
            }
        }
    }
}

/// Per-layer metrics every workload produces.
const COMMON: [&str; 4] = [
    "x10rt.msgs_per_envelope",
    "x10rt.wire_bytes_per_msg",
    "x10rt.task_msgs",
    "apgas.runtime_new_s",
];

#[test]
fn uts_32_small() {
    check(
        Workload::Uts32,
        &[
            "uts.seq_nodes_per_s",
            "uts.parallel_eff",
            "glb.imbalance",
            "self.uts_s",
        ],
    );
}

#[test]
fn uts_1024_small() {
    check(
        Workload::Uts1024,
        &[
            "uts.seq_nodes_per_s",
            "uts.parallel_eff",
            "glb.imbalance",
            "self.uts_s",
        ],
    );
}

#[test]
fn gups_msgs_small() {
    check(
        Workload::GupsMsgs,
        &[
            "apgas.spawn_issue_s",
            "apgas.finish_drain_s",
            "self.apgas_s",
        ],
    );
}

#[test]
fn kv_mix_small() {
    check(
        Workload::KvMix,
        &[
            "dist.preload_s",
            "dist.insert_call_us",
            "dist.get_p99_us",
            "self.dist_s",
        ],
    );
}

#[test]
fn benchmark_json_names_the_workloads_with_their_reasons() {
    let listed = pairs("workloads", "name", "why");
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed, ours);
}
