//! Golden-trace test for the observability layer: a tiny N = 4 batch,
//! observed and exported as a Chrome trace laid out by logical cost,
//! must be **bit-identical** at 1, 2, and 8 resolve shards as recorded —
//! spans read no clock, so nothing needs scrubbing — pinned against a
//! checked-in snapshot.
//!
//! Regenerate the snapshot after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test obs_trace
//! ```

use degradable::{run_batch, BatchInstance, BatchOptions, Params, Strategy, Val};
use obs::{chrome_trace_json, parse_trace, Obs};
use simnet::NodeId;
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = "tests/golden/obs_trace_n4.json";

/// The tiny deterministic scenario: BYZ(1, 1) at N = 4 with one instance
/// per node as its sender — four arenas, so 2 and 8 workers resolve in
/// shards — and node 2 two-faced.
fn observed_n4_run(workers: usize) -> Obs {
    let params = Params::new(1, 1).expect("u >= m");
    let instances: Vec<BatchInstance<u64>> = (0..4)
        .map(|i| BatchInstance {
            sender: NodeId::new(i),
            value: Val::Value(7 + i as u64),
        })
        .collect();
    let two_faced = Strategy::TwoFaced {
        even: Val::Value(1),
        odd: Val::Value(2),
    };
    let strategies: BTreeMap<NodeId, Strategy<u64>> = [(NodeId::new(2), two_faced)].into();
    let mut obs = Obs::enabled();
    let opts = BatchOptions::new().workers(workers).obs(&mut obs);
    let run = run_batch(params, 4, &instances, &strategies, 0x0B5, opts).expect("N = 4 is valid");
    assert!(
        run.decisions.iter().all(|d| d.len() == 3),
        "three receivers per instance"
    );
    obs
}

/// The exported trace, straight from the recorder.
fn logical_trace(workers: usize) -> String {
    chrome_trace_json(&observed_n4_run(workers))
}

#[test]
fn golden_trace_is_bit_identical_across_worker_counts() {
    let reference = logical_trace(1);
    for workers in [2usize, 8] {
        assert_eq!(
            logical_trace(workers),
            reference,
            "logical trace differs at {workers} workers"
        );
    }
}

#[test]
fn golden_trace_matches_checked_in_snapshot() {
    let actual = logical_trace(1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual, golden,
        "trace format drifted from {GOLDEN_PATH}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_trace_round_trips_losslessly() {
    let text = logical_trace(2);
    let parsed = parse_trace(&text).expect("exporter output parses");
    let obs = observed_n4_run(2);
    assert_eq!(parsed.spans, obs.spans());
    assert_eq!(&parsed.registry, obs.registry());
}
