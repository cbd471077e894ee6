//! Golden-trace test for the observability layer: a tiny N = 4 batch,
//! observed and exported as a Chrome trace laid out by logical cost, is
//! pinned against a checked-in snapshot — spans read no clock, so nothing
//! needs scrubbing — and the same instances drained through a
//! `ServiceState` record a trace **bit-identical** at 1, 2 and 8 shards,
//! with the batch's spans.
//!
//! Regenerate the snapshot after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test obs_trace
//! ```

use degradable::{
    run_batch, BatchInstance, BatchOptions, Params, ServiceConfig, ServiceState, Strategy, Val,
};
use obs::{chrome_trace_json, parse_trace, Obs};
use simnet::NodeId;
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = "tests/golden/obs_trace_n4.json";

/// The tiny deterministic scenario: BYZ(1, 1) at N = 4 with one instance
/// per node as its sender, and node 2 two-faced.
fn scenario() -> (
    Params,
    Vec<BatchInstance<u64>>,
    BTreeMap<NodeId, Strategy<u64>>,
) {
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
    (params, instances, strategies)
}

/// The scenario as one observed batch.
fn observed_n4_run() -> Obs {
    let (params, instances, strategies) = scenario();
    let mut obs = Obs::enabled();
    let opts = BatchOptions::new().obs(&mut obs);
    let run = run_batch(params, 4, &instances, &strategies, 0x0B5, opts).expect("N = 4 is valid");
    assert!(
        run.decisions.iter().all(|d| d.len() == 3),
        "three receivers per instance"
    );
    obs
}

/// The scenario as one observed drain of a service with `workers` shards.
fn drained_n4_run(workers: usize) -> Obs {
    let (params, instances, strategies) = scenario();
    let config = ServiceConfig {
        queue_capacity: 4,
        workers,
    };
    let mut svc = ServiceState::new(params, 4, config).expect("N = 4 is valid");
    for (id, instance) in instances.into_iter().enumerate() {
        svc.ingest(id as u64, instance).expect("room for four");
    }
    let mut obs = Obs::enabled();
    svc.drain_observed(&strategies, 0x0B5, &mut obs);
    obs
}

/// The exported trace, straight from the recorder.
fn logical_trace() -> String {
    chrome_trace_json(&observed_n4_run())
}

#[test]
fn golden_trace_is_bit_identical_across_worker_counts() {
    let drained = drained_n4_run(1);
    let reference = chrome_trace_json(&drained);
    for workers in [2usize, 8] {
        assert_eq!(
            chrome_trace_json(&drained_n4_run(workers)),
            reference,
            "logical trace differs at {workers} workers"
        );
    }
    assert_eq!(drained.spans(), observed_n4_run().spans());
}

#[test]
fn golden_trace_matches_checked_in_snapshot() {
    let actual = logical_trace();
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
    let text = logical_trace();
    let parsed = parse_trace(&text).expect("exporter output parses");
    let obs = observed_n4_run();
    assert_eq!(parsed.spans, obs.spans());
    assert_eq!(&parsed.registry, obs.registry());
}
