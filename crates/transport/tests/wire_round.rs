//! What a healthy loopback-TCP run costs, and what it leaves behind.
//!
//! A wire round is a few dozen 33-byte frames per link. Written one
//! `write` each on a Nagle-enabled socket, the second frame waits for the
//! peer's delayed ACK of the first — a ≈ 40 ms kernel timer per round, so
//! three BYZ(2,2) rounds took ≈ 130 ms whatever the processor. The bound
//! below sits between the two regimes: it trips on the timer, not on a
//! slow host. The other two tests pin the teardown contract: a finished
//! endpoint half-closes, so no flushed frame is lost and no thread lingers.
//!
//! The tests share the process's loopback stack and thread table, so they
//! take turns.

use degradable::{ByzInstance, Params, Val};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use transport::{run_tcp, LinkChaos, MeshConfig, TransportRun};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const N: usize = 7;
/// Envelopes of one fault-free BYZ(2,2) instance at N=7: 6 + 6·5 + 6·5·4.
const ENVELOPES: u64 = 156;

/// One fault-free BYZ(2,2) instance over a fresh loopback mesh, sender
/// node 3 (so both dialed and accepted links carry the first round).
fn healthy_run(value: u64) -> TransportRun {
    let instance = ByzInstance::new(N, Params::new(2, 2).unwrap(), NodeId::new(3)).unwrap();
    let run = run_tcp(
        &instance,
        Val::Value(value),
        &BTreeMap::new(),
        LinkChaos::healthy(),
        MeshConfig::default(),
    )
    .expect("loopback mesh set-up");
    assert_eq!(run.decisions.len(), N - 1);
    for (node, decision) in &run.decisions {
        assert_eq!(*decision, Val::Value(value), "node {node}");
    }
    run
}

#[test]
fn healthy_run_is_not_paced_by_the_delayed_ack_timer() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut walls: Vec<Duration> = (0..9)
        .map(|i| {
            let start = Instant::now();
            let run = healthy_run(i);
            let wall = start.elapsed();
            assert_eq!(run.stats.false_timeouts, 0);
            wall
        })
        .collect();
    walls.sort();
    assert!(
        walls[4] < Duration::from_millis(60),
        "median of 9 healthy runs took {:?} (all: {walls:?}): three rounds at ≈ 40 ms each \
         is Nagle waiting on a delayed ACK",
        walls[4]
    );
}

#[test]
fn two_hundred_consecutive_runs_lose_no_frame_to_teardown() {
    // Nodes finish at different moments and drop their endpoints while
    // peers are still reading: every envelope written must still arrive
    // (a reset instead of a half-close would show up as a missing
    // delivery or, through a missing mark, as a false timeout).
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for i in 0..200 {
        let run = healthy_run(i);
        assert_eq!(run.stats.false_timeouts, 0, "run {i}");
        assert_eq!(run.stats.sent, ENVELOPES, "run {i}");
        assert_eq!(run.stats.delivered, ENVELOPES, "run {i}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn finished_runs_leave_no_thread_behind() {
    fn threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("a Threads: line");
        line.trim().parse().expect("a thread count")
    }

    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = threads();
    for i in 0..40 {
        healthy_run(i);
    }
    // Each run spawned 7 drivers, 7 acceptors and 42 readers. The test
    // harness may start a test thread of its own meanwhile, hence the
    // small allowance.
    let allowed = before + 4;
    let start = Instant::now();
    while threads() > allowed && start.elapsed() < Duration::from_millis(100) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = threads();
    assert!(
        after <= allowed,
        "{after} threads 100 ms after 40 runs, {before} before them"
    );
}
