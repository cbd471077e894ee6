//! What a healthy loopback-TCP run costs, and what it leaves behind.
//!
//! A wire round is a few dozen 33-byte frames per link. Written one
//! `write` each on a Nagle-enabled socket, the second frame waits for the
//! peer's delayed ACK of the first — a ≈ 40 ms kernel timer per round, so
//! three BYZ(2,2) rounds took ≈ 130 ms whatever the processor. The bound
//! below sits between the two regimes: it trips on the timer, not on a
//! slow host. The others pin what a run leaves behind. `run_tcp` keeps the
//! mesh of a healthy instance standing for the next one, with one driver
//! thread per node parked until then, and a mesh endpoint owns no other
//! thread, so consecutive healthy runs lose no frame and grow nothing: not
//! the thread count, not the descriptor table, not the kernel's
//! `TIME_WAIT` list. Any other ending closes the mesh and joins its
//! drivers, and the next call builds one. An endpoint that is closed after
//! one instance — `drive_mesh`, the life of a `dagree serve` node — still
//! loses no frame to its teardown, however the closes race.
//!
//! The tests share the process's loopback stack, thread table and standing
//! mesh, so they take turns.

use degradable::{ByzInstance, NodeStateMachine, Params, Val};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use transport::{
    drive_mesh, run_tcp, tcp_mesh, LinkChaos, MeshConfig, MeshDriveOptions, Transport, TransportRun,
};

fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const N: usize = 7;
/// Envelopes of one fault-free BYZ(2,2) instance at N=7: 6 + 6·5 + 6·5·4.
const ENVELOPES: u64 = 156;

/// One fault-free BYZ(`m`,`m`) instance at `n = 3m + 1` over loopback,
/// sender node 3 (so both dialed and accepted links carry the first
/// round); every receiver must decide the sender's value.
fn fault_free_run(m: usize, value: u64, config: MeshConfig) -> TransportRun {
    let n = 3 * m + 1;
    let instance = ByzInstance::new(n, Params::new(m, m).unwrap(), NodeId::new(3)).unwrap();
    let run = run_tcp(
        &instance,
        Val::Value(value),
        &BTreeMap::new(),
        LinkChaos::healthy(),
        config,
    )
    .expect("loopback mesh set-up");
    assert_eq!(run.decisions.len(), n - 1);
    for (node, decision) in &run.decisions {
        assert_eq!(*decision, Val::Value(value), "node {node}");
    }
    run
}

/// The workload's instance: BYZ(2,2) at N = 7, default configuration.
fn healthy_run(value: u64) -> TransportRun {
    fault_free_run(2, value, MeshConfig::default())
}

/// A BYZ(2,2) instance at N = 7 under a deadline no mark can beat: every
/// round closes on it, so no endpoint ends clean and the mesh is closed.
fn rushed_run() -> TransportRun {
    let instance = ByzInstance::new(N, Params::new(2, 2).unwrap(), NodeId::new(3)).unwrap();
    run_tcp(
        &instance,
        Val::Value(4),
        &BTreeMap::new(),
        LinkChaos::healthy(),
        MeshConfig {
            round_timeout: Duration::from_nanos(1),
            ..MeshConfig::default()
        },
    )
    .expect("loopback mesh set-up")
}

/// The process's thread count, as the kernel reports it.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn healthy_run_is_not_paced_by_the_delayed_ack_timer() {
    let _turn = turn();
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
    // The life of a `dagree serve` endpoint, which no standing mesh
    // spares: a mesh per run, every endpoint handed to `drive_mesh` on its
    // own thread and closed by it the moment its node is done. Nodes
    // finish at different moments and close while peers are still
    // reading: every envelope written must still arrive (a reset instead
    // of a half-close would show up as a missing delivery or, through a
    // missing mark, as a false timeout).
    let _turn = turn();
    let instance = ByzInstance::new(N, Params::new(2, 2).unwrap(), NodeId::new(3)).unwrap();
    for i in 0..200 {
        let mesh = tcp_mesh(
            N,
            instance.depth(),
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
        .expect("loopback mesh set-up");
        let drivers: Vec<_> = mesh
            .into_iter()
            .map(|endpoint| {
                let machine = NodeStateMachine::new(&instance, endpoint.me(), Val::Value(i), None);
                std::thread::spawn(move || {
                    drive_mesh(endpoint, machine, &MeshDriveOptions::default())
                })
            })
            .collect();
        let (mut sent, mut delivered) = (0, 0);
        for driver in drivers {
            let outcome = driver.join().expect("a driver failed");
            let decided = (outcome.node != instance.sender()).then_some(Val::Value(i));
            assert_eq!(outcome.decision, decided, "run {i} node {}", outcome.node);
            assert_eq!(
                outcome.stats.false_timeouts, 0,
                "run {i} node {}",
                outcome.node
            );
            sent += outcome.stats.sent;
            delivered += outcome.stats.delivered;
        }
        assert_eq!(sent, ENVELOPES, "run {i}");
        assert_eq!(delivered, ENVELOPES, "run {i}");
    }
}

#[test]
fn a_different_size_or_a_timed_out_instance_gets_a_fresh_mesh() {
    let _turn = turn();
    healthy_run(1);
    // Another `n`: the standing seven-node mesh does not fit.
    assert_eq!(
        fault_free_run(1, 2, MeshConfig::default())
            .stats
            .false_timeouts,
        0
    );
    assert_eq!(healthy_run(3).stats.false_timeouts, 0);
    // Whatever that instance decided, its mesh is not the next instance's.
    let rushed = rushed_run();
    assert!(rushed.stats.false_timeouts > 0);
    for i in 5..8 {
        let run = healthy_run(i);
        assert_eq!(run.stats.false_timeouts, 0, "run {i}");
        assert_eq!(run.stats.delivered, ENVELOPES, "run {i}");
    }
}

#[test]
fn two_callers_at_once_both_decide() {
    // One of them finds the standing mesh checked out and builds its own.
    let _turn = turn();
    healthy_run(0);
    let callers: Vec<_> = (0..2)
        .map(|caller| {
            std::thread::spawn(move || {
                for i in 0..20 {
                    let run = healthy_run(100 * caller + i);
                    assert_eq!(run.stats.false_timeouts, 0, "caller {caller} run {i}");
                    assert_eq!(run.stats.delivered, ENVELOPES, "caller {caller} run {i}");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("a caller failed");
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

    let _turn = turn();
    // The first runs let the test harness finish starting its own threads
    // (the other tests of this file, parked on the lock).
    for i in 0..10 {
        healthy_run(i);
    }
    let before = threads();
    for i in 0..40 {
        healthy_run(i);
    }
    // Every run was driven by the standing mesh's seven drivers, and
    // spawned none. Exact, and at once.
    assert_eq!(threads(), before, "threads after 40 runs");
}

#[cfg(target_os = "linux")]
#[test]
fn consecutive_healthy_runs_grow_no_time_wait_and_no_descriptors() {
    /// Sockets in `TIME_WAIT`, as the kernel counts them.
    fn time_wait() -> i64 {
        let sockstat = std::fs::read_to_string("/proc/net/sockstat").expect("procfs");
        let tcp = sockstat
            .lines()
            .find(|l| l.starts_with("TCP:"))
            .expect("a TCP: line");
        let mut fields = tcp.split_whitespace().skip_while(|f| *f != "tw");
        fields.nth(1).expect("a tw field").parse().expect("a count")
    }
    fn descriptors() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }

    let _turn = turn();
    let tw_before = time_wait();
    let mut fds_after_10 = 0;
    for i in 0..200 {
        // On the standing mesh nothing is torn down, and nothing is lost.
        let run = healthy_run(i);
        assert_eq!(run.stats.false_timeouts, 0, "run {i}");
        assert_eq!(run.stats.delivered, ENVELOPES, "run {i}");
        if i == 9 {
            fds_after_10 = descriptors();
        }
    }
    // One mesh per run left 21 sockets in TIME_WAIT each: + 4 200.
    let grown = time_wait() - tw_before;
    assert!(grown < 50, "TIME_WAIT grew by {grown} over 200 runs");
    assert_eq!(descriptors(), fds_after_10, "descriptors after 200 runs");
}

#[cfg(target_os = "linux")]
#[test]
fn a_standing_mesh_keeps_one_driver_per_node_and_another_size_replaces_them() {
    let _turn = turn();
    // The first runs let the test harness finish starting and stopping its
    // own threads, as in `finished_runs_leave_no_thread_behind`.
    for i in 0..10 {
        healthy_run(i);
    }
    // No mesh stands after an instance that timed out: its drivers exited
    // and were joined.
    assert!(rushed_run().stats.false_timeouts > 0);
    let before = thread_count();
    healthy_run(1);
    assert_eq!(thread_count(), before + N, "a seven-node mesh standing");
    healthy_run(2);
    assert_eq!(thread_count(), before + N, "a run on it spawns nothing");
    // Another `n`: the seven drivers are joined, four take their place.
    fault_free_run(1, 3, MeshConfig::default());
    assert_eq!(thread_count(), before + 4, "a four-node mesh standing");
    // Leave the workload's size standing, as the other tests do.
    healthy_run(4);
    assert_eq!(thread_count(), before + N, "a seven-node mesh standing");
}

#[cfg(target_os = "linux")]
#[test]
fn set_up_runs_on_the_calling_thread_and_thirteen_nodes_decide() {
    let _turn = turn();
    // The harness's threads settle, and a seven-node mesh stands.
    for i in 0..10 {
        healthy_run(i);
    }
    // Every node dials its lower peers, then accepts its higher ones: node
    // 0's listener queues twelve connections before its first accept.
    let before = thread_count();
    let mesh = tcp_mesh(13, 3, &LinkChaos::healthy(), MeshConfig::default())
        .expect("loopback mesh set-up");
    assert_eq!(mesh.len(), 13);
    assert_eq!(thread_count(), before, "tcp_mesh spawned a thread");
    drop(mesh);
    // BYZ(2,8) at N = 13: 12 + 12·11 + 12·11·10 envelopes.
    let instance = ByzInstance::new(13, Params::new(2, 8).unwrap(), NodeId::new(0)).unwrap();
    let run = run_tcp(
        &instance,
        Val::Value(13),
        &BTreeMap::new(),
        LinkChaos::healthy(),
        MeshConfig::default(),
    )
    .expect("loopback mesh set-up");
    assert_eq!(run.stats.sent, 1_464);
    assert_eq!(run.stats.delivered, 1_464);
    assert_eq!(run.stats.false_timeouts, 0);
    assert_eq!(run.decisions.len(), 12);
    for (node, decision) in &run.decisions {
        assert_eq!(*decision, Val::Value(13), "node {node}");
    }
    assert_eq!(thread_count(), before - N + 13, "thirteen drivers stand");
    // Leave the workload's size standing, as the other tests do: a
    // thirteen-node mesh closed in another test would fill its
    // `TIME_WAIT` count.
    healthy_run(5);
    assert_eq!(thread_count(), before, "seven drivers stand");
}
