//! The traced pass's view of the wire path and the layers under it:
//! `degradable::node`, `transport::{mesh,frame,runner,sim,chaos}` and the
//! per-view fold. Every workload runs these — the wire workload on each
//! of its instances, the service workloads on the first instance of a
//! sampled wave — so that every layer has a reading on every workload.

use crate::check::Decisions;
use crate::gen::{Shape, WireInstance};
use crate::procfs;
use crate::report::ratio;
use crate::span::{SpanId, Tracer};
use crate::stats::percentile;
use degradable::{ByzInstance, ByzMsg, NodeAction, NodeEvent, NodeStateMachine, Val};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};
use transport::{
    channel_mesh, frame, run_channel, run_sim, run_tcp, tcp_mesh, Frame, LinkChaos, MeshConfig,
    MeshTransport, PollOutcome, SimWorld, Transport,
};

/// How long a mesh node's driver sleeps when its endpoint has nothing —
/// the same pause `transport::drive_mesh` takes.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

fn byz_instance(shape: Shape, inst: &WireInstance) -> ByzInstance {
    ByzInstance::new(shape.n, shape.params, inst.sender)
        .expect("workload shape satisfies the node bound")
}

/// One instance through the program's own driver, as `dagree serve` runs
/// it: the decisions and the envelopes sent.
pub fn decide_over_tcp(shape: Shape, inst: &WireInstance) -> Result<(Decisions, u64), String> {
    let run = run_tcp(
        &byz_instance(shape, inst),
        inst.value,
        &inst.strategies,
        LinkChaos::healthy(),
        MeshConfig::default(),
    )
    .map_err(|e| format!("tcp mesh set-up failed: {e}"))?;
    Ok((run.decisions, run.stats.sent))
}

/// What the benchmark's own driver loop saw on one node.
#[derive(Debug, Default)]
struct NodeLog {
    /// `(name, start, end)` of every call into a layer.
    spans: Vec<(&'static str, u64, u64)>,
    /// Every envelope the machine handed to the transport.
    sends: Vec<(NodeId, ByzMsg<u64>)>,
    events: u64,
    on_event_ns: u64,
    send_ns: u64,
    poll_busy_ns: u64,
    wait_ns: u64,
    /// When each `Timeout` event surfaced.
    round_closes: Vec<u64>,
    decision: Option<Val>,
    decided_at: u64,
    start_ns: u64,
    end_ns: u64,
}

enum Step {
    Progress,
    Idle,
    Closed,
}

/// Nanoseconds since the tracer's epoch, readable from any thread.
#[derive(Clone, Copy)]
struct Epoch(Instant);

impl Epoch {
    fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One turn of the driver loop over the public `Transport` trait:
/// `poll` → `NodeStateMachine::on_event` → `send`, a span per call.
/// Consecutive empty polls (and the pauses between them) merge into one
/// waiting span.
fn step<T: Transport>(
    transport: &mut T,
    machine: &mut NodeStateMachine<u64>,
    clock: Epoch,
    log: &mut NodeLog,
    waiting_since: &mut Option<u64>,
) -> Step {
    let poll_start = clock.now();
    let outcome = transport.poll();
    let poll_end = clock.now();
    if !matches!(outcome, PollOutcome::Pending) {
        if let Some(since) = waiting_since.take() {
            log.spans.push(("mesh.poll_wait", since, poll_start));
            log.wait_ns += poll_start - since;
        }
    }
    let event = match outcome {
        PollOutcome::Event(event) => event,
        PollOutcome::Pending => {
            waiting_since.get_or_insert(poll_start);
            return Step::Idle;
        }
        PollOutcome::Closed => return Step::Closed,
    };
    log.spans.push(("mesh.poll_busy", poll_start, poll_end));
    log.poll_busy_ns += poll_end - poll_start;
    if matches!(event, NodeEvent::Timeout { .. }) {
        log.round_closes.push(poll_end);
    }
    if machine.is_done() {
        return Step::Progress;
    }
    let actions = machine.on_event(event);
    let handled = clock.now();
    log.spans.push(("node.on_event", poll_end, handled));
    log.on_event_ns += handled - poll_end;
    log.events += 1;
    for action in actions {
        match action {
            NodeAction::Send { to, msg } => {
                log.sends.push((to, msg.clone()));
                let start = clock.now();
                transport.send(to, msg);
                let end = clock.now();
                log.spans.push(("mesh.send", start, end));
                log.send_ns += end - start;
            }
            NodeAction::Decide { value } => {
                log.decision = Some(value);
                log.decided_at = clock.now();
            }
        }
    }
    Step::Progress
}

type DrivenNode = (MeshTransport, NodeStateMachine<u64>, NodeLog);

/// Drives one mesh endpoint to completion on its own thread, pausing like
/// the program's driver does when the endpoint has nothing.
fn drive_mesh_node(
    mut transport: MeshTransport,
    mut machine: NodeStateMachine<u64>,
    clock: Epoch,
) -> DrivenNode {
    let mut log = NodeLog {
        start_ns: clock.now(),
        ..NodeLog::default()
    };
    let mut waiting_since = None;
    loop {
        match step(
            &mut transport,
            &mut machine,
            clock,
            &mut log,
            &mut waiting_since,
        ) {
            Step::Progress => {}
            Step::Idle => thread::sleep(IDLE_SLEEP),
            Step::Closed => break,
        }
    }
    log.end_ns = clock.now();
    (transport, machine, log)
}

fn machines(shape: Shape, inst: &WireInstance) -> Vec<NodeStateMachine<u64>> {
    let byz = byz_instance(shape, inst);
    NodeId::all(shape.n)
        .map(|me| NodeStateMachine::new(&byz, me, inst.value, inst.strategies.get(&me).cloned()))
        .collect()
}

fn decisions_of(logs: &[NodeLog]) -> Decisions {
    logs.iter()
        .enumerate()
        .filter_map(|(i, log)| log.decision.map(|d| (NodeId::new(i), d)))
        .collect()
}

/// What one benchmark-driven TCP instance produced.
pub struct DrivenTcp {
    /// Every receiver's decision.
    pub decisions: Decisions,
    /// Nodes that reported `MeshTransport::failure`.
    pub failures: Vec<String>,
    machines: Vec<NodeStateMachine<u64>>,
    logs: Vec<NodeLog>,
}

/// The same loop over the deterministic simulator's endpoints, all nodes
/// swept on this thread.
fn driven_sim(shape: Shape, inst: &WireInstance, clock: Epoch) -> (Decisions, Vec<NodeLog>) {
    let mut endpoints = SimWorld::endpoints(
        shape.n,
        shape.params.rounds(),
        LinkChaos::healthy(),
        None,
        inst.faulty(),
    );
    let mut machines = machines(shape, inst);
    let mut logs: Vec<NodeLog> = (0..shape.n).map(|_| NodeLog::default()).collect();
    loop {
        let mut all_closed = true;
        let mut progressed = false;
        for i in 0..shape.n {
            loop {
                match step(
                    &mut endpoints[i],
                    &mut machines[i],
                    clock,
                    &mut logs[i],
                    &mut None,
                ) {
                    Step::Progress => {
                        progressed = true;
                        all_closed = false;
                    }
                    Step::Idle => {
                        all_closed = false;
                        break;
                    }
                    Step::Closed => break,
                }
            }
        }
        if all_closed {
            break;
        }
        assert!(progressed, "sim sweep stalled with events pending");
    }
    (decisions_of(&logs), logs)
}

/// Sums over the wire path and its replays, divided into per-layer
/// metrics at the end.
#[derive(Default)]
pub struct WireSums {
    instances: u64,
    driven_wall_ns: u64,
    tcp_setup_ns: u64,
    teardown_ns: u64,
    false_timeouts: u64,
    reconnects: u64,
    failed_nodes: u64,
    events: u64,
    on_event_ns: u64,
    sends: u64,
    send_ns: u64,
    wait_ns: u64,
    drive_ns: u64,
    round_ms: Vec<f64>,
    replayed: u64,
    run_sim_ns: u64,
    run_channel_ns: u64,
    run_tcp_ns: u64,
    /// Process CPU seconds over the `run_tcp` replays.
    pub run_tcp_cpu_s: f64,
    channel_setup_ns: u64,
    sim_events: u64,
    sim_poll_ns: u64,
    frames: u64,
    frame_bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    chaos_ns: u64,
    view_nodes: u64,
    view_resolve_ns: u64,
}

impl WireSums {
    /// Instances the `run_tcp` replay decided.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Wall per instance with the benchmark's spans on (its own driver
    /// loop) ÷ off (the program's `run_tcp` on the same instances).
    pub fn trace_overhead_ratio(&self) -> f64 {
        ratio(
            ratio(self.driven_wall_ns as f64, self.instances as f64),
            ratio(self.run_tcp_ns as f64, self.replayed as f64),
        )
    }
}

/// One instance over a loopback TCP mesh, driven by the benchmark's own
/// loop so that every poll, state-machine step and send is a span — the
/// same instance `run_tcp` would run, one thread per node as in the
/// program. The spans hang under a root named `root` (`"op"` where the
/// wire is the workload's own path, so that the ledger counts it).
pub fn driven_tcp(
    shape: Shape,
    inst: &WireInstance,
    tracer: &mut Tracer,
    root: &'static str,
    op: u64,
    sums: &mut WireSums,
) -> Result<DrivenTcp, String> {
    let clock = Epoch(tracer.epoch());
    let root = tracer.open(root, None, op);
    let op_start = clock.now();
    let (mesh, setup_ns) = tracer.time("mesh.tcp_setup", root, op, || {
        tcp_mesh(
            shape.n,
            shape.params.rounds(),
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
    });
    let nodes: Result<Vec<DrivenNode>, String> = mesh
        .map_err(|e| format!("tcp mesh set-up failed: {e}"))
        .and_then(|mesh| {
            let handles: Vec<_> = mesh
                .into_iter()
                .zip(machines(shape, inst))
                .map(|(t, m)| thread::spawn(move || drive_mesh_node(t, m, clock)))
                .collect();
            // Join every thread before reporting that one panicked.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .map(|node| node.map_err(|_| "a node's driver thread panicked".to_string()))
                .collect()
        });
    let nodes = match nodes {
        Ok(nodes) => nodes,
        Err(why) => {
            tracer.close(root);
            return Err(why);
        }
    };
    let last_decision = nodes.iter().map(|(_, _, log)| log.decided_at).max();
    let mut failures = Vec::new();
    let mut machines = Vec::with_capacity(shape.n);
    let mut logs = Vec::with_capacity(shape.n);
    for (transport, machine, log) in nodes {
        sums.false_timeouts += transport.stats().false_timeouts;
        sums.reconnects += transport.reconnects();
        failures.extend(transport.failure().map(str::to_owned));
        machines.push(machine);
        logs.push(log);
        // The endpoint is dropped here: teardown ends when the last one is.
    }
    let torn_down = clock.now();
    let teardown_from = last_decision.unwrap_or(torn_down);
    tracer.record("mesh.teardown", root, op, teardown_from, torn_down);
    tracer.close(root);

    // The operation waited for the node that finished last: its calls are
    // the blocking path, the other nodes ran beside it.
    let blocking = logs
        .iter()
        .enumerate()
        .max_by_key(|(_, log)| log.end_ns)
        .map(|(i, _)| i);
    for (i, log) in logs.iter().enumerate() {
        let name = if Some(i) == blocking {
            "node.drive.blocking"
        } else {
            "node.drive"
        };
        let drive = tracer.record(name, root, op, log.start_ns, log.end_ns);
        for &(name, start, end) in &log.spans {
            tracer.record(name, drive, op, start, end);
        }
        sums.events += log.events;
        sums.on_event_ns += log.on_event_ns;
        sums.sends += log.sends.len() as u64;
        sums.send_ns += log.send_ns;
        sums.wait_ns += log.wait_ns;
        sums.drive_ns += log.end_ns - log.start_ns;
        sums.round_ms.extend(
            log.round_closes
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e6),
        );
    }
    sums.instances += 1;
    sums.driven_wall_ns += torn_down - op_start;
    sums.tcp_setup_ns += setup_ns;
    sums.teardown_ns += torn_down - teardown_from;
    sums.failed_nodes += failures.len() as u64;
    Ok(DrivenTcp {
        decisions: decisions_of(&logs),
        failures,
        machines,
        logs,
    })
}

/// Replays one driven instance through the other backends and the layers
/// under the mesh, each call in its own span below `parent`. All must
/// decide like the driven instance.
pub fn replay(
    shape: Shape,
    inst: &WireInstance,
    driven: &DrivenTcp,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op: u64,
    sums: &mut WireSums,
) -> Result<(), String> {
    let byz = byz_instance(shape, inst);
    let same = |layer: &str, got: &Decisions| -> Result<(), String> {
        if *got == driven.decisions {
            Ok(())
        } else {
            Err(format!(
                "{layer} decided {got:?}, the benchmark-driven TCP mesh decided {:?}",
                driven.decisions
            ))
        }
    };

    // transport::runner — the three backends on the same scenario.
    let (sim, ns) = tracer.time("runner.run_sim", parent, op, || {
        run_sim(
            &byz,
            inst.value,
            &inst.strategies,
            LinkChaos::healthy(),
            None,
        )
    });
    sums.run_sim_ns += ns;
    same("run_sim", &sim.decisions)?;
    let (channel, ns) = tracer.time("runner.run_channel", parent, op, || {
        run_channel(
            &byz,
            inst.value,
            &inst.strategies,
            LinkChaos::healthy(),
            MeshConfig::default(),
        )
    });
    sums.run_channel_ns += ns;
    same("run_channel", &channel.decisions)?;
    // The process's CPU over the program's own driver: every node thread
    // and its readers, exited ones included.
    let cpu_before = procfs::cpu_seconds();
    let (tcp, ns) = tracer.time("runner.run_tcp", parent, op, || {
        decide_over_tcp(shape, inst)
    });
    sums.run_tcp_cpu_s += procfs::cpu_seconds() - cpu_before;
    sums.run_tcp_ns += ns;
    sums.replayed += 1;
    same("run_tcp", &tcp?.0)?;

    // transport::sim — the simulator's endpoints under the benchmark's loop.
    let sim_start = tracer.now_ns();
    let (sim_decisions, sim_logs) = driven_sim(shape, inst, Epoch(tracer.epoch()));
    tracer.record("sim.driven", parent, op, sim_start, tracer.now_ns());
    for log in &sim_logs {
        sums.sim_events += log.events;
        sums.sim_poll_ns += log.poll_busy_ns;
    }
    same("the simulator under the benchmark's loop", &sim_decisions)?;

    // transport::mesh — what an in-process mesh costs to build.
    let (mesh, ns) = tracer.time("mesh.channel_setup", parent, op, || {
        channel_mesh(
            shape.n,
            shape.params.rounds(),
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
    });
    sums.channel_setup_ns += ns;
    drop(mesh);

    // transport::frame — exactly the envelopes this instance sent.
    let frames: Vec<Frame> = driven
        .logs
        .iter()
        .enumerate()
        .flat_map(|(src, log)| {
            log.sends.iter().map(move |(_, msg)| Frame::Envelope {
                src: NodeId::new(src),
                msg: msg.clone(),
                trace: None,
            })
        })
        .collect();
    let (encoded, ns) = tracer.time("frame.encode", parent, op, || {
        frames.iter().map(frame::encode).collect::<Vec<_>>()
    });
    sums.encode_ns += ns;
    let (decoded, ns) = tracer.time("frame.decode", parent, op, || {
        encoded
            .iter()
            .map(|bytes| frame::decode(&bytes[4..]))
            .collect::<Vec<_>>()
    });
    sums.decode_ns += ns;
    sums.frames += frames.len() as u64;
    sums.frame_bytes += encoded.iter().map(|b| b.len() as u64).sum::<u64>();
    for (sent, back) in frames.iter().zip(decoded) {
        match back {
            Ok(back) if back == *sent => {}
            other => return Err(format!("frame {sent:?} decoded as {other:?}")),
        }
    }

    // transport::chaos — the same envelopes under a cut + duplicate plan.
    let chaos = LinkChaos::new(
        LinkFaultPlan::uniform_complete(shape.n, &[LinkFaultKind::Duplicate { p: 0.25 }])
            .with_symmetric(
                NodeId::new(0),
                NodeId::new(1),
                LinkFaultKind::Cut { from_round: 1 },
            ),
        op,
    );
    let ((), ns) = tracer.time("chaos.disposition", parent, op, || {
        for (src, log) in driven.logs.iter().enumerate() {
            for (to, msg) in &log.sends {
                black_box(chaos.disposition(msg.path.len() - 1, NodeId::new(src), *to, &msg.path));
            }
        }
    });
    sums.chaos_ns += ns;

    // degradable::eig — the per-view fold of every receiver.
    for (i, machine) in driven.machines.iter().enumerate() {
        let me = NodeId::new(i);
        if me == inst.sender {
            continue;
        }
        let (folded, ns) = tracer.time("eig.view_resolve", parent, op, || {
            machine.view().resolve(inst.sender, byz.rule())
        });
        sums.view_resolve_ns += ns;
        sums.view_nodes += 1;
        if driven.decisions.get(&me) != Some(&folded) {
            return Err(format!("node {me}'s view folds to {folded:?}"));
        }
    }
    Ok(())
}

impl WireSums {
    /// The per-layer metrics of the wire path and the layers under it.
    pub fn metrics(&self, v: &mut BTreeMap<&'static str, f64>) {
        let f = |x: u64| x as f64;
        let driven = f(self.instances);
        let replayed = f(self.replayed);
        let mut put = |name, value| {
            v.insert(name, value);
        };
        put(
            "eig.view_resolve_us_per_node",
            ratio(f(self.view_resolve_ns), f(self.view_nodes)) / 1e3,
        );
        put(
            "node.on_event_ns_per_event",
            ratio(f(self.on_event_ns), f(self.events)),
        );
        put("node.events_per_instance", ratio(f(self.events), driven));
        put("node.sends_per_instance", ratio(f(self.sends), driven));
        put(
            "frame.encode_ns_per_msg",
            ratio(f(self.encode_ns), f(self.frames)),
        );
        put(
            "frame.decode_ns_per_msg",
            ratio(f(self.decode_ns), f(self.frames)),
        );
        put(
            "frame.bytes_per_msg",
            ratio(f(self.frame_bytes), f(self.frames)),
        );
        put(
            "mesh.tcp_setup_ms",
            ratio(f(self.tcp_setup_ns), driven) / 1e6,
        );
        put(
            "mesh.channel_setup_us",
            ratio(f(self.channel_setup_ns), replayed) / 1e3,
        );
        put(
            "mesh.round_ms_p50",
            if self.round_ms.is_empty() {
                0.0
            } else {
                percentile(&self.round_ms, 50.0)
            },
        );
        put(
            "mesh.poll_wait_share",
            ratio(f(self.wait_ns), f(self.drive_ns)),
        );
        put(
            "mesh.send_ns_per_msg",
            ratio(f(self.send_ns), f(self.sends)),
        );
        put("mesh.teardown_ms", ratio(f(self.teardown_ns), driven) / 1e6);
        put("mesh.false_timeouts", f(self.false_timeouts));
        put("mesh.reconnects", f(self.reconnects));
        put("mesh.failed_nodes", f(self.failed_nodes));
        put(
            "runner.sim_us_per_instance",
            ratio(f(self.run_sim_ns), replayed) / 1e3,
        );
        put(
            "runner.channel_us_per_instance",
            ratio(f(self.run_channel_ns), replayed) / 1e3,
        );
        put(
            "runner.tcp_ms_per_instance",
            ratio(f(self.run_tcp_ns), replayed) / 1e6,
        );
        put(
            "sim.poll_ns_per_event",
            ratio(f(self.sim_poll_ns), f(self.sim_events)),
        );
        put(
            "chaos.disposition_ns_per_call",
            ratio(f(self.chaos_ns), f(self.frames)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, WIRE_TCP_N7};

    #[test]
    fn the_benchmarks_loop_decides_like_run_tcp_in_both_regimes() {
        let shape = WIRE_TCP_N7.shape();
        let mut tracer = Tracer::new();
        let mut sums = WireSums::default();
        for index in 0..2 {
            let inst = gen::wire_instance(&WIRE_TCP_N7, 9, index);
            let driven = driven_tcp(shape, &inst, &mut tracer, "op", index, &mut sums).unwrap();
            let (decisions, sent) = decide_over_tcp(shape, &inst).unwrap();
            assert_eq!(driven.decisions, decisions);
            assert_eq!(driven.decisions.len(), WIRE_TCP_N7.n - 1);
            let driven_sends: usize = driven.logs.iter().map(|l| l.sends.len()).sum();
            assert_eq!(driven_sends as u64, sent);
            assert!(driven.failures.is_empty());
            let (sim_decisions, _) = driven_sim(shape, &inst, Epoch(tracer.epoch()));
            assert_eq!(sim_decisions, decisions);
        }
        assert_eq!(sums.instances, 2);
    }
}
