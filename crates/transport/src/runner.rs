//! Scenario drivers: one BYZ instance, any backend.
//!
//! The driver loop is identical everywhere — poll the transport, feed the
//! event to the node's [`NodeStateMachine`], perform the returned actions
//! — but the concurrency shape differs: [`run_sim`] multiplexes all `n`
//! endpoints on the calling thread (the shared event queue dictates the
//! order, so the sweep pattern is irrelevant), while [`run_channel`] and
//! [`run_tcp`] give every node its own OS thread and let real scheduling
//! happen. All three return a [`TransportRun`] carrying decisions, the
//! per-node EIG views (the reference fold's input, for re-deriving
//! decisions through `EigView::resolve`), and merged traffic stats — the
//! differential suite's raw material.

use crate::mesh::{channel_mesh, tcp_mesh, MeshConfig, MeshTransport};
use crate::sim::{RelaxedTiming, SimWorld};
use crate::{LinkChaos, PollOutcome, Transport, TransportKind, TransportStats};
use degradable::{
    AgreementValue, ByzInstance, ByzMsg, EigView, NodeAction, NodeStateMachine, Step, Strategy, Val,
};
use obs::{Label, Obs, SpanRecord, TraceCtx};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

/// Backend-independent run knobs (all off by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Record every node's [`Step`]s — what its machine saw and what it
    /// emitted, in machine order, sends as the machine handed them to the
    /// transport (*before* any chaos disposition, so a `SpecChecker`
    /// replay judges the node, not the network).
    pub record_events: bool,
    /// Stamp every outgoing envelope with a causal [`TraceCtx`] and
    /// record `trace.*` spans (send, deliver, close, decide) per node.
    /// Spans carry a monotone per-node logical clock, so the merged
    /// trace is deterministic across backends, worker counts, and
    /// reruns in the logical dimension.
    pub trace: bool,
}

impl RunOptions {
    /// Options with causal tracing armed.
    pub fn traced() -> Self {
        RunOptions {
            trace: true,
            ..RunOptions::default()
        }
    }
}

/// Per-node causal trace recorder behind [`RunOptions::trace`].
///
/// Every protocol-visible event on the node gets a point span —
/// `trace.send` (with the stamped context and destination),
/// `trace.deliver` (with the carried context, if the backend delivered
/// one), `trace.close` (round barrier) and `trace.decide` — whose
/// `logical` field is a monotone per-node event counter. Wall time is
/// deliberately zero: these are point events in logical time, and the
/// causal chain (`TraceCtx::is_parent_of`) plus the per-node clock is
/// what the critical-path reconstruction consumes.
#[derive(Debug)]
pub struct NodeTracer {
    obs: Obs,
    instance: u64,
    node: NodeId,
    clock: u64,
}

impl NodeTracer {
    /// A tracer for `node`, recording under agreement instance id
    /// `instance`. Every span carries a `node` attribute, so merged
    /// multi-node traces stay attributable.
    pub fn new(instance: u64, node: NodeId) -> Self {
        NodeTracer {
            obs: Obs::enabled(),
            instance,
            node,
            clock: 0,
        }
    }

    /// A tracer retaining at most `capacity` spans (see
    /// [`Obs::enabled_bounded`]); drops stay detectable through the
    /// `obs.dropped_spans` counter.
    pub fn bounded(instance: u64, node: NodeId, capacity: usize) -> Self {
        NodeTracer {
            obs: Obs::enabled_bounded(capacity),
            instance,
            node,
            clock: 0,
        }
    }

    /// The context this node stamps on an outgoing envelope.
    pub fn ctx_for(&self, msg: &ByzMsg<u64>) -> TraceCtx {
        TraceCtx::new(
            self.instance,
            msg.path
                .as_slice()
                .iter()
                .map(|id| id.index() as u64)
                .collect(),
        )
    }

    fn record(&mut self, name: &'static str, mut args: Vec<(Label, u64)>) {
        self.clock += 1;
        args.push(("node".into(), self.node.index() as u64));
        self.obs.record_span(SpanRecord {
            name: name.into(),
            args,
            logical: self.clock,
        });
    }

    fn record_send(&mut self, to: NodeId, ctx: &TraceCtx) {
        let mut args = ctx.span_args();
        args.push(("to".into(), to.index() as u64));
        self.record("trace.send", args);
        self.obs.add("trace.sends", 1);
    }

    fn record_deliver(&mut self, src: NodeId, ctx: Option<TraceCtx>) {
        let mut args = match &ctx {
            Some(ctx) => ctx.span_args(),
            None => Vec::new(),
        };
        args.push(("src".into(), src.index() as u64));
        self.record("trace.deliver", args);
        self.obs.add("trace.delivers", 1);
        if ctx.is_none() {
            // Either the sender ran untraced or the wire trace section
            // was malformed and degraded — both are worth counting.
            self.obs.add("trace.delivers_untraced", 1);
        }
    }

    fn record_close(&mut self, round: usize) {
        self.record("trace.close", vec![("round".into(), round as u64)]);
    }

    fn record_decide(&mut self, value: &Val) {
        let args = match value {
            AgreementValue::Value(v) => {
                vec![("instance".into(), self.instance), ("value".into(), *v)]
            }
            AgreementValue::Default => {
                vec![("instance".into(), self.instance), ("is_default".into(), 1)]
            }
        };
        self.record("trace.decide", args);
        self.obs.add("trace.decides", 1);
    }

    /// Consumes the tracer, yielding the recorded spans and counters.
    pub fn into_obs(self) -> Obs {
        self.obs
    }
}

/// What one node produced over one run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The node.
    pub node: NodeId,
    /// Its decision (`None` for the sender, which never decides).
    pub decision: Option<Val>,
    /// Its EIG receive view — the exact fold input.
    pub view: EigView<u64>,
    /// Traffic attributed to its endpoint.
    pub stats: TransportStats,
    /// Set when the node's run degenerated into a clean error — every
    /// peer permanently gone after the reconnect budget, or the thread
    /// driving the node panicked (mesh backends only; always `None` on the
    /// simulator).
    pub failure: Option<String>,
    /// The node's event log (empty unless
    /// [`RunOptions::record_events`]).
    pub events: Vec<Step<u64>>,
    /// The node's trace recorder output (disabled unless
    /// [`RunOptions::trace`]).
    pub obs: Obs,
}

impl NodeOutcome {
    /// What is left of a node whose driver thread panicked: no decision,
    /// an empty view, and the failure that says why.
    fn panicked(node: NodeId, n: usize, depth: usize) -> Self {
        NodeOutcome {
            node,
            decision: None,
            view: EigView::new(n, depth, node),
            stats: TransportStats::default(),
            failure: Some("mesh node thread panicked".to_owned()),
            events: Vec::new(),
            obs: Obs::disabled(),
        }
    }
}

/// The outcome of one scenario on one backend.
#[derive(Debug, Clone)]
pub struct TransportRun {
    /// Which backend produced it.
    pub kind: TransportKind,
    /// Every receiver's decision (the sender never decides).
    pub decisions: BTreeMap<NodeId, Val>,
    /// Every node's EIG view, for reference re-derivation.
    pub views: BTreeMap<NodeId, EigView<u64>>,
    /// Run-total traffic statistics.
    pub stats: TransportStats,
    /// Every node whose run ended in a [`NodeOutcome::failure`] — a
    /// panicked driver thread, or every peer gone — and why.
    pub failures: BTreeMap<NodeId, String>,
    /// Per-node event logs (empty unless [`RunOptions::record_events`]).
    pub node_events: BTreeMap<NodeId, Vec<Step<u64>>>,
    /// All nodes' trace recorders merged in node order (disabled unless
    /// [`RunOptions::trace`]); the deterministic input for critical-path
    /// reconstruction and the SLO layer.
    pub obs: Obs,
}

impl TransportRun {
    fn assemble(kind: TransportKind, outcomes: Vec<NodeOutcome>) -> Self {
        let mut decisions = BTreeMap::new();
        let mut views = BTreeMap::new();
        let mut stats = TransportStats::default();
        let mut failures = BTreeMap::new();
        let mut node_events = BTreeMap::new();
        let mut obs = if outcomes.iter().any(|o| o.obs.is_enabled()) {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        for o in outcomes {
            if let Some(d) = o.decision {
                decisions.insert(o.node, d);
            }
            views.insert(o.node, o.view);
            stats.merge(&o.stats);
            if let Some(failure) = o.failure {
                failures.insert(o.node, failure);
            }
            obs.merge(&o.obs);
            if !o.events.is_empty() {
                node_events.insert(o.node, o.events);
            }
        }
        TransportRun {
            kind,
            decisions,
            views,
            stats,
            failures,
            node_events,
            obs,
        }
    }
}

fn machines_for(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
) -> Vec<NodeStateMachine<u64>> {
    NodeId::all(instance.n())
        .map(|me| NodeStateMachine::new(instance, me, sender_value, strategies.get(&me).cloned()))
        .collect()
}

/// Feeds `event`-produced actions back into the transport (the decision
/// stays with the machine: [`NodeStateMachine::decided`]). With a log
/// attached, records the delivery (to fold at the round the machine closes
/// next) or the full close (round, pre-chaos sends) and, at the last one,
/// the decision. With a tracer attached, stamps every send with its causal
/// context and records the node's `trace.*` spans.
fn perform<T: Transport>(
    transport: &mut T,
    machine: &mut NodeStateMachine<u64>,
    event: degradable::NodeEvent<u64>,
    mut log: Option<&mut Vec<Step<u64>>>,
    mut tracer: Option<&mut NodeTracer>,
) {
    let closing_round = match &event {
        degradable::NodeEvent::Timeout { round } => {
            if let Some(t) = tracer.as_deref_mut() {
                t.record_close(*round);
            }
            Some(*round)
        }
        degradable::NodeEvent::Deliver { src, msg } => {
            if let Some(t) = tracer.as_deref_mut() {
                // `last_trace` is the context of the delivery `poll`
                // just surfaced — exactly this event.
                t.record_deliver(*src, transport.last_trace());
            }
            if let Some(log) = log.as_deref_mut() {
                log.push(Step::Deliver {
                    to: machine.me(),
                    src: *src,
                    msg: msg.clone(),
                    round: machine.next_round(),
                });
            }
            None
        }
    };
    let mut sends = Vec::new();
    for action in machine.on_event(event) {
        match action {
            NodeAction::Send { to, msg } => {
                if log.is_some() {
                    sends.push((to, msg.clone()));
                }
                match tracer.as_deref_mut() {
                    Some(t) => {
                        let ctx = t.ctx_for(&msg);
                        t.record_send(to, &ctx);
                        transport.send_traced(to, msg, Some(ctx));
                    }
                    None => transport.send(to, msg),
                }
            }
            NodeAction::Decide { value } => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_decide(&value);
                }
            }
        }
    }
    if let (Some(round), Some(log)) = (closing_round, log) {
        let node = machine.me();
        log.push(Step::Close { node, round, sends });
        if machine.is_done() {
            let value = machine.decided().copied();
            log.push(Step::Decide { node, value });
        }
    }
}

/// Runs the scenario on the deterministic simulator backend.
///
/// `relaxed` injects §6 clock skew (see [`RelaxedTiming::when_degraded`]);
/// `None` keeps absence detection exact. The result is bit-identical for
/// identical inputs, regardless of how the internal sweep is scheduled.
pub fn run_sim(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    relaxed: Option<RelaxedTiming>,
) -> TransportRun {
    run_sim_with(
        instance,
        sender_value,
        strategies,
        chaos,
        relaxed,
        RunOptions::default(),
    )
}

/// [`run_sim`] with explicit [`RunOptions`].
fn run_sim_with(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    relaxed: Option<RelaxedTiming>,
    options: RunOptions,
) -> TransportRun {
    let n = instance.n();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut endpoints = SimWorld::endpoints(n, instance.depth(), chaos, relaxed, faulty);
    let mut machines = machines_for(instance, sender_value, strategies);
    let mut logs: Vec<Vec<Step<u64>>> = vec![Vec::new(); n];
    let mut tracers: Vec<Option<NodeTracer>> = (0..n)
        .map(|i| options.trace.then(|| NodeTracer::new(0, NodeId::new(i))))
        .collect();
    loop {
        let mut all_closed = true;
        let mut progressed = false;
        for i in 0..n {
            loop {
                match endpoints[i].poll() {
                    PollOutcome::Event(event) => {
                        progressed = true;
                        all_closed = false;
                        if machines[i].is_done() {
                            // Defensive: the world never schedules past the
                            // final timer, so this is unreachable — but a
                            // stray event must not feed a finished machine.
                            continue;
                        }
                        let log = options.record_events.then_some(&mut logs[i]);
                        perform(
                            &mut endpoints[i],
                            &mut machines[i],
                            event,
                            log,
                            tracers[i].as_mut(),
                        );
                    }
                    PollOutcome::Pending => {
                        all_closed = false;
                        break;
                    }
                    PollOutcome::Closed => break,
                }
            }
        }
        // No progress with events pending would be a world whose head
        // nobody owns: the run ends there, and a node left short of its
        // last round has decided nothing.
        if all_closed || !progressed {
            break;
        }
    }
    let outcomes = machines
        .into_iter()
        .zip(&endpoints)
        .zip(logs)
        .zip(tracers)
        .enumerate()
        .map(|(i, (((m, t), events), tracer))| NodeOutcome {
            node: NodeId::new(i),
            decision: m.decided().copied(),
            stats: t.stats(),
            failure: None,
            events,
            obs: tracer.map_or_else(Obs::disabled, NodeTracer::into_obs),
            view: m.into_view(),
        })
        .collect();
    TransportRun::assemble(TransportKind::Sim, outcomes)
}

/// Knobs for [`drive_mesh`] — one mesh endpoint's driver loop, as
/// used per node by [`run_channel`]/[`run_tcp`] and standalone by
/// `dagree serve`.
#[derive(Debug, Clone, Default)]
pub struct MeshDriveOptions {
    /// Record the node's [`Step`] log.
    pub record_events: bool,
    /// Stamp sends with a [`TraceCtx`] and record `trace.*` spans.
    pub trace: bool,
    /// Agreement instance id stamped into contexts (0 outside batches).
    pub instance: u64,
    /// Append a JSONL registry snapshot to this file at every round
    /// close — the `dagree serve --metrics-out` live-metrics hook. Each
    /// line is `{"node":i,"round":r,"registry":{...}}`. Write failures
    /// disable the sink with a stderr warning, never kill the run:
    /// metrics are observability, not protocol.
    pub metrics_out: Option<PathBuf>,
}

/// Drives one mesh endpoint to completion on the current thread and
/// closes it — the loop `dagree serve` runs after [`crate::tcp_join`]
/// hands it a joined endpoint.
pub fn drive_mesh(
    mut transport: MeshTransport,
    machine: NodeStateMachine<u64>,
    options: &MeshDriveOptions,
) -> NodeOutcome {
    drive(&mut transport, machine, options)
}

/// One instance on one endpoint: the body of [`drive_mesh`] and, per node,
/// of [`run_channel`]/[`run_tcp`]. The endpoint is only borrowed, so that
/// [`run_tcp`] can keep a TCP endpoint that ended clean; every other
/// caller drops it when this returns.
fn drive(
    transport: &mut MeshTransport,
    mut machine: NodeStateMachine<u64>,
    options: &MeshDriveOptions,
) -> NodeOutcome {
    let me = transport.me();
    let mut events = Vec::new();
    let mut tracer = options.trace.then(|| NodeTracer::new(options.instance, me));
    let mut sink = options.metrics_out.as_ref().and_then(|path| {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("metrics-out: cannot open {}: {e}", path.display());
                None
            }
        }
    });
    loop {
        match transport.poll() {
            PollOutcome::Event(event) => {
                let closed_round = match &event {
                    degradable::NodeEvent::Timeout { round } => Some(*round),
                    degradable::NodeEvent::Deliver { .. } => None,
                };
                let log = options.record_events.then_some(&mut events);
                perform(transport, &mut machine, event, log, tracer.as_mut());
                if let (Some(round), Some(f)) = (closed_round, sink.as_mut()) {
                    if let Err(e) = write_metrics_line(f, me, round, tracer.as_ref(), transport) {
                        eprintln!("metrics-out: write failed, disabling: {e}");
                        sink = None;
                    }
                }
            }
            PollOutcome::Pending => transport.wait(),
            PollOutcome::Closed => break,
        }
    }
    NodeOutcome {
        node: me,
        decision: machine.decided().copied(),
        stats: transport.stats(),
        failure: transport.failure().map(str::to_owned),
        events,
        obs: tracer.map_or_else(Obs::disabled, NodeTracer::into_obs),
        view: machine.into_view(),
    }
}

/// One live-metrics JSONL line: the node's trace registry (when tracing)
/// plus transport traffic counters, stamped with node and round.
fn write_metrics_line(
    f: &mut std::fs::File,
    me: NodeId,
    round: usize,
    tracer: Option<&NodeTracer>,
    transport: &MeshTransport,
) -> io::Result<()> {
    let mut registry = tracer.map_or_else(obs::Registry::new, |t| t.obs.registry().clone());
    let stats = transport.stats();
    registry.set_counter("net.sent", stats.sent);
    registry.set_counter("net.delivered", stats.delivered);
    registry.set_counter("net.dropped", stats.dropped());
    registry.set_counter("net.false_timeouts", stats.false_timeouts);
    let line = obs::JsonValue::Object(vec![
        ("node".into(), (me.index() as u64).into()),
        ("round".into(), (round as u64).into()),
        ("registry".into(), registry.to_json()),
    ]);
    writeln!(f, "{}", line.to_json_string())
}

/// One instance on `mesh`, one driver thread per node, each gone when
/// this returns. The mesh comes back only if every endpoint of it
/// [ended clean](MeshTransport::ended_clean); an endpoint that did not is
/// closed by its own driver, so lingering teardowns overlap.
fn run_mesh(
    kind: TransportKind,
    mesh: Vec<MeshTransport>,
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    options: RunOptions,
) -> (TransportRun, Option<Vec<MeshTransport>>) {
    let (n, depth) = (instance.n(), instance.depth());
    let machines = machines_for(instance, sender_value, strategies);
    let options = MeshDriveOptions {
        record_events: options.record_events,
        trace: options.trace,
        ..MeshDriveOptions::default()
    };
    let handles: Vec<_> = mesh
        .into_iter()
        .zip(machines)
        .map(|(mut t, m)| {
            let options = options.clone();
            thread::spawn(move || {
                let outcome = drive(&mut t, m, &options);
                (outcome, t.ended_clean().then_some(t))
            })
        })
        .collect();
    let (outcomes, mesh): (Vec<_>, Vec<_>) = handles
        .into_iter()
        .zip(NodeId::all(n))
        .map(|(h, node)| {
            // A driver that panicked took its endpoint down with it: the
            // peers saw the links close, and the mesh is not kept.
            h.join()
                .unwrap_or_else(|_| (NodeOutcome::panicked(node, n, depth), None))
        })
        .unzip();
    (
        TransportRun::assemble(kind, outcomes),
        mesh.into_iter().collect(),
    )
}

/// Runs the scenario with one OS thread per node over in-process channels.
pub fn run_channel(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
) -> TransportRun {
    run_channel_with(
        instance,
        sender_value,
        strategies,
        chaos,
        config,
        RunOptions::default(),
    )
}

/// [`run_channel`] with explicit [`RunOptions`].
fn run_channel_with(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
    options: RunOptions,
) -> TransportRun {
    let mesh = channel_mesh(instance.n(), instance.depth(), &chaos, config);
    run_mesh(
        TransportKind::Channel,
        mesh,
        instance,
        sender_value,
        strategies,
        options,
    )
    .0
}

/// Runs the scenario with one OS thread per node over loopback TCP.
pub fn run_tcp(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<TransportRun> {
    run_tcp_with(
        instance,
        sender_value,
        strategies,
        chaos,
        config,
        RunOptions::default(),
    )
}

/// The loopback mesh the last healthy [`run_tcp`] instance left standing,
/// for the next one to run on: 21 connections at `N = 7` that are not
/// dialed, and not left in `TIME_WAIT`, once per decision. Empty while a
/// call has the mesh checked out. An idle standing mesh is sockets only —
/// it runs no thread.
static STANDING_MESH: Mutex<Option<Vec<MeshTransport>>> = Mutex::new(None);

fn standing_mesh() -> MutexGuard<'static, Option<Vec<MeshTransport>>> {
    STANDING_MESH.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`run_tcp`] with explicit [`RunOptions`].
///
/// The instance runs on the standing mesh if there is one of the same
/// size, and on a mesh built for it otherwise (none standing, another
/// call using it, a different `n`); either way the endpoints are re-armed
/// for this instance — its depth, chaos and `config` — and driven by the
/// same code. The mesh is left standing only if **every** endpoint
/// closed every round by marks and has nothing buffered, unflushed,
/// reconnected, gone or timed out — any other ending closes it, so a
/// fresh mesh is the one recovery path and no frame of one instance can
/// meet the next.
fn run_tcp_with(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
    options: RunOptions,
) -> io::Result<TransportRun> {
    let (n, depth) = (instance.n(), instance.depth());
    // One slot, and the latest healthy mesh is the one worth keeping: a
    // standing mesh of another size is closed, once the slot's lock is
    // released.
    let taken = standing_mesh().take();
    let mut mesh = match taken.filter(|mesh| mesh.len() == n) {
        Some(mesh) => mesh,
        None => tcp_mesh(n, depth, &chaos, config)?,
    };
    // A mesh just built was armed by `tcp_mesh` already; arming it again
    // is the price of one path for both.
    for endpoint in &mut mesh {
        endpoint.rearm(depth, &chaos, config);
    }
    let (run, mesh) = run_mesh(
        TransportKind::Tcp,
        mesh,
        instance,
        sender_value,
        strategies,
        options,
    );
    if mesh.is_some() {
        // Whatever a concurrent call left meanwhile is closed outside the
        // lock.
        let replaced = std::mem::replace(&mut *standing_mesh(), mesh);
        drop(replaced);
    }
    Ok(run)
}

/// Runs the scenario on the backend selected by `kind` — the harness/CLI
/// entry point. Only the TCP backend can actually fail (socket setup).
pub fn run_kind_with(
    kind: TransportKind,
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
    options: RunOptions,
) -> io::Result<TransportRun> {
    match kind {
        TransportKind::Sim => Ok(run_sim_with(
            instance,
            sender_value,
            strategies,
            chaos,
            None,
            options,
        )),
        TransportKind::Channel => Ok(run_channel_with(
            instance,
            sender_value,
            strategies,
            chaos,
            config,
            options,
        )),
        TransportKind::Tcp => {
            run_tcp_with(instance, sender_value, strategies, chaos, config, options)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::{run_protocol, Params};
    use std::time::Duration;

    fn instance(n: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(n, Params::new(m, u).unwrap(), NodeId::new(0)).unwrap()
    }

    #[test]
    fn sim_healthy_matches_run_protocol() {
        let inst = instance(5, 1, 2);
        let strategies = BTreeMap::new();
        let oracle = run_protocol(&inst, &Val::Value(42), &strategies, 7);
        let run = run_sim(
            &inst,
            Val::Value(42),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        assert_eq!(run.decisions, oracle.decisions);
        for d in run.decisions.values() {
            assert_eq!(*d, Val::Value(42));
        }
        assert!(
            !run.decisions.contains_key(&NodeId::new(0)),
            "sender never decides"
        );
        assert_eq!(run.stats.delivered, run.stats.sent);
    }

    #[test]
    fn sim_with_liars_matches_run_protocol() {
        let inst = instance(7, 2, 2);
        let strategies: BTreeMap<_, _> = [
            (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
            (NodeId::new(5), Strategy::Silent),
        ]
        .into_iter()
        .collect();
        let oracle = run_protocol(&inst, &Val::Value(1), &strategies, 7);
        let run = run_sim(
            &inst,
            Val::Value(1),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        assert_eq!(run.decisions, oracle.decisions);
    }

    #[test]
    fn channel_matches_sim_healthy() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)))]
            .into_iter()
            .collect();
        let sim = run_sim(
            &inst,
            Val::Value(8),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        let chan = run_channel(
            &inst,
            Val::Value(8),
            &strategies,
            LinkChaos::healthy(),
            MeshConfig::default(),
        );
        assert_eq!(chan.decisions, sim.decisions);
        assert_eq!(chan.views, sim.views);
        assert_eq!(chan.stats.chaos_signature(), sim.stats.chaos_signature());
    }

    #[test]
    fn recorded_events_cover_every_round_close() {
        let inst = instance(4, 1, 1);
        let run = run_sim_with(
            &inst,
            Val::Value(3),
            &BTreeMap::new(),
            LinkChaos::healthy(),
            None,
            RunOptions {
                record_events: true,
                ..RunOptions::default()
            },
        );
        assert_eq!(run.node_events.len(), 4);
        for (node, events) in &run.node_events {
            let closes: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    Step::Close { round, .. } => Some(*round),
                    _ => None,
                })
                .collect();
            assert_eq!(closes, vec![0, 1, 2], "node {node}");
        }
    }

    #[test]
    fn traced_sim_run_records_a_complete_deterministic_chain() {
        let inst = instance(4, 1, 1);
        let run = |_| {
            run_sim_with(
                &inst,
                Val::Value(9),
                &BTreeMap::new(),
                LinkChaos::healthy(),
                None,
                RunOptions::traced(),
            )
        };
        let a = run(());
        let b = run(());
        assert!(a.obs.is_enabled());
        // Bit-stable: same scenario, same trace, logical dimension and all.
        assert_eq!(a.obs, b.obs);
        let reg = a.obs.registry();
        assert_eq!(reg.counter("trace.sends"), a.stats.sent);
        assert_eq!(reg.counter("trace.delivers"), a.stats.delivered);
        // Every traced delivery carried its context on this backend.
        assert_eq!(reg.counter("trace.delivers_untraced"), 0);
        assert_eq!(reg.counter("trace.decides"), 3);
        // Every delivery span parses back to a context that chains from
        // some send span's context (send happens-before deliver).
        let sends: Vec<TraceCtx> = a
            .obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.send")
            .filter_map(|s| TraceCtx::from_span_args(&s.args))
            .collect();
        let delivers: Vec<TraceCtx> = a
            .obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.deliver")
            .filter_map(|s| TraceCtx::from_span_args(&s.args))
            .collect();
        assert_eq!(delivers.len() as u64, a.stats.delivered);
        for d in &delivers {
            assert!(
                sends.contains(d),
                "delivered context {d} was never stamped on a send"
            );
        }
    }

    #[test]
    fn traced_runs_decide_identically_on_every_backend() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(NodeId::new(2), Strategy::ConstantLie(Val::Value(6)))]
            .into_iter()
            .collect();
        let baseline = run_sim(
            &inst,
            Val::Value(4),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        for kind in TransportKind::ALL {
            let run = run_kind_with(
                kind,
                &inst,
                Val::Value(4),
                &strategies,
                LinkChaos::healthy(),
                MeshConfig::default(),
                RunOptions::traced(),
            )
            .unwrap();
            assert_eq!(run.decisions, baseline.decisions, "{kind}");
            let reg = run.obs.registry();
            assert_eq!(reg.counter("trace.sends"), run.stats.sent, "{kind}");
            assert_eq!(reg.counter("trace.delivers"), run.stats.delivered, "{kind}");
            // Meshes carry the context through frames (channel:
            // in-memory, TCP: the 0x03 wire tag); nothing arrives
            // untraced on a healthy network.
            assert_eq!(reg.counter("trace.delivers_untraced"), 0, "{kind}");
        }
    }

    #[test]
    fn a_mesh_that_ran_clean_runs_the_next_instance_and_any_other_ending_closes_it() {
        let inst = instance(4, 1, 1);
        let liar: BTreeMap<_, _> = [(NodeId::new(2), Strategy::ConstantLie(Val::Value(6)))]
            .into_iter()
            .collect();
        let on = |mesh, value, strategies: &BTreeMap<_, _>| {
            run_mesh(
                TransportKind::Tcp,
                mesh,
                &inst,
                Val::Value(value),
                strategies,
                RunOptions::default(),
            )
        };
        let mesh = tcp_mesh(
            4,
            inst.depth(),
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
        .unwrap();
        let (first, mesh) = on(mesh, 7, &BTreeMap::new());
        assert!(first.decisions.values().all(|d| *d == Val::Value(7)));
        let mut mesh = mesh.expect("a clean instance leaves its mesh standing");
        // The same sockets, re-armed: the second instance sees none of
        // the first (its views are the simulator's, slot for slot).
        for t in &mut mesh {
            t.rearm(inst.depth(), &LinkChaos::healthy(), MeshConfig::default());
        }
        let (second, mesh) = on(mesh, 8, &liar);
        let sim = run_sim(&inst, Val::Value(8), &liar, LinkChaos::healthy(), None);
        assert_eq!(second.decisions, sim.decisions);
        assert_eq!(second.views, sim.views);
        assert_eq!(second.stats.false_timeouts, 0);
        let mut mesh = mesh.expect("and so does the second");
        // A deadline no mark can beat: every node times its peers out,
        // and a mesh that saw a timeout is not kept.
        let rushed = MeshConfig {
            round_timeout: Duration::from_nanos(1),
            ..MeshConfig::default()
        };
        for t in &mut mesh {
            t.rearm(inst.depth(), &LinkChaos::healthy(), rushed);
        }
        let (third, mesh) = on(mesh, 9, &BTreeMap::new());
        assert!(third.stats.false_timeouts > 0);
        assert!(mesh.is_none(), "a timed-out instance closes its mesh");
    }

    #[test]
    fn a_driver_stalled_past_the_last_deadline_degrades_the_run_and_closes_the_mesh() {
        // §6: a false absence degrades, never breaks. Node 3 stalls at the
        // opening of the last round, past everyone's 30 ms deadline: the
        // others time it out, which makes it one faulty node — within `m`.
        let inst = instance(4, 1, 1);
        let stalled = NodeId::new(3);
        let config = MeshConfig {
            round_timeout: Duration::from_millis(30),
            ..MeshConfig::default()
        };
        let mesh = tcp_mesh(4, inst.depth(), &LinkChaos::healthy(), config).unwrap();
        let machines = machines_for(&inst, Val::Value(5), &BTreeMap::new());
        let last_round = inst.depth() - 1;
        let handles: Vec<_> = mesh
            .into_iter()
            .zip(machines)
            .map(|(mut t, mut m)| {
                thread::spawn(move || {
                    if t.me() != stalled {
                        let outcome = drive(&mut t, m, &MeshDriveOptions::default());
                        return (outcome.decision, t);
                    }
                    loop {
                        match t.poll() {
                            PollOutcome::Event(event) => {
                                if event == (degradable::NodeEvent::Timeout { round: last_round }) {
                                    thread::sleep(Duration::from_millis(200));
                                }
                                perform(&mut t, &mut m, event, None, None);
                            }
                            PollOutcome::Pending => t.wait(),
                            PollOutcome::Closed => return (m.decided().copied(), t),
                        }
                    }
                })
            })
            .collect();
        let nodes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let decisions = nodes
            .iter()
            .filter_map(|(decision, t)| decision.map(|d| (t.me(), d)))
            .collect();
        let record = degradable::RunRecord {
            params: inst.params(),
            n: 4,
            sender: NodeId::new(0),
            sender_value: Val::Value(5),
            faulty: [stalled].into_iter().collect(),
            decisions,
        };
        assert!(
            matches!(
                degradable::check_degradable(&record),
                degradable::Verdict::Satisfied(_)
            ),
            "{record:?}"
        );
        // Envelopes among the three prompt nodes: the sender's to 1 and 2,
        // and their relays to each other. Every one arrived, the stalled
        // node's did not, and no endpoint would be kept.
        for (_, t) in nodes.iter().filter(|(_, t)| t.me() != stalled) {
            let expected = if t.me() == inst.sender() { 0 } else { 2 };
            assert_eq!(t.stats().delivered, expected, "node {}", t.me());
            assert_eq!(t.stats().false_timeouts, 1, "node {}", t.me());
            assert!(!t.ended_clean(), "node {}", t.me());
        }
    }

    #[test]
    fn a_node_thread_that_panics_costs_its_node_not_the_caller() {
        // A mesh armed for one round more than the machines have: every
        // machine refuses the surplus timeout by panicking, on its own
        // driver thread.
        let inst = instance(4, 1, 1);
        let mesh = channel_mesh(
            4,
            inst.depth() + 1,
            &LinkChaos::healthy(),
            MeshConfig::default(),
        );
        let (run, mesh) = run_mesh(
            TransportKind::Channel,
            mesh,
            &inst,
            Val::Value(7),
            &BTreeMap::new(),
            RunOptions::default(),
        );
        assert!(mesh.is_none(), "no endpoint outlives its driver");
        assert!(run.decisions.is_empty(), "{:?}", run.decisions);
        let panicked = Some("mesh node thread panicked");
        assert_eq!(run.failures.len(), 4, "{:?}", run.failures);
        for node in NodeId::all(4) {
            assert_eq!(run.failures.get(&node).map(String::as_str), panicked);
        }
        assert_eq!(run.views.len(), 4);
        for (node, view) in &run.views {
            assert_eq!(view.entries().count(), 0, "node {node}");
        }
    }

    #[test]
    fn tcp_matches_sim_healthy() {
        let inst = instance(4, 1, 1);
        let strategies = BTreeMap::new();
        let sim = run_sim(
            &inst,
            Val::Value(77),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        let tcp = run_tcp(
            &inst,
            Val::Value(77),
            &strategies,
            LinkChaos::healthy(),
            MeshConfig::default(),
        )
        .unwrap();
        assert_eq!(tcp.decisions, sim.decisions);
        assert_eq!(tcp.views, sim.views);
    }
}
