//! Scenario drivers: one BYZ instance, any backend.
//!
//! The driver loop is identical everywhere — poll the transport, feed the
//! event to the node's [`NodeStateMachine`], perform the returned actions
//! — but the concurrency shape differs: [`run_sim`] multiplexes all `n`
//! endpoints on the calling thread (the shared event queue dictates the
//! order, so the sweep pattern is irrelevant), while [`run_channel`] and
//! [`run_tcp`] give every node a worker of a [`simnet::crew::Crew`] and let
//! real scheduling happen. An instance is one job per node that carries
//! the node's endpoint and gives it back if it ended clean; a node whose
//! thread panicked is that node's failure, never the caller's. A channel
//! mesh gets a crew per call; the crew of the mesh `run_tcp` keeps
//! standing stays parked between instances, so a decision on it spawns no
//! thread. All three return a [`TransportRun`] carrying decisions, the
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
use simnet::crew::{Crew, Job};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
                        // No endpoint core hands over an event after the
                        // final timeout, so the machine is not done yet.
                        progressed = true;
                        all_closed = false;
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

/// One instance on one endpoint: the body of [`drive_mesh`] and of every
/// [`NodeJob`]. The endpoint is only borrowed, so that a job can give back
/// a TCP endpoint that ended clean for the next instance; every other
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

/// What every endpoint of a mesh is re-armed with for one instance, and
/// how its node's job records it.
#[derive(Debug, Clone)]
struct Arming {
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
    options: MeshDriveOptions,
}

impl Arming {
    /// The arming an instance asks for.
    fn for_instance(
        instance: &ByzInstance,
        chaos: LinkChaos,
        config: MeshConfig,
        options: RunOptions,
    ) -> Self {
        Arming {
            depth: instance.depth(),
            chaos,
            config,
            options: MeshDriveOptions {
                record_events: options.record_events,
                trace: options.trace,
                ..MeshDriveOptions::default()
            },
        }
    }
}

/// One instance's work for one node of a [`Mesh`]: its endpoint, its
/// machine and what to arm the endpoint with.
struct NodeJob {
    endpoint: MeshTransport,
    machine: NodeStateMachine<u64>,
    arming: Arming,
}

impl Job for NodeJob {
    type State = ();
    /// The node's outcome, and its endpoint if it [ended
    /// clean](MeshTransport::ended_clean).
    type Output = (NodeOutcome, Option<MeshTransport>);

    /// Re-arms the endpoint, [`drive`]s it and gives it back if it ended
    /// clean. Any other ending closes it here, on the thread that ran it,
    /// so the closes of a mesh's endpoints run side by side.
    fn run(mut self, (): &mut ()) -> Self::Output {
        let arming = &self.arming;
        let endpoint = &mut self.endpoint;
        endpoint.rearm(arming.depth, &arming.chaos, arming.config);
        let outcome = drive(endpoint, self.machine, &arming.options);
        let kept = self.endpoint.ended_clean().then_some(self.endpoint);
        (outcome, kept)
    }
}

/// A mesh's endpoints, in node order, and the crew that drives them: one
/// worker per node, and node `k` on worker `k` instance after instance, so
/// that an endpoint's buffers stay with one thread's allocator.
struct Mesh {
    endpoints: Vec<MeshTransport>,
    crew: Crew<NodeJob>,
}

impl Mesh {
    fn new(endpoints: Vec<MeshTransport>) -> Self {
        let crew = Crew::new(endpoints.len(), || ());
        Mesh { endpoints, crew }
    }
}

/// One instance on `mesh`: one job per node, every endpoint re-armed with
/// `arming`, the outcomes collected in node order. Returns the run, and
/// the mesh back only if every endpoint ended clean — only then may it run
/// another instance.
fn run_mesh(
    kind: TransportKind,
    mut mesh: Mesh,
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    arming: &Arming,
) -> (TransportRun, Option<Mesh>) {
    let (n, depth) = (instance.n(), instance.depth());
    let machines = machines_for(instance, sender_value, strategies);
    let endpoints = std::mem::take(&mut mesh.endpoints);
    let jobs = endpoints
        .into_iter()
        .zip(machines)
        .map(|(endpoint, machine)| NodeJob {
            endpoint,
            machine,
            arming: arming.clone(),
        });
    let mut kept = Vec::with_capacity(n);
    let outcomes = mesh
        .crew
        .run(jobs, None)
        .into_iter()
        .zip(NodeId::all(n))
        .map(|(ended, node)| match ended {
            Ok((outcome, endpoint)) => {
                kept.extend(endpoint);
                outcome
            }
            // A node whose thread panicked took its endpoint down with
            // it: the peers saw the links close, and the mesh is not kept.
            Err(_) => NodeOutcome::panicked(node, n, depth),
        })
        .collect();
    let (run, clean) = (TransportRun::assemble(kind, outcomes), kept.len() == n);
    mesh.endpoints = kept;
    (run, clean.then_some(mesh))
}

/// Runs the scenario with one OS thread per node over in-process byte
/// pipes, through the same link code as [`run_tcp`].
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
    let arming = Arming::for_instance(instance, chaos, config, options);
    let endpoints = channel_mesh(instance.n(), arming.depth, &arming.chaos, config);
    let (kind, mesh) = (TransportKind::Channel, Mesh::new(endpoints));
    run_mesh(kind, mesh, instance, sender_value, strategies, &arming).0
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
/// dialed, and not left in `TIME_WAIT`, once per decision, and a crew of
/// one worker per node that is not spawned and joined once per decision.
/// Empty while a call has the mesh checked out. An idle standing mesh is
/// its sockets and `n` workers parked on the crew's queue.
static STANDING_MESH: Mutex<Option<Mesh>> = Mutex::new(None);

fn standing_mesh() -> MutexGuard<'static, Option<Mesh>> {
    STANDING_MESH.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`run_tcp`] with explicit [`RunOptions`].
fn run_tcp_with(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    chaos: LinkChaos,
    config: MeshConfig,
    options: RunOptions,
) -> io::Result<TransportRun> {
    let arming = Arming::for_instance(instance, chaos, config, options);
    run_on_standing_mesh(instance, sender_value, strategies, &arming)
}

/// The instance runs on the standing mesh if there is one of the same
/// size, and on a mesh built for it, with a crew spawned for it,
/// otherwise (none standing, another call using it, a different `n`);
/// either way every endpoint is re-armed with `arming` — the instance's
/// depth, chaos and `config` — and driven by the same code. The mesh is
/// left standing only if **every** endpoint closed every round by marks
/// and has nothing buffered, unflushed, reconnected, gone or timed out —
/// any other ending closes it and joins its crew, so a fresh mesh is the
/// one recovery path and no frame of one instance can meet the next.
fn run_on_standing_mesh(
    instance: &ByzInstance,
    sender_value: Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    arming: &Arming,
) -> io::Result<TransportRun> {
    let n = instance.n();
    // One slot, and the latest healthy mesh is the one worth keeping: a
    // standing mesh of another size is closed, once the slot's lock is
    // released.
    let taken = standing_mesh().take();
    let mesh = match taken.filter(|mesh| mesh.endpoints.len() == n) {
        Some(mesh) => mesh,
        None => Mesh::new(tcp_mesh(n, arming.depth, &arming.chaos, arming.config)?),
    };
    let kind = TransportKind::Tcp;
    let (run, kept) = run_mesh(kind, mesh, instance, sender_value, strategies, arming);
    if let Some(mesh) = kept {
        // Whatever a concurrent call left meanwhile is closed outside the
        // lock.
        let replaced = standing_mesh().replace(mesh);
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
    use std::thread;
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

    /// What an instance of `inst` asks its endpoints to be armed with,
    /// under `config`.
    fn arming(inst: &ByzInstance, config: MeshConfig) -> Arming {
        Arming::for_instance(inst, LinkChaos::healthy(), config, RunOptions::default())
    }

    #[test]
    fn a_mesh_that_ran_clean_runs_the_next_instance_and_any_other_ending_closes_it() {
        let inst = instance(4, 1, 1);
        let liar: BTreeMap<_, _> = [(NodeId::new(2), Strategy::ConstantLie(Val::Value(6)))]
            .into_iter()
            .collect();
        let mesh = tcp_mesh(
            4,
            inst.depth(),
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
        .unwrap();
        // The mesh an instance gave back, for the next one to run on.
        let mut standing = Some(Mesh::new(mesh));
        let mut on = |value, strategies: &BTreeMap<_, _>, config| {
            let (run, kept) = run_mesh(
                TransportKind::Tcp,
                standing.take().expect("the last instance kept its mesh"),
                &inst,
                Val::Value(value),
                strategies,
                &arming(&inst, config),
            );
            let clean = kept.is_some();
            standing = kept;
            (run, clean)
        };
        let (first, clean) = on(7, &BTreeMap::new(), MeshConfig::default());
        assert!(first.decisions.values().all(|d| *d == Val::Value(7)));
        assert!(clean, "a clean instance leaves its mesh standing");
        // The same sockets and crew, re-armed: the second instance sees
        // none of the first (its views are the simulator's, slot for slot).
        let (second, clean) = on(8, &liar, MeshConfig::default());
        let sim = run_sim(&inst, Val::Value(8), &liar, LinkChaos::healthy(), None);
        assert_eq!(second.decisions, sim.decisions);
        assert_eq!(second.views, sim.views);
        assert_eq!(second.stats.false_timeouts, 0);
        assert!(clean, "and so does the second");
        // A deadline no mark can beat: every node times its peers out,
        // and a mesh that saw a timeout is not kept.
        let rushed = MeshConfig {
            round_timeout: Duration::from_nanos(1),
            ..MeshConfig::default()
        };
        let (third, clean) = on(9, &BTreeMap::new(), rushed);
        assert!(third.stats.false_timeouts > 0);
        assert!(!clean, "a timed-out instance closes its mesh");
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

    /// Every node of `run` lost to a panic of its driver thread, which
    /// left no decision and an empty view behind.
    fn assert_every_node_panicked(run: &TransportRun, n: usize) {
        assert!(run.decisions.is_empty(), "{:?}", run.decisions);
        let panicked = Some("mesh node thread panicked");
        assert_eq!(run.failures.len(), n, "{:?}", run.failures);
        for node in NodeId::all(n) {
            assert_eq!(run.failures.get(&node).map(String::as_str), panicked);
        }
        assert_eq!(run.views.len(), n);
        for (node, view) in &run.views {
            assert_eq!(view.entries().count(), 0, "node {node}");
        }
    }

    #[test]
    fn a_node_thread_that_panics_costs_its_node_not_the_caller() {
        // A mesh armed for one round more than the machines have: every
        // machine refuses the surplus timeout by panicking, on its own
        // driver thread.
        let inst = instance(4, 1, 1);
        let deeper = Arming {
            depth: inst.depth() + 1,
            ..arming(&inst, MeshConfig::default())
        };
        let mesh = channel_mesh(4, deeper.depth, &deeper.chaos, deeper.config);
        let (run, kept) = run_mesh(
            TransportKind::Channel,
            Mesh::new(mesh),
            &inst,
            Val::Value(7),
            &BTreeMap::new(),
            &deeper,
        );
        let clean = kept.is_some();
        assert!(!clean, "no endpoint outlives its driver");
        assert_every_node_panicked(&run, 4);
    }

    #[test]
    fn a_tcp_mesh_whose_drivers_panic_is_not_kept_and_the_next_run_gets_a_fresh_one() {
        // The channel test's surplus round, on the standing-mesh path, at
        // a size no other test of this module runs: the slot can only
        // hold a six-node mesh this test left there.
        let inst = instance(6, 1, 2);
        let deeper = Arming {
            depth: inst.depth() + 1,
            ..arming(&inst, MeshConfig::default())
        };
        let run = run_on_standing_mesh(&inst, Val::Value(7), &BTreeMap::new(), &deeper).unwrap();
        assert_every_node_panicked(&run, 6);
        let kept = standing_mesh().as_ref().map(|mesh| mesh.endpoints.len());
        assert_ne!(kept, Some(6), "a mesh whose drivers panicked is not kept");
        let strategies = BTreeMap::new();
        let healthy = LinkChaos::healthy();
        let run = run_tcp(
            &inst,
            Val::Value(7),
            &strategies,
            healthy,
            MeshConfig::default(),
        )
        .unwrap();
        let sim = run_sim(
            &inst,
            Val::Value(7),
            &strategies,
            LinkChaos::healthy(),
            None,
        );
        assert_eq!(run.decisions, sim.decisions);
        assert_eq!(run.views, sim.views);
        assert_eq!(run.stats.false_timeouts, 0);
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
