//! Batched agreement: many concurrent BYZ instances multiplexed over one
//! message-passing execution, folded through the shared arena engine.
//!
//! A deployed system rarely runs one agreement at a time — interactive
//! consistency needs `N` instances (one per sender), a replicated log
//! pipelines slots, and the channel systems of Section 3 agree on a stream
//! of sensor readings. [`run_batch`] runs any number of instances
//! *concurrently* on the `simnet` round engine: every envelope carries an
//! instance id, all instances advance in lock-step (they share the `m+1`
//! round structure), and decisions come from one memoized bottom-up
//! arena resolution per instance ([`crate::engine`]) instead of one
//! recursive [`EigView`] fold per (receiver, instance).
//!
//! The path structure of an instance depends only on `(n, sender, depth)`,
//! never on slot values, so instances that share a sender share one
//! [`crate::engine::PathArena`] (and [`crate::engine::EigEngine`]): a
//! K-slot stream from one sender builds its arena exactly once
//! ([`BatchRun::arena_builds`] counts the builds). Each instance fills its
//! own [`crate::engine::EigStore`] — node `i`'s local view is column `i`.
//!
//! The faulty nodes' strategies apply uniformly across instances (the
//! same Byzantine node misbehaves everywhere), which matches the fault
//! model: `f` counts *nodes*, not (node, instance) pairs.
//!
//! This module holds the **one** simulated-network inbox of the crate:
//! [`run_batch`], [`crate::run_protocol`] (a one-instance batch),
//! [`crate::run_churn`] (one batch per epoch) and [`ServiceState`] (one
//! batch per drain) all validate, record and relay through the same round
//! closure.
//!
//! A [`BatchMsg`] carries its relay path as a *label*: a root node and a
//! [`PathId`] in the arena of that root's instances. Every label that
//! decodes — the root has an arena in the batch and the id is one of its
//! labels — is a label of that root's EIG tree by construction, so what
//! [`crate::path::is_label`] asks of a wire path never needs asking here;
//! a label that does not decode names nothing and is dropped. An honest
//! node accepts a decoded label only if it ends in the true source (the
//! engine stamps sources, so a faulty node cannot impersonate — assumption
//! (c) of the paper), does not contain the receiver, and is not from a
//! future level — [`crate::path::admit`], the rule
//! [`crate::NodeStateMachine`] applies too, read off the label's arena
//! node — and only if its root is the claimed instance's sender. Without
//! the last check a Byzantine relayer can *re-tag* a genuine envelope with
//! a different instance id (cross-instance spoofing); the resolution never
//! reads foreign-rooted slots, but honest nodes would still relay the
//! spoof and amplify it ([`BatchRun::spoofs_rejected`] counts the
//! rejections). Anything else is dropped, which maps a protocol-confused
//! faulty node onto the silent/absent case. A relay goes out under the
//! label's child by the relayer, to the nodes off that child; only a
//! faulty relayer's strategy, and a trace sink, ever see the label as a
//! [`Path`]. Duplicated envelopes fold idempotently (first
//! write per (instance, path, receiver) slot wins), envelopes that arrive
//! late still fold as direct observations but are never relayed, and
//! corruption reads as absence (oral-message axiom). Everything optional
//! about an execution rides in one [`BatchOptions`] value.
//!
//! Integration tests assert that multiplexing is purely a transport
//! optimization — K instances decide exactly as K one-instance batches,
//! with the same total message count — and that every instance equals
//! the two independent implementations of the algorithm:
//! [`crate::reference_eval`] (the paper's recursion, no messages) and the
//! sans-io [`crate::NodeStateMachine`] (the wire inbox).

// Whatever a caller hands the service — shapes, senders, queue pressure —
// comes back as a `ServiceError`; outside tests nothing here may panic on it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::adversary::{claim_for, Strategy};
use crate::eig::EigView;
use crate::engine::{EigEngine, EigStore, PathArena, PathId};
use crate::params::Params;
use crate::path::{Arrival, Path};
use crate::protocol::ByzMsg;
use crate::spec::Step;
use crate::value::AgreementValue;
use obs::{Obs, SpanRecord};
use simnet::{EigPerf, NodeId, RoundEngine, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Bucket bounds for the per-instance message-count histogram
/// (`svc.instance.messages`): powers of four from 8 to half a million,
/// wide enough for E16-scale batches.
pub const SVC_MSG_BOUNDS: &[u64] = &[8, 32, 128, 512, 2048, 8192, 32768, 131_072, 524_288];

/// Bucket bounds for the per-instance logical-cost histogram
/// (`svc.instance.logical`): votes settled per instance.
pub const SVC_LOGICAL_BOUNDS: &[u64] = &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576];

/// One instance of a batch: who sends what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInstance<V> {
    /// The designated sender.
    pub sender: NodeId,
    /// The sender's value.
    pub value: AgreementValue<V>,
}

/// A multiplexed protocol message. Its relay path travels as coordinates
/// in the arena of the path's root: `label` is the path's [`PathId`] in the
/// [`crate::engine::PathArena`] rooted at `root`, which every instance of
/// that sender in the execution shares, so a receiver reads the label's
/// length, last relayer and members off the arena instead of re-deriving
/// an id from a [`Path`]. The wire ([`ByzMsg`]) still carries the `Path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMsg<V> {
    /// Which instance this envelope belongs to.
    pub instance: u32,
    /// The node the relay path starts at.
    pub root: NodeId,
    /// The relay path, as an id in `root`'s arena.
    pub label: PathId,
    /// Claimed value.
    pub value: AgreementValue<V>,
}

/// Result of a batched execution.
#[derive(Debug, Clone)]
pub struct BatchRun<V: Ord> {
    /// Per instance (in input order): every receiver's decision.
    pub decisions: Vec<BTreeMap<NodeId, AgreementValue<V>>>,
    /// Network statistics of the single multiplexed engine run; `net.eig`
    /// carries the [`EigPerf`] counters aggregated across all instances.
    pub net: simnet::Outcome,
    /// Distinct arenas built — one per distinct sender, at most the
    /// instance count. A K-slot single-sender stream reports 1.
    pub arena_builds: usize,
    /// Envelopes rejected because their path root was not the claimed
    /// instance's sender (cross-instance spoofing by a Byzantine relayer
    /// or a corrupting link).
    pub spoofs_rejected: u64,
}

/// Hook that customizes the simulated network before a run.
type NetworkHook<'a, V> =
    Box<dyn FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>> + 'a>;

/// Everything optional about one simulated-network execution — the one
/// options surface of [`run_batch`] and [`crate::run_protocol_with`].
/// The default is a healthy network, one resolve shard, and nothing
/// traced, observed or materialized.
pub struct BatchOptions<'a, V> {
    network: Option<NetworkHook<'a, V>>,
    workers: usize,
    trace: Option<&'a mut dyn FnMut(usize, Step<V>)>,
    obs: Option<&'a mut Obs>,
    views: Option<&'a mut Vec<BTreeMap<NodeId, EigView<V>>>>,
}

impl<V> Default for BatchOptions<'_, V> {
    fn default() -> Self {
        BatchOptions {
            network: None,
            workers: 1,
            trace: None,
            obs: None,
            views: None,
        }
    }
}

impl<'a, V> BatchOptions<'a, V> {
    /// The defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Customizes the engine (link-fault plan, node faults, latency
    /// model, deadline, corruptor, tracing) before the run.
    pub fn network(
        mut self,
        setup: impl FnOnce(RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>> + 'a,
    ) -> Self {
        self.network = Some(Box::new(setup));
        self
    }

    /// Resolution shards: instances are resolved in parallel across this
    /// many threads, sharded by sender, as [`ServiceConfig::workers`]
    /// does per drain. Decisions, deterministic counters and spans are
    /// independent of this knob; only wall time changes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Receives `(instance, step)`, instances in input order: one
    /// [`Step::Deliver`] per inbox envelope claiming an instance of the
    /// batch, carrying the path its label decodes to, *before* any
    /// validation (a cross-instance spoof is malformed to the claimed
    /// instance's checker too: its path is rooted elsewhere), and one
    /// [`Step::Close`] per instance × node × round, so that a per-instance
    /// `SpecChecker` sees every phase tick. An envelope whose label does not
    /// decode — a root with no arena in the batch, or an id past its
    /// arena's labels, which neither honest code nor any corruptor in this
    /// repository produces — is dropped untraced.
    pub fn trace(mut self, sink: &'a mut dyn FnMut(usize, Step<V>)) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Records a `batch.fill` span over the engine run (logical cost =
    /// slots materialized across all instances), one `batch.resolve` and
    /// one `trace.decide` span per instance (logical cost = votes
    /// settled), the `batch.*` /
    /// `svc.instance.*` registry series and the aggregated `eig.*`
    /// counters.
    pub fn obs(mut self, obs: &'a mut Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Materializes every receiver's [`EigView`] per instance from the
    /// shared stores into `out` (node `r`'s view of instance `k` is
    /// column `r` of store `k`), so differential tests can re-resolve the
    /// exact same observations through [`EigView::resolve`] and compare
    /// against the arena fold.
    pub fn views(mut self, out: &'a mut Vec<BTreeMap<NodeId, EigView<V>>>) -> Self {
        self.views = Some(out);
        self
    }
}

/// Runs `instances` concurrently over one engine execution: one
/// multiplexed [`RoundEngine`] run fills one [`EigStore`] per instance,
/// then each instance resolves bottom-up through its sender's shared
/// arena.
///
/// The shapes the engine cannot run — the node bound `n >= 2m + u + 1`,
/// the 64-node engine ceiling, a sender outside `0..n` — come back as
/// [`ServiceError`] values, never as panics. An empty batch (K = 0) is a
/// valid, trivial batch.
pub fn run_batch<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    opts: BatchOptions<'_, V>,
) -> Result<BatchRun<V>, ServiceError> {
    check_service_bounds(params, n)?;
    instances
        .iter()
        .try_for_each(|inst| check_sender(inst.sender, n))?;
    Ok(run_unchecked(params, n, instances, strategies, seed, opts))
}

/// [`run_batch`] behind its shape checks. [`crate::run_protocol`] enters
/// here: a [`crate::ByzInstance`] has validated its sender and may sit
/// below the node bound on purpose (the lower-bound experiments).
pub(crate) fn run_unchecked<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    opts: BatchOptions<'_, V>,
) -> BatchRun<V> {
    let depth = params.rounds();
    let mut pool = Pool::new();
    let mut lease = pool.lease(instances, |sender| EigEngine::new(n, sender, depth));
    let mut net = RoundEngine::new(Topology::complete(n), seed);
    if let Some(setup) = opts.network {
        net = setup(net);
    }
    let run = fill_and_resolve(
        params,
        n,
        instances,
        strategies,
        &mut net,
        opts.trace,
        opts.obs.unwrap_or(&mut Obs::disabled()),
        &pool.engines,
        &mut lease,
        opts.workers,
    );
    if let Some(out) = opts.views {
        *out = materialize_views(params, n, instances, &pool.engines, &lease);
    }
    run
}

/// Rebuilds every receiver's per-instance [`EigView`] from the shared
/// stores (node `r`'s view of instance `k` is column `r` of store `k`).
fn materialize_views<V: Clone + Ord>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    engines: &[EigEngine],
    lease: &Lease<V>,
) -> Vec<BTreeMap<NodeId, EigView<V>>> {
    let depth = params.rounds();
    instances
        .iter()
        .enumerate()
        .map(|(k, inst)| {
            let arena = engines[lease.engine_idx[k]].arena();
            NodeId::all(n)
                .filter(|r| *r != inst.sender)
                .map(|r| {
                    let mut view = EigView::new(n, depth, r);
                    for (id, v) in lease.stores[k].column(r) {
                        view.record(arena.resolve_path(id), v.clone());
                    }
                    (r, view)
                })
                .collect()
        })
        .collect()
}

/// One [`EigEngine`] (and arena) per sender plus a free list of cleared
/// stores per engine: the path structure depends only on
/// `(n, sender, depth)`, so every instance sharing a sender shares the
/// interned tree. A [`ServiceState`] keeps its pool across drains; a
/// one-shot [`run_batch`] builds one and drops it.
#[derive(Debug)]
struct Pool<V> {
    /// One engine per sender ever seen, append-only.
    engines: Vec<EigEngine>,
    engine_of_sender: BTreeMap<NodeId, usize>,
    /// Per-engine free lists of cleared stores.
    free_stores: Vec<Vec<EigStore<V>>>,
}

/// What one execution holds of a [`Pool`]: per instance its engine and
/// its slot table (shared by all nodes — node `i`'s local view of
/// instance `k` is column `i` of `stores[k]`), and what had to be built.
struct Lease<V> {
    engine_idx: Vec<usize>,
    stores: Vec<EigStore<V>>,
    /// Arenas built for this lease (senders first seen here); every
    /// other instance was served by an arena that already existed.
    arenas_built: u64,
    /// Stores allocated fresh (the engine's free list was dry); every
    /// other instance reuses a pooled one — cleared, never rebuilt.
    stores_built: u64,
}

impl<V> Pool<V> {
    fn new() -> Self {
        Pool {
            engines: Vec::new(),
            engine_of_sender: BTreeMap::new(),
            free_stores: Vec::new(),
        }
    }

    /// Engines and stores for `instances`; a sender not seen before gets
    /// its engine from `build`. Callers have validated the shape, so
    /// arena construction cannot fail here.
    fn lease(
        &mut self,
        instances: &[BatchInstance<V>],
        mut build: impl FnMut(NodeId) -> EigEngine,
    ) -> Lease<V> {
        let mut lease = Lease {
            engine_idx: Vec::with_capacity(instances.len()),
            stores: Vec::with_capacity(instances.len()),
            arenas_built: 0,
            stores_built: 0,
        };
        for inst in instances {
            let e = match self.engine_of_sender.get(&inst.sender) {
                Some(&e) => e,
                None => {
                    let e = self.engines.len();
                    self.engines.push(build(inst.sender));
                    self.free_stores.push(Vec::new());
                    self.engine_of_sender.insert(inst.sender, e);
                    lease.arenas_built += 1;
                    e
                }
            };
            lease.engine_idx.push(e);
            // Cleared pool entries first, fresh allocations only when
            // the free list runs dry.
            lease
                .stores
                .push(self.free_stores[e].pop().unwrap_or_else(|| {
                    lease.stores_built += 1;
                    EigStore::new(self.engines[e].arena())
                }));
        }
        lease
    }

    /// Recycles a lease: stores go back cleared, never rebuilt.
    fn give_back(&mut self, lease: Lease<V>) {
        for (e, mut store) in lease.engine_idx.into_iter().zip(lease.stores) {
            store.clear();
            self.free_stores[e].push(store);
        }
    }
}

/// The one execution of the crate's simulated-network protocol, shared
/// by the one-shot [`run_batch`] and the persistent [`ServiceState`]: one
/// multiplexed fill on the provided (fresh or long-lived) network
/// `engine` over the leased (fresh or pooled) engines and stores, then
/// one memoized bottom-up resolve per instance. With `shard_workers > 1`
/// the resolution is sharded *by sender* across worker threads — every
/// instance of a sender resolves on the thread that owns its arena — and
/// results are folded back in instance order, so decisions, deterministic
/// counters and spans are independent of the shard count. Both callers
/// pass their `workers` ([`BatchOptions::workers`],
/// [`ServiceConfig::workers`]) here; this is the crate's one parallel
/// resolve.
///
/// Inlined into its two callers on purpose: the service passes a constant
/// `trace = None`, and a drain that keeps that check in the per-message
/// closure decides about 5 % fewer instances per second on the perf ledger
/// (`svc_faultfree_n13`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_and_resolve<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    instances: &[BatchInstance<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    engine: &mut RoundEngine<BatchMsg<V>>,
    mut trace: Option<&mut dyn FnMut(usize, Step<V>)>,
    obs: &mut Obs,
    engines: &[EigEngine],
    lease: &mut Lease<V>,
    shard_workers: usize,
) -> BatchRun<V> {
    let engine_idx: &[usize] = &lease.engine_idx;
    let stores: &mut [EigStore<V>] = &mut lease.stores;
    let arena_builds = lease.arenas_built as usize;
    let depth = params.rounds();
    let rule = crate::eig::VoteRule::Degradable { m: params.m() };
    let mut spoofs_rejected = 0u64;
    // Per-instance protocol sends, accumulated during the fill so the
    // end-to-end histograms below can attribute network cost to the
    // instance that incurred it.
    let mut inst_sent: Vec<u64> = vec![0; instances.len()];

    let fill_timer = obs.span(
        "batch.fill",
        vec![
            ("n", n as u64),
            ("instances", instances.len() as u64),
            ("depth", depth as u64),
        ],
    );
    let fill_start = std::time::Instant::now();
    // Every label of the fill is decoded under its root's arena: one per
    // sender of the batch, looked up by root.
    let mut arena_of_root: Vec<Option<&PathArena>> = vec![None; n];
    for (inst, &e) in instances.iter().zip(engine_idx) {
        arena_of_root[inst.sender.index()] = Some(engines[e].arena());
    }
    // What a node's turn decides to relay, between its receive half and
    // its send half: one buffer for the whole fill, emptied by every turn.
    let mut to_relay: Vec<(u32, PathId, AgreementValue<V>)> = Vec::new();
    let mut net = engine.run_with(depth + 1, |i, ctx| {
        let me = NodeId::new(i);
        let round = ctx.round();
        let strategy = strategies.get(&me);
        let mut traced_sends: Vec<Vec<(NodeId, ByzMsg<V>)>> = if trace.is_some() {
            vec![Vec::new(); instances.len()]
        } else {
            Vec::new()
        };
        // 1. Record this round's deliveries (level = round).
        if round >= 1 {
            for (src, msg) in ctx.take_inbox() {
                let idx = msg.instance as usize;
                if idx >= instances.len() {
                    continue; // no such instance: treated as absent
                }
                // A label that does not decode — a root with no arena in
                // the batch, an id past its arena's labels — names no
                // node of any tree here and is treated as absent. Every
                // label that does is a label of its root's tree.
                let Some(arena) = arena_of_root.get(msg.root.index()).copied().flatten() else {
                    continue;
                };
                if msg.label.index() >= arena.node_count() {
                    continue;
                }
                if let Some(trace) = trace.as_deref_mut() {
                    let msg = ByzMsg {
                        path: arena.resolve_path(msg.label),
                        value: msg.value.clone(),
                    };
                    let step = Step::Deliver {
                        to: me,
                        src,
                        msg,
                        round,
                    };
                    trace(idx, step);
                }
                // The crate's one admission rule (`crate::path::admit`),
                // shared with `NodeStateMachine`, on the label's arena
                // node: a label of level `< round` is an envelope the
                // network delivered late (link reordering) — its relay
                // slot has passed, but the direct observation is still
                // genuine, so it folds into the store. Anything it refuses
                // — impersonated or self-referential labels, or labels
                // from a future level — is treated as absent.
                let Some(arrival) = arena.admit(msg.label, src, me, round) else {
                    continue;
                };
                // Cross-instance spoofing: the claimed instance pins the
                // root. A mismatched root is a re-tagged envelope and must
                // read as absent *before* any recording, so a spoof never
                // consumes relay bandwidth. Past this check `arena` is the
                // claimed instance's own.
                if msg.root != instances[idx].sender {
                    spoofs_rejected += 1;
                    continue;
                }
                // First write wins: duplicated envelopes (link-level
                // duplication, or a late copy overtaken by chaos) are
                // discarded by the idempotent fold.
                let fresh = stores[idx].record(arena, msg.label, me, msg.value.clone());
                if fresh && arrival == Arrival::OnTime && round < depth {
                    to_relay.push((msg.instance, msg.label, msg.value));
                }
            }
        }
        // 2. Send this round's messages.
        if round == 0 {
            for (idx, inst) in instances.iter().enumerate() {
                if inst.sender != me {
                    continue;
                }
                let root = Path::root(inst.sender);
                for r in NodeId::all(n) {
                    if r == me {
                        continue;
                    }
                    if let Some(v) = claim_for(strategy, &root, r, &inst.value) {
                        if !traced_sends.is_empty() {
                            let msg = ByzMsg {
                                path: root.clone(),
                                value: v.clone(),
                            };
                            traced_sends[idx].push((r, msg));
                        }
                        inst_sent[idx] += 1;
                        ctx.send(
                            r,
                            BatchMsg {
                                instance: idx as u32,
                                root: me,
                                label: PathId::ROOT,
                                value: v,
                            },
                        );
                    }
                }
            }
        } else {
            for (instance, label, value) in to_relay.drain(..) {
                let k = instance as usize;
                let (root, arena) = (instances[k].sender, engines[engine_idx[k]].arena());
                // An on-time label below the deepest level that `me` is
                // off always has the child `me` relays it under.
                let Some(child) = arena.child(label, me) else {
                    continue;
                };
                // A faulty relayer's strategy reads the child label as a
                // `Path`: decoded once per relay, never for an honest one.
                let lie_path = strategy.map(|_| arena.resolve_path(child));
                for r in arena.off_label(child) {
                    let claimed = match &lie_path {
                        Some(path) => claim_for(strategy, path, r, &value),
                        None => Some(value.clone()),
                    };
                    if let Some(v) = claimed {
                        if !traced_sends.is_empty() {
                            let msg = ByzMsg {
                                path: arena.resolve_path(child),
                                value: v.clone(),
                            };
                            traced_sends[k].push((r, msg));
                        }
                        inst_sent[k] += 1;
                        ctx.send(
                            r,
                            BatchMsg {
                                instance,
                                root,
                                label: child,
                                value: v,
                            },
                        );
                    }
                }
            }
        }
        if let Some(trace) = trace.as_deref_mut() {
            for (idx, sends) in traced_sends.into_iter().enumerate() {
                let step = Step::Close {
                    node: me,
                    round,
                    sends,
                };
                trace(idx, step);
            }
        }
    });
    let fill_nanos = fill_start.elapsed().as_nanos() as u64;
    obs.finish(fill_timer, stores.iter().map(EigStore::materialized).sum());

    // 3. Memoized bottom-up resolve, one pass per instance over its
    // sender's shared arena — inline, or sharded by sender across
    // `shard_workers` threads (results fold back in instance order, so
    // everything but wall time is shard-count-independent).
    let observed = obs.is_enabled();
    let stores: &[EigStore<V>] = stores;
    let resolve = |k: usize| engines[engine_idx[k]].resolve(rule, &stores[k]);
    let resolved: Vec<crate::engine::EngineRun<V>> = if shard_workers <= 1 {
        (0..instances.len()).map(resolve).collect()
    } else {
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_workers];
        for k in 0..instances.len() {
            shards[engine_idx[k] % shard_workers].push(k);
        }
        let resolve = &resolve;
        let mut by_instance: Vec<(usize, _)> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .filter(|shard| !shard.is_empty())
                .map(|shard| {
                    s.spawn(move || shard.iter().map(|&k| (k, resolve(k))).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| {
                    // A shard that panicked is this drain panicking.
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        // Every instance sits in exactly one shard: sorted by index, the
        // results line up with `instances`.
        by_instance.sort_unstable_by_key(|&(k, _)| k);
        by_instance.into_iter().map(|(_, run)| run).collect()
    };

    let mut decisions = Vec::with_capacity(instances.len());
    let mut agg = EigPerf::default();
    // Per-instance logical cost, for the histogram.
    let mut logicals = Vec::with_capacity(if observed { instances.len() } else { 0 });
    for (k, (inst, resolved_k)) in instances.iter().zip(resolved).enumerate() {
        // With the recorder off there is nobody to attribute to: skip
        // building the span records altogether.
        if observed {
            let logical_k = resolved_k.perf.votes_evaluated + resolved_k.perf.votes_memo_hit;
            logicals.push(logical_k);
            obs.record_span(SpanRecord {
                name: "batch.resolve".into(),
                args: vec![
                    ("instance".into(), k as u64),
                    ("sender".into(), inst.sender.index() as u64),
                ],
                logical: logical_k,
            });
            // The decision anchor of the causal chain: `trace.send` /
            // `trace.deliver` spans (transport layer) lead here.
            obs.record_span(SpanRecord {
                name: "trace.decide".into(),
                args: vec![
                    ("instance".into(), k as u64),
                    ("deciders".into(), resolved_k.decisions.len() as u64),
                ],
                logical: logical_k,
            });
        }

        agg.absorb(&resolved_k.perf);
        decisions.push(resolved_k.decisions);
    }
    agg.fill_nanos = fill_nanos;
    net.eig = agg;

    // End-to-end attribution per instance: ingest (fill sends) to decision
    // (resolve), as message count and deterministic logical cost. One
    // histogram lookup per series, not per instance.
    if observed {
        obs.observe_many("svc.instance.messages", SVC_MSG_BOUNDS, inst_sent);
        obs.observe_many("svc.instance.logical", SVC_LOGICAL_BOUNDS, logicals);
    }

    obs.add("batch.instances", instances.len() as u64);
    obs.add("batch.arena_builds", arena_builds as u64);
    obs.add(
        "batch.arena_reuses",
        (instances.len() - arena_builds) as u64,
    );
    obs.add("batch.spoofs_rejected", spoofs_rejected);
    if let Some(registry) = obs.registry_mut() {
        net.eig.fold_into(registry);
    }

    BatchRun {
        decisions,
        net,
        arena_builds,
        spoofs_rejected,
    }
}

fn check_sender(sender: NodeId, n: usize) -> Result<(), ServiceError> {
    if sender.index() >= n {
        return Err(ServiceError::SenderOutOfRange { sender, n });
    }
    Ok(())
}

fn check_service_bounds(params: Params, n: usize) -> Result<(), ServiceError> {
    if !params.admits(n) {
        return Err(ServiceError::NodeBound {
            n,
            min_nodes: params.min_nodes(),
        });
    }
    if !(1..=64).contains(&n) {
        return Err(ServiceError::Engine(
            crate::engine::EngineError::TooManyNodes { n },
        ));
    }
    Ok(())
}

/// Typed failures of [`run_batch`] and the persistent agreement service.
/// Everything a caller can provoke with bad or
/// excessive input is a value here, never a panic: panics in this
/// module are reserved for internal invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded ingestion queue is at capacity. The instance was
    /// shed and counted ([`ServiceStats::shed`], `svc.queue.shed`);
    /// callers block (retry after a drain) or drop it — the queue never
    /// grows without bound.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// An instance with this caller-assigned id is already pending.
    DuplicateInstance {
        /// The rejected id.
        id: u64,
    },
    /// The instance's sender is not a node of the `n`-node system.
    SenderOutOfRange {
        /// The rejected sender.
        sender: NodeId,
        /// System size it was checked against.
        n: usize,
    },
    /// `n` violates the node bound `n >= 2m + u + 1` of the service's
    /// parameters.
    NodeBound {
        /// The rejected system size.
        n: usize,
        /// Minimum admissible size for the parameters.
        min_nodes: usize,
    },
    /// The engine rejected the shape (e.g. `n > 64`, beyond the `u64`
    /// fault-mask ceiling).
    Engine(crate::engine::EngineError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "ingestion queue full ({capacity} instances pending)")
            }
            ServiceError::DuplicateInstance { id } => {
                write!(f, "instance id {id} is already pending")
            }
            ServiceError::SenderOutOfRange { sender, n } => {
                write!(f, "sender {sender} out of range for {n} nodes")
            }
            ServiceError::NodeBound { n, min_nodes } => {
                write!(f, "need at least {min_nodes} nodes, got {n}")
            }
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::engine::EngineError> for ServiceError {
    fn from(e: crate::engine::EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Configuration of a persistent [`ServiceState`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of the ingestion queue: [`ServiceState::ingest`] sheds
    /// with [`ServiceError::QueueFull`] once this many instances are
    /// pending.
    pub queue_capacity: usize,
    /// Resolution shards per drain: instances are resolved in parallel
    /// across this many threads, sharded by sender (each sender's
    /// instances stay on the thread that owns its arena). Decisions,
    /// deterministic counters and spans are independent of this knob;
    /// only wall time changes.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 10_000,
            workers: 1,
        }
    }
}

/// Cumulative counters of one [`ServiceState`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Instances accepted by [`ServiceState::ingest`].
    pub ingested: u64,
    /// Instances shed with [`ServiceError::QueueFull`].
    pub shed: u64,
    /// Instances decided across all drains.
    pub decided: u64,
    /// Drains executed (including empty ones).
    pub batches: u64,
    /// Arenas built — one per sender first seen, ever.
    pub arena_builds: u64,
    /// Instances served by an arena that already existed.
    pub arena_reuses: u64,
    /// Stores allocated fresh (per-sender free list was dry).
    pub store_builds: u64,
    /// Stores reused (cleared, never rebuilt) from the pool.
    pub store_reuses: u64,
}

/// One drained batch: caller-assigned ids plus the batch result
/// (decisions are index-aligned with `ids`, in ingestion order).
#[derive(Debug, Clone)]
pub struct ServiceBatch<V: Ord> {
    /// The ids of the drained instances, in ingestion order.
    pub ids: Vec<u64>,
    /// The execution result — for the same instances and seed,
    /// decision-identical to a fresh one-shot [`run_batch`].
    pub run: BatchRun<V>,
    /// Arenas built by this drain (senders first seen here).
    pub arenas_built: u64,
    /// Instances of this drain served by a pooled arena.
    pub arenas_reused: u64,
    /// Stores allocated fresh by this drain.
    pub stores_built: u64,
    /// Stores reused from the pool by this drain.
    pub stores_reused: u64,
}

/// A persistent, pipelined agreement service over the batched executor.
///
/// Where [`run_batch`] builds its arenas, decides K instances and
/// throws everything away, a `ServiceState` owns its [`PathArena`]s
/// (keyed by sender — `(n, m)` are fixed per service) and a free list
/// of [`EigStore`]s per arena, reusing both across batches: stores come
/// back **cleared, never rebuilt**, so after a warmup batch that has
/// seen every sender the arena-reuse ratio of a sustained stream is
/// 100%.
///
/// Ingestion is bounded and explicit: [`ServiceState::ingest`] queues
/// up to [`ServiceConfig::queue_capacity`] instances and sheds beyond
/// that with a counted [`ServiceError::QueueFull`] — the queue never
/// grows without bound. [`ServiceState::drain`] decides everything
/// pending in one multiplexed execution, sharding resolution by sender
/// across [`ServiceConfig::workers`] threads; for the same instances
/// and seed the decisions are bit-identical to a fresh one-shot
/// [`run_batch`], independent of the worker count.
///
/// [`PathArena`]: crate::engine::PathArena
#[derive(Debug)]
pub struct ServiceState<V> {
    params: Params,
    n: usize,
    config: ServiceConfig,
    /// Engines and cleared stores, kept across drains.
    pool: Pool<V>,
    /// The simulated network every drain fills over, re-seeded per drain;
    /// long-lived so its message buffers are allocated once.
    net: RoundEngine<BatchMsg<V>>,
    pending: Vec<(u64, BatchInstance<V>)>,
    pending_ids: BTreeSet<u64>,
    stats: ServiceStats,
    /// Sheds since the last drain (reported as `svc.queue.shed` there).
    shed_unreported: u64,
}

impl<V: Clone + Ord + Hash + Send + Sync> ServiceState<V> {
    /// A fresh service for `params` over `n` nodes. The node bound and
    /// the 64-node engine ceiling are validated here, so later drains
    /// cannot fail on shape.
    pub fn new(params: Params, n: usize, config: ServiceConfig) -> Result<Self, ServiceError> {
        check_service_bounds(params, n)?;
        Ok(ServiceState {
            params,
            n,
            config,
            pool: Pool::new(),
            net: RoundEngine::new(Topology::complete(n), 0),
            pending: Vec::new(),
            pending_ids: BTreeSet::new(),
            stats: ServiceStats::default(),
            shed_unreported: 0,
        })
    }

    /// Instances currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Queues one instance under a caller-assigned id. Fails — without
    /// queuing — on an out-of-range sender, a duplicate pending id, or
    /// a full queue (the shed is counted; retry after a drain to
    /// block-on-backpressure instead of dropping).
    pub fn ingest(&mut self, id: u64, instance: BatchInstance<V>) -> Result<(), ServiceError> {
        check_sender(instance.sender, self.n)?;
        if self.pending_ids.contains(&id) {
            return Err(ServiceError::DuplicateInstance { id });
        }
        if self.pending.len() >= self.config.queue_capacity {
            self.stats.shed += 1;
            self.shed_unreported += 1;
            return Err(ServiceError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        self.pending_ids.insert(id);
        self.pending.push((id, instance));
        self.stats.ingested += 1;
        Ok(())
    }

    /// [`ServiceState::drain_observed`] with a disabled recorder.
    pub fn drain(
        &mut self,
        strategies: &BTreeMap<NodeId, Strategy<V>>,
        seed: u64,
    ) -> ServiceBatch<V> {
        self.drain_observed(strategies, seed, &mut Obs::disabled())
    }

    /// Decides everything pending in one multiplexed execution and
    /// empties the queue. An empty drain is a valid no-op batch.
    ///
    /// Engines and stores come from the pool (missing ones are built
    /// and retained); after the resolve every store is cleared and
    /// returned to its free list. On top of the usual `batch.*` /
    /// `svc.instance.*` evidence this records the pooling counters
    /// (`svc.pool.arena_{builds,reuses,requests}`,
    /// `svc.pool.store_{reuses,requests}`) and the sheds since the last
    /// drain (`svc.queue.shed`).
    pub fn drain_observed(
        &mut self,
        strategies: &BTreeMap<NodeId, Strategy<V>>,
        seed: u64,
        obs: &mut Obs,
    ) -> ServiceBatch<V> {
        let pending = std::mem::take(&mut self.pending);
        self.pending_ids.clear();
        let mut ids = Vec::with_capacity(pending.len());
        let mut instances = Vec::with_capacity(pending.len());
        for (id, inst) in pending {
            ids.push(id);
            instances.push(inst);
        }

        // Per-instance attribution matches `run_batch` (builds = senders
        // first seen, reuses = the rest), except that here "seen" spans
        // the whole service lifetime.
        let (n, depth) = (self.n, self.params.rounds());
        let mut lease = self
            .pool
            .lease(&instances, |sender| EigEngine::new(n, sender, depth));

        let queue_depth = instances.len() as u64;
        self.net.reseed(seed);
        let run = fill_and_resolve(
            self.params,
            n,
            &instances,
            strategies,
            &mut self.net,
            None,
            obs,
            &self.pool.engines,
            &mut lease,
            self.config.workers.max(1),
        );
        let (arenas_built, stores_built) = (lease.arenas_built, lease.stores_built);
        let (arenas_reused, stores_reused) =
            (queue_depth - arenas_built, queue_depth - stores_built);
        self.pool.give_back(lease);

        self.stats.arena_builds += arenas_built;
        self.stats.arena_reuses += arenas_reused;
        self.stats.store_builds += stores_built;
        self.stats.store_reuses += stores_reused;
        self.stats.decided += run.decisions.len() as u64;
        self.stats.batches += 1;

        obs.add("svc.pool.arena_builds", arenas_built);
        obs.add("svc.pool.arena_reuses", arenas_reused);
        obs.add("svc.pool.arena_requests", arenas_built + arenas_reused);
        obs.add("svc.pool.store_reuses", stores_reused);
        obs.add("svc.pool.store_requests", stores_built + stores_reused);
        obs.add("svc.queue.shed", std::mem::take(&mut self.shed_unreported));

        ServiceBatch {
            ids,
            run,
            arenas_built,
            arenas_reused,
            stores_built,
            stores_reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::ByzInstance;
    use crate::protocol::{run_protocol, run_protocol_with};
    use crate::value::Val;
    use simnet::{LinkFaultKind, LinkFaultPlan};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn params() -> Params {
        Params::new(1, 2).unwrap()
    }

    /// What a simulated message occupies in the network's buffers — the
    /// element of `simnet`'s per-receiver `Vec<(NodeId, M)>` — is most of
    /// what a fault-free fill costs (DESIGN §5k). It must not grow
    /// silently.
    #[test]
    fn an_envelope_occupies_at_most_40_bytes() {
        use std::mem::size_of;
        // The wire's envelope still carries a `Path`.
        assert!(size_of::<Path>() <= 24, "{}", size_of::<Path>());
        assert!(size_of::<BatchMsg<u64>>() <= 32);
        assert!(size_of::<(NodeId, BatchMsg<u64>)>() <= 40);
    }

    /// A healthy, unobserved batch on a valid shape.
    fn plain(
        params: Params,
        nodes: usize,
        instances: &[BatchInstance<u64>],
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
        seed: u64,
    ) -> BatchRun<u64> {
        run_batch(
            params,
            nodes,
            instances,
            strategies,
            seed,
            BatchOptions::new(),
        )
        .unwrap()
    }

    /// A batch over the given network on a valid shape.
    fn over<'a>(
        instances: &[BatchInstance<u64>],
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
        seed: u64,
        network: impl FnOnce(RoundEngine<BatchMsg<u64>>) -> RoundEngine<BatchMsg<u64>> + 'a,
    ) -> BatchRun<u64> {
        let opts = BatchOptions::new().network(network);
        run_batch(params(), 5, instances, strategies, seed, opts).unwrap()
    }

    fn lying_strategies() -> BTreeMap<NodeId, Strategy<u64>> {
        [
            (n(3), Strategy::ConstantLie(Val::Value(9))),
            (
                n(4),
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            ),
        ]
        .into_iter()
        .collect()
    }

    fn mixed_instances() -> Vec<BatchInstance<u64>> {
        vec![
            BatchInstance {
                sender: n(0),
                value: Val::Value(10),
            },
            BatchInstance {
                sender: n(1),
                value: Val::Value(20),
            },
            BatchInstance {
                sender: n(4),
                value: Val::Value(30),
            },
        ]
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let batch = plain(params(), 5, &instances, &strategies, 1);
        for (i, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = run_protocol(&single, &inst.value, &strategies, 1);
            assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
        }
        assert_eq!(batch.spoofs_rejected, 0);
    }

    #[test]
    fn batch_message_count_is_sum_of_singles() {
        let instances: Vec<BatchInstance<u64>> = (0..4)
            .map(|i| BatchInstance {
                sender: n(i),
                value: Val::Value(i as u64),
            })
            .collect();
        let batch = plain(params(), 5, &instances, &BTreeMap::new(), 1);
        let single = crate::analysis::message_complexity(5, params().rounds());
        assert_eq!(batch.net.sent as u128, 4 * single);
        // ... but only one engine run: depth+1 rounds total.
        assert_eq!(batch.net.rounds_run, params().rounds() + 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = plain(params(), 5, &[], &BTreeMap::new(), 1);
        assert!(batch.decisions.is_empty());
        assert_eq!(batch.net.sent, 0);
        assert_eq!(batch.arena_builds, 0);
    }

    #[test]
    fn interactive_consistency_via_batch() {
        // One instance per sender = IC; every fault-free node's vector
        // must match the dedicated IC runner's (degradable variant).
        let values: Vec<Val> = (0..5).map(|i| Val::Value(100 + i as u64)).collect();
        let strategies: BTreeMap<NodeId, Strategy<u64>> =
            [(n(4), Strategy::ConstantLie(Val::Value(9)))]
                .into_iter()
                .collect();
        let instances: Vec<BatchInstance<u64>> = (0..5)
            .map(|i| BatchInstance {
                sender: n(i),
                value: values[i],
            })
            .collect();
        let batch = plain(params(), 5, &instances, &strategies, 1);
        // Distinct senders: one arena each, no reuse possible.
        assert_eq!(batch.arena_builds, 5);
        let ic = crate::ic::run_degradable_ic(params(), &values, &strategies);
        for (slot, decisions) in batch.decisions.iter().enumerate() {
            for (r, vec) in &ic.vectors {
                if *r == n(slot) {
                    continue; // senders trust themselves in the IC runner
                }
                assert_eq!(decisions[r], vec[slot], "slot {slot}, receiver {r}");
            }
        }
    }

    #[test]
    fn stream_batch_builds_one_arena_for_all_slots() {
        // K slots from one sender: the arena is built once and shared.
        let instances: Vec<BatchInstance<u64>> = (0..8)
            .map(|k| BatchInstance {
                sender: n(0),
                value: Val::Value(100 + k),
            })
            .collect();
        let strategies = lying_strategies();
        let batch = plain(params(), 5, &instances, &strategies, 3);
        assert_eq!(batch.arena_builds, 1);
        for (k, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = run_protocol(&single, &inst.value, &strategies, 3);
            assert_eq!(batch.decisions[k], solo.decisions, "slot {k}");
        }
    }

    #[test]
    fn duplicate_chaos_is_decision_invariant() {
        // Duplicating every envelope on every link must not change any
        // decision: the per-(instance, path) slot fold is first-write-wins.
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let baseline = plain(params(), 5, &instances, &strategies, 1);
        let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Duplicate { p: 1.0 }]);
        let chaotic = over(&instances, &strategies, 1, |e| e.with_link_faults(plan));
        assert!(chaotic.net.duplicated > 0);
        assert_eq!(baseline.decisions, chaotic.decisions);
        assert_eq!(
            baseline.net.eig, chaotic.net.eig,
            "duplicates not materialized"
        );
    }

    #[test]
    fn cut_plan_batch_matches_sequential_runs() {
        // Deterministic link cuts affect batch and solo runs identically.
        let plan = LinkFaultPlan::healthy()
            .with_symmetric(n(1), n(2), LinkFaultKind::Cut { from_round: 1 })
            .with(n(0), n(3), LinkFaultKind::Cut { from_round: 0 });
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let batch = over(&instances, &strategies, 2, {
            let plan = plan.clone();
            |e| e.with_link_faults(plan)
        });
        assert!(batch.net.dropped_link_cut > 0);
        for (i, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(5, params(), inst.sender).unwrap();
            let solo = run_protocol_with(
                &single,
                &inst.value,
                &strategies,
                2,
                BatchOptions::new().network(|e| e.with_link_faults(plan.clone())),
            );
            assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
        }
    }

    #[test]
    fn cross_instance_spoofs_are_rejected() {
        // A corrupting relayer re-tags genuine envelopes with the other
        // instance's id. The re-tagged envelope's path root no longer
        // matches the claimed instance's sender, so it must be rejected —
        // decision-identical to the corruption-as-absence run.
        let instances: Vec<BatchInstance<u64>> = vec![
            BatchInstance {
                sender: n(0),
                value: Val::Value(10),
            },
            BatchInstance {
                sender: n(1),
                value: Val::Value(20),
            },
        ];
        let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Corrupt { p: 0.5 }]);
        let spoofed = over(&instances, &BTreeMap::new(), 9, {
            let plan = plan.clone();
            |e| {
                e.with_link_faults(plan)
                    .with_corruptor(|msg: &BatchMsg<u64>, _| {
                        Some(BatchMsg {
                            instance: (msg.instance + 1) % 2,
                            label: msg.label,
                            root: msg.root,
                            value: msg.value,
                        })
                    })
            }
        });
        let absent = over(&instances, &BTreeMap::new(), 9, |e| {
            e.with_link_faults(plan)
                .with_corruptor(|_: &BatchMsg<u64>, _| None)
        });
        assert!(spoofed.spoofs_rejected > 0, "{:?}", spoofed.net);
        assert_eq!(spoofed.decisions, absent.decisions);
        assert_eq!(absent.spoofs_rejected, 0);
    }

    #[test]
    fn observed_batch_records_spans_and_counters() {
        let mut obs = Obs::enabled();
        let instances = mixed_instances();
        let run = run_batch(
            params(),
            5,
            &instances,
            &lying_strategies(),
            1,
            BatchOptions::new().workers(2).obs(&mut obs),
        )
        .unwrap();
        let quiet = plain(params(), 5, &instances, &lying_strategies(), 1);
        assert_eq!(run.decisions, quiet.decisions, "observation is passive");
        let spans: Vec<&str> = obs.spans().iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            spans,
            [
                "batch.fill",
                "batch.resolve",
                "trace.decide",
                "batch.resolve",
                "trace.decide",
                "batch.resolve",
                "trace.decide"
            ]
        );
        let fill = &obs.spans()[0];
        assert_eq!(fill.logical, run.net.eig.messages_materialized);
        assert_eq!(
            obs.registry().counter("batch.instances"),
            instances.len() as u64
        );
        assert_eq!(obs.registry().counter("batch.arena_builds"), 3);
        assert_eq!(obs.registry().counter("batch.arena_reuses"), 0);
        assert_eq!(
            obs.registry().counter("eig.messages_materialized"),
            run.net.eig.messages_materialized
        );
    }

    #[test]
    fn observed_batch_attributes_messages_and_votes_per_instance() {
        let mut obs = Obs::enabled();
        let instances = mixed_instances();
        let run = run_batch(
            params(),
            5,
            &instances,
            &lying_strategies(),
            1,
            BatchOptions::new().obs(&mut obs),
        )
        .unwrap();
        let reg = obs.registry();

        // Per-instance end-to-end histograms: one observation per
        // instance; total messages equal the engine's send count, and
        // total logical cost equals the summed resolve work.
        let msgs = reg.histogram("svc.instance.messages").unwrap();
        assert_eq!(msgs.count(), instances.len() as u64);
        assert_eq!(msgs.sum(), run.net.sent as u64);
        let logical = reg.histogram("svc.instance.logical").unwrap();
        assert_eq!(logical.count(), instances.len() as u64);
        assert_eq!(
            logical.sum(),
            run.net.eig.votes_evaluated + run.net.eig.votes_memo_hit
        );
        // Only exact, logical series: no wall time, no fault-regime label.
        let series: Vec<&str> = reg.histograms().map(|(name, _)| name).collect();
        assert_eq!(series, ["svc.instance.logical", "svc.instance.messages"]);

        // Fault-free, every instance sends the closed-form count and
        // settles one vote per (internal label, receiver): 4 at N = 5.
        let mut obs_free = Obs::enabled();
        run_batch(
            params(),
            5,
            &instances,
            &BTreeMap::new(),
            1,
            BatchOptions::new().obs(&mut obs_free),
        )
        .unwrap();
        let single = crate::analysis::message_complexity(5, params().rounds()) as u64;
        let reg_free = obs_free.registry();
        let msgs = reg_free.histogram("svc.instance.messages").unwrap();
        assert_eq!((msgs.min(), msgs.max()), (Some(single), Some(single)));
        let logical = reg_free.histogram("svc.instance.logical").unwrap();
        assert_eq!((logical.min(), logical.max()), (Some(4), Some(4)));

        // The decide spans anchor the causal chain: one per instance, in
        // instance order, carrying the decider fan-out.
        let decides: Vec<_> = obs
            .spans()
            .iter()
            .filter(|s| s.name == "trace.decide")
            .collect();
        assert_eq!(decides.len(), instances.len());
        for (k, span) in decides.iter().enumerate() {
            assert_eq!(span.args[0], ("instance".into(), k as u64));
            // Every correct node that is not the sender decides.
            assert_eq!(span.args[1].0, "deciders");
            assert!(span.args[1].1 > 0);
        }
    }

    #[test]
    fn traced_batch_is_passive_and_covers_every_close() {
        let strategies = lying_strategies();
        let instances = mixed_instances();
        let mut delivers = 0usize;
        let mut closes = 0usize;
        let mut sent_in_trace = 0usize;
        let mut views = Vec::new();
        let mut sink = |_, step| match step {
            Step::Deliver { .. } => delivers += 1,
            Step::Close { sends, .. } => {
                closes += 1;
                sent_in_trace += sends.len();
            }
            Step::Decide { .. } | Step::View { .. } => unreachable!("the fill decides nothing"),
        };
        let run = run_batch(
            params(),
            5,
            &instances,
            &strategies,
            1,
            BatchOptions::new().trace(&mut sink).views(&mut views),
        )
        .unwrap();
        let quiet = plain(params(), 5, &instances, &strategies, 1);
        assert_eq!(run.decisions, quiet.decisions, "tracing is passive");
        // Every instance closes at every node in every round, even when
        // it has nothing to send — the checker needs the phase ticks.
        let rounds = params().rounds() + 1;
        assert_eq!(closes, instances.len() * 5 * rounds);
        assert!(delivers > 0);
        // Traced sends are pre-chaos; with no chaos plan they are
        // exactly the engine's send count.
        assert_eq!(sent_in_trace, run.net.sent);
        assert_eq!(views.len(), instances.len());
    }

    fn inst(sender: usize, value: u64) -> BatchInstance<u64> {
        BatchInstance {
            sender: n(sender),
            value: Val::Value(value),
        }
    }

    /// Restart/drain semantics: ingest, drain, re-ingest on the same
    /// `ServiceState` decides identically to a fresh one-shot
    /// `run_batch` per wave, and the whole observable output is
    /// bit-identical across worker counts 1/2/8.
    #[test]
    fn service_drain_matches_one_shot_batch_across_workers() {
        let strategies = lying_strategies();
        let wave_a: Vec<BatchInstance<u64>> = vec![inst(0, 10), inst(1, 20), inst(0, 30)];
        let wave_b: Vec<BatchInstance<u64>> = vec![inst(4, 40), inst(1, 50)];
        let oracle_a = plain(params(), 5, &wave_a, &strategies, 11);
        let oracle_b = plain(params(), 5, &wave_b, &strategies, 12);

        let mut outputs = Vec::new();
        for workers in [1usize, 2, 8] {
            let config = ServiceConfig {
                queue_capacity: 16,
                workers,
            };
            let mut svc: ServiceState<u64> = ServiceState::new(params(), 5, config).unwrap();
            let mut obs = Obs::enabled();

            for (id, i) in wave_a.iter().enumerate() {
                svc.ingest(id as u64, i.clone()).unwrap();
            }
            let batch_a = svc.drain_observed(&strategies, 11, &mut obs);
            assert_eq!(batch_a.ids, vec![0, 1, 2]);
            assert_eq!(batch_a.run.decisions, oracle_a.decisions, "w={workers}");
            assert_eq!(batch_a.run.net.sent, oracle_a.net.sent);

            // Re-ingest on the *same* state: ids are free again, pooled
            // arenas and stores serve the second wave.
            for (id, i) in wave_b.iter().enumerate() {
                svc.ingest(id as u64, i.clone()).unwrap();
            }
            let batch_b = svc.drain_observed(&strategies, 12, &mut obs);
            assert_eq!(batch_b.run.decisions, oracle_b.decisions, "w={workers}");
            // Wave A warmed senders {0, 1}; wave B brings sender 4 (one
            // fresh arena, one fresh store — pools are per sender) and
            // serves sender 1 entirely from wave A's cleared pool.
            assert_eq!(batch_b.arenas_built, 1);
            assert_eq!(batch_b.arenas_reused, 1);
            assert_eq!(batch_b.stores_reused, 1);
            assert_eq!(batch_b.stores_built, 1);

            outputs.push(obs);
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 2");
        assert_eq!(outputs[0], outputs[2], "workers 1 vs 8");
    }

    #[test]
    fn service_queue_full_sheds_with_typed_error() {
        let config = ServiceConfig {
            queue_capacity: 2,
            workers: 1,
        };
        let mut svc: ServiceState<u64> = ServiceState::new(params(), 5, config).unwrap();
        svc.ingest(0, inst(0, 1)).unwrap();
        svc.ingest(1, inst(1, 2)).unwrap();
        assert_eq!(
            svc.ingest(2, inst(2, 3)),
            Err(ServiceError::QueueFull { capacity: 2 })
        );
        assert_eq!(svc.stats().shed, 1);
        assert_eq!(svc.pending_len(), 2);

        // Draining relieves the backpressure; the shed is reported once.
        let mut obs = Obs::enabled();
        let batch = svc.drain_observed(&BTreeMap::new(), 5, &mut obs);
        assert_eq!(batch.ids, vec![0, 1]);
        assert_eq!(obs.registry().counter("svc.queue.shed"), 1);
        svc.ingest(2, inst(2, 3)).unwrap();
        let mut obs2 = Obs::enabled();
        svc.drain_observed(&BTreeMap::new(), 6, &mut obs2);
        assert_eq!(obs2.registry().counter("svc.queue.shed"), 0);
    }

    #[test]
    fn service_rejects_duplicate_ids_until_drained() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        svc.ingest(7, inst(0, 1)).unwrap();
        assert_eq!(
            svc.ingest(7, inst(1, 2)),
            Err(ServiceError::DuplicateInstance { id: 7 })
        );
        svc.drain(&BTreeMap::new(), 1);
        // The id is free again after its instance decided.
        svc.ingest(7, inst(1, 2)).unwrap();
    }

    #[test]
    fn service_shape_errors_are_typed() {
        // Node bound: BYZ(1, 2) needs n >= 5.
        assert_eq!(
            ServiceState::<u64>::new(params(), 4, ServiceConfig::default()).err(),
            Some(ServiceError::NodeBound { n: 4, min_nodes: 5 })
        );
        // Engine ceiling: the u64 membership masks stop at n = 64.
        assert!(matches!(
            ServiceState::<u64>::new(params(), 65, ServiceConfig::default()),
            Err(ServiceError::Engine(
                crate::engine::EngineError::TooManyNodes { n: 65 }
            ))
        ));
        // Sender range is checked at ingest, before anything queues.
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        assert_eq!(
            svc.ingest(0, inst(5, 1)),
            Err(ServiceError::SenderOutOfRange { sender: n(5), n: 5 })
        );
        assert_eq!(svc.pending_len(), 0);
    }

    #[test]
    fn empty_drain_is_a_valid_noop_batch() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        let batch = svc.drain(&BTreeMap::new(), 1);
        assert!(batch.ids.is_empty());
        assert!(batch.run.decisions.is_empty());
        assert_eq!(svc.stats().batches, 1);
        assert_eq!(svc.stats().decided, 0);
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let strategies: BTreeMap<NodeId, Strategy<u64>> = BTreeMap::new();
        let run = |nodes, instances: &[BatchInstance<u64>]| {
            run_batch(
                params(),
                nodes,
                instances,
                &strategies,
                1,
                BatchOptions::new(),
            )
        };
        // Node bound, sender range and the engine ceiling come back
        // typed, not as panics.
        assert_eq!(
            run(4, &[]).err(),
            Some(ServiceError::NodeBound { n: 4, min_nodes: 5 })
        );
        assert_eq!(
            run(5, &[inst(9, 1)]).err(),
            Some(ServiceError::SenderOutOfRange { sender: n(9), n: 5 })
        );
        assert!(matches!(
            run(70, &[]),
            Err(ServiceError::Engine(
                crate::engine::EngineError::TooManyNodes { n: 70 }
            ))
        ));
    }

    /// The 95%-after-warmup gate of the service bench, in miniature:
    /// one warmup drain builds every arena and store, every later drain
    /// reuses 100% of both.
    #[test]
    fn pool_reuse_is_total_after_warmup() {
        let mut svc: ServiceState<u64> =
            ServiceState::new(params(), 5, ServiceConfig::default()).unwrap();
        let strategies = lying_strategies();
        let wave = |svc: &mut ServiceState<u64>| {
            for id in 0..6u64 {
                svc.ingest(id, inst((id % 3) as usize, id)).unwrap();
            }
        };
        wave(&mut svc);
        let warmup = svc.drain(&strategies, 21);
        assert_eq!(warmup.arenas_built, 3);
        assert_eq!(warmup.stores_built, 6);
        for round in 0..3u64 {
            wave(&mut svc);
            let batch = svc.drain(&strategies, 22 + round);
            assert_eq!(batch.arenas_built, 0, "round {round}");
            assert_eq!(batch.arenas_reused, 6);
            assert_eq!(batch.stores_built, 0);
            assert_eq!(batch.stores_reused, 6);
        }
        let stats = svc.stats();
        assert_eq!(stats.arena_builds, 3);
        assert_eq!(stats.store_builds, 6);
        assert_eq!(stats.decided, 24);
    }
}
