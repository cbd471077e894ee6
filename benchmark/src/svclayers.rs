//! The traced pass's view of the service path and the layers under it:
//! `degradable::service`, `simnet::engine`, `degradable::engine`,
//! `degradable::vote`, the oracle and `obs`. Every workload runs these —
//! the service workloads on their waves, the wire workload on each of its
//! instances as a wave of one — so that every layer has a reading on every
//! workload.

use crate::check::{reference_decisions, Decisions};
use crate::gen::{self, Shape, Wave};
use crate::procfs;
use crate::report::ratio;
use crate::span::{SpanId, Tracer};
use degradable::{
    run_protocol, vote, ByzInstance, EigEngine, EigStore, EigView, Path, ServiceBatch,
    ServiceConfig, ServiceState, Val, VoteRule,
};
use obs::Obs;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Warm-up waves drained before the first timed operation: the first
/// builds every sender's arena and a wave's worth of stores, the second
/// runs on the filled pool.
const WARMUP_WAVES: u64 = 2;

/// Wave indices of the warm-up, far from the measured ones.
const WARMUP_BASE: u64 = 1 << 40;

/// Instances per traced wave replayed one at a time through
/// `run_protocol`.
const PROTOCOL_SAMPLE: usize = 2;

/// How often the VOTE loop repeats over the sampled child multisets.
const VOTE_REPEATS: usize = 64;

/// Operation id of the traced pass's set-up spans.
const SETUP_OP: u64 = u64::MAX;

/// Ingests a wave; returns how many instances the service refused.
pub fn offer(svc: &mut ServiceState<u64>, wave: &Wave) -> usize {
    wave.ids
        .iter()
        .zip(&wave.instances)
        .filter(|(id, inst)| svc.ingest(**id, (*inst).clone()).is_err())
        .count()
}

/// Decides everything the wave queued.
pub fn drain(svc: &mut ServiceState<u64>, wave: &Wave) -> ServiceBatch<u64> {
    svc.drain(&wave.strategies, wave.drain_seed)
}

/// State construction plus the warm-up waves `warmup(k)`: what a caller
/// pays before the first decision at steady-state speed.
pub fn warm_service(shape: Shape, mut warmup: impl FnMut(u64) -> Wave) -> ServiceState<u64> {
    let mut svc = ServiceState::new(shape.params, shape.n, ServiceConfig::default())
        .expect("workload shapes satisfy the node bound");
    for k in 0..WARMUP_WAVES {
        let wave = warmup(WARMUP_BASE + k);
        offer(&mut svc, &wave);
        black_box(drain(&mut svc, &wave));
    }
    svc
}

/// Sums over the service path and its replays, divided into per-layer
/// metrics at the end.
#[derive(Default)]
pub struct ServiceSums {
    warmup_ns: u64,
    arena_build_ns: u64,
    arenas_timed: u64,
    // the service itself (every operation)
    instances: u64,
    messages: u64,
    ingest_ns: u64,
    drain_ns: u64,
    drain_fill_ns: u64,
    drain_resolve_ns: u64,
    arenas_built: u64,
    arenas_reused: u64,
    stores_built: u64,
    stores_reused: u64,
    refused: u64,
    /// Process CPU seconds over the operations.
    pub cpu_s: f64,
    // replays (operations with span recording on)
    replayed_instances: u64,
    replayed_drain_ns: u64,
    fill_ns: u64,
    slots: u64,
    resolve_ns: u64,
    packed_ns: u64,
    votes_evaluated: u64,
    votes_memo_hit: u64,
    protocol_ns: u64,
    protocol_instances: u64,
    protocol_messages: u64,
    vote_ns: u64,
    vote_calls: u64,
    reference_ns: u64,
    reference_instances: u64,
    observed_drain_ns: u64,
    observed_spans: u64,
}

impl ServiceSums {
    /// Instances the service decided over all operations.
    pub fn instances(&self) -> u64 {
        self.instances
    }
}

/// A warm service, its recorder-on twin, and the lower layers a wave is
/// replayed through: one arena engine per sender (scalar and packed VOTE)
/// and a pool of stores.
pub struct ServiceRig {
    shape: Shape,
    /// The service whose operations are timed.
    svc: ServiceState<u64>,
    observed: ServiceState<u64>,
    scalar: Vec<EigEngine>,
    packed: Vec<EigEngine>,
    pool: Vec<Vec<EigStore<u64>>>,
}

impl ServiceRig {
    /// Sets everything up under one `setup` span: the warm service
    /// (timed as `service.warmup`), every sender's arena (timed as
    /// `engine.new`), and an equally warm twin that takes the same waves
    /// with the recorder on.
    pub fn build(
        shape: Shape,
        mut warmup: impl FnMut(u64) -> Wave,
        tracer: &mut Tracer,
        sums: &mut ServiceSums,
    ) -> ServiceRig {
        let setup = tracer.open("setup", None, SETUP_OP);
        let (svc, warmup_ns) = tracer.time("service.warmup", setup, SETUP_OP, || {
            warm_service(shape, &mut warmup)
        });
        sums.warmup_ns = warmup_ns;
        let depth = shape.params.rounds();
        let scalar: Vec<EigEngine> = NodeId::all(shape.n)
            .map(|sender| {
                let (engine, ns) = tracer.time("engine.new", setup, SETUP_OP, || {
                    EigEngine::new(shape.n, sender, depth)
                });
                sums.arena_build_ns += ns;
                sums.arenas_timed += 1;
                engine
            })
            .collect();
        let observed = warm_service(shape, &mut warmup);
        tracer.close(setup);
        ServiceRig {
            shape,
            svc,
            observed,
            packed: scalar
                .iter()
                .map(|e| e.clone().with_packed_vote())
                .collect(),
            pool: vec![Vec::new(); shape.n],
            scalar,
        }
    }

    /// One service operation — `ingest` × K, then `drain` — under a root
    /// span named `root` (`"op"` where the service is the workload's own
    /// path, so that the ledger counts it). Returns the batch and the
    /// operation's wall nanoseconds.
    pub fn operate(
        &mut self,
        wave: &Wave,
        tracer: &mut Tracer,
        root: &'static str,
        op: u64,
        sums: &mut ServiceSums,
    ) -> (ServiceBatch<u64>, u64) {
        let cpu_before = procfs::cpu_seconds();
        let root = tracer.open(root, None, op);
        let op_start = Instant::now();
        let svc = &mut self.svc;
        let (refused, ingest_ns) = tracer.time("service.ingest", root, op, || offer(svc, wave));
        let drain_span = tracer.open("service.drain", root, op);
        let drain_start = Instant::now();
        let batch = drain(&mut self.svc, wave);
        let drain_ns = drain_start.elapsed().as_nanos() as u64;
        tracer.close(drain_span);
        let op_ns = op_start.elapsed().as_nanos() as u64;
        tracer.close(root);
        sums.cpu_s += procfs::cpu_seconds() - cpu_before;

        // The fill/resolve split of the drain is what the service itself
        // reports in the returned `EigPerf`; laid under the drain span in
        // the order they ran.
        let eig = batch.run.net.eig;
        if let Some(id) = drain_span {
            let start = tracer.spans()[id].start_ns;
            let fill_end = start + eig.fill_nanos;
            tracer.record("service.drain.fill", drain_span, op, start, fill_end);
            tracer.record(
                "service.drain.resolve",
                drain_span,
                op,
                fill_end,
                fill_end + eig.resolve_nanos,
            );
        }
        sums.instances += batch.run.decisions.len() as u64;
        sums.messages += batch.run.net.sent as u64;
        sums.ingest_ns += ingest_ns;
        sums.drain_ns += drain_ns;
        sums.drain_fill_ns += eig.fill_nanos;
        sums.drain_resolve_ns += eig.resolve_nanos;
        sums.arenas_built += batch.arenas_built;
        sums.arenas_reused += batch.arenas_reused;
        sums.stores_built += batch.stores_built;
        sums.stores_reused += batch.stores_reused;
        sums.refused += refused as u64;
        // What the replays of this wave will be compared against.
        sums.replayed_drain_ns += if tracer.is_enabled() { drain_ns } else { 0 };
        (batch, op_ns)
    }

    /// Replays one wave through the layers under the service, each call in
    /// its own span below `parent`. Every replay must decide what the
    /// service decided (`decided`, aligned with the wave).
    pub fn replay(
        &mut self,
        wave: &Wave,
        decided: &[Decisions],
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        op: u64,
        sums: &mut ServiceSums,
    ) -> Result<(), String> {
        let Shape { n, params } = self.shape;
        let rule = VoteRule::Degradable { m: params.m() };
        let faulty = wave.faulty();
        let strategies = &wave.strategies;
        if decided.len() != wave.instances.len() {
            // Shed instances are the correctness gate's business; a replay
            // needs the decisions aligned with the wave.
            return Ok(());
        }
        let same = |layer: &str, k: usize, got: &Decisions| -> Result<(), String> {
            if *got == decided[k] {
                Ok(())
            } else {
                Err(format!(
                    "{layer} replay of instance {k} decided {got:?}, the service decided {:?}",
                    decided[k]
                ))
            }
        };
        sums.replayed_instances += decided.len() as u64;

        // degradable::engine — fill, scalar resolve, packed resolve, on
        // pooled stores.
        let (scalar, packed) = (&self.scalar, &self.packed);
        let mut stores: Vec<EigStore<u64>> = wave
            .instances
            .iter()
            .map(|inst| {
                self.pool[inst.sender.index()]
                    .pop()
                    .unwrap_or_else(|| EigStore::new(scalar[inst.sender.index()].arena()))
            })
            .collect();
        let ((), fill_ns) = tracer.time("engine.fill", parent, op, || {
            for (inst, store) in wave.instances.iter().zip(&mut stores) {
                let mut fabricate = |path: &Path, receiver: NodeId, truthful: &Val| {
                    strategies[&path.last()].claim(path, receiver, truthful)
                };
                scalar[inst.sender.index()].fill(store, &inst.value, &faulty, &mut fabricate);
            }
        });
        let (scalar_runs, resolve_ns) = tracer.time("engine.resolve", parent, op, || {
            wave.instances
                .iter()
                .zip(&stores)
                .map(|(inst, store)| scalar[inst.sender.index()].resolve(rule, store))
                .collect::<Vec<_>>()
        });
        let (packed_runs, packed_ns) = tracer.time("engine.resolve_packed", parent, op, || {
            wave.instances
                .iter()
                .zip(&stores)
                .map(|(inst, store)| packed[inst.sender.index()].resolve(rule, store))
                .collect::<Vec<_>>()
        });
        sums.fill_ns += fill_ns;
        sums.resolve_ns += resolve_ns;
        sums.packed_ns += packed_ns;
        for (k, (scalar, packed)) in scalar_runs.iter().zip(&packed_runs).enumerate() {
            sums.slots += stores[k].materialized();
            sums.votes_evaluated += scalar.perf.votes_evaluated;
            sums.votes_memo_hit += scalar.perf.votes_memo_hit;
            same("engine", k, &scalar.decisions)?;
            same("packed engine", k, &packed.decisions)?;
        }

        // degradable::vote — the root-level child multisets (fan-in n − 1)
        // the first instance's receivers voted over.
        let first = &wave.instances[0];
        let arena = scalar[first.sender.index()].arena();
        let multisets: Vec<Vec<Val>> = NodeId::all(n)
            .filter(|r| *r != first.sender)
            .filter_map(|r| {
                let mut view = EigView::new(n, params.rounds(), r);
                for (id, value) in stores[0].column(r) {
                    view.record(arena.resolve_path(id), *value);
                }
                let (_, steps) = view.resolve_traced(first.sender, rule);
                steps
                    .into_iter()
                    .map(|s| s.gathered)
                    .find(|g| g.len() == n - 1)
            })
            .collect();
        let alpha = n - 1 - params.m();
        let ((), vote_ns) = tracer.time("vote.loop", parent, op, || {
            for _ in 0..VOTE_REPEATS {
                for values in &multisets {
                    black_box(vote(alpha, black_box(values)));
                }
            }
        });
        sums.vote_ns += vote_ns;
        sums.vote_calls += (VOTE_REPEATS * multisets.len()) as u64;
        for (inst, mut store) in wave.instances.iter().zip(stores) {
            store.clear();
            self.pool[inst.sender.index()].push(store);
        }

        // simnet::engine — one un-multiplexed `RoundEngine` run per sampled
        // instance.
        for (k, inst) in wave.instances.iter().enumerate().take(PROTOCOL_SAMPLE) {
            let single = ByzInstance::new(n, params, inst.sender).map_err(|e| e.to_string())?;
            let (run, ns) = tracer.time("simnet.protocol", parent, op, || {
                run_protocol(&single, &inst.value, strategies, wave.drain_seed)
            });
            sums.protocol_ns += ns;
            sums.protocol_instances += 1;
            sums.protocol_messages += run.net.sent as u64;
            same("run_protocol", k, &run.decisions)?;
        }

        // degradable::eig — the oracle, on the first instance.
        let (expected, ns) = tracer.time("eig.reference", parent, op, || {
            reference_decisions(params, n, first.sender, &first.value, strategies)
        });
        sums.reference_ns += ns;
        sums.reference_instances += 1;
        same("reference_eval", 0, &expected)?;

        // obs — the same wave through the twin service with the recorder on.
        offer(&mut self.observed, wave);
        let mut recorder = Obs::enabled();
        let observed = &mut self.observed;
        let (observed_batch, ns) = tracer.time("service.drain_observed", parent, op, || {
            observed.drain_observed(strategies, wave.drain_seed, &mut recorder)
        });
        sums.observed_drain_ns += ns;
        sums.observed_spans += recorder.spans().len() as u64;
        for (k, got) in observed_batch.run.decisions.iter().enumerate() {
            same("drain_observed", k, got)?;
        }
        Ok(())
    }
}

impl ServiceSums {
    /// The per-layer metrics of the service path and the layers under it.
    pub fn metrics(&self, v: &mut BTreeMap<&'static str, f64>) {
        let f = |x: u64| x as f64;
        let protocol_ns_per_instance = ratio(f(self.protocol_ns), f(self.protocol_instances));
        let settled = self.votes_evaluated + self.votes_memo_hit;
        let mut put = |name, value| {
            v.insert(name, value);
        };
        put(
            "service.ingest_ns_per_instance",
            ratio(f(self.ingest_ns), f(self.instances)),
        );
        put(
            "service.drain_ns_per_instance",
            ratio(f(self.drain_ns), f(self.instances)),
        );
        put(
            "service.drain_ns_per_message",
            ratio(f(self.drain_ns), f(self.messages)),
        );
        put("service.warmup_ms", f(self.warmup_ns) / 1e6);
        put(
            "service.arena_reuse_ratio",
            ratio(
                f(self.arenas_reused),
                f(self.arenas_reused + self.arenas_built),
            ),
        );
        put(
            "service.store_reuse_ratio",
            ratio(
                f(self.stores_reused),
                f(self.stores_reused + self.stores_built),
            ),
        );
        put("service.shed_count", f(self.refused));
        put(
            "service.overhead_ratio",
            ratio(f(self.replayed_drain_ns), f(self.fill_ns + self.resolve_ns)),
        );
        put(
            "service.batch_speedup",
            ratio(
                protocol_ns_per_instance * f(self.replayed_instances),
                f(self.replayed_drain_ns),
            ),
        );
        put(
            "service.fill_share",
            ratio(f(self.drain_fill_ns), f(self.drain_ns)),
        );
        put(
            "service.resolve_share",
            ratio(f(self.drain_resolve_ns), f(self.drain_ns)),
        );
        put(
            "simnet.protocol_us_per_instance",
            protocol_ns_per_instance / 1e3,
        );
        put(
            "simnet.protocol_ns_per_message",
            ratio(f(self.protocol_ns), f(self.protocol_messages)),
        );
        put(
            "engine.arena_build_us",
            ratio(f(self.arena_build_ns), f(self.arenas_timed)) / 1e3,
        );
        put(
            "engine.fill_ns_per_slot",
            ratio(f(self.fill_ns), f(self.slots)),
        );
        put(
            "engine.resolve_ns_per_vote",
            ratio(f(self.resolve_ns), f(settled)),
        );
        put(
            "engine.resolve_packed_ns_per_vote",
            ratio(f(self.packed_ns), f(settled)),
        );
        put(
            "engine.slots_per_instance",
            ratio(f(self.slots), f(self.replayed_instances)),
        );
        put(
            "engine.votes_evaluated_per_instance",
            ratio(f(self.votes_evaluated), f(self.replayed_instances)),
        );
        put(
            "engine.memo_hit_ratio",
            ratio(f(self.votes_memo_hit), f(settled)),
        );
        put(
            "vote.ns_per_call",
            ratio(f(self.vote_ns), f(self.vote_calls)),
        );
        put(
            "eig.reference_us_per_instance",
            ratio(f(self.reference_ns), f(self.reference_instances)) / 1e3,
        );
        put(
            "obs.recorder_overhead_ratio",
            ratio(f(self.observed_drain_ns), f(self.replayed_drain_ns)),
        );
        put(
            "obs.spans_per_instance",
            ratio(f(self.observed_spans), f(self.replayed_instances)),
        );
    }
}

/// A wire instance as a service wave of one.
pub fn wave_of_one(inst: &gen::WireInstance, id: u64) -> Wave {
    Wave {
        ids: vec![id],
        instances: vec![degradable::BatchInstance {
            sender: inst.sender,
            value: inst.value,
        }],
        strategies: inst.strategies.clone(),
        drain_seed: id,
    }
}
