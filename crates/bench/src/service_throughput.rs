//! **Experiment E21** — persistent service throughput: sustained
//! agreement decisions through a pooled [`degradable::ServiceState`].
//!
//! Workload: per shape `N ∈ {5..13}` (BYZ(1,1) up to N = 8, BYZ(2,2)
//! above), one long-lived service instance ingests a seeded stream in
//! waves sized to the in-flight target — up to 10 000 instances in
//! flight at N = 5, scaling down as the per-instance message volume
//! grows — with senders round-robin over the cluster and values cycling
//! a small domain. The first wave is a warmup drained under disabled
//! observability (it builds the per-sender arenas and the store pool);
//! the measured waves then drain with recording on, so the `svc.pool.*`
//! counters in the report cover exactly the steady state the pooling
//! contract is about. One measured wave per cell is replayed through
//! the one-shot [`degradable::run_batch`] oracle on identical inputs as
//! a live decision-equivalence sample.
//!
//! The report (`results/service_throughput.json`) holds only
//! deterministic counters: the worker count is the service's resolve
//! shard count, and decisions and counters are worker-count-independent
//! by construction. Sustained decisions per second are the ledger's
//! `svc_*` workloads (`decisions_per_s`, `benchmark/`).
//!
//! Acceptance (declarative [`SloSpec`], recorded in the report):
//! arena reuse ≥ 95 % of pool requests after warmup (measured window —
//! it is 100 % by construction, the gate guards the pooling contract),
//! store reuse ≥ 95 %, zero sheds (waves never exceed the queue), zero
//! decision mismatches against the oracle, and per-instance work at most
//! the closed-form count of the largest shape: `svc.instance.messages`
//! max ≤ 1 464 and `svc.instance.logical` max ≤ 144 at N = 13.

use crate::Run;
use degradable::analysis::message_complexity;
use degradable::{
    run_batch, BatchInstance, BatchOptions, Params, ServiceConfig, ServiceState, Strategy, Val,
};
use harness::report::Table;
use harness::{Report, SloSpec, SweepRunner};
use obs::Obs;
use simnet::NodeId;
use std::collections::BTreeMap;

/// One sweep cell: a BYZ(m,m) shape and its in-flight target.
#[derive(Debug, Clone, Copy)]
struct Cell {
    m: usize,
    n: usize,
    in_flight: usize,
}

/// How many instances a shape keeps in flight per wave: 10 000 at
/// N = 5, shrinking as per-instance message volume grows so every cell
/// finishes in comparable wall time.
fn in_flight_for(n: usize) -> usize {
    10_000 / (n - 4)
}

const MEASURED_WAVES: usize = 3;

/// Per-cell aggregate.
struct Row {
    m: usize,
    n: usize,
    in_flight: usize,
    decided: u64,
    arena_builds: u64,
    arena_reuses: u64,
    store_reuses: u64,
    shed: u64,
    /// `(min, max)` votes settled per instance.
    logical: (u64, u64),
    /// `(min, max)` messages sent per instance.
    messages: (u64, u64),
    mismatches: usize,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.m.to_string(),
            self.n.to_string(),
            self.in_flight.to_string(),
            self.decided.to_string(),
            self.arena_builds.to_string(),
            self.arena_reuses.to_string(),
            self.store_reuses.to_string(),
            self.shed.to_string(),
            self.logical.0.to_string(),
            self.logical.1.to_string(),
            self.messages.0.to_string(),
            self.messages.1.to_string(),
        ]
    }
}

fn run_cell(cell: &Cell, workers: usize, seed: u64, obs: &mut Obs) -> Row {
    let Cell { m, n, in_flight } = *cell;
    let params = Params::new(m, m).expect("u = m is valid");
    let config = ServiceConfig {
        queue_capacity: in_flight,
        workers,
    };
    let mut svc: ServiceState<u64> =
        ServiceState::new(params, n, config).expect("shapes are in 5..=13");
    let strategies: BTreeMap<NodeId, Strategy<u64>> = BTreeMap::new();

    let mut next_id = 0u64;
    let mut offer_wave = |svc: &mut ServiceState<u64>| -> Vec<BatchInstance<u64>> {
        let mut wave = Vec::with_capacity(in_flight);
        for _ in 0..in_flight {
            let inst = BatchInstance {
                sender: NodeId::new((next_id as usize) % n),
                value: Val::Value(next_id % 5),
            };
            svc.ingest(next_id, inst.clone())
                .expect("wave size equals queue capacity");
            wave.push(inst);
            next_id += 1;
        }
        wave
    };

    // Warmup: builds every per-sender arena and the store pool, outside
    // the recording window, so the measured `svc.pool.*` counters speak
    // only about the steady state.
    offer_wave(&mut svc);
    svc.drain_observed(&strategies, seed, &mut Obs::disabled());
    let warmed = svc.stats();

    // Measured waves, one local recorder per cell so the table can show
    // per-shape extremes before everything merges into the report.
    let mut local = Obs::enabled();
    let mut mismatches = 0usize;
    for wave_idx in 0..MEASURED_WAVES {
        let wave = offer_wave(&mut svc);
        let drain_seed = seed ^ (wave_idx as u64 + 1);
        let batch = svc.drain_observed(&strategies, drain_seed, &mut local);
        if wave_idx == 0 {
            let opts = BatchOptions::new();
            let oracle = run_batch(params, n, &wave, &strategies, drain_seed, opts)
                .expect("the service validated this shape");
            if oracle.decisions != batch.run.decisions {
                mismatches += 1;
            }
        }
    }

    let stats = svc.stats();
    let extremes = |name: &str| {
        let h = local.registry().histogram(name);
        let h = h.expect("the measured waves recorded every instance");
        (h.min().unwrap_or(0), h.max().unwrap_or(0))
    };
    let (logical, messages) = (
        extremes("svc.instance.logical"),
        extremes("svc.instance.messages"),
    );
    local.add("e21.decision_mismatches", mismatches as u64);
    obs.merge(&local);

    Row {
        m,
        n,
        in_flight,
        decided: stats.decided - warmed.decided,
        arena_builds: stats.arena_builds - warmed.arena_builds,
        arena_reuses: stats.arena_reuses - warmed.arena_reuses,
        store_reuses: stats.store_reuses - warmed.store_reuses,
        shed: stats.shed,
        logical,
        messages,
        mismatches,
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let max_n = 13;
    let master_seed: u64 = 0xE21;
    let runner = SweepRunner::new(workers);

    let cells: Vec<Cell> = (5..=max_n)
        .map(|n| Cell {
            m: if n <= 8 { 1 } else { 2 },
            n,
            in_flight: in_flight_for(n),
        })
        .collect();

    let mut obs_rec = Obs::enabled();
    let rows = runner.map_observed(
        master_seed,
        &cells,
        &mut obs_rec,
        |_, cell, mut rng, obs| run_cell(cell, workers, rng.below(u64::MAX), obs),
    );

    let mismatches: usize = rows.iter().map(|r| r.mismatches).sum();
    let decided: u64 = rows.iter().map(|r| r.decided).sum();
    let arena_reuse_x100 = {
        let reg = obs_rec.registry();
        let builds = reg.counter("svc.pool.arena_builds");
        let requests = reg.counter("svc.pool.arena_requests");
        ((requests - builds) * 100)
            .checked_div(requests)
            .unwrap_or(0)
    };

    // The declarative contract: pooling holds in the steady state, the
    // queue never sheds (waves are sized to capacity), the oracle never
    // disagrees, and no instance does more work than the largest swept
    // shape's closed form: fault-free, a BYZ(m,m) instance sends every
    // message of the depth-(m+1) unfolding and settles one vote per
    // (internal label, receiver), the depth-m count.
    let largest = |depth: fn(&Cell) -> usize| {
        let per_cell = cells.iter().map(|c| message_complexity(c.n, depth(c)));
        per_cell.max().unwrap_or(0) as u64
    };
    let spec = SloSpec::new("e21-service-steady-state")
        .ratio_at_least("svc.pool.arena_reuses", "svc.pool.arena_requests", 95)
        .ratio_at_least("svc.pool.store_reuses", "svc.pool.store_requests", 95)
        .zero("svc.queue.shed")
        .zero("e21.decision_mismatches")
        .zero("batch.spoofs_rejected")
        .max_at_most("svc.instance.messages", largest(|c| c.m + 1))
        .max_at_most("svc.instance.logical", largest(|c| c.m))
        .counter_at_least("svc.pool.store_reuses", 1);
    let slo = spec.evaluate(obs_rec.registry());
    let slo_passed = slo.passed();

    let mut report = Report::new("service_throughput");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("max_n", max_n)
        .set_meta("measured_waves", MEASURED_WAVES)
        .set_metric("decision_mismatches", mismatches)
        .set_metric("instances_decided", decided)
        .set_metric("arena_reuse_measured_x100", arena_reuse_x100)
        .set_obs_registry(obs_rec.registry())
        .set_slo(slo)
        .add_table(Table::with_rows(
            "persistent service, measured waves after one warmup wave",
            &[
                "m",
                "n",
                "in_flight",
                "decided",
                "arena_builds",
                "arena_reuses",
                "store_reuses",
                "shed",
                "min_logical",
                "max_logical",
                "min_msgs",
                "max_msgs",
            ],
            rows.iter().map(Row::cells).collect(),
        ));
    Run::new(
        report,
        &[
            ("decision_mismatches == 0", mismatches == 0),
            ("slo e21-service-steady-state passed", slo_passed),
            ("arena_reuse_measured_x100 > 0", arena_reuse_x100 > 0),
        ],
        Some(obs_rec),
    )
}
