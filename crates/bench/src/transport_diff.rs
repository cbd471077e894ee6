//! **Experiment E17** — the transport differential gate as a standing
//! experiment: one sans-io node state machine, three networks, zero
//! divergence.
//!
//! Two campaigns, one report (`results/transport_diff.json`, schema v4):
//!
//! 1. **Backend sweep** — every shape N ∈ {4..9} at maximal-ish `(m, u)`
//!    under healthy links and four link-fault plans (cut, drop,
//!    duplicate-all, reorder). Each cell runs the identical
//!    [`degradable::NodeStateMachine`] protocol over the event-driven
//!    simulator, the in-process channel mesh, and a real loopback-TCP
//!    mesh, with the message-keyed [`transport::LinkChaos`] layer
//!    injecting the *same* fault pattern everywhere. The gate:
//!    decisions, per-node EIG views, and the chaos signature must be
//!    bit-identical across backends; deterministic plans must also match
//!    the pre-refactor synchronous `run_protocol_with` oracle; and every
//!    decision must re-derive through the reference `EigView::resolve`
//!    fold from the run's own views.
//! 2. **Relaxed-detection sweep (§6)** — `f > m` runs with probabilistic
//!    arrival skew ([`transport::RelaxedTiming`]): fault-free nodes
//!    falsely time each other out, and the paper's claim is that the
//!    degraded conditions D.1–D.4 survive every such run.
//!
//! The report holds only deterministic counters (decisions, keyed-chaos
//! signatures, simulator false-timeout counts). Mesh-level wall-clock
//! observables (TCP retries, thread interleavings) never enter it.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{
    check_degradable, run_protocol_with, BatchOptions, ByzInstance, Params, RunRecord, Val,
    VoteRule,
};
use harness::report::Table;
use harness::{Report, SweepRunner};
use obs::Obs;
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId};
use std::collections::BTreeMap;
use transport::{
    run_channel, run_sim, run_tcp, LinkChaos, MeshConfig, RelaxedTiming, TransportRun,
};

/// `(n, m, u)` per node count: each is a valid BYZ shape
/// (`n >= 2m + u + 1`), matching the paper's small-system analysis.
const SHAPES: [(usize, usize, usize); 6] = [
    (4, 1, 1),
    (5, 1, 2),
    (6, 1, 3),
    (7, 2, 2),
    (8, 2, 3),
    (9, 2, 4),
];

/// The link-fault plans swept per shape. Deterministic plans (healthy,
/// cut, `p = 1.0` duplication) key the chaos layer identically to the
/// pre-refactor engine's stream layer, so those cells also compare
/// against the synchronous oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanKind {
    Healthy,
    Cut,
    DupAll,
    Drop,
    Reorder,
}

impl PlanKind {
    const ALL: [PlanKind; 5] = [
        PlanKind::Healthy,
        PlanKind::Cut,
        PlanKind::DupAll,
        PlanKind::Drop,
        PlanKind::Reorder,
    ];

    fn label(self) -> &'static str {
        match self {
            PlanKind::Healthy => "healthy",
            PlanKind::Cut => "cut",
            PlanKind::DupAll => "dup-all",
            PlanKind::Drop => "drop",
            PlanKind::Reorder => "reorder",
        }
    }

    fn deterministic(self) -> bool {
        matches!(self, PlanKind::Healthy | PlanKind::Cut | PlanKind::DupAll)
    }

    fn plan(self, n: usize) -> LinkFaultPlan {
        match self {
            PlanKind::Healthy => LinkFaultPlan::healthy(),
            // The edge 1 <-> 2 dies from round 1 on: relays between two
            // fault-free nodes go absent.
            PlanKind::Cut => LinkFaultPlan::healthy().with_symmetric(
                NodeId::new(1),
                NodeId::new(2),
                LinkFaultKind::Cut { from_round: 1 },
            ),
            PlanKind::DupAll => {
                LinkFaultPlan::uniform_complete(n, &[LinkFaultKind::Duplicate { p: 1.0 }])
            }
            PlanKind::Drop => {
                LinkFaultPlan::uniform_complete(n, &[LinkFaultKind::Drop { p: 0.35 }])
            }
            PlanKind::Reorder => {
                LinkFaultPlan::uniform_complete(n, &[LinkFaultKind::Reorder { window: 2 }])
            }
        }
    }
}

/// One backend-sweep cell: a shape and a plan.
#[derive(Debug, Clone, Copy)]
struct DiffCell {
    n: usize,
    m: usize,
    u: usize,
    plan: PlanKind,
}

struct DiffRow {
    cells: Vec<String>,
    backend_mismatches: usize,
    oracle_mismatches: usize,
    rederive_mismatches: usize,
}

/// `f = m` Byzantine receivers at the top node ids: one liar, then one
/// silent node for `m >= 2`.
fn strategies_for(n: usize, m: usize) -> BTreeMap<NodeId, Strategy<u64>> {
    let mut s = BTreeMap::new();
    s.insert(NodeId::new(n - 1), Strategy::ConstantLie(Val::Value(9)));
    if m >= 2 {
        s.insert(NodeId::new(n - 2), Strategy::Silent);
    }
    s
}

/// Counts decisions that fail to re-derive from the run's own views
/// through the paper's VOTE fold.
fn rederive_failures(run: &TransportRun, inst: &ByzInstance) -> usize {
    let rule = VoteRule::Degradable {
        m: inst.params().m(),
    };
    run.decisions
        .iter()
        .filter(|(node, decision)| run.views[node].resolve(inst.sender(), rule) != **decision)
        .count()
}

fn diff_cell(cell: &DiffCell, mut rng: simnet::SimRng, obs: &mut Obs) -> DiffRow {
    let span = obs.span(
        "transport.diff_cell",
        vec![("n", cell.n as u64), ("plan", cell.plan as u64)],
    );
    let DiffCell { n, m, u, plan } = *cell;
    let inst = ByzInstance::new(n, Params::new(m, u).expect("u >= m"), NodeId::new(0))
        .expect("n within bounds");
    let strategies = strategies_for(n, m);
    let seed = rng.below(u64::MAX);
    let chaos = LinkChaos::new(plan.plan(n), seed);

    let sim = run_sim(&inst, Val::Value(42), &strategies, chaos.clone(), None);
    let chan = run_channel(
        &inst,
        Val::Value(42),
        &strategies,
        chaos.clone(),
        MeshConfig::default(),
    );
    let tcp = run_tcp(
        &inst,
        Val::Value(42),
        &strategies,
        chaos,
        MeshConfig::default(),
    )
    .expect("loopback mesh");

    let mut backend_mismatches = 0usize;
    for other in [&chan, &tcp] {
        if other.decisions != sim.decisions
            || other.views != sim.views
            || other.stats.chaos_signature() != sim.stats.chaos_signature()
        {
            backend_mismatches += 1;
        }
    }

    // Deterministic plans reproduce the engine's stream-keyed fault
    // pattern exactly, so the synchronous oracle must agree too.
    let mut oracle_mismatches = 0usize;
    let oracle_checked = plan.deterministic();
    if oracle_checked {
        let oracle = run_protocol_with(
            &inst,
            &Val::Value(42),
            &strategies,
            seed,
            BatchOptions::new().network(|e| e.with_link_faults(plan.plan(n))),
        );
        if oracle.decisions != sim.decisions {
            oracle_mismatches += 1;
        }
    }
    let rederive_mismatches = rederive_failures(&sim, &inst);

    let (sent, dropped_cut, dropped_loss, _, duplicated, delayed) = sim.stats.chaos_signature();
    obs.finish(span, sent);
    obs.add("transport.diff_sent", sent);
    obs.add(
        "transport.diff_mismatches",
        (backend_mismatches + oracle_mismatches + rederive_mismatches) as u64,
    );

    DiffRow {
        cells: vec![
            n.to_string(),
            format!("{m}/{u}"),
            plan.label().to_string(),
            sent.to_string(),
            dropped_cut.to_string(),
            dropped_loss.to_string(),
            duplicated.to_string(),
            delayed.to_string(),
            if backend_mismatches == 0 { "yes" } else { "NO" }.to_string(),
            if !oracle_checked {
                "n/a"
            } else if oracle_mismatches == 0 {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            rederive_mismatches.to_string(),
        ],
        backend_mismatches,
        oracle_mismatches,
        rederive_mismatches,
    }
}

/// One relaxed-detection trial seed (§6, `f > m`).
#[derive(Debug, Clone, Copy)]
struct RelaxedCell {
    seed_index: usize,
}

struct RelaxedRow {
    false_timeouts: u64,
    violations: usize,
}

fn relaxed_cell(cell: &RelaxedCell, mut rng: simnet::SimRng, obs: &mut Obs) -> RelaxedRow {
    let span = obs.span(
        "transport.relaxed_cell",
        vec![("trial", cell.seed_index as u64)],
    );
    // BYZ(1,2) at n = 5 with f = 2 > m: the regime where §6 permits
    // fault-free pairs to falsely time each other out.
    let inst = ByzInstance::new(5, Params::new(1, 2).expect("u >= m"), NodeId::new(0))
        .expect("n within bounds");
    let strategies: BTreeMap<NodeId, Strategy<u64>> = [
        (NodeId::new(3), Strategy::ConstantLie(Val::Value(9))),
        (NodeId::new(4), Strategy::Silent),
    ]
    .into_iter()
    .collect();
    let relaxed = RelaxedTiming::when_degraded(strategies.len(), 1, 0.6, 2, rng.below(u64::MAX))
        .expect("f = 2 > m = 1");
    let run = run_sim(
        &inst,
        Val::Value(42),
        &strategies,
        LinkChaos::healthy(),
        Some(relaxed),
    );
    let record = RunRecord {
        params: inst.params(),
        n: inst.n(),
        sender: inst.sender(),
        sender_value: Val::Value(42),
        faulty: strategies.keys().copied().collect(),
        decisions: run.decisions.clone(),
    };
    let violations = usize::from(!check_degradable(&record).is_satisfied());
    obs.finish(span, run.stats.false_timeouts);
    obs.add("transport.relaxed_false_timeouts", run.stats.false_timeouts);
    RelaxedRow {
        false_timeouts: run.stats.false_timeouts,
        violations,
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let master_seed: u64 = 0x7D1FF;
    let trials = 8;
    let runner = SweepRunner::new(workers);
    let max_n = 9usize;

    // Campaign 1: backend sweep over every shape and plan.
    let diff_cells: Vec<DiffCell> = SHAPES
        .iter()
        .flat_map(|&(n, m, u)| PlanKind::ALL.map(|plan| DiffCell { n, m, u, plan }))
        .collect();
    let mut obs_rec = Obs::enabled();
    let diff_rows = runner.map_observed(
        master_seed,
        &diff_cells,
        &mut obs_rec,
        |_, cell, rng, obs| diff_cell(cell, rng, obs),
    );

    // Campaign 2: §6 relaxed detection beyond m faults.
    let relaxed_cells: Vec<RelaxedCell> = (0..trials)
        .map(|seed_index| RelaxedCell { seed_index })
        .collect();
    let relaxed_rows = runner.map_observed(
        master_seed ^ 0x5EC6,
        &relaxed_cells,
        &mut obs_rec,
        |_, cell, rng, obs| relaxed_cell(cell, rng, obs),
    );

    let backend_mismatches: usize = diff_rows.iter().map(|r| r.backend_mismatches).sum();
    let oracle_mismatches: usize = diff_rows.iter().map(|r| r.oracle_mismatches).sum();
    let rederive_mismatches: usize = diff_rows.iter().map(|r| r.rederive_mismatches).sum();
    let decision_mismatches = backend_mismatches + oracle_mismatches + rederive_mismatches;
    let relaxed_violations: usize = relaxed_rows.iter().map(|r| r.violations).sum();
    let relaxed_false_timeouts: u64 = relaxed_rows.iter().map(|r| r.false_timeouts).sum();

    let diff_headers = [
        "n",
        "m/u",
        "plan",
        "sent",
        "cut",
        "loss",
        "dup",
        "delay",
        "backends_agree",
        "oracle_match",
        "rederive_fails",
    ];
    let mut report = Report::new("transport_diff");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("relaxed_trials", trials)
        .set_meta("max_n", max_n)
        .set_metric("cells", diff_rows.len())
        .set_metric("backend_mismatches", backend_mismatches)
        .set_metric("oracle_mismatches", oracle_mismatches)
        .set_metric("rederive_mismatches", rederive_mismatches)
        .set_metric("decision_mismatches", decision_mismatches)
        .set_metric("relaxed_violations", relaxed_violations)
        .set_metric("relaxed_false_timeouts", relaxed_false_timeouts)
        .add_table(Table::with_rows(
            "backend sweep: sim vs channel vs loopback TCP (keyed chaos, shared seed)",
            &diff_headers,
            diff_rows.iter().map(|r| r.cells.clone()).collect(),
        ))
        .set_obs_registry(obs_rec.registry());
    Run::new(
        report,
        &[
            ("decision_mismatches == 0", decision_mismatches == 0),
            ("relaxed_violations == 0", relaxed_violations == 0),
            ("relaxed_false_timeouts > 0", relaxed_false_timeouts > 0),
        ],
        Some(obs_rec),
    )
}
