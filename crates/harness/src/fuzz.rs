//! Conformance fuzzing: randomized executions judged by the abstract spec.
//!
//! The referee lives in [`degradable::SpecChecker`] — an executable
//! restatement of algorithm BYZ(m, u) that shares no code with the
//! optimized executors. This module supplies everything around it:
//!
//! * [`FuzzPlan`] — one randomized execution shape (`n`, `(m, u)`, sender,
//!   fault assignments, link chaos, adaptive overlays, churn crashes),
//!   generated from a [`SimRng`] so the whole campaign replays from one
//!   seed, and round-trippable through JSON for repro files;
//! * three *sources*, which only produce [`Step`]s — the lockstep machines
//!   ([`run_plan`]: `n` real [`NodeStateMachine`]s round by round, sends
//!   through the message-keyed [`LinkChaos`] layer with its online
//!   [`HotEdgeCutter`] overlay, adaptive adversaries rewriting the claims
//!   of faulty nodes, churned nodes crashing mid-run), a transport backend
//!   ([`run_plan_transport`]) and the batched service
//!   ([`run_plan_batch`]) — and one `Referee`, which feeds **every
//!   delivery, every round close, every decision and every final view**
//!   to the spec machine, records the first divergent step, and holds a
//!   clean run's decisions to D.1–D.4;
//! * [`Mutation`] — deliberate implementation bugs (relay suppression)
//!   injected *without telling the checker*, proving the referee actually
//!   catches non-conformance (the CI `fuzz-smoke` mutant gate);
//! * [`shrink`] — greedy minimization of a failing plan (drop faults,
//!   silence chaos, strip overlays) to a fixpoint that still fails;
//! * [`fuzz_trial`] — the one trial every campaign is made of ([`fuzz`],
//!   `dagree fuzz`, E18): plan, lockstep run, shrink on failure, backend
//!   replays of every fourth plan;
//! * repro files — minimized `(seed, plan)` pairs written to
//!   `results/repros/` as schema-tagged JSON and replayed by
//!   `dagree fuzz --replay`, printing the first divergent step.
//!
//! Every random choice is derived from `(master_seed, trial)` via
//! [`SimRng::derive`], and every online component (adaptive adversaries,
//! adaptive link overlays) mutates state only inside the lockstep source's
//! fixed total order — so campaigns are bit-identical across worker
//! counts, which experiment E18 asserts.

use crate::report::JsonValue;
use degradable::{
    adversary_by_id, check_degradable, run_batch, AdaptiveAdversary, BatchInstance, BatchOptions,
    ByzInstance, ByzMsg, EigView, NodeAction, NodeEvent, NodeStateMachine, Params, Path, RunRecord,
    SpecChecker, SpecInstance, SpecViolation, Step, Strategy, Val, Verdict,
};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path as FsPath, PathBuf};
use transport::{
    Disposition, HotEdgeCutter, LinkChaos, MeshConfig, RunOptions, TransportKind, TransportStats,
};

/// The smallest cluster BYZ(1, 1) admits (`n ≥ 2m + u + 1`).
pub const MIN_N: usize = 4;

/// Default cluster-size ceiling for generated plans (inclusive).
pub const DEFAULT_MAX_N: usize = 9;

/// How one faulty node misbehaves in a generated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// A strategy from [`Strategy::battery`], by index.
    Static(usize),
    /// An online adversary from [`degradable::adversary_by_id`], by id: it
    /// watches delivered traffic and picks equivocations/withholdings from
    /// what it observed.
    Adaptive(usize),
    /// Churn: the node behaves honestly, then crashes at the close of
    /// `at_round` and never sends again (it still receives — a rejoining
    /// observer — but counts as faulty for the whole execution).
    Crash {
        /// First round whose close emits nothing.
        at_round: usize,
    },
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Static(i) => write!(f, "static:{i}"),
            FaultSpec::Adaptive(i) => write!(f, "adaptive:{i}"),
            FaultSpec::Crash { at_round } => write!(f, "crash@{at_round}"),
        }
    }
}

/// A deliberate implementation bug injected into an otherwise-honest
/// execution, *without* informing the spec checker — the checker must
/// catch it on its own (the CI mutant gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The first honest node with outgoing relays silently drops one of
    /// them (once per execution).
    SuppressRelay,
    /// The first honest node with outgoing sends garbles the value of
    /// one of them (once per execution) — a corrupted relay the checker
    /// must flag against its expected relay multiset.
    WrongValueRelay,
    /// The first honest non-sender node snapshots its fold one round
    /// before the tree is complete and reports that stale value as its
    /// decision — a premature termination bug.
    EarlyDecision,
    /// The first honest non-sender decision is recomputed with the vote
    /// threshold shifted by one (`VOTE(n-ℓ-m+1, ·)`), the classic
    /// boundary slip in the fold.
    VoteOffByOne,
}

/// Every mutation, in CLI help order.
pub const ALL_MUTATIONS: [Mutation; 4] = [
    Mutation::SuppressRelay,
    Mutation::WrongValueRelay,
    Mutation::EarlyDecision,
    Mutation::VoteOffByOne,
];

impl Mutation {
    /// Stable name used in repro files and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::SuppressRelay => "relay-suppression",
            Mutation::WrongValueRelay => "wrong-value-relay",
            Mutation::EarlyDecision => "early-decision",
            Mutation::VoteOffByOne => "vote-off-by-one",
        }
    }

    /// Parses a CLI/repro mutation name.
    pub fn from_name(name: &str) -> Result<Mutation, String> {
        ALL_MUTATIONS
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = ALL_MUTATIONS.iter().map(|m| m.name()).collect();
                format!(
                    "unknown mutation '{name}' (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One fully specified fuzz execution, generated from a trial RNG and
/// round-trippable through JSON (repro files).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzPlan {
    /// Cluster size (`MIN_N..=max_n`).
    pub n: usize,
    /// Full-agreement threshold.
    pub m: usize,
    /// Degraded-agreement threshold (`m ≤ u`, `2m + u + 1 ≤ n`).
    pub u: usize,
    /// The designated sender.
    pub sender: NodeId,
    /// The sender's nominal value.
    pub sender_value: u64,
    /// Fault assignment; the key set is the declared fault set (`|·| ≤ u`).
    pub faults: BTreeMap<NodeId, FaultSpec>,
    /// Uniform per-envelope loss probability on every directed edge
    /// (message-keyed, so identical under any driver schedule).
    pub drop_p: f64,
    /// When set, a [`HotEdgeCutter`] overlay with this threshold rides on
    /// the link layer — the online adversary no offline plan can express.
    pub hot_edge_threshold: Option<usize>,
    /// Seed for the chaos layer and any seeded static strategies.
    pub seed: u64,
}

impl FuzzPlan {
    /// Generates one plan from a trial RNG. All choices (shape, faults,
    /// chaos intensity) consume randomness only from `rng`.
    pub fn generate(rng: &mut SimRng, max_n: usize) -> FuzzPlan {
        let max_n = max_n.max(MIN_N);
        let n = MIN_N + rng.below((max_n - MIN_N + 1) as u64) as usize;
        let mut pairs = Vec::new();
        for m in 1..n {
            for u in m..n {
                if 2 * m + u < n {
                    pairs.push((m, u));
                }
            }
        }
        let (m, u) = *rng.pick(&pairs).expect("n >= 4 admits (1, 1)");
        let sender = NodeId::new(rng.below(n as u64) as usize);
        let sender_value = 1 + rng.below(99);
        let battery_len = Strategy::battery(0, 1, 0).len() as u64;
        let f = rng.below(u as u64 + 1) as usize;
        let faults = rng
            .choose_indices(n, f)
            .into_iter()
            .map(|i| {
                let spec = match rng.below(3) {
                    0 => FaultSpec::Static(rng.below(battery_len) as usize),
                    1 => FaultSpec::Adaptive(rng.below(degradable::ADAPTIVE_KINDS as u64) as usize),
                    _ => FaultSpec::Crash {
                        at_round: rng.below(m as u64 + 2) as usize,
                    },
                };
                (NodeId::new(i), spec)
            })
            .collect();
        let drop_p = *rng.pick(&[0.0, 0.0, 0.05, 0.2]).expect("non-empty");
        let hot_edge_threshold = (rng.below(4) == 0).then(|| 2 + rng.below(4) as usize);
        let seed = rng.below(u64::MAX);
        FuzzPlan {
            n,
            m,
            u,
            sender,
            sender_value,
            faults,
            drop_p,
            hot_edge_threshold,
            seed,
        }
    }

    /// The validated BYZ instance for this plan.
    pub fn instance(&self) -> ByzInstance {
        ByzInstance::new(
            self.n,
            Params::new(self.m, self.u).expect("generated plans satisfy m <= u"),
            self.sender,
        )
        .expect("generated plans satisfy n >= 2m + u + 1")
    }

    /// Whether the plan injects no link-level noise, i.e. links between
    /// fault-free nodes are reliable as the paper assumes — only then may
    /// the driver additionally hold decisions to the degradable-agreement
    /// verdict (with chaos on, a dropped honest→honest envelope is a fault
    /// outside the declared set and D.1–D.4 legitimately need not hold).
    pub fn is_model_clean(&self) -> bool {
        self.drop_p == 0.0 && self.hot_edge_threshold.is_none()
    }

    /// The declared fault set.
    fn faulty(&self) -> BTreeSet<NodeId> {
        self.faults.keys().copied().collect()
    }

    /// The chaos layer this plan installs.
    fn chaos(&self) -> LinkChaos {
        let plan = if self.drop_p > 0.0 {
            LinkFaultPlan::uniform_complete(self.n, &[LinkFaultKind::Drop { p: self.drop_p }])
        } else {
            LinkFaultPlan::healthy()
        };
        let chaos = LinkChaos::new(plan, self.seed);
        match self.hot_edge_threshold {
            Some(t) => chaos.with_adaptive(HotEdgeCutter::new(t)),
            None => chaos,
        }
    }

    /// Serializes the plan for repro files (stable field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("n".into(), self.n.into()),
            ("m".into(), self.m.into()),
            ("u".into(), self.u.into()),
            ("sender".into(), self.sender.index().into()),
            ("sender_value".into(), self.sender_value.into()),
            (
                "faults".into(),
                JsonValue::Array(
                    self.faults
                        .iter()
                        .map(|(node, spec)| {
                            let mut fields = vec![("node".into(), JsonValue::from(node.index()))];
                            match spec {
                                FaultSpec::Static(i) => {
                                    fields.push(("kind".into(), "static".into()));
                                    fields.push(("id".into(), (*i).into()));
                                }
                                FaultSpec::Adaptive(i) => {
                                    fields.push(("kind".into(), "adaptive".into()));
                                    fields.push(("id".into(), (*i).into()));
                                }
                                FaultSpec::Crash { at_round } => {
                                    fields.push(("kind".into(), "crash".into()));
                                    fields.push(("at_round".into(), (*at_round).into()));
                                }
                            }
                            JsonValue::Object(fields)
                        })
                        .collect(),
                ),
            ),
            ("drop_p".into(), self.drop_p.into()),
            (
                "hot_edge_threshold".into(),
                match self.hot_edge_threshold {
                    Some(t) => t.into(),
                    None => JsonValue::Null,
                },
            ),
            ("seed".into(), self.seed.into()),
        ])
    }

    /// Deserializes a plan from repro-file JSON.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field, or a plan that
    /// recorded an execution this build can no longer run.
    pub fn from_json(v: &JsonValue) -> Result<FuzzPlan, String> {
        // Repro files written while early stopping existed carry this key.
        // A plan that ran with it recorded an execution no build replays.
        if !matches!(
            v.get("early_stop"),
            None | Some(JsonValue::Null | JsonValue::UInt(0))
        ) {
            return Err("field `early_stop`: the plan ran with early stopping, \
                        which was removed, so it cannot be replayed"
                .into());
        }
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field `{name}`"));
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("field `{name}` is not an unsigned integer"))
        };
        let mut faults = BTreeMap::new();
        for (i, entry) in field("faults")?
            .as_array()
            .ok_or("field `faults` is not an array")?
            .iter()
            .enumerate()
        {
            let sub = |name: &str| {
                entry
                    .get(name)
                    .ok_or_else(|| format!("fault #{i}: missing field `{name}`"))
            };
            let sub_uint = |name: &str| {
                sub(name)?
                    .as_u64()
                    .ok_or_else(|| format!("fault #{i}: field `{name}` is not an integer"))
            };
            let node = NodeId::try_new(sub_uint("node")?)
                .ok_or_else(|| format!("fault #{i}: field `node` is beyond the node id range"))?;
            let spec = match sub("kind")?.as_str() {
                Some("static") => FaultSpec::Static(sub_uint("id")? as usize),
                Some("adaptive") => FaultSpec::Adaptive(sub_uint("id")? as usize),
                Some("crash") => FaultSpec::Crash {
                    at_round: sub_uint("at_round")? as usize,
                },
                other => return Err(format!("fault #{i}: unknown kind {other:?}")),
            };
            faults.insert(node, spec);
        }
        let drop_p = match field("drop_p")? {
            JsonValue::Float(f) => *f,
            JsonValue::UInt(0) => 0.0,
            other => return Err(format!("field `drop_p` is not a number: {other:?}")),
        };
        Ok(FuzzPlan {
            n: usize::try_from(uint("n")?)
                .ok()
                .filter(|n| *n <= NodeId::MAX_INDEX + 1)
                .ok_or("field `n` is beyond the node id range")?,
            m: uint("m")? as usize,
            u: uint("u")? as usize,
            sender: NodeId::try_new(uint("sender")?)
                .ok_or("field `sender` is beyond the node id range")?,
            sender_value: uint("sender_value")?,
            faults,
            drop_p,
            hot_edge_threshold: match field("hot_edge_threshold")? {
                JsonValue::Null => None,
                other => Some(
                    other
                        .as_u64()
                        .ok_or("field `hot_edge_threshold` is not an integer")?
                        as usize,
                ),
            },
            seed: uint("seed")?,
        })
    }
}

/// The first step at which an execution departed from the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzViolation {
    /// Ordinal of the divergent driver step (deliveries, closes,
    /// decisions and view checks all count).
    pub step: usize,
    /// What the driver was doing at that step.
    pub step_desc: String,
    /// The spec's complaint, rendered.
    pub violation: String,
    /// Causal context of the first divergent step, as an
    /// [`obs::TraceCtx`]: the relay path the spec's complaint names
    /// (unexpected relay, missing relay, view divergence), or — when the
    /// divergence surfaced at a delivery — the delivered envelope's
    /// claimed path. Carried into repro files (format v2) so a minimized
    /// repro pins the exact causal chain that first diverged. `None` for
    /// complaints that name no envelope (wrong decision, phase skew,
    /// model check).
    pub trace: Option<obs::TraceCtx>,
}

/// A relay path of `instance` as the trace layer would have stamped it.
fn path_ctx(instance: usize, path: &Path) -> obs::TraceCtx {
    let hops = path.as_slice().iter().map(|id| id.index() as u64);
    obs::TraceCtx::new(instance as u64, hops.collect())
}

/// The relay path a spec complaint names, when it names one.
fn violation_path(v: &SpecViolation) -> Option<&Path> {
    match v {
        SpecViolation::UnexpectedRelay { path, .. }
        | SpecViolation::MissingRelay { path, .. }
        | SpecViolation::ViewDivergence { path, .. } => Some(path),
        SpecViolation::WrongDecision { .. } | SpecViolation::PhaseSkew { .. } => None,
    }
}

impl fmt::Display for FuzzViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {} ({}): {}",
            self.step, self.step_desc, self.violation
        )
    }
}

/// What one checked execution produced.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Total driver steps performed.
    pub steps: usize,
    /// The first divergence, if any.
    pub violation: Option<FuzzViolation>,
    /// Every deciding receiver's decision.
    pub decisions: BTreeMap<NodeId, Val>,
    /// Whether the degradable-agreement verdict was additionally checked
    /// (only on model-clean plans without mutations).
    pub verdict_checked: bool,
}

/// The one judge of an execution, whatever drove it: one [`SpecChecker`]
/// per instance fed every [`Step`] in its source's order, the ordinal and
/// wording of the first step that exposed a violation, and the D.1–D.4
/// verdict over instance 0's decisions at the end.
struct Referee<'a> {
    plan: &'a FuzzPlan,
    /// The source's name in a step description (`""` for the lockstep
    /// machines: theirs read as repro files record them).
    label: String,
    checkers: Vec<SpecChecker<u64>>,
    steps: usize,
    first: Option<FuzzViolation>,
    /// What instance 0's nodes decided, read off its `Decide` steps.
    decisions: BTreeMap<NodeId, Val>,
}

impl<'a> Referee<'a> {
    /// A referee for the first `instances` of [`batch_instances`]: the
    /// plan's own, and the shifted second one of the batch source.
    fn new(plan: &'a FuzzPlan, label: String, instances: usize) -> Self {
        let params = Params::new(plan.m, plan.u).expect("valid plan");
        let checkers = batch_instances(plan)[..instances]
            .iter()
            .map(|bi| {
                let inst = ByzInstance::new(plan.n, params, bi.sender).expect("valid plan");
                SpecChecker::new(SpecInstance::of(&inst), bi.value, plan.faulty())
            })
            .collect();
        Referee {
            plan,
            label,
            checkers,
            steps: 0,
            first: None,
            decisions: BTreeMap::new(),
        }
    }

    /// Judges one step of instance `k` — the one place in the workspace
    /// that feeds a [`SpecChecker`].
    fn step(&mut self, k: usize, step: &Step<u64>) {
        self.steps += 1;
        self.checkers[k].step(step);
        if let (0, Step::Decide { node, value }) = (k, step) {
            self.decisions.extend(value.map(|v| (*node, v)));
        }
        if self.first.is_some() {
            return;
        }
        let Some(v) = self.checkers[k].first_violation() else {
            return;
        };
        // The causal chain: the path the complaint names, or else the
        // one the envelope this step delivered claims.
        let delivered = match step {
            Step::Deliver { msg, .. } => Some(&msg.path),
            _ => None,
        };
        let label = &self.label;
        self.first = Some(FuzzViolation {
            step: self.steps,
            step_desc: match self.checkers.len() {
                1 => format!("{label}{step}"),
                _ => format!("{label}instance={k} {step}"),
            },
            violation: v.to_string(),
            trace: violation_path(v)
                .or(delivered)
                .map(|path| path_ctx(k, path)),
        });
    }

    /// The verdict tail: a run that departed from the spec nowhere, on
    /// links as reliable between fault-free nodes as the paper assumes
    /// (`model_holds`: no link chaos installed, no bug injected), is also
    /// held to D.1–D.4 — [`check_degradable`] picks the regime, `f ≤ m` or
    /// `m < f ≤ u`, from the declared fault set. Under chaos a dropped
    /// honest→honest envelope is a fault outside that set, and the
    /// conditions legitimately need not hold.
    fn finish(mut self, model_holds: bool) -> ExecReport {
        let plan = self.plan;
        let verdict_checked = model_holds && self.first.is_none();
        if verdict_checked {
            let record = RunRecord {
                params: Params::new(plan.m, plan.u).expect("valid plan"),
                n: plan.n,
                sender: plan.sender,
                sender_value: Val::Value(plan.sender_value),
                faulty: plan.faulty(),
                decisions: self.decisions.clone(),
            };
            if let Verdict::Violated(v) = check_degradable(&record) {
                self.steps += 1;
                self.first = Some(FuzzViolation {
                    step: self.steps,
                    step_desc: format!("{}model-check", self.label),
                    violation: format!("degradable agreement violated with f <= u: {v:?}"),
                    trace: None,
                });
            }
        }
        ExecReport {
            steps: self.steps,
            violation: self.first,
            decisions: self.decisions,
            verdict_checked,
        }
    }
}

/// Runs `plan` through real [`NodeStateMachine`]s in lockstep, optionally
/// injecting `mutation`, and has the `Referee` validate every delivered
/// envelope, round close, decision and final view; on model-clean plans
/// the fault-free decisions are additionally held to
/// [`degradable::check_degradable`].
pub fn run_plan(plan: &FuzzPlan, mutation: Option<Mutation>) -> ExecReport {
    let mut referee = Referee::new(plan, String::new(), 1);
    for step in lockstep_steps(plan, mutation) {
        referee.step(0, &step);
    }
    referee.finish(plan.is_model_clean() && mutation.is_none())
}

/// Runs `plan` (coerced to static faults) over a real transport backend
/// and has the same `Referee` judge what every node's machine saw and
/// emitted — so the threaded meshes answer to the same spec as the
/// in-process lockstep source.
pub fn run_plan_transport(plan: &FuzzPlan, kind: TransportKind) -> ExecReport {
    let mut referee = Referee::new(plan, format!("{kind:?} "), 1);
    for step in transport_steps(plan, kind).0 {
        referee.step(0, &step);
    }
    referee.finish(plan.is_model_clean())
}

/// Runs `plan` as a two-instance batched-service execution ([`run_batch`]
/// with a trace sink), one [`SpecChecker`] per instance. The second
/// instance shifts the sender by one and perturbs the value, so the
/// multiplexer is exercised with genuinely distinct concurrent trees. Link
/// chaos is not installed — the subject under test here is the
/// multiplexer itself.
pub fn run_plan_batch(plan: &FuzzPlan) -> ExecReport {
    let mut referee = Referee::new(plan, "batch ".into(), 2);
    for (k, step) in batch_steps(plan) {
        referee.step(k, &step);
    }
    referee.finish(true)
}

/// A node's final view as the step that records it.
fn view_step(node: NodeId, view: &EigView<u64>) -> Step<u64> {
    let entries = view.entries().map(|(path, v)| (path.clone(), *v));
    Step::View {
        node,
        entries: entries.collect(),
    }
}

/// The lockstep source: `n` real [`NodeStateMachine`]s advanced round by
/// round on the calling thread — sends routed through the plan's
/// [`LinkChaos`] (adaptive overlay included: one thread, one total order),
/// adaptive adversaries rewriting the claims of faulty nodes, churned
/// nodes crashing mid-run, `mutation` injected into an honest node. Per
/// round: every node's deliveries, then every node's close (and, at the
/// last, its decision); every node's view at the end.
fn lockstep_steps(plan: &FuzzPlan, mutation: Option<Mutation>) -> Vec<Step<u64>> {
    let inst = plan.instance();
    let n = plan.n;
    let depth = inst.depth();
    let faulty = plan.faulty();
    let chaos = plan.chaos();
    let battery = Strategy::battery(plan.sender_value, plan.sender_value ^ 0xBAD, plan.seed);
    let mut adversaries: BTreeMap<NodeId, Box<dyn AdaptiveAdversary<u64>>> = BTreeMap::new();
    let mut machines: Vec<NodeStateMachine<u64>> = (0..n)
        .map(|i| {
            let node = NodeId::new(i);
            let strategy = match plan.faults.get(&node) {
                Some(FaultSpec::Static(idx)) => Some(battery[idx % battery.len()].1.clone()),
                Some(FaultSpec::Adaptive(id)) => {
                    adversaries.insert(node, adversary_by_id(*id));
                    None
                }
                // Crashed nodes run honest machinery; the driver severs
                // their sends at the crash round.
                Some(FaultSpec::Crash { .. }) | None => None,
            };
            NodeStateMachine::new(&inst, node, Val::Value(plan.sender_value), strategy)
        })
        .collect();

    let mut steps = Vec::new();
    // deliveries[r][i]: envelopes folding at node i's close of round r.
    type Mailboxes = Vec<Vec<Vec<(NodeId, ByzMsg<u64>)>>>;
    let mut deliveries: Mailboxes = vec![vec![Vec::new(); n]; depth + 1];
    let mut mutated = false;
    let mut early_decision: Option<(NodeId, Val)> = None;
    for round in 0..=depth {
        for i in 0..n {
            let to = NodeId::new(i);
            for (src, msg) in std::mem::take(&mut deliveries[round][i]) {
                if let Some(adv) = adversaries.get_mut(&to) {
                    adv.observe(round, src, &msg.path, &msg.value);
                }
                let event = NodeEvent::Deliver {
                    src,
                    msg: msg.clone(),
                };
                machines[i].on_event(event);
                steps.push(Step::Deliver {
                    to,
                    src,
                    msg,
                    round,
                });
            }
        }
        let mut outgoing: Vec<(NodeId, NodeId, ByzMsg<u64>)> = Vec::new();
        for (i, machine) in machines.iter_mut().enumerate() {
            let node = NodeId::new(i);
            let honest = !faulty.contains(&node);
            let mut sends = Vec::new();
            let mut decided = None;
            for action in machine.on_event(NodeEvent::Timeout { round }) {
                match action {
                    NodeAction::Send { to, msg } => sends.push((to, msg)),
                    NodeAction::Decide { value } => decided = Some(value),
                }
            }
            if let Some(FaultSpec::Crash { at_round }) = plan.faults.get(&node) {
                if round >= *at_round {
                    sends.clear();
                }
            }
            if let Some(adv) = adversaries.get_mut(&node) {
                sends = sends
                    .into_iter()
                    .filter_map(|(to, mut msg)| {
                        adv.claim(round, &msg.path, to, &msg.value).map(|v| {
                            msg.value = v;
                            (to, msg)
                        })
                    })
                    .collect();
            }
            // The implementation bugs under test, injected once per
            // execution into an honest node. The referee is NOT told.
            match mutation {
                Some(Mutation::SuppressRelay) if !mutated && honest && !sends.is_empty() => {
                    // One relay silently never leaves the node.
                    sends.pop();
                    mutated = true;
                }
                Some(Mutation::WrongValueRelay) if !mutated && honest && !sends.is_empty() => {
                    // One outgoing claim is garbled in flight out of an
                    // honest node.
                    sends[0].1.value = match &sends[0].1.value {
                        Val::Value(x) => Val::Value(x ^ 0x5A),
                        Val::Default => Val::Value(0x5A),
                    };
                    mutated = true;
                }
                Some(Mutation::EarlyDecision)
                    if early_decision.is_none()
                        && round + 1 == depth
                        && honest
                        && node != plan.sender =>
                {
                    // Snapshot the fold one round before the leaves
                    // arrive; this stale value is reported at decide.
                    let rule = degradable::VoteRule::Degradable { m: plan.m };
                    let stale = machine.view().resolve(plan.sender, rule);
                    early_decision = Some((node, stale));
                }
                _ => {}
            }
            outgoing.extend(sends.iter().map(|(to, msg)| (node, *to, msg.clone())));
            steps.push(Step::Close { node, round, sends });
            if round == depth {
                let mut reported = decided;
                match mutation {
                    Some(Mutation::EarlyDecision) => {
                        if let Some((who, stale)) = &early_decision {
                            if *who == node {
                                reported = Some(*stale);
                            }
                        }
                    }
                    Some(Mutation::VoteOffByOne)
                        if !mutated && honest && node != plan.sender && reported.is_some() =>
                    {
                        // Re-fold with the vote threshold raised by one
                        // (`m - 1` in the rule shifts every alpha up).
                        let rule = degradable::VoteRule::Degradable { m: plan.m - 1 };
                        reported = Some(machine.view().resolve(plan.sender, rule));
                        mutated = true;
                    }
                    _ => {}
                }
                let value = reported;
                steps.push(Step::Decide { node, value });
            }
        }
        for (from, to, msg) in outgoing {
            match chaos.disposition(round, from, to, &msg.path) {
                Disposition::Dropped(_) => {}
                Disposition::Deliver {
                    copies,
                    delay_rounds,
                } => {
                    let at = round + 1 + delay_rounds;
                    if at <= depth {
                        for _ in 0..copies {
                            deliveries[at][to.index()].push((from, msg.clone()));
                        }
                    }
                }
            }
        }
    }
    steps.extend(machines.iter().map(|m| view_step(m.me(), m.view())));
    steps
}

/// Coerces a plan's fault assignment to the static strategies the
/// threaded transport backends and the batch service support: adaptive
/// adversaries map to their battery cousin by index, churn crashes to
/// permanent silence. The *set* of faulty nodes is preserved, which is
/// all conformance checking constrains — faulty behavior is arbitrary
/// by definition. (Adaptive *links* are coerced the same way where they
/// must be: a mesh endpoint keeps the keyed plan of the chaos it is given
/// and drops the overlay; the simulator, one thread, keeps both.)
fn static_strategies(plan: &FuzzPlan) -> BTreeMap<NodeId, Strategy<u64>> {
    let battery = Strategy::battery(plan.sender_value, plan.sender_value ^ 0xBAD, plan.seed);
    plan.faults
        .iter()
        .map(|(node, spec)| {
            let s = match spec {
                FaultSpec::Static(idx) => battery[idx % battery.len()].1.clone(),
                FaultSpec::Adaptive(id) => battery[id % battery.len()].1.clone(),
                FaultSpec::Crash { .. } => Strategy::Silent,
            };
            (*node, s)
        })
        .collect()
}

/// The transport source: one run of `plan` on backend `kind` with every
/// node's machine logging its own steps, merged into the lockstep
/// source's order, then the views. The run's traffic statistics ride
/// along for the tests that compare replays.
fn transport_steps(plan: &FuzzPlan, kind: TransportKind) -> (Vec<Step<u64>>, TransportStats) {
    let inst = plan.instance();
    let options = RunOptions {
        record_events: true,
        ..RunOptions::default()
    };
    let run = transport::run_kind_with(
        kind,
        &inst,
        Val::Value(plan.sender_value),
        &static_strategies(plan),
        plan.chaos(),
        MeshConfig::default(),
        options,
    )
    .expect("loopback transports are available");
    // Each log is in its node's round order and the logs come in node
    // order, so a stable sort by (round, deliveries before closes) is the
    // lockstep source's order; a decision follows its node's last close.
    let mut steps: Vec<Step<u64>> = run.node_events.into_values().flatten().collect();
    steps.sort_by_key(|step| match step {
        Step::Deliver { round, .. } => (*round, false),
        Step::Close { round, .. } => (*round, true),
        Step::Decide { .. } | Step::View { .. } => (inst.depth(), true),
    });
    steps.extend(run.views.iter().map(|(node, view)| view_step(*node, view)));
    (steps, run.stats)
}

/// The instances of the batch source — the plan's own, and a second that
/// shifts the sender by one and perturbs the value. Every other source
/// runs the first alone.
fn batch_instances(plan: &FuzzPlan) -> [BatchInstance<u64>; 2] {
    [
        BatchInstance {
            sender: plan.sender,
            value: Val::Value(plan.sender_value),
        },
        BatchInstance {
            sender: NodeId::new((plan.sender.index() + 1) % plan.n),
            value: Val::Value(plan.sender_value ^ 1),
        },
    ]
}

/// The batch source: `(instance, step)` as the fill's trace sink hands
/// them over, then per instance every node's decision and every
/// receiver's view.
fn batch_steps(plan: &FuzzPlan) -> Vec<(usize, Step<u64>)> {
    let instances = batch_instances(plan);
    let mut steps = Vec::new();
    let mut views = Vec::new();
    let mut sink = |k, step| steps.push((k, step));
    let run = run_batch(
        Params::new(plan.m, plan.u).expect("valid plan"),
        plan.n,
        &instances,
        &static_strategies(plan),
        plan.seed,
        BatchOptions::new().trace(&mut sink).views(&mut views),
    )
    .expect("valid plan");
    for (k, views) in views.iter().enumerate() {
        for node in NodeId::all(plan.n) {
            let value = run.decisions[k].get(&node).copied();
            steps.push((k, Step::Decide { node, value }));
        }
        steps.extend(views.iter().map(|(node, view)| (k, view_step(*node, view))));
    }
    steps
}

/// The simplification ladder: each candidate is `plan` with one knob
/// removed or silenced, in decreasing order of expected blast radius.
fn shrink_candidates(plan: &FuzzPlan) -> Vec<FuzzPlan> {
    let mut out = Vec::new();
    // Remove a fault-free bystander node entirely, remapping every
    // NodeId above it down by one — the biggest single simplification,
    // so it is tried first. Only legal while the shrunk cluster still
    // admits BYZ(m, u).
    if plan.n > MIN_N && 2 * plan.m + plan.u < plan.n - 1 {
        let remap = |id: NodeId, gone: usize| {
            if id.index() > gone {
                NodeId::new(id.index() - 1)
            } else {
                id
            }
        };
        for x in (0..plan.n).rev() {
            let node = NodeId::new(x);
            if node == plan.sender || plan.faults.contains_key(&node) {
                continue;
            }
            let mut p = plan.clone();
            p.n -= 1;
            p.sender = remap(p.sender, x);
            p.faults = p
                .faults
                .iter()
                .map(|(k, v)| (remap(*k, x), v.clone()))
                .collect();
            out.push(p);
        }
    }
    for node in plan.faults.keys() {
        let mut p = plan.clone();
        p.faults.remove(node);
        out.push(p);
    }
    for (node, spec) in &plan.faults {
        if *spec != FaultSpec::Static(0) {
            let mut p = plan.clone();
            p.faults.insert(*node, FaultSpec::Static(0));
            out.push(p);
        }
    }
    if plan.hot_edge_threshold.is_some() {
        let mut p = plan.clone();
        p.hot_edge_threshold = None;
        out.push(p);
    }
    if plan.drop_p > 0.0 {
        let mut p = plan.clone();
        p.drop_p = 0.0;
        out.push(p);
    }
    if plan.sender_value != 1 {
        let mut p = plan.clone();
        p.sender_value = 1;
        out.push(p);
    }
    if plan.seed != 0 {
        let mut p = plan.clone();
        p.seed = 0;
        out.push(p);
    }
    out
}

/// Greedily minimizes a failing plan: repeatedly applies the first
/// simplification that still fails, to a fixpoint. Returns the shrunk plan
/// and the number of candidate executions spent.
pub fn shrink(plan: &FuzzPlan, mutation: Option<Mutation>) -> (FuzzPlan, usize) {
    let mut current = plan.clone();
    let mut spent = 0usize;
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            spent += 1;
            if run_plan(&candidate, mutation).violation.is_some() {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return (current, spent);
        }
    }
}

/// One fuzz failure: the original plan, its shrunk fixpoint, and the
/// divergence the shrunk plan still reproduces.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The trial index within the campaign.
    pub trial: usize,
    /// The plan as generated.
    pub plan: FuzzPlan,
    /// The minimized plan (still failing).
    pub shrunk: FuzzPlan,
    /// The shrunk plan's first divergent step.
    pub violation: FuzzViolation,
    /// Candidate executions the shrinker spent.
    pub shrink_iters: usize,
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; trial `t` uses `SimRng::derive(seed, t)`.
    pub seed: u64,
    /// Number of executions.
    pub budget: usize,
    /// Cluster-size ceiling (inclusive).
    pub max_n: usize,
    /// Deliberate bug to inject into every execution (mutant gate).
    pub mutation: Option<Mutation>,
    /// Additionally replay every 4th mutation-free trial through the
    /// batched service and the loopback TCP mesh, under the same
    /// referee (counted in [`FuzzOutcome::backend_executions`]).
    pub backends: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF055_F0CC,
            budget: 200,
            max_n: DEFAULT_MAX_N,
            mutation: None,
            backends: true,
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Executions actually performed (= budget unless the failure cap
    /// stopped the campaign early).
    pub executions: usize,
    /// Batched-service and TCP-mesh replays performed on top (zero
    /// unless [`FuzzConfig::backends`]).
    pub backend_executions: usize,
    /// Every failure found, shrunk.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// Whether the campaign saw no divergence at all.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one trial of a campaign produced.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// The plan as generated — a campaign's coverage is read off it.
    pub plan: FuzzPlan,
    /// Steps the lockstep execution of `plan` drove.
    pub steps: usize,
    /// Its divergence, shrunk, if it had one.
    pub failure: Option<FuzzFailure>,
    /// Backend replays of `plan` performed on top.
    pub backend_executions: usize,
    /// The first divergent step of each replay that had one.
    pub backend_violations: Vec<FuzzViolation>,
}

/// Runs trial `trial` of a campaign — the one trial every campaign is made
/// of (`fuzz`, `dagree fuzz`, E18): generate a plan from
/// `SimRng::derive(config.seed, trial)`, execute it on the lockstep
/// source, shrink on failure, and, with [`FuzzConfig::backends`], replay
/// every fourth mutation-free plan through the batched service and the
/// TCP mesh under the same referee. Pure: campaigns are bit-identical
/// however trials are scheduled (E18 runs this under
/// [`crate::SweepRunner`]).
pub fn fuzz_trial(config: &FuzzConfig, trial: usize) -> TrialReport {
    let mutation = config.mutation;
    let mut rng = SimRng::derive(config.seed, trial as u64);
    let plan = FuzzPlan::generate(&mut rng, config.max_n);
    let report = run_plan(&plan, mutation);
    let failure = report.violation.is_some().then(|| {
        let (shrunk, shrink_iters) = shrink(&plan, mutation);
        let violation = run_plan(&shrunk, mutation)
            .violation
            .expect("the shrinker only returns failing plans");
        FuzzFailure {
            trial,
            plan: plan.clone(),
            shrunk,
            violation,
            shrink_iters,
        }
    });
    let replays = if config.backends && mutation.is_none() && trial.is_multiple_of(4) {
        vec![
            run_plan_batch(&plan),
            run_plan_transport(&plan, TransportKind::Tcp),
        ]
    } else {
        Vec::new()
    };
    TrialReport {
        steps: report.steps,
        failure,
        backend_executions: replays.len(),
        backend_violations: replays.into_iter().filter_map(|r| r.violation).collect(),
        plan,
    }
}

/// Runs a whole campaign sequentially. Stops early once 8 failures are
/// collected (each is shrunk, which costs executions of its own).
pub fn fuzz(config: &FuzzConfig) -> FuzzOutcome {
    let mut outcome = FuzzOutcome {
        executions: 0,
        backend_executions: 0,
        failures: Vec::new(),
    };
    for trial in 0..config.budget {
        let report = fuzz_trial(config, trial);
        outcome.executions += 1;
        outcome.backend_executions += report.backend_executions;
        outcome.failures.extend(report.failure);
        // A replay's divergence is reported on the plan as generated.
        for violation in report.backend_violations {
            outcome.failures.push(FuzzFailure {
                trial,
                plan: report.plan.clone(),
                shrunk: report.plan.clone(),
                violation,
                shrink_iters: 0,
            });
        }
        if outcome.failures.len() >= 8 {
            break;
        }
    }
    outcome
}

/// Schema tag of repro files.
pub const REPRO_SCHEMA: &str = "dagree-fuzz-repro";
/// Version of the repro file format. v2 added the `trace` field: the
/// causal [`obs::TraceCtx`] of the first divergent step (`null` when the
/// step was not a delivery). v1 files still replay — the field is
/// optional on read.
pub const REPRO_VERSION: u64 = 2;

/// Renders a failure as a repro file: the minimized `(seed, plan)` pair
/// plus enough context to re-run it bit-identically.
pub fn repro_json(
    failure: &FuzzFailure,
    master_seed: u64,
    mutation: Option<Mutation>,
) -> JsonValue {
    JsonValue::Object(vec![
        ("schema".into(), REPRO_SCHEMA.into()),
        ("version".into(), REPRO_VERSION.into()),
        ("master_seed".into(), master_seed.into()),
        ("trial".into(), failure.trial.into()),
        (
            "mutation".into(),
            match mutation {
                Some(m) => m.name().into(),
                None => JsonValue::Null,
            },
        ),
        ("plan".into(), failure.shrunk.to_json()),
        ("original_plan".into(), failure.plan.to_json()),
        (
            "violation".into(),
            failure.violation.violation.as_str().into(),
        ),
        ("step".into(), failure.violation.step.into()),
        (
            "step_desc".into(),
            failure.violation.step_desc.as_str().into(),
        ),
        (
            "trace".into(),
            match &failure.violation.trace {
                Some(ctx) => ctx.to_json(),
                None => JsonValue::Null,
            },
        ),
        ("shrink_iters".into(), failure.shrink_iters.into()),
    ])
}

/// Writes a failure's repro file under `dir` (created if missing), named
/// `repro-<master_seed>-<trial>.json`. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_repro(
    dir: &FsPath,
    failure: &FuzzFailure,
    master_seed: u64,
    mutation: Option<Mutation>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{master_seed:016x}-{}.json", failure.trial));
    std::fs::write(
        &path,
        repro_json(failure, master_seed, mutation).to_json_string(),
    )?;
    Ok(path)
}

/// What replaying a repro file produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The plan the repro file carried.
    pub plan: FuzzPlan,
    /// The mutation it was recorded under.
    pub mutation: Option<Mutation>,
    /// The divergence recorded in the file.
    pub recorded: String,
    /// The causal chain of the recorded first divergent step, when the
    /// repro carries one (format v2+; `None` for v1 files and
    /// non-delivery steps).
    pub recorded_trace: Option<obs::TraceCtx>,
    /// The fresh execution's report (its `violation` is the live first
    /// divergent step; `None` means the repro no longer reproduces).
    pub report: ExecReport,
}

/// Parses a repro file and re-runs its minimized plan.
///
/// # Errors
///
/// A message describing the parse failure or schema mismatch.
pub fn replay(text: &str) -> Result<ReplayOutcome, String> {
    let v = JsonValue::parse(text)?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(REPRO_SCHEMA) => {}
        other => return Err(format!("not a {REPRO_SCHEMA} file (schema = {other:?})")),
    }
    let mutation = match v.get("mutation") {
        None | Some(JsonValue::Null) => None,
        Some(m) => Some(Mutation::from_name(
            m.as_str().ok_or("field `mutation` is not a string")?,
        )?),
    };
    let plan = FuzzPlan::from_json(v.get("plan").ok_or("missing field `plan`")?)?;
    let recorded = v
        .get("violation")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    let recorded_trace = match v.get("trace") {
        None | Some(JsonValue::Null) => None,
        Some(t) => Some(obs::TraceCtx::from_json(t)?),
    };
    let report = run_plan(&plan, mutation);
    Ok(ReplayOutcome {
        plan,
        mutation,
        recorded,
        recorded_trace,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_valid_and_reproducible() {
        for trial in 0..64u64 {
            let mut r1 = SimRng::derive(7, trial);
            let mut r2 = SimRng::derive(7, trial);
            let a = FuzzPlan::generate(&mut r1, DEFAULT_MAX_N);
            let b = FuzzPlan::generate(&mut r2, DEFAULT_MAX_N);
            assert_eq!(a, b);
            assert!((MIN_N..=DEFAULT_MAX_N).contains(&a.n));
            assert!(2 * a.m + a.u < a.n, "{a:?}");
            assert!(a.faults.len() <= a.u, "{a:?}");
            assert!(a.sender.index() < a.n);
            let _ = a.instance();
        }
    }

    #[test]
    fn plan_json_round_trips() {
        let mut rng = SimRng::seed(42);
        for _ in 0..32 {
            let plan = FuzzPlan::generate(&mut rng, DEFAULT_MAX_N);
            let text = plan.to_json().to_json_string();
            let back = FuzzPlan::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn a_plan_naming_a_node_beyond_the_id_range_is_refused() {
        // 65 539 = 65 536 + 3: a repro file must not replay it as node 3.
        let plan = FuzzPlan::generate(&mut SimRng::seed(42), DEFAULT_MAX_N);
        let text = plan.to_json().to_json_string();
        let sender = format!("\"sender\":{}", plan.sender.index());
        assert!(text.contains(&sender), "{text}");
        for (field, bad) in [
            (sender.as_str(), "\"sender\":65539".to_string()),
            (&format!("\"n\":{}", plan.n), "\"n\":65539".to_string()),
        ] {
            let edited = text.replacen(field, &bad, 1);
            let e = FuzzPlan::from_json(&JsonValue::parse(&edited).unwrap()).unwrap_err();
            assert!(e.contains("beyond the node id range"), "{e}");
        }
    }

    #[test]
    fn a_plan_that_ran_with_early_stopping_is_refused() {
        // Repro files written while the mode existed carry the key: a plan
        // that ran without it replays as recorded, one that ran with it
        // recorded an execution this build cannot reproduce.
        let plan = FuzzPlan::generate(&mut SimRng::seed(42), DEFAULT_MAX_N);
        let text = plan.to_json().to_json_string();
        assert!(!text.contains("early_stop"), "{text}");
        let open = text.strip_suffix('}').unwrap();
        let with = |flag: u64| format!("{open},\"early_stop\":{flag}}}");
        let parse = |text: String| FuzzPlan::from_json(&JsonValue::parse(&text).unwrap());
        assert_eq!(parse(with(0)), Ok(plan));
        let e = parse(with(1)).unwrap_err();
        assert!(e.contains("early stopping") && !e.contains('\n'), "{e}");
    }

    #[test]
    fn honest_plan_is_conformant() {
        let plan = FuzzPlan {
            n: 5,
            m: 1,
            u: 2,
            sender: NodeId::new(0),
            sender_value: 7,
            faults: BTreeMap::new(),
            drop_p: 0.0,
            hot_edge_threshold: None,
            seed: 3,
        };
        let report = run_plan(&plan, None);
        assert_eq!(report.violation, None);
        assert!(report.verdict_checked);
        assert_eq!(report.decisions.len(), 4);
        for d in report.decisions.values() {
            assert_eq!(*d, Val::Value(7));
        }
    }

    #[test]
    fn a_fuzz_campaign_is_clean_and_deterministic() {
        let config = FuzzConfig {
            seed: 0xD06,
            budget: 48,
            max_n: 7,
            mutation: None,
            backends: false,
        };
        let a = fuzz(&config);
        assert!(
            a.clean(),
            "unexpected violations: {:#?}",
            a.failures
                .iter()
                .map(|f| (&f.shrunk, &f.violation))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.executions, 48);
        let b = fuzz(&config);
        assert_eq!(b.clean(), a.clean());
        assert_eq!(b.executions, a.executions);
    }

    #[test]
    fn the_seeded_mutant_is_caught_and_shrunk() {
        let config = FuzzConfig {
            seed: 0xBEEF,
            budget: 16,
            max_n: 6,
            mutation: Some(Mutation::SuppressRelay),
            backends: false,
        };
        let outcome = fuzz(&config);
        assert!(!outcome.clean(), "relay suppression must be detected");
        let failure = &outcome.failures[0];
        assert!(
            failure.violation.violation.contains("failed to relay"),
            "{}",
            failure.violation
        );
        // The shrunk plan is no more complex than the original.
        assert!(failure.shrunk.faults.len() <= failure.plan.faults.len());
        assert!(failure.shrunk.drop_p <= failure.plan.drop_p);
    }

    #[test]
    fn repro_files_round_trip_and_replay() {
        let config = FuzzConfig {
            seed: 0xBEEF,
            budget: 8,
            max_n: 6,
            mutation: Some(Mutation::SuppressRelay),
            backends: false,
        };
        let outcome = fuzz(&config);
        let failure = &outcome.failures[0];
        let text = repro_json(failure, config.seed, config.mutation).to_json_string();
        let replayed = replay(&text).unwrap();
        assert_eq!(replayed.plan, failure.shrunk);
        assert_eq!(replayed.mutation, Some(Mutation::SuppressRelay));
        let live = replayed.report.violation.expect("repro must still fail");
        assert_eq!(live, failure.violation, "divergent step is stable");
        // The causal chain recorded in the file (format v2) survives the
        // JSON round trip and matches the live re-execution's.
        assert_eq!(replayed.recorded_trace, failure.violation.trace);
        assert_eq!(replayed.recorded_trace, live.trace);
    }

    #[test]
    fn delivery_divergence_carries_its_causal_chain() {
        // A garbled relay out of an honest node is caught when the bogus
        // envelope is *delivered*, so its repro names the exact relay
        // path that first diverged.
        let config = FuzzConfig {
            seed: 0xCAFE,
            budget: 16,
            max_n: 6,
            mutation: Some(Mutation::WrongValueRelay),
            backends: false,
        };
        let outcome = fuzz(&config);
        assert!(!outcome.clean());
        let traced = outcome
            .failures
            .iter()
            .find(|f| f.violation.trace.is_some())
            .expect("some failure diverges at a delivery");
        let ctx = traced.violation.trace.as_ref().unwrap();
        assert_eq!(ctx.instance, 0, "single-instance driver");
        assert!(!ctx.path.is_empty());
        assert_eq!(ctx.hop as usize, ctx.path.len());
        // The chain in the repro file is the same object.
        let text = repro_json(traced, config.seed, config.mutation).to_json_string();
        let v = JsonValue::parse(&text).unwrap();
        let back = obs::TraceCtx::from_json(v.get("trace").unwrap()).unwrap();
        assert_eq!(&back, ctx);
    }

    #[test]
    fn adaptive_and_crash_faults_stay_conformant() {
        // Online adversaries and churn crashes are *faults*: honest nodes
        // must still conform and (model-clean) decisions must still pass
        // the degradable verdict.
        let mut faults = BTreeMap::new();
        faults.insert(NodeId::new(2), FaultSpec::Adaptive(0));
        faults.insert(NodeId::new(4), FaultSpec::Crash { at_round: 1 });
        let plan = FuzzPlan {
            n: 7,
            m: 1,
            u: 4,
            sender: NodeId::new(0),
            sender_value: 9,
            faults,
            drop_p: 0.0,
            hot_edge_threshold: None,
            seed: 11,
        };
        let report = run_plan(&plan, None);
        assert_eq!(report.violation, None, "{:?}", report.violation);
        assert!(report.verdict_checked);
    }

    #[test]
    fn chaos_plans_stay_conformant_but_skip_the_model_check() {
        let plan = FuzzPlan {
            n: 5,
            m: 1,
            u: 2,
            sender: NodeId::new(0),
            sender_value: 7,
            faults: BTreeMap::new(),
            drop_p: 0.2,
            hot_edge_threshold: Some(2),
            seed: 5,
        };
        let report = run_plan(&plan, None);
        assert_eq!(report.violation, None, "{:?}", report.violation);
        assert!(!report.verdict_checked);
    }

    #[test]
    fn shrinking_reaches_a_fixpoint_on_a_mutant() {
        let mut rng = SimRng::derive(0xBEEF, 0);
        let plan = FuzzPlan::generate(&mut rng, 6);
        if run_plan(&plan, Some(Mutation::SuppressRelay))
            .violation
            .is_none()
        {
            // This seed's first trial happens to be immune (e.g. the only
            // honest sends are dropped); the campaign-level test covers
            // detection. Nothing to shrink here.
            return;
        }
        let (shrunk, spent) = shrink(&plan, Some(Mutation::SuppressRelay));
        assert!(run_plan(&shrunk, Some(Mutation::SuppressRelay))
            .violation
            .is_some());
        // A fixpoint: no further simplification of the shrunk plan fails.
        for candidate in shrink_candidates(&shrunk) {
            assert!(
                run_plan(&candidate, Some(Mutation::SuppressRelay))
                    .violation
                    .is_none(),
                "shrinker stopped before the fixpoint at {candidate:?}"
            );
        }
        assert!(spent >= shrink_candidates(&shrunk).len());
    }

    #[test]
    fn every_mutant_in_the_battery_is_caught() {
        for mutation in ALL_MUTATIONS {
            let config = FuzzConfig {
                seed: 7,
                budget: 16,
                max_n: 6,
                mutation: Some(mutation),
                backends: false,
            };
            let outcome = fuzz(&config);
            assert!(
                !outcome.clean(),
                "{} must be detected by the spec checker",
                mutation.name()
            );
            let failure = &outcome.failures[0];
            // The shrunk plan still reproduces.
            assert!(
                run_plan(&failure.shrunk, Some(mutation))
                    .violation
                    .is_some(),
                "{}: shrunk plan no longer fails",
                mutation.name()
            );
        }
    }

    #[test]
    fn backend_replays_match_the_spec_on_an_honest_plan() {
        let plan = FuzzPlan {
            n: 5,
            m: 1,
            u: 2,
            sender: NodeId::new(1),
            sender_value: 4,
            faults: BTreeMap::new(),
            drop_p: 0.0,
            hot_edge_threshold: None,
            seed: 9,
        };
        let batch = run_plan_batch(&plan);
        assert_eq!(batch.violation, None, "batch: {:?}", batch.violation);
        let sim = run_plan_transport(&plan, TransportKind::Sim);
        assert_eq!(sim.violation, None, "sim: {:?}", sim.violation);
    }

    /// An execution as a multiset: what a step stream says once the order
    /// scheduling decides — of arrivals within a round, and so of the
    /// relays they owe — is taken out of it.
    fn unordered(steps: impl IntoIterator<Item = Step<u64>>) -> Vec<String> {
        let mut lines: Vec<String> = steps
            .into_iter()
            .map(|mut step| {
                if let Step::Close { sends, .. } = &mut step {
                    sends.sort_by_key(|(to, msg)| (*to, msg.path.clone()));
                }
                format!("{step:?}")
            })
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn every_source_records_an_honest_run_as_the_same_steps() {
        for (n, m, u) in [(5, 1, 2), (7, 2, 2)] {
            let plan = FuzzPlan {
                n,
                m,
                u,
                sender: NodeId::new(1),
                sender_value: 4,
                faults: BTreeMap::new(),
                drop_p: 0.0,
                hot_edge_threshold: None,
                seed: 9,
            };
            let lockstep = lockstep_steps(&plan, None);
            // One thread, one event queue: the simulator's is the lockstep
            // machines' stream, step for step.
            let (sim, _) = transport_steps(&plan, TransportKind::Sim);
            assert_eq!(sim, lockstep, "{plan:?}");
            // The fill closes a round node by node with every instance's
            // envelopes in one inbox: the same deliveries and closes, in
            // another order within a round.
            let fill = |step: &Step<u64>| matches!(step, Step::Deliver { .. } | Step::Close { .. });
            let batch = batch_steps(&plan).into_iter();
            let batch = batch.filter_map(|(k, step)| (k == 0).then_some(step));
            assert_eq!(
                unordered(batch.filter(fill)),
                unordered(lockstep.into_iter().filter(fill)),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn twenty_tcp_replays_of_a_hot_edge_plan_are_one_execution() {
        // Seven driver threads, each consulting the chaos layer as sender
        // and again as receiver: only the keyed plan gives them one answer
        // per envelope. A shared `HotEdgeCutter` would count each envelope
        // twice, in whatever order the threads got to it.
        let plan = FuzzPlan {
            n: 7,
            m: 2,
            u: 2,
            sender: NodeId::new(3),
            sender_value: 6,
            faults: BTreeMap::new(),
            drop_p: 0.2,
            hot_edge_threshold: Some(2),
            seed: 5,
        };
        let replay = || {
            let (steps, stats) = transport_steps(&plan, TransportKind::Tcp);
            (stats.chaos_signature(), unordered(steps))
        };
        let first = replay();
        for again in 1..20 {
            assert_eq!(replay(), first, "replay {again}");
        }
    }

    #[test]
    fn a_backend_campaign_is_clean_and_counts_replays() {
        let config = FuzzConfig {
            seed: 0xD06,
            budget: 8,
            max_n: 6,
            mutation: None,
            backends: true,
        };
        let outcome = fuzz(&config);
        assert!(
            outcome.clean(),
            "unexpected violations: {:#?}",
            outcome
                .failures
                .iter()
                .map(|f| (&f.shrunk, &f.violation))
                .collect::<Vec<_>>()
        );
        assert_eq!(outcome.executions, 8);
        // Trials 0 and 4 replay through the batched service and the TCP mesh.
        assert_eq!(outcome.backend_executions, 4);
    }

    #[test]
    fn the_shrinker_can_reduce_n() {
        let mut faults = BTreeMap::new();
        faults.insert(NodeId::new(5), FaultSpec::Static(0));
        let plan = FuzzPlan {
            n: 7,
            m: 1,
            u: 3,
            sender: NodeId::new(0),
            sender_value: 7,
            faults,
            drop_p: 0.0,
            hot_edge_threshold: None,
            seed: 1,
        };
        let reduced: Vec<_> = shrink_candidates(&plan)
            .into_iter()
            .filter(|c| c.n < plan.n)
            .collect();
        assert!(!reduced.is_empty(), "n-reduction must produce candidates");
        for c in &reduced {
            assert!(2 * c.m + c.u < c.n, "shape invariant broken: {c:?}");
            assert!(c.sender.index() < c.n, "sender out of range: {c:?}");
            for id in c.faults.keys() {
                assert!(id.index() < c.n, "fault id out of range: {c:?}");
            }
            assert_eq!(c.faults.len(), plan.faults.len(), "faults dropped: {c:?}");
        }
    }

    #[test]
    fn mutation_names_round_trip() {
        assert_eq!(
            Mutation::from_name(Mutation::SuppressRelay.name()),
            Ok(Mutation::SuppressRelay)
        );
        assert!(Mutation::from_name("nope").is_err());
    }
}
