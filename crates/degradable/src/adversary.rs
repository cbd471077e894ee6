//! Byzantine adversary strategies and strategy search.
//!
//! The paper's fault model lets a faulty node behave arbitrarily. In the
//! oral-message setting, a deterministic adversary is fully described by a
//! table: for every relay path ending in a faulty node and every receiver,
//! the value claimed. This module provides:
//!
//! * a battery of named [`Strategy`] generators (lies constant, two-faced,
//!   path-dependent, pseudo-random, silent, …) used by the experiment
//!   sweeps;
//! * [`AdversaryRun`] — an instance + sender value + per-node strategies,
//!   runnable to a [`RunRecord`] for condition checking;
//! * [`ExhaustiveSearch`] — enumeration of **every** deterministic
//!   adversary over a finite value domain, feasible for small systems; this
//!   is what certifies the `2m+u+1` node threshold empirically (violations
//!   exist at `2m+u`, none at `2m+u+1` within the searched space);
//! * [`RandomizedSearch`] — seeded random adversaries for systems too large
//!   to enumerate.

use crate::byz::ByzInstance;
use crate::conditions::{check_degradable, RunRecord, Verdict, Violation};
use crate::eig::EigOutcome;
use crate::path::{paths_of_length, Path};
use crate::value::{AgreementValue, Val};
use simnet::{NodeId, SimRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// A named misbehaviour pattern for one faulty node.
///
/// Strategies are deterministic functions of `(path, receiver)` — even the
/// "random" one, which derives its choice from a seeded hash so that runs
/// are reproducible and a node's lie is stable if queried twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy<V> {
    /// Behaves exactly like a fault-free node (a faulty node may do so).
    Truthful,
    /// Never sends; every receiver observes absence (`V_d`).
    Silent,
    /// Claims the same wrong value everywhere.
    ConstantLie(AgreementValue<V>),
    /// Claims `even` to even-indexed receivers and `odd` to the rest — the
    /// classic two-faced sender.
    TwoFaced {
        /// Value told to even-indexed receivers.
        even: AgreementValue<V>,
        /// Value told to odd-indexed receivers.
        odd: AgreementValue<V>,
    },
    /// Claims `in_value` to the given group and `out_value` to everyone
    /// else — the targeted split used by the Figure 2 scenario (b).
    TargetedSplit {
        /// Receivers told `in_value`.
        group: BTreeSet<NodeId>,
        /// Value told to the group.
        in_value: AgreementValue<V>,
        /// Value told to everyone else.
        out_value: AgreementValue<V>,
    },
    /// Honest everywhere except the direct relay of the sender's value
    /// (path `[s, me]`), where it claims `claim` — "pretends the sender
    /// said `claim`", as the faulty nodes of Figure 2 scenarios (a)/(c) do.
    PretendSenderSaid(AgreementValue<V>),
    /// Lies only on paths of even length, truthfully relays otherwise —
    /// probes the recursion's level structure.
    AlternatingDepth(AgreementValue<V>),
    /// Pseudo-random choice from `domain` per `(path, receiver)`, derived
    /// from `seed` (deterministic and reproducible).
    RandomLie {
        /// Candidate values (may include `V_d`).
        domain: Vec<AgreementValue<V>>,
        /// Hash seed.
        seed: u64,
    },
}

/// Sending a fabricated (or truthful) value to one receiver, given the
/// sending node's strategy (`None` for a fault-free node); Silent
/// strategies suppress the message entirely.
pub(crate) fn claim_for<V: Clone + Hash>(
    strategy: Option<&Strategy<V>>,
    child: &Path,
    receiver: NodeId,
    truthful: &AgreementValue<V>,
) -> Option<AgreementValue<V>> {
    match strategy {
        None => Some(truthful.clone()),
        Some(Strategy::Silent) => None,
        Some(s) => Some(s.claim(child, receiver, truthful)),
    }
}

impl<V: Clone + Hash> Strategy<V> {
    /// The value this strategy claims for `path` addressed to `receiver`,
    /// given the value an honest node would have relayed.
    pub fn claim(
        &self,
        path: &Path,
        receiver: NodeId,
        truthful: &AgreementValue<V>,
    ) -> AgreementValue<V> {
        match self {
            Strategy::Truthful => truthful.clone(),
            Strategy::Silent => AgreementValue::Default,
            Strategy::ConstantLie(v) => v.clone(),
            Strategy::TwoFaced { even, odd } => {
                if receiver.index().is_multiple_of(2) {
                    even.clone()
                } else {
                    odd.clone()
                }
            }
            Strategy::TargetedSplit {
                group,
                in_value,
                out_value,
            } => {
                if group.contains(&receiver) {
                    in_value.clone()
                } else {
                    out_value.clone()
                }
            }
            Strategy::PretendSenderSaid(claim) => {
                if path.len() == 2 {
                    claim.clone()
                } else {
                    truthful.clone()
                }
            }
            Strategy::AlternatingDepth(lie) => {
                if path.len().is_multiple_of(2) {
                    lie.clone()
                } else {
                    truthful.clone()
                }
            }
            Strategy::RandomLie { domain, seed } => {
                if domain.is_empty() {
                    return AgreementValue::Default;
                }
                let mut h = DefaultHasher::new();
                seed.hash(&mut h);
                path.as_slice().hash(&mut h);
                receiver.hash(&mut h);
                domain[(h.finish() % domain.len() as u64) as usize].clone()
            }
        }
    }
}

impl Strategy<u64> {
    /// A representative battery of strategies over two wrong values, used
    /// by the experiment sweeps. `seed` parameterizes the random member.
    pub fn battery(alpha: u64, beta: u64, seed: u64) -> Vec<(&'static str, Strategy<u64>)> {
        vec![
            ("silent", Strategy::Silent),
            ("constant-lie", Strategy::ConstantLie(Val::Value(beta))),
            (
                "two-faced",
                Strategy::TwoFaced {
                    even: Val::Value(alpha),
                    odd: Val::Value(beta),
                },
            ),
            (
                "pretend-sender-said",
                Strategy::PretendSenderSaid(Val::Value(beta)),
            ),
            (
                "alternating-depth",
                Strategy::AlternatingDepth(Val::Value(beta)),
            ),
            (
                "random-lie",
                Strategy::RandomLie {
                    domain: vec![Val::Default, Val::Value(alpha), Val::Value(beta)],
                    seed,
                },
            ),
        ]
    }
}

/// One fully specified execution: instance, sender value, and the strategy
/// of every faulty node.
#[derive(Debug, Clone)]
pub struct AdversaryRun<V> {
    /// The protocol instance.
    pub instance: ByzInstance,
    /// The sender's (nominal) value.
    pub sender_value: AgreementValue<V>,
    /// Strategy per faulty node; the key set *is* the fault set.
    pub strategies: BTreeMap<NodeId, Strategy<V>>,
}

impl<V: Clone + Ord + Hash + Send + Sync> AdversaryRun<V> {
    /// The fault set.
    pub fn faulty(&self) -> BTreeSet<NodeId> {
        self.strategies.keys().copied().collect()
    }

    /// Runs the scenario through the arena-backed engine (decisions are
    /// bit-identical to the reference executor, without materializing
    /// per-receiver views) and packages the result for condition
    /// checking.
    pub fn run(&self) -> RunRecord<V> {
        self.run_on(&self.instance.engine())
    }

    /// Like [`AdversaryRun::run`] with a caller-provided engine, so
    /// sweeps over one instance shape reuse the interned arena.
    pub fn run_on(&self, engine: &crate::engine::EigEngine) -> RunRecord<V> {
        let faulty = self.faulty();
        let strategies = &self.strategies;
        let mut fabricate = |path: &Path, receiver: NodeId, truthful: &AgreementValue<V>| {
            let liar = path.last();
            strategies
                .get(&liar)
                .expect("fabricate only called for faulty relayers")
                .claim(path, receiver, truthful)
        };
        let run = engine.run(
            self.instance.rule(),
            &self.sender_value,
            &faulty,
            &mut fabricate,
        );
        RunRecord {
            params: self.instance.params(),
            n: self.instance.n(),
            sender: self.instance.sender(),
            sender_value: self.sender_value.clone(),
            faulty,
            decisions: run.decisions,
        }
    }

    /// Like [`AdversaryRun::run`] but also returns every receiver's full view
    /// (for indistinguishability experiments).
    pub fn run_full(&self) -> (RunRecord<V>, EigOutcome<V>) {
        let faulty = self.faulty();
        let strategies = self.strategies.clone();
        let mut fabricate = |path: &Path, receiver: NodeId, truthful: &AgreementValue<V>| {
            let liar = path.last();
            strategies
                .get(&liar)
                .expect("fabricate only called for faulty relayers")
                .claim(path, receiver, truthful)
        };
        let outcome = crate::eig::run_eig_full(
            self.instance.n(),
            self.instance.sender(),
            self.instance.depth(),
            self.instance.rule(),
            &self.sender_value,
            &faulty,
            &mut fabricate,
        );
        let record = RunRecord {
            params: self.instance.params(),
            n: self.instance.n(),
            sender: self.instance.sender(),
            sender_value: self.sender_value.clone(),
            faulty,
            decisions: outcome.decisions.clone(),
        };
        (record, outcome)
    }

    /// Convenience: run and check the applicable degradable condition.
    pub fn verdict(&self) -> Verdict<V> {
        check_degradable(&self.run())
    }
}

/// A found violation together with the adversary table that produced it.
#[derive(Debug, Clone)]
pub struct ViolationWitness {
    /// The adversary's claim table: value per (path, receiver).
    pub assignment: BTreeMap<(Path, NodeId), Val>,
    /// The offending execution.
    pub record: RunRecord<u64>,
    /// Which condition broke, and how.
    pub violation: Violation<u64>,
}

/// All (path, receiver) choice points available to an adversary controlling
/// `faulty` in the given instance — every `(σ, r)` pair where the last
/// node of σ is faulty and `r` is an off-path receiver. Public so
/// differential suites (`tests/engine_equivalence.rs`) can enumerate the
/// exact adversary space `certify` explores.
pub fn choice_points(instance: &ByzInstance, faulty: &BTreeSet<NodeId>) -> Vec<(Path, NodeId)> {
    let n = instance.n();
    let mut points = Vec::new();
    for level in 1..=instance.depth() {
        for path in paths_of_length(instance.sender(), n, level) {
            if !faulty.contains(&path.last()) {
                continue;
            }
            for r in NodeId::all(n) {
                if !path.contains(r) {
                    points.push((path.clone(), r));
                }
            }
        }
    }
    points
}

/// Exhaustive enumeration of every deterministic adversary over a finite
/// value domain, for one instance, sender value and fault set.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    instance: ByzInstance,
    sender_value: Val,
    faulty: BTreeSet<NodeId>,
    domain: Vec<Val>,
    max_combinations: u128,
}

/// Error starting an exhaustive search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The space `domain^points` exceeds the configured budget.
    TooLarge {
        /// Number of adversary choice points.
        points: usize,
        /// Domain size.
        domain: usize,
        /// Configured budget.
        budget: u128,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SearchError::TooLarge {
                points,
                domain,
                budget,
            } => write!(
                f,
                "search space {domain}^{points} exceeds budget {budget}; use RandomizedSearch"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

impl ExhaustiveSearch {
    /// Configures a search. `domain` should include `V_d` and at least two
    /// distinct proper values.
    pub fn new(
        instance: ByzInstance,
        sender_value: Val,
        faulty: BTreeSet<NodeId>,
        domain: Vec<Val>,
    ) -> Self {
        ExhaustiveSearch {
            instance,
            sender_value,
            faulty,
            domain,
            max_combinations: 20_000_000,
        }
    }

    /// Overrides the combination budget.
    #[must_use]
    pub fn with_budget(mut self, max_combinations: u128) -> Self {
        self.max_combinations = max_combinations;
        self
    }

    /// Number of adversary choice points for this configuration.
    pub fn point_count(&self) -> usize {
        choice_points(&self.instance, &self.faulty).len()
    }

    /// Size of the full search space (`domain ^ points`).
    pub fn combination_count(&self) -> u128 {
        (self.domain.len() as u128)
            .checked_pow(self.point_count() as u32)
            .unwrap_or(u128::MAX)
    }

    /// Runs the full enumeration; returns the first violating adversary, or
    /// `None` if every deterministic adversary over the domain satisfies
    /// the applicable condition.
    ///
    /// # Errors
    ///
    /// [`SearchError::TooLarge`] if the space exceeds the budget.
    pub fn find_violation(&self) -> Result<Option<ViolationWitness>, SearchError> {
        let points = choice_points(&self.instance, &self.faulty);
        let d = self.domain.len();
        let total = self.combination_count();
        if total > self.max_combinations {
            return Err(SearchError::TooLarge {
                points: points.len(),
                domain: d,
                budget: self.max_combinations,
            });
        }
        let engine = self.instance.engine();
        if d == 0 || points.is_empty() {
            // No adversary freedom: single honest-shaped run.
            let verdict = self.run_assignment(&engine, &points, &[])?;
            return Ok(verdict);
        }
        let mut odometer = vec![0usize; points.len()];
        loop {
            if let Some(w) = self.run_assignment(&engine, &points, &odometer)? {
                return Ok(Some(w));
            }
            // increment odometer
            let mut i = 0;
            loop {
                if i == odometer.len() {
                    return Ok(None);
                }
                odometer[i] += 1;
                if odometer[i] < d {
                    break;
                }
                odometer[i] = 0;
                i += 1;
            }
        }
    }

    fn run_assignment(
        &self,
        engine: &crate::engine::EigEngine,
        points: &[(Path, NodeId)],
        odometer: &[usize],
    ) -> Result<Option<ViolationWitness>, SearchError> {
        let table: BTreeMap<(Path, NodeId), Val> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.clone(),
                    self.domain[odometer.get(i).copied().unwrap_or(0)],
                )
            })
            .collect();
        let mut fabricate = |path: &Path, r: NodeId, _t: &Val| {
            table
                .get(&(path.clone(), r))
                .copied()
                .unwrap_or(AgreementValue::Default)
        };
        let decisions = engine
            .run(
                self.instance.rule(),
                &self.sender_value,
                &self.faulty,
                &mut fabricate,
            )
            .decisions;
        let record = RunRecord {
            params: self.instance.params(),
            n: self.instance.n(),
            sender: self.instance.sender(),
            sender_value: self.sender_value,
            faulty: self.faulty.clone(),
            decisions,
        };
        match check_degradable(&record) {
            Verdict::Violated(violation) => Ok(Some(ViolationWitness {
                assignment: table,
                record,
                violation,
            })),
            _ => Ok(None),
        }
    }
}

/// Seeded random adversaries for instances too large to enumerate.
#[derive(Debug, Clone)]
pub struct RandomizedSearch {
    instance: ByzInstance,
    sender_value: Val,
    domain: Vec<Val>,
    trials: usize,
    seed: u64,
}

impl RandomizedSearch {
    /// Configures a randomized search over all fault sets of size
    /// `f` drawn at random each trial.
    pub fn new(instance: ByzInstance, sender_value: Val, domain: Vec<Val>) -> Self {
        RandomizedSearch {
            instance,
            sender_value,
            domain,
            trials: 1000,
            seed: 0xDE6_12AD,
        }
    }

    /// Sets the number of trials.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `trials` random adversaries with `f` faulty nodes each
    /// (random fault set, random claim table). Returns the first violation
    /// found, if any, and the number of trials executed.
    pub fn find_violation(&self, f: usize) -> (Option<ViolationWitness>, usize) {
        let n = self.instance.n();
        let engine = self.instance.engine();
        let rng = SimRng::seed(self.seed);
        for trial in 0..self.trials {
            let mut trial_rng = rng.fork(trial as u64);
            // Random fault set of size f (the sender participates randomly).
            let faulty: BTreeSet<NodeId> = trial_rng
                .choose_indices(n, f.min(n))
                .into_iter()
                .map(NodeId::new)
                .collect();
            let points = choice_points(&self.instance, &faulty);
            let table: BTreeMap<(Path, NodeId), Val> = points
                .into_iter()
                .map(|p| {
                    let v = *trial_rng
                        .pick(&self.domain)
                        .unwrap_or(&AgreementValue::Default);
                    (p, v)
                })
                .collect();
            let mut fabricate = |path: &Path, r: NodeId, _t: &Val| {
                table
                    .get(&(path.clone(), r))
                    .copied()
                    .unwrap_or(AgreementValue::Default)
            };
            let decisions = engine
                .run(
                    self.instance.rule(),
                    &self.sender_value,
                    &faulty,
                    &mut fabricate,
                )
                .decisions;
            let record = RunRecord {
                params: self.instance.params(),
                n,
                sender: self.instance.sender(),
                sender_value: self.sender_value,
                faulty: faulty.clone(),
                decisions,
            };
            if let Verdict::Violated(violation) = check_degradable(&record) {
                return (
                    Some(ViolationWitness {
                        assignment: table,
                        record,
                        violation,
                    }),
                    trial + 1,
                );
            }
        }
        (None, self.trials)
    }
}

/// Pressure toward a violation: `u64::MAX` for an actual violation,
/// otherwise a monotone score counting how far the fault-free receivers
/// have been pushed away from clean agreement (used by
/// [`HillClimbSearch`]).
fn violation_pressure(record: &RunRecord<u64>) -> u64 {
    match check_degradable(record) {
        Verdict::Violated(_) => return u64::MAX,
        Verdict::BeyondU { .. } => return 0,
        Verdict::Satisfied(_) => {}
    }
    let decisions = record.fault_free_decisions();
    let mut distinct: BTreeSet<&Val> = BTreeSet::new();
    let mut defaults = 0u64;
    let mut off_sender = 0u64;
    for v in decisions.values() {
        distinct.insert(v);
        if v.is_default() {
            defaults += 1;
        }
        if *v != record.sender_value {
            off_sender += 1;
        }
    }
    distinct.len() as u64 * 100 + off_sender * 10 + defaults
}

/// Coordinate-ascent adversary search: starts from random claim tables and
/// greedily flips single `(path, receiver)` entries toward higher
/// violation-pressure score (a monotone count of how far receivers were
/// pushed from clean agreement; violations score maximal), with sideways
/// moves. Finds structured breaks (e.g. the coordinated constant lie at
/// `N = 2m+u`) that blind randomization misses, at a fraction of the cost
/// of exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct HillClimbSearch {
    instance: ByzInstance,
    sender_value: Val,
    faulty: BTreeSet<NodeId>,
    domain: Vec<Val>,
    restarts: usize,
    max_passes: usize,
    seed: u64,
}

impl HillClimbSearch {
    /// Configures a search for one instance, sender value and fault set.
    pub fn new(
        instance: ByzInstance,
        sender_value: Val,
        faulty: BTreeSet<NodeId>,
        domain: Vec<Val>,
    ) -> Self {
        HillClimbSearch {
            instance,
            sender_value,
            faulty,
            domain,
            restarts: 8,
            max_passes: 12,
            seed: 0xC11B,
        }
    }

    /// Sets the number of random restarts.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn evaluate(
        &self,
        engine: &crate::engine::EigEngine,
        table: &BTreeMap<(Path, NodeId), Val>,
    ) -> (u64, RunRecord<u64>) {
        let mut fabricate = |path: &Path, r: NodeId, _t: &Val| {
            table
                .get(&(path.clone(), r))
                .copied()
                .unwrap_or(AgreementValue::Default)
        };
        let decisions = engine
            .run(
                self.instance.rule(),
                &self.sender_value,
                &self.faulty,
                &mut fabricate,
            )
            .decisions;
        let record = RunRecord {
            params: self.instance.params(),
            n: self.instance.n(),
            sender: self.instance.sender(),
            sender_value: self.sender_value,
            faulty: self.faulty.clone(),
            decisions,
        };
        (violation_pressure(&record), record)
    }

    /// Runs the search; returns the first violating adversary found.
    pub fn find_violation(&self) -> Option<ViolationWitness> {
        let points = choice_points(&self.instance, &self.faulty);
        if points.is_empty() || self.domain.is_empty() {
            return None;
        }
        let engine = self.instance.engine();
        let rng = SimRng::seed(self.seed);
        for restart in 0..self.restarts {
            let mut restart_rng = rng.fork(restart as u64);
            let mut table: BTreeMap<(Path, NodeId), Val> = points
                .iter()
                .map(|p| {
                    (
                        p.clone(),
                        *restart_rng.pick(&self.domain).expect("non-empty domain"),
                    )
                })
                .collect();
            let (mut best, record) = self.evaluate(&engine, &table);
            if best == u64::MAX {
                let violation = match check_degradable(&record) {
                    Verdict::Violated(v) => v,
                    _ => unreachable!("pressure MAX implies violation"),
                };
                return Some(ViolationWitness {
                    assignment: table,
                    record,
                    violation,
                });
            }
            for _pass in 0..self.max_passes {
                let mut improved = false;
                for point in &points {
                    let original = table[point];
                    let mut best_val = original;
                    for &candidate in &self.domain {
                        if candidate == original {
                            continue;
                        }
                        table.insert(point.clone(), candidate);
                        let (score, record) = self.evaluate(&engine, &table);
                        if score == u64::MAX {
                            let violation = match check_degradable(&record) {
                                Verdict::Violated(v) => v,
                                _ => unreachable!(),
                            };
                            return Some(ViolationWitness {
                                assignment: table,
                                record,
                                violation,
                            });
                        }
                        let sideways = score == best && restart_rng.chance(0.3);
                        if score > best || sideways {
                            best = score;
                            best_val = candidate;
                            if score > best {
                                improved = true;
                            }
                        }
                    }
                    if best_val != original {
                        improved = true;
                    }
                    table.insert(point.clone(), best_val);
                }
                if !improved {
                    break;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn instance(nodes: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(nodes, Params::new(m, u).unwrap(), n(0)).unwrap()
    }

    #[test]
    fn strategy_claims() {
        let p = Path::root(n(0)).child(n(1));
        let truth = Val::Value(7);
        assert_eq!(Strategy::Truthful.claim(&p, n(2), &truth), truth);
        assert_eq!(Strategy::Silent.claim(&p, n(2), &truth), Val::Default);
        assert_eq!(
            Strategy::ConstantLie(Val::Value(9)).claim(&p, n(2), &truth),
            Val::Value(9)
        );
        let tf = Strategy::TwoFaced {
            even: Val::Value(1),
            odd: Val::Value(2),
        };
        assert_eq!(tf.claim(&p, n(2), &truth), Val::Value(1));
        assert_eq!(tf.claim(&p, n(3), &truth), Val::Value(2));
    }

    #[test]
    fn pretend_sender_said_only_lies_at_level_two() {
        let s = Strategy::PretendSenderSaid(Val::Value(9));
        let truth = Val::Value(7);
        let level2 = Path::root(n(0)).child(n(1));
        let level3 = level2.child(n(2));
        assert_eq!(s.claim(&level2, n(3), &truth), Val::Value(9));
        assert_eq!(s.claim(&level3, n(3), &truth), truth);
    }

    #[test]
    fn random_lie_is_deterministic() {
        let s = Strategy::RandomLie {
            domain: vec![Val::Value(1), Val::Value(2), Val::Default],
            seed: 5,
        };
        let p = Path::root(n(0)).child(n(1));
        let a = s.claim(&p, n(2), &Val::Value(0));
        let b = s.claim(&p, n(2), &Val::Value(0));
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_verdict_satisfied_at_bound() {
        // 5 nodes, 1/2: two colluding constant liars cannot break D.3.
        let sc = AdversaryRun {
            instance: instance(5, 1, 2),
            sender_value: Val::Value(1),
            strategies: [
                (n(3), Strategy::ConstantLie(Val::Value(2))),
                (n(4), Strategy::ConstantLie(Val::Value(2))),
            ]
            .into_iter()
            .collect(),
        };
        assert!(sc.verdict().is_satisfied());
    }

    #[test]
    fn constant_lie_breaks_below_bound() {
        // 4 nodes, 1/2 (below the 2m+u+1 = 5 bound): the paper's Figure 2
        // scenario (c) — two liars force receiver 1 to a foreign value.
        let inst = ByzInstance::new_below_bound(4, Params::new(1, 2).unwrap(), n(0)).unwrap();
        let sc = AdversaryRun {
            instance: inst,
            sender_value: Val::Value(1),
            strategies: [
                (n(2), Strategy::ConstantLie(Val::Value(2))),
                (n(3), Strategy::ConstantLie(Val::Value(2))),
            ]
            .into_iter()
            .collect(),
        };
        assert!(sc.verdict().is_violated());
    }

    #[test]
    fn exhaustive_search_finds_violation_below_bound() {
        let inst = ByzInstance::new_below_bound(4, Params::new(1, 2).unwrap(), n(0)).unwrap();
        let search = ExhaustiveSearch::new(
            inst,
            Val::Value(1),
            [n(2), n(3)].into_iter().collect(),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        );
        let witness = search.find_violation().unwrap();
        assert!(witness.is_some(), "a violating adversary must exist at N=4");
    }

    #[test]
    fn exhaustive_search_clean_at_bound_small() {
        // 5 nodes, 1/2, faulty receivers {3,4}: no deterministic adversary
        // over {V_d, 1, 2} can violate D.3. 3^6 = 729 combos... points:
        // paths [0,3],[0,4] x 3 receivers each = 6 points.
        let search = ExhaustiveSearch::new(
            instance(5, 1, 2),
            Val::Value(1),
            [n(3), n(4)].into_iter().collect(),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        );
        assert_eq!(search.point_count(), 6);
        assert!(search.find_violation().unwrap().is_none());
    }

    #[test]
    fn search_budget_enforced() {
        let search = ExhaustiveSearch::new(
            instance(7, 2, 2),
            Val::Value(1),
            [n(5), n(6)].into_iter().collect(),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        )
        .with_budget(1000);
        assert!(matches!(
            search.find_violation(),
            Err(SearchError::TooLarge { .. })
        ));
    }

    #[test]
    fn randomized_search_clean_at_bound() {
        let rs = RandomizedSearch::new(
            instance(7, 2, 2),
            Val::Value(1),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        )
        .with_trials(150);
        let (witness, trials) = rs.find_violation(2);
        assert!(witness.is_none(), "Theorem 1 violated by random adversary");
        assert_eq!(trials, 150);
    }

    #[test]
    fn randomized_search_finds_violation_below_bound() {
        // 1/2-degradable needs 5 nodes; run on 4 — random adversaries
        // stumble on the Figure 2 break quickly. (For larger m the break is
        // structured and found by `lower_bound::violation_below_bound`,
        // not by blind randomization.)
        let inst = ByzInstance::new_below_bound(4, Params::new(1, 2).unwrap(), n(0)).unwrap();
        let rs = RandomizedSearch::new(
            inst,
            Val::Value(1),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        )
        .with_trials(500);
        let (witness, _) = rs.find_violation(2);
        assert!(
            witness.is_some(),
            "expected some random adversary to break BYZ below the node bound"
        );
    }

    #[test]
    fn hillclimb_finds_structured_break_below_bound() {
        // m=2, u=3 at N = 2m+u = 7: blind randomization (500 trials)
        // misses this break; coordinate ascent finds it.
        let inst = ByzInstance::new_below_bound(7, Params::new(2, 3).unwrap(), n(0)).unwrap();
        let faulty: BTreeSet<NodeId> = [n(4), n(5), n(6)].into_iter().collect();
        let search = HillClimbSearch::new(
            inst,
            Val::Value(1),
            faulty,
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        );
        let witness = search.find_violation();
        assert!(witness.is_some(), "hill climb should find the N=2m+u break");
    }

    #[test]
    fn hillclimb_clean_at_bound() {
        let search = HillClimbSearch::new(
            instance(8, 2, 3),
            Val::Value(1),
            [n(5), n(6), n(7)].into_iter().collect(),
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        )
        .with_restarts(4);
        assert!(
            search.find_violation().is_none(),
            "Theorem 1: no adversary violates at N = 2m+u+1"
        );
    }

    #[test]
    fn pressure_orders_runs_sensibly() {
        // A clean D.1 run scores below a degraded-but-satisfied run.
        let inst = instance(5, 1, 2);
        let clean = AdversaryRun {
            instance: inst,
            sender_value: Val::Value(1),
            strategies: BTreeMap::new(),
        }
        .run();
        let degraded = AdversaryRun {
            instance: inst,
            sender_value: Val::Value(1),
            strategies: [
                (n(3), Strategy::ConstantLie(Val::Value(2))),
                (n(4), Strategy::ConstantLie(Val::Value(2))),
            ]
            .into_iter()
            .collect(),
        }
        .run();
        assert!(violation_pressure(&clean) <= violation_pressure(&degraded));
    }

    #[test]
    fn battery_is_diverse() {
        let b = Strategy::battery(1, 2, 0);
        assert!(b.len() >= 5);
        let names: BTreeSet<_> = b.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), b.len(), "battery names must be unique");
    }
}
