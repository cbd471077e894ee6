//! Golden test for the simulator backend's per-node event order.
//!
//! The digests in `tests/golden/sim.txt` were recorded while `SimWorld`
//! still closed its rounds with per-node virtual timers and booked chaos
//! verdicts in its own tables. Each case records two things for every
//! node:
//!
//! * driven through [`SimWorld::endpoints`] by [`NodeStateMachine`]s, in
//!   the sweep a hand-written driver makes: every `poll` outcome in order
//!   (`Pending` included), the trace context each delivery surfaced, and
//!   the endpoint's [`TransportStats`];
//! * through [`run_kind_with`] on [`TransportKind::Sim`], with events
//!   recorded and tracing on: the node's [`Step`] log and its trace spans.
//!
//! The differential suites compare decisions, views and counters; these
//! digests pin the order in which each node sees its events, which a
//! change to how the simulator closes a round must leave as it is.
//!
//! To re-record (only when a behaviour change is intended):
//! `cargo test -p transport --test sim_golden -- --ignored --nocapture print_digests`

use degradable::{ByzInstance, NodeAction, NodeStateMachine, Params, Strategy, Val};
use obs::TraceCtx;
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use transport::{
    run_kind_with, HotEdgeCutter, LinkChaos, MeshConfig, PollOutcome, RelaxedTiming, RunOptions,
    Transport, TransportKind,
};

const GOLDEN: &str = include_str!("golden/sim.txt");

/// FNV-1a over the canonical text rendering of a run.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// What the links do to a case.
#[derive(Debug, Clone, Copy)]
enum Net {
    Healthy,
    Cut,
    Drop,
    Duplicate,
    Reorder,
    HotEdge,
    /// §6: skewed arrivals, with more liars than `m`.
    Relaxed,
}

const NETS: [Net; 7] = [
    Net::Healthy,
    Net::Cut,
    Net::Drop,
    Net::Duplicate,
    Net::Reorder,
    Net::HotEdge,
    Net::Relaxed,
];

/// `(n, m, u)`: every shape satisfies `n >= 2m + u + 1`.
const SHAPES: [(usize, usize, usize); 3] = [(4, 1, 1), (5, 1, 2), (7, 2, 2)];

struct Case {
    label: String,
    instance: ByzInstance,
    strategies: BTreeMap<NodeId, Strategy<u64>>,
    net: Net,
    seed: u64,
}

/// The strategies a case's liars play, walked in turn so that every shape
/// meets `Silent` among others.
fn strategy(k: usize) -> Strategy<u64> {
    match k % 5 {
        0 => Strategy::Silent,
        1 => Strategy::ConstantLie(Val::Value(9)),
        2 => Strategy::TwoFaced {
            even: Val::Value(1),
            odd: Val::Value(2),
        },
        3 => Strategy::PretendSenderSaid(Val::Value(5)),
        _ => Strategy::AlternatingDepth(Val::Value(6)),
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (si, &(nodes, m, u)) in SHAPES.iter().enumerate() {
        for (ni, &net) in NETS.iter().enumerate() {
            let sender = (si + ni) % nodes;
            let instance = ByzInstance::new(nodes, Params::new(m, u).unwrap(), n(sender)).unwrap();
            // `m + 1` liars under skew (§6 allows false timeouts only past
            // `m`), up to `u` otherwise; never the sender.
            let liars = match net {
                Net::Relaxed => m + 1,
                _ => (si + ni) % (u + 1),
            };
            let strategies = (1..=liars)
                .map(|k| (n((sender + k) % nodes), strategy(si + ni + k)))
                .collect();
            let seed = 0x51_6017 + out.len() as u64;
            out.push(Case {
                label: format!("N={nodes} m={m} u={u} s={sender} f={liars} {net:?}"),
                instance,
                strategies,
                net,
                seed,
            });
        }
    }
    out
}

impl Case {
    fn chaos(&self) -> LinkChaos {
        let nodes = self.instance.n();
        let uniform = |kind| LinkFaultPlan::uniform_complete(nodes, &[kind]);
        let (a, b) = (n(1), n(nodes - 1));
        let plan = match self.net {
            Net::Healthy | Net::Relaxed => LinkFaultPlan::healthy(),
            Net::Cut => LinkFaultPlan::healthy()
                .with_symmetric(a, b, LinkFaultKind::Cut { from_round: 1 })
                .with(n(0), a, LinkFaultKind::Cut { from_round: 0 }),
            Net::Drop => uniform(LinkFaultKind::Drop { p: 0.15 }),
            Net::Duplicate => uniform(LinkFaultKind::Duplicate { p: 0.5 }),
            Net::Reorder => uniform(LinkFaultKind::Reorder { window: 1 }).stacked_with(
                &LinkFaultPlan::healthy().with(a, b, LinkFaultKind::Reorder { window: 2 }),
            ),
            Net::HotEdge => uniform(LinkFaultKind::Drop { p: 0.05 }),
        };
        let chaos = LinkChaos::new(plan, self.seed);
        match self.net {
            Net::HotEdge => chaos.with_adaptive(HotEdgeCutter::new(2)),
            _ => chaos,
        }
    }

    fn relaxed(&self) -> Option<RelaxedTiming> {
        let m = self.instance.params().m();
        match self.net {
            Net::Relaxed => {
                let skew =
                    RelaxedTiming::when_degraded(self.strategies.len(), m, 0.4, 2, self.seed);
                Some(skew.expect("f > m"))
            }
            _ => None,
        }
    }

    fn machines(&self) -> Vec<NodeStateMachine<u64>> {
        NodeId::all(self.instance.n())
            .map(|me| {
                let strategy = self.strategies.get(&me).cloned();
                NodeStateMachine::new(&self.instance, me, Val::Value(7), strategy)
            })
            .collect()
    }
}

/// Every node's polls, in the order it saw them, and its counters, with
/// the world swept node by node as a hand-written driver does: each node
/// is polled until it answers `Pending` or `Closed`. Even-numbered cases
/// stamp their sends with a trace context, odd ones send untraced.
fn driven(case: &Case, traced: bool) -> String {
    let nodes = case.instance.n();
    let faulty: BTreeSet<NodeId> = case.strategies.keys().copied().collect();
    let depth = case.instance.depth();
    let mut endpoints =
        transport::SimWorld::endpoints(nodes, depth, case.chaos(), case.relaxed(), faulty);
    let mut machines = case.machines();
    let mut logs = vec![String::new(); nodes];
    loop {
        let (mut all_closed, mut progressed) = (true, false);
        for i in 0..nodes {
            loop {
                let outcome = endpoints[i].poll();
                let log = &mut logs[i];
                write!(log, "{outcome:?}").unwrap();
                let event = match outcome {
                    PollOutcome::Event(event) => event,
                    PollOutcome::Pending => {
                        all_closed = false;
                        writeln!(log).unwrap();
                        break;
                    }
                    PollOutcome::Closed => {
                        writeln!(log).unwrap();
                        break;
                    }
                };
                writeln!(log, " {:?}", endpoints[i].last_trace()).unwrap();
                (progressed, all_closed) = (true, false);
                if machines[i].is_done() {
                    continue;
                }
                for action in machines[i].on_event(event) {
                    match action {
                        NodeAction::Send { to, msg } if traced => {
                            let path = msg.path.as_slice().iter().map(|id| id.index() as u64);
                            let ctx = TraceCtx::new(0, path.collect());
                            endpoints[i].send_traced(to, msg, Some(ctx));
                        }
                        NodeAction::Send { to, msg } => endpoints[i].send(to, msg),
                        NodeAction::Decide { value } => writeln!(log, "decide {value:?}").unwrap(),
                    }
                }
            }
        }
        if all_closed {
            break;
        }
        assert!(progressed, "{}: sim sweep stalled", case.label);
    }
    let mut text = String::new();
    for (i, log) in logs.iter().enumerate() {
        writeln!(text, "node {i}\n{log}{:?}", endpoints[i].stats()).unwrap();
    }
    text
}

/// Every node's `Step` log and trace spans from the runner's sim driver.
fn recorded(case: &Case) -> String {
    let options = RunOptions {
        record_events: true,
        trace: true,
    };
    let run = run_kind_with(
        TransportKind::Sim,
        &case.instance,
        Val::Value(7),
        &case.strategies,
        case.chaos(),
        MeshConfig::default(),
        options,
    )
    .unwrap();
    let mut text = String::new();
    for (node, steps) in &run.node_events {
        writeln!(text, "node {node}").unwrap();
        for step in steps {
            writeln!(text, "{step:?}").unwrap();
        }
    }
    for span in run.obs.spans() {
        writeln!(text, "{}", span.to_json().to_json_string()).unwrap();
    }
    writeln!(text, "{}", run.obs.registry().to_json().to_json_string()).unwrap();
    writeln!(text, "{:?}\n{:?}", run.decisions, run.stats).unwrap();
    text
}

fn digests() -> Vec<String> {
    let mut out = Vec::new();
    for (k, case) in cases().iter().enumerate() {
        let driven = driven(case, k % 2 == 0);
        out.push(format!("{:016x} driven {}", fnv1a(&driven), case.label));
        let recorded = recorded(case);
        out.push(format!("{:016x} run {}", fnv1a(&recorded), case.label));
    }
    out
}

#[test]
fn sim_event_order_matches_recorded_digests() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = digests();
    assert_eq!(golden.len(), actual.len(), "one digest per case and record");
    let diverged: Vec<&String> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a.as_str() != **g)
        .map(|(a, _)| a)
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} records diverged from the recorded simulator: {diverged:#?}",
        diverged.len(),
        actual.len()
    );
}

/// The corpus exercises what it claims to: every chaos counter, a false
/// timeout and a lost envelope are nonzero somewhere, and so are `Pending`
/// answers and traced deliveries.
#[test]
fn the_corpus_reaches_every_counter() {
    let mut text = String::new();
    for (k, case) in cases().iter().enumerate() {
        text += &driven(case, k % 2 == 0);
    }
    for needle in ["Pending", "Some(TraceCtx", "decide"] {
        assert!(text.contains(needle), "no record holds {needle:?}");
    }
    for counter in [
        "dropped_cut",
        "dropped_loss",
        "duplicated",
        "delayed",
        "lost",
        "false_timeouts",
    ] {
        let nonzero = text
            .split(&format!("{counter}: "))
            .skip(1)
            .any(|rest| !rest.starts_with('0'));
        assert!(nonzero, "no record counts {counter}");
    }
}

#[test]
#[ignore = "prints the digest file; run by hand to re-record"]
fn print_digests() {
    println!("# FNV-1a digests of the simulator's per-node event order, one line per");
    println!("# case and record of crates/transport/tests/sim_golden.rs: `driven` is");
    println!("# every poll outcome, surfaced trace and TransportStats of SimWorld");
    println!("# endpoints; `run` is the Step log and trace spans of run_kind_with.");
    println!("# Recorded while the simulator closed rounds with per-node timers.");
    for line in digests() {
        println!("{line}");
    }
}
