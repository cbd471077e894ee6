//! Golden test for `run_protocol`'s full observable result.
//!
//! The digests in `tests/golden/run_protocol.txt` were recorded while
//! `degradable::protocol` still carried its own round closure (its own
//! inbox validation, first-write-wins recording and relay fan-out over a
//! `RoundEngine<ByzMsg>`). Each digest covers everything a caller can see
//! of a run: every receiver's decision, every [`simnet::Outcome`] counter
//! and [`simnet::EigPerf::deterministic_counters`]. Routing `run_protocol`
//! through the batch executor as a one-instance batch must leave all of
//! them unchanged.
//!
//! To re-record (only when a behaviour change is intended):
//! `cargo test --test protocol_golden -- --ignored --nocapture print_digests`

use degradable::{
    run_protocol_with, AgreementValue as Val, BatchOptions, ByzInstance, Params, ProtocolRun,
    Strategy,
};
use simnet::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

const GOLDEN: &str = include_str!("golden/run_protocol.txt");

/// FNV-1a over the canonical text rendering of a run.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// What the simulated network does to a case, beyond the Byzantine
/// strategies. Everything here installs through methods that are generic
/// in the engine's message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    Healthy,
    Cut,
    Drop,
    Duplicate,
    Reorder,
    Corrupt,
    Stacked,
    SpikeDeadline,
    Crash,
    Omission,
    DelayDeadline,
    Mixed,
}

const NETS: [Net; 12] = [
    Net::Healthy,
    Net::Cut,
    Net::Drop,
    Net::Duplicate,
    Net::Reorder,
    Net::Corrupt,
    Net::Stacked,
    Net::SpikeDeadline,
    Net::Crash,
    Net::Omission,
    Net::DelayDeadline,
    Net::Mixed,
];

#[derive(Debug, Clone)]
struct Case {
    label: String,
    nodes: usize,
    m: usize,
    u: usize,
    below_bound: bool,
    sender: usize,
    /// Byzantine node count (strategies drawn from the case RNG).
    liars: usize,
    net: Net,
    seed: u64,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |nodes, m, u, below_bound, sender, liars, net, tag: &str| {
        let seed = 0x9017 + out.len() as u64;
        out.push(Case {
            label: format!("{tag} N={nodes} m={m} u={u} s={sender} f={liars} {net:?}"),
            nodes,
            m,
            u,
            below_bound,
            sender,
            liars,
            net,
            seed,
        });
    };
    // Every network kind on every regular shape; the liar count walks
    // 0..=u (and one past it) as the table advances.
    let shapes = [(4, 1, 1), (5, 1, 2), (5, 0, 4), (7, 2, 2), (8, 2, 3)];
    for (si, &(nodes, m, u)) in shapes.iter().enumerate() {
        for (ni, &net) in NETS.iter().enumerate() {
            let liars = (si + ni) % (u + 2);
            push(nodes, m, u, false, (si + ni) % nodes, liars, net, "grid");
        }
    }
    // Below the node bound (Theorem 2 experiments run these on purpose).
    push(4, 1, 2, true, 0, 2, Net::Healthy, "below");
    push(6, 2, 2, true, 1, 2, Net::Drop, "below");
    // Depth-5 paths spill the inline `Path` representation.
    push(13, 4, 4, false, 0, 0, Net::Healthy, "deep");
    push(13, 4, 4, false, 3, 3, Net::Cut, "deep");
    out
}

/// Installs the case's network on an engine of any message type.
fn configure<M: Clone>(engine: RoundEngine<M>, case: &Case, rng: &mut SimRng) -> RoundEngine<M> {
    let nodes = case.nodes;
    let rounds = case.m.max(1) + 1;
    let a = rng.below(nodes as u64) as usize;
    let b = (a + 1 + rng.below(nodes as u64 - 1) as usize) % nodes;
    let uniform = |kinds: &[LinkFaultKind]| LinkFaultPlan::uniform_complete(nodes, kinds);
    // Every link out of `from` carries `kind`.
    let out_links = |from: usize, kind: LinkFaultKind| {
        (0..nodes)
            .filter(|&to| to != from)
            .fold(LinkFaultPlan::healthy(), |plan, to| {
                plan.with(n(from), n(to), kind)
            })
    };
    let late_crash = FaultKind::Crash {
        from_round: 1 + rng.below(rounds as u64 - 1) as usize,
    };
    match case.net {
        Net::Healthy => engine,
        Net::Cut => engine.with_link_faults(
            LinkFaultPlan::healthy()
                .with_symmetric(n(a), n(b), LinkFaultKind::Cut { from_round: 1 })
                .with(
                    n(b),
                    n((b + 1) % nodes),
                    LinkFaultKind::Cut { from_round: 0 },
                ),
        ),
        Net::Drop => engine.with_link_faults(uniform(&[LinkFaultKind::Drop { p: 0.08 }])),
        Net::Duplicate => engine.with_link_faults(uniform(&[LinkFaultKind::Duplicate { p: 0.6 }])),
        Net::Reorder => engine.with_link_faults(
            out_links(a, LinkFaultKind::Reorder { window: 1 })
                .stacked_with(&out_links(b, LinkFaultKind::Reorder { window: 2 })),
        ),
        Net::Corrupt => engine.with_link_faults(uniform(&[LinkFaultKind::Corrupt { p: 0.1 }])),
        Net::Stacked => engine.with_link_faults(
            uniform(&[LinkFaultKind::Duplicate { p: 0.4 }])
                .stacked_with(&out_links(a, LinkFaultKind::Reorder { window: 1 }))
                .stacked_with(&LinkFaultPlan::healthy().with_symmetric(
                    n(a),
                    n(b),
                    LinkFaultKind::Drop { p: 0.5 },
                )),
        ),
        Net::SpikeDeadline => engine
            .with_latency(LatencyModel::Spike {
                base: 2,
                spike_p: 0.05,
                spike: 30,
            })
            .with_deadline(10),
        Net::Crash => engine.with_faults(FaultPlan::healthy().with(n(a), late_crash)),
        Net::Omission => {
            engine.with_faults(FaultPlan::healthy().with(n(a), FaultKind::Omission { p: 0.3 }))
        }
        Net::DelayDeadline => engine
            .with_faults(FaultPlan::healthy().with(n(a), FaultKind::Delay { extra: 9 }))
            .with_latency(LatencyModel::Uniform { lo: 0, hi: 4 })
            .with_deadline(12),
        Net::Mixed => engine
            .with_link_faults(uniform(&[LinkFaultKind::Drop { p: 0.04 }]).stacked_with(
                &LinkFaultPlan::healthy().with(n(a), n(b), LinkFaultKind::Cut { from_round: 1 }),
            ))
            .with_faults(FaultPlan::healthy().with(n(b), late_crash))
            .with_latency(LatencyModel::Spike {
                base: 1,
                spike_p: 0.03,
                spike: 20,
            })
            .with_deadline(8),
    }
}

/// Draws the case's Byzantine strategies over value type `V`.
fn strategies<V: Clone>(
    case: &Case,
    rng: &mut SimRng,
    mk: &impl Fn(u64) -> V,
) -> BTreeMap<NodeId, Strategy<V>> {
    let val = |x: u64| Val::Value(mk(x));
    rng.choose_indices(case.nodes, case.liars)
        .into_iter()
        .map(|node| {
            // A silent sender starves the whole run; keep it talking.
            let strategy = match rng.below(6) {
                0 if node != case.sender => Strategy::Silent,
                0 => Strategy::ConstantLie(val(8)),
                1 => Strategy::ConstantLie(val(900 + node as u64)),
                2 => Strategy::TwoFaced {
                    even: val(1),
                    odd: val(2),
                },
                3 => Strategy::RandomLie {
                    domain: vec![Val::Default, val(1), val(2), val(7)],
                    seed: rng.below(1 << 20),
                },
                4 => Strategy::PretendSenderSaid(val(5)),
                _ => Strategy::AlternatingDepth(val(6)),
            };
            (n(node), strategy)
        })
        .collect()
}

/// The one line that names the executor under test.
fn execute<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    value: &Val<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    case: &Case,
    rng: &mut SimRng,
) -> ProtocolRun<V> {
    let opts = BatchOptions::new().network(|e| configure(e, case, rng));
    run_protocol_with(instance, value, strategies, case.seed, opts)
}

/// Runs one case and renders everything observable, timing excluded.
fn run_case<V: Clone + Ord + Hash + Send + Sync + Debug>(
    case: &Case,
    mk: impl Fn(u64) -> V,
) -> String {
    let params = Params::new(case.m, case.u).unwrap();
    let instance = if case.below_bound {
        ByzInstance::new_below_bound(case.nodes, params, n(case.sender))
    } else {
        ByzInstance::new(case.nodes, params, n(case.sender))
    }
    .unwrap();
    let mut rng = SimRng::derive(0x0090_1DE4, case.seed);
    let strategies = strategies(case, &mut rng, &mk);
    let run = execute(
        &instance,
        &Val::Value(mk(7)),
        &strategies,
        case,
        &mut rng.fork(1),
    );
    let Outcome {
        rounds_run,
        sent,
        delivered,
        dropped_crash,
        dropped_omission,
        late,
        no_link,
        dropped_link_cut,
        dropped_link_loss,
        duplicated,
        reordered,
        corrupted,
        dropped_corrupt,
        eig,
    } = run.net;
    format!(
        "{:?}\n{:?}\n{:?}\n",
        run.decisions,
        [
            rounds_run,
            sent,
            delivered,
            dropped_crash,
            dropped_omission,
            late,
            no_link,
            dropped_link_cut,
            dropped_link_loss,
            duplicated,
            reordered,
            corrupted,
            dropped_corrupt
        ],
        eig.deterministic_counters()
    )
}

/// Every case over `u64`, then every fourth regular case again over
/// `String` values (same strategies, same network, different `V`).
fn renderings() -> Vec<(String, String)> {
    let cases = cases();
    let mut out: Vec<(String, String)> = cases
        .iter()
        .map(|c| (format!("u64 {}", c.label), run_case(c, |x| x)))
        .collect();
    out.extend(cases.iter().filter(|c| c.nodes < 13).step_by(4).map(|c| {
        (
            format!("String {}", c.label),
            run_case(c, |x| format!("v{x}")),
        )
    }));
    out
}

fn digests() -> Vec<String> {
    renderings()
        .into_iter()
        .map(|(label, text)| format!("{:016x} {label}", fnv1a(&text)))
        .collect()
}

#[test]
fn run_protocol_results_match_recorded_digests() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = digests();
    assert!(actual.len() >= 48, "at least 48 recorded cases");
    assert_eq!(golden.len(), actual.len(), "one digest per case");
    let diverged: Vec<&String> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a.as_str() != **g)
        .map(|(a, _)| a)
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} cases diverged from the recorded executor: {diverged:#?}",
        diverged.len(),
        actual.len()
    );
}

/// The recorded cases actually exercise what they claim to: every
/// `Outcome` counter a complete topology can produce is nonzero somewhere,
/// and the `String` twin of a case decides like its `u64` original.
#[test]
fn cases_cover_every_counter() {
    let texts = renderings();
    let mut seen = [false; 13];
    for (_, text) in &texts {
        let counters = text.lines().nth(1).unwrap();
        let counters = counters.trim_matches(|c| c == '[' || c == ']');
        for (i, c) in counters.split(", ").enumerate() {
            seen[i] |= c.parse::<u64>().unwrap() > 0;
        }
    }
    let names = [
        "rounds_run",
        "sent",
        "delivered",
        "dropped_crash",
        "dropped_omission",
        "late",
        "no_link",
        "dropped_link_cut",
        "dropped_link_loss",
        "duplicated",
        "reordered",
        "corrupted",
        "dropped_corrupt",
    ];
    for (i, name) in names.iter().enumerate() {
        // A complete topology has every link, and the corrupt cases
        // install no corruptor (garbling reads as absence).
        let expected = !matches!(*name, "no_link" | "corrupted");
        assert_eq!(seen[i], expected, "{name}");
    }
    let first_string = texts.iter().find(|(l, _)| l.starts_with("String")).unwrap();
    let twin_label = first_string.0.replacen("String", "u64", 1);
    let twin = texts.iter().find(|(l, _)| *l == twin_label).unwrap();
    assert_eq!(
        first_string.1.lines().skip(1).collect::<Vec<_>>(),
        twin.1.lines().skip(1).collect::<Vec<_>>(),
        "counters are independent of the value type"
    );
}

#[test]
#[ignore = "prints the digest file; run by hand to re-record"]
fn print_digests() {
    println!("# FNV-1a digests of run_protocol results (decisions, Outcome counters,");
    println!("# EigPerf deterministic counters), one per case of tests/protocol_golden.rs.");
    println!("# Recorded on the executor with its own round closure, before run_protocol");
    println!("# became a one-instance batch.");
    for line in digests() {
        println!("{line}");
    }
}
