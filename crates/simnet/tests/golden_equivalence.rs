//! Golden-equivalence test for the round engine's delivery path.
//!
//! Each digest in `tests/golden/delivery_order.txt` covers everything a
//! protocol or an observer can see of a run: the per-node per-round inbox
//! sequence of `(src, payload)` and the [`Outcome`]. They were recorded,
//! with exactly this rendering, on the last engine that could also keep a
//! per-message event trace (commit `05bfe93`, tracing off), and that
//! engine's own digests — which included the trace — had been recorded on
//! the engine that scheduled *every* delivery through the `EventQueue`.
//! Unlike those, these cover the clean-sender shortcut too: a
//! configuration with zero latency and no deadline takes it. Any later
//! change to how the engine lands messages must leave all of them
//! unchanged.
//!
//! To re-record (only when a behaviour change is intended):
//! `cargo test -p simnet --test golden_equivalence -- --ignored --nocapture print_digests`

use simnet::prelude::*;

const CONFIGS: u64 = 96;
const GOLDEN: &str = include_str!("golden/delivery_order.txt");

/// FNV-1a over the canonical text rendering of a run.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn random_link_kind(rng: &mut SimRng, rounds: usize) -> LinkFaultKind {
    match rng.below(5) {
        0 => LinkFaultKind::Cut {
            from_round: rng.below(rounds as u64) as usize,
        },
        1 => LinkFaultKind::Drop {
            p: 0.1 + 0.5 * rng.unit_f64(),
        },
        2 => LinkFaultKind::Duplicate {
            p: 0.2 + 0.8 * rng.unit_f64(),
        },
        3 => LinkFaultKind::Reorder {
            window: 1 + rng.below(3) as usize,
        },
        _ => LinkFaultKind::Corrupt {
            p: 0.2 + 0.6 * rng.unit_f64(),
        },
    }
}

fn random_fault_plan(rng: &mut SimRng, nodes: usize, rounds: usize, deadline: u64) -> FaultPlan {
    let mut plan = FaultPlan::healthy();
    let faulty = rng.below(3) as usize;
    for node in rng.choose_indices(nodes, faulty) {
        let kind = match rng.below(4) {
            0 => FaultKind::Crash {
                from_round: rng.below(rounds as u64) as usize,
            },
            1 => FaultKind::Omission {
                p: 0.2 + 0.6 * rng.unit_f64(),
            },
            // Sometimes exactly enough to reach the deadline, sometimes past it.
            2 => FaultKind::Delay {
                extra: rng.below(deadline.saturating_add(2).min(40)),
            },
            _ => FaultKind::Byzantine,
        };
        plan.insert(n(node), kind);
    }
    plan
}

/// What one configuration's run leaves behind.
struct Run {
    /// The canonical rendering of everything observable: every inbox in
    /// timer order, then the [`Outcome`].
    text: String,
    outcome: Outcome,
    /// Some edge of the link plan carries a [`LinkFaultKind::Reorder`] or
    /// a [`LinkFaultKind::Duplicate`]: a copy can be lost in flight.
    reorders_or_duplicates: bool,
}

/// Builds the `config`-th seeded engine and runs it.
fn run_config(config: u64) -> Run {
    let mut rng = SimRng::derive(0x0060_1DE2, config);
    let nodes = 3 + rng.below(5) as usize;
    let rounds = 3 + rng.below(4) as usize;
    let topo = match rng.below(4) {
        0 => Topology::ring(nodes),
        1 => Topology::star(nodes),
        _ => Topology::complete(nodes),
    };

    // A finite deadline for three configurations in four; the latency
    // model straddles it so on-time, boundary and late messages all occur.
    let deadline = if rng.below(4) == 0 {
        u64::MAX
    } else {
        4 + rng.below(12)
    };
    let reach = deadline.min(20);
    let latency = match rng.below(4) {
        0 => LatencyModel::Zero,
        1 => LatencyModel::Fixed(reach), // arrives exactly at the boundary
        2 => LatencyModel::Uniform {
            lo: 0,
            hi: reach + 3,
        },
        _ => LatencyModel::Spike {
            base: reach / 2,
            spike_p: 0.3,
            spike: reach,
        },
    };

    let mut links = LinkFaultPlan::healthy();
    for _ in 0..rng.below(2 * nodes as u64 + 1) {
        let from = rng.below(nodes as u64) as usize;
        let to = rng.below(nodes as u64) as usize;
        if from != to {
            links = links.with(n(from), n(to), random_link_kind(&mut rng, rounds));
        }
    }
    if rng.below(3) == 0 {
        let kinds = [
            random_link_kind(&mut rng, rounds),
            random_link_kind(&mut rng, rounds),
        ];
        links = links.stacked_with(&LinkFaultPlan::uniform_complete(nodes, &kinds));
    }
    let reorders_or_duplicates = links.iter().any(|(_, kinds)| {
        kinds.iter().any(|k| {
            matches!(
                k,
                LinkFaultKind::Reorder { .. } | LinkFaultKind::Duplicate { .. }
            )
        })
    });

    let mut engine = RoundEngine::<Vec<u32>>::new(topo, 1000 + config)
        .with_link_faults(links)
        .with_latency(latency)
        .with_deadline(deadline);
    engine = if rng.below(3) == 0 {
        let mut schedule = FaultSchedule::healthy();
        let mut from = rng.below(2) as usize;
        while from < rounds {
            schedule =
                schedule.then_from(from, random_fault_plan(&mut rng, nodes, rounds, deadline));
            from += 1 + rng.below(3) as usize;
        }
        engine.with_fault_schedule(schedule)
    } else {
        engine.with_faults(random_fault_plan(&mut rng, nodes, rounds, deadline))
    };
    if rng.below(2) == 0 {
        engine = engine.with_corruptor(|m: &Vec<u32>, rng: &mut SimRng| {
            if rng.chance(0.25) {
                None
            } else {
                let mut garbled = m.clone();
                garbled.push(0xBAD);
                Some(garbled)
            }
        });
    }

    // Every node talks every round: a broadcast, then a few point-to-point
    // sends to arbitrary nodes (non-neighbours included). Each payload is
    // unique, so an inbox pins both order and multiplicity.
    let mut script = rng.fork(7);
    let mut seen = String::new();
    let outcome = engine.run_with(rounds, |i, ctx| {
        use std::fmt::Write;
        write!(seen, "r{} n{}:", ctx.round(), i).unwrap();
        for (src, payload) in ctx.inbox() {
            write!(seen, " {src}{payload:?}").unwrap();
        }
        seen.push('\n');
        let round = ctx.round() as u32;
        ctx.broadcast(vec![round, i as u32, u32::MAX]);
        for k in 0..script.below(4) as u32 {
            let to = script.below(nodes as u64) as usize;
            if to != i {
                ctx.send(n(to), vec![round, i as u32, to as u32, k]);
            }
        }
    });

    let mut text = seen;
    text.push_str(&format!("{outcome:?}\n"));
    Run {
        text,
        outcome,
        reorders_or_duplicates,
    }
}

fn digests() -> Vec<String> {
    (0..CONFIGS)
        .map(|c| format!("{c:02} {:016x}", fnv1a(&run_config(c).text)))
        .collect()
}

#[test]
fn delivery_order_and_outcome_match_recorded_digests() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(golden.len() as u64, CONFIGS, "one digest per configuration");
    let actual = digests();
    let diverged: Vec<&String> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a.as_str() != **g)
        .map(|(a, _)| a)
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {CONFIGS} configurations diverged from the recorded engine: {diverged:?}",
        diverged.len()
    );
}

/// Every copy a run puts on the wire — each message sent, plus the extra
/// copy of each message duplication fires on — is delivered, dropped for
/// exactly one counted cause, or lost in flight. A copy is lost in flight
/// when a reorder holds it past the last timer, or when it is the extra
/// copy of a duplicated message that a later kind or the deadline then
/// drops: the drop is counted once, for the message. So the copies no
/// counter accounts for number none when the plan has neither kind, and at
/// most `duplicated + reordered` when it has. A message counted under two
/// causes, or under none, breaks the equality or the bounds.
#[test]
fn outcome_conservation_law_holds_on_every_configuration() {
    let mut exact = 0;
    for config in 0..CONFIGS {
        let Run {
            outcome: o,
            reorders_or_duplicates,
            ..
        } = run_config(config);
        let counted = o.delivered
            + o.dropped_crash
            + o.dropped_omission
            + o.late
            + o.no_link
            + o.dropped_link_cut
            + o.dropped_link_loss
            + o.dropped_corrupt;
        let copies = o.sent + o.duplicated;
        assert!(counted <= copies, "config {config}: {o:?}");
        let lost_in_flight = copies - counted;
        if reorders_or_duplicates {
            assert!(
                lost_in_flight <= o.duplicated + o.reordered,
                "config {config}: {o:?}"
            );
        } else {
            assert_eq!(lost_in_flight, 0, "config {config}: {o:?}");
            exact += 1;
        }
    }
    assert_eq!(exact, 24, "configurations that pin the law exactly");
}

/// The recorded configurations actually exercise what they claim to.
#[test]
fn configurations_cover_every_disposition() {
    let runs: Vec<Run> = (0..CONFIGS).map(run_config).collect();
    let seen = |count: fn(&Outcome) -> usize| runs.iter().any(|r| count(&r.outcome) > 0);
    for (counter, covered) in [
        ("sent", seen(|o| o.sent)),
        ("delivered", seen(|o| o.delivered)),
        ("dropped_crash", seen(|o| o.dropped_crash)),
        ("dropped_omission", seen(|o| o.dropped_omission)),
        ("late", seen(|o| o.late)),
        ("no_link", seen(|o| o.no_link)),
        ("dropped_link_cut", seen(|o| o.dropped_link_cut)),
        ("dropped_link_loss", seen(|o| o.dropped_link_loss)),
        ("duplicated", seen(|o| o.duplicated)),
        ("reordered", seen(|o| o.reordered)),
        ("corrupted", seen(|o| o.corrupted)),
        ("dropped_corrupt", seen(|o| o.dropped_corrupt)),
    ] {
        assert!(covered, "no configuration counted {counter}");
    }
    // 0xBAD: a garbled payload reached an inbox.
    assert!(runs.iter().any(|r| r.text.contains("2989")));
}

#[test]
#[ignore = "prints the digest file; run by hand to re-record"]
fn print_digests() {
    println!("# config fnv1a(inboxes + Outcome); see golden_equivalence.rs");
    for line in digests() {
        println!("{line}");
    }
}

/// A message still in flight when the last timer has fired is never seen:
/// an on-time send of the final round is booked as delivered (the network
/// accepted it) but lands in nobody's inbox, and a reorder-held copy whose
/// arrival round lies past the end is not even booked.
#[test]
fn in_flight_at_the_final_round_is_lost() {
    let run = |links: LinkFaultPlan| {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(links);
        let mut seen = 0usize;
        let outcome = engine.run_with(2, |i, ctx| {
            seen += ctx.inbox().len();
            if ctx.round() == 1 && i == 0 {
                ctx.send(n(1), 7);
            }
        });
        (outcome, seen)
    };
    let (on_time, seen) = run(LinkFaultPlan::healthy());
    assert_eq!((on_time.sent, on_time.delivered, seen), (1, 1, 0));

    // A window this wide draws a non-zero delay with probability 1000/1001.
    let held = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Reorder { window: 1000 });
    let (held_out, seen) = run(held);
    assert_eq!(held_out.reordered, 1, "seed-checked: a delay was drawn");
    assert_eq!((held_out.sent, held_out.delivered, seen), (1, 0, 0));
}

/// A message whose latency equals the deadline arrives exactly when the
/// receiver's timer fires, and is present; one unit more and it is late.
#[test]
fn arrival_exactly_at_the_boundary_is_present() {
    let run = |latency: u64| {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_latency(LatencyModel::Fixed(latency))
            .with_deadline(5);
        let mut heard = false;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                heard = ctx.from(n(0)) == Some(&7);
            }
        });
        (heard, outcome.delivered, outcome.late)
    };
    assert_eq!(run(5), (true, 1, 0));
    assert_eq!(run(6), (false, 0, 1));
}

/// A reorder-held copy lands in the round it was delayed to, after the
/// on-time traffic of that round from the same source (stable by source).
#[test]
fn held_copies_land_after_on_time_traffic_from_the_same_source() {
    // Find a seed where the round-0 message is held exactly one round and
    // the round-1 message is on time: both land in round 2.
    for seed in 0..64 {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Reorder { window: 1 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), seed).with_link_faults(plan);
        let mut round2 = Vec::new();
        engine.run_with(3, |i, ctx| {
            if i == 0 && ctx.round() < 2 {
                ctx.send(n(1), ctx.round() as u8);
            }
            if i == 1 && ctx.round() == 2 {
                round2 = ctx.inbox().iter().map(|(_, m)| *m).collect();
            }
        });
        if round2.len() == 2 {
            assert_eq!(round2, vec![1, 0], "on-time first, held copy after");
            return;
        }
    }
    panic!("no seed in 0..64 held the first message and not the second");
}
