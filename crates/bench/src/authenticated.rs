//! **Experiment A2** — what authentication buys, and what degradable
//! agreement buys without it.
//!
//! Lamport–Shostak–Pease (the paper's reference \[7\]) give two
//! algorithms: OM for oral messages (`n > 3m`) and SM for signed messages
//! (`n >= m + 2`, any `m`). Degradable agreement sits between: it needs no
//! cryptography but still offers guarantees beyond `N/3` faults — degraded
//! ones. This experiment lines the three up on small systems:
//!
//! * `N = 3`: OM(1) cannot exist (3 <= 3m+1-1); SM(1) reaches agreement
//!   under a two-faced sender; 0/2-degradable BYZ reaches *degraded*
//!   agreement (all fault-free decide `V_d` — identical, detected);
//! * `N = 4`: OM(1) handles f = 1 and collapses at f = 2; SM(2) still
//!   agrees at f = 2; 1/1-degradable equals OM; 0/3-degradable converts
//!   the f = 2 collapse into a degraded (safe) outcome.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::baselines::run_om;
use degradable::sm::{run_sm, SmAdversary};
use degradable::{check_degradable, AdversaryRun, ByzInstance, Params, RunRecord, Val};
use harness::report::Table;
use harness::Report;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome summary of one protocol run against the two-faced-sender
/// attack with `extra` colluding lying receivers.
fn summarize(decisions: &BTreeMap<NodeId, Val>, faulty: &BTreeSet<NodeId>) -> String {
    let vals: Vec<String> = decisions
        .iter()
        .filter(|(r, _)| !faulty.contains(r))
        .map(|(r, v)| format!("{r}={v}"))
        .collect();
    vals.join(" ")
}

fn consistent(decisions: &BTreeMap<NodeId, Val>, faulty: &BTreeSet<NodeId>) -> bool {
    let distinct: BTreeSet<_> = decisions
        .iter()
        .filter(|(r, _)| !faulty.contains(r))
        .map(|(_, v)| *v)
        .collect();
    distinct.len() <= 1
}

fn om_row(n: usize, m: usize, faulty_receivers: usize) -> (String, bool) {
    let mut faulty: BTreeSet<NodeId> = [NodeId::new(0)].into_iter().collect();
    for i in 0..faulty_receivers {
        faulty.insert(NodeId::new(n - 1 - i));
    }
    let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty
        .iter()
        .map(|&f| {
            (
                f,
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            )
        })
        .collect();
    let strategies2 = strategies.clone();
    let mut fab = move |p: &degradable::Path, r: NodeId, t: &Val| {
        strategies2.get(&p.last()).expect("faulty").claim(p, r, t)
    };
    let d = run_om(n, m, NodeId::new(0), &Val::Value(0), &faulty, &mut fab);
    let ok = consistent(&d, &faulty);
    (
        format!(
            "{} [{}]",
            if ok { "agree" } else { "SPLIT" },
            summarize(&d, &faulty)
        ),
        ok,
    )
}

fn sm_row(n: usize, m: usize, faulty_receivers: usize) -> (String, bool) {
    let mut faulty: BTreeSet<NodeId> = [NodeId::new(0)].into_iter().collect();
    for i in 0..faulty_receivers {
        faulty.insert(NodeId::new(n - 1 - i));
    }
    let mut sender_claims =
        |r: NodeId| Some(Val::Value(if r.index().is_multiple_of(2) { 1 } else { 2 }));
    let mut relay_action = |relayer: NodeId, _c: &[NodeId], r: NodeId| {
        // faulty receivers withhold toward odd receivers
        if relayer != NodeId::new(0) && r.index() % 2 == 1 {
            degradable::sm::SmRelayAction::Withhold
        } else {
            degradable::sm::SmRelayAction::Forward
        }
    };
    let d = run_sm(
        n,
        m,
        NodeId::new(0),
        &Val::Value(0),
        &faulty,
        &mut SmAdversary {
            sender_claims: &mut sender_claims,
            relay_action: &mut relay_action,
        },
    );
    let ok = consistent(&d, &faulty);
    (
        format!(
            "{} [{}]",
            if ok { "agree" } else { "SPLIT" },
            summarize(&d, &faulty)
        ),
        ok,
    )
}

fn byz_row(n: usize, m: usize, u: usize, faulty_receivers: usize) -> (String, bool) {
    let params = Params::new(m, u).expect("u >= m");
    let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("bound");
    let mut strategies: BTreeMap<NodeId, Strategy<u64>> = [(
        NodeId::new(0),
        Strategy::TwoFaced {
            even: Val::Value(1),
            odd: Val::Value(2),
        },
    )]
    .into_iter()
    .collect();
    for i in 0..faulty_receivers {
        strategies.insert(
            NodeId::new(n - 1 - i),
            Strategy::TwoFaced {
                even: Val::Value(1),
                odd: Val::Value(2),
            },
        );
    }
    let record: RunRecord<u64> = AdversaryRun {
        instance: inst,
        sender_value: Val::Value(0),
        strategies: strategies.clone(),
    }
    .run();
    let ok = check_degradable(&record).is_satisfied();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    (
        format!(
            "{} [{}]",
            if ok { "conditions hold" } else { "VIOLATED" },
            summarize(&record.decisions, &faulty)
        ),
        ok,
    )
}

pub(crate) fn run(_workers: usize) -> Run {
    // The sender is faulty in every row; `extra` counts additional lying
    // receivers.
    let mut rows = Vec::new();
    let mut story = true;

    // N = 3, f = 1 (just the sender).
    let (sm, sm_ok) = sm_row(3, 1, 0);
    let (byz, byz_ok) = byz_row(3, 0, 2, 0);
    rows.push(vec![
        "3".into(),
        "1 (sender)".into(),
        "impossible (needs n > 3m)".into(),
        format!("SM(1): {sm}"),
        format!("BYZ 0/2: {byz}"),
    ]);
    story &= sm_ok && byz_ok;

    // N = 4, f = 1.
    let (om, om_ok) = om_row(4, 1, 0);
    let (sm, sm_ok) = sm_row(4, 1, 0);
    let (byz, byz_ok) = byz_row(4, 1, 1, 0);
    rows.push(vec![
        "4".into(),
        "1 (sender)".into(),
        format!("OM(1): {om}"),
        format!("SM(1): {sm}"),
        format!("BYZ 1/1: {byz}"),
    ]);
    story &= om_ok && sm_ok && byz_ok;

    // N = 4, f = 2 (sender + 1 receiver).
    let (om, om_ok) = om_row(4, 1, 1);
    let (sm, sm_ok) = sm_row(4, 2, 1);
    let (byz, byz_ok) = byz_row(4, 0, 3, 1);
    rows.push(vec![
        "4".into(),
        "2 (sender + 1)".into(),
        format!("OM(1): {om} (beyond m: no promise)"),
        format!("SM(2): {sm}"),
        format!("BYZ 0/3: {byz}"),
    ]);
    // OM may or may not split here — it's beyond its promise; SM and
    // degradable must hold.
    let _ = om_ok;
    story &= sm_ok && byz_ok;

    let mut report = Report::new("authenticated");
    report
        .set_metric("story_holds", story)
        .add_table(Table::with_rows(
            "fault-free receiver decisions per protocol",
            &[
                "N",
                "faults",
                "oral (OM)",
                "signed (SM)",
                "degradable (BYZ)",
            ],
            rows,
        ));
    Run::new(report, &[("story_holds", story)], None)
}
