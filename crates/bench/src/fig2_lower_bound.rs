//! **Experiment F2** — Figure 2: the three fault scenarios of the
//! Theorem 2 lower-bound proof, executed against algorithm BYZ on the
//! 4-node system (one below the 1/2-degradable bound of 5), with the two
//! indistinguishability checks and the resulting D.3 contradiction.

use crate::Run;
use degradable::lower_bound::{demonstrate_figure2, ALPHA, BETA};
use degradable::Verdict;
use harness::report::Table;
use harness::Report;
use simnet::NodeId;

pub(crate) fn run(_workers: usize) -> Run {
    let demo = demonstrate_figure2();

    let mut rows = Vec::new();
    for run in &demo.runs {
        let decisions: Vec<String> = [1usize, 2, 3]
            .iter()
            .map(|&i| {
                format!(
                    "{}={}",
                    ["A", "B", "C"][i - 1],
                    run.outcome.decisions[&NodeId::new(i)]
                )
            })
            .collect();
        let verdict = match &run.verdict {
            Verdict::Satisfied(s) => format!("satisfies {}", s.condition),
            Verdict::Violated(v) => format!("VIOLATES: {v}"),
            Verdict::BeyondU { f } => format!("beyond u (f={f})"),
        };
        rows.push(vec![
            run.label.to_string(),
            run.description.clone(),
            decisions.join(" "),
            verdict,
        ]);
    }
    let mut report = Report::new("fig2_lower_bound");
    report
        .set_meta("alpha", ALPHA.to_string())
        .set_meta("beta", BETA.to_string())
        .set_metric("b_cannot_distinguish_a_b", demo.b_cannot_distinguish_a_b)
        .set_metric("a_cannot_distinguish_b_c", demo.a_cannot_distinguish_b_c)
        .set_metric("a_decision_in_c", demo.a_decision_in_c.to_string())
        .set_metric("c_violates_d3", demo.c_violates_d3)
        .add_table(Table::with_rows(
            "scenario executions",
            &["scenario", "faults", "decisions", "verdict"],
            rows,
        ))
        .add_table(Table::with_rows(
            "indistinguishability (views compared byte-for-byte)",
            &["claim", "holds"],
            vec![
                vec![
                    "B's view in (a) == B's view in (b)".into(),
                    demo.b_cannot_distinguish_a_b.to_string(),
                ],
                vec![
                    "A's view in (b) == A's view in (c)".into(),
                    demo.a_cannot_distinguish_b_c.to_string(),
                ],
            ],
        ));
    Run::new(
        report,
        &[
            ("b_cannot_distinguish_a_b", demo.b_cannot_distinguish_a_b),
            ("a_cannot_distinguish_b_c", demo.a_cannot_distinguish_b_c),
            ("c_violates_d3", demo.c_violates_d3),
        ],
        None,
    )
}
