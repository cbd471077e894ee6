//! Subcommand implementations; each returns the text to print, or — for
//! the subcommands with a verdict — that text as an error when it failed.

use crate::args::{Command, SearchMethod, USAGE};
use degradable::analysis::{min_nodes_table, tradeoffs, MinNodesCell};
use degradable::{
    check_degradable, explain_receiver, AdversaryRun, ByzInstance, ExhaustiveSearch,
    HillClimbSearch, Params, PathArena, RandomizedSearch, Val, Verdict,
};
use simnet::{vertex_connectivity, NodeId, Topology};
use std::fmt::Write as _;

/// Runs the parsed command and returns its output.
///
/// # Errors
///
/// The output of a run whose verdict failed: a fuzz campaign that found a
/// violation or missed its mutant, a replay that did not reproduce, or an
/// experiment that failed.
pub fn dispatch(cmd: &Command) -> Result<String, String> {
    Ok(match cmd {
        Command::Help => USAGE.to_string(),
        Command::Run {
            nodes,
            m,
            u,
            value,
            faulty,
            explain,
            transport,
        } => run_cmd(*nodes, *m, *u, *value, faulty, *explain, *transport),
        Command::Serve {
            index,
            peers,
            m,
            u,
            value,
            faulty,
            round_timeout_ms,
            trace,
            metrics_out,
            trace_out,
        } => serve_cmd(
            *index,
            peers,
            *m,
            *u,
            *value,
            faulty,
            *round_timeout_ms,
            *trace,
            metrics_out.as_deref(),
            trace_out.as_deref(),
        ),
        Command::Bombard {
            nodes,
            m,
            u,
            instances,
            burst,
            queue,
            workers,
            seed,
            faulty,
            metrics_out,
        } => bombard_cmd(
            *nodes,
            *m,
            *u,
            *instances,
            *burst,
            *queue,
            *workers,
            *seed,
            faulty,
            metrics_out.as_deref(),
        ),
        Command::Batch {
            nodes,
            m,
            u,
            k,
            value,
            faulty,
            seed,
        } => batch_cmd(*nodes, *m, *u, *k, *value, faulty, *seed),
        Command::Search {
            nodes,
            m,
            u,
            below_bound,
            method,
        } => search_cmd(*nodes, *m, *u, *below_bound, *method),
        Command::Table { max_m, max_u } => table_cmd(*max_m, *max_u),
        Command::Tradeoffs { nodes } => tradeoffs_cmd(*nodes),
        Command::Topology { kind, params } => topology_cmd(kind, *params),
        Command::Certify { m, u, budget } => certify_cmd(*m, *u, *budget),
        Command::Flight { arch } => flight_cmd(arch),
        Command::Obs {
            path,
            top,
            critical_path,
        } => obs_cmd(path, *top, *critical_path),
        Command::Fuzz {
            budget,
            seed,
            max_n,
            mutate,
            repro_dir,
            replay,
        } => {
            return fuzz_cmd(
                *budget,
                *seed,
                *max_n,
                *mutate,
                repro_dir,
                replay.as_deref(),
            )
        }
        Command::Exp {
            id,
            workers,
            out,
            trace_out,
        } => {
            let exp = agreement_bench::find(id).expect("the parser accepts known ids only");
            return exp_cmd(
                exp,
                &(exp.run)(*workers),
                out.as_deref(),
                trace_out.as_deref(),
            );
        }
        Command::Check => return check_cmd(),
    })
}

/// Prints a finished run's tables, writes its report (and trace, when
/// asked) and renders its verdict.
fn exp_cmd(
    exp: &agreement_bench::Experiment,
    run: &agreement_bench::Run,
    out: Option<&str>,
    trace_out: Option<&str>,
) -> Result<String, String> {
    let mut text = format!("{} ({})\n", exp.id, exp.name);
    for table in run.report.tables() {
        text.push_str(&table.to_ascii());
    }
    match run.report.write(out.map(std::path::Path::new)) {
        Ok(path) => {
            let _ = writeln!(text, "\nreport: {}", path.display());
        }
        Err(e) => return Err(format!("{text}\nerror: report write failed: {e}")),
    }
    if let Some(path) = trace_out {
        let Some(trace) = run.trace_json() else {
            return Err(format!("{text}error: {} records no trace", exp.id));
        };
        if let Err(e) = std::fs::write(path, trace) {
            return Err(format!("{text}error: trace write failed: {e}"));
        }
        let _ = writeln!(text, "trace: {path}");
    }
    if run.verdict.passed() {
        let _ = write!(text, "verdict: pass");
        Ok(text)
    } else {
        let _ = write!(text, "verdict: FAIL ({})", run.verdict.failed().join(", "));
        Err(text)
    }
}

/// Runs every experiment through [`agreement_bench::check`] against its
/// committed report under `results/`.
fn check_cmd() -> Result<String, String> {
    let mut text = String::new();
    let mut failed = 0usize;
    for exp in &agreement_bench::EXPERIMENTS {
        let golden = std::path::Path::new("results").join(format!("{}.json", exp.name));
        match agreement_bench::check(exp, &golden) {
            Ok(()) => {
                let _ = writeln!(text, "{:<4} {:<20} ok", exp.id, exp.name);
            }
            Err(problems) => {
                failed += 1;
                let _ = writeln!(text, "{:<4} {:<20} FAIL", exp.id, exp.name);
                for line in problems.lines() {
                    let _ = writeln!(text, "     {line}");
                }
            }
        }
    }
    let workers = agreement_bench::CHECK_WORKERS.map(|w| w.to_string());
    let _ = write!(
        text,
        "check: {} of {} experiments reproduce their committed reports at {} workers",
        agreement_bench::EXPERIMENTS.len() - failed,
        agreement_bench::EXPERIMENTS.len(),
        workers.join(" and "),
    );
    if failed == 0 {
        Ok(text)
    } else {
        Err(text)
    }
}

/// Renders a fuzz plan on one line (repro listings and failure reports).
fn fuzz_plan_line(plan: &harness::FuzzPlan) -> String {
    let faults: Vec<String> = plan
        .faults
        .iter()
        .map(|(node, spec)| format!("{node}:{spec}"))
        .collect();
    format!(
        "n={} m={} u={} sender={} value={} faults=[{}] drop_p={} hot_edge={} seed={:#x}",
        plan.n,
        plan.m,
        plan.u,
        plan.sender,
        plan.sender_value,
        faults.join(","),
        plan.drop_p,
        plan.hot_edge_threshold
            .map_or("none".to_string(), |t| t.to_string()),
        plan.seed,
    )
}

fn fuzz_replay_cmd(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("error: cannot read `{path}`: {e}"))?;
    let outcome = harness::replay(&text)
        .map_err(|e| format!("error: `{path}` is not a usable repro: {}", one_line(&e)))?;
    let mut out = String::new();
    let _ = writeln!(out, "replaying {path}");
    let _ = writeln!(out, "plan: {}", fuzz_plan_line(&outcome.plan));
    let _ = writeln!(
        out,
        "mutation: {}",
        outcome.mutation.map_or("none", |m| m.name())
    );
    let _ = writeln!(out, "recorded violation: {}", outcome.recorded);
    if let Some(chain) = &outcome.recorded_trace {
        let _ = writeln!(out, "recorded causal chain: {chain}");
    }
    match &outcome.report.violation {
        Some(v) => {
            let _ = writeln!(out, "first divergent step: {v}");
            if let Some(chain) = &v.trace {
                let _ = writeln!(out, "  causal chain: {chain}");
            }
            let _ = writeln!(out, "REPRODUCED ({} steps driven)", outcome.report.steps);
            Ok(out)
        }
        None => {
            let _ = writeln!(
                out,
                "NO LONGER REPRODUCES — {} steps driven, all conformant (fixed?)",
                outcome.report.steps
            );
            Err(out)
        }
    }
}

fn fuzz_cmd(
    budget: usize,
    seed: u64,
    max_n: usize,
    mutate: Option<harness::Mutation>,
    repro_dir: &str,
    replay: Option<&str>,
) -> Result<String, String> {
    if let Some(path) = replay {
        return fuzz_replay_cmd(path);
    }
    let config = harness::FuzzConfig {
        seed,
        budget,
        max_n,
        mutation: mutate,
        backends: true,
    };
    let outcome = harness::fuzz(&config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fuzz: budget={budget} seed={seed:#x} max_n={max_n} mutation={}",
        mutate.map_or("none", |m| m.name()),
    );
    let _ = writeln!(
        out,
        "executions={} backend_executions={} violations={}",
        outcome.executions,
        outcome.backend_executions,
        outcome.failures.len()
    );
    for failure in &outcome.failures {
        let _ = writeln!(
            out,
            "failure trial={}: {}",
            failure.trial, failure.violation
        );
        if let Some(chain) = &failure.violation.trace {
            let _ = writeln!(out, "  causal chain: {chain}");
        }
        let _ = writeln!(out, "  shrunk plan: {}", fuzz_plan_line(&failure.shrunk));
        let _ = writeln!(out, "  shrink cost: {} executions", failure.shrink_iters);
        match harness::write_repro(std::path::Path::new(repro_dir), failure, seed, mutate) {
            Ok(path) => {
                let _ = writeln!(out, "  repro: {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(out, "  repro: FAILED to write under {repro_dir}: {e}");
            }
        }
    }
    let (verdict, passed) = fuzz_verdict(outcome.clean(), mutate.is_some());
    let _ = writeln!(out, "conformance: {verdict}");
    if passed {
        Ok(out)
    } else {
        Err(out)
    }
}

/// A campaign's verdict line, and whether it passed: a clean campaign
/// must find nothing, a mutated one must catch its mutant.
fn fuzz_verdict(clean: bool, mutated: bool) -> (&'static str, bool) {
    match (clean, mutated) {
        (true, false) => (
            "OK — every execution matched the abstract BYZ(m, u) machine",
            true,
        ),
        (false, true) => (
            "MUTANT CAUGHT — the checker detected the injected bug",
            true,
        ),
        (false, false) => ("VIOLATED — see repro files above", false),
        (true, true) => (
            "MUTANT MISSED — no execution caught the injected bug",
            false,
        ),
    }
}

fn obs_cmd(path: &str, top: usize, critical_path: bool) -> String {
    // Every failure mode is exactly one line: these surface in scripts and
    // CI logs, where a multi-line parser dump buries the actual problem.
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return format!("error: cannot read `{path}`: {e}"),
    };
    if text.trim().is_empty() {
        return format!(
            "error: `{path}` is empty — expected a Chrome trace JSON or JSONL file \
             (was the experiment run with --trace-out?)"
        );
    }
    match obs::parse_trace(&text) {
        Err(e) => format!(
            "error: `{path}` is not a recognized trace (truncated write, or not a trace \
             at all?): {}",
            one_line(&e)
        ),
        Ok(trace) if critical_path => critical_path_report(path, &trace),
        Ok(trace) => summarize_trace(path, &trace, top),
    }
}

/// Reconstructs the longest causal chain ending in a decision from the
/// `trace.*` spans a traced run records (see `transport::NodeTracer`).
///
/// A context's ancestry is its own relay path — every prefix of the path
/// is the context one hop earlier ([`obs::TraceCtx::is_parent_of`] is
/// exactly one-hop path extension) — so the longest chain to a decision
/// is the deepest context delivered to a node that recorded
/// `trace.decide`. Ties break toward the lexicographically smallest
/// path, keeping the output byte-identical across worker counts.
fn critical_path_report(path: &str, trace: &obs::ParsedTrace) -> String {
    use std::collections::BTreeSet;
    let arg = |span: &obs::SpanRecord, name: &str| -> Option<u64> {
        span.args.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    };
    let mut deciders: BTreeSet<u64> = BTreeSet::new();
    let mut seen: BTreeSet<(u64, Vec<u64>)> = BTreeSet::new();
    let mut delivered: Vec<(obs::TraceCtx, u64)> = Vec::new();
    for span in &trace.spans {
        match span.name.as_ref() {
            "trace.decide" => {
                if let Some(node) = arg(span, "node") {
                    deciders.insert(node);
                }
            }
            "trace.send" | "trace.deliver" => {
                if let Some(ctx) = obs::TraceCtx::from_span_args(&span.args) {
                    seen.insert((ctx.instance, ctx.path.clone()));
                    if span.name == "trace.deliver" {
                        if let Some(node) = arg(span, "node") {
                            delivered.push((ctx, node));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if seen.is_empty() {
        return format!(
            "error: `{path}` carries no trace contexts — was the run traced \
             (--trace / RunOptions::traced)?"
        );
    }
    let deeper =
        |a: &(u64, &[u64]), b: &(u64, &[u64])| a.1.len().cmp(&b.1.len()).then_with(|| b.1.cmp(a.1));
    // Deepest delivery into a decider wins; a trace with no decision
    // (e.g. the designated sender's own file) falls back to the deepest
    // context observed anywhere, clearly labelled.
    let tip: Option<obs::TraceCtx> = delivered
        .iter()
        .filter(|(_, node)| deciders.contains(node))
        .map(|(ctx, _)| ctx)
        .max_by(|a, b| deeper(&(a.instance, &a.path), &(b.instance, &b.path)))
        .cloned();
    let (tip, decided) = match tip {
        Some(t) => (t, true),
        None => {
            let (inst, p) = seen
                .iter()
                .map(|(inst, p)| (*inst, p.as_slice()))
                .max_by(|a, b| deeper(a, b))
                .expect("seen is non-empty");
            (obs::TraceCtx::new(inst, p.to_vec()), false)
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: critical path — {} hop(s){}",
        tip.path.len(),
        if decided {
            " to a decision"
        } else {
            " (no decision observed; deepest chain shown)"
        },
    );
    for k in 1..=tip.path.len() {
        let prefix = obs::TraceCtx::new(tip.instance, tip.path[..k].to_vec());
        let note = if seen.contains(&(prefix.instance, prefix.path.clone())) {
            ""
        } else {
            "  (unobserved — inferred from the tip's path)"
        };
        let _ = writeln!(out, "  hop {k}: {prefix}{note}");
    }
    if decided {
        let who: BTreeSet<u64> = delivered
            .iter()
            .filter(|(ctx, node)| *ctx == tip && deciders.contains(node))
            .map(|(_, node)| *node)
            .collect();
        let who: Vec<String> = who.into_iter().map(|n| format!("n{n}")).collect();
        let _ = writeln!(out, "  decided at {}", who.join(", "));
    }
    out
}

/// Collapses a (possibly multi-line) parser message onto one line.
fn one_line(msg: &str) -> String {
    msg.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Renders the `cli obs` summary: spans grouped by name (largest total
/// logical cost first), then the embedded registry sections. Split from
/// [`obs_cmd`] so tests can feed a parsed trace directly.
fn summarize_trace(path: &str, trace: &obs::ParsedTrace, top: usize) -> String {
    use harness::Table;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} spans, {} counters, {} gauges, {} histograms",
        trace.spans.len(),
        trace.registry.counters().count(),
        trace.registry.gauges().count(),
        trace.registry.histograms().count(),
    );

    // Group spans by name, preserving first-appearance order before
    // sorting, so ties break deterministically.
    let mut groups: Vec<(&str, u64, u64)> = Vec::new(); // name, count, logical
    for span in &trace.spans {
        match groups.iter_mut().find(|(n, ..)| *n == span.name) {
            Some((_, count, logical)) => {
                *count += 1;
                *logical += span.logical;
            }
            None => groups.push((&span.name, 1, span.logical)),
        }
    }
    groups.sort_by_key(|g| std::cmp::Reverse(g.2));
    let shown = groups.len().min(top);
    let mut spans_table = Table::new(
        format!(
            "top {shown} of {} span groups by logical cost",
            groups.len()
        ),
        &["span", "count", "logical"],
    );
    for (name, count, logical) in groups.iter().take(top) {
        spans_table.push_row(vec![
            name.to_string(),
            count.to_string(),
            logical.to_string(),
        ]);
    }
    out.push_str(&spans_table.to_ascii());

    let registry = &trace.registry;
    if registry.counters().next().is_some() || registry.gauges().next().is_some() {
        let mut table = Table::new("registry: counters and gauges", &["name", "kind", "value"]);
        for (name, value) in registry.counters() {
            table.push_row(vec![name.to_string(), "counter".into(), value.to_string()]);
        }
        for (name, value) in registry.gauges() {
            table.push_row(vec![name.to_string(), "gauge".into(), value.to_string()]);
        }
        out.push_str(&table.to_ascii());
    }
    if registry.histograms().next().is_some() {
        let mut table = Table::new(
            "registry: histograms",
            &[
                "name",
                "count",
                "sum",
                "min",
                "mean",
                "max",
                "buckets (<=bound: n, last = overflow)",
            ],
        );
        for (name, h) in registry.histograms() {
            let mut cells: Vec<String> = h
                .bounds()
                .iter()
                .zip(h.buckets())
                .map(|(b, n)| format!("<={b}: {n}"))
                .collect();
            cells.push(format!(">: {}", h.buckets().last().copied().unwrap_or(0)));
            let (min, mean, max) = match (h.min(), h.max()) {
                (Some(min), Some(max)) => (
                    min.to_string(),
                    format!("{:.1}", h.sum() as f64 / h.count() as f64),
                    max.to_string(),
                ),
                _ => ("-".into(), "-".into(), "-".into()),
            };
            table.push_row(vec![
                name.to_string(),
                h.count().to_string(),
                h.sum().to_string(),
                min,
                mean,
                max,
                cells.join("  "),
            ]);
        }
        out.push_str(&table.to_ascii());
    }
    out
}

fn certify_cmd(m: usize, u: usize, budget: u128) -> String {
    let params = match Params::new(m, u) {
        Ok(p) => p,
        Err(e) => return format!("error: {e}"),
    };
    let n = params.min_nodes();
    match degradable::certify(params, n, budget) {
        Err(e) => format!("error: {e}"),
        Ok(report) => {
            if report.certified() {
                format!(
                    "CERTIFIED: {params} at N = {n}\n\
                     every sender x every fault set (f <= {u}) x every adversary over {{V_d,1,2}}\n\
                     {} configurations, {} adversary tables — no violation (Theorem 1, machine-checked)",
                    report.configurations, report.adversaries
                )
            } else {
                format!(
                    "VIOLATION at {params}, N = {n}: {:?}",
                    report.violation.map(|w| w.violation)
                )
            }
        }
    }
}

fn flight_cmd(arch: &str) -> String {
    use channels::prelude::*;
    let arch = match arch {
        "byzantine" => Architecture::Byzantine { m: 1 },
        "crusader" => Architecture::Crusader { t: 1 },
        "degradable" => Architecture::Degradable {
            params: Params::new(1, 2).expect("1 <= 2"),
        },
        other => return format!("error: unknown architecture `{other}`"),
    };
    let report = fly(arch, FlightConfig::default());
    let mut out = String::new();
    let _ = writeln!(out, "flight on {}:", report.architecture);
    let _ = writeln!(out, "  correct actuations : {}", report.correct_cycles);
    let _ = writeln!(out, "  pilot alerts (hold): {}", report.pilot_alerts);
    let _ = writeln!(out, "  wrong actuations   : {}", report.wrong_actuations);
    let _ = writeln!(
        out,
        "  outcome            : {}",
        if report.crashed {
            "LEFT SAFE ENVELOPE"
        } else {
            "completed safely"
        }
    );
    out
}

fn make_instance(
    nodes: usize,
    m: usize,
    u: usize,
    allow_below: bool,
) -> Result<ByzInstance, String> {
    let params = Params::new(m, u).map_err(|e| e.to_string())?;
    let result = if allow_below {
        ByzInstance::new_below_bound(nodes, params, NodeId::new(0))
    } else {
        ByzInstance::new(nodes, params, NodeId::new(0))
    };
    result.map_err(|e| e.to_string())
}

fn run_cmd(
    nodes: usize,
    m: usize,
    u: usize,
    value: u64,
    faulty: &std::collections::BTreeMap<NodeId, degradable::Strategy<u64>>,
    explain: Option<NodeId>,
    kind: transport::TransportKind,
) -> String {
    let instance = match make_instance(nodes, m, u, false) {
        Ok(i) => i,
        Err(e) => return format!("error: {e}"),
    };
    let scenario = harness::Scenario::new(nodes, m, u)
        .with_sender_value(Val::Value(value))
        .with_strategies(faulty.clone())
        .with_transport(kind);
    let (record, run) = match harness::TransportExecutor.execute_detailed(&scenario) {
        Ok(x) => x,
        Err(e) => return format!("error: {e}"),
    };
    let mut out = String::new();
    let _ = writeln!(out, "{instance}");
    let _ = writeln!(
        out,
        "sender value: {value}; f = {}; transport: {kind} \
         ({} envelopes sent, {} delivered)",
        record.f(),
        run.stats.sent,
        run.stats.delivered
    );
    // A mesh node whose driver panicked or lost every peer; the simulator
    // has none.
    for (node, failure) in &run.failures {
        let _ = writeln!(out, "  node {node} failed: {failure}");
    }
    for (r, v) in record.fault_free_decisions() {
        let _ = writeln!(out, "  fault-free {r} decided {v}");
    }
    match check_degradable(&record) {
        Verdict::Satisfied(s) => {
            let _ = writeln!(
                out,
                "verdict: condition {} satisfied ({} fault-free nodes agree on one value)",
                s.condition, s.largest_agreeing
            );
        }
        Verdict::Violated(v) => {
            let _ = writeln!(out, "verdict: VIOLATED — {v}");
        }
        Verdict::BeyondU { f } => {
            let _ = writeln!(out, "verdict: f = {f} > u — no promise applies");
        }
    }
    if let Some(r) = explain {
        // Narration walks the reference behaviour function; decisions are
        // identical to the transport run's (the differential suite's
        // invariant), so the story matches what the backend did.
        let reference = AdversaryRun {
            instance,
            sender_value: Val::Value(value),
            strategies: faulty.clone(),
        };
        let _ = writeln!(out, "\n{}", explain_receiver(&reference, r));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn serve_cmd(
    index: usize,
    peers: &[String],
    m: usize,
    u: usize,
    value: u64,
    faulty: &std::collections::BTreeMap<NodeId, degradable::Strategy<u64>>,
    round_timeout_ms: u64,
    trace: bool,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
) -> String {
    use std::net::ToSocketAddrs;
    let mut addrs = Vec::with_capacity(peers.len());
    for peer in peers {
        match peer.to_socket_addrs() {
            Ok(mut resolved) => match resolved.next() {
                Some(a) => addrs.push(a),
                None => return format!("error: peer `{peer}` resolved to no address"),
            },
            Err(e) => return format!("error: cannot resolve peer `{peer}`: {e}"),
        }
    }
    let instance = match make_instance(addrs.len(), m, u, false) {
        Ok(i) => i,
        Err(e) => return format!("error: {e}"),
    };
    let me = NodeId::new(index);
    let config = transport::MeshConfig {
        round_timeout: std::time::Duration::from_millis(round_timeout_ms),
        dial_timeout: std::time::Duration::from_secs(30),
        ..transport::MeshConfig::default()
    };
    let endpoint = match transport::tcp_join(
        me,
        &addrs,
        instance.depth(),
        transport::LinkChaos::healthy(),
        config,
    ) {
        Ok(t) => t,
        Err(e) => return format!("error: node {index} failed to join the mesh: {e}"),
    };
    let machine = degradable::NodeStateMachine::new(
        &instance,
        me,
        Val::Value(value),
        faulty.get(&me).cloned(),
    );
    let drive = transport::MeshDriveOptions {
        record_events: false,
        trace,
        instance: 0,
        metrics_out: metrics_out.map(std::path::PathBuf::from),
    };
    let outcome = transport::drive_mesh(endpoint, machine, &drive);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{instance}: node {me} served over tcp ({} peers)",
        addrs.len() - 1
    );
    match outcome.decision {
        Some(d) => {
            let _ = writeln!(out, "decided {d}");
        }
        None if me == instance.sender() => {
            let _ = writeln!(out, "sent {} as the designated sender", Val::Value(value));
        }
        None => {
            let _ = writeln!(out, "no decision recorded");
        }
    }
    let _ = writeln!(
        out,
        "traffic: {} envelopes sent, {} delivered, {} round timeouts expired",
        outcome.stats.sent, outcome.stats.delivered, outcome.stats.false_timeouts
    );
    if trace {
        let reg = outcome.obs.registry();
        let _ = writeln!(
            out,
            "trace: {} sends stamped, {} delivers ({} untraced), {} decides, {} spans dropped",
            reg.counter("trace.sends"),
            reg.counter("trace.delivers"),
            reg.counter("trace.delivers_untraced"),
            reg.counter("trace.decides"),
            outcome.obs.dropped_spans(),
        );
    }
    if let Some(path) = metrics_out {
        let _ = writeln!(out, "metrics snapshots appended to {path}");
    }
    if let Some(path) = trace_out {
        match std::fs::write(path, obs::jsonl(&outcome.obs)) {
            Ok(()) => {
                let _ = writeln!(out, "trace spans written to {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: cannot write trace to {path}: {e}");
            }
        }
    }
    if let Some(failure) = &outcome.failure {
        let _ = writeln!(out, "error: {failure}");
    }
    out
}

fn batch_cmd(
    nodes: usize,
    m: usize,
    u: usize,
    k: usize,
    value: u64,
    faulty: &std::collections::BTreeMap<NodeId, degradable::Strategy<u64>>,
    seed: u64,
) -> String {
    let params = match Params::new(m, u) {
        Ok(p) => p,
        Err(e) => return format!("error: {e}"),
    };
    let sender = NodeId::new(0);
    let instances: Vec<degradable::BatchInstance<u64>> = (0..k)
        .map(|slot| degradable::BatchInstance {
            sender,
            value: Val::Value(value + slot as u64),
        })
        .collect();
    let options = degradable::BatchOptions::new();
    let batch = match degradable::run_batch(params, nodes, &instances, faulty, seed, options) {
        Ok(batch) => batch,
        Err(e) => return format!("error: {e}"),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {k} slot(s) from {sender} on BYZ({m},{u}) with n = {nodes}, f = {}",
        faulty.len()
    );
    for (slot, decisions) in batch.decisions.iter().enumerate() {
        let fault_free: Vec<_> = decisions
            .iter()
            .filter(|(r, _)| !faulty.contains_key(r))
            .collect();
        let distinct: std::collections::BTreeSet<_> = fault_free.iter().map(|(_, v)| **v).collect();
        if distinct.len() == 1 {
            let _ = writeln!(
                out,
                "  slot {slot} (sent {}): all {} fault-free receivers decided {}",
                instances[slot].value,
                fault_free.len(),
                fault_free[0].1
            );
        } else {
            let _ = writeln!(
                out,
                "  slot {slot} (sent {}): SPLIT —",
                instances[slot].value
            );
            for (r, v) in fault_free {
                let _ = writeln!(out, "    {r} decided {v}");
            }
        }
    }
    let eig = batch.net.eig;
    let _ = writeln!(
        out,
        "transport: {} messages over {} rounds (one multiplexed engine run)",
        batch.net.sent, batch.net.rounds_run
    );
    let _ = writeln!(
        out,
        "arena: {} built, {} reused; {} votes evaluated, {} memo hits, \
         {} observations materialized; {} cross-instance spoofs rejected",
        batch.arena_builds,
        k - batch.arena_builds,
        eig.votes_evaluated,
        eig.votes_memo_hit,
        eig.messages_materialized,
        batch.spoofs_rejected
    );
    out
}

/// The `bombard` driver: offers `instances` seeded
/// agreement instances to a persistent [`degradable::ServiceState`] in
/// waves of `wave`, draining after each wave. Senders round-robin over
/// the cluster, values cycle a small domain so store memoization has
/// something to reuse, and every 4th drain is re-decided through the
/// one-shot [`degradable::run_batch`] oracle as a live equivalence
/// sample. The report (and any `--metrics-out` JSONL) is deterministic
/// and worker-count-independent.
#[allow(clippy::too_many_arguments)]
fn bombard_cmd(
    nodes: usize,
    m: usize,
    u: usize,
    instances: usize,
    wave: usize,
    queue: usize,
    workers: usize,
    seed: u64,
    faulty: &std::collections::BTreeMap<NodeId, degradable::Strategy<u64>>,
    metrics_out: Option<&str>,
) -> String {
    let params = match Params::new(m, u) {
        Ok(p) => p,
        Err(e) => return format!("error: {e}"),
    };
    let config = degradable::ServiceConfig {
        queue_capacity: queue,
        workers,
    };
    let mut svc: degradable::ServiceState<u64> =
        match degradable::ServiceState::new(params, nodes, config) {
            Ok(s) => s,
            Err(e) => return format!("error: {e}"),
        };
    let mut obs = obs::Obs::enabled();

    // Mirror of the accepted-but-undrained queue, in ingestion order, so
    // equivalence samples can replay the exact drained batch through the
    // one-shot oracle.
    let mut mirror: Vec<degradable::BatchInstance<u64>> = Vec::new();
    let (mut offered, mut accepted, mut shed) = (0usize, 0usize, 0usize);
    let mut next_id = 0u64;
    let mut drains = 0u64;
    let (mut samples, mut mismatches) = (0usize, 0usize);
    let mut errors: Vec<String> = Vec::new();

    while offered < instances {
        let this_wave = wave.min(instances - offered);
        for _ in 0..this_wave {
            let inst = degradable::BatchInstance {
                sender: NodeId::new((next_id as usize) % nodes),
                value: Val::Value(next_id % 5),
            };
            match svc.ingest(next_id, inst.clone()) {
                Ok(()) => {
                    accepted += 1;
                    mirror.push(inst);
                }
                Err(degradable::ServiceError::QueueFull { .. }) => shed += 1,
                Err(e) => errors.push(format!("ingest {next_id}: {e}")),
            }
            next_id += 1;
            offered += 1;
        }
        let drain_seed = seed.wrapping_add(drains);
        let batch = svc.drain_observed(faulty, drain_seed, &mut obs);
        let drained = std::mem::take(&mut mirror);
        debug_assert_eq!(batch.ids.len(), drained.len());
        if drains.is_multiple_of(4) && !drained.is_empty() {
            samples += 1;
            let opts = degradable::BatchOptions::new();
            let oracle = degradable::run_batch(params, nodes, &drained, faulty, drain_seed, opts)
                .expect("the service validated this shape");
            if oracle.decisions != batch.run.decisions {
                mismatches += 1;
            }
        }
        drains += 1;
    }

    let stats = svc.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bombard: BYZ({m},{u}) with n = {nodes}, f = {} — offered {instances} instance(s) \
         in wave(s) of {wave} (queue {queue}, workers {workers})",
        faulty.len()
    );
    let _ = writeln!(
        out,
        "load: {offered} offered, {accepted} accepted, {shed} shed ({} queued at exit)",
        svc.pending_len()
    );
    let _ = writeln!(
        out,
        "decided: {} instance(s) over {} drain(s); equivalence samples {samples}, \
         mismatches {mismatches}",
        stats.decided, stats.batches
    );
    let arena_requests = stats.arena_builds + stats.arena_reuses;
    let store_requests = stats.store_builds + stats.store_reuses;
    let _ =
        writeln!(
        out,
        "pool: arenas {} built / {} reused ({}% reuse), stores {} built / {} reused ({}% reuse)",
        stats.arena_builds,
        stats.arena_reuses,
        (stats.arena_reuses * 100).checked_div(arena_requests).unwrap_or(0),
        stats.store_builds,
        stats.store_reuses,
        (stats.store_reuses * 100).checked_div(store_requests).unwrap_or(0),
    );
    for name in ["svc.instance.logical", "svc.instance.messages"] {
        if let Some(h) = obs.registry().histogram(name) {
            let _ = writeln!(
                out,
                "{name}: min {}, max {}",
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }
    for e in &errors {
        let _ = writeln!(out, "error: {e}");
    }
    if let Some(path) = metrics_out {
        match std::fs::write(path, obs::jsonl(&obs)) {
            Ok(()) => {
                let _ = writeln!(out, "metrics: wrote registry JSONL to {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: cannot write metrics to {path}: {e}");
            }
        }
    }
    out
}

fn search_cmd(nodes: usize, m: usize, u: usize, below_bound: bool, method: SearchMethod) -> String {
    let instance = match make_instance(nodes, m, u, below_bound) {
        Ok(i) => i,
        Err(e) => return format!("error: {e}"),
    };
    // Every search runs through the arena engine, whose shape limits
    // (`n <= 64`, `u32` label ids) `ByzInstance` does not impose.
    if let Err(e) = PathArena::check_shape(nodes, instance.sender(), instance.depth()) {
        return format!("error: {e}");
    }
    let faulty: std::collections::BTreeSet<NodeId> =
        (nodes.saturating_sub(u)..nodes).map(NodeId::new).collect();
    let domain = vec![Val::Default, Val::Value(1), Val::Value(2)];
    let witness = match method {
        SearchMethod::Exhaustive => {
            let search = ExhaustiveSearch::new(instance, Val::Value(1), faulty, domain);
            match search.find_violation() {
                Ok(w) => w,
                Err(e) => return format!("error: {e}"),
            }
        }
        SearchMethod::Random => {
            RandomizedSearch::new(instance, Val::Value(1), domain)
                .with_trials(3_000)
                .find_violation(u)
                .0
        }
        SearchMethod::HillClimb => {
            HillClimbSearch::new(instance, Val::Value(1), faulty, domain).find_violation()
        }
    };
    match witness {
        None => format!(
            "no violating adversary found for {instance} ({method:?})\n\
             (at N >= 2m+u+1 = {} this is Theorem 1 at work)",
            2 * m + u + 1
        ),
        Some(w) => {
            let mut out = String::new();
            let _ = writeln!(out, "VIOLATION found for {instance}: {}", w.violation);
            let _ = writeln!(out, "fault-free decisions:");
            for (r, v) in w.record.fault_free_decisions() {
                let _ = writeln!(out, "  {r} decided {v}");
            }
            let _ = writeln!(
                out,
                "adversary claim table ({} entries):",
                w.assignment.len()
            );
            for ((path, receiver), value) in w.assignment.iter().take(12) {
                let _ = writeln!(out, "  {path} -> {receiver}: {value}");
            }
            if w.assignment.len() > 12 {
                let _ = writeln!(out, "  … {} more", w.assignment.len() - 12);
            }
            out
        }
    }
}

fn table_cmd(max_m: usize, max_u: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "minimum nodes for m/u-degradable agreement (2m+u+1):");
    let _ = write!(out, "m\\u ");
    for u in 1..=max_u {
        let _ = write!(out, "{u:>4}");
    }
    let _ = writeln!(out);
    for (mi, row) in min_nodes_table(max_m, max_u).iter().enumerate() {
        let _ = write!(out, "{:>3} ", mi + 1);
        for cell in row {
            match cell {
                MinNodesCell::Invalid => {
                    let _ = write!(out, "{:>4}", "-");
                }
                MinNodesCell::Nodes(n) => {
                    let _ = write!(out, "{n:>4}");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

fn tradeoffs_cmd(nodes: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "maximal (m, u) configurations for {nodes} nodes:");
    let list = tradeoffs(nodes);
    if list.is_empty() {
        let _ = writeln!(out, "  none (need at least 2 nodes)");
    }
    for p in list {
        let _ = writeln!(
            out,
            "  {p}: Byzantine agreement up to {} faults, degraded up to {} (connectivity >= {})",
            p.m(),
            p.u(),
            p.min_connectivity()
        );
    }
    out
}

/// Parses a topology specification like `harary:4:8`.
pub fn parse_topology(kind: &str) -> Result<Topology, String> {
    let parts: Vec<&str> = kind.split(':').collect();
    let num = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("`{kind}` is missing a parameter"))?
            .parse()
            .map_err(|_| format!("bad number in `{kind}`"))
    };
    match parts[0] {
        "complete" => Ok(Topology::complete(num(1)?)),
        "ring" => Ok(Topology::ring(num(1)?)),
        "harary" => Ok(Topology::harary(num(1)?, num(2)?)),
        "hypercube" => Ok(Topology::hypercube(num(1)?)),
        "wheel" => Ok(Topology::wheel(num(1)?)),
        "sender-cut" => Ok(degradable::sender_cut_topology(num(2)?, num(1)?)),
        other => Err(format!("unknown topology kind `{other}`")),
    }
}

fn topology_cmd(kind: &str, params: Option<(usize, usize)>) -> String {
    let topo = match parse_topology(kind) {
        Ok(t) => t,
        Err(e) => return format!("error: {e}"),
    };
    let kappa = vertex_connectivity(topo.graph());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} nodes, {} edges, vertex connectivity {}",
        topo.name(),
        topo.node_count(),
        topo.graph().edge_count(),
        kappa
    );
    if let Some(cut) = simnet::minimum_vertex_cut(topo.graph()) {
        let names: Vec<String> = cut.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(out, "a minimum vertex cut: {{{}}}", names.join(", "));
    } else {
        let _ = writeln!(out, "no vertex cut (complete graph)");
    }
    if let Some((m, u)) = params {
        match Params::new(m, u) {
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
            Ok(p) => {
                let need = p.min_connectivity();
                let _ = writeln!(
                    out,
                    "{p} needs connectivity >= {need}: {}",
                    if kappa >= need {
                        "SUFFICIENT (Theorem 3)"
                    } else {
                        "INSUFFICIENT — a cut adversary defeats agreement here"
                    }
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_faulty;

    use transport::TransportKind;

    #[test]
    fn run_clean_scenario() {
        let out = run_cmd(5, 1, 2, 42, &Default::default(), None, TransportKind::Sim);
        assert!(out.contains("condition D.1 satisfied"), "{out}");
        assert!(out.contains("transport: sim"), "{out}");
    }

    #[test]
    fn run_agrees_across_backends() {
        let faulty = parse_faulty("3:constant-lie:7").unwrap();
        let sim = run_cmd(4, 1, 1, 42, &faulty, None, TransportKind::Sim);
        for kind in [TransportKind::Channel, TransportKind::Tcp] {
            let out = run_cmd(4, 1, 1, 42, &faulty, None, kind);
            assert!(out.contains("condition D.1 satisfied"), "{kind}: {out}");
            // Identical modulo the transport banner line.
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.contains("transport:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&out), strip(&sim), "{kind}");
        }
    }

    #[test]
    fn batch_stream_reports_decisions_and_arena_reuse() {
        let faulty = parse_faulty("3:constant-lie:7").unwrap();
        let out = batch_cmd(5, 1, 2, 4, 42, &faulty, 1);
        assert!(out.contains("slot 3 (sent 45)"), "{out}");
        assert!(out.contains("decided 45"), "{out}");
        assert!(out.contains("arena: 1 built, 3 reused"), "{out}");
        assert!(out.contains("0 cross-instance spoofs rejected"), "{out}");
    }

    #[test]
    fn service_mode_report_is_worker_count_independent() {
        let faulty = parse_faulty("3:constant-lie:7").unwrap();
        let base = bombard_cmd(5, 1, 2, 48, 16, 100, 1, 7, &faulty, None);
        assert!(base.contains("48 offered, 48 accepted, 0 shed"), "{base}");
        assert!(base.contains("mismatches 0"), "{base}");
        // 5 distinct senders -> 5 arena builds; everything else reuses.
        assert!(base.contains("arenas 5 built"), "{base}");
        // Every instance settles one vote per receiver of the root: 4.
        assert!(
            base.contains("svc.instance.logical: min 4, max 4"),
            "{base}"
        );
        assert!(!base.contains("timing:"), "{base}");
        // Identical modulo the banner line, which echoes the worker count.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("workers"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for workers in [2, 8] {
            let other = bombard_cmd(5, 1, 2, 48, 16, 100, workers, 7, &faulty, None);
            assert_eq!(strip(&base), strip(&other), "workers={workers}");
        }
    }

    #[test]
    fn bombard_sheds_without_losing_equivalence() {
        // Burst 24 against queue 16: every full wave sheds 8.
        let out = bombard_cmd(5, 1, 2, 72, 24, 16, 2, 3, &Default::default(), None);
        assert!(out.contains("72 offered, 48 accepted, 24 shed"), "{out}");
        assert!(out.contains("mismatches 0"), "{out}");
        assert!(out.contains("(0 queued at exit)"), "{out}");
    }

    #[test]
    fn service_metrics_out_is_identical_across_workers() {
        let dir = std::env::temp_dir();
        let read = |workers: usize| {
            let path = dir.join(format!("dagree_svc_metrics_{workers}.jsonl"));
            let path = path.to_str().unwrap().to_string();
            let out = bombard_cmd(
                5,
                1,
                2,
                32,
                8,
                100,
                workers,
                5,
                &Default::default(),
                Some(&path),
            );
            assert!(out.contains("metrics: wrote registry JSONL"), "{out}");
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            text
        };
        let one = read(1);
        assert!(one.contains("svc.pool.arena_reuses"), "{one}");
        assert_eq!(one, read(8));
    }

    #[test]
    fn service_mode_rejects_bad_shapes() {
        let out = bombard_cmd(4, 1, 2, 8, 4, 16, 1, 1, &Default::default(), None);
        assert!(out.contains("error"), "{out}");
        let out = bombard_cmd(70, 1, 2, 8, 4, 16, 1, 1, &Default::default(), None);
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("64"), "{out}");
    }

    #[test]
    fn batch_rejects_bad_shapes() {
        let out = batch_cmd(4, 1, 2, 2, 42, &Default::default(), 1);
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("at least 5 nodes"), "{out}");
        // Beyond the 64-node engine ceiling: a typed error line, as
        // `bombard` prints, not an arena panic.
        let out = batch_cmd(70, 1, 1, 2, 42, &Default::default(), 1);
        assert!(out.starts_with("error: "), "{out}");
        assert!(out.contains("64"), "{out}");
    }

    #[test]
    fn run_degraded_scenario() {
        let faulty = parse_faulty("3:constant-lie:7,4:constant-lie:7").unwrap();
        let out = run_cmd(5, 1, 2, 42, &faulty, None, TransportKind::Sim);
        assert!(out.contains("condition D.3 satisfied"), "{out}");
    }

    #[test]
    fn run_with_explanation() {
        let faulty = parse_faulty("4:silent").unwrap();
        let out = run_cmd(
            5,
            1,
            2,
            42,
            &faulty,
            Some(NodeId::new(1)),
            TransportKind::Sim,
        );
        assert!(out.contains("view of receiver n1"), "{out}");
    }

    #[test]
    fn run_rejects_too_few_nodes() {
        let out = run_cmd(4, 1, 2, 42, &Default::default(), None, TransportKind::Sim);
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn serve_rejects_unresolvable_peers_and_bad_shapes() {
        let peers: Vec<String> = vec!["not a host".into(), "127.0.0.1:1".into()];
        let out = serve_cmd(
            0,
            &peers,
            1,
            1,
            42,
            &Default::default(),
            100,
            false,
            None,
            None,
        );
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("not a host"), "{out}");
        // Two peers cannot satisfy n >= 2m + u + 1 = 4.
        let peers: Vec<String> = vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()];
        let out = serve_cmd(
            0,
            &peers,
            1,
            1,
            42,
            &Default::default(),
            100,
            false,
            None,
            None,
        );
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn serve_runs_a_full_mesh_across_threads() {
        // Reserve four loopback ports, release them, and have four `serve`
        // invocations (one per thread, exactly the multi-process shape)
        // re-bind and join each other.
        let addrs: Vec<String> = (0..4)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            })
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let peers = addrs.clone();
                std::thread::spawn(move || {
                    serve_cmd(
                        i,
                        &peers,
                        1,
                        1,
                        9,
                        &Default::default(),
                        5_000,
                        false,
                        None,
                        None,
                    )
                })
            })
            .collect();
        let outputs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            outputs[0].contains("sent 9 as the designated sender"),
            "{}",
            outputs[0]
        );
        for out in &outputs[1..] {
            assert!(out.contains("decided 9"), "{out}");
        }
    }

    /// The full `dagree serve` observability loop: four traced nodes,
    /// each appending metrics JSONL and writing a span trace, and the
    /// decider traces feeding `dagree obs --critical-path`.
    #[test]
    fn serve_traced_mesh_emits_metrics_and_critical_path() {
        let dir = std::env::temp_dir().join(format!("dagree-serve-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addrs: Vec<String> = (0..4)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            })
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let peers = addrs.clone();
                let metrics = dir.join(format!("metrics-{i}.jsonl"));
                let spans = dir.join(format!("trace-{i}.jsonl"));
                std::thread::spawn(move || {
                    serve_cmd(
                        i,
                        &peers,
                        1,
                        1,
                        9,
                        &Default::default(),
                        5_000,
                        true,
                        Some(metrics.to_str().unwrap()),
                        Some(spans.to_str().unwrap()),
                    )
                })
            })
            .collect();
        let outputs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, out) in outputs.iter().enumerate() {
            assert!(out.contains("trace: "), "node {i}: {out}");
            assert!(out.contains("sends stamped"), "node {i}: {out}");
            assert!(
                out.contains("metrics snapshots appended"),
                "node {i}: {out}"
            );
            assert!(out.contains("trace spans written"), "node {i}: {out}");
        }
        // Every metrics line is well-formed JSON carrying node, round,
        // and a registry object — the contract CI's obs-smoke greps for.
        for i in 0..4 {
            let text = std::fs::read_to_string(dir.join(format!("metrics-{i}.jsonl"))).unwrap();
            assert!(!text.trim().is_empty(), "node {i} wrote no metrics");
            for line in text.lines() {
                let v = obs::JsonValue::parse(line).unwrap();
                assert_eq!(v.get("node").and_then(|n| n.as_u64()), Some(i as u64));
                assert!(v.get("round").is_some(), "{line}");
                assert!(v.get("registry").is_some(), "{line}");
            }
        }
        // A receiver's trace reconstructs a causal chain ending at its
        // own decision; the summary view still works on the same file.
        let trace_path = dir.join("trace-1.jsonl");
        let chain = obs_cmd(trace_path.to_str().unwrap(), 10, true);
        assert!(chain.contains("critical path"), "{chain}");
        assert!(chain.contains("to a decision"), "{chain}");
        assert!(chain.contains("decided at n1"), "{chain}");
        assert!(chain.contains("hop 1: inst 0 path 0 hop 1"), "{chain}");
        let summary = obs_cmd(trace_path.to_str().unwrap(), 10, false);
        assert!(summary.contains("trace.deliver"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Critical-path reconstruction on a hand-built trace: the deepest
    /// context delivered to a decider wins, hop by hop, and prefixes
    /// never observed on the wire are labelled as inferred.
    #[test]
    fn critical_path_walks_deepest_chain_to_the_decider() {
        let mut o = obs::Obs::enabled();
        let mut span = |name: &'static str, mut args: Vec<(obs::Label, u64)>, node, clock| {
            args.push(("node".into(), node));
            o.record_span(obs::SpanRecord {
                name: name.into(),
                args,
                logical: clock,
            });
        };
        let root = obs::TraceCtx::new(0, vec![0]);
        let relay = obs::TraceCtx::new(0, vec![0, 1]);
        let deep = obs::TraceCtx::new(0, vec![0, 1, 3]);
        span("trace.send", root.span_args(), 0, 1);
        span("trace.deliver", root.span_args(), 2, 1);
        span("trace.deliver", relay.span_args(), 2, 2);
        // The three-hop relay is delivered but its middle hop was never
        // seen as a send (e.g. the relaying node ran untraced).
        span("trace.deliver", deep.span_args(), 2, 3);
        span("trace.decide", vec![("instance".into(), 0)], 2, 4);
        let trace = obs::parse_trace(&obs::jsonl(&o)).unwrap();
        let out = critical_path_report("t", &trace);
        assert!(
            out.contains("critical path — 3 hop(s) to a decision"),
            "{out}"
        );
        assert!(out.contains("hop 1: inst 0 path 0 hop 1"), "{out}");
        assert!(out.contains("hop 2: inst 0 path 0->1 hop 2"), "{out}");
        assert!(out.contains("hop 3: inst 0 path 0->1->3 hop 3"), "{out}");
        assert!(
            !out.contains("hop 2: inst 0 path 0->1 hop 2  (unobserved"),
            "{out}"
        );
        assert!(out.contains("decided at n2"), "{out}");
    }

    /// A trace with sends but no decision still reports its deepest
    /// chain, clearly labelled; a trace with no contexts errors.
    #[test]
    fn critical_path_handles_senders_and_untraced_files() {
        let mut o = obs::Obs::enabled();
        let ctx = obs::TraceCtx::new(0, vec![0]);
        let mut args = ctx.span_args();
        args.push(("node".into(), 0));
        o.record_span(obs::SpanRecord {
            name: "trace.send".into(),
            args,
            logical: 1,
        });
        let trace = obs::parse_trace(&obs::jsonl(&o)).unwrap();
        let out = critical_path_report("t", &trace);
        assert!(out.contains("no decision observed"), "{out}");
        assert!(out.contains("hop 1: inst 0 path 0 hop 1"), "{out}");

        let untraced = obs::parse_trace(&obs::jsonl(&sample_obs())).unwrap();
        let out = critical_path_report("t", &untraced);
        assert!(out.starts_with("error:"), "{out}");
        assert!(out.contains("no trace contexts"), "{out}");
    }

    #[test]
    fn search_below_bound_finds_break() {
        let out = search_cmd(4, 1, 2, true, SearchMethod::Exhaustive);
        assert!(out.contains("VIOLATION found"), "{out}");
    }

    #[test]
    fn search_at_bound_is_clean() {
        let out = search_cmd(5, 1, 2, false, SearchMethod::Exhaustive);
        assert!(out.contains("no violating adversary"), "{out}");
    }

    /// Past the arena's 64-node ceiling every method answers with one
    /// error line (it used to panic inside the arena for the two
    /// randomized ones), while `run` needs no arena and still decides.
    #[test]
    fn search_past_the_node_ceiling_is_an_error_not_a_panic() {
        for method in [
            SearchMethod::Exhaustive,
            SearchMethod::Random,
            SearchMethod::HillClimb,
        ] {
            let out = search_cmd(70, 1, 1, false, method);
            assert!(out.starts_with("error: "), "{method:?}: {out}");
            assert!(out.contains("n = 70"), "{method:?}: {out}");
        }
        let run = run_cmd(70, 1, 1, 7, &Default::default(), None, TransportKind::Sim);
        assert!(run.contains("decided"), "{run}");
    }

    #[test]
    fn table_renders() {
        let out = table_cmd(2, 3);
        assert!(out.contains("m\\u"));
        assert!(out.contains('7')); // (2,2) -> 7
    }

    #[test]
    fn tradeoffs_renders() {
        let out = tradeoffs_cmd(7);
        assert!(out.contains("2/2-degradable"));
        assert!(out.contains("0/6-degradable"));
    }

    #[test]
    fn topology_kinds_parse() {
        for kind in [
            "complete:5",
            "ring:6",
            "harary:3:8",
            "hypercube:3",
            "wheel:6",
            "sender-cut:3:8",
        ] {
            assert!(parse_topology(kind).is_ok(), "{kind}");
        }
        assert!(parse_topology("torus:3").is_err());
        assert!(parse_topology("harary:3").is_err());
    }

    #[test]
    fn topology_verdicts() {
        let out = topology_cmd("harary:4:8", Some((1, 2)));
        assert!(out.contains("SUFFICIENT"), "{out}");
        let out = topology_cmd("ring:8", Some((1, 2)));
        assert!(out.contains("INSUFFICIENT"), "{out}");
    }

    #[test]
    fn certify_small_instance() {
        let out = certify_cmd(1, 1, 1_000_000);
        assert!(out.contains("CERTIFIED"), "{out}");
    }

    #[test]
    fn certify_rejects_bad_params() {
        assert!(certify_cmd(2, 1, 1_000).contains("error"));
    }

    #[test]
    fn flight_variants() {
        assert!(flight_cmd("degradable").contains("completed safely"));
        assert!(flight_cmd("byzantine").contains("LEFT SAFE ENVELOPE"));
        assert!(flight_cmd("warp").contains("error"));
    }

    #[test]
    fn dispatch_help() {
        assert!(dispatch(&Command::Help).unwrap().contains("USAGE"));
    }

    /// Builds a recorder with two span groups and a few metrics, the way
    /// an experiment binary would.
    fn sample_obs() -> obs::Obs {
        let mut o = obs::Obs::enabled();
        for (i, logical) in [(0u64, 5u64), (1, 7)] {
            let t = o.span("batch.resolve", vec![("instance", i)]);
            o.finish(t, logical);
        }
        let t = o.span("batch.fill", vec![]);
        o.finish(t, 3);
        o.add("eig.votes_evaluated", 12);
        o.gauge_max("sweep.queue_depth", 4);
        o.observe("sim.latency", &[1, 8], 2);
        o.observe("sim.latency", &[1, 8], 64);
        o
    }

    #[test]
    fn obs_summarizes_chrome_trace_file() {
        let o = sample_obs();
        let dir = std::env::temp_dir().join(format!("dagree-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        std::fs::write(&path, obs::chrome_trace_json(&o)).unwrap();
        let out = obs_cmd(path.to_str().unwrap(), 10, false);
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.contains("3 spans"), "{out}");
        // Sorted by total logical cost: the resolve group (12) first.
        let resolve = out.find("batch.resolve").unwrap();
        let fill = out.find("batch.fill").unwrap();
        assert!(resolve < fill, "{out}");
        assert!(out.contains("eig.votes_evaluated"), "{out}");
        assert!(out.contains("sweep.queue_depth"), "{out}");
        // Observations 2 and 64 land in the <=8 and overflow buckets; the
        // row carries their exact min and max around the mean.
        assert!(out.contains("<=1: 0  <=8: 1  >: 1"), "{out}");
        let row = out.lines().find(|l| l.starts_with("sim.latency")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[1..6], ["2", "66", "2", "33.0", "64"], "{row}");
    }

    #[test]
    fn obs_top_limits_span_groups() {
        let o = sample_obs();
        let trace = obs::parse_trace(&obs::jsonl(&o)).unwrap();
        let out = summarize_trace("t", &trace, 1);
        assert!(out.contains("top 1 of 2 span groups"), "{out}");
        assert!(out.contains("batch.resolve"), "{out}");
        // The smaller group is cut from the table (only the count line
        // and the table title may mention groups).
        assert!(!out.contains("batch.fill"), "{out}");
    }

    #[test]
    fn obs_rejects_missing_and_malformed_files() {
        assert!(obs_cmd("/nonexistent/trace.json", 5, false).contains("cannot read"));
        let dir = std::env::temp_dir().join(format!("dagree-obs-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not a trace at all").unwrap();
        let out = obs_cmd(path.to_str().unwrap(), 5, false);
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.contains("not a recognized trace"), "{out}");
    }

    /// Missing, empty, and truncated traces each produce exactly one error
    /// line naming the file — never a parser dump (regression: scripts
    /// grep the first line of `dagree obs` output).
    #[test]
    fn obs_errors_are_one_line_for_missing_empty_and_truncated() {
        let one_line_err = |out: &str| {
            assert!(out.starts_with("error:"), "{out}");
            assert_eq!(out.trim_end().lines().count(), 1, "{out}");
        };
        one_line_err(&obs_cmd("/nonexistent/trace.json", 5, false));

        let dir = std::env::temp_dir().join(format!("dagree-obs-edge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let empty = dir.join("empty.json");
        std::fs::write(&empty, "  \n").unwrap();
        let out = obs_cmd(empty.to_str().unwrap(), 5, false);
        one_line_err(&out);
        assert!(out.contains("is empty"), "{out}");

        // A real Chrome trace cut off mid-write, the way a killed
        // experiment leaves it.
        let full = obs::chrome_trace_json(&sample_obs());
        let truncated = dir.join("truncated.json");
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        let out = obs_cmd(truncated.to_str().unwrap(), 5, false);
        std::fs::remove_dir_all(&dir).ok();
        one_line_err(&out);
        assert!(out.contains("not a recognized trace"), "{out}");
    }

    #[test]
    fn fuzz_clean_campaign_reports_ok() {
        let dir = std::env::temp_dir().join(format!("dagree-fuzz-clean-{}", std::process::id()));
        let out = fuzz_cmd(24, 0xD06, 6, None, dir.to_str().unwrap(), None).unwrap();
        assert!(out.contains("executions=24 "), "{out}");
        assert!(out.contains("backend_executions=12"), "{out}");
        assert!(out.contains("violations=0"), "{out}");
        assert!(out.contains("conformance: OK"), "{out}");
        // A clean campaign writes nothing.
        assert!(!dir.exists());
    }

    #[test]
    fn fuzz_mutant_is_caught_written_and_replayable() {
        let dir = std::env::temp_dir().join(format!("dagree-fuzz-mut-{}", std::process::id()));
        let out = fuzz_cmd(
            16,
            0xBEEF,
            6,
            Some(harness::Mutation::SuppressRelay),
            dir.to_str().unwrap(),
            None,
        )
        .unwrap();
        assert!(out.contains("MUTANT CAUGHT"), "{out}");
        assert!(out.contains("failed to relay"), "{out}");
        // A relay violation names an offending path, so the failure
        // report carries its causal chain.
        assert!(out.contains("causal chain: inst 0 path "), "{out}");
        let repro_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("repro: "))
            .expect("a repro path is printed");
        let path = repro_line.trim_start().trim_start_matches("repro: ");
        let replay_out = fuzz_cmd(0, 0, 9, None, "unused", Some(path)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(replay_out.contains("REPRODUCED"), "{replay_out}");
        assert!(replay_out.contains("first divergent step"), "{replay_out}");
        assert!(
            replay_out.contains("recorded causal chain: inst 0 path "),
            "{replay_out}"
        );
        assert!(
            replay_out.contains("mutation: relay-suppression"),
            "{replay_out}"
        );
    }

    #[test]
    fn fuzz_replay_errors_are_one_line() {
        let out = fuzz_cmd(0, 0, 9, None, "unused", Some("/nonexistent/repro.json")).unwrap_err();
        assert!(out.starts_with("error:"), "{out}");
        assert_eq!(out.trim_end().lines().count(), 1, "{out}");
    }

    #[test]
    fn only_a_clean_campaign_without_violations_or_a_caught_mutant_passes() {
        assert!(fuzz_verdict(true, false).1);
        assert!(fuzz_verdict(false, true).1);
        let (line, passed) = fuzz_verdict(false, false);
        assert!(!passed && line.starts_with("VIOLATED"), "{line}");
        let (line, passed) = fuzz_verdict(true, true);
        assert!(!passed && line.starts_with("MUTANT MISSED"), "{line}");
    }

    #[test]
    fn a_failed_experiment_verdict_is_an_error_with_its_tables() {
        let exp = agreement_bench::find("F2").unwrap();
        let dir = std::env::temp_dir().join(format!("dagree-exp-fail-{}", std::process::id()));
        let out = dir.join("f2.json");
        let mut run = (exp.run)(1);
        assert!(run.verdict.passed());
        run.verdict.require("forced false", false);
        let text = exp_cmd(exp, &run, Some(out.to_str().unwrap()), None).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.contains("== scenario executions =="), "{text}");
        assert!(text.ends_with("verdict: FAIL (forced false)"), "{text}");
    }
}
