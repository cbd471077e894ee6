//! Hand-rolled argument parsing for `dagree`.

use degradable::{ServiceConfig, Strategy, Val};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use transport::TransportKind;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
dagree — explore m/u-degradable agreement (Vaidya 1993)

USAGE:
  dagree run --nodes N --m M --u U [--value V] [--faulty SPEC] [--explain NODE]
             [--transport sim|channel|tcp]
  dagree serve --index I --peers HOST:PORT,... --m M --u U [--value V]
               [--faulty SPEC] [--round-timeout-ms T] [--trace]
               [--metrics-out PATH] [--trace-out PATH]
  dagree bombard --nodes N --m M --u U [--instances K] [--burst B] [--queue C]
                 [--workers W] [--seed S] [--faulty SPEC] [--metrics-out PATH]
  dagree batch --nodes N --m M --u U [--k K] [--value V] [--faulty SPEC] [--seed S]
  dagree search --nodes N --m M --u U [--below-bound] [--method exhaustive|random|hillclimb]
  dagree table [--max-m M] [--max-u U]
  dagree tradeoffs --nodes N
  dagree topology --kind KIND [--m M --u U]
  dagree certify --m M --u U [--budget B]
  dagree flight --arch byzantine|degradable|crusader
  dagree obs TRACE [--top N] [--critical-path]
  dagree fuzz [--budget B] [--seed S] [--max-n N] [--mutate MUTATION]
              [--repro-dir DIR] [--replay FILE]
  dagree exp ID [--workers W] [--out PATH] [--trace-out PATH]
  dagree check
  dagree help

FAULTY SPEC:
  comma-separated entries `node:strategy[:value]`, e.g.
  `3:constant-lie:9,4:silent` or `0:two-faced:1:2`.
  strategies: silent | truthful | constant-lie:V | two-faced:A:B |
              pretend-sender-said:V | random-lie:SEED

TOPOLOGY KIND:
  complete:N | ring:N | harary:K:N | hypercube:D | wheel:N | sender-cut:K:N

TRANSPORT:
  sim     — deterministic virtual-time simulator (default)
  channel — one OS thread per node over in-process byte pipes
  tcp     — one OS thread per node over loopback TCP
  `serve` runs ONE node of a multi-process TCP mesh: every process gets
  the same --peers list (node i binds the i-th address) and its own
  --index; all flags but --index must match across processes.

SERVICE MODE:
  `bombard` drives the persistent in-process agreement service: a pooled
  ServiceState ingests a seeded stream of K instances (senders
  round-robin) in waves of --burst, draining after each wave. Arenas and
  stores are pooled across drains (stores cleared, never rebuilt) and
  the bounded queue (--queue) sheds excess load with a counted error
  instead of growing, so a --burst above --queue (the default) exercises
  the shed path deliberately. Each drain is split into --workers shards
  that run on their own threads (default: the host's core count). Every
  4th drain is sampled against one-shot `dagree batch` semantics
  (run_batch) and decision mismatches are reported; --metrics-out writes
  the worker-count-independent registry/span JSONL.

EXAMPLES:
  dagree run --nodes 5 --m 1 --u 2 --value 42 --faulty 3:constant-lie:7,4:constant-lie:7
  dagree run --nodes 4 --m 1 --u 1 --transport tcp
  dagree serve --index 0 --peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103,127.0.0.1:7104 --m 1 --u 1
  dagree batch --nodes 5 --m 1 --u 2 --k 8 --faulty 3:constant-lie:7
  dagree run --nodes 5 --m 1 --u 2 --faulty 4:silent --explain 1
  dagree search --nodes 4 --m 1 --u 2 --below-bound --method exhaustive
  dagree topology --kind harary:4:8 --m 1 --u 2
  dagree exp E14 --trace-out perf_baseline.trace.json
  dagree obs perf_baseline.trace.json --top 10

EXPERIMENTS:
  `exp` runs one experiment of the paper reproduction (T1, F1, F2, E3-E13,
  P1, A1, A2, E14, E16-E18, E20, E21; see DESIGN.md) at its default size
  on --workers sweep workers (default 4), prints its tables and writes
  its report to --out (default results/<name>.json). `--trace-out` writes
  the spans of an experiment that traces (E13, E14, E16-E18, E20, E21).
  `check` runs every experiment at 1 and at 8 workers and requires its
  verdict to pass and both reports to equal the committed
  results/<name>.json byte for byte; it writes nothing. Both exit 1 when
  an experiment fails.

OBS:
  summarizes a trace file written by an experiment's --trace-out flag
  (Chrome trace_event JSON or flat JSONL): top spans by logical cost,
  then the embedded counter/gauge/histogram registry. `--critical-path`
  additionally reconstructs the longest causal send/deliver chain ending
  in a decision from the trace's trace.* spans and prints it hop by hop.

SERVE OBSERVABILITY:
  `--trace` stamps every envelope with a causal trace context (carried on
  the wire as tagged frames; malformed trace sections degrade to untraced
  delivery, never kill the connection). `--metrics-out PATH` appends one
  JSONL registry snapshot per closed round (node, round, counters).
  `--trace-out PATH` writes this node's trace spans as JSONL at exit;
  both imply `--trace` and are readable by `dagree obs`.

FUZZ:
  drives randomized BYZ executions (N in 4..=--max-n, static + adaptive
  adversaries, churn crashes, link chaos) through the real node state
  machines with the abstract spec checker attached. Every 4th clean trial
  is additionally replayed through the batched service and the loopback
  TCP mesh under the same referee. Violations are shrunk to a minimal
  (seed, plan) repro under --repro-dir (default results/repros).
  `--mutate M` injects a deliberate implementation bug the checker must
  catch (the CI mutant gate); M is one of relay-suppression,
  wrong-value-relay, early-decision, vote-off-by-one. `--replay FILE`
  re-runs a repro file and prints the first divergent step. Exits 1 when
  a clean campaign finds a violation, a mutant goes uncaught, or a
  replay does not reproduce.
";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `dagree run`
    Run {
        /// Node count.
        nodes: usize,
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Sender value.
        value: u64,
        /// Faulty nodes with strategies.
        faulty: BTreeMap<NodeId, Strategy<u64>>,
        /// Receiver to narrate, if any.
        explain: Option<NodeId>,
        /// Which network backend executes the protocol.
        transport: TransportKind,
    },
    /// `dagree serve` — one node of a multi-process TCP mesh.
    Serve {
        /// This process's node index (position in `peers`).
        index: usize,
        /// Every node's listen address, index order; the cluster size is
        /// the list length.
        peers: Vec<String>,
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Sender value (node 0 proposes it; others ignore it but must
        /// agree on the flag so records match).
        value: u64,
        /// Faulty nodes with strategies.
        faulty: BTreeMap<NodeId, Strategy<u64>>,
        /// Per-round wall-clock budget before absent peers time out.
        round_timeout_ms: u64,
        /// Stamp causal trace contexts on every envelope.
        trace: bool,
        /// Append per-round registry snapshots (JSONL) to this path.
        metrics_out: Option<String>,
        /// Write this node's trace spans (JSONL) to this path at exit.
        trace_out: Option<String>,
    },
    /// `dagree bombard` — load generator for the service: offers bursts
    /// that may exceed the queue, exercising the shed path.
    Bombard {
        /// Node count.
        nodes: usize,
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Total instances to offer over the run.
        instances: usize,
        /// Instances offered per burst before each drain.
        burst: usize,
        /// Bounded ingest-queue capacity; bursts above it shed.
        queue: usize,
        /// Shards per drain (decisions are worker-count-independent).
        workers: usize,
        /// Value-stream seed.
        seed: u64,
        /// Faulty nodes with strategies.
        faulty: BTreeMap<NodeId, Strategy<u64>>,
        /// Write the final registry/span JSONL here.
        metrics_out: Option<String>,
    },
    /// `dagree batch`
    Batch {
        /// Node count.
        nodes: usize,
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Stream length: how many slots node 0 proposes.
        k: usize,
        /// Base value; slot `i` proposes `value + i`.
        value: u64,
        /// Faulty nodes with strategies.
        faulty: BTreeMap<NodeId, Strategy<u64>>,
        /// Engine seed.
        seed: u64,
    },
    /// `dagree search`
    Search {
        /// Node count (defaults to the bound, or one below with
        /// `below_bound`).
        nodes: usize,
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Whether the instance is deliberately below the node bound.
        below_bound: bool,
        /// Search method.
        method: SearchMethod,
    },
    /// `dagree table`
    Table {
        /// Largest `m` row.
        max_m: usize,
        /// Largest `u` column.
        max_u: usize,
    },
    /// `dagree tradeoffs`
    Tradeoffs {
        /// Node count.
        nodes: usize,
    },
    /// `dagree topology`
    Topology {
        /// The topology specification string.
        kind: String,
        /// Optional params to check the Theorem 3 requirement against.
        params: Option<(usize, usize)>,
    },
    /// `dagree certify`
    Certify {
        /// Strong threshold.
        m: usize,
        /// Degraded threshold.
        u: usize,
        /// Per-configuration adversary budget.
        budget: u128,
    },
    /// `dagree flight`
    Flight {
        /// Architecture name.
        arch: String,
    },
    /// `dagree obs`
    Obs {
        /// Path to the trace file (Chrome trace JSON or JSONL).
        path: String,
        /// How many span groups to show, largest logical cost first.
        top: usize,
        /// Reconstruct and print the longest causal chain to a decision.
        critical_path: bool,
    },
    /// `dagree fuzz`
    Fuzz {
        /// Number of randomized executions.
        budget: usize,
        /// Campaign master seed.
        seed: u64,
        /// Cluster-size ceiling (inclusive).
        max_n: usize,
        /// Deliberate implementation bug to inject (mutant gate).
        mutate: Option<harness::Mutation>,
        /// Directory minimized repros are written to.
        repro_dir: String,
        /// Repro file to re-run instead of fuzzing.
        replay: Option<String>,
    },
    /// `dagree exp` — one experiment of the reproduction.
    Exp {
        /// The experiment id (`T1`, `E14`, ...).
        id: String,
        /// Sweep workers; the report does not depend on the count.
        workers: usize,
        /// Where to write the report instead of `results/<name>.json`.
        out: Option<String>,
        /// Where to write the run's trace, for experiments that trace.
        trace_out: Option<String>,
    },
    /// `dagree check` — every experiment against its committed report.
    Check,
    /// `dagree help`
    Help,
}

/// Search methods for `dagree search`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMethod {
    /// Full enumeration over a small domain.
    Exhaustive,
    /// Seeded randomized tables.
    Random,
    /// Coordinate-ascent.
    HillClimb,
}

/// A parse failure with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Extracts `--flag value` pairs and standalone `--switches`.
struct Flags<'a> {
    pairs: BTreeMap<&'a str, &'a str>,
    switches: Vec<&'a str>,
}

/// Collects the flags of subcommand `sub`, refusing any not named in
/// `allowed` (space-separated).
fn collect_flags<'a>(
    sub: &str,
    args: &'a [String],
    allowed: &str,
) -> Result<Flags<'a>, ParseError> {
    let mut pairs = BTreeMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if !a.starts_with("--") {
            return err(format!("unexpected argument `{a}`"));
        }
        if !allowed.split(' ').any(|flag| flag == a) {
            return err(format!("unknown flag `{a}` for `{sub}`"));
        }
        match a {
            "--below-bound" | "--critical-path" | "--trace" => {
                switches.push(a);
                i += 1;
            }
            _ => {
                let Some(v) = args.get(i + 1) else {
                    return err(format!("flag `{a}` needs a value"));
                };
                pairs.insert(a, v.as_str());
                i += 2;
            }
        }
    }
    Ok(Flags { pairs, switches })
}

fn req_usize(flags: &Flags<'_>, name: &str) -> Result<usize, ParseError> {
    match flags.pairs.get(name) {
        None => err(format!("missing required flag `{name}`")),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("`{name}` expects a number, got `{v}`"))),
    }
}

fn opt_usize(flags: &Flags<'_>, name: &str, default: usize) -> Result<usize, ParseError> {
    match flags.pairs.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("`{name}` expects a number, got `{v}`"))),
    }
}

/// A node id off the command line: `None` for anything but an index in the
/// id range — an argument naming node 65 539 is refused, never read as
/// node 3.
fn node_id(v: &str) -> Option<NodeId> {
    v.parse::<usize>().ok().and_then(NodeId::try_new)
}

/// A system size off the command line (`what` names the flag): every one
/// of its nodes must have an id.
fn node_count(what: &str, nodes: usize) -> Result<usize, ParseError> {
    if nodes > NodeId::MAX_INDEX + 1 {
        return err(format!(
            "`{what}` names {nodes} nodes; node ids end at {}",
            NodeId::MAX_INDEX
        ));
    }
    Ok(nodes)
}

fn req_nodes(flags: &Flags<'_>) -> Result<usize, ParseError> {
    node_count("--nodes", req_usize(flags, "--nodes")?)
}

/// Parses a faulty-node specification (see [`USAGE`]).
pub fn parse_faulty(spec: &str) -> Result<BTreeMap<NodeId, Strategy<u64>>, ParseError> {
    let mut out = BTreeMap::new();
    if spec.trim().is_empty() {
        return Ok(out);
    }
    for entry in spec.split(',') {
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() < 2 {
            return err(format!("faulty entry `{entry}` needs `node:strategy`"));
        }
        let node =
            node_id(parts[0]).ok_or_else(|| ParseError(format!("bad node id `{}`", parts[0])))?;
        let strategy = match (parts[1], parts.len()) {
            ("silent", 2) => Strategy::Silent,
            ("truthful", 2) => Strategy::Truthful,
            ("constant-lie", 3) => Strategy::ConstantLie(Val::Value(parse_u64(parts[2])?)),
            ("two-faced", 4) => Strategy::TwoFaced {
                even: Val::Value(parse_u64(parts[2])?),
                odd: Val::Value(parse_u64(parts[3])?),
            },
            ("pretend-sender-said", 3) => {
                Strategy::PretendSenderSaid(Val::Value(parse_u64(parts[2])?))
            }
            ("random-lie", 3) => Strategy::RandomLie {
                domain: vec![Val::Default, Val::Value(1), Val::Value(2)],
                seed: parse_u64(parts[2])?,
            },
            _ => return err(format!("unknown strategy spec `{entry}`")),
        };
        out.insert(node, strategy);
    }
    Ok(out)
}

/// Parses `--faulty` for a `nodes`-node system. An id outside `0..nodes`
/// is rejected: a phantom fault never acts but would still count into
/// `f`, so D.1–D.4 would be judged in the wrong regime.
fn faulty_flag(
    flags: &Flags<'_>,
    nodes: usize,
) -> Result<BTreeMap<NodeId, Strategy<u64>>, ParseError> {
    let faulty = match flags.pairs.get("--faulty") {
        Some(spec) => parse_faulty(spec)?,
        None => return Ok(BTreeMap::new()),
    };
    match faulty.keys().find(|id| id.index() >= nodes) {
        Some(id) => err(format!(
            "`--faulty` names node {} but there are only {nodes} nodes",
            id.index()
        )),
        None => Ok(faulty),
    }
}

fn parse_u64(s: &str) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("expected a number, got `{s}`")))
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let flags = collect_flags(
                sub,
                rest,
                "--nodes --m --u --value --faulty --explain --transport",
            )?;
            let nodes = req_nodes(&flags)?;
            let explain = match flags.pairs.get("--explain") {
                Some(v) => Some(node_id(v).ok_or_else(|| {
                    ParseError(format!("`--explain` expects a node id, got `{v}`"))
                })?),
                None => None,
            };
            let transport = match flags.pairs.get("--transport") {
                Some(v) => v.parse::<TransportKind>().map_err(ParseError)?,
                None => TransportKind::Sim,
            };
            Ok(Command::Run {
                nodes,
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                value: flags
                    .pairs
                    .get("--value")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(42),
                faulty: faulty_flag(&flags, nodes)?,
                explain,
                transport,
            })
        }
        "serve" => {
            let flags = collect_flags(
                sub,
                rest,
                "--index --peers --m --u --value --faulty --round-timeout-ms --trace --metrics-out --trace-out",
            )?;
            let peers: Vec<String> = match flags.pairs.get("--peers") {
                None => return err("missing required flag `--peers`"),
                Some(list) => list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect(),
            };
            if peers.len() < 2 {
                return err("`--peers` needs at least two comma-separated HOST:PORT entries");
            }
            node_count("--peers", peers.len())?;
            let index = req_usize(&flags, "--index")?;
            if index >= peers.len() {
                return err(format!(
                    "`--index {index}` is out of range for {} peers",
                    peers.len()
                ));
            }
            let faulty = faulty_flag(&flags, peers.len())?;
            Ok(Command::Serve {
                index,
                peers,
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                value: flags
                    .pairs
                    .get("--value")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(42),
                faulty,
                round_timeout_ms: flags
                    .pairs
                    .get("--round-timeout-ms")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(5_000),
                // Writing metrics or traces requires the tracer, so the
                // output flags imply `--trace`.
                trace: flags.switches.contains(&"--trace")
                    || flags.pairs.contains_key("--metrics-out")
                    || flags.pairs.contains_key("--trace-out"),
                metrics_out: flags.pairs.get("--metrics-out").map(|s| s.to_string()),
                trace_out: flags.pairs.get("--trace-out").map(|s| s.to_string()),
            })
        }
        "bombard" => {
            let flags = collect_flags(
                sub,
                rest,
                "--nodes --m --u --instances --burst --queue --workers --seed --faulty --metrics-out",
            )?;
            let nodes = req_nodes(&flags)?;
            // Burst 96 over queue 64 by default: the generator exists to
            // exercise the shed path, so the defaults guarantee sheds.
            let at_least_one = |name: &str, default: usize| match opt_usize(&flags, name, default)?
            {
                0 => err(format!("`{name}` must be at least 1")),
                v => Ok(v),
            };
            Ok(Command::Bombard {
                nodes,
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                instances: opt_usize(&flags, "--instances", 256)?,
                burst: at_least_one("--burst", 96)?,
                queue: at_least_one("--queue", 64)?,
                workers: at_least_one("--workers", ServiceConfig::default().workers)?,
                seed: flags
                    .pairs
                    .get("--seed")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(1),
                faulty: faulty_flag(&flags, nodes)?,
                metrics_out: flags.pairs.get("--metrics-out").map(|s| s.to_string()),
            })
        }
        "batch" => {
            let flags = collect_flags(sub, rest, "--nodes --m --u --k --value --faulty --seed")?;
            let nodes = req_nodes(&flags)?;
            Ok(Command::Batch {
                nodes,
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                k: opt_usize(&flags, "--k", 4)?,
                value: flags
                    .pairs
                    .get("--value")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(42),
                faulty: faulty_flag(&flags, nodes)?,
                seed: flags
                    .pairs
                    .get("--seed")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(1),
            })
        }
        "search" => {
            let flags = collect_flags(sub, rest, "--nodes --m --u --below-bound --method")?;
            let method = match flags.pairs.get("--method").copied().unwrap_or("exhaustive") {
                "exhaustive" => SearchMethod::Exhaustive,
                "random" => SearchMethod::Random,
                "hillclimb" => SearchMethod::HillClimb,
                other => return err(format!("unknown search method `{other}`")),
            };
            Ok(Command::Search {
                nodes: req_nodes(&flags)?,
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                below_bound: flags.switches.contains(&"--below-bound"),
                method,
            })
        }
        "table" => {
            let flags = collect_flags(sub, rest, "--max-m --max-u")?;
            Ok(Command::Table {
                max_m: opt_usize(&flags, "--max-m", 3)?,
                max_u: opt_usize(&flags, "--max-u", 6)?,
            })
        }
        "tradeoffs" => {
            let flags = collect_flags(sub, rest, "--nodes")?;
            Ok(Command::Tradeoffs {
                nodes: req_nodes(&flags)?,
            })
        }
        "certify" => {
            let flags = collect_flags(sub, rest, "--m --u --budget")?;
            let budget = match flags.pairs.get("--budget") {
                None => 50_000_000u128,
                Some(v) => v
                    .parse()
                    .map_err(|_| ParseError(format!("bad `--budget` value `{v}`")))?,
            };
            Ok(Command::Certify {
                m: req_usize(&flags, "--m")?,
                u: req_usize(&flags, "--u")?,
                budget,
            })
        }
        "flight" => {
            let flags = collect_flags(sub, rest, "--arch")?;
            let arch = flags
                .pairs
                .get("--arch")
                .copied()
                .unwrap_or("degradable")
                .to_string();
            Ok(Command::Flight { arch })
        }
        "obs" => {
            let Some((path, rest)) = rest.split_first() else {
                return err("`obs` needs a trace file path");
            };
            if path.starts_with("--") {
                return err("`obs` needs a trace file path before any flags");
            }
            let flags = collect_flags(sub, rest, "--top --critical-path")?;
            Ok(Command::Obs {
                path: path.clone(),
                top: opt_usize(&flags, "--top", 10)?,
                critical_path: flags.switches.contains(&"--critical-path"),
            })
        }
        "fuzz" => {
            let flags = collect_flags(
                sub,
                rest,
                "--budget --seed --max-n --mutate --repro-dir --replay",
            )?;
            let mutate = match flags.pairs.get("--mutate") {
                None => None,
                Some(name) => Some(harness::Mutation::from_name(name).map_err(ParseError)?),
            };
            Ok(Command::Fuzz {
                budget: opt_usize(&flags, "--budget", 200)?,
                seed: flags
                    .pairs
                    .get("--seed")
                    .map(|v| parse_u64(v))
                    .transpose()?
                    .unwrap_or(0xF055_F0CC),
                max_n: node_count("--max-n", opt_usize(&flags, "--max-n", 9)?)?,
                mutate,
                repro_dir: flags
                    .pairs
                    .get("--repro-dir")
                    .copied()
                    .unwrap_or("results/repros")
                    .to_string(),
                replay: flags.pairs.get("--replay").map(|s| s.to_string()),
            })
        }
        "topology" => {
            let flags = collect_flags(sub, rest, "--kind --m --u")?;
            let kind = flags
                .pairs
                .get("--kind")
                .copied()
                .ok_or_else(|| ParseError("missing required flag `--kind`".into()))?
                .to_string();
            let params = match (flags.pairs.get("--m"), flags.pairs.get("--u")) {
                (Some(m), Some(u)) => Some((
                    m.parse()
                        .map_err(|_| ParseError(format!("bad `--m` value `{m}`")))?,
                    u.parse()
                        .map_err(|_| ParseError(format!("bad `--u` value `{u}`")))?,
                )),
                (None, None) => None,
                _ => return err("`--m` and `--u` must be given together"),
            };
            Ok(Command::Topology { kind, params })
        }
        "exp" => {
            let Some((id, rest)) = rest.split_first() else {
                return err("`exp` needs an experiment id");
            };
            if agreement_bench::find(id).is_none() {
                let ids: Vec<&str> = agreement_bench::EXPERIMENTS.iter().map(|e| e.id).collect();
                return err(format!(
                    "unknown experiment `{id}` (one of {})",
                    ids.join(", ")
                ));
            }
            let flags = collect_flags(sub, rest, "--workers --out --trace-out")?;
            let workers = match opt_usize(&flags, "--workers", 4)? {
                0 => return err("`--workers` must be at least 1"),
                w => w,
            };
            Ok(Command::Exp {
                id: id.clone(),
                workers,
                out: flags.pairs.get("--out").map(|s| s.to_string()),
                trace_out: flags.pairs.get("--trace-out").map(|s| s.to_string()),
            })
        }
        "check" => {
            collect_flags(sub, rest, "")?;
            Ok(Command::Check)
        }
        other => err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A misspelt or foreign flag is refused by name, never dropped.
    fn refuses(argv: &[&str], flag: &str) {
        let e = parse_args(&sv(argv)).unwrap_err();
        assert_eq!(e.0, format!("unknown flag `{flag}` for `{}`", argv[0]));
    }

    #[test]
    fn parse_run_minimal() {
        let cmd = parse_args(&sv(&["run", "--nodes", "5", "--m", "1", "--u", "2"])).unwrap();
        match cmd {
            Command::Run {
                nodes,
                m,
                u,
                value,
                faulty,
                explain,
                transport,
            } => {
                assert_eq!((nodes, m, u, value), (5, 1, 2, 42));
                assert!(faulty.is_empty());
                assert!(explain.is_none());
                assert_eq!(transport, TransportKind::Sim);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_run_transport_flag() {
        for (name, kind) in [
            ("sim", TransportKind::Sim),
            ("channel", TransportKind::Channel),
            ("tcp", TransportKind::Tcp),
        ] {
            let cmd = parse_args(&sv(&[
                "run",
                "--nodes",
                "4",
                "--m",
                "1",
                "--u",
                "1",
                "--transport",
                name,
            ]))
            .unwrap();
            match cmd {
                Command::Run { transport, .. } => assert_eq!(transport, kind),
                other => panic!("{other:?}"),
            }
        }
        let e = parse_args(&sv(&[
            "run",
            "--nodes",
            "4",
            "--m",
            "1",
            "--u",
            "1",
            "--transport",
            "udp",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown transport"), "{e}");
        // `--trnasport tcp` used to run on `sim` without a word.
        refuses(
            &[
                "run",
                "--nodes",
                "4",
                "--m",
                "1",
                "--u",
                "1",
                "--trnasport",
                "tcp",
            ],
            "--trnasport",
        );
    }

    #[test]
    fn parse_serve() {
        let cmd = parse_args(&sv(&[
            "serve",
            "--index",
            "1",
            "--peers",
            "127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103",
            "--m",
            "1",
            "--u",
            "1",
            "--round-timeout-ms",
            "250",
        ]))
        .unwrap();
        match cmd {
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
            } => {
                assert_eq!((index, m, u, value, round_timeout_ms), (1, 1, 1, 42, 250));
                assert_eq!(peers.len(), 3);
                assert_eq!(peers[2], "127.0.0.1:7103");
                assert!(faulty.is_empty());
                assert!(!trace);
                assert!(metrics_out.is_none() && trace_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        refuses(
            &[
                "serve",
                "--index",
                "0",
                "--peers",
                "a:1,b:2",
                "--m",
                "1",
                "--u",
                "1",
                "--round-timout-ms",
                "9",
            ],
            "--round-timout-ms",
        );
    }

    #[test]
    fn serve_observability_flags_imply_tracing() {
        let base = [
            "serve",
            "--index",
            "0",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
            "--m",
            "1",
            "--u",
            "1",
        ];
        for extra in [
            &["--trace"][..],
            &["--metrics-out", "m.jsonl"][..],
            &["--trace-out", "t.jsonl"][..],
        ] {
            let mut argv = base.to_vec();
            argv.extend_from_slice(extra);
            match parse_args(&sv(&argv)).unwrap() {
                Command::Serve {
                    trace,
                    metrics_out,
                    trace_out,
                    ..
                } => {
                    assert!(trace, "{extra:?} must arm the tracer");
                    assert_eq!(metrics_out.is_some(), extra[0] == "--metrics-out");
                    assert_eq!(trace_out.is_some(), extra[0] == "--trace-out");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn serve_rejects_bad_shapes() {
        // Index out of range for the peer list.
        let e = parse_args(&sv(&[
            "serve",
            "--index",
            "3",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
            "--m",
            "1",
            "--u",
            "1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        // A mesh of one is not a mesh.
        let e = parse_args(&sv(&[
            "serve",
            "--index",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--m",
            "1",
            "--u",
            "1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("at least two"), "{e}");
        // Peers are required.
        let e = parse_args(&sv(&["serve", "--index", "0", "--m", "1", "--u", "1"])).unwrap_err();
        assert!(e.0.contains("--peers"), "{e}");
    }

    #[test]
    fn parse_bombard_defaults_guarantee_sheds() {
        match parse_args(&sv(&["bombard", "--nodes", "5", "--m", "1", "--u", "2"])).unwrap() {
            Command::Bombard { burst, queue, .. } => {
                assert!(
                    burst > queue,
                    "default burst {burst} must exceed queue {queue}"
                );
                assert_eq!((burst, queue), (96, 64));
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&sv(&[
            "bombard",
            "--nodes",
            "7",
            "--m",
            "2",
            "--u",
            "2",
            "--instances",
            "512",
            "--burst",
            "32",
            "--queue",
            "16",
            "--workers",
            "8",
            "--seed",
            "9",
            "--metrics-out",
            "svc.jsonl",
            "--faulty",
            "3:silent",
        ]))
        .unwrap()
        {
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
            } => {
                assert_eq!((nodes, m, u, instances), (7, 2, 2, 512));
                assert_eq!((burst, queue, workers, seed), (32, 16, 8, 9));
                assert_eq!(faulty.len(), 1);
                assert_eq!(metrics_out.as_deref(), Some("svc.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            &[
                "bombard", "--nodes", "5", "--m", "1", "--u", "2", "--burst", "0",
            ][..],
            &[
                "bombard", "--nodes", "5", "--m", "1", "--u", "2", "--queue", "0",
            ][..],
            &[
                "bombard",
                "--nodes",
                "5",
                "--m",
                "1",
                "--u",
                "2",
                "--workers",
                "0",
            ][..],
        ] {
            assert!(parse_args(&sv(bad)).is_err(), "{bad:?}");
        }
        // Without `--workers`, the service's own default.
        match parse_args(&sv(&["bombard", "--nodes", "5", "--m", "1", "--u", "2"])).unwrap() {
            Command::Bombard { workers, .. } => {
                assert_eq!(workers, ServiceConfig::default().workers);
            }
            other => panic!("{other:?}"),
        }
        refuses(
            &[
                "bombard", "--nodes", "5", "--m", "1", "--u", "2", "--bursts", "9",
            ],
            "--bursts",
        );
    }

    #[test]
    fn parse_run_full() {
        let cmd = parse_args(&sv(&[
            "run",
            "--nodes",
            "5",
            "--m",
            "1",
            "--u",
            "2",
            "--value",
            "9",
            "--faulty",
            "3:constant-lie:7,4:silent",
            "--explain",
            "1",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                value,
                faulty,
                explain,
                ..
            } => {
                assert_eq!(value, 9);
                assert_eq!(faulty.len(), 2);
                assert_eq!(faulty[&NodeId::new(4)], Strategy::Silent);
                assert_eq!(explain, Some(NodeId::new(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_faulty_variants() {
        let f = parse_faulty("0:two-faced:1:2,3:pretend-sender-said:5,4:random-lie:99").unwrap();
        assert_eq!(f.len(), 3);
        assert!(matches!(f[&NodeId::new(0)], Strategy::TwoFaced { .. }));
        assert!(matches!(
            f[&NodeId::new(4)],
            Strategy::RandomLie { seed: 99, .. }
        ));
    }

    #[test]
    fn phantom_faulty_ids_are_rejected_by_every_command() {
        let shape = ["--nodes", "5", "--m", "1", "--u", "2"];
        for sub in [vec!["run"], vec!["batch"], vec!["bombard"]] {
            let args = |spec: &'static str| {
                let mut v = sub.clone();
                v.extend(shape);
                v.extend(["--faulty", spec]);
                sv(&v)
            };
            let e = parse_args(&args("9:silent")).unwrap_err();
            assert_eq!(
                e.to_string(),
                "error: `--faulty` names node 9 but there are only 5 nodes",
                "{sub:?}"
            );
            // The last real node is still a legal fault.
            assert!(parse_args(&args("4:silent")).is_ok(), "{sub:?}");
        }
        // The mesh node takes its cluster size from `--peers`.
        let serve = |spec: &'static str| {
            parse_args(&sv(&[
                "serve",
                "--index",
                "0",
                "--peers",
                "a:1,b:2,c:3,d:4",
                "--m",
                "1",
                "--u",
                "1",
                "--faulty",
                spec,
            ]))
        };
        assert!(serve("4:silent").unwrap_err().0.contains("only 4 nodes"));
        assert!(serve("3:silent").is_ok());
    }

    #[test]
    fn parse_faulty_rejects_garbage() {
        assert!(parse_faulty("3").is_err());
        assert!(parse_faulty("x:silent").is_err());
        assert!(parse_faulty("3:mystery").is_err());
        assert!(parse_faulty("3:constant-lie").is_err());
    }

    #[test]
    fn parse_search() {
        let cmd = parse_args(&sv(&[
            "search",
            "--nodes",
            "4",
            "--m",
            "1",
            "--u",
            "2",
            "--below-bound",
            "--method",
            "hillclimb",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Search {
                nodes: 4,
                m: 1,
                u: 2,
                below_bound: true,
                method: SearchMethod::HillClimb,
            }
        );
        refuses(
            &["search", "--nodes", "4", "--m", "1", "--u", "2", "--below"],
            "--below",
        );
    }

    #[test]
    fn parse_batch() {
        let cmd = parse_args(&sv(&[
            "batch", "--nodes", "5", "--m", "1", "--u", "2", "--k", "8", "--faulty", "3:silent",
        ]))
        .unwrap();
        match cmd {
            Command::Batch {
                nodes,
                m,
                u,
                k,
                value,
                faulty,
                seed,
            } => {
                assert_eq!((nodes, m, u, k, value, seed), (5, 1, 2, 8, 42, 1));
                assert_eq!(faulty.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        refuses(
            &["batch", "--nodes", "5", "--m", "1", "--u", "2", "--K", "8"],
            "--K",
        );
    }

    #[test]
    fn parse_table_defaults() {
        assert_eq!(
            parse_args(&sv(&["table"])).unwrap(),
            Command::Table { max_m: 3, max_u: 6 }
        );
        refuses(&["table", "--max-n", "3"], "--max-n");
        // `tradeoffs` takes `--nodes` and nothing else.
        refuses(&["tradeoffs", "--nodes", "7", "--m", "2"], "--m");
    }

    #[test]
    fn parse_topology() {
        let cmd = parse_args(&sv(&[
            "topology",
            "--kind",
            "harary:4:8",
            "--m",
            "1",
            "--u",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Topology {
                kind: "harary:4:8".into(),
                params: Some((1, 2)),
            }
        );
        refuses(&["topology", "--kinds", "ring:5"], "--kinds");
    }

    #[test]
    fn topology_requires_both_params() {
        assert!(parse_args(&sv(&["topology", "--kind", "ring:5", "--m", "1"])).is_err());
    }

    #[test]
    fn missing_flags_are_reported() {
        let e = parse_args(&sv(&["run", "--nodes", "5"])).unwrap_err();
        assert!(e.0.contains("--m"));
    }

    #[test]
    fn a_node_beyond_the_id_range_is_refused_not_narrowed() {
        // 65 539 = 65 536 + 3: none of these may come back as node 3.
        let shape = ["--nodes", "5", "--m", "1", "--u", "2"];
        for extra in [["--faulty", "65539:silent"], ["--explain", "65539"]] {
            let mut argv = vec!["run"];
            argv.extend(shape);
            argv.extend(extra);
            let e = parse_args(&sv(&argv)).unwrap_err();
            assert!(e.0.contains("65539"), "{e}");
        }
        assert_eq!(
            parse_faulty("65535:silent").unwrap().keys().next(),
            Some(&NodeId::new(65_535))
        );
        for argv in [
            vec!["run", "--nodes", "65537", "--m", "1", "--u", "2"],
            vec!["batch", "--nodes", "65537", "--m", "1", "--u", "2"],
            vec!["bombard", "--nodes", "65537", "--m", "1", "--u", "2"],
            vec!["fuzz", "--max-n", "65537"],
        ] {
            let e = parse_args(&sv(&argv)).unwrap_err();
            assert!(e.0.contains("node ids end at 65535"), "{argv:?}: {e}");
        }
    }

    #[test]
    fn parse_certify() {
        assert_eq!(
            parse_args(&sv(&["certify", "--m", "1", "--u", "2"])).unwrap(),
            Command::Certify {
                m: 1,
                u: 2,
                budget: 50_000_000
            }
        );
        assert_eq!(
            parse_args(&sv(&["certify", "--m", "1", "--u", "1", "--budget", "99"])).unwrap(),
            Command::Certify {
                m: 1,
                u: 1,
                budget: 99
            }
        );
        refuses(
            &["certify", "--m", "1", "--u", "1", "--budgte", "9"],
            "--budgte",
        );
    }

    #[test]
    fn parse_flight() {
        assert_eq!(
            parse_args(&sv(&["flight", "--arch", "byzantine"])).unwrap(),
            Command::Flight {
                arch: "byzantine".into()
            }
        );
        assert_eq!(
            parse_args(&sv(&["flight"])).unwrap(),
            Command::Flight {
                arch: "degradable".into()
            }
        );
        refuses(&["flight", "--architecture", "byzantine"], "--architecture");
    }

    #[test]
    fn parse_obs() {
        assert_eq!(
            parse_args(&sv(&["obs", "trace.json"])).unwrap(),
            Command::Obs {
                path: "trace.json".into(),
                top: 10,
                critical_path: false,
            }
        );
        assert_eq!(
            parse_args(&sv(&["obs", "t.jsonl", "--top", "3", "--critical-path"])).unwrap(),
            Command::Obs {
                path: "t.jsonl".into(),
                top: 3,
                critical_path: true,
            }
        );
        assert!(parse_args(&sv(&["obs"])).is_err());
        assert!(parse_args(&sv(&["obs", "--top", "3"])).is_err());
        refuses(&["obs", "t.json", "--critical"], "--critical");
    }

    #[test]
    fn parse_fuzz_defaults_and_flags() {
        assert_eq!(
            parse_args(&sv(&["fuzz"])).unwrap(),
            Command::Fuzz {
                budget: 200,
                seed: 0xF055_F0CC,
                max_n: 9,
                mutate: None,
                repro_dir: "results/repros".into(),
                replay: None,
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "fuzz",
                "--budget",
                "50",
                "--seed",
                "7",
                "--max-n",
                "6",
                "--mutate",
                "relay-suppression",
                "--repro-dir",
                "/tmp/r",
            ]))
            .unwrap(),
            Command::Fuzz {
                budget: 50,
                seed: 7,
                max_n: 6,
                mutate: Some(harness::Mutation::SuppressRelay),
                repro_dir: "/tmp/r".into(),
                replay: None,
            }
        );
        for name in ["wrong-value-relay", "early-decision", "vote-off-by-one"] {
            match parse_args(&sv(&["fuzz", "--mutate", name])).unwrap() {
                Command::Fuzz {
                    mutate: Some(m), ..
                } => assert_eq!(m.name(), name),
                other => panic!("{other:?}"),
            }
        }
        let e = parse_args(&sv(&["fuzz", "--mutate", "nope"])).unwrap_err();
        assert!(e.0.contains("unknown mutation"), "{e}");
        match parse_args(&sv(&["fuzz", "--replay", "results/repros/x.json"])).unwrap() {
            Command::Fuzz { replay, .. } => {
                assert_eq!(replay.as_deref(), Some("results/repros/x.json"));
            }
            other => panic!("{other:?}"),
        }
        refuses(&["fuzz", "--trials", "3"], "--trials");
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_exp_and_check() {
        assert_eq!(
            parse_args(&sv(&["exp", "E14"])).unwrap(),
            Command::Exp {
                id: "E14".into(),
                workers: 4,
                out: None,
                trace_out: None,
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "exp",
                "T1",
                "--workers",
                "8",
                "--out",
                "t1.json",
                "--trace-out",
                "t1.trace.json",
            ]))
            .unwrap(),
            Command::Exp {
                id: "T1".into(),
                workers: 8,
                out: Some("t1.json".into()),
                trace_out: Some("t1.trace.json".into()),
            }
        );
        let e = parse_args(&sv(&["exp", "E15"])).unwrap_err();
        assert!(
            e.0.starts_with("unknown experiment `E15` (one of T1, F1, F2,"),
            "{e}"
        );
        assert!(parse_args(&sv(&["exp"])).is_err());
        assert!(parse_args(&sv(&["exp", "E7", "--workers", "0"])).is_err());
        // The per-experiment size flags are gone: `--trails 3` and
        // `--trials abc` used to run the default size and exit 0.
        refuses(&["exp", "E7", "--trails", "3"], "--trails");
        refuses(&["exp", "E7", "--trials", "abc"], "--trials");
        assert_eq!(parse_args(&sv(&["check"])).unwrap(), Command::Check);
        refuses(&["check", "--workers", "2"], "--workers");
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(parse_args(&sv(&["frobnicate"])).is_err());
    }
}
