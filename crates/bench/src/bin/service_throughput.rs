//! **Experiment E21** — persistent service throughput: sustained
//! agreement decisions through a pooled [`degradable::ServiceState`].
//!
//! Workload: per shape `N ∈ {5..13}` (BYZ(1,1) up to N = 8, BYZ(2,2)
//! above), one long-lived service instance ingests a seeded stream in
//! waves sized to the in-flight target — up to 10 000 instances in
//! flight at N = 5, scaling down as the per-instance message volume
//! grows — with senders round-robin over the cluster and values cycling
//! a small domain. The first wave is a warmup drained under disabled
//! observability (it builds the per-sender arenas and the store pool);
//! the measured waves then drain with recording on, so the `svc.pool.*`
//! counters in the report cover exactly the steady state the pooling
//! contract is about. One measured wave per cell is replayed through
//! the one-shot [`degradable::run_batch`] oracle on identical inputs as
//! a live decision-equivalence sample.
//!
//! The report lands in **`BENCH_service_throughput.json`** at the repo
//! root (override with `--out`). Flags beyond the shared
//! [`RunArgs`]: `--max-n N` caps the sweep (CI smoke), `--no-timing`
//! drops the wall columns so the report is bit-identical across
//! `--workers 1/2/8` (the worker count is the service's resolve shard
//! count; decisions and counters are worker-count-independent by
//! construction).
//!
//! Acceptance (declarative [`SloSpec`], recorded in the report):
//! arena reuse ≥ 95 % of pool requests after warmup (measured window —
//! it is 100 % by construction, the gate guards the pooling contract),
//! store reuse ≥ 95 %, zero sheds (waves never exceed the queue), zero
//! decision mismatches against the oracle, and per-instance work tails
//! `svc.instance.messages` p99 ≤ 2048 / `svc.instance.logical`
//! p99 ≤ 1024 across every shape.

use degradable::{
    run_batch, BatchInstance, BatchOptions, Params, ServiceConfig, ServiceState, Strategy, Val,
};
use harness::report::Table;
use harness::{Report, RunArgs, SloSpec, SweepRunner};
use obs::{Obs, TimeMode};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One sweep cell: a BYZ(m,m) shape and its in-flight target.
#[derive(Debug, Clone, Copy)]
struct Cell {
    m: usize,
    n: usize,
    in_flight: usize,
}

/// How many instances a shape keeps in flight per wave: 10 000 at
/// N = 5, shrinking as per-instance message volume grows so every cell
/// finishes in comparable wall time.
fn in_flight_for(n: usize) -> usize {
    10_000 / (n - 4)
}

const MEASURED_WAVES: usize = 3;

/// Per-cell aggregate.
struct Row {
    m: usize,
    n: usize,
    in_flight: usize,
    decided: u64,
    arena_builds: u64,
    arena_reuses: u64,
    store_reuses: u64,
    shed: u64,
    p50_logical: u64,
    p99_logical: u64,
    p50_messages: u64,
    p99_messages: u64,
    wall_nanos: u64,
    mismatches: usize,
}

impl Row {
    /// Sustained decisions per second over the measured waves.
    fn rate(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.decided as f64 * 1e9 / self.wall_nanos as f64
    }

    fn cells(&self, timing: bool) -> Vec<String> {
        let mut out = vec![
            self.m.to_string(),
            self.n.to_string(),
            self.in_flight.to_string(),
            self.decided.to_string(),
            self.arena_builds.to_string(),
            self.arena_reuses.to_string(),
            self.store_reuses.to_string(),
            self.shed.to_string(),
            self.p50_logical.to_string(),
            self.p99_logical.to_string(),
            self.p50_messages.to_string(),
            self.p99_messages.to_string(),
        ];
        if timing {
            out.push(self.wall_nanos.to_string());
            out.push(format!("{:.0}", self.rate()));
        } else {
            out.extend(std::iter::repeat_n("-".to_string(), 2));
        }
        out
    }
}

fn run_cell(cell: &Cell, workers: usize, seed: u64, timing: bool, obs: &mut Obs) -> Row {
    let Cell { m, n, in_flight } = *cell;
    let params = Params::new(m, m).expect("u = m is valid");
    let config = ServiceConfig {
        queue_capacity: in_flight,
        workers,
    };
    let mut svc: ServiceState<u64> =
        ServiceState::new(params, n, config).expect("shapes are in 5..=13");
    let strategies: BTreeMap<NodeId, Strategy<u64>> = BTreeMap::new();

    let mut next_id = 0u64;
    let mut offer_wave = |svc: &mut ServiceState<u64>| -> Vec<BatchInstance<u64>> {
        let mut wave = Vec::with_capacity(in_flight);
        for _ in 0..in_flight {
            let inst = BatchInstance {
                sender: NodeId::new((next_id as usize) % n),
                value: Val::Value(next_id % 5),
            };
            svc.ingest(next_id, inst.clone())
                .expect("wave size equals queue capacity");
            wave.push(inst);
            next_id += 1;
        }
        wave
    };

    // Warmup: builds every per-sender arena and the store pool, outside
    // the recording window, so the measured `svc.pool.*` counters speak
    // only about the steady state.
    offer_wave(&mut svc);
    svc.drain_observed(&strategies, seed, &mut Obs::disabled());
    let warmed = svc.stats();

    // Measured waves, one local recorder per cell so the table can show
    // per-shape quantiles before everything merges into the report.
    let mut local = Obs::enabled();
    let mut mismatches = 0usize;
    let t0 = Instant::now();
    for wave_idx in 0..MEASURED_WAVES {
        let wave = offer_wave(&mut svc);
        let drain_seed = seed ^ (wave_idx as u64 + 1);
        let batch = svc.drain_observed(&strategies, drain_seed, &mut local);
        if wave_idx == 0 {
            let opts = BatchOptions::new();
            let oracle = run_batch(params, n, &wave, &strategies, drain_seed, opts)
                .expect("the service validated this shape");
            if oracle.decisions != batch.run.decisions {
                mismatches += 1;
            }
        }
    }
    let wall_nanos = if timing {
        t0.elapsed().as_nanos() as u64
    } else {
        0
    };

    let stats = svc.stats();
    let quantiles = |name: &str| {
        let h = local
            .registry()
            .histogram(name)
            .expect("recorded histogram");
        (
            h.quantile(0.5).map_or(0, |v| v as u64),
            h.quantile(0.99).map_or(0, |v| v as u64),
        )
    };
    let (p50_logical, p99_logical) = quantiles("svc.instance.logical");
    let (p50_messages, p99_messages) = quantiles("svc.instance.messages");
    local.add("e21.decision_mismatches", mismatches as u64);
    obs.merge(&local);

    Row {
        m,
        n,
        in_flight,
        decided: stats.decided - warmed.decided,
        arena_builds: stats.arena_builds - warmed.arena_builds,
        arena_reuses: stats.arena_reuses - warmed.arena_reuses,
        store_reuses: stats.store_reuses - warmed.store_reuses,
        shed: stats.shed,
        p50_logical,
        p99_logical,
        p50_messages,
        p99_messages,
        wall_nanos,
        mismatches,
    }
}

fn main() {
    println!("E21: persistent service throughput — pooled ServiceState under sustained load");
    let args = RunArgs::parse();
    let mut max_n = 13usize;
    let mut timing = true;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--no-timing" => timing = false,
            "--max-n" => {
                if let Some(v) = raw.next().and_then(|v| v.parse().ok()) {
                    max_n = v;
                }
            }
            _ => {
                if let Some(v) = arg.strip_prefix("--max-n=").and_then(|v| v.parse().ok()) {
                    max_n = v;
                }
            }
        }
    }

    let master_seed = args.seed_or(0xE21);
    let workers = args.workers_or(1);
    let runner = SweepRunner::new(workers);

    let cells: Vec<Cell> = (5..=13)
        .filter(|&n| n <= max_n)
        .map(|n| Cell {
            m: if n <= 8 { 1 } else { 2 },
            n,
            in_flight: in_flight_for(n),
        })
        .collect();

    let mut obs_rec = Obs::enabled();
    let rows = runner.map_observed(
        master_seed,
        &cells,
        &mut obs_rec,
        |_, cell, mut rng, obs| run_cell(cell, workers, rng.below(u64::MAX), timing, obs),
    );

    let mismatches: usize = rows.iter().map(|r| r.mismatches).sum();
    let decided: u64 = rows.iter().map(|r| r.decided).sum();
    let arena_reuse_x100 = {
        let reg = obs_rec.registry();
        let builds = reg.counter("svc.pool.arena_builds");
        let requests = reg.counter("svc.pool.arena_requests");
        ((requests - builds) * 100)
            .checked_div(requests)
            .unwrap_or(0)
    };
    if !timing {
        obs::scrub_timing(&mut obs_rec);
    }

    // The declarative contract: pooling holds in the steady state, the
    // queue never sheds (waves are sized to capacity), the oracle never
    // disagrees, and per-instance work tails stay bounded across shapes.
    let spec = SloSpec::new("e21-service-steady-state")
        .ratio_at_least("svc.pool.arena_reuses", "svc.pool.arena_requests", 95)
        .ratio_at_least("svc.pool.store_reuses", "svc.pool.store_requests", 95)
        .zero("svc.queue.shed")
        .zero("e21.decision_mismatches")
        .zero("batch.spoofs_rejected")
        .p99_at_most("svc.instance.messages", 2048)
        .p99_at_most("svc.instance.logical", 1024)
        .counter_at_least("svc.pool.store_reuses", 1);
    let slo = spec.evaluate(obs_rec.registry());
    let slo_passed = slo.passed();
    let slo_failures: Vec<String> = slo.failures().iter().map(|s| s.to_string()).collect();

    let mut report = Report::new("service_throughput");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("max_n", max_n)
        .set_meta("measured_waves", MEASURED_WAVES)
        .set_meta("timing", timing)
        .set_metric("decision_mismatches", mismatches)
        .set_metric("instances_decided", decided)
        .set_metric("arena_reuse_measured_x100", arena_reuse_x100);
    if timing {
        let peak = rows.iter().map(Row::rate).fold(0.0f64, f64::max);
        report.set_metric("peak_instances_per_sec", peak.round() as u64);
    }
    report.set_obs_registry(obs_rec.registry());
    report.set_slo(slo);
    report.add_table(Table::with_rows(
        "persistent service, measured waves after one warmup wave \
         (timing columns '-' under --no-timing)",
        &[
            "m",
            "n",
            "in_flight",
            "decided",
            "arena_builds",
            "arena_reuses",
            "store_reuses",
            "shed",
            "p50_logical",
            "p99_logical",
            "p50_msgs",
            "p99_msgs",
            "wall_ns",
            "inst_per_sec",
        ],
        rows.iter().map(|r| r.cells(timing)).collect(),
    ));
    report.print_tables();
    if let Some(trace_path) = args.trace_out_path() {
        let mode = if timing {
            TimeMode::Wall
        } else {
            TimeMode::Logical
        };
        match std::fs::write(trace_path, obs::chrome_trace_json(&obs_rec, mode)) {
            Ok(()) => println!("\ntrace: {}", trace_path.display()),
            Err(e) => eprintln!("\ntrace write failed: {e}"),
        }
    }
    let default_out = Path::new("BENCH_service_throughput.json");
    let out = args.out_path().unwrap_or(default_out);
    match report.write(Some(out)) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    if mismatches == 0 && slo_passed {
        println!(
            "\nRESULT: {decided} instances decided, oracle-identical, \
             {arena_reuse_x100}% arena reuse in the measured window"
        );
    } else {
        println!("\nRESULT: FAIL (mismatches={mismatches}, slo failures: {slo_failures:?})");
        std::process::exit(1);
    }
}
