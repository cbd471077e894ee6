//! The `wire_tcp_n7` workload: one client deciding one BYZ instance at a
//! time across a loopback TCP mesh (`transport::run_tcp`), the next
//! instance offered only after the previous one has been decided. No
//! delay is injected: latency is the mesh's own set-up, round barriers and
//! teardown.

use crate::check::{check_wire, Tally};
use crate::e2e::{measure_setup, read_yardstick, timed, Budget, Clock, Recorder};
use crate::gen::{self, WireSpec};
use crate::report::{ratio, traced_report, PassReport};
use crate::span::{write_trace, Ledger, Tracer};
use crate::stats::median;
use crate::svclayers::{wave_of_one, ServiceRig, ServiceSums};
use crate::wirelayers::{self, decide_over_tcp, WireSums};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Untimed instances run before the first timed one.
const WARMUP_INSTANCES: u64 = 3;

/// Instance indices of the warm-up, far from the measured ones.
const WARMUP_BASE: u64 = 1 << 40;

fn warm_up(spec: &WireSpec, seed: u64) {
    for i in 0..WARMUP_INSTANCES {
        let inst = gen::wire_instance(spec, seed, WARMUP_BASE + i);
        black_box(decide_over_tcp(spec.shape(), &inst)).ok();
    }
}

/// The end-to-end pass: every instance timed from the `run_tcp` call to
/// its return, then verified. Nearly all of that time is waiting (round
/// barriers, timers, the kernel), so it stays on the wall clock.
pub fn run_end_to_end(spec: &WireSpec, seed: u64, budget: Budget) -> PassReport {
    let ((), setup_s) = measure_setup(Clock::Wall, budget.setup_seconds(), || warm_up(spec, seed));
    let mut tally = Tally::default();
    let mut rec = Recorder::start(budget, Clock::Wall, spec.period());
    while rec.more() {
        let inst = gen::wire_instance(spec, seed, rec.next_op());
        let (outcome, wall_ns) = timed(|| decide_over_tcp(spec.shape(), &inst));
        match outcome {
            Ok((decisions, sent)) => {
                rec.record(wall_ns, 1, sent);
                check_wire(spec, &inst, Ok(&decisions), &mut tally);
            }
            Err(why) => {
                rec.record(wall_ns, 0, 0);
                check_wire(spec, &inst, Err(why), &mut tally);
            }
        }
    }
    rec.finish(spec.name, seed, &setup_s, tally)
}

/// The traced pass: every instance is driven by the benchmark's own loop
/// with spans on, then replayed through `run_sim`, `run_channel`,
/// `run_tcp`, the simulator under the same loop, the frame codec, the
/// chaos layer and the per-view fold, and — as a wave of one — through the
/// service path and the layers under it. All must decide alike.
pub fn run_traced(
    spec: &WireSpec,
    seed: u64,
    budget: Budget,
    trace_path: &std::path::Path,
) -> PassReport {
    let shape = spec.shape();
    let mut tracer = Tracer::new();
    let mut service = ServiceSums::default();
    let mut wire = WireSums::default();
    let mut tally = Tally::default();
    let mut rig = ServiceRig::build(
        shape,
        |k| wave_of_one(&gen::wire_instance(spec, seed, k), k),
        &mut tracer,
        &mut service,
    );
    warm_up(spec, seed);
    // The per-layer metrics are as measured; what the yardstick read beside
    // them says how fast the host was.
    let mut yardstick = Vec::new();

    let started = Instant::now();
    let mut op = 0u64;
    while budget.allows(op, started) {
        let inst = gen::wire_instance(spec, seed, op);
        yardstick.push(read_yardstick());
        match wirelayers::driven_tcp(shape, &inst, &mut tracer, "op", op, &mut wire) {
            Ok(driven) => {
                check_wire(spec, &inst, Ok(&driven.decisions), &mut tally);
                for why in &driven.failures {
                    tally.fail(format!("instance {op}: node failure: {why}"));
                }
                let replays = tracer.open("replay", None, op);
                let outcome =
                    wirelayers::replay(shape, &inst, &driven, &mut tracer, replays, op, &mut wire)
                        .and_then(|()| {
                            let wave = wave_of_one(&inst, op);
                            let (batch, _) =
                                rig.operate(&wave, &mut tracer, "probe", op, &mut service);
                            if batch.run.decisions.first() != Some(&driven.decisions) {
                                return Err(format!(
                                    "the service decided {:?}, the TCP mesh decided {:?}",
                                    batch.run.decisions.first(),
                                    driven.decisions
                                ));
                            }
                            rig.replay(
                                &wave,
                                &batch.run.decisions,
                                &mut tracer,
                                replays,
                                op,
                                &mut service,
                            )
                        });
                tracer.close(replays);
                if let Err(why) = outcome {
                    tally.fail(format!("{} instance {op}: {why}", spec.name));
                }
            }
            Err(why) => check_wire(spec, &inst, Err(why), &mut tally),
        }
        op += 1;
    }

    let ledger = Ledger::of(tracer.spans(), "op", Some("node.drive"));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    service.metrics(&mut v);
    wire.metrics(&mut v);
    v.insert("host.yardstick_us", median(&yardstick) / 1e3);
    v.insert(
        "process.cpu_us_per_decision",
        ratio(wire.run_tcp_cpu_s * 1e6, wire.replayed() as f64),
    );
    v.insert("trace.overhead_ratio", wire.trace_overhead_ratio());
    if let Err(e) = write_trace(trace_path, spec.name, seed, tracer.spans()) {
        tally.fail(format!("cannot write {}: {e}", trace_path.display()));
    }
    traced_report(spec.name, seed, op, tally, v, &ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WIRE_TCP_N7;
    use crate::report::PER_LAYER;

    #[test]
    fn traced_pass_replays_agree_and_the_ledger_sums_to_one() {
        let dir = std::env::temp_dir().join(format!("dagree-bench-wire-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let report = run_traced(&WIRE_TCP_N7, 5, Budget::Ops(2), &path);
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally.reasons);
        assert_eq!(report.tally.attempted, 2);
        let get = |name: &str| report.metric(name).unwrap().value;
        let total: f64 = report.ledger.iter().map(|(_, share)| share).sum();
        assert!((total - 1.0).abs() < 1e-9, "{:?}", report.ledger);
        assert!(get("ledger.attributed_share") > 0.5);
        assert_eq!(get("node.sends_per_instance"), 156.0);
        assert_eq!(get("mesh.failed_nodes"), 0.0);
        // Every layer has a reading on every workload: no timing reads 0.
        for def in PER_LAYER
            .iter()
            .filter(|d| ["ns", "us", "ms"].contains(&d.unit))
        {
            assert!(get(def.name) > 0.0, "{} was not measured", def.name);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
