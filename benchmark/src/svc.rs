//! The `svc_*` workloads: one client feeding a persistent
//! `degradable::ServiceState` wave by wave — the next wave is offered only
//! after the previous one has been drained (a closed loop).

use crate::check::{check_wave, Tally};
use crate::e2e::{measure_setup, read_yardstick, timed, Budget, Clock, Recorder, REFERENCE_EVERY};
use crate::gen::{self, SvcSpec};
use crate::report::{ratio, traced_report, PassReport};
use crate::span::{write_trace, Ledger, Tracer};
use crate::stats::median;
use crate::svclayers::{drain, offer, warm_service, ServiceRig, ServiceSums};
use crate::wirelayers::{self, WireSums};
use std::collections::BTreeMap;
use std::time::Instant;

/// One traced wave in this many also sends its first instance down the
/// wire path (a TCP mesh of N nodes costs far more than a wave).
const WIRE_PROBE_EVERY: u64 = 64;

/// The end-to-end pass: tracing off, every wave timed from its first
/// `ingest` to `drain` returning, then verified outside the timed section.
/// The service decides on a simulated network with no wall delay, so the
/// time is processor time and goes on the compensated clock.
pub fn run_end_to_end(spec: &SvcSpec, seed: u64, budget: Budget) -> PassReport {
    let (mut svc, setup_s) = measure_setup(Clock::Compensated, budget.setup_seconds(), || {
        warm_service(spec.shape(), |k| gen::wave(spec, seed, k))
    });
    let mut tally = Tally::default();
    let mut rec = Recorder::start(budget, Clock::Compensated, spec.period());
    while rec.more() {
        let wave = gen::wave(spec, seed, rec.next_op());
        let with_reference = rec.reference_due();
        let (batch, wall_ns) = timed(|| {
            offer(&mut svc, &wave);
            drain(&mut svc, &wave)
        });
        rec.record(
            wall_ns,
            batch.run.decisions.len() as u64,
            batch.run.net.sent as u64,
        );
        check_wave(
            spec,
            &wave,
            &batch.ids,
            &batch.run.decisions,
            with_reference,
            &mut tally,
        );
    }
    rec.finish(spec.name, seed, &setup_s, tally)
}

/// The traced pass: spans around every call into a layer, each traced
/// wave replayed through the lower layers (which must decide what the
/// service decided), every other wave run with recording off so the
/// tracing's own cost shows.
pub fn run_traced(
    spec: &SvcSpec,
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
        |k| gen::wave(spec, seed, k),
        &mut tracer,
        &mut service,
    );
    // Wall and count of the operations with span recording on, and off.
    let (mut traced, mut plain) = ((0u64, 0u64), (0u64, 0u64));
    // The per-layer metrics are as measured; what the yardstick read beside
    // them says how fast the host was.
    let mut yardstick = Vec::new();

    let started = Instant::now();
    let mut op = 0u64;
    while budget.allows(op, started) {
        let wave = gen::wave(spec, seed, op);
        let recording = op.is_multiple_of(2);
        tracer.set_enabled(recording);
        if op.is_multiple_of(REFERENCE_EVERY) {
            yardstick.push(read_yardstick());
        }
        let (batch, op_ns) = rig.operate(&wave, &mut tracer, "op", op, &mut service);
        if recording {
            traced = (traced.0 + op_ns, traced.1 + 1);
            let replays = tracer.open("replay", None, op);
            let mut outcome = rig.replay(
                &wave,
                &batch.run.decisions,
                &mut tracer,
                replays,
                op,
                &mut service,
            );
            if outcome.is_ok() && op.is_multiple_of(WIRE_PROBE_EVERY) {
                let inst = wave.first_as_wire_instance();
                outcome = wirelayers::driven_tcp(shape, &inst, &mut tracer, "probe", op, &mut wire)
                    .and_then(|driven| {
                        if batch.run.decisions.first() != Some(&driven.decisions) {
                            return Err(format!(
                                "the TCP mesh decided {:?}, the service decided {:?}",
                                driven.decisions,
                                batch.run.decisions.first()
                            ));
                        }
                        wirelayers::replay(
                            shape,
                            &inst,
                            &driven,
                            &mut tracer,
                            replays,
                            op,
                            &mut wire,
                        )
                    });
            }
            tracer.close(replays);
            if let Err(why) = outcome {
                tally.fail(format!("{} wave {op}: {why}", spec.name));
            }
        } else {
            plain = (plain.0 + op_ns, plain.1 + 1);
        }
        check_wave(
            spec,
            &wave,
            &batch.ids,
            &batch.run.decisions,
            op.is_multiple_of(REFERENCE_EVERY),
            &mut tally,
        );
        op += 1;
    }

    let ledger = Ledger::of(tracer.spans(), "op", None);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    service.metrics(&mut v);
    wire.metrics(&mut v);
    v.insert("host.yardstick_us", median(&yardstick) / 1e3);
    v.insert(
        "process.cpu_us_per_decision",
        ratio(service.cpu_s * 1e6, service.instances() as f64),
    );
    v.insert(
        "trace.overhead_ratio",
        ratio(
            ratio(traced.0 as f64, traced.1 as f64),
            ratio(plain.0 as f64, plain.1 as f64),
        ),
    );
    if let Err(e) = write_trace(trace_path, spec.name, seed, tracer.spans()) {
        tally.fail(format!("cannot write {}: {e}", trace_path.display()));
    }
    traced_report(spec.name, seed, op, tally, v, &ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SVC_BYZANTINE_N13, SVC_SMALL_N5};
    use crate::report::PER_LAYER;

    #[test]
    fn same_seed_same_messages_per_decision_other_seed_differs() {
        let spec = &SVC_SMALL_N5;
        let run = |seed| {
            let report = run_end_to_end(spec, seed, Budget::Ops(30));
            assert_eq!(report.tally.failed, 0, "{:?}", report.tally.reasons);
            assert_eq!(report.tally.attempted, 30 * spec.wave as u64);
            report.metric("messages_per_decision").unwrap().value
        };
        let a = run(42);
        assert_eq!(a, run(42), "bit-exact for a seed");
        // The count moves only with how many waves drew a silent node.
        assert_ne!(a, run(43), "fault sets and strategies are seed-drawn");
    }

    #[test]
    fn traced_pass_replays_agree_and_the_ledger_sums_to_one() {
        let dir = std::env::temp_dir().join(format!("dagree-bench-svc-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let report = run_traced(&SVC_BYZANTINE_N13, 5, Budget::Ops(4), &path);
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally.reasons);
        let get = |name: &str| report.metric(name).unwrap().value;
        assert!(
            (get("ledger.attributed_share") + get("ledger.unattributed_share") - 1.0).abs() < 1e-12
        );
        let total: f64 = report.ledger.iter().map(|(_, share)| share).sum();
        assert!((total - 1.0).abs() < 1e-9, "{:?}", report.ledger);
        assert!(get("ledger.attributed_share") > 0.9);
        assert_eq!(get("service.shed_count"), 0.0);
        assert_eq!(get("engine.slots_per_instance"), 1464.0);
        // Every layer has a reading on every workload: no timing reads 0.
        for def in PER_LAYER
            .iter()
            .filter(|d| ["ns", "us", "ms"].contains(&d.unit))
        {
            assert!(get(def.name) > 0.0, "{} was not measured", def.name);
        }
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(obs::JsonValue::parse(&trace).is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
