//! The committed repro files are the pin on the referee's bookkeeping: a
//! repro records the ordinal, the wording and the complaint of the first
//! divergent step, so replaying `results/repros/` holds every later
//! referee to numbering and describing steps exactly as the one that
//! wrote them.

use harness::{replay, JsonValue};
use std::path::Path;

#[test]
fn every_committed_repro_replays_to_its_recorded_first_divergence() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "one repro per mutation: {files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let recorded = JsonValue::parse(&text).unwrap();
        let field = |name: &str| {
            recorded
                .get(name)
                .unwrap_or_else(|| panic!("{}: no field `{name}`", file.display()))
        };
        let outcome = replay(&text).unwrap();
        let live = outcome
            .report
            .violation
            .unwrap_or_else(|| panic!("{} no longer reproduces", file.display()));
        let at = file.display();
        assert_eq!(Some(live.step as u64), field("step").as_u64(), "{at}");
        assert_eq!(Some(&*live.step_desc), field("step_desc").as_str(), "{at}");
        assert_eq!(Some(&*live.violation), field("violation").as_str(), "{at}");
        assert_eq!(live.trace, outcome.recorded_trace, "{at}");
    }
}
