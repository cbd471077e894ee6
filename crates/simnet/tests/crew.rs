//! A crew's workers are threads of the process while it stands, and none
//! of them outlives it. Alone in its own test binary, so that no other
//! test's thread moves the count.

#![cfg(target_os = "linux")]

use simnet::crew::{Crew, Job};
use std::time::{Duration, Instant};

/// The process's thread count, as the kernel reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Adds one to its thread's count of jobs.
struct Count;

impl Job for Count {
    type State = usize;
    type Output = usize;

    fn run(self, seen: &mut usize) -> usize {
        *seen += 1;
        *seen
    }
}

#[test]
fn dropping_a_crew_joins_every_worker() {
    let before = threads();
    let mut crew: Crew<Count> = Crew::new(3, || 0);
    assert_eq!(threads(), before + 3, "three workers stand");
    let ended = crew.run((0..12).map(|_| Count), Some(&mut 0));
    assert_eq!(ended.len(), 12);
    assert!(ended.into_iter().all(|ran| ran.is_ok()));
    crew.grow(5);
    assert_eq!(threads(), before + 5, "grown to five");
    drop(crew);
    // A joined thread has run its last instruction, but the kernel may
    // drop it from the count a moment after the join returns.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "every worker joined");
}
