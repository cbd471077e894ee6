//! One crew of long-lived worker threads for all of the workspace's
//! repeated parallel work: the sharded drain of `degradable::ServiceState`
//! and the node drivers of a `transport` mesh.
//!
//! A [`Crew`] keeps `N` workers, each with a state that the crew's
//! constructor builds on the worker's own thread. [`Crew::run`] posts one
//! call's jobs to one queue; the calling thread may take part with a state
//! of its own. Job `i` goes first to the call's `i`-th thread (the calling
//! thread first when it takes part), so while every thread runs one job
//! of a call, job `i` stays on one thread, and with that thread's
//! allocator, call after call; a thread without a job of its own starts
//! the lowest-numbered job no thread has, so no job waits for a busy or
//! sleeping thread. Each job's output, or its panic's payload, comes back
//! as a value, in job order, once every job of the call has ended: the
//! queue never holds more than one call's jobs. A thread whose job
//! panicked builds its state afresh before its next job. Dropping the crew
//! closes the queue and joins every worker.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// A unit of work a [`Crew`] runs over the state of the thread that starts
/// it.
pub trait Job: Send + 'static {
    /// What each thread of the crew keeps from job to job.
    type State;
    /// What the job gives back.
    type Output: Send + 'static;
    /// Runs the job over `state`.
    fn run(self, state: &mut Self::State) -> Self::Output;
}

/// How a job ended: its output, or the payload of its panic.
pub type Ended<J> = thread::Result<<J as Job>::Output>;

/// Builds a thread's state, on that thread.
type Build<S> = Arc<dyn Fn() -> S + Send + Sync>;

/// `N` long-lived workers and the one queue they take jobs from.
pub struct Crew<J: Job> {
    shared: Arc<Shared<J>>,
    build: Build<J::State>,
    workers: Vec<JoinHandle<()>>,
}

/// What the calling thread and the workers share.
struct Shared<J: Job> {
    queue: Mutex<Queue<J>>,
    /// Workers wait here for jobs, or for the close.
    posted: Condvar,
    /// The calling thread waits here for the last running job to end.
    ended: Condvar,
}

/// The contents of [`Shared::queue`]. Every update is a take, a push or a
/// count, and no job runs under the lock, so a lock poisoned by a panic
/// still guards a valid queue.
struct Queue<J: Job> {
    /// The call's jobs in order, each until a thread starts it.
    jobs: Vec<Option<J>>,
    /// Worker `k`'s own job is job `first + k`.
    first: usize,
    /// Jobs a worker has started and not ended.
    running: usize,
    /// Jobs the workers ended.
    ended: Vec<(usize, Ended<J>)>,
    /// No job will come: the workers are to exit.
    closed: bool,
}

impl<J: Job> Queue<J> {
    /// Starts job `own` if no thread has, else the lowest-numbered job no
    /// thread has started.
    fn take(&mut self, own: usize) -> Option<(usize, J)> {
        let i = match self.jobs.get(own) {
            Some(Some(_)) => own,
            _ => self.jobs.iter().position(Option::is_some)?,
        };
        Some((i, self.jobs[i].take()?))
    }
}

impl<J: Job> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, Queue<J>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, queue: MutexGuard<'a, Queue<J>>) -> MutexGuard<'a, Queue<J>> {
        on.wait(queue).unwrap_or_else(PoisonError::into_inner)
    }

    /// The next job for worker `k`, once there is one; `None` once the
    /// crew is closed.
    fn next(&self, k: usize) -> Option<(usize, J)> {
        let mut queue = self.lock();
        loop {
            if queue.closed {
                return None;
            }
            let own = queue.first + k;
            if let Some(job) = queue.take(own) {
                queue.running += 1;
                return Some(job);
            }
            queue = self.wait(&self.posted, queue);
        }
    }
}

/// Runs `job` over `state`, catching its panic; after a panic, `state`
/// is built afresh.
fn attempt<J: Job>(job: J, state: &mut J::State, build: &Build<J::State>) -> Ended<J> {
    let ran = panic::catch_unwind(AssertUnwindSafe(|| job.run(state)));
    if ran.is_err() {
        *state = build();
    }
    ran
}

impl<J: Job> Crew<J> {
    /// A crew of `workers` threads, each owning a state from `build`, which
    /// must not panic.
    pub fn new(workers: usize, build: impl Fn() -> J::State + Send + Sync + 'static) -> Self {
        let queue = Queue {
            jobs: Vec::new(),
            first: 0,
            running: 0,
            ended: Vec::new(),
            closed: false,
        };
        let mut crew = Crew {
            shared: Arc::new(Shared {
                queue: Mutex::new(queue),
                posted: Condvar::new(),
                ended: Condvar::new(),
            }),
            build: Arc::new(build),
            workers: Vec::new(),
        };
        crew.grow(workers);
        crew
    }

    /// The workers the crew keeps.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns workers until there are `workers`.
    pub fn grow(&mut self, workers: usize) {
        while self.workers.len() < workers {
            let (shared, build) = (Arc::clone(&self.shared), Arc::clone(&self.build));
            let k = self.workers.len();
            self.workers.push(thread::spawn(move || {
                let mut state = build();
                while let Some((index, job)) = shared.next(k) {
                    let ran = attempt(job, &mut state, &build);
                    let mut queue = shared.lock();
                    queue.running -= 1;
                    queue.ended.push((index, ran));
                    if queue.running == 0 && queue.jobs.iter().all(Option::is_none) {
                        shared.ended.notify_one();
                    }
                }
            }));
        }
    }

    /// Runs `jobs` and returns how each ended, in job order, once all
    /// have. With `own`, the calling thread takes part over that state,
    /// starting job 0 at once, and a job that panicked there leaves `own`
    /// built afresh; without it, it waits, and the crew must have a worker.
    pub fn run(
        &mut self,
        jobs: impl IntoIterator<Item = J>,
        mut own: Option<&mut J::State>,
    ) -> Vec<Ended<J>> {
        // Collected before the lock: a panic while the jobs are made posts
        // none of them.
        let jobs: Vec<Option<J>> = jobs.into_iter().map(Some).collect();
        assert!(
            own.is_some() || jobs.is_empty() || !self.workers.is_empty(),
            "a call the calling thread does not take part in needs a worker"
        );
        let mut ended = Vec::with_capacity(jobs.len());
        let mut queue = self.shared.lock();
        (queue.jobs, queue.first) = (jobs, usize::from(own.is_some()));
        self.shared.posted.notify_all();
        loop {
            let state = own.as_deref_mut();
            if let Some(((index, job), state)) = state.and_then(|s| Some((queue.take(0)?, s))) {
                drop(queue);
                ended.push((index, attempt(job, state, &self.build)));
                queue = self.shared.lock();
            } else if queue.running > 0 || queue.jobs.iter().any(Option::is_some) {
                queue = self.shared.wait(&self.shared.ended, queue);
            } else {
                break;
            }
        }
        ended.append(&mut queue.ended);
        drop(queue);
        ended.sort_unstable_by_key(|&(index, _)| index);
        ended.into_iter().map(|(_, ran)| ran).collect()
    }
}

impl<J: Job> Drop for Crew<J> {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.posted.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches its jobs' panics, so none can end in one.
            let _ = worker.join();
        }
    }
}

impl<J: Job> std::fmt::Debug for Crew<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crew")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// A job of the tests: it records its tag in its thread's state and
    /// reports where it ran and what that state held. The first job of a
    /// call can hold the calling thread until `others` jobs have ended on
    /// workers; a job can panic after recording its tag.
    struct Probe {
        tag: usize,
        panics: bool,
        hold_for: Option<usize>,
        ended: Arc<AtomicUsize>,
    }

    /// Where a [`Probe`] ran, and the tags its thread's state had seen,
    /// its own last.
    type Seen = (ThreadId, Vec<usize>);

    impl Job for Probe {
        type State = Vec<usize>;
        type Output = Seen;

        fn run(self, state: &mut Vec<usize>) -> Seen {
            if let Some(others) = self.hold_for {
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.ended.load(Ordering::SeqCst) < others {
                    assert!(Instant::now() < deadline, "the workers never ran");
                    thread::yield_now();
                }
            }
            state.push(self.tag);
            let seen = (thread::current().id(), state.clone());
            self.ended.fetch_add(1, Ordering::SeqCst);
            assert!(!self.panics, "probe {} panics", self.tag);
            seen
        }
    }

    /// `count` probes tagged from `first`; the probes tagged in `panics`
    /// panic, and with `hold`, the first holds until all others ended.
    fn probes(first: usize, count: usize, panics: &[usize], hold: bool) -> Vec<Probe> {
        let ended = Arc::new(AtomicUsize::new(0));
        (first..first + count)
            .map(|tag| Probe {
                tag,
                panics: panics.contains(&tag),
                hold_for: (hold && tag == first).then_some(count - 1),
                ended: Arc::clone(&ended),
            })
            .collect()
    }

    fn crew(workers: usize) -> Crew<Probe> {
        Crew::new(workers, Vec::new)
    }

    #[test]
    fn every_job_runs_once_and_ends_in_job_order() {
        for workers in [0usize, 1, 2, 5] {
            let mut crew = crew(workers);
            assert_eq!(crew.workers(), workers);
            for call in 0..20 {
                // The calling thread takes part in every other call.
                let mut own = Vec::new();
                let own = (workers == 0 || call % 2 == 0).then_some(&mut own);
                let ended = crew.run(probes(100 * call, 9, &[], false), own);
                let tags: Vec<usize> = ended
                    .into_iter()
                    .map(|ran| *ran.expect("no probe panics").1.last().expect("a tag"))
                    .collect();
                let expected: Vec<usize> = (100 * call..100 * call + 9).collect();
                assert_eq!(tags, expected, "{workers} workers, call {call}");
            }
        }
    }

    #[test]
    fn a_job_runs_wherever_it_is_started_first() {
        let caller = thread::current().id();
        // No worker: the calling thread runs every job, in order.
        let mut own = Vec::new();
        let ended = crew(0).run(probes(0, 6, &[], false), Some(&mut own));
        assert!(ended
            .iter()
            .all(|ran| ran.as_ref().expect("no panic").0 == caller));
        assert_eq!(own, (0..6).collect::<Vec<_>>());
        // Two workers, and the first job holds the calling thread until
        // the other five have ended: the workers ran all five.
        let mut own = Vec::new();
        let ended = crew(2).run(probes(0, 6, &[], true), Some(&mut own));
        let ran_on: Vec<ThreadId> = ended
            .into_iter()
            .map(|ran| ran.expect("no panic").0)
            .collect();
        assert_eq!(ran_on[0], caller);
        assert!(ran_on[1..].iter().all(|id| *id != caller), "{ran_on:?}");
        assert_eq!(own, vec![0]);
    }

    /// Waits until every job of its call has started, then reports where
    /// it ran: no thread can run two jobs of one call.
    struct Meet(Arc<std::sync::Barrier>);

    impl Job for Meet {
        type State = ();
        type Output = ThreadId;

        fn run(self, (): &mut ()) -> ThreadId {
            self.0.wait();
            thread::current().id()
        }
    }

    #[test]
    fn job_i_goes_to_the_calls_i_th_thread_first() {
        let caller = thread::current().id();
        let mut crew: Crew<Meet> = Crew::new(4, || ());
        let mut call = |jobs: usize, own: Option<&mut ()>| -> Vec<ThreadId> {
            let meet = Arc::new(std::sync::Barrier::new(jobs));
            let ended = crew.run((0..jobs).map(|_| Meet(Arc::clone(&meet))), own);
            ended
                .into_iter()
                .map(|ran| ran.expect("no panic"))
                .collect()
        };
        // Without the calling thread, job k is worker k's, call after call.
        let workers = call(4, None);
        assert!(!workers.contains(&caller));
        for _ in 0..10 {
            assert_eq!(call(4, None), workers);
        }
        // With it, job 0 is the calling thread's and job k + 1 worker k's.
        for _ in 0..10 {
            let ran_on = call(5, Some(&mut ()));
            assert_eq!(ran_on[0], caller);
            assert_eq!(ran_on[1..], workers);
        }
    }

    #[test]
    fn a_panicking_job_is_a_value_and_the_others_of_its_call_still_end() {
        for workers in [0usize, 1, 3] {
            let mut crew = crew(workers);
            let ended = crew.run(probes(0, 8, &[0, 3, 7], false), Some(&mut Vec::new()));
            assert_eq!(ended.len(), 8);
            for (tag, ran) in ended.iter().enumerate() {
                match ran {
                    Err(payload) => {
                        assert!([0, 3, 7].contains(&tag), "{workers} workers: {tag}");
                        let message = payload.downcast_ref::<String>().expect("a message");
                        assert_eq!(*message, format!("probe {tag} panics"));
                    }
                    Ok((_, seen)) => assert_eq!(seen.last(), Some(&tag)),
                }
            }
            assert_eq!(ended.iter().filter(|ran| ran.is_err()).count(), 3);
        }
    }

    #[test]
    fn the_next_call_ends_nothing_of_the_call_before_it() {
        for workers in [0usize, 1, 2, 8] {
            let mut crew = crew(workers);
            for call in 0..10 {
                // Every other call panics, on the calling thread's first
                // job and on jobs the workers may be running.
                let panics: Vec<usize> = if call % 2 == 0 { vec![0, 5, 9] } else { vec![] };
                let first = 100 * call;
                let panics: Vec<usize> = panics.into_iter().map(|p| first + p).collect();
                let ended = crew.run(probes(first, 10, &panics, false), Some(&mut Vec::new()));
                assert_eq!(ended.len(), 10);
                for (k, ran) in ended.into_iter().enumerate() {
                    match ran {
                        Ok((_, seen)) => {
                            assert!(!panics.contains(&(first + k)));
                            assert_eq!(seen.last(), Some(&(first + k)));
                        }
                        Err(_) => assert!(panics.contains(&(first + k))),
                    }
                }
            }
        }
    }

    #[test]
    fn a_thread_whose_job_panicked_starts_its_next_job_from_fresh_state() {
        let builds = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&builds);
        let mut crew: Crew<Probe> = Crew::new(1, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        });
        let mut own = vec![99];
        // The calling thread holds the first job until the worker has
        // ended the second, so the worker runs it: it panics there.
        let ended = crew.run(probes(0, 2, &[1], true), Some(&mut own));
        assert!(ended[1].is_err());
        assert_eq!(own, vec![99, 0], "the calling thread's job did not panic");
        // The same again, and the worker's state holds only the new tag.
        let ended = crew.run(probes(10, 2, &[], true), Some(&mut own));
        let (_, seen) = ended[1].as_ref().expect("no panic");
        assert_eq!(*seen, vec![11], "the worker's state was built afresh");
        assert_eq!(
            builds.load(Ordering::SeqCst),
            2,
            "built at start and after the panic"
        );
        // A job that panics on the calling thread leaves it a fresh state
        // too, before its next job.
        let ended = crew.run(probes(20, 1, &[20], false), Some(&mut own));
        assert!(ended[0].is_err());
        assert!(own.is_empty(), "{own:?}");
        assert_eq!(builds.load(Ordering::SeqCst), 3);
    }
}
