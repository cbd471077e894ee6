//! Arena-backed EIG engine: shared, iterative evaluation of BYZ(m, u)
//! receive trees.
//!
//! The reference evaluator ([`crate::reference_eval`], i.e.
//! [`crate::eig::run_eig_full`]) folds one [`crate::EigView`] per
//! receiver: every view re-derives the overlapping subtree votes of the
//! shared EIG unfolding, paying `O(n)` `BTreeMap` lookups and a `Path`
//! allocation per visited label. This module replaces that per-receiver
//! recursion with a single flat arena shared by *all* receivers:
//!
//! * [`PathArena`] interns every relay label σ (a repetition-free path
//!   rooted at the sender) exactly once into a breadth-first `Vec`,
//!   indexed by compact `u32` [`PathId`]s. Children of a node are
//!   contiguous, so interning a path is a walk of popcount ranks and
//!   resolving an id back to its [`Path`] is a parent-chain walk.
//! * [`EigStore`] is the dense slot table `store[receiver][σ]` — one
//!   contiguous column per receiver — filled breadth-first from relay
//!   envelopes (first write wins, duplicates fold idempotently — exactly
//!   the [`crate::EigView::record`] semantics).
//! * [`EigEngine::resolve`] runs one bottom-up pass computing, for
//!   every internal label and **all receivers at once**, what each
//!   receiver resolves it to. Subtrees that look identical to every
//!   receiver collapse to a single memoized `VOTE(n-ℓ-m, n-ℓ)`
//!   application instead of one per receiver; the fan-out within a level
//!   is parallelized with `std::thread::scope` behind a `workers` knob
//!   mirroring the harness `SweepRunner`.
//!
//! # Memoization soundness
//!
//! At a label σ of length ℓ the reference evaluator hands receiver `r`
//! the multiset `{store[σ][r]} ∪ {resolve(σ·j, r) : j ∉ σ, j ≠ r}`.
//! The multisets of two receivers differ in two ways only: the *own*
//! slot `store[σ][r]`, and the one child `σ·r` that `r` itself relayed
//! (excluded from its own gather). Therefore, if every off-path slot of
//! σ holds the same effective value `a` (absent slots read as `V_d`)
//! and every child resolved to the same value `v` **for every
//! receiver** — a leaf child: every slot of it in the store; an internal
//! child: its entry in the walk's `shared` table — then every receiver's
//! multiset is `{a} ∪ {v × (n-ℓ-1)}` — identical — and one `VOTE` stands
//! in for all `n-ℓ` of them. The collapse is re-checked per label from
//! the actual stored values, which is why memoization can never leak
//! across fault-set or adversary-table boundaries: a different fault set
//! or lie table changes the stored values, the uniformity test fails, and
//! the engine falls back to exact per-receiver votes (see DESIGN.md §5c).
//!
//! Decisions are **bit-identical** to the reference evaluator by
//! construction: the slow path gathers exactly the reference multiset
//! and votes it with [`vote_scan`], which is [`crate::vote::vote`]
//! without the map, and the fast path votes the shared multiset with
//! [`vote_two`]. `tests/engine_equivalence.rs` checks this differentially
//! over the full E10 certification space.
//!
//! # One walk over columns
//!
//! The walk's results live in two tables over the internal labels only
//! (every label above the deepest level — 13 of 145 at N = 13), allocated
//! once per resolve: `per`, label-major, what each receiver resolves a
//! label to, and `shared`, the one value all of a label's receivers
//! resolve it to when they agree (`None` when they do not). A worker
//! chunk writes one disjoint slice of each. Leaves get no entry: the store
//! is receiver-major, so what receiver `r` gathers at a parent of leaves
//! is already one contiguous run of its column — the parent's children,
//! less the one `r` relayed itself — and is read from there. No label
//! and no vote allocates: the tables and one gather buffer per chunk are
//! all the walk holds.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::eig::{Fabricate, VoteRule};
use crate::path::{path_count, Path};
use crate::value::AgreementValue;
use crate::vote::{vote_scan, vote_two};
use obs::Obs;
use simnet::{EigPerf, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Instant;

/// Typed construction errors for the arena-backed engine.
///
/// The engine packs per-path membership into `u64` bitmasks
/// (`ArenaNode::members`), which bounds every arena to `n <= 64` nodes.
/// The panicking constructors
/// ([`PathArena::new`], [`EigEngine::new`]) keep their historical
/// assert-style contract for internal callers that already validated
/// their shape; callers handling external configuration should use the
/// `try_*` variants and get one of these values instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `n` exceeds the 64-node ceiling of the `u64` membership
    /// masks (or is zero).
    TooManyNodes {
        /// The rejected system size.
        n: usize,
    },
    /// `sender` is not a node of the `n`-node system.
    SenderOutOfRange {
        /// The rejected sender.
        sender: NodeId,
        /// System size the sender was checked against.
        n: usize,
    },
    /// `depth` was zero — at least the sender round is required.
    ZeroDepth,
    /// The interned label count would overflow the `u32` [`PathId`]
    /// space.
    ArenaOverflow {
        /// Labels the requested shape would intern.
        labels: u128,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TooManyNodes { n } => {
                write!(f, "arena supports 1 <= n <= 64, got n = {n}")
            }
            EngineError::SenderOutOfRange { sender, n } => {
                write!(f, "sender {sender} out of range for {n} nodes")
            }
            EngineError::ZeroDepth => write!(f, "at least the sender round is required"),
            EngineError::ArenaOverflow { labels } => {
                write!(f, "arena would overflow u32 ids ({labels} labels)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Compact index of an interned relay label in a [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The root label (the bare sender path).
    pub const ROOT: PathId = PathId(0);

    /// Dense index into the arena's node vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned EIG node. Children are contiguous, ordered by ascending
/// relayer id — the same lexicographic breadth-first order as
/// [`crate::paths_of_length`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaNode {
    /// Last node on the path (the relayer that appended this label).
    pub(crate) last: NodeId,
    /// Parent arena index; `u32::MAX` for the root.
    pub(crate) parent: u32,
    /// First child arena index (children are contiguous; 0 when none).
    pub(crate) first_child: u32,
    /// Number of children (0 at the deepest level).
    pub(crate) child_count: u32,
    /// Bitmask of the nodes on the path (`n <= 64` is asserted).
    pub(crate) members: u64,
    /// Path length (1 for the root).
    pub(crate) len: u8,
}

/// Flat breadth-first arena of every repetition-free relay label of
/// length `1..=depth` rooted at `sender`, interned once per instance
/// shape and shared by every receiver (and every run of that shape).
#[derive(Debug, Clone)]
pub struct PathArena {
    n: usize,
    sender: NodeId,
    depth: usize,
    mask: u64,
    nodes: Vec<ArenaNode>,
    /// `levels[l]` is the id range of nodes with path length `l + 1`.
    levels: Vec<Range<u32>>,
}

impl PathArena {
    /// Builds the arena for an `n`-node system, the given sender and
    /// tree depth (`depth = m + 1` rounds for BYZ). A `depth` beyond
    /// `n` is harmless: repetition-free paths cannot be longer than
    /// `n`, so deeper levels are simply empty (`path_count` is zero
    /// there too).
    ///
    /// # Panics
    ///
    /// If `n` is not in `1..=64`, `sender` is out of range, or `depth`
    /// is zero. Use [`PathArena::try_new`] to get a typed
    /// [`EngineError`] instead.
    #[allow(clippy::panic)]
    pub fn new(n: usize, sender: NodeId, depth: usize) -> Self {
        Self::try_new(n, sender, depth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PathArena::new`]: rejects the shapes the
    /// panicking constructor asserts on. In particular the `u64`
    /// membership masks (`u64::MAX >> (64 - n)`, `1 << j`) silently
    /// assume `n <= 64`; wider configurations come back as
    /// [`EngineError::TooManyNodes`] instead of a shift panic.
    pub fn try_new(n: usize, sender: NodeId, depth: usize) -> Result<Self, EngineError> {
        if !(1..=64).contains(&n) {
            return Err(EngineError::TooManyNodes { n });
        }
        if sender.index() >= n {
            return Err(EngineError::SenderOutOfRange { sender, n });
        }
        if depth == 0 {
            return Err(EngineError::ZeroDepth);
        }
        let expected: u128 = (1..=depth).map(|l| path_count(n, l)).sum();
        if expected >= u32::MAX as u128 {
            return Err(EngineError::ArenaOverflow { labels: expected });
        }

        let mask = u64::MAX >> (64 - n);
        let mut nodes = vec![ArenaNode {
            last: sender,
            parent: u32::MAX,
            first_child: 0,
            child_count: 0,
            members: 1u64 << sender.index(),
            len: 1,
        }];
        let mut levels = Vec::new();
        levels.push(0u32..1u32);
        for len in 2..=depth.min(n) {
            let prev = levels[len - 2].clone();
            let start = nodes.len() as u32;
            for pid in prev {
                let parent = nodes[pid as usize];
                let first_child = nodes.len() as u32;
                for j in 0..n {
                    if parent.members >> j & 1 == 1 {
                        continue;
                    }
                    nodes.push(ArenaNode {
                        last: NodeId::new(j),
                        parent: pid,
                        first_child: 0,
                        child_count: 0,
                        members: parent.members | 1u64 << j,
                        len: len as u8,
                    });
                }
                nodes[pid as usize].first_child = first_child;
                nodes[pid as usize].child_count = nodes.len() as u32 - first_child;
            }
            levels.push(start..nodes.len() as u32);
        }
        debug_assert_eq!(nodes.len() as u128, expected);
        Ok(PathArena {
            n,
            sender,
            depth,
            mask,
            nodes,
            levels,
        })
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sender every interned label is rooted at.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Maximum interned path length.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total interned labels — matches Σ_{l=1}^{depth} `path_count(n, l)`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Interns `path`, returning its id, or `None` if the path is not a
    /// valid relay label of this arena (wrong sender, out-of-range or
    /// repeated node, or longer than `depth`).
    pub fn intern(&self, path: &Path) -> Option<PathId> {
        let slice = path.as_slice();
        let (&first, rest) = slice.split_first()?;
        if first != self.sender {
            return None;
        }
        let mut id = 0u32;
        for (len, &nid) in rest.iter().enumerate() {
            let node = &self.nodes[id as usize];
            if node.child_count == 0 {
                return None;
            }
            let j = nid.index();
            if j >= self.n {
                return None;
            }
            let avail = !node.members & self.mask;
            if avail >> j & 1 == 0 {
                return None;
            }
            // Children are ordered by relayer over the nodes off the
            // label: `j`'s rank is `j` less the label's nodes below it —
            // a compare per node of a short prefix, where a population
            // count of `avail` is a dozen instructions without `popcnt`.
            let below = slice[..=len].iter().filter(|p| p.index() < j).count();
            id = node.first_child + (j - below) as u32;
        }
        Some(PathId(id))
    }

    /// Reconstructs the [`Path`] an id was interned from (the inverse
    /// of [`PathArena::intern`] — a parent-chain walk).
    pub fn resolve_path(&self, id: PathId) -> Path {
        // Every label but the root appends one relayer; the root is the
        // sender.
        let mut rev = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            rev.push(self.nodes[cur.index()].last);
            cur = parent;
        }
        rev.into_iter()
            .rev()
            .fold(Path::root(self.sender), |path, nid| path.child(nid))
    }

    /// The label `id` extends by its last relayer; `None` for the root.
    pub(crate) fn parent(&self, id: PathId) -> Option<PathId> {
        let parent = self.nodes[id.index()].parent;
        (parent != u32::MAX).then_some(PathId(parent))
    }

    /// Whether `node` lies on the path `id` was interned from.
    pub fn on_path(&self, id: PathId, node: NodeId) -> bool {
        node.index() < 64 && self.nodes[id.index()].members >> node.index() & 1 == 1
    }

    /// All interned ids, in breadth-first (level, then lexicographic)
    /// order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.nodes.len() as u32).map(PathId)
    }
}

/// Dense slot table `store[receiver][σ]` over a [`PathArena`].
///
/// `None` denotes an absent message and reads as `V_d` at resolution
/// time, mirroring [`crate::EigView::seen`]. The first write to a slot
/// wins; duplicates fold idempotently and are not counted as
/// materialized.
///
/// The table is **receiver-major**: a node's column — everything it holds
/// of the instance, in arena (BFS) order — is one contiguous run. The
/// fill is what this is for: a simulated node's turn writes one column of
/// each instance in flight, so its writes stay inside a few kilobytes
/// instead of landing one slot per `n`-wide row across every store of the
/// wave. The resolve reads the same columns: what a receiver gathers at a
/// parent of leaves is one contiguous run of its column, and only a label's
/// own slot is read across columns. [`EigStore::record`], [`EigStore::get`],
/// [`EigStore::clear`] and the private `slots_of` are the only places that
/// index `slots`.
#[derive(Debug, Clone)]
pub struct EigStore<V> {
    /// Interned labels per column (the arena's node count).
    labels: usize,
    slots: Vec<Option<AgreementValue<V>>>,
    materialized: u64,
}

impl<V> EigStore<V> {
    /// An empty store shaped for `arena`.
    pub fn new(arena: &PathArena) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(arena.node_count() * arena.n(), || None);
        EigStore {
            labels: arena.node_count(),
            slots,
            materialized: 0,
        }
    }

    /// Records the value `receiver` holds for the label `id`. Returns
    /// `true` iff this was the first write to the slot (the caller
    /// should relay exactly then, mirroring [`crate::EigView::record`]).
    ///
    /// # Panics
    ///
    /// If `receiver` lies on the label's path — a node never attributes
    /// a value to a path it relayed itself.
    pub fn record(
        &mut self,
        arena: &PathArena,
        id: PathId,
        receiver: NodeId,
        value: AgreementValue<V>,
    ) -> bool {
        assert!(
            !arena.on_path(id, receiver),
            "receiver must not lie on the recorded path"
        );
        let slot = &mut self.slots[receiver.index() * self.labels + id.index()];
        if slot.is_none() {
            *slot = Some(value);
            self.materialized += 1;
            true
        } else {
            false
        }
    }

    /// The value `receiver` holds for `id`, if any was recorded.
    pub fn get(&self, id: PathId, receiver: NodeId) -> Option<&AgreementValue<V>> {
        self.slots[receiver.index() * self.labels + id.index()].as_ref()
    }

    /// Iterator over the slots `receiver` holds — its *column* of the
    /// table, in arena (BFS) order. This is the bridge back to the
    /// per-receiver [`crate::EigView`] world: differential tests
    /// materialize a view from a column and re-resolve the exact same
    /// observations through the reference fold.
    pub fn column(
        &self,
        receiver: NodeId,
    ) -> impl Iterator<Item = (PathId, &AgreementValue<V>)> + '_ {
        self.slots_of(receiver.index())
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (PathId(i as u32), v)))
    }

    /// `receiver`'s column as it is stored: one slot per label, in arena
    /// (BFS) order, `None` where nothing was recorded.
    fn slots_of(&self, receiver: usize) -> &[Option<AgreementValue<V>>] {
        &self.slots[receiver * self.labels..][..self.labels]
    }

    /// Slots materialized so far (first writes only).
    pub fn materialized(&self) -> u64 {
        self.materialized
    }

    /// Resets every slot to absent without releasing the allocation, so
    /// a pooled store can be refilled for the next instance of the same
    /// arena shape. After `clear` the store is indistinguishable from a
    /// fresh [`EigStore::new`] over the same arena — first-write-wins
    /// semantics restart from scratch — but the slot table is reused
    /// instead of rebuilt (the point of [`crate::service::ServiceState`]
    /// pooling).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.materialized = 0;
    }
}

/// Decisions plus perf counters of one engine evaluation.
#[derive(Debug, Clone)]
pub struct EngineRun<V> {
    /// Per-receiver decisions (every node except the sender), exactly
    /// the map the reference evaluator produces.
    pub decisions: BTreeMap<NodeId, AgreementValue<V>>,
    /// Work counters and phase wall times (see [`EigPerf`]).
    pub perf: EigPerf,
}

/// The arena-backed EIG engine: an interned [`PathArena`] plus a
/// `workers` knob for the resolution fan-out.
///
/// Build once per instance shape and reuse across runs — the arena
/// depends only on `(n, sender, depth)`, never on values, fault sets or
/// adversary tables.
///
/// ```
/// use degradable::engine::EigEngine;
/// use degradable::{reference_eval, Val, VoteRule};
/// use simnet::NodeId;
/// use std::collections::BTreeSet;
///
/// let (n, sender, depth) = (4, NodeId::new(0), 2);
/// let faulty: BTreeSet<NodeId> = [NodeId::new(3)].into();
/// let rule = VoteRule::Degradable { m: 1 };
/// let mut lie = |_: &degradable::Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
/// let engine = EigEngine::new(n, sender, depth);
/// let run = engine.run(rule, &Val::Value(7), &faulty, &mut lie);
/// let mut lie = |_: &degradable::Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
/// let reference = reference_eval(n, sender, depth, rule, &Val::Value(7), &faulty, &mut lie);
/// assert_eq!(run.decisions, reference.decisions);
/// ```
#[derive(Debug, Clone)]
pub struct EigEngine {
    arena: PathArena,
    workers: usize,
}

impl EigEngine {
    /// Single-threaded engine for an `n`-node system with the given
    /// sender and tree depth.
    ///
    /// # Panics
    ///
    /// On the shapes [`PathArena::new`] rejects (`n` outside `1..=64`,
    /// sender out of range, zero depth). Use [`EigEngine::try_new`] for
    /// a typed [`EngineError`] instead.
    #[allow(clippy::panic)]
    pub fn new(n: usize, sender: NodeId, depth: usize) -> Self {
        Self::try_new(n, sender, depth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`EigEngine::new`]: invalid shapes — most
    /// notably `n > 64`, which the `u64` membership masks cannot represent —
    /// come back as an [`EngineError`] instead of a panic.
    pub fn try_new(n: usize, sender: NodeId, depth: usize) -> Result<Self, EngineError> {
        Ok(EigEngine {
            arena: PathArena::try_new(n, sender, depth)?,
            workers: 1,
        })
    }

    /// Sets the resolution worker count (0 is clamped to 1). Results
    /// and deterministic counters are independent of this knob; only
    /// wall time changes.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Does nothing; kept so that existing callers still build. It used to
    /// route the resolve through a bitpacked palette VOTE, which was slower
    /// than the one walk over the store on every workload and was removed
    /// (DESIGN.md §5h).
    pub fn with_packed_vote(self) -> Self {
        self
    }

    /// The shared arena.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// Breadth-first fill from a fabricate closure — the synchronous
    /// omniscient execution of [`crate::eig::run_eig_full`], writing
    /// into `store` instead of a `BTreeMap` keyed by [`Path`].
    /// `fabricate` is invoked in the same (label, receiver) order as
    /// the reference executor.
    pub fn fill<V: Clone + Ord>(
        &self,
        store: &mut EigStore<V>,
        sender_value: &AgreementValue<V>,
        faulty: &BTreeSet<NodeId>,
        fabricate: Fabricate<'_, V>,
    ) {
        let arena = &self.arena;
        let n = arena.n;

        // Level 1: the sender distributes its value.
        let root_path = Path::root(arena.sender);
        let sender_faulty = faulty.contains(&arena.sender);
        for r in NodeId::all(n) {
            if r == arena.sender {
                continue;
            }
            let v = if sender_faulty {
                fabricate(&root_path, r, sender_value)
            } else {
                sender_value.clone()
            };
            store.record(arena, PathId::ROOT, r, v);
        }

        // Levels 2..=depth: receivers relay what they received one
        // level up.
        for level in 1..arena.levels.len() {
            for id in arena.levels[level].clone() {
                let node = arena.nodes[id as usize];
                let relayer = node.last;
                // The parent level recorded a value for every receiver off
                // the parent's path, the relayer among them: a missing slot
                // here is a store shaped for another arena.
                #[allow(clippy::expect_used)]
                let truthful = store
                    .get(PathId(node.parent), relayer)
                    .cloned()
                    .expect("relayer must have received the parent value");
                let lie_path = if faulty.contains(&relayer) {
                    Some(arena.resolve_path(PathId(id)))
                } else {
                    None
                };
                for r in NodeId::all(n) {
                    if node.members >> r.index() & 1 == 1 {
                        continue;
                    }
                    let v = match &lie_path {
                        Some(path) => fabricate(path, r, &truthful),
                        None => truthful.clone(),
                    };
                    store.record(arena, PathId(id), r, v);
                }
            }
        }
    }

    /// Fills a fresh store via [`EigEngine::fill`] and resolves it —
    /// the engine counterpart of [`crate::reference_eval`].
    pub fn run<V: Clone + Ord + Send + Sync>(
        &self,
        rule: VoteRule,
        sender_value: &AgreementValue<V>,
        faulty: &BTreeSet<NodeId>,
        fabricate: Fabricate<'_, V>,
    ) -> EngineRun<V> {
        self.run_observed(rule, sender_value, faulty, fabricate, &mut Obs::disabled())
    }

    /// [`EigEngine::run`] with observability: records an `eig.fill`
    /// span (logical cost = slots materialized), the per-level resolve
    /// spans of [`EigEngine::resolve_observed`], and the `eig.*`
    /// registry counters. With a disabled recorder this is exactly
    /// `run` — no clock reads beyond the `EigPerf` phase timings.
    pub fn run_observed<V: Clone + Ord + Send + Sync>(
        &self,
        rule: VoteRule,
        sender_value: &AgreementValue<V>,
        faulty: &BTreeSet<NodeId>,
        fabricate: Fabricate<'_, V>,
        obs: &mut Obs,
    ) -> EngineRun<V> {
        let fill_timer = obs.span(
            "eig.fill",
            vec![
                ("n", self.arena.n as u64),
                ("depth", self.arena.depth as u64),
            ],
        );
        let fill_start = Instant::now();
        let mut store = EigStore::new(&self.arena);
        self.fill(&mut store, sender_value, faulty, fabricate);
        let fill_nanos = fill_start.elapsed().as_nanos() as u64;
        obs.finish(fill_timer, store.materialized());
        let mut run = self.resolve_observed(rule, &store, obs);
        run.perf.fill_nanos = fill_nanos;
        run
    }

    /// Bottom-up resolution of a filled store: what every receiver
    /// resolves every internal label to, deepest level first, with the
    /// fan-out within each level split across `workers` scoped threads.
    /// Decisions and the deterministic counters are identical for every
    /// worker count.
    pub fn resolve<V: Clone + Ord + Send + Sync>(
        &self,
        rule: VoteRule,
        store: &EigStore<V>,
    ) -> EngineRun<V> {
        self.resolve_observed(rule, store, &mut Obs::disabled())
    }

    /// [`EigEngine::resolve`] with observability: one
    /// `eig.resolve_level` span per level (logical cost = votes
    /// settled, i.e. evaluated + memo-hit — worker-count-independent)
    /// and the run's [`EigPerf`] counters folded into the registry
    /// under `eig.*` names.
    pub fn resolve_observed<V: Clone + Ord + Send + Sync>(
        &self,
        rule: VoteRule,
        store: &EigStore<V>,
        obs: &mut Obs,
    ) -> EngineRun<V> {
        let resolve_start = Instant::now();
        let (decisions, votes_evaluated, votes_memo_hit) = self.walk(rule, store, obs);
        let perf = EigPerf {
            arena_nodes: self.arena.node_count() as u64,
            votes_evaluated,
            votes_memo_hit,
            messages_materialized: store.materialized(),
            fill_nanos: 0,
            resolve_nanos: resolve_start.elapsed().as_nanos() as u64,
        };
        if let Some(registry) = obs.registry_mut() {
            perf.fold_into(registry);
        }
        EngineRun { decisions, perf }
    }

    /// The one bottom-up walk: every receiver's decision, and the votes
    /// evaluated and memo-hit on the way. Results go to the two tables of
    /// the module docs, `per` and `shared`, indexed by the internal labels
    /// (the ids below the deepest level's); the deepest level only gets
    /// its span, since its labels are read from the store by their parents.
    fn walk<V: Clone + Ord + Send + Sync>(
        &self,
        rule: VoteRule,
        store: &EigStore<V>,
        obs: &mut Obs,
    ) -> (BTreeMap<NodeId, AgreementValue<V>>, u64, u64) {
        let arena = &self.arena;
        let n = arena.n;
        let leaf_level = arena.levels.len() - 1;
        let internal = arena.levels[leaf_level].start as usize;
        let mut per = vec![AgreementValue::Default; internal * n];
        let mut shared = vec![None; internal];
        let mut votes_evaluated = 0u64;
        let mut votes_memo_hit = 0u64;

        for level in (0..arena.levels.len()).rev() {
            let range = arena.levels[level].clone();
            let (start, end) = (range.start as usize, range.end as usize);
            let level_timer = obs.span(
                "eig.resolve_level",
                vec![("level", level as u64), ("width", (end - start) as u64)],
            );
            if level == leaf_level {
                obs.finish(level_timer, 0);
                continue;
            }
            let (per_level, per_deeper) = per[start * n..].split_at_mut((end - start) * n);
            let (shared_level, shared_deeper) = shared[start..].split_at_mut(end - start);
            let below = Below {
                arena,
                store,
                rule,
                leaves: level + 1 == leaf_level,
                per: per_deeper,
                shared: shared_deeper,
                first: end,
            };
            let chunk_len = (end - start).div_ceil(self.workers).max(1);
            let chunks = per_level
                .chunks_mut(chunk_len * n)
                .zip(shared_level.chunks_mut(chunk_len))
                .enumerate()
                .map(|(i, (per, shared))| (range.start + (i * chunk_len) as u32, per, shared));
            let below = &below;
            let chunk_stats: Vec<(u64, u64)> = if self.workers <= 1 || end - start <= chunk_len {
                chunks
                    .map(|(first_id, per, shared)| resolve_chunk(below, first_id, per, shared))
                    .collect()
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chunks
                        .map(|(first_id, per, shared)| {
                            scope.spawn(move || resolve_chunk(below, first_id, per, shared))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                        .collect()
                })
            };
            let mut level_votes = 0u64;
            for (e, h) in chunk_stats {
                votes_evaluated += e;
                votes_memo_hit += h;
                level_votes += e + h;
            }
            obs.finish(level_timer, level_votes);
        }

        // The root's row; a root that is itself a leaf (depth 1) decides
        // what each receiver holds.
        let decisions = NodeId::all(n)
            .filter(|&r| r != arena.sender)
            .map(|r| {
                let decision = per
                    .get(r.index())
                    .cloned()
                    .unwrap_or_else(|| store.slots_of(r.index())[0].clone().unwrap_or_default());
                (r, decision)
            })
            .collect();
        (decisions, votes_evaluated, votes_memo_hit)
    }
}

/// What every chunk of one level reads: the store, the rule, and the level
/// below — leaves, read from the store's columns, or internal labels, read
/// from the walk's tables from id `first` on.
struct Below<'a, V> {
    arena: &'a PathArena,
    store: &'a EigStore<V>,
    rule: VoteRule,
    /// Whether the labels one level down are leaves.
    leaves: bool,
    per: &'a [AgreementValue<V>],
    shared: &'a [Option<AgreementValue<V>>],
    first: usize,
}

/// Resolves the labels from `first_id` on, one per entry of `shared` and
/// one `n`-wide row of `per` each. Returns `(votes_evaluated,
/// votes_memo_hit)` for the chunk.
fn resolve_chunk<V: Clone + Ord>(
    below: &Below<'_, V>,
    first_id: u32,
    per: &mut [AgreementValue<V>],
    shared: &mut [Option<AgreementValue<V>>],
) -> (u64, u64) {
    let Below { arena, store, .. } = *below;
    let n = arena.n;
    let vd = AgreementValue::Default;
    let mut votes_evaluated = 0u64;
    let mut votes_memo_hit = 0u64;
    // One receiver's gather, reused by every vote of the chunk.
    let mut gather: Vec<AgreementValue<V>> = Vec::with_capacity(n);

    for ((out, shared), id) in per.chunks_mut(n).zip(shared).zip(first_id as usize..) {
        let node = &arena.nodes[id];
        let len = node.len as usize;

        // A label with children has a node off its path.
        let receivers = (0..n).filter(|r| node.members >> r & 1 == 0);
        let Some(first) = receivers.clone().next() else {
            continue;
        };
        let own = |r: usize| or_vd(&store.slots_of(r)[id], &vd);
        let a = own(first);
        let uniform = receivers.clone().all(|r| own(r) == a);

        let alpha = below.rule.threshold(n, len);
        let (first_child, kids) = (node.first_child as usize, node.child_count as usize);
        // Children are ordered by relayer over the nodes off the label, so
        // `r`'s own relay is child number `r` less the label's nodes below
        // `r`.
        let own_relay = |r: usize| r - (node.members & ((1u64 << r) - 1)).count_ones() as usize;
        // The children `r` reads at a parent of leaves: one run of its
        // column, less its own relay.
        let leaf_inputs = |r: usize| {
            let run = &store.slots_of(r)[first_child..][..kids];
            let (before, after) = run.split_at(own_relay(r));
            before.iter().chain(&after[1..])
        };

        // Fast path: own slots uniform and every child resolving to one
        // shared value for all its receivers. Each receiver's gather is
        // then the same multiset {a} ∪ {v × (receivers-1)} — one VOTE
        // serves all of them (see module docs for the exclusion argument).
        // Leaves with no receivers (depth >= n) read as uniformly V_d.
        let child_uniform = if !uniform {
            None
        } else if below.leaves {
            let mut v = None;
            receivers
                .clone()
                .all(|r| {
                    leaf_inputs(r)
                        .all(|slot| *v.get_or_insert(or_vd(slot, &vd)) == or_vd(slot, &vd))
                })
                .then(|| v.unwrap_or(&vd))
        } else {
            let kids = &below.shared[first_child - below.first..][..kids];
            match &kids[0] {
                Some(v) if kids.iter().all(|w| w.as_ref() == Some(v)) => Some(v),
                _ => None,
            }
        };

        if let Some(v) = child_uniform {
            let combined = vote_two(alpha, a, v, n - len);
            votes_evaluated += 1;
            votes_memo_hit += (n - len) as u64 - 1;
            out.fill(combined.clone());
            *shared = Some(combined);
            continue;
        }

        // Slow path: exact per-receiver votes — the reference gather.
        let mut collapsed = true;
        for r in receivers {
            gather.clear();
            gather.push(own(r).clone());
            if below.leaves {
                gather.extend(leaf_inputs(r).map(|slot| or_vd(slot, &vd).clone()));
            } else {
                let skip = own_relay(r);
                let row = |k: usize| &below.per[(first_child - below.first + k) * n + r];
                gather.extend((0..kids).filter(|&k| k != skip).map(|k| row(k).clone()));
            }
            debug_assert_eq!(gather.len(), n - len);
            out[r] = vote_scan(alpha, &gather);
            votes_evaluated += 1;
            collapsed = collapsed && out[r] == out[first];
        }
        // Opportunistic collapse: if every receiver resolved to the
        // same value anyway, share it so ancestors can take the fast
        // path (the votes were still individually evaluated, so no memo
        // hit is counted here).
        *shared = collapsed.then(|| out[first].clone());
    }

    (votes_evaluated, votes_memo_hit)
}

/// A slot's effective value: absent reads as `V_d`.
fn or_vd<'a, V>(
    slot: &'a Option<AgreementValue<V>>,
    vd: &'a AgreementValue<V>,
) -> &'a AgreementValue<V> {
    slot.as_ref().unwrap_or(vd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Strategy;
    use crate::eig::run_eig_full;
    use crate::paths_of_length;
    use crate::value::Val;
    use simnet::SimRng;

    fn arena_4_2() -> PathArena {
        PathArena::new(4, NodeId::new(0), 2)
    }

    #[test]
    fn arena_counts_match_closed_form() {
        for (n, depth) in [(4usize, 2usize), (5, 3), (7, 3), (10, 3), (13, 3)] {
            let arena = PathArena::new(n, NodeId::new(0), depth);
            let expected: u128 = (1..=depth).map(|l| path_count(n, l)).sum();
            assert_eq!(arena.node_count() as u128, expected);
        }
    }

    #[test]
    fn intern_accepts_exactly_the_enumerated_paths() {
        let arena = PathArena::new(5, NodeId::new(1), 3);
        let mut seen = std::collections::BTreeSet::new();
        for len in 1..=3 {
            for path in paths_of_length(NodeId::new(1), 5, len) {
                let id = arena.intern(&path).expect("valid label interns");
                assert!(seen.insert(id), "ids are unique");
                assert_eq!(arena.resolve_path(id), path, "round trip");
            }
        }
        assert_eq!(seen.len(), arena.node_count());
    }

    #[test]
    fn intern_rejects_foreign_paths() {
        let arena = arena_4_2();
        // Wrong sender.
        assert_eq!(arena.intern(&Path::root(NodeId::new(1))), None);
        // Too deep.
        let deep = Path::root(NodeId::new(0))
            .child(NodeId::new(1))
            .child(NodeId::new(2));
        assert_eq!(arena.intern(&deep), None);
        // Out-of-range node.
        let foreign = Path::root(NodeId::new(0)).child(NodeId::new(9));
        assert_eq!(arena.intern(&foreign), None);
    }

    #[test]
    fn mask_width_boundary_is_typed_not_a_shift_panic() {
        // n = 64 is the widest shape the u64 masks represent: the full
        // mask is `u64::MAX >> 0` and the highest member bit is
        // `1 << 63` — both legal shifts.
        let arena = PathArena::try_new(64, NodeId::new(63), 2).expect("n = 64 is supported");
        assert_eq!(arena.node_count() as u128, 1 + path_count(64, 2));
        assert!(EigEngine::try_new(64, NodeId::new(0), 2).is_ok());
        // n = 65 would need `u64::MAX >> (64 - 65)` — a typed error now,
        // not a shift overflow.
        assert_eq!(
            PathArena::try_new(65, NodeId::new(0), 2).err(),
            Some(EngineError::TooManyNodes { n: 65 })
        );
        assert!(matches!(
            EigEngine::try_new(65, NodeId::new(0), 2),
            Err(EngineError::TooManyNodes { n: 65 })
        ));
        assert_eq!(
            PathArena::try_new(0, NodeId::new(0), 2).err(),
            Some(EngineError::TooManyNodes { n: 0 })
        );
        assert_eq!(
            PathArena::try_new(4, NodeId::new(4), 2).err(),
            Some(EngineError::SenderOutOfRange {
                sender: NodeId::new(4),
                n: 4
            })
        );
        assert_eq!(
            PathArena::try_new(4, NodeId::new(0), 0).err(),
            Some(EngineError::ZeroDepth)
        );
    }

    #[test]
    fn cleared_store_matches_a_fresh_one() {
        let arena = arena_4_2();
        let mut store: EigStore<u64> = EigStore::new(&arena);
        let r = NodeId::new(2);
        store.record(&arena, PathId::ROOT, r, Val::Value(7));
        assert_eq!(store.materialized(), 1);
        store.clear();
        assert_eq!(store.materialized(), 0);
        assert_eq!(store.get(PathId::ROOT, r), None);
        assert_eq!(store.column(r).count(), 0);
        // First-write-wins restarts from scratch after the clear.
        assert!(store.record(&arena, PathId::ROOT, r, Val::Value(9)));
        assert_eq!(store.get(PathId::ROOT, r), Some(&Val::Value(9)));
    }

    #[test]
    fn store_is_first_write_wins() {
        let arena = arena_4_2();
        let mut store: EigStore<u64> = EigStore::new(&arena);
        let r = NodeId::new(2);
        assert!(store.record(&arena, PathId::ROOT, r, Val::Value(7)));
        assert!(!store.record(&arena, PathId::ROOT, r, Val::Value(9)));
        assert_eq!(store.get(PathId::ROOT, r), Some(&Val::Value(7)));
        assert_eq!(store.materialized(), 1);
    }

    #[test]
    fn store_column_lists_one_receivers_slots_in_bfs_order() {
        let arena = arena_4_2();
        let mut store: EigStore<u64> = EigStore::new(&arena);
        let r = NodeId::new(2);
        let level2 = Path::root(NodeId::new(0)).child(NodeId::new(1));
        let id2 = arena.intern(&level2).unwrap();
        // Record out of BFS order; the column still comes back sorted.
        store.record(&arena, id2, r, Val::Value(9));
        store.record(&arena, PathId::ROOT, r, Val::Value(7));
        store.record(&arena, PathId::ROOT, NodeId::new(1), Val::Value(5));
        let column: Vec<(PathId, Val)> = store.column(r).map(|(id, v)| (id, *v)).collect();
        assert_eq!(
            column,
            vec![(PathId::ROOT, Val::Value(7)), (id2, Val::Value(9))]
        );
        assert_eq!(store.column(NodeId::new(3)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "receiver must not lie on the recorded path")]
    fn store_rejects_on_path_receiver() {
        let arena = arena_4_2();
        let mut store: EigStore<u64> = EigStore::new(&arena);
        store.record(&arena, PathId::ROOT, NodeId::new(0), Val::Value(7));
    }

    /// Differential micro-check: engine vs reference on a randomized
    /// adversary, all worker counts, plus the vote-count invariant
    /// evaluated + memo_hit == Σ_{l=1}^{depth-1} path_count(n, l)·(n-l).
    #[test]
    fn engine_matches_reference_and_counts_votes() {
        let mut rng = SimRng::seed(0xE16E);
        for &(n, depth, m) in &[(4usize, 2usize, 1usize), (5, 2, 1), (7, 3, 2)] {
            let sender = NodeId::new(rng.below(n as u64) as usize);
            let rule = VoteRule::Degradable { m };
            for trial in 0..8 {
                let f = (trial % (m + 2)).min(n - 1);
                let faulty: BTreeSet<NodeId> = rng
                    .choose_indices(n, f)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                let battery = Strategy::battery(1, 2, rng.below(u64::MAX));
                let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty
                    .iter()
                    .map(|&f| {
                        let (_, s) = battery[rng.below(battery.len() as u64) as usize].clone();
                        (f, s)
                    })
                    .collect();
                let mut fab = |path: &Path, r: NodeId, truthful: &Val| {
                    strategies
                        .get(&path.last())
                        .map(|s| s.claim(path, r, truthful))
                        .unwrap_or(*truthful)
                };
                let reference =
                    run_eig_full(n, sender, depth, rule, &Val::Value(7), &faulty, &mut fab);
                for workers in [1usize, 2, 8] {
                    let engine = EigEngine::new(n, sender, depth).with_workers(workers);
                    let mut fab = |path: &Path, r: NodeId, truthful: &Val| {
                        strategies
                            .get(&path.last())
                            .map(|s| s.claim(path, r, truthful))
                            .unwrap_or(*truthful)
                    };
                    let run = engine.run(rule, &Val::Value(7), &faulty, &mut fab);
                    assert_eq!(run.decisions, reference.decisions, "n={n} depth={depth}");
                    let total_votes: u128 =
                        (1..depth).map(|l| path_count(n, l) * (n - l) as u128).sum();
                    assert_eq!(
                        (run.perf.votes_evaluated + run.perf.votes_memo_hit) as u128,
                        total_votes,
                        "vote accounting at n={n} depth={depth}"
                    );
                    let slots: u128 = (1..=depth)
                        .map(|l| path_count(n, l) * (n - l) as u128)
                        .sum();
                    assert_eq!(run.perf.messages_materialized as u128, slots);
                    assert_eq!(run.perf.arena_nodes, engine.arena().node_count() as u64);
                }
            }
        }
    }

    #[test]
    fn fault_free_run_memoizes_everything() {
        let engine = EigEngine::new(7, NodeId::new(0), 3);
        let mut fab = |_: &Path, _: NodeId, v: &Val| *v;
        let run = engine.run(
            VoteRule::Degradable { m: 2 },
            &Val::Value(5),
            &BTreeSet::new(),
            &mut fab,
        );
        assert!(run.decisions.values().all(|d| *d == Val::Value(5)));
        // Every internal node collapses: exactly one vote per node.
        let internal: u128 = (1..3).map(|l| path_count(7, l)).sum();
        assert_eq!(run.perf.votes_evaluated as u128, internal);
        assert!(run.perf.votes_memo_hit > 0);
    }

    fn observed_run(workers: usize) -> Obs {
        let engine = EigEngine::new(5, NodeId::new(0), 3).with_workers(workers);
        let faulty: BTreeSet<NodeId> = [NodeId::new(2)].into();
        let mut fab = |_: &Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
        let mut obs = Obs::enabled();
        engine.run_observed(
            VoteRule::Degradable { m: 1 },
            &Val::Value(7),
            &faulty,
            &mut fab,
            &mut obs,
        );
        obs
    }

    #[test]
    fn observed_run_records_fill_and_level_spans_and_counters() {
        let obs = observed_run(1);
        let names: Vec<&str> = obs.spans().iter().map(|s| s.name.as_ref()).collect();
        // One fill span, then one resolve span per level, deepest first.
        assert_eq!(
            names,
            vec![
                "eig.fill",
                "eig.resolve_level",
                "eig.resolve_level",
                "eig.resolve_level"
            ]
        );
        let fill = &obs.spans()[0];
        let slots: u128 = (1..=3).map(|l| path_count(5, l) * (5 - l) as u128).sum();
        assert_eq!(fill.logical as u128, slots, "fill logical = materialized");
        // Level spans settle every vote exactly once.
        let settled: u64 = obs.spans()[1..].iter().map(|s| s.logical).sum();
        let total_votes: u128 = (1..3).map(|l| path_count(5, l) * (5 - l) as u128).sum();
        assert_eq!(settled as u128, total_votes);
        // Registry counters mirror EigPerf's deterministic counters.
        let reg = obs.registry();
        assert_eq!(
            reg.counter("eig.votes_evaluated") + reg.counter("eig.votes_memo_hit"),
            settled
        );
        assert_eq!(reg.counter("eig.messages_materialized") as u128, slots);
        assert!(reg.counter("eig.arena_nodes") > 0);
    }

    #[test]
    fn observed_output_is_worker_count_independent() {
        let mut base = observed_run(1);
        obs::scrub_timing(&mut base);
        for workers in [2usize, 8] {
            let mut other = observed_run(workers);
            obs::scrub_timing(&mut other);
            assert_eq!(base, other, "workers={workers}");
        }
    }

    #[test]
    fn workers_knob_is_observable_but_inert() {
        let engine = EigEngine::new(4, NodeId::new(0), 2).with_workers(0);
        assert_eq!(engine.workers(), 1, "zero clamps to one");
        assert_eq!(
            EigEngine::new(4, NodeId::new(0), 2)
                .with_workers(8)
                .workers(),
            8
        );
    }

    /// Random adversaries per shape: fault set, per-node strategies and
    /// a fabricate closure over them.
    fn random_adversary(
        rng: &mut SimRng,
        n: usize,
        m: usize,
    ) -> (BTreeSet<NodeId>, BTreeMap<NodeId, Strategy<u64>>) {
        let f = rng.below(m as u64 + 1) as usize;
        let faulty: BTreeSet<NodeId> = rng
            .choose_indices(n, f)
            .into_iter()
            .map(NodeId::new)
            .collect();
        let battery = Strategy::battery(1, 2, rng.below(u64::MAX));
        let strategies = faulty
            .iter()
            .map(|&f| {
                let (_, s) = battery[rng.below(battery.len() as u64) as usize].clone();
                (f, s)
            })
            .collect();
        (faulty, strategies)
    }

    /// `with_packed_vote` is inert: decisions *and* deterministic counters
    /// bit-identical to the plain engine over random adversaries, across
    /// worker counts.
    #[test]
    fn packed_vote_is_bit_identical_to_scalar() {
        let mut rng = SimRng::seed(0xB17B);
        for &(n, depth, m) in &[(4usize, 2usize, 1usize), (7, 3, 2), (9, 3, 2)] {
            let sender = NodeId::new(rng.below(n as u64) as usize);
            let rule = VoteRule::Degradable { m };
            for _ in 0..8 {
                let (faulty, strategies) = random_adversary(&mut rng, n, m);
                let run_with = |packed: bool, workers: usize| {
                    let mut engine = EigEngine::new(n, sender, depth).with_workers(workers);
                    if packed {
                        engine = engine.with_packed_vote();
                    }
                    let mut fab = |path: &Path, r: NodeId, truthful: &Val| {
                        strategies
                            .get(&path.last())
                            .map(|s| s.claim(path, r, truthful))
                            .unwrap_or(*truthful)
                    };
                    engine.run(rule, &Val::Value(7), &faulty, &mut fab)
                };
                let scalar = run_with(false, 1);
                for workers in [1usize, 3] {
                    let packed = run_with(true, workers);
                    assert_eq!(
                        packed.decisions, scalar.decisions,
                        "n={n} workers={workers} faulty={faulty:?}"
                    );
                    assert_eq!(
                        packed.perf.deterministic_counters(),
                        scalar.perf.deterministic_counters(),
                        "n={n} workers={workers} faulty={faulty:?}"
                    );
                }
            }
        }
    }

    /// Strict majority through the engine's vote (`α = ⌊β/2⌋ + 1`) decides
    /// as the reference does, and `with_packed_vote` is inert there too.
    #[test]
    fn packed_vote_falls_back_on_majority_rule() {
        let faulty: BTreeSet<NodeId> = [NodeId::new(3)].into();
        let run_with = |packed: bool| {
            let mut engine = EigEngine::new(5, NodeId::new(0), 2);
            if packed {
                engine = engine.with_packed_vote();
            }
            let mut fab = |_: &Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
            engine.run(VoteRule::Majority, &Val::Value(7), &faulty, &mut fab)
        };
        let scalar = run_with(false);
        let packed = run_with(true);
        let mut fab = |_: &Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
        let reference = run_eig_full(
            5,
            NodeId::new(0),
            2,
            VoteRule::Majority,
            &Val::Value(7),
            &faulty,
            &mut fab,
        );
        assert_eq!(scalar.decisions, reference.decisions);
        assert_eq!(packed.decisions, scalar.decisions);
        assert_eq!(
            packed.perf.deterministic_counters(),
            scalar.perf.deterministic_counters()
        );
    }

    /// `with_packed_vote` leaves the spans (names, args, logical costs) and
    /// registry counters as they are: observability output is
    /// knob-independent after timing scrub.
    #[test]
    fn packed_observed_output_matches_scalar() {
        let run_obs = |packed: bool| {
            let faulty: BTreeSet<NodeId> = [NodeId::new(2)].into();
            let mut engine = EigEngine::new(5, NodeId::new(0), 3);
            if packed {
                engine = engine.with_packed_vote();
            }
            let mut fab = |_: &Path, r: NodeId, _: &Val| Val::Value(r.index() as u64);
            let mut obs = Obs::enabled();
            engine.run_observed(
                VoteRule::Degradable { m: 1 },
                &Val::Value(7),
                &faulty,
                &mut fab,
                &mut obs,
            );
            obs::scrub_timing(&mut obs);
            obs
        };
        assert_eq!(run_obs(true), run_obs(false));
    }
}
