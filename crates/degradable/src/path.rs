//! Relay paths of the exponential-information-gathering (EIG) unfolding of
//! algorithm BYZ.
//!
//! The recursive algorithm BYZ(t, m) is executed in message-passing form by
//! tagging every message with the chain of nodes that relayed it: the value
//! the sender `s` sent is tagged `[s]`; the copy receiver `i` relays in the
//! next round is tagged `[s, i]`, and so on. A tag is called a [`Path`];
//! all elements are distinct (a node never relays a value it already
//! relayed) and the first element is always the original sender.
//!
//! A path of length `ℓ` identifies the sub-instance BYZ(t, m) with
//! `t = m - ℓ + 1` running on the `n - ℓ + 1` nodes not in the path's
//! interior, whose "sender" is the path's last element.
//!
//! This module is also where BYZ's two per-envelope decisions are stated,
//! once, for every executor of the crate and for the wire:
//!
//! * **what an honest node accepts** — [`Path::from_ids`] (the only way a
//!   path is built from bytes), [`admit`] (the protocol half of the
//!   paper's assumption (c): a receiver knows who sent it a message) and
//!   [`is_label`] (the label exists in the instance's tree). The sans-io
//!   machine ([`crate::node`]) calls them on a [`Path`]; the simulated
//!   network's inbox ([`crate::service`]) carries arena labels, which are
//!   tree labels by construction, and calls [`admit`]'s rule on the facts
//!   of the label's arena node; [`crate::spec`] restates them
//!   independently, as the referee, and property tests hold the three
//!   statements, [`crate::PathArena::intern`] and the arena's label form
//!   of [`admit`] to each other.
//! * **whom it relays to** — every node off the child label `path + [me]`:
//!   `relay_fanout` over a [`Path`], the arena's O(1) child and member mask
//!   over a label (held to [`Path::child`] by a property test in
//!   `engine.rs`), with the value each receiver is told coming from
//!   `crate::adversary::claim_for`.

use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Longest path stored inline. BYZ(m, u) paths have at most `m + 1`
/// nodes, so `m ≤ 3` — every shape the experiments and the benchmark run —
/// never touches the heap; deeper trees spill to a `Vec`.
const INLINE_CAP: usize = 4;

/// Storage of a [`Path`]: a path travels in every protocol envelope and is
/// cloned and extended once per relay, so the short ones live in the value
/// itself. The whole thing is 24 bytes — the spill's `Vec`, with the inline
/// form (four 2-byte ids and a length) in the same space — and the
/// service's layout guard holds it there.
#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// `nodes[..len]` is the path; the rest is padding.
    Inline {
        len: u8,
        nodes: [NodeId; INLINE_CAP],
    },
    /// Paths longer than [`INLINE_CAP`].
    Spilled(Vec<NodeId>),
}

/// A relay path: a non-empty sequence of distinct node ids starting with
/// the original sender.
///
/// Equality, ordering and hashing are those of the node sequence
/// ([`Path::as_slice`]), whichever way it is stored.
#[derive(Clone, Serialize, Deserialize)]
pub struct Path(Repr);

impl Path {
    /// The root path `[sender]`.
    pub fn root(sender: NodeId) -> Self {
        let mut nodes = [NodeId::new(0); INLINE_CAP];
        nodes[0] = sender;
        Path(Repr::Inline { len: 1, nodes })
    }

    /// The path holding exactly `ids`, or `None` if they are not a path:
    /// empty, or naming a node twice. This is how a path is built from
    /// anything this program did not construct itself (a frame off a
    /// socket) — [`Path::child`] asserts where this refuses, and copies a
    /// spilled path per call where this allocates once.
    pub fn from_ids(ids: &[NodeId]) -> Option<Self> {
        if ids.is_empty() || !all_distinct(ids) {
            return None;
        }
        Some(Path(if ids.len() <= INLINE_CAP {
            let mut nodes = [NodeId::new(0); INLINE_CAP];
            nodes[..ids.len()].copy_from_slice(ids);
            Repr::Inline {
                len: ids.len() as u8,
                nodes,
            }
        } else {
            Repr::Spilled(ids.to_vec())
        }))
    }

    /// Extends the path with relayer `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` already occurs in the path (a node never re-relays).
    #[must_use]
    pub fn child(&self, j: NodeId) -> Self {
        assert!(!self.contains(j), "node {j} already on path {self}");
        match &self.0 {
            Repr::Inline { len, nodes } if usize::from(*len) < INLINE_CAP => {
                let mut nodes = *nodes;
                nodes[usize::from(*len)] = j;
                Path(Repr::Inline {
                    len: len + 1,
                    nodes,
                })
            }
            _ => {
                let mut v = Vec::with_capacity(self.len() + 1);
                v.extend_from_slice(self.as_slice());
                v.push(j);
                Path(Repr::Spilled(v))
            }
        }
    }

    /// Number of nodes on the path (`>= 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Paths are never empty; provided for clippy-compliant API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The original sender (first element).
    #[inline]
    pub fn sender(&self) -> NodeId {
        self.as_slice()[0]
    }

    /// The most recent relayer (last element) — the "sender" of the
    /// sub-instance this path identifies.
    #[inline]
    pub fn last(&self) -> NodeId {
        *self.as_slice().last().expect("paths are non-empty")
    }

    /// Whether `node` occurs anywhere on the path.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_slice().contains(&node)
    }

    /// The node ids on the path, in relay order.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, nodes } => &nodes[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// All extensions of this path by one relayer, drawn from a system of
    /// `n` nodes (every node not already on the path).
    pub fn children(&self, n: usize) -> Vec<Path> {
        NodeId::all(n)
            .filter(|j| !self.contains(*j))
            .map(|j| self.child(j))
            .collect()
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Path").field(&self.as_slice()).finish()
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Path {}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Whether no id occurs twice. Quadratic, on slices the callers have
/// bounded (a tree depth, the wire's path cap).
fn all_distinct(ids: &[NodeId]) -> bool {
    ids.iter()
        .enumerate()
        .all(|(i, a)| !ids[i + 1..].contains(a))
}

/// When an admitted envelope arrived, relative to its relay slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Level equals the closing round: recorded, and relayed below the
    /// final round.
    OnTime,
    /// Level below the closing round (the network delivered it late): the
    /// relay slot has passed, but the direct observation still folds in.
    Late,
}

/// The protocol half of unforgeability: whether honest node `me`, closing
/// `round`, accepts an envelope labelled `path` that the transport says
/// came from `src` — and if so, when it arrived. The relayer a label names
/// last must be the node the envelope came from (a faulty node may say
/// anything, but only in its own name), the receiver is never on a label
/// addressed to it, and a label from a future level reads as absent like
/// everything else refused here. Whether the label exists in the tree at
/// all is [`is_label`]'s question.
#[inline]
pub fn admit(path: &Path, src: NodeId, me: NodeId, round: usize) -> Option<Arrival> {
    admit_label(path.len(), path.last(), path.contains(me), src, round)
}

/// [`admit`] over the three facts it reads of a label: its length, its
/// last relayer, and whether the receiver is on it. The simulated
/// network's inbox reads them off an arena node instead of a [`Path`].
#[inline]
pub(crate) fn admit_label(
    len: usize,
    last: NodeId,
    holds_me: bool,
    src: NodeId,
    round: usize,
) -> Option<Arrival> {
    if len > round || last != src || holds_me {
        return None;
    }
    Some(if len == round {
        Arrival::OnTime
    } else {
        Arrival::Late
    })
}

/// Whether `path` labels a node of the EIG tree of an `n`-node instance
/// with the given `sender` and `depth`: rooted at the sender, at most
/// `depth` long, every id below `n`, none twice — the predicate
/// [`crate::PathArena::intern`] decides by walking the interned tree.
#[inline]
pub fn is_label(path: &Path, n: usize, sender: NodeId, depth: usize) -> bool {
    let ids = path.as_slice();
    ids.len() <= depth
        && ids.first() == Some(&sender)
        && ids.iter().all(|id| id.index() < n)
        && all_distinct(ids)
}

/// `me`'s relay of `path`: the child label `path + [me]` it goes out under,
/// and the nodes it goes to — every node off the child label, ascending.
/// `path` must be a valid label over `n` nodes that does not contain `me`.
#[inline]
pub(crate) fn relay_fanout(
    path: &Path,
    me: NodeId,
    n: usize,
) -> (Path, impl Iterator<Item = NodeId> + '_) {
    debug_assert!(!path.contains(me) && path.as_slice().iter().all(|v| v.index() < n));
    (
        path.child(me),
        NodeId::all(n).filter(move |r| *r != me && !path.contains(*r)),
    )
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Enumerates all paths of exactly `len` nodes rooted at `sender` in a
/// system of `n` nodes, in lexicographic order.
pub fn paths_of_length(sender: NodeId, n: usize, len: usize) -> Vec<Path> {
    assert!(len >= 1, "paths have at least the sender on them");
    let mut level = vec![Path::root(sender)];
    for _ in 1..len {
        let mut next = Vec::new();
        for p in &level {
            next.extend(p.children(n));
        }
        level = next;
    }
    level
}

/// Number of paths of exactly `len` nodes in a system of `n` nodes:
/// `(n-1)(n-2)…(n-len+1)`, and zero once `len > n` (paths never repeat a
/// node, so the falling factorial bottoms out rather than underflowing —
/// BYZ depths of `m + 1 > n` arise legitimately at tiny `n`).
pub fn path_count(n: usize, len: usize) -> u128 {
    assert!(len >= 1);
    let mut count: u128 = 1;
    for j in 1..len {
        count *= n.saturating_sub(j) as u128;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn root_and_child() {
        let p = Path::root(n(0)).child(n(2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.sender(), n(0));
        assert_eq!(p.last(), n(2));
        assert!(p.contains(n(0)) && p.contains(n(2)) && !p.contains(n(1)));
    }

    #[test]
    #[should_panic(expected = "already on path")]
    fn no_repeat_relayers() {
        let _ = Path::root(n(0)).child(n(1)).child(n(1));
    }

    #[test]
    fn from_ids_refuses_what_child_asserts_on() {
        let ids = [n(0), n(2), n(5), n(1), n(9)];
        for len in 1..=ids.len() {
            // Inline and spilled alike: the same path `child` builds.
            let built = ids[1..len]
                .iter()
                .fold(Path::root(ids[0]), |p, &j| p.child(j));
            assert_eq!(Path::from_ids(&ids[..len]), Some(built));
        }
        assert_eq!(Path::from_ids(&[]), None);
        assert_eq!(Path::from_ids(&[n(0), n(0)]), None);
        assert_eq!(Path::from_ids(&[n(0), n(1), n(2), n(3), n(4), n(1)]), None);
    }

    #[test]
    fn admission_is_source_receiver_and_level() {
        let p = Path::root(n(0)).child(n(2));
        assert_eq!(admit(&p, n(2), n(1), 2), Some(Arrival::OnTime));
        assert_eq!(admit(&p, n(2), n(1), 3), Some(Arrival::Late));
        assert_eq!(admit(&p, n(2), n(1), 1), None, "future level");
        assert_eq!(admit(&p, n(3), n(1), 2), None, "not from its last relayer");
        assert_eq!(admit(&p, n(2), n(0), 2), None, "receiver on the label");
        assert!(is_label(&p, 4, n(0), 2));
        assert!(!is_label(&p, 4, n(1), 2), "wrong root");
        assert!(!is_label(&p, 2, n(0), 2), "id out of range");
        assert!(!is_label(&p, 4, n(0), 1), "deeper than the tree");
    }

    #[test]
    fn children_excludes_path_members() {
        let p = Path::root(n(0)).child(n(1));
        let kids = p.children(4);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].last(), n(2));
        assert_eq!(kids[1].last(), n(3));
    }

    #[test]
    fn enumeration_matches_count() {
        for nn in 2..7 {
            for len in 1..=3.min(nn) {
                let paths = paths_of_length(n(0), nn, len);
                assert_eq!(paths.len() as u128, path_count(nn, len), "n={nn} len={len}");
                // all distinct
                let set: std::collections::BTreeSet<_> = paths.iter().collect();
                assert_eq!(set.len(), paths.len());
            }
        }
    }

    #[test]
    fn count_formula() {
        assert_eq!(path_count(5, 1), 1);
        assert_eq!(path_count(5, 2), 4);
        assert_eq!(path_count(5, 3), 12);
        assert_eq!(path_count(7, 3), 30);
    }

    #[test]
    fn display_format() {
        let p = Path::root(n(0)).child(n(3));
        assert_eq!(p.to_string(), "[n0,n3]");
    }
}
