//! Node identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a node (processor) in a simulated system.
///
/// Node ids are dense indices `0..n`. The newtype prevents mixing node
/// indices with round numbers, path positions and other `usize` quantities
/// that circulate in agreement protocols.
///
/// An id occupies two bytes: it travels in every simulated envelope and
/// four times in every inline relay path, so its width is most of what an
/// envelope weighs. The index range is therefore `0..=NodeId::MAX_INDEX`,
/// and nothing narrows silently: [`NodeId::new`] panics beyond it, and an
/// index that comes from outside the program (a frame, a command line, a
/// JSON document) goes through [`NodeId::try_new`].
///
/// ```
/// use simnet::NodeId;
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "n3");
/// assert_eq!(NodeId::try_new(65_539u32), None, "never node 3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct NodeId(u16);

/// An id hashes as its index (a `usize`), whatever it occupies: seeded
/// adversaries draw their lies from a hash over ids
/// (`degradable::Strategy::RandomLie`), and every recorded run and golden
/// digest has those draws in it.
impl Hash for NodeId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index().hash(state);
    }
}

impl NodeId {
    /// The largest dense index an id can hold.
    pub const MAX_INDEX: usize = u16::MAX as usize;

    /// Creates a node id from its dense index.
    ///
    /// # Panics
    ///
    /// If `index` exceeds [`NodeId::MAX_INDEX`]: an index this program
    /// computed itself is in range, so one that is not is a bug, never
    /// node `index mod 65 536`.
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= Self::MAX_INDEX,
            "node index out of range: a NodeId holds 0..=65535"
        );
        NodeId(index as u16)
    }

    /// The id with dense index `index`, or `None` beyond
    /// [`NodeId::MAX_INDEX`] — the constructor for an index read from
    /// outside the program, at whatever integer width it was read.
    pub fn try_new(index: impl TryInto<u16>) -> Option<Self> {
        index.try_into().ok().map(NodeId)
    }

    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the ids `0..n`.
    ///
    /// # Panics
    ///
    /// If `n` exceeds `NodeId::MAX_INDEX + 1`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        assert!(
            n <= Self::MAX_INDEX + 1,
            "node count out of range: a NodeId holds 0..=65535"
        );
        (0..n).map(|i| NodeId(i as u16))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    /// [`NodeId::new`]: panics beyond [`NodeId::MAX_INDEX`].
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(42usize), id);
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<_> = NodeId::all(4).collect();
        assert_eq!(
            ids,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
    }

    #[test]
    fn the_range_is_checked_not_wrapped() {
        assert_eq!(std::mem::size_of::<NodeId>(), 2);
        assert_eq!(
            NodeId::try_new(NodeId::MAX_INDEX).map(NodeId::index),
            Some(65_535)
        );
        // 65 539 = 65 536 + 3: a narrowing cast would make it node 3.
        assert_eq!(NodeId::try_new(65_539u32), None);
        assert_eq!(NodeId::try_new(65_539u64), None);
        assert_eq!(NodeId::try_new(usize::MAX), None);
        assert_eq!(NodeId::try_new(-1i64), None);
        assert_eq!(NodeId::all(NodeId::MAX_INDEX + 1).count(), 65_536);
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn new_panics_beyond_the_range() {
        let _ = NodeId::new(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn from_usize_panics_beyond_the_range() {
        let _ = NodeId::from(65_539usize);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
