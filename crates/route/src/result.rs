//! Routing results: per-net route trees and whole-circuit statistics.

use serde::{Deserialize, Serialize};
use vbs_arch::{ArchSpec, RrNode, WireRef};
use vbs_netlist::NetId;

/// The routed tree of one net: node 0 is the source pin, every other node has
/// a parent, and edges `(parent, child)` correspond to programmable switches
/// of the fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTree {
    nodes: Vec<RrNode>,
    parents: Vec<Option<usize>>,
}

impl RouteTree {
    /// Creates a tree containing only the source node.
    pub fn new(source: RrNode) -> Self {
        RouteTree {
            nodes: vec![source],
            parents: vec![None],
        }
    }

    /// The source node of the net (its driver pin).
    pub(crate) fn source(&self) -> RrNode {
        self.nodes[0]
    }

    /// All nodes of the tree, source first.
    pub fn nodes(&self) -> &[RrNode] {
        &self.nodes
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree contains only its source.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Whether `node` is already part of the tree.
    pub fn contains(&self, node: RrNode) -> bool {
        self.nodes.contains(&node)
    }

    /// The index of node `index`'s parent, or `None` for the source. A
    /// tree grown by [`RouteTree::push`] has its parents before their
    /// children, so a parent index is always smaller than its child's; the
    /// edge `(parent, index)` is the switch that drives node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn parent(&self, index: usize) -> Option<usize> {
        self.parents[index]
    }

    /// Index of `node` within the tree, if present.
    pub fn position(&self, node: RrNode) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Appends a node with the given parent index and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn push(&mut self, node: RrNode, parent: usize) -> usize {
        assert!(parent < self.nodes.len(), "parent index out of range");
        self.nodes.push(node);
        self.parents.push(Some(parent));
        self.nodes.len() - 1
    }

    /// Iterates over the `(parent, child)` node pairs of the tree.
    pub fn iter_edges(&self) -> impl Iterator<Item = (RrNode, RrNode)> + '_ {
        self.nodes
            .iter()
            .zip(self.parents.iter())
            .filter_map(move |(&child, parent)| parent.map(|p| (self.nodes[p], child)))
    }

    /// Iterates over the wires used by this tree.
    pub fn iter_wires(&self) -> impl Iterator<Item = WireRef> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            RrNode::Wire(w) => Some(*w),
            RrNode::Pin { .. } => None,
        })
    }
}

/// A complete routing of a netlist on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    spec: ArchSpec,
    trees: Vec<RouteTree>,
    iterations: usize,
}

impl Routing {
    /// Builds a routing result from per-net trees (indexed by [`NetId`]).
    pub fn new(spec: ArchSpec, trees: Vec<RouteTree>, iterations: usize) -> Self {
        Routing {
            spec,
            trees,
            iterations,
        }
    }

    /// The architecture (notably the channel width) the circuit was routed at.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Number of route trees (equals the net count of the routed netlist).
    #[cfg(test)]
    pub(crate) fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of PathFinder iterations that were needed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The tree of a net.
    pub fn tree(&self, net: NetId) -> &RouteTree {
        &self.trees[net.index()]
    }

    /// Iterates over `(NetId, &RouteTree)` pairs.
    pub fn iter_trees(&self) -> impl Iterator<Item = (NetId, &RouteTree)> {
        self.trees
            .iter()
            .enumerate()
            .map(|(i, t)| (NetId(i as u32), t))
    }

    /// Number of nets using each wire (legal routings never exceed one).
    #[cfg(test)]
    pub(crate) fn wire_occupancy(&self) -> std::collections::HashMap<WireRef, usize> {
        let mut occ = std::collections::HashMap::new();
        for tree in &self.trees {
            for wire in tree.iter_wires() {
                *occ.entry(wire).or_insert(0) += 1;
            }
        }
        occ
    }

    /// Total number of wire segments used, summed over nets.
    #[cfg(test)]
    pub(crate) fn total_wirelength(&self) -> usize {
        self.trees.iter().map(|t| t.iter_wires().count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::Coord;

    fn pin(x: u16, y: u16, pin: u8) -> RrNode {
        RrNode::Pin {
            site: Coord::new(x, y),
            pin,
        }
    }

    #[test]
    fn tree_edges_follow_parents() {
        let mut tree = RouteTree::new(pin(0, 0, 6));
        let w = RrNode::Wire(WireRef::horizontal(0, 0, 1));
        let idx = tree.push(w, 0);
        tree.push(pin(1, 0, 0), idx);
        let edges: Vec<_> = tree.iter_edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(
            (tree.parent(0), tree.parent(1), tree.parent(2)),
            (None, Some(0), Some(idx))
        );
        assert_eq!(edges[0], (pin(0, 0, 6), w));
        assert_eq!(edges[1], (w, pin(1, 0, 0)));
        assert_eq!(tree.iter_wires().count(), 1);
        assert!(tree.contains(w));
        assert!(!tree.is_empty());
    }

    #[test]
    fn occupancy_counts_shared_wires() {
        let spec = ArchSpec::paper_example();
        let w = WireRef::horizontal(0, 0, 0);
        let mut a = RouteTree::new(pin(0, 0, 6));
        a.push(RrNode::Wire(w), 0);
        let mut b = RouteTree::new(pin(0, 0, 4));
        b.push(RrNode::Wire(w), 0);
        let routing = Routing::new(spec, vec![a, b], 1);
        assert_eq!(routing.wire_occupancy()[&w], 2);
        assert_eq!(routing.total_wirelength(), 2);
    }
}
