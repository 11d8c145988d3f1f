//! Dimension structures (§4.1 of the paper).
//!
//! Two kinds of dimensions define candidate regions:
//!
//! * **Interval dimensions** — values are the incremental prefixes
//!   `[1..1], [1..2], …, [1..T]`; the fact table records time *points*.
//!   A point `p` belongs to interval `[1..t]` iff `p ≤ t`.
//! * **Hierarchical dimensions** — values are the nodes of a tree (e.g.
//!   State → Division → Region → All); the fact table records *leaf*
//!   values. A leaf belongs to every ancestor-or-self node.
//!
//! The same `Hierarchy` type doubles as an *item hierarchy* (§6.1): item
//! subsets are regions of the item-attribute space.

use std::collections::HashMap;

/// One node of a hierarchy tree.
#[derive(Debug, Clone)]
pub struct HierNode {
    /// Display label, unique within the hierarchy.
    pub label: String,
    /// Parent node id; `None` for the root.
    pub parent: Option<u32>,
    /// Depth from the root (root = 0).
    pub depth: u32,
}

/// A rooted tree of values; fact/item rows carry leaf labels.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    name: String,
    nodes: Vec<HierNode>,
    children: Vec<Vec<u32>>,
    label_index: HashMap<String, u32>,
    /// Number of leaf descendants per node (a leaf counts itself).
    leaf_counts: Vec<u32>,
}

impl Hierarchy {
    /// Start building a hierarchy whose root is labelled `root_label`.
    pub fn new(name: impl Into<String>, root_label: impl Into<String>) -> Self {
        let root_label = root_label.into();
        let mut label_index = HashMap::new();
        label_index.insert(root_label.clone(), 0);
        Hierarchy {
            name: name.into(),
            nodes: vec![HierNode {
                label: root_label,
                parent: None,
                depth: 0,
            }],
            children: vec![Vec::new()],
            label_index,
            leaf_counts: vec![1],
        }
    }

    /// Add a child node under `parent`; returns its id.
    /// Panics on duplicate labels (labels key fact/item data).
    pub fn add_child(&mut self, parent: u32, label: impl Into<String>) -> u32 {
        let label = label.into();
        assert!(
            !self.label_index.contains_key(&label),
            "duplicate hierarchy label {label:?}"
        );
        let id = self.nodes.len() as u32;
        let depth = self.nodes[parent as usize].depth + 1;
        self.nodes.push(HierNode {
            label: label.clone(),
            parent: Some(parent),
            depth,
        });
        self.children.push(Vec::new());
        self.children[parent as usize].push(id);
        self.label_index.insert(label, id);
        self.leaf_counts.push(1);
        self.recount_leaves();
        id
    }

    /// Build a two-level hierarchy: root plus the given leaves.
    pub fn flat(name: impl Into<String>, root: &str, leaves: &[&str]) -> Self {
        let mut h = Hierarchy::new(name, root);
        for leaf in leaves {
            h.add_child(0, *leaf);
        }
        h
    }

    fn recount_leaves(&mut self) {
        // Recompute bottom-up; nodes are created parent-before-child so a
        // reverse pass sees children first.
        for i in (0..self.nodes.len()).rev() {
            self.leaf_counts[i] = if self.children[i].is_empty() {
                1
            } else {
                self.children[i]
                    .iter()
                    .map(|&c| self.leaf_counts[c as usize])
                    .sum()
            };
        }
    }

    /// Hierarchy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (values).
    pub fn num_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Root node id (always 0).
    pub fn root(&self) -> u32 {
        0
    }

    /// Node accessor.
    pub fn node(&self, id: u32) -> &HierNode {
        &self.nodes[id as usize]
    }

    /// Children of a node.
    pub fn children(&self, id: u32) -> &[u32] {
        &self.children[id as usize]
    }

    /// True if `id` has no children.
    pub fn is_leaf(&self, id: u32) -> bool {
        self.children[id as usize].is_empty()
    }

    /// Node id for a label.
    pub fn id_of(&self, label: &str) -> Option<u32> {
        self.label_index.get(label).copied()
    }

    /// Ids of all leaves, in creation order.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.num_nodes()).filter(|&i| self.is_leaf(i)).collect()
    }

    /// Number of leaf descendants (a leaf counts itself).
    pub fn leaf_count(&self, id: u32) -> u32 {
        self.leaf_counts[id as usize]
    }

    /// `node` and its ancestors up to the root, nearest first.
    pub fn ancestors_or_self(&self, node: u32) -> Vec<u32> {
        let mut out = vec![node];
        let mut cur = node;
        while let Some(p) = self.nodes[cur as usize].parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// True if `ancestor` is `node` or one of its ancestors.
    pub fn contains(&self, ancestor: u32, node: u32) -> bool {
        let mut cur = node;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.nodes[cur as usize].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }
}

/// A dimension of the region space.
#[derive(Debug, Clone)]
pub enum Dimension {
    /// Incremental intervals `[1..t]`, `t ∈ 1..=max_t`. Value id `v`
    /// denotes the interval `[1 ..= v+1]`.
    Interval {
        /// Dimension name (e.g. "Time").
        name: String,
        /// Largest prefix length `T`.
        max_t: u32,
    },
    /// A hierarchy; value ids are node ids.
    Hierarchy(Hierarchy),
}

impl Dimension {
    /// Dimension name.
    pub fn name(&self) -> &str {
        match self {
            Dimension::Interval { name, .. } => name,
            Dimension::Hierarchy(h) => h.name(),
        }
    }

    /// Number of values (candidate coordinates) along this dimension.
    pub fn num_values(&self) -> u32 {
        match self {
            Dimension::Interval { max_t, .. } => *max_t,
            Dimension::Hierarchy(h) => h.num_nodes(),
        }
    }

    /// Human-readable label of a value.
    pub fn label(&self, value: u32) -> String {
        match self {
            Dimension::Interval { .. } => format!("1-{}", value + 1),
            Dimension::Hierarchy(h) => h.node(value).label.clone(),
        }
    }

    /// All values of this dimension that contain the fact-level
    /// coordinate `leaf` (a time point `1..=max_t` encoded as `leaf`,
    /// or a hierarchy leaf node id).
    ///
    /// Interval: point `p` (passed as `p-1`) is inside `[1..t]` for all
    /// `t ≥ p`. Hierarchy: ancestors-or-self.
    pub fn containing_values(&self, leaf: u32) -> Vec<u32> {
        match self {
            Dimension::Interval { max_t, .. } => {
                assert!(leaf < *max_t, "time point {} out of range {max_t}", leaf + 1);
                (leaf..*max_t).collect()
            }
            Dimension::Hierarchy(h) => h.ancestors_or_self(leaf),
        }
    }

    /// True if value `a` contains value `b` (used for lattice order).
    pub fn value_contains(&self, a: u32, b: u32) -> bool {
        match self {
            Dimension::Interval { .. } => a >= b,
            Dimension::Hierarchy(h) => h.contains(a, b),
        }
    }

    /// Number of finest-grained cells covered by a value: interval
    /// `[1..t]` covers `t` points; a hierarchy node covers its leaves.
    pub fn finest_cell_count(&self, value: u32) -> u32 {
        match self {
            Dimension::Interval { .. } => value + 1,
            Dimension::Hierarchy(h) => h.leaf_count(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn location() -> Hierarchy {
        // All -> US -> {WI, MD}; All -> KR
        let mut h = Hierarchy::new("Location", "All");
        let us = h.add_child(0, "US");
        h.add_child(us, "WI");
        h.add_child(us, "MD");
        h.add_child(0, "KR");
        h
    }

    #[test]
    fn hierarchy_structure() {
        let h = location();
        assert_eq!(h.num_nodes(), 5);
        assert_eq!(h.id_of("WI"), Some(2));
        assert!(h.is_leaf(2));
        assert!(!h.is_leaf(1));
        assert_eq!(h.leaves(), vec![2, 3, 4]);
        assert_eq!(h.node(2).depth, 2);
    }

    #[test]
    fn ancestors_and_containment() {
        let h = location();
        let wi = h.id_of("WI").unwrap();
        let us = h.id_of("US").unwrap();
        assert_eq!(h.ancestors_or_self(wi), vec![wi, us, 0]);
        assert!(h.contains(us, wi));
        assert!(h.contains(0, wi));
        assert!(!h.contains(wi, us));
        assert!(!h.contains(h.id_of("KR").unwrap(), wi));
    }

    #[test]
    fn leaf_counts() {
        let h = location();
        assert_eq!(h.leaf_count(0), 3);
        assert_eq!(h.leaf_count(h.id_of("US").unwrap()), 2);
        assert_eq!(h.leaf_count(h.id_of("KR").unwrap()), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate hierarchy label")]
    fn duplicate_labels_rejected() {
        let mut h = Hierarchy::new("H", "All");
        h.add_child(0, "x");
        h.add_child(0, "x");
    }

    #[test]
    fn interval_dimension() {
        let d = Dimension::Interval {
            name: "Time".into(),
            max_t: 4,
        };
        assert_eq!(d.num_values(), 4);
        assert_eq!(d.label(0), "1-1");
        assert_eq!(d.label(3), "1-4");
        // time point 3 (leaf id 2) is inside [1-3] and [1-4]
        assert_eq!(d.containing_values(2), vec![2, 3]);
        assert!(d.value_contains(3, 1));
        assert!(!d.value_contains(1, 3));
        assert_eq!(d.finest_cell_count(2), 3);
    }

    #[test]
    fn hierarchy_dimension_wrapping() {
        let d = Dimension::Hierarchy(location());
        assert_eq!(d.num_values(), 5);
        assert_eq!(d.label(1), "US");
        assert_eq!(d.containing_values(2), vec![2, 1, 0]);
        assert_eq!(d.finest_cell_count(0), 3);
    }

    #[test]
    fn flat_hierarchy() {
        let h = Hierarchy::flat("Cat", "Any", &["a", "b"]);
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.leaves().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn interval_point_range_checked() {
        let d = Dimension::Interval {
            name: "T".into(),
            max_t: 2,
        };
        d.containing_values(2);
    }
}
