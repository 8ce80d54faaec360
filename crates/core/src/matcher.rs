//! Structural pattern matching of library cells on subject trees.
//!
//! A pattern matches at a tree node when its NAND/INV structure embeds
//! into the tree with pattern leaves landing on arbitrary tree nodes
//! (internal or leaf). NAND commutativity is handled by trying both child
//! orders, so libraries only need one pattern per distinct tree shape.

use crate::partition::{Tree, TreeNode};
use casyn_library::{Library, PatternTree};
use casyn_netlist::subject::GateId;

/// How matching treats tree nodes whose signal is demanded externally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedPolicy {
    /// Never cover through a shared node (DAGON semantics: minimum-area
    /// covering must not duplicate logic).
    Forbid,
    /// Allow covering through; the covering DP prices the duplication.
    Price,
}

/// One way of implementing a tree node with a library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Library cell index.
    pub cell: u32,
    /// Tree-node indices bound to each input pin, in pin order.
    pub leaves: Vec<u32>,
    /// Subject gates covered by the match (the internal embedded nodes).
    pub covered: Vec<GateId>,
    /// Tree nodes with external demand (multi-fanout vertices) that this
    /// match covers *through*: their signal disappears inside the cell,
    /// so a separate cover rooted there must be emitted for the other
    /// fanouts — logic duplication. The covering cost function charges
    /// the estimated duplicated area/wire for each.
    pub through: Vec<u32>,
}

/// Enumerates all matches of all library cells at `node` of `tree`.
/// The result is non-empty for every internal node as long as the library
/// contains an inverter and a two-input NAND.
///
/// `shared[n]` marks tree nodes whose signal is demanded outside the
/// match under construction (multi-fanout vertices absorbed by
/// placement-driven or cone partitioning). A match may be *rooted* at a
/// shared node and its leaves may *bind* to one; covering *through* one
/// is allowed but recorded in [`Match::through`], because it hides the
/// shared signal and forces a duplicate cover to be emitted for the other
/// fanouts. The covering cost function prices that duplication, so
/// minimum-area covering avoids it (degenerating to DAGON behaviour)
/// while wire-driven covering may embrace it — the paper's area-for-
/// congestion trade.
pub fn matches_at(
    tree: &Tree,
    node: u32,
    lib: &Library,
    shared: &[bool],
    policy: SharedPolicy,
) -> Vec<Match> {
    let mut out = Vec::new();
    if matches!(tree.nodes[node as usize], TreeNode::Leaf { .. }) {
        return out;
    }
    let cx = Ctx { tree, shared, policy };
    // one binding reused across every cell, pattern and recursion step:
    // the enumeration pushes and pops entries instead of cloning it
    let mut b = Binding::default();
    for (cid, cell) in lib.cells().iter().enumerate() {
        if cell.sequential {
            continue; // flip-flops are never produced by combinational covering
        }
        let cell_id = cid as u32;
        for pat in &cell.patterns {
            b.pins.clear();
            b.pins.resize(cell.num_pins, None);
            match_rec(&cx, node, pat, true, &mut b, &mut |b: &mut Binding| {
                if !out.iter().any(|m| b.is(cell_id, m)) {
                    out.push(b.to_match(cell_id));
                }
            });
            debug_assert!(b.covered.is_empty() && b.through.is_empty());
        }
    }
    out
}

/// The inputs every recursion step shares.
struct Ctx<'a> {
    tree: &'a Tree,
    shared: &'a [bool],
    policy: SharedPolicy,
}

impl Ctx<'_> {
    /// Covers internal node `node` (subject gate `gate`): pushes it onto
    /// the binding and returns whether it was covered through a shared
    /// node, or `None` when the policy forbids covering it.
    fn enter(&self, b: &mut Binding, node: u32, gate: GateId, at_root: bool) -> Option<bool> {
        let through = !at_root && self.shared.get(node as usize).copied().unwrap_or(false);
        if through && self.policy == SharedPolicy::Forbid {
            return None;
        }
        b.covered.push(gate);
        if through {
            b.through.push(node);
        }
        Some(through)
    }
}

/// The embedding under construction.
#[derive(Debug, Default)]
struct Binding {
    pins: Vec<Option<u32>>,
    covered: Vec<GateId>,
    through: Vec<u32>,
}

impl Binding {
    /// True when `m` is the match this complete binding of `cell` denotes.
    fn is(&self, cell: u32, m: &Match) -> bool {
        m.cell == cell
            && m.covered == self.covered
            && m.through == self.through
            && m.leaves.len() == self.pins.len()
            && m.leaves.iter().zip(&self.pins).all(|(l, p)| Some(*l) == *p)
    }

    /// Undoes the matching [`Ctx::enter`].
    fn leave(&mut self, through: bool) {
        if through {
            self.through.pop();
        }
        self.covered.pop();
    }

    fn to_match(&self, cell: u32) -> Match {
        Match {
            cell,
            leaves: self.pins.iter().map(|p| p.expect("linear pattern binds all pins")).collect(),
            covered: self.covered.clone(),
            through: self.through.clone(),
        }
    }
}

/// Tries to embed `pat` at `node`, extending `b`, and calls `k` on every
/// complete embedding in enumeration order; `b` is restored before
/// returning. `at_root` is true only for the node the whole match is
/// rooted at, which is exempt from the barrier test.
///
/// The order is part of the result: the covering DP keeps the first of
/// equal-cost matches. For a NAND it is every embedding of the left
/// child in order, each followed by every embedding of the right child,
/// first for the `(a, b)` child order and then for `(b, a)`.
fn match_rec(
    cx: &Ctx,
    node: u32,
    pat: &PatternTree,
    at_root: bool,
    b: &mut Binding,
    k: &mut dyn FnMut(&mut Binding),
) {
    match (pat, &cx.tree.nodes[node as usize]) {
        (PatternTree::Leaf(pin), _) => {
            let pin = *pin as usize;
            debug_assert!(b.pins[pin].is_none(), "linear patterns bind each pin once");
            b.pins[pin] = Some(node);
            k(b);
            b.pins[pin] = None;
        }
        (PatternTree::Inv(inner), &TreeNode::Inv { child, gate }) => {
            if let Some(through) = cx.enter(b, node, gate, at_root) {
                match_rec(cx, child, inner, false, b, k);
                b.leave(through);
            }
        }
        (PatternTree::Nand(pa, pb), &TreeNode::Nand { a, b: bb, gate }) => {
            if let Some(through) = cx.enter(b, node, gate, at_root) {
                // both child orders (NAND is commutative)
                for (ta, tb) in [(a, bb), (bb, a)] {
                    match_rec(cx, ta, pa, false, b, &mut |b: &mut Binding| {
                        match_rec(cx, tb, pb, false, b, k)
                    });
                    if a == bb {
                        break; // identical children: one order suffices
                    }
                }
                b.leave(through);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, PartitionScheme};
    use casyn_library::corelib018;
    use casyn_netlist::subject::SubjectGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The clone-per-step enumerator `matches_at` replaced, kept as the
    /// oracle for its output and order.
    mod reference {
        use super::super::{Match, SharedPolicy};
        use crate::partition::{Tree, TreeNode};
        use casyn_library::{Library, PatternTree};
        use casyn_netlist::subject::GateId;

        #[derive(Clone)]
        struct Binding {
            pins: Vec<Option<u32>>,
            covered: Vec<GateId>,
            through: Vec<u32>,
        }

        pub fn matches_at(
            tree: &Tree,
            node: u32,
            lib: &Library,
            shared: &[bool],
            policy: SharedPolicy,
        ) -> Vec<Match> {
            let mut out = Vec::new();
            if matches!(tree.nodes[node as usize], TreeNode::Leaf { .. }) {
                return out;
            }
            for (cid, cell) in lib.cells().iter().enumerate() {
                if cell.sequential {
                    continue;
                }
                for pat in &cell.patterns {
                    let mut bindings = Vec::new();
                    let empty = Binding {
                        pins: vec![None; cell.num_pins],
                        covered: Vec::new(),
                        through: Vec::new(),
                    };
                    match_rec(tree, node, pat, &empty, true, shared, policy, &mut bindings);
                    for b in bindings {
                        let leaves = b.pins.iter().map(|p| p.unwrap()).collect();
                        let m = Match {
                            cell: cid as u32,
                            leaves,
                            covered: b.covered,
                            through: b.through,
                        };
                        if !out.contains(&m) {
                            out.push(m);
                        }
                    }
                }
            }
            out
        }

        #[allow(clippy::too_many_arguments)]
        fn match_rec(
            tree: &Tree,
            node: u32,
            pat: &PatternTree,
            partial: &Binding,
            at_root: bool,
            shared: &[bool],
            policy: SharedPolicy,
            out: &mut Vec<Binding>,
        ) {
            let is_shared = |n: u32| !at_root && shared.get(n as usize).copied().unwrap_or(false);
            match pat {
                PatternTree::Leaf(pin) => {
                    let mut b = partial.clone();
                    b.pins[*pin as usize] = Some(node);
                    out.push(b);
                }
                PatternTree::Inv(inner) => {
                    if let TreeNode::Inv { child, gate } = tree.nodes[node as usize] {
                        if is_shared(node) && policy == SharedPolicy::Forbid {
                            return;
                        }
                        let mut b = partial.clone();
                        b.covered.push(gate);
                        if is_shared(node) {
                            b.through.push(node);
                        }
                        match_rec(tree, child, inner, &b, false, shared, policy, out);
                    }
                }
                PatternTree::Nand(pa, pb) => {
                    if let TreeNode::Nand { a, b, gate } = tree.nodes[node as usize] {
                        if is_shared(node) && policy == SharedPolicy::Forbid {
                            return;
                        }
                        let mut base = partial.clone();
                        base.covered.push(gate);
                        if is_shared(node) {
                            base.through.push(node);
                        }
                        for (ta, tb) in [(a, b), (b, a)] {
                            let mut lefts = Vec::new();
                            match_rec(tree, ta, pa, &base, false, shared, policy, &mut lefts);
                            for l in lefts {
                                match_rec(tree, tb, pb, &l, false, shared, policy, out);
                            }
                            if a == b {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Appends a random subtree in post-order and returns its root index.
    /// A few NANDs reuse one child for both inputs, exercising the
    /// identical-children rule.
    fn random_subtree(rng: &mut StdRng, depth: u32, nodes: &mut Vec<TreeNode>) -> u32 {
        let roll: f64 = rng.gen();
        let node = if depth == 0 || roll < 0.2 {
            TreeNode::Leaf { signal: GateId(rng.gen_range(0u32..6)) }
        } else if roll < 0.45 {
            let child = random_subtree(rng, depth - 1, nodes);
            TreeNode::Inv { child, gate: GateId(1000 + nodes.len() as u32) }
        } else {
            let a = random_subtree(rng, depth - 1, nodes);
            let b = if roll < 0.5 { a } else { random_subtree(rng, depth - 1, nodes) };
            TreeNode::Nand { a, b, gate: GateId(1000 + nodes.len() as u32) }
        };
        nodes.push(node);
        (nodes.len() - 1) as u32
    }

    /// The backtracking enumerator returns exactly the oracle's matches,
    /// in the oracle's order, on random trees and shared masks under
    /// both policies.
    #[test]
    fn enumeration_matches_clone_based_oracle() {
        let lib = corelib018();
        let mut rng = StdRng::seed_from_u64(0x3a7c);
        let mut checked = 0;
        for _ in 0..300 {
            let mut nodes = Vec::new();
            let depth = rng.gen_range(1u32..8);
            random_subtree(&mut rng, depth, &mut nodes);
            let tree = Tree { nodes, root_gate: GateId(0) };
            // masks may be shorter than the tree: missing entries read
            // as unshared
            let len = rng.gen_range(0..=tree.nodes.len());
            let density: f64 = rng.gen();
            let shared: Vec<bool> = (0..len).map(|_| rng.gen::<f64>() < density).collect();
            for node in 0..tree.nodes.len() as u32 {
                for policy in [SharedPolicy::Forbid, SharedPolicy::Price] {
                    let got = matches_at(&tree, node, &lib, &shared, policy);
                    let want = reference::matches_at(&tree, node, &lib, &shared, policy);
                    assert_eq!(got, want, "node {node} {policy:?} of {:?}", tree.nodes);
                    checked += got.len();
                }
            }
        }
        assert!(checked > 1000, "too few matches exercised: {checked}");
    }

    fn single_tree(g: &SubjectGraph) -> Tree {
        let f = partition(g, PartitionScheme::Dagon, &[]);
        assert_eq!(f.trees.len(), 1, "test circuit must form one tree");
        f.trees.into_iter().next().unwrap()
    }

    #[test]
    fn inv_node_matches_inverter_cells() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i = g.add_inv(a);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let names: Vec<&str> = ms.iter().map(|m| lib.cell(m.cell).name.as_str()).collect();
        assert!(names.contains(&"IV"));
        assert!(names.contains(&"IVD2"));
        assert!(!names.contains(&"ND2"));
    }

    #[test]
    fn and_structure_matches_an2_and_inv() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i = g.add_inv(n);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let an2 = ms.iter().find(|m| lib.cell(m.cell).name == "AN2").expect("AN2 match");
        assert_eq!(an2.covered.len(), 2);
        assert_eq!(an2.leaves.len(), 2);
        // BUF also matches? no: inv(nand) is not inv(inv)
        assert!(ms.iter().all(|m| lib.cell(m.cell).name != "BUF"));
    }

    #[test]
    fn nand3_matches_both_skews_via_commutativity() {
        let lib = corelib018();
        // shape 1: nand(a, inv(nand(b, c)))
        let mut g1 = SubjectGraph::new();
        let a = g1.add_input("a");
        let b = g1.add_input("b");
        let c = g1.add_input("c");
        let nbc = g1.add_nand2(b, c);
        let inner = g1.add_inv(nbc);
        let root = g1.add_nand2(a, inner);
        g1.add_output("o", root);
        let t1 = single_tree(&g1);
        let ms1 = matches_at(&t1, t1.root(), &lib, &[], SharedPolicy::Price);
        assert!(ms1.iter().any(|m| lib.cell(m.cell).name == "ND3"));
        // shape 2: nand(inv(nand(b, c)), a) — swapped at construction
        let mut g2 = SubjectGraph::new();
        let a = g2.add_input("a");
        let b = g2.add_input("b");
        let c = g2.add_input("c");
        let nb = g2.add_nand2(b, c);
        let inner = g2.add_inv(nb);
        let root = g2.add_nand2(inner, a);
        g2.add_output("o", root);
        let t2 = single_tree(&g2);
        let ms2 = matches_at(&t2, t2.root(), &lib, &[], SharedPolicy::Price);
        assert!(ms2.iter().any(|m| lib.cell(m.cell).name == "ND3"));
    }

    #[test]
    fn leaves_land_on_internal_nodes_too() {
        // inv(inv(x)): the outer INV can match with its leaf on the inner
        // INV (an internal node)
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i1 = g.add_inv(a);
        let i2 = g.add_inv(i1);
        g.add_output("o", i2);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        // IV match with leaf bound to the inner INV node
        let iv = ms.iter().find(|m| lib.cell(m.cell).name == "IV").unwrap();
        let leaf_node = iv.leaves[0];
        assert!(matches!(tree.nodes[leaf_node as usize], TreeNode::Inv { .. }));
        // BUF match consuming both inverters
        let buf = ms.iter().find(|m| lib.cell(m.cell).name == "BUF").unwrap();
        assert_eq!(buf.covered.len(), 2);
    }

    #[test]
    fn no_matches_at_leaf_nodes() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i = g.add_inv(a);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        // node 0 is the leaf referencing `a`
        assert!(matches!(tree.nodes[0], TreeNode::Leaf { .. }));
        assert!(matches_at(&tree, 0, &lib, &[], SharedPolicy::Price).is_empty());
    }

    #[test]
    fn every_internal_node_has_a_match() {
        // a random-ish structure: all internal nodes must be coverable
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let i1 = g.add_inv(n1);
        let n2 = g.add_nand2(i1, c);
        let i2 = g.add_inv(n2);
        g.add_output("o", i2);
        let lib = corelib018();
        let tree = single_tree(&g);
        for (idx, node) in tree.nodes.iter().enumerate() {
            if !matches!(node, TreeNode::Leaf { .. }) {
                assert!(
                    !matches_at(&tree, idx as u32, &lib, &[], SharedPolicy::Price).is_empty(),
                    "no match at internal node {idx}"
                );
            }
        }
    }

    #[test]
    fn aoi21_covers_four_gates() {
        // subject: inv(nand(nand(a,b), inv(c)))
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let ic = g.add_inv(c);
        let n2 = g.add_nand2(n1, ic);
        let root = g.add_inv(n2);
        g.add_output("o", root);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let aoi = ms.iter().find(|m| lib.cell(m.cell).name == "AOI21").expect("AOI21");
        assert_eq!(aoi.covered.len(), 4);
        // its three leaves are the three input leaf nodes
        for &l in &aoi.leaves {
            assert!(matches!(tree.nodes[l as usize], TreeNode::Leaf { .. }));
        }
    }
}
