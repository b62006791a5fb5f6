//! The cut-optimal recommender (§4.2, Definition 9, Theorems 1–2).
//!
//! A *cut* contains exactly one node on each root-to-leaf path of the
//! covering tree; pruning all subtrees below the cut turns each cut node
//! into a leaf that inherits its subtree's coverage. The optimal cut
//! maximizes the recommender's total projected profit and, among maximal
//! cuts, is as small as possible.
//!
//! The linear algorithm is one post-order pass. At each node `r`:
//!
//! * `Tree_Prof(r)` — projected profit of the (already-pruned) subtree:
//!   `Prof_pr(r | Cover(r))` plus the children's final subtree profits;
//! * `Leaf_Prof(r)` — `Prof_pr` of `r` over the *merged* coverage of its
//!   entire subtree, as if `r` were a leaf.
//!
//! If `Leaf_Prof(r) ≥ Tree_Prof(r)` the subtree is pruned at `r`.
//! (The paper's text prints this inequality reversed — pruning when the
//! profit would *drop* — which contradicts both its stated goal and the
//! C4.5 analogue it cites; we implement the evidently intended direction.
//! `≥` rather than `>` keeps the cut minimal on ties, per Definition 9.)
//!
//! The recursion this implements is exactly
//! `opt(r) = max(Leaf_Prof(r), Prof_pr(r|Cover(r)) + Σ_child opt(child))`,
//! whose correctness is Theorem 2; [`reference::best_cut`] re-derives the
//! optimum by exhaustive cut enumeration for the test suite.

/// Tree input for cut optimization, decoupled from rule specifics: node
/// `i`'s projected profit over any tid list is supplied by the evaluator.
#[derive(Debug, Clone, Copy)]
pub struct CutTree<'a> {
    /// Parent per node; exactly one `None` (the root).
    pub parent: &'a [Option<usize>],
    /// Own coverage per node (disjoint tid lists).
    pub cover: &'a [Vec<u32>],
}

impl CutTree<'_> {
    /// Index of the root.
    pub fn root(&self) -> usize {
        self.parent
            .iter()
            .position(Option::is_none)
            .expect("tree has a root")
    }
}

/// Outcome of cut optimization.
#[derive(Debug, Clone)]
pub struct CutResult {
    /// Whether each node is retained (at or above the cut).
    pub retained: Vec<bool>,
    /// Size of each retained node's final coverage: the merged subtree
    /// coverage for cut leaves, the own coverage otherwise. Zero for
    /// removed nodes.
    pub coverage: Vec<u32>,
    /// `Prof_pr` of each retained node over its final coverage.
    pub node_profit: Vec<f64>,
    /// Total projected profit of the cut recommender.
    pub total_profit: f64,
}

impl CutResult {
    /// Number of retained rules.
    pub fn n_retained(&self) -> usize {
        self.retained.iter().filter(|&&r| r).count()
    }
}

/// The nodes of a tree in pre-order, children ascending, with every
/// node's own coverage laid out in that order in one buffer. A subtree is
/// then one run of positions, and its merged coverage one slice: the
/// concatenation of its covers in pre-order, the order a merge that
/// appends each child's merged coverage in ascending child order gives.
struct PreOrder {
    /// The node at each position.
    node: Vec<usize>,
    /// Per position: the position just past its subtree.
    end: Vec<usize>,
    /// Per position and one past the last: where its own coverage starts
    /// in `tids`.
    at: Vec<usize>,
    tids: Vec<u32>,
}

impl PreOrder {
    fn new(tree: &CutTree<'_>) -> Self {
        let n = tree.parent.len();
        // Children of each node, ascending, in one array.
        let mut first = vec![0usize; n + 1];
        for &p in tree.parent.iter().flatten() {
            first[p + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut fill = first.clone();
        let mut kids = vec![0usize; first[n]];
        for (i, p) in tree.parent.iter().enumerate() {
            if let &Some(p) = p {
                kids[fill[p]] = i;
                fill[p] += 1;
            }
        }
        let children = |v: usize| &kids[first[v]..first[v + 1]];

        let mut node = Vec::with_capacity(n);
        let mut stack = vec![tree.root()];
        while let Some(v) = stack.pop() {
            node.push(v);
            stack.extend(children(v).iter().rev());
        }
        let mut pos = vec![0usize; n];
        for (p, &v) in node.iter().enumerate() {
            pos[v] = p;
        }
        let mut end = vec![0usize; n];
        for p in (0..n).rev() {
            end[p] = children(node[p]).last().map_or(p + 1, |&c| end[pos[c]]);
        }
        let mut tids = Vec::with_capacity(tree.cover.iter().map(Vec::len).sum());
        let mut at = Vec::with_capacity(n + 1);
        for &v in &node {
            at.push(tids.len());
            tids.extend_from_slice(&tree.cover[v]);
        }
        at.push(tids.len());
        Self {
            node,
            end,
            at,
            tids,
        }
    }
}

/// Find the optimal cut of `tree`, where `eval(node, tids)` returns the
/// projected profit `Prof_pr` of node `node`'s rule over the coverage
/// `tids`.
pub fn optimal_cut<F>(tree: &CutTree<'_>, mut eval: F) -> CutResult
where
    F: FnMut(usize, &[u32]) -> f64,
{
    let n = tree.parent.len();
    let PreOrder {
        node,
        end,
        at,
        tids,
    } = PreOrder::new(tree);

    let mut tree_prof = vec![0.0f64; n];
    let mut node_profit = vec![0.0f64; n];
    let mut coverage = vec![0u32; n];
    let mut cut_at = vec![false; n];
    // Reverse pre-order visits children before parents.
    for p in (0..n).rev() {
        let v = node[p];
        let own_tids = &tids[at[p]..at[p + 1]];
        let own = eval(v, own_tids);
        (tree_prof[v], node_profit[v], coverage[v]) = (own, own, own_tids.len() as u32);
        if end[p] == p + 1 {
            continue;
        }
        // The children, ascending, start at p + 1 and follow each other.
        let mut subtree = own;
        let mut c = p + 1;
        while c < end[p] {
            subtree += tree_prof[node[c]];
            c = end[c];
        }
        let merged = &tids[at[p]..at[end[p]]];
        let leaf = eval(v, merged);
        if leaf >= subtree - 1e-9 {
            // Prune the subtree at v: v becomes a leaf covering all of it.
            cut_at[p] = true;
            (tree_prof[v], node_profit[v], coverage[v]) = (leaf, leaf, merged.len() as u32);
        } else {
            tree_prof[v] = subtree;
        }
    }

    // Remove everything below the topmost cut on each path.
    let mut retained = vec![true; n];
    let mut p = 0;
    while p < n {
        if !cut_at[p] {
            p += 1;
            continue;
        }
        for &v in &node[p + 1..end[p]] {
            retained[v] = false;
            node_profit[v] = 0.0;
            coverage[v] = 0;
        }
        p = end[p];
    }

    CutResult {
        retained,
        coverage,
        node_profit,
        total_profit: tree_prof[node[0]],
    }
}

/// Exhaustive reference implementation, for tests only: enumerates every
/// cut and returns the maximum projected profit together with the size of
/// the smallest maximizing cut and its retained set.
pub mod reference {
    use super::CutTree;

    /// `(best profit, retained-node count of the smallest best cut,
    /// retained set)`.
    pub fn best_cut<F>(tree: &CutTree<'_>, eval: &mut F) -> (f64, usize, Vec<bool>)
    where
        F: FnMut(usize, &[u32]) -> f64,
    {
        let mut children = vec![Vec::new(); tree.parent.len()];
        for (i, p) in tree.parent.iter().enumerate() {
            if let &Some(p) = p {
                children[p].push(i);
            }
        }
        let root = tree.root();
        let mut best: Option<(f64, usize, Vec<bool>)> = None;
        let cuts = enumerate(root, &children);
        for cut_leaves in cuts {
            // Retained set: all ancestors-or-self of cut nodes.
            let mut retained = vec![false; tree.parent.len()];
            for &c in &cut_leaves {
                let mut v = Some(c);
                while let Some(x) = v {
                    retained[x] = true;
                    v = tree.parent[x];
                }
            }
            let mut profit = 0.0;
            for (v, _) in retained.iter().enumerate().filter(|(_, r)| **r) {
                if cut_leaves.contains(&v) {
                    let mut m = Vec::new();
                    collect(v, &children, tree.cover, &mut m);
                    profit += eval(v, &m);
                } else {
                    profit += eval(v, &tree.cover[v]);
                }
            }
            let size = retained.iter().filter(|&&r| r).count();
            let better = match &best {
                None => true,
                Some((bp, bs, _)) => {
                    profit > bp + 1e-9 || ((profit - bp).abs() <= 1e-9 && size < *bs)
                }
            };
            if better {
                best = Some((profit, size, retained));
            }
        }
        best.expect("at least the root cut exists")
    }

    /// All cuts of the subtree at `v`, each as the set of cut nodes.
    fn enumerate(v: usize, children: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut out = vec![vec![v]]; // cut at v itself
        if children[v].is_empty() {
            return out;
        }
        // Cartesian product of the children's cuts.
        let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
        for &c in &children[v] {
            let child_cuts = enumerate(c, children);
            let mut next = Vec::new();
            for combo in &combos {
                for cc in &child_cuts {
                    let mut merged = combo.clone();
                    merged.extend_from_slice(cc);
                    next.push(merged);
                }
            }
            combos = next;
        }
        out.append(&mut combos);
        out
    }

    fn collect(v: usize, children: &[Vec<usize>], cover: &[Vec<u32>], out: &mut Vec<u32>) {
        out.extend_from_slice(&cover[v]);
        for &c in &children[v] {
            collect(c, children, cover, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Evaluator with a fixed per-(node, tid) profit table: the profit of
    /// a node over a coverage is the sum of its per-tid values. This has
    /// the same structure as `Prof_pr` (additive per covered transaction
    /// only when hit rates are uniform) yet exercises arbitrary shapes.
    fn table_eval(table: Vec<Vec<f64>>) -> impl FnMut(usize, &[u32]) -> f64 {
        move |node, tids| tids.iter().map(|&t| table[node][t as usize]).sum()
    }

    /// The parent and cover lists a [`CutTree`] borrows.
    struct Lists {
        parent: Vec<Option<usize>>,
        cover: Vec<Vec<u32>>,
    }

    impl Lists {
        fn tree(&self) -> CutTree<'_> {
            CutTree {
                parent: &self.parent,
                cover: &self.cover,
            }
        }
    }

    /// A three-level tree mirroring the paper's Figure 2:
    /// a(root) → {b, c}; b → {d, e}; plus c a leaf.
    fn figure2_tree() -> Lists {
        Lists {
            //            a     b        c        d        e
            parent: vec![None, Some(0), Some(0), Some(1), Some(1)],
            cover: vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
        }
    }

    #[test]
    fn keeps_subtree_when_children_win() {
        // Children d,e are worth more than b covering everything.
        let table = vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0], // a
            vec![0.0, 1.0, 0.0, 0.1, 0.1], // b: poor on d/e's txns
            vec![0.0, 0.0, 1.0, 0.0, 0.0], // c
            vec![0.0, 0.0, 0.0, 5.0, 0.0], // d
            vec![0.0, 0.0, 0.0, 0.0, 5.0], // e
        ];
        let r = optimal_cut(&figure2_tree().tree(), table_eval(table));
        assert_eq!(r.retained, vec![true; 5]);
        assert_eq!(r.coverage, vec![1; 5]);
        assert!((r.total_profit - 13.0).abs() < 1e-9);
    }

    #[test]
    fn prunes_overfit_leaves() {
        // b over the merged cover beats d + e + b's own.
        let table = vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 2.0, 2.0], // b strong everywhere below it
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.5, 0.0], // d weak
            vec![0.0, 0.0, 0.0, 0.0, 0.5], // e weak
        ];
        let r = optimal_cut(&figure2_tree().tree(), table_eval(table));
        assert_eq!(r.retained, vec![true, true, true, false, false]);
        // b's final coverage merges d's and e's: transactions 1, 3 and 4.
        assert_eq!(r.coverage, vec![1, 3, 1, 0, 0]);
        assert!((r.total_profit - (1.0 + 5.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn can_prune_to_root_only() {
        let table = vec![
            vec![9.0; 5], // the default rule is the best everywhere
            vec![0.1; 5],
            vec![0.1; 5],
            vec![0.1; 5],
            vec![0.1; 5],
        ];
        let r = optimal_cut(&figure2_tree().tree(), table_eval(table));
        assert_eq!(r.retained, vec![true, false, false, false, false]);
        assert!((r.total_profit - 45.0).abs() < 1e-9);
        assert_eq!(r.coverage, vec![5, 0, 0, 0, 0]);
    }

    #[test]
    fn ties_prune_for_minimality() {
        // Leaf profit exactly equals subtree profit at b ⇒ prune there.
        let table = vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let r = optimal_cut(&figure2_tree().tree(), table_eval(table));
        assert!(!r.retained[3] && !r.retained[4], "tie must prune");
    }

    fn random_tree(rng: &mut StdRng, n_nodes: usize, n_txns: usize) -> (Lists, Vec<Vec<f64>>) {
        let mut parent = vec![None];
        for i in 1..n_nodes {
            parent.push(Some(rng.gen_range(0..i)));
        }
        // Partition txns over nodes (some may be empty).
        let mut cover: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        for t in 0..n_txns {
            cover[rng.gen_range(0..n_nodes)].push(t as u32);
        }
        let table: Vec<Vec<f64>> = (0..n_nodes)
            .map(|_| (0..n_txns).map(|_| rng.gen_range(0.0..3.0)).collect())
            .collect();
        (Lists { parent, cover }, table)
    }

    /// Every node's children, ascending.
    fn children(parent: &[Option<usize>]) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let &Some(p) = p {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Node `v`'s subtree coverage merged as a bottom-up cut merges it:
    /// its own cover, then each child's merged coverage in ascending
    /// child order.
    fn merged(v: usize, children: &[Vec<usize>], cover: &[Vec<u32>]) -> Vec<u32> {
        let mut m = cover[v].clone();
        for &c in &children[v] {
            m.extend(merged(c, children, cover));
        }
        m
    }

    #[test]
    fn matches_brute_force_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(20260705);
        for trial in 0..60 {
            let n_nodes = rng.gen_range(2..9);
            let (lists, table) = random_tree(&mut rng, n_nodes, 12);
            let tree = lists.tree();
            let fast = optimal_cut(&tree, table_eval(table.clone()));
            let (best_profit, best_size, best_retained) =
                reference::best_cut(&tree, &mut table_eval(table));
            assert!(
                (fast.total_profit - best_profit).abs() < 1e-6,
                "trial {trial}: {} vs {}",
                fast.total_profit,
                best_profit
            );
            assert_eq!(fast.n_retained(), best_size, "trial {trial}: cut size");
            assert_eq!(fast.retained, best_retained, "trial {trial}: retained set");
        }
    }

    /// Each node's profit and its total are the bits of an evaluation
    /// over merged covers (the cut before the one-buffer layout): both
    /// sum each coverage in the same order. Per-tid values are random
    /// `f64`s, so a different summation order shows in the low bits; the
    /// test checks that it would.
    #[test]
    fn node_profits_equal_a_merge_order_evaluation_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut order_shows = false;
        for trial in 0..200 {
            let n_nodes = rng.gen_range(1..40);
            let (lists, table) = random_tree(&mut rng, n_nodes, 120);
            let children = children(&lists.parent);
            let r = optimal_cut(&lists.tree(), table_eval(table.clone()));
            let sum = |v: usize, tids: &[u32]| -> f64 {
                tids.iter().map(|&t| table[v][t as usize]).sum()
            };
            let mut total = 0.0;
            for v in 0..n_nodes {
                if !r.retained[v] {
                    assert_eq!((r.node_profit[v], r.coverage[v]), (0.0, 0), "trial {trial}");
                    continue;
                }
                let leaf = children[v].iter().all(|&c| !r.retained[c]);
                let tids = if leaf {
                    merged(v, &children, &lists.cover)
                } else {
                    lists.cover[v].clone()
                };
                assert_eq!(
                    r.node_profit[v].to_bits(),
                    sum(v, &tids).to_bits(),
                    "trial {trial} node {v}"
                );
                assert_eq!(r.coverage[v] as usize, tids.len(), "trial {trial} node {v}");
                let mut sorted = tids.clone();
                sorted.sort_unstable();
                order_shows |= sum(v, &sorted).to_bits() != sum(v, &tids).to_bits();
                total += r.node_profit[v];
            }
            assert!((total - r.total_profit).abs() < 1e-9, "trial {trial}");
        }
        assert!(order_shows, "some node's sum must depend on the tid order");
    }

    #[test]
    fn total_equals_sum_of_retained_node_profits() {
        let mut rng = StdRng::seed_from_u64(7);
        let (lists, table) = random_tree(&mut rng, 10, 30);
        let r = optimal_cut(&lists.tree(), table_eval(table));
        let sum: f64 = (0..10)
            .filter(|&i| r.retained[i])
            .map(|i| r.node_profit[i])
            .sum();
        assert!((sum - r.total_profit).abs() < 1e-9);
    }

    /// The final coverages partition the transactions: a removed node
    /// covers none, a cut leaf covers its whole subtree's, an inner
    /// node its own, and together they cover each transaction once.
    #[test]
    fn final_covers_partition_transactions() {
        let mut rng = StdRng::seed_from_u64(9);
        let (lists, table) = random_tree(&mut rng, 12, 40);
        let children = children(&lists.parent);
        let r = optimal_cut(&lists.tree(), table_eval(table));
        let mut seen = [false; 40];
        for (i, &count) in r.coverage.iter().enumerate() {
            if !r.retained[i] {
                assert_eq!(count, 0);
                continue;
            }
            let leaf = children[i].iter().all(|&c| !r.retained[c]);
            let cov = if leaf {
                merged(i, &children, &lists.cover)
            } else {
                lists.cover[i].clone()
            };
            assert_eq!(count as usize, cov.len(), "node {i}");
            for &t in &cov {
                assert!(!seen[t as usize], "transaction covered twice");
                seen[t as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all transactions stay covered");
        assert_eq!(r.coverage.iter().sum::<u32>(), 40);
    }

    #[test]
    fn single_node_tree() {
        let lists = Lists {
            parent: vec![None],
            cover: vec![vec![0, 1, 2]],
        };
        let r = optimal_cut(&lists.tree(), |_, tids| tids.len() as f64);
        assert_eq!(r.retained, vec![true]);
        assert_eq!(r.coverage, vec![3]);
        assert!((r.total_profit - 3.0).abs() < 1e-12);
    }
}
