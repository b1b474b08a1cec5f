//! Control-flow-graph utilities: predecessors, reachability, dominators,
//! and the reverse post-order traversal used by FMSA's linearization
//! (§III-B).

use crate::function::Function;
use crate::idhash::IdHashMap;
use crate::value::BlockId;

/// Predecessor map of a function's CFG.
#[derive(Debug, Clone, Default)]
pub struct Predecessors {
    map: IdHashMap<BlockId, Vec<BlockId>>,
}

impl Predecessors {
    /// Computes predecessors of every live block of `f`.
    pub fn compute(f: &Function) -> Predecessors {
        let mut map: IdHashMap<BlockId, Vec<BlockId>> = IdHashMap::default();
        for b in f.block_ids() {
            map.entry(b).or_default();
        }
        for b in f.block_ids() {
            for s in f.successors(b) {
                map.entry(s).or_default().push(b);
            }
        }
        Predecessors { map }
    }

    /// Predecessors of `b` (empty slice if it has none).
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        self.map.get(&b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of predecessors of `b`.
    pub fn count(&self, b: BlockId) -> usize {
        self.of(b).len()
    }
}

/// Computes the reverse post-order of the blocks reachable from the entry.
///
/// Successors are visited in a canonical order (the operand order of the
/// terminator) so the traversal — and therefore the linearization the
/// merger aligns — is deterministic, as required by §III-B of the paper
/// ("a reverse post-order traversal with a canonical ordering of successor
/// basic blocks").
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    if f.is_declaration() {
        return Vec::new();
    }
    let entry = f.entry();
    let mut visited: Vec<bool> = Vec::new();
    let mut post: Vec<BlockId> = Vec::new();
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    mark(&mut visited, entry);
    while let Some(&mut (b, ref mut idx)) = stack.last_mut() {
        let succs = f.successors(b);
        if *idx < succs.len() {
            // Visit successors in reverse operand order so the *first*
            // successor ends up first in the final reverse post-order.
            let s = succs[succs.len() - 1 - *idx];
            *idx += 1;
            if f.is_live_block(s) && !is_marked(&visited, s) {
                mark(&mut visited, s);
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Dominance over a graph of `n` nodes numbered from 0, node 0 being the
/// entry. Only nodes reachable from the entry dominate or are dominated.
/// Cooper-Harvey-Kennedy over the reverse post-order, then a depth-first
/// numbering of the dominator tree, so that a query is one comparison
/// however deep the tree.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator (the entry's is itself; `NONE`: unreachable).
    idom: Vec<u32>,
    /// Pre-order number in the dominator tree (`NONE`: unreachable).
    pre: Vec<u32>,
    /// The largest pre-order number in each node's subtree.
    last: Vec<u32>,
}

impl DomTree {
    const NONE: u32 = u32::MAX;

    /// Computes dominance from `succs(k)`, the successors of node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 (there is no entry).
    pub fn compute<'a>(n: usize, succs: impl Fn(usize) -> &'a [u32]) -> DomTree {
        const NONE: u32 = DomTree::NONE;
        let mut post: Vec<u32> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        seen[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs(b as usize).get(*next) {
                *next += 1;
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let mut rpo = vec![NONE; n];
        for (k, &b) in post.iter().rev().enumerate() {
            rpo[b as usize] = k as u32;
        }
        // Predecessors of reachable nodes, from reachable nodes.
        let mut start = vec![0u32; n + 1];
        for &b in &post {
            for &s in succs(b as usize) {
                start[s as usize + 1] += 1;
            }
        }
        for k in 0..n {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut preds = vec![0u32; start[n] as usize];
        for &b in &post {
            for &s in succs(b as usize) {
                preds[fill[s as usize] as usize] = b;
                fill[s as usize] += 1;
            }
        }
        let mut idom = vec![NONE; n];
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().rev().skip(1) {
                let mut new_idom = NONE;
                for &p in &preds[start[b as usize] as usize..start[b as usize + 1] as usize] {
                    if idom[p as usize] == NONE {
                        continue; // not processed yet
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        let (mut x, mut y) = (p, new_idom);
                        while x != y {
                            while rpo[x as usize] > rpo[y as usize] {
                                x = idom[x as usize];
                            }
                            while rpo[y as usize] > rpo[x as usize] {
                                y = idom[y as usize];
                            }
                        }
                        x
                    };
                }
                if new_idom != NONE && idom[b as usize] != new_idom {
                    idom[b as usize] = new_idom;
                    changed = true;
                }
            }
        }
        // Number the dominator tree depth-first: `a` dominates `b` exactly
        // when `b`'s number falls in `a`'s subtree.
        let mut first_child = vec![0u32; n + 1];
        for &b in &post {
            if b != 0 {
                first_child[idom[b as usize] as usize + 1] += 1;
            }
        }
        for k in 0..n {
            first_child[k + 1] += first_child[k];
        }
        let mut fill = first_child.clone();
        let mut children = vec![0u32; first_child[n] as usize];
        for &b in &post {
            if b != 0 {
                let parent = idom[b as usize] as usize;
                children[fill[parent] as usize] = b;
                fill[parent] += 1;
            }
        }
        let (mut pre, mut last) = (vec![NONE; n], vec![NONE; n]);
        let mut counter = 0;
        pre[0] = 0;
        let mut stack: Vec<(u32, u32)> = vec![(0, first_child[0])];
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < first_child[b as usize + 1] {
                let c = children[*next as usize];
                *next += 1;
                counter += 1;
                pre[c as usize] = counter;
                stack.push((c, first_child[c as usize]));
            } else {
                last[b as usize] = counter;
                stack.pop();
            }
        }
        DomTree { idom, pre, last }
    }

    /// Whether node `b` is reachable from the entry.
    pub fn reachable(&self, b: usize) -> bool {
        self.pre[b] != Self::NONE
    }

    /// Whether node `a` dominates node `b` (reflexive).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        self.reachable(a)
            && self.reachable(b)
            && self.pre[a] <= self.pre[b]
            && self.pre[b] <= self.last[a]
    }

    /// The immediate dominator of node `b` (`None` for the entry and for
    /// unreachable nodes).
    pub fn idom(&self, b: usize) -> Option<usize> {
        (b != 0 && self.reachable(b)).then(|| self.idom[b] as usize)
    }
}

/// Immediate-dominator tree of a function's CFG: a [`DomTree`] over its
/// blocks, entry first.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// The node of each block id (`u32::MAX`: not a live block).
    node: Vec<u32>,
    /// The block of each node.
    blocks: Vec<BlockId>,
    tree: DomTree,
}

impl Dominators {
    /// Computes dominators for the reachable blocks of `f`.
    ///
    /// # Panics
    ///
    /// Panics on declarations.
    pub fn compute(f: &Function) -> Dominators {
        let blocks: Vec<BlockId> = f.block_ids().collect(); // the entry first
        let mut node = vec![u32::MAX; blocks.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
        for (k, b) in blocks.iter().enumerate() {
            node[b.index()] = k as u32;
        }
        let succs: Vec<Vec<u32>> = blocks
            .iter()
            .map(|&b| {
                let live = |s: BlockId| node.get(s.index()).copied().filter(|&k| k != u32::MAX);
                f.successors(b).into_iter().filter_map(live).collect()
            })
            .collect();
        let tree = DomTree::compute(blocks.len(), |k| &succs[k]);
        Dominators { node, blocks, tree }
    }

    fn node(&self, b: BlockId) -> Option<usize> {
        self.node.get(b.index()).copied().filter(|&k| k != u32::MAX).map(|k| k as usize)
    }

    /// Whether block `a` dominates block `b` (reflexive). Unreachable
    /// blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        match (self.node(a), self.node(b)) {
            (Some(a), Some(b)) => self.tree.dominates(a, b),
            _ => false,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.tree.idom(self.node(b)?).map(|k| self.blocks[k])
    }
}

/// Blocks unreachable from the entry, in layout order.
pub fn unreachable_blocks(f: &Function) -> Vec<BlockId> {
    let reachable: std::collections::HashSet<BlockId> = reverse_post_order(f).into_iter().collect();
    f.block_ids().filter(|b| !reachable.contains(b)).collect()
}

fn mark(visited: &mut Vec<bool>, b: BlockId) {
    let i = b.index();
    if visited.len() <= i {
        visited.resize(i + 1, false);
    }
    visited[i] = true;
}

fn is_marked(visited: &[bool], b: BlockId) -> bool {
    visited.get(b.index()).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Module;
    use crate::value::Value;

    /// entry -> (then, else) -> join ; plus one unreachable block.
    fn diamond() -> (Module, crate::value::FuncId, Vec<BlockId>) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![m.types.i1()]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let then_b = b.block("then");
        let else_b = b.block("else");
        let join = b.block("join");
        let dead = b.block("dead");
        b.switch_to(entry);
        b.condbr(Value::Param(0), then_b, else_b);
        b.switch_to(then_b);
        b.br(join);
        b.switch_to(else_b);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(b.const_i32(0)));
        b.switch_to(dead);
        b.ret(Some(b.const_i32(1)));
        (m, f, vec![entry, then_b, else_b, join, dead])
    }

    #[test]
    fn rpo_of_diamond() {
        let (m, f, blocks) = diamond();
        let rpo = reverse_post_order(m.func(f));
        let [entry, then_b, else_b, join, dead] = blocks[..] else { unreachable!() };
        assert_eq!(rpo.first(), Some(&entry));
        assert!(!rpo.contains(&dead), "unreachable block excluded");
        // join comes after both branches.
        let pos = |b| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(join) > pos(then_b));
        assert!(pos(join) > pos(else_b));
        // Canonical order: then before else (operand order).
        assert!(pos(then_b) < pos(else_b));
    }

    #[test]
    fn rpo_is_deterministic() {
        let (m, f, _) = diamond();
        let a = reverse_post_order(m.func(f));
        let b = reverse_post_order(m.func(f));
        assert_eq!(a, b);
    }

    #[test]
    fn predecessors_of_join() {
        let (m, f, blocks) = diamond();
        let preds = Predecessors::compute(m.func(f));
        let [entry, then_b, else_b, join, _] = blocks[..] else { unreachable!() };
        assert_eq!(preds.count(entry), 0);
        let mut pj = preds.of(join).to_vec();
        pj.sort();
        let mut expect = vec![then_b, else_b];
        expect.sort();
        assert_eq!(pj, expect);
    }

    #[test]
    fn unreachable_detection() {
        let (m, f, blocks) = diamond();
        let dead = blocks[4];
        assert_eq!(unreachable_blocks(m.func(f)), vec![dead]);
    }

    #[test]
    fn dominators_of_diamond() {
        let (m, f, blocks) = diamond();
        let dom = Dominators::compute(m.func(f));
        let [entry, then_b, else_b, join, dead] = blocks[..] else { unreachable!() };
        assert!(dom.dominates(entry, join));
        assert!(dom.dominates(entry, then_b));
        assert!(!dom.dominates(then_b, join), "one branch arm does not dominate the join");
        assert!(!dom.dominates(else_b, join));
        assert!(dom.dominates(join, join), "reflexive");
        assert_eq!(dom.idom(join), Some(entry));
        assert_eq!(dom.idom(entry), None);
        assert!(!dom.dominates(entry, dead), "unreachable blocks are not dominated");
    }

    #[test]
    fn rpo_handles_loops() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![m.types.i1()]);
        let f = m.create_function("loopy", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        b.condbr(Value::Param(0), body, exit);
        b.switch_to(body);
        b.br(header); // back edge
        b.switch_to(exit);
        b.ret(Some(b.const_i32(0)));
        let rpo = reverse_post_order(m.func(f));
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], entry);
        let pos = |x| rpo.iter().position(|&y| y == x).unwrap();
        assert!(pos(header) < pos(body));
    }
}
