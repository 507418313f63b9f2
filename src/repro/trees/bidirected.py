"""Bidirected tree representation for the Section VI algorithms.

A bidirected tree is a directed graph whose underlying undirected graph is a
tree, with (up to) two directed edges per adjacent pair.  We root the tree
(any node works; algorithms are root-agnostic in their results) and store
per-node edge probabilities toward and from the parent, which makes the
O(n) dynamic programs of ``repro.trees.exact`` straightforward.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, List, Sequence

import numpy as np

from ..graphs.digraph import DiGraph

__all__ = ["BidirectedTree", "TreePlan", "reachability_weight"]


class TreePlan:
    """Level-order layout of a rooted tree for batched numpy passes.

    The BFS ``order`` visits nodes level by level, so each depth is a
    contiguous slice of it.  The plan materializes those slices plus a
    padded ``(n, max_children)`` child matrix (``-1`` marks unused slots),
    which is the shape every vectorized tree pass in :mod:`repro.trees`
    iterates over: one numpy op per child *slot* instead of one Python
    iteration per child.
    """

    __slots__ = (
        "depth",
        "levels",
        "nkids",
        "kids_mat",
        "max_kids",
        "seeds_arr",
        "seeds_mask",
        "has_parent",
    )

    def __init__(self, tree: "BidirectedTree") -> None:
        n = tree.n
        depth = np.zeros(n, dtype=np.int64)
        for v in tree.order[1:]:
            depth[v] = depth[tree.parent[v]] + 1
        order_arr = np.asarray(tree.order, dtype=np.int64)
        order_depth = depth[order_arr]
        num_levels = int(order_depth[-1]) + 1 if n else 0
        bounds = np.searchsorted(order_depth, np.arange(num_levels + 1))
        levels = [order_arr[bounds[d]:bounds[d + 1]] for d in range(num_levels)]

        nkids = np.fromiter(
            (len(tree.children[v]) for v in range(n)), dtype=np.int64, count=n
        )
        max_kids = int(nkids.max()) if n else 0
        kids_mat = np.full((n, max(max_kids, 1)), -1, dtype=np.int64)
        for v in range(n):
            kv = tree.children[v]
            if kv:
                kids_mat[v, : len(kv)] = kv

        seeds_arr = np.fromiter(
            sorted(tree.seeds), dtype=np.int64, count=len(tree.seeds)
        )
        seeds_mask = np.zeros(n, dtype=bool)
        seeds_mask[seeds_arr] = True

        self.depth = depth
        self.levels = levels
        self.nkids = nkids
        self.kids_mat = kids_mat
        self.max_kids = max_kids
        self.seeds_arr = seeds_arr
        self.seeds_mask = seeds_mask
        self.has_parent = tree.parent >= 0


def reachability_weight(tree: "BidirectedTree") -> float:
    """``Σ_u Σ_v p(u → v)`` with all edges boosted (upper bounds ``p(k)``).

    Using the all-boosted path product instead of the exact top-``k``
    boosted product only *decreases* δ (finer rounding), which preserves
    the (1 − ε) guarantee at a small extra cost.  Self pairs contribute 1
    each.

    Closed form replacing the O(n²) DFS loop (kept beside the tests as
    ``oracles.trees.legacy_reachability_weight``): with
    ``A[v] = Σ_{u ∈ subtree(v), u ≠ v} Π path(v→u)`` and ``B[v]`` the same
    sum over nodes *outside* the subtree,

        A[v] = Σ_c pp_down[c] · (1 + A[c])
        B[v] = pp_up[v] · (1 + B[par] + A[par] − pp_down[v] · (1 + A[v]))

    and the total is ``n + Σ_v (A[v] + B[v])`` — two level-batched passes.
    """
    plan = tree.plan()
    n = tree.n
    A = np.zeros(n)
    for lvl in reversed(plan.levels):
        smax = int(plan.nkids[lvl].max()) if len(lvl) else 0
        if smax == 0:
            continue
        kc = plan.kids_mat[lvl][:, :smax]
        contrib = np.where(kc >= 0, tree.pp_down[kc] * (1.0 + A[kc]), 0.0)
        A[lvl] = contrib.sum(axis=1)
    B = np.zeros(n)
    for lvl in plan.levels[1:]:
        par = tree.parent[lvl]
        B[lvl] = tree.pp_up[lvl] * (
            1.0 + B[par] + A[par] - tree.pp_down[lvl] * (1.0 + A[lvl])
        )
    return float(n) + float((A + B).sum())


class BidirectedTree:
    """A rooted view of a bidirected tree with seeds.

    Attributes
    ----------
    n:
        Number of nodes.
    root:
        The chosen root (default 0).
    parent:
        ``parent[v]`` is the parent of ``v`` (``-1`` for the root).
    children:
        ``children[v]`` lists the children of ``v``.
    order:
        Nodes in BFS order from the root (parents precede children).
    p_up, pp_up:
        Probabilities of the edge ``v -> parent(v)`` (base / boosted).
    p_down, pp_down:
        Probabilities of the edge ``parent(v) -> v`` (base / boosted).
    seeds:
        The seed set ``S``.
    """

    __slots__ = (
        "n",
        "root",
        "parent",
        "children",
        "order",
        "p_up",
        "pp_up",
        "p_down",
        "pp_down",
        "seeds",
        "_plan",
    )

    def __init__(self, graph: DiGraph, seeds: Iterable[int], root: int = 0) -> None:
        if not graph.is_bidirected_tree():
            raise ValueError("graph is not a bidirected tree")
        n = graph.n
        if not 0 <= root < n:
            raise ValueError("root out of range")
        seed_set = frozenset(int(s) for s in seeds)
        if not seed_set:
            raise ValueError("seed set must be non-empty")
        for s in seed_set:
            if not 0 <= s < n:
                raise ValueError(f"seed {s} out of range")

        # Directed probability lookup; missing directions default to 0.
        prob: dict[tuple[int, int], tuple[float, float]] = {}
        for u, v, p, pp in graph.edges():
            prob[(u, v)] = (p, pp)

        parent = np.full(n, -1, dtype=np.int64)
        children: List[List[int]] = [[] for _ in range(n)]
        order: List[int] = [root]
        visited = np.zeros(n, dtype=bool)
        visited[root] = True
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in graph.out_neighbors(u):
                v = int(v)
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    children[u].append(v)
                    order.append(v)
            # Edges may exist only in the in-direction; cover those too.
            for v in graph.in_neighbors(u):
                v = int(v)
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    children[u].append(v)
                    order.append(v)
        if len(order) != n:
            raise ValueError("tree is not connected")

        p_up = np.zeros(n)
        pp_up = np.zeros(n)
        p_down = np.zeros(n)
        pp_down = np.zeros(n)
        for v in range(n):
            u = int(parent[v])
            if u < 0:
                continue
            p_up[v], pp_up[v] = prob.get((v, u), (0.0, 0.0))
            p_down[v], pp_down[v] = prob.get((u, v), (0.0, 0.0))

        self.n = n
        self.root = int(root)
        self.parent = parent
        self.children = children
        self.order = order
        self.p_up = p_up
        self.pp_up = pp_up
        self.p_down = p_down
        self.pp_down = pp_down
        self.seeds: FrozenSet[int] = seed_set
        self._plan: TreePlan | None = None

    # ------------------------------------------------------------------
    def plan(self) -> TreePlan:
        """The cached :class:`TreePlan` (built lazily; trees are immutable)."""
        if self._plan is None:
            self._plan = TreePlan(self)
        return self._plan

    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> List[int]:
        """Children plus parent (when present)."""
        result = list(self.children[u])
        if self.parent[u] >= 0:
            result.append(int(self.parent[u]))
        return result

    def is_seed(self, v: int) -> bool:
        return v in self.seeds

    def max_children(self) -> int:
        """Largest child count under the current rooting."""
        return max((len(c) for c in self.children), default=0)

    def subtree_nodes(self, v: int) -> List[int]:
        """All nodes of the subtree rooted at ``v`` (including ``v``)."""
        result = [v]
        stack = list(self.children[v])
        while stack:
            u = stack.pop()
            result.append(u)
            stack.extend(self.children[u])
        return result

    def edge_prob(self, u: int, v: int, boost: AbstractSet[int]) -> float:
        """``p^B_{u,v}``: influence probability of edge ``u -> v`` given ``B``."""
        boosted = v in boost
        if self.parent[v] == u:
            return float(self.pp_down[v] if boosted else self.p_down[v])
        if self.parent[u] == v:
            return float(self.pp_up[u] if boosted else self.p_up[u])
        raise ValueError(f"nodes {u} and {v} are not adjacent")

    def to_digraph(self) -> DiGraph:
        """Export back to a :class:`DiGraph` (used by simulators/tests)."""
        src: List[int] = []
        dst: List[int] = []
        p: List[float] = []
        pp: List[float] = []
        for v in range(self.n):
            u = int(self.parent[v])
            if u < 0:
                continue
            src.append(v)
            dst.append(u)
            p.append(float(self.p_up[v]))
            pp.append(float(self.pp_up[v]))
            src.append(u)
            dst.append(v)
            p.append(float(self.p_down[v]))
            pp.append(float(self.pp_down[v]))
        return DiGraph(self.n, src, dst, p, pp)
