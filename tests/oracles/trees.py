"""Seeded loop oracles for the tree subsystem (pinned, do not optimize).

The original per-node Python-loop implementations, exactly as they
shipped, so the vectorized code in :mod:`repro.trees.dp` /
:mod:`repro.trees.exact` / :mod:`repro.trees.bidirected` can be checked
against them value for value:

* :func:`legacy_dp_boost` — the per-node DP-Boost fill loops,
* :func:`legacy_compute_tree_state` — the scalar three-step exact
  computation of Section VI-A,
* :func:`legacy_reachability_weight` — the DFS path-product sum of
  Equation 13's denominator.

The rounding machinery, the general-fan-out recurrence and the
backtracking epilogue are imported from :mod:`repro.trees.dp`: both
fills produce bit-identical tables, so one backtrack serves both and
selections match exactly.

One deliberate deviation from verbatim: ``legacy_dp_boost`` derives its
rounding parameter δ from the *shared* :func:`reachability_weight` (the
vectorized one in :mod:`repro.trees.bidirected`) rather than the DFS loop
kept here.  The two weights agree mathematically but sum in different
orders; sharing one δ keeps the legacy and vectorized grids — and hence
every table value — bit-identical, which is what the parity gates assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trees.bidirected import BidirectedTree, reachability_weight
from repro.trees.dp import (
    NEG_INF,
    DPBoostResult,
    _child_best_for_seed_parent,
    _compute_ranges,
    _fill_internal_general,
    _grid,
    _leaf_value,
    _NodeTable,
    _Rounding,
    finish_dp,
)
from repro.trees.exact import TreeComputation, compute_tree_state
from repro.trees.greedy import greedy_boost

__all__ = [
    "legacy_dp_boost",
    "legacy_compute_tree_state",
    "legacy_reachability_weight",
]


def legacy_reachability_weight(tree: BidirectedTree) -> float:
    """``Σ_u Σ_v p(u → v)`` with all edges boosted — DFS loop version.

    Kept as the oracle for the closed-form two-pass version in
    :func:`repro.trees.bidirected.reachability_weight`.
    """
    n = tree.n
    # Undirected adjacency with the boosted probability of the directed edge
    # leaving each node.
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for v in range(n):
        u = int(tree.parent[v])
        if u < 0:
            continue
        adj[v].append((u, float(tree.pp_up[v])))   # v -> parent
        adj[u].append((v, float(tree.pp_down[v])))  # parent -> v
    total = float(n)
    for start in range(n):
        stack: List[Tuple[int, int, float]] = [(start, -1, 1.0)]
        while stack:
            x, came_from, prod = stack.pop()
            for y, p_edge in adj[x]:
                if y == came_from:
                    continue
                prod_y = prod * p_edge
                if prod_y <= 0.0:
                    continue
                total += prod_y
                stack.append((y, x, prod_y))
    return total


def legacy_dp_boost(
    tree: BidirectedTree,
    k: int,
    epsilon: float = 0.5,
    delta_override: Optional[float] = None,
) -> DPBoostResult:
    """DP-Boost with the original per-node Python fill loops (the oracle).

    Same contract as :func:`repro.trees.dp.dp_boost`; kept verbatim so
    every vectorized fill can be checked table-for-table against it.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon:
        raise ValueError("epsilon must be positive")

    base_state = compute_tree_state(tree, frozenset())
    ap0 = base_state.ap

    if delta_override is not None:
        delta_param = float(delta_override)
    else:
        lb = greedy_boost(tree, k).boost
        weight = reachability_weight(tree)
        delta_param = epsilon * max(lb, 1.0) / weight
        # General fan-out (Appendix B): a node with d children chains d - 1
        # intermediate roundings, so divide δ by the worst chain length to
        # keep the total per-node rounding loss within the ε budget.  This
        # replaces the appendix's per-level δ/(d-2) with one uniform grid —
        # slightly finer, same (1 − ε) guarantee.
        d_max = tree.max_children()
        if d_max > 2:
            delta_param /= d_max - 1
    rnd = _Rounding(delta_param)

    c_lo, c_hi, f_lo, f_hi = _compute_ranges(tree, rnd)

    tables: Dict[int, _NodeTable] = {}
    total_entries = 0

    for v in reversed(tree.order):
        c_keys = _grid(int(c_lo[v]), int(c_hi[v]), rnd)
        f_keys = _grid(int(f_lo[v]), int(f_hi[v]), rnd)
        table = _NodeTable(k, c_keys, f_keys)
        kids = tree.children[v]

        if not kids:
            _fill_leaf(tree, v, k, table, rnd, ap0)
        elif v in tree.seeds:
            _fill_seed(tree, v, k, table, tables, rnd)
        else:
            _fill_internal(tree, v, k, table, tables, rnd, ap0)

        tables[v] = table
        total_entries += table.values.size
        # Children tables of v are no longer needed for value computation,
        # but are kept for backtracking (memory is fine at these sizes).

    return finish_dp(tree, k, tables, rnd, ap0, base_state, delta_param, total_entries)


# ----------------------------------------------------------------------
# Table fills
# ----------------------------------------------------------------------
def _fill_leaf(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    rnd: _Rounding,
    ap0: np.ndarray,
) -> None:
    cval = 1.0 if v in tree.seeds else 0.0
    c_pos = 0  # leaf c grid is a single value by construction
    for fi, f_key in enumerate(table.f_keys):
        fval = rnd.value(f_key)
        v0 = _leaf_value(tree, v, 0, cval, fval, ap0)
        v1 = _leaf_value(tree, v, 1, cval, fval, ap0)
        table.values[0, c_pos, fi] = v0
        for kappa in range(1, k + 1):
            table.values[kappa, c_pos, fi] = max(v0, v1)


def _fill_seed(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    tables: Dict[int, _NodeTable],
    rnd: _Rounding,
) -> None:
    kids = tree.children[v]
    best = [_child_best_for_seed_parent(tables[c], rnd, k) for c in kids]
    # Fold children with a max-plus convolution over the budget (any
    # fan-out): combined[t] = max over splits of the per-child bests.
    combined = best[0].copy()
    for nxt in best[1:]:
        folded = np.full(k + 1, NEG_INF)
        for k1 in range(k + 1):
            if combined[k1] == NEG_INF:
                continue
            for k2 in range(k + 1 - k1):
                if nxt[k2] == NEG_INF:
                    continue
                s = combined[k1] + nxt[k2]
                if s > folded[k1 + k2]:
                    folded[k1 + k2] = s
        combined = folded
    # Budget monotonicity: allow leaving budget unused.
    for kappa in range(1, k + 1):
        combined[kappa] = max(combined[kappa], combined[kappa - 1])
    c_pos = table.c_pos[rnd.one_idx]
    for fi in range(len(table.f_keys)):
        table.values[:, c_pos, fi] = combined


def _fill_internal(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    tables: Dict[int, _NodeTable],
    rnd: _Rounding,
    ap0: np.ndarray,
) -> None:
    kids = tree.children[v]
    if len(kids) == 1:
        _fill_internal_one(tree, v, k, table, tables[kids[0]], kids[0], rnd, ap0)
    elif len(kids) == 2:
        _fill_internal_two(tree, v, k, table, tables, rnd, ap0)
    else:
        _fill_internal_general(tree, v, k, table, tables, rnd, ap0)


def _fill_internal_one(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    child_table: _NodeTable,
    child: int,
    rnd: _Rounding,
    ap0: np.ndarray,
) -> None:
    c1_vals = np.array([rnd.value(c) for c in child_table.c_keys])
    for b in (0, 1):
        p_up_child = tree.pp_up[child] if b else tree.p_up[child]
        p_down_v = tree.pp_down[v] if b else tree.p_down[v]
        # Own rounded c per child c choice (independent of f).
        own_c = [rnd.down(val * p_up_child) for val in c1_vals]
        own_c = [min(max(c, table.c_keys[0]), table.c_keys[-1]) for c in own_c]
        own_c_pos = np.array([table.c_pos[c] for c in own_c])
        own_c_val = np.array([rnd.value(c) for c in own_c])
        for fi, f_key in enumerate(table.f_keys):
            fval = rnd.value(f_key)
            parent_miss = 1.0 - fval * p_down_v
            f1 = rnd.down(1.0 - parent_miss)
            f1 = min(max(f1, child_table.f_keys[0]), child_table.f_keys[-1])
            f1_pos = child_table.f_pos.get(f1)
            if f1_pos is None:
                continue
            child_vals = child_table.values[:, :, f1_pos]  # (k+1, C1)
            boost_terms = np.maximum(
                1.0 - (1.0 - own_c_val) * parent_miss - float(ap0[v]), 0.0
            )
            for kappa1 in range(k + 1 - b):
                kappa = kappa1 + b
                row = child_vals[kappa1]
                finite = row > NEG_INF
                if not finite.any():
                    continue
                totals = row + boost_terms
                for idx in np.nonzero(finite)[0]:
                    pos = own_c_pos[idx]
                    if totals[idx] > table.values[kappa, pos, fi]:
                        table.values[kappa, pos, fi] = totals[idx]


def _fill_internal_two(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    tables: Dict[int, _NodeTable],
    rnd: _Rounding,
    ap0: np.ndarray,
) -> None:
    c1, c2 = tree.children[v]
    t1, t2 = tables[c1], tables[c2]
    v1_vals = np.array([rnd.value(c) for c in t1.c_keys])
    v2_vals = np.array([rnd.value(c) for c in t2.c_keys])
    n1, n2 = len(t1.c_keys), len(t2.c_keys)

    for b in (0, 1):
        pb1 = tree.pp_up[c1] if b else tree.p_up[c1]
        pb2 = tree.pp_up[c2] if b else tree.p_up[c2]
        p_down_v = tree.pp_down[v] if b else tree.p_down[v]

        # Own c depends on (c1, c2) only.
        miss1 = 1.0 - v1_vals * pb1  # (n1,)
        miss2 = 1.0 - v2_vals * pb2  # (n2,)
        own_val_mat = 1.0 - np.outer(miss1, miss2)  # (n1, n2)
        own_key_mat = np.empty((n1, n2), dtype=np.int64)
        for i in range(n1):
            for j in range(n2):
                key = rnd.down(own_val_mat[i, j])
                own_key_mat[i, j] = min(max(key, table.c_keys[0]), table.c_keys[-1])

        for fi, f_key in enumerate(table.f_keys):
            fval = rnd.value(f_key)
            parent_miss = 1.0 - fval * p_down_v

            # Child-facing f values: f_vi combines the parent side and the
            # *other* child.
            f1_req = [
                rnd.down(1.0 - parent_miss * miss2[j]) for j in range(n2)
            ]
            f2_req = [
                rnd.down(1.0 - parent_miss * miss1[i]) for i in range(n1)
            ]
            f1_pos = np.array(
                [
                    t1.f_pos.get(min(max(f, t1.f_keys[0]), t1.f_keys[-1]), -1)
                    for f in f1_req
                ]
            )
            f2_pos = np.array(
                [
                    t2.f_pos.get(min(max(f, t2.f_keys[0]), t2.f_keys[-1]), -1)
                    for f in f2_req
                ]
            )
            if (f1_pos < 0).all() or (f2_pos < 0).all():
                continue

            # A1[κ1, i, j] = g'(c1, κ1, c_i, f1(j)); A2[κ2, i, j] likewise.
            A1 = t1.values[:, :, np.clip(f1_pos, 0, None)]  # (k+1, n1, n2)
            A1 = np.where(f1_pos[None, None, :] >= 0, A1, NEG_INF)
            A2 = t2.values[:, :, np.clip(f2_pos, 0, None)]  # (k+1, n2, n1)
            A2 = np.where(f2_pos[None, None, :] >= 0, A2, NEG_INF)
            A2 = A2.transpose(0, 2, 1)  # -> (k+1, n1, n2)

            # Max-plus combine over κ1 + κ2 = t.
            V = np.full((k + 1, n1, n2), NEG_INF)
            for t in range(k + 1 - b):
                for k1 in range(t + 1):
                    cand = A1[k1] + A2[t - k1]
                    np.maximum(V[t], cand, out=V[t])

            own_cvals = np.where(
                own_key_mat == rnd.one_idx, 1.0, own_key_mat * rnd.delta
            )
            boost_mat = np.maximum(
                1.0 - (1.0 - own_cvals) * parent_miss - float(ap0[v]), 0.0
            )

            for t in range(k + 1 - b):
                total = V[t] + boost_mat
                kappa = t + b
                finite = V[t] > NEG_INF
                if not finite.any():
                    continue
                idx_i, idx_j = np.nonzero(finite)
                for i, j in zip(idx_i, idx_j):
                    pos = table.c_pos[int(own_key_mat[i, j])]
                    if total[i, j] > table.values[kappa, pos, fi]:
                        table.values[kappa, pos, fi] = total[i, j]


# ----------------------------------------------------------------------
# Exact computation (Section VI-A) — scalar loop oracle
# ----------------------------------------------------------------------
def _legacy_probs_into(tree, boost):
    """Per-node incoming edge probabilities given ``B`` (loop version)."""
    n = tree.n
    from_parent = np.empty(n)
    into_parent = np.empty(n)
    for v in range(n):
        boosted_v = v in boost
        from_parent[v] = tree.pp_down[v] if boosted_v else tree.p_down[v]
        par = int(tree.parent[v])
        boosted_par = par in boost if par >= 0 else False
        into_parent[v] = tree.pp_up[v] if boosted_par else tree.p_up[v]
    return from_parent, into_parent


def legacy_compute_tree_state(tree: BidirectedTree, boost) -> TreeComputation:
    """The original scalar three-step computation (oracle for ``exact``)."""
    boost_set = frozenset(int(b) for b in boost)
    n = tree.n
    seeds = tree.seeds
    from_parent, into_parent = _legacy_probs_into(tree, boost_set)

    up = np.zeros(n)
    down = np.zeros(n)
    ap = np.zeros(n)
    gup = np.zeros(n)
    gdown = np.zeros(n)

    order = tree.order  # parents before children

    # ------------------------------------------------------------------
    # Up pass: ap_B(v \ parent) over subtrees, leaves first.
    # ------------------------------------------------------------------
    for v in reversed(order):
        if v in seeds:
            up[v] = 1.0
            continue
        prod = 1.0
        for c in tree.children[v]:
            prod *= 1.0 - up[c] * into_parent[c]
        up[v] = 1.0 - prod

    # ------------------------------------------------------------------
    # Down pass: ap_B(parent \ v) via prefix/suffix products (Equation 8
    # without the division of Equation 9).
    # ------------------------------------------------------------------
    for u in order:
        kids = tree.children[u]
        if not kids:
            continue
        if u in seeds:
            for v in kids:
                down[v] = 1.0
            continue
        par_factor = 1.0
        if tree.parent[u] >= 0:
            par_factor = 1.0 - down[u] * from_parent[u]
        factors = [1.0 - up[c] * into_parent[c] for c in kids]
        prefix = np.empty(len(kids) + 1)
        prefix[0] = 1.0
        for i, f in enumerate(factors):
            prefix[i + 1] = prefix[i] * f
        suffix = 1.0
        # iterate right-to-left so suffix excludes the current child
        down_vals = [0.0] * len(kids)
        for i in range(len(kids) - 1, -1, -1):
            down_vals[i] = 1.0 - par_factor * prefix[i] * suffix
            suffix *= factors[i]
        for i, v in enumerate(kids):
            down[v] = down_vals[i]

    # ------------------------------------------------------------------
    # ap_B(u) for every node (Equation 7).
    # ------------------------------------------------------------------
    for u in range(n):
        if u in seeds:
            ap[u] = 1.0
            continue
        prod = 1.0
        if tree.parent[u] >= 0:
            prod *= 1.0 - down[u] * from_parent[u]
        for c in tree.children[u]:
            prod *= 1.0 - up[c] * into_parent[c]
        ap[u] = 1.0 - prod

    # ------------------------------------------------------------------
    # Gain up pass: g_B(v \ parent) (Equation 10 restricted to subtrees).
    # ------------------------------------------------------------------
    def _term(g_val: float, ap_val: float, p_out: float, p_in: float) -> float:
        """One summand p^B_{u,w} g_B(w\\u) / (1 − ap_B(w\\u) p^B_{w,u})."""
        if g_val <= 0.0:
            return 0.0
        denom = 1.0 - ap_val * p_in
        if denom <= 1e-15:
            return 0.0
        return p_out * g_val / denom

    for v in reversed(order):
        if v in seeds:
            gup[v] = 0.0
            continue
        total = 1.0
        for c in tree.children[v]:
            total += _term(gup[c], up[c], from_parent[c], into_parent[c])
        gup[v] = (1.0 - up[v]) * total

    # ------------------------------------------------------------------
    # Gain down pass: g_B(parent \ v) via prefix/suffix sums.
    # ------------------------------------------------------------------
    for u in order:
        kids = tree.children[u]
        if not kids:
            continue
        if u in seeds:
            for v in kids:
                gdown[v] = 0.0
            continue
        par_term = 0.0
        if tree.parent[u] >= 0:
            par_term = _term(gdown[u], down[u], into_parent[u], from_parent[u])
        terms = [
            _term(gup[c], up[c], from_parent[c], into_parent[c]) for c in kids
        ]
        prefix_sum = np.empty(len(kids) + 1)
        prefix_sum[0] = 0.0
        for i, t in enumerate(terms):
            prefix_sum[i + 1] = prefix_sum[i] + t
        suffix_sum = 0.0
        g_vals = [0.0] * len(kids)
        for i in range(len(kids) - 1, -1, -1):
            others = par_term + prefix_sum[i] + suffix_sum
            g_vals[i] = (1.0 - down[kids[i]]) * (1.0 + others)
            suffix_sum += terms[i]
        for i, v in enumerate(kids):
            gdown[v] = g_vals[i]

    # ------------------------------------------------------------------
    # σ_S(B) and σ_S(B ∪ {u}) (Lemma 7).
    # ------------------------------------------------------------------
    sigma_val = float(ap.sum())
    sigma_with = np.full(n, sigma_val)
    for u in range(n):
        if u in seeds or u in boost_set:
            continue
        # Boosted incoming probabilities (u joins B, so edges *into* u use p').
        par = int(tree.parent[u])
        neigh: list[int] = list(tree.children[u]) + ([par] if par >= 0 else [])
        ap_wu = [up[c] for c in tree.children[u]] + ([down[u]] if par >= 0 else [])
        # Edge child c -> u is c's "up" edge; edge parent -> u is u's "down" edge.
        p_in_boosted = [tree.pp_up[c] for c in tree.children[u]] + (
            [tree.pp_down[u]] if par >= 0 else []
        )
        factors = [1.0 - a * pb for a, pb in zip(ap_wu, p_in_boosted)]
        prod_all = 1.0
        for f in factors:
            prod_all *= f
        delta_ap_u = (1.0 - prod_all) - ap[u]

        # Δap_B(u \ v) for each neighbour via prefix/suffix products.
        msize = len(neigh)
        pref = np.empty(msize + 1)
        pref[0] = 1.0
        for i, f in enumerate(factors):
            pref[i + 1] = pref[i] * f
        sufx = np.empty(msize + 1)
        sufx[msize] = 1.0
        for i in range(msize - 1, -1, -1):
            sufx[i] = sufx[i + 1] * factors[i]

        total = sigma_val + delta_ap_u
        for i, v in enumerate(neigh):
            # ap_B(u \ v): "down" value for child v, "up" value when v is parent.
            ap_u_minus_v = down[v] if v != par else up[u]
            delta_ap_uv = (1.0 - pref[i] * sufx[i + 1]) - ap_u_minus_v
            if delta_ap_uv <= 0.0:
                continue
            # p^B_{u,v}: out-probability toward v, depends on v's boost status.
            if v != par:
                p_uv = tree.pp_down[v] if v in boost_set else tree.p_down[v]
                g_vu = gup[v]
            else:
                p_uv = tree.pp_up[u] if v in boost_set else tree.p_up[u]
                g_vu = gdown[u]
            total += p_uv * delta_ap_uv * g_vu
        sigma_with[u] = total

    return TreeComputation(
        boost=boost_set,
        ap=ap,
        up=up,
        down=down,
        gup=gup,
        gdown=gdown,
        sigma=sigma_val,
        sigma_with=sigma_with,
    )
