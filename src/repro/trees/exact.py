"""Exact boosted-influence computation on bidirected trees (Section VI-A).

Implements the three-step O(n) computation:

1. activation probabilities ``ap_B(u)`` and ``ap_B(u\\v)`` (Lemma 5),
2. marginal-seed gains ``g_B(u\\v)`` (Lemma 6),
3. ``σ_S(B)`` and ``σ_S(B ∪ {u})`` for every node ``u`` (Lemma 7).

The recursions of the paper are realized as level-batched numpy passes
over a rooted tree (an "up" pass over subtrees and a "down" pass over the
complements) with prefix/suffix products replacing the division tricks of
Equations (9)/(11) — numerically safer when factors reach zero, same O(n)
bound.

Vectorization contract: every pass iterates child *slots* sequentially
(padded slots contribute the exact identities 1.0 / 0.0), so products and
sums accumulate in the same order — and therefore to the same IEEE-754
bits — as the scalar loops preserved beside the tests in
``oracles.trees.legacy_compute_tree_state``.  Greedy-Boost
tie-breaks and the DP-Boost rounding parameter depend on these values
bit-for-bit, so the equality is asserted in ``tests/test_dp_internals.py``
rather than merely approximated.

Notation mapping (``par`` is the parent of ``v`` under the rooting):

* ``up[v]    = ap_B(v \\ par(v))``
* ``down[v]  = ap_B(par(v) \\ v)``
* ``gup[v]   = g_B(v \\ par(v))``
* ``gdown[v] = g_B(par(v) \\ v)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet

import numpy as np

from .bidirected import BidirectedTree

__all__ = ["TreeComputation", "compute_tree_state", "sigma", "delta"]


@dataclass
class TreeComputation:
    """All quantities produced by the three-step computation for a boost set.

    ``sigma_with[u]`` is ``σ_S(B ∪ {u})``; for ``u ∈ S ∪ B`` it equals
    ``sigma`` (Lemma 7).
    """

    boost: FrozenSet[int]
    ap: np.ndarray
    up: np.ndarray
    down: np.ndarray
    gup: np.ndarray
    gdown: np.ndarray
    sigma: float
    sigma_with: np.ndarray


def _probs_into(
    tree: BidirectedTree, boost_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node incoming edge probabilities given ``B``.

    Returns ``(from_parent, into_parent)`` where ``from_parent[v]`` is
    ``p^B_{par(v), v}`` and ``into_parent[v]`` is ``p^B_{v, par(v)}`` (the
    probability *v* uses when influencing its parent — depends on whether
    the parent is boosted).
    """
    from_parent = np.where(boost_mask, tree.pp_down, tree.p_down)
    par_boosted = boost_mask[tree.parent] & (tree.parent >= 0)
    into_parent = np.where(par_boosted, tree.pp_up, tree.p_up)
    return from_parent, into_parent


def _term_vec(
    g: np.ndarray, ap_val: np.ndarray, p_out: np.ndarray, p_in: np.ndarray
) -> np.ndarray:
    """Vector form of ``p^B_{u,w} g_B(w\\u) / (1 − ap_B(w\\u) p^B_{w,u})``.

    Matches the scalar guards (``g <= 0`` or ``denom <= 1e-15`` → 0)
    elementwise; the division only contributes where the guards pass.
    """
    denom = 1.0 - ap_val * p_in
    ok = (g > 0.0) & (denom > 1e-15)
    safe = np.where(ok, denom, 1.0)
    return np.where(ok, p_out * g / safe, 0.0)


def compute_tree_state(tree: BidirectedTree, boost: AbstractSet[int]) -> TreeComputation:
    """Run the full three-step computation for boost set ``B`` in O(n)."""
    boost_set = frozenset(int(b) for b in boost)
    n = tree.n
    plan = tree.plan()
    seeds_mask = plan.seeds_mask

    boost_mask = np.zeros(n, dtype=bool)
    if boost_set:
        boost_mask[list(boost_set)] = True
    from_parent, into_parent = _probs_into(tree, boost_mask)

    up = np.zeros(n)
    down = np.zeros(n)
    gup = np.zeros(n)
    gdown = np.zeros(n)

    levels = plan.levels
    kids_mat = plan.kids_mat
    nkids = plan.nkids

    # ------------------------------------------------------------------
    # Up pass: ap_B(v \ parent) over subtrees, leaves first.  Padded child
    # slots multiply by exactly 1.0, preserving the scalar product order.
    # ------------------------------------------------------------------
    for lvl in reversed(levels):
        smax = int(nkids[lvl].max())
        prod = np.ones(len(lvl))
        if smax:
            km = kids_mat[lvl][:, :smax]
            for s in range(smax):
                c = km[:, s]
                factor = np.where(c >= 0, 1.0 - up[c] * into_parent[c], 1.0)
                prod = prod * factor
        up[lvl] = np.where(seeds_mask[lvl], 1.0, 1.0 - prod)

    # ------------------------------------------------------------------
    # Down pass: ap_B(parent \ v) via prefix/suffix products (Equation 8
    # without the division of Equation 9), one level at a time.
    # ------------------------------------------------------------------
    for lvl in levels:
        sub = lvl[nkids[lvl] > 0]
        if not len(sub):
            continue
        seed_sub = sub[seeds_mask[sub]]
        if len(seed_sub):
            kc = kids_mat[seed_sub]
            down[kc[kc >= 0]] = 1.0
        ns = sub[~seeds_mask[sub]]
        if not len(ns):
            continue
        smax = int(nkids[ns].max())
        km = kids_mat[ns][:, :smax]
        par_factor = np.where(
            plan.has_parent[ns], 1.0 - down[ns] * from_parent[ns], 1.0
        )
        valid = km >= 0
        factors = np.where(valid, 1.0 - up[km] * into_parent[km], 1.0)
        prefix = np.empty((len(ns), smax + 1))
        prefix[:, 0] = 1.0
        for s in range(smax):
            prefix[:, s + 1] = prefix[:, s] * factors[:, s]
        suffix = np.ones(len(ns))
        vals = np.empty((len(ns), smax))
        for s in range(smax - 1, -1, -1):
            vals[:, s] = 1.0 - par_factor * prefix[:, s] * suffix
            suffix = suffix * factors[:, s]
        down[km[valid]] = vals[valid]

    # ------------------------------------------------------------------
    # ap_B(u) for every node (Equation 7) — all nodes at once; the parent
    # factor multiplies first, children follow in slot order.
    # ------------------------------------------------------------------
    prod = np.where(plan.has_parent, 1.0 - down * from_parent, 1.0)
    for s in range(plan.max_kids):
        c = kids_mat[:, s]
        prod = prod * np.where(c >= 0, 1.0 - up[c] * into_parent[c], 1.0)
    ap = np.where(seeds_mask, 1.0, 1.0 - prod)

    # ------------------------------------------------------------------
    # Gain up pass: g_B(v \ parent) (Equation 10 restricted to subtrees).
    # Padded slots add exactly 0.0.
    # ------------------------------------------------------------------
    for lvl in reversed(levels):
        smax = int(nkids[lvl].max())
        total = np.ones(len(lvl))
        if smax:
            km = kids_mat[lvl][:, :smax]
            for s in range(smax):
                c = km[:, s]
                t = np.where(
                    c >= 0,
                    _term_vec(gup[c], up[c], from_parent[c], into_parent[c]),
                    0.0,
                )
                total = total + t
        gup[lvl] = np.where(seeds_mask[lvl], 0.0, (1.0 - up[lvl]) * total)

    # ------------------------------------------------------------------
    # Gain down pass: g_B(parent \ v) via prefix/suffix sums.
    # ------------------------------------------------------------------
    for lvl in levels:
        sub = lvl[nkids[lvl] > 0]
        if not len(sub):
            continue
        seed_sub = sub[seeds_mask[sub]]
        if len(seed_sub):
            kc = kids_mat[seed_sub]
            gdown[kc[kc >= 0]] = 0.0
        ns = sub[~seeds_mask[sub]]
        if not len(ns):
            continue
        smax = int(nkids[ns].max())
        km = kids_mat[ns][:, :smax]
        par_term = np.where(
            plan.has_parent[ns],
            _term_vec(gdown[ns], down[ns], into_parent[ns], from_parent[ns]),
            0.0,
        )
        valid = km >= 0
        terms = np.where(
            valid, _term_vec(gup[km], up[km], from_parent[km], into_parent[km]), 0.0
        )
        prefix_sum = np.empty((len(ns), smax + 1))
        prefix_sum[:, 0] = 0.0
        for s in range(smax):
            prefix_sum[:, s + 1] = prefix_sum[:, s] + terms[:, s]
        suffix_sum = np.zeros(len(ns))
        g_vals = np.empty((len(ns), smax))
        for s in range(smax - 1, -1, -1):
            others = par_term + prefix_sum[:, s] + suffix_sum
            g_vals[:, s] = (1.0 - down[km[:, s]]) * (1.0 + others)
            suffix_sum = suffix_sum + terms[:, s]
        gdown[km[valid]] = g_vals[valid]

    # ------------------------------------------------------------------
    # σ_S(B) and σ_S(B ∪ {u}) (Lemma 7).  Neighbour slots: children in
    # order, pads (identity 1.0 factors), then the parent — exactly the
    # children-then-parent order of the scalar loop, so every prefix and
    # suffix product matches bitwise.
    # ------------------------------------------------------------------
    sigma_val = float(ap.sum())
    s1 = plan.max_kids + 1
    par_slot = plan.max_kids
    kvalid = kids_mat >= 0

    ap_wu = np.empty((n, s1))
    p_in_b = np.empty((n, s1))
    ap_wu[:, :par_slot] = np.where(kvalid, up[kids_mat], 0.0)
    p_in_b[:, :par_slot] = np.where(kvalid, tree.pp_up[kids_mat], 0.0)
    ap_wu[:, par_slot] = down
    p_in_b[:, par_slot] = tree.pp_down

    slot_valid = np.empty((n, s1), dtype=bool)
    slot_valid[:, :par_slot] = kvalid
    slot_valid[:, par_slot] = plan.has_parent
    factors = np.where(slot_valid, 1.0 - ap_wu * p_in_b, 1.0)

    pref = np.empty((n, s1 + 1))
    pref[:, 0] = 1.0
    for s in range(s1):
        pref[:, s + 1] = pref[:, s] * factors[:, s]
    sufx = np.empty((n, s1 + 1))
    sufx[:, s1] = 1.0
    for s in range(s1 - 1, -1, -1):
        sufx[:, s] = sufx[:, s + 1] * factors[:, s]

    delta_ap_u = (1.0 - pref[:, s1]) - ap

    # Per-slot quantities of the contribution sum.
    ap_u_minus_v = np.empty((n, s1))
    ap_u_minus_v[:, :par_slot] = np.where(kvalid, down[kids_mat], 0.0)
    ap_u_minus_v[:, par_slot] = up
    p_uv = np.empty((n, s1))
    p_uv[:, :par_slot] = np.where(
        kvalid & boost_mask[kids_mat], tree.pp_down[kids_mat], 0.0
    ) + np.where(kvalid & ~boost_mask[kids_mat], tree.p_down[kids_mat], 0.0)
    par_safe = np.where(plan.has_parent, tree.parent, 0)
    p_uv[:, par_slot] = np.where(
        boost_mask[par_safe] & plan.has_parent, tree.pp_up, tree.p_up
    )
    g_vu = np.empty((n, s1))
    g_vu[:, :par_slot] = np.where(kvalid, gup[kids_mat], 0.0)
    g_vu[:, par_slot] = gdown

    total = sigma_val + delta_ap_u
    for s in range(s1):
        delta_ap_uv = (1.0 - pref[:, s] * sufx[:, s + 1]) - ap_u_minus_v[:, s]
        contrib = np.where(
            slot_valid[:, s] & (delta_ap_uv > 0.0),
            p_uv[:, s] * delta_ap_uv * g_vu[:, s],
            0.0,
        )
        total = total + contrib
    eligible = ~seeds_mask & ~boost_mask
    sigma_with = np.where(eligible, total, sigma_val)

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


def sigma(tree: BidirectedTree, boost: AbstractSet[int]) -> float:
    """Exact boosted influence spread ``σ_S(B)`` in O(n)."""
    return compute_tree_state(tree, boost).sigma


def delta(tree: BidirectedTree, boost: AbstractSet[int]) -> float:
    """Exact boost of influence ``Δ_S(B) = σ_S(B) − σ_S(∅)``."""
    return sigma(tree, boost) - sigma(tree, frozenset())
