"""Pre-engine pure-Python samplers, kept as equivalence oracles.

These are the edge-wise implementations that the vectorized
:class:`~repro.engine.batch.SamplingEngine` replaced.  They are retained
verbatim for two purposes only:

* the seeded equivalence tests (``tests/test_engine.py``,
  ``tests/test_models.py``, ``tests/test_lanes.py``) assert that the
  engine reproduces them bit-for-bit where the RNG stream or
  ``world_seed`` pins the randomness,
* the micro-benchmarks (``benchmarks/bench_engine.py``,
  ``benchmarks/bench_models.py``, ``benchmarks/bench_select.py``) measure
  the engine's speedup against them.

They live beside the tests, outside the ``repro`` package.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.engine.hashing import hash_draw

__all__ = [
    "reference_rr_set",
    "reference_simulate_spread",
    "reference_simulate_spread_outgoing",
    "reference_sample_prr_graph",
    "reference_sample_critical_set",
    "reference_simulate_lt_spread",
    "reference_simulate_lt_spread_hashed",
]

_INF = float("inf")

_LIVE = 0
_BOOST = 1
_BLOCKED = 2


def reference_rr_set(
    graph: DiGraph, rng: np.random.Generator, root: int | None = None
) -> FrozenSet[int]:
    """Edge-wise lazy backward BFS RR-set (pre-engine implementation)."""
    r = int(rng.integers(graph.n)) if root is None else int(root)
    visited = {r}
    frontier = [r]
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            sources = graph.in_neighbors(v)
            if sources.size == 0:
                continue
            probs = graph.in_probs(v)
            draws = rng.random(sources.size)
            hits = np.nonzero(draws < probs)[0]
            for i in hits:
                u = int(sources[i])
                if u not in visited:
                    visited.add(u)
                    next_frontier.append(u)
        frontier = next_frontier
    return frozenset(visited)


def reference_simulate_spread(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: Optional[np.random.Generator] = None,
    world_seed: Optional[int] = None,
) -> set[int]:
    """Edge-wise forward cascade of the boosting model (pre-engine).

    With ``world_seed`` the per-edge uniform is ``hash_draw(world_seed,
    u, v)`` instead of an RNG draw — the deterministic world the engine's
    cascade lane kernels sample, which is what pins them to this loop
    bit-for-bit.
    """
    boost_set = set(boost)
    active = set(seeds)
    frontier = list(active)
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            targets = graph.out_neighbors(u)
            if targets.size == 0:
                continue
            base = graph.out_probs(u)
            boosted = graph.out_boosted_probs(u)
            if world_seed is None:
                draws = rng.random(targets.size)
            else:
                draws = [
                    hash_draw(world_seed, u, int(v)) for v in targets
                ]
            for i in range(targets.size):
                v = int(targets[i])
                if v in active:
                    continue
                threshold = boosted[i] if v in boost_set else base[i]
                if draws[i] < threshold:
                    active.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return active


def reference_simulate_spread_outgoing(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: Optional[np.random.Generator] = None,
    world_seed: Optional[int] = None,
) -> set[int]:
    """Edge-wise cascade of the outgoing-boost variant (pre-engine):
    edges leaving a boosted node use ``p'``.

    Same two draw sources as :func:`reference_simulate_spread`; the
    hashed form is the oracle the engine's ``model="ic_out"`` lane
    kernels are pinned against.
    """
    boost_set = set(boost)
    active = set(seeds)
    frontier = list(active)
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            targets = graph.out_neighbors(u)
            if targets.size == 0:
                continue
            probs = (
                graph.out_boosted_probs(u)
                if u in boost_set
                else graph.out_probs(u)
            )
            if world_seed is None:
                draws = rng.random(targets.size)
            else:
                draws = [
                    hash_draw(world_seed, u, int(v)) for v in targets
                ]
            for i in range(targets.size):
                v = int(targets[i])
                if v not in active and draws[i] < probs[i]:
                    active.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return active


def _sample_edge_state(
    cache: Dict[Tuple[int, int], int],
    u: int,
    v: int,
    p: float,
    pp: float,
    rng: np.random.Generator,
    world_seed: Optional[int] = None,
) -> int:
    """State of edge ``u -> v``, sampled once and cached in a (u, v) dict —
    the allocation-heavy scheme the flat EdgeStateArray replaced."""
    key = (u, v)
    state = cache.get(key)
    if state is None:
        draw = rng.random() if world_seed is None else hash_draw(world_seed, u, v)
        if draw < p:
            state = _LIVE
        elif draw < pp:
            state = _BOOST
        else:
            state = _BLOCKED
        cache[key] = state
    return state


def reference_sample_prr_graph(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: np.random.Generator,
    root: int | None = None,
    world_seed: int | None = None,
):
    """Edge-wise PRR-graph sampling (pre-engine phase I and phase II)."""
    from repro.core.prr import ACTIVATED, HOPELESS, PRRGraph

    r = int(rng.integers(graph.n)) if root is None else int(root)
    if r in seeds:
        return PRRGraph(root=r, status=ACTIVATED)

    state_cache: Dict[Tuple[int, int], int] = {}
    dr: Dict[int, float] = {r: 0}
    queue: deque[Tuple[int, int]] = deque([(r, 0)])
    processed: set[int] = set()
    edges: List[Tuple[int, int, bool]] = []
    seeds_found: set[int] = set()

    while queue:
        u, dur = queue.popleft()
        if dur > dr.get(u, _INF) or u in processed:
            continue
        processed.add(u)
        sources = graph.in_neighbors(u)
        probs = graph.in_probs(u)
        boosted = graph.in_boosted_probs(u)
        for i in range(sources.size):
            v = int(sources[i])
            state = _sample_edge_state(
                state_cache, v, u, probs[i], boosted[i], rng, world_seed
            )
            if state == _BLOCKED:
                continue
            dvr = dur + (1 if state == _BOOST else 0)
            if dvr > k:
                continue
            edges.append((v, u, state == _BOOST))
            if v in seeds:
                if dvr == 0:
                    return PRRGraph(root=r, status=ACTIVATED)
                seeds_found.add(v)
                dr[v] = min(dr.get(v, _INF), dvr)
                continue
            if dvr < dr.get(v, _INF):
                dr[v] = dvr
                if dvr == dur:
                    queue.appendleft((v, dvr))
                else:
                    queue.append((v, dvr))

    if not seeds_found:
        return PRRGraph(
            root=r,
            status=HOPELESS,
            uncompressed_nodes=len(dr),
            uncompressed_edges=len(edges),
        )

    return _reference_compress(r, seeds_found, edges, k, len(dr))


def _reference_zero_one_bfs(
    starts: List[int],
    adjacency: Dict[int, List[Tuple[int, bool]]],
    excluded: AbstractSet[int] = frozenset(),
) -> Dict[int, int]:
    """Generic 0-1 BFS; edge weight is 1 for live-upon-boost edges."""
    dist: Dict[int, int] = {s: 0 for s in starts}
    queue: deque[Tuple[int, int]] = deque((s, 0) for s in starts)
    done: set[int] = set()
    while queue:
        u, du = queue.popleft()
        if du > dist.get(u, _INF) or u in done:
            continue
        done.add(u)
        for v, is_boost in adjacency.get(u, ()):
            if v in excluded:
                continue
            dv = du + (1 if is_boost else 0)
            if dv < dist.get(v, _INF):
                dist[v] = dv
                if is_boost:
                    queue.append((v, dv))
                else:
                    queue.appendleft((v, dv))
    return dist


def _reference_compress(
    r: int,
    seeds_found: set[int],
    edges: List[Tuple[int, int, bool]],
    k: int,
    uncompressed_nodes: int,
):
    """Phase II compression, dict/set implementation (pre-engine)."""
    from repro.core.prr import ACTIVATED, BOOSTABLE, HOPELESS, PRRGraph

    forward_adj: Dict[int, List[Tuple[int, bool]]] = {}
    backward_adj: Dict[int, List[Tuple[int, bool]]] = {}
    for v, u, is_boost in edges:
        forward_adj.setdefault(v, []).append((u, is_boost))
        backward_adj.setdefault(u, []).append((v, is_boost))

    d_seed = _reference_zero_one_bfs(sorted(seeds_found), forward_adj)
    if d_seed.get(r) == 0:
        return PRRGraph(root=r, status=ACTIVATED)
    merged = {v for v, d in d_seed.items() if d == 0}

    d_root = _reference_zero_one_bfs([r], backward_adj, excluded=merged)

    critical = {
        u
        for v, u, is_boost in edges
        if is_boost and v in merged and u not in merged and d_root.get(u, _INF) == 0
    }

    kept = {
        v
        for v in d_seed
        if v not in merged
        and d_root.get(v, _INF) + d_seed[v] <= k
    }
    if r not in kept:
        return PRRGraph(
            root=r,
            status=HOPELESS,
            uncompressed_nodes=uncompressed_nodes,
            uncompressed_edges=len(edges),
        )

    shortcut = {v for v in kept if v != r and d_root.get(v, _INF) == 0}
    new_edges: set[Tuple[int, int, bool]] = set()
    for v, u, is_boost in edges:
        src_merged = v in merged
        if not src_merged and v not in kept:
            continue
        if u not in kept:
            continue
        if v == r:
            continue
        if not src_merged and v in shortcut:
            continue
        src_key = -1 if src_merged else v
        new_edges.add((src_key, u, is_boost))
    for v in shortcut:
        new_edges.add((v, r, False))

    fwd2: Dict[int, List[Tuple[int, bool]]] = {}
    bwd2: Dict[int, List[Tuple[int, bool]]] = {}
    for s, d, b in new_edges:
        fwd2.setdefault(s, []).append((d, b))
        bwd2.setdefault(d, []).append((s, b))

    def _reach(start: int, adj: Dict[int, List[Tuple[int, bool]]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _b in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    from_super = _reach(-1, fwd2)
    to_root = _reach(r, bwd2)
    alive = from_super & to_root
    if r not in alive or -1 not in alive:
        return PRRGraph(
            root=r,
            status=HOPELESS,
            uncompressed_nodes=uncompressed_nodes,
            uncompressed_edges=len(edges),
        )
    final_edges = [
        (s, d, b) for (s, d, b) in new_edges if s in alive and d in alive
    ]

    locals_: Dict[int, int] = {-1: 0}
    node_globals: List[int] = [-1]
    for v in sorted(alive - {-1}):
        locals_[v] = len(node_globals)
        node_globals.append(v)

    return PRRGraph(
        root=r,
        status=BOOSTABLE,
        node_globals=node_globals,
        edge_src=[locals_[s] for s, _d, _b in final_edges],
        edge_dst=[locals_[d] for _s, d, _b in final_edges],
        edge_boost=[b for _s, _d, b in final_edges],
        root_local=locals_[r],
        critical=frozenset(critical),
        uncompressed_nodes=uncompressed_nodes,
        uncompressed_edges=len(edges),
    )


def reference_sample_critical_set(
    graph: DiGraph,
    seeds: AbstractSet[int],
    rng: np.random.Generator,
    root: int | None = None,
) -> Tuple[str, FrozenSet[int], int]:
    """Edge-wise critical-set sampling (pre-engine implementation)."""
    from repro.core.prr import ACTIVATED, BOOSTABLE, HOPELESS

    r = int(rng.integers(graph.n)) if root is None else int(root)
    if r in seeds:
        return ACTIVATED, frozenset(), 0

    state_cache: Dict[Tuple[int, int], int] = {}
    dr: Dict[int, float] = {r: 0}
    queue: deque[Tuple[int, int]] = deque([(r, 0)])
    processed: set[int] = set()
    live_fwd: Dict[int, List[int]] = {}
    boost_edges: List[Tuple[int, int]] = []
    seeds_found: set[int] = set()
    explored = 0

    while queue:
        u, dur = queue.popleft()
        if dur > dr.get(u, _INF) or u in processed:
            continue
        processed.add(u)
        sources = graph.in_neighbors(u)
        probs = graph.in_probs(u)
        boosted = graph.in_boosted_probs(u)
        for i in range(sources.size):
            v = int(sources[i])
            state = _sample_edge_state(state_cache, v, u, probs[i], boosted[i], rng)
            explored += 1
            if state == _BLOCKED:
                continue
            dvr = dur + (1 if state == _BOOST else 0)
            if dvr > 1:
                continue
            if state == _LIVE:
                live_fwd.setdefault(v, []).append(u)
            else:
                boost_edges.append((v, u))
            if v in seeds:
                if dvr == 0:
                    return ACTIVATED, frozenset(), explored
                seeds_found.add(v)
                continue
            if dvr < dr.get(v, _INF):
                dr[v] = dvr
                if dvr == dur:
                    queue.appendleft((v, dvr))
                else:
                    queue.append((v, dvr))

    if not seeds_found:
        return HOPELESS, frozenset(), explored

    live_region: set[int] = set(seeds_found)
    stack = list(seeds_found)
    while stack:
        x = stack.pop()
        for y in live_fwd.get(x, ()):
            if y not in live_region:
                live_region.add(y)
                stack.append(y)
    if r in live_region:
        return ACTIVATED, frozenset(), explored

    critical = frozenset(
        head
        for tail, head in boost_edges
        if tail in live_region and dr.get(head, _INF) == 0 and head not in seeds
    )
    return BOOSTABLE, critical, explored


def reference_simulate_lt_spread(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
) -> set[int]:
    """Edge-wise boosted-LT cascade (pre-engine implementation)."""
    boost_set = set(boost)
    thresholds = rng.random(graph.n)
    active = set(seeds)
    accumulated = np.zeros(graph.n)
    frontier = list(active)
    while frontier:
        next_frontier: list[int] = []
        touched: set[int] = set()
        for u in frontier:
            targets = graph.out_neighbors(u)
            base = graph.out_probs(u)
            boosted = graph.out_boosted_probs(u)
            for i in range(targets.size):
                v = int(targets[i])
                if v in active:
                    continue
                weight = boosted[i] if v in boost_set else base[i]
                accumulated[v] += weight
                touched.add(v)
        for v in touched:
            if v not in active and min(accumulated[v], 1.0) >= thresholds[v]:
                active.add(v)
                next_frontier.append(v)
        frontier = next_frontier
    return active


def reference_simulate_lt_spread_hashed(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    world_seed: int,
) -> set[int]:
    """Edge-wise boosted-LT cascade in the world fixed by ``world_seed``.

    The LT world is the per-node threshold vector ``θ_v =
    hash_draw(world_seed, v, v)``.  Frontiers are processed in ascending
    node order so the floating-point weight accumulation per head runs
    tail-ascending — the exact order of the engine's LT lane kernel,
    which this loop pins bit-for-bit.
    """
    boost_set = set(boost)
    active = set(seeds)
    accumulated = np.zeros(graph.n)
    frontier = sorted(active)
    while frontier:
        touched: set[int] = set()
        for u in frontier:
            targets = graph.out_neighbors(u)
            base = graph.out_probs(u)
            boosted = graph.out_boosted_probs(u)
            for i in range(targets.size):
                v = int(targets[i])
                if v in active:
                    continue
                weight = boosted[i] if v in boost_set else base[i]
                accumulated[v] += weight
                touched.add(v)
        frontier = []
        for v in sorted(touched):
            if min(accumulated[v], 1.0) >= hash_draw(world_seed, v, v):
                active.add(v)
                frontier.append(v)
    return active
