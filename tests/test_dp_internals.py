"""White-box tests for DP-Boost internals (rounding, ranges, grids)."""

import numpy as np
import pytest

from repro.graphs import GraphBuilder, complete_binary_bidirected_tree, constant_probability
from repro.trees import BidirectedTree
from repro.trees.dp import _Rounding, _compute_ranges, _grid


class TestRounding:
    def test_down_basic(self):
        r = _Rounding(0.1)
        assert r.down(0.25) == 2
        assert r.down(0.0) == 0
        assert r.down(-0.5) == 0

    def test_down_exact_multiple(self):
        r = _Rounding(0.1)
        # guards against floating error on exact multiples
        assert r.down(0.3) == 3
        assert r.down(0.7) == 7

    def test_one_is_special(self):
        r = _Rounding(0.1)
        assert r.down(1.0) == r.one_idx
        assert r.up(1.0) == r.one_idx
        assert r.value(r.one_idx) == 1.0

    def test_up_basic(self):
        r = _Rounding(0.1)
        assert r.up(0.25) == 3
        assert r.up(0.3) == 3

    def test_value_roundtrip(self):
        r = _Rounding(0.05)
        for idx in range(0, 20):
            assert r.down(r.value(idx)) == idx

    def test_down_never_exceeds(self):
        r = _Rounding(0.037)
        for x in np.linspace(0, 0.999, 200):
            assert r.value(r.down(float(x))) <= x + 1e-9

    def test_up_never_undershoots(self):
        r = _Rounding(0.037)
        for x in np.linspace(0, 0.999, 200):
            assert r.value(r.up(float(x))) >= x - 1e-9

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            _Rounding(0.0)


class TestRanges:
    def tree(self):
        g = constant_probability(complete_binary_bidirected_tree(7), 0.3, beta=2.0)
        return BidirectedTree(g, seeds={0})

    def test_seed_range_is_one(self):
        t = self.tree()
        rnd = _Rounding(0.01)
        c_lo, c_hi, _f_lo, _f_hi = _compute_ranges(t, rnd)
        assert c_lo[0] == rnd.one_idx
        assert c_hi[0] == rnd.one_idx

    def test_leaf_range_is_zero(self):
        t = self.tree()
        rnd = _Rounding(0.01)
        c_lo, c_hi, _f_lo, _f_hi = _compute_ranges(t, rnd)
        for leaf in (3, 4, 5, 6):
            assert c_lo[leaf] == 0
            assert c_hi[leaf] == 0

    def test_ranges_bracket_truth(self):
        """The refinement bands must contain the no-boost activation."""
        from repro.trees.exact import compute_tree_state

        t = self.tree()
        rnd = _Rounding(0.005)
        c_lo, c_hi, f_lo, f_hi = _compute_ranges(t, rnd)
        state = compute_tree_state(t, frozenset())
        for v in range(1, 7):
            # up[v] is ap(v \ parent) with no boosts — inside [c_lo, c_hi]
            assert rnd.value(int(c_lo[v])) <= state.up[v] + 1e-9
            assert rnd.value(int(c_hi[v])) >= state.up[v] - 1e-9
            assert rnd.value(int(f_lo[v])) <= state.down[v] + 1e-9
            assert rnd.value(int(f_hi[v])) >= state.down[v] - 1e-9

    def test_children_of_seed_get_f_one(self):
        t = self.tree()
        rnd = _Rounding(0.01)
        _c_lo, _c_hi, f_lo, f_hi = _compute_ranges(t, rnd)
        for child in (1, 2):
            assert f_lo[child] == rnd.one_idx
            assert f_hi[child] == rnd.one_idx


class TestGrid:
    def test_plain_band(self):
        rnd = _Rounding(0.1)
        assert _grid(2, 5, rnd) == [2, 3, 4, 5]

    def test_one_band(self):
        rnd = _Rounding(0.1)
        assert _grid(rnd.one_idx, rnd.one_idx, rnd) == [rnd.one_idx]

    def test_band_reaching_one(self):
        rnd = _Rounding(0.25)
        grid = _grid(2, rnd.one_idx, rnd)
        assert grid[-1] == rnd.one_idx
        assert 2 in grid

    def test_oversized_band_raises(self):
        rnd = _Rounding(1e-9)
        with pytest.raises(MemoryError):
            _grid(0, 10**9, rnd, limit=1000)


class TestVectorizedHelpersMatchLoops:
    """The vectorized tree passes vs their retained loop oracles.

    ``reachability_weight`` (closed-form two-pass) and
    ``compute_tree_state`` (level-batched three-step computation) must be
    exactly equal to the O(n²) DFS / per-node loop versions pinned in
    ``tests/oracles/trees.py`` — they evaluate the same expression
    trees, just batched.
    """

    def _random_tree(self, rng, n):
        b = GraphBuilder(n)
        for v in range(1, n):
            par = int(rng.integers(0, v))
            p = float(rng.uniform(0.05, 0.9))
            b.add_edge(par, v, p, min(1.0, p + float(rng.uniform(0.05, 0.4))))
            if rng.random() < 0.8:
                p2 = float(rng.uniform(0.05, 0.9))
                b.add_edge(v, par, p2, min(1.0, p2 + float(rng.uniform(0.05, 0.4))))
        seeds = {0} | {int(v) for v in range(1, n) if rng.random() < 0.25}
        return BidirectedTree(b.build(), seeds)

    def test_reachability_weight_matches_legacy(self):
        from oracles.trees import legacy_reachability_weight
        from repro.trees import reachability_weight

        rng = np.random.default_rng(42)
        for _ in range(20):
            tree = self._random_tree(rng, int(rng.integers(2, 40)))
            assert reachability_weight(tree) == pytest.approx(
                legacy_reachability_weight(tree), abs=1e-9
            )

    def test_compute_tree_state_matches_legacy(self):
        from oracles.trees import legacy_compute_tree_state
        from repro.trees import compute_tree_state

        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            tree = self._random_tree(rng, n)
            boost = {int(v) for v in range(n) if rng.random() < 0.2}
            fast = compute_tree_state(tree, frozenset(boost))
            slow = legacy_compute_tree_state(tree, frozenset(boost))
            assert fast.sigma == slow.sigma
            np.testing.assert_array_equal(fast.ap, slow.ap)
            np.testing.assert_array_equal(fast.sigma_with, slow.sigma_with)
