"""Each algorithm ships once: no oracle copy and no selector knob in ``repro``.

The loop oracles the parity tests compare against live in
``tests/oracles/``; the installed package carries only the vectorized
implementations.  These checks walk every module of ``repro`` so a
re-introduced ``reference`` module, ``legacy_*`` function or
implementation-selector option fails here.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.graphs import learned_like, preferential_attachment


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_no_reference_module():
    names = [m.__name__ for m in _modules()]
    assert names, "walk found no modules"
    assert not [n for n in names if n.rsplit(".", 1)[-1] == "reference"]


def test_no_public_legacy_attribute():
    offenders = [
        f"{module.__name__}.{attr}"
        for module in _modules()
        for attr in vars(module)
        if attr.startswith("legacy_")
    ]
    assert offenders == []


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(3)
    return learned_like(preferential_attachment(40, 2, rng), rng, 0.3)


def test_removed_options_raise_type_error(graph):
    from repro.experiments.trees_exp import make_tree_workload

    rng = np.random.default_rng(0)
    with pytest.raises(TypeError):
        repro.prr_boost(graph, {0}, 2, rng, selection="legacy")
    with pytest.raises(TypeError):
        repro.prr_boost_lb(graph, {0}, 2, rng, selection="legacy")
    with pytest.raises(TypeError):
        repro.imm(graph, 2, rng, legacy_selection=True)
    tree = make_tree_workload(7, 1, np.random.default_rng(0))
    with pytest.raises(TypeError):
        repro.dp_boost(tree, 2, method="legacy")
