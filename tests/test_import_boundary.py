"""Each algorithm ships once: no oracle copy and no selector knob in ``repro``.

The loop oracles the parity tests compare against live in
``tests/oracles/``; the installed package carries only the vectorized
implementations.  Likewise the chunk runtime exists once
(:class:`repro.core.parallel.SharedGraphRuntime`, over a fork or a TCP
transport).  These checks walk every module of ``repro`` so a
re-introduced ``reference`` module, ``legacy_*`` function, second
scheduler or implementation-selector option fails here.
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


# The second chunk scheduler and its graph-keyed binding registry.
REMOVED_RUNTIME_NAMES = (
    "DistributedRuntime",
    "run_chunks_local",
    "_run_chunks",
    "bind_distributed_runtime",
    "unbind_distributed_runtime",
    "distributed_runtime_for",
    "distributed_sampling_active",
    "_DIST_RUNTIMES",
)


@pytest.mark.parametrize("name", REMOVED_RUNTIME_NAMES)
def test_removed_runtime_name_is_gone(name):
    assert [m.__name__ for m in _modules() if name in vars(m)] == []


@pytest.mark.parametrize("option", ["fallback_workers", "max_chunk_retries"])
def test_removed_runtime_options_raise_type_error(graph, option):
    from repro.core.parallel import SharedGraphRuntime, get_runtime

    # Argument binding fails before any process starts or host is dialled.
    with pytest.raises(TypeError):
        SharedGraphRuntime(graph, hosts="127.0.0.1:9", **{option: 1})
    with pytest.raises(TypeError):
        get_runtime(graph, 2, **{option: 1})


def test_one_chunk_scheduler():
    """The scheduler API lives on one class, and the fork worker sends
    no claim message: a chunk's owner is known when it is sent."""
    import inspect

    from repro.core import parallel

    api = {"submit", "gather", "run", "health", "shutdown"}
    schedulers = {
        f"{obj.__module__}.{obj.__qualname__}"
        for module in _modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and api <= set(vars(obj))
    }
    assert schedulers == {"repro.core.parallel.SharedGraphRuntime"}
    assert "claim" not in inspect.getsource(parallel._worker_main)
