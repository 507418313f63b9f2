"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import install  # noqa: E402
from measure import quartiles, tail_percentile  # noqa: E402
from spans import Span, Tracer, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert tail_percentile(values, 90) == 90
    assert tail_percentile(values, 50) == 50
    with pytest.raises(ValueError):
        tail_percentile(values[:99], 90)
    with pytest.raises(ValueError):
        tail_percentile(values, 95)


def test_quartiles_match_statistics_quantiles():
    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.75, 5.5, 8.25)
    assert q["iqr_share"] == pytest.approx(5.5 / 5.5)


def _span(start, end, parent=None):
    sp = Span(0, "x", start, parent, 0)
    sp.end = end
    return sp


def test_self_time_subtracts_only_the_covered_part():
    parent = _span(0.0, 10.0)
    children = [
        _span(1.0, 3.0), _span(2.0, 5.0),   # overlap each other: [1, 5]
        _span(8.0, 12.0),                   # sticks out: [8, 10] counts
        _span(20.0, 25.0),                  # outside the span
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_spans_nest_per_thread():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_items(name):
    workload = WORKLOADS[name]
    first = workload.items(3)
    assert first == workload.items(3)
    assert first != workload.items(4)
    assert len(first) >= 100
    assert workload.warmup_item() == workload.warmup_item()


def test_serve_items_resend_every_fifth_batch():
    items = WORKLOADS["serve_w2"].items(3)
    for i, body in enumerate(items, start=1):
        earlier = items[: i - 1]
        assert (body in earlier) == (i % 5 == 0)


def _attributes(owners):
    return {
        (id(owner), name): value
        for owner in owners for name, value in vars(owner).items()
    }


def test_wrappers_record_and_are_restored():
    from importlib import import_module

    from repro.api.admission import AdmissionPolicy
    from repro.api.session import Session
    from repro.core.prr import PRRArena
    from repro.engine import SamplingEngine
    from repro.engine.coverage import CoverageIndex

    parallel = import_module("repro.core.parallel")
    owners = [
        import_module(m) for m in (
            "repro.api.algorithms", "repro.core.boost", "repro.core.parallel",
            "repro.im.imm", "repro.storage", "repro.trees",
        )
    ] + [Session, AdmissionPolicy, PRRArena, SamplingEngine, CoverageIndex,
         parallel.SharedGraphRuntime]
    before = _attributes(owners)
    tracer = Tracer()
    install(tracer)
    try:
        assert _attributes(owners) != before
        assert isinstance(vars(PRRArena)["from_payloads"], classmethod)
        index = CoverageIndex(4)
        index.append([1, 2])
        assert index.greedy(1) == ([1], 1)
        (span,) = [s for s in tracer.spans if s.name == "cover.greedy"]
        assert span.value == 2
    finally:
        tracer.restore()
    after = _attributes(owners)
    assert all(after[key] is value for key, value in before.items())
