"""Seeded loop oracles for the parity tests and the micro-benchmarks.

Each module keeps the original pure-Python implementation of a layer
whose shipped version in ``repro`` was vectorized, so tests can assert
fast path == oracle bit for bit:

* :mod:`oracles.engine` — the pre-engine edge-wise samplers and cascades,
* :mod:`oracles.selection` — the dict/heap greedy, the per-graph ``Δ̂``
  loops, and PRR-Boost / PRR-Boost-LB / IMM composed from them,
* :mod:`oracles.trees` — the per-node DP-Boost fills and the scalar
  exact tree computation.

Tests import them as ``from oracles.<module> import ...`` (pytest puts
``tests/`` on ``sys.path``); the benchmark scripts add ``tests/`` to
``sys.path`` themselves.
"""
