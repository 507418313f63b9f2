"""The four workloads: inputs generated from a seed, set-up, execution.

Every workload is a closed loop with one client: the next query (or
request) is sent only after the previous answer arrived.  A run executes
one fixed list of items, generated from the workload seed, to completion,
so two runs of one seed do identical work.  Each workload issues one
query class only, so its latency distribution has one cost cluster.

The program receives only the generated items: query objects in the
``to_dict`` wire shape, or for ``serve_w2`` the JSON body of a POST.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path
from typing import List, Optional

import numpy as np

# Imported lazily by run.py after it has put the program's source on
# sys.path; this module only names them inside functions.
DIGG = "digg-like"          # 1,000 nodes, 6,496 edges, mean p 0.237
TREE_NODES = 511            # Fig-15 complete binary bidirected tree
TREE_GRAPH_SEED = 15        # fixes the tree's trivalency draw


def _seeds(rng: np.random.Generator, n: int, size: int) -> List[int]:
    return sorted(int(v) for v in rng.choice(n, size, replace=False))


def _rng_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _boost_query(rng: np.random.Generator, k: int, n_seeds: int) -> dict:
    return {"type": "boost", "algorithm": "prr_boost",
            "seeds": _seeds(rng, 1000, n_seeds), "k": k,
            "rng_seed": _rng_seed(rng)}


class Deployment:
    """One set-up of a workload: the program state the loop talks to."""

    session = None

    def execute(self, item) -> Optional[List[dict]]:
        """Send one item; its envelopes, or ``None`` if refused."""
        raise NotImplementedError

    def close(self) -> None:
        self.session.close()


class _InProcess(Deployment):
    """A warm serial ``Session`` called directly, like ``repro query``."""

    def __init__(self, session) -> None:
        self.session = session

    def execute(self, item):
        from repro.api import query_from_dict

        return [self.session.run(query_from_dict(item)).to_dict()]


class Workload:
    name = ""
    # Items per run: a fixed list, so every run does the same work.  100
    # is the least that gives latency_p90_ms ten samples beyond it.
    count = 100
    queries_per_item = 1
    primary = "boost"     # the envelope estimate reported as quality
    exact_k = True        # every answer selects exactly k nodes
    # ReferenceKernel parts whose slowdown under host contention matches
    # this workload's (measured; README.md).
    reference_parts = ("bulk", "calls")
    # The parts that match a set-up cycle: graph building, session
    # opening and one query mix bulk and call-heavy work.
    setup_parts = ("bulk", "calls")

    def items(self, seed: int) -> list:
        """The run's item list: a pure function of ``seed``."""
        rng = np.random.default_rng([seed, 0])
        return [self.make_item(rng) for _ in range(self.count)]

    def warmup_item(self):
        """The set-up cycles' warm-up query: the same for every seed, so
        ``setup_s`` times the same work in every run."""
        return self.make_item(np.random.default_rng([0, 1]))

    def make_item(self, rng):
        raise NotImplementedError

    def build_graph(self, workdir: Path):
        raise NotImplementedError

    def open(self, graph, workdir: Path) -> Deployment:
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Untimed work done once per run before any set-up cycle."""

    def check(self, envelope: dict) -> Optional[str]:
        """Why an answer is wrong, or ``None`` when it passes."""
        if "error" in envelope.get("extra", {}):
            return f"error envelope {envelope['extra']['error']!r}"
        size, k = len(envelope["selected"]), self.K
        if not (size == k if self.exact_k else 1 <= size <= k):
            want = k if self.exact_k else f"1..{k}"
            return f"selected {size} nodes, want {want}"
        value = envelope["estimates"].get(self.primary, 0.0)
        if not value > 0.0:
            return f"estimate {self.primary}={value!r} is not positive"
        return None


class BoostPRR(Workload):
    name = "boost_prr"
    K, SEEDS, MAX_SAMPLES = 20, 10, 200
    # The sandwich may pick the mu arm, whose greedy stops once no
    # candidate covers a fresh critical set: fewer than k nodes is a
    # correct answer, an empty one is not.
    exact_k = False

    def make_item(self, rng):
        return _boost_query(rng, self.K, self.SEEDS)

    def build_graph(self, workdir):
        from repro.datasets import load_dataset

        return load_dataset(DIGG)

    def open(self, graph, workdir):
        from repro.api import SamplingBudget, Session

        return _InProcess(
            Session(graph, budget=SamplingBudget(max_samples=self.MAX_SAMPLES))
        )


class IMMCover(Workload):
    name = "imm_cover"
    primary = "influence"
    # epsilon 0.7 rather than the paper's 0.5 halves theta (about 1,400 RR
    # sets per query) so the four workloads fit the benchmark's run budget.
    K, EPSILON = 10, 0.7
    reference_parts = ("bulk",)   # RR lanes and coverage are bulk array work

    def make_item(self, rng):
        return {"type": "seed", "algorithm": "imm", "k": self.K,
                "rng_seed": _rng_seed(rng)}

    build_graph = BoostPRR.build_graph

    def open(self, graph, workdir):
        from repro.api import SamplingBudget, Session

        return _InProcess(
            Session(graph, budget=SamplingBudget(epsilon=self.EPSILON))
        )


class TreeDP(Workload):
    name = "tree_dp"
    # Query cost depends strongly on where the seeds sit in the tree; 210
    # queries keep the run's p90 from resting on a few heavy seed sets.
    count = 210
    # k=5 rather than 10 halves the DP's budget grid, so 210 queries fit
    # the benchmark's run budget.
    K, SEEDS, EPSILON = 5, 10, 0.2
    reference_parts = ("calls",)  # level loops of small numpy calls
    setup_parts = ("calls",)      # tree build and one DP query alike

    def make_item(self, rng):
        return {"type": "tree", "algorithm": "tree_dp",
                "seeds": _seeds(rng, TREE_NODES, self.SEEDS), "k": self.K}

    def build_graph(self, workdir):
        from repro.experiments.trees_exp import make_tree_workload

        tree = make_tree_workload(
            TREE_NODES, 1, np.random.default_rng(TREE_GRAPH_SEED)
        )
        return tree.to_digraph()

    def open(self, graph, workdir):
        from repro.api import SamplingBudget, Session

        return _InProcess(
            Session(graph, budget=SamplingBudget(epsilon=self.EPSILON))
        )


class _HTTPServe(Deployment):
    """``repro serve --workers 2`` embedded: ResultCache, default
    AdmissionPolicy, a 2-worker shared-memory pool and ``serve_http`` on
    an ephemeral port, driven by one client connection."""

    def __init__(self, session) -> None:
        from repro.api import serve_http

        self.session = session
        session.ensure_runtime(ServeW2.WORKERS)
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=serve_http, args=(session, "127.0.0.1", 0),
            kwargs={"ready": self._ready, "stop": self._stop,
                    "poll_interval": 0.05},
            name="perfbench-http", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("serve_http did not bind")
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", self._ready.port, timeout=120
        )

    def execute(self, item):
        self._conn.request(
            "POST", "/query", body=item,
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        body = response.read()
        if response.status != 200:
            return None
        return json.loads(body)

    def close(self) -> None:
        self._conn.close()
        self._stop.set()
        self._thread.join(30)
        self.session.close()


class ServeW2(Workload):
    name = "serve_w2"
    queries_per_item = 2
    K, SEEDS, MAX_SAMPLES, WORKERS = 20, 10, 512, 2
    exact_k = False     # PRR-Boost answers, as in boost_prr
    RESEND_EVERY = 5     # every fifth request re-sends an earlier batch

    def items(self, seed):
        rng = np.random.default_rng([seed, 0])
        bodies: List[bytes] = []
        for i in range(1, self.count + 1):
            if i % self.RESEND_EVERY == 0:
                bodies.append(bodies[int(rng.integers(len(bodies)))])
            else:
                bodies.append(self.make_item(rng))
        return bodies

    def make_item(self, rng):
        batch = [_boost_query(rng, self.K, self.SEEDS)
                 for _ in range(self.queries_per_item)]
        return json.dumps(batch).encode()

    def warmup_item(self):
        """One query, not a batch: a set-up cycle ends with one warm-up
        query on every workload."""
        rng = np.random.default_rng([0, 1])
        return json.dumps([_boost_query(rng, self.K, self.SEEDS)]).encode()

    def store_path(self, workdir: Path) -> Path:
        return workdir / "digg-like.rpgs"

    def prepare(self, workdir):
        from repro.datasets import load_dataset
        from repro.storage import save_graph

        save_graph(load_dataset(DIGG), self.store_path(workdir))

    def build_graph(self, workdir):
        from repro.storage import open_graph

        return open_graph(self.store_path(workdir), mode="mmap")

    def open(self, graph, workdir):
        from repro.api import AdmissionPolicy, ResultCache, SamplingBudget, Session

        session = Session(
            graph,
            budget=SamplingBudget(
                max_samples=self.MAX_SAMPLES, workers=self.WORKERS
            ),
            cache=ResultCache(),
            admission=AdmissionPolicy(),
        )
        return _HTTPServe(session)


WORKLOADS = {w.name: w for w in (BoostPRR(), IMMCover(), ServeW2(), TreeDP())}
