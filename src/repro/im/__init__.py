"""Influence maximization substrate: RR-sets, IMM, greedy coverage."""

from .greedy import greedy_max_coverage, lazy_greedy
from .imm import (
    IMMResult,
    SetSampler,
    estimate_influence,
    imm,
    imm_core,
    imm_sampling,
    log_binomial,
)
from .rr import RRSampler, random_rr_set
from .seeds import select_seeds
from .ssa import SSAResult, ssa, ssa_core, ssa_sampling

__all__ = [
    "random_rr_set",
    "RRSampler",
    "greedy_max_coverage",
    "lazy_greedy",
    "imm",
    "imm_core",
    "imm_sampling",
    "IMMResult",
    "SetSampler",
    "estimate_influence",
    "log_binomial",
    "ssa",
    "ssa_core",
    "ssa_sampling",
    "SSAResult",
    "select_seeds",
]
