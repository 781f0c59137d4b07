"""Capacity caps and run configuration.

Every cap is artifact policy, not mathematics: the structures being probed
are infinitary, and the caps only bound what a desk-scale run materializes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import DomainError

THREADS_ENV_VAR = "EXPORAMSEY_THREADS"


@dataclass(frozen=True)
class Caps:
    """Size caps and search budgets threaded through the kernels."""

    value_bit_cap: int = 4096          # max bit length of any materialized natural
    exp_bit_cap: int = 65536           # max bit length of a power-form exponent
    vertex_budget: int = 100_000       # closure vertex count before truncation
    max_closure_depth: int = 4         # closure rounds allowed per run
    subset_size_guard: int = 25        # |X| guard for finite sums/products
    seed_search_budget: int = 1_000_000   # candidates examined by seed searches
    exhaustive_budget: int = 1 << 24   # k**|V| ceiling for the exhaustive solver
    block_size_limit: int = 4          # max indices per block in block searches
    block_index_limit: int = 32        # max carrier-prefix length in block searches
    fegen_budget: int = 1_000_000      # block tuples examined by block searches
    greedy_base_limit: int = 1_000_000  # largest tower max the greedy step will sweep

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 1:
                raise DomainError(f"cap {name} must be positive")


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation's resolved configuration."""

    caps: Caps = DEFAULT_CAPS
    deterministic: bool = False  # force single-threaded, byte-stable output
    threads: int = 1
    fmt: str = "json"


def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError as exc:
        raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
    return n


def caps_with(caps: Caps, **overrides) -> Caps:
    """Return `caps` with non-None overrides applied."""
    filtered = {k: v for k, v in overrides.items() if v is not None}
    return replace(caps, **filtered) if filtered else caps
