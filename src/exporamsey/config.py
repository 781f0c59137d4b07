"""Capacity caps and run configuration.

Every cap is artifact policy, not mathematics: the structures being probed
are infinitary, and the caps only bound what a desk-scale run materializes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Caps:
    """Size caps and search budgets threaded through the kernels."""

    value_bit_cap: int = 4096          # max bit length of any materialized natural
    exp_bit_cap: int = 65536           # max bit length of a power-form exponent
    vertex_budget: int = 100_000       # closure vertex count before truncation
    max_closure_depth: int = 4         # closure rounds allowed per run
    subset_size_guard: int = 25        # |X| guard for finite sums/products
    search_budget: int = 1_000_000     # candidates examined by seed and block searches
    exhaustive_budget: int = 1 << 24   # k**|V| ceiling for the exhaustive solver
    block_size_limit: int = 4          # max indices per block in block searches
    block_index_limit: int = 32        # max carrier-prefix length in block searches
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
    fmt: str = "json"
