"""Capacity caps and run configuration.

Every cap is artifact policy, not mathematics: the structures being probed
are infinitary, and the caps only bound what a desk-scale run materializes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Caps:
    """Run settings: each field is also a global CLI flag and a config key."""

    value_bit_cap: int = 4096          # max bit length of any materialized natural
    exp_bit_cap: int = 65536           # max bit length of a power-form exponent
    vertex_budget: int = 100_000       # closure vertex count before truncation
    search_budget: int = 1_000_000     # seed and block candidates, backtracking color attempts

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
