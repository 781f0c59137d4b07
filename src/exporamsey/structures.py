"""Finite sums, finite products, and the two exponential-tower recursions.

FS/FP work on plain naturals (sums leave the power-form domain); the tower
generators fe1/fe2 work on canonical power forms, where exponentiation is
closed.  Type I raises existing elements to the new seed; type II raises the
new seed to existing elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError, message_int
from .tower import (PowerForm, _try_value, int_text, normalize, power, powerform_record,
                    sorted_forms, try_evaluate)

# |X| guard for finite sums and products, whose sets have up to 2**|X| - 1 elements.
_SUBSET_SIZE_GUARD = 25


@dataclass(frozen=True)
class FeLevel:
    """One unrolled level of an exponential-tower recursion; elements ascend."""

    level: int
    elements: tuple[PowerForm, ...]
    dropped_count: int


def _carrier(xs: Iterable[int]) -> list[int]:
    vals = sorted(set(xs))
    if not all(isinstance(x, int) and x >= 1 for x in vals):
        raise DomainError("carrier elements must be integers >= 1")
    if len(vals) > _SUBSET_SIZE_GUARD:
        raise CapacityError(f"carrier size {len(vals)} exceeds subset guard {_SUBSET_SIZE_GUARD}")
    return vals


def fs(xs: Iterable[int]) -> set[int]:
    """All sums of non-empty subsets of xs."""
    sums: set[int] = set()
    for x in _carrier(xs):
        sums |= {x} | {s + x for s in sums}
    return sums


def fp(xs: Iterable[int], caps: Caps = DEFAULT_CAPS) -> set[int]:
    """All products of non-empty subsets of xs, capped at value_bit_cap."""
    prods: set[int] = set()
    for x in _carrier(xs):
        new = {x} | {p * x for p in prods}
        for v in new:
            if v.bit_length() > caps.value_bit_cap:
                raise CapacityError(
                    f"product bit length {v.bit_length()} exceeds "
                    f"value_bit_cap {caps.value_bit_cap}"
                )
        prods |= new
    return prods


def validate_seeds(seeds: Sequence[int], level: int) -> tuple[int, ...]:
    """Strictly increasing explicit seeds >= 2; enough of them for `level`."""
    seq = tuple(seeds)
    if not seq:
        raise DomainError("seed sequence must be non-empty")
    if not all(isinstance(x, int) and x >= 2 for x in seq):
        raise DomainError("tower seeds must be integers >= 2")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise DomainError("seed sequence must be strictly increasing")
    if level < 0:
        raise DomainError("level must be >= 0")
    if level + 1 > len(seq):
        raise DomainError(f"level {level} needs {level + 1} seeds, got {len(seq)}")
    return seq


def _fe(seeds: Sequence[int], level: int, caps: Caps, type_one: bool) -> FeLevel:
    seq = validate_seeds(seeds, level)
    elements = {normalize(seq[0], caps)}
    dropped = 0
    for i in range(1, level + 1):
        x = normalize(seq[i], caps)
        new = set()
        for y in elements:
            try:
                new.add(power(y, x, caps) if type_one else power(x, y, caps))
            except CapacityError:
                dropped += 1
        new.add(x)
        elements |= new
    return FeLevel(level=level, elements=tuple(sorted_forms(elements)), dropped_count=dropped)


def fe1(seeds: Sequence[int], level: int, caps: Caps = DEFAULT_CAPS) -> FeLevel:
    """Type-I tower level: each step adds y**x_new for existing y, plus x_new."""
    return _fe(seeds, level, caps, type_one=True)


def fe2(seeds: Sequence[int], level: int, caps: Caps = DEFAULT_CAPS) -> FeLevel:
    """Type-II tower level: each step adds x_new**y for existing y, plus x_new."""
    return _fe(seeds, level, caps, type_one=False)


def _capped_pow(base: int, exp: int, caps: Caps) -> int:
    """base**exp within value_bit_cap; a bit-length bound rejects huge powers unbuilt."""
    v = _try_value(base, exp, caps.value_bit_cap)
    if v is None:
        raise CapacityError(f"{message_int(base)}**{message_int(exp)} exceeds "
                            f"value_bit_cap {caps.value_bit_cap}")
    return v


def pow_image_base(n: int, s: Iterable[int], caps: Caps = DEFAULT_CAPS) -> set[int]:
    """{ n**x : x in s } for a fixed base n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"base must be an integer >= 2, got {n!r}")
    out = set()
    for x in s:
        if not isinstance(x, int) or x < 0:
            raise DomainError("exponents must be non-negative integers")
        out.add(_capped_pow(n, x, caps))
    return out


def pow_image_exp(s: Iterable[int], n: int, caps: Caps = DEFAULT_CAPS) -> set[int]:
    """{ x**n : x in s } for a fixed exponent n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"exponent must be an integer >= 1, got {n!r}")
    out = set()
    for x in s:
        if not isinstance(x, int) or x < 1:
            raise DomainError("bases must be positive integers")
        out.add(_capped_pow(x, n, caps))
    return out


def max_element_value(fe: FeLevel, caps: Caps = DEFAULT_CAPS) -> int:
    """Explicit value of the largest element; capacity error if symbolic."""
    top = fe.elements[-1]
    v = try_evaluate(top, caps)
    if v is None:
        raise CapacityError(f"largest tower element {top} exceeds value_bit_cap")
    return v


def level_record(kind: str, seeds: Sequence[int], result, caps: Caps = DEFAULT_CAPS) -> dict:
    """JSON record shared by the four generator kinds."""
    if kind in ("FE1", "FE2"):
        return {
            "kind": kind,
            "seeds": [int_text(x) for x in seeds],
            "level": result.level,
            "elements": [powerform_record(e, caps) for e in result.elements],
            "dropped": result.dropped_count,
        }
    return {
        "kind": kind,
        "seeds": [int_text(x) for x in sorted(set(seeds))],
        "level": None,
        "elements": [int_text(v) for v in sorted(result)],
        "dropped": 0,
    }
