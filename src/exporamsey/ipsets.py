"""Windowed set transforms, IP/IP* witnesses, and progression detectors.

Everything here is a finite shadow: a WindowSet is a concrete subset of an
integer interval, a SetSpec is a membership oracle for a possibly infinite
set, and the IP* check returns a three-valued verdict (holds / fails /
inconclusive) because no window can certify the infinitary property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .config import Caps, DEFAULT_CAPS
from .errors import DomainError, OracleRangeError
from .rules import parse_rule
from .tower import ikth_root


@dataclass(frozen=True)
class WindowSet:
    """Finite subset of the naturals within [lo, hi]."""

    lo: int
    hi: int
    members: frozenset[int]

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise DomainError(f"invalid window [{self.lo}, {self.hi}]")
        if any(m < self.lo or m > self.hi for m in self.members):
            raise DomainError("members outside window")

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def window_set(lo: int, hi: int, members: Iterable[int]) -> WindowSet:
    return WindowSet(lo=lo, hi=hi, members=frozenset(members))


def _ilog_floor(x: int, base: int) -> int:
    """Largest m >= 0 with base**m <= x; -1 when x < 1."""
    if x < 1:
        return -1
    m, v = 0, 1
    while v * base <= x:
        v *= base
        m += 1
    return m


def _ilog_ceil(x: int, base: int) -> int:
    """Smallest m >= 0 with base**m >= x."""
    if x <= 1:
        return 0
    f = _ilog_floor(x, base)
    return f if base ** f == x else f + 1


def _iroot_ceil(x: int, n: int) -> int:
    """Smallest m >= 0 with m**n >= x."""
    if x <= 0:
        return 0
    r = ikth_root(x, n)
    return r if r ** n == x else r + 1


def transform(a: WindowSet, op: str, n: int) -> WindowSet:
    """Preimage of a under shift/divide/log/root, in its shrunken window.

    shift(n):  {m : m + n in A}   on [max(lo-n, 0), hi-n]
    divide(n): {m : m * n in A}   on [ceil(lo/n), floor(hi/n)]
    log(n):    {m : n**m in A}    on [ceil(log_n lo), floor(log_n hi)]
    root(n):   {m : m**n in A}    on [ceil(lo**(1/n)), floor(hi**(1/n))]

    A window that collapses below its lower end comes back empty.
    """
    if op == "shift":
        if n < 0:
            raise DomainError("shift requires n >= 0")
        lo, hi = max(a.lo - n, 0), a.hi - n
        member = lambda m: m + n in a.members
    elif op == "divide":
        if n < 1:
            raise DomainError("divide requires n >= 1")
        lo, hi = -(-a.lo // n), a.hi // n
        member = lambda m: m * n in a.members
    elif op == "log":
        if n < 2:
            raise DomainError("log requires n >= 2")
        lo, hi = _ilog_ceil(a.lo, n), _ilog_floor(a.hi, n)
        member = lambda m: n ** m in a.members
    elif op == "root":
        if n < 1:
            raise DomainError("root requires n >= 1")
        lo, hi = _iroot_ceil(a.lo, n), ikth_root(a.hi, n)
        member = lambda m: m ** n in a.members
    else:
        raise DomainError(f"unknown transform {op!r}")
    lo = max(lo, 0)
    if hi < lo:
        return WindowSet(lo=0, hi=0, members=frozenset())
    return WindowSet(lo=lo, hi=hi, members=frozenset(m for m in range(lo, hi + 1) if member(m)))


@dataclass(frozen=True)
class SeedSearchResult:
    """Outcome of a windowed FS/FP seed search."""

    status: str  # found | none | inconclusive
    witness: tuple[int, ...] | None = None
    examined: int = 0


class _BudgetExhausted(Exception):
    pass


def _seed_search(a: WindowSet, m: int, multiplicative: bool, caps: Caps) -> SeedSearchResult:
    if m < 1:
        raise DomainError("seed size must be >= 1")
    members = a.sorted_members()
    budget = caps.search_budget
    examined = 0

    # depth-first lexicographic extension; a partial prefix is pruned as soon
    # as its own sum/product set escapes A, which preserves first-witness order
    def extend(prefix: list[int], sums: set[int], start: int) -> tuple[int, ...] | None:
        nonlocal examined
        if len(prefix) == m:
            return tuple(prefix)
        for i in range(start, len(members)):
            x = members[i]
            examined += 1
            if examined > budget:
                raise _BudgetExhausted()
            if multiplicative:
                new = {x} | {s * x for s in sums}
            else:
                new = {x} | {s + x for s in sums}
            if not new <= a.members:
                continue
            got = extend(prefix + [x], sums | new, i + 1)
            if got is not None:
                return got
        return None

    try:
        witness = extend([], set(), 0)
    except _BudgetExhausted:
        return SeedSearchResult(status="inconclusive", examined=examined)
    if witness is None:
        return SeedSearchResult(status="none", examined=examined)
    return SeedSearchResult(status="found", witness=witness, examined=examined)


def find_fs_seed(a: WindowSet, m: int, caps: Caps = DEFAULT_CAPS) -> SeedSearchResult:
    """Lexicographically least X with |X| = m and fs(X) inside a.members."""
    return _seed_search(a, m, multiplicative=False, caps=caps)


def find_fp_seed(a: WindowSet, m: int, caps: Caps = DEFAULT_CAPS) -> SeedSearchResult:
    """Lexicographically least X with |X| = m and fp(X) inside a.members."""
    return _seed_search(a, m, multiplicative=True, caps=caps)


@dataclass(frozen=True, eq=False)
class SetSpec:
    """Membership oracle for a (possibly infinite) set of naturals.

    Built by explicit (closed-world finite list), residues (n % modulus ==
    residue), from_rule (DSL expression, member iff value mod 2 == 1) or
    complement_of, each of which compiles its membership test once.  A
    window, when present, bounds where membership may be queried; queries
    outside it raise OracleRangeError.
    """

    window: tuple[int, int] | None
    test: Callable[[int], bool]

    @staticmethod
    def explicit(members: Iterable[int], window: tuple[int, int] | None = None) -> "SetSpec":
        return SetSpec(window, frozenset(members).__contains__)

    @staticmethod
    def residues(modulus: int, residue: int, window: tuple[int, int] | None = None) -> "SetSpec":
        if modulus < 1 or residue < 0 or residue >= modulus:
            raise DomainError(f"invalid residue class {residue} mod {modulus}")
        return SetSpec(window, lambda n: n % modulus == residue)

    @staticmethod
    def from_rule(source: str, window: tuple[int, int] | None = None) -> "SetSpec":
        rule = parse_rule(source, 2)
        return SetSpec(window, lambda n: rule.color(n) == 1)

    @staticmethod
    def complement_of(inner: "SetSpec", window: tuple[int, int] | None = None) -> "SetSpec":
        return SetSpec(window, lambda n: not inner.contains(n))

    def contains(self, n: int) -> bool:
        if n < 0:
            raise DomainError("membership is defined on the naturals")
        if self.window is not None and not (self.window[0] <= n <= self.window[1]):
            raise OracleRangeError(n)
        return self.test(n)

    def materialize(self, lo: int, hi: int) -> WindowSet:
        return window_set(lo, hi, (n for n in range(lo, hi + 1) if self.contains(n)))


def parse_set_spec(text: str) -> SetSpec:
    """Compact SetSpec syntax for the CLI.

    "residue:M:R" | "explicit:1,2,3" | "rule:EXPR" | "complement:SPEC" |
    "all" (= residue:1:0), each optionally suffixed with "@LO..HI".
    """
    window = None
    if "@" in text:
        text, _, win = text.rpartition("@")
        try:
            lo_s, hi_s = win.split("..")
            window = (int(lo_s), int(hi_s))
        except ValueError as exc:
            raise DomainError(f"bad window suffix {win!r}, expected LO..HI") from exc
    if text == "all":
        return SetSpec.residues(1, 0, window)
    head, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"bad set spec {text!r}")
    if head == "residue":
        try:
            mod_s, res_s = rest.split(":")
        except ValueError as exc:
            raise DomainError(f"residue spec needs residue:M:R, got {text!r}") from exc
        return SetSpec.residues(int(mod_s), int(res_s), window)
    if head == "explicit":
        try:
            members = [int(v) for v in rest.split(",") if v != ""]
        except ValueError as exc:
            raise DomainError(f"bad explicit member list {rest!r}") from exc
        return SetSpec.explicit(members, window)
    if head == "rule":
        return SetSpec.from_rule(rest, window)
    if head == "complement":
        return SetSpec.complement_of(parse_set_spec(rest), window)
    raise DomainError(f"unknown set spec kind {head!r}")


@dataclass(frozen=True)
class IpStarVerdict:
    verdict: str  # holds | fails | inconclusive
    witness: tuple[int, ...] | None = None


def is_ip_star_window(
    spec: SetSpec,
    kind: str,
    m: int,
    window: tuple[int, int],
    caps: Caps = DEFAULT_CAPS,
) -> IpStarVerdict:
    """Windowed, size-m IP* probe: search the complement for an FS/FP seed.

    fails(X) means the complement contains fs(X) (resp. fp(X)) entirely
    inside the window, holds means the exhaustive windowed search found
    none, inconclusive means the budget ran out first.
    """
    if kind not in ("additive", "multiplicative"):
        raise DomainError(f"kind must be additive or multiplicative, got {kind!r}")
    lo, hi = window
    complement = window_set(lo, hi, (n for n in range(lo, hi + 1) if not spec.contains(n)))
    search = find_fp_seed if kind == "multiplicative" else find_fs_seed
    result = search(complement, m, caps)
    if result.status == "found":
        return IpStarVerdict(verdict="fails", witness=result.witness)
    if result.status == "none":
        return IpStarVerdict(verdict="holds")
    return IpStarVerdict(verdict="inconclusive")


def find_geometric_progressions(a: WindowSet, length: int) -> list[tuple[int, int]]:
    """All (start, ratio) with ratio >= 2 whose first `length` terms lie in a."""
    if length < 2:
        raise DomainError("progression length must be >= 2")
    out = []
    for start in a.sorted_members():
        if start < 1:
            continue
        h = 2
        while start * h ** (length - 1) <= a.hi:
            if all(start * h ** i in a.members for i in range(length)):
                out.append((start, h))
            h += 1
    return out


def find_power_progressions(a: WindowSet, length: int) -> list[int]:
    """All h >= 2 with h, h**2, ..., h**length all members of a."""
    if length < 2:
        raise DomainError("progression length must be >= 2")
    out = []
    for h in a.sorted_members():
        if h < 2:
            continue
        if all(h ** i in a.members for i in range(1, length + 1)):
            out.append(h)
    return out


def windowset_record(a: WindowSet) -> dict:
    return {"lo": a.lo, "hi": a.hi, "members": [str(m) for m in a.sorted_members()]}


def verdict_record(v: IpStarVerdict) -> dict:
    rec: dict = {"verdict": v.verdict}
    if v.witness is not None:
        rec["witness"] = [str(x) for x in v.witness]
    return rec


def seed_result_record(r: SeedSearchResult) -> dict:
    rec: dict = {"status": r.status, "examined": r.examined}
    if r.witness is not None:
        rec["witness"] = [str(x) for x in r.witness]
    return rec
