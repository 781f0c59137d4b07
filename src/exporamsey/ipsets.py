"""Windowed set transforms, IP/IP* witnesses, and progression detectors.

Everything here is a finite shadow: a WindowSet is a concrete subset of an
integer interval, a SetSpec is a membership oracle for a possibly infinite
set, and the IP* check returns a three-valued verdict (holds / fails /
inconclusive) because no window can certify the infinitary property.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, islice
from typing import Callable, Iterable, Iterator

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError, OracleRangeError
from .rules import parse_rule
from .tower import ikth_root, int_text


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


def window_set(lo: int, hi: int, members: Iterable[int]) -> WindowSet:
    return WindowSet(lo=lo, hi=hi, members=frozenset(members))


def _window_unchecked(lo: int, hi: int, members: frozenset[int]) -> WindowSet:
    """A WindowSet built without checks, for members the caller drew from [lo, hi]."""
    a = object.__new__(WindowSet)
    object.__setattr__(a, "lo", lo)
    object.__setattr__(a, "hi", hi)
    object.__setattr__(a, "members", members)
    return a


def _ilog_floor(x: int, base: int) -> int:
    """Largest m >= 0 with base**m <= x; -1 when x < 1."""
    if x < 1:
        return -1
    m, v = 0, 1
    while v * base <= x:
        v *= base
        m += 1
    return m


def _identity(m: int) -> int:
    return m


def _preimage(a: WindowSet, lo: int, hi: int, image: Callable[[int], int],
              floor: Callable[[int], int]) -> Iterator[int]:
    """The m in [lo, hi] with image(m) in a, from whichever side is smaller.

    image is increasing and floor(x) is the largest m with image(m) <= x.  A
    window shorter than the member count is scanned in ascending order;
    otherwise each member x maps back to floor(x), kept when it lies in
    [lo, hi] and its image is x again, in set order.
    """
    if hi - lo < len(a.members):
        return (m for m in range(lo, hi + 1) if image(m) in a.members)
    return (m for x in a.members if lo <= (m := floor(x)) <= hi and image(m) == x)


def transform(a: WindowSet, op: str, n: int) -> WindowSet:
    """Preimage of a under shift/divide/log/root, in its shrunken window.

    shift(n):  {m : m + n in A}   on [max(lo-n, 0), hi-n]
    divide(n): {m : m * n in A}   on [ceil(lo/n), floor(hi/n)]
    log(n):    {m : n**m in A}    on [ceil(log_n lo), floor(log_n hi)]
    root(n):   {m : m**n in A}    on [ceil(lo**(1/n)), floor(hi**(1/n))]

    Each op pairs its image m -> x with a floor inverse x -> m, which is -1
    below the image of 0; a ceiling is the floor at lo - 1, plus one.
    `_preimage` reads the members from the smaller side, the window or A.  A
    collapsed window comes back as [0, 0].
    """
    if op == "shift":
        if n < 0:
            raise DomainError("shift requires n >= 0")
        image, floor = (lambda m: m + n), (lambda x: max(x - n, -1))
    elif op == "divide":
        if n < 1:
            raise DomainError("divide requires n >= 1")
        image, floor = (lambda m: m * n), (lambda x: x // n)
    elif op == "log":
        if n < 2:
            raise DomainError("log requires n >= 2")
        image, floor = (lambda m: n ** m), (lambda x: _ilog_floor(x, n))
    elif op == "root":
        if n < 1:
            raise DomainError("root requires n >= 1")
        image, floor = (lambda m: m ** n), (lambda x: ikth_root(x, n) if x >= 0 else -1)
    else:
        raise DomainError(f"unknown transform {op!r}")
    lo, hi = floor(a.lo - 1) + 1, floor(a.hi)
    if hi < lo:
        return WindowSet(lo=0, hi=0, members=frozenset())
    return _window_unchecked(lo, hi, frozenset(_preimage(a, lo, hi, image, floor)))


@dataclass(frozen=True)
class SeedSearchResult:
    """Outcome of a windowed FS/FP seed search."""

    status: str  # found | none | inconclusive
    witness: tuple[int, ...] | None = None
    examined: int = 0


# the 0/1 flag bytes of a membership pass, as the digits int(..., 2) reads
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _seed_search(a: WindowSet, m: int, multiplicative: bool, caps: Caps) -> SeedSearchResult:
    if m < 1:
        raise DomainError("seed size must be >= 1")
    members = sorted(a.members)
    inside = a.members
    n = len(members)
    top = members[-1] if members else 0
    descending = members[::-1]
    budget = caps.search_budget
    examined = 0
    fits_of: dict[int, int] = {}

    def added_by(x: int) -> set[int]:
        """The sums x adds to the shared set; those it repeats are in A already."""
        combined = map(x.__mul__ if multiplicative else x.__add__, sums)
        new = set(filterfalse(sums.__contains__, combined))
        if x not in sums:
            new.add(x)
        return new

    def fits(s: int) -> int:
        """The ranks r with members[r] + s (or * s) in A, as bits; one pass over
        the members that can land at or below the largest one."""
        f = fits_of.get(s)
        if f is None:
            if multiplicative and s == 0:
                f = (1 << n) - 1  # x * 0 = 0, and a sum 0 is a member of A
            else:
                k = bisect_right(members, top // s if multiplicative else top - s)
                combined = map(s.__mul__ if multiplicative else s.__add__, descending[n - k:])
                flags = bytes(map(inside.__contains__, combined)).translate(_BIT_DIGITS)
                f = int(flags, 2) if k else 0
            fits_of[s] = f
        return f

    # depth-first lexicographic extension on an explicit stack: chosen holds,
    # per prefix element, its index, the sums it added to the one shared FS/FP
    # set, and the candidate mask of the prefix before it.  A prefix's mask has
    # bit r set iff members[r] extends it: the nearest mask built above it,
    # ANDed with fits(s) for each sum added since.  A level tests its next
    # member directly and builds its mask only when that test fails, so a
    # search that keeps taking the next member builds none.  `examined` counts
    # the members a plain scan would test, up to the one it takes.
    chosen: list[tuple[int, set[int], int | None]] = []
    sums: set[int] = set()
    mask: int | None = (1 << n) - 1  # every member extends the empty prefix
    start = 0
    while len(chosen) < m:
        found = -1
        if mask is None and start < n:
            examined += 1
            if examined > budget:
                return SeedSearchResult(status="inconclusive", examined=examined)
            new = added_by(members[start])
            if new <= inside:
                found = start
            else:
                start += 1
                k = len(chosen) - 1
                while chosen[k][2] is None:
                    k -= 1
                mask = chosen[k][2]
                for _, added, _ in chosen[k:]:
                    for s in added:
                        mask &= fits(s)
        if found < 0 and mask is not None:
            rest = mask >> start
            cost = (rest & -rest).bit_length() if rest else n - start
            if examined + cost > budget:
                return SeedSearchResult(status="inconclusive", examined=budget + 1)
            examined += cost
            if rest:
                found = start + cost - 1
                new = added_by(members[found])
        if found >= 0:
            sums.update(new)
            chosen.append((found, new, mask))
            mask = None
            start = found + 1
        else:  # no member extends this prefix: drop its last element
            if not chosen:
                return SeedSearchResult(status="none", examined=examined)
            i, new, mask = chosen.pop()
            sums.difference_update(new)
            start = i + 1
    witness = tuple(members[j] for j, _, _ in chosen)
    return SeedSearchResult(status="found", witness=witness, examined=examined)


def find_fs_seed(a: WindowSet, m: int, caps: Caps = DEFAULT_CAPS) -> SeedSearchResult:
    """Lexicographically least X with |X| = m and fs(X) inside a.members."""
    return _seed_search(a, m, multiplicative=False, caps=caps)


def find_fp_seed(a: WindowSet, m: int, caps: Caps = DEFAULT_CAPS) -> SeedSearchResult:
    """Lexicographically least X with |X| = m and fp(X) inside a.members."""
    return _seed_search(a, m, multiplicative=True, caps=caps)


# Values per chunk of a rule or complement pass: one chunk's lists, not the
# window, set the memory of the pass.  Chunks of 4096 colour no faster and
# hold a 32 KB list each.
_CHUNK = 1024
# Members a materialized window may hold, at about 66 bytes each in its frozenset.
_MEMBER_LIMIT = 1 << 20


def _chunks(lo: int, top: int) -> Iterator[range]:
    """[lo, top] as ascending ranges of at most _CHUNK values."""
    return (range(s, min(s + _CHUNK, top + 1)) for s in range(lo, top + 1, _CHUNK))


def _then_out_of_window(members: Iterable[int], n: int) -> Iterator[int]:
    """members, then OracleRangeError(n): a pass cut short by the window's end."""
    yield from members
    raise OracleRangeError(n)


@dataclass(frozen=True, eq=False)
class SetSpec:
    """Membership oracle for a (possibly infinite) set of naturals.

    Built by explicit (closed-world finite list), residues (n % modulus ==
    residue), from_rule (DSL expression, member iff value mod 2 == 1) or
    complement_of.  A window, when present, bounds where membership may be
    queried; queries outside it raise OracleRangeError.

    `scan(lo, top)` is the batch pass that `materialize` takes: it yields
    the members in [lo, top], a range inside the window, in ascending
    order, and raises the error of the first failing n where it reaches
    that n.  Each kind has one pass: a stepped range, a slice of the sorted
    explicit members, the compiled `ColorRule.colors` over chunks, or, per
    chunk, the values the inner spec's pass leaves out.  A SetSpec(window,
    test) built directly has no pass and scans the window with its test.

    `test` answers one n, for `contains`, and stays next to each pass
    because most queries ask about one n: on Python 3.11 a per-n rule
    `evaluate` takes 62-85 ns and a one-element `colors` batch 275-385 ns,
    and a traced seed-1 `search` benchmark run asks `contains` 17,132
    times.  A rule spec compiles the function that `test` calls, or the one
    `scan` calls, on its first use.
    """

    window: tuple[int, int] | None
    test: Callable[[int], bool]
    scan: Callable[[int, int], Iterable[int]] | None = None

    @staticmethod
    def explicit(members: Iterable[int], window: tuple[int, int] | None = None) -> "SetSpec":
        members = frozenset(members)
        ordered = sorted(members)
        return SetSpec(window, members.__contains__,
                       lambda lo, top: ordered[bisect_left(ordered, lo):bisect_right(ordered, top)])

    @staticmethod
    def residues(modulus: int, residue: int, window: tuple[int, int] | None = None) -> "SetSpec":
        if modulus < 1 or residue < 0 or residue >= modulus:
            raise DomainError(f"invalid residue class {residue} mod {modulus}")
        return SetSpec(window, lambda n: n % modulus == residue,
                       lambda lo, top: range(lo + (residue - lo) % modulus, top + 1, modulus))

    @staticmethod
    def from_rule(source: str, window: tuple[int, int] | None = None) -> "SetSpec":
        rule = parse_rule(source, 2)
        return SetSpec(window, lambda n: rule.evaluate(n) % 2 == 1,
                       lambda lo, top: chain.from_iterable(
                           compress(ns, rule.colors(ns)) for ns in _chunks(lo, top)))

    @staticmethod
    def complement_of(inner: "SetSpec", window: tuple[int, int] | None = None) -> "SetSpec":
        return SetSpec(window, lambda n: not inner.contains(n),
                       lambda lo, top: chain.from_iterable(
                           filterfalse(set(inner._ascending(ns[0], ns[-1])).__contains__, ns)
                           for ns in _chunks(lo, top)))

    def contains(self, n: int) -> bool:
        if n < 0:
            raise DomainError("membership is defined on the naturals")
        if self.window is not None and not (self.window[0] <= n <= self.window[1]):
            raise OracleRangeError(n)
        return self.test(n)

    def _ascending(self, lo: int, hi: int) -> Iterable[int]:
        """The members in [lo, hi], 0 <= lo <= hi, in ascending order, with the
        errors of asking contains(n) for n = lo, ..., hi in turn; the window is
        checked once, not per n."""
        top = hi
        if self.window is not None:
            if not self.window[0] <= lo <= self.window[1]:
                raise OracleRangeError(lo)
            top = min(hi, self.window[1])
        members = (self.scan(lo, top) if self.scan is not None
                   else filter(self.test, range(lo, top + 1)))
        return members if top == hi else _then_out_of_window(members, top + 1)

    def materialize(self, lo: int, hi: int) -> WindowSet:
        """The members in [lo, hi], with the errors of asking contains(n) for
        n = lo, ..., hi in turn; past _MEMBER_LIMIT members, a CapacityError.
        A rule pass colours a chunk at a time, so a rule error in the chunk
        that passes the limit comes first."""
        if lo > hi:
            raise DomainError(f"invalid window [{lo}, {hi}]")
        if lo < 0:
            raise DomainError("membership is defined on the naturals")
        members = frozenset(islice(self._ascending(lo, hi), _MEMBER_LIMIT + 1))
        if len(members) > _MEMBER_LIMIT:
            raise CapacityError(f"window [{lo}, {hi}] holds more than {_MEMBER_LIMIT} members")
        return _window_unchecked(lo, hi, members)


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
            modulus, residue = int(mod_s), int(res_s)
        except ValueError as exc:
            raise DomainError(f"residue spec needs residue:M:R, got {text!r}") from exc
        return SetSpec.residues(modulus, residue, window)
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
    none, inconclusive means the budget ran out first.  The complement is
    complement_of(spec), materialised: the values the spec's own pass leaves
    out, with the errors of materialize.
    """
    if kind not in ("additive", "multiplicative"):
        raise DomainError(f"kind must be additive or multiplicative, got {kind!r}")
    complement = SetSpec.complement_of(spec).materialize(*window)
    search = find_fp_seed if kind == "multiplicative" else find_fs_seed
    result = search(complement, m, caps)
    if result.status == "found":
        return IpStarVerdict(verdict="fails", witness=result.witness)
    if result.status == "none":
        return IpStarVerdict(verdict="holds")
    return IpStarVerdict(verdict="inconclusive")


def find_geometric_progressions(a: WindowSet, length: int) -> list[tuple[int, int]]:
    """All (start, ratio) with ratio >= 2 whose first `length` terms lie in a.

    Only starts up to hi / 2**(length - 1) can have a last term inside the window,
    and only ratios up to (hi / start)**(1 / (length - 1)).  Starts and ratios
    both come from `_preimage`, so start and start * ratio are members already.
    """
    if length < 2:
        raise DomainError("progression length must be >= 2")
    out = []
    for start in sorted(_preimage(a, max(a.lo, 1), a.hi >> (length - 1), _identity, _identity)):
        bound = ikth_root(a.hi // start, length - 1)
        hs = sorted(_preimage(a, 2, bound, start.__mul__, lambda x: x // start))
        out.extend((start, h) for h in hs
                   if all(start * h ** i in a.members for i in range(2, length)))
    return out


def find_power_progressions(a: WindowSet, length: int) -> list[int]:
    """All h >= 2 with h, h**2, ..., h**length all members of a.

    Only bases up to hi**(1 / length) can have h**length inside the window.
    """
    if length < 2:
        raise DomainError("progression length must be >= 2")
    bases = _preimage(a, max(a.lo, 2), ikth_root(a.hi, length), _identity, _identity)
    return [h for h in sorted(bases) if all(h ** i in a.members for i in range(2, length + 1))]


def windowset_record(a: WindowSet) -> dict:
    return {"lo": a.lo, "hi": a.hi, "members": [int_text(m) for m in sorted(a.members)]}


def verdict_record(v: IpStarVerdict) -> dict:
    rec: dict = {"verdict": v.verdict}
    if v.witness is not None:
        rec["witness"] = [int_text(x) for x in v.witness]
    return rec


def seed_result_record(r: SeedSearchResult) -> dict:
    rec: dict = {"status": r.status, "examined": r.examined}
    if r.witness is not None:
        rec["witness"] = [int_text(x) for x in r.witness]
    return rec
