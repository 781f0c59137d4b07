"""Oracle-driven finite constructions of tower-friendly sequences.

greedy_fe1/greedy_fe2 run the least-element recurrence: x_0 is the least
member of A above 1, and each x_{i+1} is the least member above x_i that
keeps the next tower level inside A (for type I: j**x_{i+1} in A for every
base j in [2, N_i], N_i the largest element of the current level; for type
II: x_{i+1}**y in A for every existing element y).  The classical existence
arguments behind such sequences are non-constructive; here every choice is
the deterministic least element, so outputs are unique for fixed inputs.

search_fegen1/search_fegen2 look for block sequences over a finite carrier
prefix y: disjoint, increasing index blocks H_0 < H_1 < ... whose sums
(resp. products) x_j satisfy, for every non-empty F of chosen indices and
every exponent t up to f(prefix before min F), t**(sum over F) in A (resp.
(product over F)**t in A).  All successes are re-verified exhaustively
before being returned.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError, OracleRangeError, message_int
from .ipsets import SetSpec
from .structures import FeLevel, fe1, fe2, fs, fp, max_element_value, validate_seeds
from .tower import PowerForm, evaluate, int_text, powerform_record

# Bit-length ceiling for integers materialized only to ask an oracle about.
_MEMBERSHIP_BIT_LIMIT = 1 << 22
# Largest type-I level maximum N_i whose bases [2, N_i] a greedy step sweeps.
_GREEDY_BASE_LIMIT = 1_000_000
# Block searches: most indices per block, and longest carrier prefix.
_BLOCK_SIZE_LIMIT = 4
_BLOCK_INDEX_LIMIT = 32


class _SearchBudget(Exception):
    pass


@dataclass(frozen=True)
class GreedyFailure:
    step: int
    reason: str  # "no x_0" | "empty intersection" | "oracle range" | "capacity"
    detail: str = ""


@dataclass(frozen=True)
class FeCertificate:
    """A fully verified tower level inside the oracle set."""

    kind: str  # fe1 | fe2
    seeds: tuple[int, ...]
    depth: int
    checked: tuple[tuple[PowerForm, bool], ...]  # every level element, ascending


def _safe_pow(base: int, exp: int) -> int:
    if exp * base.bit_length() > _MEMBERSHIP_BIT_LIMIT:
        raise CapacityError(
            f"{message_int(base)}**{message_int(exp)} too large for a membership query")
    return base ** exp


def _certify(spec: SetSpec, seeds, depth: int, kind: str, caps: Caps):
    try:
        level = (fe1 if kind == "fe1" else fe2)(seeds, depth, caps)
    except CapacityError as exc:
        return GreedyFailure(step=depth, reason="capacity", detail=str(exc))
    if level.dropped_count > 0:
        return GreedyFailure(step=depth, reason="capacity",
                             detail=f"{level.dropped_count} tower elements dropped")
    checked = []
    for pf in level.elements:
        try:
            value = evaluate(pf, caps)
            member = spec.contains(value)
        except (CapacityError, OracleRangeError):
            return GreedyFailure(step=depth, reason="oracle range", detail=str(pf))
        if not member:
            return GreedyFailure(step=depth, reason="empty intersection",
                                 detail=f"{pf} not in A")
        checked.append((pf, True))
    return FeCertificate(kind=kind, seeds=tuple(seeds), depth=depth, checked=tuple(checked))


def verify_fe_certificate(spec: SetSpec, cert: FeCertificate, caps: Caps = DEFAULT_CAPS) -> bool:
    """Recompute the certificate from its seeds; False unless it comes out the same."""
    try:
        again = _certify(spec, cert.seeds, cert.depth, cert.kind, caps)
    except (DomainError, CapacityError):
        return False
    return isinstance(again, FeCertificate) and again.checked == cert.checked


def _greedy_fe(
    spec: SetSpec, depth: int, window: tuple[int, int], caps: Caps, kind: str
) -> FeCertificate | GreedyFailure:
    """The least-element recurrence of either type; see greedy_fe1/greedy_fe2.

    Step 0 picks x_0, the least member in the window above 1.  A later step
    i differs by kind only in its queries for a candidate m: type I asks
    j**m for j in [2, N_i], type II asks m**y for y in the level's values.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    type_one = kind == "fe1"
    lo, hi = window
    xs: list[int] = []
    for step in range(depth + 1):
        others = ()
        if step:
            try:
                level = (fe1 if type_one else fe2)(xs, step - 1, caps)
            except CapacityError as exc:
                return GreedyFailure(step=step, reason="capacity", detail=str(exc))
            try:
                if type_one:
                    n_i = max_element_value(level, caps)
                    others = range(2, n_i + 1)
                else:
                    others = [evaluate(pf, caps) for pf in level.elements]
            except CapacityError:
                what = "maximum" if type_one else "element"
                return GreedyFailure(step=step, reason="oracle range",
                                     detail=f"level {what} not evaluable")
            if type_one and n_i > _GREEDY_BASE_LIMIT:
                return GreedyFailure(
                    step=step, reason="capacity",
                    detail=f"level maximum {message_int(n_i)} exceeds greedy_base_limit")
        start = xs[-1] + 1 if xs else max(lo, 2)
        try:
            chosen = next((m for m in range(start, hi + 1) if spec.contains(m) and all(
                spec.contains(_safe_pow(o, m) if type_one else _safe_pow(m, o))
                for o in others)), None)
        except OracleRangeError as exc:
            return GreedyFailure(step=step, reason="oracle range", detail=message_int(exc.value))
        except CapacityError as exc:
            return GreedyFailure(step=step, reason="capacity", detail=str(exc))
        if chosen is None:
            return GreedyFailure(step=step,
                                 reason="empty intersection" if step else "no x_0")
        xs.append(chosen)
    return _certify(spec, xs, depth, kind, caps)


def greedy_fe1(
    spec: SetSpec, depth: int, window: tuple[int, int], caps: Caps = DEFAULT_CAPS
) -> FeCertificate | GreedyFailure:
    """Least-element type-I recurrence inside the window, fully certified."""
    return _greedy_fe(spec, depth, window, caps, "fe1")


def greedy_fe2(
    spec: SetSpec, depth: int, window: tuple[int, int], caps: Caps = DEFAULT_CAPS
) -> FeCertificate | GreedyFailure:
    """Least-element type-II recurrence: x_{i+1}**y stays in A for current y."""
    return _greedy_fe(spec, depth, window, caps, "fe2")


@dataclass(frozen=True)
class GreedyState:
    """A successful block choice: x values, index blocks, per-step f values."""

    chosen: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    level_max: tuple[int, ...]
    f_spec: str
    window: tuple[int, int] | None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # success | failure | inconclusive
    state: GreedyState | None = None
    explored: int = 0
    reason: str = ""


def _parse_f_spec(f_spec: str, multiplicative: bool) -> tuple[str, int]:
    allowed_max = "max-fe2" if multiplicative else "max-fe1"
    if f_spec == allowed_max:
        return ("max", 0)
    head, sep, rest = f_spec.partition(":")
    if head == "constant" and sep:
        try:
            c = int(rest)
        except ValueError as exc:
            raise DomainError(f"bad constant in f_spec {f_spec!r}") from exc
        if c < 1:
            raise DomainError("constant f value must be >= 1")
        return ("constant", c)
    raise DomainError(f"f_spec must be constant:C or {allowed_max}, got {f_spec!r}")


def _f_value(mode: tuple[str, int], prefix: tuple[int, ...], multiplicative: bool,
             caps: Caps) -> int | None:
    """f(prefix); None when the max-tower choice is undefined on this prefix."""
    if mode[0] == "constant":
        return mode[1]
    if not prefix:
        return 1  # vacuous exponent range for blocks containing index 0
    try:
        gen = fe2 if multiplicative else fe1
        return max_element_value(gen(prefix, len(prefix) - 1, caps), caps)
    except (DomainError, CapacityError):
        return None


def _combine(values, indices, multiplicative: bool) -> int:
    """Sum (additive) or product (multiplicative) of values[i] over indices."""
    # loops: sum and math.prod over a generator take about 2.5x as long here
    if multiplicative:
        v = 1
        for i in indices:
            v *= values[i]
        return v
    v = 0
    for i in indices:
        v += values[i]
    return v


def _subset_values(xs, base: int, multiplicative: bool) -> list[int]:
    """values[mask]: base times (or plus) xs[i] for each set bit i of mask, by doubling."""
    values = [base]
    for x in xs:
        values += [v * x for v in values] if multiplicative else [v + x for v in values]
    return values


def _families_hold(spec: SetSpec, xs, level_max, multiplicative: bool) -> bool:
    """Check every family F of indices whose largest is the last one of xs.

    With v the sum (or product, if multiplicative) of xs over F and l the
    level_max of min F: t**v in A for t in [2, l], or v**t in A for t in [1, l].
    Families come in mask order (bit i of the mask puts index i < j in F).
    v combines an entry of a table over the low half of those indices with
    one over the high half and j, so the tables hold about 2**(j/2) values
    each where one table over all of them would hold 2**j.
    """
    j = len(xs) - 1
    half = j // 2
    low = _subset_values(xs[:half], 1 if multiplicative else 0, multiplicative)
    high = _subset_values(xs[half:j], xs[j], multiplicative)
    first = 1 if multiplicative else 2
    mask = 0
    for hv in high:
        for lv in low:
            v = hv * lv if multiplicative else hv + lv
            least = (mask & -mask).bit_length() - 1 if mask else j
            for t in range(first, level_max[least] + 1):
                if not spec.contains(_safe_pow(v, t) if multiplicative else _safe_pow(t, v)):
                    return False
            mask += 1
    return True


def _block_candidates(n: int) -> list[tuple[int, ...]]:
    """Every block of up to _BLOCK_SIZE_LIMIT indices below n, in lexicographic
    order, so the blocks whose least index is s or more form a suffix."""
    combos = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, _BLOCK_SIZE_LIMIT + 1)
    )
    return sorted(combos)


def _search_blocks(
    spec: SetSpec,
    ys: tuple[int, ...],
    f_spec: str,
    steps: int,
    caps: Caps,
    multiplicative: bool,
) -> SearchOutcome:
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not ys or not all(isinstance(v, int) and v >= 1 for v in ys):
        raise DomainError("carrier prefix must be positive integers")
    if len(ys) > _BLOCK_INDEX_LIMIT:
        raise CapacityError(
            f"carrier prefix length {len(ys)} exceeds block_index_limit {_BLOCK_INDEX_LIMIT}"
        )
    mode = _parse_f_spec(f_spec, multiplicative)
    candidates = _block_candidates(len(ys))
    # values[i]: the sum (or product) of ys over candidates[i], computed the
    # first time a frame reaches that block, so once per search
    values: list[int | None] = [None] * len(candidates)
    explored = 0
    undecidable = 0

    def dfs(blocks: list[tuple[int, ...]], xs: list[int], level_max: list[int]):
        nonlocal explored, undecidable
        if len(blocks) == steps:
            return GreedyState(
                chosen=tuple(xs),
                blocks=tuple(blocks),
                level_max=tuple(level_max),
                f_spec=f_spec,
                window=spec.window,
            )
        start = blocks[-1][-1] + 1 if blocks else 0
        f_j = _f_value(mode, tuple(xs), multiplicative, caps)
        if f_j is None:
            undecidable += 1
            return None
        # Within this frame the verdict depends on x_j alone, and many blocks
        # share a value: ask once per value (None: undecidable).
        verdicts: dict[int, bool | None] = {}
        for i in range(bisect.bisect_left(candidates, (start,)), len(candidates)):
            explored += 1
            if explored > caps.search_budget:
                raise _SearchBudget()
            block, x_j = candidates[i], values[i]
            if x_j is None:
                x_j = values[i] = _combine(ys, block, multiplicative)
            if x_j in verdicts:
                ok = verdicts[x_j]
            else:
                try:
                    ok = _families_hold(spec, xs + [x_j], level_max + [f_j], multiplicative)
                except (OracleRangeError, CapacityError):
                    ok = None
                verdicts[x_j] = ok
            if ok is None:
                undecidable += 1
                continue
            if not ok:
                continue
            got = dfs(blocks + [block], xs + [x_j], level_max + [f_j])
            if got is not None:
                return got
        return None

    try:
        state = dfs([], [], [])
    except _SearchBudget:
        return SearchOutcome(status="inconclusive", explored=explored,
                             reason="budget exhausted")
    if state is None:
        if undecidable:
            return SearchOutcome(status="inconclusive", explored=explored,
                                 reason=f"oracle range on {undecidable} candidates")
        return SearchOutcome(status="failure", explored=explored,
                             reason="no valid block choice")
    _verify_state(spec, ys, state, mode, caps, multiplicative)
    return SearchOutcome(status="success", state=state, explored=explored)


def _verify_state(spec, ys, state: GreedyState, mode, caps, multiplicative: bool):
    """Exhaustive independent re-check of a successful block choice."""
    m = len(state.blocks)
    for prev, cur in zip(state.blocks, state.blocks[1:]):
        if min(cur) <= max(prev):
            raise AssertionError("blocks violate the increasing-index discipline")
    for j, block in enumerate(state.blocks):
        if _combine(ys, block, multiplicative) != state.chosen[j]:
            raise AssertionError("chosen value disagrees with its block")
        expect_f = _f_value(mode, state.chosen[:j], multiplicative, caps)
        if expect_f != state.level_max[j]:
            raise AssertionError("recorded f value disagrees with recomputation")
    for j in range(1, m + 1):
        if not _families_hold(spec, state.chosen[:j], state.level_max[:j], multiplicative):
            raise AssertionError("success state fails its own conditions")


def search_fegen1(
    spec: SetSpec, ys, f_spec: str, steps: int, *, caps: Caps = DEFAULT_CAPS
) -> SearchOutcome:
    """Additive block search: t**(sum over F) in A for t in [2, f(prefix)]."""
    return _search_blocks(spec, tuple(ys), f_spec, steps, caps, multiplicative=False)


def search_fegen2(
    spec: SetSpec, ys, f_spec: str, steps: int, *, caps: Caps = DEFAULT_CAPS
) -> SearchOutcome:
    """Multiplicative block search: (product over F)**t in A for t in [1, f(prefix)]."""
    return _search_blocks(spec, tuple(ys), f_spec, steps, caps, multiplicative=True)


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str  # holds | fails | inconclusive
    violator: str | None = None


@dataclass(frozen=True)
class FecorReport:
    checks: tuple[CheckReport, ...]

    def all_hold(self) -> bool:
        return all(c.verdict == "holds" for c in self.checks)


def _containment_check(spec: SetSpec, name: str, values) -> CheckReport:
    """Ask about values() in order: the first non-member fails the check, and a
    CapacityError or OracleRangeError met before one makes it inconclusive."""
    try:
        violator = next(itertools.filterfalse(spec.contains, values()), None)
    except (OracleRangeError, CapacityError) as exc:
        return CheckReport(name=name, verdict="inconclusive", violator=str(exc))
    if violator is None:
        return CheckReport(name=name, verdict="holds")
    return CheckReport(name=name, verdict="fails", violator=int_text(violator))


def _level_values(level: FeLevel, caps: Caps):
    """The level's values, ascending, evaluated lazily; a dropped element is a CapacityError."""
    if level.dropped_count:
        raise CapacityError(f"{level.dropped_count} tower elements dropped")
    return (evaluate(pf, caps) for pf in level.elements)


def verify_fecor(
    spec: SetSpec,
    xs,
    ys,
    depth: int,
    caps: Caps = DEFAULT_CAPS,
) -> FecorReport:
    """Check FS(X), fe1(X, depth), FP(Y), fe2(Y, depth) against the oracle."""
    x_seq = validate_seeds(xs, depth)
    y_seq = validate_seeds(ys, depth)
    return FecorReport(checks=(
        _containment_check(spec, "FS(X)", lambda: sorted(fs(x_seq))),
        _containment_check(spec, "FE1(X)", lambda: _level_values(fe1(x_seq, depth, caps), caps)),
        _containment_check(spec, "FP(Y)", lambda: sorted(fp(y_seq, caps))),
        _containment_check(spec, "FE2(Y)", lambda: _level_values(fe2(y_seq, depth, caps), caps)),
    ))


def certificate_record(cert: FeCertificate, caps: Caps = DEFAULT_CAPS) -> dict:
    return {
        "status": "success",
        "kind": cert.kind,
        "X": [int_text(x) for x in cert.seeds],
        "depth": cert.depth,
        "certificate": [
            {"element": powerform_record(pf, caps), "member": flag}
            for pf, flag in cert.checked
        ],
    }


def failure_record(f: GreedyFailure) -> dict:
    rec = {"status": "failure", "step": f.step, "reason": f.reason}
    if f.detail:
        rec["detail"] = f.detail
    return rec


def state_record(state: GreedyState) -> dict:
    return {
        "x": [int_text(v) for v in state.chosen],
        "blocks": state.blocks,
        "level_max": [int_text(v) for v in state.level_max],
        "f_spec": state.f_spec,
        "window": state.window or None,
    }


def outcome_record(outcome: SearchOutcome) -> dict:
    rec: dict = {"status": outcome.status, "explored": outcome.explored}
    if outcome.state is not None:
        rec["state"] = state_record(outcome.state)
    if outcome.reason:
        rec["reason"] = outcome.reason
    return rec


def fecor_record(report: FecorReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "verdict": c.verdict,
             **({"violator": c.violator} if c.violator is not None else {})}
            for c in report.checks
        ],
        "all_hold": report.all_hold(),
    }
