"""Exact canonical arithmetic on naturals of the form root**exponent.

A value n >= 2 is kept as a single symbolic level (root, exponent) where the
root is never itself a perfect power.  That canonical form is unique, so two
forms represent the same natural exactly when their fields are equal, and
equality, hashing and total order all work for numbers far too large to
materialize.

Ordering of two forms with different roots compares exponent * log2(root)
using certified interval bounds over a shared 2**prec denominator, as
integers, with adaptive precision doubling.  Distinct canonical forms have
distinct values, so the intervals always separate at some finite precision.

Sorting does not call that exact `compare` per pair.  Each form gets the
float key log2(exponent) + log2(log2(root)), which is log2(log2(value)):
strictly increasing in the value for roots >= 2, and computable for any
exponent because math.log2 accepts ints of any size.  The computed key is
within 2**-48 * max(1, key) of the exact one.  So two forms the float order
gets wrong have keys less than 2**-47 * max(1, key) apart, and the neighbours
between them in float order are closer still.  Runs of neighbours whose
keys differ by at most tau = _KEY_TIE * max(1, key), with _KEY_TIE = 2**-44
(8x that margin), are re-sorted with the exact `compare`; every other
neighbour pair is ordered correctly by its keys.

Perfect-power detection strips exact k-th roots for prime k only.  A root
m**e with m perfect-power-free is a p-th power exactly when p divides e, and
taking roots only divides e: a root that is no p-th power never becomes one,
so no k needs a second visit, composite k never succeed, the accumulated
exponent ends maximal, and the canonical (root, exponent) does not depend on
the order in which exponents are stripped.

A root below 2**64, whether n itself or what a larger n was stripped down
to, goes to one word-size routine, which tries k = 2, 3, 5 and then k >= 7.
Before it takes a square, cube or fifth root it checks residue tables built
at import: the squares mod 64, 63 and 65 (12, 16 and 21 residues), the cubes
mod 819 = 7*9*13 (45) and the fifth powers mod 341 = 11*31 (21).  If
root = x**k then root mod m = x**k mod m is in the k-th-power table of every
m, so a root whose residue is missing from a table is no k-th power and is
skipped; about 1.5%, 5.5% and 6.2% of all residues pass the three gates.
A root that passes takes math.isqrt, round(root ** (1/3)) or
round(root ** 0.2) and is accepted only if r**k == root exactly.  The cube
and fifth roots of a value below 2**64 are below 2**22 and 2**13, inside the
float guard below (roots below 2**44 of values below 2**1023).

After k = 2, 3, 5 the root has no square, cube or fifth root, so every
exponent it still has is a prime >= 7, and one table lookup replaces the
remaining root attempts.  A k-th root of a value below 2**64 is below
2**(64/7) < 566 for every k >= 7, so _WORD_POWERS holds just the 688 values
r**k < 2**64 with k prime, 7 <= k <= 61 and r >= 2.  No two entries collide:
r**p == s**q with primes p != q >= 7 is a (p*q)-th power, at least 2**77.

From 2**64 up, the loop tries each prime k in turn until the root drops
below 2**64 or below 2**k.  Square roots come from math.isqrt; odd k-th
roots from a float guess round(n ** (1/k)), confirmed exactly by r**k == n.
The guess is used only while the root is below 2**_FLOAT_ROOT_BITS and n
converts to a float without overflow, where it is provably the exact root
of every exact k-th power (error bound derived at _FLOAT_ROOT_BITS);
`ikth_root`'s Newton iteration runs when n has more than 1023 bits or its
k-th root could reach 2**_FLOAT_ROOT_BITS.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cmp_to_key, total_ordering
from operator import itemgetter, sub

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError

LT, EQ, GT = -1, 0, 1

# Materialize both values for comparison below this bit length.
_EXPLICIT_CMP_BITS = 1 << 15
# Adaptive-precision ceiling; separation is guaranteed mathematically long
# before this, so reaching it (a CapacityError) marks a bug, not a hard input.
_MAX_CMP_PRECISION = 1 << 24
# Relative tie width of the float sort key; see the module docstring.  A key
# is A + B with A = log2(e) >= 0 and B = log2(log2(r)) >= 0.  math.log2 of
# an int rounds it to a 53-bit mantissa (ints wider than a double keep an
# exact binary exponent), so |err A| <= 2**-51 + ulp(A).  log2(r) >= 1 is
# off by a relative 2**-51 at most, which B turns into 2**-51/ln 2, so
# |err B| <= 2**-50 + ulp(B).  The sum rounds by half an ulp, and
# ulp(A), ulp(B) <= ulp(key) <= 2**-52 * key: in all, at most
# 1.4e-15 + 5.6e-16 * key < 2**-48 * max(1, key).
_KEY_TIE = 2.0 ** -44
# Float k-th roots are trusted for roots t < 2**_FLOAT_ROOT_BITS, n < 2**1023
# and k >= 3.  With x = float(n) = n(1 + d0), e = fl(1/k) = (1 + d1)/k and
# y = pow(x, e) = x**e (1 + d2), where |d0|, |d1| <= 2**-53 (correct rounding)
# and |d2| <= 2**-52 (libm pow within one ulp):
#     y = t * t**d1 * (1 + d0)**e * (1 + d2),
#     |ln(y / t)| <= |d1| ln t + e |d0| + 1.01 |d2|
#                 <= 2**-53 (B ln 2 + 1/3 + 2.02)          for t < 2**B,
# so |y - t| < t * 2**-53 (0.7 B + 2.4).  At B = 44 that is below
# 2**44 * 33.2 * 2**-53 < 2**-3.9 < 1/2, and round(y) == t for every exact
# k-th power; the r**k == n check decides the rest.  The d1 term grows with
# t: for k = 3 it alone reaches 1/2 near t = 2**48, and m**3, m**5, m**7 with
# m just below 2**48 already get wrong roots.
_FLOAT_ROOT_BITS = 44


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p in range(limit) if sieve[p])


# The exponents perfect_power tries first: all it needs for n below 2**4096,
# the default value_bit_cap.
_PRIMES = _primes_below(1 << 12)


def ikth_root(n: int, k: int) -> int:
    """Largest x with x**k <= n, for n >= 0, k >= 1 (Newton, exact)."""
    if n < 0 or k < 1:
        raise DomainError("ikth_root requires n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():
        return 1  # 2**k > n
    if k == 2:
        return math.isqrt(n)
    # Start from a power-of-two upper bound so the iteration descends.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


_WORD = 1 << 64
# {r**k: (r, k)} for prime 7 <= k < 64 and r**k < _WORD; see the module docstring.
_WORD_POWERS = {r ** k: (r, k) for k in _PRIMES if 7 <= k < 64
                for r in range(2, ikth_root(_WORD - 1, k) + 1)}


def _residues(k: int, m: int) -> bytes:
    """t with t[x % m] == 1 exactly when x % m is a k-th power mod m."""
    t = bytearray(m)
    for x in range(m):
        t[pow(x, k, m)] = 1
    return bytes(t)


# The residue gates of perfect_power's word-size routine; see the module docstring.
_SQUARES_64, _SQUARES_63, _SQUARES_65 = _residues(2, 64), _residues(2, 63), _residues(2, 65)
_CUBES_819 = _residues(3, 819)
_FIFTHS_341 = _residues(5, 341)


def _prime_exponents():
    """2, 3, 5, 7, ...: the table, then odd k with no prime factor in the table.

    Past _PRIMES[-1]**2 a composite can slip through; trying it is harmless,
    as its prime factors came first.
    """
    yield from _PRIMES
    yield from (k for k in itertools.count(_PRIMES[-1] + 2, 2) if all(k % p for p in _PRIMES))


def _exact_root(n: int, k: int) -> int | None:
    """r with r**k == n, or None; k is prime."""
    if k == 2:
        r = math.isqrt(n)
    elif n.bit_length() <= _FLOAT_ROOT_BITS * k and n.bit_length() < 1024:
        r = round(n ** (1 / k))  # the exact root whenever one exists
    else:
        r = ikth_root(n, k)
    return r if r ** k == n else None


def perfect_power(n: int) -> tuple[int, int] | None:
    """Return (m, k) with m**k == n and k maximal (k >= 2), or None.

    From 2**64 up, strips exact k-th roots for prime k = 2, 3, 5, 7, ... until
    the root drops below 2**64 or admits no further root.  A root below 2**64
    then goes to the word-size routine: squares, cubes and fifth powers, each
    root taken only for a residue in its table and confirmed by exact
    multiplication, then lookups in _WORD_POWERS for the primes from 7.  The
    accumulated exponent is maximal, which makes the root perfect-power-free;
    see the module docstring.
    """
    if n < 4:
        return None
    root, exp = n, 1
    if root >= _WORD:
        for k in _prime_exponents():
            if k >= root.bit_length():  # root < 2**k, the k-th power of 2
                return None if exp == 1 else (root, exp)
            while (r := _exact_root(root, k)) is not None:
                root, exp = r, exp * k
            if root < _WORD:
                break
    while _SQUARES_64[root & 63] and _SQUARES_63[root % 63] and _SQUARES_65[root % 65]:
        r = math.isqrt(root)
        if r * r != root:
            break
        root, exp = r, exp * 2
    while _CUBES_819[root % 819]:
        r = round(root ** (1 / 3))
        if r * r * r != root:
            break
        root, exp = r, exp * 3
    while _FIFTHS_341[root % 341]:
        r = round(root ** 0.2)
        if r ** 5 != root:
            break
        root, exp = r, exp * 5
    while (t := _WORD_POWERS.get(root)) is not None:
        root, exp = t[0], exp * t[1]
    return None if exp == 1 else (root, exp)


def is_perfect_power(n: int) -> bool:
    return perfect_power(n) is not None


@total_ordering
@dataclass(frozen=True, slots=True)
class PowerForm:
    """Canonical root**exponent with a perfect-power-free root >= 2."""

    root: int
    exponent: int

    def __post_init__(self):
        if not isinstance(self.root, int) or not isinstance(self.exponent, int):
            raise DomainError("PowerForm fields must be integers")
        if self.root < 2:
            raise DomainError(f"PowerForm root must be >= 2, got {self.root}")
        if self.exponent < 1:
            raise DomainError(f"PowerForm exponent must be >= 1, got {self.exponent}")
        if is_perfect_power(self.root):
            raise DomainError(f"PowerForm root {self.root} is a perfect power")

    def __lt__(self, other) -> bool:
        if not isinstance(other, PowerForm):
            return NotImplemented
        return compare(self, other) == LT

    def __repr__(self) -> str:
        return f"PowerForm({self.root}, {self.exponent})"

    def __str__(self) -> str:
        root = int_text(self.root)
        return root if self.exponent == 1 else f"{root}^{int_text(self.exponent)}"


# The slot descriptors' setters, which skip the frozen __setattr__ and its checks.
_set_root, _set_exponent = PowerForm.root.__set__, PowerForm.exponent.__set__


def _canonical(root: int, exponent: int) -> PowerForm:
    """A PowerForm built without checks, for a root the caller made canonical."""
    form = object.__new__(PowerForm)
    _set_root(form, root)
    _set_exponent(form, exponent)
    return form


def normalize(n: int, caps: Caps = DEFAULT_CAPS) -> PowerForm:
    """Canonical power form of an explicit natural n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"normalize requires an integer >= 2, got {n!r}")
    if n.bit_length() > caps.value_bit_cap:
        raise CapacityError(
            f"input bit length {n.bit_length()} exceeds value_bit_cap {caps.value_bit_cap}"
        )
    root, exp = perfect_power(n) or (n, 1)
    return _canonical(root, exp)


def _value_bits_bounds(a: PowerForm) -> tuple[int, int]:
    """Certified [lo, hi] range for the bit length of a's value."""
    bl = a.root.bit_length()
    return a.exponent * (bl - 1) + 1, a.exponent * bl


def try_evaluate(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> int | None:
    """The explicit value of a, or None if it exceeds value_bit_cap."""
    return _try_value(a.root, a.exponent, caps.value_bit_cap)


def _try_value(root: int, exponent: int, bit_cap: int) -> int | None:
    """root**exponent, or None if it has more than bit_cap bits."""
    if exponent * (root.bit_length() - 1) + 1 > bit_cap:  # its fewest possible bits
        return None
    v = root ** exponent  # at most 2 * bit_cap bits here, cheap to materialize
    return v if v.bit_length() <= bit_cap else None


def evaluate(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> int:
    """Materialize a's value; capacity error beyond value_bit_cap."""
    v = try_evaluate(a, caps)
    if v is None:
        raise CapacityError(
            f"value of {a} exceeds value_bit_cap {caps.value_bit_cap}"
        )
    return v


def power(a: PowerForm, b: PowerForm, caps: Caps = DEFAULT_CAPS) -> PowerForm:
    """Canonical form of a**value(b); b must be explicitly evaluable."""
    vb = try_evaluate(b, caps)
    if vb is None:
        raise CapacityError("symbolic exponent unsupported")
    new_exp = a.exponent * vb
    if new_exp.bit_length() > caps.exp_bit_cap:
        raise CapacityError(
            f"result exponent bit length {new_exp.bit_length()} exceeds "
            f"exp_bit_cap {caps.exp_bit_cap}"
        )
    return _canonical(a.root, new_exp)


def _log2_bounds(r: int, prec: int) -> tuple[int, int]:
    """Certified bounds lo <= 2**prec * log2(r) <= hi with hi - lo ~ 2.

    Squares r `prec` times keeping an s-bit mantissa with outward rounding,
    then reads the binary logarithm off the bit length: for the final bounds
    L <= r**(2**prec) <= H, log2 L >= bitlen(L) - 1 and log2 H <= bitlen(H).
    """
    s = prec + 16
    lo_m = hi_m = r
    lo_e = hi_e = 0
    for _ in range(prec):
        lo_m *= lo_m
        lo_e *= 2
        hi_m *= hi_m
        hi_e *= 2
        ls = lo_m.bit_length() - s
        if ls > 0:
            lo_m >>= ls
            lo_e += ls
        hs = hi_m.bit_length() - s
        if hs > 0:
            hi_m = -((-hi_m) >> hs)  # ceil shift keeps the upper bound valid
            hi_e += hs
    return lo_m.bit_length() - 1 + lo_e, hi_m.bit_length() + hi_e


def compare(a: PowerForm, b: PowerForm) -> int:
    """Total order by value: LT, EQ or GT.  EQ iff canonical forms equal."""
    if a.root == b.root:
        if a.exponent == b.exponent:
            return EQ
        return LT if a.exponent < b.exponent else GT
    lo_a, hi_a = _value_bits_bounds(a)
    lo_b, hi_b = _value_bits_bounds(b)
    if lo_a > hi_b:
        return GT
    if lo_b > hi_a:
        return LT
    if hi_a <= _EXPLICIT_CMP_BITS and hi_b <= _EXPLICIT_CMP_BITS:
        # distinct canonical roots: the values differ
        return LT if a.root ** a.exponent < b.root ** b.exponent else GT
    prec = 32
    while prec <= _MAX_CMP_PRECISION:
        # both logs are bounded over the same 2**prec denominator
        ra_lo, ra_hi = _log2_bounds(a.root, prec)
        rb_lo, rb_hi = _log2_bounds(b.root, prec)
        if a.exponent * ra_hi < b.exponent * rb_lo:
            return LT
        if b.exponent * rb_hi < a.exponent * ra_lo:
            return GT
        prec <<= 1
    raise CapacityError(f"comparison precision exhausted for {a} vs {b}")


def sorted_forms(forms) -> list[PowerForm]:
    """Ascending value order (canonical forms, so the order is strict).

    Sorts by the float key of the module docstring and settles only runs of
    near-tied keys with the exact `compare`.  The runs come from the gaps
    between neighbouring keys in one pass, each gap held against the tau of
    the largest key: keys are >= 0 and ascending, so that tau bounds every
    per-key tau, and a run can only be longer than the per-key one.
    """
    loglog = {}  # root -> log2(log2(root)), shared by every form of a root
    keyed = []
    for f in forms:
        lr = loglog.get(f.root)
        if lr is None:
            lr = loglog[f.root] = math.log2(math.log2(f.root))
        keyed.append((math.log2(f.exponent) + lr, f))
    keyed.sort(key=itemgetter(0))
    keys = list(map(itemgetter(0), keyed))
    out = list(map(itemgetter(1), keyed))
    if not out:
        return out
    tau = _KEY_TIE * max(1.0, keys[-1])
    start = stop = 0  # the run out[start:stop]; out[g] and out[g + 1] share a run
    for g in itertools.compress(itertools.count(), map(tau.__ge__, map(sub, keys[1:], keys))):
        if g >= stop:
            _settle_ties(out, start, stop)
            start = g
        stop = g + 2
    _settle_ties(out, start, stop)
    return out


def _settle_ties(out: list[PowerForm], start: int, stop: int) -> None:
    """Exactly order out[start:stop], a run of near-tied float keys."""
    if stop - start > 1:
        out[start:stop] = sorted(out[start:stop], key=cmp_to_key(compare))


def int_text(x: int) -> str:
    """x in decimal, for a record or a message.

    A decimal past the interpreter's int-to-str digit limit is a CapacityError
    that names x's bit length.
    """
    try:
        return str(x)
    except ValueError:
        raise CapacityError(f"a {x.bit_length()}-bit integer has more decimal digits than the "
                            f"int-to-str limit of {sys.get_int_max_str_digits()}") from None


def powerform_record(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> dict:
    """JSON record with exact decimal strings; "value" is null when symbolic."""
    return _form_record(a, try_evaluate(a, caps))


def _form_record(a: PowerForm, v: int | None) -> dict:
    """`powerform_record` of a, given its value v (None when symbolic)."""
    return {
        "root": int_text(a.root),
        "exp": int_text(a.exponent),
        "value": int_text(v) if v is not None else None,
    }


def _record_int(value) -> int:
    """An integer field of an input record: an int (not a bool) or a decimal string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise DomainError(f"expected an integer or a decimal string, got {value!r}")


def _powerform_fields(rec: dict) -> tuple[int, int]:
    """The (root, exp) integers of a PowerForm record, not yet checked as a form."""
    try:
        return _record_int(rec["root"]), _record_int(rec["exp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed PowerForm record: {rec!r}") from exc


def _check_record_caps(root: int, exp: int, caps: Caps, what: str) -> None:
    """Refuse a record's root or exponent past the caps, before the
    perfect-power test and the comparisons that wide values make slow."""
    if root.bit_length() > caps.value_bit_cap:
        raise CapacityError(f"{what} root of {root.bit_length()} bits "
                            f"exceeds value_bit_cap {caps.value_bit_cap}")
    if exp.bit_length() > caps.exp_bit_cap:
        raise CapacityError(f"{what} exponent of {exp.bit_length()} bits "
                            f"exceeds exp_bit_cap {caps.exp_bit_cap}")


def powerform_from_record(rec: dict, caps: Caps = DEFAULT_CAPS) -> PowerForm:
    """A checked PowerForm record; a root or exponent past the caps is a CapacityError."""
    root, exp = _powerform_fields(rec)
    _check_record_caps(root, exp, caps, "PowerForm")
    return PowerForm(root, exp)


def vertex_label(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> str:
    """Decimal string when evaluable, else "root^exp"."""
    return _form_label(a, try_evaluate(a, caps))


def _form_label(a: PowerForm, v: int | None) -> str:
    """`vertex_label` of a, given its value v (None when symbolic)."""
    return int_text(v) if v is not None else f"{int_text(a.root)}^{int_text(a.exponent)}"
