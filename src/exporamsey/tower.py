"""Exact canonical arithmetic on naturals of the form root**exponent.

A value n >= 2 is kept as a single symbolic level (root, exponent) where the
root is never itself a perfect power.  That canonical form is unique, so two
forms represent the same natural exactly when their fields are equal, and
equality, hashing and total order all work for numbers far too large to
materialize.

Ordering of two forms with different roots compares exponent * log2(root)
using exact rational interval bounds with adaptive precision doubling.
Distinct canonical forms have distinct values, so the intervals always
separate at some finite precision.

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

Perfect-power detection tries prime exponents k only and takes each k-th
root from a float guess round(n ** (1/k)), confirmed exactly by r**k == n.
The guess is used only while the root is below 2**_FLOAT_ROOT_BITS and n
converts to a float without overflow, where it is provably the exact root
of every exact k-th power (error bound derived at _FLOAT_ROOT_BITS).  Square
roots come from math.isqrt; `ikth_root`'s Newton iteration still runs for
odd k when n has more than 1023 bits or its k-th root could reach
2**_FLOAT_ROOT_BITS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from operator import itemgetter

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError

LT, EQ, GT = -1, 0, 1

# Materialize both values for comparison below this bit length.
_EXPLICIT_CMP_BITS = 1 << 15
# Adaptive-precision ceiling; separation is guaranteed mathematically long
# before this, so hitting it indicates a bug rather than a hard input.
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
    if k == 2:
        return math.isqrt(n)
    # Start from a power-of-two upper bound so the iteration descends.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


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

    Repeatedly strips exact k-th roots for prime k = 2, 3, 5, 7, ... until
    the remaining root admits none; the accumulated exponent is then maximal,
    which makes the root automatically perfect-power-free.  A root that is
    no p-th power never becomes one by taking further roots, so no k needs
    a second visit and composite k never succeed.
    """
    if n < 4:
        return None
    root, exp = n, 1
    for k in _prime_exponents():
        if k >= root.bit_length():  # root < 2**k, the k-th power of 2
            break
        while (r := _exact_root(root, k)) is not None:
            root, exp = r, exp * k
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
        return str(self.root) if self.exponent == 1 else f"{self.root}^{self.exponent}"


def _canonical(root: int, exponent: int) -> PowerForm:
    """A PowerForm built without checks, for a root the caller made canonical."""
    form = object.__new__(PowerForm)
    object.__setattr__(form, "root", root)
    object.__setattr__(form, "exponent", exponent)
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
    lo, hi = _value_bits_bounds(a)
    if lo > caps.value_bit_cap:
        return None
    v = a.root ** a.exponent  # hi <= 2 * cap here, cheap to materialize
    return v if v.bit_length() <= caps.value_bit_cap else None


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


def _log2_bounds(r: int, prec: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= log2(r) <= hi with width ~ 2**(1-prec).

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
    scale = 1 << prec
    return (
        Fraction(lo_m.bit_length() - 1 + lo_e, scale),
        Fraction(hi_m.bit_length() + hi_e, scale),
    )


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
        va = a.root ** a.exponent
        vb = b.root ** b.exponent
        if va < vb:
            return LT
        if va > vb:
            return GT
        return EQ  # unreachable for canonical forms with distinct roots
    prec = 32
    while prec <= _MAX_CMP_PRECISION:
        ra_lo, ra_hi = _log2_bounds(a.root, prec)
        rb_lo, rb_hi = _log2_bounds(b.root, prec)
        if a.exponent * ra_hi < b.exponent * rb_lo:
            return LT
        if b.exponent * rb_hi < a.exponent * ra_lo:
            return GT
        prec <<= 1
    raise ArithmeticError(f"comparison precision exhausted for {a} vs {b}")


def sorted_forms(forms) -> list[PowerForm]:
    """Ascending value order (canonical forms, so the order is strict).

    Sorts by the float key of the module docstring and settles only runs of
    near-tied keys with the exact `compare`.
    """
    loglog = {}  # root -> log2(log2(root)), shared by every form of a root
    keyed = []
    for f in forms:
        lr = loglog.get(f.root)
        if lr is None:
            lr = loglog[f.root] = math.log2(math.log2(f.root))
        keyed.append((math.log2(f.exponent) + lr, f))
    keyed.sort(key=itemgetter(0))
    out = []
    start = 0
    prev = 0.0
    for i, (key, f) in enumerate(keyed):
        if i and key - prev > _KEY_TIE * max(1.0, key):
            _settle_ties(out, start, i)
            start = i
        out.append(f)
        prev = key
    _settle_ties(out, start, len(out))
    return out


def _settle_ties(out: list[PowerForm], start: int, stop: int) -> None:
    """Exactly order out[start:stop], a run of near-tied float keys."""
    if stop - start > 1:
        out[start:stop] = sorted(out[start:stop], key=cmp_to_key(compare))


def powerform_record(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> dict:
    """JSON record with exact decimal strings; "value" is null when symbolic."""
    v = try_evaluate(a, caps)
    return {
        "root": str(a.root),
        "exp": str(a.exponent),
        "value": str(v) if v is not None else None,
    }


def _record_int(value) -> int:
    """An integer field of an input record: an int (not a bool) or a decimal string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise DomainError(f"expected an integer or a decimal string, got {value!r}")


def powerform_from_record(rec: dict) -> PowerForm:
    try:
        root = _record_int(rec["root"])
        exp = _record_int(rec["exp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed PowerForm record: {rec!r}") from exc
    return PowerForm(root, exp)


def vertex_label(a: PowerForm, caps: Caps = DEFAULT_CAPS) -> str:
    """Decimal string when evaluable, else "root^exp"."""
    v = try_evaluate(a, caps)
    return str(v) if v is not None else f"{a.root}^{a.exponent}"
