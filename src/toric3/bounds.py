"""Closed-form zero-count and code-distance bounds, evaluated exactly.

Integer-valued bounds use exact integer arithmetic throughout; the
floor(2 sqrt(q)) term is isqrt(4q).  Real-valued thresholds (alpha, beta,
the Cor 6.2 q_min) are evaluated at 50 digits in a private mpmath
context, which leaves the caller's mpmath.mp alone, and reported both as
reals and as the smallest prime power at or above them.

Every report carries explicit hypothesis flags (e.g. characteristic
bounds) instead of refusing to compute when a hypothesis is unmet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

import mpmath

from .gfq import factor_prime_power

_mp = mpmath.MPContext()
_mp.dps = 50


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: object  # int, Fraction, or mpmath float
    hypotheses: tuple = ()  # pairs (flag description, met: bool or None)
    inputs: tuple = ()      # pairs (name, value) echoed for the record


def floor_2sqrt(q):
    """floor(2 sqrt(q)) as an exact integer."""
    return isqrt(4 * q)


def is_prime_power(n):
    try:
        return bool(factor_prime_power(n))
    except ValueError:
        return False


def char_of(q):
    return factor_prime_power(q)[0]


def next_prime_power(x):
    """Smallest prime power >= x (x may be real)."""
    n = int(_mp.ceil(x)) if not isinstance(x, int) else x
    n = max(n, 2)
    while not is_prime_power(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# per-class bounds on N_f (L = 1 summand classes)

_SPECIAL = {
    "segment": lambda q: (q - 1) ** 2,
    "unit_triangle": lambda q: (q - 1) * (q - 2),
    "unit_3simplex": lambda q: (q - 1) ** 2 - q + 2,
    "T0": lambda q: (q - 1) * (q + floor_2sqrt(q) - 2),
    "S2": lambda q: (q - 1) ** 2 + 2,
    "E": lambda q: (q - 1) ** 2 + 3,
    "K1": lambda q: (q - 1) ** 2 + 2 * q + 2,
    "K2": lambda q: (q - 1) ** 2 + 3 * q + 2,
}

_SPECIAL_CHAR23 = {"T0", "K1", "K2"}


def special_bound(cls, q, report=False):
    """Upper bound on N_f for Newton polytopes in the named L = 1 class."""
    if cls not in _SPECIAL:
        raise ValueError(f"unknown class {cls!r}")
    value = _SPECIAL[cls](q)
    if not report:
        return value
    hyps = ()
    if cls in _SPECIAL_CHAR23:
        hyps = (("char not in {2,3}", char_of(q) not in (2, 3)),)
    return BoundReport(f"special[{cls}]", value, hyps, (("q", q),))


def width_one_bound(vol3, vol2_0, vol2_1, n0, n1, q):
    """(q-1)^2 + (Vol3 - Vol2(P0) - Vol2(P1)) q - N0 - N1 for width-one
    Newton polytopes split as f = f_0 + z f_1 without common factors."""
    if min(vol3, vol2_0, vol2_1, n0, n1) < 0:
        raise ValueError("inputs must be nonnegative")
    return (q - 1) ** 2 + (vol3 - vol2_0 - vol2_1) * q - n0 - n1


def finite_class_bound(vol3, f_count, q):
    """(q-1)^2 + (Vol3 - F/2) q + F/2 with F the facet count; exact
    rational when F is odd."""
    if f_count < 4 or vol3 < 1:
        raise ValueError("need F >= 4 and Vol3 >= 1")
    half_f = Fraction(f_count, 2)
    value = (q - 1) ** 2 + (vol3 - half_f) * q + half_f
    return int(value) if value.denominator == 1 else value


def dps_volume_bound(vol3, q):
    """(q-1)^2 + (Vol3 - 2) q + 2 for 3-dimensional L = 1 polytopes."""
    if vol3 < 1:
        raise ValueError("need Vol3 >= 1")
    return (q - 1) ** 2 + (vol3 - 2) * q + 2


def maxa_bound(L, k, q, vol3=None, has_T0_factor=False):
    """Bound on N_f by the number k of factors with 4 or more monomials."""
    if not 0 <= k <= L:
        raise ValueError("need 0 <= k <= L")
    base = L * (q - 1) ** 2
    if k == 0:
        return base
    if k == 1:
        if has_T0_factor:
            return base + (q - 1) * (floor_2sqrt(q) - 1)
        if vol3 is None:
            raise ValueError("k=1 without a T0 factor needs vol3")
        return base + (vol3 - 3 * L + 1) * q + 2
    if k == 2:
        return base + 2 * (q - 1) * (floor_2sqrt(q) - 1)
    return base + 2 * k + 1


def cmax_threshold(L, vol3):
    """(c, q_min) with c = (Vol3 - 3L + 3)/8 and q_min = (c+sqrt(c^2+1))^2,
    the threshold above which the k = 2 case dominates."""
    if L < 1 or vol3 < 1:
        raise ValueError("need L, Vol3 >= 1")
    c = Fraction(vol3 - 3 * L + 3, 8)
    cm = _mp.mpf(c.numerator) / c.denominator
    q_min = (cm + _mp.sqrt(cm * cm + 1)) ** 2
    return c, q_min


def cmax_bound(L, q):
    """L (q-1)^2 + 2 (q-1)(floor(2 sqrt q) - 1)."""
    return L * (q - 1) ** 2 + 2 * (q - 1) * (floor_2sqrt(q) - 1)


# ---------------------------------------------------------------------------
# large-q machinery (irreducible-factor degree bounds)

def gl_bound(d, q):
    """q^2 + (d-1)(d-2) q^{3/2} + 12 (d+3)^4 q: zeros of an absolutely
    irreducible degree-d surface, affine form."""
    qm = _mp.mpf(q)
    return qm ** 2 + (d - 1) * (d - 2) * qm ** _mp.mpf("1.5") \
        + 12 * (d + 3) ** 4 * qm


def psi(k, m, d, q):
    """(m-k)(q-1)^2 + k q^2 + (d-m-k+1)(d-m-k) q^{3/2}
    + 12 ((d-m-k+5)^4 + 5^4 (k-1)) q."""
    qm = _mp.mpf(q)
    t = d - m - k
    return (m - k) * (qm - 1) ** 2 + k * qm ** 2 \
        + (t + 1) * t * qm ** _mp.mpf("1.5") \
        + 12 * ((t + 5) ** 4 + 5 ** 4 * (k - 1)) * qm


def _alpha_lhs(L, d, q):
    """Left-hand sides of the two threshold inequalities, with
    d_1 = d - L + 2."""
    qm = _mp.mpf(q)
    s = _mp.sqrt(qm)
    d1 = d - L + 2
    first = (L - 1) * qm ** 2 - (d * d - 3 * d - 2) * qm ** _mp.mpf("1.5") \
        - (12 * (d + 3) ** 4 + 2 * (L + 1)) * qm - 4 * s + L + 2
    second = qm ** 2 - (d1 * d1 - 3 * d1 - 2) * qm ** _mp.mpf("1.5") \
        - (12 * (d1 + 3) ** 4 + 6) * qm - 4 * s + 4
    return first, second


def alpha_holds(L, d, q):
    """True iff q satisfies both threshold inequalities."""
    a, b = _alpha_lhs(L, d, q)
    return a >= 0 and b >= 0


def alpha(L, d):
    """Smallest real q >= 7507 with both threshold inequalities satisfied,
    found by bisection on sqrt(q) until the bracket is below 1e-12."""
    if L < 2 or d < 3 or L > d:
        raise ValueError("need 2 <= L <= d and d >= 3")
    lo = _mp.sqrt(_mp.mpf(7507))
    if alpha_holds(L, d, lo ** 2):
        return lo ** 2
    hi = lo
    while not alpha_holds(L, d, hi ** 2):
        hi *= 2
    # both left-hand sides are increasing in q beyond their last sign
    # change, so bisection on sqrt(q) converges to the threshold
    for _ in range(200):
        mid = (lo + hi) / 2
        if alpha_holds(L, d, mid ** 2):
            hi = mid
        else:
            lo = mid
        if hi - lo < _mp.mpf("1e-12"):
            break
    return hi ** 2


def simplex_bound(L, q, n=3):
    """N_P <= L (q-1)^{n-1}; sharp when P contains a lattice segment of
    lattice length L; L = 0 (one point) gives 0, as a nonzero constant has
    no zeros."""
    if L < 0 or n not in (2, 3):
        raise ValueError("need L >= 0 and n in {2,3}")
    return L * (q - 1) ** (n - 1)


# ---------------------------------------------------------------------------
# width-one threshold beta and the final width-one bound

def beta(vol2_0, vol2_1, L0, L1, L, mixed, mode="per_summand"):
    """Threshold beta for the width-one bound.

    ``mode`` resolves the ambiguous L in the c term: per_summand uses
    L(P_i) per index (matches the worked example's q >= 107), global uses
    L(P) in both.  C always uses the per-summand L(P_i).
    """
    if mode not in ("per_summand", "global"):
        raise ValueError("mode must be per_summand or global")
    C = max(Fraction(vol2_0, 4) - L0 + Fraction(9, 4),
            Fraction(vol2_1, 4) - L1 + Fraction(9, 4))
    if mode == "per_summand":
        c = min(Fraction(vol2_0, 2) - 2 * L0 + Fraction(11, 2),
                Fraction(vol2_1, 2) - 2 * L1 + Fraction(11, 2))
    else:
        c = min(Fraction(vol2_0, 2) - 2 * L + Fraction(11, 2),
                Fraction(vol2_1, 2) - 2 * L + Fraction(11, 2))

    def expand(x, shift):
        xm = _mp.mpf(x.numerator) / x.denominator
        return (xm + _mp.sqrt(xm * xm + shift)) ** 2

    vals = (_mp.mpf(37),
            expand(C, _mp.mpf("2.5")),
            expand(c, 3),
            _mp.mpf((mixed + 1) ** 2) / 4)
    return max(vals)


def width_one_final_bound(L, q):
    """L (q-1)^2 + (q-1)(floor(2 sqrt q) - 1)."""
    return L * (q - 1) ** 2 + (q - 1) * (floor_2sqrt(q) - 1)


# ---------------------------------------------------------------------------
# classical code bounds

def griesmer_max_d(n, k, q):
    """Largest d with n >= sum_{i<k} ceil(d / q^i)."""
    if n < k or k < 1:
        raise ValueError("need n >= k >= 1")
    d = 0
    while True:
        s = sum(-(-(d + 1) // q ** i) for i in range(k))
        if s > n:
            return d
        d += 1


def gv_max_d(n, k, q):
    """Largest d with q^{n-k} > sum_{i<=d-2} C(n-1, i) (q-1)^i."""
    if n < k or k < 1:
        raise ValueError("need n >= k >= 1")
    lhs = q ** (n - k)
    total = 0
    d = 1
    while True:
        # moving d -> d+1 adds the i = d-1 term
        total += comb(n - 1, d - 1) * (q - 1) ** (d - 1)
        if lhs <= total:
            return d
        d += 1


def mindist_lower_bound(L, q, width_one=False):
    """(q-1)^3 - L(q-1)^2 - t (q-1)(2 sqrt q - 1) with t = 1 (width one,
    q >= beta(P)) or 2 (general, q >= alpha(P)); floored at the end."""
    t = 1 if width_one else 2
    qm = _mp.mpf(q)
    val = (qm - 1) ** 3 - L * (qm - 1) ** 2 \
        - t * (qm - 1) * (2 * _mp.sqrt(qm) - 1)
    return int(_mp.floor(val))
