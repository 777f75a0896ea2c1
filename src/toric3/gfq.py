"""Finite fields GF(q), Laurent polynomials, and exact torus zero counts.

Field elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the residue polynomial (for prime fields this is the
usual residue encoding).  ``FiniteField``'s add, sub, neg, mul and inv
take element codes or integer arrays of codes and broadcast like numpy
(a scalar call gives an int).  Addition is digitwise mod p; a product is
one lookup exp0[log a + log b] in tables of a fixed smallest generator,
where log 0 = 2q - 2 points past two copies of exp into a zero tail.
The construction is deterministic: the modulus is the first irreducible
monic polynomial of degree e in the base-p integer encoding of its
non-leading coefficients, and the generator is the smallest element (in
the integer encoding) of multiplicative order q - 1.

Torus scans run on the discrete logs l of a point of (F_q^*)^n: a term
c x^a has log log(c) + sum_i (a_i mod m) l_i, m = q - 1.  Term values
add as one packed integer per point, in the narrowest unsigned dtype:
XOR of the codes in characteristic 2, else base-p digits in b-bit
fields, b the bit length of (terms)(p-1); when e*b > 63 the fields
narrow to 63//e bits and are reduced mod p every few terms.  For odd p
a sum of e*b <= 20 bits is tested for zero in a table over all packed
values.
A term's values on a torus row of lead log s are row s of the m x m
table T[s, j] = packed(g^(s + a_n j)), one per distinct a_n mod m, when
these fit in 2^20 cells and in the torus (most trivariate scans); else
they are gathered from exp.  Slabs of whole rows bound the scan's
memory, and a torus of more than 2^32 points is refused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np


def factor_prime_power(q):
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((c for c in range(2, isqrt(q) + 1) if q % c == 0), q)
    e = 1
    while p ** e < q:
        e += 1
    if p ** e != q:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_mulmod(a, b, modulus, p):
    """Multiply coefficient lists (low degree first) mod (modulus, p).

    ``modulus`` is the full monic coefficient list of degree e."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(e + 1):
                prod[d - e + i] = (prod[d - e + i] - c * modulus[i]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return out


def _irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for m in range(p ** d):
            div = _int_digits(m, p, d) + [1]
            if _poly_rem_is_zero(poly, div, p):
                return False
    return True


def _poly_rem_is_zero(a, b, p):
    rem = list(a)
    db = len(b) - 1
    for d in range(len(rem) - 1, db - 1, -1):
        c = rem[d]
        if c:
            for i in range(db + 1):
                rem[d - db + i] = (rem[d - db + i] - c * b[i]) % p
    return not any(rem[:db])


def _int_digits(m, p, e):
    out = []
    for _ in range(e):
        out.append(m % p)
        m //= p
    return out


def _digits_int(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _int_if_scalar(x):
    return int(x) if np.ndim(x) == 0 else x


class FiniteField:
    """GF(q) with log/exp tables over a deterministic modulus/generator."""

    def __init__(self, q):
        if q > 1 << 20:
            raise ValueError("q must be at most 2^20")
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = (0, 1)  # the polynomial x, i.e. GF(p) itself
        else:
            self.modulus = self._find_modulus(p, e)
        self._pow_p = np.array([p ** i for i in range(e)], dtype=np.int64)
        self._digit_table = np.arange(q)[:, None] // self._pow_p % p
        self.generator = self._find_generator()
        self._build_tables()

    @staticmethod
    def _find_modulus(p, e):
        for m in range(1, p ** e):
            poly = _int_digits(m, p, e) + [1]
            if _irreducible(poly, p):
                return tuple(poly)
        raise RuntimeError("no irreducible polynomial found")

    # -- arithmetic on codes or integer arrays of codes, broadcast ------

    def add(self, a, b):
        return self.digits_to_codes(self._digit_table[a]
                                    + self._digit_table[b])

    def sub(self, a, b):
        return self.digits_to_codes(self._digit_table[a]
                                    - self._digit_table[b])

    def neg(self, a):
        return self.digits_to_codes(-self._digit_table[a])

    def mul(self, a, b):
        return _int_if_scalar(self._exp0[self.log[a] + self.log[b]])

    def inv(self, a):
        if not np.all(a):
            raise ZeroDivisionError("inverse of zero")
        return _int_if_scalar(self._exp0[self.q - 1 - self.log[a]])

    def _mul_raw(self, a, b):
        da = _int_digits(a, self.p, self.e)
        db = _int_digits(b, self.p, self.e)
        return _digits_int(
            _poly_mulmod(da, db, list(self.modulus), self.p), self.p)

    def power(self, a, n):
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if n else 1
        return int(self.exp[(int(self.log[a]) * n) % (self.q - 1)])

    # -- table construction ------------------------------------------------

    def _find_generator(self):
        """The least g with g^((q-1)/r) != 1 for every prime r | q - 1."""
        primes, m = set(), self.q - 1
        while m > 1:
            r = next((c for c in range(2, int(m ** 0.5) + 1) if m % c == 0), m)
            primes.add(r)
            m //= r
        for g in range(1, self.q):
            if all(self._power_raw(g, (self.q - 1) // r) != 1 for r in primes):
                return g
        raise RuntimeError("no generator found")

    def _power_raw(self, a, n):
        if n == 0:
            return 1
        half = self._power_raw(self._mul_raw(a, a), n >> 1)
        return self._mul_raw(half, a) if n & 1 else half

    def _build_tables(self):
        """exp by doubling: g^(s+i) = g^i h for h = g^s, and times h is
        the e x e matrix over F_p whose row i is the digits of h x^i."""
        q, p = self.q, self.p
        digits = np.zeros((q - 1, self.e), dtype=np.int64)
        digits[0, 0] = 1
        mat = self._digit_table[[self._mul_raw(self.generator, p ** i)
                                 for i in range(self.e)]]
        size = 1
        while size < q - 1:
            take = min(size, q - 1 - size)
            digits[size:size + take] = digits[:take] @ mat % p
            mat, size = mat @ mat % p, size + take
        self.exp = digits @ self._pow_p
        self.log = np.full(q, 2 * q - 2, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        self._exp0 = np.pad(np.tile(self.exp, 2), (0, 2 * q - 1)).astype(
            np.min_scalar_type(q - 1))
        if not np.array_equal(np.sort(self.exp), np.arange(1, q)):
            raise RuntimeError("generator tables inconsistent")

    # -- vectorized helpers used by the scan and code modules --------------

    def codes_to_digits(self, codes):
        """(..., ) int array of element codes -> (..., e) digit array."""
        return self._digit_table[codes]

    def digits_to_codes(self, digits):
        return _int_if_scalar((digits % self.p) @ self._pow_p)

    def packed(self, bits):
        """Code -> its base-p digits in ``bits``-bit fields of one int64
        (the code itself for bits = 1 in characteristic 2)."""
        return self._digit_table @ (1 << bits * np.arange(self.e))

    def reduce_packed(self, acc, bits):
        """Every ``bits``-bit field of packed digit sums, reduced mod p."""
        if self.p == 2:  # XOR sums carry into no other field
            return acc
        out = np.zeros_like(acc)
        for j in range(self.e):
            out |= ((acc >> bits * j) & ((1 << bits) - 1)) % self.p << bits * j
        return out

    def zero_sums(self, bits):
        """Table over every packed value of ``bits``-bit fields: True where
        each field is 0 mod p."""
        k = np.indices((-(-(1 << bits) // self.p),) * self.e)
        out = np.zeros(1 << self.e * bits, dtype=bool)
        out[(self.p << bits * np.arange(self.e)) @ k.reshape(self.e, -1)] = 1
        return out

    def __repr__(self):
        return f"FiniteField(q={self.q})"


@lru_cache(maxsize=None)
def make_field(q):
    return FiniteField(q)


# ---------------------------------------------------------------------------
# Laurent polynomials

@dataclass(frozen=True)
class LaurentPolynomial:
    """Sparse Laurent polynomial: exponent vector -> nonzero coefficient."""

    field: FiniteField
    terms: tuple  # sorted tuple of (exponent tuple, coefficient code)

    @staticmethod
    def make(field, term_map):
        lengths = sorted({len(a) for a in term_map})
        if len(lengths) > 1:
            raise ValueError(f"exponent vectors of mixed lengths {lengths}")
        terms = tuple(sorted((tuple(int(x) for x in a), int(c) % field.q)
                             for a, c in term_map.items() if int(c) % field.q))
        return LaurentPolynomial(field, terms)

    @property
    def support(self):
        return [a for a, _ in self.terms]

    @property
    def n(self):
        return len(self.terms[0][0]) if self.terms else 0

    def is_zero(self):
        return not self.terms


_SLAB = 1 << 14  # torus points per slab of the zero scan (or one row)
_TABLE_CELLS = 1 << 20  # cells of the row tables of one scan
_ZERO_BITS = 20  # widest packed sum read off the zero table


def _check_torus(q, n):
    if (q - 1) ** n > 1 << 32:
        raise ValueError(f"the torus (F_{q}^*)^{n} has more than 2^32 points")


def _zero_slabs(f):
    """Zero masks of f on slabs of whole torus rows (set by q and n alone)."""
    F, N, m = f.field, len(f.terms), f.field.q - 1
    if f.is_zero():
        raise ValueError("zero polynomial")
    _check_torus(F.q, f.n)
    # a constant is scanned on one axis, where it has no zeros either
    exps = np.array([[x % m for x in a or (0,)] for a in f.support],
                    dtype=np.int64)  # reduced as Python ints: unbounded
    clog, n = F.log[[c for _, c in f.terms]], exps.shape[1]
    bits = 1 if F.p == 2 else (N * (F.p - 1)).bit_length()
    period = N + 1  # terms between reductions mod p, which keep e*bits <= 63
    if F.e * bits > 63:
        bits, period = 63 // F.e, (2 ** (63 // F.e) - 1) // (F.p - 1) - 1
    add = np.bitwise_xor if F.p == 2 else np.add
    dtype = np.min_scalar_type((1 << F.e * bits) - 1)
    vals = np.tile(F.packed(bits)[F.exp].astype(dtype), 2)  # logs below 2m
    ar, rows, step = np.arange(m), m ** (n - 1), max(1, _SLAB // m)
    last, tables = exps[:, -1].tolist(), None
    if len(set(last)) * m * m <= min(m ** n, _TABLE_CELLS):
        # row s of T_e holds the term's values on a row of lead log s
        tables = {e: vals[ar[:, None] + e * ar % m] for e in set(last)}
    zero = F.zero_sums(bits) if F.p > 2 and F.e * bits <= _ZERO_BITS else None
    for r0 in range(0, rows, step):
        r = np.arange(r0, min(r0 + step, rows))
        lead = np.repeat(clog[:, None], r.size, axis=1)
        for i in range(n - 2, -1, -1):  # leading logs, last one fastest
            r, li = np.divmod(r, m)
            lead += exps[:, i, None] * li
        lead %= m  # each term's log at the first column of each row
        acc, row = np.zeros((2, r.size, m), dtype=dtype)
        for t, e in enumerate(last):
            if tables is None:
                np.take(vals, lead[t, :, None] + e * ar % m, out=row,
                        mode="clip")
            else:
                np.take(tables[e], lead[t], axis=0, out=row, mode="clip")
            add(acc, row, out=acc)
            if (t + 1) % period == 0:
                acc = F.reduce_packed(acc, bits)
        yield F.reduce_packed(acc, bits) == 0 if zero is None else zero[acc]


def count_zeros(f):
    """N_f: number of zeros of f in the torus (F_q^*)^n, by exact scan."""
    return sum(int(np.count_nonzero(z)) for z in _zero_slabs(f))


def common_zero_count(f, g):
    if f.field is not g.field and f.field.q != g.field.q:
        raise ValueError("fields differ")
    if f.n != g.n:
        raise ValueError("torus dimension mismatch")
    return sum(int(np.count_nonzero(a & b))
               for a, b in zip(_zero_slabs(f), _zero_slabs(g)))


def multiply(f, g):
    """Product polynomial over the common field."""
    F, row = f.field, {}  # exponent sum -> its row of digit sums
    keys = [row.setdefault(tuple(x + y for x, y in zip(a, b)), len(row))
            for a, _ in f.terms for b, _ in g.terms]
    prods = F.mul(*np.ix_([c for _, c in f.terms], [d for _, d in g.terms]))
    digits = np.zeros((len(row), F.e), dtype=np.int64)
    np.add.at(digits, keys, F.codes_to_digits(prods.ravel()))
    return LaurentPolynomial.make(F, dict(zip(row, F.digits_to_codes(digits))))


def monomial_substitution(f, phi):
    """Apply an affine unimodular map to the exponent vectors of f.

    The translation part multiplies by a monomial, which is invertible on
    the torus, so N_f is unchanged; phi is a bijection (det +-1), so the
    image exponents are distinct."""
    return LaurentPolynomial.make(f.field, {phi(a): c for a, c in f.terms})


def random_polynomial(P, field, seed):
    """Uniformly random element of L_P (coefficients over the lattice
    points of P, not all zero), reproducible from the integer seed via
    Python's Mersenne Twister."""
    pts = P.lattice_points
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randrange(field.q) for _ in pts]
        if any(coeffs):
            return LaurentPolynomial.make(
                field, dict(zip(pts, coeffs)))
