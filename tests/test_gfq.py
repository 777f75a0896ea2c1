import itertools
import random

import numpy as np
import pytest

from toric3 import gfq
from toric3.catalog import named_polytope
from toric3.gfq import (LaurentPolynomial, common_zero_count, count_zeros,
                        make_field, monomial_substitution, multiply,
                        random_polynomial)
from toric3.geometry import UnimodularMap
from conftest import random_affine_map, traced_peak


def ex63_pair(q=7):
    F = make_field(q)
    m2 = F.neg(2)
    f1 = LaurentPolynomial.make(F, {(2, 1, 0): 1, (1, 2, 0): m2, (0, 0, 0): 1})
    f2 = LaurentPolynomial.make(F, {(3, 0, 0): 1, (0, 0, 1): m2, (0, 0, 2): 1})
    return f1, f2


class TestFieldArithmetic:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_axioms_exhaustive(self, q):
        F = make_field(q)
        els = range(q)
        for a, b in itertools.product(els, repeat=2):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, F.neg(a)) == 0
            if b:
                assert F.mul(b, F.inv(b)) == 1
        for a, b, c in itertools.product(range(min(q, 5)), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
    def test_array_api_matches_table_free_oracle(self, q):
        # every pair of codes, zeros included, against digit lists and
        # _mul_raw: as scalars (ints), and broadcast (k, n) with (k, 1)
        # and (n,), (k, 1) with (n,), either way round
        F = make_field(q)

        def digitwise(op, *codes):
            digits = [gfq._int_digits(c, F.p, F.e) for c in codes]
            return gfq._digits_int([op(*d) % F.p for d in zip(*digits)], F.p)
        els = range(q)
        want = {
            "add": [[digitwise(lambda x, y: x + y, a, b) for b in els]
                    for a in els],
            "sub": [[digitwise(lambda x, y: x - y, a, b) for b in els]
                    for a in els],
            "mul": [[F._mul_raw(a, b) for b in els] for a in els]}
        neg = np.array([digitwise(lambda x: -x, a) for a in els])
        inv = np.array([0] + [next(b for b in els if F._mul_raw(a, b) == 1)
                              for a in range(1, q)])
        for name, table in want.items():
            op, table = getattr(F, name), np.array(table)
            for a, b in itertools.product(els, repeat=2):
                got = op(a, b)
                assert type(got) is int and got == table[a, b], (name, a, b)
            k, n = q, q + 1
            col = np.arange(k)[:, None]
            mat = (col + np.arange(n)) % q  # every code in every row
            row = np.arange(n) % q
            for x, y in ((mat, col), (col, mat), (mat, row), (row, mat),
                         (col, row), (row, col), (mat.astype(np.uint8), col)):
                got = op(x, y)
                assert got.shape == (k, n), (name, x.shape, y.shape)
                assert np.array_equal(got, table[x, y]), (name, x, y)
        for a in els:
            assert type(F.neg(a)) is int and F.neg(a) == neg[a]
            if a:
                assert type(F.inv(a)) is int and F.inv(a) == inv[a]
        mat = (np.arange(q)[:, None] + np.arange(q + 1)) % q
        assert np.array_equal(F.neg(mat), neg[mat])
        nonzero = mat % (q - 1) + 1
        assert np.array_equal(F.inv(nonzero), inv[nonzero])
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F.inv(mat)

    def test_known_moduli(self):
        # coefficient tuples (c0, c1, ..., 1) of the chosen monic modulus
        assert make_field(8).modulus == (1, 1, 0, 1)    # x^3 + x + 1
        assert make_field(9).modulus == (1, 0, 1)       # x^2 + 1
        assert make_field(4).modulus == (1, 1, 1)       # x^2 + x + 1

    def test_known_generators(self):
        assert make_field(7).generator == 3
        assert make_field(2).generator == 1

    def test_tables_match_sequential_loop(self):
        # the construction of the tables before the doubling: the least
        # element of order q - 1 by repeated products, then exp one
        # product at a time
        for q in range(2, 1025):
            try:
                p, e = gfq.factor_prime_power(q)
            except ValueError:
                continue
            F = gfq.FiniteField(q)
            assert F._digit_table.tolist() == \
                [gfq._int_digits(x, p, e) for x in range(q)]

            def order(a):
                x, k = a, 1
                while x != 1:
                    x, k = F._mul_raw(x, a), k + 1
                return k
            g = next(g for g in range(1, q) if order(g) == q - 1)
            exp = [1]
            for _ in range(q - 2):
                exp.append(F._mul_raw(exp[-1], g))
            assert F.generator == g, q
            assert F.exp.tolist() == exp, q
            assert F.log[exp].tolist() == list(range(q - 1)), q

    @pytest.mark.parametrize("q", [3, 4, 7, 8, 9, 13])
    def test_exp_log_roundtrip(self, q):
        F = make_field(q)
        for a in range(1, q):
            assert int(F.exp[F.log[a]]) == a
        orders = {int(F.exp[i]) for i in range(q - 1)}
        assert orders == set(range(1, q))

    def test_power(self):
        F = make_field(9)
        for a in range(1, 9):
            assert F.power(a, 8) == 1
            assert F.power(a, 0) == 1

    def test_packed_addition_matches_scalar(self):
        # sums of packed digits (XOR in characteristic 2), reduced mod p,
        # are the packed field sums
        rng = random.Random(7)
        for q in (4, 8, 9, 25, 27):
            F = make_field(q)
            for terms in (1, 2, 5, 12):
                bits = 1 if F.p == 2 else (terms * (F.p - 1)).bit_length()
                table = F.packed(bits)
                assert len(set(table.tolist())) == q
                rows = [[rng.randrange(q) for _ in range(40)]
                        for _ in range(terms)]
                acc = np.zeros(40, dtype=np.int64)
                for row in rows:
                    acc = acc ^ table[row] if F.p == 2 else acc + table[row]
                got = F.reduce_packed(acc, bits)
                for i in range(40):
                    want = 0
                    for row in rows:
                        want = F.add(want, row[i])
                    assert got[i] == table[want], (q, terms, i)


class TestZeroCounting:
    def test_line_through_torus(self):
        # 1 + x + y over F_5 in three variables: 3 solutions per z value
        F = make_field(5)
        f = LaurentPolynomial.make(F, {(0, 0, 0): 1, (1, 0, 0): 1,
                                       (0, 1, 0): 1})
        assert count_zeros(f) == 12  # 3 (x,y) pairs, z free

    def test_bivariate(self):
        F = make_field(7)
        f = LaurentPolynomial.make(F, {(0, 0): 1, (1, 0): F.neg(1)})
        assert count_zeros(f) == 6  # u = 1, any v

    def test_no_zeros(self):
        F = make_field(5)
        f = LaurentPolynomial.make(F, {(0, 0, 0): 1})
        assert count_zeros(f) == 0

    def test_curated_curve_and_surface(self):
        f1, f2 = ex63_pair()
        assert count_zeros(f1) == 54
        assert count_zeros(f2) == 54
        assert common_zero_count(f1, f2) == 12
        assert count_zeros(multiply(f1, f2)) == 96

    def test_laurent_negative_exponents(self):
        F = make_field(5)
        f = LaurentPolynomial.make(F, {(-1, 0, 0): 1, (1, 0, 0): F.neg(1)})
        # x^{-1} = x  <=>  x^2 = 1  <=>  x = +-1
        assert count_zeros(f) == 2 * 16

    def test_zero_polynomial_rejected(self):
        F = make_field(5)
        with pytest.raises(ValueError):
            count_zeros(LaurentPolynomial.make(F, {}))

    def test_exponents_beyond_int64(self):
        # exponents only matter mod q - 1, and are reduced before any array
        F = make_field(7)
        big = 6 * 10 ** 20 + 2
        f = LaurentPolynomial.make(F, {(big, -big, 0): 1, (0, 0, 1): 3})
        g = LaurentPolynomial.make(F, {(2, -2, 0): 1, (0, 0, 1): 3})
        assert count_zeros(f) == count_zeros(g) > 0


def scalar_zero_set(f):
    """Torus points (as coordinate tuples) where f vanishes, by scalar
    field arithmetic at every point."""
    F = f.field
    zeros = set()
    for x in itertools.product(range(1, F.q), repeat=f.n):
        value = 0
        for a, c in f.terms:
            term = c
            for xi, ai in zip(x, a):
                term = F.mul(term, F.power(xi, ai))
            value = F.add(value, term)
        if value == 0:
            zeros.add(x)
    return zeros


def oracle_polynomials(rng, F, n, count):
    """Seeded polynomials with negative exponents, exponents >= q-1 and
    monomials equal mod q-1: with opposite coefficients (cancelling on
    the torus) or not."""
    q = F.q
    polys = [LaurentPolynomial.make(F, {(0,) * n: 1, (q - 1,) * n: F.neg(1)})]
    while len(polys) < count:
        terms = {}
        for _ in range(rng.randint(1, 7)):
            a = tuple(rng.randint(-2 * q, 2 * q) for _ in range(n))
            terms[a] = rng.randrange(1, q)
        for a, c in list(terms.items())[:2]:
            b = tuple(x + (q - 1) * rng.choice((-2, -1, 1, 3)) for x in a)
            terms[b] = F.neg(c) if rng.random() < 0.7 else rng.randrange(q)
        f = LaurentPolynomial.make(F, terms)
        if not f.is_zero():
            polys.append(f)
    return polys


def digit_tensor_zero_mask(f, chunk=256):
    """The earlier scan, run on chunks of points: the base-p digits of
    every term value at every point, summed and reduced mod p."""
    F, n, m = f.field, f.n, f.field.q - 1
    exps = np.array(f.support, dtype=np.int64) % m
    clogs = F.log[[c for _, c in f.terms]]
    grid = np.indices((m,) * n).reshape(n, -1).T
    masks = []
    for s in range(0, len(grid), chunk):
        logs = (grid[s:s + chunk] @ exps.T + clogs) % m
        digits = F.codes_to_digits(F.exp[logs]).sum(axis=1)
        masks.append(F.digits_to_codes(digits) == 0)
    return np.concatenate(masks)


class TestScanOracles:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32])
    def test_matches_scalar_evaluation(self, q, monkeypatch):
        F = make_field(q)
        rng = random.Random(1000 + q)
        for n in (1, 2, 3):
            if (q - 1) ** n > 5000:  # n = 3 only up to q = 16
                continue
            polys = oracle_polynomials(rng, F, n, 5)
            zero_sets = [scalar_zero_set(f) for f in polys]
            assert len(zero_sets[0]) == (q - 1) ** n  # cancels everywhere
            # the default slab, and slabs of one or a few rows
            for slab in (gfq._SLAB, 40):
                monkeypatch.setattr(gfq, "_SLAB", slab)
                for i, (f, zf) in enumerate(zip(polys, zero_sets)):
                    assert count_zeros(f) == len(zf), (n, f.terms)
                    g, zg = polys[i - 1], zero_sets[i - 1]
                    assert common_zero_count(f, g) == len(zf & zg)

    @pytest.mark.parametrize("q,terms", [(2187, 300), (6561, 150)])
    def test_periodic_reduction_matches_digit_tensor(self, q, terms):
        # e * bit_length(terms * (p - 1)) > 63: the packed fields are
        # narrowed and reduced mod p every few terms
        F = make_field(q)
        assert F.e * (terms * (F.p - 1)).bit_length() > 63
        rng = random.Random(q)
        d = 160 if q == 6561 else 2186 // 2
        roots = LaurentPolynomial.make(F, {(d,): 1, (0,): F.neg(1)})
        for trial in range(3):
            h = LaurentPolynomial.make(F, {
                (rng.randint(-q, 3 * q),): rng.randrange(1, q)
                for _ in range(terms // 2)})
            f = multiply(roots, h) if trial < 2 else h
            assert len(f.terms) > 63
            want = digit_tensor_zero_mask(f)
            got = np.concatenate([z.ravel() for z in gfq._zero_slabs(f)])
            assert np.array_equal(got, want)
            assert count_zeros(f) == int(want.sum())
            if trial < 2:
                assert want.sum() >= d  # the d-th roots of unity
        cancel = {(a,): c for a, c in zip(range(0, 4 * terms, 4),
                                          itertools.cycle(range(1, q)))}
        cancel.update({(a + q - 1,): F.neg(c) for (a,), c in cancel.items()})
        f = LaurentPolynomial.make(F, cancel)
        assert count_zeros(f) == q - 1

    @pytest.mark.parametrize("q", [2187, 6561])
    def test_reduction_period_is_tight(self, q):
        # the first term has every digit 1, the other 511 every digit 2
        # and value q - 1 on the torus: 1 + 2 * 511 = 0 mod 3, so f
        # vanishes everywhere, and one more term per reduction period
        # would carry out of a field
        F = make_field(q)
        terms = {(0,): sum(3 ** j for j in range(F.e))}
        terms.update({(k * (q - 1),): q - 1 for k in range(1, 512)})
        assert count_zeros(LaurentPolynomial.make(F, terms)) == q - 1

    def test_memory_bounded_at_q81(self):
        P8 = named_polytope("P8")
        f = random_polynomial(P8, make_field(81), seed=3)
        assert len(f.terms) == len(P8.lattice_points) and f.n == 3
        count_zeros(f)
        peak = traced_peak(count_zeros, f)[1]
        assert peak < 16 * 2 ** 20, peak

    def test_torus_point_guard(self):
        F = make_field(1031)
        f = LaurentPolynomial.make(F, {(1, 0, 0, 0): 1, (0, 0, 0, 1): 2})
        with pytest.raises(ValueError, match="2\\^32"):
            count_zeros(f)
        with pytest.raises(ValueError, match="2\\^32"):
            common_zero_count(f, f)

    def test_constant_has_no_zeros(self):
        F = make_field(5)
        f = LaurentPolynomial.make(F, {(): 3})
        assert f.n == 0 and count_zeros(f) == 0
        assert common_zero_count(f, f) == 0

    def test_mixed_exponent_lengths_rejected(self):
        F = make_field(5)
        with pytest.raises(ValueError, match="mixed lengths \\[2, 3\\]"):
            LaurentPolynomial.make(F, {(1, 0): 1, (0, 1, 1): 1})


class TestMultiplication:
    def test_product_zero_sets(self, rng):
        F = make_field(7)
        P = named_polytope("S1")
        for seed in range(10):
            f = random_polynomial(P, F, seed=seed)
            g = random_polynomial(P, F, seed=seed + 100)
            fg = multiply(f, g)
            union = count_zeros(f) + count_zeros(g) - common_zero_count(f, g)
            assert count_zeros(fg) == union


class TestSubstitution:
    def test_invariance(self, rng):
        for q in (5, 7):
            F = make_field(q)
            P = named_polytope("S2")
            for i in range(10):
                f = random_polynomial(P, F, seed=i)
                phi = random_affine_map(rng)
                g = monomial_substitution(f, phi)
                assert count_zeros(g) == count_zeros(f)

    def test_shift_is_harmless(self):
        F = make_field(7)
        f, _ = ex63_pair()
        shift = UnimodularMap.identity(3)
        shift = UnimodularMap(shift.matrix, (2, -1, 3))
        assert count_zeros(monomial_substitution(f, shift)) == count_zeros(f)


class TestWidthOneSplit:
    def test_counting_identity(self, rng):
        # f = f0 + z f1: zeros come from common planar zeros (any z) plus
        # one z for each planar point where both are nonzero
        for q in (5, 7, 9):
            F = make_field(q)
            tri = named_polytope("T0_2d")
            for i in range(17):
                f0 = random_polynomial(tri, F, seed=i)
                f1 = random_polynomial(tri, F, seed=1000 + i)
                terms = {(a, b, 0): c for (a, b), c in f0.terms}
                for (a, b), c in f1.terms:
                    key = (a, b, 1)
                    terms[key] = F.add(terms.get(key, 0), c)
                f = LaurentPolynomial.make(F, terms)
                z0 = count_zeros(f0)
                z1 = count_zeros(f1)
                z01 = common_zero_count(f0, f1)
                expected = z01 * (q - 1) + (q - 1) ** 2 - z0 - z1 + z01
                assert count_zeros(f) == expected
