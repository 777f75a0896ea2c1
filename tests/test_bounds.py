import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from toric3 import bounds as B

PRIME_POWERS = [q for q in range(2, 200) if B.is_prime_power(q)]


class TestHelpers:
    def test_floor_2sqrt_matches_float(self):
        for q in range(1, 100000):
            assert B.floor_2sqrt(q) == int(math.isqrt(4 * q))
        # exact where floats would need care
        assert B.floor_2sqrt(10 ** 14) == 2 * 10 ** 7

    def test_prime_power_detection(self):
        assert [q for q in range(2, 30) if B.is_prime_power(q)] == \
            [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]

    def test_next_prime_power(self):
        assert B.next_prime_power(105.914) == 107
        assert B.next_prime_power(8) == 8
        assert B.next_prime_power(10) == 11

    def test_import_keeps_the_callers_precision(self):
        # the bounds run in a private 50-digit context: importing toric3
        # leaves mpmath.mp at its default 15 digits
        src = str(Path(B.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                                 else ""))
        code = ("import mpmath, toric3.toriccode, toric3.bounds as B; "
                "B.alpha(2, 4); print(mpmath.mp.dps)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "15\n"

    def test_char_of(self):
        assert B.char_of(8) == 2
        assert B.char_of(49) == 7
        assert B.char_of(43) == 43


class TestSpecialClassBounds:
    def test_values_at_q7(self):
        expected = {"segment": 36, "unit_triangle": 30, "unit_3simplex": 31,
                    "T0": 60, "S2": 38, "E": 39, "K1": 52, "K2": 59}
        for cls, value in expected.items():
            assert B.special_bound(cls, 7) == value

    def test_report_flags(self):
        rep = B.special_bound("T0", 8, report=True)
        assert rep.hypotheses == (("char not in {2,3}", False),)
        rep = B.special_bound("K1", 49, report=True)
        assert rep.hypotheses[0][1] is True
        assert B.special_bound("S2", 8, report=True).hypotheses == ()

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            B.special_bound("pentatope", 7)


class TestCompositeBounds:
    def test_width_one(self):
        assert B.width_one_bound(15, 7, 3, 18, 12, 7) == 36 + 5 * 7 - 30

    def test_finite_class_rational(self):
        v = B.finite_class_bound(6, 5, 7)
        assert v == Fraction(36) + Fraction(7, 2) * 7 + Fraction(5, 2)
        assert isinstance(B.finite_class_bound(6, 4, 7), int)

    def test_dps_volume(self):
        assert B.dps_volume_bound(3, 7) == 36 + 7 + 2

    def test_maxa_cases(self):
        assert B.maxa_bound(2, 0, 7) == 72
        assert B.maxa_bound(2, 1, 7, has_T0_factor=True) == 72 + 6 * 4
        assert B.maxa_bound(2, 1, 7, vol3=8) == 72 + 3 * 7 + 2
        assert B.maxa_bound(2, 2, 7) == 120
        assert B.maxa_bound(3, 3, 43) == 3 * 42 ** 2 + 7
        with pytest.raises(ValueError):
            B.maxa_bound(2, 3, 7)
        with pytest.raises(ValueError):
            B.maxa_bound(2, 1, 7)

    def test_cmax_threshold_and_dominance(self):
        c, q_min = B.cmax_threshold(2, 8)
        assert c == Fraction(5, 8)
        assert abs(q_min - float((c + (c ** 2 + 1) ** Fraction(1, 2)))) >= 0
        # past the threshold the two-factor case dominates the others
        for L in (2, 3):
            for vol3 in range(3 * L, 3 * L + 12):
                _, q_min = B.cmax_threshold(L, vol3)
                for q in [q for q in PRIME_POWERS
                          if q >= max(37, float(q_min))]:
                    two = B.maxa_bound(L, 2, q)
                    assert two >= B.maxa_bound(L, 0, q)
                    assert two >= B.maxa_bound(L, 1, q, has_T0_factor=True)
                    assert two >= B.maxa_bound(L, 1, q, vol3=vol3)
                    for k in range(3, L + 1):
                        assert two >= B.maxa_bound(L, k, q)

    def test_simplex(self):
        assert B.simplex_bound(2, 5) == 32
        assert B.simplex_bound(3, 4, n=2) == 9


class TestLargeQThresholds:
    def test_alpha_floor(self):
        a = B.alpha(2, 4)
        assert a >= 7507
        assert B.alpha_holds(2, 4, a + 1)
        assert not B.alpha_holds(2, 4, a * 0.9)

    def test_alpha_monotone_in_degree(self):
        assert B.alpha(2, 5) >= B.alpha(2, 4)

    def test_gl_psi_positive(self):
        assert B.gl_bound(3, 49) > 49 ** 2
        assert B.psi(1, 2, 5, 49) > 0

    def test_beta_modes(self):
        per = B.beta(7, 3, 2, 1, 2, 5, mode="per_summand")
        assert abs(per - 105.91502622) < 1e-6
        assert B.next_prime_power(per) == 107
        glob = B.beta(7, 3, 2, 1, 2, 5, mode="global")
        assert glob < per
        assert abs(glob - 41.8) < 0.5

    def test_width_one_final_row(self):
        assert [B.width_one_final_bound(2, q) for q in (5, 7, 8, 9, 11)] == \
            [44, 96, 126, 168, 250]

    def test_mindist(self):
        assert B.mindist_lower_bound(2, 11, width_one=True) == 743
        assert B.mindist_lower_bound(2, 11, width_one=False) < 743


def _griesmer_oracle(n, k, q):
    best = 0
    for d in range(1, n + 2):
        if sum(math.ceil(d / q ** i) for i in range(k)) <= n:
            best = d
    return best


def _gv_oracle(n, k, q):
    best = 1
    for d in range(2, n + 2):
        rhs = sum(math.comb(n - 1, i) * (q - 1) ** i for i in range(d - 1))
        if q ** (n - k) > rhs:
            best = d
    return best


class TestClassicalBounds:
    def test_reference_values(self):
        for n, k, q, g, v in ((64, 8, 5, 47, 37), (216, 8, 7, 181, 159),
                              (343, 8, 8, 296, 268)):
            assert B.griesmer_max_d(n, k, q) == g
            assert B.gv_max_d(n, k, q) == v

    def test_against_oracle(self, rng):
        for _ in range(40):
            q = PRIME_POWERS[int(rng.integers(0, 6))]
            k = int(rng.integers(1, 6))
            n = int(rng.integers(k, 40))
            assert B.griesmer_max_d(n, k, q) == _griesmer_oracle(n, k, q)
            assert B.gv_max_d(n, k, q) == _gv_oracle(n, k, q)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            B.griesmer_max_d(3, 5, 4)


class TestMonotonicity:
    def test_nondecreasing_in_q(self):
        grid = [q for q in PRIME_POWERS if q <= 100]
        rows = [
            lambda q: B.special_bound("T0", q),
            lambda q: B.special_bound("K2", q),
            lambda q: B.dps_volume_bound(4, q),
            lambda q: B.maxa_bound(2, 2, q),
            lambda q: B.width_one_final_bound(2, q),
            lambda q: B.simplex_bound(2, q),
        ]
        for fn in rows:
            vals = [fn(q) for q in grid]
            assert vals == sorted(vals)
