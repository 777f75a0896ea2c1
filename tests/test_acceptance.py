"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

The status lines are collected and echoed in the terminal summary (see
conftest) so they survive pytest's output capture.  Criterion parts
that need hours of minimum-weight search run only with ``-m long``.
"""

from contextlib import contextmanager

import pytest

import conftest
from conftest import random_affine_map, random_points, random_polytope
from toric3 import bounds as B
from toric3 import toriccode as tc
from toric3.catalog import named_polytope
from toric3.geometry import (ambient_vol3, convex_hull, equivalent,
                             lattice_points, minkowski_sum)
from toric3.gfq import (LaurentPolynomial, common_zero_count, count_zeros,
                        make_field, monomial_substitution, multiply,
                        random_polynomial)
from toric3.minklen import (find_tetra, find_triangles, has_length_at_most,
                            is_dps, minkowski_length,
                            three_segments_width_scan,
                            unit_triangle_segment_sweep)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num:2d} [{desc}]: FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num:2d} [{desc}]: PASS")


def _simplex(d):
    return convex_hull([(0, 0, 0), (d, 0, 0), (0, d, 0), (0, 0, d)])


def _cube(d):
    return convex_hull([(d * x, d * y, d * z)
                        for x in (0, 1) for y in (0, 1) for z in (0, 1)])


def _sum(*polys):
    acc = polys[0]
    for P in polys[1:]:
        acc = minkowski_sum(acc, P)
    return acc


def _ex63_pair(q=7):
    F = make_field(q)
    m2 = F.neg(2)
    f1 = LaurentPolynomial.make(F, {(2, 1, 0): 1, (1, 2, 0): m2, (0, 0, 0): 1})
    f2 = LaurentPolynomial.make(F, {(3, 0, 0): 1, (0, 0, 1): m2, (0, 0, 2): 1})
    return f1, f2


def test_criterion_01_catalog_volumes():
    with criterion(1, "catalog volumes and lengths"):
        for name, vol in (("T0", 0), ("S1", 1), ("S2", 2), ("E", 3),
                          ("K1", 4), ("K2", 5)):
            P = named_polytope(name)
            assert ambient_vol3(P) == vol, name
            assert minkowski_length(P)[0] == 1, name


def test_criterion_02_length_identities():
    with criterion(2, "simplex and cube lengths"):
        for d in (1, 2, 3, 4):
            assert minkowski_length(_simplex(d))[0] == d
        for d in (1, 2):
            assert minkowski_length(_cube(d))[0] == 3 * d


def test_criterion_03_verified_length_facts():
    with criterion(3, "maximal-decomposition length facts"):
        K1 = named_polytope("K1")
        K2 = named_polytope("K2")
        S1 = named_polytope("S1")
        S2 = named_polytope("S2")
        S = named_polytope("S")
        E = named_polytope("E")
        T0 = named_polytope("T0")
        assert minkowski_length(_sum(K1, K1))[0] == 2
        assert minkowski_length(_sum(S2, S2, S2))[0] == 3
        assert minkowski_length(_sum(E, S2, S2))[0] == 3
        assert not has_length_at_most(_sum(K2, S, S), 3)
        assert not has_length_at_most(_sum(K1, K1, S1), 3)
        assert not has_length_at_most(_sum(K1, K1, K1), 3)
        # the two four-point polytopes Q with L(T0 + Q) = 2
        q_a = convex_hull([(0, 0, 0), (0, 0, 1), (3, 0, -1)])
        q_b = convex_hull([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 2, -1)])
        assert minkowski_length(_sum(T0, q_a))[0] == 2
        assert minkowski_length(_sum(T0, q_b))[0] == 2


def test_criterion_04_segment_direction_sweep():
    with criterion(4, "segment sweep over triangle summands"):
        assert unit_triangle_segment_sweep(43, triangle="unit") == 14
        assert unit_triangle_segment_sweep(43, triangle="T0") == 2


def test_criterion_05_three_segment_width_scan():
    with criterion(5, "three-segment width scan"):
        assert three_segments_width_scan(1) == 9
        assert three_segments_width_scan(2) == 4


def test_criterion_06_classification_spot_checks():
    with criterion(6, "classification searches"):
        S2 = named_polytope("S2")
        vol2_tets = [T for T in find_tetra(S2) if ambient_vol3(T) == 2]
        assert vol2_tets
        assert all(equivalent(T, S2) is not None for T in vol2_tets)
        tets_e = find_tetra(named_polytope("E"))
        assert len(tets_e) == 1
        assert equivalent(tets_e[0], S2) is not None
        assert find_triangles(named_polytope("T2")) == []
        tets_k2 = find_tetra(named_polytope("K2"))
        S = named_polytope("S")
        assert len(tets_k2) == 1
        assert sorted(tets_k2[0].vertices) == sorted(S.vertices)
        assert equivalent(S, S2) is not None


def test_criterion_07_curve_surface_zero_counts():
    with criterion(7, "zero counts of the curated curve/surface pair"):
        f1, f2 = _ex63_pair()
        assert count_zeros(f1) == 54
        assert count_zeros(f2) == 54
        assert common_zero_count(f1, f2) == 12
        assert count_zeros(multiply(f1, f2)) == 96
        assert B.special_bound("T0", 7) == 60
        assert B.maxa_bound(2, 2, 7) == 120


@pytest.mark.long
def test_criterion_07_long_product_polytope_maximum():
    with criterion(7, "N_P of the 15-point product polytope (long)"):
        f1, f2 = _ex63_pair()
        P = convex_hull(list(multiply(f1, f2).support))
        assert P.n_points == 15
        assert tc.max_zero_count(P, 7, engine="bz") == 96


def test_criterion_08_width_one_example():
    with criterion(8, "width-one example: N_P, bound row, threshold"):
        P = named_polytope("EX72")
        assert tc.max_zero_count(P, 5, engine="exhaustive") == 40
        assert [B.width_one_final_bound(2, q) for q in (5, 7, 8, 9, 11)] == \
            [44, 96, 126, 168, 250]
        beta = B.beta(7, 3, 2, 1, 2, 5, mode="per_summand")
        assert abs(beta - 105.914) < 5e-3
        assert B.next_prime_power(beta) == 107


@pytest.mark.long
def test_criterion_08_long_width_one_maxima():
    with criterion(8, "width-one example maxima at larger q (long)"):
        P = named_polytope("EX72")
        for q, expected in ((7, 90), (8, 112), (9, 160), (11, 250)):
            assert tc.max_zero_count(P, q, engine="bz") == expected, q


def test_criterion_08_width_one_exhaustive():
    # the long tier's BZ value at q = 7, from the orbit sweep
    with criterion(8, "width-one example maximum at q = 7 (exhaustive)"):
        P = named_polytope("EX72")
        assert tc.max_zero_count(P, 7, engine="exhaustive") == 90


def test_criterion_08_width_one_bz():
    # the same value by BZ on one information set
    with criterion(8, "width-one example maximum at q = 7 (BZ)"):
        P = named_polytope("EX72")
        assert tc.max_zero_count(P, 7, engine="bz") == 90


@pytest.mark.long
def test_criterion_08_long_width_one_exhaustive():
    with criterion(8, "width-one example maxima at q = 8, 9 (exhaustive)"):
        P = named_polytope("EX72")
        for q, expected in ((8, 112), (9, 160)):
            assert tc.max_zero_count(P, q, engine="exhaustive") == expected, q


def test_criterion_09_code_table_fast():
    with criterion(9, "code parameter table, small fields"):
        P = named_polytope("P8")
        Q = named_polytope("Q8")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for poly, q, expected in ((P, 5, 36), (P, 7, 162), (P, 8, 252),
                                      (Q, 5, 36), (Q, 7, 150)):
                code = tc.build_code(poly, q)
                assert tc.min_weight(code) == expected, (q, expected)
        for q, n, g, v in ((5, 64, 47, 37), (7, 216, 181, 159),
                           (8, 343, 296, 268)):
            assert B.griesmer_max_d(n, 8, q) == g
            assert B.gv_max_d(n, 8, q) == v


def test_criterion_09_large_fields_exhaustive():
    # the long-tier BZ values below, from the orbit-reduced sweep
    with criterion(9, "code parameter table, large fields (exhaustive)"):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, q, expected in (("P8", 9, 392), ("P8", 11, 861),
                                      ("Q8", 9, 416), ("Q8", 11, 850)):
                code = tc.build_code(named_polytope(name), q)
                assert tc.min_weight(code, engine="exhaustive") == \
                    expected, (name, q)


@pytest.mark.long
def test_criterion_09_long_code_table():
    with criterion(9, "code parameter table, large fields (long)"):
        P = named_polytope("P8")
        Q = named_polytope("Q8")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for poly, q, expected in ((P, 9, 392), (P, 11, 861),
                                      (P, 13, 1535), (Q, 9, 416),
                                      (Q, 11, 850), (Q, 13, 1512)):
                code = tc.build_code(poly, q)
                assert tc.min_weight_bz(code) == expected, (q, expected)


def test_criterion_10_property_suites(rng):
    with criterion(10, "randomized property suites"):
        _prop_prism_identity(rng)
        _prop_sum_volume_growth(rng)
        _prop_superadditivity(rng)
        _prop_point_count_vs_length(rng)
        _prop_dps_collision_oracle(rng)
        _prop_substitution_invariance(rng)
        _prop_width_one_counting(rng)
        _prop_engines_agree(rng)
        _prop_code_identities(rng)
        _prop_simplex_soundness(rng)


def _prop_prism_identity(rng):
    from toric3.geometry import mixed_area, vol2
    for _ in range(100):
        P0 = random_polytope(rng, count=int(rng.integers(2, 6)), box=4,
                             ambient=2)
        P1 = random_polytope(rng, count=int(rng.integers(2, 6)), box=4,
                             ambient=2)
        prism = convex_hull([(x, y, 0) for x, y in P0.vertices]
                            + [(x, y, 1) for x, y in P1.vertices])
        assert ambient_vol3(prism) == vol2(P0) + mixed_area(P0, P1) + vol2(P1)


def _prop_sum_volume_growth(rng):
    done = 0
    while done < 100:
        P1 = random_polytope(rng, count=int(rng.integers(2, 6)), box=3)
        P2 = random_polytope(rng, count=int(rng.integers(2, 6)), box=3)
        S = minkowski_sum(P1, P2)
        if S.dim < 3 or P2.dim == 0:
            continue
        assert ambient_vol3(S) >= ambient_vol3(P1) + 3
        done += 1


def _prop_superadditivity(rng):
    for _ in range(200):
        P = random_polytope(rng, count=int(rng.integers(2, 5)), box=2)
        Q = random_polytope(rng, count=int(rng.integers(2, 5)), box=2)
        assert minkowski_length(minkowski_sum(P, Q))[0] >= \
            minkowski_length(P)[0] + minkowski_length(Q)[0]


def _prop_point_count_vs_length(rng):
    for _ in range(100):
        P = random_polytope(rng, count=int(rng.integers(2, 6)), box=3)
        L = minkowski_length(P)[0]
        assert P.n_points <= (L + 1) ** 3


def _prop_dps_collision_oracle(rng):
    for _ in range(300):
        P = random_polytope(rng, count=int(rng.integers(2, 6)), box=4)
        pts = list(lattice_points(P))
        seen = {}
        collision = False
        for i, a in enumerate(pts):
            for b in pts[i:]:
                s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                prev = seen.setdefault(s, (a, b))
                if prev != (a, b):
                    collision = True
                    break
            if collision:
                break
        assert is_dps(P) == (not collision)
        assert is_dps(P) == (minkowski_length(P)[0] <= 1)


def _prop_substitution_invariance(rng):
    for q in (5, 7):
        F = make_field(q)
        P = named_polytope("S2")
        for i in range(50):
            f = random_polynomial(P, F, seed=i)
            g = monomial_substitution(f, random_affine_map(rng))
            assert count_zeros(g) == count_zeros(f)


def _prop_width_one_counting(rng):
    tri = named_polytope("T0_2d")
    for q in (5, 7, 9):
        F = make_field(q)
        for i in range(34):
            f0 = random_polynomial(tri, F, seed=i)
            f1 = random_polynomial(tri, F, seed=9000 + i)
            terms = {(a, b, 0): c for (a, b), c in f0.terms}
            for (a, b), c in f1.terms:
                terms[(a, b, 1)] = F.add(terms.get((a, b, 1), 0), c)
            f = LaurentPolynomial.make(F, terms)
            z0, z1 = count_zeros(f0), count_zeros(f1)
            z01 = common_zero_count(f0, f1)
            assert count_zeros(f) == \
                z01 * (q - 1) + (q - 1) ** 2 - z0 - z1 + z01


def _prop_engines_agree(rng):
    import warnings
    done = 0
    while done < 50:
        q = (4, 5, 7)[int(rng.integers(3))]
        P = random_polytope(rng, count=int(rng.integers(2, 6)), box=3,
                            ambient=int(rng.integers(2, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # widths beyond q - 2
            code = tc.build_code(P, q)
        if tc.exhaustive_cost(q, code.k, code.n) > 3 * 10 ** 7:
            continue
        assert tc.min_weight_exhaustive(code) == tc.min_weight_bz(code), \
            (q, P.vertices)
        done += 1


def _prop_code_identities(rng):
    for pts in ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
                [(0, 0, 0), (2, 0, 0), (0, 1, 0)],
                [(0, 0, 0), (1, 1, 0), (0, 0, 1)]):
        P = convex_hull(pts)
        code = tc.build_code(P, 5)
        d = tc.min_weight(code)
        assert tc.max_zero_count(P, 5) == code.n - d
        assert d <= B.griesmer_max_d(code.n, code.k, 5)


def _prop_simplex_soundness(rng):
    for L in (1, 2):
        big = [(x, y, z) for x in range(L + 1) for y in range(L + 1)
               for z in range(L + 1) if x + y + z <= L]
        for _ in range(6):
            take = rng.choice(len(big), size=int(rng.integers(2, len(big))),
                              replace=False)
            P = convex_hull([big[i] for i in take])
            Lp = minkowski_length(P)[0]
            assert tc.max_zero_count(P, 5) <= B.simplex_bound(Lp, 5)
