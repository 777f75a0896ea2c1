import dataclasses
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_polytope, traced_peak
from toric3 import toriccode as tc
from toric3.catalog import named_polytope
from toric3.geometry import convex_hull
from toric3.gfq import make_field


class TestGfLinearAlgebra:
    def test_row_reduce_detects_dependence(self):
        F = make_field(5)
        rows = np.array([[1, 2, 3],
                         [2, 4, 1],  # 2 * row 0 in GF(5)
                         [0, 1, 0]])
        pivots, R = tc._echelon(F, rows.T)
        assert pivots == [0, 2]
        assert R.tolist() == [[1, 2, 0], [0, 0, 1]]

    def test_inverse(self, rng):
        # [M | I] reduces to [I | M^-1]
        eye = np.eye(4, dtype=np.int64)
        for q in (4, 5, 9):
            F = make_field(q)
            for _ in range(10):
                M = rng.integers(0, q, size=(4, 4))
                pivots, R = tc._echelon(F, np.hstack([M, eye]))
                if pivots != [0, 1, 2, 3]:  # M is singular
                    continue
                inv = R[:, 4:]
                prod = [[scalar_dot(F, inv[i], M[:, j]) for j in range(4)]
                        for i in range(4)]
                assert prod == eye.tolist()

    def test_singular_loses_pivots(self):
        F = make_field(5)
        pivots, R = tc._echelon(F, np.zeros((2, 3), dtype=np.int64))
        assert pivots == [] and R.shape == (0, 3)
        pivots, R = tc._echelon(F, [[0, 1, 2], [0, 2, 4]])
        assert pivots == [1] and R.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_reduced_and_adds_no_rank(self, rng, q):
        F = make_field(q)
        for _ in range(20):
            M = rng.integers(0, q, size=(int(rng.integers(1, 7)), 8))
            M[rng.random(M.shape) < 0.4] = 0  # force dependences
            pivots, R = tc._echelon(F, M)
            rank = len(greedy_rows(F, list(M)))
            assert len(pivots) == rank == len(R)
            assert pivots == sorted(pivots)
            assert np.array_equal(R[:, pivots], np.eye(rank))
            for i, c in enumerate(pivots):  # echelon: zero left of a pivot
                assert not R[i, :c].any()
            # R = E M for an invertible E: its rows add no rank to M's
            assert len(greedy_rows(F, list(M) + list(R))) == rank


def scalar_dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(int(x), int(y)))
    return acc


def scalar_zeros(F, msgs, G):
    """Zero count per message row of m @ G with scalar field operations."""
    out = []
    for m in msgs:
        out.append(sum(scalar_dot(F, m, G[:, j]) == 0
                       for j in range(G.shape[1])))
    return out


def build_quietly(P, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # widths beyond q - 2
        return tc.build_code(P, q)


def oracle_polytope(rng, kind, q):
    """A small random polytope: full-dimensional, lower-dimensional in
    Z^3, in Z^2, or with two lattice points equal mod q - 1."""
    if kind == "wide":
        u = [(1, 0, 0), (1, 1, 0), (1, -1, 1), (0, 1, 2)][rng.integers(4)]
        apex = [(0, 0, 1)] if rng.integers(2) else []
        return convex_hull([(0, 0, 0), tuple((q - 1) * x for x in u)]
                           + apex)
    P = random_polytope(rng, count=int(rng.integers(2, 6)), box=2,
                        ambient=2 if kind == "planar" else 3)
    if kind == "flat":
        return convex_hull([(x, y, x + y) for x, y, _ in P.vertices])
    return P


def orbit_oracle_codes(rng):
    """(q, kind, P, code) for random small polytopes P of each kind at q in
    {4, 5, 7, 8, 9}, each cheap enough for the projective sweep."""
    for q in (4, 5, 7, 8, 9):
        # a non-injective code has q points on a line, too many to
        # sweep unreduced at q = 8, 9
        kinds = ("solid", "flat", "planar") + ("wide",) * (q <= 7)
        for kind in kinds * 2:
            while True:
                P = oracle_polytope(rng, kind, q)
                code = build_quietly(P, q)
                if tc.exhaustive_cost(q, code.k, code.n) <= 3 * 10 ** 7:
                    break
            yield q, kind, P, code


def laplace_det(M):
    if not M:
        return 1
    return sum((-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j, x in enumerate(M[0]))


def characters(code):
    """The rows' characters (1, a mod q-1)."""
    q = code.field.q
    return [[1] + [x % (q - 1) for x in a] for a in code.row_exponents]


def unit_minors(q, chars):
    """Whether the gcd of the maximal minors of ``chars`` is a unit mod
    q-1, i.e. the rows are independent mod every prime dividing q-1."""
    g = 0
    for cols in itertools.combinations(range(len(chars[0])), len(chars)):
        g = math.gcd(g, laplace_det([[row[c] for c in cols] for row in chars]))
    return math.gcd(g, q - 1) == 1


def pinning_plan(code):
    """``_sweep_plan``'s groups as {free rows: sorted 0/1 bases}, by a
    depth-first walk that decides each pin by ``unit_minors``."""
    q, k, chars, groups = code.field.q, code.k, characters(code), {}

    def walk(r, pinned, free):
        if r == k:
            if pinned or free:  # not the zero message
                groups.setdefault(tuple(free), []).append(
                    tuple(int(i in pinned) for i in range(k)))
        elif len(pinned) < len(chars[0]) and \
                unit_minors(q, [chars[i] for i in pinned + [r]]):
            walk(r + 1, pinned, free)
            walk(r + 1, pinned + [r], free)
        else:
            walk(r + 1, pinned, free + [r])
    walk(0, [], [])
    return {f: sorted(b) for f, b in groups.items()}


def planned_messages(code):
    """Every message of ``_sweep_plan(code)``: each base with its free
    rows over F_q, as a (count, k) array."""
    out = []
    for bases, free in tc._sweep_plan(code)[0]:
        grid = np.array(list(itertools.product(range(code.field.q),
                                               repeat=len(free))), np.int64)
        msgs = np.repeat(bases, len(grid), axis=0)
        msgs[:, free] = np.tile(grid, (len(bases), 1))
        out.append(msgs)
    return np.concatenate(out)


def message_batches(q, k, frame, free, chunk):
    """Messages of length k, in chunks: the ``frame`` coordinates run
    through the nonzero 0/1 patterns, the ``free`` ones through F_q
    lexicographically (last one fastest), all others are 0."""
    total = (2 ** len(frame) - 1) * q ** len(free)
    for start in range(0, total, chunk):
        rest = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = np.zeros((rest.size, k), dtype=np.int64)
        for c in reversed(free):
            msgs[:, c] = rest % q
            rest = rest // q
        rest = rest + 1  # pattern index, 1 .. 2^|frame| - 1
        for c in reversed(frame):
            msgs[:, c] = rest & 1
            rest = rest >> 1
        yield msgs


def frame_levels(code):
    """The frame plan of the sweep before pinning: levels (frame, free),
    a frame a greedy set of at most m+1 of the rows left with
    ``unit_minors``, on which the rescalings reach every nonzero value
    pattern."""
    q, chars = code.field.q, characters(code)
    left, levels = list(range(code.k)), []
    while left:
        frame = []
        for r in left:
            if len(frame) < len(chars[0]) and \
                    unit_minors(q, [chars[i] for i in frame + [r]]):
                frame.append(r)
        left = [r for r in left if r not in frame]
        levels.append((frame, left))
    return levels


def projective_levels(k):
    """The frame levels of the projective sweep: one row per frame, the
    first nonzero one, with every later row free."""
    return [([r], list(range(r + 1, k))) for r in range(k)]


def frame_min_weight(code, levels=None):
    """Minimum weight by the frame sweep: per level (by default those of
    ``frame_levels``), the nonzero 0/1 patterns on the frame with the
    free rows over F_q."""
    q, k, n = code.field.q, code.k, code.n
    engine = tc._WeightEngine(code.field, code.matrix)
    best = n
    for frame, free in levels or frame_levels(code):
        c, values = (free[-1], range(q)) if free else (0, range(1))
        rows = max(1, tc._CHUNK_COORDS // (len(values) * n))
        for msgs in message_batches(q, k, frame, free[:-1], rows):
            zeros = engine.count(engine.codes(msgs), c, values).max()
            best = min(best, n - int(zeros))
    return best


class TestWeightEngine:
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 27, 81])
    def test_matches_scalar_field_ops(self, rng, q):
        F = make_field(q)
        G = rng.integers(0, q, size=(3, 11)).astype(np.int64)
        engine = tc._WeightEngine(F, G)
        msgs = rng.integers(0, q, size=(25, 3)).astype(np.int64)
        zeros = engine.zeros(msgs)
        for row in range(25):
            count = 0
            for j in range(11):
                acc = 0
                for i in range(3):
                    acc = F.add(acc, F.mul(int(msgs[row, i]), int(G[i, j])))
                count += acc == 0
            assert count == int(zeros[row])

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 27, 81])
    def test_trailing_count_matches_scalar_field_ops(self, rng, q):
        F = make_field(q)
        G = rng.integers(0, q, size=(4, 13)).astype(np.int64)
        engine = tc._WeightEngine(F, G)
        for c in range(4):
            prefixes = rng.integers(0, q, size=(9, 4)).astype(np.int64)
            prefixes[:, c] = 0
            codes = engine.codes(prefixes)
            for values in (range(1), range(q), range(1, q)):
                counts = engine.count(codes, c, values)
                assert counts.shape == (9, len(values))
                for i, a in enumerate(values):
                    msgs = prefixes.copy()
                    msgs[:, c] = a
                    assert list(counts[:, i]) == scalar_zeros(F, msgs, G)

    def test_count_in_value_slices(self, rng, monkeypatch):
        # n = 13 and chunks of 52 coordinates: slices of 4 values
        F = make_field(9)
        G = rng.integers(0, 9, size=(4, 13)).astype(np.int64)
        prefixes = rng.integers(0, 9, size=(6, 4)).astype(np.int64)
        prefixes[:, 2] = 0
        engine = tc._WeightEngine(F, G)
        codes = engine.codes(prefixes)
        whole = {v: engine.count(codes, 2, v)
                 for v in (range(9), range(1, 9), range(1))}
        monkeypatch.setattr(tc, "_CHUNK_COORDS", 52)
        for values, want in whole.items():
            assert np.array_equal(engine.count(codes, 2, values), want)

    def test_exact_past_float32_range(self, rng):
        # column 0: 16 * 1030 * 1018 + 823 = 1031 * 16273, an odd zero of
        # GF(1031) above 2^24, which float32 rounds to an even nonzero
        F = make_field(1031)
        G = rng.integers(0, 1031, size=(17, 6)).astype(np.int64)
        G[:, 0] = [1018] * 16 + [823]
        msgs = rng.integers(0, 1031, size=(4, 17)).astype(np.int64)
        msgs[0] = [1030] * 16 + [1]
        engine = tc._WeightEngine(F, G)
        zeros = engine.zeros(msgs)
        assert list(zeros) == scalar_zeros(F, msgs, G)
        assert zeros[0] >= 1
        # the same zero as prefix (last entry 0) plus 1 * row 16, and as
        # prefix 1030 * e_0 + ... plus 1030 * row 0
        for c, a in ((16, 1), (0, 1030)):
            prefixes = msgs.copy()
            prefixes[:, c] = 0
            counts = engine.count(engine.codes(prefixes), c, range(1031))
            assert [int(counts[i, msgs[i, c]]) for i in range(4)] == \
                list(zeros)

    def test_inexact_even_in_float64_raises(self):
        # k (p-1)^2 > 2^53: no float product is exact
        field = SimpleNamespace(q=2 ** 21, p=2 ** 21, e=1)
        with pytest.raises(ValueError, match="not exact"):
            tc._WeightEngine(field, np.zeros((2 ** 11 + 1, 1), np.int64))


class TestBuildCode:
    def test_p8_params(self):
        P = named_polytope("P8")
        with pytest.warns(UserWarning):
            code = tc.build_code(P, 5)
        assert (code.n, code.k, P.n_points) == (64, 8, 8)

    def test_q8_params(self):
        with pytest.warns(UserWarning):
            code = tc.build_code(named_polytope("Q8"), 9)
        assert (code.n, code.k) == (512, 8)

    def test_single_point(self):
        code = tc.build_code(convex_hull([(1, 2, 3)]), 7)
        assert (code.n, code.k) == (216, 1)
        assert np.all(code.matrix != 0)  # monomials vanish nowhere

    def test_noninjective_collision(self):
        # x^0 and x^{q-1} agree on the torus, so the evaluation map drops rank
        q = 5
        seg = convex_hull([(0, 0, 0), (q - 1, 0, 0)])
        with pytest.warns(UserWarning):
            code = tc.build_code(seg, q)
        assert code.k == q - 1 < seg.n_points

    def test_row_exponents_refused(self):
        # the row exponents prove the rank: two rows congruent mod q - 1
        # are one character, and there is one per row
        code = tc.build_code(named_polytope("S1"), 5)
        rows = code.row_exponents
        with pytest.raises(ValueError, match=r"\(4, 64\) of rank 3 is not"):
            dataclasses.replace(code, row_exponents=rows[:3] + ((4, 0, 0),))
        with pytest.raises(ValueError, match="3 row exponents for 4 rows"):
            dataclasses.replace(code, row_exponents=rows[:3])
        with pytest.raises(ValueError, match="0 row exponents for 4 rows"):
            dataclasses.replace(code, row_exponents=())
        assert dataclasses.replace(code, row_exponents=rows[:3] + ((5, 0, 0),)
                                   ).k == 4

    def test_torus_size_refused(self):
        # row exponents in Z^m promise the columns of the torus (F_q^*)^m,
        # on which the translations act regularly
        code = tc.build_code(named_polytope("S1"), 5)
        with pytest.raises(ValueError, match=r"63 columns are not the torus "
                           r"\(F_5\^\*\)\^3"):
            dataclasses.replace(code, matrix=code.matrix[:, :63])
        with pytest.raises(ValueError, match=r"64 columns .* \(F_5\^\*\)\^2"):
            dataclasses.replace(code, row_exponents=tuple(
                a[:2] for a in code.row_exponents))
        with pytest.raises(ValueError, match="0 row exponents for 4 rows"):
            dataclasses.replace(code, matrix=code.matrix[:, :63],
                                row_exponents=())

    def test_build_memory_is_the_generator(self):
        # S1 at q = 64: k = 4 rows of n = 63^3 one-byte codes; the bound
        # holds the int64 discrete logs of those rows, not an elimination
        code, peak = traced_peak(tc.build_code, named_polytope("S1"), 64)
        assert (code.k, code.n) == (4, 250_047)
        assert code.matrix.itemsize == 1
        assert peak < 24 * 2 ** 20, peak
        # one lattice point at q = 101: the int64 logs of its row and its
        # codes, 9 bytes per entry, and no (m, n) grid of discrete logs
        code, peak = traced_peak(tc.build_code, convex_hull([(1, 2, 3)]), 101)
        assert (code.k, code.n) == (1, 100 ** 3)
        assert peak < 10 * code.n, peak / code.n

    def test_rows_are_monomial_evaluations(self):
        F = make_field(5)
        P = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        code = tc.build_code(P, 5)
        assert code.row_exponents == P.lattice_points == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert np.all(code.matrix[0] == 1)  # the constant monomial

    def test_basis_matches_elimination(self, rng):
        # the rows are the pivot rows of the full evaluation matrix
        kinds = set()
        for i in range(60):
            n, q = 2 + i % 2, (2, 3, 4, 5, 7, 8, 9)[i % 7]
            P = random_polytope(rng, count=int(rng.integers(1, 7)), box=4,
                                ambient=n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = tc.build_code(P, q)
            F, pts = code.field, list(P.lattice_points)
            grid = np.indices((q - 1,) * n).reshape(n, -1)
            evals = F.exp[(np.array(pts) @ grid) % (q - 1)]
            basis = tc._echelon(F, evals.T)[0]
            assert code.row_exponents == tuple(pts[j] for j in basis)
            assert np.array_equal(code.matrix, evals[basis])
            assert code.k == len(basis)
            assert len(tc._echelon(F, code.matrix)[0]) == code.k
            assert code.matrix.dtype == np.min_scalar_type(q - 1)
            kinds.add(code.k == len(pts))
        assert kinds == {True, False}


class TestMinWeight:
    def test_repetition_code(self):
        code = tc.build_code(convex_hull([(2, 2, 2)]), 5)
        assert tc.min_weight_exhaustive(code) == 64
        assert tc.min_weight_bz(code) == 64

    def test_p8_q5(self):
        with pytest.warns(UserWarning):
            code = tc.build_code(named_polytope("P8"), 5)
        assert tc.min_weight_exhaustive(code) == 36
        assert tc.min_weight_bz(code) == 36

    def test_sweep_memory_bounded_by_the_chunk(self, monkeypatch):
        # conv{0, 2 e_1} at q = 257: n = 256^2, and the trailing row
        # compares q values of it, q n ~ 2^24 codes; chunks of 2^18
        # coordinates hold 4 of them at a time
        code = tc.build_code(convex_hull([(0, 0), (2, 0)]), 257)
        monkeypatch.setattr(tc, "_CHUNK_COORDS", 1 << 18)
        d, peak = traced_peak(tc.min_weight_exhaustive, code)
        assert d == code.n - 2 * 256  # a + b x + c x^2: two roots x
        assert peak < 16 * 2 ** 20, peak

    def test_engines_in_cache_sized_chunks(self):
        # at the default budget: chunks of 2^23 coordinates held 41 MB
        # (EX72 at q = 4, exhaustive) and 12 MB (P8 at q = 7, BZ).  The
        # sweep of EX72 has up to 7 free rows, whose digits would fill a
        # 10 MB table of 7^6 messages at q = 7; P8 at q = 13 has n = 1728
        for name, q, d, free in (("EX72", 4, 6, 7), ("EX72", 7, 216 - 90, 7),
                                 ("P8", 13, 1535, 4)):
            code = build_quietly(named_polytope(name), q)
            assert max(len(f) for _, f in tc._sweep_plan(code)[0]) == free
            got, peak = traced_peak(tc.min_weight_exhaustive, code)
            assert got == d and peak < 6 * 2 ** 20, (name, q, peak)
        p8 = build_quietly(named_polytope("P8"), 7)
        d, peak = traced_peak(tc.min_weight_bz, p8)
        assert d == 162 and peak < 6 * 2 ** 20, peak

    @pytest.mark.parametrize("name,q,d,stop", [
        ("T1", 8, 280, 4), ("EX72", 5, 24, 3), ("EX72", 4, 6, 2),
        ("P8", 7, 162, 5)])
    def test_bz_stops_at_the_averaging_bound(self, monkeypatch, name, q, d,
                                             stop):
        # one engine on one information set, swept to the least weight w
        # with ceil(n (w+1) / k) >= d
        code = build_quietly(named_polytope(name), q)
        levels, engines = [], []
        batches, engine = tc._bz_batches, tc._WeightEngine

        def counted_batches(q, k, w, rows):
            levels.append(w)
            return batches(q, k, w, rows)

        def counted_engine(field, gen):
            engines.append(gen.shape)
            return engine(field, gen)
        monkeypatch.setattr(tc, "_bz_batches", counted_batches)
        monkeypatch.setattr(tc, "_WeightEngine", counted_engine)
        assert tc.min_weight_bz(code) == d
        n, k = code.n, code.k
        assert stop == min(w for w in range(1, k + 1)
                           if -(-n * (w + 1) // k) >= d)
        assert (max(levels), engines) == (stop, [(k, n)])

    def test_bz_memory_is_one_set(self):
        # conv{0, 2 e_1} at q = 257: n = 256^2 and k = 3.  BZ holds one
        # systematic generator and its chunks
        code = tc.build_code(convex_hull([(0, 0), (2, 0)]), 257)
        d, peak = traced_peak(tc.min_weight_bz, code)
        assert d == code.n - 2 * 256  # a + b x + c x^2: two roots x
        assert peak < 24 * 2 ** 20, peak

    @pytest.mark.parametrize("name,q", [("P8", 5), ("T1", 4), ("T1", 8),
                                        ("T1", 9), ("Q8", 4)])
    def test_engines_unchanged_by_tiny_chunks(self, monkeypatch, name, q):
        # one message per chunk and one value per slice; T1 at q = 9
        # combines base-3 digits across 3^t, Q8 at q = 4 pins up to 4 rows
        code = build_quietly(named_polytope(name), q)
        dtype = np.min_scalar_type(q - 1)
        assert tc._WeightEngine(code.field, code.matrix)._minus_g.dtype == \
            dtype
        want = tc.min_weight_exhaustive(code)
        assert tc.min_weight_bz(code) == want
        monkeypatch.setattr(tc, "_CHUNK_COORDS", 1)
        assert tc.min_weight_exhaustive(code) == want
        assert tc.min_weight_bz(code) == want

    def test_orbit_reduction_matches_projective_sweep(self, rng):
        # the pinned sweep against the frame sweep that the pinning
        # replaced and the projective sweep, one pinned row
        reduced = 0
        for q, kind, P, code in orbit_oracle_codes(rng):
            assert len(code.row_exponents) == code.k
            assert (code.k == P.n_points) == (kind != "wide")
            assert tc.min_weight_exhaustive(code) == frame_min_weight(code) \
                == frame_min_weight(code, projective_levels(code.k)), \
                (q, kind, P)
            projective = tc.exhaustive_cost(q, code.k, code.n)
            reduced += tc._sweep_plan(code)[1] < projective
        assert reduced >= 20

    def test_translates_match_multi_set_bz(self, rng):
        # BZ on one information set with the averaging bound, over the
        # torus translates of that set, against the exhaustive sweep
        for q, kind, P, code in orbit_oracle_codes(rng):
            assert tc.min_weight_bz(code) == tc.min_weight_exhaustive(code), \
                (q, kind, P)
        # tiny tori: one point (q = 2), and T0 at q = 3
        for name, q, d in (("P8", 2, 1), ("T0", 3, 2)):
            code = build_quietly(named_polytope(name), q)
            assert tc.min_weight_bz(code) == tc.min_weight_exhaustive(code) \
                == d, (name, q)

    def test_budget_guard(self):
        P = convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
        code = tc.build_code(P, 7)  # k = 20: sweep is out of budget
        assert tc.exhaustive_cost(7, code.k, code.n) > tc.BUDGET
        with pytest.raises(tc.BudgetExceeded, match="BZ"):
            tc.min_weight_exhaustive(code)
        ex72 = tc.build_code(named_polytope("EX72"), 11)  # 2.9e10 updates
        with pytest.raises(tc.BudgetExceeded, match="BZ"):
            tc.min_weight(ex72, engine="exhaustive")

    def test_auto_engine_dispatch(self, monkeypatch):
        with pytest.warns(UserWarning):
            code = tc.build_code(named_polytope("P8"), 5)
        plan, plans = tc._sweep_plan, []

        def counted_plan(c):
            plans.append(c)
            return plan(c)
        monkeypatch.setattr(tc, "_sweep_plan", counted_plan)
        assert tc.min_weight(code) == 36
        assert plans == [code]  # the sweep reuses auto's plan


def segment(lo, hi):
    """The lattice segment [lo, hi] in Z^1, as ``build_code`` reads it."""
    return SimpleNamespace(lattice_points=[(x,) for x in range(lo, hi + 1)],
                           ambient=1)


def tiny_codes(rng):
    """Codes with k <= 5 on tori of dimension m in {1, 2, 3} at q in
    {4, 5, 7}: segments in Z and random polytopes in Z^2 and Z^3.  At
    q = 7, [0, 3] has (1, 0), (1, 2) independent mod 3 but not mod 2,
    and (1, 0), (1, 3) the other way round."""
    for q in (4, 5, 7):
        yield from (build_quietly(segment(lo, lo + 3), q) for lo in (0, -1))
        for m in (2, 3):
            for _ in range(4):
                while True:
                    P = random_polytope(rng, count=int(rng.integers(2, 5)),
                                        box=3, ambient=m)
                    if P.n_points <= 5:
                        break
                yield build_quietly(P, q)


class TestSweepPlan:
    def test_orbits_meet_the_plan(self, rng):
        # every nonzero message has a rescaling (lambda, t) in the plan,
        # and the plan sweeps each of its messages once
        for code in tiny_codes(rng):
            F, q, k = code.field, code.field.q, code.k
            chars = np.array(characters(code))
            logs = np.indices((q - 1,) * chars.shape[1]).reshape(
                chars.shape[1], -1)  # (lambda, t) in log coordinates
            scale = F.exp[(chars @ logs) % (q - 1)].T  # per group element
            msgs = planned_messages(code)
            images = F.mul(msgs[:, None, :], scale[None]).reshape(-1, k)
            assert np.array_equal(np.unique(images @ q ** np.arange(k)),
                                  np.arange(1, q ** k)), code.row_exponents
            assert len(np.unique(msgs @ q ** np.arange(k))) == len(msgs) \
                == tc._sweep_plan(code)[1] // code.n

    def test_pinning_matches_minor_gcd(self, rng):
        for q, kind, P, code in orbit_oracle_codes(rng):
            plan = {tuple(f): sorted(map(tuple, b.tolist()))
                    for b, f in tc._sweep_plan(code)[0]}
            assert plan == pinning_plan(code), (q, kind, code.row_exponents)

    def test_message_counts(self):
        for q, k, n in ((2, 5, 1), (5, 8, 64), (9, 11, 512)):
            assert tc.exhaustive_cost(q, k, n) == (q ** k - 1) // (q - 1) * n
        for name, q, count in (("P8", 7, 4_770), ("P8", 5, 1_644),
                               ("EX72", 4, 52_587), ("EX72", 8, 3_583_399),
                               ("T1", 8, 43)):
            code = build_quietly(named_polytope(name), q)
            assert tc._sweep_plan(code)[1] == count * code.n, (name, q)


def greedy_rows(F, rows):
    """Row-by-row greedy independent subset (the elimination oracle)."""
    pivots, basis = [], []
    for idx, r in enumerate(rows):
        r = np.array(r, dtype=np.int64)
        for col, pr in pivots:
            if r[col] != 0:
                r = F.sub(r, F.mul(int(r[col]), pr))
        nz = np.flatnonzero(r)
        if nz.size:
            col = int(nz[0])
            pivots.append((col, F.mul(F.inv(int(r[col])), r)))
            basis.append(idx)
    return basis


class TestInformationSets:
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_row_reduce_matches_greedy(self, rng, q):
        F = make_field(q)
        for _ in range(20):
            rows = rng.integers(0, q, size=(int(rng.integers(1, 9)), 7))
            rows[rng.random(rows.shape) < 0.5] = 0  # force dependences
            assert tc._echelon(F, rows.T)[0] == greedy_rows(F, list(rows))

def old_bz_messages(q, k, w, chunk):
    """BZ's weight-w messages as the loop over supports enumerated them:
    first nonzero entry 1, the others nonzero, lexicographically."""
    out = []
    for supp in itertools.combinations(range(k), w):
        for b in message_batches(q, w, [0], range(1, w), chunk):
            live = b[np.all(b != 0, axis=1)]
            msgs = np.zeros((len(live), k), dtype=np.int64)
            msgs[:, list(supp)] = live
            out.extend(map(tuple, msgs.tolist()))
    return out


def bz_messages(q, k, w, rows):
    """The messages of ``_bz_batches`` in their order: per chunk and cut,
    the prefixes with the trailing value running fastest."""
    values = range(1, q if w > 1 else 2)
    out = []
    for prefixes, cuts in tc._bz_batches(q, k, w, rows):
        assert len(prefixes) <= rows
        for c, end in cuts:
            # the trailing value lands on a zero column
            assert end > 0 and not prefixes[:end, c:].any()
            for p in prefixes[:end].tolist():
                out.extend(tuple(p[:c] + [a] + p[c + 1:]) for a in values)
    return out


class TestBzRows:
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_nonzero_rows_match_filtered_sweep(self, q):
        # on a full support (k = w) BZ's rows are those of the sweep with
        # first entry 1 and the others nonzero, in the same order
        for w in range(1, 5):
            want = [tuple(r) for b in message_batches(
                q, w, [0], range(1, w), 1 << 20)
                for r in b[np.all(b != 0, axis=1)].tolist()]
            for rows in (1, 5, 64, 1 << 20):
                assert bz_messages(q, w, w, rows) == want, (w, rows)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_bz_batches_match_per_support_loop(self, q):
        # prefix x trailing-value groups against the loop over supports
        for k in range(1, 7 if q <= 7 else 5):
            for w in range(1, k + 1):
                want = sorted(old_bz_messages(q, k, w, 1 << 20))
                for rows in (1, 5, 64, 1 << 20):
                    got = bz_messages(q, k, w, rows)
                    assert sorted(got) == want, (k, w, rows)


class TestMaxZeroCount:
    def test_ex72_q5(self):
        assert tc.max_zero_count(named_polytope("EX72"), 5) == 40

    def test_matches_definition(self, rng):
        P = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
        code = tc.build_code(P, 5)
        d = tc.min_weight(code)
        assert tc.max_zero_count(P, 5) == code.n - d


class TestParamsReport:
    def test_p8_q5(self):
        with pytest.warns(UserWarning):
            cp = tc.params_report(named_polytope("P8"), 5)
        assert (cp.n, cp.k, cp.d) == (64, 8, 36)
        assert cp.N_P == cp.n - cp.d
        assert cp.griesmer_d == 47 and cp.gv_d == 37
        assert cp.d <= cp.griesmer_d
        names = [r.name for r, _ in cp.bound_reports]
        assert "griesmer" in names and "simplex" in names

    def test_hypothesis_flags_suppress_claims(self):
        with pytest.warns(UserWarning):
            cp = tc.params_report(named_polytope("P8"), 5)
        for rep, holds in cp.bound_reports:
            unmet = any(met is False for _, met in rep.hypotheses)
            if unmet:
                assert holds is None

    def test_in_box_bounds_hold(self):
        P = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
        cp = tc.params_report(P, 7)
        for rep, holds in cp.bound_reports:
            if rep.name == "simplex":
                assert holds is True
