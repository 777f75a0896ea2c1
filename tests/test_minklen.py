import itertools

import pytest

from conftest import random_affine_map, random_points, random_polytope
from toric3.catalog import named_polytope
from toric3.geometry import (UnimodularMap, canonical_sign, convex_hull,
                             equivalent, erode, is_primitive, lattice_points,
                             minkowski_sum, vadd, vneg, vsub)
from toric3.minklen import (_ChainSearch, _directions, _pack, _vector,
                            add_tetra_huh, add_triangle_huh, classify_pair,
                            classify_triple, find_segments, find_tetra,
                            find_triangles, good_polytope, has_length_at_most,
                            is_dps, maximal_segment_decompositions,
                            minkowski_length, three_segments_width_scan)

UNIT_TRIANGLE = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def scaled_simplex(d):
    return convex_hull([(0, 0, 0), (d, 0, 0), (0, d, 0), (0, 0, d)])


def cube(d):
    return convex_hull([(d * x, d * y, d * z)
                        for x in (0, 1) for y in (0, 1) for z in (0, 1)])


# the smallest empty polytope of Minkowski length 1 whose pair sum with a
# unit triangle still has length > 2: a segment in direction (3,1,0) glued
# over a flat triangle at height 1
P6 = convex_hull([(0, 0, 0), (3, 1, 0), (1, 0, 1), (0, 1, 1),
                  (-1, -1, 1), (0, 0, 1)])


class TestMinkowskiLength:
    def test_simplices(self):
        for d in (1, 2, 3, 4):
            assert minkowski_length(scaled_simplex(d))[0] == d

    def test_cubes(self):
        assert minkowski_length(cube(1))[0] == 3
        assert minkowski_length(cube(2))[0] == 6

    def test_segment(self):
        seg = convex_hull([(0, 0, 0), (0, 0, 5)])
        assert minkowski_length(seg)[0] == 5

    def test_point(self):
        assert minkowski_length(convex_hull([(1, 2, 3)]))[0] == 0

    def test_catalog_sums(self):
        K1 = named_polytope("K1")
        S1 = named_polytope("S1")
        S2 = named_polytope("S2")
        assert minkowski_length(minkowski_sum(K1, K1))[0] == 2
        three_s2 = minkowski_sum(minkowski_sum(S2, S2), S2)
        assert minkowski_length(three_s2)[0] == 3
        E2S2 = minkowski_sum(named_polytope("E"), minkowski_sum(S2, S2))
        assert minkowski_length(E2S2)[0] == 3
        assert minkowski_length(
            minkowski_sum(minkowski_sum(K1, K1), S1))[0] >= 4

    def test_certificate_verifies(self, rng):
        for _ in range(30):
            P = random_polytope(rng, count=int(rng.integers(2, 7)), box=3)
            L, cert = minkowski_length(P)
            assert cert.length == L
            assert cert.verify(P)

    def test_invariant_under_equivalence(self, rng):
        for _ in range(20):
            P = random_polytope(rng, count=5, box=3)
            Q = random_affine_map(rng).apply_polytope(P)
            assert minkowski_length(P)[0] == minkowski_length(Q)[0]

    def test_monotone_under_inclusion(self, rng):
        for _ in range(20):
            P = random_polytope(rng, count=6, box=3)
            pts = list(lattice_points(P))
            sub = [pts[i] for i in
                   rng.choice(len(pts), size=max(1, len(pts) // 2),
                              replace=False)]
            Q = convex_hull(sub)
            assert minkowski_length(Q)[0] <= minkowski_length(P)[0]

    def test_sub_decomposition_lengths(self):
        P = minkowski_sum(named_polytope("K1"), named_polytope("K1"))
        L, cert = minkowski_length(P)
        assert L == 2
        for u in cert.directions:
            assert minkowski_length(convex_hull([(0, 0, 0), u]))[0] == 1


class TestDps:
    def test_catalog_rows_are_dps(self):
        for name in ("T0", "S1", "S2", "E", "K1", "K2"):
            assert is_dps(named_polytope(name))

    def test_sum_is_not(self):
        K1 = named_polytope("K1")
        assert not is_dps(minkowski_sum(K1, K1))


class TestDecompositions:
    def test_cube_directions(self):
        decs = maximal_segment_decompositions(cube(1))
        assert len(decs) == 1
        assert sorted(decs[0].directions) == \
            sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_simplex2(self):
        decs = maximal_segment_decompositions(scaled_simplex(2))
        assert all(d.length == 2 for d in decs)
        assert all(d.verify(scaled_simplex(2)) for d in decs)


class TestSegmentSearch:
    def test_t0_short_directions(self):
        T0 = named_polytope("T0")
        dirs = find_segments(T0, 2)
        assert len(dirs) == 16
        assert max(abs(u[2]) for u in dirs) == 2

    def test_good_polytope_region_contains_origin_neighbours(self):
        region = good_polytope(UNIT_TRIANGLE)
        assert region.contains((0, 0, 1))


class TestTriangleTetraSearch:
    def test_triangles_of_T1(self):
        tris = find_triangles(named_polytope("T1"))
        verts = sorted(sorted(t.vertices) for t in tris)
        assert verts == [
            [(0, 0, 0), (0, 0, 1), (0, 1, 0)],
            [(0, 0, 0), (0, 0, 1), (1, 0, 0)],
            [(0, 0, 0), (1, 1, 0), (1, 1, 1)],
        ]

    def test_no_triangles_for_T2(self):
        assert find_triangles(named_polytope("T2")) == []

    def test_add_triangle_predicate(self):
        assert add_triangle_huh(named_polytope("T1"))
        assert not add_triangle_huh(named_polytope("T2"))

    def test_tetra_of_E(self):
        tets = find_tetra(named_polytope("E"))
        assert len(tets) == 1
        assert equivalent(tets[0], named_polytope("S2")) is not None

    def test_tetra_of_K2_is_S(self):
        tets = find_tetra(named_polytope("K2"))
        assert len(tets) == 1
        assert sorted(tets[0].vertices) == sorted(named_polytope("S").vertices)

    def test_add_tetra_predicate(self):
        assert add_tetra_huh(named_polytope("K2"))


def combination_summands(P, segs, k, cs):
    """The summand search by every (k-1)-combination of the signed
    directions segs = find_segments(P, 2), each tested edge by edge: the
    oracle of the clique enumeration in ``_find_summands``."""
    dirset = set(segs)
    signed = segs + [vneg(u) for u in segs]
    seen, out = set(), []
    for rest in itertools.combinations(signed, k - 1):
        pts = ((0,) * P.ambient,) + rest
        if any(canonical_sign(vsub(y, x)) not in dirset
               for x, y in itertools.combinations(pts, 2)):
            continue
        m = min(pts)
        key = tuple(sorted(vsub(v, m) for v in pts))
        if key in seen:
            continue
        seen.add(key)
        T = convex_hull(key)
        if T.n_points != k or len(T.vertices) != k:
            continue
        if minkowski_length(T, cs)[0] != 1:
            continue
        if not cs.reach(*_pack(minkowski_sum(P, T).lattice_points), 3):
            out.append(T)
    return sorted(out, key=lambda T: T.vertices)


class TestSummandCliques:
    @pytest.mark.parametrize("name", ["E", "K2", "T1", "T2"])
    def test_against_combinations(self, rng, name):
        P = named_polytope(name)
        hosts = [P] + [random_affine_map(rng).apply_polytope(P)
                       for _ in range(2)]
        for host in hosts:
            cs, ref = _ChainSearch(), _ChainSearch()  # shared by k = 3, 4
            segs = find_segments(host, 2, search=ref)
            for k, search in ((3, find_triangles), (4, find_tetra)):
                got = [T.vertices for T in search(host, cs)]
                want = [T.vertices
                        for T in combination_summands(host, segs, k, ref)]
                assert got == want
                assert (len(cs.proved), len(cs.refuted)) == \
                    (len(ref.proved), len(ref.refuted))


class TestClassifyPair:
    def test_catalog_labels(self):
        K1 = named_polytope("K1")
        assert classify_pair(K1, K1).label == "(K1,K1)"
        assert classify_pair(K1, named_polytope("S1")).label == "(K1,S1)"
        assert classify_pair(named_polytope("K2"),
                             named_polytope("S")).label == "(K2,S)"
        assert classify_pair(named_polytope("E"),
                             named_polytope("S2")).label == "(E,S2)"
        S1, S2 = named_polytope("S1"), named_polytope("S2")
        assert classify_pair(S1, S1).label == "(S1,S1)"
        assert classify_pair(S1, S2).label == "(S1,S2)"
        assert classify_pair(S2, S2).label == "(S2,S2)"

    def test_order_insensitive(self):
        S1, S2 = named_polytope("S1"), named_polytope("S2")
        assert classify_pair(S2, S1).label == "(S1,S2)"

    def test_length_above_two(self):
        tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert classify_pair(P6, tri).label == "length>2"

    def test_small_summand(self):
        seg = convex_hull([(0, 0, 0), (1, 0, 0)])
        res = classify_pair(seg, named_polytope("S1"))
        assert res.label == "unclassified-small"

    def test_requires_length_one(self):
        K1 = named_polytope("K1")
        big = minkowski_sum(K1, K1)
        with pytest.raises(ValueError):
            classify_pair(big, K1)


class TestClassifyTriple:
    def test_catalog_labels(self):
        S1, S2 = named_polytope("S1"), named_polytope("S2")
        E = named_polytope("E")
        assert classify_triple(S1, S1, S1).label == "(i)"
        assert classify_triple(S1, S2, S2).label == "(ii)"
        assert classify_triple(S2, S2, S2).label == "(iii)"
        assert classify_triple(E, S2, S2).label == "(iv)"

    def test_length_not_three(self):
        K1 = named_polytope("K1")
        S1 = named_polytope("S1")
        assert classify_triple(K1, K1, S1).label == "length!=3"


class TestClassificationWitness:
    """The witness (phi, translations) of a label carries input i onto a
    catalog member of the label by UnimodularMap(phi.matrix, t_i)."""

    M = ((1, 2, 0), (0, 1, 0), (1, 1, 1))  # det 1

    def check(self, names, inputs, res, label):
        assert res.label == label
        phi, shifts = res.witness
        assert len(shifts) == len(inputs)
        moved = [UnimodularMap(phi.matrix, t).apply_polytope(P)
                 for P, t in zip(inputs, shifts)]
        assert sorted(P.vertices for P in moved) == \
            sorted(named_polytope(n).vertices for n in names)

    def moved(self, names, shifts):
        return [UnimodularMap(self.M, t).apply_polytope(named_polytope(n))
                for n, t in zip(names, shifts)]

    def test_pair_in_reverse_catalog_order(self):
        S2, S1 = self.moved(("S2", "S1"), ((3, 0, -1), (-2, 5, 1)))
        self.check(("S1", "S2"), (S2, S1), classify_pair(S2, S1), "(S1,S2)")
        plain = (named_polytope("S2"), named_polytope("S1"))
        self.check(("S1", "S2"), plain, classify_pair(*plain), "(S1,S2)")

    def test_triples_out_of_catalog_order(self):
        for names, label in ((("S2", "S1", "S2"), "(ii)"),
                             (("S2", "S2", "E"), "(iv)")):
            inputs = self.moved(names, ((1, 0, 0), (0, -3, 2), (4, 1, -1)))
            self.check(names, inputs, classify_triple(*inputs), label)


class TestSweeps:
    def test_three_segments_cases(self):
        assert three_segments_width_scan(1) == 9
        assert three_segments_width_scan(2) == 4


class ReferenceSearch:
    """Tuple-level erosion-chain search, the oracle of the packed kernel:
    candidate directions are the sorted canonical primitive differences of
    the points, erosion is ``geometry.erode`` and the memo is keyed by the
    translated point set."""

    def __init__(self):
        self.proved, self.refuted = {}, {}

    @staticmethod
    def directions(S):
        return sorted({canonical_sign(vsub(b, a))
                       for a, b in itertools.permutations(S, 2)
                       if is_primitive(vsub(b, a))})

    def reach(self, S, need):
        if need <= 0:
            return True
        if len(S) <= need:
            return False
        m = min(S)
        key = frozenset(vsub(x, m) for x in S)
        if self.proved.get(key, 0) >= need:
            return True
        if self.refuted.get(key, 1 << 60) <= need:
            return False
        for u in self.directions(S):
            S2 = erode(S, u)
            if len(S2) > need - 1 and self.reach(S2, need - 1):
                self.proved[key] = max(self.proved.get(key, 0), need)
                return True
        self.refuted[key] = min(self.refuted.get(key, 1 << 60), need)
        return False

    def length(self, S):
        L = 0
        while self.reach(S, L + 1):
            L += 1
        dirs = []
        for k in range(L, 0, -1):
            for u in self.directions(S):
                S2 = erode(S, u)
                if len(S2) > k - 1 and self.reach(S2, k - 1):
                    dirs.append(u)
                    S = S2
                    break
        return L, tuple(sorted(dirs)), min(S)

    def decompositions(self, S, L):
        out = []

        def dfs(S, prefix):
            if len(prefix) == L:
                out.append((tuple(prefix), min(S)))
                return
            for u in self.directions(S):
                if prefix and u < prefix[-1]:
                    continue
                S2 = erode(S, u)
                if len(S2) > L - len(prefix) - 1 and \
                        self.reach(S2, L - len(prefix) - 1):
                    dfs(S2, prefix + [u])

        dfs(S, [])
        return sorted(out)


def oracle_point_sets(rng):
    """Seeded point sets in Z^2 and Z^3, most of them polytope lattice
    points: random hulls, flat ones in Z^3, and copies translated by
    +-10^12; plus arbitrary clouds."""
    out = []
    for i in range(330):
        ambient = 2 + i % 2
        box = int(rng.integers(1, 5))
        pts = random_points(rng, int(rng.integers(2, 8)), box, ambient)
        kind = i % 5
        if kind == 1 and ambient == 3:  # flat: a tilted plane in Z^3
            pts = [(x, y, x + 2 * y) for x, y, _ in pts]
        if kind == 4:  # an arbitrary cloud, not the points of a polytope
            S = set(pts)
        else:
            S = set(lattice_points(convex_hull(pts)))
        if i % 3 == 2:
            shift = tuple(int(rng.choice([-1, 1])) * 10 ** 12
                          for _ in range(ambient))
            S = {vadd(p, shift) for p in S}
        out.append(S)
    return out


class TestPackedChainSearchOracle:
    """The packed kernel visits the same search as the tuple reference:
    same lengths, certificates, decompositions and memo sizes."""

    def compare(self, sets):
        packed, ref = {}, {}
        for S in sets:
            n = len(next(iter(S)))
            cs = packed.setdefault(n, _ChainSearch())
            rs = ref.setdefault(n, ReferenceSearch())
            if len(S) == 1:
                assert minkowski_length(S, cs)[0] == 0
                continue
            L, cert = minkowski_length(S, cs)
            assert (L, cert.directions, cert.anchor) == rs.length(S)
            decs = maximal_segment_decompositions(S, cs)
            assert [(d.directions, d.anchor) for d in decs] == \
                rs.decompositions(S, L)
            assert has_length_at_most(S, L, cs) and \
                not has_length_at_most(S, L - 1, cs)
            assert not rs.reach(S, L + 1) and rs.reach(S, L)
            assert (len(cs.proved), len(cs.refuted)) == \
                (len(rs.proved), len(rs.refuted))

    def test_seeded_sets(self, rng):
        self.compare(oracle_point_sets(rng))

    def test_directions(self, rng):
        # the least difference is yielded before the pair set is built,
        # and skipped when it is not primitive
        hand = [{(0, 0, 0), (0, 0, 2), (0, 0, 5)}, {(0, 0), (0, 2), (1, 0)},
                {(0, 0), (2, 2), (5, 5)}, {(3, 4, 5)}]
        for S in oracle_point_sets(rng) + hand:
            frame, packed = _pack(S)
            assert [_vector(frame, d) for d in _directions(frame, packed)] \
                == ReferenceSearch.directions(S)

    def test_wide_spread(self):
        # coordinate spreads of 2^22 and more need a wider packing
        big = 1 << 22
        for S in ({(0, 0, 0), (1, big, 0)},
                  {(-big, 3), (big, 4)},
                  {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (5, big, 7)},
                  {vadd(p, t) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
                   for t in [(0, 0, 0), (1, big, 1)]}):
            self.compare([S])
        assert minkowski_length({(0, 0, 0), (1, big, 0)})[1].directions \
            == ((1, big, 0),)
