import pytest

from conftest import random_affine_map, random_polytope
from toric3.catalog import named_polytope
from toric3.geometry import (UnimodularMap, convex_hull, equivalent,
                             lattice_points, minkowski_sum)
from toric3.minklen import (add_tetra_huh, add_triangle_huh, classify_pair,
                            classify_triple, find_segments, find_tetra,
                            find_triangles, good_polytope, is_dps,
                            maximal_segment_decompositions, minkowski_length,
                            three_segments_width_scan)

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
