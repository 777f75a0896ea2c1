import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import (random_affine_map, random_points, random_polytope,
                      random_unimodular)
from toric3 import geometry
from toric3.catalog import catalog_names, named_polytope
from toric3.geometry import (_BATCH_CELLS, Polytope, RationalHalfSpaceSystem,
                             UnimodularMap, _adjugate, _hnf_transform,
                             _normal_form, ambient_vol3, canonical_sign,
                             convex_hull, cross, equivalent, erode, int_rank,
                             is_primitive, lattice_points, lattice_width,
                             mat_det, mat_mul, mat_vec, minkowski_sum,
                             mixed_area, normalized_volume, primitive,
                             segment_sums, shape_predicates, tuple_equivalent,
                             vadd, vdot, vneg, vol2, vsub, width_in_direction)
from toric3.minklen import good_polytope


UNIT_CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
SIMPLEX = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestConvexHull:
    def test_cube(self):
        P = convex_hull(UNIT_CUBE + [(0, 0, 0)])
        assert P.dim == 3
        assert set(P.vertices) == set(UNIT_CUBE)
        assert P.n_points == 8

    def test_interior_point_dropped(self):
        P = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                         (1, 1, 0)])
        assert (1, 1, 0) not in P.vertices
        assert P.contains((1, 1, 0))

    def test_segment_and_point(self):
        seg = convex_hull([(1, 2, 3), (3, 4, 5), (2, 3, 4)])
        assert seg.dim == 1
        assert set(seg.vertices) == {(1, 2, 3), (3, 4, 5)}
        pt = convex_hull([(5, -1, 2)])
        assert pt.dim == 0 and pt.n_points == 1

    def test_planar_in_3d(self):
        P = convex_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)])
        assert P.dim == 2
        assert P.n_points == 9

    def test_idempotent_on_random(self, rng):
        for _ in range(200):
            P = random_polytope(rng, count=int(rng.integers(2, 9)), box=6)
            Q = convex_hull(lattice_points(P))
            assert set(Q.vertices) == set(P.vertices)

    def test_lattice_points_against_brute_force(self, rng):
        for _ in range(30):
            P = random_polytope(rng, count=int(rng.integers(2, 7)), box=4)
            box = range(-1, 6)
            expected = {p for p in itertools.product(box, box, box)
                        if P.contains(p)}
            assert set(lattice_points(P)) == expected

    def test_flat_lattice_points_against_brute_force(self, rng):
        # tilted planes and segments in Z^3 go through the integer frame
        done = 0
        while done < 60:
            base = random_points(rng, int(rng.integers(2, 6)), 3, ambient=2)
            if done % 2:
                base = [(x, 0) for x, _ in base]
            phi = UnimodularMap(random_unimodular(rng, shears=3),
                                (int(rng.integers(-3, 4)),) * 3)
            P = convex_hull([phi((x, y, 0)) for x, y in base])
            if P.dim == 0:
                continue
            lo = [min(v[i] for v in P.vertices) - 1 for i in range(3)]
            hi = [max(v[i] for v in P.vertices) + 1 for i in range(3)]
            if np.prod(np.subtract(hi, lo) + 1) > 20000:
                continue
            box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            pts = lattice_points(P)
            assert set(pts) == {p for p in box if P.contains(p)}
            back = [phi.inverse()(p) for p in pts]
            assert all(z == 0 for _, _, z in back)
            assert sorted((x, y) for x, y, _ in back) == \
                lattice_points(convex_hull(base))
            done += 1


def box_filter_points(P):
    """Lattice points of a full-dimensional P by filtering its whole
    bounding box against the facets, in lex order."""
    ranges = [range(min(v[i] for v in P.vertices),
                    max(v[i] for v in P.vertices) + 1)
              for i in range(P.ambient)]
    return tuple(p for p in itertools.product(*ranges)
                 if all(vdot(n, p) >= b for n, b in P.facets))


def column_oracle_polytopes(rng):
    """Seeded full-dimensional polytopes in Z^2 and Z^3: random hulls, thin
    slivers along a long direction, prisms and boxes (facets with n_z = 0),
    and unit-triangle segment sums T + [0, (p, q, r)] with r <= 20; every
    third one translated by up to 10^12."""
    tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    out = []
    while len(out) < 400:
        ambient, kind = 2 + len(out) % 2, len(out) // 2 % 4
        if kind == 0:
            pts = random_points(rng, int(rng.integers(3, 9)), 6, ambient)
        elif kind == 1:  # a sliver: a long edge and points next to it
            far = tuple(int(x) for x in rng.integers(-12, 13, ambient))
            pts = [(0,) * ambient, far] + [
                vadd(far, tuple(int(x) for x in rng.integers(-1, 2, ambient)))
                for _ in range(ambient)]
        elif kind == 2:  # a prism over a polygon, or a rectangle
            base = random_points(rng, int(rng.integers(3, 7)), 5, 2)
            h = int(rng.integers(1, 5))
            pts = ([(x, y, z) for x, y in base for z in (0, h)]
                   if ambient == 3 else [(0, 0), (h, 0), (0, 4), (h, 4)])
        elif ambient == 3:  # a long segment sum
            r = int(rng.integers(1, 21))
            u = (int(rng.integers(0, r + 1)), int(rng.integers(0, r + 1)), r)
            pts = minkowski_sum(tri, convex_hull([(0, 0, 0), u])).vertices
        else:
            r = int(rng.integers(1, 21))
            pts = [(0, 0), (1, 0), (0, 1), (int(rng.integers(0, r)), r)]
        if len(out) % 3 == 2:
            shift = tuple(int(x) * 10 ** 12 + int(y) for x, y in zip(
                rng.integers(-1, 2, ambient), rng.integers(-9, 10, ambient)))
            pts = [vadd(p, shift) for p in pts]
        P = convex_hull(pts)
        if P.dim == ambient:
            out.append(P)
    return out


class TestColumnLatticePoints:
    def test_against_box_filter(self, rng):
        vertical = 0
        for P in column_oracle_polytopes(rng):
            assert P.lattice_points == box_filter_points(P)
            vertical += any(n[-1] == 0 for n, _ in P.facets)
        assert vertical > 50


def brute_force_facets(points):
    """Facets of the hull of points spanning R^3, independently of the
    library: every plane through three of the points with all points on
    one side, as (primitive inward normal, offset) pairs."""
    arr = np.array(sorted(set(points)), dtype=np.int64)
    idx = np.array(list(itertools.combinations(range(len(arr)), 3)))
    a = arr[idx[:, 0]]
    normals = np.cross(arr[idx[:, 1]] - a, arr[idx[:, 2]] - a)
    keep = normals.any(axis=1)
    normals, a = normals[keep], a[keep]
    normals //= np.gcd.reduce(np.abs(normals), axis=1)[:, None]
    offs = np.einsum("ij,ij->i", normals, a)
    dots = normals @ arr.T
    facets = set()
    for k in np.nonzero(dots.min(axis=1) == offs)[0]:
        facets.add((tuple(int(x) for x in normals[k]), int(offs[k])))
    for k in np.nonzero(dots.max(axis=1) == offs)[0]:
        facets.add((tuple(-int(x) for x in normals[k]), -int(offs[k])))
    return tuple(sorted(facets))


def brute_force_vertices(points, facets):
    """The points lying on facets whose normals have rank 3."""
    out = []
    for p in sorted(set(points)):
        normals = [n for n, off in facets if np.dot(n, p) == off]
        if normals and np.linalg.matrix_rank(normals) == 3:
            out.append(p)
    return out


def seeded_clouds(rng, count):
    """Full-dimensional clouds of 4-30 points in boxes of side 2-10; two in
    three are coplanar-heavy (points on the surface of a box, or a dense
    plane with a few points off it)."""
    out = []
    while len(out) < count:
        m, box = int(rng.integers(4, 31)), int(rng.integers(2, 11))
        pts = random_points(rng, m, box)
        kind = len(out) % 3
        if kind == 1:  # on the surface of the box
            pts = [p[:i] + (box * int(rng.integers(2)),) + p[i + 1:]
                   for p in pts for i in [int(rng.integers(3))]]
        elif kind == 2:  # a dense plane and a few points off it
            pts = [(x, y, 0) for x, y, _ in pts] + pts[:2]
        if np.linalg.matrix_rank(np.subtract(pts, pts[0])) == 3:
            out.append(pts)
    return out


class TestHullOracle:
    def test_against_brute_force(self, rng):
        for pts in seeded_clouds(rng, 1200):
            P = convex_hull(pts)
            facets = brute_force_facets(pts)
            assert P.facets == facets
            assert list(P.vertices) == brute_force_vertices(pts, facets)

    @pytest.mark.parametrize("d", [6, 10])
    def test_dense_cube(self, d):
        P = convex_hull(itertools.product(range(d + 1), repeat=3))
        assert P.vertices == tuple(itertools.product((0, d), repeat=3))
        assert len(P.facets) == 6
        assert P.n_points == (d + 1) ** 3
        assert normalized_volume(P) == 6 * d ** 3


class TestSegmentSums:
    """segment_sums(P)(dirs) against the two-hull sums it replaces."""

    CATALOG = ("T0", "T0_2d", "S1", "S2", "E", "K1", "K2", "S", "T1", "T2",
               "P8", "Q8", "EX72")

    @staticmethod
    def seeded_hosts(rng):
        """Hulls of 1-6 points in Z^2 and Z^3 of every dimension; one in
        four of those in Z^3 is flat, on a tilted plane."""
        out = []
        for i in range(320):
            ambient = 2 + i % 2
            pts = random_points(rng, int(rng.integers(1, 7)),
                                int(rng.integers(1, 5)), ambient, low=-2)
            if i % 8 == 1:
                pts = [(x, y, x - 2 * y) for x, y, _ in pts]
            out.append(convex_hull(pts))
        return out

    @staticmethod
    def hulled(P, us):
        n = P.ambient
        return [minkowski_sum(P, convex_hull([(0,) * n, u])) for u in us]

    def test_against_minkowski_sum(self, rng):
        hosts = [named_polytope(nm) for nm in self.CATALOG] + [
            convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
            convex_hull([(0, 0, 0), (1, 0, 0), (1, 2, 0), (2, 2, 0)])]
        hosts += self.seeded_hosts(rng)
        kinds, degenerate = set(), 0
        for P in hosts:
            n = P.ambient
            kinds.add((n, P.dim))
            verts = P.vertices
            d1 = vsub(verts[-1], verts[0])
            d2 = vsub(verts[len(verts) // 2], verts[0])
            # collinear with a segment P, or in the plane of a flat P, and
            # the zero direction, mixed with random ones in one batch
            us = [tuple(int(x) for x in rng.integers(-6, 7, n))
                  for _ in range(12)]
            for i, u in enumerate([d1, vneg(d1), vadd(d1, d2),
                                   vsub(d1, vadd(d2, d2)), (0,) * n]):
                us.insert(3 * i, u)
            sums = self.hulled(P, us)
            assert list(segment_sums(P)(us)) == \
                [S.lattice_points for S in sums], P
            degenerate += sum(S.dim < n for S in sums)
        assert kinds == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2),
                         (3, 3)}
        assert degenerate > 300

    @pytest.mark.parametrize("name", ["T0", "K2", "EX72"])
    def test_directions_over_several_chunks(self, name, monkeypatch):
        P = named_polytope(name)
        us = [u for u in itertools.product(range(-4, 5), repeat=3) if any(u)]
        chunks, kernel = [], geometry._column_points

        def spy(N, B, lo, hi):  # the hull path enumerates T0's sums in Z^2
            widths = np.subtract(hi, lo)[:, :-1].max(axis=0) + 1
            if len(lo[0]) == 3:
                chunks.append((len(N), int(np.prod(widths)) * len(B[0])))
            return kernel(N, B, lo, hi)

        sums = self.hulled(P, us)
        want = [S.lattice_points for S in sums]
        monkeypatch.setattr(geometry, "_column_points", spy)
        assert list(segment_sums(P)(us)) == want
        assert sum(k for k, _ in chunks) == sum(S.dim == 3 for S in sums)
        assert len(chunks) > 4
        assert all(k * cells <= _BATCH_CELLS for k, cells in chunks if k > 1)

    def test_oversized_sum_in_batch(self):
        # columns x inequalities of the third sum exceed 2^26; the sums
        # before it still come out
        sums = segment_sums(named_polytope("T0"))((
            (1, 0, 0), (0, 1, 2), (10 ** 5, 10 ** 5, 1), (1, 1, 1)))
        assert len(next(sums)) and len(next(sums))
        with pytest.raises(ValueError, match="> 2\\^26"):
            next(sums)

    @pytest.mark.parametrize("name", ["T0", "T0_2d", "K2"])
    def test_lazy(self, name):
        P = named_polytope(name)
        drawn = []

        def directions():  # some of them in the plane of T0
            for k in range(1, 20001):
                drawn.append((k % 5, 1, k % 3 - 1)[:P.ambient])
                yield drawn[-1]

        first = next(segment_sums(P)(directions()))
        assert first == self.hulled(P, drawn[:1])[0].lattice_points
        # a sum has at least one column and as many rows as P has facets,
        # so a chunk holds at most _BATCH_CELLS // len(P.facets) sums, and
        # one more direction is drawn to close it
        assert len(drawn) <= _BATCH_CELLS // len(P.facets) + 1


class TestExactLinearAlgebra:
    def test_int_rank(self):
        assert int_rank([(1, 2, 3), (2, 4, 6), (0, 0, 1)]) == 2
        assert int_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 3), (2, 5),
                                       (3, 2), (3, 6)])
    def test_hnf_transform_random(self, rng, shape):
        m, n = shape
        for rank in range(min(shape) + 1):
            for _ in range(15):
                # rank <= ``rank``: a product through Z^rank, some columns
                # zeroed
                A = rng.integers(-3, 4, size=(m, rank)) @ \
                    rng.integers(-3, 4, size=(rank, n))
                A[:, rng.random(n) < 0.2] = 0
                D = tuple(tuple(int(v) for v in row) for row in A)
                U = _hnf_transform(D)
                assert abs(mat_det(U)) == 1
                H = mat_mul(U, D)
                leads = [next((j for j, v in enumerate(row) if v), n)
                         for row in H]
                r = sum(lead < n for lead in leads)
                assert r == int_rank(D)
                # nonzero rows first, pivots strictly to the right
                assert leads[:r] == sorted(set(leads[:r]))
                assert all(lead == n for lead in leads[r:])
                for i, j in enumerate(leads[:r]):
                    assert H[i][j] > 0
                    assert all(0 <= H[k][j] < H[i][j] for k in range(i))


class TestVolumes:
    def test_unit_simplex(self):
        assert normalized_volume(convex_hull(SIMPLEX)) == 1

    def test_cube(self):
        assert normalized_volume(convex_hull(UNIT_CUBE)) == 6

    def test_scaled_simplex(self):
        for d in (1, 2, 3):
            Pd = convex_hull([(0, 0, 0), (d, 0, 0), (0, d, 0), (0, 0, d)])
            assert normalized_volume(Pd) == d ** 3

    def test_against_pyramids(self, rng):
        hulls = [P for _, P in catalog_polytopes() if P.dim == 3]
        while len(hulls) < 520:
            box = int(rng.integers(1, 9))
            P = random_polytope(rng, count=int(rng.integers(4, 25)), box=box,
                                low=-box)
            if P.dim == 3:
                hulls.append(P)
        for P in hulls:
            assert normalized_volume(P) == pyramid_volume(P), P

    def test_flat_polytopes(self):
        tri = convex_hull([(0, 0, 5), (1, 0, 5), (0, 1, 5)])
        assert ambient_vol3(tri) == 0
        assert vol2(tri) == 1

    def test_mixed_area_diagonal(self, rng):
        for _ in range(30):
            P = random_polytope(rng, count=4, box=4, ambient=2)
            if P.dim == 2:
                assert mixed_area(P, P) == vol2(P)

    def test_prism_identity_random(self, rng):
        # Vol3 of the prism over P0, P1 splits as Vol2 + mixed + Vol2
        for _ in range(100):
            P0 = random_polytope(rng, count=int(rng.integers(2, 6)),
                                 box=4, ambient=2)
            P1 = random_polytope(rng, count=int(rng.integers(2, 6)),
                                 box=4, ambient=2)
            prism = convex_hull(
                [(x, y, 0) for x, y in P0.vertices]
                + [(x, y, 1) for x, y in P1.vertices])
            assert ambient_vol3(prism) == \
                vol2(P0) + mixed_area(P0, P1) + vol2(P1)

    def test_sum_volume_growth(self, rng):
        # a full-dimensional sum gains at least 3 over either summand
        done = 0
        while done < 100:
            P1 = random_polytope(rng, count=int(rng.integers(2, 6)), box=3)
            P2 = random_polytope(rng, count=int(rng.integers(2, 6)), box=3)
            S = minkowski_sum(P1, P2)
            if S.dim < 3 or P2.dim == 0:
                continue
            assert ambient_vol3(S) >= ambient_vol3(P1) + 3
            done += 1


class TestWidth:
    def test_cube_width(self):
        P = convex_hull(UNIT_CUBE)
        w, u = lattice_width(P)
        assert w == 1
        assert width_in_direction(P, u) == 1

    def test_scaled_cube(self):
        P = convex_hull([(2 * x, 2 * y, 2 * z) for x, y, z in UNIT_CUBE])
        assert lattice_width(P)[0] == 2

    def test_witness_is_optimal(self, rng):
        for _ in range(20):
            P = random_polytope(rng, count=5, box=3)
            if P.dim < 3:
                continue
            w, u = lattice_width(P)
            assert width_in_direction(P, u) == w
            from toric3.geometry import is_primitive
            for v in itertools.product(range(-2, 3), repeat=3):
                if any(v) and is_primitive(v):
                    assert width_in_direction(P, v) >= w

    def test_against_reference_loop(self, rng):
        done = 0
        while done < 600:
            n = 2 + done % 2
            box = int(rng.integers(1, 4))
            P = random_polytope(rng, count=int(rng.integers(n + 1, 8)),
                                box=box, ambient=n, low=-box)
            if P.dim < n:
                continue
            assert lattice_width(P) == reference_width(P), P
            done += 1
        for n in (2, 3):
            for P in many_vertex_polytopes(rng, n, 40):
                assert lattice_width(P) == reference_width(P), P


class TestErosion:
    def test_segment_erosion(self):
        pts = [(i, 0, 0) for i in range(4)]
        assert set(erode(pts, (1, 0, 0))) == {(i, 0, 0) for i in range(3)}
        assert erode(pts, (0, 1, 0)) == set()

    def test_chain_vs_brute_force(self, rng):
        dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 1)]
        for _ in range(60):
            P = random_polytope(rng, count=int(rng.integers(3, 7)), box=3)
            pts = list(lattice_points(P))
            multiset = [dirs[int(rng.integers(len(dirs)))]
                        for _ in range(int(rng.integers(1, 4)))]
            eroded = pts
            for u in multiset:
                eroded = erode(eroded, u)
            # brute force: an anchor whose zonotope over the multiset fits
            expected = []
            for t in pts:
                sums = [t]
                for u in multiset:
                    sums = sums + [vadd(s, u) for s in sums]
                if all(s in set(pts) for s in sums):
                    expected.append(t)
            assert sorted(eroded) == sorted(expected)

    def test_erosions_commute(self, rng):
        for _ in range(30):
            P = random_polytope(rng, count=5, box=3)
            pts = list(lattice_points(P))
            a, b = (1, 0, 0), (1, 1, 1)
            assert sorted(erode(erode(pts, a), b)) == \
                sorted(erode(erode(pts, b), a))


def _recedes(normals, n):
    """True iff some x != 0 in R^n has <a, x> >= 0 for every a in normals
    (n <= 3)."""
    if int_rank(normals) < n:
        return True
    # the cone {x : <a, x> >= 0} is pointed; it is not {0} iff it has an
    # extreme ray, which spans the kernel of n - 1 independent normals
    for rows in itertools.combinations(normals, n - 1):
        if n == 3:
            r = cross(*rows)
        elif n == 2:
            r = (rows[0][1], -rows[0][0])
        else:
            r = (1,)
        if any(r) and any(all(vdot(a, s) >= 0 for a in normals)
                          for s in (r, vneg(r))):
            return True
    return False


def reference_box(ineqs):
    """Exact bounding box of the vertices of {x : <n, x> >= b}, or None
    for an empty region, from all n-subsets of the inequalities by
    Cramer's rule: a vertex x = adj(M) b / det(M) with det(M) > 0
    satisfies <n, x> >= b iff <n, adj(M) b> >= b det(M)."""
    n = len(ineqs[0][0])
    if _recedes([nv for nv, _ in ineqs], n):
        raise ValueError("unbounded region")
    verts = []  # (adj(M) b, det(M)) with det(M) > 0
    for combo in itertools.combinations(ineqs, n):
        M = [nv for nv, _ in combo]
        det = mat_det(M)
        if det == 0:
            continue
        y = mat_vec(_adjugate(M), [bv for _, bv in combo])
        if det < 0:
            det, y = -det, vneg(y)
        if all(vdot(nv, y) >= bv * det for nv, bv in ineqs):
            verts.append((y, det))
    if not verts:
        return None
    return ([min(y[i] // d for y, d in verts) for i in range(n)],
            [max(-(-y[i] // d) for y, d in verts) for i in range(n)])


def box_filter(ineqs, lo, hi):
    """Lex-sorted points of the box [lo, hi] with <n, x> >= b for every
    (n, b) in ineqs: each point tested, a slab of the first coordinate at
    a time."""
    normals = np.array([n for n, _ in ineqs], dtype=np.int64)
    offs = np.array([b for _, b in ineqs], dtype=np.int64)
    rest = [np.arange(a, b + 1, dtype=np.int64)
            for a, b in zip(lo[1:], hi[1:])]
    out = []
    for x in range(lo[0], hi[0] + 1):
        grids = np.meshgrid(np.array([x]), *rest, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        ok = np.all(pts @ normals.T >= offs, axis=1)
        out += map(tuple, pts[ok].tolist())
    return out


def reference_points(ineqs):
    """Integer points of a general system {x : <n, x> >= b}: the vertex
    box, filtered point by point."""
    box = reference_box(ineqs)
    return [] if box is None else box_filter(ineqs, *box)


def slab(normals, bound):
    return [(n, -bound) for n in normals] + \
        [(vneg(n), -bound) for n in normals]


def reference_width(P):
    """Lattice width by the primitive points of the dual region, scanned
    one by one against the seed (B, e_1)."""
    n = P.ambient
    B = min(width_in_direction(P, tuple(int(i == j) for j in range(n)))
            for i in range(n))
    p0 = P.vertices[0]
    dirs = []
    for p in P.vertices[1:]:
        d = vsub(p, p0)
        if int_rank(dirs + [d]) > len(dirs):
            dirs.append(d)
        if len(dirs) == n:
            break
    best = (B, tuple(int(i == 0) for i in range(n)))
    for v in reference_points(slab(dirs, B)):
        if not any(v) or not is_primitive(v):
            continue
        cv = canonical_sign(v)
        w = width_in_direction(P, cv)
        if w < best[0] or (w == best[0] and cv < best[1]):
            best = (w, cv)
    return best


def many_facet_hulls(rng):
    """Seeded 30-point hulls in [0, 11]^3, the first with 24 to 26 facets
    and the first with 34 to 36."""
    out = {}
    while len(out) < 2:
        P = random_polytope(rng, count=30, box=11)
        for c in (25, 35):
            if abs(len(P.facets) - c) <= 1:
                out.setdefault(c, P)
    return [out[25], out[35]]


def many_vertex_polytopes(rng, n, count):
    """Seeded full-dimensional polytopes in Z^n with 8 to 20 vertices:
    hulls of random lattice points near a sphere, translated."""
    out = []
    while len(out) < count:
        r = int(rng.integers(3, 7))
        shell = [p for p in itertools.product(range(-r, r + 1), repeat=n)
                 if r * r - 2 * r < sum(x * x for x in p) <= r * r]
        t = tuple(int(x) for x in rng.integers(-3, 4, size=n))
        picks = rng.choice(len(shell), size=min(len(shell), 24),
                           replace=False)
        P = convex_hull([vadd(shell[i], t) for i in picks])
        if P.dim == n and 8 <= len(P.vertices) <= 20:
            out.append(P)
    return out


def pyramid_volume(P):
    """Normalized volume of a full-dimensional P in Z^3 from pyramids over
    its facets from the first vertex.  Projection along an axis k with
    n_k != 0 maps a facet plane's lattice onto a sublattice of index |n_k|
    in Z^2, which scales its area by |n_k|."""
    v0 = P.vertices[0]
    total = 0
    for nvec, off in P.facets:
        height = vdot(nvec, v0) - off
        if height:
            k = next(i for i, x in enumerate(nvec) if x)
            flat = [p[:k] + p[k + 1:] for p in P.vertices
                    if vdot(nvec, p) == off]
            total += height * vol2(convex_hull(flat)) // abs(nvec[k])
    return total


def catalog_polytopes():
    names = [nm for nm in catalog_names() if ":" not in nm]
    names += ["Tab:2,3", "Tab:3,5", "Howe:2,3", "Howe:4,7"]
    return [(nm, named_polytope(nm)) for nm in names]


class TestHalfSpaceSystem:
    def test_integer_points(self):
        # |2x + 2y| <= 3, |2x - 2y| <= 3: vertices such as (3/2, 0)
        region = RationalHalfSpaceSystem([(2, 2), (2, -2)], 3)
        assert region.integer_points() == \
            [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        assert region.primitive_points() == [(0, 1), (1, 0)]

    def test_contains(self):
        region = RationalHalfSpaceSystem(
            [(1, 0, 0), (0, 1, 0), (1, 1, 1)], 2)
        assert region.contains((1, -2, 2))
        assert not region.contains((3, 0, 0))
        assert not region.contains((1, 1, 1))

    def test_integer_points_against_scan(self, rng):
        # random slab regions, and the good-polytope regions at bound 3 of
        # 30-point hulls with about 25 and 35 facets: the points are exactly
        # those of a scan of a box that covers the region's box from every
        # independent n-subset of the normals and its vertex box
        systems = []
        while len(systems) < 120:
            n = 2 + len(systems) % 2
            normals = [tuple(int(x) for x in rng.integers(-3, 4, size=n))
                       for _ in range(int(rng.integers(1, 6)))]
            bound = int(rng.integers(0, 7))
            if int_rank(normals) < n:
                with pytest.raises(ValueError, match="unbounded"):
                    RationalHalfSpaceSystem(normals, bound)
                continue
            systems.append((normals, bound))
        systems += [([n for n, _ in P.facets], 3)
                    for P in many_facet_hulls(rng)]
        for normals, bound in systems:
            n = len(normals[0])
            pts = RationalHalfSpaceSystem(normals, bound).integer_points()
            # |x_j| <= bound sum_i |(N^-1)_ji| for independent N, exactly
            box = [min(int(bound * sum(abs(Fraction(x, mat_det(N)))
                                       for x in _adjugate(N)[j]))
                       for N in itertools.combinations(normals, n)
                       if mat_det(N))
                   for j in range(n)]
            lo, hi = reference_box(slab(normals, bound))
            r = max(map(abs, box + lo + hi)) + 1  # the region's box too
            scan = box_filter(slab(normals, bound), [-r] * n, [r] * n)
            assert pts == scan
            assert pts == sorted(set(pts))

    def test_unbounded_region_raises(self):
        with pytest.raises(ValueError, match="unbounded"):
            RationalHalfSpaceSystem([(1, 0, 0), (0, 1, 1)], 2)
        with pytest.raises(ValueError, match="unbounded"):
            RationalHalfSpaceSystem([(1, 2), (-2, -4)], 2)
        with pytest.raises(ValueError, match="unbounded"):
            RationalHalfSpaceSystem([], 2)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RationalHalfSpaceSystem([(1, 0), (0, 1)], -1)

    def test_good_polytope_against_reference(self):
        checked = 0
        for name, P in catalog_polytopes():
            if P.dim < 2:
                continue
            for b in (2, 14):
                region = good_polytope(P, b)
                assert region.integer_points() == \
                    reference_points(slab(region.normals, b)), (name, b)
                checked += 1
        assert checked >= 30

    def test_flat_good_polytope_from_vertices(self, rng):
        # normals from the vertices alone: the plane normal, and within the
        # plane the normal of each vertex pair with all vertices on one side
        hosts = [named_polytope("T0")]
        while len(hosts) < 30:
            base = random_points(rng, int(rng.integers(3, 7)), 3, ambient=2)
            phi = UnimodularMap(random_unimodular(rng, shears=3), tuple(
                int(x) for x in rng.integers(-3, 4, size=3)))
            P = convex_hull([phi((x, y, 0)) for x, y in base])
            if P.dim == 2:
                hosts.append(P)
        for P in hosts:
            v0, *rest = P.vertices
            h = next(primitive(c) for a, b in itertools.combinations(rest, 2)
                     if any(c := cross(vsub(a, v0), vsub(b, v0))))
            normals = [h]
            for a, b in itertools.combinations(P.vertices, 2):
                m = primitive(cross(vsub(b, a), h))
                if all(vdot(m, w) >= vdot(m, a) for w in P.vertices) or \
                        all(vdot(m, w) <= vdot(m, a) for w in P.vertices):
                    normals.append(m)
            for b in (2, 5):
                assert good_polytope(P, b).integer_points() == \
                    reference_points(slab(normals, b)), (P, b)


class TestEquivalence:
    def test_reflexive(self, rng):
        for _ in range(20):
            P = random_polytope(rng, count=5, box=3)
            phi = equivalent(P, P)
            assert phi is not None
            assert phi.apply_polytope(P).vertices == P.vertices

    def test_transport_random(self, rng):
        for _ in range(60):
            P = random_polytope(rng, count=int(rng.integers(2, 7)), box=3)
            phi = random_affine_map(rng)
            Q = phi.apply_polytope(P)
            psi = equivalent(P, Q)
            assert psi is not None
            assert set(psi.apply_polytope(P).vertices) == set(Q.vertices)
            back = equivalent(Q, P)
            assert back is not None

    def test_invariants_preserved(self, rng):
        for _ in range(40):
            P = random_polytope(rng, count=5, box=3)
            Q = random_affine_map(rng).apply_polytope(P)
            assert normalized_volume(P) == normalized_volume(Q)
            assert P.n_points == Q.n_points
            a, b = shape_predicates(P), shape_predicates(Q)
            assert (a.interior_count, a.boundary_count, a.facet_count) == \
                (b.interior_count, b.boundary_count, b.facet_count)
            if P.dim == P.ambient:
                assert lattice_width(P)[0] == lattice_width(Q)[0]

    def test_not_equivalent_different_volume(self):
        P = convex_hull(SIMPLEX)
        Q = convex_hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert equivalent(P, Q) is None

    def test_tuple_single_matches_plain(self, rng):
        for _ in range(20):
            P = random_polytope(rng, count=4, box=3)
            Q = random_affine_map(rng).apply_polytope(P)
            res = tuple_equivalent((P,), (Q,))
            assert (res is not None) == (equivalent(P, Q) is not None)

    def test_tuple_shared_map(self, rng):
        # one linear map must carry both polytopes simultaneously
        for _ in range(20):
            P1 = random_polytope(rng, count=4, box=3)
            P2 = random_polytope(rng, count=4, box=3)
            phi = random_affine_map(rng)
            Q1 = phi.apply_polytope(P1)
            Q2 = phi.apply_polytope(P2)
            res = tuple_equivalent((P1, P2), (Q1, Q2))
            assert res is not None
            psi, translations = res
            for P, Q, t in ((P1, Q1, translations[0]),
                            (P2, Q2, translations[1])):
                moved = UnimodularMap(psi.matrix, t).apply_polytope(P)
                assert set(moved.vertices) == set(Q.vertices)


def _det(M):
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)))


def _minor_gcd(B):
    """gcd of the maximal minors of the n x d matrix with columns B: the
    index of the lattice they span in the saturated lattice of their span."""
    g = 0
    for rows in itertools.combinations(range(len(B[0]) if B else 0), len(B)):
        g = gcd(g, _det([[b[r] for b in B] for r in rows]))
    return g


def brute_force_maps(P, Q):
    """The number of affine lattice isomorphisms aff(P) & Z^n ->
    aff(Q) & Z^n that carry P onto Q, independently of the normal form.

    A fixed affinely independent tuple p_0..p_d of P's vertices goes to
    every ordered vertex tuple q_0..q_d of Q by the rational affine map
    f(p_0 + B_P c) = q_0 + B_Q c.  f is counted when it maps the vertices
    of P onto those of Q, both tuples span sublattices of the same index,
    and f is integral on the lattice points of P (and, for d = n, on
    p_0 + e_k).  For d <= 2 the lattice points of P contain a unimodular
    simplex, so integrality there and equal indices make f a lattice
    isomorphism; for d = n, integral f with equal |det| is unimodular.
    """
    if P.dim != Q.dim or len(P.vertices) != len(Q.vertices):
        return 0
    n, d = P.ambient, P.dim

    def diffs(tup):
        return [[a - b for a, b in zip(v, tup[0])] for v in tup[1:]]

    base = [P.vertices[0]]
    for v in P.vertices[1:]:
        if len(base) <= d and int_rank(diffs(base + [v])) == len(base):
            base.append(v)
    B_P = diffs(base)
    index = _minor_gcd(B_P)
    rows = next(r for r in itertools.combinations(range(n), d)
                if _det([[b[i] for b in B_P] for i in r]))
    A = [[b[i] for b in B_P] for i in rows]
    det_a = _det(A)

    def coords(x):  # c with B_P c = x - p_0, by Cramer's rule
        y = [x[i] - base[0][i] for i in rows]
        return [Fraction(_det([row[:j] + [y[k]] + row[j + 1:]
                               for k, row in enumerate(A)]), det_a)
                for j in range(d)]

    probes = list(lattice_points(P))
    if d == n:
        probes += [tuple(base[0][i] + (i == k) for i in range(n))
                   for k in range(n)]
    vc = [coords(v) for v in P.vertices]
    pc = [coords(x) for x in probes]
    count = 0
    for tup in itertools.permutations(Q.vertices, d + 1):
        B_Q = diffs(tup)
        if _minor_gcd(B_Q) != index:
            continue

        def f(c):
            return tuple(tup[0][i] + sum(cj * b[i] for cj, b in zip(c, B_Q))
                         for i in range(n))

        if sorted(f(c) for c in vc) != list(Q.vertices):
            continue
        if all(x.denominator == 1 for c in pc for x in f(c)):
            count += 1
    return count


def nf_sample(rng, kind, ambient):
    """A random polytope of the given kind: 'point', 'segment', 'flat' (a
    polygon on a tilted plane of Z^3) or 'full'."""
    while True:
        if kind == "flat":
            base = random_points(rng, int(rng.integers(3, 7)), 3, ambient=2)
            phi = UnimodularMap(random_unimodular(rng, shears=3), (0, 0, 0))
            pts = [phi((x, y, 0)) for x, y in base]
        else:
            count = {"point": 1, "segment": 2}.get(kind,
                                                   int(rng.integers(3, 8)))
            pts = random_points(rng, count, 3, ambient=ambient, low=-1)
        P = convex_hull(pts)
        if P.dim == {"point": 0, "segment": 1, "flat": 2}.get(kind, ambient):
            return P


NF_KINDS = [("point", 2), ("point", 3), ("segment", 2), ("segment", 3),
            ("flat", 3), ("full", 2), ("full", 3)]


def padded_key(P):
    key = _normal_form(P)[0]
    return tuple(k + (0,) * (P.ambient - len(k)) for k in key)


class TestNormalForm:
    def test_against_vertex_tuple_search(self, rng):
        # 1,050 pairs: half transported, half fresh of the same kind and
        # with the same vertex count where one turns up in a few tries
        seen = {True: 0, False: 0}
        for i in range(1050):
            kind, ambient = NF_KINDS[i % len(NF_KINDS)]
            P = nf_sample(rng, kind, ambient)
            if i % 2:
                Q = random_affine_map(rng, ambient).apply_polytope(P)
            else:
                for _ in range(6):
                    Q = nf_sample(rng, kind, ambient)
                    if len(Q.vertices) == len(P.vertices):
                        break
            phi = equivalent(P, Q)
            expect = brute_force_maps(P, Q) > 0
            assert (phi is not None) == expect
            if phi is not None:
                assert phi.apply_polytope(P) == Q
            seen[expect] += 1
        assert seen[True] > 500 and seen[False] > 200

    def test_white_tetrahedra_of_equal_volume(self):
        # Tab:a,b = conv{e1, e2, e3, (a, b, 1)} is empty of volume a + b;
        # equal volumes need not be equivalent
        tets = [(a, b) for a in range(7) for b in range(1, 8)
                if gcd(a, b) == 1 and 4 <= a + b <= 8]
        outcomes = set()
        for (a, b), (c, e) in itertools.combinations(tets, 2):
            if a + b != c + e:
                continue
            P = named_polytope(f"Tab:{a},{b}")
            Q = named_polytope(f"Tab:{c},{e}")
            phi = equivalent(P, Q)
            assert (phi is not None) == (brute_force_maps(P, Q) > 0)
            if phi is not None:
                assert phi.apply_polytope(P) == Q
            outcomes.add(phi is not None)
        assert outcomes == {True, False}

    def test_key_invariant_and_maps_onto_key(self, rng):
        for i in range(140):
            kind, ambient = NF_KINDS[i % len(NF_KINDS)]
            P = nf_sample(rng, kind, ambient)
            Q = random_affine_map(rng, ambient).apply_polytope(P)
            assert _normal_form(Q)[0] == _normal_form(P)[0]
            maps = _normal_form(P)[1]
            for psi in maps:
                assert tuple(sorted(map(psi, P.vertices))) == padded_key(P)
            # the maps are all the maps onto the key, one per automorphism
            assert len(maps) == brute_force_maps(P, P)

    @pytest.mark.parametrize("host", [
        "cube", "square", "hexagon", "triangle", "flat triangle",
        "E", "K1", "K2", "S1", "S2"])
    def test_symmetric_hosts(self, rng, host):
        # every vertex label ties (or nearly), so whole groups of equal
        # labels are permuted; the key must still be invariant and the
        # maps must still be all automorphisms
        shapes = {
            "cube": UNIT_CUBE,
            "square": [(0, 0), (1, 0), (0, 1), (1, 1)],
            "hexagon": [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
            "triangle": [(0, 0), (1, 0), (0, 1)],
            "flat triangle": [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        }
        P = (convex_hull(shapes[host]) if host in shapes
             else named_polytope(host))
        images = [random_affine_map(rng, P.ambient).apply_polytope(P)
                  for _ in range(3)]
        assert [_normal_form(Q)[0] for Q in images] == [_normal_form(P)[0]] * 3
        for Q in [P] + images:
            maps = _normal_form(Q)[1]
            assert len(maps) == brute_force_maps(Q, Q)
            for psi in maps:
                assert tuple(sorted(map(psi, Q.vertices))) == padded_key(P)
            phi = equivalent(P, Q)
            assert phi is not None and phi.apply_polytope(P) == Q

    @pytest.mark.parametrize("points, calls", [
        ([(0, 0, 0), (2, 0, 1), (1, 3, 0), (0, 1, 2), (1, 1, 4)], 1),
        (UNIT_CUBE, 1344),
    ])
    def test_hnf_count(self, monkeypatch, points, calls):
        # distinct labels leave one ordered basis; the cube's 8 vertices
        # tie, so all 24 orderings of its 56 unimodular simplices remain
        from toric3 import geometry
        seen = []
        hnf = geometry._hnf_transform
        monkeypatch.setattr(geometry, "_hnf_transform",
                            lambda D: seen.append(D) or hnf(D))
        _normal_form(convex_hull(points))
        assert len(seen) == calls

    def test_tuple_without_full_dimensional_member(self, rng):
        # no member spans Z^3, so the Minkowski sum is the pivot
        tuples = [
            [[(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 0)],
             [(0, 0, 0), (0, 0, 1)]],
            [[(0, 0, 0), (2, 1, 0)], [(0, 0, 0), (1, 0, 0), (0, 0, 1)]],
            [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
             [(0, 0, 0), (0, 1, 1), (0, 2, 1)]],
            [[(0, 0, 0), (0, 0, 3)], [(1, 1, 1), (1, 2, 1), (3, 1, 1)]],
        ]
        for pts in tuples:
            Ps = [convex_hull(p) for p in pts]
            assert all(P.dim < 3 for P in Ps)
            for _ in range(6):
                phi = random_affine_map(rng)
                shifts = [tuple(int(x) for x in rng.integers(-3, 4, size=3))
                          for _ in Ps]
                Qs = [UnimodularMap(phi.matrix, t).apply_polytope(P)
                      for P, t in zip(Ps, shifts)]
                psi, translations = tuple_equivalent(Ps, Qs)
                for P, Q, t in zip(Ps, Qs, translations):
                    assert UnimodularMap(psi.matrix, t).apply_polytope(P) == Q
        # equal member keys, but no shared map: unit cube vs a parallelepiped
        units = [convex_hull([(0, 0, 0), e]) for e in
                 ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2))]
        assert tuple_equivalent(units[:3], units[:3]) is not None
        assert tuple_equivalent(units[:3], units[:2] + units[3:]) is None
        # a segment and a triangle in one plane: the sum is flat
        flat = units[:1] + [convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])]
        with pytest.raises(ValueError, match="degenerate"):
            tuple_equivalent(flat, flat)


class TestUnimodularMap:
    def test_compose_inverse(self, rng):
        for _ in range(20):
            phi = random_affine_map(rng)
            ident = phi.compose(phi.inverse())
            assert ident.matrix == UnimodularMap.identity(3).matrix
            assert ident.translation == (0, 0, 0)

    def test_apply(self):
        phi = UnimodularMap(((0, 1, 0), (1, 0, 0), (0, 0, 1)), (1, 0, 0))
        assert phi((2, 3, 4)) == (4, 2, 4)
