"""Minkowski length and maximal-decomposition classification searches.

The Minkowski length L(P) is the largest L such that P contains a
Minkowski sum of L positive-dimensional lattice polytopes.  Every
positive-dimensional summand contains a primitive lattice segment whose
endpoints are lattice points of P, so L(P) equals the largest number of
primitive segments whose Minkowski sum (a zonotope) fits inside P, and
all candidate directions are primitive difference vectors of P's lattice
points.  Fitting is tested by erosion chains: the zonotope
a + sum_{i in A} u_i over subsets A fits in the point set S iff iterated
erosion of S by u_1, ..., u_L is nonempty; erosions commute, so direction
multisets, not sequences, matter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .catalog import named_polytope
from .geometry import (Polytope, RationalHalfSpaceSystem, canonical_sign,
                       convex_hull, cross, equivalent, erode, is_primitive,
                       minkowski_sum, primitive, tuple_equivalent, vadd,
                       vneg, vsub)

_BIG = 1 << 60


# ---------------------------------------------------------------------------
# decomposition certificates

@dataclass(frozen=True)
class Decomposition:
    """Maximal decomposition certificate: a zonotope that fits in the host.

    ``directions`` is a sorted multiset of canonical primitive vectors;
    ``anchor`` is a lattice point with anchor + sum_{i in A} u_i inside
    the host polytope for every subset A of directions.
    """

    directions: tuple
    anchor: tuple

    @property
    def length(self):
        return len(self.directions)

    def zonotope_points(self):
        pts = {self.anchor}
        for u in self.directions:
            pts |= {vadd(p, u) for p in pts}
        return pts

    def verify(self, host):
        pts = set(host.lattice_points if isinstance(host, Polytope) else host)
        return self.zonotope_points() <= pts


# ---------------------------------------------------------------------------
# erosion-chain search

def _norm_key(S):
    m = min(S)
    return frozenset(vsub(x, m) for x in S)


def _candidate_dirs(S):
    """Canonical primitive difference vectors realized in S, sorted.

    Erosion of S by any one of these is guaranteed nonempty."""
    arr = np.array(sorted(S), dtype=np.int64)
    n = arr.shape[1]
    d = (arr[None, :, :] - arr[:, None, :]).reshape(-1, n)
    # keep the lex-positive representative of each +-pair
    lexpos = d[:, 0] > 0
    zero = d[:, 0] == 0
    for j in range(1, n):
        lexpos |= zero & (d[:, j] > 0)
        zero &= d[:, j] == 0
    d = d[lexpos]
    prim = np.gcd.reduce(np.abs(d), axis=1) == 1
    d = np.unique(d[prim], axis=0)
    return [tuple(v) for v in d.tolist()]


class _ChainSearch:
    """Memoized search for erosion chains over translation classes of
    point sets.  Shared across queries so repeated sweeps reuse state."""

    def __init__(self):
        self.proved = {}   # key -> largest chain length proven to exist
        self.refuted = {}  # key -> smallest chain length proven impossible

    def reach(self, S, need):
        """True iff an erosion chain of length ``need`` leaves S nonempty."""
        if need <= 0:
            return True
        if len(S) <= need:
            return False
        key = _norm_key(S)
        if self.proved.get(key, 0) >= need:
            return True
        if self.refuted.get(key, _BIG) <= need:
            return False
        for u in _candidate_dirs(S):
            S2 = erode(S, u)
            if len(S2) > need - 1 and self.reach(S2, need - 1):
                if self.proved.get(key, 0) < need:
                    self.proved[key] = need
                return True
        if self.refuted.get(key, _BIG) > need:
            self.refuted[key] = need
        return False


def _points(P):
    if isinstance(P, Polytope):
        return set(P.lattice_points)
    return set(tuple(p) for p in P)


def minkowski_length(P, search=None):
    """Exact L(P) with a verifying :class:`Decomposition` certificate."""
    pts = _points(P)
    if len(pts) == 1:
        return 0, Decomposition((), min(pts))
    cs = search if search is not None else _ChainSearch()
    L = 0
    while cs.reach(pts, L + 1):
        L += 1
    # greedy certificate reconstruction along proven-feasible branches
    dirs = []
    S = pts
    for k in range(L, 0, -1):
        for u in _candidate_dirs(S):
            S2 = erode(S, u)
            if len(S2) > k - 1 and cs.reach(S2, k - 1):
                dirs.append(u)
                S = S2
                break
    cert = Decomposition(tuple(sorted(dirs)), min(S))
    assert cert.verify(pts)
    return L, cert


def has_length_at_most(P, k, search=None):
    """True iff L(P) <= k; stops as soon as a length-(k+1) chain appears."""
    pts = _points(P)
    if len(pts) == 1:
        return k >= 0
    cs = search if search is not None else _ChainSearch()
    return not cs.reach(pts, k + 1)


def is_dps(P):
    """Distinct pair-sums test: all sums x + y over lattice points x <= y
    are distinct; equivalent to L(P) = 1 for positive-dimensional P."""
    pts = sorted(_points(P))
    seen = set()
    for i, x in enumerate(pts):
        for y in pts[i:]:
            s = vadd(x, y)
            if s in seen:
                return False
            seen.add(s)
    return True


def maximal_segment_decompositions(P, search=None):
    """All direction multisets achieving L(P), each with one witness anchor,
    in canonical order."""
    pts = _points(P)
    if len(pts) == 1:
        return []
    cs = search if search is not None else _ChainSearch()
    L, _ = minkowski_length(pts, cs)
    out = []

    def dfs(S, prefix, last):
        depth = len(prefix)
        if depth == L:
            out.append(Decomposition(tuple(prefix), min(S)))
            return
        rest = L - depth - 1
        for u in _candidate_dirs(S):
            if last is not None and u < last:
                continue
            S2 = erode(S, u)
            if len(S2) > rest and cs.reach(S2, rest):
                dfs(S2, prefix + [u], u)

    dfs(pts, [], None)
    return sorted(out, key=lambda d: (d.directions, d.anchor))


# ---------------------------------------------------------------------------
# segment search (the good-polytope region)

def good_polytope(P, bound=14):
    """Region {u : |<u, n_F>| <= bound} over the facet normals of P.

    For a 2-dimensional P in Z^3 the edge normals within the plane of P
    together with the plane normal itself are used, so the region stays
    bounded."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    normals = []
    if P.dim == P.ambient:
        normals = [n for n, _ in P.facets]
    elif P.ambient == 3 and P.dim == 2:
        b1, b2 = P._frame[:2]
        plane_normal = primitive(cross(b1, b2))
        inner = P._inner
        for nvec2, _ in inner.facets:
            # lift the inner edge normal: n = nvec2[0]*g1 + nvec2[1]*g2 where
            # (g1, g2) is dual to the plane basis; equivalently cross products
            edge_dir = (-nvec2[1], nvec2[0])
            e3 = vadd(tuple(edge_dir[0] * x for x in b1),
                      tuple(edge_dir[1] * x for x in b2))
            normals.append(primitive(cross(e3, plane_normal)))
        normals.append(plane_normal)
    else:
        raise ValueError("good_polytope needs a 2- or full-dimensional P")
    ineqs = []
    for n in normals:
        ineqs.append((n, -bound))
        ineqs.append((vneg(n), -bound))
    return RationalHalfSpaceSystem(ineqs)


def find_segments(P, target_L, bound=None, search=None):
    """All canonical primitive u in the good-polytope region of P with
    L(P + [0, u]) = target_L."""
    if bound is None:
        bound = 14
        if P.dim == 2 and equivalent(P, named_polytope("T0")) is not None:
            bound = 2
    cs = search if search is not None else _ChainSearch()
    region = good_polytope(P, bound)
    out = []
    for u in region.primitive_points():
        Q = minkowski_sum(P, convex_hull([(0,) * P.ambient, u]))
        pts = set(Q.lattice_points)
        if cs.reach(pts, target_L) and not cs.reach(pts, target_L + 1):
            out.append(u)
    return out


def unit_triangle_segment_sweep(rmax, triangle="unit"):
    """Max z-width over segments I = [0, (p,q,r)], 0 <= p,q <= r <= rmax,
    gcd(p,q,r) = 1, with L(T + I) = 2, for T the unit triangle or T0."""
    if triangle == "unit":
        T = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    elif triangle == "T0":
        T = named_polytope("T0")
    else:
        raise ValueError("triangle must be 'unit' or 'T0'")
    cs = _ChainSearch()
    best = 0
    for r in range(rmax, 0, -1):
        if r <= best:
            break
        for p in range(r + 1):
            for q in range(r + 1):
                if np.gcd.reduce([p, q, r]) != 1:
                    continue
                Q = minkowski_sum(T, convex_hull([(0, 0, 0), (p, q, r)]))
                pts = set(Q.lattice_points)
                if not cs.reach(pts, 3):
                    best = r
                    break
            if best == r:
                break
    return best


# ---------------------------------------------------------------------------
# triangle / tetrahedron assembly

def _normalize_translation(verts):
    m = min(verts)
    return tuple(sorted(vsub(v, m) for v in verts))


def find_triangles(P, search=None):
    """All lattice triangles T (one vertex at the translation-normal
    position) built from find_segments directions with L(T) = 1 and
    L(P + T) = 2, deduplicated up to translation."""
    cs = search if search is not None else _ChainSearch()
    segs = find_segments(P, 2, search=cs)
    dirset = set(segs)
    signed = segs + [vneg(u) for u in segs]
    zero = (0,) * P.ambient
    seen = set()
    out = []
    for a, b in itertools.combinations(signed, 2):
        if a == vneg(b):
            continue
        d = vsub(b, a)
        if not is_primitive(d) or canonical_sign(d) not in dirset:
            continue
        key = _normalize_translation((zero, a, b))
        if key in seen:
            continue
        seen.add(key)
        T = convex_hull(key)
        if T.dim != 2 or T.n_points != 3:
            continue
        if minkowski_length(T, cs)[0] != 1:
            continue
        pts = set(minkowski_sum(P, T).lattice_points)
        if not cs.reach(pts, 3):
            out.append(T)
    return sorted(out, key=lambda T: T.vertices)


def add_triangle_huh(P):
    return bool(find_triangles(P))


def find_tetra(P, search=None):
    """All 4-lattice-point polytopes T (tetrahedra, possibly degenerate)
    built from find_segments directions with L(T) = 1 and L(P + T) = 2,
    deduplicated up to translation."""
    cs = search if search is not None else _ChainSearch()
    segs = find_segments(P, 2, search=cs)
    dirset = set(segs)
    signed = segs + [vneg(u) for u in segs]
    zero = (0,) * P.ambient
    seen = set()
    out = []
    for a, b, c in itertools.combinations(signed, 3):
        pts4 = (zero, a, b, c)
        if len(set(pts4)) < 4:
            continue
        ok = True
        for x, y in itertools.combinations(pts4, 2):
            d = vsub(y, x)
            if not is_primitive(d) or canonical_sign(d) not in dirset:
                ok = False
                break
        if not ok:
            continue
        key = _normalize_translation(pts4)
        if key in seen:
            continue
        seen.add(key)
        T = convex_hull(key)
        if T.n_points != 4 or len(T.vertices) != 4:
            continue
        if minkowski_length(T, cs)[0] != 1:
            continue
        pts = set(minkowski_sum(P, T).lattice_points)
        if not cs.reach(pts, 3):
            out.append(T)
    return sorted(out, key=lambda T: T.vertices)


def add_tetra_huh(P):
    return bool(find_tetra(P))


# ---------------------------------------------------------------------------
# pair / triple classification

@dataclass(frozen=True)
class PairClass:
    label: str
    length: int
    witness: object = None


@dataclass(frozen=True)
class TripleClass:
    label: str
    length: int
    witness: object = None


_PAIR_CATALOG = (
    ("(K1,K1)", ("K1", "K1")),
    ("(K1,S1)", ("K1", "S1")),
    ("(K2,S)", ("K2", "S")),
    ("(E,S2)", ("E", "S2")),
    ("(S1,S1)", ("S1", "S1")),
    ("(S1,S2)", ("S1", "S2")),
    ("(S2,S2)", ("S2", "S2")),
)

_TRIPLE_CATALOG = (
    ("(i)", ("S1", "S1", "S1")),
    ("(ii)", ("S1", "S2", "S2")),
    ("(iii)", ("S2", "S2", "S2")),
    ("(iv)", ("E", "S2", "S2")),
)


def _match_tuple(polys, catalog):
    """The first catalog label whose members match polys in some order,
    and its witness (phi, translations): UnimodularMap(phi.matrix, t_i)
    carries polys[i] onto a member of the label.  An order is tried only
    when each member is equivalent to its catalog partner."""
    for label, names in catalog:
        refs = [named_polytope(n) for n in names]
        fits = [[equivalent(P, R) is not None for R in refs] for P in polys]
        for perm in itertools.permutations(range(len(polys))):
            if not all(fits[i][j] for j, i in enumerate(perm)):
                continue
            wit = tuple_equivalent([polys[i] for i in perm], refs)
            if wit is not None:
                phi, shifts = wit  # shifts follow the order perm
                return label, (phi, tuple(shifts[perm.index(i)]
                                          for i in range(len(polys))))
    return None, None


def classify_pair(P, Q, search=None):
    """Classify a pair of L = 1 summands of a maximal decomposition."""
    cs = search if search is not None else _ChainSearch()
    if minkowski_length(P, cs)[0] != 1 or minkowski_length(Q, cs)[0] != 1:
        raise ValueError("classify_pair requires L(P) = L(Q) = 1")
    pts = set(minkowski_sum(P, Q).lattice_points)
    if cs.reach(pts, 3):
        return PairClass("length>2", 3)
    if min(P.n_points, Q.n_points) <= 3:
        return PairClass("unclassified-small", 2)
    label, wit = _match_tuple([P, Q], _PAIR_CATALOG)
    if label is None:
        return PairClass("no-match", 2)
    return PairClass(label, 2, wit)


def classify_triple(P, Q, R, search=None):
    """Classify a triple of L = 1 summands with at least 4 lattice points
    each against the four realizable options."""
    cs = search if search is not None else _ChainSearch()
    for X in (P, Q, R):
        if X.n_points < 4:
            raise ValueError("classify_triple requires at least 4 points each")
        if minkowski_length(X, cs)[0] != 1:
            raise ValueError("classify_triple requires L = 1 summands")
    pts = set(minkowski_sum(minkowski_sum(P, Q), R).lattice_points)
    if not (cs.reach(pts, 3) and not cs.reach(pts, 4)):
        length = 4 if cs.reach(pts, 4) else 2
        return TripleClass("length!=3", length)
    label, wit = _match_tuple([P, Q, R], _TRIPLE_CATALOG)
    if label is None:
        return TripleClass("no-match", 3)
    return TripleClass(label, 3, wit)


# ---------------------------------------------------------------------------
# three-segment width scan

def three_segments_width_scan(case, cmax=14):
    """Max z-width c over u3 = (a,b,c), 0 <= a <= b < c <= cmax, with
    L(I1 + I2 + I3) = 3 for the unit-square (case 1) or parallelogram
    [0,e1] + [0,(1,2,0)] (case 2) base pair."""
    if case == 1:
        base = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    elif case == 2:
        base = convex_hull([(0, 0, 0), (1, 0, 0), (1, 2, 0), (2, 2, 0)])
    else:
        raise ValueError("case must be 1 or 2")
    cs = _ChainSearch()
    best = 0
    for c in range(cmax, 0, -1):
        if c <= best:
            break
        found = False
        for b in range(c):
            for a in range(b + 1):
                if np.gcd.reduce([a, b, c]) != 1:
                    continue
                Q = minkowski_sum(base, convex_hull([(0, 0, 0), (a, b, c)]))
                pts = set(Q.lattice_points)
                if cs.reach(pts, 3) and not cs.reach(pts, 4):
                    found = True
                    break
            if found:
                break
        if found:
            best = c
    return best
