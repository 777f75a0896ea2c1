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

The search runs on point sets packed once per query into Python ints, w
bits per coordinate relative to the min corner, with w the larger of 21
and one more than the bit length of the largest coordinate spread.  Then
packing keeps lex order, erosion by u is a membership test on x + u, the
candidate directions are the sorted positive packed differences, and the
memo key of a set is (n, w, its translate with min 0): queries with
spreads below 2^20 share one width and so their memo classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import lshift, sub

from .catalog import named_polytope
from .geometry import (Polytope, canonical_sign, convex_hull, equivalent,
                       good_polytope, minkowski_sum, segment_sums,
                       tuple_equivalent, vadd, vneg, vsub)

_BIG = 1 << 60
_WIDTH = 21  # least bits per packed coordinate


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
# erosion-chain search over packed point sets

def _pack(points):
    """(frame, S): x in points becomes sum_i (x_i - lo_i) 2^(w (n-1-i)) in
    S, with lo the min corner of the points and frame = (n, w, lo)."""
    cols = list(zip(*points))
    lo = tuple(map(min, cols))
    spread = max(max(c) - m for c, m in zip(cols, lo))
    w = max(_WIDTH, spread.bit_length() + 1)
    n = len(lo)
    shifts = [w * (n - 1 - i) for i in range(n)]
    base = sum(map(lshift, lo, shifts))
    S = frozenset([sum(map(lshift, p, shifts)) - base for p in points])
    return (n, w, lo), S


def _vector(frame, d):
    """The vector of a packed difference d, or of a packed point d
    relative to lo: digits in (-2^(w-1), 2^(w-1)) decode uniquely."""
    n, w = frame[0], frame[1]
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = ((d + half) & mask) - half
        d = (d - out[i]) >> w
    return tuple(out)


def _directions(frame, S):
    """Packed canonical primitive difference vectors realized in S, in
    lex order of the vectors.  Erosion of S by any one of them is
    nonempty.  The least difference, the least gap of sorted S, comes
    first without the O(|S|^2) set of all differences."""
    s = sorted(S)
    first = min(map(sub, s[1:], s), default=0)
    if math.gcd(*_vector(frame, first)) == 1:
        yield first
    for d in sorted({b - a for a, b in itertools.combinations(s, 2)}):
        if d > first and math.gcd(*_vector(frame, d)) == 1:
            yield d


class _ChainSearch:
    """Memoized search for erosion chains over translation classes of
    packed point sets.  Shared across queries so repeated sweeps reuse
    state."""

    def __init__(self):
        self.proved = {}   # key -> largest chain length proven to exist
        self.refuted = {}  # key -> smallest chain length proven impossible

    def reach(self, frame, S, need):
        """True iff an erosion chain of length ``need`` leaves the packed
        set S nonempty."""
        if need <= 0:
            return True
        if len(S) <= need:
            return False
        m = min(S)
        key = (frame[0], frame[1], frozenset([x - m for x in S]))
        if self.proved.get(key, 0) >= need:
            return True
        if self.refuted.get(key, _BIG) <= need:
            return False
        for u in _directions(frame, S):
            S2 = {x for x in S if x + u in S}
            if len(S2) > need - 1 and self.reach(frame, S2, need - 1):
                if self.proved.get(key, 0) < need:
                    self.proved[key] = need
                return True
        if self.refuted.get(key, _BIG) > need:
            self.refuted[key] = need
        return False


def _has_length(cs, frame, S, L):
    """True iff the packed set S has length exactly L; refuting L + 1
    first decides most sets without proving L."""
    return not cs.reach(frame, S, L + 1) and cs.reach(frame, S, L)


def _length(cs, frame, S):
    """The length of the longest erosion chain of the packed set S."""
    L = 0
    while cs.reach(frame, S, L + 1):
        L += 1
    return L


def _points(P):
    if isinstance(P, Polytope):
        return set(P.lattice_points)
    return set(tuple(map(int, p)) for p in P)  # Python ints: packing shifts


def minkowski_length(P, search=None):
    """Exact L(P) with a verifying :class:`Decomposition` certificate."""
    pts = _points(P)
    cs = search if search is not None else _ChainSearch()
    frame, S = _pack(pts)
    L = _length(cs, frame, S)
    cert = next(_decompositions(cs, frame, S, L))
    assert cert.verify(pts)
    return L, cert


def has_length_at_most(P, k, search=None):
    """True iff L(P) <= k; stops as soon as a length-(k+1) chain appears."""
    cs = search if search is not None else _ChainSearch()
    return not cs.reach(*_pack(_points(P)), k + 1)


def is_dps(P):
    """Distinct pair-sums test: all sums x + y over lattice points x <= y
    are distinct; equivalent to L(P) = 1 for positive-dimensional P."""
    S = sorted(_pack(_points(P))[1])  # digit sums stay below 2^w
    sums = [x + y for i, x in enumerate(S) for y in S[i:]]
    return len(set(sums)) == len(sums)


def _decompositions(cs, frame, S, L):
    """Length-L erosion chains of the packed set S, depth first with
    nondecreasing directions; erosions commute, so the first is greedy."""
    def dfs(S, prefix):
        if len(prefix) == L:
            yield Decomposition(tuple(_vector(frame, u) for u in prefix),
                                vadd(frame[2], _vector(frame, min(S))))
            return
        rest = L - len(prefix) - 1
        for u in _directions(frame, S):
            if prefix and u < prefix[-1]:
                continue
            S2 = {x for x in S if x + u in S}
            if len(S2) > rest and cs.reach(frame, S2, rest):
                yield from dfs(S2, prefix + [u])

    return dfs(S, [])


def maximal_segment_decompositions(P, search=None):
    """All direction multisets achieving L(P), each with one witness anchor,
    in canonical order."""
    pts = _points(P)
    if len(pts) == 1:
        return []
    cs = search if search is not None else _ChainSearch()
    frame, S = _pack(pts)
    out = _decompositions(cs, frame, S, _length(cs, frame, S))
    return sorted(out, key=lambda d: (d.directions, d.anchor))


# ---------------------------------------------------------------------------
# segment directions: find_segments and the segment sweeps

def find_segments(P, target_L, bound=None, search=None):
    """All canonical primitive u in the good-polytope region of P with
    L(P + [0, u]) = target_L."""
    if target_L < 1:  # L(P + I) >= 1 for every segment I
        raise ValueError(f"target L must be at least 1, got {target_L}")
    if bound is None:
        bound = 14
        if P.dim == 2 and equivalent(P, named_polytope(
                "T0" if P.ambient == 3 else "T0_2d")) is not None:
            bound = 2
    cs = search if search is not None else _ChainSearch()
    dirs = good_polytope(P, bound).primitive_points()
    return [u for u, pts in zip(dirs, segment_sums(P)(dirs))
            if _has_length(cs, *_pack(pts), target_L)]


def unit_triangle_segment_sweep(rmax, triangle="unit"):
    """Max z-width over segments I = [0, (p,q,r)], 0 <= p,q <= r <= rmax,
    gcd(p,q,r) = 1, with L(T + I) = 2, for T the unit triangle or T0."""
    if triangle == "unit":
        T = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    elif triangle == "T0":
        T = named_polytope("T0")
    else:
        raise ValueError("triangle must be 'unit' or 'T0'")
    sums, cs = segment_sums(T), _ChainSearch()
    for r in range(rmax, 0, -1):
        layer = [(p, q, r) for p in range(r + 1) for q in range(r + 1)
                 if math.gcd(p, q, r) == 1]
        if any(not cs.reach(*_pack(S), 3) for S in sums(layer)):
            return r
    return 0


# ---------------------------------------------------------------------------
# triangle / tetrahedron assembly

def _find_summands(P, k, search):
    """The k-lattice-point polytopes conv(0, a_1, ..., a_{k-1}) with every
    edge a find_segments direction of P, L(T) = 1 and L(P + T) = 2, one
    per translation class, sorted by vertices."""
    cs = search if search is not None else _ChainSearch()
    segs = find_segments(P, 2, search=cs)
    dirset = set(segs)  # primitive vectors only
    signed = segs + [vneg(u) for u in segs]
    # a ~ b iff b - a is +-a direction (a - 0 always is): the (k-1)-cliques
    # in index order are the compatible combinations, in their order
    later = [{j for j in range(i + 1, len(signed))
              if canonical_sign(vsub(signed[j], signed[i])) in dirset}
             for i in range(len(signed))]

    def cliques(cand, size):
        for i in cand:
            nxt = [j for j in cand if j in later[i]]
            for rest in cliques(nxt, size - 1) if size > 1 else [()]:
                yield (signed[i],) + rest

    seen = set()
    out = []
    for rest in cliques(range(len(signed)), k - 1):
        pts = ((0,) * P.ambient,) + rest
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


def find_triangles(P, search=None):
    """All lattice triangles T (one vertex at the translation-normal
    position) built from find_segments directions with L(T) = 1 and
    L(P + T) = 2, deduplicated up to translation."""
    return _find_summands(P, 3, search)


def find_tetra(P, search=None):
    """All 4-lattice-point polytopes T (tetrahedra, possibly degenerate)
    built from find_segments directions with L(T) = 1 and L(P + T) = 2,
    deduplicated up to translation."""
    return _find_summands(P, 4, search)


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
    if cs.reach(*_pack(minkowski_sum(P, Q).lattice_points), 3):
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
    frame, S = _pack(minkowski_sum(minkowski_sum(P, Q), R).lattice_points)
    if not (cs.reach(frame, S, 3) and not cs.reach(frame, S, 4)):
        length = 4 if cs.reach(frame, S, 4) else 2
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
    sums, cs = segment_sums(base), _ChainSearch()
    for c in range(cmax, 0, -1):
        layer = [(a, b, c) for b in range(c) for a in range(b + 1)
                 if math.gcd(a, b, c) == 1]
        if any(_has_length(cs, *_pack(S), 3) for S in sums(layer)):
            return c
    return 0
