"""Exact integer lattice geometry in dimensions 2 and 3.

Hulls and coordinates use Python ints only.  Every hull comes from one
exact incremental hull in Z^3, a planar set's from the pyramid over it.
One numpy kernel enumerates the lattice points of a batch of
full-dimensional polytopes or symmetric slab regions {x : |<n, x>| <= b}:
their boxes of the first n - 1 coordinates are padded to one shape, and
each column is cut to an exact integer interval of the last (int64; a
region where a cut value, or a partial sum of one, reaches 2^60 is
refused, and so is one whose box has more than 2^26 columns x
inequalities).  Segment sums P + [0, u] reach it with no hull, from P's
facets and edges (``segment_sums``), a host's directions in chunks of at
most 2^14 padded cells.  A slab region reads its rows and its box off
the hull of its +-normals, and a volume or an area is read off the
hull's triangles.
A polytope's dimension is read off its hull's start simplex (``_frame``),
and one Hermite elimination (``_hnf_transform``) serves the charts, the
normal forms and the inverse maps (a unimodular M has Hermite form I).
A lower-dimensional polytope carries one chart, the affine unimodular
map x -> U (x - p0) for p0 its least point and U the transform that puts
the columns A^T of its difference vectors into Hermite normal form
U A^T = H (zero below row dim).  The chart's last n - dim coordinates
vanish exactly on aff(P), and its first dim coordinates identify
aff(P) & Z^n with Z^dim, so the first dim columns of U^-1 are a lattice
basis of the plane and, for a flat P in Z^3, row 2 of U is its primitive
normal.  Relative normalized volumes are therefore integers.

Affine unimodular equivalence compares one normal form per polytope: over
the affine bases of vertices of least |det|, the least sorted vertex
image under the map that puts the basis into Hermite normal form (see
``_normal_form``), tried only on the bases whose invariant vertex labels
come in least order, after Grinis and Kasprzyk.  Equal keys decide
equivalence, and the maps that attain a key supply the witnesses and
the candidate linear parts of tuple equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

import numpy as np


# ---------------------------------------------------------------------------
# vector / matrix helpers

def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)

def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vgcd(a):
    return gcd(*a)


def is_primitive(a):
    return vgcd(a) == 1


def primitive(a):
    """Divide out the gcd of the coordinates (zero vector stays zero)."""
    g = vgcd(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def canonical_sign(a):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in a:
        if x > 0:
            return tuple(a)
        if x < 0:
            return vneg(a)
    return tuple(a)


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def mat_vec(M, v):
    return tuple(vdot(row, v) for row in M)


def mat_mul(A, B):
    cols = list(zip(*B))
    return tuple(tuple(vdot(row, col) for col in cols) for row in A)


def mat_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
    raise ValueError("only n <= 3 supported")


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(M):
    return tuple(zip(*M))


# ---------------------------------------------------------------------------
# Hermite normal form (with transform)

def _hnf_transform(D):
    """The unimodular U with U D in Hermite normal form, for any integer
    matrix D: U D is in row-echelon form, each pivot p is positive and
    the entries above it lie in [0, p).  U is unique when D is square and
    nonsingular (then U D is upper triangular)."""
    m, n = len(D), len(D[0])
    rows = [list(D[i]) + [int(i == j) for j in range(m)] for i in range(m)]
    r = 0  # next pivot row

    def reduce(i, j):  # row i -= floor(rows[i][j] / rows[r][j]) * row r
        f = rows[i][j] // rows[r][j]
        rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]

    for j in range(n):
        live = [i for i in range(r, m) if rows[i][j]]
        if not live:
            continue
        while True:  # Euclid on column j from row r down
            p = min(live, key=lambda i: abs(rows[i][j]))
            rows[r], rows[p] = rows[p], rows[r]
            if len(live) == 1:
                break
            for i in range(r + 1, m):
                reduce(i, j)
            live = [i for i in range(r, m) if rows[i][j]]
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            reduce(i, j)
        r += 1
    return tuple(tuple(row[n:]) for row in rows)


# ---------------------------------------------------------------------------
# affine unimodular maps

@dataclass(frozen=True)
class UnimodularMap:
    """Affine unimodular map x -> M x + t with det(M) = +-1."""

    matrix: tuple
    translation: tuple

    def __post_init__(self):
        if mat_det(self.matrix) not in (1, -1):
            raise ValueError("determinant must be +-1")

    def __call__(self, v):
        return vadd(mat_vec(self.matrix, v), self.translation)

    def apply_polytope(self, P):
        return convex_hull([self(v) for v in P.vertices])

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        M = mat_mul(self.matrix, other.matrix)
        t = vadd(mat_vec(self.matrix, other.translation), self.translation)
        return UnimodularMap(M, t)

    def inverse(self):
        # det M = +-1 makes the Hermite form of M the identity: U = M^-1
        Mi = _hnf_transform(self.matrix)
        return UnimodularMap(Mi, vneg(mat_vec(Mi, self.translation)))

    @staticmethod
    def identity(n):
        return UnimodularMap(mat_identity(n), (0,) * n)


# ---------------------------------------------------------------------------
# convex hull

def _frame(pts):
    """An affine basis of aff(pts) for distinct points in Z^2 or Z^3 (run
    as (x, y, 0)), picked greedily: pts[0], pts[1], the first point off
    their line and the first point off their plane.  dim = len - 1."""
    if len(pts) == 1:
        return pts
    lift = pts if len(pts[0]) == 3 else [p + (0,) for p in pts]
    a, u = lift[0], vsub(lift[1], lift[0])
    i = next((i for i, p in enumerate(lift) if any(cross(u, vsub(p, a)))),
             None)
    if i is None:
        return pts[:2]
    n = cross(u, vsub(lift[i], a))
    j = next((j for j, p in enumerate(lift) if vdot(n, vsub(p, a))), None)
    return [pts[k] for k in (0, 1, i, j) if k is not None]


def _hull_3d(pts, frame):
    """Vertices, facets and normalized volume of the hull of distinct
    points spanning Z^3 or Z^2, started from the tetrahedron (the
    triangle) ``frame = _frame(pts)``.

    A planar set P is hulled as the pyramid over it, P x {0} and the apex
    (p0, 1).  Its base vertices are those of P, its side facet (n, b) over
    an edge of P gives the facet (n_xy, b) of P, and its normalized
    3-volume 3! * area / 3 is the normalized area of P.  n_xy is primitive:
    gcd(n_xy) divides b (<n_xy, x> = b on the edge's lattice points) and
    <n_xy, p0>, so it divides n_z = b - <n_xy, p0> too.

    Exact incremental hull (Clarkson-Shor), taking points in Quickhull's
    farthest-first order.  The boundary is a set of outward-oriented
    triangles with integer normals.  Every point not yet added waits in
    the conflict list of one triangle it lies strictly beyond; a point
    beyond no triangle is inside the hull for good.  Adding a point
    removes the triangles it sees and joins the horizon edges to it; those
    edges lie in a plane the point is strictly beyond, so no triangle is
    degenerate.  Coplanar triangles merge into facets at the end, returned
    as sorted (primitive inward normal, offset) pairs with
    <normal, x> >= offset.  The offset <(v - u) x (w - u), u> of an
    outward triangle (u, v, w) is det(u, v, w), six times the signed
    volume of its cone from the origin, so the final offsets sum to the
    normalized volume.
    """
    if len(pts[0]) == 2:
        def pyramid(s):
            return [pts[0] + (1,)] + [p + (0,) for p in s]

        verts, facets, vol = _hull_3d(pyramid(pts), pyramid(frame))
        return ([v[:2] for v in verts if not v[2]], tuple(sorted(
            (n[:2], b) for n, b in facets if any(n[:2]))), vol)
    # 3D dot and cross products spelled out: they run for every triangle
    # of the thousands of tiny hulls a segment sweep builds
    def dot(n, p):
        return n[0] * p[0] + n[1] * p[1] + n[2] * p[2]

    def normal(u, v, w):
        x1, y1, z1 = v[0] - u[0], v[1] - u[1], v[2] - u[2]
        x2, y2, z2 = w[0] - u[0], w[1] - u[1], w[2] - u[2]
        return (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)

    # the starting tetrahedron, with det(b - a, c - a, d - a) > 0
    a, b, c, d = frame
    n = normal(a, b, c)
    if dot(n, d) < dot(n, a):
        b, c = c, b
    tris = {}       # id -> (corners, outward normal, offset)
    edges = {}      # directed edge -> id of the triangle it bounds
    conflicts = {}  # id -> points strictly beyond the triangle
    ids = itertools.count()

    def add(u, v, w):
        t = next(ids)
        n = normal(u, v, w)
        tris[t] = ((u, v, w), n, dot(n, u))
        edges[u, v] = edges[v, w] = edges[w, u] = t
        conflicts[t] = []
        return t

    def assign(points, fresh):
        for p in points:
            for t in fresh:
                _, n, off = tris[t]
                if dot(n, p) > off:
                    conflicts[t].append(p)
                    break
        return [t for t in fresh if conflicts[t]]

    todo = assign((p for p in pts if p not in (a, b, c, d)),
                  [add(a, c, b), add(a, b, d), add(a, d, c), add(b, c, d)])
    while todo:
        t = todo.pop()
        if not conflicts.get(t):  # removed since it was queued
            continue
        _, n, _ = tris[t]
        p = max(conflicts[t], key=lambda q: dot(n, q))
        visible, stack, horizon = {t}, [t], []
        while stack:
            u, v, w = tris[stack.pop()][0]
            for e in ((u, v), (v, w), (w, u)):
                r = edges[e[1], e[0]]
                if r in visible:
                    continue
                _, nr, off = tris[r]
                if dot(nr, p) > off:
                    visible.add(r)
                    stack.append(r)
                else:
                    horizon.append(e)
        orphans = []
        for s in visible:
            u, v, w = tris.pop(s)[0]
            del edges[u, v], edges[v, w], edges[w, u]
            orphans += conflicts.pop(s)
        todo += assign((q for q in orphans if q != p),
                       [add(u, v, p) for u, v in horizon])

    facets = set()
    normals = {}  # triangle corner -> inward normals of its facets
    for corners, n, off in tris.values():
        g = vgcd(n)
        f = (tuple(-x // g for x in n), -off // g)
        facets.add(f)
        for p in corners:
            normals.setdefault(p, set()).add(f[0])
    # at most two facets share an edge, so three facet normals at a
    # corner already have rank 3 and make it a vertex
    verts = [p for p, ns in normals.items() if len(ns) >= 3]
    return verts, tuple(sorted(facets)), sum(t[2] for t in tris.values())


# ---------------------------------------------------------------------------
# lattice points by columns (polytopes and slab regions)

_MAX_CELLS = 1 << 26  # columns x inequalities of one region: 512 MB of int64
_BATCH_CELLS = 1 << 14  # padded columns x inequalities per chunk of sums
_BIG = 1 << 60  # beyond every cut value (checked)
_TOO_LARGE = "coordinates too large: a cut value reaches 2^60"


def _column_points(N, B, lo, hi):
    """Lex-sorted integer points x with N[i] x >= B[i], one tuple for each
    region i in Z^2 or Z^3, which must lie inside the box [lo[i], hi[i]].

    N is (k, m, n), B is (k, m), lo and hi are (k, n).  The boxes of the
    first n - 1 coordinates are padded to one shape, and each column is
    cut to an exact integer interval of the last coordinate, which the
    inequalities must bound both ways.  Raises ValueError when one
    region's columns x inequalities exceeds 2^26 (before any array is
    built) or when a cut value reaches 2^60 (before any column is cut).
    """
    m = len(B[0])
    widths = [[b - a + 1 for a, b in zip(l[:-1], h[:-1])]
              for l, h in zip(lo, hi)]
    for ncols in map(prod, widths):
        if ncols * m > _MAX_CELLS:
            raise ValueError(f"lattice point box too large: {ncols} columns"
                             f" x {m} inequalities = {ncols * m} > 2^26")
    k, shape = len(N), [max(w) for w in zip(*widths)]
    xmax = max(map(abs, itertools.chain.from_iterable(lo))) + max(shape)
    try:
        N, B, lo = (np.asarray(a, dtype=np.int64) for a in (N, B, lo))
    except OverflowError:
        raise ValueError(_TOO_LARGE) from None
    # each partial sum -b + n_0 x_0 + ... of a cut value is at most |b| +
    # sum |n_j| |x_j|, and over the padded box it peaks at a corner
    bmax, nmax = (max(int(v.max()), -int(v.min())) for v in (B, N))
    if bmax + nmax * len(shape) * xmax >= _BIG:
        for Ni, Bi, l in zip(N.tolist(), B.tolist(), lo.tolist()):
            for row, b in zip(Ni, Bi):
                ends = [sorted((a * x, a * (x + w - 1)))
                        for a, x, w in zip(row, l, shape)]
                if any(abs(s) >= _BIG for e in zip(*ends)
                       for s in itertools.accumulate(e, initial=-b)):
                    raise ValueError(_TOO_LARGE)
    # f[row, region, column] = -rhs of n_z z >= rhs, an outer sum over the
    # column axes, then floor(-rhs / |n_z|) in place
    f = -B.T[:, :, None]
    for j, w in enumerate(shape):
        f = (f[:, :, :, None] + (N[:, :, j].T[:, :, None] * (
            lo[:, j, None] + np.arange(w)))[:, :, None]).reshape(m, k, -1)
    nz = N[:, :, -1].T[:, :, None]
    f //= np.maximum(np.abs(nz), 1)
    # z >= -f where n_z > 0, z <= f where n_z < 0; f < 0 where n_z = 0
    # empties the column
    zlo = -np.minimum.reduce(f, where=nz > 0, initial=_BIG)
    zhi = np.minimum.reduce(f, where=nz < 0, initial=_BIG)
    zhi[np.minimum.reduce(f, where=nz == 0, initial=0) < 0] = -_BIG
    count = np.maximum(zhi - zlo + 1, 0).ravel()
    z = np.repeat(zlo.ravel() - np.add.accumulate(count) + count, count)
    z += np.arange(len(z))
    cols = lo[:, None, :-1] + np.indices(shape).reshape(len(shape), -1).T
    xy = np.repeat(cols.reshape(-1, len(shape)), count, axis=0)
    pts = np.concatenate([xy, z[:, None]], axis=1).tolist()
    ends = np.add.accumulate(count.reshape(k, -1).sum(axis=1)).tolist()
    return [tuple(map(tuple, pts[a:b])) for a, b in zip([0] + ends, ends)]


class Polytope:
    """Immutable lattice polytope in Z^2 or Z^3.

    Construct through :func:`convex_hull`. For full-dimensional polytopes
    ``facets`` holds the irredundant half-space system
    ``<normal, x> >= offset`` with primitive normals.  A lower-dimensional
    polytope carries its chart ``_chart``, the :class:`UnimodularMap`
    x -> U (x - p0) of the module docstring, and ``_inner``, the
    full-dimensional polytope in Z^dim of the first dim chart coordinates
    of its points, whose facets it shares.
    """

    __slots__ = ("ambient", "dim", "vertices", "facets", "_chart", "_inner",
                 "_points", "_nf", "__weakref__")

    def __init__(self, ambient, dim, vertices, facets=None, chart=None,
                 inner=None):
        self.ambient = ambient
        self.dim = dim
        self.vertices = tuple(sorted(vertices))
        self.facets = facets
        self._chart = chart
        self._inner = inner
        self._points = None
        self._nf = None

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.ambient == other.ambient
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={list(self.vertices)})"

    # -- lattice points ----------------------------------------------------

    @property
    def lattice_points(self):
        if self._points is None:
            self._points = self._compute_points()
        return self._points

    def _compute_points(self):
        if self.dim == 0:
            return self.vertices
        if self.ambient == 1:  # the inner segment of a chart: no box
            (lo,), (hi,) = self.vertices
            if hi - lo >= _MAX_CELLS:
                raise ValueError(f"lattice point segment too large: "
                                 f"{hi - lo + 1} points > 2^26")
            return tuple((v,) for v in range(lo, hi + 1))
        if self.dim < self.ambient:
            lift, pad = self._chart.inverse(), (0,) * (self.ambient - self.dim)
            return tuple(sorted(lift(c + pad)
                                for c in self._inner.lattice_points))
        spans, (N, B) = tuple(zip(*self.vertices)), zip(*self.facets)
        return _column_points([N], [B], [tuple(map(min, spans))],
                              [tuple(map(max, spans))])[0]

    def contains(self, p):
        if self.dim == 0:
            return tuple(p) == self.vertices[0]
        if self.dim == self.ambient:
            return all(vdot(n, p) >= b for n, b in self.facets)
        c = self._chart(p)
        return not any(c[self.dim:]) and self._inner.contains(c[:self.dim])

    # -- invariants --------------------------------------------------------

    @property
    def n_points(self):
        return len(self.lattice_points)


def convex_hull(points):
    """Exact convex hull of integer points in Z^2 or Z^3."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if n not in (2, 3):
        raise ValueError("only ambient dimensions 2 and 3 are supported")
    if any(len(p) != n for p in pts):
        raise ValueError("mixed dimensions in input")
    p0, frame = pts[0], _frame(pts)
    dim = len(frame) - 1
    if dim == 0:
        return Polytope(n, 0, (p0,))
    if dim == n:
        return Polytope(n, n, *_hull_3d(pts, frame)[:2])

    # lower-dimensional: hull the chart coordinates over aff(P) & Z^n
    U = _hnf_transform(mat_transpose([vsub(p, p0) for p in pts[1:]]))
    chart = UnimodularMap(U, vneg(mat_vec(U, p0)))
    coords = [chart(p)[:dim] for p in pts]
    if dim == 1:
        lo, hi = min(coords), max(coords)
        inner = Polytope(1, 1, (lo, hi), facets=(((1,), lo[0]),
                                                  ((-1,), -hi[0])))
    else:
        inner = convex_hull(coords)
    back = dict(zip(coords, pts))
    return Polytope(n, dim, [back[c] for c in inner.vertices], inner.facets,
                    chart, inner)


# ---------------------------------------------------------------------------
# basic operations

def lattice_points(P):
    return list(P.lattice_points)


def minkowski_sum(P, Q):
    if P.ambient != Q.ambient:
        raise ValueError("dimension mismatch")
    sums = {vadd(p, q) for p in P.vertices for q in Q.vertices}
    return convex_hull(sums)


def segment_sums(P):
    """dirs -> the lex-sorted lattice points of P + [0, u] for each u of the
    iterable dirs, lazily and in order, for one host P.

    A facet of a full-dimensional sum has a facet normal n of P (+-the
    plane normal of a flat P) at offset b + min(0, <n, u>), or a multiple
    of +-(e x u) for an edge e of P (+-u^perp in Z^2) at P's least and
    greatest value; further valid inequalities change no point, so a side
    row with e x u = 0 stays as the row 0 >= 0 and all sums of P have the
    same rows.
    Consecutive sums share one ``_column_points`` call, in chunks of at
    most _BATCH_CELLS padded cells (one direction is drawn past a chunk
    before it is computed).  Lower-dimensional sums (dim P <= 1, u in the
    plane of a flat P) take ``minkowski_sum`` in their place.
    """
    n, verts, facets, coords = P.ambient, P.vertices, P.facets, P.vertices

    def hulled(u):
        return minkowski_sum(P, convex_hull([(0,) * n, u])).lattice_points

    if P.dim < 2:
        return lambda dirs: map(hulled, dirs)
    if P.dim < n:
        h = P._chart.matrix[2]
        facets = ((h, vdot(h, verts[0])), (vneg(h), -vdot(h, verts[0])))
        coords = [P._chart(v)[:2] for v in verts]
    # edges: vertex pairs on dim - 1 common facets (of P._inner if flat)
    tight = [{f for f in P.facets if vdot(f[0], c) == f[1]} for c in coords]
    edges = sorted({canonical_sign(primitive(vsub(b, a))) for (a, s), (b, t)
                    in itertools.combinations(zip(verts, tight), 2)
                    if len(s & t) >= P.dim - 1})
    V, (Fn, Fb) = np.array(verts), map(np.array, zip(*facets))
    lo, hi = V.min(axis=0), V.max(axis=0)
    width = (hi - lo + 1)[:-1].tolist()
    rows = len(Fb) + 2 * (len(edges) if n == 3 else 1)
    # a chunk's int64 rows stay below 6 max|e, f| max|v| max|u|, as
    # |<e x u, v>| <= 6 |e| |u| |v| and |<f, u>| + |b| <= 3 |f| (|u| + |v|)
    scale = 6 * max(map(abs, itertools.chain(*edges, *(f for f, _ in facets))
                        )) * max(map(abs, itertools.chain(*verts)))

    def chunk(us):
        U = np.array(us)
        if scale * max(1, int(U.max()), -int(U.min())) >= 1 << 63:
            raise ValueError("coordinates too large for int64 segment sums")
        S = np.cross(edges, U[:, None]) if n == 3 else \
            U[:, None, ::-1] * (-1, 1)  # u^perp
        vals = S @ V.T
        N = np.concatenate([np.broadcast_to(Fn, (len(U),) + Fn.shape), S, -S],
                           axis=1)
        B = np.concatenate([Fb + np.minimum(U @ Fn.T, 0), vals.min(axis=2),
                            -vals.max(axis=2)], axis=1)
        return _column_points(N, B, np.minimum(lo, lo + U).tolist(),
                              np.maximum(hi, hi + U).tolist())

    def sums(dirs):
        batch, shape = [], None
        for u in dirs:
            own = [w + abs(x) for w, x in zip(width, u)]
            wide = list(map(max, shape, own)) if batch else own
            inplane = P.dim < n and vdot(h, u) == 0
            if batch and (inplane or (len(batch) + 1) * prod(wide) * rows
                          > _BATCH_CELLS):
                yield from chunk(batch)
                batch, wide = [], own
            if inplane:
                yield hulled(u)
            else:
                batch.append(u)
                shape = wide
        if batch:
            yield from chunk(batch)
    return sums


def good_polytope(P, bound=14):
    """Region {u : |<u, n_F>| <= bound} over the facet normals of P.

    For a 2-dimensional P in Z^3 the edge normals within the plane of P
    together with the plane normal itself are used, so the region stays
    bounded."""
    if P.dim == P.ambient:
        return RationalHalfSpaceSystem([n for n, _ in P.facets], bound)
    if P.ambient != 3 or P.dim != 2:
        raise ValueError("good_polytope needs a 2- or full-dimensional P")
    h, lift = P._chart.matrix[2], P._chart.inverse().matrix
    # an inner edge normal m lifts to the plane vector U^-1 (m^perp, 0)
    # along its edge, and on to the normal of that edge within the plane
    normals = [primitive(cross(mat_vec(lift, (-m[1], m[0], 0)), h))
               for m, _ in P._inner.facets]
    return RationalHalfSpaceSystem(normals + [h], bound)


def normalized_volume(P):
    """dim!-normalized volume of P measured in the lattice of aff(P); in
    dimensions 2 and 3 the one that ``_hull_3d`` sums over its triangles
    (of the pyramid over a full-dimensional P in Z^2)."""
    if P.dim == 0:
        return 0
    if P.dim < P.ambient:
        return normalized_volume(P._inner)
    if P.dim == 1:
        return P.vertices[-1][0] - P.vertices[0][0]
    return _hull_3d(P.vertices, _frame(P.vertices))[2]


def ambient_vol3(P):
    """Normalized 3-volume in Z^3; zero for polytopes of dimension < 3."""
    if P.ambient != 3:
        raise ValueError("ambient dimension must be 3")
    if P.dim < 3:
        return 0
    return normalized_volume(P)


def vol2(P):
    """Normalized area; zero when dim(P) < 2."""
    if P.dim < 2:
        return 0
    if P.dim > 2:
        raise ValueError("vol2 of a 3-dimensional polytope")
    return normalized_volume(P)


def mixed_area(P0, P1):
    """Normalized mixed volume V(P0, P1) of planar polytopes, with the
    convention V(P, P) = Vol2(P).

    Both polytopes must have dim <= 2 and lie in parallel planes (their
    Minkowski sum must be at most 2-dimensional).
    """
    if P0.ambient != P1.ambient:
        raise ValueError("dimension mismatch")
    if P0.dim > 2 or P1.dim > 2:
        raise ValueError("inputs must be at most 2-dimensional")
    S = minkowski_sum(P0, P1)
    if S.dim > 2:
        raise ValueError("polytopes do not lie in parallel planes")
    # parallel planes meet Z^n in translates of one lattice
    return (vol2(S) - vol2(P0) - vol2(P1)) // 2


# ---------------------------------------------------------------------------
# width

def width_in_direction(P, v):
    if not is_primitive(v):
        raise ValueError("direction must be primitive")
    vals = [vdot(u, v) for u in P.vertices]
    return max(vals) - min(vals)


def lattice_width(P):
    """Lattice width and a witness direction (lex-smallest canonical witness).

    The search region is rigorous: with B = min_i w_{e_i}(P), every v with
    w_v(P) <= B has |<v, p - p_0>| <= w_v(P) <= B for all vertices p and
    the first vertex p_0, and these differences span R^n, so it is enough
    to scan the bounded slab region {v : |<v, p - p_0>| <= B}.
    """
    if P.dim != P.ambient:
        raise ValueError("lattice_width needs a full-dimensional polytope")
    n = P.ambient
    B = min(width_in_direction(P, tuple(1 if i == j else 0 for j in range(n)))
            for i in range(n))
    p0 = P.vertices[0]
    region = RationalHalfSpaceSystem([vsub(p, p0) for p in P.vertices[1:]], B)
    return min((width_in_direction(P, v), v)
               for v in region.primitive_points())


# ---------------------------------------------------------------------------
# erosion

def erode(points, u):
    """{x in S : x + u in S}; the zonotope-fitting primitive."""
    S = points if isinstance(points, (set, frozenset)) else set(points)
    return {x for x in S if vadd(x, u) in S}


# ---------------------------------------------------------------------------
# slab regions (the good-polytope region, the lattice width search)

class RationalHalfSpaceSystem:
    """The region {x : |<n, x>| <= bound for every n in normals}.

    Only its integer points are exposed; the region itself may have
    rational vertices.  It is bound * Z°, the polar of the hull Z of the
    +-normals: bounded exactly when Z is full-dimensional, cut out by
    <v, x> >= -bound for the vertices v of Z, and with one vertex
    bound * m / off for each facet <m, z> >= off of Z (off < 0, as 0 is
    interior).  So the largest x_j, the optimum of the LP max x_j, is the
    largest bound * m_j / off.  (The name predates the slab form; the
    benchmark's spans are keyed on it.)
    """

    def __init__(self, normals, bound):
        self.normals = tuple(tuple(n) for n in normals)
        self.bound = int(bound)
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        if not self.normals:
            raise ValueError("unbounded region")
        self._hull = convex_hull(self.normals + tuple(map(vneg, self.normals)))
        if self._hull.dim < len(self.normals[0]):
            raise ValueError("unbounded region")

    def contains(self, x):
        return all(abs(vdot(n, x)) <= self.bound for n in self.normals)

    def integer_points(self):
        Z, b = self._hull, self.bound
        box = [max(b * m[j] // off for m, off in Z.facets)
               for j in range(Z.ambient)]
        return list(_column_points([Z.vertices], [[-b] * len(Z.vertices)],
                                   [[-r for r in box]], [box])[0])

    def primitive_points(self):
        return sorted({canonical_sign(p) for p in self.integer_points()
                       if any(p) and is_primitive(p)})


# ---------------------------------------------------------------------------
# AGL(n, Z)-equivalence by an affine normal form

def _normal_form(P):
    """(key, maps): the affine normal form of P and the maps onto it.

    For a full-dimensional P in Z^d, label each vertex v by the sorted |det|
    of all (d+1)-subsets of vertices that contain v.  The candidates are
    the ordered affine bases (v_0, ..., v_d) of vertices with minimal
    |det(v_i - v_0)| whose label sequence is the least sorted one; each
    gives the map x -> U (x - v_0), U the Hermite transform of the columns
    v_i - v_0.  The key is the least sorted image of the vertices under
    these maps, and ``maps`` holds every map that attains it.  A unimodular
    x -> A x + b keeps every |det| and label, so it carries the candidates
    onto those of its image and turns each U into U A^-1: the key is an
    invariant.  Automorphisms of P permute the candidates, so ``maps`` is
    the set of all maps of P onto conv(key).  A lower-dimensional P takes
    the key of ``_inner`` (the same code in Z^dim); its maps, extended by
    the identity and composed with P's chart, carry P onto conv(key) x {0};
    a point's key is ((),).  Computed once per polytope.
    """
    if P._nf is not None:
        return P._nf
    n = P.ambient
    if P.dim == 0:
        P._nf = ((),), (UnimodularMap(mat_identity(n), vneg(P.vertices[0])),)
    elif P.dim < n:
        key, inner_maps = _normal_form(P._inner)
        d = P.dim
        maps = []
        for psi in inner_maps:
            block = tuple(tuple(psi.matrix[i][j] if i < d and j < d
                                else int(i == j) for j in range(n))
                          for i in range(n))
            t = psi.translation + (0,) * (n - d)
            maps.append(UnimodularMap(block, t).compose(P._chart))
        P._nf = key, tuple(maps)
    else:
        verts = P.vertices
        dets = {v: [] for v in verts}
        least, simplices = None, []
        for simplex in itertools.combinations(verts, n + 1):
            det = abs(mat_det([vsub(v, simplex[0]) for v in simplex[1:]]))
            for v in simplex:
                dets[v].append(det)
            if det and (least is None or det < least):
                least, simplices = det, [simplex]
            elif det == least:
                simplices.append(simplex)
        label = {v: tuple(sorted(ds)) for v, ds in dets.items()}
        first = min(sorted(map(label.get, s)) for s in simplices)
        key, found = None, []
        for basis in itertools.chain.from_iterable(
                map(itertools.permutations, simplices)):
            if list(map(label.get, basis)) != first:
                continue
            v0 = basis[0]
            U = _hnf_transform(mat_transpose([vsub(v, v0) for v in basis[1:]]))
            image = tuple(sorted(mat_vec(U, vsub(v, v0)) for v in verts))
            if key is None or image < key:
                key, found = image, [(U, v0)]
            elif image == key:
                found.append((U, v0))
        P._nf = key, tuple(UnimodularMap(U, vneg(mat_vec(U, v0)))
                           for U, v0 in found)
    return P._nf


def equivalent(P, Q):
    """Witness affine unimodular map with phi(P) = Q, or None.

    P and Q are equivalent iff their normal forms have the same key.  The
    witness is then phi_Q^-1 o phi_P for phi_P and phi_Q the first maps of
    P and of Q onto it, first in the order in which ``_normal_form``
    tries their affine bases.
    """
    if P.ambient != Q.ambient:
        raise ValueError("dimension mismatch")
    if P.dim != Q.dim or len(P.vertices) != len(Q.vertices):
        return None
    key_p, maps_p = _normal_form(P)
    key_q, maps_q = _normal_form(Q)
    if key_p != key_q:
        return None
    return maps_q[0].inverse().compose(maps_p[0])


def tuple_equivalent(Ps, Qs):
    """Shared-linear-part equivalence of polytope tuples.

    Returns (phi, translations) with phi(P_i) + v_i = Q_i for all i, where
    phi has translation 0, or None.  The linear part of phi carries a
    full-dimensional pivot onto its partner: the first full-dimensional
    P_i, else the Minkowski sum of the P_i.  The candidates are therefore
    the maps of the pivot onto the partner's normal form.
    """
    if len(Ps) != len(Qs):
        raise ValueError("tuple length mismatch")
    if not Ps:
        raise ValueError("empty tuples")
    n = Ps[0].ambient
    for P, Q in zip(Ps, Qs):
        if P.ambient != n or Q.ambient != n:
            raise ValueError("dimension mismatch")
        if P.dim != Q.dim or len(P.vertices) != len(Q.vertices):
            return None
        if P.n_points != Q.n_points:
            return None
    k = next((i for i, P in enumerate(Ps) if P.dim == n), None)
    if k is not None:
        pivot, partner = Ps[k], Qs[k]
    else:
        pivot, partner = Ps[0], Qs[0]
        for P, Q in zip(Ps[1:], Qs[1:]):
            pivot, partner = minkowski_sum(pivot, P), minkowski_sum(partner, Q)
        if pivot.dim < n:
            raise ValueError("degenerate tuple: directions do not span R^n")
    key_p, maps_p = _normal_form(pivot)
    key_q, maps_q = _normal_form(partner)
    if key_p != key_q:
        return None
    back = maps_q[0].inverse().matrix
    for psi in maps_p:
        M = mat_mul(back, psi.matrix)
        translations = []
        for P, Q in zip(Ps, Qs):
            image = sorted(mat_vec(M, v) for v in P.vertices)
            shift = vsub(Q.vertices[0], image[0])
            if any(vadd(v, shift) != q for v, q in zip(image, Q.vertices)):
                break
            translations.append(shift)
        else:
            return UnimodularMap(M, (0,) * n), tuple(translations)
    return None
