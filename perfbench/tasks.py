"""The three workloads: seeded inputs and checked task lists.

``make_tasks(workload, seed)`` draws every input from ``random.Random``
seeded with ``seed`` (plain integer data: vertex lists, unimodular maps,
coefficient codes) and returns a list of ``(name, task)``.  A task calls
the public toric3 API on those inputs, checks the answer, and returns
``(ok, output)``; ``output`` is a plain value used to compare passes,
traced and untraced.

A check is one of:
* the value that the matching ``toric3 verify`` suite checks, for a
  shortened call of the same function;
* the suite itself, run through ``toric3.cli.run`` and counted by its own
  pass/fail;
* an independent oracle: invariance under a seeded unimodular map, or the
  two weight engines agreeing.

Sizes are set so that one pass of each list takes 5 to 10 s on a 2-core
x86 machine, so that a run holds several passes, and so that the seed
changes the shapes but hardly the cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# Calls go through the module attributes, which the tracer replaces.
from toric3 import catalog, cli, geometry, gfq, minklen, toriccode
from toric3.geometry import UnimodularMap
from toric3.gfq import LaurentPolynomial

# sweep
UNIT_RMAX = 16         # unit triangle: the answer is 14 for any rmax >= 14
T0_RMAX = 10           # T0: the answer is 2 for any rmax >= 2
N_LENGTH = 160         # random polytopes tested for L-invariance
# search
N_MOVED_HOSTS = 1      # seeded images of each summand-search host
N_CLASSIFY = 8         # catalog pairs and triples moved by a shared map
N_EQUIV = 60           # random polytopes matched against their images
N_CLOUD = 3            # random point clouds hulled with their images
# codes
ZERO_QS = (16, 32, 49, 64, 81)


def _random_map(rng, shears=3, tbox=3):
    """A seeded affine unimodular map, as (matrix rows, translation)."""
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(shears):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows = [[-x for x in r] if rng.random() < 0.5 else r for r in rows]
    return (tuple(map(tuple, rows)),
            tuple(rng.randint(-tbox, tbox) for _ in range(3)))


def _random_points(rng, count, box, flat=False):
    while True:
        pts = [(rng.randint(0, box), rng.randint(0, box),
                0 if flat else rng.randint(0, box)) for _ in range(count)]
        if len(set(pts)) > 1:
            return pts


def _sphere_points(rng, count, r2):
    """``count`` distinct lattice points on the sphere |x|^2 = r2.  They
    are in convex position, so each is a vertex of their hull: the vertex
    count, which sets the cost of ``equivalent``, does not depend on the
    seed."""
    k = int(r2 ** 0.5) + 1
    sphere = [(a, b, c) for a in range(-k, k + 1) for b in range(-k, k + 1)
              for c in range(-k, k + 1) if a * a + b * b + c * c == r2]
    return rng.sample(sphere, count)


def _equals(value, expect):
    return value == expect, value


def _verify(suite):
    """Run ``toric3 verify <suite>`` with its JSON captured, not printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(["verify", suite])
    out = json.loads(buf.getvalue())
    ok = rc == 0 and out["failed"] == 0 and out["passed"] > 0
    return ok, [out["passed"], out["failed"]]


# -- sweep -------------------------------------------------------------------

def _length_invariance(points, phi):
    P = geometry.convex_hull(points)
    Q = UnimodularMap(*phi).apply_polytope(P)
    L = minklen.minkowski_length(P)[0]
    ok = (minklen.minkowski_length(Q)[0] == L
          and minklen.is_dps(P) == (L == 1))
    return ok, L


def _sweep(rng):
    tasks = [
        ("lemma31.unit", lambda: _equals(minklen.unit_triangle_segment_sweep(
            UNIT_RMAX, triangle="unit"), 14)),
        ("lemma31.T0", lambda: _equals(minklen.unit_triangle_segment_sweep(
            T0_RMAX, triangle="T0"), 2)),
        ("verify.lemma41", lambda: _verify("lemma41")),
        ("verify.table1", lambda: _verify("table1")),
    ]
    for i in range(N_LENGTH):
        # a fixed size schedule, so only the shapes depend on the seed;
        # every fourth polytope is planar (the degenerate hull path)
        count, box = (4, 5, 6)[i % 3], (2, 3, 4)[i % 3]
        pts = _random_points(rng, count, box, flat=i % 4 == 3)
        phi = _random_map(rng)
        tasks.append((f"length.{i}",
                      lambda a=(pts, phi): _length_invariance(*a)))
    return tasks


# -- search ------------------------------------------------------------------

def _host(name, M):
    P = catalog.named_polytope(name)
    return P if M is None else UnimodularMap(M, (0, 0, 0)).apply_polytope(P)


def _tetra(host, M, expect):
    tets = minklen.find_tetra(_host(host, M))
    ref = catalog.named_polytope(expect)
    ok = len(tets) == 1 and geometry.equivalent(tets[0], ref) is not None
    return ok, [t.vertices for t in tets]


def _no_triangles(host, M):
    tris = minklen.find_triangles(_host(host, M))
    return tris == [], [t.vertices for t in tris]


def _classify(names, label, phi, shifts):
    """Classify catalog summands moved by one linear map, each with its
    own shift; the label must be the catalog's."""
    M, _ = phi
    moved = [UnimodularMap(M, t).apply_polytope(catalog.named_polytope(n))
             for n, t in zip(names, shifts)]
    classify = minklen.classify_pair if len(names) == 2 \
        else minklen.classify_triple
    return _equals(classify(*moved).label, label)


def _equivalence(points, phi):
    P = geometry.convex_hull(points)
    Q = UnimodularMap(*phi).apply_polytope(P)
    w = geometry.equivalent(P, Q)
    ok = w is not None and w.apply_polytope(P) == Q
    return ok, None if w is None else [w.matrix, w.translation]


def _cube_hull(d):
    pts = [(a, b, c) for a in range(d + 1) for b in range(d + 1)
           for c in range(d + 1)]
    H = geometry.convex_hull(pts)
    corners = sorted((a, b, c) for a in (0, d) for b in (0, d)
                     for c in (0, d))
    return list(H.vertices) == corners and len(H.facets) == 6, H.vertices


def _cloud_hull(points, phi):
    H = geometry.convex_hull(points)
    f = UnimodularMap(*phi)
    H2 = geometry.convex_hull([f(p) for p in points])
    ok = (H2.vertices == tuple(sorted(f(v) for v in H.vertices))
          and all(H.contains(p) for p in points))
    return ok, H.vertices


def _search(rng):
    # the classify2 hosts K2 and T2 with the values its suite checks, as
    # given and under seeded linear maps; find_tetra(E) and find_tetra(S2)
    # are left out (8 s and 25 s)
    tasks = [("verify.classify3", lambda: _verify("classify3"))]
    for i in range(N_MOVED_HOSTS + 1):
        M = _random_map(rng)[0] if i else None
        tasks.append((f"tetra.K2.{i}", lambda M=M: _tetra("K2", M, "S")))
        M = _random_map(rng)[0] if i else None
        tasks.append((f"triangles.T2.{i}",
                      lambda M=M: _no_triangles("T2", M)))
    catalog_tuples = (
        ("(K1,K1)", ("K1", "K1")), ("(ii)", ("S1", "S2", "S2")),
        ("(K2,S)", ("K2", "S")), ("(iv)", ("E", "S2", "S2")),
        ("(E,S2)", ("E", "S2")), ("(ii)", ("S1", "S2", "S2")),
        ("(S1,S2)", ("S1", "S2")), ("(iv)", ("E", "S2", "S2")))
    for i in range(N_CLASSIFY):
        label, names = catalog_tuples[i % len(catalog_tuples)]
        phi = _random_map(rng)
        shifts = [_random_map(rng)[1] for _ in names]
        tasks.append((f"classify.{i}",
                      lambda a=(names, label, phi, shifts): _classify(*a)))
    for i in range(N_EQUIV):
        pts = _sphere_points(rng, 5, (5, 6, 9)[i % 3])
        phi = _random_map(rng)
        tasks.append((f"equivalent.{i}", lambda a=(pts, phi): _equivalence(*a)))
    tasks.append(("hull.cube4", lambda: _cube_hull(4)))
    tasks.append(("hull.cube5", lambda: _cube_hull(5)))
    for i in range(N_CLOUD):
        pts = _random_points(rng, 80, 9)
        phi = _random_map(rng)
        tasks.append((f"hull.cloud.{i}", lambda a=(pts, phi): _cloud_hull(*a)))
    return tasks


# -- codes -------------------------------------------------------------------

def _min_weight(name, q, engine, expect):
    code = toriccode.build_code(catalog.named_polytope(name), q)
    return _equals(toriccode.min_weight(code, engine=engine), expect)


def _engines_agree(name, q, first, second):
    code = toriccode.build_code(catalog.named_polytope(name), q)
    d1 = toriccode.min_weight(code, engine=first)
    d2 = toriccode.min_weight(code, engine=second)
    return d1 == d2, d1


def _zero_count_invariance(q, coeffs, phi):
    field = gfq.make_field(q)
    pts = catalog.named_polytope("P8").lattice_points
    f = LaurentPolynomial.make(field, dict(zip(pts, coeffs)))
    n = gfq.count_zeros(f)
    g = gfq.monomial_substitution(f, UnimodularMap(*phi))
    return gfq.count_zeros(g) == n, n


def _params(name, q, expect):
    cp = toriccode.params_report(catalog.named_polytope(name), q)
    ok = cp.d == expect and all(h is not False for _, h in cp.bound_reports)
    return ok, [cp.n, cp.k, cp.d]


def _codes(rng):
    tasks = [
        # the user's default engine on the Section 8 codes (exhaustive)
        ("section8.P8.q5", lambda: _min_weight("P8", 5, "auto", 36)),
        ("section8.Q8.q5", lambda: _min_weight("Q8", 5, "auto", 36)),
        ("section8.P8.q7", lambda: _min_weight("P8", 7, "auto", 162)),
        # EX72 over GF(4): auto sweeps the extension field; BZ must agree
        ("ex72.q4.engines", lambda: _engines_agree("EX72", 4, "auto", "bz")),
        ("ex72.q5.bz", lambda: _equals(toriccode.max_zero_count(
            catalog.named_polytope("EX72"), 5, engine="bz"), 40)),
        # BZ over GF(8), checked against the exhaustive sweep
        ("T1.q8.engines",
         lambda: _engines_agree("T1", 8, "bz", "exhaustive")),
        ("verify.ex63", lambda: _verify("ex63")),
        ("params.P8.q5", lambda: _params("P8", 5, 36)),
    ]
    for q in ZERO_QS:
        # more coefficients than P8 has lattice points; the task uses the
        # first ones
        coeffs = [rng.randrange(1, q) for _ in range(64)]
        phi = _random_map(rng)
        tasks.append((f"zeros.q{q}",
                      lambda a=(q, coeffs, phi): _zero_count_invariance(*a)))
    return tasks


WORKLOADS = {"sweep": _sweep, "search": _search, "codes": _codes}


def make_tasks(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
