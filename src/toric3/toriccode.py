"""Toric evaluation codes: generator matrices, exact [n, k, d], N_P.

A code is built by evaluating the monomials x^a, a a lattice point of P,
at all (q-1)^m points of the algebraic torus (F_q^*)^m, one monomial per
class of a mod q-1.  Distinct classes are distinct torus characters,
independent by Dedekind-Artin, so the rank needs no elimination.  The
evaluation order is fixed: torus points are enumerated in lexicographic
order of their coordinate discrete logs (base = the field's canonical
generator), so generator matrices are reproducible across platforms.

Two minimum-weight engines are provided.  The exhaustive engine sweeps
messages that meet every orbit of the weight-preserving rescalings
m_a -> lambda t^a m_a, (lambda, t) in (F_q^*)^(m+1): a row takes only
0 and 1 while the rescalings fixing the rows pinned to 1 before it still
reach every value on it (see ``_sweep_plan``).  A coordinate-update
budget guards it.
The Brouwer-Zimmermann engine enumerates codewords by information weight
and stops once a lower bound on every unseen codeword meets the best
weight found.  A torus translation x -> t x acts regularly on the
coordinates and maps a toric code onto itself, so one information set
bounds every unseen codeword by ceil(n (w+1) / k) after weight w.

Both engines enumerate messages whose last coordinate c runs fastest.
The codeword of each prefix (c set to 0) is computed once, exactly, by
one product over F_p of its base-p digits with the F_p-expansion of the
generator, in float32, or in float64 when an accumulated integer could
reach 2^24; its zeros for every value of c follow at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .bounds import (BoundReport, dps_volume_bound, griesmer_max_d, gv_max_d,
                     simplex_bound, width_one_final_bound)
from .geometry import _MAX_CELLS, lattice_width, normalized_volume
from .gfq import make_field
from .minklen import minkowski_length

BUDGET = 10_000_000_000  # coordinate updates allowed per exhaustive sweep
_CHUNK_COORDS = 1 << 19  # coordinates touched per chunk; cache-sized


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive sweep would exceed the update budget."""


# ---------------------------------------------------------------------------
# small dense linear algebra over GF(q) (element codes, 0..q-1)

def _echelon(field, mat):
    """Reduced row-echelon form of a matrix of element codes: (pivot
    columns, R) with R = E mat for an invertible E, restricted to its
    len(pivots) nonzero rows, and R[:, pivots] the identity."""
    R = np.array(mat, dtype=np.int64)
    pivots = []
    for r in range(min(R.shape)):
        live = np.flatnonzero(R[r:].any(axis=0))
        if live.size == 0:
            break
        c = int(live[0])
        i = r + int(np.flatnonzero(R[r:, c])[0])
        R[[r, i]] = R[[i, r]]
        row = field.mul(field.inv(R[r, c]), R[r])
        R = field.sub(R, field.mul(R[:, c:c + 1], row))
        R[r] = row
        pivots.append(c)
    return pivots, R[:len(pivots)]


# ---------------------------------------------------------------------------
# batched zero counting for message sweeps

class _WeightEngine:
    """Zero counts of the codewords m @ G for batches of messages m.

    ``codes`` works over F_p: GF(q) is F_p^e by base-p digits, and row
    r e + i of the expansion of G holds the digits of x^i G_r, digit t
    of coordinate j in column t n + j, so the message digits times the
    expansion, mod p, are the codeword digits.  ``count`` takes the
    codes of prefixes m with m_c = 0 to the zeros of m + a e_c for all a
    at once: coordinate j is a zero iff code_j = -a g_cj, one comparison
    against a table of these multiples (-G and the tables in the code
    dtype), built per call in slices of at most _CHUNK_COORDS codes.
    """

    def __init__(self, field, gen):
        self.field = field
        self.k, self.n = gen.shape
        top = self.k * field.e * (field.p - 1) ** 2  # bound on one sum
        if top > 2 ** 53:
            raise ValueError(f"weight sweep over GF({field.q}) with k="
                             f"{self.k} is not exact in float64")
        self._dtype = np.float32 if top < 2 ** 24 else np.float64
        self._int = np.int32 if top < 2 ** 31 else np.int64  # for the mod
        self._code = np.min_scalar_type(field.q - 1)
        xg = field.mul(field.p ** np.arange(field.e)[:, None, None], gen)
        self._gen = field.codes_to_digits(xg).transpose(1, 0, 3, 2).reshape(
            self.k * field.e, field.e * self.n).astype(self._dtype)  # x^i G
        self._minus_g = field.neg(gen).astype(self._code)

    def zeros(self, msgs):
        """Zero-coordinate count per row for a (b, k) batch of codes."""
        return self.count(self.codes(msgs), 0, range(1))[:, 0]

    def codes(self, msgs):
        """Codewords of a (b, k) batch of codes, as (b, n) codes in the
        smallest unsigned dtype that holds q - 1."""
        F, n = self.field, self.n
        digits = F.codes_to_digits(msgs).reshape(len(msgs), -1)
        out = (digits.astype(self._dtype) @ self._gen).astype(self._int) % F.p
        code = out[:, :n]
        for t in range(1, F.e):
            code = code + out[:, t * n:(t + 1) * n] * F.p ** t
        return code.astype(self._code)

    def count(self, codes, c, values):
        """(b, len(values)) zero counts of m + a e_c, a in the range
        ``values``, from the ``codes`` of prefixes m with m_c = 0.  The
        values run in slices of max(1, _CHUNK_COORDS // n)."""
        out = np.empty((len(codes), len(values)), np.min_scalar_type(self.n))
        step = max(1, _CHUNK_COORDS // self.n)
        for lo in range(0, len(values), step):
            a = np.array(values[lo:lo + step])
            table = self.field.mul(a[:, None], self._minus_g[c])
            hits = (codes[:, None, :] == table).view(np.uint8)
            hits.sum(axis=2, dtype=out.dtype, out=out[:, lo:lo + step])
        return out


# ---------------------------------------------------------------------------
# code construction

@dataclass(frozen=True)
class ToricCode:
    """A full-rank k x n generator on the torus (F_q^*)^m.  Rows with
    ``row_exponents`` distinct mod q - 1 are distinct torus characters,
    independent (Dedekind-Artin)."""
    field: object
    matrix: np.ndarray     # k x n full-rank generator (element codes)
    row_exponents: tuple   # lattice point of each row
    k = property(lambda self: self.matrix.shape[0])
    n = property(lambda self: self.matrix.shape[1])

    def __post_init__(self):
        rows, q = self.row_exponents, self.field.q
        if len(rows) != self.k:
            raise ValueError(f"{len(rows)} row exponents for {self.k} rows")
        if self.n != (q - 1) ** len(rows[0]):  # the regular action
            raise ValueError(f"{self.n} columns are not the torus "
                             f"(F_{q}^*)^{len(rows[0])}")
        rank = len({tuple(x % (q - 1) for x in a) for a in rows})
        if rank < self.k:
            raise ValueError(f"generator {self.matrix.shape} of rank {rank}"
                             " is not of full rank")


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    N_P: int
    griesmer_d: int
    gv_d: int
    bound_reports: tuple   # pairs (BoundReport, holds: bool or None)


def build_code(P, q):
    """Evaluation code of the lattice points of P on the torus (F_q^*)^m."""
    field = make_field(q)
    pts = sorted(P.lattice_points)
    if not pts:
        raise ValueError("polytope has no lattice points")
    m = P.ambient
    width = max(max(c) - min(c) for c in zip(*pts))  # Python ints: unbounded
    if width > q - 2:
        warnings.warn(
            f"coordinate width {width} exceeds q-2={q - 2}; "
            "distinct lattice points may evaluate identically",
            stacklevel=2)
    reduced = np.array([[x % (q - 1) for x in a] for a in pts], np.int64)
    if len(pts) * (q - 1) ** m > _MAX_CELLS:
        raise ValueError(f"evaluation matrix too large: {len(pts)} points x "
                         f"{(q - 1) ** m} torus points > 2^26")
    # the first lattice point of each class mod q - 1: a row basis
    basis = np.sort(np.unique(reduced, axis=0, return_index=True)[1])
    logs = np.zeros((len(basis),) + (q - 1,) * m, np.int64)  # (k, torus)
    for a, g in zip(reduced[basis].T, np.indices(logs.shape[1:], sparse=True)):
        logs += np.multiply.outer(a, g)  # one discrete-log axis at a time
    logs %= q - 1
    return ToricCode(field, field._exp0[logs.reshape(len(basis), -1)],
                     tuple(pts[i] for i in basis))


# ---------------------------------------------------------------------------
# minimum-weight engines

def _sweep_plan(code):
    """Groups (bases, free rows) of the exhaustive sweep, and its cost.

    The rows are taken in order with a set P of pinned rows.  Row r is
    pinnable while |P| <= m and its character (1, a_r) is independent of
    P's mod every prime dividing q-1: the rescalings that fix P's rows
    then reach every nonzero value on it, so it takes 0 and 1 only, and
    1 pins it.  Every other row is free and runs over F_q.  Each node of
    this pinning tree, walked level by level with the characters reduced
    mod p by P's, is one 0/1 base message with its free rows; the bases
    are grouped by their free rows.  The cost counts the messages swept,
    without the zero message, times n.
    """
    q, k, n = code.field.q, code.k, code.n
    exps = np.array([[x % (q - 1) for x in a] for a in code.row_exponents],
                    np.int64)  # every prime below divides q - 1
    width = exps.shape[1] + 1
    floor = exhaustive_cost(q, k, n) // (q - 1) ** (width - 1)
    if floor > BUDGET:  # the sweep meets every orbit: it costs at least this
        return [], floor
    chars = np.hstack([np.ones((k, 1), np.int64), exps])
    primes = [p for p in range(2, q) if (q - 1) % p == 0
              and all(p % d for d in range(2, p))]
    red = [(chars % p)[None] for p in primes]  # (nodes, k, width) per p
    rows = np.arange(k)
    ones = free = np.zeros((1, k), bool)
    last, nodes = np.array([-1]), []
    for level in range(width + 1):
        later = rows > last[:, None]
        pin = later & (level < width) & np.all(
            [R.any(axis=2) for R in red], axis=0)  # True with no primes
        free = free | later & ~pin
        nodes.append((ones, free))
        node, r = np.nonzero(pin)  # the children pin row r
        at = np.arange(node.size)
        ones = ones[node] | (rows == r[:, None])
        free, last = free[node] & (rows < r[:, None]), r
        for i, p in enumerate(primes):  # clear r's pivot from every row
            R = red[i][node]
            v = R[at, r]
            piv = (v != 0).argmax(axis=1)
            red[i] = (R * v[at, piv][:, None, None]
                      - R[at, :, piv][:, :, None] * v[:, None, :]) % p
    ones = np.concatenate([o for o, _ in nodes])[1:]  # the root: message 0
    keys = np.concatenate([f for _, f in nodes])[1:] @ (1 << rows)
    plan = [(ones[keys == key].astype(np.int64),
             [r for r in range(k) if key >> r & 1])
            for key in sorted(set(keys.tolist()))]
    return plan, n * sum(len(b) * q ** len(f) for b, f in plan)


def exhaustive_cost(q, k, n):
    """Coordinate updates of the projective sweep, (q^k-1)/(q-1) messages."""
    return (q ** k - 1) // (q - 1) * n


def min_weight_exhaustive(code, plan=None):
    """Exact minimum weight by a sweep of ``_sweep_plan(code)`` (or of
    ``plan``); BudgetExceeded if it needs more than BUDGET updates."""
    q, n = code.field.q, code.n
    groups, cost = plan or _sweep_plan(code)
    if cost > BUDGET:
        raise BudgetExceeded(
            f"exhaustive sweep needs at least {cost:.2e} coordinate updates"
            f" (budget {BUDGET:.0e}); use BZ (min_weight_bz)")
    engine = _WeightEngine(code.field, code.matrix)
    best = n
    for bases, free in groups:
        # the last free row runs fastest: it is the trailing coordinate
        c, values = (free[-1], range(q)) if free else (0, range(1))
        inner = q ** len(free[:-1])  # digit patterns of the other free rows
        total = len(bases) * inner
        rows = max(1, _CHUNK_COORDS // (len(values) * n))
        for start in range(0, total, rows):
            idx = np.arange(start, min(start + rows, total), dtype=np.int64)
            msgs = bases[idx // inner]
            for r in reversed(free[:-1]):
                msgs[:, r], idx = idx % q, idx // q
            w = n - int(engine.count(engine.codes(msgs), c, values).max())
            best = min(best, w)
    return best


def _bz_batches(q, k, w, rows):
    """BZ's weight-w messages (first nonzero entry 1): chunks of at most
    ``rows`` prefixes, each with cuts [(c, end)] standing for prefixes[:end]
    + a e_c, a in 1..q-1 (a = 1 alone at w = 1).  The prefixes have weight
    w-1 below coordinate k-1, grouped by their last nonzero coordinate."""
    supps = np.array(sorted(combinations(range(k - 1), w - 1),
                            key=lambda s: s[::-1]), dtype=np.int64)
    pats = (q - 1) ** max(w - 2, 0)  # value patterns after the leading 1
    ends = [(c, comb(c, w - 1) * pats) for c in range(w - 1, k)]
    for start in range(0, len(supps) * pats, rows):
        r = np.arange(start, min(start + rows, len(supps) * pats))
        s, rest = supps[r // pats], r % pats
        msgs = np.zeros((r.size, k), dtype=np.int64)
        for j in range(w - 2, -1, -1):  # the last fastest, the first 1
            base = q - 1 if j else 1
            msgs[r - start, s[:, j]] = rest % base + 1
            rest //= base
        yield msgs, [(c, end - start) for c, end in ends if end > start]


def min_weight_bz(code):
    """Exact minimum weight via enumeration by information weight.

    Codewords are generated from weight-w information vectors (first
    nonzero entry 1, ``_bz_batches``) against the generator systematized
    on one information set I, its pivot columns.  A translation t of the
    torus maps each codeword c to c o t, of the same weight, with
    (c o t)|I = c|tI, and the n translates cover every coordinate k
    times.  So a codeword none of whose translates was seen, of weight
    > w on every tI, has k wt(c) >= n (w+1).  The sweep stops once this
    bound reaches the best weight.
    """
    field, q, k, n = code.field, code.field.q, code.k, code.n
    if k > 24:
        raise ValueError("BZ engine is configured for k <= 24")
    engine = _WeightEngine(field, _echelon(field, code.matrix)[1])
    best = n
    for w in range(1, k + 1):
        values = range(1, q if w > 1 else 2)
        rows = max(1, _CHUNK_COORDS // (len(values) * n))
        for prefixes, cuts in _bz_batches(q, k, w, rows):
            codes = engine.codes(prefixes)
            for c, end in cuts:
                zeros = engine.count(codes[:end], c, values).max()
                best = min(best, n - int(zeros))
        if -(-n * (w + 1) // k) >= best:
            return best
    return best


def min_weight(code, engine="auto"):
    if engine == "bz":
        return min_weight_bz(code)
    if engine not in ("auto", "exhaustive"):
        raise ValueError("engine must be auto, exhaustive, or bz")
    plan = _sweep_plan(code)
    if engine == "exhaustive" or plan[1] <= BUDGET:
        return min_weight_exhaustive(code, plan)
    return min_weight_bz(code)


def max_zero_count(P, q, engine="auto"):
    """N_P: the largest torus zero count over nonzero f supported on P."""
    code = build_code(P, q)
    return code.n - min_weight(code, engine=engine)


# ---------------------------------------------------------------------------
# parameter report

def params_report(P, q, engine="auto"):
    code = build_code(P, q)
    d = min_weight(code, engine=engine)
    n_p = code.n - d
    g_d = griesmer_max_d(code.n, code.k, q)
    gv_d = gv_max_d(code.n, code.k, q)
    L, _ = minkowski_length(P)
    char_ok = code.field.p > 41
    in_box = all(max(c) - min(c) <= q - 2 for c in zip(*P.vertices))
    box_flag = ("P fits in a translate of [0,q-2]^m", in_box)
    s_bound = simplex_bound(L, q, n=P.ambient)
    reports = [
        (BoundReport("griesmer", g_d, (), (("n", code.n), ("k", code.k))),
         d <= g_d),
        (BoundReport("gilbert_varshamov", gv_d, (),
                     (("n", code.n), ("k", code.k))), None),
        (BoundReport("simplex", s_bound, (box_flag,), (("L", L),)),
         n_p <= s_bound if in_box else None),
    ]
    if P.dim == 3 and L == 1:
        vol = normalized_volume(P)
        v = dps_volume_bound(vol, q)
        reports.append((BoundReport(
            "dps_volume", v, (("char > 41", char_ok), box_flag),
            (("vol3", vol),)),
            n_p <= v if char_ok and in_box else None))
    if P.dim == 3 and lattice_width(P)[0] == 1:
        v = width_one_final_bound(L, q)
        reports.append((BoundReport(
            "width_one_final", v, (("q >= beta(P)", None), box_flag),
            (("L", L),)),
            n_p <= v if in_box else None))
    return CodeParams(n=code.n, k=code.k, d=d, N_P=n_p,
                      griesmer_d=g_d, gv_d=gv_d,
                      bound_reports=tuple(reports))
