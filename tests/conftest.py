import tracemalloc

import numpy as np
import pytest

from toric3.geometry import convex_hull, mat_det, UnimodularMap


def random_points(rng, count, box, ambient=3, low=0):
    return [tuple(int(rng.integers(low, box + 1)) for _ in range(ambient))
            for _ in range(count)]


def random_polytope(rng, count=5, box=4, ambient=3, low=0):
    return convex_hull(random_points(rng, count, box, ambient, low=low))


def random_unimodular(rng, n=3, shears=6):
    """Random element of GL(n, Z) with determinant +-1, via shears and
    signed permutations."""
    m = np.eye(n, dtype=np.int64)
    for _ in range(shears):
        i, j = rng.choice(n, size=2, replace=False)
        s = np.eye(n, dtype=np.int64)
        s[i, j] = int(rng.integers(-2, 3))
        m = m @ s
    perm = rng.permutation(n)
    m = m[perm]
    for i in range(n):
        if rng.integers(2):
            m[i] = -m[i]
    mat = tuple(tuple(int(v) for v in row) for row in m)
    assert abs(mat_det(mat)) == 1
    return mat


def random_affine_map(rng, n=3, tbox=3):
    mat = random_unimodular(rng, n)
    tr = tuple(int(rng.integers(-tbox, tbox + 1)) for _ in range(n))
    return UnimodularMap(mat, tr)


def traced_peak(fn, *args):
    """fn(*args) under tracemalloc: (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
