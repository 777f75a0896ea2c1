"""The names that the benchmark's tracer (perfbench/spans.py) patches.

The tracer wraps functions and methods of toric3 by name; renaming one
breaks the benchmark and nothing else.  This runs one call through each
patched name, checks that its span was recorded, and checks that
uninstalling restores every attribute.
"""

import importlib.util
import os

import pytest

from toric3 import geometry, gfq, toriccode
from toric3.catalog import named_polytope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def spans_module():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(spans_module):
    owners = [importlib.import_module(name) for name in spans_module.LAYERS]
    owners += [geometry.Polytope, geometry.RationalHalfSpaceSystem]
    return {(id(owner), attr): obj for owner in owners
            for attr, obj in list(vars(owner).items())}


def test_tracer_records_the_patched_names(spans_module):
    before = snapshot(spans_module)
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        P = geometry.convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert len(geometry.lattice_points(P)) == 10
        assert geometry.good_polytope(named_polytope("S1")).primitive_points()
        code = toriccode.build_code(geometry.convex_hull(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)]), 3)
        assert toriccode.min_weight(code, engine="exhaustive") == 4
        assert toriccode.min_weight(code, engine="bz") == 4
        F = gfq.make_field(5)
        f = gfq.LaurentPolynomial.make(F, {(0, 0, 0): 1, (1, 0, 0): 1,
                                           (0, 1, 0): 1})
        assert gfq.count_zeros(f) == gfq.common_zero_count(f, f) == 12
        names = {span[0] for span in tracer.take()}
    finally:
        tracer.uninstall()
    assert {"geometry.convex_hull", "geometry.lattice_points",
            "geometry.Polytope._compute_points",
            "geometry.good_polytope",
            "geometry.RationalHalfSpaceSystem.integer_points",
            "geometry.RationalHalfSpaceSystem.primitive_points",
            "toriccode.build_code", "toriccode.min_weight",
            "toriccode.exhaustive.prime", "toriccode.min_weight_bz",
            "gfq.field_setup", "gfq.count_zeros",
            "gfq.common_zero_count"} <= names
    assert snapshot(spans_module) == before
