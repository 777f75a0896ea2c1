"""Named lattice polytopes used throughout the library and the CLI.

Names accepted by :func:`named_polytope`:

``T0``        triangle conv{e1, e2, -e1-e2} embedded in the z = 0 plane of Z^3
``T0_2d``     the same triangle in Z^2
``S1``        unit 3-simplex conv{0, e1, e2, e3}
``S2``        simplex conv{e1, e2, e3, e1+e2+e3}
``E``         exceptional 5-point polytope conv{0, e1, e2, e3, e1+e2+e3}
``K1``        simplex conv{e1, e2, e3, -e1-e2-e3}
``K2``        simplex conv{e1, e2, e1+e2+2e3, -e1-e2-e3}
``S``         tetrahedron conv{0, e1, e2, (1,1,2)}
``T1``        pyramid conv{e1, e2, -e1-e2, e3} over T0
``T2``        tetrahedron conv{e1, e2, -e1-e2, (2,1,3)} over T0
``Tab:a,b``   White tetrahedron conv{e1, e2, e3, (a,b,1)}, gcd(a,b)=1
``Howe:a,b``  width-one polytope conv{0, e1, e2, e3, (a,b,1)}
``P8``        simplex conv{0, e1, e2, (6,8,35)}
``Q8``        polytope with 5 vertices and normalized volume 8
``EX72``      Minkowski sum T0 + conv{0, e1, e3}
"""

from __future__ import annotations

import json
import re
from functools import cache
from math import gcd

from .geometry import convex_hull, minkowski_sum

_E1 = (1, 0, 0)
_E2 = (0, 1, 0)
_E3 = (0, 0, 1)
_O = (0, 0, 0)

_FIXED = {
    "T0": ((1, 0, 0), (0, 1, 0), (-1, -1, 0)),
    "T0_2d": ((1, 0), (0, 1), (-1, -1)),
    "S1": (_O, _E1, _E2, _E3),
    "S2": (_E1, _E2, _E3, (1, 1, 1)),
    "E": (_O, _E1, _E2, _E3, (1, 1, 1)),
    "K1": (_E1, _E2, _E3, (-1, -1, -1)),
    "K2": (_E1, _E2, (1, 1, 2), (-1, -1, -1)),
    "S": ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 2)),
    "T1": ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)),
    "T2": ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (2, 1, 3)),
    "P8": (_O, _E1, _E2, (6, 8, 35)),
    "Q8": ((0, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 1), (2, 15, 28)),
}


def _parse_params(text):
    m = re.fullmatch(r"(-?\d+)\s*,\s*(-?\d+)", text)
    if m is None:
        raise ValueError(f"expected two integers, got {text!r}")
    return int(m.group(1)), int(m.group(2))


@cache
def _fixed_polytope(name):
    if name == "EX72":
        return minkowski_sum(convex_hull(_FIXED["T0"]),
                             convex_hull((_O, _E1, _E3)))
    return convex_hull(_FIXED[name])


def named_polytope(name):
    """Look up a catalog polytope by name.

    The fixed entries (all but ``Tab`` and ``Howe``) are built once and
    shared.  Raises ``ValueError`` for unknown names.
    """
    if name in _FIXED or name == "EX72":
        return _fixed_polytope(name)
    if ":" in name:
        head, _, tail = name.partition(":")
        if head == "Tab":
            a, b = _parse_params(tail)
            if gcd(a, b) != 1:
                raise ValueError(f"Tab:{a},{b} requires gcd(a, b) = 1")
            return convex_hull((_E1, _E2, _E3, (a, b, 1)))
        if head == "Howe":
            a, b = _parse_params(tail)
            return convex_hull((_O, _E1, _E2, _E3, (a, b, 1)))
    raise ValueError(f"unknown polytope {name!r}; "
                     f"choose from {', '.join(catalog_names())}")


def catalog_names():
    return sorted(_FIXED) + ["EX72", "Tab:a,b", "Howe:a,b"]


def parse_polytope(spec):
    """Resolve a CLI polytope argument.

    ``@NAME`` refers to the catalog; anything else is read as a path to a
    JSON file with a ``vertices`` list (and optional ``"dim2": true`` for
    points in Z^2).
    """
    if spec.startswith("@"):
        return named_polytope(spec[1:])
    with open(spec) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{spec}: not a JSON file ({exc})") from None
    verts = data.get("vertices") if isinstance(data, dict) else None
    if not isinstance(verts, list) or not all(  # JSON integers, not bools
            isinstance(v, list) and all(type(x) is int for x in v)
            for v in verts):
        raise ValueError(f"{spec}: expected a JSON object with a "
                         f"'vertices' list of integer tuples")
    verts = list(map(tuple, verts))
    want2 = bool(data.get("dim2", False))
    n = len(verts[0]) if verts else 0
    if want2 and n != 2:
        raise ValueError(f"{spec}: dim2 polytope must have 2 coordinates "
                         "per vertex")
    if n not in (2, 3):
        raise ValueError(f"{spec}: vertices must live in Z^2 or Z^3")
    return convex_hull(verts)
