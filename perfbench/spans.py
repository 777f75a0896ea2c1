"""Spans around the calls into each toric3 layer, recorded from outside.

The tracer replaces each layer's public functions with timing wrappers in
every toric3 module that binds them (``from .geometry import convex_hull``
binds a second name in ``minklen``), and restores them on ``uninstall``.
Nothing inside ``src/`` changes.

A span is ``(name, start, end, parent, size)``: ``parent`` is the index of
the span that was open when this one started (-1 for none) and ``size``
is a per-call work count (input points of a hull, points enumerated,
torus points scanned, coordinate updates), or 0.

Self time is a span's duration minus the time its child spans cover, and
it is charged to the span's group.  A group is a named piece of a layer
(``geometry.hull``); a wrapped function with no group of its own inherits
the group of its parent when the parent is in the same layer, and is
charged to ``<layer>.other`` otherwise.  Functions too small to carry a
span (vector helpers, ``erode``) are not wrapped; their time goes to the
caller's group.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# module -> layer; catalog is counted under geometry
LAYERS = {
    "toric3.geometry": "geometry",
    "toric3.catalog": "geometry",
    "toric3.minklen": "minklen",
    "toric3.gfq": "gfq",
    "toric3.toriccode": "toriccode",
    "toric3.bounds": "bounds",
    "toric3.cli": "cli",
}

# Not wrapped: the vector helpers and erode run in the innermost loops of
# the chain search, where a wrapper would cost more than the call; the
# exact linear algebra is called only from geometry's own hull and
# equivalence code, where a span would move no time between groups.
UNWRAPPED = frozenset({
    "vadd", "vsub", "vneg", "vdot", "vgcd", "is_primitive", "primitive",
    "canonical_sign", "cross", "mat_vec", "mat_mul", "mat_det",
    "mat_identity", "mat_transpose", "erode", "int_rank", "solve_rational",
    "smith_normal_form", "saturated_basis", "complete_to_unimodular",
    "mat_inverse_unimodular",
})

GROUPS = {
    "geometry.convex_hull": "geometry.hull",
    "geometry.Polytope._compute_points": "geometry.lattice_points",
    "geometry.RationalHalfSpaceSystem.integer_points": "geometry.region",
    "geometry.RationalHalfSpaceSystem.primitive_points": "geometry.region",
    "geometry.equivalent": "geometry.equivalence",
    "geometry.tuple_equivalent": "geometry.equivalence",
    "gfq.count_zeros": "gfq.count_zeros",
    "gfq.common_zero_count": "gfq.count_zeros",
    "gfq.field_setup": "gfq.field_setup",
    "toriccode.build_code": "toriccode.build_code",
    "toriccode.exhaustive.prime": "toriccode.exhaustive.prime",
    "toriccode.exhaustive.ext": "toriccode.exhaustive.ext",
    "toriccode.min_weight_bz": "toriccode.bz",
}

def _hull_size(args, kwargs, out):
    points = args[0] if args else kwargs.get("points", ())
    return len(points) if hasattr(points, "__len__") else 0


def _result_size(args, kwargs, out):
    return len(out)


def _torus_size(args, kwargs, out):
    f = args[0]
    return (f.field.q - 1) ** f.n


def _no_size(args, kwargs, out):
    return 0


def _is_auto(args, kwargs, out):
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "auto")
    return int(engine == "auto")


class Tracer:
    """Installs span-recording wrappers; ``spans`` fills while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._fields_built = set()
        self._patches = []   # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _span(self, fn, name, size=_no_size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, t0, t1, parent, 0)  # kept if fn raised
            spans[i] = (name, t0, t1, parent, size(args, kwargs, out))
            return out
        return wrapper

    def _make_field(self, fn):
        plain = self._span(fn, "gfq.make_field")
        first = self._span(fn, "gfq.field_setup")

        def wrapper(q):
            if q in self._fields_built:
                return plain(q)
            self._fields_built.add(q)
            return first(q)
        return wrapper

    def _exhaustive(self, fn):
        prime = self._span(fn, "toriccode.exhaustive.prime", self._updates)
        ext = self._span(fn, "toriccode.exhaustive.ext", self._updates)

        @functools.wraps(fn)
        def wrapper(code, *args, **kwargs):
            inner = prime if code.field.e == 1 else ext
            return inner(code, *args, **kwargs)
        return wrapper

    def _updates(self, args, kwargs, out):
        code = args[0]
        return self._cost(code.field.q, code.k, code.n)

    def _wrapper_for(self, module, attr, fn):
        layer = LAYERS[module.__name__]
        if attr == "make_field":
            return self._make_field(fn)
        if attr == "min_weight_exhaustive":
            return self._exhaustive(fn)
        size = {"convex_hull": _hull_size, "count_zeros": _torus_size,
                "common_zero_count": _torus_size,
                "min_weight": _is_auto}.get(attr, _no_size)
        return self._span(fn, f"{layer}.{attr}", size)

    def install(self):
        mods = {name: importlib.import_module(name) for name in LAYERS}
        self._cost = mods["toric3.toriccode"].exhaustive_cost
        originals = {}  # id(fn) -> (fn, wrapper)
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNWRAPPED
                        or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != name):
                    continue
                originals[id(obj)] = (obj, self._wrapper_for(mod, attr, obj))
        geometry = mods["toric3.geometry"]
        for cls, meth, size in (
                (geometry.Polytope, "_compute_points", _result_size),
                (geometry.RationalHalfSpaceSystem, "integer_points",
                 _result_size),
                (geometry.RationalHalfSpaceSystem, "primitive_points",
                 _no_size)):
            fn = vars(cls)[meth]
            wrapped = self._span(fn, f"geometry.{cls.__name__}.{meth}", size)
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, wrapped)
        # rebind every name that refers to a wrapped function, in every
        # layer module, so calls across modules are seen too
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()  # the wrappers hold this list
        return out


def _group(name, parent_group):
    group = GROUPS.get(name)
    if group is not None:
        return group
    layer = name.split(".", 1)[0]
    if layer in ("minklen", "bounds", "cli"):
        return layer
    if parent_group is not None and parent_group.split(".", 1)[0] == layer:
        return parent_group
    return f"{layer}.other"


def summarize(spans):
    """Per-group self time and the per-layer counts of one pass."""
    n = len(spans)
    groups = [None] * n
    child_time = [0.0] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        groups[i] = _group(name, groups[parent] if parent >= 0 else None)
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_s = {}
    counts = {"geometry.hull.calls": 0, "geometry.hull.points_in": 0,
              "geometry.lattice_points.calls": 0,
              "geometry.lattice_points.points_out": 0,
              "geometry.region.points_out": 0,
              "geometry.equivalence.calls": 0, "minklen.candidates": 0,
              "gfq.torus_points": 0,
              "toriccode.exhaustive.prime.updates": 0,
              "toriccode.exhaustive.ext.updates": 0,
              "toriccode.bz.calls": 0, "toriccode.auto.exhaustive_picks": 0,
              "toriccode.auto.bz_picks": 0}
    auto_calls = set()
    for i, (name, t0, t1, parent, size) in enumerate(spans):
        g = groups[i]
        self_s[g] = self_s.get(g, 0.0) + (t1 - t0) - child_time[i]
        pname = spans[parent][0] if parent >= 0 else None
        if name == "geometry.convex_hull":
            counts["geometry.hull.calls"] += 1
            counts["geometry.hull.points_in"] += size
        elif name == "geometry.Polytope._compute_points":
            counts["geometry.lattice_points.calls"] += 1
            counts["geometry.lattice_points.points_out"] += size
        elif name == "geometry.RationalHalfSpaceSystem.integer_points":
            counts["geometry.region.points_out"] += size
        elif name in ("geometry.equivalent", "geometry.tuple_equivalent"):
            counts["geometry.equivalence.calls"] += 1
        elif name == "geometry.minkowski_sum" and pname is not None \
                and pname.startswith("minklen."):
            counts["minklen.candidates"] += 1
        elif name == "gfq.count_zeros":
            counts["gfq.torus_points"] += size
        elif name == "gfq.common_zero_count":  # two masks
            counts["gfq.torus_points"] += 2 * size
        elif name.startswith("toriccode.exhaustive."):
            counts[name + ".updates"] += size
            if parent in auto_calls:
                counts["toriccode.auto.exhaustive_picks"] += 1
        elif name == "toriccode.min_weight_bz":
            counts["toriccode.bz.calls"] += 1
            if parent in auto_calls:
                counts["toriccode.auto.bz_picks"] += 1
        elif name == "toriccode.min_weight" and size:
            auto_calls.add(i)
    return self_s, counts


def layer_metrics(passes, traced_walls, plain_walls):
    """Per-layer metrics from the (self_s, counts) of each traced pass.

    Counts come from the first traced pass; they repeat exactly for a
    fixed seed.  Times are medians over the traced passes, except field
    set-up, which happens once per process and is summed.
    """
    counts = passes[0][1]

    def med(group):
        return statistics.median(p[0].get(group, 0.0) for p in passes)

    def layer(prefix):
        return statistics.median(
            sum((v for g, v in p[0].items() if g.split(".", 1)[0] == prefix),
                0.0) for p in passes)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = dict(counts)
    m["geometry.hull.self_s"] = med("geometry.hull")
    m["geometry.lattice_points.self_s"] = med("geometry.lattice_points")
    m["geometry.region.self_s"] = med("geometry.region")
    m["geometry.equivalence.self_s"] = med("geometry.equivalence")
    m["geometry.self_s"] = layer("geometry")
    m["minklen.self_s"] = med("minklen")
    m["gfq.field_setup_s"] = sum(p[0].get("gfq.field_setup", 0.0)
                                 for p in passes)
    m["gfq.count_zeros.self_s"] = med("gfq.count_zeros")
    m["gfq.torus_points_per_s"] = rate(counts["gfq.torus_points"],
                                       m["gfq.count_zeros.self_s"])
    m["gfq.self_s"] = layer("gfq")
    m["toriccode.build_code.self_s"] = med("toriccode.build_code")
    for kind in ("prime", "ext"):
        key = f"toriccode.exhaustive.{kind}"
        m[key + ".self_s"] = med(key)
        m[key + ".updates_per_s"] = rate(counts[key + ".updates"],
                                         m[key + ".self_s"])
    m["toriccode.bz.self_s"] = med("toriccode.bz")
    m["toriccode.self_s"] = layer("toriccode")
    m["bounds.self_s"] = med("bounds")
    m["cli.self_s"] = med("cli")
    m["trace.overhead_frac"] = (statistics.median(traced_walls)
                                / statistics.median(plain_walls) - 1.0)
    return m
