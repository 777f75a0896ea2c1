"""Command-line front end.

Subcommands: info, length, segments, triangles, tetra, pair, triple,
zeros, code, bounds, verify.  Output is JSON (schema "toric3/1") unless
a CSV report is requested.  Exit codes: 0 success, 1 verify mismatch,
2 precondition error, 3 budget exceeded.

The BLAS worker pool follows OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS, which the CLI leaves as it finds them; results never
depend on it.  Warnings go to stderr, one line each.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return x
    if hasattr(x, "__float__"):  # mpmath values
        return float(x)
    return str(x)


def _emit(payload):
    payload = {"schema": "toric3/1", **payload}
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=False))


def _report_to_dict(report, holds=Ellipsis):
    d = {"name": report.name, "value": _jsonable(report.value),
         "hypotheses": [{"flag": f, "met": m} for f, m in report.hypotheses],
         "inputs": dict((k, _jsonable(v)) for k, v in report.inputs)}
    if holds is not Ellipsis:
        d["holds"] = holds
    return d


def _parse_poly_file(path, q):
    """One term per line: ``c a1 a2 a3`` with c an integer or ``g^k``."""
    from .gfq import LaurentPolynomial, _check_torus, make_field
    rows = []  # ((is a power of g, integer), exponents)
    with open(path) as fh:
        for num, line in enumerate(fh, 1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            c = tokens[0]
            try:
                rows.append(((c.startswith("g^"), int(c.removeprefix("g^"))),
                             tuple(int(v) for v in tokens[1:])))
                lengths = sorted({len(rows[0][1]), len(rows[-1][1])})
                if len(lengths) > 1:
                    raise ValueError(
                        f"exponent vectors of mixed lengths {lengths}")
            except ValueError as exc:
                raise ValueError(f"{path}:{num}: {exc}") from None
    if rows:  # before the field tables are built
        _check_torus(q, len(rows[0][1]))
    field = make_field(q)
    terms = {}
    for (power, c), exps in rows:
        if power:
            code = int(field.exp[c % (field.q - 1)])
        else:
            code = c % field.p  # prime-subfield elements: codes 0..p-1
        if code:
            terms[exps] = field.add(terms.get(exps, 0), code)
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        raise ValueError(f"{path}: polynomial is zero")
    return LaurentPolynomial.make(field, terms)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_info(args):
    from .catalog import parse_polytope
    from .geometry import ambient_vol3, lattice_width
    from .minklen import minkowski_length
    P = parse_polytope(args.polytope)
    L, _ = minkowski_length(P)
    vol3 = ambient_vol3(P) if P.ambient == 3 else 0
    info = {"points": P.n_points, "vol3": vol3,
            "L": L, "dim": P.dim, "vertices": [list(v) for v in P.vertices]}
    if P.dim == P.ambient:
        w, direction = lattice_width(P)
        info["width"] = w
        info["width_direction"] = list(direction)
    _emit(info)
    return 0


def _cmd_length(args):
    from .catalog import parse_polytope
    from .minklen import minkowski_length
    P = parse_polytope(args.polytope)
    L, cert = minkowski_length(P)
    _emit({"L": L, "certificate": {
        "directions": [list(u) for u in cert.directions],
        "anchor": list(cert.anchor)}})
    return 0


def _cmd_segments(args):
    from .catalog import parse_polytope
    from .minklen import find_segments
    P = parse_polytope(args.polytope)
    dirs = find_segments(P, args.target_L, bound=args.bound)
    _emit({"target_L": args.target_L,
           "directions": [list(u) for u in dirs], "count": len(dirs)})
    return 0


def _cmd_triangles(args):
    from .catalog import parse_polytope
    from .minklen import find_triangles
    P = parse_polytope(args.polytope)
    tris = find_triangles(P)
    _emit({"triangles": [[list(v) for v in t.vertices] for t in tris],
           "count": len(tris)})
    return 0


def _cmd_tetra(args):
    from .catalog import parse_polytope
    from .minklen import find_tetra
    P = parse_polytope(args.polytope)
    tets = find_tetra(P)
    _emit({"tetrahedra": [[list(v) for v in t.vertices] for t in tets],
           "count": len(tets)})
    return 0


def _classification_payload(res):
    out = {"label": res.label, "length": res.length}
    if res.witness is not None:
        phi, shifts = res.witness
        out["witness"] = [{"matrix": phi.matrix,
                           "translation": phi.translation}, shifts]
    return out


def _cmd_pair(args):
    from .catalog import parse_polytope
    from .minklen import classify_pair
    res = classify_pair(parse_polytope(args.p), parse_polytope(args.q))
    _emit(_classification_payload(res))
    return 0


def _cmd_triple(args):
    from .catalog import parse_polytope
    from .minklen import classify_triple
    res = classify_triple(parse_polytope(args.p), parse_polytope(args.q),
                          parse_polytope(args.r))
    _emit(_classification_payload(res))
    return 0


def _cmd_zeros(args):
    from .gfq import count_zeros
    f = _parse_poly_file(args.polynomial, args.q)
    _emit({"q": args.q, "n_vars": f.n, "N_f": count_zeros(f)})
    return 0


def _cmd_code(args):
    from .catalog import parse_polytope
    from .toriccode import params_report
    P = parse_polytope(args.polytope)
    cp = params_report(P, args.q, engine=args.engine)
    if args.report == "csv":
        print("n,k,d,N_P,griesmer,gv")
        print(f"{cp.n},{cp.k},{cp.d},{cp.N_P},{cp.griesmer_d},{cp.gv_d}")
    else:
        _emit({"n": cp.n, "k": cp.k, "d": cp.d, "N_P": cp.N_P,
               "griesmer": cp.griesmer_d, "gv": cp.gv_d,
               "bounds": [_report_to_dict(r, holds)
                          for r, holds in cp.bound_reports]})
    return 0


def _cmd_bounds(args):
    import inspect
    from . import bounds as B
    if args.formula:
        fn = getattr(B, args.formula, None)
        if not (inspect.isfunction(fn) and fn.__module__ == B.__name__
                and not args.formula.startswith("_")):
            raise ValueError(f"unknown formula {args.formula!r}")
        params, kw = inspect.signature(fn).parameters, {}
        for item in args.args or []:
            k, _, v = item.partition("=")
            if not _:
                raise ValueError(f"--args items must be key=value, got {item!r}")
            if isinstance(getattr(params.get(k), "default", None), bool):
                if v.lower() not in ("true", "false"):
                    raise ValueError(f"--formula {args.formula}: {k} must be "
                                     f"true or false, got {v!r}")
                kw[k] = v.lower() == "true"
            else:
                try:
                    kw[k] = int(v)
                except ValueError:
                    kw[k] = v
        if "q" in kw and not (type(kw["q"]) is int
                              and B.is_prime_power(kw["q"])):
            raise ValueError(f"--formula {args.formula}: q={kw['q']} is "
                             "not a prime power")
        try:
            value = fn(**kw)
        except TypeError as exc:
            raise ValueError(f"--formula {args.formula}: {exc}") from None
        _emit({"formula": args.formula, "args": kw,
               "value": _report_to_dict(value)
               if isinstance(value, B.BoundReport) else value})
        return 0
    if not args.polytope or args.q is None:
        raise ValueError("bounds needs <polytope> --q Q, or --formula")
    from .catalog import parse_polytope
    from .toriccode import params_report
    cp = params_report(parse_polytope(args.polytope), args.q,
                       engine=args.engine)
    _emit({"bounds": [_report_to_dict(r, holds)
                      for r, holds in cp.bound_reports]})
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _check(results, name, actual, expected):
    ok = actual == expected
    results.append({"check": name, "expected": _jsonable(expected),
                    "actual": _jsonable(actual), "ok": ok})
    return ok


def _ex63_polynomials(q=7):
    from .gfq import LaurentPolynomial, make_field
    F = make_field(q)
    m2 = F.neg(2)
    f1 = LaurentPolynomial.make(F, {(2, 1, 0): 1, (1, 2, 0): m2, (0, 0, 0): 1})
    f2 = LaurentPolynomial.make(F, {(3, 0, 0): 1, (0, 0, 1): m2, (0, 0, 2): 1})
    return f1, f2


def _suite_table1(results, long_tier):
    from .catalog import named_polytope
    from .geometry import ambient_vol3
    from .minklen import minkowski_length
    for name, vol in (("T0", 0), ("S1", 1), ("S2", 2),
                      ("E", 3), ("K1", 4), ("K2", 5)):
        P = named_polytope(name)
        _check(results, f"table1.{name}.vol3", ambient_vol3(P), vol)
        _check(results, f"table1.{name}.L", minkowski_length(P)[0], 1)


def _suite_lemma31(results, long_tier):
    from .minklen import unit_triangle_segment_sweep
    _check(results, "lemma31.unit_triangle.max_z_width",
           unit_triangle_segment_sweep(43, triangle="unit"), 14)
    _check(results, "lemma31.T0.max_z_width",
           unit_triangle_segment_sweep(43, triangle="T0"), 2)


def _suite_lemma41(results, long_tier):
    from .minklen import three_segments_width_scan
    _check(results, "lemma41.case1", three_segments_width_scan(1), 9)
    _check(results, "lemma41.case2", three_segments_width_scan(2), 4)


def _suite_classify2(results, long_tier):
    from .catalog import named_polytope
    from .geometry import equivalent, normalized_volume
    from .minklen import classify_pair, find_tetra, find_triangles
    S2 = named_polytope("S2")
    tets = find_tetra(S2)
    vol2 = [T for T in tets if normalized_volume(T) == 2]
    _check(results, "classify2.find_tetra_S2.vol2_all_S2",
           all(equivalent(T, S2) is not None for T in vol2) and bool(vol2),
           True)
    tets_E = find_tetra(named_polytope("E"))
    _check(results, "classify2.find_tetra_E.one_shift_of_S2",
           len(tets_E) == 1 and equivalent(tets_E[0], S2) is not None, True)
    _check(results, "classify2.find_triangles_T2.empty",
           list(find_triangles(named_polytope("T2"))), [])
    tets_K2 = find_tetra(named_polytope("K2"))
    S = named_polytope("S")
    _check(results, "classify2.find_tetra_K2.is_S",
           len(tets_K2) == 1 and equivalent(tets_K2[0], S) is not None, True)
    _check(results, "classify2.S_equivalent_S2",
           equivalent(S, S2) is not None, True)
    K1 = named_polytope("K1")
    _check(results, "classify2.pair_K1_K1.label",
           classify_pair(K1, K1).label, "(K1,K1)")
    _check(results, "classify2.pair_K2_S.label",
           classify_pair(named_polytope("K2"), S).label, "(K2,S)")


def _suite_classify3(results, long_tier):
    from .catalog import named_polytope
    from .minklen import classify_triple
    S1 = named_polytope("S1")
    S2 = named_polytope("S2")
    _check(results, "classify3.S1_S1_S1.label",
           classify_triple(S1, S1, S1).label, "(i)")
    _check(results, "classify3.S2_S2_S2.label",
           classify_triple(S2, S2, S2).label, "(iii)")
    _check(results, "classify3.E_S2_S2.label",
           classify_triple(named_polytope("E"), S2, S2).label, "(iv)")


def _suite_ex63(results, long_tier):
    from . import bounds as B
    from .gfq import common_zero_count, count_zeros, multiply
    f1, f2 = _ex63_polynomials()
    _check(results, "ex63.N_f1", count_zeros(f1), 54)
    _check(results, "ex63.N_f2", count_zeros(f2), 54)
    _check(results, "ex63.common_zeros", common_zero_count(f1, f2), 12)
    _check(results, "ex63.N_f1f2", count_zeros(multiply(f1, f2)), 96)
    _check(results, "ex63.special_bound_T0_7", B.special_bound("T0", 7), 60)
    _check(results, "ex63.maxa_bound_L2_k2_7", B.maxa_bound(2, 2, 7), 120)
    if long_tier:
        from .geometry import convex_hull
        from .toriccode import max_zero_count
        prod = multiply(f1, f2)
        P = convex_hull(list(prod.support))
        _check(results, "ex63.N_P_q7", max_zero_count(P, 7, engine="bz"), 96)


def _suite_ex72(results, long_tier):
    from . import bounds as B
    from .catalog import named_polytope
    from .toriccode import max_zero_count
    P = named_polytope("EX72")
    _check(results, "ex72.N_P_q5", max_zero_count(P, 5, engine="exhaustive"),
           40)
    _check(results, "ex72.bound_row",
           [B.width_one_final_bound(2, q) for q in (5, 7, 8, 9, 11)],
           [44, 96, 126, 168, 250])
    bt = B.beta(7, 3, 2, 1, 2, 5, mode="per_summand")
    _check(results, "ex72.beta_prime_power", B.next_prime_power(bt), 107)
    _check(results, "ex72.beta_value_window",
           bool(abs(bt - 105.914) < 5e-3), True)
    if long_tier:
        for q, expected in ((7, 90), (8, 112), (9, 160), (11, 250)):
            _check(results, f"ex72.N_P_q{q}",
                   max_zero_count(P, q, engine="bz"), expected)


def _suite_section8(results, long_tier):
    from . import bounds as B
    from .catalog import named_polytope
    from .toriccode import build_code, min_weight
    P = named_polytope("P8")
    Q = named_polytope("Q8")
    fast = {("P", 5): 36, ("P", 7): 162, ("P", 8): 252,
            ("Q", 5): 36, ("Q", 7): 150, ("Q", 8): 252}
    for (which, q), expected in sorted(fast.items()):
        code = build_code(P if which == "P" else Q, q)
        _check(results, f"section8.d_C{which}_q{q}", min_weight(code),
               expected)
    for q, n, g, v in ((5, 64, 47, 37), (7, 216, 181, 159),
                       (8, 343, 296, 268)):
        _check(results, f"section8.griesmer_q{q}",
               B.griesmer_max_d(n, 8, q), g)
        _check(results, f"section8.gv_q{q}", B.gv_max_d(n, 8, q), v)
    if long_tier:
        longs = {("P", 9): 392, ("P", 11): 861, ("P", 13): 1535,
                 ("Q", 9): 416, ("Q", 11): 850, ("Q", 13): 1512}
        for (which, q), expected in sorted(longs.items()):
            code = build_code(P if which == "P" else Q, q)
            _check(results, f"section8.d_C{which}_q{q}",
                   min_weight(code, engine="bz"), expected)


_SUITES = {
    "table1": _suite_table1,
    "lemma31": _suite_lemma31,
    "lemma41": _suite_lemma41,
    "classify2": _suite_classify2,
    "classify3": _suite_classify3,
    "ex63": _suite_ex63,
    "ex72": _suite_ex72,
    "section8": _suite_section8,
}


def _cmd_verify(args):
    warnings.filterwarnings("ignore")
    if args.suite not in _SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(_SUITES)}")
    results = []
    _SUITES[args.suite](results, args.long)
    ok = all(r["ok"] for r in results)
    _emit({"suite": args.suite, "tier": "long" if args.long else "fast",
           "passed": sum(r["ok"] for r in results),
           "failed": sum(not r["ok"] for r in results),
           "checks": results})
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="toric3", description="Minkowski length machinery and toric "
        "3-fold codes over finite fields, in exact arithmetic.")
    sub = ap.add_subparsers(dest="command")

    def poly_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("polytope", help="@catalog-name or polytope JSON file")
        p.set_defaults(fn=fn)
        return p

    poly_cmd("info", _cmd_info,
             "lattice points, volume, Minkowski length, width")
    poly_cmd("length", _cmd_length, "Minkowski length with a certificate")
    p = poly_cmd("segments", _cmd_segments,
                 "segment directions I with L(P + I) = target")
    p.add_argument("--target-L", type=int, required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="search u with |<u, n_F>| <= bound over P's facet "
                        "normals (default 14, 2 for T0)")
    poly_cmd("triangles", _cmd_triangles,
             "triangles T with L(T) = 1 and L(P + T) = 2")
    poly_cmd("tetra", _cmd_tetra, "tetrahedra within P's difference set")
    p = sub.add_parser("pair",
                       help="classify a maximal pair of L = 1 summands")
    p.add_argument("p"), p.add_argument("q")
    p.set_defaults(fn=_cmd_pair)
    p = sub.add_parser("triple",
                       help="classify a maximal triple of L = 1 summands")
    p.add_argument("p"), p.add_argument("q"), p.add_argument("r")
    p.set_defaults(fn=_cmd_triple)
    p = sub.add_parser("zeros", help="count torus zeros of a polynomial "
                       "file (one 'c a1 a2 ...' term per line)")
    p.add_argument("polynomial")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_zeros)
    p = poly_cmd("code", _cmd_code, "toric code parameters [n, k, d]")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--engine", choices=("auto", "exhaustive", "bz"),
                   default="auto")
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p = sub.add_parser("bounds", help="bound reports for a polytope, or a "
                       "single formula evaluation")
    p.add_argument("polytope", nargs="?")
    p.add_argument("--q", type=int)
    p.add_argument("--engine", choices=("auto", "exhaustive", "bz"),
                   default="auto")
    p.add_argument("--formula")
    p.add_argument("--args", nargs="*")
    p.set_defaults(fn=_cmd_bounds)
    p = sub.add_parser("verify", help="run a reference-value suite")
    p.add_argument("suite")
    p.add_argument("--long", action="store_true")
    p.set_defaults(fn=_cmd_verify)
    return ap


def run(argv):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if not getattr(args, "fn", None):
        ap.print_help()
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .toriccode import BudgetExceeded
        if isinstance(exc, BudgetExceeded):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        raise


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
