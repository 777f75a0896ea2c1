import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import traced_peak
from toric3 import cli
from toric3.catalog import named_polytope


def run_json(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestInfo:
    def test_k1(self, capsys):
        rc, out = run_json(capsys, ["info", "@K1"])
        assert rc == 0
        assert out["schema"] == "toric3/1"
        assert out["points"] == 5
        assert out["vol3"] == 4
        assert out["L"] == 1
        assert out["width"] == 2

    def test_flat_t0(self, capsys):
        rc, out = run_json(capsys, ["info", "@T0"])
        assert rc == 0
        assert out["vol3"] == 0 and out["dim"] == 2

    def test_unknown_catalog_name(self, capsys):
        assert cli.run(["info", "@nonsense"]) == 2

    def test_unknown_catalog_name_message(self, capsys):
        assert cli.run(["pair", "@S2", "@S2x"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: unknown polytope 'S2x'; choose from ")
        assert "S2, " in err[0] and "Howe:a,b" in err[0]

    def test_bad_tab_parameters(self, capsys):
        assert cli.run(["info", "@Tab:2,2"]) == 2


class TestPolytopeFiles:
    def test_json_file(self, tmp_path, capsys):
        f = tmp_path / "seg.json"
        f.write_text(json.dumps(
            {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        rc, out = run_json(capsys, ["info", str(f)])
        assert rc == 0
        assert out["vol3"] == 1

    def test_missing_file(self, capsys):
        assert cli.run(["info", "/does/not/exist.json"]) == 2

    def test_bare_vertex_list_rejected(self, tmp_path, capsys):
        f = tmp_path / "list.json"
        f.write_text(json.dumps([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert cli.run(["info", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None, [1]])
    def test_non_integer_coordinate_rejected(self, tmp_path, capsys, bad):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(
            {"vertices": [[0, 0, 0], [bad, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        assert cli.run(["info", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {f}: expected a JSON object with a 'vertices' list of "
            "integer tuples"]

    @pytest.mark.parametrize("content", [
        "vertices: 0 0 0", '{"vertices": [[0, 0, 0, 0], [1, 0, 0, 0]]}',
        '{"vertices": [[0, 0, 0], [1, 0, 0]], "dim2": true}'])
    def test_bad_content_names_the_file(self, tmp_path, capsys, content):
        f = tmp_path / "bad.json"
        f.write_text(content)
        assert cli.run(["info", str(f)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {f}: ")


class TestModuleEntryPoint:
    def test_python_m_toric3(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                                 else ""))
        proc = subprocess.run([sys.executable, "-m", "toric3", "info", "@S1"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["points"] == 4


class TestLengthAndSearches:
    def test_length_certificate(self, capsys):
        rc, out = run_json(capsys, ["length", "@S2"])
        assert rc == 0
        assert out["L"] == 1
        assert len(out["certificate"]["directions"]) == 1

    def test_segments_t0(self, capsys):
        rc, out = run_json(capsys, ["segments", "@T0", "--target-L", "2"])
        assert rc == 0
        assert out["count"] == 16

    @pytest.mark.parametrize("target", ["0", "-1"])
    def test_segments_target_below_one(self, capsys, target):
        # L(P + I) >= 1 for every segment I, so no direction can qualify
        rc = cli.run(["segments", "@S1", "--target-L", target])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_segments_t0_2d_default_bound(self, capsys):
        # T0 in Z^2 takes T0's bound 2 though the catalog T0 lies in Z^3
        argv = ["segments", "@T0_2d", "--target-L", "2"]
        rc, out = run_json(capsys, argv)
        assert rc == 0
        rc2, out2 = run_json(capsys, argv + ["--bound", "2"])
        assert rc2 == 0 and out == out2
        assert out["directions"] == [[0, 1], [1, 0], [1, 1]]

    @pytest.mark.parametrize("argv", [
        ["segments", "@T0", "--target-L", "2", "--bound", "100000"],
        ["info", "HUGE"]])
    def test_oversized_box_rejected(self, tmp_path, capsys, argv):
        # 10^7-sized coordinates: the box of the first two coordinates has
        # 10^14 columns
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"vertices": [
            [0, 0, 0], [10 ** 7, 0, 0], [0, 10 ** 7, 0], [0, 0, 10 ** 7]]}))
        rc, peak = traced_peak(
            cli.run, [str(f) if a == "HUGE" else a for a in argv])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "> 2^26" in err[0]
        assert peak < 4 * 2 ** 20, peak

    def test_cut_values_reaching_2_60_rejected(self, tmp_path, capsys):
        # 6 of its 10 lattice points came out before the cut values were
        # checked
        T = 2 ** 60
        f = tmp_path / "far.json"
        f.write_text(json.dumps({"vertices": [[T, T, T], [T + 2, T, T],
                                              [T, T + 2, T], [T, T, T + 2]]}))
        assert cli.run(["info", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: coordinates too large: a cut value reaches 2^60"]

    @pytest.mark.parametrize("cmd", ["info", "length"])
    def test_long_segment_rejected(self, tmp_path, capsys, cmd):
        # a 2^40-long segment has too many lattice points to enumerate
        f = tmp_path / "segment.json"
        f.write_text(json.dumps({"vertices": [[0, 0, 0], [2 ** 40, 0, 0]]}))
        assert cli.run([cmd, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: lattice point segment too large: {2 ** 40 + 1} points"
            " > 2^26"]

    def test_triangles_t2_empty(self, capsys):
        rc, out = run_json(capsys, ["triangles", "@T2"])
        assert rc == 0 and out["count"] == 0

    def test_tetra_e(self, capsys):
        rc, out = run_json(capsys, ["tetra", "@E"])
        assert rc == 0 and out["count"] == 1

    def test_pair(self, capsys):
        rc, out = run_json(capsys, ["pair", "@K1", "@K1"])
        assert rc == 0
        assert out["label"] == "(K1,K1)" and out["length"] == 2

    def test_triple(self, capsys):
        rc, out = run_json(capsys, ["triple", "@S1", "@S2", "@S2"])
        assert rc == 0 and out["label"] == "(ii)"

    @pytest.mark.parametrize("names,label", [(("S2", "S1"), "(S1,S2)"),
                                             (("S2", "E", "S2"), "(iv)")])
    def test_witness_is_json_and_applies(self, tmp_path, capsys, names,
                                         label):
        # inputs moved off the catalog by a shared map with distinct shifts
        M = ((1, 2, 0), (0, 1, 0), (1, 1, 1))
        files, inputs = [], []
        for i, name in enumerate(names):
            verts = [tuple(sum(a * x for a, x in zip(row, v)) + i * (3 - k)
                           for k, row in enumerate(M))
                     for v in named_polytope(name).vertices]
            f = tmp_path / f"p{i}.json"
            f.write_text(json.dumps({"vertices": verts}))
            files.append(str(f))
            inputs.append(verts)
        cmd = "pair" if len(names) == 2 else "triple"
        rc, out = run_json(capsys, [cmd] + files)
        assert rc == 0 and out["label"] == label
        phi, shifts = out["witness"]
        assert sorted(phi) == ["matrix", "translation"]
        assert len(shifts) == len(names)
        moved = [sorted(tuple(sum(a * x for a, x in zip(row, v)) + t[k]
                              for k, row in enumerate(phi["matrix"]))
                        for v in verts)
                 for verts, t in zip(inputs, shifts)]
        assert sorted(moved) == sorted(list(named_polytope(n).vertices)
                                       for n in names)

    def test_pair_precondition(self, capsys):
        # EX72 has length 2, not a valid L = 1 summand
        assert cli.run(["pair", "@EX72", "@K1"]) == 2


class TestZeros:
    def test_curve_count(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("1 2 1 0\n-2 1 2 0\n1 0 0 0\n")
        rc, out = run_json(capsys, ["zeros", str(f), "--q", "7"])
        assert rc == 0 and out["N_f"] == 54

    def test_extension_field_coefficient(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("g^1 1 0\n1 0 0\n")  # g*u + 1 over GF(9)
        rc, out = run_json(capsys, ["zeros", str(f), "--q", "9"])
        assert rc == 0 and out["N_f"] == 8  # one u per v

    def test_zero_polynomial_rejected(self, tmp_path):
        f = tmp_path / "z.txt"
        f.write_text("5 1 0 0\n")  # 5 = 0 in F_5
        assert cli.run(["zeros", str(f), "--q", "5"]) == 2

    def test_mixed_exponent_lengths(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("1 1 0\n1 0 1 1\n")
        assert cli.run(["zeros", str(f), "--q", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "mixed lengths [2, 3]" in err[0]

    def test_mixed_exponent_lengths_name_file_and_line(self, tmp_path,
                                                       capsys):
        f = tmp_path / "m.txt"
        f.write_text("1 0 0 0\n1 1 0\n")
        assert cli.run(["zeros", str(f), "--q", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {f}:2:")
        assert "mixed lengths [2, 3]" in err[0]

    def test_constant_polynomial(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("3  # a nonzero constant: the 0-torus is one point\n")
        rc, out = run_json(capsys, ["zeros", str(f), "--q", "5"])
        assert rc == 0 and out["n_vars"] == 0 and out["N_f"] == 0

    @pytest.mark.parametrize("term", ["1 a b c", "1.5 1 2 3", "g^x 1 2 3"])
    def test_bad_term_names_file_and_line(self, tmp_path, capsys, term):
        f = tmp_path / "bad.txt"
        f.write_text(term + "\n1 0 0 0\n")
        assert cli.run(["zeros", str(f), "--q", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {f}:1:")

    def test_torus_above_2_32_points(self, tmp_path, capsys, monkeypatch):
        from toric3 import gfq

        def no_field(q):
            raise AssertionError("field built before the torus guard")
        monkeypatch.setattr(gfq, "make_field", no_field)
        f = tmp_path / "b.txt"
        f.write_text("1 1 0\n1 0 1\n")
        assert cli.run(["zeros", str(f), "--q", "1048576"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "2^32 points" in err[0]

    def test_large_field_in_bounded_memory(self, tmp_path, capsys):
        # 1023^2 torus points: a (points, terms, e) digit tensor of all
        # term values would take 251 MB
        f = tmp_path / "l.txt"
        f.write_text("1 1 0\n1 0 1\n1 0 0\n")
        (rc, out), peak = traced_peak(
            run_json, capsys, ["zeros", str(f), "--q", "1024"])
        assert rc == 0 and out["N_f"] == 1022  # y = x + 1, x != 1
        assert peak < 24 * 2 ** 20, peak

    def test_exponent_beyond_int64(self, tmp_path, capsys):
        # 10^20 - 1 = 3 mod 4: the exponent is reduced before any array
        counts = []
        for e in ("99999999999999999999", "3"):
            f = tmp_path / f"e{len(e)}.txt"
            f.write_text(f"1 {e} 0 0\n1 0 0 0\n")
            rc, out = run_json(capsys, ["zeros", str(f), "--q", "5"])
            assert rc == 0
            counts.append(out["N_f"])
        assert counts == [16, 16]  # x^3 = -1: x = -1, any y, z

    @pytest.mark.long
    def test_q1024_trivariate(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("1 1 0 0\n1 0 1 0\n1 0 0 1\n")
        rc, out = run_json(capsys, ["zeros", str(f), "--q", "1024"])
        assert rc == 0 and out["N_f"] == 1023 * 1022  # z = x + y, x != y


class TestCode:
    def test_csv_report(self, capsys):
        rc = cli.run(["code", "@P8", "--q", "5", "--report", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "n,k,d,N_P,griesmer,gv"
        assert out[1] == "64,8,36,28,47,37"

    @pytest.mark.parametrize("cmd", ["code", "bounds"])
    def test_evaluation_matrix_too_large(self, capsys, cmd):
        # |P| (q-1)^3 evaluations: 8 x 2^48 for P8 at q = 65537
        assert cli.run([cmd, "@P8", "--q", "65537"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: evaluation matrix too large: 8 points x "
            "281474976710656 torus points > 2^26"]

    def test_width_warning_is_one_stderr_line(self, capsys):
        # P8 has coordinate width 35 > q - 2 = 3
        assert cli.run(["code", "@P8", "--q", "5"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["d"] == 36
        assert captured.err.splitlines() == [
            "warning: coordinate width 35 exceeds q-2=3; distinct lattice "
            "points may evaluate identically"]

    def test_json_report(self, capsys):
        rc, out = run_json(capsys, ["code", "@P8", "--q", "5"])
        assert rc == 0
        assert (out["n"], out["k"], out["d"]) == (64, 8, 36)
        assert any(b["name"] == "griesmer" for b in out["bounds"])

    def test_flat_t0_in_z3(self, capsys):
        # T0 is flat (lattice width 0), so no width-one bound is reported
        rc, out = run_json(capsys, ["code", "@T0", "--q", "5"])
        assert rc == 0
        assert (out["d"], out["N_P"]) == (40, 24)
        assert "width_one_final" not in [b["name"] for b in out["bounds"]]

    @pytest.mark.parametrize("cmd", ["code", "bounds"])
    def test_one_point_polytope(self, tmp_path, capsys, cmd):
        # a nonzero constant has no torus zeros: N_P = 0 = L (q-1)^2, L = 0
        f = tmp_path / "pt.json"
        f.write_text(json.dumps({"vertices": [[0, 0, 0]]}))
        rc, out = run_json(capsys, [cmd, str(f), "--q", "5"])
        assert rc == 0
        if cmd == "code":
            assert (out["n"], out["k"], out["d"], out["N_P"]) == (64, 1, 64, 0)
        simplex = next(b for b in out["bounds"] if b["name"] == "simplex")
        assert simplex["value"] == 0 and simplex["inputs"] == {"L": 0}
        assert simplex["holds"] is True

    def test_coordinates_beyond_int64(self, tmp_path, capsys):
        # a primitive segment with 2 lattice points; 10^20 - 1 = 3 mod 4,
        # so its code is that of conv{0, (3, 1, 0)} at q = 5
        params = []
        for x in (99999999999999999999, 3):
            f = tmp_path / f"s{x % 10 ** 6}.json"
            f.write_text(json.dumps({"vertices": [[0, 0, 0], [x, 1, 0]]}))
            rc, out = run_json(capsys, ["code", str(f), "--q", "5"])
            assert rc == 0
            params.append((out["n"], out["k"], out["d"], out["N_P"]))
        assert params[0] == params[1] == (64, 2, 48, 16)

    def test_pair_beyond_int64_exits_2(self, tmp_path, capsys):
        # the planar sum's chart reaches coordinates near 10^20
        files = []
        for x in (99999999999999999999, 3):
            files.append(tmp_path / f"s{x % 10 ** 6}.json")
            files[-1].write_text(json.dumps({"vertices": [[0, 0, 0],
                                                          [x, 1, 0]]}))
        assert cli.run(["pair", *map(str, files)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: coordinates too large: a cut value reaches "
                       "2^60"]

    def test_budget_exit_code(self, tmp_path):
        f = tmp_path / "big.json"
        big = [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]]
        f.write_text(json.dumps({"vertices": big}))
        rc = cli.run(["code", str(f), "--q", "7", "--engine", "exhaustive"])
        assert rc == 3


class TestBounds:
    def test_formula(self, capsys):
        rc, out = run_json(capsys, ["bounds", "--formula", "special_bound",
                                    "--args", "cls=T0", "q=7"])
        assert rc == 0 and out["value"] == 60

    def test_formula_width_one_final(self, capsys):
        rc, out = run_json(capsys, ["bounds", "--formula",
                                    "width_one_final_bound",
                                    "--args", "L=2", "q=11"])
        assert rc == 0 and out["value"] == 250

    def test_formula_simplex_of_a_point(self, capsys):
        rc, out = run_json(capsys, ["bounds", "--formula", "simplex_bound",
                                    "--args", "L=0", "q=5"])
        assert rc == 0 and out["value"] == 0

    def test_polytope_reports(self, capsys):
        rc, out = run_json(capsys, ["bounds", "@EX72", "--q", "5"])
        assert rc == 0
        names = [b["name"] for b in out["bounds"]]
        assert "width_one_final" in names

    def test_flat_polytope_reports(self, capsys):
        rc, out = run_json(capsys, ["bounds", "@T0", "--q", "7"])
        assert rc == 0
        assert "width_one_final" not in [b["name"] for b in out["bounds"]]

    def test_unknown_formula(self):
        assert cli.run(["bounds", "--formula", "no_such"]) == 2

    def test_formula_bad_arguments(self, capsys):
        rc = cli.run(["bounds", "--formula", "alpha", "--args", "L=2", "x=3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_arguments(self):
        assert cli.run(["bounds"]) == 2

    @pytest.mark.parametrize("argv", [
        ["Fraction", "--args", "numerator=3"], ["dataclass"], ["field"],
        ["BoundReport", "--args", "name=x", "value=1"], ["comb"], ["isqrt"],
        ["mpmath"], ["annotations"], ["factor_prime_power", "--args", "q=8"],
        ["_alpha_lhs", "--args", "L=2", "d=4", "q=7"]])
    def test_formula_names_a_bounds_function(self, capsys, argv):
        assert cli.run(["bounds", "--formula"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown formula {argv[0]!r}\n"

    def test_formula_report_object(self, capsys):
        rc, out = run_json(capsys, ["bounds", "--formula", "special_bound",
                                    "--args", "cls=T0", "q=7", "report=true"])
        assert rc == 0 and out["value"] == {
            "name": "special[T0]", "value": 60,
            "hypotheses": [{"flag": "char not in {2,3}", "met": True}],
            "inputs": {"q": 7}}

    @pytest.mark.parametrize("formula,args,flag,values", [
        ("maxa_bound", ["L=2", "k=1", "q=7", "vol3=8"], "has_T0_factor",
         {"false": 95, "true": 96}),
        ("mindist_lower_bound", ["L=2", "q=11"], "width_one",
         {"false": 687, "True": 743}),
        ("special_bound", ["cls=T0", "q=7"], "report", {"false": 60})])
    def test_boolean_args_take_true_or_false(self, capsys, formula, args,
                                             flag, values):
        for v, expected in values.items():
            rc, out = run_json(capsys, ["bounds", "--formula", formula,
                                        "--args", *args, f"{flag}={v}"])
            assert rc == 0 and out["value"] == expected
        for v in ("no", "1", "0", ""):
            assert cli.run(["bounds", "--formula", formula,
                            "--args", *args, f"{flag}={v}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: --formula {formula}: {flag} must"
                                    f" be true or false, got {v!r}\n")

    @pytest.mark.parametrize("q", ["1", "6", "x"])
    def test_formula_q_not_a_prime_power(self, capsys, q):
        rc = cli.run(["bounds", "--formula", "special_bound",
                      "--args", "cls=T0", f"q={q}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1


class TestReadme:
    def test_command_line_block_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1]
        block = section.split("```\n", 2)[1]
        named, suites = set(), None
        for line in block.splitlines():
            words = line.split("#", 1)[0].split()
            named |= {words[i + 1] for i, w in enumerate(words[:-1])
                      if w == "toric3"}
            if words[:2] == ["toric3", "verify"]:
                suites = set(words[2].split("|"))
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert named == set(sub.choices)
        assert suites == set(cli._SUITES)

    def test_options_match_parser(self):
        # every subcommand and --option of the parser appears in the
        # "Command line" section, and every --flag named there parses
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ")[0]
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {o for p in sub.choices.values() for a in p._actions
                   for o in a.option_strings if o not in ("-h", "--help")}
        words = set(re.findall(r"[\w-]+", section))
        assert set(sub.choices) - words == set()
        assert options - words == set()
        assert set(re.findall(r"(?<![\w-])--\w[\w-]*", section)) - options \
            == set()


class TestVerify:
    def test_table1_passes(self, capsys):
        rc, out = run_json(capsys, ["verify", "table1"])
        assert rc == 0
        assert out["failed"] == 0 and out["passed"] == 12

    def test_deterministic_output(self, capsys):
        cli.run(["verify", "lemma41"])
        first = capsys.readouterr().out
        cli.run(["verify", "lemma41"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_suite(self):
        assert cli.run(["verify", "bogus"]) == 2

    def test_classify_suites(self, capsys):
        for suite in ("classify2", "classify3"):
            rc, out = run_json(capsys, ["verify", suite])
            assert rc == 0 and out["failed"] == 0

    def test_ex63(self, capsys):
        rc, out = run_json(capsys, ["verify", "ex63"])
        assert rc == 0 and out["failed"] == 0


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.run([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.run(["frobnicate"]) == 2


_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreadSettings:
    def test_inherited_kept_without_setting(self, monkeypatch, capsys):
        # the BLAS reads its pool size from these; the CLI leaves them be
        for var in _POOLS:
            monkeypatch.setenv(var, "4")
        assert cli.run(["info", "@S1"]) == 0
        assert [os.environ[var] for var in _POOLS] == ["4", "4", "4"]
