import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import minnet
from minnet.cli import build_parser, main, verify_pair
from minnet.holomorphic import power_function, read_grid
from minnet.minimal import MinimalPair, _vertex_stars
from minnet.lattice import LatticeDomain, Net3
from minnet.net import read_net, write_net

from conftest import full_parser

# a 2x2 net file whose positions have 2 coordinates
NET_2D = json.dumps({"domain": {"m0": 0, "m1": 1, "n0": 0, "n1": 1},
                     "vertices": [{"m": m, "n": n, "p": [m, n]} for m in (0, 1) for n in (0, 1)]})
# the same net flat in R^3, which passes every check at any tolerance >= 0
NET_3D = json.dumps({"domain": {"m0": 0, "m1": 1, "n0": 0, "n1": 1},
                     "vertices": [{"m": m, "n": n, "p": [m, n, 0]}
                                  for m in (0, 1) for n in (0, 1)]})


def net_3d(domain=None, m1=1, infinity=None, p0=None, **fields):
    """NET_3D with other domain bounds, another m of its m = 1 records,
    labels that make it the grid of the square 0, 1, 1 + i, i, with the
    given infinity tags, another position p0 of its first record, or
    other top-level fields."""
    doc = json.loads(NET_3D)
    doc["domain"].update(domain or {})
    for record in doc["vertices"]:
        record["m"] = m1 if record["m"] == 1 else 0
    if infinity is not None:
        doc.update(alpha=[1.0], beta=[-1.0], infinity=infinity)
    if p0 is not None:
        doc["vertices"][0]["p"] = p0
    doc.update(fields)
    return json.dumps(doc)


# an output path in a directory that does not exist, under the test's tmp_path
MISSING = "<missing>"
# the path of the file the command reads, and a path under the test's tmp_path
READ = "<read>"
TMP = "<tmp>/"
# a seed of the default knoid grid that solves to a grid with a collapsed edge
ZERO_SEED = json.dumps({"params": [0] * 62})
# "piece" with the normal of its first vertex (0, 0) set to 0
ZERO_NORMAL = "piece, zero first normal"
# files that json cannot read: bytes that are not UTF-8 text, arrays nested
# past the recursion limit, and an integer longer than Python's 4,300 digits
NOT_UTF8 = b"\xff\xfe\x00x"
TOO_DEEP = "[" * 100000
TOO_LONG = '{"params": [' + "1" * 5000 + "]}"


def run(args, env=None):
    old = {}
    if env:
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        return main(args)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# (command, file) pairs that every command must reject with a typed error and
# exit 3: the file is None (no input), "piece" (a generated Enneper piece)
# or the text of the file the command reads
BAD_INPUT = [
    (["enneper", "--k", "3", "--size", "1"], None),
    (["knoid", "--k", "3"], None),          # --seed-file names a missing file
    (["knoid", "--k", "3"], "{broken"),
    (["knoid", "--k", "3"], '{"iterations": 3}'),
    # export and verify: seed is the file they read
    (["export"], '{"kind": "orbit", "faces": [[0, 1, 2, 3]]}'),
    (["export"], '{"kind": "orbit", "vertices": [[0, 0, 0]]}'),
    (["export"], '{"kind": "orbit", "vertices": [[0, "x", 0]], "faces": []}'),
    (["export"], NET_2D),
    (["verify"], NET_2D),
    # tolerances under which every check passes, or every check fails
    (["enneper", "--k", "3", "--size", "6", "--tol", "inf"], None),
    (["platonic", "--preset", "tetrahedral", "--resolution", "2",
      "--solver-tol", "nan"], None),
    (["platonic", "--preset", "tetrahedral", "--resolution", "2",
      "--solver-tol", "-1"], None),
    (["verify", "--tol", "nan"], NET_3D),
    (["verify", "--tol", "-1"], NET_3D),
    # fractional and boolean lattice indices, which int() would truncate;
    # conjugate reads the seed as its grid
    (["export"], net_3d(domain={"m1": 1.5})),
    (["verify"], net_3d(domain={"mask": [[1.5, 1]]})),
    (["verify"], net_3d(m1=1.9)),
    (["verify"], net_3d(m1=True)),
    (["conjugate"], net_3d(infinity=[[40.5, 0]])),    # past the domain: ignored
    (["conjugate"], net_3d(infinity=[[True, False]])),
    # every output option, given a path in a directory that does not exist;
    # "piece" reads the files of a generated Enneper piece
    (["enneper", "--k", "3", "--size", "4", "--out", MISSING], None),
    (["enneper", "--k", "3", "--size", "4", "--report", MISSING], None),
    (["conjugate", "--out", MISSING], "piece"),
    (["reflect", "--row", "0", "--out", MISSING], "piece"),
    (["orbit", "--out", MISSING], "piece"),
    (["orbit", "--obj", MISSING], "piece"),
    (["export", MISSING], "piece"),
    # booleans and strings where a number belongs, which float() and numpy
    # would read as numbers
    (["verify"], net_3d(p0=[0, 0, True])),
    (["export"], net_3d(p0=[0, 0, "1.5"])),
    (["conjugate"], net_3d(infinity=[], alpha=[True])),
    (["verify"], net_3d(normals=[[0, 0, 1]] * 3 + [[0, 0, "1"]])),
    (["knoid", "--k", "3"], json.dumps({"params": [True] + [0] * 61})),
    (["knoid", "--k", "3"], json.dumps({"params": ["1.5"] + [0] * 61})),
    (["knoid", "--k", "3"], ZERO_SEED),
    # a grid whose vertex (0, 0) sits on its neighbour (0, 1)
    (["conjugate"], net_3d(infinity=[], p0=[0, 1, 0])),
    # a domain that is not an object
    (["verify"], json.dumps({**json.loads(NET_3D), "domain": 3})),
    (["reflect", "--row", "0"], json.dumps({**json.loads(NET_3D), "domain": [0, 1, 0, 1]})),
    # the seed normal of the normal propagation that checks the mirrored normals
    (["reflect", "--row", "0"], ZERO_NORMAL),
    # the NaN and Infinity tokens that json.loads reads
    (["knoid", "--k", "3"], json.dumps({"params": [float("nan")] + [0] * 61})),
    (["knoid", "--k", "3"], json.dumps({"params": [0] * 61 + [float("-inf")]})),
    # finite seed parameters past the magnitude bound, which overflowed the solve
    (["knoid", "--k", "3"], json.dumps({"params": [1e300] * 62})),
    # lattices past the size bounds, which numpy refused with a traceback; the
    # knoid seed file is empty, so that the size is what fails
    (["enneper", "--k", "3", "--size", "1000000000"], None),
    (["planar-enneper", "--size", "1000000000"], None),
    (["knoid", "--k", "3", "--nmax", "1000000000", "--mmax", "1000000000"],
     '{"params": []}'),
    (["platonic", "--preset", "tetrahedral", "--resolution", "1000000000"], None),
    # a negative iteration cap, which ended in an IndexError traceback; the
    # knoid seed has the length of the default grid's, so that the cap is what fails
    (["knoid", "--k", "3", "--max-iter", "-1"], json.dumps({"params": [0.5] * 62})),
    (["platonic", "--preset", "tetrahedral", "--resolution", "2", "--max-iter", "-1"], None),
    # an output that names the same file as another output or as an input, which
    # the command wrote over; "--out x" comes first in the generate argv
    (["enneper", "--k", "2", "--size", "6", "--orbit", "--report", TMP + "x.orbit.json"], None),
    (["orbit", "--out", READ], "piece"),
    (["reflect", "--row", "0", "--out", READ], "piece"),
    (["verify", "--report", READ], "piece"),
    (["export", READ], "piece"),
    (["conjugate", "--out", READ], "piece"),
    (["knoid", "--k", "3", "--report", READ], json.dumps({"params": []})),
    # unreadable files, which escaped as a traceback with exit 1
    (["verify"], NOT_UTF8),
    (["export"], NOT_UTF8),
    (["knoid", "--k", "3"], NOT_UTF8),
    (["conjugate"], TOO_DEEP),
    (["knoid", "--k", "3"], TOO_DEEP),
    (["conjugate"], TOO_LONG),
    (["knoid", "--k", "3"], TOO_LONG),
    # a word length below 1, which ended in "group did not close within word
    # length -3"; generate refuses it before it solves or writes a file
    (["enneper", "--k", "3", "--size", "4", "--orbit", "--max-word", "0"], None),
    (["platonic", "--preset", "tetrahedral", "--resolution", "2", "--orbit", "--max-word", "0"],
     None),
    (["orbit", "--max-word", "-3"], "piece"),
]


def _short_id(value):
    """Test ids for the long unreadable files; None keeps pytest's own id."""
    return "too-deep" if value is TOO_DEEP else "too-long" if value is TOO_LONG else None


# the net files among them, which every reader of a net file must reject alike
BAD_NET_FILES = list(dict.fromkeys(
    seed for family, seed in BAD_INPUT
    if family in (["export"], ["verify"], ["reflect", "--row", "0"]) and isinstance(seed, str)
    and '"kind": "orbit"' not in seed and seed != ZERO_NORMAL))


class TestGenerate:
    def test_enneper_with_orbit(self, tmp_path):
        base = str(tmp_path / "enn")
        report = str(tmp_path / "report.json")
        code = run(["generate", "enneper", "--k", "3", "--size", "6",
                    "--orbit", "--out", base, "--report", report])
        assert code == 0
        doc = json.loads(open(report).read())
        assert doc["ok"]
        assert doc["checks"]["minimality"]["max_residual"] <= 1e-9
        assert doc["orbit"]["elements"] == 8
        for suffix in ("iso", "asym", "gauss", "grid"):
            assert os.path.exists(f"{base}.{suffix}.dnet.json")
        assert os.path.exists(f"{base}.orbit.obj")

    def test_icosahedral_orbit(self, tmp_path):
        base = str(tmp_path / "ico")
        report = tmp_path / "r.json"
        assert run(["generate", "platonic", "--preset", "icosahedral", "--resolution", "3",
                    "--orbit", "--out", base, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["orbit"]["elements"] == 120

    def test_orbit_that_does_not_close_leaves_no_file(self, tmp_path, capsys):
        """The orbit is built before the first file is written, so a group
        that does not close within --max-word ends in exit 3 and no file."""
        assert run(["generate", "enneper", "--k", "3", "--size", "5", "--orbit",
                    "--max-word", "2", "--out", str(tmp_path / "x")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "OrbitExplosion"
        assert not list(tmp_path.iterdir())

    def test_loose_tol_passes_and_closes(self, tmp_path, capsys):
        """At --tol 1e-3 the far lines of the side-12 Enneper piece stay
        non-planar, so the battery passes, the orbit closes at 8 elements and
        reflecting across the far row is refused."""
        base = str(tmp_path / "loose")
        assert run(["generate", "enneper", "--k", "3", "--size", "12", "--tol", "1e-3",
                    "--orbit", "--out", base]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["orbit"]["elements"] == 8
        assert report["checks"]["boundary_row_12"]["isothermic_kind"] == "none"
        assert run(["reflect", f"{base}.iso.dnet.json", "--row", "12", "--tol", "1e-3",
                    "--out", str(tmp_path / "x.dnet.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NotReflectable"

    def test_octahedral_orbit_closes_at_loose_tol(self, tmp_path, capsys):
        """The far column's fit of F and F + N reads 2.8e-3 of its size; its
        normals' tilt out of the fitted plane reads O(1).  No tolerance
        decides which products are one element, so the orbit file is the
        one written at the default --tol."""
        loose, default = tmp_path / "loose", tmp_path / "default"
        assert run(["generate", "platonic", "--preset", "octahedral", "--tol", "1e-3",
                    "--orbit", "--out", str(loose)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["orbit"]["elements"] == 48
        far = report["checks"]["boundary_col_8"]
        assert far["isothermic_kind"] == "none" and far["max_residual"] > 0.5 * far["scale"]
        assert run(["generate", "platonic", "--preset", "octahedral", "--orbit",
                    "--out", str(default)]) == 0
        assert (tmp_path / "loose.orbit.json").read_bytes() == \
            (tmp_path / "default.orbit.json").read_bytes()

    def test_usage_error(self, capsys):
        assert run(["generate"]) == 2

    def test_bad_k_is_numeric_error(self, tmp_path):
        code = run(["generate", "enneper", "--k", "0", "--size", "5",
                    "--out", str(tmp_path / "x")])
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert run(["generate", "enneper", "--k", "2", "--size", "5",
                        "--out", out]) == 0
        for suffix in ("iso", "asym", "gauss", "grid"):
            b1 = open(f"{out1}.{suffix}.dnet.json", "rb").read()
            b2 = open(f"{out2}.{suffix}.dnet.json", "rb").read()
            assert b1 == b2

    @pytest.mark.parametrize("family, seed", BAD_INPUT, ids=_short_id)
    def test_bad_input_is_typed_error(self, tmp_path, capsys, family, seed):
        path = tmp_path / "seed.json"
        if seed in ("piece", ZERO_NORMAL):
            assert run(["generate", "enneper", "--k", "3", "--size", "4", "--orbit",
                        "--out", str(tmp_path / "enn")]) == 0
            suffix = {"export": "orbit.json", "conjugate": "grid.dnet.json"}
            path = tmp_path / f"enn.{suffix.get(family[0], 'iso.dnet.json')}"
            if seed == ZERO_NORMAL:
                doc = json.loads(path.read_text())
                doc["normals"][0] = [0, 0, 0]
                path.write_text(json.dumps(doc))
        elif isinstance(seed, bytes):
            path.write_bytes(seed)
        elif seed is not None:
            path.write_text(seed)
        missing = str(tmp_path / "no_such_dir" / "x")
        paths = {MISSING: missing, READ: str(path)}
        collides = READ in family or any(arg.startswith(TMP) for arg in family)
        before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
        family = [str(tmp_path / arg[len(TMP):]) if arg.startswith(TMP)
                  else paths.get(arg, arg) for arg in family]
        if family[0] == "export":
            argv = ["export", str(path), *(family[1:] or [str(tmp_path / "x.obj")])]
        elif family[0] == "verify":
            argv = ["verify", str(path), *family[1:]]
        elif family[0] in ("conjugate", "reflect", "orbit"):
            # a later --out overrides this one
            argv = [family[0], str(path), "--out", str(tmp_path / "x.json"), *family[1:]]
        else:
            argv = ["generate", family[0], "--out", str(tmp_path / "x"), *family[1:]]
            if family[0] == "knoid":
                argv += ["--seed-file", str(path)]
        assert run(argv) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        if missing in argv:
            assert error["error"] == "BadParameter" and missing in error["message"], error
        elif collides:
            assert error["error"] == "BadParameter" and "same file" in error["message"], error
            assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before
        elif seed == ZERO_SEED:
            assert error["error"] == "ZeroDg" and "edge (0, 0)-(1, 0)" in error["message"]
        elif seed == ZERO_NORMAL:
            assert error["error"] == "InconsistentBundle" and "vertex (0, 0)" in error["message"]
            assert not (tmp_path / "x.json").exists()
        elif "--max-word" in family:
            assert error["error"] == "BadParameter" and "--max-word" in error["message"], error
            assert not list(tmp_path.glob("x*"))
        elif "1000000000" in family:
            expected = "BadParameter" if "enneper" in family[0] else "InfeasibleSpec"
            assert error["error"] == expected, error
            assert not list(tmp_path.glob("x*"))
        elif seed in (NOT_UTF8, TOO_DEEP, TOO_LONG):
            assert error["error"] == "ParseError" and str(path) in error["message"], error
        else:
            assert error["error"] in ("BadParameter", "ParseError")

    def test_output_over_a_companion_input_is_refused(self, tmp_path, capsys):
        """verify's --grid and --conjugate are inputs too, and a path is
        compared by the file it names, through a symbolic link, a hard link
        and a detour through a sibling directory."""
        base = tmp_path / "enn"
        assert run(["generate", "enneper", "--k", "3", "--size", "4", "--out", str(base)]) == 0
        (tmp_path / "link.json").symlink_to(tmp_path / "enn.grid.dnet.json")
        os.link(tmp_path / "enn.grid.dnet.json", tmp_path / "hard.json")
        (tmp_path / "sub").mkdir()
        before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
        verify = ["verify", f"{base}.iso.dnet.json", "--grid", f"{base}.grid.dnet.json",
                  "--conjugate", f"{base}.asym.dnet.json", "--report"]
        for report in (tmp_path / "link.json", tmp_path / "hard.json",
                       tmp_path / "sub" / ".." / "enn.asym.dnet.json"):
            capsys.readouterr()
            assert run(verify + [str(report)]) == 3, report
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "BadParameter" and "same file" in error["message"], report
        assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before

    # Each a traceback before the magnitude bound: eigh of an overflowed scatter
    # matrix ("Eigenvalues did not converge"), a boundary plane of None, and a
    # conjugate net that overflows to a non-finite position.
    @pytest.mark.parametrize("command, suffix, field, value", [
        (["verify"], "iso", ("normals", 3, 2), 1e308),
        (["orbit", "--out", "<out>"], "iso", ("vertices", 3, "p", 0), 1e305),
        (["conjugate", "--out", "<out>"], "grid", ("alpha", 2), 1e308),
    ])
    def test_value_past_the_magnitude_bound_is_parse_error(self, tmp_path, capsys, command,
                                                            suffix, field, value):
        base = tmp_path / "enn"
        assert run(["generate", "enneper", "--k", "3", "--size", "6", "--out", str(base),
                    "--report", str(tmp_path / "report.json")]) == 0
        doc = json.loads((tmp_path / f"enn.{suffix}.dnet.json").read_text())
        *keys, last = field
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        bad, out = tmp_path / "bad.dnet.json", tmp_path / "out.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command[0], str(bad)] + [str(out) if arg == "<out>" else arg
                                             for arg in command[1:]]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ParseError", error
        assert "exceeds the magnitude bound 1e+50" in error["message"], error
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "enneper", "--k", "3", "--size", "4", "--orbit", "--out", MISSING],
        ["generate", "enneper", "--k", "3", "--size", "4", "--orbit", "--out", "<out>",
         "--report", MISSING],
        ["verify", "<absent>", "--report", MISSING],
        ["orbit", "<piece>", "--out", "<out>", "--obj", MISSING],
    ])
    def test_missing_output_directory_fails_before_any_work(self, tmp_path, capsys, argv):
        """No file is written and no input is read: the absent net of verify
        would be a ParseError.  orbit reads a generated piece."""
        missing = str(tmp_path / "no_such_dir" / "x")
        paths = {MISSING: missing, "<out>": str(tmp_path / "e"),
                 "<absent>": str(tmp_path / "absent.dnet.json"),
                 "<piece>": str(tmp_path / "enn.iso.dnet.json")}
        if "<piece>" in argv:
            assert run(["generate", "enneper", "--k", "3", "--size", "4",
                        "--out", str(tmp_path / "enn")]) == 0
            capsys.readouterr()
        inputs = sorted(tmp_path.iterdir())
        assert run([paths.get(arg, arg) for arg in argv]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "BadParameter" and missing in error["message"], error
        assert sorted(tmp_path.iterdir()) == inputs

    def test_zero_tol_is_valid(self, tmp_path):
        path = tmp_path / "flat.dnet.json"
        path.write_text(NET_3D)
        assert run(["verify", str(path), "--tol", "0"]) == 0

    def test_knoid_params_seed_file_needs_no_iterations(self, tmp_path):
        from minnet.bvp import BoundarySpec, solve_knoid
        result = solve_knoid(BoundarySpec(3, 3, 10))
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"params": result.params.tolist()}))
        report = str(tmp_path / "report.json")
        assert run(["generate", "knoid", "--k", "3", "--nmax", "3", "--mmax", "10",
                    "--seed-file", str(seed), "--out", str(tmp_path / "k"),
                    "--report", report]) == 0
        solver = json.loads(open(report).read())["info"]["solver"]
        assert solver["iterations"] == 0
        assert solver["trace"] == []

    @pytest.mark.parametrize("k", [6, 8])
    def test_knoid_passes_the_battery_at_default_settings(self, k, tmp_path):
        """Solved only until cr_max <= --solver-tol, these nets failed
        isothermic at --tol; solved to the rounding floor they pass."""
        report = str(tmp_path / "report.json")
        assert run(["generate", "knoid", "--k", str(k), "--nmax", "12", "--mmax", "36",
                    "--out", str(tmp_path / "k"), "--report", report]) == 0
        assert json.loads(open(report).read())["ok"]

    def test_solver_trace_in_report_only(self, tmp_path):
        base = str(tmp_path / "k")
        report = str(tmp_path / "report.json")
        assert run(["generate", "knoid", "--k", "3", "--nmax", "2", "--mmax", "6",
                    "--out", base, "--report", report]) == 0
        solver = json.loads(open(report).read())["info"]["solver"]
        trace = solver["trace"]
        assert len(trace) == solver["iterations"] > 0
        assert all(set(e) == {"cost", "lambda", "cr_max", "accepted"} for e in trace)
        assert all(e["accepted"] for e in trace)
        assert trace[-1]["cr_max"] <= 1e-10 < trace[0]["cr_max"]
        for suffix in ("iso", "asym", "gauss", "grid"):
            assert "trace" not in open(f"{base}.{suffix}.dnet.json").read()

    def test_threads_env_validation(self, tmp_path):
        code = run(["generate", "enneper", "--k", "2", "--size", "5",
                    "--out", str(tmp_path / "x")], env={"MINNET_THREADS": "zero"})
        assert code == 3
        code = run(["generate", "enneper", "--k", "2", "--size", "5",
                    "--out", str(tmp_path / "y")], env={"MINNET_THREADS": "4"})
        assert code == 0


class TestVerify:
    def test_generated_net_passes(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        assert run(["verify", f"{base}.iso.dnet.json",
                    "--grid", f"{base}.grid.dnet.json",
                    "--conjugate", f"{base}.asym.dnet.json",
                    "--report", str(tmp_path / "v.json")]) == 0

    def test_corrupted_vertex_fails(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        path = f"{base}.iso.dnet.json"
        doc = json.loads(open(path).read())
        doc["vertices"][7]["p"][2] += 0.05
        open(path, "w").write(json.dumps(doc))
        report = str(tmp_path / "v.json")
        assert run(["verify", path, "--report", report]) == 1
        rep = json.loads(open(report).read())
        failed = [k for k, v in rep["checks"].items() if not v["ok"]]
        assert failed
        assert any(v.get("worst") for k, v in rep["checks"].items()
                   if not v["ok"])
        for name in failed:
            assert rep["checks"][name]["worst"] is not None, name
            assert isinstance(rep["checks"][name]["scale"], float), name

    @pytest.mark.parametrize("family", [["enneper", "--k", "3"], ["planar-enneper"]])
    def test_verify_runs_the_generate_battery(self, tmp_path, family):
        base = str(tmp_path / "net")
        generated, verified = str(tmp_path / "g.json"), str(tmp_path / "v.json")
        assert run(["generate", *family, "--size", "6", "--out", base,
                    "--report", generated]) == 0
        assert run(["verify", f"{base}.iso.dnet.json", "--grid", f"{base}.grid.dnet.json",
                    "--conjugate", f"{base}.asym.dnet.json", "--report", verified]) == 0
        gen, ver = (json.loads(open(p).read())["checks"] for p in (generated, verified))
        assert list(ver) == list(gen)
        for name, entry in gen.items():
            assert ver[name]["ok"] == entry["ok"], name
            assert ver[name]["max_residual"] == pytest.approx(entry["max_residual"],
                                                               rel=1e-12, abs=1e-15), name
            for key in ("ok", "max_residual", "scale", "worst"):
                assert key in entry, (name, key)
            assert entry["worst"] is not None or entry["max_residual"] == 0, name

    def test_readme_check_table_names_the_report_keys(self, tmp_path, capsys):
        """The README's check table lists the report's checks, in report
        order, for generate and for verify with --grid and --conjugate."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        table = readme.split("| check | residual | scale | worst |\n|---|---|---|---|\n")[1]
        rows = table.split("\n\n")[0].splitlines()
        names = [row.split("`")[1].replace("\\|", "|") for row in rows]
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5", "--out", base]) == 0
        generated = json.loads(capsys.readouterr().out)["checks"]
        assert run(["verify", f"{base}.iso.dnet.json", "--grid", f"{base}.grid.dnet.json",
                    "--conjugate", f"{base}.asym.dnet.json"]) == 0
        verified = json.loads(capsys.readouterr().out)["checks"]
        for checks in (generated, verified):
            keys = [re.sub(r"^boundary_(row|col)_\d+$", "boundary_<row|col>_<index>", k)
                    for k in checks]
            assert list(dict.fromkeys(keys)) == names

    def test_asymptotic_as_isothermic_fails_circularity(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        report = str(tmp_path / "v.json")
        assert run(["verify", f"{base}.asym.dnet.json", "--as-isothermic",
                    "--report", report]) == 1
        rep = json.loads(open(report).read())
        assert not rep["checks"]["circularity"]["ok"]

    def test_asymptotic_net_passes_as_itself(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        assert run(["verify", f"{base}.asym.dnet.json"]) == 0

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["verify", str(bad)]) == 3

    @pytest.mark.parametrize("family", [
        ["enneper", "--k", "3", "--size", "4", "--orbit"],
        ["planar-enneper", "--size", "4"],
        ["knoid", "--k", "3", "--nmax", "2", "--mmax", "6"],
        ["platonic", "--preset", "tetrahedral", "--resolution", "2", "--orbit"],
    ])
    def test_reports_are_plain_json(self, tmp_path, capsys, family):
        """Reports hold only Python values, so json.dumps writes them with
        no default: those of generate (solver and orbit entries included),
        of verify_pair at a failing tolerance, and of verify with companions,
        alone and at a failing tolerance."""
        base = str(tmp_path / "x")
        iso, asym, grid = (f"{base}.{s}.dnet.json" for s in ("iso", "asym", "grid"))
        assert run(["generate", *family, "--out", base]) == 0
        reports = [json.loads(capsys.readouterr().out)]
        assert ("orbit" in reports[0]) == ("--orbit" in family)
        reports.append(verify_pair(MinimalPair.from_grid(read_grid(grid)), 1e-300))
        for argv, code in (([iso, "--grid", grid, "--conjugate", asym], 0), ([asym], 0),
                           ([iso, "--conjugate", asym, "--tol", "1e-300"], 1)):
            assert run(["verify", *argv]) == code
            reports.append(json.loads(capsys.readouterr().out))
        for report in reports:
            json.dumps(report)          # TypeError on a numpy value
        assert not reports[1]["ok"] and not reports[-1]["ok"]


class TestExport:
    def test_two_by_two_net(self, tmp_path):
        dom = LatticeDomain((0, 1), (0, 1))
        net = Net3(dom, [[m, n, 0.0] for m, n in dom.vertices])
        src = tmp_path / "n.dnet.json"
        dst = tmp_path / "n.obj"
        write_net(src, net)
        assert run(["export", str(src), str(dst)]) == 0
        lines = dst.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 1

    def test_masked_domain_has_no_masked_faces(self, tmp_path):
        pair = MinimalPair.from_grid(power_function(3.0, 4, 4))
        src = tmp_path / "m.dnet.json"
        dst = tmp_path / "m.obj"
        write_net(src, pair.isothermic)
        assert run(["export", str(src), str(dst)]) == 0
        lines = dst.read_text().splitlines()
        n_verts = sum(1 for l in lines if l.startswith("v "))
        n_faces = sum(1 for l in lines if l.startswith("f "))
        assert n_verts == len(pair.isothermic.domain.vertices)
        assert n_faces == len(pair.isothermic.domain.quads)
        for line in lines:
            if line.startswith("f "):
                idx = [int(t) for t in line.split()[1:]]
                assert all(1 <= i <= n_verts for i in idx)

    def test_orbit_weld_count(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--orbit", "--out", base]) == 0
        doc = json.loads(open(f"{base}.orbit.json").read())
        piece_verts = 6 * 6
        assert len(doc["vertices"]) < 8 * piece_verts
        dst = tmp_path / "orb.obj"
        assert run(["export", f"{base}.orbit.json", str(dst)]) == 0
        n_verts = sum(1 for l in dst.read_text().splitlines()
                      if l.startswith("v "))
        assert n_verts == len(doc["vertices"])


    @pytest.mark.parametrize("field, value, message", [
        ("vertex", float("nan"), "vertex 3 is [nan, 0.0, 0.0]"),
        ("face", 10 ** 6, "face 2 [1000000,"),
        ("face", -5, "face 2 [-5,"),       # OBJ would read f -4 as a relative index
        ("face", 0.5, "0.5 is not an integer"),     # int() would truncate these
        ("face", 1.9, "1.9 is not an integer"),
        ("face", True, "True is not an integer"),
        ("quad", [], "face 2 [] is not a quad"),      # OBJ would read "f " and "f 1 2"
        ("quad", [0, 1], "face 2 [0, 1] is not a quad"),
        ("vertex", True, "True is not a number"),     # numpy would read these
        ("vertex", "1.5", "'1.5' is not a number"),
    ])
    def test_export_rejects_bad_orbit_records(self, tmp_path, capsys, field, value, message):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "3",
                    "--orbit", "--out", base]) == 0
        doc = json.loads(open(f"{base}.orbit.json").read())
        if field == "vertex":
            doc["vertices"][3] = [value, 0.0, 0.0]
        elif field == "quad":
            doc["faces"][2] = value
        else:
            doc["faces"][2][0] = value
        bad, dst = tmp_path / "bad.orbit.json", tmp_path / "bad.obj"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["export", str(bad), str(dst)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ParseError" and message in error["message"]
        assert not dst.exists()


    @pytest.mark.parametrize("seed", BAD_NET_FILES + [
        # a masked domain whose column m = 1 cuts it in two
        json.dumps({"domain": {"m0": 0, "m1": 2, "n0": 0, "n1": 1, "mask": [[1, 0], [1, 1]]},
                    "vertices": [{"m": m, "n": n, "p": [m, n, 0]} for m in (0, 2)
                                 for n in (0, 1)]}),
        net_3d(p0=[1, 0, 0]),                                 # on its neighbour (1, 0)
        # a box of 2e12 points that 4 records cannot fill: its first missing
        # vertex is named without building the box
        net_3d(domain={"m1": 10 ** 6, "n1": 2 * 10 ** 6}),
        # a record past the domain whose index numpy's integers cannot hold
        json.dumps({**json.loads(NET_3D), "vertices": json.loads(NET_3D)["vertices"]
                    + [{"m": 2 ** 70, "n": 0, "p": [0, 0, 0]}]}),
        net_3d(p0=[1e305, 0, 0]),                             # past the magnitude bound
        net_3d(normals=[[0, 0, 1]] * 3 + [[0, 0, 1e308]]),
        net_3d(alpha=[1e308], beta=[-1.0]),
    ])
    def test_export_rejects_what_verify_rejects(self, tmp_path, capsys, seed):
        """Both read the file through dnet.read_doc: the same exit code and
        the same message, and export writes nothing."""
        path, dst = tmp_path / "bad.dnet.json", tmp_path / "bad.obj"
        path.write_text(seed)
        errors = []
        for argv in (["export", str(path), str(dst)], ["verify", str(path)]):
            capsys.readouterr()
            assert run(argv) == 3
            errors.append(json.loads(capsys.readouterr().err))
        assert errors[0] == errors[1] and errors[0]["error"] == "ParseError", errors
        assert not dst.exists()

    @pytest.mark.parametrize("family, suffix", [
        (["enneper", "--k", "3", "--size", "5"], "iso"),
        (["enneper", "--k", "3", "--size", "5"], "grid"),
        (["planar-enneper", "--size", "5"], "iso"),        # the origin (0, 0) is masked
    ])
    def test_net_obj_equals_array_oracle(self, tmp_path, family, suffix):
        """The OBJ lists the positions of Net3.points and the faces of
        domain.quad_index, 1-based, each number with 17 significant digits."""
        base = tmp_path / "piece"
        assert run(["generate", *family, "--out", str(base),
                    "--report", str(tmp_path / "report.json")]) == 0
        src, dst = tmp_path / f"piece.{suffix}.dnet.json", tmp_path / "piece.obj"
        assert run(["export", str(src), str(dst)]) == 0
        net = read_net(src).net
        oracle = ([f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in net.points.tolist()]
                  + ["f " + " ".join(str(i + 1) for i in quad)
                     for quad in net.domain.quad_index.tolist()])
        assert dst.read_text().splitlines() == oracle


class TestReflectAndConjugate:
    def test_reflect_roundtrip(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = str(tmp_path / "refl.dnet.json")
        assert run(["reflect", f"{base}.iso.dnet.json", "--row", "0",
                    "--out", out]) == 0
        assert run(["verify", out]) == 0

    def test_reflect_asymptotic(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = str(tmp_path / "rot.dnet.json")
        assert run(["reflect", f"{base}.asym.dnet.json", "--row", "0",
                    "--asymptotic", "--out", out]) == 0
        assert run(["verify", out]) == 0

    @pytest.mark.parametrize("net, line, message", [
        ("iso", ["--row", "99"], "row 99 is not a boundary row"),       # off the domain
        ("iso", ["--col", "6"], "col 6 is not a boundary col"),
        ("iso", ["--col", "5"], "col 5: congruence-plane residual"),    # not planar
        ("asym", ["--row", "2", "--asymptotic"], "row 2 is not a boundary row"),
        ("asym", ["--col", "30", "--asymptotic"], "col 30 is not a boundary col"),
    ])
    def test_line_not_reflectable(self, tmp_path, capsys, net, line, message):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        capsys.readouterr()
        assert run(["reflect", f"{base}.{net}.dnet.json", *line,
                    "--out", str(tmp_path / "x.dnet.json")]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "NotReflectable"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("line", [["--row", "0", "--col", "99"], []])
    def test_reflect_needs_exactly_one_line(self, tmp_path, capsys, line):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = tmp_path / "x.dnet.json"
        assert run(["reflect", f"{base}.iso.dnet.json", *line, "--out", str(out)]) == 2
        assert "--row" in capsys.readouterr().err and not out.exists()

    def test_conjugate_matches_generated(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = str(tmp_path / "conj.dnet.json")
        assert run(["conjugate", f"{base}.grid.dnet.json", "--out", out]) == 0
        conj = read_net(out).net
        asym = read_net(f"{base}.asym.dnet.json").net
        worst = max(np.linalg.norm(conj[v] - asym[v])
                    for v in conj.domain.vertices)
        assert worst < 1e-12

    def test_orbit_command(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = str(tmp_path / "orbit.json")
        obj = str(tmp_path / "orbit.obj")
        assert run(["orbit", f"{base}.iso.dnet.json", "--out", out,
                    "--obj", obj]) == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "orbit"
        assert len(doc["elements"]) == 8

    def test_orbit_command_matches_generate(self, tmp_path):
        # the octahedral group's closure residual is above 1e-9
        base = str(tmp_path / "oct")
        assert run(["generate", "platonic", "--preset", "octahedral", "--resolution", "3",
                    "--orbit", "--out", base, "--report", str(tmp_path / "r.json")]) == 0
        out = tmp_path / "group.json"
        assert run(["orbit", f"{base}.iso.dnet.json", "--out", str(out)]) == 0
        assert out.read_bytes() == open(f"{base}.orbit.json", "rb").read()


# Runs each command in one fresh interpreter and checks that numpy.ma, which
# pytest or scipy may already have loaded in this process, stays unloaded.
NO_MASKED_ARRAYS = """
import sys
from minnet.cli import main
for argv in (
        ["generate", "enneper", "--k", "3", "--size", "6", "--out", "e"],
        ["verify", "e.iso.dnet.json", "--grid", "e.grid.dnet.json",
         "--conjugate", "e.asym.dnet.json"],
        ["reflect", "e.asym.dnet.json", "--row", "0", "--asymptotic", "--out", "r.dnet.json"]):
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def fresh_env():
    """The environment of a fresh interpreter that imports this minnet."""
    path = os.path.dirname(os.path.dirname(minnet.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [path, os.environ.get("PYTHONPATH")])))


def run_python(code, cwd):
    """Run code in a fresh interpreter that imports this minnet."""
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=fresh_env(),
                          capture_output=True, text=True)


class TestNoMaskedArrays:
    def test_commands_do_not_import_numpy_ma(self, tmp_path):
        done = run_python(NO_MASKED_ARRAYS, tmp_path)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("mask", [None, "origin"])
    def test_vertex_star_groups(self, mask):
        if mask is None:   # one row: stars of 2 and 3 points
            dom = LatticeDomain((0, 5), (0, 0))
        else:              # stars of 3, 4 and 5 points around the hole
            dom = LatticeDomain((-2, 2), (-2, 2), frozenset({(0, 0), (2, 2)}))
        points = np.random.default_rng(3).normal(size=(len(dom.vertices), 3))
        net = Net3(dom, points)
        every = np.arange(len(dom.vertices))
        for vertices in (every, np.random.default_rng(4).permutation(every)[:7]):
            stars = dom.stars[vertices]
            size = np.count_nonzero(stars >= 0, axis=1)
            expected = [(np.flatnonzero(size == k), k) for k in np.unique(size)]
            groups = _vertex_stars(net, vertices)
            assert [(rows.tolist(), pts.shape[1]) for rows, pts in groups] == \
                [(rows.tolist(), k) for rows, k in expected]
            for rows, pts in groups:
                want = points[stars[rows][stars[rows] >= 0]].reshape(len(rows), -1, 3)
                assert pts.tobytes() == want.tobytes()


def test_import_generates_no_dataclasses(tmp_path):
    # every command pays its imports; @dataclass builds methods through exec.
    # Importing bvp and reflection runs every layer.
    done = run_python("import sys, minnet.cli, minnet.bvp, minnet.reflection, minnet.coxeter\n"
                      "assert 'dataclasses' not in sys.modules", tmp_path)
    assert done.returncode == 0, done.stderr


# Commands in turn in one fresh interpreter, each followed by its exit code,
# the layers that have run so far and whether numpy is loaded.  A layer that
# has not run is still a lazy module; its type tells it apart, where reading
# one of its attributes would run it.
LAYERS_RUN = """
import json, sys, types
import minnet.cli

def ran():
    return sorted(name[len("minnet."):] for name, module in sys.modules.items()
                  if name.startswith("minnet.") and type(module) is types.ModuleType)

steps = [sorted(name for name in sys.modules if name.startswith("minnet.")),
         [0, ran(), "numpy" in sys.modules]]
for argv in COMMANDS:
    steps.append([minnet.cli.main(argv), ran(), "numpy" in sys.modules])
with open("steps.json", "w") as fh:
    json.dump(steps, fh)
"""

# The names minnet re-exports, each from its layer.
PUBLIC_API = {
    "boundary": "BoundaryAnalysis analyze_boundary_asymptotic analyze_boundary_isothermic",
    "bvp": "BoundarySpec PlatonicPreset SolveResult platonic_preset solve_knoid solve_platonic",
    "errors": "MinnetError",
    "holomorphic": "INF HoloGrid power_function propagate_fourth read_grid validate_holomorphic "
                   "write_grid",
    "lattice": "EdgeLabels LatticeDomain Net3",
    "minimal": "MinimalPair QuadCurvature gauss_map is_asymptotic mixed_area "
               "propagate_normals quad_curvatures tangent_normals "
               "weierstrass_asymptotic weierstrass_isothermic",
    "mobius": "CrossRatioValue Isometry LineR3 PlaneR3 Quaternion cross_ratio_complex "
              "cross_ratio_quat fit_line fit_plane stereographic_lift",
    "net": "NetBundle are_parallel_meshes is_circular is_isothermic read_net write_net",
    "reflection": "SymmetryOrbit build_orbit close_group corner_angles reflect_isothermic "
                  "rotate_extend_asymptotic",
}


class TestLazyLayers:
    def test_commands_run_only_their_layers(self, tmp_path):
        """Each chain runs in one fresh interpreter, which lists the layers
        that have run after each command.  Along a chain every command needs
        the layers of the commands before it, so each list is what its own
        command runs.  generate without --orbit and verify read the boundary
        lines but run neither the extensions nor the orbit groups; reflect
        runs the extensions but not the Coxeter groups, and orbit runs all
        three; conjugate, which needs no boundary, gets a chain of its own.
        numpy stays unloaded until a command computes with arrays: import,
        --help, a usage error and export of an orbit file only read and
        write text, export of a net file reads it through the numpy-free
        dnet, and export checks its output directory first."""
        assert run(["generate", "enneper", "--k", "3", "--size", "5", "--orbit",
                    "--out", str(tmp_path / "enn")]) == 0
        chains = [
            [["export", "enn.orbit.json", "b.obj"],
             ["export", "enn.iso.dnet.json", "a.obj"],
             ["verify", "enn.iso.dnet.json", "--grid", "enn.grid.dnet.json",
              "--conjugate", "enn.asym.dnet.json", "--report", "v.json"],
             ["generate", "enneper", "--k", "3", "--size", "5", "--out", "e", "--report",
              "e.json"],
             ["generate", "knoid", "--k", "3", "--nmax", "2", "--mmax", "6", "--out", "k",
              "--report", "k.json"]],
            [["--help"],
             ["generate", "enneper"],                   # usage error: --k is required
             ["export", "enn.iso.dnet.json", "no_such_dir/a.obj"],
             ["conjugate", "enn.grid.dnet.json", "--out", "c.dnet.json"]],
            [["reflect", "enn.asym.dnet.json", "--row", "0", "--asymptotic", "--out",
              "ra.dnet.json"],
             ["reflect", "enn.iso.dnet.json", "--row", "0", "--out", "r.dnet.json"]],
            [["orbit", "enn.iso.dnet.json", "--out", "o.json"]],
        ]
        steps = []
        for commands in chains:
            done = run_python(f"COMMANDS = {commands!r}\n{LAYERS_RUN}", tmp_path)
            assert done.returncode == 0, done.stderr
            steps.append(json.loads((tmp_path / "steps.json").read_text()))
        every = ["battery", "boundary", "bvp", "cli", "commands", "coxeter", "dnet", "errors",
                 "holomorphic", "jsonio", "lattice", "minimal", "mobius", "net", "reflection"]
        front = ["cli", "errors", "jsonio"]
        reader = sorted(front + ["dnet"])
        net = sorted(reader + ["commands", "lattice", "mobius", "net"])
        battery = sorted(net + ["battery", "boundary", "holomorphic", "minimal"])
        reflect = sorted(net + ["boundary", "reflection"])
        loaded = [[f"minnet.{name}" for name in every],  # import minnet.cli
                  [0, front, False]]                     # what import minnet.cli runs
        assert steps[0] == loaded + [
            [0, front, False],                        # export of an orbit
            [0, reader, False],                       # export of a net
            [0, battery, True], [0, battery, True],   # verify, generate enneper
            [0, sorted(battery + ["bvp"]), True],     # generate knoid
        ]
        assert steps[1] == loaded + [
            [0, front, False],                                     # --help
            [2, front, False],                                     # usage error
            [3, front, False],                     # export of a net to a missing directory
            [0, sorted(net + ["holomorphic", "minimal"]), True],  # conjugate
        ]
        # reflect --asymptotic fits the line only; reflect checks its mirrored
        # normals by minimal.propagate_normals
        assert steps[2] == loaded + [[0, reflect, True],
                                     [0, sorted(reflect + ["minimal"]), True]]
        assert steps[3] == loaded + [[0, sorted(reflect + ["coxeter"]), True]]   # orbit

    def test_public_names_are_the_layers_objects(self):
        for layer, names in PUBLIC_API.items():
            module = sys.modules[f"minnet.{layer}"]
            for name in names.split():
                assert getattr(minnet, name) is getattr(module, name), name
        with pytest.raises(AttributeError, match="no_such_name"):
            minnet.no_such_name
        with pytest.raises(ImportError):
            from minnet import no_such_name  # noqa: F401

    def test_cli_reads_power_function_from_its_layer(self):
        import minnet.cli
        assert minnet.cli.power_function is minnet.holomorphic.power_function
        with pytest.raises(AttributeError, match="no_such_name"):
            minnet.cli.no_such_name

    def test_preset_choices_are_the_presets(self, capsys):
        from minnet import bvp
        assert run(["generate", "platonic", "--preset", "cubic"]) == 2
        listed = ", ".join(repr(name) for name in sorted(bvp.PLATONIC_PRESETS))
        assert f"(choose from {listed})" in capsys.readouterr().err


COMMANDS = ("generate", "conjugate", "reflect", "orbit", "verify", "export")
FAMILIES = ("enneper", "planar-enneper", "knoid", "platonic")


def parser_options(parser) -> dict:
    """{command or generate family: the dests of its options} of a parser."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found[name] = [a.dest for a in child._actions
                               if not isinstance(a, (argparse._HelpAction,
                                                     argparse._SubParsersAction))]
                found.update(parser_options(child))
    return found


class TestParser:
    @pytest.mark.parametrize("argv", [["export", "a", "b"],
                                      ["reflect", "n", "--row", "0", "--out", "o"],
                                      ["generate", "knoid", "--k", "3"]], ids=" ".join)
    def test_only_the_named_command_has_options(self, argv):
        full = parser_options(full_parser())
        assert parser_options(build_parser(argv)) == {
            name: options if name in argv[:2] else [] for name, options in full.items()}

    # --help of the top level, of each command and of each family; the usage
    # error of each command and family without its required arguments
    # (planar-enneper has none); and commands that parse
    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in COMMANDS),
        *(["generate", family, "--help"] for family in FAMILIES),
        *([command] for command in COMMANDS), *(["generate", family] for family in FAMILIES),
        ["reflect", "n", "--row", "0", "--col", "0", "--out", "o"],
        ["generate", "platonic", "--preset", "octahedral", "--orbit", "--max-word", "11"],
        ["generate", "knoid", "--k", "3", "--nmax", "5", "--mmax", "15", "--seed-file", "s"],
        ["verify", "n", "--as-isothermic", "--grid", "g", "--conjugate", "c", "--report", "r"],
        ["orbit", "n", "--out", "o", "--obj", "b", "--tol", "0"],
        ["conjugate", "g", "--out", "o"], ["export", "a", "b"], ["export", "a", "b", "--tol", "1"],
        ["bogus"], ["generate", "bogus"],
    ], ids=" ".join)
    def test_parses_as_the_full_parser(self, argv, capsys):
        def parse(parser):
            try:
                parsed = (None, vars(parser.parse_args(argv)))
            except SystemExit as exc:
                parsed = (exc.code, None)
            return parsed, capsys.readouterr()

        assert parse(build_parser(argv)) == parse(full_parser())


# The collector is off while main runs, and main leaves it as it found it.
# The count is read before anything allocates: the first allocation after
# main re-enables the collector may start a collection.
NO_COLLECTIONS = """
import gc
from minnet.cli import main
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
assert main(["generate", "enneper", "--k", "3", "--size", "6", "--out", "e"]) == 0
collections, enabled = len(starts), gc.isenabled()
assert collections == 0 and enabled, (collections, enabled)
gc.disable()
assert main(["generate", "enneper", "--k", "3", "--size", "6", "--out", "f"]) == 0
assert not gc.isenabled()
"""


def test_main_runs_no_collections_and_restores_the_collector(tmp_path):
    done = run_python(NO_COLLECTIONS, tmp_path)
    assert done.returncode == 0, done.stderr


def test_module_run_flushes_and_keeps_exit_codes(tmp_path):
    """python -m minnet.cli ends in os._exit after flushing: a report on a
    block-buffered stdout (a file) is complete, and every exit code comes
    through."""
    assert run(["generate", "enneper", "--k", "3", "--size", "6",
                "--out", str(tmp_path / "e")]) == 0
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)       # which would hide a missing flush
    for argv, code in ((["verify", "e.iso.dnet.json"], 0),
                       (["verify", "e.iso.dnet.json", "--tol", "1e-300"], 1),
                       (["verify"], 2),
                       (["verify", "absent.dnet.json"], 3)):
        with open(tmp_path / "out.json", "w") as out:
            done = subprocess.run([sys.executable, "-m", "minnet.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=out, stderr=subprocess.PIPE,
                                  text=True)
        assert done.returncode == code, (argv, done.stderr)
        stdout = (tmp_path / "out.json").read_text()
        if code < 2:
            assert json.loads(stdout)["ok"] is (code == 0), argv
        else:
            assert stdout == "", argv
        if code == 3:
            assert json.loads(done.stderr)["error"] == "ParseError"


def test_module_run_runs_cli_once(tmp_path):
    """python -m minnet.cli runs cli.py as __main__; the commands layer's
    import of minnet.cli finds that module instead of running cli.py again."""
    assert run(["generate", "enneper", "--k", "3", "--size", "5",
                "--out", str(tmp_path / "e")]) == 0
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "minnet.cli", "verify",
                           "e.iso.dnet.json"], cwd=tmp_path, env=fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stderr.splitlines() if line.endswith("| minnet.cli")]


def test_module_run_ends_quietly_on_a_closed_pipe(tmp_path):
    """A report to a pipe whose reader has gone, as after `| head -c 1`,
    ends in exit 141 (128 + SIGPIPE), not the verification-failure 1, and
    without a traceback."""
    assert run(["generate", "enneper", "--k", "3", "--size", "6",
                "--out", str(tmp_path / "e")]) == 0
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "minnet.cli", "verify", "e.iso.dnet.json"],
                              cwd=tmp_path, env=fresh_env(), stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert done.returncode == 141, done.stderr
    assert "Traceback" not in done.stderr
