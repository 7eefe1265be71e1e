import json
import os
import subprocess
import sys

import numpy as np
import pytest

import minnet
from minnet.cli import main
from minnet.holomorphic import power_function
from minnet.minimal import MinimalPair, _vertex_stars
from minnet.net import LatticeDomain, Net3, write_net

# a 2x2 net file whose positions have 2 coordinates
NET_2D = json.dumps({"domain": {"m0": 0, "m1": 1, "n0": 0, "n1": 1},
                     "vertices": [{"m": m, "n": n, "p": [m, n]} for m in (0, 1) for n in (0, 1)]})


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

    @pytest.mark.parametrize("family, seed", [
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
    ])
    def test_bad_input_is_typed_error(self, tmp_path, capsys, family, seed):
        path = tmp_path / "seed.json"
        if seed is not None:
            path.write_text(seed)
        if family[0] == "export":
            argv = ["export", str(path), str(tmp_path / "x.obj")]
        elif family[0] == "verify":
            argv = ["verify", str(path)]
        else:
            argv = ["generate", *family, "--out", str(tmp_path / "x")]
            if family[0] == "knoid":
                argv += ["--seed-file", str(path)]
        assert run(argv) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] in ("BadParameter", "ParseError")

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

    def test_conjugate_matches_generated(self, tmp_path):
        base = str(tmp_path / "enn")
        assert run(["generate", "enneper", "--k", "3", "--size", "5",
                    "--out", base]) == 0
        out = str(tmp_path / "conj.dnet.json")
        assert run(["conjugate", f"{base}.grid.dnet.json", "--out", out]) == 0
        from minnet.net import read_net
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


def run_python(code, cwd):
    """Run code in a fresh interpreter that imports this minnet."""
    path = os.path.dirname(os.path.dirname(minnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [path, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
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
    # every command pays its imports; @dataclass builds methods through exec
    done = run_python("import sys, minnet.cli\n"
                      "assert 'dataclasses' not in sys.modules", tmp_path)
    assert done.returncode == 0, done.stderr
