"""Command-line frontend: generation pipelines, verification and export.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric/input failure.  MINNET_THREADS (an integer >= 1) caps minnet's
own workers; minnet runs in one thread.  It does not govern the threads
that numpy's BLAS library starts: OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
set those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property

import numpy as np

from . import bvp
from .errors import (BadParameter, DomainMismatch, MinnetError, NotReflectable,
                     ParseError)
from .holomorphic import HoloGrid, power_function, read_grid, write_grid
from .minimal import Curvatures, MinimalPair, gauss_map, is_asymptotic, tangent_normals
from .mobius import Isometry
from .net import (CheckReport, EdgeLabels, Net3, _fmt_float, _norm, circularity_residuals,
                  cross_ratio_residuals, edge_angles, json_list, json_rows, json_to_bundle,
                  load_json, read_net, worst_report, write_net)
from .reflection import (SymmetryOrbit, analyze_boundary_asymptotic,
                         analyze_boundary_isothermic, build_orbit,
                         reflect_isothermic, rotate_extend_asymptotic)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class PipelineConfig:
    """Parsed invocation: family parameters, tolerances and output paths."""

    def __init__(self, command: str, family: str | None = None, params: dict | None = None,
                 tol: float = 1e-9, out: str | None = None, report: str | None = None,
                 orbit: bool = False, max_word: int = 16, threads: int = 1):
        self.command, self.family = command, family
        self.params = {} if params is None else params
        self.tol, self.out, self.report = tol, out, report
        self.orbit, self.max_word, self.threads = orbit, max_word, threads


def _read_threads() -> int:
    raw = os.environ.get("MINNET_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise MinnetError(f"MINNET_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise MinnetError("MINNET_THREADS must be at least 1")
    return value


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

def steiner_offsets(count: int) -> np.ndarray:
    """The Steiner check's offsets t_k = cos(2 pi phi k), phi the golden
    ratio: spread over [-1, 1] like uniform draws, and fixed."""
    return np.cos(np.pi * (1.0 + 5.0 ** 0.5) * np.arange(count))


class _Nets:
    """Inputs of one battery run, its checks, and the arrays they share."""

    def __init__(self, tol: float, iso: Net3 | None = None, normals: Net3 | None = None,
                 labels: EdgeLabels | None = None, asym: Net3 | None = None,
                 grid: HoloGrid | None = None):
        self.tol, self.iso, self.normals, self.labels = tol, iso, normals, labels
        self.asym, self.grid = asym, grid

    @cached_property
    def quads(self) -> tuple:
        return self.iso.domain.quads

    @cached_property
    def curvature(self) -> Curvatures:
        """The mixed-area pass that minimality and steiner share."""
        return Curvatures(self.iso.quad_array(), self.normals.quad_array(), self.tol)

    def _undefined(self, undefined: np.ndarray) -> CheckReport | None:
        if undefined.any():
            return CheckReport(False, float("inf"), self.quads[int(np.argmax(undefined))],
                               extra={"error": "non-planar quad or vanishing area"})
        return None

    def circularity(self) -> CheckReport:
        pts = self.iso.quad_array()
        diagonal = np.maximum(_norm(np.ptp(pts, axis=1)), 1e-300)
        return worst_report(circularity_residuals(pts) / diagonal, self.quads, self.tol,
                            diagonal)

    def isothermic(self) -> CheckReport:
        return worst_report(cross_ratio_residuals(self.iso, self.labels), self.quads, self.tol)

    def minimality(self) -> CheckReport:
        return (self._undefined(self.curvature.undefined)
                or worst_report(np.abs(self.curvature.H), self.quads, self.tol))

    def gauss_parallel(self) -> CheckReport:
        return worst_report(edge_angles(self.iso, self.normals), self.iso.domain.edges(),
                            max(self.tol, 1e-9))

    def steiner(self) -> CheckReport:
        defects, undefined = self.curvature.steiner_defects(steiner_offsets(len(self.quads)))
        return self._undefined(undefined) or worst_report(defects, self.quads, self.tol,
                                                          np.abs(self.curvature.area))

    def gauss_matches_grid(self) -> CheckReport:
        lift = gauss_map(self.grid).points
        return worst_report(_norm(self.normals.points - lift), self.grid.domain.vertices,
                            self.tol)

    def asymptotic_stars(self) -> CheckReport:
        return is_asymptotic(self.asym, self.tol)

    def conjugate_normals(self) -> CheckReport:
        star, gauss = tangent_normals(self.asym), self.normals.points
        return worst_report(np.minimum(_norm(star - gauss), _norm(star + gauss)),
                            self.asym.domain.vertices, self.tol)

    def boundaries(self) -> dict:
        """Each boundary line is a planar curvature line of the isothermic net
        exactly when it is a straight asymptotic line of the conjugate net."""
        dom, checks = self.iso.domain, {}
        for axis, index in (("row", dom.n0), ("row", dom.n1),
                            ("col", dom.m0), ("col", dom.m1)):
            iso = analyze_boundary_isothermic(self.iso, self.normals, index, axis, self.tol)
            asym = analyze_boundary_asymptotic(self.asym, index, axis, self.tol)
            checks[f"boundary_{axis}_{index}"] = {
                "ok": ((iso.kind == "planar_curvature_line")
                       == (asym.kind == "straight_asymptotic_line")),
                "max_residual": iso.residuals["congruence_plane"], "scale": iso.scale,
                "worst": [axis, index], "isothermic_kind": iso.kind,
                "asymptotic_kind": asym.kind}
        return checks


# The battery in report order: each check with the inputs it needs.
CHECKS = (
    (_Nets.circularity, {"iso"}),
    (_Nets.isothermic, {"iso", "labels"}),
    (_Nets.minimality, {"iso", "normals"}),
    (_Nets.gauss_parallel, {"iso", "normals"}),
    (_Nets.steiner, {"iso", "normals"}),
    (_Nets.gauss_matches_grid, {"normals", "grid"}),
    (_Nets.asymptotic_stars, {"asym"}),
    (_Nets.conjugate_normals, {"asym", "normals"}),
    (_Nets.boundaries, {"iso", "normals", "asym"}),
)


def _entry(report: CheckReport) -> dict:
    entry = {"ok": bool(report.ok), "max_residual": float(report.max_residual),
             "scale": float(report.scale),
             "worst": list(report.worst) if report.worst is not None else None}
    if "error" in report.extra:
        entry["error"] = report.extra["error"]
    return entry


def _run_checks(nets: _Nets) -> dict:
    present = {name for name in ("iso", "normals", "labels", "asym", "grid")
               if getattr(nets, name) is not None}
    if len({getattr(nets, name).domain for name in present - {"labels"}}) > 1:
        raise DomainMismatch("the nets and the grid live on different domains")
    checks: dict[str, dict] = {}
    for check, needs in CHECKS:
        if needs <= present:
            found = check(nets)
            checks.update(found if isinstance(found, dict) else {check.__name__: _entry(found)})
    return {"ok": all(c["ok"] for c in checks.values()), "checks": checks}


def verify_pair(pair: MinimalPair, tol: float = 1e-9) -> dict:
    """All invariants of a generated isothermic/asymptotic/gauss triple."""
    return _run_checks(_Nets(tol, pair.isothermic, pair.gauss, pair.grid.labels,
                             pair.asymptotic, pair.grid))


def verify_net_file(path: str, tol: float, as_isothermic: bool = False,
                    conjugate: str | None = None, grid_path: str | None = None) -> dict:
    """The battery on a net file and its optional companions.

    The file is the isothermic net when it carries normals, when
    as_isothermic is set or when it is not asymptotic; otherwise it is the
    asymptotic net.  The conjugate file takes the other role.
    """
    iso = read_net(path)
    asym = read_net(conjugate) if conjugate is not None else None
    nets = _Nets(tol, grid=read_grid(grid_path) if grid_path is not None else None)
    if iso.normals is None and not as_isothermic and is_asymptotic(iso.net, tol).ok:
        iso, asym = asym, iso
    if iso is not None:
        nets.iso, nets.labels, nets.normals = iso.net, iso.labels, iso.normals
    if asym is not None:
        nets.asym = asym.net
    return _run_checks(nets)


# ---------------------------------------------------------------------------
# OBJ export
# ---------------------------------------------------------------------------

def _write_obj(path: str, vertices, faces) -> None:
    """Vertex positions and 0-based faces as OBJ (1-based indices)."""
    rows = faces.tolist() if isinstance(faces, np.ndarray) else faces
    with open(path, "w") as fh:
        fh.write("".join(["v %.17g %.17g %.17g\n" % tuple(p) for p in vertices.tolist()]))
        fh.write("".join(["f " + " ".join([str(i + 1) for i in f]) + "\n" for f in rows]))


def export_net_obj(net: Net3, path: str) -> None:
    """Quad OBJ with deterministic m-major vertex order."""
    _write_obj(path, net.points, net.domain.quad_index)


def export_orbit_obj(orbit: SymmetryOrbit, path: str) -> None:
    _write_obj(path, orbit.vertices, orbit.faces)


def orbit_to_json(orbit: SymmetryOrbit) -> str:
    """The .orbit.json document of an orbit, with 17-significant-digit floats."""
    elements = [f'{{"matrix": {json_list(json_rows(e.matrix))}, '
                f'"translation": {json_list(map(_fmt_float, e.translation.tolist()))}}}'
                for e in orbit.elements]
    return (f'{{"kind": "orbit", "vertices": {json_list(json_rows(orbit.vertices))}, '
            f'"faces": {json_list(json_rows(orbit.faces, str))}, '
            f'"elements": {json_list(elements)}, '
            f'"weld_residual": {_fmt_float(orbit.weld_residual)}}}')


def export_obj(path_in: str, path_out: str) -> None:
    """OBJ export of a net file or an orbit JSON file."""
    doc = load_json(path_in)
    if isinstance(doc, dict) and doc.get("kind") == "orbit":
        try:
            vertices = np.array(doc["vertices"], dtype=float)
            faces = [[int(i) for i in face] for face in doc["faces"]]
            if vertices.ndim != 2 or vertices.shape[1] != 3:
                raise ValueError("orbit vertices must have 3 coordinates")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad orbit record: {exc!r}") from exc
        _write_obj(path_out, vertices, faces)
    else:
        export_net_obj(json_to_bundle(doc).net, path_out)


# ---------------------------------------------------------------------------
# Generation pipelines
# ---------------------------------------------------------------------------

def _boundary_reflections(net: Net3, normals: Net3, tol: float) -> list[Isometry]:
    """Plane reflections of every reflectable boundary line of the piece."""
    dom = net.domain
    generators = []
    for axis, index in (("row", dom.n0), ("col", dom.m0), ("row", dom.n1),
                        ("col", dom.m1)):
        analysis = analyze_boundary_isothermic(net, normals, index, axis, tol)
        if analysis.kind == "planar_curvature_line":
            generators.append(Isometry.plane_reflection(analysis.plane))
    return generators


def _write_orbit(net: Net3, normals: Net3, tol: float, max_word: int, path: str,
                 obj_path: str | None) -> SymmetryOrbit:
    """Close the group of the piece's boundary reflections; write the orbit.

    A boundary line counts as planar at max(tol, 1e-7) of its size.  Group
    elements merge at max(tol, 1e-6): distinct elements of a finite group
    differ by O(1), while products of reflections carry roundoff that can
    exceed 1e-9.  Vertices weld at max(tol, 1e-9) of the piece's size:
    welding at 1e-6 merges distinct vertices of large pieces.
    """
    generators = _boundary_reflections(net, normals, max(tol, 1e-7))
    if not generators:
        raise NotReflectable("no reflectable boundary lines found")
    orbit = build_orbit(net, generators, max_word=max_word,
                        dedup_tol=max(tol, 1e-6), weld_tol=max(tol, 1e-9))
    with open(path, "w") as fh:
        fh.write(orbit_to_json(orbit) + "\n")
    if obj_path:
        export_orbit_obj(orbit, obj_path)
    return orbit


def _family_pair(config: PipelineConfig) -> tuple[MinimalPair, dict]:
    family = config.family
    info: dict = {"family": family}
    if family in ("enneper", "planar_enneper"):
        if family == "planar_enneper":
            gamma = 3.0
        elif config.params["k"] < 1:
            raise BadParameter("enneper requires k >= 1")
        else:
            gamma = 2.0 * config.params["k"] / (config.params["k"] + 1.0)
        try:
            grid = power_function(gamma, config.params["size"], config.params["size"])
        except ValueError as exc:
            raise BadParameter(f"--size {config.params['size']}: {exc}") from exc
        info["gamma"] = gamma
    elif family == "knoid":
        spec = bvp.BoundarySpec(config.params["k"], config.params["nmax"],
                                config.params["mmax"])
        seed = None
        if config.params.get("seed_file"):
            try:
                with open(config.params["seed_file"]) as fh:
                    seed = np.array(json.load(fh)["params"], dtype=float)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"seed file {config.params['seed_file']}: {exc!r}") from exc
        result = bvp.solve_knoid(spec, tol=config.params.get("solver_tol", 1e-10),
                                 max_iter=config.params.get("max_iter", 500),
                                 seed_params=seed, strict=True)
        grid = result.grid
        info["solver"] = _solver_info(result)
    elif family == "platonic":
        result = bvp.solve_platonic(config.params["preset"],
                                    config.params["resolution"],
                                    tol=config.params.get("solver_tol", 1e-10),
                                    max_iter=config.params.get("max_iter", 500),
                                    strict=True)
        grid = result.grid
        info["solver"] = _solver_info(result)
    else:
        raise MinnetError(f"unknown family {family!r}")
    return MinimalPair.from_grid(grid), info


def _solver_info(result: bvp.SolveResult) -> dict:
    """Report entry of a solve; the trace goes to the report only, never
    into a .dnet.json file."""
    return {"iterations": result.iterations,
            "residuals": {k: float(v) for k, v in result.residuals.items()},
            "trace": result.trace}


def _write_pair(base: str, pair: MinimalPair) -> list[str]:
    paths = []
    for suffix, writer in (
        ("iso", lambda p: write_net(p, pair.isothermic, pair.grid.labels, pair.gauss)),
        ("asym", lambda p: write_net(p, pair.asymptotic, pair.grid.labels)),
        ("gauss", lambda p: write_net(p, pair.gauss)),
        ("grid", lambda p: write_grid(p, pair.grid)),
    ):
        path = f"{base}.{suffix}.dnet.json"
        writer(path)
        paths.append(path)
    return paths


def cmd_generate(config: PipelineConfig) -> int:
    pair, info = _family_pair(config)
    base = config.out or config.family
    files = _write_pair(base, pair)

    report = verify_pair(pair, config.tol)
    report["info"] = info
    report["files"] = files

    if config.orbit:
        orbit_path, obj_path = f"{base}.orbit.json", f"{base}.orbit.obj"
        orbit = _write_orbit(pair.isothermic, pair.gauss, config.tol, config.max_word,
                             orbit_path, obj_path)
        files.extend([orbit_path, obj_path])
        report["orbit"] = {"elements": len(orbit.elements),
                           "vertices": int(len(orbit.vertices)),
                           "weld_residual": float(orbit.weld_residual),
                           "closure_residual": float(orbit.closure_residual())}

    _emit_report(report, config.report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_conjugate(args) -> int:
    from .minimal import weierstrass_asymptotic
    grid = read_grid(args.grid)
    net = weierstrass_asymptotic(grid)
    write_net(args.out, net, grid.labels)
    return EXIT_OK


def cmd_reflect(args) -> int:
    bundle = read_net(args.net)
    if bundle.labels is None:
        raise ParseError("reflection requires edge labels in the net file")
    axis = "row" if args.row is not None else "col"
    index = args.row if args.row is not None else args.col
    if index is None:
        raise MinnetError("one of --row/--col is required")
    if args.asymptotic:
        net_ext, labels_ext = rotate_extend_asymptotic(bundle.net, index, axis,
                                                       args.tol, bundle.labels)
        write_net(args.out, net_ext, labels_ext)
    else:
        if bundle.normals is None:
            raise ParseError("isothermic reflection requires normals in the net file")
        net_ext, normals_ext, labels_ext = reflect_isothermic(
            bundle.net, bundle.normals, index, axis, args.tol, bundle.labels)
        write_net(args.out, net_ext, labels_ext, normals_ext)
    return EXIT_OK


def cmd_orbit(args) -> int:
    bundle = read_net(args.net)
    if bundle.normals is None:
        raise ParseError("orbit construction requires normals in the net file")
    _write_orbit(bundle.net, bundle.normals, args.tol, args.max_word, args.out, args.obj)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_net_file(args.net, args.tol, as_isothermic=args.as_isothermic,
                             conjugate=args.conjugate, grid_path=args.grid)
    _emit_report(report, args.report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, default=_json_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    failures = [name for name, chk in report.get("checks", {}).items()
                if not chk.get("ok", True)]
    if failures:
        print("FAILED checks: " + ", ".join(failures), file=sys.stderr)
    else:
        print("all checks passed", file=sys.stderr)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minnet",
        description="Discrete minimal nets: generation, reflection, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a fundamental piece (and orbit)")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    p_enn = gen_sub.add_parser("enneper")
    p_enn.add_argument("--k", type=int, required=True)
    p_enn.add_argument("--size", type=int, default=8)
    p_plan = gen_sub.add_parser("planar-enneper")
    p_plan.add_argument("--size", type=int, default=8)
    p_kno = gen_sub.add_parser("knoid")
    p_kno.add_argument("--k", type=int, required=True)
    p_kno.add_argument("--nmax", type=int, default=3)
    p_kno.add_argument("--mmax", type=int, default=10)
    p_kno.add_argument("--solver-tol", type=float, default=1e-10)
    p_kno.add_argument("--max-iter", type=int, default=500)
    p_kno.add_argument("--seed-file", type=str, default=None)
    p_pla = gen_sub.add_parser("platonic")
    p_pla.add_argument("--preset", choices=sorted(bvp.PLATONIC_PRESETS),
                       required=True)
    p_pla.add_argument("--resolution", type=int, default=3)
    p_pla.add_argument("--solver-tol", type=float, default=1e-10)
    p_pla.add_argument("--max-iter", type=int, default=500)
    for p in (p_enn, p_plan, p_kno, p_pla):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--report", type=str, default=None)
        p.add_argument("--orbit", action="store_true")
        p.add_argument("--max-word", type=int, default=16)

    con = sub.add_parser("conjugate", help="asymptotic net from a grid file")
    con.add_argument("grid")
    con.add_argument("--out", required=True)

    ref = sub.add_parser("reflect", help="extend a net across a boundary line")
    ref.add_argument("net")
    ref.add_argument("--row", type=int, default=None)
    ref.add_argument("--col", type=int, default=None)
    ref.add_argument("--asymptotic", action="store_true",
                     help="use the 180-degree line rotation extension")
    ref.add_argument("--tol", type=float, default=1e-9)
    ref.add_argument("--out", required=True)

    orb = sub.add_parser("orbit", help="symmetry orbit of a net file")
    orb.add_argument("net")
    orb.add_argument("--out", required=True)
    orb.add_argument("--obj", default=None)
    orb.add_argument("--tol", type=float, default=1e-9)
    orb.add_argument("--max-word", type=int, default=16)

    ver = sub.add_parser("verify", help="run all applicable invariant checks")
    ver.add_argument("net")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--as-isothermic", action="store_true")
    ver.add_argument("--conjugate", default=None)
    ver.add_argument("--grid", default=None)
    ver.add_argument("--report", default=None)

    exp = sub.add_parser("export", help="export a net or orbit file to OBJ")
    exp.add_argument("path_in")
    exp.add_argument("path_out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        threads = _read_threads()
        if args.command == "generate":
            params = {k: v for k, v in vars(args).items() if k not in (
                "command", "family", "tol", "out", "report", "orbit", "max_word")}
            config = PipelineConfig(
                command="generate",
                family=args.family.replace("-", "_"),
                params=params, tol=args.tol, out=args.out, report=args.report,
                orbit=args.orbit, max_word=args.max_word, threads=threads)
            return cmd_generate(config)
        if args.command == "conjugate":
            return cmd_conjugate(args)
        if args.command == "reflect":
            return cmd_reflect(args)
        if args.command == "orbit":
            return cmd_orbit(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "export":
            export_obj(args.path_in, args.path_out)
            return EXIT_OK
        return EXIT_USAGE
    except MinnetError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
